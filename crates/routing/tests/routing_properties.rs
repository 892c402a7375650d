//! Property tests for the routing layer: shortest-path trees must produce
//! valid, truly shortest routes on arbitrary connected topologies.

use nearpeer_routing::{
    bfs_distances, hop_distance, multi_source_bfs, shortest_path_tree,
    shortest_path_tree_with_scratch, RouteOracle, SptMetric, SptScratch,
};
use nearpeer_topology::generators::{mapper, waxman, MapperConfig, WaxmanConfig};
use nearpeer_topology::{RouterId, Topology, TopologyBuilder};
use proptest::prelude::*;

fn arb_topology() -> impl Strategy<Value = Topology> {
    (5usize..60, 0u64..500, prop::bool::ANY).prop_map(|(n, seed, geometric)| {
        if geometric {
            waxman(
                &WaxmanConfig {
                    n,
                    alpha: 0.3,
                    beta: 0.3,
                },
                seed,
            )
            .unwrap()
        } else {
            mapper(&MapperConfig::with_access(n.max(5), n), seed).unwrap()
        }
    })
}

/// A uniformly random tree with distinct link latencies. Tree paths are
/// *unique*, so there are no shortest-path ties: the hop-shortest route is
/// the only route, and per-hop-tree RTTs must coincide exactly with the
/// destination tree's latency prefixes.
fn arb_tree_topology() -> impl Strategy<Value = Topology> {
    (4usize..50, 0u64..500).prop_map(|(n, seed)| {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = TopologyBuilder::with_routers(n);
        for i in 1..n {
            let parent = (next() % i as u64) as u32;
            // Distinct latencies (units of 10 + unique offset) keep even
            // latency-metric trees tie-free.
            let latency = 10_000 + 977 * i as u32 + (next() % 997) as u32;
            b.link(RouterId(i as u32), RouterId(parent), latency)
                .expect("parent < i: no self-loops or duplicates");
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn routes_are_valid_shortest_paths(topo in arb_topology(), pick in any::<u64>()) {
        let n = topo.n_routers() as u64;
        let src = RouterId((pick % n) as u32);
        let dst = RouterId(((pick / n) % n) as u32);
        let oracle = RouteOracle::new(&topo);
        let route = oracle.route(src, dst).expect("generators are connected");
        // Endpoints correct.
        prop_assert_eq!(route[0], src);
        prop_assert_eq!(*route.last().unwrap(), dst);
        // Consecutive routers are linked; no router repeats.
        for w in route.windows(2) {
            prop_assert!(topo.has_link(w[0], w[1]));
        }
        let mut dedup = route.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), route.len(), "route loops");
        // Length equals the true hop distance.
        let d = hop_distance(&topo, src, dst).unwrap();
        prop_assert_eq!(route.len() as u32 - 1, d);
    }

    #[test]
    fn bfs_and_dijkstra_agree_on_reachability(topo in arb_topology(), pick in any::<u32>()) {
        let src = RouterId(pick % topo.n_routers() as u32);
        let hops_tree = shortest_path_tree(&topo, src, SptMetric::Hops);
        let lat_tree = shortest_path_tree(&topo, src, SptMetric::Latency);
        for r in topo.routers() {
            prop_assert_eq!(hops_tree.reaches(r), lat_tree.reaches(r));
            if hops_tree.reaches(r) {
                // Latency-optimal paths are never faster than the latency
                // accumulated along them and never beat the direct metric.
                let bfs_lat = hops_tree.latency_to_root_us(r).unwrap();
                let dij_lat = lat_tree.latency_to_root_us(r).unwrap();
                prop_assert!(dij_lat <= bfs_lat, "{}: dijkstra {} > bfs {}", r, dij_lat, bfs_lat);
                // And hop-optimal paths are never longer than latency-optimal ones.
                let bfs_hops = hops_tree.hops_to_root(r).unwrap();
                let dij_hops = lat_tree.hops_to_root(r).unwrap();
                prop_assert!(bfs_hops <= dij_hops);
            }
        }
    }

    #[test]
    fn triangle_inequality_of_hop_metric(topo in arb_topology(), pick in any::<u64>()) {
        let n = topo.n_routers() as u64;
        let a = RouterId((pick % n) as u32);
        let b = RouterId(((pick / n) % n) as u32);
        let c = RouterId(((pick / (n * n)) % n) as u32);
        let dab = hop_distance(&topo, a, b).unwrap();
        let dbc = hop_distance(&topo, b, c).unwrap();
        let dac = hop_distance(&topo, a, c).unwrap();
        prop_assert!(dac <= dab + dbc);
        // Symmetry.
        prop_assert_eq!(hop_distance(&topo, b, a).unwrap(), dab);
    }

    #[test]
    fn multi_source_matches_min_of_single_sources(topo in arb_topology(), s in any::<u32>()) {
        let n = topo.n_routers() as u32;
        let s1 = RouterId(s % n);
        let s2 = RouterId((s / 2) % n);
        let merged = multi_source_bfs(&topo, &[s1, s2]);
        let d1 = bfs_distances(&topo, s1);
        let d2 = bfs_distances(&topo, s2);
        for r in topo.routers() {
            let want = d1[r.index()].min(d2[r.index()]);
            prop_assert_eq!(merged[r.index()].0, want);
        }
    }

    #[test]
    fn annotated_prefixes_are_monotone_and_anchor_to_rtt(
        topo in arb_topology(),
        pick in any::<u64>(),
    ) {
        let n = topo.n_routers() as u64;
        let src = RouterId((pick % n) as u32);
        let dst = RouterId(((pick / n) % n) as u32);
        let oracle = RouteOracle::new(&topo);
        let annotated = oracle.route_annotated(src, dst).expect("generators are connected");
        let plain = oracle.route(src, dst).unwrap();
        // Same routers, hop for hop, with the hop index as depth.
        prop_assert_eq!(annotated.len(), plain.len());
        for (i, (hop, &router)) in annotated.iter().zip(&plain).enumerate() {
            prop_assert_eq!(hop.router, router);
            prop_assert_eq!(hop.depth as usize, i);
        }
        // Prefixes start at zero and never decrease along the route.
        prop_assert_eq!(annotated[0].prefix_latency_us, 0);
        for w in annotated.windows(2) {
            prop_assert!(
                w[0].prefix_latency_us <= w[1].prefix_latency_us,
                "prefix decreased: {:?} -> {:?}", w[0], w[1]
            );
            // Each step adds exactly the traversed link's latency.
            let link = topo.link_latency_us(w[0].router, w[1].router).unwrap() as u64;
            prop_assert_eq!(w[1].prefix_latency_us - w[0].prefix_latency_us, link);
        }
        // At the destination the doubled prefix IS the oracle RTT.
        prop_assert_eq!(
            annotated.last().unwrap().prefix_latency_us * 2,
            oracle.rtt_us(src, dst).unwrap()
        );
    }

    #[test]
    fn annotated_prefixes_match_per_hop_trees_when_tie_free(
        topo in arb_tree_topology(),
        pick in any::<u64>(),
    ) {
        let n = topo.n_routers() as u64;
        let src = RouterId((pick % n) as u32);
        let dst = RouterId(((pick / n) % n) as u32);
        let oracle = RouteOracle::new(&topo);
        let annotated = oracle.route_annotated(src, dst).expect("trees are connected");
        // On a tree every path is unique, so the RTT from a tree rooted
        // at the hop must equal the doubled destination-tree prefix (what
        // a trace prices from) at EVERY hop.
        for hop in &annotated {
            prop_assert_eq!(
                hop.prefix_latency_us * 2,
                oracle.rtt_us(src, hop.router).unwrap(),
                "hop {} at depth {}", hop.router, hop.depth
            );
        }
    }

    #[test]
    fn scratch_and_fresh_builds_are_bit_identical(
        topo in arb_topology(),
        picks in any::<u32>(),
    ) {
        // One scratch reused across roots and metrics must reproduce the
        // fresh-scratch trees bit for bit.
        let n = topo.n_routers() as u32;
        let mut scratch = SptScratch::new();
        for k in 0..4u32 {
            let root = RouterId((picks.wrapping_mul(k + 1)) % n);
            for metric in [SptMetric::Hops, SptMetric::Latency] {
                let fresh = shortest_path_tree(&topo, root, metric);
                let reused = shortest_path_tree_with_scratch(&topo, root, metric, &mut scratch);
                prop_assert_eq!(&fresh, &reused, "root {} metric {:?}", root, metric);
            }
        }
    }

    #[test]
    fn branch_point_lies_on_both_routes(topo in arb_topology(), pick in any::<u64>()) {
        let n = topo.n_routers() as u64;
        let a = RouterId((pick % n) as u32);
        let b = RouterId(((pick / n) % n) as u32);
        let dst = RouterId(((pick / (n * n)) % n) as u32);
        let oracle = RouteOracle::new(&topo);
        let meet = oracle.branch_point(a, b, dst).unwrap();
        let ra = oracle.route(a, dst).unwrap();
        let rb = oracle.route(b, dst).unwrap();
        prop_assert!(ra.contains(&meet));
        prop_assert!(rb.contains(&meet));
        // Beyond the branch point, the two routes coincide (destination
        // trees share suffixes).
        let ia = ra.iter().position(|&r| r == meet).unwrap();
        let ib = rb.iter().position(|&r| r == meet).unwrap();
        prop_assert_eq!(&ra[ia..], &rb[ib..]);
    }
}
