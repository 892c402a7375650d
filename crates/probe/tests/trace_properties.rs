//! Property tests for the simulated traceroute: discovered paths must be
//! consistent subsequences of the oracle route under every plan and fault
//! mix.

use nearpeer_probe::{ProbePlan, TraceConfig, TraceScratch, Tracer};
use nearpeer_routing::RouteOracle;
use nearpeer_topology::generators::{mapper, MapperConfig};
use nearpeer_topology::{RouterId, Topology, TopologyBuilder};
use proptest::prelude::*;

fn arb_plan() -> impl Strategy<Value = ProbePlan> {
    prop_oneof![
        Just(ProbePlan::Full),
        (1u32..6).prop_map(ProbePlan::Stride),
        (1u32..6).prop_map(ProbePlan::Budget),
    ]
}

/// A random tree topology: unique paths, hence no shortest-path ties —
/// the regime where a trace's destination-tree prefix pricing must equal
/// the RTT from a tree rooted at each hop.
fn tree_topology(n: usize, seed: u64) -> Topology {
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
        let latency = 10_000 + 977 * i as u32 + (next() % 997) as u32;
        b.link(RouterId(i as u32), RouterId(parent), latency)
            .expect("parent < i: no self-loops or duplicates");
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn trace_paths_are_route_subsequences(
        seed in 0u64..300,
        pick in any::<u64>(),
        plan in arb_plan(),
        loss in 0.0f64..0.6,
        anon in 0.0f64..0.6,
    ) {
        let topo = mapper(&MapperConfig::with_access(40, 60), seed).unwrap();
        let oracle = RouteOracle::new(&topo);
        let access = topo.access_routers();
        let src = access[(pick % access.len() as u64) as usize];
        let dst = RouterId((pick % 40) as u32); // a core router
        let cfg = TraceConfig {
            plan,
            loss_probability: loss,
            anonymous_probability: anon,
            probes_per_hop: 2,
            ..TraceConfig::default()
        };
        let tracer = Tracer::new(&oracle, cfg);
        let trace = tracer.trace(src, dst, seed ^ pick).expect("connected");
        let route = oracle.route(src, dst).expect("connected");

        // The reported path is a subsequence of the true route, starting at
        // the source.
        let path = trace.router_path();
        prop_assert_eq!(path[0], src);
        let mut route_iter = route.iter();
        for hop in &path {
            prop_assert!(
                route_iter.any(|r| r == hop),
                "hop {} out of order or off-route", hop
            );
        }
        // Probe accounting is sane.
        prop_assert!(trace.probes_sent >= trace.hops.len() as u32);
        prop_assert!(trace.completeness() >= 0.0 && trace.completeness() <= 1.0);
        // The destination hop, when answered, is the destination.
        if trace.destination_reached {
            prop_assert_eq!(*path.last().unwrap(), dst);
        }
    }

    #[test]
    fn cost_monotone_in_faults(seed in 0u64..200, pick in any::<u64>()) {
        let topo = mapper(&MapperConfig::with_access(40, 60), seed).unwrap();
        let oracle = RouteOracle::new(&topo);
        let access = topo.access_routers();
        let src = access[(pick % access.len() as u64) as usize];
        let dst = RouterId((pick % 40) as u32);
        let clean = Tracer::new(&oracle, TraceConfig::default())
            .trace(src, dst, seed)
            .unwrap();
        let lossy_cfg = TraceConfig { loss_probability: 0.5, ..TraceConfig::default() };
        let lossy = Tracer::new(&oracle, lossy_cfg).trace(src, dst, seed).unwrap();
        prop_assert!(lossy.probes_sent >= clean.probes_sent);
        prop_assert!(lossy.elapsed_us >= clean.elapsed_us);
    }

    #[test]
    fn default_equals_exact_mode_on_tie_free_topologies(
        n in 4usize..50,
        seed in 0u64..300,
        pick in any::<u64>(),
        plan in arb_plan(),
        loss in 0.0f64..0.5,
        anon in 0.0f64..0.5,
    ) {
        let topo = tree_topology(n, seed);
        let oracle = RouteOracle::new(&topo);
        let src = RouterId((pick % n as u64) as u32);
        let dst = RouterId(((pick / n as u64) % n as u64) as u32);
        let clean = TraceConfig { plan, probes_per_hop: 2, ..TraceConfig::default() };
        let faulty = TraceConfig { loss_probability: loss, anonymous_probability: anon, ..clean };
        // The exact price of a hop is the RTT from a tree rooted at that
        // hop; when shortest paths are unique every answered hop carries
        // it, under any plan and fault mix.
        let trace = Tracer::new(&oracle, faulty).trace(src, dst, seed ^ pick).unwrap();
        for hop in &trace.hops {
            if let Some(router) = hop.router {
                prop_assert_eq!(hop.rtt_us, oracle.rtt_us(src, router).unwrap(), "ttl {}", hop.ttl);
            }
        }
        // Without faults every probed TTL answers its first probe, so the
        // elapsed time is the exact prices plus one overhead per probe.
        let trace = Tracer::new(&oracle, clean).trace(src, dst, seed ^ pick).unwrap();
        prop_assert_eq!(trace.probes_sent as usize, trace.hops.len());
        let mut want_elapsed = 0u64;
        for hop in &trace.hops {
            let router = hop.router.expect("no faults configured");
            want_elapsed += oracle.rtt_us(src, router).unwrap() + clean.per_probe_overhead_us;
        }
        prop_assert_eq!(trace.elapsed_us, want_elapsed);
    }

    #[test]
    fn structural_fields_agree_between_modes_even_with_ties(
        seed in 0u64..200,
        pick in any::<u64>(),
        plan in arb_plan(),
    ) {
        // Mapper graphs have equal-hop-count ties, so a hop's RTT may
        // differ from the RTT of a tree rooted at that hop — but its hop
        // distance, the destination's RTT and probe accounting must not.
        let topo = mapper(&MapperConfig::with_access(40, 60), seed).unwrap();
        let oracle = RouteOracle::new(&topo);
        let access = topo.access_routers();
        let src = access[(pick % access.len() as u64) as usize];
        let dst = RouterId((pick % 40) as u32);
        // A GLP core node can itself have degree 1, making it an "access"
        // router; skip the degenerate src == dst draw.
        prop_assume!(src != dst);
        let cfg = TraceConfig { plan, ..TraceConfig::default() };
        let trace = Tracer::new(&oracle, cfg).trace(src, dst, seed ^ pick).unwrap();
        prop_assert!(trace.destination_reached);
        prop_assert_eq!(trace.probes_sent as usize, trace.hops.len());
        for hop in &trace.hops {
            let router = hop.router.expect("no faults configured");
            prop_assert_eq!(oracle.hops(src, router), Some(hop.ttl));
        }
        let last = trace.hops.last().unwrap();
        prop_assert_eq!(last.router, Some(dst));
        prop_assert_eq!(last.rtt_us, oracle.rtt_us(src, dst).unwrap());
    }

    #[test]
    fn scratch_reuse_reproduces_fresh_traces(
        seed in 0u64..200,
        pick in any::<u64>(),
        plan in arb_plan(),
        loss in 0.0f64..0.5,
        anon in 0.0f64..0.5,
    ) {
        let topo = mapper(&MapperConfig::with_access(40, 60), seed).unwrap();
        let oracle = RouteOracle::new(&topo);
        let access = topo.access_routers();
        let cfg = TraceConfig {
            plan,
            loss_probability: loss,
            anonymous_probability: anon,
            ..TraceConfig::default()
        };
        let tracer = Tracer::new(&oracle, cfg);
        // One scratch across several different (src, dst, seed) traces must
        // reproduce the fresh-allocation results exactly.
        let mut scratch = TraceScratch::new();
        for k in 0..5u64 {
            let src = access[((pick + k) % access.len() as u64) as usize];
            let dst = RouterId(((pick / (k + 1)) % 40) as u32);
            let fresh = tracer.trace(src, dst, seed ^ k);
            let reused = tracer.trace_with_scratch(src, dst, seed ^ k, &mut scratch);
            prop_assert_eq!(fresh, reused, "trace {}", k);
        }
    }

    #[test]
    fn plans_never_exceed_full_cost(seed in 0u64..200, stride in 2u32..6) {
        let topo = mapper(&MapperConfig::with_access(40, 60), seed).unwrap();
        let oracle = RouteOracle::new(&topo);
        let access = topo.access_routers();
        let src = access[0];
        let dst = RouterId(0);
        // A GLP core node can itself have degree 1, making it an "access"
        // router; skip the degenerate src == dst draw.
        prop_assume!(src != dst);
        let full = Tracer::new(&oracle, TraceConfig::default())
            .trace(src, dst, seed)
            .unwrap();
        let dec_cfg = TraceConfig { plan: ProbePlan::Stride(stride), ..TraceConfig::default() };
        let dec = Tracer::new(&oracle, dec_cfg).trace(src, dst, seed).unwrap();
        prop_assert!(dec.probes_sent <= full.probes_sent);
        prop_assert!(dec.destination_reached);
    }
}
