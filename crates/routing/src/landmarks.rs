//! Landmark placement policies (future-work study W1).
//!
//! The paper attaches its "few landmarks" to routers with "medium-size
//! degree" and lists the number and placement of landmarks as an open
//! question. This module implements the candidate policies the W1
//! experiment sweeps.

use crate::bfs_distances;
use nearpeer_topology::{analysis, RouterId, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// How to choose landmark routers on a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PlacementPolicy {
    /// Uniformly random among non-access routers.
    Random,
    /// The paper's choice: routers in the middle degree band
    /// (40th–80th percentile of non-access degrees).
    DegreeMedium,
    /// The highest-degree routers (hubs).
    DegreeHigh,
    /// The highest (pivot-sampled) betweenness-centrality routers.
    Betweenness,
    /// Greedy k-center spread: each landmark maximises its hop distance to
    /// the ones already placed.
    Spread,
}

impl PlacementPolicy {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::Random => "random",
            PlacementPolicy::DegreeMedium => "degree-medium",
            PlacementPolicy::DegreeHigh => "degree-high",
            PlacementPolicy::Betweenness => "betweenness",
            PlacementPolicy::Spread => "spread",
        }
    }

    /// All policies, for sweeps.
    pub fn all() -> [PlacementPolicy; 5] {
        [
            PlacementPolicy::Random,
            PlacementPolicy::DegreeMedium,
            PlacementPolicy::DegreeHigh,
            PlacementPolicy::Betweenness,
            PlacementPolicy::Spread,
        ]
    }
}

/// Places `n` landmarks on the topology according to the policy
/// (deterministic per seed). Returns fewer than `n` if the topology has
/// fewer eligible routers. Landmark routers are distinct.
pub fn place_landmarks(
    topo: &Topology,
    n: usize,
    policy: PlacementPolicy,
    seed: u64,
) -> Vec<RouterId> {
    if n == 0 || topo.n_routers() == 0 {
        return Vec::new();
    }
    // Landmarks are infrastructure nodes: never degree-1 access routers
    // (those are where peers live).
    let eligible: Vec<RouterId> = topo.routers().filter(|&r| topo.degree(r) >= 2).collect();
    let eligible = if eligible.is_empty() {
        topo.routers().collect::<Vec<_>>()
    } else {
        eligible
    };
    let n = n.min(eligible.len());
    let mut rng = StdRng::seed_from_u64(seed);

    match policy {
        PlacementPolicy::Random => {
            let mut pool = eligible;
            pool.shuffle(&mut rng);
            pool.truncate(n);
            pool.sort();
            pool
        }
        PlacementPolicy::DegreeMedium => {
            let mut by_degree = eligible;
            by_degree.sort_by_key(|&r| (topo.degree(r), r));
            let lo = by_degree.len() * 40 / 100;
            let hi = (by_degree.len() * 80 / 100)
                .max(lo + 1)
                .min(by_degree.len());
            let mut band: Vec<RouterId> = by_degree[lo..hi].to_vec();
            band.shuffle(&mut rng);
            band.truncate(n);
            // Top up from the full list if the band was too narrow.
            if band.len() < n {
                for r in by_degree {
                    if band.len() == n {
                        break;
                    }
                    if !band.contains(&r) {
                        band.push(r);
                    }
                }
            }
            band.sort();
            band
        }
        PlacementPolicy::DegreeHigh => {
            let mut by_degree = eligible;
            by_degree.sort_by_key(|&r| (std::cmp::Reverse(topo.degree(r)), r));
            by_degree.truncate(n);
            by_degree.sort();
            by_degree
        }
        PlacementPolicy::Betweenness => {
            let pivots = (topo.n_routers() / 20).clamp(8, 64);
            let scores = analysis::betweenness_centrality_sampled(topo, pivots);
            let mut ranked = eligible;
            ranked.sort_by(|&a, &b| {
                scores[b.index()]
                    .partial_cmp(&scores[a.index()])
                    .expect("finite scores")
                    .then(a.cmp(&b))
            });
            ranked.truncate(n);
            ranked.sort();
            ranked
        }
        PlacementPolicy::Spread => {
            let mut chosen: Vec<RouterId> = Vec::with_capacity(n);
            let first = *eligible.choose(&mut rng).expect("eligible non-empty");
            chosen.push(first);
            let mut min_dist = bfs_distances(topo, first);
            while chosen.len() < n {
                // Farthest eligible router from the chosen set.
                let next = eligible
                    .iter()
                    .copied()
                    .filter(|r| !chosen.contains(r))
                    .max_by_key(|r| {
                        let d = min_dist[r.index()];
                        (if d == u32::MAX { 0 } else { d }, std::cmp::Reverse(r.0))
                    });
                let Some(next) = next else { break };
                chosen.push(next);
                let d2 = bfs_distances(topo, next);
                for (m, d) in min_dist.iter_mut().zip(d2) {
                    *m = (*m).min(d);
                }
            }
            chosen.sort();
            chosen
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpeer_topology::generators::{mapper, regular, MapperConfig};

    fn map() -> Topology {
        mapper(&MapperConfig::tiny(), 11).unwrap()
    }

    #[test]
    fn never_places_on_access_routers() {
        let t = map();
        for policy in PlacementPolicy::all() {
            let lms = place_landmarks(&t, 6, policy, 3);
            assert_eq!(lms.len(), 6, "{}", policy.name());
            for lm in &lms {
                assert!(
                    t.degree(*lm) >= 2,
                    "{}: landmark {lm} has degree {}",
                    policy.name(),
                    t.degree(*lm)
                );
            }
            // Distinct.
            let mut dedup = lms.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), lms.len());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let t = map();
        for policy in PlacementPolicy::all() {
            let a = place_landmarks(&t, 4, policy, 7);
            let b = place_landmarks(&t, 4, policy, 7);
            assert_eq!(a, b, "{}", policy.name());
        }
    }

    #[test]
    fn degree_high_picks_hubs() {
        let t = regular::star(10); // center has degree 10
        let lms = place_landmarks(&t, 1, PlacementPolicy::DegreeHigh, 1);
        assert_eq!(lms, vec![RouterId(0)]);
    }

    #[test]
    fn degree_medium_avoids_extremes_on_mapper() {
        let t = map();
        let lms = place_landmarks(&t, 4, PlacementPolicy::DegreeMedium, 5);
        let max_degree = t.max_degree();
        for lm in lms {
            let d = t.degree(lm);
            assert!(d < max_degree, "medium policy picked the top hub");
        }
    }

    #[test]
    fn spread_separates_landmarks() {
        let t = regular::line(30);
        // On a line, two spread landmarks must land far apart.
        let lms = place_landmarks(&t, 2, PlacementPolicy::Spread, 2);
        assert_eq!(lms.len(), 2);
        let dist = crate::hop_distance(&t, lms[0], lms[1]).unwrap();
        assert!(dist >= 14, "spread landmarks only {dist} hops apart");
    }

    #[test]
    fn handles_more_landmarks_than_routers() {
        let t = regular::ring(5);
        let lms = place_landmarks(&t, 50, PlacementPolicy::Random, 1);
        assert_eq!(lms.len(), 5);
        assert!(place_landmarks(&t, 0, PlacementPolicy::Random, 1).is_empty());
    }

    #[test]
    fn betweenness_prefers_bridge() {
        // Two rings joined by one bridge router.
        let mut b = nearpeer_topology::TopologyBuilder::with_routers(11);
        for i in 0..5u32 {
            b.link(RouterId(i), RouterId((i + 1) % 5), 1).unwrap();
        }
        for i in 6..11u32 {
            let next = if i == 10 { 6 } else { i + 1 };
            b.link(RouterId(i), RouterId(next), 1).unwrap();
        }
        b.link(RouterId(0), RouterId(5), 1).unwrap();
        b.link(RouterId(5), RouterId(6), 1).unwrap();
        let t = b.build();
        // Pivot sampling under-credits routers that are pivots themselves,
        // so accept any router of the bridge area (the bridge and its two
        // ring attachments) as the top pick.
        let lms = place_landmarks(&t, 1, PlacementPolicy::Betweenness, 1);
        let bridge_area = [RouterId(0), RouterId(5), RouterId(6)];
        assert!(
            bridge_area.contains(&lms[0]),
            "betweenness picked {} outside the bridge area",
            lms[0]
        );
    }
}
