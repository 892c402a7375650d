//! Neighbor-selection policies — the paper's scheme and every baseline the
//! evaluation compares against.
//!
//! | policy | role in the paper |
//! |--------|-------------------|
//! | [`PathTreeSelector`]  | the contribution (`D` in Figure 2) |
//! | [`RandomSelector`]    | "a newcomer randomly choosing its neighbors" (`Drandom`) |
//! | [`OracleSelector`]    | "the best set of neighbors obtained by a brute-force algorithm" (`Dclosest`) |
//! | [`VivaldiSelector`]   | coordinate-based selection (the slow alternative of §1) |
//! | [`BinningSelector`]   | Ratnasamy-style landmark binning (the classic cited by \[10\]) |

use crate::ids::PeerId;
use crate::server::ManagementServer;
use nearpeer_coord::Coord;
use nearpeer_routing::bfs_distances;
use nearpeer_topology::{RouterId, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// A neighbor-selection strategy: given a newcomer, propose `k` peers.
pub trait Selector {
    /// Human-readable policy name for reports.
    fn name(&self) -> &'static str;

    /// Proposes up to `k` neighbors for `newcomer` (never including it).
    fn select(&mut self, newcomer: PeerId, k: usize) -> Vec<PeerId>;
}

/// The paper's scheme, answering from a [`ManagementServer`].
pub struct PathTreeSelector<'s> {
    server: &'s mut ManagementServer,
}

impl<'s> PathTreeSelector<'s> {
    /// Wraps a server on which every candidate peer is registered.
    pub fn new(server: &'s mut ManagementServer) -> Self {
        Self { server }
    }
}

impl Selector for PathTreeSelector<'_> {
    fn name(&self) -> &'static str {
        "path-tree"
    }

    fn select(&mut self, newcomer: PeerId, k: usize) -> Vec<PeerId> {
        self.server
            .neighbors_of(newcomer, k)
            .map(|ns| ns.into_iter().map(|n| n.peer).collect())
            .unwrap_or_default()
    }
}

/// The paper's baseline: uniformly random peers.
pub struct RandomSelector {
    population: Vec<PeerId>,
    rng: StdRng,
}

impl RandomSelector {
    /// Creates the selector over the current population.
    pub fn new(population: Vec<PeerId>, seed: u64) -> Self {
        Self {
            population,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Selector for RandomSelector {
    fn name(&self) -> &'static str {
        "random"
    }

    fn select(&mut self, newcomer: PeerId, k: usize) -> Vec<PeerId> {
        let mut pool: Vec<PeerId> = self
            .population
            .iter()
            .copied()
            .filter(|&p| p != newcomer)
            .collect();
        pool.shuffle(&mut self.rng);
        pool.truncate(k);
        pool
    }
}

/// Brute force over true hop distances — `Dclosest`. One BFS per query from
/// the newcomer's attachment router (this is the expensive reference the
/// paper's scheme approximates).
pub struct OracleSelector<'t> {
    topo: &'t Topology,
    attachment: HashMap<PeerId, RouterId>,
}

impl<'t> OracleSelector<'t> {
    /// Creates the oracle over peers and their attachment routers.
    pub fn new(topo: &'t Topology, attachment: HashMap<PeerId, RouterId>) -> Self {
        Self { topo, attachment }
    }
}

impl Selector for OracleSelector<'_> {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn select(&mut self, newcomer: PeerId, k: usize) -> Vec<PeerId> {
        let Some(&src) = self.attachment.get(&newcomer) else {
            return Vec::new();
        };
        let dist = bfs_distances(self.topo, src);
        let mut ranked: Vec<(u32, PeerId)> = self
            .attachment
            .iter()
            .filter(|&(&p, _)| p != newcomer)
            .map(|(&p, &r)| (dist[r.index()], p))
            .filter(|&(d, _)| d != u32::MAX)
            .collect();
        ranked.sort();
        ranked.truncate(k);
        ranked.into_iter().map(|(_, p)| p).collect()
    }
}

/// Coordinate-based selection: nearest peers by predicted RTT from a (fully
/// or partially converged) coordinate table.
pub struct VivaldiSelector {
    coords: HashMap<PeerId, Coord>,
}

impl VivaldiSelector {
    /// Creates the selector from a coordinate snapshot.
    pub fn new(coords: HashMap<PeerId, Coord>) -> Self {
        Self { coords }
    }
}

impl Selector for VivaldiSelector {
    fn name(&self) -> &'static str {
        "vivaldi"
    }

    fn select(&mut self, newcomer: PeerId, k: usize) -> Vec<PeerId> {
        let Some(me) = self.coords.get(&newcomer) else {
            return Vec::new();
        };
        let mut ranked: Vec<(f64, PeerId)> = self
            .coords
            .iter()
            .filter(|&(&p, _)| p != newcomer)
            .map(|(&p, c)| (me.distance(c), p))
            .collect();
        ranked.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite distances")
                .then(a.1.cmp(&b.1))
        });
        ranked.truncate(k);
        ranked.into_iter().map(|(_, p)| p).collect()
    }
}

/// Landmark binning (Ratnasamy et al.): each peer is described by the
/// *order* in which it sees the landmarks by RTT; peers whose bins share
/// the longest prefix are preferred, ties broken by RTT-vector distance.
pub struct BinningSelector {
    bins: HashMap<PeerId, Vec<u32>>, // landmark ids sorted by RTT
    rtts: HashMap<PeerId, Vec<u64>>, // raw RTT vector (landmark order)
}

impl BinningSelector {
    /// Creates the selector from per-peer landmark RTT vectors (all the
    /// same length, one slot per landmark).
    pub fn new(rtts: HashMap<PeerId, Vec<u64>>) -> Self {
        let bins = rtts
            .iter()
            .map(|(&p, v)| {
                let mut order: Vec<u32> = (0..v.len() as u32).collect();
                order.sort_by_key(|&i| (v[i as usize], i));
                (p, order)
            })
            .collect();
        Self { bins, rtts }
    }

    fn prefix_len(a: &[u32], b: &[u32]) -> usize {
        a.iter().zip(b).take_while(|(x, y)| x == y).count()
    }

    fn vector_gap(a: &[u64], b: &[u64]) -> u64 {
        a.iter().zip(b).map(|(&x, &y)| x.abs_diff(y)).sum()
    }
}

impl Selector for BinningSelector {
    fn name(&self) -> &'static str {
        "binning"
    }

    fn select(&mut self, newcomer: PeerId, k: usize) -> Vec<PeerId> {
        let (Some(my_bin), Some(my_rtts)) = (self.bins.get(&newcomer), self.rtts.get(&newcomer))
        else {
            return Vec::new();
        };
        let mut ranked: Vec<(std::cmp::Reverse<usize>, u64, PeerId)> = self
            .bins
            .iter()
            .filter(|&(&p, _)| p != newcomer)
            .map(|(&p, bin)| {
                let shared = Self::prefix_len(my_bin, bin);
                let gap = Self::vector_gap(my_rtts, &self.rtts[&p]);
                (std::cmp::Reverse(shared), gap, p)
            })
            .collect();
        ranked.sort();
        ranked.truncate(k);
        ranked.into_iter().map(|(_, _, p)| p).collect()
    }
}

/// The total hop distance `D` of a neighbor set — the paper's Figure 2
/// metric: `Σ hop-distance(newcomer, neighbor)` over the selected peers.
/// Returns `None` if any neighbor is unreachable or unknown.
pub fn neighbor_set_cost(
    topo: &Topology,
    attachment: &HashMap<PeerId, RouterId>,
    newcomer: PeerId,
    neighbors: &[PeerId],
) -> Option<u64> {
    let &src = attachment.get(&newcomer)?;
    let dist = bfs_distances(topo, src);
    let mut total = 0u64;
    for p in neighbors {
        let &r = attachment.get(p)?;
        let d = dist[r.index()];
        if d == u32::MAX {
            return None;
        }
        total += d as u64;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PeerPath;
    use crate::server::ServerConfig;
    use nearpeer_topology::generators::regular;

    fn attachments(pairs: &[(u64, u32)]) -> HashMap<PeerId, RouterId> {
        pairs
            .iter()
            .map(|&(p, r)| (PeerId(p), RouterId(r)))
            .collect()
    }

    #[test]
    fn oracle_picks_true_closest() {
        let topo = regular::line(10);
        let att = attachments(&[(1, 0), (2, 3), (3, 5), (4, 9)]);
        let mut sel = OracleSelector::new(&topo, att);
        assert_eq!(sel.select(PeerId(1), 2), vec![PeerId(2), PeerId(3)]);
        assert_eq!(sel.select(PeerId(4), 1), vec![PeerId(3)]);
        assert!(sel.select(PeerId(99), 2).is_empty());
        assert_eq!(sel.name(), "oracle");
    }

    #[test]
    fn random_never_returns_self_and_respects_k() {
        let pop: Vec<PeerId> = (0..20).map(PeerId).collect();
        let mut sel = RandomSelector::new(pop, 7);
        for _ in 0..10 {
            let picks = sel.select(PeerId(3), 5);
            assert_eq!(picks.len(), 5);
            assert!(!picks.contains(&PeerId(3)));
        }
        // k larger than the population.
        let mut small = RandomSelector::new(vec![PeerId(1), PeerId(2)], 1);
        assert_eq!(small.select(PeerId(1), 10), vec![PeerId(2)]);
    }

    #[test]
    fn vivaldi_ranks_by_coordinate_distance() {
        let mut coords = HashMap::new();
        coords.insert(
            PeerId(1),
            Coord {
                v: vec![0.0, 0.0],
                height: 0.0,
            },
        );
        coords.insert(
            PeerId(2),
            Coord {
                v: vec![1.0, 0.0],
                height: 0.0,
            },
        );
        coords.insert(
            PeerId(3),
            Coord {
                v: vec![5.0, 0.0],
                height: 0.0,
            },
        );
        coords.insert(
            PeerId(4),
            Coord {
                v: vec![2.0, 0.0],
                height: 0.0,
            },
        );
        let mut sel = VivaldiSelector::new(coords);
        assert_eq!(sel.select(PeerId(1), 2), vec![PeerId(2), PeerId(4)]);
        assert!(sel.select(PeerId(9), 1).is_empty());
    }

    #[test]
    fn binning_prefers_same_bin() {
        let mut rtts = HashMap::new();
        rtts.insert(PeerId(1), vec![10, 50, 90]); // bin 0,1,2
        rtts.insert(PeerId(2), vec![12, 55, 80]); // bin 0,1,2 (same)
        rtts.insert(PeerId(3), vec![90, 50, 10]); // bin 2,1,0
        let mut sel = BinningSelector::new(rtts);
        let picks = sel.select(PeerId(1), 2);
        assert_eq!(picks[0], PeerId(2), "same-bin peer first");
        assert_eq!(picks[1], PeerId(3));
    }

    #[test]
    fn path_tree_selector_round_trips_server() {
        let mut srv =
            ManagementServer::new(vec![RouterId(0)], vec![vec![0]], ServerConfig::default())
                .unwrap();
        let mk = |ids: &[u32]| PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap();
        srv.register(PeerId(1), mk(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), mk(&[5, 2, 1, 0])).unwrap();
        srv.register(PeerId(3), mk(&[6, 3, 1, 0])).unwrap();
        let mut sel = PathTreeSelector::new(&mut srv);
        assert_eq!(sel.select(PeerId(1), 2), vec![PeerId(2), PeerId(3)]);
        assert!(sel.select(PeerId(99), 2).is_empty());
    }

    #[test]
    fn neighbor_set_cost_sums_hops() {
        let topo = regular::line(10);
        let att = attachments(&[(1, 0), (2, 3), (3, 5)]);
        let d = neighbor_set_cost(&topo, &att, PeerId(1), &[PeerId(2), PeerId(3)]);
        assert_eq!(d, Some(3 + 5));
        assert_eq!(neighbor_set_cost(&topo, &att, PeerId(9), &[]), None);
        assert_eq!(
            neighbor_set_cost(&topo, &att, PeerId(1), &[PeerId(9)]),
            None
        );
    }

    #[test]
    fn oracle_beats_or_ties_everyone_by_construction() {
        // On a ring with scattered peers, the oracle's neighbor cost must
        // lower-bound the random policy's.
        let topo = regular::ring(24);
        let att: HashMap<PeerId, RouterId> = (0..12)
            .map(|i| (PeerId(i), RouterId((i * 2) as u32)))
            .collect();
        let mut oracle = OracleSelector::new(&topo, att.clone());
        let mut random = RandomSelector::new(att.keys().copied().collect(), 3);
        for p in 0..12 {
            let p = PeerId(p);
            let d_oracle = neighbor_set_cost(&topo, &att, p, &oracle.select(p, 3)).unwrap();
            let d_random = neighbor_set_cost(&topo, &att, p, &random.select(p, 3)).unwrap();
            assert!(d_oracle <= d_random, "{p}: {d_oracle} > {d_random}");
        }
    }
}
