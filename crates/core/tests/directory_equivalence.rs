//! Property test: the sharded directory behind [`ManagementServer`] is
//! observationally identical to a reference **single-shard** build — one
//! global [`RouterIndex`], the pre-refactor layout — for random topologies,
//! arrival orders and operation interleavings: `register`, `register_batch`,
//! `deregister`, `handover`, heartbeats and lease expiry all produce the
//! same [`JoinOutcome`]s, batch outcomes, errors, neighbor answers and
//! counters.

use nearpeer_core::{
    BatchOutcome, CoreError, JoinOutcome, LandmarkId, ManagementServer, Neighbor, PathTree, PeerId,
    PeerPath, RouterIndex, ServerConfig,
};
use nearpeer_topology::RouterId;
use proptest::prelude::*;
use std::collections::{BinaryHeap, HashMap, HashSet};

const K: usize = 4;
const LM_ROUTERS: [u32; 3] = [0, 1_000, 2_000];
const LM_DIST: [[u32; 3]; 3] = [[0, 3, 7], [3, 0, 4], [7, 4, 0]];

/// The reference: the pre-refactor server layout — one global index over
/// every landmark's peers — re-implemented on the public data structures.
struct ReferenceServer {
    index: RouterIndex,
    peer_landmark: HashMap<PeerId, LandmarkId>,
    last_seen: HashMap<PeerId, u64>,
    epoch: u64,
    joins: u64,
    leaves: u64,
    handovers: u64,
}

impl ReferenceServer {
    fn new() -> Self {
        Self {
            index: RouterIndex::new(),
            peer_landmark: HashMap::new(),
            last_seen: HashMap::new(),
            epoch: 0,
            joins: 0,
            leaves: 0,
            handovers: 0,
        }
    }

    fn landmark_for(&self, path: &PeerPath) -> Result<LandmarkId, CoreError> {
        LM_ROUTERS
            .iter()
            .position(|&r| RouterId(r) == path.landmark_router())
            .map(|i| LandmarkId(i as u32))
            .ok_or_else(|| CoreError::UnknownLandmark(String::new()))
    }

    /// The peers registered under `landmark`, ascending.
    fn live(&self, landmark: LandmarkId) -> Vec<PeerId> {
        let under = |(&p, &lm): (&PeerId, &LandmarkId)| (lm == landmark).then_some(p);
        let mut live: Vec<PeerId> = self.peer_landmark.iter().filter_map(under).collect();
        live.sort_unstable();
        live
    }

    /// The landmark's Figure 1 tree as a function of the live set alone:
    /// the reference's own `(peer, path)` pairs, ascending peer id.
    fn tree(&self, landmark: LandmarkId) -> PathTree {
        let mut tree = PathTree::new(RouterId(LM_ROUTERS[landmark.index()]));
        for peer in self.live(landmark) {
            let path = self.index.path_of(peer).expect("live peer has a path");
            tree.insert(peer, path);
        }
        tree
    }

    /// Seed-style query over the single global index, including the
    /// cross-landmark bridge fill.
    fn closest(&self, path: &PeerPath, k: usize, exclude: Option<PeerId>) -> Vec<Neighbor> {
        let mut result = self.index.query_nearest(path, k, exclude);
        if result.len() < k {
            let Ok(own) = self.landmark_for(path) else {
                return result;
            };
            let missing = k - result.len();
            let have: HashSet<PeerId> = result.iter().map(|n| n.peer).collect();
            let query_depth = path.depth();
            let mut heap: BinaryHeap<std::cmp::Reverse<(u32, PeerId, usize)>> = BinaryHeap::new();
            // (base, cursor) per foreign landmark, like the facade: every
            // cursor entry shares base = query depth + bridge.
            type Cursor<'a> = (u32, Box<dyn Iterator<Item = (PeerId, u32)> + 'a>);
            let mut iters: Vec<Cursor<'_>> = Vec::new();
            for (li, &lrouter) in LM_ROUTERS.iter().enumerate() {
                if LandmarkId(li as u32) == own {
                    continue;
                }
                let base = query_depth + LM_DIST[own.index()][li];
                let mut iter = self.index.peers_through(RouterId(lrouter));
                if let Some((peer, depth)) = iter.next() {
                    let idx = iters.len();
                    heap.push(std::cmp::Reverse((base + depth, peer, idx)));
                    iters.push((base, Box::new(iter)));
                }
            }
            let mut emitted: HashSet<PeerId> = HashSet::new();
            let mut fill = Vec::with_capacity(missing);
            while let Some(std::cmp::Reverse((est, peer, idx))) = heap.pop() {
                let (base, iter) = &mut iters[idx];
                if let Some((next_peer, depth)) = iter.next() {
                    heap.push(std::cmp::Reverse((*base + depth, next_peer, idx)));
                }
                if Some(peer) == exclude || have.contains(&peer) || !emitted.insert(peer) {
                    continue;
                }
                fill.push(Neighbor { peer, dtree: est });
                if fill.len() == missing {
                    break;
                }
            }
            result.extend(fill);
        }
        result
    }

    fn register(&mut self, peer: PeerId, path: PeerPath) -> Result<JoinOutcome, CoreError> {
        let landmark = self.landmark_for(&path)?;
        self.index.insert(peer, path.clone())?;
        self.peer_landmark.insert(peer, landmark);
        self.last_seen.insert(peer, self.epoch);
        self.joins += 1;
        let neighbors = self.closest(&path, K, Some(peer));
        Ok(JoinOutcome {
            landmark,
            neighbors,
        })
    }

    fn deregister(&mut self, peer: PeerId) -> Result<(), CoreError> {
        if self.index.remove(peer).is_none() {
            return Err(CoreError::UnknownPeer(peer));
        }
        self.peer_landmark.remove(&peer);
        self.last_seen.remove(&peer);
        self.leaves += 1;
        Ok(())
    }

    fn handover(&mut self, peer: PeerId, new_path: PeerPath) -> Result<JoinOutcome, CoreError> {
        if !self.index.contains(peer) {
            return Err(CoreError::UnknownPeer(peer));
        }
        self.landmark_for(&new_path)?;
        self.deregister(peer)?;
        let out = self.register(peer, new_path)?;
        self.joins -= 1;
        self.leaves -= 1;
        self.handovers += 1;
        Ok(out)
    }

    fn heartbeat(&mut self, peer: PeerId) -> Result<(), CoreError> {
        if !self.index.contains(peer) {
            return Err(CoreError::UnknownPeer(peer));
        }
        self.last_seen.insert(peer, self.epoch);
        Ok(())
    }

    /// Mirrors the facade's write-only batch join: renew same-landmark
    /// rejoins, reject cross-landmark moves and unknown landmarks, insert
    /// the fresh remainder (no neighbor answers).
    fn register_batch(&mut self, batch: Vec<(PeerId, PeerPath)>) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        let mut fresh: Vec<(PeerId, PeerPath)> = Vec::new();
        let mut fresh_landmark: HashMap<PeerId, LandmarkId> = HashMap::new();
        for (peer, path) in batch {
            let Ok(lm) = self.landmark_for(&path) else {
                out.rejected += 1;
                continue;
            };
            let registered = self.peer_landmark.get(&peer).copied();
            let pending = fresh_landmark.get(&peer).copied();
            match registered.or(pending) {
                Some(existing) if existing == lm => {
                    if registered.is_some() {
                        self.last_seen.insert(peer, self.epoch);
                    }
                    out.renewed += 1;
                }
                Some(_) => out.rejected += 1,
                None => {
                    fresh_landmark.insert(peer, lm);
                    fresh.push((peer, path));
                }
            }
        }
        for (peer, path) in &fresh {
            let lm = fresh_landmark[peer];
            self.index.insert(*peer, path.clone()).expect("validated");
            self.peer_landmark.insert(*peer, lm);
            self.last_seen.insert(*peer, self.epoch);
            self.joins += 1;
            out.joined += 1;
        }
        out
    }

    fn renew_batch(&mut self, peers: &[PeerId]) -> usize {
        peers.iter().filter(|&&p| self.heartbeat(p).is_ok()).count()
    }

    fn leave_batch(&mut self, peers: &[PeerId]) -> usize {
        peers
            .iter()
            .filter(|&&p| self.deregister(p).is_ok())
            .count()
    }

    fn expire_stale(&mut self, max_age: u64) -> Vec<PeerId> {
        let cutoff = self.epoch.saturating_sub(max_age);
        let mut stale: Vec<PeerId> = self
            .last_seen
            .iter()
            .filter(|&(_, &seen)| seen < cutoff)
            .map(|(&p, _)| p)
            .collect();
        stale.sort_unstable();
        for &p in &stale {
            let _ = self.deregister(p);
        }
        stale
    }
}

/// A join payload drawn by the fuzzer. Paths are built from three disjoint
/// id ranges (access 50k+, mids 100..140, landmarks) so they are loop-free
/// by construction; the shared mid pool makes paths from *different*
/// landmarks cross at common routers, exercising cross-shard meetings and
/// bridge fills hard.
#[derive(Debug, Clone, Copy)]
struct JoinSpec {
    peer: u8,
    landmark: u8,
    access: u16,
    mids: u64,
    depth: u8,
}

fn spec_path(s: JoinSpec) -> PeerPath {
    // landmark % 4 == 3 → unknown landmark router (error-path parity).
    let lm_router = match s.landmark % 4 {
        0 => LM_ROUTERS[0],
        1 => LM_ROUTERS[1],
        2 => LM_ROUTERS[2],
        _ => 9_999,
    };
    let mut routers = vec![RouterId(50_000 + (s.access % 64) as u32)];
    let depth = (s.depth % 5) as usize;
    // Sample `depth` distinct mids from the shared pool, seeded by `mids`.
    // Some of the time the pool also offers *foreign landmark routers*, so
    // paths legally traverse another landmark mid-way — the case the
    // bridge-fill cursors must estimate with the depth below that router,
    // not the peer's full path depth.
    let mut pool: Vec<u32> = (100..140).collect();
    if s.mids % 3 == 0 {
        pool.extend(LM_ROUTERS.iter().copied().filter(|&r| r != lm_router));
    }
    let mut state = s.mids | 1;
    for _ in 0..depth {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = (state >> 33) as usize % pool.len();
        routers.push(RouterId(pool.swap_remove(pick)));
    }
    routers.push(RouterId(lm_router));
    PeerPath::new(routers).expect("disjoint id ranges are loop-free")
}

#[derive(Debug, Clone)]
enum Op {
    Register(JoinSpec),
    RegisterBatch(Vec<JoinSpec>),
    Deregister { peer: u8 },
    LeaveBatch(Vec<u8>),
    Handover(JoinSpec),
    Heartbeat { peer: u8 },
    RenewBatch(Vec<u8>),
    AdvanceEpoch,
    ExpireStale { max_age: u8 },
    Query { peer: u8, k: u8 },
}

fn arb_spec() -> impl Strategy<Value = JoinSpec> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u16>(),
        any::<u64>(),
        any::<u8>(),
    )
        .prop_map(|(peer, landmark, access, mids, depth)| JoinSpec {
            peer: peer % 24,
            landmark,
            access,
            mids,
            depth,
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_spec().prop_map(Op::Register),
        prop::collection::vec(arb_spec(), 1..7).prop_map(Op::RegisterBatch),
        any::<u8>().prop_map(|peer| Op::Deregister { peer: peer % 24 }),
        prop::collection::vec(any::<u8>(), 1..7)
            .prop_map(|ps| Op::LeaveBatch(ps.into_iter().map(|p| p % 24).collect())),
        arb_spec().prop_map(Op::Handover),
        any::<u8>().prop_map(|peer| Op::Heartbeat { peer: peer % 24 }),
        prop::collection::vec(any::<u8>(), 1..7)
            .prop_map(|ps| Op::RenewBatch(ps.into_iter().map(|p| p % 24).collect())),
        Just(Op::AdvanceEpoch),
        any::<u8>().prop_map(|max_age| Op::ExpireStale {
            max_age: max_age % 6
        }),
        (any::<u8>(), 1u8..8).prop_map(|(peer, k)| Op::Query { peer: peer % 24, k }),
    ]
}

fn same_error(a: &CoreError, b: &CoreError) -> bool {
    matches!(
        (a, b),
        (CoreError::DuplicatePeer(x), CoreError::DuplicatePeer(y)) if x == y
    ) || matches!(
        (a, b),
        (CoreError::UnknownPeer(x), CoreError::UnknownPeer(y)) if x == y
    ) || matches!(
        (a, b),
        (CoreError::UnknownLandmark(_), CoreError::UnknownLandmark(_))
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sharded_server_equals_single_shard_reference(
        ops in prop::collection::vec(arb_op(), 1..80)
    ) {
        let mut server = ManagementServer::new(
            LM_ROUTERS.iter().map(|&r| RouterId(r)).collect(),
            LM_DIST.iter().map(|row| row.to_vec()).collect(),
            ServerConfig {
                neighbor_count: K,
                adaptive_leases: None,
            },
        ).unwrap();
        let mut reference = ReferenceServer::new();

        for op in ops {
            match op {
                Op::Register(spec) => {
                    let peer = PeerId(spec.peer as u64);
                    let path = spec_path(spec);
                    let got = server.register(peer, path.clone());
                    let want = reference.register(peer, path);
                    match (&got, &want) {
                        (Ok(g), Ok(w)) => prop_assert_eq!(g, w),
                        (Err(g), Err(w)) => prop_assert!(same_error(g, w), "{} vs {}", g, w),
                        _ => prop_assert!(false, "diverged: {:?} vs {:?}", got, want),
                    }
                }
                Op::RegisterBatch(specs) => {
                    let batch: Vec<(PeerId, PeerPath)> = specs
                        .iter()
                        .map(|&s| (PeerId(s.peer as u64), spec_path(s)))
                        .collect();
                    prop_assert_eq!(
                        server.register_batch(batch.clone()),
                        reference.register_batch(batch)
                    );
                }
                Op::Deregister { peer } => {
                    let peer = PeerId(peer as u64);
                    let got = server.deregister(peer);
                    let want = reference.deregister(peer);
                    prop_assert_eq!(got.is_ok(), want.is_ok());
                }
                Op::LeaveBatch(peers) => {
                    let ids: Vec<PeerId> = peers.iter().map(|&p| PeerId(p as u64)).collect();
                    prop_assert_eq!(server.leave_batch(&ids), reference.leave_batch(&ids));
                }
                Op::Handover(spec) => {
                    let peer = PeerId(spec.peer as u64);
                    let path = spec_path(spec);
                    let got = server.handover(peer, path.clone());
                    let want = reference.handover(peer, path);
                    match (&got, &want) {
                        (Ok(g), Ok(w)) => prop_assert_eq!(g, w),
                        (Err(g), Err(w)) => prop_assert!(same_error(g, w), "{} vs {}", g, w),
                        _ => prop_assert!(false, "diverged: {:?} vs {:?}", got, want),
                    }
                }
                Op::Heartbeat { peer } => {
                    let peer = PeerId(peer as u64);
                    prop_assert_eq!(
                        server.heartbeat(peer).is_ok(),
                        reference.heartbeat(peer).is_ok()
                    );
                }
                Op::RenewBatch(peers) => {
                    let ids: Vec<PeerId> = peers.iter().map(|&p| PeerId(p as u64)).collect();
                    prop_assert_eq!(server.renew_batch(&ids), reference.renew_batch(&ids));
                }
                Op::AdvanceEpoch => {
                    server.advance_epoch().unwrap();
                    reference.epoch += 1;
                }
                Op::ExpireStale { max_age } => {
                    prop_assert_eq!(
                        server.expire_stale(max_age as u64),
                        reference.expire_stale(max_age as u64)
                    );
                }
                Op::Query { peer, k } => {
                    let peer = PeerId(peer as u64);
                    let got = server.neighbors_of(peer, k as usize);
                    match (got, reference.index.path_of(peer).cloned()) {
                        (Ok(neigh), Some(path)) => {
                            prop_assert_eq!(
                                neigh,
                                reference.closest(&path, k as usize, Some(peer))
                            );
                        }
                        (Err(CoreError::UnknownPeer(_)), None) => {}
                        (got, path) => prop_assert!(
                            false,
                            "diverged: {:?} vs reference path {:?}",
                            got,
                            path
                        ),
                    }
                }
            }

            // Cross-cutting invariants after every operation.
            prop_assert_eq!(server.peer_count(), reference.index.len());
            prop_assert_eq!(server.index().n_routers(), reference.index.n_routers());
            for p in 0..24u64 {
                let peer = PeerId(p);
                prop_assert_eq!(
                    server.landmark_of(peer),
                    reference.peer_landmark.get(&peer).copied()
                );
                prop_assert_eq!(server.path_of(peer), reference.index.path_of(peer).map(PeerPath::view));
                // Lease parity: the slab arena's last-seen epoch matches
                // the reference's per-peer map.
                prop_assert_eq!(
                    server.last_seen(peer),
                    reference.last_seen.get(&peer).copied()
                );
            }
            // The on-demand tree is a function of the live set, whatever
            // history produced it; where no walk conflicted it also agrees
            // with the path-based dtree the index serves.
            for li in 0..LM_ROUTERS.len() {
                let landmark = LandmarkId(li as u32);
                let tree = reference.tree(landmark);
                let shard_tree = server.tree(landmark).expect("landmark exists");
                prop_assert_eq!(shard_tree.n_peers(), tree.n_peers());
                prop_assert_eq!(shard_tree.n_nodes(), tree.n_nodes());
                prop_assert_eq!(shard_tree.inconsistencies(), tree.inconsistencies());
                for pair in reference.live(landmark).windows(2).take(4) {
                    let (a, b) = (pair[0], pair[1]);
                    let got = shard_tree.branch_point(a, b);
                    prop_assert!(got.is_some());
                    prop_assert_eq!(got, tree.branch_point(a, b));
                    if tree.inconsistencies() == 0 {
                        prop_assert_eq!(got.map(|(_, d)| d), server.index().dtree(a, b));
                    }
                }
            }
        }

        // Counter parity at the end of the run.
        let stats = server.stats();
        prop_assert_eq!(stats.joins, reference.joins);
        prop_assert_eq!(stats.leaves, reference.leaves);
        prop_assert_eq!(stats.handovers, reference.handovers);
    }
}
