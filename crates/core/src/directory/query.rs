//! Shard-merging query plans, shared by every front end.
//!
//! The synchronous [`crate::ManagementServer`] facade and
//! [`crate::Federation`] answer queries over per-landmark
//! [`DirectoryShard`]s; these free functions are the single implementation
//! of the merge logic, so every front end — including the concurrent ones
//! in [`crate::runtime`], which are those two behind a lock — returns
//! **bit-identical** answers by construction. Each takes anything that
//! yields shard references — the facade passes its owned shards, a
//! federation chains its regions' shards — and every function is a pure
//! read (`&DirectoryShard` only).
//!
//! The exact answer is **one** merge: [`query_nearest_merged`] hands every
//! shard's entry table to the single-heap kernel in `router_index`, which
//! opens a cursor per `(shard, query-path router)` hit and pops the global
//! `(dtree, peer)` order directly. Peers partition across shards, so that
//! is the per-shard top-`k`, concatenated and re-sorted, without building
//! any of it (the unit tests keep that plan as the reference). The
//! per-query sets hash peer ids with the keyed `IdHash`: ids are
//! client-chosen, so an unkeyed integer hash would let a client aim a
//! whole population at one bucket.

use crate::ids::{IdSet, LandmarkId, PeerId};
use crate::path::PeerPath;
use crate::router_index::{query_nearest_entries, Neighbor};
use nearpeer_topology::RouterId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::DirectoryShard;

/// The `k` best peers across the shards for a query path, ascending
/// `(dtree, peer)` — identical to what a single global index returns,
/// because the shards partition the peer set.
pub fn query_nearest_merged<'a>(
    shards: impl IntoIterator<Item = &'a DirectoryShard>,
    query: &PeerPath,
    k: usize,
    exclude: Option<PeerId>,
) -> Vec<Neighbor> {
    let tables = shards.into_iter().map(DirectoryShard::entries);
    query_nearest_entries(tables, query, k, exclude)
}

/// All registered peers whose path traverses `router`, nearest-first — a
/// lazy k-way merge of the shards' ordered per-router lists.
pub fn peers_through_merged<'a>(
    shards: impl IntoIterator<Item = &'a DirectoryShard>,
    router: RouterId,
) -> MergedPeersThrough<'a> {
    let mut heap = BinaryHeap::new();
    let mut iters: Vec<Box<dyn Iterator<Item = (PeerId, u32)> + 'a>> = Vec::new();
    for shard in shards {
        let mut iter = shard.peers_through(router);
        if let Some((peer, depth)) = iter.next() {
            let idx = iters.len();
            heap.push(Reverse((depth, peer, idx)));
            iters.push(Box::new(iter));
        }
    }
    MergedPeersThrough { heap, iters }
}

/// Cross-landmark fill: rank foreign peers by
/// `depth(query) + hops(L_query, L_other) + depth(peer)` using the
/// per-landmark ordered lists at the landmark routers.
///
/// `landmark_routers` / `landmark_dist` are the facade's bootstrap
/// measurements; `own` is the query path's landmark (excluded from the
/// fill); `already` is the exact answer the caller holds before falling
/// back.
#[allow(clippy::too_many_arguments)]
pub fn cross_landmark_candidates<'a>(
    shards: impl IntoIterator<Item = &'a DirectoryShard> + Clone,
    landmark_routers: &[RouterId],
    landmark_dist: &[Vec<u32>],
    own: LandmarkId,
    query_depth: u32,
    k: usize,
    exclude: Option<PeerId>,
    already: &[Neighbor],
) -> Vec<Neighbor> {
    // One cursor per other landmark: its peer list, ordered by depth
    // below the landmark router, based at query depth + bridge.
    let cursors = landmark_routers
        .iter()
        .enumerate()
        .filter_map(|(li, &lrouter)| {
            let bridge = landmark_dist[own.index()][li];
            if LandmarkId(li as u32) == own || bridge == u32::MAX {
                return None;
            }
            let peers = peers_through_merged(shards.clone(), lrouter);
            Some((query_depth + bridge, peers))
        });
    merge_fill(cursors, k, exclude, already)
}

/// The fill merge every front door shares: `cursors` are `(base, list)`
/// pairs, each list ascending `(depth, peer)`; the `k` smallest
/// `base + depth` estimates come out ascending, ties by peer id, skipping
/// `exclude`, the peers of `already` and repeats (a peer whose path
/// traverses a second landmark's router is in two lists).
///
/// Every cursor keeps its own `base`: all its entries share it, and
/// deriving it from a popped estimate instead (as this code once did, by
/// subtracting the peer's *full* path depth) breaks — and underflows —
/// for peers whose path merely traverses another landmark's router
/// mid-path. The answer grows as candidates arrive; `k` comes off the
/// wire and sizes nothing.
pub(crate) fn merge_fill<I: Iterator<Item = (PeerId, u32)>>(
    cursors: impl IntoIterator<Item = (u32, I)>,
    k: usize,
    exclude: Option<PeerId>,
    already: &[Neighbor],
) -> Vec<Neighbor> {
    let mut heap = BinaryHeap::new();
    let mut iters: Vec<(u32, I)> = Vec::new();
    for (base, mut iter) in cursors {
        if let Some((peer, depth)) = iter.next() {
            heap.push(Reverse((base + depth, peer, iters.len())));
            iters.push((base, iter));
        }
    }
    let mut seen: IdSet<PeerId> = already.iter().map(|n| n.peer).collect();
    let mut out = Vec::new();
    while let Some(Reverse((est, peer, idx))) = heap.pop() {
        let (base, iter) = &mut iters[idx];
        if let Some((next_peer, depth)) = iter.next() {
            heap.push(Reverse((*base + depth, next_peer, idx)));
        }
        if Some(peer) == exclude || !seen.insert(peer) {
            continue;
        }
        out.push(Neighbor { peer, dtree: est });
        if out.len() == k {
            break;
        }
    }
    out
}

/// Lazy ascending `(depth, peer)` merge of the shards' per-router lists.
pub struct MergedPeersThrough<'a> {
    heap: BinaryHeap<Reverse<(u32, PeerId, usize)>>,
    iters: Vec<Box<dyn Iterator<Item = (PeerId, u32)> + 'a>>,
}

impl Iterator for MergedPeersThrough<'_> {
    type Item = (PeerId, u32);

    fn next(&mut self) -> Option<(PeerId, u32)> {
        let Reverse((depth, peer, idx)) = self.heap.pop()?;
        if let Some((next_peer, next_depth)) = self.iters[idx].next() {
            self.heap.push(Reverse((next_depth, next_peer, idx)));
        }
        Some((peer, depth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const LANDMARKS: u32 = 3;

    /// A path to landmark `landmark` (routers `0..LANDMARKS` are the
    /// landmark routers): a unique access router, then `mids` drawn from a
    /// pool every landmark's peers share — values below `LANDMARKS` name
    /// *another landmark's router*, traversed mid-path — then the root.
    fn path_to(landmark: u32, access: u32, mids: &[u32]) -> PeerPath {
        let mut routers = vec![RouterId(1_000 + access)];
        for &m in mids {
            let r = RouterId(if m < LANDMARKS { m } else { 10 + m });
            if m != landmark && !routers.contains(&r) {
                routers.push(r);
            }
        }
        routers.push(RouterId(landmark));
        PeerPath::new(routers).expect("deduplicated above")
    }

    fn arb_path() -> impl Strategy<Value = (u32, Vec<u32>)> {
        (0..LANDMARKS, prop::collection::vec(0u32..10, 0..5))
    }

    /// The plan the single merge replaced: every shard's own top-`k`,
    /// concatenated, re-sorted, truncated.
    fn per_shard_plan(
        shards: &[DirectoryShard],
        query: &PeerPath,
        k: usize,
        exclude: Option<PeerId>,
    ) -> Vec<Neighbor> {
        let mut merged: Vec<Neighbor> = shards
            .iter()
            .flat_map(|s| s.query_nearest(query, k, exclude))
            .collect();
        merged.sort_unstable_by_key(|n| (n.dtree, n.peer));
        merged.truncate(k);
        merged
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn one_heap_merge_equals_the_per_shard_plan(
            peers in prop::collection::vec(arb_path(), 0..24),
            query in arb_path(),
            k in 0usize..4,
            exclude in 0usize..3,
        ) {
            let mut shards: Vec<DirectoryShard> = (0..LANDMARKS)
                .map(|l| DirectoryShard::new(LandmarkId(l), RouterId(l)))
                .collect();
            let mut paths = Vec::new();
            for (i, (landmark, mids)) in peers.iter().enumerate() {
                let path = path_to(*landmark, i as u32, mids);
                shards[*landmark as usize]
                    .insert(PeerId(i as u64), path.clone(), 0)
                    .expect("fresh peer under its own landmark");
                paths.push(path);
            }
            // Peer 0's access router when it exists, so depth-0 meets occur.
            let query = path_to(query.0, 0, &query.1);
            let k = [0, 1, 5, paths.len() + 7][k];
            let exclude = [None, Some(PeerId(0)), Some(PeerId(u64::MAX))][exclude];

            let merged = query_nearest_merged(&shards, &query, k, exclude);
            prop_assert_eq!(&merged, &per_shard_plan(&shards, &query, k, exclude));

            // And both equal the definition: every peer's dtree, sorted.
            let mut brute: Vec<Neighbor> = paths
                .iter()
                .enumerate()
                .map(|(i, p)| (PeerId(i as u64), p))
                .filter(|&(peer, _)| Some(peer) != exclude)
                .filter_map(|(peer, p)| query.dtree(p).map(|(_, dtree)| Neighbor { peer, dtree }))
                .collect();
            brute.sort_unstable_by_key(|n| (n.dtree, n.peer));
            brute.truncate(k);
            prop_assert_eq!(merged, brute);
        }
    }

    /// `k` comes off the wire; it must not size a buffer.
    #[test]
    fn a_huge_k_allocates_for_the_population_not_for_k() {
        let mut shards: Vec<DirectoryShard> = (0..LANDMARKS)
            .map(|l| DirectoryShard::new(LandmarkId(l), RouterId(l)))
            .collect();
        for (i, landmark) in [0u32, 0, 1].into_iter().enumerate() {
            let path = path_to(landmark, i as u32, &[5]);
            shards[landmark as usize]
                .insert(PeerId(i as u64), path, 0)
                .expect("fresh peer");
        }
        let query = path_to(0, 0, &[5]);
        let huge = usize::from(u16::MAX);
        let exact = query_nearest_merged(&shards, &query, huge, None);
        assert_eq!(exact, query_nearest_merged(&shards, &query, 3, None));
        assert_eq!(exact.len(), 3, "router 15 is on all three paths");
        assert!(exact.capacity() <= 16, "capacity {}", exact.capacity());

        let dist = vec![vec![0, 4, 4], vec![4, 0, 4], vec![4, 4, 0]];
        let routers: Vec<RouterId> = (0..LANDMARKS).map(RouterId).collect();
        let fill =
            |k| cross_landmark_candidates(&shards, &routers, &dist, LandmarkId(2), 3, k, None, &[]);
        let filled = fill(huge);
        assert_eq!(filled, fill(3));
        assert_eq!(filled.len(), 3);
        assert!(filled.capacity() <= 16, "capacity {}", filled.capacity());
    }
}
