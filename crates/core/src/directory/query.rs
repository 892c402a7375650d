//! The cross-landmark fill, shared by every front end.
//!
//! A [`crate::ManagementServer`] answers the exact part of a query from its
//! one router index, with the single-heap kernel in `router_index`: one
//! cursor per query-path router that the table holds, popped in global
//! `(dtree, peer)` order. A [`crate::Federation`] runs the same kernel over
//! one table per consulted region, which is lossless because a peer is
//! registered in exactly one region. When the exact answer is short, both
//! top it up by the bridge estimate through [`merge_fill`], so every front
//! end, including [`crate::runtime`]'s locked wrappers around those two,
//! returns **bit-identical** answers by construction. The per-query sets
//! hash peer ids with the keyed `IdHash`: ids are client-chosen, so an
//! unkeyed integer hash would let a client aim a whole population at one
//! bucket.

use crate::ids::{IdSet, LandmarkId, PeerId};
use crate::router_index::{self, EntryMap, Neighbor};
use nearpeer_topology::RouterId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cross-landmark fill: rank foreign peers by
/// `depth(query) + hops(L_query, L_other) + depth(peer)` using the ordered
/// lists of `index` at the other landmarks' routers.
///
/// `landmark_routers` / `landmark_dist` are the server's startup
/// measurements; `own` is the query path's landmark (excluded from the
/// fill); `already` is the exact answer the caller holds before falling
/// back.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cross_landmark_candidates(
    index: &EntryMap,
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
            let peers = router_index::peers_through(index, lrouter);
            Some((fill_base(query_depth, bridge), peers))
        });
    merge_fill(cursors, k, exclude, already)
}

/// A fill cursor's base, `depth(query) + bridge`, summed in `u64`: any
/// bridge below the `u32::MAX` "unknown" marker is accepted, so the sum
/// must not wrap. [`merge_fill`] ranks by the exact sum and reports it
/// saturated at `u32::MAX`.
pub(crate) fn fill_base(query_depth: u32, bridge: u32) -> u64 {
    u64::from(query_depth) + u64::from(bridge)
}

/// The fill merge every front door shares: `cursors` are `(base, list)`
/// pairs ([`fill_base`]), each list ascending `(depth, peer)`; the `k`
/// smallest `base + depth` estimates come out ascending, ties by peer id,
/// each reported saturated at `u32::MAX` (the order is the exact sum's,
/// so it does not depend on where the saturation cuts), skipping
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
    cursors: impl IntoIterator<Item = (u64, I)>,
    k: usize,
    exclude: Option<PeerId>,
    already: &[Neighbor],
) -> Vec<Neighbor> {
    // Sized once by the cursor count, so the fill allocates the same at
    // any landmark count.
    let cursors = cursors.into_iter();
    let (lower, upper) = cursors.size_hint();
    let mut heap = BinaryHeap::with_capacity(upper.unwrap_or(lower));
    let mut iters: Vec<(u64, I)> = Vec::with_capacity(upper.unwrap_or(lower));
    for (base, mut iter) in cursors {
        if let Some((peer, depth)) = iter.next() {
            heap.push(Reverse((base + u64::from(depth), peer, iters.len())));
            iters.push((base, iter));
        }
    }
    let mut seen: IdSet<PeerId> = already.iter().map(|n| n.peer).collect();
    let mut out = Vec::new();
    while let Some(Reverse((est, peer, idx))) = heap.pop() {
        let (base, iter) = &mut iters[idx];
        if let Some((next_peer, depth)) = iter.next() {
            heap.push(Reverse((*base + u64::from(depth), next_peer, idx)));
        }
        if Some(peer) == exclude || !seen.insert(peer) {
            continue;
        }
        let dtree = u32::try_from(est).unwrap_or(u32::MAX);
        out.push(Neighbor { peer, dtree });
        if out.len() == k {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{PathView, PeerPath};
    use crate::router_index::query_nearest_entries;
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

    /// The one router index of a server over landmarks `0..LANDMARKS`,
    /// `peers` registered through its writes.
    fn server_index(peers: &[(u32, PeerPath)]) -> EntryMap {
        let n = LANDMARKS as usize;
        let mut server = crate::ManagementServer::new(
            (0..LANDMARKS).map(RouterId).collect(),
            vec![vec![0; n]; n],
            crate::ServerConfig::default(),
        )
        .unwrap();
        let batch = peers
            .iter()
            .enumerate()
            .map(|(i, (_, path))| (PeerId(i as u64), path.clone()))
            .collect();
        assert_eq!(server.register_batch(batch).joined, peers.len());
        server.entries().clone()
    }

    /// The plan the single merge replaced: every per-landmark table's own
    /// top-`k`, concatenated, re-sorted, truncated.
    fn per_shard_plan(
        tables: &[EntryMap],
        query: PathView<'_>,
        k: usize,
        exclude: Option<PeerId>,
    ) -> Vec<Neighbor> {
        let mut merged: Vec<Neighbor> = tables
            .iter()
            .flat_map(|t| query_nearest_entries([t], query, k, exclude))
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
            let peers: Vec<(u32, PeerPath)> = peers
                .iter()
                .enumerate()
                .map(|(i, (landmark, mids))| (*landmark, path_to(*landmark, i as u32, mids)))
                .collect();
            let index = server_index(&peers);
            // The same peers split one table per landmark, as a federation
            // with one landmark per region holds them.
            let mut tables = vec![EntryMap::default(); LANDMARKS as usize];
            for (i, (landmark, path)) in peers.iter().enumerate() {
                router_index::index_path(&mut tables[*landmark as usize], PeerId(i as u64), path.view());
            }
            let paths: Vec<&PeerPath> = peers.iter().map(|(_, p)| p).collect();
            // Peer 0's access router when it exists, so depth-0 meets occur.
            let query = path_to(query.0, 0, &query.1);
            let k = [0, 1, 5, paths.len() + 7][k];
            let exclude = [None, Some(PeerId(0)), Some(PeerId(u64::MAX))][exclude];

            let merged = query_nearest_entries([&index], query.view(), k, exclude);
            prop_assert_eq!(&merged, &query_nearest_entries(&tables, query.view(), k, exclude));
            prop_assert_eq!(&merged, &per_shard_plan(&tables, query.view(), k, exclude));

            // And all equal the definition: every peer's dtree, sorted.
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
        let peers: Vec<(u32, PeerPath)> = [0u32, 0, 1]
            .into_iter()
            .enumerate()
            .map(|(i, landmark)| (landmark, path_to(landmark, i as u32, &[5])))
            .collect();
        let index = server_index(&peers);
        let query = path_to(0, 0, &[5]);
        let huge = usize::from(u16::MAX);
        let exact = query_nearest_entries([&index], query.view(), huge, None);
        assert_eq!(
            exact,
            query_nearest_entries([&index], query.view(), 3, None)
        );
        assert_eq!(exact.len(), 3, "router 15 is on all three paths");
        assert!(exact.capacity() <= 16, "capacity {}", exact.capacity());

        let dist = vec![vec![0, 4, 4], vec![4, 0, 4], vec![4, 4, 0]];
        let routers: Vec<RouterId> = (0..LANDMARKS).map(RouterId).collect();
        let fill =
            |k| cross_landmark_candidates(&index, &routers, &dist, LandmarkId(2), 3, k, None, &[]);
        let filled = fill(huge);
        assert_eq!(filled, fill(3));
        assert_eq!(filled.len(), 3);
        assert!(filled.capacity() <= 16, "capacity {}", filled.capacity());
    }
}
