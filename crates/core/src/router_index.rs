//! The paper's hash-table-of-ordered-lists data structure.
//!
//! A lookup is one k-way merge: every router of the query path is probed
//! in every entry table given (the global [`RouterIndex`] has one, the
//! sharded directory one per landmark), each hit opens a lazy cursor on
//! that router's ordered peer list (a one-entry [`PeerList`] needs none:
//! its head is all it has), and a single min-heap over *all* the
//! cursors pops candidates in ascending `(dtree, peer)` until `k` distinct
//! peers are out. Nothing is built per table: because every peer's entries
//! live in exactly one table, the merge over all cursors is the answer a
//! single global table would give. The tables hash their fixed-width
//! router ids with the keyed [`IdHash`](crate::ids::IdHash) (see there for
//! why it is keyed).

use crate::error::CoreError;
use crate::ids::{IdMap, IdSet, PeerId};
use crate::path::PeerPath;
use nearpeer_topology::RouterId;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

/// One discovered neighbor: the peer and its inferred tree distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Neighbor {
    /// The neighbor's id.
    pub peer: PeerId,
    /// The inferred hop distance `dtree` (through the deepest shared
    /// router).
    pub dtree: u32,
}

/// The entry table shared between the global [`RouterIndex`] and the
/// per-landmark shard indexes of [`crate::directory`]: router → peers
/// traversing it, ordered by hop count below the router.
pub(crate) type EntryMap = IdMap<RouterId, PeerList>;

/// One router's peers, ascending by `(depth below the router, peer)`.
///
/// Most routers near the edge are crossed by exactly one registered peer:
/// its access router, and any router deep enough in the landmark's tree
/// that no other peer's path reaches it. In the benchmark population
/// (`SyntheticJoins`: a unique access router per peer, and 12.5 k peers
/// per landmark below 4⁷ level-7 routers) that is 2 of every peer's 9
/// entries. Such a list holds its one entry inline; a `BTreeSet` (whose
/// smallest leaf node is ~190 heap bytes) exists only from two entries on,
/// and a removal that leaves one entry collapses it back. An empty list is
/// not representable: the owning table drops the router instead.
#[derive(Debug, Clone)]
pub(crate) enum PeerList {
    One((u32, PeerId)),
    Many(BTreeSet<(u32, PeerId)>),
}

impl PeerList {
    /// The entries in ascending `(depth, peer)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, PeerId)> + '_ {
        let (one, many) = match self {
            PeerList::One(entry) => (Some(*entry), None),
            PeerList::Many(set) => (None, Some(set.iter().copied())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    /// Adds `entry` (a no-op if it is present).
    fn insert(&mut self, entry: (u32, PeerId)) {
        match self {
            PeerList::One(held) if *held == entry => {}
            PeerList::One(held) => *self = PeerList::Many(BTreeSet::from([*held, entry])),
            PeerList::Many(set) => {
                set.insert(entry);
            }
        }
    }

    /// Removes `entry`; returns `true` when that leaves the list empty,
    /// which the caller answers by dropping the router.
    fn remove(&mut self, entry: (u32, PeerId)) -> bool {
        match self {
            PeerList::One(held) => *held == entry,
            PeerList::Many(set) => {
                if set.remove(&entry) && set.len() == 1 {
                    let last = *set.first().expect("one entry left");
                    *self = PeerList::One(last);
                }
                false
            }
        }
    }
}

/// Files `peer` under every router of `path`, at its depth below each.
pub(crate) fn index_path(entries: &mut EntryMap, peer: PeerId, path: &PeerPath) {
    for (router, depth) in path.with_depths() {
        match entries.entry(router) {
            Entry::Occupied(mut list) => list.get_mut().insert((depth, peer)),
            Entry::Vacant(slot) => {
                slot.insert(PeerList::One((depth, peer)));
            }
        }
    }
}

/// Undoes [`index_path`], dropping every router whose list empties.
pub(crate) fn unindex_path(entries: &mut EntryMap, peer: PeerId, path: &PeerPath) {
    for (router, depth) in path.with_depths() {
        if let Entry::Occupied(mut list) = entries.entry(router) {
            if list.get_mut().remove((depth, peer)) {
                list.remove();
            }
        }
    }
}

/// The `k` peers with smallest combined depth (`dtree`) to the query path
/// over the given [`EntryMap`]s, ascending, ties broken by peer id,
/// `exclude` (the asker itself, as the wire carries it) left out. This is
/// the paper's query: one lazy cursor per `(table, query-path router)` hit,
/// k-way merged by one min-heap, touching only `O(k + path length)`
/// entries regardless of the population. [`RouterIndex::query_nearest`]
/// passes its one table, the directory passes one per shard; the tables
/// must not share a peer.
///
/// The answer and the `seen` set are sized by what the cursors can yield,
/// never by `k` alone: `k` comes off the wire.
pub(crate) fn query_nearest_entries<'a>(
    tables: impl IntoIterator<Item = &'a EntryMap>,
    query: &PeerPath,
    k: usize,
    exclude: Option<PeerId>,
) -> Vec<Neighbor> {
    if k == 0 {
        return Vec::new();
    }
    // Cursor `idx` walks one router's list; its head sits in the heap as
    // (dtree, peer, idx), dtree = query depth + candidate depth below the
    // shared router. A one-entry list has nothing after its head, so it
    // enters the heap with no cursor.
    const NO_CURSOR: usize = usize::MAX;
    let path_len = query.routers().len();
    let mut cursors = Vec::with_capacity(path_len);
    let mut heads = Vec::with_capacity(path_len);
    let mut reachable = 0usize;
    for table in tables {
        for (router, query_depth) in query.with_depths() {
            match table.get(&router) {
                None => {}
                Some(&PeerList::One((cand_depth, peer))) => {
                    reachable += 1;
                    heads.push(Reverse((query_depth + cand_depth, peer, NO_CURSOR)));
                }
                Some(PeerList::Many(set)) => {
                    let mut iter = set.iter();
                    let &(cand_depth, peer) = iter.next().expect("a set holds two or more");
                    reachable += set.len();
                    heads.push(Reverse((query_depth + cand_depth, peer, cursors.len())));
                    cursors.push((query_depth, iter));
                }
            }
        }
    }
    let mut heap = BinaryHeap::from(heads);
    let room = k.min(reachable);
    let mut seen: IdSet<PeerId> = IdSet::with_capacity_and_hasher(room, Default::default());
    let mut out = Vec::with_capacity(room);
    while let Some(mut head) = heap.peek_mut() {
        let Reverse((dtree, peer, idx)) = *head;
        // Advance the cursor this candidate came from, in place: one
        // sift instead of a pop and a push.
        let next = cursors.get_mut(idx).and_then(|(query_depth, iter)| {
            iter.next()
                .map(|&(cand_depth, next)| (*query_depth + cand_depth, next))
        });
        match next {
            Some((next_dtree, next)) => *head = Reverse((next_dtree, next, idx)),
            None => {
                PeekMut::pop(head);
            }
        }
        if Some(peer) == exclude || !seen.insert(peer) {
            continue;
        }
        out.push(Neighbor { peer, dtree });
        if out.len() == k {
            break;
        }
    }
    out
}

/// The core data structure of §2: `HashMap<RouterId, ordered set>` where
/// each router's entry keeps the peers whose stored path traverses it,
/// ordered by their hop count below the router.
///
/// * `insert` walks the peer's path (bounded by the topology diameter, not
///   `n`) performing one ordered insertion per router — the paper's
///   "`O(log n)`, inserting into an ordered list";
/// * `query_nearest` walks the *query* path router by router (each a hash
///   lookup) and k-way-merges the per-router ordered lists by combined
///   depth, yielding the `k` smallest-`dtree` peers while touching only
///   `O(k + path length)` entries — the paper's "`O(1)`, accessing a data
///   in a hash table";
/// * `remove` undoes the ordered insertions (churn, W3).
///
/// The structure is landmark-agnostic: peers routed to *different*
/// landmarks still meet in the index at any shared router, which is exactly
/// the cross-landmark fallback DESIGN.md §5 documents.
#[derive(Debug, Default, Clone)]
pub struct RouterIndex {
    entries: EntryMap,
    paths: HashMap<PeerId, PeerPath>,
}

impl RouterIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered peers.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether no peer is registered.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Whether the peer is registered.
    pub fn contains(&self, peer: PeerId) -> bool {
        self.paths.contains_key(&peer)
    }

    /// The stored path of a peer.
    pub fn path_of(&self, peer: PeerId) -> Option<&PeerPath> {
        self.paths.get(&peer)
    }

    /// Iterator over all registered peers.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.paths.keys().copied()
    }

    /// Number of distinct routers referenced by stored paths.
    pub fn n_routers(&self) -> usize {
        self.entries.len()
    }

    /// Peers whose path traverses `router`, nearest-first (by hops below
    /// the router).
    pub fn peers_through(&self, router: RouterId) -> impl Iterator<Item = (PeerId, u32)> + '_ {
        self.entries
            .get(&router)
            .into_iter()
            .flat_map(|list| list.iter().map(|(d, p)| (p, d)))
    }

    /// Registers a newcomer. `O(d · log n)` ordered insertions.
    pub fn insert(&mut self, peer: PeerId, path: PeerPath) -> Result<(), CoreError> {
        if self.paths.contains_key(&peer) {
            return Err(CoreError::DuplicatePeer(peer));
        }
        index_path(&mut self.entries, peer, &path);
        self.paths.insert(peer, path);
        Ok(())
    }

    /// Deregisters a peer, returning its stored path.
    pub fn remove(&mut self, peer: PeerId) -> Option<PeerPath> {
        let path = self.paths.remove(&peer)?;
        unindex_path(&mut self.entries, peer, &path);
        Some(path)
    }

    /// Inferred tree distance between two *registered* peers.
    pub fn dtree(&self, a: PeerId, b: PeerId) -> Option<u32> {
        let pa = self.paths.get(&a)?;
        let pb = self.paths.get(&b)?;
        pa.dtree(pb).map(|(_, d)| d)
    }

    /// The `k` registered peers with smallest `dtree` to the query path,
    /// ascending (ties broken by peer id via the ordered sets). `exclude`
    /// (e.g. the newcomer itself) is skipped. Peers sharing no router with
    /// the query path are invisible to this search.
    pub fn query_nearest(
        &self,
        query: &PeerPath,
        k: usize,
        exclude: Option<PeerId>,
    ) -> Vec<Neighbor> {
        query_nearest_entries([&self.entries], query, k, exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    /// A small landmark tree (landmark router 0):
    ///
    /// ```text
    ///          0 (lmk)
    ///          |
    ///          1
    ///        /   \
    ///       2     3
    ///      / \     \
    ///     4   5     6
    /// ```
    /// Peers: A@4, B@5, C@6, D@2.
    fn populated() -> RouterIndex {
        let mut idx = RouterIndex::new();
        idx.insert(PeerId(0xA), path(&[4, 2, 1, 0])).unwrap();
        idx.insert(PeerId(0xB), path(&[5, 2, 1, 0])).unwrap();
        idx.insert(PeerId(0xC), path(&[6, 3, 1, 0])).unwrap();
        idx.insert(PeerId(0xD), path(&[2, 1, 0])).unwrap();
        idx
    }

    #[test]
    fn insert_and_lookup() {
        let idx = populated();
        assert_eq!(idx.len(), 4);
        assert!(idx.contains(PeerId(0xA)));
        assert!(!idx.contains(PeerId(0xF)));
        assert_eq!(idx.path_of(PeerId(0xC)).unwrap().attach(), RouterId(6));
        // Router 1 is on everyone's path.
        assert_eq!(idx.peers_through(RouterId(1)).count(), 4);
        // Router 3 only carries C.
        let through3: Vec<_> = idx.peers_through(RouterId(3)).collect();
        assert_eq!(through3, vec![(PeerId(0xC), 1)]);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut idx = populated();
        assert!(matches!(
            idx.insert(PeerId(0xA), path(&[9, 0])),
            Err(CoreError::DuplicatePeer(_))
        ));
    }

    #[test]
    fn dtree_between_registered() {
        let idx = populated();
        // A@4 and B@5 meet at router 2: 1 + 1.
        assert_eq!(idx.dtree(PeerId(0xA), PeerId(0xB)), Some(2));
        // A@4 and C@6 meet at router 1: 2 + 2.
        assert_eq!(idx.dtree(PeerId(0xA), PeerId(0xC)), Some(4));
        // D sits on A's path at router 2: 1 + 0.
        assert_eq!(idx.dtree(PeerId(0xA), PeerId(0xD)), Some(1));
        assert_eq!(idx.dtree(PeerId(0xA), PeerId(0xF)), None);
    }

    #[test]
    fn query_orders_by_dtree() {
        let idx = populated();
        // Newcomer at router 4's position (same as A).
        let q = path(&[4, 2, 1, 0]);
        let result = idx.query_nearest(&q, 4, None);
        let peers: Vec<PeerId> = result.iter().map(|n| n.peer).collect();
        // A at dtree 0, D at 1, B at 2, C at 4.
        assert_eq!(
            peers,
            vec![PeerId(0xA), PeerId(0xD), PeerId(0xB), PeerId(0xC)]
        );
        let dts: Vec<u32> = result.iter().map(|n| n.dtree).collect();
        assert_eq!(dts, vec![0, 1, 2, 4]);
    }

    #[test]
    fn query_respects_k_and_exclude() {
        let idx = populated();
        let q = path(&[4, 2, 1, 0]);
        let result = idx.query_nearest(&q, 2, Some(PeerId(0xA)));
        assert_eq!(result.len(), 2);
        assert_eq!(result[0].peer, PeerId(0xD));
        assert_eq!(result[1].peer, PeerId(0xB));
        assert!(idx.query_nearest(&q, 0, None).is_empty());
    }

    #[test]
    fn query_matches_brute_force() {
        let idx = populated();
        let q = path(&[6, 3, 1, 0]);
        let fast = idx.query_nearest(&q, 4, None);
        // Brute force over stored paths.
        let mut brute: Vec<(u32, PeerId)> = idx
            .peers()
            .filter_map(|p| {
                idx.path_of(p)
                    .and_then(|pp| q.dtree(pp))
                    .map(|(_, d)| (d, p))
            })
            .collect();
        brute.sort();
        let brute_peers: Vec<PeerId> = brute.iter().map(|&(_, p)| p).collect();
        let fast_peers: Vec<PeerId> = fast.iter().map(|n| n.peer).collect();
        assert_eq!(fast_peers, brute_peers);
        for (n, &(d, _)) in fast.iter().zip(&brute) {
            assert_eq!(n.dtree, d);
        }
    }

    #[test]
    fn remove_cleans_entries() {
        let mut idx = populated();
        let removed = idx.remove(PeerId(0xA)).unwrap();
        assert_eq!(removed.attach(), RouterId(4));
        assert_eq!(idx.len(), 3);
        assert!(idx.peers_through(RouterId(4)).next().is_none());
        assert_eq!(idx.remove(PeerId(0xA)), None);
        // Query no longer returns A.
        let q = path(&[4, 2, 1, 0]);
        let result = idx.query_nearest(&q, 4, None);
        assert!(result.iter().all(|n| n.peer != PeerId(0xA)));
    }

    #[test]
    fn cross_landmark_peers_meet_at_shared_routers() {
        let mut idx = RouterIndex::new();
        // Peer X routes to landmark 100, peer Y to landmark 200; both paths
        // cross router 7.
        idx.insert(PeerId(1), path(&[10, 7, 8, 100])).unwrap();
        idx.insert(PeerId(2), path(&[20, 7, 9, 200])).unwrap();
        assert_eq!(idx.dtree(PeerId(1), PeerId(2)), Some(2));
        let q = path(&[10, 7, 8, 100]);
        let res = idx.query_nearest(&q, 2, None);
        assert_eq!(res.len(), 2);
        assert_eq!(res[1].peer, PeerId(2));
        assert_eq!(res[1].dtree, 2);
    }

    #[test]
    fn invisible_without_shared_router() {
        let mut idx = RouterIndex::new();
        idx.insert(PeerId(1), path(&[1, 2, 3])).unwrap();
        let q = path(&[4, 5, 6]);
        assert!(idx.query_nearest(&q, 5, None).is_empty());
    }

    fn list_at(table: &EntryMap, router: u32) -> Option<Vec<(u32, PeerId)>> {
        table.get(&RouterId(router)).map(|l| l.iter().collect())
    }

    #[test]
    fn peer_list_goes_inline_to_set_and_back_in_order() {
        let mut table = EntryMap::default();
        let (far, near) = (path(&[9, 1, 0]), path(&[1, 0]));
        index_path(&mut table, PeerId(5), &far);
        assert!(matches!(table[&RouterId(1)], PeerList::One((1, PeerId(5)))));
        // The second entry sorts first: (depth 0) < (depth 1).
        index_path(&mut table, PeerId(3), &near);
        assert!(matches!(table[&RouterId(1)], PeerList::Many(_)));
        assert_eq!(
            list_at(&table, 1),
            Some(vec![(0, PeerId(3)), (1, PeerId(5))])
        );
        unindex_path(&mut table, PeerId(3), &near);
        assert!(matches!(table[&RouterId(1)], PeerList::One((1, PeerId(5)))));
        assert_eq!(list_at(&table, 0), Some(vec![(2, PeerId(5))]));
        // Removing an entry a list does not hold changes nothing.
        unindex_path(&mut table, PeerId(3), &near);
        assert_eq!(list_at(&table, 1), Some(vec![(1, PeerId(5))]));
        // Emptying a list removes its router.
        unindex_path(&mut table, PeerId(5), &far);
        assert!(table.is_empty());
    }

    #[test]
    fn exclude_skips_a_peer_whether_its_list_is_inline_or_a_set() {
        let idx = populated();
        // A alone crosses router 4 and C alone routers 6 and 3 (inline
        // lists); both also sit in the sets of the shared routers.
        for r in [4, 6, 3] {
            assert!(matches!(idx.entries[&RouterId(r)], PeerList::One(_)));
        }
        assert!(matches!(idx.entries[&RouterId(2)], PeerList::Many(_)));
        for q in [path(&[4, 2, 1, 0]), path(&[6, 3, 1, 0])] {
            let all = idx.query_nearest(&q, 4, None);
            for excluded in [0xA, 0xB, 0xC, 0xD, 0xF].map(PeerId) {
                let want: Vec<Neighbor> =
                    all.iter().copied().filter(|n| n.peer != excluded).collect();
                assert_eq!(idx.query_nearest(&q, 4, Some(excluded)), want);
            }
        }
    }

    #[test]
    fn empty_index_queries() {
        let idx = RouterIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.n_routers(), 0);
        let q = path(&[1, 2]);
        assert!(idx.query_nearest(&q, 3, None).is_empty());
    }
}
