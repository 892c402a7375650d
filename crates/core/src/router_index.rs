//! The paper's hash-table-of-ordered-lists data structure.
//!
//! A lookup is one k-way merge: every router of the query path is probed
//! in every entry table given (the global [`RouterIndex`] has one, the
//! sharded directory one per landmark), each hit opens a lazy cursor on
//! that router's ordered peer list, and a single min-heap over *all* the
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
pub(crate) type EntryMap = IdMap<RouterId, BTreeSet<(u32, PeerId)>>;

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
    // shared router.
    let path_len = query.routers().len();
    let mut cursors = Vec::with_capacity(path_len);
    let mut heads = Vec::with_capacity(path_len);
    let mut reachable = 0usize;
    for table in tables {
        for (router, query_depth) in query.with_depths() {
            let Some(set) = table.get(&router) else {
                continue;
            };
            let mut iter = set.iter();
            if let Some(&(cand_depth, peer)) = iter.next() {
                reachable += set.len();
                heads.push(Reverse((query_depth + cand_depth, peer, cursors.len())));
                cursors.push((query_depth, iter));
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
        let (query_depth, iter) = &mut cursors[idx];
        match iter.next() {
            Some(&(cand_depth, next)) => *head = Reverse((*query_depth + cand_depth, next, idx)),
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
            .flat_map(|set| set.iter().map(|&(d, p)| (p, d)))
    }

    /// Registers a newcomer. `O(d · log n)` ordered insertions.
    pub fn insert(&mut self, peer: PeerId, path: PeerPath) -> Result<(), CoreError> {
        if self.paths.contains_key(&peer) {
            return Err(CoreError::DuplicatePeer(peer));
        }
        for (router, depth) in path.with_depths() {
            self.entries
                .entry(router)
                .or_default()
                .insert((depth, peer));
        }
        self.paths.insert(peer, path);
        Ok(())
    }

    /// Deregisters a peer, returning its stored path.
    pub fn remove(&mut self, peer: PeerId) -> Option<PeerPath> {
        let path = self.paths.remove(&peer)?;
        for (router, depth) in path.with_depths() {
            if let Some(set) = self.entries.get_mut(&router) {
                set.remove(&(depth, peer));
                if set.is_empty() {
                    self.entries.remove(&router);
                }
            }
        }
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

    #[test]
    fn empty_index_queries() {
        let idx = RouterIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.n_routers(), 0);
        let q = path(&[1, 2]);
        assert!(idx.query_nearest(&q, 3, None).is_empty());
    }
}
