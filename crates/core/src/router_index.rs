//! The paper's hash-table-of-ordered-lists data structure.
//!
//! A lookup is one k-way merge: every router of the query path is probed
//! in every entry table given (the flat [`RouterIndex`] and each
//! [`crate::ManagementServer`] have one; a [`crate::Federation`] passes
//! one per consulted region), each hit opens a lazy cursor on that
//! router's ordered peer list (a one-entry [`PeerList`] needs none: its
//! head is all it has), and a single min-heap over *all* the cursors pops
//! candidates in ascending `(dtree, peer)` until `k` distinct peers are
//! out. Nothing is built per table: because every peer's entries live in
//! exactly one table, the merge over all cursors is the answer a single
//! global table would give. The tables hash their fixed-width router ids
//! with the keyed [`IdHash`](crate::ids::IdHash) (see there for why it is
//! keyed).
//!
//! The table is nearly the whole of a server's memory, so each list is
//! stored at the size of its data: 12-byte [`Packed`] entries, with no
//! tree nodes. A router's hash slot holds its entry itself when it has one
//! (most edge routers do); a longer list lives in one side `Vec` of the
//! table, as one sorted array up to [`CHUNK`] entries and as sorted chunks
//! of at most [`CHUNK`] above that. The chunks' last entries sit side by
//! side, so a write binary-searches them, then one chunk. A leave only
//! frees: emptied and thinned-out chunks are dropped or folded together,
//! a list down to one chunk becomes that chunk, and a list down to one
//! entry moves it back into the slot.

use crate::error::CoreError;
use crate::ids::{IdMap, IdSet, PeerId};
use crate::path::{PathView, PeerPath};
use nearpeer_topology::RouterId;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

/// One discovered neighbor: the peer and its inferred tree distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Neighbor {
    /// The neighbor's id.
    pub peer: PeerId,
    /// The inferred hop distance `dtree` (through the deepest shared
    /// router).
    pub dtree: u32,
}

/// One index entry: a peer's depth below the router, and the peer. Lists
/// order by it, so ties in depth go by peer id.
type Filed = (u32, PeerId);

/// A [`Filed`] entry in 12 bytes at 4-byte alignment (the tuple takes 16:
/// its `u32` pads to the `PeerId`'s alignment). The derived order is
/// `Filed`'s: depth, then the peer id's high half, then its low half.
///
/// It is also a router's hash-table value: its one entry, or, when
/// `depth` is [`LIST`], the index of its list in [`EntryMap`]'s `lists`
/// in `peer[1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Packed {
    depth: u32,
    /// The peer id, high half first.
    peer: [u32; 2],
}

const _: () = assert!(std::mem::size_of::<Packed>() == 12);
const _: () = assert!(std::mem::size_of::<(RouterId, Packed)>() == 16);

/// The [`Packed::depth`] that marks a list. A depth is a position in a
/// path of distinct routers, and no path gets anywhere near 2³² of them.
const LIST: u32 = u32::MAX;

impl Packed {
    fn new((depth, peer): Filed) -> Packed {
        debug_assert_ne!(depth, LIST, "a depth collides with the list marker");
        Packed {
            depth,
            peer: [(peer.0 >> 32) as u32, peer.0 as u32],
        }
    }

    fn list(at: u32) -> Packed {
        Packed {
            depth: LIST,
            peer: [0, at],
        }
    }

    /// The place in `lists`, if this hash value points at a list.
    fn list_at(self) -> Option<usize> {
        (self.depth == LIST).then_some(self.peer[1] as usize)
    }

    /// The entry (meaningless for a list marker).
    fn filed(self) -> Filed {
        let peer = u64::from(self.peer[0]) << 32 | u64::from(self.peer[1]);
        (self.depth, PeerId(peer))
    }
}

/// The entry table of the flat [`RouterIndex`] and of every
/// [`crate::ManagementServer`] (one per server, whatever its landmark
/// count): router → peers traversing it, ordered by hop count below the
/// router.
///
/// A lookup probes one hash table: the router's segment, picked by a
/// Fibonacci hash of its id. Segments keep a resize small: a doubling
/// table holds its old and new buckets at once, which for one table of
/// the whole index added ~7 MB to the peak RSS at 100 k peers.
///
/// A bucket is 16 bytes: the router and a [`Packed`] value that is either
/// the router's one entry or the index of its list in `lists`, at most
/// one hop away. `lists` reuses the places that collapsed lists leave,
/// through a free chain threaded through them, so a leave never grows it.
#[derive(Debug, Clone, Default)]
pub(crate) struct EntryMap {
    segments: [IdMap<RouterId, Packed>; SEGMENTS],
    lists: Vec<List>,
    /// The first free place in `lists`, if any.
    free: Option<u32>,
}

/// Segments per [`EntryMap`] (a power of two).
const SEGMENTS: usize = 16;

/// The most entries a sorted array, and each chunk of a longer list,
/// holds: 768 bytes. In the benchmark population lists of ~3, ~12 and ~50
/// entries one to three levels above the edge are arrays; only the ~200
/// and longer ones nearer the landmark are chunked.
const CHUNK: usize = 64;

/// A list of two or more entries, or a free place in [`EntryMap`]'s
/// `lists`.
#[derive(Debug, Clone)]
enum List {
    /// Up to [`CHUNK`] entries, sorted. An insert is a binary search and a
    /// memmove of at most 768 bytes; the `Vec` grows by doubling, since
    /// growing it one entry at a time made joins ~30 % slower for 10 bytes
    /// per peer.
    Array(Vec<Packed>),
    /// More than [`CHUNK`] entries at some point, in sorted chunks. Back to
    /// an array when one chunk is left: that chunk is the array.
    Chunked(Chunks),
    /// Free; the next free place, if any.
    Free(Option<u32>),
}

/// A long list: consecutive sorted runs of at most [`CHUNK`] entries.
#[derive(Debug, Clone)]
pub(crate) struct Chunks {
    /// Entries over all chunks, which [`PeerList::len`] reads for every
    /// router a query hits.
    len: u32,
    /// Two or more, in order, none empty, every `entries` of capacity
    /// [`CHUNK`] or more (so neither a fold nor an insert that fits
    /// reallocates).
    chunks: Vec<Chunk>,
}

/// One run of a [`Chunks`] list.
#[derive(Debug)]
pub(crate) struct Chunk {
    /// The run's last entry. A list's chunk headers sit side by side in
    /// one `Vec`, so a write binary-searches contiguous memory and then
    /// touches one chunk, not one chunk per probe of its search.
    last: Packed,
    entries: Vec<Packed>,
}

impl Chunk {
    /// A chunk holding `entries` (sorted, not empty), at capacity
    /// [`CHUNK`] at least.
    fn new(entries: Vec<Packed>) -> Chunk {
        debug_assert!(entries.capacity() >= CHUNK);
        let last = *entries.last().expect("a chunk is not empty");
        Chunk { last, entries }
    }

    fn of(entry: Packed) -> Chunk {
        let mut entries = Vec::with_capacity(CHUNK);
        entries.push(entry);
        Chunk::new(entries)
    }
}

impl Clone for Chunk {
    /// Keeps the capacity that a derived `clone` would trim to the length.
    fn clone(&self) -> Chunk {
        let mut entries = Vec::with_capacity(CHUNK);
        entries.extend_from_slice(&self.entries);
        Chunk::new(entries)
    }
}

impl Chunks {
    /// Adds `entry` (a no-op if it is present).
    fn insert(&mut self, entry: Packed) {
        let chunks = &mut self.chunks;
        let mut at = chunks.partition_point(|chunk| chunk.last < entry);
        let mut pos = match chunks.get(at) {
            Some(chunk) => match chunk.entries.binary_search(&entry) {
                Ok(_) => return,
                Err(pos) => pos,
            },
            None => {
                at -= 1;
                chunks[at].entries.len()
            }
        };
        // An entry that sorts between two chunks ends the first if it
        // has room.
        if pos == 0 && at > 0 && chunks[at - 1].entries.len() < CHUNK {
            at -= 1;
            pos = chunks[at].entries.len();
        }
        self.len += 1;
        let chunk = &mut chunks[at];
        if chunk.entries.len() < CHUNK {
            chunk.entries.insert(pos, entry);
            chunk.last = chunk.last.max(entry);
            return;
        }
        // A full chunk. An entry past either end of it starts a chunk of
        // its own, so ascending (or descending) runs of joins fill whole
        // chunks; one inside splits it in halves.
        if pos == CHUNK || pos == 0 {
            chunks.insert(at + usize::from(pos == CHUNK), Chunk::of(entry));
            return;
        }
        const HALF: usize = CHUNK / 2;
        let mut right = Vec::with_capacity(CHUNK);
        right.extend_from_slice(&chunk.entries[HALF..]);
        chunk.entries.truncate(HALF);
        if pos <= HALF {
            chunk.entries.insert(pos, entry);
        } else {
            right.insert(pos - HALF, entry);
        }
        chunk.last = *chunk.entries.last().expect("half a chunk");
        chunks.insert(at + 1, Chunk::new(right));
    }

    /// Removes `entry` (a no-op if it is absent). A chunk left empty is
    /// dropped, and two neighbours that together hold at most half a
    /// chunk are folded into one, so churn cannot thin a list out into
    /// near-empty chunks. Frees memory but never allocates.
    fn remove(&mut self, entry: Packed) {
        let chunks = &mut self.chunks;
        let at = chunks.partition_point(|chunk| chunk.last < entry);
        let Some(chunk) = chunks.get_mut(at) else {
            return;
        };
        let Ok(pos) = chunk.entries.binary_search(&entry) else {
            return;
        };
        chunk.entries.remove(pos);
        self.len -= 1;
        let Some(&last) = chunk.entries.last() else {
            chunks.remove(at);
            return;
        };
        chunk.last = last;
        let thin =
            |left: usize| chunks[left].entries.len() + chunks[left + 1].entries.len() <= CHUNK / 2;
        let left = if at + 1 < chunks.len() && thin(at) {
            at
        } else if at > 0 && thin(at - 1) {
            at - 1
        } else {
            return;
        };
        let right = chunks.remove(left + 1);
        let chunk = &mut chunks[left];
        chunk.entries.extend_from_slice(&right.entries);
        chunk.last = right.last;
    }
}

impl List {
    /// Adds `entry` (a no-op if it is present).
    fn insert(&mut self, entry: Packed) {
        match self {
            List::Array(array) => match array.binary_search(&entry) {
                Ok(_) => {}
                Err(_) if array.len() == CHUNK => {
                    let mut chunks = Vec::with_capacity(2);
                    chunks.push(Chunk::new(std::mem::take(array)));
                    let mut list = Chunks {
                        len: CHUNK as u32,
                        chunks,
                    };
                    list.insert(entry);
                    *self = List::Chunked(list);
                }
                Err(at) => array.insert(at, entry),
            },
            List::Chunked(list) => list.insert(entry),
            List::Free(_) => unreachable!("a slot points at a free list"),
        }
    }

    /// Removes `entry` (a no-op if it is absent); returns the one entry
    /// left, if that is all that is, which the caller moves into the slot.
    fn remove(&mut self, entry: Packed) -> Option<Packed> {
        let array = match self {
            List::Array(array) => {
                if let Ok(at) = array.binary_search(&entry) {
                    array.remove(at);
                }
                array
            }
            List::Chunked(list) => {
                list.remove(entry);
                if list.chunks.len() > 1 {
                    return None;
                }
                let last = list.chunks.pop().expect("a list keeps a chunk");
                *self = List::Array(last.entries);
                let List::Array(array) = self else {
                    unreachable!("just made an array");
                };
                array
            }
            List::Free(_) => unreachable!("a slot points at a free list"),
        };
        (array.len() == 1).then(|| array[0])
    }
}

impl EntryMap {
    fn segment(router: RouterId) -> usize {
        (router.0.wrapping_mul(0x9E37_79B9) >> (32 - SEGMENTS.trailing_zeros())) as usize
    }

    /// The peers crossing `router`, if any.
    pub(crate) fn get(&self, router: &RouterId) -> Option<PeerList<'_>> {
        let slot = *self.segments[Self::segment(*router)].get(router)?;
        Some(match slot.list_at() {
            None => PeerList::One(slot.filed()),
            Some(at) => match &self.lists[at] {
                List::Array(array) => PeerList::Array(array),
                List::Chunked(list) => PeerList::Chunked(list),
                List::Free(_) => unreachable!("a slot points at a free list"),
            },
        })
    }

    /// Files `entry` under `router` (a no-op if it is there).
    fn insert(&mut self, router: RouterId, entry: Filed) {
        let entry = Packed::new(entry);
        let slot = match self.segments[Self::segment(router)].entry(router) {
            Entry::Vacant(vacant) => {
                vacant.insert(entry);
                return;
            }
            Entry::Occupied(occupied) => occupied.into_mut(),
        };
        if let Some(at) = slot.list_at() {
            self.lists[at].insert(entry);
            return;
        }
        let held = *slot;
        if held == entry {
            return;
        }
        let pair = vec![held.min(entry), held.max(entry)];
        let at = match self.free {
            Some(at) => {
                let List::Free(next) = self.lists[at as usize] else {
                    unreachable!("the free chain holds free places");
                };
                self.free = next;
                self.lists[at as usize] = List::Array(pair);
                at
            }
            None => {
                self.lists.push(List::Array(pair));
                (self.lists.len() - 1) as u32
            }
        };
        *slot = Packed::list(at);
    }

    /// Removes `entry` from `router`'s list (a no-op if it is absent): a
    /// list left with one entry moves it into the slot, and a router left
    /// with none is dropped. Frees memory but never allocates.
    fn remove(&mut self, router: RouterId, entry: Filed) {
        let entry = Packed::new(entry);
        let segment = &mut self.segments[Self::segment(router)];
        let Some(slot) = segment.get_mut(&router) else {
            return;
        };
        match slot.list_at() {
            None => {
                if *slot == entry {
                    segment.remove(&router);
                }
            }
            Some(at) => {
                if let Some(last) = self.lists[at].remove(entry) {
                    *slot = last;
                    self.lists[at] = List::Free(self.free);
                    self.free = Some(at as u32);
                }
            }
        }
    }

    /// Distinct routers indexed.
    pub(crate) fn len(&self) -> usize {
        self.segments.iter().map(HashMap::len).sum()
    }

    /// Heap bytes held, by part: the segments' hash buckets, the `Vec` of
    /// lists, the arrays, and the chunked lists (headers and entries).
    pub(crate) fn heap_parts(&self) -> [(&'static str, usize); 4] {
        let entry = std::mem::size_of::<Packed>();
        let (mut arrays, mut chunks) = (0, 0);
        for list in &self.lists {
            match list {
                List::Array(array) => arrays += array.capacity() * entry,
                List::Chunked(list) => {
                    chunks += list.chunks.capacity() * std::mem::size_of::<Chunk>();
                    chunks += list
                        .chunks
                        .iter()
                        .map(|c| c.entries.capacity() * entry)
                        .sum::<usize>();
                }
                List::Free(_) => {}
            }
        }
        [
            ("index buckets", self.segments.iter().map(table_bytes).sum()),
            (
                "index lists",
                self.lists.capacity() * std::mem::size_of::<List>(),
            ),
            ("index arrays", arrays),
            ("index chunks", chunks),
        ]
    }
}

/// The bytes the standard library's hash table allocates for `map`:
/// `(K, V)` buckets padded to the control bytes' alignment, then a control
/// byte per bucket and one more group of them. Exact for a map that only
/// grew: a removal leaves a marker that lowers `capacity()` until the next
/// rehash.
///
/// std exposes no allocation size, so this repeats its private layout
/// (the capacity-to-buckets rule, the control-group width, the padding)
/// as of the current toolchain. A toolchain that changes that layout
/// moves this figure with no change to the directory;
/// `tests/heap_per_peer.rs` compares the parts with a measured count
/// within a tolerance for that reason.
fn table_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    const GROUP: usize = if cfg!(all(
        any(target_arch = "x86", target_arch = "x86_64"),
        target_feature = "sse2"
    )) {
        16
    } else {
        8
    };
    let buckets = match map.capacity() {
        0 => return 0,
        cap if cap < 8 => cap + 1,
        cap => cap / 7 * 8,
    };
    let align = std::mem::align_of::<(K, V)>().max(GROUP);
    (std::mem::size_of::<(K, V)>() * buckets).next_multiple_of(align) + buckets + GROUP
}

/// One router's peers, ascending by `(depth below the router, peer)`, as
/// [`EntryMap`] stores them.
///
/// Most routers near the edge are crossed by exactly one registered peer:
/// its access router, and any router deep enough in the landmark's tree
/// that no other peer's path reaches it. In the benchmark population
/// (`SyntheticJoins`: a unique access router per peer, and 12.5 k peers
/// per landmark below 4⁷ level-7 routers) that is 2 of every peer's 9
/// entries, and their list is the hash slot itself. A list of up to
/// [`CHUNK`] entries is one sorted slice of 12-byte entries, a longer one
/// sorted chunks of them. An empty list is not representable: the owning
/// table drops the router instead.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PeerList<'a> {
    One(Filed),
    Array(&'a [Packed]),
    Chunked(&'a Chunks),
}

impl<'a> PeerList<'a> {
    /// The entries in ascending `(depth, peer)` order.
    pub(crate) fn iter(self) -> ListIter<'a> {
        match self {
            PeerList::One(entry) => ListIter::One(Some(entry)),
            PeerList::Array(array) => ListIter::Packed {
                entries: array.iter(),
                chunks: [].iter(),
            },
            PeerList::Chunked(list) => ListIter::Packed {
                entries: [].iter(),
                chunks: list.chunks.iter(),
            },
        }
    }

    /// How many entries the list holds (at least one).
    pub(crate) fn len(self) -> usize {
        match self {
            PeerList::One(_) => 1,
            PeerList::Array(array) => array.len(),
            PeerList::Chunked(list) => list.len as usize,
        }
    }
}

/// A cursor over a [`PeerList`], ascending: through the current run of
/// packed entries, then the chunks after it.
#[derive(Debug, Clone)]
pub(crate) enum ListIter<'a> {
    One(Option<Filed>),
    Packed {
        entries: std::slice::Iter<'a, Packed>,
        chunks: std::slice::Iter<'a, Chunk>,
    },
}

impl Iterator for ListIter<'_> {
    type Item = Filed;

    fn next(&mut self) -> Option<Filed> {
        match self {
            ListIter::One(entry) => entry.take(),
            ListIter::Packed { entries, chunks } => loop {
                if let Some(entry) = entries.next() {
                    return Some(entry.filed());
                }
                *entries = chunks.next()?.entries.iter();
            },
        }
    }
}

/// Files `peer` under every router of `path`, at its depth below each.
pub(crate) fn index_path(entries: &mut EntryMap, peer: PeerId, path: PathView<'_>) {
    for (router, depth) in path.with_depths() {
        entries.insert(router, (depth, peer));
    }
}

/// Peers whose path traverses `router`, nearest-first (by hops below the
/// router, ties by peer id).
pub(crate) fn peers_through(
    entries: &EntryMap,
    router: RouterId,
) -> impl Iterator<Item = (PeerId, u32)> + '_ {
    entries
        .get(&router)
        .into_iter()
        .flat_map(|list| list.iter().map(|(d, p)| (p, d)))
}

/// Undoes [`index_path`], dropping every router whose list empties.
pub(crate) fn unindex_path(entries: &mut EntryMap, peer: PeerId, path: PathView<'_>) {
    for (router, depth) in path.with_depths() {
        entries.remove(router, (depth, peer));
    }
}

/// The `k` peers with smallest combined depth (`dtree`) to the query path
/// over the given [`EntryMap`]s, ascending, ties broken by peer id,
/// `exclude` (the asker itself, as the wire carries it) left out. This is
/// the paper's query: one lazy cursor per `(table, query-path router)` hit,
/// k-way merged by one min-heap, touching only `O(k + path length)`
/// entries regardless of the population. A server passes its one table, a
/// federation one per consulted region; the tables must not share a
/// peer.
///
/// The answer and the `seen` set are sized by what the cursors can yield,
/// never by `k` alone: `k` comes off the wire.
pub(crate) fn query_nearest_entries<'a>(
    tables: impl IntoIterator<Item = &'a EntryMap>,
    query: PathView<'_>,
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
                Some(PeerList::One((cand_depth, peer))) => {
                    reachable += 1;
                    heads.push(Reverse((query_depth + cand_depth, peer, NO_CURSOR)));
                }
                Some(list) => {
                    let mut iter = list.iter();
                    let (cand_depth, peer) = iter.next().expect("a list holds two or more");
                    reachable += list.len();
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
                .map(|(cand_depth, next)| (*query_depth + cand_depth, next))
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
        peers_through(&self.entries, router)
    }

    /// Registers a newcomer. `O(d · log n)` ordered insertions.
    pub fn insert(&mut self, peer: PeerId, path: PeerPath) -> Result<(), CoreError> {
        if self.paths.contains_key(&peer) {
            return Err(CoreError::DuplicatePeer(peer));
        }
        index_path(&mut self.entries, peer, path.view());
        self.paths.insert(peer, path);
        Ok(())
    }

    /// Deregisters a peer, returning its stored path.
    pub fn remove(&mut self, peer: PeerId) -> Option<PeerPath> {
        let path = self.paths.remove(&peer)?;
        unindex_path(&mut self.entries, peer, path.view());
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
        query_nearest_entries([&self.entries], query.view(), k, exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

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

    /// The places of `table.lists` holding a list (not on the free chain).
    fn live_lists(table: &EntryMap) -> usize {
        let free = |l: &&List| matches!(l, List::Free(_));
        table.lists.len() - table.lists.iter().filter(free).count()
    }

    /// A chunked list's invariants: two or more chunks, none empty or over
    /// [`CHUNK`], each at capacity [`CHUNK`] (neither a merge nor an
    /// insert that fits reallocates), each stored last key its chunk's
    /// last entry, no two neighbours thin enough to fold, and the stored
    /// length the sum.
    fn check_chunks(list: &Chunks) {
        assert!(list.chunks.len() >= 2, "{} chunks", list.chunks.len());
        for chunk in &list.chunks {
            assert!((1..=CHUNK).contains(&chunk.entries.len()));
            assert_eq!(chunk.entries.capacity(), CHUNK);
            assert_eq!(Some(&chunk.last), chunk.entries.last());
        }
        for pair in list.chunks.windows(2) {
            assert!(pair[0].entries.len() + pair[1].entries.len() > CHUNK / 2);
        }
        let total: usize = list.chunks.iter().map(|c| c.entries.len()).sum();
        assert_eq!(total, list.len as usize);
    }

    /// Checks `list`'s representation against its length; returns which
    /// it is: 0 inline, 1 array, 2 chunks.
    fn check_list(list: PeerList<'_>) -> usize {
        match list {
            PeerList::One(_) => 0,
            PeerList::Array(array) => {
                assert!((2..=CHUNK).contains(&array.len()), "{}", array.len());
                1
            }
            PeerList::Chunked(list) => {
                check_chunks(list);
                2
            }
        }
    }

    /// The lengths of `router`'s chunks (empty unless its list is chunked).
    fn chunk_lens(table: &EntryMap, router: u32) -> Vec<usize> {
        match table.get(&RouterId(router)) {
            Some(PeerList::Chunked(list)) => list.chunks.iter().map(|c| c.entries.len()).collect(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn peer_list_walks_inline_array_chunks_and_back_in_order() {
        let mut table = EntryMap::default();
        let (far, near) = (path(&[9, 1, 0]), path(&[1, 0]));
        index_path(&mut table, PeerId(5), far.view());
        fn at_1(table: &EntryMap) -> Option<PeerList<'_>> {
            table.get(&RouterId(1))
        }
        assert!(matches!(at_1(&table), Some(PeerList::One((1, PeerId(5))))));
        // The second entry sorts first: (depth 0) < (depth 1).
        index_path(&mut table, PeerId(3), near.view());
        assert!(matches!(at_1(&table), Some(PeerList::Array(_))));
        assert_eq!(
            list_at(&table, 1),
            Some(vec![(0, PeerId(3)), (1, PeerId(5))])
        );
        unindex_path(&mut table, PeerId(3), near.view());
        assert!(matches!(at_1(&table), Some(PeerList::One((1, PeerId(5))))));
        assert_eq!(list_at(&table, 0), Some(vec![(2, PeerId(5))]));
        // Removing an entry a list does not hold changes nothing.
        unindex_path(&mut table, PeerId(3), near.view());
        assert_eq!(list_at(&table, 1), Some(vec![(1, PeerId(5))]));

        // 1 → 2 → CHUNK entries: an array; CHUNK + 1: chunks, in the same
        // order. Ascending joins (even ids) fill whole chunks.
        let edge = |p: u64| path(&[1000 + p as u32, 1, 0]);
        let evens: Vec<u64> = (0..4 * CHUNK as u64).map(|i| 10 + 2 * i).collect();
        let mut want = vec![(1, PeerId(5))];
        for &p in &evens {
            let kind = match want.len() {
                1 => 0,
                2..=CHUNK => 1,
                _ => 2,
            };
            assert_eq!(check_list(at_1(&table).expect("indexed")), kind);
            index_path(&mut table, PeerId(p), edge(p).view());
            want.push((1, PeerId(p)));
            assert_eq!(at_1(&table).map(PeerList::len), Some(want.len()));
        }
        // Peer 5 re-files its entry: a duplicate changes nothing.
        index_path(&mut table, PeerId(5), far.view());
        assert_eq!(list_at(&table, 1), Some(want.clone()));
        assert_eq!(chunk_lens(&table, 1), [CHUNK, CHUNK, CHUNK, CHUNK, 1]);
        assert_eq!((table.lists.len(), live_lists(&table)), (2, 2));

        // An entry before a full first chunk starts a chunk of its own;
        // one inside a full chunk splits it in halves.
        index_path(&mut table, PeerId(3), near.view());
        assert_eq!(chunk_lens(&table, 1), [1, CHUNK, CHUNK, CHUNK, CHUNK, 1]);
        index_path(&mut table, PeerId(11), edge(11).view());
        let (half, full) = (CHUNK / 2, CHUNK);
        assert_eq!(
            chunk_lens(&table, 1),
            [1, half + 1, half, full, full, full, 1]
        );
        want.extend([(0, PeerId(3)), (1, PeerId(11))]);
        want.sort();
        assert_eq!(list_at(&table, 1), Some(want.clone()));
        check_list(at_1(&table).expect("indexed"));

        // Every other peer leaves, then the rest: chunks thin out and fold
        // together, the last chunk becomes the array, and the last entry
        // but one moves peer 5's back into the slot.
        let mut leaving: Vec<(u64, PeerPath)> = vec![(3, near.clone()), (11, edge(11))];
        leaving.extend(evens.iter().step_by(2).map(|&p| (p, edge(p))));
        leaving.extend(evens.iter().skip(1).step_by(2).map(|&p| (p, edge(p))));
        let mut seen = [false; 3];
        for (p, path) in leaving {
            unindex_path(&mut table, PeerId(p), path.view());
            want.retain(|&(_, peer)| peer != PeerId(p));
            assert_eq!(list_at(&table, 1), Some(want.clone()));
            seen[check_list(at_1(&table).expect("peer 5 stays"))] = true;
        }
        assert_eq!(seen, [true; 3]);
        assert!(matches!(at_1(&table), Some(PeerList::One((1, PeerId(5))))));
        assert_eq!(list_at(&table, 0), Some(vec![(2, PeerId(5))]));
        // Both places are free, and the next list takes one back.
        assert_eq!((table.lists.len(), live_lists(&table)), (2, 0));
        index_path(&mut table, PeerId(3), near.view());
        assert_eq!((table.lists.len(), live_lists(&table)), (2, 2));
        unindex_path(&mut table, PeerId(3), near.view());

        // Emptying a list removes its router.
        unindex_path(&mut table, PeerId(5), far.view());
        assert_eq!(table.len(), 0);
        assert_eq!(live_lists(&table), 0);
    }

    #[test]
    fn exclude_skips_a_peer_whether_its_list_is_inline_or_a_set() {
        let idx = populated();
        // A alone crosses router 4 and C alone routers 6 and 3 (inline
        // lists); both also sit in the lists of the shared routers.
        for r in [4, 6, 3] {
            assert!(matches!(
                idx.entries.get(&RouterId(r)),
                Some(PeerList::One(_))
            ));
        }
        assert!(matches!(
            idx.entries.get(&RouterId(2)),
            Some(PeerList::Array(_))
        ));
        for q in [path(&[4, 2, 1, 0]), path(&[6, 3, 1, 0])] {
            let all = idx.query_nearest(&q, 4, None);
            for excluded in [0xA, 0xB, 0xC, 0xD, 0xF].map(PeerId) {
                let want: Vec<Neighbor> =
                    all.iter().copied().filter(|n| n.peer != excluded).collect();
                assert_eq!(idx.query_nearest(&q, 4, Some(excluded)), want);
            }
        }
    }

    /// A path of distinct routers from `mids` (drawn from `1..8`), ending
    /// at router 0: every path shares router 0, so its list crosses
    /// [`CHUNK`], and the mid routers' lists sit on both sides of it.
    fn model_path(mids: &[u32]) -> PeerPath {
        let mut routers: Vec<u32> = Vec::new();
        for &m in mids {
            if !routers.contains(&m) {
                routers.push(m);
            }
        }
        routers.push(0);
        path(&routers)
    }

    type Model = BTreeMap<RouterId, BTreeSet<(u32, PeerId)>>;

    fn model_index(model: &mut Model, peer: PeerId, path: &PeerPath) {
        for (router, depth) in path.with_depths() {
            model.entry(router).or_default().insert((depth, peer));
        }
    }

    fn model_remove(model: &mut Model, router: RouterId, entry: Filed) {
        if let Some(list) = model.get_mut(&router) {
            list.remove(&entry);
            if list.is_empty() {
                model.remove(&router);
            }
        }
    }

    fn model_unindex(model: &mut Model, peer: PeerId, path: &PeerPath) {
        for (router, depth) in path.with_depths() {
            model_remove(model, router, (depth, peer));
        }
    }

    /// The routers' order, `len()` and representation against the
    /// model's (`only` one router, or all), and one live list per modelled
    /// router with two or more entries.
    fn check_model(
        table: &EntryMap,
        model: &Model,
        only: Option<RouterId>,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(table.len(), model.len());
        let longer = model.values().filter(|l| l.len() > 1).count();
        prop_assert_eq!(live_lists(table), longer);
        for (router, want) in model {
            if only.is_some_and(|only| only != *router) {
                continue;
            }
            let list = table.get(router).expect("a modelled router is indexed");
            prop_assert_eq!(list.len(), want.len());
            prop_assert!(list.iter().eq(want.iter().copied()));
            check_list(list);
        }
        Ok(())
    }

    /// Which representation router 0's list has (see [`check_list`]).
    fn kind_at_0(table: &EntryMap) -> Option<usize> {
        table.get(&RouterId(0)).map(check_list)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `index_path`/`unindex_path` against a map of ordered sets, with
        /// duplicate inserts, removals of absent entries and leave/rejoin
        /// cycles, through every list representation. Runs of joins grow
        /// router 0's list to several hundred entries; removals aimed at
        /// its chunks' heads, tails and middles, and at every entry of a
        /// middle chunk, thin it out; at the end every peer leaves, which
        /// takes it back through one entry.
        #[test]
        fn entry_map_matches_a_model_through_every_representation(
            ops in prop::collection::vec(
                (0u8..9, 0usize..1024, 0u64..48, prop::collection::vec(1u32..8, 0..6)),
                1..240,
            ),
        ) {
            let mut table = EntryMap::default();
            let mut model = Model::new();
            let mut joined: Vec<(PeerId, PeerPath)> = Vec::new();
            for (kind, pick, peer, mids) in ops {
                let (peer, path) = (PeerId(peer), model_path(&mids));
                match kind {
                    0..=2 => {
                        index_path(&mut table, peer, path.view());
                        model_index(&mut model, peer, &path);
                        joined.push((peer, path));
                    }
                    3 => {
                        unindex_path(&mut table, peer, path.view());
                        model_unindex(&mut model, peer, &path);
                    }
                    4 if !joined.is_empty() => {
                        let (peer, path) = joined.swap_remove(pick % joined.len());
                        unindex_path(&mut table, peer, path.view());
                        model_unindex(&mut model, peer, &path);
                    }
                    5 if !joined.is_empty() => {
                        // A leave and a rejoin take back the places they free.
                        let (peer, path) = joined[pick % joined.len()].clone();
                        index_path(&mut table, peer, path.view());
                        model_index(&mut model, peer, &path);
                        let places = table.lists.len();
                        unindex_path(&mut table, peer, path.view());
                        index_path(&mut table, peer, path.view());
                        prop_assert_eq!(table.lists.len(), places);
                    }
                    6 => {
                        // A run of joins, ids spread by a stride, so runs
                        // land inside one another's ranges.
                        let (start, stride) = (100 + pick as u64, 1 + peer.0 % 7);
                        for i in 0..8 + (pick % 64) as u64 {
                            let peer = PeerId(start + i * stride);
                            index_path(&mut table, peer, path.view());
                            model_index(&mut model, peer, &path);
                            joined.push((peer, path.clone()));
                        }
                    }
                    7 => {
                        // Router 0's entry at the head, the tail or the
                        // middle of one of its chunks goes.
                        if let Some(PeerList::Chunked(list)) = table.get(&RouterId(0)) {
                            let chunk = &list.chunks[pick % list.chunks.len()].entries;
                            let at = [0, chunk.len() - 1, chunk.len() / 2][peer.0 as usize % 3];
                            let entry = chunk[at].filed();
                            table.remove(RouterId(0), entry);
                            model_remove(&mut model, RouterId(0), entry);
                        }
                    }
                    8 => {
                        // Every entry of one of router 0's middle chunks
                        // goes: the chunk empties or folds into a
                        // neighbour.
                        if let Some(PeerList::Chunked(list)) = table.get(&RouterId(0)) {
                            let chunks = list.chunks.len();
                            if chunks >= 3 {
                                let middle = &list.chunks[1 + pick % (chunks - 2)];
                                let gone: Vec<Filed> =
                                    middle.entries.iter().map(|e| e.filed()).collect();
                                for entry in gone {
                                    table.remove(RouterId(0), entry);
                                    model_remove(&mut model, RouterId(0), entry);
                                    check_model(&table, &model, Some(RouterId(0)))?;
                                }
                                prop_assert!(chunk_lens(&table, 0).len() < chunks);
                            }
                        }
                    }
                    _ => {}
                }
                check_model(&table, &model, None)?;
            }
            // Every peer leaves. One leave takes at most one entry off a
            // router, so a chunked list passes through an array and one
            // entry on its way out, and no leave grows `lists`.
            let places = table.lists.len();
            let mut seen = [false; 3];
            let start = kind_at_0(&table);
            for (peer, path) in joined {
                unindex_path(&mut table, peer, path.view());
                model_unindex(&mut model, peer, &path);
                check_model(&table, &model, Some(RouterId(0)))?;
                if let Some(kind) = kind_at_0(&table) {
                    seen[kind] = true;
                }
            }
            if start == Some(2) {
                prop_assert_eq!(seen, [true; 3]);
            }
            prop_assert_eq!(table.len(), 0);
            prop_assert_eq!(live_lists(&table), 0);
            prop_assert_eq!(table.lists.len(), places);
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
