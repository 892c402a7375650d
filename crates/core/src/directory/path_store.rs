//! Arena-backed interning of peer paths.
//!
//! Before the directory refactor the same [`PeerPath`] was cloned into
//! every structure that mentioned the peer (registry, router index, query
//! answers). The store keeps exactly one copy per *distinct* path and hands
//! out copyable [`PathRef`] handles; structures store the 4-byte handle and
//! resolve it on demand to a borrowed [`PathView`]. Distinct peers tracing
//! from the same access chain (mobile peers re-joining, synthetic
//! workloads, NAT'd households) share one slot via reference counting.
//!
//! The routers of every stored path live in one flat `Vec<RouterId>`, a
//! run per path, so a path costs its routers and a 16-byte slot, with no
//! heap block (and no allocator header) of its own. A freed run waits on
//! the free chain of its length, threaded through the runs themselves,
//! and the next path of that length takes it: a leave never allocates and
//! a same-length rejoin never grows the arena. A path no freed run fits
//! appends a run; if the freed runs then hold more routers than the live
//! ones, the store first lays the live runs out back to back and forgets
//! the freed ones, so the arena stays within twice the peak live routers
//! however the lengths of the paths vary.

use super::persist::wire::{put_path, put_u32, put_u64, put_u8, Reader};
use super::persist::PersistError;
use crate::ids::IdHash;
use crate::path::PathView;
use nearpeer_topology::RouterId;
use std::hash::BuildHasher;

/// A handle into a [`PathStore`] arena. Only meaningful for the store that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathRef(u32);

impl PathRef {
    /// The raw arena slot (diagnostics only).
    pub fn slot(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from a persisted slot index. Only the snapshot
    /// decoder may mint refs: it validates every minted ref against the
    /// restored store before use.
    pub(crate) fn from_slot(slot: u32) -> PathRef {
        PathRef(slot)
    }
}

/// One stored path: its run `routers[start..start + len]`, its reference
/// count, and the high half of its content hash, so the table finds its
/// home, grows and deletes without hashing a run again. A vacant slot has
/// `refs == 0` and `start` names the slot freed before it ([`NONE`] ends
/// the chain).
#[derive(Debug, Clone, Copy)]
struct Slot {
    start: u32,
    len: u32,
    refs: u32,
    hash: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

/// The end of a free chain, and an empty table position.
const NONE: u32 = u32::MAX;

/// An arena of interned paths with per-entry reference counts and free
/// chains, so churn (register/deregister cycles) does not grow the arena
/// without bound. Freed slots chain through themselves, last freed first
/// reused, and freed runs chain through their first router, one chain per
/// length, so freeing never allocates.
#[derive(Debug)]
pub struct PathStore {
    /// Every stored path's routers, one run per live slot (freed runs wait
    /// on `free_runs`).
    routers: Vec<RouterId>,
    slots: Vec<Slot>,
    /// Open-addressed table of live slot indices (linear probing,
    /// backward-shift deletion), keyed by the content hash of the slot's
    /// run: it stores indices only. Empty, or a power of two at most 3/4
    /// full.
    table: Vec<u32>,
    /// `free_runs[len]`: the start of a freed run of `len` routers, whose
    /// first router holds the start of the next ([`NONE`] ends it). Sized
    /// past every live length, so a release never grows it.
    free_runs: Vec<u32>,
    /// Routers in freed runs.
    spare: usize,
    /// The last slot freed, the head of the free chain.
    free: u32,
    live: usize,
    hits: u64,
    hash: fn(&[RouterId]) -> u64,
}

impl Default for PathStore {
    fn default() -> Self {
        Self::with_hash(content_hash)
    }
}

/// A path's content hash, under the process-keyed [`IdHash`]: router ids
/// come from clients' traces, so a fixed hash would let them aim paths at
/// one probe chain. No hash is persisted.
fn content_hash(routers: &[RouterId]) -> u64 {
    IdHash::default().hash_one(routers)
}

impl PathStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store hashing contents with `hash`.
    fn with_hash(hash: fn(&[RouterId]) -> u64) -> Self {
        Self {
            routers: Vec::new(),
            slots: Vec::new(),
            table: Vec::new(),
            free_runs: Vec::new(),
            spare: 0,
            free: NONE,
            live: 0,
            hits: 0,
            hash,
        }
    }

    /// Number of distinct live paths in the arena.
    pub fn distinct(&self) -> usize {
        self.live
    }

    /// Whether the arena holds no live path.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// How many [`Self::intern`] calls were answered by an existing entry
    /// instead of a fresh allocation.
    pub fn dedup_hits(&self) -> u64 {
        self.hits
    }

    /// Heap bytes held, by part: the slots (with the free-run heads), the
    /// table, and the routers.
    pub(crate) fn heap_parts(&self) -> [(&'static str, usize); 3] {
        [
            (
                "path slots",
                self.slots.capacity() * std::mem::size_of::<Slot>() + self.free_runs.capacity() * 4,
            ),
            ("path table", self.table.capacity() * 4),
            (
                "path routers",
                self.routers.capacity() * std::mem::size_of::<RouterId>(),
            ),
        ]
    }

    /// The run of slot `i`.
    fn run(&self, i: u32) -> &[RouterId] {
        let s = self.slots[i as usize];
        &self.routers[s.start as usize..(s.start + s.len) as usize]
    }

    /// The stored half of `routers`' content hash.
    fn hash_of(&self, routers: &[RouterId]) -> u32 {
        ((self.hash)(routers) >> 32) as u32
    }

    /// The table position a path of stored hash `hash` starts probing at.
    fn home(&self, hash: u32) -> usize {
        ((u64::from(hash) << 32) >> (64 - self.table.len().trailing_zeros())) as usize
    }

    /// The live slot holding `routers` (of stored hash `hash`), if any,
    /// else the empty table position where it would go. The table must
    /// not be empty.
    fn find(&self, routers: &[RouterId], hash: u32) -> Result<u32, usize> {
        let mask = self.table.len() - 1;
        let mut i = self.home(hash);
        loop {
            match self.table[i] {
                NONE => return Err(i),
                at if self.slots[at as usize].hash == hash && self.run(at) == routers => {
                    return Ok(at)
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The first empty table position from `hash`'s home.
    fn vacancy(&self, hash: u32) -> usize {
        let mask = self.table.len() - 1;
        let mut i = self.home(hash);
        while self.table[i] != NONE {
            i = (i + 1) & mask;
        }
        i
    }

    /// Doubles the table (from 8 when empty) and re-files every live slot.
    fn grow_table(&mut self) {
        let cap = (self.table.len() * 2).max(8);
        let old = std::mem::replace(&mut self.table, vec![NONE; cap]);
        for at in old.into_iter().filter(|&at| at != NONE) {
            let pos = self.vacancy(self.slots[at as usize].hash);
            self.table[pos] = at;
        }
    }

    /// Interns a path, returning a handle. Identical paths (same router
    /// sequence) share a slot; the slot's reference count is bumped.
    pub fn intern(&mut self, path: PathView<'_>) -> PathRef {
        let routers = path.routers();
        // Grown before the lookup, so one probe serves a hit or a miss.
        if (self.live + 1) * 4 > self.table.len() * 3 {
            self.grow_table();
        }
        let hash = self.hash_of(routers);
        let pos = match self.find(routers, hash) {
            Ok(at) => {
                self.slots[at as usize].refs += 1;
                self.hits += 1;
                return PathRef(at);
            }
            Err(pos) => pos,
        };
        let len = routers.len();
        if self.free_runs.len() <= len {
            self.free_runs.resize(len + 1, NONE);
        }
        let start = match self.free_runs[len] {
            NONE => {
                if self.spare > self.routers.len() - self.spare {
                    self.compact(len);
                }
                self.routers.extend_from_slice(routers);
                self.routers.len() - len
            }
            start => {
                let run = start as usize..start as usize + len;
                self.free_runs[len] = self.routers[start as usize].0;
                self.routers[run].copy_from_slice(routers);
                self.spare -= len;
                start as usize
            }
        };
        let slot = Slot {
            start: u32::try_from(start).expect("a store holds under 2^32 routers"),
            len: len as u32,
            refs: 1,
            hash,
        };
        let at = match self.free {
            NONE => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
            at => {
                self.free = self.slots[at as usize].start;
                self.slots[at as usize] = slot;
                at
            }
        };
        self.table[pos] = at;
        self.live += 1;
        PathRef(at)
    }

    /// Lays the live runs out back to back in slot order, as a snapshot
    /// restores them, with room for a run of `len` more, and forgets the
    /// freed runs. Slots move their `start`; the table holds slot indices
    /// and stored hashes, so it stays as it is.
    fn compact(&mut self, len: usize) {
        let mut routers = Vec::with_capacity(self.routers.len() - self.spare + len);
        let mut longest = len;
        for slot in self.slots.iter_mut().filter(|s| s.refs > 0) {
            let run = slot.start as usize..(slot.start + slot.len) as usize;
            slot.start = routers.len() as u32;
            routers.extend_from_slice(&self.routers[run]);
            longest = longest.max(slot.len as usize);
        }
        self.routers = routers;
        self.free_runs = vec![NONE; longest + 1];
        self.spare = 0;
    }

    /// Resolves a handle.
    ///
    /// # Panics
    /// On a handle whose entry was fully released (a dangling `PathRef`) —
    /// that is a directory bookkeeping bug, not a user error.
    pub fn get(&self, r: PathRef) -> PathView<'_> {
        assert!(self.is_live(r), "dangling PathRef({})", r.0);
        PathView::new(self.run(r.0))
    }

    /// Drops one reference to the entry; frees the slot and its run when
    /// the last reference goes.
    pub fn release(&mut self, r: PathRef) {
        let slot = &mut self.slots[r.0 as usize];
        match slot.refs {
            0 => panic!("releasing dangling PathRef({})", r.0),
            1 => {}
            _ => {
                slot.refs -= 1;
                return;
            }
        }
        let pos = self.position_of(r.0);
        self.table_remove(pos);
        let Slot { start, len, .. } = self.slots[r.0 as usize];
        self.routers[start as usize] = RouterId(self.free_runs[len as usize]);
        self.free_runs[len as usize] = start;
        self.spare += len as usize;
        self.slots[r.0 as usize] = Slot {
            start: self.free,
            len: 0,
            refs: 0,
            hash: 0,
        };
        self.free = r.0;
        self.live -= 1;
    }

    /// The table position holding live slot `at`.
    fn position_of(&self, at: u32) -> usize {
        let mask = self.table.len() - 1;
        let mut i = self.home(self.slots[at as usize].hash);
        while self.table[i] != at {
            i = (i + 1) & mask;
        }
        i
    }

    /// Empties table position `pos` by backward-shift deletion (no
    /// deletion markers, so probe chains never rot under churn).
    fn table_remove(&mut self, pos: usize) {
        let mask = self.table.len() - 1;
        let mut hole = pos;
        let mut j = pos;
        loop {
            j = (j + 1) & mask;
            let at = self.table[j];
            if at == NONE {
                break;
            }
            let home = self.home(self.slots[at as usize].hash);
            // `j`'s entry may fill the hole iff its home does not lie
            // cyclically in (hole, j].
            let between = if hole <= j {
                hole < home && home <= j
            } else {
                home > hole || home <= j
            };
            if !between {
                self.table[hole] = at;
                hole = j;
            }
        }
        self.table[hole] = NONE;
    }

    /// Whether `r` currently points at an occupied slot (snapshot decoding
    /// validates minted refs through this before any [`Self::get`]).
    pub(crate) fn is_live(&self, r: PathRef) -> bool {
        self.slots.get(r.0 as usize).is_some_and(|s| s.refs > 0)
    }

    /// Sum of reference counts over occupied slots. The snapshot decoder
    /// cross-checks this against the number of live leases (each live
    /// lease holds exactly one reference).
    pub(crate) fn total_refs(&self) -> u64 {
        self.slots.iter().map(|s| u64::from(s.refs)).sum()
    }

    /// Streams the arena into `out`: slots (tag + refcount + path), the
    /// free list in the order its slots were freed, so the last one
    /// written is reused first (slot-reuse order is part of future
    /// behaviour), and the dedup-hit counter. The table and the runs'
    /// placement are derivable and not persisted.
    pub(crate) fn persist_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.slots.len() as u64);
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.refs == 0 {
                put_u8(out, 0);
            } else {
                put_u8(out, 1);
                put_u32(out, slot.refs);
                put_path(out, PathView::new(self.run(i as u32)));
            }
        }
        let mut free = Vec::new();
        let mut at = self.free;
        while at != NONE {
            free.push(at);
            at = self.slots[at as usize].start;
        }
        put_u64(out, free.len() as u64);
        for &f in free.iter().rev() {
            put_u32(out, f);
        }
        put_u64(out, self.hits);
    }

    /// Rebuilds a store written by [`Self::persist_encode`], laying the
    /// runs out back to back, re-deriving the table and live count and
    /// validating the free list (every entry in bounds and vacant, no
    /// duplicates) and the paths (no path stored twice). Fails closed.
    pub(crate) fn persist_decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Self::persist_decode_with(r, content_hash)
    }

    /// [`Self::persist_decode`] into a store hashing with `hash`.
    fn persist_decode_with(
        r: &mut Reader<'_>,
        hash: fn(&[RouterId]) -> u64,
    ) -> Result<Self, PersistError> {
        let n_slots = r.len_prefix(1)?;
        let mut store = Self::with_hash(hash);
        store.slots.reserve_exact(n_slots);
        for i in 0..n_slots {
            let slot = match r.u8()? {
                0 => Slot {
                    start: NONE,
                    len: 0,
                    refs: 0,
                    hash: 0,
                },
                1 => {
                    let refs = r.u32()?;
                    if refs == 0 {
                        return Err(PersistError::Corrupt(format!(
                            "path slot {i} occupied with zero refs"
                        )));
                    }
                    let path = r.path()?;
                    let routers = path.routers();
                    if (store.live + 1) * 4 > store.table.len() * 3 {
                        store.grow_table();
                    }
                    let hash = store.hash_of(routers);
                    let Err(pos) = store.find(routers, hash) else {
                        return Err(PersistError::Corrupt(format!(
                            "path slot {i} repeats a stored path"
                        )));
                    };
                    store.table[pos] = i as u32;
                    store.live += 1;
                    if store.free_runs.len() <= routers.len() {
                        store.free_runs.resize(routers.len() + 1, NONE);
                    }
                    store.routers.extend_from_slice(routers);
                    Slot {
                        start: (store.routers.len() - routers.len()) as u32,
                        len: routers.len() as u32,
                        refs,
                        hash,
                    }
                }
                t => {
                    return Err(PersistError::Corrupt(format!(
                        "path slot {i} has unknown tag {t}"
                    )))
                }
            };
            store.slots.push(slot);
        }
        let n_free = r.len_prefix(4)?;
        let mut seen = vec![false; n_slots];
        for _ in 0..n_free {
            let f = r.u32()?;
            let idx = f as usize;
            if idx >= n_slots || store.slots[idx].refs != 0 || seen[idx] {
                return Err(PersistError::Corrupt(format!(
                    "path free-list entry {f} is out of bounds, live, or duplicated"
                )));
            }
            seen[idx] = true;
            store.slots[idx].start = store.free;
            store.free = f;
        }
        store.hits = r.u64()?;
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PeerPath;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    fn roundtrip(store: &PathStore) -> PathStore {
        let mut bytes = Vec::new();
        store.persist_encode(&mut bytes);
        let mut reader = Reader::new(&bytes);
        let restored = PathStore::persist_decode_with(&mut reader, store.hash).unwrap();
        assert_eq!(reader.remaining(), 0);
        restored
    }

    #[test]
    fn interns_and_resolves() {
        let mut store = PathStore::new();
        let a = store.intern(path(&[1, 2, 3]).view());
        assert_eq!(store.get(a).routers().len(), 3);
        assert_eq!(store.distinct(), 1);
        assert_eq!(store.dedup_hits(), 0);
    }

    #[test]
    fn identical_paths_share_a_slot() {
        let mut store = PathStore::new();
        let a = store.intern(path(&[1, 2, 3]).view());
        let b = store.intern(path(&[1, 2, 3]).view());
        let c = store.intern(path(&[4, 2, 3]).view());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(store.distinct(), 2);
        assert_eq!(store.dedup_hits(), 1);
    }

    #[test]
    fn release_refcounts_and_reuses_slots() {
        let mut store = PathStore::new();
        let a = store.intern(path(&[1, 2, 3]).view());
        let b = store.intern(path(&[1, 2, 3]).view());
        store.release(a);
        // One reference remains: still resolvable.
        assert_eq!(store.get(b).attach(), RouterId(1));
        store.release(b);
        assert!(store.is_empty());
        // The freed slot is recycled for the next intern. No freed run
        // fits a 2-router path, and the freed run outnumbers the live
        // routers, so the store compacts before appending.
        let c = store.intern(path(&[9, 8]).view());
        assert_eq!(c.slot(), a.slot());
        assert_eq!(store.routers.len(), 2);
        let d = store.intern(path(&[7, 6, 5]).view());
        assert_eq!(store.routers.len(), 5);
        // A path of a freed run's length takes that run.
        store.release(d);
        let e = store.intern(path(&[4, 5, 6]).view());
        assert_eq!(store.routers.len(), 5);
        assert_eq!(store.get(e), path(&[4, 5, 6]).view());
        assert_eq!(store.get(c), path(&[9, 8]).view());
        assert_eq!(store.distinct(), 2);
    }

    /// Distinct paths forced under one hash, so they share a home and
    /// one probe chain: releasing the chain's head, middle and tail in
    /// each order leaves the others resolvable and deduplicating, hands
    /// the freed slot to the next intern, and a snapshot rebuilds a table
    /// that answers the same.
    #[test]
    fn a_collision_chain_survives_every_release_order() {
        // Interned in this order, the chain runs 0 → 1 → 2: head, middle,
        // tail.
        let paths = [path(&[1, 2, 3]), path(&[4, 2, 3]), path(&[5, 6])];
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let mut store = PathStore::with_hash(|_| 7);
            let refs: Vec<PathRef> = paths.iter().map(|p| store.intern(p.view())).collect();
            let mut live = [true; 3];
            for gone in order {
                store.release(refs[gone]);
                live[gone] = false;
                let survivors: Vec<usize> = (0..3).filter(|&i| live[i]).collect();
                assert_eq!(store.distinct(), survivors.len(), "{order:?}");
                assert!(!store.is_live(refs[gone]));

                let mut restored = roundtrip(&store);
                for s in [&mut store, &mut restored] {
                    // The freed slot goes to the next path, which joins
                    // the chain.
                    let fresh = s.intern(path(&[9, 8]).view());
                    assert_eq!(fresh.slot(), refs[gone].slot(), "{order:?}");
                    for &i in &survivors {
                        assert_eq!(s.get(refs[i]), paths[i].view());
                        let again = s.intern(paths[i].view());
                        assert_eq!(again, refs[i], "{order:?}: path {i} deduplicates");
                        s.release(again);
                    }
                    s.release(fresh);
                }
                assert_eq!(restored.distinct(), store.distinct());
                assert_eq!(restored.total_refs(), store.total_refs());
            }
            assert!(store.is_empty());
            assert!(store.table.iter().all(|&at| at == NONE));
        }
    }

    /// Peers re-registering on paths of ever new lengths: no freed run
    /// fits a later path, so the store compacts them away instead of
    /// keeping one per length, and the router count stays within twice
    /// the live routers (equal to them with one peer).
    #[test]
    fn paths_of_ever_new_lengths_do_not_pile_up() {
        for peers in [1, 8] {
            let mut store = PathStore::new();
            let mut held: Vec<PathRef> = Vec::new();
            for len in 1..=2000u32 {
                if held.len() == peers {
                    store.release(held.remove(0));
                }
                let ids: Vec<u32> = (0..len).collect();
                held.push(store.intern(path(&ids).view()));
                let live: usize = held.iter().map(|&r| store.get(r).routers().len()).sum();
                assert!(
                    store.routers.len() <= 2 * live,
                    "{peers} peers, length {len}: {} routers for {live} live",
                    store.routers.len()
                );
                if peers == 1 {
                    assert_eq!(store.routers.len(), live);
                }
                assert_eq!(store.spare, store.routers.len() - live);
                assert!(store.free_runs.len() <= len as usize + 1);
            }
            // Every live path survives the moves.
            for (&r, len) in held.iter().zip(2001 - held.len() as u32..) {
                let ids: Vec<u32> = (0..len).collect();
                assert_eq!(store.get(r), path(&ids).view());
            }
        }
    }

    #[test]
    #[should_panic(expected = "dangling PathRef")]
    fn dangling_ref_panics() {
        let mut store = PathStore::new();
        let a = store.intern(path(&[1, 2]).view());
        store.release(a);
        let _ = store.get(a);
    }

    #[test]
    fn persist_roundtrip_preserves_slots_free_order_and_hits() {
        let mut store = PathStore::new();
        let a = store.intern(path(&[1, 2, 3]).view());
        let _b = store.intern(path(&[1, 2, 3]).view());
        let c = store.intern(path(&[4, 2, 3]).view());
        let d = store.intern(path(&[9, 8]).view());
        store.release(c);
        store.release(d);

        let mut restored = roundtrip(&store);
        assert_eq!(restored.distinct(), store.distinct());
        assert_eq!(restored.dedup_hits(), store.dedup_hits());
        assert_eq!(restored.total_refs(), store.total_refs());
        assert_eq!(restored.get(a), store.get(a));
        assert!(restored.is_live(a));
        assert!(!restored.is_live(c));
        // Future behaviour: the next intern reuses the same freed slot the
        // live store would.
        assert_eq!(
            restored.intern(path(&[7, 6, 0]).view()).slot(),
            store.intern(path(&[7, 6, 0]).view()).slot()
        );
    }

    #[test]
    fn persist_decode_rejects_live_free_list_entry() {
        let mut store = PathStore::new();
        let _ = store.intern(path(&[1, 2]).view());
        let mut bytes = Vec::new();
        store.persist_encode(&mut bytes);
        // The free list is empty; forge one pointing at the live slot 0.
        // Layout: ... | u64 free_len | entries | u64 hits.
        let hits_at = bytes.len() - 8;
        let free_len_at = hits_at - 8;
        let mut forged = bytes.clone();
        forged.splice(free_len_at..hits_at, 1u64.to_le_bytes());
        forged.splice(hits_at..hits_at, 0u32.to_le_bytes());
        assert!(matches!(
            PathStore::persist_decode(&mut Reader::new(&forged)),
            Err(PersistError::Corrupt(_))
        ));
        // Slot 0 written twice: u64 n_slots | tag | refs | path.
        let slot = bytes[8..free_len_at].to_vec();
        let mut twice = 2u64.to_le_bytes().to_vec();
        twice.extend_from_slice(&slot);
        twice.extend_from_slice(&slot);
        twice.extend_from_slice(&bytes[free_len_at..]);
        assert!(matches!(
            PathStore::persist_decode(&mut Reader::new(&twice)),
            Err(PersistError::Corrupt(_))
        ));
    }

    /// A hash with four values, so most distinct paths collide.
    fn coarse(routers: &[RouterId]) -> u64 {
        u64::from(routers[0].0 % 4).rotate_right(2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The store against a `HashMap<Vec<RouterId>, refs>` model, over
        /// intern/release sequences of 1- to 16-router paths drawn from a
        /// small pool (so duplicates are common) under a hash with four
        /// values.
        #[test]
        fn flat_arena_matches_a_refcount_model(
            pool in prop::collection::vec((1u32..17, 0u32..6), 2..24),
            ops in prop::collection::vec((any::<bool>(), any::<u8>()), 1..160),
        ) {
            // Runs of consecutive ids: a pool entry is a duplicate of
            // another when both its length and its start match.
            let pool: Vec<PeerPath> = pool
                .into_iter()
                .map(|(len, start)| PeerPath::new((start..start + len).map(RouterId).collect()).unwrap())
                .collect();
            let mut store = PathStore::with_hash(coarse);
            let mut model: HashMap<Vec<RouterId>, u32> = HashMap::new();
            let mut held: Vec<(PathRef, usize)> = Vec::new();
            // Peak live paths per length, and peak live routers.
            let mut peak = [0usize; 17];
            let mut peak_routers = 0;
            for (join, pick) in ops {
                if join || held.is_empty() {
                    let i = pick as usize % pool.len();
                    let routers = pool[i].routers();
                    let r = store.intern(pool[i].view());
                    *model.entry(routers.to_vec()).or_default() += 1;
                    // Duplicates share a slot.
                    for &(other, j) in &held {
                        prop_assert_eq!(other == r, pool[j] == pool[i]);
                    }
                    held.push((r, i));
                } else {
                    let (r, i) = held.swap_remove(pick as usize % held.len());
                    store.release(r);
                    let refs = model.get_mut(pool[i].routers()).unwrap();
                    *refs -= 1;
                    if *refs == 0 {
                        model.remove(pool[i].routers());
                    }
                }
                let mut live_by_len = [0usize; 17];
                for routers in model.keys() {
                    live_by_len[routers.len()] += 1;
                }
                for (p, n) in peak.iter_mut().zip(live_by_len) {
                    *p = (*p).max(n);
                }
                let live_routers: usize = model.keys().map(Vec::len).sum();
                peak_routers = peak_routers.max(live_routers);
                // Handles resolve to their paths.
                for &(r, i) in &held {
                    prop_assert_eq!(store.get(r), pool[i].view());
                }
                prop_assert_eq!(store.distinct(), model.len());
                prop_assert_eq!(store.total_refs(), model.values().map(|&n| u64::from(n)).sum::<u64>());
                // Runs are reused by length: the arena never outgrows the
                // peak live population of each length.
                let bound: usize = peak.iter().enumerate().map(|(len, &n)| len * n).sum();
                prop_assert!(store.routers.len() <= bound, "{} > {}", store.routers.len(), bound);
                // And compaction keeps it within twice the peak live
                // routers, whatever the mix of lengths.
                prop_assert!(store.routers.len() <= 2 * peak_routers);
                prop_assert_eq!(store.spare, store.routers.len() - live_routers);
                // A snapshot round-trips and re-interns to the same slots.
                let mut restored = roundtrip(&store);
                prop_assert_eq!(restored.distinct(), store.distinct());
                prop_assert_eq!(restored.dedup_hits(), store.dedup_hits());
                for &(r, i) in &held {
                    prop_assert_eq!(restored.get(r), pool[i].view());
                    prop_assert_eq!(restored.intern(pool[i].view()), r);
                }
            }
        }
    }
}
