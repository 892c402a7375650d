//! Arena-backed interning of peer paths.
//!
//! Before the directory refactor the same [`PeerPath`] was cloned into
//! every structure that mentioned the peer (registry, router index, query
//! answers). The store keeps exactly one copy per *distinct* path and hands
//! out copyable [`PathRef`] handles; structures store the 4-byte handle and
//! resolve it on demand. Distinct peers tracing from the same access chain
//! (mobile peers re-joining, synthetic workloads, NAT'd households) share
//! one arena slot via reference counting.

use super::persist::wire::{put_path, put_u32, put_u64, put_u8, Reader};
use super::persist::PersistError;
use crate::ids::{IdHash, IdMap};
use crate::path::PeerPath;
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

#[derive(Debug)]
enum Slot {
    /// On the free chain; `next` is the slot freed before it, if any.
    Vacant { next: Option<u32> },
    /// A live path; `next` links the next slot whose path has the same
    /// content hash ([`NO_SLOT`] ends the chain).
    Occupied {
        path: PeerPath,
        refs: u32,
        next: u32,
    },
}

/// The end of a hash chain.
const NO_SLOT: u32 = u32::MAX;

/// An arena of interned [`PeerPath`]s with per-entry reference counts and a
/// free list, so churn (register/deregister cycles) does not grow the
/// arena without bound. The free list is a chain threaded through the
/// vacant slots, last freed first reused, so freeing never allocates.
#[derive(Debug, Default)]
pub struct PathStore {
    slots: Vec<Slot>,
    /// Content hash → the first slot of the chain of paths with that
    /// hash (collisions resolved by comparison along the chain).
    by_hash: IdMap<u64, u32>,
    /// The last slot freed, the head of the free chain.
    free: Option<u32>,
    live: usize,
    hits: u64,
}

/// A path's content hash, under the process-keyed [`IdHash`]: router ids
/// come from clients' traces, so a fixed hash would let them aim paths at
/// one chain. No hash is persisted.
fn content_hash(path: &PeerPath) -> u64 {
    IdHash::default().hash_one(path.routers())
}

impl PathStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
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

    /// Pre-sizes the arena for `additional` interns beyond the current
    /// live count (batch absorption at churn scale would otherwise grow
    /// the slot vector doubling-step by doubling-step mid-batch). Vacant
    /// slots count towards the headroom.
    pub fn reserve(&mut self, additional: usize) {
        let needed = additional.saturating_sub(self.slots.len() - self.live);
        self.slots.reserve(needed);
    }

    /// Interns a path, returning a handle. Identical paths (same router
    /// sequence) share a slot; the slot's reference count is bumped.
    pub fn intern(&mut self, path: PeerPath) -> PathRef {
        self.intern_hashed(content_hash(&path), path)
    }

    /// [`Self::intern`] with the content hash `h` given.
    fn intern_hashed(&mut self, h: u64, path: PeerPath) -> PathRef {
        let head = self.by_hash.get(&h).copied().unwrap_or(NO_SLOT);
        let mut at = head;
        while let Some(Slot::Occupied {
            path: stored,
            refs,
            next,
        }) = self.slots.get_mut(at as usize)
        {
            if *stored == path {
                *refs += 1;
                self.hits += 1;
                return PathRef(at);
            }
            at = *next;
        }
        let occupied = Slot::Occupied {
            path,
            refs: 1,
            next: head,
        };
        let slot = match self.free {
            Some(idx) => {
                let Slot::Vacant { next } = self.slots[idx as usize] else {
                    unreachable!("the free chain links vacant slots");
                };
                self.free = next;
                self.slots[idx as usize] = occupied;
                idx
            }
            None => {
                self.slots.push(occupied);
                (self.slots.len() - 1) as u32
            }
        };
        self.by_hash.insert(h, slot);
        self.live += 1;
        PathRef(slot)
    }

    /// Resolves a handle.
    ///
    /// # Panics
    /// On a handle whose entry was fully released (a dangling `PathRef`) —
    /// that is a directory bookkeeping bug, not a user error.
    pub fn get(&self, r: PathRef) -> &PeerPath {
        match &self.slots[r.0 as usize] {
            Slot::Occupied { path, .. } => path,
            Slot::Vacant { .. } => panic!("dangling PathRef({})", r.0),
        }
    }

    /// Drops one reference to the entry; frees the slot when the last
    /// reference goes.
    pub fn release(&mut self, r: PathRef) {
        self.release_hashed(r, content_hash)
    }

    /// [`Self::release`], with `hash` giving the freed path's content
    /// hash (called only when the last reference goes).
    fn release_hashed(&mut self, r: PathRef, hash: impl FnOnce(&PeerPath) -> u64) {
        let (h, after) = match &mut self.slots[r.0 as usize] {
            Slot::Occupied { refs, .. } if *refs > 1 => {
                *refs -= 1;
                return;
            }
            Slot::Occupied { path, next, .. } => (hash(path), *next),
            Slot::Vacant { .. } => panic!("releasing dangling PathRef({})", r.0),
        };
        self.slots[r.0 as usize] = Slot::Vacant { next: self.free };
        // Unlink the slot: its predecessor on the chain, or the chain's
        // entry in `by_hash`, takes over its `next`.
        let head = self.by_hash.get_mut(&h).expect("a live path is chained");
        if *head == r.0 {
            if after == NO_SLOT {
                self.by_hash.remove(&h);
            } else {
                *head = after;
            }
        } else {
            let mut at = *head;
            loop {
                let Slot::Occupied { next, .. } = &mut self.slots[at as usize] else {
                    unreachable!("a chain links live slots");
                };
                if *next == r.0 {
                    *next = after;
                    break;
                }
                at = *next;
            }
        }
        self.free = Some(r.0);
        self.live -= 1;
    }

    /// Whether `r` currently points at an occupied slot (snapshot decoding
    /// validates minted refs through this before any [`Self::get`]).
    pub(crate) fn is_live(&self, r: PathRef) -> bool {
        matches!(self.slots.get(r.0 as usize), Some(Slot::Occupied { .. }))
    }

    /// Sum of reference counts over occupied slots. The shard decoder
    /// cross-checks this against the number of live leases (each live
    /// lease holds exactly one reference).
    pub(crate) fn total_refs(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| match s {
                Slot::Occupied { refs, .. } => u64::from(*refs),
                Slot::Vacant { .. } => 0,
            })
            .sum()
    }

    /// Streams the arena into `out`: slots (tag + refcount + path), the
    /// free list in the order its slots were freed, so the last one
    /// written is reused first (slot-reuse order is part of future
    /// behaviour), and the dedup-hit counter. The hash chains are
    /// derivable and not persisted.
    pub(crate) fn persist_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.slots.len() as u64);
        for slot in &self.slots {
            match slot {
                Slot::Vacant { .. } => put_u8(out, 0),
                Slot::Occupied { path, refs, .. } => {
                    put_u8(out, 1);
                    put_u32(out, *refs);
                    put_path(out, path);
                }
            }
        }
        let mut free = Vec::new();
        let mut at = self.free;
        while let Some(idx) = at {
            free.push(idx);
            let Slot::Vacant { next } = self.slots[idx as usize] else {
                unreachable!("the free chain links vacant slots");
            };
            at = next;
        }
        put_u64(out, free.len() as u64);
        for &f in free.iter().rev() {
            put_u32(out, f);
        }
        put_u64(out, self.hits);
    }

    /// Rebuilds a store written by [`Self::persist_encode`], re-deriving
    /// the hash chains and live count and validating the free list (every
    /// entry in bounds and vacant, no duplicates). Fails closed.
    pub(crate) fn persist_decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Self::persist_decode_hashed(r, content_hash)
    }

    /// [`Self::persist_decode`], chaining each path under `hash(path)`.
    fn persist_decode_hashed(
        r: &mut Reader<'_>,
        hash: impl Fn(&PeerPath) -> u64,
    ) -> Result<Self, PersistError> {
        let n_slots = r.len_prefix(1)?;
        let mut slots = Vec::with_capacity(n_slots);
        let mut by_hash: IdMap<u64, u32> = IdMap::default();
        let mut live = 0usize;
        for i in 0..n_slots {
            match r.u8()? {
                0 => slots.push(Slot::Vacant { next: None }),
                1 => {
                    let refs = r.u32()?;
                    if refs == 0 {
                        return Err(PersistError::Corrupt(format!(
                            "path slot {i} occupied with zero refs"
                        )));
                    }
                    let path = r.path()?;
                    let next = by_hash.insert(hash(&path), i as u32).unwrap_or(NO_SLOT);
                    slots.push(Slot::Occupied { path, refs, next });
                    live += 1;
                }
                t => {
                    return Err(PersistError::Corrupt(format!(
                        "path slot {i} has unknown tag {t}"
                    )))
                }
            }
        }
        let n_free = r.len_prefix(4)?;
        let mut free = None;
        let mut seen = vec![false; n_slots];
        for _ in 0..n_free {
            let f = r.u32()?;
            let idx = f as usize;
            if idx >= n_slots || !matches!(slots[idx], Slot::Vacant { .. }) || seen[idx] {
                return Err(PersistError::Corrupt(format!(
                    "path free-list entry {f} is out of bounds, live, or duplicated"
                )));
            }
            seen[idx] = true;
            slots[idx] = Slot::Vacant { next: free };
            free = Some(f);
        }
        let hits = r.u64()?;
        Ok(PathStore {
            slots,
            by_hash,
            free,
            live,
            hits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpeer_topology::RouterId;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    #[test]
    fn interns_and_resolves() {
        let mut store = PathStore::new();
        let a = store.intern(path(&[1, 2, 3]));
        assert_eq!(store.get(a).routers().len(), 3);
        assert_eq!(store.distinct(), 1);
        assert_eq!(store.dedup_hits(), 0);
    }

    #[test]
    fn identical_paths_share_a_slot() {
        let mut store = PathStore::new();
        let a = store.intern(path(&[1, 2, 3]));
        let b = store.intern(path(&[1, 2, 3]));
        let c = store.intern(path(&[4, 2, 3]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(store.distinct(), 2);
        assert_eq!(store.dedup_hits(), 1);
    }

    #[test]
    fn release_refcounts_and_reuses_slots() {
        let mut store = PathStore::new();
        let a = store.intern(path(&[1, 2, 3]));
        let b = store.intern(path(&[1, 2, 3]));
        store.release(a);
        // One reference remains: still resolvable.
        assert_eq!(store.get(b).attach(), RouterId(1));
        store.release(b);
        assert!(store.is_empty());
        // The freed slot is recycled for the next intern.
        let c = store.intern(path(&[9, 8]));
        assert_eq!(c.slot(), a.slot());
        assert_eq!(store.distinct(), 1);
    }

    /// Distinct paths forced under one hash: releasing the chain's head,
    /// middle and tail in each order leaves the others resolvable and
    /// deduplicating, hands the freed slot to the next intern, and a
    /// snapshot rebuilds a chain that answers the same.
    #[test]
    fn a_collision_chain_survives_every_release_order() {
        const H: u64 = 7;
        let same = |_: &PeerPath| H;
        // Interned in this order, the chain runs 2 → 1 → 0: head, middle,
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
            let mut store = PathStore::new();
            let refs: Vec<PathRef> = paths
                .iter()
                .map(|p| store.intern_hashed(H, p.clone()))
                .collect();
            let mut live = [true; 3];
            for gone in order {
                store.release_hashed(refs[gone], same);
                live[gone] = false;
                let survivors: Vec<usize> = (0..3).filter(|&i| live[i]).collect();
                assert_eq!(store.distinct(), survivors.len(), "{order:?}");
                assert!(!store.is_live(refs[gone]));

                let mut bytes = Vec::new();
                store.persist_encode(&mut bytes);
                let mut restored =
                    PathStore::persist_decode_hashed(&mut super::Reader::new(&bytes), same)
                        .unwrap();
                for s in [&mut store, &mut restored] {
                    // The freed slot goes to the next path, which joins
                    // the chain at its head.
                    let fresh = s.intern_hashed(H, path(&[9, 8]));
                    assert_eq!(fresh.slot(), refs[gone].slot(), "{order:?}");
                    for &i in &survivors {
                        assert_eq!(s.get(refs[i]), &paths[i]);
                        let again = s.intern_hashed(H, paths[i].clone());
                        assert_eq!(again, refs[i], "{order:?}: path {i} deduplicates");
                        s.release_hashed(again, same);
                    }
                    s.release_hashed(fresh, same);
                }
                assert_eq!(restored.distinct(), store.distinct());
                assert_eq!(restored.total_refs(), store.total_refs());
            }
            assert!(store.is_empty());
            assert!(store.by_hash.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "dangling PathRef")]
    fn dangling_ref_panics() {
        let mut store = PathStore::new();
        let a = store.intern(path(&[1, 2]));
        store.release(a);
        let _ = store.get(a);
    }

    #[test]
    fn persist_roundtrip_preserves_slots_free_order_and_hits() {
        let mut store = PathStore::new();
        let a = store.intern(path(&[1, 2, 3]));
        let _b = store.intern(path(&[1, 2, 3]));
        let c = store.intern(path(&[4, 2, 3]));
        let d = store.intern(path(&[9, 8]));
        store.release(c);
        store.release(d);

        let mut bytes = Vec::new();
        store.persist_encode(&mut bytes);
        let mut reader = super::Reader::new(&bytes);
        let mut restored = PathStore::persist_decode(&mut reader).unwrap();
        assert_eq!(reader.remaining(), 0);

        assert_eq!(restored.distinct(), store.distinct());
        assert_eq!(restored.dedup_hits(), store.dedup_hits());
        assert_eq!(restored.total_refs(), store.total_refs());
        assert_eq!(restored.get(a), store.get(a));
        assert!(restored.is_live(a));
        assert!(!restored.is_live(c));
        // Future behaviour: the next intern reuses the same freed slot the
        // live store would.
        assert_eq!(
            restored.intern(path(&[7, 6, 0])).slot(),
            store.intern(path(&[7, 6, 0])).slot()
        );
    }

    #[test]
    fn persist_decode_rejects_live_free_list_entry() {
        let mut store = PathStore::new();
        let _ = store.intern(path(&[1, 2]));
        let mut bytes = Vec::new();
        store.persist_encode(&mut bytes);
        // The free list is empty; forge one pointing at the live slot 0.
        // Layout: ... | u64 free_len | entries | u64 hits.
        let hits_at = bytes.len() - 8;
        let free_len_at = hits_at - 8;
        bytes.splice(free_len_at..hits_at, 1u64.to_le_bytes());
        bytes.splice(hits_at..hits_at, 0u32.to_le_bytes());
        let mut reader = super::Reader::new(&bytes);
        assert!(matches!(
            PathStore::persist_decode(&mut reader),
            Err(super::PersistError::Corrupt(_))
        ));
    }
}
