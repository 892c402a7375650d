//! Slab-backed soft-state lease table for million-peer churn.
//!
//! Before this refactor each per-landmark directory shard tracked its peers
//! in three per-peer `HashMap`s (path handle, last-seen epoch, membership).
//! At churn scale that layout loses twice: every lease costs three hashed
//! lookups and three separately-allocated table entries, and `expire_stale`
//! had to walk the *entire* last-seen map to find the handful of leases
//! that actually lapsed.
//!
//! The arena replaces all three maps with:
//!
//! * a **slab** of leases stored contiguously (`Vec`), addressed by dense
//!   slot index, with a free list so register/leave cycles reuse slots.
//!   A slot holds its epochs as `u32`s and the peer id as two `u32`
//!   halves: 36 bytes for the server's lease;
//! * a **generation counter** per slot, bumped on every removal — an
//!   expiry note taken before a departure never applies to the peer that
//!   now occupies the reused slot (the generation no longer matches);
//! * a single **open-addressed** peer-id → slot table (linear probing,
//!   backward-shift deletion, fibonacci hashing) — one flat `Vec<u32>`
//!   instead of three `HashMap`s, with keys read back through the slab so
//!   the table itself stores nothing but slot indices;
//! * **epoch buckets**: every lease open/renewal appends `(slot,
//!   generation)` to the bucket of its epoch, so an expiry sweep
//!   ([`LeaseArena::take_due`]) pops whole buckets below the cutoff and
//!   touches only noted entries — work proportional to the lease activity
//!   being retired, never a scan of the full table.
//!
//! Two extensions ride on the same slot/bucket machinery for the
//! federation subsystem ([`crate::federation`]):
//!
//! * **forwarding tombstones** — a slot can hold a *moved* marker instead
//!   of a live lease ([`LeaseArena::insert_tombstone`]): the peer handed
//!   its registration over to another region, and the tombstone records
//!   the destination so federation-aware expiry can distinguish "peer
//!   silent" from "peer moved". Tombstones occupy table entries (so
//!   lookups find them) but never count as live leases, and the ordinary
//!   epoch-bucket sweep retires them like any lapsed lease;
//! * **per-lease TTLs** — a slot may carry its own lease length
//!   ([`LeaseArena::set_ttl`], derived by the server's adaptive-lease EWMA),
//!   and the generalized sweep [`LeaseArena::take_due`] expires each lease
//!   at `last_seen + ttl` instead of one global cutoff. Not-yet-due leases
//!   found in a popped bucket are re-noted at `due - min_ttl`, so each
//!   lease still costs O(1) notes per open/renewal.
//!
//! The arena is generic over its payload `T` (the server stores each live
//! lease's landmark and [`super::PathRef`]); `crates/core/tests/lease_arena_properties.rs` pins
//! it op-for-op to a naive `HashMap` reference model.

use super::persist::wire::{put_u32, put_u64, put_u8, Reader};
use super::persist::PersistError;
use crate::ids::PeerId;
use std::collections::VecDeque;

/// What a slot holds: a live lease, a forwarding tombstone left behind
/// by a cross-region handover (the `u32` is the destination region), or
/// nothing. A vacant slot is a link of the free chain: it names the slot
/// freed before it, if any, so freeing a slot never allocates.
///
/// The peer id is held as two `u32` halves, high first, as
/// [`crate::router_index`] packs its entries: at 4-byte alignment it
/// leaves no padding beside the payload.
#[derive(Debug)]
enum Occupant<T> {
    Live([u32; 2], T),
    Moved([u32; 2], u32),
    Vacant(Option<u32>),
}

/// `peer` as the two halves an [`Occupant`] holds.
fn pack(peer: PeerId) -> [u32; 2] {
    [(peer.0 >> 32) as u32, peer.0 as u32]
}

/// The peer id [`pack`] split.
fn unpack([high, low]: [u32; 2]) -> PeerId {
    PeerId(u64::from(high) << 32 | u64::from(low))
}

impl<T> Occupant<T> {
    /// The peer of a lease or a tombstone.
    fn peer(&self) -> Option<PeerId> {
        match self {
            Occupant::Live(p, _) | Occupant::Moved(p, _) => Some(unpack(*p)),
            Occupant::Vacant(_) => None,
        }
    }

    /// Leaves the slot vacant (off the chain until
    /// [`LeaseArena::release_slot`] links it), returning what it held.
    fn take(&mut self) -> Occupant<T> {
        std::mem::replace(self, Occupant::Vacant(None))
    }
}

/// Sentinel TTL: "use the sweep's default lease length".
const TTL_DEFAULT: u32 = u32::MAX;

/// One slab entry. `occupant` is `Vacant` while the slot sits on the free
/// list; the generation survives vacancy (it is bumped on removal, so
/// bucket notes taken before the removal are skipped). `opened` is the epoch the
/// current occupancy began (session-length bookkeeping for adaptive
/// leases); `ttl` is the per-lease length, [`TTL_DEFAULT`] = whatever the
/// sweep passes. The three epochs are held as `u32`s
/// ([`LeaseArena::holds_epoch`]).
#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    last_seen: u32,
    opened: u32,
    ttl: u32,
    /// The newest bucket epoch holding a note for this occupancy. A sweep
    /// examining an **older** note skips re-noting (the newer note already
    /// keeps the lease findable) — without this, renewals would leave
    /// chains of stale notes that each sweep re-examines and re-notes,
    /// breaking the linear-in-activity cost bound. A note past the window
    /// is held at its last epoch, which only costs one extra re-note.
    noted: u32,
    occupant: Occupant<T>,
}

/// The bytes of one slab slot holding a `T`: a server const-asserts its
/// lease slot's size with it.
pub(crate) const fn slot_size<T>() -> usize {
    std::mem::size_of::<Slot<T>>()
}

/// Cumulative sweep-cost counters, exposed so tests (and the churn soak)
/// can assert that expiry is linear in the noted lease activity rather
/// than in the table size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Bucket entries examined across all [`LeaseArena::take_due`]
    /// calls (each entry is one noted open/renewal).
    pub entries_swept: u64,
    /// Epoch buckets retired across all sweeps.
    pub buckets_swept: u64,
}

/// One lease closed by a [`LeaseArena::take_due`] sweep, with the session
/// bookkeeping adaptive leases feed their EWMA from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpiredLease<T> {
    /// The peer whose lease lapsed.
    pub peer: PeerId,
    /// The lease payload.
    pub value: T,
    /// Epoch the lease was opened.
    pub opened: u64,
    /// Epoch of the last open/renewal.
    pub last_seen: u64,
}

/// Everything one [`LeaseArena::take_due`] sweep retired.
#[derive(Debug)]
pub struct SweepOutcome<T> {
    /// Live leases past their deadline, ascending by peer id.
    pub expired: Vec<ExpiredLease<T>>,
    /// Forwarding tombstones whose retention lapsed, ascending by peer id
    /// (`(peer, destination_region)` — the peer *moved*, it did not fail).
    pub moved: Vec<(PeerId, u32)>,
}

impl<T> Default for SweepOutcome<T> {
    fn default() -> Self {
        Self {
            expired: Vec::new(),
            moved: Vec::new(),
        }
    }
}

const EMPTY: u32 = u32::MAX;

/// The peer table's first capacity. It doubles only when an insert would
/// fill 3/4 of it ([`LeaseArena::table_insert`]).
const TABLE_MIN: usize = 8;

/// The slab-backed lease table: peer membership, payload and last-seen
/// epoch in one contiguous arena, with epoch-bucketed expiry.
///
/// Epochs are expected to be non-decreasing across calls (the directory's
/// heartbeat epoch is monotonic); the arena stays correct if they are not —
/// bucket indices are clamped and staleness is always re-checked against
/// the lease's actual `last_seen` — but sweep cost guarantees assume
/// monotonic use.
#[derive(Debug)]
pub struct LeaseArena<T> {
    slots: Vec<Slot<T>>,
    /// The last slot freed, the head of the free chain.
    free: Option<u32>,
    /// Open-addressed peer-id → slot index table (capacity a power of two;
    /// keys are read through the slab, the table stores indices only).
    table: Vec<u32>,
    /// `64 - log2(table.len())`: fibonacci-hash shift.
    shift: u32,
    /// Live leases (tombstones counted separately).
    len: usize,
    /// Forwarding tombstones currently held.
    tombstones: usize,
    /// `(epoch, notes)` for every epoch that holds `(slot, generation)`
    /// notes, ascending, none below `base_epoch`: a note allocates for the
    /// epochs that hold notes, never for a gap before one.
    buckets: VecDeque<(u64, Vec<(u32, u32)>)>,
    /// The sweeps' position: every epoch below it was swept, and a note
    /// for one lands in this epoch's bucket.
    base_epoch: u64,
    sweep: SweepStats,
}

impl<T> Default for LeaseArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LeaseArena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: None,
            table: vec![EMPTY; TABLE_MIN],
            shift: 64 - TABLE_MIN.trailing_zeros(),
            len: 0,
            tombstones: 0,
            buckets: VecDeque::new(),
            base_epoch: 0,
            sweep: SweepStats::default(),
        }
    }

    /// Live leases (forwarding tombstones are not counted).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no lease is open (tombstones may still be held).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Forwarding tombstones currently held (not yet swept).
    pub fn tombstone_count(&self) -> usize {
        self.tombstones
    }

    /// Cumulative expiry-sweep cost counters.
    pub fn sweep_stats(&self) -> SweepStats {
        self.sweep
    }

    /// Heap bytes held, by part: the slab, the peer table, and the epoch
    /// buckets (the ring and the notes).
    pub(crate) fn heap_parts(&self) -> [(&'static str, usize); 3] {
        let ring = self.buckets.capacity() * std::mem::size_of::<(u64, Vec<(u32, u32)>)>();
        let notes: usize = self.buckets.iter().map(|(_, b)| b.capacity() * 8).sum();
        [
            (
                "lease slab",
                self.slots.capacity() * std::mem::size_of::<Slot<T>>(),
            ),
            ("lease peer table", self.table.capacity() * 4),
            ("lease epoch buckets", ring + notes),
        ]
    }

    fn home(&self, peer: PeerId) -> usize {
        // Fibonacci hashing: multiply by 2^64/φ and keep the high bits.
        (peer.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Table position holding `peer`'s slot index (live *or* tombstone),
    /// if present.
    fn probe(&self, peer: PeerId) -> Option<usize> {
        let mask = self.table.len() - 1;
        let mut i = self.home(peer);
        loop {
            let idx = self.table[i];
            if idx == EMPTY {
                return None;
            }
            if self.slots[idx as usize].occupant.peer() == Some(peer) {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow_table(&mut self) {
        let new_cap = self.table.len() * 2;
        let old = std::mem::replace(&mut self.table, vec![EMPTY; new_cap]);
        self.shift = 64 - new_cap.trailing_zeros();
        let mask = new_cap - 1;
        for idx in old {
            if idx == EMPTY {
                continue;
            }
            let peer = self.slots[idx as usize]
                .occupant
                .peer()
                .expect("table entries reference occupied slots");
            let mut i = self.home(peer);
            while self.table[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.table[i] = idx;
        }
    }

    fn table_insert(&mut self, peer: PeerId, slot: u32) {
        if (self.len + self.tombstones + 1) * 4 >= self.table.len() * 3 {
            self.grow_table();
        }
        let mask = self.table.len() - 1;
        let mut i = self.home(peer);
        while self.table[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.table[i] = slot;
    }

    /// Removes `peer`'s table entry by backward-shift deletion (no
    /// tombstone markers in the *table*, so probe chains never rot under
    /// churn). Must be called while the slab still holds the peer (keys
    /// are read through it).
    fn table_remove(&mut self, pos: usize) {
        let mask = self.table.len() - 1;
        let mut hole = pos;
        let mut j = pos;
        loop {
            j = (j + 1) & mask;
            let idx = self.table[j];
            if idx == EMPTY {
                break;
            }
            let peer = self.slots[idx as usize]
                .occupant
                .peer()
                .expect("table entries reference occupied slots");
            let home = self.home(peer);
            // `j`'s entry may fill the hole iff its home position does not
            // lie cyclically in (hole, j] — otherwise moving it would break
            // its own probe chain.
            let between = if hole <= j {
                hole < home && home <= j
            } else {
                home > hole || home <= j
            };
            if !between {
                self.table[hole] = idx;
                hole = j;
            }
        }
        self.table[hole] = EMPTY;
    }

    /// Appends a `(slot, generation)` note to `epoch`'s bucket, opening
    /// the bucket if the epoch holds no note yet. Epochs below the swept
    /// base are clamped to it — the sweep re-checks actual staleness, so
    /// the clamp only affects *when* the note is examined, never the
    /// verdict.
    ///
    /// A bucket that outgrows `2 × (live + tombstones) + 64` notes drops
    /// the notes the sweep would skip (generation moved on, or slot
    /// vacant). Without that, leave/join cycles within one epoch grow the
    /// bucket, and the snapshot, with every write ever served; with it the
    /// compaction is amortised O(1) per note.
    fn note(&mut self, slot: u32, generation: u32, epoch: u64) {
        let epoch = epoch.max(self.base_epoch);
        let at = self.buckets.partition_point(|&(e, _)| e < epoch);
        if self.buckets.get(at).is_none_or(|&(e, _)| e != epoch) {
            self.buckets.insert(at, (epoch, Vec::new()));
        }
        let bucket = &mut self.buckets[at].1;
        bucket.push((slot, generation));
        if bucket.len() > 2 * (self.len + self.tombstones) + 64 {
            let slots = &self.slots;
            bucket.retain(|&(i, g)| {
                let s = &slots[i as usize];
                s.generation == g && s.occupant.peer().is_some()
            });
        }
        let noted = u32::try_from(epoch).unwrap_or(u32::MAX);
        let s = &mut self.slots[slot as usize];
        s.noted = s.noted.max(noted);
    }

    /// Whether the slab can hold `epoch`: it keeps epochs as `u32`s, so
    /// it holds `0 ..= u32::MAX`. The epochs passed to [`Self::insert`],
    /// [`Self::insert_tombstone`], [`Self::renew`] and
    /// [`Self::renew_with_ttl`] must lie in it; a server checks each
    /// epoch it advances to.
    pub fn holds_epoch(&self, epoch: u64) -> bool {
        epoch <= u64::from(u32::MAX)
    }

    /// `epoch` as a slot holds it.
    ///
    /// # Panics
    /// On an epoch outside [`Self::holds_epoch`]: the caller broke the
    /// arena's contract.
    fn offset(&self, epoch: u64) -> u32 {
        u32::try_from(epoch)
            .unwrap_or_else(|_| panic!("epoch {epoch} lies outside the lease window"))
    }

    /// Takes a slot off the free list (or grows the slab) and fills it.
    fn alloc_slot(&mut self, occupant: Occupant<T>, epoch: u64) -> u32 {
        let epoch = self.offset(epoch);
        match self.free {
            Some(idx) => {
                let s = &mut self.slots[idx as usize];
                let Occupant::Vacant(next) = s.occupant else {
                    unreachable!("the free chain links vacant slots");
                };
                self.free = next;
                s.last_seen = epoch;
                s.opened = epoch;
                s.ttl = TTL_DEFAULT;
                s.noted = 0;
                s.occupant = occupant;
                idx
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Slot {
                    generation: 0,
                    last_seen: epoch,
                    opened: epoch,
                    ttl: TTL_DEFAULT,
                    noted: 0,
                    occupant,
                });
                idx
            }
        }
    }

    /// Frees `pos`/`slot` after its occupant was taken: bumps the
    /// generation and links the slot at the head of the free chain.
    fn release_slot(&mut self, pos: usize, slot: u32) {
        self.table_remove(pos);
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.occupant.peer().is_none());
        s.generation = s.generation.wrapping_add(1);
        s.occupant = Occupant::Vacant(self.free);
        self.free = Some(slot);
    }

    /// Opens a lease for `peer` at `epoch`. Returns `false` (and does
    /// nothing) if the peer already holds a live lease (use
    /// [`Self::renew`] for that). A forwarding tombstone left for the same
    /// peer is cleared first — the peer came back, the move record is
    /// obsolete.
    pub fn insert(&mut self, peer: PeerId, value: T, epoch: u64) -> bool {
        if let Some(pos) = self.probe(peer) {
            let idx = self.table[pos];
            match self.slots[idx as usize].occupant {
                Occupant::Live(..) => return false,
                Occupant::Moved(..) => {
                    self.slots[idx as usize].occupant.take();
                    self.release_slot(pos, idx);
                    self.tombstones -= 1;
                }
                Occupant::Vacant(_) => unreachable!("probed slots are occupied"),
            }
        }
        let slot = self.alloc_slot(Occupant::Live(pack(peer), value), epoch);
        self.table_insert(peer, slot);
        self.len += 1;
        let generation = self.slots[slot as usize].generation;
        self.note(slot, generation, epoch);
        true
    }

    /// Leaves a forwarding tombstone for `peer`: the peer's registration
    /// moved to region `to` at `epoch`. Returns `false` (and does nothing)
    /// if the peer still holds a live lease or an earlier tombstone —
    /// close the lease first ([`Self::remove`]). The tombstone is noted in
    /// `epoch`'s bucket and retired by the ordinary sweeps once its
    /// retention lapses.
    pub fn insert_tombstone(&mut self, peer: PeerId, to: u32, epoch: u64) -> bool {
        if self.probe(peer).is_some() {
            return false;
        }
        let slot = self.alloc_slot(Occupant::Moved(pack(peer), to), epoch);
        self.table_insert(peer, slot);
        self.tombstones += 1;
        let generation = self.slots[slot as usize].generation;
        self.note(slot, generation, epoch);
        true
    }

    /// The destination region recorded by `peer`'s forwarding tombstone,
    /// if one is held.
    pub fn forwarded_to(&self, peer: PeerId) -> Option<u32> {
        let pos = self.probe(peer)?;
        match self.slots[self.table[pos] as usize].occupant {
            Occupant::Moved(_, to) => Some(to),
            _ => None,
        }
    }

    /// Table position of `peer`'s **live** lease.
    fn probe_live(&self, peer: PeerId) -> Option<usize> {
        let pos = self.probe(peer)?;
        match self.slots[self.table[pos] as usize].occupant {
            Occupant::Live(..) => Some(pos),
            _ => None,
        }
    }

    /// Whether `peer` holds a live lease (tombstones don't count).
    pub fn contains(&self, peer: PeerId) -> bool {
        self.probe_live(peer).is_some()
    }

    /// The payload of `peer`'s lease.
    pub fn get(&self, peer: PeerId) -> Option<&T> {
        let pos = self.probe_live(peer)?;
        let slot = self.table[pos] as usize;
        match &self.slots[slot].occupant {
            Occupant::Live(_, v) => Some(v),
            _ => None,
        }
    }

    /// The epoch `peer` last opened or renewed its lease.
    pub fn last_seen(&self, peer: PeerId) -> Option<u64> {
        let pos = self.probe_live(peer)?;
        Some(u64::from(self.slots[self.table[pos] as usize].last_seen))
    }

    /// Sets `peer`'s per-lease length (epochs of silence before
    /// [`Self::take_due`] expires it). `false` if the peer holds no live
    /// lease. Leases without a set TTL use the sweep's default.
    pub fn set_ttl(&mut self, peer: PeerId, ttl: u32) -> bool {
        let Some(pos) = self.probe_live(peer) else {
            return false;
        };
        let idx = self.table[pos] as usize;
        self.slots[idx].ttl = ttl;
        true
    }

    /// Renews `peer`'s lease at `epoch`; `false` if the peer holds none.
    /// A renewal in the epoch the lease was last seen is a no-op (no
    /// duplicate bucket note — the same-epoch guard of the expiry
    /// off-by-one family).
    pub fn renew(&mut self, peer: PeerId, epoch: u64) -> bool {
        let Some(pos) = self.probe_live(peer) else {
            return false;
        };
        let idx = self.table[pos];
        let at = self.offset(epoch);
        let slot = &mut self.slots[idx as usize];
        if slot.last_seen == at {
            return true;
        }
        slot.last_seen = at;
        let generation = slot.generation;
        self.note(idx, generation, epoch);
        true
    }

    /// [`Self::renew`] plus a TTL update in one probe — the adaptive-lease
    /// path ("derive the lease length at renewal time").
    pub fn renew_with_ttl(&mut self, peer: PeerId, epoch: u64, ttl: u32) -> bool {
        let Some(pos) = self.probe_live(peer) else {
            return false;
        };
        let idx = self.table[pos];
        let at = self.offset(epoch);
        let slot = &mut self.slots[idx as usize];
        slot.ttl = ttl;
        if slot.last_seen == at {
            return true;
        }
        slot.last_seen = at;
        let generation = slot.generation;
        self.note(idx, generation, epoch);
        true
    }

    /// Closes `peer`'s lease, returning the payload. The slot's generation
    /// is bumped, so the sweeps skip the notes of the closed lease.
    pub fn remove(&mut self, peer: PeerId) -> Option<T> {
        self.remove_full(peer).map(|(v, _, _)| v)
    }

    /// Like [`Self::remove`], but also reports `(opened, last_seen)` — the
    /// observed session span adaptive leases feed their EWMA from.
    pub fn remove_full(&mut self, peer: PeerId) -> Option<(T, u64, u64)> {
        let pos = self.probe_live(peer)?;
        let idx = self.table[pos] as usize;
        let slot = &mut self.slots[idx];
        let opened = u64::from(slot.opened);
        let last_seen = u64::from(slot.last_seen);
        let Occupant::Live(_, value) = slot.occupant.take() else {
            unreachable!("probe_live found a live occupant");
        };
        self.release_slot(pos, idx as u32);
        self.len -= 1;
        Some((value, opened, last_seen))
    }

    /// Iterator over live leases in slot order: `(peer, last_seen, &T)`.
    pub fn iter(&self) -> impl Iterator<Item = (PeerId, u64, &T)> + '_ {
        self.slots.iter().filter_map(|s| match &s.occupant {
            Occupant::Live(p, v) => Some((unpack(*p), u64::from(s.last_seen), v)),
            _ => None,
        })
    }

    /// The generalized epoch-bucket sweep: closes every live lease whose
    /// own deadline lapsed (`last_seen + ttl < now`, where `ttl` is the
    /// per-lease length or `default_ttl` if none was set) and retires
    /// forwarding tombstones the same way (retention = `default_ttl`).
    ///
    /// `min_ttl` must be a lower bound on every TTL in use (callers clamp
    /// adaptive TTLs to a configured floor): buckets up to
    /// `now - min_ttl` are popped, each entry re-checked against its
    /// lease's actual deadline, and not-yet-due leases re-noted at
    /// `due - min_ttl` so they are re-examined exactly when they lapse —
    /// at most one extra note per lease per sweep generation, keeping the
    /// sweep linear in noted activity. A TTL *below* `min_ttl` is never
    /// expired early — its bucket just pops later, delaying (never
    /// corrupting) the expiry.
    pub fn take_due(&mut self, now: u64, default_ttl: u64, min_ttl: u64) -> SweepOutcome<T> {
        let min_ttl = min_ttl.max(1);
        let pop_cutoff = now.saturating_sub(min_ttl);
        let mut out = SweepOutcome::default();
        let mut renote: Vec<(u32, u32, u64)> = Vec::new();
        // Every epoch from the base to the last note counts as a bucket,
        // whether it holds notes or not, as a snapshot lays them out.
        let end = self.buckets.back().map_or(self.base_epoch, |&(e, _)| e + 1);
        self.sweep.buckets_swept += pop_cutoff.min(end).saturating_sub(self.base_epoch);
        self.base_epoch = self.base_epoch.max(pop_cutoff);
        while let Some(&(bucket_epoch, _)) = self.buckets.front() {
            if bucket_epoch >= pop_cutoff {
                break;
            }
            let (_, bucket) = self.buckets.pop_front().expect("front checked");
            for (idx, generation) in bucket {
                self.sweep.entries_swept += 1;
                let slot = &mut self.slots[idx as usize];
                if slot.generation != generation || slot.occupant.peer().is_none() {
                    continue; // freed (and possibly reused) since noted
                }
                let ttl = match slot.occupant {
                    Occupant::Live(..) if slot.ttl != TTL_DEFAULT => slot.ttl as u64,
                    // Tombstone retention matches the default lease length.
                    _ => default_ttl,
                };
                let due = (u64::from(slot.last_seen)).saturating_add(ttl);
                if due >= now {
                    // Not yet due. If a newer note for this occupancy
                    // exists (a renewal, or an earlier sweep's re-note),
                    // it keeps the lease findable — re-noting here too
                    // would build chains of stale notes that every sweep
                    // re-examines. Only the newest note re-notes forward.
                    if u64::from(slot.noted) <= bucket_epoch {
                        renote.push((idx, generation, due - min_ttl));
                    }
                    continue;
                }
                let opened = u64::from(slot.opened);
                let last_seen = u64::from(slot.last_seen);
                match slot.occupant.take() {
                    Occupant::Live(peer, value) => {
                        let peer = unpack(peer);
                        let pos = self
                            .probe_vacated(peer, idx)
                            .expect("expired lease was in the table");
                        self.release_slot(pos, idx);
                        self.len -= 1;
                        out.expired.push(ExpiredLease {
                            peer,
                            value,
                            opened,
                            last_seen,
                        });
                    }
                    Occupant::Moved(peer, to) => {
                        let peer = unpack(peer);
                        let pos = self
                            .probe_vacated(peer, idx)
                            .expect("swept tombstone was in the table");
                        self.release_slot(pos, idx);
                        self.tombstones -= 1;
                        out.moved.push((peer, to));
                    }
                    Occupant::Vacant(_) => unreachable!("checked occupied"),
                }
            }
        }
        for (idx, generation, epoch) in renote {
            // The slot may have been freed by a *later* entry in the same
            // sweep only via remove(), which bumps the generation — note()
            // is still safe because readers re-check both.
            self.note(idx, generation, epoch);
        }
        out.expired.sort_unstable_by_key(|e| e.peer);
        out.moved.sort_unstable_by_key(|&(p, _)| p);
        out
    }

    /// Like [`Self::probe`], but for a peer whose slab occupant was just
    /// taken (the table entry still points at `slot`).
    fn probe_vacated(&self, peer: PeerId, slot: u32) -> Option<usize> {
        let mask = self.table.len() - 1;
        let mut i = self.home(peer);
        loop {
            let idx = self.table[i];
            if idx == EMPTY {
                return None;
            }
            if idx == slot {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Streams the arena into `out`: the slab verbatim (generations, lease
    /// clocks, per-lease TTLs, note high-water marks, occupants — payloads
    /// written by `enc_t`), the free list in reuse order, the table
    /// *capacity* (its layout is derivable), the epoch buckets (stale
    /// notes included — they are part of future sweep cost) as one bucket
    /// per epoch from the base to the last note, empty ones included, and
    /// the sweep counters.
    pub(crate) fn persist_encode(
        &self,
        out: &mut Vec<u8>,
        mut enc_t: impl FnMut(&T, &mut Vec<u8>),
    ) {
        put_u64(out, self.slots.len() as u64);
        for s in &self.slots {
            put_u32(out, s.generation);
            put_u64(out, u64::from(s.last_seen));
            put_u64(out, u64::from(s.opened));
            put_u32(out, s.ttl);
            put_u64(out, u64::from(s.noted));
            match &s.occupant {
                Occupant::Vacant(_) => put_u8(out, 0),
                Occupant::Live(peer, value) => {
                    put_u8(out, 1);
                    put_u64(out, unpack(*peer).0);
                    enc_t(value, out);
                }
                Occupant::Moved(peer, to) => {
                    put_u8(out, 2);
                    put_u64(out, unpack(*peer).0);
                    put_u32(out, *to);
                }
            }
        }
        let mut free = Vec::with_capacity(self.slots.len() - self.len - self.tombstones);
        let mut at = self.free;
        while let Some(idx) = at {
            free.push(idx);
            let Occupant::Vacant(next) = self.slots[idx as usize].occupant else {
                unreachable!("the free chain links vacant slots");
            };
            at = next;
        }
        put_u64(out, free.len() as u64);
        for &f in free.iter().rev() {
            put_u32(out, f);
        }
        put_u64(out, self.table.len() as u64);
        put_u64(out, self.base_epoch);
        let end = self.buckets.back().map_or(self.base_epoch, |&(e, _)| e + 1);
        put_u64(out, end - self.base_epoch);
        let mut next = self.base_epoch;
        for (epoch, bucket) in &self.buckets {
            for _ in next..*epoch {
                put_u64(out, 0);
            }
            next = epoch + 1;
            put_u64(out, bucket.len() as u64);
            for &(slot, generation) in bucket {
                put_u32(out, slot);
                put_u32(out, generation);
            }
        }
        put_u64(out, self.sweep.entries_swept);
        put_u64(out, self.sweep.buckets_swept);
    }

    /// Rebuilds an arena written by [`Self::persist_encode`], re-deriving
    /// the probe table from the slab. Fails closed on any structural
    /// violation: duplicate occupant peers, a free list that does not
    /// cover exactly the vacant slots, a table capacity that is not a
    /// power of two, cannot hold the occupants, or is larger than the
    /// slab could have grown it, bucket notes pointing outside the slab,
    /// or a slot epoch past the `u32` a slot holds ([`Self::holds_epoch`]).
    /// Empty buckets are not kept: [`Self::persist_encode`] writes them
    /// back from the epochs of the others.
    pub(crate) fn persist_decode(
        r: &mut Reader<'_>,
        mut dec_t: impl FnMut(&mut Reader<'_>) -> Result<T, PersistError>,
    ) -> Result<Self, PersistError> {
        let n_slots = r.len_prefix(29)?;
        let mut slots: Vec<Slot<T>> = Vec::with_capacity(n_slots);
        let mut len = 0usize;
        let mut tombstones = 0usize;
        let mut peers_seen = std::collections::HashSet::with_capacity(n_slots);
        for i in 0..n_slots {
            let generation = r.u32()?;
            let last_seen = epoch_u32(r)?;
            let opened = epoch_u32(r)?;
            let ttl = r.u32()?;
            let noted = epoch_u32(r)?;
            let occupant = match r.u8()? {
                0 => Occupant::Vacant(None),
                1 => {
                    let peer = PeerId(r.u64()?);
                    if !peers_seen.insert(peer) {
                        return Err(PersistError::Corrupt(format!(
                            "lease slab holds {peer} twice"
                        )));
                    }
                    len += 1;
                    Occupant::Live(pack(peer), dec_t(r)?)
                }
                2 => {
                    let peer = PeerId(r.u64()?);
                    if !peers_seen.insert(peer) {
                        return Err(PersistError::Corrupt(format!(
                            "lease slab holds {peer} twice"
                        )));
                    }
                    tombstones += 1;
                    Occupant::Moved(pack(peer), r.u32()?)
                }
                t => {
                    return Err(PersistError::Corrupt(format!(
                        "lease slot {i} has unknown occupant tag {t}"
                    )))
                }
            };
            slots.push(Slot {
                generation,
                last_seen,
                opened,
                ttl,
                noted,
                occupant,
            });
        }
        let n_free = r.len_prefix(4)?;
        if n_free != n_slots - len - tombstones {
            return Err(PersistError::Corrupt(format!(
                "lease free list holds {n_free} entries for {} vacant slots",
                n_slots - len - tombstones
            )));
        }
        let mut free = None;
        let mut on_free = vec![false; n_slots];
        for _ in 0..n_free {
            let f = r.u32()?;
            let idx = f as usize;
            if idx >= n_slots || slots[idx].occupant.peer().is_some() || on_free[idx] {
                return Err(PersistError::Corrupt(format!(
                    "lease free-list entry {f} is out of bounds, occupied, or duplicated"
                )));
            }
            on_free[idx] = true;
            slots[idx].occupant = Occupant::Vacant(free);
            free = Some(f);
        }
        // The table starts at `TABLE_MIN` and doubles from `c` only on an
        // insert that brings the occupants, each in a slot of the slab, to
        // 3/4 of `c`: a table of `C > TABLE_MIN` needs `8 × n_slots ≥ 3C`.
        // Anything larger is refused before it is allocated.
        let table_cap = r.u64()?;
        if !table_cap.is_power_of_two()
            || table_cap < TABLE_MIN as u64
            || (len + tombstones) as u64 >= table_cap
            || (table_cap > TABLE_MIN as u64 && u128::from(table_cap) * 3 > n_slots as u128 * 8)
        {
            return Err(PersistError::Corrupt(format!(
                "lease table capacity {table_cap} does not fit {} occupants in {n_slots} slots",
                len + tombstones
            )));
        }
        let table_cap = table_cap as usize;
        let base_epoch = r.u64()?;
        let n_buckets = r.len_prefix(8)?;
        let mut buckets = VecDeque::new();
        for i in 0..n_buckets {
            let n_entries = r.len_prefix(8)?;
            if n_entries == 0 {
                continue;
            }
            let epoch = base_epoch.checked_add(i as u64).ok_or_else(|| {
                PersistError::Corrupt(format!("epoch bucket {i} lies past epoch {}", u64::MAX))
            })?;
            let mut bucket = Vec::with_capacity(n_entries);
            for _ in 0..n_entries {
                let slot = r.u32()?;
                let generation = r.u32()?;
                if slot as usize >= n_slots {
                    return Err(PersistError::Corrupt(format!(
                        "bucket note references slot {slot} beyond the slab"
                    )));
                }
                bucket.push((slot, generation));
            }
            buckets.push_back((epoch, bucket));
        }
        let sweep = SweepStats {
            entries_swept: r.u64()?,
            buckets_swept: r.u64()?,
        };
        // Re-derive the probe table: insert every occupant at its home (or
        // next free) position. Layout may differ from the pre-crash table
        // (that depended on insertion/deletion history), but every probe
        // answers identically and the growth trigger sees the same
        // occupancy/capacity ratio.
        let shift = 64 - table_cap.trailing_zeros();
        let mask = table_cap - 1;
        let mut table = vec![EMPTY; table_cap];
        for (i, s) in slots.iter().enumerate() {
            if let Some(peer) = s.occupant.peer() {
                let mut pos = (peer.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
                while table[pos] != EMPTY {
                    pos = (pos + 1) & mask;
                }
                table[pos] = i as u32;
            }
        }
        Ok(LeaseArena {
            slots,
            free,
            table,
            shift,
            len,
            tombstones,
            buckets,
            base_epoch,
            sweep,
        })
    }
}

/// Reads a persisted `u64` epoch, refusing one past the `u32` a slot
/// holds.
fn epoch_u32(r: &mut Reader<'_>) -> Result<u32, PersistError> {
    let epoch = r.u64()?;
    u32::try_from(epoch).map_err(|_| {
        PersistError::Corrupt(format!(
            "lease epoch {epoch} lies past the window a slot holds"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> LeaseArena<u32> {
        LeaseArena::new()
    }

    /// Closes every lease last seen strictly before `cutoff`, ascending by
    /// peer: [`LeaseArena::take_due`] with every lease on one length.
    fn expire_before(a: &mut LeaseArena<u32>, cutoff: u64) -> Vec<(PeerId, u32)> {
        a.take_due(cutoff + 1, 1, 1)
            .expired
            .into_iter()
            .map(|e| (e.peer, e.value))
            .collect()
    }

    /// `peer`'s live slot as `(index, generation)`.
    fn slot_of(a: &LeaseArena<u32>, peer: PeerId) -> Option<(u32, u32)> {
        let idx = a.table[a.probe_live(peer)?];
        Some((idx, a.slots[idx as usize].generation))
    }

    /// The epoch `peer`'s live lease was opened.
    fn opened(a: &LeaseArena<u32>, peer: PeerId) -> Option<u64> {
        let (idx, _) = slot_of(a, peer)?;
        Some(u64::from(a.slots[idx as usize].opened))
    }

    /// `peer`'s own lease length, if one was set.
    fn ttl_of(a: &LeaseArena<u32>, peer: PeerId) -> Option<u32> {
        let (idx, _) = slot_of(a, peer)?;
        let ttl = a.slots[idx as usize].ttl;
        (ttl != TTL_DEFAULT).then_some(ttl)
    }

    fn persist_roundtrip(a: &LeaseArena<u32>) -> LeaseArena<u32> {
        let mut bytes = Vec::new();
        a.persist_encode(&mut bytes, |v, out| {
            super::put_u32(out, *v);
        });
        let mut reader = super::Reader::new(&bytes);
        let restored = LeaseArena::persist_decode(&mut reader, |r| r.u32()).unwrap();
        assert_eq!(reader.remaining(), 0, "decoder must consume everything");
        restored
    }

    #[test]
    fn persist_restores_leases_tombstones_buckets_and_future_sweeps() {
        let mut a = arena();
        for p in 0..200u64 {
            assert!(a.insert(PeerId(p), p as u32, p % 7));
        }
        for p in (0..200u64).step_by(3) {
            a.renew(PeerId(p), 8);
        }
        for p in (0..200u64).step_by(5) {
            a.remove(PeerId(p));
        }
        a.set_ttl(PeerId(1), 3);
        a.remove(PeerId(13));
        a.insert_tombstone(PeerId(13), 4, 9);
        let _ = a.take_due(6, 4, 1);

        let mut b = persist_roundtrip(&a);
        assert_eq!(b.len(), a.len());
        assert_eq!(b.tombstone_count(), a.tombstone_count());
        assert_eq!(b.sweep_stats(), a.sweep_stats());
        assert_eq!(b.slots.len(), a.slots.len());
        for p in 0..200u64 {
            let peer = PeerId(p);
            assert_eq!(b.contains(peer), a.contains(peer), "contains {p}");
            assert_eq!(b.get(peer), a.get(peer), "payload {p}");
            assert_eq!(b.last_seen(peer), a.last_seen(peer), "last_seen {p}");
            assert_eq!(opened(&b, peer), opened(&a, peer), "opened {p}");
            assert_eq!(ttl_of(&b, peer), ttl_of(&a, peer), "ttl {p}");
            assert_eq!(slot_of(&b, peer), slot_of(&a, peer), "slot {p}");
            assert_eq!(b.forwarded_to(peer), a.forwarded_to(peer), "moved {p}");
        }
        // Future behaviour must match exactly: run identical sweeps and
        // churn on both arenas and compare every outcome.
        for now in 10..30u64 {
            let sa = a.take_due(now, 4, 1);
            let sb = b.take_due(now, 4, 1);
            assert_eq!(sb.expired, sa.expired, "sweep at {now}");
            assert_eq!(sb.moved, sa.moved, "moved at {now}");
            assert_eq!(
                b.insert(PeerId(1000 + now), now as u32, now),
                a.insert(PeerId(1000 + now), now as u32, now)
            );
        }
        assert_eq!(b.len(), a.len());
        assert_eq!(b.sweep_stats(), a.sweep_stats());
    }

    #[test]
    fn a_slot_packs_its_epochs_and_peer_into_36_bytes() {
        assert_eq!(slot_size::<u32>(), 36);
    }

    #[test]
    fn epochs_at_the_window_edge_register_renew_and_expire() {
        let edge = u64::from(u32::MAX) - 1;
        let mut a = arena();
        // A sweep of the empty arena moves its buckets' base to `edge - 1`,
        // so the notes below need no bucket per epoch before it.
        assert!(a.take_due(edge, 1, 1).expired.is_empty());
        assert!(a.holds_epoch(edge + 1));
        assert!(!a.holds_epoch(edge + 2));
        assert!(a.insert(PeerId(1), 10, edge));
        assert!(a.insert(PeerId(2), 20, edge));
        assert!(a.insert(PeerId(u64::MAX), 30, edge));
        assert_eq!(
            (opened(&a, PeerId(1)), a.last_seen(PeerId(1))),
            (Some(edge), Some(edge))
        );
        assert!(a.renew(PeerId(1), edge + 1));
        assert!(a.renew_with_ttl(PeerId(u64::MAX), edge + 1, 40));
        assert_eq!(a.last_seen(PeerId(1)), Some(edge + 1));
        // Peer 2 was last seen at `edge`.
        let out = a.take_due(edge + 2, 1, 1);
        assert_eq!(out.expired.len(), 1);
        assert_eq!(out.expired[0].peer, PeerId(2));
        assert_eq!(
            (out.expired[0].opened, out.expired[0].last_seen),
            (edge, edge)
        );
        // Peer 1 lapses next; peer `u64::MAX` is re-noted 40 epochs past
        // the window's end, which its note mark holds at the end.
        let out = a.take_due(edge + 3, 1, 1);
        assert_eq!(out.expired.len(), 1);
        assert_eq!(out.expired[0].peer, PeerId(1));
        let b = persist_roundtrip(&a);
        for x in [&a, &b] {
            assert_eq!(opened(x, PeerId(u64::MAX)), Some(edge));
            assert_eq!(x.last_seen(PeerId(u64::MAX)), Some(edge + 1));
            assert_eq!(x.get(PeerId(u64::MAX)), Some(&30));
            assert_eq!(ttl_of(x, PeerId(u64::MAX)), Some(40));
        }
        let mut b = b;
        for x in [&mut a, &mut b] {
            assert!(x.take_due(edge + 41, 1, 1).expired.is_empty());
            let out = x.take_due(edge + 42, 1, 1);
            assert_eq!(out.expired.len(), 1);
            assert!(x.is_empty());
        }
    }

    #[test]
    fn a_snapshot_epoch_past_the_window_is_refused() {
        let mut a = arena();
        assert!(a.insert(PeerId(5), 50, 0));
        let mut bytes = Vec::new();
        a.persist_encode(&mut bytes, |v, out| super::put_u32(out, *v));
        let decode = |bytes: &[u8]| {
            LeaseArena::<u32>::persist_decode(&mut super::Reader::new(bytes), |r| r.u32())
        };
        // Slot 0's `last_seen` follows n_slots (8) and its generation (4).
        let at = |epoch: u64| {
            let mut forged = bytes.clone();
            forged[12..20].copy_from_slice(&epoch.to_le_bytes());
            forged
        };
        // A `last_seen` of 2^32 - 1 fits, 2^32 does not.
        let b = decode(&at(u64::from(u32::MAX))).unwrap();
        assert_eq!(b.last_seen(PeerId(5)), Some(u64::from(u32::MAX)));
        assert!(matches!(
            decode(&at(1 << 32)),
            Err(super::PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn persist_decode_rejects_duplicate_peers_and_bad_table() {
        let mut a = arena();
        assert!(a.insert(PeerId(5), 50, 1));
        let mut bytes = Vec::new();
        a.persist_encode(&mut bytes, |v, out| super::put_u32(out, *v));

        // In an empty arena the table capacity sits at a fixed offset:
        // n_slots(8) + free_len(8). Smash it to a non-power-of-two.
        let mut bad = Vec::new();
        arena().persist_encode(&mut bad, |v, out| super::put_u32(out, *v));
        bad[16..24].copy_from_slice(&7u64.to_le_bytes());
        let mut reader = super::Reader::new(&bad);
        assert!(matches!(
            LeaseArena::<u32>::persist_decode(&mut reader, |r| r.u32()),
            Err(super::PersistError::Corrupt(_))
        ));

        // Truncation anywhere fails closed with Truncated.
        let mut reader = super::Reader::new(&bytes[..bytes.len() - 3]);
        assert!(matches!(
            LeaseArena::<u32>::persist_decode(&mut reader, |r| r.u32()),
            Err(super::PersistError::Truncated)
        ));
    }

    #[test]
    fn a_table_larger_than_the_slab_could_grow_is_refused() {
        let decode = |bytes: &[u8]| {
            LeaseArena::<u32>::persist_decode(&mut super::Reader::new(bytes), |r| r.u32())
        };
        let mut a = arena();
        assert!(a.insert(PeerId(5), 50, 0));
        let mut bytes = Vec::new();
        a.persist_encode(&mut bytes, |v, out| super::put_u32(out, *v));
        // The table capacity follows the slab (its length and one 45-byte
        // slot holding a `u32` payload) and the empty free list.
        let at = 8 + 45 + 8;
        assert_eq!(bytes[at..at + 8], 8u64.to_le_bytes());
        for cap in [16u64, 1 << 40] {
            let mut forged = bytes.clone();
            forged[at..at + 8].copy_from_slice(&cap.to_le_bytes());
            assert!(
                matches!(decode(&forged), Err(super::PersistError::Corrupt(_))),
                "one slot cannot have grown a table of {cap}"
            );
        }
        // Every table the growth rule reaches is accepted: six occupants
        // grow it to 16, twelve to 32.
        for (n, cap) in [(6u64, 16usize), (12, 32)] {
            let mut a = arena();
            for p in 0..n {
                assert!(a.insert(PeerId(p), p as u32, 0));
            }
            assert_eq!(a.table.len(), cap);
            assert_eq!(persist_roundtrip(&a).table.len(), cap);
        }
    }

    #[test]
    fn a_note_far_past_the_base_opens_one_bucket() {
        const FAR: u64 = 1_000_000;
        let mut a = arena();
        assert!(a.insert(PeerId(1), 10, FAR));
        assert!(a.insert(PeerId(2), 20, FAR));
        assert!(a.renew(PeerId(2), FAR + 1));
        assert_eq!(a.buckets.len(), 2, "one bucket per noted epoch");
        let [.., (_, bucket_bytes)] = a.heap_parts();
        assert!(bucket_bytes <= 256, "epoch buckets hold {bucket_bytes} B");
        // A snapshot still lays out one bucket per epoch from the base,
        // and decoding keeps only the noted ones.
        let mut bytes = Vec::new();
        a.persist_encode(&mut bytes, |v, out| super::put_u32(out, *v));
        let mut b = persist_roundtrip(&a);
        assert_eq!(b.buckets.len(), 2);
        let mut again = Vec::new();
        b.persist_encode(&mut again, |v, out| super::put_u32(out, *v));
        assert!(again == bytes, "re-encoding writes the same bytes");
        // Sweeps count every epoch up to the cutoff as a bucket, as the
        // snapshot's layout does, and expire on schedule.
        for x in [&mut a, &mut b] {
            let out = expire_before(x, FAR + 1);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].0, PeerId(1));
            assert_eq!(x.sweep_stats().buckets_swept, FAR + 1);
            assert_eq!(x.buckets.len(), 1);
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = arena();
        assert!(a.insert(PeerId(7), 70, 1));
        assert_eq!(a.len(), 1);
        assert!(a.contains(PeerId(7)));
        assert_eq!(a.get(PeerId(7)), Some(&70));
        assert_eq!(a.last_seen(PeerId(7)), Some(1));
        assert_eq!(opened(&a, PeerId(7)), Some(1));
        assert!(!a.insert(PeerId(7), 71, 2), "double insert");
        assert_eq!(a.remove(PeerId(7)), Some(70));
        assert!(a.is_empty());
        assert_eq!(a.remove(PeerId(7)), None);
        assert_eq!(a.get(PeerId(7)), None);
    }

    #[test]
    fn slot_reuse_never_resurrects() {
        let mut a = arena();
        assert!(a.insert(PeerId(1), 10, 0));
        assert_eq!(slot_of(&a, PeerId(1)), Some((0, 0)));
        a.remove(PeerId(1));
        assert!(a.insert(PeerId(2), 20, 5));
        assert_eq!(slot_of(&a, PeerId(2)), Some((0, 1)), "slot 0 is recycled");
        // Peer 1's note at epoch 0 names the old generation: the sweep
        // skips it, and peer 2, seen at 5, keeps its lease.
        assert!(expire_before(&mut a, 3).is_empty());
        assert_eq!(a.sweep_stats().entries_swept, 1);
        assert_eq!(a.get(PeerId(2)), Some(&20));
        assert_eq!(a.get(PeerId(1)), None);
    }

    #[test]
    fn renewal_moves_the_lease_between_buckets() {
        let mut a = arena();
        assert!(a.insert(PeerId(1), 1, 0));
        assert!(a.insert(PeerId(2), 2, 0));
        assert!(a.renew(PeerId(1), 3));
        assert!(!a.renew(PeerId(9), 3));
        let expired = expire_before(&mut a, 3);
        assert_eq!(expired, vec![(PeerId(2), 2)]);
        assert_eq!(a.last_seen(PeerId(1)), Some(3));
        // The renewed lease expires once its own epoch lapses.
        let expired = expire_before(&mut a, 4);
        assert_eq!(expired, vec![(PeerId(1), 1)]);
        assert!(a.is_empty());
    }

    #[test]
    fn same_epoch_renewal_is_a_noop() {
        let mut a = arena();
        assert!(a.insert(PeerId(1), 1, 5));
        assert!(a.renew(PeerId(1), 5));
        assert!(a.renew(PeerId(1), 5));
        // Only the open noted an entry; sweeping past it sees exactly one.
        let expired = expire_before(&mut a, 6);
        assert_eq!(expired, vec![(PeerId(1), 1)]);
        assert_eq!(a.sweep_stats().entries_swept, 1);
    }

    #[test]
    fn cutoff_zero_expires_nothing() {
        let mut a = arena();
        assert!(a.insert(PeerId(1), 1, 0));
        assert!(expire_before(&mut a, 0).is_empty());
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn renoted_leases_stay_findable_across_sweeps() {
        let mut a = arena();
        assert!(a.insert(PeerId(1), 1, 0));
        a.renew(PeerId(1), 5);
        // Sweep to 3 pops the epoch-0 note; peer 1 is renewed past the
        // cutoff and must be re-noted, not forgotten.
        assert!(expire_before(&mut a, 3).is_empty());
        let expired = expire_before(&mut a, 6);
        assert_eq!(expired, vec![(PeerId(1), 1)]);
    }

    #[test]
    fn sweep_is_linear_in_noted_activity() {
        let mut a = arena();
        for p in 0..1_000u64 {
            assert!(a.insert(PeerId(p), p as u32, 0));
        }
        // Renew one peer across many epochs; expire with a cutoff that
        // retires nobody but the sweep still only touches noted entries.
        for e in 1..=50 {
            a.renew(PeerId(0), e);
        }
        let before = a.sweep_stats();
        assert!(expire_before(&mut a, 0).is_empty());
        assert_eq!(a.sweep_stats(), before, "cutoff 0 sweeps nothing");
        let expired = expire_before(&mut a, 50);
        assert_eq!(expired.len(), 999);
        let stats = a.sweep_stats();
        // 1000 opens + 49 effective renewals (+1 re-note examined at most
        // once more) — far below len × epochs.
        assert!(
            stats.entries_swept <= 1_051,
            "sweep touched {} entries",
            stats.entries_swept
        );
    }

    #[test]
    fn stale_scan_matches_sweep() {
        let mut a = arena();
        for p in 0..20u64 {
            assert!(a.insert(PeerId(p), p as u32, p % 4));
        }
        let mut scan: Vec<PeerId> = a
            .iter()
            .filter(|&(_, seen, _)| seen < 2)
            .map(|(p, _, _)| p)
            .collect();
        scan.sort_unstable();
        let swept: Vec<PeerId> = expire_before(&mut a, 2)
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        assert_eq!(scan, swept);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn table_survives_heavy_churn_and_growth() {
        let mut a = arena();
        // Interleave inserts and removals far past the initial capacity so
        // the table grows and backward-shift deletion runs over wrapped
        // probe chains.
        for round in 0u64..6 {
            for p in 0..500u64 {
                assert!(a.insert(PeerId(round * 10_000 + p), p as u32, round));
            }
            for p in 0..500u64 {
                if p % 3 != 0 {
                    assert!(a.remove(PeerId(round * 10_000 + p)).is_some());
                }
            }
        }
        // Survivors: every p % 3 == 0 from every round.
        assert_eq!(a.len(), 6 * 167);
        for round in 0u64..6 {
            for p in 0..500u64 {
                let peer = PeerId(round * 10_000 + p);
                assert_eq!(a.contains(peer), p % 3 == 0, "{peer:?}");
            }
        }
    }

    #[test]
    fn colliding_keys_probe_correctly() {
        // Keys crafted to share a home bucket (same high bits after the
        // fibonacci multiply is hard to force; instead use a tiny table and
        // enough keys that chains necessarily overlap and wrap).
        let mut a: LeaseArena<u8> = LeaseArena::new();
        for p in 0..64u64 {
            assert!(a.insert(PeerId(p), p as u8, 0));
        }
        for p in (0..64u64).step_by(2) {
            assert_eq!(a.remove(PeerId(p)), Some(p as u8));
        }
        for p in 0..64u64 {
            assert_eq!(a.get(PeerId(p)).copied(), (p % 2 == 1).then_some(p as u8));
        }
    }

    // --- Forwarding tombstones. ---

    #[test]
    fn tombstone_lifecycle() {
        let mut a = arena();
        assert!(a.insert(PeerId(1), 10, 0));
        assert!(!a.insert_tombstone(PeerId(1), 2, 0), "live lease blocks");
        assert_eq!(a.remove(PeerId(1)), Some(10));
        assert!(a.insert_tombstone(PeerId(1), 2, 3));
        assert!(!a.insert_tombstone(PeerId(1), 4, 3), "one tombstone only");
        assert_eq!(a.tombstone_count(), 1);
        assert_eq!(a.len(), 0, "tombstones are not live leases");
        assert!(!a.contains(PeerId(1)));
        assert_eq!(a.get(PeerId(1)), None);
        assert!(!a.renew(PeerId(1), 4), "tombstones cannot renew");
        assert_eq!(a.forwarded_to(PeerId(1)), Some(2));
        assert_eq!(a.forwarded_to(PeerId(9)), None);
    }

    #[test]
    fn tombstone_cleared_when_peer_returns() {
        let mut a = arena();
        assert!(a.insert(PeerId(1), 10, 0));
        a.remove(PeerId(1));
        assert!(a.insert_tombstone(PeerId(1), 3, 1));
        // The peer re-registers here: the stale move record must vanish.
        assert!(a.insert(PeerId(1), 11, 2));
        assert_eq!(a.forwarded_to(PeerId(1)), None);
        assert_eq!(a.tombstone_count(), 0);
        assert_eq!(a.get(PeerId(1)), Some(&11));
        assert_eq!(opened(&a, PeerId(1)), Some(2));
    }

    #[test]
    fn sweeps_retire_tombstones_as_moved() {
        let mut a = arena();
        assert!(a.insert(PeerId(1), 10, 0));
        assert!(a.insert(PeerId(2), 20, 0));
        a.remove(PeerId(1));
        assert!(a.insert_tombstone(PeerId(1), 7, 0));
        // Uniform sweep with default retention 3, at epoch 5: both the
        // silent lease and the tombstone lapsed — but they come out in
        // different lists.
        let out = a.take_due(5, 3, 3);
        assert_eq!(out.moved, vec![(PeerId(1), 7)]);
        assert_eq!(out.expired.len(), 1);
        assert_eq!(out.expired[0].peer, PeerId(2));
        assert_eq!(out.expired[0].value, 20);
        assert_eq!(a.tombstone_count(), 0);
        assert!(a.is_empty());
        // The uniform sweep retires tombstones too.
        assert!(a.insert(PeerId(3), 30, 5));
        a.remove(PeerId(3));
        a.insert_tombstone(PeerId(3), 1, 5);
        assert!(expire_before(&mut a, 9).is_empty());
        assert_eq!(a.tombstone_count(), 0);
    }

    // --- Per-lease TTLs (adaptive leases). ---

    #[test]
    fn custom_ttl_expires_earlier_than_default() {
        let mut a = arena();
        assert!(a.insert(PeerId(1), 10, 0));
        assert!(a.insert(PeerId(2), 20, 0));
        assert!(a.set_ttl(PeerId(1), 2), "short-lived peer gets 2 epochs");
        assert_eq!(ttl_of(&a, PeerId(1)), Some(2));
        assert_eq!(ttl_of(&a, PeerId(2)), None, "default lease");
        // At epoch 4 with default 8: peer 1 (due 0+2) lapsed, peer 2
        // (due 0+8) lives on.
        let out = a.take_due(4, 8, 2);
        assert_eq!(out.expired.len(), 1);
        assert_eq!(out.expired[0].peer, PeerId(1));
        assert!(a.contains(PeerId(2)));
        // Peer 2 expires once the default lapses; the renote at
        // `due - min_ttl` must keep it findable.
        let out = a.take_due(9, 8, 2);
        assert_eq!(out.expired.len(), 1);
        assert_eq!(out.expired[0].peer, PeerId(2));
        assert!(a.is_empty());
    }

    #[test]
    fn renew_with_ttl_updates_both_in_one_probe() {
        let mut a = arena();
        assert!(a.insert(PeerId(1), 10, 0));
        assert!(a.renew_with_ttl(PeerId(1), 3, 5));
        assert_eq!(a.last_seen(PeerId(1)), Some(3));
        assert_eq!(ttl_of(&a, PeerId(1)), Some(5));
        // Same-epoch renewal still refreshes the TTL without a new note.
        assert!(a.renew_with_ttl(PeerId(1), 3, 6));
        assert_eq!(ttl_of(&a, PeerId(1)), Some(6));
        assert!(!a.renew_with_ttl(PeerId(9), 3, 5));
        // Due at 3 + 6 = 9.
        assert!(a.take_due(9, 20, 1).expired.is_empty());
        let out = a.take_due(10, 20, 1);
        assert_eq!(out.expired.len(), 1);
        assert_eq!(out.expired[0].last_seen, 3);
        assert_eq!(out.expired[0].opened, 0);
    }

    #[test]
    fn ttl_sweep_stays_linear() {
        let mut a = arena();
        for p in 0..1_000u64 {
            assert!(a.insert(PeerId(p), p as u32, 0));
            if p % 2 == 0 {
                a.set_ttl(PeerId(p), 4);
            }
        }
        // Sweep epoch by epoch with default 16, floor 4: evens lapse at 4,
        // odds at 16; no sweep may rescan the whole table.
        let mut expired = 0usize;
        for now in 1..=20u64 {
            expired += a.take_due(now, 16, 4).expired.len();
        }
        assert_eq!(expired, 1_000);
        // 1000 opens + at most one renote per survivor per examination
        // generation: far below 1000 × 20.
        let stats = a.sweep_stats();
        assert!(
            stats.entries_swept <= 2_500,
            "sweep touched {} entries",
            stats.entries_swept
        );
    }
}
