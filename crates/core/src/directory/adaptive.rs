//! Adaptive lease lengths: per-peer `max_age` from observed sessions.
//!
//! The million-peer churn soak (PR 4) showed the cost of one global lease
//! length: with exponential lifetimes, short-lived peers keep their stale
//! registration discoverable for ~`max_age` epochs after failing silently,
//! even though their whole session lasted a fraction of that. The fix is
//! the classic soft-state one — size each peer's lease to its own observed
//! behaviour.
//!
//! This is the *small* version queued in the ROADMAP: the server keeps an
//! **EWMA of each peer's session length** (epochs between lease open and
//! close, updated when a session ends — graceful leave or expiry), and at
//! renewal time derives the peer's lease length as
//! `clamp(ewma + margin, min_age, max_age)`. Peers without history use the
//! sweep's default. The per-lease TTL is enforced by the arena's
//! generalized deadline sweep ([`super::LeaseArena::take_due`]), which
//! stays linear in noted lease activity.
//!
//! The cell table is **hard-capped** ([`AdaptiveLeaseConfig::max_tracked`])
//! with clock/second-chance eviction: a deployment whose peers mint a
//! fresh id per session would otherwise grow the map by one cell per
//! transient id, forever. Cells touched since the hand last passed (a
//! renewal consulted them, or a new session was folded in) survive one
//! sweep; cold cells make room. Losing a cell only means the peer rides
//! the default lease until its next session closes — an accuracy hit on
//! ids that were not renewing anyway, never a correctness one.

use super::persist::wire::{put_u32, put_u64, put_u8, Reader};
use super::persist::PersistError;
use crate::ids::{IdMap, PeerId};
use serde::{Deserialize, Serialize};

/// Tuning for adaptive lease lengths
/// ([`crate::ServerConfig::adaptive_leases`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdaptiveLeaseConfig {
    /// EWMA weight as a right-shift: `ewma += (sample - ewma) >> shift`
    /// (shift 1 = weight ½ on the newest session).
    pub ewma_shift: u32,
    /// Slack epochs added on top of the EWMA estimate — a lease should
    /// outlive the *expected* session, not race it.
    pub margin: u32,
    /// Floor for the derived lease length, in epochs (also the arena's
    /// sweep floor: TTLs are never handed out below it).
    ///
    /// **Must exceed the deployment's renewal cadence**: a peer whose
    /// sessions averaged one epoch gets a lease of `min_age` at rejoin —
    /// if its heartbeats arrive every `h` epochs, `min_age <= h` lets the
    /// sweep expire a live, cooperating peer between renewals (and the
    /// expiry records yet another short session, sticking the peer in a
    /// rejoin/expire loop). Size it `heartbeat_interval + 1` or more.
    pub min_age: u32,
    /// Cap for the derived lease length, in epochs ("capped to the
    /// configured max").
    pub max_age: u32,
    /// Hard cap on EWMA cells held **per server**. Deployments with
    /// never-recycled (transient) peer ids would otherwise grow the map
    /// without bound; at the cap, a clock/second-chance sweep evicts a
    /// cell not touched since the hand last passed. `0` disables tracking
    /// entirely (every peer rides the default lease).
    pub max_tracked: u32,
}

impl Default for AdaptiveLeaseConfig {
    fn default() -> Self {
        Self {
            ewma_shift: 1,
            margin: 1,
            min_age: 1,
            max_age: 8,
            max_tracked: 65_536,
        }
    }
}

/// One tracked peer: its session-length EWMA plus the clock's reference
/// bit (set whenever the cell is consulted or updated, cleared as the
/// hand passes).
#[derive(Debug)]
struct Cell {
    peer: PeerId,
    ewma: u32,
    referenced: bool,
}

/// A server's adaptive-lease state: the config plus one EWMA cell per peer
/// observed closing a session. Cells whose estimate caps out (derived TTL
/// = the configured `max_age`, i.e. no shorter than the default lease)
/// are evicted on update — only peers that actually *benefit* from a
/// shorter lease occupy memory — and the table is hard-capped at
/// [`AdaptiveLeaseConfig::max_tracked`] with clock eviction for
/// transient-id deployments.
#[derive(Debug)]
pub(crate) struct AdaptiveLeases {
    cfg: AdaptiveLeaseConfig,
    cells: Vec<Cell>,
    index: IdMap<PeerId, usize>,
    /// Clock hand: the next eviction candidate in `cells`.
    hand: usize,
}

impl AdaptiveLeases {
    pub(crate) fn new(cfg: AdaptiveLeaseConfig) -> Self {
        Self {
            cfg,
            cells: Vec::new(),
            index: IdMap::default(),
            hand: 0,
        }
    }

    pub(crate) fn cfg(&self) -> AdaptiveLeaseConfig {
        self.cfg
    }

    /// Folds one finished session (epochs between open and last renewal)
    /// into the peer's EWMA. Estimates that cap out free their cell: a
    /// peer whose lease would clamp to `max_age` anyway behaves exactly
    /// like a history-less peer on the default lease. A fresh cell at the
    /// cap evicts the first cell the clock hand finds unreferenced.
    pub(crate) fn observe(&mut self, peer: PeerId, session_epochs: u64) {
        let sample = session_epochs.min(u32::MAX as u64) as u32;
        let existing = self.index.get(&peer).copied();
        let next = match existing {
            Some(i) => {
                let old = self.cells[i].ewma;
                let shift = self.cfg.ewma_shift.min(31);
                (old as i64 + ((sample as i64 - old as i64) >> shift)).clamp(0, u32::MAX as i64)
                    as u32
            }
            None => sample,
        };
        if next.saturating_add(self.cfg.margin) >= self.cfg.max_age {
            if let Some(i) = existing {
                self.remove_cell(i);
            }
            return;
        }
        match existing {
            Some(i) => {
                self.cells[i].ewma = next;
                self.cells[i].referenced = true;
            }
            None => self.insert_cell(peer, next),
        }
    }

    /// The lease length for `peer`, if it has history:
    /// `clamp(ewma + margin, min_age, max_age)`. Fresh peers return `None`
    /// and fall back to the sweep's default. Consulting a cell marks it
    /// referenced — peers that keep renewing survive the clock.
    pub(crate) fn ttl(&mut self, peer: PeerId) -> Option<u32> {
        let floor = self.cfg.min_age.max(1);
        let &i = self.index.get(&peer)?;
        let cell = &mut self.cells[i];
        cell.referenced = true;
        Some(
            cell.ewma
                .saturating_add(self.cfg.margin)
                .clamp(floor, self.cfg.max_age.max(floor)),
        )
    }

    fn insert_cell(&mut self, peer: PeerId, ewma: u32) {
        if self.cfg.max_tracked == 0 {
            return;
        }
        // Fresh cells are born *cold* (reference bit unset): a transient id
        // never consulted again is the very next eviction candidate, while
        // a cell proves itself hot the first time a renewal reads it or a
        // second session folds in. Born-hot cells would make a full table
        // look uniformly referenced and degrade the clock to FIFO —
        // evicting the long-resident cells sitting at the hand first.
        if self.cells.len() < self.cfg.max_tracked as usize {
            self.index.insert(peer, self.cells.len());
            self.cells.push(Cell {
                peer,
                ewma,
                referenced: false,
            });
            return;
        }
        // At the cap: the hand clears reference bits until it finds a cold
        // cell, then replaces it in place. Terminates within two laps.
        loop {
            let cell = &mut self.cells[self.hand];
            if cell.referenced {
                cell.referenced = false;
                self.hand = (self.hand + 1) % self.cells.len();
            } else {
                self.index.remove(&cell.peer);
                cell.peer = peer;
                cell.ewma = ewma;
                cell.referenced = false;
                self.index.insert(peer, self.hand);
                self.hand = (self.hand + 1) % self.cells.len();
                return;
            }
        }
    }

    fn remove_cell(&mut self, i: usize) {
        self.index.remove(&self.cells[i].peer);
        self.cells.swap_remove(i);
        if let Some(moved) = self.cells.get(i) {
            self.index.insert(moved.peer, i);
        }
        if self.hand >= self.cells.len() {
            self.hand = 0;
        }
    }

    /// Peers with recorded history (diagnostics).
    #[cfg(test)]
    pub(crate) fn tracked(&self) -> usize {
        debug_assert_eq!(self.cells.len(), self.index.len());
        self.cells.len()
    }

    /// Streams the cell table + clock hand into `out`. The config is not
    /// written: it lives in the snapshot's config section, and decode
    /// receives it from there.
    pub(crate) fn persist_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.cells.len() as u64);
        for cell in &self.cells {
            put_u64(out, cell.peer.0);
            put_u32(out, cell.ewma);
            put_u8(out, u8::from(cell.referenced));
        }
        put_u64(out, self.hand as u64);
    }

    /// Rebuilds the EWMA state written by [`Self::persist_encode`],
    /// re-deriving the peer index. Fails closed on duplicate peers, a
    /// table above `max_tracked`, or an out-of-range clock hand.
    pub(crate) fn persist_decode(
        cfg: AdaptiveLeaseConfig,
        r: &mut Reader<'_>,
    ) -> Result<Self, PersistError> {
        let n = r.len_prefix(13)?;
        if n > cfg.max_tracked as usize {
            return Err(PersistError::Corrupt(format!(
                "adaptive table holds {n} cells, config caps it at {}",
                cfg.max_tracked
            )));
        }
        let mut cells = Vec::with_capacity(n);
        let mut index = IdMap::with_capacity_and_hasher(n, Default::default());
        for i in 0..n {
            let peer = PeerId(r.u64()?);
            let ewma = r.u32()?;
            let referenced = match r.u8()? {
                0 => false,
                1 => true,
                t => {
                    return Err(PersistError::Corrupt(format!(
                        "adaptive cell {i} has reference tag {t}"
                    )))
                }
            };
            if index.insert(peer, i).is_some() {
                return Err(PersistError::Corrupt(format!(
                    "adaptive table tracks {peer} twice"
                )));
            }
            cells.push(Cell {
                peer,
                ewma,
                referenced,
            });
        }
        let hand = r.u64()? as usize;
        if hand >= cells.len().max(1) {
            return Err(PersistError::Corrupt(format!(
                "adaptive clock hand {hand} out of range for {} cells",
                cells.len()
            )));
        }
        Ok(AdaptiveLeases {
            cfg,
            cells,
            index,
            hand,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_tracked: u32) -> AdaptiveLeaseConfig {
        AdaptiveLeaseConfig {
            ewma_shift: 1,
            margin: 0,
            min_age: 1,
            max_age: 100,
            max_tracked,
        }
    }

    #[test]
    fn ewma_converges_toward_observed_sessions() {
        let mut a = AdaptiveLeases::new(cfg(1024));
        let p = PeerId(1);
        assert_eq!(a.ttl(p), None, "no history yet");
        a.observe(p, 40);
        assert_eq!(a.ttl(p), Some(40), "first sample is taken whole");
        for _ in 0..8 {
            a.observe(p, 4);
        }
        let ttl = a.ttl(p).unwrap();
        assert!(ttl <= 6, "EWMA must track the short sessions, got {ttl}");
        assert_eq!(a.tracked(), 1);
    }

    #[test]
    fn ttl_is_clamped_to_the_configured_band() {
        let mut a = AdaptiveLeases::new(AdaptiveLeaseConfig {
            ewma_shift: 1,
            margin: 2,
            min_age: 3,
            max_age: 8,
            max_tracked: 1024,
        });
        a.observe(PeerId(1), 0);
        assert_eq!(a.ttl(PeerId(1)), Some(3), "floor applies");
        // A capped-out estimate frees its cell: the peer rides the
        // default lease (= the configured max in a consistent
        // deployment), exactly like a history-less one.
        a.observe(PeerId(2), 1_000);
        assert_eq!(a.ttl(PeerId(2)), None, "cap evicts");
        assert_eq!(a.tracked(), 1, "only shorter-than-default peers held");
        a.observe(PeerId(3), 4);
        assert_eq!(a.ttl(PeerId(3)), Some(6), "ewma + margin in band");
        // A long-lived peer turning short-lived re-enters tracking.
        a.observe(PeerId(2), 1);
        assert_eq!(a.ttl(PeerId(2)), Some(3));
    }

    #[test]
    fn transient_id_storm_holds_the_table_at_the_cap() {
        let mut a = AdaptiveLeases::new(cfg(64));
        // Four resident peers with established short-session history.
        for p in 1..=4u64 {
            a.observe(PeerId(p), 3);
        }
        let resident_ttls: Vec<_> = (1..=4u64).map(|p| a.ttl(PeerId(p)).unwrap()).collect();
        // A storm of never-recycled ids, each closing one short session —
        // exactly the workload that used to grow the map without bound.
        // Residents renew (= get re-referenced) faster than the hand laps
        // the table, so second-chance keeps them; transient cells, never
        // touched again, recycle among themselves.
        for wave in 0..200u64 {
            for i in 0..16u64 {
                a.observe(PeerId(1_000_000 + wave * 16 + i), 2);
            }
            for p in 1..=4u64 {
                assert!(a.ttl(PeerId(p)).is_some(), "resident {p} evicted");
            }
        }
        assert_eq!(a.tracked(), 64, "table pinned at max_tracked");
        // No lease-length regression for the residents.
        let after: Vec<_> = (1..=4u64).map(|p| a.ttl(PeerId(p)).unwrap()).collect();
        assert_eq!(after, resident_ttls);
    }

    #[test]
    fn zero_cap_disables_tracking() {
        let mut a = AdaptiveLeases::new(cfg(0));
        a.observe(PeerId(1), 2);
        assert_eq!(a.ttl(PeerId(1)), None);
        assert_eq!(a.tracked(), 0);
    }

    #[test]
    fn persist_roundtrip_preserves_ewmas_reference_bits_and_hand() {
        let mut a = AdaptiveLeases::new(cfg(4));
        for p in 1..=6u64 {
            a.observe(PeerId(p), p);
        }
        // Reference one survivor so bits differ across cells.
        let _ = a.ttl(PeerId(5));

        let mut bytes = Vec::new();
        a.persist_encode(&mut bytes);
        let mut reader = super::Reader::new(&bytes);
        let mut restored = AdaptiveLeases::persist_decode(a.cfg(), &mut reader).unwrap();
        assert_eq!(reader.remaining(), 0);
        assert_eq!(restored.tracked(), a.tracked());
        for p in 1..=6u64 {
            assert_eq!(restored.ttl(PeerId(p)), a.ttl(PeerId(p)), "peer {p}");
        }
        // Future behaviour: the clock evicts the same victim next.
        restored.observe(PeerId(100), 1);
        a.observe(PeerId(100), 1);
        for p in 1..=6u64 {
            assert_eq!(restored.ttl(PeerId(p)), a.ttl(PeerId(p)), "post-evict {p}");
        }
    }

    #[test]
    fn persist_decode_rejects_duplicate_peer_cells() {
        let mut a = AdaptiveLeases::new(cfg(8));
        a.observe(PeerId(3), 2);
        let mut bytes = Vec::new();
        a.persist_encode(&mut bytes);
        // Duplicate the single 13-byte cell and bump the count to 2.
        let cell = bytes[8..21].to_vec();
        bytes.splice(21..21, cell);
        bytes[..8].copy_from_slice(&2u64.to_le_bytes());
        let mut reader = super::Reader::new(&bytes);
        assert!(matches!(
            AdaptiveLeases::persist_decode(a.cfg(), &mut reader),
            Err(super::PersistError::Corrupt(_))
        ));
    }
}
