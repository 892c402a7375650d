//! Standing "watch my `k` nearest" subscriptions over the directory.
//!
//! Polling inverts the paper's economics at scale: every peer re-running
//! `neighbors_of` pays the full query for answers that almost never
//! change. The churn entry points already know exactly which peers each
//! batch touched, so the [`SubscriptionRegistry`] turns that knowledge
//! into **incremental deltas**: a join, leave, expiry or handover
//! re-ranks only the subscriptions whose answer set (or watch path)
//! intersects the touched peers — never the whole population, and never
//! a full query unless an eviction makes the next-best candidate
//! genuinely unknown.
//!
//! The registry is host-agnostic: anything implementing
//! [`SubscriptionHost`] (the [`crate::ManagementServer`], which
//! [`crate::ActorServer`] serves behind a lock) feeds it `observe` calls
//! from its churn entry points and drains [`NeighborDelta`]s per client. The
//! incremental maintenance mirrors `closest_to_path` *exactly* — exact
//! section (ascending `(dtree, peer)`, `dtree` minimal over shared
//! routers) followed by the cross-landmark fill section (ascending
//! `(estimate, peer)`) — so a drained delta stream replayed over the
//! initial snapshot always equals a fresh re-poll; `tests/` pins that
//! equivalence property.
//!
//! Delivery is a per-client queue with the three storm controls the
//! serving plane needs:
//!
//! * **bounded** — one coalesced pending delta per subscription, so the
//!   queue depth can never exceed the number of active subscriptions;
//! * **priority-ordered** — handover > expiry > join when draining;
//! * **rate-limited + coalescing** — a subscription pushes at most once
//!   per `min_interval_ms`; deltas arriving inside the window merge
//!   (an add that is removed again before the push cancels out
//!   entirely), so a churn storm degrades to coarser batches instead of
//!   unbounded fanout.

use crate::directory::query;
use crate::error::CoreError;
use crate::ids::{LandmarkId, PeerId};
use crate::path::PeerPath;
use crate::router_index::Neighbor;
use crate::telemetry::{Counter, Gauge, TelemetryRegistry};
use nearpeer_topology::RouterId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Delivery priority of a delta, ordered `Join < Expiry < Handover`:
/// mobility updates go out first (the peer's old coordinates are
/// actively wrong), then failure evictions, then ordinary churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum DeltaClass {
    /// Ordinary churn: a join or graceful leave touched the answer.
    Join,
    /// A lease expiry (failed peer) touched the answer.
    Expiry,
    /// A mobility handover touched the answer (or re-pathed the watch).
    Handover,
}

impl DeltaClass {
    /// Wire discriminant.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parses a wire discriminant.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(DeltaClass::Join),
            1 => Some(DeltaClass::Expiry),
            2 => Some(DeltaClass::Handover),
            _ => None,
        }
    }
}

/// Parameters of one standing subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subscription {
    /// The subscribing peer (must be registered; the watch query is its
    /// stored path with itself excluded, exactly like `neighbors_of`).
    pub peer: PeerId,
    /// Neighbors watched.
    pub k: usize,
    /// Minimum milliseconds between pushes to this subscription; deltas
    /// inside the window coalesce. `0` = push at every drain.
    pub min_interval_ms: u64,
}

/// One incremental update to a subscription's answer. Applying `removed`
/// (drop those peers) then `added` (upsert, replacing a stale `dtree`)
/// to the previous view yields the new `k`-nearest list; re-sorting by
/// ascending `(dtree, peer)` with the fill section's estimates in place
/// reproduces the exact `closest_to_path` order.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborDelta {
    /// The subscriber.
    pub peer: PeerId,
    /// The server epoch of the last churn event merged into this delta.
    pub epoch: u64,
    /// Highest-priority class among the coalesced events.
    pub class: DeltaClass,
    /// Peers entering the answer (or whose `dtree` changed), with their
    /// fresh distances.
    pub added: Vec<Neighbor>,
    /// Peers leaving the answer.
    pub removed: Vec<PeerId>,
    /// Age of the oldest coalesced-in event at push time (delta latency).
    pub queued_ms: u64,
}

/// Observability counters, exposed like `OracleStats` through the bench
/// swarm's phase reporting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubscriptionStats {
    /// Standing subscriptions currently registered.
    pub active: u64,
    /// Deltas drained to clients.
    pub pushed: u64,
    /// Churn events merged into an already-pending delta instead of
    /// queueing a new one (the coalescing path).
    pub coalesced: u64,
    /// Answer entries that entered *and* left inside one coalescing
    /// window — cancelled outright, never pushed.
    pub dropped_to_coalesce: u64,
    /// Full re-queries forced by evictions (the incremental path could
    /// not know the next-best candidate).
    pub refills: u64,
    /// Subscriptions with a pending (not yet drained) delta.
    pub queue_depth: u64,
    /// High-water mark of `queue_depth` (bounded by `active` by
    /// construction: one pending per subscription).
    pub peak_queue_depth: u64,
}

/// What the registry needs from the directory it watches. Every method
/// is a pure read; hosts call [`SubscriptionRegistry::observe`] *after*
/// the directory mutation completed, so these reads see final state.
pub trait SubscriptionHost {
    /// The stored path of a registered peer.
    fn path_of(&self, peer: PeerId) -> Option<PeerPath>;
    /// The landmark whose router this is, if any.
    fn landmark_at(&self, router: RouterId) -> Option<LandmarkId>;
    /// Bootstrap hop distance between two landmarks (`None` = unknown).
    fn bridge(&self, from: LandmarkId, to: LandmarkId) -> Option<u32>;
    /// Whether `closest_to_path` runs the cross-landmark fill fallback.
    fn fills_enabled(&self) -> bool;
    /// `closest_to_path(path, k, exclude)` split into the full answer
    /// and the length of its exact section (the fill section follows).
    fn query_split(&self, path: &PeerPath, k: usize, exclude: PeerId) -> (Vec<Neighbor>, usize);
}

/// One pending (not yet drained) coalesced delta.
#[derive(Debug)]
struct Pending {
    added: Vec<PendingAdd>,
    removed: Vec<PeerId>,
    class: DeltaClass,
    epoch: u64,
    /// FIFO tiebreaker inside a priority class.
    seq: u64,
    /// When the first event of this pending was observed.
    enqueued_ms: u64,
}

/// One router's watch-path postings plus a pruning bound.
#[derive(Debug)]
struct Posting {
    /// `(sub, hops from subscriber)` entries.
    watchers: Vec<(u32, u32)>,
    /// Stale-high admission bound: at least the max over watchers of
    /// `admission_bound(sub) - hops`. A candidate whose own offset at
    /// this router exceeds it cannot enter any watcher's exact section
    /// through this router, so the whole list is skipped — this is what
    /// keeps a join near a popular router (every subscriber under a
    /// landmark shares its terminal router) from fanning out to all of
    /// them. Raised eagerly wherever a sub's threshold can grow
    /// (subscribe, re-path, refill); lowered lazily on the next walk.
    bound: i64,
}

impl Posting {
    fn new() -> Self {
        Self {
            watchers: Vec::new(),
            bound: i64::MIN,
        }
    }
}

#[derive(Debug)]
struct PendingAdd {
    n: Neighbor,
    /// True when the peer was *not* in the last pushed view — its
    /// removal inside the same window cancels the entry outright.
    fresh: bool,
}

impl Pending {
    /// A peer entered the answer now.
    fn note_add(&mut self, n: Neighbor) {
        if let Some(i) = self.removed.iter().position(|&q| q == n.peer) {
            // Removed earlier in the window: the pushed view had it, so
            // the re-add must not look fresh.
            self.removed.swap_remove(i);
            self.upsert(n, false);
        } else {
            self.upsert(n, true);
        }
    }

    /// A peer stayed in the answer but its distance changed.
    fn note_update(&mut self, n: Neighbor) {
        self.upsert(n, false);
    }

    fn upsert(&mut self, n: Neighbor, fresh_if_new: bool) {
        match self.added.iter_mut().find(|e| e.n.peer == n.peer) {
            Some(e) => e.n = n,
            None => self.added.push(PendingAdd {
                n,
                fresh: fresh_if_new,
            }),
        }
    }

    /// A peer left the answer now. Returns true when the event cancelled
    /// a fresh add (nothing survives to push).
    fn note_remove(&mut self, peer: PeerId) -> bool {
        if let Some(i) = self.added.iter().position(|e| e.n.peer == peer) {
            let fresh = self.added[i].fresh;
            self.added.swap_remove(i);
            if fresh {
                return true;
            }
        }
        if !self.removed.contains(&peer) {
            self.removed.push(peer);
        }
        false
    }

    fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// One live subscription's incremental state.
#[derive(Debug)]
struct SubState {
    peer: PeerId,
    k: usize,
    min_interval_ms: u64,
    client: u64,
    /// The watch query: the subscriber's stored path (re-pathed on its
    /// own handover).
    path: PeerPath,
    /// The watch path's landmark (fill ranking needs the bridge row).
    own_lm: Option<LandmarkId>,
    /// Current answer: exact section (ascending `(dtree, peer)`) then
    /// fill section (ascending `(estimate, peer)`), `closest_to_path`
    /// order by construction.
    answer: Vec<Neighbor>,
    /// Length of the exact section.
    exact_len: usize,
    pending: Option<Pending>,
    last_push_ms: u64,
    /// Transient within one `observe`: an eviction (or re-path) made the
    /// incremental answer unknowable; a full re-query settles it before
    /// `observe` returns.
    dirty: bool,
}

impl SubState {
    /// Largest exact dtree still admissible: `i64::MAX` while the exact
    /// section is short of `k` (every exact candidate enters), the worst
    /// exact member's dtree once it is full (ties still enter on the
    /// peer-id tiebreak, so pruning compares strictly).
    fn admission_bound(&self) -> i64 {
        if self.exact_len < self.k {
            i64::MAX
        } else {
            self.answer[self.k - 1].dtree as i64
        }
    }
}

/// Internal counters, held as shared telemetry handles so a
/// [`TelemetryRegistry`] that adopts them (see
/// [`SubscriptionRegistry::bind_telemetry`]) reads the very same atomics
/// the engine mutates — the legacy [`SubscriptionStats`] snapshot and a
/// live scrape can never disagree. The queue-depth gauge saturates on
/// decrement and tracks its own peak.
#[derive(Debug, Default)]
struct Counters {
    pushed: Arc<Counter>,
    coalesced: Arc<Counter>,
    dropped_to_coalesce: Arc<Counter>,
    refills: Arc<Counter>,
    queue_depth: Arc<Gauge>,
}

/// Per-add scratch slot for the router-walk minimum (generation-stamped
/// so no per-event allocation or clearing).
#[derive(Debug, Default, Clone, Copy)]
struct SeenSlot {
    gen: u64,
    min: u32,
}

/// The standing-subscription engine: registrations, incremental answer
/// maintenance, and the per-client coalescing delivery queues.
///
/// Not a lock or a thread in sight — the registry is plain mutable
/// state; hosts decide how to serialize access (the facade feeds it from
/// its `&mut self` churn entry points, which the actor server calls under
/// its write guard).
#[derive(Debug, Default)]
pub struct SubscriptionRegistry {
    subs: Vec<Option<SubState>>,
    free: Vec<u32>,
    by_peer: HashMap<PeerId, u32>,
    /// Reverse membership: answer member → subscriptions holding it.
    members: HashMap<PeerId, Vec<u32>>,
    /// Watch-path router index: router → posting list. An added peer
    /// walks its own path through this to find every subscription it
    /// could be an exact candidate for (pruned by each posting's
    /// admission bound).
    routers: HashMap<RouterId, Posting>,
    /// Subscriptions whose exact section is short of `k` — the only ones
    /// an added peer can enter through the cross-landmark fill.
    hungry: Vec<u32>,
    clients: HashMap<u64, Vec<u32>>,
    next_client: u64,
    next_seq: u64,
    counters: Counters,
    // Scratch (reused across observe calls).
    seen: Vec<SeenSlot>,
    gen: u64,
    touched: Vec<u32>,
    dirty_subs: Vec<u32>,
    scratch_ids: Vec<u32>,
}

impl SubscriptionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no subscription is active (hosts early-out their churn
    /// hooks on this).
    pub fn is_empty(&self) -> bool {
        self.by_peer.is_empty()
    }

    /// Active subscription count.
    pub fn active(&self) -> usize {
        self.by_peer.len()
    }

    /// Whether `peer` holds a standing subscription.
    pub fn is_subscribed(&self, peer: PeerId) -> bool {
        self.by_peer.contains_key(&peer)
    }

    /// The current answer view of `peer`'s subscription, if any (testing
    /// and introspection; clients maintain this from deltas).
    pub fn answer_of(&self, peer: PeerId) -> Option<&[Neighbor]> {
        let &sid = self.by_peer.get(&peer)?;
        self.subs[sid as usize].as_ref().map(|s| &s.answer[..])
    }

    /// Opens a delivery-queue client (one per connection).
    pub fn open_client(&mut self) -> u64 {
        self.next_client += 1;
        let id = self.next_client;
        self.clients.insert(id, Vec::new());
        id
    }

    /// Closes a client, dropping all its subscriptions and queued deltas.
    pub fn close_client(&mut self, client: u64) {
        let Some(sids) = self.clients.remove(&client) else {
            return;
        };
        for sid in sids {
            if self.subs[sid as usize].is_some() {
                self.drop_sub(sid);
            }
        }
    }

    /// Registers (or replaces) `sub.peer`'s standing subscription and
    /// returns the initial answer snapshot. The peer must be registered
    /// in the directory; its stored path becomes the watch query.
    pub fn subscribe<H: SubscriptionHost>(
        &mut self,
        host: &H,
        client: u64,
        sub: Subscription,
        now_ms: u64,
    ) -> Result<Vec<Neighbor>, CoreError> {
        if sub.k == 0 {
            return Err(CoreError::InvalidConfig(
                "a subscription must watch at least one neighbor".into(),
            ));
        }
        let path = host
            .path_of(sub.peer)
            .ok_or(CoreError::UnknownPeer(sub.peer))?;
        if let Some(&old) = self.by_peer.get(&sub.peer) {
            self.drop_sub(old);
        }
        let (answer, exact_len) = host.query_split(&path, sub.k, sub.peer);
        let own_lm = host.landmark_at(path.landmark_router());
        let sid = match self.free.pop() {
            Some(i) => i,
            None => {
                self.subs.push(None);
                self.seen.push(SeenSlot::default());
                (self.subs.len() - 1) as u32
            }
        };
        let thr = if exact_len < sub.k {
            i64::MAX
        } else {
            answer[sub.k - 1].dtree as i64
        };
        for (r, off) in path.with_depths() {
            let posting = self.routers.entry(r).or_insert_with(Posting::new);
            posting.watchers.push((sid, off));
            posting.bound = posting.bound.max(thr.saturating_sub(off as i64));
        }
        for n in &answer {
            self.members.entry(n.peer).or_default().push(sid);
        }
        if host.fills_enabled() && exact_len < sub.k {
            self.hungry.push(sid);
        }
        self.by_peer.insert(sub.peer, sid);
        self.clients.entry(client).or_default().push(sid);
        self.subs[sid as usize] = Some(SubState {
            peer: sub.peer,
            k: sub.k,
            min_interval_ms: sub.min_interval_ms,
            client,
            path,
            own_lm,
            answer: answer.clone(),
            exact_len,
            pending: None,
            last_push_ms: now_ms,
            dirty: false,
        });
        Ok(answer)
    }

    /// Cancels `peer`'s subscription (with any queued delta). Returns
    /// whether one existed.
    pub fn unsubscribe(&mut self, peer: PeerId) -> bool {
        match self.by_peer.get(&peer) {
            Some(&sid) => {
                self.drop_sub(sid);
                true
            }
            None => false,
        }
    }

    /// Feeds one churn event batch through the incremental engine. Hosts
    /// call this from every churn entry point *after* the directory
    /// mutation, passing the touched peers: `added` for fresh joins (and
    /// the re-added peer of a handover), `removed` for leaves, expiries
    /// and the handover teardown. A peer in both lists is a handover:
    /// its own subscription re-paths instead of dying.
    pub fn observe<H: SubscriptionHost>(
        &mut self,
        host: &H,
        class: DeltaClass,
        epoch: u64,
        now_ms: u64,
        added: &[PeerId],
        removed: &[PeerId],
    ) {
        if self.by_peer.is_empty() {
            return;
        }
        debug_assert!(self.dirty_subs.is_empty());

        // --- Removals -------------------------------------------------
        for &p in removed {
            // A departed subscriber's subscription dies with its
            // registration — unless the same observe re-adds the peer
            // (handover: the watch re-paths below instead).
            if let Some(&sid) = self.by_peer.get(&p) {
                if !added.contains(&p) {
                    self.drop_sub(sid);
                }
            }
            let Some(mut holders) = self.members.remove(&p) else {
                continue;
            };
            holders.retain(|&sid| self.member_removed(sid, p, class, epoch, now_ms));
            // A handed-over `p` is re-added below and may stay in the
            // answers of holders left dirty: it stays their member, so a
            // later removal of `p` still reaches them.
            if !holders.is_empty() && added.contains(&p) {
                self.members.insert(p, holders);
            }
        }

        // --- Re-path subscribers that moved ---------------------------
        for &p in added {
            if let Some(&sid) = self.by_peer.get(&p) {
                if let Some(new_path) = host.path_of(p) {
                    self.rewatch(host, sid, new_path);
                }
            }
        }

        // --- Additions ------------------------------------------------
        for &p in added {
            let Some(path) = host.path_of(p) else {
                // Not registered any more: nothing to rank, and the
                // matching removal observe keeps the answers consistent.
                continue;
            };
            self.peer_added(host, p, &path, class, epoch, now_ms);
        }

        // --- Settle evictions with full re-queries --------------------
        for i in 0..self.dirty_subs.len() {
            let sid = self.dirty_subs[i];
            self.refill(host, sid, class, epoch, now_ms);
        }
        self.dirty_subs.clear();
    }

    /// Drains up to `max` eligible pending deltas for `client`, highest
    /// priority class first (FIFO within a class), respecting each
    /// subscription's `min_interval_ms` against `now_ms`.
    pub fn drain(&mut self, client: u64, now_ms: u64, max: usize, out: &mut Vec<NeighborDelta>) {
        let Some(sids) = self.clients.get(&client) else {
            return;
        };
        // (inverted class, seq): sorts handover-first, then FIFO.
        let mut eligible: Vec<(u8, u64, u32)> = Vec::new();
        for &sid in sids {
            let Some(s) = self.subs[sid as usize].as_ref() else {
                continue;
            };
            if let Some(p) = &s.pending {
                if now_ms >= s.last_push_ms.saturating_add(s.min_interval_ms) {
                    eligible.push((u8::MAX - p.class.code(), p.seq, sid));
                }
            }
        }
        eligible.sort_unstable();
        for &(_, _, sid) in eligible.iter().take(max) {
            let s = self.subs[sid as usize].as_mut().expect("eligible sub");
            let p = s.pending.take().expect("eligible pending");
            s.last_push_ms = now_ms;
            self.counters.queue_depth.sub(1);
            self.counters.pushed.inc();
            out.push(NeighborDelta {
                peer: s.peer,
                epoch: p.epoch,
                class: p.class,
                added: p.added.into_iter().map(|e| e.n).collect(),
                removed: p.removed,
                queued_ms: now_ms.saturating_sub(p.enqueued_ms),
            });
        }
    }

    /// The live count of undrained pending deltas, summed over every
    /// client. It is raised before the registry call that queued a delta
    /// returns, so a host that serializes the registry behind a lock can
    /// read this first and skip the lock (and [`Self::drain`]) at zero.
    pub fn queue_depth(&self) -> Arc<Gauge> {
        self.counters.queue_depth.clone()
    }

    /// Counter snapshot. Safe under a concurrent scrape: every field is
    /// one atomic read, and `queue_depth` saturates rather than
    /// underflowing, so the snapshot never shows an inverted pair.
    pub fn stats(&self) -> SubscriptionStats {
        SubscriptionStats {
            active: self.by_peer.len() as u64,
            pushed: self.counters.pushed.get(),
            coalesced: self.counters.coalesced.get(),
            dropped_to_coalesce: self.counters.dropped_to_coalesce.get(),
            refills: self.counters.refills.get(),
            queue_depth: self.counters.queue_depth.get(),
            peak_queue_depth: self.counters.queue_depth.peak(),
        }
    }

    /// Adopts this registry's counters into `reg` under `sub_*` names,
    /// making the engine's own atomics scrapeable live.
    pub fn bind_telemetry(&self, reg: &TelemetryRegistry) {
        reg.adopt_counter("sub_pushed_total", "", self.counters.pushed.clone());
        reg.adopt_counter("sub_coalesced_total", "", self.counters.coalesced.clone());
        reg.adopt_counter(
            "sub_dropped_to_coalesce_total",
            "",
            self.counters.dropped_to_coalesce.clone(),
        );
        reg.adopt_counter("sub_refills_total", "", self.counters.refills.clone());
        reg.adopt_gauge("sub_queue_depth", "", self.counters.queue_depth.clone());
    }

    // --- internals ----------------------------------------------------

    /// Gets-or-creates the pending delta of `sub`, merging class/epoch.
    fn pend<'a>(
        counters: &mut Counters,
        next_seq: &mut u64,
        s: &'a mut SubState,
        class: DeltaClass,
        epoch: u64,
        now_ms: u64,
    ) -> &'a mut Pending {
        if s.pending.is_some() {
            counters.coalesced.inc();
        } else {
            *next_seq += 1;
            counters.queue_depth.add(1); // the gauge tracks its own peak
            s.pending = Some(Pending {
                added: Vec::new(),
                removed: Vec::new(),
                class,
                epoch,
                seq: *next_seq,
                enqueued_ms: now_ms,
            });
        }
        let p = s.pending.as_mut().expect("just ensured");
        p.class = p.class.max(class);
        p.epoch = epoch;
        p
    }

    /// Drops a now-empty pending (everything cancelled out).
    fn settle_pending(counters: &mut Counters, s: &mut SubState) {
        if s.pending.as_ref().is_some_and(Pending::is_empty) {
            s.pending = None;
            counters.queue_depth.sub(1);
        }
    }

    /// One subscription lost answer member `p`. Returns whether `p` stays
    /// in the answer until the subscription's refill.
    fn member_removed(
        &mut self,
        sid: u32,
        p: PeerId,
        class: DeltaClass,
        epoch: u64,
        now_ms: u64,
    ) -> bool {
        let s = self.subs[sid as usize]
            .as_mut()
            .expect("members index is coherent");
        if s.dirty {
            return true; // the refill diff will account for p too
        }
        let Some(idx) = s.answer.iter().position(|n| n.peer == p) else {
            return false;
        };
        if s.answer.len() == s.k {
            // The answer was full: the evicted (k+1)-th candidate is
            // unknown to the incremental view — settle with a re-query.
            s.dirty = true;
            self.dirty_subs.push(sid);
            return true;
        }
        // Short answer = every candidate is already in it; dropping the
        // departed member keeps that invariant, no refill needed.
        s.answer.remove(idx);
        if idx < s.exact_len {
            s.exact_len -= 1;
        }
        let pending = Self::pend(
            &mut self.counters,
            &mut self.next_seq,
            s,
            class,
            epoch,
            now_ms,
        );
        if pending.note_remove(p) {
            self.counters.dropped_to_coalesce.inc();
        }
        Self::settle_pending(&mut self.counters, s);
        false
    }

    /// A peer entered the directory: offer it to every subscription it
    /// could improve — exact candidates through the watch-path router
    /// index, fill candidates through the hungry set.
    fn peer_added<H: SubscriptionHost>(
        &mut self,
        host: &H,
        p: PeerId,
        path: &PeerPath,
        class: DeltaClass,
        epoch: u64,
        now_ms: u64,
    ) {
        // Exact pass: walk the added peer's path through the watch-path
        // router index; a shared router at offsets (q, d) witnesses a
        // candidate dtree of q + d, and the minimum over shared routers
        // is exactly `PeerPath::dtree`.
        self.gen += 1;
        self.touched.clear();
        for (r, p_off) in path.with_depths() {
            let Some(posting) = self.routers.get_mut(&r) else {
                continue;
            };
            if (p_off as i64) > posting.bound {
                continue; // no watcher here can admit a candidate this deep
            }
            let mut fresh_bound = i64::MIN;
            for &(sid, q_off) in &posting.watchers {
                let thr = self.subs[sid as usize]
                    .as_ref()
                    .expect("router index is coherent")
                    .admission_bound();
                fresh_bound = fresh_bound.max(thr.saturating_sub(q_off as i64));
                let d = q_off + p_off;
                if d as i64 > thr {
                    continue; // cannot enter this watcher via this router
                }
                let slot = &mut self.seen[sid as usize];
                if slot.gen != self.gen {
                    slot.gen = self.gen;
                    slot.min = d;
                    self.touched.push(sid);
                } else if d < slot.min {
                    slot.min = d;
                }
            }
            posting.bound = fresh_bound;
        }
        for i in 0..self.touched.len() {
            let sid = self.touched[i];
            let d = self.seen[sid as usize].min;
            self.offer_exact(sid, p, d, class, epoch, now_ms);
        }

        // Fill pass: only subscriptions short of exact candidates can
        // gain a cross-landmark fill, and only from a peer whose path
        // traverses some other landmark's router.
        if self.hungry.is_empty() || !host.fills_enabled() {
            return;
        }
        let lm_hits: Vec<(LandmarkId, u32)> = path
            .with_depths()
            .filter_map(|(r, d)| host.landmark_at(r).map(|lm| (lm, d)))
            .collect();
        if lm_hits.is_empty() {
            return;
        }
        self.scratch_ids.clear();
        self.scratch_ids.extend_from_slice(&self.hungry);
        for i in 0..self.scratch_ids.len() {
            let sid = self.scratch_ids[i];
            self.offer_fill(host, sid, p, &lm_hits, class, epoch, now_ms);
        }
    }

    /// Offers exact candidate `(p, d)` to subscription `sid`.
    fn offer_exact(
        &mut self,
        sid: u32,
        p: PeerId,
        d: u32,
        class: DeltaClass,
        epoch: u64,
        now_ms: u64,
    ) {
        let s = self.subs[sid as usize]
            .as_mut()
            .expect("router index is coherent");
        if s.dirty || s.peer == p || s.answer.iter().any(|n| n.peer == p) {
            return;
        }
        let key = (d, p);
        if s.exact_len < s.k {
            // The exact section holds *every* exact candidate while it
            // is short of k — the newcomer always enters, evicting the
            // worst fill if the answer overflows.
            let pos = s.answer[..s.exact_len].partition_point(|n| (n.dtree, n.peer) < key);
            s.answer.insert(pos, Neighbor { peer: p, dtree: d });
            s.exact_len += 1;
            let evicted = (s.answer.len() > s.k).then(|| s.answer.pop().expect("overflow"));
            if s.exact_len == s.k {
                if let Some(i) = self.hungry.iter().position(|&x| x == sid) {
                    self.hungry.swap_remove(i);
                }
            }
            let pending = Self::pend(
                &mut self.counters,
                &mut self.next_seq,
                s,
                class,
                epoch,
                now_ms,
            );
            pending.note_add(Neighbor { peer: p, dtree: d });
            if let Some(ev) = evicted {
                if pending.note_remove(ev.peer) {
                    self.counters.dropped_to_coalesce.inc();
                }
            }
            Self::settle_pending(&mut self.counters, s);
            self.members.entry(p).or_default().push(sid);
            if let Some(ev) = evicted {
                if let Some(holders) = self.members.get_mut(&ev.peer) {
                    holders.retain(|&x| x != sid);
                }
            }
        } else {
            // Full exact section (no fills exist then): displace the
            // worst exact member if the newcomer beats it.
            let worst = s.answer[s.k - 1];
            if key >= (worst.dtree, worst.peer) {
                return;
            }
            s.answer.pop();
            let pos = s.answer.partition_point(|n| (n.dtree, n.peer) < key);
            s.answer.insert(pos, Neighbor { peer: p, dtree: d });
            let pending = Self::pend(
                &mut self.counters,
                &mut self.next_seq,
                s,
                class,
                epoch,
                now_ms,
            );
            pending.note_add(Neighbor { peer: p, dtree: d });
            if pending.note_remove(worst.peer) {
                self.counters.dropped_to_coalesce.inc();
            }
            Self::settle_pending(&mut self.counters, s);
            self.members.entry(p).or_default().push(sid);
            if let Some(holders) = self.members.get_mut(&worst.peer) {
                holders.retain(|&x| x != sid);
            }
        }
    }

    /// Offers fill candidate `p` (landmark traversals `lm_hits`) to the
    /// hungry subscription `sid`.
    #[allow(clippy::too_many_arguments)]
    fn offer_fill<H: SubscriptionHost>(
        &mut self,
        host: &H,
        sid: u32,
        p: PeerId,
        lm_hits: &[(LandmarkId, u32)],
        class: DeltaClass,
        epoch: u64,
        now_ms: u64,
    ) {
        let s = self.subs[sid as usize].as_mut().expect("hungry sub alive");
        if s.dirty || s.peer == p || s.answer.iter().any(|n| n.peer == p) {
            return;
        }
        let Some(own) = s.own_lm else {
            return;
        };
        // The fill merge ranks a peer by the best cursor it appears on:
        // min over traversed foreign landmark routers of
        // depth(query) + bridge + depth-below-that-router, summed wide.
        let mut est: Option<u64> = None;
        for &(lm, depth) in lm_hits {
            if lm == own {
                continue;
            }
            if let Some(bridge) = host.bridge(own, lm) {
                let e = query::fill_base(s.path.depth(), bridge) + u64::from(depth);
                est = Some(est.map_or(e, |cur| cur.min(e)));
            }
        }
        let Some(e) = est else {
            return;
        };
        // A saturated estimate cannot be placed by its reported value: the
        // merge ranks every peer at u32::MAX by its exact sum. Settle with
        // a re-query instead.
        let Some(e) = u32::try_from(e).ok().filter(|&e| e < u32::MAX) else {
            s.dirty = true;
            self.dirty_subs.push(sid);
            return;
        };
        debug_assert!(s.exact_len < s.k, "hungry set is coherent");
        let key = (e, p);
        if s.answer.len() == s.k {
            let worst = *s.answer.last().expect("full answer");
            if key >= (worst.dtree, worst.peer) {
                return;
            }
            s.answer.pop();
            let pos =
                s.exact_len + s.answer[s.exact_len..].partition_point(|n| (n.dtree, n.peer) < key);
            s.answer.insert(pos, Neighbor { peer: p, dtree: e });
            let pending = Self::pend(
                &mut self.counters,
                &mut self.next_seq,
                s,
                class,
                epoch,
                now_ms,
            );
            pending.note_add(Neighbor { peer: p, dtree: e });
            if pending.note_remove(worst.peer) {
                self.counters.dropped_to_coalesce.inc();
            }
            Self::settle_pending(&mut self.counters, s);
            self.members.entry(p).or_default().push(sid);
            if let Some(holders) = self.members.get_mut(&worst.peer) {
                holders.retain(|&x| x != sid);
            }
        } else {
            // Short answer holds every candidate: the newcomer joins the
            // fill section at its sorted slot.
            let pos =
                s.exact_len + s.answer[s.exact_len..].partition_point(|n| (n.dtree, n.peer) < key);
            s.answer.insert(pos, Neighbor { peer: p, dtree: e });
            let pending = Self::pend(
                &mut self.counters,
                &mut self.next_seq,
                s,
                class,
                epoch,
                now_ms,
            );
            pending.note_add(Neighbor { peer: p, dtree: e });
            Self::settle_pending(&mut self.counters, s);
            self.members.entry(p).or_default().push(sid);
        }
    }

    /// The subscriber itself moved: swap the watch path and settle with
    /// a refill (the whole ranking basis changed).
    fn rewatch<H: SubscriptionHost>(&mut self, host: &H, sid: u32, new_path: PeerPath) {
        let s = self.subs[sid as usize].as_mut().expect("sub alive");
        if s.path == new_path {
            return;
        }
        let thr = s.admission_bound();
        for r in s.path.routers() {
            if let Some(posting) = self.routers.get_mut(r) {
                posting.watchers.retain(|&(x, _)| x != sid);
                if posting.watchers.is_empty() {
                    self.routers.remove(r);
                }
            }
        }
        for (r, off) in new_path.with_depths() {
            let posting = self.routers.entry(r).or_insert_with(Posting::new);
            posting.watchers.push((sid, off));
            posting.bound = posting.bound.max(thr.saturating_sub(off as i64));
        }
        s.own_lm = host.landmark_at(new_path.landmark_router());
        s.path = new_path;
        if !s.dirty {
            s.dirty = true;
            self.dirty_subs.push(sid);
        }
    }

    /// Settles a dirty subscription with a full re-query, diffing old
    /// against new to emit the exact delta.
    fn refill<H: SubscriptionHost>(
        &mut self,
        host: &H,
        sid: u32,
        class: DeltaClass,
        epoch: u64,
        now_ms: u64,
    ) {
        let Some(s) = self.subs[sid as usize].as_ref() else {
            return; // dropped between marking and settling
        };
        if !s.dirty {
            return;
        }
        let (peer, k, path) = (s.peer, s.k, s.path.clone());
        let (new, new_exact) = host.query_split(&path, k, peer);
        self.counters.refills.inc();
        let s = self.subs[sid as usize].as_mut().expect("still alive");
        let mut note_removed: Vec<PeerId> = Vec::new();
        let mut note_added: Vec<Neighbor> = Vec::new();
        let mut note_updated: Vec<Neighbor> = Vec::new();
        for old in &s.answer {
            if !new.iter().any(|n| n.peer == old.peer) {
                note_removed.push(old.peer);
            }
        }
        for n in &new {
            match s.answer.iter().find(|o| o.peer == n.peer) {
                None => note_added.push(*n),
                Some(o) if o.dtree != n.dtree => note_updated.push(*n),
                Some(_) => {}
            }
        }
        if !(note_removed.is_empty() && note_added.is_empty() && note_updated.is_empty()) {
            let pending = Self::pend(
                &mut self.counters,
                &mut self.next_seq,
                s,
                class,
                epoch,
                now_ms,
            );
            for &p in &note_removed {
                if pending.note_remove(p) {
                    self.counters.dropped_to_coalesce.inc();
                }
            }
            for &n in &note_added {
                pending.note_add(n);
            }
            for &n in &note_updated {
                pending.note_update(n);
            }
            Self::settle_pending(&mut self.counters, s);
        }
        s.answer = new;
        s.exact_len = new_exact;
        s.dirty = false;
        // The re-query can *raise* the admission threshold (a nearer
        // member evicted for a farther one, or the answer going short):
        // the posting bounds along the watch path must keep up.
        let thr = s.admission_bound();
        for (r, off) in path.with_depths() {
            if let Some(posting) = self.routers.get_mut(&r) {
                posting.bound = posting.bound.max(thr.saturating_sub(off as i64));
            }
        }
        let hungry_now = host.fills_enabled() && new_exact < k;
        for &p in &note_removed {
            if let Some(holders) = self.members.get_mut(&p) {
                holders.retain(|&x| x != sid);
                if holders.is_empty() {
                    self.members.remove(&p);
                }
            }
        }
        for n in &note_added {
            self.members.entry(n.peer).or_default().push(sid);
        }
        let pos = self.hungry.iter().position(|&x| x == sid);
        match (hungry_now, pos) {
            (true, None) => self.hungry.push(sid),
            (false, Some(i)) => {
                self.hungry.swap_remove(i);
            }
            _ => {}
        }
    }

    /// Tears one subscription down completely.
    fn drop_sub(&mut self, sid: u32) {
        let s = self.subs[sid as usize].take().expect("sub alive");
        self.by_peer.remove(&s.peer);
        if let Some(sids) = self.clients.get_mut(&s.client) {
            sids.retain(|&x| x != sid);
        }
        for r in s.path.routers() {
            if let Some(posting) = self.routers.get_mut(r) {
                posting.watchers.retain(|&(x, _)| x != sid);
                if posting.watchers.is_empty() {
                    self.routers.remove(r);
                }
            }
        }
        for n in &s.answer {
            if let Some(holders) = self.members.get_mut(&n.peer) {
                holders.retain(|&x| x != sid);
                if holders.is_empty() {
                    self.members.remove(&n.peer);
                }
            }
        }
        if let Some(i) = self.hungry.iter().position(|&x| x == sid) {
            self.hungry.swap_remove(i);
        }
        if s.pending.is_some() {
            self.counters.queue_depth.sub(1);
        }
        self.free.push(sid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ManagementServer, ServerConfig};

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    /// Two landmarks (routers 0 and 100), 5 hops apart.
    fn server() -> ManagementServer {
        ManagementServer::new(
            vec![RouterId(0), RouterId(100)],
            vec![vec![0, 5], vec![5, 0]],
            ServerConfig::default(),
        )
    }

    fn watch(peer: PeerId, k: usize) -> Subscription {
        Subscription {
            peer,
            k,
            min_interval_ms: 0,
        }
    }

    /// Applies a delta stream to a client-side view (removed, then added
    /// as upserts) — the documented client contract.
    fn apply(view: &mut Vec<Neighbor>, d: &NeighborDelta) {
        view.retain(|n| !d.removed.contains(&n.peer));
        for a in &d.added {
            match view.iter_mut().find(|n| n.peer == a.peer) {
                Some(n) => n.dtree = a.dtree,
                None => view.push(*a),
            }
        }
    }

    /// Set-with-distances equality (the concatenated exact+fill answer is
    /// not globally sorted, so views compare as sets).
    fn same_view(mut a: Vec<Neighbor>, mut b: Vec<Neighbor>) -> bool {
        a.sort_unstable_by_key(|n| n.peer);
        b.sort_unstable_by_key(|n| n.peer);
        a == b
    }

    #[test]
    fn join_pushes_added_delta_matching_repoll() {
        let mut srv = server();
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        let client = srv.open_sub_client();
        let mut view = srv.subscribe(client, watch(PeerId(1), 2)).unwrap();
        assert_eq!(
            view,
            vec![Neighbor {
                peer: PeerId(2),
                dtree: 2
            }]
        );

        srv.register(PeerId(3), path(&[6, 3, 1, 0])).unwrap();
        let mut deltas = Vec::new();
        srv.drain_deltas(client, 16, &mut deltas);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].class, DeltaClass::Join);
        for d in &deltas {
            apply(&mut view, d);
        }
        assert!(same_view(view, srv.neighbors_of(PeerId(1), 2).unwrap()));
    }

    /// A member that hands over inside a full answer stays a member: its
    /// later departure must still reach the watcher.
    #[test]
    fn handover_then_leave_of_a_member_reaches_the_watcher() {
        let mut srv = server();
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        srv.register(PeerId(3), path(&[6, 3, 1, 0])).unwrap();
        srv.register(PeerId(4), path(&[7, 3, 1, 0])).unwrap();
        let client = srv.open_sub_client();
        // k=2: answer [2 (dtree 2), 3 (dtree 4)]; 4 is the runner-up.
        let mut view = srv.subscribe(client, watch(PeerId(1), 2)).unwrap();
        srv.handover(PeerId(2), path(&[8, 2, 1, 0])).unwrap();
        srv.deregister(PeerId(2)).unwrap();
        let mut deltas = Vec::new();
        srv.drain_deltas(client, 16, &mut deltas);
        for d in &deltas {
            apply(&mut view, d);
        }
        assert!(same_view(view, srv.neighbors_of(PeerId(1), 2).unwrap()));
    }

    /// A peer that moved away and came back under another landmark is
    /// live: sweeping its old forwarding tombstone must not remove it
    /// from the answers it is in.
    #[test]
    fn a_swept_tombstone_does_not_remove_a_returned_peer() {
        let mut srv = server();
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        let client = srv.open_sub_client();
        let mut view = srv.subscribe(client, watch(PeerId(1), 3)).unwrap();
        srv.advance_epoch();
        srv.deregister_forwarding(PeerId(2), 7).unwrap();
        // Back under landmark 100: a fill of peer 1's short answer.
        srv.register(PeerId(2), path(&[9, 101, 100])).unwrap();
        for _ in 0..4 {
            srv.advance_epoch();
            srv.heartbeat(PeerId(1)).unwrap();
            srv.heartbeat(PeerId(2)).unwrap();
        }
        let sweep = srv.expire_stale_full(2);
        assert_eq!((sweep.moved.len(), sweep.expired.len()), (1, 0));
        let mut deltas = Vec::new();
        srv.drain_deltas(client, 16, &mut deltas);
        for d in &deltas {
            apply(&mut view, d);
        }
        assert!(same_view(view, srv.neighbors_of(PeerId(1), 3).unwrap()));
    }

    #[test]
    fn add_then_remove_inside_window_cancels_out() {
        let mut srv = server();
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        let client = srv.open_sub_client();
        srv.subscribe(client, watch(PeerId(1), 4)).unwrap();

        srv.register(PeerId(3), path(&[6, 2, 1, 0])).unwrap();
        srv.deregister(PeerId(3)).unwrap();
        let stats = srv.subscription_stats();
        assert_eq!(stats.queue_depth, 0, "fresh add + remove cancels");
        assert!(stats.dropped_to_coalesce >= 1);
        let mut deltas = Vec::new();
        srv.drain_deltas(client, 16, &mut deltas);
        assert!(deltas.is_empty());
    }

    #[test]
    fn eviction_forces_refill_matching_repoll() {
        let mut srv = server();
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        srv.register(PeerId(3), path(&[6, 3, 1, 0])).unwrap();
        let client = srv.open_sub_client();
        // k=1: answer [2] (dtree 2); 3 (dtree 4) is the hidden runner-up.
        let mut view = srv.subscribe(client, watch(PeerId(1), 1)).unwrap();
        assert_eq!(
            view,
            vec![Neighbor {
                peer: PeerId(2),
                dtree: 2
            }]
        );

        srv.deregister(PeerId(2)).unwrap();
        assert_eq!(srv.subscription_stats().refills, 1);
        let mut deltas = Vec::new();
        srv.drain_deltas(client, 16, &mut deltas);
        for d in &deltas {
            apply(&mut view, d);
        }
        assert!(same_view(view, srv.neighbors_of(PeerId(1), 1).unwrap()));
        assert_eq!(
            deltas[0].removed,
            vec![PeerId(2)],
            "eviction surfaces as removed + the refilled runner-up"
        );
    }

    #[test]
    fn handover_outranks_join_when_draining() {
        let mut srv = server();
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        srv.register(PeerId(10), path(&[104, 102, 101, 100]))
            .unwrap();
        srv.register(PeerId(11), path(&[105, 102, 101, 100]))
            .unwrap();
        let client = srv.open_sub_client();
        srv.subscribe(client, watch(PeerId(1), 1)).unwrap();
        srv.subscribe(client, watch(PeerId(10), 1)).unwrap();

        // Join-class delta for sub(1) first (peer 3 at dtree 1 displaces
        // peer 2 at dtree 2), then a handover moving peer 11 further from
        // peer 10 (dtree 2 → 4): the handover must drain first despite
        // arriving later.
        srv.register(PeerId(3), path(&[9, 4, 2, 1, 0])).unwrap();
        srv.handover(PeerId(11), path(&[106, 103, 101, 100]))
            .unwrap();
        let mut deltas = Vec::new();
        srv.drain_deltas(client, 16, &mut deltas);
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].peer, PeerId(10));
        assert_eq!(deltas[0].class, DeltaClass::Handover);
        assert_eq!(deltas[1].peer, PeerId(1));
        assert_eq!(deltas[1].class, DeltaClass::Join);
    }

    #[test]
    fn min_interval_rate_limits_and_coalesces() {
        let mut srv = server();
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        let client = srv.open_sub_client();
        let mut view = srv
            .subscribe(
                client,
                Subscription {
                    peer: PeerId(1),
                    k: 4,
                    min_interval_ms: 1000,
                },
            )
            .unwrap();

        srv.register(PeerId(3), path(&[6, 2, 1, 0])).unwrap();
        srv.register(PeerId(4), path(&[7, 2, 1, 0])).unwrap();
        let mut deltas = Vec::new();
        srv.drain_deltas(client, 16, &mut deltas);
        assert!(deltas.is_empty(), "inside the window nothing drains");
        assert!(srv.subscription_stats().coalesced >= 1);
        assert_eq!(srv.subscription_stats().queue_depth, 1);

        srv.set_sub_clock_ms(1000);
        srv.drain_deltas(client, 16, &mut deltas);
        assert_eq!(deltas.len(), 1, "one coalesced delta after the window");
        assert_eq!(deltas[0].queued_ms, 1000);
        for d in &deltas {
            apply(&mut view, d);
        }
        assert!(same_view(view, srv.neighbors_of(PeerId(1), 4).unwrap()));
    }

    #[test]
    fn churn_storm_stays_bounded() {
        let mut srv = server();
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        let client = srv.open_sub_client();
        let mut view = srv.subscribe(client, watch(PeerId(1), 8)).unwrap();
        for round in 0..50u64 {
            let batch: Vec<(PeerId, PeerPath)> = (0..10)
                .map(|i| (PeerId(1000 + i), path(&[200 + i as u32, 2, 1, 0])))
                .collect();
            srv.register_batch(batch);
            let leave: Vec<PeerId> = (0..10)
                .map(PeerId)
                .map(|PeerId(i)| PeerId(1000 + i))
                .collect();
            srv.leave_batch(&leave);
            let stats = srv.subscription_stats();
            assert!(
                stats.queue_depth <= stats.active,
                "round {round}: one pending per subscription, never more"
            );
        }
        let stats = srv.subscription_stats();
        assert!(stats.coalesced > 0, "storm must coalesce");
        assert!(stats.peak_queue_depth <= 1);
        let mut deltas = Vec::new();
        srv.drain_deltas(client, 16, &mut deltas);
        for d in &deltas {
            apply(&mut view, d);
        }
        assert!(same_view(view, srv.neighbors_of(PeerId(1), 8).unwrap()));
    }

    #[test]
    fn subscriber_handover_rewatches_from_new_path() {
        let mut srv = server();
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        srv.register(PeerId(10), path(&[104, 102, 101, 100]))
            .unwrap();
        let client = srv.open_sub_client();
        let mut view = srv.subscribe(client, watch(PeerId(1), 2)).unwrap();

        // The subscriber moves to the other landmark: its answer must be
        // recomputed from the new path, not patched from the old one.
        srv.handover(PeerId(1), path(&[105, 102, 101, 100]))
            .unwrap();
        let mut deltas = Vec::new();
        srv.drain_deltas(client, 16, &mut deltas);
        for d in &deltas {
            apply(&mut view, d);
        }
        assert!(same_view(view, srv.neighbors_of(PeerId(1), 2).unwrap()));
        assert!(srv.subscription_stats().active == 1);
    }

    #[test]
    fn departed_subscriber_is_auto_unsubscribed() {
        let mut srv = server();
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        let client = srv.open_sub_client();
        srv.subscribe(client, watch(PeerId(1), 2)).unwrap();
        srv.subscribe(client, watch(PeerId(2), 2)).unwrap();
        assert_eq!(srv.subscription_stats().active, 2);

        srv.deregister(PeerId(2)).unwrap();
        let stats = srv.subscription_stats();
        assert_eq!(stats.active, 1, "departure cancels the subscription");
        // Peer 1's subscription saw peer 2 leave.
        let mut deltas = Vec::new();
        srv.drain_deltas(client, 16, &mut deltas);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].removed, vec![PeerId(2)]);
    }

    #[test]
    fn close_client_drops_subscriptions_and_queue() {
        let mut srv = server();
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        let client = srv.open_sub_client();
        srv.subscribe(client, watch(PeerId(1), 2)).unwrap();
        srv.register(PeerId(3), path(&[6, 2, 1, 0])).unwrap();
        assert_eq!(srv.subscription_stats().queue_depth, 1);
        srv.close_sub_client(client);
        let stats = srv.subscription_stats();
        assert_eq!(stats.active, 0);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn cross_landmark_fill_tracks_foreign_joins() {
        let mut srv = server();
        // Lone peer at landmark 0: k=2 leaves the answer hungry.
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        let client = srv.open_sub_client();
        let mut view = srv.subscribe(client, watch(PeerId(1), 2)).unwrap();
        assert!(view.is_empty());

        // A foreign join fills the short answer through the bridge
        // estimate: depth(query)=3 + bridge(5) + depth of landmark router
        // in the joiner's path (3) = 11.
        srv.register(PeerId(10), path(&[104, 102, 101, 100]))
            .unwrap();
        let mut deltas = Vec::new();
        srv.drain_deltas(client, 16, &mut deltas);
        for d in &deltas {
            apply(&mut view, d);
        }
        assert!(same_view(
            view.clone(),
            srv.neighbors_of(PeerId(1), 2).unwrap()
        ));
        assert_eq!(
            view,
            vec![Neighbor {
                peer: PeerId(10),
                dtree: 11
            }]
        );
    }

    /// A bridge just below the "unknown" marker is accepted by every
    /// constructor. Fill estimates are summed wide and reported saturated
    /// at `u32::MAX` by the server, the federation (synchronous and
    /// framed) and the incremental engine alike: nothing wraps to the
    /// front, saturated peers rank by their exact sums, and the deltas
    /// still equal a re-poll.
    #[test]
    fn bridge_near_u32_max_saturates_and_deltas_match_repoll() {
        use crate::{ActorFederation, Federation, FederationConfig};
        let routers = vec![RouterId(0), RouterId(100)];
        let bridge = u32::MAX - 1;
        let dist = vec![vec![0, bridge], vec![bridge, 0]];
        let mut srv = ManagementServer::new(routers.clone(), dist.clone(), ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        let client = srv.open_sub_client();
        // k = 1: the one fill slot goes to the exact-nearest foreign peer,
        // whatever the peer ids of the saturated candidates.
        let mut view = srv.subscribe(client, watch(PeerId(1), 1)).unwrap();
        assert!(view.is_empty());
        // Two foreign joins; 3 + bridge + depth exceeds u32::MAX for both,
        // by 4 for peer 11 and by 5 for peer 10.
        let foreign = [
            (PeerId(11), path(&[105, 101, 100])),
            (PeerId(10), path(&[104, 102, 101, 100])),
        ];
        for (peer, p) in foreign.iter().cloned() {
            srv.register(peer, p).unwrap();
        }
        let answer = srv.neighbors_of(PeerId(1), 3).unwrap();
        let at_max = |peer| Neighbor {
            peer,
            dtree: u32::MAX,
        };
        assert_eq!(answer, vec![at_max(PeerId(11)), at_max(PeerId(10))]);
        let mut deltas = Vec::new();
        srv.drain_deltas(client, 16, &mut deltas);
        for d in &deltas {
            apply(&mut view, d);
        }
        assert_eq!(view, answer[..1]);

        let config = FederationConfig {
            fanout: None,
            server: ServerConfig::default(),
        };
        let mut fed = Federation::new(routers.clone(), dist.clone(), 2, config).unwrap();
        let framed = ActorFederation::new(routers, dist, 2, config).unwrap();
        for (peer, p) in [(PeerId(1), path(&[4, 2, 1, 0]))]
            .into_iter()
            .chain(foreign)
        {
            fed.register(peer, p.clone()).unwrap();
            framed.register(peer, p).unwrap();
        }
        assert_eq!(fed.neighbors_of(PeerId(1), 3).unwrap(), answer);
        assert_eq!(framed.neighbors_of(PeerId(1), 3).unwrap(), answer);
    }

    #[test]
    fn delta_class_codes_round_trip() {
        for class in [DeltaClass::Join, DeltaClass::Expiry, DeltaClass::Handover] {
            assert_eq!(DeltaClass::from_code(class.code()), Some(class));
        }
        assert_eq!(DeltaClass::from_code(3), None);
    }
}
