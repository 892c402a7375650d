//! Standing "watch my `k` nearest" subscriptions over the directory.
//!
//! Polling inverts the paper's economics at scale: every peer re-running
//! `neighbors_of` pays the full query for answers that almost never
//! change. The churn entry points already know exactly which peers each
//! batch touched, so the [`SubscriptionRegistry`] uses that knowledge to
//! find the few subscriptions a batch can have changed, and re-queries
//! only those, later, when their deltas are drained.
//!
//! The registry is host-agnostic: anything implementing
//! [`SubscriptionHost`] (the [`crate::ManagementServer`], which
//! [`crate::Shared`] serves behind a lock) feeds it `observe` calls
//! from its churn entry points and drains [`NeighborDelta`]s per client.
//! It works in two steps:
//!
//! * **`observe` only marks subscriptions dirty.** A touched peer marks
//!   every subscription whose last-sent answer holds it, and the
//!   subscriber's own subscription (its watch path re-posts). An added
//!   peer also marks every subscription whose exact section it enters:
//!   it shares a watch-path router with it, and its `(dtree, peer)` sorts
//!   before the worst exact member's, or the exact section is short of
//!   `k`. Through the cross-landmark fill it marks every
//!   *hungry* subscription (exact section short of `k`) when its path
//!   crosses a foreign landmark router with a finite bridge from the
//!   subscription's own landmark. An event that finds a subscription
//!   already dirty costs nothing more.
//! * **`drain` re-queries.** Each due dirty subscription of the client
//!   gets one `closest_split` (the `closest_to_path` answer with its
//!   exact-section length), diffed against the last-sent answer; a
//!   non-empty diff is pushed. A drain therefore runs at most one query
//!   per dirty subscription, however many events marked it, and `observe`
//!   runs none. A drained delta stream replayed over the initial snapshot
//!   equals a fresh re-poll; `tests/` pins that equivalence property.
//!
//! Delivery is a per-client queue with the three storm controls the
//! serving plane needs:
//!
//! * **bounded** — a subscription is dirty or not, so the queue depth can
//!   never exceed the number of active subscriptions;
//! * **priority-ordered** — handover > expiry > join when draining;
//! * **rate-limited + coalescing** — a subscription pushes at most once
//!   per `min_interval_ms`; events arriving inside the window only keep
//!   it dirty (an add that is removed again before the push never shows),
//!   so a churn storm degrades to coarser batches instead of unbounded
//!   fanout.

use crate::error::CoreError;
use crate::ids::{IdMap, LandmarkId, PeerId};
use crate::path::{PathView, PeerPath};
use crate::router_index::Neighbor;
use crate::telemetry::{Counter, Gauge, TelemetryRegistry};
use nearpeer_topology::RouterId;
use serde::{Deserialize, Serialize};
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

/// One update to a subscription's answer. Applying `removed` (drop those
/// peers) then `added` (upsert, replacing a stale `dtree`) to the
/// previous view yields the new `k`-nearest list; re-sorting by
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
    /// Churn events that reached an already-dirty subscription (the
    /// coalescing path).
    pub coalesced: u64,
    /// Drain re-queries whose answer came back unchanged: everything
    /// the marking events did cancelled out, or never reached the answer.
    pub dropped_to_coalesce: u64,
    /// Re-queries run by drains, one per dirty subscription drained.
    pub refills: u64,
    /// Subscriptions marked dirty and not yet re-queried.
    pub queue_depth: u64,
    /// High-water mark of `queue_depth` (bounded by `active` by
    /// construction: a subscription is dirty or not).
    pub peak_queue_depth: u64,
}

/// What the registry needs from the directory it watches. Every method
/// is a pure read; hosts call [`SubscriptionRegistry::observe`] *after*
/// the directory mutation completed, so these reads see final state.
pub trait SubscriptionHost {
    /// The stored path of a registered peer.
    fn path_of(&self, peer: PeerId) -> Option<PathView<'_>>;
    /// The landmark whose router this is, if any.
    fn landmark_at(&self, router: RouterId) -> Option<LandmarkId>;
    /// Startup hop distance between two landmarks (`None` = unknown).
    fn bridge(&self, from: LandmarkId, to: LandmarkId) -> Option<u32>;
    /// `closest_to_path(path, k, exclude)` split into the full answer
    /// and the length of its exact section (the fill section follows).
    fn query_split(&self, path: PathView<'_>, k: usize, exclude: PeerId) -> (Vec<Neighbor>, usize);
}

/// A subscription that churn may have changed since its last push.
#[derive(Debug)]
struct Dirty {
    /// Highest class among the events that marked it.
    class: DeltaClass,
    /// Epoch of the last of those events.
    epoch: u64,
    /// FIFO tiebreaker inside a priority class: the first event's number.
    seq: u64,
    /// When the first of those events was observed.
    enqueued_ms: u64,
}

/// One churn event as the marking sees it: a touched peer, numbered so
/// that one event reaching a subscription through several routers counts
/// once.
#[derive(Debug, Clone, Copy)]
struct Event {
    seq: u64,
    class: DeltaClass,
    epoch: u64,
    now_ms: u64,
}

/// One router's watch-path postings plus a pruning bound.
#[derive(Debug)]
struct Posting {
    /// `(sub, hops from subscriber)` entries.
    watchers: Vec<(u32, u32)>,
    /// Stale-high admission bound: at least the max over clean watchers
    /// of `admission_bound(sub) - hops`. A candidate whose own offset at
    /// this router exceeds it cannot enter any clean watcher's exact
    /// section through this router, so the whole list is skipped — this
    /// is what keeps a join near a popular router (every subscriber under
    /// a landmark shares its terminal router) from fanning out to all of
    /// them. Raised at subscribe and after every re-query; lowered lazily
    /// on the next walk. A dirty watcher needs no cover: it is
    /// re-queried anyway.
    bound: i64,
}

/// One live subscription.
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
    /// The last-sent answer (the subscribe snapshot, then each push
    /// applied): exact section (ascending `(dtree, peer)`) then fill
    /// section (ascending `(estimate, peer)`), `closest_to_path` order.
    answer: Vec<Neighbor>,
    /// Length of the exact section.
    exact_len: usize,
    /// Whether the registry's hungry set holds this subscription.
    hungry: bool,
    dirty: Option<Dirty>,
    last_push_ms: u64,
    /// The last event that reached this subscription.
    last_event: u64,
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

    /// Whether exact candidate `p` at tree distance `d` enters the
    /// answer: always while the exact section is short of `k`, else when
    /// it sorts before the worst exact member by the query's
    /// `(dtree, peer)` order.
    fn admits(&self, d: u32, p: PeerId) -> bool {
        self.exact_len < self.k || {
            let worst = self.answer[self.k - 1];
            (d, p) < (worst.dtree, worst.peer)
        }
    }

    /// Marks this subscription for a re-query at its next drain. An event
    /// that finds it already dirty only coalesces (once per event).
    fn mark(&mut self, counters: &Counters, ev: Event) {
        if self.last_event == ev.seq {
            return;
        }
        self.last_event = ev.seq;
        match &mut self.dirty {
            Some(d) => {
                counters.coalesced.inc();
                d.class = d.class.max(ev.class);
                d.epoch = ev.epoch;
            }
            None => {
                counters.queue_depth.add(1); // the gauge tracks its own peak
                self.dirty = Some(Dirty {
                    class: ev.class,
                    epoch: ev.epoch,
                    seq: ev.seq,
                    enqueued_ms: ev.now_ms,
                });
            }
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

/// The standing-subscription engine: registrations, dirty marking, and
/// the per-client coalescing delivery queues.
///
/// Not a lock or a thread in sight — the registry is plain mutable
/// state; hosts decide how to serialize access (the facade feeds it from
/// its `&mut self` churn entry points, which [`crate::Shared`] calls
/// under its write guard).
#[derive(Debug, Default)]
pub struct SubscriptionRegistry {
    subs: Vec<Option<SubState>>,
    free: Vec<u32>,
    by_peer: IdMap<PeerId, u32>,
    /// Reverse membership: last-sent answer member → subscriptions
    /// holding it.
    members: IdMap<PeerId, Vec<u32>>,
    /// Watch-path router index: router → posting list. An added peer
    /// walks its own path through this to find every subscription it
    /// could be an exact candidate for (pruned by each posting's
    /// admission bound).
    routers: IdMap<RouterId, Posting>,
    /// Subscriptions whose exact section is short of `k` — the only ones
    /// an added peer can enter through the cross-landmark fill.
    hungry: Vec<u32>,
    clients: IdMap<u64, Vec<u32>>,
    next_client: u64,
    /// Number of the last observed event.
    events: u64,
    counters: Counters,
    /// Scratch: the landmarks an added peer's path crosses.
    lm_hits: Vec<LandmarkId>,
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

    /// The last-sent answer of `peer`'s subscription, if any (testing and
    /// introspection; clients maintain this from deltas).
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
        let (answer, exact_len) = host.query_split(path, sub.k, sub.peer);
        let sid = match self.free.pop() {
            Some(i) => i,
            None => {
                self.subs.push(None);
                (self.subs.len() - 1) as u32
            }
        };
        post(&mut self.routers, sid, path);
        for n in &answer {
            self.members.entry(n.peer).or_default().push(sid);
        }
        self.by_peer.insert(sub.peer, sid);
        self.clients.entry(client).or_default().push(sid);
        let mut s = SubState {
            peer: sub.peer,
            k: sub.k,
            min_interval_ms: sub.min_interval_ms,
            client,
            path: path.to_path(),
            own_lm: host.landmark_at(path.landmark_router()),
            answer: answer.clone(),
            exact_len,
            hungry: false,
            dirty: None,
            last_push_ms: now_ms,
            last_event: 0,
        };
        self.settle(sid, &mut s);
        self.subs[sid as usize] = Some(s);
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

    /// Feeds one churn event batch through the dirty marking. Hosts call
    /// this from every churn entry point *after* the directory mutation,
    /// passing the touched peers: `added` for fresh joins (and the
    /// re-added peer of a handover), `removed` for leaves, expiries and
    /// the handover teardown. A peer in both lists is a handover: its own
    /// subscription re-paths instead of dying. Runs no query.
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
        let mut ev = Event {
            seq: 0,
            class,
            epoch,
            now_ms,
        };
        for &p in removed {
            // A departed subscriber's subscription dies with its
            // registration — unless the same observe re-adds the peer
            // (handover: the watch re-paths below instead).
            if let Some(&sid) = self.by_peer.get(&p) {
                if !added.contains(&p) {
                    self.drop_sub(sid);
                }
            }
            self.events += 1;
            ev.seq = self.events;
            // `p` stays a member until a re-query drops it from the
            // last-sent answer, so every later event on it still lands.
            for &sid in self.members.get(&p).into_iter().flatten() {
                self.subs[sid as usize]
                    .as_mut()
                    .expect("members index is coherent")
                    .mark(&self.counters, ev);
            }
        }
        for &p in added {
            let Some(path) = host.path_of(p) else {
                // Not registered any more: the matching removal marked
                // whatever it touched.
                continue;
            };
            self.events += 1;
            ev.seq = self.events;
            if let Some(&sid) = self.by_peer.get(&p) {
                self.rewatch(host, sid, path);
                self.subs[sid as usize]
                    .as_mut()
                    .expect("sub alive")
                    .mark(&self.counters, ev);
            }
            self.mark_candidates(host, p, path, ev);
        }
    }

    /// Re-queries up to `max` pushes' worth of `client`'s due dirty
    /// subscriptions, highest priority class first (FIFO within a class),
    /// respecting each subscription's `min_interval_ms` against `now_ms`.
    /// Each re-query is diffed against the last-sent answer; a non-empty
    /// diff is pushed into `out`.
    pub fn drain<H: SubscriptionHost>(
        &mut self,
        host: &H,
        client: u64,
        now_ms: u64,
        max: usize,
        out: &mut Vec<NeighborDelta>,
    ) {
        let Some(sids) = self.clients.get(&client) else {
            return;
        };
        // (inverted class, seq): sorts handover-first, then FIFO.
        let mut due: Vec<(u8, u64, u32)> = sids
            .iter()
            .filter_map(|&sid| {
                let s = self.subs[sid as usize].as_ref()?;
                let d = s.dirty.as_ref()?;
                let due = now_ms >= s.last_push_ms.saturating_add(s.min_interval_ms);
                due.then_some((u8::MAX - d.class.code(), d.seq, sid))
            })
            .collect();
        due.sort_unstable();
        let mut pushed = 0;
        for (_, _, sid) in due {
            if pushed == max {
                break;
            }
            if let Some(delta) = self.requery(host, sid, now_ms) {
                out.push(delta);
                pushed += 1;
            }
        }
    }

    /// The live count of dirty subscriptions, summed over every client.
    /// It is raised before the registry call that marked one returns, so
    /// a host that serializes the registry behind a lock can read this
    /// first and skip the lock (and [`Self::drain`]) at zero.
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

    /// Marks every subscription the added peer (stored path `path`) could
    /// enter: exact candidates through the watch-path router index, fill
    /// candidates through the hungry set.
    fn mark_candidates<H: SubscriptionHost>(
        &mut self,
        host: &H,
        p: PeerId,
        path: PathView<'_>,
        ev: Event,
    ) {
        // Exact pass: a shared router at offsets (q, d) witnesses a
        // candidate dtree of q + d; the minimum over shared routers is
        // `PeerPath::dtree`, so the router that attains it marks every
        // subscription the peer enters, and no other router marks one it
        // does not.
        for (r, p_off) in path.with_depths() {
            let Some(posting) = self.routers.get_mut(&r) else {
                continue;
            };
            if i64::from(p_off) > posting.bound {
                continue; // no clean watcher here admits a candidate this deep
            }
            let mut fresh_bound = i64::MIN;
            for &(sid, q_off) in &posting.watchers {
                let s = self.subs[sid as usize]
                    .as_mut()
                    .expect("router index is coherent");
                let thr = s.admission_bound();
                fresh_bound = fresh_bound.max(thr.saturating_sub(i64::from(q_off)));
                if s.admits(q_off + p_off, p) {
                    s.mark(&self.counters, ev);
                }
            }
            posting.bound = fresh_bound;
        }

        // Fill pass: only subscriptions short of exact candidates can
        // gain a cross-landmark fill, and only from a peer whose path
        // crosses a landmark router the fill merge reaches from theirs.
        if self.hungry.is_empty() {
            return;
        }
        self.lm_hits.clear();
        self.lm_hits
            .extend(path.routers().iter().filter_map(|&r| host.landmark_at(r)));
        for &sid in &self.hungry {
            let s = self.subs[sid as usize].as_mut().expect("hungry sub alive");
            let Some(own) = s.own_lm else {
                continue;
            };
            let reachable = |&lm: &LandmarkId| lm != own && host.bridge(own, lm).is_some();
            if self.lm_hits.iter().any(reachable) {
                s.mark(&self.counters, ev);
            }
        }
    }

    /// The subscriber itself moved: re-post the watch path. The caller
    /// marks the subscription; its re-query settles the postings' bounds.
    fn rewatch<H: SubscriptionHost>(&mut self, host: &H, sid: u32, new_path: PathView<'_>) {
        let s = self.subs[sid as usize].as_mut().expect("sub alive");
        if s.path.view() == new_path {
            return;
        }
        unpost(&mut self.routers, sid, s.path.view());
        post(&mut self.routers, sid, new_path);
        s.own_lm = host.landmark_at(new_path.landmark_router());
        s.path = new_path.to_path();
    }

    /// Re-queries dirty subscription `sid` and diffs the answer against
    /// the last-sent one: the delta to push, or `None` when nothing
    /// changed.
    fn requery<H: SubscriptionHost>(
        &mut self,
        host: &H,
        sid: u32,
        now_ms: u64,
    ) -> Option<NeighborDelta> {
        let mut s = self.subs[sid as usize].take().expect("due sub alive");
        let dirty = s.dirty.take().expect("due sub is dirty");
        self.counters.queue_depth.sub(1);
        self.counters.refills.inc();
        let (new, exact_len) = host.query_split(s.path.view(), s.k, s.peer);
        let removed: Vec<PeerId> = s
            .answer
            .iter()
            .filter(|o| !new.iter().any(|n| n.peer == o.peer))
            .map(|o| o.peer)
            .collect();
        // New members, and members whose distance changed.
        let added: Vec<Neighbor> = new
            .iter()
            .filter(|n| !s.answer.contains(n))
            .copied()
            .collect();
        for &p in &removed {
            if let Some(holders) = self.members.get_mut(&p) {
                holders.retain(|&x| x != sid);
                if holders.is_empty() {
                    self.members.remove(&p);
                }
            }
        }
        for n in &added {
            if !s.answer.iter().any(|o| o.peer == n.peer) {
                self.members.entry(n.peer).or_default().push(sid);
            }
        }
        s.answer = new;
        s.exact_len = exact_len;
        self.settle(sid, &mut s);
        let delta = if removed.is_empty() && added.is_empty() {
            self.counters.dropped_to_coalesce.inc();
            None
        } else {
            s.last_push_ms = now_ms;
            self.counters.pushed.inc();
            Some(NeighborDelta {
                peer: s.peer,
                epoch: dirty.epoch,
                class: dirty.class,
                added,
                removed,
                queued_ms: now_ms.saturating_sub(dirty.enqueued_ms),
            })
        };
        self.subs[sid as usize] = Some(s);
        delta
    }

    /// Brings the posting bounds along `s`'s watch path and the hungry
    /// set in line with its (now current) answer. The hungry set is
    /// scanned only when `s` leaves it.
    fn settle(&mut self, sid: u32, s: &mut SubState) {
        let thr = s.admission_bound();
        for (r, off) in s.path.with_depths() {
            if let Some(posting) = self.routers.get_mut(&r) {
                posting.bound = posting.bound.max(thr.saturating_sub(i64::from(off)));
            }
        }
        let hungry_now = s.exact_len < s.k;
        if hungry_now != s.hungry {
            s.hungry = hungry_now;
            if hungry_now {
                self.hungry.push(sid);
            } else {
                unlist(&mut self.hungry, sid);
            }
        }
    }

    /// Tears one subscription down completely.
    fn drop_sub(&mut self, sid: u32) {
        let s = self.subs[sid as usize].take().expect("sub alive");
        self.by_peer.remove(&s.peer);
        if let Some(sids) = self.clients.get_mut(&s.client) {
            sids.retain(|&x| x != sid);
        }
        unpost(&mut self.routers, sid, s.path.view());
        for n in &s.answer {
            if let Some(holders) = self.members.get_mut(&n.peer) {
                holders.retain(|&x| x != sid);
                if holders.is_empty() {
                    self.members.remove(&n.peer);
                }
            }
        }
        if s.hungry {
            unlist(&mut self.hungry, sid);
        }
        if s.dirty.is_some() {
            self.counters.queue_depth.sub(1);
        }
        self.free.push(sid);
    }
}

/// Removes `sid` from the hungry set.
fn unlist(hungry: &mut Vec<u32>, sid: u32) {
    let i = hungry.iter().position(|&x| x == sid);
    hungry.swap_remove(i.expect("hungry flag matches the set"));
}

/// Posts `sid` as a watcher of every router along `path`.
fn post(routers: &mut IdMap<RouterId, Posting>, sid: u32, path: PathView<'_>) {
    for (r, off) in path.with_depths() {
        let posting = routers.entry(r).or_insert_with(|| Posting {
            watchers: Vec::new(),
            bound: i64::MIN,
        });
        posting.watchers.push((sid, off));
    }
}

/// Removes `sid`'s postings along `path`, dropping emptied routers.
fn unpost(routers: &mut IdMap<RouterId, Posting>, sid: u32, path: PathView<'_>) {
    for r in path.routers() {
        if let Some(posting) = routers.get_mut(r) {
            posting.watchers.retain(|&(x, _)| x != sid);
            if posting.watchers.is_empty() {
                routers.remove(r);
            }
        }
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
        .unwrap()
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
    /// live: its comeback replaced its forwarding tombstone, so the sweep
    /// past the tombstone's retention retires nothing and must not remove
    /// it from the answers it is in.
    #[test]
    fn a_swept_tombstone_does_not_remove_a_returned_peer() {
        let mut srv = server();
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        let client = srv.open_sub_client();
        let mut view = srv.subscribe(client, watch(PeerId(1), 3)).unwrap();
        srv.advance_epoch().unwrap();
        srv.deregister_forwarding(PeerId(2), 7).unwrap();
        // Back under landmark 100: a fill of peer 1's short answer.
        srv.register(PeerId(2), path(&[9, 101, 100])).unwrap();
        for _ in 0..4 {
            srv.advance_epoch().unwrap();
            srv.heartbeat(PeerId(1)).unwrap();
            srv.heartbeat(PeerId(2)).unwrap();
        }
        let sweep = srv.expire_stale_full(2);
        assert_eq!((sweep.moved.len(), sweep.expired.len()), (0, 0));
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
        let mut deltas = Vec::new();
        srv.drain_deltas(client, 16, &mut deltas);
        assert!(deltas.is_empty());
        let stats = srv.subscription_stats();
        assert_eq!(stats.queue_depth, 0, "fresh add + remove cancels");
        assert!(stats.dropped_to_coalesce >= 1);
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
        let mut deltas = Vec::new();
        srv.drain_deltas(client, 16, &mut deltas);
        assert_eq!(srv.subscription_stats().refills, 1);
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

    /// A joiner that ties the worst member's `dtree` enters by the
    /// query's peer-id tiebreak, and only then is the watcher re-queried.
    #[test]
    fn a_tie_with_the_worst_member_enters_by_peer_id() {
        let mut srv = server();
        srv.register(PeerId(5), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(7), path(&[5, 2, 1, 0])).unwrap();
        let client = srv.open_sub_client();
        let mut view = srv.subscribe(client, watch(PeerId(5), 1)).unwrap();

        // dtree 2 like peer 7, larger id: not an answer change.
        srv.register(PeerId(8), path(&[6, 2, 1, 0])).unwrap();
        assert_eq!(srv.subscription_stats().queue_depth, 0);
        // dtree 2, smaller id: displaces peer 7.
        srv.register(PeerId(6), path(&[8, 2, 1, 0])).unwrap();
        let mut deltas = Vec::new();
        srv.drain_deltas(client, 16, &mut deltas);
        assert_eq!(srv.subscription_stats().refills, 1);
        for d in &deltas {
            apply(&mut view, d);
        }
        assert_eq!(view, srv.neighbors_of(PeerId(5), 1).unwrap());
        assert_eq!(view[0].peer, PeerId(6));
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
    /// framed) and the subscription re-queries alike: nothing wraps to the
    /// front, saturated peers rank by their exact sums, and the deltas
    /// still equal a re-poll.
    #[test]
    fn bridge_near_u32_max_saturates_and_deltas_match_repoll() {
        use crate::{Federation, FederationConfig};
        let routers = vec![RouterId(0), RouterId(100)];
        let bridge = u32::MAX - 1;
        let dist = vec![vec![0, bridge], vec![bridge, 0]];
        let mut srv =
            ManagementServer::new(routers.clone(), dist.clone(), ServerConfig::default()).unwrap();
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
        let mut fed = Federation::new(routers, dist, 2, config).unwrap();
        for (peer, p) in [(PeerId(1), path(&[4, 2, 1, 0]))]
            .into_iter()
            .chain(foreign)
        {
            fed.register(peer, p).unwrap();
        }
        assert_eq!(fed.neighbors_of(PeerId(1), 3).unwrap(), answer);
        let (_, own) = fed.locate(PeerId(1)).unwrap();
        assert_eq!(fed.closest_by_frames(own, 3, Some(PeerId(1))), answer);
    }

    #[test]
    fn delta_class_codes_round_trip() {
        for class in [DeltaClass::Join, DeltaClass::Expiry, DeltaClass::Handover] {
            assert_eq!(DeltaClass::from_code(class.code()), Some(class));
        }
        assert_eq!(DeltaClass::from_code(3), None);
    }
}
