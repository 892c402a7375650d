//! The management server — round 2 of the paper's protocol.
//!
//! The server owns the paper's one router index (router → ordered peer
//! list), one lease table for every peer it serves, and one interned path
//! store per landmark (see [`crate::directory`]). A lease records the
//! peer's landmark beside its path, so a write probes one peer table and
//! then the one store that holds the path; reads take `&self` and probe
//! the one index. Bridge distances and aggregate counters live here too.

use crate::directory::persist::journal::{JournalOp, JournalReader};
use crate::directory::persist::{self, wire, PersistError, RecoveryReport};
use crate::directory::query;
use crate::directory::{
    lease_slot_size, AdaptiveLeaseConfig, AdaptiveLeases, LeaseArena, PathRef, PathStore,
    SweepStats,
};
use crate::error::CoreError;
use crate::ids::{IdMap, LandmarkId, PeerId};
use crate::path::{PathView, PeerPath};
use crate::path_tree::PathTree;
use crate::router_index::{self, query_nearest_entries, EntryMap, Neighbor};
use crate::subscription::{
    DeltaClass, NeighborDelta, Subscription, SubscriptionHost, SubscriptionRegistry,
    SubscriptionStats,
};
use crate::telemetry::{Counter, Gauge, Histogram, SlowQueryRecord, TelemetryRegistry};
use nearpeer_topology::RouterId;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Server tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Neighbors returned to a newcomer (the paper's "short list").
    pub neighbor_count: usize,
    /// Enables adaptive lease lengths: the server tracks an EWMA of every
    /// peer's session length and sizes its lease accordingly at renewal
    /// time, capped to the configured band (see [`AdaptiveLeaseConfig`]).
    /// `None` = one uniform lease length (the `max_age` passed to
    /// [`ManagementServer::expire_stale`]).
    pub adaptive_leases: Option<AdaptiveLeaseConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            neighbor_count: 5,
            adaptive_leases: None,
        }
    }
}

impl ServerConfig {
    /// Rejects configurations that cannot work at runtime with a typed
    /// [`CoreError::InvalidConfig`], instead of letting them surface later
    /// as silent misbehavior (a zero neighbor count answers every query
    /// with nothing; an adaptive band with `min_age > max_age` or
    /// `min_age == 0` would expire live, cooperating peers between
    /// renewals).
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.neighbor_count == 0 {
            return Err(CoreError::InvalidConfig(
                "neighbor_count must be at least 1".into(),
            ));
        }
        if let Some(a) = self.adaptive_leases {
            if a.min_age == 0 {
                return Err(CoreError::InvalidConfig(
                    "adaptive_leases.min_age must be at least 1 (a zero floor expires \
                     live peers between renewals)"
                        .into(),
                ));
            }
            if a.min_age > a.max_age {
                return Err(CoreError::InvalidConfig(format!(
                    "adaptive_leases.min_age ({}) exceeds max_age ({})",
                    a.min_age, a.max_age
                )));
            }
        }
        Ok(())
    }
}

/// What a newcomer receives back from its join request.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinOutcome {
    /// The landmark the peer registered under.
    pub landmark: LandmarkId,
    /// The closest peers the server inferred, nearest first.
    pub neighbors: Vec<Neighbor>,
}

/// What happened to the items of a write-only batch join
/// ([`ManagementServer::register_batch`],
/// [`crate::Federation::register_batch`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Fresh peers registered (lease opened at the batch epoch).
    pub joined: usize,
    /// Already-registered peers whose lease was renewed instead.
    pub renewed: usize,
    /// Items dropped: a path under the wrong landmark (or an unknown one),
    /// or a peer re-appearing under a *different* landmark or region than
    /// its registration (that move is a handover, not a renewal).
    pub rejected: usize,
}

/// Everything one expiry sweep retired
/// ([`ManagementServer::expire_stale_full`]): leases that lapsed
/// silently, and forwarding tombstones whose retention ended.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpirySweep {
    /// Peers whose lease expired (they are gone from the server), ascending.
    pub expired: Vec<PeerId>,
    /// Swept forwarding tombstones `(peer, destination_region)` — these
    /// peers did not fail, they handed over to another region and the
    /// grace record has now been retired. Ascending by peer.
    pub moved: Vec<(PeerId, u32)>,
}

/// A live lease's payload: the landmark the peer registered under and its
/// path in that landmark's [`PathStore`]. Six bytes at alignment 2, so
/// they fit beside the two halves of the peer id in a lease slot's
/// 16-byte occupant, and the slot, epochs held as `u32` offsets, takes 36
/// bytes; the price is at most 65 536 landmarks per server
/// ([`MAX_LANDMARKS`]).
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(2))]
struct Lease {
    path: PathRef,
    landmark: u16,
}

impl Lease {
    fn landmark(self) -> LandmarkId {
        LandmarkId(u32::from(self.landmark))
    }
}

const _: () = assert!(std::mem::size_of::<Lease>() == 6 && std::mem::align_of::<Lease>() == 2);
const _: () = assert!(lease_slot_size::<Lease>() <= 36);

/// The most landmarks one server holds: a lease names its landmark in 16
/// bits.
const MAX_LANDMARKS: usize = 1 << 16;

/// Per-landmark slice of a [`ServerReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LandmarkReport {
    /// The landmark id.
    pub landmark: LandmarkId,
    /// Its router.
    pub router: RouterId,
    /// Peers registered under it.
    pub peers: usize,
    /// Routers on a live stored path, plus the landmark's own.
    pub tree_routers: usize,
    /// Route-inconsistency count (holes / instability) over the live
    /// stored paths, walked in ascending peer id.
    pub route_inconsistencies: usize,
}

/// Operator-facing snapshot of a [`ManagementServer`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerReport {
    /// Registered peers.
    pub peers: usize,
    /// Distinct routers referenced by stored paths.
    pub indexed_routers: usize,
    /// Current heartbeat epoch.
    pub epoch: u64,
    /// Aggregate counters.
    pub stats: ServerStats,
    /// One entry per landmark.
    pub per_landmark: Vec<LandmarkReport>,
}

impl std::fmt::Display for ServerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} peers over {} routers (epoch {})",
            self.peers, self.indexed_routers, self.epoch
        )?;
        writeln!(
            f,
            "joins {} / queries {} / leaves {} / handovers {} / x-lmk fills {}",
            self.stats.joins,
            self.stats.queries,
            self.stats.leaves,
            self.stats.handovers,
            self.stats.cross_landmark_fills
        )?;
        for lm in &self.per_landmark {
            writeln!(
                f,
                "  {} at {}: {} peers, {} tree routers, {} inconsistencies",
                lm.landmark, lm.router, lm.peers, lm.tree_routers, lm.route_inconsistencies
            )?;
        }
        Ok(())
    }
}

/// Aggregate server-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Successful registrations.
    pub joins: u64,
    /// Closest-peer queries answered (including those inside joins).
    pub queries: u64,
    /// Neighbors served through the cross-landmark fallback.
    pub cross_landmark_fills: u64,
    /// Departures processed.
    pub leaves: u64,
    /// Mobility handovers processed.
    pub handovers: u64,
}

/// Read-path counters, interior-mutable so pure queries stay `&self` (and
/// can be issued from many threads at once). Held as shared telemetry
/// handles so a bound [`TelemetryRegistry`] scrapes the same atomics.
#[derive(Debug, Default)]
struct QueryCounters {
    queries: Arc<Counter>,
    cross_landmark_fills: Arc<Counter>,
    latency_us: Arc<Histogram>,
}

/// The management server of §2: knows every peer's path to its landmark and
/// answers "who is closest to this newcomer" from one router index, with
/// one lease table for every peer and one interned path store per
/// landmark.
///
/// The server never sees the topology at runtime — it only consumes router
/// paths, exactly like the deployed system would, and the landmark
/// distances it is built with (the real system traceroutes between its
/// landmarks once at startup).
///
/// When the path-tree search finds fewer than `neighbor_count` peers, the
/// server fills the list with cross-landmark candidates ranked by the
/// bridge estimate `depth(p) + hops(L_p, L_q) + depth(q)` (DESIGN.md §5).
///
/// Concurrency contract: every read (`neighbors_of`, `closest_to_path`,
/// `report`, the [`Self::index`] view) takes `&self`, so a populated server
/// can be queried from any number of threads. Writes take `&mut self` and
/// keep the leases, the path stores and the index in step.
pub struct ManagementServer {
    config: ServerConfig,
    landmark_routers: Vec<RouterId>,
    landmark_by_router: IdMap<RouterId, LandmarkId>,
    /// Hop distance between landmark routers (startup measurements).
    landmark_dist: Vec<Vec<u32>>,
    /// Every peer's lease in one slab behind one peer table: its landmark
    /// and path, last-seen epoch and lease length — or the forwarding
    /// tombstone it left when it moved to another region.
    leases: LeaseArena<Lease>,
    /// One interned-path arena per landmark, indexed by [`LandmarkId`]:
    /// every stored path ends at its landmark's router.
    stores: Vec<PathStore>,
    /// The session EWMA behind adaptive lease lengths, when enabled.
    adaptive: Option<AdaptiveLeases>,
    /// The router index over every peer: one probe per query-path router,
    /// whatever the landmark count. Only the writes (and
    /// [`Self::recover`]) change it.
    index: EntryMap,
    /// Lifetime lease opens and closes (the join and leave counts; a
    /// handover is one of each, compensated in [`Self::stats`]).
    inserts: u64,
    removals: u64,
    counters: QueryCounters,
    handovers: u64,
    epoch: u64,
    /// Standing "watch my k nearest" subscriptions, marked dirty by every
    /// churn entry point and re-queried at drain (see
    /// [`crate::subscription`]). Runtime-only state: not persisted, empty
    /// after recovery. The mutex lets a churn hook or a drain hold the
    /// registry while it lends the rest of the server to it as the query
    /// host; `&mut self` paths reach it without locking.
    subs: Mutex<SubscriptionRegistry>,
    /// Millisecond clock for subscription rate limiting and delta-latency
    /// accounting; the embedding application advances it
    /// ([`Self::set_sub_clock_ms`]) so the server itself stays
    /// deterministic.
    sub_clock_ms: u64,
    /// Bound registry ([`Self::bind_telemetry`]): gates query-latency
    /// timing and receives slow-query traces. `None` (the default) keeps
    /// the read path free of clock calls.
    telemetry: Option<Arc<TelemetryRegistry>>,
}

impl std::fmt::Debug for ManagementServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManagementServer")
            .field("landmarks", &self.landmark_routers.len())
            .field("peers", &self.peer_count())
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl ManagementServer {
    /// Creates a server from landmark routers and their pairwise hop
    /// distances (row-major square matrix; `u32::MAX` = unknown),
    /// refusing what the server would only trip over later: no landmark,
    /// more than 65 536, a distance matrix that is not `n × n`,
    /// and an invalid [`ServerConfig`].
    pub fn new(
        landmark_routers: Vec<RouterId>,
        landmark_dist: Vec<Vec<u32>>,
        config: ServerConfig,
    ) -> Result<Self, CoreError> {
        let n = landmark_routers.len();
        if n == 0 || n > MAX_LANDMARKS {
            return Err(CoreError::InvalidConfig(format!(
                "a server holds 1 to {MAX_LANDMARKS} landmarks, not {n}"
            )));
        }
        if landmark_dist.len() != n || landmark_dist.iter().any(|row| row.len() != n) {
            return Err(CoreError::InvalidConfig(format!(
                "landmark distance matrix must be {n}x{n}"
            )));
        }
        config.validate()?;
        let landmark_by_router = landmark_routers
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, LandmarkId(i as u32)))
            .collect();
        Ok(Self {
            config,
            landmark_by_router,
            landmark_dist,
            leases: LeaseArena::new(),
            stores: landmark_routers.iter().map(|_| PathStore::new()).collect(),
            adaptive: config.adaptive_leases.map(AdaptiveLeases::new),
            index: EntryMap::default(),
            inserts: 0,
            removals: 0,
            counters: QueryCounters::default(),
            handovers: 0,
            landmark_routers,
            epoch: 0,
            subs: Mutex::new(SubscriptionRegistry::new()),
            sub_clock_ms: 0,
            telemetry: None,
        })
    }

    /// The landmark routers, indexed by [`LandmarkId`].
    pub fn landmarks(&self) -> &[RouterId] {
        &self.landmark_routers
    }

    /// The pairwise landmark hop-distance matrix (row-major, indexed by
    /// [`LandmarkId`]; `u32::MAX` = unknown). This is the bridge matrix
    /// cross-landmark fills rank with — and the raw material the
    /// federation derives its cross-region bridges from.
    pub fn landmark_distances(&self) -> &[Vec<u32>] {
        &self.landmark_dist
    }

    /// The landmark whose router is `router`, if any.
    pub fn landmark_at_router(&self, router: RouterId) -> Option<LandmarkId> {
        self.landmark_by_router.get(&router).copied()
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Counters. Join/leave counts are derived from the lifetime lease
    /// opens and closes (a handover is one of each, which is compensated
    /// here); query counts come from the atomic read-path counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            // Saturating: the counters of a snapshot are restored as
            // written, not cross-checked.
            joins: self.inserts.saturating_sub(self.handovers),
            queries: self.counters.queries.get(),
            cross_landmark_fills: self.counters.cross_landmark_fills.get(),
            leaves: self.removals.saturating_sub(self.handovers),
            handovers: self.handovers,
        }
    }

    /// Binds a telemetry registry: the directory's query counters, query
    /// latency histogram, and subscription counters become scrapeable
    /// (`dir_*` / `sub_*` names), query timing starts honoring the
    /// registry's timing gate, and threshold-crossing queries land in its
    /// slow-query log.
    pub fn bind_telemetry(&mut self, reg: Arc<TelemetryRegistry>) {
        reg.adopt_counter("dir_queries_total", "", self.counters.queries.clone());
        reg.adopt_counter(
            "dir_cross_landmark_fills_total",
            "",
            self.counters.cross_landmark_fills.clone(),
        );
        reg.adopt_histogram("dir_query_latency_us", "", self.counters.latency_us.clone());
        self.subs_mut().bind_telemetry(&reg);
        self.telemetry = Some(reg);
    }

    /// The registry bound by [`Self::bind_telemetry`], if any.
    pub fn telemetry(&self) -> Option<Arc<TelemetryRegistry>> {
        self.telemetry.clone()
    }

    /// The subscription engine's count of dirty subscriptions (see
    /// [`SubscriptionRegistry::queue_depth`]): a host that puts this
    /// server behind a lock reads it to skip the lock when nothing is
    /// queued.
    pub fn sub_queue_depth(&self) -> Arc<Gauge> {
        self.subs.lock().expect("subs poisoned").queue_depth()
    }

    /// Registered peer count.
    pub fn peer_count(&self) -> usize {
        self.leases.len()
    }

    /// The landmark a peer registered under.
    pub fn landmark_of(&self, peer: PeerId) -> Option<LandmarkId> {
        self.leases.get(peer).map(|l| l.landmark())
    }

    /// The stored path of a peer: one probe of the lease table, then the
    /// landmark's store.
    pub fn path_of(&self, peer: PeerId) -> Option<PathView<'_>> {
        let lease = *self.leases.get(peer)?;
        Some(self.stores[lease.landmark as usize].get(lease.path))
    }

    /// The epoch `peer` last registered or renewed its lease, if it is
    /// registered.
    pub fn last_seen(&self, peer: PeerId) -> Option<u64> {
        self.leases.last_seen(peer)
    }

    /// A landmark's interned path arena (diagnostics: dedup hits,
    /// distinct paths).
    pub fn path_store(&self, landmark: LandmarkId) -> Option<&PathStore> {
        self.stores.get(landmark.index())
    }

    /// Heap bytes of the tables that grow with the population, by part:
    /// the lease table, the path stores (summed over landmarks) and the
    /// router index, each counted at capacity. The construction-time
    /// rest (landmark tables, counters) is not listed.
    #[doc(hidden)]
    pub fn heap_parts(&self) -> Vec<(&'static str, usize)> {
        let mut paths = PathStore::new().heap_parts();
        for store in &self.stores {
            for (sum, (_, bytes)) in paths.iter_mut().zip(store.heap_parts()) {
                sum.1 += bytes;
            }
        }
        let mut parts = self.leases.heap_parts().to_vec();
        parts.extend(paths);
        parts.extend(self.index.heap_parts());
        parts
    }

    /// The lease table's cumulative expiry-sweep cost.
    pub fn sweep_stats(&self) -> SweepStats {
        self.leases.sweep_stats()
    }

    /// The landmark tree (analytics view), built on demand from the live
    /// leases' stored paths in ascending peer id — `O(peers · depth)`, and
    /// a pure function of the registered set: neither the join/leave
    /// history nor the slab's slot order shows in it.
    pub fn tree(&self, landmark: LandmarkId) -> Option<PathTree> {
        let store = self.stores.get(landmark.index())?;
        let mut live: Vec<(PeerId, PathRef)> = self
            .leases
            .iter()
            .filter(|(_, _, l)| l.landmark() == landmark)
            .map(|(peer, _, l)| (peer, l.path))
            .collect();
        live.sort_unstable_by_key(|&(peer, _)| peer);
        let mut tree = PathTree::new(self.landmark_routers[landmark.index()]);
        for (peer, r) in live {
            tree.insert(peer, store.get(r));
        }
        Some(tree)
    }

    /// Read-only view of the directory, with the lookup surface of the
    /// flat [`crate::RouterIndex`].
    pub fn index(&self) -> DirectoryView<'_> {
        DirectoryView { server: self }
    }

    /// The router index itself, for a federation's per-region merge.
    pub(crate) fn entries(&self) -> &EntryMap {
        &self.index
    }

    fn landmark_for_path(&self, path: PathView<'_>) -> Result<LandmarkId, CoreError> {
        self.landmark_by_router
            .get(&path.landmark_router())
            .copied()
            .ok_or_else(|| {
                CoreError::UnknownLandmark(format!(
                    "path terminates at {} which is no landmark",
                    path.landmark_router()
                ))
            })
    }

    /// Round 2, newcomer insertion: stores the peer's path (`O(d·log n)`)
    /// under its landmark and answers its closest peers.
    pub fn register(&mut self, peer: PeerId, path: PeerPath) -> Result<JoinOutcome, CoreError> {
        let outcome = self.register_with(peer, path)?;
        self.notify_subs(DeltaClass::Join, &[peer], &[]);
        Ok(outcome)
    }

    /// [`Self::register`] without the subscription hook — [`Self::handover`]
    /// reuses the insertion but fires a single `Handover`-class event for
    /// the whole move instead of a spurious join.
    fn register_with(&mut self, peer: PeerId, path: PeerPath) -> Result<JoinOutcome, CoreError> {
        let landmark = self.landmark_for_path(path.view())?;
        if self.leases.contains(peer) {
            return Err(CoreError::DuplicatePeer(peer));
        }
        let r = self.admit(peer, landmark, path);
        Ok(self.answer(peer, landmark, r))
    }

    /// The join answer of `peer`, just admitted under `landmark` with the
    /// stored path `r`.
    fn answer(&self, peer: PeerId, landmark: LandmarkId, r: PathRef) -> JoinOutcome {
        let path = self.stores[landmark.index()].get(r);
        JoinOutcome {
            landmark,
            neighbors: self.closest_to_path(path, self.config.neighbor_count, Some(peer)),
        }
    }

    /// Interns `path` in `landmark`'s store, files it in the index and
    /// opens `peer`'s lease at the current epoch (sized by the session
    /// EWMA when adaptive leases are on). A forwarding tombstone the peer
    /// left here is replaced: it came back. The peer must hold no live
    /// lease.
    fn admit(&mut self, peer: PeerId, landmark: LandmarkId, path: PeerPath) -> PathRef {
        let store = &mut self.stores[landmark.index()];
        let r = store.intern(path.view());
        router_index::index_path(&mut self.index, peer, store.get(r));
        let lease = Lease {
            path: r,
            landmark: landmark.0 as u16,
        };
        let opened = self.leases.insert(peer, lease, self.epoch);
        debug_assert!(opened, "{peer} already held a lease");
        if let Some(ttl) = self.adaptive.as_mut().and_then(|a| a.ttl(peer)) {
            self.leases.set_ttl(peer, ttl);
        }
        self.inserts += 1;
        r
    }

    /// Drops the index entries and the store reference of a lease just
    /// closed.
    fn unindex(&mut self, peer: PeerId, lease: Lease) {
        let store = &mut self.stores[lease.landmark as usize];
        router_index::unindex_path(&mut self.index, peer, store.get(lease.path));
        store.release(lease.path);
        self.removals += 1;
    }

    /// Closes `peer`'s lease as a session end: the session folds into the
    /// adaptive EWMA. `false` if the peer holds no lease.
    fn close(&mut self, peer: PeerId) -> bool {
        let Some((lease, opened, last_seen)) = self.leases.remove_full(peer) else {
            return false;
        };
        if let Some(a) = self.adaptive.as_mut() {
            a.observe(peer, last_seen.saturating_sub(opened));
        }
        self.unindex(peer, lease);
        true
    }

    /// Renews `peer`'s lease at the current epoch; `false` if it holds
    /// none. With adaptive leases on, the renewal also re-derives the
    /// lease length from the peer's session EWMA ("at renewal time").
    fn renew(&mut self, peer: PeerId) -> bool {
        let epoch = self.epoch;
        match self.adaptive.as_mut() {
            None => self.leases.renew(peer, epoch),
            Some(a) => {
                if !self.leases.contains(peer) {
                    return false;
                }
                match a.ttl(peer) {
                    Some(ttl) => self.leases.renew_with_ttl(peer, epoch, ttl),
                    None => self.leases.renew(peer, epoch),
                }
            }
        }
    }

    /// Removes a departed (or failed) peer — churn, W3.
    pub fn deregister(&mut self, peer: PeerId) -> Result<(), CoreError> {
        if !self.close(peer) {
            return Err(CoreError::UnknownPeer(peer));
        }
        self.notify_subs(DeltaClass::Join, &[], &[peer]);
        Ok(())
    }

    /// Removes a peer that is **handing over to another region's server**
    /// (federation mobility): directory state is torn down like a
    /// departure, but the lease table keeps a forwarding tombstone
    /// `(peer → to_region)` — noted in the current epoch's bucket and
    /// retired by the ordinary expiry sweeps — so federation-aware expiry
    /// reports the peer as *moved*, not silent, and stale lookups can
    /// still be redirected until the tombstone is swept or the peer comes
    /// back under any landmark of this server. Counts as a removal in
    /// this server's counters (the federation's own stats track it as a
    /// handover). The session EWMA is *not* updated: the session
    /// continues elsewhere.
    pub fn deregister_forwarding(&mut self, peer: PeerId, to_region: u32) -> Result<(), CoreError> {
        let Some(lease) = self.leases.remove(peer) else {
            return Err(CoreError::UnknownPeer(peer));
        };
        self.unindex(peer, lease);
        let planted = self.leases.insert_tombstone(peer, to_region, self.epoch);
        debug_assert!(planted, "slot was just vacated");
        self.notify_subs(DeltaClass::Handover, &[], &[peer]);
        Ok(())
    }

    /// The destination region recorded by `peer`'s forwarding tombstone,
    /// if the server holds one.
    pub fn forwarded_to(&self, peer: PeerId) -> Option<u32> {
        self.leases.forwarded_to(peer)
    }

    /// Forwarding tombstones currently held (not yet swept). A federation
    /// with no in-flight handovers past their retention drains this to
    /// zero.
    pub fn tombstone_count(&self) -> usize {
        self.leases.tombstone_count()
    }

    /// Records a heartbeat from a live peer (faulty-peer management, W3).
    pub fn heartbeat(&mut self, peer: PeerId) -> Result<(), CoreError> {
        if !self.renew(peer) {
            return Err(CoreError::UnknownPeer(peer));
        }
        Ok(())
    }

    /// Advances the server's heartbeat epoch and returns it. Applications
    /// call this once per heartbeat round.
    ///
    /// The lease table keeps epochs as `u32`s, so the epoch stops at
    /// `u32::MAX` ([`LeaseArena::holds_epoch`]). Past that
    /// the epoch stays where it is and the call fails with
    /// [`CoreError::EpochWindow`].
    pub fn advance_epoch(&mut self) -> Result<u64, CoreError> {
        self.epoch = self.next_epoch()?;
        Ok(self.epoch)
    }

    /// The epoch [`Self::advance_epoch`] would move to, if the lease table
    /// can hold it.
    pub(crate) fn next_epoch(&self) -> Result<u64, CoreError> {
        self.epoch
            .checked_add(1)
            .filter(|&next| self.leases.holds_epoch(next))
            .ok_or(CoreError::EpochWindow(self.epoch))
    }

    /// The current heartbeat epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Expires every peer not seen for more than `max_age` epochs,
    /// returning the expired ids in ascending order — this is how silently
    /// failed peers leave the directory (the staleness W3 measures without
    /// it). Expiries count as leaves.
    ///
    /// The lease table's epoch-bucketed sweep costs time linear in the
    /// lease activity being retired, never a scan of every peer. With
    /// adaptive leases on, each peer expires at its own derived deadline
    /// instead, `max_age` being the default for history-less peers.
    pub fn expire_stale(&mut self, max_age: u64) -> Vec<PeerId> {
        self.expire_stale_full(max_age).expired
    }

    /// [`Self::expire_stale`] with the federation-aware split: the
    /// same sweep also retires forwarding tombstones whose retention
    /// (`max_age`) lapsed and reports them separately — those peers
    /// *moved* to another region's server, they did not fail.
    pub fn expire_stale_full(&mut self, max_age: u64) -> ExpirySweep {
        let now = self.epoch;
        let outcome = match self.adaptive.as_ref().map(|a| a.cfg()) {
            Some(cfg) => {
                let min_ttl = (cfg.min_age as u64).min(max_age).max(1);
                self.leases.take_due(now, max_age, min_ttl)
            }
            // Every lease last seen strictly before `now - max_age`.
            None => self
                .leases
                .take_due(now.saturating_sub(max_age).saturating_add(1), 1, 1),
        };
        let mut expired = Vec::with_capacity(outcome.expired.len());
        for lease in outcome.expired {
            if let Some(a) = self.adaptive.as_mut() {
                a.observe(lease.peer, lease.last_seen.saturating_sub(lease.opened));
            }
            self.unindex(lease.peer, lease.value);
            expired.push(lease.peer);
        }
        // Only silent expiries are departures: a swept tombstone's peer
        // left every answer when it moved (`deregister_forwarding`
        // notified), and a peer that came back replaced its tombstone.
        if !expired.is_empty() {
            self.notify_subs(DeltaClass::Expiry, &[], &expired);
        }
        ExpirySweep {
            expired,
            moved: outcome.moved,
        }
    }

    /// One heartbeat round, batched: renews the lease of every listed
    /// peer still registered, at the current epoch. Unknown ids are
    /// ignored (one open-addressed probe each); returns the number
    /// renewed. The single-peer [`Self::heartbeat`] keeps its error
    /// reporting; at churn scale the directory only cares that live peers
    /// stay leased.
    pub fn renew_batch(&mut self, peers: &[PeerId]) -> usize {
        peers.iter().filter(|&&peer| self.renew(peer)).count()
    }

    /// Batched departures — churn, W3. Every listed peer still registered
    /// is removed; unknown or duplicated ids are ignored (one
    /// open-addressed probe each). Returns the number of peers removed.
    /// Removals count as leaves.
    pub fn leave_batch(&mut self, peers: &[PeerId]) -> usize {
        let removed: Vec<PeerId> = peers.iter().copied().filter(|&p| self.close(p)).collect();
        self.notify_subs(DeltaClass::Join, &[], &removed);
        removed.len()
    }

    /// Batched joins, **write-only**: no neighbor answers (bulk loads and
    /// churn replay are directory maintenance, not discovery). An item
    /// whose peer is already registered under the same landmark renews
    /// its lease at the current epoch and keeps its stored path — the
    /// rejoin-before-expiry case of a faulty peer coming back. A peer
    /// re-appearing under a *different* landmark is rejected (that is a
    /// [`Self::handover`]); so are unknown-landmark paths. Later
    /// occurrences of a peer inserted earlier in the same batch count as
    /// renewals (all leases in one batch share the current epoch, so this
    /// matches applying the items one by one). A batch of fresh peers
    /// leaves the directory and leases a [`Self::register`] loop would.
    pub fn register_batch(&mut self, batch: Vec<(PeerId, PeerPath)>) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        let mut joined: Vec<PeerId> = Vec::new();
        for (peer, path) in batch {
            let Ok(landmark) = self.landmark_for_path(path.view()) else {
                out.rejected += 1;
                continue;
            };
            match self.landmark_of(peer) {
                None => {
                    self.admit(peer, landmark, path);
                    joined.push(peer);
                }
                Some(held) if held == landmark => {
                    self.renew(peer);
                    out.renewed += 1;
                }
                Some(_) => out.rejected += 1,
            }
        }
        out.joined = joined.len();
        self.notify_subs(DeltaClass::Join, &joined, &[]);
        out
    }

    /// Mobility handover (W3): the peer re-traceroutes from its new
    /// attachment and atomically replaces its record, receiving a fresh
    /// neighbor list. The new path is validated *before* the old record is
    /// torn down, so a handover to an unknown landmark leaves the peer
    /// registered where it was.
    pub fn handover(&mut self, peer: PeerId, new_path: PeerPath) -> Result<JoinOutcome, CoreError> {
        let landmark = match self.landmark_for_path(new_path.view()) {
            Ok(landmark) => landmark,
            // An unknown peer is the first error either way.
            Err(_) if !self.leases.contains(peer) => return Err(CoreError::UnknownPeer(peer)),
            Err(e) => return Err(e),
        };
        // Not `close`: a relocation is no session end, so the
        // adaptive-lease EWMA must not absorb the dwell time.
        let Some(lease) = self.leases.remove(peer) else {
            return Err(CoreError::UnknownPeer(peer));
        };
        self.unindex(peer, lease);
        let r = self.admit(peer, landmark, new_path);
        let outcome = self.answer(peer, landmark, r);
        // The counters saw one close + one open; `stats()` folds the pair
        // into one handover.
        self.handovers += 1;
        // One Handover-class event for the whole move: subscriptions
        // holding the peer re-rank it at its new path, and the peer's own
        // subscription re-watches from there.
        self.notify_subs(DeltaClass::Handover, &[peer], &[peer]);
        Ok(outcome)
    }

    /// The closest registered peers to an arbitrary query path (`O(1)` in
    /// the population, per §2): one probe of the router index per
    /// query-path router, and one merge of the hits' ordered lists. Takes
    /// `&self` and the query counters are atomic, so this can run
    /// concurrently from many threads.
    pub fn closest_to_path<'p>(
        &self,
        path: impl Into<PathView<'p>>,
        k: usize,
        exclude: Option<PeerId>,
    ) -> Vec<Neighbor> {
        self.closest_split(path, k, exclude).0
    }

    /// [`Self::closest_to_path`] exposing the answer's structure: the full
    /// list plus the length of its exact section (the cross-landmark fill
    /// section, if any, follows it). The subscription engine needs the
    /// split to maintain answers incrementally.
    pub fn closest_split<'p>(
        &self,
        path: impl Into<PathView<'p>>,
        k: usize,
        exclude: Option<PeerId>,
    ) -> (Vec<Neighbor>, usize) {
        let path = path.into();
        self.counters.queries.inc();
        // Clock calls only when a registry is bound with timing on — the
        // untelemetered read path stays exactly as cheap as before.
        let started = self
            .telemetry
            .as_deref()
            .filter(|t| t.timing_enabled())
            .map(|_| Instant::now());
        let mut result = query_nearest_entries([&self.index], path, k, exclude);
        let exact_len = result.len();
        if result.len() < k {
            if let Ok(own) = self.landmark_for_path(path) {
                let fill = query::cross_landmark_candidates(
                    &self.index,
                    &self.landmark_routers,
                    &self.landmark_dist,
                    own,
                    path.depth(),
                    k - result.len(),
                    exclude,
                    &result,
                );
                self.counters.cross_landmark_fills.add(fill.len() as u64);
                result.extend(fill);
            }
        }
        if let (Some(start), Some(t)) = (started, self.telemetry.as_deref()) {
            let us = start.elapsed().as_micros() as u64;
            self.counters.latency_us.record(us);
            t.slow().offer(us, || SlowQueryRecord {
                latency_us: us,
                landmark: self
                    .landmark_by_router
                    .get(&path.landmark_router())
                    .map(|l| l.0 as u64),
                path_depth: path.depth() as usize,
                fanout: result.len() - exact_len,
                answered: result.len(),
            });
        }
        (result, exact_len)
    }

    /// Neighbors of an already-registered peer (fresh query, `&self`).
    pub fn neighbors_of(&self, peer: PeerId, k: usize) -> Result<Vec<Neighbor>, CoreError> {
        let path = self.path_of(peer).ok_or(CoreError::UnknownPeer(peer))?;
        Ok(self.closest_to_path(path, k, Some(peer)))
    }

    // ---- standing subscriptions -----------------------------------------

    /// Opens a subscription delivery-queue client (one per connection or
    /// embedding consumer); its id scopes [`Self::drain_deltas`] and
    /// [`Self::close_sub_client`].
    pub fn open_sub_client(&mut self) -> u64 {
        self.subs_mut().open_client()
    }

    /// Closes a delivery client, cancelling its subscriptions and queued
    /// deltas.
    pub fn close_sub_client(&mut self, client: u64) {
        self.subs_mut().close_client(client);
    }

    /// Registers (or replaces) a standing "watch my `k` nearest" query for
    /// an already-registered peer and returns the initial answer snapshot;
    /// subsequent churn pushes [`NeighborDelta`]s through the client's
    /// delivery queue instead of requiring re-polls.
    pub fn subscribe(
        &mut self,
        client: u64,
        sub: Subscription,
    ) -> Result<Vec<Neighbor>, CoreError> {
        let this = &*self;
        let mut subs = this.subs.lock().expect("subs poisoned");
        subs.subscribe(this, client, sub, this.sub_clock_ms)
    }

    /// Cancels a peer's standing subscription. Returns whether one
    /// existed.
    pub fn unsubscribe(&mut self, peer: PeerId) -> bool {
        self.subs_mut().unsubscribe(peer)
    }

    /// Drains up to `max` deltas for a delivery client into `out`: each
    /// due dirty subscription is re-queried against the directory and
    /// pushed if its answer changed — handover before expiry before join,
    /// rate-limited per subscription against the subscription clock.
    pub fn drain_deltas(&mut self, client: u64, max: usize, out: &mut Vec<NeighborDelta>) {
        let this = &*self;
        let mut subs = this.subs.lock().expect("subs poisoned");
        subs.drain(this, client, this.sub_clock_ms, max, out);
    }

    /// Subscription observability counters.
    pub fn subscription_stats(&self) -> SubscriptionStats {
        self.subs.lock().expect("subs poisoned").stats()
    }

    /// Advances the millisecond clock used for subscription rate limiting
    /// and delta-latency accounting (monotone; lower values are ignored).
    pub fn set_sub_clock_ms(&mut self, now_ms: u64) {
        self.sub_clock_ms = self.sub_clock_ms.max(now_ms);
    }

    /// The current subscription clock.
    pub fn sub_clock_ms(&self) -> u64 {
        self.sub_clock_ms
    }

    /// Feeds one completed churn mutation through the subscription engine,
    /// which marks the subscriptions it may have changed; the re-queries
    /// run at the next [`Self::drain_deltas`].
    fn notify_subs(&mut self, class: DeltaClass, added: &[PeerId], removed: &[PeerId]) {
        if self.subs_mut().is_empty() {
            return;
        }
        let this = &*self;
        let mut subs = this.subs.lock().expect("subs poisoned");
        subs.observe(this, class, this.epoch, this.sub_clock_ms, added, removed);
    }

    /// The subscription registry, through `&mut self`: no lock taken.
    fn subs_mut(&mut self) -> &mut SubscriptionRegistry {
        self.subs.get_mut().expect("subs poisoned")
    }

    /// Builds an operator-facing snapshot of the server's state. The
    /// per-landmark rows come from trees built for the call
    /// ([`Self::tree`]), so this is `O(landmarks · peers)`: an operator
    /// snapshot, not something to call on a served path.
    pub fn report(&self) -> ServerReport {
        let per_landmark = (0..self.landmark_routers.len() as u32)
            .map(|i| {
                let landmark = LandmarkId(i);
                let tree = self.tree(landmark).expect("landmark exists");
                LandmarkReport {
                    landmark,
                    router: tree.root(),
                    peers: tree.n_peers(),
                    tree_routers: tree.n_nodes(),
                    route_inconsistencies: tree.inconsistencies(),
                }
            })
            .collect();
        ServerReport {
            peers: self.peer_count(),
            indexed_routers: self.index().n_routers(),
            epoch: self.epoch,
            stats: self.stats(),
            per_landmark,
        }
    }

    // ---- durability -----------------------------------------------------

    /// Serializes the complete directory state into the versioned snapshot
    /// format (see [`crate::directory::persist`]): a `NPSN` header, the
    /// config section, aggregate counters, the landmark set and bridge
    /// matrix, one interned path store per landmark, the lease table
    /// (slots with generations, each live lease's landmark and path, and
    /// forwarding tombstones; epoch buckets), the adaptive EWMA cells, and
    /// a trailing FNV-1a checksum over everything before it. The router
    /// index is *not* written: it is a pure function of the registered
    /// set, and [`Self::recover`] rebuilds it from the restored leases.
    ///
    /// [`ManagementServer::recover`] restores a byte-identical directory
    /// from this: same answers, same conservation counters, same future
    /// expiry behavior.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, CoreError> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(&persist::SNAPSHOT_MAGIC);
        wire::put_u16(&mut out, persist::SNAPSHOT_VERSION);
        wire::put_u16(&mut out, 0); // flags, reserved

        // Config section.
        wire::put_u64(&mut out, self.config.neighbor_count as u64);
        // The cross-landmark fill flag of earlier versions, always on.
        wire::put_u8(&mut out, 1);
        match self.config.adaptive_leases {
            None => wire::put_u8(&mut out, 0),
            Some(a) => {
                wire::put_u8(&mut out, 1);
                wire::put_u32(&mut out, a.ewma_shift);
                wire::put_u32(&mut out, a.margin);
                wire::put_u32(&mut out, a.min_age);
                wire::put_u32(&mut out, a.max_age);
                wire::put_u32(&mut out, a.max_tracked);
            }
        }
        // Facade counters.
        wire::put_u64(&mut out, self.epoch);
        wire::put_u64(&mut out, self.handovers);
        wire::put_u64(&mut out, self.counters.queries.get());
        wire::put_u64(&mut out, self.counters.cross_landmark_fills.get());
        // Landmarks and the bridge matrix.
        wire::put_u32(&mut out, self.landmark_routers.len() as u32);
        for &r in &self.landmark_routers {
            wire::put_u32(&mut out, r.0);
        }
        for row in &self.landmark_dist {
            for &d in row {
                wire::put_u32(&mut out, d);
            }
        }
        wire::put_u64(&mut out, self.inserts);
        wire::put_u64(&mut out, self.removals);
        for store in &self.stores {
            store.persist_encode(&mut out);
        }
        self.leases.persist_encode(&mut out, |l, buf| {
            wire::put_u16(buf, l.landmark);
            wire::put_u32(buf, l.path.slot());
        });
        match &self.adaptive {
            None => wire::put_u8(&mut out, 0),
            Some(a) => {
                wire::put_u8(&mut out, 1);
                a.persist_encode(&mut out);
            }
        }
        let sum = persist::checksum(&out);
        wire::put_u64(&mut out, sum);
        Ok(out)
    }

    /// Rebuilds a server from a snapshot plus the journal of operations
    /// applied since it was taken, returning the server and a
    /// [`RecoveryReport`] describing what was consumed.
    ///
    /// Fail-closed contract: the snapshot checksum is verified **before**
    /// any state is parsed, so a truncated or corrupted snapshot yields a
    /// typed error and no server — never a partial directory. A journal
    /// with a torn tail (incomplete or corrupt final records, the normal
    /// outcome of a crash mid-append) replays cleanly up to the last
    /// intact record and reports the tear; a journal with a damaged header
    /// fails closed like the snapshot.
    pub fn recover(snapshot: &[u8], journal: &[u8]) -> Result<(Self, RecoveryReport), CoreError> {
        // Header and checksum first: nothing is parsed from bytes that
        // have not been proven intact.
        if snapshot.len() < 16 {
            return Err(PersistError::Truncated.into());
        }
        let magic: [u8; 4] = snapshot[..4].try_into().expect("length checked");
        if magic != persist::SNAPSHOT_MAGIC {
            return Err(PersistError::BadMagic(magic).into());
        }
        let version = u16::from_le_bytes(snapshot[4..6].try_into().expect("length checked"));
        if version != persist::SNAPSHOT_VERSION {
            return Err(PersistError::UnsupportedVersion(version).into());
        }
        let body_end = snapshot.len() - 8;
        let stored = u64::from_le_bytes(snapshot[body_end..].try_into().expect("length checked"));
        let computed = persist::checksum(&snapshot[..body_end]);
        if stored != computed {
            return Err(PersistError::ChecksumMismatch { stored, computed }.into());
        }
        let flags = u16::from_le_bytes(snapshot[6..8].try_into().expect("length checked"));
        if flags != 0 {
            return Err(
                PersistError::Unsupported(format!("unknown snapshot flags {flags:#06x}")).into(),
            );
        }
        let mut r = persist::Reader::new(&snapshot[8..body_end]);
        // Config section.
        let neighbor_count = r.u64()? as usize;
        match r.u8()? {
            1 => {}
            t => return Err(PersistError::Corrupt(format!("bad cross-landmark flag {t}")).into()),
        }
        let adaptive_leases = match r.u8()? {
            0 => None,
            1 => Some(AdaptiveLeaseConfig {
                ewma_shift: r.u32()?,
                margin: r.u32()?,
                min_age: r.u32()?,
                max_age: r.u32()?,
                max_tracked: r.u32()?,
            }),
            t => return Err(PersistError::Corrupt(format!("bad adaptive flag {t}")).into()),
        };
        let config = ServerConfig {
            neighbor_count,
            adaptive_leases,
        };
        config.validate()?;
        // Facade counters.
        let epoch = r.u64()?;
        let handovers = r.u64()?;
        let queries = r.u64()?;
        let fills = r.u64()?;
        // Landmarks and the bridge matrix.
        let n = r.u32()? as usize;
        if n == 0 || n > MAX_LANDMARKS {
            return Err(CoreError::InvalidConfig(format!(
                "snapshot holds {n} landmarks (1 to {MAX_LANDMARKS} supported)"
            )));
        }
        let mut landmark_routers = Vec::with_capacity(n);
        for _ in 0..n {
            landmark_routers.push(RouterId(r.u32()?));
        }
        let mut landmark_dist = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(n);
            for _ in 0..n {
                row.push(r.u32()?);
            }
            landmark_dist.push(row);
        }
        let inserts = r.u64()?;
        let removals = r.u64()?;
        let mut stores = Vec::with_capacity(n);
        for _ in 0..n {
            stores.push(PathStore::persist_decode(&mut r)?);
        }
        // Every live lease must reference a live path of a landmark's
        // store, ending at that landmark's router.
        let leases = LeaseArena::persist_decode(&mut r, |rd| {
            let landmark = rd.u16()?;
            let slot = rd.u32()?;
            let path = PathRef::from_slot(slot);
            let Some(store) = stores.get(landmark as usize).filter(|s| s.is_live(path)) else {
                return Err(PersistError::Corrupt(format!(
                    "lease references dead path slot {slot} of landmark {landmark}"
                )));
            };
            if store.get(path).landmark_router() != landmark_routers[landmark as usize] {
                return Err(PersistError::Corrupt(format!(
                    "stored path {slot} of landmark {landmark} does not end at its router"
                )));
            }
            Ok(Lease { path, landmark })
        })?;
        if !leases.holds_epoch(epoch) {
            return Err(PersistError::Corrupt(format!(
                "snapshot epoch {epoch} lies outside its lease table's window"
            ))
            .into());
        }
        // Each live lease holds one reference to its path.
        let mut refs = vec![0u64; n];
        for (_, _, l) in leases.iter() {
            refs[l.landmark as usize] += 1;
        }
        for (i, store) in stores.iter().enumerate() {
            if store.total_refs() != refs[i] {
                return Err(PersistError::Corrupt(format!(
                    "landmark {i}'s path store holds {} refs for {} live leases",
                    store.total_refs(),
                    refs[i]
                ))
                .into());
            }
        }
        let adaptive = match (r.u8()?, adaptive_leases) {
            (0, None) => None,
            (1, Some(cfg)) => Some(AdaptiveLeases::persist_decode(cfg, &mut r)?),
            (flag, _) => {
                return Err(PersistError::Corrupt(format!(
                    "adaptive flag {flag} disagrees with the snapshot config"
                ))
                .into())
            }
        };
        if r.remaining() != 0 {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes after the adaptive section",
                r.remaining()
            ))
            .into());
        }
        // The index is not in the snapshot: it rebuilds from the restored
        // leases.
        let mut index = EntryMap::default();
        for (peer, _, l) in leases.iter() {
            router_index::index_path(&mut index, peer, stores[l.landmark as usize].get(l.path));
        }
        let mut server = Self::new(landmark_routers, landmark_dist, config)?;
        server.leases = leases;
        server.stores = stores;
        server.adaptive = adaptive;
        server.index = index;
        server.inserts = inserts;
        server.removals = removals;
        server.epoch = epoch;
        server.handovers = handovers;
        server.counters.queries.set(queries);
        server.counters.cross_landmark_fills.set(fills);
        let mut report = RecoveryReport {
            snapshot_bytes: snapshot.len(),
            ..RecoveryReport::default()
        };
        // Journal replay: every intact record re-applies through the same
        // write paths the original run used, so counters and conservation
        // invariants land exactly where they were.
        let mut reader = JournalReader::new(journal)?;
        while let Some(op) = reader.next_op() {
            server.apply_journal_op(op);
        }
        report.journal_records = reader.records_read();
        report.journal_bytes = reader.bytes_consumed();
        report.journal_torn_tail = reader.torn_tail();
        Ok((server, report))
    }

    /// Applies one journaled operation through the ordinary write paths.
    /// Outcomes are discarded: the journal records operations that already
    /// succeeded (or were already rejected) on the live server, so replay
    /// reproduces their effects, not their answers.
    pub fn apply_journal_op(&mut self, op: JournalOp) {
        match op {
            JournalOp::RegisterBatch(items) => {
                let _ = self.register_batch(items);
            }
            JournalOp::RenewBatch(peers) => {
                let _ = self.renew_batch(&peers);
            }
            JournalOp::LeaveBatch(peers) => {
                let _ = self.leave_batch(&peers);
            }
            JournalOp::Handover { peer, path } => {
                let _ = self.handover(peer, path);
            }
            JournalOp::DeregisterForwarding { peer, to_region } => {
                let _ = self.deregister_forwarding(peer, to_region);
            }
            JournalOp::Deregister(peer) => {
                let _ = self.deregister(peer);
            }
            JournalOp::AdvanceEpoch => {
                let _ = self.advance_epoch();
            }
            JournalOp::ExpireStale { max_age } => {
                let _ = self.expire_stale_full(max_age);
            }
        }
    }
}

impl SubscriptionHost for ManagementServer {
    fn path_of(&self, peer: PeerId) -> Option<PathView<'_>> {
        ManagementServer::path_of(self, peer)
    }

    fn landmark_at(&self, router: RouterId) -> Option<LandmarkId> {
        self.landmark_by_router.get(&router).copied()
    }

    fn bridge(&self, from: LandmarkId, to: LandmarkId) -> Option<u32> {
        let d = *self.landmark_dist.get(from.index())?.get(to.index())?;
        (d != u32::MAX).then_some(d)
    }

    fn query_split(&self, path: PathView<'_>, k: usize, exclude: PeerId) -> (Vec<Neighbor>, usize) {
        self.closest_split(path, k, Some(exclude))
    }
}

/// Read-only view of a [`ManagementServer`]'s directory, with the lookup
/// surface of the flat [`crate::RouterIndex`]. Obtained from
/// [`ManagementServer::index`]; all methods take `&self`.
#[derive(Clone, Copy)]
pub struct DirectoryView<'a> {
    server: &'a ManagementServer,
}

impl<'a> DirectoryView<'a> {
    /// Number of registered peers.
    pub fn len(&self) -> usize {
        self.server.peer_count()
    }

    /// Whether no peer is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the peer is registered.
    pub fn contains(&self, peer: PeerId) -> bool {
        self.server.leases.contains(peer)
    }

    /// The stored path of a peer.
    pub fn path_of(&self, peer: PeerId) -> Option<PathView<'a>> {
        self.server.path_of(peer)
    }

    /// Iterator over all registered peers (lease slot order).
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.server.leases.iter().map(|(peer, _, _)| peer)
    }

    /// Number of distinct routers referenced by stored paths.
    pub fn n_routers(&self) -> usize {
        self.server.index.len()
    }

    /// Peers whose path traverses `router`, nearest-first (by hops below
    /// the router). Takes `self` (the view is `Copy`) so the iterator
    /// borrows the server, not the view temporary.
    pub fn peers_through(self, router: RouterId) -> impl Iterator<Item = (PeerId, u32)> + 'a {
        router_index::peers_through(&self.server.index, router)
    }

    /// Inferred tree distance between two *registered* peers.
    pub fn dtree(&self, a: PeerId, b: PeerId) -> Option<u32> {
        let pa = self.server.path_of(a)?;
        let pb = self.server.path_of(b)?;
        pa.dtree(pb).map(|(_, d)| d)
    }

    /// The `k` registered peers with smallest `dtree` to the query path,
    /// ascending (ties by peer id). Unlike
    /// [`ManagementServer::closest_to_path`] this raw view does not count
    /// stats and never fills cross-landmark.
    pub fn query_nearest<'p>(
        &self,
        query: impl Into<PathView<'p>>,
        k: usize,
        exclude: Option<PeerId>,
    ) -> Vec<Neighbor> {
        query_nearest_entries([&self.server.index], query.into(), k, exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    /// Two landmarks (routers 0 and 100), 5 hops apart.
    fn two_landmark_server(config: ServerConfig) -> ManagementServer {
        ManagementServer::new(
            vec![RouterId(0), RouterId(100)],
            vec![vec![0, 5], vec![5, 0]],
            config,
        )
        .unwrap()
    }

    #[test]
    fn register_returns_nearest_neighbors() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        srv.register(PeerId(3), path(&[6, 3, 1, 0])).unwrap();
        let out = srv.register(PeerId(4), path(&[7, 2, 1, 0])).unwrap();
        assert_eq!(out.landmark, LandmarkId(0));
        let peers: Vec<PeerId> = out.neighbors.iter().map(|n| n.peer).collect();
        // 1 and 2 meet the newcomer at router 2 (dtree 2), 3 at router 1
        // (dtree 4). The newcomer itself is excluded.
        assert_eq!(peers, vec![PeerId(1), PeerId(2), PeerId(3)]);
        assert_eq!(out.neighbors[0].dtree, 2);
        assert_eq!(out.neighbors[2].dtree, 4);
        assert_eq!(srv.peer_count(), 4);
    }

    #[test]
    fn unknown_landmark_rejected() {
        let mut srv = two_landmark_server(ServerConfig::default());
        let err = srv.register(PeerId(1), path(&[4, 2, 99])).unwrap_err();
        assert!(matches!(err, CoreError::UnknownLandmark(_)));
        assert_eq!(srv.peer_count(), 0);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        let err = srv.register(PeerId(1), path(&[5, 2, 1, 0])).unwrap_err();
        assert!(matches!(err, CoreError::DuplicatePeer(_)));
        // Also across shards: the same peer under the *other* landmark.
        let err = srv.register(PeerId(1), path(&[110, 105, 100])).unwrap_err();
        assert!(matches!(err, CoreError::DuplicatePeer(_)));
        assert_eq!(srv.peer_count(), 1);
    }

    #[test]
    fn deregister_and_unknown() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.deregister(PeerId(1)).unwrap();
        assert_eq!(srv.peer_count(), 0);
        assert!(matches!(
            srv.deregister(PeerId(1)),
            Err(CoreError::UnknownPeer(_))
        ));
        assert_eq!(srv.landmark_of(PeerId(1)), None);
        assert_eq!(srv.tree(LandmarkId(0)).unwrap().n_peers(), 0);
    }

    #[test]
    fn handover_moves_the_peer() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[110, 105, 100])).unwrap();
        // Peer 1 moves to the other landmark's side.
        let out = srv.handover(PeerId(1), path(&[111, 105, 100])).unwrap();
        assert_eq!(out.landmark, LandmarkId(1));
        assert_eq!(srv.landmark_of(PeerId(1)), Some(LandmarkId(1)));
        assert_eq!(out.neighbors[0].peer, PeerId(2));
        let stats = srv.stats();
        assert_eq!(stats.handovers, 1);
        assert_eq!(stats.joins, 2);
        assert_eq!(stats.leaves, 0);
        assert!(matches!(
            srv.handover(PeerId(9), path(&[4, 2, 1, 0])),
            Err(CoreError::UnknownPeer(_))
        ));
    }

    #[test]
    fn handover_to_unknown_landmark_is_atomic() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        let err = srv.handover(PeerId(1), path(&[7, 8, 99])).unwrap_err();
        assert!(matches!(err, CoreError::UnknownLandmark(_)));
        // The peer keeps its old record; nothing was torn down.
        assert_eq!(srv.landmark_of(PeerId(1)), Some(LandmarkId(0)));
        assert_eq!(srv.peer_count(), 1);
        let stats = srv.stats();
        assert_eq!((stats.joins, stats.leaves, stats.handovers), (1, 0, 0));
    }

    #[test]
    fn cross_landmark_fallback_fills() {
        let mut srv = two_landmark_server(ServerConfig {
            neighbor_count: 3,
            ..ServerConfig::default()
        });
        // One local peer, two foreign peers at different depths.
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[110, 105, 100])).unwrap(); // depth 2
        srv.register(PeerId(3), path(&[120, 121, 105, 100]))
            .unwrap(); // depth 3
        let fills_before = srv.stats().cross_landmark_fills;
        let out = srv.register(PeerId(4), path(&[5, 2, 1, 0])).unwrap();
        let peers: Vec<PeerId> = out.neighbors.iter().map(|n| n.peer).collect();
        assert_eq!(peers[0], PeerId(1), "local peer first");
        // Foreign fills ranked by depth: query depth 3 + bridge 5 + depth.
        assert_eq!(peers[1], PeerId(2));
        assert_eq!(peers[2], PeerId(3));
        assert_eq!(out.neighbors[1].dtree, 3 + 5 + 2);
        assert_eq!(out.neighbors[2].dtree, 3 + 5 + 3);
        assert_eq!(srv.stats().cross_landmark_fills - fills_before, 2);
    }

    #[test]
    fn fallback_handles_paths_traversing_foreign_landmark_routers() {
        // Landmarks 0 and 100, one hop apart. px's path *traverses* router
        // 0 (landmark A's router) mid-way while terminating at landmark B —
        // so the fill cursor over router 0 yields px at a depth smaller
        // than its full path depth. The old base recovery (est minus full
        // depth) underflowed exactly here.
        let mut srv = ManagementServer::new(
            vec![RouterId(0), RouterId(100)],
            vec![vec![0, 1], vec![1, 0]],
            ServerConfig {
                neighbor_count: 3,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        srv.register(PeerId(1), path(&[60, 0, 105, 100])).unwrap(); // px
        srv.register(PeerId(2), path(&[70, 1, 0])).unwrap(); // py
                                                             // Newcomer sits on landmark B's own router (query depth 0).
        let out = srv.register(PeerId(3), path(&[100])).unwrap();
        let got: Vec<(PeerId, u32)> = out.neighbors.iter().map(|n| (n.peer, n.dtree)).collect();
        // px via the shared router 100 (dtree 0+3), then py as a bridge
        // fill: query depth 0 + bridge 1 + py's depth 2 below router 0.
        assert_eq!(got, vec![(PeerId(1), 3), (PeerId(2), 3)]);
    }

    #[test]
    fn heartbeat_and_expiry() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        assert!(matches!(
            srv.heartbeat(PeerId(9)),
            Err(CoreError::UnknownPeer(_))
        ));
        // Peer 1 keeps heartbeating; peer 2 fails silently.
        for _ in 0..5 {
            srv.advance_epoch().unwrap();
            srv.heartbeat(PeerId(1)).unwrap();
        }
        assert_eq!(srv.epoch(), 5);
        let expired = srv.expire_stale(3);
        assert_eq!(expired, vec![PeerId(2)]);
        assert_eq!(srv.peer_count(), 1);
        assert!(srv.path_of(PeerId(2)).is_none());
        // Nothing further to expire.
        assert!(srv.expire_stale(3).is_empty());
        // Expired peers disappear from answers.
        let neigh = srv.neighbors_of(PeerId(1), 5).unwrap();
        assert!(neigh.is_empty());
    }

    #[test]
    fn expiry_respects_grace_window() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.advance_epoch().unwrap();
        srv.advance_epoch().unwrap();
        // Age 2 with max_age 2: still inside the lease.
        assert!(srv.expire_stale(2).is_empty());
        srv.advance_epoch().unwrap();
        assert_eq!(srv.expire_stale(2), vec![PeerId(1)]);
    }

    #[test]
    fn deregister_forwarding_plants_and_sweeps_a_tombstone() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        srv.advance_epoch().unwrap();
        srv.deregister_forwarding(PeerId(1), 7).unwrap();
        assert!(matches!(
            srv.deregister_forwarding(PeerId(9), 7),
            Err(CoreError::UnknownPeer(_))
        ));
        assert_eq!(srv.peer_count(), 1);
        assert_eq!(srv.forwarded_to(PeerId(1)), Some(7));
        assert_eq!(srv.tombstone_count(), 1);
        // The moved peer never shows up as silently expired.
        for _ in 0..5 {
            srv.advance_epoch().unwrap();
        }
        let sweep = srv.expire_stale_full(3);
        assert_eq!(sweep.expired, vec![PeerId(2)], "peer 2 was silent");
        assert_eq!(sweep.moved, vec![(PeerId(1), 7)], "peer 1 moved");
        assert_eq!(srv.tombstone_count(), 0);
        assert_eq!(srv.forwarded_to(PeerId(1)), None);
        // The tombstone never counted as a leave; only real removals do.
        assert_eq!(srv.stats().leaves, 2);
    }

    #[test]
    fn adaptive_leases_expire_short_lived_peers_sooner() {
        let cfg = ServerConfig {
            adaptive_leases: Some(crate::directory::AdaptiveLeaseConfig {
                ewma_shift: 0,
                margin: 1,
                min_age: 1,
                max_age: 16,
                max_tracked: 1024,
            }),
            ..ServerConfig::default()
        };
        let mut srv = two_landmark_server(cfg);
        // Peer 1's first session lasts one epoch, then it leaves and
        // rejoins: its lease is now sized ~2 epochs, not the default 10.
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.advance_epoch().unwrap();
        srv.heartbeat(PeerId(1)).unwrap();
        srv.deregister(PeerId(1)).unwrap();
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        // A history-less peer joins at the same epoch.
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        for _ in 0..5 {
            srv.advance_epoch().unwrap();
        }
        let expired = srv.expire_stale(10);
        assert_eq!(
            expired,
            vec![PeerId(1)],
            "the short-lived peer must not hold its lease for the full default"
        );
        assert_eq!(srv.peer_count(), 1, "the fresh peer keeps the default");
    }

    #[test]
    fn neighbors_of_registered_peer() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        let n = srv.neighbors_of(PeerId(1), 3).unwrap();
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].peer, PeerId(2));
        assert!(matches!(
            srv.neighbors_of(PeerId(9), 3),
            Err(CoreError::UnknownPeer(_))
        ));
    }

    #[test]
    fn register_batch_matches_input_order_and_counts() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(7), path(&[9, 2, 1, 0])).unwrap();
        let out = srv.register_batch(vec![
            (PeerId(1), path(&[4, 2, 1, 0])),
            (PeerId(2), path(&[6, 7, 42])),      // unknown landmark
            (PeerId(7), path(&[5, 2, 1, 0])),    // registered here: renewal
            (PeerId(3), path(&[110, 105, 100])), // other shard
            (PeerId(1), path(&[8, 2, 1, 0])),    // again in the batch: renewal
            (PeerId(3), path(&[4, 2, 1, 0])),    // again, other landmark: move
        ]);
        assert_eq!(
            out,
            BatchOutcome {
                joined: 2,
                renewed: 2,
                rejected: 2
            }
        );
        // The first occurrence in input order decides the stored path.
        assert_eq!(srv.path_of(PeerId(1)).unwrap().attach(), RouterId(4));
        assert_eq!(srv.path_of(PeerId(7)).unwrap().attach(), RouterId(9));
        assert_eq!(srv.landmark_of(PeerId(3)), Some(LandmarkId(1)));
        assert_eq!(srv.peer_count(), 3);
        let stats = srv.stats();
        assert_eq!(stats.joins, 3);
        // Only the sequential join was answered: the batch is write-only.
        assert_eq!(stats.queries, 1);
    }

    #[test]
    fn register_batch_equals_sequential_final_state() {
        let joins: Vec<(PeerId, PeerPath)> = vec![
            (PeerId(1), path(&[4, 2, 1, 0])),
            (PeerId(2), path(&[5, 2, 1, 0])),
            (PeerId(3), path(&[110, 105, 100])),
            (PeerId(4), path(&[6, 3, 1, 0])),
        ];
        let mut seq = two_landmark_server(ServerConfig::default());
        let mut bat = two_landmark_server(ServerConfig::default());
        seq.advance_epoch().unwrap();
        bat.advance_epoch().unwrap();
        for (p, path) in joins.clone() {
            seq.register(p, path).unwrap();
        }
        assert_eq!(bat.register_batch(joins).joined, 4);
        // Identical directory state. (Query counters legitimately differ:
        // the batch answers nobody.)
        let (br, sr) = (bat.report(), seq.report());
        assert_eq!(br.peers, sr.peers);
        assert_eq!(br.indexed_routers, sr.indexed_routers);
        assert_eq!(br.per_landmark, sr.per_landmark);
        assert_eq!(br.stats.joins, sr.stats.joins);
        for p in [1u64, 2, 3, 4].map(PeerId) {
            assert_eq!(
                bat.neighbors_of(p, 3).unwrap(),
                seq.neighbors_of(p, 3).unwrap()
            );
            assert_eq!(bat.last_seen(p), Some(1));
            assert_eq!(bat.last_seen(p), seq.last_seen(p));
        }
        // Identical leases: they lapse together.
        for srv in [&mut seq, &mut bat] {
            srv.advance_epoch().unwrap();
            srv.heartbeat(PeerId(2)).unwrap();
            srv.advance_epoch().unwrap();
        }
        assert_eq!(bat.expire_stale(1), vec![PeerId(1), PeerId(3), PeerId(4)]);
        assert_eq!(seq.expire_stale(1), vec![PeerId(1), PeerId(3), PeerId(4)]);
    }

    /// A lease's landmark must be the landmark its stored path ends at,
    /// after every kind of churn, on a server built by the write paths and
    /// on one returned by `recover` (which decodes the lease table, then
    /// replays the journal through the same write paths).
    #[test]
    fn landmark_of_agrees_with_the_stored_path() {
        use crate::directory::persist::journal::append_op;
        fn check(srv: &ManagementServer, universe: impl Iterator<Item = u64>) {
            for p in universe {
                let peer = PeerId(p);
                let by_path = srv
                    .path_of(peer)
                    .and_then(|path| srv.landmark_at_router(path.landmark_router()));
                assert_eq!(
                    srv.landmark_of(peer),
                    by_path,
                    "lease and path disagree on peer {p}"
                );
            }
            let in_trees: usize = (0..srv.landmarks().len() as u32)
                .map(|l| srv.tree(LandmarkId(l)).unwrap().n_peers())
                .sum();
            assert_eq!(in_trees, srv.peer_count());
        }

        let mut srv = two_landmark_server(ServerConfig::default());
        for i in 0..40u64 {
            let p = if i % 2 == 0 {
                path(&[1000 + i as u32, 2, 1, 0])
            } else {
                path(&[1000 + i as u32, 105, 101, 100])
            };
            srv.register(PeerId(i), p).unwrap();
        }
        check(&srv, 0..50);

        srv.deregister(PeerId(0)).unwrap();
        srv.handover(PeerId(1), path(&[999, 2, 1, 0])).unwrap();
        srv.deregister_forwarding(PeerId(3), 7).unwrap();
        assert_eq!(srv.leave_batch(&[PeerId(2), PeerId(4), PeerId(99)]), 2);
        srv.register(PeerId(50), path(&[998, 2, 1, 0])).unwrap();
        srv.register_batch(vec![
            (PeerId(51), path(&[997, 2, 1, 0])),
            (PeerId(52), path(&[996, 105, 100])),
            (PeerId(51), path(&[995, 2, 1, 0])), // dup in batch
            (PeerId(53), path(&[994, 2, 1, 0])),
            (PeerId(50), path(&[998, 2, 1, 0])), // renewal
        ]);
        // Taken while most peers are still leased, so `recover` has a
        // populated lease table to decode.
        let snapshot = srv.snapshot_bytes().unwrap();
        for _ in 0..6 {
            srv.advance_epoch().unwrap();
            srv.renew_batch(&[PeerId(5), PeerId(6)]);
        }
        srv.expire_stale(3);
        check(&srv, 0..60);

        let mut journal = Vec::new();
        for op in [
            JournalOp::Handover {
                peer: PeerId(7),
                path: path(&[993, 2, 1, 0]),
            },
            JournalOp::DeregisterForwarding {
                peer: PeerId(8),
                to_region: 2,
            },
            JournalOp::LeaveBatch(vec![PeerId(9), PeerId(10)]),
            JournalOp::AdvanceEpoch,
            JournalOp::AdvanceEpoch,
            JournalOp::RenewBatch((5..30).map(PeerId).collect()),
            JournalOp::ExpireStale { max_age: 1 },
        ] {
            append_op(&mut journal, &op);
        }
        let (mut back, _) = ManagementServer::recover(&snapshot, &journal).unwrap();
        assert_eq!(back.landmark_of(PeerId(7)), Some(LandmarkId(0)));
        assert_eq!(back.peer_count(), 22, "5..30 minus 8, 9 and 10");
        check(&back, 0..60);
        // And the recovered server keeps them in step through further churn.
        back.handover(PeerId(11), path(&[991, 2, 1, 0])).unwrap();
        back.advance_epoch().unwrap();
        back.advance_epoch().unwrap();
        back.renew_batch(&[PeerId(11)]);
        back.expire_stale(1);
        assert_eq!(back.peer_count(), 1);
        check(&back, 0..60);
    }

    /// A peer that handed over to another region and comes back under
    /// *another* landmark of this server replaces its forwarding
    /// tombstone, as a comeback under the same landmark does: the server
    /// holds one lease table, so one record per peer.
    #[test]
    fn a_comeback_under_another_landmark_replaces_the_tombstone() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        let tombstones = srv.tombstone_count();
        srv.advance_epoch().unwrap();
        srv.deregister_forwarding(PeerId(1), 7).unwrap();
        assert_eq!(srv.tombstone_count(), tombstones + 1);
        let out = srv.register(PeerId(1), path(&[110, 105, 100])).unwrap();
        assert_eq!(out.landmark, LandmarkId(1));
        // Live: registered under landmark 1 and in peer 2's answer.
        assert_eq!(srv.landmark_of(PeerId(1)), Some(LandmarkId(1)));
        let fill = srv.neighbors_of(PeerId(2), 3).unwrap();
        assert_eq!(fill.iter().map(|n| n.peer).collect::<Vec<_>>(), [PeerId(1)]);
        assert_eq!(srv.forwarded_to(PeerId(1)), None);
        assert_eq!(srv.tombstone_count(), tombstones);
        // Past the tombstone's retention, the sweep knows nothing of it.
        for _ in 0..5 {
            srv.advance_epoch().unwrap();
            srv.heartbeat(PeerId(1)).unwrap();
        }
        let sweep = srv.expire_stale_full(3);
        assert_eq!(sweep.moved, vec![], "peer 1 moved nowhere");
        assert_eq!(sweep.expired, vec![PeerId(2)], "peer 2 was silent");
        assert_eq!(srv.landmark_of(PeerId(1)), Some(LandmarkId(1)));
        assert_eq!(srv.tombstone_count(), tombstones);
    }

    #[test]
    fn concurrent_reads_on_shared_server() {
        let mut srv = two_landmark_server(ServerConfig::default());
        for i in 0..20u64 {
            srv.register(PeerId(i), path(&[50 + i as u32, 2, 1, 0]))
                .unwrap();
        }
        let srv = &srv;
        let answers = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    scope.spawn(move || {
                        (0..20u64)
                            .map(|i| srv.neighbors_of(PeerId((i + t) % 20), 5).unwrap().len())
                            .sum::<usize>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert!(answers.iter().all(|&a| a == answers[0]));
        // 80 concurrent queries were all counted.
        assert_eq!(srv.stats().queries, 20 + 80);
    }

    #[test]
    fn index_view_matches_server_state() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        srv.register(PeerId(3), path(&[110, 105, 100])).unwrap();
        let view = srv.index();
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert!(view.contains(PeerId(3)));
        assert_eq!(view.dtree(PeerId(1), PeerId(2)), Some(2));
        assert_eq!(view.dtree(PeerId(1), PeerId(3)), None);
        assert_eq!(view.path_of(PeerId(3)).unwrap().attach(), RouterId(110));
        let through2: Vec<_> = view.peers_through(RouterId(2)).collect();
        assert_eq!(through2, vec![(PeerId(1), 1), (PeerId(2), 1)]);
        let mut peers: Vec<PeerId> = view.peers().collect();
        peers.sort_unstable();
        assert_eq!(peers, vec![PeerId(1), PeerId(2), PeerId(3)]);
        // 8 routers total: {4,2,1,0} ∪ {5} ∪ {110,105,100}.
        assert_eq!(view.n_routers(), 8);
        let q = path(&[4, 2, 1, 0]);
        let res = view.query_nearest(&q, 2, None);
        assert_eq!(res[0].peer, PeerId(1));
        assert_eq!(res[0].dtree, 0);
    }

    #[test]
    fn paths_are_interned_per_landmark() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(3), path(&[5, 2, 1, 0])).unwrap();
        let store = srv.path_store(LandmarkId(0)).unwrap();
        assert_eq!(store.distinct(), 2);
        assert_eq!(store.dedup_hits(), 1);
        assert!(srv.path_store(LandmarkId(1)).unwrap().is_empty());
        srv.deregister(PeerId(1)).unwrap();
        srv.deregister(PeerId(2)).unwrap();
        assert_eq!(srv.path_store(LandmarkId(0)).unwrap().distinct(), 1);
    }

    #[test]
    fn config_validation_rejects_impossible_values() {
        let zero_neighbors = ServerConfig {
            neighbor_count: 0,
            ..ServerConfig::default()
        };
        assert!(matches!(
            zero_neighbors.validate(),
            Err(CoreError::InvalidConfig(_))
        ));
        let inverted_band = ServerConfig {
            adaptive_leases: Some(AdaptiveLeaseConfig {
                min_age: 10,
                max_age: 4,
                ..AdaptiveLeaseConfig::default()
            }),
            ..ServerConfig::default()
        };
        assert!(matches!(
            inverted_band.validate(),
            Err(CoreError::InvalidConfig(_))
        ));
        let zero_floor = ServerConfig {
            adaptive_leases: Some(AdaptiveLeaseConfig {
                min_age: 0,
                ..AdaptiveLeaseConfig::default()
            }),
            ..ServerConfig::default()
        };
        assert!(matches!(
            zero_floor.validate(),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(ServerConfig::default().validate().is_ok());
    }

    /// Asserts every externally observable part of the directory matches:
    /// registered set with paths, counters, epoch, tombstones, and query
    /// answers.
    fn assert_same_directory(a: &ManagementServer, b: &ManagementServer) {
        assert_eq!(a.peer_count(), b.peer_count());
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.tombstone_count(), b.tombstone_count());
        assert_eq!(a.landmarks(), b.landmarks());
        assert_eq!(a.landmark_distances(), b.landmark_distances());
        let mut peers: Vec<PeerId> = a.index().peers().collect();
        peers.sort_unstable();
        let mut b_peers: Vec<PeerId> = b.index().peers().collect();
        b_peers.sort_unstable();
        assert_eq!(peers, b_peers);
        for &p in &peers {
            assert_eq!(a.path_of(p), b.path_of(p));
            assert_eq!(a.landmark_of(p), b.landmark_of(p));
            assert_eq!(a.neighbors_of(p, 3).unwrap(), b.neighbors_of(p, 3).unwrap());
        }
    }

    /// A server with adaptive leases on, exercised through every write
    /// path: joins, renewals, a handover, a forwarding tombstone, leaves
    /// and expiries across several epochs.
    fn churned_adaptive_server() -> ManagementServer {
        let mut srv = two_landmark_server(ServerConfig {
            adaptive_leases: Some(AdaptiveLeaseConfig {
                min_age: 2,
                max_age: 12,
                ..AdaptiveLeaseConfig::default()
            }),
            ..ServerConfig::default()
        });
        for i in 0..40u64 {
            let p = if i % 2 == 0 {
                path(&[200 + i as u32, 2, 1, 0])
            } else {
                path(&[300 + i as u32, 105, 100])
            };
            srv.register(PeerId(i), p).unwrap();
        }
        srv.advance_epoch().unwrap();
        let renew: Vec<PeerId> = (0..30).map(PeerId).collect();
        srv.renew_batch(&renew);
        srv.advance_epoch().unwrap();
        srv.handover(PeerId(0), path(&[310, 105, 100])).unwrap();
        srv.deregister_forwarding(PeerId(1), 3).unwrap();
        srv.deregister(PeerId(2)).unwrap();
        srv.leave_batch(&[PeerId(3), PeerId(5)]);
        for _ in 0..4 {
            srv.advance_epoch().unwrap();
        }
        srv.expire_stale(3);
        srv
    }

    #[test]
    fn snapshot_recover_roundtrip_restores_exact_directory() {
        let srv = churned_adaptive_server();
        let bytes = srv.snapshot_bytes().unwrap();
        let (restored, report) = ManagementServer::recover(&bytes, &[]).unwrap();
        assert_eq!(report.snapshot_bytes, bytes.len());
        assert_eq!(report.journal_records, 0);
        assert!(!report.journal_torn_tail);
        assert_same_directory(&srv, &restored);
        // Future behavior matches too: the same sweep on both sides
        // expires the same peers (adaptive EWMA state survived).
        let mut live = srv;
        let mut back = restored;
        for _ in 0..6 {
            live.advance_epoch().unwrap();
            back.advance_epoch().unwrap();
            assert_eq!(live.expire_stale(3), back.expire_stale(3));
        }
        assert_same_directory(&live, &back);
    }

    #[test]
    fn journal_replay_reaches_live_state() {
        use crate::directory::persist::journal::append_op;
        let mut live = churned_adaptive_server();
        let snapshot = live.snapshot_bytes().unwrap();
        // Keep mutating the live server, journaling every op.
        let mut journal = Vec::new();
        let ops = vec![
            JournalOp::AdvanceEpoch,
            JournalOp::RegisterBatch(vec![
                (PeerId(100), path(&[210, 2, 1, 0])),
                (PeerId(101), path(&[320, 105, 100])),
                (PeerId(4), path(&[204, 2, 1, 0])), // renewal
            ]),
            JournalOp::RenewBatch((6..20).map(PeerId).collect()),
            JournalOp::Handover {
                peer: PeerId(100),
                path: path(&[321, 105, 100]),
            },
            JournalOp::DeregisterForwarding {
                peer: PeerId(101),
                to_region: 7,
            },
            JournalOp::Deregister(PeerId(6)),
            JournalOp::AdvanceEpoch,
            JournalOp::AdvanceEpoch,
            JournalOp::LeaveBatch(vec![PeerId(7), PeerId(999)]),
            JournalOp::ExpireStale { max_age: 2 },
        ];
        for op in ops {
            append_op(&mut journal, &op);
            live.apply_journal_op(op);
        }
        let (recovered, report) = ManagementServer::recover(&snapshot, &journal).unwrap();
        assert_eq!(report.journal_records, 10);
        assert_eq!(report.journal_bytes, journal.len());
        assert!(!report.journal_torn_tail);
        assert_same_directory(&live, &recovered);
    }

    #[test]
    fn recovery_fails_closed_on_damaged_snapshot() {
        let srv = churned_adaptive_server();
        let good = srv.snapshot_bytes().unwrap();

        // Too short to even hold a header and checksum.
        assert!(matches!(
            ManagementServer::recover(&good[..10], &[]),
            Err(CoreError::Persist(PersistError::Truncated))
        ));
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            ManagementServer::recover(&bad, &[]),
            Err(CoreError::Persist(PersistError::BadMagic(_)))
        ));
        // Unsupported version.
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            ManagementServer::recover(&bad, &[]),
            Err(CoreError::Persist(PersistError::UnsupportedVersion(99)))
        ));
        // A single flipped body byte fails the checksum before parsing.
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(matches!(
            ManagementServer::recover(&bad, &[]),
            Err(CoreError::Persist(PersistError::ChecksumMismatch { .. }))
        ));
        // Truncation anywhere also fails the checksum (the trailing eight
        // bytes are now body bytes, not the stored sum).
        let cut = good.len() - 20;
        assert!(matches!(
            ManagementServer::recover(&good[..cut], &[]),
            Err(CoreError::Persist(PersistError::ChecksumMismatch { .. }))
        ));
    }

    /// A snapshot whose checksum holds but whose lease table is larger
    /// than its slab could have grown is refused before the table is
    /// allocated (2^40 slots would be 4 TiB).
    #[test]
    fn a_forged_lease_table_capacity_is_refused() {
        let mut srv =
            ManagementServer::new(vec![RouterId(0)], vec![vec![0]], ServerConfig::default())
                .unwrap();
        srv.register(PeerId(1), path(&[3, 2, 1, 0])).unwrap();
        let good = srv.snapshot_bytes().unwrap();
        let forge = |cap: u64| {
            // From the end: checksum (8), adaptive flag (1), sweep
            // counters (16), the one bucket and its one note (16), the
            // bucket count (8) and base (8), then the table capacity.
            let at = good.len() - 8 - 1 - 16 - 16 - 8 - 8 - 8;
            let mut forged = good.clone();
            assert_eq!(forged[at..at + 8], 8u64.to_le_bytes());
            forged[at..at + 8].copy_from_slice(&cap.to_le_bytes());
            let body = forged.len() - 8;
            let sum = persist::checksum(&forged[..body]);
            forged[body..].copy_from_slice(&sum.to_le_bytes());
            forged
        };
        assert_eq!(forge(8), good);
        assert!(matches!(
            ManagementServer::recover(&forge(1 << 40), &[]),
            Err(CoreError::Persist(PersistError::Corrupt(_)))
        ));
    }

    #[test]
    fn a_forged_cross_landmark_flag_is_refused() {
        let mut srv =
            ManagementServer::new(vec![RouterId(0)], vec![vec![0]], ServerConfig::default())
                .unwrap();
        srv.register(PeerId(1), path(&[3, 2, 1, 0])).unwrap();
        let good = srv.snapshot_bytes().unwrap();
        let forge = |flag: u8| {
            // Header (8), then the neighbor count (8), then the flag.
            let at = 8 + 8;
            let mut forged = good.clone();
            assert_eq!(forged[at], 1);
            forged[at] = flag;
            let body = forged.len() - 8;
            let sum = persist::checksum(&forged[..body]);
            forged[body..].copy_from_slice(&sum.to_le_bytes());
            forged
        };
        assert_eq!(forge(1), good);
        assert!(ManagementServer::recover(&forge(1), &[]).is_ok());
        assert!(matches!(
            ManagementServer::recover(&forge(0), &[]),
            Err(CoreError::Persist(PersistError::Corrupt(_)))
        ));
    }

    #[test]
    fn torn_journal_tail_replays_to_last_intact_record() {
        use crate::directory::persist::journal::append_op;
        let mut live = churned_adaptive_server();
        let snapshot = live.snapshot_bytes().unwrap();
        let mut journal = Vec::new();
        append_op(&mut journal, &JournalOp::AdvanceEpoch);
        live.apply_journal_op(JournalOp::AdvanceEpoch);
        append_op(
            &mut journal,
            &JournalOp::RegisterBatch(vec![(PeerId(500), path(&[250, 2, 1, 0]))]),
        );
        live.apply_journal_op(JournalOp::RegisterBatch(vec![(
            PeerId(500),
            path(&[250, 2, 1, 0]),
        )]));
        let intact = journal.len();
        // A record the crash cut in half: replay must stop cleanly before
        // it, reporting the tear.
        append_op(
            &mut journal,
            &JournalOp::RegisterBatch(vec![(PeerId(501), path(&[251, 2, 1, 0]))]),
        );
        journal.truncate(intact + 7);
        let (recovered, report) = ManagementServer::recover(&snapshot, &journal).unwrap();
        assert_eq!(report.journal_records, 2);
        assert_eq!(report.journal_bytes, intact);
        assert!(report.journal_torn_tail);
        assert!(!recovered.index().contains(PeerId(501)));
        assert_same_directory(&live, &recovered);
    }

    /// The snapshot of a one-landmark server that held one lease at epoch
    /// 0, with its epoch and its lease buckets' base moved to `epoch`.
    fn snapshot_at_epoch(epoch: u64) -> Vec<u8> {
        let mut srv =
            ManagementServer::new(vec![RouterId(0)], vec![vec![0]], ServerConfig::default())
                .unwrap();
        srv.register(PeerId(9), path(&[7, 0])).unwrap();
        srv.deregister(PeerId(9)).unwrap();
        let mut bytes = srv.snapshot_bytes().unwrap();
        let end = bytes.len();
        // The epoch follows the header (8), neighbor count (8) and the two
        // config flags; the base follows it by the bucket count, one
        // bucket of one note, the two sweep counters, the adaptive flag
        // and the checksum.
        for at in [18, end - 57] {
            assert_eq!(bytes[at..at + 8], [0; 8]);
            bytes[at..at + 8].copy_from_slice(&epoch.to_le_bytes());
        }
        let sum = persist::checksum(&bytes[..end - 8]);
        bytes[end - 8..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// At the last epochs its lease table's `u32` offsets hold, a server
    /// registers, renews and expires; it refuses to advance past them,
    /// and a snapshot whose epoch lies past them.
    #[test]
    fn the_epoch_stops_at_the_edge_of_the_lease_window() {
        let last = u64::from(u32::MAX);
        let (mut srv, _) = ManagementServer::recover(&snapshot_at_epoch(last - 1), &[]).unwrap();
        assert_eq!(srv.epoch(), last - 1);
        srv.register(PeerId(1), path(&[4, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 0])).unwrap();
        assert_eq!(srv.advance_epoch(), Ok(last));
        srv.heartbeat(PeerId(1)).unwrap();
        assert_eq!(srv.last_seen(PeerId(1)), Some(last));
        assert_eq!(srv.advance_epoch(), Err(CoreError::EpochWindow(last)));
        assert_eq!(srv.epoch(), last);
        assert_eq!(srv.expire_stale(0), vec![PeerId(2)]);
        assert_eq!(srv.peer_count(), 1);
        let (back, _) = ManagementServer::recover(&srv.snapshot_bytes().unwrap(), &[]).unwrap();
        assert_eq!(back.last_seen(PeerId(1)), Some(last));

        assert!(matches!(
            ManagementServer::recover(&snapshot_at_epoch(last + 1), &[]),
            Err(CoreError::Persist(PersistError::Corrupt(_)))
        ));
    }

    #[test]
    fn leave_join_cycles_within_one_epoch_keep_the_snapshot_bounded() {
        const PEERS: u64 = 1_000;
        let mut srv = two_landmark_server(ServerConfig::default());
        let joins = || -> Vec<(PeerId, PeerPath)> {
            (0..PEERS)
                .map(|p| {
                    (
                        PeerId(p),
                        path(&[1_000 + p as u32, 2 + (p % 8) as u32, 1, 0]),
                    )
                })
                .collect()
        };
        let peers: Vec<PeerId> = (0..PEERS).map(PeerId).collect();
        srv.register_batch(joins());
        let first = srv.snapshot_bytes().unwrap().len();
        // 50 000 lease opens at epoch 0, all but the last 1 000 closed: a
        // note per open kept forever would add 400 kB.
        for _ in 0..50 {
            assert_eq!(srv.leave_batch(&peers), PEERS as usize);
            assert_eq!(srv.register_batch(joins()).joined, PEERS as usize);
        }
        assert_eq!(srv.epoch(), 0);
        let last = srv.snapshot_bytes().unwrap().len();
        assert!(
            last <= 2 * first,
            "snapshot grew from {first} to {last} bytes at a fixed population"
        );
    }

    // ---- writes under one landmark ----------------------------------------

    /// Advances `srv`'s heartbeat epoch to `epoch`.
    fn advance_to(srv: &mut ManagementServer, epoch: u64) {
        while srv.epoch() < epoch {
            srv.advance_epoch().unwrap();
        }
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        assert_eq!(srv.peer_count(), 2);
        assert_eq!(srv.tree(LandmarkId(0)).unwrap().n_peers(), 2);
        assert_eq!(srv.path_of(PeerId(1)).unwrap().attach(), RouterId(4));
        let q = path(&[4, 2, 1, 0]);
        let res = srv.index().query_nearest(&q, 5, None);
        assert_eq!(res[0].peer, PeerId(1));
        assert_eq!(res[0].dtree, 0);
        assert_eq!(res[1].peer, PeerId(2));
        assert_eq!(res[1].dtree, 2);
        srv.deregister(PeerId(1)).unwrap();
        assert!(srv.deregister(PeerId(1)).is_err());
        assert_eq!(srv.peer_count(), 1);
        assert!(srv.path_of(PeerId(1)).is_none());
        let stats = srv.stats();
        assert_eq!((stats.joins, stats.leaves), (2, 1));
    }

    #[test]
    fn rejects_foreign_and_duplicate() {
        let mut srv = two_landmark_server(ServerConfig::default());
        assert!(matches!(
            srv.register(PeerId(1), path(&[4, 2, 99])),
            Err(CoreError::UnknownLandmark(_))
        ));
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        assert!(matches!(
            srv.register(PeerId(1), path(&[5, 2, 1, 0])),
            Err(CoreError::DuplicatePeer(_))
        ));
    }

    #[test]
    fn batch_matches_sequential_inserts() {
        let mut seq = two_landmark_server(ServerConfig::default());
        let mut bat = two_landmark_server(ServerConfig::default());
        for srv in [&mut seq, &mut bat] {
            advance_to(srv, 3);
        }
        let paths = [
            path(&[4, 2, 1, 0]),
            path(&[5, 2, 1, 0]),
            path(&[6, 3, 1, 0]),
            path(&[7, 42]), // unknown landmark, skipped both ways
            path(&[2, 1, 0]),
        ];
        let mut ok = 0;
        for (i, p) in paths.iter().enumerate() {
            if seq.register(PeerId(i as u64), p.clone()).is_ok() {
                ok += 1;
            }
        }
        let items: Vec<(PeerId, PeerPath)> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| (PeerId(i as u64), p.clone()))
            .collect();
        let out = bat.register_batch(items);
        assert_eq!((out.joined, out.renewed, out.rejected), (ok, 0, 1));
        assert_eq!(bat.peer_count(), seq.peer_count());
        assert_eq!(bat.index().n_routers(), seq.index().n_routers());
        let (bt, st) = (
            bat.tree(LandmarkId(0)).unwrap(),
            seq.tree(LandmarkId(0)).unwrap(),
        );
        assert_eq!(bt.n_peers(), st.n_peers());
        assert_eq!(bt.n_nodes(), st.n_nodes());
        assert_eq!(bat.last_seen(PeerId(0)), Some(3));
        let q = path(&[4, 2, 1, 0]);
        assert_eq!(
            bat.index().query_nearest(&q, 5, None),
            seq.index().query_nearest(&q, 5, None)
        );
        assert_eq!(bat.stats().joins, seq.stats().joins);
    }

    #[test]
    fn batch_skips_duplicates_within_batch() {
        let mut srv = two_landmark_server(ServerConfig::default());
        let out = srv.register_batch(vec![
            (PeerId(1), path(&[4, 2, 1, 0])),
            (PeerId(1), path(&[5, 2, 1, 0])),
        ]);
        assert_eq!((out.joined, out.renewed), (1, 1));
        assert_eq!(srv.path_of(PeerId(1)).unwrap().attach(), RouterId(4));
        assert_eq!(srv.stats().joins, 1);
    }

    #[test]
    fn absorb_batch_renews_instead_of_skipping() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        advance_to(&mut srv, 7);
        let out = srv.register_batch(vec![
            (PeerId(1), path(&[5, 2, 1, 0])), // registered: renew, keep path
            (PeerId(2), path(&[5, 2, 1, 0])), // fresh: join
            (PeerId(3), path(&[9, 42])),      // unknown landmark: reject
        ]);
        assert_eq!(
            out,
            BatchOutcome {
                joined: 1,
                renewed: 1,
                rejected: 1
            }
        );
        assert_eq!(srv.peer_count(), 2);
        assert_eq!(srv.last_seen(PeerId(1)), Some(7), "lease renewed");
        assert_eq!(
            srv.path_of(PeerId(1)).unwrap().attach(),
            RouterId(4),
            "renewal keeps the stored path"
        );
        assert_eq!(srv.stats().joins, 2);
    }

    #[test]
    fn remove_batch_ignores_foreign_and_duplicate_ids() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        let removed = srv.leave_batch(&[PeerId(2), PeerId(9), PeerId(2), PeerId(1)]);
        assert_eq!(removed, 2);
        assert_eq!(srv.peer_count(), 0);
        assert_eq!(srv.stats().leaves, 2);
    }

    #[test]
    fn expire_batch_sweeps_and_cleans_indexes() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        advance_to(&mut srv, 4);
        srv.heartbeat(PeerId(1)).unwrap();
        advance_to(&mut srv, 6);
        assert_eq!(srv.expire_stale(3), vec![PeerId(2)]);
        assert_eq!(srv.peer_count(), 1);
        assert_eq!(srv.tree(LandmarkId(0)).unwrap().n_peers(), 1);
        assert!(srv.path_of(PeerId(2)).is_none());
        assert_eq!(srv.path_store(LandmarkId(0)).unwrap().distinct(), 1);
        assert_eq!(srv.index().n_routers(), 4, "router 5 left with peer 2");
        assert_eq!(srv.stats().leaves, 1);
    }

    #[test]
    fn remove_forwarding_leaves_a_swept_tombstone() {
        let mut srv = two_landmark_server(ServerConfig::default());
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        advance_to(&mut srv, 2);
        srv.deregister_forwarding(PeerId(1), 3).unwrap();
        assert!(srv.deregister_forwarding(PeerId(9), 3).is_err());
        // The peer is gone from every directory structure...
        assert_eq!(srv.peer_count(), 1);
        assert!(srv.path_of(PeerId(1)).is_none());
        assert_eq!(srv.tree(LandmarkId(0)).unwrap().n_peers(), 1);
        assert_eq!(srv.stats().leaves, 1);
        // ...but the forwarding record remains until its retention lapses.
        assert_eq!(srv.forwarded_to(PeerId(1)), Some(3));
        assert_eq!(srv.tombstone_count(), 1);
        advance_to(&mut srv, 4);
        let sweep = srv.expire_stale_full(4);
        assert!(sweep.expired.is_empty() && sweep.moved.is_empty());
        advance_to(&mut srv, 7);
        let sweep = srv.expire_stale_full(4);
        assert_eq!(sweep.moved, vec![(PeerId(1), 3)]);
        // Peer 2's lease (last seen 0) lapsed in the same sweep — the two
        // dispositions stay distinguishable.
        assert_eq!(sweep.expired, vec![PeerId(2)]);
        assert_eq!(srv.tombstone_count(), 0);
        assert_eq!(srv.forwarded_to(PeerId(1)), None);
    }

    #[test]
    fn emptied_shard_holds_no_router_and_no_tree_node() {
        // 1 000 peers, each behind its own access router, leave by every
        // road out of a landmark; nothing of them may stay behind.
        let mut srv = two_landmark_server(ServerConfig::default());
        let ids: Vec<PeerId> = (0..1_000).map(PeerId).collect();
        let items = ids
            .iter()
            .map(|&p| (p, path(&[10_000 + p.0 as u32, 2 + p.0 as u32 % 7, 1, 0])));
        assert_eq!(srv.register_batch(items.collect()).joined, 1_000);
        assert_eq!(srv.index().n_routers(), 1_000 + 7 + 2);
        let tree = srv.tree(LandmarkId(0)).unwrap();
        assert_eq!(tree.n_nodes(), 1_000 + 7 + 2);
        assert_eq!(srv.leave_batch(&ids[..400]), 400);
        for &peer in &ids[400..700] {
            srv.deregister_forwarding(peer, 1).unwrap();
        }
        advance_to(&mut srv, 10);
        let sweep = srv.expire_stale_full(4);
        assert_eq!((&sweep.expired[..], sweep.moved.len()), (&ids[700..], 300));
        let left = (
            srv.peer_count(),
            srv.index().n_routers(),
            srv.tombstone_count(),
        );
        assert_eq!(left, (0, 0, 0));
        let tree = srv.tree(LandmarkId(0)).unwrap();
        assert_eq!(tree.n_nodes(), 1, "only the landmark's own router");
        assert_eq!(tree.n_peers(), 0);
        assert!(srv.path_store(LandmarkId(0)).unwrap().is_empty());
    }

    #[test]
    fn expire_epoch_without_adaptive_expires_what_stale_peers_names() {
        // Uniform leases: a sweep at (now, max_age) retires exactly the
        // peers last seen before `now - max_age`, at every cutoff.
        for (now, max_age) in [(3, 3), (5, 3), (6, 3), (9, 3), (6, 0)] {
            let mut srv = two_landmark_server(ServerConfig::default());
            srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
            advance_to(&mut srv, 2);
            srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
            advance_to(&mut srv, 3);
            srv.heartbeat(PeerId(1)).unwrap();
            advance_to(&mut srv, now);
            let stale: Vec<PeerId> = [PeerId(1), PeerId(2)]
                .into_iter()
                .filter(|&p| srv.last_seen(p).unwrap() < now - max_age)
                .collect();
            assert_eq!(srv.expire_stale(max_age), stale, "({now}, {max_age})");
            assert_eq!(srv.peer_count(), 2 - stale.len());
        }
    }

    #[test]
    fn adaptive_shortens_the_lease_of_short_lived_peers() {
        let cfg = AdaptiveLeaseConfig {
            ewma_shift: 1,
            margin: 1,
            min_age: 1,
            max_age: 16,
            max_tracked: 1024,
        };
        let mut srv = two_landmark_server(ServerConfig {
            adaptive_leases: Some(cfg),
            ..ServerConfig::default()
        });
        // Peer 1 lives one epoch, leaves, and rejoins repeatedly: its EWMA
        // settles near 1, so its lease is derived as ~2 epochs.
        for round in 0u64..4 {
            advance_to(&mut srv, round * 10);
            srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
            advance_to(&mut srv, round * 10 + 1);
            srv.heartbeat(PeerId(1)).unwrap();
            srv.deregister(PeerId(1)).unwrap();
        }
        advance_to(&mut srv, 100);
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        // A fresh peer joins at the same epoch with no history.
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        // Sweep at epoch 106 with the default lease of 16: the adapted
        // peer (ttl ≈ 2) is expired ~8 epochs sooner than the default
        // would allow; the history-less peer keeps the full lease.
        advance_to(&mut srv, 106);
        assert_eq!(srv.expire_stale(16), vec![PeerId(1)]);
        assert!(srv.index().contains(PeerId(2)));
        assert_eq!(srv.config().adaptive_leases, Some(cfg));
    }

    #[test]
    fn adaptive_lease_never_exceeds_the_configured_cap() {
        let cfg = AdaptiveLeaseConfig {
            ewma_shift: 0, // take each session whole
            margin: 0,
            min_age: 1,
            max_age: 4,
            max_tracked: 1024,
        };
        let mut srv = two_landmark_server(ServerConfig {
            adaptive_leases: Some(cfg),
            ..ServerConfig::default()
        });
        // One very long session: the estimate caps out, so the peer is
        // untracked and rides the default lease on rejoin (= the
        // configured cap in a consistent deployment).
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        advance_to(&mut srv, 50);
        srv.heartbeat(PeerId(1)).unwrap();
        srv.deregister(PeerId(1)).unwrap();
        advance_to(&mut srv, 60);
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        advance_to(&mut srv, 65);
        assert_eq!(
            srv.expire_stale(cfg.max_age as u64),
            vec![PeerId(1)],
            "never more than the 4-epoch cap, however long the EWMA history"
        );
    }

    #[test]
    fn interning_shares_identical_paths() {
        let mut srv = two_landmark_server(ServerConfig::default());
        // Two peers behind the same NAT report the same router path.
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[4, 2, 1, 0])).unwrap();
        let store = |srv: &ManagementServer| srv.path_store(LandmarkId(0)).unwrap().distinct();
        assert_eq!(store(&srv), 1);
        assert_eq!(srv.path_store(LandmarkId(0)).unwrap().dedup_hits(), 1);
        // Both peers are individually indexed and removable.
        assert_eq!(srv.index().peers_through(RouterId(4)).count(), 2);
        srv.deregister(PeerId(1)).unwrap();
        assert_eq!(store(&srv), 1);
        assert_eq!(srv.path_of(PeerId(2)).unwrap().attach(), RouterId(4));
        srv.deregister(PeerId(2)).unwrap();
        assert!(srv.path_store(LandmarkId(0)).unwrap().is_empty());
    }
}
