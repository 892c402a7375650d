//! The concurrent management server: one lock per shard, writes applied on
//! the caller's thread.
//!
//! [`crate::ManagementServer`] already serves concurrent reads (`&self`
//! queries merge across the shards); writes were the missing half — they
//! take `&mut self` and serialize the whole facade. [`ActorServer`] keeps
//! the same shards and makes both halves `&self`:
//!
//! * every shard lives in its own `RwLock`, so queries take read guards
//!   across all shards and merge through the shared plans in
//!   [`crate::directory::query`] — answers are bit-identical to the
//!   synchronous facade *by construction*;
//! * a write runs on the thread that calls it: it takes the owning
//!   shard's write guard, applies one shard operation and drops the guard.
//!   There is no mailbox, worker thread or reply channel per shard, so a
//!   write costs no hand-off and no wake-up, and a query waits for at most
//!   one operation per shard;
//! * the cross-shard invariant (a peer id registered in at most one
//!   shard) lives in a front-door **claims map**. Every write makes its
//!   membership decision and applies its shard effects inside one claims
//!   critical section, so writers serialize on `claims` and two racing
//!   writes on the same peer can never interleave their shard effects.
//!   Readers never take `claims`. Lock order: `subs` → `claims` → one
//!   shard; no thread holds two shard write guards at once.

use crate::directory::query;
use crate::directory::DirectoryShard;
use crate::error::CoreError;
use crate::ids::{IdMap, LandmarkId, PeerId};
use crate::path::PeerPath;
use crate::router_index::Neighbor;
use crate::server::{JoinOutcome, ServerConfig, ServerStats};
use crate::subscription::{
    DeltaClass, NeighborDelta, Subscription, SubscriptionHost, SubscriptionRegistry,
    SubscriptionStats,
};
use crate::telemetry::{Counter, Gauge, Histogram, SlowQueryRecord, TelemetryRegistry};
use nearpeer_topology::RouterId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockWriteGuard};
use std::time::Instant;

/// The concurrent serving plane over per-landmark shards: concurrent
/// reads *and* writes from any number of threads, all through `&self`.
///
/// Answers are bit-identical to a [`crate::ManagementServer`] fed the
/// same operations (pinned by `tests/properties.rs`): both front ends
/// call the same query plans over the same shard type. Super-peers are
/// not supported (the delegate field of [`JoinOutcome`] stays `None`).
pub struct ActorServer {
    config: ServerConfig,
    landmark_routers: Vec<RouterId>,
    landmark_by_router: IdMap<RouterId, LandmarkId>,
    landmark_dist: Vec<Vec<u32>>,
    shards: Vec<RwLock<DirectoryShard>>,
    /// Front-door membership authority: peer → owning shard index.
    claims: Mutex<HashMap<PeerId, u32>>,
    epoch: AtomicU64,
    handovers: AtomicU64,
    queries: Arc<Counter>,
    fills: Arc<Counter>,
    query_latency: Arc<Histogram>,
    /// Registry bound after construction ([`ActorServer::bind_telemetry`]);
    /// one atomic load on the query path while unbound.
    telemetry: OnceLock<Arc<TelemetryRegistry>>,
    /// Standing subscriptions. Lock order: `subs` before `claims` /
    /// shard guards (the registry's host callbacks take both); no path
    /// takes `subs` while holding `claims`.
    subs: Mutex<SubscriptionRegistry>,
    /// The registry's pending-delta count, readable without `subs`.
    sub_queue_depth: Arc<Gauge>,
    /// Wall-clock origin for subscription rate limiting.
    started: Instant,
}

impl ActorServer {
    /// Builds the server from the same inputs as
    /// [`crate::ManagementServer::new`]; spawns no thread. Super-peer
    /// promotion is rejected — regional election under concurrent writes
    /// is future work.
    pub fn new(
        landmark_routers: Vec<RouterId>,
        landmark_dist: Vec<Vec<u32>>,
        config: ServerConfig,
    ) -> Result<Self, CoreError> {
        if config.super_peers.is_some() {
            return Err(CoreError::InvalidFederation(
                "super-peers are not supported by the actorized server".into(),
            ));
        }
        if landmark_routers.is_empty() {
            return Err(CoreError::InvalidConfig(
                "a server needs at least one landmark (zero shards cannot \
                 register anything)"
                    .into(),
            ));
        }
        config.validate()?;
        let landmark_by_router = landmark_routers
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, LandmarkId(i as u32)))
            .collect();
        let shards = landmark_routers
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                RwLock::new(DirectoryShard::with_adaptive(
                    LandmarkId(i as u32),
                    r,
                    config.adaptive_leases,
                ))
            })
            .collect();
        let subs = SubscriptionRegistry::new();
        Ok(Self {
            config,
            landmark_routers,
            landmark_by_router,
            landmark_dist,
            shards,
            claims: Mutex::new(HashMap::new()),
            epoch: AtomicU64::new(0),
            handovers: AtomicU64::new(0),
            queries: Arc::new(Counter::new()),
            fills: Arc::new(Counter::new()),
            query_latency: Arc::new(Histogram::new()),
            telemetry: OnceLock::new(),
            sub_queue_depth: subs.queue_depth(),
            subs: Mutex::new(subs),
            started: Instant::now(),
        })
    }

    /// The landmark routers, indexed by [`LandmarkId`].
    pub fn landmarks(&self) -> &[RouterId] {
        &self.landmark_routers
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Registered peer count.
    pub fn peer_count(&self) -> usize {
        self.claims.lock().expect("claims poisoned").len()
    }

    /// The current heartbeat epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advances the heartbeat epoch and returns it. `&self`, unlike the
    /// facade: epoch is an atomic, and every write reads it once, inside
    /// its claims section.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Registers a newcomer and answers its closest peers — the concurrent
    /// [`crate::ManagementServer::register`].
    pub fn register(&self, peer: PeerId, path: PeerPath) -> Result<JoinOutcome, CoreError> {
        let landmark = self.landmark_for_path(&path)?;
        let query_path = path.clone();
        {
            let mut claims = self.claims.lock().expect("claims poisoned");
            if claims.contains_key(&peer) {
                return Err(CoreError::DuplicatePeer(peer));
            }
            let epoch = self.epoch.load(Ordering::Acquire);
            // Claimed only once the shard accepted the path, so a rejected
            // insert leaves nothing to roll back.
            self.shard_mut(landmark.0).insert(peer, path, epoch)?;
            claims.insert(peer, landmark.0);
        }
        self.notify_subs(DeltaClass::Join, &[peer], &[]);
        let neighbors = self.closest_to_path(&query_path, self.config.neighbor_count, Some(peer));
        Ok(JoinOutcome {
            landmark,
            neighbors,
            delegate: None,
        })
    }

    /// Removes a departed peer — the concurrent
    /// [`crate::ManagementServer::deregister`].
    pub fn deregister(&self, peer: PeerId) -> Result<(), CoreError> {
        {
            let mut claims = self.claims.lock().expect("claims poisoned");
            let Some(idx) = claims.remove(&peer) else {
                return Err(CoreError::UnknownPeer(peer));
            };
            let removed = self.shard_mut(idx).remove(peer);
            debug_assert!(removed, "claims and shards agree");
        }
        self.notify_subs(DeltaClass::Join, &[], &[peer]);
        Ok(())
    }

    /// Renews a live peer's lease — the concurrent
    /// [`crate::ManagementServer::heartbeat`].
    pub fn heartbeat(&self, peer: PeerId) -> Result<(), CoreError> {
        let claims = self.claims.lock().expect("claims poisoned");
        let Some(&idx) = claims.get(&peer) else {
            return Err(CoreError::UnknownPeer(peer));
        };
        let epoch = self.epoch.load(Ordering::Acquire);
        let renewed = self.shard_mut(idx).heartbeat(peer, epoch);
        debug_assert!(renewed, "claims and shards agree");
        Ok(())
    }

    /// Mobility handover — the concurrent
    /// [`crate::ManagementServer::handover`]. The new path is validated
    /// before teardown; the teardown and the re-insert run in one
    /// claims critical section (each under its own shard guard), so no
    /// concurrent writer can observe the peer half-moved.
    pub fn handover(&self, peer: PeerId, new_path: PeerPath) -> Result<JoinOutcome, CoreError> {
        let landmark = self.landmark_for_path(&new_path)?;
        let query_path = new_path.clone();
        {
            let mut claims = self.claims.lock().expect("claims poisoned");
            let Some(owner) = claims.get_mut(&peer) else {
                return Err(CoreError::UnknownPeer(peer));
            };
            let epoch = self.epoch.load(Ordering::Acquire);
            let removed = self.shard_mut(*owner).remove_moved(peer);
            debug_assert!(removed, "claims and shards agree");
            self.shard_mut(landmark.0)
                .insert(peer, new_path, epoch)
                .expect("validated insert into claimed slot");
            *owner = landmark.0;
        }
        self.handovers.fetch_add(1, Ordering::Relaxed);
        self.notify_subs(DeltaClass::Handover, &[peer], &[peer]);
        let neighbors = self.closest_to_path(&query_path, self.config.neighbor_count, Some(peer));
        Ok(JoinOutcome {
            landmark,
            neighbors,
            delegate: None,
        })
    }

    /// Expires every peer not seen for more than `max_age` epochs,
    /// ascending ids — the concurrent
    /// [`crate::ManagementServer::expire_stale`]. The shards sweep one
    /// after another, and their swept peers leave `claims`, in one claims
    /// section: no write can find a peer claimed but already swept.
    pub fn expire_stale(&self, max_age: u64) -> Vec<PeerId> {
        let mut expired = Vec::new();
        let mut moved = Vec::new();
        {
            let mut claims = self.claims.lock().expect("claims poisoned");
            let now = self.epoch.load(Ordering::Acquire);
            for idx in 0..self.shards.len() as u32 {
                let sweep = self.shard_mut(idx).expire_epoch(now, max_age);
                expired.extend(sweep.expired);
                moved.extend(sweep.moved.into_iter().map(|(p, _)| p));
            }
            for p in expired.iter().chain(&moved) {
                claims.remove(p);
            }
        }
        if !(expired.is_empty() && moved.is_empty()) {
            let gone: Vec<PeerId> = expired.iter().chain(&moved).copied().collect();
            self.notify_subs(DeltaClass::Expiry, &[], &gone);
        }
        expired.sort_unstable();
        expired
    }

    /// The closest registered peers to a query path — the concurrent
    /// [`crate::ManagementServer::closest_to_path`]. Takes read guards on
    /// every shard and runs the shared merge plans, so any number of
    /// threads can query while writes land between them.
    pub fn closest_to_path(
        &self,
        path: &PeerPath,
        k: usize,
        exclude: Option<PeerId>,
    ) -> Vec<Neighbor> {
        self.closest_split(path, k, exclude).0
    }

    /// [`ActorServer::closest_to_path`] plus the length of the exact
    /// section (same-tree `dtree` candidates; everything after it is a
    /// cross-landmark fill estimate) — the split the incremental
    /// subscription engine needs to seed its answers.
    pub fn closest_split(
        &self,
        path: &PeerPath,
        k: usize,
        exclude: Option<PeerId>,
    ) -> (Vec<Neighbor>, usize) {
        self.queries.inc();
        // Clock calls only with a bound registry whose timing gate is on
        // — the untelemetered query path stays as cheap as before.
        let started = self
            .telemetry
            .get()
            .filter(|t| t.timing_enabled())
            .map(|_| Instant::now());
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.read().expect("shard poisoned"))
            .collect();
        let shards = guards.iter().map(|g| &**g);
        let mut result = query::query_nearest_merged(shards.clone(), path, k, exclude);
        let exact_len = result.len();
        if result.len() < k && self.config.cross_landmark_fallback {
            if let Ok(own) = self.landmark_for_path(path) {
                let missing = k - result.len();
                let fill = query::cross_landmark_candidates(
                    shards,
                    &self.landmark_routers,
                    &self.landmark_dist,
                    own,
                    path.depth(),
                    missing,
                    exclude,
                    &result,
                );
                self.fills.add(fill.len() as u64);
                result.extend(fill);
            }
        }
        if let (Some(start), Some(t)) = (started, self.telemetry.get()) {
            let us = start.elapsed().as_micros() as u64;
            self.query_latency.record(us);
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

    /// Neighbors of an already-registered peer (fresh query).
    pub fn neighbors_of(&self, peer: PeerId, k: usize) -> Result<Vec<Neighbor>, CoreError> {
        let path = self.path_of(peer).ok_or(CoreError::UnknownPeer(peer))?;
        Ok(self.closest_to_path(&path, k, Some(peer)))
    }

    /// The first `limit` peers of the ordered peers-through-router cursor
    /// at `router`, merged across shards (the fill RPC's server side).
    pub fn peers_through_prefix(&self, router: RouterId, limit: usize) -> Vec<(PeerId, u32)> {
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.read().expect("shard poisoned"))
            .collect();
        query::peers_through_merged(guards.iter().map(|g| &**g), router)
            .take(limit)
            .collect()
    }

    /// Aggregate counters, shaped like the facade's
    /// [`crate::ManagementServer::stats`].
    pub fn stats(&self) -> ServerStats {
        let handovers = self.handovers.load(Ordering::Relaxed);
        let (inserts, removals) = self
            .shards
            .iter()
            .map(|s| {
                let g = s.read().expect("shard poisoned");
                (g.inserts(), g.removals())
            })
            .fold((0u64, 0u64), |(i, r), (si, sr)| (i + si, r + sr));
        // Saturating: the handover counter and the per-shard insert and
        // remove counters are read at different instants while writers
        // run, so a mid-handover snapshot could otherwise observe the
        // re-insert pair half-applied and underflow the subtraction.
        ServerStats {
            joins: inserts.saturating_sub(handovers),
            queries: self.queries.get(),
            cross_landmark_fills: self.fills.get(),
            leaves: removals.saturating_sub(handovers),
            handovers,
        }
    }

    /// Binds a telemetry registry (idempotent; first call wins): the
    /// directory query counters and latency histogram (`dir_*`) and the
    /// subscription counters (`sub_*`) become scrapeable, query timing
    /// honors the registry's gate, and slow queries land in its trace log.
    pub fn bind_telemetry(&self, reg: Arc<TelemetryRegistry>) {
        reg.adopt_counter("dir_queries_total", "", self.queries.clone());
        reg.adopt_counter("dir_cross_landmark_fills_total", "", self.fills.clone());
        reg.adopt_histogram("dir_query_latency_us", "", self.query_latency.clone());
        self.subs
            .lock()
            .expect("subs poisoned")
            .bind_telemetry(&reg);
        let _ = self.telemetry.set(reg);
    }

    /// The bound registry, if any.
    pub fn telemetry(&self) -> Option<Arc<TelemetryRegistry>> {
        self.telemetry.get().cloned()
    }

    /// Registers a push-capable connection with the subscription plane
    /// and returns its client token.
    pub fn open_sub_client(&self) -> u64 {
        self.subs.lock().expect("subs poisoned").open_client()
    }

    /// Drops a connection's subscriptions and queued deltas.
    pub fn close_sub_client(&self, client: u64) {
        self.subs
            .lock()
            .expect("subs poisoned")
            .close_client(client);
    }

    /// Opens (or replaces) a standing subscription for `sub.peer`,
    /// delivered through `client`'s push channel; returns the initial
    /// answer snapshot.
    pub fn subscribe(&self, client: u64, sub: Subscription) -> Result<Vec<Neighbor>, CoreError> {
        let now = self.sub_now_ms();
        let mut subs = self.subs.lock().expect("subs poisoned");
        subs.subscribe(&ActorHost(self), client, sub, now)
    }

    /// Cancels `peer`'s standing subscription; `false` if there was none.
    pub fn unsubscribe(&self, peer: PeerId) -> bool {
        self.subs.lock().expect("subs poisoned").unsubscribe(peer)
    }

    /// Drains up to `max` rate-limit-eligible deltas queued for `client`,
    /// priority first (handover > expiry > join), FIFO within a class.
    ///
    /// Every serve-loop iteration of every connection calls this, so with
    /// nothing queued for anyone it returns without the `subs` mutex or a
    /// clock read. `Relaxed` suffices for that gate: the deltas themselves
    /// are only read under the mutex, and the count was raised under it
    /// before the churn op that queued them returned, which is before its
    /// reply (and so any later fencing request) exists.
    pub fn drain_deltas(&self, client: u64, max: usize, out: &mut Vec<NeighborDelta>) {
        if self.sub_queue_depth.get() == 0 {
            return;
        }
        let now = self.sub_now_ms();
        self.subs
            .lock()
            .expect("subs poisoned")
            .drain(client, now, max, out);
    }

    /// Subscription-plane counters.
    pub fn subscription_stats(&self) -> SubscriptionStats {
        self.subs.lock().expect("subs poisoned").stats()
    }

    /// Milliseconds since this server started — the subscription plane's
    /// rate-limit clock.
    fn sub_now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Feeds one applied churn event to the subscription engine. Called
    /// after the shard write has landed and the claims lock is released,
    /// so the registry's host callbacks see the post-event directory.
    fn notify_subs(&self, class: DeltaClass, added: &[PeerId], removed: &[PeerId]) {
        let mut subs = self.subs.lock().expect("subs poisoned");
        if subs.is_empty() {
            return;
        }
        let epoch = self.epoch.load(Ordering::Acquire);
        let now = self.sub_now_ms();
        subs.observe(&ActorHost(self), class, epoch, now, added, removed);
    }

    fn landmark_for_path(&self, path: &PeerPath) -> Result<LandmarkId, CoreError> {
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

    /// The write guard of shard `idx`. Callers hold `claims` and drop the
    /// guard before taking another.
    fn shard_mut(&self, idx: u32) -> RwLockWriteGuard<'_, DirectoryShard> {
        self.shards[idx as usize].write().expect("shard poisoned")
    }

    /// A registered peer's stored path: the claim names the shard, the
    /// shard holds the path (two locks, never nested).
    fn path_of(&self, peer: PeerId) -> Option<PeerPath> {
        let idx = *self.claims.lock().expect("claims poisoned").get(&peer)?;
        self.shards[idx as usize]
            .read()
            .expect("shard poisoned")
            .path_of(peer)
            .cloned()
    }
}

/// The subscription engine's read-only window into the directory. Every
/// callback takes the claims lock and/or shard read guards; callers hold
/// the `subs` mutex, never the reverse.
struct ActorHost<'a>(&'a ActorServer);

impl SubscriptionHost for ActorHost<'_> {
    fn path_of(&self, peer: PeerId) -> Option<PeerPath> {
        self.0.path_of(peer)
    }

    fn landmark_at(&self, router: RouterId) -> Option<LandmarkId> {
        self.0.landmark_by_router.get(&router).copied()
    }

    fn bridge(&self, from: LandmarkId, to: LandmarkId) -> Option<u32> {
        let d = *self.0.landmark_dist.get(from.index())?.get(to.index())?;
        (d != u32::MAX).then_some(d)
    }

    fn fills_enabled(&self) -> bool {
        self.0.config.cross_landmark_fallback
    }

    fn query_split(&self, path: &PeerPath, k: usize, exclude: PeerId) -> (Vec<Neighbor>, usize) {
        self.0.closest_split(path, k, Some(exclude))
    }
}

impl std::fmt::Debug for ActorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorServer")
            .field("landmarks", &self.landmark_routers.len())
            .field("peers", &self.peer_count())
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    fn two_landmark_server() -> ActorServer {
        ActorServer::new(
            vec![RouterId(0), RouterId(100)],
            vec![vec![0, 5], vec![5, 0]],
            ServerConfig {
                neighbor_count: 3,
                ..ServerConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn invalid_configs_are_rejected_at_construction() {
        assert!(matches!(
            ActorServer::new(Vec::new(), Vec::new(), ServerConfig::default()),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            ActorServer::new(
                vec![RouterId(0)],
                vec![vec![0]],
                ServerConfig {
                    neighbor_count: 0,
                    ..ServerConfig::default()
                },
            ),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            ActorServer::new(
                vec![RouterId(0)],
                vec![vec![0]],
                ServerConfig {
                    adaptive_leases: Some(crate::AdaptiveLeaseConfig {
                        min_age: 8,
                        max_age: 2,
                        ..crate::AdaptiveLeaseConfig::default()
                    }),
                    ..ServerConfig::default()
                },
            ),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn register_query_handover_deregister_roundtrip() {
        let srv = two_landmark_server();
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        let out = srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        assert_eq!(out.landmark, LandmarkId(0));
        assert_eq!(out.neighbors[0].peer, PeerId(1));
        assert_eq!(out.neighbors[0].dtree, 2);
        assert!(matches!(
            srv.register(PeerId(1), path(&[4, 2, 1, 0])),
            Err(CoreError::DuplicatePeer(_))
        ));
        let out = srv.handover(PeerId(1), path(&[110, 105, 100])).unwrap();
        assert_eq!(out.landmark, LandmarkId(1));
        // Cross-landmark answer via the bridge: depth 2 + bridge 5 + depth 3.
        assert_eq!(out.neighbors[0].peer, PeerId(2));
        assert_eq!(out.neighbors[0].dtree, 10);
        assert_eq!(srv.peer_count(), 2);
        srv.deregister(PeerId(2)).unwrap();
        assert!(matches!(
            srv.deregister(PeerId(2)),
            Err(CoreError::UnknownPeer(_))
        ));
        assert_eq!(srv.peer_count(), 1);
        let stats = srv.stats();
        assert_eq!((stats.joins, stats.leaves, stats.handovers), (2, 1, 1));
    }

    #[test]
    fn expiry_sweeps_unrenewed_peers() {
        let srv = two_landmark_server();
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[110, 105, 100])).unwrap();
        for _ in 0..3 {
            srv.advance_epoch();
            srv.heartbeat(PeerId(1)).unwrap();
        }
        assert_eq!(srv.expire_stale(2), vec![PeerId(2)]);
        assert_eq!(srv.peer_count(), 1);
        assert!(matches!(
            srv.heartbeat(PeerId(2)),
            Err(CoreError::UnknownPeer(_))
        ));
    }

    #[test]
    fn subscription_tracks_churn_and_matches_repoll() {
        let srv = two_landmark_server();
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        let client = srv.open_sub_client();
        let initial = srv
            .subscribe(
                client,
                Subscription {
                    peer: PeerId(1),
                    k: 3,
                    min_interval_ms: 0,
                },
            )
            .unwrap();
        let mut view = initial;
        // Churn: a closer join, a cross-landmark join, a departure.
        srv.register(PeerId(3), path(&[9, 4, 2, 1, 0])).unwrap();
        srv.register(PeerId(4), path(&[110, 105, 100])).unwrap();
        srv.deregister(PeerId(2)).unwrap();
        let mut deltas = Vec::new();
        srv.drain_deltas(client, usize::MAX, &mut deltas);
        assert!(!deltas.is_empty());
        for d in deltas {
            view.retain(|n| !d.removed.contains(&n.peer));
            for a in d.added {
                match view.iter_mut().find(|n| n.peer == a.peer) {
                    Some(n) => n.dtree = a.dtree,
                    None => view.push(a),
                }
            }
        }
        let mut expect = srv.neighbors_of(PeerId(1), 3).unwrap();
        view.sort_by_key(|n| n.peer);
        expect.sort_by_key(|n| n.peer);
        assert_eq!(view, expect);
        assert_eq!(srv.subscription_stats().active, 1);
        srv.close_sub_client(client);
        assert_eq!(srv.subscription_stats().active, 0);
    }

    #[test]
    fn concurrent_writers_land_on_disjoint_shards() {
        let srv = Arc::new(two_landmark_server());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let srv = Arc::clone(&srv);
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let id = 1 + t * 50 + i;
                        let p = if id % 2 == 0 {
                            path(&[1000 + id as u32, 2, 1, 0])
                        } else {
                            path(&[1000 + id as u32, 105, 100])
                        };
                        srv.register(PeerId(id), p).unwrap();
                    }
                });
            }
        });
        assert_eq!(srv.peer_count(), 200);
        // Every peer is findable and excluded from its own answer.
        for id in 1..=200u64 {
            let n = srv.neighbors_of(PeerId(id), 3).unwrap();
            assert!(n.iter().all(|x| x.peer != PeerId(id)));
            assert_eq!(n.len(), 3);
        }
    }
}
