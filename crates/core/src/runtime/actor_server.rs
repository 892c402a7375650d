//! The concurrent management server: the synchronous facade behind one
//! `RwLock`.
//!
//! [`ManagementServer`] answers queries through `&self` but writes through
//! `&mut self`. [`ActorServer`] makes both callable from any number of
//! threads through `&self`: a read takes the read guard and calls the
//! facade's read, a write takes the write guard and calls the facade's
//! write. Every operation has one implementation, so answers are the
//! facade's by construction, and a write excludes readers for its duration,
//! so nothing can observe a peer half-moved.
//!
//! The wrapper adds only what the facade leaves to its embedder: a wall
//! clock for subscription rate limiting, advanced each time the write
//! guard is taken, and a lock-free "nothing queued" check so serve loops
//! poll for pushes without taking the lock.
//!
//! On the wire ([`WireService`]) a burst of requests takes one guard: the
//! read guard when every request only reads and no delta waits to be
//! pushed, the write guard otherwise. Under it `answer` dispatches each
//! request against the guarded facade, and the deltas ready before each
//! reply are drained ahead of it. A single request is a burst of one.

use super::{delta_push, stats_reply, to_wire, Outbound, WireService};
use crate::error::CoreError;
use crate::ids::PeerId;
use crate::path::PeerPath;
use crate::protocol::{Message, WireNeighbor};
use crate::router_index::Neighbor;
use crate::server::{JoinOutcome, ManagementServer, ServerConfig, ServerStats};
use crate::subscription::{NeighborDelta, Subscription, SubscriptionStats};
use crate::telemetry::{Gauge, TelemetryRegistry};
use nearpeer_topology::RouterId;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// The concurrent serving plane over one [`ManagementServer`]: reads and
/// writes from any number of threads, all through `&self`.
pub struct ActorServer {
    srv: RwLock<ManagementServer>,
    /// The facade's count of dirty subscriptions, readable without the
    /// lock.
    sub_queue_depth: Arc<Gauge>,
    /// Wall-clock origin of the facade's subscription clock.
    started: Instant,
}

impl ActorServer {
    /// Builds the server from the same inputs as
    /// [`ManagementServer::new`], rejecting what the facade would only
    /// trip over later: no landmark, a distance matrix that is not
    /// `n × n`, and an invalid [`ServerConfig`].
    pub fn new(
        landmark_routers: Vec<RouterId>,
        landmark_dist: Vec<Vec<u32>>,
        config: ServerConfig,
    ) -> Result<Self, CoreError> {
        let n = landmark_routers.len();
        if n == 0 {
            return Err(CoreError::InvalidConfig(
                "a server needs at least one landmark (zero shards cannot \
                 register anything)"
                    .into(),
            ));
        }
        if landmark_dist.len() != n || landmark_dist.iter().any(|row| row.len() != n) {
            return Err(CoreError::InvalidConfig(format!(
                "landmark distance matrix must be {n}x{n}"
            )));
        }
        config.validate()?;
        let srv = ManagementServer::new(landmark_routers, landmark_dist, config);
        Ok(Self {
            sub_queue_depth: srv.sub_queue_depth(),
            srv: RwLock::new(srv),
            started: Instant::now(),
        })
    }

    fn read(&self) -> RwLockReadGuard<'_, ManagementServer> {
        self.srv.read().expect("server poisoned")
    }

    /// The write guard, with the subscription clock advanced to now.
    fn write(&self) -> RwLockWriteGuard<'_, ManagementServer> {
        let mut srv = self.srv.write().expect("server poisoned");
        srv.set_sub_clock_ms(self.started.elapsed().as_millis() as u64);
        srv
    }

    /// Registered peer count.
    pub fn peer_count(&self) -> usize {
        self.read().peer_count()
    }

    /// The current heartbeat epoch.
    pub fn epoch(&self) -> u64 {
        self.read().epoch()
    }

    /// [`ManagementServer::advance_epoch`].
    pub fn advance_epoch(&self) -> Result<u64, CoreError> {
        self.write().advance_epoch()
    }

    /// [`ManagementServer::register`].
    pub fn register(&self, peer: PeerId, path: PeerPath) -> Result<JoinOutcome, CoreError> {
        self.write().register(peer, path)
    }

    /// [`ManagementServer::deregister`].
    pub fn deregister(&self, peer: PeerId) -> Result<(), CoreError> {
        self.write().deregister(peer)
    }

    /// [`ManagementServer::heartbeat`].
    pub fn heartbeat(&self, peer: PeerId) -> Result<(), CoreError> {
        self.write().heartbeat(peer)
    }

    /// [`ManagementServer::handover`].
    pub fn handover(&self, peer: PeerId, new_path: PeerPath) -> Result<JoinOutcome, CoreError> {
        self.write().handover(peer, new_path)
    }

    /// [`ManagementServer::expire_stale`].
    pub fn expire_stale(&self, max_age: u64) -> Vec<PeerId> {
        self.write().expire_stale(max_age)
    }

    /// [`ManagementServer::closest_to_path`].
    pub fn closest_to_path(
        &self,
        path: &PeerPath,
        k: usize,
        exclude: Option<PeerId>,
    ) -> Vec<Neighbor> {
        self.read().closest_to_path(path, k, exclude)
    }

    /// [`ManagementServer::neighbors_of`].
    pub fn neighbors_of(&self, peer: PeerId, k: usize) -> Result<Vec<Neighbor>, CoreError> {
        self.read().neighbors_of(peer, k)
    }

    /// [`ManagementServer::stats`].
    pub fn stats(&self) -> ServerStats {
        self.read().stats()
    }

    /// [`ManagementServer::bind_telemetry`]: the `dir_*` and `sub_*`
    /// series become scrapeable and slow queries land in the registry's
    /// trace log.
    pub fn bind_telemetry(&self, reg: Arc<TelemetryRegistry>) {
        self.write().bind_telemetry(reg);
    }

    /// The bound registry, if any.
    pub fn telemetry(&self) -> Option<Arc<TelemetryRegistry>> {
        self.read().telemetry()
    }

    /// [`ManagementServer::open_sub_client`].
    pub fn open_sub_client(&self) -> u64 {
        self.write().open_sub_client()
    }

    /// [`ManagementServer::close_sub_client`].
    pub fn close_sub_client(&self, client: u64) {
        self.write().close_sub_client(client);
    }

    /// [`ManagementServer::subscribe`].
    pub fn subscribe(&self, client: u64, sub: Subscription) -> Result<Vec<Neighbor>, CoreError> {
        self.write().subscribe(client, sub)
    }

    /// [`ManagementServer::drain_deltas`] against the wall clock.
    ///
    /// Every serve-loop iteration of every connection calls this, so with
    /// no subscription dirty anywhere it returns without the lock or a
    /// clock read. `Relaxed` suffices for that gate: the dirty marks
    /// themselves are only read under the lock, and the count was raised
    /// under it before the churn op that marked them returned, which is
    /// before its reply (and so any later fencing request) exists.
    pub fn drain_deltas(&self, client: u64, max: usize, out: &mut Vec<NeighborDelta>) {
        if self.sub_queue_depth.get() == 0 {
            return;
        }
        self.write().drain_deltas(client, max, out);
    }

    /// [`ManagementServer::subscription_stats`].
    pub fn subscription_stats(&self) -> SubscriptionStats {
        self.read().subscription_stats()
    }

    /// Serves `frames` in order under one guard, handing `emit` each reply
    /// and, when `pushes` is set and `client` is a push channel, the
    /// deltas ready for `client` before it. `writes` says whether any
    /// frame fails [`only_reads`]. The read guard serves a burst that
    /// writes nothing while no delta waits; anything else takes the write
    /// guard, which advances the subscription clock once for the burst.
    fn serve_burst(
        &self,
        client: Option<u64>,
        writes: bool,
        pushes: bool,
        frames: impl Iterator<Item = Message>,
        mut emit: impl FnMut(Outbound),
    ) {
        let push_to = client.filter(|_| pushes);
        if !writes {
            let srv = self.read();
            // Read under the guard: no write can queue a delta until it
            // drops, and the guard's acquire sees every earlier write's.
            if push_to.is_none() || self.sub_queue_depth.get() == 0 {
                for msg in frames {
                    emit(Outbound::Reply(answer_read(&srv, msg)));
                }
                return;
            }
        }
        let mut srv = self.write();
        let mut deltas = Vec::new();
        for msg in frames {
            if let Some(client) = push_to {
                if self.sub_queue_depth.get() > 0 {
                    srv.drain_deltas(client, usize::MAX, &mut deltas);
                    for d in deltas.drain(..) {
                        emit(Outbound::Push(delta_push(d)));
                    }
                }
            }
            emit(Outbound::Reply(answer(&mut srv, client, msg)));
        }
    }
}

/// Whether `msg` leaves the directory and the subscriptions untouched, so
/// the read guard can serve it.
fn only_reads(msg: &Message) -> bool {
    !matches!(
        msg,
        Message::JoinRequest { .. }
            | Message::HandoverRequest { .. }
            | Message::Leave { .. }
            | Message::Heartbeat { .. }
            | Message::Subscribe { .. }
            | Message::Unsubscribe { .. }
    )
}

/// Answers one request under the write guard, on behalf of `client`.
fn answer(srv: &mut ManagementServer, client: Option<u64>, msg: Message) -> Option<Message> {
    match msg {
        Message::JoinRequest { peer, path } => Some(Message::join_reply(
            peer,
            srv.register(peer, path).map(|out| out.neighbors),
        )),
        Message::HandoverRequest { peer, path } => Some(Message::join_reply(
            peer,
            srv.handover(peer, path).map(|out| out.neighbors),
        )),
        Message::Leave { peer } => {
            let _ = srv.deregister(peer);
            None
        }
        Message::Heartbeat { peer } => {
            let _ = srv.heartbeat(peer);
            None
        }
        Message::Subscribe {
            nonce,
            peer,
            k,
            min_interval_ms,
        } => Some(match client {
            Some(client) => match srv.subscribe(
                client,
                Subscription {
                    peer,
                    k: k as usize,
                    min_interval_ms: min_interval_ms as u64,
                },
            ) {
                Ok(initial) => Message::SubAck {
                    nonce,
                    peer,
                    neighbors: to_wire(initial),
                },
                Err(e) => Message::JoinError {
                    peer,
                    reason: e.to_string(),
                },
            },
            // No push channel: there is nowhere to deliver deltas.
            None => Message::JoinError {
                peer,
                reason: "subscriptions need a push-capable connection".into(),
            },
        }),
        Message::Unsubscribe { nonce, peer } => {
            srv.unsubscribe(peer);
            Some(Message::SubAck {
                nonce,
                peer,
                neighbors: Vec::new(),
            })
        }
        read => answer_read(srv, read),
    }
}

/// Answers one request that [`only_reads`], under either guard.
fn answer_read(srv: &ManagementServer, msg: Message) -> Option<Message> {
    match msg {
        Message::ProbePing { nonce } | Message::Shutdown { nonce } => {
            Some(Message::ProbePong { nonce })
        }
        Message::QueryRequest {
            nonce,
            path,
            k,
            exclude,
        } => Some(Message::QueryReply {
            nonce,
            neighbors: to_wire(srv.closest_to_path(&path, k as usize, exclude)),
        }),
        Message::FillRequest {
            nonce,
            router,
            limit,
        } => Some(Message::FillReply {
            nonce,
            items: srv
                .index()
                .peers_through(router)
                .take(limit as usize)
                .map(|(peer, depth)| WireNeighbor { peer, dtree: depth })
                .collect(),
        }),
        Message::StatsRequest { nonce } => Some(stats_reply(srv.telemetry(), nonce)),
        // Stray replies are not requests; drop them.
        Message::ProbePong { .. }
        | Message::JoinReply { .. }
        | Message::JoinError { .. }
        | Message::QueryReply { .. }
        | Message::FillReply { .. }
        | Message::DeltaPush { .. }
        | Message::SubAck { .. }
        | Message::StatsReply { .. } => None,
        write => unreachable!("{} needs the write guard", write.kind_name()),
    }
}

impl WireService for ActorServer {
    fn handle(&self, msg: Message) -> Option<Message> {
        self.handle_from(None, msg)
    }

    fn open_client(&self) -> Option<u64> {
        Some(self.open_sub_client())
    }

    fn close_client(&self, client: u64) {
        self.close_sub_client(client);
    }

    fn handle_from(&self, client: Option<u64>, msg: Message) -> Option<Message> {
        let mut reply = None;
        let writes = !only_reads(&msg);
        self.serve_burst(client, writes, false, std::iter::once(msg), |out| {
            if let Outbound::Reply(r) = out {
                reply = r;
            }
        });
        reply
    }

    fn handle_batch(
        &self,
        client: Option<u64>,
        requests: &mut Vec<Message>,
        out: &mut Vec<Outbound>,
    ) {
        let writes = !requests.iter().all(only_reads);
        self.serve_burst(client, writes, true, requests.drain(..), |o| out.push(o));
    }

    fn drain_pushes(&self, client: u64, max: usize, out: &mut Vec<Message>) {
        let mut deltas = Vec::new();
        self.drain_deltas(client, max, &mut deltas);
        out.extend(deltas.into_iter().map(delta_push));
    }

    fn telemetry(&self) -> Option<Arc<TelemetryRegistry>> {
        ActorServer::telemetry(self)
    }
}

impl std::fmt::Debug for ActorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ActorServer").field(&*self.read()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LandmarkId;
    use std::time::Duration;

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
        // Two landmarks, a 1×1 matrix: the first register under the second
        // landmark would index past the matrix.
        assert!(matches!(
            ActorServer::new(
                vec![RouterId(0), RouterId(100)],
                vec![vec![0]],
                ServerConfig::default()
            ),
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
            srv.advance_epoch().unwrap();
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
    fn rate_limited_subscription_waits_for_the_wall_clock() {
        // Long enough that no scheduling delay between two back-to-back
        // calls below can span it.
        const INTERVAL: u64 = 500;
        let srv = two_landmark_server();
        srv.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        let client = srv.open_sub_client();
        srv.subscribe(
            client,
            Subscription {
                peer: PeerId(1),
                k: 3,
                min_interval_ms: INTERVAL,
            },
        )
        .unwrap();
        let drain = || {
            let mut out = Vec::new();
            srv.drain_deltas(client, usize::MAX, &mut out);
            out
        };
        // The subscribe counts as the last push: wait out one interval.
        std::thread::sleep(Duration::from_millis(INTERVAL + 50));
        srv.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        let first = drain();
        assert_eq!(first.len(), 1, "the interval since subscribing has passed");
        assert_eq!(first[0].added[0].peer, PeerId(2));
        // A second delta inside the interval is held, not dropped ...
        srv.register(PeerId(3), path(&[6, 2, 1, 0])).unwrap();
        assert!(drain().is_empty(), "pushed inside the interval");
        // ... and goes out once the wall clock has passed it, with no
        // write in between to advance the clock.
        std::thread::sleep(Duration::from_millis(INTERVAL + 50));
        let second = drain();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].added[0].peer, PeerId(3));
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
                        srv.neighbors_of(PeerId(id), 3).unwrap();
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
