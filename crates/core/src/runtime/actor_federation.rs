//! The actorized federation: regions behind locks, RPC-as-frames.
//!
//! [`crate::Federation`]'s home-first + fanout query is a loop of nested
//! function calls into each region's server, and its writes take
//! `&mut self`. Here every [`Region`]'s `ManagementServer` moves behind
//! its own `RwLock`, so the front door serves any number of threads
//! through `&self`, and spawns no thread of its own:
//!
//! * a write applies on the calling thread inside the front door's claims
//!   mutex (the peer → region table; writers serialize there), under one
//!   region write guard at a time. Lock order: `claims` → one region;
//! * a read carries its RPCs as **encoded [`crate::codec`] frames** — the
//!   same `QueryRequest`/`QueryReply`/`FillRequest`/`FillReply` messages
//!   `nearpeerd` speaks over TCP. For each consulted region, in consult
//!   order, the region-side handler answers the frame under that region's
//!   read guard on the calling thread, so the in-process fan-out exercises
//!   the exact bytes a wire deployment would exchange without a thread
//!   hand-off. Replies merge by `(dtree, peer)`. Readers never take the
//!   claims mutex.
//!
//! Bridge fills become prefix-cursor RPCs: instead of lazily pulling a
//! foreign region's `peers_through` iterator, the front door requests a
//! bounded prefix per foreign landmark (`FillRequest { router, limit }`)
//! and k-way merges the prefixes with the same per-cursor base the
//! synchronous [`crate::Federation::closest_to_path`] uses. The prefix
//! bound `2·missing + |exclude| + |already|` dominates every skip the
//! merge can make (excluded peers, already-answered peers, cross-cursor
//! duplicates — the emitted set never exceeds `missing`), so the merged
//! result is **bit-identical** to the synchronous federation's — pinned
//! at 1, 2 and 4 regions by `tests/properties.rs`.
//!
//! [`Region`]: crate::Region

use crate::codec;
use crate::directory::query;
use crate::error::CoreError;
use crate::federation::{FederatedJoin, FederationStats, FederationSweep, RuntimeParts};
use crate::federation::{Federation, FederationConfig, RegionId};
use crate::ids::{IdMap, LandmarkId, PeerId};
use crate::path::PeerPath;
use crate::protocol::{Message, WireNeighbor};
use crate::router_index::Neighbor;
use crate::server::ManagementServer;
use crate::telemetry::{Counter, Histogram, SlowQueryRecord, TelemetryRegistry};
use bytes::{Bytes, BytesMut};
use nearpeer_topology::RouterId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockWriteGuard};
use std::time::Instant;

/// The actorized federation front door: every region behind its own
/// `RwLock`, cross-region RPC carried as codec frames, all operations
/// `&self`.
///
/// Answers are bit-identical to a [`Federation`] fed the same operations
/// (same consult order, same merges, same bridge fills); super-peers are
/// rejected at construction exactly like the synchronous front door.
pub struct ActorFederation {
    landmark_routers: Vec<RouterId>,
    landmark_dist: Vec<Vec<u32>>,
    landmark_region: Vec<RegionId>,
    router_landmark: IdMap<RouterId, u32>,
    bridge: Vec<Vec<u32>>,
    fanout: Option<usize>,
    fallback: bool,
    neighbor_count: usize,
    servers: Vec<RwLock<ManagementServer>>,
    /// Front-door membership authority: peer → current region. Every
    /// write makes its membership decision and applies its region effects
    /// inside one claims critical section.
    claims: Mutex<HashMap<PeerId, RegionId>>,
    epoch: AtomicU64,
    nonce: AtomicU64,
    handovers: AtomicU64,
    cross_region_handovers: AtomicU64,
    queries: Arc<Counter>,
    remote: Arc<Counter>,
    fills: Arc<Counter>,
    query_latency: Arc<Histogram>,
    telemetry: OnceLock<Arc<TelemetryRegistry>>,
}

impl ActorFederation {
    /// Builds the actorized federation from the same inputs as
    /// [`Federation::new`] (round-robin landmark partition, derived
    /// bridge matrix); spawns no thread.
    pub fn new(
        landmark_routers: Vec<RouterId>,
        landmark_dist: Vec<Vec<u32>>,
        n_regions: usize,
        config: FederationConfig,
    ) -> Result<Self, CoreError> {
        // Reuse the synchronous constructor: validation, partition and
        // bridge derivation stay one implementation.
        let parts: RuntimeParts =
            Federation::new(landmark_routers, landmark_dist, n_regions, config)?
                .into_runtime_parts();
        Ok(Self {
            landmark_routers: parts.landmark_routers,
            landmark_dist: parts.landmark_dist,
            landmark_region: parts.landmark_region,
            router_landmark: parts.router_landmark,
            bridge: parts.bridge,
            fanout: parts.fanout,
            fallback: parts.fallback,
            neighbor_count: parts.neighbor_count,
            servers: parts.servers.into_iter().map(RwLock::new).collect(),
            claims: Mutex::new(HashMap::new()),
            epoch: AtomicU64::new(0),
            nonce: AtomicU64::new(1),
            handovers: AtomicU64::new(0),
            cross_region_handovers: AtomicU64::new(0),
            queries: Arc::new(Counter::new()),
            remote: Arc::new(Counter::new()),
            fills: Arc::new(Counter::new()),
            query_latency: Arc::new(Histogram::new()),
            telemetry: OnceLock::new(),
        })
    }

    /// Number of regions.
    pub fn n_regions(&self) -> usize {
        self.servers.len()
    }

    /// The global landmark routers, indexed by global [`LandmarkId`].
    pub fn landmarks(&self) -> &[RouterId] {
        &self.landmark_routers
    }

    /// Registered peers across all regions.
    pub fn peer_count(&self) -> usize {
        self.claims.lock().expect("claims poisoned").len()
    }

    /// The federation-wide heartbeat epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The region a peer is currently registered in, if any.
    pub fn region_of_peer(&self, peer: PeerId) -> Option<RegionId> {
        self.claims
            .lock()
            .expect("claims poisoned")
            .get(&peer)
            .copied()
    }

    /// Aggregate federation counters.
    pub fn stats(&self) -> FederationStats {
        FederationStats {
            queries: self.queries.get(),
            remote_regions_consulted: self.remote.get(),
            cross_region_fills: self.fills.get(),
            handovers: self.handovers.load(Ordering::Relaxed),
            cross_region_handovers: self.cross_region_handovers.load(Ordering::Relaxed),
        }
    }

    /// Adopts the federation's counters and query-latency histogram into
    /// `reg`, and arms query timing. Idempotent in the sense that only
    /// the first registry sticks.
    pub fn bind_telemetry(&self, reg: Arc<TelemetryRegistry>) {
        reg.adopt_counter("fed_queries_total", "", Arc::clone(&self.queries));
        reg.adopt_counter(
            "fed_remote_regions_consulted_total",
            "",
            Arc::clone(&self.remote),
        );
        reg.adopt_counter("fed_cross_region_fills_total", "", Arc::clone(&self.fills));
        reg.adopt_histogram("fed_query_latency_us", "", Arc::clone(&self.query_latency));
        let _ = self.telemetry.set(reg);
    }

    /// The registry bound via [`Self::bind_telemetry`], if any.
    pub fn telemetry(&self) -> Option<Arc<TelemetryRegistry>> {
        self.telemetry.get().cloned()
    }

    /// Forwarding tombstones currently held across all regions.
    pub fn tombstone_count(&self) -> usize {
        self.servers
            .iter()
            .map(|s| s.read().expect("region server poisoned").tombstone_count())
            .sum()
    }

    /// Advances every region's epoch in lockstep — the actorized
    /// [`Federation::advance_epoch`].
    pub fn advance_epoch(&self) -> u64 {
        let _claims = self.claims.lock().expect("claims poisoned");
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        for server in &self.servers {
            let e = server
                .write()
                .expect("region server poisoned")
                .advance_epoch();
            debug_assert_eq!(e, epoch, "regions advance in lockstep");
        }
        epoch
    }

    /// Registers a newcomer — the actorized [`Federation::register`]:
    /// write-only insert in the home region, federated answer.
    pub fn register(&self, peer: PeerId, path: PeerPath) -> Result<FederatedJoin, CoreError> {
        let (region, global) = self.home_of_path(&path)?;
        let query_path = path.clone();
        {
            let mut claims = self.claims.lock().expect("claims poisoned");
            if claims.contains_key(&peer) {
                return Err(CoreError::DuplicatePeer(peer));
            }
            // Claimed only once the region accepted the insert, so a
            // refused one leaves nothing to roll back.
            let out = self
                .region_mut(region)
                .register_batch_renewing(vec![(peer, path)]);
            if out.joined != 1 {
                return Err(CoreError::DuplicatePeer(peer));
            }
            claims.insert(peer, region);
        }
        let neighbors = self.closest_to_path(&query_path, self.neighbor_count, Some(peer));
        Ok(FederatedJoin {
            region,
            landmark: LandmarkId(global),
            neighbors,
        })
    }

    /// Mobility handover — the actorized [`Federation::handover`]. The
    /// new path is validated first; a cross-region move applies the
    /// forwarding teardown and the destination insert in one claims
    /// critical section, so no concurrent write can observe the peer
    /// half-moved.
    pub fn handover(&self, peer: PeerId, new_path: PeerPath) -> Result<FederatedJoin, CoreError> {
        let (dest, global) = self.home_of_path(&new_path)?;
        let query_path = new_path.clone();
        {
            let mut claims = self.claims.lock().expect("claims poisoned");
            let Some(from) = claims.get_mut(&peer) else {
                return Err(CoreError::UnknownPeer(peer));
            };
            if *from == dest {
                self.region_mut(dest).handover(peer, new_path)?;
            } else {
                self.region_mut(*from)
                    .deregister_forwarding(peer, dest.0)
                    .expect("claims and regions agree");
                let out = self
                    .region_mut(dest)
                    .register_batch_renewing(vec![(peer, new_path)]);
                debug_assert_eq!(out.joined, 1, "peer was only live in `from`");
                *from = dest;
                self.cross_region_handovers.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.handovers.fetch_add(1, Ordering::Relaxed);
        let neighbors = self.closest_to_path(&query_path, self.neighbor_count, Some(peer));
        Ok(FederatedJoin {
            region: dest,
            landmark: LandmarkId(global),
            neighbors,
        })
    }

    /// Batched departures — the actorized [`Federation::leave_batch`].
    /// Peers partition by their claimed region (unknown ids are skipped
    /// without touching any region); returns the number removed.
    pub fn leave_batch(&self, peers: &[PeerId]) -> usize {
        let mut claims = self.claims.lock().expect("claims poisoned");
        self.apply_by_region(peers, |p| claims.remove(&p), ManagementServer::leave_batch)
    }

    /// Batched heartbeat renewal — the actorized
    /// [`Federation::renew_batch`]; returns the number renewed.
    pub fn renew_batch(&self, peers: &[PeerId]) -> usize {
        let claims = self.claims.lock().expect("claims poisoned");
        self.apply_by_region(
            peers,
            |p| claims.get(&p).copied(),
            ManagementServer::renew_batch,
        )
    }

    /// Federated lease expiry — the actorized
    /// [`Federation::expire_stale`]. The regions sweep one after another,
    /// and their expired peers leave `claims`, in one claims section: no
    /// write can find a peer claimed but already swept.
    pub fn expire_stale(&self, max_age: u64) -> FederationSweep {
        let mut out = FederationSweep::default();
        let mut claims = self.claims.lock().expect("claims poisoned");
        for (r, server) in self.servers.iter().enumerate() {
            let id = RegionId(r as u32);
            let sweep = server
                .write()
                .expect("region server poisoned")
                .expire_stale_full(max_age);
            for p in &sweep.expired {
                claims.remove(p);
            }
            out.expired
                .extend(sweep.expired.into_iter().map(|p| (id, p)));
            // Tombstones retired here belong to peers now living in their
            // destination region — their claims stay.
            out.moved_swept
                .extend(sweep.moved.into_iter().map(|(p, _)| (id, p)));
        }
        out
    }

    /// Neighbors of a registered peer, through the federated query path.
    pub fn neighbors_of(&self, peer: PeerId, k: usize) -> Result<Vec<Neighbor>, CoreError> {
        let region = self
            .region_of_peer(peer)
            .ok_or(CoreError::UnknownPeer(peer))?;
        let path = self.servers[region.index()]
            .read()
            .expect("region server poisoned")
            .path_of(peer)
            .ok_or(CoreError::UnknownPeer(peer))?
            .clone();
        Ok(self.closest_to_path(&path, k, Some(peer)))
    }

    /// The closest registered peers to a query path — the actorized
    /// [`Federation::closest_to_path`]. One `QueryRequest` frame is
    /// answered by every consulted region in consult order; replies merge
    /// by `(dtree, peer)`; bridge fills arrive as `FillReply` prefixes and
    /// merge with per-cursor bases, exactly like the synchronous merge.
    pub fn closest_to_path(
        &self,
        path: &PeerPath,
        k: usize,
        exclude: Option<PeerId>,
    ) -> Vec<Neighbor> {
        self.queries.inc();
        let started = self
            .telemetry
            .get()
            .filter(|t| t.timing_enabled())
            .map(|_| Instant::now());
        let home = self.home_of_path(path).ok();
        let consulted: Vec<RegionId> = match home {
            Some((home, _)) => self.query_regions(home),
            None => (0..self.servers.len() as u32).map(RegionId).collect(),
        };
        self.remote.add(consulted.len().saturating_sub(1) as u64);
        let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
        let frame = codec::encode_to_bytes(&Message::QueryRequest {
            nonce,
            path: path.clone(),
            k: k.min(u16::MAX as usize) as u16,
            exclude,
        });
        let mut result: Vec<Neighbor> = Vec::new();
        for &r in &consulted {
            match self.rpc(r, &frame) {
                Message::QueryReply {
                    nonce: n,
                    neighbors,
                } => {
                    debug_assert_eq!(n, nonce, "reply correlates to this request");
                    result.extend(neighbors.into_iter().map(|w| Neighbor {
                        peer: w.peer,
                        dtree: w.dtree,
                    }));
                }
                other => unreachable!("region answered {}", other.kind_name()),
            }
        }
        result.sort_unstable_by_key(|n| (n.dtree, n.peer));
        result.truncate(k);
        let exact_len = result.len();
        if result.len() < k && self.fallback {
            if let Some((_, own_global)) = home {
                let missing = k - result.len();
                let fill =
                    self.bridge_fill_rpc(path, own_global, missing, &consulted, exclude, &result);
                self.fills.add(fill.len() as u64);
                result.extend(fill);
            }
        }
        if let (Some(start), Some(t)) = (started, self.telemetry.get()) {
            let us = start.elapsed().as_micros() as u64;
            self.query_latency.record(us);
            t.slow().offer(us, || SlowQueryRecord {
                latency_us: us,
                landmark: home.map(|(_, g)| g as u64),
                path_depth: path.depth() as usize,
                fanout: result.len() - exact_len,
                answered: result.len(),
            });
        }
        result
    }

    /// Cross-region fill over `FillRequest` prefix cursors: one bounded
    /// prefix per foreign landmark in a consulted region, k-way merged by
    /// `depth(query) + bridge + depth(peer)` with per-cursor bases. The
    /// prefix bound `2·missing + |exclude| + |already|` covers the
    /// merge's worst case (each cursor can skip at most every excluded,
    /// already-answered and cross-cursor-emitted peer, and the emitted
    /// set never exceeds `missing`), so exhausting a prefix means the
    /// live cursor would have been exhausted too.
    fn bridge_fill_rpc(
        &self,
        path: &PeerPath,
        own_global: u32,
        missing: usize,
        consulted: &[RegionId],
        exclude: Option<PeerId>,
        already: &[Neighbor],
    ) -> Vec<Neighbor> {
        let query_depth = path.depth();
        let limit = (2 * missing + usize::from(exclude.is_some()) + already.len())
            .min(u16::MAX as usize) as u16;
        let mut prefixes: Vec<(u32, Vec<WireNeighbor>)> = Vec::new(); // (base, prefix)
        for (li, &lrouter) in self.landmark_routers.iter().enumerate() {
            if li as u32 == own_global {
                continue;
            }
            let region = self.landmark_region[li];
            if !consulted.contains(&region) {
                continue;
            }
            let bridge = self.landmark_dist[own_global as usize][li];
            if bridge == u32::MAX {
                continue;
            }
            let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
            let frame = codec::encode_to_bytes(&Message::FillRequest {
                nonce,
                router: lrouter,
                limit,
            });
            match self.rpc(region, &frame) {
                Message::FillReply { nonce: n, items } => {
                    debug_assert_eq!(n, nonce, "reply correlates to this request");
                    prefixes.push((query_depth + bridge, items));
                }
                other => unreachable!("region answered {}", other.kind_name()),
            }
        }
        // K-way merge of the prefixes, identical to the live-cursor merge.
        let cursors = prefixes
            .into_iter()
            .map(|(base, prefix)| (base, prefix.into_iter().map(|item| (item.peer, item.dtree))));
        query::merge_fill(cursors, missing, exclude, already)
    }

    fn home_of_path(&self, path: &PeerPath) -> Result<(RegionId, u32), CoreError> {
        self.router_landmark
            .get(&path.landmark_router())
            .map(|&g| (self.landmark_region[g as usize], g))
            .ok_or_else(|| {
                CoreError::UnknownLandmark(format!(
                    "path terminates at {} which is no federation landmark",
                    path.landmark_router()
                ))
            })
    }

    /// Home region first, then foreign regions ascending by
    /// `(bridge, id)` bounded by the fanout — identical to the
    /// synchronous federation's consult order.
    fn query_regions(&self, home: RegionId) -> Vec<RegionId> {
        let mut foreign: Vec<RegionId> = (0..self.servers.len() as u32)
            .map(RegionId)
            .filter(|&r| r != home)
            .collect();
        foreign.sort_unstable_by_key(|&r| (self.bridge[home.index()][r.index()], r.0));
        let take = self.fanout.unwrap_or(foreign.len()).min(foreign.len());
        let mut out = Vec::with_capacity(take + 1);
        out.push(home);
        out.extend(foreign.into_iter().take(take));
        out
    }

    fn region_mut(&self, region: RegionId) -> RwLockWriteGuard<'_, ManagementServer> {
        self.servers[region.index()]
            .write()
            .expect("region server poisoned")
    }

    /// One region RPC: `region`'s handler answers `frame` under its read
    /// guard on the calling thread; the reply frame is decoded after the
    /// guard is released.
    fn rpc(&self, region: RegionId, frame: &Bytes) -> Message {
        let reply = serve_query_frame(
            &self.servers[region.index()]
                .read()
                .expect("region server poisoned"),
            frame,
        );
        decode_frame(&reply)
    }

    /// Partitions `peers` by region (`claim` names each peer's region, or
    /// `None` to skip it) and applies `op` to every region with a
    /// non-empty batch, one write guard at a time. Callers hold `claims`.
    fn apply_by_region(
        &self,
        peers: &[PeerId],
        mut claim: impl FnMut(PeerId) -> Option<RegionId>,
        op: impl Fn(&mut ManagementServer, &[PeerId]) -> usize,
    ) -> usize {
        let mut per_region: Vec<Vec<PeerId>> = vec![Vec::new(); self.servers.len()];
        for &peer in peers {
            if let Some(region) = claim(peer) {
                per_region[region.index()].push(peer);
            }
        }
        self.servers
            .iter()
            .zip(&per_region)
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(server, batch)| op(&mut server.write().expect("region server poisoned"), batch))
            .sum()
    }
}

impl std::fmt::Debug for ActorFederation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorFederation")
            .field("regions", &self.servers.len())
            .field("peers", &self.peer_count())
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

/// The region-side half of the RPC: decode the request frame, answer
/// from the server's read path, encode the reply frame. `QueryRequest`
/// here asks for the region's **exact candidates** (`query_nearest`),
/// not a federated answer — the front door owns merging and fills.
fn serve_query_frame(srv: &ManagementServer, frame: &Bytes) -> Bytes {
    let reply = match decode_frame(frame) {
        Message::QueryRequest {
            nonce,
            path,
            k,
            exclude,
        } => {
            let neighbors = srv
                .index()
                .query_nearest(&path, k as usize, exclude)
                .into_iter()
                .map(|n| WireNeighbor {
                    peer: n.peer,
                    dtree: n.dtree,
                })
                .collect();
            Message::QueryReply { nonce, neighbors }
        }
        Message::FillRequest {
            nonce,
            router,
            limit,
        } => {
            let items = srv
                .index()
                .peers_through(router)
                .take(limit as usize)
                .map(|(peer, depth)| WireNeighbor { peer, dtree: depth })
                .collect();
            Message::FillReply { nonce, items }
        }
        other => unreachable!("region received {}", other.kind_name()),
    };
    codec::encode_to_bytes(&reply)
}

/// Decodes one well-formed internal frame (the front door and the region
/// handler only exchange frames they encoded themselves).
fn decode_frame(frame: &Bytes) -> Message {
    let mut buf = BytesMut::new();
    buf.extend_from_slice(frame);
    codec::decode(&mut buf).expect("internal frames are well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    fn four_landmarks() -> (Vec<RouterId>, Vec<Vec<u32>>) {
        let routers = vec![RouterId(0), RouterId(100), RouterId(200), RouterId(300)];
        let dist = (0..4u32)
            .map(|i| (0..4u32).map(|j| i.abs_diff(j) * 5).collect())
            .collect();
        (routers, dist)
    }

    fn fed(n_regions: usize) -> ActorFederation {
        let (routers, dist) = four_landmarks();
        ActorFederation::new(
            routers,
            dist,
            n_regions,
            FederationConfig {
                fanout: None,
                server: crate::ServerConfig {
                    neighbor_count: 3,
                    ..crate::ServerConfig::default()
                },
            },
        )
        .unwrap()
    }

    #[test]
    fn frames_carry_the_federated_answer() {
        let f = fed(2);
        f.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        let out = f.register(PeerId(2), path(&[110, 105, 100])).unwrap();
        assert_eq!(out.region, RegionId(1));
        assert_eq!(out.landmark, LandmarkId(1));
        // Bridge fill through an RPC frame: depth 2 + bridge 5 + depth 3.
        assert_eq!(out.neighbors.len(), 1);
        assert_eq!(out.neighbors[0].peer, PeerId(1));
        assert_eq!(out.neighbors[0].dtree, 10);
        assert!(matches!(
            f.register(PeerId(1), path(&[111, 105, 100])),
            Err(CoreError::DuplicatePeer(_))
        ));
    }

    #[test]
    fn cross_region_handover_through_mailboxes() {
        let f = fed(2);
        f.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        f.register(PeerId(2), path(&[110, 105, 100])).unwrap();
        f.advance_epoch();
        let out = f.handover(PeerId(1), path(&[111, 105, 100])).unwrap();
        assert_eq!(out.region, RegionId(1));
        assert_eq!(out.neighbors[0].peer, PeerId(2));
        assert_eq!(f.region_of_peer(PeerId(1)), Some(RegionId(1)));
        assert_eq!(f.tombstone_count(), 1);
        for _ in 0..3 {
            f.advance_epoch();
            assert_eq!(f.renew_batch(&[PeerId(1)]), 1);
        }
        let sweep = f.expire_stale(2);
        assert_eq!(sweep.moved_swept, vec![(RegionId(0), PeerId(1))]);
        assert_eq!(sweep.expired, vec![(RegionId(1), PeerId(2))]);
        assert_eq!(f.peer_count(), 1);
        assert_eq!(f.tombstone_count(), 0);
        let stats = f.stats();
        assert_eq!((stats.handovers, stats.cross_region_handovers), (1, 1));
    }

    #[test]
    fn concurrent_federated_queries_and_writes() {
        let f = Arc::new(fed(4));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let f = Arc::clone(&f);
                scope.spawn(move || {
                    for i in 0..25u64 {
                        let id = 1 + t * 25 + i;
                        let lm = (id % 4) as u32 * 100;
                        f.register(PeerId(id), path(&[1000 + id as u32, lm + 1, lm]))
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(f.peer_count(), 100);
        for id in 1..=100u64 {
            let n = f.neighbors_of(PeerId(id), 3).unwrap();
            assert_eq!(n.len(), 3);
            assert!(n.iter().all(|x| x.peer != PeerId(id)));
        }
    }
}
