//! The actorized federation: [`Federation`] behind one `RwLock`, its
//! client queries carried as RPC frames.
//!
//! [`Federation`]'s writes take `&mut self`. Here the whole federation
//! sits behind one `RwLock`, so the front door serves any number of
//! threads through `&self` and spawns no thread of its own:
//!
//! * a write takes the write guard and calls the federation's own method,
//!   join and handover answers included;
//! * a query takes the read guard and carries its RPCs as **encoded
//!   [`crate::codec`] frames** — the same `QueryRequest`/`QueryReply`/
//!   `FillRequest`/`FillReply` messages `nearpeerd` speaks over TCP. Each
//!   consulted region's handler answers the frame on the calling thread,
//!   in consult order, so the in-process fan-out exercises the exact bytes
//!   a wire deployment would exchange. Replies merge by `(dtree, peer)`.
//!
//! Bridge fills become prefix-cursor RPCs: instead of lazily pulling a
//! foreign region's `peers_through` iterator, the front door requests a
//! bounded prefix per foreign landmark (`FillRequest { router, limit }`)
//! and k-way merges the prefixes with the same per-cursor base the
//! synchronous [`Federation::closest_to_path`] uses. The prefix
//! bound `2·missing + |exclude| + |already|` dominates every skip the
//! merge can make (excluded peers, already-answered peers, cross-cursor
//! duplicates — the emitted set never exceeds `missing`), so the merged
//! result is **bit-identical** to the synchronous federation's — pinned
//! at 1, 2 and 4 regions by `tests/actor_equivalence.rs`.

use crate::codec;
use crate::directory::query;
use crate::error::CoreError;
use crate::federation::{FederatedJoin, FederationStats, FederationSweep};
use crate::federation::{Federation, FederationConfig, RegionId};
use crate::ids::{LandmarkId, PeerId};
use crate::path::{PathView, PeerPath};
use crate::protocol::{Message, WireNeighbor};
use crate::router_index::Neighbor;
use crate::server::ManagementServer;
use crate::telemetry::{Counter, Histogram, SlowQueryRecord, TelemetryRegistry};
use bytes::BytesMut;
use nearpeer_topology::RouterId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// The actorized federation front door: a [`Federation`] behind one
/// `RwLock`, client queries carried as codec frames, all operations
/// `&self`.
///
/// Answers are bit-identical to a [`Federation`] fed the same operations
/// (same consult order, same merges, same bridge fills).
pub struct ActorFederation {
    fed: RwLock<Federation>,
    nonce: AtomicU64,
    /// Frame-path counters: client queries and `neighbors_of`. Join and
    /// handover answers count in the federation's own [`Federation::stats`].
    queries: Arc<Counter>,
    remote: Arc<Counter>,
    fills: Arc<Counter>,
    query_latency: Arc<Histogram>,
    telemetry: OnceLock<Arc<TelemetryRegistry>>,
}

impl ActorFederation {
    /// Builds the actorized federation from the same inputs as
    /// [`Federation::new`]; spawns no thread.
    pub fn new(
        landmark_routers: Vec<RouterId>,
        landmark_dist: Vec<Vec<u32>>,
        n_regions: usize,
        config: FederationConfig,
    ) -> Result<Self, CoreError> {
        Ok(Self {
            fed: RwLock::new(Federation::new(
                landmark_routers,
                landmark_dist,
                n_regions,
                config,
            )?),
            nonce: AtomicU64::new(1),
            queries: Arc::new(Counter::new()),
            remote: Arc::new(Counter::new()),
            fills: Arc::new(Counter::new()),
            query_latency: Arc::new(Histogram::new()),
            telemetry: OnceLock::new(),
        })
    }

    fn read(&self) -> RwLockReadGuard<'_, Federation> {
        self.fed.read().expect("federation poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, Federation> {
        self.fed.write().expect("federation poisoned")
    }

    /// Number of regions.
    pub fn n_regions(&self) -> usize {
        self.read().n_regions()
    }

    /// Registered peers across all regions.
    pub fn peer_count(&self) -> usize {
        self.read().peer_count()
    }

    /// The federation-wide heartbeat epoch.
    pub fn epoch(&self) -> u64 {
        self.read().epoch()
    }

    /// The region a peer is currently registered in, if any.
    pub fn region_of_peer(&self, peer: PeerId) -> Option<RegionId> {
        self.read().region_of_peer(peer)
    }

    /// The front door's frame-path counters plus the federation's own (join
    /// and handover answers, handovers), so every answer counts once.
    pub fn stats(&self) -> FederationStats {
        let inner = self.read().stats();
        FederationStats {
            queries: inner.queries + self.queries.get(),
            remote_regions_consulted: inner.remote_regions_consulted + self.remote.get(),
            cross_region_fills: inner.cross_region_fills + self.fills.get(),
            ..inner
        }
    }

    /// Adopts the frame path's counters and query-latency histogram
    /// (`fed_*`) into `reg`, and arms query timing. Only the first
    /// registry sticks.
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
        self.read().tombstone_count()
    }

    /// [`Federation::advance_epoch`].
    pub fn advance_epoch(&self) -> Result<u64, CoreError> {
        self.write().advance_epoch()
    }

    /// [`Federation::register`].
    pub fn register(&self, peer: PeerId, path: PeerPath) -> Result<FederatedJoin, CoreError> {
        self.write().register(peer, path)
    }

    /// [`Federation::handover`].
    pub fn handover(&self, peer: PeerId, new_path: PeerPath) -> Result<FederatedJoin, CoreError> {
        self.write().handover(peer, new_path)
    }

    /// [`Federation::leave_batch`].
    pub fn leave_batch(&self, peers: &[PeerId]) -> usize {
        self.write().leave_batch(peers)
    }

    /// [`Federation::renew_batch`].
    pub fn renew_batch(&self, peers: &[PeerId]) -> usize {
        self.write().renew_batch(peers)
    }

    /// [`Federation::expire_stale`].
    pub fn expire_stale(&self, max_age: u64) -> FederationSweep {
        self.write().expire_stale(max_age)
    }

    /// Neighbors of a registered peer, through the frame path.
    pub fn neighbors_of(&self, peer: PeerId, k: usize) -> Result<Vec<Neighbor>, CoreError> {
        let fed = self.read();
        let (_, path) = fed.locate(peer).ok_or(CoreError::UnknownPeer(peer))?;
        Ok(self.closest_in(&fed, path, k, Some(peer)))
    }

    /// The closest registered peers to a query path — the actorized
    /// [`Federation::closest_to_path`]. One `QueryRequest` frame is
    /// answered by every consulted region in consult order; replies merge
    /// by `(dtree, peer)`; bridge fills arrive as `FillReply` prefixes and
    /// merge with per-cursor bases, exactly like the synchronous merge.
    pub fn closest_to_path<'p>(
        &self,
        path: impl Into<PathView<'p>>,
        k: usize,
        exclude: Option<PeerId>,
    ) -> Vec<Neighbor> {
        self.closest_in(&self.read(), path.into(), k, exclude)
    }

    fn closest_in(
        &self,
        fed: &Federation,
        path: PathView<'_>,
        k: usize,
        exclude: Option<PeerId>,
    ) -> Vec<Neighbor> {
        self.queries.inc();
        let started = self
            .telemetry
            .get()
            .filter(|t| t.timing_enabled())
            .map(|_| Instant::now());
        let home = fed.home_of_path(path).ok();
        let consulted = fed.query_regions(home.map(|(region, _)| region));
        self.remote.add(consulted.len().saturating_sub(1) as u64);
        let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
        let mut frames = Frames::default();
        frames.request(&Message::QueryRequest {
            nonce,
            path: path.to_path(),
            k: k.min(u16::MAX as usize) as u16,
            exclude,
        });
        let mut result: Vec<Neighbor> = Vec::new();
        for &r in &consulted {
            match frames.rpc(fed, r) {
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
        if result.len() < k && fed.fills_enabled() {
            if let Some((_, own_global)) = home {
                let missing = k - result.len();
                let fill = self.bridge_fill_rpc(
                    fed,
                    &mut frames,
                    path,
                    own_global,
                    missing,
                    &consulted,
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
    #[allow(clippy::too_many_arguments)]
    fn bridge_fill_rpc(
        &self,
        fed: &Federation,
        frames: &mut Frames,
        path: PathView<'_>,
        own_global: u32,
        missing: usize,
        consulted: &[RegionId],
        exclude: Option<PeerId>,
        already: &[Neighbor],
    ) -> Vec<Neighbor> {
        let query_depth = path.depth();
        let limit = (2 * missing + usize::from(exclude.is_some()) + already.len())
            .min(u16::MAX as usize) as u16;
        let bridges = &fed.landmark_distances()[own_global as usize];
        let mut prefixes: Vec<(u64, Vec<WireNeighbor>)> = Vec::new(); // (base, prefix)
        for (li, &lrouter) in fed.landmarks().iter().enumerate() {
            let region = fed.region_of_landmark(LandmarkId(li as u32));
            let bridge = bridges[li];
            if li as u32 == own_global || !consulted.contains(&region) || bridge == u32::MAX {
                continue;
            }
            let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
            frames.request(&Message::FillRequest {
                nonce,
                router: lrouter,
                limit,
            });
            match frames.rpc(fed, region) {
                Message::FillReply { nonce: n, items } => {
                    debug_assert_eq!(n, nonce, "reply correlates to this request");
                    prefixes.push((query::fill_base(query_depth, bridge), items));
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
}

impl std::fmt::Debug for ActorFederation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fed = self.read();
        f.debug_struct("ActorFederation")
            .field("regions", &fed.n_regions())
            .field("peers", &fed.peer_count())
            .field("epoch", &fed.epoch())
            .finish_non_exhaustive()
    }
}

/// One query's frame buffers, reused by every RPC it makes: each request
/// is encoded once into `request`, and every region's reply is encoded
/// into `reply` and decoded from it in place, so neither regrows from
/// empty per frame.
#[derive(Default)]
struct Frames {
    request: BytesMut,
    reply: BytesMut,
}

impl Frames {
    /// Makes `msg` the request the next [`Self::rpc`] calls carry.
    fn request(&mut self, msg: &Message) {
        self.request.clear();
        codec::encode(msg, &mut self.request);
    }

    /// One region RPC: `region`'s handler answers the current request on
    /// the calling thread and the reply frame is decoded.
    fn rpc(&mut self, fed: &Federation, region: RegionId) -> Message {
        self.reply.clear();
        serve_query_frame(fed.region(region).server(), &self.request, &mut self.reply);
        decode_frame(&self.reply)
    }
}

/// The region-side half of the RPC: decode the request frame, answer
/// from the server's read path, encode the reply frame onto `reply`.
/// `QueryRequest` here asks for the region's **exact candidates**
/// (`query_nearest`), not a federated answer — the front door owns
/// merging and fills.
fn serve_query_frame(srv: &ManagementServer, frame: &[u8], reply: &mut BytesMut) {
    let answer = match decode_frame(frame) {
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
    codec::encode(&answer, reply);
}

/// Decodes one well-formed internal frame where it lies (the front door
/// and the region handler only exchange frames they encoded themselves,
/// one per buffer).
fn decode_frame(frame: &[u8]) -> Message {
    let (consumed, msg) = codec::decode_slice(frame);
    debug_assert_eq!(consumed, frame.len(), "one frame per buffer");
    msg.expect("internal frames are well-formed")
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
        assert_eq!(out.neighbors.len(), 1);
        assert_eq!(out.neighbors[0].peer, PeerId(1));
        assert_eq!(out.neighbors[0].dtree, 10);
        assert!(matches!(
            f.register(PeerId(1), path(&[111, 105, 100])),
            Err(CoreError::DuplicatePeer(_))
        ));
        // Bridge fill through an RPC frame: depth 2 + bridge 5 + depth 3.
        let answer = f.neighbors_of(PeerId(2), 3).unwrap();
        assert_eq!(answer, out.neighbors);
        let stats = f.stats();
        assert_eq!(stats.queries, 3, "two join answers and one frame query");
        assert_eq!(stats.cross_region_fills, 2);
    }

    #[test]
    fn cross_region_handover_under_the_write_guard() {
        let f = fed(2);
        f.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        f.register(PeerId(2), path(&[110, 105, 100])).unwrap();
        f.advance_epoch().unwrap();
        let out = f.handover(PeerId(1), path(&[111, 105, 100])).unwrap();
        assert_eq!(out.region, RegionId(1));
        assert_eq!(out.neighbors[0].peer, PeerId(2));
        assert_eq!(f.region_of_peer(PeerId(1)), Some(RegionId(1)));
        assert_eq!(f.tombstone_count(), 1);
        for _ in 0..3 {
            f.advance_epoch().unwrap();
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
    fn returning_peer_survives_the_sweep_of_its_old_tombstone() {
        let f = fed(2);
        // L0 (region 0) → L1 (region 1) → L2 (region 0), then region 1's
        // tombstone ages out while the peer keeps renewing. (The comeback
        // to region 0 replaced the tombstone the first move left there.)
        f.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        f.handover(PeerId(1), path(&[111, 105, 100])).unwrap();
        f.handover(PeerId(1), path(&[210, 205, 200])).unwrap();
        assert_eq!(f.tombstone_count(), 1);
        for _ in 0..3 {
            f.advance_epoch().unwrap();
            assert_eq!(f.renew_batch(&[PeerId(1)]), 1);
        }
        assert_eq!(
            f.expire_stale(2).moved_swept,
            vec![(RegionId(1), PeerId(1))]
        );
        assert_eq!(f.region_of_peer(PeerId(1)), Some(RegionId(0)));
        // The next cross-region move finds the peer where it lives.
        let out = f.handover(PeerId(1), path(&[112, 105, 100])).unwrap();
        assert_eq!(out.region, RegionId(1));
        assert_eq!(f.region_of_peer(PeerId(1)), Some(RegionId(1)));
        assert_eq!(f.peer_count(), 1);
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
