//! The actorized federation: per-region workers and RPC-as-frames.
//!
//! [`crate::Federation`]'s home-first + fanout query is a loop of nested
//! function calls into each region's server. Here every [`Region`] of the
//! synchronous federation becomes an **actor**: its `ManagementServer`
//! moves behind an `RwLock`, one write worker serializes its `&mut` ops,
//! and a pool of query workers answers read RPCs. The front door carries
//! those RPCs as **encoded [`crate::codec`] frames** — the same
//! `QueryRequest`/`QueryReply`/`FillRequest`/`FillReply` messages
//! `nearpeerd` speaks over TCP — so the in-process fan-out exercises the
//! exact bytes a wire deployment would exchange, and the fan-out is
//! genuinely concurrent: one frame per consulted region, all regions
//! computing in parallel, replies merged by `(dtree, peer)` (an
//! order-independent merge, so concurrency cannot perturb the answer).
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
use crate::server::{ChurnBatchOutcome, ManagementServer};
use crate::telemetry::{Counter, Histogram, SlowQueryRecord, TelemetryRegistry};
use bytes::{Bytes, BytesMut};
use crossbeam::channel::{unbounded, Sender};
use nearpeer_topology::RouterId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Query workers per region. Reads share the region's `RwLock` read
/// side, so a small pool is enough to overlap decode/encode work.
const QUERY_WORKERS: usize = 2;

/// One write operation bound for a region's write worker.
enum RegionOp {
    /// `register_batch_renewing` — the federation's insert/renew path.
    Absorb {
        items: Vec<(PeerId, PeerPath)>,
        reply: mpsc::Sender<ChurnBatchOutcome>,
    },
    /// Same-region atomic handover.
    Handover {
        peer: PeerId,
        path: PeerPath,
        reply: mpsc::Sender<Result<(), CoreError>>,
    },
    /// Cross-region teardown: leave a forwarding tombstone.
    Forward {
        peer: PeerId,
        to_region: u32,
        reply: mpsc::Sender<Result<(), CoreError>>,
    },
    Leave {
        peers: Vec<PeerId>,
        reply: mpsc::Sender<usize>,
    },
    Renew {
        peers: Vec<PeerId>,
        reply: mpsc::Sender<usize>,
    },
    Advance {
        reply: mpsc::Sender<u64>,
    },
    Expire {
        max_age: u64,
        reply: mpsc::Sender<crate::directory::ShardSweep>,
    },
}

/// One read RPC: an encoded request frame plus the channel the encoded
/// reply frame goes back on.
struct QueryJob {
    frame: Bytes,
    reply: mpsc::Sender<Bytes>,
}

/// Routing metadata shared with the workers.
struct FedMeta {
    landmark_routers: Vec<RouterId>,
    landmark_dist: Vec<Vec<u32>>,
    landmark_region: Vec<RegionId>,
    router_landmark: IdMap<RouterId, u32>,
    bridge: Vec<Vec<u32>>,
    fanout: Option<usize>,
    fallback: bool,
    neighbor_count: usize,
    servers: Vec<Arc<RwLock<ManagementServer>>>,
    queries: Arc<Counter>,
    remote: Arc<Counter>,
    fills: Arc<Counter>,
    query_latency: Arc<Histogram>,
}

impl FedMeta {
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
}

/// The actorized federation front door: every region behind its own
/// write mailbox and query-worker pool, cross-region RPC carried as
/// codec frames, all operations `&self`.
///
/// Answers are bit-identical to a [`Federation`] fed the same operations
/// (same consult order, same merges, same bridge fills); super-peers are
/// rejected at construction exactly like the synchronous front door.
pub struct ActorFederation {
    meta: Arc<FedMeta>,
    /// Front-door membership authority: peer → current region.
    claims: Mutex<HashMap<PeerId, RegionId>>,
    write_txs: Vec<Sender<RegionOp>>,
    query_txs: Vec<Sender<QueryJob>>,
    workers: Vec<JoinHandle<()>>,
    epoch: AtomicU64,
    nonce: AtomicU64,
    handovers: AtomicU64,
    cross_region_handovers: AtomicU64,
    /// One merged mailbox view across every region's write worker.
    write_obs: super::mailbox::MailboxObs,
    /// One merged mailbox view across every region's query pool.
    query_obs: super::mailbox::MailboxObs,
    telemetry: OnceLock<Arc<TelemetryRegistry>>,
}

impl ActorFederation {
    /// Builds the actorized federation from the same inputs as
    /// [`Federation::new`] (round-robin landmark partition, derived
    /// bridge matrix) and spawns each region's workers.
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
        let meta = Arc::new(FedMeta {
            landmark_routers: parts.landmark_routers,
            landmark_dist: parts.landmark_dist,
            landmark_region: parts.landmark_region,
            router_landmark: parts.router_landmark,
            bridge: parts.bridge,
            fanout: parts.fanout,
            fallback: parts.fallback,
            neighbor_count: parts.neighbor_count,
            servers: parts
                .servers
                .into_iter()
                .map(|s| Arc::new(RwLock::new(s)))
                .collect(),
            queries: Arc::new(Counter::new()),
            remote: Arc::new(Counter::new()),
            fills: Arc::new(Counter::new()),
            query_latency: Arc::new(Histogram::new()),
        });
        let write_obs = super::mailbox::MailboxObs {
            batches: Arc::new(Counter::new()),
            items: Arc::new(Counter::new()),
            batch_size: Arc::new(Histogram::new()),
            queue_depth: Arc::new(crate::telemetry::Gauge::new()),
        };
        let query_obs = super::mailbox::MailboxObs {
            batches: Arc::new(Counter::new()),
            items: Arc::new(Counter::new()),
            batch_size: Arc::new(Histogram::new()),
            queue_depth: Arc::new(crate::telemetry::Gauge::new()),
        };
        let mut write_txs = Vec::with_capacity(meta.servers.len());
        let mut query_txs = Vec::with_capacity(meta.servers.len());
        let mut workers = Vec::new();
        for (r, server) in meta.servers.iter().enumerate() {
            let (wtx, wrx) = unbounded::<RegionOp>();
            let wserver = Arc::clone(server);
            workers.push(super::mailbox::spawn_batch_worker_observed(
                format!("region-{r}-write"),
                wrx,
                super::mailbox::DEFAULT_DRAIN_CAP,
                Some(write_obs.clone()),
                move |batch| {
                    let mut srv = wserver.write().expect("region server poisoned");
                    for op in batch {
                        apply_region_op(&mut srv, op);
                    }
                },
            ));
            write_txs.push(wtx);
            let (qtx, qrx) = unbounded::<QueryJob>();
            for w in 0..QUERY_WORKERS {
                let qserver = Arc::clone(server);
                let qrx = qrx.clone();
                workers.push(super::mailbox::spawn_batch_worker_observed(
                    format!("region-{r}-query-{w}"),
                    qrx,
                    super::mailbox::DEFAULT_DRAIN_CAP,
                    Some(query_obs.clone()),
                    move |batch| {
                        let srv = qserver.read().expect("region server poisoned");
                        for job in batch {
                            serve_query_frame(&srv, job);
                        }
                    },
                ));
            }
            query_txs.push(qtx);
        }
        Ok(Self {
            meta,
            claims: Mutex::new(HashMap::new()),
            write_txs,
            query_txs,
            workers,
            epoch: AtomicU64::new(0),
            nonce: AtomicU64::new(1),
            handovers: AtomicU64::new(0),
            cross_region_handovers: AtomicU64::new(0),
            write_obs,
            query_obs,
            telemetry: OnceLock::new(),
        })
    }

    /// Number of regions.
    pub fn n_regions(&self) -> usize {
        self.meta.servers.len()
    }

    /// The global landmark routers, indexed by global [`LandmarkId`].
    pub fn landmarks(&self) -> &[RouterId] {
        &self.meta.landmark_routers
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
            queries: self.meta.queries.get(),
            remote_regions_consulted: self.meta.remote.get(),
            cross_region_fills: self.meta.fills.get(),
            handovers: self.handovers.load(Ordering::Relaxed),
            cross_region_handovers: self.cross_region_handovers.load(Ordering::Relaxed),
        }
    }

    /// Adopts the federation's counters, query-latency histogram and
    /// mailbox views into `reg`, and arms query timing. Idempotent in
    /// the sense that only the first registry sticks; every region
    /// server also binds its own shard counters under a region label.
    pub fn bind_telemetry(&self, reg: Arc<TelemetryRegistry>) {
        reg.adopt_counter("fed_queries_total", "", Arc::clone(&self.meta.queries));
        reg.adopt_counter(
            "fed_remote_regions_consulted_total",
            "",
            Arc::clone(&self.meta.remote),
        );
        reg.adopt_counter(
            "fed_cross_region_fills_total",
            "",
            Arc::clone(&self.meta.fills),
        );
        reg.adopt_histogram(
            "fed_query_latency_us",
            "",
            Arc::clone(&self.meta.query_latency),
        );
        for (obs, label) in [
            (&self.write_obs, "mailbox=\"region-write\""),
            (&self.query_obs, "mailbox=\"region-query\""),
        ] {
            reg.adopt_counter("mailbox_batches_total", label, Arc::clone(&obs.batches));
            reg.adopt_counter("mailbox_items_total", label, Arc::clone(&obs.items));
            reg.adopt_histogram("mailbox_batch_size", label, Arc::clone(&obs.batch_size));
            reg.adopt_gauge("mailbox_queue_depth", label, Arc::clone(&obs.queue_depth));
        }
        let _ = self.telemetry.set(reg);
    }

    /// The registry bound via [`Self::bind_telemetry`], if any.
    pub fn telemetry(&self) -> Option<Arc<TelemetryRegistry>> {
        self.telemetry.get().cloned()
    }

    /// Forwarding tombstones currently held across all regions.
    pub fn tombstone_count(&self) -> usize {
        self.meta
            .servers
            .iter()
            .map(|s| s.read().expect("region server poisoned").tombstone_count())
            .sum()
    }

    /// Advances every region's epoch in lockstep — the actorized
    /// [`Federation::advance_epoch`].
    pub fn advance_epoch(&self) -> u64 {
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        let rxs = self.broadcast(|reply| RegionOp::Advance { reply });
        for rx in rxs {
            let e = rx.recv().expect("region worker alive");
            debug_assert_eq!(e, epoch, "regions advance in lockstep");
        }
        epoch
    }

    /// Registers a newcomer — the actorized [`Federation::register`]:
    /// write-only insert in the home region, federated answer.
    pub fn register(&self, peer: PeerId, path: PeerPath) -> Result<FederatedJoin, CoreError> {
        let (region, global) = self.meta.home_of_path(&path)?;
        let query_path = path.clone();
        let (tx, rx) = mpsc::channel();
        {
            let mut claims = self.claims.lock().expect("claims poisoned");
            if claims.contains_key(&peer) {
                return Err(CoreError::DuplicatePeer(peer));
            }
            claims.insert(peer, region);
            self.send_write(
                region,
                RegionOp::Absorb {
                    items: vec![(peer, path)],
                    reply: tx,
                },
            );
        }
        let out = rx.recv().expect("region worker alive");
        debug_assert_eq!(out.joined, 1, "validated fresh insert");
        let neighbors = self.closest_to_path(&query_path, self.meta.neighbor_count, Some(peer));
        Ok(FederatedJoin {
            region,
            landmark: LandmarkId(global),
            neighbors,
        })
    }

    /// Mobility handover — the actorized [`Federation::handover`]. The
    /// new path is validated first; a cross-region move enqueues the
    /// forwarding teardown and the destination insert under one
    /// claims-lock critical section.
    pub fn handover(&self, peer: PeerId, new_path: PeerPath) -> Result<FederatedJoin, CoreError> {
        let (dest, global) = self.meta.home_of_path(&new_path)?;
        let query_path = new_path.clone();
        enum Pending {
            Same(mpsc::Receiver<Result<(), CoreError>>),
            Cross(
                mpsc::Receiver<Result<(), CoreError>>,
                mpsc::Receiver<ChurnBatchOutcome>,
            ),
        }
        let pending = {
            let mut claims = self.claims.lock().expect("claims poisoned");
            let Some(&from) = claims.get(&peer) else {
                return Err(CoreError::UnknownPeer(peer));
            };
            if from == dest {
                let (tx, rx) = mpsc::channel();
                self.send_write(
                    dest,
                    RegionOp::Handover {
                        peer,
                        path: new_path,
                        reply: tx,
                    },
                );
                Pending::Same(rx)
            } else {
                claims.insert(peer, dest);
                let (ftx, frx) = mpsc::channel();
                let (atx, arx) = mpsc::channel();
                self.send_write(
                    from,
                    RegionOp::Forward {
                        peer,
                        to_region: dest.0,
                        reply: ftx,
                    },
                );
                self.send_write(
                    dest,
                    RegionOp::Absorb {
                        items: vec![(peer, new_path)],
                        reply: atx,
                    },
                );
                Pending::Cross(frx, arx)
            }
        };
        match pending {
            Pending::Same(rx) => rx.recv().expect("region worker alive")?,
            Pending::Cross(frx, arx) => {
                frx.recv()
                    .expect("region worker alive")
                    .expect("claims and regions agree");
                let out = arx.recv().expect("region worker alive");
                debug_assert_eq!(out.joined, 1, "peer was only live in `from`");
                self.cross_region_handovers.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.handovers.fetch_add(1, Ordering::Relaxed);
        let neighbors = self.closest_to_path(&query_path, self.meta.neighbor_count, Some(peer));
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
        let mut per_region: Vec<Vec<PeerId>> = vec![Vec::new(); self.meta.servers.len()];
        let mut rxs = Vec::new();
        {
            let mut claims = self.claims.lock().expect("claims poisoned");
            for &peer in peers {
                if let Some(region) = claims.remove(&peer) {
                    per_region[region.index()].push(peer);
                }
            }
            for (r, batch) in per_region.into_iter().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                let (tx, rx) = mpsc::channel();
                self.send_write(
                    RegionId(r as u32),
                    RegionOp::Leave {
                        peers: batch,
                        reply: tx,
                    },
                );
                rxs.push(rx);
            }
        }
        rxs.into_iter()
            .map(|rx| rx.recv().expect("region worker alive"))
            .sum()
    }

    /// Batched heartbeat renewal — the actorized
    /// [`Federation::renew_batch`]; returns the number renewed.
    pub fn renew_batch(&self, peers: &[PeerId]) -> usize {
        let mut per_region: Vec<Vec<PeerId>> = vec![Vec::new(); self.meta.servers.len()];
        let mut rxs = Vec::new();
        {
            let claims = self.claims.lock().expect("claims poisoned");
            for &peer in peers {
                if let Some(&region) = claims.get(&peer) {
                    per_region[region.index()].push(peer);
                }
            }
            for (r, batch) in per_region.into_iter().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                let (tx, rx) = mpsc::channel();
                self.send_write(
                    RegionId(r as u32),
                    RegionOp::Renew {
                        peers: batch,
                        reply: tx,
                    },
                );
                rxs.push(rx);
            }
        }
        rxs.into_iter()
            .map(|rx| rx.recv().expect("region worker alive"))
            .sum()
    }

    /// Federated lease expiry — the actorized
    /// [`Federation::expire_stale`]. All regions sweep concurrently.
    pub fn expire_stale(&self, max_age: u64) -> FederationSweep {
        let rxs = self.broadcast(|reply| RegionOp::Expire { max_age, reply });
        let mut out = FederationSweep::default();
        let mut gone: Vec<PeerId> = Vec::new();
        for (r, rx) in rxs.into_iter().enumerate() {
            let id = RegionId(r as u32);
            let sweep = rx.recv().expect("region worker alive");
            gone.extend(sweep.expired.iter().copied());
            out.expired
                .extend(sweep.expired.into_iter().map(|p| (id, p)));
            // Tombstones retired here belong to peers now living in their
            // destination region — their claims stay.
            out.moved_swept
                .extend(sweep.moved.into_iter().map(|(p, _)| (id, p)));
        }
        let mut claims = self.claims.lock().expect("claims poisoned");
        for p in gone {
            claims.remove(&p);
        }
        out
    }

    /// Neighbors of a registered peer, through the federated query path.
    pub fn neighbors_of(&self, peer: PeerId, k: usize) -> Result<Vec<Neighbor>, CoreError> {
        let region = self
            .region_of_peer(peer)
            .ok_or(CoreError::UnknownPeer(peer))?;
        let path = {
            let srv = self.meta.servers[region.index()]
                .read()
                .expect("region server poisoned");
            srv.path_of(peer)
                .ok_or(CoreError::UnknownPeer(peer))?
                .clone()
        };
        Ok(self.closest_to_path(&path, k, Some(peer)))
    }

    /// The closest registered peers to a query path — the actorized
    /// [`Federation::closest_to_path`]. One `QueryRequest` frame fans out
    /// to every consulted region concurrently; replies merge by
    /// `(dtree, peer)`; bridge fills arrive as `FillReply` prefixes and
    /// merge with per-cursor bases, exactly like the synchronous merge.
    pub fn closest_to_path(
        &self,
        path: &PeerPath,
        k: usize,
        exclude: Option<PeerId>,
    ) -> Vec<Neighbor> {
        self.meta.queries.inc();
        let started = self
            .telemetry
            .get()
            .filter(|t| t.timing_enabled())
            .map(|_| Instant::now());
        let home = self.meta.home_of_path(path).ok();
        let consulted: Vec<RegionId> = match home {
            Some((home, _)) => self.meta.query_regions(home),
            None => (0..self.meta.servers.len() as u32).map(RegionId).collect(),
        };
        self.meta
            .remote
            .add(consulted.len().saturating_sub(1) as u64);
        let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
        let frame = codec::encode_to_bytes(&Message::QueryRequest {
            nonce,
            path: path.clone(),
            k: k.min(u16::MAX as usize) as u16,
            exclude,
        });
        let (tx, rx) = mpsc::channel();
        for &r in &consulted {
            self.query_txs[r.index()]
                .send(QueryJob {
                    frame: frame.clone(),
                    reply: tx.clone(),
                })
                .expect("query worker outlives the front door");
        }
        drop(tx);
        let mut result: Vec<Neighbor> = Vec::new();
        for _ in 0..consulted.len() {
            let reply = rx.recv().expect("query worker alive");
            match decode_frame(&reply) {
                Message::QueryReply {
                    nonce: n,
                    neighbors,
                } => {
                    debug_assert_eq!(n, nonce, "reply correlates to this fan-out");
                    result.extend(neighbors.into_iter().map(|w| Neighbor {
                        peer: w.peer,
                        dtree: w.dtree,
                    }));
                }
                other => unreachable!("query worker answered {}", other.kind_name()),
            }
        }
        result.sort_unstable_by_key(|n| (n.dtree, n.peer));
        result.truncate(k);
        let exact_len = result.len();
        if result.len() < k && self.meta.fallback {
            if let Some((_, own_global)) = home {
                let missing = k - result.len();
                let fill =
                    self.bridge_fill_rpc(path, own_global, missing, &consulted, exclude, &result);
                self.meta.fills.add(fill.len() as u64);
                result.extend(fill);
            }
        }
        if let (Some(start), Some(t)) = (started, self.telemetry.get()) {
            let us = start.elapsed().as_micros() as u64;
            self.meta.query_latency.record(us);
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
        // Issue every eligible cursor's RPC before collecting: the
        // regions compute their prefixes concurrently.
        let (tx, rx) = mpsc::channel();
        let mut cursors: Vec<(u64, u32)> = Vec::new(); // (nonce, base), issue order
        for (li, &lrouter) in self.meta.landmark_routers.iter().enumerate() {
            if li as u32 == own_global {
                continue;
            }
            let region = self.meta.landmark_region[li];
            if !consulted.contains(&region) {
                continue;
            }
            let bridge = self.meta.landmark_dist[own_global as usize][li];
            if bridge == u32::MAX {
                continue;
            }
            let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
            let frame = codec::encode_to_bytes(&Message::FillRequest {
                nonce,
                router: lrouter,
                limit,
            });
            self.query_txs[region.index()]
                .send(QueryJob {
                    frame,
                    reply: tx.clone(),
                })
                .expect("query worker outlives the front door");
            cursors.push((nonce, query_depth + bridge));
        }
        drop(tx);
        let mut prefixes: HashMap<u64, Vec<WireNeighbor>> = HashMap::with_capacity(cursors.len());
        for _ in 0..cursors.len() {
            let reply = rx.recv().expect("query worker alive");
            match decode_frame(&reply) {
                Message::FillReply { nonce, items } => {
                    prefixes.insert(nonce, items);
                }
                other => unreachable!("fill worker answered {}", other.kind_name()),
            }
        }
        // K-way merge of the prefixes, identical to the live-cursor merge.
        let cursors = cursors.into_iter().map(|(nonce, base)| {
            let prefix = prefixes.remove(&nonce).unwrap_or_default();
            (base, prefix.into_iter().map(|item| (item.peer, item.dtree)))
        });
        query::merge_fill(cursors, missing, exclude, already)
    }

    fn send_write(&self, region: RegionId, op: RegionOp) {
        self.write_txs[region.index()]
            .send(op)
            .expect("region worker outlives the front door");
    }

    /// Enqueues one op (built by `make`) in every region's write mailbox
    /// under the claims lock, returning the reply receivers in region
    /// order.
    fn broadcast<T>(&self, make: impl Fn(mpsc::Sender<T>) -> RegionOp) -> Vec<mpsc::Receiver<T>> {
        let mut rxs = Vec::with_capacity(self.write_txs.len());
        let _claims = self.claims.lock().expect("claims poisoned");
        for r in 0..self.write_txs.len() {
            let (tx, rx) = mpsc::channel();
            self.send_write(RegionId(r as u32), make(tx));
            rxs.push(rx);
        }
        rxs
    }
}

impl Drop for ActorFederation {
    fn drop(&mut self) {
        self.write_txs.clear();
        self.query_txs.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ActorFederation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorFederation")
            .field("regions", &self.meta.servers.len())
            .field("peers", &self.peer_count())
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

fn apply_region_op(srv: &mut ManagementServer, op: RegionOp) {
    match op {
        RegionOp::Absorb { items, reply } => {
            let _ = reply.send(srv.register_batch_renewing(items));
        }
        RegionOp::Handover { peer, path, reply } => {
            let _ = reply.send(srv.handover(peer, path).map(|_| ()));
        }
        RegionOp::Forward {
            peer,
            to_region,
            reply,
        } => {
            let _ = reply.send(srv.deregister_forwarding(peer, to_region));
        }
        RegionOp::Leave { peers, reply } => {
            let _ = reply.send(srv.leave_batch(&peers));
        }
        RegionOp::Renew { peers, reply } => {
            let _ = reply.send(srv.renew_batch(&peers));
        }
        RegionOp::Advance { reply } => {
            let _ = reply.send(srv.advance_epoch());
        }
        RegionOp::Expire { max_age, reply } => {
            let _ = reply.send(srv.expire_stale_full(max_age));
        }
    }
}

/// The region-side half of the RPC: decode the request frame, answer
/// from the server's read path, encode the reply frame. `QueryRequest`
/// here asks for the region's **exact candidates** (`query_nearest`),
/// not a federated answer — the front door owns merging and fills.
fn serve_query_frame(srv: &ManagementServer, job: QueryJob) {
    let reply = match decode_frame(&job.frame) {
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
        other => unreachable!("region worker received {}", other.kind_name()),
    };
    let _ = job.reply.send(codec::encode_to_bytes(&reply));
}

/// Decodes one well-formed internal frame (the front door and workers
/// only exchange frames they encoded themselves).
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
