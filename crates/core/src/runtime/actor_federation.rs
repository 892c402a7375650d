//! The federation as a [`Plane`], and its frame path.
//!
//! Joins, handovers, leaves and heartbeats call the federation's own
//! methods under the write guard. A client's `QueryRequest` is answered
//! by [`Federation::closest_by_frames`], which carries its RPCs as
//! **encoded [`crate::codec`] frames** — the `QueryRequest`/`QueryReply`/
//! `FillRequest`/`FillReply` messages `nearpeerd` speaks over TCP. Each
//! consulted region's handler answers a frame on the calling thread, in
//! consult order, so the in-process fan-out exercises the exact bytes a
//! wire deployment would exchange. Bridge fills arrive as bounded
//! prefixes and merge like the cursors of the synchronous
//! [`Federation::closest_to_path`], so the answer is **bit-identical** to
//! it — pinned at 1, 2 and 4 regions by `tests/actor_equivalence.rs`.

use super::{answer_common, to_wire, Plane};
use crate::codec;
use crate::directory::query;
use crate::federation::{Federation, RegionId};
use crate::ids::{LandmarkId, PeerId};
use crate::path::PathView;
use crate::protocol::{Message, WireNeighbor};
use crate::router_index::Neighbor;
use crate::server::ManagementServer;
use crate::telemetry::{SlowQueryRecord, TelemetryRegistry};
use bytes::BytesMut;
use std::sync::Arc;
use std::time::Instant;

impl Plane for Federation {
    fn answer(&mut self, _client: Option<u64>, msg: Message) -> Option<Message> {
        match msg {
            Message::JoinRequest { peer, path } => Some(Message::join_reply(
                peer,
                self.register(peer, path).map(|out| out.neighbors),
            )),
            Message::HandoverRequest { peer, path } => Some(Message::join_reply(
                peer,
                self.handover(peer, path).map(|out| out.neighbors),
            )),
            Message::Leave { peer } => {
                self.leave_batch(&[peer]);
                None
            }
            Message::Heartbeat { peer } => {
                self.renew_batch(&[peer]);
                None
            }
            // A federated answer is merged across regions per query; a
            // standing subscription would have to re-merge on every churn
            // event in every region. Until that exists, refuse loudly
            // rather than serve region-local (wrong) deltas.
            Message::Subscribe { peer, .. } => Some(Message::JoinError {
                peer,
                reason: "subscriptions are not supported on a federated front door".into(),
            }),
            Message::Unsubscribe { nonce, peer } => Some(Message::SubAck {
                nonce,
                peer,
                neighbors: Vec::new(),
            }),
            read => self.answer_read(read),
        }
    }

    fn answer_read(&self, msg: Message) -> Option<Message> {
        match msg {
            Message::QueryRequest {
                nonce,
                path,
                k,
                exclude,
            } => Some(Message::QueryReply {
                nonce,
                // Client-facing queries get the full federated answer
                // (fan-out + bridge fills); the region-side frame
                // handler's QueryRequest stays exact-candidates-only.
                neighbors: to_wire(self.closest_by_frames(&path, k as usize, exclude)),
            }),
            Message::FillRequest { nonce, .. } => Some(Message::FillReply {
                nonce,
                items: Vec::new(),
            }),
            other => answer_common(self, other),
        }
    }

    fn telemetry(&self) -> Option<Arc<TelemetryRegistry>> {
        Federation::telemetry(self)
    }
}

impl Federation {
    /// The closest registered peers to a query path, through the frame
    /// path: one `QueryRequest` frame is answered by every consulted
    /// region in consult order; replies merge by `(dtree, peer)`; bridge
    /// fills arrive as `FillReply` prefixes and merge with per-cursor
    /// bases, exactly like the synchronous [`Self::closest_to_path`],
    /// whose answer it equals. Counts in [`Self::stats`] like it, and
    /// records its latency in `fed_query_latency_us` while a bound
    /// registry's timing gate is on.
    pub fn closest_by_frames<'p>(
        &self,
        path: impl Into<PathView<'p>>,
        k: usize,
        exclude: Option<PeerId>,
    ) -> Vec<Neighbor> {
        let path = path.into();
        self.counters.queries.inc();
        let started = self
            .telemetry
            .as_deref()
            .filter(|t| t.timing_enabled())
            .map(|_| Instant::now());
        let home = self.home_of_path(path).ok();
        let consulted = self.query_regions(home.map(|(region, _)| region));
        self.counters
            .remote
            .add(consulted.len().saturating_sub(1) as u64);
        let mut frames = Frames::default();
        let nonce = frames.next_nonce();
        frames.request(&Message::QueryRequest {
            nonce,
            path: path.to_path(),
            k: k.min(u16::MAX as usize) as u16,
            exclude,
        });
        let mut result: Vec<Neighbor> = Vec::new();
        for &r in &consulted {
            match frames.rpc(self, r) {
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
        if result.len() < k {
            if let Some((_, own_global)) = home {
                let missing = k - result.len();
                let fill = self.bridge_fill_rpc(
                    &mut frames,
                    path,
                    own_global,
                    missing,
                    &consulted,
                    exclude,
                    &result,
                );
                self.counters.fills.add(fill.len() as u64);
                result.extend(fill);
            }
        }
        if let (Some(start), Some(t)) = (started, self.telemetry.as_deref()) {
            let us = start.elapsed().as_micros() as u64;
            self.counters.latency_us.record(us);
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
        let bridges = &self.landmark_distances()[own_global as usize];
        let mut prefixes: Vec<(u64, Vec<WireNeighbor>)> = Vec::new(); // (base, prefix)
        for (li, &lrouter) in self.landmarks().iter().enumerate() {
            let region = self.region_of_landmark(LandmarkId(li as u32));
            let bridge = bridges[li];
            if li as u32 == own_global || !consulted.contains(&region) || bridge == u32::MAX {
                continue;
            }
            let nonce = frames.next_nonce();
            frames.request(&Message::FillRequest {
                nonce,
                router: lrouter,
                limit,
            });
            match frames.rpc(self, region) {
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

/// One query's frame buffers, reused by every RPC it makes: each request
/// is encoded once into `request`, and every region's reply is encoded
/// into `reply` and decoded from it in place, so neither regrows from
/// empty per frame.
#[derive(Default)]
struct Frames {
    request: BytesMut,
    reply: BytesMut,
    /// The last nonce handed out: the query's requests count from 1.
    nonce: u64,
}

impl Frames {
    /// A nonce for the query's next request.
    fn next_nonce(&mut self) -> u64 {
        self.nonce += 1;
        self.nonce
    }

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
        } => Message::QueryReply {
            nonce,
            neighbors: to_wire(srv.index().query_nearest(&path, k as usize, exclude)),
        },
        fill @ Message::FillRequest { .. } => srv.answer_read(fill).expect("a fill is answered"),
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
    use crate::error::CoreError;
    use crate::federation::FederationConfig;
    use crate::path::PeerPath;
    use crate::runtime::Shared;
    use nearpeer_topology::RouterId;

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

    fn fed(n_regions: usize) -> Shared<Federation> {
        let (routers, dist) = four_landmarks();
        Shared::new(
            Federation::new(
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
            .unwrap(),
        )
    }

    /// Neighbors of a registered peer, through the frame path.
    fn frame_neighbors(
        f: &Shared<Federation>,
        peer: PeerId,
        k: usize,
    ) -> Result<Vec<Neighbor>, CoreError> {
        let fed = f.read();
        let (_, path) = fed.locate(peer).ok_or(CoreError::UnknownPeer(peer))?;
        Ok(fed.closest_by_frames(path, k, Some(peer)))
    }

    #[test]
    fn frames_carry_the_federated_answer() {
        let f = fed(2);
        f.write().register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        let out = f
            .write()
            .register(PeerId(2), path(&[110, 105, 100]))
            .unwrap();
        assert_eq!(out.region, RegionId(1));
        assert_eq!(out.landmark, LandmarkId(1));
        assert_eq!(out.neighbors.len(), 1);
        assert_eq!(out.neighbors[0].peer, PeerId(1));
        assert_eq!(out.neighbors[0].dtree, 10);
        assert!(matches!(
            f.write().register(PeerId(1), path(&[111, 105, 100])),
            Err(CoreError::DuplicatePeer(_))
        ));
        // Bridge fill through an RPC frame: depth 2 + bridge 5 + depth 3.
        let answer = frame_neighbors(&f, PeerId(2), 3).unwrap();
        assert_eq!(answer, out.neighbors);
        let stats = f.read().stats();
        assert_eq!(stats.queries, 3, "two join answers and one frame query");
        assert_eq!(stats.cross_region_fills, 2);
    }

    #[test]
    fn cross_region_handover_under_the_write_guard() {
        let f = fed(2);
        f.write().register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        f.write()
            .register(PeerId(2), path(&[110, 105, 100]))
            .unwrap();
        f.write().advance_epoch().unwrap();
        let out = f
            .write()
            .handover(PeerId(1), path(&[111, 105, 100]))
            .unwrap();
        assert_eq!(out.region, RegionId(1));
        assert_eq!(out.neighbors[0].peer, PeerId(2));
        assert_eq!(f.read().region_of_peer(PeerId(1)), Some(RegionId(1)));
        assert_eq!(f.read().tombstone_count(), 1);
        for _ in 0..3 {
            f.write().advance_epoch().unwrap();
            assert_eq!(f.write().renew_batch(&[PeerId(1)]), 1);
        }
        let sweep = f.write().expire_stale(2);
        assert_eq!(sweep.moved_swept, vec![(RegionId(0), PeerId(1))]);
        assert_eq!(sweep.expired, vec![(RegionId(1), PeerId(2))]);
        assert_eq!(f.read().peer_count(), 1);
        assert_eq!(f.read().tombstone_count(), 0);
        let stats = f.read().stats();
        assert_eq!((stats.handovers, stats.cross_region_handovers), (1, 1));
    }

    #[test]
    fn returning_peer_survives_the_sweep_of_its_old_tombstone() {
        let f = fed(2);
        // L0 (region 0) → L1 (region 1) → L2 (region 0), then region 1's
        // tombstone ages out while the peer keeps renewing. (The comeback
        // to region 0 replaced the tombstone the first move left there.)
        f.write().register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        f.write()
            .handover(PeerId(1), path(&[111, 105, 100]))
            .unwrap();
        f.write()
            .handover(PeerId(1), path(&[210, 205, 200]))
            .unwrap();
        assert_eq!(f.read().tombstone_count(), 1);
        for _ in 0..3 {
            f.write().advance_epoch().unwrap();
            assert_eq!(f.write().renew_batch(&[PeerId(1)]), 1);
        }
        assert_eq!(
            f.write().expire_stale(2).moved_swept,
            vec![(RegionId(1), PeerId(1))]
        );
        assert_eq!(f.read().region_of_peer(PeerId(1)), Some(RegionId(0)));
        // The next cross-region move finds the peer where it lives.
        let out = f
            .write()
            .handover(PeerId(1), path(&[112, 105, 100]))
            .unwrap();
        assert_eq!(out.region, RegionId(1));
        assert_eq!(f.read().region_of_peer(PeerId(1)), Some(RegionId(1)));
        assert_eq!(f.read().peer_count(), 1);
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
                        f.write()
                            .register(PeerId(id), path(&[1000 + id as u32, lm + 1, lm]))
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(f.read().peer_count(), 100);
        for id in 1..=100u64 {
            let n = frame_neighbors(&f, PeerId(id), 3).unwrap();
            assert_eq!(n.len(), 3);
            assert!(n.iter().all(|x| x.peer != PeerId(id)));
        }
    }
}
