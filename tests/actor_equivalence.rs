//! Answer equivalence between the concurrent serving plane and the
//! synchronous data plane it fronts, at the wire.
//!
//! The claim is not "roughly the same answers" — it is **bit-identical
//! behaviour over any op interleaving**: a [`Shared`] [`ManagementServer`]
//! fed a sequence of register / leave / heartbeat / handover / query
//! requests through [`WireService::handle_batch`], in bursts of 1 to 8,
//! must reply exactly what a [`ManagementServer`] fed the same sequence
//! answers, and a [`Shared`] [`Federation`] must match a [`Federation`]
//! the same way at 1, 2 and 4 regions (home-first fan-out, bridge fills
//! and cross-region handovers included). Epoch advances and expiry
//! sweeps, which have no request, end a burst and run under the write
//! guard. Each plane is its synchronous twin behind one lock, so writes
//! agree by construction; what this still pins is the wire dispatch, one
//! guard per burst, and the federation's frame-carried query path against
//! [`Federation::closest_to_path`]. After every burst each peer it touched
//! must sit where the twin holds it (landmark or region, path, last seen):
//! a leave or heartbeat replies nothing, so that is where they show.
//! The sequential interleaving pins the semantics; concurrency is
//! exercised by the crate's unit tests, `actor_race.rs` (writers racing
//! expiry sweeps) and the `perf` smoke test.

use nearpeer::core::protocol::{Message, WireNeighbor};
use nearpeer::core::{
    CoreError, Federation, FederationConfig, LandmarkId, ManagementServer, Neighbor, Outbound,
    PeerId, PeerPath, ServerConfig, Shared, WireService,
};
use nearpeer_bench::wire::synthetic_landmarks;
use nearpeer_bench::SyntheticJoins;
use proptest::prelude::*;

const LANDMARKS: usize = 4;
const PEER_SPACE: u64 = 16;

/// One serving-plane operation. Peer ids are drawn from a small space so
/// sequences exercise duplicates, unknown peers, re-registration after
/// expiry and repeated moves.
#[derive(Debug, Clone)]
enum Op {
    Register(u64),
    Leave(u64),
    Handover(u64, u32),
    Heartbeat(u64),
    Advance,
    Expire(u64),
    Query(u64, usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0u64..PEER_SPACE).prop_map(Op::Register),
        (0u64..PEER_SPACE).prop_map(Op::Leave),
        (0u64..PEER_SPACE, 0u32..LANDMARKS as u32).prop_map(|(p, l)| Op::Handover(p, l)),
        (0u64..PEER_SPACE).prop_map(Op::Heartbeat),
        Just(Op::Advance),
        (0u64..4).prop_map(Op::Expire),
        (0u64..PEER_SPACE, 1usize..6).prop_map(|(p, k)| Op::Query(p, k)),
    ];
    prop::collection::vec(op, 1..60)
}

/// Burst sizes, used in turn and cycled.
fn arb_bursts() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..9, 1..12)
}

fn config() -> ServerConfig {
    ServerConfig {
        neighbor_count: 3,
        ..ServerConfig::default()
    }
}

/// An answer list in its wire form.
fn wire(neighbors: Vec<Neighbor>) -> Vec<WireNeighbor> {
    neighbors
        .into_iter()
        .map(|n| WireNeighbor {
            peer: n.peer,
            dtree: n.dtree,
        })
        .collect()
}

/// The reply to a join or handover that answered `outcome`.
fn join_reply(peer: u64, outcome: Result<Vec<Neighbor>, CoreError>) -> Message {
    match outcome {
        Ok(neighbors) => Message::JoinReply {
            peer: PeerId(peer),
            neighbors: wire(neighbors),
            delegate: None,
        },
        Err(e) => Message::JoinError {
            peer: PeerId(peer),
            reason: e.to_string(),
        },
    }
}

/// `peer`'s query for its `k` nearest, on `path`.
fn query(nonce: u64, peer: u64, path: PeerPath, k: usize) -> Message {
    Message::QueryRequest {
        nonce,
        path,
        k: k as u16,
        exclude: Some(PeerId(peer)),
    }
}

/// `peer` sits where the twin holds it: landmark, path, last seen.
fn server_placed(
    sync: &ManagementServer,
    shared: &Shared<ManagementServer>,
    p: u64,
) -> Result<(), TestCaseError> {
    let peer = PeerId(p);
    let srv = shared.read();
    prop_assert_eq!(sync.landmark_of(peer), srv.landmark_of(peer));
    prop_assert_eq!(sync.path_of(peer), srv.path_of(peer));
    prop_assert_eq!(sync.last_seen(peer), srv.last_seen(peer));
    Ok(())
}

/// `peer` sits where the twin holds it: region, path, last seen.
fn federation_placed(
    sync: &Federation,
    shared: &Shared<Federation>,
    p: u64,
) -> Result<(), TestCaseError> {
    let peer = PeerId(p);
    let fed = shared.read();
    let placed = sync.locate(peer);
    prop_assert_eq!(placed, fed.locate(peer));
    if let Some((region, _)) = placed {
        prop_assert_eq!(
            sync.region(region).server().last_seen(peer),
            fed.region(region).server().last_seen(peer)
        );
    }
    Ok(())
}

/// Requests waiting to go out as one burst, the replies the twin gave
/// them, and the peers they touched.
struct Burst {
    sizes: Vec<usize>,
    next: usize,
    requests: Vec<Message>,
    expected: Vec<Outbound>,
    peers: Vec<u64>,
}

impl Burst {
    fn new(sizes: Vec<usize>) -> Self {
        Burst {
            sizes,
            next: 0,
            requests: Vec::new(),
            expected: Vec::new(),
            peers: Vec::new(),
        }
    }

    /// Queues `request`, which the twin answered `reply`; says whether
    /// the burst is full.
    fn push(&mut self, peer: u64, request: Message, reply: Option<Message>) -> bool {
        self.requests.push(request);
        self.expected.push(Outbound::Reply(reply));
        self.peers.push(peer);
        self.requests.len() == self.sizes[self.next % self.sizes.len()]
    }

    /// Sends the burst through `service` and checks every reply, then
    /// hands `placed` each peer the burst touched.
    fn flush(
        &mut self,
        service: &dyn WireService,
        mut placed: impl FnMut(u64) -> Result<(), TestCaseError>,
    ) -> Result<(), TestCaseError> {
        if self.requests.is_empty() {
            return Ok(());
        }
        self.next += 1;
        let mut out = Vec::new();
        service.handle_batch(None, &mut self.requests, &mut out);
        prop_assert!(self.requests.is_empty(), "the burst drains its requests");
        prop_assert_eq!(&out, &self.expected);
        self.expected.clear();
        for p in self.peers.drain(..) {
            placed(p)?;
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A [`Shared`] [`ManagementServer`] at the wire ≡ [`ManagementServer`]
    /// over arbitrary op sequences and bursts.
    #[test]
    fn actor_server_matches_sync_server(ops in arb_ops(), bursts in arb_bursts()) {
        let joins = SyntheticJoins::new(LANDMARKS);
        let mut sync = joins.server(config());
        let (routers, dist) = synthetic_landmarks(LANDMARKS);
        let shared = Shared::new(ManagementServer::new(routers, dist, config()).expect("builds"));
        let mut burst = Burst::new(bursts);
        for (nonce, op) in ops.into_iter().enumerate() {
            let full = match op {
                Op::Register(p) => {
                    let path = joins.path(p);
                    let a = join_reply(p, sync.register(PeerId(p), path.clone()).map(|o| o.neighbors));
                    burst.push(p, Message::JoinRequest { peer: PeerId(p), path }, Some(a))
                }
                Op::Leave(p) => {
                    let _ = sync.deregister(PeerId(p));
                    burst.push(p, Message::Leave { peer: PeerId(p) }, None)
                }
                Op::Handover(p, l) => {
                    let path = joins.path_to(p, LandmarkId(l));
                    let a = join_reply(p, sync.handover(PeerId(p), path.clone()).map(|o| o.neighbors));
                    burst.push(p, Message::HandoverRequest { peer: PeerId(p), path }, Some(a))
                }
                Op::Heartbeat(p) => {
                    let _ = sync.heartbeat(PeerId(p));
                    burst.push(p, Message::Heartbeat { peer: PeerId(p) }, None)
                }
                Op::Advance => {
                    burst.flush(&shared, |p| server_placed(&sync, &shared, p))?;
                    prop_assert_eq!(sync.advance_epoch(), shared.write().advance_epoch());
                    false
                }
                Op::Expire(age) => {
                    burst.flush(&shared, |p| server_placed(&sync, &shared, p))?;
                    prop_assert_eq!(sync.expire_stale(age), shared.write().expire_stale(age));
                    false
                }
                Op::Query(p, k) => {
                    let path = joins.path(p);
                    let a = Message::QueryReply {
                        nonce: nonce as u64,
                        neighbors: wire(sync.closest_to_path(&path, k, Some(PeerId(p)))),
                    };
                    burst.push(p, query(nonce as u64, p, path, k), Some(a))
                }
            };
            if full {
                burst.flush(&shared, |p| server_placed(&sync, &shared, p))?;
            }
        }
        burst.flush(&shared, |p| server_placed(&sync, &shared, p))?;
        prop_assert_eq!(sync.peer_count(), shared.read().peer_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A [`Shared`] [`Federation`] at the wire ≡ [`Federation`] at 1, 2
    /// and 4 regions: one guard per burst, and the RPC-frame fan-out and
    /// prefix-cursor bridge fills reproduce the nested-call query exactly.
    #[test]
    fn actor_federation_matches_sync_federation(
        ops in arb_ops(),
        regions in prop_oneof![Just(1usize), Just(2), Just(4)],
        bursts in arb_bursts(),
    ) {
        let joins = SyntheticJoins::new(LANDMARKS);
        let fed_config = FederationConfig {
            fanout: None,
            server: config(),
        };
        let (routers, dist) = synthetic_landmarks(LANDMARKS);
        let mut sync =
            Federation::new(routers.clone(), dist.clone(), regions, fed_config)
                .expect("builds");
        let shared = Shared::new(
            Federation::new(routers, dist, regions, fed_config).expect("builds"),
        );
        let mut burst = Burst::new(bursts);
        for (nonce, op) in ops.into_iter().enumerate() {
            let full = match op {
                Op::Register(p) => {
                    let path = joins.path(p);
                    let a = join_reply(p, sync.register(PeerId(p), path.clone()).map(|o| o.neighbors));
                    burst.push(p, Message::JoinRequest { peer: PeerId(p), path }, Some(a))
                }
                Op::Leave(p) => {
                    sync.leave_batch(&[PeerId(p)]);
                    burst.push(p, Message::Leave { peer: PeerId(p) }, None)
                }
                Op::Handover(p, l) => {
                    let path = joins.path_to(p, LandmarkId(l));
                    let a = join_reply(p, sync.handover(PeerId(p), path.clone()).map(|o| o.neighbors));
                    burst.push(p, Message::HandoverRequest { peer: PeerId(p), path }, Some(a))
                }
                Op::Heartbeat(p) => {
                    sync.renew_batch(&[PeerId(p)]);
                    burst.push(p, Message::Heartbeat { peer: PeerId(p) }, None)
                }
                Op::Advance => {
                    burst.flush(&shared, |p| federation_placed(&sync, &shared, p))?;
                    prop_assert_eq!(sync.advance_epoch(), shared.write().advance_epoch());
                    false
                }
                Op::Expire(age) => {
                    burst.flush(&shared, |p| federation_placed(&sync, &shared, p))?;
                    prop_assert_eq!(sync.expire_stale(age), shared.write().expire_stale(age));
                    false
                }
                Op::Query(p, k) => {
                    let path = joins.path(p);
                    let a = Message::QueryReply {
                        nonce: nonce as u64,
                        neighbors: wire(sync.closest_to_path(&path, k, Some(PeerId(p)))),
                    };
                    burst.push(p, query(nonce as u64, p, path, k), Some(a))
                }
            };
            if full {
                burst.flush(&shared, |p| federation_placed(&sync, &shared, p))?;
            }
        }
        burst.flush(&shared, |p| federation_placed(&sync, &shared, p))?;
        let fed = shared.read();
        prop_assert_eq!(sync.peer_count(), fed.peer_count());
        prop_assert_eq!(sync.tombstone_count(), fed.tombstone_count());
    }
}
