//! Answer equivalence between the actorized serving plane and the
//! synchronous data plane it fronts.
//!
//! The actorization claim is not "roughly the same answers" — it is
//! **bit-identical behaviour over any op interleaving**: an
//! [`ActorServer`] fed a sequence of register / leave / heartbeat /
//! handover / epoch / expiry / query operations must produce exactly the
//! outcomes of a [`ManagementServer`] fed the same sequence, and an
//! [`ActorFederation`] must match a [`Federation`] the same way at 1, 2
//! and 4 regions (home-first fan-out, bridge fills and cross-region
//! handovers included). Each actor plane is its synchronous twin behind
//! one lock, so writes agree by construction; what this still pins is the
//! wrapper (clock, guards) and the federation's frame-carried query path.
//! The sequential interleaving pins the semantics; concurrency is
//! exercised by the crate's unit tests, `actor_race.rs` (writers racing
//! expiry sweeps) and the `perf` smoke test.

use nearpeer::core::{
    ActorFederation, ActorServer, CoreError, FederatedJoin, Federation, FederationConfig,
    JoinOutcome, LandmarkId, Neighbor, PeerId, ServerConfig,
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

fn config() -> ServerConfig {
    ServerConfig {
        neighbor_count: 3,
        ..ServerConfig::default()
    }
}

/// Flattens an answer to comparable tuples.
fn key(neighbors: &[Neighbor]) -> Vec<(u64, u32)> {
    neighbors.iter().map(|n| (n.peer.0, n.dtree)).collect()
}

/// `(landmark, answer)` — a join outcome flattened for comparison.
type JoinKey = Result<(u32, Vec<(u64, u32)>), String>;

/// `(region, landmark, answer)` — a federated join flattened for comparison.
type FedKey = Result<(u32, u32, Vec<(u64, u32)>), String>;

fn join_key(r: Result<JoinOutcome, CoreError>) -> JoinKey {
    r.map(|o| (o.landmark.0, key(&o.neighbors)))
        .map_err(|e| e.to_string())
}

fn fed_key(r: Result<FederatedJoin, CoreError>) -> FedKey {
    r.map(|o| (o.region.0, o.landmark.0, key(&o.neighbors)))
        .map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// [`ActorServer`] ≡ [`ManagementServer`] over arbitrary op sequences.
    #[test]
    fn actor_server_matches_sync_server(ops in arb_ops()) {
        let joins = SyntheticJoins::new(LANDMARKS);
        let mut sync = joins.server(config());
        let (routers, dist) = synthetic_landmarks(LANDMARKS);
        let actor = ActorServer::new(routers, dist, config()).expect("builds");
        for op in ops {
            match op {
                Op::Register(p) => {
                    let a = join_key(sync.register(PeerId(p), joins.path(p)));
                    let b = join_key(actor.register(PeerId(p), joins.path(p)));
                    prop_assert_eq!(a, b);
                }
                Op::Leave(p) => {
                    let a = sync.deregister(PeerId(p)).map_err(|e| e.to_string());
                    let b = actor.deregister(PeerId(p)).map_err(|e| e.to_string());
                    prop_assert_eq!(a, b);
                }
                Op::Handover(p, l) => {
                    let path = joins.path_to(p, LandmarkId(l));
                    let a = join_key(sync.handover(PeerId(p), path.clone()));
                    let b = join_key(actor.handover(PeerId(p), path));
                    prop_assert_eq!(a, b);
                }
                Op::Heartbeat(p) => {
                    let a = sync.heartbeat(PeerId(p)).map_err(|e| e.to_string());
                    let b = actor.heartbeat(PeerId(p)).map_err(|e| e.to_string());
                    prop_assert_eq!(a, b);
                }
                Op::Advance => {
                    prop_assert_eq!(sync.advance_epoch(), actor.advance_epoch());
                }
                Op::Expire(age) => {
                    prop_assert_eq!(sync.expire_stale(age), actor.expire_stale(age));
                }
                Op::Query(p, k) => {
                    let path = joins.path(p);
                    let a = key(&sync.closest_to_path(&path, k, Some(PeerId(p))));
                    let b = key(&actor.closest_to_path(&path, k, Some(PeerId(p))));
                    prop_assert_eq!(a, b);
                }
            }
        }
        prop_assert_eq!(sync.peer_count(), actor.peer_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// [`ActorFederation`] ≡ [`Federation`] at 1, 2 and 4 regions: the
    /// RPC-frame fan-out and prefix-cursor bridge fills reproduce the
    /// nested-call query exactly.
    #[test]
    fn actor_federation_matches_sync_federation(
        ops in arb_ops(),
        regions in prop_oneof![Just(1usize), Just(2), Just(4)],
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
        let actor =
            ActorFederation::new(routers, dist, regions, fed_config).expect("builds");
        for op in ops {
            match op {
                Op::Register(p) => {
                    let a = fed_key(sync.register(PeerId(p), joins.path(p)));
                    let b = fed_key(actor.register(PeerId(p), joins.path(p)));
                    prop_assert_eq!(a, b);
                }
                Op::Leave(p) => {
                    prop_assert_eq!(
                        sync.leave_batch(&[PeerId(p)]),
                        actor.leave_batch(&[PeerId(p)])
                    );
                }
                Op::Handover(p, l) => {
                    let path = joins.path_to(p, LandmarkId(l));
                    let a = fed_key(sync.handover(PeerId(p), path.clone()));
                    let b = fed_key(actor.handover(PeerId(p), path));
                    prop_assert_eq!(a, b);
                }
                Op::Heartbeat(p) => {
                    prop_assert_eq!(
                        sync.renew_batch(&[PeerId(p)]),
                        actor.renew_batch(&[PeerId(p)])
                    );
                }
                Op::Advance => {
                    prop_assert_eq!(sync.advance_epoch(), actor.advance_epoch());
                }
                Op::Expire(age) => {
                    let a = sync.expire_stale(age);
                    let b = actor.expire_stale(age);
                    let flat = |s: nearpeer::core::FederationSweep| {
                        (
                            s.expired
                                .iter()
                                .map(|(r, p)| (r.0, p.0))
                                .collect::<Vec<_>>(),
                            s.moved_swept
                                .iter()
                                .map(|(r, p)| (r.0, p.0))
                                .collect::<Vec<_>>(),
                        )
                    };
                    prop_assert_eq!(flat(a), flat(b));
                }
                Op::Query(p, k) => {
                    let path = joins.path(p);
                    let a = key(&sync.closest_to_path(&path, k, Some(PeerId(p))));
                    let b = key(&actor.closest_to_path(&path, k, Some(PeerId(p))));
                    prop_assert_eq!(a, b);
                }
            }
        }
        prop_assert_eq!(sync.peer_count(), actor.peer_count());
        prop_assert_eq!(sync.tombstone_count(), actor.tombstone_count());
    }
}
