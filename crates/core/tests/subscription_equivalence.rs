//! Property test: a standing subscription's **pushed delta stream is
//! observationally identical to polling**. For random topologies and
//! arbitrary interleavings of churn (registers, renewing batches,
//! leaves, handovers, expiries) with subscribe/unsubscribe calls, a
//! client that applies every drained [`NeighborDelta`] to its initial
//! snapshot always holds exactly what a fresh `neighbors_of` re-poll
//! would answer — and the delivery queue drains to empty each round.
//!
//! Views compare as `(peer, dtree)` sets: the concatenated exact+fill
//! answer is not globally sorted, and deltas deliberately do not encode
//! ordering.
//!
//! [`NeighborDelta`]: nearpeer_core::subscription::NeighborDelta

use nearpeer_core::subscription::{NeighborDelta, Subscription};
use nearpeer_core::{CoreError, ManagementServer, Neighbor, PeerId, PeerPath, ServerConfig};
use nearpeer_topology::RouterId;
use proptest::prelude::*;
use std::collections::HashMap;

const LM_ROUTERS: [u32; 3] = [0, 1_000, 2_000];
const LM_DIST: [[u32; 3]; 3] = [[0, 3, 7], [3, 0, 4], [7, 4, 0]];

/// A join payload drawn by the fuzzer — same shape as the directory
/// equivalence suite: disjoint id ranges keep paths loop-free, a shared
/// mid pool makes paths cross, and `landmark % 4 == 3` draws an unknown
/// landmark (error-path parity).
#[derive(Debug, Clone, Copy)]
struct JoinSpec {
    peer: u8,
    landmark: u8,
    access: u16,
    mids: u64,
    depth: u8,
}

fn spec_path(s: JoinSpec) -> PeerPath {
    let lm_router = match s.landmark % 4 {
        0 => LM_ROUTERS[0],
        1 => LM_ROUTERS[1],
        2 => LM_ROUTERS[2],
        _ => 9_999,
    };
    let mut routers = vec![RouterId(50_000 + (s.access % 64) as u32)];
    let depth = (s.depth % 5) as usize;
    let mut pool: Vec<u32> = (100..140).collect();
    if s.mids % 3 == 0 {
        pool.extend(LM_ROUTERS.iter().copied().filter(|&r| r != lm_router));
    }
    let mut state = s.mids | 1;
    for _ in 0..depth {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = (state >> 33) as usize % pool.len();
        routers.push(RouterId(pool.swap_remove(pick)));
    }
    routers.push(RouterId(lm_router));
    PeerPath::new(routers).expect("disjoint id ranges are loop-free")
}

#[derive(Debug, Clone)]
enum Op {
    Register(JoinSpec),
    RegisterBatchRenewing(Vec<JoinSpec>),
    Deregister {
        peer: u8,
    },
    LeaveBatch(Vec<u8>),
    Handover(JoinSpec),
    AdvanceEpoch,
    ExpireStale {
        max_age: u8,
    },
    Subscribe {
        peer: u8,
        k: u8,
    },
    Unsubscribe {
        peer: u8,
    },
    /// Close the delivery client (dropping every subscription and queued
    /// delta) and start over with a fresh one.
    ClientReset,
}

fn arb_spec() -> impl Strategy<Value = JoinSpec> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u16>(),
        any::<u64>(),
        any::<u8>(),
    )
        .prop_map(|(peer, landmark, access, mids, depth)| JoinSpec {
            peer: peer % 24,
            landmark,
            access,
            mids,
            depth,
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_spec().prop_map(Op::Register),
        prop::collection::vec(arb_spec(), 1..7).prop_map(Op::RegisterBatchRenewing),
        any::<u8>().prop_map(|peer| Op::Deregister { peer: peer % 24 }),
        prop::collection::vec(any::<u8>(), 1..7)
            .prop_map(|ps| Op::LeaveBatch(ps.into_iter().map(|p| p % 24).collect())),
        arb_spec().prop_map(Op::Handover),
        Just(Op::AdvanceEpoch),
        any::<u8>().prop_map(|max_age| Op::ExpireStale {
            max_age: max_age % 4
        }),
        (any::<u8>(), 1u8..6).prop_map(|(peer, k)| Op::Subscribe { peer: peer % 24, k }),
        (any::<u8>(), 1u8..6).prop_map(|(peer, k)| Op::Subscribe { peer: peer % 24, k }),
        any::<u8>().prop_map(|peer| Op::Unsubscribe { peer: peer % 24 }),
        Just(Op::ClientReset),
    ]
}

/// The documented client contract: drop `removed`, then upsert `added`.
fn apply(view: &mut Vec<Neighbor>, d: &NeighborDelta) {
    view.retain(|n| !d.removed.contains(&n.peer));
    for a in &d.added {
        match view.iter_mut().find(|n| n.peer == a.peer) {
            Some(n) => n.dtree = a.dtree,
            None => view.push(*a),
        }
    }
}

fn as_set(mut v: Vec<Neighbor>) -> Vec<Neighbor> {
    v.sort_unstable_by_key(|n| n.peer);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn delta_stream_equals_repolling(
        ops in prop::collection::vec(arb_op(), 1..70)
    ) {
        let mut server = ManagementServer::new(
            LM_ROUTERS.iter().map(|&r| RouterId(r)).collect(),
            LM_DIST.iter().map(|row| row.to_vec()).collect(),
            ServerConfig {
                neighbor_count: 4,
                cross_landmark_fallback: true,
                adaptive_leases: None,
            },
        );
        let mut client = server.open_sub_client();
        // Tracked client state: subscription k + the delta-applied view.
        let mut views: HashMap<PeerId, (usize, Vec<Neighbor>)> = HashMap::new();
        let mut deltas: Vec<NeighborDelta> = Vec::new();

        for op in ops {
            match op {
                Op::Register(spec) => {
                    let _ = server.register(PeerId(spec.peer as u64), spec_path(spec));
                }
                Op::RegisterBatchRenewing(specs) => {
                    let batch: Vec<(PeerId, PeerPath)> = specs
                        .iter()
                        .map(|&s| (PeerId(s.peer as u64), spec_path(s)))
                        .collect();
                    server.register_batch(batch);
                }
                Op::Deregister { peer } => {
                    let _ = server.deregister(PeerId(peer as u64));
                }
                Op::LeaveBatch(peers) => {
                    let ids: Vec<PeerId> = peers.iter().map(|&p| PeerId(p as u64)).collect();
                    server.leave_batch(&ids);
                }
                Op::Handover(spec) => {
                    let _ = server.handover(PeerId(spec.peer as u64), spec_path(spec));
                }
                Op::AdvanceEpoch => {
                    server.advance_epoch();
                }
                Op::ExpireStale { max_age } => {
                    server.expire_stale(max_age as u64);
                }
                Op::Subscribe { peer, k } => {
                    let peer = PeerId(peer as u64);
                    match server.subscribe(
                        client,
                        Subscription { peer, k: k as usize, min_interval_ms: 0 },
                    ) {
                        Ok(initial) => {
                            views.insert(peer, (k as usize, initial));
                        }
                        Err(CoreError::UnknownPeer(p)) => {
                            prop_assert_eq!(p, peer);
                            prop_assert!(
                                server.path_of(peer).is_none(),
                                "subscribe refused a registered peer"
                            );
                        }
                        Err(e) => prop_assert!(false, "unexpected subscribe error: {}", e),
                    }
                }
                Op::Unsubscribe { peer } => {
                    let peer = PeerId(peer as u64);
                    let existed = server.unsubscribe(peer);
                    prop_assert_eq!(existed, views.remove(&peer).is_some());
                }
                Op::ClientReset => {
                    server.close_sub_client(client);
                    views.clear();
                    client = server.open_sub_client();
                }
            }

            // A subscription dies with its peer's registration (handover
            // keeps both alive; the re-path is pushed as a delta).
            views.retain(|&p, _| server.path_of(p).is_some());
            prop_assert_eq!(
                server.subscription_stats().active,
                views.len() as u64,
                "registry and client disagree on live subscriptions"
            );

            // Drain everything (interval 0 = always eligible), apply, and
            // compare every live view against a fresh re-poll.
            deltas.clear();
            server.drain_deltas(client, usize::MAX, &mut deltas);
            for d in &deltas {
                let (_, view) = views
                    .get_mut(&d.peer)
                    .expect("deltas only reach live subscriptions");
                apply(view, d);
            }
            prop_assert_eq!(server.subscription_stats().queue_depth, 0);
            for (&peer, (k, view)) in &views {
                let want = server.neighbors_of(peer, *k).expect("subscriber is registered");
                prop_assert_eq!(
                    as_set(view.clone()),
                    as_set(want),
                    "view of {:?} diverged from re-poll",
                    peer
                );
            }
        }
    }
}
