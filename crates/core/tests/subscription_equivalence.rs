//! Property test: a standing subscription's **pushed delta stream is
//! observationally identical to polling**. For random topologies and
//! arbitrary interleavings of churn (registers, renewing batches,
//! leaves, handovers, expiries) with subscribe/unsubscribe calls, clock
//! advances and drains, a client that applies every drained
//! [`NeighborDelta`] to its initial snapshot holds, after each drain,
//! exactly what a fresh `neighbors_of` re-poll would answer for every
//! subscription whose rate-limit window is open.
//!
//! Drains happen only at `Drain` ops, so several events pile up between
//! two drains, and subscriptions drawn with a 50 ms interval stay dirty
//! across drains until the clock passes their window: a missed dirty
//! mark shows as a diverged view. The suite also pins the re-query
//! budget: `observe` runs no query, and a drain runs at most one per
//! dirty subscription.
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
        min_interval_ms: u64,
    },
    Unsubscribe {
        peer: u8,
    },
    /// Close the delivery client (dropping every subscription and queued
    /// delta) and start over with a fresh one.
    ClientReset,
    /// Move the subscription clock forward.
    AdvanceClock {
        ms: u64,
    },
    /// Drain the client's deltas and check every due view.
    Drain,
}

/// The rate-limit window of the subscriptions drawn with one.
const INTERVAL_MS: u64 = 50;

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
        (any::<u8>(), 1u8..6, any::<bool>()).prop_map(arb_subscribe),
        (any::<u8>(), 1u8..6, any::<bool>()).prop_map(arb_subscribe),
        any::<u8>().prop_map(|peer| Op::Unsubscribe { peer: peer % 24 }),
        Just(Op::ClientReset),
        (0u64..30).prop_map(|ms| Op::AdvanceClock { ms }),
        Just(Op::Drain),
        Just(Op::Drain),
    ]
}

fn arb_subscribe((peer, k, limited): (u8, u8, bool)) -> Op {
    Op::Subscribe {
        peer: peer % 24,
        k,
        min_interval_ms: if limited { INTERVAL_MS } else { 0 },
    }
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

/// The client's copy of one subscription.
struct View {
    k: usize,
    min_interval_ms: u64,
    /// Subscription-clock time of the snapshot or the last push.
    last_push_ms: u64,
    neighbors: Vec<Neighbor>,
}

impl View {
    /// Whether the rate-limit window is open at `now_ms`.
    fn due(&self, now_ms: u64) -> bool {
        now_ms >= self.last_push_ms + self.min_interval_ms
    }
}

/// Drains `client`, applies every delta and checks that every view due
/// at the drain equals a re-poll, that the drain ran at most one
/// re-query per dirty subscription and that it left only subscriptions
/// inside their window dirty.
fn drain_and_check(
    server: &mut ManagementServer,
    client: u64,
    views: &mut HashMap<PeerId, View>,
) -> Result<(), TestCaseError> {
    let now = server.sub_clock_ms();
    let before = server.subscription_stats();
    let mut deltas = Vec::new();
    server.drain_deltas(client, usize::MAX, &mut deltas);
    let after = server.subscription_stats();
    prop_assert!(
        after.refills - before.refills <= before.queue_depth,
        "{} re-queries for {} dirty subscriptions",
        after.refills - before.refills,
        before.queue_depth
    );
    for d in &deltas {
        let view = views
            .get_mut(&d.peer)
            .expect("deltas only reach live subscriptions");
        prop_assert!(view.due(now), "pushed inside the window of {:?}", d.peer);
        apply(&mut view.neighbors, d);
        view.last_push_ms = now;
    }
    let waiting = views.values().filter(|v| !v.due(now)).count() as u64;
    prop_assert!(
        after.queue_depth <= waiting,
        "a due dirty subscription was not drained"
    );
    for (&peer, view) in views.iter().filter(|(_, v)| v.due(now)) {
        let want = server
            .neighbors_of(peer, view.k)
            .expect("subscriber is registered");
        prop_assert_eq!(
            as_set(view.neighbors.clone()),
            as_set(want),
            "view of {:?} diverged from re-poll",
            peer
        );
    }
    Ok(())
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
                adaptive_leases: None,
            },
        ).unwrap();
        let mut client = server.open_sub_client();
        let mut views: HashMap<PeerId, View> = HashMap::new();

        for op in ops {
            let refills = server.subscription_stats().refills;
            let drains = matches!(op, Op::Drain);
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
                    server.advance_epoch().unwrap();
                }
                Op::ExpireStale { max_age } => {
                    server.expire_stale(max_age as u64);
                }
                Op::Subscribe { peer, k, min_interval_ms } => {
                    let peer = PeerId(peer as u64);
                    let k = k as usize;
                    match server.subscribe(client, Subscription { peer, k, min_interval_ms }) {
                        Ok(neighbors) => {
                            let last_push_ms = server.sub_clock_ms();
                            views.insert(peer, View { k, min_interval_ms, last_push_ms, neighbors });
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
                Op::AdvanceClock { ms } => {
                    let now = server.sub_clock_ms();
                    server.set_sub_clock_ms(now + ms);
                }
                Op::Drain => drain_and_check(&mut server, client, &mut views)?,
            }
            if !drains {
                prop_assert_eq!(
                    server.subscription_stats().refills,
                    refills,
                    "only a drain re-queries"
                );
            }

            // A subscription dies with its peer's registration (handover
            // keeps both alive; the re-path is pushed as a delta).
            views.retain(|&p, _| server.path_of(p).is_some());
            let stats = server.subscription_stats();
            prop_assert_eq!(
                stats.active,
                views.len() as u64,
                "registry and client disagree on live subscriptions"
            );
            prop_assert!(stats.queue_depth <= stats.active);
        }

        // Open every window and take everything at once.
        let now = server.sub_clock_ms();
        server.set_sub_clock_ms(now + INTERVAL_MS);
        drain_and_check(&mut server, client, &mut views)?;
        prop_assert_eq!(server.subscription_stats().queue_depth, 0);
    }
}
