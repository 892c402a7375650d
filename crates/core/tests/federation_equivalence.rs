//! Property test: an N-region [`Federation`] with full fan-out is
//! observationally identical to **one big management server** holding all
//! landmarks — for random operation interleavings over `register`,
//! write-only batches, `handover` (intra- and cross-region, with
//! forwarding tombstones), departures, heartbeat renewal and lease
//! expiry: every answer, error, count and stored path must match.
//!
//! One documented precondition: peers' paths never traverse another
//! *region's* landmark router mid-path (real traced paths terminate at
//! their landmark; the generator's mid-router pool is disjoint from the
//! landmark id range). Shared mid routers between landmarks — the case
//! that makes *exact* answers cross regions — are generated aggressively.

use nearpeer_core::federation::{Federation, FederationConfig};
use nearpeer_core::{
    CoreError, LandmarkId, ManagementServer, PeerId, PeerPath, RegionId, ServerConfig,
};
use nearpeer_topology::RouterId;
use proptest::prelude::*;

const K: usize = 4;
const LM_ROUTERS: [u32; 4] = [0, 1_000, 2_000, 3_000];
const LM_DIST: [[u32; 4]; 4] = [[0, 3, 7, 5], [3, 0, 4, 9], [7, 4, 0, 6], [5, 9, 6, 0]];

fn server_config() -> ServerConfig {
    ServerConfig {
        neighbor_count: K,
        adaptive_leases: None,
    }
}

fn reference() -> ManagementServer {
    ManagementServer::new(
        LM_ROUTERS.iter().map(|&r| RouterId(r)).collect(),
        LM_DIST.iter().map(|row| row.to_vec()).collect(),
        server_config(),
    )
    .unwrap()
}

fn federation(n_regions: usize) -> Federation {
    Federation::new(
        LM_ROUTERS.iter().map(|&r| RouterId(r)).collect(),
        LM_DIST.iter().map(|row| row.to_vec()).collect(),
        n_regions,
        FederationConfig {
            fanout: None,
            server: server_config(),
        },
    )
    .expect("valid federation")
}

/// The federation's view of a peer's **global** landmark.
fn fed_landmark_of(fed: &Federation, peer: PeerId) -> Option<LandmarkId> {
    let (region, _) = fed.locate(peer)?;
    let local = fed.region(region).server().landmark_of(peer)?;
    Some(fed.region(region).to_global(local))
}

/// A join payload drawn by the fuzzer. Mid routers come from a shared
/// pool disjoint from every landmark router, so paths from different
/// landmarks (and regions) cross at common routers — exercising
/// cross-region exact answers — without ever traversing a foreign
/// landmark router (the documented precondition).
#[derive(Debug, Clone, Copy)]
struct JoinSpec {
    peer: u8,
    landmark: u8,
    access: u16,
    mids: u64,
    depth: u8,
}

fn spec_path(s: JoinSpec) -> PeerPath {
    // landmark % 5 == 4 → unknown landmark router (error-path parity).
    let lm_router = match s.landmark % 5 {
        i @ 0..=3 => LM_ROUTERS[i as usize],
        _ => 9_999,
    };
    let mut routers = vec![RouterId(50_000 + (s.access % 64) as u32)];
    let depth = (s.depth % 5) as usize;
    let mut pool: Vec<u32> = (100..140).collect();
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
    RegisterBatch(Vec<JoinSpec>),
    Handover(JoinSpec),
    LeaveBatch(Vec<u8>),
    RenewBatch(Vec<u8>),
    AdvanceEpoch,
    Expire { max_age: u8 },
    Query { peer: u8, k: u8 },
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
            peer: peer % 16,
            landmark,
            access,
            mids,
            depth,
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_spec().prop_map(Op::Register),
        prop::collection::vec(arb_spec(), 1..6).prop_map(Op::RegisterBatch),
        arb_spec().prop_map(Op::Handover),
        prop::collection::vec(any::<u8>(), 1..6)
            .prop_map(|ps| Op::LeaveBatch(ps.into_iter().map(|p| p % 16).collect())),
        prop::collection::vec(any::<u8>(), 1..6)
            .prop_map(|ps| Op::RenewBatch(ps.into_iter().map(|p| p % 16).collect())),
        Just(Op::AdvanceEpoch),
        any::<u8>().prop_map(|max_age| Op::Expire {
            max_age: max_age % 6
        }),
        (any::<u8>(), 1u8..8).prop_map(|(peer, k)| Op::Query { peer: peer % 16, k }),
    ]
}

fn same_error(a: &CoreError, b: &CoreError) -> bool {
    matches!(
        (a, b),
        (CoreError::DuplicatePeer(x), CoreError::DuplicatePeer(y)) if x == y
    ) || matches!(
        (a, b),
        (CoreError::UnknownPeer(x), CoreError::UnknownPeer(y)) if x == y
    ) || matches!(
        (a, b),
        (CoreError::UnknownLandmark(_), CoreError::UnknownLandmark(_))
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn federation_equals_single_server_reference(
        regions in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
        ops in prop::collection::vec(arb_op(), 1..60)
    ) {
        let mut fed = federation(regions);
        let mut single = reference();

        for op in ops {
            match op {
                Op::Register(spec) => {
                    let peer = PeerId(spec.peer as u64);
                    let path = spec_path(spec);
                    let got = fed.register(peer, path.clone());
                    let want = single.register(peer, path);
                    match (&got, &want) {
                        (Ok(g), Ok(w)) => {
                            prop_assert_eq!(g.landmark, w.landmark, "global landmark");
                            prop_assert_eq!(
                                fed.region_of_landmark(g.landmark),
                                g.region,
                                "home region owns the landmark"
                            );
                            prop_assert_eq!(&g.neighbors, &w.neighbors);
                        }
                        (Err(g), Err(w)) => prop_assert!(same_error(g, w), "{} vs {}", g, w),
                        _ => prop_assert!(false, "diverged: {:?} vs {:?}", got, want),
                    }
                }
                Op::RegisterBatch(specs) => {
                    let batch: Vec<(PeerId, PeerPath)> = specs
                        .iter()
                        .map(|&s| (PeerId(s.peer as u64), spec_path(s)))
                        .collect();
                    let got = fed.register_batch(batch.clone());
                    let want = single.register_batch(batch);
                    prop_assert_eq!(
                        (got.joined, got.renewed, got.rejected),
                        (want.joined, want.renewed, want.rejected)
                    );
                }
                Op::Handover(spec) => {
                    let peer = PeerId(spec.peer as u64);
                    let path = spec_path(spec);
                    let got = fed.handover(peer, path.clone());
                    let want = single.handover(peer, path);
                    match (&got, &want) {
                        (Ok(g), Ok(w)) => {
                            prop_assert_eq!(g.landmark, w.landmark);
                            prop_assert_eq!(&g.neighbors, &w.neighbors);
                        }
                        (Err(g), Err(w)) => prop_assert!(same_error(g, w), "{} vs {}", g, w),
                        _ => prop_assert!(false, "diverged: {:?} vs {:?}", got, want),
                    }
                }
                Op::LeaveBatch(peers) => {
                    let ids: Vec<PeerId> = peers.iter().map(|&p| PeerId(p as u64)).collect();
                    prop_assert_eq!(fed.leave_batch(&ids), single.leave_batch(&ids));
                }
                Op::RenewBatch(peers) => {
                    let ids: Vec<PeerId> = peers.iter().map(|&p| PeerId(p as u64)).collect();
                    prop_assert_eq!(fed.renew_batch(&ids), single.renew_batch(&ids));
                }
                Op::AdvanceEpoch => {
                    fed.advance_epoch().unwrap();
                    single.advance_epoch().unwrap();
                    prop_assert_eq!(fed.epoch(), single.epoch());
                }
                Op::Expire { max_age } => {
                    let sweep = fed.expire_stale(max_age as u64);
                    let want = single.expire_stale(max_age as u64);
                    prop_assert_eq!(sweep.expired_ids(), want, "silent expiries");
                    // A swept tombstone and a silent expiry for the same
                    // peer may coexist (move, then fail later in the new
                    // region) — but never in the same region.
                    for &(r, p) in &sweep.moved_swept {
                        prop_assert!(!sweep.expired.contains(&(r, p)));
                    }
                }
                Op::Query { peer, k } => {
                    let peer = PeerId(peer as u64);
                    let got = fed.neighbors_of(peer, k as usize);
                    let want = single.neighbors_of(peer, k as usize);
                    match (&got, &want) {
                        (Ok(g), Ok(w)) => prop_assert_eq!(g, w),
                        (Err(g), Err(w)) => prop_assert!(same_error(g, w), "{} vs {}", g, w),
                        _ => prop_assert!(false, "diverged: {:?} vs {:?}", got, want),
                    }
                }
            }

            // Cross-cutting invariants after every operation.
            prop_assert_eq!(fed.peer_count(), single.peer_count());
            for p in 0..16u64 {
                let peer = PeerId(p);
                prop_assert_eq!(
                    fed_landmark_of(&fed, peer),
                    single.landmark_of(peer),
                    "landmark of peer {}", p
                );
                prop_assert_eq!(
                    fed.locate(peer).map(|(_, path)| path),
                    single.path_of(peer),
                    "path of peer {}", p
                );
                // A peer is never live in two regions at once.
                let live_in = fed
                    .regions()
                    .iter()
                    .filter(|r| r.server().landmark_of(peer).is_some())
                    .count();
                prop_assert!(live_in <= 1, "peer {} live in {} regions", p, live_in);
            }
        }

        // Regions partition the landmarks exactly once.
        let mut owned: Vec<u32> = fed
            .regions()
            .iter()
            .flat_map(|r| r.landmark_globals().iter().copied())
            .collect();
        owned.sort_unstable();
        prop_assert_eq!(owned, (0..LM_ROUTERS.len() as u32).collect::<Vec<_>>());
        let _ = RegionId(0); // silence unused-import lint paths on 1-region draws
    }
}
