//! Property test: the management server stays internally consistent under
//! arbitrary interleavings of register / deregister / handover / heartbeat
//! / expiry operations.

use nearpeer_core::{CoreError, LandmarkId, ManagementServer, PeerId, PeerPath, ServerConfig};
use nearpeer_topology::RouterId;
use proptest::prelude::*;
use std::collections::HashMap;

/// The operations the fuzzer interleaves.
#[derive(Debug, Clone)]
enum Op {
    Register { peer: u8, leaf: u64 },
    Deregister { peer: u8 },
    Handover { peer: u8, leaf: u64 },
    Heartbeat { peer: u8 },
    AdvanceEpoch,
    ExpireStale { max_age: u8 },
    Query { peer: u8, k: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u64>()).prop_map(|(peer, leaf)| Op::Register { peer, leaf }),
        any::<u8>().prop_map(|peer| Op::Deregister { peer }),
        (any::<u8>(), any::<u64>()).prop_map(|(peer, leaf)| Op::Handover { peer, leaf }),
        any::<u8>().prop_map(|peer| Op::Heartbeat { peer }),
        Just(Op::AdvanceEpoch),
        any::<u8>().prop_map(|max_age| Op::ExpireStale {
            max_age: max_age % 8
        }),
        (any::<u8>(), 1u8..8).prop_map(|(peer, k)| Op::Query { peer, k }),
    ]
}

/// Tree-consistent path towards landmark router 0 (two landmark system:
/// roots 0 and 1_000_000), derived from a leaf id.
fn path_for(peer: u8, leaf: u64) -> PeerPath {
    let landmark = if leaf % 3 == 0 { 1_000_000u32 } else { 0 };
    let mut routers = vec![RouterId(2_000_000 + peer as u32)]; // unique access
    for level in (0..5u32).rev() {
        let prefix = (leaf % 3u64.pow(level)) as u32;
        routers.push(RouterId(landmark + 10 + level * 100_000 + prefix));
    }
    routers.push(RouterId(landmark));
    PeerPath::new(routers).expect("distinct by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn server_never_desyncs(ops in prop::collection::vec(arb_op(), 1..120)) {
        let mut server = ManagementServer::new(
            vec![RouterId(0), RouterId(1_000_000)],
            vec![vec![0, 7], vec![7, 0]],
            ServerConfig {
                neighbor_count: 4,
                adaptive_leases: None,
            },
        ).unwrap();
        // Reference model: the set of currently registered peers.
        let mut model: HashMap<PeerId, PeerPath> = HashMap::new();

        for op in ops {
            match op {
                Op::Register { peer, leaf } => {
                    let peer = PeerId(peer as u64);
                    let path = path_for(peer.0 as u8, leaf);
                    match server.register(peer, path.clone()) {
                        Ok(out) => {
                            prop_assert!(!model.contains_key(&peer));
                            prop_assert!(out.neighbors.iter().all(|n| n.peer != peer));
                            prop_assert!(out
                                .neighbors
                                .iter()
                                .all(|n| model.contains_key(&n.peer)));
                            model.insert(peer, path);
                        }
                        Err(CoreError::DuplicatePeer(_)) => {
                            prop_assert!(model.contains_key(&peer));
                        }
                        Err(e) => prop_assert!(false, "unexpected error {}", e),
                    }
                }
                Op::Deregister { peer } => {
                    let peer = PeerId(peer as u64);
                    match server.deregister(peer) {
                        Ok(()) => {
                            prop_assert!(model.remove(&peer).is_some());
                        }
                        Err(CoreError::UnknownPeer(_)) => {
                            prop_assert!(!model.contains_key(&peer));
                        }
                        Err(e) => prop_assert!(false, "unexpected error {}", e),
                    }
                }
                Op::Handover { peer, leaf } => {
                    let peer = PeerId(peer as u64);
                    let path = path_for(peer.0 as u8, leaf);
                    match server.handover(peer, path.clone()) {
                        Ok(_) => {
                            prop_assert!(model.contains_key(&peer));
                            model.insert(peer, path);
                        }
                        Err(CoreError::UnknownPeer(_)) => {
                            prop_assert!(!model.contains_key(&peer));
                        }
                        Err(e) => prop_assert!(false, "unexpected error {}", e),
                    }
                }
                Op::Heartbeat { peer } => {
                    let peer = PeerId(peer as u64);
                    let res = server.heartbeat(peer);
                    prop_assert_eq!(res.is_ok(), model.contains_key(&peer));
                }
                Op::AdvanceEpoch => {
                    server.advance_epoch().unwrap();
                }
                Op::ExpireStale { max_age } => {
                    for peer in server.expire_stale(max_age as u64) {
                        prop_assert!(model.remove(&peer).is_some());
                    }
                }
                Op::Query { peer, k } => {
                    let peer = PeerId(peer as u64);
                    match server.neighbors_of(peer, k as usize) {
                        Ok(neighbors) => {
                            prop_assert!(model.contains_key(&peer));
                            prop_assert!(neighbors.len() <= k as usize);
                            // Every answer is a live registered peer.
                            for n in &neighbors {
                                prop_assert!(n.peer != peer);
                                prop_assert!(model.contains_key(&n.peer));
                            }
                            // dtree values are non-decreasing within the
                            // same-landmark prefix of the answer.
                            let own = server.landmark_of(peer);
                            let same_lm: Vec<u32> = neighbors
                                .iter()
                                .filter(|n| server.landmark_of(n.peer) == own)
                                .map(|n| n.dtree)
                                .collect();
                            prop_assert!(
                                same_lm.windows(2).all(|w| w[0] <= w[1]),
                                "unsorted dtree {:?}",
                                same_lm
                            );
                        }
                        Err(CoreError::UnknownPeer(_)) => {
                            prop_assert!(!model.contains_key(&peer));
                        }
                        Err(e) => prop_assert!(false, "unexpected error {}", e),
                    }
                }
            }

            // Global invariants after every operation.
            prop_assert_eq!(server.peer_count(), model.len());
            let tree_total: usize = (0..2)
                .map(|i| server.tree(LandmarkId(i)).unwrap().n_peers())
                .sum();
            prop_assert_eq!(tree_total, model.len());
            for (&peer, path) in &model {
                prop_assert_eq!(server.path_of(peer), Some(path.view()));
                let lm = server.landmark_of(peer).expect("registered");
                prop_assert_eq!(
                    server.landmarks()[lm.index()],
                    path.landmark_router()
                );
            }
        }
    }
}

/// Conservation under churn, routers included: 1 000 peers behind 1 000
/// distinct access routers join, a third hands over to a fresh access
/// router, and everyone leaves by deregistration, batched leave or lease
/// expiry. The emptied server holds no router and its trees no node but
/// the landmark's own.
#[test]
fn emptied_server_holds_no_router_and_no_tree_node() {
    let mut server = ManagementServer::new(
        vec![RouterId(0), RouterId(1_000_000)],
        vec![vec![0, 7], vec![7, 0]],
        ServerConfig::default(),
    )
    .unwrap();
    // `path_for` keys the access router on a u8; this test needs 1 000.
    let path = |access: u32, leaf: u64| {
        let mut routers = path_for(0, leaf).routers().to_vec();
        routers[0] = RouterId(3_000_000 + access);
        PeerPath::new(routers).expect("distinct by construction")
    };
    let ids: Vec<PeerId> = (0..1_000).map(PeerId).collect();
    for &peer in &ids {
        server.register(peer, path(peer.0 as u32, peer.0)).unwrap();
    }
    for &peer in ids.iter().step_by(3) {
        server
            .handover(peer, path(5_000 + peer.0 as u32, peer.0 + 1))
            .unwrap();
    }
    for &peer in &ids[..300] {
        server.deregister(peer).unwrap();
    }
    assert_eq!(server.leave_batch(&ids[300..600]), 300);
    for _ in 0..5 {
        server.advance_epoch().unwrap();
    }
    assert_eq!(server.expire_stale(2), ids[600..]);
    assert_eq!(server.index().n_routers(), 0);
    for lm in server.report().per_landmark {
        assert_eq!(
            (lm.peers, lm.tree_routers),
            (0, 1),
            "only the landmark's own router"
        );
    }
    assert_eq!(server.tree(LandmarkId(0)).unwrap().n_nodes(), 1);
}
