//! Writers racing an expiry sweep on a `Shared` server and a `Shared`
//! federation. A sweep and every handover must each be one critical
//! section over the whole plane: a handover that lands between a sweep and
//! its membership cleanup finds the peer recorded in one place but gone
//! from it. On the server the peer would be re-inserted and then forgotten
//! — a peer that queries still return and `deregister` calls unknown
//! (checked by conservation: joins − leaves == registered peers). On the
//! federation the cross-region teardown would find nothing to forward
//! (checked by every peer the federation places in a region being live
//! there).

use nearpeer::core::{
    CoreError, Federation, FederationConfig, LandmarkId, ManagementServer, ServerConfig, Shared,
};
use nearpeer_bench::wire::synthetic_landmarks;
use nearpeer_bench::SyntheticJoins;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const LANDMARKS: u64 = 8;
const PEERS: u64 = 4_000;
const ROUNDS: u64 = 40;

#[test]
fn handovers_racing_expiry_conserve_the_population() {
    let joins = SyntheticJoins::new(LANDMARKS as usize);
    let (routers, dist) = synthetic_landmarks(LANDMARKS as usize);
    let srv =
        Shared::new(ManagementServer::new(routers, dist, ServerConfig::default()).expect("builds"));
    for round in 0..ROUNDS {
        for p in 0..PEERS {
            let (peer, path) = joins.join(p);
            match srv.write().register(peer, path) {
                Ok(_) | Err(CoreError::DuplicatePeer(_)) => {}
                Err(e) => panic!("register {peer:?}: {e}"),
            }
        }
        let start = Barrier::new(3);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for first in 0..2 {
                let (srv, start, stop) = (&srv, &start, &stop);
                s.spawn(move || {
                    start.wait();
                    'run: loop {
                        for p in (first..PEERS).step_by(2) {
                            if stop.load(Ordering::Acquire) {
                                break 'run;
                            }
                            let to = LandmarkId(((p + round) % LANDMARKS) as u32);
                            let (peer, path) = joins.join_to(p, to);
                            // A peer the sweep just took is unknown: fine.
                            match srv.write().handover(peer, path) {
                                Ok(_) | Err(CoreError::UnknownPeer(_)) => {}
                                Err(e) => panic!("handover {peer:?}: {e}"),
                            }
                            let _ = srv.write().heartbeat(peer);
                        }
                    }
                });
            }
            start.wait();
            for _ in 0..3 {
                srv.write().advance_epoch().unwrap();
                srv.write().advance_epoch().unwrap();
                srv.write().expire_stale(1);
            }
            stop.store(true, Ordering::Release);
        });
        let stats = srv.read().stats();
        assert_eq!(
            stats.joins,
            stats.leaves + srv.read().peer_count() as u64,
            "round {round}: joins − leaves must equal the registered peers"
        );
    }
}

#[test]
fn federation_handovers_racing_expiry() {
    const REGIONS: usize = 4;
    let joins = SyntheticJoins::new(LANDMARKS as usize);
    let (routers, dist) = synthetic_landmarks(LANDMARKS as usize);
    let fed = Shared::new(
        Federation::new(
            routers,
            dist,
            REGIONS,
            FederationConfig {
                fanout: None,
                server: ServerConfig::default(),
            },
        )
        .expect("builds"),
    );
    for round in 0..ROUNDS {
        for p in 0..PEERS {
            let (peer, path) = joins.join(p);
            match fed.write().register(peer, path) {
                Ok(_) | Err(CoreError::DuplicatePeer(_)) => {}
                Err(e) => panic!("register {peer:?}: {e}"),
            }
        }
        let start = Barrier::new(3);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for first in 0..2 {
                let (fed, start, stop) = (&fed, &start, &stop);
                s.spawn(move || {
                    start.wait();
                    'run: loop {
                        for p in (first..PEERS).step_by(2) {
                            if stop.load(Ordering::Acquire) {
                                break 'run;
                            }
                            // Landmarks map to regions round-robin, so most
                            // of these moves cross regions.
                            let to = LandmarkId(((p + round) % LANDMARKS) as u32);
                            let (peer, path) = joins.join_to(p, to);
                            match fed.write().handover(peer, path) {
                                Ok(_) | Err(CoreError::UnknownPeer(_)) => {}
                                Err(e) => panic!("handover {peer:?}: {e}"),
                            }
                            fed.write().renew_batch(&[peer]);
                        }
                    }
                });
            }
            start.wait();
            for _ in 0..3 {
                fed.write().advance_epoch().unwrap();
                fed.write().advance_epoch().unwrap();
                fed.write().expire_stale(1);
            }
            stop.store(true, Ordering::Release);
        });
        let view = fed.read();
        for p in 0..PEERS {
            let (peer, _) = joins.join(p);
            if let Some(region) = view.region_of_peer(peer) {
                // `neighbors_of` reads the peer's path from its claimed
                // region; k = 0 keeps the check to that lookup.
                assert!(
                    view.neighbors_of(peer, 0).is_ok(),
                    "round {round}: {peer:?} claimed by {region:?} but not live there"
                );
            }
        }
    }
}
