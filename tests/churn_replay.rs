//! Integration test: a workload churn trace replayed through the
//! simulator with the full wire protocol — peers join via traceroute +
//! JoinRequest, leave gracefully via Leave, and the server's view tracks
//! the trace's population.

mod support;

use nearpeer::core::protocol::Message;
use nearpeer::core::{ManagementServer, PeerId, PeerPath, ServerConfig};
use nearpeer::probe::{TraceConfig, Tracer};
use nearpeer::routing::landmarks::{place_landmarks, PlacementPolicy};
use nearpeer::routing::RouteOracle;
use nearpeer::sim::links::Fixed;
use nearpeer::sim::{SimTime, Simulator};
use nearpeer::topology::generators::{mapper, MapperConfig};
use nearpeer::workloads::{ArrivalProcess, ChurnConfig, ChurnEventKind, ChurnTrace};
use std::cell::RefCell;
use std::rc::Rc;
use support::{JoinRecord, LandmarkActor, PeerActor, ServerActor};

#[test]
fn churn_trace_replay_through_the_wire() {
    let seed = 145u64;
    let topo = mapper(&MapperConfig::tiny(), seed).unwrap();
    let landmarks = place_landmarks(&topo, 2, PlacementPolicy::DegreeMedium, seed);
    let oracle = RouteOracle::new(&topo);
    let tracer = Tracer::new(&oracle, TraceConfig::default());
    let access = topo.access_routers();

    let server = Rc::new(RefCell::new(
        ManagementServer::new(
            landmarks.clone(),
            oracle.landmark_hops(&landmarks),
            ServerConfig::default(),
        )
        .unwrap(),
    ));

    // A short churn trace: everyone joins, some leave gracefully, some
    // fail silently.
    let trace = ChurnTrace::generate(
        &ChurnConfig {
            peers: 25,
            arrivals: ArrivalProcess::Uniform {
                interval_us: 50_000,
            },
            mean_lifetime_secs: Some(2.0),
            failure_fraction: 0.4,
        },
        seed,
    );

    let mut sim: Simulator<Message, Fixed> = Simulator::new(Fixed(2_000), seed);
    let srv = sim.add_actor(Box::new(ServerActor::new(server.clone())));
    let lm_nodes = vec![
        sim.add_actor(Box::new(LandmarkActor)),
        sim.add_actor(Box::new(LandmarkActor)),
    ];

    let mut records = Vec::new();
    let mut peer_nodes = Vec::new();
    let mut graceful_leaves = 0u64;
    let mut silent_failures = 0u64;
    for ev in &trace.events {
        match ev.kind {
            ChurnEventKind::Join => {
                let attach = access[(ev.peer * 5) % access.len()];
                let traces: Vec<Option<(PeerPath, u64)>> = landmarks
                    .iter()
                    .map(|&lm| {
                        tracer
                            .trace(attach, lm, ev.peer as u64)
                            .map(|t| (PeerPath::new(t.router_path()).unwrap(), t.elapsed_us))
                    })
                    .collect();
                let record = Rc::new(RefCell::new(JoinRecord::default()));
                let node = sim.spawn_at(
                    SimTime(ev.time_us),
                    Box::new(PeerActor::new(
                        PeerId(ev.peer as u64),
                        srv,
                        lm_nodes.clone(),
                        traces,
                        100_000,
                        record.clone(),
                    )),
                );
                records.push((ev.peer, record));
                peer_nodes.push((ev.peer, node));
            }
            ChurnEventKind::Leave => {
                // Graceful: the peer tells the server, then dies.
                graceful_leaves += 1;
                sim.inject_at(
                    SimTime(ev.time_us),
                    srv,
                    srv,
                    Message::Leave {
                        peer: PeerId(ev.peer as u64),
                    },
                );
                if let Some(&(_, node)) = peer_nodes.iter().find(|&&(p, _)| p == ev.peer) {
                    sim.kill_at(SimTime(ev.time_us), node);
                }
            }
            ChurnEventKind::Fail => {
                // Silent: the node dies without telling anyone.
                silent_failures += 1;
                if let Some(&(_, node)) = peer_nodes.iter().find(|&&(p, _)| p == ev.peer) {
                    sim.kill_at(SimTime(ev.time_us), node);
                }
            }
        }
    }

    sim.run_to_completion();

    // Every peer joined before departing. Uniform arrivals are spaced well
    // beyond the join latency, and the seed above is chosen so that every
    // sampled exponential lifetime also exceeds it (a join takes probe RTT
    // plus the full traceroute cost, ~100ms on this topology; mean session
    // length is 2s, so a few percent of lifetimes per peer would otherwise
    // undercut it).
    let joined = records
        .iter()
        .filter(|(_, r)| r.borrow().joined_at.is_some())
        .count();
    assert_eq!(joined, 25, "all peers completed their join");

    // The server's residual population is exactly the silent failures:
    // graceful leavers deregistered, failed peers linger as stale records.
    let report = server.borrow().report();
    assert_eq!(graceful_leaves + silent_failures, 25);
    assert_eq!(
        report.peers as u64, silent_failures,
        "server population must equal the silent failures: {report}"
    );
    assert_eq!(report.stats.joins, 25);
    assert_eq!(report.stats.leaves, graceful_leaves);

    // The soft-state lease cleans the stale records up.
    {
        let mut srv = server.borrow_mut();
        for _ in 0..3 {
            srv.advance_epoch().unwrap();
        }
        let expired = srv.expire_stale(2);
        assert_eq!(expired.len() as u64, silent_failures);
        assert_eq!(srv.peer_count(), 0);
    }
}

// --- Lease-expiry edge regressions (the `last_seen` bucketing off-by-one
// family): epoch 0 must be a universal no-op, and a lease renewed in the
// same epoch it was opened must live exactly as long as an unrenewed one —
// the duplicate heartbeat must neither expire it early nor double-report
// it.

use nearpeer::core::LandmarkId;
use nearpeer::topology::RouterId;

fn lease_server() -> ManagementServer {
    ManagementServer::new(
        vec![RouterId(0), RouterId(100)],
        vec![vec![0, 5], vec![5, 0]],
        ServerConfig::default(),
    )
    .unwrap()
}

fn lease_path(ids: &[u32]) -> PeerPath {
    PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
}

#[test]
fn expiry_at_epoch_zero_is_a_noop_for_any_max_age() {
    let mut srv = lease_server();
    srv.register(PeerId(1), lease_path(&[4, 2, 1, 0])).unwrap();
    srv.register(PeerId(2), lease_path(&[110, 105, 100]))
        .unwrap();
    assert_eq!(srv.epoch(), 0);
    for max_age in [0u64, 1, 2, u64::MAX] {
        assert!(
            srv.expire_stale(max_age).is_empty(),
            "epoch 0 expiry with max_age {max_age} must expire nobody"
        );
    }
    assert_eq!(srv.peer_count(), 2);
}

#[test]
fn lease_renewed_in_its_opening_epoch_expires_on_schedule() {
    let mut srv = lease_server();
    srv.register(PeerId(1), lease_path(&[4, 2, 1, 0])).unwrap();
    srv.register(PeerId(2), lease_path(&[5, 2, 1, 0])).unwrap();
    // Peer 1 heartbeats in the very epoch its lease was opened — the
    // same-epoch renewal must be a no-op, not a second bucket entry that
    // an early sweep trips over or a later sweep reports twice.
    srv.heartbeat(PeerId(1)).unwrap();
    srv.heartbeat(PeerId(1)).unwrap();
    let max_age = 3u64;
    // Ages 1..=max_age: both leases are inside the window.
    for _ in 0..max_age {
        srv.advance_epoch().unwrap();
        assert!(
            srv.expire_stale(max_age).is_empty(),
            "epoch {}: lease age <= max_age must survive",
            srv.epoch()
        );
    }
    // One epoch past the window both expire together — the renewed lease
    // neither earlier nor later than the untouched one, and exactly once.
    srv.advance_epoch().unwrap();
    assert_eq!(srv.expire_stale(max_age), vec![PeerId(1), PeerId(2)]);
    assert!(srv.expire_stale(max_age).is_empty(), "no double expiry");
    assert_eq!(srv.peer_count(), 0);
}

#[test]
fn renewal_in_the_expiry_epoch_survives_the_sweep() {
    let mut srv = lease_server();
    srv.register(PeerId(1), lease_path(&[4, 2, 1, 0])).unwrap();
    for _ in 0..4 {
        srv.advance_epoch().unwrap();
    }
    // The heartbeat lands in the same epoch the sweep runs: the renewed
    // lease must survive even though its *original* bucket note sits
    // below the cutoff.
    srv.heartbeat(PeerId(1)).unwrap();
    assert!(srv.expire_stale(2).is_empty());
    assert_eq!(srv.peer_count(), 1);
    // And it still expires once the renewed epoch itself lapses.
    for _ in 0..3 {
        srv.advance_epoch().unwrap();
    }
    assert_eq!(srv.expire_stale(2), vec![PeerId(1)]);
}

#[test]
fn expired_slot_reuse_does_not_resurrect_the_departed_peer() {
    let mut srv = lease_server();
    srv.register(PeerId(7), lease_path(&[4, 2, 1, 0])).unwrap();
    for _ in 0..5 {
        srv.advance_epoch().unwrap();
    }
    assert_eq!(srv.expire_stale(2), vec![PeerId(7)]);
    // A different peer reuses the freed lease slot; the departed id must
    // stay gone and the newcomer must be fully queryable.
    srv.register(PeerId(8), lease_path(&[4, 2, 1, 0])).unwrap();
    assert_eq!(srv.landmark_of(PeerId(7)), None);
    assert!(srv.path_of(PeerId(7)).is_none());
    assert_eq!(srv.landmark_of(PeerId(8)), Some(LandmarkId(0)));
    // The returning peer 7 is a fresh join, not a renewal of the dead
    // lease: its lease starts at the *current* epoch.
    srv.register(PeerId(7), lease_path(&[5, 2, 1, 0])).unwrap();
    assert_eq!(srv.last_seen(PeerId(7)), Some(srv.epoch()));
}
