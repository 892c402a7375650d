//! Integration test: a full swarm on a synthetic Internet, exercising the
//! public API across every crate — discovery quality, the wire protocol
//! through the simulator, and churn operations.

mod support;

use nearpeer::core::protocol::Message;
use nearpeer::core::{ManagementServer, PeerId, PeerPath, ServerConfig};
use nearpeer::probe::{TraceConfig, Tracer};
use nearpeer::routing::landmarks::{place_landmarks, PlacementPolicy};
use nearpeer::routing::{bfs_distances, RouteOracle};
use nearpeer::sim::links::TopologyLinks;
use nearpeer::sim::{NodeId, Simulator};
use nearpeer::topology::generators::{mapper, MapperConfig};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use support::{JoinRecord, LandmarkActor, PeerActor, ServerActor};

const SEED: u64 = 20_07;

#[test]
fn path_tree_selection_beats_random_on_an_internet_like_map() {
    let topo = mapper(&MapperConfig::with_access(200, 300), SEED).unwrap();
    let landmarks = place_landmarks(&topo, 4, PlacementPolicy::DegreeMedium, SEED);
    let oracle = RouteOracle::new(&topo);
    let tracer = Tracer::new(&oracle, TraceConfig::default());
    let mut server = ManagementServer::new(
        landmarks.clone(),
        oracle.landmark_hops(&landmarks),
        ServerConfig::default(),
    )
    .unwrap();

    let access = topo.access_routers();
    let n = 150usize;
    let k = 5usize;
    let mut attach = HashMap::new();
    for i in 0..n {
        let router = access[(i * 7) % access.len()];
        let lm = landmarks
            .iter()
            .filter_map(|&lm| oracle.rtt_us(router, lm).map(|rtt| (rtt, lm)))
            .min()
            .map(|(_, lm)| lm)
            .unwrap();
        let trace = tracer.trace(router, lm, i as u64).unwrap();
        let path = PeerPath::new(trace.router_path()).unwrap();
        server.register(PeerId(i as u64), path).unwrap();
        attach.insert(PeerId(i as u64), router);
    }

    // Aggregate D over all peers for path-tree and random selection.
    let mut sum_d = 0u64;
    let mut sum_rand = 0u64;
    let mut sum_best = 0u64;
    for i in 0..n {
        let peer = PeerId(i as u64);
        let dist = bfs_distances(&topo, attach[&peer]);
        let cost = |p: PeerId| dist[attach[&p].index()] as u64;

        let neigh = server.neighbors_of(peer, k).unwrap();
        assert_eq!(neigh.len(), k, "{peer} got a short list");
        sum_d += neigh.iter().map(|nb| cost(nb.peer)).sum::<u64>();

        // Deterministic pseudo-random baseline.
        sum_rand += (0..k)
            .map(|j| cost(PeerId(((i * 31 + j * 17 + 1) % n) as u64)))
            .sum::<u64>();

        let mut all: Vec<u64> = (0..n)
            .filter(|&j| j != i)
            .map(|j| cost(PeerId(j as u64)))
            .collect();
        all.sort_unstable();
        sum_best += all.iter().take(k).sum::<u64>();
    }
    let d_ratio = sum_d as f64 / sum_best as f64;
    let rand_ratio = sum_rand as f64 / sum_best as f64;
    assert!(d_ratio >= 1.0);
    assert!(
        d_ratio < rand_ratio * 0.85,
        "path-tree ({d_ratio:.3}) must clearly beat random ({rand_ratio:.3})"
    );
}

#[test]
fn wire_protocol_joins_through_the_simulator() {
    let topo = mapper(&MapperConfig::tiny(), SEED).unwrap();
    let landmarks = place_landmarks(&topo, 2, PlacementPolicy::DegreeMedium, SEED);
    let oracle = RouteOracle::new(&topo);
    let tracer = Tracer::new(&oracle, TraceConfig::default());
    let server = Rc::new(RefCell::new(
        ManagementServer::new(
            landmarks.clone(),
            oracle.landmark_hops(&landmarks),
            ServerConfig::default(),
        )
        .unwrap(),
    ));

    // Server and landmarks attach to real routers; peers behind access
    // routers. Messages travel with topology latencies.
    let mut links = TopologyLinks::new(&topo);
    let access = topo.access_routers();
    links.attach(NodeId(0), landmarks[0]);
    links.attach(NodeId(1), landmarks[0]);
    links.attach(NodeId(2), landmarks[1]);
    let mut sim: Simulator<Message, _> = {
        for (i, &router) in access.iter().take(10).enumerate() {
            links.attach(NodeId(3 + i as u32), router);
        }
        Simulator::new(links, SEED)
    };
    let srv = sim.add_actor(Box::new(ServerActor::new(server.clone())));
    let lm_nodes = vec![
        sim.add_actor(Box::new(LandmarkActor)),
        sim.add_actor(Box::new(LandmarkActor)),
    ];

    let mut records = Vec::new();
    for (i, &router) in access.iter().take(10).enumerate() {
        let traces: Vec<Option<(PeerPath, u64)>> = landmarks
            .iter()
            .map(|&lm| {
                tracer
                    .trace(router, lm, i as u64)
                    .map(|t| (PeerPath::new(t.router_path()).unwrap(), t.elapsed_us))
            })
            .collect();
        let record = Rc::new(RefCell::new(JoinRecord::default()));
        sim.add_actor(Box::new(PeerActor::new(
            PeerId(i as u64),
            srv,
            lm_nodes.clone(),
            traces,
            200_000,
            record.clone(),
        )));
        records.push(record);
    }
    sim.run_to_completion();

    assert_eq!(server.borrow().peer_count(), 10);
    for (i, rec) in records.iter().enumerate() {
        let rec = rec.borrow();
        assert!(!rec.refused, "peer {i} refused");
        assert!(rec.joined_at.is_some(), "peer {i} never joined");
        assert!(rec.setup_delay_us().unwrap() > 0);
    }
    // Joins race through the simulator, so registration order follows
    // simulated latencies, not peer index: assert on join *time* instead.
    // Whoever joined last must see a well-populated system, and most peers
    // must have found someone.
    let last = records
        .iter()
        .max_by_key(|r| r.borrow().joined_at)
        .expect("ten records");
    assert!(
        last.borrow().neighbors.len() >= 3,
        "last joiner saw only {:?}",
        last.borrow().neighbors
    );
    let with_neighbors = records
        .iter()
        .filter(|r| !r.borrow().neighbors.is_empty())
        .count();
    assert!(
        with_neighbors >= 7,
        "only {with_neighbors}/10 got neighbors"
    );
}

#[test]
fn churn_deregistration_keeps_answers_clean() {
    let topo = mapper(&MapperConfig::tiny(), SEED).unwrap();
    let landmarks = place_landmarks(&topo, 2, PlacementPolicy::DegreeMedium, SEED);
    let oracle = RouteOracle::new(&topo);
    let tracer = Tracer::new(&oracle, TraceConfig::default());
    let mut server = ManagementServer::new(
        landmarks.clone(),
        oracle.landmark_hops(&landmarks),
        ServerConfig::default(),
    )
    .unwrap();
    let access = topo.access_routers();

    let mk_path = |router, salt: u64| {
        let lm = landmarks
            .iter()
            .filter_map(|&lm| oracle.rtt_us(router, lm).map(|rtt| (rtt, lm)))
            .min()
            .map(|(_, lm)| lm)
            .unwrap();
        PeerPath::new(tracer.trace(router, lm, salt).unwrap().router_path()).unwrap()
    };

    for i in 0..30u64 {
        let router = access[(i as usize * 3) % access.len()];
        server.register(PeerId(i), mk_path(router, i)).unwrap();
    }
    // Half the peers leave gracefully.
    for i in (0..30u64).filter(|i| i % 2 == 0) {
        server.deregister(PeerId(i)).unwrap();
    }
    assert_eq!(server.peer_count(), 15);
    // Every answer only contains live peers.
    for i in (1..30u64).filter(|i| i % 2 == 1) {
        for nb in server.neighbors_of(PeerId(i), 5).unwrap() {
            assert!(nb.peer.0 % 2 == 1, "dead peer {} served", nb.peer);
        }
    }
}

/// The simulator actors of `support` on their own.
mod actors {
    use super::support::{JoinRecord, LandmarkActor, PeerActor, ServerActor};
    use nearpeer::core::protocol::Message;
    use nearpeer::core::{ManagementServer, PeerId, PeerPath, ServerConfig};
    use nearpeer::sim::links::Fixed;
    use nearpeer::sim::{SimTime, Simulator};
    use nearpeer::topology::RouterId;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    fn shared_server() -> Rc<RefCell<ManagementServer>> {
        Rc::new(RefCell::new(
            ManagementServer::new(
                vec![RouterId(0), RouterId(100)],
                vec![vec![0, 4], vec![4, 0]],
                ServerConfig::default(),
            )
            .unwrap(),
        ))
    }

    #[test]
    fn full_join_sequence() {
        let server = shared_server();
        let mut sim: Simulator<Message, Fixed> = Simulator::new(Fixed(1_000), 1);
        let srv = sim.add_actor(Box::new(ServerActor::new(server.clone())));
        let lm0 = sim.add_actor(Box::new(LandmarkActor));
        let lm1 = sim.add_actor(Box::new(LandmarkActor));

        let rec = Rc::new(RefCell::new(JoinRecord::default()));
        let peer = PeerActor::new(
            PeerId(1),
            srv,
            vec![lm0, lm1],
            vec![
                Some((path(&[9, 4, 0]), 5_000)),
                Some((path(&[9, 104, 100]), 7_000)),
            ],
            50_000,
            rec.clone(),
        );
        sim.add_actor(Box::new(peer));
        sim.run_to_completion();

        let rec = rec.borrow();
        assert!(!rec.refused);
        assert_eq!(rec.pongs, 2);
        // Both landmarks have equal RTT under Fixed links; argmin picks 0.
        assert_eq!(rec.chosen_landmark, Some(0));
        // Timeline: pings out at 0, pongs at 2ms, trace 5ms -> 7ms, join
        // request lands at 8ms, reply at 9ms.
        assert_eq!(rec.joined_at, Some(SimTime(9_000)));
        assert_eq!(rec.setup_delay_us(), Some(9_000));
        assert!(rec.neighbors.is_empty(), "first peer has no neighbors");
        assert_eq!(server.borrow().peer_count(), 1);
    }

    #[test]
    fn second_peer_receives_the_first_as_neighbor() {
        let server = shared_server();
        let mut sim: Simulator<Message, Fixed> = Simulator::new(Fixed(500), 1);
        let srv = sim.add_actor(Box::new(ServerActor::new(server.clone())));
        let lm0 = sim.add_actor(Box::new(LandmarkActor));

        let rec1 = Rc::new(RefCell::new(JoinRecord::default()));
        sim.add_actor(Box::new(PeerActor::new(
            PeerId(1),
            srv,
            vec![lm0],
            vec![Some((path(&[9, 4, 0]), 1_000))],
            10_000,
            rec1.clone(),
        )));
        sim.run_to_completion();

        let rec2 = Rc::new(RefCell::new(JoinRecord::default()));
        sim.add_actor(Box::new(PeerActor::new(
            PeerId(2),
            srv,
            vec![lm0],
            vec![Some((path(&[8, 4, 0]), 1_000))],
            10_000,
            rec2.clone(),
        )));
        sim.run_to_completion();

        let rec2 = rec2.borrow();
        assert_eq!(rec2.neighbors.len(), 1);
        assert_eq!(rec2.neighbors[0].peer, PeerId(1));
        assert_eq!(rec2.neighbors[0].dtree, 2); // meet at router 4: 1 + 1
    }

    #[test]
    fn probe_timeout_still_joins() {
        let server = shared_server();
        // Drop everything except... use a link that always drops probe
        // traffic by killing the landmark first.
        let mut sim: Simulator<Message, Fixed> = Simulator::new(Fixed(500), 1);
        let srv = sim.add_actor(Box::new(ServerActor::new(server.clone())));
        let lm0 = sim.add_actor(Box::new(LandmarkActor));
        sim.kill_at(SimTime::ZERO, lm0);

        let rec = Rc::new(RefCell::new(JoinRecord::default()));
        sim.add_actor(Box::new(PeerActor::new(
            PeerId(1),
            srv,
            vec![lm0],
            vec![Some((path(&[9, 4, 0]), 2_000))],
            5_000,
            rec.clone(),
        )));
        sim.run_to_completion();

        let rec = rec.borrow();
        assert_eq!(rec.pongs, 0);
        assert_eq!(rec.chosen_landmark, Some(0), "fallback landmark used");
        assert!(rec.joined_at.is_some(), "join completes after timeout");
        // Timeout 5ms + trace 2ms + request 0.5ms + reply 0.5ms = 8ms.
        assert_eq!(rec.setup_delay_us(), Some(8_000));
    }

    #[test]
    fn duplicate_join_refused_via_wire() {
        let server = shared_server();
        let mut sim: Simulator<Message, Fixed> = Simulator::new(Fixed(100), 1);
        let srv = sim.add_actor(Box::new(ServerActor::new(server.clone())));
        let lm0 = sim.add_actor(Box::new(LandmarkActor));
        for _ in 0..2 {
            let rec = Rc::new(RefCell::new(JoinRecord::default()));
            sim.add_actor(Box::new(PeerActor::new(
                PeerId(7), // same id twice
                srv,
                vec![lm0],
                vec![Some((path(&[9, 4, 0]), 1_000))],
                10_000,
                rec.clone(),
            )));
            sim.run_to_completion();
            if server.borrow().peer_count() == 1 && rec.borrow().refused {
                return; // second round: refusal observed
            }
        }
        assert_eq!(server.borrow().peer_count(), 1);
    }

    #[test]
    fn leave_message_deregisters() {
        let server = shared_server();
        let mut sim: Simulator<Message, Fixed> = Simulator::new(Fixed(100), 1);
        let srv = sim.add_actor(Box::new(ServerActor::new(server.clone())));
        server
            .borrow_mut()
            .register(PeerId(5), path(&[9, 4, 0]))
            .unwrap();
        sim.inject_at(SimTime(10), srv, srv, Message::Leave { peer: PeerId(5) });
        sim.run_to_completion();
        assert_eq!(server.borrow().peer_count(), 0);
    }
}
