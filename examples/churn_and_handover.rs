//! Churn and mobility (paper future-work W3): faulty peers leave stale
//! records behind; handover re-registration restores locality after a move.
//!
//! Run with: `cargo run --example churn_and_handover`

use nearpeer::core::{ManagementServer, PeerId, PeerPath, ServerConfig};
use nearpeer::probe::{TraceConfig, Tracer};
use nearpeer::routing::landmarks::{place_landmarks, PlacementPolicy};
use nearpeer::routing::{hop_distance, RouteOracle};
use nearpeer::topology::generators::{mapper, MapperConfig};
use nearpeer::workloads::{ArrivalProcess, ChurnConfig, ChurnEventKind, ChurnTrace};
use std::collections::{HashMap, HashSet};

fn main() {
    let seed = 11u64;
    let topo = mapper(&MapperConfig::with_access(150, 400), seed).expect("valid");
    let landmarks = place_landmarks(&topo, 3, PlacementPolicy::DegreeMedium, seed);
    let oracle = RouteOracle::new(&topo);
    let tracer = Tracer::new(&oracle, TraceConfig::default());
    let access = topo.access_routers();

    let trace_path = |attach, salt: u64| -> PeerPath {
        let lm = landmarks
            .iter()
            .filter_map(|&lm| oracle.rtt_us(attach, lm).map(|rtt| (rtt, lm)))
            .min()
            .map(|(_, lm)| lm)
            .expect("connected");
        let t = tracer.trace(attach, lm, salt).expect("connected");
        PeerPath::new(t.router_path()).expect("clean")
    };

    // --- Part 1: churn with silent failures. ---
    println!("=== churn: graceful leaves vs silent failures ===");
    let churn = ChurnTrace::generate(
        &ChurnConfig {
            peers: 150,
            arrivals: ArrivalProcess::Poisson { rate_per_sec: 20.0 },
            mean_lifetime_secs: Some(15.0),
            failure_fraction: 0.5,
        },
        seed,
    );
    let mut server = ManagementServer::new(
        landmarks.clone(),
        oracle.landmark_hops(&landmarks),
        ServerConfig::default(),
    )
    .expect("the landmarks build a server");
    let mut dead: HashSet<PeerId> = HashSet::new();
    let mut stale_answers = 0usize;
    let mut joins_with_neighbors = 0usize;
    for ev in &churn.events {
        let peer = PeerId(ev.peer as u64);
        match ev.kind {
            ChurnEventKind::Join => {
                let attach = access[(ev.peer * 11) % access.len()];
                let out = server
                    .register(peer, trace_path(attach, ev.peer as u64))
                    .expect("unique id per trace");
                if !out.neighbors.is_empty() {
                    joins_with_neighbors += 1;
                    if out.neighbors.iter().any(|n| dead.contains(&n.peer)) {
                        stale_answers += 1;
                    }
                }
            }
            ChurnEventKind::Leave => {
                let _ = server.deregister(peer);
            }
            ChurnEventKind::Fail => {
                dead.insert(peer); // the server never hears about this
            }
        }
    }
    println!(
        "{} join answers; {} contained at least one silently-dead neighbor \
         ({:.0}%)",
        joins_with_neighbors,
        stale_answers,
        stale_answers as f64 / joins_with_neighbors.max(1) as f64 * 100.0
    );
    println!(
        "peak population {}; server still holds {} records (stale entries from \
         {} failures)\n",
        churn.peak_population(),
        server.peer_count(),
        dead.len()
    );

    // --- Part 2: mobility handover. ---
    println!("=== mobility: handover restores locality ===");
    let mut server = ManagementServer::new(
        landmarks.clone(),
        oracle.landmark_hops(&landmarks),
        ServerConfig::default(),
    )
    .expect("the landmarks build a server");
    let mut attach: HashMap<PeerId, _> = HashMap::new();
    for i in 0..100u64 {
        let router = access[(i as usize * 3) % access.len()];
        server
            .register(PeerId(i), trace_path(router, i))
            .expect("fresh");
        attach.insert(PeerId(i), router);
    }
    // Peer 0 moves across the network.
    let mover = PeerId(0);
    let new_home = access[access.len() - 1];
    let old_neighbors = server.neighbors_of(mover, 5).expect("registered");
    let old_cost: u32 = old_neighbors
        .iter()
        .map(|n| hop_distance(&topo, new_home, attach[&n.peer]).unwrap())
        .sum();
    let out = server
        .handover(mover, trace_path(new_home, 999))
        .expect("registered");
    attach.insert(mover, new_home);
    let new_cost: u32 = out
        .neighbors
        .iter()
        .map(|n| hop_distance(&topo, new_home, attach[&n.peer]).unwrap())
        .sum();
    println!("peer0 moved to router {new_home}");
    println!("old neighbor set, seen from the new location: {old_cost} total hops");
    println!("fresh neighbor set after handover:            {new_cost} total hops");
    println!("server stats: {:?}", server.stats());
}
