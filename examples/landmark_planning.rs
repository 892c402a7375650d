//! Landmark planning (paper future-work W1): how the number and placement
//! of landmarks change discovery quality — a compact interactive version of
//! the `landmark_policies` experiment.
//!
//! Run with: `cargo run --example landmark_planning -- [--peers N] [--seed S]`

use nearpeer::core::{ManagementServer, PeerId, PeerPath, ServerConfig};
use nearpeer::probe::{TraceConfig, Tracer};
use nearpeer::routing::landmarks::{place_landmarks, PlacementPolicy};
use nearpeer::routing::{bfs_distances, RouteOracle};
use nearpeer::topology::generators::{mapper, MapperConfig};
use std::collections::HashMap;

fn main() {
    let mut peers = 150usize;
    let mut seed = 42u64;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--peers" => peers = iter.next().and_then(|v| v.parse().ok()).unwrap_or(150),
            "--seed" => seed = iter.next().and_then(|v| v.parse().ok()).unwrap_or(42),
            other => {
                eprintln!("unknown flag {other} (usage: --peers N --seed S)");
                std::process::exit(2);
            }
        }
    }

    let topo = mapper(&MapperConfig::with_access(250, peers * 2), seed).expect("valid");
    let oracle = RouteOracle::new(&topo);
    let tracer = Tracer::new(&oracle, TraceConfig::default());
    let access = topo.access_routers();
    let k = 5usize;

    println!(
        "map: {} routers / {} links; {} peers; k = {k}\n",
        topo.n_routers(),
        topo.n_links(),
        peers
    );
    println!(
        "{:<16} {:>10} {:>14} {:>14}",
        "placement", "landmarks", "D/Dclosest", "mean probes"
    );

    for policy in PlacementPolicy::all() {
        for n_landmarks in [2usize, 4, 8] {
            let landmarks = place_landmarks(&topo, n_landmarks, policy, seed);
            let mut server = ManagementServer::new(
                landmarks.clone(),
                oracle.landmark_hops(&landmarks),
                ServerConfig {
                    neighbor_count: k,
                    ..ServerConfig::default()
                },
            )
            .expect("the landmarks build a server");
            let mut attach: HashMap<PeerId, _> = HashMap::new();
            let mut probe_total = 0u64;
            for i in 0..peers {
                let router = access[(i * 7) % access.len()];
                let lm = landmarks
                    .iter()
                    .filter_map(|&lm| oracle.rtt_us(router, lm).map(|rtt| (rtt, lm)))
                    .min()
                    .map(|(_, lm)| lm)
                    .expect("connected");
                let trace = tracer
                    .trace(router, lm, seed ^ i as u64)
                    .expect("connected");
                probe_total += trace.probes_sent as u64;
                let path = PeerPath::new(trace.router_path()).expect("clean");
                server.register(PeerId(i as u64), path).expect("fresh");
                attach.insert(PeerId(i as u64), router);
            }

            // Quality: D / Dclosest summed over all peers.
            let mut sum_d = 0u64;
            let mut sum_best = 0u64;
            for i in 0..peers {
                let peer = PeerId(i as u64);
                let dist = bfs_distances(&topo, attach[&peer]);
                let neigh = server.neighbors_of(peer, k).expect("registered");
                sum_d += neigh
                    .iter()
                    .map(|n| dist[attach[&n.peer].index()] as u64)
                    .sum::<u64>();
                let mut all: Vec<u64> = attach
                    .iter()
                    .filter(|&(&p, _)| p != peer)
                    .map(|(_, &r)| dist[r.index()] as u64)
                    .collect();
                all.sort_unstable();
                sum_best += all.iter().take(k).sum::<u64>();
            }
            println!(
                "{:<16} {:>10} {:>14.3} {:>14.1}",
                policy.name(),
                n_landmarks,
                sum_d as f64 / sum_best.max(1) as f64,
                probe_total as f64 / peers as f64
            );
        }
    }
    println!(
        "\nLower D/Dclosest is better; the paper's choice (degree-medium) should \
         compete with betweenness placement at a fraction of its cost."
    );
}
