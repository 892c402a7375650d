//! Quickstart: the two-round discovery protocol on a synthetic Internet.
//!
//! Builds a nem-like router map, places landmarks, joins a handful of
//! peers through traceroute + management server, and shows that the
//! inferred neighbors really are the nearby ones.
//!
//! Run with: `cargo run --example quickstart`

use nearpeer::core::{ManagementServer, PeerId, PeerPath, ServerConfig};
use nearpeer::probe::{TraceConfig, Tracer};
use nearpeer::routing::landmarks::{place_landmarks, PlacementPolicy};
use nearpeer::routing::{hop_distance, RouteOracle};
use nearpeer::topology::generators::{mapper, MapperConfig};

fn main() {
    // 1. A router-level Internet: heavy-tailed core + degree-1 access
    //    routers (where peers live).
    let topo = mapper(&MapperConfig::with_access(150, 200), 2007).expect("valid config");
    println!(
        "topology: {} routers, {} links, {} access routers",
        topo.n_routers(),
        topo.n_links(),
        topo.access_routers().len()
    );

    // 2. A few landmarks at medium-degree routers + the management server.
    let landmarks = place_landmarks(&topo, 3, PlacementPolicy::DegreeMedium, 2007);
    println!("landmarks at routers: {landmarks:?}");
    let mut server = ManagementServer::new(
        landmarks.clone(),
        RouteOracle::with_destinations(&topo, &landmarks).landmark_hops(&landmarks),
        ServerConfig::default(),
    )
    .expect("one landmark builds a server");

    // 3. Twenty peers join: each traceroutes to its closest landmark and
    //    registers the discovered path.
    let oracle = RouteOracle::new(&topo);
    let tracer = Tracer::new(&oracle, TraceConfig::default());
    let access = topo.access_routers();
    let mut attachments = Vec::new();
    for i in 0..20u64 {
        let attach = access[(i as usize * 7) % access.len()];
        let closest = landmarks
            .iter()
            .filter_map(|&lm| oracle.rtt_us(attach, lm).map(|rtt| (rtt, lm)))
            .min()
            .map(|(_, lm)| lm)
            .expect("connected map");
        let trace = tracer.trace(attach, closest, i).expect("connected map");
        let path = PeerPath::new(trace.router_path()).expect("clean trace");
        let outcome = server.register(PeerId(i), path).expect("fresh id");
        if i >= 17 {
            println!(
                "\npeer{i} joined via {} probes ({:.1} ms of probing):",
                trace.probes_sent,
                trace.elapsed_us as f64 / 1000.0
            );
            for n in &outcome.neighbors {
                let d_true = hop_distance(&topo, attach, attachments[n.peer.0 as usize]).unwrap();
                println!(
                    "  neighbor {}: inferred dtree = {} hops, true distance = {d_true} hops",
                    n.peer, n.dtree
                );
            }
        }
        attachments.push(attach);
    }

    println!(
        "\nserver state: {} peers registered, stats: {:?}",
        server.peer_count(),
        server.stats()
    );
}
