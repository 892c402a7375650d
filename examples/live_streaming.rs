//! Live streaming with proximity neighbors — the paper's motivating
//! application, with smoltcp-style fault-injection knobs.
//!
//! Builds a swarm on a synthetic Internet, wires a mesh overlay from the
//! management server's neighbor lists, streams chunks through the
//! discrete-event simulator and prints per-peer setup delays.
//!
//! Run with:
//! `cargo run --example live_streaming -- [--drop-chance PCT] [--jitter-ms MS] [--peers N]`

use nearpeer::core::{ManagementServer, PeerId, PeerPath, ServerConfig};
use nearpeer::overlay::{OverlayMsg, SourceActor, StreamPeer, StreamStats};
use nearpeer::probe::{TraceConfig, Tracer};
use nearpeer::routing::landmarks::{place_landmarks, PlacementPolicy};
use nearpeer::routing::RouteOracle;
use nearpeer::sim::links::{Faulty, TopologyLinks};
use nearpeer::sim::{NodeId, SimTime, Simulator};
use nearpeer::topology::generators::{mapper, MapperConfig};
use std::cell::RefCell;
use std::rc::Rc;

struct Args {
    drop_chance: f64,
    jitter_us: u64,
    peers: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        drop_chance: 0.0,
        jitter_us: 0,
        peers: 30,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut next = |what: &str| {
            iter.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value ({what})");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--drop-chance" => {
                args.drop_chance = next("percent").parse::<f64>().unwrap_or(0.0) / 100.0
            }
            "--jitter-ms" => args.jitter_us = next("ms").parse::<u64>().unwrap_or(0) * 1_000,
            "--peers" => args.peers = next("count").parse().unwrap_or(30),
            other => {
                eprintln!("unknown flag {other}");
                eprintln!("usage: --drop-chance PCT --jitter-ms MS --peers N");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    const CHUNK_INTERVAL_US: u64 = 20_000; // 50 chunks/s
    const CHUNKS: u64 = 100;
    const K: usize = 4;

    // Substrate + discovery.
    let topo = mapper(&MapperConfig::with_access(150, args.peers * 2), 7).expect("valid");
    let landmarks = place_landmarks(&topo, 3, PlacementPolicy::DegreeMedium, 7);
    let oracle = RouteOracle::new(&topo);
    let tracer = Tracer::new(&oracle, TraceConfig::default());
    let mut server = ManagementServer::new(
        landmarks.clone(),
        oracle.landmark_hops(&landmarks),
        ServerConfig {
            neighbor_count: K,
            ..ServerConfig::default()
        },
    )
    .expect("the landmarks build a server");
    let access = topo.access_routers();
    let mut attach = Vec::new();
    for i in 0..args.peers {
        let router = access[(i * 13) % access.len()];
        let lm = landmarks
            .iter()
            .filter_map(|&lm| oracle.rtt_us(router, lm).map(|rtt| (rtt, lm)))
            .min()
            .map(|(_, lm)| lm)
            .expect("connected");
        let trace = tracer.trace(router, lm, i as u64).expect("connected");
        let path = PeerPath::new(trace.router_path()).expect("clean");
        server.register(PeerId(i as u64), path).expect("fresh id");
        attach.push(router);
    }

    // Mesh from the server's proximity answers (symmetrised) + a random
    // long link per peer for connectivity.
    let mut mesh: Vec<Vec<usize>> = vec![Vec::new(); args.peers];
    for i in 0..args.peers {
        for n in server
            .neighbors_of(PeerId(i as u64), K)
            .expect("registered")
        {
            let j = n.peer.0 as usize;
            if !mesh[i].contains(&j) {
                mesh[i].push(j);
            }
            if !mesh[j].contains(&i) {
                mesh[j].push(i);
            }
        }
        let j = (i * 17 + 5) % args.peers;
        if j != i && !mesh[i].contains(&j) {
            mesh[i].push(j);
            mesh[j].push(i);
        }
    }

    // Streaming session over topology latencies with fault injection.
    let mut links = TopologyLinks::new(&topo);
    links.attach(NodeId(0), landmarks[0]); // the source sits at a landmark
    for (i, &router) in attach.iter().enumerate() {
        links.attach(NodeId(i as u32 + 1), router);
    }
    let faulty = Faulty::new(links, args.drop_chance, args.jitter_us);
    let mut sim: Simulator<OverlayMsg, _> = Simulator::new(faulty, 7);

    let feed: Vec<NodeId> = (1..=K.min(args.peers)).map(|i| NodeId(i as u32)).collect();
    sim.add_actor(Box::new(SourceActor::new(feed, CHUNK_INTERVAL_US, CHUNKS)));
    let mut handles: Vec<Rc<RefCell<StreamStats>>> = Vec::new();
    for list in mesh.iter() {
        let stats = Rc::new(RefCell::new(StreamStats::default()));
        let mut neighbors: Vec<NodeId> = list.iter().map(|&j| NodeId(j as u32 + 1)).collect();
        if handles.len() < K {
            neighbors.push(NodeId(0));
        }
        sim.add_actor(Box::new(StreamPeer::new(
            neighbors,
            64,
            CHUNK_INTERVAL_US,
            3,
            CHUNKS,
            stats.clone(),
        )));
        handles.push(stats);
    }

    sim.run_until(SimTime(CHUNKS * CHUNK_INTERVAL_US * 4));

    println!(
        "streamed {CHUNKS} chunks to {} peers (drop {:.0}%, jitter {} ms)",
        args.peers,
        args.drop_chance * 100.0,
        args.jitter_us / 1_000
    );
    println!("sim: {:?}\n", sim.stats());
    let mut started = 0;
    let mut delay_sum = 0.0;
    let mut continuity_sum = 0.0;
    for (i, h) in handles.iter().enumerate() {
        let s = h.borrow();
        match s.setup_delay_us() {
            Some(d) => {
                started += 1;
                delay_sum += d as f64 / 1000.0;
                continuity_sum += s.continuity();
                if i < 5 {
                    println!(
                        "peer{i}: setup {:.1} ms, {} chunks, continuity {:.2}",
                        d as f64 / 1000.0,
                        s.chunks_received,
                        s.continuity()
                    );
                }
            }
            None => println!("peer{i}: never started playback"),
        }
    }
    if started > 0 {
        println!(
            "\n{}/{} peers playing; mean setup delay {:.1} ms, mean continuity {:.2}",
            started,
            args.peers,
            delay_sum / started as f64,
            continuity_sum / started as f64
        );
    }
}
