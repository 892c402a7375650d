//! Figure 1 — the paper's drawing, reproduced executable.
//!
//! Builds the exact topology of the paper's example (landmark `lmk`, core
//! triangle `ra–rb–rc`, small routers `r1..r8`, peers `p1..p4`), runs the
//! two-round protocol and shows the situation the paper describes:
//! `dtree(p1,p2)` (6 hops through `rc`) is *not* the shortest path
//! (4 hops through `r8`), yet the server still identifies `p2` as `p1`'s
//! closest peer — most pairs verify `d = dtree`.
//!
//! Run with: `cargo run --example figure1`

use nearpeer::core::{ManagementServer, PeerId, PeerPath, ServerConfig};
use nearpeer::probe::{TraceConfig, Tracer};
use nearpeer::routing::{hop_distance, RouteOracle};
use nearpeer::topology::presets::figure1;

fn main() {
    let fig = figure1();
    let topo = &fig.topology;
    println!(
        "Figure 1 topology: {} routers, {} links",
        topo.n_routers(),
        topo.n_links()
    );
    println!("landmark: {}", topo.label(fig.landmark).unwrap());

    let oracle = RouteOracle::new(topo);
    let tracer = Tracer::new(&oracle, TraceConfig::default());
    let mut server = ManagementServer::new(
        vec![fig.landmark],
        oracle.landmark_hops(&[fig.landmark]),
        ServerConfig::default(),
    )
    .expect("one landmark builds a server");

    // Round 1 + 2 for each peer of the drawing.
    for (i, &peer_router) in fig.peers.iter().enumerate() {
        let trace = tracer
            .trace(peer_router, fig.landmark, i as u64)
            .expect("figure is connected");
        let named: Vec<&str> = trace
            .router_path()
            .iter()
            .map(|r| topo.label(*r).unwrap_or("?"))
            .collect();
        println!("\np{} traceroute to lmk: {}", i + 1, named.join(" -> "));
        let path = PeerPath::new(trace.router_path()).expect("clean trace");
        let outcome = server
            .register(PeerId(i as u64 + 1), path)
            .expect("fresh peer id");
        for n in &outcome.neighbors {
            println!("  server says: p{} at dtree {}", n.peer.0, n.dtree);
        }
    }

    // The discrepancy the figure is about.
    let [p1, p2, p3, _p4] = fig.peers;
    let d_true = hop_distance(topo, p1, p2).unwrap();
    let dtree = server.index().dtree(PeerId(1), PeerId(2)).unwrap();
    println!("\np1-p2: true shortest path d = {d_true} hops (via the r8 shortcut)");
    println!("p1-p2: inferred dtree = {dtree} hops (via the branch point rc)");
    assert!(dtree > d_true, "the figure's discrepancy must appear");

    // And the common case where the inference is exact.
    let d13 = hop_distance(topo, p1, p3).unwrap();
    let t13 = server.index().dtree(PeerId(1), PeerId(3)).unwrap();
    println!("p1-p3: true d = {d13} hops, dtree = {t13} hops (exact)");

    // Despite the stretch on (p1, p2), ranking survives: p2 is still p1's
    // closest peer.
    let srv = server;
    let best = srv.neighbors_of(PeerId(1), 1).unwrap();
    println!(
        "\nserver's closest peer for p1: p{} (expected p2)",
        best[0].peer.0
    );
    assert_eq!(best[0].peer, PeerId(2));
    println!("figure reproduced: inference imperfect on one pair, ranking correct.");
}
