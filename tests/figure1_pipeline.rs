//! Integration test: the paper's Figure 1, end to end across crates
//! (topology preset → route oracle → traceroute → management server).

use nearpeer::core::{ManagementServer, PeerId, PeerPath, ServerConfig};
use nearpeer::probe::{TraceConfig, Tracer};
use nearpeer::routing::{hop_distance, RouteOracle};
use nearpeer::topology::presets::figure1;

fn joined_server() -> (nearpeer::topology::presets::Figure1, ManagementServer) {
    let fig = figure1();
    let oracle = RouteOracle::new(&fig.topology);
    let tracer = Tracer::new(&oracle, TraceConfig::default());
    let mut server = ManagementServer::new(
        vec![fig.landmark],
        oracle.landmark_hops(&[fig.landmark]),
        ServerConfig::default(),
    )
    .unwrap();
    for (i, &router) in fig.peers.iter().enumerate() {
        let trace = tracer
            .trace(router, fig.landmark, i as u64)
            .expect("figure is connected");
        assert!(trace.destination_reached);
        let path = PeerPath::new(trace.router_path()).expect("clean trace");
        server
            .register(PeerId(i as u64 + 1), path)
            .expect("unique peer ids");
    }
    (fig, server)
}

#[test]
fn traceroutes_recover_the_drawn_routes() {
    let fig = figure1();
    let oracle = RouteOracle::new(&fig.topology);
    let tracer = Tracer::new(&oracle, TraceConfig::default());
    let trace = tracer.trace(fig.peers[0], fig.landmark, 0).unwrap();
    let labels: Vec<&str> = trace
        .router_path()
        .iter()
        .map(|r| fig.topology.label(*r).unwrap())
        .collect();
    assert_eq!(labels, vec!["p1", "r2", "r1", "rc", "ra", "lmk"]);
}

#[test]
fn dtree_discrepancy_matches_the_paper() {
    let (fig, server) = joined_server();
    // dtree(p1,p2) = 6 through the branch point rc...
    assert_eq!(server.index().dtree(PeerId(1), PeerId(2)), Some(6));
    // ...but the true shortest path uses the r8 shortcut: 4 hops.
    assert_eq!(
        hop_distance(&fig.topology, fig.peers[0], fig.peers[1]),
        Some(4)
    );
    // Most other pairs verify d = dtree (the paper's expectation).
    let pairs = [
        (1u64, 3u64, 2usize),
        (1, 4, 3),
        (2, 3, 2),
        (2, 4, 3),
        (3, 4, 2),
    ];
    let mut exact = 0;
    for &(a, b, _) in &pairs {
        let dtree = server.index().dtree(PeerId(a), PeerId(b)).unwrap();
        let d = hop_distance(
            &fig.topology,
            fig.peers[a as usize - 1],
            fig.peers[b as usize - 1],
        )
        .unwrap();
        if dtree == d {
            exact += 1;
        }
    }
    assert!(
        exact >= 4,
        "only {exact}/5 remaining pairs verify d = dtree"
    );
}

#[test]
fn server_ranks_p2_closest_to_p1_despite_the_stretch() {
    let (_fig, server) = joined_server();
    let best = server.neighbors_of(PeerId(1), 3).unwrap();
    assert_eq!(best[0].peer, PeerId(2), "p2 must rank first for p1");
    // And p1 first for p2, symmetrically.
    let best2 = server.neighbors_of(PeerId(2), 3).unwrap();
    assert_eq!(best2[0].peer, PeerId(1));
}

#[test]
fn landmark_tree_structure_matches_the_figure() {
    let (fig, server) = joined_server();
    let tree = server.tree(nearpeer::core::LandmarkId(0)).unwrap();
    assert_eq!(tree.root(), fig.landmark);
    assert_eq!(tree.n_peers(), 4);
    // The branch point of p1 and p2 is rc.
    let (meet, hops) = tree.branch_point(PeerId(1), PeerId(2)).unwrap();
    assert_eq!(fig.topology.label(meet), Some("rc"));
    assert_eq!(hops, 6);
    // ra carries every peer (it is the landmark's gateway).
    let ra = fig.core[0];
    assert_eq!(tree.subtree_population(ra), Some(4));
}
