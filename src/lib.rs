//! # nearpeer
//!
//! A full reproduction of *"A Quicker Way to Discover Nearby Peers"*
//! (Simon, Chen, Boudani, Straub — ACM CoNEXT 2007) as a production-style
//! Rust workspace: landmark path trees and a management server that lets a
//! P2P newcomer discover its closest peers from **one traceroute and one
//! server round trip**, plus every substrate the paper's evaluation needs
//! (router-level Internet topologies, deterministic routing and traceroute,
//! a discrete-event simulator, coordinate-system baselines and a
//! live-streaming mesh).
//!
//! This crate is the facade: it re-exports the workspace crates under one
//! namespace for applications that want a single dependency.
//!
//! ## Quick start
//!
//! ```
//! use nearpeer::core::{ManagementServer, PeerId, PeerPath, ServerConfig};
//! use nearpeer::probe::{TraceConfig, Tracer};
//! use nearpeer::routing::RouteOracle;
//! use nearpeer::topology::generators::{mapper, MapperConfig};
//! use nearpeer::topology::RouterId;
//!
//! // A synthetic router-level Internet with degree-1 access routers.
//! let topo = mapper(&MapperConfig::tiny(), 42).unwrap();
//! let oracle = RouteOracle::new(&topo);
//!
//! // A landmark on some medium-degree router, and a server built with the
//! // landmark-to-landmark hop distances (a one-landmark matrix here).
//! let landmark = nearpeer::routing::landmarks::place_landmarks(
//!     &topo, 1, nearpeer::routing::landmarks::PlacementPolicy::DegreeMedium, 42,
//! )[0];
//! let dist = oracle.landmark_hops(&[landmark]);
//! let mut server = ManagementServer::new(vec![landmark], dist, ServerConfig::default()).unwrap();
//!
//! // Round 1: a newcomer traceroutes towards the landmark…
//! let tracer = Tracer::new(&oracle, TraceConfig::default());
//! let me: RouterId = topo.access_routers()[0];
//! let trace = tracer.trace(me, landmark, 1).unwrap();
//! let path = PeerPath::new(trace.router_path()).unwrap();
//!
//! // …round 2: the server stores the path and answers the closest peers.
//! let outcome = server.register(PeerId(0), path).unwrap();
//! assert!(outcome.neighbors.is_empty()); // first peer has no neighbors yet
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-versus-measured record; the `nearpeer-bench` crate regenerates
//! every figure.

#![forbid(unsafe_code)]

pub use nearpeer_coord as coord;
pub use nearpeer_core as core;
pub use nearpeer_metrics as metrics;
pub use nearpeer_overlay as overlay;
pub use nearpeer_probe as probe;
pub use nearpeer_routing as routing;
pub use nearpeer_sim as sim;
pub use nearpeer_topology as topology;
pub use nearpeer_workloads as workloads;
