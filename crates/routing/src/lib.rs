//! Shortest-path machinery and the deterministic route oracle.
//!
//! Internet routing is destination-based and stable over the timescales of a
//! peer join, so the simulation models the route between two routers as the
//! path through a deterministic shortest-path tree rooted at the destination
//! (ties broken towards lower router ids, mirroring stable next-hop
//! selection). This gives the substitution for real `traceroute` output (see
//! DESIGN.md §3): the observable is the same — a fixed router sequence per
//! (source, destination) pair.
//!
//! * [`bfs_distances`] / [`hop_distance`] — unweighted metrics (the paper's
//!   evaluation metric `D` is a sum of hop distances);
//! * [`ShortestPathTree`] — hop- or latency-weighted trees with path
//!   extraction;
//! * [`RouteOracle`] — cached per-destination trees, full router paths and
//!   RTT estimates (used by the traceroute simulation and the coordinate
//!   baselines). The oracle is `Send + Sync`: an eager arena of trees for
//!   the destinations known up front (landmarks) plus a lock-striped,
//!   hard-capped lazy cache, so a whole swarm's round-1
//!   traceroutes run concurrently against one shared oracle with
//!   bit-identical results to a sequential run. [`OracleStats`] counts the
//!   trees actually built.
//! * [`RouteOracle::route_annotated`] + [`RouteHop`] — the route with a
//!   one-way latency prefix per hop, read off the destination tree alone:
//!   one tree prices every TTL of a traceroute.
//! * [`SptScratch`] + [`CsrGraph`] — reusable build buffers
//!   (generation-stamped, bump-reset between builds) and a CSR-packed
//!   adjacency view, so bulk tree construction stops paying per-build
//!   allocation churn. Both produce trees bit-identical to the plain
//!   [`shortest_path_tree`].
//! * [`RouteOracle::landmark_hops`] — the landmark-to-landmark hop matrix
//!   a management server is built with.
//! * [`landmarks`] — landmark placement policies for the W1 study (the
//!   paper places landmarks at "medium-size degree" routers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bfs;
pub mod landmarks;
mod oracle;
mod spt;

pub use bfs::{bfs_distances, bfs_distances_bounded, hop_distance, multi_source_bfs};
pub use oracle::{OracleStats, RouteOracle};
pub use spt::{
    shortest_path_tree, shortest_path_tree_with_scratch, CsrGraph, RouteHop, ShortestPathTree,
    SptMetric, SptScratch,
};
