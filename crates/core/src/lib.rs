//! The paper's contribution: landmark path trees and the management server.
//!
//! This crate implements §2 of *A Quicker Way to Discover Nearby Peers*
//! (Simon, Chen, Boudani, Straub — CoNEXT 2007) as a reusable library:
//!
//! * [`PeerPath`] — the router path a newcomer discovers with its
//!   traceroute-like tool (round 1 of the protocol), and [`PathView`],
//!   the same path borrowed from wherever the server stores it;
//! * [`RouterIndex`] — the paper's data structure: a hash table keyed by
//!   router whose entries are ordered lists of peers, giving `O(d·log n)`
//!   insertion (`d` = path length, bounded by the topology diameter — the
//!   paper's "`O(log n)`, the cost of inserting a new element in an ordered
//!   list") and queries that never touch more than the answer (`O(1)` in
//!   `n` — "accessing a data in a hash table");
//! * [`PathTree`] — the per-landmark trie view used for analytics, branch
//!   points (`dtree`) and super-peer regions, built on demand from the
//!   stored paths ([`ManagementServer::tree`]);
//! * [`ManagementServer`] — round 2: registry, neighbor selection, churn
//!   removal and mobility handover — one router index and one lease table
//!   over the [`directory`];
//! * [`SuperPeerDirectory`] — the W2 study's super-peer promotion policy,
//!   standalone: the server never consults it;
//! * [`directory`] — the scalability layer: the server's lease table
//!   ([`LeaseArena`]), its arena-interned paths (one [`PathStore`] per
//!   landmark), the adaptive EWMA and the snapshot/journal format;
//! * [`federation`] — the multi-region layer above the server: one
//!   [`ManagementServer`] per landmark partition behind a routing front
//!   door ([`Federation`]) with bridge-matrix query fan-out and
//!   cross-region handover leaving forwarding tombstones;
//! * [`runtime`] — the concurrent serving plane: [`Shared`], the server
//!   or the federation behind one lock, read and written on the caller's
//!   thread, one guard per burst of wire requests, and the
//!   [`WireService`] trait the `nearpeerd` TCP server drives; a
//!   federation's client queries fan out as codec frames;
//! * [`subscription`] — standing "watch my `k` nearest" queries: churn
//!   entry points push [`subscription::NeighborDelta`]s computed
//!   incrementally from the touched subtrees, through bounded
//!   priority-ordered per-client delivery queues with rate limiting and
//!   coalescing;
//! * [`policy`] — the selection baselines the evaluation compares against:
//!   random (the paper's baseline), brute-force closest (`Dclosest`),
//!   Vivaldi-distance and landmark-binning;
//! * [`landmarks`] — placement policies for the W1 study (the paper places
//!   landmarks at "medium-size degree" routers);
//! * [`protocol`] / [`codec`] — the join protocol messages and their
//!   length-prefixed wire format (`bytes`-based, property-tested);
//! * [`actors`] — adapters running the protocol inside `nearpeer-sim` for
//!   the end-to-end setup-delay experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actors;
pub mod codec;
pub mod directory;
mod error;
pub mod federation;
mod ids;
pub mod landmarks;
mod path;
mod path_tree;
pub mod policy;
pub mod protocol;
mod router_index;
pub mod runtime;
mod server;
pub mod subscription;
mod superpeer;
pub mod telemetry;

pub use directory::persist::fault::FaultPlan;
pub use directory::persist::journal::{JournalOp, JournalReader};
pub use directory::persist::writer::{
    DurabilityWriter, DurableBytes, DurableMedium, FileMedium, MemoryMedium, WriterConfig,
    WriterStats,
};
pub use directory::persist::{PersistError, RecoveryReport};
pub use directory::{AdaptiveLeaseConfig, LeaseArena, PathRef, PathStore, PeerSlot, SweepStats};
pub use error::CoreError;
pub use federation::{
    FederatedJoin, Federation, FederationConfig, FederationStats, FederationSweep, Region, RegionId,
};
pub use ids::{LandmarkId, PeerId};
pub use path::{PathView, PeerPath};
pub use path_tree::PathTree;
pub use router_index::{Neighbor, RouterIndex};
pub use runtime::{Outbound, Plane, Shared, WireService};
pub use server::{
    BatchOutcome, DirectoryView, ExpirySweep, JoinOutcome, ManagementServer, ServerConfig,
};
pub use subscription::{
    DeltaClass, NeighborDelta, Subscription, SubscriptionHost, SubscriptionRegistry,
    SubscriptionStats,
};
pub use superpeer::{SuperPeerConfig, SuperPeerDirectory};
pub use telemetry::{
    Counter, Gauge, Histogram, HistogramSnapshot, SlowQueryLog, SlowQueryRecord, TelemetryRegistry,
    TelemetrySnapshot, TimerGuard,
};
