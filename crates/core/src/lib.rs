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
//! * [`PathTree`] — the per-landmark trie view used for analytics and
//!   branch points (`dtree`), built on demand from the stored paths
//!   ([`ManagementServer::tree`]);
//! * [`ManagementServer`] — round 2: registry, neighbor selection, churn
//!   removal and mobility handover — one router index and one lease table
//!   over the [`directory`]. It is built from the landmark routers and
//!   their pairwise hop distances, and never sees a topology;
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
//! * [`protocol`] / [`codec`] — the join protocol messages and their
//!   length-prefixed wire format (`bytes`-based, property-tested).
//!
//! The crate depends on `nearpeer-topology` for the [`RouterId`] newtype
//! alone. Landmark placement and the landmark distance matrix
//! (`RouteOracle::landmark_hops`) live in `nearpeer-routing`.
//!
//! [`RouterId`]: nearpeer_topology::RouterId

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod directory;
mod error;
pub mod federation;
mod ids;
mod path;
mod path_tree;
pub mod protocol;
mod router_index;
pub mod runtime;
mod server;
pub mod subscription;
pub mod telemetry;

pub use directory::persist::fault::FaultPlan;
pub use directory::persist::journal::{JournalOp, JournalReader};
pub use directory::persist::writer::{
    DurabilityWriter, DurableBytes, DurableMedium, FileMedium, MemoryMedium, WriterConfig,
    WriterStats,
};
pub use directory::persist::{PersistError, RecoveryReport};
pub use directory::{AdaptiveLeaseConfig, LeaseArena, PathRef, PathStore, SweepStats};
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
pub use telemetry::{
    Counter, Gauge, Histogram, HistogramSnapshot, SlowQueryLog, SlowQueryRecord, TelemetryRegistry,
    TelemetrySnapshot, TimerGuard,
};
