//! The sharded directory behind the management server.
//!
//! The paper's round-2 server is logically one big table; serving heavy
//! traffic means splitting it along the axis the data already has:
//! **the landmark**. Every stored path terminates at exactly one landmark
//! router, so peers partition cleanly into per-landmark
//! [`DirectoryShard`]s — each owning its slice of the router index and
//! its peers' soft-state leases (the landmark's [`crate::PathTree`] is a
//! view built on demand from them), with paths interned once in an
//! arena-backed [`PathStore`] instead of cloned into every structure and
//! leases held
//! in a slab-backed [`LeaseArena`] (generational slots, one open-addressed
//! peer→slot table, epoch-bucketed expiry) so million-peer churn neither
//! fragments the heap nor pays a full-table scan per expiry sweep.
//!
//! The [`crate::ManagementServer`] facade keeps the original single-server
//! API on top: it routes writes to the owning shard, merges `&self` reads
//! across shards (one merge over all shards' cursors is lossless because
//! every peer's index entries live in exactly one shard), and keeps the only
//! genuinely cross-landmark state (bridge distances, aggregate counters)
//! to itself. Batched joins ([`crate::ManagementServer::register_batch`])
//! group newcomers by landmark; [`crate::runtime::ActorServer`] puts the whole facade behind
//! one `RwLock` and writes it from the calling thread.

mod adaptive;
mod lease_arena;
mod path_store;
pub mod persist;
pub mod query;
mod shard;

pub use adaptive::AdaptiveLeaseConfig;
pub use lease_arena::{ExpiredLease, LeaseArena, PeerSlot, SweepOutcome, SweepStats};
pub use path_store::{PathRef, PathStore};
pub use query::MergedPeersThrough;
pub use shard::{BatchOutcome, DirectoryShard, ShardSweep};
