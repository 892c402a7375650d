//! The directory state behind the management server.
//!
//! The paper's round-2 server is logically one big table: a hash of
//! routers to ordered peer lists. The [`crate::ManagementServer`] keeps
//! exactly one such router index, so a query probes each router of its
//! path once, and one lease table for every peer it serves: a
//! slab-backed [`LeaseArena`] (generational slots, one open-addressed
//! peer→slot table, epoch-bucketed expiry, so million-peer churn neither
//! fragments the heap nor pays a full-table scan per expiry sweep). A live
//! lease names the peer's landmark and its path, interned once in that
//! landmark's [`PathStore`]; the adaptive session EWMA sizes the leases.
//! The landmark's [`crate::PathTree`] is a view built on demand from the
//! stored paths.
//!
//! [`crate::runtime::Shared`] puts the whole server behind one
//! `RwLock` and writes it from the calling thread. Parallel writes, if
//! ever wanted, partition by region (a [`crate::Federation`]), not by
//! landmark.

mod adaptive;
mod lease_arena;
mod path_store;
pub mod persist;
pub(crate) mod query;

pub use adaptive::AdaptiveLeaseConfig;
pub(crate) use adaptive::AdaptiveLeases;
pub(crate) use lease_arena::slot_size as lease_slot_size;
pub use lease_arena::{ExpiredLease, LeaseArena, SweepOutcome, SweepStats};
pub use path_store::{PathRef, PathStore};
