//! Error type of the core crate.

use crate::ids::PeerId;
use std::fmt;

/// Errors surfaced by the management server and its data structures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// The peer is already registered (insertions must be preceded by
    /// deregistration or use handover).
    DuplicatePeer(PeerId),
    /// The peer is not registered.
    UnknownPeer(PeerId),
    /// A peer path failed validation (empty, or contains a routing loop).
    InvalidPath(String),
    /// The server has no landmark matching the path's terminal router.
    UnknownLandmark(String),
    /// A federation was configured inconsistently (no regions, more
    /// regions than landmarks, fan-out 0 over several regions, …).
    InvalidFederation(String),
    /// Wire-format decoding failed.
    Codec(crate::codec::CodecError),
    /// A server or federation configuration is degenerate (no landmark,
    /// zero neighbor count, adaptive `min_age > max_age`, …).
    InvalidConfig(String),
    /// Snapshot or journal persistence failed (corrupt bytes, bad
    /// checksum, unsupported version, I/O error).
    Persist(crate::directory::persist::PersistError),
    /// The addressed region is crashed/down; callers should fall back to
    /// fanout (reads) or retry after rejoin (writes).
    RegionUnavailable(u32),
    /// The heartbeat epoch cannot advance past this one: the lease table
    /// holds epochs as `u32`s.
    EpochWindow(u64),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DuplicatePeer(p) => write!(f, "{p} is already registered"),
            CoreError::UnknownPeer(p) => write!(f, "{p} is not registered"),
            CoreError::InvalidPath(msg) => write!(f, "invalid peer path: {msg}"),
            CoreError::UnknownLandmark(msg) => write!(f, "unknown landmark: {msg}"),
            CoreError::InvalidFederation(msg) => write!(f, "invalid federation: {msg}"),
            CoreError::Codec(e) => write!(f, "codec error: {e}"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            CoreError::Persist(e) => write!(f, "persistence error: {e}"),
            CoreError::RegionUnavailable(r) => write!(f, "region {r} is unavailable"),
            CoreError::EpochWindow(e) => {
                write!(
                    f,
                    "epoch {e} is the last the lease table's 32-bit offsets hold"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<crate::codec::CodecError> for CoreError {
    fn from(e: crate::codec::CodecError) -> Self {
        CoreError::Codec(e)
    }
}

impl From<crate::directory::persist::PersistError> for CoreError {
    fn from(e: crate::directory::persist::PersistError) -> Self {
        CoreError::Persist(e)
    }
}
