//! Durable snapshots + incremental journal for the directory.
//!
//! The directory's in-memory structures were built to serialise naturally:
//! the [`super::LeaseArena`] is a slab of generational slots plus an
//! open-addressed table that can be rebuilt from the slots, the
//! [`super::PathStore`] is a dedup arena whose hash index is derivable,
//! and epoch expiry buckets are plain `(slot, generation)` lists. This
//! module streams all of them into a **versioned snapshot** (magic +
//! version header, one path-store section per landmark, one lease-table
//! section, trailing FNV-1a checksum) and an
//! **incremental journal** of batched churn ops appended between
//! snapshots ([`journal`]), written off the serving path by a bounded,
//! rate-limited background batch writer ([`writer`]).
//!
//! Recovery is fail-closed: a snapshot either verifies end-to-end
//! (checksum first, structural cross-checks during decode) and
//! reconstructs the *exact* pre-crash directory — conservation counters,
//! tombstones, adaptive-lease EWMA state, sweep statistics — or decoding
//! returns a typed [`PersistError`] and **no** partial directory. A
//! journal with a torn tail (the one legal kind of damage, since appends
//! can be cut mid-record by a crash) replays to the last intact record
//! and reports the truncation in [`RecoveryReport`].
//!
//! [`fault`] provides the fault-injection plans (torn tails, truncated
//! snapshots, flipped bytes, kill-between-batches) used by the soak
//! harness's fault matrix and the durability proptests.

pub mod fault;
pub mod journal;
pub(crate) mod wire;
pub mod writer;

use std::fmt;

pub(crate) use wire::Reader;

/// Snapshot file magic: "NPSN" (NearPeer SNapshot).
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"NPSN";
/// Current snapshot format version. Version 2 holds one lease table per
/// server (each live lease naming its landmark) where version 1 held one
/// per landmark.
pub const SNAPSHOT_VERSION: u16 = 2;
/// Journal file magic: "NPJL" (NearPeer JournaL).
pub const JOURNAL_MAGIC: [u8; 4] = *b"NPJL";
/// Current journal format version.
pub const JOURNAL_VERSION: u16 = 1;

/// Typed persistence failure. Every decode path fails closed with one of
/// these — a caller never observes a partially-restored directory.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PersistError {
    /// The byte stream ended before the structure it promised.
    Truncated,
    /// The snapshot/journal does not start with the expected magic.
    BadMagic([u8; 4]),
    /// The format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The trailing checksum does not match the stored bytes.
    ChecksumMismatch {
        /// Checksum recorded in the file trailer.
        stored: u64,
        /// Checksum recomputed over the preceding bytes.
        computed: u64,
    },
    /// A structural invariant failed while decoding (dangling path ref,
    /// non-power-of-two table, free-list entry pointing at a live slot, …).
    Corrupt(String),
    /// The snapshot uses a feature this build cannot read (unknown header
    /// flags).
    Unsupported(String),
    /// An underlying I/O operation failed (file media only).
    Io(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "byte stream truncated"),
            PersistError::BadMagic(m) => write!(f, "bad magic {m:?}"),
            PersistError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            PersistError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            PersistError::Corrupt(msg) => write!(f, "corrupt stream: {msg}"),
            PersistError::Unsupported(msg) => write!(f, "unsupported state: {msg}"),
            PersistError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e.to_string())
    }
}

/// What a [`crate::ManagementServer::recover`] call reconstructed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Size of the verified snapshot, bytes.
    pub snapshot_bytes: usize,
    /// Journal records replayed on top of the snapshot.
    pub journal_records: u64,
    /// Journal bytes consumed (up to the last intact record).
    pub journal_bytes: usize,
    /// True if the journal ended in a torn (incomplete or corrupt) tail
    /// that was discarded; recovery stopped at the last consistent point.
    pub journal_torn_tail: bool,
}

/// FNV-1a 64-bit over `bytes` — the snapshot trailer and per-record
/// journal checksum. Not cryptographic; it detects torn writes and bit
/// rot, which is the failure model here.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_stable_and_sensitive() {
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        let a = checksum(b"nearpeer");
        let mut flipped = b"nearpeer".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(a, checksum(&flipped));
        assert_eq!(a, checksum(b"nearpeer"));
    }

    #[test]
    fn errors_display_without_panicking() {
        let cases = [
            PersistError::Truncated,
            PersistError::BadMagic(*b"XXXX"),
            PersistError::UnsupportedVersion(9),
            PersistError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            },
            PersistError::Corrupt("dangling ref".into()),
            PersistError::Unsupported("super peers".into()),
            PersistError::Io("disk gone".into()),
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }
}
