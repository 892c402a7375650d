//! The incremental journal: batched churn ops appended between snapshots.
//!
//! Layout: a 6-byte header (magic `NPJL` + `u16` version), then records.
//! Each record is `u32 payload_len | u64 fnv1a(payload) | payload`, where
//! the payload is one encoded [`JournalOp`]. Appends are the only write
//! operation, so the only damage a crash can inflict is a **torn tail**:
//! the final record cut short or half-written. [`JournalReader`] therefore
//! stops at the first record that is incomplete or fails its checksum and
//! reports it as a torn tail — everything before it is the last consistent
//! point. A wrong magic or version, by contrast, fails closed: that is not
//! crash damage, it is the wrong file.

use super::wire::{put_path, put_u16, put_u32, put_u64, Reader};
use super::{checksum, PersistError, JOURNAL_MAGIC, JOURNAL_VERSION};
use crate::ids::PeerId;
use crate::path::PeerPath;

/// One durable churn operation, mirroring the [`crate::ManagementServer`]
/// write API. Replaying the recorded stream through
/// [`crate::ManagementServer::apply_journal_op`] is deterministic: the
/// same ops in the same order rebuild the same directory.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JournalOp {
    /// `register_batch`: fresh joins + renewals in one batch.
    RegisterBatch(Vec<(PeerId, PeerPath)>),
    /// `renew_batch`: heartbeat renewals.
    RenewBatch(Vec<PeerId>),
    /// `leave_batch`: voluntary departures.
    LeaveBatch(Vec<PeerId>),
    /// Same-server `handover` to a new path.
    Handover {
        /// The moving peer.
        peer: PeerId,
        /// Its path after the move.
        path: PeerPath,
    },
    /// Cross-region departure leaving a forwarding tombstone.
    DeregisterForwarding {
        /// The departing peer.
        peer: PeerId,
        /// Destination region recorded in the tombstone.
        to_region: u32,
    },
    /// Single-peer `deregister`.
    Deregister(PeerId),
    /// `advance_epoch` (the logical clock tick).
    AdvanceEpoch,
    /// `expire_stale_full(max_age)` sweep.
    ExpireStale {
        /// Lease age limit the sweep ran with.
        max_age: u64,
    },
}

const OP_REGISTER_BATCH: u8 = 1;
const OP_RENEW_BATCH: u8 = 2;
const OP_LEAVE_BATCH: u8 = 3;
const OP_HANDOVER: u8 = 4;
const OP_DEREGISTER_FORWARDING: u8 = 5;
const OP_DEREGISTER: u8 = 6;
const OP_ADVANCE_EPOCH: u8 = 7;
const OP_EXPIRE_STALE: u8 = 8;

impl JournalOp {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            JournalOp::RegisterBatch(items) => {
                out.push(OP_REGISTER_BATCH);
                put_u64(out, items.len() as u64);
                for (peer, path) in items {
                    put_u64(out, peer.0);
                    put_path(out, path.view());
                }
            }
            JournalOp::RenewBatch(peers) => {
                out.push(OP_RENEW_BATCH);
                put_u64(out, peers.len() as u64);
                for p in peers {
                    put_u64(out, p.0);
                }
            }
            JournalOp::LeaveBatch(peers) => {
                out.push(OP_LEAVE_BATCH);
                put_u64(out, peers.len() as u64);
                for p in peers {
                    put_u64(out, p.0);
                }
            }
            JournalOp::Handover { peer, path } => {
                out.push(OP_HANDOVER);
                put_u64(out, peer.0);
                put_path(out, path.view());
            }
            JournalOp::DeregisterForwarding { peer, to_region } => {
                out.push(OP_DEREGISTER_FORWARDING);
                put_u64(out, peer.0);
                put_u32(out, *to_region);
            }
            JournalOp::Deregister(peer) => {
                out.push(OP_DEREGISTER);
                put_u64(out, peer.0);
            }
            JournalOp::AdvanceEpoch => out.push(OP_ADVANCE_EPOCH),
            JournalOp::ExpireStale { max_age } => {
                out.push(OP_EXPIRE_STALE);
                put_u64(out, *max_age);
            }
        }
    }

    fn decode_payload(bytes: &[u8]) -> Result<JournalOp, PersistError> {
        let mut r = Reader::new(bytes);
        let op = match r.u8()? {
            OP_REGISTER_BATCH => {
                let n = r.len_prefix(8)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let peer = PeerId(r.u64()?);
                    items.push((peer, r.path()?));
                }
                JournalOp::RegisterBatch(items)
            }
            OP_RENEW_BATCH => {
                let n = r.len_prefix(8)?;
                let mut peers = Vec::with_capacity(n);
                for _ in 0..n {
                    peers.push(PeerId(r.u64()?));
                }
                JournalOp::RenewBatch(peers)
            }
            OP_LEAVE_BATCH => {
                let n = r.len_prefix(8)?;
                let mut peers = Vec::with_capacity(n);
                for _ in 0..n {
                    peers.push(PeerId(r.u64()?));
                }
                JournalOp::LeaveBatch(peers)
            }
            OP_HANDOVER => JournalOp::Handover {
                peer: PeerId(r.u64()?),
                path: r.path()?,
            },
            OP_DEREGISTER_FORWARDING => JournalOp::DeregisterForwarding {
                peer: PeerId(r.u64()?),
                to_region: r.u32()?,
            },
            OP_DEREGISTER => JournalOp::Deregister(PeerId(r.u64()?)),
            OP_ADVANCE_EPOCH => JournalOp::AdvanceEpoch,
            OP_EXPIRE_STALE => JournalOp::ExpireStale { max_age: r.u64()? },
            k => {
                return Err(PersistError::Corrupt(format!(
                    "unknown journal op kind {k}"
                )))
            }
        };
        if r.remaining() != 0 {
            return Err(PersistError::Corrupt(
                "trailing bytes after journal op".into(),
            ));
        }
        Ok(op)
    }
}

/// Writes the 6-byte journal header (magic + version) into `out`.
pub fn journal_header(out: &mut Vec<u8>) {
    out.extend_from_slice(&JOURNAL_MAGIC);
    put_u16(out, JOURNAL_VERSION);
}

/// Appends one op as a checksummed record. If `out` is empty the journal
/// header is written first, so a fresh buffer becomes a valid journal.
pub fn append_op(out: &mut Vec<u8>, op: &JournalOp) {
    if out.is_empty() {
        journal_header(out);
    }
    append_record(out, op);
}

/// Appends one record without the header check — for callers that manage
/// the header themselves (the background writer tracks the medium's
/// journal length across batches).
pub(crate) fn append_record(out: &mut Vec<u8>, op: &JournalOp) {
    let mut payload = Vec::new();
    op.encode_payload(&mut payload);
    put_u32(out, payload.len() as u32);
    put_u64(out, checksum(&payload));
    out.extend_from_slice(&payload);
}

/// Streaming reader over journal bytes; stops at the first torn record.
pub struct JournalReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    torn: bool,
    records: u64,
}

impl<'a> JournalReader<'a> {
    /// Validates the header. An empty slice is a valid empty journal; a
    /// strict prefix of the header is a torn tail at offset zero (the
    /// crash hit before the header finished); anything else with wrong
    /// magic or version fails closed.
    pub fn new(bytes: &'a [u8]) -> Result<Self, PersistError> {
        if bytes.is_empty() {
            return Ok(JournalReader {
                bytes,
                pos: 0,
                torn: false,
                records: 0,
            });
        }
        let mut header = Vec::with_capacity(6);
        journal_header(&mut header);
        if bytes.len() < header.len() {
            if header.starts_with(bytes) {
                return Ok(JournalReader {
                    bytes,
                    pos: 0,
                    torn: true,
                    records: 0,
                });
            }
            return Err(PersistError::BadMagic([
                *bytes.first().unwrap_or(&0),
                *bytes.get(1).unwrap_or(&0),
                *bytes.get(2).unwrap_or(&0),
                *bytes.get(3).unwrap_or(&0),
            ]));
        }
        if bytes[..4] != JOURNAL_MAGIC {
            return Err(PersistError::BadMagic(bytes[..4].try_into().unwrap()));
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if version != JOURNAL_VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        Ok(JournalReader {
            bytes,
            pos: 6,
            torn: false,
            records: 0,
        })
    }

    /// Next intact op, or `None` at the end of the journal (clean end or
    /// torn tail — check [`JournalReader::torn_tail`]).
    pub fn next_op(&mut self) -> Option<JournalOp> {
        if self.torn {
            return None;
        }
        let remaining = self.bytes.len() - self.pos;
        if remaining == 0 {
            return None;
        }
        if remaining < 12 {
            self.torn = true;
            return None;
        }
        let len =
            u32::from_le_bytes(self.bytes[self.pos..self.pos + 4].try_into().unwrap()) as usize;
        let stored =
            u64::from_le_bytes(self.bytes[self.pos + 4..self.pos + 12].try_into().unwrap());
        if remaining - 12 < len {
            self.torn = true;
            return None;
        }
        let payload = &self.bytes[self.pos + 12..self.pos + 12 + len];
        if checksum(payload) != stored {
            self.torn = true;
            return None;
        }
        match JournalOp::decode_payload(payload) {
            Ok(op) => {
                self.pos += 12 + len;
                self.records += 1;
                Some(op)
            }
            // A checksummed-but-undecodable payload means the writer and
            // reader disagree; treat as damage at this point and stop.
            Err(_) => {
                self.torn = true;
                None
            }
        }
    }

    /// Bytes consumed up to (not including) the first torn record.
    pub fn bytes_consumed(&self) -> usize {
        self.pos
    }

    /// Intact records read so far.
    pub fn records_read(&self) -> u64 {
        self.records
    }

    /// True once the reader hit a torn (incomplete or corrupt) tail.
    pub fn torn_tail(&self) -> bool {
        self.torn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpeer_topology::RouterId;

    fn path(routers: &[u32]) -> PeerPath {
        PeerPath::new(routers.iter().map(|&r| RouterId(r)).collect()).unwrap()
    }

    fn sample_ops() -> Vec<JournalOp> {
        vec![
            JournalOp::RegisterBatch(vec![
                (PeerId(1), path(&[9, 4, 0])),
                (PeerId(2), path(&[7, 0])),
            ]),
            JournalOp::RenewBatch(vec![PeerId(1), PeerId(2)]),
            JournalOp::AdvanceEpoch,
            JournalOp::Handover {
                peer: PeerId(1),
                path: path(&[8, 0]),
            },
            JournalOp::DeregisterForwarding {
                peer: PeerId(2),
                to_region: 3,
            },
            JournalOp::LeaveBatch(vec![PeerId(1)]),
            JournalOp::Deregister(PeerId(7)),
            JournalOp::ExpireStale { max_age: 16 },
        ]
    }

    #[test]
    fn ops_roundtrip_through_the_journal() {
        let ops = sample_ops();
        let mut buf = Vec::new();
        for op in &ops {
            append_op(&mut buf, op);
        }
        let mut reader = JournalReader::new(&buf).unwrap();
        let mut got = Vec::new();
        while let Some(op) = reader.next_op() {
            got.push(op);
        }
        assert_eq!(got, ops);
        assert!(!reader.torn_tail());
        assert_eq!(reader.bytes_consumed(), buf.len());
        assert_eq!(reader.records_read(), ops.len() as u64);
    }

    #[test]
    fn empty_journal_is_valid_and_yields_nothing() {
        let mut reader = JournalReader::new(&[]).unwrap();
        assert!(reader.next_op().is_none());
        assert!(!reader.torn_tail());
    }

    #[test]
    fn torn_tail_stops_at_last_intact_record() {
        let ops = sample_ops();
        let mut buf = Vec::new();
        for op in &ops {
            append_op(&mut buf, op);
        }
        let intact = buf.len();
        // Begin one more record, then cut it mid-payload.
        append_op(&mut buf, &JournalOp::RenewBatch(vec![PeerId(42)]));
        buf.truncate(intact + 14);
        let mut reader = JournalReader::new(&buf).unwrap();
        let mut got = 0;
        while reader.next_op().is_some() {
            got += 1;
        }
        assert_eq!(got, ops.len());
        assert!(reader.torn_tail());
        assert_eq!(reader.bytes_consumed(), intact);
    }

    #[test]
    fn corrupt_record_byte_is_a_torn_tail_there() {
        let ops = sample_ops();
        let mut buf = Vec::new();
        for op in &ops {
            append_op(&mut buf, op);
        }
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        let mut reader = JournalReader::new(&buf).unwrap();
        let mut got = 0;
        while reader.next_op().is_some() {
            got += 1;
        }
        assert!(got < ops.len());
        assert!(reader.torn_tail());
    }

    #[test]
    fn wrong_magic_fails_closed() {
        let mut buf = Vec::new();
        append_op(&mut buf, &JournalOp::AdvanceEpoch);
        buf[0] = b'X';
        assert!(matches!(
            JournalReader::new(&buf),
            Err(PersistError::BadMagic(_))
        ));
    }

    #[test]
    fn newer_version_fails_closed() {
        let mut buf = Vec::new();
        append_op(&mut buf, &JournalOp::AdvanceEpoch);
        buf[4] = 0xFF;
        assert!(matches!(
            JournalReader::new(&buf),
            Err(PersistError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn header_prefix_is_a_torn_tail_not_bad_magic() {
        let mut reader = JournalReader::new(b"NPJ").unwrap();
        assert!(reader.next_op().is_none());
        assert!(reader.torn_tail());
        assert_eq!(reader.bytes_consumed(), 0);
    }
}
