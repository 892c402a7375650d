//! Length-prefixed binary wire format for [`Message`].
//!
//! Frame layout (all integers big-endian):
//!
//! ```text
//! +---------+---------+--------+-------------------+
//! | u32 len | u8 ver  | u8 kind| payload (len-2 B) |
//! +---------+---------+--------+-------------------+
//! ```
//!
//! `len` counts everything after the length field. Decoding is strict:
//! unknown versions or kinds, truncated payloads and trailing garbage
//! inside a frame are typed errors, never panics — malformed input from the
//! network must not take the server down.
//!
//! Both directions work in place. [`encode`] reserves the frame's exact
//! size once, appends the header and payload straight onto `dst` and
//! patches the length field last, so encoding into a warmed buffer (a
//! connection's output queue) allocates nothing. [`decode`] reads the
//! payload through a cursor over the frame's bytes where they lie in the
//! read buffer and then advances past them: the only allocations are the
//! decoded message's own `Vec`s and `String`s (and [`PeerPath::new`]'s
//! loop check).

use crate::ids::PeerId;
use crate::path::PeerPath;
use crate::protocol::{Message, WireNeighbor};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use nearpeer_topology::RouterId;
use std::fmt;

/// Protocol version emitted by this implementation.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on a frame's `len` field — a peer path cannot plausibly
/// exceed this, so anything larger is treated as an attack or corruption.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Longest `StatsReply` text a frame carries: a full registry exposition
/// can exceed the u16 range long before it nears [`MAX_FRAME_LEN`], so its
/// length is a u32, clamped to what fits beside the header, nonce and
/// length field.
const MAX_STATS_TEXT: usize = MAX_FRAME_LEN as usize - (2 + 8 + 4);

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// Not enough bytes for a complete frame (wait for more input).
    Incomplete,
    /// The length field exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
    /// Unsupported protocol version.
    UnknownVersion(u8),
    /// Unsupported message kind.
    UnknownKind(u8),
    /// The payload was malformed (wrong length, invalid path, bad UTF-8).
    BadPayload(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Incomplete => write!(f, "incomplete frame"),
            CodecError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            CodecError::UnknownVersion(v) => write!(f, "unknown wire version {v}"),
            CodecError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            CodecError::BadPayload(msg) => write!(f, "bad payload: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bytes [`encode`] appends for `msg`, length field included. It only
/// sizes the reservation: the length field is patched from what was
/// actually written.
fn frame_len(msg: &Message) -> usize {
    let path = |p: &PeerPath| 2 + 4 * p.routers().len();
    let neighbors = |n: &[WireNeighbor]| 2 + 12 * n.len();
    let payload = match msg {
        Message::ProbePing { .. }
        | Message::ProbePong { .. }
        | Message::Leave { .. }
        | Message::Heartbeat { .. }
        | Message::Shutdown { .. }
        | Message::StatsRequest { .. } => 8,
        Message::JoinRequest { path: p, .. } | Message::HandoverRequest { path: p, .. } => {
            8 + path(p)
        }
        Message::JoinReply {
            neighbors: n,
            delegate,
            ..
        } => 8 + neighbors(n) + 1 + 8 * usize::from(delegate.is_some()),
        Message::JoinError { reason, .. } => 8 + 2 + reason.len().min(u16::MAX as usize),
        Message::QueryRequest {
            path: p, exclude, ..
        } => 8 + path(p) + 2 + 1 + 8 * usize::from(exclude.is_some()),
        Message::QueryReply { neighbors: n, .. } | Message::FillReply { items: n, .. } => {
            8 + neighbors(n)
        }
        Message::FillRequest { .. } => 8 + 4 + 2,
        Message::Subscribe { .. } => 8 + 8 + 2 + 4,
        Message::Unsubscribe { .. } => 8 + 8,
        Message::DeltaPush { added, removed, .. } => {
            8 + 8 + 1 + neighbors(added) + 2 + 8 * removed.len()
        }
        Message::SubAck { neighbors: n, .. } => 8 + 8 + neighbors(n),
        Message::StatsReply { text, .. } => 8 + 4 + text.len().min(MAX_STATS_TEXT),
    };
    4 + 2 + payload
}

/// Encodes a message as one frame appended to `dst`, in place: one
/// reservation of the frame's size, no intermediate buffer.
pub fn encode(msg: &Message, dst: &mut BytesMut) {
    dst.reserve(frame_len(msg));
    let start = dst.len();
    dst.put_u32(0); // the length, patched once the payload is in
    dst.put_u8(WIRE_VERSION);
    dst.put_u8(msg.kind());
    match msg {
        Message::ProbePing { nonce } => dst.put_u64(*nonce),
        Message::ProbePong { nonce } => dst.put_u64(*nonce),
        Message::JoinRequest { peer, path } => {
            dst.put_u64(peer.0);
            put_path(dst, path);
        }
        Message::JoinReply {
            peer,
            neighbors,
            delegate,
        } => {
            dst.put_u64(peer.0);
            put_neighbors(dst, neighbors);
            match delegate {
                Some(d) => {
                    dst.put_u8(1);
                    dst.put_u64(d.0);
                }
                None => dst.put_u8(0),
            }
        }
        Message::JoinError { peer, reason } => {
            dst.put_u64(peer.0);
            let bytes = &reason.as_bytes()[..reason.len().min(u16::MAX as usize)];
            dst.put_u16(bytes.len() as u16);
            dst.put_slice(bytes);
        }
        Message::Leave { peer } => dst.put_u64(peer.0),
        Message::HandoverRequest { peer, path } => {
            dst.put_u64(peer.0);
            put_path(dst, path);
        }
        Message::Heartbeat { peer } => dst.put_u64(peer.0),
        Message::QueryRequest {
            nonce,
            path,
            k,
            exclude,
        } => {
            dst.put_u64(*nonce);
            put_path(dst, path);
            dst.put_u16(*k);
            match exclude {
                Some(p) => {
                    dst.put_u8(1);
                    dst.put_u64(p.0);
                }
                None => dst.put_u8(0),
            }
        }
        Message::QueryReply { nonce, neighbors } => {
            dst.put_u64(*nonce);
            put_neighbors(dst, neighbors);
        }
        Message::FillRequest {
            nonce,
            router,
            limit,
        } => {
            dst.put_u64(*nonce);
            dst.put_u32(router.0);
            dst.put_u16(*limit);
        }
        Message::FillReply { nonce, items } => {
            dst.put_u64(*nonce);
            put_neighbors(dst, items);
        }
        Message::Shutdown { nonce } => dst.put_u64(*nonce),
        Message::Subscribe {
            nonce,
            peer,
            k,
            min_interval_ms,
        } => {
            dst.put_u64(*nonce);
            dst.put_u64(peer.0);
            dst.put_u16(*k);
            dst.put_u32(*min_interval_ms);
        }
        Message::Unsubscribe { nonce, peer } => {
            dst.put_u64(*nonce);
            dst.put_u64(peer.0);
        }
        Message::DeltaPush {
            peer,
            epoch,
            class,
            added,
            removed,
        } => {
            dst.put_u64(peer.0);
            dst.put_u64(*epoch);
            dst.put_u8(*class);
            put_neighbors(dst, added);
            dst.put_u16(removed.len() as u16);
            for p in removed {
                dst.put_u64(p.0);
            }
        }
        Message::SubAck {
            nonce,
            peer,
            neighbors,
        } => {
            dst.put_u64(*nonce);
            dst.put_u64(peer.0);
            put_neighbors(dst, neighbors);
        }
        Message::StatsRequest { nonce } => dst.put_u64(*nonce),
        Message::StatsReply { nonce, text } => {
            dst.put_u64(*nonce);
            let bytes = &text.as_bytes()[..text.len().min(MAX_STATS_TEXT)];
            dst.put_u32(bytes.len() as u32);
            dst.put_slice(bytes);
        }
    }
    let len = dst.len() - start - 4;
    assert!(
        len <= MAX_FRAME_LEN as usize,
        "encoded frame of {len} bytes exceeds MAX_FRAME_LEN"
    );
    debug_assert_eq!(4 + len, frame_len(msg), "frame_len agrees with encode");
    dst[start..start + 4].copy_from_slice(&(len as u32).to_be_bytes());
}

/// Encodes to a fresh buffer of exactly the frame's size (convenience).
pub fn encode_to_bytes(msg: &Message) -> Bytes {
    let mut buf = BytesMut::new();
    encode(msg, &mut buf);
    buf.freeze()
}

fn put_path(dst: &mut BytesMut, path: &PeerPath) {
    dst.put_u16(path.routers().len() as u16);
    for r in path.routers() {
        dst.put_u32(r.0);
    }
}

fn put_neighbors(dst: &mut BytesMut, neighbors: &[WireNeighbor]) {
    dst.put_u16(neighbors.len() as u16);
    for n in neighbors {
        dst.put_u64(n.peer.0);
        dst.put_u32(n.dtree);
    }
}

/// Attempts to decode one frame from the front of `src`.
///
/// On success the frame's bytes are consumed; on [`CodecError::Incomplete`]
/// nothing is consumed (feed more bytes and retry); on any other error the
/// offending frame *is* consumed so the stream can resynchronise — except
/// [`CodecError::FrameTooLarge`], which is raised before a single payload
/// byte is buffered or allocated and consumes nothing: a length prefix past
/// the limit means the stream cannot be trusted to resync, so the caller
/// must drop the connection.
pub fn decode(src: &mut BytesMut) -> Result<Message, CodecError> {
    let (consumed, msg) = decode_slice(src);
    src.advance(consumed);
    msg
}

/// [`decode`] over borrowed bytes: decodes the frame at the front of `src`
/// without copying it, and returns how many bytes `decode` consumes for
/// that result (the whole frame, or 0 on `Incomplete` and
/// `FrameTooLarge`) beside it.
pub(crate) fn decode_slice(src: &[u8]) -> (usize, Result<Message, CodecError>) {
    let Some(prefix) = src.first_chunk::<4>() else {
        return (0, Err(CodecError::Incomplete));
    };
    let len = u32::from_be_bytes(*prefix);
    // Hostile/corrupt length prefix: reject before buffering or allocating
    // anything for the claimed payload.
    if len > MAX_FRAME_LEN {
        return (0, Err(CodecError::FrameTooLarge(len)));
    }
    let end = 4 + len as usize;
    match src.get(4..end) {
        Some(frame) => (end, decode_frame(frame)),
        None => (0, Err(CodecError::Incomplete)),
    }
}

/// Decodes one complete frame's bytes (everything after the length
/// field); every byte must belong to the message.
fn decode_frame(mut frame: &[u8]) -> Result<Message, CodecError> {
    if frame.len() < 2 {
        return Err(CodecError::BadPayload("frame shorter than header".into()));
    }
    let version = frame.get_u8();
    let kind = frame.get_u8();
    if version != WIRE_VERSION {
        return Err(CodecError::UnknownVersion(version));
    }
    let msg = decode_payload(kind, &mut frame)?;
    if !frame.is_empty() {
        return Err(CodecError::BadPayload(format!(
            "{} trailing bytes in frame",
            frame.len()
        )));
    }
    Ok(msg)
}

fn need(frame: &[u8], n: usize, what: &str) -> Result<(), CodecError> {
    if frame.len() < n {
        Err(CodecError::BadPayload(format!("truncated {what}")))
    } else {
        Ok(())
    }
}

/// The next `n` bytes as UTF-8 text.
fn get_text(frame: &mut &[u8], n: usize, what: &str) -> Result<String, CodecError> {
    need(frame, n, what)?;
    let text = std::str::from_utf8(&frame[..n])
        .map_err(|e| CodecError::BadPayload(e.to_string()))?
        .to_owned();
    frame.advance(n);
    Ok(text)
}

fn get_path(frame: &mut &[u8]) -> Result<PeerPath, CodecError> {
    need(frame, 2, "path length")?;
    let n = frame.get_u16() as usize;
    need(frame, n * 4, "path routers")?;
    let routers: Vec<RouterId> = (0..n).map(|_| RouterId(frame.get_u32())).collect();
    PeerPath::new(routers).map_err(|e| CodecError::BadPayload(e.to_string()))
}

fn get_neighbors(frame: &mut &[u8]) -> Result<Vec<WireNeighbor>, CodecError> {
    need(frame, 2, "neighbor count")?;
    let n = frame.get_u16() as usize;
    need(frame, n * 12, "neighbors")?;
    Ok((0..n)
        .map(|_| WireNeighbor {
            peer: PeerId(frame.get_u64()),
            dtree: frame.get_u32(),
        })
        .collect())
}

fn decode_payload(kind: u8, frame: &mut &[u8]) -> Result<Message, CodecError> {
    match kind {
        1 | 2 => {
            need(frame, 8, "nonce")?;
            let nonce = frame.get_u64();
            Ok(if kind == 1 {
                Message::ProbePing { nonce }
            } else {
                Message::ProbePong { nonce }
            })
        }
        3 | 7 => {
            need(frame, 8, "peer id")?;
            let peer = PeerId(frame.get_u64());
            let path = get_path(frame)?;
            Ok(if kind == 3 {
                Message::JoinRequest { peer, path }
            } else {
                Message::HandoverRequest { peer, path }
            })
        }
        4 => {
            need(frame, 8 + 2, "join reply header")?;
            let peer = PeerId(frame.get_u64());
            let n = frame.get_u16() as usize;
            need(frame, n * 12 + 1, "neighbors")?;
            let neighbors = (0..n)
                .map(|_| WireNeighbor {
                    peer: PeerId(frame.get_u64()),
                    dtree: frame.get_u32(),
                })
                .collect();
            let delegate = match frame.get_u8() {
                0 => None,
                1 => {
                    need(frame, 8, "delegate")?;
                    Some(PeerId(frame.get_u64()))
                }
                other => return Err(CodecError::BadPayload(format!("bad delegate flag {other}"))),
            };
            Ok(Message::JoinReply {
                peer,
                neighbors,
                delegate,
            })
        }
        5 => {
            need(frame, 8 + 2, "join error header")?;
            let peer = PeerId(frame.get_u64());
            let n = frame.get_u16() as usize;
            let reason = get_text(frame, n, "reason")?;
            Ok(Message::JoinError { peer, reason })
        }
        6 => {
            need(frame, 8, "peer id")?;
            Ok(Message::Leave {
                peer: PeerId(frame.get_u64()),
            })
        }
        8 => {
            need(frame, 8, "peer id")?;
            Ok(Message::Heartbeat {
                peer: PeerId(frame.get_u64()),
            })
        }
        9 => {
            need(frame, 8, "nonce")?;
            let nonce = frame.get_u64();
            let path = get_path(frame)?;
            need(frame, 2 + 1, "query tail")?;
            let k = frame.get_u16();
            let exclude = match frame.get_u8() {
                0 => None,
                1 => {
                    need(frame, 8, "exclude")?;
                    Some(PeerId(frame.get_u64()))
                }
                other => return Err(CodecError::BadPayload(format!("bad exclude flag {other}"))),
            };
            Ok(Message::QueryRequest {
                nonce,
                path,
                k,
                exclude,
            })
        }
        10 | 12 => {
            need(frame, 8, "nonce")?;
            let nonce = frame.get_u64();
            let items = get_neighbors(frame)?;
            Ok(if kind == 10 {
                Message::QueryReply {
                    nonce,
                    neighbors: items,
                }
            } else {
                Message::FillReply { nonce, items }
            })
        }
        11 => {
            need(frame, 8 + 4 + 2, "fill request")?;
            Ok(Message::FillRequest {
                nonce: frame.get_u64(),
                router: RouterId(frame.get_u32()),
                limit: frame.get_u16(),
            })
        }
        13 => {
            need(frame, 8, "nonce")?;
            Ok(Message::Shutdown {
                nonce: frame.get_u64(),
            })
        }
        14 => {
            need(frame, 8 + 8 + 2 + 4, "subscribe")?;
            Ok(Message::Subscribe {
                nonce: frame.get_u64(),
                peer: PeerId(frame.get_u64()),
                k: frame.get_u16(),
                min_interval_ms: frame.get_u32(),
            })
        }
        15 => {
            need(frame, 8 + 8, "unsubscribe")?;
            Ok(Message::Unsubscribe {
                nonce: frame.get_u64(),
                peer: PeerId(frame.get_u64()),
            })
        }
        16 => {
            need(frame, 8 + 8 + 1, "delta push header")?;
            let peer = PeerId(frame.get_u64());
            let epoch = frame.get_u64();
            let class = frame.get_u8();
            let added = get_neighbors(frame)?;
            need(frame, 2, "removed count")?;
            let n = frame.get_u16() as usize;
            need(frame, n * 8, "removed peers")?;
            let removed = (0..n).map(|_| PeerId(frame.get_u64())).collect();
            Ok(Message::DeltaPush {
                peer,
                epoch,
                class,
                added,
                removed,
            })
        }
        17 => {
            need(frame, 8 + 8, "sub ack header")?;
            let nonce = frame.get_u64();
            let peer = PeerId(frame.get_u64());
            let neighbors = get_neighbors(frame)?;
            Ok(Message::SubAck {
                nonce,
                peer,
                neighbors,
            })
        }
        18 => {
            need(frame, 8, "nonce")?;
            Ok(Message::StatsRequest {
                nonce: frame.get_u64(),
            })
        }
        19 => {
            need(frame, 8 + 4, "stats reply header")?;
            let nonce = frame.get_u64();
            let n = frame.get_u32() as usize;
            let text = get_text(frame, n, "stats text")?;
            Ok(Message::StatsReply { nonce, text })
        }
        other => Err(CodecError::UnknownKind(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_path() -> PeerPath {
        PeerPath::new(vec![RouterId(9), RouterId(4), RouterId(0)]).unwrap()
    }

    fn all_messages() -> Vec<Message> {
        vec![
            Message::ProbePing { nonce: 0xDEAD_BEEF },
            Message::ProbePong { nonce: 42 },
            Message::JoinRequest {
                peer: PeerId(7),
                path: sample_path(),
            },
            Message::JoinReply {
                peer: PeerId(7),
                neighbors: vec![
                    WireNeighbor {
                        peer: PeerId(1),
                        dtree: 2,
                    },
                    WireNeighbor {
                        peer: PeerId(2),
                        dtree: 5,
                    },
                ],
                delegate: Some(PeerId(1)),
            },
            Message::JoinReply {
                peer: PeerId(8),
                neighbors: vec![],
                delegate: None,
            },
            Message::JoinError {
                peer: PeerId(9),
                reason: "unknown landmark".into(),
            },
            Message::Leave { peer: PeerId(3) },
            Message::HandoverRequest {
                peer: PeerId(4),
                path: sample_path(),
            },
            Message::Heartbeat { peer: PeerId(5) },
            Message::QueryRequest {
                nonce: 11,
                path: sample_path(),
                k: 5,
                exclude: Some(PeerId(7)),
            },
            Message::QueryRequest {
                nonce: 12,
                path: sample_path(),
                k: 1,
                exclude: None,
            },
            Message::QueryReply {
                nonce: 11,
                neighbors: vec![
                    WireNeighbor {
                        peer: PeerId(3),
                        dtree: 1,
                    },
                    WireNeighbor {
                        peer: PeerId(4),
                        dtree: 9,
                    },
                ],
            },
            Message::QueryReply {
                nonce: 12,
                neighbors: vec![],
            },
            Message::FillRequest {
                nonce: 13,
                router: RouterId(4),
                limit: 16,
            },
            Message::FillReply {
                nonce: 13,
                items: vec![WireNeighbor {
                    peer: PeerId(6),
                    dtree: 0,
                }],
            },
            Message::Shutdown { nonce: 14 },
            Message::Subscribe {
                nonce: 15,
                peer: PeerId(7),
                k: 8,
                min_interval_ms: 250,
            },
            Message::Unsubscribe {
                nonce: 16,
                peer: PeerId(7),
            },
            Message::DeltaPush {
                peer: PeerId(7),
                epoch: 3,
                class: 2,
                added: vec![WireNeighbor {
                    peer: PeerId(9),
                    dtree: 4,
                }],
                removed: vec![PeerId(1), PeerId(2)],
            },
            Message::DeltaPush {
                peer: PeerId(8),
                epoch: 0,
                class: 0,
                added: vec![],
                removed: vec![],
            },
            Message::SubAck {
                nonce: 15,
                peer: PeerId(7),
                neighbors: vec![WireNeighbor {
                    peer: PeerId(9),
                    dtree: 4,
                }],
            },
            Message::StatsRequest { nonce: 17 },
            Message::StatsReply {
                nonce: 17,
                text: "dir_queries_total 12\ndir_query_latency_us_count 12\n".into(),
            },
            Message::StatsReply {
                nonce: 18,
                text: String::new(),
            },
        ]
    }

    #[test]
    fn round_trip_every_kind() {
        for msg in all_messages() {
            let mut buf = BytesMut::new();
            encode(&msg, &mut buf);
            let decoded = decode(&mut buf).unwrap();
            assert_eq!(decoded, msg);
            assert!(buf.is_empty(), "frame fully consumed");
        }
    }

    /// The exact bytes of one frame per message in [`all_messages`], in
    /// that order: any change to the encoder that moves a wire byte fails
    /// here, not only in a peer running the previous build.
    #[test]
    fn golden_wire_bytes() {
        const GOLDEN: [&str; 24] = [
            "0000000a010100000000deadbeef", // probe-ping
            "0000000a0102000000000000002a", // probe-pong
            "00000018010300000000000000070003000000090000000400000000", // join-request
            "0000002d010400000000000000070002000000000000000100000002000000000000000200000005010000000000000001", // join-reply
            "0000000d01040000000000000008000000", // join-reply
            "0000001c010500000000000000090010756e6b6e6f776e206c616e646d61726b", // join-error
            "0000000a01060000000000000003", // leave
            "00000018010700000000000000040003000000090000000400000000", // handover-request
            "0000000a01080000000000000005", // heartbeat
            "000000230109000000000000000b00030000000900000004000000000005010000000000000007", // query-request
            "0000001b0109000000000000000c0003000000090000000400000000000100", // query-request
            "00000024010a000000000000000b0002000000000000000300000001000000000000000400000009", // query-reply
            "0000000c010a000000000000000c0000", // query-reply
            "00000010010b000000000000000d000000040010", // fill-request
            "00000018010c000000000000000d0001000000000000000600000000", // fill-reply
            "0000000a010d000000000000000e", // shutdown
            "00000018010e000000000000000f00000000000000070008000000fa", // subscribe
            "00000012010f00000000000000100000000000000007", // unsubscribe
            "00000033011000000000000000070000000000000003020001000000000000000900000004000200000000000000010000000000000002", // delta-push
            "000000170110000000000000000800000000000000000000000000", // delta-push
            "000000200111000000000000000f00000000000000070001000000000000000900000004", // sub-ack
            "0000000a01120000000000000011", // stats-request
            "0000004101130000000000000011000000336469725f717565726965735f746f74616c2031320a6469725f71756572795f6c6174656e63795f75735f636f756e742031320a", // stats-reply
            "0000000e0113000000000000001200000000", // stats-reply
        ];
        let msgs = all_messages();
        assert_eq!(msgs.len(), GOLDEN.len());
        for (msg, want) in msgs.iter().zip(GOLDEN) {
            let hex: String = encode_to_bytes(msg)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(hex, want, "{} frame moved on the wire", msg.kind_name());
        }
    }

    #[test]
    fn streaming_multiple_frames() {
        let msgs = all_messages();
        let mut buf = BytesMut::new();
        for m in &msgs {
            encode(m, &mut buf);
        }
        for want in &msgs {
            let got = decode(&mut buf).unwrap();
            assert_eq!(&got, want);
        }
        assert!(matches!(decode(&mut buf), Err(CodecError::Incomplete)));
    }

    #[test]
    fn incomplete_frames_wait_for_more() {
        let mut full = BytesMut::new();
        encode(&Message::Leave { peer: PeerId(1) }, &mut full);
        for cut in 0..full.len() {
            let mut partial = BytesMut::from(&full[..cut]);
            assert!(
                matches!(decode(&mut partial), Err(CodecError::Incomplete)),
                "cut at {cut} must be incomplete"
            );
            assert_eq!(partial.len(), cut, "nothing consumed on Incomplete");
        }
    }

    #[test]
    fn rejects_unknown_version_and_kind() {
        let mut buf = BytesMut::new();
        buf.put_u32(2);
        buf.put_u8(99); // version
        buf.put_u8(1); // kind
        assert!(matches!(
            decode(&mut buf),
            Err(CodecError::UnknownVersion(99))
        ));

        let mut buf = BytesMut::new();
        buf.put_u32(2);
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(200); // kind
        assert!(matches!(
            decode(&mut buf),
            Err(CodecError::UnknownKind(200))
        ));
    }

    #[test]
    fn rejects_oversized_frames() {
        let mut buf = BytesMut::new();
        buf.put_u32(MAX_FRAME_LEN + 1);
        buf.put_slice(&[0u8; 16]);
        assert!(matches!(
            decode(&mut buf),
            Err(CodecError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn rejects_max_u32_prefix_before_any_buffering() {
        // A hostile length prefix claiming 4 GiB, with nothing behind it:
        // must be rejected immediately (not reported Incomplete, which
        // would make the server buffer towards 4 GiB), allocation-free.
        let mut buf = BytesMut::new();
        buf.put_u32(u32::MAX);
        assert!(matches!(
            decode(&mut buf),
            Err(CodecError::FrameTooLarge(u32::MAX))
        ));
        // Nothing consumed: the connection is poisoned, the caller drops it.
        assert_eq!(buf.len(), 4);
    }

    #[test]
    fn truncated_after_short_prefix_is_incomplete_not_panic() {
        // len=1 (< header size) with the payload byte not yet arrived:
        // previously this advanced past the end of the buffer and panicked.
        let mut buf = BytesMut::new();
        buf.put_u32(1);
        assert!(
            matches!(decode(&mut buf), Err(CodecError::Incomplete)),
            "truncated after prefix must be Incomplete"
        );
        assert_eq!(buf.len(), 4, "nothing consumed while incomplete");
        // len=0 needs no further bytes — the empty frame is complete,
        // consumed, and rejected.
        let mut buf = BytesMut::new();
        buf.put_u32(0);
        assert!(matches!(decode(&mut buf), Err(CodecError::BadPayload(_))));
        assert!(buf.is_empty(), "undersized frame consumed for resync");
        // Once the (undersized) frame has fully arrived it is consumed and
        // rejected so the stream can resynchronise.
        let mut buf = BytesMut::new();
        buf.put_u32(1);
        buf.put_u8(WIRE_VERSION);
        encode(&Message::Leave { peer: PeerId(5) }, &mut buf);
        assert!(matches!(decode(&mut buf), Err(CodecError::BadPayload(_))));
        assert_eq!(
            decode(&mut buf).unwrap(),
            Message::Leave { peer: PeerId(5) }
        );
    }

    #[test]
    fn rejects_truncated_payload_inside_frame() {
        // A JoinRequest frame claiming a longer path than present.
        let mut buf = BytesMut::new();
        let mut payload = BytesMut::new();
        payload.put_u64(1); // peer
        payload.put_u16(5); // 5 routers claimed...
        payload.put_u32(1); // ...but only one present
        buf.put_u32(payload.len() as u32 + 2);
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(3);
        buf.extend_from_slice(&payload);
        assert!(matches!(decode(&mut buf), Err(CodecError::BadPayload(_))));
    }

    #[test]
    fn rejects_trailing_garbage_in_frame() {
        let mut buf = BytesMut::new();
        let mut payload = BytesMut::new();
        payload.put_u64(1);
        payload.put_u64(0xFFFF); // extra bytes after a valid Leave payload
        buf.put_u32(payload.len() as u32 + 2);
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(6);
        buf.extend_from_slice(&payload);
        assert!(matches!(decode(&mut buf), Err(CodecError::BadPayload(_))));
    }

    #[test]
    fn rejects_looping_path_on_decode() {
        let mut buf = BytesMut::new();
        let mut payload = BytesMut::new();
        payload.put_u64(1);
        payload.put_u16(2);
        payload.put_u32(7);
        payload.put_u32(7); // repeated router = loop
        buf.put_u32(payload.len() as u32 + 2);
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(3);
        buf.extend_from_slice(&payload);
        assert!(matches!(decode(&mut buf), Err(CodecError::BadPayload(_))));
    }

    #[test]
    fn resynchronises_after_bad_frame() {
        let mut buf = BytesMut::new();
        // Bad frame (unknown kind), then a good one.
        buf.put_u32(2);
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(250);
        encode(&Message::Leave { peer: PeerId(5) }, &mut buf);
        assert!(matches!(
            decode(&mut buf),
            Err(CodecError::UnknownKind(250))
        ));
        assert_eq!(
            decode(&mut buf).unwrap(),
            Message::Leave { peer: PeerId(5) }
        );
    }
}
