//! The wire codec's two hot stages, per frame, for the frames a query,
//! a join and a subscription push put on the wire.
//!
//! `encode/*` appends one frame to a reused output buffer, as
//! `FrameConn::queue` does; `decode/*` takes one frame off the front of a
//! pipelined 64 KiB read buffer of that frame, refilled when drained, as
//! the serve loop's reassembly buffer is. Paths are depth 8 and answers
//! hold `k` = 5 neighbors, the shape `perf`'s query workloads exchange.

use bytes::BytesMut;
use criterion::{criterion_group, criterion_main, Criterion};
use nearpeer_bench::SyntheticJoins;
use nearpeer_core::codec;
use nearpeer_core::protocol::{Message, WireNeighbor};
use nearpeer_core::PeerId;

/// The size of the serve loop's read buffer.
const PIPELINE_BYTES: usize = 64 * 1024;

fn frames() -> Vec<(&'static str, Message)> {
    let (peer, path) = SyntheticJoins::new(8).join(0);
    assert_eq!(path.depth(), 8);
    let neighbors: Vec<WireNeighbor> = (1..=5u64)
        .map(|p| WireNeighbor {
            peer: PeerId(p),
            dtree: 2 * p as u32,
        })
        .collect();
    vec![
        (
            "query_request",
            Message::QueryRequest {
                nonce: 1,
                path: path.clone(),
                k: 5,
                exclude: Some(peer),
            },
        ),
        (
            "query_reply",
            Message::QueryReply {
                nonce: 1,
                neighbors: neighbors.clone(),
            },
        ),
        ("join_request", Message::JoinRequest { peer, path }),
        (
            "join_reply",
            Message::JoinReply {
                peer,
                neighbors: neighbors.clone(),
                delegate: None,
            },
        ),
        (
            "delta_push",
            Message::DeltaPush {
                peer,
                epoch: 7,
                class: 1,
                added: neighbors[..2].to_vec(),
                removed: vec![PeerId(8), PeerId(9)],
            },
        ),
    ]
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    for (name, msg) in frames() {
        let mut out = BytesMut::new();
        group.bench_function(format!("encode/{name}"), |b| {
            b.iter(|| {
                out.clear();
                codec::encode(&msg, &mut out);
                out.len()
            });
        });

        let frame = codec::encode_to_bytes(&msg);
        let pipelined = frame.repeat(PIPELINE_BYTES / frame.len());
        let mut buf = BytesMut::with_capacity(PIPELINE_BYTES);
        group.bench_function(format!("decode/{name}"), |b| {
            b.iter(|| {
                if buf.is_empty() {
                    buf.extend_from_slice(&pipelined);
                }
                codec::decode(&mut buf).expect("well-formed")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
