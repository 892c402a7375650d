//! Query throughput over the real wire: a loopback TCP client pipelining
//! `QueryRequest` frames at the actorized serving plane (`nearpeerd`'s
//! per-connection serve loop) holding 10⁵ registered peers.
//!
//! Two servers, same population: a single-region [`ActorServer`] and a
//! 4-region [`ActorFederation`] whose fan-out travels as codec frames
//! between its region actors. Each iteration round-trips a pipelined
//! batch of queries, so the number includes encode, socket, reassembly,
//! decode and the directory answer. Headline numbers live in
//! `BENCH_wire.json` at the repository root.
//!
//! [`ActorServer`]: nearpeer_core::ActorServer
//! [`ActorFederation`]: nearpeer_core::ActorFederation

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nearpeer_bench::wire::{build_service, serve_connection, world, FrameConn};
use nearpeer_bench::SyntheticJoins;
use nearpeer_core::protocol::Message;
use nearpeer_core::{PeerId, ServerConfig, WireService};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

const PEERS: u64 = 100_000;
const LANDMARKS: usize = 8;
const QUERIES_PER_ITER: u64 = 1_000;
const WINDOW: u64 = 256;
const K: u16 = 5;

/// Serves `service` on a loopback listener with `nearpeerd`'s own serve
/// loop; nobody raises the shutdown flag (the bench process just exits).
fn spawn_server(service: Arc<dyn WireService>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound");
    let shutdown = Arc::new(AtomicBool::new(false));
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || serve_connection(stream, service, shutdown, addr, None));
        }
    });
    addr
}

fn populated_service(regions: usize, joins: SyntheticJoins) -> Arc<dyn WireService> {
    let service =
        build_service(LANDMARKS, regions, ServerConfig::default()).expect("synthetic plane builds");
    for p in 0..PEERS {
        let (peer, path) = joins.join(p);
        match service.handle(Message::JoinRequest { peer, path }) {
            Some(Message::JoinReply { .. }) => {}
            other => panic!("join {p} answered {other:?}"),
        }
    }
    service
}

/// One pipelined batch of queries over an open connection.
fn query_batch(conn: &mut FrameConn, joins: &SyntheticJoins, offset: u64) -> usize {
    let mut sent = 0u64;
    let mut recvd = 0u64;
    let mut total = 0usize;
    while recvd < QUERIES_PER_ITER {
        while sent < QUERIES_PER_ITER && sent - recvd < WINDOW {
            let peer = (offset + sent * 97) % PEERS;
            conn.send(&Message::QueryRequest {
                nonce: sent,
                path: joins.path(peer),
                k: K,
                exclude: Some(PeerId(peer)),
            })
            .expect("send");
            sent += 1;
        }
        match conn.recv().expect("recv") {
            Some(Message::QueryReply { neighbors, .. }) => {
                total += neighbors.len();
                recvd += 1;
            }
            other => panic!("expected QueryReply, got {other:?}"),
        }
    }
    total
}

fn bench_wire_throughput(c: &mut Criterion) {
    let joins = world(LANDMARKS);
    let mut group = c.benchmark_group("wire_throughput");
    group.sample_size(10);
    for (name, regions) in [
        ("actor_server_1region", 1usize),
        ("actor_federation_4regions", 4),
    ] {
        let addr = spawn_server(populated_service(regions, joins));
        let mut conn = FrameConn::connect(addr).expect("loopback connect");
        let mut offset = 0u64;
        group.bench_with_input(BenchmarkId::new(name, PEERS), &(), |b, _| {
            b.iter(|| {
                offset = offset.wrapping_add(1);
                query_batch(&mut conn, &joins, offset)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_wire_throughput);
criterion_main!(benches);
