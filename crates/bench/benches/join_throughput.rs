//! Join throughput: sequential `register` loop vs the write-only
//! `register_batch`.
//!
//! Measures the server-side cost of absorbing a whole swarm of newcomers
//! (synthetic tree-consistent paths across several landmarks, no tracing),
//! the workload the directory sharding refactor targets.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use nearpeer_core::{ManagementServer, PeerId, PeerPath, ServerConfig};
use nearpeer_topology::RouterId;

const LANDMARKS: u32 = 8;
const BRANCHING: u64 = 4;
const DEPTH: u32 = 8;

/// Tree-consistent synthetic path for peer `i` towards landmark
/// `i % LANDMARKS`: router ids pack (landmark, level, prefix), so peers of
/// one landmark share suffixes exactly like traced routes, while distinct
/// landmarks never collide.
fn synthetic_join(i: u64) -> (PeerId, PeerPath) {
    let lmk = (i % LANDMARKS as u64) as u32;
    let within = i / LANDMARKS as u64;
    let mut routers = Vec::with_capacity(DEPTH as usize + 1);
    // Unique access router per peer, top id range.
    routers.push(RouterId(u32::MAX - i as u32));
    for level in (1..DEPTH).rev() {
        let prefix = (within % BRANCHING.pow(level)) as u32;
        routers.push(RouterId(0x1000_0000 + (lmk << 24) + (level << 18) + prefix));
    }
    routers.push(RouterId(lmk));
    (PeerId(i), PeerPath::new(routers).expect("loop-free"))
}

fn fresh_server() -> ManagementServer {
    let routers: Vec<RouterId> = (0..LANDMARKS).map(RouterId).collect();
    // All landmark pairs 4 hops apart (any constant works for throughput).
    let dist: Vec<Vec<u32>> = (0..LANDMARKS)
        .map(|i| (0..LANDMARKS).map(|j| if i == j { 0 } else { 4 }).collect())
        .collect();
    ManagementServer::new(routers, dist, ServerConfig::default()).expect("valid server")
}

fn joins(n: usize) -> Vec<(PeerId, PeerPath)> {
    (0..n as u64).map(synthetic_join).collect()
}

/// The paper's protocol: one register (insert + answer) per newcomer.
fn build_sequential(batch: Vec<(PeerId, PeerPath)>) -> ManagementServer {
    let mut server = fresh_server();
    for (peer, path) in batch {
        server.register(peer, path).expect("unique synthetic ids");
    }
    server
}

/// One write-only batched call: inserts grouped by landmark, nobody
/// answered (the bulk load `Swarm::build` does).
fn build_batched(batch: Vec<(PeerId, PeerPath)>) -> ManagementServer {
    let mut server = fresh_server();
    let n = batch.len();
    assert_eq!(
        server.register_batch(batch).joined,
        n,
        "unique synthetic ids"
    );
    server
}

fn bench_join_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_throughput");
    group.sample_size(10);
    for &n in &[1_000usize, 10_000] {
        let batch = joins(n);
        for (name, build) in [
            (
                "sequential",
                build_sequential as fn(Vec<(PeerId, PeerPath)>) -> ManagementServer,
            ),
            ("batched", build_batched),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter_batched(|| batch.clone(), build, BatchSize::LargeInput);
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_join_throughput);
criterion_main!(benches);
