//! Criterion micro-benchmarks for C1/C2: RouterIndex insertion and query,
//! plus the management server's read kernel at the `perf` benchmark's
//! shape and at four times its landmark count, and its write paths at
//! that shape: building the population, and one leave and rejoin.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use nearpeer_bench::experiments::complexity::synthetic_path;
use nearpeer_bench::SyntheticJoins;
use nearpeer_core::{ManagementServer, PeerId, RouterIndex, ServerConfig};
use std::cell::RefCell;

const BRANCHING: u32 = 4;
const DEPTH: u32 = 10;

fn populated(n: usize) -> RouterIndex {
    let mut idx = RouterIndex::new();
    for i in 0..n as u64 {
        idx.insert(PeerId(i), synthetic_path(i, BRANCHING, DEPTH))
            .expect("unique ids");
    }
    idx
}

/// C1: one newcomer insertion at different populations — expected to grow
/// like log n, not n.
fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("router_index/insert");
    group.sample_size(10); // cloning large indexes dominates setup cost
    for &n in &[1_000usize, 8_000, 64_000] {
        let base = populated(n);
        let newcomer = synthetic_path(n as u64, BRANCHING, DEPTH);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter_batched(
                || base.clone(),
                |mut idx| {
                    idx.insert(PeerId(u64::MAX), newcomer.clone())
                        .expect("fresh id");
                    idx
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// C2: closest-peer query at different populations — expected flat.
fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("router_index/query");
    for &n in &[1_000usize, 8_000, 64_000] {
        let idx = populated(n);
        let query = synthetic_path(12_345 % n as u64, BRANCHING, DEPTH);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| idx.query_nearest(&query, 5, None));
        });
    }
    group.finish();
}

/// Removal (churn) cost.
fn bench_remove(c: &mut Criterion) {
    let mut group = c.benchmark_group("router_index/remove");
    group.sample_size(10);
    for &n in &[1_000usize, 8_000] {
        let base = populated(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter_batched(
                || base.clone(),
                |mut idx| {
                    idx.remove(PeerId(n as u64 / 2));
                    idx
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// The kernel `server.sync_ns` prices in `crates/perf`: one
/// `ManagementServer::closest_to_path` over 100 k peers, `k = 5`, a
/// registered peer asking with itself excluded, cycling a pool of
/// distinct paths so the probes are not one cached line. At 8 landmarks
/// (the benchmark's shape) and at 32: the server probes one router index
/// whatever the landmark count, so the two should sit close together.
fn bench_closest_to_path(c: &mut Criterion) {
    const PEERS: u64 = 100_000;
    const POOL: u64 = 1_024;
    let mut group = c.benchmark_group("directory/closest_to_path");
    for landmarks in [8usize, 32] {
        let joins = SyntheticJoins::new(landmarks);
        let mut server = joins.server(ServerConfig::default());
        server.register_batch((0..PEERS).map(|p| joins.join(p)).collect());
        // Stride 97 is odd and prime, so the pool visits every landmark.
        let pool: Vec<_> = (0..POOL).map(|i| joins.join(i * 97)).collect();
        let mut next = 0usize;
        group.bench_function(format!("{landmarks}_landmarks_100k"), |b| {
            b.iter(|| {
                let (peer, path) = &pool[next % pool.len()];
                next += 1;
                server.closest_to_path(path, 5, Some(*peer))
            });
        });
    }
    group.finish();
}

/// The write side of the same shape, as `perf`'s set-up drives it: 100 k
/// `register` calls into an empty server at 8 landmarks, in the order its
/// 8 set-up connections deliver them (8 contiguous id ranges, one join
/// from each in turn). Every list transition but a collapse happens here,
/// the split of a full chunk included. One sample is the whole build;
/// the server is dropped outside the timing.
fn bench_register(c: &mut Criterion) {
    const LANES: u64 = 8;
    const PER_LANE: u64 = 12_500;
    let mut group = c.benchmark_group("directory/register");
    let joins = SyntheticJoins::new(8);
    let order: Vec<_> = (0..PER_LANE)
        .flat_map(|i| (0..LANES).map(move |lane| lane * PER_LANE + i))
        .map(|p| joins.join(p))
        .collect();
    let built: RefCell<Option<ManagementServer>> = RefCell::new(None);
    group.bench_function("8_landmarks_100k", |b| {
        b.iter_batched(
            || {
                built.take();
                (joins.server(ServerConfig::default()), order.clone())
            },
            |(mut server, order)| {
                for (peer, path) in order {
                    server.register(peer, path).expect("fresh peer");
                }
                *built.borrow_mut() = Some(server);
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// The write side of the same shape: one registered peer leaves and
/// rejoins on its own path, cycling a pool as above. A leave collapses
/// the lists it leaves with one entry into their hash slots and drops the
/// routers it crossed alone; the rejoin promotes them back, so this prices
/// every list transition but the one into a tree.
fn bench_leave_rejoin(c: &mut Criterion) {
    const PEERS: u64 = 100_000;
    const POOL: u64 = 1_024;
    let mut group = c.benchmark_group("directory/leave_rejoin");
    let joins = SyntheticJoins::new(8);
    let mut server = joins.server(ServerConfig::default());
    server.register_batch((0..PEERS).map(|p| joins.join(p)).collect());
    let pool: Vec<_> = (0..POOL).map(|i| joins.join(i * 97)).collect();
    let mut next = 0usize;
    group.bench_function("8_landmarks_100k", |b| {
        b.iter(|| {
            let (peer, path) = &pool[next % pool.len()];
            next += 1;
            server.deregister(*peer).expect("registered");
            server.register(*peer, path.clone()).expect("rejoins")
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_insert,
    bench_query,
    bench_remove,
    bench_closest_to_path,
    bench_register,
    bench_leave_rejoin
);
criterion_main!(benches);
