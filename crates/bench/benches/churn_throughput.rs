//! Churn throughput: a W3 join/leave/fail trace replayed onto the
//! directory in per-epoch batches.
//!
//! Measures the directory-maintenance cost of churn (lease opens,
//! renewals piggybacked on the register path, heartbeat rounds, batched
//! departures and epoch-bucketed expiry sweeps), the workload the
//! slab-backed lease arena targets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nearpeer_bench::experiments::churn::{run_soak, ChurnSoakConfig};

fn soak_config(peers: usize) -> ChurnSoakConfig {
    ChurnSoakConfig {
        peers,
        cycles: 2, // cycle 2 rejoins departed peers: the renewal path
        arrival_rate: peers as f64 / 20.0,
        ..ChurnSoakConfig::smoke()
    }
}

fn bench_churn_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_throughput");
    group.sample_size(10);
    for &peers in &[2_000usize, 10_000] {
        let cfg = soak_config(peers);
        group.bench_with_input(BenchmarkId::new("batched", peers), &cfg, |b, cfg| {
            b.iter(|| run_soak(cfg, 7));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_churn_throughput);
criterion_main!(benches);
