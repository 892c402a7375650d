//! Churn throughput: a W3 join/leave/fail trace replayed onto the
//! directory in per-epoch batches, and single writes through the
//! concurrent server.
//!
//! Measures the directory-maintenance cost of churn (lease opens,
//! renewals piggybacked on the register path, heartbeat rounds, batched
//! departures and epoch-bucketed expiry sweeps), the workload the
//! slab-backed lease arena targets, and the per-write cost `nearpeerd`
//! pays: one server write guard per operation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nearpeer_bench::experiments::churn::{run_soak, ChurnSoakConfig};
use nearpeer_bench::wire::synthetic_landmarks;
use nearpeer_bench::SyntheticJoins;
use nearpeer_core::{ActorServer, LandmarkId, ServerConfig};

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

/// One leave, join, heartbeat and handover of one peer, each a separate
/// call into `ActorServer`, on a 100 k-peer directory over 8 landmarks.
/// The peer leaves from wherever its last handover put it and rejoins at
/// home, so the population and its shape stay put across iterations.
fn bench_actor_single_ops(c: &mut Criterion) {
    const PEERS: u64 = 100_000;
    const LANDMARKS: usize = 8;
    let joins = SyntheticJoins::new(LANDMARKS);
    let (routers, dist) = synthetic_landmarks(LANDMARKS);
    let srv = ActorServer::new(routers, dist, ServerConfig::default()).expect("valid config");
    for p in 0..PEERS {
        let (peer, path) = joins.join(p);
        srv.register(peer, path).expect("fresh peer");
    }
    let mut group = c.benchmark_group("actor_server");
    let mut next = 0u64;
    group.bench_function("single_ops", |b| {
        b.iter(|| {
            // Stride 7919 is prime, so successive peers spread over the
            // landmarks and the id space.
            let p = next.wrapping_mul(7_919) % PEERS;
            next += 1;
            let (peer, home) = joins.join(p);
            srv.deregister(peer).expect("registered");
            srv.register(peer, home).expect("just left");
            srv.heartbeat(peer).expect("registered");
            let away = LandmarkId(((p + 1) % LANDMARKS as u64) as u32);
            let (_, moved) = joins.join_to(p, away);
            srv.handover(peer, moved).expect("registered")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_churn_throughput, bench_actor_single_ops);
criterion_main!(benches);
