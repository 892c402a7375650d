//! Churn throughput: a W3 join/leave/fail trace replayed onto the
//! directory in per-epoch batches, and single writes through the
//! concurrent server.
//!
//! Measures the directory-maintenance cost of churn (lease opens,
//! renewals piggybacked on the register path, heartbeat rounds, batched
//! departures and epoch-bucketed expiry sweeps), the workload the
//! slab-backed lease arena targets, and the per-write cost `nearpeerd`
//! pays: one server write guard per operation, or per burst of requests
//! when two connections write at once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nearpeer_bench::soak::{run_with_state, Churn, Scenario};
use nearpeer_bench::wire::{synthetic_landmarks, BATCH_FRAMES};
use nearpeer_bench::SyntheticJoins;
use nearpeer_core::protocol::Message;
use nearpeer_core::{ActorServer, LandmarkId, ServerConfig, WireService};

fn soak_config(peers: usize) -> Scenario {
    Scenario::single_server(Churn {
        peers,
        cycles: 2, // cycle 2 rejoins departed peers: the renewal path
        arrival_rate: peers as f64 / 20.0,
        ..Churn::smoke()
    })
}

fn bench_churn_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_throughput");
    group.sample_size(10);
    for &peers in &[2_000usize, 10_000] {
        let cfg = soak_config(peers);
        group.bench_with_input(BenchmarkId::new("batched", peers), &cfg, |b, cfg| {
            b.iter(|| run_with_state(cfg, 7).expect("valid scenario"));
        });
    }
    group.finish();
}

const PEERS: u64 = 100_000;
const LANDMARKS: usize = 8;

/// An `ActorServer` holding peers `0..PEERS` over `LANDMARKS` landmarks.
fn populated_server(joins: &SyntheticJoins) -> ActorServer {
    let (routers, dist) = synthetic_landmarks(LANDMARKS);
    let srv = ActorServer::new(routers, dist, ServerConfig::default()).expect("valid config");
    for p in 0..PEERS {
        let (peer, path) = joins.join(p);
        srv.register(peer, path).expect("fresh peer");
    }
    srv
}

/// One leave, join, heartbeat and handover of one peer, each a separate
/// call into `ActorServer`, on a 100 k-peer directory over 8 landmarks.
/// The peer leaves from wherever its last handover put it and rejoins at
/// home, so the population and its shape stay put across iterations.
fn bench_actor_single_ops(c: &mut Criterion) {
    let joins = SyntheticJoins::new(LANDMARKS);
    let srv = populated_server(&joins);
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

/// Peers each writer churns per iteration.
const PEERS_PER_WRITER: u64 = 64;

/// Two threads, the two connections of `perf`'s `churn_1r`, each feeding
/// its half of the peers the same leave, join, heartbeat and handover as
/// `single_ops` through `WireService::handle_batch`, in bursts of one
/// frame and of `BATCH_FRAMES`: the lock contention between two writing
/// connections that `single_ops` (one thread) cannot see. Time is per
/// iteration of `2 × PEERS_PER_WRITER` peers, 4 requests each.
fn bench_actor_two_writers(c: &mut Criterion) {
    let joins = SyntheticJoins::new(LANDMARKS);
    let srv = populated_server(&joins);
    let mut group = c.benchmark_group("actor_server");
    let mut round = 0u64;
    for burst in [1, BATCH_FRAMES] {
        let id = BenchmarkId::new("two_writers", burst);
        group.bench_with_input(id, &burst, |b, &burst| {
            b.iter(|| {
                round += 1;
                std::thread::scope(|scope| {
                    for half in 0..2 {
                        let (srv, joins) = (&srv, &joins);
                        scope.spawn(move || churn_half(srv, joins, round, half, burst));
                    }
                });
            });
        });
    }
    group.finish();
}

/// One writer's share of a `two_writers` iteration: `PEERS_PER_WRITER`
/// peers of parity `half`, their requests handed over `burst` at a time.
fn churn_half(srv: &ActorServer, joins: &SyntheticJoins, round: u64, half: u64, burst: usize) {
    let mut requests = Vec::with_capacity(burst);
    let mut out = Vec::new();
    for i in 0..PEERS_PER_WRITER {
        // The stride is odd and the population even, so the two writers'
        // peers never meet.
        let n = (round * PEERS_PER_WRITER + i) * 2 + half;
        let p = n.wrapping_mul(7_919) % PEERS;
        let (peer, home) = joins.join(p);
        let away = LandmarkId(((p + 1) % LANDMARKS as u64) as u32);
        let (_, moved) = joins.join_to(p, away);
        for msg in [
            Message::Leave { peer },
            Message::JoinRequest { peer, path: home },
            Message::Heartbeat { peer },
            Message::HandoverRequest { peer, path: moved },
        ] {
            requests.push(msg);
            if requests.len() == burst {
                srv.handle_batch(None, &mut requests, &mut out);
                out.clear();
            }
        }
    }
    srv.handle_batch(None, &mut requests, &mut out);
}

criterion_group!(
    benches,
    bench_churn_throughput,
    bench_actor_single_ops,
    bench_actor_two_writers
);
criterion_main!(benches);
