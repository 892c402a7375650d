//! Round-1 trace throughput: sequential vs parallel tracing through the
//! shared route oracle.
//!
//! Measures the full round-1 pipeline of a swarm build — landmark-tree
//! arena precompute, closest-landmark selection, then every peer's
//! simulated traceroute — the phase that dominated `scale_smoke` before the
//! oracle became shareable. `sequential` forces one worker;
//! `parallel` uses `available_parallelism` workers over peer chunks (on a
//! single-core host the two coincide).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nearpeer_bench::trace_round1;
use nearpeer_probe::{TraceConfig, Tracer};
use nearpeer_routing::landmarks::{place_landmarks, PlacementPolicy};
use nearpeer_routing::RouteOracle;
use nearpeer_topology::generators::{mapper, MapperConfig};
use nearpeer_topology::{RouterId, Topology};

const LANDMARKS: usize = 8;
const SEED: u64 = 42;

/// One cold round 1: arena precompute + landmark selection + all traces.
/// Returns the traced hop total so the work cannot be optimised away.
fn round1(topo: &Topology, landmarks: &[RouterId], peers: &[RouterId], threads: usize) -> usize {
    let oracle = RouteOracle::with_destinations(topo, landmarks);
    let tracer = Tracer::new(&oracle, TraceConfig::default());
    let jobs: Vec<(RouterId, RouterId)> = peers
        .iter()
        .map(|&attach| {
            let closest = landmarks
                .iter()
                .filter_map(|&lm| oracle.rtt_us(attach, lm).map(|rtt| (rtt, lm)))
                .min()
                .map(|(_, lm)| lm)
                .expect("connected map");
            (attach, closest)
        })
        .collect();
    trace_round1(&tracer, &jobs, SEED, threads)
        .iter()
        .map(|t| t.as_ref().expect("connected map").hops.len())
        .sum()
}

fn bench_trace_throughput(c: &mut Criterion) {
    let n_max = 10_000usize;
    let topo =
        mapper(&MapperConfig::with_access(800, n_max + n_max / 10), SEED).expect("mapper topology");
    let landmarks = place_landmarks(&topo, LANDMARKS, PlacementPolicy::DegreeMedium, SEED);
    let access = topo.access_routers();
    let auto = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    let mut group = c.benchmark_group("trace_throughput");
    group.sample_size(10);
    for &n in &[1_000usize, 10_000] {
        let peers = &access[..n];
        for (name, threads) in [("sequential", 1usize), ("parallel", auto)] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| round1(&topo, &landmarks, peers, threads));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_trace_throughput);
criterion_main!(benches);
