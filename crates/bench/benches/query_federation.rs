//! Federated vs single-server query throughput at 10⁵ peers.
//!
//! Both directories hold the identical synthetic population (8 landmarks,
//! tree-consistent paths); the single server answers from one merged
//! index, the 4-region federation answers through the routing front door
//! — home region plus bridge-ranked foreign regions, with the
//! cross-region fill riding the global landmark distance matrix. A
//! fanout-limited variant shows the recall/fan-out trade, and
//! `actor_federation_4_full` prices the same full-fanout query as a
//! `Shared` federation serves a client's: under its read guard, through
//! `Federation::closest_by_frames`, whose regions answer encoded frames on
//! the calling thread.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nearpeer_bench::wire::synthetic_landmarks;
use nearpeer_bench::{FederatedSwarm, SyntheticJoins};
use nearpeer_core::federation::FederationConfig;
use nearpeer_core::{Federation, PeerId, ServerConfig, Shared};

const PEERS: usize = 100_000;
const LANDMARKS: usize = 8;
const QUERIES_PER_ITER: u64 = 1_000;
const K: usize = 5;

fn bench_query_federation(c: &mut Criterion) {
    let gen = SyntheticJoins::new(LANDMARKS);
    let mut single = gen.server(ServerConfig::default());
    let joins: Vec<_> = (0..PEERS as u64).map(|i| gen.join(i)).collect();
    let absorbed = single.register_batch(joins);
    assert_eq!(absorbed.joined, PEERS);

    let fed_full =
        FederatedSwarm::build_synthetic(LANDMARKS, 4, PEERS, FederationConfig::default())
            .expect("synthetic federation builds");
    let fed_narrow = FederatedSwarm::build_synthetic(
        LANDMARKS,
        4,
        PEERS,
        FederationConfig {
            fanout: Some(1),
            ..FederationConfig::default()
        },
    )
    .expect("synthetic federation builds");
    let (routers, dist) = synthetic_landmarks(LANDMARKS);
    let mut framed = Federation::new(routers, dist, 4, FederationConfig::default())
        .expect("synthetic federation builds");
    for i in 0..PEERS as u64 {
        let (peer, path) = gen.join(i);
        framed.register(peer, path).expect("fresh peer");
    }
    let actor_fed = Shared::new(framed);

    let mut group = c.benchmark_group("query_federation");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("single_server", PEERS),
        &single,
        |b, srv| {
            b.iter(|| {
                let mut total = 0usize;
                for q in 0..QUERIES_PER_ITER {
                    let peer = PeerId((q * 97) % PEERS as u64);
                    total += srv.neighbors_of(peer, K).expect("registered").len();
                }
                total
            });
        },
    );
    for (name, fed) in [
        ("federated_4_full", &fed_full),
        ("federated_4_fanout1", &fed_narrow),
    ] {
        group.bench_with_input(BenchmarkId::new(name, PEERS), &fed.federation, |b, fed| {
            b.iter(|| {
                let mut total = 0usize;
                for q in 0..QUERIES_PER_ITER {
                    let peer = PeerId((q * 97) % PEERS as u64);
                    total += fed.neighbors_of(peer, K).expect("registered").len();
                }
                total
            });
        });
    }
    group.bench_with_input(
        BenchmarkId::new("actor_federation_4_full", PEERS),
        &actor_fed,
        |b, shared| {
            b.iter(|| {
                let mut total = 0usize;
                for q in 0..QUERIES_PER_ITER {
                    let peer = PeerId((q * 97) % PEERS as u64);
                    let fed = shared.read();
                    let (_, path) = fed.locate(peer).expect("registered");
                    total += fed.closest_by_frames(path, K, Some(peer)).len();
                }
                total
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_query_federation);
criterion_main!(benches);
