//! Seed determinism: the experiment pipeline's randomness must be a pure
//! function of the seed, or no figure in the evaluation is reproducible.
//! Two independent runs with the same seed must produce bit-identical
//! topologies and traceroutes; a different seed must diverge. Thread count
//! must never matter: parallel round-1 tracing has to reproduce the
//! sequential build bit for bit.

use nearpeer::core::federation::RegionId;
use nearpeer::core::PeerId;
use nearpeer::probe::{TraceConfig, Tracer};
use nearpeer::routing::RouteOracle;
use nearpeer::topology::generators::{mapper, MapperConfig};
use nearpeer::topology::{io, RouterId, Topology};
use nearpeer_bench::soak::{run_replay, run_with_state, Churn, Scenario};
use nearpeer_bench::{trace_round1, Swarm, SwarmConfig};

fn generate(seed: u64) -> Topology {
    mapper(&MapperConfig::tiny(), seed).expect("tiny mapper config is valid")
}

#[test]
fn same_seed_same_mapper_topology() {
    let a = generate(42);
    let b = generate(42);
    assert_eq!(a, b, "same seed must reproduce the topology exactly");
    // And not merely structurally: the serialised form is identical too,
    // so maps exported by one run can be trusted by another.
    assert_eq!(io::to_json(&a), io::to_json(&b));
}

#[test]
fn different_seed_different_mapper_topology() {
    let a = generate(42);
    let b = generate(43);
    assert_ne!(a, b, "different seeds must explore different maps");
}

#[test]
fn same_seed_same_traceroute() {
    let run = |seed: u64| {
        let topo = generate(seed);
        let oracle = RouteOracle::new(&topo);
        let tracer = Tracer::new(&oracle, TraceConfig::default());
        let access = topo.access_routers();
        let target = topo
            .routers()
            .max_by_key(|&r| topo.degree(r))
            .expect("non-empty topology");
        // Trace from several access routers; capture the full hop record.
        access
            .iter()
            .take(5)
            .enumerate()
            .map(|(i, &src)| {
                tracer
                    .trace(src, target, i as u64)
                    .map(|t| (t.router_path(), t.elapsed_us))
            })
            .collect::<Vec<_>>()
    };
    let first = run(7);
    let second = run(7);
    assert_eq!(first, second, "same seed must reproduce every traceroute");
    assert!(
        first.iter().any(|t| t.is_some()),
        "at least one trace must succeed for the comparison to mean anything"
    );
}

/// Round 1 may run on any number of threads, including more workers than
/// this host has cores: the traced hop records, probe counts and elapsed
/// costs must be bit-identical to the sequential order, because every peer
/// derives its own RNG stream from `seed ^ i·0x9E37_79B9` and the shared
/// oracle's trees are a pure function of the topology. The default
/// (one-destination-tree) trace path is pinned across thread counts
/// {1,2,4,8} **and across independent reruns** for 2 seeds × 2 topologies.
#[test]
fn parallel_round1_is_bit_identical_to_sequential() {
    let topologies = [
        mapper(&MapperConfig::tiny(), 3).expect("tiny map"),
        mapper(&MapperConfig::with_access(40, 120), 8).expect("wide map"),
    ];
    // Loss and anonymous hops exercise every RNG draw in the tracer.
    let faulty = TraceConfig {
        loss_probability: 0.2,
        anonymous_probability: 0.1,
        ..TraceConfig::default()
    };
    for (t_idx, topo) in topologies.iter().enumerate() {
        for seed in [5u64, 99] {
            for cfg in [TraceConfig::default(), faulty] {
                let oracle = RouteOracle::new(topo);
                let tracer = Tracer::new(&oracle, cfg);
                let target = topo
                    .routers()
                    .max_by_key(|&r| topo.degree(r))
                    .expect("non-empty topology");
                let jobs: Vec<(RouterId, RouterId)> = topo
                    .access_routers()
                    .into_iter()
                    .map(|src| (src, target))
                    .collect();
                let sequential = trace_round1(&tracer, &jobs, seed, 1);
                for threads in [2, 4, 8] {
                    let parallel = trace_round1(&tracer, &jobs, seed, threads);
                    assert_eq!(
                        parallel, sequential,
                        "topology {t_idx}, seed {seed}, threads {threads}"
                    );
                }
                // An independent rerun — fresh oracle, fresh tree cache,
                // fresh scratches — reproduces the whole round bit for bit.
                let rerun_oracle = RouteOracle::new(topo);
                let rerun_tracer = Tracer::new(&rerun_oracle, cfg);
                let rerun = trace_round1(&rerun_tracer, &jobs, seed, 4);
                assert_eq!(rerun, sequential, "topology {t_idx}, seed {seed}, rerun");
                assert!(sequential.iter().all(|t| t.is_some()));
            }
        }
    }
}

/// Churn replay must be a pure function of the trace seed, not of the
/// batching: feeding the same `ChurnTrace` through the batched replay
/// (per-epoch `register_batch`/`leave_batch`/`renew_batch`, what
/// every soak runs) and through the per-event reference (one facade call
/// per event and per heartbeat) must leave **identical directory state**
/// — peers, paths, leases, per-landmark trees, join/leave stats — and
/// identical soak counters.
#[test]
fn churn_replay_modes_produce_identical_directories() {
    for seed in [5u64, 21] {
        let cfg = Churn {
            peers: 300,
            cycles: 2,
            mean_lifetime_secs: 30.0,
            arrival_rate: 40.0,
            failure_fraction: 0.4,
            n_landmarks: 3,
            epochs_per_cycle: 20,
            expire_every: 3,
            max_age: 5,
            heartbeat_every: 2,
            adaptive: None,
        };
        let s = Scenario::single_server(cfg.clone());
        let (seq_result, seq_fed) = run_replay(&s, seed, true).expect("valid scenario");
        let (result, fed) = run_replay(&s, seed, false).expect("valid scenario");
        let (seq_server, server) = (
            seq_fed.region(RegionId(0)).server(),
            fed.region(RegionId(0)).server(),
        );
        let label = format!("seed {seed}");
        assert_eq!(result.counters, seq_result.counters, "{label}");
        assert_eq!(
            result.peak_population, seq_result.peak_population,
            "{label}"
        );
        assert_eq!(
            result.final_population, seq_result.final_population,
            "{label}"
        );
        // Full directory-state equality, not just counters.
        let (s, o) = (seq_server.report(), server.report());
        assert_eq!(o.peers, s.peers, "{label}");
        assert_eq!(o.indexed_routers, s.indexed_routers, "{label}");
        assert_eq!(o.per_landmark, s.per_landmark, "{label}");
        assert_eq!(o.stats.joins, s.stats.joins, "{label}");
        assert_eq!(o.stats.leaves, s.stats.leaves, "{label}");
        assert_eq!(o.epoch, s.epoch, "{label}");
        for p in 0..cfg.peers as u64 {
            let peer = PeerId(p);
            assert_eq!(server.path_of(peer), seq_server.path_of(peer), "{label}");
            assert_eq!(
                server.last_seen(peer),
                seq_server.last_seen(peer),
                "{label}: lease of peer {p}"
            );
        }
    }
}

/// Federated replays must be pure functions of `(seed, region count)`:
/// replaying the same region-biased churn/mobility trace through a fresh
/// federation twice must leave identical counters **and identical
/// directory state** — per-region populations, peer locations, stored
/// paths, lease epochs — for every region count; different seeds must
/// diverge. (Cross-region handovers, forwarding tombstones and
/// federation-aware expiry are all on this path.)
#[test]
fn federated_replays_are_deterministic_across_seeds_and_region_counts() {
    let mut fingerprints = Vec::new();
    for seed in [5u64, 21] {
        for regions in [1usize, 2, 4] {
            let quick = Scenario::named("federation", None).expect("named scenario");
            let cfg = Scenario {
                regions,
                churn: Churn {
                    peers: 250,
                    n_landmarks: 4,
                    cycles: 2,
                    epochs_per_cycle: 20,
                    ..quick.churn.clone()
                },
                ..quick
            };
            let (first, fed_a) = run_with_state(&cfg, seed).expect("valid scenario");
            let (second, fed_b) = run_with_state(&cfg, seed).expect("valid scenario");
            let label = format!("seed {seed}, {regions} regions");
            assert_eq!(first.counters, second.counters, "{label}");
            assert_eq!(first.final_per_region, second.final_per_region, "{label}");
            assert_eq!(first.peak_population, second.peak_population, "{label}");
            assert_eq!(fed_a.peer_count(), fed_b.peer_count(), "{label}");
            assert_eq!(fed_a.tombstone_count(), 0, "{label}: drained");
            for p in 0..cfg.churn.peers as u64 {
                let peer = PeerId(p);
                assert_eq!(
                    fed_a.locate(peer),
                    fed_b.locate(peer),
                    "{label}: location of peer {p}"
                );
            }
            for (ra, rb) in fed_a.regions().iter().zip(fed_b.regions()) {
                let (a, b) = (ra.server().report(), rb.server().report());
                assert_eq!(a.peers, b.peers, "{label}");
                assert_eq!(a.per_landmark, b.per_landmark, "{label}");
                assert_eq!(a.epoch, b.epoch, "{label}");
            }
            fingerprints.push((seed, regions, first.counters));
        }
    }
    // Different seeds must explore different schedules.
    for regions in [1usize, 2, 4] {
        let a = fingerprints
            .iter()
            .find(|(s, r, _)| *s == 5 && *r == regions)
            .unwrap();
        let b = fingerprints
            .iter()
            .find(|(s, r, _)| *s == 21 && *r == regions)
            .unwrap();
        assert_ne!(a.2, b.2, "{regions} regions: seeds 5 and 21 agree?!");
    }
}

/// End to end: a swarm built with forced-parallel tracing matches a swarm
/// built with forced-sequential tracing in every observable — join costs,
/// attachments, and the populated directory's answers.
#[test]
fn parallel_swarm_build_matches_sequential_directory_state() {
    for (topo_seed, swarm_seed) in [(3u64, 5u64), (8, 21)] {
        let topo = mapper(&MapperConfig::tiny(), topo_seed).expect("tiny map");
        let build = |threads: usize| {
            let cfg = SwarmConfig {
                n_peers: 50,
                n_landmarks: 3,
                trace_threads: Some(threads),
                ..Default::default()
            };
            Swarm::build(&topo, &cfg, swarm_seed).expect("swarm builds")
        };
        let seq = build(1);
        let par = build(4);
        assert_eq!(par.landmarks, seq.landmarks);
        assert_eq!(par.attachment, seq.attachment);
        assert_eq!(par.join_cost, seq.join_cost, "probe costs must not drift");
        let (s, p) = (seq.server.report(), par.server.report());
        assert_eq!(p.peers, s.peers);
        assert_eq!(p.indexed_routers, s.indexed_routers);
        assert_eq!(p.per_landmark, s.per_landmark);
        for &peer in &seq.peers {
            assert_eq!(
                par.server.neighbors_of(peer, 5).expect("registered"),
                seq.server.neighbors_of(peer, 5).expect("registered"),
                "{peer} (topo seed {topo_seed}, swarm seed {swarm_seed})"
            );
        }
    }
}

/// The operator report is a function of the registered set: two servers
/// that reach {A, C} by different histories (join A, B, C then leave B,
/// versus join C then A) report the same per-landmark rows. B's access
/// router, and the conflicting parent B reported for router 5, are gone
/// with B.
#[test]
fn report_depends_on_the_registered_set_not_on_history() {
    use nearpeer::core::{LandmarkId, ManagementServer, PeerPath, ServerConfig};
    let path = |ids: &[u32]| PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap();
    let new_server = || {
        let bridges = vec![vec![0, 3], vec![3, 0]];
        ManagementServer::new(
            vec![RouterId(0), RouterId(100)],
            bridges,
            ServerConfig::default(),
        )
        .unwrap()
    };
    let (a, b, c) = (PeerId(1), PeerId(2), PeerId(3));
    let (pa, pc) = (path(&[11, 5, 2, 1, 0]), path(&[13, 5, 2, 1, 0]));
    let mut long = new_server();
    long.register(a, pa.clone()).unwrap();
    long.register(b, path(&[12, 5, 3, 1, 0])).unwrap();
    long.register(c, pc.clone()).unwrap();
    assert_eq!(long.report().per_landmark[0].route_inconsistencies, 1);
    long.deregister(b).unwrap();
    let mut short = new_server();
    short.register(c, pc).unwrap();
    short.register(a, pa).unwrap();

    let (l, s) = (long.report(), short.report());
    assert_eq!(l.per_landmark, s.per_landmark);
    assert_eq!(l.indexed_routers, s.indexed_routers);
    assert_eq!(l.per_landmark[0].tree_routers, 6, "0, 1, 2, 5, 11, 13");
    assert_eq!(l.per_landmark[0].route_inconsistencies, 0);
    let dot = |srv: &ManagementServer| srv.tree(LandmarkId(0)).unwrap().to_dot();
    assert_eq!(dot(&long), dot(&short));
}
