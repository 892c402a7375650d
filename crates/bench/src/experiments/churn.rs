//! Experiment W3 — churn, faulty peers and handover.
//!
//! The paper's future work: "the mobility will require specific algorithms,
//! managing both faulty peers and handover". This study replays churn
//! traces against the management server and measures:
//!
//! * **staleness** — the fraction of neighbors handed to a newcomer that
//!   already failed silently (graceful leavers deregister, faulty peers
//!   cannot);
//! * **handover quality** — after a mobility re-attach + handover, whether
//!   the fresh neighbor list is as good as a brand-new join's.

use nearpeer_core::landmarks::{place_landmarks, PlacementPolicy};
use nearpeer_core::{ManagementServer, PeerId, PeerPath, ServerConfig};
use nearpeer_metrics::Table;
use nearpeer_probe::{TraceConfig, Tracer};
use nearpeer_routing::{bfs_distances, RouteOracle};
use nearpeer_topology::generators::{mapper, MapperConfig};
use nearpeer_topology::RouterId;
use nearpeer_workloads::{ArrivalProcess, ChurnConfig, ChurnEvent, ChurnEventKind, ChurnTrace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// W3 parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnStudyConfig {
    /// Failure fractions to sweep (0 = all departures graceful).
    pub failure_fractions: Vec<f64>,
    /// Peers over the trace.
    pub n_peers: usize,
    /// Mean session length, seconds.
    pub mean_lifetime_secs: f64,
    /// Join rate, per second.
    pub arrival_rate: f64,
    /// Landmarks.
    pub n_landmarks: usize,
    /// Neighbors per join.
    pub k: usize,
    /// GLP core size.
    pub core_size: usize,
    /// Handovers to measure for the mobility half of the study.
    pub handovers: usize,
}

impl ChurnStudyConfig {
    /// Standard configuration.
    pub fn standard() -> Self {
        Self {
            failure_fractions: vec![0.0, 0.25, 0.5, 1.0],
            n_peers: 600,
            mean_lifetime_secs: 60.0,
            arrival_rate: 10.0,
            n_landmarks: 4,
            k: 5,
            core_size: 500,
            handovers: 100,
        }
    }

    /// Reduced configuration for `--quick` and tests.
    pub fn quick() -> Self {
        Self {
            failure_fractions: vec![0.0, 1.0],
            n_peers: 120,
            mean_lifetime_secs: 20.0,
            arrival_rate: 10.0,
            n_landmarks: 3,
            k: 4,
            core_size: 120,
            handovers: 20,
        }
    }
}

/// One failure-fraction point.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ChurnPoint {
    /// The swept failure fraction.
    pub failure_fraction: f64,
    /// Mean fraction of stale (silently dead) peers in join answers.
    pub staleness: f64,
    /// Joins measured.
    pub joins: usize,
}

/// Experiment output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnStudyResult {
    /// Configuration used.
    pub config: ChurnStudyConfig,
    /// One point per failure fraction.
    pub churn_points: Vec<ChurnPoint>,
    /// Mean `D/Dclosest`-style hop cost of neighbor sets right after a
    /// handover, divided by the cost right before it (≤ 1 means the
    /// handover improved locality, as it should after moving).
    pub handover_improvement: f64,
    /// Handovers measured.
    pub handovers_measured: usize,
}

impl ChurnStudyResult {
    /// Paper-style rows.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "failure fraction".into(),
            "stale neighbors".into(),
            "joins".into(),
        ]);
        for p in &self.churn_points {
            t.row(vec![
                format!("{:.0}%", p.failure_fraction * 100.0),
                format!("{:.2}%", p.staleness * 100.0),
                p.joins.to_string(),
            ]);
        }
        t
    }
}

struct TestBed {
    topo: nearpeer_topology::Topology,
    landmarks: Vec<RouterId>,
    access: Vec<RouterId>,
}

fn build_bed(config: &ChurnStudyConfig, seed: u64) -> TestBed {
    let access_count = (config.n_peers as f64 * 1.5) as usize + 32;
    let topo = mapper(
        &MapperConfig::with_access(config.core_size, access_count),
        seed,
    )
    .expect("valid mapper config");
    let landmarks = place_landmarks(
        &topo,
        config.n_landmarks,
        PlacementPolicy::DegreeMedium,
        seed,
    );
    let access = topo.access_routers();
    TestBed {
        topo,
        landmarks,
        access,
    }
}

fn trace_path(bed: &TestBed, tracer: &Tracer<'_, '_>, attach: RouterId, seed: u64) -> PeerPath {
    let closest = bed
        .landmarks
        .iter()
        .filter_map(|&lm| tracer.oracle().rtt_us(attach, lm).map(|rtt| (rtt, lm)))
        .min()
        .map(|(_, lm)| lm)
        .expect("connected map");
    let trace = tracer.trace(attach, closest, seed).expect("connected map");
    PeerPath::new(trace.router_path()).expect("traced paths are valid")
}

/// Runs the churn + handover study.
pub fn run(config: &ChurnStudyConfig, seed: u64) -> ChurnStudyResult {
    let bed = build_bed(config, seed);
    // Every (re-)trace targets a landmark: precompute those trees.
    let oracle = RouteOracle::with_destinations(&bed.topo, &bed.landmarks);
    let tracer = Tracer::new(&oracle, TraceConfig::default());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4423);

    // --- Churn staleness sweep. ---
    let mut churn_points = Vec::new();
    for &frac in &config.failure_fractions {
        let trace = ChurnTrace::generate(
            &ChurnConfig {
                peers: config.n_peers,
                arrivals: ArrivalProcess::Poisson {
                    rate_per_sec: config.arrival_rate,
                },
                mean_lifetime_secs: Some(config.mean_lifetime_secs),
                failure_fraction: frac,
            },
            seed,
        );
        let mut server = ManagementServer::bootstrap_with_oracle(
            &oracle,
            bed.landmarks.clone(),
            ServerConfig {
                neighbor_count: config.k,
                cross_landmark_fallback: true,
                adaptive_leases: None,
            },
        );
        let mut attach_of: HashMap<usize, RouterId> = HashMap::new();
        let mut dead: HashSet<PeerId> = HashSet::new();
        let mut stale_sum = 0.0f64;
        let mut joins = 0usize;
        for event in &trace.events {
            let peer = PeerId(event.peer as u64);
            match event.kind {
                ChurnEventKind::Join => {
                    let attach = *attach_of
                        .entry(event.peer)
                        .or_insert_with(|| bed.access[rng.gen_range(0..bed.access.len())]);
                    let path = trace_path(&bed, &tracer, attach, seed ^ event.peer as u64);
                    let out = server.register(peer, path).expect("ids unique per trace");
                    if !out.neighbors.is_empty() {
                        let stale = out
                            .neighbors
                            .iter()
                            .filter(|n| dead.contains(&n.peer))
                            .count();
                        stale_sum += stale as f64 / out.neighbors.len() as f64;
                        joins += 1;
                    }
                }
                ChurnEventKind::Leave => {
                    let _ = server.deregister(peer);
                }
                ChurnEventKind::Fail => {
                    // Silent failure: the server keeps the stale record.
                    dead.insert(peer);
                }
            }
        }
        churn_points.push(ChurnPoint {
            failure_fraction: frac,
            staleness: if joins == 0 {
                0.0
            } else {
                stale_sum / joins as f64
            },
            joins,
        });
    }

    // --- Handover quality. ---
    let mut server = ManagementServer::bootstrap_with_oracle(
        &oracle,
        bed.landmarks.clone(),
        ServerConfig {
            neighbor_count: config.k,
            cross_landmark_fallback: true,
            adaptive_leases: None,
        },
    );
    let mut pool = bed.access.clone();
    pool.shuffle(&mut rng);
    let population = config.n_peers.min(pool.len().saturating_sub(1));
    let mut attach: HashMap<PeerId, RouterId> = HashMap::new();
    for (i, &router) in pool.iter().take(population).enumerate() {
        let peer = PeerId(i as u64);
        let path = trace_path(&bed, &tracer, router, seed ^ i as u64);
        server.register(peer, path).expect("unique ids");
        attach.insert(peer, router);
    }
    let set_cost = |neighbors: &[nearpeer_core::Neighbor],
                    from: RouterId,
                    attach: &HashMap<PeerId, RouterId>|
     -> u64 {
        let dist = bfs_distances(&bed.topo, from);
        neighbors
            .iter()
            .filter_map(|n| attach.get(&n.peer))
            .map(|r| dist[r.index()] as u64)
            .sum()
    };
    let mut before_sum = 0u64;
    let mut after_sum = 0u64;
    let mut measured = 0usize;
    let spare: Vec<RouterId> = pool[population..].to_vec();
    for h in 0..config.handovers.min(population) {
        let peer = PeerId((h % population) as u64);
        if spare.is_empty() {
            break;
        }
        let new_attach = spare[rng.gen_range(0..spare.len())];
        // Cost of the old neighbor list as seen from the NEW location.
        let old_neighbors = server.neighbors_of(peer, config.k).expect("registered");
        before_sum += set_cost(&old_neighbors, new_attach, &attach);
        // Handover: re-trace from the new attachment.
        let path = trace_path(&bed, &tracer, new_attach, seed ^ (h as u64) << 32);
        let out = server.handover(peer, path).expect("registered");
        attach.insert(peer, new_attach);
        after_sum += set_cost(&out.neighbors, new_attach, &attach);
        measured += 1;
    }
    let handover_improvement = if before_sum == 0 {
        1.0
    } else {
        after_sum as f64 / before_sum as f64
    };

    ChurnStudyResult {
        config: config.clone(),
        churn_points,
        handover_improvement,
        handovers_measured: measured,
    }
}

// --- Million-peer churn soak (the batched lease path). ---

use crate::swarm::SyntheticJoins;
use nearpeer_core::SweepStats;
use std::time::Instant;

/// Soak parameters: a W3 churn trace replayed onto a synthetic swarm at
/// populations where simulated tracing is prohibitive. Every epoch window
/// reaches the directory as one `register_batch`, one
/// `leave_batch` and one `renew_batch` call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnSoakConfig {
    /// Peers per trace cycle.
    pub peers: usize,
    /// Full trace replays; cycles ≥ 2 make departed peers rejoin, driving
    /// the renewal-piggyback path (a silently failed peer coming back
    /// before its lease lapsed).
    pub cycles: usize,
    /// Mean session length, seconds (exponential).
    pub mean_lifetime_secs: f64,
    /// Join rate, per second (Poisson).
    pub arrival_rate: f64,
    /// Fraction of departures that fail silently instead of leaving.
    pub failure_fraction: f64,
    /// Landmarks (= directory shards).
    pub n_landmarks: usize,
    /// Epoch windows the trace is sliced into per cycle (the heartbeat
    /// grid; window width = trace span / this).
    pub epochs_per_cycle: usize,
    /// Lease expiry sweep cadence, in epochs.
    pub expire_every: u64,
    /// Lease length: a peer not seen for more than this many epochs is
    /// expired at the next sweep.
    pub max_age: u64,
    /// Heartbeat cadence: every epoch, the live peers whose id falls in
    /// the epoch's stride group renew their lease (batched through
    /// `renew_batch`). Must be < `max_age`, or live peers' leases lapse
    /// between heartbeats.
    pub heartbeat_every: u64,
    /// Adaptive lease lengths for the directory (per-peer `max_age` from
    /// the session EWMA, capped to the configured band); `None` = the
    /// uniform `max_age` lease.
    pub adaptive: Option<nearpeer_core::AdaptiveLeaseConfig>,
}

impl ChurnSoakConfig {
    /// The CI smoke shape: 10⁵ peers, one cycle.
    pub fn smoke() -> Self {
        Self {
            peers: 100_000,
            cycles: 1,
            mean_lifetime_secs: 60.0,
            arrival_rate: 1_000.0,
            failure_fraction: 0.3,
            n_landmarks: 8,
            epochs_per_cycle: 128,
            expire_every: 4,
            max_age: 8,
            heartbeat_every: 4,
            adaptive: None,
        }
    }

    /// A reduced shape for unit tests.
    pub fn quick() -> Self {
        Self {
            peers: 400,
            cycles: 2,
            mean_lifetime_secs: 30.0,
            arrival_rate: 50.0,
            failure_fraction: 0.4,
            n_landmarks: 3,
            epochs_per_cycle: 24,
            expire_every: 3,
            max_age: 5,
            heartbeat_every: 2,
            adaptive: None,
        }
    }
}

/// Event dispositions accumulated over a soak replay. Deterministic per
/// `(config, seed)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnSoakCounters {
    /// Fresh registrations (lease opened).
    pub joins: u64,
    /// Rejoins renewed through the register path (lease refreshed, path
    /// kept).
    pub renewals: u64,
    /// Heartbeat renewals (batched `renew_batch` rounds).
    pub heartbeats: u64,
    /// Join items rejected (should be 0 for synthetic traces).
    pub rejected: u64,
    /// Graceful departures that found a registration to remove.
    pub leaves: u64,
    /// Silent failures (no server interaction — the lease must catch
    /// them).
    pub fails: u64,
    /// Leases expired by the sweeps.
    pub expired: u64,
    /// Heartbeat epochs driven (non-empty trace windows).
    pub epochs: u64,
    /// Trace events applied.
    pub events: u64,
}

/// Soak output: counters, population extremes, throughput and the lease
/// arena's cumulative sweep cost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnSoakResult {
    /// Configuration used.
    pub config: ChurnSoakConfig,
    /// Event dispositions.
    pub counters: ChurnSoakCounters,
    /// Largest registered population observed at an epoch boundary.
    pub peak_population: usize,
    /// Registered peers left after the replay (silent failures whose
    /// lease had not yet lapsed).
    pub final_population: usize,
    /// Distinct routers the server's index holds after the replay.
    pub indexed_routers: usize,
    /// Distinct routers on the residual population's stored paths; the
    /// index holding any other router is a leak.
    pub live_path_routers: usize,
    /// Wall-clock seconds for the replay (excluding trace generation).
    pub elapsed_secs: f64,
    /// Trace events applied per second of replay.
    pub events_per_sec: f64,
    /// Summed per-shard expiry sweep cost — evidence the sweeps stay
    /// linear in lease activity (compare `entries_swept` against
    /// `counters.events`, not against population × epochs).
    pub sweep_entries: u64,
    /// Epoch buckets retired across all shards.
    pub sweep_buckets: u64,
}

/// Feeds one epoch window to the directory: the window's trace events,
/// then the heartbeat round of `beats`.
type ApplyEpoch =
    fn(&mut ManagementServer, &SyntheticJoins, &[ChurnEvent], &[PeerId], &mut ChurnSoakCounters);

/// One `register_batch`, one `leave_batch` and one `renew_batch`
/// call per epoch window.
fn apply_batched(
    server: &mut ManagementServer,
    gen: &SyntheticJoins,
    events: &[ChurnEvent],
    beats: &[PeerId],
    counters: &mut ChurnSoakCounters,
) {
    let mut joins: Vec<(PeerId, PeerPath)> = Vec::new();
    let mut leave_ids: Vec<PeerId> = Vec::new();
    for ev in events {
        match ev.kind {
            ChurnEventKind::Join => joins.push(gen.join(ev.peer as u64)),
            ChurnEventKind::Leave => leave_ids.push(PeerId(ev.peer as u64)),
            ChurnEventKind::Fail => counters.fails += 1,
        }
    }
    let out = server.register_batch(joins);
    counters.joins += out.joined as u64;
    counters.renewals += out.renewed as u64;
    counters.rejected += out.rejected as u64;
    counters.leaves += server.leave_batch(&leave_ids) as u64;
    counters.heartbeats += server.renew_batch(beats) as u64;
}

/// One facade call per event and per heartbeat — the deployed protocol's
/// shape.
fn apply_per_event(
    server: &mut ManagementServer,
    gen: &SyntheticJoins,
    events: &[ChurnEvent],
    beats: &[PeerId],
    counters: &mut ChurnSoakCounters,
) {
    for ev in events {
        apply_batched(server, gen, std::slice::from_ref(ev), &[], counters);
    }
    for beat in beats {
        apply_batched(server, gen, &[], std::slice::from_ref(beat), counters);
    }
}

/// Runs a churn soak and also hands back the populated server, so callers
/// (the determinism suite) can inspect the directory state it leaves.
pub fn run_soak_with_server(
    cfg: &ChurnSoakConfig,
    seed: u64,
) -> (ChurnSoakResult, ManagementServer) {
    replay(cfg, seed, apply_batched)
}

/// The reference the batched replay is checked against: the same trace,
/// heartbeat rounds and sweeps, with every event and heartbeat its own
/// facade call. `tests/determinism.rs` asserts both leave identical
/// directories; no binary replays this way.
#[doc(hidden)]
pub fn run_soak_per_event_reference(
    cfg: &ChurnSoakConfig,
    seed: u64,
) -> (ChurnSoakResult, ManagementServer) {
    replay(cfg, seed, apply_per_event)
}

fn replay(
    cfg: &ChurnSoakConfig,
    seed: u64,
    apply: ApplyEpoch,
) -> (ChurnSoakResult, ManagementServer) {
    let gen = SyntheticJoins::new(cfg.n_landmarks);
    let mut server = gen.server(ServerConfig {
        neighbor_count: 5,
        cross_landmark_fallback: false,
        adaptive_leases: cfg.adaptive,
    });
    let trace = ChurnTrace::generate(
        &ChurnConfig {
            peers: cfg.peers,
            arrivals: ArrivalProcess::Poisson {
                rate_per_sec: cfg.arrival_rate,
            },
            mean_lifetime_secs: Some(cfg.mean_lifetime_secs),
            failure_fraction: cfg.failure_fraction,
        },
        seed,
    );
    let width = (trace.span_us() / cfg.epochs_per_cycle.max(1) as u64).max(1);
    assert!(cfg.expire_every >= 1, "expiry cadence must be >= 1 epoch");
    assert!(
        cfg.heartbeat_every >= 1 && cfg.heartbeat_every < cfg.max_age,
        "live peers must heartbeat within their lease"
    );
    let mut counters = ChurnSoakCounters::default();
    let mut peak = 0usize;
    // Heartbeat bookkeeping, driven by the trace alone: which peers are
    // nominally alive, and one stride group per heartbeat phase so each
    // epoch renews ~1/stride of the population.
    let mut alive = vec![false; cfg.peers];
    let mut grouped = vec![false; cfg.peers];
    let mut groups: Vec<Vec<usize>> = (0..cfg.heartbeat_every).map(|_| Vec::new()).collect();
    let t0 = Instant::now();
    for _cycle in 0..cfg.cycles {
        for (_idx, events) in trace.windows(width) {
            server.advance_epoch();
            counters.epochs += 1;
            counters.events += events.len() as u64;
            for ev in events {
                match ev.kind {
                    ChurnEventKind::Join => {
                        alive[ev.peer] = true;
                        if !grouped[ev.peer] {
                            grouped[ev.peer] = true;
                            groups[ev.peer % cfg.heartbeat_every as usize].push(ev.peer);
                        }
                    }
                    ChurnEventKind::Leave | ChurnEventKind::Fail => alive[ev.peer] = false,
                }
            }
            // This epoch's stride group of live peers heartbeats after
            // the events and before the sweep — a peer checking in this
            // epoch must not be expired by it.
            let phase = (counters.epochs % cfg.heartbeat_every) as usize;
            let beats: Vec<PeerId> = groups[phase]
                .iter()
                .filter(|&&p| alive[p])
                .map(|&p| PeerId(p as u64))
                .collect();
            apply(&mut server, &gen, events, &beats, &mut counters);
            if counters.epochs % cfg.expire_every == 0 {
                counters.expired += server.expire_stale(cfg.max_age).len() as u64;
            }
            peak = peak.max(server.peer_count());
        }
    }
    let elapsed = t0.elapsed();
    let sweep: SweepStats = server
        .shards()
        .iter()
        .fold(SweepStats::default(), |acc, s| {
            let st = s.leases().sweep_stats();
            SweepStats {
                entries_swept: acc.entries_swept + st.entries_swept,
                buckets_swept: acc.buckets_swept + st.buckets_swept,
            }
        });
    let live_path_routers: HashSet<RouterId> = server
        .shards()
        .iter()
        .flat_map(|s| s.peers().filter_map(|p| s.path_of(p)))
        .flat_map(|path| path.routers().iter().copied())
        .collect();
    let result = ChurnSoakResult {
        config: cfg.clone(),
        counters,
        peak_population: peak,
        final_population: server.peer_count(),
        indexed_routers: server.index().n_routers(),
        live_path_routers: live_path_routers.len(),
        elapsed_secs: elapsed.as_secs_f64(),
        events_per_sec: counters.events as f64 / elapsed.as_secs_f64().max(1e-9),
        sweep_entries: sweep.entries_swept,
        sweep_buckets: sweep.buckets_swept,
    };
    (result, server)
}

/// Runs a churn soak (see [`ChurnSoakConfig`]).
pub fn run_soak(cfg: &ChurnSoakConfig, seed: u64) -> ChurnSoakResult {
    run_soak_with_server(cfg, seed).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_create_staleness_and_handover_helps() {
        let result = run(&ChurnStudyConfig::quick(), 5);
        assert_eq!(result.churn_points.len(), 2);
        let graceful = &result.churn_points[0];
        let faulty = &result.churn_points[1];
        assert_eq!(graceful.failure_fraction, 0.0);
        assert_eq!(
            graceful.staleness, 0.0,
            "graceful leavers must never be handed out stale"
        );
        assert!(
            faulty.staleness > 0.0,
            "silent failures must show up as stale neighbors"
        );
        assert!(result.handovers_measured > 0);
        assert!(
            result.handover_improvement <= 1.05,
            "handover made neighbor sets worse: {}",
            result.handover_improvement
        );
        assert_eq!(result.table().n_rows(), 2);
    }

    #[test]
    fn soak_counters_add_up_and_sweeps_stay_linear() {
        let cfg = ChurnSoakConfig::quick();
        let (result, server) = run_soak_with_server(&cfg, 11);
        let c = result.counters;
        // Every trace event lands in exactly one disposition. Join events
        // split into fresh joins vs renewals (cycle 2 rejoins peers whose
        // lease survived); departures into graceful leaves (some find the
        // peer already expired and count nothing) and silent fails.
        assert_eq!(c.events, (cfg.peers as u64 * 2) * cfg.cycles as u64);
        assert_eq!(c.rejected, 0, "synthetic paths always hit a landmark");
        assert_eq!(
            c.joins + c.renewals,
            cfg.peers as u64 * cfg.cycles as u64,
            "every join event either opens or renews a lease"
        );
        assert!(c.renewals > 0, "cycle 2 must drive the renewal path");
        assert!(c.heartbeats > 0, "live peers must heartbeat");
        assert!(c.expired > 0, "silent failures must be expired by leases");
        // Conservation: everyone who joined has left, failed-and-expired,
        // or is still registered.
        assert_eq!(
            c.joins,
            c.leaves + c.expired + result.final_population as u64
        );
        assert!(result.peak_population > 0);
        assert_eq!(server.peer_count(), result.final_population);
        assert_eq!(result.indexed_routers, result.live_path_routers);
        // The epoch-bucketed sweep touches noted lease activity only (one
        // note per open/renewal, re-notes bounded by sweeps), far below
        // the full-scan worst case of population × sweeps.
        let noted = c.joins + c.renewals + c.heartbeats;
        assert!(
            result.sweep_entries <= 2 * noted,
            "sweep cost {} exceeds twice the noted activity {}",
            result.sweep_entries,
            noted
        );
    }

    #[test]
    fn soak_modes_agree_at_small_scale() {
        let cfg = ChurnSoakConfig::quick();
        let base = run_soak(&cfg, 3);
        let (seq, _) = run_soak_per_event_reference(&cfg, 3);
        assert_eq!(seq.counters, base.counters);
        assert_eq!(seq.final_population, base.final_population);
        assert_eq!(seq.peak_population, base.peak_population);
    }
}
