//! Swarm construction: the common setup of every experiment.
//!
//! Mirrors the paper's §3 initialisation: peers attach to degree-1 routers,
//! landmarks to medium-degree routers, every peer traceroutes to its
//! closest landmark (by RTT) and registers with the management server.
//!
//! Both rounds are parallel:
//!
//! * **Round 1 (tracing)** fans the simulated traceroutes out over peer
//!   chunks on std scoped threads, all probing one shared
//!   [`RouteOracle`] whose landmark trees are precomputed into an arena
//!   ([`RouteOracle::with_destinations`]). Every peer's trace seeds its own
//!   RNG (`seed ^ i·0x9E37_79B9`), so the traced paths and probe costs are
//!   bit-identical to a sequential run — `tests/determinism.rs` pins this.
//! * **Round 2 (registration)** is one write-only
//!   [`ManagementServer::register_batch`] call over the traced paths:
//!   inserts grouped by landmark, nobody answered (experiments query the
//!   built swarm themselves). The directory state equals what one
//!   `register` per peer (the paper's protocol) leaves behind — pinned in
//!   `nearpeer-core`.

use nearpeer_core::{
    LandmarkId, ManagementServer, PeerId, PeerPath, ServerConfig, SubscriptionStats,
    TelemetryRegistry,
};
use nearpeer_probe::{TraceConfig, TraceResult, TraceScratch, Tracer};
use nearpeer_routing::landmarks::{place_landmarks, PlacementPolicy};
use nearpeer_routing::{OracleStats, RouteOracle};
use nearpeer_topology::{RouterId, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Swarm-building parameters.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Number of peers to attach and register.
    pub n_peers: usize,
    /// Number of landmarks.
    pub n_landmarks: usize,
    /// Landmark placement policy (the paper uses medium-degree routers).
    pub placement: PlacementPolicy,
    /// Neighbors per join answer (`k`).
    pub neighbor_count: usize,
    /// Traceroute behaviour (probe plan, faults).
    pub trace: TraceConfig,
    /// Worker threads for round-1 tracing; `None` picks
    /// `available_parallelism` (falling back to sequential tracing on
    /// single-core hosts). `Some(1)` forces the sequential path — the
    /// results are bit-identical either way.
    pub trace_threads: Option<usize>,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        Self {
            n_peers: 200,
            n_landmarks: 4,
            placement: PlacementPolicy::DegreeMedium,
            neighbor_count: 5,
            trace: TraceConfig::default(),
            trace_threads: None,
        }
    }
}

/// Per-peer join cost bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinCost {
    /// Traceroute probes sent.
    pub probes: u32,
    /// Wall-clock cost of the traceroute, in microseconds.
    pub trace_elapsed_us: u64,
}

/// Wall-clock split of one [`Swarm::build`] call, phase by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildPhases {
    /// Round 1: oracle arena precompute + closest-landmark selection +
    /// the (parallel) simulated traceroutes + per-peer path/cost
    /// bookkeeping.
    pub trace: Duration,
    /// Round 2: server bootstrap (landmark distance matrix, reusing the
    /// round-1 arena) + feeding the traced paths to the server.
    pub register: Duration,
    /// Trace workers actually used for round 1 (the resolved value of
    /// [`SwarmConfig::trace_threads`]).
    pub trace_threads: usize,
    /// The oracle's tree-accounting counters at the end of the build —
    /// how many shortest-path trees the whole swarm construction cost.
    /// On the default trace path `oracle.lazy_trees_built == 0`: round 1
    /// runs entirely out of the O(landmarks) eager arena (`scale_smoke`
    /// gates this in CI).
    pub oracle: OracleStats,
}

/// A fully initialised swarm: topology + landmarks + populated server.
pub struct Swarm<'t> {
    /// The substrate.
    pub topo: &'t Topology,
    /// The route oracle the swarm was traced through, slimmed back down to
    /// its landmark-tree arena (the per-intermediate-router trees built
    /// during tracing are discarded — they would pin far too much memory
    /// for the swarm's lifetime). Experiments that need ground-truth RTTs
    /// (the coordinate baselines) should reuse it rather than re-running
    /// the landmark BFS set.
    pub oracle: RouteOracle<'t>,
    /// Landmark routers (index = `LandmarkId`).
    pub landmarks: Vec<RouterId>,
    /// The populated management server.
    pub server: ManagementServer,
    /// Registered peers in registration order.
    pub peers: Vec<PeerId>,
    /// Peer → access router.
    pub attachment: HashMap<PeerId, RouterId>,
    /// Peer → traceroute cost.
    pub join_cost: HashMap<PeerId, JoinCost>,
    /// Wall-clock spent in each build phase (trace vs register).
    pub phases: BuildPhases,
}

impl<'t> Swarm<'t> {
    /// Builds a swarm (deterministic per seed).
    ///
    /// Fails if the topology has fewer degree-1 routers than peers, or if a
    /// peer ends up with no reachable landmark.
    pub fn build(topo: &'t Topology, config: &SwarmConfig, seed: u64) -> Result<Self, String> {
        let landmarks = place_landmarks(topo, config.n_landmarks, config.placement, seed);
        if landmarks.is_empty() {
            return Err("no landmarks could be placed".into());
        }
        let mut access = topo.access_routers();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7377_61726d); // "swarm"
        access.shuffle(&mut rng);
        if access.len() < config.n_peers {
            // Families without degree-1 routers (e.g. BA with m >= 2):
            // fall back to the lowest-degree non-landmark routers, which is
            // the closest analogue of "the network edge" those maps offer.
            let taken: std::collections::HashSet<RouterId> = access
                .iter()
                .copied()
                .chain(landmarks.iter().copied())
                .collect();
            let mut fallback: Vec<RouterId> =
                topo.routers().filter(|r| !taken.contains(r)).collect();
            fallback.sort_by_key(|&r| (topo.degree(r), r));
            access.extend(fallback.into_iter().take(config.n_peers - access.len()));
        }
        if access.len() < config.n_peers {
            return Err(format!(
                "topology has only {} usable access routers but {} peers requested",
                access.len(),
                config.n_peers
            ));
        }
        access.truncate(config.n_peers);

        let t_trace = Instant::now();
        // Round 1 for everyone: pick the closest landmark by RTT, then
        // traceroute. The landmark trees are precomputed into the oracle's
        // arena on the same worker count as the traces (so a forced
        // `Some(1)` is genuinely sequential end to end), making the
        // closest-landmark RTT scan and every trace's route extraction
        // lock-free reads; the traces themselves fan out over peer chunks
        // in [`trace_round1`].
        let threads = config.trace_threads.unwrap_or_else(auto_build_threads);
        let mut oracle = RouteOracle::with_destinations_threads(topo, &landmarks, threads);
        let tracer = Tracer::new(&oracle, config.trace);
        let mut jobs: Vec<(RouterId, RouterId)> = Vec::with_capacity(config.n_peers);
        for &attach in &access {
            let closest = landmarks
                .iter()
                .filter_map(|&lm| oracle.rtt_us(attach, lm).map(|rtt| (rtt, lm)))
                .min()
                .map(|(_, lm)| lm)
                .ok_or_else(|| format!("peer at {attach} reaches no landmark"))?;
            jobs.push((attach, closest));
        }
        let traces = trace_round1(&tracer, &jobs, seed, threads);

        let mut peers = Vec::with_capacity(config.n_peers);
        let mut attachment = HashMap::with_capacity(config.n_peers);
        let mut join_cost = HashMap::with_capacity(config.n_peers);
        let mut joins: Vec<(PeerId, PeerPath)> = Vec::with_capacity(config.n_peers);
        for (i, trace) in traces.into_iter().enumerate() {
            let peer = PeerId(i as u64);
            let (attach, closest) = jobs[i];
            let trace = trace.ok_or_else(|| format!("trace from {attach} to {closest} failed"))?;
            let path =
                PeerPath::new(trace.router_path()).map_err(|e| format!("bad traced path: {e}"))?;
            joins.push((peer, path));
            peers.push(peer);
            attachment.insert(peer, attach);
            join_cost.insert(
                peer,
                JoinCost {
                    probes: trace.probes_sent,
                    trace_elapsed_us: trace.elapsed_us,
                },
            );
        }
        let trace_elapsed = t_trace.elapsed();

        let t_register = Instant::now();
        // Reuse the trace oracle: its arena already holds every landmark
        // tree the landmark distance matrix needs.
        let mut server = ManagementServer::new(
            landmarks.clone(),
            oracle.landmark_hops(&landmarks),
            ServerConfig {
                neighbor_count: config.neighbor_count,
                adaptive_leases: None,
            },
        )
        .map_err(|e| e.to_string())?;

        // Round 2: feed the paths to the server.
        let out = server.register_batch(joins);
        if out.joined != peers.len() {
            return Err(format!(
                "registered {} of {} peers ({} renewed, {} rejected)",
                out.joined,
                peers.len(),
                out.renewed,
                out.rejected
            ));
        }
        // Tracing reads everything off the landmark arena; only ad-hoc
        // lookups populate the lazy cache, and that cache is both capped
        // and dropped here — keep only the landmark arena on the stored
        // oracle.
        let oracle_stats = oracle.stats();
        oracle.discard_lazy_trees();
        Ok(Self {
            topo,
            oracle,
            landmarks,
            server,
            peers,
            attachment,
            join_cost,
            phases: BuildPhases {
                trace: trace_elapsed,
                register: t_register.elapsed(),
                trace_threads: threads,
                oracle: oracle_stats,
            },
        })
    }

    /// Mean traceroute probes per join.
    pub fn mean_probes(&self) -> f64 {
        if self.join_cost.is_empty() {
            return 0.0;
        }
        self.join_cost
            .values()
            .map(|c| c.probes as f64)
            .sum::<f64>()
            / self.join_cost.len() as f64
    }

    /// Mean traceroute wall-clock per join, microseconds.
    pub fn mean_trace_elapsed_us(&self) -> f64 {
        if self.join_cost.is_empty() {
            return 0.0;
        }
        self.join_cost
            .values()
            .map(|c| c.trace_elapsed_us as f64)
            .sum::<f64>()
            / self.join_cost.len() as f64
    }
}

/// Renders a stats snapshot through a throwaway [`TelemetryRegistry`] so
/// every offline bench prints the same `name=value` compact line as the
/// live plane's `--stats-every` dumps and `StatsReply` scrapes — one
/// metric vocabulary everywhere, zeros elided.
pub fn registry_stats_line(prefix: &str, fill: impl FnOnce(&TelemetryRegistry)) -> String {
    let reg = TelemetryRegistry::new();
    fill(&reg);
    format!("{prefix}: {}", reg.snapshot().compact_line())
}

/// Registry-snapshot line for an [`OracleStats`], shared by `scale_smoke`,
/// `churn_preview` and `run_all` so tree-count observability reads the
/// same everywhere:
/// `oracle: oracle_arena_hits_total=29000 oracle_eager_trees_total=8 oracle_scratch_reuses_total=7`.
pub fn oracle_stats_line(stats: &OracleStats) -> String {
    registry_stats_line("oracle", |reg| {
        reg.counter("oracle_eager_trees_total")
            .add(stats.eager_trees_built);
        reg.counter("oracle_lazy_trees_total")
            .add(stats.lazy_trees_built);
        reg.counter("oracle_arena_hits_total").add(stats.arena_hits);
        reg.counter("oracle_lazy_hits_total").add(stats.lazy_hits);
        reg.counter("oracle_scratch_reuses_total")
            .add(stats.scratch_reuses);
        reg.counter("oracle_lazy_evictions_total")
            .add(stats.lazy_evictions);
    })
}

/// Registry-snapshot line for a [`SubscriptionStats`], the subscription
/// plane's sibling of [`oracle_stats_line`]. Metric names match what
/// [`SubscriptionRegistry::bind_telemetry`] exposes live, so a soak log
/// line and a `nearpeerd` scrape read identically.
///
/// [`SubscriptionRegistry::bind_telemetry`]: nearpeer_core::SubscriptionRegistry::bind_telemetry
pub fn subs_stats_line(stats: &SubscriptionStats) -> String {
    registry_stats_line("subs", |reg| {
        reg.gauge("sub_active").set(stats.active);
        reg.counter("sub_pushed_total").add(stats.pushed);
        reg.counter("sub_coalesced_total").add(stats.coalesced);
        reg.counter("sub_dropped_to_coalesce_total")
            .add(stats.dropped_to_coalesce);
        reg.counter("sub_refills_total").add(stats.refills);
        // Seed the peak first: `Gauge::set` folds into the high-water
        // mark, so the rendered gauge carries both now and peak.
        let queue = reg.gauge("sub_queue_depth");
        queue.set(stats.peak_queue_depth);
        queue.set(stats.queue_depth);
    })
}

/// Worker count for round-1 tracing when [`SwarmConfig::trace_threads`]
/// is unset: one per core, degenerating to the sequential path on
/// single-core hosts — where scoped threads would only add spawn
/// overhead — and, conservatively, when `available_parallelism` errors.
fn auto_build_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The round-1 trace worker budget for a swarm built **inside a sweep**
/// already running `sweep_workers` parallel jobs (`run_parallel`): the
/// machine's cores divided by the outer worker count, floored at one.
///
/// Without this, every sweep job's `Swarm::build` spawned its own
/// `available_parallelism` tracing pool *under* the sweep's
/// `available_parallelism` workers — `cores²` runnable threads on seed
/// sweeps, all contending for the same cores. Experiments thread this
/// budget into [`SwarmConfig::trace_threads`], so outer × inner never
/// exceeds the machine (`Some(1)` = genuinely sequential inner builds,
/// which on an oversubscribed sweep is exactly right).
pub fn sweep_trace_threads(sweep_workers: usize) -> Option<usize> {
    Some((auto_build_threads() / sweep_workers.max(1)).max(1))
}

/// Per-peer trace seed: each newcomer `i` derives its own RNG stream from
/// the swarm seed, so a trace's outcome depends only on `(topology, config,
/// seed, i)` — never on which thread ran it or in what order.
fn trace_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9E37_79B9)
}

/// Runs round 1 — one simulated traceroute per `(source, landmark)` job —
/// on `threads` std scoped threads over contiguous peer chunks, all
/// sharing one [`Tracer`] (and through it one `Sync` [`RouteOracle`]).
///
/// `results[i]` is job `i`'s trace (`None` if source and landmark are
/// disconnected), **bit-identical** to calling
/// `tracer.trace(jobs[i].0, jobs[i].1, seed ^ i·0x9E37_79B9)` in a plain
/// sequential loop: every peer seeds its own RNG, and the shared oracle's
/// tree cache is write-once per destination. `threads <= 1` runs exactly
/// that sequential loop. Used by [`Swarm::build`] and the
/// `trace_throughput` bench.
pub fn trace_round1(
    tracer: &Tracer<'_, '_>,
    jobs: &[(RouterId, RouterId)],
    seed: u64,
    threads: usize,
) -> Vec<Option<TraceResult>> {
    if threads <= 1 || jobs.len() < 2 {
        let mut scratch = TraceScratch::new();
        return jobs
            .iter()
            .enumerate()
            .map(|(i, &(src, dst))| {
                tracer.trace_with_scratch(src, dst, trace_seed(seed, i), &mut scratch)
            })
            .collect();
    }
    // Contiguous chunks: a trace is tens of microseconds, so per-item
    // dispatch through a channel would dominate the traces themselves.
    let chunk = jobs.len().div_ceil(threads.min(jobs.len()));
    let mut results: Vec<Option<TraceResult>> = vec![None; jobs.len()];
    std::thread::scope(|scope| {
        for (chunk_idx, (jobs_chunk, out_chunk)) in jobs
            .chunks(chunk)
            .zip(results.chunks_mut(chunk))
            .enumerate()
        {
            let base = chunk_idx * chunk;
            scope.spawn(move || {
                // One scratch per worker: route/TTL/coin-flip buffers are
                // reused across the whole chunk.
                let mut scratch = TraceScratch::new();
                for (k, (&(src, dst), slot)) in
                    jobs_chunk.iter().zip(out_chunk.iter_mut()).enumerate()
                {
                    *slot = tracer.trace_with_scratch(
                        src,
                        dst,
                        trace_seed(seed, base + k),
                        &mut scratch,
                    );
                }
            });
        }
    });
    results
}

/// Synthetic tree-consistent join generator for populations where the
/// simulated round-1 traceroutes are prohibitive (the churn soak's
/// 10⁵–10⁶ peers; tracing runs at ~10³ peers/s on one core).
///
/// Router ids pack `(landmark, level, prefix)`, so peers of one landmark
/// share path suffixes exactly like traced routes (exercising the path
/// tree, interning and the router index realistically), each peer gets a
/// unique access router, and distinct landmarks never collide. A peer's
/// landmark and path are **pure functions of its id** — a peer that
/// leaves and rejoins re-traces to the same landmark, so a rejoin before
/// expiry renews the lease instead of being refused as a handover.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticJoins {
    n_landmarks: u32,
    branching: u64,
    depth: u32,
}

impl SyntheticJoins {
    /// A generator over `n_landmarks` landmarks (routers `0..n`), with the
    /// join_throughput bench's shape: branching 4, depth 8.
    pub fn new(n_landmarks: usize) -> Self {
        assert!(
            (1..=64).contains(&n_landmarks),
            "synthetic landmark ids are packed into 6 bits"
        );
        Self {
            n_landmarks: n_landmarks as u32,
            branching: 4,
            depth: 8,
        }
    }

    /// The number of landmarks this generator packs paths for.
    pub fn n_landmarks(&self) -> usize {
        self.n_landmarks as usize
    }

    /// The landmark peer `i` (re-)traces to.
    pub fn landmark_of(&self, peer: u64) -> LandmarkId {
        LandmarkId((peer % self.n_landmarks as u64) as u32)
    }

    /// Peer `i`'s router path: unique access router, shared mid-levels,
    /// terminating at its landmark's router.
    pub fn path(&self, peer: u64) -> PeerPath {
        self.path_to(peer, self.landmark_of(peer))
    }

    /// Peer `i`'s router path when attached under an **arbitrary**
    /// landmark — the federated-mobility case: a move re-traces the peer
    /// to a landmark of the destination region, and the resulting path is
    /// still a pure function of `(peer, landmark)` (so replays stay
    /// deterministic and rejoins renew cleanly).
    pub fn path_to(&self, peer: u64, landmark: LandmarkId) -> PeerPath {
        let lmk = landmark.0;
        debug_assert!(lmk < self.n_landmarks);
        let within = peer / self.n_landmarks as u64;
        let mut routers = Vec::with_capacity(self.depth as usize + 1);
        // Unique access router per peer, top id range (below the packed
        // infrastructure range, above the landmark ids).
        routers.push(RouterId(u32::MAX - peer as u32));
        for level in (1..self.depth).rev() {
            let prefix = (within % self.branching.pow(level)) as u32;
            routers.push(RouterId(0x4000_0000 + (lmk << 24) + (level << 18) + prefix));
        }
        routers.push(RouterId(lmk));
        PeerPath::new(routers).expect("packed id ranges are loop-free")
    }

    /// A join item for peer `i`.
    pub fn join(&self, peer: u64) -> (PeerId, PeerPath) {
        (PeerId(peer), self.path(peer))
    }

    /// A join item for peer `i` under an arbitrary landmark (see
    /// [`Self::path_to`]).
    pub fn join_to(&self, peer: u64, landmark: LandmarkId) -> (PeerId, PeerPath) {
        (PeerId(peer), self.path_to(peer, landmark))
    }

    /// A management server whose landmarks match this generator (all
    /// landmark pairs 4 hops apart — churn replay is write-side work, the
    /// bridge matrix only matters to queries).
    pub fn server(&self, config: ServerConfig) -> ManagementServer {
        let routers: Vec<RouterId> = (0..self.n_landmarks).map(RouterId).collect();
        let dist: Vec<Vec<u32>> = (0..self.n_landmarks)
            .map(|i| {
                (0..self.n_landmarks)
                    .map(|j| if i == j { 0 } else { 4 })
                    .collect()
            })
            .collect();
        ManagementServer::new(routers, dist, config).expect("a valid server config")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpeer_topology::generators::{mapper, MapperConfig};

    fn tiny_topo() -> Topology {
        mapper(&MapperConfig::tiny(), 5).unwrap()
    }

    #[test]
    fn builds_and_registers_everyone() {
        let topo = tiny_topo();
        let cfg = SwarmConfig {
            n_peers: 40,
            n_landmarks: 3,
            ..Default::default()
        };
        let swarm = Swarm::build(&topo, &cfg, 1).unwrap();
        assert_eq!(swarm.peers.len(), 40);
        assert_eq!(swarm.server.peer_count(), 40);
        assert_eq!(swarm.landmarks.len(), 3);
        assert!(swarm.mean_probes() > 0.0);
        assert!(swarm.mean_trace_elapsed_us() > 0.0);
        // Every peer is attached to a distinct access router.
        let mut routers: Vec<RouterId> = swarm.attachment.values().copied().collect();
        routers.sort();
        routers.dedup();
        assert_eq!(routers.len(), 40);
        for r in routers {
            assert_eq!(topo.degree(r), 1, "{r} is not an access router");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let topo = tiny_topo();
        let cfg = SwarmConfig {
            n_peers: 20,
            ..Default::default()
        };
        let a = Swarm::build(&topo, &cfg, 3).unwrap();
        let b = Swarm::build(&topo, &cfg, 3).unwrap();
        assert_eq!(a.landmarks, b.landmarks);
        assert_eq!(a.attachment, b.attachment);
        let c = Swarm::build(&topo, &cfg, 4).unwrap();
        assert!(a.attachment != c.attachment || a.landmarks != c.landmarks);
    }

    #[test]
    fn too_many_peers_fails_cleanly() {
        let topo = tiny_topo();
        let cfg = SwarmConfig {
            n_peers: 100_000,
            ..Default::default()
        };
        match Swarm::build(&topo, &cfg, 1) {
            Err(err) => assert!(err.contains("access routers"), "{err}"),
            Ok(_) => panic!("oversized swarm must fail"),
        }
    }

    #[test]
    fn every_peer_gets_neighbors_once_populated() {
        let topo = tiny_topo();
        let cfg = SwarmConfig {
            n_peers: 30,
            ..Default::default()
        };
        let swarm = Swarm::build(&topo, &cfg, 2).unwrap();
        for &peer in &swarm.peers {
            let neigh = swarm.server.neighbors_of(peer, 5).unwrap();
            assert!(
                !neigh.is_empty(),
                "{peer} got no neighbors in a 30-peer swarm"
            );
            assert!(neigh.iter().all(|n| n.peer != peer));
        }
    }

    #[test]
    fn parallel_tracing_is_bit_identical_to_sequential() {
        let topo = tiny_topo();
        let oracle = RouteOracle::new(&topo);
        // Loss + anonymous hops exercise every RNG draw in the tracer.
        let cfg = TraceConfig {
            loss_probability: 0.25,
            anonymous_probability: 0.15,
            ..TraceConfig::default()
        };
        let tracer = Tracer::new(&oracle, cfg);
        let access = topo.access_routers();
        let target = topo
            .routers()
            .max_by_key(|&r| topo.degree(r))
            .expect("non-empty");
        let jobs: Vec<(RouterId, RouterId)> = access.iter().map(|&src| (src, target)).collect();
        let sequential = trace_round1(&tracer, &jobs, 11, 1);
        // Forced thread counts, including ones that don't divide the job
        // list evenly and more workers than this host has cores.
        for threads in [2, 3, 8] {
            let parallel = trace_round1(&tracer, &jobs, 11, threads);
            assert_eq!(parallel, sequential, "threads={threads}");
        }
        assert!(sequential.iter().all(|t| t.is_some()));
    }

    // Full-swarm parallel == sequential equivalence (directory state, join
    // costs, attachments across seeds/topologies) is pinned by
    // tests/determinism.rs; here we only cover the builder's bookkeeping.
    #[test]
    fn build_reports_phase_split() {
        let topo = tiny_topo();
        let cfg = SwarmConfig {
            n_peers: 30,
            trace_threads: Some(3),
            ..Default::default()
        };
        let swarm = Swarm::build(&topo, &cfg, 1).unwrap();
        assert!(swarm.phases.trace > Duration::ZERO);
        assert!(swarm.phases.register > Duration::ZERO);
        assert_eq!(swarm.phases.trace_threads, 3);
    }

    #[test]
    fn synthetic_joins_register_and_rejoin_cleanly() {
        let gen = SyntheticJoins::new(3);
        let mut server = gen.server(ServerConfig::default());
        let joins: Vec<_> = (0..60u64).map(|i| gen.join(i)).collect();
        let out = server.register_batch(joins.clone());
        assert_eq!((out.joined, out.renewed, out.rejected), (60, 0, 0));
        // Paths are pure functions of the id: every rejoin renews.
        server.advance_epoch().unwrap();
        let again = server.register_batch(joins);
        assert_eq!((again.joined, again.renewed), (0, 60));
        for i in 0..60u64 {
            assert_eq!(server.landmark_of(PeerId(i)), Some(gen.landmark_of(i)));
        }
    }
}
