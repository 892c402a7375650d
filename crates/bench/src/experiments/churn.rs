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

use nearpeer_core::{ManagementServer, PeerId, PeerPath, ServerConfig};
use nearpeer_metrics::Table;
use nearpeer_probe::{TraceConfig, Tracer};
use nearpeer_routing::landmarks::{place_landmarks, PlacementPolicy};
use nearpeer_routing::{bfs_distances, RouteOracle};
use nearpeer_topology::generators::{mapper, MapperConfig};
use nearpeer_topology::RouterId;
use nearpeer_workloads::{ArrivalProcess, ChurnConfig, ChurnEventKind, ChurnTrace};
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
        let mut server = ManagementServer::new(
            bed.landmarks.clone(),
            oracle.landmark_hops(&bed.landmarks),
            ServerConfig {
                neighbor_count: config.k,
                adaptive_leases: None,
            },
        )
        .expect("the study config builds a server");
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
    let mut server = ManagementServer::new(
        bed.landmarks.clone(),
        oracle.landmark_hops(&bed.landmarks),
        ServerConfig {
            neighbor_count: config.k,
            adaptive_leases: None,
        },
    )
    .expect("the study config builds a server");
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
}
