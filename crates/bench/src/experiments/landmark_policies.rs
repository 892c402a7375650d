//! Experiment W1 — landmark count and placement.
//!
//! The paper lists "various policies for the management of landmarks,
//! including the number and their placement in the network" as future work.
//! This sweep measures `D/Dclosest` across landmark counts × placement
//! policies on the same map.

use crate::experiments::common::measure_quality;
use crate::runner::run_parallel;
use crate::swarm::{sweep_trace_threads, Swarm, SwarmConfig};
use nearpeer_metrics::{Series, SeriesSet, Table};
use nearpeer_routing::landmarks::PlacementPolicy;
use nearpeer_topology::generators::{mapper, MapperConfig};
use serde::{Deserialize, Serialize};

/// W1 sweep parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LandmarkStudyConfig {
    /// Landmark counts to sweep.
    pub landmark_counts: Vec<usize>,
    /// Placement policies to sweep.
    pub policies: Vec<PlacementPolicy>,
    /// Peers.
    pub n_peers: usize,
    /// Neighbors per peer.
    pub k: usize,
    /// Seeds per point.
    pub seeds: u64,
    /// GLP core size.
    pub core_size: usize,
    /// Peers sampled per quality measurement.
    pub sample: Option<usize>,
}

impl LandmarkStudyConfig {
    /// Standard sweep.
    pub fn standard(seeds: u64) -> Self {
        Self {
            landmark_counts: vec![1, 2, 4, 8, 16],
            policies: PlacementPolicy::all().to_vec(),
            n_peers: 800,
            k: 5,
            seeds,
            core_size: 1_000,
            sample: Some(200),
        }
    }

    /// Reduced sweep for `--quick` and tests.
    pub fn quick() -> Self {
        Self {
            landmark_counts: vec![1, 4],
            policies: vec![PlacementPolicy::Random, PlacementPolicy::DegreeMedium],
            n_peers: 120,
            k: 5,
            seeds: 2,
            core_size: 150,
            sample: Some(60),
        }
    }
}

/// One aggregated sweep point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LandmarkStudyPoint {
    /// Landmark count.
    pub n_landmarks: usize,
    /// Placement policy name.
    pub policy: String,
    /// Mean `D/Dclosest` across seeds.
    pub d_ratio_mean: f64,
}

/// Experiment output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LandmarkStudyResult {
    /// Configuration used.
    pub config: LandmarkStudyConfig,
    /// All sweep points.
    pub points: Vec<LandmarkStudyPoint>,
}

impl LandmarkStudyResult {
    /// One series per policy over landmark count.
    pub fn series(&self) -> SeriesSet {
        let mut set = SeriesSet::new("landmarks", "D/Dclosest");
        for policy in self.config.policies.iter().map(|p| p.name()) {
            let mut s = Series::new(policy);
            for p in self.points.iter().filter(|p| p.policy == policy) {
                s.push(p.n_landmarks as f64, p.d_ratio_mean);
            }
            set.series.push(s);
        }
        set
    }

    /// Rows: landmark count × policy.
    pub fn table(&self) -> Table {
        let mut header = vec!["landmarks".to_string()];
        header.extend(self.config.policies.iter().map(|p| p.name().to_string()));
        let mut t = Table::new(header);
        for &n in &self.config.landmark_counts {
            let mut row = vec![n.to_string()];
            for policy in &self.config.policies {
                let v = self
                    .points
                    .iter()
                    .find(|p| p.n_landmarks == n && p.policy == policy.name())
                    .map(|p| format!("{:.3}", p.d_ratio_mean))
                    .unwrap_or_default();
                row.push(v);
            }
            t.row(row);
        }
        t
    }
}

/// Runs the W1 sweep.
pub fn run(config: &LandmarkStudyConfig, threads: usize) -> LandmarkStudyResult {
    let jobs: Vec<(usize, PlacementPolicy, u64)> = config
        .landmark_counts
        .iter()
        .flat_map(|&n| {
            config
                .policies
                .iter()
                .flat_map(move |&p| (0..config.seeds).map(move |s| (n, p, s)))
        })
        .collect();
    let cfg = config.clone();
    // run_parallel clamps its workers to the job count; budget the inner
    // tracing pools against what will actually run, not what was asked.
    let sweep_workers = threads.clamp(1, jobs.len().max(1));
    let results = run_parallel(jobs, threads, move |(n_landmarks, policy, seed)| {
        let access = (cfg.n_peers as f64 * 1.3) as usize + 16;
        let topo = mapper(&MapperConfig::with_access(cfg.core_size, access), seed)
            .expect("valid mapper config");
        let swarm_cfg = SwarmConfig {
            n_peers: cfg.n_peers,
            n_landmarks,
            placement: policy,
            neighbor_count: cfg.k,
            trace_threads: sweep_trace_threads(sweep_workers),
            ..Default::default()
        };
        let mut swarm = Swarm::build(&topo, &swarm_cfg, seed).expect("swarm builds");
        let q = measure_quality(&mut swarm, seed, cfg.sample);
        (n_landmarks, policy.name().to_string(), q.d_ratio())
    });

    let mut points = Vec::new();
    for &n in &config.landmark_counts {
        for policy in &config.policies {
            let rs: Vec<f64> = results
                .iter()
                .filter(|(pn, pp, _)| *pn == n && pp == policy.name())
                .map(|&(_, _, r)| r)
                .collect();
            if rs.is_empty() {
                continue;
            }
            points.push(LandmarkStudyPoint {
                n_landmarks: n,
                policy: policy.name().to_string(),
                d_ratio_mean: rs.iter().sum::<f64>() / rs.len() as f64,
            });
        }
    }
    LandmarkStudyResult {
        config: config.clone(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_covers_grid() {
        let result = run(&LandmarkStudyConfig::quick(), 4);
        assert_eq!(result.points.len(), 2 * 2);
        for p in &result.points {
            assert!(p.d_ratio_mean >= 1.0, "{p:?}");
            assert!(p.d_ratio_mean < 10.0, "{p:?}");
        }
        assert_eq!(result.table().n_rows(), 2);
        assert_eq!(result.series().series.len(), 2);
    }
}
