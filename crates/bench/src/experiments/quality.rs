//! Experiment F2 — the paper's data figure.
//!
//! Reproduces: x = number of peers ∈ {600 … 1400}, y = `D/Dclosest`
//! (stable, close to 1) and `Drandom/Dclosest` (far above), on a nem-like
//! router map with a few landmarks at medium-degree routers.

use crate::experiments::common::measure_quality;
use crate::runner::run_parallel;
use crate::swarm::{sweep_trace_threads, Swarm, SwarmConfig};
use nearpeer_metrics::{Series, SeriesSet, Summary, Table};
use nearpeer_routing::landmarks::PlacementPolicy;
use nearpeer_topology::generators::{mapper, MapperConfig};
use serde::{Deserialize, Serialize};

/// F2 sweep parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QualityConfig {
    /// The x axis: population sizes.
    pub peer_counts: Vec<usize>,
    /// Landmarks ("few", per the paper).
    pub n_landmarks: usize,
    /// Landmark placement.
    pub placement: PlacementPolicy,
    /// Neighbors per peer.
    pub k: usize,
    /// Seeds per point.
    pub seeds: u64,
    /// GLP core size of the generated map.
    pub core_size: usize,
}

impl QualityConfig {
    /// The paper's sweep (600..1400 peers).
    pub fn paper(seeds: u64) -> Self {
        Self {
            peer_counts: vec![600, 800, 1000, 1200, 1400],
            n_landmarks: 4,
            placement: PlacementPolicy::DegreeMedium,
            k: 5,
            seeds,
            core_size: 1_500,
        }
    }

    /// A reduced sweep for `--quick` runs and tests.
    pub fn quick() -> Self {
        Self {
            peer_counts: vec![100, 200],
            n_landmarks: 3,
            placement: PlacementPolicy::DegreeMedium,
            k: 5,
            seeds: 2,
            core_size: 200,
        }
    }
}

/// One aggregated point of the figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QualityPoint {
    /// Population size.
    pub n: usize,
    /// Mean `D/Dclosest` across seeds.
    pub d_ratio_mean: f64,
    /// Std-dev of `D/Dclosest` across seeds.
    pub d_ratio_std: f64,
    /// Mean `Drandom/Dclosest` across seeds.
    pub random_ratio_mean: f64,
    /// Std-dev of `Drandom/Dclosest` across seeds.
    pub random_ratio_std: f64,
}

/// Full experiment output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QualityResult {
    /// The configuration that produced this result.
    pub config: QualityConfig,
    /// One point per population size.
    pub points: Vec<QualityPoint>,
}

impl QualityResult {
    /// Renders the figure as two named series over n.
    pub fn series(&self) -> SeriesSet {
        let mut set = SeriesSet::new("Number of peers", "ratio to Dclosest");
        let mut rnd = Series::new("Drandom / Dclosest");
        let mut dd = Series::new("D / Dclosest");
        for p in &self.points {
            rnd.push(p.n as f64, p.random_ratio_mean);
            dd.push(p.n as f64, p.d_ratio_mean);
        }
        set.series.push(rnd);
        set.series.push(dd);
        set
    }

    /// Renders the paper-style rows.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "peers".into(),
            "D/Dclosest".into(),
            "± std".into(),
            "Drandom/Dclosest".into(),
            "± std".into(),
        ]);
        for p in &self.points {
            t.row(vec![
                p.n.to_string(),
                format!("{:.3}", p.d_ratio_mean),
                format!("{:.3}", p.d_ratio_std),
                format!("{:.3}", p.random_ratio_mean),
                format!("{:.3}", p.random_ratio_std),
            ]);
        }
        t
    }
}

/// Runs the F2 sweep on `threads` workers.
pub fn run(config: &QualityConfig, threads: usize) -> QualityResult {
    let jobs: Vec<(usize, u64)> = config
        .peer_counts
        .iter()
        .flat_map(|&n| (0..config.seeds).map(move |s| (n, s)))
        .collect();
    let cfg = config.clone();
    // run_parallel clamps its workers to the job count; budget the inner
    // tracing pools against what will actually run, not what was asked.
    let sweep_workers = threads.clamp(1, jobs.len().max(1));
    let ratios = run_parallel(jobs, threads, move |(n, seed)| {
        // Fresh map per seed; enough degree-1 routers for the population.
        let access = (n as f64 * 1.3) as usize + 16;
        let topo = mapper(&MapperConfig::with_access(cfg.core_size, access), seed)
            .expect("mapper config is valid");
        let swarm_cfg = SwarmConfig {
            n_peers: n,
            n_landmarks: cfg.n_landmarks,
            placement: cfg.placement,
            neighbor_count: cfg.k,
            // Share the machine between the sweep workers and each
            // build's round-1 tracing pool (no nested oversubscription).
            trace_threads: sweep_trace_threads(sweep_workers),
            ..Default::default()
        };
        let mut swarm = Swarm::build(&topo, &swarm_cfg, seed).expect("swarm builds");
        let q = measure_quality(&mut swarm, seed, None);
        (n, q.d_ratio(), q.random_ratio())
    });

    let points = config
        .peer_counts
        .iter()
        .map(|&n| {
            let d: Vec<f64> = ratios
                .iter()
                .filter(|&&(pn, _, _)| pn == n)
                .map(|&(_, d, _)| d)
                .collect();
            let r: Vec<f64> = ratios
                .iter()
                .filter(|&&(pn, _, _)| pn == n)
                .map(|&(_, _, r)| r)
                .collect();
            let ds = Summary::new(&d).expect("at least one seed");
            let rs = Summary::new(&r).expect("at least one seed");
            QualityPoint {
                n,
                d_ratio_mean: ds.mean(),
                d_ratio_std: ds.std_dev(),
                random_ratio_mean: rs.mean(),
                random_ratio_std: rs.std_dev(),
            }
        })
        .collect();
    QualityResult {
        config: config.clone(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_has_paper_shape() {
        let result = run(&QualityConfig::quick(), 4);
        assert_eq!(result.points.len(), 2);
        for p in &result.points {
            assert!(p.d_ratio_mean >= 1.0);
            assert!(
                p.d_ratio_mean < p.random_ratio_mean,
                "n={}: D ratio {} !< random {}",
                p.n,
                p.d_ratio_mean,
                p.random_ratio_mean
            );
        }
        let set = result.series();
        assert_eq!(set.series.len(), 2);
        let csv = set.to_csv();
        assert!(csv.contains("D / Dclosest"));
        let table = result.table();
        assert_eq!(table.n_rows(), 2);
    }
}
