//! Experiments C1/C2 — the §2 complexity claims.
//!
//! C1: newcomer insertion is "`O(log n)` — the cost of inserting a new
//! element in an ordered list". C2: the closest-peer query is "`O(1)` —
//! accessing a data in a hash table". We insert populations of synthetic
//! tree-consistent paths into a [`RouterIndex`] and time both operations as
//! the population grows: insertion cost may grow slowly (log-like), query
//! cost must stay flat.

use nearpeer_core::{PeerId, PeerPath, RouterIndex};
use nearpeer_metrics::Table;
use nearpeer_topology::RouterId;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// C1/C2 sweep parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComplexityConfig {
    /// Populations to measure.
    pub populations: Vec<usize>,
    /// Branching factor of the synthetic landmark tree.
    pub branching: u32,
    /// Depth of the synthetic landmark tree (path length).
    pub depth: u32,
    /// Queries timed per population.
    pub queries: usize,
    /// Neighbors per query.
    pub k: usize,
}

impl ComplexityConfig {
    /// The default sweep (1k … 64k peers).
    pub fn standard() -> Self {
        Self {
            populations: vec![1_000, 4_000, 16_000, 64_000],
            branching: 4,
            depth: 10,
            queries: 2_000,
            k: 5,
        }
    }

    /// Reduced sweep for `--quick` and tests.
    pub fn quick() -> Self {
        Self {
            populations: vec![500, 2_000],
            branching: 4,
            depth: 8,
            queries: 200,
            k: 5,
        }
    }
}

/// One measured population size.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ComplexityPoint {
    /// Population.
    pub n: usize,
    /// Mean nanoseconds per insertion.
    pub insert_ns: f64,
    /// Mean nanoseconds per query.
    pub query_ns: f64,
}

/// Experiment output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComplexityResult {
    /// The configuration used.
    pub config: ComplexityConfig,
    /// One point per population.
    pub points: Vec<ComplexityPoint>,
}

impl ComplexityResult {
    /// Paper-style rows, including the growth factor between consecutive
    /// populations (flat ≈ 1.0 for the query column).
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "peers".into(),
            "insert ns".into(),
            "insert growth".into(),
            "query ns".into(),
            "query growth".into(),
        ]);
        let mut prev: Option<&ComplexityPoint> = None;
        for p in &self.points {
            let (gi, gq) = match prev {
                Some(q) => (p.insert_ns / q.insert_ns, p.query_ns / q.query_ns),
                None => (1.0, 1.0),
            };
            t.row(vec![
                p.n.to_string(),
                format!("{:.0}", p.insert_ns),
                format!("{gi:.2}x"),
                format!("{:.0}", p.query_ns),
                format!("{gq:.2}x"),
            ]);
            prev = Some(p);
        }
        t
    }

    /// Whether the measurements support the claims: per population
    /// quadrupling, query cost must grow far slower than the population
    /// (the factor is configurable because wall-clock noise exists).
    pub fn query_is_flat(&self, max_growth_per_step: f64) -> bool {
        self.points
            .windows(2)
            .all(|w| w[1].query_ns <= w[0].query_ns * max_growth_per_step)
    }
}

/// Deterministic synthetic path for peer `i`: a leaf-to-root walk in a
/// `branching`-ary tree of the given depth. Router ids encode (level,
/// prefix) so that peers sharing a prefix share the tree suffix — the same
/// consistency real landmark routes have.
pub fn synthetic_path(i: u64, branching: u32, depth: u32) -> PeerPath {
    let b = branching.max(2) as u64;
    let mut routers = Vec::with_capacity(depth as usize + 1);
    // Access router: unique per peer (top id range, disjoint from the
    // packed (level, prefix) ids below).
    routers.push(RouterId(u32::MAX - i as u32));
    for level in (0..depth).rev() {
        // Peers agreeing on `i mod b^level` share this router — and then
        // share the entire remaining suffix, exactly like tree-consistent
        // landmark routes.
        routers.push(level_router(level, i % b.pow(level)));
    }
    PeerPath::new(routers).expect("synthetic paths are loop-free")
}

fn level_router(level: u32, prefix: u64) -> RouterId {
    // Pack (level, prefix) into 32 bits: 5 bits of level, 27 of prefix.
    RouterId((level << 27) | (prefix as u32 & 0x07FF_FFFF))
}

/// Runs the C1/C2 measurement (single-threaded by design: wall-clock
/// timing must not fight with sibling workers for cores).
pub fn run(config: &ComplexityConfig) -> ComplexityResult {
    let mut points = Vec::with_capacity(config.populations.len());
    for &n in &config.populations {
        let paths: Vec<PeerPath> = (0..n as u64)
            .map(|i| synthetic_path(i, config.branching, config.depth))
            .collect();

        let mut index = RouterIndex::new();
        let start = Instant::now();
        for (i, path) in paths.iter().enumerate() {
            index
                .insert(PeerId(i as u64), path.clone())
                .expect("unique ids");
        }
        let insert_ns = start.elapsed().as_nanos() as f64 / n as f64;

        let start = Instant::now();
        let mut sink = 0usize;
        for q in 0..config.queries {
            let path = &paths[(q * 7919) % paths.len()];
            sink += index.query_nearest(path, config.k, None).len();
        }
        let query_ns = start.elapsed().as_nanos() as f64 / config.queries.max(1) as f64;
        assert!(sink > 0, "queries must return results");

        points.push(ComplexityPoint {
            n,
            insert_ns,
            query_ns,
        });
    }
    ComplexityResult {
        config: config.clone(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_paths_share_suffixes() {
        // Peers 0 and 4 with branching 4: same level-0 root.
        let a = synthetic_path(0, 4, 6);
        let b = synthetic_path(4, 4, 6);
        assert_eq!(a.landmark_router(), b.landmark_router());
        assert_eq!(a.depth(), 6);
        // Distinct access routers.
        assert_ne!(a.attach(), b.attach());
        // dtree exists (they share at least the root).
        assert!(a.dtree(&b).is_some());
    }

    #[test]
    fn deep_trees_unique_leaf_routers() {
        let paths: Vec<PeerPath> = (0..100).map(|i| synthetic_path(i, 4, 8)).collect();
        let mut attach: Vec<RouterId> = paths.iter().map(|p| p.attach()).collect();
        attach.sort();
        attach.dedup();
        assert_eq!(attach.len(), 100);
    }

    #[test]
    fn quick_run_produces_flat_queries() {
        let result = run(&ComplexityConfig::quick());
        assert_eq!(result.points.len(), 2);
        for p in &result.points {
            assert!(p.insert_ns > 0.0);
            assert!(p.query_ns > 0.0);
        }
        // Generous bound: population grew 4x, query time must not.
        assert!(
            result.query_is_flat(3.0),
            "query scaling violated: {:?}",
            result.points
        );
        let t = result.table();
        assert_eq!(t.n_rows(), 2);
    }
}
