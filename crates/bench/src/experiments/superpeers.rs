//! Experiment W2 — super-peers.
//!
//! The paper is "investigating the opportunity to use some super-peers".
//! This study populates a swarm, feeding a [`SuperPeerDirectory`] beside
//! the management server's joins, and sweeps the promotion threshold,
//! reporting how much of the join load a super-peer tier could absorb.
//!
//! The natural reading in the path-tree architecture: the tree region below
//! a router close to the landmark (a branch of the landmark tree) elects one
//! member peer as its *super-peer*, which can then absorb closest-peer
//! queries for newcomers landing in the same region — offloading the
//! management server. [`SuperPeerDirectory`] is a standalone policy over
//! peer paths: the [`ManagementServer`] knows nothing of it.

use nearpeer_core::{ManagementServer, PeerId, PeerPath, ServerConfig};
use nearpeer_metrics::Table;
use nearpeer_probe::{TraceConfig, Tracer};
use nearpeer_routing::landmarks::{place_landmarks, PlacementPolicy};
use nearpeer_routing::RouteOracle;
use nearpeer_topology::generators::{mapper, MapperConfig};
use nearpeer_topology::RouterId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Super-peer tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperPeerConfig {
    /// A peer's region is the router on its path `region_depth` hops below
    /// its landmark (clamped to the access router on short paths).
    pub region_depth: u32,
    /// Minimum region population before a super-peer is appointed.
    pub promote_threshold: usize,
}

impl Default for SuperPeerConfig {
    fn default() -> Self {
        Self {
            region_depth: 2,
            promote_threshold: 4,
        }
    }
}

#[derive(Debug, Default, Clone)]
struct Region {
    super_peer: Option<PeerId>,
    members: Vec<PeerId>, // insertion order; the eldest member is promoted
}

/// Tracks regions, memberships, and the elected super-peer per region.
#[derive(Debug, Clone)]
pub struct SuperPeerDirectory {
    config: SuperPeerConfig,
    regions: HashMap<RouterId, Region>,
    peer_region: HashMap<PeerId, RouterId>,
}

impl SuperPeerDirectory {
    /// Creates an empty directory.
    pub fn new(config: SuperPeerConfig) -> Self {
        Self {
            config,
            regions: HashMap::new(),
            peer_region: HashMap::new(),
        }
    }

    /// The region router of a path under this config.
    pub fn region_of_path(&self, path: &PeerPath) -> RouterId {
        let routers = path.routers();
        let from_landmark = self.config.region_depth.min(path.depth()) as usize;
        routers[routers.len() - 1 - from_landmark]
    }

    /// Registers a peer; may promote it if its region just crossed the
    /// threshold.
    pub fn on_register(&mut self, peer: PeerId, path: &PeerPath) {
        let region_router = self.region_of_path(path);
        let region = self.regions.entry(region_router).or_default();
        region.members.push(peer);
        self.peer_region.insert(peer, region_router);
        if region.super_peer.is_none() && region.members.len() >= self.config.promote_threshold {
            region.super_peer = Some(region.members[0]);
        }
    }

    /// Removes a peer; if it was its region's super-peer, the eldest
    /// remaining member takes over (or the office stays vacant below the
    /// threshold).
    pub fn on_deregister(&mut self, peer: PeerId) {
        let Some(region_router) = self.peer_region.remove(&peer) else {
            return;
        };
        let Some(region) = self.regions.get_mut(&region_router) else {
            return;
        };
        region.members.retain(|&p| p != peer);
        if region.super_peer == Some(peer) {
            region.super_peer = if region.members.len() >= self.config.promote_threshold {
                region.members.first().copied()
            } else {
                None
            };
        }
        if region.members.is_empty() {
            self.regions.remove(&region_router);
        }
    }

    /// The super-peer a newcomer with this path could delegate to, if its
    /// region has one.
    pub fn super_peer_for(&self, path: &PeerPath) -> Option<PeerId> {
        self.regions
            .get(&self.region_of_path(path))
            .and_then(|r| r.super_peer)
    }

    /// Whether the peer currently holds a super-peer office.
    pub fn is_super_peer(&self, peer: PeerId) -> bool {
        self.peer_region
            .get(&peer)
            .and_then(|r| self.regions.get(r))
            .is_some_and(|region| region.super_peer == Some(peer))
    }

    /// Number of non-empty regions.
    pub fn n_regions(&self) -> usize {
        self.regions.len()
    }

    /// Number of regions with an elected super-peer.
    pub fn n_super_peers(&self) -> usize {
        self.regions
            .values()
            .filter(|r| r.super_peer.is_some())
            .count()
    }

    /// Fraction of members whose region has a super-peer — the share of
    /// future joins the server could delegate (W2's headline metric).
    pub fn delegation_coverage(&self) -> f64 {
        let total: usize = self.regions.values().map(|r| r.members.len()).sum();
        if total == 0 {
            return 0.0;
        }
        let covered: usize = self
            .regions
            .values()
            .filter(|r| r.super_peer.is_some())
            .map(|r| r.members.len())
            .sum();
        covered as f64 / total as f64
    }
}

/// W2 sweep parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuperPeerStudyConfig {
    /// Promotion thresholds to sweep.
    pub thresholds: Vec<usize>,
    /// Region depth (hops below the landmark).
    pub region_depth: u32,
    /// Peers.
    pub n_peers: usize,
    /// Landmarks.
    pub n_landmarks: usize,
    /// GLP core size.
    pub core_size: usize,
}

impl SuperPeerStudyConfig {
    /// Standard sweep.
    pub fn standard() -> Self {
        Self {
            thresholds: vec![2, 4, 8, 16, 32],
            region_depth: 2,
            n_peers: 1_000,
            n_landmarks: 4,
            core_size: 800,
        }
    }

    /// Reduced sweep for `--quick` and tests.
    pub fn quick() -> Self {
        Self {
            thresholds: vec![2, 8],
            region_depth: 2,
            n_peers: 120,
            n_landmarks: 3,
            core_size: 150,
        }
    }
}

/// One threshold's outcome.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SuperPeerPoint {
    /// Promotion threshold.
    pub threshold: usize,
    /// Super-peers elected.
    pub super_peers: usize,
    /// Regions observed.
    pub regions: usize,
    /// Fraction of peers whose region has a super-peer.
    pub coverage: f64,
    /// Fraction of joins that arrived with a delegate available.
    pub delegated_joins: f64,
}

/// Experiment output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuperPeerStudyResult {
    /// Configuration used.
    pub config: SuperPeerStudyConfig,
    /// One point per threshold.
    pub points: Vec<SuperPeerPoint>,
}

impl SuperPeerStudyResult {
    /// Paper-style rows.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "threshold".into(),
            "super-peers".into(),
            "regions".into(),
            "coverage".into(),
            "delegated joins".into(),
        ]);
        for p in &self.points {
            t.row(vec![
                p.threshold.to_string(),
                p.super_peers.to_string(),
                p.regions.to_string(),
                format!("{:.1}%", p.coverage * 100.0),
                format!("{:.1}%", p.delegated_joins * 100.0),
            ]);
        }
        t
    }
}

/// One W2 join: the super-peer the newcomer could have asked instead of
/// the server (looked up before it joins, so never itself), then the
/// server's join, then the newcomer's membership of its region.
fn join(
    server: &mut ManagementServer,
    dir: &mut SuperPeerDirectory,
    peer: PeerId,
    path: &PeerPath,
) -> Option<PeerId> {
    let delegate = dir.super_peer_for(path);
    server.register(peer, path.clone()).expect("unique ids");
    dir.on_register(peer, path);
    delegate
}

/// Runs the W2 sweep (sequential joins so delegation is observed in join
/// order, like a real deployment).
pub fn run(config: &SuperPeerStudyConfig, seed: u64) -> SuperPeerStudyResult {
    let access = (config.n_peers as f64 * 1.3) as usize + 16;
    let topo = mapper(&MapperConfig::with_access(config.core_size, access), seed)
        .expect("valid mapper config");
    let landmarks = place_landmarks(
        &topo,
        config.n_landmarks,
        PlacementPolicy::DegreeMedium,
        seed,
    );
    // Every trace targets a landmark: precompute those trees.
    let oracle = RouteOracle::with_destinations(&topo, &landmarks);
    let tracer = Tracer::new(&oracle, TraceConfig::default());
    let mut routers = topo.access_routers();
    let mut rng = StdRng::seed_from_u64(seed);
    routers.shuffle(&mut rng);
    routers.truncate(config.n_peers);

    // Pre-compute every peer's path once; replay per threshold.
    let paths: Vec<PeerPath> = routers
        .iter()
        .enumerate()
        .map(|(i, &attach)| {
            let closest = landmarks
                .iter()
                .filter_map(|&lm| oracle.rtt_us(attach, lm).map(|rtt| (rtt, lm)))
                .min()
                .map(|(_, lm)| lm)
                .expect("connected map");
            let trace = tracer
                .trace(attach, closest, seed ^ i as u64)
                .expect("connected map");
            PeerPath::new(trace.router_path()).expect("traced paths are valid")
        })
        .collect();

    let points = config
        .thresholds
        .iter()
        .map(|&threshold| {
            let mut server = ManagementServer::new(
                landmarks.clone(),
                oracle.landmark_hops(&landmarks),
                ServerConfig {
                    neighbor_count: 5,
                    adaptive_leases: None,
                },
            )
            .expect("the study config builds a server");
            let mut dir = SuperPeerDirectory::new(SuperPeerConfig {
                region_depth: config.region_depth,
                promote_threshold: threshold,
            });
            let mut delegated = 0usize;
            for (i, path) in paths.iter().enumerate() {
                if join(&mut server, &mut dir, PeerId(i as u64), path).is_some() {
                    delegated += 1;
                }
            }
            SuperPeerPoint {
                threshold,
                super_peers: dir.n_super_peers(),
                regions: dir.n_regions(),
                coverage: dir.delegation_coverage(),
                delegated_joins: delegated as f64 / paths.len().max(1) as f64,
            }
        })
        .collect();
    SuperPeerStudyResult {
        config: config.clone(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    #[test]
    fn join_reports_the_delegate_elected_before_it() {
        let mut server =
            ManagementServer::new(vec![RouterId(0)], vec![vec![0]], ServerConfig::default())
                .unwrap();
        let mut dir = SuperPeerDirectory::new(SuperPeerConfig {
            region_depth: 2,
            promote_threshold: 2,
        });
        let mut admit = |peer, ids: &[u32]| join(&mut server, &mut dir, PeerId(peer), &path(ids));
        assert_eq!(admit(1, &[4, 2, 1, 0]), None);
        assert_eq!(
            admit(2, &[5, 2, 1, 0]),
            None,
            "promotion follows the second join"
        );
        // The third join in the region can delegate to the elected peer 1.
        assert_eq!(admit(3, &[6, 2, 1, 0]), Some(PeerId(1)));
        assert_eq!(admit(4, &[7, 3, 1, 0]), None, "another region");
        assert_eq!(dir.n_super_peers(), 1);
        assert_eq!(server.peer_count(), 4);
    }

    /// The quick sweep at the binaries' seed, to the peer: threshold 2
    /// elects 15 super-peers over 32 regions, threshold 8 elects 3.
    #[test]
    fn quick_sweep_counts_are_pinned() {
        let result = run(&SuperPeerStudyConfig::quick(), 42);
        let got: Vec<(usize, usize, usize, f64, f64)> = result
            .points
            .iter()
            .map(|p| {
                (
                    p.threshold,
                    p.super_peers,
                    p.regions,
                    p.coverage,
                    p.delegated_joins,
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                (2, 15, 32, 103.0 / 120.0, 73.0 / 120.0),
                (8, 3, 32, 63.0 / 120.0, 39.0 / 120.0),
            ]
        );
    }

    #[test]
    fn higher_threshold_fewer_superpeers() {
        let result = run(&SuperPeerStudyConfig::quick(), 3);
        assert_eq!(result.points.len(), 2);
        let low = &result.points[0];
        let high = &result.points[1];
        assert!(low.threshold < high.threshold);
        assert!(
            low.super_peers >= high.super_peers,
            "threshold {} elected {} but {} elected {}",
            low.threshold,
            low.super_peers,
            high.threshold,
            high.super_peers
        );
        assert!(low.coverage >= high.coverage);
        assert!(low.super_peers > 0, "tight threshold must elect someone");
        assert!(result.table().n_rows() == 2);
    }

    fn dir() -> SuperPeerDirectory {
        SuperPeerDirectory::new(SuperPeerConfig {
            region_depth: 1,
            promote_threshold: 2,
        })
    }

    #[test]
    fn region_is_counted_from_landmark() {
        let d = dir();
        // Path a -> b -> c -> L with region_depth 1: region router = c.
        assert_eq!(d.region_of_path(&path(&[10, 11, 12, 0])), RouterId(12));
        // Short path: clamps to the access router.
        assert_eq!(d.region_of_path(&path(&[7])), RouterId(7));
    }

    #[test]
    fn promotion_at_threshold() {
        let mut d = dir();
        d.on_register(PeerId(1), &path(&[10, 12, 0]));
        assert_eq!(d.n_super_peers(), 0);
        assert_eq!(d.super_peer_for(&path(&[11, 12, 0])), None);
        d.on_register(PeerId(2), &path(&[11, 12, 0]));
        // Threshold 2 reached: the eldest member is promoted.
        assert_eq!(d.super_peer_for(&path(&[13, 12, 0])), Some(PeerId(1)));
        assert!(d.is_super_peer(PeerId(1)));
        assert!(!d.is_super_peer(PeerId(2)));
    }

    #[test]
    fn different_regions_do_not_mix() {
        let mut d = dir();
        d.on_register(PeerId(1), &path(&[10, 12, 0]));
        d.on_register(PeerId(2), &path(&[20, 22, 0]));
        assert_eq!(d.n_regions(), 2);
        assert_eq!(d.n_super_peers(), 0);
        assert_eq!(d.delegation_coverage(), 0.0);
    }

    #[test]
    fn succession_on_departure() {
        let mut d = dir();
        for (i, access) in [(1u64, 10u32), (2, 11), (3, 13)] {
            d.on_register(PeerId(i), &path(&[access, 12, 0]));
        }
        assert!(d.is_super_peer(PeerId(1)));
        d.on_deregister(PeerId(1));
        assert!(d.is_super_peer(PeerId(2)), "eldest survivor succeeds");
        d.on_deregister(PeerId(2));
        // Only one member left, below threshold: office vacant.
        assert_eq!(d.n_super_peers(), 0);
        d.on_deregister(PeerId(3));
        assert_eq!(d.n_regions(), 0);
        // Removing an unknown peer is a no-op.
        d.on_deregister(PeerId(42));
    }

    #[test]
    fn coverage_fraction() {
        let mut d = dir();
        d.on_register(PeerId(1), &path(&[10, 12, 0]));
        d.on_register(PeerId(2), &path(&[11, 12, 0]));
        d.on_register(PeerId(3), &path(&[30, 31, 0]));
        // Region 12 (2 members, covered), region 31 (1 member, uncovered).
        assert!((d.delegation_coverage() - 2.0 / 3.0).abs() < 1e-12);
    }
}
