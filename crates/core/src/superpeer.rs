//! Super-peer promotion (future-work study W2).
//!
//! The paper is "investigating the opportunity to use some super-peers".
//! The natural reading in the path-tree architecture: the tree region below
//! a router close to the landmark (a branch of the landmark tree) elects one
//! member peer as its *super-peer*, which can then absorb closest-peer
//! queries for newcomers landing in the same region — offloading the
//! management server.
//!
//! [`SuperPeerDirectory`] is a standalone policy over peer paths: the
//! [`crate::ManagementServer`] knows nothing of it, and the W2 study feeds
//! it beside the server's joins.

use crate::ids::PeerId;
use crate::path::PeerPath;
use nearpeer_topology::RouterId;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
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
