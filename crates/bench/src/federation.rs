//! Federated swarm construction: a multi-region directory populated the
//! same two ways the single-server harness supports — from a real
//! topology's traced swarm, or from synthetic tree-consistent paths at
//! populations where tracing is prohibitive.

use crate::swarm::{Swarm, SyntheticJoins};
use nearpeer_core::federation::{Federation, FederationConfig, RegionId};
use nearpeer_core::{LandmarkId, PeerId, PeerPath, ServerConfig};

/// A populated federation plus the bookkeeping the experiments need.
pub struct FederatedSwarm {
    /// The multi-region directory.
    pub federation: Federation,
    /// Registered peers in registration order.
    pub peers: Vec<PeerId>,
    /// The synthetic path generator, when built synthetically (replays
    /// need it to derive handover paths).
    pub gen: Option<SyntheticJoins>,
}

impl FederatedSwarm {
    /// Re-homes an already-built (single-server) [`Swarm`] into an
    /// `n_regions` federation: the swarm's landmarks partition
    /// round-robin, the server's measured landmark distance matrix
    /// becomes the bridge source, and every registered peer's stored path
    /// re-registers with its home region — so federated answers can be
    /// compared against the single server's on identical populations.
    pub fn from_swarm(
        swarm: &Swarm<'_>,
        n_regions: usize,
        config: FederationConfig,
    ) -> Result<Self, String> {
        let mut federation = Federation::new(
            swarm.server.landmarks().to_vec(),
            swarm.server.landmark_distances().to_vec(),
            n_regions,
            config,
        )
        .map_err(|e| e.to_string())?;
        let joins: Vec<(PeerId, PeerPath)> = swarm
            .peers
            .iter()
            .map(|&p| {
                let path = swarm.server.path_of(p).expect("registered").to_path();
                (p, path)
            })
            .collect();
        let out = federation.register_batch(joins);
        if out.joined != swarm.peers.len() {
            return Err(format!(
                "federated re-registration joined {} of {} peers",
                out.joined,
                swarm.peers.len()
            ));
        }
        Ok(Self {
            federation,
            peers: swarm.peers.clone(),
            gen: None,
        })
    }

    /// Builds a synthetic federation: `n_landmarks` landmarks (paths from
    /// [`SyntheticJoins`], all landmark pairs 4 hops apart like the churn
    /// soak's server), partitioned round-robin over `n_regions`, with
    /// `n_peers` peers registered write-only through the federation's
    /// batched path.
    pub fn build_synthetic(
        n_landmarks: usize,
        n_regions: usize,
        n_peers: usize,
        config: FederationConfig,
    ) -> Result<Self, String> {
        let gen = SyntheticJoins::new(n_landmarks);
        let mut federation = synthetic_federation(&gen, n_regions, config)?;
        let peers: Vec<PeerId> = (0..n_peers as u64).map(PeerId).collect();
        let joins: Vec<(PeerId, PeerPath)> = (0..n_peers as u64).map(|i| gen.join(i)).collect();
        let out = federation.register_batch(joins);
        if out.joined != n_peers {
            return Err(format!(
                "synthetic federation joined {} of {n_peers} peers",
                out.joined
            ));
        }
        Ok(Self {
            federation,
            peers,
            gen: Some(gen),
        })
    }

    /// The home region of a synthetic peer (landmark `peer % L`, region
    /// round-robin `landmark % R`).
    pub fn synthetic_home(&self, peer: u64) -> RegionId {
        let gen = self.gen.as_ref().expect("synthetic build");
        self.federation.region_of_landmark(gen.landmark_of(peer))
    }
}

/// An **empty** federation matching a [`SyntheticJoins`] generator: its
/// landmark routers and the soak's flat 4-hop distance matrix, partitioned
/// round-robin over `n_regions`.
pub fn synthetic_federation(
    gen: &SyntheticJoins,
    n_regions: usize,
    config: FederationConfig,
) -> Result<Federation, String> {
    // Mirror SyntheticJoins::server: landmark routers 0..L, all pairs 4
    // hops apart (queries rank all bridges equally; writes don't care).
    let n = gen.n_landmarks();
    let reference = gen.server(ServerConfig::default());
    Federation::new(
        reference.landmarks().to_vec(),
        (0..n)
            .map(|i| (0..n).map(|j| if i == j { 0 } else { 4 }).collect())
            .collect(),
        n_regions,
        config,
    )
    .map_err(|e| e.to_string())
}

/// A landmark of `region` for a synthetic peer to re-trace to on a
/// federated move: deterministic per `(peer, region)` so replays are pure
/// functions of the trace.
pub fn synthetic_move_landmark(federation: &Federation, peer: u64, region: RegionId) -> LandmarkId {
    let globals = federation.region(region).landmark_globals();
    LandmarkId(globals[(peer as usize) % globals.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swarm::SwarmConfig;
    use nearpeer_topology::generators::{mapper, MapperConfig};

    #[test]
    fn synthetic_federation_partitions_and_registers() {
        let fed = FederatedSwarm::build_synthetic(6, 3, 120, FederationConfig::default()).unwrap();
        assert_eq!(fed.federation.n_regions(), 3);
        assert_eq!(fed.federation.peer_count(), 120);
        // Round-robin: landmarks {0,3} / {1,4} / {2,5}.
        assert_eq!(
            fed.federation.region(RegionId(1)).landmark_globals(),
            &[1, 4]
        );
        // Every peer landed in its landmark's region.
        for p in 0..120u64 {
            assert_eq!(
                fed.federation.region_of_peer(PeerId(p)),
                Some(fed.synthetic_home(p)),
                "peer {p}"
            );
        }
        // Move landmarks always belong to the requested region.
        for p in 0..12u64 {
            for r in 0..3u32 {
                let lm = synthetic_move_landmark(&fed.federation, p, RegionId(r));
                assert_eq!(fed.federation.region_of_landmark(lm), RegionId(r));
            }
        }
    }

    #[test]
    fn from_swarm_reproduces_the_population() {
        let topo = mapper(&MapperConfig::tiny(), 5).unwrap();
        let cfg = SwarmConfig {
            n_peers: 40,
            n_landmarks: 4,
            ..Default::default()
        };
        let swarm = Swarm::build(&topo, &cfg, 1).unwrap();
        let fed = FederatedSwarm::from_swarm(&swarm, 2, FederationConfig::default()).unwrap();
        assert_eq!(fed.federation.peer_count(), 40);
        // Stored paths survive the re-homing byte for byte.
        for &p in &swarm.peers {
            let (_, path) = fed.federation.locate(p).expect("registered");
            assert_eq!(path, swarm.server.path_of(p).unwrap());
        }
        // The bridge matrix derives from the same measured distances.
        let d = swarm.server.landmark_distances();
        let min_cross: u32 = (0..4)
            .flat_map(|a| (0..4).map(move |b| (a, b)))
            .filter(|&(a, b)| a % 2 == 0 && b % 2 == 1)
            .map(|(a, b)| d[a][b])
            .min()
            .unwrap();
        assert_eq!(fed.federation.bridge(RegionId(0), RegionId(1)), min_cross);
    }
}
