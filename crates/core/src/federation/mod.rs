//! Multi-region federation of management servers.
//!
//! The paper's single management server is the scaling bottleneck once
//! the directory serves planet-scale populations: every join, query and
//! heartbeat funnels through one process. The data already partitions
//! along landmarks (PR 2's shards exploit that within one server); this
//! module lifts the same split one level up — **one [`crate::ManagementServer`]
//! per region**, each owning a subset of the landmarks, stitched together
//! by a thin routing layer.
//!
//! The key observation (cf. Kademlia-style parallel routing state and
//! gossip overlays answering proximity queries from local summaries) is
//! that the **landmark distance matrix is already the required bridge**:
//! the cross-landmark fill ranks foreign candidates by
//! `depth(q) + hops(L_q, L_p) + depth(p)`, and those hop counts work just
//! as well when `L_p` lives in another region's server. A federation
//! therefore needs no global directory — only the landmark→region map and
//! the region×region reduction of `landmark_dist` (the *bridge matrix*).
//!
//! * [`Region`] wraps one management server plus its landmark partition;
//! * [`Federation`] is the routing front door: [`Federation::register`]
//!   routes a newcomer to its home region, [`Federation::closest_to_path`]
//!   answers locally and fans out to the bridge-closest foreign regions
//!   (bounded by [`FederationConfig::fanout`]), merging candidate sets by
//!   predicted hop distance;
//! * peer mobility is first class: [`Federation::handover`] moves a lease
//!   across regions and leaves a **forwarding tombstone** in the old
//!   region's lease arena, so federation-aware expiry
//!   ([`Federation::expire_stale`]) distinguishes "peer silent" from
//!   "peer moved" — tombstones ride the existing epoch-bucket sweeps.
//!
//! With `fanout = None` (consult every region) a federation answers
//! `neighbors_of`/`closest_to_path` **identically** to one big server
//! holding all landmarks, as long as peers' paths do not traverse another
//! *region's* landmark router mid-path —
//! `crates/core/tests/federation_equivalence.rs` pins this against the
//! single-server reference.

#[allow(clippy::module_inception)]
mod federation;
mod region;

pub use federation::{
    FederatedJoin, Federation, FederationConfig, FederationStats, FederationSweep,
};
pub use region::{Region, RegionId};
