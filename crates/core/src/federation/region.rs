//! One region of a federated directory: a management server plus its
//! partition of the landmark set.

use crate::ids::LandmarkId;
use crate::server::ManagementServer;
use std::fmt;

/// Identifier of a federation region (dense index into
/// [`super::Federation`]'s region table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

impl RegionId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region{}", self.0)
    }
}

/// One region: a full [`ManagementServer`] over a subset of the global
/// landmarks. The server is oblivious to the federation — it validates,
/// stores and answers exactly as a standalone deployment would, against
/// its own landmark sub-matrix; everything cross-region (bridge ranking,
/// fan-out, handover bookkeeping) lives in [`super::Federation`].
#[derive(Debug)]
pub struct Region {
    id: RegionId,
    server: ManagementServer,
    /// Global landmark indices owned by this region, in **local id
    /// order**: the server's `LandmarkId(i)` is the federation's
    /// `LandmarkId(landmark_globals[i])`.
    landmark_globals: Vec<u32>,
}

impl Region {
    pub(super) fn new(id: RegionId, server: ManagementServer, landmark_globals: Vec<u32>) -> Self {
        debug_assert_eq!(server.landmarks().len(), landmark_globals.len());
        Self {
            id,
            server,
            landmark_globals,
        }
    }

    /// This region's id.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// The region's management server (reads).
    pub fn server(&self) -> &ManagementServer {
        &self.server
    }

    /// Mutable access to the region's server, for **region-parallel
    /// construction and replay**:
    /// distinct regions share nothing, so builders may feed each region's
    /// batch directly. Callers take over the federation's cross-region
    /// invariant — a peer id registered in at most one region — for the
    /// peers they insert.
    pub fn server_mut(&mut self) -> &mut ManagementServer {
        &mut self.server
    }

    /// Swaps this region's server for another (crash/rejoin bookkeeping in
    /// [`super::Federation`]), returning the previous one. The caller
    /// guarantees the replacement serves the same landmark partition.
    pub(crate) fn replace_server(&mut self, server: ManagementServer) -> ManagementServer {
        debug_assert_eq!(server.landmarks().len(), self.landmark_globals.len());
        std::mem::replace(&mut self.server, server)
    }

    /// Global landmark indices owned by this region, in local-id order.
    pub fn landmark_globals(&self) -> &[u32] {
        &self.landmark_globals
    }

    /// Maps one of this region's local landmark ids to the federation's
    /// global id.
    pub fn to_global(&self, local: LandmarkId) -> LandmarkId {
        LandmarkId(self.landmark_globals[local.index()])
    }

    /// Registered peers in this region.
    pub fn peer_count(&self) -> usize {
        self.server.peer_count()
    }
}
