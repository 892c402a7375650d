//! The federation front door: cross-region routing over per-region
//! management servers.

use super::region::{Region, RegionId};
use crate::directory::persist::RecoveryReport;
use crate::directory::query;
use crate::error::CoreError;
use crate::ids::{IdMap, LandmarkId, PeerId};
use crate::path::{PathView, PeerPath};
use crate::router_index::{query_nearest_entries, Neighbor};
use crate::server::{BatchOutcome, ManagementServer, ServerConfig};
use crate::telemetry::{Counter, Histogram, TelemetryRegistry};
use nearpeer_topology::RouterId;
use std::sync::Arc;

/// Federation tuning.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FederationConfig {
    /// Foreign regions consulted per query, ranked by bridge distance
    /// from the query's home region (`None` = all of them — required for
    /// answers identical to a single global server; small values trade
    /// recall for fan-out). `Some(0)` answers purely from the home
    /// region.
    pub fanout: Option<usize>,
    /// Per-region server configuration.
    pub server: ServerConfig,
}

/// What a newcomer (or a handed-over peer) receives from the federation.
/// The landmark id is **global** (an index into
/// [`Federation::landmarks`]), unlike the region-local ids the underlying
/// servers speak.
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedJoin {
    /// The region the peer registered in.
    pub region: RegionId,
    /// The (global) landmark the peer registered under.
    pub landmark: LandmarkId,
    /// The closest peers across the consulted regions, nearest first.
    pub neighbors: Vec<Neighbor>,
}

/// Aggregate federation counters (the cross-region view; each region's
/// server keeps its own [`ManagementServer::stats`] underneath).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FederationStats {
    /// Federated queries answered: [`Federation::closest_to_path`] (join
    /// and handover answers included) and
    /// [`Federation::closest_by_frames`].
    pub queries: u64,
    /// Foreign regions consulted across all queries (fan-out volume).
    pub remote_regions_consulted: u64,
    /// Neighbors served through cross-region bridge fills.
    pub cross_region_fills: u64,
    /// Handovers processed (intra- and cross-region).
    pub handovers: u64,
    /// The subset of handovers that crossed regions (these leave
    /// forwarding tombstones behind).
    pub cross_region_handovers: u64,
}

/// Everything one federated expiry sweep retired, split by disposition —
/// the distinction the forwarding tombstones exist for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FederationSweep {
    /// Leases that lapsed silently: `(region, peer)` — these peers failed.
    pub expired: Vec<(RegionId, PeerId)>,
    /// Forwarding tombstones retired: `(old region, peer)` — these peers
    /// handed over to another region and their grace record aged out.
    pub moved_swept: Vec<(RegionId, PeerId)>,
}

impl FederationSweep {
    /// The expired peer ids across all regions, ascending.
    pub fn expired_ids(&self) -> Vec<PeerId> {
        let mut ids: Vec<PeerId> = self.expired.iter().map(|&(_, p)| p).collect();
        ids.sort_unstable();
        ids
    }
}

/// Read-path counters (interior-mutable, so federated queries stay
/// `&self` like the underlying servers'), shared by both query paths and
/// adopted by a bound registry as the `fed_*` series.
#[derive(Default)]
pub(crate) struct QueryCounters {
    pub(crate) queries: Arc<Counter>,
    pub(crate) remote: Arc<Counter>,
    pub(crate) fills: Arc<Counter>,
    /// Latency of [`Federation::closest_by_frames`] queries, recorded
    /// while a bound registry's timing gate is on.
    pub(crate) latency_us: Arc<Histogram>,
}

/// A federation of per-region management servers behind one routing front
/// door.
///
/// The federation owns the **global** landmark list and distance matrix;
/// each [`Region`]'s server sees only its own landmark subset (and the
/// corresponding sub-matrix), so regional writes validate exactly as a
/// standalone deployment would. Queries answer from the home region and
/// fan out to the bridge-closest foreign regions; peers moving between
/// regions are handed over atomically, leaving a forwarding tombstone in
/// the old region's lease arena.
///
/// Concurrency contract: reads (`closest_to_path`, `neighbors_of`,
/// `locate`, `stats`) take `&self` — the per-region servers' read paths
/// are already concurrent, and the federation's own counters are atomic.
/// Writes take `&mut self` and touch at most two regions.
/// [`crate::runtime::Shared`] serves it from many threads behind one
/// `RwLock`.
pub struct Federation {
    regions: Vec<Region>,
    landmark_routers: Vec<RouterId>,
    landmark_dist: Vec<Vec<u32>>,
    /// Global landmark index → owning region.
    landmark_region: Vec<RegionId>,
    /// Landmark router → global landmark index.
    router_landmark: IdMap<RouterId, u32>,
    /// Region × region bridge matrix: the minimum landmark-to-landmark
    /// hop distance across the pair (`u32::MAX` = no measured bridge).
    bridge: Vec<Vec<u32>>,
    fanout: Option<usize>,
    neighbor_count: usize,
    pub(crate) counters: QueryCounters,
    /// Bound registry ([`Self::bind_telemetry`]): gates the frame path's
    /// query timing and receives its slow-query traces.
    pub(crate) telemetry: Option<Arc<TelemetryRegistry>>,
    handovers: u64,
    cross_region_handovers: u64,
    epoch: u64,
    /// Regions currently crashed ([`Self::crash_region`]): their server
    /// slot holds an empty stand-in, writes to them are refused with
    /// [`CoreError::RegionUnavailable`], and queries route around them
    /// until [`Self::rejoin_region`] restores the recovered server.
    down: Vec<bool>,
}

impl std::fmt::Debug for Federation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Federation")
            .field("regions", &self.regions.len())
            .field("peers", &self.peer_count())
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl Federation {
    /// Builds a federation over `n_regions` regions by partitioning the
    /// landmarks **round-robin** (global landmark `i` → region
    /// `i % n_regions`), deriving each region's distance sub-matrix and
    /// the cross-region bridge matrix from the global `landmark_dist`
    /// (row-major square, `u32::MAX` = unknown).
    pub fn new(
        landmark_routers: Vec<RouterId>,
        landmark_dist: Vec<Vec<u32>>,
        n_regions: usize,
        config: FederationConfig,
    ) -> Result<Self, CoreError> {
        let n = landmark_routers.len();
        if n_regions == 0 {
            return Err(CoreError::InvalidFederation("zero regions".into()));
        }
        if n_regions > n {
            return Err(CoreError::InvalidFederation(format!(
                "{n_regions} regions over {n} landmarks: every region needs at least one"
            )));
        }
        if landmark_dist.len() != n || landmark_dist.iter().any(|row| row.len() != n) {
            return Err(CoreError::InvalidFederation(format!(
                "landmark distance matrix must be {n}x{n}"
            )));
        }
        if config.fanout == Some(0) && n_regions > 1 {
            return Err(CoreError::InvalidFederation(format!(
                "fanout 0 over {n_regions} regions: cross-region peers would be \
                 permanently invisible (use fanout >= 1, or a single region)"
            )));
        }
        config.server.validate()?;
        let mut partitions: Vec<Vec<u32>> = vec![Vec::new(); n_regions];
        for i in 0..n {
            partitions[i % n_regions].push(i as u32);
        }
        let mut landmark_region = vec![RegionId(0); n];
        let mut regions = Vec::with_capacity(n_regions);
        for (r, globals) in partitions.into_iter().enumerate() {
            let id = RegionId(r as u32);
            for &g in &globals {
                landmark_region[g as usize] = id;
            }
            let routers: Vec<RouterId> = globals
                .iter()
                .map(|&g| landmark_routers[g as usize])
                .collect();
            let dist: Vec<Vec<u32>> = globals
                .iter()
                .map(|&a| {
                    globals
                        .iter()
                        .map(|&b| landmark_dist[a as usize][b as usize])
                        .collect()
                })
                .collect();
            let server = ManagementServer::new(routers, dist, config.server)?;
            regions.push(Region::new(id, server, globals));
        }
        let bridge = Self::compute_bridge(&landmark_region, &landmark_dist, n_regions);
        let router_landmark = landmark_routers
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, i as u32))
            .collect();
        Ok(Self {
            regions,
            landmark_routers,
            landmark_dist,
            landmark_region,
            router_landmark,
            bridge,
            fanout: config.fanout,
            neighbor_count: config.server.neighbor_count,
            counters: QueryCounters::default(),
            telemetry: None,
            handovers: 0,
            cross_region_handovers: 0,
            epoch: 0,
            down: vec![false; n_regions],
        })
    }

    /// Derives the region×region bridge matrix — the minimum
    /// landmark-to-landmark hop distance across each pair — from the
    /// global distance matrix and the landmark→region assignment. Run at
    /// construction and re-run when a restarted region rejoins.
    fn compute_bridge(
        landmark_region: &[RegionId],
        landmark_dist: &[Vec<u32>],
        n_regions: usize,
    ) -> Vec<Vec<u32>> {
        let mut bridge = vec![vec![u32::MAX; n_regions]; n_regions];
        for (a, row) in bridge.iter_mut().enumerate() {
            row[a] = 0;
            for (la, &ra) in landmark_region.iter().enumerate() {
                if ra.index() != a {
                    continue;
                }
                for (lb, &rb) in landmark_region.iter().enumerate() {
                    if rb.index() == a {
                        continue;
                    }
                    row[rb.index()] = row[rb.index()].min(landmark_dist[la][lb]);
                }
            }
        }
        bridge
    }

    /// The regions, indexed by [`RegionId`].
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// One region.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// Mutable access to one region (see [`Region::server_mut`] for the
    /// caller contract).
    pub fn region_mut(&mut self, id: RegionId) -> &mut Region {
        &mut self.regions[id.index()]
    }

    /// Number of regions.
    pub fn n_regions(&self) -> usize {
        self.regions.len()
    }

    /// The global landmark routers, indexed by global [`LandmarkId`].
    pub fn landmarks(&self) -> &[RouterId] {
        &self.landmark_routers
    }

    /// The global landmark distance matrix.
    pub fn landmark_distances(&self) -> &[Vec<u32>] {
        &self.landmark_dist
    }

    /// The region owning a global landmark.
    pub fn region_of_landmark(&self, landmark: LandmarkId) -> RegionId {
        self.landmark_region[landmark.index()]
    }

    /// The bridge distance between two regions: the minimum
    /// landmark-to-landmark hop count across the pair.
    pub fn bridge(&self, a: RegionId, b: RegionId) -> u32 {
        self.bridge[a.index()][b.index()]
    }

    /// The federation-wide heartbeat epoch (regions advance in lockstep).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Registered peers across all regions.
    pub fn peer_count(&self) -> usize {
        self.regions.iter().map(|r| r.peer_count()).sum()
    }

    /// Forwarding tombstones currently held across all regions. Drains to
    /// zero once every handover's grace record has been swept — the "no
    /// leaked leases" invariant the federation soak asserts.
    pub fn tombstone_count(&self) -> usize {
        self.regions
            .iter()
            .map(|r| r.server().tombstone_count())
            .sum()
    }

    /// Aggregate federation counters.
    pub fn stats(&self) -> FederationStats {
        FederationStats {
            queries: self.counters.queries.get(),
            remote_regions_consulted: self.counters.remote.get(),
            cross_region_fills: self.counters.fills.get(),
            handovers: self.handovers,
            cross_region_handovers: self.cross_region_handovers,
        }
    }

    /// Binds a telemetry registry: the query counters become scrapeable as
    /// `fed_queries_total`, `fed_remote_regions_consulted_total` and
    /// `fed_cross_region_fills_total` (both query paths), the frame path's
    /// latency as `fed_query_latency_us`, and the frame path starts
    /// honouring the registry's timing gate and slow-query log. The
    /// regions' own `dir_*` series stay unbound.
    pub fn bind_telemetry(&mut self, reg: Arc<TelemetryRegistry>) {
        let c = &self.counters;
        reg.adopt_counter("fed_queries_total", "", Arc::clone(&c.queries));
        reg.adopt_counter(
            "fed_remote_regions_consulted_total",
            "",
            Arc::clone(&c.remote),
        );
        reg.adopt_counter("fed_cross_region_fills_total", "", Arc::clone(&c.fills));
        reg.adopt_histogram("fed_query_latency_us", "", Arc::clone(&c.latency_us));
        self.telemetry = Some(reg);
    }

    /// The registry bound by [`Self::bind_telemetry`], if any.
    pub fn telemetry(&self) -> Option<Arc<TelemetryRegistry>> {
        self.telemetry.clone()
    }

    /// The home `(region, global landmark)` of a path, by its terminal
    /// router.
    pub(crate) fn home_of_path(&self, path: PathView<'_>) -> Result<(RegionId, u32), CoreError> {
        self.router_landmark
            .get(&path.landmark_router())
            .map(|&g| (self.landmark_region[g as usize], g))
            .ok_or_else(|| {
                CoreError::UnknownLandmark(format!(
                    "path terminates at {} which is no federation landmark",
                    path.landmark_router()
                ))
            })
    }

    /// The region a peer is currently registered in, if any.
    pub fn region_of_peer(&self, peer: PeerId) -> Option<RegionId> {
        self.regions
            .iter()
            .find(|r| r.server().landmark_of(peer).is_some())
            .map(|r| r.id())
    }

    /// The peer's current region and stored path, if registered.
    pub fn locate(&self, peer: PeerId) -> Option<(RegionId, PathView<'_>)> {
        self.regions
            .iter()
            .find_map(|r| r.server().path_of(peer).map(|p| (r.id(), p)))
    }

    /// Resolves a peer starting from a (possibly stale) region hint by
    /// **following forwarding tombstones**: a client that cached "peer p
    /// is in region 2" before p moved asks region 2, reads the tombstone,
    /// and lands on the current region in one extra hop per move — no
    /// global scan. Returns the region currently holding the peer, or
    /// `None` if the trail goes cold (tombstone swept, peer gone).
    pub fn resolve(&self, hint: RegionId, peer: PeerId) -> Option<RegionId> {
        let mut at = hint;
        for _ in 0..=self.regions.len() {
            let server = self.regions.get(at.index())?.server();
            if server.landmark_of(peer).is_some() {
                return Some(at);
            }
            match server.forwarded_to(peer) {
                Some(next) => at = RegionId(next),
                None => return None,
            }
        }
        None
    }

    /// Advances every region's heartbeat epoch in lockstep and returns
    /// the new federation epoch. Fails with [`CoreError::EpochWindow`],
    /// advancing no region, if any live region's lease table cannot hold
    /// the next epoch ([`ManagementServer::advance_epoch`]).
    pub fn advance_epoch(&mut self) -> Result<u64, CoreError> {
        // A crashed region's stand-in does not tick; the recovered server
        // fast-forwards to the federation epoch at rejoin.
        let live = |r: &&mut Region| !self.down[r.id().index()];
        for region in self.regions.iter_mut().filter(live) {
            region.server().next_epoch()?;
        }
        self.epoch += 1;
        for region in self.regions.iter_mut().filter(live) {
            let e = region.server_mut().advance_epoch()?;
            debug_assert_eq!(e, self.epoch, "regions advance in lockstep");
        }
        Ok(self.epoch)
    }

    /// Registers a newcomer: the path routes it to its home region
    /// (write-only insert there), and the answer is computed through the
    /// federated query path — so the neighbor list reflects every
    /// consulted region, not just the home one. A peer already registered
    /// anywhere in the federation is rejected as a duplicate.
    pub fn register(&mut self, peer: PeerId, path: PeerPath) -> Result<FederatedJoin, CoreError> {
        let (region, global) = self.home_of_path(path.view())?;
        if self.down[region.index()] {
            return Err(CoreError::RegionUnavailable(region.0));
        }
        if self.region_of_peer(peer).is_some() {
            return Err(CoreError::DuplicatePeer(peer));
        }
        let out = self.regions[region.index()]
            .server_mut()
            .register_batch(vec![(peer, path)]);
        debug_assert_eq!(out.joined, 1, "validated fresh insert");
        let k = self.neighbor_count;
        let stored = self.regions[region.index()]
            .server()
            .path_of(peer)
            .expect("just inserted");
        let neighbors = self.closest_to_path(stored, k, Some(peer));
        Ok(FederatedJoin {
            region,
            landmark: LandmarkId(global),
            neighbors,
        })
    }

    /// Write-only batched registration (the churn/soak path — no
    /// neighbor answers): items group by home region, fresh peers insert,
    /// same-region rejoins renew their lease. A peer currently registered
    /// in a *different* region is rejected — that move is a
    /// [`Self::handover`].
    pub fn register_batch(&mut self, batch: Vec<(PeerId, PeerPath)>) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        let mut per_region: Vec<Vec<(PeerId, PeerPath)>> =
            (0..self.regions.len()).map(|_| Vec::new()).collect();
        // Within-batch assignments: a later item may renew in the same
        // region but must not register the peer into a second one.
        let mut pending: IdMap<PeerId, RegionId> = IdMap::default();
        for (peer, path) in batch {
            let Ok((region, _)) = self.home_of_path(path.view()) else {
                out.rejected += 1;
                continue;
            };
            if self.down[region.index()] {
                out.rejected += 1;
                continue;
            }
            match self
                .region_of_peer(peer)
                .or_else(|| pending.get(&peer).copied())
            {
                Some(at) if at != region => out.rejected += 1,
                // Registered here (renew) or brand new (join): both are
                // what a region's register_batch absorbs; duplicates within
                // one region's batch resolve exactly as one by one.
                _ => {
                    pending.insert(peer, region);
                    per_region[region.index()].push((peer, path));
                }
            }
        }
        for (region, items) in self.regions.iter_mut().zip(per_region) {
            if items.is_empty() {
                continue;
            }
            let absorbed = region.server_mut().register_batch(items);
            out.joined += absorbed.joined;
            out.renewed += absorbed.renewed;
            out.rejected += absorbed.rejected;
        }
        out
    }

    /// Batched departures across all live regions; returns the number
    /// removed. Peers whose region is crashed are untouched (their leases
    /// expire or are re-resolved after the region rejoins).
    pub fn leave_batch(&mut self, peers: &[PeerId]) -> usize {
        let down = &self.down;
        self.regions
            .iter_mut()
            .filter(|r| !down[r.id().index()])
            .map(|r| r.server_mut().leave_batch(peers))
            .sum()
    }

    /// Batched heartbeat renewal across all regions; returns the number
    /// renewed. (Replay drivers that track each peer's region can renew
    /// through [`Self::region_mut`] instead and skip the foreign-region
    /// probes.)
    pub fn renew_batch(&mut self, peers: &[PeerId]) -> usize {
        let down = &self.down;
        self.regions
            .iter_mut()
            .filter(|r| !down[r.id().index()])
            .map(|r| r.server_mut().renew_batch(peers))
            .sum()
    }

    /// Mobility handover: the peer re-traceroutes from its new attachment
    /// and the federation moves its registration to the new path's home
    /// region. The new path is validated before anything is torn down.
    /// Cross-region moves leave a **forwarding tombstone** in the old
    /// region (see [`ManagementServer::deregister_forwarding`]); the
    /// answer is federated either way.
    pub fn handover(
        &mut self,
        peer: PeerId,
        new_path: PeerPath,
    ) -> Result<FederatedJoin, CoreError> {
        let Some(from) = self.region_of_peer(peer) else {
            return Err(CoreError::UnknownPeer(peer));
        };
        let (dest, global) = self.home_of_path(new_path.view())?;
        if self.down[dest.index()] {
            // Validation precedes teardown: the peer stays where it is.
            return Err(CoreError::RegionUnavailable(dest.0));
        }
        if from == dest {
            // Same region: the server's own atomic handover applies (its
            // region-local answer is discarded for the federated one).
            self.regions[dest.index()]
                .server_mut()
                .handover(peer, new_path)?;
        } else {
            self.regions[from.index()]
                .server_mut()
                .deregister_forwarding(peer, dest.0)?;
            let out = self.regions[dest.index()]
                .server_mut()
                .register_batch(vec![(peer, new_path)]);
            debug_assert_eq!(out.joined, 1, "peer was only live in `from`");
            self.cross_region_handovers += 1;
        }
        self.handovers += 1;
        let k = self.neighbor_count;
        let stored = self.regions[dest.index()]
            .server()
            .path_of(peer)
            .expect("just moved here");
        let neighbors = self.closest_to_path(stored, k, Some(peer));
        Ok(FederatedJoin {
            region: dest,
            landmark: LandmarkId(global),
            neighbors,
        })
    }

    /// Neighbors of a registered peer, through the federated query path.
    pub fn neighbors_of(&self, peer: PeerId, k: usize) -> Result<Vec<Neighbor>, CoreError> {
        let (_, path) = self.locate(peer).ok_or(CoreError::UnknownPeer(peer))?;
        Ok(self.closest_to_path(path, k, Some(peer)))
    }

    /// The regions a query from `home` consults: the home region first,
    /// then foreign regions ascending by `(bridge, id)`, bounded by the
    /// configured fanout. A query with no home landmark consults every
    /// live region.
    pub(crate) fn query_regions(&self, home: Option<RegionId>) -> Vec<RegionId> {
        let Some(home) = home else {
            return (0..self.regions.len() as u32)
                .map(RegionId)
                .filter(|&r| !self.down[r.index()])
                .collect();
        };
        let mut foreign: Vec<RegionId> = (0..self.regions.len() as u32)
            .map(RegionId)
            .filter(|&r| r != home && !self.down[r.index()])
            .collect();
        foreign.sort_unstable_by_key(|&r| (self.bridge(home, r), r.0));
        if self.down[home.index()] {
            // The home region is crashed: rather than erroring (or
            // answering from its empty stand-in plus a capped fan-out),
            // degrade to full fan-out over every live region — the best
            // answer available until the region rejoins.
            return foreign;
        }
        let take = self.fanout.unwrap_or(foreign.len()).min(foreign.len());
        let mut out = Vec::with_capacity(take + 1);
        out.push(home);
        out.extend(foreign.into_iter().take(take));
        out
    }

    /// The closest registered peers to a query path across the consulted
    /// regions — the federation's routing front door. Exact candidates
    /// (peers sharing a router with the query path) merge by `(dtree,
    /// peer)` from every consulted region; if the list stays short, it is
    /// topped up with **cross-region bridge fills** ranked by
    /// `depth(query) + hops(L_query, L_other) + depth(peer)` over the
    /// global landmark distance matrix. With `fanout = None` this is the
    /// answer one big server over all landmarks would give. `&self`, like
    /// the underlying servers' read paths.
    pub fn closest_to_path<'p>(
        &self,
        path: impl Into<PathView<'p>>,
        k: usize,
        exclude: Option<PeerId>,
    ) -> Vec<Neighbor> {
        let path = path.into();
        self.counters.queries.inc();
        let home = self.home_of_path(path).ok();
        // No home landmark: exact answers only, from every live region.
        let consulted = self.query_regions(home.map(|(region, _)| region));
        self.counters
            .remote
            .add(consulted.len().saturating_sub(1) as u64);
        // A peer is registered in exactly one region, so the consulted
        // regions' router indexes merge like one server's.
        let tables = consulted
            .iter()
            .map(|r| self.regions[r.index()].server().entries());
        let mut result = query_nearest_entries(tables, path, k, exclude);
        if result.len() < k {
            if let Some((_, own_global)) = home {
                let missing = k - result.len();
                let fill =
                    self.bridge_fill(path, own_global, missing, &consulted, exclude, &result);
                self.counters.fills.add(fill.len() as u64);
                result.extend(fill);
            }
        }
        result
    }

    /// Cross-region fill: one ordered cursor per foreign landmark in a
    /// consulted region (`region(L).peers_through(L's router)`, ascending
    /// by depth below the landmark), k-way merged by the bridge estimate.
    /// Mirrors the single server's cross-landmark fill with the global
    /// distance matrix supplying the bridges.
    fn bridge_fill(
        &self,
        path: PathView<'_>,
        own_global: u32,
        k: usize,
        consulted: &[RegionId],
        exclude: Option<PeerId>,
        already: &[Neighbor],
    ) -> Vec<Neighbor> {
        let query_depth = path.depth();
        let cursors = self
            .landmark_routers
            .iter()
            .enumerate()
            .filter_map(|(li, &lrouter)| {
                let region = self.landmark_region[li];
                let bridge = self.landmark_dist[own_global as usize][li];
                if li as u32 == own_global || !consulted.contains(&region) || bridge == u32::MAX {
                    return None;
                }
                let peers = self.regions[region.index()]
                    .server()
                    .index()
                    .peers_through(lrouter);
                Some((query::fill_base(query_depth, bridge), peers))
            });
        query::merge_fill(cursors, k, exclude, already)
    }

    /// Federated lease expiry: every region sweeps its epoch-bucketed
    /// arenas once, and the results keep the distinction the forwarding
    /// tombstones encode — a lease that lapsed **silently** (the peer
    /// failed) versus a tombstone that aged out (the peer **moved** and
    /// its grace record is done). Handover must never leak leases:
    /// sweeping until [`Self::tombstone_count`] reaches zero retires
    /// every grace record.
    pub fn expire_stale(&mut self, max_age: u64) -> FederationSweep {
        let mut out = FederationSweep::default();
        for region in &mut self.regions {
            let id = region.id();
            if self.down[id.index()] {
                continue;
            }
            let sweep = region.server_mut().expire_stale_full(max_age);
            out.expired
                .extend(sweep.expired.into_iter().map(|p| (id, p)));
            out.moved_swept
                .extend(sweep.moved.into_iter().map(|(p, _)| (id, p)));
        }
        out
    }

    // ---- crash / restart ------------------------------------------------

    /// Whether a region is currently crashed.
    pub fn region_down(&self, id: RegionId) -> bool {
        self.down[id.index()]
    }

    /// Serializes one region's directory into the versioned snapshot
    /// format ([`ManagementServer::snapshot_bytes`]). Refused while the
    /// region is down — its state lives in the snapshot/journal pair that
    /// will rejoin it, not in the empty stand-in.
    pub fn snapshot_region(&self, id: RegionId) -> Result<Vec<u8>, CoreError> {
        if self.down[id.index()] {
            return Err(CoreError::RegionUnavailable(id.0));
        }
        self.regions[id.index()].server().snapshot_bytes()
    }

    /// Simulates a region crash: the region's server is torn out and
    /// returned (the test harness's view of what died with the process),
    /// an empty stand-in takes its slot, and the region is marked down —
    /// writes to it are refused, queries route around it (a query homed in
    /// it fans out to every live region). Crashing an already-down region
    /// fails.
    pub fn crash_region(&mut self, id: RegionId) -> Result<ManagementServer, CoreError> {
        if self.down[id.index()] {
            return Err(CoreError::RegionUnavailable(id.0));
        }
        let region = &mut self.regions[id.index()];
        let routers = region.server().landmarks().to_vec();
        let dist = region.server().landmark_distances().to_vec();
        let config = *region.server().config();
        let stand_in = ManagementServer::new(routers, dist, config)?;
        self.down[id.index()] = true;
        Ok(region.replace_server(stand_in))
    }

    /// Rejoins a crashed region from its durable state: the snapshot plus
    /// the journal of operations since it was taken. The recovered server
    /// must serve the exact landmark partition the region owned (anything
    /// else fails closed), its epoch is fast-forwarded to the federation
    /// epoch the cluster reached while the region was down, and the
    /// bridge matrix is re-derived before the region resumes serving.
    pub fn rejoin_region(
        &mut self,
        id: RegionId,
        snapshot: &[u8],
        journal: &[u8],
    ) -> Result<RecoveryReport, CoreError> {
        if !self.down[id.index()] {
            return Err(CoreError::InvalidFederation(format!(
                "{id} is live; rejoin only applies to a crashed region"
            )));
        }
        let (mut server, report) = ManagementServer::recover(snapshot, journal)?;
        let region = &self.regions[id.index()];
        if server.landmarks() != region.server().landmarks() {
            return Err(CoreError::InvalidFederation(format!(
                "recovered snapshot serves landmarks {:?}, {id} owns {:?}",
                server.landmarks(),
                region.server().landmarks()
            )));
        }
        if server.landmark_distances() != region.server().landmark_distances() {
            return Err(CoreError::InvalidFederation(format!(
                "recovered snapshot's landmark sub-matrix does not match {id}'s"
            )));
        }
        if server.epoch() > self.epoch {
            return Err(CoreError::InvalidFederation(format!(
                "recovered {id} is at epoch {} but the federation is at {} — \
                 the snapshot/journal pair is from a different run",
                server.epoch(),
                self.epoch
            )));
        }
        // The cluster kept ticking while the region was down; catch the
        // recovered server up so leases age consistently (a peer that
        // could not renew during the outage expires on schedule).
        while server.epoch() < self.epoch {
            server.advance_epoch()?;
        }
        self.regions[id.index()].replace_server(server);
        self.down[id.index()] = false;
        self.bridge = Self::compute_bridge(
            &self.landmark_region,
            &self.landmark_dist,
            self.regions.len(),
        );
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    /// Four landmarks at routers 0/100/200/300. Distances: neighbors on a
    /// line, 5 hops apart each (0-100: 5, 0-200: 10, ...).
    fn four_landmarks() -> (Vec<RouterId>, Vec<Vec<u32>>) {
        let routers = vec![RouterId(0), RouterId(100), RouterId(200), RouterId(300)];
        let dist = (0..4u32)
            .map(|i| (0..4u32).map(|j| i.abs_diff(j) * 5).collect())
            .collect();
        (routers, dist)
    }

    fn federation(n_regions: usize, fanout: Option<usize>) -> Federation {
        let (routers, dist) = four_landmarks();
        Federation::new(
            routers,
            dist,
            n_regions,
            FederationConfig {
                fanout,
                server: ServerConfig {
                    neighbor_count: 3,
                    ..ServerConfig::default()
                },
            },
        )
        .unwrap()
    }

    #[test]
    fn partition_and_bridge_matrix() {
        let fed = federation(2, None);
        // Round-robin: landmarks 0,2 → region 0; 1,3 → region 1.
        assert_eq!(fed.n_regions(), 2);
        assert_eq!(fed.region(RegionId(0)).landmark_globals(), &[0, 2]);
        assert_eq!(fed.region(RegionId(1)).landmark_globals(), &[1, 3]);
        assert_eq!(fed.region_of_landmark(LandmarkId(3)), RegionId(1));
        // Bridge = min cross-pair distance: landmarks 0↔1 are 5 apart.
        assert_eq!(fed.bridge(RegionId(0), RegionId(1)), 5);
        assert_eq!(fed.bridge(RegionId(1), RegionId(0)), 5);
        assert_eq!(fed.bridge(RegionId(0), RegionId(0)), 0);
        // Each region's server got the matching sub-matrix.
        let r0 = fed.region(RegionId(0)).server();
        assert_eq!(r0.landmarks(), &[RouterId(0), RouterId(200)]);
        assert_eq!(r0.landmark_distances()[0][1], 10);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let (routers, dist) = four_landmarks();
        assert!(matches!(
            Federation::new(
                routers.clone(),
                dist.clone(),
                0,
                FederationConfig::default()
            ),
            Err(CoreError::InvalidFederation(_))
        ));
        assert!(matches!(
            Federation::new(
                routers.clone(),
                dist.clone(),
                5,
                FederationConfig::default()
            ),
            Err(CoreError::InvalidFederation(_))
        ));
        // Per-region server configs are validated at the front door too.
        let cfg = FederationConfig {
            server: ServerConfig {
                neighbor_count: 0,
                ..ServerConfig::default()
            },
            ..FederationConfig::default()
        };
        assert!(matches!(
            Federation::new(routers.clone(), dist.clone(), 2, cfg),
            Err(CoreError::InvalidConfig(_))
        ));
        let cfg = FederationConfig {
            server: ServerConfig {
                adaptive_leases: Some(crate::AdaptiveLeaseConfig {
                    min_age: 9,
                    max_age: 3,
                    ..crate::AdaptiveLeaseConfig::default()
                }),
                ..ServerConfig::default()
            },
            ..FederationConfig::default()
        };
        assert!(matches!(
            Federation::new(routers, dist, 2, cfg),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn register_routes_to_home_region_and_answers_across_regions() {
        let mut fed = federation(2, None);
        fed.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        // Peer 2 under landmark 1 (region 1), sharing no routers with 1.
        let out = fed.register(PeerId(2), path(&[110, 105, 100])).unwrap();
        assert_eq!(out.region, RegionId(1));
        assert_eq!(out.landmark, LandmarkId(1), "global landmark id");
        // The federated answer reaches across regions through the bridge:
        // query depth 2 + bridge(L1→L0) 5 + peer 1's depth 3 = 10.
        assert_eq!(out.neighbors.len(), 1);
        assert_eq!(out.neighbors[0].peer, PeerId(1));
        assert_eq!(out.neighbors[0].dtree, 2 + 5 + 3);
        assert_eq!(fed.peer_count(), 2);
        assert_eq!(fed.region_of_peer(PeerId(1)), Some(RegionId(0)));
        // Duplicates are caught across regions.
        assert!(matches!(
            fed.register(PeerId(1), path(&[111, 105, 100])),
            Err(CoreError::DuplicatePeer(_))
        ));
        assert!(matches!(
            fed.register(PeerId(3), path(&[7, 8, 999])),
            Err(CoreError::UnknownLandmark(_))
        ));
        let stats = fed.stats();
        assert_eq!(stats.queries, 2, "one federated answer per join");
        assert!(stats.remote_regions_consulted >= 2);
        assert_eq!(stats.cross_region_fills, 1);
    }

    #[test]
    fn fanout_zero_with_multiple_regions_is_rejected() {
        // Historically legal (answers came purely from the home region),
        // but it silently made every cross-region peer invisible — now a
        // typed construction error. A single region still accepts it:
        // there is no foreign region to consult anyway.
        let (routers, dist) = four_landmarks();
        let cfg = FederationConfig {
            fanout: Some(0),
            ..FederationConfig::default()
        };
        assert!(matches!(
            Federation::new(routers.clone(), dist.clone(), 2, cfg),
            Err(CoreError::InvalidFederation(_))
        ));
        let mut fed = Federation::new(routers, dist, 1, cfg).unwrap();
        fed.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        assert_eq!(fed.stats().remote_regions_consulted, 0);
    }

    #[test]
    fn cross_region_handover_leaves_a_resolvable_tombstone() {
        let mut fed = federation(2, None);
        fed.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        fed.register(PeerId(2), path(&[110, 105, 100])).unwrap();
        fed.advance_epoch().unwrap();
        // Peer 1 moves from landmark 0 (region 0) to landmark 1 (region 1).
        let out = fed.handover(PeerId(1), path(&[111, 105, 100])).unwrap();
        assert_eq!(out.region, RegionId(1));
        assert_eq!(out.landmark, LandmarkId(1));
        assert_eq!(out.neighbors[0].peer, PeerId(2), "now a same-region peer");
        assert_eq!(fed.region_of_peer(PeerId(1)), Some(RegionId(1)));
        assert_eq!(fed.peer_count(), 2, "moved, not duplicated");
        // The old region forwards stale lookups.
        assert_eq!(fed.tombstone_count(), 1);
        assert_eq!(fed.resolve(RegionId(0), PeerId(1)), Some(RegionId(1)));
        assert_eq!(fed.resolve(RegionId(1), PeerId(1)), Some(RegionId(1)));
        let stats = fed.stats();
        assert_eq!(stats.handovers, 1);
        assert_eq!(stats.cross_region_handovers, 1);
        // Expiry distinguishes "moved" from "silent": advance far enough
        // for both the tombstone and peer 2's untouched lease to lapse,
        // while peer 1 keeps heartbeating in its new region.
        for _ in 0..3 {
            fed.advance_epoch().unwrap();
            assert_eq!(fed.renew_batch(&[PeerId(1)]), 1);
        }
        let sweep = fed.expire_stale(2);
        assert_eq!(sweep.moved_swept, vec![(RegionId(0), PeerId(1))]);
        assert_eq!(
            sweep.expired,
            vec![(RegionId(1), PeerId(2))],
            "only the silent peer counts as expired"
        );
        assert_eq!(fed.region_of_peer(PeerId(1)), Some(RegionId(1)));
        assert_eq!(fed.tombstone_count(), 0, "no leaked leases");
        assert_eq!(fed.resolve(RegionId(0), PeerId(1)), None, "trail swept");
    }

    #[test]
    fn sweeping_a_tombstone_keeps_its_peer_live_where_it_returned() {
        let mut fed = federation(2, None);
        // L0 (region 0) → L1 (region 1) → L2 (region 0): p is live in
        // region 0 again, where its comeback replaced the tombstone its
        // first move left there (under another landmark).
        fed.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        fed.handover(PeerId(1), path(&[111, 105, 100])).unwrap();
        assert_eq!(fed.tombstone_count(), 1);
        fed.handover(PeerId(1), path(&[210, 205, 200])).unwrap();
        assert_eq!(fed.tombstone_count(), 1, "region 1's only");
        assert_eq!(fed.resolve(RegionId(1), PeerId(1)), Some(RegionId(0)));
        for _ in 0..3 {
            fed.advance_epoch().unwrap();
            assert_eq!(fed.renew_batch(&[PeerId(1)]), 1);
        }
        let sweep = fed.expire_stale(2);
        assert_eq!(
            sweep.moved_swept,
            vec![(RegionId(1), PeerId(1))],
            "region 1's tombstone retired"
        );
        assert!(sweep.expired.is_empty());
        assert_eq!(fed.region_of_peer(PeerId(1)), Some(RegionId(0)));
        assert_eq!(fed.locate(PeerId(1)).map(|(r, _)| r), Some(RegionId(0)));
        assert_eq!(fed.peer_count(), 1);
        // Still registered, so a second registration is a duplicate.
        assert!(matches!(
            fed.register(PeerId(1), path(&[112, 105, 100])),
            Err(CoreError::DuplicatePeer(_))
        ));
        assert!(fed.neighbors_of(PeerId(1), 3).is_ok());
    }

    #[test]
    fn intra_region_handover_keeps_the_region() {
        let mut fed = federation(2, None);
        fed.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        // Landmark 2 is also region 0 (round-robin): same-region move.
        let out = fed.handover(PeerId(1), path(&[210, 205, 200])).unwrap();
        assert_eq!(out.region, RegionId(0));
        assert_eq!(out.landmark, LandmarkId(2));
        assert_eq!(fed.tombstone_count(), 0, "no tombstone within a region");
        let stats = fed.stats();
        assert_eq!((stats.handovers, stats.cross_region_handovers), (1, 0));
        assert!(matches!(
            fed.handover(PeerId(9), path(&[4, 2, 1, 0])),
            Err(CoreError::UnknownPeer(_))
        ));
        // Validation precedes teardown: a bad destination changes nothing.
        let err = fed.handover(PeerId(1), path(&[7, 8, 999])).unwrap_err();
        assert!(matches!(err, CoreError::UnknownLandmark(_)));
        assert_eq!(fed.region_of_peer(PeerId(1)), Some(RegionId(0)));
    }

    #[test]
    fn batch_register_renews_and_rejects_cross_region_moves() {
        let mut fed = federation(4, None);
        let out = fed.register_batch(vec![
            (PeerId(1), path(&[4, 2, 1, 0])),
            (PeerId(2), path(&[110, 105, 100])),
            (PeerId(3), path(&[7, 8, 999])), // unknown landmark
        ]);
        assert_eq!((out.joined, out.renewed, out.rejected), (2, 0, 1));
        fed.advance_epoch().unwrap();
        let out = fed.register_batch(vec![
            (PeerId(1), path(&[4, 2, 1, 0])),    // rejoin: renew
            (PeerId(2), path(&[210, 205, 200])), // different region: handover material
        ]);
        assert_eq!((out.joined, out.renewed, out.rejected), (0, 1, 1));
        assert_eq!(fed.peer_count(), 2);
        assert_eq!(fed.leave_batch(&[PeerId(1), PeerId(2), PeerId(9)]), 2);
        assert_eq!(fed.peer_count(), 0);
    }

    #[test]
    fn single_region_federation_is_one_big_server() {
        let mut fed = federation(1, None);
        assert_eq!(fed.region(RegionId(0)).landmark_globals(), &[0, 1, 2, 3]);
        fed.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        let out = fed.register(PeerId(2), path(&[5, 2, 1, 0])).unwrap();
        assert_eq!(
            out.neighbors[0],
            Neighbor {
                peer: PeerId(1),
                dtree: 2
            }
        );
        assert_eq!(fed.renew_batch(&[PeerId(1)]), 1);
    }

    #[test]
    fn crashed_region_refuses_writes_and_queries_route_around_it() {
        let mut fed = federation(2, None);
        fed.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        fed.register(PeerId(2), path(&[110, 105, 100])).unwrap();
        let dead = fed.crash_region(RegionId(0)).unwrap();
        assert_eq!(dead.peer_count(), 1, "the crash took peer 1 with it");
        assert!(fed.region_down(RegionId(0)));
        assert_eq!(fed.peer_count(), 1, "only the live region counts");
        // Writes to the crashed region fail typed; double-crash too.
        assert!(matches!(
            fed.register(PeerId(3), path(&[5, 2, 1, 0])),
            Err(CoreError::RegionUnavailable(0))
        ));
        assert!(matches!(
            fed.handover(PeerId(2), path(&[5, 2, 1, 0])),
            Err(CoreError::RegionUnavailable(0))
        ));
        assert_eq!(fed.region_of_peer(PeerId(2)), Some(RegionId(1)));
        assert!(matches!(
            fed.crash_region(RegionId(0)),
            Err(CoreError::RegionUnavailable(0))
        ));
        assert!(matches!(
            fed.snapshot_region(RegionId(0)),
            Err(CoreError::RegionUnavailable(0))
        ));
        let batch = fed.register_batch(vec![
            (PeerId(4), path(&[6, 2, 1, 0])),    // home region crashed
            (PeerId(5), path(&[120, 105, 100])), // live region
        ]);
        assert_eq!((batch.joined, batch.rejected), (1, 1));
        // A query homed in the crashed region degrades to full fan-out
        // over the live regions instead of erroring.
        let answer = fed.closest_to_path(&path(&[9, 2, 1, 0]), 3, None);
        let peers: Vec<PeerId> = answer.iter().map(|n| n.peer).collect();
        assert_eq!(peers, vec![PeerId(2), PeerId(5)]);
    }

    #[test]
    fn rejoin_restores_the_region_exactly_and_resumes_serving() {
        use crate::directory::persist::journal::{append_op, JournalOp};
        let mut fed = federation(2, None);
        fed.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        fed.register(PeerId(2), path(&[110, 105, 100])).unwrap();
        fed.advance_epoch().unwrap();
        // Durable state: a snapshot, then journaled ops applied after it.
        let snapshot = fed.snapshot_region(RegionId(0)).unwrap();
        let mut journal = Vec::new();
        let op = JournalOp::RegisterBatch(vec![(PeerId(3), path(&[210, 205, 200]))]);
        append_op(&mut journal, &op);
        fed.region_mut(RegionId(0))
            .server_mut()
            .apply_journal_op(op);
        fed.crash_region(RegionId(0)).unwrap();
        // The cluster keeps ticking while the region is down.
        fed.advance_epoch().unwrap();
        fed.advance_epoch().unwrap();
        // Rejoining a live region is refused.
        assert!(matches!(
            fed.rejoin_region(RegionId(1), &snapshot, &journal),
            Err(CoreError::InvalidFederation(_))
        ));
        // A damaged snapshot fails closed and the region stays down.
        let mut bad = snapshot.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(matches!(
            fed.rejoin_region(RegionId(0), &bad, &journal),
            Err(CoreError::Persist(_))
        ));
        assert!(fed.region_down(RegionId(0)));
        // The real pair rejoins: both peers are back, epochs caught up,
        // and the region serves again.
        let report = fed.rejoin_region(RegionId(0), &snapshot, &journal).unwrap();
        assert_eq!(report.journal_records, 1);
        assert!(!fed.region_down(RegionId(0)));
        assert_eq!(fed.peer_count(), 3);
        assert_eq!(fed.region_of_peer(PeerId(1)), Some(RegionId(0)));
        assert_eq!(fed.region_of_peer(PeerId(3)), Some(RegionId(0)));
        assert_eq!(fed.region(RegionId(0)).server().epoch(), fed.epoch());
        fed.register(PeerId(4), path(&[5, 2, 1, 0])).unwrap();
        let answer = fed.neighbors_of(PeerId(4), 3).unwrap();
        assert_eq!(answer[0].peer, PeerId(1), "shares router 2, dtree 2");
        // A snapshot from the wrong region cannot rejoin.
        let foreign = fed.snapshot_region(RegionId(1)).unwrap();
        fed.crash_region(RegionId(0)).unwrap();
        assert!(matches!(
            fed.rejoin_region(RegionId(0), &foreign, &[]),
            Err(CoreError::InvalidFederation(_))
        ));
        assert!(fed.region_down(RegionId(0)));
    }
}
