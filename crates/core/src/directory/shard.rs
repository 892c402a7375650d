//! One landmark's slice of the management directory.

use super::adaptive::{AdaptiveLeaseConfig, AdaptiveLeases};
use super::lease_arena::LeaseArena;
use super::path_store::{PathRef, PathStore};
use crate::error::CoreError;
use crate::ids::{LandmarkId, PeerId};
use crate::path::PeerPath;
use crate::path_tree::PathTree;
use crate::router_index::{self, query_nearest_entries, EntryMap, Neighbor};
use nearpeer_topology::RouterId;

/// Everything one [`DirectoryShard::expire_epoch`] sweep retired: leases
/// that lapsed silently, and forwarding tombstones whose retention ended.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSweep {
    /// Peers whose lease expired (they are gone from the shard), ascending.
    pub expired: Vec<PeerId>,
    /// Swept forwarding tombstones `(peer, destination_region)` — these
    /// peers did not fail, they handed over to another region and the
    /// grace record has now been retired. Ascending by peer.
    pub moved: Vec<(PeerId, u32)>,
}

/// What happened to the items of a write-only batch join
/// ([`DirectoryShard::absorb_batch`], [`crate::ManagementServer::register_batch`],
/// [`crate::Federation::register_batch`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Fresh peers registered (lease opened at the batch epoch).
    pub joined: usize,
    /// Already-registered peers whose lease was renewed instead.
    pub renewed: usize,
    /// Items dropped: a path under the wrong landmark (or an unknown one),
    /// or a peer re-appearing under a *different* landmark or region than
    /// its registration (that move is a handover, not a renewal).
    pub rejected: usize,
}

/// The per-landmark directory shard: everything the server knows about the
/// peers registered under one landmark.
///
/// A shard owns its slice of the router index (entries for every router on
/// its peers' paths), the interned path arena ([`PathStore`] — one copy
/// per distinct path instead of one clone per structure), and the
/// soft-state lease table — a slab-backed [`LeaseArena`] holding
/// membership, path handle and last-seen epoch in one contiguous
/// allocation with epoch-bucketed expiry (was three per-peer `HashMap`s
/// before the churn refactor) — and nothing else per peer: the landmark's
/// [`PathTree`] is a view built on demand from the stored paths
/// ([`Self::tree`]). Shards never reference each
/// other, and every read takes `&self`, so shards can be **queried
/// concurrently** (under the one read guard of
/// [`crate::runtime::ActorServer`]). Cross-landmark
/// concerns — neighbor-list merging, bridge-estimate fills — live in the
/// [`crate::ManagementServer`] facade.
#[derive(Debug)]
pub struct DirectoryShard {
    landmark: LandmarkId,
    root: RouterId,
    store: PathStore,
    entries: EntryMap,
    leases: LeaseArena<PathRef>,
    adaptive: Option<AdaptiveLeases>,
    inserts: u64,
    removals: u64,
}

impl DirectoryShard {
    /// Creates the empty shard for `landmark` whose router is `root`.
    pub fn new(landmark: LandmarkId, root: RouterId) -> Self {
        Self::with_adaptive(landmark, root, None)
    }

    /// Like [`Self::new`], with adaptive lease lengths enabled when a
    /// config is given: the shard tracks each peer's EWMA session length
    /// and sizes its lease accordingly at open/renewal time (see
    /// [`AdaptiveLeaseConfig`]).
    pub fn with_adaptive(
        landmark: LandmarkId,
        root: RouterId,
        adaptive: Option<AdaptiveLeaseConfig>,
    ) -> Self {
        Self {
            landmark,
            root,
            store: PathStore::new(),
            entries: EntryMap::default(),
            leases: LeaseArena::new(),
            adaptive: adaptive.map(AdaptiveLeases::new),
            inserts: 0,
            removals: 0,
        }
    }

    /// The landmark this shard serves.
    pub fn landmark(&self) -> LandmarkId {
        self.landmark
    }

    /// The landmark's router (every stored path terminates here).
    pub fn root(&self) -> RouterId {
        self.root
    }

    /// Peers registered in this shard.
    pub fn len(&self) -> usize {
        self.leases.len()
    }

    /// Whether the shard holds no peer.
    pub fn is_empty(&self) -> bool {
        self.leases.is_empty()
    }

    /// Whether `peer` is registered here.
    pub fn contains(&self, peer: PeerId) -> bool {
        self.leases.contains(peer)
    }

    /// The stored (interned) path of a peer.
    pub fn path_of(&self, peer: PeerId) -> Option<&PeerPath> {
        self.leases.get(peer).map(|&r| self.store.get(r))
    }

    /// Iterator over the shard's peers (slot order — arbitrary from the
    /// caller's point of view).
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.leases.iter().map(|(p, _, _)| p)
    }

    /// The landmark's path tree (analytics view), built on demand from the
    /// live leases' stored paths in ascending peer id — `O(peers · depth)`,
    /// and a pure function of the registered set: neither the join/leave
    /// history nor the slab's slot order shows in it.
    pub fn tree(&self) -> PathTree {
        let mut live: Vec<(PeerId, PathRef)> =
            self.leases.iter().map(|(p, _, r)| (p, *r)).collect();
        live.sort_unstable_by_key(|&(peer, _)| peer);
        let mut tree = PathTree::new(self.root);
        for (peer, r) in live {
            tree.insert(peer, self.store.get(r));
        }
        tree
    }

    /// The interned path arena (diagnostics: dedup hits, distinct paths).
    pub fn path_store(&self) -> &PathStore {
        &self.store
    }

    /// The slab-backed lease table (diagnostics: sweep cost, slot reuse).
    pub fn leases(&self) -> &LeaseArena<PathRef> {
        &self.leases
    }

    /// Distinct routers referenced by this shard's paths.
    pub fn n_routers(&self) -> usize {
        self.entries.len()
    }

    /// Iterator over the distinct routers referenced by this shard.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.entries.keys().copied()
    }

    /// Lifetime insertions (used by the facade to derive join stats; a
    /// handover re-inserts, the facade compensates).
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Lifetime removals (leave-stat source, see [`Self::inserts`]).
    pub fn removals(&self) -> u64 {
        self.removals
    }

    /// Peers of this shard whose path traverses `router`, nearest-first
    /// (by hops below the router, ties by peer id).
    pub fn peers_through(&self, router: RouterId) -> impl Iterator<Item = (PeerId, u32)> + '_ {
        self.entries
            .get(&router)
            .into_iter()
            .flat_map(|list| list.iter().map(|(d, p)| (p, d)))
    }

    /// The `k` shard peers with smallest `dtree` to the query path,
    /// ascending, ties by peer id — `&self`, so shards answer concurrently.
    pub fn query_nearest(
        &self,
        query: &PeerPath,
        k: usize,
        exclude: Option<PeerId>,
    ) -> Vec<Neighbor> {
        query_nearest_entries([&self.entries], query, k, exclude)
    }

    /// This shard's slice of the router index, for the cross-shard merge
    /// in [`super::query`].
    pub(crate) fn entries(&self) -> &EntryMap {
        &self.entries
    }

    /// The epoch `peer` last checked in, if registered.
    pub fn last_seen(&self, peer: PeerId) -> Option<u64> {
        self.leases.last_seen(peer)
    }

    /// Records a heartbeat; `false` if the peer is not in this shard.
    /// With adaptive leases on, the renewal also re-derives the peer's
    /// lease length from its session EWMA ("at renewal time").
    pub fn heartbeat(&mut self, peer: PeerId, epoch: u64) -> bool {
        match self.adaptive.as_mut().and_then(|a| a.ttl(peer)) {
            Some(ttl) => self.leases.renew_with_ttl(peer, epoch, ttl),
            None => self.leases.renew(peer, epoch),
        }
    }

    /// The destination region of `peer`'s forwarding tombstone, if this
    /// shard holds one (the peer handed over to another region's server).
    pub fn forwarded_to(&self, peer: PeerId) -> Option<u32> {
        self.leases.forwarded_to(peer)
    }

    /// Forwarding tombstones currently held (not yet swept).
    pub fn tombstone_count(&self) -> usize {
        self.leases.tombstone_count()
    }

    /// The adaptive-lease config, when enabled.
    pub fn adaptive_config(&self) -> Option<AdaptiveLeaseConfig> {
        self.adaptive.as_ref().map(|a| a.cfg())
    }

    /// Folds a finished session into the peer's EWMA (no-op without
    /// adaptive leases).
    fn observe_session(&mut self, peer: PeerId, opened: u64, last_seen: u64) {
        if let Some(a) = self.adaptive.as_mut() {
            a.observe(peer, last_seen.saturating_sub(opened));
        }
    }

    /// Shard peers last seen strictly before `cutoff` — read-only
    /// diagnostic (O(peers) slab scan). The expiring path is
    /// [`Self::expire_before`], whose epoch-bucketed sweep is linear
    /// in the lease activity being retired instead.
    pub fn stale_peers(&self, cutoff: u64) -> Vec<PeerId> {
        self.leases.stale(cutoff)
    }

    /// Indexes every router of an interned path for `peer`.
    fn index_path(&mut self, peer: PeerId, r: PathRef) {
        router_index::index_path(&mut self.entries, peer, self.store.get(r));
    }

    /// Drops `peer`'s entries for the path behind `r` from the router
    /// index and releases the arena slot.
    fn unindex_path(&mut self, peer: PeerId, r: PathRef) {
        router_index::unindex_path(&mut self.entries, peer, self.store.get(r));
        self.store.release(r);
    }

    /// Streams the shard into `out`: identity, lifetime counters, the
    /// interned path arena, the lease slab (payloads are 4-byte path
    /// refs), and the adaptive EWMA table when enabled. The router index
    /// is *not* written — it is a pure function of the registered set and
    /// rebuilds from the restored leases.
    pub(crate) fn persist_encode(&self, out: &mut Vec<u8>) {
        use super::persist::wire::{put_u32, put_u64, put_u8};
        put_u32(out, self.landmark.0);
        put_u32(out, self.root.0);
        put_u64(out, self.inserts);
        put_u64(out, self.removals);
        self.store.persist_encode(out);
        self.leases
            .persist_encode(out, |r, buf| put_u32(buf, r.slot()));
        match &self.adaptive {
            None => put_u8(out, 0),
            Some(a) => {
                put_u8(out, 1);
                a.persist_encode(out);
            }
        }
    }

    /// Rebuilds a shard written by [`Self::persist_encode`], re-deriving
    /// the router index from the restored leases and
    /// cross-checking the structures against each other: every live lease
    /// must reference a live interned path rooted at this shard's
    /// landmark, and the store's reference counts must sum to exactly the
    /// live-lease count. `adaptive` must match how the shard was running
    /// (it comes from the snapshot's own config section). Fails closed.
    pub(crate) fn persist_decode(
        r: &mut super::persist::Reader<'_>,
        adaptive: Option<AdaptiveLeaseConfig>,
    ) -> Result<Self, super::persist::PersistError> {
        use super::persist::PersistError;
        let landmark = LandmarkId(r.u32()?);
        let root = RouterId(r.u32()?);
        let inserts = r.u64()?;
        let removals = r.u64()?;
        let store = PathStore::persist_decode(r)?;
        let leases = LeaseArena::persist_decode(r, |rd| {
            let slot = rd.u32()?;
            let pr = PathRef::from_slot(slot);
            if !store.is_live(pr) {
                return Err(PersistError::Corrupt(format!(
                    "lease references dead path slot {slot}"
                )));
            }
            Ok(pr)
        })?;
        if store.total_refs() != leases.len() as u64 {
            return Err(PersistError::Corrupt(format!(
                "path store holds {} refs for {} live leases",
                store.total_refs(),
                leases.len()
            )));
        }
        let adaptive = match (r.u8()?, adaptive) {
            (0, None) => None,
            (1, Some(cfg)) => Some(AdaptiveLeases::persist_decode(cfg, r)?),
            (flag, _) => {
                return Err(PersistError::Corrupt(format!(
                    "shard adaptive flag {flag} disagrees with the snapshot config"
                )))
            }
        };
        let mut shard = DirectoryShard {
            landmark,
            root,
            store,
            entries: EntryMap::default(),
            leases,
            adaptive,
            inserts,
            removals,
        };
        let pairs: Vec<(PeerId, PathRef)> = shard.leases.iter().map(|(p, _, r)| (p, *r)).collect();
        for &(_, pr) in &pairs {
            if shard.store.get(pr).landmark_router() != root {
                return Err(PersistError::Corrupt(format!(
                    "stored path in shard {} does not terminate at its landmark router",
                    landmark.0
                )));
            }
        }
        for &(peer, pr) in &pairs {
            shard.index_path(peer, pr);
        }
        Ok(shard)
    }

    /// Registers one peer: interns the path, indexes every router on it
    /// and opens its lease at `epoch`.
    pub fn insert(&mut self, peer: PeerId, path: PeerPath, epoch: u64) -> Result<(), CoreError> {
        if path.landmark_router() != self.root {
            return Err(CoreError::UnknownLandmark(format!(
                "path terminates at {} but this shard serves {} at {}",
                path.landmark_router(),
                self.landmark,
                self.root
            )));
        }
        if self.leases.contains(peer) {
            return Err(CoreError::DuplicatePeer(peer));
        }
        let r = self.store.intern(path);
        self.index_path(peer, r);
        self.leases.insert(peer, r, epoch);
        if let Some(ttl) = self.adaptive.as_mut().and_then(|a| a.ttl(peer)) {
            self.leases.set_ttl(peer, ttl);
        }
        self.inserts += 1;
        Ok(())
    }

    /// Registers a batch at `epoch`, like a [`Self::insert`] loop, except
    /// that an item whose peer is already registered here **renews its
    /// lease** (keeping the stored path) instead of failing — the
    /// rejoin-before-expiry case a million-peer churn replay hits
    /// constantly, and a later duplicate within the batch. Wrong-root
    /// items are counted as rejected.
    pub fn absorb_batch(&mut self, items: Vec<(PeerId, PeerPath)>, epoch: u64) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        self.store.reserve(items.len());
        for (peer, path) in items {
            if path.landmark_router() != self.root {
                out.rejected += 1;
                continue;
            }
            if self.leases.contains(peer) {
                match self.adaptive.as_mut().and_then(|a| a.ttl(peer)) {
                    Some(ttl) => self.leases.renew_with_ttl(peer, epoch, ttl),
                    None => self.leases.renew(peer, epoch),
                };
                out.renewed += 1;
                continue;
            }
            let r = self.store.intern(path);
            self.index_path(peer, r);
            self.leases.insert(peer, r, epoch);
            if let Some(ttl) = self.adaptive.as_mut().and_then(|a| a.ttl(peer)) {
                self.leases.set_ttl(peer, ttl);
            }
            out.joined += 1;
        }
        self.inserts += out.joined as u64;
        out
    }

    /// Removes a peer, releasing its arena slot; `false` if unknown.
    pub fn remove(&mut self, peer: PeerId) -> bool {
        let Some((r, opened, last_seen)) = self.leases.remove_full(peer) else {
            return false;
        };
        self.observe_session(peer, opened, last_seen);
        self.unindex_path(peer, r);
        self.removals += 1;
        true
    }

    /// Removes a peer that is **relocating** (a handover, not a session
    /// end): identical to [`Self::remove`] except the session EWMA is not
    /// updated — the session continues from the new attachment, and
    /// folding the dwell time in would shrink a mobile peer's lease
    /// estimate mid-session. `false` if unknown.
    pub fn remove_moved(&mut self, peer: PeerId) -> bool {
        let Some(r) = self.leases.remove(peer) else {
            return false;
        };
        self.unindex_path(peer, r);
        self.removals += 1;
        true
    }

    /// Removes a peer that **handed over to another region**, leaving a
    /// forwarding tombstone in the lease arena: the peer's path and
    /// index entries are torn down like a departure, but the arena keeps a
    /// `(peer → region)` marker — noted in the current epoch's bucket and
    /// retired by the ordinary sweeps — so federation-aware expiry can
    /// tell "peer moved" apart from "peer silent". The session EWMA is
    /// *not* updated: the session continues elsewhere. `false` if unknown.
    pub fn remove_forwarding(&mut self, peer: PeerId, to_region: u32, epoch: u64) -> bool {
        let Some(r) = self.leases.remove(peer) else {
            return false;
        };
        self.unindex_path(peer, r);
        self.removals += 1;
        let planted = self.leases.insert_tombstone(peer, to_region, epoch);
        debug_assert!(planted, "slot was just vacated");
        true
    }

    /// Renews the lease of every listed peer registered here at `epoch`
    /// (one heartbeat round, batched). Peers in other shards cost one
    /// open-addressed probe each. Returns the number renewed.
    pub fn renew_batch(&mut self, peers: &[PeerId], epoch: u64) -> usize {
        let mut renewed = 0usize;
        for &peer in peers {
            if self.heartbeat(peer, epoch) {
                renewed += 1;
            }
        }
        renewed
    }

    /// Removes every listed peer registered here, returning the ones
    /// actually removed (in input order). Peers in other shards — or
    /// listed twice — are simply not found; the probe per miss is one
    /// open-addressed lookup.
    pub fn remove_batch(&mut self, peers: &[PeerId]) -> Vec<PeerId> {
        let mut removed = Vec::new();
        for &peer in peers {
            if self.remove(peer) {
                removed.push(peer);
            }
        }
        removed
    }

    /// Expires every lease last seen strictly before `cutoff`, returning
    /// the expired peers sorted by id. This is the epoch-bucketed linear
    /// sweep ([`LeaseArena::take_expired`]): cost proportional to the
    /// lease activity being retired, never a scan of the whole table.
    /// Uniform-lease semantics — adaptive TTLs and forwarding tombstones
    /// are served by [`Self::expire_epoch`] (this method still retires
    /// lapsed tombstones, silently).
    pub fn expire_before(&mut self, cutoff: u64) -> Vec<PeerId> {
        let outcome = self.leases_sweep_uniform(cutoff);
        self.finish_sweep(outcome).expired
    }

    /// The epoch-bucketed expiry sweep at heartbeat epoch `now` with
    /// default lease length `max_age` — the entry point the facade and
    /// the shard actors use:
    ///
    /// * without adaptive leases this is exactly
    ///   [`Self::expire_before`] at `cutoff = now - max_age`;
    /// * with adaptive leases each peer expires at its **own** deadline
    ///   (`last_seen + derived ttl`, see [`AdaptiveLeaseConfig`]), with
    ///   `max_age` as the default for peers without history;
    /// * either way, forwarding tombstones whose retention (`max_age`)
    ///   lapsed are retired and reported in [`ShardSweep::moved`] — the
    ///   federation's "peer moved, not silent" signal.
    pub fn expire_epoch(&mut self, now: u64, max_age: u64) -> ShardSweep {
        let outcome = match self.adaptive.as_ref().map(|a| a.cfg()) {
            Some(cfg) => {
                let min_ttl = (cfg.min_age as u64).min(max_age).max(1);
                self.leases.take_due(now, max_age, min_ttl)
            }
            None => self.leases_sweep_uniform(now.saturating_sub(max_age)),
        };
        self.finish_sweep(outcome)
    }

    /// The historical uniform sweep (`last_seen < cutoff`), expressed
    /// through the generalized deadline sweep.
    fn leases_sweep_uniform(&mut self, cutoff: u64) -> super::lease_arena::SweepOutcome<PathRef> {
        self.leases.take_due(cutoff.saturating_add(1), 1, 1)
    }

    /// Tears down the directory state of a sweep's expired leases and
    /// folds their sessions into the EWMA.
    fn finish_sweep(&mut self, outcome: super::lease_arena::SweepOutcome<PathRef>) -> ShardSweep {
        let mut out = ShardSweep {
            expired: Vec::with_capacity(outcome.expired.len()),
            moved: outcome.moved,
        };
        for lease in outcome.expired {
            self.observe_session(lease.peer, lease.opened, lease.last_seen);
            self.unindex_path(lease.peer, lease.value);
            self.removals += 1;
            out.expired.push(lease.peer);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    fn shard() -> DirectoryShard {
        DirectoryShard::new(LandmarkId(0), RouterId(0))
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut s = shard();
        s.insert(PeerId(1), path(&[4, 2, 1, 0]), 0).unwrap();
        s.insert(PeerId(2), path(&[5, 2, 1, 0]), 0).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.tree().n_peers(), 2);
        assert_eq!(s.path_of(PeerId(1)).unwrap().attach(), RouterId(4));
        let q = path(&[4, 2, 1, 0]);
        let res = s.query_nearest(&q, 5, None);
        assert_eq!(res[0].peer, PeerId(1));
        assert_eq!(res[0].dtree, 0);
        assert_eq!(res[1].peer, PeerId(2));
        assert_eq!(res[1].dtree, 2);
        assert!(s.remove(PeerId(1)));
        assert!(!s.remove(PeerId(1)));
        assert_eq!(s.len(), 1);
        assert!(s.path_of(PeerId(1)).is_none());
        assert_eq!(s.inserts(), 2);
        assert_eq!(s.removals(), 1);
    }

    #[test]
    fn rejects_foreign_and_duplicate() {
        let mut s = shard();
        assert!(matches!(
            s.insert(PeerId(1), path(&[4, 2, 99]), 0),
            Err(CoreError::UnknownLandmark(_))
        ));
        s.insert(PeerId(1), path(&[4, 2, 1, 0]), 0).unwrap();
        assert!(matches!(
            s.insert(PeerId(1), path(&[5, 2, 1, 0]), 0),
            Err(CoreError::DuplicatePeer(_))
        ));
    }

    #[test]
    fn batch_matches_sequential_inserts() {
        let mut seq = shard();
        let mut bat = shard();
        let paths = [
            path(&[4, 2, 1, 0]),
            path(&[5, 2, 1, 0]),
            path(&[6, 3, 1, 0]),
            path(&[7, 42]), // wrong root, skipped both ways
            path(&[2, 1, 0]),
        ];
        let mut ok = 0;
        for (i, p) in paths.iter().enumerate() {
            if seq.insert(PeerId(i as u64), p.clone(), 3).is_ok() {
                ok += 1;
            }
        }
        let items: Vec<(PeerId, PeerPath)> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| (PeerId(i as u64), p.clone()))
            .collect();
        let out = bat.absorb_batch(items, 3);
        assert_eq!((out.joined, out.renewed, out.rejected), (ok, 0, 1));
        assert_eq!(bat.len(), seq.len());
        assert_eq!(bat.n_routers(), seq.n_routers());
        assert_eq!(bat.tree().n_peers(), seq.tree().n_peers());
        assert_eq!(bat.tree().n_nodes(), seq.tree().n_nodes());
        assert_eq!(bat.last_seen(PeerId(0)), Some(3));
        let q = path(&[4, 2, 1, 0]);
        assert_eq!(
            bat.query_nearest(&q, 5, None),
            seq.query_nearest(&q, 5, None)
        );
        assert_eq!(bat.inserts(), seq.inserts());
    }

    #[test]
    fn batch_skips_duplicates_within_batch() {
        let mut s = shard();
        let items = vec![
            (PeerId(1), path(&[4, 2, 1, 0])),
            (PeerId(1), path(&[5, 2, 1, 0])),
        ];
        let out = s.absorb_batch(items, 0);
        assert_eq!((out.joined, out.renewed), (1, 1));
        assert_eq!(s.path_of(PeerId(1)).unwrap().attach(), RouterId(4));
        assert_eq!(s.inserts(), 1);
    }

    #[test]
    fn absorb_batch_renews_instead_of_skipping() {
        let mut s = shard();
        s.insert(PeerId(1), path(&[4, 2, 1, 0]), 0).unwrap();
        let out = s.absorb_batch(
            vec![
                (PeerId(1), path(&[5, 2, 1, 0])), // registered: renew, keep path
                (PeerId(2), path(&[5, 2, 1, 0])), // fresh: join
                (PeerId(3), path(&[9, 42])),      // wrong root: reject
            ],
            7,
        );
        assert_eq!(
            out,
            BatchOutcome {
                joined: 1,
                renewed: 1,
                rejected: 1
            }
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.last_seen(PeerId(1)), Some(7), "lease renewed");
        assert_eq!(
            s.path_of(PeerId(1)).unwrap().attach(),
            RouterId(4),
            "renewal keeps the stored path"
        );
        assert_eq!(s.inserts(), 2);
    }

    #[test]
    fn remove_batch_ignores_foreign_and_duplicate_ids() {
        let mut s = shard();
        s.insert(PeerId(1), path(&[4, 2, 1, 0]), 0).unwrap();
        s.insert(PeerId(2), path(&[5, 2, 1, 0]), 0).unwrap();
        let removed = s.remove_batch(&[PeerId(2), PeerId(9), PeerId(2), PeerId(1)]);
        assert_eq!(removed, vec![PeerId(2), PeerId(1)]);
        assert!(s.is_empty());
        assert_eq!(s.removals(), 2);
    }

    #[test]
    fn expire_batch_sweeps_and_cleans_indexes() {
        let mut s = shard();
        s.insert(PeerId(1), path(&[4, 2, 1, 0]), 0).unwrap();
        s.insert(PeerId(2), path(&[5, 2, 1, 0]), 0).unwrap();
        s.heartbeat(PeerId(1), 4);
        let expired = s.expire_before(3);
        assert_eq!(expired, vec![PeerId(2)]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.tree().n_peers(), 1);
        assert!(s.path_of(PeerId(2)).is_none());
        assert_eq!(s.path_store().distinct(), 1);
        assert_eq!(s.removals(), 1);
        // Matches what the read-only diagnostic would have named.
        assert!(s.stale_peers(3).is_empty());
    }

    #[test]
    fn remove_forwarding_leaves_a_swept_tombstone() {
        let mut s = shard();
        s.insert(PeerId(1), path(&[4, 2, 1, 0]), 0).unwrap();
        s.insert(PeerId(2), path(&[5, 2, 1, 0]), 0).unwrap();
        assert!(s.remove_forwarding(PeerId(1), 3, 2));
        assert!(!s.remove_forwarding(PeerId(9), 3, 2));
        // The peer is gone from every directory structure...
        assert_eq!(s.len(), 1);
        assert!(s.path_of(PeerId(1)).is_none());
        assert_eq!(s.tree().n_peers(), 1);
        assert_eq!(s.removals(), 1);
        // ...but the forwarding record remains until its retention lapses.
        assert_eq!(s.forwarded_to(PeerId(1)), Some(3));
        assert_eq!(s.tombstone_count(), 1);
        let sweep = s.expire_epoch(4, 4);
        assert!(sweep.expired.is_empty() && sweep.moved.is_empty());
        let sweep = s.expire_epoch(7, 4);
        assert_eq!(sweep.moved, vec![(PeerId(1), 3)]);
        // Peer 2's lease (last seen 0) lapsed in the same sweep — the two
        // dispositions stay distinguishable.
        assert_eq!(sweep.expired, vec![PeerId(2)]);
        assert_eq!(s.tombstone_count(), 0);
        assert_eq!(s.forwarded_to(PeerId(1)), None);
    }

    #[test]
    fn emptied_shard_holds_no_router_and_no_tree_node() {
        // 1 000 peers, each behind its own access router, leave by every
        // road out of a shard; nothing of them may stay behind.
        let mut s = shard();
        let ids: Vec<PeerId> = (0..1_000).map(PeerId).collect();
        let items = ids
            .iter()
            .map(|&p| (p, path(&[10_000 + p.0 as u32, 2 + p.0 as u32 % 7, 1, 0])));
        assert_eq!(s.absorb_batch(items.collect(), 0).joined, 1_000);
        assert_eq!(s.n_routers(), 1_000 + 7 + 2);
        assert_eq!(s.tree().n_nodes(), 1_000 + 7 + 2);
        assert_eq!(s.remove_batch(&ids[..400]).len(), 400);
        for &peer in &ids[400..700] {
            assert!(s.remove_forwarding(peer, 1, 0));
        }
        let sweep = s.expire_epoch(10, 4);
        assert_eq!((&sweep.expired[..], sweep.moved.len()), (&ids[700..], 300));
        assert_eq!((s.len(), s.n_routers(), s.tombstone_count()), (0, 0, 0));
        assert_eq!(s.tree().n_nodes(), 1, "only the landmark's own router");
        assert_eq!(s.tree().n_peers(), 0);
    }

    #[test]
    fn expire_epoch_matches_expire_before_without_adaptive() {
        let build = || {
            let mut s = shard();
            s.insert(PeerId(1), path(&[4, 2, 1, 0]), 0).unwrap();
            s.insert(PeerId(2), path(&[5, 2, 1, 0]), 0).unwrap();
            s.heartbeat(PeerId(1), 4);
            s
        };
        let mut a = build();
        let mut b = build();
        assert_eq!(
            a.expire_epoch(6, 3).expired,
            b.expire_before(3),
            "expire_epoch(now, max_age) == expire_before(now - max_age)"
        );
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn adaptive_shortens_the_lease_of_short_lived_peers() {
        let cfg = AdaptiveLeaseConfig {
            ewma_shift: 1,
            margin: 1,
            min_age: 1,
            max_age: 16,
            max_tracked: 1024,
        };
        let mut s = DirectoryShard::with_adaptive(LandmarkId(0), RouterId(0), Some(cfg));
        // Peer 1 lives one epoch, leaves, and rejoins repeatedly: its EWMA
        // settles near 1, so its lease is derived as ~2 epochs.
        for round in 0u64..4 {
            let e = round * 10;
            s.insert(PeerId(1), path(&[4, 2, 1, 0]), e).unwrap();
            s.heartbeat(PeerId(1), e + 1);
            assert!(s.remove(PeerId(1)));
        }
        s.insert(PeerId(1), path(&[4, 2, 1, 0]), 100).unwrap();
        // A fresh peer joins at the same epoch with no history.
        s.insert(PeerId(2), path(&[5, 2, 1, 0]), 100).unwrap();
        // Sweep at epoch 106 with the default lease of 16: the adapted
        // peer (ttl ≈ 2) is expired ~8 epochs sooner than the default
        // would allow; the history-less peer keeps the full lease.
        let sweep = s.expire_epoch(106, 16);
        assert_eq!(sweep.expired, vec![PeerId(1)]);
        assert!(s.contains(PeerId(2)));
        assert_eq!(s.adaptive_config(), Some(cfg));
    }

    #[test]
    fn adaptive_lease_never_exceeds_the_configured_cap() {
        let cfg = AdaptiveLeaseConfig {
            ewma_shift: 0, // take each session whole
            margin: 0,
            min_age: 1,
            max_age: 4,
            max_tracked: 1024,
        };
        let mut s = DirectoryShard::with_adaptive(LandmarkId(0), RouterId(0), Some(cfg));
        // One very long session: the estimate caps out, so the peer is
        // untracked and rides the default lease on rejoin (= the
        // configured cap in a consistent deployment).
        s.insert(PeerId(1), path(&[4, 2, 1, 0]), 0).unwrap();
        s.heartbeat(PeerId(1), 50);
        assert!(s.remove(PeerId(1)));
        s.insert(PeerId(1), path(&[4, 2, 1, 0]), 60).unwrap();
        let sweep = s.expire_epoch(65, cfg.max_age as u64);
        assert_eq!(
            sweep.expired,
            vec![PeerId(1)],
            "never more than the 4-epoch cap, however long the EWMA history"
        );
    }

    #[test]
    fn interning_shares_identical_paths() {
        let mut s = shard();
        // Two peers behind the same NAT report the same router path.
        s.insert(PeerId(1), path(&[4, 2, 1, 0]), 0).unwrap();
        s.insert(PeerId(2), path(&[4, 2, 1, 0]), 0).unwrap();
        assert_eq!(s.path_store().distinct(), 1);
        assert_eq!(s.path_store().dedup_hits(), 1);
        // Both peers are individually indexed and removable.
        assert_eq!(s.peers_through(RouterId(4)).count(), 2);
        s.remove(PeerId(1));
        assert_eq!(s.path_store().distinct(), 1);
        assert_eq!(s.path_of(PeerId(2)).unwrap().attach(), RouterId(4));
        s.remove(PeerId(2));
        assert!(s.path_store().is_empty());
    }
}
