//! The route oracle: stable router-level routes and RTTs.

use crate::spt::{CsrGraph, RouteHop, ShortestPathTree, SptMetric, SptScratch};
use nearpeer_topology::{RouterId, Topology};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Number of stripes in the lazy tree cache. Concurrent tracers mostly miss
/// on *different* intermediate routers, so a handful of stripes is enough to
/// keep them off each other's write locks.
const LAZY_STRIPES: usize = 16;

/// Scratches kept warm for lazy/ad-hoc tree builds. Parallel eager builds
/// park their per-worker scratches here too, capped so a wide build does
/// not pin `threads` × three n-entry arrays forever.
const SCRATCH_POOL_CAP: usize = 8;

/// Hard cap on lazily memoised destination trees (the eager arena is
/// exempt — its destinations were asked for by name). At the cap a
/// second-chance (clock) sweep evicts a tree not consulted since the hand
/// last passed, so hot destinations survive while one-off lookups recycle
/// among themselves. Trees are pure functions of the topology: eviction
/// can change rebuild *work*, never an answer.
///
/// Sizing: each tree holds three n-router arrays (~16 bytes per router),
/// so 1024 caps the cache near 400 MB on a 24k-router map — roomy for
/// ad-hoc `route()` callers, bounded for ones that look up arbitrary
/// destinations.
const MAX_LAZY_TREES: usize = 1024;

/// A point-in-time snapshot of one oracle's tree accounting
/// ([`RouteOracle::stats`]): how many shortest-path trees were built
/// (eager vs lazy), how often queries were answered from memory, and how
/// often builds reused a warm [`SptScratch`]. This is how "round 1 builds
/// O(landmarks) trees" stays a measured, CI-gated fact — `scale_smoke`
/// asserts `lazy_trees_built == 0` on the default trace path.
///
/// Counters are monotone over the oracle's lifetime. Tree/answer counters
/// are thread-count-independent for a fixed workload **shape** (what was
/// asked), except that concurrent first queries to the same destination
/// may each build the tree (first insert wins), and `scratch_reuses`
/// depends on how builds distribute over workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Trees built up front into the arena (one per requested destination).
    pub eager_trees_built: u64,
    /// Trees built on demand for destinations outside the arena.
    pub lazy_trees_built: u64,
    /// Queries answered by an arena tree (lock-free reads).
    pub arena_hits: u64,
    /// Queries answered by an already-cached lazy tree.
    pub lazy_hits: u64,
    /// Tree builds that reused a warm scratch instead of allocating fresh
    /// build buffers.
    pub scratch_reuses: u64,
    /// Lazy trees evicted by the cache cap's second-chance clock.
    pub lazy_evictions: u64,
}

#[derive(Debug, Default)]
struct StatCounters {
    eager_trees_built: AtomicU64,
    lazy_trees_built: AtomicU64,
    arena_hits: AtomicU64,
    lazy_hits: AtomicU64,
    scratch_reuses: AtomicU64,
    lazy_evictions: AtomicU64,
}

impl StatCounters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> OracleStats {
        OracleStats {
            eager_trees_built: self.eager_trees_built.load(Ordering::Relaxed),
            lazy_trees_built: self.lazy_trees_built.load(Ordering::Relaxed),
            arena_hits: self.arena_hits.load(Ordering::Relaxed),
            lazy_hits: self.lazy_hits.load(Ordering::Relaxed),
            scratch_reuses: self.scratch_reuses.load(Ordering::Relaxed),
            lazy_evictions: self.lazy_evictions.load(Ordering::Relaxed),
        }
    }
}

/// One cached lazy tree plus its clock reference bit (set on every hit
/// through a read lock, cleared as the eviction hand passes).
#[derive(Debug)]
struct LazyCell {
    dst: RouterId,
    tree: Arc<ShortestPathTree>,
    referenced: AtomicBool,
}

/// One stripe of the lazy cache: cells indexed by destination, plus the
/// second-chance hand. The same clock shape as the directory's adaptive
/// lease table — cells are born cold so one-off destinations are the next
/// eviction candidates while anything re-consulted survives a lap.
#[derive(Debug, Default)]
struct LazyStripe {
    index: HashMap<RouterId, usize>,
    cells: Vec<LazyCell>,
    hand: usize,
}

impl LazyStripe {
    fn get(&self, dst: RouterId) -> Option<Arc<ShortestPathTree>> {
        let &i = self.index.get(&dst)?;
        let cell = &self.cells[i];
        cell.referenced.store(true, Ordering::Relaxed);
        Some(Arc::clone(&cell.tree))
    }

    /// First insert wins: if `dst` raced in while the caller was building,
    /// the incumbent is returned and the fresh tree dropped. At `cap`
    /// cells the clock evicts; returns whether an eviction happened.
    fn insert_or_get(
        &mut self,
        dst: RouterId,
        tree: Arc<ShortestPathTree>,
        cap: usize,
    ) -> (Arc<ShortestPathTree>, bool) {
        if let Some(&i) = self.index.get(&dst) {
            let cell = &self.cells[i];
            cell.referenced.store(true, Ordering::Relaxed);
            return (Arc::clone(&cell.tree), false);
        }
        if cap == 0 || self.cells.len() < cap {
            self.index.insert(dst, self.cells.len());
            self.cells.push(LazyCell {
                dst,
                tree: Arc::clone(&tree),
                referenced: AtomicBool::new(false),
            });
            return (tree, false);
        }
        // At the cap: clear reference bits until a cold cell turns up,
        // replace it in place. Terminates within two laps.
        loop {
            let cell = &mut self.cells[self.hand];
            if cell.referenced.swap(false, Ordering::Relaxed) {
                self.hand = (self.hand + 1) % self.cells.len();
            } else {
                self.index.remove(&cell.dst);
                cell.dst = dst;
                cell.tree = Arc::clone(&tree);
                self.index.insert(dst, self.hand);
                self.hand = (self.hand + 1) % self.cells.len();
                return (tree, true);
            }
        }
    }

    fn clear(&mut self) {
        self.index.clear();
        self.cells.clear();
        self.hand = 0;
    }
}

/// Provides the route and RTT between any two routers of a topology,
/// memoising one shortest-path tree per *destination* (destination-based
/// routing, like the Internet's).
///
/// The oracle is the ground truth that the simulated traceroute walks hop by
/// hop, and the RTT source for the coordinate baselines. Routes are
/// deterministic: same topology, same routes, every run — regardless of how
/// many threads query it.
///
/// # Sharing
///
/// The oracle is `Send + Sync` and designed to be queried from many threads
/// at once (the swarm builder traces all of round 1 concurrently through
/// one oracle):
///
/// * an eager **arena** of trees for the destinations known up front — the
///   landmarks, of which there are only a few per swarm — built in parallel
///   by [`RouteOracle::with_destinations`] and read lock-free afterwards;
/// * a lock-striped lazy cache for every other destination, where trees are
///   computed outside the stripe lock and the first insert wins. Trees are
///   deterministic, so a lost race wastes a little work but can never
///   change an answer. The cache is hard-capped (1024 trees) with
///   second-chance eviction.
///
/// All trees are `Arc<ShortestPathTree>`, built through a CSR-packed
/// adjacency view with pooled [`SptScratch`] buffers, and accounted in
/// [`OracleStats`].
///
/// # One tree per trace
///
/// [`RouteOracle::route_annotated`] returns the route with a latency
/// prefix per hop, all read off the **destination** tree — the traceroute
/// simulation prices every TTL of a trace from that one tree instead of
/// resolving each hop's RTT through a tree rooted at the hop. On the swarm
/// build path the destinations are landmarks, so round 1 runs entirely out
/// of the arena: `lazy_trees_built` stays 0.
///
/// ```
/// use nearpeer_routing::RouteOracle;
/// use nearpeer_topology::{generators::regular, RouterId};
/// let topo = regular::line(4);
/// let oracle = RouteOracle::new(&topo);
/// let route = oracle.route(RouterId(0), RouterId(3)).unwrap();
/// assert_eq!(route, vec![RouterId(0), RouterId(1), RouterId(2), RouterId(3)]);
/// let annotated = oracle.route_annotated(RouterId(0), RouterId(3)).unwrap();
/// assert_eq!(annotated.len(), 4);
/// assert_eq!(annotated[2].depth, 2);
/// assert_eq!(annotated[2].prefix_latency_us * 2, oracle.rtt_us(RouterId(0), RouterId(2)).unwrap());
/// ```
pub struct RouteOracle<'t> {
    topo: &'t Topology,
    /// Flat adjacency packing, built once; every tree build sweeps this.
    csr: CsrGraph,
    /// Lazy-cache cap: [`MAX_LAZY_TREES`] outside this module's tests
    /// (`0` = unbounded).
    max_lazy_trees: usize,
    /// Immutable after construction; read without locking.
    arena: HashMap<RouterId, Arc<ShortestPathTree>>,
    /// Stripe `dst.0 % LAZY_STRIPES` owns destination `dst`.
    lazy: Vec<RwLock<LazyStripe>>,
    /// Warm build buffers, recycled across lazy builds.
    scratch_pool: Mutex<Vec<SptScratch>>,
    stats: StatCounters,
}

impl<'t> RouteOracle<'t> {
    /// Creates an oracle over a topology with an empty arena; every tree is
    /// built lazily on first use.
    pub fn new(topo: &'t Topology) -> Self {
        Self::with_destinations(topo, &[])
    }

    /// Creates an oracle and eagerly builds the trees for the given
    /// destinations — the swarm builders pass the landmark routers, so every
    /// route/RTT query towards a landmark is a lock-free arena read.
    ///
    /// The trees are independent of each other, so they are built on
    /// `available_parallelism` scoped threads when there is more than one
    /// core (and more than one destination); the arena itself is assembled
    /// deterministically afterwards. Use
    /// [`RouteOracle::with_destinations_threads`] to force a worker count.
    pub fn with_destinations(topo: &'t Topology, destinations: &[RouterId]) -> Self {
        let auto = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Self::with_destinations_threads(topo, destinations, auto)
    }

    /// [`RouteOracle::with_destinations`] with an explicit worker count for
    /// the arena precompute — so a caller that forces sequential tracing
    /// (e.g. a benchmark baseline) gets a genuinely sequential build too.
    pub fn with_destinations_threads(
        topo: &'t Topology,
        destinations: &[RouterId],
        threads: usize,
    ) -> Self {
        let csr = CsrGraph::new(topo);
        let stats = StatCounters::default();
        let mut dsts = destinations.to_vec();
        dsts.sort_unstable();
        dsts.dedup();
        let threads = threads.clamp(1, dsts.len().max(1));
        let mut arena = HashMap::with_capacity(dsts.len());
        let mut scratches: Vec<SptScratch> = Vec::new();
        if threads <= 1 {
            let mut scratch = SptScratch::new();
            for &dst in &dsts {
                arena.insert(
                    dst,
                    Arc::new(csr.shortest_path_tree(dst, SptMetric::Hops, &mut scratch)),
                );
            }
            scratches.push(scratch);
        } else {
            type BuiltChunk = (Vec<(RouterId, Arc<ShortestPathTree>)>, SptScratch);
            let chunk = dsts.len().div_ceil(threads);
            let built: Vec<BuiltChunk> = {
                let csr = &csr;
                std::thread::scope(|s| {
                    let handles: Vec<_> = dsts
                        .chunks(chunk)
                        .map(|chunk| {
                            s.spawn(move || {
                                let mut scratch = SptScratch::new();
                                let trees = chunk
                                    .iter()
                                    .map(|&dst| {
                                        (
                                            dst,
                                            Arc::new(csr.shortest_path_tree(
                                                dst,
                                                SptMetric::Hops,
                                                &mut scratch,
                                            )),
                                        )
                                    })
                                    .collect();
                                (trees, scratch)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("SPT builders never panic"))
                        .collect()
                })
            };
            for (pairs, scratch) in built {
                arena.extend(pairs);
                scratches.push(scratch);
            }
        }
        stats
            .eager_trees_built
            .fetch_add(dsts.len() as u64, Ordering::Relaxed);
        // Every build after a worker's first rode that worker's warm
        // buffers.
        let reuses: u64 = scratches.iter().map(|s| s.builds().saturating_sub(1)).sum();
        stats.scratch_reuses.fetch_add(reuses, Ordering::Relaxed);
        scratches.truncate(SCRATCH_POOL_CAP);
        Self {
            topo,
            csr,
            max_lazy_trees: MAX_LAZY_TREES,
            arena,
            lazy: (0..LAZY_STRIPES)
                .map(|_| RwLock::new(LazyStripe::default()))
                .collect(),
            scratch_pool: Mutex::new(scratches),
            stats,
        }
    }

    /// The topology this oracle answers for.
    pub fn topology(&self) -> &'t Topology {
        self.topo
    }

    /// An arena-less oracle whose lazy cache holds `cap` trees.
    #[cfg(test)]
    fn with_lazy_cap(topo: &'t Topology, cap: usize) -> Self {
        Self {
            max_lazy_trees: cap,
            ..Self::new(topo)
        }
    }

    /// A snapshot of the oracle's tree-accounting counters.
    pub fn stats(&self) -> OracleStats {
        self.stats.snapshot()
    }

    /// Builds one tree through the CSR view on a pooled scratch.
    fn build_tree(&self, dst: RouterId) -> ShortestPathTree {
        let scratch = self
            .scratch_pool
            .lock()
            .expect("scratch pool poisoned")
            .pop();
        let mut scratch = match scratch {
            Some(s) => {
                StatCounters::bump(&self.stats.scratch_reuses);
                s
            }
            None => SptScratch::new(),
        };
        let tree = self
            .csr
            .shortest_path_tree(dst, SptMetric::Hops, &mut scratch);
        let mut pool = self.scratch_pool.lock().expect("scratch pool poisoned");
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
        tree
    }

    /// The (cached) hop-metric tree rooted at `dst`.
    pub fn tree_to(&self, dst: RouterId) -> Arc<ShortestPathTree> {
        if let Some(tree) = self.arena.get(&dst) {
            StatCounters::bump(&self.stats.arena_hits);
            return Arc::clone(tree);
        }
        let stripe = &self.lazy[dst.0 as usize % LAZY_STRIPES];
        let cached = stripe.read().expect("oracle stripe poisoned").get(dst);
        if let Some(tree) = cached {
            StatCounters::bump(&self.stats.lazy_hits);
            return tree;
        }
        // Build outside the lock: trees are deterministic, so if another
        // thread races us here the first insert wins and both threads hand
        // out identical trees.
        let tree = Arc::new(self.build_tree(dst));
        StatCounters::bump(&self.stats.lazy_trees_built);
        let cap = self.per_stripe_cap();
        let (tree, evicted) = stripe
            .write()
            .expect("oracle stripe poisoned")
            .insert_or_get(dst, tree, cap);
        if evicted {
            StatCounters::bump(&self.stats.lazy_evictions);
        }
        tree
    }

    /// Lazy-cache cells each stripe may hold (`0` = unbounded).
    fn per_stripe_cap(&self) -> usize {
        if self.max_lazy_trees == 0 {
            0
        } else {
            self.max_lazy_trees.div_ceil(LAZY_STRIPES).max(1)
        }
    }

    /// Number of destination trees currently memoised (eager + lazy).
    pub fn cached_trees(&self) -> usize {
        self.arena.len()
            + self
                .lazy
                .iter()
                .map(|s| s.read().expect("oracle stripe poisoned").cells.len())
                .sum::<usize>()
    }

    /// Number of trees precomputed into the arena at construction.
    pub fn precomputed_trees(&self) -> usize {
        self.arena.len()
    }

    /// Drops every lazily memoised tree, keeping only the eager arena.
    ///
    /// The lazy cache is already capped, but callers that retain the
    /// oracle after a bulk workload (the swarm builder does) call this to
    /// shed even that; the trees are rebuilt on demand if asked again.
    pub fn discard_lazy_trees(&mut self) {
        for stripe in &self.lazy {
            stripe.write().expect("oracle stripe poisoned").clear();
        }
    }

    /// The full router route `src, ..., dst`; `None` if disconnected.
    pub fn route(&self, src: RouterId, dst: RouterId) -> Option<Vec<RouterId>> {
        self.tree_to(dst).path_to_root(src)
    }

    /// The route `src, ..., dst` with each hop carrying its one-way
    /// latency prefix from `src` and its hop index — everything a
    /// traceroute simulation needs to price all TTLs of a trace, read off
    /// the **destination tree alone**. `None` if disconnected.
    ///
    /// A hop's round-trip time under the route model is
    /// `2 × prefix_latency_us`. Where shortest paths are unique this
    /// equals [`RouteOracle::rtt_us`]`(src, hop)`; under equal-hop-count
    /// ties the per-hop tree rooted at the intermediate router may pick a
    /// different (equally shortest) path with a different latency.
    pub fn route_annotated(&self, src: RouterId, dst: RouterId) -> Option<Vec<RouteHop>> {
        self.tree_to(dst).annotated_path_to_root(src)
    }

    /// [`RouteOracle::route_annotated`] into a caller-owned buffer
    /// (cleared first); returns whether the two are connected. The
    /// allocation-free form for trace hot loops.
    pub fn route_annotated_into(
        &self,
        src: RouterId,
        dst: RouterId,
        out: &mut Vec<RouteHop>,
    ) -> bool {
        self.tree_to(dst).annotated_path_to_root_into(src, out)
    }

    /// Hop count of the route; `None` if disconnected.
    pub fn hops(&self, src: RouterId, dst: RouterId) -> Option<u32> {
        self.tree_to(dst).hops_to_root(src)
    }

    /// The pairwise hop distances between `landmarks`, row-major and
    /// symmetric, with a zero diagonal and `u32::MAX` for a disconnected
    /// pair: the matrix a management server ranks cross-landmark fills
    /// with (the real system traceroutes between its landmarks once at
    /// startup). Build the oracle with
    /// [`RouteOracle::with_destinations`] over the same landmarks so that
    /// every tree read here comes from the arena.
    pub fn landmark_hops(&self, landmarks: &[RouterId]) -> Vec<Vec<u32>> {
        let n = landmarks.len();
        let mut dist = vec![vec![u32::MAX; n]; n];
        for (i, &a) in landmarks.iter().enumerate() {
            dist[i][i] = 0;
            for (j, &b) in landmarks.iter().enumerate().skip(i + 1) {
                if let Some(h) = self.hops(a, b) {
                    dist[i][j] = h;
                    dist[j][i] = h;
                }
            }
        }
        dist
    }

    /// Round-trip time in microseconds along the (hop-shortest) route, i.e.
    /// twice the accumulated one-way link latency. `None` if disconnected.
    ///
    /// Note this is deliberately *not* the latency-optimal path: real
    /// Internet routes are not latency-shortest either, which is exactly the
    /// effect the coordinate baselines have to cope with.
    pub fn rtt_us(&self, src: RouterId, dst: RouterId) -> Option<u64> {
        self.tree_to(dst).latency_to_root_us(src).map(|l| l * 2)
    }

    /// The router where the routes `a → dst` and `b → dst` first meet — the
    /// branch point that the management server uses as the inferred
    /// rendezvous (`rc` in the paper's Figure 1). `None` if either route is
    /// missing.
    ///
    /// This is the lowest common ancestor of `a` and `b` in the destination
    /// tree, found by walking the two parent chains without allocating:
    /// step the deeper endpoint up until both sit at the same hop depth,
    /// then advance both in lockstep until they coincide.
    pub fn branch_point(&self, a: RouterId, b: RouterId, dst: RouterId) -> Option<RouterId> {
        let tree = self.tree_to(dst);
        let mut depth_a = tree.hops_to_root(a)?;
        let mut depth_b = tree.hops_to_root(b)?;
        let (mut a, mut b) = (a, b);
        while depth_a > depth_b {
            a = tree.parent(a)?;
            depth_a -= 1;
        }
        while depth_b > depth_a {
            b = tree.parent(b)?;
            depth_b -= 1;
        }
        while a != b {
            a = tree.parent(a)?;
            b = tree.parent(b)?;
        }
        Some(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpeer_topology::generators::{mapper, regular, MapperConfig};
    use nearpeer_topology::presets::figure1;

    #[test]
    fn oracle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RouteOracle<'static>>();
    }

    #[test]
    fn route_endpoints_and_caching() {
        let t = regular::grid(3, 3);
        let oracle = RouteOracle::new(&t);
        let route = oracle.route(RouterId(8), RouterId(0)).unwrap();
        assert_eq!(route.first(), Some(&RouterId(8)));
        assert_eq!(route.last(), Some(&RouterId(0)));
        assert_eq!(oracle.cached_trees(), 1);
        let _ = oracle.route(RouterId(7), RouterId(0));
        assert_eq!(oracle.cached_trees(), 1, "same destination reuses the tree");
        let _ = oracle.route(RouterId(7), RouterId(1));
        assert_eq!(oracle.cached_trees(), 2);
        let stats = oracle.stats();
        assert_eq!(stats.lazy_trees_built, 2);
        assert_eq!(stats.lazy_hits, 1);
        assert_eq!(stats.eager_trees_built, 0);
    }

    #[test]
    fn arena_answers_match_lazy_answers() {
        let t = mapper(&MapperConfig::tiny(), 9).unwrap();
        let dsts: Vec<RouterId> = t.routers().take(5).collect();
        let eager = RouteOracle::with_destinations(&t, &dsts);
        assert_eq!(eager.precomputed_trees(), 5);
        assert_eq!(eager.cached_trees(), 5);
        assert_eq!(eager.stats().eager_trees_built, 5);
        let lazy = RouteOracle::new(&t);
        assert_eq!(lazy.precomputed_trees(), 0);
        for &dst in &dsts {
            for src in t.routers() {
                assert_eq!(eager.route(src, dst), lazy.route(src, dst));
                assert_eq!(eager.rtt_us(src, dst), lazy.rtt_us(src, dst));
            }
        }
        // The arena absorbed every query; nothing leaked into the stripes.
        assert_eq!(eager.cached_trees(), 5);
        assert_eq!(eager.stats().lazy_trees_built, 0);
        assert!(eager.stats().arena_hits > 0);
    }

    #[test]
    fn with_destinations_dedups() {
        let t = regular::line(4);
        let oracle = RouteOracle::with_destinations(&t, &[RouterId(1), RouterId(1), RouterId(3)]);
        assert_eq!(oracle.precomputed_trees(), 2);
        assert_eq!(oracle.stats().eager_trees_built, 2);
    }

    #[test]
    fn forced_thread_counts_build_identical_arenas() {
        let t = mapper(&MapperConfig::tiny(), 7).unwrap();
        let dsts: Vec<RouterId> = t.routers().take(6).collect();
        let one = RouteOracle::with_destinations_threads(&t, &dsts, 1);
        assert_eq!(one.stats().scratch_reuses, 5, "one worker, six builds");
        for threads in [2, 4, 100] {
            let many = RouteOracle::with_destinations_threads(&t, &dsts, threads);
            assert_eq!(many.precomputed_trees(), one.precomputed_trees());
            for &dst in &dsts {
                assert_eq!(*many.tree_to(dst), *one.tree_to(dst), "{threads} threads");
            }
        }
    }

    #[test]
    fn discard_lazy_trees_keeps_arena_and_answers() {
        let t = regular::grid(3, 3);
        let mut oracle = RouteOracle::with_destinations(&t, &[RouterId(0)]);
        let lazy_route = oracle.route(RouterId(0), RouterId(8)).unwrap();
        assert_eq!(oracle.cached_trees(), 2);
        oracle.discard_lazy_trees();
        assert_eq!(oracle.cached_trees(), 1, "arena survives");
        assert_eq!(oracle.precomputed_trees(), 1);
        // Discarded trees rebuild on demand with identical answers.
        assert_eq!(oracle.route(RouterId(0), RouterId(8)).unwrap(), lazy_route);
        assert_eq!(oracle.stats().lazy_trees_built, 2, "rebuild counted");
    }

    #[test]
    fn concurrent_queries_agree_with_sequential() {
        let t = mapper(&MapperConfig::tiny(), 3).unwrap();
        let reference = RouteOracle::new(&t);
        let shared = RouteOracle::new(&t);
        let routers: Vec<RouterId> = t.routers().collect();
        std::thread::scope(|s| {
            for worker in 0..4usize {
                let shared = &shared;
                let routers = &routers;
                s.spawn(move || {
                    for (i, &dst) in routers.iter().enumerate() {
                        // Workers collide on every destination on purpose.
                        let src = routers[(i + worker) % routers.len()];
                        let _ = shared.route(src, dst);
                        let _ = shared.rtt_us(src, dst);
                    }
                });
            }
        });
        for &dst in routers.iter() {
            for &src in routers.iter() {
                assert_eq!(shared.route(src, dst), reference.route(src, dst));
            }
        }
        assert_eq!(shared.cached_trees(), reference.cached_trees());
    }

    #[test]
    fn rtt_doubles_one_way() {
        let t = regular::line(3); // links of 1000 us
        let oracle = RouteOracle::new(&t);
        assert_eq!(oracle.rtt_us(RouterId(0), RouterId(2)), Some(4_000));
        assert_eq!(oracle.rtt_us(RouterId(0), RouterId(0)), Some(0));
    }

    #[test]
    fn route_annotated_matches_route_and_rtt() {
        let t = mapper(&MapperConfig::tiny(), 4).unwrap();
        let oracle = RouteOracle::new(&t);
        let dst = RouterId(0);
        for src in t.routers().take(20) {
            let annotated = oracle.route_annotated(src, dst).unwrap();
            let plain = oracle.route(src, dst).unwrap();
            let routers: Vec<RouterId> = annotated.iter().map(|h| h.router).collect();
            assert_eq!(routers, plain, "{src}");
            for (i, hop) in annotated.iter().enumerate() {
                assert_eq!(hop.depth as usize, i);
            }
            // The final prefix doubles into exactly the end-to-end RTT.
            assert_eq!(
                annotated.last().unwrap().prefix_latency_us * 2,
                oracle.rtt_us(src, dst).unwrap()
            );
        }
    }

    #[test]
    fn route_annotated_disconnected_is_none() {
        let t = nearpeer_topology::TopologyBuilder::with_routers(2).build();
        let oracle = RouteOracle::new(&t);
        assert_eq!(oracle.route_annotated(RouterId(0), RouterId(1)), None);
        let mut buf = Vec::new();
        assert!(!oracle.route_annotated_into(RouterId(0), RouterId(1), &mut buf));
        assert!(buf.is_empty());
    }

    #[test]
    fn lazy_cache_respects_the_cap() {
        let t = regular::grid(5, 5); // 25 routers
        let oracle = RouteOracle::with_lazy_cap(&t, 16);
        for dst in t.routers() {
            let _ = oracle.route(RouterId(0), dst);
        }
        assert!(
            oracle.cached_trees() <= 16 + LAZY_STRIPES, // per-stripe rounding slack
            "cache grew to {}",
            oracle.cached_trees()
        );
        let stats = oracle.stats();
        assert_eq!(stats.lazy_trees_built, 25);
        assert!(stats.lazy_evictions > 0, "cap must have evicted");
        // Evicted destinations still answer — by rebuilding.
        let before = oracle.stats().lazy_trees_built;
        for dst in t.routers() {
            assert!(oracle.route(RouterId(0), dst).is_some());
        }
        assert!(oracle.stats().lazy_trees_built >= before);
    }

    #[test]
    fn second_chance_keeps_hot_destinations() {
        let t = regular::line(40);
        // One stripe cell at a time forces every insert to consider
        // eviction.
        let oracle = RouteOracle::with_lazy_cap(&t, 32);
        let hot = RouterId(0);
        let _ = oracle.route(RouterId(1), hot);
        let built_hot = oracle.stats().lazy_trees_built;
        assert_eq!(built_hot, 1);
        // Interleave one-off destinations with re-touches of the hot one.
        // Re-touching marks the cell referenced, so the clock passes over
        // it while the one-offs (born cold, never consulted again)
        // recycle among themselves.
        for dst in t.routers().skip(1) {
            let _ = oracle.route(RouterId(0), dst);
            let _ = oracle.route(RouterId(1), hot);
        }
        let stats = oracle.stats();
        // The hot destination was never rebuilt: every query after the
        // first was a cache hit.
        assert_eq!(
            stats.lazy_trees_built, 40,
            "one build per distinct destination, none for the hot re-touches"
        );
        assert!(stats.lazy_hits >= 39);
    }

    #[test]
    fn zero_cap_is_unbounded() {
        let t = regular::grid(5, 5);
        let oracle = RouteOracle::with_lazy_cap(&t, 0);
        for dst in t.routers() {
            let _ = oracle.route(RouterId(0), dst);
        }
        assert_eq!(oracle.cached_trees(), 25);
        assert_eq!(oracle.stats().lazy_evictions, 0);
    }

    #[test]
    fn branch_point_matches_figure1() {
        let fig = figure1();
        let oracle = RouteOracle::new(&fig.topology);
        let [p1, p2, p3, _] = fig.peers;
        let rc = fig.core[2];
        let rb = fig.core[1];
        let ra = fig.core[0];
        // p1 and p2 join at rc on the way to the landmark.
        assert_eq!(oracle.branch_point(p1, p2, fig.landmark), Some(rc));
        // p1 and p3 join in the core (ra): p1 goes rc→ra, p3 goes rb→ra.
        let bp13 = oracle.branch_point(p1, p3, fig.landmark).unwrap();
        assert!(bp13 == ra || bp13 == rb, "unexpected branch point {bp13}");
    }

    #[test]
    fn landmark_hops_measures_landmark_distances() {
        let fig = figure1();
        let ra = fig.core[0];
        let rb = fig.core[1];
        let landmarks = [fig.landmark, ra, rb];
        let oracle = RouteOracle::with_destinations(&fig.topology, &landmarks);
        let dist = oracle.landmark_hops(&landmarks);
        // lmk-ra adjacent, lmk-rb two hops.
        assert_eq!(dist[0][1], 1);
        assert_eq!(dist[0][2], 2);
        assert_eq!(dist[1][2], 1);
        assert_eq!(dist[2][0], 2);
        assert!((0..3).all(|i| dist[i][i] == 0), "zero diagonal");
        assert_eq!(oracle.stats().lazy_trees_built, 0, "arena reads only");
        // Two routers with no link between them.
        let t = nearpeer_topology::TopologyBuilder::with_routers(2).build();
        let dist = RouteOracle::new(&t).landmark_hops(&[RouterId(0), RouterId(1)]);
        assert_eq!(dist, vec![vec![0, u32::MAX], vec![u32::MAX, 0]]);
    }

    #[test]
    fn branch_point_of_same_router_is_itself() {
        let t = regular::line(4);
        let oracle = RouteOracle::new(&t);
        assert_eq!(
            oracle.branch_point(RouterId(0), RouterId(0), RouterId(3)),
            Some(RouterId(0))
        );
    }

    /// Reference implementation of the branch point: materialise both
    /// paths, mark one, scan the other (what `branch_point` did before the
    /// allocation-free lockstep walk).
    fn branch_point_reference(
        oracle: &RouteOracle<'_>,
        a: RouterId,
        b: RouterId,
        dst: RouterId,
    ) -> Option<RouterId> {
        let tree = oracle.tree_to(dst);
        let on_a: std::collections::HashSet<RouterId> = tree.path_to_root(a)?.into_iter().collect();
        tree.path_to_root(b)?.into_iter().find(|r| on_a.contains(r))
    }

    #[test]
    fn branch_point_matches_reference_everywhere() {
        for (name, t, stride) in [
            ("grid", regular::grid(4, 4), 1),
            ("mapper", mapper(&MapperConfig::tiny(), 11).unwrap(), 7),
        ] {
            let oracle = RouteOracle::new(&t);
            let routers: Vec<RouterId> = t.routers().step_by(stride).collect();
            let dsts: Vec<RouterId> = routers.iter().copied().step_by(3).collect();
            for &dst in &dsts {
                for &a in &routers {
                    for &b in &routers {
                        assert_eq!(
                            oracle.branch_point(a, b, dst),
                            branch_point_reference(&oracle, a, b, dst),
                            "{name}: branch_point({a}, {b}, {dst})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn disconnected_routes_are_none() {
        let t = nearpeer_topology::TopologyBuilder::with_routers(2).build();
        let oracle = RouteOracle::new(&t);
        assert_eq!(oracle.route(RouterId(0), RouterId(1)), None);
        assert_eq!(oracle.hops(RouterId(0), RouterId(1)), None);
        assert_eq!(oracle.rtt_us(RouterId(0), RouterId(1)), None);
        assert_eq!(
            oracle.branch_point(RouterId(0), RouterId(1), RouterId(1)),
            None
        );
    }

    #[test]
    fn routes_agree_with_hop_distance() {
        let t = regular::grid(4, 3);
        let oracle = RouteOracle::new(&t);
        for a in t.routers() {
            for b in t.routers() {
                let via_route = oracle.hops(a, b).unwrap();
                let direct = crate::hop_distance(&t, a, b).unwrap();
                assert_eq!(via_route, direct, "{a}->{b}");
            }
        }
    }
}
