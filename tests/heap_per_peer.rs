//! Pins the directory's memory per registered peer. A counting global
//! allocator tracks the bytes requested and not yet freed, so each figure
//! is a pure function of the inserted population and repeats exactly
//! (what the allocator rounds up to, and the RSS `perf` reports as
//! `server_rss_mb`, are not counted). Its own test binary, with every case
//! in one test: the counter is process-wide.
//!
//! The bounds are each case's figure plus a margin under 2.5 %: the
//! directory holds a peer's 9-router path once (36 B of routers) and files
//! 9 entries of 12 B in the router index. What keeps it near that:
//!
//! * a router's hash bucket is 16 bytes and holds its entry inline when it
//!   has one. `SyntheticJoins` gives every peer its own access router and,
//!   at 2 500 peers per landmark (fewer than the 4⁶ level-6 and 4⁷ level-7
//!   routers), its own level-6 and level-7 router: three of its nine
//!   entries are lists of one (two of nine at the benchmark's 12 500 per
//!   landmark);
//! * every longer list stores 12-byte entries with no padding and no tree
//!   nodes: up to 64 entries as one sorted `Vec` (the ~3-, ~12- and
//!   ~50-entry lists one to three levels above the edge), more as sorted
//!   chunks of at most 64. Chunk fill depends on the order of the joins,
//!   so the benchmark's population is measured in ascending order and in
//!   the order `perf`'s 8 set-up connections deliver it;
//! * an interned path costs a 16-byte slot, a 4-byte table entry and its
//!   run in its store's one router `Vec`: no heap block of its own;
//! * a lease is one 36-byte slot: its epochs are `u32` offsets and its
//!   peer id two `u32` halves.
//!
//! Boxing a one-entry list or a stored path again, padding entries back to
//! 16 bytes, widening the lease slot, or giving a list tree nodes fails
//! the bounds. In the benchmark's ascending case the server's
//! `heap_parts` must add up to the counted bytes within 1 % (they match
//! exactly on the current toolchain; the index's bucket bytes repeat std's
//! private hash table layout, which a toolchain may change), and a failed
//! bound prints them. The traced case (a `mapper`
//! topology, whose peers share access routers) keeps the gain from being
//! an artefact of `SyntheticJoins`.
//!
//! The same build also bounds the largest block the directory *frees*
//! while it grows: under 1 MiB. `server_rss_mb` is the daemon's peak
//! resident set, and it moves with how large tables grow as well as with
//! the bytes they hold. glibc serves a block at or above its mmap
//! threshold (128 KiB at start) with its own `mmap`, and when such a
//! block is freed it raises the threshold to that block's size (up to
//! 32 MiB). A hash table that doubles frees its old buckets, so a
//! peer-keyed map of 100 k entries, freeing 1.1 MB as it grew to 2.2 MB,
//! moved every later table under 1.1 MB from `mmap` into the heap, where
//! the daemon's per-thread arenas fragment and keep freed pages resident:
//! deleting that one map took `perf`'s `query_1r` `server_rss_mb` from
//! 53.25 to 45.85 MB, 3.4× the map's own size. A `Vec` grown by
//! `realloc` is no such free (glibc grows a large block in place or by
//! `mremap`, and neither moves the threshold), so `realloc` is forwarded
//! and not counted as one.

use nearpeer::core::{ManagementServer, ServerConfig};
use nearpeer_bench::{Swarm, SwarmConfig, SyntheticJoins};
use nearpeer_topology::generators::{mapper, MapperConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Requested bytes allocated and not yet freed. `Relaxed`: a statistic
/// read after the single thread that moves it is done.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The largest block passed to `dealloc` since the last reset.
static LARGEST_FREE: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting requested bytes. `realloc` goes to
/// `System.realloc`, so a growing `Vec` counts at its new size and is not
/// a free.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        LARGEST_FREE.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: the caller's obligations are `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One build's figures: heap bytes per peer, the largest block freed
/// while it grew, and the server's [`ManagementServer::heap_parts`] with
/// the bytes its construction held as a first part.
struct Build {
    per_peer: f64,
    largest_free: usize,
    parts: Vec<(&'static str, usize)>,
    held: usize,
}

impl Build {
    /// The parts, bytes per peer, one line each.
    fn table(&self) -> String {
        let peers = self.held as f64 / self.per_peer;
        self.parts
            .iter()
            .map(|(name, bytes)| format!("  {name:<20} {:>6.1}\n", *bytes as f64 / peers))
            .collect()
    }
}

/// Live heap bytes of a `SyntheticJoins` server at `landmarks` landmarks
/// after registering peers `0..peers` in `lanes` contiguous id ranges
/// taken round-robin, one join from each in turn: 1 lane is ascending
/// order, 8 the order `perf`'s 8 set-up connections deliver.
fn synthetic_build(peers: u64, landmarks: usize, lanes: u64) -> Build {
    let joins = SyntheticJoins::new(landmarks);
    let per_lane = peers / lanes;
    assert_eq!(per_lane * lanes, peers, "lanes split the ids evenly");
    LARGEST_FREE.store(0, Ordering::Relaxed);
    let before = LIVE.load(Ordering::Relaxed);
    let mut server = joins.server(ServerConfig::default());
    let parts_held = |server: &ManagementServer| -> usize {
        server.heap_parts().iter().map(|&(_, bytes)| bytes).sum()
    };
    let construction = (LIVE.load(Ordering::Relaxed) - before) as usize - parts_held(&server);
    for i in 0..per_lane {
        for lane in 0..lanes {
            let (peer, path) = joins.join(lane * per_lane + i);
            server.register(peer, path).expect("fresh peer");
        }
    }
    let held = (LIVE.load(Ordering::Relaxed) - before) as usize;
    let largest_free = LARGEST_FREE.load(Ordering::Relaxed);
    assert_eq!(server.peer_count(), peers as usize);
    let mut parts = vec![("construction", construction)];
    parts.extend(server.heap_parts());
    Build {
        per_peer: held as f64 / peers as f64,
        largest_free,
        parts,
        held,
    }
}

/// Live heap bytes per peer of the server of a swarm traced over a mapper
/// topology: what dropping the server frees.
fn traced_bytes_per_peer() -> f64 {
    let topo = mapper(&MapperConfig::with_access(1_500, 2_500), 7).expect("mapper builds");
    let config = SwarmConfig {
        n_peers: 2_000,
        n_landmarks: 8,
        trace_threads: Some(1),
        ..Default::default()
    };
    let Swarm { server, .. } = Swarm::build(&topo, &config, 7).expect("swarm builds");
    let peers = server.peer_count();
    let held = LIVE.load(Ordering::Relaxed);
    drop(server);
    (held - LIVE.load(Ordering::Relaxed)) as f64 / peers as f64
}

/// The largest block a directory may free while it grows: a table of
/// 1 MiB or more, freed, raises glibc's mmap threshold past the
/// directory's mid-size tables (see the module docs).
const MAX_FREE: usize = 1 << 20;

/// Fails with the build's parts when `bound` is exceeded.
fn check(label: &str, build: &Build, bound: f64) {
    assert!(
        build.per_peer <= bound,
        "{label}: {:.1} heap bytes per peer, over {bound}:\n{}",
        build.per_peer,
        build.table()
    );
}

#[test]
fn directory_holds_at_most_485_heap_bytes_per_peer() {
    // 20 k peers at 8 landmarks, ascending: 404.1 bytes per peer.
    check("20 k peers", &synthetic_build(20_000, 8, 1), 413.0);
    // The `perf` benchmark's shape, 100 k peers at 8 landmarks,
    // ascending: 360.0, the largest free the lease table's last growth
    // (512 KiB). The parts account for the counted bytes: the index's
    // bucket bytes are computed from std's hash table layout, so they are
    // held to 1 % rather than to the byte.
    let bench = synthetic_build(100_000, 8, 1);
    check("100 k peers", &bench, 365.0);
    let parts: usize = bench.parts.iter().map(|&(_, bytes)| bytes).sum();
    assert!(
        parts.abs_diff(bench.held) * 100 <= bench.held,
        "100 k peers: parts sum to {parts}, {} counted\n{}",
        bench.held,
        bench.table()
    );
    assert!(
        bench.largest_free < MAX_FREE,
        "100 k peers: a {}-byte block freed",
        bench.largest_free
    );
    // The same peers in `perf`'s set-up order: 369.0.
    let lanes = synthetic_build(100_000, 8, 8);
    check("100 k peers in 8 lanes", &lanes, 377.0);
    assert!(
        lanes.largest_free < MAX_FREE,
        "100 k peers in 8 lanes: a {}-byte block freed",
        lanes.largest_free
    );
    // 2 000 traced peers at 8 landmarks: 304.9.
    let traced = traced_bytes_per_peer();
    assert!(
        traced <= 312.0,
        "traced swarm: {traced:.1} heap bytes per peer"
    );
}
