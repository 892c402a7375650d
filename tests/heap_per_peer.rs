//! Pins the directory's memory per registered peer. A counting global
//! allocator tracks the bytes requested and not yet freed, so each figure
//! is a pure function of the inserted population and repeats exactly
//! (what the allocator rounds up to, and the RSS `perf` reports as
//! `server_rss_mb`, are not counted). Its own test binary, with every case
//! in one test: the counter is process-wide.
//!
//! The bounds are each case's figure plus a margin under 5 %: the
//! directory holds a peer's 9-router path once (36 B of routers) and files
//! 9 entries of 16 B in the router index. What keeps it near that:
//!
//! * a router's hash bucket is 16 bytes and holds its entry inline when it
//!   has one. `SyntheticJoins` gives every peer its own access router and,
//!   at 2 500 peers per landmark (fewer than the 4⁶ level-6 and 4⁷ level-7
//!   routers), its own level-6 and level-7 router: three of its nine
//!   entries are lists of one (two of nine at the benchmark's 12 500 per
//!   landmark);
//! * a list of up to 32 entries is a sorted `Vec`, not a
//!   `BTreeSet` whose smallest leaf is ~190 bytes: the ~3- and ~12-entry
//!   lists one and two levels above the edge;
//! * an interned path costs its slot, its routers and one 16-byte hash
//!   bucket, with no `Vec` of candidate slots per hash.
//!
//! Boxing a one-entry list again, or giving a short list a tree node,
//! fails the bounds. The traced case (a `mapper` topology, whose peers
//! share access routers) keeps the gain from being an artefact of
//! `SyntheticJoins`.

use nearpeer::core::ServerConfig;
use nearpeer_bench::{Swarm, SwarmConfig, SyntheticJoins};
use nearpeer_topology::generators::{mapper, MapperConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Requested bytes allocated and not yet freed. `Relaxed`: a statistic
/// read after the single thread that moves it is done.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting requested bytes. `realloc` is the
/// trait's default (alloc + copy + dealloc), so a growing `Vec` counts.
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
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes per peer of a `SyntheticJoins` server at `landmarks`
/// landmarks after `peers` registrations.
fn synthetic_bytes_per_peer(peers: u64, landmarks: usize) -> f64 {
    let joins = SyntheticJoins::new(landmarks);
    let before = LIVE.load(Ordering::Relaxed);
    let mut server = joins.server(ServerConfig::default());
    for p in 0..peers {
        let (peer, path) = joins.join(p);
        server.register(peer, path).expect("fresh peer");
    }
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(server.peer_count(), peers as usize);
    held as f64 / peers as f64
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

#[test]
fn directory_holds_at_most_565_heap_bytes_per_peer() {
    // 20 k peers at 8 landmarks: 552.8 bytes per peer.
    let small = synthetic_bytes_per_peer(20_000, 8);
    assert!(small <= 565.0, "20 k peers: {small:.1} heap bytes per peer");
    // The `perf` benchmark's shape, 100 k peers at 8 landmarks: 517.5.
    let bench = synthetic_bytes_per_peer(100_000, 8);
    assert!(
        bench <= 530.0,
        "100 k peers: {bench:.1} heap bytes per peer"
    );
    // 2 000 traced peers at 8 landmarks: 434.8.
    let traced = traced_bytes_per_peer();
    assert!(
        traced <= 445.0,
        "traced swarm: {traced:.1} heap bytes per peer"
    );
}
