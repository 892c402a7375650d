//! Pins the directory's memory per registered peer. A counting global
//! allocator tracks the bytes requested and not yet freed, so the figure
//! is a pure function of the inserted population and repeats exactly
//! (what the allocator rounds up to, and the RSS `perf` reports as
//! `server_rss_mb`, are not counted). Its own test binary: the counter is
//! process-wide, and this is the only test here.

use nearpeer::core::ServerConfig;
use nearpeer_bench::SyntheticJoins;
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

const PEERS: u64 = 20_000;

/// `SyntheticJoins` gives every peer its own access router and, at 2 500
/// peers per landmark (fewer than the 4⁶ level-6 and 4⁷ level-7 routers),
/// its own level-6 and level-7 router: three of its nine router-index
/// entries are lists of one (two of nine at the benchmark's 12 500 per
/// landmark). Holding those inline instead of in a one-element `BTreeSet`
/// (a leaf node of ~190 bytes each) is what keeps the directory under
/// the bound.
#[test]
fn directory_holds_at_most_900_heap_bytes_per_peer() {
    let joins = SyntheticJoins::new(8);
    let before = LIVE.load(Ordering::Relaxed);
    let mut server = joins.server(ServerConfig::default());
    for p in 0..PEERS {
        let (peer, path) = joins.join(p);
        server.register(peer, path).expect("fresh peer");
    }
    let per_peer = (LIVE.load(Ordering::Relaxed) - before) as f64 / PEERS as f64;
    assert_eq!(server.peer_count(), PEERS as usize);
    assert!(
        per_peer <= 900.0,
        "the directory holds {per_peer:.0} heap bytes per peer"
    );
}
