//! Pins the read and write paths' mechanism without timing them: the heap
//! allocations one `closest_to_path` makes are a small constant that does
//! **not** grow with the number of landmark shards, on the synchronous
//! server (with a top-`k` buffer, a heap and a `seen` set per shard it
//! grew by several per shard), for a query answered entirely by
//! cross-landmark fill (one cursor per foreign landmark on the server's
//! one index; a lazy merge over every shard's list once cost a heap, a
//! `Vec` and a `Box` per foreign landmark), on the `Shared` server
//! (exactly as many: it is the same server behind a lock) and on a
//! four-region federation's frame path, whose regions answer its frames
//! on the calling thread; decoding a query frame allocates only the
//! message's own lists; encoding into a warmed buffer and a heartbeat or
//! leave under a `Shared` server's write guard make none. Allocation
//! counts on one thread repeat exactly, so this is a tier-1 test.

use bytes::BytesMut;
use nearpeer::core::codec;
use nearpeer::core::protocol::{Message, WireNeighbor};
use nearpeer::core::{
    Federation, FederationConfig, LandmarkId, ManagementServer, PathRef, PathStore, PeerId,
    PeerPath, ServerConfig, Shared,
};
use nearpeer_bench::wire::synthetic_landmarks;
use nearpeer_bench::SyntheticJoins;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (no destructor, so the allocator
    /// may touch it at any point of the thread's life).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls per thread. `realloc` is the
/// trait's default (alloc + copy + dealloc), so a growing `Vec` counts.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const K: usize = 5;
/// Peers under every landmark — enough that the asker's own tree fills
/// `k` and no cross-landmark fill runs.
const PEERS_PER_LANDMARK: u64 = 64;

fn allocations(mut query: impl FnMut() -> usize) -> u64 {
    assert_eq!(query(), K, "warm-up answer is full");
    let before = ALLOCS.with(Cell::get);
    assert_eq!(query(), K);
    let first = ALLOCS.with(Cell::get) - before;
    assert_eq!(query(), K);
    assert_eq!(
        ALLOCS.with(Cell::get) - before,
        2 * first,
        "the count repeats"
    );
    first
}

/// `(sync, actor)` allocations per query at `landmarks` shards. Peer 0's
/// path and its own shard's content are the same at every landmark count
/// (`SyntheticJoins` packs `(landmark, level, peer / landmarks)`).
fn per_query(landmarks: usize) -> (u64, u64) {
    let joins = SyntheticJoins::new(landmarks);
    let population: Vec<(PeerId, PeerPath)> = (0..PEERS_PER_LANDMARK * landmarks as u64)
        .map(|p| joins.join(p))
        .collect();
    let (asker, path) = joins.join(0);

    let mut sync: ManagementServer = joins.server(ServerConfig::default());
    let (routers, dist) = synthetic_landmarks(landmarks);
    let actor =
        Shared::new(ManagementServer::new(routers, dist, ServerConfig::default()).expect("builds"));
    for (peer, path) in population {
        actor
            .write()
            .register(peer, path.clone())
            .expect("fresh peer");
        sync.register(peer, path).expect("fresh peer");
    }
    (
        allocations(|| sync.closest_to_path(&path, K, Some(asker)).len()),
        allocations(|| actor.read().closest_to_path(&path, K, Some(asker)).len()),
    )
}

/// Allocations `op` makes on this thread.
fn count(op: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    op();
    ALLOCS.with(Cell::get) - before
}

/// Pins the write path's mechanism: a heartbeat and a leave apply on the
/// calling thread under the write guard, and neither allocates, from the
/// first leaves of a freshly grown server on: the freed lease and path
/// slots are chained through themselves, and router lists only shrink,
/// fold or collapse in place. A second leave round, after every peer
/// rejoined, allocates nothing either. Joins are not pinned: how often a
/// list grows or a chunk splits varies.
#[test]
fn heartbeats_and_leaves_allocate_nothing() {
    const PEERS: u64 = 2_000;
    let joins = SyntheticJoins::new(8);
    let (routers, dist) = synthetic_landmarks(8);
    let actor =
        Shared::new(ManagementServer::new(routers, dist, ServerConfig::default()).expect("builds"));
    let register_all = || {
        for p in 0..PEERS {
            let (peer, path) = joins.join(p);
            actor.write().register(peer, path).expect("fresh peer");
        }
    };
    let leave_all = || {
        for p in 0..PEERS {
            actor.write().deregister(PeerId(p)).expect("registered");
        }
    };
    register_all();
    let heartbeats = count(|| {
        for p in 0..PEERS {
            actor.write().heartbeat(PeerId(p)).expect("registered");
        }
    });
    assert_eq!(heartbeats, 0, "{PEERS} same-epoch heartbeats");
    assert_eq!(count(leave_all), 0, "{PEERS} first leaves");
    assert_eq!(actor.read().peer_count(), 0);
    register_all();
    assert_eq!(count(leave_all), 0, "{PEERS} leaves after a rejoin");
    assert_eq!(actor.read().peer_count(), 0);
}

/// A path store puts a freed run on the free chain of its length, and the
/// next path of that length takes it: leaves, and rejoins on other paths
/// of the same length, allocate nothing.
#[test]
fn same_length_leaves_and_rejoins_allocate_nothing() {
    const PATHS: u64 = 2_000;
    let joins = SyntheticJoins::new(8);
    let paths: Vec<PeerPath> = (0..2 * PATHS).map(|p| joins.join(p).1).collect();
    let (first, second) = paths.split_at(PATHS as usize);
    let mut store = PathStore::new();
    let refs: Vec<PathRef> = first.iter().map(|p| store.intern(p.view())).collect();
    assert_eq!(
        count(|| refs.iter().for_each(|&r| store.release(r))),
        0,
        "leaves"
    );
    let rejoins = count(|| {
        for p in second {
            store.intern(p.view());
        }
    });
    assert_eq!(
        rejoins, 0,
        "{PATHS} rejoins on new paths of the same length"
    );
    assert_eq!(store.distinct(), PATHS as usize);
}

#[test]
fn allocations_per_query_do_not_grow_with_shards() {
    let (sync_8, actor_8) = per_query(8);
    let (sync_32, actor_32) = per_query(32);
    assert_eq!(sync_8, sync_32, "ManagementServer: 8 vs 32 landmarks");
    assert_eq!(actor_8, actor_32, "Shared server: 8 vs 32 landmarks");
    // Cursors, heap, seen set, answer; the actor's read guard adds none.
    assert!(sync_8 <= 4, "ManagementServer allocates {sync_8} per query");
    assert_eq!(
        actor_8, sync_8,
        "Shared server vs ManagementServer per query"
    );
}

/// Allocations per query at `landmarks` shards for a path under landmark
/// 0 when only the other landmarks hold peers: the exact answer is empty
/// and every neighbor is a bridge fill.
fn per_fill_query(landmarks: usize) -> u64 {
    let joins = SyntheticJoins::new(landmarks);
    let mut server = joins.server(ServerConfig::default());
    let foreign = (0..PEERS_PER_LANDMARK * landmarks as u64)
        .filter(|&p| joins.landmark_of(p).0 != 0)
        .map(|p| joins.join(p))
        .collect();
    server.register_batch(foreign);
    let path = joins.path_to(0, LandmarkId(0));
    assert!(server.index().query_nearest(&path, K, None).is_empty());
    allocations(|| server.closest_to_path(&path, K, None).len())
}

#[test]
fn fill_allocations_per_query_do_not_grow_with_shards() {
    let (fill_8, fill_32) = (per_fill_query(8), per_fill_query(32));
    assert_eq!(fill_8, fill_32, "cross-landmark fill: 8 vs 32 landmarks");
    // The exact pass's buffers, the fill's heap and cursor list, its
    // growing answer and the extended result (9 today).
    assert!(fill_8 <= 12, "a filled query allocates {fill_8}");
}

/// Allocations per federated query at `landmarks` shards over 4 regions
/// (full fanout: every region answers a frame), through the frame path
/// under a `Shared` federation's read guard.
fn per_federated_query(landmarks: usize) -> u64 {
    let joins = SyntheticJoins::new(landmarks);
    let (routers, dist) = synthetic_landmarks(landmarks);
    let fed = Shared::new(
        Federation::new(
            routers,
            dist,
            4,
            FederationConfig {
                fanout: None,
                server: ServerConfig::default(),
            },
        )
        .expect("builds"),
    );
    for p in 0..PEERS_PER_LANDMARK * landmarks as u64 {
        let (peer, path) = joins.join(p);
        fed.write().register(peer, path).expect("fresh peer");
    }
    let (asker, path) = joins.join(0);
    allocations(|| fed.read().closest_by_frames(&path, K, Some(asker)).len())
}

#[test]
fn federated_allocations_per_query_do_not_grow_with_shards() {
    let (fed_8, fed_32) = (per_federated_query(8), per_federated_query(32));
    assert_eq!(fed_8, fed_32, "federation frame path: 8 vs 32 landmarks");
    // Per region: the request's path (router list and loop-check copy),
    // the region's candidates and the decoded reply's neighbor list; plus
    // the query's two frame buffers, the request's path clone, the consult
    // order and the merge. Frames encode in place and decode where they
    // lie, so no frame is copied.
    assert_eq!(fed_8, 25, "federation frame-path allocations per query");
}

#[test]
fn decoding_a_query_frame_allocates_a_constant() {
    let (asker, path) = SyntheticJoins::new(8).join(0);
    assert_eq!(path.depth(), 8);
    let frame = codec::encode_to_bytes(&Message::QueryRequest {
        nonce: 1,
        path,
        k: K as u16,
        exclude: Some(asker),
    });
    let mut decodes = (0..2).map(|_| {
        let mut buf = frame[..].into();
        count(|| {
            codec::decode(&mut buf).expect("well-formed");
        })
    });
    let first = decodes.next().expect("two decodes");
    assert_eq!(decodes.next(), Some(first), "the count repeats");
    // The router list and the path's sorted loop-check copy: the frame is
    // read where it lies and every integer read is allocation-free.
    assert_eq!(first, 2, "decode allocations per QueryRequest");
}

/// Encoding appends in place: once the output buffer has held a frame of
/// the size, encoding a reply or a push into it allocates nothing.
#[test]
fn encoding_into_a_warmed_buffer_allocates_nothing() {
    let neighbors: Vec<WireNeighbor> = (0..K as u64)
        .map(|p| WireNeighbor {
            peer: PeerId(p),
            dtree: p as u32,
        })
        .collect();
    let msgs = [
        Message::QueryReply {
            nonce: 1,
            neighbors: neighbors.clone(),
        },
        Message::JoinReply {
            peer: PeerId(9),
            neighbors: neighbors.clone(),
            delegate: Some(PeerId(3)),
        },
        Message::DeltaPush {
            peer: PeerId(9),
            epoch: 4,
            class: 1,
            added: neighbors,
            removed: vec![PeerId(7), PeerId(8)],
        },
    ];
    let mut out = BytesMut::new();
    for msg in &msgs {
        codec::encode(msg, &mut out);
    }
    for msg in &msgs {
        out.clear();
        assert_eq!(
            count(|| codec::encode(msg, &mut out)),
            0,
            "{} encode",
            msg.kind_name()
        );
    }
}
