//! Property tests for the durability layer: under arbitrary
//! register/renew/leave/handover/expire interleavings, snapshot→restore
//! and snapshot+journal-replay rebuild a directory **observationally
//! identical** to the live one — same registered set and paths, same
//! answers, same conservation counters, same future expiry behavior —
//! and every damaged-file case (flipped bytes, truncation, torn journal
//! tails) either recovers to the last consistent point or fails closed
//! with a typed error. A partial directory is never produced.

use nearpeer_core::directory::persist::journal::append_op;
use nearpeer_core::{
    AdaptiveLeaseConfig, CoreError, JournalOp, ManagementServer, PeerId, PeerPath, ServerConfig,
};
use nearpeer_topology::RouterId;
use proptest::prelude::*;

const LM_ROUTERS: [u32; 3] = [0, 1_000, 2_000];
const LM_DIST: [[u32; 3]; 3] = [[0, 3, 7], [3, 0, 4], [7, 4, 0]];

#[derive(Debug, Clone, Copy)]
struct JoinSpec {
    peer: u8,
    landmark: u8,
    access: u16,
    mids: u64,
    depth: u8,
}

/// Deterministic path synthesis (same scheme as the directory-equivalence
/// suite): a unique-ish access router, up to four mid routers sampled
/// from a shared pool, terminating at the chosen landmark.
fn spec_path(s: JoinSpec) -> PeerPath {
    let lm_router = LM_ROUTERS[(s.landmark as usize) % LM_ROUTERS.len()];
    let mut routers = vec![RouterId(50_000 + (s.access % 64) as u32)];
    let depth = (s.depth % 5) as usize;
    let mut pool: Vec<u32> = (100..140).collect();
    let mut state = s.mids | 1;
    for _ in 0..depth {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = (state >> 33) as usize % pool.len();
        routers.push(RouterId(pool.swap_remove(pick)));
    }
    routers.push(RouterId(lm_router));
    PeerPath::new(routers).expect("disjoint id ranges are loop-free")
}

/// The journal-able operation alphabet — everything the batch writer
/// records between snapshots.
#[derive(Debug, Clone)]
enum Op {
    RegisterBatch(Vec<JoinSpec>),
    RenewBatch(Vec<u8>),
    LeaveBatch(Vec<u8>),
    Handover(JoinSpec),
    DeregisterForwarding { peer: u8, region: u8 },
    Deregister(u8),
    AdvanceEpoch,
    ExpireStale(u8),
}

fn to_journal(op: &Op) -> JournalOp {
    match op {
        Op::RegisterBatch(specs) => JournalOp::RegisterBatch(
            specs
                .iter()
                .map(|&s| (PeerId(s.peer as u64), spec_path(s)))
                .collect(),
        ),
        Op::RenewBatch(peers) => {
            JournalOp::RenewBatch(peers.iter().map(|&p| PeerId(p as u64)).collect())
        }
        Op::LeaveBatch(peers) => {
            JournalOp::LeaveBatch(peers.iter().map(|&p| PeerId(p as u64)).collect())
        }
        Op::Handover(spec) => JournalOp::Handover {
            peer: PeerId(spec.peer as u64),
            path: spec_path(*spec),
        },
        Op::DeregisterForwarding { peer, region } => JournalOp::DeregisterForwarding {
            peer: PeerId(*peer as u64),
            to_region: (*region % 4) as u32,
        },
        Op::Deregister(peer) => JournalOp::Deregister(PeerId(*peer as u64)),
        Op::AdvanceEpoch => JournalOp::AdvanceEpoch,
        Op::ExpireStale(max_age) => JournalOp::ExpireStale {
            max_age: (*max_age % 6) as u64,
        },
    }
}

fn arb_spec() -> impl Strategy<Value = JoinSpec> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u16>(),
        any::<u64>(),
        any::<u8>(),
    )
        .prop_map(|(peer, landmark, access, mids, depth)| JoinSpec {
            peer: peer % 24,
            landmark,
            access,
            mids,
            depth,
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(arb_spec(), 1..6).prop_map(Op::RegisterBatch),
        prop::collection::vec(any::<u8>(), 1..6)
            .prop_map(|ps| Op::RenewBatch(ps.into_iter().map(|p| p % 24).collect())),
        prop::collection::vec(any::<u8>(), 1..6)
            .prop_map(|ps| Op::LeaveBatch(ps.into_iter().map(|p| p % 24).collect())),
        arb_spec().prop_map(Op::Handover),
        (any::<u8>(), any::<u8>()).prop_map(|(peer, region)| Op::DeregisterForwarding {
            peer: peer % 24,
            region
        }),
        any::<u8>().prop_map(|p| Op::Deregister(p % 24)),
        Just(Op::AdvanceEpoch),
        any::<u8>().prop_map(Op::ExpireStale),
    ]
}

fn build_server(adaptive: bool) -> ManagementServer {
    ManagementServer::new(
        LM_ROUTERS.iter().map(|&r| RouterId(r)).collect(),
        LM_DIST.iter().map(|row| row.to_vec()).collect(),
        ServerConfig {
            neighbor_count: 4,
            adaptive_leases: adaptive.then(|| AdaptiveLeaseConfig {
                min_age: 2,
                max_age: 10,
                ..AdaptiveLeaseConfig::default()
            }),
        },
    )
    .unwrap()
}

/// Every externally observable facet of the directory must agree.
fn assert_same_directory(a: &ManagementServer, b: &ManagementServer) {
    assert_eq!(a.epoch(), b.epoch(), "epoch");
    assert_eq!(a.peer_count(), b.peer_count(), "population");
    assert_eq!(a.stats(), b.stats(), "conservation counters");
    assert_eq!(a.tombstone_count(), b.tombstone_count(), "tombstones");
    let mut peers: Vec<PeerId> = a.index().peers().collect();
    peers.sort_unstable();
    let mut b_peers: Vec<PeerId> = b.index().peers().collect();
    b_peers.sort_unstable();
    assert_eq!(peers, b_peers, "registered set");
    for &p in &peers {
        assert_eq!(a.path_of(p), b.path_of(p), "path of {p:?}");
        assert_eq!(a.landmark_of(p), b.landmark_of(p), "landmark of {p:?}");
        assert_eq!(
            a.neighbors_of(p, 4).unwrap(),
            b.neighbors_of(p, 4).unwrap(),
            "answer for {p:?}"
        );
    }
    for p in 0..24u64 {
        assert_eq!(
            a.forwarded_to(PeerId(p)),
            b.forwarded_to(PeerId(p)),
            "forwarding of peer {p}"
        );
    }
}

/// Applies `ops`, snapshotting at `cut` and journaling everything after
/// it. Returns the live server, the snapshot, and the journal bytes.
fn run_with_cut(ops: &[Op], cut: usize, adaptive: bool) -> (ManagementServer, Vec<u8>, Vec<u8>) {
    let mut live = build_server(adaptive);
    let mut snapshot = None;
    let mut journal = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if i == cut {
            snapshot = Some(live.snapshot_bytes().unwrap());
        }
        let jop = to_journal(op);
        if i >= cut {
            append_op(&mut journal, &jop);
        }
        live.apply_journal_op(jop);
    }
    let snapshot = snapshot.unwrap_or_else(|| live.snapshot_bytes().unwrap());
    (live, snapshot, journal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Snapshot at an arbitrary cut point + journal replay of everything
    /// after it lands exactly on the live directory — including identical
    /// *future* behavior (sweeps after recovery expire the same peers,
    /// because lease ages, epoch buckets and adaptive EWMA state all
    /// survived the round trip).
    #[test]
    fn snapshot_plus_journal_replay_equals_live(
        ops in prop::collection::vec(arb_op(), 1..60),
        cut_seed in any::<u16>(),
        adaptive in any::<bool>(),
    ) {
        let cut = cut_seed as usize % (ops.len() + 1);
        let (live, snapshot, journal) = run_with_cut(&ops, cut, adaptive);
        let (recovered, report) = ManagementServer::recover(&snapshot, &journal).unwrap();
        prop_assert_eq!(report.journal_records as usize, ops.len() - cut);
        prop_assert!(!report.journal_torn_tail);
        assert_same_directory(&live, &recovered);
        // The futures coincide too.
        let mut live = live;
        let mut recovered = recovered;
        for _ in 0..8 {
            live.advance_epoch().unwrap();
            recovered.advance_epoch().unwrap();
            prop_assert_eq!(live.expire_stale(2), recovered.expire_stale(2));
        }
        assert_same_directory(&live, &recovered);
    }

    /// Any single flipped byte in the snapshot fails recovery closed with
    /// a typed persistence error — the checksum (or the header checks in
    /// front of it) rejects the file before any state is parsed.
    #[test]
    fn corrupt_snapshot_fails_closed(
        ops in prop::collection::vec(arb_op(), 1..30),
        pos_seed in any::<u32>(),
        mask in 1u8..=255,
    ) {
        let (_, snapshot, _) = run_with_cut(&ops, ops.len(), false);
        let mut bad = snapshot;
        let pos = pos_seed as usize % bad.len();
        bad[pos] ^= mask;
        let err = ManagementServer::recover(&bad, &[]).unwrap_err();
        prop_assert!(
            matches!(err, CoreError::Persist(_)),
            "expected a typed persistence error, got {err}"
        );
    }

    /// Truncating the snapshot anywhere fails closed the same way.
    #[test]
    fn truncated_snapshot_fails_closed(
        ops in prop::collection::vec(arb_op(), 1..30),
        keep_seed in any::<u32>(),
    ) {
        let (_, snapshot, _) = run_with_cut(&ops, ops.len(), false);
        let keep = keep_seed as usize % snapshot.len();
        let err = ManagementServer::recover(&snapshot[..keep], &[]).unwrap_err();
        prop_assert!(
            matches!(err, CoreError::Persist(_)),
            "expected a typed persistence error, got {err}"
        );
    }

    /// A journal cut anywhere (the crash-mid-append case) replays exactly
    /// the records that remained intact — the recovered directory equals a
    /// control that applied precisely that prefix of the op stream, never
    /// a half-applied record.
    #[test]
    fn torn_journal_recovers_to_last_consistent_point(
        ops in prop::collection::vec(arb_op(), 1..40),
        cut_seed in any::<u16>(),
        tear_seed in any::<u32>(),
    ) {
        let cut = cut_seed as usize % (ops.len() + 1);
        let (_, snapshot, journal) = run_with_cut(&ops, cut, false);
        let tear = tear_seed as usize % (journal.len() + 1);
        let torn = &journal[..tear];
        match ManagementServer::recover(&snapshot, torn) {
            Ok((recovered, report)) => {
                // Replay stopped on a record boundary: a control applying
                // exactly that many ops beyond the cut must agree.
                let survived = report.journal_records as usize;
                prop_assert!(survived <= ops.len() - cut);
                let (mut control, _) = ManagementServer::recover(&snapshot, &[]).unwrap();
                for op in &ops[cut..cut + survived] {
                    control.apply_journal_op(to_journal(op));
                }
                assert_same_directory(&control, &recovered);
            }
            // Only a damaged *header* may refuse outright (the file no
            // longer identifies as a journal); body tears must replay.
            Err(e) => {
                prop_assert!(tear < 6 && tear > 0, "body tear at {tear} refused: {e}");
                prop_assert!(matches!(e, CoreError::Persist(_)));
            }
        }
    }
}
