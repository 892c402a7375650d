//! Pins the persistence bytes of a small server byte for byte, as
//! `codec::tests::golden_wire_bytes` pins the wire frames: a snapshot, a
//! journal of every op kind, and the snapshot of the server that journal
//! replays into. The server holds live leases under two landmarks, one
//! path shared by two peers, a freed path slot on its store's free chain,
//! a forwarding tombstone and an adaptive lease length, so a change to
//! how the lease table or a path store lays out its state in memory
//! fails here if it leaks into the bytes (`SNAPSHOT_VERSION` stays 2).

use nearpeer_core::directory::persist::journal::append_op;
use nearpeer_core::{
    AdaptiveLeaseConfig, JournalOp, LandmarkId, ManagementServer, PeerId, PeerPath, ServerConfig,
};
use nearpeer_topology::RouterId;

fn path(ids: &[u32]) -> PeerPath {
    PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Two landmarks (routers 0 and 1000, 3 hops apart) with adaptive leases,
/// after a short history.
fn server() -> ManagementServer {
    let config = ServerConfig {
        adaptive_leases: Some(AdaptiveLeaseConfig::default()),
        ..ServerConfig::default()
    };
    let mut srv = ManagementServer::new(
        vec![RouterId(0), RouterId(1_000)],
        vec![vec![0, 3], vec![3, 0]],
        config,
    )
    .unwrap();
    // Peers 1 and 2 share one path; 3 and 4 under landmark 0, 5 and 6
    // under landmark 1.
    srv.register(PeerId(1), path(&[10, 11, 0])).unwrap();
    srv.register(PeerId(2), path(&[10, 11, 0])).unwrap();
    srv.register(PeerId(3), path(&[20, 21, 22, 0])).unwrap();
    srv.register(PeerId(4), path(&[30, 0])).unwrap();
    srv.register(PeerId(5), path(&[40, 41, 1_000])).unwrap();
    srv.register(PeerId(6), path(&[50, 1_000])).unwrap();
    let _ = srv.advance_epoch();
    srv.heartbeat(PeerId(1)).unwrap();
    // Peer 3's path was its own: its slot goes on the free chain.
    srv.deregister(PeerId(3)).unwrap();
    // Peer 6 ends a one-epoch session and comes back: its lease is sized
    // by the session EWMA.
    srv.deregister(PeerId(6)).unwrap();
    srv.register(PeerId(6), path(&[50, 1_000])).unwrap();
    // Peer 5 moves to region 2 and leaves a forwarding tombstone.
    srv.deregister_forwarding(PeerId(5), 2).unwrap();
    let _ = srv.advance_epoch();
    let _ = srv.advance_epoch();
    srv.heartbeat(PeerId(2)).unwrap();
    let _ = srv.expire_stale_full(4);
    srv
}

/// One op of each journal kind.
fn ops() -> Vec<JournalOp> {
    vec![
        JournalOp::AdvanceEpoch,
        JournalOp::RegisterBatch(vec![
            (PeerId(7), path(&[60, 61, 0])),
            (PeerId(1), path(&[10, 11, 0])),
            (PeerId(8), path(&[20, 21, 22, 0])),
        ]),
        JournalOp::RenewBatch(vec![PeerId(2), PeerId(9)]),
        JournalOp::LeaveBatch(vec![PeerId(4)]),
        JournalOp::Handover {
            peer: PeerId(2),
            path: path(&[70, 71, 1_000]),
        },
        JournalOp::DeregisterForwarding {
            peer: PeerId(7),
            to_region: 3,
        },
        JournalOp::Deregister(PeerId(6)),
        JournalOp::AdvanceEpoch,
        JournalOp::ExpireStale { max_age: 1 },
    ]
}

const SNAPSHOT: &str = concat!(
    "4e50534e02000000050000000000000001010100000001000000010000000800",
    "0000000001000300000000000000000000000000000007000000000000000b00",
    "0000000000000200000000000000e80300000000000003000000030000000000",
    "0000070000000000000004000000000000000300000000000000010200000003",
    "000a0000000b0000000000000000010100000002001e00000000000000010000",
    "0000000000010000000100000000000000020000000000000000000200000000",
    "0000000000000001000000000000000000000006000000000000000000000001",
    "000000000000000000000000000000ffffffff04000000000000000101000000",
    "000000000000000000000000000003000000000000000000000000000000ffff",
    "ffff030000000000000001020000000000000000000000000001000000000000",
    "00000000000000000000000000ffffffff000000000000000000000000000000",
    "0000000000000000000000000000ffffffff0300000000000000010400000000",
    "0000000000020000000100000001000000000000000100000000000000ffffff",
    "ff04000000000000000205000000000000000200000002000000010000000000",
    "0000010000000000000001000000010000000000000000020000000000000002",
    "0000000500000010000000000000000200000000000000030000000000000000",
    "0000000000000002000000000000000100000000000000030000000000000002",
    "0000000000000000000000000000000400000001000000090000000000000002",
    "0000000000000001020000000000000003000000000000000000000000060000",
    "000000000000000000010000000000000000a00f44132883cd5b",
);

const JOURNAL: &str = concat!(
    "4e504a4c010001000000c6b201864cba63af074f00000002285e12fa673b5d01",
    "0300000000000000070000000000000003003c0000003d000000000000000100",
    "00000000000003000a0000000b00000000000000080000000000000004001400",
    "0000150000001600000000000000190000004cb256bd81fa318e020200000000",
    "0000000200000000000000090000000000000011000000d70ea27de4c2ba6703",
    "01000000000000000400000000000000170000007675c2bb451956bb04020000",
    "000000000003004600000047000000e80300000d0000008498c95d85e8c78105",
    "070000000000000003000000090000005ffaf53cb58110790606000000000000",
    "0001000000c6b201864cba63af0709000000369078be1d665c62080100000000",
    "000000",
);

const REPLAYED: &str = concat!(
    "4e50534e02000000050000000000000001010100000001000000010000000800",
    "0000000001000500000000000000010000000000000008000000000000000e00",
    "0000000000000200000000000000e80300000000000003000000030000000000",
    "00000a0000000000000007000000000000000400000000000000010100000003",
    "000a0000000b0000000000000000000101000000040014000000150000001600",
    "0000000000000200000000000000020000000100000001000000000000000200",
    "00000000000000010100000003004600000047000000e8030000010000000000",
    "0000000000000000000000000000060000000000000000000000040000000000",
    "00000000000000000000ffffffff040000000000000001010000000000000000",
    "00000000000100000004000000000000000400000000000000ffffffff040000",
    "0000000000010200000000000000010001000000010000000400000000000000",
    "0400000000000000ffffffff0400000000000000010800000000000000000003",
    "0000000100000000000000000000000000000000000000ffffffff0300000000",
    "000000000100000001000000000000000100000000000000ffffffff04000000",
    "0000000002050000000000000002000000030000000400000000000000040000",
    "0000000000ffffffff0400000000000000020700000000000000030000000100",
    "0000000000000300000010000000000000000400000000000000010000000000",
    "0000080000000000000000000000000000000400000001000000050000000200",
    "0000000000000000000002000000010000000100000000000000010000000100",
    "000005000000030000000b000000000000000400000000000000010300000000",
    "0000000300000000000000000000000006000000000000000000000001040000",
    "000000000000000000000000000000000000fc7cb7e64dbd1d86",
);

#[test]
fn snapshot_and_journal_bytes_are_pinned() {
    let mut live = server();
    assert_eq!(live.forwarded_to(PeerId(5)), Some(2));
    let store = live.path_store(LandmarkId(0)).unwrap();
    assert_eq!((store.distinct(), store.dedup_hits()), (2, 1));
    let snapshot = live.snapshot_bytes().unwrap();
    assert_eq!(hex(&snapshot), SNAPSHOT, "the snapshot moved");

    let mut journal = Vec::new();
    for op in ops() {
        append_op(&mut journal, &op);
    }
    assert_eq!(hex(&journal), JOURNAL, "the journal moved");

    // Replay rebuilds what the live server reaches through the same ops,
    // and both write the pinned bytes.
    let (recovered, report) = ManagementServer::recover(&snapshot, &journal).unwrap();
    assert_eq!(report.journal_records, ops().len() as u64);
    assert!(!report.journal_torn_tail);
    for op in ops() {
        live.apply_journal_op(op);
    }
    let replayed = recovered.snapshot_bytes().unwrap();
    assert_eq!(hex(&replayed), REPLAYED, "the replayed snapshot moved");
    assert_eq!(live.snapshot_bytes().unwrap(), replayed);
}
