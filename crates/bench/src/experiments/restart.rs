//! Recovery under damage: the restart soak's first stage.
//!
//! [`run_fault_matrix`] drives recovery through every [`FaultPlan`] arm
//! — truncated and bit-rotted snapshots, torn and corrupted journal
//! tails, a writer killed between batches — asserting each case recovers
//! to the last consistent point or fails closed with a typed error.
//! [`directory_drift`] is the comparison both this matrix and the soak's
//! kill/rejoin ([`crate::soak`]) gate on.

use crate::swarm::SyntheticJoins;
use nearpeer_core::{
    CoreError, DurabilityWriter, FaultPlan, JournalOp, LandmarkId, ManagementServer, MemoryMedium,
    PeerId, ServerConfig, WriterConfig,
};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Counts observable mismatches between two directories: epoch,
/// population, tombstones, each conservation counter, and every
/// registered peer's path and landmark. Zero means the recovery landed
/// exactly on the dead server's state.
pub fn directory_drift(a: &ManagementServer, b: &ManagementServer) -> u64 {
    let mut drift = 0u64;
    drift += u64::from(a.epoch() != b.epoch());
    drift += u64::from(a.peer_count() != b.peer_count());
    drift += u64::from(a.tombstone_count() != b.tombstone_count());
    let (sa, sb) = (a.stats(), b.stats());
    drift += u64::from(sa.joins != sb.joins);
    drift += u64::from(sa.leaves != sb.leaves);
    drift += u64::from(sa.handovers != sb.handovers);
    drift += u64::from(sa.queries != sb.queries);
    drift += u64::from(sa.cross_landmark_fills != sb.cross_landmark_fills);
    let mut peers_a: Vec<PeerId> = a.index().peers().collect();
    peers_a.sort_unstable();
    let mut peers_b: Vec<PeerId> = b.index().peers().collect();
    peers_b.sort_unstable();
    if peers_a != peers_b {
        drift += 1;
    }
    for &p in &peers_a {
        if a.path_of(p) != b.path_of(p) || a.landmark_of(p) != b.landmark_of(p) {
            drift += 1;
        }
    }
    drift
}

/// One fault-matrix case's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultCaseResult {
    /// Case label.
    pub name: String,
    /// Whether the case met its contract.
    pub passed: bool,
    /// Human-readable evidence.
    pub detail: String,
}

/// Drives recovery through every [`FaultPlan`] arm over a small but
/// non-trivial directory and checks the contract per class: snapshot
/// damage fails closed with a typed error; journal damage replays to
/// the last intact record (bit rot is indistinguishable from a torn
/// tail by design); a writer killed between batches leaves a clean
/// record prefix.
pub fn run_fault_matrix() -> Vec<FaultCaseResult> {
    use nearpeer_core::directory::persist::journal::append_op;

    // A deterministic scenario: 200 joins snapshotted, then 120 mixed
    // ops journaled.
    let gen = SyntheticJoins::new(4);
    let mut live = gen.server(ServerConfig::default());
    live.apply_journal_op(JournalOp::RegisterBatch(
        (0..200).map(|i| gen.join(i)).collect(),
    ));
    let snapshot = live.snapshot_bytes().expect("no super peers");
    let mut ops: Vec<JournalOp> = Vec::new();
    for i in 0..120u64 {
        let op = match i % 6 {
            0 => JournalOp::AdvanceEpoch,
            1 => JournalOp::RenewBatch((0..10).map(|j| PeerId((i * 7 + j) % 200)).collect()),
            2 => JournalOp::Handover {
                peer: PeerId(i % 200),
                path: gen.path_to(i % 200, LandmarkId(((i % 200) % 4) as u32)),
            },
            3 => JournalOp::LeaveBatch(vec![PeerId((i * 13) % 200)]),
            4 => JournalOp::RegisterBatch(vec![gen.join(200 + i)]),
            _ => JournalOp::ExpireStale { max_age: 6 },
        };
        ops.push(op);
    }
    let mut journal = Vec::new();
    for op in &ops {
        append_op(&mut journal, op);
        live.apply_journal_op(op.clone());
    }

    let mut out = Vec::new();
    let prefix_control = |snap: &[u8], n: usize| -> ManagementServer {
        let (mut s, _) = ManagementServer::recover(snap, &[]).expect("pristine snapshot");
        for op in &ops[..n] {
            s.apply_journal_op(op.clone());
        }
        s
    };

    // Sanity: no fault, full equality.
    {
        let case = match ManagementServer::recover(&snapshot, &journal) {
            Ok((recovered, report)) => {
                let drift = directory_drift(&live, &recovered);
                FaultCaseResult {
                    name: "clean".into(),
                    passed: drift == 0 && report.journal_records == ops.len() as u64,
                    detail: format!("{} records, drift {drift}", report.journal_records),
                }
            }
            Err(e) => FaultCaseResult {
                name: "clean".into(),
                passed: false,
                detail: format!("refused: {e}"),
            },
        };
        out.push(case);
    }

    // Snapshot damage: must fail closed with a typed error.
    for (name, plan) in [
        (
            "snapshot_truncated",
            FaultPlan {
                snapshot_truncate: Some(snapshot.len() / 2),
                ..FaultPlan::none()
            },
        ),
        (
            "snapshot_bitrot",
            FaultPlan {
                snapshot_corrupt_at: Some(snapshot.len() / 3),
                ..FaultPlan::none()
            },
        ),
    ] {
        let mut bad = snapshot.clone();
        plan.damage_snapshot(&mut bad);
        let case = match ManagementServer::recover(&bad, &journal) {
            Err(CoreError::Persist(e)) => FaultCaseResult {
                name: name.into(),
                passed: true,
                detail: format!("failed closed: {e}"),
            },
            Err(e) => FaultCaseResult {
                name: name.into(),
                passed: false,
                detail: format!("wrong error class: {e}"),
            },
            Ok(_) => FaultCaseResult {
                name: name.into(),
                passed: false,
                detail: "damaged snapshot accepted".into(),
            },
        };
        out.push(case);
    }

    // Journal damage: replay stops at the last intact record and the
    // result equals a control that applied exactly that prefix.
    for (name, plan) in [
        (
            "journal_torn_tail",
            FaultPlan {
                journal_torn_tail: Some(5),
                ..FaultPlan::none()
            },
        ),
        (
            "journal_bitrot",
            FaultPlan {
                journal_corrupt_at: Some(journal.len() / 2),
                ..FaultPlan::none()
            },
        ),
    ] {
        let mut bad = journal.clone();
        plan.damage_journal(&mut bad);
        let case = match ManagementServer::recover(&snapshot, &bad) {
            Ok((recovered, report)) => {
                let n = report.journal_records as usize;
                let drift = directory_drift(&prefix_control(&snapshot, n), &recovered);
                FaultCaseResult {
                    name: name.into(),
                    passed: n < ops.len() && report.journal_torn_tail && drift == 0,
                    detail: format!("replayed {n}/{} records, drift {drift}", ops.len()),
                }
            }
            Err(e) => FaultCaseResult {
                name: name.into(),
                passed: false,
                detail: format!("refused instead of replaying the prefix: {e}"),
            },
        };
        out.push(case);
    }

    // Writer killed between batches: the journal ends at a batch
    // boundary — a clean record prefix, no torn tail.
    {
        let medium = MemoryMedium::new();
        let store = medium.handle();
        let writer = DurabilityWriter::spawn(
            medium,
            WriterConfig {
                queue_capacity: 1, // one op per batch
                min_snapshot_interval: Duration::ZERO,
                kill_after_batches: Some(6),
            },
        );
        writer.offer_snapshot(snapshot.clone());
        for op in &ops[..40] {
            writer.append(op.clone());
            // Let the worker drain so the kill point bites mid-stream.
            std::thread::sleep(Duration::from_millis(1));
        }
        writer.close();
        let bytes = store.lock().unwrap().clone();
        let case = match bytes.snapshot {
            Some(snap) => match ManagementServer::recover(&snap, &bytes.journal) {
                Ok((recovered, report)) => {
                    let n = report.journal_records as usize;
                    let drift = directory_drift(&prefix_control(&snap, n), &recovered);
                    FaultCaseResult {
                        name: "writer_killed".into(),
                        passed: n < 40 && !report.journal_torn_tail && drift == 0,
                        detail: format!("clean prefix of {n}/40 records, drift {drift}"),
                    }
                }
                Err(e) => FaultCaseResult {
                    name: "writer_killed".into(),
                    passed: false,
                    detail: format!("refused: {e}"),
                },
            },
            None => FaultCaseResult {
                name: "writer_killed".into(),
                passed: false,
                detail: "snapshot never installed".into(),
            },
        };
        out.push(case);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_matrix_passes_every_case() {
        for case in run_fault_matrix() {
            assert!(case.passed, "{}: {}", case.name, case.detail);
        }
    }
}
