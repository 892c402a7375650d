//! The `persist.*` layer metrics: what durability would cost `churn_1r`
//! if `nearpeerd` had a `DurabilityWriter` — which today it has not, so
//! these move no end-to-end number yet. The write stream goes through a
//! real writer onto a [`FileMedium`] in a scratch directory; snapshot and
//! recovery are timed at the full lease count.
//!
//! `FileMedium` flushes but never fsyncs today: `append_ns_per_op` is the
//! cost of reaching the page cache, not the disk.

use crate::daemon::scratch_dir;
use crate::oracle;
use crate::run::Bag;
use crate::stats::median;
use crate::traffic::{joins, Op, OpKind, QueryPool};
use nearpeer_bench::wire::Mirror;
use nearpeer_core::{
    DurabilityWriter, FileMedium, JournalOp, LandmarkId, ManagementServer, PeerId, WriterConfig,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The journal record a logged write becomes (`None` for reads).
fn journal_op(op: &Op) -> Option<JournalOp> {
    let joins = joins();
    let peer = PeerId(op.record.subject);
    match op.record.kind {
        OpKind::Query => None,
        OpKind::Join => Some(JournalOp::RegisterBatch(vec![joins.join(peer.0)])),
        OpKind::Leave => Some(JournalOp::LeaveBatch(vec![peer])),
        OpKind::Heartbeat => Some(JournalOp::RenewBatch(vec![peer])),
        OpKind::Handover => Some(JournalOp::Handover {
            peer,
            path: joins.path_to(peer.0, LandmarkId(op.record.landmark)),
        }),
    }
}

/// Journals the writes of `ops` on top of a snapshot of `population`,
/// recovers from the files, and checks the recovered peer count.
pub fn measure(population: &[u64], pool: &QueryPool, ops: &[Op]) -> Result<Bag, String> {
    let mut mirror = oracle::build_mirror(1);
    oracle::register(&mut mirror, population.iter().copied());
    let (snapshot, snapshot_ms) = {
        let Mirror::Single(server) = &mirror else {
            unreachable!("one region mirrors as a single server")
        };
        let mut took_ms = Vec::new();
        let mut bytes = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            bytes = server
                .snapshot_bytes()
                .map_err(|e| format!("snapshot: {e}"))?;
            took_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        (bytes, median(&took_ms))
    };

    static RUNS: AtomicU64 = AtomicU64::new(0);
    let dir = scratch_dir().join(format!(
        "persist-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let io = |e: std::io::Error| format!("persist scratch {}: {e}", dir.display());
    let medium = FileMedium::create(&dir).map_err(io)?;
    let (snapshot_path, journal_path) = (medium.snapshot_path(), medium.journal_path());
    let writer = DurabilityWriter::spawn(medium, WriterConfig::default());
    writer.offer_snapshot(snapshot.clone());
    let records: Vec<JournalOp> = ops.iter().filter_map(journal_op).collect();
    let began = Instant::now();
    for record in &records {
        writer.append(record.clone());
    }
    let stats = writer.close();
    let append_ns = began.elapsed().as_nanos() as f64;
    if let Some(e) = stats.error {
        return Err(format!("durability writer: {e}"));
    }
    if stats.records != records.len() as u64 || stats.snapshots_written != 1 {
        return Err(format!(
            "durability writer kept {} of {} records and {} snapshots",
            stats.records,
            records.len(),
            stats.snapshots_written
        ));
    }

    let on_disk = std::fs::read(&snapshot_path).map_err(io)?;
    let journal = std::fs::read(&journal_path).map_err(io)?;
    let began = Instant::now();
    let (recovered, report) =
        ManagementServer::recover(&on_disk, &journal).map_err(|e| format!("recover: {e}"))?;
    let recover_ms = began.elapsed().as_secs_f64() * 1e3;
    std::fs::remove_dir_all(&dir).map_err(io)?;

    // The state recovery must reach: the same writes applied to the model.
    for op in ops.iter().filter(|op| op.record.kind != OpKind::Query) {
        oracle::replay(&mut mirror, pool, &op.record);
    }
    if recovered.peer_count() != mirror.peer_count()
        || report.journal_records != records.len() as u64
        || report.journal_torn_tail
    {
        return Err(format!(
            "recovery reached {} peers from {} records (torn tail: {}); the model has {} from {}",
            recovered.peer_count(),
            report.journal_records,
            report.journal_torn_tail,
            mirror.peer_count(),
            records.len()
        ));
    }

    let n = records.len().max(1) as f64;
    Ok(Bag::from([
        ("persist.append_ns_per_op", append_ns / n),
        (
            "persist.journal_bytes_per_op",
            stats.journal_bytes as f64 / n,
        ),
        ("persist.snapshot_ms", snapshot_ms),
        (
            "persist.snapshot_bytes_per_lease",
            snapshot.len() as f64 / population.len().max(1) as f64,
        ),
        ("persist.recover_ms", recover_ms),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::ChurnStream;

    #[test]
    fn journalled_churn_recovers_to_the_models_peer_count() {
        let population: Vec<u64> = (0..1_000).collect();
        let pool = QueryPool::generate(5, 1_000);
        let mut stream =
            ChurnStream::new(5, 2, &pool, population.clone(), (1_000..1_500).collect());
        let ops: Vec<Op> = (0..2_000).map(|_| stream.next_op()).collect();
        let writes = ops.iter().filter(|op| journal_op(op).is_some()).count();
        assert!(
            writes > 800 && writes < 1_200,
            "half the mix writes: {writes}"
        );
        // `measure` itself asserts the recovered peer count and the record
        // count; every metric it reports must be a real measurement.
        let bag = measure(&population, &pool, &ops).unwrap();
        assert_eq!(bag.len(), 5);
        for (name, value) in &bag {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
    }
}
