//! The background durability writer: a bounded, rate-limited batch
//! mailbox that keeps persistence off the serving path.
//!
//! Callers enqueue [`JournalOp`]s (cheap, blocking only when the bounded
//! queue is full — real backpressure instead of unbounded memory) and
//! *offer* snapshots. One worker thread parks on the queue and, each time
//! it wakes, drains up to 1024 queued commands into one batch, which it
//! applies **in order** to a [`DurableMedium`]: journal records are
//! buffered and appended once per batch; a snapshot install atomically
//! replaces the stored snapshot and truncates the journal, discarding any
//! ops buffered before it in the same batch (they are, by FIFO order,
//! already contained in the snapshot's state). Snapshot offers are
//! rate-limited: offers arriving within `min_snapshot_interval` of the
//! last install are counted and dropped, so an eager snapshot cadence
//! degrades to skipped offers, never to a stalled serving thread.
//!
//! Failure model is fail-stop: the first medium error (or the configured
//! `kill_after_batches` fault point) parks the worker permanently; the
//! durable bytes end at a batch boundary, exactly like a machine that
//! died between flushes. [`WriterStats::error`] reports what happened.
//!
//! Lifecycle is channel-driven: the worker exits once the queue is drained
//! and the writer's send handle is gone, so [`DurabilityWriter::close`]
//! drops the handle and joins the thread.

use super::journal::{self, JournalOp};
use crate::telemetry::{Counter, Gauge, Histogram, TelemetryRegistry};
use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most commands one batch takes: large enough that batching is intact
/// (hundreds of records per flush), small enough that a flood cannot grow
/// one batch without bound — the worker applies a full batch and drains
/// the leftovers on its next wake, without parking.
const DRAIN_CAP: usize = 1024;

/// Where the durability writer persists bytes. Implementations must make
/// [`DurableMedium::install_snapshot`] atomic-ish: after it returns, the
/// stored snapshot is the new one and the journal is empty.
pub trait DurableMedium: Send + 'static {
    /// Appends raw journal bytes (header + records, already framed).
    fn append_journal(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Replaces the stored snapshot and truncates the journal.
    fn install_snapshot(&mut self, snapshot: &[u8]) -> std::io::Result<()>;
}

/// The durable bytes held by a [`MemoryMedium`] — what a recovery would
/// read back after a simulated crash.
#[derive(Debug, Default, Clone)]
pub struct DurableBytes {
    /// Last installed snapshot, if any.
    pub snapshot: Option<Vec<u8>>,
    /// Journal appended since that snapshot (header + records).
    pub journal: Vec<u8>,
}

/// In-memory medium for tests, benches, and crash simulation: the bytes
/// survive the writer via a shared handle, like a disk surviving a
/// process.
#[derive(Debug, Default)]
pub struct MemoryMedium {
    store: Arc<Mutex<DurableBytes>>,
}

impl MemoryMedium {
    /// Creates an empty medium.
    pub fn new() -> Self {
        MemoryMedium::default()
    }

    /// The shared handle to the durable bytes; clone it before handing
    /// the medium to [`DurabilityWriter::spawn`].
    pub fn handle(&self) -> Arc<Mutex<DurableBytes>> {
        Arc::clone(&self.store)
    }
}

impl DurableMedium for MemoryMedium {
    fn append_journal(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.store.lock().unwrap().journal.extend_from_slice(bytes);
        Ok(())
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) -> std::io::Result<()> {
        let mut store = self.store.lock().unwrap();
        store.snapshot = Some(snapshot.to_vec());
        store.journal.clear();
        Ok(())
    }
}

/// File-backed medium: `snapshot.bin` (written via tmp + rename) and
/// `journal.log` (append + flush) inside one directory. Starts a fresh
/// journal epoch: the journal file is truncated on creation, so recover
/// *before* creating a medium over the same directory.
#[derive(Debug)]
pub struct FileMedium {
    dir: PathBuf,
    journal: fs::File,
}

impl FileMedium {
    /// Opens (creating if needed) `dir` and truncates its journal.
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let journal = fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(dir.join("journal.log"))?;
        Ok(FileMedium { dir, journal })
    }

    /// Path of the snapshot file inside the medium's directory.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }

    /// Path of the journal file inside the medium's directory.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.log")
    }
}

impl DurableMedium for FileMedium {
    fn append_journal(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.journal.write_all(bytes)?;
        self.journal.flush()
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) -> std::io::Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        fs::write(&tmp, snapshot)?;
        fs::rename(&tmp, self.snapshot_path())?;
        self.journal.set_len(0)?;
        self.journal.seek(SeekFrom::Start(0))?;
        Ok(())
    }
}

/// Tuning for a [`DurabilityWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriterConfig {
    /// Bounded mailbox depth (ops + snapshot offers). A full queue blocks
    /// the producer — bounded memory under a stalled disk.
    pub queue_capacity: usize,
    /// Minimum spacing between snapshot installs; offers inside the
    /// window are counted as skipped.
    pub min_snapshot_interval: Duration,
    /// Fault point: stop persisting after this many batches (the journal
    /// ends at a batch boundary, like a machine dying between flushes).
    pub kill_after_batches: Option<u64>,
}

impl Default for WriterConfig {
    fn default() -> Self {
        WriterConfig {
            queue_capacity: 4096,
            min_snapshot_interval: Duration::from_millis(500),
            kill_after_batches: None,
        }
    }
}

/// Counters mirrored out of the worker thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Journal ops accepted by the worker.
    pub records: u64,
    /// Batches the worker processed.
    pub batches: u64,
    /// Snapshots actually installed.
    pub snapshots_written: u64,
    /// Snapshot offers dropped by rate limiting.
    pub snapshots_skipped: u64,
    /// Journal bytes appended to the medium since the last install.
    pub journal_bytes: u64,
    /// First medium error (the worker is parked after it), if any.
    pub error: Option<String>,
}

/// Worker-side counters as shared telemetry handles, so a registry that
/// adopts them ([`DurabilityWriter::bind_telemetry`]) scrapes the same
/// atomics the legacy [`WriterStats`] snapshot reads.
#[derive(Default)]
struct SharedStats {
    records: Arc<Counter>,
    batches: Arc<Counter>,
    snapshots_written: Arc<Counter>,
    snapshots_skipped: Arc<Counter>,
    journal_bytes: Arc<Gauge>,
    flush_us: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    error: Mutex<Option<String>>,
}

impl SharedStats {
    fn snapshot(&self) -> WriterStats {
        WriterStats {
            records: self.records.get(),
            batches: self.batches.get(),
            snapshots_written: self.snapshots_written.get(),
            snapshots_skipped: self.snapshots_skipped.get(),
            journal_bytes: self.journal_bytes.get(),
            error: self.error.lock().unwrap().clone(),
        }
    }
}

enum Cmd {
    Append(JournalOp),
    Snapshot(Vec<u8>),
}

/// The worker's loop: parks on `rx`, drains up to [`DRAIN_CAP`] queued
/// commands per wake into one batch, counts it (batches, batch size; the
/// batch comes off the queue-depth gauge the senders raise) and hands it
/// to `apply`. Returns when every sender is gone and the queue is empty.
fn drain_batches(rx: Receiver<Cmd>, stats: &SharedStats, mut apply: impl FnMut(Vec<Cmd>)) {
    let mut batch = Vec::new();
    while let Ok(first) = rx.recv() {
        batch.push(first);
        while batch.len() < DRAIN_CAP {
            match rx.try_recv() {
                Ok(more) => batch.push(more),
                Err(_) => break,
            }
        }
        stats.batches.inc();
        stats.batch_size.record(batch.len() as u64);
        stats.queue_depth.sub(batch.len() as u64);
        apply(std::mem::take(&mut batch));
    }
}

/// Handle to the background durability worker.
pub struct DurabilityWriter {
    tx: Option<SyncSender<Cmd>>,
    handle: Option<JoinHandle<()>>,
    shared: Arc<SharedStats>,
}

impl std::fmt::Debug for DurabilityWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityWriter")
            .field("stats", &self.shared.snapshot())
            .finish()
    }
}

impl DurabilityWriter {
    /// Spawns the worker thread over `medium`.
    pub fn spawn<M: DurableMedium>(mut medium: M, config: WriterConfig) -> Self {
        let (tx, rx) = mpsc::sync_channel::<Cmd>(config.queue_capacity);
        let shared = Arc::new(SharedStats::default());
        let worker_shared = Arc::clone(&shared);
        let mut last_snapshot: Option<Instant> = None;
        let mut journal_len: usize = 0;
        let mut killed = false;
        let mut buf: Vec<u8> = Vec::new();
        // `drain_batches` counts each batch before `apply` sees it.
        let apply = move |batch: Vec<Cmd>| {
            if killed {
                return;
            }
            let batch_no = worker_shared.batches.get();
            if let Some(limit) = config.kill_after_batches {
                if batch_no > limit {
                    killed = true;
                    return;
                }
            }
            buf.clear();
            for cmd in batch {
                match cmd {
                    Cmd::Append(op) => {
                        journal::append_record(&mut buf, &op);
                        worker_shared.records.inc();
                    }
                    Cmd::Snapshot(bytes) => {
                        let now = Instant::now();
                        let due = last_snapshot
                            .is_none_or(|t| now.duration_since(t) >= config.min_snapshot_interval);
                        if !due {
                            worker_shared.snapshots_skipped.inc();
                            continue;
                        }
                        let flush_start = Instant::now();
                        let installed = medium.install_snapshot(&bytes);
                        worker_shared
                            .flush_us
                            .record(flush_start.elapsed().as_micros() as u64);
                        match installed {
                            Ok(()) => {
                                // Ops buffered before this offer are part
                                // of the snapshot's state; dropping them
                                // keeps replay exactly-once.
                                buf.clear();
                                journal_len = 0;
                                worker_shared.journal_bytes.set(0);
                                last_snapshot = Some(now);
                                worker_shared.snapshots_written.inc();
                            }
                            Err(e) => {
                                *worker_shared.error.lock().unwrap() =
                                    Some(format!("install_snapshot: {e}"));
                                killed = true;
                                return;
                            }
                        }
                    }
                }
            }
            if buf.is_empty() {
                return;
            }
            let mut out = Vec::with_capacity(buf.len() + 6);
            if journal_len == 0 {
                journal::journal_header(&mut out);
            }
            out.extend_from_slice(&buf);
            let flush_start = Instant::now();
            let appended = medium.append_journal(&out);
            worker_shared
                .flush_us
                .record(flush_start.elapsed().as_micros() as u64);
            match appended {
                Ok(()) => {
                    journal_len += out.len();
                    worker_shared.journal_bytes.add(out.len() as u64);
                }
                Err(e) => {
                    *worker_shared.error.lock().unwrap() = Some(format!("append_journal: {e}"));
                    killed = true;
                }
            }
        };
        let stats = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("durability-writer".into())
            .spawn(move || drain_batches(rx, &stats, apply))
            .expect("spawn durability writer");
        DurabilityWriter {
            tx: Some(tx),
            handle: Some(handle),
            shared,
        }
    }

    /// Enqueues one journal op, blocking while the queue is full.
    /// Returns false if the worker is gone (after [`DurabilityWriter::close`]).
    pub fn append(&self, op: JournalOp) -> bool {
        self.send(Cmd::Append(op))
    }

    /// Offers a serialized snapshot; the worker installs it unless rate
    /// limiting drops the offer. Blocks while the queue is full.
    pub fn offer_snapshot(&self, snapshot: Vec<u8>) -> bool {
        self.send(Cmd::Snapshot(snapshot))
    }

    /// Queues one command, counting it into the queue-depth gauge before
    /// the worker can see it (the worker takes each batch back off).
    fn send(&self, cmd: Cmd) -> bool {
        let Some(tx) = &self.tx else {
            return false;
        };
        self.shared.queue_depth.add(1);
        let sent = tx.send(cmd).is_ok();
        if !sent {
            self.shared.queue_depth.sub(1);
        }
        sent
    }

    /// Live counters.
    pub fn stats(&self) -> WriterStats {
        self.shared.snapshot()
    }

    /// Adopts the writer's counters into `reg` under `writer_*` names:
    /// op/batch/snapshot counters, journal-bytes and queue-depth gauges,
    /// and the medium flush-latency + drain-batch-size histograms.
    pub fn bind_telemetry(&self, reg: &TelemetryRegistry) {
        reg.adopt_counter("writer_records_total", "", self.shared.records.clone());
        reg.adopt_counter("writer_batches_total", "", self.shared.batches.clone());
        reg.adopt_counter(
            "writer_snapshots_written_total",
            "",
            self.shared.snapshots_written.clone(),
        );
        reg.adopt_counter(
            "writer_snapshots_skipped_total",
            "",
            self.shared.snapshots_skipped.clone(),
        );
        reg.adopt_gauge(
            "writer_journal_bytes",
            "",
            self.shared.journal_bytes.clone(),
        );
        reg.adopt_gauge("writer_queue_depth", "", self.shared.queue_depth.clone());
        reg.adopt_histogram("writer_flush_us", "", self.shared.flush_us.clone());
        reg.adopt_histogram("writer_batch_size", "", self.shared.batch_size.clone());
    }

    /// Drains the queue, stops the worker, and returns the final stats.
    pub fn close(mut self) -> WriterStats {
        self.tx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        self.shared.snapshot()
    }
}

impl Drop for DurabilityWriter {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::persist::journal::JournalReader;
    use crate::ids::PeerId;

    #[test]
    fn ops_land_in_the_journal_in_order() {
        let medium = MemoryMedium::new();
        let store = medium.handle();
        let writer = DurabilityWriter::spawn(medium, WriterConfig::default());
        for i in 0..100 {
            assert!(writer.append(JournalOp::Deregister(PeerId(i))));
        }
        let stats = writer.close();
        assert_eq!(stats.records, 100);
        assert!(stats.error.is_none());
        let bytes = store.lock().unwrap().journal.clone();
        let mut reader = JournalReader::new(&bytes).unwrap();
        let mut got = Vec::new();
        while let Some(op) = reader.next_op() {
            got.push(op);
        }
        assert_eq!(
            got,
            (0..100)
                .map(|i| JournalOp::Deregister(PeerId(i)))
                .collect::<Vec<_>>()
        );
        assert!(!reader.torn_tail());
    }

    #[test]
    fn snapshot_install_truncates_journal_and_drops_covered_ops() {
        let medium = MemoryMedium::new();
        let store = medium.handle();
        let writer = DurabilityWriter::spawn(
            medium,
            WriterConfig {
                min_snapshot_interval: Duration::ZERO,
                ..WriterConfig::default()
            },
        );
        writer.append(JournalOp::Deregister(PeerId(1)));
        writer.offer_snapshot(vec![0xAB; 16]);
        writer.append(JournalOp::Deregister(PeerId(2)));
        let stats = writer.close();
        assert_eq!(stats.snapshots_written, 1);
        let bytes = store.lock().unwrap().clone();
        assert_eq!(bytes.snapshot.as_deref(), Some(&[0xAB; 16][..]));
        let mut reader = JournalReader::new(&bytes.journal).unwrap();
        let mut got = Vec::new();
        while let Some(op) = reader.next_op() {
            got.push(op);
        }
        // Only the op after the install survives in the journal.
        assert_eq!(got, vec![JournalOp::Deregister(PeerId(2))]);
    }

    #[test]
    fn rate_limit_skips_rapid_snapshot_offers() {
        let medium = MemoryMedium::new();
        let writer = DurabilityWriter::spawn(
            medium,
            WriterConfig {
                min_snapshot_interval: Duration::from_secs(3600),
                ..WriterConfig::default()
            },
        );
        writer.offer_snapshot(vec![1]);
        writer.offer_snapshot(vec![2]);
        writer.offer_snapshot(vec![3]);
        let stats = writer.close();
        assert_eq!(stats.snapshots_written, 1);
        assert_eq!(stats.snapshots_skipped, 2);
    }

    #[test]
    fn kill_after_batches_parks_the_worker_at_a_batch_boundary() {
        let medium = MemoryMedium::new();
        let store = medium.handle();
        let writer = DurabilityWriter::spawn(
            medium,
            WriterConfig {
                queue_capacity: 1, // force one op per batch
                kill_after_batches: Some(2),
                ..WriterConfig::default()
            },
        );
        for i in 0..10 {
            writer.append(JournalOp::Deregister(PeerId(i)));
            // Give the worker time to drain, so each op lands in its own
            // batch and the kill point bites before the last op.
            std::thread::sleep(Duration::from_millis(2));
        }
        writer.close();
        let bytes = store.lock().unwrap().journal.clone();
        let mut reader = JournalReader::new(&bytes).unwrap();
        let mut got = 0;
        while reader.next_op().is_some() {
            got += 1;
        }
        // The journal is a clean prefix: intact records, no torn tail.
        assert!(!reader.torn_tail());
        assert!(
            (1..10).contains(&got),
            "expected a strict prefix, got {got}"
        );
    }

    /// A medium whose first journal append waits until `gate` is dropped,
    /// so everything enqueued meanwhile is already queued when the worker
    /// next wakes.
    struct GatedMedium {
        inner: MemoryMedium,
        gate: Option<Receiver<()>>,
    }

    impl DurableMedium for GatedMedium {
        fn append_journal(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            if let Some(gate) = self.gate.take() {
                let _ = gate.recv();
            }
            self.inner.append_journal(bytes)
        }

        fn install_snapshot(&mut self, snapshot: &[u8]) -> std::io::Result<()> {
            self.inner.install_snapshot(snapshot)
        }
    }

    #[test]
    fn queued_flood_is_journaled_in_capped_batches() {
        let flood = 3 * DRAIN_CAP as u64 + 7;
        let (open, gate) = mpsc::sync_channel::<()>(0);
        let medium = GatedMedium {
            inner: MemoryMedium::new(),
            gate: Some(gate),
        };
        let store = medium.inner.handle();
        let writer = DurabilityWriter::spawn(medium, WriterConfig::default());
        let reg = TelemetryRegistry::new();
        writer.bind_telemetry(&reg);
        // The first batch blocks in the medium; the flood queues behind it.
        for i in 0..=flood {
            assert!(writer.append(JournalOp::Deregister(PeerId(i))));
        }
        drop(open);
        let stats = writer.close();
        assert_eq!(stats.records, flood + 1);
        let bytes = store.lock().unwrap().journal.clone();
        let mut reader = JournalReader::new(&bytes).unwrap();
        let mut next = 0;
        while let Some(op) = reader.next_op() {
            assert_eq!(op, JournalOp::Deregister(PeerId(next)), "in order");
            next += 1;
        }
        assert_eq!(next, flood + 1, "leftovers beyond the cap survive");
        let text = reg.render_text();
        let metric = |name| crate::telemetry::find_metric(&text, name).unwrap();
        assert_eq!(metric("writer_batch_size_count"), stats.batches);
        assert_eq!(metric("writer_batches_total"), stats.batches);
        assert_eq!(metric("writer_batch_size_sum"), flood + 1);
        // At least 2 056 ops were queued when the gate opened: the next
        // batch is a full one, and none is larger.
        assert_eq!(metric("writer_batch_size_max"), DRAIN_CAP as u64);
        assert!(stats.batches >= 4, "{} batches", stats.batches);
        assert_eq!(metric("writer_queue_depth"), 0, "drained at exit");
    }

    /// Runs `drain_batches` on its own thread while 100 appends are sent
    /// to it, then drops the sender and joins. Returns the batches `apply`
    /// saw and the loop's counters.
    fn drain_hundred_appends() -> (Vec<Vec<JournalOp>>, Arc<SharedStats>) {
        let (tx, rx) = mpsc::channel();
        let stats = Arc::new(SharedStats::default());
        let worker = {
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                let mut batches = Vec::new();
                drain_batches(rx, &stats, |batch| {
                    let ops = batch.into_iter().map(|cmd| match cmd {
                        Cmd::Append(op) => op,
                        Cmd::Snapshot(_) => unreachable!("only appends were sent"),
                    });
                    batches.push(ops.collect::<Vec<_>>());
                });
                batches
            })
        };
        for i in 1..=100 {
            tx.send(Cmd::Append(JournalOp::Deregister(PeerId(i))))
                .unwrap();
        }
        drop(tx);
        (worker.join().unwrap(), stats)
    }

    #[test]
    fn drain_loop_applies_all_and_returns_on_disconnect() {
        // The join returning at all is the exit-on-disconnect check.
        let (batches, _) = drain_hundred_appends();
        assert!(batches.iter().all(|b| !b.is_empty()), "no empty batch");
        assert!(
            (1..=100).contains(&batches.len()),
            "{} batches",
            batches.len()
        );
        let ops: Vec<_> = batches.into_iter().flatten().collect();
        assert_eq!(
            ops,
            (1..=100)
                .map(|i| JournalOp::Deregister(PeerId(i)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn drain_loop_counts_every_batch_and_command() {
        let (batches, stats) = drain_hundred_appends();
        assert_eq!(stats.batches.get(), batches.len() as u64);
        assert_eq!(stats.batch_size.count(), stats.batches.get());
        let sizes = stats.batch_size.snapshot();
        assert_eq!(sizes.sum, 100, "batch sizes sum to the command count");
        assert!(sizes.max <= DRAIN_CAP as u64, "batch size obeys the cap");
        assert_eq!(stats.queue_depth.get(), 0, "drained at exit");
    }

    #[test]
    fn file_medium_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "nearpeer-writer-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let medium = FileMedium::create(&dir).unwrap();
        let snap_path = medium.snapshot_path();
        let journal_path = medium.journal_path();
        let writer = DurabilityWriter::spawn(
            medium,
            WriterConfig {
                min_snapshot_interval: Duration::ZERO,
                ..WriterConfig::default()
            },
        );
        writer.offer_snapshot(vec![7; 8]);
        writer.append(JournalOp::Deregister(PeerId(9)));
        let stats = writer.close();
        assert!(stats.error.is_none(), "{:?}", stats.error);
        assert_eq!(fs::read(&snap_path).unwrap(), vec![7; 8]);
        let journal = fs::read(&journal_path).unwrap();
        let mut reader = JournalReader::new(&journal).unwrap();
        assert_eq!(reader.next_op(), Some(JournalOp::Deregister(PeerId(9))));
        let _ = fs::remove_dir_all(&dir);
    }
}
