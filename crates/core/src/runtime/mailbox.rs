//! The generic mailbox worker behind the durability writer. The serving
//! planes have none: [`crate::ActorServer`] and [`crate::ActorFederation`]
//! apply their writes on the calling thread, under their one write guard.
//!
//! One worker owns one blocking receive loop: it parks on the mailbox's
//! channel, and each time it wakes it drains **up to a cap** of what is
//! queued into a batch before applying it, so the writer pays one flush
//! per batch, not one per record. The cap bounds how long one batch takes:
//! under a flood the worker applies a full batch and immediately wakes
//! again for the leftovers still queued in the channel.
//!
//! Lifecycle is channel-driven: a worker exits when every sender to its
//! mailbox is gone, so its owner shuts down by dropping its send handle
//! and joining the thread. No poison message, no shutdown flag.

use crate::telemetry::{Counter, Gauge, Histogram};
use crossbeam::channel::Receiver;
use std::sync::Arc;
use std::thread::{Builder, JoinHandle};

/// Default per-batch drain cap: large enough that batching is intact
/// (hundreds of records per flush), small enough that a churn flood
/// cannot grow one batch without bound.
pub(crate) const DEFAULT_DRAIN_CAP: usize = 1024;

/// Telemetry handles for one mailbox worker, shared with the registry
/// that adopted them. All optional at the spawn site: an unobserved
/// worker costs nothing extra.
#[derive(Clone)]
pub(crate) struct MailboxObs {
    /// Batches applied.
    pub batches: Arc<Counter>,
    /// Items applied (sums batch lengths).
    pub items: Arc<Counter>,
    /// Distribution of batch sizes.
    pub batch_size: Arc<Histogram>,
    /// Items still queued, sampled after each drain.
    pub queue_depth: Arc<Gauge>,
}

/// Spawns a named worker thread that feeds `apply` with batches drained
/// from `rx`, at most `cap` items per batch. Every batch is non-empty;
/// leftovers beyond the cap stay queued and wake the worker again without
/// parking. The thread exits when the channel disconnects (all senders
/// dropped).
#[cfg(test)]
pub(crate) fn spawn_batch_worker<T, F>(
    name: String,
    rx: Receiver<T>,
    cap: usize,
    apply: F,
) -> JoinHandle<()>
where
    T: Send + 'static,
    F: FnMut(Vec<T>) + Send + 'static,
{
    spawn_batch_worker_observed(name, rx, cap, None, apply)
}

/// [`spawn_batch_worker`] with optional telemetry: batch count/size and
/// post-drain queue depth land in the given handles.
pub(crate) fn spawn_batch_worker_observed<T, F>(
    name: String,
    rx: Receiver<T>,
    cap: usize,
    obs: Option<MailboxObs>,
    mut apply: F,
) -> JoinHandle<()>
where
    T: Send + 'static,
    F: FnMut(Vec<T>) + Send + 'static,
{
    assert!(cap > 0, "drain cap must admit at least one item");
    Builder::new()
        .name(name)
        .spawn(move || {
            let mut batch = Vec::new();
            while let Ok(first) = rx.recv() {
                batch.push(first);
                while batch.len() < cap {
                    match rx.try_recv() {
                        Ok(more) => batch.push(more),
                        Err(_) => break,
                    }
                }
                if let Some(obs) = &obs {
                    obs.batches.inc();
                    obs.items.add(batch.len() as u64);
                    obs.batch_size.record(batch.len() as u64);
                    obs.queue_depth.set(rx.len() as u64);
                }
                apply(std::mem::take(&mut batch));
            }
        })
        .expect("spawn mailbox worker")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn worker_drains_batches_and_exits_on_disconnect() {
        let (tx, rx) = crossbeam::channel::unbounded::<u64>();
        let sum = Arc::new(AtomicUsize::new(0));
        let batches = Arc::new(AtomicUsize::new(0));
        let handle = {
            let (sum, batches) = (Arc::clone(&sum), Arc::clone(&batches));
            spawn_batch_worker("test-worker".into(), rx, DEFAULT_DRAIN_CAP, move |batch| {
                assert!(!batch.is_empty());
                batches.fetch_add(1, Ordering::Relaxed);
                sum.fetch_add(batch.iter().sum::<u64>() as usize, Ordering::Relaxed);
            })
        };
        for i in 1..=100u64 {
            tx.send(i).unwrap();
        }
        drop(tx);
        handle.join().unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
        let n = batches.load(Ordering::Relaxed);
        assert!((1..=100).contains(&n), "batches in [1, 100], got {n}");
    }

    #[test]
    fn drain_cap_bounds_batches_without_losing_leftovers() {
        let (tx, rx) = crossbeam::channel::unbounded::<u64>();
        // Pre-load the mailbox so the very first wake-up sees a flood far
        // beyond the cap; a capped worker must split it across batches.
        for i in 1..=100u64 {
            tx.send(i).unwrap();
        }
        let sum = Arc::new(AtomicUsize::new(0));
        let max_batch = Arc::new(AtomicUsize::new(0));
        let handle = {
            let (sum, max_batch) = (Arc::clone(&sum), Arc::clone(&max_batch));
            spawn_batch_worker("capped-worker".into(), rx, 8, move |batch| {
                assert!(!batch.is_empty());
                max_batch.fetch_max(batch.len(), Ordering::Relaxed);
                sum.fetch_add(batch.iter().sum::<u64>() as usize, Ordering::Relaxed);
            })
        };
        drop(tx);
        handle.join().unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 5050, "leftovers must survive");
        let m = max_batch.load(Ordering::Relaxed);
        assert!(m <= 8, "batch exceeded cap: {m}");
    }

    #[test]
    fn observed_worker_conserves_item_count() {
        let (tx, rx) = crossbeam::channel::unbounded::<u64>();
        let obs = MailboxObs {
            batches: Arc::new(Counter::new()),
            items: Arc::new(Counter::new()),
            batch_size: Arc::new(Histogram::new()),
            queue_depth: Arc::new(Gauge::new()),
        };
        let handle = spawn_batch_worker_observed(
            "observed-worker".into(),
            rx,
            8,
            Some(obs.clone()),
            |_batch| {},
        );
        for i in 0..100u64 {
            tx.send(i).unwrap();
        }
        drop(tx);
        handle.join().unwrap();
        assert_eq!(obs.items.get(), 100, "items conserve");
        assert_eq!(obs.batch_size.count(), obs.batches.get());
        let s = obs.batch_size.snapshot();
        assert!(s.max <= 8, "batch size obeys the cap");
        assert_eq!(s.sum, 100, "batch sizes sum to item count");
        assert_eq!(obs.queue_depth.get(), 0, "drained at exit");
    }
}
