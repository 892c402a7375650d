//! Unified telemetry plane: a process-wide registry of lock-free
//! counters, gauges, and log₂ latency histograms, with stable text
//! exposition.
//!
//! Design: metric handles ([`Counter`], [`Gauge`], [`Histogram`]) are
//! plain atomic structs wrapped in `Arc`s; subsystems keep their own
//! handles and mutate them lock-free on hot paths. The
//! [`TelemetryRegistry`] is only a *naming directory* — it maps
//! `base{labels}` names to handles so a snapshot can walk everything
//! that exists. Handles can be created through the registry
//! (get-or-create) or created by a subsystem first and adopted later
//! ([`TelemetryRegistry::adopt_counter`] and friends), which is how the
//! pre-existing stats structs (`SubscriptionStats`, `WriterStats`, the
//! server's and the federation's query counters) became views over the
//! registry without changing their accessors.
//!
//! Snapshots tolerate concurrent mutation: every value is a single
//! atomic read, histogram totals derive from the bucket reads, and any
//! derived subtraction in legacy stats accessors is saturating — so a
//! scrape taken mid-churn never reports `dropped > pushed`-style
//! inversions.
//!
//! The text exposition is Prometheus-style (`name{label} value`, plus
//! `_count`/`_sum`/`_max` and `quantile="…"` series per histogram) and
//! sorted by name, so diffs between scrapes are meaningful and the
//! loadgen can assert on exact lines.

mod histogram;
mod slow;

pub use histogram::{Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use slow::{
    SlowQueryLog, SlowQueryRecord, SLOW_QUERY_DISABLED, SLOW_QUERY_RATE, SLOW_QUERY_RING,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// A monotonically increasing counter. Relaxed atomics; lock-free.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value. Counters are monotonic in steady state;
    /// this exists for restoring a persisted count at recovery time.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// An up/down instantaneous value (queue depths, occupancy). Decrements
/// saturate at zero so a racy snapshot never observes an underflowed
/// huge value.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value (and folds it into the peak).
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds `n` (and folds the new value into the peak).
    #[inline]
    pub fn add(&self, n: u64) {
        let now = self.value.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// High-water mark since startup.
    #[inline]
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Records elapsed microseconds into a histogram on drop.
pub struct TimerGuard<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl<'a> TimerGuard<'a> {
    /// Starts timing against `hist`.
    pub fn start(hist: &'a Histogram) -> Self {
        Self {
            hist,
            start: Instant::now(),
        }
    }

    /// Microseconds elapsed so far.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Drop for TimerGuard<'_> {
    fn drop(&mut self) {
        self.hist.record(self.elapsed_us());
    }
}

/// One named handle in the registry.
#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug, Clone)]
struct Entry {
    base: String,
    labels: String, // e.g. `kind="query-request"`, empty for none
    handle: Handle,
}

/// The naming directory (see module docs). Cheap to share via `Arc`;
/// registration takes a write lock, snapshots a read lock, and metric
/// mutation touches neither.
#[derive(Default)]
pub struct TelemetryRegistry {
    entries: RwLock<Vec<Entry>>,
    timing: AtomicBool,
    slow: SlowQueryLog,
}

impl TelemetryRegistry {
    /// A fresh registry with latency timing enabled.
    pub fn new() -> Self {
        let r = Self::default();
        r.timing.store(true, Ordering::Relaxed);
        r
    }

    fn find(&self, base: &str, labels: &str) -> Option<Handle> {
        self.entries
            .read()
            .unwrap()
            .iter()
            .find(|e| e.base == base && e.labels == labels)
            .map(|e| e.handle.clone())
    }

    fn insert(&self, base: &str, labels: &str, make: impl FnOnce() -> Handle) -> Handle {
        let mut entries = self.entries.write().unwrap();
        if let Some(e) = entries
            .iter()
            .find(|e| e.base == base && e.labels == labels)
        {
            return e.handle.clone();
        }
        let handle = make();
        entries.push(Entry {
            base: base.to_string(),
            labels: labels.to_string(),
            handle: handle.clone(),
        });
        handle
    }

    /// Get-or-create an unlabeled counter.
    pub fn counter(&self, base: &str) -> Arc<Counter> {
        self.counter_labeled(base, "")
    }

    /// Get-or-create a labeled counter (`labels` like `kind="query"`).
    pub fn counter_labeled(&self, base: &str, labels: &str) -> Arc<Counter> {
        if let Some(Handle::Counter(c)) = self.find(base, labels) {
            return c;
        }
        match self.insert(base, labels, || Handle::Counter(Arc::new(Counter::new()))) {
            Handle::Counter(c) => c,
            _ => panic!("metric {base}{{{labels}}} registered with a different type"),
        }
    }

    /// Get-or-create an unlabeled gauge.
    pub fn gauge(&self, base: &str) -> Arc<Gauge> {
        self.gauge_labeled(base, "")
    }

    /// Get-or-create a labeled gauge.
    pub fn gauge_labeled(&self, base: &str, labels: &str) -> Arc<Gauge> {
        if let Some(Handle::Gauge(g)) = self.find(base, labels) {
            return g;
        }
        match self.insert(base, labels, || Handle::Gauge(Arc::new(Gauge::new()))) {
            Handle::Gauge(g) => g,
            _ => panic!("metric {base}{{{labels}}} registered with a different type"),
        }
    }

    /// Get-or-create an unlabeled histogram.
    pub fn histogram(&self, base: &str) -> Arc<Histogram> {
        self.histogram_labeled(base, "")
    }

    /// Get-or-create a labeled histogram.
    pub fn histogram_labeled(&self, base: &str, labels: &str) -> Arc<Histogram> {
        if let Some(Handle::Histogram(h)) = self.find(base, labels) {
            return h;
        }
        match self.insert(base, labels, || {
            Handle::Histogram(Arc::new(Histogram::new()))
        }) {
            Handle::Histogram(h) => h,
            _ => panic!("metric {base}{{{labels}}} registered with a different type"),
        }
    }

    /// Adopts a counter a subsystem already owns, so the legacy accessor
    /// and the registry read the very same atomic.
    pub fn adopt_counter(&self, base: &str, labels: &str, c: Arc<Counter>) {
        self.insert(base, labels, || Handle::Counter(c));
    }

    /// Adopts a subsystem-owned gauge.
    pub fn adopt_gauge(&self, base: &str, labels: &str, g: Arc<Gauge>) {
        self.insert(base, labels, || Handle::Gauge(g));
    }

    /// Adopts a subsystem-owned histogram.
    pub fn adopt_histogram(&self, base: &str, labels: &str, h: Arc<Histogram>) {
        self.insert(base, labels, || Handle::Histogram(h));
    }

    /// Whether latency timers should run (the on/off A/B switch).
    #[inline]
    pub fn timing_enabled(&self) -> bool {
        self.timing.load(Ordering::Relaxed)
    }

    /// Flips latency timing; counters and gauges are unaffected.
    pub fn set_timing(&self, on: bool) {
        self.timing.store(on, Ordering::Relaxed);
    }

    /// Starts a timer guard against `hist` iff timing is enabled.
    pub fn maybe_time<'a>(&self, hist: &'a Histogram) -> Option<TimerGuard<'a>> {
        self.timing_enabled().then(|| TimerGuard::start(hist))
    }

    /// The slow-query trace log.
    pub fn slow(&self) -> &SlowQueryLog {
        &self.slow
    }

    /// Point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut entries: Vec<SnapshotEntry> = self
            .entries
            .read()
            .unwrap()
            .iter()
            .map(|e| SnapshotEntry {
                base: e.base.clone(),
                labels: e.labels.clone(),
                value: match &e.handle {
                    Handle::Counter(c) => SnapshotValue::Counter(c.get()),
                    Handle::Gauge(g) => SnapshotValue::Gauge {
                        value: g.get(),
                        peak: g.peak(),
                    },
                    Handle::Histogram(h) => SnapshotValue::Histogram(Box::new(h.snapshot())),
                },
            })
            .collect();
        entries.sort_by(|a, b| a.base.cmp(&b.base).then_with(|| a.labels.cmp(&b.labels)));
        TelemetrySnapshot { entries }
    }

    /// Full text exposition: the sorted snapshot plus the slow-query
    /// ring as trailing comment lines.
    pub fn render_text(&self) -> String {
        let mut out = self.snapshot().render();
        self.slow.render(&mut out);
        out
    }
}

/// One metric's value in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading with its high-water mark.
    Gauge {
        /// Instantaneous value.
        value: u64,
        /// High-water mark since startup.
        peak: u64,
    },
    /// Histogram copy (boxed: 64 buckets dwarf the scalar variants).
    Histogram(Box<HistogramSnapshot>),
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// Metric base name.
    pub base: String,
    /// Label string (may be empty).
    pub labels: String,
    /// The reading.
    pub value: SnapshotValue,
}

fn write_line(out: &mut String, base: &str, labels: &str, suffix: &str, extra: &str, v: u64) {
    out.push_str(base);
    out.push_str(suffix);
    match (labels.is_empty(), extra.is_empty()) {
        (true, true) => {}
        (true, false) => {
            out.push('{');
            out.push_str(extra);
            out.push('}');
        }
        (false, true) => {
            out.push('{');
            out.push_str(labels);
            out.push('}');
        }
        (false, false) => {
            out.push('{');
            out.push_str(labels);
            out.push(',');
            out.push_str(extra);
            out.push('}');
        }
    }
    out.push(' ');
    out.push_str(&v.to_string());
    out.push('\n');
}

impl TelemetrySnapshot {
    /// Renders the stable text exposition (see module docs).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            match &e.value {
                SnapshotValue::Counter(v) => write_line(&mut out, &e.base, &e.labels, "", "", *v),
                SnapshotValue::Gauge { value, peak } => {
                    write_line(&mut out, &e.base, &e.labels, "", "", *value);
                    write_line(&mut out, &e.base, &e.labels, "_peak", "", *peak);
                }
                SnapshotValue::Histogram(h) => {
                    write_line(&mut out, &e.base, &e.labels, "_count", "", h.count());
                    write_line(&mut out, &e.base, &e.labels, "_sum", "", h.sum);
                    write_line(&mut out, &e.base, &e.labels, "_max", "", h.max);
                    for (q, name) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                        let extra = format!("quantile=\"{name}\"");
                        write_line(&mut out, &e.base, &e.labels, "", &extra, h.quantile(q));
                    }
                }
            }
        }
        out
    }

    /// One-line human summary for bench bins: `k=v` pairs; histograms
    /// collapse to `base=count/p50/p99us`. Zero-valued counters and
    /// gauges are elided to keep the line scannable.
    pub fn compact_line(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for e in &self.entries {
            let name = if e.labels.is_empty() {
                e.base.clone()
            } else {
                format!("{}{{{}}}", e.base, e.labels)
            };
            match &e.value {
                SnapshotValue::Counter(0) => {}
                SnapshotValue::Counter(v) => parts.push(format!("{name}={v}")),
                SnapshotValue::Gauge { value: 0, peak: 0 } => {}
                SnapshotValue::Gauge { value, peak } => {
                    parts.push(format!("{name}={value}(peak {peak})"))
                }
                SnapshotValue::Histogram(h) if h.count() == 0 => {}
                SnapshotValue::Histogram(h) => parts.push(format!(
                    "{name}={}/{}/{}us",
                    h.count(),
                    h.quantile(0.5),
                    h.quantile(0.99)
                )),
            }
        }
        parts.join(" ")
    }

    /// Looks up a counter/gauge reading by exact `base{labels}` name.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|e| {
            let full = if e.labels.is_empty() {
                e.base.clone()
            } else {
                format!("{}{{{}}}", e.base, e.labels)
            };
            if full != name {
                return None;
            }
            match &e.value {
                SnapshotValue::Counter(v) => Some(*v),
                SnapshotValue::Gauge { value, .. } => Some(*value),
                SnapshotValue::Histogram(h) => Some(h.count()),
            }
        })
    }
}

/// Sorted point-in-time copy of a registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// All metrics, sorted by `(base, labels)`.
    pub entries: Vec<SnapshotEntry>,
}

/// Parses one metric value out of a text exposition — the scrape-side
/// mirror of [`TelemetrySnapshot::render`]. `name` must be the full
/// series name including labels and any suffix, e.g.
/// `wire_served_total{kind="query-request"}` or
/// `wire_serve_latency_us{kind="query-request",quantile="0.99"}`.
pub fn find_metric(text: &str, name: &str) -> Option<u64> {
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        if let Some((n, v)) = line.rsplit_once(' ') {
            if n == name {
                return v.trim().parse().ok();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn get_or_create_returns_same_handle() {
        let r = TelemetryRegistry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
        // Distinct labels are distinct series.
        let c = r.counter_labeled("x_total", "kind=\"a\"");
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn adopted_counter_is_the_same_atomic() {
        let r = TelemetryRegistry::new();
        let owned = Arc::new(Counter::new());
        r.adopt_counter("sub_pushed_total", "", owned.clone());
        owned.add(7);
        assert_eq!(r.snapshot().counter_value("sub_pushed_total"), Some(7));
        // Re-adoption is a no-op: first registration wins.
        r.adopt_counter("sub_pushed_total", "", Arc::new(Counter::new()));
        assert_eq!(r.snapshot().counter_value("sub_pushed_total"), Some(7));
    }

    #[test]
    fn gauge_saturates_and_tracks_peak() {
        let g = Gauge::new();
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.sub(100);
        assert_eq!(g.get(), 0, "saturating, not underflowing");
        assert_eq!(g.peak(), 5);
        g.set(4);
        assert_eq!(g.peak(), 5);
        g.set(9);
        assert_eq!(g.peak(), 9);
    }

    #[test]
    fn render_is_sorted_and_parseable() {
        let r = TelemetryRegistry::new();
        r.counter_labeled("wire_served_total", "kind=\"query-request\"")
            .add(41);
        r.counter("dir_queries_total").add(5);
        r.gauge("writer_queue_depth").set(3);
        let h = r.histogram_labeled("wire_serve_latency_us", "kind=\"query-request\"");
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        let text = r.render_text();
        // Sorted: dir_… before wire_…
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("dir_queries_total"), "got {first}");
        assert_eq!(find_metric(&text, "dir_queries_total"), Some(5));
        assert_eq!(
            find_metric(&text, "wire_served_total{kind=\"query-request\"}"),
            Some(41)
        );
        assert_eq!(
            find_metric(&text, "wire_serve_latency_us_count{kind=\"query-request\"}"),
            Some(5)
        );
        assert_eq!(
            find_metric(&text, "wire_serve_latency_us_max{kind=\"query-request\"}"),
            Some(1000)
        );
        let p99 = find_metric(
            &text,
            "wire_serve_latency_us{kind=\"query-request\",quantile=\"0.99\"}",
        )
        .unwrap();
        assert!(p99 > 0 && p99 <= 1000);
        assert_eq!(find_metric(&text, "writer_queue_depth"), Some(3));
        assert_eq!(find_metric(&text, "no_such_metric"), None);
        // Same input renders byte-identically (stable exposition).
        assert_eq!(text, r.render_text());
    }

    #[test]
    fn compact_line_elides_zeros() {
        let r = TelemetryRegistry::new();
        r.counter("a_total");
        r.counter("b_total").add(2);
        let line = r.snapshot().compact_line();
        assert_eq!(line, "b_total=2");
    }

    #[test]
    fn snapshot_tolerates_concurrent_mutation() {
        // The "read two atomics non-atomically" regression test: hammer
        // paired counters (pushed ≥ dropped invariant at rest) while
        // snapshotting. A snapshot reads the two counters at different
        // instants, so the inversion between them is UNBOUNDED mid-flight
        // — consumers deriving differences must clamp (saturating_sub),
        // which is exactly what the stats() accessors do. Here we require
        // the clamped derivation to stay sane, every histogram snapshot
        // to be internally consistent, and exact conservation at rest.
        let r = Arc::new(TelemetryRegistry::new());
        let pushed = r.counter("pushed_total");
        let dropped = r.counter("dropped_total");
        let hist = r.histogram("lat_us");
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let (p, d, h) = (pushed.clone(), dropped.clone(), hist.clone());
                thread::spawn(move || {
                    for i in 0..5_000u64 {
                        p.inc(); // push always precedes a possible drop
                        if i % 3 == 0 {
                            d.inc();
                        }
                        h.record(t * 100 + i % 97);
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            let s = r.snapshot();
            let p = s.counter_value("pushed_total").unwrap();
            let d = s.counter_value("dropped_total").unwrap();
            // The clamped difference never underflows and never exceeds
            // what was pushed — the contract stats() relies on.
            let in_flight = p.saturating_sub(d);
            assert!(in_flight <= p, "clamp holds: {p} pushed, {d} dropped");
            assert!(p <= 20_000 && d <= 20_000, "no phantom increments");
            if let SnapshotValue::Histogram(h) =
                &s.entries.iter().find(|e| e.base == "lat_us").unwrap().value
            {
                let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
                assert!(p50 <= p99 && p99 <= h.max.max(p99));
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        let s = r.snapshot();
        assert_eq!(s.counter_value("pushed_total"), Some(20_000));
        assert_eq!(
            s.counter_value("lat_us"),
            Some(20_000),
            "histogram conserves count"
        );
    }

    #[test]
    fn timing_gate_disables_timers() {
        let r = TelemetryRegistry::new();
        let h = r.histogram("t_us");
        assert!(r.timing_enabled());
        {
            let _g = r.maybe_time(&h);
        }
        assert_eq!(h.count(), 1);
        r.set_timing(false);
        {
            let _g = r.maybe_time(&h);
        }
        assert_eq!(h.count(), 1, "no record while timing is off");
    }
}
