//! What the benchmark measures: the four workloads, the six end-to-end
//! metrics with their bounds, the 51 per-layer metrics, and the two
//! profiles (the full run and the tier-1 smoke).

use std::time::Duration;

/// Landmarks every workload's daemon serves (`--landmarks`).
pub const LANDMARKS: usize = 8;
/// Neighbors per answer (`--neighbor-count`, and every query's `k`).
pub const K: usize = 5;
/// Query paths in the read pool.
pub const POOL_SIZE: usize = 16_384;
/// Connections the set-up registration is spread over. A join is a
/// hand-off between a serve thread and a shard worker, three times
/// faster when the two share a core than when they do not; over two
/// connections the same set-up took 1.5 s or 3.7 s depending on where
/// the threads landed, over eight the placements average out.
pub const SETUP_CONNS: usize = 8;
/// Pipelining window of each set-up connection.
pub const SETUP_WINDOW: usize = 64;
/// Pipelining window of each saturate-phase connection.
pub const SATURATE_WINDOW: usize = 64;
/// Equal slices the saturate phase is cut into; throughput is the median
/// slice rate.
pub const SATURATE_SLICES: usize = 5;

/// One traffic mix against one daemon shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only queries, one region.
    Query1r,
    /// The same queries through a 4-region federation.
    Query4r,
    /// Reads interleaved with joins, leaves, heartbeats and handovers.
    Churn1r,
    /// Standing subscriptions under churn; the primary op is a push.
    Subs1r,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Query1r,
        Workload::Query4r,
        Workload::Churn1r,
        Workload::Subs1r,
    ];

    /// The name used on the command line and in every result.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Query1r => "query_1r",
            Workload::Query4r => "query_4r",
            Workload::Churn1r => "churn_1r",
            Workload::Subs1r => "subs_1r",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `--regions` the daemon is started with.
    pub fn regions(self) -> usize {
        match self {
            Workload::Query4r => 4,
            _ => 1,
        }
    }

    /// Ops per second of the paced (open-loop) phase.
    pub fn paced_rate(self) -> f64 {
        match self {
            Workload::Query1r => 20_000.0,
            Workload::Query4r => 4_000.0,
            Workload::Churn1r => 8_000.0,
            Workload::Subs1r => 2_000.0,
        }
    }

    /// The op `latency_p50_us` times.
    pub fn primary_op(self) -> &'static str {
        match self {
            Workload::Query1r | Workload::Query4r => "query",
            Workload::Churn1r => "join",
            Workload::Subs1r => "push",
        }
    }

    /// The `kind` label of the daemon's `wire_*` series for the frames
    /// that carry the primary op.
    pub fn primary_kind(self) -> &'static str {
        match self {
            Workload::Query1r | Workload::Query4r => "query-request",
            Workload::Churn1r | Workload::Subs1r => "join-request",
        }
    }

    /// One line on why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Query1r => {
                "the paper's one round trip on the cheapest path: wire, codec, runtime read \
                 guards, directory query; mailboxes, federation and subscription stay idle"
            }
            Workload::Query4r => {
                "the identical query stream through a 4-region ActorFederation; the gap to \
                 query_1r is the federation and actor cost"
            }
            Workload::Churn1r => {
                "reads mixed with joins, leaves, heartbeats and handovers, so every write \
                 crosses a shard mailbox, the claims table, the lease arena and the path store"
            }
            Workload::Subs1r => {
                "5000 standing subscriptions under churn; the only workload where the \
                 subscription plane and the serve loop's idle read tick do the work"
            }
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as results spell it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// The name results carry.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// End-to-end only: the share of the baseline by which the metric may
    /// worsen before it counts as a regression (`0.0`: any worsening).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// `fail_share`: the one end-to-end metric that is 0 at the baseline. The
/// driver contract carries it as `failed / attempted`, not as a metric.
pub const FAIL_SHARE: &str = "fail_share";

/// The end-to-end metrics every workload reports.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("latency_p50_us", "us", Better::Lower, 0.25),
    e2e("throughput_ops_s", "ops/s", Better::Higher, 0.25),
    e2e("server_cpu_us_per_op", "us", Better::Lower, 0.25),
    e2e("server_rss_mb", "MB", Better::Lower, 0.05),
    e2e(FAIL_SHARE, "ratio", Better::Lower, 0.0),
];

use Better::{Higher, Lower};

/// The per-layer metrics, grouped by the module they measure.
pub const PER_LAYER: [MetricSpec; 51] = [
    // loadgen — diagnostics that qualify the end-to-end numbers.
    layer("loadgen.latency_p90_us", "us", Lower),
    layer("loadgen.latency_p99_us", "us", Lower),
    layer("loadgen.latency_p999_us", "us", Lower),
    layer("loadgen.sender_max_lag_us", "us", Lower),
    layer("loadgen.achieved_rate_share", "ratio", Higher),
    layer("loadgen.samples", "count", Higher),
    layer("loadgen.saturate_latency_p50_us", "us", Lower),
    layer("loadgen.join_p50_us", "us", Lower),
    layer("loadgen.handover_p50_us", "us", Lower),
    layer("loadgen.query_p50_us", "us", Lower),
    layer("loadgen.trace_overhead_pct", "%", Lower),
    // nearpeerd — the process, from /proc.
    layer("nearpeerd.threads", "count", Lower),
    layer("nearpeerd.ctx_switches_per_op", "1/op", Lower),
    layer("nearpeerd.user_cpu_share", "ratio", Higher),
    layer("nearpeerd.rss_bytes_per_peer", "bytes", Lower),
    // wire
    layer("wire.serve_p50_us", "us", Lower),
    layer("wire.serve_p99_us", "us", Lower),
    layer("wire.reply_bytes_per_op", "bytes", Lower),
    layer("wire.request_bytes_per_op", "bytes", Lower),
    layer("wire.rtt_ns", "ns", Lower),
    layer("wire.self_ns", "ns", Lower),
    // codec
    layer("codec.encode_req_ns", "ns", Lower),
    layer("codec.decode_req_ns", "ns", Lower),
    layer("codec.encode_reply_ns", "ns", Lower),
    layer("codec.decode_reply_ns", "ns", Lower),
    // runtime
    layer("runtime.handle_ns", "ns", Lower),
    layer("runtime.self_ns", "ns", Lower),
    layer("runtime.mailbox_batch_mean", "count", Higher),
    layer("runtime.mailbox_items_per_op", "1/op", Lower),
    layer("runtime.mailbox_queue_peak", "count", Lower),
    // server / directory
    layer("server.sync_ns", "ns", Lower),
    layer("directory.query_p50_us", "us", Lower),
    layer("directory.cross_landmark_fill_share", "ratio", Lower),
    // federation
    layer("federation.sync_ns", "ns", Lower),
    layer("federation.query_p50_us", "us", Lower),
    layer("federation.regions_per_query", "count", Lower),
    layer("federation.cross_region_fill_share", "ratio", Lower),
    // subscription
    layer("subscription.deltas_per_event", "count", Lower),
    layer("subscription.coalesce_ratio", "ratio", Higher),
    layer("subscription.refill_share", "ratio", Lower),
    layer("subscription.queue_peak", "count", Lower),
    layer("subscription.join_overhead_ns", "ns", Lower),
    layer("subscription.drain_ns_per_push", "ns", Lower),
    layer("subscription.push_delay_p99_ms", "ms", Lower),
    // telemetry
    layer("telemetry.scrape_ms", "ms", Lower),
    layer("telemetry.scrape_bytes", "bytes", Lower),
    // persist
    layer("persist.append_ns_per_op", "ns", Lower),
    layer("persist.journal_bytes_per_op", "bytes", Lower),
    layer("persist.snapshot_ms", "ms", Lower),
    layer("persist.snapshot_bytes_per_lease", "bytes", Lower),
    layer("persist.recover_ms", "ms", Lower),
];

/// Sizes and durations of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// `"full"` or `"smoke"`.
    pub name: &'static str,
    /// Peers registered before any timed traffic (`subs_1r` splits its
    /// own population off this; see [`crate::traffic::SubsPlan`]).
    pub population: u64,
    /// Length of the paced (open-loop) phase.
    pub paced: Duration,
    /// Length of the saturate (closed-loop) phase.
    pub saturate: Duration,
    /// Divisor applied to every workload's paced rate.
    pub rate_div: f64,
    /// Pool queries of the exact sweep after a two-connection phase.
    pub sweep: usize,
    /// Requests each rung of the traced ladder replays.
    pub ladder_ops: usize,
    /// Smallest share of its schedule a paced phase must complete within
    /// one second of its end for the run to count.
    pub min_schedule_share: f64,
}

impl Profile {
    /// The measured profile: 100 000 peers, `seconds` of timed traffic
    /// split 2 : 3 between the paced and the saturate phase (25 gives the
    /// 10 s + 15 s this benchmark was sized for).
    pub fn full(seconds: f64) -> Self {
        Profile {
            name: "full",
            population: 100_000,
            paced: Duration::from_secs_f64(seconds * 0.4),
            saturate: Duration::from_secs_f64(seconds * 0.6),
            rate_div: 1.0,
            sweep: 10_000,
            ladder_ops: 10_000,
            min_schedule_share: 0.99,
        }
    }

    /// The tier-1 smoke: 2 000 peers, 1 s phases, quarter rates so an
    /// unoptimised test build keeps its schedule on a busy host.
    pub fn smoke() -> Self {
        Profile {
            name: "smoke",
            population: 2_000,
            paced: Duration::from_secs(1),
            saturate: Duration::from_secs(1),
            rate_div: 4.0,
            sweep: 500,
            ladder_ops: 400,
            min_schedule_share: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
        }
        assert_eq!(Workload::from_name("churn_4r"), None);
    }

    /// `BENCHMARK.json` is the driver's copy of this file: same workloads,
    /// same metrics, same units and bounds — minus `fail_share`, which the
    /// driver reads as `failed / attempted`.
    #[test]
    fn benchmark_json_agrees_with_the_spec() {
        let text = include_str!("../../../BENCHMARK.json");
        let doc: serde_json::Value = serde_json::from_str(text).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| match m.get("name") {
                    Some(serde_json::Value::String(s)) => s.clone(),
                    other => panic!("bad name {other:?}"),
                })
                .collect()
        };
        let text_of = |m: &serde_json::Value, key: &str| match m.get(key) {
            Some(serde_json::Value::String(s)) => s.clone(),
            other => panic!("bad {key} {other:?}"),
        };
        assert_eq!(
            names("workloads"),
            Workload::ALL.map(|w| w.name().to_string())
        );
        let gated: Vec<&MetricSpec> = END_TO_END.iter().filter(|m| m.name != FAIL_SHARE).collect();
        assert_eq!(
            names("end_to_end"),
            gated.iter().map(|m| m.name.to_string()).collect::<Vec<_>>()
        );
        for (m, spec) in doc
            .get("end_to_end")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .zip(&gated)
        {
            assert_eq!(text_of(m, "unit"), spec.unit);
            assert_eq!(text_of(m, "better"), spec.better.as_str());
            match m.get("bound") {
                Some(serde_json::Value::Number(n)) => assert_eq!(n.as_f64(), spec.bound),
                other => panic!("bad bound {other:?}"),
            }
        }
        assert_eq!(
            names("per_layer"),
            PER_LAYER.map(|m| m.name.to_string()).to_vec()
        );
        for (m, spec) in doc
            .get("per_layer")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .zip(&PER_LAYER)
        {
            assert_eq!(text_of(m, "unit"), spec.unit);
            assert_eq!(text_of(m, "better"), spec.better.as_str());
        }
    }
}
