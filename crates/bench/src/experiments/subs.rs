//! Standing-subscription soak: N watchers over a replayed churn trace,
//! every pushed delta verified against a re-polled answer.
//!
//! The subscription engine promises that applying its [`NeighborDelta`]
//! stream to the initial snapshot reproduces, at every drain point,
//! exactly what a fresh `neighbors_of` poll would answer. This soak holds
//! it to that: a stable population of subscribers watches its `k` nearest
//! while a separate churn population joins, leaves and silently fails
//! through the batched lease path, and every drained delta is checked
//! against a re-poll of the live directory (set-of-`(peer, dtree)`
//! equality — the exact and fill sections of an answer are ordered
//! per-section, not globally).
//!
//! The subscription clock is driven from the trace timeline (window end
//! in milliseconds), so rate limiting, coalescing and the delta-latency
//! CDF are deterministic per seed. Storm mode widens `min_interval_ms`
//! past the whole trace: every event coalesces into at most one pending
//! delta per subscriber, which pins the coalescing path (`coalesced > 0`)
//! and the queue-depth bound (peak ≤ active) under a worst-case burst.

use crate::swarm::SyntheticJoins;
use nearpeer_core::{
    NeighborDelta, PeerId, PeerPath, ServerConfig, Subscription, SubscriptionStats,
};
use nearpeer_workloads::{ArrivalProcess, ChurnConfig, ChurnEventKind, ChurnTrace};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Subscription soak parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubSoakConfig {
    /// Landmarks (= directory shards).
    pub n_landmarks: usize,
    /// Churn population (trace peer indices `0..churners`).
    pub churners: usize,
    /// Stable watcher population (ids `churners..churners+subscribers`,
    /// registered up front, renewed every window, never churned).
    pub subscribers: usize,
    /// Neighbors each subscription watches.
    pub k: usize,
    /// Rate-limit window per subscription, trace milliseconds.
    pub min_interval_ms: u64,
    /// Mean churner session length, seconds (exponential).
    pub mean_lifetime_secs: f64,
    /// Churner join rate, per second (Poisson).
    pub arrival_rate: f64,
    /// Fraction of departures that fail silently instead of leaving.
    pub failure_fraction: f64,
    /// Epoch windows the trace is sliced into.
    pub windows: usize,
    /// Lease expiry sweep cadence, in windows.
    pub expire_every: u64,
    /// Lease length in epochs for history-less peers.
    pub max_age: u64,
    /// Re-poll the directory after every drained delta (the parity
    /// check). Off only for pure throughput timing.
    pub verify: bool,
    /// Storm mode: no drains during the replay (see module docs).
    pub storm: bool,
}

impl SubSoakConfig {
    /// The CI smoke shape: 10k subscribers over 40k churners.
    pub fn smoke() -> Self {
        Self {
            n_landmarks: 8,
            churners: 40_000,
            subscribers: 10_000,
            k: 5,
            min_interval_ms: 2_000,
            mean_lifetime_secs: 60.0,
            arrival_rate: 1_000.0,
            failure_fraction: 0.3,
            // Windows narrower than `min_interval_ms`, so the rate
            // limiter holds some deltas across windows and the latency
            // CDF shows real spread instead of one point.
            windows: 512,
            expire_every: 16,
            max_age: 32,
            verify: true,
            storm: false,
        }
    }

    /// A reduced shape for unit tests.
    pub fn quick() -> Self {
        Self {
            n_landmarks: 3,
            churners: 300,
            subscribers: 40,
            k: 4,
            min_interval_ms: 500,
            mean_lifetime_secs: 30.0,
            arrival_rate: 50.0,
            failure_fraction: 0.4,
            windows: 24,
            expire_every: 3,
            max_age: 5,
            verify: true,
            storm: false,
        }
    }
}

/// Virtual-time latency distribution of the drained deltas
/// (`queued_ms`: trace milliseconds between a delta being queued and it
/// reaching the wire).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct DeltaLatency {
    /// Deltas measured.
    pub count: u64,
    /// Median queue latency, trace ms.
    pub p50_ms: u64,
    /// 90th percentile.
    pub p90_ms: u64,
    /// 99th percentile.
    pub p99_ms: u64,
    /// Worst observed.
    pub max_ms: u64,
}

impl DeltaLatency {
    fn from_samples(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_unstable();
        let at = |q: f64| samples[((samples.len() - 1) as f64 * q) as usize];
        Self {
            count: samples.len() as u64,
            p50_ms: at(0.50),
            p90_ms: at(0.90),
            p99_ms: at(0.99),
            max_ms: *samples.last().unwrap(),
        }
    }
}

/// Soak output, written to `result.json` by the `sub_soak` binary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubSoakResult {
    /// Configuration used.
    pub config: SubSoakConfig,
    /// Trace events applied.
    pub events: u64,
    /// Standing subscriptions still active at the end.
    pub active_subs: u64,
    /// Deltas drained and (if `verify`) checked against a re-poll.
    pub deltas_verified: u64,
    /// Parity failures (must be 0).
    pub mismatches: u64,
    /// Replay wall-clock (registration, churn batches, subscription
    /// observes and drains — the server-side cost), seconds.
    pub elapsed_secs: f64,
    /// Harness-side verification wall-clock (re-polls + set compares),
    /// seconds; excluded from `elapsed_secs`.
    pub verify_secs: f64,
    /// Trace events applied per second of replay.
    pub events_per_sec: f64,
    /// Churn events absorbed per pushed delta
    /// (`(pushed + coalesced) / pushed`) — the coalescing ratio.
    pub coalescing_ratio: f64,
    /// Final registry counters.
    pub stats: SubscriptionStats,
    /// Queue-latency distribution of the drained deltas.
    pub latency: DeltaLatency,
}

/// A subscriber's mirrored answer, kept delta-applied.
struct View {
    answer: Vec<nearpeer_core::Neighbor>,
}

fn apply(view: &mut View, delta: &NeighborDelta) {
    view.answer.retain(|n| !delta.removed.contains(&n.peer));
    for a in &delta.added {
        match view.answer.iter_mut().find(|n| n.peer == a.peer) {
            Some(n) => n.dtree = a.dtree,
            None => view.answer.push(*a),
        }
    }
}

fn same_answer(mut a: Vec<nearpeer_core::Neighbor>, mut b: Vec<nearpeer_core::Neighbor>) -> bool {
    a.sort_unstable_by_key(|n| n.peer);
    b.sort_unstable_by_key(|n| n.peer);
    a == b
}

/// Runs a subscription soak (see [`SubSoakConfig`]).
pub fn run_sub_soak(cfg: &SubSoakConfig, seed: u64) -> SubSoakResult {
    let gen = SyntheticJoins::new(cfg.n_landmarks);
    let mut server = gen.server(ServerConfig {
        neighbor_count: cfg.k,
        ..ServerConfig::default()
    });
    let trace = ChurnTrace::generate(
        &ChurnConfig {
            peers: cfg.churners,
            arrivals: ArrivalProcess::Poisson {
                rate_per_sec: cfg.arrival_rate,
            },
            mean_lifetime_secs: Some(cfg.mean_lifetime_secs),
            failure_fraction: cfg.failure_fraction,
        },
        seed,
    );
    let width = (trace.span_us() / cfg.windows.max(1) as u64).max(1);
    // Storm mode: nothing is drain-eligible until the replay is over.
    let min_interval = if cfg.storm {
        trace.span_us() / 1_000 + cfg.min_interval_ms + 1
    } else {
        cfg.min_interval_ms
    };

    // Stable watcher population, disjoint from the trace's peer indices.
    let sub_ids: Vec<PeerId> = (0..cfg.subscribers as u64)
        .map(|i| PeerId(cfg.churners as u64 + i))
        .collect();
    let joins: Vec<(PeerId, PeerPath)> = sub_ids.iter().map(|p| gen.join(p.0)).collect();
    let out = server.register_batch(joins);
    assert_eq!(out.joined, cfg.subscribers, "watcher registration failed");
    let client = server.open_sub_client();
    let mut views: Vec<View> = Vec::with_capacity(cfg.subscribers);
    for &peer in &sub_ids {
        let answer = server
            .subscribe(
                client,
                Subscription {
                    peer,
                    k: cfg.k,
                    min_interval_ms: min_interval,
                },
            )
            .expect("watchers are registered");
        views.push(View { answer });
    }
    let view_of = |peer: PeerId| (peer.0 - cfg.churners as u64) as usize;
    // Watchers only need a fresh lease before `max_age` epochs elapse.
    let renew_every = (cfg.max_age / 2).max(1);

    // Setup (watcher registration + initial subscribe) is excluded: the
    // throughput figure measures the churn replay, drains included.
    let t0 = Instant::now();
    let mut events = 0u64;
    let mut epochs = 0u64;
    let mut deltas: Vec<NeighborDelta> = Vec::new();
    let mut verify_time = std::time::Duration::ZERO;
    let mut mismatches = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut verified = 0u64;
    for (idx, window) in trace.windows(width) {
        server.advance_epoch();
        epochs += 1;
        events += window.len() as u64;
        // Deltas queued by this window's events carry the window-start
        // clock; drains below happen at window end, so `queued_ms`
        // reflects both the window width and any rate-limit holdback.
        server.set_sub_clock_ms(idx * width / 1_000);
        let mut joins: Vec<(PeerId, PeerPath)> = Vec::new();
        let mut leaves: Vec<PeerId> = Vec::new();
        for ev in window {
            match ev.kind {
                ChurnEventKind::Join => joins.push(gen.join(ev.peer as u64)),
                ChurnEventKind::Leave => leaves.push(PeerId(ev.peer as u64)),
                // Silent: the expiry sweep has to catch it.
                ChurnEventKind::Fail => {}
            }
        }
        server.register_batch(joins);
        server.leave_batch(&leaves);
        // Watchers renew ahead of the expiry horizon so churn-population
        // sweeps never reap a subscriber.
        if epochs % renew_every == 0 {
            server.renew_batch(&sub_ids);
        }
        if epochs % cfg.expire_every == 0 {
            server.expire_stale(cfg.max_age);
        }
        if !cfg.storm {
            server.set_sub_clock_ms((idx + 1) * width / 1_000);
            deltas.clear();
            server.drain_deltas(client, usize::MAX, &mut deltas);
            for d in &deltas {
                latencies.push(d.queued_ms);
                apply(&mut views[view_of(d.peer)], d);
            }
            if cfg.verify {
                let tv = Instant::now();
                for d in &deltas {
                    verified += 1;
                    let view = &views[view_of(d.peer)];
                    let expect = server
                        .neighbors_of(d.peer, cfg.k)
                        .expect("watchers stay registered");
                    if !same_answer(view.answer.clone(), expect) {
                        mismatches += 1;
                    }
                }
                verify_time += tv.elapsed();
            }
        }
    }
    if cfg.storm {
        // Open the rate-limit window and take everything in one drain.
        server.set_sub_clock_ms(trace.span_us() / 1_000 + min_interval + 1);
        deltas.clear();
        server.drain_deltas(client, usize::MAX, &mut deltas);
        let tv = Instant::now();
        for d in &deltas {
            latencies.push(d.queued_ms);
            apply(&mut views[view_of(d.peer)], d);
            if cfg.verify {
                verified += 1;
                let expect = server
                    .neighbors_of(d.peer, cfg.k)
                    .expect("watchers stay registered");
                if !same_answer(views[view_of(d.peer)].answer.clone(), expect) {
                    mismatches += 1;
                }
            }
        }
        verify_time += tv.elapsed();
    }
    let elapsed = t0.elapsed().saturating_sub(verify_time);
    let stats = server.subscription_stats();
    let pushed = stats.pushed.max(1);
    SubSoakResult {
        config: cfg.clone(),
        events,
        active_subs: stats.active,
        deltas_verified: verified,
        mismatches,
        elapsed_secs: elapsed.as_secs_f64(),
        verify_secs: verify_time.as_secs_f64(),
        events_per_sec: events as f64 / elapsed.as_secs_f64().max(1e-9),
        coalescing_ratio: (stats.pushed + stats.coalesced) as f64 / pushed as f64,
        stats,
        latency: DeltaLatency::from_samples(&mut latencies),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_soak_has_full_parity() {
        let r = run_sub_soak(&SubSoakConfig::quick(), 7);
        assert_eq!(r.mismatches, 0, "delta stream diverged from re-polls");
        assert!(r.deltas_verified > 0, "soak produced no deltas to check");
        assert_eq!(r.active_subs, 40, "a watcher was dropped");
    }

    #[test]
    fn storm_mode_coalesces_with_bounded_queue() {
        let cfg = SubSoakConfig {
            storm: true,
            ..SubSoakConfig::quick()
        };
        let r = run_sub_soak(&cfg, 7);
        assert_eq!(r.mismatches, 0);
        assert!(
            r.stats.coalesced > 0,
            "a storm inside one rate-limit window must coalesce"
        );
        assert!(
            r.stats.peak_queue_depth <= r.stats.active,
            "queue depth exceeded one pending per subscription"
        );
        assert!(r.coalescing_ratio > 1.0);
    }
}
