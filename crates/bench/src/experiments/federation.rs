//! Federation soak: replay a region-biased churn + mobility trace
//! through a multi-region [`Federation`] at populations where the
//! single-server soak already runs — but with peers **moving between
//! regions**, driving the cross-region handover path, the forwarding
//! tombstones it plants, and the federation-aware expiry that tells
//! "peer moved" apart from "peer silent".
//!
//! Invariants the soak (and its CI gate) checks:
//!
//! * population conservation — every fresh join is accounted for by a
//!   graceful leave, a lease expiry, or the final population (handover
//!   moves a peer, it never duplicates or destroys one);
//! * no leaked leases — after the trace drains, sweeping until the
//!   tombstone count reaches zero must terminate within one lease length
//!   (a stuck tombstone would resurrect "moved" as "registered forever");
//! * moved ≠ silent — swept tombstones are reported separately from
//!   silent expiries, never mixed.

use crate::federation::{synthetic_federation, synthetic_move_landmark};
use crate::swarm::SyntheticJoins;
use nearpeer_core::federation::{Federation, FederationConfig, RegionId};
use nearpeer_core::{AdaptiveLeaseConfig, PeerId, PeerPath, ServerConfig};
use nearpeer_workloads::{
    ArrivalProcess, FederatedChurnConfig, FederatedEventKind, FederatedTrace,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Federation soak parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FederationSoakConfig {
    /// Peers per trace cycle.
    pub peers: usize,
    /// Regions (the federation partitions `n_landmarks` round-robin).
    pub regions: usize,
    /// Landmarks across the whole federation.
    pub n_landmarks: usize,
    /// Full trace replays (≥ 2 drives the rejoin/comeback paths).
    pub cycles: usize,
    /// Mean session length, seconds (exponential).
    pub mean_lifetime_secs: f64,
    /// Join rate, per second (Poisson).
    pub arrival_rate: f64,
    /// Fraction of departures that fail silently.
    pub failure_fraction: f64,
    /// Home-region skew (see
    /// [`FederatedChurnConfig::home_skew`]).
    pub home_skew: f64,
    /// Fraction of peers that move during their session.
    pub mobile_fraction: f64,
    /// Mean dwell between moves, seconds.
    pub mean_dwell_secs: f64,
    /// Probability a move returns home.
    pub return_home_bias: f64,
    /// Heartbeat-epoch windows per cycle.
    pub epochs_per_cycle: usize,
    /// Expiry sweep cadence, epochs.
    pub expire_every: u64,
    /// Lease length (and tombstone retention), epochs.
    pub max_age: u64,
    /// Heartbeat stride (must be < `max_age`).
    pub heartbeat_every: u64,
    /// Query fan-out (`None` = consult every region).
    pub fanout: Option<usize>,
    /// Adaptive lease lengths for the regional servers.
    pub adaptive: Option<AdaptiveLeaseConfig>,
}

impl FederationSoakConfig {
    /// The CI smoke shape: 4 regions × 25k peers with mobility.
    pub fn smoke() -> Self {
        Self {
            peers: 25_000,
            regions: 4,
            n_landmarks: 8,
            cycles: 1,
            mean_lifetime_secs: 60.0,
            arrival_rate: 250.0,
            failure_fraction: 0.3,
            home_skew: 0.4,
            mobile_fraction: 0.2,
            mean_dwell_secs: 30.0,
            return_home_bias: 0.5,
            epochs_per_cycle: 128,
            expire_every: 4,
            max_age: 8,
            heartbeat_every: 4,
            fanout: None,
            adaptive: None,
        }
    }

    /// A reduced shape for unit tests.
    pub fn quick() -> Self {
        Self {
            peers: 400,
            regions: 3,
            n_landmarks: 6,
            cycles: 2,
            mean_lifetime_secs: 30.0,
            arrival_rate: 50.0,
            failure_fraction: 0.4,
            home_skew: 0.5,
            mobile_fraction: 0.5,
            mean_dwell_secs: 10.0,
            return_home_bias: 0.5,
            epochs_per_cycle: 24,
            expire_every: 3,
            max_age: 5,
            heartbeat_every: 2,
            fanout: None,
            adaptive: None,
        }
    }
}

/// Event dispositions accumulated over a federated soak replay.
/// Deterministic per `(config, seed)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FederationSoakCounters {
    /// Fresh registrations.
    pub joins: u64,
    /// Same-region rejoins renewed through the register path.
    pub renewals: u64,
    /// Rejoins that found the peer's lease still live in **another**
    /// region — replayed as handovers back to the home region.
    pub comeback_handovers: u64,
    /// Mobility handovers (trace `Move` events applied).
    pub moves: u64,
    /// The subset of applied events that crossed regions (tombstones
    /// planted).
    pub cross_region_moves: u64,
    /// Move events skipped because the peer's lease had already lapsed.
    pub skipped_moves: u64,
    /// Join items the federation rejected (should stay 0).
    pub rejected: u64,
    /// Graceful departures that removed a registration.
    pub leaves: u64,
    /// Silent failures (no server interaction).
    pub fails: u64,
    /// Leases expired silently by the sweeps.
    pub expired: u64,
    /// Forwarding tombstones retired by the sweeps.
    pub moved_swept: u64,
    /// Heartbeat renewals.
    pub heartbeats: u64,
    /// Heartbeat epochs driven.
    pub epochs: u64,
    /// Trace events applied.
    pub events: u64,
}

/// Federated soak output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FederationSoakResult {
    /// Configuration used.
    pub config: FederationSoakConfig,
    /// Event dispositions.
    pub counters: FederationSoakCounters,
    /// Largest registered population observed at an epoch boundary.
    pub peak_population: usize,
    /// Registered peers left after the replay + drain.
    pub final_population: usize,
    /// Per-region final populations (the home skew made visible).
    pub final_per_region: Vec<usize>,
    /// Tombstones still held after the final drain (must be 0 — the
    /// "no leaked leases" gate).
    pub final_tombstones: usize,
    /// Wall-clock seconds for the replay (excluding trace generation).
    pub elapsed_secs: f64,
    /// Trace events applied per second of replay.
    pub events_per_sec: f64,
}

/// Runs a federated soak and hands back the federation for state
/// inspection (the determinism suite compares directories across runs).
pub fn run_federation_soak_with_state(
    cfg: &FederationSoakConfig,
    seed: u64,
) -> (FederationSoakResult, Federation) {
    assert!(cfg.expire_every >= 1, "expiry cadence must be >= 1 epoch");
    assert!(
        cfg.heartbeat_every >= 1 && cfg.heartbeat_every < cfg.max_age,
        "live peers must heartbeat within their lease"
    );
    let gen = SyntheticJoins::new(cfg.n_landmarks);
    let mut fed = synthetic_federation(
        &gen,
        cfg.regions,
        FederationConfig {
            fanout: cfg.fanout,
            server: ServerConfig {
                neighbor_count: 5,
                cross_landmark_fallback: true,
                adaptive_leases: cfg.adaptive,
            },
        },
    )
    .expect("soak federation config is valid");
    let trace = FederatedTrace::generate(
        &FederatedChurnConfig {
            peers: cfg.peers,
            regions: cfg.regions,
            arrivals: ArrivalProcess::Poisson {
                rate_per_sec: cfg.arrival_rate,
            },
            mean_lifetime_secs: Some(cfg.mean_lifetime_secs),
            failure_fraction: cfg.failure_fraction,
            home_skew: cfg.home_skew,
            mobile_fraction: cfg.mobile_fraction,
            mean_dwell_secs: cfg.mean_dwell_secs,
            return_home_bias: cfg.return_home_bias,
        },
        seed,
    );
    let width = (trace.span_us() / cfg.epochs_per_cycle.max(1) as u64).max(1);
    let mut counters = FederationSoakCounters::default();
    let mut peak = 0usize;
    // Trace-driven bookkeeping, identical across runs: nominal liveness,
    // each peer's current region, and heartbeat stride groups.
    let mut alive = vec![false; cfg.peers];
    let mut current: Vec<u32> = vec![0; cfg.peers];
    let mut grouped = vec![false; cfg.peers];
    let mut groups: Vec<Vec<usize>> = (0..cfg.heartbeat_every).map(|_| Vec::new()).collect();
    let t0 = Instant::now();
    for _cycle in 0..cfg.cycles {
        for (_idx, events) in trace.windows(width) {
            fed.advance_epoch();
            counters.epochs += 1;
            counters.events += events.len() as u64;
            let mut joins: Vec<(PeerId, PeerPath)> = Vec::new();
            let mut pending_join = vec![false; cfg.peers];
            let mut leaves_by_region: Vec<Vec<PeerId>> =
                (0..cfg.regions).map(|_| Vec::new()).collect();
            // Joins are batched for throughput, but a later event in the
            // same window may depend on the join having been applied (a
            // move whose dwell is shorter than the window) — flush the
            // pending batch before such an event so the replay respects
            // the trace's time order.
            fn flush_joins(
                fed: &mut Federation,
                counters: &mut FederationSoakCounters,
                joins: &mut Vec<(PeerId, PeerPath)>,
                pending_join: &mut [bool],
            ) {
                let absorbed = fed.register_batch(std::mem::take(joins));
                counters.joins += absorbed.joined as u64;
                counters.renewals += absorbed.renewed as u64;
                counters.rejected += absorbed.rejected as u64;
                pending_join.fill(false);
            }
            for ev in events {
                let peer = PeerId(ev.peer as u64);
                match ev.kind {
                    FederatedEventKind::Join => {
                        let home = RegionId(trace.home[ev.peer]);
                        let lm = synthetic_move_landmark(&fed, ev.peer as u64, home);
                        match fed.region_of_peer(peer) {
                            // A comeback: the previous session's lease is
                            // still live in another region — the rejoin
                            // *is* a handover home.
                            Some(at) if at != home => {
                                fed.handover(peer, gen.path_to(ev.peer as u64, lm))
                                    .expect("live peer, valid landmark");
                                counters.comeback_handovers += 1;
                            }
                            // Fresh join or same-region renewal: batched.
                            _ => {
                                joins.push(gen.join_to(ev.peer as u64, lm));
                                pending_join[ev.peer] = true;
                            }
                        }
                        alive[ev.peer] = true;
                        current[ev.peer] = home.0;
                        if !grouped[ev.peer] {
                            grouped[ev.peer] = true;
                            groups[ev.peer % cfg.heartbeat_every as usize].push(ev.peer);
                        }
                    }
                    FederatedEventKind::Move { to_region } => {
                        if pending_join[ev.peer] {
                            flush_joins(&mut fed, &mut counters, &mut joins, &mut pending_join);
                        }
                        let to = RegionId(to_region);
                        if fed.region_of_peer(peer).is_some() {
                            let crossed = fed.region_of_peer(peer) != Some(to);
                            let lm = synthetic_move_landmark(&fed, ev.peer as u64, to);
                            fed.handover(peer, gen.path_to(ev.peer as u64, lm))
                                .expect("live peer, valid landmark");
                            counters.moves += 1;
                            if crossed {
                                counters.cross_region_moves += 1;
                            }
                            current[ev.peer] = to_region;
                        } else {
                            // The lease already lapsed mid-session: the
                            // peer keeps heartbeating from wherever it
                            // last was, so the region hint must not move.
                            counters.skipped_moves += 1;
                        }
                    }
                    FederatedEventKind::Leave => {
                        alive[ev.peer] = false;
                        leaves_by_region[current[ev.peer] as usize].push(peer);
                    }
                    FederatedEventKind::Fail => {
                        alive[ev.peer] = false;
                        counters.fails += 1;
                    }
                }
            }
            flush_joins(&mut fed, &mut counters, &mut joins, &mut pending_join);
            for (r, leaves) in leaves_by_region.iter().enumerate() {
                if !leaves.is_empty() {
                    counters.leaves += fed
                        .region_mut(RegionId(r as u32))
                        .server_mut()
                        .leave_batch(leaves) as u64;
                }
            }
            // Heartbeat round: this epoch's stride group of live peers
            // renews in its current region (before the sweep).
            let phase = (counters.epochs % cfg.heartbeat_every) as usize;
            let mut beats_by_region: Vec<Vec<PeerId>> =
                (0..cfg.regions).map(|_| Vec::new()).collect();
            for &p in &groups[phase] {
                if alive[p] {
                    beats_by_region[current[p] as usize].push(PeerId(p as u64));
                }
            }
            for (r, beats) in beats_by_region.iter().enumerate() {
                if !beats.is_empty() {
                    counters.heartbeats += fed
                        .region_mut(RegionId(r as u32))
                        .server_mut()
                        .renew_batch(beats) as u64;
                }
            }
            if counters.epochs % cfg.expire_every == 0 {
                let sweep = fed.expire_stale(cfg.max_age);
                counters.expired += sweep.expired.len() as u64;
                counters.moved_swept += sweep.moved_swept.len() as u64;
            }
            peak = peak.max(fed.peer_count());
        }
    }
    // Drain: after the trace ends, nobody renews — one lease length of
    // epochs retires every remaining tombstone (and the still-leased
    // silent failures). Leaked tombstones would survive this and fail the
    // gate.
    for _ in 0..=(cfg.max_age + cfg.expire_every) {
        fed.advance_epoch();
    }
    let sweep = fed.expire_stale(cfg.max_age);
    counters.expired += sweep.expired.len() as u64;
    counters.moved_swept += sweep.moved_swept.len() as u64;
    let elapsed = t0.elapsed();
    let result = FederationSoakResult {
        config: cfg.clone(),
        counters,
        peak_population: peak,
        final_population: fed.peer_count(),
        final_per_region: fed.regions().iter().map(|r| r.peer_count()).collect(),
        final_tombstones: fed.tombstone_count(),
        elapsed_secs: elapsed.as_secs_f64(),
        events_per_sec: counters.events as f64 / elapsed.as_secs_f64().max(1e-9),
    };
    (result, fed)
}

/// Runs a federated soak (see [`FederationSoakConfig`]).
pub fn run_federation_soak(cfg: &FederationSoakConfig, seed: u64) -> FederationSoakResult {
    run_federation_soak_with_state(cfg, seed).0
}

/// The soak's pass/fail gates, shared by the binary and CI.
pub fn check_federation_soak(r: &FederationSoakResult) -> Result<(), String> {
    let c = r.counters;
    if c.rejected != 0 {
        return Err(format!("{} join items rejected", c.rejected));
    }
    if c.joins != c.leaves + c.expired + r.final_population as u64 {
        return Err(format!(
            "population leak: {} joins vs {} leaves + {} expired + {} residual",
            c.joins, c.leaves, c.expired, r.final_population
        ));
    }
    if r.final_tombstones != 0 {
        return Err(format!(
            "{} forwarding tombstones leaked past the drain",
            r.final_tombstones
        ));
    }
    // Every swept tombstone traces back to a cross-region move (a peer
    // returning to a region clears its old tombstone *early*, so this is
    // an upper bound, with the leak check above closing the other side).
    if c.moved_swept > c.cross_region_moves + c.comeback_handovers {
        return Err(format!(
            "tombstone accounting: {} swept vs {} cross-region moves + {} comebacks",
            c.moved_swept, c.cross_region_moves, c.comeback_handovers
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_conserves_population_and_sweeps_every_tombstone() {
        let cfg = FederationSoakConfig::quick();
        let (result, fed) = run_federation_soak_with_state(&cfg, 11);
        check_federation_soak(&result).expect("gates hold");
        let c = result.counters;
        assert_eq!(
            c.events,
            trace_events(&cfg) * cfg.cycles as u64,
            "every event applied exactly once per cycle"
        );
        assert!(c.moves > 0, "a mobile half must move");
        assert!(c.cross_region_moves > 0, "moves must cross regions");
        assert!(c.renewals + c.comeback_handovers > 0, "cycle 2 rejoins");
        assert!(c.heartbeats > 0);
        assert!(c.expired > 0, "silent failures must lapse");
        assert_eq!(fed.peer_count(), result.final_population);
        assert_eq!(fed.tombstone_count(), 0);
        assert_eq!(
            result.final_per_region.iter().sum::<usize>(),
            result.final_population
        );
        assert!(c.moved_swept > 0, "some grace records must age out");
        // The federation's own handover counter saw every applied move.
        assert_eq!(
            fed.stats().handovers,
            c.moves + c.comeback_handovers,
            "front-door handovers"
        );
    }

    fn trace_events(cfg: &FederationSoakConfig) -> u64 {
        let trace = FederatedTrace::generate(
            &FederatedChurnConfig {
                peers: cfg.peers,
                regions: cfg.regions,
                arrivals: ArrivalProcess::Poisson {
                    rate_per_sec: cfg.arrival_rate,
                },
                mean_lifetime_secs: Some(cfg.mean_lifetime_secs),
                failure_fraction: cfg.failure_fraction,
                home_skew: cfg.home_skew,
                mobile_fraction: cfg.mobile_fraction,
                mean_dwell_secs: cfg.mean_dwell_secs,
                return_home_bias: cfg.return_home_bias,
            },
            11,
        );
        trace.events.len() as u64
    }

    #[test]
    fn adaptive_soak_holds_the_same_invariants() {
        let cfg = FederationSoakConfig {
            adaptive: Some(AdaptiveLeaseConfig::default()),
            ..FederationSoakConfig::quick()
        };
        let result = run_federation_soak(&cfg, 7);
        check_federation_soak(&result).expect("gates hold with adaptive leases");
        assert!(result.counters.expired > 0);
    }

    #[test]
    fn limited_fanout_still_conserves() {
        let cfg = FederationSoakConfig {
            fanout: Some(1),
            ..FederationSoakConfig::quick()
        };
        let result = run_federation_soak(&cfg, 5);
        check_federation_soak(&result).expect("gates hold under fanout 1");
    }
}
