//! The soak harness: one seeded driver and one checker for the
//! directory's soft-state invariants at 10⁵–10⁶ peers.
//!
//! A [`Scenario`] is a plane (a [`Federation`]; one region is the single
//! server) × one [`FederatedTrace`] (churn, plus mobility between
//! regions) × an optional [`Fault`] (a victim region whose every write
//! streams through a [`DurabilityWriter`], killed mid-load and rejoined
//! from the durable bytes) × optional [`Subs`] (watchers on region 0,
//! never the victim, every pushed delta checked against a re-poll).
//!
//! Each trace window is one heartbeat epoch: its events, one heartbeat
//! round, and every `expire_every` epochs a sweep. Writes go through the
//! federation's own entry points ([`Federation::register_batch`],
//! [`Federation::handover`], [`Federation::expire_stale`]) or, for leaves
//! and heartbeats, the region's server. A write to the victim is the
//! [`JournalOp`] its writer journals, applied through
//! [`ManagementServer::apply_journal_op`], so journal and live region
//! cannot diverge. After every move the peer must be found in its new
//! region on its new path. After the trace, one lease length with no
//! renewals drains every lease and tombstone. [`check`] holds every
//! invariant that applies; the population balance is also held after
//! every window while no region is down.

use crate::experiments::restart::directory_drift;
use crate::federation::{synthetic_federation, synthetic_move_landmark};
use crate::swarm::SyntheticJoins;
use nearpeer_core::federation::{Federation, FederationConfig, RegionId};
use nearpeer_core::{
    AdaptiveLeaseConfig, DurabilityWriter, DurableBytes, JournalOp, LandmarkId, ManagementServer,
    MemoryMedium, Neighbor, PeerId, PeerPath, ServerConfig, Subscription, SubscriptionStats,
    WriterConfig,
};
use nearpeer_workloads::{
    ArrivalProcess, FederatedChurnConfig, FederatedEvent, FederatedEventKind, FederatedTrace,
};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The scenario names [`Scenario::named`] knows.
pub const SCENARIOS: [&str; 6] = ["churn", "federation", "restart", "subs", "all", "writer-ab"];

/// The region that holds the watchers, and the victim of a [`Fault`].
const WATCH_REGION: RegionId = RegionId(0);
const VICTIM: RegionId = RegionId(1);
/// Snapshot offer cadence (epochs) and writer-side rate limit.
const SNAPSHOT_EVERY: u64 = 4;
const MIN_SNAPSHOT_INTERVAL: Duration = Duration::from_millis(200);
/// Queries homed in the down victim, per down epoch.
const FALLBACK_QUERIES: u64 = 8;
/// Neighbors each watcher watches, and its rate-limit window in trace
/// milliseconds.
const WATCH_K: usize = 5;
const WATCH_INTERVAL_MS: u64 = 2_000;

/// Returns `Err(format!(..))` from the enclosing function unless `cond`.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// The churn trace's shape and the lease discipline it runs under.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Churn {
    /// Peers per trace cycle.
    pub peers: usize,
    /// Trace replays; the second rejoins departed peers (renewals,
    /// comebacks).
    pub cycles: usize,
    /// Mean session length, seconds (exponential).
    pub mean_lifetime_secs: f64,
    /// Join rate, per second (Poisson).
    pub arrival_rate: f64,
    /// Fraction of departures that fail silently instead of leaving.
    pub failure_fraction: f64,
    /// Landmarks, partitioned round-robin over the regions.
    pub n_landmarks: usize,
    /// Epoch windows per cycle.
    pub epochs_per_cycle: usize,
    /// Expiry sweep cadence, epochs.
    pub expire_every: u64,
    /// Lease length (and tombstone retention), epochs.
    pub max_age: u64,
    /// Heartbeat stride: each epoch one stride group of the live peers
    /// renews. Must be < `max_age`.
    pub heartbeat_every: u64,
    /// Adaptive lease lengths; `None` = uniform `max_age`.
    pub adaptive: Option<AdaptiveLeaseConfig>,
}

impl Churn {
    /// The CI shape: 10⁵ peers over ~100 s of arrivals, 60 s sessions,
    /// 30 % silent failures, 8 landmarks, 128 epochs, 8-epoch leases.
    pub fn smoke() -> Self {
        Self {
            peers: 100_000,
            cycles: 1,
            mean_lifetime_secs: 60.0,
            arrival_rate: 1_000.0,
            failure_fraction: 0.3,
            n_landmarks: 8,
            epochs_per_cycle: 128,
            expire_every: 4,
            max_age: 8,
            heartbeat_every: 4,
            adaptive: None,
        }
    }
}

/// Region 1's every write streams through a [`DurabilityWriter`]
/// (journal plus rate-limited snapshot offers).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fault {
    /// `(kill, rejoin)` epochs: region 1 dies after the kill epoch's
    /// events and rejoins at the start of the rejoin epoch. `None` streams
    /// the writer with no kill.
    pub kill: Option<(u64, u64)>,
}

/// Watchers on region 0: ids after the trace's, registered before it,
/// heartbeating like everyone, never churned.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Subs {
    /// Watchers.
    pub watchers: usize,
    /// Storm: the rate-limit window spans the whole trace and nothing
    /// drains until it ends, so every event coalesces into one pending
    /// delta per watcher.
    pub storm: bool,
}

/// One soak run's configuration.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Scenario {
    /// Label for output.
    pub name: String,
    /// Regions of the federation (1 = the single server).
    pub regions: usize,
    /// Query fan-out (`None` = every region).
    pub fanout: Option<usize>,
    /// Trace and lease shape.
    pub churn: Churn,
    /// Mobility: `None` = off; `Some(mean dwell seconds)` = a fifth of the
    /// peers move, homes skewed 0.4, half the moves return home.
    pub mean_dwell_secs: Option<f64>,
    /// Durability fault schedule.
    pub fault: Option<Fault>,
    /// Subscription load.
    pub subs: Option<Subs>,
    /// Replay throughput floor, trace events per second.
    pub min_events_per_sec: f64,
}

impl Scenario {
    /// The named scenario at CI scale; `peers` overrides the trace
    /// population (arrivals stay ~100 s long, watchers a quarter of it).
    pub fn named(name: &str, peers: Option<usize>) -> Result<Self, String> {
        let churn = |default: usize| {
            let peers = peers.unwrap_or(default);
            let arrival_rate = (peers as f64 / 100.0).max(10.0);
            Churn {
                peers,
                arrival_rate,
                ..Churn::smoke()
            }
        };
        // Shorter sessions keep arrivals running through the victim's
        // down window (epochs 12–20 of 64), so it drops joins.
        let durable = |default: usize| Churn {
            mean_lifetime_secs: 10.0,
            epochs_per_cycle: 64,
            ..churn(default)
        };
        let plane = |regions, churn| Self {
            name: name.into(),
            regions,
            churn,
            ..Self::default()
        };
        let kill = Some(Fault {
            kill: Some((12, 20)),
        });
        let watchers = |c: &Churn| {
            Some(Subs {
                watchers: c.peers / 4,
                storm: false,
            })
        };
        Ok(match name {
            "churn" => plane(1, churn(100_000)),
            "federation" => Self {
                mean_dwell_secs: Some(30.0),
                ..plane(4, churn(25_000))
            },
            "restart" | "writer-ab" => Self {
                mean_dwell_secs: Some(5.0),
                fault: if name == "restart" {
                    kill
                } else {
                    Some(Fault { kill: None })
                },
                ..plane(4, durable(100_000))
            },
            "subs" => {
                // Windows narrower than the rate limit, so the limiter
                // holds some deltas across windows.
                let c = Churn {
                    epochs_per_cycle: 512,
                    expire_every: 16,
                    max_age: 32,
                    heartbeat_every: 16,
                    ..churn(40_000)
                };
                Self {
                    subs: watchers(&c),
                    min_events_per_sec: 50_000.0,
                    ..plane(1, c)
                }
            }
            "all" => {
                let c = durable(50_000);
                Self {
                    mean_dwell_secs: Some(5.0),
                    fault: kill,
                    subs: watchers(&c),
                    min_events_per_sec: 50_000.0,
                    ..plane(4, c)
                }
            }
            other => {
                let known = SCENARIOS.join(", ");
                return Err(format!("unknown scenario {other} (one of {known})"));
            }
        })
    }

    /// One server (a one-region federation) replaying `churn`, with no
    /// fault, watchers or throughput floor.
    pub fn single_server(churn: Churn) -> Self {
        Self {
            name: "single-server".into(),
            regions: 1,
            churn,
            ..Self::default()
        }
    }

    /// The storm twin of a scenario with watchers: a quarter of the
    /// population and watchers, no drains until the trace ends, no floor.
    pub fn storm(&self) -> Option<Self> {
        let subs = self.subs.as_ref()?;
        Some(Self {
            name: format!("{}-storm", self.name),
            churn: Churn {
                peers: self.churn.peers / 4,
                arrival_rate: self.churn.arrival_rate / 4.0,
                ..self.churn.clone()
            },
            subs: Some(Subs {
                watchers: (subs.watchers / 4).max(1),
                storm: true,
            }),
            min_events_per_sec: 0.0,
            ..self.clone()
        })
    }

    /// Rejects a scenario the driver cannot run as specified.
    pub fn validate(&self) -> Result<(), String> {
        let c = &self.churn;
        ensure!(c.peers > 0, "the trace needs at least one peer");
        ensure!(
            c.cycles > 0 && c.epochs_per_cycle > 0 && c.expire_every > 0,
            "cycles, epochs per cycle and expiry cadence must be >= 1"
        );
        ensure!(
            c.heartbeat_every > 0 && c.heartbeat_every < c.max_age,
            "live peers must heartbeat within their lease"
        );
        ensure!(
            self.regions > 0 && c.n_landmarks >= self.regions,
            "every region needs a landmark"
        );
        if let Some(f) = &self.fault {
            ensure!(
                self.regions > 1,
                "a fault needs region 1 and a live region 0"
            );
            if let Some((kill, rejoin)) = f.kill {
                ensure!(
                    kill > 0 && rejoin > kill,
                    "the rejoin (epoch {rejoin}) must come after the kill (epoch {kill} >= 1)"
                );
            }
        }
        if let Some(w) = &self.subs {
            ensure!(w.watchers > 0, "subscriptions need watchers");
        }
        Ok(())
    }

    fn trace(&self, seed: u64) -> FederatedTrace {
        let c = &self.churn;
        FederatedTrace::generate(
            &FederatedChurnConfig {
                peers: c.peers,
                regions: self.regions,
                arrivals: ArrivalProcess::Poisson {
                    rate_per_sec: c.arrival_rate,
                },
                mean_lifetime_secs: Some(c.mean_lifetime_secs),
                failure_fraction: c.failure_fraction,
                home_skew: 0.4,
                mobile_fraction: if self.mean_dwell_secs.is_some() {
                    0.2
                } else {
                    0.0
                },
                mean_dwell_secs: self.mean_dwell_secs.unwrap_or(1.0),
                return_home_bias: 0.5,
            },
            seed,
        )
    }
}

/// Event and operation dispositions over a run. Deterministic per
/// `(scenario, seed)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Trace events applied.
    pub events: u64,
    /// Epochs driven (the drain excluded).
    pub epochs: u64,
    /// Fresh registrations (watchers included).
    pub joins: u64,
    /// Same-region rejoins renewed through the register path.
    pub renewals: u64,
    /// Join items a region rejected (must stay 0).
    pub rejected: u64,
    /// Rejoins that found the lease live in another region: a move home.
    pub comebacks: u64,
    /// Trace moves applied.
    pub moves: u64,
    /// The moves that crossed regions (each plants a tombstone).
    pub cross_region_moves: u64,
    /// Moves within the victim (handovers to a new path).
    pub victim_repaths: u64,
    /// Moves and comebacks out of the victim.
    pub victim_forwards: u64,
    /// Moves skipped: the lease had lapsed, or a region was down.
    pub skipped_moves: u64,
    /// Graceful departures that removed a registration.
    pub leaves: u64,
    /// Silent failures (no server interaction).
    pub fails: u64,
    /// Leases expired by sweeps.
    pub expired: u64,
    /// Forwarding tombstones retired by sweeps.
    pub moved_swept: u64,
    /// Heartbeat renewals applied.
    pub heartbeats: u64,
    /// Joins homed in, or whose lease lives in, the down victim.
    pub dropped_joins: u64,
    /// Graceful leaves for the down victim (those peers expire instead).
    pub dropped_leaves: u64,
    /// Heartbeats for the down victim.
    pub dropped_heartbeats: u64,
    /// Queries homed in the victim issued while it was down.
    pub fallback_queries: u64,
    /// The subset answered non-empty by the live regions.
    pub fallback_answered: u64,
}

/// The subscription results, taken when the trace ends (the drain
/// expires the watchers too).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubsReport {
    /// Deltas drained and checked against a re-poll.
    pub deltas_verified: u64,
    /// Deltas whose applied view differed from the re-poll, plus the
    /// watchers whose view differed from one after the closing drain
    /// (must be 0).
    pub mismatches: u64,
    /// Region 0's registry counters.
    pub stats: SubscriptionStats,
    /// Queue latency of the drained deltas, trace milliseconds: p50, p90,
    /// p99 and max.
    pub latency_ms: Vec<u64>,
    /// Trace milliseconds between drains: one epoch window.
    pub drain_every_ms: u64,
    /// The watchers' rate limit, milliseconds.
    pub rate_limit_ms: u64,
}

impl SubsReport {
    /// Whether drains come a rate limit or more apart: then every delta
    /// waits for the end of its window, and the latency figures measure
    /// the window width rather than the engine.
    pub fn window_bound(&self) -> bool {
        self.drain_every_ms >= self.rate_limit_ms
    }

    /// The delta-latency line `soak` prints: the CDF beside the drain
    /// cadence, or, when the cadence bounds it, that instead of a CDF.
    pub fn latency_line(&self) -> String {
        let max = self.latency_ms.last().copied().unwrap_or(0);
        if self.window_bound() {
            format!(
                "latency window-bound: a drain every {} ms against a {} ms rate limit \
                 (max {max} ms)",
                self.drain_every_ms, self.rate_limit_ms
            )
        } else {
            format!(
                "latency p50,p90,p99,max {:?} ms, a drain every {} ms",
                self.latency_ms, self.drain_every_ms
            )
        }
    }
}

/// One run's outcome.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Report {
    /// Configuration used.
    pub scenario: Scenario,
    /// Event and operation dispositions.
    pub counters: Counters,
    /// Largest registered population at an epoch boundary.
    pub peak_population: usize,
    /// Registered peers left after the drain.
    pub final_population: usize,
    /// Per-region final populations.
    pub final_per_region: Vec<usize>,
    /// Tombstones left after the drain (must be 0).
    pub final_tombstones: usize,
    /// Per region after the drain: (routers indexed, distinct routers on
    /// live stored paths), which must be equal.
    pub indexed_vs_live_routers: Vec<(usize, usize)>,
    /// Lease-arena entries the expiry sweeps touched, all regions.
    pub sweep_entries: u64,
    /// Whether the victim was killed and rejoined.
    pub killed: bool,
    /// Mismatches between the dead victim and its recovery (must be 0).
    pub recovered_drift: u64,
    /// Journal records replayed at the rejoin.
    pub recovery_journal_records: u64,
    /// Whether the rejoin hit a torn journal tail (must not).
    pub recovery_torn_tail: bool,
    /// Snapshots the victim's writers installed.
    pub snapshots_written: u64,
    /// Journal ops the writers accepted.
    pub writer_records: u64,
    /// Subscription results, when the scenario has watchers.
    pub subs: Option<SubsReport>,
    /// Replay wall-clock (re-polls excluded), seconds.
    pub elapsed_secs: f64,
    /// Trace events per second of replay.
    pub events_per_sec: f64,
}

/// Why a run produced no report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SoakError {
    /// The scenario cannot run as specified: it fails [`Scenario::validate`],
    /// or its trace ends before the victim's rejoin.
    Invalid(String),
    /// A step of the run failed: a refused move, a recovery, a rejoin.
    Failed(String),
}

impl std::fmt::Display for SoakError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invalid(msg) | Self::Failed(msg) => f.write_str(msg),
        }
    }
}

impl From<String> for SoakError {
    fn from(msg: String) -> Self {
        Self::Failed(msg)
    }
}

/// Runs a scenario and hands back the drained federation.
pub fn run_with_state(s: &Scenario, seed: u64) -> Result<(Report, Federation), SoakError> {
    run_replay(s, seed, false)
}

/// Runs a scenario.
pub fn run(s: &Scenario, seed: u64) -> Result<Report, SoakError> {
    run_with_state(s, seed).map(|(report, _)| report)
}

/// [`run_with_state`], or with `per_event` the reference the batched
/// replay is checked against: the same trace, heartbeat rounds and
/// sweeps, with every event and heartbeat its own write, in trace order.
/// `tests/determinism.rs` asserts both leave identical directories; no
/// scenario replays per event.
#[doc(hidden)]
pub fn run_replay(
    s: &Scenario,
    seed: u64,
    per_event: bool,
) -> Result<(Report, Federation), SoakError> {
    s.validate().map_err(SoakError::Invalid)?;
    Driver::new(s, per_event)?.run(seed)
}

/// Distinct routers on the live stored paths of `server`'s peers: what
/// its router index must hold, and no more.
pub fn live_path_routers(server: &ManagementServer) -> usize {
    let view = server.index();
    let routers: HashSet<_> = view
        .peers()
        .filter_map(|p| view.path_of(p))
        .flat_map(|path| path.routers().iter().copied())
        .collect();
    routers.len()
}

/// Whether watcher `peer`'s delta-applied `view` differs from a re-poll.
/// Views compare as sets: an answer's exact and fill sections are each
/// ordered, not the whole.
fn diverges(server: &ManagementServer, peer: PeerId, view: &[Neighbor]) -> bool {
    let mut mine = view.to_vec();
    let mut polled = server.neighbors_of(peer, WATCH_K).expect("watchers stay");
    mine.sort_unstable_by_key(|n| n.peer);
    polled.sort_unstable_by_key(|n| n.peer);
    mine != polled
}

/// The population balance: every fresh join is accounted for by a
/// graceful leave, an expiry, or the current population.
fn conservation(c: &Counters, population: usize) -> Result<(), String> {
    ensure!(
        c.joins == c.leaves + c.expired + population as u64,
        "population leak: {} joins vs {} leaves + {} expired + {population} residual",
        c.joins,
        c.leaves,
        c.expired
    );
    Ok(())
}

/// Every invariant that applies to the report's scenario.
pub fn check(r: &Report) -> Result<(), String> {
    let (c, s) = (&r.counters, &r.scenario);
    ensure!(c.rejected == 0, "{} join items rejected", c.rejected);
    conservation(c, r.final_population)?;
    ensure!(
        r.final_tombstones == 0,
        "{} forwarding tombstones leaked past the drain",
        r.final_tombstones
    );
    // Handovers, leaves and sweeps unindex; what they miss outlives the
    // drain.
    ensure!(
        r.indexed_vs_live_routers.iter().all(|(i, l)| i == l),
        "router leak: (indexed, on live paths) per region {:?}",
        r.indexed_vs_live_routers
    );
    // The epoch-bucketed sweep touches noted lease activity only (an open,
    // a renewal, a move's new lease or tombstone; re-notes bounded by
    // sweeps), never population × sweeps.
    let noted = c.joins + c.renewals + c.heartbeats + c.moves + c.comebacks;
    ensure!(
        r.sweep_entries <= 2 * noted,
        "expiry sweeps touched {} entries for {noted} noted renewals — not linear",
        r.sweep_entries
    );
    // A peer returning to a region clears its old tombstone early, so this
    // is an upper bound; the leak check closes the other side.
    ensure!(
        c.moved_swept <= c.cross_region_moves + c.comebacks,
        "tombstone accounting: {} swept vs {} cross-region moves + {} comebacks",
        c.moved_swept,
        c.cross_region_moves,
        c.comebacks
    );
    if r.killed {
        ensure!(
            r.recovered_drift == 0,
            "{} observable mismatches between the dead server and its recovery",
            r.recovered_drift
        );
        ensure!(
            !r.recovery_torn_tail,
            "torn journal tail after a cleanly flushed kill"
        );
        ensure!(
            c.fallback_queries > 0 && c.fallback_answered == c.fallback_queries,
            "fan-out fallback: {} of {} down-region queries answered",
            c.fallback_answered,
            c.fallback_queries
        );
    }
    ensure!(
        s.fault.is_none() || r.snapshots_written > 0,
        "no snapshot was ever installed"
    );
    if let (Some(w), Some(sr)) = (&s.subs, &r.subs) {
        let st = &sr.stats;
        ensure!(
            sr.mismatches == 0,
            "{} delta-applied views diverged from re-polls (per delta and after the closing drain)",
            sr.mismatches
        );
        ensure!(
            st.active == w.watchers as u64,
            "{} of {} subscriptions survived the trace",
            st.active,
            w.watchers
        );
        ensure!(
            sr.deltas_verified > 0,
            "the trace produced no deltas to verify"
        );
        ensure!(
            !w.storm || st.coalesced > 0,
            "a whole-trace storm coalesced nothing"
        );
        ensure!(
            st.peak_queue_depth <= st.active,
            "queue depth peaked at {} with only {} subscriptions",
            st.peak_queue_depth,
            st.active
        );
    }
    ensure!(
        r.events_per_sec.total_cmp(&s.min_events_per_sec).is_ge(),
        "{:.0} events/sec under the {:.0} floor",
        r.events_per_sec,
        s.min_events_per_sec
    );
    Ok(())
}

/// The watchers' harness side: one delivery client on region 0 and each
/// watcher's delta-applied view.
struct Watch {
    client: u64,
    first_id: u64,
    min_interval_ms: u64,
    views: Vec<Vec<Neighbor>>,
    latencies: Vec<u64>,
    verified: u64,
    mismatches: u64,
    verify: Duration,
}

struct Driver<'s> {
    s: &'s Scenario,
    per_event: bool,
    gen: SyntheticJoins,
    fed: Federation,
    c: Counters,
    r: Report,
    victim: Option<RegionId>,
    /// The victim's live writer and its durable bytes.
    durable: Option<(DurabilityWriter, Arc<Mutex<DurableBytes>>)>,
    /// Durable bytes captured at the kill, for the rejoin.
    captured: Option<(Vec<u8>, Vec<u8>)>,
    watch: Option<Watch>,
    /// Per peer id (watchers after the trace's): nominal liveness, the
    /// region it was last placed in, heartbeat group membership.
    alive: Vec<bool>,
    at: Vec<Option<RegionId>>,
    grouped: Vec<bool>,
    /// Heartbeat stride groups.
    groups: Vec<Vec<usize>>,
    /// The window's batches, per region, and the peers with a batched
    /// join.
    joins: Vec<Vec<(PeerId, PeerPath)>>,
    leaves: Vec<Vec<PeerId>>,
    pending: HashSet<usize>,
}

impl<'s> Driver<'s> {
    fn new(s: &'s Scenario, per_event: bool) -> Result<Self, String> {
        let gen = SyntheticJoins::new(s.churn.n_landmarks);
        let server = ServerConfig {
            neighbor_count: WATCH_K,
            adaptive_leases: s.churn.adaptive,
        };
        let fanout = s.fanout;
        let fed = synthetic_federation(&gen, s.regions, FederationConfig { fanout, server })?;
        let n = s.churn.peers + s.subs.as_ref().map_or(0, |w| w.watchers);
        Ok(Self {
            s,
            per_event,
            gen,
            fed,
            c: Counters::default(),
            r: Report {
                scenario: s.clone(),
                ..Report::default()
            },
            victim: s.fault.as_ref().map(|_| VICTIM),
            durable: None,
            captured: None,
            watch: None,
            alive: vec![false; n],
            at: vec![None; n],
            grouped: vec![false; n],
            groups: vec![Vec::new(); s.churn.heartbeat_every as usize],
            joins: vec![Vec::new(); s.regions],
            leaves: vec![Vec::new(); s.regions],
            pending: HashSet::new(),
        })
    }

    fn down(&self, region: RegionId) -> bool {
        self.fed.region_down(region)
    }

    /// Whether `region` is the victim, whose every write is journaled.
    fn journaled(&self, region: RegionId) -> bool {
        Some(region) == self.victim
    }

    /// One write to the victim: journaled while its writer streams, then
    /// applied to the region exactly as journaled.
    fn journal(&mut self, op: JournalOp) {
        let victim = self.victim.expect("only the victim's writes are journaled");
        debug_assert!(!self.down(victim), "no write reaches a down region");
        if let Some((writer, _)) = &self.durable {
            writer.append(op.clone());
        }
        self.fed
            .region_mut(victim)
            .server_mut()
            .apply_journal_op(op);
    }

    /// Peers in `region` now: what a journaled write's disposition is
    /// read from.
    fn population(&self, region: RegionId) -> u64 {
        self.fed.region(region).server().peer_count() as u64
    }

    /// Registers joins through the federation, which routes each to its
    /// home region and rejects a peer registered in another.
    fn register(&mut self, items: Vec<(PeerId, PeerPath)>) {
        let out = self.fed.register_batch(items);
        self.c.joins += out.joined as u64;
        self.c.renewals += out.renewed as u64;
        self.c.rejected += out.rejected as u64;
    }

    /// The victim's joins as one journaled batch: new peers count as
    /// joins, peers registered there under the same landmark as renewals,
    /// the rest as rejected.
    fn register_victim(&mut self, victim: RegionId, items: Vec<(PeerId, PeerPath)>) {
        let server = self.fed.region(victim).server();
        let renewed = items.iter().filter(|(p, path)| {
            let stored = server.path_of(*p);
            stored.is_some_and(|s| s.landmark_router() == path.landmark_router())
        });
        let (renewed, n) = (renewed.count() as u64, items.len() as u64);
        let before = self.population(victim);
        self.journal(JournalOp::RegisterBatch(items));
        let joined = self.population(victim) - before;
        self.c.joins += joined;
        self.c.renewals += renewed;
        self.c.rejected += n - renewed - joined;
    }

    /// Moves a registered peer to `lm` in region `to` through
    /// [`Federation::handover`]; a move that touches the victim is written
    /// as the journal ops that handover is made of (a re-path `Handover`
    /// within a region; across, `DeregisterForwarding` in the old region
    /// and a register in the new). Either way the peer must then be found
    /// in `to` on the new path, and only there.
    fn move_peer(
        &mut self,
        peer: PeerId,
        from: RegionId,
        to: RegionId,
        lm: LandmarkId,
    ) -> Result<(), String> {
        let path = self.gen.path_to(peer.0, lm);
        let refused = |e| format!("moving {peer} from {from} to {to}: {e}");
        if !self.journaled(from) && !self.journaled(to) {
            self.fed.handover(peer, path.clone()).map_err(refused)?;
        } else if from == to {
            let path = path.clone();
            self.journal(JournalOp::Handover { peer, path });
            self.c.victim_repaths += 1;
        } else {
            let to_region = to.0;
            if self.journaled(from) {
                self.journal(JournalOp::DeregisterForwarding { peer, to_region });
                self.c.victim_forwards += 1;
            } else {
                let server = self.fed.region_mut(from).server_mut();
                server
                    .deregister_forwarding(peer, to_region)
                    .map_err(refused)?;
            }
            let join = vec![(peer, path.clone())];
            if self.journaled(to) {
                self.journal(JournalOp::RegisterBatch(join));
            } else {
                self.fed.region_mut(to).server_mut().register_batch(join);
            }
        }
        let left = from == to || self.fed.region(from).server().landmark_of(peer).is_none();
        ensure!(
            left && self.fed.locate(peer) == Some((to, path.view())),
            "moving {peer} from {from} to {to}: found at {:?}",
            self.fed.locate(peer).map(|(r, _)| r)
        );
        Ok(())
    }

    /// Writes the window's batched joins and leaves: the victim's
    /// journaled, the other regions' joins through the federation.
    fn flush(&mut self) {
        let mut routed = Vec::new();
        for r in 0..self.s.regions {
            let region = RegionId(r as u32);
            let joins = std::mem::take(&mut self.joins[r]);
            if !self.journaled(region) {
                routed.extend(joins);
            } else if !joins.is_empty() {
                self.register_victim(region, joins);
            }
        }
        if !routed.is_empty() {
            self.register(routed);
        }
        for r in 0..self.s.regions {
            let region = RegionId(r as u32);
            let leaves = std::mem::take(&mut self.leaves[r]);
            if leaves.is_empty() {
                continue;
            }
            self.c.leaves += if self.journaled(region) {
                let before = self.population(region);
                self.journal(JournalOp::LeaveBatch(leaves));
                before - self.population(region)
            } else {
                let server = self.fed.region_mut(region).server_mut();
                server.leave_batch(&leaves) as u64
            };
        }
        self.pending.clear();
    }

    /// Sweeps every live region through [`Federation::expire_stale`]; the
    /// victim's sweep is journaled as the op its recovered server replays
    /// (both run `expire_stale_full(max_age)`).
    fn sweep(&mut self) {
        let max_age = self.s.churn.max_age;
        if let Some((writer, _)) = &self.durable {
            writer.append(JournalOp::ExpireStale { max_age });
        }
        let sweep = self.fed.expire_stale(max_age);
        self.c.expired += sweep.expired.len() as u64;
        self.c.moved_swept += sweep.moved_swept.len() as u64;
    }

    /// Advances the cluster clock; the victim's tick is journaled as the
    /// op its recovered server replays.
    fn advance_epoch(&mut self) -> Result<(), String> {
        self.fed.advance_epoch().map_err(|e| e.to_string())?;
        if let Some((writer, _)) = &self.durable {
            writer.append(JournalOp::AdvanceEpoch);
        }
        Ok(())
    }

    /// Marks a peer live in `region` and enrolls it in its heartbeat group.
    fn place(&mut self, i: usize, region: RegionId) {
        self.alive[i] = true;
        self.at[i] = Some(region);
        if !std::mem::replace(&mut self.grouped[i], true) {
            let hb = self.groups.len();
            self.groups[i % hb].push(i);
        }
    }

    /// Applies one trace event, or adds it to the window's batches.
    fn event(&mut self, ev: &FederatedEvent, home: RegionId) -> Result<(), String> {
        let (i, peer) = (ev.peer, PeerId(ev.peer as u64));
        let at = self.at[i];
        match ev.kind {
            FederatedEventKind::Join => {
                // A client homed in a down region, or whose lease lives
                // there, fails over and never enters.
                if self.down(home) || at.is_some_and(|r| self.down(r)) {
                    self.c.dropped_joins += 1;
                    self.alive[i] = false;
                    return Ok(());
                }
                let lm = synthetic_move_landmark(&self.fed, peer.0, home);
                match self.fed.locate(peer).map(|(r, path)| (r, path.to_path())) {
                    // The last session's lease is live elsewhere: the
                    // rejoin is a move home.
                    Some((from, _)) if from != home => {
                        self.move_peer(peer, from, home, lm)?;
                        self.c.comebacks += 1;
                    }
                    // Live at home: the rejoin renews from where the peer
                    // is (a re-path may have moved it off `lm`).
                    Some((_, path)) => {
                        self.joins[home.index()].push((peer, path));
                        self.pending.insert(i);
                    }
                    None => {
                        self.joins[home.index()].push(self.gen.join_to(peer.0, lm));
                        self.pending.insert(i);
                    }
                }
                self.place(i, home);
            }
            FederatedEventKind::Move { to_region } => {
                // A move may follow its own join inside the window.
                if self.pending.contains(&i) {
                    self.flush();
                }
                let to = RegionId(to_region);
                match self.fed.region_of_peer(peer) {
                    Some(from) if !self.down(to) => {
                        // A per-epoch landmark pick, so a move within a
                        // region re-paths the peer.
                        let lm = synthetic_move_landmark(&self.fed, peer.0 + self.c.epochs, to);
                        self.move_peer(peer, from, to, lm)?;
                        self.c.moves += 1;
                        self.c.cross_region_moves += u64::from(from != to);
                        self.at[i] = Some(to);
                    }
                    // The lease lapsed (the peer heartbeats where it was),
                    // or a region involved is down.
                    _ => self.c.skipped_moves += 1,
                }
            }
            FederatedEventKind::Leave => {
                self.alive[i] = false;
                match at {
                    Some(r) if self.down(r) => self.c.dropped_leaves += 1,
                    Some(r) => self.leaves[r.index()].push(peer),
                    None => {}
                }
            }
            FederatedEventKind::Fail => {
                self.alive[i] = false;
                self.c.fails += 1;
            }
        }
        Ok(())
    }

    /// This epoch's stride group of live peers renews where it was last
    /// placed, trimmed to the leases still held (the journal keeps only
    /// real renewals).
    fn heartbeats(&mut self) {
        let mut beats: Vec<Vec<PeerId>> = vec![Vec::new(); self.s.regions];
        let group = (self.c.epochs % self.groups.len() as u64) as usize;
        for &i in &self.groups[group] {
            let Some(r) = self.at[i].filter(|_| self.alive[i]) else {
                continue;
            };
            let peer = PeerId(i as u64);
            if self.down(r) {
                self.c.dropped_heartbeats += 1;
            } else if self.fed.region(r).server().landmark_of(peer).is_some() {
                beats[r.index()].push(peer);
            }
        }
        for (r, batch) in beats.into_iter().enumerate() {
            let region = RegionId(r as u32);
            // The reference replay renews one peer per write.
            let per_write = if self.per_event {
                1
            } else {
                batch.len().max(1)
            };
            for part in batch.chunks(per_write) {
                self.c.heartbeats += if self.journaled(region) {
                    self.journal(JournalOp::RenewBatch(part.to_vec()));
                    part.len() as u64
                } else {
                    let server = self.fed.region_mut(region).server_mut();
                    server.renew_batch(part) as u64
                };
            }
        }
    }

    /// Spawns a writer generation for the victim, starting from a
    /// snapshot of its current state.
    fn spawn_writer(&mut self) -> Result<(), String> {
        if self.victim.is_none() {
            return Ok(());
        }
        let medium = MemoryMedium::new();
        let store = medium.handle();
        let config = WriterConfig {
            min_snapshot_interval: MIN_SNAPSHOT_INTERVAL,
            ..WriterConfig::default()
        };
        let writer = DurabilityWriter::spawn(medium, config);
        let snap = self.fed.snapshot_region(VICTIM);
        writer.offer_snapshot(snap.map_err(|e| e.to_string())?);
        self.durable = Some((writer, store));
        Ok(())
    }

    fn close_writer(&mut self) -> Option<DurableBytes> {
        let (writer, store) = self.durable.take()?;
        let stats = writer.close();
        self.r.snapshots_written += stats.snapshots_written;
        self.r.writer_records += stats.records;
        let bytes = store.lock().expect("durable store poisoned").clone();
        Some(bytes)
    }

    /// Kills the victim mid-load: its writer flushes and stops, the
    /// region is torn out, and the dead server is compared with what its
    /// durable bytes recover.
    fn kill(&mut self, victim: RegionId) -> Result<(), String> {
        let bytes = self.close_writer().expect("the victim streams a writer");
        let snap = bytes
            .snapshot
            .ok_or("no snapshot installed before the kill")?;
        let dead = self.fed.crash_region(victim).map_err(|e| e.to_string())?;
        let (recovered, _) = ManagementServer::recover(&snap, &bytes.journal)
            .map_err(|e| format!("recovery failed: {e}"))?;
        self.r.killed = true;
        self.r.recovered_drift = directory_drift(&dead, &recovered);
        self.captured = Some((snap, bytes.journal));
        Ok(())
    }

    /// Rejoins the victim from the bytes captured at the kill, under a
    /// fresh writer generation.
    fn rejoin(&mut self, victim: RegionId) -> Result<(), String> {
        let (snap, journal) = self.captured.take().expect("kill precedes rejoin");
        let report = self
            .fed
            .rejoin_region(victim, &snap, &journal)
            .map_err(|e| format!("rejoin refused: {e}"))?;
        self.r.recovery_journal_records = report.journal_records;
        self.r.recovery_torn_tail = report.journal_torn_tail;
        self.spawn_writer()
    }

    /// Registers the watchers on region 0 and subscribes each.
    fn subscribe(&mut self, total_span_ms: u64) -> Result<(), String> {
        let Some(w) = &self.s.subs else {
            return Ok(());
        };
        let first_id = self.s.churn.peers as u64;
        let ids = first_id..first_id + w.watchers as u64;
        let lm = |id| synthetic_move_landmark(&self.fed, id, WATCH_REGION);
        let joins = ids.clone().map(|id| self.gen.join_to(id, lm(id))).collect();
        self.register(joins);
        let min_interval_ms = match w.storm {
            true => total_span_ms + WATCH_INTERVAL_MS + 1,
            false => WATCH_INTERVAL_MS,
        };
        let server = self.fed.region_mut(WATCH_REGION).server_mut();
        let client = server.open_sub_client();
        let mut views = Vec::with_capacity(w.watchers);
        for id in ids.clone() {
            let (peer, k) = (PeerId(id), WATCH_K);
            let sub = Subscription {
                peer,
                k,
                min_interval_ms,
            };
            views.push(server.subscribe(client, sub).map_err(|e| e.to_string())?);
        }
        for id in ids {
            self.place(id as usize, WATCH_REGION);
        }
        self.watch = Some(Watch {
            client,
            first_id,
            min_interval_ms,
            views,
            latencies: Vec::new(),
            verified: 0,
            mismatches: 0,
            verify: Duration::ZERO,
        });
        Ok(())
    }

    /// Drains region 0's deltas at `now_ms`, applies each to its
    /// watcher's view and checks the view against a re-poll.
    fn drain_deltas(&mut self, now_ms: u64) {
        let Some(w) = &mut self.watch else {
            return;
        };
        let server = self.fed.region_mut(WATCH_REGION).server_mut();
        server.set_sub_clock_ms(now_ms);
        let mut deltas = Vec::new();
        server.drain_deltas(w.client, usize::MAX, &mut deltas);
        let t = Instant::now();
        for d in &deltas {
            w.latencies.push(d.queued_ms);
            let view = &mut w.views[(d.peer.0 - w.first_id) as usize];
            view.retain(|n| !d.removed.contains(&n.peer));
            for a in &d.added {
                match view.iter_mut().find(|n| n.peer == a.peer) {
                    Some(n) => n.dtree = a.dtree,
                    None => view.push(*a),
                }
            }
            w.verified += 1;
            w.mismatches += u64::from(diverges(server, d.peer, view));
        }
        w.verify += t.elapsed();
    }

    /// Compares every watcher's view with a re-poll, counting the
    /// differences as mismatches: a watcher that missed a change got no
    /// delta, so the per-delta check cannot see it.
    fn check_every_view(&mut self) {
        let Some(w) = &mut self.watch else {
            return;
        };
        let server = self.fed.region(WATCH_REGION).server();
        let t = Instant::now();
        for (peer, view) in (w.first_id..).map(PeerId).zip(&w.views) {
            w.mismatches += u64::from(diverges(server, peer, view));
        }
        w.verify += t.elapsed();
    }

    /// One epoch: the window's events, the kill or rejoin due, the
    /// heartbeat round, the sweep, a snapshot offer, the fallback probe,
    /// the delta drain, and the population balance.
    fn window(
        &mut self,
        events: &[FederatedEvent],
        home: &[u32],
        ms: (u64, u64),
    ) -> Result<(), String> {
        self.advance_epoch()?;
        self.c.epochs += 1;
        self.c.events += events.len() as u64;
        let (epoch, s) = (self.c.epochs, self.s);
        let kill = s.fault.as_ref().and_then(|f| f.kill).zip(self.victim);
        if let Some((_, victim)) = kill.filter(|((_, rejoin), _)| *rejoin == epoch) {
            self.rejoin(victim)?;
        }
        if self.watch.is_some() {
            self.fed
                .region_mut(WATCH_REGION)
                .server_mut()
                .set_sub_clock_ms(ms.0);
        }
        for ev in events {
            self.event(ev, RegionId(home[ev.peer]))?;
            if self.per_event {
                self.flush();
            }
        }
        self.flush();
        // The kill lands after the window's events, before its heartbeats
        // and sweep ("mid-load").
        if let Some((_, victim)) = kill.filter(|((at, _), _)| *at == epoch) {
            self.kill(victim)?;
        }
        self.heartbeats();
        if epoch % s.churn.expire_every == 0 {
            self.sweep();
        }
        if let Some((writer, _)) = self
            .durable
            .as_ref()
            .filter(|_| epoch % SNAPSHOT_EVERY == 0)
        {
            let snap = self.fed.snapshot_region(VICTIM);
            writer.offer_snapshot(snap.map_err(|e| e.to_string())?);
        }
        if let Some(victim) = self.victim.filter(|&v| self.down(v)) {
            // Queries homed in the down victim must come back non-empty
            // from the live regions.
            let globals = self.fed.region(victim).landmark_globals().to_vec();
            for q in 0..FALLBACK_QUERIES {
                let lm = LandmarkId(globals[(q % globals.len() as u64) as usize]);
                let path = self.gen.path_to(epoch * 131 + q, lm);
                self.c.fallback_queries += 1;
                let answer = self.fed.closest_to_path(&path, 5, None);
                self.c.fallback_answered += u64::from(!answer.is_empty());
            }
        }
        if !s.subs.as_ref().is_some_and(|w| w.storm) {
            self.drain_deltas(ms.1);
        }
        let population = self.fed.peer_count();
        self.r.peak_population = self.r.peak_population.max(population);
        if (0..s.regions as u32).all(|r| !self.down(RegionId(r))) {
            conservation(&self.c, population)?;
        }
        Ok(())
    }

    fn run(mut self, seed: u64) -> Result<(Report, Federation), SoakError> {
        let s = self.s;
        let trace = s.trace(seed);
        let width = (trace.span_us() / s.churn.epochs_per_cycle as u64).max(1);
        let span_ms = (trace.span_us() + width) / 1_000;
        let total_span_ms = span_ms * s.churn.cycles as u64;
        if let Some((_, rejoin)) = s.fault.as_ref().and_then(|f| f.kill) {
            let epochs = trace.windows(width).count() as u64 * s.churn.cycles as u64;
            if rejoin > epochs {
                return Err(SoakError::Invalid(format!(
                    "the victim must rejoin by the last epoch ({rejoin} > {epochs})"
                )));
            }
        }
        self.spawn_writer()?;
        self.subscribe(total_span_ms)?;
        let t0 = Instant::now();
        for cycle in 0..s.churn.cycles as u64 {
            for (idx, events) in trace.windows(width) {
                let start_ms = cycle * span_ms + idx * width / 1_000;
                self.window(events, &trace.home, (start_ms, start_ms + width / 1_000))?;
            }
        }
        let mut verify = Duration::ZERO;
        if let Some(min_interval) = self.watch.as_ref().map(|w| w.min_interval_ms) {
            // Open the rate-limit window, take everything left at once,
            // and hold every watcher, not only those a delta reached, to
            // a re-poll.
            self.drain_deltas(total_span_ms + min_interval + 1);
            self.check_every_view();
            let mut w = self.watch.take().expect("watching");
            w.latencies.sort_unstable();
            let at = |q: f64| {
                let last = w.latencies.len().saturating_sub(1);
                w.latencies
                    .get((last as f64 * q) as usize)
                    .copied()
                    .unwrap_or(0)
            };
            self.r.subs = Some(SubsReport {
                deltas_verified: w.verified,
                mismatches: w.mismatches,
                stats: self.fed.region(WATCH_REGION).server().subscription_stats(),
                latency_ms: vec![at(0.5), at(0.9), at(0.99), at(1.0)],
                drain_every_ms: width / 1_000,
                rate_limit_ms: min_interval,
            });
            verify = w.verify;
        }
        // Drain: nobody renews; one lease length retires every lease and
        // tombstone. A leaked tombstone survives this and fails the check.
        for _ in 0..=(s.churn.max_age + s.churn.expire_every) {
            self.advance_epoch()?;
        }
        self.sweep();
        self.close_writer();
        let r = &mut self.r;
        r.elapsed_secs = t0.elapsed().saturating_sub(verify).as_secs_f64().max(1e-9);
        r.events_per_sec = self.c.events as f64 / r.elapsed_secs;
        r.counters = self.c;
        let regions = self.fed.regions();
        r.final_population = self.fed.peer_count();
        r.final_per_region = regions.iter().map(|g| g.peer_count()).collect();
        r.final_tombstones = self.fed.tombstone_count();
        let index = |g: &nearpeer_core::federation::Region| {
            (
                g.server().index().n_routers(),
                live_path_routers(g.server()),
            )
        };
        r.indexed_vs_live_routers = regions.iter().map(index).collect();
        r.sweep_entries = regions
            .iter()
            .map(|g| g.server().sweep_stats().entries_swept)
            .sum();
        Ok((self.r, self.fed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a scenario and its checker, printing the counters on failure.
    fn checked(s: &Scenario, seed: u64) -> (Report, Federation) {
        let (r, fed) = run_with_state(s, seed).expect("scenario runs");
        if let Err(msg) = check(&r) {
            panic!("{msg}\n{:?}", r.counters);
        }
        (r, fed)
    }

    /// A named scenario at test scale: a few hundred peers whose
    /// sessions overlap the second cycle's rejoins, at most 3 regions, no
    /// throughput floor.
    fn quick(name: &str) -> Scenario {
        let s = Scenario::named(name, None).expect("named scenario");
        let churn = Churn {
            peers: 400,
            cycles: 2,
            mean_lifetime_secs: 30.0,
            arrival_rate: 50.0,
            failure_fraction: 0.4,
            n_landmarks: 6,
            epochs_per_cycle: 24,
            expire_every: 3,
            max_age: 5,
            heartbeat_every: 2,
            adaptive: None,
        };
        // With a kill: arrivals span the victim's down window.
        let churn = match s.fault {
            Some(_) => Churn {
                peers: 1_500,
                arrival_rate: 100.0,
                mean_lifetime_secs: 4.0,
                ..churn
            },
            None => churn,
        };
        Scenario {
            regions: s.regions.min(3),
            churn,
            mean_dwell_secs: s.mean_dwell_secs.map(|_| 10.0),
            fault: s.fault.map(|f| Fault {
                kill: f.kill.map(|_| (4, 8)),
            }),
            subs: s.subs.map(|w| Subs { watchers: 40, ..w }),
            min_events_per_sec: 0.0,
            ..s
        }
    }

    #[test]
    fn named_scenarios_are_valid() {
        for name in SCENARIOS {
            Scenario::named(name, None).unwrap().validate().unwrap();
            Scenario::named(name, Some(1_000_000))
                .unwrap()
                .validate()
                .unwrap();
            quick(name).validate().unwrap();
        }
        assert!(Scenario::named("wat", None).is_err());
    }

    /// The message of a run refused as [`SoakError::Invalid`].
    fn invalid(s: &Scenario) -> String {
        match run(s, 1) {
            Err(SoakError::Invalid(msg)) => msg,
            other => panic!("{}: not refused as invalid: {other:?}", s.name),
        }
    }

    #[test]
    fn a_zero_population_is_rejected() {
        let s = Scenario::named("churn", Some(0)).unwrap();
        let err = invalid(&s);
        assert!(err.contains("at least one peer"), "{err}");
    }

    #[test]
    fn a_rejoin_before_its_kill_is_rejected() {
        for kill in [(10, 10), (10, 4), (0, 3)] {
            let mut s = quick("restart");
            s.fault.as_mut().unwrap().kill = Some(kill);
            let err = invalid(&s);
            assert!(err.contains("must come after the kill"), "{kill:?}: {err}");
        }
        let mut s = quick("restart");
        s.fault.as_mut().unwrap().kill = Some((4, 1_000));
        assert!(invalid(&s).contains("must rejoin by the last epoch"));
    }

    /// Ten peers leave fewer trace windows than the kill schedule needs.
    #[test]
    fn a_trace_that_ends_before_the_rejoin_is_rejected() {
        for name in ["restart", "all"] {
            let s = Scenario::named(name, Some(10)).unwrap();
            let err = invalid(&s);
            assert!(
                err.contains("must rejoin by the last epoch"),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn churn_counters_add_up_and_sweeps_stay_linear() {
        let s = quick("churn");
        let (r, fed) = checked(&s, 11);
        let (c, peers) = (r.counters, s.churn.peers as u64 * s.churn.cycles as u64);
        // Every peer joins and departs once per cycle. Join events split
        // into fresh joins and renewals (cycle 2 rejoins peers whose lease
        // survived).
        assert_eq!(c.events, 2 * peers);
        assert_eq!(
            c.joins + c.renewals,
            peers,
            "every join opens or renews a lease"
        );
        assert!(c.renewals > 0, "cycle 2 must drive the renewal path");
        assert!(c.heartbeats > 0, "live peers must heartbeat");
        assert!(c.expired > 0, "silent failures must be expired by leases");
        assert!(r.peak_population > 0);
        assert_eq!(fed.peer_count(), r.final_population);
    }

    #[test]
    fn per_event_reference_agrees_with_batched() {
        let s = Scenario::single_server(quick("churn").churn);
        let (batched, _) = run_replay(&s, 3, false).unwrap();
        let (reference, _) = run_replay(&s, 3, true).unwrap();
        assert_eq!(reference.counters, batched.counters);
        assert_eq!(reference.final_population, batched.final_population);
        assert_eq!(reference.peak_population, batched.peak_population);
    }

    /// README: "sweeping every epoch costs the same total work as sweeping
    /// rarely".
    #[test]
    fn sweep_cost_does_not_depend_on_the_sweep_cadence() {
        for seed in [42, 7] {
            let entries: Vec<u64> = [1, 4, 16]
                .into_iter()
                .map(|expire_every| {
                    let mut s = Scenario::named("churn", Some(1_000)).unwrap();
                    s.churn.expire_every = expire_every;
                    checked(&s, seed).0.sweep_entries
                })
                .collect();
            // Seeds 42, 7, 1, 2 and 3, at 10³ and at 10⁵ peers, give the
            // same count at all three cadences (4 149 for seed 42 at 10³,
            // 303 715 at 10⁵): every epoch bucket is swept once, whenever
            // the sweep comes. The tolerance is therefore zero.
            assert!(
                entries.iter().all(|&e| e == entries[0]),
                "seed {seed}: sweep entries {entries:?} at expire_every 1/4/16"
            );
        }
    }

    #[test]
    fn federation_conserves_population_and_sweeps_every_tombstone() {
        let s = quick("federation");
        let (r, fed) = checked(&s, 11);
        let c = r.counters;
        let trace_events = s.trace(11).events.len() as u64;
        assert_eq!(c.events, trace_events * s.churn.cycles as u64);
        assert!(
            c.moves > 0 && c.cross_region_moves > 0,
            "moves must cross regions"
        );
        assert!(c.renewals + c.comebacks > 0, "cycle 2 rejoins");
        assert!(c.heartbeats > 0 && c.expired > 0);
        assert!(c.moved_swept > 0, "some grace records must age out");
        assert_eq!(fed.tombstone_count(), 0);
        assert_eq!(r.final_per_region.iter().sum::<usize>(), r.final_population);
        // With no victim, every move and comeback is a front-door handover.
        let stats = fed.stats();
        assert_eq!(
            stats.handovers,
            c.moves + c.comebacks,
            "front-door handovers"
        );
        assert_eq!(
            stats.cross_region_handovers,
            c.cross_region_moves + c.comebacks,
            "cross-region handovers"
        );
    }

    #[test]
    fn adaptive_leases_hold_the_same_invariants() {
        let mut s = quick("federation");
        s.churn.adaptive = Some(AdaptiveLeaseConfig::default());
        assert!(checked(&s, 7).0.counters.expired > 0);
    }

    #[test]
    fn limited_fanout_still_conserves() {
        let mut s = quick("federation");
        s.fanout = Some(1);
        checked(&s, 5);
    }

    #[test]
    fn restart_survives_kill_and_rejoin_with_zero_drift() {
        let (r, _) = checked(&quick("restart"), 17);
        let c = r.counters;
        assert!(r.killed);
        assert_eq!(r.recovered_drift, 0);
        assert!(c.fallback_queries > 0 && c.fallback_answered == c.fallback_queries);
        // The trace must give the victim each kind of write a kill can
        // cut: joins (dropped while down), forwards off it, re-paths in it.
        assert!(
            c.dropped_joins > 0,
            "the down window must drop victim joins"
        );
        assert!(
            c.victim_forwards > 0,
            "moves off the victim plant tombstones"
        );
        assert!(c.victim_repaths > 0, "moves within the victim re-path");
        assert!(r.snapshots_written >= 1);
        assert!(r.recovery_journal_records > 0);
    }

    #[test]
    fn writer_ab_sides_conserve_without_a_kill() {
        let durable = quick("writer-ab");
        let plain = Scenario {
            fault: None,
            ..durable.clone()
        };
        for s in [durable, plain] {
            let (r, _) = checked(&s, 17);
            assert!(!r.killed);
            assert_eq!(r.counters.dropped_joins, 0);
        }
    }

    #[test]
    fn subs_have_full_parity() {
        let (r, _) = checked(&quick("subs"), 7);
        let sr = r.subs.expect("watchers");
        assert_eq!(sr.mismatches, 0, "delta stream diverged from re-polls");
        assert!(sr.deltas_verified > 0, "no deltas to check");
        assert_eq!(sr.stats.active, 40, "a watcher was dropped");
    }

    /// Windows a rate limit or more wide leave every delta one window's
    /// wait: the line names the bound and prints no CDF.
    #[test]
    fn a_window_bound_latency_prints_no_cdf() {
        let report = |drain_every_ms| SubsReport {
            deltas_verified: 1,
            mismatches: 0,
            stats: SubscriptionStats::default(),
            latency_ms: vec![2_927, 2_927, 2_927, 2_927],
            drain_every_ms,
            rate_limit_ms: 2_000,
        };
        let wide = report(2_000);
        assert!(wide.window_bound());
        assert_eq!(
            wide.latency_line(),
            "latency window-bound: a drain every 2000 ms against a 2000 ms rate limit \
             (max 2927 ms)"
        );
        let narrow = report(1_999);
        assert!(!narrow.window_bound());
        assert!(narrow
            .latency_line()
            .contains("p50,p90,p99,max [2927, 2927, 2927, 2927]"));
    }

    #[test]
    fn storm_coalesces_with_bounded_queue() {
        // A storm's one delta per watcher compares the trace's end with
        // its start. At the quick 100 storm peers, seed 7 ends with only
        // the watchers left and every answer as it began; twice that
        // leaves churners alive at the end.
        let mut s = quick("subs");
        s.churn.peers *= 2;
        let storm = s.storm().expect("subs have a storm twin");
        let (r, _) = checked(&storm, 7);
        let sr = r.subs.expect("watchers");
        assert!(
            sr.stats.coalesced > 0,
            "a storm inside one window must coalesce"
        );
        assert!(sr.stats.peak_queue_depth <= sr.stats.active);
    }

    /// Mobility, a victim killed and rejoined through its writer, and
    /// watchers on a live region, in one run: every check applies.
    #[test]
    fn all_scenario_passes_every_check() {
        let s = quick("all");
        for (s, storm) in [(s.clone(), false), (s.storm().expect("storm twin"), true)] {
            let (r, fed) = checked(&s, 23);
            let c = r.counters;
            assert!(r.killed);
            // 64 windows wider than the rate limit: the latency is the
            // window's.
            let sr = r.subs.expect("watchers");
            assert_eq!(sr.window_bound(), !storm, "{}", sr.latency_line());
            // Moves between live regions go through the front door.
            let handovers = fed.stats().handovers;
            assert!(handovers > 0 && handovers < c.moves + c.comebacks);
            assert!(c.cross_region_moves > 0 && c.moved_swept > 0);
            assert!(c.dropped_joins > 0 && c.victim_forwards > 0 && c.victim_repaths > 0);
        }
    }
}
