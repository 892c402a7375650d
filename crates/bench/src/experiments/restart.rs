//! Crash-restart soak: churn a multi-region federation while one
//! region's every operation streams through the background
//! [`DurabilityWriter`] (incremental journal + rate-limited snapshot
//! offers), kill that region mid-load, and verify the durability
//! contract end to end:
//!
//! * the recovered directory (snapshot + journal replay) matches the
//!   dead server **exactly** — population, paths, epoch, tombstones and
//!   every conservation counter, with any drift counted and gated to 0;
//! * while the region is down the federation keeps answering queries
//!   homed there by fanning out over the live regions;
//! * after [`nearpeer_core::Federation::rejoin_region`] the region
//!   catches up to the
//!   cluster epoch and resumes serving, and the run still conserves
//!   population (every join accounted for by a leave, an expiry, or the
//!   final population) with zero leaked tombstones after the drain.
//!
//! A separate fault matrix ([`run_fault_matrix`]) drives recovery
//! through every [`FaultPlan`] arm — truncated and bit-rotted
//! snapshots, torn and corrupted journal tails, a writer killed between
//! batches — asserting each case recovers to the last consistent point
//! or fails closed with a typed error.

use crate::federation::synthetic_federation;
use crate::swarm::SyntheticJoins;
use nearpeer_core::federation::{FederationConfig, RegionId};
use nearpeer_core::{
    CoreError, DurabilityWriter, DurableBytes, FaultPlan, JournalOp, LandmarkId, ManagementServer,
    MemoryMedium, PeerId, ServerConfig, WriterConfig, WriterStats,
};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Restart soak parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RestartSoakConfig {
    /// Total fresh leases over the run (ids join once each).
    pub peers: usize,
    /// Regions (landmarks partition round-robin).
    pub regions: usize,
    /// Landmarks across the federation.
    pub n_landmarks: usize,
    /// Churn epochs to drive (joins spread evenly across them).
    pub epochs: u64,
    /// Lease length (and tombstone retention), epochs.
    pub max_age: u64,
    /// Heartbeat stride (must be < `max_age`).
    pub heartbeat_every: u64,
    /// Expiry sweep cadence, epochs.
    pub expire_every: u64,
    /// Percent of departures that leave gracefully (the rest go silent
    /// and expire).
    pub graceful_pct: u64,
    /// Sessions last `2 + hash % session_spread` epochs.
    pub session_spread: u64,
    /// The region whose durability pipeline is under test.
    pub victim: u32,
    /// Epoch at which the victim is killed (>= `epochs` disables the
    /// kill — the throughput-baseline shape).
    pub kill_at_epoch: u64,
    /// Epochs the victim stays down before rejoining.
    pub down_epochs: u64,
    /// Snapshot offer cadence, epochs.
    pub snapshot_every_epochs: u64,
    /// Writer-side snapshot rate limit, milliseconds (offers inside the
    /// window are skipped, not queued).
    pub min_snapshot_interval_ms: u64,
    /// Within-region re-path handovers per epoch on the victim.
    pub handovers_per_epoch: usize,
    /// Epochs between small cross-region forwarding moves off the
    /// victim (0 disables; these plant the tombstones the drain gate
    /// must retire).
    pub forward_every: u64,
    /// Queries homed in the victim region issued per down epoch (the
    /// fan-out fallback probe).
    pub queries_per_down_epoch: usize,
    /// Stream the victim's ops through a [`DurabilityWriter`]. `false`
    /// is the throughput baseline and requires the kill disabled.
    pub durability: bool,
}

impl RestartSoakConfig {
    /// The CI smoke shape: 100k leases over 4 regions, victim killed
    /// mid-load and rejoined 8 epochs later.
    pub fn smoke() -> Self {
        Self {
            peers: 100_000,
            regions: 4,
            n_landmarks: 8,
            epochs: 64,
            max_age: 8,
            heartbeat_every: 4,
            expire_every: 4,
            graceful_pct: 60,
            session_spread: 10,
            victim: 1,
            kill_at_epoch: 24,
            down_epochs: 8,
            snapshot_every_epochs: 4,
            min_snapshot_interval_ms: 200,
            handovers_per_epoch: 64,
            forward_every: 2,
            queries_per_down_epoch: 8,
            durability: true,
        }
    }

    /// A reduced shape for unit tests.
    pub fn quick() -> Self {
        Self {
            peers: 4_000,
            regions: 3,
            n_landmarks: 6,
            epochs: 32,
            max_age: 6,
            heartbeat_every: 3,
            expire_every: 3,
            graceful_pct: 50,
            session_spread: 8,
            victim: 1,
            kill_at_epoch: 10,
            down_epochs: 5,
            snapshot_every_epochs: 3,
            min_snapshot_interval_ms: 0,
            handovers_per_epoch: 8,
            forward_every: 2,
            queries_per_down_epoch: 4,
            durability: true,
        }
    }
}

/// Event dispositions accumulated over a restart soak.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RestartSoakCounters {
    /// Fresh registrations applied.
    pub joins: u64,
    /// Graceful departures applied.
    pub leaves: u64,
    /// Leases expired by sweeps (all regions).
    pub expired: u64,
    /// Heartbeat renewals applied.
    pub heartbeats: u64,
    /// Within-region re-path handovers on the victim.
    pub handovers: u64,
    /// Cross-region forwarding moves off the victim.
    pub forward_moves: u64,
    /// Join items destined for the victim while it was down (clients
    /// fail over; these ids never enter the run).
    pub dropped_joins: u64,
    /// Graceful leaves destined for the down victim (those peers expire
    /// instead).
    pub dropped_leaves: u64,
    /// Heartbeats destined for the down victim.
    pub dropped_heartbeats: u64,
    /// Queries homed in the victim issued while it was down.
    pub fallback_queries: u64,
    /// The subset answered non-empty by fan-out over live regions.
    pub fallback_answered: u64,
    /// All applied operation items.
    pub events: u64,
    /// Epochs driven (excluding the drain).
    pub epochs_run: u64,
}

/// Restart soak output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RestartSoakResult {
    /// Configuration used.
    pub config: RestartSoakConfig,
    /// Event dispositions.
    pub counters: RestartSoakCounters,
    /// Largest registered population observed at an epoch boundary.
    pub peak_population: usize,
    /// Registered peers left after the replay + drain.
    pub final_population: usize,
    /// Tombstones held after the drain (must be 0).
    pub final_tombstones: usize,
    /// Whether the kill/rejoin cycle ran.
    pub killed: bool,
    /// Observable mismatches between the dead server and its recovery
    /// (population, paths, epoch, tombstones, each conservation
    /// counter). The headline gate: must be 0.
    pub recovered_drift: u64,
    /// Journal records replayed at recovery.
    pub recovery_journal_records: u64,
    /// Journal bytes consumed at recovery.
    pub recovery_journal_bytes: usize,
    /// Whether recovery hit a torn journal tail (must be false for a
    /// cleanly flushed kill).
    pub recovery_torn_tail: bool,
    /// Snapshots the writer installed (across both writer generations).
    pub snapshots_written: u64,
    /// Snapshot offers dropped by rate limiting.
    pub snapshots_skipped: u64,
    /// Journal ops accepted by the writer.
    pub writer_records: u64,
    /// Wall-clock seconds for the replay (including the drain).
    pub elapsed_secs: f64,
    /// Applied operation items per second.
    pub events_per_sec: f64,
}

/// Splitmix64 — the soak's only entropy, a pure function of its inputs.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

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

struct Durability {
    writer: DurabilityWriter,
    store: Arc<Mutex<DurableBytes>>,
}

impl Durability {
    fn spawn(cfg: &RestartSoakConfig) -> Self {
        let medium = MemoryMedium::new();
        let store = medium.handle();
        let writer = DurabilityWriter::spawn(
            medium,
            WriterConfig {
                min_snapshot_interval: Duration::from_millis(cfg.min_snapshot_interval_ms),
                ..WriterConfig::default()
            },
        );
        Durability { writer, store }
    }
}

/// Runs the restart soak. Harness-level failures (a rejoin refused, no
/// snapshot installed before the kill) surface as `Err`; the pass/fail
/// gates live in [`check_restart_soak`].
pub fn run_restart_soak(cfg: &RestartSoakConfig, seed: u64) -> Result<RestartSoakResult, String> {
    assert!(cfg.expire_every >= 1 && cfg.heartbeat_every >= 1);
    assert!(
        cfg.heartbeat_every < cfg.max_age,
        "live peers must heartbeat within their lease"
    );
    let kill_enabled = cfg.kill_at_epoch < cfg.epochs;
    if kill_enabled && !cfg.durability {
        return Err("the kill/rejoin cycle needs durability on".into());
    }
    if kill_enabled {
        let rejoin_at = cfg.kill_at_epoch + cfg.down_epochs;
        if rejoin_at >= cfg.epochs {
            return Err("the victim must rejoin before the trace ends".into());
        }
        if cfg.regions < 2 {
            return Err("a kill needs live regions to serve around it".into());
        }
    }
    let gen = SyntheticJoins::new(cfg.n_landmarks);
    let mut fed = synthetic_federation(
        &gen,
        cfg.regions,
        FederationConfig {
            fanout: None,
            server: ServerConfig {
                neighbor_count: 5,
                cross_landmark_fallback: true,
                adaptive_leases: None,
            },
        },
    )?;
    let victim = RegionId(cfg.victim);
    let rejoin_at = cfg.kill_at_epoch.saturating_add(cfg.down_epochs);

    // Stats of writer generations already closed (a restart spawns a
    // fresh generation; the result reports the accumulated totals).
    let mut closed_stats = WriterStats::default();
    let mut durability = cfg.durability.then(|| Durability::spawn(cfg));
    if let Some(d) = &durability {
        d.writer
            .offer_snapshot(fed.snapshot_region(victim).map_err(|e| e.to_string())?);
    }
    // Durable bytes captured at the kill; reused by the rejoin.
    let mut captured: Option<(Vec<u8>, Vec<u8>)> = None;

    // Per-id trace state: 0 = not joined, 1 = live, 2 = departed.
    let mut state = vec![0u8; cfg.peers];
    let mut current = vec![0u8; cfg.peers];
    // Leave schedule: (id, graceful) per epoch.
    let schedule_len = (cfg.epochs + cfg.session_spread + 4) as usize;
    let mut schedule: Vec<Vec<(u64, bool)>> = vec![Vec::new(); schedule_len];
    // Heartbeat stride groups (grow with joins; dead entries skipped).
    let mut groups: Vec<Vec<u64>> = vec![Vec::new(); cfg.heartbeat_every as usize];
    let joins_per_epoch = (cfg.peers as u64).div_ceil(cfg.epochs.max(1)) as usize;
    let mut next_id = 0u64;

    let mut c = RestartSoakCounters::default();
    let mut r = RestartSoakResult {
        config: cfg.clone(),
        counters: c,
        peak_population: 0,
        final_population: 0,
        final_tombstones: 0,
        killed: kill_enabled,
        recovered_drift: 0,
        recovery_journal_records: 0,
        recovery_journal_bytes: 0,
        recovery_torn_tail: false,
        snapshots_written: 0,
        snapshots_skipped: 0,
        writer_records: 0,
        elapsed_secs: 0.0,
        events_per_sec: 0.0,
    };
    let t0 = Instant::now();

    for e in 0..cfg.epochs {
        fed.advance_epoch();
        c.epochs_run += 1;
        let victim_up = !fed.region_down(victim);
        if victim_up {
            if let Some(d) = &durability {
                d.writer.append(JournalOp::AdvanceEpoch);
            }
        }

        // Rejoin: the region comes back from the captured bytes and
        // fast-forwards to the cluster epoch before taking traffic.
        if kill_enabled && e == rejoin_at {
            let (snap, journal) = captured.as_ref().expect("kill ran before rejoin");
            let report = fed
                .rejoin_region(victim, snap, journal)
                .map_err(|err| format!("rejoin refused: {err}"))?;
            r.recovery_journal_records = report.journal_records;
            r.recovery_journal_bytes = report.journal_bytes;
            r.recovery_torn_tail = report.journal_torn_tail;
            // A fresh writer generation picks up where the restart left
            // off: snapshot of the recovered state first, journal after.
            let d = Durability::spawn(cfg);
            d.writer
                .offer_snapshot(fed.snapshot_region(victim).map_err(|e| e.to_string())?);
            durability = Some(d);
        }

        // Joins: this epoch's slice of fresh ids, bucketed by home
        // region. Items homed in a down region are dropped (the client
        // would fail over and retry as a new session).
        let mut joins_by_region: Vec<Vec<(PeerId, nearpeer_core::PeerPath)>> =
            (0..cfg.regions).map(|_| Vec::new()).collect();
        for _ in 0..joins_per_epoch {
            if next_id as usize >= cfg.peers {
                break;
            }
            let id = next_id;
            next_id += 1;
            let home = fed.region_of_landmark(gen.landmark_of(id));
            if fed.region_down(home) {
                c.dropped_joins += 1;
                continue;
            }
            joins_by_region[home.index()].push(gen.join(id));
            state[id as usize] = 1;
            current[id as usize] = home.0 as u8;
            // Hash, don't mod: `id % stride` correlates with the home
            // landmark (`id % n_landmarks`) and would starve whole
            // phases of victim peers.
            groups[(mix(seed, id, 0) % cfg.heartbeat_every) as usize].push(id);
            let depart = e + 2 + mix(seed, id, 1) % cfg.session_spread;
            let graceful = mix(seed, id, 2) % 100 < cfg.graceful_pct;
            schedule[depart as usize].push((id, graceful));
        }
        for (region, batch) in joins_by_region.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let n = batch.len() as u64;
            let op = JournalOp::RegisterBatch(batch);
            if region == victim.index() {
                if let Some(d) = &durability {
                    d.writer.append(op.clone());
                }
            }
            fed.region_mut(RegionId(region as u32))
                .server_mut()
                .apply_journal_op(op);
            c.joins += n;
        }

        // The kill lands here — after the epoch's join load, before its
        // maintenance traffic ("mid-load").
        if kill_enabled && e == cfg.kill_at_epoch {
            let d = durability.take().expect("kill requires durability");
            merge_stats(&mut closed_stats, &d.writer.close());
            let bytes = d.store.lock().unwrap().clone();
            let snap = bytes
                .snapshot
                .ok_or("no snapshot installed before the kill")?;
            let journal = bytes.journal;
            let dead = fed
                .crash_region(victim)
                .map_err(|err| format!("crash refused: {err}"))?;
            let (recovered, _) = ManagementServer::recover(&snap, &journal)
                .map_err(|err| format!("recovery failed: {err}"))?;
            r.recovered_drift = directory_drift(&dead, &recovered);
            captured = Some((snap, journal));
        }

        let victim_up = !fed.region_down(victim);

        // Departures due this epoch.
        let mut leaves_by_region: Vec<Vec<PeerId>> = (0..cfg.regions).map(|_| Vec::new()).collect();
        for &(id, graceful) in &schedule[e as usize] {
            if state[id as usize] != 1 {
                continue;
            }
            state[id as usize] = 2;
            if graceful {
                leaves_by_region[current[id as usize] as usize].push(PeerId(id));
            }
        }
        for (region, batch) in leaves_by_region.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            if fed.region_down(RegionId(region as u32)) {
                c.dropped_leaves += batch.len() as u64;
                continue;
            }
            let op = JournalOp::LeaveBatch(batch.clone());
            if region == victim.index() && victim_up {
                if let Some(d) = &durability {
                    d.writer.append(op.clone());
                }
            }
            let removed = {
                let server = fed.region_mut(RegionId(region as u32)).server_mut();
                let before = server.peer_count();
                server.apply_journal_op(op);
                before - server.peer_count()
            };
            c.leaves += removed as u64;
        }

        // Heartbeats: this epoch's stride group renews in place.
        let mut beats_by_region: Vec<Vec<PeerId>> = (0..cfg.regions).map(|_| Vec::new()).collect();
        let phase = (e % cfg.heartbeat_every) as usize;
        let mut victim_live: Vec<u64> = Vec::new();
        for &id in &groups[phase] {
            if state[id as usize] != 1 {
                continue;
            }
            let region = current[id as usize] as usize;
            if region == victim.index() {
                victim_live.push(id);
            }
            beats_by_region[region].push(PeerId(id));
        }
        for (region, batch) in beats_by_region.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            if fed.region_down(RegionId(region as u32)) {
                c.dropped_heartbeats += batch.len() as u64;
                continue;
            }
            let n = batch.len() as u64;
            let op = JournalOp::RenewBatch(batch);
            if region == victim.index() && victim_up {
                if let Some(d) = &durability {
                    d.writer.append(op.clone());
                }
            }
            fed.region_mut(RegionId(region as u32))
                .server_mut()
                .apply_journal_op(op);
            c.heartbeats += n;
        }

        // Victim maintenance traffic: within-region re-path handovers,
        // plus occasional forwarding moves to a neighbor region (the
        // tombstone-planting path the drain gate exercises).
        if victim_up {
            let globals = fed.region(victim).landmark_globals().to_vec();
            let mut it = victim_live.iter().copied();
            for id in it.by_ref().take(cfg.handovers_per_epoch) {
                let g = globals[((id + e) % globals.len() as u64) as usize];
                let op = JournalOp::Handover {
                    peer: PeerId(id),
                    path: gen.path_to(id, LandmarkId(g)),
                };
                if let Some(d) = &durability {
                    d.writer.append(op.clone());
                }
                fed.region_mut(victim).server_mut().apply_journal_op(op);
                c.handovers += 1;
            }
            if cfg.forward_every > 0 && e % cfg.forward_every == 0 && cfg.regions > 1 {
                for id in it.take(4) {
                    let dest = RegionId(((victim.0 as u64 + 1 + e) % cfg.regions as u64) as u32);
                    if dest == victim || fed.region_down(dest) {
                        continue;
                    }
                    let op = JournalOp::DeregisterForwarding {
                        peer: PeerId(id),
                        to_region: dest.0,
                    };
                    if let Some(d) = &durability {
                        d.writer.append(op.clone());
                    }
                    fed.region_mut(victim).server_mut().apply_journal_op(op);
                    let dest_globals = fed.region(dest).landmark_globals().to_vec();
                    let g = dest_globals[(id % dest_globals.len() as u64) as usize];
                    fed.region_mut(dest)
                        .server_mut()
                        .apply_journal_op(JournalOp::RegisterBatch(vec![
                            gen.join_to(id, LandmarkId(g))
                        ]));
                    current[id as usize] = dest.0 as u8;
                    c.forward_moves += 1;
                }
            }
        }

        // Expiry sweep.
        if (e + 1) % cfg.expire_every == 0 {
            if victim_up {
                if let Some(d) = &durability {
                    d.writer.append(JournalOp::ExpireStale {
                        max_age: cfg.max_age,
                    });
                }
            }
            let sweep = fed.expire_stale(cfg.max_age);
            c.expired += sweep.expired.len() as u64;
        }

        // Snapshot offer (rate-limited writer-side).
        if victim_up && e > 0 && e % cfg.snapshot_every_epochs == 0 {
            if let Some(d) = &durability {
                d.writer
                    .offer_snapshot(fed.snapshot_region(victim).map_err(|err| err.to_string())?);
            }
        }

        // Fan-out fallback probe: queries homed in the down region must
        // still come back non-empty from the live regions.
        if fed.region_down(victim) {
            let globals = fed.region(victim).landmark_globals();
            for q in 0..cfg.queries_per_down_epoch as u64 {
                let g = globals[(q % globals.len() as u64) as usize];
                let path = gen.path_to(e.wrapping_mul(131).wrapping_add(q), LandmarkId(g));
                c.fallback_queries += 1;
                if !fed.closest_to_path(&path, 5, None).is_empty() {
                    c.fallback_answered += 1;
                }
            }
        }

        r.peak_population = r.peak_population.max(fed.peer_count());
    }

    // Drain: nobody renews past the trace; one lease length retires
    // every remaining lease and tombstone.
    for _ in 0..=(cfg.max_age + cfg.expire_every) {
        fed.advance_epoch();
        if let Some(d) = &durability {
            d.writer.append(JournalOp::AdvanceEpoch);
        }
    }
    if let Some(d) = &durability {
        d.writer.append(JournalOp::ExpireStale {
            max_age: cfg.max_age,
        });
    }
    let sweep = fed.expire_stale(cfg.max_age);
    c.expired += sweep.expired.len() as u64;

    if let Some(d) = durability.take() {
        merge_stats(&mut closed_stats, &d.writer.close());
    }
    r.snapshots_written = closed_stats.snapshots_written;
    r.snapshots_skipped = closed_stats.snapshots_skipped;
    r.writer_records = closed_stats.records;
    let elapsed = t0.elapsed().as_secs_f64();
    c.events = c.joins + c.leaves + c.heartbeats + c.handovers + c.forward_moves + c.expired;
    r.counters = c;
    r.final_population = fed.peer_count();
    r.final_tombstones = fed.tombstone_count();
    r.elapsed_secs = elapsed;
    r.events_per_sec = c.events as f64 / elapsed.max(1e-9);
    Ok(r)
}

fn merge_stats(into: &mut WriterStats, from: &WriterStats) {
    into.records += from.records;
    into.batches += from.batches;
    into.snapshots_written += from.snapshots_written;
    into.snapshots_skipped += from.snapshots_skipped;
    into.journal_bytes += from.journal_bytes;
    if into.error.is_none() {
        into.error = from.error.clone();
    }
}

/// The soak's pass/fail gates, shared by the binary and CI.
pub fn check_restart_soak(r: &RestartSoakResult) -> Result<(), String> {
    let c = r.counters;
    if r.recovered_drift != 0 {
        return Err(format!(
            "{} observable mismatches between the dead server and its recovery",
            r.recovered_drift
        ));
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
    if r.killed {
        if r.recovery_torn_tail {
            return Err("torn journal tail after a cleanly flushed kill".into());
        }
        if c.fallback_queries == 0 || c.fallback_answered != c.fallback_queries {
            return Err(format!(
                "fan-out fallback: {} of {} down-region queries answered",
                c.fallback_answered, c.fallback_queries
            ));
        }
    }
    if r.config.durability && r.snapshots_written == 0 {
        return Err("no snapshot was ever installed".into());
    }
    Ok(())
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
    fn quick_soak_survives_kill_and_rejoin_with_zero_drift() {
        let cfg = RestartSoakConfig::quick();
        let result = run_restart_soak(&cfg, 17).expect("soak runs");
        check_restart_soak(&result).expect("gates hold");
        let c = result.counters;
        assert!(result.killed);
        assert_eq!(result.recovered_drift, 0);
        assert!(c.fallback_queries > 0 && c.fallback_answered == c.fallback_queries);
        assert!(
            c.dropped_joins > 0,
            "the down window must drop victim joins"
        );
        assert!(c.forward_moves > 0, "tombstones must be exercised");
        assert!(result.snapshots_written >= 1);
        assert!(result.recovery_journal_records > 0);
    }

    #[test]
    fn baseline_without_durability_conserves_too() {
        let cfg = RestartSoakConfig {
            durability: false,
            kill_at_epoch: u64::MAX,
            ..RestartSoakConfig::quick()
        };
        let result = run_restart_soak(&cfg, 17).expect("soak runs");
        check_restart_soak(&result).expect("gates hold");
        assert!(!result.killed);
        assert_eq!(result.counters.dropped_joins, 0);
    }

    #[test]
    fn fault_matrix_passes_every_case() {
        for case in run_fault_matrix() {
            assert!(case.passed, "{}: {}", case.name, case.detail);
        }
    }
}
