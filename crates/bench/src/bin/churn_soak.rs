//! Churn soak: replay a W3 join/leave/fail trace at 10⁵–10⁶ peers through
//! the directory's batched lease path — slab-backed lease arenas, renewal
//! piggybacked on `register_batch`, `leave_batch` departures and
//! epoch-bucketed `expire_stale` sweeps — and report sustained
//! events/sec.
//!
//! This is the CI guard for the million-peer churn refactor: if lease
//! bookkeeping regresses to per-peer full-map behaviour (quadratic
//! sweeps, probe-chain rot in the open-addressed peer table, arena
//! growth without slot reuse), the wall-clock budget blows and CI goes
//! red. Peers use synthetic tree-consistent paths (tracing at these
//! populations would take hours; see `SyntheticJoins`) — the directory
//! under test is exactly the production one. Run in release mode.
//!
//! ```sh
//! cargo run --release -p nearpeer-bench --bin churn_soak -- \
//!     [--peers N] [--events N] [--expire-every K] [--sweep-expiry] \
//!     [--adaptive] [--budget-secs S] [--seed S]
//! ```

use nearpeer_bench::experiments::churn::{run_soak, ChurnSoakConfig, ChurnSoakResult};
use nearpeer_core::AdaptiveLeaseConfig;
use std::time::Instant;

struct Args {
    peers: usize,
    events: u64,
    expire_every: u64,
    sweep_expiry: bool,
    adaptive: bool,
    budget_secs: u64,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        peers: 100_000,
        events: 200_000,
        expire_every: 4,
        sweep_expiry: false,
        adaptive: false,
        budget_secs: 0,
        seed: 42,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--peers" => {
                let v = value("--peers")?;
                out.peers = v.parse().map_err(|_| format!("bad --peers value {v}"))?;
            }
            "--events" => {
                let v = value("--events")?;
                out.events = v.parse().map_err(|_| format!("bad --events value {v}"))?;
            }
            "--expire-every" => {
                let v = value("--expire-every")?;
                out.expire_every = v
                    .parse()
                    .map_err(|_| format!("bad --expire-every value {v}"))?;
                if out.expire_every == 0 {
                    return Err("--expire-every must be >= 1".into());
                }
            }
            "--sweep-expiry" => out.sweep_expiry = true,
            "--adaptive" => out.adaptive = true,
            "--budget-secs" => {
                let v = value("--budget-secs")?;
                out.budget_secs = v
                    .parse()
                    .map_err(|_| format!("bad --budget-secs value {v}"))?;
            }
            "--seed" => {
                let v = value("--seed")?;
                out.seed = v.parse().map_err(|_| format!("bad --seed value {v}"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: [--peers N] [--events N] [--expire-every K] [--sweep-expiry] \
                            [--adaptive] [--budget-secs S] [--seed S]"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn config_for(args: &Args) -> ChurnSoakConfig {
    // One trace cycle is 2·peers events (every peer joins once and
    // departs once); `--events` asks for enough cycles to cover it.
    let per_cycle = (args.peers as u64) * 2;
    let cycles = (args.events.div_ceil(per_cycle)).max(1) as usize;
    let mut cfg = ChurnSoakConfig {
        peers: args.peers,
        cycles,
        // Keep the arrival horizon ~100s regardless of population so the
        // steady-state share of live peers is scale-independent.
        arrival_rate: (args.peers as f64 / 100.0).max(10.0),
        expire_every: args.expire_every,
        ..ChurnSoakConfig::smoke()
    };
    if args.adaptive {
        // The floor must outlast the heartbeat stride, or live peers
        // expire between renewals (see AdaptiveLeaseConfig::min_age).
        cfg.adaptive = Some(AdaptiveLeaseConfig {
            ewma_shift: 1,
            margin: 1,
            min_age: cfg.heartbeat_every as u32 + 1,
            max_age: cfg.max_age as u32,
            max_tracked: 65_536,
        });
    }
    cfg
}

fn print_result(r: &ChurnSoakResult) {
    let c = r.counters;
    println!(
        "churn_soak: {} peers x {} cycle(s), expire every {} epochs: \
         {} events in {:.2}s = {:.0} events/sec",
        r.config.peers,
        r.config.cycles,
        r.config.expire_every,
        c.events,
        r.elapsed_secs,
        r.events_per_sec,
    );
    println!(
        "  joins {} / renewals {} / heartbeats {} / leaves {} / fails {} / expired {}",
        c.joins, c.renewals, c.heartbeats, c.leaves, c.fails, c.expired
    );
    println!(
        "  peak population {} / final {} / epochs {} / sweep cost {} entries over {} buckets",
        r.peak_population, r.final_population, c.epochs, r.sweep_entries, r.sweep_buckets
    );
}

fn check(r: &ChurnSoakResult) -> Result<(), String> {
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
    if r.indexed_routers != r.live_path_routers {
        return Err(format!(
            "router leak: {} indexed vs {} on live paths",
            r.indexed_routers, r.live_path_routers
        ));
    }
    // Linearity guard: the epoch-bucketed sweep must touch only noted
    // lease activity (opens + renewals, re-notes bounded by sweeps) — a
    // regression to full-table scans shows up here long before the
    // wall-clock budget.
    let noted = c.joins + c.renewals + c.heartbeats;
    if r.sweep_entries > 2 * noted {
        return Err(format!(
            "expiry sweeps touched {} entries for {} noted renewals — not linear",
            r.sweep_entries, noted
        ));
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let base = config_for(&args);

    let runs: Vec<ChurnSoakConfig> = if args.sweep_expiry {
        [1u64, 4, 16]
            .iter()
            .map(|&e| ChurnSoakConfig {
                expire_every: e,
                ..base.clone()
            })
            .collect()
    } else {
        vec![base]
    };

    for cfg in &runs {
        let result = run_soak(cfg, args.seed);
        print_result(&result);
        if let Err(msg) = check(&result) {
            eprintln!("churn_soak: FAILED: {msg}");
            std::process::exit(1);
        }
    }

    let total = t0.elapsed();
    if args.budget_secs > 0 && total.as_secs() > args.budget_secs {
        eprintln!(
            "churn_soak: took {:.2?}, budget {}s — the batched lease path regressed",
            total, args.budget_secs
        );
        std::process::exit(1);
    }
    println!("churn_soak: OK ({:.2?} total)", total);
}
