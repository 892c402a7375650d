//! Subscription soak: sustain standing "watch my k nearest" queries over
//! a replayed churn trace, verifying every pushed delta against a
//! re-polled answer, and write `target/experiments/subs/result.json`.
//!
//! Two phases run back to back on the in-process [`ManagementServer`]:
//! the **soak** (drain every window, parity-check every delta, measure
//! events/sec and the delta-latency CDF) and a **storm** (no drains until
//! the replay ends, so the whole trace must coalesce into at most one
//! pending delta per subscriber — pinning the coalescing counters and
//! the queue-depth bound). Exit codes gate CI: parity mismatches, a
//! dropped subscriber, missing coalescing evidence, or a throughput
//! floor violation all fail the run.
//!
//! ```sh
//! cargo run --release -p nearpeer-bench --bin sub_soak -- \
//!     [--subs N] [--churners N] [--k K] [--min-interval-ms MS] \
//!     [--min-events-per-sec N] [--budget-secs S] [--seed S] [--quick]
//! ```
//!
//! [`ManagementServer`]: nearpeer_core::ManagementServer

use nearpeer_bench::experiments::subs::{run_sub_soak, SubSoakConfig, SubSoakResult};
use nearpeer_bench::{subs_stats_line, ExperimentWriter};
use serde::Serialize;
use std::time::Instant;

struct Args {
    subs: usize,
    churners: usize,
    k: usize,
    min_interval_ms: u64,
    min_events_per_sec: f64,
    budget_secs: u64,
    seed: u64,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        subs: 10_000,
        churners: 40_000,
        k: 5,
        min_interval_ms: 2_000,
        min_events_per_sec: 50_000.0,
        budget_secs: 0,
        seed: 42,
        quick: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--subs" => {
                let v = value("--subs")?;
                out.subs = v.parse().map_err(|_| format!("bad --subs value {v}"))?;
            }
            "--churners" => {
                let v = value("--churners")?;
                out.churners = v.parse().map_err(|_| format!("bad --churners value {v}"))?;
            }
            "--k" => {
                let v = value("--k")?;
                out.k = v.parse().map_err(|_| format!("bad --k value {v}"))?;
            }
            "--min-interval-ms" => {
                let v = value("--min-interval-ms")?;
                out.min_interval_ms = v
                    .parse()
                    .map_err(|_| format!("bad --min-interval-ms value {v}"))?;
            }
            "--min-events-per-sec" => {
                let v = value("--min-events-per-sec")?;
                out.min_events_per_sec = v
                    .parse()
                    .map_err(|_| format!("bad --min-events-per-sec value {v}"))?;
            }
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
            "--quick" => out.quick = true,
            "--help" | "-h" => {
                return Err(
                    "usage: [--subs N] [--churners N] [--k K] [--min-interval-ms MS] \
                     [--min-events-per-sec N] [--budget-secs S] [--seed S] [--quick]"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn config_for(args: &Args) -> SubSoakConfig {
    if args.quick {
        return SubSoakConfig::quick();
    }
    SubSoakConfig {
        subscribers: args.subs,
        churners: args.churners,
        k: args.k,
        min_interval_ms: args.min_interval_ms,
        ..SubSoakConfig::smoke()
    }
}

fn print_result(label: &str, r: &SubSoakResult) {
    println!(
        "sub_soak[{label}]: {} subs x {} churners: {} events in {:.2}s = {:.0} events/sec \
         (+{:.2}s verifying {} deltas, {} mismatches)",
        r.config.subscribers,
        r.config.churners,
        r.events,
        r.elapsed_secs,
        r.events_per_sec,
        r.verify_secs,
        r.deltas_verified,
        r.mismatches,
    );
    println!("  {}", subs_stats_line(&r.stats));
    println!(
        "  coalescing x{:.2}, delta latency p50 {}ms / p90 {}ms / p99 {}ms / max {}ms \
         over {} deltas",
        r.coalescing_ratio,
        r.latency.p50_ms,
        r.latency.p90_ms,
        r.latency.p99_ms,
        r.latency.max_ms,
        r.latency.count,
    );
}

fn check(r: &SubSoakResult, min_events_per_sec: f64) -> Result<(), String> {
    if r.mismatches != 0 {
        return Err(format!(
            "{} deltas diverged from the re-polled answers",
            r.mismatches
        ));
    }
    if r.active_subs != r.config.subscribers as u64 {
        return Err(format!(
            "{} of {} subscriptions survived the soak",
            r.active_subs, r.config.subscribers
        ));
    }
    if r.deltas_verified == 0 {
        return Err("the soak produced no deltas to verify".into());
    }
    if min_events_per_sec > 0.0 && r.events_per_sec < min_events_per_sec {
        return Err(format!(
            "{:.0} events/sec under the {:.0} floor",
            r.events_per_sec, min_events_per_sec
        ));
    }
    Ok(())
}

fn check_storm(r: &SubSoakResult) -> Result<(), String> {
    if r.mismatches != 0 {
        return Err(format!("{} storm deltas diverged", r.mismatches));
    }
    if r.stats.coalesced == 0 {
        return Err("a whole-trace storm coalesced nothing".into());
    }
    if r.stats.peak_queue_depth > r.stats.active {
        return Err(format!(
            "queue depth peaked at {} with only {} subscriptions",
            r.stats.peak_queue_depth, r.stats.active
        ));
    }
    Ok(())
}

/// The `result.json` shape: both phases side by side.
#[derive(Serialize)]
struct Manifest {
    soak: SubSoakResult,
    storm: SubSoakResult,
    total_secs: f64,
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
    let cfg = config_for(&args);
    let soak = run_sub_soak(&cfg, args.seed);
    print_result("soak", &soak);
    if let Err(msg) = check(
        &soak,
        if args.quick {
            0.0
        } else {
            args.min_events_per_sec
        },
    ) {
        eprintln!("sub_soak: FAILED: {msg}");
        std::process::exit(1);
    }
    // The storm rides a smaller trace: its point is the coalescing
    // counters, not throughput.
    let storm_cfg = SubSoakConfig {
        storm: true,
        churners: cfg.churners / 4,
        subscribers: cfg.subscribers / 4,
        ..cfg.clone()
    };
    let storm = run_sub_soak(&storm_cfg, args.seed);
    print_result("storm", &storm);
    if let Err(msg) = check_storm(&storm) {
        eprintln!("sub_soak: FAILED: {msg}");
        std::process::exit(1);
    }
    let total = t0.elapsed();
    match ExperimentWriter::new("subs") {
        Ok(writer) => {
            let manifest = Manifest {
                soak,
                storm,
                total_secs: total.as_secs_f64(),
            };
            match writer.write_json("result.json", &manifest) {
                Ok(path) => println!("sub_soak: wrote {}", path.display()),
                Err(e) => eprintln!("sub_soak: cannot write result.json: {e}"),
            }
        }
        Err(e) => eprintln!("sub_soak: cannot open output dir: {e}"),
    }
    if args.budget_secs > 0 && total.as_secs() > args.budget_secs {
        eprintln!(
            "sub_soak: took {:.2?}, budget {}s — the subscription plane regressed",
            total, args.budget_secs
        );
        std::process::exit(1);
    }
    println!("sub_soak: OK ({:.2?} total)", total);
}
