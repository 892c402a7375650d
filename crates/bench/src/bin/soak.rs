//! The soak binary: runs one named scenario of the soak harness
//! ([`nearpeer_bench::soak`]), checks every invariant that applies, and
//! writes `target/experiments/<scenario>/result.json`. Run in release
//! mode.
//!
//! ```sh
//! cargo run --release -p nearpeer-bench --bin soak -- \
//!     --scenario churn|federation|restart|subs|all|writer-ab \
//!     [--peers N] [--seed S] [--budget-secs S]
//! ```
//!
//! A scenario with a kill first runs the recovery fault matrix; one with
//! watchers also runs its storm twin. `writer-ab` runs the restart load
//! with no kill, writer on and off in three alternating pairs, and fails
//! when the median writer-on throughput is under 90 % of writer-off.
//! Exit 2 on a bad flag or scenario, 1 on a failed check or budget.

use nearpeer_bench::cli::SoakArgs;
use nearpeer_bench::experiments::restart::{run_fault_matrix, FaultCaseResult};
use nearpeer_bench::soak::{self, Report, Scenario, SoakError};
use nearpeer_bench::{subs_stats_line, ExperimentWriter};
use serde::Serialize;
use std::time::Instant;

/// Writer-on throughput floor of the writer A/B, as a share of writer-off.
const WRITER_AB_FLOOR: f64 = 0.9;
/// Writer-on/writer-off pairs the A/B takes medians over.
const AB_PAIRS: usize = 3;

/// The `result.json` shape.
#[derive(Serialize)]
struct Manifest {
    scenario: String,
    seed: u64,
    fault_matrix: Vec<FaultCaseResult>,
    runs: Vec<Report>,
    total_secs: f64,
}

fn fail(msg: String) -> ! {
    eprintln!("soak: FAILED: {msg}");
    std::process::exit(1);
}

/// A scenario the driver cannot run as specified.
fn refuse(msg: String) -> ! {
    eprintln!("soak: {msg}");
    std::process::exit(2);
}

fn print(r: &Report) {
    let c = serde_json::to_string(&r.counters).expect("plain counters");
    println!(
        "soak[{}]: {} events in {:.2}s = {:.0} events/sec\n  {c}\n  peak {} / final {:?} / \
         tombstones {} / sweep {} entries / drift {} / snapshots {}",
        r.scenario.name,
        r.counters.events,
        r.elapsed_secs,
        r.events_per_sec,
        r.peak_population,
        r.final_per_region,
        r.final_tombstones,
        r.sweep_entries,
        r.recovered_drift,
        r.snapshots_written,
    );
    if let Some(sr) = &r.subs {
        println!(
            "  {} deltas verified, {} mismatches / {} / {}",
            sr.deltas_verified,
            sr.mismatches,
            subs_stats_line(&sr.stats),
            sr.latency_line()
        );
    }
}

fn main() {
    let args = SoakArgs::parse();
    let t0 = Instant::now();
    let primary = Scenario::named(&args.scenario, args.peers)
        .and_then(|s| s.validate().map(|()| s))
        .unwrap_or_else(|msg| refuse(msg));
    let ab = args.scenario == "writer-ab";
    let mut runs: Vec<Scenario> = [Some(primary.clone()), primary.storm()]
        .into_iter()
        .flatten()
        .collect();
    if ab {
        // Alternating pairs: the shared host's drift hits both sides.
        let off = Scenario {
            name: "writer-off".into(),
            fault: None,
            ..primary.clone()
        };
        runs = runs
            .into_iter()
            .chain([off])
            .cycle()
            .take(2 * AB_PAIRS)
            .collect();
    }
    let mut manifest = Manifest {
        scenario: args.scenario.clone(),
        seed: args.seed,
        fault_matrix: Vec::new(),
        runs: Vec::new(),
        total_secs: 0.0,
    };
    if primary.fault.as_ref().is_some_and(|f| f.kill.is_some()) {
        manifest.fault_matrix = run_fault_matrix();
        for case in &manifest.fault_matrix {
            let verdict = if case.passed { "ok" } else { "FAILED" };
            println!(
                "soak[faults]: {:<18} {verdict} — {}",
                case.name, case.detail
            );
        }
        if manifest.fault_matrix.iter().any(|c| !c.passed) {
            fail("fault matrix".into());
        }
    }
    for s in &runs {
        let report = soak::run(s, args.seed).unwrap_or_else(|e| match e {
            SoakError::Invalid(msg) => refuse(format!("{}: {msg}", s.name)),
            SoakError::Failed(msg) => fail(format!("{}: {msg}", s.name)),
        });
        print(&report);
        if let Err(msg) = soak::check(&report) {
            fail(format!("{}: {msg}", s.name));
        }
        manifest.runs.push(report);
    }
    if ab {
        let median = |side: usize| {
            let runs = manifest.runs[side..].iter().step_by(2);
            let mut rates: Vec<f64> = runs.map(|r| r.events_per_sec).collect();
            rates.sort_by(f64::total_cmp);
            rates[rates.len() / 2]
        };
        let ratio = median(0) / median(1).max(1e-9);
        println!(
            "soak[writer-ab]: median writer on {:.0} vs off {:.0} events/sec = {:.1}%",
            median(0),
            median(1),
            ratio * 100.0
        );
        if ratio < WRITER_AB_FLOOR {
            fail(format!(
                "the writer costs {:.1}% > 10% of throughput",
                (1.0 - ratio) * 100.0
            ));
        }
    }
    let total = t0.elapsed();
    manifest.total_secs = total.as_secs_f64();
    let written =
        ExperimentWriter::new(&args.scenario).and_then(|w| w.write_json("result.json", &manifest));
    match written {
        Ok(path) => println!("soak: wrote {}", path.display()),
        Err(e) => eprintln!("soak: cannot write result.json: {e}"),
    }
    if args.budget_secs > 0 && total.as_secs() > args.budget_secs {
        fail(format!("took {total:.2?}, budget {}s", args.budget_secs));
    }
    println!("soak: OK ({total:.2?} total)");
}
