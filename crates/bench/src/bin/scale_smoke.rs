//! Scale smoke test: build a 10k-peer swarm — parallel round-1 tracing
//! through the shared route oracle, then one batched registration —
//! inside a wall-clock budget.
//!
//! This is the CI guard for the scaling refactors: if batched
//! registration or parallel tracing regresses (accidental serialisation,
//! quadratic descent, lost batching), the budget blows and CI goes red. The
//! trace-phase vs register-phase wall-clock split is printed so a regression
//! report says *which* round slowed down, and the oracle's tree accounting
//! is both printed and asserted: tracing must build O(landmarks) trees —
//! `lazy_trees_built == 0` — and the trace phase must fit its own
//! (generous) wall-clock budget. Run it in release mode; the budgets catch
//! order-of-magnitude regressions, not noise. Parallel tracing degrades
//! gracefully to the sequential loop on a single-core runner.
//!
//! ```sh
//! cargo run --release -p nearpeer-bench --bin scale_smoke -- \
//!     [--peers N] [--budget-secs S] [--trace-budget-secs S] [--trace-threads T]
//! ```

use nearpeer_bench::{oracle_stats_line, Swarm, SwarmConfig};
use nearpeer_core::LandmarkId;
use nearpeer_topology::generators::{mapper, MapperConfig};
use std::time::Instant;

struct Args {
    peers: usize,
    budget_secs: u64,
    trace_budget_secs: Option<u64>,
    trace_threads: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        peers: 10_000,
        budget_secs: 120,
        trace_budget_secs: None,
        trace_threads: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--peers" => {
                let v = iter.next().ok_or("--peers needs a value")?;
                out.peers = v.parse().map_err(|_| format!("bad --peers value {v}"))?;
            }
            "--budget-secs" => {
                let v = iter.next().ok_or("--budget-secs needs a value")?;
                out.budget_secs = v
                    .parse()
                    .map_err(|_| format!("bad --budget-secs value {v}"))?;
            }
            "--trace-budget-secs" => {
                let v = iter.next().ok_or("--trace-budget-secs needs a value")?;
                out.trace_budget_secs = Some(
                    v.parse()
                        .map_err(|_| format!("bad --trace-budget-secs value {v}"))?,
                );
            }
            "--trace-threads" => {
                let v = iter.next().ok_or("--trace-threads needs a value")?;
                let t: usize = v
                    .parse()
                    .map_err(|_| format!("bad --trace-threads value {v}"))?;
                if t == 0 {
                    return Err("--trace-threads must be >= 1".into());
                }
                out.trace_threads = Some(t);
            }
            "--help" | "-h" => return Err(
                "usage: [--peers N] [--budget-secs S] [--trace-budget-secs S] [--trace-threads T]"
                    .into(),
            ),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
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
    // Enough degree-1 access routers for every peer, plus headroom for the
    // RNG to shuffle over.
    let topo = mapper(
        &MapperConfig::with_access(2_000, args.peers + args.peers / 10),
        42,
    )
    .expect("mapper topology");
    let topo_elapsed = t0.elapsed();

    let config = SwarmConfig {
        n_peers: args.peers,
        n_landmarks: 8,
        trace_threads: args.trace_threads,
        ..SwarmConfig::default()
    };
    let t1 = Instant::now();
    let swarm = match Swarm::build(&topo, &config, 1) {
        Ok(swarm) => swarm,
        Err(e) => {
            eprintln!("scale_smoke: swarm build failed: {e}");
            std::process::exit(1);
        }
    };
    let build_elapsed = t1.elapsed();

    let report = swarm.server.report();
    println!(
        "scale_smoke: topology {} routers in {:.2?}, {}-peer swarm built in {:.2?}",
        topo.n_routers(),
        topo_elapsed,
        swarm.peers.len(),
        build_elapsed,
    );
    println!(
        "phase split: trace {:.2?} ({} threads) / register {:.2?} — trace share {:.0}%",
        swarm.phases.trace,
        swarm.phases.trace_threads,
        swarm.phases.register,
        100.0 * swarm.phases.trace.as_secs_f64() / build_elapsed.as_secs_f64().max(1e-9),
    );
    println!("{}", oracle_stats_line(&swarm.phases.oracle));
    println!("{report}");
    let landmarks = swarm.server.landmarks().len() as u32;
    let interned: usize = (0..landmarks)
        .filter_map(|l| swarm.server.path_store(LandmarkId(l)))
        .map(|s| s.distinct())
        .sum();
    println!("interned paths: {interned} distinct across {landmarks} landmarks");

    if report.peers != args.peers {
        eprintln!(
            "scale_smoke: expected {} registered peers, server holds {}",
            args.peers, report.peers
        );
        std::process::exit(1);
    }
    if report.stats.joins != args.peers as u64 {
        eprintln!(
            "scale_smoke: expected one join per peer, counted {}",
            report.stats.joins
        );
        std::process::exit(1);
    }
    // Tracing prices every hop off the landmark arena: a
    // single lazily built tree means someone reintroduced a per-hop (or
    // otherwise off-arena) oracle call into round 1.
    if swarm.phases.oracle.lazy_trees_built != 0 {
        eprintln!(
            "scale_smoke: tracing built {} lazy trees (expected 0 — \
             round 1 must run out of the O(landmarks) arena)",
            swarm.phases.oracle.lazy_trees_built
        );
        std::process::exit(1);
    }
    if let Some(trace_budget) = args.trace_budget_secs {
        if swarm.phases.trace.as_secs() > trace_budget {
            eprintln!(
                "scale_smoke: trace phase took {:.2?}, budget {trace_budget}s — \
                 round-1 tracing regressed",
                swarm.phases.trace
            );
            std::process::exit(1);
        }
    }
    let total = t0.elapsed();
    if total.as_secs() > args.budget_secs {
        eprintln!(
            "scale_smoke: took {:.2?}, budget {}s — swarm construction regressed",
            total, args.budget_secs
        );
        std::process::exit(1);
    }
    println!(
        "scale_smoke: OK ({:.2?} total, budget {}s)",
        total, args.budget_secs
    );
}
