//! `perf` — the request-journey benchmark of `nearpeerd`.
//!
//! ```text
//! perf run     [--workload W]... [--seed N] [--seconds S] [--runs R] [--smoke]
//! perf trace   <workload> [--seed N] [--smoke]
//! perf compare <a.json> <b.json>
//! perf bench   --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! `run` prints one JSON document on stdout (every metric of every
//! workload by name, with unit and bound) and a table on stderr, and
//! exits non-zero if any op failed. `trace` runs the in-process ladder
//! alone and writes `<target>/perf/trace-<workload>.jsonl`. `compare`
//! applies each metric's bound to two `run` documents. `bench` is the
//! driver's contract: one workload, one result line.

use nearpeer_perf::report::{self, Provenance, WorkloadRuns};
use nearpeer_perf::run::run;
use nearpeer_perf::spec::{Profile, Workload, END_TO_END, PER_LAYER};
use nearpeer_perf::trace::trace;
use std::process::ExitCode;

const USAGE: &str = "usage:
  perf run     [--workload W]... [--seed N] [--seconds S] [--runs R] [--smoke]
  perf trace   <workload> [--seed N] [--smoke]
  perf compare <a.json> <b.json>
  perf bench   --workload W --seed N --seconds S --trace 0|1
workloads: query_1r query_4r churn_1r subs_1r";

/// Seconds of timed traffic `perf run` measures by default: 10 s paced
/// plus 15 s saturate.
const DEFAULT_SECONDS: f64 = 25.0;

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    runs: u64,
    smoke: bool,
    traced: bool,
    positional: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Options {
            workloads: Vec::new(),
            seed: 1,
            seconds: DEFAULT_SECONDS,
            runs: 1,
            smoke: false,
            traced: false,
            positional: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let mut value = || {
                iter.next()
                    .ok_or_else(|| format!("{arg} needs a value\n{USAGE}"))
            };
            fn parsed<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
                v.parse().map_err(|_| format!("bad {flag} value {v}"))
            }
            match arg.as_str() {
                "--workload" => {
                    let name = value()?;
                    out.workloads.push(
                        Workload::from_name(name)
                            .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?,
                    );
                }
                "--seed" => out.seed = parsed(arg, value()?)?,
                "--seconds" => out.seconds = parsed(arg, value()?)?,
                "--runs" => out.runs = parsed(arg, value()?)?,
                "--trace" => out.traced = parsed::<u8>(arg, value()?)? != 0,
                "--smoke" => out.smoke = true,
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown argument {flag}\n{USAGE}"))
                }
                _ => out.positional.push(arg.clone()),
            }
        }
        if !(out.seconds > 0.0 && out.seconds.is_finite()) || out.runs == 0 {
            return Err("--seconds and --runs must be positive".into());
        }
        Ok(out)
    }

    fn profile(&self) -> Profile {
        if self.smoke {
            Profile::smoke()
        } else {
            Profile::full(self.seconds)
        }
    }
}

fn cmd_run(opts: &Options) -> Result<ExitCode, String> {
    let profile = opts.profile();
    let workloads = if opts.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        opts.workloads.clone()
    };
    let mut sets = Vec::new();
    for workload in workloads {
        let mut runs = Vec::new();
        for seed in opts.seed..opts.seed + opts.runs {
            eprintln!("perf: {} seed {seed} …", workload.name());
            runs.push(run(workload, seed, &profile)?);
        }
        eprintln!("perf: {} traced …", workload.name());
        let mut layers = runs[0].layers.clone();
        layers.extend(trace(workload, opts.seed, &profile)?.layers);
        sets.push(WorkloadRuns {
            workload,
            runs,
            layers,
        });
    }
    let prov = Provenance::here(opts.seed, opts.seconds, profile.name);
    println!("{}", report::run_set(&prov, &sets));
    eprint!("{}", report::table(&sets));
    if sets.iter().any(WorkloadRuns::failed) {
        eprintln!("perf: FAILED — fail_share > 0");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace(opts: &Options) -> Result<ExitCode, String> {
    let [name] = &opts.positional[..] else {
        return Err(format!("trace takes one workload\n{USAGE}"));
    };
    let workload =
        Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
    let traced = trace(workload, opts.seed, &opts.profile())?;
    for m in PER_LAYER.iter() {
        if let Some(v) = traced.layers.get(m.name) {
            println!("{:<38}{v:>16.3} {}", m.name, m.unit);
        }
    }
    eprintln!(
        "perf: {} spans written to {}",
        traced.spans,
        traced.file.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(opts: &Options) -> Result<ExitCode, String> {
    let [a, b] = &opts.positional[..] else {
        return Err(format!("compare takes two files\n{USAGE}"));
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let (report, regressed) = report::compare(&read(a)?, &read(b)?)?;
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_bench(opts: &Options) -> Result<ExitCode, String> {
    let [workload] = opts.workloads[..] else {
        return Err(format!("bench takes exactly one --workload\n{USAGE}"));
    };
    let profile = opts.profile();
    let result = run(workload, opts.seed, &profile)?;
    let line = if opts.traced {
        let mut layers = result.layers.clone();
        layers.extend(trace(workload, opts.seed, &profile)?.layers);
        report::contract_line(&result, &PER_LAYER, &layers)
    } else {
        report::contract_line(&result, &END_TO_END, &result.end_to_end)
    };
    println!("{line}");
    Ok(if result.tally.failed() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) => Options::parse(rest).and_then(|opts| match cmd.as_str() {
            "run" => cmd_run(&opts),
            "trace" => cmd_trace(&opts),
            "compare" => cmd_compare(&opts),
            "bench" => cmd_bench(&opts),
            other => Err(format!("unknown command {other}\n{USAGE}")),
        }),
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("perf: {msg}");
            ExitCode::from(2)
        }
    }
}
