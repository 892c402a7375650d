//! Results as documents: the one-line result of the driver contract, the
//! run-set document `perf run` prints (every metric by name with unit and
//! bound, plus `host_cores`, `git_rev` and `seed`), the human table, and
//! `perf compare` over two run sets.

use crate::run::{Bag, RunResult};
use crate::spec::{Better, MetricSpec, Workload, END_TO_END, FAIL_SHARE, PER_LAYER};
use crate::stats::{median, spread};
use serde_json::{Number, Value};
use std::fmt::Write;

fn num(v: f64) -> Value {
    // JSON has no NaN or infinity; a metric that could not be computed
    // reads 0, like a layer the workload does not touch.
    Value::Number(Number::F(if v.is_finite() { v } else { 0.0 }))
}

fn int(v: u64) -> Value {
    Value::Number(Number::U(v))
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The last line of a driver-contract run: `correct`, `attempted`,
/// `failed`, and every metric of `specs` as `{"value", "unit"}`. Metrics
/// absent from `values` — a layer the workload does not touch — read 0.
pub fn contract_line(result: &RunResult, specs: &[MetricSpec], values: &Bag) -> String {
    let metrics = specs
        .iter()
        .filter(|m| m.name != FAIL_SHARE)
        .map(|m| {
            let value = values.get(m.name).copied().unwrap_or(0.0);
            (
                m.name.to_string(),
                object(vec![("value", num(value)), ("unit", text(m.unit))]),
            )
        })
        .collect();
    let doc = object(vec![
        ("correct", Value::Bool(result.tally.failed() == 0)),
        ("attempted", int(result.tally.attempted.max(1))),
        ("failed", int(result.tally.failed())),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).expect("a value tree serialises")
}

/// Everything `perf run` measured for one workload: one result per
/// untraced run, and the layer metrics of the traced run.
pub struct WorkloadRuns {
    /// The workload.
    pub workload: Workload,
    /// The untraced runs, one per seed.
    pub runs: Vec<RunResult>,
    /// Wire-sourced layers of the first run merged with the ladder's.
    pub layers: Bag,
}

impl WorkloadRuns {
    fn values(&self, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .map(|r| r.end_to_end.get(metric).copied().unwrap_or(0.0))
            .collect()
    }

    /// Whether any run had a failed op.
    pub fn failed(&self) -> bool {
        self.runs.iter().any(|r| r.tally.failed() > 0)
    }
}

/// Facts about where a run set was taken.
pub struct Provenance {
    /// `std::thread::available_parallelism()` of the host.
    pub host_cores: usize,
    /// `git rev-parse --short HEAD`, or `unknown` outside a repository.
    pub git_rev: String,
    /// First seed of the set.
    pub seed: u64,
    /// Seconds of timed traffic per run.
    pub seconds: f64,
    /// `full` or `smoke`.
    pub profile: &'static str,
}

impl Provenance {
    /// Reads the host's core count and the checkout's revision.
    pub fn here(seed: u64, seconds: f64, profile: &'static str) -> Self {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .filter(|rev| !rev.is_empty())
            .unwrap_or_else(|| "unknown".into());
        Provenance {
            host_cores: std::thread::available_parallelism().map_or(1, usize::from),
            git_rev,
            seed,
            seconds,
            profile,
        }
    }
}

/// The run-set document: per workload every metric by name with unit —
/// end-to-end ones with their bound, the median over the runs as `value`
/// and each run's reading in `runs`.
pub fn run_set(prov: &Provenance, sets: &[WorkloadRuns]) -> String {
    let workloads = sets
        .iter()
        .map(|set| {
            let e2e = END_TO_END
                .iter()
                .map(|m| {
                    let runs = set.values(m.name);
                    let cell = object(vec![
                        ("value", num(median(&runs))),
                        ("unit", text(m.unit)),
                        ("better", text(m.better.as_str())),
                        ("bound", num(m.bound)),
                        ("runs", Value::Array(runs.into_iter().map(num).collect())),
                    ]);
                    (m.name.to_string(), cell)
                })
                .collect();
            let layers = PER_LAYER
                .iter()
                .map(|m| {
                    let value = set.layers.get(m.name).copied().unwrap_or(0.0);
                    let cell = object(vec![("value", num(value)), ("unit", text(m.unit))]);
                    (m.name.to_string(), cell)
                })
                .collect();
            let doc = object(vec![
                ("why", text(set.workload.why())),
                (
                    "attempted",
                    int(set.runs.iter().map(|r| r.tally.attempted).sum()),
                ),
                (
                    "failed",
                    int(set.runs.iter().map(|r| r.tally.failed()).sum()),
                ),
                ("end_to_end", Value::Object(e2e)),
                ("per_layer", Value::Object(layers)),
            ]);
            (set.workload.name().to_string(), doc)
        })
        .collect();
    let doc = object(vec![
        ("host_cores", int(prov.host_cores as u64)),
        ("git_rev", text(&prov.git_rev)),
        ("seed", int(prov.seed)),
        ("seconds", num(prov.seconds)),
        ("profile", text(prov.profile)),
        ("runs", int(sets.first().map_or(0, |s| s.runs.len()) as u64)),
        ("workloads", Value::Object(workloads)),
    ]);
    serde_json::to_string_pretty(&doc).expect("a value tree serialises")
}

/// The human table of a run set.
pub fn table(sets: &[WorkloadRuns]) -> String {
    let mut out = String::new();
    for set in sets {
        let _ = writeln!(
            out,
            "\n{} — {} run(s), primary op: {}",
            set.workload.name(),
            set.runs.len(),
            set.workload.primary_op()
        );
        for m in &END_TO_END {
            let runs = set.values(m.name);
            let spread = spread(&runs).map_or_else(String::new, |s| {
                format!(
                    "  spread {:.1} % of bound {:.0} %",
                    s * 100.0,
                    m.bound * 100.0
                )
            });
            let _ = writeln!(
                out,
                "  {:<28}{:>16.3} {:<6}{spread}",
                m.name,
                median(&runs),
                m.unit
            );
        }
        for m in &PER_LAYER {
            if let Some(v) = set.layers.get(m.name).filter(|v| **v != 0.0) {
                let _ = writeln!(out, "    {:<38}{:>16.3} {}", m.name, v, m.unit);
            }
        }
    }
    out
}

/// How one (workload, metric) cell moved between two run sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    /// Better by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound: the runs cannot
    /// tell.
    Unresolved,
}

impl Change {
    fn as_str(self) -> &'static str {
        match self {
            Change::Improved => "improved",
            Change::Unchanged => "unchanged",
            Change::Regressed => "regressed",
            Change::Unresolved => "unresolved",
        }
    }
}

/// Classifies one cell from the baseline's runs `a` and the candidate's
/// runs `b`. A bound of 0 means any worsening regresses.
pub fn classify(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Change {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if bound == 0.0 {
        return match worse_by {
            w if w > 0.0 => Change::Regressed,
            w if w < 0.0 => Change::Improved,
            _ => Change::Unchanged,
        };
    }
    let share = if ma == 0.0 { 0.0 } else { worse_by / ma.abs() };
    let widest = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    if widest > bound {
        let clear_win = a.iter().all(|&x| {
            b.iter().all(|&y| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        return if clear_win {
            Change::Improved
        } else {
            Change::Unresolved
        };
    }
    if share > bound {
        Change::Regressed
    } else if share < -bound {
        Change::Improved
    } else {
        Change::Unchanged
    }
}

fn runs_of(cell: &Value) -> Vec<f64> {
    let number = |v: &Value| match v {
        Value::Number(n) => Some(n.as_f64()),
        _ => None,
    };
    let runs: Vec<f64> = cell
        .get("runs")
        .and_then(Value::as_array)
        .map(|runs| runs.iter().filter_map(number).collect())
        .unwrap_or_default();
    if runs.is_empty() {
        cell.get("value").and_then(number).into_iter().collect()
    } else {
        runs
    }
}

/// Compares two run-set documents cell by cell with each metric's bound.
/// Answers the report and whether any cell regressed.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let parse = |text: &str| -> Result<Value, String> {
        serde_json::from_str(text).map_err(|e| format!("not a run-set document: {e}"))
    };
    let (a, b) = (parse(a)?, parse(b)?);
    let mut out = String::new();
    for (side, doc) in [("a", &a), ("b", &b)] {
        let field = |key| match doc.get(key) {
            Some(Value::String(s)) => s.clone(),
            Some(Value::Number(n)) => n.as_f64().to_string(),
            _ => "?".into(),
        };
        let _ = writeln!(
            out,
            "{side}: git_rev {} host_cores {} runs {}",
            field("git_rev"),
            field("host_cores"),
            field("runs")
        );
    }
    let _ = writeln!(
        out,
        "{:<10}{:<24}{:>14}{:>14}{:>9}{:>9}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    let mut counts = [0usize; 4];
    for workload in Workload::ALL {
        for m in &END_TO_END {
            let cell = |doc: &Value| -> Option<Vec<f64>> {
                let cell = doc
                    .get("workloads")?
                    .get(workload.name())?
                    .get("end_to_end")?
                    .get(m.name)?;
                Some(runs_of(cell)).filter(|runs| !runs.is_empty())
            };
            let (Some(ra), Some(rb)) = (cell(&a), cell(&b)) else {
                continue;
            };
            let change = classify(m.better, m.bound, &ra, &rb);
            counts[change as usize] += 1;
            let (ma, mb) = (median(&ra), median(&rb));
            let pct = if ma == 0.0 {
                0.0
            } else {
                (mb - ma) / ma * 100.0
            };
            let _ = writeln!(
                out,
                "{:<10}{:<24}{:>14.3}{:>14.3}{:>+8.1}%{:>8.0}%  {}",
                workload.name(),
                m.name,
                ma,
                mb,
                pct,
                m.bound * 100.0,
                change.as_str()
            );
        }
    }
    if counts.iter().sum::<usize>() == 0 {
        return Err("the two documents share no (workload, metric) cell".into());
    }
    let _ = writeln!(
        out,
        "{} improved, {} unchanged, {} regressed, {} unresolved",
        counts[Change::Improved as usize],
        counts[Change::Unchanged as usize],
        counts[Change::Regressed as usize],
        counts[Change::Unresolved as usize]
    );
    Ok((out, counts[Change::Regressed as usize] > 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Tally;

    #[test]
    fn cells_classify_by_bound_direction_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        let lower = Better::Lower;
        assert_eq!(
            classify(lower, 0.1, &steady, &[104.0, 105.0]),
            Change::Unchanged
        );
        assert_eq!(
            classify(lower, 0.1, &steady, &[115.0, 116.0]),
            Change::Regressed
        );
        assert_eq!(
            classify(lower, 0.1, &steady, &[80.0, 81.0]),
            Change::Improved
        );
        // Higher-is-better flips the direction.
        let higher = Better::Higher;
        assert_eq!(
            classify(higher, 0.1, &steady, &[115.0, 116.0]),
            Change::Improved
        );
        assert_eq!(
            classify(higher, 0.1, &steady, &[80.0, 81.0]),
            Change::Regressed
        );
        // Runs that disagree with each other by more than the bound
        // cannot tell — unless every candidate run beats every baseline.
        let noisy = [100.0, 140.0, 70.0, 120.0, 90.0];
        assert_eq!(
            classify(lower, 0.1, &noisy, &[101.0, 99.0]),
            Change::Unresolved
        );
        assert_eq!(
            classify(lower, 0.1, &noisy, &[60.0, 65.0]),
            Change::Improved
        );
        // fail_share: any increase regresses, whatever the size.
        assert_eq!(classify(lower, 0.0, &[0.0], &[0.0]), Change::Unchanged);
        assert_eq!(classify(lower, 0.0, &[0.0], &[1e-9]), Change::Regressed);
        assert_eq!(classify(lower, 0.0, &[1e-3], &[0.0]), Change::Improved);
    }

    fn result(workload: Workload, latency: f64, failed: u64) -> RunResult {
        let mut end_to_end = Bag::new();
        for m in &END_TO_END {
            end_to_end.insert(m.name, 10.0);
        }
        end_to_end.insert("latency_p50_us", latency);
        end_to_end.insert(FAIL_SHARE, failed as f64 / 1_000.0);
        RunResult {
            workload,
            seed: 1,
            tally: Tally {
                attempted: 1_000,
                mismatched: failed,
                ..Tally::default()
            },
            end_to_end,
            layers: Bag::new(),
        }
    }

    fn set_of(latencies: &[f64], failed: u64) -> Vec<WorkloadRuns> {
        Workload::ALL
            .map(|workload| WorkloadRuns {
                workload,
                runs: latencies
                    .iter()
                    .map(|&l| result(workload, l, failed))
                    .collect(),
                layers: Bag::from([("wire.rtt_ns", 1234.5)]),
            })
            .into()
    }

    #[test]
    fn run_set_documents_round_trip_through_compare() {
        let prov = Provenance {
            host_cores: 2,
            git_rev: "abc1234".into(),
            seed: 1,
            seconds: 25.0,
            profile: "full",
        };
        let a = run_set(&prov, &set_of(&[50.0, 51.0, 49.0], 0));
        let same = run_set(&prov, &set_of(&[50.5, 50.0, 51.5], 0));
        let slow = run_set(&prov, &set_of(&[70.0, 71.0, 69.0], 0));
        let broken = run_set(&prov, &set_of(&[50.0, 51.0, 49.0], 3));

        let doc: Value = serde_json::from_str(&a).unwrap();
        assert_eq!(doc.get("host_cores"), Some(&int(2)));
        assert_eq!(doc.get("git_rev"), Some(&text("abc1234")));
        let cell = doc
            .get("workloads")
            .and_then(|w| w.get("query_4r"))
            .and_then(|w| w.get("end_to_end"))
            .and_then(|e| e.get("latency_p50_us"))
            .unwrap();
        assert_eq!(cell.get("value"), Some(&num(50.0)));
        assert_eq!(cell.get("unit"), Some(&text("us")));
        assert_eq!(cell.get("bound"), Some(&num(0.25)));
        let layers = doc
            .get("workloads")
            .and_then(|w| w.get("subs_1r"))
            .and_then(|w| w.get("per_layer"))
            .and_then(Value::as_object)
            .unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());

        let (report, regressed) = compare(&a, &same).unwrap();
        assert!(!regressed, "{report}");
        assert!(report.contains("0 improved, 24 unchanged, 0 regressed, 0 unresolved"));
        let (report, regressed) = compare(&a, &slow).unwrap();
        assert!(regressed);
        assert!(report.contains("4 regressed"), "{report}");
        let (report, regressed) = compare(&a, &broken).unwrap();
        assert!(regressed, "any fail_share increase regresses: {report}");
        assert!(compare(&a, "{}").is_err());
        assert!(compare("not json", &a).is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_no_fail_share() {
        let r = result(Workload::Query1r, 42.5, 0);
        let line = contract_line(&r, &END_TO_END, &r.end_to_end);
        let doc: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        let metrics = doc.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), 5);
        assert!(metrics.iter().all(|(k, _)| k != FAIL_SHARE));
        assert!(!line.contains('\n'));
        // A layer the workload does not touch still reports, as 0.
        let line = contract_line(&r, &PER_LAYER, &Bag::new());
        let doc: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(
            doc.get("metrics").and_then(Value::as_object).unwrap().len(),
            PER_LAYER.len()
        );
        let bad = result(Workload::Query1r, 42.5, 2);
        let line = contract_line(&bad, &END_TO_END, &bad.end_to_end);
        assert!(line.contains("\"correct\":false") && line.contains("\"failed\":2"));
    }
}
