//! Minimal argument parsing shared by the experiment binaries, `run_all`
//! and the `soak` binary.

use std::str::FromStr;

/// Options every experiment binary understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommonArgs {
    /// Reduced sweep for smoke-testing (`--quick`).
    pub quick: bool,
    /// Seeds per parameter point (`--seeds N`).
    pub seeds: u64,
    /// Worker threads (`--threads N`; default = available parallelism).
    pub threads: usize,
}

impl Default for CommonArgs {
    fn default() -> Self {
        Self {
            quick: false,
            seeds: 3,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

impl CommonArgs {
    /// Parses from an iterator of arguments (without the program name).
    /// Unknown flags abort with a usage message listing them.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Self::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" => out.quick = true,
                "--seeds" => {
                    out.seeds = value(&mut iter, "--seeds")?;
                    if out.seeds == 0 {
                        return Err("--seeds must be >= 1".into());
                    }
                }
                "--threads" => {
                    out.threads = value(&mut iter, "--threads")?;
                    if out.threads == 0 {
                        return Err("--threads must be >= 1".into());
                    }
                }
                "--help" | "-h" => return Err("usage: [--quick] [--seeds N] [--threads N]".into()),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(out)
    }

    /// Parses the process arguments, exiting with the message on error.
    pub fn parse() -> Self {
        exit_on_error(Self::parse_from(std::env::args().skip(1)))
    }
}

/// Options of `run_all`: the common ones plus `--only NAME[,NAME…]`,
/// which runs the named experiments alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunAllArgs {
    /// The options every experiment understands.
    pub common: CommonArgs,
    /// The experiments `--only` names, in the order given; `None` runs
    /// every experiment.
    pub only: Option<Vec<String>>,
}

impl RunAllArgs {
    /// Parses from an iterator of arguments (without the program name).
    /// Every name after `--only` must be one of `names`.
    pub fn parse_from<I: IntoIterator<Item = String>>(
        args: I,
        names: &[&str],
    ) -> Result<Self, String> {
        let mut rest = Vec::new();
        let mut only: Option<Vec<String>> = None;
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--only" => {
                    let list: String = value(&mut iter, "--only")?;
                    for name in list.split(',') {
                        if !names.contains(&name) {
                            return Err(format!(
                                "unknown experiment {name:?} (one of {})",
                                names.join(", ")
                            ));
                        }
                        only.get_or_insert_with(Vec::new).push(name.to_string());
                    }
                }
                "--help" | "-h" => {
                    return Err(
                        "usage: [--quick] [--seeds N] [--threads N] [--only NAME[,NAME...]]".into(),
                    )
                }
                _ => rest.push(arg),
            }
        }
        Ok(Self {
            common: CommonArgs::parse_from(rest)?,
            only,
        })
    }

    /// Parses the process arguments, exiting with the message on error.
    pub fn parse(names: &[&str]) -> Self {
        exit_on_error(Self::parse_from(std::env::args().skip(1), names))
    }

    /// Whether the experiment `name` runs.
    pub fn runs(&self, name: &str) -> bool {
        self.only
            .as_ref()
            .is_none_or(|only| only.iter().any(|n| n == name))
    }
}

/// Options of the `soak` binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakArgs {
    /// Scenario name (`--scenario`, required).
    pub scenario: String,
    /// Trace population override (`--peers N`).
    pub peers: Option<usize>,
    /// Trace seed (`--seed S`, default 42).
    pub seed: u64,
    /// Wall-clock budget in seconds, 0 = none (`--budget-secs S`).
    pub budget_secs: u64,
}

impl SoakArgs {
    /// Parses from an iterator of arguments (without the program name).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Self {
            scenario: String::new(),
            peers: None,
            seed: 42,
            budget_secs: 0,
        };
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scenario" => out.scenario = value(&mut iter, "--scenario")?,
                "--peers" => out.peers = Some(value(&mut iter, "--peers")?),
                "--seed" => out.seed = value(&mut iter, "--seed")?,
                "--budget-secs" => out.budget_secs = value(&mut iter, "--budget-secs")?,
                "--help" | "-h" => {
                    return Err(
                        "usage: --scenario NAME [--peers N] [--seed S] [--budget-secs S]".into(),
                    )
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if out.scenario.is_empty() {
            return Err("--scenario is required".into());
        }
        Ok(out)
    }

    /// Parses the process arguments, exiting with the message on error.
    pub fn parse() -> Self {
        exit_on_error(Self::parse_from(std::env::args().skip(1)))
    }
}

/// The value after `flag`, parsed.
fn value<T: FromStr>(iter: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String> {
    let v = iter.next().ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {flag} value {v}"))
}

/// Unwraps a parse, or prints the message and exits 2.
fn exit_on_error<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CommonArgs, String> {
        CommonArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert!(!a.quick);
        assert_eq!(a.seeds, 3);
        assert!(a.threads >= 1);
    }

    #[test]
    fn flags() {
        let a = parse(&["--quick", "--seeds", "7", "--threads", "2"]).unwrap();
        assert!(a.quick);
        assert_eq!(a.seeds, 7);
        assert_eq!(a.threads, 2);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--seeds"]).is_err());
        assert!(parse(&["--seeds", "x"]).is_err());
        assert!(parse(&["--seeds", "0"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--wat"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn run_all_only_picks_named_experiments() {
        let names = ["fig2_quality", "superpeers", "setup_delay"];
        let run_all =
            |args: &[&str]| RunAllArgs::parse_from(args.iter().map(|s| s.to_string()), &names);
        let all = run_all(&["--quick"]).unwrap();
        assert!(all.common.quick);
        assert!(names.iter().all(|n| all.runs(n)));
        let some = run_all(&["--only", "superpeers,fig2_quality", "--seeds", "2"]).unwrap();
        assert_eq!(some.common.seeds, 2);
        assert!(some.runs("fig2_quality") && some.runs("superpeers"));
        assert!(!some.runs("setup_delay"));
        assert!(run_all(&["--only"]).is_err(), "--only needs a value");
        assert!(run_all(&["--only", "fig2"]).is_err(), "unknown name");
        assert!(run_all(&["--only", "fig2_quality,"]).is_err(), "empty name");
        assert!(run_all(&["--only", "fig2_quality", "--wat"]).is_err());
    }

    #[test]
    fn soak_flags() {
        let soak = |args: &[&str]| SoakArgs::parse_from(args.iter().map(|s| s.to_string()));
        let a = soak(&[
            "--scenario",
            "all",
            "--peers",
            "1000",
            "--budget-secs",
            "120",
        ])
        .unwrap();
        assert_eq!(a.scenario, "all");
        assert_eq!(a.peers, Some(1000));
        assert_eq!((a.seed, a.budget_secs), (42, 120));
        assert!(soak(&[]).is_err(), "--scenario is required");
        assert!(soak(&["--scenario", "churn", "--peers", "x"]).is_err());
        assert!(soak(&["--scenario", "churn", "--events", "5"]).is_err());
    }
}
