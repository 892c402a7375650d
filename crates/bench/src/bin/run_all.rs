//! Runs the paper's experiments in sequence and prints each paper-style
//! table — the one-command regeneration of the whole evaluation. `--quick`
//! uses each experiment's reduced configuration (the CI smoke setting);
//! `--only NAME[,NAME…]` runs the named experiments alone. Each
//! experiment writes its `result.json`, and a CSV where it has a figure,
//! to `<name>/` under the output directory.

use nearpeer_bench::cli::{CommonArgs, RunAllArgs};
use nearpeer_bench::experiments::{
    churn, complexity, convergence, decreased, dtree, landmark_policies, mapping, quality,
    setup_delay, superpeers,
};
use nearpeer_bench::{oracle_stats_line, ExperimentWriter, Swarm, SwarmConfig};
use nearpeer_metrics::Table;
use nearpeer_topology::generators::{mapper, MapperConfig};
use serde::Serialize;

const SEED: u64 = 42;

/// The suite in running order: each experiment's name (its `--only` key
/// and output directory), its id in the paper, and its title.
const EXPERIMENTS: [(&str, &str, &str); 10] = [
    ("fig2_quality", "F2", "neighbor quality vs population"),
    (
        "complexity_scaling",
        "C1/C2",
        "insertion/query complexity scaling",
    ),
    (
        "convergence_race",
        "C3",
        "probes-to-accuracy convergence race",
    ),
    (
        "landmark_policies",
        "W1",
        "landmark count x placement policy",
    ),
    ("superpeers", "W2", "super-peer delegation coverage"),
    ("churn_handover", "W3", "staleness and quality under churn"),
    (
        "decreased_traceroute",
        "W4",
        "probe budget vs neighbor quality",
    ),
    ("dtree_accuracy", "A1", "P[dtree = d] per topology family"),
    ("setup_delay", "A2", "streaming setup delay per policy"),
    ("internet_mapping", "MAP", "map-statistics validation"),
];

/// Prints an experiment's table and stores its `result.json`, plus the
/// CSV `(file name, contents)` of its figure if it has one, in `<name>/`.
fn emit(name: &str, table: &Table, result: &impl Serialize, csv: Option<(&str, String)>) {
    print!("{table}");
    if let Ok(writer) = ExperimentWriter::new(name) {
        if let Some((file, text)) = csv {
            let _ = writer.write_text(file, &text);
        }
        let _ = writer.write_json("result.json", result);
    }
}

/// Runs one experiment of [`EXPERIMENTS`] and emits its results.
fn run(name: &str, args: &CommonArgs) {
    let q = args.quick;
    match name {
        "fig2_quality" => {
            let cfg = if q {
                quality::QualityConfig::quick()
            } else {
                quality::QualityConfig::paper(args.seeds)
            };
            let result = quality::run(&cfg, args.threads);
            let csv = ("figure2.csv", result.series().to_csv());
            emit(name, &result.table(), &result, Some(csv));
        }
        "complexity_scaling" => {
            let cfg = if q {
                complexity::ComplexityConfig::quick()
            } else {
                complexity::ComplexityConfig::standard()
            };
            let result = complexity::run(&cfg);
            emit(name, &result.table(), &result, None);
        }
        "convergence_race" => {
            let cfg = if q {
                convergence::ConvergenceConfig::quick()
            } else {
                convergence::ConvergenceConfig::standard()
            };
            let result = convergence::run(&cfg, SEED);
            let csv = ("race.csv", result.series().to_csv());
            emit(name, &result.table(), &result, Some(csv));
        }
        "landmark_policies" => {
            let cfg = if q {
                landmark_policies::LandmarkStudyConfig::quick()
            } else {
                landmark_policies::LandmarkStudyConfig::standard(args.seeds)
            };
            let result = landmark_policies::run(&cfg, args.threads);
            let csv = ("sweep.csv", result.series().to_csv());
            emit(name, &result.table(), &result, Some(csv));
        }
        "superpeers" => {
            let cfg = if q {
                superpeers::SuperPeerStudyConfig::quick()
            } else {
                superpeers::SuperPeerStudyConfig::standard()
            };
            let result = superpeers::run(&cfg, SEED);
            emit(name, &result.table(), &result, None);
        }
        "churn_handover" => {
            let cfg = if q {
                churn::ChurnStudyConfig::quick()
            } else {
                churn::ChurnStudyConfig::standard()
            };
            let result = churn::run(&cfg, SEED);
            emit(name, &result.table(), &result, None);
        }
        "decreased_traceroute" => {
            let cfg = if q {
                decreased::DecreasedConfig::quick()
            } else {
                decreased::DecreasedConfig::standard(args.seeds)
            };
            let result = decreased::run(&cfg, args.threads);
            emit(name, &result.table(), &result, None);
        }
        "dtree_accuracy" => {
            let cfg = if q {
                dtree::DtreeConfig::quick()
            } else {
                dtree::DtreeConfig::standard(args.seeds)
            };
            let result = dtree::run(&cfg, args.threads);
            emit(name, &result.table(), &result, None);
        }
        "setup_delay" => {
            let cfg = if q {
                setup_delay::SetupDelayConfig::quick()
            } else {
                setup_delay::SetupDelayConfig::standard()
            };
            let result = setup_delay::run(&cfg, SEED);
            emit(name, &result.table(), &result, None);
        }
        "internet_mapping" => {
            let cfg = if q {
                mapping::MappingConfig::quick()
            } else {
                mapping::MappingConfig::standard()
            };
            let result = mapping::run(&cfg, SEED, args.threads);
            emit(name, &result.table(), &result, None);
        }
        other => unreachable!("{other} is not in EXPERIMENTS"),
    }
}

fn main() {
    let names = EXPERIMENTS.map(|(name, _, _)| name);
    let run_all = RunAllArgs::parse(&names);
    let args = &run_all.common;
    let q = args.quick;
    println!(
        "nearpeer experiment suite ({} configs, seed {SEED})",
        if q { "quick" } else { "standard" }
    );

    // The whole suite leads with a representative swarm build, for the
    // route oracle's tree accounting (the one-tree-per-trace invariant
    // scale_smoke gates in CI).
    if run_all.only.is_none() {
        let peers = if q { 200 } else { 2_000 };
        let topo = mapper(&MapperConfig::with_access(400, peers + peers / 5), SEED)
            .expect("mapper topology");
        let swarm_cfg = SwarmConfig {
            n_peers: peers,
            n_landmarks: 4,
            ..SwarmConfig::default()
        };
        match Swarm::build(&topo, &swarm_cfg, SEED) {
            Ok(swarm) => {
                println!(
                    "reference swarm ({peers} peers): trace {:.2?} ({} threads) / register {:.2?}",
                    swarm.phases.trace, swarm.phases.trace_threads, swarm.phases.register,
                );
                println!("{}", oracle_stats_line(&swarm.phases.oracle));
            }
            Err(e) => println!("reference swarm skipped: {e}"),
        }
    }

    for (name, id, title) in EXPERIMENTS {
        if run_all.runs(name) {
            println!("\n=== {id} — {title} ===");
            run(name, args);
        }
    }

    if let Ok(writer) = ExperimentWriter::new("run_all") {
        let only = match &run_all.only {
            Some(names) => format!(" only={}", names.join(",")),
            None => String::new(),
        };
        let _ = writer.write_text(
            "manifest.txt",
            &format!(
                "suite={} seed={SEED} seeds_per_point={} threads={}{only}\n",
                if q { "quick" } else { "standard" },
                args.seeds,
                args.threads
            ),
        );
        println!("\nartifacts: {}", writer.dir().display());
    }
}
