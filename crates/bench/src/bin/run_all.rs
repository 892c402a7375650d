//! Runs every experiment in sequence and prints each paper-style table —
//! the one-command regeneration of the whole evaluation. `--quick` uses
//! each experiment's reduced configuration (the CI smoke setting). Each
//! experiment's `result.json` lands where its own binary writes it.

use nearpeer_bench::cli::CommonArgs;
use nearpeer_bench::experiments::{
    churn, complexity, convergence, decreased, dtree, landmark_policies, mapping, quality,
    setup_delay, superpeers,
};
use nearpeer_bench::{oracle_stats_line, ExperimentWriter, Swarm, SwarmConfig};
use nearpeer_metrics::Table;
use nearpeer_topology::generators::{mapper, MapperConfig};
use serde::Serialize;

const SEED: u64 = 42;

fn section(id: &str, title: &str) {
    println!("\n=== {id} — {title} ===");
}

/// Prints an experiment's table and stores its result where the
/// experiment's own binary does: `<name>/result.json`.
fn emit(name: &str, table: &Table, result: &impl Serialize) {
    print!("{table}");
    if let Ok(writer) = ExperimentWriter::new(name) {
        let _ = writer.write_json("result.json", result);
    }
}

fn main() {
    let args = CommonArgs::parse();
    let q = args.quick;
    println!(
        "nearpeer experiment suite ({} configs, seed {SEED})",
        if q { "quick" } else { "standard" }
    );

    // A representative swarm build up front, so every suite run leads with
    // the route oracle's tree accounting (the one-tree-per-trace invariant
    // scale_smoke gates in CI).
    let peers = if q { 200 } else { 2_000 };
    let topo =
        mapper(&MapperConfig::with_access(400, peers + peers / 5), SEED).expect("mapper topology");
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

    section("F2", "neighbor quality vs population");
    let quality_cfg = if q {
        quality::QualityConfig::quick()
    } else {
        quality::QualityConfig::paper(args.seeds)
    };
    let result = quality::run(&quality_cfg, args.threads);
    emit("fig2_quality", &result.table(), &result);

    section("C1/C2", "insertion/query complexity scaling");
    let complexity_cfg = if q {
        complexity::ComplexityConfig::quick()
    } else {
        complexity::ComplexityConfig::standard()
    };
    let result = complexity::run(&complexity_cfg);
    emit("complexity_scaling", &result.table(), &result);

    section("C3", "probes-to-accuracy convergence race");
    let convergence_cfg = if q {
        convergence::ConvergenceConfig::quick()
    } else {
        convergence::ConvergenceConfig::standard()
    };
    let result = convergence::run(&convergence_cfg, SEED);
    emit("convergence_race", &result.table(), &result);

    section("W1", "landmark count x placement policy");
    let landmark_cfg = if q {
        landmark_policies::LandmarkStudyConfig::quick()
    } else {
        landmark_policies::LandmarkStudyConfig::standard(args.seeds)
    };
    let result = landmark_policies::run(&landmark_cfg, args.threads);
    emit("landmark_policies", &result.table(), &result);

    section("W2", "super-peer delegation coverage");
    let superpeer_cfg = if q {
        superpeers::SuperPeerStudyConfig::quick()
    } else {
        superpeers::SuperPeerStudyConfig::standard()
    };
    let result = superpeers::run(&superpeer_cfg, SEED);
    emit("superpeers", &result.table(), &result);

    section("W3", "staleness and quality under churn");
    let churn_cfg = if q {
        churn::ChurnStudyConfig::quick()
    } else {
        churn::ChurnStudyConfig::standard()
    };
    let result = churn::run(&churn_cfg, SEED);
    emit("churn_handover", &result.table(), &result);

    section("W4", "probe budget vs neighbor quality");
    let decreased_cfg = if q {
        decreased::DecreasedConfig::quick()
    } else {
        decreased::DecreasedConfig::standard(args.seeds)
    };
    let result = decreased::run(&decreased_cfg, args.threads);
    emit("decreased_traceroute", &result.table(), &result);

    section("A1", "P[dtree = d] per topology family");
    let dtree_cfg = if q {
        dtree::DtreeConfig::quick()
    } else {
        dtree::DtreeConfig::standard(args.seeds)
    };
    let result = dtree::run(&dtree_cfg, args.threads);
    emit("dtree_accuracy", &result.table(), &result);

    section("A2", "streaming setup delay per policy");
    let setup_cfg = if q {
        setup_delay::SetupDelayConfig::quick()
    } else {
        setup_delay::SetupDelayConfig::standard()
    };
    let result = setup_delay::run(&setup_cfg, SEED);
    emit("setup_delay", &result.table(), &result);

    section("MAP", "map-statistics validation");
    let mapping_cfg = if q {
        mapping::MappingConfig::quick()
    } else {
        mapping::MappingConfig::standard()
    };
    let result = mapping::run(&mapping_cfg, SEED, args.threads);
    emit("internet_mapping", &result.table(), &result);

    if let Ok(writer) = ExperimentWriter::new("run_all") {
        let _ = writer.write_text(
            "manifest.txt",
            &format!(
                "suite={} seed={SEED} seeds_per_point={} threads={}\n",
                if q { "quick" } else { "standard" },
                args.seeds,
                args.threads
            ),
        );
        println!("\nartifacts: {}", writer.dir().display());
    }
}
