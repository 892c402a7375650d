//! Experiment harness regenerating every figure/table of the paper.
//!
//! Each experiment from DESIGN.md §6 is a function in [`experiments`];
//! the `run_all` binary runs them all, or those `--only NAME[,NAME…]`
//! names:
//!
//! | id | name | what it regenerates |
//! |----|------|---------------------|
//! | F2 | `fig2_quality` | `D/Dclosest` and `Drandom/Dclosest` vs number of peers |
//! | C1/C2 | `complexity_scaling` | insertion/query cost vs population |
//! | C3 | `convergence_race` | probes-to-accuracy: path-tree vs Vivaldi vs GNP |
//! | W1 | `landmark_policies` | landmark count × placement sweep |
//! | W2 | `superpeers` | delegation coverage vs promotion threshold |
//! | W3 | `churn_handover` | staleness & quality under churn and mobility |
//! | W4 | `decreased_traceroute` | probe budget vs neighbor quality |
//! | A1 | `dtree_accuracy` | P[dtree = d] per topology family |
//! | A2 | `setup_delay` | end-to-end streaming setup delay per policy |
//! | —  | `internet_mapping` | map-statistics validation (§3 substitution) |
//!
//! `run_all` prints each paper-style table and writes its `result.json`,
//! plus the figure's CSV for F2, C3 and W1, under
//! `target/experiments/<name>/` (override with `NEARPEER_OUT`). It
//! accepts `--quick` for a reduced sweep and `--seeds N` / `--threads N`.
//!
//! The other binaries: `soak` runs the 10⁵–10⁶-peer soaks ([`soak`]):
//! churn, federation mobility, crash/rejoin, subscriptions, or all at
//! once; `nearpeerd` is the wire daemon ([`wire`]), whose load generator
//! and oracle live in `crates/perf`; `scale_smoke`, `churn_preview` and
//! `map_export` build and inspect large swarms and maps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
mod federation;
mod output;
mod runner;
pub mod soak;
mod swarm;
pub mod wire;

pub use federation::{synthetic_federation, synthetic_move_landmark, FederatedSwarm};
pub use output::ExperimentWriter;
pub use runner::run_parallel;
pub use swarm::{
    oracle_stats_line, registry_stats_line, subs_stats_line, sweep_trace_threads, trace_round1,
    BuildPhases, Swarm, SwarmConfig, SyntheticJoins,
};
