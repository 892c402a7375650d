#!/usr/bin/env bash
# The driver's entry point (see BENCHMARK.json): builds the daemon and the
# benchmark from source, then runs one workload once and prints its result
# as the last line of stdout.
#
#   bash crates/perf/bench.sh --workload query_1r --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/../.."
cargo build --release --offline --quiet -p nearpeer-bench --bin nearpeerd >&2
cargo build --release --offline --quiet -p nearpeer-perf --bin perf >&2
exec "${CARGO_TARGET_DIR:-target}/release/perf" bench "$@"
