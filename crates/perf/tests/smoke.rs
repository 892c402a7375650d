//! The `--smoke` profile end to end, inside tier-1: all four workloads
//! against a real `nearpeerd` (2 000 peers, 1 s phases), then the traced
//! ladder of each. Needs the daemon built — `cargo build --release`
//! comes first in the tier-1 command.

use nearpeer_perf::report::contract_line;
use nearpeer_perf::run::run;
use nearpeer_perf::spec::{Profile, Workload, END_TO_END, FAIL_SHARE, PER_LAYER};
use nearpeer_perf::trace::trace;
use std::time::Instant;

#[test]
fn smoke_profile_runs_every_workload_clean() {
    let began = Instant::now();
    let profile = Profile::smoke();
    for workload in Workload::ALL {
        let result = run(workload, 1, &profile).unwrap_or_else(|e| panic!("{e}"));
        assert!(result.tally.attempted > 1_000, "{}", workload.name());
        assert_eq!(
            result.tally.failed(),
            0,
            "{}: {:?}",
            workload.name(),
            result.tally
        );
        // All six end-to-end metrics, by name, every one a real reading.
        for m in &END_TO_END {
            let value = result.end_to_end[m.name];
            assert!(value.is_finite(), "{} {}", workload.name(), m.name);
            assert_eq!(
                value > 0.0,
                m.name != FAIL_SHARE,
                "{} {}",
                workload.name(),
                m.name
            );
        }

        let traced = trace(workload, 1, &profile).unwrap_or_else(|e| panic!("{e}"));
        assert!(traced.spans > 0 && traced.file.is_file());
        let mut layers = result.layers.clone();
        layers.extend(traced.layers);
        for name in layers.keys() {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not a declared layer metric"
            );
        }
        for name in ["wire.rtt_ns", "runtime.handle_ns", "codec.decode_req_ns"] {
            assert!(layers[name] > 0.0, "{} {name}", workload.name());
        }
        // The ladder's own prediction: with one region the runtime adds
        // nothing measurable to a query; with four it adds the fan-out.
        if workload == Workload::Query4r {
            assert!(layers["runtime.self_ns"] > 0.0);
            assert!(layers["federation.regions_per_query"] > 1.0);
        }
        if workload == Workload::Subs1r {
            assert!(layers["subscription.deltas_per_event"] > 0.0);
            // A push waits for the serve loop's idle tick, not for work.
            assert!(result.end_to_end["latency_p50_us"] > 10_000.0);
        }
        let line = contract_line(&result, &PER_LAYER, &layers);
        assert!(line.starts_with("{\"correct\":true,"));
    }
    let took = began.elapsed();
    assert!(took.as_secs() < 60, "smoke took {took:?}");
}
