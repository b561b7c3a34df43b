//! `cargo test -p sws-perf`: drive the harness's `--quick` mode
//! in-process (tiny sizes, two repetitions) and hold it to
//! `BENCHMARK.json`: every workload and metric the file names is
//! emitted, nothing else is, and every correctness check passes on two
//! seeds. The timing code is the bench target's own, included by path.

#[allow(dead_code)]
#[path = "../benches/perf/harness/mod.rs"]
mod harness;

use sws_obs::json::Json;
use sws_perf::cli::RunArgs;
use sws_perf::dict;
use sws_perf::spec::{BenchSpec, SpecMetric};
use sws_perf::trace::chrome_trace;

fn spec_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the workspace root")
}

fn quick(workload: &str, seed: u64, trace: bool) -> harness::Outcome {
    let args = RunArgs {
        workload: Some(workload.to_string()),
        seed,
        seconds: 1,
        trace,
        trace_out: None,
        out: None,
        quick: true,
    };
    harness::run_workload(workload, &args).expect("pinning works on the test host")
}

/// The emitted metrics are exactly `want`, names and units, in order.
fn assert_emits(outcome: &harness::Outcome, want: &[SpecMetric]) {
    let r = &outcome.result;
    let got: Vec<(&str, &str)> = r
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    let want: Vec<(&str, &str)> = want
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(
        got, want,
        "{}: emitted metrics differ from BENCHMARK.json",
        r.workload
    );
    assert!(
        r.correct && r.failed == 0,
        "{}: {:?}",
        r.workload,
        r.failures
    );
    assert!(r.attempted >= 1);
    // The contract line is one JSON object with exactly the four keys.
    let line = r.contract_line();
    let v = Json::parse(&line).expect("contract line is JSON");
    assert_eq!(v.keys(), vec!["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("metrics").map(|m| m.keys().len()), Some(want.len()));
}

#[test]
fn benchmark_json_is_the_rendered_dictionary_and_meets_the_contract() {
    let text = spec_text();
    assert_eq!(
        text,
        dict::render_benchmark_json(),
        "regenerate with: cargo bench -p sws-perf --bench perf -- spec > BENCHMARK.json"
    );
    let spec = BenchSpec::parse(&text).expect("parses");
    assert_eq!(spec.validate(text.len()), Vec::<String>::new());
}

#[test]
fn every_workload_emits_exactly_the_end_to_end_metrics_on_two_seeds() {
    let spec = BenchSpec::parse(&spec_text()).unwrap();
    for (workload, _) in &spec.workloads {
        for seed in [1, 2] {
            let outcome = quick(workload, seed, false);
            assert_emits(&outcome, &spec.end_to_end);
            for m in &outcome.result.metrics {
                assert!(m.value > 0.0, "{workload}: {} must never read 0", m.name);
            }
        }
    }
}

#[test]
fn every_workload_emits_exactly_the_per_layer_metrics_and_a_valid_trace() {
    let spec = BenchSpec::parse(&spec_text()).unwrap();
    for (workload, _) in &spec.workloads {
        let outcome = quick(workload, 1, true);
        assert_emits(&outcome, &spec.per_layer);
        let value = |name: &str| outcome.result.metric(name).map(|m| m.value);
        // Paper Table 1, as the benchmark itself measures it.
        assert_eq!(value("core.sws.ops_per_steal"), Some(3.0));
        assert_eq!(value("core.sws.blocking_per_steal"), Some(2.0));
        assert_eq!(value("core.sdc.ops_per_steal"), Some(6.0));
        assert_eq!(value("core.sdc.blocking_per_steal"), Some(5.0));
        assert_eq!(value("harness.fail_share"), Some(0.0));
        // The harness spans form a trace `sws-tracecheck` accepts.
        let stats = sws_obs::validate_chrome_trace(&chrome_trace(&outcome.spans))
            .unwrap_or_else(|e| panic!("{workload}: invalid trace: {e}"));
        assert!(
            stats.complete >= 8,
            "{workload}: only {} spans",
            stats.complete
        );
        assert!(outcome.spans.iter().all(|s| s.workload == *workload));
    }
}

#[test]
fn headline_virtual_results_hold_where_the_paper_claims_them() {
    // SWS beats SDC on makespan and halves steal time where steals
    // matter (quick sizes: the direction, not the magnitude).
    let outcome = quick("uts-wide", 1, true);
    let value = |name: &str| outcome.result.metric(name).map_or(0.0, |m| m.value);
    assert!(value("virt.sws_speedup") > 1.0);
    assert!(value("virt.steal_ratio") > 1.0);
    // And a workload reads 0 where it has no such quantity.
    assert_eq!(value("virt.lat_p99_us"), 0.0);
    assert_eq!(value("check.live.schedules"), 0.0);
}
