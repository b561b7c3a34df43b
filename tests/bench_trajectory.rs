//! The committed trajectory point is well-formed and claims something
//! the benchmark measures.

use sws_obs::json::Json;

fn load(name: &str) -> Json {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn bench_18_claims_a_workload_and_metric_of_the_benchmark() {
    let (bench, spec) = (load("BENCH_18.json"), load("BENCHMARK.json"));
    let named = |list: &str| -> Vec<&str> {
        let items = spec.get(list).and_then(Json::as_arr).expect(list);
        items.iter().filter_map(|i| i.get("name")?.as_str()).collect()
    };
    let claim = bench.get("claim").expect("claim");
    let workload = claim.get("workload").and_then(Json::as_str).expect("claim.workload");
    let metric = claim.get("metric").and_then(Json::as_str).expect("claim.metric");
    assert!(named("workloads").contains(&workload), "unknown workload {workload}");
    assert!(named("end_to_end").contains(&metric), "{metric} is not an end-to-end metric");
    // Every workload × end-to-end metric is reported, claimed or not.
    for w in named("workloads") {
        for m in named("end_to_end") {
            let row = bench.get("results").and_then(|r| r.get(w)?.get(m));
            assert!(row.is_some_and(|r| r.get("pairs").is_some()), "no {w}/{m} row");
        }
    }
}
