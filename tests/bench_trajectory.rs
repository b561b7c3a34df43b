//! Every committed trajectory point (`BENCH_<pr>.json` at the workspace
//! root) is well-formed and claims something the benchmark measures.

use sws_obs::json::Json;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

fn load(name: &str) -> Json {
    let path = format!("{ROOT}/{name}");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_trajectory_point_claims_a_workload_and_metric_of_the_benchmark() {
    let spec = load("BENCHMARK.json");
    let named = |list: &str| -> Vec<&str> {
        let items = spec.get(list).and_then(Json::as_arr).expect(list);
        items.iter().filter_map(|i| i.get("name")?.as_str()).collect()
    };
    let points: Vec<String> = std::fs::read_dir(ROOT)
        .expect(ROOT)
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    assert!(!points.is_empty(), "no BENCH_*.json in {ROOT}");
    for point in &points {
        let bench = load(point);
        let claim = bench.get("claim").expect("claim");
        let workload = claim.get("workload").and_then(Json::as_str).expect("claim.workload");
        let metric = claim.get("metric").and_then(Json::as_str).expect("claim.metric");
        assert!(named("workloads").contains(&workload), "{point}: unknown workload {workload}");
        assert!(named("end_to_end").contains(&metric), "{point}: {metric} is not end-to-end");
        // Every workload × end-to-end metric is reported, claimed or not.
        for w in named("workloads") {
            for m in named("end_to_end") {
                let row = bench.get("results").and_then(|r| r.get(w)?.get(m));
                assert!(row.is_some_and(|r| r.get("pairs").is_some()), "{point}: no {w}/{m} row");
            }
        }
    }
}
