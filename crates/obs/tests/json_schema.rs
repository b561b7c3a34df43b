//! Golden schema test for the machine-readable report.
//!
//! `sws-run --json` must be a *superset* of the text report: every
//! figure the human-readable path prints (summary, fault, and engine
//! lines) has a JSON counterpart. The exact key sets below are the
//! contract — extending them is fine, dropping or renaming is a
//! breaking change and must fail here.

use sws_core::QueueConfig;
use sws_obs::json::Json;
use sws_obs::{check_comms, comm_report_to_json, report_to_json, stitch_report};
use sws_sched::{run_workload, QueueKind, RunConfig, RunReport, SchedConfig};
use sws_shmem::{FaultPlan, OpClass, TargetSel};
use sws_workloads::uts::{UtsParams, UtsWorkload};

fn run(kind: QueueKind, faults: bool) -> RunReport {
    let sched = SchedConfig::new(kind, QueueConfig::new(1024, 48)).with_seed(0xBA5E);
    let mut cfg = RunConfig::new(4, sched).with_capture_proto();
    if faults {
        cfg = cfg.with_faults(FaultPlan::seeded(0xFA17).with_drop(
            OpClass::All,
            TargetSel::Any,
            0.02,
        ));
    }
    run_workload(&cfg, &UtsWorkload::new(UtsParams::geo_small(7)))
}

const TOP_KEYS: &[&str] = &[
    "system",
    "pes",
    "makespan_ns",
    "tasks",
    "throughput_per_s",
    "efficiency",
    "steals",
    "steal_ns",
    "search_ns",
    "task_ns",
    "mean_steal_op_ns",
    "comm_ops",
    "comm_bytes",
    "wall_ms",
    "engine_fast_ops",
    "engine_slow_ops",
    "engine_windows",
    "engine_gate_wait_ns",
    "engine",
    "comm",
    "faults",
    "service",
];

const ENGINE_KEYS: &[&str] = &[
    "fast_ops",
    "slow_ops",
    "windows",
    "gate_wait_ns",
    "gated_ops",
    "fast_fraction",
];

const COMM_KEYS: &[&str] = &[
    "total_ops",
    "data_ops",
    "blocking_ops",
    "total_bytes",
    "total_failed",
    "comm_ns",
    "ops",
    "bytes",
    "failed",
];

const FAULT_KEYS: &[&str] = &[
    "retries",
    "failed",
    "aborted",
    "poisoned",
    "reclaimed",
    "quarantined",
    "crashed_pes",
];

const SERVICE_KEYS: &[&str] = &[
    "offered",
    "admitted",
    "shed",
    "shed_rate",
    "deferred",
    "blocked",
    "admission_wait_ns",
    "completed",
    "in_flight",
    "conserved",
    "parks",
    "rejoins",
    "readmitted",
    "latency_p50_ns",
    "latency_p95_ns",
    "latency_p99_ns",
];

#[test]
fn report_json_schema_is_golden() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let report = run(kind, false);
        let doc = Json::parse(&report_to_json(&report)).expect("report JSON parses");
        assert_eq!(doc.keys(), TOP_KEYS.to_vec(), "top-level schema drifted");
        assert_eq!(doc.get("engine").unwrap().keys(), ENGINE_KEYS.to_vec());
        assert_eq!(doc.get("comm").unwrap().keys(), COMM_KEYS.to_vec());
        assert_eq!(doc.get("faults").unwrap().keys(), FAULT_KEYS.to_vec());
        assert_eq!(doc.get("service").unwrap().keys(), SERVICE_KEYS.to_vec());
    }
}

/// A service run's JSON carries the admission/latency figures and the
/// conservation verdict; a batch run reports a trivially-conserved
/// all-zero service object (the schema is unconditional).
#[test]
fn service_json_carries_admission_and_latency_figures() {
    use sws_sched::{run_service, ServiceConfig};
    use sws_workloads::arrivals::{ArrivalPlan, FlatServe};

    let w = FlatServe::new(ArrivalPlan::poisson(0x0B5_0001, 5_000, 300_000), 3_000, 1);
    let sched = SchedConfig::new(QueueKind::Sws, QueueConfig::new(1024, 24));
    let report = run_service(&RunConfig::new(4, sched), &ServiceConfig::default(), &w);
    let doc = Json::parse(&report_to_json(&report)).expect("service JSON parses");
    let svc = doc.get("service").unwrap();
    let num = |k: &str| svc.get(k).unwrap().as_f64().unwrap() as u64;
    assert_eq!(num("offered"), report.total_offered());
    assert_eq!(num("admitted"), report.total_admitted());
    assert_eq!(num("completed"), report.completed_arrivals());
    assert_eq!(num("in_flight"), 0);
    assert_eq!(num("latency_p99_ns"), report.service_latency().p99());
    assert_eq!(svc.get("conserved").unwrap(), &Json::Bool(true));

    // Batch runs keep the same schema with zeroed counters.
    let batch = run(QueueKind::Sws, false);
    let doc = Json::parse(&report_to_json(&batch)).expect("batch JSON parses");
    let svc = doc.get("service").unwrap();
    assert_eq!(svc.get("offered").unwrap().as_f64(), Some(0.0));
    assert_eq!(svc.get("conserved").unwrap(), &Json::Bool(true));
}

/// The values behind the text report's headline figures must round-trip
/// into the JSON superset — including the engine and fault numbers the
/// old JSON emitter omitted.
#[test]
fn json_superset_carries_text_report_figures() {
    let report = run(QueueKind::Sws, true);
    let doc = Json::parse(&report_to_json(&report)).expect("report JSON parses");

    let num = |path: &[&str]| -> u64 {
        let mut v = &doc;
        for k in path {
            v = v.get(k).unwrap_or_else(|| panic!("missing key {k}"));
        }
        v.as_f64()
            .unwrap_or_else(|| panic!("{path:?} not a number")) as u64
    };

    assert_eq!(num(&["makespan_ns"]), report.makespan_ns);
    assert_eq!(num(&["tasks"]), report.total_tasks());
    assert_eq!(num(&["steals"]), report.total_steals());
    assert_eq!(num(&["task_ns"]), report.total_task_ns());
    let e = report.total_engine();
    assert_eq!(num(&["engine", "gated_ops"]), e.gated_ops());
    assert_eq!(num(&["engine", "windows"]), e.windows);
    assert_eq!(num(&["faults", "retries"]), report.total_steal_retries());
    assert_eq!(num(&["faults", "aborted"]), report.total_steals_aborted());
    assert_eq!(
        num(&["comm", "blocking_ops"]),
        report.total_comm().blocking_ops()
    );
    assert_eq!(num(&["comm", "comm_ns"]), report.total_comm().comm_ns);
    // A fault run actually has fault figures to carry.
    assert!(num(&["faults", "retries"]) + num(&["faults", "failed"]) > 0);
}

#[test]
fn comm_report_json_parses_and_carries_budget() {
    let report = run(QueueKind::Sdc, false);
    let spans = stitch_report(&report, &QueueConfig::new(1024, 48));
    let comm = check_comms(&spans, false);
    let doc = Json::parse(&comm_report_to_json(&comm)).expect("comm JSON parses");
    assert_eq!(doc.get("system").unwrap().as_str(), Some("SDC"));
    assert_eq!(doc.get("budget_ops").unwrap().as_f64(), Some(6.0));
    assert_eq!(doc.get("budget_blocking").unwrap().as_f64(), Some(5.0));
    assert_eq!(doc.get("ok").unwrap(), &Json::Bool(true));
    assert_eq!(
        doc.get("completed").unwrap().as_f64().unwrap() as u64,
        comm.completed
    );
}

/// `Json::parse` once validated the whole remaining input for every
/// ordinary character of a string: 15 s for a 1.3 MB trace, and this
/// document would not finish. The watchdog (the `under_watchdog` pattern
/// of `crates/sched/tests/chaos.rs`) turns that into a named failure
/// instead of a wall-clock assertion.
#[test]
fn a_four_megabyte_string_heavy_document_parses_to_what_was_written() {
    // (JSON text, the value it denotes): every escape the parser knows,
    // plain runs, and 2-, 3- and 4-byte scalars.
    const PIECES: [(&str, &str); 16] = [
        ("steal-empty", "steal-empty"),
        (r#"\""#, "\""),
        ("é", "é"),
        (r"\\", "\\"),
        (r"\/", "/"),
        ("→ PE 15", "→ PE 15"),
        (r"\n", "\n"),
        (r"\r", "\r"),
        ("𝄞", "𝄞"),
        (r"\t", "\t"),
        (r"\b", "\u{8}"),
        ("SwsStealvalFetchAdd", "SwsStealvalFetchAdd"),
        (r"\f", "\u{c}"),
        (r"\u00e9", "é"),
        (r"\u0001", "\u{1}"),
        ("/", "/"),
    ];
    let mut doc = String::from("[");
    let mut want = Vec::new();
    while doc.len() < 4 << 20 {
        let i = want.len();
        let (mut text, mut value) = (String::new(), String::new());
        for k in 0..9 {
            let (t, v) = PIECES[(i + k * 7) % PIECES.len()];
            text.push_str(t);
            value.push_str(v);
        }
        let comma = if i > 0 { "," } else { "" };
        doc.push_str(&format!("{comma}{{\"{text}\": \"{text}\", \"n\": {i}}}"));
        want.push(value);
    }
    doc.push(']');

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(Json::parse(&doc)));
    let parsed = match rx.recv_timeout(std::time::Duration::from_secs(30)) {
        Ok(parsed) => parsed.expect("the document is valid JSON"),
        Err(e) => panic!("a 4 MB document did not parse within 30 s ({e}): quadratic again?"),
    };
    let items = parsed.as_arr().expect("an array");
    assert_eq!(items.len(), want.len());
    for (i, (item, value)) in items.iter().zip(&want).enumerate() {
        let members = item.as_obj().expect("an object");
        assert_eq!(members[0].0, *value, "key of item {i}");
        assert_eq!(
            members[0].1.as_str(),
            Some(value.as_str()),
            "string of item {i}"
        );
        assert_eq!(members[1].1.as_f64(), Some(i as f64));
    }
}
