//! Integration tests for the `sws-obs-snap/v1` live snapshot stream:
//! per-seed determinism, tick cadence, SLO burn-rate alerting on a real
//! service run, and the JSONL schema golden.
//!
//! These drive `run_service` end to end (arrival source → admission →
//! snapshot pump → stream serialisation), complementing the synthetic
//! per-frame unit tests inside `sws_obs::snap`.

use sws_core::QueueConfig;
use sws_obs::json::Json;
use sws_obs::{build_stream, stream_to_jsonl, AlertKind, SloPolicy, SNAP_SCHEMA};
use sws_sched::{run_service, QueueKind, RunConfig, RunReport, SchedConfig, ServiceConfig};
use sws_workloads::arrivals::{ArrivalPlan, FlatServe};

const INTERVAL: u64 = 50_000;

/// A short 4-PE service run: Poisson arrivals at a ~5µs mean gap over a
/// 300µs horizon, 3µs tasks, one ingress PE, snapshots every 50µs.
fn service_report(kind: QueueKind, seed: u64) -> RunReport {
    let w = FlatServe::new(
        ArrivalPlan::poisson(0x0B5_0001 ^ seed, 5_000, 300_000),
        3_000,
        1,
    );
    let sched = SchedConfig::new(kind, QueueConfig::new(1024, 24)).with_seed(seed);
    run_service(
        &RunConfig::new(4, sched),
        &ServiceConfig::default().with_snapshot_interval(INTERVAL),
        &w,
    )
}

/// Same seed ⇒ byte-identical JSONL stream; the stream is part of the
/// run's deterministic output, not a best-effort side channel.
#[test]
fn stream_is_byte_identical_per_seed() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let policy = SloPolicy::default().with_slo_p99_ns(100_000);
        let texts: Vec<String> = (0..2)
            .map(|_| {
                let r = service_report(kind, 0xBA5E);
                stream_to_jsonl(&r, &policy, &build_stream(&r, &policy))
            })
            .collect();
        assert!(!texts[0].is_empty());
        assert_eq!(texts[0], texts[1], "{kind:?} stream diverged across reruns");
    }
}

/// Frames land exactly on the configured interval grid, strictly
/// increasing, and the cumulative pool counters never go backwards.
#[test]
fn frames_tick_on_the_interval_grid_with_monotone_counters() {
    let report = service_report(QueueKind::Sws, 7);
    let stream = build_stream(&report, &SloPolicy::default());
    assert!(
        stream.frames.len() >= 3,
        "expected several frames, got {}",
        stream.frames.len()
    );
    let mut prev_t = 0u64;
    let mut prev = (0u64, 0u64, 0u64);
    for f in &stream.frames {
        assert!(f.t_ns > prev_t || prev_t == 0, "ticks must increase");
        assert_eq!(f.t_ns % INTERVAL, 0, "tick {} off the grid", f.t_ns);
        assert_eq!(f.occupancy.len(), report.n_pes);
        let cur = (f.offered, f.admitted, f.completed);
        assert!(
            cur.0 >= prev.0 && cur.1 >= prev.1 && cur.2 >= prev.2,
            "counters regressed"
        );
        assert!(
            f.admitted <= f.offered,
            "admitted {} > offered {}",
            f.admitted,
            f.offered
        );
        prev_t = f.t_ns;
        prev = cur;
    }
    // The final frame accounts for the whole run.
    let last = stream.frames.last().unwrap();
    assert_eq!(last.offered, report.total_offered());
    assert_eq!(last.completed, report.completed_arrivals());
}

/// An unmeetable SLO fires exactly once — hysteresis holds the alert
/// without flapping — and a generous SLO never fires at all.
#[test]
fn forced_breach_fires_once_and_healthy_runs_stay_silent() {
    let report = service_report(QueueKind::Sws, 0xBA5E);

    // 1ns SLO: every nonzero window burns at ≥ 100%.
    let breach = build_stream(&report, &SloPolicy::default().with_slo_p99_ns(1));
    let fires = breach
        .alerts
        .iter()
        .filter(|a| a.kind == AlertKind::Fire)
        .count();
    let clears = breach
        .alerts
        .iter()
        .filter(|a| a.kind == AlertKind::Clear)
        .count();
    assert_eq!(fires, 1, "breach must fire exactly once, got {fires}");
    assert_eq!(clears, 0, "latency can never drop under a 1ns SLO");
    assert!(breach.frames.last().unwrap().firing);
    // No flapping: alert kinds must strictly alternate.
    for pair in breach.alerts.windows(2) {
        assert_ne!(pair[0].kind, pair[1].kind, "consecutive identical alerts");
    }

    // 1s SLO: virtual latencies are microseconds; burn stays ~0%.
    let healthy = build_stream(
        &report,
        &SloPolicy::default().with_slo_p99_ns(1_000_000_000),
    );
    assert!(
        healthy.alerts.is_empty(),
        "healthy run alerted: {:?}",
        healthy.alerts
    );
    assert!(healthy.frames.iter().all(|f| !f.firing));
}

/// Batch reports (no service loop) and zero-interval service runs carry
/// no snapshot rows, so the stream degrades to an empty frame list.
#[test]
fn zero_interval_runs_produce_no_frames() {
    let w = FlatServe::new(ArrivalPlan::poisson(0x0B5_0001, 5_000, 100_000), 3_000, 1);
    let sched = SchedConfig::new(QueueKind::Sws, QueueConfig::new(1024, 24));
    let report = run_service(&RunConfig::new(4, sched), &ServiceConfig::default(), &w);
    assert!(report.snapshot_ticks().is_empty());
    let stream = build_stream(&report, &SloPolicy::default());
    assert!(stream.frames.is_empty());
    assert!(stream.alerts.is_empty());
}

const HDR_KEYS: &[&str] = &[
    "schema",
    "kind",
    "system",
    "n_pes",
    "slo_p99_ns",
    "window",
    "fire_pct",
    "clear_pct",
];

const SNAP_KEYS: &[&str] = &[
    "kind",
    "t_ns",
    "occupancy",
    "local",
    "tasks",
    "steals",
    "offered",
    "admitted",
    "shed",
    "deferred",
    "blocked",
    "completed",
    "win_n",
    "win_p50_ns",
    "win_p99_ns",
    "burn_pct",
    "alert",
];

const ALERT_KEYS: &[&str] = &[
    "kind",
    "t_ns",
    "event",
    "win_p99_ns",
    "slo_p99_ns",
    "burn_pct",
];

/// Golden schema: every line of the stream parses as JSON and carries
/// exactly the pinned ordered key set for its kind. Extending the
/// schema means bumping `sws-obs-snap/v1` — this test is the tripwire.
#[test]
fn jsonl_schema_is_golden() {
    let report = service_report(QueueKind::Sws, 0xBA5E);
    let policy = SloPolicy::default().with_slo_p99_ns(1); // force an alert line
    let text = stream_to_jsonl(&report, &policy, &build_stream(&report, &policy));

    let (mut hdrs, mut snaps, mut alerts) = (0, 0, 0);
    for line in text.lines() {
        let j = Json::parse(line).expect("stream line parses");
        match j.get("kind").and_then(|v| v.as_str()) {
            Some("hdr") => {
                hdrs += 1;
                assert_eq!(j.keys(), HDR_KEYS.to_vec(), "hdr schema drifted");
                assert_eq!(j.get("schema").unwrap().as_str(), Some(SNAP_SCHEMA));
            }
            Some("snap") => {
                snaps += 1;
                assert_eq!(j.keys(), SNAP_KEYS.to_vec(), "snap schema drifted");
            }
            Some("alert") => {
                alerts += 1;
                assert_eq!(j.keys(), ALERT_KEYS.to_vec(), "alert schema drifted");
            }
            other => panic!("unknown line kind {other:?}"),
        }
    }
    assert_eq!(hdrs, 1, "exactly one hdr line");
    assert!(snaps >= 3, "expected several snap lines, got {snaps}");
    assert_eq!(alerts, 1, "forced breach emits exactly one alert line");
}

/// A service run with snapshots exports ring-occupancy and in-flight
/// counter tracks into the Chrome trace, and the result still passes
/// the schema validator (counters must be time-monotone per track).
#[test]
fn service_trace_carries_snapshot_counter_tracks() {
    use sws_obs::{chrome_trace, validate_chrome_trace, SpanList, TraceRun};

    let report = service_report(QueueKind::Sws, 0xBA5E);
    let n_ticks = report.snapshot_ticks().len();
    assert!(
        n_ticks >= 3,
        "expected several snapshot ticks, got {n_ticks}"
    );
    let text = chrome_trace(&[TraceRun {
        report: &report,
        spans: &SpanList::default(),
    }]);
    assert!(
        text.contains("\"ring occupancy\""),
        "missing occupancy counter track"
    );
    assert!(
        text.contains("\"in-flight arrivals\""),
        "missing in-flight counter track"
    );
    let stats = validate_chrome_trace(&text).expect("service trace must validate");
    // Idle-PE counters plus one sample per snapshot tick per new track.
    assert!(
        stats.counters >= 2 * n_ticks,
        "expected ≥ {} counter events, got {}",
        2 * n_ticks,
        stats.counters
    );
}

/// The dashboard renders a real service stream (not just the synthetic
/// unit fixture): full producer → JSONL → renderer round trip.
#[test]
fn sws_top_renders_a_real_service_stream() {
    let report = service_report(QueueKind::Sws, 0xBA5E);
    let policy = SloPolicy::default().with_slo_p99_ns(1);
    let text = stream_to_jsonl(&report, &policy, &build_stream(&report, &policy));
    let dash = sws_obs::top::render_dashboard(&text).expect("dashboard renders");
    assert!(dash.contains("SWS on 4 PEs"), "{dash}");
    assert!(dash.contains("alert: FIRING"), "{dash}");
    assert!(dash.contains("1 fired, 0 cleared"), "{dash}");
}
