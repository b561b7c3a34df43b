//! Byte-identity of experiment artifacts.
//!
//! Renders the Fig. 8-style CSV for a small UTS sweep and asserts the
//! artifact is byte-identical across reruns and with the telemetry
//! stack armed — nothing but the configuration and the seeds may move a
//! single digit of any figure CSV. Wall-clock companions (`*_wall.csv`)
//! are exempt.

use sws_bench::{csv_for, run_series, run_series_instrumented, summarize, wall_csv_for, Cell};
use sws_core::QueueConfig;
use sws_sched::QueueKind;
use sws_workloads::uts::{UtsParams, UtsWorkload};

/// A miniature Fig. 8 sweep: both systems at each width, summarized
/// exactly the way `six_panels` builds figure cells.
fn sweep() -> Vec<(usize, Cell, Cell)> {
    let queue = QueueConfig::new(1024, 48);
    let params = UtsParams::geo_small(7);
    [2usize, 4]
        .iter()
        .map(|&pes| {
            let sdc = run_series(QueueKind::Sdc, pes, queue, 2, |_r| UtsWorkload::new(params));
            let sws = run_series(QueueKind::Sws, pes, queue, 2, |_r| UtsWorkload::new(params));
            (pes, summarize(&sdc), summarize(&sws))
        })
        .collect()
}

#[test]
fn csv_rows_are_deterministic_across_reruns() {
    let a = csv_for(&sweep());
    let b = csv_for(&sweep());
    assert!(!a.is_empty() && a.lines().count() == 1 + 2 * 2);
    assert_eq!(a, b, "rerun with identical seeds must be byte-identical");

    // And the artifact on disk round-trips the same bytes.
    let dir = std::path::Path::new("../../target/experiments");
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("differential_check.csv");
    std::fs::write(&path, &a).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), a.as_bytes());
}

#[test]
fn wall_csv_carries_engine_counters() {
    let cells = sweep();
    let wall = wall_csv_for(&cells);
    let mut lines = wall.lines();
    assert_eq!(
        lines.next().unwrap(),
        "pes,system,wall_ms,engine_fast_ops,engine_slow_ops,engine_windows,engine_gate_wait_ns"
    );
    // Every data row reports a live engine: some ops were gated.
    for line in lines {
        let cols: Vec<&str> = line.split(',').collect();
        assert_eq!(cols.len(), 7, "malformed row: {line}");
        let fast: u64 = cols[3].parse().unwrap();
        let slow: u64 = cols[4].parse().unwrap();
        assert!(fast + slow > 0, "no gated ops in row: {line}");
    }
}

/// Arming the full telemetry stack (event tracing + per-op protocol
/// capture) must not perturb a single digit of the figure CSV: same
/// seeds, same cells, byte-identical artifact.
#[test]
fn figure_csv_is_byte_identical_with_telemetry_armed() {
    let queue = QueueConfig::new(1024, 48);
    let params = UtsParams::geo_small(7);
    let instrumented: Vec<(usize, Cell, Cell)> = [2usize, 4]
        .iter()
        .map(|&pes| {
            let sdc = run_series_instrumented(QueueKind::Sdc, pes, queue, 2, |_r| {
                UtsWorkload::new(params)
            });
            let sws = run_series_instrumented(QueueKind::Sws, pes, queue, 2, |_r| {
                UtsWorkload::new(params)
            });
            // The armed runs must actually be capturing.
            assert!(!sdc[0].proto_trace().is_empty());
            assert!(!sws[0].proto_trace().is_empty());
            (pes, summarize(&sdc), summarize(&sws))
        })
        .collect();
    let disarmed = csv_for(&sweep());
    assert_eq!(
        csv_for(&instrumented),
        disarmed,
        "telemetry must be pure observation"
    );
}
