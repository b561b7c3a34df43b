//! The `sws-top` dashboard renderer: a `top`-style text view over an
//! `sws-obs-snap/v1` JSONL stream.
//!
//! The binary (`src/bin/sws-top.rs`) is a thin shell around
//! [`render_dashboard`], which parses the stream text and renders the
//! *latest* snapshot frame — pool-wide admission and latency state, the
//! alert history, and a per-PE occupancy table. Keeping the renderer in
//! the library makes the dashboard a unit-testable pure function; the
//! bin only handles file IO and the follow loop.

use crate::json::Json;
use crate::snap::SNAP_SCHEMA;

/// Pretty-print a virtual-ns quantity.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{}.{:01}ms", ns / 1_000_000, (ns % 1_000_000) / 100_000)
    } else if ns >= 1_000 {
        format!("{}.{:01}µs", ns / 1_000, (ns % 1_000) / 100)
    } else {
        format!("{ns}ns")
    }
}

fn get_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(|v| v.as_f64())
        .map(|v| v as u64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn get_arr(j: &Json, key: &str) -> Result<Vec<u64>, String> {
    let arr = j
        .get(key)
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("missing array field {key:?}"))?;
    Ok(arr
        .iter()
        .filter_map(|v| v.as_f64())
        .map(|v| v as u64)
        .collect())
}

/// Render the dashboard for the latest frame in `stream_text` (the
/// contents of an `sws-obs-snap/v1` JSONL file). Errors on an empty or
/// schema-incompatible stream.
pub fn render_dashboard(stream_text: &str) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut hdr: Option<Json> = None;
    let mut last_snap: Option<Json> = None;
    let mut snaps = 0usize;
    let mut fires = 0usize;
    let mut clears = 0usize;
    let mut last_alert: Option<(u64, String)> = None;

    for (ln, line) in stream_text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
        match j.get("kind").and_then(|v| v.as_str()) {
            Some("hdr") => {
                let schema = j.get("schema").and_then(|v| v.as_str());
                if schema != Some(SNAP_SCHEMA) {
                    return Err(format!(
                        "unsupported schema {:?} (want {SNAP_SCHEMA:?})",
                        schema.unwrap_or("<none>")
                    ));
                }
                hdr = Some(j);
            }
            Some("snap") => {
                snaps += 1;
                last_snap = Some(j);
            }
            Some("alert") => {
                let event = j
                    .get("event")
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string();
                match event.as_str() {
                    "fire" => fires += 1,
                    "clear" => clears += 1,
                    _ => {}
                }
                last_alert = Some((get_u64(&j, "t_ns")?, event));
            }
            other => return Err(format!("line {}: unknown kind {other:?}", ln + 1)),
        }
    }
    let hdr = hdr.ok_or("no hdr line (is this an sws-obs-snap stream?)")?;
    let snap = last_snap.ok_or("no snap lines yet")?;

    let system = hdr.get("system").and_then(|v| v.as_str()).unwrap_or("?");
    let n_pes = get_u64(&hdr, "n_pes")?;
    let slo = get_u64(&hdr, "slo_p99_ns")?;
    let t_ns = get_u64(&snap, "t_ns")?;
    let alert_state = snap.get("alert").and_then(|v| v.as_str()).unwrap_or("?");
    let occupancy = get_arr(&snap, "occupancy")?;
    let local = get_arr(&snap, "local")?;
    let tasks = get_arr(&snap, "tasks")?;
    let steals = get_arr(&snap, "steals")?;
    let offered = get_u64(&snap, "offered")?;
    let admitted = get_u64(&snap, "admitted")?;
    let shed = get_u64(&snap, "shed")?;
    let deferred = get_u64(&snap, "deferred")?;
    let blocked = get_u64(&snap, "blocked")?;
    let completed = get_u64(&snap, "completed")?;
    let win_n = get_u64(&snap, "win_n")?;
    let win_p50 = get_u64(&snap, "win_p50_ns")?;
    let win_p99 = get_u64(&snap, "win_p99_ns")?;
    let burn = get_u64(&snap, "burn_pct")?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "sws-top — {system} on {n_pes} PEs — t={} — frame {snaps} — alert: {}",
        fmt_ns(t_ns),
        if alert_state == "firing" {
            "FIRING"
        } else {
            "ok"
        }
    );
    let _ = writeln!(
        out,
        "arrivals  offered {offered}  admitted {admitted}  shed {shed}  \
         deferred {deferred}  blocked {blocked}  completed {completed}  \
         in-flight {}",
        admitted.saturating_sub(completed)
    );
    let slo_part = if slo > 0 {
        format!("  burn {burn}% of SLO {}", fmt_ns(slo))
    } else {
        String::new()
    };
    let _ = writeln!(
        out,
        "latency   window n={win_n}  p50 {}  p99 {}{slo_part}",
        fmt_ns(win_p50),
        fmt_ns(win_p99)
    );
    let _ = match &last_alert {
        Some((t, ev)) => writeln!(
            out,
            "alerts    {fires} fired, {clears} cleared (last: {ev} @ {})",
            fmt_ns(*t)
        ),
        None => writeln!(out, "alerts    none"),
    };
    let _ = writeln!(
        out,
        "{:>4} {:>8} {:>7} {:>9} {:>7}  occupancy",
        "PE", "ring", "local", "tasks", "steals"
    );
    let max_occ = occupancy.iter().copied().max().unwrap_or(0).max(1);
    for (pe, &occ) in occupancy.iter().enumerate() {
        let bar_len = (occ * 20 / max_occ) as usize;
        let _ = writeln!(
            out,
            "{:>4} {:>8} {:>7} {:>9} {:>7}  {}",
            pe,
            occ,
            local.get(pe).copied().unwrap_or(0),
            tasks.get(pe).copied().unwrap_or(0),
            steals.get(pe).copied().unwrap_or(0),
            "#".repeat(bar_len)
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::{build_stream, stream_to_jsonl, SloPolicy};
    use sws_sched::report::WorkerStats;
    use sws_sched::snapshot::SnapRow;
    use sws_sched::trace::Pow2Histogram;

    #[test]
    fn renders_a_round_tripped_stream() {
        let mut latency = Pow2Histogram::default();
        for _ in 0..10 {
            latency.record(5_000);
        }
        let rows = vec![SnapRow {
            t_ns: 1_000_000,
            occupancy: 12,
            local: 3,
            tasks_executed: 40,
            steals_won: 6,
            offered: 11,
            admitted: 11,
            completed: 10,
            latency,
            ..SnapRow::default()
        }];
        let report = sws_sched::report::RunReport {
            system: "SWS".to_string(),
            n_pes: 1,
            makespan_ns: 0,
            workers: vec![WorkerStats {
                snapshots: rows,
                ..WorkerStats::default()
            }],
            comm: Default::default(),
            proto: Default::default(),
            wall_ms: 0,
        };
        let policy = SloPolicy::default().with_slo_p99_ns(1_000);
        let stream = build_stream(&report, &policy);
        let text = stream_to_jsonl(&report, &policy, &stream);
        let dash = render_dashboard(&text).expect("renders");
        assert!(dash.contains("SWS on 1 PEs"), "{dash}");
        assert!(dash.contains("alert: FIRING"), "{dash}");
        assert!(dash.contains("in-flight 1"), "{dash}");
        assert!(dash.contains("1 fired"), "{dash}");
    }

    #[test]
    fn rejects_wrong_schema_and_empty_streams() {
        assert!(render_dashboard("").is_err());
        let bad = "{\"schema\":\"sws-obs-snap/v999\",\"kind\":\"hdr\",\
                   \"system\":\"SWS\",\"n_pes\":1,\"slo_p99_ns\":0,\
                   \"window\":3,\"fire_pct\":100,\"clear_pct\":75}\n";
        let err = render_dashboard(bad).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }
}
