//! Live telemetry snapshot stream (`sws-obs-snap/v1`) and SLO
//! burn-rate alerting.
//!
//! Service-mode runs record per-PE [`SnapRow`]s at deterministic
//! virtual-time ticks (`ServiceConfig::snapshot_interval_ns`). This
//! module aggregates those rows into per-tick [`SnapFrame`]s, computes
//! *windowed* latency percentiles by differencing the cumulative
//! histograms a fixed number of frames apart, drives a hysteretic SLO
//! burn-rate alert state machine over them, and serializes everything
//! as a JSONL stream (`one object per line`) that `sws-top` tails:
//!
//! * line 1 — a `kind:"hdr"` header carrying the schema tag, run
//!   identity, and the alert policy;
//! * one `kind:"snap"` line per tick — per-PE occupancy/progress
//!   arrays, pool-wide admission counters, the windowed percentiles,
//!   and the current alert state;
//! * `kind:"alert"` lines interleaved after the snap that fired or
//!   cleared them.
//!
//! Every field is an integer (burn rate is percent, latencies ns), so
//! a given seed always produces a byte-identical stream — pinned by the
//! determinism test in `tests/snapshots.rs`.
//!
//! **Burn rate with hysteresis.** Burn is `windowed p99 / SLO` in
//! percent over the last three frames. The alert fires when burn reaches
//! 100 % and clears only when it falls back to 75 % — a deliberately
//! lower bar, so a burn rate hovering at the fire threshold produces one
//! alert, not a flap storm.

use sws_sched::report::RunReport;
use sws_sched::snapshot::SnapRow;
use sws_sched::trace::Pow2Histogram;

use crate::json::escape;

/// Schema tag carried by the stream header.
pub const SNAP_SCHEMA: &str = "sws-obs-snap/v1";

/// SLO alerting policy for the snapshot stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SloPolicy {
    /// Latency SLO: windowed arrival p99 must stay at or under this,
    /// virtual ns. `0` disables alerting (frames still carry windowed
    /// percentiles).
    pub slo_p99_ns: u64,
}

impl SloPolicy {
    /// Set the latency SLO (0 disables alerting).
    #[must_use]
    pub fn with_slo_p99_ns(mut self, ns: u64) -> SloPolicy {
        self.slo_p99_ns = ns;
        self
    }
}

/// What an [`AlertEvent`] did.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AlertKind {
    /// Burn reached the fire threshold.
    Fire,
    /// Burn fell back to the clear threshold.
    Clear,
}

impl AlertKind {
    /// Stream label (`"fire"` / `"clear"`).
    pub fn label(self) -> &'static str {
        match self {
            AlertKind::Fire => "fire",
            AlertKind::Clear => "clear",
        }
    }
}

/// One alert transition in the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AlertEvent {
    /// Tick that triggered the transition.
    pub t_ns: u64,
    /// Fire or clear.
    pub kind: AlertKind,
    /// The windowed p99 at the transition, ns.
    pub win_p99_ns: u64,
    /// Burn rate at the transition, percent of SLO.
    pub burn_pct: u64,
}

/// One aggregated snapshot tick across the pool.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SnapFrame {
    /// Tick time, virtual ns.
    pub t_ns: u64,
    /// Per-PE shared-ring occupancy (hold-last for stopped PEs).
    pub occupancy: Vec<u64>,
    /// Per-PE owner-local task counts.
    pub local: Vec<u64>,
    /// Per-PE cumulative tasks executed.
    pub tasks: Vec<u64>,
    /// Per-PE cumulative steals won.
    pub steals: Vec<u64>,
    /// Pool-wide cumulative arrivals offered.
    pub offered: u64,
    /// Pool-wide cumulative arrivals admitted.
    pub admitted: u64,
    /// Pool-wide cumulative arrivals shed.
    pub shed: u64,
    /// Pool-wide cumulative arrivals deferred at least once.
    pub deferred: u64,
    /// Pool-wide cumulative arrivals blocked head-of-line.
    pub blocked: u64,
    /// Pool-wide cumulative arrivals completed (latency samples).
    pub completed: u64,
    /// Latency samples inside the burn window.
    pub win_n: u64,
    /// Windowed latency p50, ns (0 when the window is empty).
    pub win_p50_ns: u64,
    /// Windowed latency p99, ns (0 when the window is empty).
    pub win_p99_ns: u64,
    /// Burn rate: windowed p99 as a percentage of the SLO (0 without an
    /// SLO or samples).
    pub burn_pct: u64,
    /// Alert state after processing this frame.
    pub firing: bool,
}

/// The aggregated stream: frames in tick order plus alert transitions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SnapStream {
    /// Aggregated per-tick frames.
    pub frames: Vec<SnapFrame>,
    /// Fire/clear transitions, in tick order.
    pub alerts: Vec<AlertEvent>,
}

/// A PE's latest snapshot row at or before `t` (hold-last; `None`
/// before its first tick).
fn row_at(rows: &[SnapRow], t: u64) -> Option<&SnapRow> {
    let i = rows.partition_point(|r| r.t_ns <= t);
    (i > 0).then(|| &rows[i - 1])
}

/// Burn window length in frames: percentiles are computed over the
/// samples of the last `WINDOW` ticks.
const WINDOW: usize = 3;
/// Fire when burn (windowed p99 as a percentage of the SLO) reaches this.
const FIRE_PCT: u64 = 100;
/// Clear only when burn falls back to this (below `FIRE_PCT`, so the
/// hysteresis bites).
const CLEAR_PCT: u64 = 75;

/// Aggregate `report`'s per-PE snapshot rows into per-tick frames and
/// run the burn-rate state machine over them.
pub fn build_stream(report: &RunReport, policy: &SloPolicy) -> SnapStream {
    let ticks = report.snapshot_ticks();
    let n_pes = report.workers.len();
    // Pool-wide cumulative latency histogram at each tick, for
    // windowed differencing.
    let mut cum_hists: Vec<Pow2Histogram> = Vec::with_capacity(ticks.len());
    let mut frames = Vec::with_capacity(ticks.len());
    let mut alerts = Vec::new();
    let mut firing = false;

    for (fi, &t) in ticks.iter().enumerate() {
        let mut f = SnapFrame {
            t_ns: t,
            occupancy: vec![0; n_pes],
            local: vec![0; n_pes],
            tasks: vec![0; n_pes],
            steals: vec![0; n_pes],
            ..SnapFrame::default()
        };
        let mut cum = Pow2Histogram::default();
        for (pe, w) in report.workers.iter().enumerate() {
            let Some(r) = row_at(&w.snapshots, t) else {
                continue;
            };
            f.occupancy[pe] = r.occupancy;
            f.local[pe] = r.local;
            f.tasks[pe] = r.tasks_executed;
            f.steals[pe] = r.steals_won;
            f.offered += r.offered;
            f.admitted += r.admitted;
            f.shed += r.shed;
            f.deferred += r.deferred;
            f.blocked += r.blocked;
            f.completed += r.completed;
            cum.merge(&r.latency);
        }
        let win = match fi.checked_sub(WINDOW) {
            Some(base) => cum.diff(&cum_hists[base]),
            None => cum.clone(),
        };
        cum_hists.push(cum);
        f.win_n = win.n;
        if win.n > 0 {
            f.win_p50_ns = win.p50();
            f.win_p99_ns = win.p99();
        }
        if policy.slo_p99_ns > 0 && win.n > 0 {
            f.burn_pct = f.win_p99_ns.saturating_mul(100) / policy.slo_p99_ns;
        }
        if policy.slo_p99_ns > 0 {
            if !firing && f.win_n > 0 && f.burn_pct >= FIRE_PCT {
                firing = true;
                alerts.push(AlertEvent {
                    t_ns: t,
                    kind: AlertKind::Fire,
                    win_p99_ns: f.win_p99_ns,
                    burn_pct: f.burn_pct,
                });
            } else if firing && f.win_n > 0 && f.burn_pct <= CLEAR_PCT {
                firing = false;
                alerts.push(AlertEvent {
                    t_ns: t,
                    kind: AlertKind::Clear,
                    win_p99_ns: f.win_p99_ns,
                    burn_pct: f.burn_pct,
                });
            }
        }
        f.firing = firing;
        frames.push(f);
    }
    SnapStream { frames, alerts }
}

fn arr(v: &[u64]) -> String {
    let items: Vec<String> = v.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// Serialize the stream as `sws-obs-snap/v1` JSONL: a header line,
/// one `snap` line per tick, and `alert` lines interleaved after the
/// tick that produced them. All values are integers; the output is
/// byte-identical per seed.
pub fn stream_to_jsonl(report: &RunReport, policy: &SloPolicy, stream: &SnapStream) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"schema\":\"{}\",\"kind\":\"hdr\",\"system\":\"{}\",\"n_pes\":{},\
         \"slo_p99_ns\":{},\"window\":{},\"fire_pct\":{},\"clear_pct\":{}}}",
        SNAP_SCHEMA,
        escape(&report.system),
        report.n_pes,
        policy.slo_p99_ns,
        WINDOW,
        FIRE_PCT,
        CLEAR_PCT
    );
    let mut next_alert = 0usize;
    for f in &stream.frames {
        let _ = writeln!(
            out,
            "{{\"kind\":\"snap\",\"t_ns\":{},\"occupancy\":{},\"local\":{},\
             \"tasks\":{},\"steals\":{},\"offered\":{},\"admitted\":{},\
             \"shed\":{},\"deferred\":{},\"blocked\":{},\"completed\":{},\
             \"win_n\":{},\"win_p50_ns\":{},\"win_p99_ns\":{},\"burn_pct\":{},\
             \"alert\":\"{}\"}}",
            f.t_ns,
            arr(&f.occupancy),
            arr(&f.local),
            arr(&f.tasks),
            arr(&f.steals),
            f.offered,
            f.admitted,
            f.shed,
            f.deferred,
            f.blocked,
            f.completed,
            f.win_n,
            f.win_p50_ns,
            f.win_p99_ns,
            f.burn_pct,
            if f.firing { "firing" } else { "ok" }
        );
        while next_alert < stream.alerts.len() && stream.alerts[next_alert].t_ns <= f.t_ns {
            let a = &stream.alerts[next_alert];
            let _ = writeln!(
                out,
                "{{\"kind\":\"alert\",\"t_ns\":{},\"event\":\"{}\",\
                 \"win_p99_ns\":{},\"slo_p99_ns\":{},\"burn_pct\":{}}}",
                a.t_ns,
                a.kind.label(),
                a.win_p99_ns,
                policy.slo_p99_ns,
                a.burn_pct
            );
            next_alert += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_sched::report::WorkerStats;

    fn report_from_rows(per_pe: Vec<Vec<SnapRow>>) -> RunReport {
        let n = per_pe.len();
        let workers = per_pe
            .into_iter()
            .map(|snapshots| WorkerStats {
                snapshots,
                ..WorkerStats::default()
            })
            .collect();
        RunReport {
            system: "SWS".to_string(),
            n_pes: n,
            makespan_ns: 0,
            workers,
            comm: Default::default(),
            proto: Default::default(),
            wall_ms: 0,
        }
    }

    fn row(t: u64, lat_samples: &[u64]) -> SnapRow {
        let mut latency = Pow2Histogram::default();
        for &s in lat_samples {
            latency.record(s);
        }
        SnapRow {
            t_ns: t,
            completed: latency.n,
            latency,
            ..SnapRow::default()
        }
    }

    /// Rows of one PE whose cumulative latency grows by `batches`, one
    /// batch a tick of 100 ns.
    fn rows_of(batches: &[(u64, usize)]) -> Vec<SnapRow> {
        let mut samples: Vec<u64> = Vec::new();
        let mut rows = Vec::new();
        for (tick, &(sample, count)) in (1u64..).zip(batches) {
            samples.extend(std::iter::repeat_n(sample, count));
            rows.push(row(tick * 100, &samples));
        }
        rows
    }

    #[test]
    fn breach_fires_once_and_clears_with_hysteresis() {
        // Tick 1 adds slow samples (p99 1024 ns breaches a 100 ns SLO),
        // ticks 2-5 only fast ones (p99 16 ns): the alert fires on the
        // first frame, holds while the slow samples are in the 3-frame
        // window, and clears on the first frame they have left it.
        let rows = rows_of(&[(1_000, 4), (10, 4), (10, 4), (10, 4), (10, 4)]);
        let report = report_from_rows(vec![rows]);
        let s = build_stream(&report, &SloPolicy::default().with_slo_p99_ns(100));
        assert_eq!(s.frames.len(), 5);
        let kinds: Vec<AlertKind> = s.alerts.iter().map(|a| a.kind).collect();
        assert_eq!(kinds, vec![AlertKind::Fire, AlertKind::Clear]);
        assert_eq!(s.alerts[0].t_ns, 100, "fires on the first breached frame");
        assert_eq!(s.alerts[1].t_ns, 400, "clears when the window turns fast");
        assert!(s.frames[..3].iter().all(|f| f.firing));
        assert!(!s.frames[3].firing && !s.frames[4].firing);
    }

    #[test]
    fn hysteresis_holds_between_clear_and_fire_thresholds() {
        // After a breach the window holds only 100 ns samples: p99 128
        // ns is 85 % of a 150 ns SLO, between clear (75 %) and fire
        // (100 %), so the alert stays up (no clear, no re-fire).
        let rows = rows_of(&[(1_000, 4), (100, 4), (100, 4), (100, 4), (100, 4)]);
        let report = report_from_rows(vec![rows]);
        let s = build_stream(&report, &SloPolicy::default().with_slo_p99_ns(150));
        assert_eq!(s.frames[4].burn_pct, 85);
        assert_eq!(s.alerts.len(), 1, "one fire, held: {:?}", s.alerts);
        assert_eq!(s.alerts[0].kind, AlertKind::Fire);
        assert!(s.frames.iter().all(|f| f.firing));
    }

    #[test]
    fn no_slo_means_no_alerts_but_frames_still_carry_percentiles() {
        let rows = vec![row(100, &[50, 60, 70])];
        let report = report_from_rows(vec![rows]);
        let s = build_stream(&report, &SloPolicy::default());
        assert!(s.alerts.is_empty());
        assert_eq!(s.frames[0].win_n, 3);
        assert!(s.frames[0].win_p99_ns > 0);
        assert_eq!(s.frames[0].burn_pct, 0);
    }

    #[test]
    fn jsonl_lines_parse_and_interleave_alerts() {
        let rows = vec![row(100, &[1_000; 4]), row(200, &[1_000; 8])];
        let report = report_from_rows(vec![rows]);
        let policy = SloPolicy::default().with_slo_p99_ns(10);
        let s = build_stream(&report, &policy);
        let text = stream_to_jsonl(&report, &policy, &s);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 4, "hdr + 2 snaps + 1 alert: {text}");
        let hdr = crate::json::Json::parse(lines[0]).expect("hdr parses");
        assert_eq!(
            hdr.get("schema").and_then(|v| v.as_str()),
            Some(SNAP_SCHEMA)
        );
        // The fire alert line follows the first snap line.
        let snap = crate::json::Json::parse(lines[1]).expect("snap parses");
        assert_eq!(snap.get("kind").and_then(|v| v.as_str()), Some("snap"));
        assert_eq!(snap.get("alert").and_then(|v| v.as_str()), Some("firing"));
        let alert = crate::json::Json::parse(lines[2]).expect("alert parses");
        assert_eq!(alert.get("kind").and_then(|v| v.as_str()), Some("alert"));
        assert_eq!(alert.get("event").and_then(|v| v.as_str()), Some("fire"));
    }

    #[test]
    fn stopped_pes_hold_their_last_row() {
        // PE 1 stops snapshotting after t=100; at t=200 its last row
        // still contributes to the aggregate.
        let pe0 = vec![row(100, &[10]), row(200, &[10, 10])];
        let mut r1 = row(100, &[20]);
        r1.occupancy = 7;
        let report = report_from_rows(vec![pe0, vec![r1]]);
        let s = build_stream(&report, &SloPolicy::default());
        assert_eq!(s.frames.len(), 2);
        assert_eq!(s.frames[1].occupancy[1], 7);
        assert_eq!(s.frames[1].completed, 2 + 1);
    }
}
