//! Chrome-trace / Perfetto JSON export.
//!
//! [`chrome_trace`] turns one or more finished runs into a JSON Array
//! Format trace (`{"traceEvents": […]}`) that ui.perfetto.dev and
//! `chrome://tracing` open directly:
//!
//! * one **process** per run (`pid` = run index + 1, named after the
//!   system under test, e.g. "SWS" / "SDC"),
//! * one **thread track** per PE (`tid` = PE rank),
//! * each stitched steal span as a duration (`ph:"X"`) slice with its
//!   protocol phases as nested child slices,
//! * scheduler lifecycle events (releases, acquires, quarantines,
//!   crash-stops) as instants (`ph:"i"`),
//! * the number of idle PEs as a per-process counter track (`ph:"C"`).
//!
//! All timestamps are the run's *virtual* nanoseconds, emitted in
//! microseconds with three decimals (exact — no rounding loss).
//!
//! The export writes one track (`tid`) after another, each as a merge
//! of sources that are already in track order, `(ts, longer duration
//! first)`: the thief's spans in list order, each followed by its phases;
//! the PE's scheduler instants; on `tid` 0, the idle counter and then the
//! snapshot counters. Ties go to the earlier source, so the merge yields
//! what a stable sort of the sources laid end to end yields; a source
//! found out of order (only hand-built inputs are) is merged from a
//! stably sorted copy. Each event is a `Copy` record — two timestamps, a
//! `&'static str` name and a typed `Kind` where the text would be — made
//! as the merge asks for it and written straight into one `String`,
//! integers and the `µs.nnn` stamps digit by digit, so no buffer holds
//! the events. The bytes are pinned by `export_results_are_pinned`
//! (`tests/spans.rs`).
//!
//! [`validate_chrome_trace`] re-parses an emitted trace and checks the
//! schema invariants CI relies on: well-formed JSON, required keys per
//! phase type, non-negative durations, and per-track monotone
//! timestamps.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::iter;

use sws_core::AtomicSite;
use sws_sched::report::RunReport;
use sws_sched::trace::{Event, EventKind, ProtoOp};
use sws_shmem::proto::{merge_ordered, ordered};

use crate::json::{escape, Json};
use crate::span::SpanList;

/// One run to export: the report plus its stitched spans.
pub struct TraceRun<'a> {
    /// The finished run.
    pub report: &'a RunReport,
    /// Spans stitched from the run's proto capture (may be empty).
    pub spans: &'a SpanList,
}

/// What a trace event is beyond its name and its place on a track: the
/// phase type, the category and the `args` object follow from it, and
/// none of it is text until the event is written.
#[derive(Copy, Clone)]
enum Kind {
    /// `ph:"X"`, `cat:"steal"`: a stitched span and its totals.
    Steal {
        victim: u32,
        ops: u64,
        blocking: u64,
        tasks: u64,
    },
    /// `ph:"X"`, `cat:"phase"`: one protocol op nested in its span.
    Phase {
        site: AtomicSite,
        op: ProtoOp,
        blocking: bool,
    },
    /// `ph:"i"`, `cat:"sched"`: a scheduler event and its one operand.
    Instant(Option<(&'static str, u32)>),
    /// `ph:"C"`: a counter sample, as sign and magnitude (the idle count
    /// is signed, the snapshot sums are `u64`).
    Counter {
        key: &'static str,
        negative: bool,
        value: u64,
    },
}

/// One trace event as plain data.
#[derive(Copy, Clone)]
struct Rec {
    ts_ns: u64,
    /// 0 for instants and counters, which have no `dur`.
    dur_ns: u64,
    /// A literal of the site catalog or of this file: written unescaped.
    name: &'static str,
    kind: Kind,
}

/// The order within a track: by timestamp, a parent slice before the
/// children that start with it.
fn track_key(r: &Rec) -> (u64, Reverse<u64>) {
    (r.ts_ns, Reverse(r.dur_ns))
}

/// A counter sample on `tid` 0.
fn counter(ts_ns: u64, name: &'static str, key: &'static str, negative: bool, value: u64) -> Rec {
    Rec {
        ts_ns,
        dur_ns: 0,
        name,
        kind: Kind::Counter {
            key,
            negative,
            value,
        },
    }
}

/// What a scheduler event shows on its PE's track: an instant with at
/// most one operand, or nothing (idle changes feed the idle counter).
fn instant(e: &Event) -> Option<Rec> {
    let (name, operand) = match e.kind {
        EventKind::Release { exposed } => ("release", Some(("exposed", exposed))),
        EventKind::AcquireHit { recovered } => ("acquire-hit", Some(("recovered", recovered))),
        EventKind::AcquireMiss => ("acquire-miss", None),
        EventKind::Quarantined { victim } => ("quarantine", Some(("victim", victim))),
        EventKind::CrashStop => ("crash-stop", None),
        _ => return None,
    };
    Some(Rec {
        ts_ns: e.t_ns,
        dur_ns: 0,
        name,
        kind: Kind::Instant(operand),
    })
}

/// The `idle PEs` counter: every PE's idle enters (+1) and exits (−1)
/// merged by `(time, delta)`, and the running count after each.
fn idle_counter(report: &RunReport) -> impl Iterator<Item = Rec> + '_ {
    let deltas = report.workers.iter().map(|w| {
        let steps = w.events.iter().filter_map(|e| match e.kind {
            EventKind::EnterIdle => Some((e.t_ns, 1)),
            EventKind::ExitIdle => Some((e.t_ns, -1)),
            _ => None,
        });
        ordered(steps, |&d: &(u64, i64)| d)
    });
    merge_ordered(deltas.collect(), |&d| d).scan(0, |idle, (t, d)| {
        *idle += d;
        Some(counter(
            t,
            "idle PEs",
            "idle",
            *idle < 0,
            idle.unsigned_abs(),
        ))
    })
}

/// Service telemetry counter tracks from the snapshot stream (present
/// when the run set `ServiceConfig::snapshot_interval_ns`): pool-wide
/// ring occupancy and in-flight admitted arrivals, sampled at the
/// deterministic tick times. Each PE contributes its latest row at or
/// before the tick, so PEs that stopped early (crash-stop) hold their
/// last value instead of dropping out of the aggregate.
fn snapshot_counters<'a>(
    report: &'a RunReport,
    ticks: &'a [u64],
) -> impl Iterator<Item = Rec> + 'a {
    ticks.iter().flat_map(move |&t| {
        let (mut occupancy, mut admitted, mut completed) = (0u64, 0u64, 0u64);
        for w in &report.workers {
            let i = w.snapshots.partition_point(|r| r.t_ns <= t);
            if let Some(r) = i.checked_sub(1).map(|i| &w.snapshots[i]) {
                occupancy += r.occupancy + r.local;
                admitted += r.admitted;
                completed += r.completed;
            }
        }
        let in_flight = admitted.saturating_sub(completed);
        [
            counter(t, "ring occupancy", "tasks", false, occupancy),
            counter(t, "in-flight arrivals", "tasks", false, in_flight),
        ]
    })
}

/// Append `label`, then `v` in decimal.
fn push_int(out: &mut String, label: &str, mut v: u64) {
    out.push_str(label);
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] += (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| d as char));
}

/// Append `label`, then `ns` as microseconds with three decimals:
/// exact, 1 ns = 0.001 µs.
fn push_us(out: &mut String, label: &str, ns: u64) {
    push_int(out, label, ns / 1000);
    let frac = ns % 1000;
    push_int(
        out,
        if frac < 10 {
            ".00"
        } else if frac < 100 {
            ".0"
        } else {
            "."
        },
        frac,
    );
}

/// Write one event; `place` is its `"pid":…,"tid":…` fragment.
fn write(out: &mut String, place: &str, r: Rec) {
    debug_assert_eq!(escape(r.name), r.name);
    out.push_str(",\n{\"name\":\"");
    out.push_str(r.name);
    out.push_str(match r.kind {
        Kind::Steal { .. } | Kind::Phase { .. } => "\",\"ph\":\"X",
        Kind::Instant(_) => "\",\"ph\":\"i",
        Kind::Counter { .. } => "\",\"ph\":\"C",
    });
    out.push_str(place);
    push_us(out, ",\"ts\":", r.ts_ns);
    match r.kind {
        Kind::Steal {
            victim,
            ops,
            blocking,
            tasks,
        } => {
            push_us(out, ",\"dur\":", r.dur_ns);
            push_int(
                out,
                ",\"cat\":\"steal\",\"args\":{\"victim\":",
                victim.into(),
            );
            push_int(out, ",\"ops\":", ops);
            push_int(out, ",\"blocking\":", blocking);
            push_int(out, ",\"tasks\":", tasks);
            out.push_str("}}");
        }
        Kind::Phase { site, op, blocking } => {
            push_us(out, ",\"dur\":", r.dur_ns);
            out.push_str(",\"cat\":\"phase\",\"args\":{\"site\":\"");
            out.push_str(site.name());
            out.push_str("\",\"op\":\"");
            out.push_str(op.name());
            out.push_str("\",\"blocking\":");
            out.push_str(if blocking { "true}}" } else { "false}}" });
        }
        Kind::Instant(None) => out.push_str(",\"cat\":\"sched\",\"s\":\"t\"}"),
        Kind::Instant(Some((key, value))) => {
            out.push_str(",\"cat\":\"sched\",\"s\":\"t\",\"args\":{\"");
            out.push_str(key);
            push_int(out, "\":", value.into());
            out.push_str("}}");
        }
        Kind::Counter {
            key,
            negative,
            value,
        } => {
            out.push_str(",\"args\":{\"");
            out.push_str(key);
            push_int(out, if negative { "\":-" } else { "\":" }, value);
            out.push_str("}}");
        }
    }
}

/// Export `runs` as a Chrome-trace JSON document: the metadata records,
/// then run by run and track by track, each track the merge of its
/// ordered sources written as it is made.
pub fn chrome_trace(runs: &[TraceRun]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut sep = "";
    for (pid, run) in (1u64..).zip(runs) {
        out.push_str(sep);
        sep = ",\n";
        push_int(
            &mut out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":",
            pid,
        );
        out.push_str(",\"tid\":0,\"args\":{\"name\":\"");
        out.push_str(&escape(&run.report.system));
        out.push_str("\"}}");
        for pe in 0..run.report.n_pes as u64 {
            push_int(
                &mut out,
                ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":",
                pid,
            );
            push_int(&mut out, ",\"tid\":", pe);
            push_int(&mut out, ",\"args\":{\"name\":\"PE ", pe);
            out.push_str("\"}}");
        }
    }

    for (pid, run) in (1u64..).zip(runs) {
        let (report, spans) = (run.report, run.spans);
        let ticks = report.snapshot_ticks();
        // 128 bytes is the typical event, and the count is bounded by
        // the spans, their phases, the scheduler events and two counters
        // per tick; a document that outgrows the estimate regrows.
        let events: usize = report.workers.iter().map(|w| w.events.len()).sum();
        out.reserve(128 * (spans.len() + spans.all_phases().len() + events + 2 * ticks.len()));
        // Each thief's spans in list order, thief after thief.
        let mut by_thief: Vec<u32> = (0..spans.len() as u32).collect();
        by_thief.sort_by_key(|&i| spans[i as usize].thief);
        let mut by_thief = &by_thief[..];
        let tids = spans
            .iter()
            .map(|s| s.thief as usize + 1)
            .fold(report.workers.len(), usize::max);
        for tid in 0..tids {
            let mine = by_thief.partition_point(|&i| spans[i as usize].thief as usize == tid);
            let (ids, rest) = by_thief.split_at(mine);
            by_thief = rest;
            let slices = ids.iter().flat_map(|&i| {
                let s = &spans[i as usize];
                let (ops, blocking) = (s.ops(), s.blocking_ops());
                let kind = Kind::Steal {
                    victim: s.victim,
                    ops,
                    blocking,
                    tasks: s.tasks(),
                };
                let parent = Rec {
                    ts_ns: s.start_ns,
                    dur_ns: s.latency_ns(),
                    name: s.outcome.label(),
                    kind,
                };
                // Nested phase slices — none for single-op spans, where
                // the parent slice already tells the whole story.
                let phases = spans.phases(s);
                let nested = if phases.len() > 1 { phases } else { &[] };
                iter::once(parent).chain(nested.iter().map(|p| {
                    let kind = Kind::Phase {
                        site: p.site,
                        op: p.op,
                        blocking: p.blocking,
                    };
                    Rec {
                        ts_ns: p.t_ns,
                        dur_ns: p.dur_ns,
                        name: p.name,
                        kind,
                    }
                }))
            });
            let events = report.workers.get(tid).map_or(&[][..], |w| &w.events[..]);
            let mut sources = vec![
                ordered(slices, track_key),
                ordered(events.iter().filter_map(instant), track_key),
            ];
            if tid == 0 {
                sources.push(Box::new(idle_counter(report)));
                sources.push(Box::new(snapshot_counters(report, &ticks)));
            }
            let mut place = String::new();
            push_int(&mut place, "\",\"pid\":", pid);
            push_int(&mut place, ",\"tid\":", tid as u64);
            for r in merge_ordered(sources, track_key) {
                write(&mut out, &place, r);
            }
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// Summary counts returned by a successful validation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// All events, including metadata.
    pub events: usize,
    /// Complete (`ph:"X"`) duration slices.
    pub complete: usize,
    /// Instant events.
    pub instants: usize,
    /// Counter samples.
    pub counters: usize,
    /// Metadata records.
    pub metadata: usize,
    /// Distinct `(pid, tid)` tracks carrying slices or instants.
    pub tracks: usize,
}

/// Validate an emitted trace against the Chrome trace event schema:
/// well-formed JSON with a `traceEvents` array; every event carries
/// `name`/`ph`/`pid`/`tid` (plus `ts` for non-metadata and a
/// non-negative `dur` for `"X"`); timestamps are monotone
/// non-decreasing per `(pid, tid)` track and per `(pid, name)` counter
/// series.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("missing traceEvents array")?;
    let mut stats = TraceStats::default();
    let mut track_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut counter_ts: BTreeMap<(u64, &str), f64> = BTreeMap::new();

    for (i, e) in events.iter().enumerate() {
        stats.events += 1;
        let ctx = |what: &str| format!("event {i}: {what}");
        let ph = e
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| ctx("missing ph"))?;
        let name = e
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| ctx("missing name"))?;
        let pid = e
            .get("pid")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| ctx("missing pid"))? as u64;
        let tid = e
            .get("tid")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| ctx("missing tid"))? as u64;
        match ph {
            "M" => {
                stats.metadata += 1;
                continue;
            }
            "X" | "i" | "C" | "B" | "E" => {}
            other => return Err(ctx(&format!("unsupported ph {other:?}"))),
        }
        let ts = e
            .get("ts")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| ctx("missing ts"))?;
        match ph {
            "X" => {
                stats.complete += 1;
                let dur = e
                    .get("dur")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| ctx("X event missing dur"))?;
                if dur < 0.0 {
                    return Err(ctx(&format!("negative dur {dur}")));
                }
            }
            "i" => stats.instants += 1,
            "C" => stats.counters += 1,
            _ => {}
        }
        if ph == "C" {
            let key = (pid, name);
            if let Some(&last) = counter_ts.get(&key) {
                if ts < last {
                    return Err(ctx(&format!(
                        "counter {name:?} timestamp regressed: {ts} < {last}"
                    )));
                }
            }
            counter_ts.insert(key, ts);
        } else {
            let key = (pid, tid);
            if let Some(&last) = track_ts.get(&key) {
                if ts < last {
                    return Err(ctx(&format!(
                        "track (pid {pid}, tid {tid}) timestamp regressed: {ts} < {last}"
                    )));
                }
            }
            track_ts.insert(key, ts);
        }
    }
    stats.tracks = track_ts.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_shmem::rng::SplitMix64;

    #[test]
    fn validator_accepts_minimal_trace() {
        let text = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"SWS"}},
            {"name":"steal","ph":"X","pid":1,"tid":0,"ts":1.000,"dur":2.000},
            {"name":"claim","ph":"X","pid":1,"tid":0,"ts":1.000,"dur":1.000},
            {"name":"release","ph":"i","pid":1,"tid":0,"ts":5.000,"s":"t"},
            {"name":"idle PEs","ph":"C","pid":1,"tid":0,"ts":0.500,"args":{"idle":1}}
        ]}"#;
        let stats = validate_chrome_trace(text).expect("valid");
        assert_eq!(stats.complete, 2);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.metadata, 1);
        assert_eq!(stats.tracks, 1);
    }

    #[test]
    fn validator_rejects_regressions_and_malformed() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace(r#"{"other":[]}"#).is_err());
        let regress = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":1,"tid":0,"ts":5.0,"dur":1.0},
            {"name":"b","ph":"X","pid":1,"tid":0,"ts":4.0,"dur":1.0}
        ]}"#;
        let err = validate_chrome_trace(regress).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        let nodur = r#"{"traceEvents":[{"name":"a","ph":"X","pid":1,"tid":0,"ts":5.0}]}"#;
        assert!(validate_chrome_trace(nodur).unwrap_err().contains("dur"));
        let nots = r#"{"traceEvents":[{"name":"a","ph":"i","pid":1,"tid":0}]}"#;
        assert!(validate_chrome_trace(nots).unwrap_err().contains("ts"));
    }

    /// Everything the writer can emit, on one hand-built run whose events
    /// collide at 1 µs: the parent slice before the phase that starts
    /// with it, a zero-length probe after both, then the instants and the
    /// counters in collection order; a negative idle count; every
    /// scheduler event with and without an operand; a thief beyond
    /// `n_pes`; a process name that needs escaping.
    #[test]
    fn equal_timestamps_keep_collection_order_and_every_kind_is_written() {
        use crate::span::{PhaseSlice, SpanOutcome, System};
        use sws_sched::report::WorkerStats;
        use sws_sched::snapshot::SnapRow;
        use sws_sched::trace::Event;

        let phase = |name, t_ns, dur_ns, site, op: ProtoOp| PhaseSlice {
            name,
            t_ns,
            dur_ns,
            site,
            op,
            blocking: op.is_blocking(),
            contention: false,
        };
        let mut spans = SpanList::default();
        let mut span = |thief, (start_ns, end_ns), outcome, phases: &[PhaseSlice]| {
            let s = spans.push(System::Sws, thief, 1, outcome, phases);
            (s.start_ns, s.end_ns) = (start_ns, end_ns);
        };
        let probe = [phase(
            "probe",
            1000,
            0,
            AtomicSite::SwsThiefProbe,
            ProtoOp::Fetch,
        )];
        span(0, (1000, 1000), SpanOutcome::Probe, &probe);
        span(
            0,
            (1000, 3500),
            SpanOutcome::Completed { tasks: 12 },
            &[
                phase(
                    "claim",
                    1000,
                    2500,
                    AtomicSite::SwsThiefClaim,
                    ProtoOp::FetchAdd,
                ),
                phase(
                    "complete",
                    3500,
                    0,
                    AtomicSite::SwsThiefComplete,
                    ProtoOp::SetNbi,
                ),
            ],
        );
        span(7, (999, 999), SpanOutcome::Probe, &probe);
        let at = |t_ns, kind| Event { t_ns, kind };
        let pe0 = WorkerStats {
            events: vec![
                at(1000, EventKind::Release { exposed: 4 }),
                at(1000, EventKind::ExitIdle),
                at(2000, EventKind::AcquireMiss),
            ],
            snapshots: vec![SnapRow {
                t_ns: 1000,
                occupancy: 3,
                local: 2,
                admitted: 9,
                completed: 4,
                ..SnapRow::default()
            }],
            ..WorkerStats::default()
        };
        let pe1 = WorkerStats {
            events: vec![
                at(500, EventKind::AcquireHit { recovered: 2 }),
                at(1000, EventKind::EnterIdle),
                at(1500, EventKind::Quarantined { victim: 0 }),
                at(1500, EventKind::CrashStop),
            ],
            ..WorkerStats::default()
        };
        let report = RunReport {
            system: "S\"WS".into(),
            n_pes: 2,
            makespan_ns: 3500,
            workers: vec![pe0, pe1],
            comm: Default::default(),
            proto: Default::default(),
            wall_ms: 0,
        };
        let text = chrome_trace(&[TraceRun {
            report: &report,
            spans: &spans,
        }]);
        let want = r#"{"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"S\"WS"}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"PE 0"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"PE 1"}},
{"name":"steal","ph":"X","pid":1,"tid":0,"ts":1.000,"dur":2.500,"cat":"steal","args":{"victim":1,"ops":2,"blocking":1,"tasks":12}},
{"name":"claim","ph":"X","pid":1,"tid":0,"ts":1.000,"dur":2.500,"cat":"phase","args":{"site":"SwsThiefClaim","op":"fetch_add","blocking":true}},
{"name":"probe","ph":"X","pid":1,"tid":0,"ts":1.000,"dur":0.000,"cat":"steal","args":{"victim":1,"ops":1,"blocking":1,"tasks":0}},
{"name":"release","ph":"i","pid":1,"tid":0,"ts":1.000,"cat":"sched","s":"t","args":{"exposed":4}},
{"name":"idle PEs","ph":"C","pid":1,"tid":0,"ts":1.000,"args":{"idle":-1}},
{"name":"idle PEs","ph":"C","pid":1,"tid":0,"ts":1.000,"args":{"idle":0}},
{"name":"ring occupancy","ph":"C","pid":1,"tid":0,"ts":1.000,"args":{"tasks":5}},
{"name":"in-flight arrivals","ph":"C","pid":1,"tid":0,"ts":1.000,"args":{"tasks":5}},
{"name":"acquire-miss","ph":"i","pid":1,"tid":0,"ts":2.000,"cat":"sched","s":"t"},
{"name":"complete","ph":"X","pid":1,"tid":0,"ts":3.500,"dur":0.000,"cat":"phase","args":{"site":"SwsThiefComplete","op":"set_nbi","blocking":false}},
{"name":"acquire-hit","ph":"i","pid":1,"tid":1,"ts":0.500,"cat":"sched","s":"t","args":{"recovered":2}},
{"name":"quarantine","ph":"i","pid":1,"tid":1,"ts":1.500,"cat":"sched","s":"t","args":{"victim":0}},
{"name":"crash-stop","ph":"i","pid":1,"tid":1,"ts":1.500,"cat":"sched","s":"t"},
{"name":"probe","ph":"X","pid":1,"tid":7,"ts":0.999,"dur":0.000,"cat":"steal","args":{"victim":1,"ops":1,"blocking":1,"tasks":0}}
],"displayTimeUnit":"ns"}
"#;
        assert_eq!(text, want);
        validate_chrome_trace(&text).expect("valid");
        assert_eq!(
            chrome_trace(&[]),
            "{\"traceEvents\":[\n\n],\"displayTimeUnit\":\"ns\"}\n"
        );
    }

    /// The exporter `chrome_trace` replaced, kept as its oracle: every
    /// event of a run filed under its track in source order (spans with
    /// their phases, then instants PE by PE, then the idle counter, then
    /// the snapshot counters), each track stably sorted, then written.
    fn collect_and_sort(runs: &[TraceRun]) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut sep = "";
        for (pid, run) in (1u64..).zip(runs) {
            out.push_str(sep);
            sep = ",\n";
            push_int(
                &mut out,
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":",
                pid,
            );
            out.push_str(",\"tid\":0,\"args\":{\"name\":\"");
            out.push_str(&escape(&run.report.system));
            out.push_str("\"}}");
            for pe in 0..run.report.n_pes as u64 {
                push_int(
                    &mut out,
                    ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":",
                    pid,
                );
                push_int(&mut out, ",\"tid\":", pe);
                push_int(&mut out, ",\"args\":{\"name\":\"PE ", pe);
                out.push_str("\"}}");
            }
        }
        for (pid, run) in (1u64..).zip(runs) {
            let mut tracks: BTreeMap<u32, Vec<Rec>> = BTreeMap::new();
            let mut put = |tid, ts_ns, dur_ns, name, kind| {
                tracks.entry(tid).or_default().push(Rec {
                    ts_ns,
                    dur_ns,
                    name,
                    kind,
                });
            };
            for s in run.spans.iter() {
                let (ops, blocking) = (s.ops(), s.blocking_ops());
                let totals = Kind::Steal {
                    victim: s.victim,
                    ops,
                    blocking,
                    tasks: s.tasks(),
                };
                put(
                    s.thief,
                    s.start_ns,
                    s.latency_ns(),
                    s.outcome.label(),
                    totals,
                );
                let phases = run.spans.phases(s);
                if phases.len() > 1 {
                    for p in phases {
                        let kind = Kind::Phase {
                            site: p.site,
                            op: p.op,
                            blocking: p.blocking,
                        };
                        put(s.thief, p.t_ns, p.dur_ns, p.name, kind);
                    }
                }
            }
            let mut idle_deltas: Vec<(u64, i64)> = Vec::new();
            for (pe, w) in run.report.workers.iter().enumerate() {
                for e in &w.events {
                    let (name, operand) = match e.kind {
                        EventKind::Release { exposed } => ("release", Some(("exposed", exposed))),
                        EventKind::AcquireHit { recovered } => {
                            ("acquire-hit", Some(("recovered", recovered)))
                        }
                        EventKind::AcquireMiss => ("acquire-miss", None),
                        EventKind::Quarantined { victim } => {
                            ("quarantine", Some(("victim", victim)))
                        }
                        EventKind::CrashStop => ("crash-stop", None),
                        EventKind::EnterIdle => {
                            idle_deltas.push((e.t_ns, 1));
                            continue;
                        }
                        EventKind::ExitIdle => {
                            idle_deltas.push((e.t_ns, -1));
                            continue;
                        }
                    };
                    put(pe as u32, e.t_ns, 0, name, Kind::Instant(operand));
                }
            }
            let mut count = |t, name, key, negative, value| {
                put(
                    0,
                    t,
                    0,
                    name,
                    Kind::Counter {
                        key,
                        negative,
                        value,
                    },
                );
            };
            idle_deltas.sort_unstable();
            let mut idle = 0i64;
            for (t, d) in idle_deltas {
                idle += d;
                count(t, "idle PEs", "idle", idle < 0, idle.unsigned_abs());
            }
            for &t in &run.report.snapshot_ticks() {
                let (mut occupancy, mut admitted, mut completed) = (0u64, 0u64, 0u64);
                for w in &run.report.workers {
                    let i = w.snapshots.partition_point(|r| r.t_ns <= t);
                    if i == 0 {
                        continue;
                    }
                    let r = &w.snapshots[i - 1];
                    occupancy += r.occupancy + r.local;
                    admitted += r.admitted;
                    completed += r.completed;
                }
                count(t, "ring occupancy", "tasks", false, occupancy);
                count(
                    t,
                    "in-flight arrivals",
                    "tasks",
                    false,
                    admitted.saturating_sub(completed),
                );
            }
            for (tid, track) in &mut tracks {
                track.sort_by_key(track_key);
                let mut place = String::new();
                push_int(&mut place, "\",\"pid\":", pid);
                push_int(&mut place, ",\"tid\":", u64::from(*tid));
                for &r in track.iter() {
                    write(&mut out, &place, r);
                }
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }

    /// A seeded synthetic run: timestamps from so small a range that they
    /// collide within and across tracks, spans in no particular order with
    /// zero-duration phases among theirs, thieves beyond `n_pes`, and
    /// scheduler events of every kind, in order or not.
    fn synthetic_run(rng: &mut SplitMix64) -> (RunReport, SpanList) {
        use crate::span::{PhaseSlice, SpanOutcome, System};
        use sws_sched::report::WorkerStats;
        use sws_sched::snapshot::SnapRow;

        let n_pes = 1 + rng.below(4) as usize;
        let t = |rng: &mut SplitMix64| 1000 * rng.below(6) + rng.below(3);
        let sites = [
            (AtomicSite::SwsThiefClaim, ProtoOp::FetchAdd),
            (AtomicSite::SwsThiefPayloadRead, ProtoOp::Get),
            (AtomicSite::SwsThiefComplete, ProtoOp::SetNbi),
            (AtomicSite::SdcLockCas, ProtoOp::CompareSwap),
        ];
        let outcomes = [
            SpanOutcome::Completed { tasks: 3 },
            SpanOutcome::Probe,
            SpanOutcome::Empty,
            SpanOutcome::Open,
        ];
        let mut spans = SpanList::default();
        for _ in 0..rng.below(30) {
            let mut phases: Vec<PhaseSlice> = Vec::new();
            for _ in 0..1 + rng.below(4) {
                let (site, op) = sites[rng.below(4) as usize];
                let (t_ns, dur_ns) = (t(rng), rng.below(3) * 500);
                let contention = rng.chance(0.2);
                let blocking = op.is_blocking();
                phases.push(PhaseSlice {
                    name: "claim",
                    t_ns,
                    dur_ns,
                    site,
                    op,
                    blocking,
                    contention,
                });
            }
            let thief = rng.below(n_pes as u64 + 3) as u32;
            let outcome = outcomes[rng.below(4) as usize];
            let s = spans.push(System::Sws, thief, rng.below(4) as u32, outcome, &phases);
            s.start_ns = t(rng);
            s.end_ns = s.start_ns + rng.below(2) * 1500;
        }
        let kinds = [
            EventKind::Release { exposed: 4 },
            EventKind::AcquireHit { recovered: 2 },
            EventKind::AcquireMiss,
            EventKind::Quarantined { victim: 1 },
            EventKind::CrashStop,
            EventKind::EnterIdle,
            EventKind::ExitIdle,
        ];
        let workers = (0..n_pes)
            .map(|_| {
                let mut events: Vec<Event> = (0..rng.below(12))
                    .map(|_| Event {
                        t_ns: t(rng),
                        kind: kinds[rng.below(kinds.len() as u64) as usize],
                    })
                    .collect();
                if rng.chance(0.7) {
                    events.sort_by_key(|e| e.t_ns);
                }
                let mut snapshots: Vec<SnapRow> = (0..rng.below(4))
                    .map(|_| SnapRow {
                        t_ns: t(rng),
                        occupancy: rng.below(9),
                        local: rng.below(9),
                        admitted: rng.below(20),
                        completed: rng.below(20),
                        ..SnapRow::default()
                    })
                    .collect();
                snapshots.sort_by_key(|r| r.t_ns);
                WorkerStats {
                    events,
                    snapshots,
                    ..WorkerStats::default()
                }
            })
            .collect();
        let report = RunReport {
            system: "SWS".into(),
            n_pes,
            makespan_ns: 0,
            workers,
            comm: Default::default(),
            proto: Default::default(),
            wall_ms: 0,
        };
        (report, spans)
    }

    /// The merge of ordered sources writes what collecting and sorting
    /// every track wrote, byte for byte, on one- and two-run documents.
    #[test]
    fn streaming_export_equals_collect_and_sort() {
        let mut rng = SplitMix64::new(0xE4_9047);
        for _ in 0..400 {
            let runs: Vec<(RunReport, SpanList)> = (0..1 + rng.below(2))
                .map(|_| synthetic_run(&mut rng))
                .collect();
            let runs: Vec<TraceRun> = runs
                .iter()
                .map(|(report, spans)| TraceRun { report, spans })
                .collect();
            assert_eq!(chrome_trace(&runs), collect_and_sort(&runs));
        }
    }

    #[test]
    fn microsecond_format_is_exact() {
        let us = |ns| {
            let mut s = String::new();
            push_us(&mut s, "", ns);
            s
        };
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1), "0.001");
        assert_eq!(us(1234567), "1234.567");
        assert_eq!(us(u64::MAX), "18446744073709551.615");
    }
}
