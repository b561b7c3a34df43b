//! End-to-end span stitching on clean runs: real workloads, proto
//! capture armed, spans reconciled against the queue counters, and the
//! paper's per-steal op budget checked on every completed steal — the
//! Table-1 claim (SWS: 3 ops / 2 blocking; SDC: 6 / 5) as an executable
//! assertion.

use sws_core::QueueConfig;
use sws_obs::{check_comms, chrome_trace, stitch_pe, stitch_report, validate_chrome_trace};
use sws_obs::{PhaseSlice, Registry, SpanList, SpanOutcome, StealSpan, TraceRun, TraceStats};
use sws_sched::{run_service, run_workload, ServiceConfig};
use sws_sched::{QueueKind, RunConfig, RunReport, SchedConfig};
use sws_shmem::{FaultPlan, OpClass, ProtoEvent, ProtoLog, TargetSel};
use sws_workloads::arrivals::{ArrivalPlan, FlatServe};
use sws_workloads::uts::{UtsParams, UtsWorkload};

fn queue() -> QueueConfig {
    QueueConfig::new(1024, 48)
}

fn captured_run(kind: QueueKind, seed: u64) -> RunReport {
    let mut sched = SchedConfig::new(kind, queue()).with_seed(seed);
    sched.trace = true;
    let cfg = RunConfig::new(8, sched).with_capture_proto();
    run_workload(&cfg, &UtsWorkload::new(UtsParams::geo_small(8)))
}

fn reconcile(report: &RunReport) {
    let spans = stitch_report(report, &queue());
    assert!(!spans.is_empty(), "captured run must produce spans");
    let comm = check_comms(&spans, false);
    assert!(comm.ok(), "budget violations: {:#?}", comm.violations);

    // Span-level accounting must agree exactly with the queue counters.
    let steals_won: u64 = report.workers.iter().map(|w| w.queue.steals_won).sum();
    let tasks_stolen: u64 = report.workers.iter().map(|w| w.queue.tasks_stolen).sum();
    assert_eq!(comm.completed, steals_won, "completed spans vs steals_won");
    assert_eq!(comm.tasks, tasks_stolen, "span volumes vs tasks_stolen");
    assert!(steals_won > 0, "workload must actually steal");
    // Clean runs leave nothing open, aborted, or failed.
    assert_eq!(comm.open, 0, "clean run must close every span");
    assert_eq!(comm.aborted, 0);
    assert_eq!(comm.failed, 0);
}

#[test]
fn sws_spans_meet_the_three_two_budget() {
    let report = captured_run(QueueKind::Sws, 0xBA5E);
    let spans = stitch_report(&report, &queue());
    for s in spans
        .iter()
        .filter(|s| matches!(s.outcome, SpanOutcome::Completed { .. }))
    {
        assert_eq!(s.ops(), 3, "SWS steal is claim + payload + complete");
        assert_eq!(s.blocking_ops(), 2, "the completion set is passive");
        assert_eq!(s.contention_ops(), 0, "SWS has no lock to contend");
        let names: Vec<&str> = spans.phases(s).iter().map(|p| p.name).collect();
        assert_eq!(names, ["claim", "payload", "complete"]);
    }
    reconcile(&report);
}

#[test]
fn sdc_spans_meet_the_six_five_budget() {
    let report = captured_run(QueueKind::Sdc, 0xBA5E);
    let spans = stitch_report(&report, &queue());
    for s in spans
        .iter()
        .filter(|s| matches!(s.outcome, SpanOutcome::Completed { .. }))
    {
        assert_eq!(
            s.core_ops(),
            6,
            "SDC steal is lock/meta/tail/unlock/payload/complete"
        );
        assert_eq!(s.core_blocking(), 5, "only the completion set is passive");
    }
    reconcile(&report);
}

#[test]
fn spans_reconcile_across_seeds() {
    for seed in [7u64, 1337, 0xD00D] {
        reconcile(&captured_run(QueueKind::Sws, seed));
        reconcile(&captured_run(QueueKind::Sdc, seed));
    }
}

#[test]
fn exported_trace_passes_the_schema_validator() {
    let sws = captured_run(QueueKind::Sws, 0xBA5E);
    let sdc = captured_run(QueueKind::Sdc, 0xBA5E);
    let sws_spans = stitch_report(&sws, &queue());
    let sdc_spans = stitch_report(&sdc, &queue());
    let text = chrome_trace(&[
        TraceRun {
            report: &sdc,
            spans: &sdc_spans,
        },
        TraceRun {
            report: &sws,
            spans: &sws_spans,
        },
    ]);
    let stats = validate_chrome_trace(&text).expect("emitted trace must validate");
    assert!(stats.complete > 0, "expected duration slices");
    assert!(stats.counters > 0, "expected the idle-PE counter track");
    assert!(
        stats.metadata >= 2 + 16,
        "process + thread names for both runs"
    );
    assert!(stats.tracks >= 2, "at least one track per run");
}

#[test]
fn metrics_registry_reflects_the_run() {
    let report = captured_run(QueueKind::Sws, 0xBA5E);
    let spans = stitch_report(&report, &queue());
    let reg = Registry::from_report(&report, Some(&spans));
    let text = reg.render_text();
    let total_tasks: u64 = report.workers.iter().map(|w| w.tasks_executed).sum();
    assert!(
        text.contains(&format!("sws_tasks_executed {total_tasks}")),
        "exposition must carry the merged task count:\n{text}"
    );
    assert!(text.contains("sws_span_latency_ns_p95"), "{text}");
    let json = sws_obs::json::Json::parse(&reg.to_json()).expect("snapshot parses");
    let got = json
        .get("metrics")
        .and_then(|m| m.get("sws_tasks_executed"))
        .and_then(|m| m.get("total"))
        .and_then(|v| v.as_f64())
        .expect("metric present");
    assert_eq!(got as u64, total_tasks);
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One span as text: system, thief, victim, start/end, outcome (with its
/// task count) and each phase's name, site, op, times, blocking and
/// contention flags.
fn span_text(s: &StealSpan, phases: &[PhaseSlice]) -> String {
    let mut text = format!(
        "|{} {} {} {} {} {:?}",
        s.system.label(),
        s.thief,
        s.victim,
        s.start_ns,
        s.end_ns,
        s.outcome
    );
    for p in phases {
        text.push_str(&format!(
            ";{} {} {} {} {} {} {}",
            p.name,
            p.site.name(),
            p.op.name(),
            p.t_ns,
            p.dur_ns,
            p.blocking,
            p.contention
        ));
    }
    text
}

/// FNV-1a over every stitched span's [`span_text`].
fn span_digest(report: &RunReport) -> u64 {
    let spans = stitch_report(report, &queue());
    let text: String = spans
        .iter()
        .map(|s| span_text(s, spans.phases(s)))
        .collect();
    fnv1a(text.as_bytes())
}

/// The five pinned runs: UTS on 8 PEs at seed 0xBA5E with proto capture
/// armed — optionally 2 % of ops dropped, 1-in-`period` steal sampling,
/// and the scheduler event log (which never moves a span).
fn pinned_run(kind: QueueKind, drop: bool, period: u32, trace: bool) -> RunReport {
    let mut sched = SchedConfig::new(kind, queue())
        .with_seed(0xBA5E)
        .with_sample_period(period);
    sched.trace = trace;
    let mut cfg = RunConfig::new(8, sched).with_capture_proto();
    if drop {
        cfg = cfg.with_faults(FaultPlan::seeded(0x5E41_0002).with_drop(
            OpClass::All,
            TargetSel::Any,
            0.02,
        ));
    }
    run_workload(&cfg, &UtsWorkload::new(UtsParams::geo_small(8)))
}

/// Span *content* is the stitcher's behaviour: these digests were taken
/// at commit 07c9058 (the hand-written per-site stitcher) over clean
/// runs, runs with 2 % of ops dropped, and a 1-in-8 sampled run. A
/// stitcher change that moves one is a behaviour change and re-pins it
/// in its own commit.
#[test]
fn span_results_are_pinned() {
    let run = |kind, drop, period| span_digest(&pinned_run(kind, drop, period, false));
    let got = [
        run(QueueKind::Sws, false, 0),
        run(QueueKind::Sdc, false, 0),
        run(QueueKind::Sws, true, 0),
        run(QueueKind::Sdc, true, 0),
        run(QueueKind::Sws, false, 8),
    ];
    let pinned: [u64; 5] = [
        0x1eee_573e_a59f_0f6e,
        0x80b8_2374_8388_11ae,
        0xd3b7_db50_aaa1_cadb,
        0xc707_c823_29f3_d04f,
        0xcc93_8d62_b03d_c86d,
    ];
    assert_eq!(
        got.map(|d| format!("{d:#018x}")),
        pinned.map(|d| format!("{d:#018x}"))
    );
}

/// `RunReport` holds the world's one capture log, appended where each
/// effect applied. On real captures (SWS, SDC, and a run with 2 % of ops
/// dropped) the log is in the gate's `(t_ns, issuer)` order and every
/// issuer's clock strictly increases in it, so the order is fixed by the
/// events themselves; their count and the FNV-1a of every event were
/// taken at commit d40c056, where the log was the stable sort of the
/// per-PE streams merged at teardown — the apply-order log reproduces it.
#[test]
fn merged_trace_is_the_stable_sort_of_the_captured_streams() {
    let runs = [
        (QueueKind::Sws, false),
        (QueueKind::Sdc, false),
        (QueueKind::Sws, true),
    ];
    let got = runs.map(|(kind, drop)| {
        let report = pinned_run(kind, drop, 0, false);
        let log: &ProtoLog = report.proto_trace();
        assert!(
            log.iter().is_sorted_by_key(|e| (e.t_ns, e.issuer)),
            "{kind:?} drop {drop}: out of order"
        );
        let mut last_t: Vec<Option<u64>> = vec![None; report.n_pes];
        for e in log {
            let last = last_t[e.issuer as usize].replace(e.t_ns);
            assert!(
                last < Some(e.t_ns),
                "{kind:?} drop {drop}: pe{} clock repeats",
                e.issuer
            );
        }
        let text: String = log.iter().map(|e| format!("{e}|")).collect();
        format!("{} events {:#018x}", log.len(), fnv1a(text.as_bytes()))
    });
    let pinned = [
        "7054 events 0xb3767d490b97e09a",
        "7975 events 0xa0fc4342f849aef6",
        "6960 events 0x27a3f1e295edc77e",
    ];
    assert_eq!(got.each_ref().map(String::as_str), pinned, "{got:#?}");
}

/// `stitch_report` walks the merged log once, one state machine per
/// thief. Its oracle is `stitch_pe` over each issuer's own stream — its
/// subsequence of the merged log, which is what that PE captured — with
/// the results laid end to end in rank order and stably sorted by
/// `(start_ns, thief)`, on the captures `span_results_are_pinned` pins.
#[test]
fn one_pass_stitch_equals_the_per_issuer_stitch() {
    let captures = [
        (QueueKind::Sws, false, 0),
        (QueueKind::Sdc, false, 0),
        (QueueKind::Sws, true, 0),
        (QueueKind::Sdc, true, 0),
        (QueueKind::Sws, false, 8),
    ];
    for (kind, drop, period) in captures {
        let report = pinned_run(kind, drop, period, false);
        let spans = stitch_report(&report, &queue());
        let got: Vec<(u64, u32, String)> = spans
            .iter()
            .map(|s| (s.start_ns, s.thief, span_text(s, spans.phases(s))))
            .collect();
        let mut want = Vec::new();
        for pe in 0..report.n_pes as u32 {
            let stream: Vec<ProtoEvent> = report
                .proto_trace()
                .iter()
                .filter(|e| e.issuer == pe)
                .collect();
            let spans = stitch_pe(&stream, &queue());
            want.extend(
                spans
                    .iter()
                    .map(|s| (s.start_ns, s.thief, span_text(s, spans.phases(s)))),
            );
        }
        want.sort_by_key(|&(start_ns, thief, _)| (start_ns, thief));
        assert!(got.len() > 20, "{kind:?}: {} spans", got.len());
        assert!(
            got == want,
            "{kind:?} drop {drop} period {period}: the one-pass stitch differs"
        );
    }
}

/// One export, validated, as the line the pin compares: the FNV-1a of
/// its bytes and the validator's counts beside it, so a mismatch says
/// what moved.
fn export_line(runs: &[&RunReport], stitch: bool) -> String {
    let spans: Vec<_> = runs
        .iter()
        .map(|r| {
            if stitch {
                stitch_report(r, &queue())
            } else {
                SpanList::default()
            }
        })
        .collect();
    let runs: Vec<TraceRun> = runs
        .iter()
        .zip(&spans)
        .map(|(&report, spans)| TraceRun { report, spans })
        .collect();
    let text = chrome_trace(&runs);
    let TraceStats {
        events,
        complete,
        instants,
        counters,
        metadata,
        tracks,
    } = validate_chrome_trace(&text).expect("emitted trace must validate");
    format!(
        "{:#018x} events {events} complete {complete} instants {instants} \
         counters {counters} metadata {metadata} tracks {tracks}",
        fnv1a(text.as_bytes())
    )
}

/// The pinned service run: 4 PEs, one ingress, Poisson arrivals, with
/// capture, the event log and snapshots armed.
fn served_run(kind: QueueKind) -> RunReport {
    let plan = ArrivalPlan::poisson(0x0B5_0001, 2_000, 400_000);
    let mut sched = SchedConfig::new(kind, queue()).with_seed(0xBA5E);
    sched.trace = true;
    run_service(
        &RunConfig::new(4, sched).with_capture_proto(),
        &ServiceConfig::default().with_snapshot_interval(50_000),
        &FlatServe::new(plan, 3_000, 1),
    )
}

/// The exporter's *bytes* are its behaviour: these digests were taken at
/// commit c12f2c5 (the `String`-per-event exporter) over the five runs of
/// `span_results_are_pinned` with the event log armed, both clean runs
/// in one document (so `pid` 2 is covered), a service run with snapshots
/// armed (counter tracks, instants, the idle counter) and the same run
/// exported without spans. An exporter change that moves one is a
/// behaviour change and re-pins it in its own commit. The two service
/// rows were re-pinned when service mode began to stop by the batch
/// termination rule.
#[test]
fn export_results_are_pinned() {
    let sws = pinned_run(QueueKind::Sws, false, 0, true);
    let sdc = pinned_run(QueueKind::Sdc, false, 0, true);
    let served = served_run(QueueKind::Sws);
    let got = [
        export_line(&[&sws], true),
        export_line(&[&sdc], true),
        export_line(&[&pinned_run(QueueKind::Sws, true, 0, true)], true),
        export_line(&[&pinned_run(QueueKind::Sdc, true, 0, true)], true),
        export_line(&[&pinned_run(QueueKind::Sws, false, 8, true)], true),
        export_line(&[&sws, &sdc], true),
        export_line(&[&served], true),
        export_line(&[&served], false),
    ];
    let pinned = [
        "0x6d9f4ba5a4b7c158 events 690 complete 335 instants 250 counters 96 metadata 9 tracks 8",
        "0x8d76000a706ac6cd events 1208 complete 857 instants 244 counters 98 metadata 9 tracks 8",
        "0xb31c1ce4a8972a83 events 635 complete 317 instants 223 counters 86 metadata 9 tracks 8",
        "0x5e4a30100f764f4c events 1318 complete 979 instants 230 counters 100 metadata 9 tracks 8",
        "0x92928f5347e58a9b events 399 complete 44 instants 250 counters 96 metadata 9 tracks 8",
        "0xe5b8c2a37ef8fe8c events 1898 complete 1192 instants 494 counters 194 metadata 18 tracks 16",
        "0x28198b7618b2246e events 484 complete 289 instants 80 counters 110 metadata 5 tracks 4",
        "0xe1c3f608abf8101e events 195 complete 0 instants 80 counters 110 metadata 5 tracks 4",
    ];
    assert_eq!(got.each_ref().map(String::as_str), pinned, "{got:#?}");
}

/// A captured op costs what its record takes, not the 56 bytes of a
/// decoded `ProtoEvent`: the pinned service run under each protocol, and
/// the pinned UTS captures, encode at ≤ 20 bytes an event.
#[test]
fn captures_encode_at_most_twenty_bytes_an_event() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        for (what, report) in [
            ("service", served_run(kind)),
            ("uts", pinned_run(kind, false, 0, false)),
        ] {
            let log = report.proto_trace();
            assert!(log.len() > 500, "{kind:?} {what}: {} events", log.len());
            let per_event = log.encoded_len() as f64 / log.len() as f64;
            assert!(
                per_event <= 20.0,
                "{kind:?} {what}: {per_event:.2} B an event"
            );
        }
    }
}

/// A steal attempt is recorded once, as a span. On the full-capture
/// pinned runs, with and without drops, and the service run, each
/// thief's `Completed` spans are its won steals: their count and volume
/// equal its queue's `steals_won` and `tasks_stolen`.
#[test]
fn each_thiefs_completed_spans_are_its_won_steals() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        for (what, report) in [
            ("uts", pinned_run(kind, false, 0, false)),
            ("uts drop", pinned_run(kind, true, 0, false)),
            ("service", served_run(kind)),
        ] {
            let mut won = vec![(0, 0); report.n_pes];
            for s in &stitch_report(&report, &queue()) {
                if let SpanOutcome::Completed { tasks } = s.outcome {
                    let thief = &mut won[s.thief as usize];
                    *thief = (thief.0 + 1, thief.1 + tasks);
                }
            }
            let counted: Vec<_> = report
                .workers
                .iter()
                .map(|w| (w.queue.steals_won, w.queue.tasks_stolen))
                .collect();
            assert!(
                won.iter().map(|w| w.0).sum::<u64>() > 20,
                "{kind:?} {what}: {won:?}"
            );
            assert_eq!(won, counted, "{kind:?} {what}: completed spans per thief");
        }
    }
}
