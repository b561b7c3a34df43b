//! Armed-vs-disarmed differential: telemetry must not perturb results.
//!
//! Proto capture is the only run-time hook the telemetry layer adds to
//! the hot paths (one predictable branch per annotated site when
//! disarmed). These tests pin that arming it changes nothing
//! observable: identical makespans, per-PE communication counters, queue
//! counters, and timing decompositions.

use sws_core::QueueConfig;
use sws_obs::{contention_rows, contention_to_json, Registry};
use sws_sched::{run_workload, QueueKind, RunConfig, RunReport, SchedConfig};
use sws_shmem::{FaultPlan, OpClass, ProtoOp, SiteCounters, TargetSel};
use sws_workloads::uts::{UtsParams, UtsWorkload};

fn report_armed(
    kind: QueueKind,
    seed: u64,
    capture: bool,
    sample: u32,
    profile: bool,
) -> RunReport {
    let queue = QueueConfig::new(1024, 48);
    let sched = SchedConfig::new(kind, queue)
        .with_seed(seed)
        .with_sample_period(sample);
    let mut cfg = RunConfig::new(8, sched);
    if capture {
        cfg = cfg.with_capture_proto();
    }
    if profile {
        cfg = cfg.with_profile_sites();
    }
    run_workload(&cfg, &UtsWorkload::new(UtsParams::geo_small(8)))
}

fn report_for(kind: QueueKind, seed: u64, capture: bool) -> RunReport {
    report_armed(kind, seed, capture, 0, false)
}

fn assert_results_identical(a: &RunReport, b: &RunReport) {
    assert_eq!(a.makespan_ns, b.makespan_ns, "makespans diverged");
    assert_eq!(a.comm.total, b.comm.total, "total OpStats diverged");
    assert_eq!(a.comm.per_pe, b.comm.per_pe, "per-PE OpStats diverged");
    for (pe, (wa, wb)) in a.workers.iter().zip(&b.workers).enumerate() {
        assert_eq!(wa.tasks_executed, wb.tasks_executed, "PE {pe} tasks");
        assert_eq!(wa.task_ns, wb.task_ns, "PE {pe} task_ns");
        assert_eq!(wa.steal_ns, wb.steal_ns, "PE {pe} steal_ns");
        assert_eq!(wa.search_ns, wb.search_ns, "PE {pe} search_ns");
        assert_eq!(wa.runtime_ns, wb.runtime_ns, "PE {pe} runtime_ns");
        assert_eq!(wa.queue, wb.queue, "PE {pe} queue counters");
    }
}

#[test]
fn capture_does_not_perturb_sws_runs() {
    for seed in [0xBA5E_u64, 42] {
        let off = report_for(QueueKind::Sws, seed, false);
        let on = report_for(QueueKind::Sws, seed, true);
        assert!(
            off.proto_trace().is_empty(),
            "disarmed run captures nothing"
        );
        assert!(
            !on.proto_trace().is_empty(),
            "armed run captures the protocol"
        );
        assert_results_identical(&off, &on);
    }
}

#[test]
fn capture_does_not_perturb_sdc_runs() {
    for seed in [0xBA5E_u64, 1337] {
        let off = report_for(QueueKind::Sdc, seed, false);
        let on = report_for(QueueKind::Sdc, seed, true);
        assert_results_identical(&off, &on);
    }
}

/// Sampled capture and site profiling are the two new run-time hooks
/// this layer adds (a countdown decrement per steal attempt; a plain
/// counter store per shmem op). Neither may perturb results — pinned
/// against the fully disarmed baseline, both systems.
#[test]
fn sampling_and_profiling_do_not_perturb_runs() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let base = report_for(kind, 0xBA5E, false);
        let sampled = report_armed(kind, 0xBA5E, true, 4, false);
        assert!(
            sampled.total_sampled_attempts() > 0,
            "sampler armed but idle"
        );
        assert_results_identical(&base, &sampled);
        let profiled = report_armed(kind, 0xBA5E, false, 0, true);
        assert!(
            profiled.site_profile().iter().any(|c| !c.is_empty()),
            "profiler armed but recorded nothing"
        );
        assert_results_identical(&base, &profiled);
        // Everything at once: capture + sampling + profiling.
        let all = report_armed(kind, 0xBA5E, true, 4, true);
        assert_results_identical(&base, &all);
    }
}

/// The registry adapts a report to the same totals the report carries.
#[test]
fn registry_arming_is_pure_observation() {
    let report = report_for(QueueKind::Sws, 0xBA5E, false);
    let armed = Registry::from_report(&report, None);
    let tasks: u64 = report.workers.iter().map(|w| w.tasks_executed).sum();
    assert!(armed
        .render_text()
        .contains(&format!("sws_tasks_executed {tasks}")));
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// UTS on 8 PEs at depth 8, seed 0xBA5E, with site profiling armed, proto
/// capture optionally armed, and optionally 5 % of ops dropped.
fn profiled_run(kind: QueueKind, capture: bool, drop: bool) -> RunReport {
    let sched = SchedConfig::new(kind, QueueConfig::new(1024, 48)).with_seed(0xBA5E);
    let mut cfg = RunConfig::new(8, sched).with_profile_sites();
    if capture {
        cfg = cfg.with_capture_proto();
    }
    if drop {
        cfg = cfg.with_faults(FaultPlan::seeded(0x5E41_0005).with_drop(
            OpClass::All,
            TargetSel::Any,
            0.05,
        ));
    }
    run_workload(&cfg, &UtsWorkload::new(UtsParams::geo_small(8)))
}

/// The site profile is what the op layer counts per annotated op: these
/// FNV-1a digests of `contention_to_json` (clean and with 5 % of ops
/// dropped, both systems) were taken at commit 5fe0884, where every
/// one-sided op counted its own site by hand.
#[test]
fn site_profile_results_are_pinned() {
    let run = |kind, drop| {
        let json = contention_to_json(&contention_rows(&profiled_run(kind, false, drop)));
        format!("{:#018x}", fnv1a(json.as_bytes()))
    };
    let got = [
        run(QueueKind::Sws, false),
        run(QueueKind::Sdc, false),
        run(QueueKind::Sws, true),
        run(QueueKind::Sdc, true),
    ];
    let pinned: [u64; 4] = [
        0x2113_ae63_70af_6cd4,
        0x2d2b_49a3_6f72_1160,
        0x9060_0f37_f8dd_7414,
        0x675a_677d_926e_fcc3,
    ];
    assert_eq!(got, pinned.map(|d| format!("{d:#018x}")));
}

/// With capture and profiling both armed and sampling off, every counter
/// but `stores` is the fold of the captured trace by op class: one
/// observation point feeds both. `stores` is left out because owner-local
/// ring writes are profiled but never captured.
#[test]
fn site_profile_is_the_fold_of_the_capture() {
    for (kind, drop) in [
        (QueueKind::Sws, false),
        (QueueKind::Sdc, false),
        (QueueKind::Sdc, true),
    ] {
        let report = profiled_run(kind, true, drop);
        let mut folded = vec![SiteCounters::default(); report.site_profile().len()];
        for e in report.proto_trace() {
            let c = &mut folded[e.site as usize];
            match e.op {
                ProtoOp::FetchAdd | ProtoOp::Swap | ProtoOp::AddNbi => c.rmw += 1,
                ProtoOp::CompareSwap if e.prev == e.arg2 => c.cas_won += 1,
                ProtoOp::CompareSwap => c.cas_lost += 1,
                ProtoOp::Fetch => c.loads += 1,
                ProtoOp::Get | ProtoOp::Put => c.bulk += 1,
                ProtoOp::Set | ProtoOp::SetNbi => {}
            }
        }
        let without_stores = |v: &[SiteCounters]| {
            v.iter()
                .map(|c| SiteCounters { stores: 0, ..*c })
                .collect::<Vec<_>>()
        };
        assert!(
            folded.iter().any(|c| !c.is_empty()),
            "{kind:?}: nothing captured"
        );
        assert_eq!(
            without_stores(&report.site_profile()),
            without_stores(&folded),
            "{kind:?} drop {drop}"
        );
    }
}
