//! Span stitching under faults — the chaos suite at span granularity.
//!
//! Capture only records ops whose memory effect applied, so injected
//! drops surface as *missing* span phases. The invariant pinned here:
//! a steal whose completion op was dropped yields an **open** span
//! (claim visible, no completion), never a mis-attributed one — its
//! ops must not leak into a neighbouring steal's budget, and the
//! completed-span count must still agree exactly with `steals_won`.

use sws_core::QueueConfig;
use sws_obs::{check_comms, stitch_report, SpanOutcome};
use sws_sched::{run_workload, QueueKind, RunConfig, RunReport, SchedConfig};
use sws_shmem::{FaultPlan, OpClass, OpKind, TargetSel};
use sws_workloads::uts::{UtsParams, UtsWorkload};

fn queue() -> QueueConfig {
    QueueConfig::new(1024, 48)
}

fn chaos_run_plan(kind: QueueKind, seed: u64, plan: FaultPlan) -> RunReport {
    let sched = SchedConfig::new(kind, queue()).with_seed(seed);
    let cfg = RunConfig::new(8, sched)
        .with_faults(plan)
        .with_capture_proto();
    run_workload(&cfg, &UtsWorkload::new(UtsParams::geo_small(8)))
}

fn chaos_run(kind: QueueKind, seed: u64, drop_prob: f64) -> RunReport {
    let plan = FaultPlan::seeded(seed ^ 0xFA17).with_drop(OpClass::All, TargetSel::Any, drop_prob);
    chaos_run_plan(kind, seed, plan)
}

/// A plan that hammers exactly the fault-mode SWS completion op
/// (`try_atomic_compare_swap`): at a 45% drop rate the per-op retry
/// budget is exhausted a few percent of the time, so some completions
/// are genuinely *lost* — the open-span path, not just the retried-op
/// path — without the steal/reclaim churn a higher rate causes.
const KILL_PROB: f64 = 0.45;

fn completion_killer(kind: QueueKind, seed: u64) -> RunReport {
    let plan = FaultPlan::seeded(seed ^ 0xFA17).with_drop(
        OpClass::Kind(OpKind::AtomicCompareSwap),
        TargetSel::Any,
        KILL_PROB,
    );
    chaos_run_plan(kind, seed, plan)
}

/// Budget + reconciliation assertions that must hold on every fault run.
fn assert_chaos_invariants(report: &RunReport) -> (u64, u64) {
    let spans = stitch_report(report, &queue());
    let comm = check_comms(&spans, true);
    assert!(comm.ok(), "fault-budget violations: {:#?}", comm.violations);

    let steals_won: u64 = report.workers.iter().map(|w| w.queue.steals_won).sum();
    let tasks_stolen: u64 = report.workers.iter().map(|w| w.queue.tasks_stolen).sum();
    let steals_aborted: u64 = report.workers.iter().map(|w| w.queue.steals_aborted).sum();

    // Dropped ops never mint or destroy a completed steal.
    assert_eq!(comm.completed, steals_won, "completed spans vs steals_won");
    assert_eq!(comm.tasks, tasks_stolen, "span volumes vs tasks_stolen");
    // Every abort the thief recorded is visible as either an aborted
    // span (the poison/finalize op applied) or an open span (it was
    // dropped) — nothing else produces them on a drop-only plan.
    assert_eq!(
        comm.aborted + comm.open,
        steals_aborted,
        "aborted + open spans vs steals_aborted"
    );
    (comm.open, steals_won)
}

#[test]
fn sws_chaos_spans_reconcile() {
    for seed in [0xBA5E_u64, 7, 99, 1234] {
        let report = chaos_run(QueueKind::Sws, seed, 0.05);
        let (_open, won) = assert_chaos_invariants(&report);
        assert!(won > 0, "seed {seed}: chaos run must still steal");
    }
}

#[test]
fn dropped_completions_leave_open_spans() {
    let mut total_open = 0;
    for seed in [2_u64, 3] {
        let report = completion_killer(QueueKind::Sws, seed);
        let (open, _won) = assert_chaos_invariants(&report);
        total_open += open;
    }
    // Deterministic (seeded plans): at the kill rate the retry budget
    // is exhausted often enough that some spans must stay open.
    assert!(
        total_open > 0,
        "expected open spans from killed completions"
    );
}

#[test]
fn sdc_chaos_spans_reconcile() {
    for seed in [0xBA5E_u64, 7, 99, 1234] {
        let report = chaos_run(QueueKind::Sdc, seed, 0.05);
        let (_open, won) = assert_chaos_invariants(&report);
        assert!(won > 0, "seed {seed}: chaos run must still steal");
    }
}

/// The dropped-completion span stays open and its victim's next steal
/// gets a fresh, budget-conforming span — no mis-attribution.
#[test]
fn open_spans_do_not_leak_ops_into_neighbours() {
    let mut saw_open = false;
    for seed in [2_u64, 3] {
        let report = completion_killer(QueueKind::Sws, seed);
        let spans = stitch_report(&report, &queue());
        for s in &spans {
            match s.outcome {
                SpanOutcome::Open => {
                    saw_open = true;
                    // An open SWS span holds at most claim + payload.
                    assert!(s.ops() <= 2, "open span carries completed-steal ops: {s:?}");
                }
                SpanOutcome::Completed { .. } => {
                    assert!(
                        s.ops() <= 3,
                        "completed span inflated by a neighbour: {s:?}"
                    );
                }
                _ => {}
            }
        }
    }
    assert!(saw_open, "expected an open span somewhere across seeds");
}
