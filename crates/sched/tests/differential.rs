//! Differential determinism suite: the safe-window gate must realize
//! *exactly* the run the handoff-per-op gate realizes.
//!
//! The safe-window engine (see `sws_shmem::vclock`) is a pure scheduling
//! optimization — it batches gate crossings inside a conservative
//! lookahead window but never reorders effects in virtual time. These
//! tests pin that claim: for identical seeds, both gates must produce
//! identical makespans, per-PE communication counters (`OpStats`),
//! queue counters, and worker timing decompositions. Only wall-clock
//! fields (`wall_ms`, `EngineStats`) may differ.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sws_core::QueueConfig;
use sws_sched::runner::run_workload_mode;
use sws_sched::{
    run_service, run_workload, QueueKind, RunConfig, RunReport, SchedConfig, ServiceConfig,
    ArrivalSource, ServiceWorkload, TaskCtx, Workload,
};
use sws_shmem::{ExecMode, GateMode, OrderingCtl};
use sws_task::{TaskDescriptor, TaskRegistry};
use sws_workloads::arrivals::{ArrivalPlan, FlatServe};
use sws_workloads::uts::{UtsParams, UtsWorkload};

fn report_for(kind: QueueKind, gate: GateMode, seed: u64) -> RunReport {
    let queue = QueueConfig::new(1024, 48);
    let sched = SchedConfig::new(kind, queue).with_seed(seed);
    let cfg = RunConfig::new(8, sched).with_gate(gate);
    let wl = UtsWorkload::new(UtsParams::geo_small(8));
    run_workload(&cfg, &wl)
}

/// Everything deterministic in a report, with wall-clock fields erased.
fn assert_reports_identical(a: &RunReport, b: &RunReport) {
    assert_eq!(a.system, b.system);
    assert_eq!(a.n_pes, b.n_pes);
    assert_eq!(a.makespan_ns, b.makespan_ns, "makespans diverged");
    assert_eq!(a.comm.total, b.comm.total, "total OpStats diverged");
    assert_eq!(a.comm.per_pe, b.comm.per_pe, "per-PE OpStats diverged");
    assert_eq!(a.workers.len(), b.workers.len());
    for (pe, (wa, wb)) in a.workers.iter().zip(&b.workers).enumerate() {
        assert_eq!(wa.tasks_executed, wb.tasks_executed, "PE {pe} tasks");
        assert_eq!(wa.task_ns, wb.task_ns, "PE {pe} task_ns");
        assert_eq!(wa.steal_ns, wb.steal_ns, "PE {pe} steal_ns");
        assert_eq!(wa.search_ns, wb.search_ns, "PE {pe} search_ns");
        assert_eq!(wa.upkeep_ns, wb.upkeep_ns, "PE {pe} upkeep_ns");
        assert_eq!(wa.first_work_ns, wb.first_work_ns, "PE {pe} first_work_ns");
        assert_eq!(wa.runtime_ns, wb.runtime_ns, "PE {pe} runtime_ns");
        assert_eq!(wa.queue, wb.queue, "PE {pe} queue counters");
        assert_eq!(wa.crashed, wb.crashed, "PE {pe} crash status");
        assert_eq!(wa.events, wb.events, "PE {pe} trace events");
    }
}

#[test]
fn gates_agree_on_sws_runs() {
    for seed in [0xBA5E, 0xBA5E + 7919, 42] {
        let old = report_for(QueueKind::Sws, GateMode::HandoffPerOp, seed);
        let new = report_for(QueueKind::Sws, GateMode::SafeWindow, seed);
        assert_reports_identical(&old, &new);
        assert!(new.total_tasks() > 0, "workload must actually run");
    }
}

#[test]
fn gates_agree_on_sdc_runs() {
    for seed in [0xBA5E, 1337] {
        let old = report_for(QueueKind::Sdc, GateMode::HandoffPerOp, seed);
        let new = report_for(QueueKind::Sdc, GateMode::SafeWindow, seed);
        assert_reports_identical(&old, &new);
    }
}

/// The handoff gate grants no windows; the safe-window gate reports its
/// activity through `EngineStats` without perturbing the run.
#[test]
fn engine_stats_reflect_the_selected_gate() {
    let old = report_for(QueueKind::Sws, GateMode::HandoffPerOp, 7);
    let new = report_for(QueueKind::Sws, GateMode::SafeWindow, 7);
    assert_eq!(old.total_engine().windows, 0);
    assert!(old.total_engine().gated_ops() > 0);
    assert!(new.total_engine().gated_ops() > 0);
    assert_eq!(
        old.total_engine().gated_ops(),
        new.total_engine().gated_ops(),
        "both gates must see the same op stream"
    );
}

/// Batched completion puts are a *timing* optimization, never a
/// correctness one: turning them on must not lose or duplicate a single
/// task, on either queue system. (Makespans may legitimately shift —
/// the batch changes when completion ops are charged — so this pins
/// conservation, not byte-identity.)
#[test]
fn completion_batching_preserves_conservation() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let eager = report_for(kind, GateMode::SafeWindow, 0xBA5E);
        let queue = QueueConfig::new(1024, 48).with_comp_batch(4);
        let sched = SchedConfig::new(kind, queue).with_seed(0xBA5E);
        let cfg = RunConfig::new(8, sched);
        let wl = UtsWorkload::new(UtsParams::geo_small(8));
        let batched = run_workload(&cfg, &wl);
        assert_eq!(
            batched.total_tasks(),
            eager.total_tasks(),
            "{kind:?}: batching lost or duplicated tasks"
        );
        assert!(batched.total_steals() > 0, "{kind:?}: no steals exercised");
    }
}

/// Threaded mode ignores the gate entirely: the switch must not affect
/// real-thread execution, which has no virtual-time gate to batch.
#[test]
fn threaded_mode_ignores_gate_switch() {
    for gate in [GateMode::HandoffPerOp, GateMode::SafeWindow] {
        let queue = QueueConfig::new(1024, 48);
        let sched = SchedConfig::new(QueueKind::Sws, queue).with_seed(3);
        let cfg = RunConfig::new(4, sched).with_gate(gate);
        let wl = UtsWorkload::new(UtsParams::geo_small(6));
        let report = run_workload_mode(
            &cfg,
            &wl,
            ExecMode::Threaded {
                inject_latency: false,
            },
        );
        assert!(report.total_tasks() > 0, "threaded run must complete");
        assert_eq!(
            report.total_engine(),
            Default::default(),
            "threaded mode has no virtual-time engine"
        );
    }
}

/// The identity override table: every site resolved through the table
/// at its own production ordering, no tracker.
fn identity_ctl() -> Arc<OrderingCtl> {
    use sws_core::{AtomicSite, MemOrder};
    use sws_shmem::overrides::{ORD_ACQREL, ORD_ACQUIRE, ORD_RELAXED, ORD_RELEASE};

    let mut ov = sws_shmem::OrderingOverrides::identity();
    for s in AtomicSite::ALL {
        let code = match s.production() {
            MemOrder::Relaxed => ORD_RELAXED,
            MemOrder::Acquire => ORD_ACQUIRE,
            MemOrder::Release => ORD_RELEASE,
            MemOrder::AcqRel => ORD_ACQREL,
        };
        ov = ov.with(s.id(), code);
    }
    Arc::new(OrderingCtl {
        overrides: ov,
        tracker: None,
    })
}

/// The necessity prover's identity override table must be invisible in
/// virtual time: attaching it to a run changes how each gated op *looks
/// up* its ordering, never which ordering it gets. A byte-level
/// divergence here would mean campaign worlds measure a different system
/// than production, voiding every live verdict.
#[test]
fn identity_override_table_is_invisible() {
    let ctl = identity_ctl();
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        for gate in [GateMode::SafeWindow, GateMode::HandoffPerOp] {
            let queue = QueueConfig::new(1024, 48);
            let sched = SchedConfig::new(kind, queue).with_seed(0xBA5E);
            let wl = UtsWorkload::new(UtsParams::geo_small(8));
            let bare = run_workload(&RunConfig::new(8, sched).with_gate(gate), &wl);
            let tabled = run_workload(
                &RunConfig::new(8, sched).with_gate(gate).with_ordering(ctl.clone()),
                &wl,
            );
            assert_reports_identical(&bare, &tabled);
            assert!(bare.total_tasks() > 0, "workload must actually run");
        }
    }
}

/// `FlatServe` that records, from inside the running world, how many
/// owners the ordering table has: more than exist outside the run means
/// the world really carries it.
struct TableProbe<'t> {
    inner: FlatServe,
    ctl: &'t Arc<OrderingCtl>,
    owners_seen: AtomicUsize,
}

impl Workload for TableProbe<'_> {
    fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>) {
        self.inner.register(reg)
    }
    fn seeds(&self, pe: usize, n_pes: usize) -> Vec<TaskDescriptor> {
        self.inner.seeds(pe, n_pes)
    }
    fn setup(&self, _ctx: &sws_shmem::ShmemCtx) {
        self.owners_seen
            .fetch_max(Arc::strong_count(self.ctl), Ordering::Relaxed);
    }
}

impl ServiceWorkload for TableProbe<'_> {
    fn n_ingress(&self, n_pes: usize) -> usize {
        self.inner.n_ingress(n_pes)
    }
    fn arrival_source(&self, pe: usize, n_pes: usize) -> Option<Box<dyn ArrivalSource>> {
        self.inner.arrival_source(pe, n_pes)
    }
}

/// The service twin of [`identity_override_table_is_invisible`]:
/// `run_service` must hand `RunConfig::ordering` to its world exactly as
/// `run_workload` does, and the identity table must be just as invisible
/// there.
#[test]
fn identity_override_table_reaches_service_worlds_invisibly() {
    let ctl = identity_ctl();
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let sched = SchedConfig::new(kind, QueueConfig::new(1024, 24));
        let serve = || FlatServe::new(ArrivalPlan::poisson(0x5E41_0001, 4_000, 200_000), 2_500, 2);
        let svc = ServiceConfig::default();
        let bare = run_service(&RunConfig::new(4, sched), &svc, &serve());
        let probe = TableProbe {
            inner: serve(),
            ctl: &ctl,
            owners_seen: AtomicUsize::new(0),
        };
        let cfg = RunConfig::new(4, sched).with_ordering(ctl.clone());
        let owners_outside = Arc::strong_count(&ctl);
        let tabled = run_service(&cfg, &svc, &probe);
        assert!(
            probe.owners_seen.load(Ordering::Relaxed) > owners_outside,
            "{kind:?}: the service world never received the ordering table"
        );
        assert_reports_identical(&bare, &tabled);
        assert_eq!(bare.service_summary_line(), tabled.service_summary_line());
        assert!(bare.total_offered() > 0, "plan must offer arrivals");
    }
}
