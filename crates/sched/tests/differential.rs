//! Differential determinism suite: what a virtual-time run produces is
//! a function of its configuration and seed — never of the engine that
//! happens to schedule it.
//!
//! The virtual-time engine (see DESIGN.md §5a) only decides *which PE
//! runs next*; effects still apply in `(clock, rank)` order. These tests
//! pin that: `virtual_results_are_pinned` holds report digests taken
//! before the engine moved every PE onto one OS thread (when a second,
//! hand-off-per-op gate was the in-tree oracle), and the rest prove that
//! orthogonal switches (ordering tables) leave makespans, per-PE
//! communication counters (`OpStats`), queue counters and worker timing
//! decompositions alone. Only wall-clock fields (`wall_ms`,
//! `EngineStats`) may differ.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sws_core::QueueConfig;
use sws_sched::runner::run_workload_mode;
use sws_sched::{
    run_service, run_workload, ArrivalSource, MembershipPlan, QueueKind, RunConfig, RunReport,
    SchedConfig, ServiceConfig, ServiceWorkload, TaskCtx, Workload,
};
use sws_shmem::{ExecMode, FaultPlan, OpClass, OrderingCtl, RetryPolicy, TargetSel};
use sws_task::{TaskDescriptor, TaskRegistry};
use sws_workloads::arrivals::{ArrivalPlan, FlatServe, UtsServe};
use sws_workloads::bpc::{BpcParams, BpcWorkload};
use sws_workloads::synth::FlatBag;
use sws_workloads::uts::{UtsParams, UtsWorkload};

fn report_for(kind: QueueKind, seed: u64) -> RunReport {
    let queue = QueueConfig::new(1024, 48);
    let sched = SchedConfig::new(kind, queue).with_seed(seed);
    let cfg = RunConfig::new(8, sched);
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

/// FNV-1a over everything deterministic a report carries: makespan,
/// per-PE `OpStats`, timing decomposition, queue and service counters,
/// events. Wall-clock fields (`wall_ms`, `EngineStats`) stay out.
fn digest(r: &RunReport) -> u64 {
    let mut text = format!("{} {} {} {:?}", r.system, r.n_pes, r.makespan_ns, r.comm.per_pe);
    for w in &r.workers {
        text.push_str(&format!(
            "|{} {} {} {} {} {} {} {:?} {} {:?} {:?}",
            w.tasks_executed,
            w.task_ns,
            w.steal_ns,
            w.search_ns,
            w.upkeep_ns,
            w.first_work_ns,
            w.runtime_ns,
            w.queue,
            w.crashed,
            w.service,
            w.events,
        ));
    }
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// A run hostile enough to reach the recovery branches drops alone never
/// do: UTS on 16 PEs with 5 % drops and no retries, a short reclaim
/// grace, a stall window on PE 3 and a crash-stop of PE 5 — steals fail,
/// abort, poison and get reclaimed on both queues. (The grace is three
/// detection timeouts: a thief writes no completion word later than half
/// the grace after its claim, and a failed copy is one timeout old.)
fn hostile_run(kind: QueueKind) -> RunReport {
    let queue = QueueConfig::new(1024, 48)
        .with_reclaim_grace_ns(60_000)
        .with_retry(RetryPolicy::none());
    let mut sched = SchedConfig::new(kind, queue).with_seed(0xBA5E);
    sched.trace = true;
    let plan = FaultPlan::seeded(0x5E41_0003)
        .with_drop(OpClass::All, TargetSel::Any, 0.05)
        .with_stall(3, 40_000, 120_000)
        .with_crash(5, 300_000);
    let cfg = RunConfig::new(16, sched).with_faults(plan);
    run_workload(&cfg, &UtsWorkload::new(UtsParams::geo_small(8)))
}

/// UTS on 64 PEs, BPC on 32, UTS on 16 with 2 % drops, an elastic
/// service run with 4 % drops, the hostile run, and UTS on 4 PEs with
/// 8-slot rings (most spawns find the ring full and run from the
/// worker's overflow list) — traced, so the event logs count.
fn pinned_runs(kind: QueueKind) -> [RunReport; 6] {
    let mut sched = SchedConfig::new(kind, QueueConfig::new(1024, 48)).with_seed(0xBA5E);
    sched.trace = true;
    let mut tight = sched;
    tight.queue = QueueConfig::new(8, 48);
    let drops = |p| FaultPlan::seeded(0x5E41_0002).with_drop(OpClass::All, TargetSel::Any, p);
    let uts = |depth| UtsWorkload::new(UtsParams::geo_small(depth));
    let serve = FlatServe::new(ArrivalPlan::poisson(0x5E41_0002, 5_000, 400_000), 3_000, 1);
    let elastic = ServiceConfig::default()
        .with_membership(MembershipPlan::fixed().away(2, 120_000, 90_000));
    [
        run_workload(&RunConfig::new(64, sched), &uts(9)),
        run_workload(&RunConfig::new(32, sched), &BpcWorkload::new(BpcParams::scaled(32, 6))),
        run_workload(&RunConfig::new(16, sched).with_faults(drops(0.02)), &uts(8)),
        run_service(&RunConfig::new(4, sched).with_faults(drops(0.04)), &elastic, &serve),
        hostile_run(kind),
        run_workload(&RunConfig::new(4, tight), &uts(8)),
    ]
}

/// The engine's schedule is *the* schedule. These digests were taken at
/// commit 616a308, where PEs were OS threads and the safe-window gate was
/// differentially tested against a hand-off-per-op gate (both agreed);
/// any engine since must reproduce them bit for bit. A legitimate
/// protocol or cost-model change re-pins them — in its own commit.
///
/// The fault-plan runs (#3, #4 and the hostile #5, added at 3fceb67)
/// were re-pinned when idle owners started polling their outstanding
/// claims (the extra charged local reads shift those PEs' clocks, and
/// with them victim choices and fault draws), and SDC's #5 again when
/// thieves stopped writing completion words later than half the grace
/// after their claim (one late poison became a grace reclaim). The
/// service #4 moved again when service mode began to stop by the batch
/// termination rule. The tight-ring #6 was taken at abddaf3, before
/// spawns reached the ring as encoded records. All twelve moved once,
/// with no run changing, when the scheduler log stopped recording steal
/// attempts (spans record them): each new value is the digest at
/// 8cf84fb with those five event kinds filtered out of the logs.
#[test]
fn virtual_results_are_pinned() {
    let pinned = [
        (
            QueueKind::Sws,
            [0x646f71759decea43, 0x6ac2fb2cbb2c8b2c, 0x945dc7cb09a17aaf, 0xbd8603f604044cc8, 0x838f9837e934e5b0, 0x8516d9fd1caa56fc],
        ),
        (
            QueueKind::Sdc,
            [0xe3a535d0646fdfba, 0x5b16197252ab3afc, 0x2513eaad66f5eab7, 0xe41004460fc3c438, 0x4e5cfb980d20c0a5, 0xdb17ac609e3f4246],
        ),
    ];
    for (kind, want) in pinned {
        let runs = pinned_runs(kind);
        for r in &runs {
            assert!(r.total_steals() > 0, "{kind:?}: a pinned run stole nothing");
        }
        // The hostile pin must keep reaching the branches it was added
        // for, or it pins nothing.
        let h = &runs[4];
        assert_eq!(h.total_tasks(), 6_217, "{kind:?}: hostile run lost or duplicated tasks");
        let reached = [
            ("failed", h.total_steals_failed()),
            ("aborted", h.total_steals_aborted()),
            ("poisoned", h.total_completions_poisoned()),
            ("reclaimed", h.total_claims_reclaimed()),
            ("crashed", h.crashed_pes() as u64),
        ];
        for (branch, n) in reached {
            assert!(n > 0, "{kind:?}: the hostile pin no longer reaches `{branch}`");
        }
        // Likewise the tight-ring pin: tasks that never came out of a
        // ring ran from the overflow list.
        let t = &runs[5];
        let popped: u64 = t.workers.iter().map(|w| w.queue.popped).sum();
        assert_eq!(t.total_tasks(), 6_217, "{kind:?}: tight-ring run lost or duplicated tasks");
        assert!(t.total_tasks() > popped, "{kind:?}: the tight-ring pin no longer overflows");
        let got = runs.map(|r| digest(&r));
        assert_eq!(got, want, "{kind:?}: reports diverged from the pin");
    }
}

/// The four shapes `sws-run` launches — UTS, BPC and a flat bag to
/// termination, and a UTS service with an away window and 3 % drops —
/// untraced, at the CLI's ring size.
fn cli_shaped_runs(kind: QueueKind) -> [RunReport; 4] {
    let sched = |task_bytes| SchedConfig::new(kind, QueueConfig::new(16_384, task_bytes)).with_seed(0xBA5E);
    let drops = FaultPlan::seeded(0xBA5E ^ 0xFA17).with_drop(OpClass::All, TargetSel::Any, 0.03);
    let elastic = ServiceConfig::default()
        .with_membership(MembershipPlan::fixed().away(3, 100_000, 150_000));
    let serve = UtsServe::new(UtsParams::geo_small(8), ArrivalPlan::poisson(0xBA5E ^ 0xA881, 10_000, 500_000), 4, 1);
    [
        run_workload(&RunConfig::new(8, sched(48)), &UtsWorkload::new(UtsParams::geo_small(8))),
        run_workload(&RunConfig::new(8, sched(32)), &BpcWorkload::new(BpcParams::scaled(16, 8))),
        run_workload(&RunConfig::new(4, sched(24)), &FlatBag::new(2_000, 50_000, 24)),
        run_service(&RunConfig::new(8, sched(48)).with_faults(drops), &elastic, &serve),
    ]
}

/// One system's [`cli_shaped_runs`]: makespan, total ops issued and
/// digest of each.
type CliShapedPins = (QueueKind, [(u64, u64, u64); 4]);

/// Makespan, total ops issued, and the full digest (per-PE `OpStats`,
/// timing, queue and service counters) of [`cli_shaped_runs`], taken at
/// cb37789 under the counter termination detector — the commit before
/// the token ring, the `Termination` trait and the one-valued scheduler
/// knobs were deleted. The detector's ops are part of every number here:
/// a flush, an idle-set update or a poll that moves, moves them. The
/// service #4 was re-pinned when service mode began to stop by the batch
/// termination rule.
#[test]
fn counter_detector_runs_are_pinned() {
    let pinned: [CliShapedPins; 2] = [
        (
            QueueKind::Sws,
            [(484_484, 7_732, 0xc08a06e7849f81d2), (8_999_128, 5_102, 0xebec04ea7671dd48), (25_527_462, 3_809, 0xdf61a755f4cd0ab8), (499_691, 2_031, 0x00fea3d76cf68689)],
        ),
        (
            QueueKind::Sdc,
            [(571_207, 8_644, 0x52dd390640dbcea4), (9_192_294, 6_101, 0x83ee719c59bd575b), (25_636_347, 4_061, 0xa90d70c4baccdbde), (529_636, 4_532, 0x8f2b1f452c8ff0ae)],
        ),
    ];
    for (kind, want) in pinned {
        let runs = cli_shaped_runs(kind);
        let served = &runs[3];
        assert!(served.arrival_conservation_ok(), "{kind:?}: service run lost an arrival");
        assert_eq!(served.workers[3].service.rejoins, 1, "{kind:?}: PE 3 never rejoined");
        assert!(served.comm.total.total_failed() > 0, "{kind:?}: the drop plan dropped nothing");
        let got = runs.map(|r| (r.makespan_ns, r.comm.total.total_ops(), digest(&r)));
        assert_eq!(got, want, "{kind:?}: reports diverged from the pin");
    }
}

/// The engine's own counters on pinned run #1 (UTS, 64 PEs), taken at
/// d629d41: how many gated ops passed below the horizon, how many gave up
/// the CPU, how many times the scheduler picked a PE. Whoever does the
/// picking, these are a function of the clocks alone.
#[test]
fn engine_counters_are_pinned() {
    for (kind, (fast_ops, slow_ops, windows)) in [(QueueKind::Sws, (433, 23961, 24985)), (QueueKind::Sdc, (384, 29264, 30288))] {
        let mut sched = SchedConfig::new(kind, QueueConfig::new(1024, 48)).with_seed(0xBA5E);
        sched.trace = true;
        let wl = UtsWorkload::new(UtsParams::geo_small(9));
        let e = run_workload(&RunConfig::new(64, sched), &wl).total_engine();
        assert_eq!((e.fast_ops, e.slow_ops, e.windows), (fast_ops, slow_ops, windows), "{kind:?}");
    }
}

/// Same configuration, same seed, same report — and the engine reports
/// its own activity through `EngineStats` without perturbing the run.
#[test]
fn reruns_are_identical_and_the_engine_is_live() {
    for (kind, seed) in [(QueueKind::Sws, 0xBA5E), (QueueKind::Sws, 42), (QueueKind::Sdc, 1337)] {
        let a = report_for(kind, seed);
        let b = report_for(kind, seed);
        assert_reports_identical(&a, &b);
        assert!(a.total_tasks() > 0, "workload must actually run");
        assert!(a.total_engine().gated_ops() > 0);
        assert_eq!(a.total_engine(), b.total_engine(), "one thread: even the engine counters repeat");
        assert_eq!(a.total_engine().gate_wait_ns, 0);
    }
}

/// Threaded mode has no virtual-time engine to report on.
#[test]
fn threaded_mode_has_no_engine() {
    let queue = QueueConfig::new(1024, 48);
    let sched = SchedConfig::new(QueueKind::Sws, queue).with_seed(3);
    let cfg = RunConfig::new(4, sched);
    let wl = UtsWorkload::new(UtsParams::geo_small(6));
    let report = run_workload_mode(&cfg, &wl, ExecMode::Threaded);
    assert!(report.total_tasks() > 0, "threaded run must complete");
    assert_eq!(report.total_engine(), Default::default());
}

/// The identity override table: every site resolved through the table
/// at its own production ordering, no tracker.
fn identity_ctl() -> Arc<OrderingCtl> {
    Arc::new(OrderingCtl {
        overrides: sws_core::AtomicSite::production_table(),
        tracker: None,
        defect: None,
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
        let queue = QueueConfig::new(1024, 48);
        let sched = SchedConfig::new(kind, queue).with_seed(0xBA5E);
        let wl = UtsWorkload::new(UtsParams::geo_small(8));
        let bare = run_workload(&RunConfig::new(8, sched), &wl);
        let tabled = run_workload(&RunConfig::new(8, sched).with_ordering(ctl.clone()), &wl);
        assert_reports_identical(&bare, &tabled);
        assert!(bare.total_tasks() > 0, "workload must actually run");
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
    fn n_ingress(&self) -> usize {
        self.inner.n_ingress()
    }
    fn arrival_source(&self, pe: usize) -> Option<Box<dyn ArrivalSource>> {
        self.inner.arrival_source(pe)
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
