//! Scheduler-level chaos tests: full workloads run to global
//! termination under deterministic fault injection, on both queues,
//! with every task executed exactly once.
//!
//! Three seeded failure schedules are exercised (the acceptance matrix):
//! transient drops, a stall window on the victim everyone steals from,
//! and a crash-stop of a worker PE. A fourth test pins the recovery
//! no-op property: an all-zero fault plan produces a run bit-identical
//! to no plan at all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use sws_core::QueueConfig;
use sws_sched::{
    run_workload, QueueKind, RunConfig, SchedConfig, TaskCtx, Workload,
};
use sws_shmem::{FaultPlan, OpClass, RetryPolicy, TargetSel};
use sws_task::{PayloadReader, PayloadWriter, TaskDescriptor, TaskRegistry};
use sws_workloads::uts::{UtsParams, UtsWorkload};

/// Binary-tree workload (as in the scheduler tests): a task at depth d
/// spawns two children until depth 0. Total tasks = 2^(depth+1) - 1.
struct TreeWorkload {
    depth: u32,
    task_ns: u64,
    executed: Arc<AtomicU64>,
}

impl TreeWorkload {
    fn new(depth: u32, task_ns: u64) -> TreeWorkload {
        TreeWorkload {
            depth,
            task_ns,
            executed: Arc::new(AtomicU64::new(0)),
        }
    }

    fn task(depth_left: u32) -> TaskDescriptor {
        let mut w = PayloadWriter::new();
        w.u32(depth_left);
        TaskDescriptor::new(7, w.as_slice())
    }

    fn total_tasks(&self) -> u64 {
        (1u64 << (self.depth + 1)) - 1
    }

    fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }
}

impl Workload for TreeWorkload {
    fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>) {
        let task_ns = self.task_ns;
        let counter = Arc::clone(&self.executed);
        reg.register(7, move |tctx, payload| {
            let mut r = PayloadReader::new(payload);
            let depth_left = r.u32();
            counter.fetch_add(1, Ordering::Relaxed);
            tctx.compute(task_ns);
            if depth_left > 0 {
                tctx.spawn(TreeWorkload::task(depth_left - 1));
                tctx.spawn(TreeWorkload::task(depth_left - 1));
            }
        });
    }

    fn seeds(&self, pe: usize, _n_pes: usize) -> Vec<TaskDescriptor> {
        if pe == 0 {
            vec![TreeWorkload::task(self.depth)]
        } else {
            Vec::new()
        }
    }
}

fn config(kind: QueueKind, n_pes: usize) -> RunConfig {
    RunConfig::new(n_pes, SchedConfig::new(kind, QueueConfig::new(1024, 24)))
}

/// Run `kind` under `plan` and assert exactly-once execution.
fn run_chaos(
    kind: QueueKind,
    n_pes: usize,
    depth: u32,
    plan: FaultPlan,
    label: &str,
) -> sws_sched::RunReport {
    let w = TreeWorkload::new(depth, 1_500);
    let cfg = config(kind, n_pes).with_faults(plan);
    let report = run_workload(&cfg, &w);
    assert_eq!(
        report.total_tasks(),
        w.total_tasks(),
        "{label}: task count drifted (lost or duplicated work)"
    );
    assert_eq!(
        w.executed(),
        w.total_tasks(),
        "{label}: handler executions != expected"
    );
    report
}

#[test]
fn transient_drops_conserve_tasks_both_queues() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let mut retries = 0;
        for seed in [0x5C4A_0001u64, 0x5C4A_0002, 0x5C4A_0003] {
            let plan = FaultPlan::seeded(seed).with_drop(
                OpClass::All,
                TargetSel::Any,
                0.08,
            );
            let label = format!("{kind:?} transient seed {seed:#x}");
            let r = run_chaos(kind, 4, 9, plan, &label);
            retries += r.total_steal_retries();
        }
        assert!(retries > 0, "{kind:?}: drops never exercised the retry path");
    }
}

#[test]
fn stall_window_on_victim_conserves_tasks() {
    // PE 0 holds all the seeds; stall it just as dissemination starts so
    // every thief's first steals hit the timeout/backoff path.
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let plan = FaultPlan::seeded(0x5C4A_0102).with_stall(0, 20_000, 80_000);
        let label = format!("{kind:?} stall window");
        run_chaos(kind, 3, 9, plan, &label);
    }
}

#[test]
fn crash_stop_worker_conserves_tasks() {
    // PE 2 crash-stops mid-run: it retires its queue, drains what it
    // owns, parks in the termination detector, and the survivors finish
    // the workload and quarantine it.
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let plan = FaultPlan::seeded(0x5C4A_0203).with_crash(2, 400_000);
        let label = format!("{kind:?} crash-stop");
        let r = run_chaos(kind, 4, 11, plan, &label);
        assert_eq!(r.crashed_pes(), 1, "{label}: PE 2 should have crashed");
        assert!(r.workers[2].crashed, "{label}: wrong PE flagged");
        assert!(
            r.fault_summary_line().is_some(),
            "{label}: fault summary missing"
        );
    }
}

#[test]
fn drops_and_crash_combined() {
    // The full gauntlet: transient drops everywhere plus a mid-run crash.
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let plan = FaultPlan::seeded(0x5C4A_0304)
            .with_drop(OpClass::All, TargetSel::Any, 0.05)
            .with_crash(3, 500_000);
        let label = format!("{kind:?} drops+crash");
        let r = run_chaos(kind, 4, 11, plan, &label);
        assert_eq!(r.crashed_pes(), 1, "{label}");
    }
}

#[test]
fn inactive_plan_is_bit_identical_to_no_plan() {
    let fingerprint = |faults: Option<FaultPlan>| {
        let w = TreeWorkload::new(9, 1_500);
        let mut cfg = config(QueueKind::Sws, 4);
        if let Some(p) = faults {
            cfg = cfg.with_faults(p);
        }
        let r = run_workload(&cfg, &w);
        (
            r.makespan_ns,
            r.total_steals(),
            r.workers
                .iter()
                .map(|w| (w.tasks_executed, w.runtime_ns, format!("{:?}", w.queue)))
                .collect::<Vec<_>>(),
            format!("{:?}", r.comm.per_pe),
        )
    };
    let clean = fingerprint(None);
    assert_eq!(
        clean,
        fingerprint(Some(FaultPlan::none())),
        "FaultPlan::none() must be a run-level no-op"
    );
    assert_eq!(
        clean,
        fingerprint(Some(FaultPlan::seeded(99))),
        "a seeded plan with no rules must be a run-level no-op"
    );
}

#[test]
#[should_panic(expected = "hosts the termination counters")]
fn crashing_pe0_is_rejected() {
    let w = TreeWorkload::new(4, 500);
    let cfg = config(QueueKind::Sws, 2)
        .with_faults(FaultPlan::seeded(1).with_crash(0, 10_000));
    let _ = run_workload(&cfg, &w);
}

// ---------------------------------------------------------------------
// Elastic membership × quarantine regression
// ---------------------------------------------------------------------

/// Regression: an elastic PE whose parked queue (and dropped ops) feed
/// thieves a failure streak must NOT be streak-quarantined — parking is
/// planned absence, not a fault. Before the fix, `Damping` counted the
/// steady failures against the away PE, crossed `quarantine_after`, and
/// excluded it from victim selection permanently; after the window the
/// rejoined PE starved because nobody would steal from it again.
#[test]
fn parked_elastic_pe_is_never_streak_quarantined() {
    use sws_sched::{run_service, MembershipPlan, ServiceConfig};
    use sws_workloads::arrivals::{ArrivalPlan, FlatServe};

    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        // Sustained single-ingress traffic keeps three thieves probing
        // PE 2's parked queue for a window far longer than the default
        // quarantine streak; targeted drops sharpen the failure signal.
        let w = FlatServe::new(
            ArrivalPlan::poisson(0x5C4A_0405, 3_000, 600_000),
            2_500,
            1,
        );
        let svc = ServiceConfig::default().with_membership(
            MembershipPlan::fixed().away(2, 80_000, 250_000),
        );
        let plan = FaultPlan::seeded(0x5C4A_0405).with_drop(
            OpClass::All,
            TargetSel::Pe(2),
            0.25,
        );
        let label = format!("{kind:?} elastic-quarantine regression");
        let r = run_service(&config(kind, 4).with_faults(plan), &svc, &w);
        assert!(
            r.arrival_conservation_ok() && r.arrivals_in_flight() == 0,
            "{label}: conservation violated"
        );
        assert_eq!(
            r.total_quarantines(),
            0,
            "{label}: planned absence must not trigger quarantine"
        );
        assert_eq!(r.workers[2].service.rejoins, 1, "{label}: no rejoin");
        assert!(
            r.workers[2].tasks_executed > 0,
            "{label}: rejoined PE never re-entered the pool's victim set"
        );
    }
}

// ---------------------------------------------------------------------
// Hostile runs end, and end exactly once
// ---------------------------------------------------------------------

/// Run `f` on its own thread and turn a hang into a named failure: a
/// run still going after 30 s (a clean one takes well under a second)
/// is a livelock. The stuck thread is abandoned to process exit — a
/// virtual-time world has no outside handle to stop it by.
fn under_watchdog<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(v) => v,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: still running after 30 s — the run never terminates")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{label}: the run panicked"),
    }
}

/// One hostile configuration: UTS `geo_small(8)` (6,217 nodes) on 16 PEs
/// under seeded drops, optionally with a stall window on PE 3 and a
/// crash-stop of PE 5.
#[derive(Copy, Clone, Debug)]
struct Hostile {
    kind: QueueKind,
    retry: RetryPolicy,
    grace_ns: u64,
    drop_prob: f64,
    stall_and_crash: bool,
}

/// Run `h` under the watchdog and assert it executed every node of the
/// tree exactly once.
fn assert_hostile_run_ends_exactly_once(h: Hostile) -> sws_sched::RunReport {
    let label = format!("{h:?}");
    let report = under_watchdog(&label, move || {
        let queue = QueueConfig::new(1024, 48)
            .with_retry(h.retry)
            .with_reclaim_grace_ns(h.grace_ns);
        let sched = SchedConfig::new(h.kind, queue).with_seed(0xBA5E);
        let mut plan = FaultPlan::seeded(0x5E41_0003).with_drop(
            OpClass::All,
            TargetSel::Any,
            h.drop_prob,
        );
        if h.stall_and_crash {
            plan = plan.with_stall(3, 40_000, 120_000).with_crash(5, 300_000);
        }
        let cfg = RunConfig::new(16, sched).with_faults(plan);
        run_workload(&cfg, &UtsWorkload::new(UtsParams::geo_small(8)))
    });
    assert_eq!(
        report.total_tasks(),
        6_217,
        "{label}: lost or duplicated work ({:?})",
        report.fault_summary_line()
    );
    report
}

/// Regression: a claim its thief could neither confirm nor poison is
/// recovered only by the owner's reclaim, and an owner that had gone
/// idle never ran it again — the block's tasks never executed,
/// `spawned != completed` forever, every PE polled forever. An idle
/// owner with claims outstanding must keep polling them.
#[test]
fn idle_owner_reclaims_abandoned_claims() {
    let default_grace = QueueConfig::new(1024, 48).reclaim_grace_ns;
    let none = RetryPolicy::none();
    for h in [
        Hostile { kind: QueueKind::Sdc, retry: none, grace_ns: default_grace, drop_prob: 0.02, stall_and_crash: false },
        Hostile { kind: QueueKind::Sdc, retry: none, grace_ns: 20_000, drop_prob: 0.05, stall_and_crash: true },
        Hostile { kind: QueueKind::Sws, retry: none, grace_ns: default_grace, drop_prob: 0.10, stall_and_crash: true },
    ] {
        let r = assert_hostile_run_ends_exactly_once(h);
        assert!(r.total_claims_reclaimed() > 0, "{h:?}: no claim was ever abandoned");
    }
}
/// Regression: the owner's `Completion::Reclaimed` mark does not outlive the
/// advertisement — the slot set is re-zeroed for the next one — so a
/// thief whose confirm arrived after that found 0, won, and landed a
/// block the owner had already re-run (6,414 tasks on the 6,217-node
/// tree), or marked a block of the *new* advertisement finished that
/// nobody copied (the run never ends). A thief must stop writing
/// completion words half a grace period after its claim.
#[test]
fn late_completion_never_lands_a_reclaimed_block() {
    let default = RetryPolicy::default_thief();
    for h in [
        Hostile { kind: QueueKind::Sws, retry: default, grace_ns: 20_000, drop_prob: 0.02, stall_and_crash: false },
        Hostile { kind: QueueKind::Sws, retry: default, grace_ns: 20_000, drop_prob: 0.05, stall_and_crash: true },
    ] {
        let r = assert_hostile_run_ends_exactly_once(h);
        assert!(r.total_claims_reclaimed() > 0, "{h:?}: no claim was ever reclaimed");
    }
}
