//! End-to-end scheduler tests: recursive workloads run to global
//! termination on both queues and both termination detectors, with every
//! task executed exactly once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sws_core::QueueConfig;
use sws_sched::{
    run_workload, QueueKind, RunConfig, SchedConfig, TaskCtx, Workload,
};
use sws_shmem::OpKind;
use sws_task::{PayloadReader, PayloadWriter, TaskDescriptor, TaskRegistry};

/// A synthetic binary-tree workload: a task at depth d spawns two
/// children until `depth` is reached; every task charges `task_ns` of
/// virtual compute. Total tasks = 2^(depth+1) - 1 per seed.
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

#[test]
fn single_pe_runs_to_completion() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let w = TreeWorkload::new(8, 1_000);
        let report = run_workload(&config(kind, 1), &w);
        assert_eq!(report.total_tasks(), w.total_tasks(), "{kind:?}");
        assert_eq!(
            w.executed.load(Ordering::Relaxed),
            w.total_tasks(),
            "{kind:?}: every task executed exactly once"
        );
        assert!(report.makespan_ns > 0);
    }
}

#[test]
fn work_disseminates_from_pe0_to_all() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let w = TreeWorkload::new(10, 2_000);
        let report = run_workload(&config(kind, 4), &w);
        assert_eq!(report.total_tasks(), w.total_tasks(), "{kind:?}");
        // Load balancing actually happened: every PE executed something.
        for (pe, ws) in report.workers.iter().enumerate() {
            assert!(
                ws.tasks_executed > 0,
                "{kind:?}: PE {pe} executed no tasks"
            );
        }
        // And the thieves stole to get it.
        assert!(report.total_steals() > 0, "{kind:?}");
    }
}

#[test]
fn deterministic_runs_same_seed() {
    let run = |seed: u64| {
        let w = TreeWorkload::new(9, 1_500);
        let mut cfg = config(QueueKind::Sws, 6);
        cfg.sched = cfg.sched.with_seed(seed);
        let r = run_workload(&cfg, &w);
        (
            r.makespan_ns,
            r.total_steals(),
            r.workers.iter().map(|w| w.tasks_executed).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(11), run(11), "identical seeds → identical runs");
    assert_ne!(
        run(11).0,
        run(12).0,
        "different seeds → different interleavings (makespans)"
    );
}

#[test]
fn sws_uses_fewer_comms_than_sdc_per_steal() {
    let w_sws = TreeWorkload::new(10, 2_000);
    let r_sws = run_workload(&config(QueueKind::Sws, 4), &w_sws);
    let w_sdc = TreeWorkload::new(10, 2_000);
    let r_sdc = run_workload(&config(QueueKind::Sdc, 4), &w_sdc);

    // The paper's claim: a successful steal costs ~half the time (3 ops,
    // 2 blocking vs 6 ops, 5 blocking).
    assert!(
        r_sws.mean_steal_op_ns() < 0.7 * r_sdc.mean_steal_op_ns(),
        "SWS steal op {} ns !< 0.7 × SDC {} ns",
        r_sws.mean_steal_op_ns(),
        r_sdc.mean_steal_op_ns()
    );
    // SWS never locks; SDC's protocol uses compare-swap for locking.
    assert_eq!(r_sws.total_comm().count(OpKind::AtomicCompareSwap), 0);
    assert!(r_sdc.total_comm().count(OpKind::AtomicCompareSwap) > 0);
}

#[test]
fn damping_off_still_correct() {
    let w = TreeWorkload::new(9, 1_000);
    let mut cfg = config(QueueKind::Sws, 4);
    cfg.sched = cfg.sched.with_damping(false);
    let report = run_workload(&cfg, &w);
    assert_eq!(report.total_tasks(), w.total_tasks());
}

#[test]
fn timing_decomposition_is_sane() {
    let w = TreeWorkload::new(10, 5_000);
    let report = run_workload(&config(QueueKind::Sws, 4), &w);
    let total_task: u64 = report.total_task_ns();
    // Useful work is at least tasks × task_ns (per-task overhead adds more).
    let expect = w.total_tasks() * 5_000;
    assert!(total_task >= expect, "{total_task} < {expect}");
    // Every PE's decomposed times fit inside its runtime.
    for ws in &report.workers {
        let parts = ws.task_ns + ws.steal_ns + ws.search_ns + ws.upkeep_ns;
        assert!(
            parts <= ws.runtime_ns + 1_000,
            "decomposition exceeds runtime: {parts} > {}",
            ws.runtime_ns
        );
    }
    // Efficiency is a sane fraction.
    let eff = report.parallel_efficiency();
    assert!(eff > 0.05 && eff <= 1.0, "efficiency {eff}");
}

#[test]
fn larger_seed_fanout_all_pes_seeded() {
    // Seeding every PE directly (no dissemination phase) must also work.
    struct AllSeeded(TreeWorkload);
    impl Workload for AllSeeded {
        fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>) {
            self.0.register(reg);
        }
        fn seeds(&self, _pe: usize, _n: usize) -> Vec<TaskDescriptor> {
            vec![TreeWorkload::task(6)]
        }
    }
    let w = AllSeeded(TreeWorkload::new(6, 500));
    let report = run_workload(&config(QueueKind::Sws, 4), &w);
    // 4 seeds × (2^7 - 1) tasks each.
    assert_eq!(report.total_tasks(), 4 * 127);
}

/// A seed that spawns `fillers` one-byte tasks and then one with a
/// 64-byte payload, into a pool of 48-byte records.
fn oversized_spawn(capacity: usize, fillers: usize) {
    struct Oversized(usize);
    impl Workload for Oversized {
        fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>) {
            let fillers = self.0;
            reg.register(21, move |tctx, payload| {
                if payload.is_empty() {
                    for _ in 0..fillers {
                        tctx.spawn(TaskDescriptor::new(21, &[1]));
                    }
                    tctx.spawn(TaskDescriptor::new(21, &[0u8; 64]));
                }
            });
        }
        fn seeds(&self, pe: usize, _n: usize) -> Vec<TaskDescriptor> {
            if pe == 0 {
                vec![TaskDescriptor::new(21, &[])]
            } else {
                Vec::new()
            }
        }
    }
    let sched = SchedConfig::new(QueueKind::Sws, QueueConfig::new(capacity, 48));
    run_workload(&RunConfig::new(1, sched), &Oversized(fillers));
}

#[test]
#[should_panic(expected = "fn_id 21 with a 64-byte payload needs 9 words, record holds 6 (48 bytes)")]
fn oversized_spawn_is_rejected_on_an_empty_ring() {
    oversized_spawn(1024, 0);
}

/// With the ring full the task used to bypass the record — and the check
/// — through the overflow list, and run.
#[test]
#[should_panic(expected = "fn_id 21 with a 64-byte payload needs 9 words, record holds 6 (48 bytes)")]
fn oversized_spawn_is_rejected_on_a_full_ring() {
    oversized_spawn(2, 3);
}
