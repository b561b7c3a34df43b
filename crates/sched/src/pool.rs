//! The Scioto-style task-pool surface (paper §2.1).
//!
//! [`run_workload`](crate::run_workload) is the one-shot experiment
//! entry point; [`TaskPool`] is the embeddable form for SPMD programs
//! that interleave task-pool phases with their own one-sided
//! communication — the shape of a real Scioto/SWS application:
//!
//! ```
//! use sws_core::QueueConfig;
//! use sws_sched::pool::TaskPool;
//! use sws_sched::{QueueKind, SchedConfig, TaskCtx};
//! use sws_shmem::{run_world, WorldConfig};
//! use sws_task::{TaskDescriptor, TaskRegistry};
//!
//! let out = run_world(WorldConfig::virtual_time(4, 1 << 16), |ctx| {
//!     let mut reg: TaskRegistry<TaskCtx> = TaskRegistry::new();
//!     reg.register(1, |tctx, payload| {
//!         let n = payload[0];
//!         tctx.compute(1_000);
//!         if n > 0 {
//!             tctx.spawn(TaskDescriptor::new(1, &[n - 1]));
//!             tctx.spawn(TaskDescriptor::new(1, &[n - 1]));
//!         }
//!     });
//!     let sched = SchedConfig::new(QueueKind::Sws, QueueConfig::new(512, 24));
//!     let mut pool = TaskPool::create(ctx, &reg, sched);
//!     if ctx.my_pe() == 0 {
//!         pool.add_task(TaskDescriptor::new(1, &[6]));
//!     }
//!     let stats = pool.process(); // runs to global termination
//!     stats.tasks_executed
//! })
//! .unwrap();
//! assert_eq!(out.results.iter().sum::<u64>(), (1 << 7) - 1);
//! ```
//!
//! Pool phases are collective: every PE must create the pool (same
//! order, same configuration) and call [`TaskPool::process`], which
//! returns only after *global* termination. Multiple pool phases may
//! run in one world; each allocates fresh symmetric state.

use sws_core::{SdcQueue, SwsQueue};
use sws_shmem::ShmemCtx;
use sws_task::{TaskDescriptor, TaskRegistry};

use crate::config::{QueueKind, SchedConfig};
use crate::report::WorkerStats;
use crate::taskctx::TaskCtx;
use crate::termination::CounterTd;
use crate::worker::Worker;

/// An embeddable task pool: seed tasks, then process to termination.
pub struct TaskPool<'r, 'a> {
    worker: PoolWorker<'r, 'a>,
}

/// The pool's worker, monomorphic over the queue it was created with.
enum PoolWorker<'r, 'a> {
    Sws(Worker<'r, 'a, SwsQueue<'a>>),
    Sdc(Worker<'r, 'a, SdcQueue<'a>>),
}

impl<'r, 'a> TaskPool<'r, 'a> {
    /// Collectively create a pool (all PEs, identical `sched`).
    pub fn create(
        ctx: &'a ShmemCtx,
        registry: &'r TaskRegistry<TaskCtx<'a>>,
        sched: SchedConfig,
    ) -> TaskPool<'r, 'a> {
        let worker = match sched.kind {
            QueueKind::Sws => {
                let queue = SwsQueue::new(ctx, sched.queue);
                PoolWorker::Sws(Worker::new(ctx, queue, registry, CounterTd::new(ctx), sched))
            }
            QueueKind::Sdc => {
                let queue = SdcQueue::new(ctx, sched.queue);
                PoolWorker::Sdc(Worker::new(ctx, queue, registry, CounterTd::new(ctx), sched))
            }
        };
        TaskPool { worker }
    }

    /// Seed one task into this PE's queue (call before `process`).
    pub fn add_task(&mut self, task: TaskDescriptor) {
        self.add_tasks(&[task]);
    }

    /// Seed several tasks into this PE's queue.
    pub fn add_tasks(&mut self, tasks: &[TaskDescriptor]) {
        match &mut self.worker {
            PoolWorker::Sws(w) => w.seed(tasks),
            PoolWorker::Sdc(w) => w.seed(tasks),
        }
    }

    /// Process the pool to *global* termination (collective); returns
    /// this PE's scheduler statistics.
    pub fn process(self) -> WorkerStats {
        match self.worker {
            PoolWorker::Sws(w) => w.run().0,
            PoolWorker::Sdc(w) => w.run().0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_core::QueueConfig;
    use sws_shmem::{run_world, WorldConfig};

    fn fib_registry<'a>() -> TaskRegistry<TaskCtx<'a>> {
        let mut reg: TaskRegistry<TaskCtx<'a>> = TaskRegistry::new();
        reg.register(9, |tctx, p| {
            let n = p[0];
            tctx.compute(300);
            if n >= 2 {
                tctx.spawn(TaskDescriptor::new(9, &[n - 1]));
                tctx.spawn(TaskDescriptor::new(9, &[n - 2]));
            }
        });
        reg
    }

    /// Task count of the naive Fibonacci call tree.
    fn fib_calls(n: u64) -> u64 {
        if n < 2 {
            1
        } else {
            1 + fib_calls(n - 1) + fib_calls(n - 2)
        }
    }

    #[test]
    fn pool_runs_to_global_termination() {
        let out = run_world(WorldConfig::virtual_time(4, 1 << 16), |ctx| {
            let reg = fib_registry();
            let sched = SchedConfig::new(QueueKind::Sws, QueueConfig::new(1024, 24));
            let mut pool = TaskPool::create(ctx, &reg, sched);
            if ctx.my_pe() == 0 {
                pool.add_task(TaskDescriptor::new(9, &[10]));
            }
            pool.process().tasks_executed
        })
        .unwrap();
        assert_eq!(out.results.iter().sum::<u64>(), fib_calls(10));
    }

    #[test]
    fn two_pool_phases_in_one_world() {
        let out = run_world(WorldConfig::virtual_time(3, 1 << 16), |ctx| {
            let reg = fib_registry();
            let mut totals = Vec::new();
            for phase in 0..2u8 {
                let sched =
                    SchedConfig::new(QueueKind::Sws, QueueConfig::new(512, 24));
                let mut pool = TaskPool::create(ctx, &reg, sched);
                if ctx.my_pe() == phase as usize {
                    pool.add_task(TaskDescriptor::new(9, &[8]));
                }
                totals.push(pool.process().tasks_executed);
                ctx.barrier_all();
            }
            totals
        })
        .unwrap();
        for phase in 0..2 {
            let total: u64 = out.results.iter().map(|v| v[phase]).sum();
            assert_eq!(total, fib_calls(8), "phase {phase}");
        }
    }

    #[test]
    fn sdc_pool_works_too() {
        let out = run_world(WorldConfig::virtual_time(2, 1 << 16), |ctx| {
            let reg = fib_registry();
            let sched = SchedConfig::new(QueueKind::Sdc, QueueConfig::new(512, 24));
            let mut pool = TaskPool::create(ctx, &reg, sched);
            if ctx.my_pe() == 0 {
                pool.add_tasks(&[
                    TaskDescriptor::new(9, &[7]),
                    TaskDescriptor::new(9, &[7]),
                ]);
            }
            pool.process().tasks_executed
        })
        .unwrap();
        assert_eq!(out.results.iter().sum::<u64>(), 2 * fib_calls(7));
    }

    /// FNV-1a over every PE's `WorkerStats` (less the wall-clock
    /// `engine`) and `OpStats` after a 4-PE pool processes fib(10).
    fn pool_digest(kind: QueueKind) -> u64 {
        let out = run_world(WorldConfig::virtual_time(4, 1 << 16), |ctx| {
            let reg = fib_registry();
            let sched = SchedConfig::new(kind, QueueConfig::new(1024, 24));
            let mut pool = TaskPool::create(ctx, &reg, sched);
            if ctx.my_pe() == 0 {
                pool.add_task(TaskDescriptor::new(9, &[10]));
            }
            WorkerStats { engine: Default::default(), ..pool.process() }
        })
        .unwrap();
        format!("{:?} {:?}", out.results, out.stats.per_pe)
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// How the pool holds its queue must not move a counter. Re-pinned
    /// when `WorkerStats` lost its per-PE capture field: these are the
    /// digests of commit d40c056's text with ` proto: [],` taken out.
    #[test]
    fn pool_results_are_pinned() {
        let got = [pool_digest(QueueKind::Sws), pool_digest(QueueKind::Sdc)];
        assert_eq!(got, [0x586dc5ec0f9651e4, 0x0698bdc2d19c906d], "{got:#x?}");
    }
}
