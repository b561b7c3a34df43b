//! The execution context handed to task handlers.
//!
//! Handlers express *what* a task does — spawning subtasks and consuming
//! (simulated) compute time — while the worker owns the queue and the
//! clock. A spawn is encoded on the spot into a record of the queue's
//! size, so a task that cannot travel through the ring is rejected where
//! it was made; the records are buffered here and handed to the queue as
//! one block after the handler returns, which keeps handlers free of
//! queue borrows and makes a task's spawns atomic with respect to steals
//! (children only become stealable after the parent finished, matching
//! LIFO task-pool semantics).

use sws_shmem::ShmemCtx;
use sws_task::{encode_record, TaskDescriptor};

/// Per-task execution context.
///
/// Besides spawning and compute charging, handlers get the PE's
/// [`ShmemCtx`] — the paper's task model explicitly allows tasks to
/// "communicate and use data stored in the global address space"
/// (§2.1), e.g. claiming visited flags with remote atomics. The one
/// restriction carries over too: tasks must not *wait* on results of
/// concurrently executing tasks (no blocking dependencies).
pub struct TaskCtx<'a> {
    shmem: &'a ShmemCtx,
    /// The running task's spawns: whole records of `task_words`, in
    /// spawn order.
    spawned: Vec<u64>,
    task_words: usize,
    compute_ns: u64,
    arrival_mark: Option<u64>,
}

impl<'a> TaskCtx<'a> {
    /// A context for a pool whose queue records are `task_words` long.
    pub(crate) fn new(shmem: &'a ShmemCtx, task_words: usize) -> TaskCtx<'a> {
        TaskCtx {
            shmem,
            spawned: Vec::new(),
            task_words,
            compute_ns: 0,
            arrival_mark: None,
        }
    }

    /// Rank of the executing PE.
    pub fn my_pe(&self) -> usize {
        self.shmem.my_pe()
    }

    /// World size.
    pub fn n_pes(&self) -> usize {
        self.shmem.n_pes()
    }

    /// One-sided access to the partitioned global address space.
    pub fn shmem(&self) -> &'a ShmemCtx {
        self.shmem
    }

    /// Spawn a subtask into the local queue (enqueued when the handler
    /// returns). Panics if the task does not fit the pool's queue record.
    pub fn spawn(&mut self, task: TaskDescriptor) {
        self.spawn_parts(task.fn_id(), task.payload());
    }

    /// [`TaskCtx::spawn`] from a task's parts — handler `fn_id` and its
    /// `payload` bytes — without building a descriptor first.
    pub fn spawn_parts(&mut self, fn_id: u16, payload: &[u8]) {
        let at = self.spawned.len();
        self.spawned.resize(at + self.task_words, 0);
        encode_record(fn_id, payload, &mut self.spawned[at..]);
    }

    /// Charge `ns` of task compute time to the executing PE's clock.
    pub fn compute(&mut self, ns: u64) {
        self.compute_ns += ns;
    }

    /// Mark the running task as a service-mode arrival injected at
    /// virtual time `inject_ns`. The worker records the enqueue→completion
    /// latency — including this task's compute charge — into the PE's
    /// service histogram when the handler finishes. Exactly one sample
    /// per call, so arrival conservation can count completions by sample.
    pub fn mark_arrival(&mut self, inject_ns: u64) {
        self.arrival_mark = Some(inject_ns);
    }

    /// Take (and clear) the arrival mark set by the handler.
    pub(crate) fn take_arrival_mark(&mut self) -> Option<u64> {
        self.arrival_mark.take()
    }

    /// Reset for reuse across tasks (the worker recycles one context to
    /// avoid per-task allocation).
    pub(crate) fn reset(&mut self) {
        self.spawned.clear();
        self.compute_ns = 0;
        self.arrival_mark = None;
    }

    /// The compute time the handler charged.
    pub(crate) fn compute_ns(&self) -> u64 {
        self.compute_ns
    }

    /// The handler's spawns as encoded records, in spawn order.
    pub(crate) fn spawned(&self) -> &[u64] {
        &self.spawned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_shmem::{run_world, WorldConfig};

    #[test]
    fn buffers_spawns_compute_and_exposes_shmem() {
        run_world(WorldConfig::virtual_time(1, 256), |ctx| {
            let mut c = TaskCtx::new(ctx, 3);
            assert_eq!(c.my_pe(), 0);
            assert_eq!(c.n_pes(), 1);
            c.spawn(TaskDescriptor::new(1, &[1]));
            c.spawn_parts(1, &[2]);
            c.compute(500);
            c.compute(250);
            assert_eq!(c.compute_ns(), 750);
            // Both forms leave the same thing: one whole record each, in
            // spawn order.
            let records: Vec<_> = c.spawned().chunks(3).map(TaskDescriptor::decode).collect();
            assert_eq!(records, [TaskDescriptor::new(1, &[1]), TaskDescriptor::new(1, &[2])]);
            // The PGAS surface is reachable from handlers.
            let a = c.shmem().alloc_words(1);
            c.shmem().atomic_set(0, a, 9);
            assert_eq!(c.shmem().atomic_fetch(0, a), 9);
        })
        .unwrap();
    }

    #[test]
    fn reset_and_drain_lifecycle() {
        run_world(WorldConfig::virtual_time(1, 256), |ctx| {
            let mut c = TaskCtx::new(ctx, 2);
            c.spawn(TaskDescriptor::new(0, &[]));
            c.compute(10);
            c.mark_arrival(5);
            c.reset();
            assert!(c.spawned().is_empty());
            assert_eq!(c.compute_ns(), 0);
            assert_eq!(c.take_arrival_mark(), None);

            c.spawn(TaskDescriptor::new(0, &[7]));
            c.compute(99);
            assert_eq!(c.spawned().len(), 2, "one two-word record");
            assert_eq!(c.compute_ns(), 99);
        })
        .unwrap();
    }

    #[test]
    fn a_spawn_that_does_not_fit_the_record_is_rejected_where_it_is_made() {
        let err = run_world(WorldConfig::virtual_time(1, 256), |ctx| {
            TaskCtx::new(ctx, 6).spawn_parts(7, &[0u8; 64]);
        })
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("fn_id 7") && msg.contains("64-byte payload") && msg.contains("48 bytes"),
            "{msg}"
        );
    }
}
