//! Synthetic tasks for microbenchmarks and scheduler tests.
//!
//! The Fig. 6 steal-operation baseline needs queues pre-filled with
//! fixed-size tasks (24-byte and 192-byte records) and no scheduler; the
//! scheduler tests need flat bags of fixed-duration tasks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sws_sched::{TaskCtx, Workload};
use sws_task::{PayloadReader, PayloadWriter, TaskDescriptor, TaskRegistry};

/// Task function id for synthetic spin tasks.
pub const SYNTH_FN: u16 = 30;

/// Build a task whose *record* (header + payload) is exactly
/// `record_bytes` long, tagged with `tag` (recoverable via
/// [`task_tag`]). Matches Fig. 6's 24-byte and 192-byte task sizes.
pub fn sized_task(tag: u64, record_bytes: usize) -> TaskDescriptor {
    assert!(record_bytes >= 16, "need room for header + tag");
    let mut w = PayloadWriter::new();
    w.u64(tag);
    for _ in 0..record_bytes - 16 {
        w.u8(0xA5);
    }
    let t = TaskDescriptor::new(SYNTH_FN, w.as_slice());
    debug_assert_eq!(t.bytes_needed(), record_bytes);
    t
}

/// Recover the tag of a [`sized_task`].
pub fn task_tag(t: &TaskDescriptor) -> u64 {
    PayloadReader::new(t.payload()).u64()
}

/// A flat bag of `count` independent tasks of `task_ns` each, seeded on
/// PE 0 — the simplest possible dissemination workload.
pub struct FlatBag {
    /// Number of tasks.
    pub count: u64,
    /// Virtual duration of each task, ns.
    pub task_ns: u64,
    /// Record size in bytes.
    pub record_bytes: usize,
    executed: Arc<AtomicU64>,
}

impl FlatBag {
    /// `count` tasks of `task_ns` ns each in `record_bytes`-byte records.
    pub fn new(count: u64, task_ns: u64, record_bytes: usize) -> FlatBag {
        FlatBag {
            count,
            task_ns,
            record_bytes,
            executed: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Tasks executed (instrumentation).
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }
}

impl Workload for FlatBag {
    fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>) {
        let ns = self.task_ns;
        let counter = Arc::clone(&self.executed);
        reg.register(SYNTH_FN, move |tctx, _payload| {
            counter.fetch_add(1, Ordering::Relaxed);
            tctx.compute(ns);
        });
    }

    fn seeds(&self, pe: usize, _n_pes: usize) -> Vec<TaskDescriptor> {
        if pe == 0 {
            (0..self.count)
                .map(|i| sized_task(i, self.record_bytes))
                .collect()
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_tasks_hit_exact_record_sizes() {
        for bytes in [24, 32, 48, 192] {
            let t = sized_task(7, bytes);
            assert_eq!(t.bytes_needed(), bytes);
            assert_eq!(task_tag(&t), 7);
        }
    }

    #[test]
    fn record_words_match_fig6_sizes() {
        assert_eq!(
            TaskDescriptor::words_for(sized_task(0, 24).bytes_needed()),
            3
        );
        assert_eq!(
            TaskDescriptor::words_for(sized_task(0, 192).bytes_needed()),
            24
        );
    }

    #[test]
    #[should_panic(expected = "room for header")]
    fn undersized_record_rejected() {
        let _ = sized_task(0, 8);
    }
}
