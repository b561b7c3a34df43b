//! The circular task buffer both queues store records in.
//!
//! Owner-side access (enqueue/pop of the local portion) is plain local
//! memory traffic — uncharged, exactly as in the paper where local queue
//! operations are lock-free memcpys. Thief-side block copies go through
//! charged one-sided `get`s, using a single gather operation when the
//! block wraps the ring.

use sws_shmem::{OpResult, ShmemCtx, SymAddr};
use sws_task::TaskDescriptor;

use crate::ring::Ring;

/// Words in the largest possible task record (`MAX_TASK_BYTES / 8`).
pub(crate) const MAX_RECORD_WORDS: usize = sws_task::MAX_TASK_BYTES / 8;

/// Word-level view of a ring of fixed-size task records.
#[derive(Copy, Clone, Debug)]
pub(crate) struct TaskBuffer {
    base: SymAddr,
    ring: Ring,
    task_words: usize,
}

impl TaskBuffer {
    pub(crate) fn new(base: SymAddr, capacity: usize, task_words: usize) -> TaskBuffer {
        assert!(
            task_words <= MAX_RECORD_WORDS,
            "task records of {task_words} words exceed the {MAX_RECORD_WORDS}-word limit"
        );
        TaskBuffer {
            base,
            ring: Ring::new(capacity),
            task_words,
        }
    }

    #[inline]
    pub(crate) fn ring(&self) -> Ring {
        self.ring
    }

    /// Symmetric address of ring slot `slot`.
    #[inline]
    pub(crate) fn slot_addr(&self, slot: usize) -> SymAddr {
        self.base.offset(slot * self.task_words)
    }

    /// Owner: write a task record at absolute index `abs` (local, free).
    /// Allocation-free: records fit a stack buffer by construction.
    pub(crate) fn write_local(&self, ctx: &ShmemCtx, abs: u64, task: &TaskDescriptor) {
        let mut rec = [0u64; MAX_RECORD_WORDS];
        let rec = &mut rec[..self.task_words];
        task.encode(rec);
        ctx.local_write_words(self.slot_addr(self.ring.slot(abs)), rec);
    }

    /// Owner: read the task record at absolute index `abs` (local, free).
    pub(crate) fn read_local(&self, ctx: &ShmemCtx, abs: u64) -> TaskDescriptor {
        let mut rec = [0u64; MAX_RECORD_WORDS];
        let rec = &mut rec[..self.task_words];
        ctx.local_read_words(self.slot_addr(self.ring.slot(abs)), rec);
        TaskDescriptor::decode(rec)
    }

    /// Owner: bulk-write `n` records (raw words) starting at absolute
    /// index `abs` — used to land stolen blocks in the local portion.
    pub(crate) fn write_local_block(&self, ctx: &ShmemCtx, abs: u64, n: usize, words: &[u64]) {
        assert_eq!(words.len(), n * self.task_words);
        let rr = self.ring.range(self.ring.slot(abs), n);
        let first_words = rr.first.1 * self.task_words;
        ctx.local_write_words(self.slot_addr(rr.first.0), &words[..first_words]);
        if let Some((s, _)) = rr.second {
            ctx.local_write_words(self.slot_addr(s), &words[first_words..]);
        }
    }

    /// Thief: copy `n` records starting at ring slot `start` from
    /// `target`'s buffer into `out` — one charged `get`, gathering across
    /// the wrap point if needed. Fallible: under fault injection the get
    /// can be dropped or time out.
    pub(crate) fn steal_copy(
        &self,
        ctx: &ShmemCtx,
        target: usize,
        start: usize,
        n: usize,
        out: &mut Vec<u64>,
    ) -> OpResult<()> {
        out.clear();
        out.resize(n * self.task_words, 0);
        let rr = self.ring.range(start, n);
        match rr.second {
            None => ctx.try_get_words(target, self.slot_addr(rr.first.0), out),
            Some((s, l)) => {
                let a = (self.slot_addr(rr.first.0), rr.first.1 * self.task_words);
                let b = (self.slot_addr(s), l * self.task_words);
                ctx.try_get_words_gather(target, a, b, out)
            }
        }
    }

    /// Owner: read `n` records starting at absolute index `abs` from the
    /// local ring into `out` (free local reads, wrap-aware). Used to
    /// re-enqueue a block whose steal was poisoned or reclaimed.
    pub(crate) fn read_block_local(&self, ctx: &ShmemCtx, abs: u64, n: usize, out: &mut Vec<u64>) {
        out.clear();
        out.resize(n * self.task_words, 0);
        let rr = self.ring.range(self.ring.slot(abs), n);
        let first_words = rr.first.1 * self.task_words;
        ctx.local_read_words(self.slot_addr(rr.first.0), &mut out[..first_words]);
        if let Some((s, _)) = rr.second {
            ctx.local_read_words(self.slot_addr(s), &mut out[first_words..]);
        }
    }
}
