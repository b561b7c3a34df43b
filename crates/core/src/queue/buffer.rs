//! The circular task buffer both queues store records in.
//!
//! The buffer speaks words: records are encoded before they get here and
//! decoded after they leave. Owner-side access (enqueue/pop of the local
//! portion) is plain local memory traffic — uncharged, exactly as in the
//! paper where local queue operations are lock-free memcpys of fixed-size
//! records — through one write and one read primitive over whole records.
//! Thief-side block copies go through charged one-sided `get`s, using a
//! single gather operation when the block wraps the ring.

use sws_shmem::{OpResult, ShmemCtx, SymAddr};

use crate::ring::Ring;

/// Word-level view of a ring of fixed-size task records.
#[derive(Copy, Clone, Debug)]
pub(crate) struct TaskBuffer {
    base: SymAddr,
    ring: Ring,
    task_words: usize,
}

impl TaskBuffer {
    pub(crate) fn new(base: SymAddr, capacity: usize, task_words: usize) -> TaskBuffer {
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

    /// Owner: write the `n` records in `words` at absolute indices `abs..`
    /// (local, free, wrap-aware) — a spawned record, or a stolen or
    /// returning block landing in the local portion.
    pub(crate) fn write_local(&self, ctx: &ShmemCtx, abs: u64, n: usize, words: &[u64]) {
        assert_eq!(words.len(), n * self.task_words);
        let rr = self.ring.range(self.ring.slot(abs), n);
        let (first, second) = words.split_at(rr.first.1 * self.task_words);
        ctx.local_write_words(self.slot_addr(rr.first.0), first);
        if let Some((s, _)) = rr.second {
            ctx.local_write_words(self.slot_addr(s), second);
        }
    }

    /// Owner: read the `n` records at absolute indices `abs..` into `out`
    /// (local, free, wrap-aware) — the record being popped, or a block
    /// whose steal was poisoned or reclaimed.
    pub(crate) fn read_local(&self, ctx: &ShmemCtx, abs: u64, n: usize, out: &mut [u64]) {
        assert_eq!(out.len(), n * self.task_words);
        let rr = self.ring.range(self.ring.slot(abs), n);
        let (first, second) = out.split_at_mut(rr.first.1 * self.task_words);
        ctx.local_read_words(self.slot_addr(rr.first.0), first);
        if let Some((s, _)) = rr.second {
            ctx.local_read_words(self.slot_addr(s), second);
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
}
