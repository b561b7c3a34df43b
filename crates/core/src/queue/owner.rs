//! The owner-side ring both queues embed.
//!
//! Everything a queue does to its *own* circular buffer is the same under
//! either protocol: absolute indices `reclaimed ≤ split ≤ head` over a
//! [`TaskBuffer`], LIFO push/pop of the local portion `[split, head)`,
//! landing a stolen block at `head`, re-enqueueing a block whose claim was
//! poisoned or reclaimed, the retire/park flags, the event counters and
//! the thief-side retry helper. What differs — how the shared portion
//! below `split` is published, claimed and reclaimed — stays in `sws.rs`
//! and `sdc.rs`. The only parameter is the [`AtomicSite`] a payload write
//! is annotated with.

use sws_shmem::fault::retry_op;
use sws_shmem::rng::SplitMix64;
use sws_shmem::{OpError, OpResult, ShmemCtx, SymAddr};
use sws_task::TaskDescriptor;

use crate::ordering::AtomicSite;
use crate::queue::buffer::TaskBuffer;
use crate::queue::{QueueConfig, QueueStats, StealOutcome};

pub(crate) fn is_down(e: &OpError) -> bool {
    matches!(e, OpError::TargetDown { .. })
}

/// One PE's ring of task records and the bookkeeping around it.
pub(crate) struct OwnerRing<'a> {
    pub(crate) ctx: &'a ShmemCtx,
    pub(crate) cfg: QueueConfig,
    pub(crate) buf: TaskBuffer,
    /// Site every write of task records into the ring is annotated with.
    payload_write: AtomicSite,
    /// Next enqueue slot (absolute).
    pub(crate) head: u64,
    /// First local task (absolute); `[split, head)` is the local portion.
    pub(crate) split: u64,
    /// Everything below this (absolute) has been reclaimed.
    pub(crate) reclaimed: u64,
    /// Shared portion permanently closed by `StealQueue::retire`.
    retired: bool,
    /// Shared portion reversibly closed by `StealQueue::park`.
    parked: bool,
    /// Jitter source for retry backoff (fault mode).
    pub(crate) rng: SplitMix64,
    pub(crate) stats: QueueStats,
    /// The block being stolen or re-enqueued, between its copy-out and
    /// its write at `head`.
    scratch: Vec<u64>,
    /// One record, for the descriptor forms of enqueue and pop.
    pub(crate) rec: Vec<u64>,
}

impl<'a> OwnerRing<'a> {
    pub(crate) fn new(
        ctx: &'a ShmemCtx,
        cfg: QueueConfig,
        buf_addr: SymAddr,
        payload_write: AtomicSite,
        rng_stream: u64,
    ) -> OwnerRing<'a> {
        OwnerRing {
            ctx,
            cfg,
            buf: TaskBuffer::new(buf_addr, cfg.capacity, cfg.task_words),
            payload_write,
            head: 0,
            split: 0,
            reclaimed: 0,
            retired: false,
            parked: false,
            rng: SplitMix64::stream(rng_stream, ctx.my_pe() as u64),
            stats: QueueStats::default(),
            scratch: Vec::new(),
            rec: vec![0; cfg.task_words],
        }
    }

    /// Ring slots currently in use (live tasks + claimed blocks whose
    /// space has not been reclaimed yet).
    #[inline]
    pub(crate) fn live_span(&self) -> u64 {
        self.head - self.reclaimed
    }

    #[inline]
    pub(crate) fn local_count(&self) -> u64 {
        self.head - self.split
    }

    /// Write whole records from the front of `records` at `head` while
    /// the ring has room and return how many were written (the caller
    /// reclaims when some are left). One annotated local write per
    /// record: every task is its own choice point under exploration.
    pub(crate) fn push_records(&mut self, mut records: &[u64]) -> usize {
        let room = (self.cfg.capacity as u64).saturating_sub(self.live_span());
        let mut written = 0;
        while written < room {
            let Some((rec, rest)) = records.split_at_checked(self.cfg.task_words) else {
                break;
            };
            // ordering: the queue's payload-write site
            self.ctx.proto_site(self.payload_write.id());
            self.buf.write_local(self.ctx, self.head, 1, rec);
            self.head += 1;
            written += 1;
            records = rest;
        }
        self.stats.enqueued += written;
        written as usize
    }

    /// Pop the newest local record into `rec`; `false` when the local
    /// portion is empty.
    pub(crate) fn pop_record(&mut self, rec: &mut [u64]) -> bool {
        if self.split == self.head {
            return false;
        }
        self.head -= 1;
        self.stats.popped += 1;
        self.buf.read_local(self.ctx, self.head, 1, rec);
        true
    }

    /// Descriptor form of [`OwnerRing::pop_record`].
    pub(crate) fn pop(&mut self) -> Option<TaskDescriptor> {
        let mut rec = std::mem::take(&mut self.rec);
        let task = self.pop_record(&mut rec).then(|| TaskDescriptor::decode(&rec));
        self.rec = rec;
        task
    }

    /// Must a block of `vol` tasks wait for reclaimed space before it can
    /// land? (Our own earlier exposures may still hold unreclaimed ring
    /// space.) The caller loops: reclaim, [`OwnerRing::owner_poll`].
    #[inline]
    pub(crate) fn lacks_room(&self, vol: u64) -> bool {
        self.live_span() + vol > self.cfg.capacity as u64
    }

    /// One turn of an owner-side wait loop, after its reclaim made no
    /// sufficient progress: count it and let `ns` of virtual time pass so
    /// in-flight thieves can complete (a poll of zero cost could spin
    /// forever).
    pub(crate) fn owner_poll(&mut self, ns: u64) {
        self.stats.owner_polls += 1;
        self.ctx.compute(ns);
        self.ctx.idle_hint();
    }

    /// Run a fallible thief-side op under the queue's retry policy,
    /// charging backoff as compute time and counting each retry. In a
    /// world without an injector the op cannot fail, so this is exactly
    /// one call of `op`.
    pub(crate) fn retry<T>(&mut self, op: impl FnMut() -> OpResult<T>) -> OpResult<T> {
        let ctx = self.ctx;
        retry_op(
            &self.cfg.retry,
            &mut self.rng,
            |ns| ctx.compute(ns),
            || self.stats.steals_retried += 1,
            op,
        )
    }

    /// Thief, fault mode: write a completion word (confirm, poison,
    /// finalize) for the claim made at `claimed_at`, under the retry
    /// policy — but issue no attempt later than half the reclaim grace
    /// after the claim. Past that the thief walks away silently
    /// (`Ok(None)`) and the owner's grace reclaim is the only writer: the
    /// owner's mark does not outlive its advertisement, so a write that
    /// arrived after the reclaim could land on the slot's *next* use.
    /// Sound because the owner's grace clock starts when it first sees
    /// the claim, never before the claim.
    pub(crate) fn complete<T>(
        &mut self,
        claimed_at: u64,
        mut op: impl FnMut() -> OpResult<T>,
    ) -> OpResult<Option<T>> {
        let ctx = self.ctx;
        let deadline = claimed_at.saturating_add(self.cfg.reclaim_grace_ns / 2);
        self.retry(|| {
            if ctx.now_ns() > deadline {
                return Ok(None);
            }
            op().map(Some)
        })
    }

    /// Thief: copy `vol` records starting at ring slot `start` of
    /// `target`'s buffer into the scratch block — one get under the retry
    /// policy, annotated with `site`.
    pub(crate) fn copy_block(
        &mut self,
        target: usize,
        start: usize,
        vol: u64,
        site: AtomicSite,
    ) -> OpResult<()> {
        let (ctx, buf) = (self.ctx, self.buf);
        let mut scratch = std::mem::take(&mut self.scratch);
        let got = self.retry(|| {
            ctx.proto_site(site.id());
            buf.steal_copy(ctx, target, start, vol as usize, &mut scratch)
        });
        self.scratch = scratch;
        got
    }

    /// Append the `vol` records in the scratch block to the local portion.
    fn append_scratch(&mut self, vol: u64) {
        // ordering: the queue's payload-write site
        self.ctx.proto_site(self.payload_write.id());
        self.buf
            .write_local(self.ctx, self.head, vol as usize, &self.scratch);
        self.head += vol;
        self.stats.enqueued += vol;
    }

    /// Thief: land the block [`OwnerRing::copy_block`] fetched in the
    /// local portion — the steal succeeded.
    pub(crate) fn land(&mut self, vol: u64) -> StealOutcome {
        self.append_scratch(vol);
        self.stats.steals_won += 1;
        self.stats.tasks_stolen += vol;
        StealOutcome::Got { tasks: vol }
    }

    /// Owner: take back the block `[abs, abs + vol)` of this PE's own
    /// ring — its claim was poisoned or reclaimed, so its tasks run here
    /// instead — and advance the reclaim frontier over it.
    ///
    /// Called with `abs == self.reclaimed` (blocks retire front to back),
    /// so the copy-out reads the slots before any head-write can
    /// overwrite them. Never runs between a `copy_block` and its `land`.
    pub(crate) fn requeue_block(&mut self, abs: u64, vol: u64) {
        debug_assert_eq!(abs, self.reclaimed, "requeue off the reclaim frontier");
        self.scratch.resize(vol as usize * self.cfg.task_words, 0);
        self.buf
            .read_local(self.ctx, abs, vol as usize, &mut self.scratch);
        self.append_scratch(vol);
        self.reclaim_space(vol);
    }

    /// Owner: the `vol` ring slots at the reclaim frontier are free again.
    pub(crate) fn reclaim_space(&mut self, vol: u64) {
        self.reclaimed += vol;
        self.stats.reclaimed += vol;
        debug_assert!(self.reclaimed <= self.head, "reclaim ran past head");
    }

    /// Thief: the steal gave up before claiming a block.
    pub(crate) fn failed(&mut self, e: &OpError) -> StealOutcome {
        self.stats.steals_failed += 1;
        StealOutcome::Failed {
            target_down: is_down(e),
        }
    }

    /// Thief: the steal was abandoned after claiming a block; the block
    /// stays with — or returns to — its owner.
    pub(crate) fn aborted(&mut self, target_down: bool) -> StealOutcome {
        self.stats.steals_aborted += 1;
        StealOutcome::Aborted { target_down }
    }

    /// Is the shared portion closed (retired or parked)?
    pub(crate) fn is_closed(&self) -> bool {
        self.retired || self.parked
    }

    /// Mark the queue retired; `true` when the caller must still close
    /// its shared side and drain (a parked queue already did).
    pub(crate) fn begin_retire(&mut self) -> bool {
        let drain = !self.is_closed();
        self.retired = true;
        drain
    }

    /// Mark the queue parked; `true` when the caller must close its
    /// shared side and drain.
    pub(crate) fn begin_park(&mut self) -> bool {
        if self.is_closed() {
            return false;
        }
        self.parked = true;
        true
    }

    /// Clear the parked mark; `true` when the caller must re-open its
    /// shared side (the queue was parked and has not retired since).
    pub(crate) fn begin_unpark(&mut self) -> bool {
        if !self.parked || self.retired {
            return false;
        }
        self.parked = false;
        true
    }
}
