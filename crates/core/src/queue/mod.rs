//! Queue abstractions shared by the SDC baseline and SWS.

pub(crate) mod buffer;
pub(crate) mod owner;
pub mod sdc;
pub mod sws;

use sws_shmem::RetryPolicy;
use sws_task::TaskDescriptor;

use crate::protocol::Completion;
use crate::steal_half::StealPolicy;
use crate::stealval::Layout;

/// Panic with protocol context on a broken queue invariant. Centralising
/// the message beats scattered `expect("checked")` calls: every violation
/// names the protocol step that observed it.
#[cold]
#[inline(never)]
pub(crate) fn invariant_violation(msg: &str) -> ! {
    panic!("queue protocol invariant violated: {msg}");
}

/// Virtual ns charged per release/acquire for the owner's local
/// bookkeeping (split update, completion-array reset).
pub(crate) const SPLIT_UPDATE_NS: u64 = 150;

/// Configuration common to both queue implementations.
#[derive(Copy, Clone, Debug)]
pub struct QueueConfig {
    /// Ring capacity in tasks. Must fit the stealval tail field
    /// (≤ 2¹⁹ for the epoch layout).
    pub capacity: usize,
    /// Fixed task record size in 64-bit words (e.g. 3 for the paper's
    /// 24-byte tasks, 24 for 192-byte tasks).
    pub task_words: usize,
    /// stealval layout: `Epochs` (Fig. 4, the paper's final design) or
    /// `ValidBit` (Fig. 3, the §4.1 initial design used as an ablation).
    pub layout: Layout,
    /// Steal-volume schedule (the paper's steal-half by default).
    pub policy: StealPolicy,
    /// Retry policy for fallible thief-side operations when fault
    /// injection is active. Ignored in fault-free worlds.
    pub retry: RetryPolicy,
    /// How long the owner lets a claimed block sit without a completion
    /// before reclaiming it (fault mode only).
    pub reclaim_grace_ns: u64,
}

impl QueueConfig {
    /// A queue of `capacity` tasks of `task_bytes` bytes each, using
    /// completion epochs.
    pub fn new(capacity: usize, task_bytes: usize) -> QueueConfig {
        QueueConfig {
            capacity,
            task_words: TaskDescriptor::words_for(task_bytes),
            layout: Layout::Epochs,
            policy: StealPolicy::Half,
            retry: RetryPolicy::default_thief(),
            reclaim_grace_ns: 200_000,
        }
    }

    /// Switch to the Fig. 3 single-epoch layout.
    #[must_use]
    pub fn with_layout(mut self, layout: Layout) -> QueueConfig {
        self.layout = layout;
        self
    }

    /// Select the steal-volume schedule.
    #[must_use]
    pub fn with_policy(mut self, policy: StealPolicy) -> QueueConfig {
        self.policy = policy;
        self
    }

    /// Override the thief retry policy used under fault injection.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> QueueConfig {
        self.retry = retry;
        self
    }

    /// Override the owner's claim-reclaim grace period (fault mode).
    #[must_use]
    pub fn with_reclaim_grace_ns(mut self, ns: u64) -> QueueConfig {
        self.reclaim_grace_ns = ns;
        self
    }

    /// Words of symmetric heap the task buffer needs.
    pub fn buffer_words(&self) -> usize {
        self.capacity * self.task_words
    }

    /// Check the configuration against the stealval field widths; the
    /// error names the first value that does not fit.
    pub fn validate(&self) -> Result<(), String> {
        let cap = self.capacity as u64;
        if cap == 0 {
            return Err("queue capacity must be nonzero".into());
        }
        if self.task_words == 0 {
            return Err("task records must be at least a word".into());
        }
        if cap > u64::from(self.layout.max_tail()) + 1 {
            return Err(format!("capacity {cap} exceeds the {}-bit tail field", self.layout.tail_bits()));
        }
        if cap > u64::from(self.layout.max_itasks()) {
            return Err(format!("capacity {cap} exceeds the itasks field"));
        }
        if cap > Completion::MAX_VOLUME {
            return Err(format!("capacity {cap} exceeds the completion-word volume field"));
        }
        Ok(())
    }
}

/// Result of one steal attempt against a target queue.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StealOutcome {
    /// Claimed and copied `tasks` tasks into the local queue.
    Got {
        /// Number of tasks stolen.
        tasks: u64,
    },
    /// The target advertised no (remaining) work.
    Empty,
    /// The target's gate was closed (owner updating the split point);
    /// worth retrying soon.
    Closed,
    /// Fault mode: the steal failed before any block was claimed — the
    /// claim op kept getting dropped, timed out past the retry budget, or
    /// the target is down. Safe to retry against another victim.
    Failed {
        /// The target is marked down; the caller should quarantine it.
        target_down: bool,
    },
    /// Fault mode: a block *was* claimed but the steal could not finish
    /// (the copy failed, or the owner reclaimed the claim first). The
    /// block's tasks stay with — or return to — the owner, so the thief
    /// must not execute anything from it.
    Aborted {
        /// The target is marked down; the caller should quarantine it.
        target_down: bool,
    },
}

/// Owner-side event counters for one queue (local bookkeeping, not
/// communication — communication is counted by `sws-shmem`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Tasks enqueued locally (spawns + stolen arrivals).
    pub enqueued: u64,
    /// Tasks popped locally.
    pub popped: u64,
    /// Release operations performed.
    pub releases: u64,
    /// Acquire operations that moved shared work back to the local
    /// portion.
    pub acquires: u64,
    /// Acquire attempts that found no unclaimed shared work.
    pub acquire_misses: u64,
    /// Steal attempts this PE made against remote queues.
    pub steal_attempts: u64,
    /// Steal attempts that claimed and copied work.
    pub steals_won: u64,
    /// Tasks obtained by stealing.
    pub tasks_stolen: u64,
    /// Steal attempts aborted because the target was empty.
    pub steals_empty: u64,
    /// Steal attempts aborted because the target's gate was closed
    /// (SWS) or its lock stayed contended until the abort check (SDC).
    pub steals_closed: u64,
    /// Times the owner had to poll for epoch completion (SWS) or for
    /// in-flight steals to drain (Fig. 3 layout / SDC lock waits).
    pub owner_polls: u64,
    /// Tasks whose ring space has been reclaimed after steal completion.
    pub reclaimed: u64,
    /// Fault mode: individual op retries performed inside steals.
    pub steals_retried: u64,
    /// Fault mode: steals that gave up before claiming a block.
    pub steals_failed: u64,
    /// Fault mode: steals abandoned *after* claiming a block (the block
    /// returned to the owner via poison or grace-period reclaim).
    pub steals_aborted: u64,
    /// Fault mode, owner side: completion slots found poisoned by an
    /// aborting thief; their blocks were re-enqueued locally.
    pub completions_poisoned: u64,
    /// Fault mode, owner side: claims reclaimed after the grace period
    /// with no completion; their blocks were re-enqueued locally.
    pub claims_reclaimed: u64,
    /// Owner side: upper bound on successful steals peers can land
    /// against this queue, accrued as `policy.max_steals(k)` each time
    /// the owner exposes `k` unclaimed tasks (an SWS advertisement, an
    /// SDC release/re-expose). The rooted-tree steal-bound invariant
    /// checks Σ steals_won ≤ Σ steal_budget across the whole run.
    pub steal_budget: u64,
}

/// The owner/thief interface both queue implementations provide.
///
/// One instance lives on each PE; symmetric addressing means any instance
/// can steal from any peer's queue of the same shape.
pub trait StealQueue {
    /// Enqueue a locally spawned task. Returns `false` when the ring is
    /// full even after reclaiming completed steals (caller should execute
    /// the task inline — the standard Scioto fallback).
    fn enqueue(&mut self, task: &TaskDescriptor) -> bool;

    /// [`StealQueue::enqueue`] for already-encoded tasks — the
    /// scheduler's per-task path. `records` holds whole records of the
    /// queue's `task_words`; they are written from the front while the
    /// ring has room, reclaiming completed steals whenever it runs out.
    /// Returns how many were written: fewer than offered means the ring
    /// is full even after reclaiming, and the next record is the caller's
    /// to run inline (it may offer the rest again).
    fn enqueue_records(&mut self, records: &[u64]) -> usize;

    /// Pop the newest local task (LIFO — depth-first execution order).
    /// Returns `None` when the local portion is empty; the caller should
    /// then try [`StealQueue::acquire`] and, failing that, steal.
    fn pop_local(&mut self) -> Option<TaskDescriptor>;

    /// [`StealQueue::pop_local`] without the descriptor: copy the newest
    /// local record into `rec` (`task_words` long); `false` when the
    /// local portion is empty.
    fn pop_record(&mut self, rec: &mut [u64]) -> bool;

    /// Tasks currently in the local portion.
    fn local_count(&self) -> u64;

    /// Owner's estimate of unclaimed tasks in the shared portion.
    fn shared_estimate(&mut self) -> u64;

    /// Move half the local tasks into the shared portion (paper: called
    /// when the shared portion is empty but local work remains). Returns
    /// `true` if tasks were exposed.
    fn release(&mut self) -> bool;

    /// Move unclaimed shared tasks back into the local portion (called
    /// when the local portion is empty). Returns `true` if tasks were
    /// recovered.
    fn acquire(&mut self) -> bool;

    /// Reclaim ring space for completed steals (the paper's periodic
    /// "progress" operation).
    fn progress(&mut self);

    /// Attempt to steal from `target`'s queue, enqueueing stolen tasks
    /// locally.
    fn steal_from(&mut self, target: usize) -> StealOutcome;

    /// Read-only check whether `target` appears to have stealable work —
    /// the damped probe of §4.3 (one atomic fetch, no claim).
    fn probe(&self, target: usize) -> bool;

    /// Owner-side event counters.
    fn stats(&self) -> &QueueStats;

    /// Flush any passive completion notifications (quiet).
    fn flush_completions(&mut self);

    /// Permanently stop advertising work and drain every in-flight steal:
    /// thieves either complete, poison their claim, or are reclaimed after
    /// the grace period. On return, all tasks still owned by this queue
    /// sit in the local portion (pop them before shutting down). Called by
    /// a crash-stopping worker *before* it marks itself down, so no claim
    /// is lost in flight.
    fn retire(&mut self);

    /// *Reversibly* stop advertising work: close the gate / hold the
    /// lock, drain every in-flight steal exactly as [`StealQueue::retire`]
    /// does, and leave the queue locked against thieves until
    /// [`StealQueue::unpark`]. Elastic PEs use this to leave the pool
    /// mid-run through the protocol's own locked-stealval path.
    fn park(&mut self);

    /// Re-open a parked queue for stealing.
    fn unpark(&mut self);

    /// Total tasks currently resident in the ring — local *and* shared
    /// (claimed-but-unreclaimed space included). Admission control
    /// compares this against the ring capacity's high-water mark.
    fn occupancy(&self) -> u64;
}
