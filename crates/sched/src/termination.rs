//! Distributed termination detection (paper §2.1: "this mode of operation
//! requires distributed termination detection to determine when all work
//! has been consumed from the task pool").
//!
//! [`CounterTd`] keeps global `spawned` / `completed` / `idle` counters on
//! PE 0, updated with passive atomic adds. Safe because (a) a PE flushes
//! its spawn delta *before* making tasks visible to thieves (at release)
//! and before going idle, so globally `completed ≤ spawned` whenever every
//! PE is idle; and (b) a thief leaves the idle set *before* executing
//! stolen tasks, so `idle == P ∧ spawned == completed` is a stable state —
//! no task exists and nobody can create one.
//!
//! **Arrival sources.** Service mode feeds the pool from outside: each
//! ingress PE opens an arrival source before it can first go idle and
//! closes it once its plan is exhausted and its admission buffers are
//! drained. The open count lives in the idle word's high half, read in the
//! same op as the rest, so one [`CounterTd::poll`] tells a PE whether the
//! pool is [busy](PoolState::Busy), [quiescent](PoolState::Quiescent)
//! (the condition above, with a source still open: the next arrival ends
//! it) or [terminated](PoolState::Terminated) — quiescent with no source
//! open, which is stable, since no arrival remains to make a task. A
//! batch run opens no source, so its high half stays zero and terminated
//! is the condition above.
//!
//! **Fault mode.** Detector traffic must survive injected faults: every
//! blocking detector op is issued through its fallible form and insisted
//! on (without an injector it cannot fail, so that is one plain op), and
//! counter flushes, passive adds otherwise, become *blocking* fetch-adds
//! (non-blocking adds are silently droppable, which would leave
//! `spawned != completed` forever and wedge detection). The detector
//! re-arms naturally — a PE that finds work decrements the idle count, so
//! a false alarm window never opens — and a crash-stopping PE parks
//! itself in the idle set permanently before going down, keeping
//! `idle == P` reachable for the survivors.

use sws_shmem::{OpResult, ShmemCtx, SymAddr};

/// Backoff charged between detector-op retries in fault mode, ns.
const TD_RETRY_BACKOFF_NS: u64 = 2_000;

/// Retry a fallible detector op until it succeeds, charging backoff per
/// attempt. Returns `None` only when the target is down — detector state
/// on a dead PE is unrecoverable and the caller degrades gracefully.
fn insist<T>(ctx: &ShmemCtx, mut op: impl FnMut() -> OpResult<T>) -> Option<T> {
    loop {
        match op() {
            Ok(v) => return Some(v),
            Err(e) if e.is_retriable() => ctx.compute(TD_RETRY_BACKOFF_NS),
            Err(_) => return None,
        }
    }
}

/// Counter-based termination detection; counters live on PE 0.
pub struct CounterTd {
    /// Base of [spawned, completed, idle] on PE 0.
    base: SymAddr,
    spawn_delta: u64,
    complete_delta: u64,
    idle: bool,
}

/// What one read of the counter block says about the pool.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PoolState {
    /// A PE holds work, or a spawned task has not completed.
    Busy,
    /// Every PE idle and every spawned task completed, but an arrival
    /// source is still open.
    Quiescent,
    /// Quiescent with no arrival source open: the run is over.
    Terminated,
}

const TD_SPAWNED: usize = 0;
const TD_COMPLETED: usize = 1;
const TD_IDLE: usize = 2;
/// One open arrival source in the idle word, whose low half counts idle
/// PEs.
const TD_SOURCE: u64 = 1 << 32;

impl CounterTd {
    /// Words of symmetric heap [`CounterTd::new`] allocates (line-aligned).
    pub const HEAP_WORDS: usize = 3;

    /// Collectively allocate the counter block.
    pub fn new(ctx: &ShmemCtx) -> CounterTd {
        // Every PE hammers PE 0's counter block; keep it off the lines
        // of whatever was allocated around it.
        let base = ctx.alloc_words_aligned(Self::HEAP_WORDS);
        ctx.barrier_all();
        CounterTd {
            base,
            spawn_delta: 0,
            complete_delta: 0,
            idle: false,
        }
    }

    /// One remote read of the counter block.
    pub fn poll(&self, ctx: &ShmemCtx) -> PoolState {
        let mut words = [0u64; Self::HEAP_WORDS];
        if insist(ctx, || ctx.try_get_words(0, self.base, &mut words)).is_none() {
            // The counter host is down; termination is undetectable
            // through it (the runner forbids crashing PE 0).
            return PoolState::Busy;
        }
        let (spawned, completed, idle) = (words[TD_SPAWNED], words[TD_COMPLETED], words[TD_IDLE]);
        if idle % TD_SOURCE != ctx.n_pes() as u64 || spawned != completed {
            PoolState::Busy
        } else if idle >= TD_SOURCE {
            PoolState::Quiescent
        } else {
            PoolState::Terminated
        }
    }

    /// Record `n` locally spawned (enqueued) tasks.
    pub fn on_spawn(&mut self, n: u64) {
        self.spawn_delta += n;
    }

    /// Record `n` locally executed tasks.
    pub fn on_complete(&mut self, n: u64) {
        self.complete_delta += n;
    }

    /// Publish pending deltas. Must be called before tasks become
    /// stealable (the worker calls it before every release).
    pub fn flush(&mut self, ctx: &ShmemCtx) {
        if self.spawn_delta == 0 && self.complete_delta == 0 {
            return;
        }
        if ctx.faults_active() {
            // Blocking adds, insisted: a dropped NBI add would silently
            // lose counts and leave `spawned != completed` forever.
            if self.spawn_delta > 0 {
                let d = self.spawn_delta;
                insist(ctx, || {
                    ctx.try_atomic_fetch_add(0, self.base.offset(TD_SPAWNED), d)
                });
                self.spawn_delta = 0;
            }
            if self.complete_delta > 0 {
                let d = self.complete_delta;
                insist(ctx, || {
                    ctx.try_atomic_fetch_add(0, self.base.offset(TD_COMPLETED), d)
                });
                self.complete_delta = 0;
            }
            return;
        }
        if self.spawn_delta > 0 {
            ctx.atomic_add_nbi(0, self.base.offset(TD_SPAWNED), self.spawn_delta);
            self.spawn_delta = 0;
        }
        if self.complete_delta > 0 {
            ctx.atomic_add_nbi(0, self.base.offset(TD_COMPLETED), self.complete_delta);
            self.complete_delta = 0;
        }
        ctx.quiet();
    }

    /// Enter the idle set (queue fully drained). Flushes.
    pub fn enter_idle(&mut self, ctx: &ShmemCtx) {
        debug_assert!(!self.idle);
        self.flush(ctx);
        self.add_idle(ctx, 1);
        self.idle = true;
    }

    /// Leave the idle set (work obtained). Must precede executing it.
    pub fn exit_idle(&mut self, ctx: &ShmemCtx) {
        debug_assert!(self.idle);
        // Wrapping add of -1: a one-sided atomic decrement.
        self.add_idle(ctx, u64::MAX);
        self.idle = false;
    }

    /// Poll for global termination; meaningful only while idle.
    pub fn poll_terminated(&self, ctx: &ShmemCtx) -> bool {
        debug_assert!(self.idle, "poll only makes sense while idle");
        self.poll(ctx) == PoolState::Terminated
    }

    /// Open one arrival source: until it is closed, the pool can be
    /// quiescent but not terminated. Must precede this PE's first
    /// [`CounterTd::enter_idle`].
    pub fn open_source(&self, ctx: &ShmemCtx) {
        self.add_idle(ctx, TD_SOURCE);
    }

    /// Close an arrival source that will offer nothing more.
    pub fn close_source(&self, ctx: &ShmemCtx) {
        // Wrapping add of -TD_SOURCE: the low half is untouched.
        self.add_idle(ctx, TD_SOURCE.wrapping_neg());
    }

    /// One insisted, wrapping fetch-add of `delta` to the idle word.
    fn add_idle(&self, ctx: &ShmemCtx, delta: u64) {
        insist(ctx, || ctx.try_atomic_fetch_add(0, self.base.offset(TD_IDLE), delta));
    }
}
