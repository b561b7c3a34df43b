//! Distributed termination detection (paper §2.1: "this mode of operation
//! requires distributed termination detection to determine when all work
//! has been consumed from the task pool").
//!
//! Two detectors are provided behind one interface:
//!
//! * [`CounterTd`] — global `spawned` / `completed` / `idle` counters on
//!   PE 0, updated with passive atomic adds. Safe because (a) a PE
//!   flushes its spawn delta *before* making tasks visible to thieves
//!   (at release) and before going idle, so globally `completed ≤
//!   spawned` whenever every PE is idle; and (b) a thief leaves the idle
//!   set *before* executing stolen tasks, so `idle == P ∧ spawned ==
//!   completed` is a stable state — no task exists and nobody can create
//!   one.
//! * [`TokenRingTd`] — Mattern-style four-counter token ring: a token
//!   circulates accumulating every PE's cumulative (spawned, completed);
//!   PE 0 terminates after two consecutive rounds with identical, equal
//!   sums (strictly stronger than the proven `C_r == S_{r-1}` condition,
//!   hence safe), then raises a global flag.
//!
//! **Fault mode.** Detector traffic must survive injected faults: every
//! blocking detector op is issued through its fallible form and insisted
//! on (without an injector it cannot fail, so that is one plain op);
//! counter flushes, passive adds otherwise, become *blocking* fetch-adds
//! (non-blocking adds are silently droppable, which would leave
//! `spawned != completed` forever and wedge detection), and token sends
//! skip PEs that are marked down. The counter detector re-arms
//! naturally — a PE that finds work decrements the idle count, so a
//! false alarm window never opens — and a crash-stopping PE parks
//! itself in the idle set permanently before going down, keeping
//! `idle == P` reachable for the survivors.

use sws_shmem::{OpResult, ShmemCtx, SymAddr};

use crate::config::TdKind;

/// Backoff charged between detector-op retries in fault mode, ns.
const TD_RETRY_BACKOFF_NS: u64 = 2_000;

/// Retry a fallible detector op until it succeeds, charging backoff per
/// attempt. Returns `None` only when the target is down — detector state
/// on a dead PE is unrecoverable and the caller degrades gracefully.
pub(crate) fn insist<T>(ctx: &ShmemCtx, mut op: impl FnMut() -> OpResult<T>) -> Option<T> {
    loop {
        match op() {
            Ok(v) => return Some(v),
            Err(e) if e.is_retriable() => ctx.compute(TD_RETRY_BACKOFF_NS),
            Err(_) => return None,
        }
    }
}

/// The detector interface the worker drives.
pub trait Termination {
    /// Record `n` locally spawned (enqueued) tasks.
    fn on_spawn(&mut self, n: u64);
    /// Record `n` locally executed tasks.
    fn on_complete(&mut self, n: u64);
    /// Publish pending deltas. Must be called before tasks become
    /// stealable (the worker calls it before every release).
    fn flush(&mut self, ctx: &ShmemCtx);
    /// Enter the idle set (queue fully drained). Flushes.
    fn enter_idle(&mut self, ctx: &ShmemCtx);
    /// Leave the idle set (work obtained). Must precede executing it.
    fn exit_idle(&mut self, ctx: &ShmemCtx);
    /// Poll for global termination; meaningful only while idle.
    fn poll_terminated(&mut self, ctx: &ShmemCtx) -> bool;
    /// Give the detector a chance to do upkeep while the PE is busy
    /// (token forwarding). Cheap no-op for the counter detector.
    fn busy_tick(&mut self, ctx: &ShmemCtx);
    /// Poll for global *quiescence* — the same stable condition as
    /// termination, but **non-latching**: service mode re-arms the
    /// detector with [`Termination::on_reactivate`] when a new arrival
    /// wave lands, so "quiescent" must be re-observable. The counter
    /// detector is naturally non-latching; the token ring overrides both
    /// hooks.
    fn poll_quiescent(&mut self, ctx: &ShmemCtx) -> bool {
        self.poll_terminated(ctx)
    }
    /// Re-arm the detector after a quiescent window ends (service mode:
    /// new tasks were injected). Called on every PE before it resumes
    /// work; a no-op for detectors whose quiescence check is stateless.
    fn on_reactivate(&mut self, _ctx: &ShmemCtx) {}
}

/// Build the configured detector (collective: all PEs, same order).
pub fn make_td(ctx: &ShmemCtx, kind: TdKind) -> Box<dyn Termination> {
    match kind {
        TdKind::Counter => Box::new(CounterTd::new(ctx)),
        TdKind::TokenRing => Box::new(TokenRingTd::new(ctx)),
    }
}

// ---------------------------------------------------------------------
// Counter-based detector
// ---------------------------------------------------------------------

/// Counter-based termination detection; counters live on PE 0.
pub struct CounterTd {
    /// Base of [spawned, completed, idle] on PE 0.
    base: SymAddr,
    spawn_delta: u64,
    complete_delta: u64,
    idle: bool,
}

const TD_SPAWNED: usize = 0;
const TD_COMPLETED: usize = 1;
const TD_IDLE: usize = 2;

impl CounterTd {
    /// Collectively allocate the counter block.
    pub fn new(ctx: &ShmemCtx) -> CounterTd {
        // Every PE hammers PE 0's counter block; keep it off the lines
        // of whatever was allocated around it.
        let base = ctx.alloc_words_aligned(3);
        ctx.barrier_all();
        CounterTd {
            base,
            spawn_delta: 0,
            complete_delta: 0,
            idle: false,
        }
    }

    /// One remote read of the counter block; true iff every PE is idle
    /// and every spawned task has completed.
    fn read_globally_idle(&self, ctx: &ShmemCtx) -> bool {
        let mut words = [0u64; 3];
        if insist(ctx, || ctx.try_get_words(0, self.base, &mut words)).is_none() {
            // The counter host is down; termination is undetectable
            // through it (the runner forbids crashing PE 0).
            return false;
        }
        let (spawned, completed, idle) = (words[TD_SPAWNED], words[TD_COMPLETED], words[TD_IDLE]);
        idle == ctx.n_pes() as u64 && spawned == completed
    }
}

impl Termination for CounterTd {
    fn on_spawn(&mut self, n: u64) {
        self.spawn_delta += n;
    }

    fn on_complete(&mut self, n: u64) {
        self.complete_delta += n;
    }

    fn flush(&mut self, ctx: &ShmemCtx) {
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

    fn enter_idle(&mut self, ctx: &ShmemCtx) {
        debug_assert!(!self.idle);
        self.flush(ctx);
        insist(ctx, || {
            ctx.try_atomic_fetch_add(0, self.base.offset(TD_IDLE), 1)
        });
        self.idle = true;
    }

    fn exit_idle(&mut self, ctx: &ShmemCtx) {
        debug_assert!(self.idle);
        // Wrapping add of -1: a one-sided atomic decrement.
        insist(ctx, || {
            ctx.try_atomic_fetch_add(0, self.base.offset(TD_IDLE), u64::MAX)
        });
        self.idle = false;
    }

    fn poll_terminated(&mut self, ctx: &ShmemCtx) -> bool {
        debug_assert!(self.idle, "poll only makes sense while idle");
        self.read_globally_idle(ctx)
    }

    fn busy_tick(&mut self, _ctx: &ShmemCtx) {}

    fn poll_quiescent(&mut self, ctx: &ShmemCtx) -> bool {
        // Counters are non-latching, so quiescence *is* the termination
        // condition — but service-mode pollers may be outside the idle
        // set (an ingress PE between waves), so skip the idle assertion.
        self.read_globally_idle(ctx)
    }
}

// ---------------------------------------------------------------------
// Token-ring detector
// ---------------------------------------------------------------------

/// Per-PE token slot layout: [spawned_acc, completed_acc, flag] — the
/// flag is written last so per-word Release/Acquire ordering publishes
/// the sums before the token becomes visible.
const TOK_SPAWNED: usize = 0;
const TOK_COMPLETED: usize = 1;
const TOK_FLAG: usize = 2;
const TOK_WORDS: usize = 3;

/// Mattern four-counter token-ring termination detection.
///
/// The token accumulates every PE's *cumulative* (spawned, completed)
/// counts as it circulates PE 0 → 1 → … → P−1 → 0. PE 0 compares the
/// sums of the round just finished with the previous round and raises
/// the global flag when two consecutive rounds report identical, equal
/// sums — a condition strictly stronger than Mattern's proven
/// `C_r == S_{r−1}`, hence free of false positives. Busy PEs forward the
/// token from [`Termination::busy_tick`] so a long-running task cannot
/// stall the ring.
pub struct TokenRingTd {
    /// Base of this PE's token slot (symmetric).
    token: SymAddr,
    /// Global termination flag on PE 0.
    term_flag: SymAddr,
    spawned_total: u64,
    completed_total: u64,
    /// PE 0 only: sums of the previous completed round.
    prev_round: Option<(u64, u64)>,
    /// PE 0 only: whether the first round has been launched.
    launched: bool,
    /// PE 0 only: stop circulating once the flag is raised.
    done: bool,
    /// Cached view of the global flag (avoids re-fetching after true).
    seen_done: bool,
}

impl TokenRingTd {
    /// Collectively allocate the ring state; PE 0 launches the token on
    /// its first pump.
    pub fn new(ctx: &ShmemCtx) -> TokenRingTd {
        // The circulating token and the broadcast flag are both remotely
        // written; line-isolate them from each other and their neighbors.
        let token = ctx.alloc_words_aligned(TOK_WORDS);
        let term_flag = ctx.alloc_words_aligned(1);
        ctx.barrier_all();
        TokenRingTd {
            token,
            term_flag,
            spawned_total: 0,
            completed_total: 0,
            prev_round: None,
            launched: false,
            done: false,
            seen_done: false,
        }
    }

    /// Pass the token to our successor carrying running sums that now
    /// include our own counts. Down successors are skipped (the ring
    /// contracts around them; none is ever down without a fault plan)
    /// and the send is insisted on — a lost token would halt detection
    /// for everyone.
    fn send_next(&self, ctx: &ShmemCtx, s: u64, c: u64) {
        let (me, n) = (ctx.my_pe(), ctx.n_pes());
        let mut next = (me + 1) % n;
        while next != me && ctx.pe_known_down(next) {
            next = (next + 1) % n;
        }
        // Flag word written last: per-word ordering publishes the sums
        // before the token becomes visible.
        insist(ctx, || ctx.try_put_words(next, self.token, &[s, c, 1]));
    }

    /// Has PE 0 raised the global flag? PE 0 knows; everyone else reads
    /// it remotely.
    fn flag_raised(&self, ctx: &ShmemCtx) -> bool {
        if ctx.my_pe() == 0 {
            return self.done;
        }
        insist(ctx, || ctx.try_atomic_fetch(0, self.term_flag)) == Some(1)
    }

    /// Receive the token from our slot if present; forward or (PE 0)
    /// evaluate the finished round.
    fn pump_token(&mut self, ctx: &ShmemCtx) {
        let me = ctx.my_pe();
        if me == 0 {
            if self.done {
                return;
            }
            if !self.launched {
                self.launched = true;
                self.send_next(ctx, self.spawned_total, self.completed_total);
                return;
            }
        }
        let flag = ctx.atomic_fetch(me, self.token.offset(TOK_FLAG));
        if flag == 0 {
            return;
        }
        let s = ctx.atomic_fetch(me, self.token.offset(TOK_SPAWNED));
        let c = ctx.atomic_fetch(me, self.token.offset(TOK_COMPLETED));
        ctx.atomic_set(me, self.token.offset(TOK_FLAG), 0);
        if me == 0 {
            // Round finished: `s`/`c` sum all PEs (ours went in at launch
            // / relaunch time).
            let round = (s, c);
            let done = self.prev_round == Some(round) && s == c;
            self.prev_round = Some(round);
            if done {
                self.done = true;
                ctx.atomic_set(0, self.term_flag, 1);
            } else {
                self.send_next(ctx, self.spawned_total, self.completed_total);
            }
        } else {
            self.send_next(ctx, s + self.spawned_total, c + self.completed_total);
        }
    }
}

impl Termination for TokenRingTd {
    fn on_spawn(&mut self, n: u64) {
        self.spawned_total += n;
    }

    fn on_complete(&mut self, n: u64) {
        self.completed_total += n;
    }

    fn flush(&mut self, _ctx: &ShmemCtx) {
        // Counts are read at token-visit time; nothing to publish early.
    }

    fn enter_idle(&mut self, _ctx: &ShmemCtx) {}

    fn exit_idle(&mut self, _ctx: &ShmemCtx) {}

    fn poll_terminated(&mut self, ctx: &ShmemCtx) -> bool {
        if self.seen_done {
            return true;
        }
        self.pump_token(ctx);
        self.seen_done = self.flag_raised(ctx);
        self.seen_done
    }

    fn busy_tick(&mut self, ctx: &ShmemCtx) {
        self.pump_token(ctx);
    }

    fn poll_quiescent(&mut self, ctx: &ShmemCtx) -> bool {
        // Unlike `poll_terminated`, never cache the flag: a quiescent
        // window ends when the ingress PE re-arms the ring, and a PE that
        // stopped pumping on a cached `true` would stall the next round.
        self.pump_token(ctx);
        self.flag_raised(ctx)
    }

    fn on_reactivate(&mut self, ctx: &ShmemCtx) {
        self.seen_done = false;
        if ctx.my_pe() == 0 && self.done {
            // Lower the flag before relaunching so peers cannot observe
            // the *old* quiescent round as the new wave's completion —
            // stale `true` reads before this point are harmless because
            // service shutdown is driven by the service control block,
            // not the ring flag.
            self.done = false;
            self.prev_round = None;
            ctx.atomic_set(0, self.term_flag, 0);
            self.send_next(ctx, self.spawned_total, self.completed_total);
        }
    }
}
