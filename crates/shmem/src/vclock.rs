//! The serial executor: every PE of a world on one OS thread, one at a
//! time, under one of two pick rules.
//!
//! The paper evaluates on up to 2,112 cores. To reproduce its scaling
//! figures on commodity hardware, worlds can run in *virtual-time* mode:
//! every PE owns a virtual clock (ns); local work advances only its own
//! clock, but every **shared-visible effect** (a one-sided operation on the
//! symmetric heap) is *gated* — it may only be applied when the issuing PE
//! holds the globally minimal clock (ties broken by PE rank). Effects are
//! therefore applied in non-decreasing virtual-time order, which makes the
//! execution serializable and — together with seeded per-PE RNGs —
//! completely deterministic.
//!
//! This is the classic conservative (null-message-free, centralized)
//! parallel-discrete-event-simulation rule: the minimum-timestamp entity
//! runs next. Every PE is a stackful [`Context`] on the one OS thread that
//! called `run_world`, and runs until it reaches a gated op it may not
//! apply yet, enters a barrier, or finishes. **Whoever gives up the CPU
//! picks its successor**: it files itself, runs the one scheduling step
//! ([`VClock::step`]) and switches *directly* to the PE the step names —
//! one stack switch per gated op, none when it names the caller. The root
//! ([`VClock::run`]) runs the same step and keeps three jobs: take over
//! when a PE's body returns (a finished stack cannot switch away), report
//! a world where nobody is runnable, unwind a poisoned one. No lock, no
//! wake-up, no kernel: exactly one context runs at any instant, which is
//! all the synchronization the scheduler's own state needs.
//!
//! Which PE runs next is the step's only mode-dependent part. Virtual time
//! picks the minimal `(clock, rank)` and hands it a *horizon*, the
//! runner-up's key: while a PE runs nobody else's clock can change, so
//! until its own key reaches the horizon every effect it issues is still
//! globally minimal and [`VClock::gate`] admits it with one compare (a
//! 1-PE world never leaves that path; why the order is the one a
//! suspend-at-every-op engine would produce: DESIGN.md §5a). Exploration
//! (`ExecMode::Explore`, see [`crate::explore`]) hands out no horizon, so
//! every gated op stops its PE; the step runs whoever needs no decision
//! until all live PEs are suspended, then asks the gate's schedule which
//! pending op goes next. The clocks, the barrier and its one release rule,
//! poison, the rank-order unwind and the deadlock report are written once
//! for both.
//!
//! Liveness requires every loop that waits on remote state to advance its
//! clock between probes; [`crate::ShmemCtx`] enforces a ≥1 ns cost on every
//! gated operation. PE bodies may communicate only through `ShmemCtx`: an
//! OS-level wait on a peer (a lock it holds, a channel it feeds) can never
//! be satisfied, because the peer is not running.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::context::{self, Context, Turn};
use crate::explore::{ExploreGate, OpDesc, Schedule, TRUNCATED_MSG};
use crate::proto::{ProtoEvent, ProtoLog};

/// Per-PE engine counters: how often the gate was crossed with and
/// without giving up the CPU.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Gated ops admitted below the cached horizon, on the spot.
    pub fast_ops: u64,
    /// Gated ops that first went through the scheduling step.
    pub slow_ops: u64,
    /// Times the scheduling step picked this PE (with a fresh horizon).
    pub windows: u64,
    /// Always 0: the PEs share one OS thread, so none ever waits for the
    /// gate in wall-clock time. Kept so the struct keeps its shape.
    pub gate_wait_ns: u64,
}

impl EngineStats {
    /// Total gated operations.
    pub fn gated_ops(&self) -> u64 {
        self.fast_ops + self.slow_ops
    }

    /// Fraction of gated ops admitted without a switch (0 when none ran).
    pub fn fast_fraction(&self) -> f64 {
        let total = self.gated_ops();
        if total == 0 {
            0.0
        } else {
            self.fast_ops as f64 / total as f64
        }
    }

    /// Accumulate another PE's counters into this one.
    pub fn merge(&mut self, other: &EngineStats) {
        self.fast_ops += other.fast_ops;
        self.slow_ops += other.slow_ops;
        self.windows += other.windows;
        self.gate_wait_ns += other.gate_wait_ns;
    }
}

/// A `u64` touched only by whichever context is running. The contexts of
/// a world run strictly one at a time and every switch between them is a
/// synchronization point (the same OS thread, or a channel hand-off where
/// contexts are parked threads), so plain loads and stores suffice; the
/// atomic type only keeps `VClock` `Sync` without `unsafe`.
#[derive(Default)]
struct Word(AtomicU64);

impl Word {
    #[inline]
    fn get(&self) -> u64 {
        // relaxed: never accessed concurrently (see the type).
        self.0.load(Ordering::Relaxed)
    }

    #[inline]
    fn set(&self, v: u64) {
        // relaxed: never accessed concurrently (see the type).
        self.0.store(v, Ordering::Relaxed)
    }

    #[inline]
    fn bump(&self) {
        self.set(self.get() + 1);
    }
}

#[derive(Default)]
struct Pe {
    /// Virtual clock, ns.
    clock: Word,
    /// Horizon `(h_t, h_rank)` cached when the scheduling step last picked
    /// this PE: effects strictly below it are still globally minimal.
    /// `(u64::MAX, u64::MAX)` = no rival.
    h_t: Word,
    h_rank: Word,
    fast_ops: Word,
    slow_ops: Word,
    windows: Word,
}

/// Why a PE gives up the CPU.
enum Yield {
    /// A gated op it may not apply yet — under a schedule, which one.
    Gate(Option<OpDesc>),
    /// A barrier arrival and the cost it passes (the last one's is charged).
    Barrier(u64),
    /// Its body returned.
    Finished,
}

/// Where the PEs that are not running are. Every live PE is running (at
/// most one); free to run — not yet started, admitted by a decision,
/// released from the barrier — in `ready`, keyed by a clock that cannot
/// change while it sits there; at the gate awaiting a decision (`pending`,
/// ascending rank, exploration only: in virtual time the clock is the
/// decision, so a gate goes straight to `ready`); or in the barrier
/// (`arrived`).
struct Sched {
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    pending: Vec<(u32, OpDesc)>,
    arrived: Vec<usize>,
    live: usize,
    bar_max_clock: u64,
    /// What the barrier charges if whoever filed last completed it.
    barrier_cost: u64,
    /// Set when it, not virtual time, picks who runs next.
    schedule: Option<Box<Schedule>>,
    /// The world's capture, appended where each effect applies.
    log: ProtoLog,
}

/// The serial executor shared by all PEs of a world: their clocks, and
/// the scheduling step that runs them one at a time.
pub(crate) struct VClock {
    pes: Vec<Pe>,
    sched: Turn<Sched>,
    /// Nonzero once the world is poisoned — [`PANICKED`] or [`TRUNCATED`],
    /// whichever came first — so suspended peers unwind instead of
    /// resuming a computation whose partner is gone.
    poison: Word,
    /// Where the schedule's decision log goes when the world is over.
    explore: Option<Arc<ExploreGate>>,
}

/// The one poison message of a serialized world.
const POISON_MSG: &str = "world poisoned: a peer PE panicked";

/// Why a world is poisoned: a PE panicked ([`POISON_MSG`]), or the schedule
/// ran out of steps ([`TRUNCATED_MSG`]).
const PANICKED: u64 = 1;
const TRUNCATED: u64 = 2;

impl VClock {
    /// Executor for `n_pes` PEs, all clocks at 0 and all free to run,
    /// picking by virtual time or — given a gate — by its schedule, under
    /// which every horizon stays at its initial `(0, 0)`: no op is below it.
    pub(crate) fn new(n_pes: usize, explore: Option<Arc<ExploreGate>>) -> VClock {
        assert!(n_pes > 0);
        VClock {
            pes: (0..n_pes).map(|_| Pe::default()).collect(),
            sched: Turn::new(Sched {
                ready: (0..n_pes).map(|pe| Reverse((0, pe))).collect(),
                pending: Vec::new(),
                arrived: Vec::new(),
                live: n_pes,
                bar_max_clock: 0,
                barrier_cost: 0,
                schedule: explore.as_ref().map(|gate| Box::new(gate.schedule(n_pes))),
                log: ProtoLog::new(),
            }),
            poison: Word::default(),
            explore,
        }
    }

    /// Whether a schedule picks (else virtual time does).
    #[inline]
    pub(crate) fn explores(&self) -> bool {
        self.explore.is_some()
    }

    /// Current virtual time of `pe`, in ns.
    #[inline]
    pub(crate) fn now(&self, pe: usize) -> u64 {
        self.pes[pe].clock.get()
    }

    /// Engine counters for `pe`.
    pub(crate) fn engine_stats(&self, pe: usize) -> EngineStats {
        let p = &self.pes[pe];
        EngineStats {
            fast_ops: p.fast_ops.get(),
            slow_ops: p.slow_ops.get(),
            windows: p.windows.get(),
            gate_wait_ns: 0,
        }
    }

    /// Mark the world poisoned (a PE panicked). Every later `gate` or
    /// `barrier` call panics, and [`VClock::run`] resumes each suspended
    /// PE so it does.
    pub(crate) fn poison(&self) {
        // The first reason sticks: PEs unwinding from a truncation end
        // up here too.
        if !self.is_poisoned() {
            self.poison.set(PANICKED);
        }
    }

    /// Whether the world has been poisoned.
    #[inline]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poison.get() != 0
    }

    #[inline]
    fn check_poison(&self) {
        match self.poison.get() {
            0 => {}
            TRUNCATED => panic!("{TRUNCATED_MSG}"),
            _ => panic!("{POISON_MSG}"),
        }
    }

    /// Append `e` to the world's capture. Called by the running PE at the
    /// serialization point of the effect `e` records, so the log is in
    /// apply order.
    #[inline]
    pub(crate) fn record(&self, e: &ProtoEvent) {
        self.sched.with(|s| s.log.push(e));
    }

    /// Hand the capture out, leaving an empty log.
    pub(crate) fn take_log(&self) -> ProtoLog {
        self.sched.with(|s| std::mem::take(&mut s.log))
    }

    /// Advance `pe`'s clock by `dt` ns without gating (local work: task
    /// execution, queue bookkeeping, the cost of an effect just applied).
    #[inline]
    pub(crate) fn advance(&self, pe: usize, dt: u64) {
        let clock = &self.pes[pe].clock;
        clock.set(clock.get().saturating_add(dt));
    }

    /// Return once `pe` may apply one shared-visible effect — it holds the
    /// minimal `(clock, rank)` among eligible PEs, or the schedule chose
    /// the op `desc` describes (only evaluated under the exploration
    /// rule). The caller must then [`VClock::advance`] by the effect's
    /// nonzero cost. Below the cached horizon this is one compare;
    /// otherwise the PE gives up the CPU until the step picks it again.
    #[inline]
    pub(crate) fn gate(&self, pe: usize, desc: impl FnOnce() -> OpDesc) {
        self.check_poison();
        let p = &self.pes[pe];
        if (p.clock.get(), pe as u64) < (p.h_t.get(), p.h_rank.get()) {
            p.fast_ops.bump();
        } else {
            // `desc` is evaluated here, not handed down: a closure passed
            // to the cold call is materialized before the compare above,
            // on every op of every mode (≈2 ns of a 17 ns op).
            self.gate_slow(pe, self.explores().then(desc));
        }
    }

    #[cold]
    fn gate_slow(&self, pe: usize, desc: Option<OpDesc>) {
        self.pes[pe].slow_ops.bump();
        self.give_up(pe, Yield::Gate(desc));
    }

    /// Synchronize all live PEs: every clock jumps to
    /// `max(entry clocks) + cost`. PEs inside the barrier are excluded
    /// from the pick (they apply no effects until release).
    pub(crate) fn barrier(&self, pe: usize, cost: u64) {
        self.check_poison();
        self.give_up(pe, Yield::Barrier(cost));
    }

    /// `pe` stops running for `why` and returns once it is picked again:
    /// it switches straight to the PE the step names (not at all when
    /// that is `pe`), to the root only if the step names nobody.
    fn give_up(&self, pe: usize, why: Yield) {
        match self.step(Some((pe, why))) {
            Some(next) if next == pe => {}
            Some(next) => context::hand_off(next),
            None => context::suspend(),
        }
        self.check_poison();
    }

    /// The one scheduling step, run by whoever gives up the CPU: file
    /// `from` where its reason says, release the barrier if that completed
    /// it (everyone at `max + cost`; free when a departure did), and pick
    /// the minimal `(clock, rank)` in `ready` — under a schedule, after
    /// admitting the pending op it chooses once nobody else is free.
    /// `None` when nobody is runnable: the world is over, stuck, or
    /// (poisoning it) out of schedule steps.
    fn step(&self, from: Option<(usize, Yield)>) -> Option<usize> {
        self.sched.with(|s| {
            // A gating PE's key in virtual time: filed by the pick itself.
            let mut mine = None;
            match from {
                None => {}
                Some((_, Yield::Finished)) => {
                    s.live -= 1;
                    // A barrier completed by a departure charges nothing.
                    s.barrier_cost = 0;
                }
                Some((pe, Yield::Barrier(cost))) => {
                    s.arrived.push(pe);
                    s.barrier_cost = cost;
                    s.bar_max_clock = s.bar_max_clock.max(self.now(pe));
                }
                Some((pe, Yield::Gate(Some(desc)))) => {
                    let at = s.pending.partition_point(|&(q, _)| (q as usize) < pe);
                    s.pending.insert(at, (pe as u32, desc));
                }
                Some((pe, Yield::Gate(None))) => mine = Some(Reverse((self.now(pe), pe))),
            }
            if !s.arrived.is_empty() && s.arrived.len() == s.live {
                let t = s.bar_max_clock.saturating_add(s.barrier_cost);
                for q in s.arrived.drain(..) {
                    self.pes[q].clock.set(t);
                    s.ready.push(Reverse((t, q)));
                }
                s.bar_max_clock = 0;
            }
            if let Some(schedule) = &mut s.schedule {
                if s.ready.is_empty() && !s.pending.is_empty() {
                    let Some(chosen) = schedule.decide(&s.pending) else {
                        self.poison.set(TRUNCATED);
                        return None;
                    };
                    let (pe, _) = s.pending.remove(chosen);
                    s.ready.push(Reverse((self.now(pe as usize), pe as usize)));
                }
            }
            // Filing a key and popping the minimum are one sift, not two,
            // when both happen — every gated op that crosses its horizon.
            let Reverse((_, pe)) = match mine {
                Some(mine) => match s.ready.peek_mut() {
                    Some(mut top) if *top > mine => std::mem::replace(&mut *top, mine),
                    _ => mine,
                },
                None => s.ready.pop()?,
            };
            let p = &self.pes[pe];
            if s.schedule.is_none() {
                let (h_t, h_rank) = match s.ready.peek() {
                    Some(&Reverse((t, rank))) => (t, rank as u64),
                    None => (u64::MAX, u64::MAX),
                };
                p.h_t.set(h_t);
                p.h_rank.set(h_rank);
            }
            p.windows.bump();
            Some(pe)
        })
    }

    /// Run the world: `ctxs[pe]` is PE `pe`'s body, and every call that
    /// body makes into this executor happens while `ctxs` is being run.
    /// Returns when all have finished (and the gate, if any, holds the
    /// decision log). `Err` names the PEs left suspended if ever none is
    /// runnable — after unwinding them.
    pub(crate) fn run(&self, ctxs: &mut [Context<'_>]) -> Result<(), String> {
        let n = self.pes.len();
        assert_eq!(ctxs.len(), n, "one context per PE");
        let mut done = vec![false; n];
        let mut next = self.step(None);
        while let Some(pe) = next {
            // Whoever comes back is rarely `pe`: the PEs hand the CPU to
            // one another. One that is not finished found nobody to hand to.
            let (back, finished) = context::resume_in(ctxs, pe);
            done[back] = finished;
            let go_on = finished && !self.is_poisoned();
            next = go_on.then(|| self.step(Some((back, Yield::Finished)))).flatten();
        }
        let mut stuck = Ok(());
        if !self.is_poisoned() && done.contains(&false) {
            let names = (0..n).filter(|&pe| !done[pe]).map(|pe| {
                let arrived = self.sched.with(|s| s.arrived.contains(&pe));
                let at = if arrived { "in the barrier" } else { "at a gate" };
                format!("PE {pe} {at} at {} ns", self.now(pe))
            });
            stuck = Err(names.collect::<Vec<_>>().join(", "));
            self.poison();
        }
        // Resume every unfinished PE, in rank order, until it finishes.
        // There are only any if the world is poisoned, so each one panics
        // out of the `gate`/`barrier` it is suspended in — or at its
        // first, if it never started — and unwinds through its own frames.
        for pe in 0..n {
            while !done[pe] {
                let (back, finished) = context::resume_in(ctxs, pe);
                done[back] = finished;
            }
        }
        if let (Some(gate), Some(schedule)) = (&self.explore, self.sched.with(|s| s.schedule.take())) {
            gate.publish(*schedule);
        }
        stuck
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{plain_desc, ExploreConfig};
    use crate::lock::Mutex;
    use crate::rng::SplitMix64;
    use crate::runtime::{run_world, WorldConfig};
    use crate::ShmemError;

    /// The two pick rules: virtual time, and a schedule (the default one).
    const BOTH_RULES: [bool; 2] = [false, true];

    fn new_gate(cfg: ExploreConfig) -> Arc<ExploreGate> {
        Arc::new(ExploreGate::new(cfg))
    }

    /// A 256-word-heap world of `n` PEs under either rule.
    fn world(explore: bool, n: usize) -> WorldConfig {
        if explore {
            WorldConfig::exploration(n, 256, new_gate(ExploreConfig::default()))
        } else {
            WorldConfig::virtual_time(n, 256)
        }
    }

    /// Drive `body(vc, pe)` as PE `pe` of an `n`-PE executor under either
    /// rule, the way `run_world` does, without a heap or an op layer in
    /// between.
    fn drive(explore: bool, n: usize, body: impl Fn(&VClock, usize) + Sync) -> VClock {
        let (vc, stuck) = try_drive(explore, n, body);
        stuck.unwrap();
        vc
    }

    /// [`drive`], with what [`VClock::run`] returned.
    fn try_drive(explore: bool, n: usize, body: impl Fn(&VClock, usize) + Sync) -> (VClock, Result<(), String>) {
        let vc = VClock::new(n, explore.then(|| new_gate(ExploreConfig::default())));
        let mut ctxs: Vec<Context<'_>> = (0..n)
            .map(|pe| {
                let (vc, body) = (&vc, &body);
                Context::spawn(move || {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(vc, pe)));
                    if r.is_err() {
                        vc.poison();
                    }
                })
                .unwrap()
            })
            .collect();
        let stuck = vc.run(&mut ctxs);
        ctxs.into_iter().for_each(Context::reap);
        (vc, stuck)
    }

    fn gated(vc: &VClock, pe: usize, cost: u64, f: impl FnOnce()) {
        vc.gate(pe, || plain_desc(pe, 0, 1, true));
        f();
        vc.advance(pe, cost.max(1));
    }

    #[test]
    fn single_pe_never_leaves_the_fast_path() {
        let vc = drive(false, 1, |vc, pe| {
            for _ in 0..100 {
                gated(vc, pe, 3, || ());
            }
        });
        assert_eq!(vc.now(0), 300);
        assert_eq!(
            vc.engine_stats(0),
            EngineStats {
                fast_ops: 100,
                slow_ops: 0,
                windows: 1,
                gate_wait_ns: 0
            }
        );
    }

    /// For randomized per-PE cost schedules, gated effects must apply in
    /// nondecreasing (time, pe) order and the final clocks must equal the
    /// sum of each PE's costs.
    #[test]
    fn gated_effects_are_ordered_for_any_schedule() {
        for case in 0..16u64 {
            let mut rng = SplitMix64::stream(0xC10C_0CA5, case);
            let n = rng.range(2, 5) as usize;
            let schedules: Vec<Vec<u64>> = (0..n)
                .map(|_| {
                    let len = rng.range(1, 30) as usize;
                    (0..len).map(|_| rng.range(1, 500)).collect()
                })
                .collect();
            let log = Mutex::new(Vec::new());
            let vc = drive(false, n, |vc, pe| {
                for &c in &schedules[pe] {
                    let t = vc.now(pe);
                    gated(vc, pe, c, || log.lock().push((t, pe)));
                }
            });
            let log = log.lock();
            assert_eq!(
                log.len(),
                schedules.iter().map(|s| s.len()).sum::<usize>(),
                "case {case}"
            );
            for w in log.windows(2) {
                assert!(
                    w[0] <= w[1],
                    "case {case}: order violated: {:?} -> {:?}",
                    w[0],
                    w[1]
                );
            }
            for (pe, costs) in schedules.iter().enumerate() {
                assert_eq!(vc.now(pe), costs.iter().sum::<u64>(), "case {case} pe {pe}");
            }
        }
    }

    #[test]
    fn barrier_resynchronizes_to_max_plus_cost() {
        for explore in BOTH_RULES {
            let after = Mutex::new(vec![0; 4]);
            drive(explore, 4, |vc, pe| {
                vc.advance(pe, (pe as u64 + 1) * 100);
                vc.barrier(pe, 50);
                after.lock()[pe] = vc.now(pe);
            });
            // max entry clock = 400, +50 barrier cost.
            assert_eq!(*after.lock(), [450; 4]);
        }
    }

    #[test]
    fn a_finished_pe_blocks_neither_gate_nor_barrier() {
        for explore in BOTH_RULES {
            let vc = drive(explore, 3, |vc, pe| match pe {
                // Done at clock 1, before anyone else's first op.
                0 => vc.advance(pe, 1),
                // Gates at clock 0 with PE 0 frozen at 1 "ahead" of nobody,
                // then waits in a barrier PE 0 will never enter.
                _ => {
                    gated(vc, pe, 10, || ());
                    vc.barrier(pe, 5);
                }
            });
            assert_eq!([vc.now(0), vc.now(1), vc.now(2)], [1, 15, 15]);
        }
    }

    #[test]
    fn a_barrier_whose_last_missing_pe_finishes_releases_free() {
        for explore in BOTH_RULES {
            let vc = drive(explore, 2, |vc, pe| {
                if pe == 0 {
                    vc.advance(pe, 40);
                    vc.barrier(pe, 7);
                } else {
                    // Still live when PE 0 arrives; finishes afterwards.
                    gated(vc, pe, 100, || ());
                }
            });
            assert_eq!([vc.now(0), vc.now(1)], [40, 100]);
        }
    }

    #[test]
    fn the_horizon_admits_exactly_the_ops_below_it() {
        // PE 1 sits at clock 1_000 from its first op on; PE 0 issues 12
        // ops of cost 100 from clock 0.
        let vc = drive(false, 2, |vc, pe| {
            if pe == 0 {
                for _ in 0..12 {
                    gated(vc, pe, 100, || ());
                }
            } else {
                vc.advance(pe, 1_000);
                gated(vc, pe, 1, || ());
            }
        });
        // PE 0 starts with horizon (0, 1): its op at clock 0 is below it.
        // The op at 100 is not, so PE 0 suspends; PE 1 runs up to its
        // gate at (1_000, 1) and suspends in turn. Resumed with that
        // horizon, PE 0's ops at 100..=900 and at 1_000 (rank 0 wins the
        // tie) are admitted on the spot — 10 more — and the op at 1_100
        // suspends again until PE 1 has finished.
        let pe0 = vc.engine_stats(0);
        assert_eq!((pe0.fast_ops, pe0.slow_ops, pe0.windows), (10, 2, 3));
        let pe1 = vc.engine_stats(1);
        assert_eq!((pe1.fast_ops, pe1.slow_ops, pe1.windows), (0, 1, 2));
        assert_eq!([vc.now(0), vc.now(1)], [1_200, 1_001]);
    }

    /// Who runs when, pinned: five PEs with seeded op costs (cheap ones
    /// pass below the horizon, dear ones suspend), local work between
    /// them, a barrier in the middle and PE 3 finishing before it. Every
    /// constant was computed at d629d41, where the root loop resumed each
    /// PE itself; a scheduler that picks differently, counts a resume
    /// differently or applies one effect out of turn moves one of them.
    #[test]
    fn a_mixed_cost_world_with_a_barrier_keeps_its_schedule() {
        // Per rule: `(fast_ops, slow_ops, windows)` and final clock per
        // PE, then length and FNV-1a of the applied `(t, pe)` sequence.
        type Pinned = ([(u64, u64, u64); 5], [u64; 5], usize, u64);
        const WANT: [Pinned; 2] = [
            (
                [(6, 9, 11), (7, 8, 10), (6, 9, 11), (4, 5, 6), (10, 5, 7)],
                [2272, 2232, 1837, 1013, 2183],
                69,
                13984623882015222403,
            ),
            (
                [(0, 15, 17), (0, 15, 17), (0, 15, 17), (0, 9, 10), (0, 15, 17)],
                [2272, 2232, 1837, 1013, 2183],
                69,
                11638437007156153279,
            ),
        ];
        let mut rng = SplitMix64::stream(0x5C4E_D01E, 5);
        let mut costs = |len: u64| -> Vec<(u64, u64)> {
            // (local work before the op, the op's cost)
            (0..len)
                .map(|_| (rng.below(3) * rng.range(1, 40), [1, 2, 7, 90, 400][rng.below(5) as usize]))
                .collect()
        };
        let phases: Vec<[Vec<(u64, u64)>; 2]> = (0..5).map(|pe| [costs(6 + pe), costs(9 - pe)]).collect();
        for (explore, want) in BOTH_RULES.into_iter().zip(WANT) {
            let log = Mutex::new(Vec::new());
            let vc = drive(explore, 5, |vc, pe| {
                let run = |phase: &[(u64, u64)]| {
                    for &(local, cost) in phase {
                        vc.advance(pe, local);
                        let t = vc.now(pe);
                        gated(vc, pe, cost, || log.lock().push((t, pe)));
                    }
                };
                run(&phases[pe][0]);
                if pe != 3 {
                    vc.barrier(pe, 25);
                    run(&phases[pe][1]);
                }
            });
            let stats = [0, 1, 2, 3, 4].map(|pe| {
                let e = vc.engine_stats(pe);
                (e.fast_ops, e.slow_ops, e.windows)
            });
            let clocks = [0, 1, 2, 3, 4].map(|pe| vc.now(pe));
            let log = log.lock();
            let order = log.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &(t, pe)| {
                [t, pe as u64].iter().fold(h, |h, w| (h ^ w).wrapping_mul(0x0100_0000_01b3))
            });
            if !explore {
                assert!(log.windows(2).all(|w| w[0] <= w[1]), "virtual time applies in (t, pe) order");
            }
            assert_eq!((stats, clocks, log.len(), order), want, "explore = {explore}");
        }
    }

    /// Bumps a counter when dropped: proves a PE's frames were unwound.
    struct Bump<'a>(&'a std::sync::atomic::AtomicUsize);

    impl Drop for Bump<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::AcqRel);
        }
    }

    #[test]
    fn poison_closes_an_unbounded_window() {
        // The last runnable PE has no rival and would never suspend
        // again: the one-compare path must still honour the flag.
        drive(false, 1, |vc, pe| {
            gated(vc, pe, 1, || ());
            vc.poison();
            let next = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                gated(vc, pe, 1, || ())
            }));
            assert!(next.is_err(), "gate admitted an op in a poisoned world");
        });
    }

    fn assert_root_cause(err: ShmemError, want_pe: usize) {
        match err {
            ShmemError::PePanicked { pe, message } => {
                assert_eq!(pe, want_pe, "the root cause is reported, not a victim");
                assert!(message.contains("deliberate"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn poison_unwinds_pes_suspended_in_gate_and_barrier() {
        for explore in BOTH_RULES {
            let drops = std::sync::atomic::AtomicUsize::new(0);
            let err = run_world(world(explore, 4), |ctx| {
                let _unwound = Bump(&drops);
                let a = ctx.alloc_words(1);
                match ctx.my_pe() {
                    // Virtual time: suspended at a gate far in the future.
                    // (The default schedule lets it finish first.)
                    1 => {
                        ctx.compute(1_000_000);
                        ctx.atomic_fetch_add(0, a, 1);
                    }
                    // Suspended at a gate it would have reached next.
                    2 => loop {
                        ctx.atomic_fetch_add(0, a, 1);
                    },
                    3 => {
                        ctx.compute(10_000);
                        ctx.atomic_fetch_add(0, a, 1);
                        panic!("deliberate test panic");
                    }
                    // Suspended in the barrier.
                    _ => ctx.barrier_all(),
                }
            })
            .unwrap_err();
            assert_root_cause(err, 3);
            assert_eq!(
                drops.load(Ordering::Acquire),
                4,
                "every PE's frames unwound"
            );
        }
    }

    #[test]
    fn poison_unwinds_pes_suspended_inside_a_hand_off() {
        for explore in BOTH_RULES {
            // Equal costs: every op hands the CPU to the next rank, so when
            // PE 3 panics the other three sit inside a hand-off, mid-loop.
            let (drops, ops) = (std::sync::atomic::AtomicUsize::new(0), Mutex::new([0; 4]));
            let (vc, stuck) = try_drive(explore, 4, |vc, pe| {
                let _unwound = Bump(&drops);
                for i in 0..10 {
                    assert!(pe != 3 || i != 5, "deliberate test panic");
                    gated(vc, pe, 10, || ops.lock()[pe] += 1);
                }
            });
            assert_eq!(stuck, Ok(()), "a poisoned world is not a stuck one");
            assert!(vc.is_poisoned());
            assert_eq!(drops.load(Ordering::Acquire), 4, "every PE's frames unwound");
            // (The default schedule lets one PE run on instead.)
            assert!(explore || ops.lock().iter().all(|&n| (5..=6).contains(&n)), "{:?}", ops.lock());
        }
    }

    #[test]
    fn a_world_with_nobody_runnable_is_reported_and_unwound() {
        for explore in BOTH_RULES {
            let drops = std::sync::atomic::AtomicUsize::new(0);
            let (_, stuck) = try_drive(explore, 3, |vc, pe| {
                let _unwound = Bump(&drops);
                vc.advance(pe, 7 * pe as u64);
                match pe {
                    0 => return,
                    1 => vc.barrier(pe, 5),
                    // What no PE body can do — stop without telling the
                    // scheduler why — stands in for an engine bug.
                    _ => context::suspend(),
                }
                gated(vc, pe, 1, || ());
            });
            assert_eq!(stuck.unwrap_err(), "PE 1 in the barrier at 7 ns, PE 2 at a gate at 14 ns");
            assert_eq!(drops.load(Ordering::Acquire), 3, "every PE's frames unwound");
        }
    }

    #[test]
    fn poison_unwinds_pes_that_never_started() {
        for explore in BOTH_RULES {
            let drops = std::sync::atomic::AtomicUsize::new(0);
            let err = run_world(world(explore, 3), |ctx| {
                let _unwound = Bump(&drops);
                if ctx.my_pe() == 0 {
                    panic!("deliberate test panic");
                }
                ctx.barrier_all();
            })
            .unwrap_err();
            assert_root_cause(err, 0);
            assert_eq!(drops.load(Ordering::Acquire), 3);
        }
    }

    #[test]
    fn an_exhausted_step_budget_truncates_instead_of_poisoning() {
        let drops = std::sync::atomic::AtomicUsize::new(0);
        let gate = new_gate(ExploreConfig {
            prefix: vec![1, 0, 1],
            max_steps: 10,
        });
        let err = run_world(WorldConfig::exploration(2, 256, Arc::clone(&gate)), |ctx| {
            let _unwound = Bump(&drops);
            let a = ctx.alloc_words(1);
            loop {
                ctx.atomic_fetch_add(0, a, 1);
            }
        })
        .unwrap_err();
        match err {
            ShmemError::PePanicked { pe: 0, message } => assert_eq!(message, TRUNCATED_MSG),
            other => panic!("unexpected error {other:?}"),
        }
        assert_ne!(TRUNCATED_MSG, POISON_MSG);
        let trace = gate.take_trace();
        assert!(trace.truncated);
        assert_eq!(trace.len(), 10);
        assert_eq!(drops.load(Ordering::Acquire), 2, "both PEs unwound");
    }

    #[test]
    fn the_decision_log_is_handed_over_once() {
        let gate = new_gate(ExploreConfig::default());
        assert!(gate.take_trace().is_empty(), "no world has run");
        run_world(WorldConfig::exploration(2, 256, Arc::clone(&gate)), |ctx| {
            let a = ctx.alloc_words(1);
            ctx.atomic_fetch_add(0, a, 1);
        })
        .unwrap();
        assert!(!gate.take_trace().is_empty());
        let again = gate.take_trace();
        assert!(again.is_empty() && !again.truncated, "{again:?}");
    }

    /// (Where contexts are switched, not parked threads: `crate::context`.)
    #[test]
    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    fn an_explored_world_runs_every_pe_on_the_calling_thread() {
        let out = run_world(world(true, 3), |ctx| {
            let a = ctx.alloc_words(1);
            ctx.atomic_fetch_add(0, a, 1);
            ctx.barrier_all();
            std::thread::current().id()
        })
        .unwrap();
        assert_eq!(out.results, [std::thread::current().id(); 3]);
    }

    #[test]
    fn four_thousand_barrier_only_pes_launch_and_finish() {
        let out = run_world(WorldConfig::virtual_time(4096, 64), |ctx| {
            ctx.barrier_all();
            ctx.barrier_all();
            ctx.my_pe()
        })
        .unwrap();
        assert_eq!(out.results.len(), 4096);
        assert!(out.results.iter().enumerate().all(|(i, &r)| i == r));
        assert!(out
            .virtual_ns
            .iter()
            .all(|&t| t == out.virtual_ns[0] && t > 0));
    }

    fn counting_world(explore: bool, n: usize) -> Vec<u64> {
        run_world(world(explore, n), |ctx| {
            let a = ctx.alloc_words(1);
            for _ in 0..20 {
                ctx.atomic_fetch_add(0, a, 1);
            }
            ctx.barrier_all();
            ctx.atomic_fetch(0, a)
        })
        .unwrap()
        .results
    }

    #[test]
    fn a_world_launched_from_inside_a_pe_of_another_world_works() {
        for inner_explores in BOTH_RULES {
            let out = run_world(world(false, 3), |ctx| {
                let a = ctx.alloc_words(1);
                ctx.atomic_fetch_add(0, a, 1);
                // Suspended peers of the outer world stay suspended while
                // this PE is the root of a whole inner world.
                let inner = counting_world(inner_explores, ctx.my_pe() + 2);
                ctx.atomic_fetch_add(0, a, 1);
                ctx.barrier_all();
                (inner, ctx.atomic_fetch(0, a))
            })
            .unwrap();
            for (pe, (inner, outer)) in out.results.iter().enumerate() {
                assert_eq!(*inner, vec![20 * (pe as u64 + 2); pe + 2]);
                assert_eq!(*outer, 6);
            }
        }
    }

    #[test]
    fn two_worlds_on_two_os_threads_at_once() {
        std::thread::scope(|s| {
            let a = s.spawn(|| counting_world(false, 7));
            let b = s.spawn(|| counting_world(true, 5));
            assert_eq!(a.join().unwrap(), vec![140; 7]);
            assert_eq!(b.join().unwrap(), vec![100; 5]);
        });
    }
}
