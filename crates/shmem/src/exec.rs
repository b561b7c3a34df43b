//! The execution seam: which substrate serializes shared-visible effects.
//!
//! The protocols are written against one one-sided API and cannot tell
//! what applies their effects. That decision lives here and nowhere else:
//! [`Exec`] is the world's single substrate value, and every mode-dependent
//! step of an op (the clock, the serialization point, the charge, the
//! barrier, teardown, poison) is one method on it. There are two: the
//! serial executor (`crate::vclock` — virtual time and exploration are its
//! two pick rules, not two substrates) and plain OS threads. A further
//! substrate (a process-per-PE backend, say) is one more variant in this
//! file.
//!
//! The enum is matched, not boxed: `enter`/`leave` sit on the un-gated
//! single-PE hot path, where a virtual call would be the dominant cost.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::explore::OpDesc;
use crate::lock::{Condvar, Mutex};
use crate::proto::{ProtoEvent, ProtoLog};
use crate::runtime::ExecMode;
use crate::vclock::{EngineStats, VClock};

/// The substrate a world's PEs execute on.
pub(crate) enum Exec {
    /// One PE at a time, as contexts on the thread that called
    /// `run_world`: effects apply in global virtual-time order, or — with
    /// a gate — in the order an explicit schedule chooses them.
    Serial(VClock),
    /// Real threads, real atomics, no serialization.
    Threads {
        barrier: ThreadBarrier,
        /// World start: the shared wall-clock time base.
        start: Instant,
        /// More PEs than hardware threads: spin loops should yield.
        oversubscribed: bool,
    },
}

impl Exec {
    pub(crate) fn new(mode: ExecMode, n_pes: usize) -> Exec {
        match mode {
            ExecMode::Virtual => Exec::Serial(VClock::new(n_pes, None)),
            ExecMode::Explore(gate) => Exec::Serial(VClock::new(n_pes, Some(gate))),
            ExecMode::Threaded => Exec::Threads {
                barrier: ThreadBarrier::new(n_pes),
                start: Instant::now(),
                oversubscribed: n_pes
                    > std::thread::available_parallelism().map_or(1, |n| n.get()),
            },
        }
    }

    /// Whether op descriptors (and so protocol-site annotations) are
    /// consumed by the substrate itself.
    pub(crate) fn schedules_sites(&self) -> bool {
        matches!(self, Exec::Serial(clock) if clock.explores())
    }

    /// `pe`'s clock, ns: its virtual (or, under a schedule, logical)
    /// clock, or wall time since world start.
    #[inline]
    pub(crate) fn now(&self, pe: usize) -> u64 {
        match self {
            Exec::Serial(clock) => clock.now(pe),
            Exec::Threads { start, .. } => start.elapsed().as_nanos() as u64,
        }
    }

    /// Charge `ns` of PE-local time (task execution, nbi completion): no
    /// serialization point.
    #[inline]
    pub(crate) fn advance(&self, pe: usize, ns: u64) {
        match self {
            Exec::Serial(clock) => clock.advance(pe, ns),
            // Wall time passes by itself.
            Exec::Threads { .. } => {}
        }
    }

    /// Block until `pe` may apply one shared-visible effect. `desc` is
    /// only evaluated by a substrate that schedules on it. Once the world
    /// is poisoned this unwinds instead, on either substrate, so a PE
    /// spinning on remote state cannot outlive a peer's panic.
    #[inline]
    pub(crate) fn enter(&self, pe: usize, desc: impl FnOnce() -> OpDesc) {
        match self {
            Exec::Serial(clock) => clock.gate(pe, desc),
            Exec::Threads { barrier, .. } => barrier.check_poison(),
        }
    }

    /// Pay for the effect applied since [`Exec::enter`]. The gated clocks
    /// advance by at least 1 ns so a poll loop makes progress even on a
    /// zero-cost network.
    #[inline]
    pub(crate) fn leave(&self, pe: usize, charge: u64) {
        match self {
            Exec::Serial(clock) => clock.advance(pe, charge.max(1)),
            Exec::Threads { .. } => {}
        }
    }

    /// `enter`, apply `f`, `leave(charge)`: for effects whose charge does
    /// not depend on their outcome.
    pub(crate) fn gated<R>(
        &self,
        pe: usize,
        charge: u64,
        desc: impl FnOnce() -> OpDesc,
        f: impl FnOnce() -> R,
    ) -> R {
        self.enter(pe, desc);
        let r = f();
        self.leave(pe, charge);
        r
    }

    /// A free scheduling choice point: only a substrate that explores
    /// interleavings blocks here; the others order nothing and charge
    /// nothing.
    #[inline]
    pub(crate) fn choice_point(&self, pe: usize, desc: impl FnOnce() -> OpDesc) {
        if self.schedules_sites() {
            self.enter(pe, desc);
        }
    }

    pub(crate) fn barrier(&self, pe: usize, cost: u64) {
        match self {
            Exec::Serial(clock) => clock.barrier(pe, cost),
            Exec::Threads { barrier, .. } => barrier.wait(),
        }
    }

    /// Retire `pe` (its SPMD closure returned) and report its final clock
    /// — 0 on plain threads, which keep none.
    pub(crate) fn finish(&self, pe: usize) -> u64 {
        match self {
            // The executor's root sees the PE's context return.
            Exec::Serial(clock) => clock.now(pe),
            Exec::Threads { barrier, .. } => {
                // A crash-stopped PE exits with fewer barrier entries
                // than its peers; retiring lets their barriers release
                // without it.
                barrier.retire();
                0
            }
        }
    }

    /// A PE panicked: make every peer blocked in a gate or barrier bail.
    pub(crate) fn poison(&self) {
        match self {
            Exec::Serial(clock) => clock.poison(),
            Exec::Threads { barrier, .. } => barrier.poison(),
        }
    }

    /// Yield the timeslice when spinning cannot help: plain threads on
    /// an oversubscribed machine. The serial executor owns all
    /// scheduling, and an undersubscribed machine loses nothing by
    /// spinning.
    #[inline]
    pub(crate) fn idle_hint(&self) {
        if let Exec::Threads {
            oversubscribed: true,
            ..
        } = self
        {
            std::thread::yield_now();
        }
    }

    /// Append `e` to the world's capture, in apply order. Plain threads
    /// keep none: `run_world` refuses capture there.
    #[inline]
    pub(crate) fn record(&self, e: &ProtoEvent) {
        if let Exec::Serial(clock) = self {
            clock.record(e);
        }
    }

    /// Hand the world's capture out (empty on plain threads).
    pub(crate) fn take_log(&self) -> ProtoLog {
        match self {
            Exec::Serial(clock) => clock.take_log(),
            Exec::Threads { .. } => ProtoLog::new(),
        }
    }

    /// The serial executor's counters; zeros on plain threads.
    pub(crate) fn engine_stats(&self, pe: usize) -> EngineStats {
        match self {
            Exec::Serial(clock) => clock.engine_stats(pe),
            Exec::Threads { .. } => EngineStats::default(),
        }
    }
}

/// Reusable sense-reversing barrier for threaded mode, with poisoning so a
/// panicked PE cannot leave peers blocked forever, and retirement so a
/// crash-stopped PE that exits early cannot either.
pub(crate) struct ThreadBarrier {
    inner: Mutex<BarrierInner>,
    cv: Condvar,
    poisoned: AtomicBool,
}

struct BarrierInner {
    arrived: usize,
    generation: u64,
    /// PEs still participating; barriers release at `arrived == live`.
    live: usize,
}

impl ThreadBarrier {
    fn new(n: usize) -> ThreadBarrier {
        ThreadBarrier {
            inner: Mutex::new(BarrierInner {
                arrived: 0,
                generation: 0,
                live: n,
            }),
            cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
        }
    }

    fn wait(&self) {
        self.check_poison();
        let mut g = self.inner.lock();
        g.arrived += 1;
        if g.arrived == g.live {
            g.arrived = 0;
            g.generation += 1;
            self.cv.notify_all();
        } else {
            let gen = g.generation;
            while g.generation == gen {
                g = self.cv.wait(g);
                self.check_poison();
            }
        }
    }

    /// Permanently remove one participant (a PE exiting early). If the
    /// departure makes an in-progress barrier complete, release it.
    fn retire(&self) {
        let mut g = self.inner.lock();
        g.live = g.live.saturating_sub(1);
        if g.live > 0 && g.arrived == g.live {
            g.arrived = 0;
            g.generation += 1;
            self.cv.notify_all();
        }
    }

    /// Unwind if a peer PE panicked.
    #[inline]
    fn check_poison(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            panic!("threaded world poisoned: a peer PE panicked");
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        let _g = self.inner.lock();
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use crate::explore::{ExploreConfig, ExploreGate};
    use crate::fault::{FaultPlan, OpClass, TargetSel};
    use crate::net::NetModel;
    use crate::runtime::{run_world, ExecMode, WorldConfig, WorldOutput};
    use crate::ShmemCtx;
    use std::sync::Arc;

    const N_PES: usize = 3;

    /// Straight-line SPMD body touching every op shape the seam carries:
    /// blocking RMWs, a bulk get, an nbi op settled by `quiet`, local
    /// compute, collectives. Seeded drops send some ops down the fallible
    /// path; nothing branches on an op's outcome, so every mode issues
    /// the same op stream.
    fn body(ctx: &ShmemCtx) {
        let a = ctx.alloc_words(4);
        let peer = (ctx.my_pe() + 1) % ctx.n_pes();
        for i in 0..12u64 {
            let _ = ctx.try_atomic_fetch_add(peer, a, i);
            let _ = ctx.try_atomic_swap(peer, a.offset(1), i);
            let _ = ctx.try_atomic_compare_swap(peer, a.offset(2), 0, i);
            let _ = ctx.try_get_words(peer, a, &mut [0u64; 4]);
            ctx.atomic_set_nbi(peer, a.offset(3), i);
            ctx.quiet();
            ctx.compute(250);
        }
        ctx.barrier_all();
        ctx.barrier_all();
    }

    fn run(mode: ExecMode, net: NetModel) -> WorldOutput<()> {
        let cfg = WorldConfig {
            mode,
            net,
            ..WorldConfig::threaded(N_PES, 256)
        }
        .with_faults(FaultPlan::seeded(7).with_drop(OpClass::All, TargetSel::Any, 0.2));
        run_world(cfg, body).expect("world runs")
    }

    fn explore() -> ExecMode {
        ExecMode::Explore(Arc::new(ExploreGate::new(ExploreConfig::default())))
    }

    #[test]
    fn the_three_substrates_agree() {
        let net = NetModel::edr_infiniband();
        let virt = run(ExecMode::Virtual, net);
        let expl = run(explore(), net);
        let thr = run(ExecMode::Threaded, net);
        // Identical op streams, faults and charges in every mode:
        // `OpStats` equality covers counts, bytes, failed counts and the
        // summed modeled charge, per PE.
        assert_eq!(virt.stats.per_pe, expl.stats.per_pe);
        assert_eq!(virt.stats.per_pe, thr.stats.per_pe);
        assert!(virt.stats.total.total_failed() > 0, "no op took the fault path");
        // The serial executor keeps the same clocks under both pick rules.
        assert_eq!(virt.virtual_ns, expl.virtual_ns);
        assert!(virt.makespan_ns() > 0);
        assert_eq!(thr.virtual_ns, vec![0; N_PES]);
    }

    /// On a zero-cost network stats record the modeled charge (0 for
    /// every successful op) while the gated clocks still advance 1 ns per
    /// op (`Exec::leave`), so the clock runs ahead of `comm_ns` by exactly
    /// the number of gated ops — pinned here so reports cannot drift.
    #[test]
    fn zero_cost_ops_record_zero_but_advance_the_gated_clocks() {
        let nofault = |mode| {
            let cfg = WorldConfig {
                mode,
                ..WorldConfig::threaded(N_PES, 256)
            };
            run_world(cfg, |ctx| {
                let a = ctx.alloc_words(1);
                let t0 = ctx.now_ns();
                for _ in 0..10 {
                    ctx.atomic_fetch_add((ctx.my_pe() + 1) % ctx.n_pes(), a, 1);
                }
                ctx.now_ns() - t0
            })
            .expect("world runs")
        };
        for mode in [ExecMode::Virtual, explore()] {
            let out = nofault(mode);
            assert_eq!(out.stats.total.comm_ns, 0);
            assert_eq!(out.results, vec![10; N_PES]);
        }
    }
}
