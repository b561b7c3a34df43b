//! World construction and PE execution.
//!
//! [`run_world`] gives every PE a [`ShmemCtx`] and a carrier — a stackful
//! context on the calling thread for the two serialized modes, an OS
//! thread for `Threaded` — runs the supplied SPMD closure on each, and
//! collects per-PE results, op statistics, final (virtual) clocks and the
//! world's capture log (serialized modes only: a threaded world refuses
//! capture). A panic on any PE poisons the world so blocked peers fail
//! fast instead of deadlocking, and surfaces as [`ShmemError::PePanicked`].

use std::panic::AssertUnwindSafe;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::context::Context;
use crate::ctx::ShmemCtx;
use crate::error::{ShmemError, ShmemResult};
use crate::exec::Exec;
use crate::explore::ExploreGate;
use crate::fault::FaultPlan;
use crate::heap::SymmetricHeap;
use crate::net::NetModel;
use crate::overrides::OrderingCtl;
use crate::proto::ProtoLog;
use crate::stats::{OpStats, StatsSummary};

/// How PEs execute.
#[derive(Clone, Debug)]
pub enum ExecMode {
    /// Real threads, real atomics, no modeled cost. Nondeterministic
    /// interleavings — use for stress tests.
    Threaded,
    /// Conservative virtual-time serialization: deterministic, scalable to
    /// thousands of PEs on one core. Use for experiments.
    ///
    /// Every PE runs as a stackful context on the thread that called
    /// [`run_world`], one at a time, switched in user space (2 MiB of
    /// lazily touched stack and a guard page each). PE bodies may
    /// therefore communicate **only through [`ShmemCtx`]**: an OS-level
    /// wait on a peer — a mutex it holds, a channel it feeds, a spin on
    /// plain memory — can never be satisfied, because the peer is not
    /// running until this PE reaches a `ShmemCtx` operation.
    Virtual,
    /// The same serial executor under an explicit schedule instead of
    /// virtual time: every gated effect suspends its PE, and once all are
    /// suspended the gate's schedule chooses which pending effect applies
    /// next (see [`crate::explore`]). Use for systematic interleaving
    /// search. The `Virtual` contract holds unchanged: PE bodies may
    /// communicate **only through [`ShmemCtx`]**.
    Explore(Arc<ExploreGate>),
}

/// World configuration.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Number of PEs.
    pub n_pes: usize,
    /// Symmetric heap size per PE, in 64-bit words.
    pub heap_words: usize,
    /// Network cost model.
    pub net: NetModel,
    /// Execution mode.
    pub mode: ExecMode,
    /// Fault schedule; `None` (or an inactive plan) injects nothing and
    /// leaves every op count bit-identical to a fault-free world.
    pub faults: Option<FaultPlan>,
    /// Record site-annotated one-sided ops into the world's one
    /// [`ProtoLog`], in apply order, for trace-conformance checking (see
    /// `crate::proto`). Off by default; a `Threaded` world refuses it.
    pub capture_proto: bool,
    /// Record per-site contention counters ([`crate::SiteCounters`])
    /// with plain per-PE stores at the op path's one observation point
    /// (`sws-run --contention`). Off by default; when off, the op surface
    /// carries no profiling state.
    pub profile_sites: bool,
    /// Per-site memory-ordering control for the necessity prover (see
    /// [`crate::overrides`]): the catalog's ordering table, one mutant
    /// applied or none, that every annotated op resolves its ordering
    /// through, plus an optional live happens-before tracker and an
    /// optional planted defect. `None` (the default everywhere outside
    /// `sws-check`) runs every op at its role default.
    pub ordering: Option<Arc<OrderingCtl>>,
}

impl WorldConfig {
    /// Virtual-time world with the default (EDR InfiniBand-like) network.
    pub fn virtual_time(n_pes: usize, heap_words: usize) -> WorldConfig {
        WorldConfig {
            n_pes,
            heap_words,
            net: NetModel::edr_infiniband(),
            mode: ExecMode::Virtual,
            faults: None,
            capture_proto: false,
            profile_sites: false,
            ordering: None,
        }
    }

    /// Threaded world with zero-cost network (pure correctness testing).
    pub fn threaded(n_pes: usize, heap_words: usize) -> WorldConfig {
        WorldConfig {
            n_pes,
            heap_words,
            net: NetModel::zero(),
            mode: ExecMode::Threaded,
            faults: None,
            capture_proto: false,
            profile_sites: false,
            ordering: None,
        }
    }

    /// Zero-cost-network world whose PEs run one at a time in the order
    /// `gate`'s schedule chooses: every gated op becomes a scheduling
    /// choice point (see [`crate::explore`]).
    pub fn exploration(n_pes: usize, heap_words: usize, gate: Arc<ExploreGate>) -> WorldConfig {
        WorldConfig {
            mode: ExecMode::Explore(gate),
            ..WorldConfig::threaded(n_pes, heap_words)
        }
    }

    /// Attach a fault schedule.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> WorldConfig {
        self.faults = Some(plan);
        self
    }

    /// Enable protocol op-trace capture.
    #[must_use]
    pub fn with_capture_proto(mut self) -> WorldConfig {
        self.capture_proto = true;
        self
    }

    /// Enable per-site contention profiling.
    #[must_use]
    pub fn with_profile_sites(mut self) -> WorldConfig {
        self.profile_sites = true;
        self
    }

    /// Attach the test control (override table + optional tracker and
    /// planted defect) for `sws-check`.
    #[must_use]
    pub fn with_ordering(mut self, ctl: Arc<OrderingCtl>) -> WorldConfig {
        self.ordering = Some(ctl);
        self
    }
}

/// State shared by every PE of a world.
pub(crate) struct WorldShared {
    pub(crate) heap: SymmetricHeap,
    pub(crate) net: NetModel,
    /// The substrate that serializes shared-visible effects.
    pub(crate) exec: Exec,
    /// Active fault plan, if any (inactive plans are dropped at build).
    pub(crate) faults: Option<Arc<FaultPlan>>,
    /// Per-PE down flags: set by a PE after it crash-stops and drains its
    /// protocol state; ops targeting a down PE fail with `TargetDown`.
    pub(crate) down: Vec<AtomicBool>,
    /// Whether contexts record site-annotated ops into the world's log.
    pub(crate) capture_proto: bool,
    /// Whether contexts record per-site contention counters.
    pub(crate) profile_sites: bool,
    /// Per-site ordering control for the necessity prover, if attached.
    pub(crate) ordering: Option<Arc<OrderingCtl>>,
}

/// Everything a finished world produced.
#[derive(Debug)]
pub struct WorldOutput<R> {
    /// Per-PE closure results, in rank order.
    pub results: Vec<R>,
    /// Per-PE and aggregate communication statistics.
    pub stats: StatsSummary,
    /// Final virtual clock per PE (ns); zeros in threaded mode.
    pub virtual_ns: Vec<u64>,
    /// The capture, in apply order (empty unless
    /// `WorldConfig::capture_proto` was set).
    pub proto: ProtoLog,
    /// Wall-clock duration of the whole world.
    pub elapsed: Duration,
}

impl<R> WorldOutput<R> {
    /// The maximum final virtual clock — the paper's "runtime of the
    /// computation" (all PEs run until global termination).
    pub fn makespan_ns(&self) -> u64 {
        self.virtual_ns.iter().copied().max().unwrap_or(0)
    }
}

/// Run an SPMD closure on `cfg.n_pes` PEs and collect the results.
///
/// The closure runs once per PE with that PE's [`ShmemCtx`]. It must follow
/// the SPMD collective contract (all PEs call collectives in the same
/// order).
pub fn run_world<R, F>(cfg: WorldConfig, f: F) -> ShmemResult<WorldOutput<R>>
where
    R: Send,
    F: Fn(&ShmemCtx) -> R + Sync,
{
    if cfg.n_pes == 0 {
        return Err(ShmemError::BadConfig("n_pes must be nonzero".into()));
    }
    if cfg.n_pes > 1 << 16 {
        return Err(ShmemError::BadConfig(format!(
            "n_pes = {} exceeds 65536: every PE is an OS thread (threaded \
             mode) or a stack mapping plus a guard page (two mappings each, \
             against vm.max_map_count)",
            cfg.n_pes
        )));
    }

    if cfg.capture_proto && matches!(cfg.mode, ExecMode::Threaded) {
        return Err(ShmemError::BadConfig(
            "capture_proto needs a serial world (Virtual or Explore): plain threads apply \
             effects in no order a capture could record"
                .into(),
        ));
    }

    let faults = match &cfg.faults {
        Some(plan) if plan.is_active() => {
            plan.validate(cfg.n_pes).map_err(ShmemError::BadConfig)?;
            Some(Arc::new(plan.clone()))
        }
        _ => None,
    };

    // Before any PE gets a stack: a world the host has no memory for
    // leaves nothing behind.
    let heap = SymmetricHeap::new(cfg.n_pes, cfg.heap_words).ok_or_else(|| {
        ShmemError::BadConfig(format!(
            "the host cannot give a symmetric heap of {} PEs × {} words = {} bytes",
            cfg.n_pes,
            cfg.heap_words,
            cfg.n_pes as u128 * cfg.heap_words as u128 * 8
        ))
    })?;
    let world = Arc::new(WorldShared {
        heap,
        net: cfg.net,
        exec: Exec::new(cfg.mode, cfg.n_pes),
        faults,
        down: (0..cfg.n_pes).map(|_| AtomicBool::new(false)).collect(),
        capture_proto: cfg.capture_proto,
        profile_sites: cfg.profile_sites,
        ordering: cfg.ordering,
    });

    let start = Instant::now();
    type PeSlot<R> = Option<Result<(R, OpStats, u64), String>>;
    let mut slots: Vec<PeSlot<R>> = Vec::new();
    slots.resize_with(cfg.n_pes, || None);

    // One PE's whole life, on whatever carries it.
    let run_pe = |pe: usize| {
        let ctx = ShmemCtx::new(pe, Arc::clone(&world));
        match std::panic::catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
            Ok(r) => Ok((r, ctx.stats(), ctx.world().exec.finish(pe))),
            Err(payload) => {
                // Poison so peers blocked in gates/barriers bail.
                ctx.world().exec.poison();
                Err(panic_message(&*payload))
            }
        }
    };
    if let Exec::Serial(clock) = &world.exec {
        let mut ctxs = Vec::with_capacity(cfg.n_pes);
        for (pe, slot) in slots.iter_mut().enumerate() {
            let run_pe = &run_pe;
            let ctx = Context::spawn(move || *slot = Some(run_pe(pe))).map_err(|e| {
                ShmemError::BadConfig(format!(
                    "cannot give PE {pe} of {} a stack (two mappings per PE, \
                     against vm.max_map_count): {e}",
                    cfg.n_pes
                ))
            })?;
            ctxs.push(ctx);
        }
        clock
            .run(&mut ctxs)
            .map_err(|stuck| ShmemError::Deadlocked { stuck })?;
        ctxs.into_iter().for_each(Context::reap);
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.n_pes)
                .map(|pe| {
                    let run_pe = &run_pe;
                    scope.spawn(move || run_pe(pe))
                })
                .collect();
            for (slot, h) in slots.iter_mut().zip(handles) {
                *slot = Some(match h.join() {
                    Ok(r) => r,
                    Err(payload) => Err(panic_message(&*payload)),
                });
            }
        });
    }
    let elapsed = start.elapsed();
    let proto = world.exec.take_log();

    let mut results = Vec::with_capacity(cfg.n_pes);
    let mut per_pe_stats = Vec::with_capacity(cfg.n_pes);
    let mut virtual_ns = Vec::with_capacity(cfg.n_pes);
    let mut first_err: Option<(usize, String)> = None;
    for (pe, slot) in slots.into_iter().enumerate() {
        match slot.expect("every PE slot filled") {
            Ok((r, s, t)) => {
                results.push(r);
                per_pe_stats.push(s);
                virtual_ns.push(t);
            }
            Err(msg) => {
                // Prefer the root cause over a poison-propagation victim:
                // the lowest-rank PE often dies of the *poison* raised by
                // a higher-rank PE's real failure, and the explorer (and
                // any human) wants the original message.
                let secondary = msg.contains("poisoned");
                match &first_err {
                    None => first_err = Some((pe, msg)),
                    Some((_, prev)) if prev.contains("poisoned") && !secondary => {
                        first_err = Some((pe, msg));
                    }
                    _ => {}
                }
            }
        }
    }
    if let Some((pe, message)) = first_err {
        return Err(ShmemError::PePanicked { pe, message });
    }
    Ok(WorldOutput {
        results,
        stats: StatsSummary::from_per_pe(per_pe_stats),
        virtual_ns,
        proto,
        elapsed,
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::OpKind;

    #[test]
    fn world_runs_and_collects_results() {
        for mode in [
            WorldConfig::threaded(4, 256),
            WorldConfig::virtual_time(4, 256),
        ] {
            let out = run_world(mode, |ctx| ctx.my_pe() * 10).unwrap();
            assert_eq!(out.results, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn one_sided_put_get_roundtrip() {
        let out = run_world(WorldConfig::virtual_time(2, 256), |ctx| {
            let a = ctx.alloc_words(4);
            if ctx.my_pe() == 0 {
                ctx.put_words(1, a, &[1, 2, 3, 4]);
            }
            ctx.barrier_all();
            let mut buf = [0u64; 4];
            ctx.get_words(1, a, &mut buf);
            buf
        })
        .unwrap();
        assert_eq!(out.results[0], [1, 2, 3, 4]);
        assert_eq!(out.results[1], [1, 2, 3, 4]);
    }

    #[test]
    fn atomics_are_atomic_across_pes() {
        // Every PE increments a counter on PE 0 many times; the total must
        // be exact in both modes.
        for cfg in [
            WorldConfig::threaded(8, 256),
            WorldConfig::virtual_time(8, 256),
        ] {
            let out = run_world(cfg, |ctx| {
                let a = ctx.alloc_words(1);
                for _ in 0..100 {
                    ctx.atomic_fetch_add(0, a, 1);
                }
                ctx.barrier_all();
                ctx.atomic_fetch(0, a)
            })
            .unwrap();
            assert!(out.results.iter().all(|&v| v == 800));
        }
    }

    #[test]
    fn sum_and_max_reductions() {
        let out = run_world(WorldConfig::virtual_time(5, 256), |ctx| {
            let s = ctx.reduce_sum_u64(ctx.my_pe() as u64);
            let m = ctx.reduce_max_u64(ctx.my_pe() as u64 * 3);
            (s, m)
        })
        .unwrap();
        for &(s, m) in &out.results {
            assert_eq!(s, 10); // 0+1+2+3+4
            assert_eq!(m, 12);
        }
    }

    #[test]
    fn pe_panic_is_reported_not_deadlocked() {
        let err = run_world(WorldConfig::virtual_time(3, 256), |ctx| {
            if ctx.my_pe() == 1 {
                panic!("deliberate test panic");
            }
            // Peers would block here forever without poisoning.
            ctx.barrier_all();
        })
        .unwrap_err();
        match err {
            ShmemError::PePanicked { message, .. } => {
                assert!(
                    message.contains("deliberate") || message.contains("poisoned"),
                    "unexpected: {message}"
                );
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn virtual_time_charges_costs() {
        let cfg = WorldConfig::virtual_time(2, 256);
        let out = run_world(cfg, |ctx| {
            if ctx.my_pe() == 0 {
                let a = ctx.alloc_words(1);
                for _ in 0..10 {
                    ctx.atomic_fetch_add(1, a, 1);
                }
            } else {
                let _a = ctx.alloc_words(1);
            }
            ctx.barrier_all();
        })
        .unwrap();
        // PE 0 paid 10 remote atomics at 1.5 µs each, plus collectives.
        assert!(out.makespan_ns() >= 15_000, "{}", out.makespan_ns());
        assert_eq!(out.stats.total.count(OpKind::AtomicFetchAdd), 10);
    }

    #[test]
    fn deterministic_virtual_runs() {
        fn run_once() -> (Vec<u64>, u64) {
            let out = run_world(WorldConfig::virtual_time(6, 512), |ctx| {
                let a = ctx.alloc_words(1);
                for i in 0..50u64 {
                    let target = (ctx.my_pe() + 1 + i as usize) % ctx.n_pes();
                    ctx.atomic_fetch_add(target, a, i);
                }
                ctx.barrier_all();
                ctx.atomic_fetch(ctx.my_pe(), a)
            })
            .unwrap();
            (out.results.clone(), out.makespan_ns())
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn nbi_ops_complete_at_quiet() {
        let out = run_world(WorldConfig::virtual_time(2, 256), |ctx| {
            let a = ctx.alloc_words(2);
            if ctx.my_pe() == 0 {
                ctx.atomic_set_nbi(1, a, 9);
                ctx.atomic_add_nbi(1, a, 1);
                ctx.quiet();
            }
            ctx.barrier_all();
            ctx.atomic_fetch(ctx.my_pe(), a)
        })
        .unwrap();
        assert_eq!(out.results[1], 10);
        assert_eq!(out.stats.total.count(OpKind::Quiet), 1);
    }

    #[test]
    fn zero_pes_rejected() {
        let cfg = WorldConfig::virtual_time(0, 256);
        assert!(matches!(
            run_world(cfg, |_| ()),
            Err(ShmemError::BadConfig(_))
        ));
    }

    /// Plain threads apply effects in no recorded order, so a threaded
    /// world refuses capture up front and says why; the same world on the
    /// serial executor hands out its one log.
    #[test]
    fn a_threaded_world_refuses_capture() {
        let body = |ctx: &ShmemCtx| {
            let a = ctx.alloc_words(1);
            ctx.proto_site(0);
            ctx.atomic_fetch_add(0, a, 1);
        };
        match run_world(WorldConfig::threaded(2, 256).with_capture_proto(), body) {
            Err(ShmemError::BadConfig(why)) => assert!(why.contains("plain threads"), "{why}"),
            other => panic!("a threaded world captured: {:?}", other.map(|out| out.proto)),
        }
        let out = run_world(WorldConfig::virtual_time(2, 256).with_capture_proto(), body).unwrap();
        assert_eq!(out.proto.iter().map(|e| e.issuer).collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn a_heap_the_host_cannot_give_is_a_named_error() {
        // A size no allocation can have, one that overflows `usize`, and
        // one (512 TiB) no address space holds.
        for (n_pes, heap_words) in [(1, usize::MAX / 16), (32, usize::MAX / 16), (2, 1 << 45)] {
            match run_world(WorldConfig::virtual_time(n_pes, heap_words), |_| ()) {
                Err(ShmemError::BadConfig(msg)) => {
                    let bytes = n_pes as u128 * heap_words as u128 * 8;
                    let named = format!("{n_pes} PEs × {heap_words} words = {bytes} bytes");
                    assert!(msg.contains(&named), "{msg}");
                }
                other => panic!("unexpected {:?}", other.map(|out| out.results)),
            }
        }
    }

    #[test]
    fn heap_exhaustion_panics_collectively() {
        let err = run_world(WorldConfig::virtual_time(2, 64), |ctx| {
            let _ = ctx.alloc_words(1_000_000);
        })
        .unwrap_err();
        match err {
            ShmemError::PePanicked { message, .. } => {
                assert!(message.contains("exhausted"), "{message}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[cfg(test)]
mod threaded_poison_tests {
    use super::*;

    #[test]
    fn threaded_pe_panic_is_reported_not_deadlocked() {
        let err = run_world(WorldConfig::threaded(3, 256), |ctx| {
            if ctx.my_pe() == 1 {
                panic!("deliberate test panic");
            }
            // Real threads really would block here forever without the
            // barrier poison.
            ctx.barrier_all();
        })
        .unwrap_err();
        match err {
            ShmemError::PePanicked { message, .. } => {
                assert!(
                    message.contains("deliberate") || message.contains("poisoned"),
                    "unexpected: {message}"
                );
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn threaded_panic_mid_barrier_sequence_releases_all() {
        // Peers are spread across different barrier generations when the
        // panic lands; every one of them must still unblock.
        let err = run_world(WorldConfig::threaded(4, 256), |ctx| {
            ctx.barrier_all();
            if ctx.my_pe() == 0 {
                panic!("boom after round one");
            }
            ctx.barrier_all();
            ctx.barrier_all();
        })
        .unwrap_err();
        match err {
            ShmemError::PePanicked { message, .. } => {
                assert!(
                    message.contains("boom") || message.contains("poisoned"),
                    "unexpected: {message}"
                );
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn threaded_early_exit_retires_from_barriers() {
        // A PE that returns early (the crash-stop exit path) is retired
        // from the barrier so survivors' collectives still complete.
        let out = run_world(WorldConfig::threaded(3, 256), |ctx| {
            if ctx.my_pe() == 2 {
                return 0u64;
            }
            ctx.barrier_all();
            ctx.barrier_all();
            1
        })
        .unwrap();
        assert_eq!(out.results, vec![1, 1, 0]);
    }

    #[test]
    fn threaded_panic_releases_peer_blocked_in_wait() {
        // A PE polling remote state that will never change must be
        // released by a peer's panic: its next op unwinds with the
        // poison, as a gated op on the serial executor does.
        let err = run_world(WorldConfig::threaded(2, 256), |ctx| {
            let a = ctx.alloc_words(1);
            if ctx.my_pe() == 1 {
                panic!("deliberate test panic");
            }
            // The flag is never set; only the poison can end this wait.
            while ctx.atomic_fetch(0, a) != 1 {
                std::hint::spin_loop();
            }
        })
        .unwrap_err();
        match err {
            ShmemError::PePanicked { message, .. } => {
                assert!(
                    message.contains("deliberate") || message.contains("poisoned"),
                    "unexpected: {message}"
                );
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn a_survivor_spinning_on_remote_ops_unwinds() {
        // PE 1 spins on remote ops of every shape and never reaches a
        // barrier; PE 0's panic must still end it, and the report names
        // PE 0's panic, not PE 1's poison unwind.
        let err = run_world(WorldConfig::threaded(2, 256), |ctx| {
            let a = ctx.alloc_words(2);
            if ctx.my_pe() == 0 {
                panic!("deliberate test panic");
            }
            loop {
                ctx.atomic_fetch_add(0, a, 1);
                ctx.put_words(0, a.offset(1), &[7]);
                ctx.get_words(0, a, &mut [0u64; 2]);
                std::thread::yield_now();
            }
        })
        .unwrap_err();
        match err {
            ShmemError::PePanicked { pe, message } => {
                assert_eq!(pe, 0, "the panicking PE is the one reported");
                assert!(message.contains("deliberate"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}

#[cfg(test)]
mod collective_tests {
    use super::*;

    #[test]
    fn repeated_collectives_do_not_interfere() {
        let out = run_world(WorldConfig::virtual_time(3, 512), |ctx| {
            let mut acc = Vec::new();
            for round in 0..4u64 {
                acc.push(ctx.reduce_sum_u64(round + ctx.my_pe() as u64));
                acc.push(ctx.reduce_max_u64(round * 10 + ctx.my_pe() as u64));
            }
            acc
        })
        .unwrap();
        for r in &out.results {
            assert_eq!(r, &out.results[0], "collectives agree on every PE");
        }
        // Round 2 sum: (2+0)+(2+1)+(2+2) = 9.
        assert_eq!(out.results[0][4], 9);
        // Round 3 max: 30+2 = 32.
        assert_eq!(out.results[0][7], 32);
    }
}

#[cfg(test)]
mod word_tests {
    use super::*;

    #[test]
    fn word_convenience_ops() {
        let out = run_world(WorldConfig::virtual_time(2, 256), |ctx| {
            let a = ctx.alloc_words(1);
            if ctx.my_pe() == 0 {
                ctx.put_word(1, a, 77);
            }
            ctx.barrier_all();
            let mut v = [0u64];
            ctx.get_words(1, a, &mut v);
            v[0]
        })
        .unwrap();
        assert_eq!(out.results, vec![77, 77]);
    }
}
