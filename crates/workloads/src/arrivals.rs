//! Open-world arrival plans for service mode.
//!
//! A batch run seeds a closed workload; a service run injects tasks over
//! (virtual) time from designated ingress PEs. This module provides the
//! arrival-time generators — all seeded and deterministic in virtual
//! time, so a service run replays bit-for-bit — plus two service
//! workloads built on them:
//!
//! * [`FlatServe`] — every arrival is one synthetic flat task of fixed
//!   cost: the queueing-theory baseline (an M/G/k-ish system under the
//!   Poisson pattern) for admission/backpressure and latency-SLO
//!   studies;
//! * [`UtsServe`] — every arrival is the root of a UTS subtree: each
//!   admission detonates into an unpredictable burst of work, the
//!   irregular-service stress test (dissemination via work stealing is
//!   doing the load balancing between waves).
//!
//! Patterns: Poisson (exponential gaps), bursty (periodic back-to-back
//! bursts — forces the high-water mark), diurnal (exponential gaps whose
//! mean swings along a triangle wave — slow load waves), and an explicit
//! replayable trace.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sws_sched::{ArrivalSource, ServiceWorkload, TaskCtx, Workload};
use sws_shmem::rng::SplitMix64;
use sws_task::{PayloadReader, PayloadWriter, TaskDescriptor, TaskRegistry};

use crate::sha1::{spawn_child, DIGEST_BYTES};
use crate::uts::{UtsParams, UtsWorkload};

/// Task function id for [`FlatServe`] arrivals.
pub const FLAT_SERVE_FN: u16 = 40;
/// Task function id for [`UtsServe`] subtree-root arrivals.
pub const UTS_SERVE_FN: u16 = 41;

/// The shape of an arrival process (times only; tasks come from the
/// workload).
#[derive(Clone, Debug)]
pub enum ArrivalPattern {
    /// Exponential inter-arrival gaps with the given mean: the memoryless
    /// (Poisson-process) open-world baseline.
    Poisson {
        /// Mean gap between arrivals, virtual ns.
        mean_gap_ns: u64,
    },
    /// Every `period_ns`, a burst of `burst` arrivals spaced `gap_ns`
    /// apart — designed to slam the admission high-water mark.
    Bursty {
        /// Arrivals per burst.
        burst: u32,
        /// Spacing inside a burst, ns.
        gap_ns: u64,
        /// Burst period, ns (must exceed `burst * gap_ns` to idle
        /// between bursts).
        period_ns: u64,
    },
    /// Exponential gaps whose mean follows a triangle wave between
    /// `base_gap_ns * (100 - amplitude_pct) / 100` (peak load) and
    /// `base_gap_ns * (100 + amplitude_pct) / 100` (trough), with the
    /// given period: a compressed day/night load cycle.
    Diurnal {
        /// Mid-cycle mean gap, ns.
        base_gap_ns: u64,
        /// Full wave period, ns.
        period_ns: u64,
        /// Swing around the base gap, percent (0..100).
        amplitude_pct: u32,
    },
    /// Explicit absolute arrival times (ns, sorted ascending), replayed
    /// verbatim on every ingress PE.
    Trace(Vec<u64>),
}

/// A seeded arrival plan: pattern, horizon, and per-ingress-PE streams.
#[derive(Clone, Debug)]
pub struct ArrivalPlan {
    /// Timing pattern.
    pub pattern: ArrivalPattern,
    /// Base RNG seed; each ingress PE derives stream `seed ^ pe`.
    pub seed: u64,
    /// Virtual time of the first possible arrival.
    pub start_ns: u64,
    /// Arrivals at or past `start_ns + horizon_ns` are cut off — the
    /// plan is finite so the service can quiesce and shut down.
    pub horizon_ns: u64,
}

impl ArrivalPlan {
    /// A Poisson plan over `[start, start + horizon)`.
    pub fn poisson(seed: u64, mean_gap_ns: u64, horizon_ns: u64) -> ArrivalPlan {
        ArrivalPlan {
            pattern: ArrivalPattern::Poisson { mean_gap_ns },
            seed,
            start_ns: 0,
            horizon_ns,
        }
    }

    /// The generator of due times for ingress PE `pe`.
    pub fn clock(&self, pe: usize) -> ArrivalClock {
        ArrivalClock::new(self, pe)
    }
}

/// Lazily generates one ingress PE's arrival times from a plan.
/// Deterministic: the same plan and PE always yield the same stream.
pub struct ArrivalClock {
    pattern: ArrivalPattern,
    rng: SplitMix64,
    start_ns: u64,
    end_ns: u64,
    /// Next due time (absolute ns), if already generated.
    pending: Option<u64>,
    /// Arrivals generated so far (drives bursty/trace indexing).
    index: u64,
    /// Last generated due time (gap patterns accumulate from here).
    last_ns: u64,
    exhausted: bool,
}

impl ArrivalClock {
    fn new(plan: &ArrivalPlan, pe: usize) -> ArrivalClock {
        ArrivalClock {
            pattern: plan.pattern.clone(),
            rng: SplitMix64::stream(plan.seed, 0xA881_0000 ^ pe as u64),
            start_ns: plan.start_ns,
            end_ns: plan.start_ns.saturating_add(plan.horizon_ns),
            pending: None,
            index: 0,
            last_ns: plan.start_ns,
            exhausted: false,
        }
    }

    /// Exponential draw with the given mean (inverse CDF on a uniform in
    /// (0, 1]), clamped to at least 1 ns so streams always advance.
    fn exp_gap(rng: &mut SplitMix64, mean_ns: u64) -> u64 {
        let u = 1.0 - rng.f64(); // (0, 1]
        ((-u.ln()) * mean_ns as f64).max(1.0) as u64
    }

    fn generate(&mut self) -> Option<u64> {
        let due = match &self.pattern {
            ArrivalPattern::Poisson { mean_gap_ns } => self
                .last_ns
                .saturating_add(Self::exp_gap(&mut self.rng, (*mean_gap_ns).max(1))),
            ArrivalPattern::Bursty {
                burst,
                gap_ns,
                period_ns,
            } => {
                let burst = (*burst).max(1) as u64;
                let wave = self.index / burst;
                let pos = self.index % burst;
                self.start_ns
                    .saturating_add(wave.saturating_mul((*period_ns).max(1)))
                    .saturating_add(pos.saturating_mul(*gap_ns))
            }
            ArrivalPattern::Diurnal {
                base_gap_ns,
                period_ns,
                amplitude_pct,
            } => {
                let period = (*period_ns).max(2);
                let amp = (*amplitude_pct).min(99) as u64;
                // Triangle wave in [-amp, +amp] percent over the period.
                let phase = self.last_ns.wrapping_sub(self.start_ns) % period;
                let half = period / 2;
                let swing = if phase < half {
                    // Rising: -amp → +amp.
                    (2 * amp * phase / half.max(1)) as i64 - amp as i64
                } else {
                    amp as i64 - (2 * amp * (phase - half) / half.max(1)) as i64
                };
                let mean = ((*base_gap_ns).max(1) as i64 * (100 + swing) / 100).max(1) as u64;
                self.last_ns
                    .saturating_add(Self::exp_gap(&mut self.rng, mean))
            }
            ArrivalPattern::Trace(times) => *times.get(self.index as usize)?,
        };
        if due >= self.end_ns {
            return None;
        }
        self.index += 1;
        self.last_ns = due;
        Some(due)
    }

    /// Peek the next due time without consuming it.
    pub fn peek(&mut self) -> Option<u64> {
        if self.exhausted {
            return None;
        }
        if self.pending.is_none() {
            self.pending = self.generate();
            if self.pending.is_none() {
                self.exhausted = true;
            }
        }
        self.pending
    }

    /// Consume the pending due time.
    pub fn take(&mut self) -> Option<u64> {
        let due = self.peek();
        self.pending = None;
        due
    }
}

// ---------------------------------------------------------------------
// FlatServe: one fixed-cost task per arrival
// ---------------------------------------------------------------------

/// Service workload where each arrival is a single flat task of fixed
/// cost — the controllable baseline for admission and latency studies.
pub struct FlatServe {
    /// Arrival plan (per ingress PE).
    pub plan: ArrivalPlan,
    /// Compute cost per task, virtual ns.
    pub task_ns: u64,
    /// Ingress PE count (ranks `0..n_ingress`).
    pub n_ingress: usize,
    completed: Arc<AtomicU64>,
}

impl FlatServe {
    /// Flat service workload over `plan`.
    pub fn new(plan: ArrivalPlan, task_ns: u64, n_ingress: usize) -> FlatServe {
        FlatServe {
            plan,
            task_ns,
            n_ingress,
            completed: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Tasks completed across all PEs (in-process instrumentation).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }
}

struct FlatSource {
    clock: ArrivalClock,
    task_ns: u64,
}

impl ArrivalSource for FlatSource {
    fn next_due_ns(&mut self) -> Option<u64> {
        self.clock.peek()
    }

    fn pop(&mut self, inject_ns: u64) -> TaskDescriptor {
        let _ = self.clock.take();
        let mut w = PayloadWriter::new();
        w.u64(inject_ns).u64(self.task_ns);
        TaskDescriptor::new(FLAT_SERVE_FN, w.as_slice())
    }
}

impl Workload for FlatServe {
    fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>) {
        let completed = Arc::clone(&self.completed);
        reg.register(FLAT_SERVE_FN, move |tctx, payload| {
            let mut r = PayloadReader::new(payload);
            let inject_ns = r.u64();
            let task_ns = r.u64();
            tctx.mark_arrival(inject_ns);
            tctx.compute(task_ns);
            completed.fetch_add(1, Ordering::Relaxed);
        });
    }

    fn seeds(&self, _pe: usize, _n_pes: usize) -> Vec<TaskDescriptor> {
        Vec::new() // open world: all work arrives over time
    }
}

impl ServiceWorkload for FlatServe {
    fn n_ingress(&self, n_pes: usize) -> usize {
        self.n_ingress.clamp(1, n_pes)
    }

    fn arrival_source(&self, pe: usize, n_pes: usize) -> Option<Box<dyn ArrivalSource>> {
        (pe < self.n_ingress(n_pes)).then(|| {
            Box::new(FlatSource {
                clock: self.plan.clock(pe),
                task_ns: self.task_ns,
            }) as Box<dyn ArrivalSource>
        })
    }
}

// ---------------------------------------------------------------------
// UtsServe: one UTS subtree per arrival
// ---------------------------------------------------------------------

/// Service workload where each arrival detonates into a UTS subtree:
/// arrival `i` on ingress PE `p` roots the deterministic subtree
/// `SHA1(SHA1(root ‖ p) ‖ i)` at depth [`UtsServe::root_depth`], so the
/// amount of admitted work per arrival is wildly variable — the
/// irregular-service stress test.
pub struct UtsServe {
    /// Arrival plan (per ingress PE).
    pub plan: ArrivalPlan,
    /// Depth injected subtree roots claim to be at; deeper roots mean
    /// smaller (but still unpredictable) subtrees.
    pub root_depth: u32,
    /// Ingress PE count (ranks `0..n_ingress`).
    pub n_ingress: usize,
    inner: UtsWorkload,
}

impl UtsServe {
    /// UTS service workload over `plan`.
    pub fn new(
        params: UtsParams,
        plan: ArrivalPlan,
        root_depth: u32,
        n_ingress: usize,
    ) -> UtsServe {
        UtsServe {
            plan,
            root_depth,
            n_ingress,
            inner: UtsWorkload::new(params),
        }
    }

    /// Tree nodes visited across all PEs (subtree roots included).
    pub fn nodes_visited(&self) -> u64 {
        self.inner.nodes_visited()
    }
}

struct UtsSource {
    clock: ArrivalClock,
    pe_base: [u8; DIGEST_BYTES],
    root_depth: u32,
    next_index: u32,
}

impl ArrivalSource for UtsSource {
    fn next_due_ns(&mut self) -> Option<u64> {
        self.clock.peek()
    }

    fn pop(&mut self, inject_ns: u64) -> TaskDescriptor {
        let _ = self.clock.take();
        let state = spawn_child(&self.pe_base, self.next_index);
        self.next_index = self.next_index.wrapping_add(1);
        let mut w = PayloadWriter::new();
        w.u64(inject_ns).bytes(&state).u32(self.root_depth);
        TaskDescriptor::new(UTS_SERVE_FN, w.as_slice())
    }
}

impl Workload for UtsServe {
    fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>) {
        // Ordinary UTS node tasks handle everything below the roots.
        self.inner.register(reg);
        let table = Arc::clone(self.inner.child_table());
        let node_ns = self.inner.params().node_ns;
        reg.register(UTS_SERVE_FN, move |tctx, payload| {
            let mut r = PayloadReader::new(payload);
            let inject_ns = r.u64();
            let state: [u8; DIGEST_BYTES] = r.bytes();
            let depth = r.u32();
            // The latency sample covers the root visit only — children
            // are tracked by the ordinary UTS machinery. One sample per
            // admitted arrival keeps conservation countable.
            tctx.mark_arrival(inject_ns);
            let n = table.num_children(&state, depth);
            tctx.compute(node_ns + n as u64 * node_ns / 2);
            for i in 0..n {
                tctx.spawn(UtsParams::node_task(&spawn_child(&state, i), depth + 1));
            }
        });
    }

    fn seeds(&self, _pe: usize, _n_pes: usize) -> Vec<TaskDescriptor> {
        Vec::new()
    }
}

impl ServiceWorkload for UtsServe {
    fn n_ingress(&self, n_pes: usize) -> usize {
        self.n_ingress.clamp(1, n_pes)
    }

    fn arrival_source(&self, pe: usize, n_pes: usize) -> Option<Box<dyn ArrivalSource>> {
        (pe < self.n_ingress(n_pes)).then(|| {
            Box::new(UtsSource {
                clock: self.plan.clock(pe),
                pe_base: spawn_child(&self.inner.params().root(), pe as u32),
                root_depth: self.root_depth,
                next_index: 0,
            }) as Box<dyn ArrivalSource>
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(plan: &ArrivalPlan, pe: usize, max: usize) -> Vec<u64> {
        let mut clock = plan.clock(pe);
        let mut out = Vec::new();
        while out.len() < max {
            match clock.take() {
                Some(t) => out.push(t),
                None => break,
            }
        }
        out
    }

    #[test]
    fn poisson_streams_are_deterministic_and_distinct_per_pe() {
        let plan = ArrivalPlan::poisson(7, 10_000, 10_000_000);
        let a = collect(&plan, 0, 100);
        let b = collect(&plan, 0, 100);
        assert_eq!(a, b, "same plan, same PE, same stream");
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
        let c = collect(&plan, 1, 100);
        assert_ne!(a, c, "per-PE streams decorrelate");
    }

    #[test]
    fn poisson_mean_gap_is_roughly_right() {
        let plan = ArrivalPlan::poisson(3, 5_000, u64::MAX / 2);
        let times = collect(&plan, 0, 2001);
        let gaps: Vec<u64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!(
            (3_500.0..6_500.0).contains(&mean),
            "mean gap {mean} vs requested 5000"
        );
    }

    #[test]
    fn horizon_cuts_the_stream() {
        let plan = ArrivalPlan::poisson(1, 1_000, 50_000);
        let times = collect(&plan, 0, 10_000);
        assert!(times.iter().all(|&t| t < 50_000));
        let mut clock = plan.clock(0);
        for _ in &times {
            clock.take();
        }
        assert_eq!(clock.peek(), None, "exhausted at the horizon");
    }

    #[test]
    fn bursty_pattern_repeats_with_period() {
        let plan = ArrivalPlan {
            pattern: ArrivalPattern::Bursty {
                burst: 3,
                gap_ns: 10,
                period_ns: 1_000,
            },
            seed: 0,
            start_ns: 500,
            horizon_ns: 3_000,
        };
        let times = collect(&plan, 0, 100);
        assert_eq!(
            times,
            vec![500, 510, 520, 1500, 1510, 1520, 2500, 2510, 2520],
        );
    }

    #[test]
    fn diurnal_load_swings_between_half_periods() {
        let plan = ArrivalPlan {
            pattern: ArrivalPattern::Diurnal {
                base_gap_ns: 1_000,
                period_ns: 2_000_000,
                amplitude_pct: 90,
            },
            seed: 11,
            start_ns: 0,
            horizon_ns: 2_000_000,
        };
        let times = collect(&plan, 0, usize::MAX);
        // Gaps trough (fast arrivals) at phase 0 and crest (slow) at
        // period/2, so the outer quarters of the period must hold
        // clearly more arrivals than the middle half.
        let middle = times
            .iter()
            .filter(|&&t| (500_000..1_500_000).contains(&t))
            .count();
        let outer = times.len() - middle;
        assert!(middle > 0 && outer > 0);
        assert!(
            outer as f64 / middle as f64 > 1.3,
            "no diurnal skew: outer {outer} vs middle {middle}"
        );
    }

    #[test]
    fn trace_replays_verbatim() {
        let plan = ArrivalPlan {
            pattern: ArrivalPattern::Trace(vec![10, 20, 20, 99]),
            seed: 0,
            start_ns: 0,
            horizon_ns: 1_000,
        };
        assert_eq!(collect(&plan, 0, 10), vec![10, 20, 20, 99]);
        assert_eq!(
            collect(&plan, 3, 10),
            vec![10, 20, 20, 99],
            "same on every PE"
        );
    }

    #[test]
    fn flat_source_descriptors_roundtrip() {
        let plan = ArrivalPlan::poisson(5, 1_000, 100_000);
        let fs = FlatServe::new(plan, 700, 2);
        let mut src = fs.arrival_source(0, 4).expect("pe 0 is ingress");
        assert!(fs.arrival_source(2, 4).is_none(), "pe 2 is not ingress");
        assert!(fs.arrival_source(0, 1).is_some(), "clamped to world size");
        let due = src.next_due_ns().expect("plan is non-empty");
        let t = src.pop(due);
        assert_eq!(t.fn_id(), FLAT_SERVE_FN);
        let mut r = PayloadReader::new(t.payload());
        assert_eq!(r.u64(), due);
        assert_eq!(r.u64(), 700);
        let due2 = src.next_due_ns().expect("more arrivals");
        assert!(due2 >= due, "non-decreasing");
    }

    #[test]
    fn uts_source_roots_are_distinct_per_arrival_and_pe() {
        let plan = ArrivalPlan::poisson(9, 1_000, 1_000_000);
        let us = UtsServe::new(UtsParams::geo_small(6), plan, 2, 2);
        let mut a = us.arrival_source(0, 4).expect("ingress");
        let mut b = us.arrival_source(1, 4).expect("ingress");
        let mut states = std::collections::HashSet::new();
        for src in [&mut a, &mut b] {
            for _ in 0..5 {
                let due = src.next_due_ns().expect("arrivals");
                let t = src.pop(due);
                assert_eq!(t.fn_id(), UTS_SERVE_FN);
                let mut r = PayloadReader::new(t.payload());
                let _inject = r.u64();
                let state: [u8; DIGEST_BYTES] = r.bytes();
                assert_eq!(r.u32(), 2, "root depth");
                states.insert(state);
            }
        }
        assert_eq!(states.len(), 10, "all subtree roots distinct");
    }

    #[test]
    fn uts_serve_handlers_share_the_inner_workloads_table() {
        let plan = ArrivalPlan::poisson(9, 1_000, 1_000_000);
        let us = UtsServe::new(UtsParams::geo_small(6), plan, 2, 2);
        let mut reg: TaskRegistry<TaskCtx> = TaskRegistry::new();
        us.register(&mut reg);
        // The node handler and the root handler, no table of their own.
        assert_eq!(Arc::strong_count(us.inner.child_table()), 3);
    }
}
