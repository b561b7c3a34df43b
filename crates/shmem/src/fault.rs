//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] is a seeded description of everything that will go
//! wrong during a run: transient *drops* (an op fails with
//! [`OpError::Retriable`](crate::OpError)), target-side *stall windows* (ops against the target time out while its virtual
//! clock is inside the window), and *crash-stop* points (a PE stops
//! executing at a virtual time; once it has drained in-flight protocol
//! state and marked itself down, every later op against it fails with
//! [`OpError::TargetDown`](crate::OpError)).
//!
//! The plan is attached to a [`WorldConfig`](crate::WorldConfig); each PE
//! gets a [`FaultInjector`] whose decisions are drawn from a per-PE
//! SplitMix64 stream of the plan seed. In virtual mode the whole schedule
//! is therefore a pure function of `(plan, workload)` — the same seed
//! replays the same faults at the same virtual instants, which is what the
//! chaos suite relies on.
//!
//! Fault decisions charge time but never apply the memory effect of a
//! failed op, mirroring a lost packet on a real RDMA fabric. Local
//! (same-PE) accesses and collectives are never injected: the model is a
//! faulty *network*, not faulty memory.

use crate::error::OpResult;
use crate::net::OpKind;
use crate::rng::SplitMix64;
use std::cell::RefCell;

/// Which operation kinds a rule applies to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Every remote operation.
    All,
    /// Blocking and strided gets.
    Gets,
    /// Exactly one operation kind.
    Kind(OpKind),
}

impl OpClass {
    /// Does this class cover `kind`?
    pub fn matches(self, kind: OpKind) -> bool {
        match self {
            OpClass::All => !matches!(kind, OpKind::Barrier | OpKind::Quiet),
            OpClass::Gets => matches!(kind, OpKind::Get),
            OpClass::Kind(k) => k == kind,
        }
    }
}

/// Which target PEs a rule applies to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TargetSel {
    /// Any remote target.
    Any,
    /// Only ops against one specific PE.
    Pe(usize),
}

impl TargetSel {
    fn matches(self, target: usize) -> bool {
        match self {
            TargetSel::Any => true,
            TargetSel::Pe(p) => p == target,
        }
    }
}

/// Transiently fail matching ops with probability `prob`.
#[derive(Copy, Clone, Debug)]
pub struct DropRule {
    /// Operation kinds covered.
    pub class: OpClass,
    /// Target PEs covered.
    pub target: TargetSel,
    /// Per-op failure probability in `[0, 1]`.
    pub prob: f64,
    /// Stop injecting after this many failures (`u64::MAX` = unlimited).
    pub max_failures: u64,
}

/// Make `pe` unresponsive for `[from_ns, from_ns + dur_ns)`: blocking ops
/// issued against it while the issuer's clock is inside the window fail
/// with [`OpError::Timeout`](crate::OpError).
#[derive(Copy, Clone, Debug)]
pub struct StallRule {
    /// The stalled PE.
    pub pe: usize,
    /// Window start (virtual ns; wall ns in threaded mode).
    pub from_ns: u64,
    /// Window length in nanoseconds.
    pub dur_ns: u64,
}

/// Crash-stop `pe` at virtual time `at_ns`: the PE stops taking new work
/// at its next idle point after `at_ns`, drains its steal-protocol state,
/// marks itself down, and exits. Ops against a down PE fail with
/// [`OpError::TargetDown`](crate::OpError).
#[derive(Copy, Clone, Debug)]
pub struct CrashRule {
    /// The crashing PE.
    pub pe: usize,
    /// Earliest virtual time the crash takes effect.
    pub at_ns: u64,
}

/// A complete, seeded fault schedule for one world.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for all probabilistic rules (per-PE streams are derived).
    pub seed: u64,
    /// Transient-failure rules.
    pub drops: Vec<DropRule>,
    /// Target unresponsiveness windows.
    pub stalls: Vec<StallRule>,
    /// Crash-stop points.
    pub crashes: Vec<CrashRule>,
}

/// Time charged to a blocking op that fails (models a detection
/// timeout), ns.
pub(crate) const FAILED_OP_TIMEOUT_NS: u64 = 20_000;

impl FaultPlan {
    /// An empty plan: injects nothing, and [`FaultPlan::is_active`] is
    /// false, so every protocol runs its fault-free fast path.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// An empty plan carrying a seed, ready for `with_*` builders.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Add an unlimited transient-failure rule.
    pub fn with_drop(mut self, class: OpClass, target: TargetSel, prob: f64) -> FaultPlan {
        self.drops.push(DropRule {
            class,
            target,
            prob,
            max_failures: u64::MAX,
        });
        self
    }

    /// Add a transient-failure rule capped at `max_failures` injections.
    pub fn with_drop_limited(
        mut self,
        class: OpClass,
        target: TargetSel,
        prob: f64,
        max_failures: u64,
    ) -> FaultPlan {
        self.drops.push(DropRule {
            class,
            target,
            prob,
            max_failures,
        });
        self
    }

    /// Add a stall window for `pe`.
    pub fn with_stall(mut self, pe: usize, from_ns: u64, dur_ns: u64) -> FaultPlan {
        self.stalls.push(StallRule { pe, from_ns, dur_ns });
        self
    }

    /// Add a crash-stop point for `pe`.
    pub fn with_crash(mut self, pe: usize, at_ns: u64) -> FaultPlan {
        self.crashes.push(CrashRule { pe, at_ns });
        self
    }

    /// Does this plan inject anything at all? Inactive plans leave every
    /// op count and protocol decision bit-identical to a world with no
    /// plan attached.
    pub fn is_active(&self) -> bool {
        !(self.drops.is_empty() && self.stalls.is_empty() && self.crashes.is_empty())
    }

    /// Earliest crash point scheduled for `pe`, if any.
    pub fn crash_at(&self, pe: usize) -> Option<u64> {
        self.crashes
            .iter()
            .filter(|c| c.pe == pe)
            .map(|c| c.at_ns)
            .min()
    }

    /// Is the issuer-side clock `now_ns` inside a stall window of
    /// `target`?
    pub fn target_stalled(&self, target: usize, now_ns: u64) -> bool {
        self.stalls
            .iter()
            .any(|s| s.pe == target && now_ns >= s.from_ns && now_ns < s.from_ns + s.dur_ns)
    }

    /// Check rule sanity against a world of `n_pes` PEs.
    pub fn validate(&self, n_pes: usize) -> Result<(), String> {
        for r in &self.drops {
            if !(0.0..=1.0).contains(&r.prob) {
                return Err(format!("drop probability {} outside [0, 1]", r.prob));
            }
            if let TargetSel::Pe(p) = r.target {
                if p >= n_pes {
                    return Err(format!("drop rule targets PE {p} of {n_pes}"));
                }
            }
        }
        for r in &self.stalls {
            if r.pe >= n_pes {
                return Err(format!("stall rule names PE {} of {n_pes}", r.pe));
            }
            if r.from_ns.checked_add(r.dur_ns).is_none() {
                return Err(format!(
                    "stall window of PE {} ends past the clock's range ({} + {} ns)",
                    r.pe, r.from_ns, r.dur_ns
                ));
            }
        }
        for r in &self.crashes {
            if r.pe >= n_pes {
                return Err(format!("crash rule names PE {} of {n_pes}", r.pe));
            }
        }
        Ok(())
    }
}

/// Retry policy for fallible one-sided ops: bounded attempts with
/// exponential backoff and multiplicative jitter. Backoff is charged as
/// compute time, so in virtual mode retries advance the clock and the
/// whole schedule stays deterministic.
#[derive(Copy, Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff_ns: u64,
    /// Backoff cap.
    pub max_backoff_ns: u64,
    /// Jitter as a percentage of the backoff (0–100).
    pub jitter_pct: u8,
}

impl RetryPolicy {
    /// Default policy for thieves: a handful of quick retries.
    pub fn default_thief() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ns: 2_000,
            max_backoff_ns: 64_000,
            jitter_pct: 50,
        }
    }

    /// No retries at all.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ns: 0,
            max_backoff_ns: 0,
            jitter_pct: 0,
        }
    }

    /// Backoff to charge before retry number `attempt` (1-based: the
    /// backoff after the first failure is `backoff_ns(1, ..)`). The
    /// exponential shift saturates and the *jittered* total is clamped to
    /// the ceiling `max(max_backoff_ns, base_backoff_ns)`, so no attempt
    /// count or parameter choice can overflow or produce an unbounded
    /// delay.
    pub fn backoff_ns(&self, attempt: u32, rng: &mut SplitMix64) -> u64 {
        let ceiling = self.max_backoff_ns.max(self.base_backoff_ns);
        let shift = attempt.saturating_sub(1).min(20);
        let base = self
            .base_backoff_ns
            .saturating_mul(1u64 << shift)
            .min(ceiling);
        if self.jitter_pct == 0 || base == 0 {
            return base;
        }
        // Uniform in [base, base + jitter_pct% of base], capped at the
        // ceiling. Saturating throughout: `base * pct` overflows u64 for
        // extreme policies (base near u64::MAX), and the draw must still
        // consume exactly one stream position whenever spread > 0 so
        // in-range policies keep their decision sequences.
        let spread = base.saturating_mul(self.jitter_pct as u64) / 100;
        let jittered = base.saturating_add(if spread > 0 {
            rng.below(spread.saturating_add(1))
        } else {
            0
        });
        jittered.min(ceiling)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::default_thief()
    }
}

/// Per-PE fault sampler. Drawn from a SplitMix64 stream of the plan seed
/// keyed by the issuing PE, so each PE's decision sequence depends only on
/// its own op sequence — deterministic under virtual time.
pub struct FaultInjector {
    plan: std::sync::Arc<FaultPlan>,
    rng: RefCell<SplitMix64>,
    drop_counts: RefCell<Vec<u64>>,
}

impl FaultInjector {
    pub(crate) fn new(plan: std::sync::Arc<FaultPlan>, pe: usize) -> FaultInjector {
        let rng = SplitMix64::stream(plan.seed, 0xFA17_0000 ^ pe as u64);
        let n_rules = plan.drops.len();
        FaultInjector {
            plan,
            rng: RefCell::new(rng),
            drop_counts: RefCell::new(vec![0; n_rules]),
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Sample the drop rules for one op: is it dropped (fails with
    /// `Retriable`, charged the timeout)? Target-down and stall checks
    /// happen later, inside the serialized (gated) window, where the
    /// issuer's clock and the target's down flag are exact.
    pub(crate) fn drops(&self, kind: OpKind, target: usize) -> bool {
        let mut rng = self.rng.borrow_mut();
        let mut counts = self.drop_counts.borrow_mut();
        for (i, r) in self.plan.drops.iter().enumerate() {
            if r.class.matches(kind) && r.target.matches(target) && counts[i] < r.max_failures {
                // Draw even when prob is 0/1 so rule sets with different
                // probabilities still consume identical stream positions.
                let hit = rng.chance(r.prob);
                if hit {
                    counts[i] += 1;
                    return true;
                }
            }
        }
        false
    }
}

/// Run `op` under `policy`, charging backoff between attempts via
/// `charge` (typically `|ns| ctx.compute(ns)`). Returns the first success,
/// or the last error once attempts are exhausted or a non-retriable error
/// (`TargetDown`) is seen. `on_retry` is invoked once per retry, letting
/// callers count retries in their stats.
pub fn retry_op<T>(
    policy: &RetryPolicy,
    rng: &mut SplitMix64,
    mut charge: impl FnMut(u64),
    mut on_retry: impl FnMut(),
    mut op: impl FnMut() -> OpResult<T>,
) -> OpResult<T> {
    let mut attempt = 1u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if !e.is_retriable() || attempt >= policy.max_attempts.max(1) => {
                return Err(e);
            }
            Err(_) => {
                let back = policy.backoff_ns(attempt, rng);
                if back > 0 {
                    charge(back);
                }
                on_retry();
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::OpError;
    use std::sync::Arc;

    #[test]
    fn op_class_matching() {
        assert!(OpClass::All.matches(OpKind::Get));
        assert!(!OpClass::All.matches(OpKind::Barrier));
        assert!(!OpClass::All.matches(OpKind::Quiet));
        assert!(OpClass::Gets.matches(OpKind::Get));
        assert!(OpClass::Kind(OpKind::Get).matches(OpKind::Get));
        assert!(!OpClass::Kind(OpKind::Get).matches(OpKind::Put));
    }

    #[test]
    fn empty_plan_is_inactive() {
        assert!(!FaultPlan::none().is_active());
        assert!(!FaultPlan::seeded(9).is_active());
        let p = FaultPlan::seeded(9).with_drop(OpClass::All, TargetSel::Any, 0.0);
        assert!(p.is_active(), "a rule with prob 0 still marks the plan active");
    }

    #[test]
    fn stall_window_bounds() {
        let p = FaultPlan::seeded(1).with_stall(2, 1_000, 500);
        assert!(!p.target_stalled(2, 999));
        assert!(p.target_stalled(2, 1_000));
        assert!(p.target_stalled(2, 1_499));
        assert!(!p.target_stalled(2, 1_500));
        assert!(!p.target_stalled(1, 1_200));
    }

    #[test]
    fn crash_at_takes_earliest() {
        let p = FaultPlan::seeded(1).with_crash(3, 9_000).with_crash(3, 4_000);
        assert_eq!(p.crash_at(3), Some(4_000));
        assert_eq!(p.crash_at(2), None);
    }

    #[test]
    fn validation_rejects_bad_rules() {
        assert!(FaultPlan::seeded(1)
            .with_drop(OpClass::All, TargetSel::Any, 1.5)
            .validate(4)
            .is_err());
        assert!(FaultPlan::seeded(1)
            .with_drop(OpClass::All, TargetSel::Pe(4), 0.1)
            .validate(4)
            .is_err());
        assert!(FaultPlan::seeded(1).with_crash(7, 100).validate(4).is_err());
        // A window whose end overflows would wrap (release) or panic
        // (debug) in `target_stalled`; the longest that fits is fine.
        assert!(FaultPlan::seeded(1).with_stall(1, 5, u64::MAX).validate(4).is_err());
        assert!(FaultPlan::seeded(1).with_stall(1, 5, u64::MAX - 5).validate(4).is_ok());
        assert!(FaultPlan::seeded(1)
            .with_drop(OpClass::All, TargetSel::Any, 0.5)
            .with_stall(1, 0, 100)
            .with_crash(3, 100)
            .validate(4)
            .is_ok());
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let plan = Arc::new(FaultPlan::seeded(77).with_drop(OpClass::All, TargetSel::Any, 0.3));
        let run = |pe: usize| {
            let inj = FaultInjector::new(plan.clone(), pe);
            (0..64)
                .map(|i| inj.drops(OpKind::Get, i % 4))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2), "streams differ across PEs");
        let drops = run(1).iter().filter(|&&d| d).count();
        assert!(drops > 5 && drops < 40, "drop rate plausible: {drops}");
    }

    #[test]
    fn drop_limit_caps_injections() {
        let plan = Arc::new(FaultPlan::seeded(5).with_drop_limited(
            OpClass::All,
            TargetSel::Any,
            1.0,
            3,
        ));
        let inj = FaultInjector::new(plan, 0);
        let drops = (0..100)
            .filter(|_| inj.drops(OpKind::Get, 1))
            .count();
        assert_eq!(drops, 3);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let pol = RetryPolicy {
            max_attempts: 10,
            base_backoff_ns: 1_000,
            max_backoff_ns: 8_000,
            jitter_pct: 0,
        };
        let mut rng = SplitMix64::new(1);
        assert_eq!(pol.backoff_ns(1, &mut rng), 1_000);
        assert_eq!(pol.backoff_ns(2, &mut rng), 2_000);
        assert_eq!(pol.backoff_ns(4, &mut rng), 8_000);
        assert_eq!(pol.backoff_ns(9, &mut rng), 8_000, "capped");
        let jit = RetryPolicy {
            jitter_pct: 50,
            ..pol
        };
        for a in 1..6 {
            let b = jit.backoff_ns(a, &mut rng);
            let base = (1_000u64 << (a - 1)).min(8_000);
            assert!(b >= base && b <= base + base / 2, "jitter in range: {b}");
        }
    }

    #[test]
    fn backoff_saturates_at_high_attempt_counts() {
        // Service-mode soaks can push attempt counts far past the shift
        // range; the backoff must stay pinned at the ceiling, never wrap.
        let pol = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff_ns: 2_000,
            max_backoff_ns: 64_000,
            jitter_pct: 50,
        };
        let mut rng = SplitMix64::new(3);
        for attempt in [21, 64, 1_000, 1_000_000, u32::MAX] {
            let b = pol.backoff_ns(attempt, &mut rng);
            assert!(
                b == pol.max_backoff_ns,
                "attempt {attempt}: backoff {b} escaped the ceiling"
            );
        }
    }

    #[test]
    fn backoff_extreme_policies_never_overflow() {
        // Degenerate policies (huge bases, huge ceilings, full jitter)
        // must clamp via saturating arithmetic instead of panicking in
        // debug builds or wrapping in release builds.
        let mut rng = SplitMix64::new(4);
        let extreme = [
            RetryPolicy {
                max_attempts: 8,
                base_backoff_ns: u64::MAX,
                max_backoff_ns: u64::MAX,
                jitter_pct: 100,
            },
            RetryPolicy {
                max_attempts: 8,
                base_backoff_ns: u64::MAX / 2 + 1,
                max_backoff_ns: 0, // ceiling falls back to the base
                jitter_pct: 99,
            },
            RetryPolicy {
                max_attempts: 8,
                base_backoff_ns: 1,
                max_backoff_ns: u64::MAX,
                jitter_pct: 100,
            },
        ];
        for pol in extreme {
            let ceiling = pol.max_backoff_ns.max(pol.base_backoff_ns);
            for attempt in [1, 2, 20, 63, 64, 65, u32::MAX] {
                let b = pol.backoff_ns(attempt, &mut rng);
                assert!(b <= ceiling, "backoff {b} above ceiling {ceiling}");
            }
        }
    }

    #[test]
    fn retry_op_retries_then_succeeds() {
        let pol = RetryPolicy::default_thief();
        let mut rng = SplitMix64::new(2);
        let mut charged = 0u64;
        let mut retries = 0u32;
        let mut failures_left = 2;
        let r = retry_op(
            &pol,
            &mut rng,
            |ns| charged += ns,
            || retries += 1,
            || {
                if failures_left > 0 {
                    failures_left -= 1;
                    Err(OpError::Retriable {
                        kind: OpKind::Get,
                        target: 1,
                    })
                } else {
                    Ok(42)
                }
            },
        );
        assert_eq!(r, Ok(42));
        assert_eq!(retries, 2);
        assert!(charged >= 2 * pol.base_backoff_ns);
    }

    #[test]
    fn retry_op_gives_up_and_respects_fatal() {
        let pol = RetryPolicy {
            max_attempts: 3,
            base_backoff_ns: 10,
            max_backoff_ns: 100,
            jitter_pct: 0,
        };
        let mut rng = SplitMix64::new(2);
        let mut calls = 0;
        let r: OpResult<u64> = retry_op(
            &pol,
            &mut rng,
            |_| {},
            || {},
            || {
                calls += 1;
                Err(OpError::Retriable {
                    kind: OpKind::Get,
                    target: 1,
                })
            },
        );
        assert!(r.is_err());
        assert_eq!(calls, 3);

        calls = 0;
        let r: OpResult<u64> = retry_op(
            &pol,
            &mut rng,
            |_| {},
            || {},
            || {
                calls += 1;
                Err(OpError::TargetDown {
                    kind: OpKind::Get,
                    target: 1,
                })
            },
        );
        assert!(matches!(r, Err(OpError::TargetDown { .. })));
        assert_eq!(calls, 1, "TargetDown is not retried");
    }
}
