//! Steal damping (paper §4.3).
//!
//! Every claiming fetch-add against an exhausted queue still bumps its
//! 24-bit asteals counter; after ~16.7 M fruitless attempts the counter
//! would wrap and make the queue look refilled. Damping prevents that:
//! once a target is observed empty it enters *empty-mode*, and further
//! attempts against it start with a read-only probe — only if the probe
//! shows fresh work does the thief return the target to *full-mode* and
//! risk a claiming fetch-add.
//!
//! The paper found damping costs nothing measurable when overflow is far
//! away; the `ablation_damping` bench reproduces that claim.
//!
//! Under fault injection this module also tracks the *failure streak*
//! that feeds quarantine: a target whose steals keep failing (past the
//! retry budget) accumulates a streak, and once it reaches
//! [`QUARANTINE_AFTER`] the worker excludes the target from its victim
//! pool — the graceful-degradation half of the fault model. Which
//! targets *are* quarantined is recorded in one place, the
//! [`crate::victim::VictimSelector`] exclusion set. Elastic membership
//! (service mode) calls [`DampingState::readmit`] when a parked PE
//! rejoins, so deliberate departures don't poison the victim pool.

use crate::victim::Bits;

/// Consecutive failed or aborted steals against one victim after which
/// a worker quarantines it.
pub const QUARANTINE_AFTER: u32 = 8;

/// Per-target full/empty mode and failure-streak tracking for one thief.
pub struct DampingState {
    enabled: bool,
    /// Set = empty-mode (probe before claiming).
    empty_mode: Bits,
    /// Consecutive failed/aborted steals per target. Tracked whether or
    /// not damping is enabled — damping is a perf feature, quarantine a
    /// fault one — and empty until the first failure: only fault plans
    /// ever produce one.
    failure_streak: Vec<u32>,
}

impl DampingState {
    /// Damping for `n_pes` targets; `enabled = false` makes every
    /// empty-mode check a no-op (the ablation configuration).
    pub fn new(n_pes: usize, enabled: bool) -> DampingState {
        DampingState {
            enabled,
            empty_mode: Bits::new(n_pes),
            failure_streak: Vec::new(),
        }
    }

    /// Should a steal against `target` start with a read-only probe?
    pub fn should_probe(&self, target: usize) -> bool {
        self.enabled && self.empty_mode.get(target)
    }

    /// Record that `target` was observed with no stealable work: it
    /// enters empty-mode.
    pub fn observed_empty(&mut self, target: usize) {
        if self.enabled {
            self.empty_mode.set(target, true);
        }
    }

    /// Record that `target` had (or yielded) work — return to full-mode
    /// and clear its failure streak (the PE is demonstrably alive).
    pub fn observed_work(&mut self, target: usize) {
        if let Some(streak) = self.failure_streak.get_mut(target) {
            *streak = 0;
        }
        self.empty_mode.set(target, false);
    }

    /// Record a failed or aborted steal against `target`. Returns `true`
    /// once its streak has reached [`QUARANTINE_AFTER`] — the caller
    /// quarantines it.
    pub fn observed_failure(&mut self, target: usize) -> bool {
        if self.failure_streak.len() <= target {
            self.failure_streak.resize(target + 1, 0);
        }
        let streak = &mut self.failure_streak[target];
        *streak = streak.saturating_add(1);
        *streak >= QUARANTINE_AFTER
    }

    /// Readmit `target` with a clean slate: failure streak and empty-mode
    /// state cleared. Elastic membership uses this when a parked PE's
    /// away window ends — stale state from its locked-queue period must
    /// not outlive the rejoin.
    pub fn readmit(&mut self, target: usize) {
        self.observed_work(target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::victim::{VictimPolicy, VictimSelector};

    #[test]
    fn enters_empty_mode_after_threshold() {
        let mut d = DampingState::new(4, true);
        assert!(!d.should_probe(1));
        d.observed_empty(1);
        assert!(d.should_probe(1), "one empty observation is the threshold");
    }

    #[test]
    fn work_observation_restores_full_mode() {
        let mut d = DampingState::new(2, true);
        d.observed_empty(0);
        assert!(d.should_probe(0));
        d.observed_work(0);
        assert!(!d.should_probe(0));
    }

    #[test]
    fn disabled_damping_never_probes() {
        let mut d = DampingState::new(3, false);
        for _ in 0..10 {
            d.observed_empty(2);
        }
        assert!(!d.should_probe(2));
    }

    #[test]
    fn targets_are_independent() {
        let mut d = DampingState::new(3, true);
        d.observed_empty(0);
        assert!(d.should_probe(0));
        assert!(!d.should_probe(1));
        assert!(!d.should_probe(2));
    }

    /// The streak and the selector's exclusion set together, as the
    /// worker composes them: the target is quarantined exactly once.
    #[test]
    fn failure_streak_quarantines_once() {
        let mut d = DampingState::new(4, false);
        let mut pool = VictimSelector::with_policy(7, 0, 4, VictimPolicy::Uniform);
        let mut quarantines = 0;
        for n in 1..=QUARANTINE_AFTER + 2 {
            let crossed = d.observed_failure(1);
            assert_eq!(crossed, n >= QUARANTINE_AFTER, "failure {n}");
            if crossed && pool.exclude(1) {
                quarantines += 1;
            }
        }
        assert_eq!(quarantines, 1);
        assert_eq!(pool.live_victims(), 2);
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut d = DampingState::new(2, true);
        for _ in 1..QUARANTINE_AFTER {
            assert!(!d.observed_failure(0));
        }
        d.observed_work(0);
        assert!(!d.observed_failure(0), "streak was reset");
    }

    #[test]
    fn readmit_clears_quarantine_and_streaks() {
        let mut d = DampingState::new(3, true);
        d.observed_empty(1);
        for _ in 1..QUARANTINE_AFTER {
            assert!(!d.observed_failure(1));
        }
        assert!(d.observed_failure(1));
        assert!(d.should_probe(1));
        d.readmit(1);
        assert!(!d.should_probe(1), "empty-mode cleared");
        // Streak restarts from zero: a fresh failure is the first again.
        assert!(!d.observed_failure(1));
    }
}
