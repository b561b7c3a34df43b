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
//! Under fault injection this module also owns *quarantine*: a target
//! whose steals keep failing (past the retry budget) accumulates a
//! failure streak, and once the streak crosses the configured threshold
//! the thief stops attempting it altogether — the graceful-degradation
//! half of the fault model. A target reported down is quarantined
//! immediately. Quarantine is sticky for a batch run — a PE that failed
//! that persistently is treated as lost — but elastic membership
//! (service mode) calls [`DampingState::readmit`] when a parked PE
//! rejoins, so deliberate departures don't poison the victim pool.

/// Consecutive failed or aborted steals against one victim after which
/// a worker quarantines it (see [`DampingState::with_quarantine_after`]).
pub const QUARANTINE_AFTER: u32 = 8;

/// Per-target full/empty mode tracking for one thief.
pub struct DampingState {
    enabled: bool,
    /// `true` = empty-mode (probe before claiming).
    empty_mode: Vec<bool>,
    /// Consecutive empty observations needed to enter empty-mode.
    threshold: u32,
    /// Consecutive empty observations per target.
    empty_streak: Vec<u32>,
    /// Consecutive failed/aborted steals needed to quarantine a target;
    /// 0 disables streak-based quarantine (down targets still quarantine).
    quarantine_after: u32,
    /// Consecutive failed/aborted steals per target.
    failure_streak: Vec<u32>,
    /// Sticky per-target quarantine flags.
    quarantined: Vec<bool>,
}

impl DampingState {
    /// Damping for `n_pes` targets; `enabled = false` makes every check a
    /// no-op (the ablation configuration).
    pub fn new(n_pes: usize, enabled: bool) -> DampingState {
        DampingState {
            enabled,
            empty_mode: vec![false; n_pes],
            threshold: 1,
            empty_streak: vec![0; n_pes],
            quarantine_after: 0,
            failure_streak: vec![0; n_pes],
            quarantined: vec![false; n_pes],
        }
    }

    /// Require `k` consecutive empty observations before damping a target.
    #[must_use]
    pub fn with_threshold(mut self, k: u32) -> DampingState {
        self.threshold = k.max(1);
        self
    }

    /// Quarantine a target after `k` consecutive failed steals (0 keeps
    /// streak-based quarantine off). Quarantine tracking is independent
    /// of `enabled` — damping is a perf feature, quarantine a fault one.
    #[must_use]
    pub fn with_quarantine_after(mut self, k: u32) -> DampingState {
        self.quarantine_after = k;
        self
    }

    /// Should a steal against `target` start with a read-only probe?
    pub fn should_probe(&self, target: usize) -> bool {
        self.enabled && self.empty_mode[target]
    }

    /// Record that `target` was observed with no stealable work.
    pub fn observed_empty(&mut self, target: usize) {
        if !self.enabled {
            return;
        }
        self.empty_streak[target] = self.empty_streak[target].saturating_add(1);
        if self.empty_streak[target] >= self.threshold {
            self.empty_mode[target] = true;
        }
    }

    /// Record that `target` had (or yielded) work — return to full-mode
    /// and clear its failure streak (the PE is demonstrably alive).
    pub fn observed_work(&mut self, target: usize) {
        self.failure_streak[target] = 0;
        if !self.enabled {
            return;
        }
        self.empty_streak[target] = 0;
        self.empty_mode[target] = false;
    }

    /// Record a failed or aborted steal against `target`. Returns `true`
    /// when this failure pushes the target into quarantine (first time
    /// only — callers use it to update their victim pool exactly once).
    pub fn observed_failure(&mut self, target: usize) -> bool {
        self.failure_streak[target] = self.failure_streak[target].saturating_add(1);
        if self.quarantine_after > 0
            && self.failure_streak[target] >= self.quarantine_after
        {
            return self.quarantine(target);
        }
        false
    }

    /// Quarantine `target` unconditionally (a down PE). Returns `true`
    /// if it was not already quarantined.
    pub fn quarantine(&mut self, target: usize) -> bool {
        let newly = !self.quarantined[target];
        self.quarantined[target] = true;
        newly
    }

    /// Readmit `target` with a clean slate: quarantine flag, failure
    /// streak, and empty-mode state all cleared. Elastic membership uses
    /// this when a parked PE's away window ends — stale quarantine from
    /// its locked-queue period must not outlive the rejoin. Returns
    /// `true` if the target had been quarantined.
    pub fn readmit(&mut self, target: usize) -> bool {
        let was = self.quarantined[target];
        self.quarantined[target] = false;
        self.failure_streak[target] = 0;
        self.empty_streak[target] = 0;
        self.empty_mode[target] = false;
        was
    }

    /// Is `target` quarantined?
    pub fn is_quarantined(&self, target: usize) -> bool {
        self.quarantined[target]
    }

    /// Number of quarantined targets (for reporting).
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.iter().filter(|&&b| b).count()
    }

    /// Number of targets currently in empty-mode (for reporting).
    pub fn empty_mode_count(&self) -> usize {
        self.empty_mode.iter().filter(|&&b| b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enters_empty_mode_after_threshold() {
        let mut d = DampingState::new(4, true).with_threshold(2);
        assert!(!d.should_probe(1));
        d.observed_empty(1);
        assert!(!d.should_probe(1), "below threshold");
        d.observed_empty(1);
        assert!(d.should_probe(1), "at threshold");
        assert_eq!(d.empty_mode_count(), 1);
    }

    #[test]
    fn work_observation_restores_full_mode() {
        let mut d = DampingState::new(2, true);
        d.observed_empty(0);
        assert!(d.should_probe(0));
        d.observed_work(0);
        assert!(!d.should_probe(0));
        assert_eq!(d.empty_mode_count(), 0);
    }

    #[test]
    fn disabled_damping_never_probes() {
        let mut d = DampingState::new(3, false);
        for _ in 0..10 {
            d.observed_empty(2);
        }
        assert!(!d.should_probe(2));
        assert_eq!(d.empty_mode_count(), 0);
    }

    #[test]
    fn targets_are_independent() {
        let mut d = DampingState::new(3, true);
        d.observed_empty(0);
        assert!(d.should_probe(0));
        assert!(!d.should_probe(1));
        assert!(!d.should_probe(2));
    }

    #[test]
    fn failure_streak_quarantines_once() {
        let mut d = DampingState::new(4, false).with_quarantine_after(3);
        assert!(!d.observed_failure(1));
        assert!(!d.observed_failure(1));
        assert!(d.observed_failure(1), "third consecutive failure");
        assert!(d.is_quarantined(1));
        assert!(!d.observed_failure(1), "already quarantined");
        assert_eq!(d.quarantined_count(), 1);
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut d = DampingState::new(2, true).with_quarantine_after(2);
        assert!(!d.observed_failure(0));
        d.observed_work(0);
        assert!(!d.observed_failure(0), "streak was reset");
        assert!(d.observed_failure(0));
    }

    #[test]
    fn readmit_clears_quarantine_and_streaks() {
        let mut d = DampingState::new(3, true).with_quarantine_after(2);
        d.observed_empty(1);
        assert!(!d.observed_failure(1));
        assert!(d.observed_failure(1));
        assert!(d.is_quarantined(1) && d.should_probe(1));
        assert!(d.readmit(1), "was quarantined");
        assert!(!d.is_quarantined(1));
        assert!(!d.should_probe(1), "empty-mode cleared");
        // Streak restarts from zero: two fresh failures to re-quarantine.
        assert!(!d.observed_failure(1));
        assert!(d.observed_failure(1));
        assert!(!d.readmit(2), "never quarantined");
    }

    #[test]
    fn down_target_quarantines_immediately() {
        let mut d = DampingState::new(3, true);
        assert!(d.quarantine(2));
        assert!(!d.quarantine(2), "second call is not new");
        assert!(d.is_quarantined(2));
        // Streak-based quarantine stays off (quarantine_after = 0) …
        assert!(!d.observed_failure(1));
        assert!(!d.is_quarantined(1));
    }
}
