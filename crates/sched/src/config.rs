//! Scheduler configuration.

use sws_core::QueueConfig;

use crate::victim::VictimPolicy;

/// Which queue implementation a run uses.
pub use sws_core::Protocol as QueueKind;

/// Scheduler parameters.
#[derive(Copy, Clone, Debug)]
pub struct SchedConfig {
    /// Queue shape (capacity, task size, stealval layout).
    pub queue: QueueConfig,
    /// Queue implementation.
    pub kind: QueueKind,
    /// Base RNG seed; each PE derives its own stream from it.
    pub seed: u64,
    /// Steal damping (§4.3): probe empty-mode targets read-only before
    /// risking a claiming fetch-add.
    pub damping: bool,
    /// Victim selection policy.
    pub victim: VictimPolicy,
    /// Record per-PE scheduler events — release, acquire, idle,
    /// quarantine, crash-stop (see [`crate::trace`]); steal attempts are
    /// in the capture's spans. Off by default. `sws-run` sets it for
    /// `--timeline` and `--trace-out`.
    pub trace: bool,
    /// Tasks executed between progress (completion-reclaim) calls.
    pub progress_interval: u64,
    /// Steal-span sampling period: with proto capture armed and
    /// `sample_period > 1`, only a seeded, deterministic 1-in-N subset
    /// of steal *attempts* opens the capture window (see
    /// `ShmemCtx::set_capture_window`), so span stitching sees a
    /// statistically representative sample at 1/N of the capture cost.
    /// `0` or `1` = capture everything (the pre-sampling behavior).
    pub sample_period: u32,
}

impl SchedConfig {
    /// Defaults matching the paper's final configuration: completion
    /// epochs and — for SWS only — steal damping (§4.3 exists to protect
    /// SWS's asteals counter; the paper's SDC baseline has no damped
    /// probe mode).
    pub fn new(kind: QueueKind, queue: QueueConfig) -> SchedConfig {
        SchedConfig {
            queue,
            kind,
            seed: 0x5EED_0F57_5753_5300,
            damping: kind == QueueKind::Sws,
            victim: VictimPolicy::Uniform,
            trace: false,
            progress_interval: 64,
            sample_period: 0,
        }
    }

    /// Set the steal-span sampling period (capture 1-in-N attempts).
    #[must_use]
    pub fn with_sample_period(mut self, n: u32) -> SchedConfig {
        self.sample_period = n;
        self
    }

    /// Override the base seed (used for run-variation studies).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> SchedConfig {
        self.seed = seed;
        self
    }

    /// Enable/disable steal damping.
    #[must_use]
    pub fn with_damping(mut self, on: bool) -> SchedConfig {
        self.damping = on;
        self
    }

    /// Select the victim policy.
    #[must_use]
    pub fn with_victim(mut self, victim: VictimPolicy) -> SchedConfig {
        self.victim = victim;
        self
    }

    /// Override the progress (completion-reclaim) interval. Shorter
    /// intervals exercise the reclaim paths on small workloads — the
    /// conformance matrix uses this so reclaim sites appear in traces.
    #[must_use]
    pub fn with_progress_interval(mut self, tasks: u64) -> SchedConfig {
        self.progress_interval = tasks;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = SchedConfig::new(QueueKind::Sws, QueueConfig::new(128, 24))
            .with_seed(7)
            .with_damping(false);
        assert_eq!(c.seed, 7);
        assert!(!c.damping);
        assert_eq!(c.kind.label(), "SWS");
        assert_eq!(QueueKind::Sdc.label(), "SDC");
    }
}
