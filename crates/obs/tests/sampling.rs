//! Statistical soundness of sampled steal-spans.
//!
//! With `SchedConfig::sample_period = N`, the scheduler opens the proto
//! capture window for a seeded 1-in-N subset of steal attempts
//! (systematic sampling with a per-PE random phase). Because the whole
//! run is deterministic in virtual time, the sampled run sees *exactly*
//! the same attempt sequence as the full-capture run — so scaling the
//! sampled span count by N must land within the systematic-sampling
//! error bound of the full count (±1 period per PE, well inside ±10%
//! for these workloads). Same seed ⇒ byte-identical sampled trace.

use sws_core::QueueConfig;
use sws_obs::{stitch_report, SpanOutcome};
use sws_sched::{run_workload, QueueKind, RunConfig, RunReport, SchedConfig};
use sws_workloads::uts::{UtsParams, UtsWorkload};

const PES: usize = 8;
const PERIOD: u32 = 4;

fn queue() -> QueueConfig {
    QueueConfig::new(1024, 48)
}

fn report_for(kind: QueueKind, seed: u64, period: u32) -> RunReport {
    let sched = SchedConfig::new(kind, queue())
        .with_seed(seed)
        .with_sample_period(period);
    let cfg = RunConfig::new(PES, sched).with_capture_proto();
    run_workload(&cfg, &UtsWorkload::new(UtsParams::geo_small(8)))
}

/// Non-probe spans: one per captured steal attempt.
fn attempt_spans(report: &RunReport) -> usize {
    stitch_report(report, &queue())
        .iter()
        .filter(|s| s.outcome != SpanOutcome::Probe)
        .count()
}

/// Scaled sampled counts estimate the full-capture ground truth within
/// ±10%, across seeds and both systems.
#[test]
fn scaled_sampled_spans_estimate_the_full_trace() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        for seed in [0xBA5E_u64, 42, 1337] {
            let full = report_for(kind, seed, 0);
            let sampled = report_for(kind, seed, PERIOD);

            // The attempt stream itself is untouched by sampling.
            assert_eq!(
                full.total_steal_attempts(),
                sampled.total_steal_attempts(),
                "{kind:?}/{seed:#x}: sampling perturbed the attempt count"
            );
            assert_eq!(sampled.sample_period(), PERIOD);
            assert_eq!(full.sample_period(), 0);

            let truth = attempt_spans(&full) as u64;
            let est = attempt_spans(&sampled) as u64 * PERIOD as u64;
            assert!(truth > 0, "{kind:?}/{seed:#x}: no spans captured");
            // ±10%, plus the systematic-sampling floor of one period
            // per PE (matters only if the workload shrinks).
            let tol = (truth / 10).max(PES as u64 * PERIOD as u64);
            assert!(
                est.abs_diff(truth) <= tol,
                "{kind:?}/{seed:#x}: estimate {est} vs truth {truth} (tol {tol})"
            );
        }
    }
}

/// The sampler's per-attempt accounting: every sampled attempt is a
/// real attempt, the 1-in-N rate holds, and the sampled span count is
/// bounded by the sampled attempt count (a window can cover an attempt
/// that emits no ops, never the reverse).
#[test]
fn sampler_accounting_is_consistent() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let r = report_for(kind, 0xBA5E, PERIOD);
        let attempts = r.total_steal_attempts();
        let sampled = r.total_sampled_attempts();
        assert!(sampled > 0, "{kind:?}: sampler never fired");
        assert!(sampled <= attempts);
        // Systematic 1-in-N: per PE the count is within one period of
        // attempts/N, so pool-wide slack is at most one period per PE.
        let slack = PES as u64 * PERIOD as u64;
        assert!(
            (sampled * PERIOD as u64).abs_diff(attempts) <= slack + attempts / 10,
            "{kind:?}: {sampled} sampled of {attempts} attempts at 1-in-{PERIOD}"
        );
        assert!(attempt_spans(&r) as u64 <= sampled);
    }
}

/// Same seed ⇒ the sampled proto trace is byte-identical, event for
/// event — sampling is part of the deterministic run, not noise.
#[test]
fn sampled_trace_is_deterministic_per_seed() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let a = report_for(kind, 0xBA5E, PERIOD);
        let b = report_for(kind, 0xBA5E, PERIOD);
        assert_eq!(
            a.proto_trace(),
            b.proto_trace(),
            "{kind:?} sampled trace diverged"
        );
        assert_eq!(a.total_sampled_attempts(), b.total_sampled_attempts());
        // And a different seed re-phases the sampler.
        let c = report_for(kind, 0xD1CE, PERIOD);
        assert_ne!(
            a.proto_trace(),
            c.proto_trace(),
            "{kind:?} trace ignores the seed"
        );
    }
}

/// A sampled trace is a subset of the full trace in the volume sense:
/// strictly fewer events than full capture at period > 1.
#[test]
fn sampling_reduces_capture_volume() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let full = report_for(kind, 0xBA5E, 0);
        let sampled = report_for(kind, 0xBA5E, PERIOD);
        assert!(
            sampled.proto_trace().len() < full.proto_trace().len(),
            "{kind:?}: sampling did not shrink the trace"
        );
    }
}
