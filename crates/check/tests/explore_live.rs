//! End-to-end tests of the live exploration scheduler: clean corpus
//! scenarios pass, exploration is deterministic, and the seeded
//! mutation is found, shrunk, and deterministically replayed.

use sws_check::live::{
    corpus, explore_scenario, find_scenario, mutant_scenario, parse_schedule, replay_schedule,
    run_schedule, write_schedule, Counterexample, ExplorerConfig, Scenario, ScenarioStats,
};

/// Small budgets so the tier-1 (debug) suite stays fast; the CI explore
/// job runs the full default budget in release mode.
fn test_cfg() -> ExplorerConfig {
    ExplorerConfig {
        preemptions: 2,
        max_schedules: 24,
        max_steps: 40_000,
    }
}

#[test]
fn default_schedule_of_every_corpus_scenario_is_clean() {
    for sc in corpus() {
        let res = run_schedule(&sc, &[], 40_000);
        assert!(
            res.failure.is_none(),
            "{}: default schedule failed: {:?}",
            sc.name,
            res.failure
        );
        assert!(!res.truncated, "{}: default schedule truncated", sc.name);
        assert!(
            !res.trace.is_empty(),
            "{}: no gated decisions recorded",
            sc.name
        );
    }
}

#[test]
fn exploration_of_a_clean_scenario_finds_nothing() {
    let sc = find_scenario("sws-epochs-half").expect("corpus scenario");
    let (stats, ce) = explore_scenario(&sc, &test_cfg());
    assert!(ce.is_none(), "clean scenario produced {ce:?}");
    assert!(stats.schedules >= 2, "explorer never branched: {stats:?}");
    assert!(
        stats.pruned_independent > 0,
        "independent pairs should be pruned, not explored: {stats:?}"
    );
}

#[test]
fn exploration_is_deterministic() {
    let sc = find_scenario("sdc-half").expect("corpus scenario");
    let cfg = test_cfg();
    let (a, cea) = explore_scenario(&sc, &cfg);
    let (b, ceb) = explore_scenario(&sc, &cfg);
    assert_eq!(a, b, "two identical explorations diverged");
    assert_eq!(cea, ceb);

    // Replay determinism at the single-schedule level: byte-identical
    // decision logs.
    let ra = run_schedule(&sc, &[1, 0, 1], 40_000);
    let rb = run_schedule(&sc, &[1, 0, 1], 40_000);
    assert_eq!(ra.trace, rb.trace);
    assert_eq!(ra.failure, rb.failure);
}

#[test]
fn mutation_is_found_shrunk_and_replayable() {
    let sc = mutant_scenario();
    let cfg = ExplorerConfig {
        preemptions: 2,
        max_schedules: 400,
        max_steps: 40_000,
    };
    let (stats, ce) = explore_scenario(&sc, &cfg);
    let ce: Counterexample = ce.unwrap_or_else(|| {
        panic!(
            "explorer missed the seeded bug after {} schedules",
            stats.schedules
        )
    });
    assert!(
        ce.failure.contains("conservation") || ce.failure.contains("invariant"),
        "unexpected failure kind: {}",
        ce.failure
    );

    // The shrunk schedule still fails, deterministically, via the
    // serialized replay path.
    let text = write_schedule(&ce);
    let file = parse_schedule(&text).expect("well-formed schedule file");
    assert_eq!(file.scenario, sc.name);
    assert_eq!(file.choices, ce.schedule);
    let r1 = replay_schedule(&text, cfg.max_steps).expect("replay");
    let r2 = replay_schedule(&text, cfg.max_steps).expect("replay");
    assert_eq!(r1.failure, r2.failure, "replay nondeterministic");
    assert_eq!(r1.trace, r2.trace);
    assert_eq!(r1.failure.as_deref(), Some(ce.failure.as_str()));

    // ddmin really shrank: the minimized schedule is no longer than the
    // failing run's full decision log (strictly shorter in practice).
    assert!(
        ce.schedule.len() <= r1.trace.len(),
        "shrunk schedule longer than its replay"
    );
}

/// FNV-1a of the decision log of `sc`'s default schedule: every enabled
/// set, descriptor and choice, in order.
fn default_log_digest(sc: &Scenario) -> u64 {
    let trace = run_schedule(sc, &[], ExplorerConfig::default().max_steps).trace;
    let log: Vec<_> = trace.decisions().collect();
    format!("{log:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The schedule is *the* schedule, whatever executes it. These counts and
/// digests were taken at commit 908b838, where the PEs of an explored
/// world were OS threads handing a grant token around under a mutex; any
/// executor since must reproduce them exactly. They are the whole
/// `sws-check explore` report at the default budget, plus the default
/// schedule's decision log per scenario. A legitimate protocol, policy or
/// corpus change re-pins them — in its own commit.
#[test]
fn explore_results_are_pinned() {
    // (scenario, branches, pruned independent, pruned by the preemption
    // bound, max depth, digest of the default schedule's log)
    let pinned = [
        (
            "sws-epochs-half",
            1_361,
            4_416,
            482,
            190,
            0x85564d4e6868207b,
        ),
        (
            "sws-validbit-half",
            1_361,
            4_416,
            482,
            190,
            0x9b17799a36afff1f,
        ),
        (
            "sws-epochs-one-damped",
            674,
            2_881,
            559,
            169,
            0xe3aedcd6a0e36cfe,
        ),
        (
            "sws-epochs-3pe",
            2_602,
            25_481,
            7_702,
            469,
            0x55350201b928fdff,
        ),
        (
            "sws-epochs-drops",
            1_315,
            3_701,
            441,
            166,
            0x8d437d04709c69f0,
        ),
        ("sdc-half", 307, 2_036, 1_790, 150, 0x11300700cf5404aa),
        (
            "sdc-quarter-3pe",
            1_557,
            8_677,
            1_546,
            224,
            0x51508503d3aa936c,
        ),
        ("sdc-drops", 331, 2_209, 2_103, 153, 0xffceec48d81719c4),
    ];
    let cfg = ExplorerConfig::default();
    let corpus = corpus();
    assert_eq!(corpus.len(), pinned.len());
    for (sc, (name, branches, pruned_independent, pruned_preempt, max_depth, log)) in
        corpus.iter().zip(pinned)
    {
        assert_eq!(sc.name, name);
        let (stats, ce) = explore_scenario(sc, &cfg);
        assert_eq!(ce, None, "{name}");
        let want = ScenarioStats {
            schedules: 160,
            truncated: 0,
            pruned_independent,
            pruned_preempt,
            branches,
            max_depth,
            exhausted: false,
        };
        assert_eq!(stats, want, "{name}");
        assert_eq!(
            default_log_digest(sc),
            log,
            "{name}: default schedule's log"
        );
    }

    let sc = mutant_scenario();
    let (stats, ce) = explore_scenario(&sc, &cfg);
    let ce = ce.expect("the seeded bug is caught");
    assert_eq!((stats.schedules, ce.schedule.len()), (17, 50));
    assert_eq!(ce.failure, "conservation: tag 1 executed 0 times (want 1)");
    assert_eq!(default_log_digest(&sc), 0x13a37d3432341610);
}

/// A search whose frontier empties with no truncated schedule says so;
/// one stopped by the schedule budget does not. At preemption bound 0,
/// `sdc-drops` has one admissible schedule and `sws-epochs-3pe` 123.
#[test]
fn an_emptied_frontier_is_exhausted_at_its_bound() {
    let bound0 = ExplorerConfig {
        preemptions: 0,
        ..ExplorerConfig::default()
    };
    for (name, schedules) in [("sdc-drops", 1), ("sws-epochs-3pe", 123)] {
        let sc = corpus()
            .into_iter()
            .find(|sc| sc.name == name)
            .expect("in the corpus");
        let (stats, ce) = explore_scenario(&sc, &bound0);
        assert_eq!(ce, None, "{name}");
        assert_eq!(
            (stats.schedules, stats.exhausted),
            (schedules, true),
            "{name}"
        );
        let budget = ExplorerConfig {
            max_schedules: schedules - 1,
            ..bound0.clone()
        };
        if budget.max_schedules > 0 {
            assert!(
                !explore_scenario(&sc, &budget).0.exhausted,
                "{name} under budget"
            );
        }
    }
}
