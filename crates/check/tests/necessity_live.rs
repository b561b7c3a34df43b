//! Seeded self-tests of the necessity prover's live oracle: the
//! happens-before tracker stays silent under production orderings and
//! catches known-load-bearing weakenings with a shrunk, replayable
//! counterexample.

use sws_check::live::{
    explore_scenario, find_scenario, ordering_ctl, parse_schedule, replay_schedule,
    ring_reuse_scenario, run_schedule, write_schedule, ExplorerConfig,
};
use sws_check::mem::OrdTable;
use sws_check::necessity::mutants;
use sws_core::{AtomicSite, MemOrder, Weakening};

fn test_cfg() -> ExplorerConfig {
    ExplorerConfig {
        preemptions: 2,
        max_schedules: 120,
        max_steps: 40_000,
    }
}

/// Identity weakening: the production table plus the tracker, no actual
/// mutation. The tracker must stay silent — this pins the oracle's
/// false-positive rate at zero on the protocols' real edges.
#[test]
fn tracker_under_production_orderings_is_clean() {
    for (name, site) in [
        ("sws-epochs-half", AtomicSite::SwsOwnerAdvertise),
        ("sdc-half", AtomicSite::SdcUnlock),
    ] {
        let mut sc = find_scenario(name).expect("corpus scenario");
        // Weakening a site to its own production ordering attaches the
        // table and tracker without changing any resolved ordering.
        sc.weaken = Some((site, Weakening::Order(site.production())));
        let res = run_schedule(&sc, &[], 40_000);
        assert!(
            res.failure.is_none(),
            "{name}: tracker false positive under production orderings: {:?}",
            res.failure
        );
    }
    let mut sc = ring_reuse_scenario();
    sc.weaken = Some((
        AtomicSite::SwsThiefComplete,
        Weakening::Order(AtomicSite::SwsThiefComplete.production()),
    ));
    let (_, ce) = explore_scenario(&sc, &test_cfg());
    assert!(ce.is_none(), "ring-reuse tracker false positive: {ce:?}");
}

/// The publication chain: relaxing the owner's advertise store lets a
/// thief's block copy legally read pre-publication ring words. The live
/// oracle must catch it, shrink it, and the schedule file must replay.
#[test]
fn weakened_advertise_is_caught_shrunk_and_replayed() {
    let mut sc = find_scenario("sws-epochs-half").expect("corpus scenario");
    sc.weaken = Some((
        AtomicSite::SwsOwnerAdvertise,
        Weakening::Order(MemOrder::Relaxed),
    ));
    let (stats, ce) = explore_scenario(&sc, &test_cfg());
    let ce = ce.unwrap_or_else(|| {
        panic!(
            "live oracle missed the relaxed-advertise mutant after {} schedules",
            stats.schedules
        )
    });
    assert!(
        ce.failure.contains("ordering-track"),
        "expected a tracker violation, got: {}",
        ce.failure
    );

    let text = write_schedule(&ce);
    let file = parse_schedule(&text).expect("well-formed schedule file");
    assert_eq!(
        file.weaken,
        Some((
            AtomicSite::SwsOwnerAdvertise,
            Weakening::Order(MemOrder::Relaxed)
        ))
    );
    let r = replay_schedule(&text, 40_000).expect("replay");
    assert_eq!(r.failure.as_deref(), Some(ce.failure.as_str()));
}

/// The completion chain: relaxing the thief's completion publish lets
/// the owner reuse a ring slot a thief may still be copying.
#[test]
fn weakened_completion_is_caught_live() {
    let mut sc = ring_reuse_scenario();
    sc.weaken = Some((
        AtomicSite::SwsThiefComplete,
        Weakening::Order(MemOrder::Relaxed),
    ));
    let (stats, ce) = explore_scenario(&sc, &test_cfg());
    let ce = ce.unwrap_or_else(|| {
        panic!(
            "live oracle missed the relaxed-completion mutant after {} schedules",
            stats.schedules
        )
    });
    assert!(
        ce.failure.contains("ordering-track"),
        "expected a tracker violation, got: {}",
        ce.failure
    );
}

/// The identity override table is pure plumbing: attaching it (without a
/// tracker) must leave a run's decision log and failure byte-identical
/// to the bare run.
#[test]
fn identity_table_is_behaviorally_invisible() {
    let _ = ordering_ctl(2, None); // constructor smoke: production table builds
    for name in ["sws-epochs-half", "sdc-half"] {
        let sc = find_scenario(name).expect("corpus scenario");
        let bare = run_schedule(&sc, &[1, 0, 1], 40_000);
        let mut tabled = sc.clone();
        // Identity weakening on a site the scenario never arms would be
        // enough, but use a real site at production strength: resolved
        // orderings are identical, so the runs must be too.
        tabled.weaken = Some((
            AtomicSite::SwsOwnerAdvertise,
            Weakening::Order(AtomicSite::SwsOwnerAdvertise.production()),
        ));
        let t = run_schedule(&tabled, &[1, 0, 1], 40_000);
        assert_eq!(bare.trace, t.trace, "{name}");
        assert_eq!(bare.failure, t.failure, "{name}");
    }
}

/// Both oracles test one mutant. For every (site, weakening) the campaign
/// covers, the CAS failure-path mutant included, the table a live world
/// resolves its ops from holds the model table's entry at every catalog
/// site — ordering and CAS failure ordering alike — and that entry is
/// production everywhere but the mutated site, which holds the weakening.
#[test]
fn live_and_model_tables_agree_on_every_mutant() {
    let space = mutants();
    assert!(space.iter().any(|&(_, w)| w == Weakening::CasFailure));
    for (site, w) in space {
        let live = ordering_ctl(2, Some((site, w)));
        let model = OrdTable::mutant(site, w);
        for s in AtomicSite::ALL {
            let resolved = live.overrides.entry(s.id());
            let at = format!("{} {}: {}", site.name(), w.label(), s.name());
            assert_eq!(resolved, (model.get(s), model.cas_fail(s)), "{at}");
            let expected = match w {
                Weakening::Order(o) if s == site => (o, MemOrder::Acquire),
                Weakening::CasFailure if s == site => (s.production(), MemOrder::Relaxed),
                _ => (s.production(), MemOrder::Acquire),
            };
            assert_eq!(resolved, expected, "{at}");
        }
    }
}
