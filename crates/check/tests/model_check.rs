//! Exhaustive exploration of every scenario under the production
//! orderings. This is the tentpole acceptance test: all five invariant
//! families (task conservation, field disjointness/decode exactness,
//! epoch-lock semantics, asteals monotonicity/overflow freedom,
//! completion reconciliation) are asserted by the worlds' monitors and
//! end-state checks on *every* reachable interleaving within the
//! preemption bound.

use std::time::Instant;

use sws_check::mem::OrdTable;
use sws_check::{all_scenarios, explore, Config, World};

#[test]
fn all_scenarios_pass_under_production_orderings() {
    let ords = OrdTable::production();
    let cfg = Config::default();
    let mut total_states = 0u64;
    for w in all_scenarios(&ords, false) {
        let t0 = Instant::now();
        let stats = match explore(&w, &cfg) {
            Ok(s) => s,
            Err(f) => panic!("scenario failed under production orderings:\n{f}"),
        };
        let dt = t0.elapsed();
        println!(
            "{:22} {:>9} states {:>9} end-states {:>9} pruned  {:?}",
            w.name(),
            stats.states,
            stats.end_states,
            stats.pruned,
            dt
        );
        assert!(stats.end_states > 0, "{}: no end states", w.name());
        // The acceptance bound: each scenario explores exhaustively in
        // well under a minute (debug profile included).
        assert!(dt.as_secs() < 60, "{}: took {dt:?}", w.name());
        total_states += stats.states;
    }
    // Exhaustiveness sanity: the scenario set is not degenerate.
    assert!(total_states > 10_000, "suspiciously small search space");
}

/// The checker can actually see bugs: raising the preemption bound on a
/// deliberately broken ordering table must produce a violation. (The
/// per-site version of this is the ordering audit; this is the
/// fail-closed smoke test that the harness reports failures at all.)
#[test]
fn weakened_publication_chain_is_caught() {
    use sws_core::{AtomicSite, MemOrder};
    let mut ords = OrdTable::production();
    ords.set(AtomicSite::SwsOwnerAdvertise, MemOrder::Relaxed);
    ords.set(AtomicSite::SwsThiefClaim, MemOrder::Relaxed);
    let cfg = Config::default();
    let failed = all_scenarios(&ords, false)
        .into_iter()
        .filter(|w| w.name().starts_with("sws"))
        .any(|w| explore(&w, &cfg).is_err());
    assert!(failed, "fully relaxed publication chain went unnoticed");
}

/// `(states, end_states, pruned)` per scenario at `Config::default()`, as
/// printed at `72de8e8`. The search is deterministic, so these only move
/// when a machine's reachable state space does: a refactor of the
/// machines must leave them alone, and a protocol change that moves one
/// explains why.
const PINNED_COUNTS: [(&str, u64, u64, u64); 11] = [
    ("sws_basic", 711, 22, 360),
    ("sws_epoch_flip", 1722, 62, 698),
    ("sws_ring_reuse", 458, 15, 212),
    ("sws_damped_probe", 611, 18, 462),
    ("sws_two_thieves", 4238, 96, 3245),
    ("sws_validbit", 1716, 62, 699),
    ("sws_closed_gate", 1144, 34, 561),
    ("sdc_basic", 879, 24, 545),
    ("sdc_ring_reuse", 433, 15, 264),
    ("sdc_acquire", 1676, 37, 982),
    ("sdc_two_thieves", 5923, 112, 5485),
];

#[test]
fn scenario_state_counts_are_pinned() {
    let got: Vec<(&str, u64, u64, u64)> = all_scenarios(&OrdTable::production(), false)
        .iter()
        .map(|w| {
            let s = explore(w, &Config::default()).unwrap_or_else(|f| panic!("{f}"));
            (w.name(), s.states, s.end_states, s.pruned)
        })
        .collect();
    assert_eq!(got, PINNED_COUNTS);
}

/// The model oracle's verdict for every mutant of the necessity campaign,
/// as computed at `72de8e8`: the violation kind and the scenario that
/// exposed it, or `None` where the audit scenarios cannot tell.
#[test]
fn model_verdicts_are_pinned() {
    use sws_check::necessity::{model_verdict, mutants};
    use sws_core::Necessity;
    let broken: [(&str, &str, &str, &str); 10] = [
        ("SwsThiefClaim", "to-release", "stale-read", "sws_basic"),
        ("SwsOwnerAdvertise", "to-relaxed", "stale-read", "sws_basic"),
        ("SwsThiefComplete", "to-relaxed", "race", "sws_ring_reuse"),
        (
            "SwsOwnerReclaimRead",
            "to-relaxed",
            "race",
            "sws_ring_reuse",
        ),
        ("SdcLockCas", "to-release", "conservation", "sdc_basic"),
        ("SdcUnlock", "to-relaxed", "conservation", "sdc_basic"),
        ("SdcMetaRead", "to-relaxed", "stale-read", "sdc_basic"),
        ("SdcSplitPublish", "to-relaxed", "stale-read", "sdc_basic"),
        ("SdcComplete", "to-relaxed", "race", "sdc_ring_reuse"),
        ("SdcReclaimRead", "to-relaxed", "race", "sdc_ring_reuse"),
    ];
    let space = mutants();
    assert_eq!(space.len(), 24);
    for (site, w) in space {
        let want = broken
            .iter()
            .find(|b| b.0 == site.name() && b.1 == w.label())
            .map(|b| (b.2.to_string(), b.3.to_string()));
        let got = match model_verdict(site, w, &Config::default()).expect("search budget") {
            Necessity::Broken { kind, witness, .. } => Some((kind, witness)),
            Necessity::ExhaustedAtBound { .. } => None,
        };
        assert_eq!(got, want, "{} {}", site.name(), w.label());
    }
}

/// Every catalog site is issued by some explored schedule — of the full
/// scenario set, and of the audit subset too, so an all-`ok` row of
/// `ORDERINGS.md` is a weakening the search exercised and could not
/// tell, never a site no scenario reaches.
#[test]
fn every_catalog_site_is_issued_by_the_model() {
    use sws_core::AtomicSite;
    for audit_only in [false, true] {
        let issued = all_scenarios(&OrdTable::production(), audit_only)
            .iter()
            .map(|w| {
                explore(w, &Config::default())
                    .expect("production is clean")
                    .sites
            })
            .fold(0, |all, sites| all | sites);
        let missed: Vec<&str> = AtomicSite::ALL
            .iter()
            .filter(|s| issued & (1 << s.id()) == 0)
            .map(|s| s.name())
            .collect();
        assert!(
            missed.is_empty(),
            "audit_only={audit_only}: no scenario issues {missed:?}"
        );
    }
}
