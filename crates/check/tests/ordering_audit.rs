//! Golden test: the checked-in `ORDERINGS.md` matches what the audit
//! computes and the committed necessity evidence. `SWS_CHECK_BLESS=1`
//! regenerates the file; a missing or stale evidence record under
//! `crates/check/schedules/` fails here (regenerate those with
//! `sws-check necessity --bless`).

use sws_check::audit::{orderings_path, render, run_audit};
use sws_check::necessity::{load_evidence, replay_witnesses, schedules_dir};
use sws_check::Config;

#[test]
fn orderings_md_is_current() {
    let rows = run_audit(&Config::default()).unwrap_or_else(|f| panic!("audit failed:\n{f}"));
    // Every (site, weakening) mutant must be covered by committed live
    // evidence — a witness schedule or an exhausted-at-bound row.
    let evidence = load_evidence(&schedules_dir()).unwrap_or_else(|e| panic!("{e}"));

    // Structural sanity before comparing bytes: the two synchronization
    // chains the protocols stand on must come out load-bearing, and the
    // staleness-tolerant owner read must not.
    let bearing: Vec<&str> = rows
        .iter()
        .filter(|r| r.load_bearing())
        .map(|r| r.site.name())
        .collect();
    for must in [
        "SwsThiefClaim",       // acquire half of the publication chain
        "SwsOwnerAdvertise",   // release half of the publication chain
        "SwsThiefComplete",    // release half of the completion chain
        "SwsOwnerReclaimRead", // acquire half of the completion chain
        "SdcLockCas",
        "SdcUnlock",
    ] {
        assert!(
            bearing.contains(&must),
            "{must} should be load-bearing; load-bearing set: {bearing:?}"
        );
    }
    assert!(
        !bearing.contains(&"SwsOwnerSvRead"),
        "the owner's sv read is staleness-tolerant by design; a load-bearing \
         verdict means the model (or the protocol) regressed"
    );

    let rendered = render(&rows, &evidence);
    let path = orderings_path();
    if std::env::var_os("SWS_CHECK_BLESS").is_some() {
        std::fs::write(&path, &rendered).expect("write ORDERINGS.md");
        return;
    }
    let on_disk = std::fs::read_to_string(&path)
        .expect("ORDERINGS.md missing — create it with SWS_CHECK_BLESS=1");
    assert!(
        on_disk == rendered,
        "ORDERINGS.md is stale; regenerate with \
         `SWS_CHECK_BLESS=1 cargo test -p sws-check --test ordering_audit`"
    );
}

/// Every committed witness schedule must still reproduce its recorded
/// violation kind when replayed against the current queues — tier-1
/// insurance that a protocol change cannot silently invalidate the
/// necessity evidence (the full re-exploration of exhausted mutants
/// runs in CI via `sws-check necessity`).
#[test]
fn committed_witnesses_replay() {
    let n = replay_witnesses(&schedules_dir()).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        n > 0,
        "no witness schedules committed — the campaign should have found \
         the publication- and completion-chain mutants"
    );
}

/// Every load-bearing site must be *observable*: it has to show up in
/// the op traces the conformance matrix captures, or the refinement
/// check can never exercise the ordering the audit says matters. The
/// two `PayloadWrite` sites are owner-local ring stores — invisible to
/// the one-sided capture layer by design — and are excluded (they are
/// not load-bearing anyway, which this test also pins down).
#[test]
fn load_bearing_sites_appear_in_captured_traces() {
    use sws_check::conform::{matrix, run_case};

    let rows = run_audit(&Config::default()).unwrap_or_else(|f| panic!("audit failed:\n{f}"));
    let mut seen = std::collections::BTreeSet::new();
    // One SWS case and one SDC case cover both protocols' site sets.
    for case in matrix()
        .iter()
        .filter(|c| c.name == "sws-epochs" || c.name == "sdc")
    {
        let r = run_case(case)
            .unwrap_or_else(|d| panic!("case {} diverged during coverage run:\n{d}", case.name));
        seen.extend(r.sites);
    }
    for row in rows.iter().filter(|r| r.load_bearing()) {
        let name = row.site.name();
        if name.contains("PayloadWrite") {
            continue;
        }
        assert!(
            seen.contains(&row.site.id()),
            "{name} is load-bearing but never appeared in a captured trace — \
             either its call sites lost their proto_site arming or the \
             conformance matrix no longer reaches that path"
        );
    }
}
