//! End-to-end refinement check: capture a real scheduler run's op trace
//! and replay it through the abstract protocol machines.
//!
//! The full 11-case matrix runs under `sws-check conform`; this test
//! pins the two properties CI must never lose: a clean run conforms,
//! and a protocol-level mutation is caught *and shrinks* to a small
//! witness of the same divergence kind.

use sws_check::conform::{
    capture_case, case_queue, conform_all, matrix, run_case, shrink, Proto, ReplayInput,
};

#[test]
fn clean_runs_conform_and_cover_both_protocols() {
    let report = conform_all();
    assert!(
        report.ok(),
        "conformance matrix failed:\n{}",
        report.render()
    );
    assert!(report.cases.len() >= 7, "matrix shrank below the 7-config floor");
}

#[test]
fn mutated_claim_decode_is_caught_and_shrinks() {
    let cases = matrix();
    let case = &cases[0];
    assert_eq!(case.name, "sws-epochs");

    // A thief that misreads one bit of the fetched stealval mis-sizes or
    // mis-places its payload copy; the replay must notice.
    let div = run_case(case, Some(|raw| raw ^ 1))
        .expect_err("flipping a stealval bit at claim decode must diverge");

    // Re-capture the same deterministic trace and delta-debug it down to
    // a witness that still produces the same divergence kind.
    let events = capture_case(case);
    let mut input = ReplayInput::new(Proto::Sws, case_queue(case), &events);
    input.mutate_claim_decode = Some(|raw| raw ^ 1);
    let witness = shrink(&input, div.kind);
    assert!(
        witness.len() < events.len(),
        "ddmin failed to remove any of the {} events",
        events.len()
    );
    assert!(
        witness.len() <= 32,
        "witness of {} events is too large to be a useful repro",
        witness.len()
    );
}
