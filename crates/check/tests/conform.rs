//! End-to-end refinement check: capture a real scheduler run's op trace
//! and replay it through the abstract protocol machines.
//!
//! The full 7-case matrix runs under `sws-check conform`; this test
//! pins the three properties CI must never lose: a clean run conforms,
//! a test control that plants nothing changes no captured byte, and a
//! planted protocol defect is caught *and shrinks* to a small witness of
//! the same divergence kind.

use sws_check::conform::{
    capture_case, case_queue, conform_all, matrix, replay, shrink, Proto, ReplayInput,
};
use sws_check::live::defect_ctl;
use sws_core::Defect;

#[test]
fn clean_runs_conform_and_cover_both_protocols() {
    let report = conform_all();
    assert!(
        report.ok(),
        "conformance matrix failed:\n{}",
        report.render()
    );
    assert!(
        report.cases.len() >= 7,
        "matrix shrank below the 7-config floor"
    );
}

/// With no defect planted, attaching the control must not move one
/// captured byte of any matrix case.
#[test]
fn a_control_that_plants_nothing_moves_nothing() {
    for case in &matrix() {
        let plain = capture_case(case, None);
        assert!(!plain.is_empty(), "{}: nothing captured", case.name);
        assert!(
            plain == capture_case(case, Some(defect_ctl(None))),
            "{}: the capture moved",
            case.name
        );
    }
}

#[test]
fn mutated_claim_decode_is_caught_and_shrinks() {
    let cases = matrix();
    let case = &cases[0];
    assert_eq!(case.name, "sws-epochs");

    // A thief that decodes its claim with tail bit 0 flipped copies the
    // block one slot off the one it claimed; the replay must notice.
    let events = capture_case(case, Some(defect_ctl(Some(Defect::ClaimOneSlotOff))));
    let input = ReplayInput::new(Proto::Sws, case_queue(case), &events);
    let div = replay(&input).expect_err("a claim copied one slot off must diverge");
    assert_eq!(div.kind, "payload-geometry");

    // Delta-debug the capture down to a witness that still produces the
    // same divergence kind.
    let witness = shrink(&input, div.kind);
    assert!(
        witness.len() <= 32,
        "witness of {} of {} events is too large to be a useful repro",
        witness.len(),
        events.len()
    );
}
