//! Cross-check of the packed stealval layouts against *independent* bit
//! arithmetic.
//!
//! `sws-core`'s own unit tests validate `encode`/`decode` against each
//! other, which cannot catch a bug that is symmetric in both directions
//! (e.g. both sides agreeing on a wrong shift). Here the expected raw
//! words are assembled by hand from the paper's Figs. 3 and 4 field maps
//! — written out with literal shifts, sharing no code with the crate —
//! and compared bit-for-bit against what the crate produces.

use sws_core::stealval::{
    EncodeError, Gate, Layout, StealVal, ASTEALS_MASK, ASTEALS_SHIFT, ASTEAL_UNIT, ITASKS_BITS,
    MAX_EPOCHS,
};

/// Fig. 4 layout, by hand: `asteals:24 | epoch:2 | itasks:19 | tail:19`.
fn pack_epochs(asteals: u64, epoch: u64, itasks: u64, tail: u64) -> u64 {
    assert!(asteals < (1 << 24) && epoch < 4 && itasks < (1 << 19) && tail < (1 << 19));
    (asteals << 40) | (epoch << 38) | (itasks << 19) | tail
}

/// Fig. 3 layout, by hand: `asteals:24 | valid:1 | itasks:19 | tail:20`.
fn pack_validbit(asteals: u64, valid: u64, itasks: u64, tail: u64) -> u64 {
    assert!(asteals < (1 << 24) && valid < 2 && itasks < (1 << 19) && tail < (1 << 20));
    (asteals << 40) | (valid << 39) | (itasks << 20) | tail
}

fn sv(asteals: u32, gate: Gate, itasks: u32, tail: u32) -> StealVal {
    StealVal {
        asteals,
        gate,
        itasks,
        tail,
    }
}

#[test]
fn exported_constants_match_the_paper_field_map() {
    assert_eq!(ASTEALS_SHIFT, 40);
    assert_eq!(ASTEALS_MASK, 0xFF_FFFF);
    assert_eq!(ASTEAL_UNIT, 1u64 << 40);
    assert_eq!(ITASKS_BITS, 19);
    assert_eq!(MAX_EPOCHS, 2);
    assert_eq!(Layout::Epochs.tail_bits(), 19);
    assert_eq!(Layout::ValidBit.tail_bits(), 20);
    assert_eq!(Layout::Epochs.max_tail(), 0x7_FFFF);
    assert_eq!(Layout::ValidBit.max_tail(), 0xF_FFFF);
    assert_eq!(Layout::Epochs.max_itasks(), 0x7_FFFF);
    assert_eq!(Layout::ValidBit.max_itasks(), 0x7_FFFF);
    assert_eq!(Layout::Epochs.n_epochs(), 2);
    assert_eq!(Layout::ValidBit.n_epochs(), 1);
}

#[test]
fn epochs_encode_matches_hand_packing_at_field_extremes() {
    for (asteals, epoch, itasks, tail) in [
        (0u64, 0u64, 0u64, 0u64),
        (1, 1, 1, 1),
        (0xFF_FFFF, 0, 0x7_FFFF, 0x7_FFFF),
        (0xFF_FFFF, 1, 0x7_FFFF, 0),
        (0, 1, 0, 0x7_FFFF),
        (0x80_0000, 0, 0x4_0000, 0x4_0000),
    ] {
        let v = Layout::Epochs
            .try_encode(sv(
                asteals as u32,
                Gate::Open { epoch: epoch as u8 },
                itasks as u32,
                tail as u32,
            ))
            .expect("in-range fields must encode");
        assert_eq!(
            v,
            pack_epochs(asteals, epoch, itasks, tail),
            "asteals={asteals:#x} epoch={epoch} itasks={itasks:#x} tail={tail:#x}"
        );
        // And the decode of the hand-packed word recovers the fields.
        let d = Layout::Epochs.decode(pack_epochs(asteals, epoch, itasks, tail));
        assert_eq!(
            d,
            sv(
                asteals as u32,
                Gate::Open { epoch: epoch as u8 },
                itasks as u32,
                tail as u32
            )
        );
    }
}

#[test]
fn validbit_encode_matches_hand_packing_at_field_extremes() {
    for (asteals, itasks, tail) in [
        (0u64, 0u64, 0u64),
        (1, 1, 1),
        (0xFF_FFFF, 0x7_FFFF, 0xF_FFFF),
        (0, 0x7_FFFF, 0),
        (0xFF_FFFF, 0, 0xF_FFFF),
        (0x80_0000, 0x4_0000, 0x8_0000),
    ] {
        let v = Layout::ValidBit
            .try_encode(sv(
                asteals as u32,
                Gate::Open { epoch: 0 },
                itasks as u32,
                tail as u32,
            ))
            .expect("in-range fields must encode");
        assert_eq!(
            v,
            pack_validbit(asteals, 1, itasks, tail),
            "asteals={asteals:#x} itasks={itasks:#x} tail={tail:#x}"
        );
        let d = Layout::ValidBit.decode(pack_validbit(asteals, 1, itasks, tail));
        assert_eq!(
            d,
            sv(
                asteals as u32,
                Gate::Open { epoch: 0 },
                itasks as u32,
                tail as u32
            )
        );
    }
}

#[test]
fn closed_gate_is_all_ones_epoch_or_cleared_valid_bit() {
    // Fig. 4: Closed encodes as epoch bits 0b11 — the all-ones pattern —
    // and ANY epoch value >= MAX_EPOCHS must decode as Closed, so a
    // half-written 0b10 never masquerades as an open epoch.
    let v = Layout::Epochs.encode(sv(3, Gate::Closed, 7, 9));
    assert_eq!(v, pack_epochs(3, 0b11, 7, 9));
    for epoch in MAX_EPOCHS as u64..4 {
        let d = Layout::Epochs.decode(pack_epochs(0, epoch, 7, 9));
        assert_eq!(
            d.gate,
            Gate::Closed,
            "epoch bits {epoch:#b} must read Closed"
        );
        assert_eq!(
            (d.itasks, d.tail),
            (7, 9),
            "owner fields survive a closed gate"
        );
    }
    // Fig. 3: Closed is simply valid = 0.
    let v = Layout::ValidBit.encode(sv(3, Gate::Closed, 7, 9));
    assert_eq!(v, pack_validbit(3, 0, 7, 9));
    assert_eq!(
        Layout::ValidBit.decode(pack_validbit(0, 0, 7, 9)).gate,
        Gate::Closed
    );
}

#[test]
fn out_of_range_fields_error_instead_of_bleeding() {
    // One past each field max: silently truncating any of these would
    // corrupt the neighbouring field, so `try_encode` must refuse.
    let open = Gate::Open { epoch: 0 };
    assert!(matches!(
        Layout::Epochs.try_encode(sv(0, open, 0x8_0000, 0)),
        Err(EncodeError::ItasksOverflow {
            itasks: 0x8_0000,
            max: 0x7_FFFF
        })
    ));
    assert!(matches!(
        Layout::Epochs.try_encode(sv(0, open, 0, 0x8_0000)),
        Err(EncodeError::TailOverflow {
            tail: 0x8_0000,
            max: 0x7_FFFF
        })
    ));
    assert!(matches!(
        Layout::ValidBit.try_encode(sv(0, open, 0, 0x10_0000)),
        Err(EncodeError::TailOverflow {
            tail: 0x10_0000,
            max: 0xF_FFFF
        })
    ));
    assert!(matches!(
        Layout::ValidBit.try_encode(sv(0x100_0000, open, 0, 0)),
        Err(EncodeError::AstealsOverflow {
            asteals: 0x100_0000
        })
    ));
    // An open epoch at MAX_EPOCHS is reserved for the Closed pattern in
    // Fig. 4 and does not exist at all in Fig. 3.
    assert!(matches!(
        Layout::Epochs.try_encode(sv(0, Gate::Open { epoch: 2 }, 0, 0)),
        Err(EncodeError::EpochOutOfRange {
            epoch: 2,
            n_epochs: 2
        })
    ));
    assert!(matches!(
        Layout::ValidBit.try_encode(sv(0, Gate::Open { epoch: 1 }, 0, 0)),
        Err(EncodeError::EpochOutOfRange {
            epoch: 1,
            n_epochs: 1
        })
    ));
    // The ValidBit tail max is legal on ValidBit but one bit too wide for
    // Epochs — the exact boundary the two layouts disagree on.
    assert!(Layout::ValidBit
        .try_encode(sv(0, open, 0, 0xF_FFFF))
        .is_ok());
    assert!(Layout::Epochs.try_encode(sv(0, open, 0, 0xF_FFFF)).is_err());
}

#[test]
fn asteal_unit_bumps_only_the_counter_in_raw_arithmetic() {
    // The protocol's one remote fetch-add, replayed on hand-packed words:
    // adding ASTEAL_UNIT increments asteals and nothing else, and at the
    // 24-bit limit the carry leaves the word entirely (wraps to zero)
    // rather than rippling into the gate.
    let v = pack_epochs(5, 1, 0x7_FFFF, 0x7_FFFF).wrapping_add(ASTEAL_UNIT);
    assert_eq!(v, pack_epochs(6, 1, 0x7_FFFF, 0x7_FFFF));
    let v = pack_validbit(0xFF_FFFF, 1, 150, 500).wrapping_add(ASTEAL_UNIT);
    assert_eq!(v, pack_validbit(0, 1, 150, 500));
    let d = Layout::ValidBit.decode(v);
    assert_eq!((d.asteals, d.itasks, d.tail), (0, 150, 500));
    assert_eq!(d.gate, Gate::Open { epoch: 0 });
}
