//! The packed 64-bit `stealval` (paper Figs. 3 and 4).
//!
//! The whole point of SWS is that everything a thief needs in order to
//! *discover and claim* work fits one 64-bit word, so one remote atomic
//! fetch-add does both. The word is split so that **initiators only ever
//! modify the top 24 bits** (the attempted-steals counter, bumped by
//! [`ASTEAL_UNIT`]) while **the owner only rewrites the low 40 bits**
//! (gate, initial tasks, tail). Placing `asteals` in the topmost bits
//! means a counter overflow carries *out of the word* instead of
//! corrupting owner fields; steal damping (§4.3) keeps the counter from
//! wrapping in the first place.
//!
//! Two layouts are implemented:
//!
//! * **Fig. 3** (`Layout::ValidBit`): `asteals:24 | valid:1 | itasks:19 |
//!   tail:20` — the initial design, where an acquire must wait for all
//!   in-flight steals before reusing the single completion array.
//! * **Fig. 4** (`Layout::Epochs`): `asteals:24 | epoch:2 | itasks:19 |
//!   tail:19` — completion epochs; an epoch value above
//!   [`MAX_EPOCHS`]`-1` means the queue is locked by the owner.

/// Bits in the attempted-steals counter.
pub const ASTEALS_BITS: u32 = 24;
/// Bit position of the attempted-steals field (it occupies the top bits).
pub const ASTEALS_SHIFT: u32 = 64 - ASTEALS_BITS;
/// The value a thief fetch-adds to claim the next block: one unit of the
/// `asteals` field.
pub const ASTEAL_UNIT: u64 = 1 << ASTEALS_SHIFT;
/// Mask of the attempted-steals field after shifting.
pub const ASTEALS_MASK: u64 = (1 << ASTEALS_BITS) - 1;

/// Bits in the initial-tasks field (both layouts).
pub const ITASKS_BITS: u32 = 19;
/// Number of completion epochs in the Fig. 4 layout. The paper found two
/// sufficient to avoid acquire-time polling (§4.2).
pub const MAX_EPOCHS: usize = 2;

/// Which stealval layout a queue uses.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Layout {
    /// Fig. 3: single valid bit, 20-bit tail, one completion array.
    ValidBit,
    /// Fig. 4: 2-bit epoch, 19-bit tail, per-epoch completion arrays.
    Epochs,
}

/// Whether thieves may currently claim from the queue, and under which
/// completion epoch.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Gate {
    /// Steals enabled; completions post to `epoch`'s array (always 0 in
    /// the Fig. 3 layout).
    Open {
        /// Active completion epoch index.
        epoch: u8,
    },
    /// Steals disabled: the owner is updating the split point, or the
    /// queue is shut down.
    Closed,
}

/// Why a [`StealVal`] cannot be packed into a raw word.
///
/// Field packing is *checked*: a value that does not fit its bit field is
/// an owner-side bug, and silently truncating it would corrupt a
/// neighbouring field (e.g. an oversized `tail` bleeding into `itasks`).
/// [`Layout::try_encode`] surfaces the overflow; [`Layout::encode`] keeps
/// the panicking contract for call sites that have already validated
/// their fields against [`Layout::max_itasks`]/[`Layout::max_tail`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum EncodeError {
    /// `itasks` exceeds the 19-bit field.
    ItasksOverflow {
        /// The offending value.
        itasks: u32,
        /// Largest encodable value.
        max: u32,
    },
    /// `tail` exceeds the layout's tail field.
    TailOverflow {
        /// The offending value.
        tail: u32,
        /// Largest encodable value.
        max: u32,
    },
    /// `asteals` exceeds the 24-bit counter. (The *protocol* wraps the
    /// counter via fetch-add carry-out; constructing an over-wide value
    /// from decoded fields is a bug.)
    AstealsOverflow {
        /// The offending value.
        asteals: u32,
    },
    /// An open gate names an epoch the layout does not have.
    EpochOutOfRange {
        /// The offending epoch index.
        epoch: u8,
        /// Number of epochs the layout supports.
        n_epochs: usize,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            EncodeError::ItasksOverflow { itasks, max } => {
                write!(f, "itasks {itasks} exceeds {ITASKS_BITS}-bit field (max {max})")
            }
            EncodeError::TailOverflow { tail, max } => {
                write!(f, "tail {tail} exceeds field (max {max})")
            }
            EncodeError::AstealsOverflow { asteals } => {
                write!(f, "asteals {asteals} exceeds {ASTEALS_BITS}-bit field")
            }
            EncodeError::EpochOutOfRange { epoch, n_epochs } => {
                write!(f, "epoch {epoch} exceeds range (< {n_epochs})")
            }
        }
    }
}

/// A decoded stealval.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct StealVal {
    /// Steal attempts against the current advertisement (thief-owned).
    pub asteals: u32,
    /// Steal gate / epoch (owner-owned).
    pub gate: Gate,
    /// Tasks initially placed in the shared portion (owner-owned).
    pub itasks: u32,
    /// Ring index of the first shared task (owner-owned).
    pub tail: u32,
}

impl StealVal {
    /// A fresh, open, empty advertisement under epoch 0.
    pub fn empty() -> StealVal {
        StealVal {
            asteals: 0,
            gate: Gate::Open { epoch: 0 },
            itasks: 0,
            tail: 0,
        }
    }

    /// Is the attempted-steals counter at its limit, so that one more
    /// claim would carry out of the word?
    pub fn asteals_full(&self) -> bool {
        self.asteals as u64 == ASTEALS_MASK
    }
}

impl Layout {
    /// Bits in the tail field.
    pub const fn tail_bits(self) -> u32 {
        match self {
            Layout::ValidBit => 20,
            Layout::Epochs => 19,
        }
    }

    /// Largest encodable tail ring index.
    pub const fn max_tail(self) -> u32 {
        (1 << self.tail_bits()) - 1
    }

    /// Largest encodable initial-tasks count.
    pub const fn max_itasks(self) -> u32 {
        (1 << ITASKS_BITS) - 1
    }

    /// Number of completion epochs this layout supports.
    pub const fn n_epochs(self) -> usize {
        match self {
            Layout::ValidBit => 1,
            Layout::Epochs => MAX_EPOCHS,
        }
    }

    /// Encode a decoded stealval, surfacing field overflow as an error
    /// instead of truncating or panicking. Checked packing: every field is
    /// validated against its bit width before any shifting happens, so a
    /// bad value can never bleed into a neighbouring field.
    pub fn try_encode(self, sv: StealVal) -> Result<u64, EncodeError> {
        if sv.itasks > self.max_itasks() {
            return Err(EncodeError::ItasksOverflow {
                itasks: sv.itasks,
                max: self.max_itasks(),
            });
        }
        if sv.tail > self.max_tail() {
            return Err(EncodeError::TailOverflow {
                tail: sv.tail,
                max: self.max_tail(),
            });
        }
        if sv.asteals as u64 > ASTEALS_MASK {
            return Err(EncodeError::AstealsOverflow { asteals: sv.asteals });
        }
        let asteals = (sv.asteals as u64) << ASTEALS_SHIFT;
        Ok(match self {
            Layout::ValidBit => {
                let valid = match sv.gate {
                    Gate::Open { epoch } => {
                        if epoch != 0 {
                            return Err(EncodeError::EpochOutOfRange {
                                epoch,
                                n_epochs: 1,
                            });
                        }
                        1u64
                    }
                    Gate::Closed => 0u64,
                };
                asteals | (valid << 39) | ((sv.itasks as u64) << 20) | sv.tail as u64
            }
            Layout::Epochs => {
                let epoch = match sv.gate {
                    Gate::Open { epoch } => {
                        if (epoch as usize) >= MAX_EPOCHS {
                            return Err(EncodeError::EpochOutOfRange {
                                epoch,
                                n_epochs: MAX_EPOCHS,
                            });
                        }
                        epoch as u64
                    }
                    // Any value above MAX_EPOCHS-1 signals "locked"; use
                    // the all-ones pattern.
                    Gate::Closed => 0b11,
                };
                asteals | (epoch << 38) | ((sv.itasks as u64) << 19) | sv.tail as u64
            }
        })
    }

    /// Encode a decoded stealval.
    ///
    /// # Panics
    /// Panics if `itasks`, `tail`, or `asteals` exceed their fields, or if
    /// an epoch index is out of range — these are owner-side bugs, not
    /// recoverable runtime conditions. Use [`Layout::try_encode`] where
    /// the fields come from untrusted arithmetic.
    pub fn encode(self, sv: StealVal) -> u64 {
        match self.try_encode(sv) {
            Ok(v) => v,
            Err(e) => panic!("stealval encode: {e}"),
        }
    }

    /// Decode a raw stealval word.
    pub fn decode(self, v: u64) -> StealVal {
        let asteals = ((v >> ASTEALS_SHIFT) & ASTEALS_MASK) as u32;
        match self {
            Layout::ValidBit => StealVal {
                asteals,
                gate: if (v >> 39) & 1 == 1 {
                    Gate::Open { epoch: 0 }
                } else {
                    Gate::Closed
                },
                itasks: ((v >> 20) & ((1 << ITASKS_BITS) - 1)) as u32,
                tail: (v & ((1 << 20) - 1)) as u32,
            },
            Layout::Epochs => {
                let epoch = ((v >> 38) & 0b11) as u8;
                StealVal {
                    asteals,
                    gate: if (epoch as usize) < MAX_EPOCHS {
                        Gate::Open { epoch }
                    } else {
                        Gate::Closed
                    },
                    itasks: ((v >> 19) & ((1 << ITASKS_BITS) - 1)) as u32,
                    tail: (v & ((1 << 19) - 1)) as u32,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layouts() -> [Layout; 2] {
        [Layout::ValidBit, Layout::Epochs]
    }

    #[test]
    fn paper_example_figure3() {
        // Fig. 3: asteals = 2, valid, 150 initial tasks, tail at 500.
        let sv = StealVal {
            asteals: 2,
            gate: Gate::Open { epoch: 0 },
            itasks: 150,
            tail: 500,
        };
        let v = Layout::ValidBit.encode(sv);
        assert_eq!(Layout::ValidBit.decode(v), sv);
        // Field placement: the top 24 bits hold asteals.
        assert_eq!(v >> ASTEALS_SHIFT, 2);
        assert_eq!(v & ((1 << 20) - 1), 500);
    }

    #[test]
    fn roundtrip_extremes() {
        for layout in layouts() {
            for asteals in [0, 1, 0xFF_FFFF] {
                for itasks in [0, 1, layout.max_itasks()] {
                    for tail in [0, 1, layout.max_tail()] {
                        for gate in [Gate::Open { epoch: 0 }, Gate::Closed] {
                            let sv = StealVal {
                                asteals,
                                gate,
                                itasks,
                                tail,
                            };
                            assert_eq!(layout.decode(layout.encode(sv)), sv, "{layout:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn epochs_roundtrip_all_epochs() {
        for e in 0..MAX_EPOCHS as u8 {
            let sv = StealVal {
                asteals: 7,
                gate: Gate::Open { epoch: e },
                itasks: 1234,
                tail: 99,
            };
            assert_eq!(Layout::Epochs.decode(Layout::Epochs.encode(sv)), sv);
        }
    }

    #[test]
    fn fetch_add_only_touches_asteals() {
        for layout in layouts() {
            let sv = StealVal {
                asteals: 5,
                gate: Gate::Open { epoch: 0 },
                itasks: 150,
                tail: 500,
            };
            let v = layout.encode(sv).wrapping_add(ASTEAL_UNIT);
            let d = layout.decode(v);
            assert_eq!(d.asteals, 6);
            assert_eq!(d.itasks, 150);
            assert_eq!(d.tail, 500);
            assert_eq!(d.gate, Gate::Open { epoch: 0 });
        }
    }

    #[test]
    fn asteals_overflow_carries_out_of_the_word() {
        // At the 24-bit limit one more fetch-add wraps asteals to zero but
        // must not corrupt any owner field — the motivation for placing
        // asteals in the topmost bits (§4.3).
        for layout in layouts() {
            let sv = StealVal {
                asteals: 0xFF_FFFF,
                gate: Gate::Open { epoch: 0 },
                itasks: 150,
                tail: 500,
            };
            let v = layout.encode(sv).wrapping_add(ASTEAL_UNIT);
            let d = layout.decode(v);
            assert_eq!(d.asteals, 0);
            assert_eq!(d.itasks, 150);
            assert_eq!(d.tail, 500);
            assert_eq!(d.gate, Gate::Open { epoch: 0 });
        }
    }

    #[test]
    fn closed_gate_survives_fetch_adds() {
        for layout in layouts() {
            let v = layout.encode(StealVal {
                asteals: 0,
                gate: Gate::Closed,
                itasks: 0,
                tail: 3,
            });
            let bumped = v.wrapping_add(ASTEAL_UNIT * 17);
            assert_eq!(layout.decode(bumped).gate, Gate::Closed);
            assert_eq!(layout.decode(bumped).tail, 3);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_itasks_rejected() {
        let _ = Layout::Epochs.encode(StealVal {
            asteals: 0,
            gate: Gate::Open { epoch: 0 },
            itasks: 1 << ITASKS_BITS,
            tail: 0,
        });
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_tail_rejected() {
        let _ = Layout::Epochs.encode(StealVal {
            asteals: 0,
            gate: Gate::Open { epoch: 0 },
            itasks: 0,
            tail: 1 << 19,
        });
    }

    #[test]
    fn try_encode_accepts_every_field_boundary() {
        // Largest value of every field must round-trip exactly.
        for layout in layouts() {
            let sv = StealVal {
                asteals: (1 << ASTEALS_BITS) - 1, // 2^24 - 1
                gate: Gate::Open { epoch: 0 },
                itasks: layout.max_itasks(), // 2^19 - 1
                tail: layout.max_tail(),
            };
            let v = layout.try_encode(sv).expect("boundary values must fit");
            assert_eq!(layout.decode(v), sv, "{layout:?}");
        }
    }

    #[test]
    fn try_encode_rejects_one_past_each_boundary() {
        let base = StealVal::empty();
        for layout in layouts() {
            assert_eq!(
                layout.try_encode(StealVal {
                    itasks: layout.max_itasks() + 1,
                    ..base
                }),
                Err(EncodeError::ItasksOverflow {
                    itasks: layout.max_itasks() + 1,
                    max: layout.max_itasks()
                }),
                "{layout:?}"
            );
            assert_eq!(
                layout.try_encode(StealVal {
                    tail: layout.max_tail() + 1,
                    ..base
                }),
                Err(EncodeError::TailOverflow {
                    tail: layout.max_tail() + 1,
                    max: layout.max_tail()
                }),
                "{layout:?}"
            );
            assert_eq!(
                layout.try_encode(StealVal {
                    asteals: 1 << ASTEALS_BITS,
                    ..base
                }),
                Err(EncodeError::AstealsOverflow {
                    asteals: 1 << ASTEALS_BITS
                }),
                "{layout:?}"
            );
        }
    }

    #[test]
    fn try_encode_epoch_rollover_is_checked_not_wrapped() {
        // Epoch MAX_EPOCHS-1 is the last valid open epoch; MAX_EPOCHS and
        // beyond must be rejected (the encoding reserves those bit
        // patterns for the closed gate), never wrapped back to epoch 0.
        let last = (MAX_EPOCHS - 1) as u8;
        let sv = StealVal {
            gate: Gate::Open { epoch: last },
            ..StealVal::empty()
        };
        let v = Layout::Epochs.try_encode(sv).unwrap();
        assert_eq!(Layout::Epochs.decode(v).gate, Gate::Open { epoch: last });
        for epoch in [MAX_EPOCHS as u8, MAX_EPOCHS as u8 + 1, u8::MAX] {
            assert_eq!(
                Layout::Epochs.try_encode(StealVal {
                    gate: Gate::Open { epoch },
                    ..StealVal::empty()
                }),
                Err(EncodeError::EpochOutOfRange {
                    epoch,
                    n_epochs: MAX_EPOCHS
                })
            );
        }
        // ValidBit has a single epoch: epoch 1 is out of range, not "valid".
        assert_eq!(
            Layout::ValidBit.try_encode(StealVal {
                gate: Gate::Open { epoch: 1 },
                ..StealVal::empty()
            }),
            Err(EncodeError::EpochOutOfRange {
                epoch: 1,
                n_epochs: 1
            })
        );
        // Raw words whose epoch bits exceed MAX_EPOCHS-1 decode as Closed
        // (the "locked" sentinel) — rollover cannot fabricate an open gate.
        for raw_epoch in [0b10u64, 0b11] {
            let v = raw_epoch << 38;
            assert_eq!(Layout::Epochs.decode(v).gate, Gate::Closed);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_asteals_rejected_by_encode() {
        let _ = Layout::Epochs.encode(StealVal {
            asteals: 1 << ASTEALS_BITS,
            ..StealVal::empty()
        });
    }

    #[test]
    fn layout_capacities_match_figures() {
        assert_eq!(Layout::ValidBit.max_tail(), (1 << 20) - 1);
        assert_eq!(Layout::Epochs.max_tail(), (1 << 19) - 1);
        assert_eq!(Layout::ValidBit.max_itasks(), (1 << 19) - 1);
        assert_eq!(Layout::ValidBit.n_epochs(), 1);
        assert_eq!(Layout::Epochs.n_epochs(), 2);
    }
}

#[cfg(test)]
mod randomized {
    use super::*;
    use sws_shmem::rng::SplitMix64;

    fn layout_from(bit: u64) -> Layout {
        if bit & 1 == 0 {
            Layout::ValidBit
        } else {
            Layout::Epochs
        }
    }

    /// Gate from a small index, valid for the layout.
    fn gate_for(layout: Layout, idx: u8) -> Gate {
        let open_variants = layout.n_epochs() as u8;
        if idx % (open_variants + 1) == open_variants {
            Gate::Closed
        } else {
            Gate::Open {
                epoch: idx % open_variants,
            }
        }
    }

    #[test]
    fn roundtrip_any_field_combination() {
        let mut rng = SplitMix64::new(0x57E4_0001);
        for _ in 0..2048 {
            let layout = layout_from(rng.next_u64());
            let asteals = rng.below(1 << ASTEALS_BITS) as u32;
            let itasks = rng.below(1 << ITASKS_BITS) as u32;
            let tail = rng.below(layout.max_tail() as u64 + 1) as u32;
            let gate = gate_for(layout, rng.next_u64() as u8);
            let sv = StealVal {
                asteals,
                gate,
                itasks,
                tail,
            };
            assert_eq!(layout.decode(layout.encode(sv)), sv, "{layout:?}");
        }
    }

    #[test]
    fn any_number_of_fetch_adds_preserves_owner_fields() {
        let mut rng = SplitMix64::new(0x57E4_0002);
        for _ in 0..2048 {
            let layout = layout_from(rng.next_u64());
            let itasks = rng.below(1 << ITASKS_BITS) as u32;
            let tail = rng.below(layout.max_tail() as u64 + 1) as u32;
            let adds = rng.below(100_000);
            let sv = StealVal {
                asteals: 0,
                gate: Gate::Open { epoch: 0 },
                itasks,
                tail,
            };
            let raw = layout
                .encode(sv)
                .wrapping_add(ASTEAL_UNIT.wrapping_mul(adds));
            let d = layout.decode(raw);
            assert_eq!(d.itasks, itasks);
            assert_eq!(d.tail, tail);
            assert_eq!(d.gate, Gate::Open { epoch: 0 });
            assert_eq!(d.asteals as u64, adds & 0xFF_FFFF);
        }
    }
}
