//! What a protocol word *means*: the one place that reads the word
//! formats of both steal protocols.
//!
//! The site catalog ([`crate::ordering::SiteRow`]) says which ops may
//! appear where; this module says what the words they move say. The
//! readings are one function each — the stealval a claiming thief
//! fetched ([`sws_claim`]) or a damped probe read ([`sws_probe`]), the
//! owner's view of its own advertisement ([`claims_taken`],
//! [`tasks_unclaimed`]), the block an SDC thief claims from `tail` and
//! `split` ([`sdc_claim`]), the completion word a claim reports into
//! ([`sws_comp`], [`sdc_comp`]; both claims read as one [`Block`]), and a
//! completion word as written and as read ([`Completion`]) — and the
//! production queues (`queue/{sws,sdc}.rs`), the model machines
//! (`sws-check`) and [`decode`] all call them.
//! [`decode`] turns a captured [`ProtoEvent`] into the protocol [`Step`]
//! it represents and adds only the operand checks and the 24-bit
//! [`Claim::Overflow`] class; [`Protocol::geometry`] places the words a
//! queue's ops touch. The conformance replay and the span stitcher read
//! the event stream through these two, so a change to a word format or
//! to a constructor's allocations is made here, not in every reader.

use sws_shmem::{ProtoEvent, ProtoOp, CACHE_LINE_WORDS};

use crate::ordering::AtomicSite;
use crate::queue::QueueConfig;
use crate::ring::Ring;
use crate::steal_half::StealPolicy;
use crate::stealval::{Gate, StealVal, ASTEAL_UNIT};
use crate::{SdcQueue, SwsQueue};

/// Which steal protocol a queue, a trace or a span belongs to.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum Protocol {
    /// Structured-atomic work stealing: one fetch-add on the stealval
    /// discovers and claims a block.
    Sws,
    /// Scioto's split queue with deferred copy: the spinlock baseline.
    Sdc,
}

/// The per-completed-steal op budget of paper Table 1.
#[derive(Copy, Clone, Debug)]
pub struct CommBudget {
    /// Core (non-contention) ops allowed per completed steal.
    pub max_core_ops: u64,
    /// Core blocking ops allowed.
    pub max_core_blocking: u64,
    /// Whether the budget must be met exactly (SDC's fixed op sequence)
    /// or is an upper bound (SWS's "at most" claim).
    pub exact: bool,
}

impl Protocol {
    /// Display label used by reports and the experiment harnesses.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Sws => "SWS",
            Protocol::Sdc => "SDC",
        }
    }

    /// The paper's Table 1 budget, adjusted for fault mode: the SWS fault
    /// path completes with a CAS instead of a passive set (3 ops, all
    /// blocking) and the SDC fault path adds the claim-marker write and
    /// a finalize CAS (7 ops, all blocking).
    pub fn comm_budget(self, faults: bool) -> CommBudget {
        let (max_core_ops, max_core_blocking) = match (self, faults) {
            (Protocol::Sws, false) => (3, 2),
            (Protocol::Sws, true) => (3, 3),
            (Protocol::Sdc, false) => (6, 5),
            (Protocol::Sdc, true) => (7, 7),
        };
        CommBudget { max_core_ops, max_core_blocking, exact: self == Protocol::Sdc }
    }

    /// Sizes in words of the queue's three collective allocations, in
    /// allocation order: control words, completion words, task buffer.
    pub fn blocks(self, cfg: &QueueConfig) -> [usize; 3] {
        match self {
            Protocol::Sws => SwsQueue::blocks(cfg),
            Protocol::Sdc => SdcQueue::blocks(cfg),
        }
    }

    /// Where a queue whose control block starts at word `ctl` keeps its
    /// three blocks: the constructors allocate them back to back with
    /// `alloc_words_aligned`, so each starts on the next cache line.
    pub fn geometry(self, cfg: &QueueConfig, ctl: u64) -> Geometry {
        let words = self.blocks(cfg).map(|w| w as u64);
        let line = CACHE_LINE_WORDS as u64;
        let mut base = [ctl; 3];
        for b in 1..3 {
            base[b] = (base[b - 1] + words[b - 1]).div_ceil(line) * line;
        }
        Geometry { base, words }
    }
}

/// Word offsets of one queue's three allocations in its PE's region.
#[derive(Copy, Clone, Debug)]
pub struct Geometry {
    /// First word of the control, completion and payload block.
    pub base: [u64; 3],
    /// Length of each block in words.
    pub words: [u64; 3],
}

impl Geometry {
    /// The `[start, start + len)` word range a site's [`Word`] may touch.
    pub fn range(&self, word: Word) -> (u64, u64) {
        match word {
            Word::Ctl(k) => (self.base[0] + k as u64, 1),
            Word::Comp => (self.base[1], self.words[1]),
            Word::Payload => (self.base[2], self.words[2]),
        }
    }
}

/// Which word of the victim's queue a site touches.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Word {
    /// Control word `k` of the first allocation: the SWS stealval, or the
    /// SDC lock, tail or split.
    Ctl(usize),
    /// Any completion word (second allocation).
    Comp,
    /// A run of task-buffer words (third allocation).
    Payload,
}

/// What the fetched stealval told a claiming thief.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Claim {
    /// The gate was closed: the fetch-add only bumped the counter.
    Closed,
    /// The advertisement had no steals left.
    Exhausted,
    /// The attempted-steals counter was already at its 24-bit limit
    /// ([`decode`] only: the thief reads such a word by its gate).
    Overflow,
    /// The thief owns a block.
    Live(Block),
}

/// A claimed block, as either protocol's thief reads it: the completion
/// word it reports into, where its tasks start and how many there are.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct Block {
    /// Index of its completion word within the completion block
    /// ([`sws_comp`], [`sdc_comp`]).
    pub comp: u64,
    /// Ring slot of the block's first task.
    pub start_slot: u64,
    /// Tasks in the block.
    pub volume: u64,
}

/// The protocol step one captured op represents. Thief-side steps are
/// what a steal span is made of; owner-side steps only matter to the
/// replay, which applies every step to its model of the victim.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Step {
    /// Owner: a read of its own control or completion word.
    OwnerRead,
    /// Owner: a fresh SWS advertisement under `epoch` admitting `steals`
    /// claims.
    Advertise {
        /// Completion epoch of the new advertisement.
        epoch: u64,
        /// Claims the advertisement admits.
        steals: u64,
    },
    /// Owner: the SWS gate swapped closed.
    Close,
    /// Owner: a completion word reset to zero.
    Zero,
    /// Owner: a compare-swap taking an abandoned claim back.
    Reclaim {
        /// The CAS found the expected value.
        won: bool,
    },
    /// Owner: a new SDC split.
    Split,
    /// Thief: a read-only look at the SWS stealval (§4.3 damping).
    Probe,
    /// Thief: the SWS claim fetch-add.
    Claim(Claim),
    /// Thief: the block copy.
    Payload,
    /// Thief: a completion that took effect, carrying the stolen volume.
    Landed {
        /// Tasks the thief took.
        tasks: u64,
    },
    /// Thief: the claim poisoned after a failed copy.
    Poisoned {
        /// The CAS found the expected value.
        won: bool,
    },
    /// Thief: a finalizing CAS that found the owner had reclaimed first.
    LostRace,
    /// Thief (or parking owner): the SDC lock CAS.
    Lock {
        /// The lock was free.
        won: bool,
    },
    /// Thief: the SDC tail/split read.
    Meta {
        /// The shared section held nothing (`split <= tail`).
        empty: bool,
    },
    /// Thief: the advanced SDC tail, published under the lock.
    TailPut,
    /// The SDC lock released.
    Unlock,
    /// Thief: the fault-mode claim marker, stored before the tail put.
    Marker,
    /// Thief: the marker rolled back after a tail put that never landed.
    Rollback {
        /// The CAS found the marker.
        won: bool,
    },
}

/// Read the stealval `raw` a claim's fetch-add returned, as the thief
/// does (§4): a closed gate, an advertisement with no block left at the
/// thief's index, or that block. A full counter reads by its gate.
pub fn sws_claim(cfg: &QueueConfig, raw: u64) -> Claim {
    let sv = cfg.layout.decode(raw);
    let Gate::Open { epoch } = sv.gate else {
        return Claim::Closed;
    };
    if exhausted(cfg.policy, &sv) {
        return Claim::Exhausted;
    }
    let (policy, itasks, index) = (cfg.policy, sv.itasks as u64, sv.asteals as u64);
    let start = sv.tail as u64 + policy.claimed_before(itasks, index);
    Claim::Live(Block {
        comp: sws_comp(cfg, epoch as u64, index),
        start_slot: Ring::new(cfg.capacity).slot(start) as u64,
        volume: policy.volume(itasks, index),
    })
}

/// The SWS completion word of claim `index` of an advertisement under
/// `epoch`: each epoch owns [`StealPolicy::slot_budget`] words, one per
/// claim an advertisement can admit ([`decode`] holds every advertisement
/// to that many).
pub fn sws_comp(cfg: &QueueConfig, epoch: u64, index: u64) -> u64 {
    epoch * cfg.policy.slot_budget() as u64 + index
}

/// The damped probe's verdict on the stealval `raw` it read (§4.3): may a
/// claim find work? A closed gate may reopen with some.
pub fn sws_probe(cfg: &QueueConfig, raw: u64) -> bool {
    let sv = cfg.layout.decode(raw);
    sv.gate == Gate::Closed || !exhausted(cfg.policy, &sv)
}

/// Has every block of the advertisement `sv` names been claimed?
fn exhausted(policy: StealPolicy, sv: &StealVal) -> bool {
    sv.asteals as u64 >= policy.max_steals(sv.itasks as u64)
}

/// The owner's reading of its own stealval `sv` against the live
/// advertisement of `itasks` tasks it published: the claims taken (bumps
/// past the last block found it exhausted and took nothing).
pub fn claims_taken(policy: StealPolicy, itasks: u64, sv: &StealVal) -> u64 {
    (sv.asteals as u64).min(policy.max_steals(itasks))
}

/// The owner's reading of the same word: tasks of the advertisement no
/// claim has taken yet.
pub fn tasks_unclaimed(policy: StealPolicy, itasks: u64, sv: &StealVal) -> u64 {
    itasks - policy.claimed_before(itasks, claims_taken(policy, itasks, sv))
}

/// The block an SDC thief claims from the `tail` and `split` it read
/// under the lock (§3): the policy's first steal of the shared section,
/// or `None` when the section is empty.
pub fn sdc_claim(cfg: &QueueConfig, tail: u64, split: u64) -> Option<Block> {
    (split > tail).then(|| Block {
        comp: sdc_comp(cfg, tail),
        start_slot: sdc_comp(cfg, tail),
        volume: cfg.policy.volume(split - tail, 0),
    })
}

/// The SDC completion word of the block starting at absolute index
/// `tail`: the completion ring has one word per task slot, and a block
/// reports into its first task's.
pub fn sdc_comp(cfg: &QueueConfig, tail: u64) -> u64 {
    Ring::new(cfg.capacity).slot(tail) as u64
}

/// Completion-word flags. Volumes are bounded by the 19-bit itasks field,
/// so the top bits are free; the highest flag set decides the reading.
const COMP_POISON: u64 = 1 << 63;
const COMP_RECLAIMED: u64 = 1 << 62;
const COMP_CLAIMED: u64 = 1 << 61;
const COMP_VOL_MASK: u64 = COMP_CLAIMED - 1;

/// What a completion word says: thieves and owners write
/// [`Completion::word`], owners and [`decode`] call [`Completion::read`].
/// The flagged forms exist in fault mode only (DESIGN.md §6).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Completion {
    /// Zero: no completion yet — the slot's fresh state.
    Pending,
    /// The thief landed a block of this many tasks.
    Done(u64),
    /// The thief claimed a block it could not copy and gave it back to
    /// the owner to re-enqueue at once; SDC carries the volume, SWS 0.
    Poisoned(u64),
    /// SDC: a thief claimed a block of this many tasks and is copying it
    /// — the marker the owner reclaims if the thief never finishes.
    Claimed(u64),
    /// SWS: the owner reclaimed an abandoned claim after the grace
    /// period; the block runs at the owner. The mark lasts only until
    /// the slot's next use, so thieves stop writing completion words half
    /// a grace period after their claim, before the owner may reclaim.
    Reclaimed,
}

impl Completion {
    /// The largest volume a completion word carries.
    pub const MAX_VOLUME: u64 = COMP_VOL_MASK;

    /// The word that says this.
    pub fn word(self) -> u64 {
        match self {
            Completion::Pending => 0,
            Completion::Done(vol) => vol,
            Completion::Poisoned(vol) => COMP_POISON | vol,
            Completion::Claimed(vol) => COMP_CLAIMED | vol,
            Completion::Reclaimed => COMP_RECLAIMED,
        }
    }

    /// What the word `w` says.
    pub fn read(w: u64) -> Completion {
        let vol = w & COMP_VOL_MASK;
        if w == 0 {
            Completion::Pending
        } else if w & COMP_POISON != 0 {
            Completion::Poisoned(vol)
        } else if w & COMP_RECLAIMED != 0 {
            Completion::Reclaimed
        } else if w & COMP_CLAIMED != 0 {
            Completion::Claimed(vol)
        } else {
            Completion::Done(vol)
        }
    }
}

/// Decode the op `e`, captured at `site` under queue shape `cfg`, into
/// the protocol step it is. `Err` names the operands the protocol issues
/// at that site when `e`'s are not among them. The caller has checked
/// that the site admits the op's shape ([`crate::ordering::SiteRow::ops`]).
pub fn decode(cfg: &QueueConfig, site: AtomicSite, e: &ProtoEvent) -> Result<Step, &'static str> {
    use AtomicSite::*;
    use Completion::{Claimed, Done, Pending, Poisoned, Reclaimed};
    let won = e.prev == e.arg2; // compare-swaps only
    let policy = cfg.policy;
    Ok(match (site, e.op) {
        (SwsOwnerAdvertise, _) => {
            let sv = cfg.layout.decode(e.arg);
            let steals = policy.max_steals(sv.itasks as u64);
            match sv.gate {
                Gate::Open { epoch } if sv.asteals == 0 && steals <= policy.slot_budget() as u64 => {
                    Step::Advertise { epoch: epoch as u64, steals }
                }
                _ => return Err("an open gate with asteals = 0 and claims within the slot budget"),
            }
        }
        (SwsOwnerAcquireSwap, _) if cfg.layout.decode(e.arg).gate == Gate::Closed => Step::Close,
        (SwsOwnerAcquireSwap, _) => return Err("a closed-gate encoding"),
        (SwsThiefProbe, _) => Step::Probe,
        (SwsThiefClaim, _) if e.arg != ASTEAL_UNIT => return Err("a fetch-add of ASTEAL_UNIT"),
        // The fetch-add returned the pre-claim stealval.
        (SwsThiefClaim, _) if cfg.layout.decode(e.prev).asteals_full() => Step::Claim(Claim::Overflow),
        (SwsThiefClaim, _) => Step::Claim(sws_claim(cfg, e.prev)),
        (SwsThiefPayloadRead | SdcPayloadRead, _) => Step::Payload,
        (SwsOwnerSlotZero | SdcReclaimZero, _) if e.arg == 0 => Step::Zero,
        (SdcUnlock, _) if e.arg == 0 => Step::Unlock,
        (SwsOwnerSlotZero | SdcReclaimZero | SdcUnlock, _) => return Err("a store of 0"),
        (SwsOwnerSvRead | SdcOwnerTailRead, _)
        | (SwsOwnerReclaimRead | SdcReclaimRead, ProtoOp::Fetch) => Step::OwnerRead,
        (SwsOwnerReclaimRead, _) if e.arg == Reclaimed.word() && e.arg2 == 0 => Step::Reclaim { won },
        (SwsOwnerReclaimRead, _) => return Err("a CAS of 0 → COMP_RECLAIMED"),
        (SdcReclaimRead, _) if e.arg == 0 => Step::Reclaim { won },
        (SdcReclaimRead, _) => return Err("a reclaim CAS to 0"),
        (SwsThiefComplete | SdcComplete, ProtoOp::SetNbi) => Step::Landed { tasks: e.arg },
        (SdcComplete, ProtoOp::Set) => match Completion::read(e.arg) {
            Claimed(vol) if vol != 0 => Step::Marker,
            _ => return Err("a COMP_CLAIMED marker with a nonzero volume"),
        },
        (SwsThiefComplete, _) if e.arg2 != 0 => return Err("a CAS expecting 0"),
        (SdcComplete, _) if e.arg == 0 && won && !matches!(Completion::read(e.arg2), Claimed(_)) => {
            return Err("a marker rollback")
        }
        (SdcComplete, _) if e.arg == 0 => Step::Rollback { won },
        (SwsThiefComplete | SdcComplete, _) => match Completion::read(e.arg) {
            Poisoned(_) => Step::Poisoned { won },
            Claimed(_) | Reclaimed => return Err("a plain or poisoned volume"),
            Pending | Done(_) if won => Step::Landed { tasks: e.arg },
            Pending | Done(_) => Step::LostRace,
        },
        (SdcLockCas, _) if e.arg == 1 && e.arg2 == 0 => Step::Lock { won },
        (SdcLockCas, _) => return Err("a CAS of 0 → 1"),
        (SdcMetaRead, _) => Step::Meta { empty: sdc_claim(cfg, e.prev, e.arg2).is_none() },
        (SdcTailPut, _) => Step::TailPut,
        (SdcSplitPublish, _) => Step::Split,
        // The owner-local payload stores are never captured.
        _ => return Err("a site the capture layer sees"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stealval::ASTEALS_BITS;
    use sws_shmem::{run_world, WorldConfig};

    fn cfg() -> QueueConfig {
        QueueConfig::new(100, 24)
    }

    fn ev(site: AtomicSite, op: ProtoOp, arg: u64, arg2: u64, prev: u64) -> ProtoEvent {
        ProtoEvent { t_ns: 0, issuer: 1, target: 0, offset: 0, len: 1, site: site.id(), attempt: 0, op, arg, arg2, prev }
    }

    #[test]
    fn geometry_spans_exactly_what_the_constructors_allocate() {
        let line = CACHE_LINE_WORDS as u64;
        for proto in [Protocol::Sws, Protocol::Sdc] {
            run_world(WorldConfig::virtual_time(1, 1 << 16), move |ctx| {
                // A one-word allocation on either side of the queue's
                // three: the first fixes where the control block lands,
                // the second shows where the task buffer ended.
                let before = ctx.alloc_words_aligned(1).word() as u64;
                match proto {
                    Protocol::Sws => drop(SwsQueue::new(ctx, cfg())),
                    Protocol::Sdc => drop(SdcQueue::new(ctx, cfg())),
                }
                let after = ctx.alloc_words_aligned(1).word() as u64;
                let g = proto.geometry(&cfg(), before + line);
                assert_eq!(g.words.map(|w| w as usize), proto.blocks(&cfg()));
                assert!(g.base.iter().all(|b| b % line == 0), "{g:?}");
                assert_eq!((g.base[2] + g.words[2]).div_ceil(line) * line, after);
                assert_eq!(g.range(Word::Ctl(2)), (g.base[0] + 2, 1));
                assert_eq!(g.range(Word::Comp), (g.base[1], g.words[1]));
            })
            .expect("world runs");
        }
    }

    #[test]
    fn a_claim_decodes_as_the_thief_reads_it() {
        let claim = |sv: StealVal| {
            let raw = cfg().layout.encode(sv);
            decode(&cfg(), AtomicSite::SwsThiefClaim, &ev(AtomicSite::SwsThiefClaim, ProtoOp::FetchAdd, ASTEAL_UNIT, 0, raw))
        };
        let open = |asteals, itasks, tail| StealVal { asteals, gate: Gate::Open { epoch: 1 }, itasks, tail };
        // Steal-half of 8 from slot 98 of a 100-slot ring: 4 tasks, then 2
        // starting 4 further on (wrapped), then 1, then nothing. Epoch 1's
        // completion words follow epoch 0's 21.
        assert_eq!(
            claim(open(0, 8, 98)),
            Ok(Step::Claim(Claim::Live(Block { comp: 21, start_slot: 98, volume: 4 })))
        );
        assert_eq!(
            claim(open(1, 8, 98)),
            Ok(Step::Claim(Claim::Live(Block { comp: 22, start_slot: 2, volume: 2 })))
        );
        assert_eq!(claim(open(9, 8, 98)), Ok(Step::Claim(Claim::Exhausted)));
        let closed = StealVal { asteals: 3, gate: Gate::Closed, itasks: 0, tail: 0 };
        assert_eq!(claim(closed), Ok(Step::Claim(Claim::Closed)));
        let full = StealVal { asteals: (1 << ASTEALS_BITS) - 1, ..closed };
        assert_eq!(claim(full), Ok(Step::Claim(Claim::Overflow)));
        let two_units = ev(AtomicSite::SwsThiefClaim, ProtoOp::FetchAdd, 2 * ASTEAL_UNIT, 0, 0);
        assert!(decode(&cfg(), AtomicSite::SwsThiefClaim, &two_units).is_err());
        // An advertisement admits no more claims than its epoch has
        // completion words: steal-one's 64.
        let one = cfg().with_policy(StealPolicy::One);
        let advert = |itasks| {
            let raw = one.layout.encode(open(0, itasks, 0));
            decode(&one, AtomicSite::SwsOwnerAdvertise, &ev(AtomicSite::SwsOwnerAdvertise, ProtoOp::Set, raw, 0, 0))
        };
        assert_eq!(advert(64), Ok(Step::Advertise { epoch: 1, steals: 64 }));
        assert!(advert(65).is_err());
        // The probe says "work" unless the advertisement is exhausted.
        let probe = |sv| sws_probe(&cfg(), cfg().layout.encode(sv));
        assert!(probe(open(1, 8, 98)) && probe(closed) && !probe(open(4, 8, 98)));
        // An SDC block reports into its first task's slot of the ring.
        assert_eq!(sdc_claim(&cfg(), 5, 5), None);
        assert_eq!(sdc_claim(&cfg(), 205, 212), Some(Block { comp: 5, start_slot: 5, volume: 3 }));
    }

    #[test]
    fn completion_words_decode_by_flag_and_race() {
        use AtomicSite::{SdcComplete, SwsOwnerReclaimRead, SwsThiefComplete};
        use ProtoOp::{CompareSwap, Set, SetNbi};
        let marker = Completion::Claimed(3).word();
        let (poison, reclaimed) = (Completion::Poisoned(0).word(), Completion::Reclaimed.word());
        let cases = [
            (SwsThiefComplete, SetNbi, 4, 0, 0, Ok(Step::Landed { tasks: 4 })),
            (SwsThiefComplete, CompareSwap, 4, 0, 0, Ok(Step::Landed { tasks: 4 })),
            (SwsThiefComplete, CompareSwap, 4, 0, reclaimed, Ok(Step::LostRace)),
            (SwsThiefComplete, CompareSwap, poison, 0, 0, Ok(Step::Poisoned { won: true })),
            (SwsThiefComplete, CompareSwap, 4, 1, 1, Err("a CAS expecting 0")),
            (SdcComplete, Set, marker, 0, 0, Ok(Step::Marker)),
            (SdcComplete, Set, 3, 0, 0, Err("a COMP_CLAIMED marker with a nonzero volume")),
            (SdcComplete, CompareSwap, 0, marker, marker, Ok(Step::Rollback { won: true })),
            (SdcComplete, CompareSwap, 0, marker, 0, Ok(Step::Rollback { won: false })),
            (SdcComplete, CompareSwap, 0, 3, 3, Err("a marker rollback")),
            (SdcComplete, CompareSwap, 3, marker, marker, Ok(Step::Landed { tasks: 3 })),
            (SdcComplete, CompareSwap, 3, marker, 0, Ok(Step::LostRace)),
            (SdcComplete, CompareSwap, poison | 3, marker, 0, Ok(Step::Poisoned { won: false })),
            (SdcComplete, CompareSwap, reclaimed | 3, marker, marker, Err("a plain or poisoned volume")),
            (SwsOwnerReclaimRead, CompareSwap, reclaimed, 0, 0, Ok(Step::Reclaim { won: true })),
            (SwsOwnerReclaimRead, CompareSwap, 7, 0, 0, Err("a CAS of 0 → COMP_RECLAIMED")),
        ];
        for (site, op, arg, arg2, prev, want) in cases {
            assert_eq!(decode(&cfg(), site, &ev(site, op, arg, arg2, prev)), want, "{site:?} {op:?} {arg:#x}");
        }
        use Completion::*;
        for c in [Pending, Done(4), Poisoned(0), Poisoned(3), Claimed(3), Reclaimed] {
            assert_eq!(Completion::read(c.word()), c);
        }
    }

    #[test]
    fn table_one_is_the_clean_budget() {
        let (sws, sdc) = (Protocol::Sws.comm_budget(false), Protocol::Sdc.comm_budget(false));
        assert_eq!((sws.max_core_ops, sws.max_core_blocking, sws.exact), (3, 2, false));
        assert_eq!((sdc.max_core_ops, sdc.max_core_blocking, sdc.exact), (6, 5, true));
        assert_eq!((Protocol::Sws.label(), Protocol::Sdc.label()), ("SWS", "SDC"));
    }
}
