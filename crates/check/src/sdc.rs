//! The SDC (split deferred-copy) half of the scenario machine.
//!
//! SDC is the spinlock-plus-metadata design SWS is measured against: a
//! thief takes the queue lock, reads `tail`/`split`, publishes an
//! advanced tail, unlocks, then copies its block and posts a deferred
//! completion — six communications per steal. The checker's interest in
//! it is twofold: it validates the model (a textbook lock protocol must
//! come out clean under production orderings), and its audit rows show
//! *which* of those orderings do the work (the lock CAS/unlock pair and
//! the split publish carry the synchronization; several others turn out
//! to be covered by them).
//!
//! [`crate::machine`] owns the script, the ring, the block copy, the
//! completion store and conservation; this module adds the lock, the
//! tail/split words and the completion ring's reclaim. Monitors: lock
//! mutual exclusion is implied by the CAS semantics; the tail oracle
//! asserts claim serialization (two thieves claiming overlapping blocks
//! is task duplication); the lock must be free at an end state.

use std::fmt::Debug;

use sws_core::protocol::{sdc_claim, sdc_comp, Block};
use sws_core::{AtomicSite as Site, Protocol, QueueConfig};

use crate::explore::Chooser;
use crate::machine::{proto, Core, Half, Machine, Sites, Steps};
use crate::mem::{Memory, OrdTable, Violation};
use crate::OwnerOp;

/// The SDC state of a scenario.
#[derive(Clone, Hash, Debug)]
pub(crate) struct Sdc {
    pc: OPc,
    thieves: Vec<TPc>,
    /// Ground truth for the lock-protected tail: every claim must start
    /// exactly here.
    tail: u64,
}

/// What the owner takes back under the lock.
#[derive(Clone, Copy, Hash, Debug, PartialEq)]
enum Take {
    /// Acquire: the upper half of the shared region.
    UpperHalf,
    /// Retire: everything still unclaimed, then drain the claimed.
    All,
}

#[derive(Clone, Hash, Debug, PartialEq)]
enum OPc {
    Next,
    Lock { take: Take },
    Read { take: Take },
    Put { new_split: u64, take: Take },
    Unlock { take: Take },
    Reclaim { retire_to: Option<u64> },
    ReclaimZero { vol: u64, retire_to: Option<u64> },
}

/// Where a thief without a block stands.
#[derive(Clone, Hash, Debug)]
enum TPc {
    Claim,
    Lock,
    Meta,
    TailPut {
        tail: u64,
        block: Block,
    },
    /// Releasing the lock, with the tail it read and the block the tail
    /// put claimed (none: the shared region was empty).
    Unlock {
        block: Option<(u64, Block)>,
    },
}

const SITES: Sites = Sites {
    write: Site::SdcPayloadWrite,
    read: Site::SdcPayloadRead,
    complete: Site::SdcComplete,
};

impl Steps for Sdc {
    fn step_owner(&mut self, c: &mut Core, ch: &mut Chooser) -> Result<(), Violation> {
        match self.pc.clone() {
            OPc::Next => match c.next_op()? {
                Some(OwnerOp::Release) => {
                    let nlocal = c.owner.head - c.owner.split;
                    if nlocal > 0 {
                        // Lock-free release: grow split and publish it.
                        c.owner.split += nlocal - nlocal / 2;
                        c.mem.store(0, Site::SdcSplitPublish, 0, c.owner.split);
                    }
                }
                // Acquire only runs with an empty local deque.
                Some(OwnerOp::Acquire) if c.owner.head == c.owner.split => {
                    self.pc = OPc::Lock {
                        take: Take::UpperHalf,
                    }
                }
                Some(OwnerOp::Progress) => self.pc = OPc::Reclaim { retire_to: None },
                Some(OwnerOp::Retire) => self.pc = OPc::Lock { take: Take::All },
                _ => {}
            },
            OPc::Lock { take } => {
                if c.mem.cas(0, Site::SdcLockCas, 0, 0, 1) == 0 {
                    self.pc = OPc::Read { take };
                }
            }
            OPc::Read { take } => {
                let tail = c.mem.load(0, Site::SdcOwnerTailRead, 0, |n| ch.pick(n));
                if tail > c.owner.split {
                    return Err(proto(
                        "decode",
                        format!("tail {tail} ran past split {}", c.owner.split),
                    ));
                }
                let avail = c.owner.split - tail;
                self.pc = match take {
                    Take::UpperHalf if avail == 0 => OPc::Unlock { take }, // miss
                    Take::UpperHalf => OPc::Put {
                        new_split: tail + avail / 2,
                        take,
                    },
                    Take::All => OPc::Put {
                        new_split: tail,
                        take,
                    },
                };
            }
            OPc::Put { new_split, take } => {
                c.mem.store(0, Site::SdcSplitPublish, 0, new_split);
                c.owner.split = new_split;
                self.pc = OPc::Unlock { take };
            }
            OPc::Unlock { take } => {
                c.mem.store(0, Site::SdcUnlock, 0, 0);
                self.pc = match take {
                    Take::UpperHalf => OPc::Next,
                    Take::All => OPc::Reclaim {
                        retire_to: Some(c.owner.split),
                    },
                };
            }
            OPc::Reclaim { retire_to } => {
                // Progress stops at split: nothing below it is left to
                // reclaim. Retire drains to the final tail.
                if c.owner.reclaimed >= retire_to.unwrap_or(c.owner.split) {
                    self.pc = OPc::Next;
                    return Ok(());
                }
                let w = sdc_comp(&c.cfg, c.owner.reclaimed) as usize;
                let v = c.mem.load(0, Site::SdcReclaimRead, w, |n| ch.pick(n));
                if v != 0 {
                    self.pc = OPc::ReclaimZero { vol: v, retire_to };
                } else if retire_to.is_none() {
                    self.pc = OPc::Next;
                }
                // A retiring owner keeps polling (the revisit is pruned;
                // thief schedules run).
            }
            OPc::ReclaimZero { vol, retire_to } => {
                let w = sdc_comp(&c.cfg, c.owner.reclaimed) as usize;
                c.mem.store(0, Site::SdcReclaimZero, w, 0);
                c.owner.reclaimed += vol;
                if c.owner.reclaimed > self.tail {
                    return Err(proto(
                        "reconciliation",
                        format!(
                            "owner reclaimed {} past the true tail {}",
                            c.owner.reclaimed, self.tail
                        ),
                    ));
                }
                self.pc = OPc::Reclaim { retire_to };
            }
        }
        Ok(())
    }

    fn step_thief(&mut self, c: &mut Core, t: usize, ch: &mut Chooser) -> Result<(), Violation> {
        let pc = &mut self.thieves[t - 1];
        match pc.clone() {
            TPc::Claim => {
                if !c.out_of_attempts(t) {
                    c.thieves[t - 1].attempts -= 1;
                    *pc = TPc::Lock;
                }
            }
            TPc::Lock => {
                // Contended: retry (the unchanged-state revisit prunes;
                // progress comes from the lock holder's schedules).
                if c.mem.cas(t, Site::SdcLockCas, 0, 0, 1) == 0 {
                    *pc = TPc::Meta;
                }
            }
            TPc::Meta => {
                // The real protocol reads tail and split with one 2-word
                // get under the lock; model both loads in this step.
                let tail = c.mem.load(t, Site::SdcMetaRead, 0, |n| ch.pick(n));
                let split = c.mem.load(t, Site::SdcMetaRead, 1, |n| ch.pick(n));
                *pc = match sdc_claim(&c.cfg, tail, split) {
                    Some(block) => TPc::TailPut { tail, block },
                    None => TPc::Unlock { block: None },
                };
            }
            TPc::TailPut { tail, block } => {
                // Claim serialization: under the lock, the tail this
                // thief read must be the true tail — a stale read here
                // means two thieves will copy overlapping blocks.
                if tail != self.tail {
                    return Err(proto(
                        "conservation",
                        format!(
                            "thief {t} claims from tail {tail} but the true tail is {} \
                             (overlapping steal)",
                            self.tail
                        ),
                    ));
                }
                c.mem.store(t, Site::SdcTailPut, 0, tail + block.volume);
                self.tail = tail + block.volume;
                *pc = TPc::Unlock {
                    block: Some((tail, block)),
                };
            }
            TPc::Unlock { block } => {
                c.mem.store(t, Site::SdcUnlock, 0, 0);
                *pc = TPc::Claim;
                if let Some((tail, b)) = block {
                    c.begin_copy(t, tail, b.volume, b.comp as usize);
                }
            }
        }
        Ok(())
    }

    fn check_end(&self, c: &Core) -> Result<(), Violation> {
        if c.mem.latest(Site::SdcLockCas.row().word, 0) != 0 {
            return Err(proto("lock", "queue lock left held at quiescence".into()));
        }
        Ok(())
    }

    fn pc(&self, t: usize) -> &dyn Debug {
        match t {
            0 => &self.pc,
            _ => &self.thieves[t - 1],
        }
    }
}

/// An SDC scenario on a `cap`-task ring (see [`crate::sws`]'s).
fn scenario(
    name: &'static str,
    cap: usize,
    script: &[OwnerOp],
    thief_attempts: &[u32],
    ords: &OrdTable,
) -> Machine {
    let half = Sdc {
        pc: OPc::Next,
        thieves: vec![TPc::Claim; thief_attempts.len()],
        tail: 0,
    };
    // One-word tasks under the default (steal-half) policy.
    let cfg = QueueConfig::new(cap, 8);
    let mem = Memory::new(
        1 + thief_attempts.len(),
        ords.clone(),
        Protocol::Sdc.blocks(&cfg),
    );
    Machine::new(
        name,
        Half::Sdc(half),
        SITES,
        cfg,
        script.to_vec(),
        thief_attempts,
        mem,
    )
}

/// The SDC scenario catalog (see [`crate::all_scenarios`]): the shapes
/// of `sws_basic`, `sws_ring_reuse`, `sws_epoch_flip` and
/// `sws_two_thieves`.
pub(crate) fn scenarios(ords: &OrdTable, audit_only: bool) -> Vec<Machine> {
    use OwnerOp::*;
    let mut v = vec![
        scenario(
            "sdc_basic",
            8,
            &[Enqueue, Enqueue, Enqueue, Release, Retire, PopAll],
            &[2],
            ords,
        ),
        scenario(
            "sdc_ring_reuse",
            2,
            &[Enqueue, Enqueue, Release, Progress, Enqueue, Retire, PopAll],
            &[1],
            ords,
        ),
        scenario(
            "sdc_acquire",
            8,
            &[
                Enqueue, Enqueue, Enqueue, Enqueue, Release, PopAll, Acquire, Retire, PopAll,
            ],
            &[2],
            ords,
        ),
    ];
    if !audit_only {
        let steal_all = [Enqueue, Enqueue, Release, Retire, PopAll];
        v.push(scenario("sdc_two_thieves", 8, &steal_all, &[1, 1], ords));
    }
    v
}
