//! The SWS (structured-atomic) half of the scenario machine.
//!
//! [`crate::machine`] owns what every protocol's scenario does — the
//! script, the ring, `Enqueue`/`PopAll`, a thief's block copy and
//! completion store, conservation. This module adds what is SWS: the
//! owner's advertisement records and epoch slots, advertise, the gate
//! swap, the reclaim pass, and a thief's probe and claim on the stealval
//! word. It mirrors `sws-core`'s `SwsQueue` step for step, one atomic op
//! per step. The packed-word arithmetic is *not* re-modeled: the machine
//! calls the real [`Layout`] encode/decode and reads every word with the
//! production queue's own [`sws_core::protocol`] functions — a claim with
//! `sws_claim`, a probe with `sws_probe`, the owner's claim count with
//! `claims_taken` — so the checker exercises the production bit-packing
//! and volume schedule against every interleaving.
//!
//! Runtime monitors (checked at the serialization points, i.e. the RMWs
//! on the stealval word) assert the protocol invariant catalog:
//!
//! * **decode exactness / field disjointness** — the value a thief's
//!   fetch-add observes must decode to exactly what the owner last
//!   published plus the number of intervening claim bumps; any bleed of
//!   `asteals` into owner fields (or vice versa) breaks this;
//! * **epoch-lock semantics** — when the owner has closed the gate
//!   (epoch bits above `MAX_EPOCHS-1`), no claim may decode as open;
//! * **asteals monotonicity & 24-bit overflow freedom** — the bump count
//!   per advertisement must match the counter and stay below 2²⁴;
//! * **completion reconciliation** — each completion slot must carry
//!   exactly the volume the steal-half schedule assigns to that steal;
//! * **task conservation** — at an end state, every enqueued task was
//!   executed exactly once (the shared machine's end check).

use std::collections::VecDeque;
use std::fmt::Debug;

use sws_core::protocol::{
    claims_taken, sws_claim, sws_comp, sws_probe, tasks_unclaimed, Claim, Completion,
};
use sws_core::stealval::{Gate, Layout, StealVal, ASTEALS_MASK, ASTEAL_UNIT};
use sws_core::{AtomicSite as Site, Protocol, QueueConfig};

use crate::explore::Chooser;
use crate::machine::{proto, Core, Half, Machine, Sites, Steps};
use crate::mem::{Memory, OrdTable, Violation};
use crate::OwnerOp;

/// The SWS state of a scenario.
#[derive(Clone, Hash, Debug)]
pub(crate) struct Sws {
    pc: OPc,
    epochs: VecDeque<Rec>,
    slot_busy: Vec<bool>,
    pending: Option<Pending>,
    thieves: Vec<Thief>,
    oracle: Oracle,
}

#[derive(Clone, Hash, Debug, Default)]
struct Rec {
    slot: u8,
    tail: u64,
    itasks: u32,
    claimed: u32,
    finished: u32,
    open: bool,
}

#[derive(Clone, Hash, Debug)]
struct Pending {
    tail: u64,
    k: u32,
}

/// What closing an advertisement left: its epoch slot, the tail past
/// the claimed blocks, and the unclaimed volume.
#[derive(Clone, Copy, Hash, Debug, PartialEq, Eq)]
struct Closed {
    slot: u8,
    new_tail: u64,
    unclaimed: u64,
}

#[derive(Clone, Copy, Hash, Debug, PartialEq, Eq)]
enum Cont {
    Slot,
    Acquire(Closed),
    Progress,
    Retire,
}

#[derive(Clone, Hash, Debug, PartialEq)]
enum OPc {
    Next,
    RelReadSv,
    /// A reclaim pass that goes on with `cont`: at the front record.
    Reclaim {
        cont: Cont,
    },
    /// … reading the live advertisement's claim count from the word.
    ReclaimSv {
        cont: Cont,
    },
    /// … reading the front record's completion slots below `n`.
    ReclaimComp {
        n: u32,
        cont: Cont,
    },
    SlotWait,
    AdvZero {
        slot: u8,
    },
    AdvPublish {
        slot: u8,
    },
    AcqSwap,
    RetireSwap,
}

/// Where a thief without a block stands.
#[derive(Clone, Copy, Hash, Debug)]
enum TPc {
    /// §4.3 damped mode: read-only probe of the stealval word; the thief
    /// may only move to [`TPc::Claim`] after observing available work.
    Probe,
    Claim,
}

#[derive(Clone, Hash, Debug)]
struct Thief {
    pc: TPc,
    /// §4.3 steal damping: this thief must probe before every claim.
    damped: bool,
    /// A probe observed available work since the last claim.
    cleared: bool,
}

impl Thief {
    /// Where every attempt starts: a damped thief at the read-only
    /// probe, an undamped one claims directly.
    fn restart(&mut self) {
        self.pc = if self.damped { TPc::Probe } else { TPc::Claim };
    }
}

/// Ground-truth mirror of the stealval word, updated at the owner's
/// publishes and consulted at every RMW serialization point. The default
/// is the word the gate swap writes: closed, no bumps yet.
#[derive(Clone, Hash, Debug, Default)]
struct Oracle {
    /// The epoch the owner last published under; `None`: it closed the
    /// gate (`itasks` and `tail` zero).
    epoch: Option<u8>,
    itasks: u32,
    tail: u32,
    /// Fetch-add bumps since the owner last wrote the word.
    bumps: u64,
}

impl Sws {
    /// Decode-exactness monitor at an RMW serialization point: `old` is
    /// the word value the RMW observed; it must equal the oracle's last
    /// published state plus the recorded claim bumps.
    fn check_rmw_view(&self, layout: Layout, old: u64) -> Result<StealVal, Violation> {
        let sv = layout.decode(old);
        if self.oracle.bumps > ASTEALS_MASK {
            return Err(proto(
                "overflow",
                format!(
                    "{} claim bumps exceed the 24-bit asteals field",
                    self.oracle.bumps
                ),
            ));
        }
        let o = &self.oracle;
        let want = StealVal {
            asteals: o.bumps as u32,
            gate: o.epoch.map_or(Gate::Closed, |epoch| Gate::Open { epoch }),
            itasks: o.itasks,
            tail: o.tail,
        };
        if sv != want {
            return Err(proto(
                "decode",
                format!(
                    "word decodes to {sv:?} but the owner published {want:?} (asteals: its \
                     bumps since) — counter not monotonic, fields bled into each other, or \
                     a gate the owner holds closed decodes open"
                ),
            ));
        }
        Ok(sv)
    }

    fn exit_reclaim(&mut self, c: &mut Core, cont: Cont) {
        self.pc = match cont {
            Cont::Slot => OPc::SlotWait,
            Cont::Progress => OPc::Next,
            Cont::Retire if self.epochs.is_empty() => OPc::Next,
            Cont::Retire => OPc::Reclaim { cont },
            Cont::Acquire(a) => {
                // Take back the upper half of what is unclaimed and
                // re-advertise the rest — nothing, on a miss, under the
                // same epoch slot.
                let keep = a.unclaimed / 2;
                c.owner.split -= a.unclaimed - keep;
                self.pending = Some(Pending {
                    tail: a.new_tail,
                    k: keep as u32,
                });
                if keep == 0 {
                    OPc::AdvZero { slot: a.slot }
                } else {
                    OPc::SlotWait
                }
            }
        };
    }

    /// Close the back (open) advertisement record given the stealval the
    /// owner observed, and say what that left.
    fn close_back(&mut self, c: &Core, sv: &StealVal) -> Closed {
        let policy = c.cfg.policy;
        let rec = self.epochs.back_mut().expect("open back record");
        let itasks = rec.itasks as u64;
        rec.claimed = claims_taken(policy, itasks, sv) as u32;
        rec.open = false;
        let unclaimed = tasks_unclaimed(policy, itasks, sv);
        Closed {
            slot: rec.slot,
            new_tail: rec.tail + itasks - unclaimed,
            unclaimed,
        }
    }

    /// Make the older half of the local portion, at most `limit` tasks,
    /// the next advertisement.
    fn expose(&mut self, c: &mut Core, limit: u64) {
        let nlocal = c.owner.head - c.owner.split;
        let k = (nlocal - nlocal / 2).min(limit);
        self.pending = Some(Pending {
            tail: c.owner.split,
            k: k as u32,
        });
        c.owner.split += k;
        self.pc = OPc::SlotWait;
    }

    /// Start script op `op`.
    fn begin(&mut self, c: &mut Core, op: OwnerOp) {
        let live = self.epochs.back().is_some_and(|r| r.open);
        let local = c.owner.head - c.owner.split;
        match op {
            OwnerOp::Release if local == 0 => {} // nothing local to expose
            OwnerOp::Release if live => self.pc = OPc::RelReadSv,
            // No live advertisement (post-retire): expose directly.
            OwnerOp::Release => self.expose(c, u64::MAX),
            // Acquire only runs with an empty local deque.
            OwnerOp::Acquire if local == 0 && live => self.pc = OPc::AcqSwap,
            OwnerOp::Acquire => {}
            OwnerOp::Progress => {
                self.pc = OPc::Reclaim {
                    cont: Cont::Progress,
                }
            }
            OwnerOp::Retire => self.pc = OPc::RetireSwap,
            OwnerOp::Enqueue | OwnerOp::PopAll => unreachable!("the shared machine runs {op:?}"),
        }
    }

    fn step_reclaim(&mut self, c: &mut Core, ch: &mut Chooser) -> Result<(), Violation> {
        let policy = c.cfg.policy;
        match self.pc.clone() {
            OPc::Reclaim { cont } => match self.epochs.front() {
                None => self.exit_reclaim(c, cont),
                Some(front) if front.open => self.pc = OPc::ReclaimSv { cont },
                Some(front) => {
                    self.pc = OPc::ReclaimComp {
                        n: front.claimed,
                        cont,
                    }
                }
            },
            OPc::ReclaimSv { cont } => {
                // The open record is the live advertisement: clamp its
                // claim count from the word.
                let v = c.mem.load(0, Site::SwsOwnerSvRead, 0, |n| ch.pick(n));
                let itasks = self.epochs.front().expect("front record").itasks as u64;
                let n = claims_taken(policy, itasks, &c.cfg.layout.decode(v)) as u32;
                self.pc = OPc::ReclaimComp { n, cont };
            }
            OPc::ReclaimComp { n, cont } => {
                let front = self.epochs.front().expect("front record").clone();
                if front.finished < n {
                    let w = sws_comp(&c.cfg, front.slot.into(), front.finished.into()) as usize;
                    let v = c.mem.load(0, Site::SwsOwnerReclaimRead, w, |m| ch.pick(m));
                    if Completion::read(v) == Completion::Pending {
                        // Steal claimed but not yet completed: stop here.
                        self.exit_reclaim(c, cont);
                        return Ok(());
                    }
                    let expect = policy.volume(front.itasks as u64, front.finished as u64);
                    if Completion::read(v) != Completion::Done(expect) {
                        return Err(proto(
                            "reconciliation",
                            format!(
                                "completion slot {} of epoch {} holds {v}, steal-half \
                                 schedule says {expect}",
                                front.finished, front.slot
                            ),
                        ));
                    }
                    let fr = self.epochs.front_mut().expect("front record");
                    fr.finished += 1;
                    c.owner.reclaimed += v;
                    // pc unchanged: re-enter Comp for the next slot.
                } else if !front.open {
                    // Fully drained epoch: free its completion slot set.
                    self.slot_busy[front.slot as usize] = false;
                    self.epochs.pop_front();
                    self.pc = OPc::Reclaim { cont };
                } else {
                    // Live advertisement reconciled as far as claims go.
                    self.exit_reclaim(c, cont);
                }
            }
            pc => unreachable!("{pc:?} is no reclaim step"),
        }
        Ok(())
    }
}

const SITES: Sites = Sites {
    write: Site::SwsOwnerPayloadWrite,
    read: Site::SwsThiefPayloadRead,
    complete: Site::SwsThiefComplete,
};

impl Steps for Sws {
    fn step_owner(&mut self, c: &mut Core, ch: &mut Chooser) -> Result<(), Violation> {
        let (layout, policy) = (c.cfg.layout, c.cfg.policy);
        match self.pc.clone() {
            OPc::Next => {
                if let Some(op) = c.next_op()? {
                    self.begin(c, op);
                }
            }
            OPc::RelReadSv => {
                let v = c.mem.load(0, Site::SwsOwnerSvRead, 0, |n| ch.pick(n));
                let sv = layout.decode(v);
                let itasks = self.epochs.back().expect("open back record").itasks as u64;
                if tasks_unclaimed(policy, itasks, &sv) > 0 {
                    // Advertised work not fully claimed yet: release fails.
                    self.pc = OPc::Next;
                    return Ok(());
                }
                self.close_back(c, &sv);
                self.expose(c, policy.max_advert(layout.max_itasks() as u64));
            }
            OPc::SlotWait => {
                self.pc = match self.slot_busy.iter().position(|&b| !b) {
                    Some(free) => OPc::AdvZero { slot: free as u8 },
                    // §4.1 polling: no free completion slot set — reclaim
                    // until an epoch drains (the ValidBit acquire stall).
                    None => OPc::Reclaim { cont: Cont::Slot },
                };
            }
            OPc::AdvZero { slot } => {
                let k = self.pending.as_ref().expect("pending advert").k;
                for s in 0..policy.max_steals(k as u64) {
                    let w = sws_comp(&c.cfg, slot.into(), s) as usize;
                    c.mem.store(0, Site::SwsOwnerSlotZero, w, 0);
                }
                self.pc = OPc::AdvPublish { slot };
            }
            OPc::AdvPublish { slot } => {
                let p = self.pending.take().expect("pending advert");
                let tail_ring = c.ring.slot(p.tail) as u32;
                let enc = layout
                    .try_encode(StealVal {
                        asteals: 0,
                        gate: Gate::Open { epoch: slot },
                        itasks: p.k,
                        tail: tail_ring,
                    })
                    .map_err(|e| proto("decode", format!("advertise encode: {e}")))?;
                c.mem.store(0, Site::SwsOwnerAdvertise, 0, enc);
                self.epochs.push_back(Rec {
                    slot,
                    tail: p.tail,
                    itasks: p.k,
                    open: true,
                    ..Rec::default()
                });
                self.slot_busy[slot as usize] = true;
                self.oracle = Oracle {
                    epoch: Some(slot),
                    itasks: p.k,
                    tail: tail_ring,
                    bumps: 0,
                };
                self.pc = OPc::Next;
            }
            OPc::AcqSwap | OPc::RetireSwap => {
                let retire = self.pc == OPc::RetireSwap;
                let closed = layout.encode(StealVal {
                    gate: Gate::Closed,
                    ..StealVal::empty()
                });
                let old = c.mem.swap(0, Site::SwsOwnerAcquireSwap, 0, closed);
                let sv = self.check_rmw_view(layout, old)?;
                self.oracle = Oracle::default();
                if !retire {
                    let left = self.close_back(c, &sv);
                    self.pc = OPc::Reclaim {
                        cont: Cont::Acquire(left),
                    };
                } else {
                    let back_open = self.epochs.back().is_some_and(|r| r.open);
                    if sv.gate != Gate::Closed && back_open {
                        // Unclaimed shared tasks come back to the owner.
                        c.owner.split -= self.close_back(c, &sv).unclaimed;
                    }
                    self.pc = OPc::Reclaim { cont: Cont::Retire };
                }
            }
            OPc::Reclaim { .. } | OPc::ReclaimSv { .. } | OPc::ReclaimComp { .. } => {
                return self.step_reclaim(c, ch)
            }
        }
        Ok(())
    }

    fn step_thief(&mut self, c: &mut Core, t: usize, ch: &mut Chooser) -> Result<(), Violation> {
        if c.out_of_attempts(t) {
            return Ok(());
        }
        let th = &mut self.thieves[t - 1];
        match th.pc {
            TPc::Probe => {
                // Read-only probe (§4.3): a plain load, never a fetch-add
                // — the structural half of the damping contract, which
                // the site's catalog row holds the memory to. The load
                // may legally observe stale values, so its view is not
                // held to RMW decode exactness.
                let v = c.mem.load(t, Site::SwsThiefProbe, 0, |n| ch.pick(n));
                if sws_probe(&c.cfg, v) {
                    th.cleared = true;
                    th.pc = TPc::Claim;
                } else {
                    // Empty-mode target: back off without touching the
                    // word. Burns an attempt so exploration terminates.
                    c.thieves[t - 1].attempts -= 1;
                }
            }
            TPc::Claim => {
                if th.damped && !th.cleared {
                    return Err(proto(
                        "damping",
                        format!(
                            "damped thief {t} issued a claiming fetch-add without a \
                             work-observing probe (§4.3 contract)"
                        ),
                    ));
                }
                c.thieves[t - 1].attempts -= 1;
                th.cleared = false;
                // With a block or without (closed gate, exhausted
                // advertisement), the next attempt starts over: a damped
                // thief must re-probe first.
                th.restart();
                let old = c.mem.fetch_add(t, Site::SwsThiefClaim, 0, ASTEAL_UNIT);
                self.check_rmw_view(c.cfg.layout, old)?;
                self.oracle.bumps += 1;
                // What the fetched word gives the thief is production's
                // own reading of it.
                if let Claim::Live(b) = sws_claim(&c.cfg, old) {
                    c.begin_copy(t, b.start_slot, b.volume, b.comp as usize);
                }
            }
        }
        Ok(())
    }

    fn check_end(&self, c: &Core) -> Result<(), Violation> {
        if !c.retires() {
            return Ok(());
        }
        if !self.epochs.is_empty() {
            return Err(proto(
                "reconciliation",
                format!(
                    "{} epoch records left undrained after retire",
                    self.epochs.len()
                ),
            ));
        }
        if self.slot_busy.iter().any(|&b| b) {
            return Err(proto(
                "reconciliation",
                "a completion slot set is still busy after retire".into(),
            ));
        }
        Ok(())
    }

    fn pc(&self, t: usize) -> &dyn Debug {
        match t {
            0 => &self.pc,
            _ => &self.thieves[t - 1].pc,
        }
    }
}

/// An SWS scenario on a `cap`-task ring under `layout`; `thief_attempts[i]`
/// is thief `i`'s number of claim attempts. `damped` puts every thief in
/// §4.3 damped mode: each attempt starts at [`TPc::Probe`], and a runtime
/// monitor rejects any claiming fetch-add that was not preceded by a
/// work-observing read-only probe.
fn scenario(
    name: &'static str,
    layout: Layout,
    cap: usize,
    script: &[OwnerOp],
    thief_attempts: &[u32],
    damped: bool,
    ords: &OrdTable,
) -> Machine {
    let mut slot_busy = vec![false; layout.n_epochs()];
    slot_busy[0] = true;
    let mut thief = Thief {
        pc: TPc::Claim,
        damped,
        cleared: false,
    };
    thief.restart();
    let half = Sws {
        pc: OPc::Next,
        epochs: VecDeque::from([Rec {
            open: true,
            ..Rec::default()
        }]),
        slot_busy,
        pending: None,
        thieves: vec![thief; thief_attempts.len()],
        oracle: Oracle {
            epoch: Some(0),
            ..Oracle::default()
        },
    };
    // One-word tasks under the default (steal-half) policy.
    let cfg = QueueConfig::new(cap, 8).with_layout(layout);
    let mut mem = Memory::new(
        1 + thief_attempts.len(),
        ords.clone(),
        Protocol::Sws.blocks(&cfg),
    );
    // The queue constructor publishes an empty open advertisement and
    // the world barriers before work starts: model as initial state.
    let sv = Site::SwsOwnerAdvertise.row().word;
    mem.set_init(sv, 0, layout.encode(StealVal::empty()));
    Machine::new(
        name,
        Half::Sws(half),
        SITES,
        cfg,
        script.to_vec(),
        thief_attempts,
        mem,
    )
}

/// The SWS scenario catalog (see [`crate::all_scenarios`]).
pub(crate) fn scenarios(ords: &OrdTable, audit_only: bool) -> Vec<Machine> {
    use OwnerOp::*;
    // Most scenarios run the paper's final design: epochs, undamped.
    let epochs = |name, cap, script: &[OwnerOp], thief_attempts: &[u32]| {
        scenario(
            name,
            Layout::Epochs,
            cap,
            script,
            thief_attempts,
            false,
            ords,
        )
    };
    let steal_all = [Enqueue, Enqueue, Release, Retire, PopAll];
    let mut v = vec![
        // The headline 2-PE scenario: one advertisement, one thief.
        epochs(
            "sws_basic",
            8,
            &[Enqueue, Enqueue, Enqueue, Release, Retire, PopAll],
            &[2],
        ),
        // Epoch flip: acquire closes the gate mid-steal and re-advertises
        // the unclaimed remainder under the other epoch.
        epochs(
            "sws_epoch_flip",
            8,
            &[
                Enqueue, Enqueue, Enqueue, Enqueue, Release, PopAll, Acquire, Retire, PopAll,
            ],
            &[2],
        ),
        // Ring reuse at capacity 2: an enqueue lands on a slot a thief
        // stole from — only legal once the completion has been reclaimed.
        epochs(
            "sws_ring_reuse",
            2,
            &[Enqueue, Enqueue, Release, Progress, Enqueue, Retire, PopAll],
            &[1],
        ),
        // §4.3 steal damping: the thief probes read-only and only
        // fetch-adds after observing available work. Exercises the
        // SwsThiefProbe site and the probe-before-claim monitor.
        scenario(
            "sws_damped_probe",
            Layout::Epochs,
            8,
            &steal_all,
            &[2],
            true,
            ords,
        ),
    ];
    if !audit_only {
        // 3 PEs: two thieves racing fetch-adds on one advertisement.
        v.push(epochs("sws_two_thieves", 8, &steal_all, &[1, 1]));
        // Fig. 3 layout: single epoch, advertise stalls on reclaim.
        v.push(scenario(
            "sws_validbit",
            Layout::ValidBit,
            8,
            &[
                Enqueue, Enqueue, Enqueue, Release, PopAll, Acquire, Retire, PopAll,
            ],
            &[2],
            false,
            ords,
        ));
        // Closed-gate hammering: more attempts than work, several of
        // them bound to land on a closed or exhausted word.
        v.push(epochs("sws_closed_gate", 8, &steal_all, &[3]));
    }
    v
}
