//! The scenario machine both protocol models run on.
//!
//! A scenario is one owner (thread 0) executing a script of [`OwnerOp`]s
//! against a ring of `capacity` one-word tasks, and `n` thieves (threads
//! 1..) each making a fixed number of steal attempts against it, over a
//! site-keyed [`Memory`]. Every scheduling quantum performs **at most one
//! atomic operation** — the granularity at which real PEs interleave
//! over the network.
//!
//! What the protocols share is written here once: the script dispatch
//! with `Enqueue` and `PopAll`, the thief's per-word block copy and its
//! completion store, the [`World`] and `Hash` impls, and the end-state
//! checks every work-stealing queue owes (task conservation; after a
//! retire, everything claimed was reclaimed). What differs — how the
//! owner exposes, takes back and reclaims work, and how a thief comes to
//! own a block — is a protocol half (`sws::Sws`, `sdc::Sdc`)
//! implementing `Steps`.

use std::fmt::Debug;
use std::hash::{Hash, Hasher};

use sws_core::protocol::Completion;
use sws_core::ring::Ring;
use sws_core::{AtomicSite, Protocol, QueueConfig};

use crate::explore::{Chooser, World};
use crate::mem::{Memory, OrdTable, Violation};
use crate::{sdc, sws, OwnerOp};

/// The catalog sites of the steps every protocol shares.
#[derive(Clone, Copy)]
pub(crate) struct Sites {
    /// The owner's local store of a task into the ring.
    pub write: AtomicSite,
    /// A thief's per-word load of its block copy.
    pub read: AtomicSite,
    /// A thief's completion store.
    pub complete: AtomicSite,
}

/// What one protocol adds to the shared machine.
pub(crate) trait Steps {
    /// One owner step. An idle owner asks [`Core::next_op`] what to do.
    fn step_owner(&mut self, c: &mut Core, ch: &mut Chooser) -> Result<(), Violation>;
    /// One step of thread `t`, a thief on its way to owning a block
    /// ([`TPc::Steal`]); [`Core::begin_copy`] hands the block over.
    fn step_thief(&mut self, c: &mut Core, t: usize, ch: &mut Chooser) -> Result<(), Violation>;
    /// The protocol's own end-state invariants.
    fn check_end(&self, c: &Core) -> Result<(), Violation>;
    /// Thread `t`'s protocol-side program counter, for traces.
    fn pc(&self, t: usize) -> &dyn Debug;
}

/// The protocol half of a scenario.
#[derive(Clone, Hash)]
pub(crate) enum Half {
    Sws(sws::Sws),
    Sdc(sdc::Sdc),
}

impl Half {
    fn steps(&mut self) -> &mut dyn Steps {
        match self {
            Half::Sws(h) => h,
            Half::Sdc(h) => h,
        }
    }

    fn view(&self) -> &dyn Steps {
        match self {
            Half::Sws(h) => h,
            Half::Sdc(h) => h,
        }
    }
}

/// The ring owner's protocol-independent state: absolute task indices
/// `reclaimed <= split <= head` (shared portion below `split`).
#[derive(Clone, Hash, Debug, Default)]
pub(crate) struct Owner {
    /// The script ran out.
    done: bool,
    ip: usize,
    pub head: u64,
    pub split: u64,
    pub reclaimed: u64,
    /// Tags of the tasks the owner executed itself.
    drained: Vec<u64>,
}

/// A thief's program counter.
#[derive(Clone, Hash, Debug, PartialEq)]
pub(crate) enum TPc {
    /// Running the protocol's steps towards a block ([`Steps::step_thief`]).
    Steal,
    /// Copying word `i` of the `vol`-task block at ring position `start`.
    Copy {
        start: u64,
        vol: u64,
        i: u64,
        comp: usize,
        tags: Vec<u64>,
    },
    /// Storing `vol` into completion word `comp`.
    Complete {
        comp: usize,
        vol: u64,
        tags: Vec<u64>,
    },
    Done,
}

#[derive(Clone, Hash, Debug)]
pub(crate) struct Thief {
    pub pc: TPc,
    /// Steal attempts left.
    pub attempts: u32,
    stolen: Vec<u64>,
}

/// Everything of a scenario the protocol halves read and write.
#[derive(Clone)]
pub(crate) struct Core {
    name: &'static str,
    /// Layout, policy and capacity, as the production queue takes them.
    pub cfg: QueueConfig,
    pub ring: Ring,
    script: Vec<OwnerOp>,
    sites: Sites,
    pub mem: Memory,
    pub owner: Owner,
    pub thieves: Vec<Thief>,
    n_tags: u64,
    /// Total volume of the blocks handed to thieves.
    claimed: u64,
}

/// The configuration and the site table are fixed per scenario.
impl Hash for Core {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.mem.hash(state);
        self.owner.hash(state);
        self.thieves.hash(state);
        self.n_tags.hash(state);
        self.claimed.hash(state);
    }
}

pub(crate) fn proto(rule: &'static str, what: String) -> Violation {
    Violation::Protocol { rule, what }
}

impl Core {
    /// Does the script retire the queue (so that an end state owes full
    /// reconciliation)?
    pub fn retires(&self) -> bool {
        self.script.contains(&OwnerOp::Retire)
    }

    /// The idle owner's dispatch. `Enqueue` and `PopAll` run here, the
    /// end of the script finishes the owner; any other op is returned
    /// for the protocol to start.
    pub fn next_op(&mut self) -> Result<Option<OwnerOp>, Violation> {
        let Some(&op) = self.script.get(self.owner.ip) else {
            self.owner.done = true;
            return Ok(None);
        };
        self.owner.ip += 1;
        match op {
            OwnerOp::Enqueue => {
                let tag = self.n_tags;
                self.n_tags += 1;
                if self.owner.head - self.owner.reclaimed >= self.cfg.capacity as u64 {
                    // Ring full: the scheduler executes the task inline.
                    self.owner.drained.push(tag);
                    return Ok(None);
                }
                let slot = self.ring.slot(self.owner.head);
                self.mem.store_payload(0, self.sites.write, slot, tag + 1)?;
                self.owner.head += 1;
            }
            OwnerOp::PopAll => {
                for abs in self.owner.split..self.owner.head {
                    let v = self.mem.read_local(0, self.ring.slot(abs))?;
                    if v == 0 {
                        return Err(proto(
                            "conservation",
                            format!("owner pops uninitialized ring slot (abs {abs})"),
                        ));
                    }
                    self.owner.drained.push(v - 1);
                }
                self.owner.head = self.owner.split;
            }
            op => return Ok(Some(op)),
        }
        Ok(None)
    }

    /// Is thread `t` out of steal attempts? Then it is done.
    pub fn out_of_attempts(&mut self, t: usize) -> bool {
        let th = &mut self.thieves[t - 1];
        if th.attempts == 0 {
            th.pc = TPc::Done;
        }
        th.attempts == 0
    }

    /// Thread `t` owns the `vol`-task block at ring position `start` and
    /// will report it in completion word `comp`.
    pub fn begin_copy(&mut self, t: usize, start: u64, vol: u64, comp: usize) {
        self.claimed += vol;
        self.thieves[t - 1].pc = TPc::Copy {
            start,
            vol,
            i: 0,
            comp,
            tags: Vec::new(),
        };
    }

    /// The steps of a thief that owns a block: copy it word by word,
    /// store the completion, start over.
    fn step_block(&mut self, t: usize) -> Result<(), Violation> {
        let th = &mut self.thieves[t - 1];
        match std::mem::replace(&mut th.pc, TPc::Steal) {
            TPc::Copy {
                start,
                vol,
                i,
                comp,
                mut tags,
            } => {
                let slot = self.ring.slot(start + i);
                let v = self.mem.read_fresh(t, self.sites.read, slot)?;
                if v == 0 {
                    return Err(proto(
                        "uninit-steal",
                        format!("thief {t} copied an unwritten ring slot ({slot})"),
                    ));
                }
                tags.push(v - 1);
                th.pc = if i + 1 == vol {
                    TPc::Complete { comp, vol, tags }
                } else {
                    TPc::Copy {
                        start,
                        vol,
                        i: i + 1,
                        comp,
                        tags,
                    }
                };
            }
            TPc::Complete { comp, vol, tags } => {
                self.mem
                    .store(t, self.sites.complete, comp, Completion::Done(vol).word());
                th.stolen.extend(tags);
            }
            TPc::Steal | TPc::Done => unreachable!("thief {t} owns no block"),
        }
        Ok(())
    }
}

/// One model scenario of either protocol: what [`crate::explore()`] runs.
#[derive(Clone, Hash)]
pub struct Machine {
    core: Core,
    half: Half,
}

impl Machine {
    /// A scenario of `half`'s protocol: a `cfg.capacity`-task ring, the
    /// owner's `script`, one thief per entry of `thief_attempts` making
    /// that many steal attempts, and a memory `mem` for all of them.
    pub(crate) fn new(
        name: &'static str,
        half: Half,
        sites: Sites,
        cfg: QueueConfig,
        script: Vec<OwnerOp>,
        thief_attempts: &[u32],
        mem: Memory,
    ) -> Machine {
        let core = Core {
            name,
            cfg,
            ring: Ring::new(cfg.capacity),
            script,
            sites,
            mem,
            owner: Owner::default(),
            thieves: thief_attempts
                .iter()
                .map(|&attempts| Thief {
                    pc: TPc::Steal,
                    attempts,
                    stolen: Vec::new(),
                })
                .collect(),
            n_tags: 0,
            claimed: 0,
        };
        Machine { core, half }
    }

    /// Which protocol the scenario models.
    pub fn protocol(&self) -> Protocol {
        self.core.sites.complete.protocol()
    }
}

impl World for Machine {
    fn name(&self) -> &'static str {
        self.core.name
    }

    fn n_threads(&self) -> usize {
        1 + self.core.thieves.len()
    }

    fn done(&self, t: usize) -> bool {
        match t {
            0 => self.core.owner.done,
            _ => self.core.thieves[t - 1].pc == TPc::Done,
        }
    }

    fn step(&mut self, t: usize, ch: &mut Chooser) -> Result<(), Violation> {
        if t == 0 {
            self.half.steps().step_owner(&mut self.core, ch)
        } else if self.core.thieves[t - 1].pc == TPc::Steal {
            self.half.steps().step_thief(&mut self.core, t, ch)
        } else {
            self.core.step_block(t)
        }
    }

    fn describe(&self, t: usize) -> String {
        match t {
            0 => format!(
                "owner {:?} (ip {})",
                self.half.view().pc(0),
                self.core.owner.ip
            ),
            _ => match &self.core.thieves[t - 1].pc {
                TPc::Steal => format!("thief {:?}", self.half.view().pc(t)),
                pc => format!("thief {pc:?}"),
            },
        }
    }

    fn issued(&self) -> u32 {
        self.core.mem.issued()
    }

    fn check_end(&self) -> Result<(), Violation> {
        let c = &self.core;
        // Task conservation: pops + steals partition the tag space.
        let mut tags: Vec<u64> = c.owner.drained.clone();
        for th in &c.thieves {
            tags.extend(&th.stolen);
        }
        tags.sort_unstable();
        if !tags.iter().copied().eq(0..c.n_tags) {
            return Err(proto(
                "conservation",
                format!(
                    "{} tasks enqueued but tags {:?} were executed (duplicate or lost)",
                    c.n_tags, tags
                ),
            ));
        }
        self.half.view().check_end(c)?;
        // Completion reconciliation at quiescence: everything claimed was
        // eventually observed back by the owner.
        if c.retires() && c.owner.reclaimed != c.claimed {
            return Err(proto(
                "reconciliation",
                format!(
                    "owner reclaimed {} task slots but thieves claimed {}",
                    c.owner.reclaimed, c.claimed
                ),
            ));
        }
        Ok(())
    }
}

/// Every scenario of both protocols under the given ordering table.
/// `audit_only` selects the smaller subset the per-site ordering audit
/// re-runs (the full set runs in the model-check suite under production
/// orderings).
pub fn all_scenarios(ords: &OrdTable, audit_only: bool) -> Vec<Machine> {
    let mut v = sws::scenarios(ords, audit_only);
    v.extend(sdc::scenarios(ords, audit_only));
    v
}
