//! Deterministic exploration gate: serialize PEs and expose every gated
//! one-sided effect as a scheduling choice point.
//!
//! Where the virtual-time engine (`crate::vclock`) orders effects by
//! *modeled cost* (one deterministic schedule per run), the
//! [`ExploreGate`] orders them by an
//! explicit **schedule**: real PE threads run their own local code freely,
//! but every shared-visible effect funnels through [`ExploreGate::gate`],
//! which blocks the PE until a central decision grants it the next turn.
//! Once every live PE is blocked at a gate (or a barrier), exactly one of
//! the pending operations is chosen — by a forced choice prefix during
//! replay, or by a default policy past it — and that PE runs alone until
//! its next gate point. The result is a fully serialized, deterministic
//! interleaving of the *production* protocol code at `AtomicSite`
//! granularity, and a recorded [`Decision`] log an explorer can branch
//! from (see `sws-check explore` in `crates/check`).
//!
//! Why this is deterministic: between grants at most one PE executes
//! shared-visible effects; the windows where several PEs run concurrently
//! (before the first gate point, after a barrier release) execute only
//! PE-local code on disjoint own-region words, so neither results nor the
//! next decision's enabled set depend on thread timing. Clocks are per-PE
//! and advance only with the owning PE's own ops, so `now_ns` reads are
//! schedule-deterministic too.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::lock::{Condvar, Mutex};
use crate::net::OpKind;
use crate::proto::NO_SITE;

/// Panic message raised in PEs blocked on a gate when a peer poisons the
/// world (mirrors the vclock poison message shape).
pub const POISON_MSG: &str = "explore world poisoned: a peer PE panicked";

/// Panic message raised when a schedule exceeds its step budget. Distinct
/// from [`POISON_MSG`] so the explorer can classify truncation (an
/// exhausted budget, usually a spin loop the schedule starves) apart from
/// real failures.
pub const TRUNCATED_MSG: &str = "exploration step budget exceeded: schedule truncated";

/// Descriptor of one pending gated operation — everything the explorer's
/// dependence relation needs: the words the op touches in whose region,
/// whether it writes, and the protocol site (if the op was annotated via
/// `ShmemCtx::proto_site`; [`NO_SITE`] for control-plane traffic).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct OpDesc {
    /// `sws_core::AtomicSite::id()` of the issuing protocol site, or
    /// [`NO_SITE`] for unannotated ops (collectives, TD counters, setup).
    pub site: u16,
    /// PE whose region the op touches.
    pub target: u32,
    /// First word offset touched in the target's region.
    pub offset: u32,
    /// Number of words touched (over-approximated for strided/gather
    /// shapes: the contiguous cover, which can only add dependences,
    /// never hide one).
    pub len: u32,
    /// Does the op write (RMW counts as a write; a failed CAS is
    /// over-approximated as one)?
    pub writes: bool,
}

impl OpDesc {
    /// Do two ops *conflict* — touch overlapping words of the same region
    /// with at least one writer? Reordering a non-conflicting adjacent
    /// pair commutes, which is what the explorer's pruning relies on.
    pub fn conflicts(&self, other: &OpDesc) -> bool {
        if self.target != other.target || !(self.writes || other.writes) {
            return false;
        }
        let a = self.offset as u64..self.offset as u64 + self.len as u64;
        let b = other.offset as u64..other.offset as u64 + other.len as u64;
        a.start < b.end && b.start < a.end
    }
}

/// Does this op kind write target memory? (Used to build [`OpDesc`].)
pub fn kind_writes(kind: OpKind) -> bool {
    !matches!(kind, OpKind::Get | OpKind::AtomicFetch)
}

/// One scheduling decision: who was runnable, who ran.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// PE whose turn led into this decision (`None` for the first).
    pub prev: Option<u32>,
    /// Pending ops at the decision point, ascending PE rank.
    pub enabled: Vec<(u32, OpDesc)>,
    /// Index into `enabled` that was granted.
    pub chosen: u32,
}

/// Gate configuration for one schedule execution.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Forced choice indices for the first `prefix.len()` decisions
    /// (each clamped into the enabled range); past the prefix the default
    /// policy picks.
    pub prefix: Vec<u32>,
    /// Poison the world with [`TRUNCATED_MSG`] after this many decisions.
    pub max_steps: u64,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            prefix: Vec::new(),
            max_steps: 200_000,
        }
    }
}

/// What one schedule execution recorded.
#[derive(Clone, Debug, Default)]
pub struct ExploreTrace {
    /// Every decision, in order.
    pub decisions: Vec<Decision>,
    /// Did the run hit the step budget (and poison itself)?
    pub truncated: bool,
}

/// A pending PE left ungranted for this many decisions is *starving*
/// and takes the next turn unconditionally. This is the gate's only
/// fairness guarantee strong enough to survive adversarial grant
/// patterns: consecutive-grant streaks cannot detect a pair of PEs
/// interleaving 1:1 while a third — possibly a lock holder — waits
/// forever.
const STARVE_AGE: u64 = 64;

/// A PE is treated as *spinning* only once this many consecutive grants
/// issued it a byte-identical op. One repeat is routinely productive — a
/// reconcile pass reads the stealval twice, a drain loop polls a counter
/// it is about to observe change — and rotating away on the first repeat
/// steals the progressing PE's turn exactly when it is mid-protocol.
const SPIN_RUN: u32 = 2;

#[derive(Clone, Debug, PartialEq, Eq)]
enum PeState {
    /// Executing local code (or its granted effect).
    Running,
    /// Blocked at a gate with this pending op.
    Blocked(OpDesc),
    /// Waiting at a barrier.
    InBarrier,
    /// Returned from the SPMD closure.
    Done,
}

struct State {
    status: Vec<PeState>,
    /// PEs in `Running` state.
    running: usize,
    /// Per-PE grant flags (a blocked PE owns the next turn).
    granted: Vec<bool>,
    /// Per-PE logical clocks (ns), advanced only by the owning PE.
    clock: Vec<u64>,
    /// Descriptor granted at each PE's most recent grant. A PE whose
    /// pending op equals it is in a *spin retry* (a failed CAS, a poll
    /// that saw no change) — re-granting it before anyone else runs
    /// cannot change its outcome.
    last_desc: Vec<Option<OpDesc>>,
    /// Consecutive grants of a byte-identical op, per PE. Only runs of
    /// [`SPIN_RUN`] or more mark the PE as spinning.
    spin_run: Vec<u32>,
    /// Barrier release generation.
    generation: u64,
    /// Forced choices + cursor.
    prefix: Vec<u32>,
    cursor: usize,
    /// Recorded decisions.
    decisions: Vec<Decision>,
    /// Last granted PE.
    last: Option<u32>,
    /// Decision index of each PE's most recent grant (0 if never).
    last_grant: Vec<u64>,
    max_steps: u64,
    truncated: bool,
}

/// The exploration scheduler's serialization point. Build one per
/// schedule execution, pass it to `WorldConfig::exploration`, and read
/// the decision log back with [`ExploreGate::take_trace`] after
/// `run_world` returns.
pub struct ExploreGate {
    inner: Mutex<State>,
    cv: Condvar,
    poisoned: AtomicBool,
}

impl std::fmt::Debug for ExploreGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExploreGate").finish_non_exhaustive()
    }
}

impl ExploreGate {
    /// A gate for `n_pes` PEs running one schedule under `cfg`.
    pub fn new(n_pes: usize, cfg: ExploreConfig) -> ExploreGate {
        ExploreGate {
            inner: Mutex::new(State {
                status: vec![PeState::Running; n_pes],
                running: n_pes,
                granted: vec![false; n_pes],
                clock: vec![0; n_pes],
                last_desc: vec![None; n_pes],
                spin_run: vec![0; n_pes],
                generation: 0,
                prefix: cfg.prefix,
                cursor: 0,
                decisions: Vec::new(),
                last: None,
                last_grant: vec![0; n_pes],
                max_steps: cfg.max_steps,
                truncated: false,
            }),
            cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Block until the scheduler grants this PE the next turn; on return
    /// the caller is the only running PE and applies its effect.
    ///
    /// # Panics
    /// With [`POISON_MSG`] if a peer poisoned the world while waiting, or
    /// with [`TRUNCATED_MSG`] if the schedule exhausted its step budget.
    pub fn gate(&self, pe: usize, desc: OpDesc) {
        let mut g = self.inner.lock();
        self.check_poison(&g);
        g.status[pe] = PeState::Blocked(desc);
        g.running -= 1;
        if g.running == 0 {
            self.on_all_blocked(&mut g);
        }
        while !g.granted[pe] {
            self.cv.wait(&mut g);
            self.check_poison(&g);
        }
        g.granted[pe] = false;
    }

    /// This PE's logical clock (ns).
    pub fn now(&self, pe: usize) -> u64 {
        self.inner.lock().clock[pe]
    }

    /// Advance this PE's logical clock (local compute, post-effect op
    /// charges). Not a scheduling point.
    pub fn advance(&self, pe: usize, dt: u64) {
        self.inner.lock().clock[pe] += dt;
    }

    /// Barrier: park until every live PE has arrived, then release all of
    /// them simultaneously (they run local code concurrently until their
    /// next gate points). Clocks jump to the max entry clock plus `cost`.
    pub fn barrier(&self, pe: usize, cost: u64) {
        let mut g = self.inner.lock();
        self.check_poison(&g);
        g.status[pe] = PeState::InBarrier;
        g.running -= 1;
        let gen = g.generation;
        if g.running == 0 {
            self.on_all_blocked(&mut g);
        }
        while g.generation == gen && g.status[pe] == PeState::InBarrier {
            self.cv.wait(&mut g);
            self.check_poison(&g);
        }
        g.clock[pe] += cost;
    }

    /// Mark this PE finished (its SPMD closure returned).
    pub fn finish(&self, pe: usize) {
        let mut g = self.inner.lock();
        g.status[pe] = PeState::Done;
        g.running -= 1;
        if g.running == 0 {
            self.on_all_blocked(&mut g);
        }
    }

    /// Poison the world: blocked PEs panic out of their gates.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        let _g = self.inner.lock();
        self.cv.notify_all();
    }

    /// Whether a peer poisoned the world.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// The decision log of the finished run. Call after `run_world`
    /// returns (all PE threads joined).
    pub fn take_trace(&self) -> ExploreTrace {
        let mut g = self.inner.lock();
        ExploreTrace {
            decisions: std::mem::take(&mut g.decisions),
            truncated: g.truncated,
        }
    }

    fn check_poison(&self, g: &State) {
        if self.is_poisoned() {
            if g.truncated {
                panic!("{TRUNCATED_MSG}");
            }
            panic!("{POISON_MSG}");
        }
    }

    /// Every live PE is parked (`running == 0`): release the barrier if
    /// everyone left is in it, otherwise make a scheduling decision among
    /// the gate-blocked PEs.
    fn on_all_blocked(&self, g: &mut State) {
        let blocked: Vec<(u32, OpDesc)> = g
            .status
            .iter()
            .enumerate()
            .filter_map(|(pe, s)| match s {
                PeState::Blocked(d) => Some((pe as u32, *d)),
                _ => None,
            })
            .collect();
        if blocked.is_empty() {
            // All remaining PEs are in the barrier (or everyone is done):
            // release the barrier generation.
            let entry_max = g
                .status
                .iter()
                .enumerate()
                .filter(|(_, s)| **s == PeState::InBarrier)
                .map(|(pe, _)| g.clock[pe])
                .max();
            let Some(entry_max) = entry_max else { return };
            for pe in 0..g.status.len() {
                if g.status[pe] == PeState::InBarrier {
                    g.clock[pe] = entry_max;
                    g.status[pe] = PeState::Running;
                    g.running += 1;
                }
            }
            g.generation += 1;
            self.cv.notify_all();
            return;
        }

        if g.decisions.len() as u64 >= g.max_steps {
            g.truncated = true;
            self.poisoned.store(true, Ordering::Release);
            self.cv.notify_all();
            return;
        }

        let chosen = match g.prefix.get(g.cursor) {
            Some(&forced) => (forced as usize).min(blocked.len() - 1),
            None => self.default_pick(g, &blocked),
        };
        g.cursor += 1;
        let pe = blocked[chosen].0;
        g.last_grant[pe as usize] = g.decisions.len() as u64;
        if g.last_desc[pe as usize] == Some(blocked[chosen].1) {
            g.spin_run[pe as usize] += 1;
        } else {
            g.spin_run[pe as usize] = 0;
        }
        g.last_desc[pe as usize] = Some(blocked[chosen].1);
        g.decisions.push(Decision {
            prev: g.last,
            enabled: blocked,
            chosen: chosen as u32,
        });
        g.last = Some(pe);
        g.status[pe as usize] = PeState::Running;
        g.running += 1;
        g.granted[pe as usize] = true;
        self.cv.notify_all();
    }

    /// Default (non-forced) policy: keep running the previous PE while it
    /// is pending and making progress — this minimizes preemptions, so
    /// the default schedule through any decision subtree is the cheapest
    /// one under the explorer's preemption bound — with three liveness
    /// amendments, all pure functions of gate state (determinism holds):
    ///
    /// * **Aging.** A pending PE ungranted for [`STARVE_AGE`] decisions
    ///   takes the turn unconditionally (oldest first, lowest rank on
    ///   ties). This is the only rule strong enough to free a parked
    ///   lock *holder* when two other PEs interleave 1:1 around it —
    ///   consecutive-grant streak detection never fires in that pattern.
    /// * **Spin retries rotate away.** A PE whose pending op is
    ///   byte-identical to its previously granted op (a failed lock CAS,
    ///   a poll that saw no change) cannot change its outcome until
    ///   someone else runs; the turn passes cyclically (next pending
    ///   rank, wrapping). Only a run of [`SPIN_RUN`] identical grants
    ///   qualifies — a single repeated read is routinely productive
    ///   (reconcile reads the stealval twice back to back), and rotating
    ///   on the first repeat would preempt mid-protocol.
    /// * **Waiting spinners interleave 1:1** with a progressing PE, so a
    ///   contender retries inside every window the progressor opens
    ///   (e.g. the instant a contended lock is released); fixed-stride
    ///   yields can otherwise align with the holder's critical section
    ///   forever — a scheduler-induced livelock.
    fn default_pick(&self, g: &State, blocked: &[(u32, OpDesc)]) -> usize {
        let now = g.decisions.len() as u64;
        if let Some((j, _)) = blocked
            .iter()
            .enumerate()
            .map(|(j, &(pe, _))| (j, now.saturating_sub(g.last_grant[pe as usize])))
            .filter(|&(_, age)| age >= STARVE_AGE)
            .max_by_key(|&(j, age)| (age, std::cmp::Reverse(j)))
        {
            return j;
        }
        // `blocked` is in ascending PE rank; first entry above `from`,
        // wrapping to the lowest.
        let cyclic_next = |from: u32| -> usize {
            blocked
                .iter()
                .position(|&(pe, _)| pe > from)
                .unwrap_or(0)
        };
        let is_spin = |pe: u32, d: &OpDesc| {
            g.last_desc[pe as usize].as_ref() == Some(d)
                && g.spin_run[pe as usize] >= SPIN_RUN
        };
        let Some(l) = g.last else { return 0 };
        let Some(li) = blocked.iter().position(|&(pe, _)| pe == l) else {
            return cyclic_next(l);
        };
        let (_, ld) = blocked[li];
        if is_spin(l, &ld) {
            return cyclic_next(l);
        }
        // `l` is progressing: give one waiting spinner its retry first.
        let start = cyclic_next(l);
        for k in 0..blocked.len() {
            let j = (start + k) % blocked.len();
            let (pe, d) = blocked[j];
            if pe != l && is_spin(pe, &d) {
                return j;
            }
        }
        li
    }
}

/// An unannotated single-word descriptor (control-plane ops).
pub fn plain_desc(target: usize, offset: u32, len: u32, writes: bool) -> OpDesc {
    OpDesc {
        site: NO_SITE,
        target: target as u32,
        offset,
        len,
        writes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(target: u32, offset: u32, len: u32, writes: bool) -> OpDesc {
        OpDesc {
            site: NO_SITE,
            target,
            offset,
            len,
            writes,
        }
    }

    #[test]
    fn conflicts_need_overlap_and_a_writer() {
        assert!(d(0, 4, 1, true).conflicts(&d(0, 4, 1, false)));
        assert!(d(0, 2, 4, true).conflicts(&d(0, 5, 2, true)));
        assert!(!d(0, 4, 1, false).conflicts(&d(0, 4, 1, false)), "two reads");
        assert!(!d(0, 4, 1, true).conflicts(&d(1, 4, 1, true)), "regions differ");
        assert!(!d(0, 4, 2, true).conflicts(&d(0, 6, 2, true)), "disjoint words");
    }

    #[test]
    fn default_policy_prefers_last_then_rotates() {
        let gate = ExploreGate::new(3, ExploreConfig::default());
        let mut g = gate.inner.lock();
        let blocked = vec![(0, d(0, 0, 1, true)), (2, d(0, 1, 1, true))];
        assert_eq!(gate.default_pick(&g, &blocked), 0, "no last yet");
        g.last = Some(2);
        assert_eq!(gate.default_pick(&g, &blocked), 1, "continue last");
        g.last_desc[2] = Some(d(0, 1, 1, true));
        assert_eq!(
            gate.default_pick(&g, &blocked),
            1,
            "a short identical run is not yet a spin"
        );
        g.spin_run[2] = SPIN_RUN;
        assert_eq!(
            gate.default_pick(&g, &blocked),
            0,
            "spin retry rotates away"
        );
        g.last_desc[2] = None;
        g.spin_run[2] = 0;
        g.last_desc[0] = Some(d(0, 0, 1, true));
        g.spin_run[0] = SPIN_RUN;
        assert_eq!(
            gate.default_pick(&g, &blocked),
            0,
            "waiting spinner interleaved while pe2 progresses"
        );
    }

    #[test]
    fn spin_yields_rotate_cyclically_over_three_pes() {
        let gate = ExploreGate::new(4, ExploreConfig::default());
        let mut g = gate.inner.lock();
        let blocked = vec![
            (0, d(0, 0, 1, true)),
            (1, d(0, 1, 1, true)),
            (3, d(0, 2, 1, true)),
        ];
        g.last = Some(0);
        g.last_desc[0] = Some(d(0, 0, 1, true));
        g.spin_run[0] = SPIN_RUN;
        assert_eq!(gate.default_pick(&g, &blocked), 1);
        g.last = Some(1);
        g.last_desc[1] = Some(d(0, 1, 1, true));
        g.spin_run[1] = SPIN_RUN;
        assert_eq!(gate.default_pick(&g, &blocked), 2);
        g.last = Some(3);
        g.last_desc[3] = Some(d(0, 2, 1, true));
        g.spin_run[3] = SPIN_RUN;
        assert_eq!(gate.default_pick(&g, &blocked), 0, "wraps past top rank");
    }

    #[test]
    fn starving_pe_preempts_an_interleaving_pair() {
        let gate = ExploreGate::new(4, ExploreConfig::default());
        let mut g = gate.inner.lock();
        for _ in 0..STARVE_AGE {
            g.decisions.push(Decision {
                prev: None,
                enabled: Vec::new(),
                chosen: 0,
            });
        }
        let blocked = vec![
            (0, d(0, 0, 1, true)),
            (1, d(0, 1, 1, true)),
            (3, d(0, 2, 1, true)),
        ];
        // pe1 and pe3 have been trading grants; pe0 has waited STARVE_AGE
        // decisions and takes the turn even though pe3 is progressing.
        g.last = Some(3);
        g.last_grant[0] = 0;
        g.last_grant[1] = STARVE_AGE - 1;
        g.last_grant[3] = STARVE_AGE - 2;
        assert_eq!(gate.default_pick(&g, &blocked), 0, "oldest pending wins");
        // Ties on age break toward the lowest rank.
        g.last_grant[3] = 0;
        assert_eq!(gate.default_pick(&g, &blocked), 0, "tie goes to low rank");
    }
}
