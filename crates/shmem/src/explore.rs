//! The exploration pick rule: expose every gated one-sided effect as a
//! scheduling choice point.
//!
//! An `ExecMode::Explore` world runs on the same serial executor as a
//! virtual-time one (`crate::vclock`): every PE is a stackful context on
//! the thread that called `run_world`, and one scheduling step decides which
//! suspended PE runs next. Virtual time picks the minimal `(clock, rank)`;
//! exploration picks by an explicit **schedule**. Every shared-visible
//! effect suspends its PE at the gate with an [`OpDesc`]; once every live
//! PE is suspended — at a gate, in the barrier — exactly one pending op is
//! chosen, by a forced choice prefix during replay or by a default policy
//! past it, and that PE runs alone to its next gate. The result is a fully
//! serialized, deterministic interleaving of the *production* protocol
//! code at `AtomicSite` granularity, and a recorded [`Decision`] log an
//! explorer can branch from (see `sws-check explore` in `crates/check`).
//!
//! Determinism needs no argument any more: one PE runs at any instant, so
//! a decision's enabled set and every result are functions of the schedule
//! alone. Clocks, the barrier, poison and teardown are the executor's; this
//! file holds only what the rule itself knows — the descriptors, the
//! prefix, the default policy and the step budget.

use crate::lock::Mutex;
use crate::net::OpKind;
use crate::proto::NO_SITE;

/// Panic message raised in every unfinished PE when a schedule exceeds
/// its step budget. Distinct from the peer-panic poison message so the
/// explorer can classify truncation (an exhausted budget, usually a spin
/// loop the schedule starves) apart from real failures.
pub const TRUNCATED_MSG: &str = "exploration step budget exceeded: schedule truncated";

/// Descriptor of one pending gated operation: the protocol site (if the
/// op was annotated via `ShmemCtx::proto_site`; [`NO_SITE`] for
/// control-plane traffic), the PE whose region it touches and whether it
/// writes — what the explorer's dependence relation reads — plus the words
/// it touches, which the decision log records.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct OpDesc {
    /// `sws_core::AtomicSite::id()` of the issuing protocol site, or
    /// [`NO_SITE`] for unannotated ops (collectives, TD counters, setup).
    pub site: u16,
    /// PE whose region the op touches.
    pub target: u32,
    /// First word offset touched in the target's region.
    pub offset: u32,
    /// Number of words touched (the contiguous cover for strided/gather
    /// shapes).
    pub len: u32,
    /// Does the op write (RMW counts as a write; a failed CAS is
    /// over-approximated as one)?
    pub writes: bool,
}

/// Does this op kind write target memory? (Used to build [`OpDesc`].)
pub fn kind_writes(kind: OpKind) -> bool {
    !matches!(kind, OpKind::Get | OpKind::AtomicFetch)
}

/// One scheduling decision: who was runnable, who ran. A view into an
/// [`ExploreTrace`], whose enabled sets share one arena.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Decision<'t> {
    /// PE whose turn led into this decision (`None` for the first).
    pub prev: Option<u32>,
    /// Pending ops at the decision point, ascending PE rank.
    pub enabled: &'t [(u32, OpDesc)],
    /// Index into `enabled` of the op that ran.
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

/// One logged decision: its enabled set is `enabled[start..start + len]`
/// of the trace's arena.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Step {
    prev: Option<u32>,
    start: usize,
    /// At most the world's PE count.
    len: u32,
    chosen: u32,
}

/// What one schedule execution recorded: every decision in order, as
/// fixed-size steps over one arena of enabled sets, so logging a decision
/// allocates nothing once the two vectors have grown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExploreTrace {
    steps: Vec<Step>,
    enabled: Vec<(u32, OpDesc)>,
    /// Did the run hit the step budget (and poison itself)?
    pub truncated: bool,
}

impl ExploreTrace {
    /// Number of decisions.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// No decision was made.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Decision `i` (panics if `i >= len()`).
    pub fn decision(&self, i: usize) -> Decision<'_> {
        self.view(&self.steps[i])
    }

    /// Every decision, in order.
    pub fn decisions(&self) -> impl ExactSizeIterator<Item = Decision<'_>> + '_ {
        self.steps.iter().map(|s| self.view(s))
    }

    /// The chosen index of every decision, in order: the forced prefix
    /// that replays this run.
    pub fn choices(&self) -> Vec<u32> {
        self.steps.iter().map(|s| s.chosen).collect()
    }

    /// Log a decision.
    pub(crate) fn push(&mut self, prev: Option<u32>, enabled: &[(u32, OpDesc)], chosen: u32) {
        self.steps.push(Step {
            prev,
            start: self.enabled.len(),
            len: enabled.len() as u32,
            chosen,
        });
        self.enabled.extend_from_slice(enabled);
    }

    fn view(&self, s: &Step) -> Decision<'_> {
        Decision {
            prev: s.prev,
            enabled: &self.enabled[s.start..s.start + s.len as usize],
            chosen: s.chosen,
        }
    }
}

/// A pending PE passed over for this many decisions is *starving*
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

/// The state of one schedule execution, owned by the executor.
pub(crate) struct Schedule {
    /// The forced prefix (its cursor is `trace.len()`) and the
    /// step budget.
    cfg: ExploreConfig,
    trace: ExploreTrace,
    /// PE that took the last turn.
    last: Option<u32>,
    /// Decision index of each PE's most recent turn (0 if never).
    last_grant: Vec<u64>,
    /// Descriptor each PE ran at its most recent turn. A PE whose
    /// pending op equals it is in a *spin retry* (a failed CAS, a poll
    /// that saw no change) — choosing it again before anyone else runs
    /// cannot change its outcome.
    last_desc: Vec<Option<OpDesc>>,
    /// Consecutive turns spent on a byte-identical op, per PE. Only runs of
    /// [`SPIN_RUN`] or more mark the PE as spinning.
    spin_run: Vec<u32>,
}

/// One schedule execution's handle: the configuration going in, the
/// decision log coming out. Build one per world, pass it to
/// `WorldConfig::exploration`, and take the log with
/// [`ExploreGate::take_trace`] after `run_world` returns.
#[derive(Debug)]
pub struct ExploreGate {
    cfg: ExploreConfig,
    /// `Some` once the world has run; emptied by `take_trace`.
    trace: Mutex<Option<ExploreTrace>>,
}

impl ExploreGate {
    /// A gate for one world running one schedule under `cfg`.
    pub fn new(cfg: ExploreConfig) -> ExploreGate {
        ExploreGate {
            cfg,
            trace: Mutex::new(None),
        }
    }

    /// The decision log of the finished run, handed over once: before
    /// `run_world` returns, and on any later call, the trace is empty.
    pub fn take_trace(&self) -> ExploreTrace {
        self.trace.lock().as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// A fresh schedule for this gate's world of `n_pes` PEs.
    pub(crate) fn schedule(&self, n_pes: usize) -> Schedule {
        Schedule {
            cfg: self.cfg.clone(),
            trace: ExploreTrace::default(),
            last: None,
            last_grant: vec![0; n_pes],
            last_desc: vec![None; n_pes],
            spin_run: vec![0; n_pes],
        }
    }

    /// The world is over: keep `schedule`'s log.
    pub(crate) fn publish(&self, schedule: Schedule) {
        let ran = self.trace.lock().replace(schedule.trace);
        assert!(ran.is_none(), "an ExploreGate runs one world");
    }
}

impl Schedule {
    /// Every live PE is suspended and `enabled` — ascending PE rank, not
    /// empty — are the ops pending at gates: grant one and return its
    /// index, or `None` once the step budget is spent (the caller poisons
    /// the world with [`TRUNCATED_MSG`]).
    pub(crate) fn decide(&mut self, enabled: &[(u32, OpDesc)]) -> Option<usize> {
        let step = self.trace.len();
        if step as u64 >= self.cfg.max_steps {
            self.trace.truncated = true;
            return None;
        }
        let chosen = match self.cfg.prefix.get(step) {
            Some(&forced) => (forced as usize).min(enabled.len() - 1),
            None => self.default_pick(enabled),
        };
        let (pe, desc) = enabled[chosen];
        let p = pe as usize;
        self.last_grant[p] = step as u64;
        if self.last_desc[p] == Some(desc) {
            self.spin_run[p] += 1;
        } else {
            self.spin_run[p] = 0;
        }
        self.last_desc[p] = Some(desc);
        self.trace.push(self.last, enabled, chosen as u32);
        self.last = Some(pe);
        Some(chosen)
    }

    /// Default (non-forced) policy: keep running the previous PE while it
    /// is pending and making progress — this minimizes preemptions, so
    /// the default schedule through any decision subtree is the cheapest
    /// one under the explorer's preemption bound — with three liveness
    /// amendments, all pure functions of the schedule's own state (determinism holds):
    ///
    /// * **Aging.** A pending PE passed over for [`STARVE_AGE`] decisions
    ///   takes the turn unconditionally (oldest first, lowest rank on
    ///   ties). This is the only rule strong enough to free a parked
    ///   lock *holder* when two other PEs interleave 1:1 around it —
    ///   consecutive-grant streak detection never fires in that pattern.
    /// * **Spin retries rotate away.** A PE whose pending op is
    ///   byte-identical to the op of its previous turn (a failed lock CAS,
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
    fn default_pick(&self, blocked: &[(u32, OpDesc)]) -> usize {
        let now = self.trace.len() as u64;
        if let Some((j, _)) = blocked
            .iter()
            .enumerate()
            .map(|(j, &(pe, _))| (j, now.saturating_sub(self.last_grant[pe as usize])))
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
            self.last_desc[pe as usize].as_ref() == Some(d)
                && self.spin_run[pe as usize] >= SPIN_RUN
        };
        let Some(l) = self.last else { return 0 };
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
    fn the_flat_log_reads_back_each_decision() {
        let (a, b) = ((0, d(0, 0, 1, true)), (2, d(1, 3, 2, false)));
        let mut t = ExploreTrace::default();
        t.push(None, &[a, b], 1);
        t.push(Some(2), &[a], 0);
        t.push(Some(0), &[], 0);
        let want = [
            Decision { prev: None, enabled: &[a, b], chosen: 1 },
            Decision { prev: Some(2), enabled: &[a], chosen: 0 },
            Decision { prev: Some(0), enabled: &[], chosen: 0 },
        ];
        assert_eq!(t.len(), 3);
        assert!(t.decisions().eq(want));
        assert_eq!(t.decision(1), want[1]);
        assert_eq!(t.choices(), [1, 0, 0]);
    }

    #[test]
    fn default_policy_prefers_last_then_rotates() {
        let mut g = ExploreGate::new(ExploreConfig::default()).schedule(3);
        let blocked = vec![(0, d(0, 0, 1, true)), (2, d(0, 1, 1, true))];
        assert_eq!(g.default_pick(&blocked), 0, "no last yet");
        g.last = Some(2);
        assert_eq!(g.default_pick(&blocked), 1, "continue last");
        g.last_desc[2] = Some(d(0, 1, 1, true));
        assert_eq!(
            g.default_pick(&blocked),
            1,
            "a short identical run is not yet a spin"
        );
        g.spin_run[2] = SPIN_RUN;
        assert_eq!(
            g.default_pick(&blocked),
            0,
            "spin retry rotates away"
        );
        g.last_desc[2] = None;
        g.spin_run[2] = 0;
        g.last_desc[0] = Some(d(0, 0, 1, true));
        g.spin_run[0] = SPIN_RUN;
        assert_eq!(
            g.default_pick(&blocked),
            0,
            "waiting spinner interleaved while pe2 progresses"
        );
    }

    #[test]
    fn spin_yields_rotate_cyclically_over_three_pes() {
        let mut g = ExploreGate::new(ExploreConfig::default()).schedule(4);
        let blocked = vec![
            (0, d(0, 0, 1, true)),
            (1, d(0, 1, 1, true)),
            (3, d(0, 2, 1, true)),
        ];
        g.last = Some(0);
        g.last_desc[0] = Some(d(0, 0, 1, true));
        g.spin_run[0] = SPIN_RUN;
        assert_eq!(g.default_pick(&blocked), 1);
        g.last = Some(1);
        g.last_desc[1] = Some(d(0, 1, 1, true));
        g.spin_run[1] = SPIN_RUN;
        assert_eq!(g.default_pick(&blocked), 2);
        g.last = Some(3);
        g.last_desc[3] = Some(d(0, 2, 1, true));
        g.spin_run[3] = SPIN_RUN;
        assert_eq!(g.default_pick(&blocked), 0, "wraps past top rank");
    }

    #[test]
    fn starving_pe_preempts_an_interleaving_pair() {
        let mut g = ExploreGate::new(ExploreConfig::default()).schedule(4);
        for _ in 0..STARVE_AGE {
            g.trace.push(None, &[], 0);
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
        assert_eq!(g.default_pick(&blocked), 0, "oldest pending wins");
        // Ties on age break toward the lowest rank.
        g.last_grant[3] = 0;
        assert_eq!(g.default_pick(&blocked), 0, "tie goes to low rank");
    }
}
