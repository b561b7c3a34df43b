//! Live exploration: drive the **production** `SwsQueue`/`SdcQueue`
//! through systematic PE interleavings.
//!
//! The abstract model checker ([`crate::explore`]) enumerates schedules
//! of re-stated protocol machines; this module closes the remaining gap
//! by exploring the real queue code. Each schedule execution builds an
//! `ExecMode::Explore` `sws-shmem` world around an [`ExploreGate`]: the
//! PEs run one at a time on the calling thread (the executor virtual-time
//! worlds run on), every gated one-sided effect is a scheduling choice
//! point, a forced choice prefix replays a specific interleaving, and
//! past the prefix a deterministic default policy (continue the running
//! PE) completes the schedule. The DFS explorer then branches from the
//! recorded [`Decision`] log:
//!
//! * **Conflict-directed branching (DPOR-style).** At a decision where
//!   op `A` ran, an alternative pending op `B` forces a new branch only
//!   when `A` and `B` are *dependent*: both are annotated protocol
//!   sites in the same [`sws_core::DepClass`] word family against the
//!   same target PE, with at least one writer. Reordering an adjacent
//!   independent pair commutes (they touch disjoint protocol words), so
//!   both orders reach the same state and only one is explored.
//!   Dependence classes over-approximate word overlap (two different
//!   completion slots share a class), which can only add branches —
//!   pruning stays sound. Control-plane ops (collectives, termination
//!   counters, setup) are never branch points; the search targets the
//!   queue protocols (see `DESIGN.md` §12 for the scope argument).
//! * **Preemption bounding.** An injected branch that switches away
//!   from a PE whose op was still pending is a preemption; each prefix
//!   carries its injected-preemption count and branches beyond the
//!   budget are pruned (Musuvathi-Qadeer iterative context bounding,
//!   the same reduction the abstract checker uses). The default
//!   policy's own context switches — spin rotations, spinner
//!   interleaves, starvation aging — are its natural schedule and do
//!   not count against the budget.
//!
//! Oracles: any PE panic (the queues' `invariant_violation` checks, the
//! shmem substrate's own asserts) fails the schedule, and a completed
//! run must conserve tasks — every seeded tag executed exactly once,
//! checked directly against per-tag execution counters. A failing
//! schedule is minimized with the shared [`crate::shrink::ddmin`] and
//! re-executed to confirm; the result serializes as a
//! `sws-explore schedule v1` file replayable by
//! `sws-check explore --replay`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use sws_core::steal_half::StealPolicy;
use sws_core::stealval::Layout;
use sws_core::{AtomicSite, Defect, DepClass, QueueConfig, Weakening};
use sws_sched::{try_run_workload_mode, QueueKind, RunConfig, SchedConfig};
use sws_shmem::explore::{
    Decision, ExploreConfig, ExploreGate, ExploreTrace, OpDesc, TRUNCATED_MSG,
};
use sws_shmem::{ExecMode, FaultPlan, OpClass, OrdTracker, OrderingCtl, ShmemError, TargetSel};
use sws_task::{PayloadReader, TaskDescriptor, TaskRegistry};
use sws_workloads::synth::{sized_task, SYNTH_FN};

use crate::shrink::ddmin;

// ---------------------------------------------------------------------------
// Scenarios.
// ---------------------------------------------------------------------------

/// One exploration scenario: a small, fully deterministic production
/// run whose interleavings the explorer enumerates.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable name (used in schedule files and reports).
    pub name: &'static str,
    /// Queue implementation under test.
    pub kind: QueueKind,
    /// World size (2–3 PEs keeps the schedule space tractable).
    pub n_pes: usize,
    /// Stealval layout (SWS only; ignored for SDC).
    pub layout: Layout,
    /// Steal-volume schedule.
    pub policy: StealPolicy,
    /// Steal damping (probe before claim).
    pub damping: bool,
    /// Inject transient drop faults (exercises the retry/reclaim paths).
    pub faults: bool,
    /// Planted protocol defect (the self-test only), attached through a
    /// control that tracks nothing (see [`defect_ctl`]). A scenario
    /// weakens an ordering or plants a defect, not both.
    pub defect: Option<Defect>,
    /// Tasks seeded on PE 0.
    pub tasks: u64,
    /// Total distinct tags including spawned descendants: each executed
    /// tag `t` spawns `t + tasks` while that stays below this total, so
    /// PEs push into their rings *during* the run (0 = seeds only).
    pub spawn_total: u64,
    /// Ring capacity in tasks.
    pub capacity: usize,
    /// Scheduler RNG seed.
    pub seed: u64,
    /// Necessity-prover mutation: weaken one catalog site's ordering and
    /// attach the live happens-before tracker (see [`ordering_ctl`]).
    /// `None` runs the production orderings untracked.
    pub weaken: Option<(AtomicSite, Weakening)>,
}

/// The default exploration corpus: SWS and SDC crossed with layouts,
/// steal policies, damping, and one faulty case each — the same axes the
/// chaos and conformance matrices sweep, shrunk to explorable sizes.
pub fn corpus() -> Vec<Scenario> {
    let base = Scenario {
        name: "",
        kind: QueueKind::Sws,
        n_pes: 2,
        layout: Layout::Epochs,
        policy: StealPolicy::Half,
        damping: false,
        faults: false,
        defect: None,
        tasks: 6,
        spawn_total: 0,
        capacity: 32,
        seed: 0xE8_70_01,
        weaken: None,
    };
    vec![
        Scenario {
            name: "sws-epochs-half",
            ..base.clone()
        },
        Scenario {
            name: "sws-validbit-half",
            layout: Layout::ValidBit,
            seed: 0xE8_70_02,
            ..base.clone()
        },
        Scenario {
            name: "sws-epochs-one-damped",
            policy: StealPolicy::One,
            damping: true,
            tasks: 4,
            seed: 0xE8_70_03,
            ..base.clone()
        },
        Scenario {
            name: "sws-epochs-3pe",
            n_pes: 3,
            tasks: 5,
            seed: 0xE8_70_04,
            ..base.clone()
        },
        Scenario {
            name: "sws-epochs-drops",
            faults: true,
            tasks: 4,
            seed: 0xE8_70_05,
            ..base.clone()
        },
        Scenario {
            name: "sdc-half",
            kind: QueueKind::Sdc,
            seed: 0xE8_70_06,
            ..base.clone()
        },
        Scenario {
            name: "sdc-quarter-3pe",
            kind: QueueKind::Sdc,
            policy: StealPolicy::Quarter,
            n_pes: 3,
            tasks: 5,
            seed: 0xE8_70_07,
            ..base.clone()
        },
        Scenario {
            name: "sdc-drops",
            kind: QueueKind::Sdc,
            faults: true,
            tasks: 4,
            seed: 0xE8_70_08,
            ..base.clone()
        },
    ]
}

/// The mutation self-test scenario: the SWS corpus base with
/// [`Defect::CompleteBeforeCopy`] planted. The bug is only
/// *observable* when the owner reuses reconciled ring slots mid-copy,
/// so this scenario spawns chains into a tiny ring: the owner's pushes
/// wrap into the slots the early completion just freed, and the parked
/// thief copies overwritten records.
pub fn mutant_scenario() -> Scenario {
    Scenario {
        name: "sws-mutant-complete-before-copy",
        defect: Some(Defect::CompleteBeforeCopy),
        // One seed tag spawning a binary tree keeps the owner's ring
        // under pressure (outstanding work grows while it drains), and
        // the tiny capacity means a single reclaimed slot is enough for
        // the owner's head to wrap back over a claimed block — the
        // window the early completion opens.
        tasks: 1,
        spawn_total: 15,
        capacity: 2,
        seed: 0xE8_70_31,
        ..corpus().remove(0)
    }
}

/// The ring-reuse scenario: the mutant shape *without* the planted bug.
/// The necessity prover needs it because weakening the completion chain
/// (`SwsThiefComplete` / `SwsOwnerReclaimRead`) is only observable when
/// the owner reuses a reconciled slot while a thief copy could still be
/// in flight — exactly the capacity-2 spawn-tree pressure the mutation
/// self-test engineered, minus the mutation.
pub fn ring_reuse_scenario() -> Scenario {
    Scenario {
        name: "sws-ring-reuse",
        tasks: 1,
        spawn_total: 15,
        capacity: 2,
        seed: 0xE8_70_41,
        ..corpus().remove(0)
    }
}

/// Resolve a scenario by name (corpus plus the mutation self-test and
/// the ring-reuse scenario), for schedule replay.
pub fn find_scenario(name: &str) -> Option<Scenario> {
    for extra in [mutant_scenario(), ring_reuse_scenario()] {
        if extra.name == name {
            return Some(extra);
        }
    }
    corpus().into_iter().find(|s| s.name == name)
}

// ---------------------------------------------------------------------------
// Ordering control (the necessity prover's mutant tables).
// ---------------------------------------------------------------------------

/// The live tracker's fresh-read obligations: only the payload block
/// copies. Metadata reads (`SdcMetaRead` and friends) are deliberately
/// excluded — the protocols read stale metadata legally (abort peeks,
/// probes); it is the *payload* that must be fresh when it arrives.
pub fn fresh_spec() -> Vec<(u16, u32)> {
    vec![
        (AtomicSite::SwsThiefPayloadRead.id(), u32::MAX),
        (AtomicSite::SdcPayloadRead.id(), u32::MAX),
    ]
}

/// Build the ordering control for a live run: the production table with
/// `weaken` applied (if any) — the table the model explores the same
/// mutant under — plus the happens-before tracker.
pub fn ordering_ctl(n_pes: usize, weaken: Option<(AtomicSite, Weakening)>) -> Arc<OrderingCtl> {
    let table = AtomicSite::production_table();
    Arc::new(OrderingCtl {
        overrides: match weaken {
            Some((site, w)) => w.apply(site, table),
            None => table,
        },
        tracker: Some(OrdTracker::new(n_pes, fresh_spec())),
        defect: None,
    })
}

/// The control a self-test attaches to plant `defect`: the production
/// table and no tracker, so no oracle but the self-test's own can fire.
/// With `None` the control is attached and plants nothing.
pub fn defect_ctl(defect: Option<Defect>) -> Arc<OrderingCtl> {
    Arc::new(OrderingCtl {
        overrides: AtomicSite::production_table(),
        tracker: None,
        defect: defect.map(Defect::id),
    })
}

// ---------------------------------------------------------------------------
// One schedule execution.
// ---------------------------------------------------------------------------

/// A bag of distinctly tagged tasks seeded on PE 0, with per-tag
/// execution counters for the end-state conservation oracle. Count-only
/// conservation is too weak here: a thief that copies *overwritten*
/// ring words executes fresh tags twice and stale tags never, leaving
/// the total intact — only the per-tag multiset catches it.
/// Spawn shapes: with several roots, tag `t` chains into `t + roots`
/// (flat outstanding count — pops balance pushes); with a single root,
/// tag `t` spawns the heap children `2t+1`/`2t+2`, growing the
/// outstanding set so the ring wraps under pressure — the shape that
/// makes freed-slot reuse (and the seeded overwrite bug) reachable.
struct TaggedBag {
    /// Root tags seeded on PE 0 (`0..roots`).
    roots: u64,
    /// Total distinct tags, spawned descendants included.
    total: u64,
    executed: Arc<Vec<AtomicU32>>,
}

impl TaggedBag {
    fn new(roots: u64, total: u64) -> TaggedBag {
        let total = total.max(roots);
        TaggedBag {
            roots,
            total,
            executed: Arc::new((0..total).map(|_| AtomicU32::new(0)).collect()),
        }
    }

    /// `None` if every tag ran exactly once, else the violation.
    fn conservation_violation(&self) -> Option<String> {
        for (tag, c) in self.executed.iter().enumerate() {
            let n = c.load(Ordering::Acquire);
            if n != 1 {
                return Some(format!(
                    "conservation: tag {tag} executed {n} times (want 1)"
                ));
            }
        }
        None
    }
}

impl sws_sched::Workload for TaggedBag {
    fn register<'a>(&self, reg: &mut TaskRegistry<sws_sched::TaskCtx<'a>>) {
        let executed = Arc::clone(&self.executed);
        let (roots, total) = (self.roots, self.total);
        reg.register(SYNTH_FN, move |tctx, payload| {
            let tag = PayloadReader::new(payload).u64();
            if let Some(c) = executed.get(tag as usize) {
                c.fetch_add(1, Ordering::AcqRel);
            }
            if roots == 1 {
                for child in [2 * tag + 1, 2 * tag + 2] {
                    if child < total {
                        tctx.spawn(sized_task(child, 24));
                    }
                }
            } else if tag + roots < total {
                tctx.spawn(sized_task(tag + roots, 24));
            }
            tctx.compute(200);
        });
    }

    fn seeds(&self, pe: usize, _n_pes: usize) -> Vec<TaskDescriptor> {
        if pe == 0 {
            (0..self.roots).map(|i| sized_task(i, 24)).collect()
        } else {
            Vec::new()
        }
    }
}

/// Outcome of executing one schedule.
pub struct RunResult {
    /// The recorded decision log (up to the failure or budget point).
    pub trace: ExploreTrace,
    /// Did the schedule exhaust its step budget (not a failure)?
    pub truncated: bool,
    /// First invariant violation, if any.
    pub failure: Option<String>,
}

/// Execute `scenario` once under the forced choice `prefix` (default
/// policy past it) and check the oracles.
pub fn run_schedule(sc: &Scenario, prefix: &[u32], max_steps: u64) -> RunResult {
    let gate = Arc::new(ExploreGate::new(ExploreConfig {
        prefix: prefix.to_vec(),
        max_steps,
    }));
    let queue = QueueConfig::new(sc.capacity, 24)
        .with_layout(sc.layout)
        .with_policy(sc.policy);
    let sched = SchedConfig::new(sc.kind, queue)
        .with_seed(sc.seed)
        .with_damping(sc.damping)
        .with_progress_interval(2);
    let mut run = RunConfig::new(sc.n_pes, sched);
    if sc.weaken.is_some() {
        run = run.with_ordering(ordering_ctl(sc.n_pes, sc.weaken));
    } else if sc.defect.is_some() {
        run = run.with_ordering(defect_ctl(sc.defect));
    }
    if sc.faults {
        run = run.with_faults(FaultPlan::seeded(sc.seed ^ 0xFA_017).with_drop(
            OpClass::All,
            TargetSel::Any,
            0.05,
        ));
    }
    let bag = TaggedBag::new(sc.tasks, sc.spawn_total);
    let res = try_run_workload_mode(&run, &bag, ExecMode::Explore(Arc::clone(&gate)));
    let trace = gate.take_trace();
    let truncated = trace.truncated;
    let failure = match res {
        Err(ShmemError::PePanicked { pe, message }) => {
            if truncated || message.contains(TRUNCATED_MSG) {
                None
            } else {
                Some(format!("pe{pe} panicked: {message}"))
            }
        }
        Err(e) => Some(format!("world error: {e}")),
        Ok(_) => bag.conservation_violation(),
    };
    RunResult {
        trace,
        truncated,
        failure,
    }
}

// ---------------------------------------------------------------------------
// The explorer.
// ---------------------------------------------------------------------------

/// Exploration budgets.
#[derive(Clone, Debug)]
pub struct ExplorerConfig {
    /// Maximum preemptions per schedule (branches beyond are counted,
    /// not explored).
    pub preemptions: u32,
    /// Maximum schedules executed per scenario.
    pub max_schedules: u64,
    /// Per-schedule decision budget (spin-heavy schedules truncate).
    pub max_steps: u64,
}

impl Default for ExplorerConfig {
    fn default() -> ExplorerConfig {
        ExplorerConfig {
            preemptions: 2,
            max_schedules: 160,
            max_steps: 40_000,
        }
    }
}

impl ExplorerConfig {
    /// The deep-sweep budget: one more preemption, a much
    /// larger schedule allowance.
    pub fn deep() -> ExplorerConfig {
        ExplorerConfig {
            preemptions: 3,
            max_schedules: 2_000,
            max_steps: 80_000,
        }
    }
}

/// Per-scenario exploration counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScenarioStats {
    /// Schedules executed.
    pub schedules: u64,
    /// Schedules that hit the step budget.
    pub truncated: u64,
    /// Alternatives skipped because the pending pair was independent
    /// (different dependence class, different target, or no writer).
    pub pruned_independent: u64,
    /// Alternatives skipped by the preemption bound.
    pub pruned_preempt: u64,
    /// Branches enqueued (deduplicated).
    pub branches: u64,
    /// Deepest decision log seen.
    pub max_depth: usize,
    /// The frontier emptied with no schedule truncated: every schedule
    /// within the preemption bound was run.
    pub exhausted: bool,
}

/// A minimized failing schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// Scenario name (resolvable via [`find_scenario`]).
    pub scenario: String,
    /// Minimized forced-choice prefix that still fails.
    pub schedule: Vec<u32>,
    /// The violation the minimized schedule reproduces.
    pub failure: String,
    /// The ordering weakening active when the failure was found (the
    /// necessity prover's mutant); `None` for plain exploration.
    pub weaken: Option<(AtomicSite, Weakening)>,
}

/// Are two pending ops *dependent* — can reordering them change the
/// outcome? Both must be annotated protocol sites over the same target
/// PE's region in the same word family ([`sws_core::DepClass`]), with at
/// least one writer. The class relation over-approximates exact word
/// overlap (sound: extra branches, never missed ones); unannotated
/// control-plane ops never force a branch.
pub fn dependent(a: &OpDesc, b: &OpDesc) -> bool {
    if !(a.writes || b.writes) || a.target != b.target {
        return false;
    }
    match (AtomicSite::from_id(a.site), AtomicSite::from_id(b.site)) {
        (Some(sa), Some(sb)) => sa.dep_class() == sb.dep_class(),
        _ => false,
    }
}

/// No node: the root's parent, and the end of a child or sibling list.
const NIL: u32 = u32::MAX;

/// One node of the [`Tree`]: its parent's forced-choice prefix plus
/// `choice`.
#[derive(Clone, Copy)]
struct Node {
    parent: u32,
    choice: u32,
    first_child: u32,
    next_sibling: u32,
    /// This prefix has been admitted to the frontier.
    queued: bool,
}

/// The execution tree: every forced-choice prefix the explorer admitted,
/// plus the nodes of the runs' own choices leading to them. Node
/// [`Tree::ROOT`] is the empty prefix; a node's children are its
/// one-choice extensions, at most one per PE of the world, so finding a
/// child scans at most `n_pes` siblings. A prefix is spelled out only
/// when its node is popped, once per executed schedule.
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    const ROOT: u32 = 0;

    /// The tree of the empty prefix, admitted.
    fn new() -> Tree {
        Tree {
            nodes: vec![Node {
                parent: NIL,
                choice: 0,
                first_child: NIL,
                next_sibling: NIL,
                queued: true,
            }],
        }
    }

    /// The child of `node` that forces `choice` next, created on first use.
    fn child(&mut self, node: u32, choice: u32) -> u32 {
        let mut c = self.nodes[node as usize].first_child;
        while c != NIL {
            if self.nodes[c as usize].choice == choice {
                return c;
            }
            c = self.nodes[c as usize].next_sibling;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            parent: node,
            choice,
            first_child: NIL,
            next_sibling: self.nodes[node as usize].first_child,
            queued: false,
        });
        self.nodes[node as usize].first_child = id;
        id
    }

    /// Admit the prefix `choices[..i]` then `j` the first time it is
    /// offered: its node, or `None` if it was admitted before. `path[t]`
    /// is the node of `choices[..from + t]` (`path[0]` the node that was
    /// run); the path grows only as deep as the deepest `i` asked for.
    fn admit(
        &mut self,
        path: &mut Vec<u32>,
        from: usize,
        choices: &[u32],
        i: usize,
        j: u32,
    ) -> Option<u32> {
        while path.len() <= i - from {
            let (last, depth) = (path[path.len() - 1], from + path.len() - 1);
            path.push(self.child(last, choices[depth]));
        }
        let node = self.child(path[i - from], j);
        let queued = std::mem::replace(&mut self.nodes[node as usize].queued, true);
        (!queued).then_some(node)
    }

    /// The forced-choice prefix `node` stands for.
    fn prefix(&self, mut node: u32) -> Vec<u32> {
        let mut prefix = Vec::new();
        while node != Tree::ROOT {
            let n = self.nodes[node as usize];
            prefix.push(n.choice);
            node = n.parent;
        }
        prefix.reverse();
        prefix
    }
}

/// The latest two decisions of one access stream whose issuing PEs
/// differ: enough to name the latest one *not* issued by a given PE.
#[derive(Clone, Copy, Default)]
struct LastTwo {
    /// `(decision, issuer)`, latest first; `second`'s issuer is not
    /// `first`'s.
    first: Option<(usize, u32)>,
    second: Option<(usize, u32)>,
}

impl LastTwo {
    fn not_by(&self, pe: u32) -> Option<usize> {
        match self.first {
            Some((i, p)) if p != pe => Some(i),
            _ => self.second.map(|(i, _)| i),
        }
    }

    fn push(&mut self, i: usize, pe: u32) {
        if self.first.is_some_and(|(_, p)| p != pe) {
            self.second = self.first;
        }
        self.first = Some((i, pe));
    }
}

/// Rows of the race index per target PE: one per [`DepClass`], a
/// fieldless enum numbered from 0 whose last variant is `SdcPayload`.
const DEP_CLASSES: usize = DepClass::SdcPayload as usize + 1;

/// The DPOR back-scan: for each decision `k` from `from` on, the latest
/// decision `i` in `from..k` whose chosen op is [`dependent`] with `k`'s
/// and was issued by another PE, passed to `found(k, i)`. Dependence is
/// same target, same class and a writer among the two, so per
/// `(target, class)` the index keeps the latest two accesses and the
/// latest two writes with distinct issuers: a write at `k` looks among
/// all accesses, a read among the writes. O(1) a decision.
fn races(trace: &ExploreTrace, from: usize, mut found: impl FnMut(usize, usize)) {
    let mut index: Vec<[[LastTwo; 2]; DEP_CLASSES]> = Vec::new();
    for k in from..trace.len() {
        let d = trace.decision(k);
        let (q, op) = d.enabled[d.chosen as usize];
        let Some(site) = AtomicSite::from_id(op.site) else {
            continue;
        };
        let row = op.target as usize;
        if row >= index.len() {
            index.resize(row + 1, Default::default());
        }
        let [all, writes] = &mut index[row][site.dep_class() as usize];
        // A write depends on any access, a read only on writes.
        let earlier = if op.writes { &*all } else { &*writes };
        if let Some(i) = earlier.not_by(q) {
            found(k, i);
        }
        all.push(k, q);
        if op.writes {
            writes.push(k, q);
        }
    }
}

/// Offer every branch point of one executed schedule past its forced
/// prefix of length `from`, in frontier order, to `admit(i, j, preempts)`
/// — force alternative `j` at decision `i`, `preempts` being the branch's
/// injected preemptions — which says whether the branch was new. Two
/// generators:
///
/// 1. *Brother branching*: at a decision, swap the chosen op with a
///    co-pending dependent alternative (any alternative when
///    `branch_everywhere`).
/// 2. *DPOR backtracking*: for each op `B` at decision `k`, the latest
///    earlier decision `i` whose op `A` (another PE) is dependent with
///    `B` ([`races`]) schedules `B`'s PE at `i` instead — reordering
///    conflicts whose second half is not yet pending when the first half
///    runs (e.g. an owner ring write that happens long after the thief's
///    payload read it races with).
///
/// Independent alternatives, branches over the preemption bound and new
/// branches are counted in `stats`.
fn harvest(
    trace: &ExploreTrace,
    from: usize,
    preempts: u32,
    cfg: &ExplorerConfig,
    branch_everywhere: bool,
    stats: &mut ScenarioStats,
    mut admit: impl FnMut(usize, u32, u32) -> bool,
) {
    let mut offer = |stats: &mut ScenarioStats, i: usize, d: &Decision<'_>, j: usize, pe: u32| {
        let prev_pending = d.prev.filter(|p| d.enabled.iter().any(|&(q, _)| q == *p));
        let preempts = preempts + u32::from(prev_pending.is_some_and(|p| p != pe));
        if preempts > cfg.preemptions {
            stats.pruned_preempt += 1;
        } else if admit(i, j as u32, preempts) {
            stats.branches += 1;
        }
    };
    for i in from..trace.len() {
        let d = trace.decision(i);
        let (_, chosen_op) = d.enabled[d.chosen as usize];
        for (j, &(alt_pe, alt_op)) in d.enabled.iter().enumerate() {
            if j as u32 == d.chosen {
                continue;
            }
            if !branch_everywhere && !dependent(&alt_op, &chosen_op) {
                stats.pruned_independent += 1;
                continue;
            }
            offer(stats, i, &d, j, alt_pe);
        }
    }
    races(trace, from, |k, i| {
        let dk = trace.decision(k);
        let q = dk.enabled[dk.chosen as usize].0;
        let di = trace.decision(i);
        match di.enabled.iter().position(|&(pe, _)| pe == q) {
            Some(j) if j as u32 != di.chosen => offer(stats, i, &di, j, q),
            _ => {}
        }
    });
}

/// Explore one scenario: breadth-first over an execution tree of
/// forced-choice prefixes, with conflict-directed branching and
/// preemption bounding. Returns the stats and the first (minimized,
/// confirmed) counterexample, if any. Each executed schedule costs
/// O(decisions) on top of running it.
pub fn explore_scenario(
    sc: &Scenario,
    cfg: &ExplorerConfig,
) -> (ScenarioStats, Option<Counterexample>) {
    let mut stats = ScenarioStats::default();
    // Branch at every decision, not only at dependent pairs, when the
    // scenario carries a weakening. Class-based independence is sound for
    // the value/invariant oracles (commuting ops reach the same state) but
    // not for the ordering tracker: whether a later write covers a read
    // mark depends on the global order of ops on *different* words (a
    // thief's claim on the stealval word republishes its clock, masking a
    // race on a payload word). It costs more schedules per depth, which
    // is why plain exploration keeps the pruning.
    let branch_everywhere = sc.weaken.is_some();
    // Each entry: (execution-tree node of a forced-choice prefix,
    // injected preemptions so far). The bound counts only *injected*
    // divergences from the default policy that preempt a still-pending
    // PE — the default policy's own context switches (spin rotations,
    // spinner interleaves, aging) are its natural schedule and cost
    // nothing, exactly as in iterative context bounding.
    //
    // The frontier drains FIFO (breadth-first): shallow, few-preemption
    // schedules run before deep ones. Branch generation outpaces the
    // schedule budget on any non-trivial scenario, so a LIFO stack would
    // sink into the deepest subtree of the first trace and never return
    // — most single-preemption bugs (the common kind) would sit
    // unexplored at the bottom.
    let mut tree = Tree::new();
    let mut frontier: VecDeque<(u32, u32)> = VecDeque::from([(Tree::ROOT, 0)]);

    while let Some((node, preempts)) = frontier.pop_front() {
        if stats.schedules >= cfg.max_schedules {
            return (stats, None);
        }
        let prefix = tree.prefix(node);
        let res = run_schedule(sc, &prefix, cfg.max_steps);
        stats.schedules += 1;
        stats.truncated += u64::from(res.truncated);
        stats.max_depth = stats.max_depth.max(res.trace.len());

        if res.failure.is_some() {
            return (stats, Some(minimize(sc, &res, cfg)));
        }

        // Every branch extends the run's own choices, whose first
        // `prefix.len()` are the prefix it was forced through.
        let choices = res.trace.choices();
        debug_assert_eq!(choices.get(..prefix.len()), Some(&prefix[..]));
        let (from, mut path) = (prefix.len(), vec![node]);
        let mut admit = |i, j, p| {
            let Some(child) = tree.admit(&mut path, from, &choices, i, j) else {
                return false;
            };
            frontier.push_back((child, p));
            true
        };
        harvest(
            &res.trace,
            from,
            preempts,
            cfg,
            branch_everywhere,
            &mut stats,
            &mut admit,
        );
    }
    stats.exhausted = stats.truncated == 0;
    (stats, None)
}

/// Shrink a failing schedule with ddmin and confirm the minimized
/// schedule still fails (re-executed from scratch).
fn minimize(sc: &Scenario, failing: &RunResult, cfg: &ExplorerConfig) -> Counterexample {
    let full = failing.trace.choices();
    let fails = |cand: &[u32]| run_schedule(sc, cand, cfg.max_steps).failure.is_some();
    let schedule = if full.is_empty() || !fails(&full) {
        // The failure is not prefix-stable (rare: default-policy suffix
        // diverged); keep the run's own choice list unminimized.
        full
    } else {
        ddmin(&full, fails)
    };
    let confirmed = run_schedule(sc, &schedule, cfg.max_steps);
    Counterexample {
        scenario: sc.name.to_string(),
        schedule,
        failure: confirmed
            .failure
            .or_else(|| failing.failure.clone())
            .unwrap_or_else(|| "unconfirmed".to_string()),
        weaken: sc.weaken,
    }
}

// ---------------------------------------------------------------------------
// Schedule files.
// ---------------------------------------------------------------------------

/// Magic first line of a schedule file.
pub const SCHEDULE_MAGIC: &str = "sws-explore schedule v1";

/// A parsed schedule file. The optional `weaken:` line (added for the
/// necessity prover's counterexamples) names the catalog site and
/// weakening that were active; files without it parse as plain
/// exploration schedules, so the format stays backward compatible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleFile {
    /// Scenario name (resolvable via [`find_scenario`]).
    pub scenario: String,
    /// Forced-choice prefix.
    pub choices: Vec<u32>,
    /// Active ordering weakening, if the file records one.
    pub weaken: Option<(AtomicSite, Weakening)>,
    /// The failure the schedule reproduces (informational).
    pub failure: Option<String>,
}

/// Serialize a counterexample as a replayable schedule file.
pub fn write_schedule(ce: &Counterexample) -> String {
    let choices: Vec<String> = ce.schedule.iter().map(|c| c.to_string()).collect();
    let weaken = match ce.weaken {
        Some((site, w)) => format!("weaken: {} {}\n", site.name(), w.label()),
        None => String::new(),
    };
    format!(
        "{SCHEDULE_MAGIC}\nscenario: {}\n{weaken}failure: {}\nchoices: {}\n",
        ce.scenario,
        ce.failure,
        choices.join(" ")
    )
}

/// Parse a schedule file.
pub fn parse_schedule(text: &str) -> Result<ScheduleFile, String> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(SCHEDULE_MAGIC) {
        return Err(format!("not a schedule file (want `{SCHEDULE_MAGIC}`)"));
    }
    let mut scenario = None;
    let mut choices = None;
    let mut weaken = None;
    let mut failure = None;
    for line in lines {
        if let Some(rest) = line.strip_prefix("scenario: ") {
            scenario = Some(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("choices: ") {
            let parsed: Result<Vec<u32>, _> = rest.split_whitespace().map(str::parse).collect();
            choices = Some(parsed.map_err(|e| format!("bad choice: {e}"))?);
        } else if let Some(rest) = line.strip_prefix("weaken: ") {
            let mut parts = rest.split_whitespace();
            let (site, label) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            let site =
                AtomicSite::from_name(site).ok_or_else(|| format!("unknown site `{site}`"))?;
            let w = Weakening::from_label(label)
                .ok_or_else(|| format!("unknown weakening `{label}`"))?;
            weaken = Some((site, w));
        } else if let Some(rest) = line.strip_prefix("failure: ") {
            failure = Some(rest.trim().to_string());
        }
    }
    match (scenario, choices) {
        (Some(scenario), Some(choices)) => Ok(ScheduleFile {
            scenario,
            choices,
            weaken,
            failure,
        }),
        _ => Err("missing `scenario:` or `choices:` line".to_string()),
    }
}

/// Replay a schedule file: re-execute the named scenario under the
/// forced choices (and the recorded weakening, if any) and report what
/// happened.
pub fn replay_schedule(text: &str, max_steps: u64) -> Result<RunResult, String> {
    let file = parse_schedule(text)?;
    let mut sc = find_scenario(&file.scenario)
        .ok_or_else(|| format!("unknown scenario `{}`", file.scenario))?;
    sc.weaken = file.weaken;
    Ok(run_schedule(&sc, &file.choices, max_steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_core::MemOrder;
    use sws_shmem::NO_SITE;

    fn desc(site: u16, target: u32, writes: bool) -> OpDesc {
        OpDesc {
            site,
            target,
            offset: 0,
            len: 1,
            writes,
        }
    }

    #[test]
    fn dependence_needs_sites_class_target_and_a_writer() {
        let claim = AtomicSite::SwsThiefClaim.id();
        let adv = AtomicSite::SwsOwnerAdvertise.id();
        let comp = AtomicSite::SwsThiefComplete.id();
        assert!(dependent(&desc(claim, 0, true), &desc(adv, 0, true)));
        assert!(
            !dependent(&desc(claim, 0, true), &desc(comp, 0, true)),
            "stealval vs completion: different classes"
        );
        assert!(
            !dependent(&desc(claim, 0, true), &desc(adv, 1, true)),
            "different victims"
        );
        assert!(
            !dependent(&desc(NO_SITE, 0, true), &desc(adv, 0, true)),
            "control-plane op"
        );
        let probe = AtomicSite::SwsThiefProbe.id();
        let sv_read = AtomicSite::SwsOwnerSvRead.id();
        assert!(
            !dependent(&desc(probe, 0, false), &desc(sv_read, 0, false)),
            "two reads"
        );
    }

    /// The quadratic DPOR back-scan that [`races`] replaced: for each `k`,
    /// scan `from..k` backwards for the latest dependent op of another PE.
    fn back_scan(trace: &ExploreTrace, from: usize) -> Vec<(usize, usize)> {
        let chosen = |i: usize| {
            let d = trace.decision(i);
            d.enabled[d.chosen as usize]
        };
        (0..trace.len())
            .filter_map(|k| {
                let (q, op_b) = chosen(k);
                (from..k)
                    .rev()
                    .find(|&i| {
                        let (p, op_a) = chosen(i);
                        p != q && dependent(&op_a, &op_b)
                    })
                    .map(|i| (k, i))
            })
            .collect()
    }

    /// The prefix set that [`Tree`] replaced: admit `choices[..i]` then
    /// `j` unless that exact prefix was admitted before.
    fn admit_by_set(
        seen: &mut std::collections::HashSet<Vec<u32>>,
        choices: &[u32],
        i: usize,
        j: u32,
    ) -> Option<Vec<u32>> {
        let mut branch = choices[..i].to_vec();
        branch.push(j);
        seen.insert(branch.clone()).then_some(branch)
    }

    /// The race index and the execution tree against the structures they
    /// replaced, over every corpus scenario's default schedule and the
    /// first 24 frontier prefixes after it, plus the ring-reuse scenario
    /// under a weakening (whose brother branching takes every
    /// alternative): the same `k → i` pairs, and the same branches
    /// admitted and popped in the same order.
    #[test]
    fn tree_and_race_index_match_the_prefix_set_and_the_back_scan() {
        let cfg = ExplorerConfig::default();
        let mut weakened = ring_reuse_scenario();
        weakened.weaken = Some((
            AtomicSite::SwsThiefComplete,
            Weakening::Order(MemOrder::Relaxed),
        ));
        for sc in corpus().into_iter().chain([weakened]) {
            let name = sc.name;
            let mut stats = ScenarioStats::default();
            let mut tree = Tree::new();
            let mut seen = std::collections::HashSet::from([Vec::new()]);
            let mut frontier = VecDeque::from([(Tree::ROOT, 0, Vec::new())]);
            for _ in 0..25 {
                let Some((node, preempts, want)) = frontier.pop_front() else {
                    break;
                };
                let prefix = tree.prefix(node);
                assert_eq!(prefix, want, "{name}: popped prefix");
                let trace = run_schedule(&sc, &prefix, cfg.max_steps).trace;
                let mut pairs = Vec::new();
                races(&trace, prefix.len(), |k, i| pairs.push((k, i)));
                assert_eq!(
                    pairs,
                    back_scan(&trace, prefix.len()),
                    "{name} after {prefix:?}"
                );
                let choices = trace.choices();
                let mut path = vec![node];
                let everywhere = sc.weaken.is_some();
                harvest(
                    &trace,
                    prefix.len(),
                    preempts,
                    &cfg,
                    everywhere,
                    &mut stats,
                    |i, j, p| {
                        let by_tree = tree.admit(&mut path, prefix.len(), &choices, i, j);
                        let by_set = admit_by_set(&mut seen, &choices, i, j);
                        assert_eq!(by_tree.is_some(), by_set.is_some(), "{name}: ({i}, {j})");
                        if let (Some(node), Some(branch)) = (by_tree, by_set) {
                            frontier.push_back((node, p, branch));
                        }
                        by_tree.is_some()
                    },
                );
            }
            assert!(stats.branches > 25, "{name}: {stats:?}");
        }
    }

    #[test]
    fn schedule_files_round_trip() {
        let ce = Counterexample {
            scenario: "sws-epochs-half".to_string(),
            schedule: vec![0, 1, 0, 2],
            failure: "conservation: tag 3 executed 2 times (want 1)".to_string(),
            weaken: None,
        };
        let text = write_schedule(&ce);
        let file = parse_schedule(&text).expect("round trip");
        assert_eq!(file.scenario, ce.scenario);
        assert_eq!(file.choices, ce.schedule);
        assert_eq!(file.weaken, None);
        assert_eq!(file.failure.as_deref(), Some(ce.failure.as_str()));
        assert!(parse_schedule("bogus\n").is_err());
        assert!(parse_schedule(SCHEDULE_MAGIC).is_err(), "headers missing");
    }

    #[test]
    fn schedule_files_round_trip_a_weakening() {
        let ce = Counterexample {
            scenario: "sws-ring-reuse".to_string(),
            schedule: vec![2, 0, 1],
            failure: "pe0 panicked: ordering-track race".to_string(),
            weaken: Some((
                AtomicSite::SwsThiefComplete,
                Weakening::Order(MemOrder::Relaxed),
            )),
        };
        let text = write_schedule(&ce);
        assert!(
            text.contains("weaken: SwsThiefComplete to-relaxed"),
            "{text}"
        );
        let file = parse_schedule(&text).expect("round trip");
        assert_eq!(file.weaken, ce.weaken);
        assert!(
            parse_schedule(&text.replace("to-relaxed", "to-bogus")).is_err(),
            "unknown weakening label must not parse"
        );
        assert!(
            parse_schedule(&text.replace("SwsThiefComplete", "NoSuchSite")).is_err(),
            "unknown site must not parse"
        );
    }

    #[test]
    fn corpus_names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = corpus().iter().map(|s| s.name).collect();
        names.push(mutant_scenario().name);
        names.push(ring_reuse_scenario().name);
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate scenario names");
        for name in names {
            assert!(find_scenario(name).is_some(), "unresolvable `{name}`");
        }
        assert!(find_scenario("nope").is_none());
    }
}
