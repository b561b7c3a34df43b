//! Steal-span stitching: turn the [`ProtoLog`](sws_shmem::ProtoLog) a
//! world captures — its ops in apply order, decoded to [`ProtoEvent`]s as
//! the stitcher walks them — into per-steal spans with a phase-level
//! latency breakdown and an op/blocking-op budget — the paper's Table 1
//! claim (SWS: 3 ops / 2 blocking; SDC: 6 / 5) as a checked runtime
//! invariant.
//!
//! A span is one steal attempt (or damped probe) by one thief against one
//! victim: the thief's consecutive ops that carry one attempt number
//! ([`ProtoEvent::attempt`]; the queue starts an attempt at the top of
//! every `steal_from` and `probe`). Each op is read as the protocol step
//! [`sws_core::protocol::decode`] finds in it (an op whose operands the
//! protocol never issues is skipped — reporting it is the conformance
//! replay's job) and named by its site's catalog row, or by its step where
//! one site plays several parts: a lost SDC lock CAS is `contend`, a meta
//! read is `probe` before any lock CAS and `peek` after a lost one, and
//! the fault path writes a `marker`, a `rollback` and a `poison`.
//! While the lock is lost, CASes and peeks are *contention*: charged to
//! the span but outside the per-steal core budget, as the paper counts an
//! uncontended steal. One fold over the steps gives the outcome: a step
//! that ends a steal decides it (landed, poisoned or lost race, a closed
//! or exhausted claim, a probe, a meta read that found nothing); failing
//! that, a claim published and not rolled back is **open** — capture
//! records only ops whose memory effect applied, so a dropped completion
//! leaves its span open instead of folding it into a neighbour — and
//! anything else gave up (`Failed`).
//!
//! The result is a [`SpanList`]: the spans, and every span's phases in
//! one array beside them, so no span owns heap memory.

use std::ops::Deref;

use sws_core::protocol::{decode, Claim, Step};
use sws_core::{AtomicSite, QueueConfig};
use sws_sched::report::RunReport;
use sws_shmem::{ProtoEvent, ProtoOp};

pub use sws_core::CommBudget;
/// Which steal protocol a span belongs to.
pub use sws_core::Protocol as System;

/// How a steal attempt ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SpanOutcome {
    /// The thief landed `tasks` tasks and signalled completion.
    Completed {
        /// Stolen volume.
        tasks: u64,
    },
    /// The advertisement/shared section had nothing left.
    Empty,
    /// The steal gate was closed (or the SDC tail met the split).
    Closed,
    /// Claimed then undone: poisoned copy or owner-reclaimed claim.
    Aborted,
    /// Gave up without publishing a claim (fault budget exhausted).
    Failed,
    /// A claim was published but no completion was ever captured —
    /// e.g. a dropped completion op. Never counted as a steal.
    Open,
    /// A damped-probe read, not a steal attempt.
    Probe,
}

impl SpanOutcome {
    /// Short label for reports and trace slices.
    pub fn label(self) -> &'static str {
        match self {
            SpanOutcome::Completed { .. } => "steal",
            SpanOutcome::Empty => "steal-empty",
            SpanOutcome::Closed => "steal-closed",
            SpanOutcome::Aborted => "steal-aborted",
            SpanOutcome::Failed => "steal-failed",
            SpanOutcome::Open => "steal-open",
            SpanOutcome::Probe => "probe",
        }
    }
}

/// One captured protocol op inside a span, with its phase name and the
/// virtual time until the next op of the same span (0 for the last).
#[derive(Clone, Debug)]
pub struct PhaseSlice {
    /// Phase name ("claim", "payload", "lock", …).
    pub name: &'static str,
    /// Issuer virtual time at which the op's effect applied.
    pub t_ns: u64,
    /// Virtual time until the span's next op (0 for the last op).
    pub dur_ns: u64,
    /// The annotated protocol site.
    pub site: AtomicSite,
    /// Op shape.
    pub op: ProtoOp,
    /// Whether the op blocks the issuer (see [`ProtoOp::is_blocking`]).
    pub blocking: bool,
    /// Lock-contention overhead (failed SDC lock CAS or abort peek),
    /// excluded from the core per-steal op budget.
    pub contention: bool,
}

/// One stitched steal attempt (or probe). Its ops are in the
/// [`SpanList`] that holds it ([`SpanList::phases`]); their counts are
/// here.
#[derive(Clone, Debug)]
pub struct StealSpan {
    /// Protocol the span belongs to.
    pub system: System,
    /// The stealing PE.
    pub thief: u32,
    /// The PE stolen from.
    pub victim: u32,
    /// Virtual time of the first op.
    pub start_ns: u64,
    /// Virtual time of the last op.
    pub end_ns: u64,
    /// Terminal classification.
    pub outcome: SpanOutcome,
    /// Index of the first op in the list's phase array.
    first_phase: u32,
    ops: u32,
    blocking: u32,
    contention: u32,
}

impl StealSpan {
    /// Total captured one-sided ops.
    pub fn ops(&self) -> u64 {
        self.ops.into()
    }

    /// Captured ops that block the issuer.
    pub fn blocking_ops(&self) -> u64 {
        self.blocking.into()
    }

    /// Lock-contention ops (always blocking; SDC only).
    pub fn contention_ops(&self) -> u64 {
        self.contention.into()
    }

    /// Protocol ops excluding lock contention — the figure the paper's
    /// per-steal budget counts.
    pub fn core_ops(&self) -> u64 {
        self.ops() - self.contention_ops()
    }

    /// Blocking protocol ops excluding lock contention.
    pub fn core_blocking(&self) -> u64 {
        self.blocking_ops() - self.contention_ops()
    }

    /// Virtual-time latency from first to last captured op.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Stolen volume (0 unless completed).
    pub fn tasks(&self) -> u64 {
        match self.outcome {
            SpanOutcome::Completed { tasks } => tasks,
            _ => 0,
        }
    }
}

/// Stitched spans, and every span's ops in one array beside them.
/// Derefs to the spans; [`SpanList::phases`] gives a span's ops.
#[derive(Clone, Debug, Default)]
pub struct SpanList {
    spans: Vec<StealSpan>,
    phases: Vec<PhaseSlice>,
}

impl SpanList {
    /// `span`'s ops in issue order, each with its phase name and the
    /// virtual time until the span's next op.
    pub fn phases(&self, span: &StealSpan) -> &[PhaseSlice] {
        let first = span.first_phase as usize;
        &self.phases[first..first + span.ops as usize]
    }

    /// Every span's ops, span after span in the order they closed.
    pub fn all_phases(&self) -> &[PhaseSlice] {
        &self.phases
    }

    /// Append a span over `ops` (issue order, durations already set): it
    /// starts and ends at its first and last op, and counts them.
    pub(crate) fn push(
        &mut self,
        system: System,
        thief: u32,
        victim: u32,
        outcome: SpanOutcome,
        ops: &[PhaseSlice],
    ) -> &mut StealSpan {
        let count = |f: fn(&PhaseSlice) -> bool| ops.iter().filter(|p| f(p)).count() as u32;
        let at = self.spans.len();
        self.spans.push(StealSpan {
            system,
            thief,
            victim,
            start_ns: ops.first().map_or(0, |p| p.t_ns),
            end_ns: ops.last().map_or(0, |p| p.t_ns),
            outcome,
            first_phase: self.phases.len() as u32,
            ops: ops.len() as u32,
            blocking: count(|p| p.blocking),
            contention: count(|p| p.contention),
        });
        self.phases.extend_from_slice(ops);
        &mut self.spans[at]
    }
}

impl Deref for SpanList {
    type Target = [StealSpan];

    fn deref(&self) -> &[StealSpan] {
        &self.spans
    }
}

impl<'a> IntoIterator for &'a SpanList {
    type Item = &'a StealSpan;
    type IntoIter = std::slice::Iter<'a, StealSpan>;

    fn into_iter(self) -> Self::IntoIter {
        self.spans.iter()
    }
}

/// One thief's attempt in flight: its number and victim, its ops so far
/// in a buffer every attempt reuses, and the fold of their steps — the
/// SDC lock as the attempt last found it (`None`: no CAS yet), whether a
/// claim stands published, and what a step that ends a steal decided.
#[derive(Default)]
struct Stitcher {
    thief: u32,
    attempt: u32,
    victim: u32,
    ops: Vec<PhaseSlice>,
    lock: Option<bool>,
    claimed: bool,
    decided: Option<SpanOutcome>,
}

impl Stitcher {
    /// Add one of this thief's ops (`target != issuer`), closing the
    /// attempt in flight first if the op belongs to another.
    fn step(&mut self, list: &mut SpanList, e: &ProtoEvent, cfg: &QueueConfig) {
        // Owner-only sites never appear in a span.
        let Some(site) = AtomicSite::from_id(e.site).filter(|s| !s.row().owner_only) else {
            return;
        };
        let Ok(step) = decode(cfg, site, e) else {
            return;
        };
        if self.ops.is_empty() || e.attempt != self.attempt {
            self.close(list);
            (self.attempt, self.victim) = (e.attempt, e.target);
        }
        let name = self.fold(site, step);
        if let Some(last) = self.ops.last_mut() {
            last.dur_ns = e.t_ns - last.t_ns;
        }
        self.ops.push(PhaseSlice {
            name,
            t_ns: e.t_ns,
            dur_ns: 0,
            site,
            op: e.op,
            blocking: e.op.is_blocking(),
            contention: self.lock == Some(false)
                && matches!(step, Step::Lock { .. } | Step::Meta { .. }),
        });
    }

    /// Fold one step into the attempt (see the module docs) and name its
    /// op.
    fn fold(&mut self, site: AtomicSite, step: Step) -> &'static str {
        use SpanOutcome::*;
        let phase = site.row().phase;
        let (name, ends) = match step {
            Step::Probe => (phase, Some(Probe)),
            Step::Claim(Claim::Closed) => (phase, Some(Closed)),
            Step::Claim(Claim::Exhausted | Claim::Overflow) => (phase, Some(Empty)),
            Step::Claim(Claim::Live(_)) | Step::TailPut => {
                self.claimed = true;
                (phase, None)
            }
            Step::Landed { tasks } => (phase, Some(Completed { tasks })),
            Step::Poisoned { .. } => ("poison", Some(Aborted)),
            Step::LostRace => (phase, Some(Aborted)),
            Step::Lock { won } => {
                self.lock = Some(won);
                (if won { phase } else { "contend" }, None)
            }
            Step::Meta { empty } => match self.lock {
                None => ("probe", Some(Probe)),
                Some(false) => ("peek", empty.then_some(Closed)),
                Some(true) => (phase, empty.then_some(Empty)),
            },
            Step::Marker => ("marker", None),
            Step::Rollback { .. } => {
                self.claimed = false;
                ("rollback", None)
            }
            _ => (phase, None),
        };
        self.decided = ends.or(self.decided);
        name
    }

    /// Close the attempt in flight, if any: failing a step that decided
    /// it, a published claim is open and anything else gave up. Its ops
    /// move into `list`.
    fn close(&mut self, list: &mut SpanList) {
        let Some(first) = self.ops.first() else {
            return;
        };
        let claimed = std::mem::take(&mut self.claimed);
        let outcome = self.decided.take().unwrap_or(if claimed {
            SpanOutcome::Open
        } else {
            SpanOutcome::Failed
        });
        list.push(
            first.site.protocol(),
            self.thief,
            self.victim,
            outcome,
            &self.ops,
        );
        self.ops.clear();
        self.lock = None;
    }
}

/// Stitch a captured log into spans, in the order they close. Owner-side
/// ops (`target == issuer`) are ignored; every other op joins its
/// issuer's attempt in flight (see the module docs). Each issuer's ops
/// must be in its issue order (as captured); how the issuers interleave
/// does not matter, so one PE's stream and a run's whole log both do.
pub fn stitch_pe(events: &[ProtoEvent], cfg: &QueueConfig) -> SpanList {
    stitch(events.iter().copied(), cfg)
}

/// [`stitch_pe`] over events as they are decoded.
fn stitch(events: impl Iterator<Item = ProtoEvent>, cfg: &QueueConfig) -> SpanList {
    let mut list = SpanList::default();
    let mut thieves: Vec<Stitcher> = Vec::new();
    for e in events.filter(|e| e.target != e.issuer) {
        let thief = e.issuer as usize;
        if thief >= thieves.len() {
            let next = thieves.len() as u32..=e.issuer;
            thieves.extend(next.map(|thief| Stitcher {
                thief,
                ..Stitcher::default()
            }));
        }
        thieves[thief].step(&mut list, &e, cfg);
    }
    for st in &mut thieves {
        st.close(&mut list);
    }
    list
}

/// Stitch a run's capture in one pass and order the spans by
/// `(start_ns, thief)` — the key virtual time applies effects in. A
/// thief's spans keep the order they closed in.
pub fn stitch_report(report: &RunReport, cfg: &QueueConfig) -> SpanList {
    let mut list = stitch(report.proto_trace().iter(), cfg);
    // `first_phase` grows in closing order, so the key is unique and an
    // unstable sort is the stable one.
    list.spans
        .sort_unstable_by_key(|s| (s.start_ns, s.thief, s.first_phase));
    list
}

/// Aggregate comm accounting over a run's spans, with budget checking.
#[derive(Clone, Debug)]
pub struct CommReport {
    /// Protocol label ("SWS"/"SDC").
    pub system: String,
    /// Whether fault-mode budgets were applied.
    pub faults: bool,
    /// The budget checked against.
    pub budget: CommBudget,
    /// Completed steal spans.
    pub completed: u64,
    /// Tasks landed by completed spans.
    pub tasks: u64,
    /// Probe spans.
    pub probes: u64,
    /// Empty / closed / aborted / failed / open span tallies.
    pub empty: u64,
    /// Gate-closed spans.
    pub closed: u64,
    /// Aborted spans.
    pub aborted: u64,
    /// Gave-up spans.
    pub failed: u64,
    /// Open (unfinished) spans.
    pub open: u64,
    /// Σ core ops over completed spans.
    pub completed_core_ops: u64,
    /// Σ core blocking ops over completed spans.
    pub completed_core_blocking: u64,
    /// Σ total ops over completed spans (incl. contention).
    pub completed_total_ops: u64,
    /// Σ blocking ops over completed spans (incl. contention).
    pub completed_total_blocking: u64,
    /// Lock-contention ops across *all* spans.
    pub contention_ops: u64,
    /// Budget violations (capped at 8 messages).
    pub violations: Vec<String>,
}

impl CommReport {
    /// Did every completed span meet the budget?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Mean core ops per completed steal.
    pub fn mean_core_ops(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.completed_core_ops as f64 / self.completed as f64
        }
    }

    /// Mean core blocking ops per completed steal.
    pub fn mean_core_blocking(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.completed_core_blocking as f64 / self.completed as f64
        }
    }

    /// The comm-accounting summary block printed by `--assert-comms`.
    pub fn render(&self) -> String {
        let b = &self.budget;
        let rel = if b.exact { "=" } else { "≤" };
        let mut out = format!(
            "  comm accounting [{}{}]: {} completed steals ({} tasks), \
             {:.2} ops/steal ({rel}{}), {:.2} blocking/steal ({rel}{}): {}\n",
            self.system,
            if self.faults { ", faults" } else { "" },
            self.completed,
            self.tasks,
            self.mean_core_ops(),
            b.max_core_ops,
            self.mean_core_blocking(),
            b.max_core_blocking,
            if self.ok() { "OK" } else { "VIOLATED" },
        );
        out.push_str(&format!(
            "    spans: {} probe, {} empty, {} closed, {} aborted, {} failed, {} open; \
             {} lock-contention ops\n",
            self.probes,
            self.empty,
            self.closed,
            self.aborted,
            self.failed,
            self.open,
            self.contention_ops,
        ));
        for v in &self.violations {
            out.push_str(&format!("    VIOLATION: {v}\n"));
        }
        out
    }
}

/// Check every completed span in `spans` against the paper's op budget
/// and tally outcomes. `faults` selects the fault-mode budgets.
pub fn check_comms(spans: &SpanList, faults: bool) -> CommReport {
    let system = spans.first().map_or(System::Sws, |s| s.system);
    let budget = system.comm_budget(faults);
    let mut r = CommReport {
        system: system.label().to_string(),
        faults,
        budget,
        completed: 0,
        tasks: 0,
        probes: 0,
        empty: 0,
        closed: 0,
        aborted: 0,
        failed: 0,
        open: 0,
        completed_core_ops: 0,
        completed_core_blocking: 0,
        completed_total_ops: 0,
        completed_total_blocking: 0,
        contention_ops: 0,
        violations: Vec::new(),
    };
    for s in spans {
        r.contention_ops += s.contention_ops();
        match s.outcome {
            SpanOutcome::Completed { tasks } => {
                r.completed += 1;
                r.tasks += tasks;
                let (core, core_b) = (s.core_ops(), s.core_blocking());
                r.completed_core_ops += core;
                r.completed_core_blocking += core_b;
                r.completed_total_ops += s.ops();
                r.completed_total_blocking += s.blocking_ops();
                let bad = if budget.exact {
                    core != budget.max_core_ops || core_b != budget.max_core_blocking
                } else {
                    core > budget.max_core_ops || core_b > budget.max_core_blocking
                };
                if bad && r.violations.len() < 8 {
                    r.violations.push(format!(
                        "pe{} stole {} from pe{} at t={} with {} ops ({} blocking), budget {}{}/{}",
                        s.thief,
                        tasks,
                        s.victim,
                        s.start_ns,
                        core,
                        core_b,
                        if budget.exact { "=" } else { "≤" },
                        budget.max_core_ops,
                        budget.max_core_blocking,
                    ));
                }
            }
            SpanOutcome::Empty => r.empty += 1,
            SpanOutcome::Closed => r.closed += 1,
            SpanOutcome::Aborted => r.aborted += 1,
            SpanOutcome::Failed => r.failed += 1,
            SpanOutcome::Open => r.open += 1,
            SpanOutcome::Probe => r.probes += 1,
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_core::protocol::Completion;
    use sws_core::stealval::{Gate, StealVal, ASTEAL_UNIT};

    fn cfg() -> QueueConfig {
        QueueConfig::new(1024, 24)
    }

    fn sv_raw(asteals: u32, itasks: u32) -> u64 {
        cfg().layout.encode(StealVal {
            asteals,
            gate: Gate::Open { epoch: 0 },
            itasks,
            tail: 0,
        })
    }

    /// A captured op of PE 1's steal attempt `attempt` against PE 0.
    fn ev(
        attempt: u32,
        t: u64,
        site: AtomicSite,
        op: ProtoOp,
        arg: u64,
        arg2: u64,
        prev: u64,
    ) -> ProtoEvent {
        ProtoEvent {
            t_ns: t,
            issuer: 1,
            target: 0,
            offset: 0,
            len: 1,
            site: site.id(),
            attempt,
            op,
            arg,
            arg2,
            prev,
        }
    }

    #[test]
    fn sws_clean_steal_is_three_ops_two_blocking() {
        let events = [
            ev(
                1,
                10,
                AtomicSite::SwsThiefProbe,
                ProtoOp::Fetch,
                0,
                0,
                sv_raw(0, 8),
            ),
            ev(
                2,
                20,
                AtomicSite::SwsThiefClaim,
                ProtoOp::FetchAdd,
                ASTEAL_UNIT,
                0,
                sv_raw(0, 8),
            ),
            ev(
                2,
                30,
                AtomicSite::SwsThiefPayloadRead,
                ProtoOp::Get,
                0,
                0,
                0,
            ),
            ev(
                2,
                45,
                AtomicSite::SwsThiefComplete,
                ProtoOp::SetNbi,
                4,
                0,
                0,
            ),
        ];
        let spans = stitch_pe(&events, &cfg());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].outcome, SpanOutcome::Probe);
        let s = &spans[1];
        assert_eq!(s.outcome, SpanOutcome::Completed { tasks: 4 });
        assert_eq!(s.ops(), 3);
        assert_eq!(s.blocking_ops(), 2);
        assert_eq!(s.latency_ns(), 25);
        let durs: Vec<u64> = spans.phases(s).iter().map(|p| p.dur_ns).collect();
        assert_eq!(durs, [10, 15, 0]);
        let report = check_comms(&spans, false);
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.completed, 1);
        assert_eq!(report.probes, 1);
    }

    #[test]
    fn sws_claim_classifies_closed_and_empty() {
        let closed_raw = cfg().layout.encode(StealVal {
            asteals: 0,
            gate: Gate::Closed,
            itasks: 0,
            tail: 0,
        });
        let events = [
            ev(
                1,
                10,
                AtomicSite::SwsThiefClaim,
                ProtoOp::FetchAdd,
                ASTEAL_UNIT,
                0,
                closed_raw,
            ),
            // Eight initial tasks under Half policy allow 3 steals; the
            // 9th asteal sees an exhausted advertisement.
            ev(
                2,
                20,
                AtomicSite::SwsThiefClaim,
                ProtoOp::FetchAdd,
                ASTEAL_UNIT,
                0,
                sv_raw(9, 8),
            ),
        ];
        let spans = stitch_pe(&events, &cfg());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].outcome, SpanOutcome::Closed);
        assert_eq!(spans[1].outcome, SpanOutcome::Empty);
        assert_eq!(spans[0].ops(), 1);
    }

    #[test]
    fn dropped_completion_yields_open_span_not_misattribution() {
        // First steal's completion never applied (dropped); the second
        // claim against the same victim must open a fresh span.
        let events = [
            ev(
                1,
                10,
                AtomicSite::SwsThiefClaim,
                ProtoOp::FetchAdd,
                ASTEAL_UNIT,
                0,
                sv_raw(0, 8),
            ),
            ev(
                1,
                20,
                AtomicSite::SwsThiefPayloadRead,
                ProtoOp::Get,
                0,
                0,
                0,
            ),
            // no completion
            ev(
                2,
                50,
                AtomicSite::SwsThiefClaim,
                ProtoOp::FetchAdd,
                ASTEAL_UNIT,
                0,
                sv_raw(1, 8),
            ),
            ev(
                2,
                60,
                AtomicSite::SwsThiefPayloadRead,
                ProtoOp::Get,
                0,
                0,
                0,
            ),
            ev(
                2,
                70,
                AtomicSite::SwsThiefComplete,
                ProtoOp::CompareSwap,
                2,
                0,
                0,
            ),
        ];
        let spans = stitch_pe(&events, &cfg());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].outcome, SpanOutcome::Open);
        assert_eq!(spans[0].ops(), 2);
        assert_eq!(spans[1].outcome, SpanOutcome::Completed { tasks: 2 });
        assert_eq!(spans[1].ops(), 3);
        assert_eq!(spans[1].start_ns, 50);
    }

    #[test]
    fn sws_fault_poison_is_aborted() {
        let events = [
            ev(
                1,
                10,
                AtomicSite::SwsThiefClaim,
                ProtoOp::FetchAdd,
                ASTEAL_UNIT,
                0,
                sv_raw(0, 8),
            ),
            ev(
                1,
                20,
                AtomicSite::SwsThiefComplete,
                ProtoOp::CompareSwap,
                Completion::Poisoned(0).word(),
                0,
                0,
            ),
        ];
        let spans = stitch_pe(&events, &cfg());
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].outcome, SpanOutcome::Aborted);
        let names: Vec<_> = spans.phases(&spans[0]).iter().map(|p| p.name).collect();
        assert_eq!(names, ["claim", "poison"]);
    }

    #[test]
    fn sdc_clean_steal_is_six_ops_five_blocking() {
        let events = [
            // Damped probe (its own attempt).
            ev(1, 5, AtomicSite::SdcMetaRead, ProtoOp::Get, 0, 8, 2),
            // Contended round: failed CAS + abort peek.
            ev(2, 10, AtomicSite::SdcLockCas, ProtoOp::CompareSwap, 1, 0, 1),
            ev(2, 12, AtomicSite::SdcMetaRead, ProtoOp::Get, 0, 8, 2),
            // Won the lock.
            ev(2, 20, AtomicSite::SdcLockCas, ProtoOp::CompareSwap, 1, 0, 0),
            ev(2, 25, AtomicSite::SdcMetaRead, ProtoOp::Get, 0, 8, 2),
            ev(2, 30, AtomicSite::SdcTailPut, ProtoOp::Put, 5, 0, 0),
            ev(2, 35, AtomicSite::SdcUnlock, ProtoOp::Set, 0, 0, 1),
            ev(2, 40, AtomicSite::SdcPayloadRead, ProtoOp::Get, 0, 0, 0),
            ev(2, 50, AtomicSite::SdcComplete, ProtoOp::SetNbi, 3, 0, 0),
        ];
        let spans = stitch_pe(&events, &cfg());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].outcome, SpanOutcome::Probe);
        let s = &spans[1];
        assert_eq!(s.outcome, SpanOutcome::Completed { tasks: 3 });
        assert_eq!(s.ops(), 8);
        assert_eq!(s.contention_ops(), 2);
        assert_eq!(s.core_ops(), 6);
        assert_eq!(s.core_blocking(), 5);
        let report = check_comms(&spans, false);
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.contention_ops, 2);
    }

    #[test]
    fn sdc_peek_sees_closed_queue() {
        let events = [
            ev(1, 10, AtomicSite::SdcLockCas, ProtoOp::CompareSwap, 1, 0, 1),
            // tail (prev) == split (arg2): closed.
            ev(1, 12, AtomicSite::SdcMetaRead, ProtoOp::Get, 0, 8, 8),
        ];
        let spans = stitch_pe(&events, &cfg());
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].outcome, SpanOutcome::Closed);
    }

    #[test]
    fn sdc_empty_and_fault_rollback() {
        let m = Completion::Claimed(3).word();
        let events = [
            // Empty shared section: lock, meta (tail == split), unlock.
            ev(1, 10, AtomicSite::SdcLockCas, ProtoOp::CompareSwap, 1, 0, 0),
            ev(1, 15, AtomicSite::SdcMetaRead, ProtoOp::Get, 0, 4, 4),
            ev(1, 20, AtomicSite::SdcUnlock, ProtoOp::Set, 0, 0, 1),
            // Fault path: lock, meta, marker, rollback (tail put never
            // applied), unlock → Failed.
            ev(2, 30, AtomicSite::SdcLockCas, ProtoOp::CompareSwap, 1, 0, 0),
            ev(2, 35, AtomicSite::SdcMetaRead, ProtoOp::Get, 0, 8, 2),
            ev(2, 40, AtomicSite::SdcComplete, ProtoOp::Set, m, 0, 0),
            ev(
                2,
                45,
                AtomicSite::SdcComplete,
                ProtoOp::CompareSwap,
                0,
                m,
                m,
            ),
            ev(2, 50, AtomicSite::SdcUnlock, ProtoOp::Set, 0, 0, 1),
        ];
        let spans = stitch_pe(&events, &cfg());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].outcome, SpanOutcome::Empty);
        assert_eq!(spans[1].outcome, SpanOutcome::Failed);
    }

    #[test]
    fn sdc_fault_completed_is_seven_ops() {
        let m = Completion::Claimed(3).word();
        let events = [
            ev(1, 10, AtomicSite::SdcLockCas, ProtoOp::CompareSwap, 1, 0, 0),
            ev(1, 15, AtomicSite::SdcMetaRead, ProtoOp::Get, 0, 8, 2),
            ev(1, 20, AtomicSite::SdcComplete, ProtoOp::Set, m, 0, 0),
            ev(1, 25, AtomicSite::SdcTailPut, ProtoOp::Put, 5, 0, 0),
            ev(1, 30, AtomicSite::SdcUnlock, ProtoOp::Set, 0, 0, 1),
            ev(1, 40, AtomicSite::SdcPayloadRead, ProtoOp::Get, 0, 0, 0),
            ev(
                1,
                50,
                AtomicSite::SdcComplete,
                ProtoOp::CompareSwap,
                3,
                m,
                m,
            ),
        ];
        let spans = stitch_pe(&events, &cfg());
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].outcome, SpanOutcome::Completed { tasks: 3 });
        assert_eq!(spans[0].core_ops(), 7);
        assert_eq!(spans[0].core_blocking(), 7);
        let report = check_comms(&spans, true);
        assert!(report.ok(), "{:?}", report.violations);
        // Clean budget must reject the fault shape.
        assert!(!check_comms(&spans, false).ok());
    }

    #[test]
    fn sdc_dropped_completion_is_open() {
        let events = [
            ev(1, 10, AtomicSite::SdcLockCas, ProtoOp::CompareSwap, 1, 0, 0),
            ev(1, 15, AtomicSite::SdcMetaRead, ProtoOp::Get, 0, 8, 2),
            ev(1, 20, AtomicSite::SdcTailPut, ProtoOp::Put, 5, 0, 0),
            ev(1, 25, AtomicSite::SdcUnlock, ProtoOp::Set, 0, 0, 1),
            ev(1, 30, AtomicSite::SdcPayloadRead, ProtoOp::Get, 0, 0, 0),
            // completion dropped; next activity is a fresh probe.
            ev(2, 60, AtomicSite::SdcMetaRead, ProtoOp::Get, 0, 8, 5),
        ];
        let spans = stitch_pe(&events, &cfg());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].outcome, SpanOutcome::Open);
        assert_eq!(spans[1].outcome, SpanOutcome::Probe);
    }

    /// Two attempts against one victim: a won-lock empty attempt, then a
    /// contended one whose peek finds the queue drained. The lock CAS
    /// that opens the second is its own attempt's, not the first's.
    #[test]
    fn an_empty_attempt_then_a_contended_one_are_two_spans() {
        let events = [
            ev(1, 10, AtomicSite::SdcLockCas, ProtoOp::CompareSwap, 1, 0, 0),
            ev(1, 15, AtomicSite::SdcMetaRead, ProtoOp::Get, 0, 4, 4),
            ev(1, 20, AtomicSite::SdcUnlock, ProtoOp::Set, 0, 0, 1),
            ev(2, 30, AtomicSite::SdcLockCas, ProtoOp::CompareSwap, 1, 0, 1),
            ev(2, 35, AtomicSite::SdcMetaRead, ProtoOp::Get, 0, 4, 4),
        ];
        let spans = stitch_pe(&events, &cfg());
        assert_eq!(
            spans.iter().map(|s| s.outcome).collect::<Vec<_>>(),
            [SpanOutcome::Empty, SpanOutcome::Closed]
        );
        assert_eq!((spans[0].ops(), spans[0].contention_ops()), (3, 0));
        assert_eq!((spans[1].ops(), spans[1].contention_ops()), (2, 2));
        let names: Vec<&str> = spans.phases(&spans[1]).iter().map(|p| p.name).collect();
        assert_eq!(names, ["contend", "peek"]);
    }

    #[test]
    fn owner_ops_are_ignored() {
        let mut e = ev(1, 10, AtomicSite::SwsOwnerAdvertise, ProtoOp::Set, 0, 0, 0);
        e.target = e.issuer;
        assert!(stitch_pe(&[e], &cfg()).is_empty());
    }
}
