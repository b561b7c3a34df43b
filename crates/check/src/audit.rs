//! The memory-ordering audit: which orderings are load-bearing?
//!
//! For every [`AtomicSite`] the audit re-runs the (smaller, per-site)
//! scenario set with that one site's ordering weakened — to `Relaxed`
//! always, and additionally to each single half (`Acquire`, `Release`)
//! for the `AcqRel` RMW sites. A site is **load-bearing** if any
//! weakening produces a violation; the violation kind and the scenario
//! that exposed it are recorded. The table is rendered into
//! `ORDERINGS.md` at the repo root between generated-block markers and
//! kept honest by a golden test (`SWS_CHECK_BLESS=1` regenerates).
//!
//! A "no" verdict does *not* mean the production ordering is pointless on
//! real hardware — it means the fault-free bounded scenarios cannot
//! distinguish it, usually because a neighbouring site's ordering already
//! carries the synchronization (the table's notes say which). The
//! production code keeps the conservative ordering either way; the table
//! tells reviewers which edges the protocol's correctness actually rests
//! on.

use sws_core::{AtomicSite, MemOrder, Necessity, Protocol, Weakening};

use crate::explore::{explore, Config, Failure};
use crate::mem::OrdTable;
use crate::necessity::{mutants, EvidenceRecord};
use crate::{all_scenarios, Machine};

/// Result of exploring the audit scenarios under one weakened table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every scenario passed: the weakening is indistinguishable here.
    Pass,
    /// A scenario failed.
    Fail {
        /// Violation kind tag (see [`crate::Violation::kind`]).
        kind: &'static str,
        /// Scenario that exposed it.
        scenario: &'static str,
    },
}

impl RunOutcome {
    fn cell(&self) -> String {
        match self {
            RunOutcome::Pass => "ok".into(),
            RunOutcome::Fail { kind, scenario } => format!("**{kind}** ({scenario})"),
        }
    }
}

/// One audit-table row.
#[derive(Clone, Debug)]
pub struct AuditRow {
    /// The site under audit.
    pub site: AtomicSite,
    /// Outcome with the site fully relaxed.
    pub relaxed: RunOutcome,
    /// Outcome weakened to `Acquire` (RMW sites only).
    pub acquire: Option<RunOutcome>,
    /// Outcome weakened to `Release` (RMW sites only).
    pub release: Option<RunOutcome>,
}

impl AuditRow {
    /// Is any weakening observable — i.e. is the production ordering
    /// load-bearing in the modeled scenarios?
    pub fn load_bearing(&self) -> bool {
        let fails = |o: &RunOutcome| matches!(o, RunOutcome::Fail { .. });
        fails(&self.relaxed)
            || self.acquire.as_ref().is_some_and(fails)
            || self.release.as_ref().is_some_and(fails)
    }
}

/// Explore `protocol`'s scenarios among `worlds` until one fails. A
/// protocol with no scenario at all is a failure too: nothing ran, so
/// nothing was shown.
pub(crate) fn run_scenarios(
    worlds: &[Machine],
    protocol: Protocol,
    cfg: &Config,
) -> Result<RunOutcome, Failure> {
    let mut selected = worlds
        .iter()
        .filter(|w| w.protocol() == protocol)
        .peekable();
    if selected.peek().is_none() {
        return Err(Failure {
            scenario: protocol.label(),
            violation: crate::Violation::NoEndState,
            trace: Vec::new(),
        });
    }
    for w in selected {
        if let Err(f) = explore(w, cfg) {
            let kind = f.violation.kind();
            // Search-budget failures are checker bugs, not verdicts.
            if kind == "state-space" || kind == "no-end-state" {
                return Err(f);
            }
            return Ok(RunOutcome::Fail {
                kind,
                scenario: f.scenario,
            });
        }
    }
    Ok(RunOutcome::Pass)
}

/// The model's outcome for one mutant: `site`'s protocol's audit
/// scenarios under the production table with `w` applied. The audit
/// columns and the necessity campaign's model oracle are both this.
pub(crate) fn weakened(
    site: AtomicSite,
    w: Weakening,
    cfg: &Config,
) -> Result<RunOutcome, Failure> {
    run_scenarios(
        &all_scenarios(&OrdTable::mutant(site, w), true),
        site.protocol(),
        cfg,
    )
}

/// Run the full audit. Errs if the *production* table itself fails (a
/// checker or protocol bug — the weakenings are only meaningful against
/// a clean baseline) or if a run exhausts its search budget.
pub fn run_audit(cfg: &Config) -> Result<Vec<AuditRow>, Failure> {
    for w in all_scenarios(&OrdTable::production(), true) {
        explore(&w, cfg)?;
    }
    // The half columns are the campaign's one-step mutants of the RMW
    // sites; the relaxed column goes all the way down for every site.
    let space = mutants();
    let mut rows = Vec::new();
    for site in AtomicSite::ALL {
        let half = |o: MemOrder| {
            let w = Weakening::Order(o);
            space
                .contains(&(site, w))
                .then(|| weakened(site, w, cfg))
                .transpose()
        };
        rows.push(AuditRow {
            site,
            relaxed: weakened(site, Weakening::Order(MemOrder::Relaxed), cfg)?,
            acquire: half(MemOrder::Acquire)?,
            release: half(MemOrder::Release)?,
        });
    }
    Ok(rows)
}

/// Marker opening the generated block in `ORDERINGS.md`.
pub const BEGIN_MARK: &str = "<!-- BEGIN GENERATED by sws-check -->";
/// Marker closing the generated block.
pub const END_MARK: &str = "<!-- END GENERATED -->";

/// The live-necessity cell for one site: its committed evidence records
/// (`crates/check/schedules/`), one clause per weakening.
fn necessity_cell(site: AtomicSite, evidence: &[EvidenceRecord]) -> String {
    let mut clauses: Vec<String> = Vec::new();
    for rec in evidence.iter().filter(|r| r.site == site) {
        let clause = match &rec.live {
            Necessity::Broken { kind, .. } => {
                format!("{}: **{kind}**", rec.weakening.label())
            }
            Necessity::ExhaustedAtBound { .. } => {
                format!("{}: exhausted", rec.weakening.label())
            }
        };
        clauses.push(clause);
    }
    if clauses.is_empty() {
        "—".into()
    } else {
        clauses.join("; ")
    }
}

/// Render the complete `ORDERINGS.md` contents for the audit rows plus
/// the live-oracle necessity evidence.
pub fn render(rows: &[AuditRow], evidence: &[EvidenceRecord]) -> String {
    let mut s = String::new();
    s.push_str(
        "# Memory-ordering audit\n\
         \n\
         Per-site verdicts from the `sws-check` bounded model checker: each\n\
         [`AtomicSite`](crates/core/src/ordering.rs) is weakened one at a time\n\
         (to `Relaxed`, and to each half for the `AcqRel` RMW sites) and the\n\
         audit scenarios re-explored exhaustively. A **bold** cell is the\n\
         violation the weakening produces — that ordering is load-bearing. An\n\
         `ok` cell means the fault-free bounded scenarios cannot distinguish\n\
         the weakening, usually because an adjacent site already carries the\n\
         synchronizes-with edge; production keeps the conservative ordering\n\
         regardless. See `DESIGN.md` §7 for the invariant catalog behind the\n\
         verdicts and `crates/check` for the machinery.\n\
         \n\
         The **Live necessity** column is the second oracle: the necessity\n\
         prover (`sws-check necessity`) replays the same weakenings against\n\
         the *production* queues under the exploration scheduler, with a\n\
         vector-clock happens-before tracker checking every gated access\n\
         (`sws_shmem::overrides`). A **bold** clause names the violation a\n\
         committed, ddmin-shrunk schedule under `crates/check/schedules/`\n\
         deterministically reproduces; `exhausted` means the bounded live\n\
         search found nothing and `schedules/EXHAUSTED.tsv` records the\n\
         bounds backing the claim. Mutants the model breaks but the live\n\
         oracle exhausts are expected — the abstract scenarios reach deeper\n\
         reorderings than the preemption-bounded live budget.\n\
         \n\
         The **Class** column is the site's dependence class\n\
         ([`DepClass`](crates/core/src/ordering.rs)): the family of protocol\n\
         words the site touches. The exploration scheduler\n\
         (`sws-check explore`) only branches schedules at pairs of gated ops\n\
         whose sites share a class and whose word spans overlap with a\n\
         writer — sites in different classes live at disjoint symmetric\n\
         addresses and commute.\n\
         \n\
         Regenerate with: `SWS_CHECK_BLESS=1 cargo test -p sws-check --test\n\
         ordering_audit` (table) and `sws-check necessity --bless`\n\
         (evidence).\n\
         \n",
    );
    s.push_str(BEGIN_MARK);
    s.push('\n');
    s.push_str(
        "\n| Site | Location | Class | Production | → Relaxed | → Acquire | → Release | Load-bearing | Live necessity |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let opt = |o: &Option<RunOutcome>| o.as_ref().map_or("—".into(), |o| o.cell());
        s.push_str(&format!(
            "| `{}` | `{}` | {} | {} | {} | {} | {} | {} | {} |\n",
            r.site.name(),
            r.site.location(),
            r.site.dep_class().name(),
            r.site.production().name(),
            r.relaxed.cell(),
            opt(&r.acquire),
            opt(&r.release),
            if r.load_bearing() { "**yes**" } else { "no" },
            necessity_cell(r.site, evidence),
        ));
    }
    let bearing = rows.iter().filter(|r| r.load_bearing()).count();
    s.push_str(&format!(
        "\n{bearing} of {} sites are load-bearing in the modeled scenarios.\n",
        rows.len()
    ));
    s.push_str(END_MARK);
    s.push('\n');
    s.push_str(
        "\nReading the table:\n\
         \n\
         * The publication chain `SwsOwnerAdvertise` (release) →\n\
           `SwsThiefClaim` (acquire) is what makes a thief's block copy safe:\n\
           weakening either side lets the copy legally observe pre-publication\n\
           ring contents (a stale read). The per-word payload orderings\n\
           themselves are *not* load-bearing — the advertise/claim edge\n\
           already orders them, which is exactly why the paper's single\n\
           fetch-add discovery-and-claim is sound.\n\
         * The completion chain `SwsThiefComplete` (release) →\n\
           `SwsOwnerReclaimRead` (acquire) is what makes ring-slot reuse\n\
           safe: weakening either side lets the owner overwrite a slot a\n\
           thief may still be copying (a race, exposed by the capacity-2\n\
           reuse scenario).\n\
         * In SDC the lock pair `SdcLockCas`/`SdcUnlock` and the split/tail\n\
           publication carry everything; the tail put and the owner's\n\
           under-lock reads are covered by the lock's edges.\n\
         * Owner-side stealval reads (`SwsOwnerSvRead`) tolerate staleness by\n\
           construction: the attempted-steals counter is monotonic per\n\
           advertisement, so a stale read only under-reports and the\n\
           release/reclaim logic retries — the paper's design makes the\n\
           ordering on that read structurally unnecessary. Both oracles\n\
           exhausted their bounds on the acquire→relaxed mutant, so\n\
           production now issues that load `Relaxed` (the table's\n\
           `Relaxed` production entry *is* the applied relaxation; see\n\
           `DESIGN.md` §13).\n",
    );
    s
}

/// Path of the checked-in `ORDERINGS.md` (repo root, relative to this
/// crate's manifest).
pub fn orderings_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("ORDERINGS.md")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A mutant's verdict is only as good as the scenarios behind it: a
    /// selection that matches nothing (a scenario renamed, a protocol
    /// whose scenarios were dropped) must not read as `ok`/`exhausted`.
    #[test]
    fn a_protocol_with_no_scenarios_does_not_pass() {
        let all = all_scenarios(&OrdTable::production(), true);
        let (sws, sdc): (Vec<Machine>, Vec<Machine>) =
            all.into_iter().partition(|w| w.protocol() == Protocol::Sws);
        assert!(!sws.is_empty() && !sdc.is_empty());
        let cfg = Config::default();
        assert_eq!(
            run_scenarios(&sws, Protocol::Sws, &cfg).unwrap(),
            RunOutcome::Pass
        );
        let f = run_scenarios(&sws, Protocol::Sdc, &cfg).expect_err("nothing ran");
        assert_eq!((f.scenario, f.violation.kind()), ("SDC", "no-end-state"));
        assert!(run_scenarios(&[], Protocol::Sws, &cfg).is_err());
    }
}
