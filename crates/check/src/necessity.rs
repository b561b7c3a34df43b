//! The ordering-necessity prover: mutation-test every cataloged memory
//! ordering against both oracles.
//!
//! For each [`AtomicSite`] the campaign applies every one-step weakening
//! on the ordering lattice ([`AtomicSite::weakenings`]: `AcqRel` loses a
//! half, `Acquire`/`Release` drop to `Relaxed`, CAS sites additionally
//! relax their failure-path load) and demands machine-produced evidence
//! per mutant:
//!
//! * the **model oracle** re-explores the bounded abstract protocol
//!   machines ([`crate::machine`]) under the weakened
//!   [`crate::OrdTable`] — exhaustive within its bounds;
//! * the **live oracle** drives the production queues under the
//!   exploration gate with the weakening installed in the world's
//!   [`sws_shmem::OrderingCtl`] and the vector-clock tracker checking
//!   the weakened happens-before (see `sws_shmem::overrides`).
//!
//! Both tables are one value: [`sws_core::Weakening::apply`] on
//! [`AtomicSite::production_table`], so the two oracles test the same
//! mutant (`tests/necessity_live.rs` checks it for every mutant).
//!
//! A mutant the live oracle breaks yields a ddmin-shrunk schedule file
//! committed under `crates/check/schedules/`; a mutant that survives is
//! recorded in `schedules/EXHAUSTED.tsv` with the bounds that back the
//! claim. [`load_evidence`] enforces exactly-one-record-per-mutant, so
//! the `ORDERINGS.md` golden test fails when the catalog and the
//! committed evidence drift apart. `sws-check necessity` replays every
//! committed witness and re-explores the survivors (see
//! [`verify`] / [`bless`]).

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use sws_core::{AtomicSite, Necessity, Oracle, Protocol, Weakening};
use sws_shmem::overrides::{TRACK_RACE, TRACK_STALE};

use crate::audit::{weakened, RunOutcome};
use crate::explore::{Config, Failure};
use crate::live::{
    corpus, explore_scenario, replay_schedule, ring_reuse_scenario, write_schedule, Counterexample,
    ExplorerConfig, Scenario,
};

/// Campaign budgets for the live oracle; the model oracle always runs at
/// its default search bounds.
#[derive(Clone, Debug)]
pub struct Bounds {
    /// Live-oracle exploration budgets (per scenario per mutant).
    pub live: ExplorerConfig,
    /// Run the full non-fault scenario corpus per mutant instead of the
    /// curated quick subset.
    pub full_corpus: bool,
    /// Label recorded with exhausted-at-bound verdicts.
    pub label: &'static str,
}

impl Bounds {
    /// The per-push CI budget: default explorer bounds, curated
    /// scenarios.
    pub fn quick() -> Bounds {
        Bounds {
            live: ExplorerConfig::default(),
            full_corpus: false,
            label: "quick",
        }
    }

    /// The nightly budget: deep explorer bounds over the full non-fault
    /// corpus.
    pub fn deep() -> Bounds {
        Bounds {
            live: ExplorerConfig::deep(),
            full_corpus: true,
            label: "deep",
        }
    }

    /// Human-readable live-bound summary recorded with exhausted
    /// verdicts.
    pub fn live_bounds(&self) -> String {
        format!(
            "{}: {} preemptions, {} schedules x {} scenarios, model {} preemptions",
            self.label,
            self.live.preemptions,
            self.live.max_schedules,
            if self.full_corpus { "full" } else { "quick" },
            Config::default().preemptions,
        )
    }
}

/// The verdict pair for one (site, weakening) mutant.
#[derive(Clone, Debug)]
pub struct MutantVerdict {
    /// Site under mutation.
    pub site: AtomicSite,
    /// The weakening applied.
    pub weakening: Weakening,
    /// Model-oracle verdict.
    pub model: Necessity,
    /// Live-oracle verdict.
    pub live: Necessity,
}

/// Every (site, weakening) mutant in campaign order.
pub fn mutants() -> Vec<(AtomicSite, Weakening)> {
    let mut out = Vec::new();
    for site in AtomicSite::ALL {
        for w in site.weakenings() {
            out.push((site, w));
        }
    }
    out
}

/// Live scenarios driven for `site`'s mutants: the protocol's non-fault
/// corpus scenarios (fault injection would conflate dropped-op recovery
/// with ordering evidence) plus, for SWS, the capacity-2 ring-reuse
/// scenario that makes the completion chain observable.
pub fn live_scenarios(site: AtomicSite, full_corpus: bool) -> Vec<Scenario> {
    let prefix = if site.protocol() == Protocol::Sws {
        "sws"
    } else {
        "sdc"
    };
    let quick: &[&str] = if prefix == "sws" {
        &["sws-epochs-half", "sws-validbit-half"]
    } else {
        &["sdc-half", "sdc-quarter-3pe"]
    };
    let mut out: Vec<Scenario> = corpus()
        .into_iter()
        .filter(|s| s.name.starts_with(prefix) && !s.faults)
        .filter(|s| full_corpus || quick.contains(&s.name))
        .collect();
    if prefix == "sws" {
        out.push(ring_reuse_scenario());
    }
    out
}

/// Violation-kind tag for a live failure message.
pub fn classify(failure: &str) -> &'static str {
    if failure.contains(TRACK_STALE) {
        "stale-read"
    } else if failure.contains(TRACK_RACE) {
        "race"
    } else if failure.contains("conservation") {
        "conservation"
    } else if failure.contains("invariant") {
        "invariant"
    } else {
        "panic"
    }
}

/// Model-oracle verdict for one mutant: the protocol's audit scenarios
/// re-explored under the weakened table.
pub fn model_verdict(site: AtomicSite, w: Weakening, cfg: &Config) -> Result<Necessity, Failure> {
    Ok(match weakened(site, w, cfg)? {
        RunOutcome::Pass => Necessity::ExhaustedAtBound {
            bounds: format!(
                "model: {} preemptions, {} states",
                cfg.preemptions, cfg.max_states
            ),
        },
        RunOutcome::Fail { kind, scenario } => Necessity::Broken {
            oracle: Oracle::Model,
            kind: kind.to_string(),
            witness: scenario.to_string(),
        },
    })
}

/// Live-oracle verdict for one mutant: explore each scenario with the
/// weakening installed; the first counterexample wins.
pub fn live_verdict(
    site: AtomicSite,
    w: Weakening,
    bounds: &Bounds,
) -> (Necessity, Option<Counterexample>) {
    for mut sc in live_scenarios(site, bounds.full_corpus) {
        sc.weaken = Some((site, w));
        let (_, ce) = explore_scenario(&sc, &bounds.live);
        if let Some(ce) = ce {
            let necessity = Necessity::Broken {
                oracle: Oracle::Live,
                kind: classify(&ce.failure).to_string(),
                witness: sched_name(site, w),
            };
            return (necessity, Some(ce));
        }
    }
    (
        Necessity::ExhaustedAtBound {
            bounds: bounds.live_bounds(),
        },
        None,
    )
}

// ---------------------------------------------------------------------------
// Committed evidence: crates/check/schedules/
// ---------------------------------------------------------------------------

/// The committed evidence directory (this crate's `schedules/`).
pub fn schedules_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("schedules")
}

/// Witness-file name for a mutant.
pub fn sched_name(site: AtomicSite, w: Weakening) -> String {
    format!("{}-{}.sched", site.name(), w.label())
}

const EXHAUSTED_FILE: &str = "EXHAUSTED.tsv";

/// One committed evidence record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvidenceRecord {
    /// Site under mutation.
    pub site: AtomicSite,
    /// The weakening the record covers.
    pub weakening: Weakening,
    /// The live verdict the evidence backs.
    pub live: Necessity,
}

/// Load and validate the committed live evidence: every mutant from
/// [`mutants`] must be covered exactly once — by a parseable witness
/// schedule (named `<Site>-<label>.sched`, whose embedded weakening
/// matches its name) or by an `EXHAUSTED.tsv` row. Anything missing,
/// duplicated, unparseable, or stale (a record for a mutant the catalog
/// no longer produces) is an error.
pub fn load_evidence(dir: &Path) -> Result<Vec<EvidenceRecord>, String> {
    let space = mutants();
    let mut records: Vec<EvidenceRecord> = Vec::new();
    let mut push = |rec: EvidenceRecord| -> Result<(), String> {
        if !space.contains(&(rec.site, rec.weakening)) {
            return Err(format!(
                "stale evidence: {} {} is not a campaign mutant",
                rec.site.name(),
                rec.weakening.label()
            ));
        }
        if records
            .iter()
            .any(|r| (r.site, r.weakening) == (rec.site, rec.weakening))
        {
            return Err(format!(
                "duplicate evidence for {} {}",
                rec.site.name(),
                rec.weakening.label()
            ));
        }
        records.push(rec);
        Ok(())
    };

    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut sched_files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "sched"))
        .collect();
    sched_files.sort();
    for path in &sched_files {
        let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let file =
            crate::live::parse_schedule(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some((site, w)) = file.weaken else {
            return Err(format!("{}: witness records no weakening", path.display()));
        };
        let want = sched_name(site, w);
        if path.file_name().and_then(|n| n.to_str()) != Some(want.as_str()) {
            return Err(format!(
                "{}: file name does not match its weakening (want {want})",
                path.display()
            ));
        }
        let Some(failure) = file.failure else {
            return Err(format!("{}: witness records no failure", path.display()));
        };
        push(EvidenceRecord {
            site,
            weakening: w,
            live: Necessity::Broken {
                oracle: Oracle::Live,
                kind: classify(&failure).to_string(),
                witness: want,
            },
        })?;
    }

    let exhausted_path = dir.join(EXHAUSTED_FILE);
    let text = fs::read_to_string(&exhausted_path)
        .map_err(|e| format!("read {}: {e}", exhausted_path.display()))?;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '\t');
        let (Some(name), Some(label), Some(bounds)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "{EXHAUSTED_FILE}:{}: expected `site<TAB>weakening<TAB>bounds`",
                i + 1
            ));
        };
        let Some(site) = AtomicSite::from_name(name) else {
            return Err(format!("{EXHAUSTED_FILE}:{}: unknown site {name}", i + 1));
        };
        let Some(w) = Weakening::from_label(label) else {
            return Err(format!(
                "{EXHAUSTED_FILE}:{}: unknown weakening {label}",
                i + 1
            ));
        };
        push(EvidenceRecord {
            site,
            weakening: w,
            live: Necessity::ExhaustedAtBound {
                bounds: bounds.to_string(),
            },
        })?;
    }

    let mut missing = Vec::new();
    for (site, w) in &space {
        if !records.iter().any(|r| (r.site, r.weakening) == (*site, *w)) {
            missing.push(format!("{} {}", site.name(), w.label()));
        }
    }
    if !missing.is_empty() {
        return Err(format!(
            "missing evidence for {} mutant(s): {} — run `sws-check necessity --bless`",
            missing.len(),
            missing.join(", ")
        ));
    }
    records.sort_by_key(|r| (r.site.id(), r.weakening.label()));
    Ok(records)
}

/// Replay step budget for committed witnesses (comfortably above any
/// shrunk schedule's needs).
pub const REPLAY_STEPS: u64 = 80_000;

/// Replay every committed witness schedule; each must still fail with
/// the violation kind its file records.
pub fn replay_witnesses(dir: &Path) -> Result<usize, String> {
    let mut n = 0;
    for rec in load_evidence(dir)? {
        let Necessity::Broken { kind, witness, .. } = &rec.live else {
            continue;
        };
        let path = dir.join(witness);
        let text =
            fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let res = replay_schedule(&text, REPLAY_STEPS)?;
        match &res.failure {
            Some(f) if classify(f) == kind => n += 1,
            other => {
                return Err(format!(
                    "{witness}: replay produced {other:?}, want a {kind} violation"
                ))
            }
        }
    }
    Ok(n)
}

// ---------------------------------------------------------------------------
// The campaign: verify / bless
// ---------------------------------------------------------------------------

/// Campaign outcome summary.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Witnesses replayed successfully.
    pub replayed: usize,
    /// Mutants re-explored (committed as exhausted).
    pub explored: usize,
    /// Per-mutant verdicts (model + live) in campaign order.
    pub verdicts: Vec<MutantVerdict>,
}

/// Verify the committed evidence at `bounds`: every witness must replay
/// to its recorded violation kind, and every exhausted-at-bound mutant
/// is re-explored — a counterexample there means the committed evidence
/// is stale (the weakening *is* observable) and must be re-blessed. The
/// model oracle runs for every mutant regardless (it is exhaustive
/// within bounds and fast). Errs on any mismatch.
pub fn verify(bounds: &Bounds, dir: &Path) -> Result<CampaignReport, String> {
    let evidence = load_evidence(dir)?;
    let mut report = CampaignReport {
        replayed: replay_witnesses(dir)?,
        ..CampaignReport::default()
    };
    for rec in evidence {
        let model = model_verdict(rec.site, rec.weakening, &Config::default())
            .map_err(|f| format!("model oracle failed: {f:?}"))?;
        let live = match &rec.live {
            Necessity::Broken { .. } => rec.live.clone(),
            Necessity::ExhaustedAtBound { .. } => {
                report.explored += 1;
                let (live, ce) = live_verdict(rec.site, rec.weakening, bounds);
                if let Some(ce) = ce {
                    return Err(format!(
                        "stale evidence: {} {} is recorded exhausted-at-bound but the \
                         live oracle broke it ({} in {} choices) — run \
                         `sws-check necessity --bless`",
                        rec.site.name(),
                        rec.weakening.label(),
                        classify(&ce.failure),
                        ce.schedule.len(),
                    ));
                }
                live
            }
        };
        report.verdicts.push(MutantVerdict {
            site: rec.site,
            weakening: rec.weakening,
            model,
            live,
        });
    }
    Ok(report)
}

/// Run the full campaign and rewrite the evidence directory: committed
/// witnesses that still replay are kept (stable diffs), everything else
/// is re-explored; fresh counterexamples become witness files and
/// survivors become `EXHAUSTED.tsv` rows.
pub fn bless(bounds: &Bounds, dir: &Path) -> Result<CampaignReport, String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut report = CampaignReport::default();
    let mut exhausted = String::from(
        "# Mutants the live oracle could not distinguish, with the bounds\n\
         # backing each claim. Regenerate: `sws-check necessity --bless`.\n",
    );
    let mut keep: Vec<String> = vec![EXHAUSTED_FILE.to_string()];
    for (site, w) in mutants() {
        let model = model_verdict(site, w, &Config::default())
            .map_err(|f| format!("model oracle failed: {f:?}"))?;
        let name = sched_name(site, w);
        let path = dir.join(&name);
        // A still-replaying committed witness is kept as-is.
        let existing = fs::read_to_string(&path).ok().and_then(|text| {
            let replayed = replay_schedule(&text, REPLAY_STEPS).ok()?;
            let failure = replayed.failure?;
            Some(failure)
        });
        let (live, ce) = match existing {
            Some(failure) => {
                report.replayed += 1;
                let live = Necessity::Broken {
                    oracle: Oracle::Live,
                    kind: classify(&failure).to_string(),
                    witness: name.clone(),
                };
                (live, None)
            }
            None => {
                report.explored += 1;
                live_verdict(site, w, bounds)
            }
        };
        match (&live, ce) {
            (Necessity::Broken { .. }, Some(ce)) => {
                fs::write(&path, write_schedule(&ce))
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                keep.push(name);
            }
            (Necessity::Broken { .. }, None) => keep.push(name),
            (Necessity::ExhaustedAtBound { bounds: b }, _) => {
                let _ = writeln!(exhausted, "{}\t{}\t{b}", site.name(), w.label());
            }
        }
        report.verdicts.push(MutantVerdict {
            site,
            weakening: w,
            model,
            live,
        });
    }
    fs::write(dir.join(EXHAUSTED_FILE), exhausted)
        .map_err(|e| format!("write {EXHAUSTED_FILE}: {e}"))?;
    // Drop witnesses for mutants that left the campaign space.
    if let Ok(entries) = fs::read_dir(dir) {
        for e in entries.filter_map(Result::ok) {
            let p = e.path();
            let known = p
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| keep.iter().any(|k| k == n));
            if p.extension().is_some_and(|x| x == "sched") && !known {
                let _ = fs::remove_file(&p);
            }
        }
    }
    Ok(report)
}

/// Render the campaign verdicts as an aligned text table (the
/// `sws-check necessity` report).
pub fn render_report(report: &CampaignReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{} witnesses replayed, {} mutants explored",
        report.replayed, report.explored
    );
    for v in &report.verdicts {
        let cell = |n: &Necessity| match n {
            Necessity::Broken {
                oracle,
                kind,
                witness,
            } => {
                format!("{} {kind} ({witness})", oracle.name())
            }
            Necessity::ExhaustedAtBound { .. } => "exhausted".to_string(),
        };
        let _ = writeln!(
            s,
            "  {:<22} {:<16} model: {:<28} live: {}",
            v.site.name(),
            v.weakening.label(),
            cell(&v.model),
            cell(&v.live),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_core::MemOrder;

    #[test]
    fn mutant_space_covers_every_non_relaxed_site() {
        let space = mutants();
        for site in AtomicSite::ALL {
            let n = space.iter().filter(|(s, _)| *s == site).count();
            assert_eq!(n, site.weakenings().len(), "{}", site.name());
            if site.production() != MemOrder::Relaxed {
                assert!(n > 0, "{} has no mutants", site.name());
            }
        }
        // The CAS failure-path mutant exists exactly once.
        let cas = space
            .iter()
            .filter(|(_, w)| *w == Weakening::CasFailure)
            .count();
        assert_eq!(cas, 1);
    }

    #[test]
    fn classify_tags_tracker_violations() {
        assert_eq!(
            classify("pe1 panicked: ordering-track stale-read: ..."),
            "stale-read"
        );
        assert_eq!(classify("pe0 panicked: ordering-track race: ..."), "race");
        assert_eq!(
            classify("tag 3 executed twice (conservation)"),
            "conservation"
        );
        assert_eq!(classify("something else"), "panic");
    }

    #[test]
    fn sched_names_round_trip_through_evidence_keys() {
        for (site, w) in mutants() {
            let name = sched_name(site, w);
            let stem = name.strip_suffix(".sched").expect("suffix");
            let (s, l) = stem.split_at(site.name().len());
            assert_eq!(s, site.name());
            assert_eq!(Weakening::from_label(&l[1..]), Some(w));
        }
    }
}
