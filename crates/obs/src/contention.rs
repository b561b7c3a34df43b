//! Per-site contention heat table (`sws-run --contention`).
//!
//! Renders the [`SiteCounters`] profile a run recorded under
//! `RunConfig::profile_sites` as a table keyed by the `AtomicSite`
//! catalog — the same catalog ORDERINGS.md documents and the necessity
//! prover mutates — so contention hot spots line up row-for-row with
//! the ordering discussion. Rows emit in catalog (`AtomicSite::ALL`)
//! order and skip untouched sites, making the text output a stable
//! golden-test surface.
//!
//! The interesting column is CAS loss rate: the fraction of
//! compare-and-swap attempts at a site that lost the race. The paper's
//! core claim is that SWS's structured fetch-add protocol removes the
//! SDC lock CAS from the steal path; under profiling that shows up
//! directly as `SdcLockCas` carrying losses while the SWS steal sites
//! carry none.

use sws_core::AtomicSite;
use sws_sched::report::RunReport;
use sws_shmem::SiteCounters;

use crate::json::escape;

/// One rendered row of the contention table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContentionRow {
    /// The catalog site.
    pub site: AtomicSite,
    /// Its merged counters across PEs.
    pub counters: SiteCounters,
}

/// The merged profile of `report`, in catalog order, untouched sites
/// skipped. Counters recorded against ids past the catalog (impossible
/// today — the adapters only pass catalog sites) are dropped.
pub fn contention_rows(report: &RunReport) -> Vec<ContentionRow> {
    let merged = report.site_profile();
    AtomicSite::ALL
        .iter()
        .filter_map(|&site| {
            let c = merged.get(site.id() as usize).copied()?;
            (!c.is_empty()).then_some(ContentionRow { site, counters: c })
        })
        .collect()
}

/// Render [`contention_rows`] as an aligned text table. Empty profile
/// (run without `--contention`, or a run that never touched a catalog
/// site) renders a one-line notice instead of an empty table.
pub fn contention_table(rows: &[ContentionRow]) -> String {
    use std::fmt::Write as _;
    if rows.is_empty() {
        return "contention: no per-site profile (run with --contention)\n".to_string();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>9} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9}",
        "site", "rmw", "cas-won", "cas-lost", "loss%", "loads", "stores", "bulk"
    );
    for r in rows {
        let c = &r.counters;
        // Tenths of a percent, integer math: deterministic text.
        let loss = match (c.cas_lost * 1000).checked_div(c.cas_won + c.cas_lost) {
            None => "-".to_string(),
            Some(permille) => format!("{}.{}", permille / 10, permille % 10),
        };
        let _ = writeln!(
            out,
            "{:<22} {:>9} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9}",
            r.site.name(),
            c.rmw,
            c.cas_won,
            c.cas_lost,
            loss,
            c.loads,
            c.stores,
            c.bulk
        );
    }
    out
}

/// [`contention_rows`] as a single-line JSON object:
/// `{"sites":{"<name>":{"rmw":..,"cas_won":..,...},...}}` in catalog
/// order.
pub fn contention_to_json(rows: &[ContentionRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"sites\":{");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let c = &r.counters;
        let _ = write!(
            out,
            "\"{}\":{{\"rmw\":{},\"cas_won\":{},\"cas_lost\":{},\"loads\":{},\
             \"stores\":{},\"bulk\":{}}}",
            escape(r.site.name()),
            c.rmw,
            c.cas_won,
            c.cas_lost,
            c.loads,
            c.stores,
            c.bulk
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_sched::report::WorkerStats;

    fn report_with_profile(profile: Vec<SiteCounters>) -> RunReport {
        let w = WorkerStats {
            site_prof: profile,
            ..WorkerStats::default()
        };
        RunReport {
            system: "SWS".to_string(),
            n_pes: 1,
            makespan_ns: 0,
            workers: vec![w],
            comm: Default::default(),
            proto: Default::default(),
            wall_ms: 0,
        }
    }

    #[test]
    fn rows_follow_catalog_order_and_skip_empty_sites() {
        // Touch two sites out of catalog order in the raw vec.
        let claim = AtomicSite::SwsThiefClaim.id() as usize;
        let lock = AtomicSite::SdcLockCas.id() as usize;
        let mut prof = vec![SiteCounters::default(); claim.max(lock) + 1];
        prof[lock].cas_won = 3;
        prof[lock].cas_lost = 1;
        prof[claim].rmw = 7;
        let report = report_with_profile(prof);
        let rows = contention_rows(&report);
        assert_eq!(rows.len(), 2);
        // SwsThiefClaim precedes SdcLockCas in the catalog.
        assert_eq!(rows[0].site, AtomicSite::SwsThiefClaim);
        assert_eq!(rows[1].site, AtomicSite::SdcLockCas);
        let text = contention_table(&rows);
        assert!(text.contains("SwsThiefClaim"), "{text}");
        assert!(text.contains("25.0"), "loss% of 1/4: {text}");
        let j = crate::json::Json::parse(&contention_to_json(&rows)).expect("valid json");
        let lock = j.get("sites").unwrap().get("SdcLockCas").unwrap();
        assert_eq!(lock.get("cas_lost").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn empty_profile_renders_notice() {
        let report = report_with_profile(Vec::new());
        let rows = contention_rows(&report);
        assert!(rows.is_empty());
        assert!(contention_table(&rows).contains("no per-site profile"));
        assert_eq!(contention_to_json(&rows), "{\"sites\":{}}");
    }
}
