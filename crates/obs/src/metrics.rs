//! The metrics registry a finished run exports through.
//!
//! [`Registry::from_report`] is the only way to build one: it adapts the
//! ad-hoc stat carriers — `QueueStats`, `OpStats`, `EngineStats`,
//! `WorkerStats` — into one table of rows, each with its value on every
//! PE, plus span histograms merged across PEs. `render_text()` emits a
//! Prometheus-style text exposition, `to_json()` a machine-readable
//! snapshot (`sws-run --metrics` prints both ways).

use std::collections::BTreeMap;

use sws_sched::report::{RunReport, WorkerStats};
use sws_sched::trace::Pow2Histogram;
use sws_shmem::{OpStats, ALL_OP_KINDS};

use crate::json::escape;
use crate::span::SpanList;

/// What a scalar metric means (histograms are their own type).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone sum; merged by addition.
    Counter,
    /// Point-in-time value; still merged by addition across PEs (a
    /// per-PE breakdown is preserved in the JSON snapshot).
    Gauge,
}

impl MetricKind {
    fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One scalar metric and its value on each PE.
struct Row {
    name: String,
    help: String,
    kind: MetricKind,
    per_pe: Vec<u64>,
}

impl Row {
    /// The value summed across PEs.
    fn total(&self) -> u64 {
        self.per_pe.iter().sum()
    }
}

/// One histogram metric, its samples from every PE merged.
struct Hist {
    name: String,
    help: String,
    samples: Pow2Histogram,
}

/// A finished run's metrics: scalar rows in declaration order, then
/// histograms.
pub struct Registry {
    pes: usize,
    rows: Vec<Row>,
    hists: Vec<Hist>,
}

/// A worker-level metric: name, help, kind and where a PE's value is.
type WorkerMetric = (
    &'static str,
    &'static str,
    MetricKind,
    fn(&WorkerStats) -> u64,
);

#[rustfmt::skip]
const WORKER_METRICS: [WorkerMetric; 26] = {
    use MetricKind::{Counter, Gauge};
    [
        ("sws_tasks_executed", "tasks executed", Counter, |w| w.tasks_executed),
        ("sws_task_ns", "virtual ns spent executing tasks", Counter, |w| w.task_ns),
        ("sws_steal_ns", "virtual ns spent inside steal ops", Counter, |w| w.steal_ns),
        ("sws_search_ns", "virtual ns spent searching for victims", Counter, |w| w.search_ns),
        ("sws_upkeep_ns", "virtual ns spent on queue upkeep", Counter, |w| w.upkeep_ns),
        ("sws_runtime_ns", "per-PE virtual runtime", Gauge, |w| w.runtime_ns),
        ("sws_first_work_ns", "virtual time of first task", Gauge, |w| w.first_work_ns),
        ("sws_crashed", "1 if the PE crash-stopped", Gauge, |w| w.crashed as u64),
        ("sws_pes_quarantined", "victims this PE quarantined", Counter, |w| w.pes_quarantined),
        ("sws_queue_enqueued", "tasks enqueued", Counter, |w| w.queue.enqueued),
        ("sws_queue_popped", "tasks popped locally", Counter, |w| w.queue.popped),
        ("sws_queue_releases", "release operations", Counter, |w| w.queue.releases),
        ("sws_queue_acquires", "acquire operations", Counter, |w| w.queue.acquires),
        ("sws_queue_acquire_misses", "acquires that found nothing", Counter, |w| w.queue.acquire_misses),
        ("sws_queue_steal_attempts", "steal attempts issued", Counter, |w| w.queue.steal_attempts),
        ("sws_queue_steals_won", "steals that landed tasks", Counter, |w| w.queue.steals_won),
        ("sws_queue_tasks_stolen", "tasks landed by steals", Counter, |w| w.queue.tasks_stolen),
        ("sws_queue_steals_empty", "steals that found nothing", Counter, |w| w.queue.steals_empty),
        ("sws_queue_steals_closed", "steals that hit a closed gate", Counter, |w| w.queue.steals_closed),
        ("sws_queue_owner_polls", "owner progress polls", Counter, |w| w.queue.owner_polls),
        ("sws_queue_reclaimed", "claims reclaimed by the owner", Counter, |w| w.queue.reclaimed),
        ("sws_queue_steals_retried", "ops retried under faults", Counter, |w| w.queue.steals_retried),
        ("sws_queue_steals_failed", "steals abandoned under faults", Counter, |w| w.queue.steals_failed),
        ("sws_queue_steals_aborted", "steals aborted after claiming", Counter, |w| w.queue.steals_aborted),
        ("sws_queue_completions_poisoned", "poisoned completions", Counter, |w| w.queue.completions_poisoned),
        ("sws_queue_claims_reclaimed", "claims lost to reclaim", Counter, |w| w.queue.claims_reclaimed),
    ]
};

/// The serial executor's counters, declared after the comm metrics.
#[rustfmt::skip]
const ENGINE_METRICS: [WorkerMetric; 4] = [
    ("sws_engine_fast_ops", "gate ops on the lock-free fast path", MetricKind::Counter, |w| w.engine.fast_ops),
    ("sws_engine_slow_ops", "gate ops through the slow path", MetricKind::Counter, |w| w.engine.slow_ops),
    ("sws_engine_windows", "horizons granted (PE resumes)", MetricKind::Counter, |w| w.engine.windows),
    ("sws_engine_gate_wait_ns", "always 0: PEs share one thread", MetricKind::Counter, |w| w.engine.gate_wait_ns),
];

impl Registry {
    /// Prometheus-style text exposition: `# HELP`/`# TYPE` preambles,
    /// merged totals, and `_count`/`_sum`/`_p50`/`_p95`/`_p99` series
    /// for histograms.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.rows {
            let _ = writeln!(out, "# HELP {} {}", r.name, r.help);
            let _ = writeln!(out, "# TYPE {} {}", r.name, r.kind.label());
            let _ = writeln!(out, "{} {}", r.name, r.total());
        }
        for h in &self.hists {
            let (name, s) = (&h.name, &h.samples);
            let _ = writeln!(out, "# HELP {name} {}", h.help);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let _ = writeln!(out, "{name}_count {}", s.n);
            let _ = writeln!(out, "{name}_sum {}", s.sum);
            let _ = writeln!(out, "{name}_p50 {}", s.p50());
            let _ = writeln!(out, "{name}_p95 {}", s.p95());
            let _ = writeln!(out, "{name}_p99 {}", s.p99());
        }
        out
    }

    /// JSON snapshot: merged totals plus the per-PE breakdown.
    ///
    /// Metric and histogram objects emit in *name-sorted* order, not
    /// declaration order, so the snapshot does not depend on the order
    /// `from_report` declares them in (pinned by a golden test).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\"armed\":true,\"pes\":{},\"metrics\":{{", self.pes);
        let mut rows: Vec<&Row> = self.rows.iter().collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        for (i, r) in rows.into_iter().enumerate() {
            let per: Vec<String> = r.per_pe.iter().map(u64::to_string).collect();
            let _ = write!(
                out,
                "{}\"{}\":{{\"kind\":\"{}\",\"total\":{},\"per_pe\":[{}]}}",
                if i > 0 { "," } else { "" },
                escape(&r.name),
                r.kind.label(),
                r.total(),
                per.join(",")
            );
        }
        out.push_str("},\"histograms\":{");
        let mut hists: Vec<&Hist> = self.hists.iter().collect();
        hists.sort_by(|a, b| a.name.cmp(&b.name));
        for (i, h) in hists.into_iter().enumerate() {
            let s = &h.samples;
            let counts: Vec<String> = s.counts.iter().map(u64::to_string).collect();
            let _ = write!(
                out,
                "{}\"{}\":{{\"n\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"counts\":[{}]}}",
                if i > 0 { "," } else { "" },
                escape(&h.name),
                s.n,
                s.sum,
                s.p50(),
                s.p95(),
                s.p99(),
                counts.join(",")
            );
        }
        out.push_str("}}");
        out
    }

    /// Build the standard registry from a finished run: every field the
    /// ad-hoc `WorkerStats`/`QueueStats`/`OpStats`/`EngineStats`
    /// carriers hold, per PE, plus span-level histograms when stitched
    /// spans are available.
    pub fn from_report(report: &RunReport, spans: Option<&SpanList>) -> Registry {
        let pes = report.workers.len();
        let worker_row = |&(name, help, kind, get): &WorkerMetric| Row {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            per_pe: report.workers.iter().map(get).collect(),
        };
        let comm_row = |name: String, help: String, get: &dyn Fn(&OpStats) -> u64| Row {
            name,
            help,
            kind: MetricKind::Counter,
            per_pe: (0..pes)
                .map(|pe| report.comm.per_pe.get(pe).map_or(0, get))
                .collect(),
        };
        let mut rows: Vec<Row> = WORKER_METRICS.iter().map(worker_row).collect();
        for k in ALL_OP_KINDS {
            let l = k.label();
            rows.push(comm_row(
                format!("sws_comm_ops_{l}"),
                format!("{l} operations issued"),
                &|st| st.count(k),
            ));
            rows.push(comm_row(
                format!("sws_comm_bytes_{l}"),
                format!("bytes moved by {l}"),
                &|st| st.bytes_of(k),
            ));
            rows.push(comm_row(
                format!("sws_comm_failed_{l}"),
                format!("injected failures of {l}"),
                &|st| st.failed_of(k),
            ));
        }
        rows.push(comm_row(
            "sws_comm_ns".into(),
            "virtual ns charged to communication".into(),
            &|st| st.comm_ns,
        ));
        rows.extend(ENGINE_METRICS.iter().map(worker_row));

        // Span-level histograms (need stitched spans).
        let [mut latency, mut ops, mut blocking, mut volume]: [Pow2Histogram; 4] =
            Default::default();
        let mut phases: BTreeMap<&'static str, Pow2Histogram> = BTreeMap::new();
        if let Some(spans) = spans {
            for p in spans.all_phases() {
                phases.entry(p.name).or_default();
            }
            for s in spans {
                latency.record(s.latency_ns());
                ops.record(s.ops());
                blocking.record(s.blocking_ops());
                if s.tasks() > 0 {
                    volume.record(s.tasks());
                }
                for p in spans.phases(s).iter().filter(|p| p.dur_ns > 0) {
                    phases.entry(p.name).or_default().record(p.dur_ns);
                }
            }
        }
        let hist = |name: &str, help: &str, samples| Hist {
            name: name.to_string(),
            help: help.to_string(),
            samples,
        };
        let mut hists = vec![
            hist("sws_span_latency_ns", "steal-span virtual latency", latency),
            hist("sws_span_ops", "one-sided ops per steal span", ops),
            hist(
                "sws_span_blocking_ops",
                "blocking ops per steal span",
                blocking,
            ),
            hist("sws_span_tasks", "tasks landed per completed span", volume),
        ];
        hists.extend(phases.into_iter().map(|(name, samples)| Hist {
            name: format!("sws_phase_ns_{name}"),
            help: format!("virtual ns from the {name} op to the span's next op"),
            samples,
        }));
        Registry { pes, rows, hists }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A finished three-PE run whose PEs executed `tasks` tasks each.
    fn report(tasks: [u64; 3]) -> RunReport {
        RunReport {
            system: "SWS".to_string(),
            n_pes: 3,
            makespan_ns: 0,
            workers: tasks
                .iter()
                .map(|&t| WorkerStats {
                    tasks_executed: t,
                    runtime_ns: t,
                    ..WorkerStats::default()
                })
                .collect(),
            comm: Default::default(),
            proto: Default::default(),
            wall_ms: 0,
        }
    }

    #[test]
    fn counters_merge_across_shards() {
        let reg = Registry::from_report(&report([2, 0, 5]), None);
        let row = |name| reg.rows.iter().find(|r| r.name == name).expect(name);
        assert_eq!(row("sws_tasks_executed").total(), 7);
        assert_eq!(row("sws_tasks_executed").per_pe, vec![2, 0, 5]);
        assert_eq!(row("sws_runtime_ns").total(), 7);
        assert_eq!(reg.hists[0].samples.n, 0, "no spans, no samples");
        let text = reg.render_text();
        assert!(text.contains("sws_tasks_executed 7"), "{text}");
        assert!(text.contains("# TYPE sws_runtime_ns gauge"), "{text}");
        assert!(text.contains("sws_span_latency_ns_count 0"), "{text}");
    }

    #[test]
    fn json_emits_name_sorted_regardless_of_declaration_order() {
        // `from_report` declares `sws_tasks_executed` before the queue,
        // comm and engine metrics and the latency histogram before the
        // op-count ones; the snapshot still emits every object by name.
        let reg = Registry::from_report(&report([1, 2, 3]), None);
        assert!(reg.rows[0].name > reg.rows[1].name, "declared out of order");
        let j = reg.to_json();
        let at = |name: &str| j.find(&format!("\"{name}\"")).expect(name);
        assert!(at("sws_comm_ns") < at("sws_queue_popped"), "{j}");
        assert!(at("sws_queue_popped") < at("sws_tasks_executed"), "{j}");
        assert!(
            at("sws_span_blocking_ops") < at("sws_span_latency_ns"),
            "{j}"
        );
    }

    #[test]
    fn json_snapshot_parses() {
        let reg = Registry::from_report(&report([0, 4, 0]), None);
        let j = crate::json::Json::parse(&reg.to_json()).expect("valid json");
        assert_eq!(j.get("pes").unwrap().as_f64(), Some(3.0));
        let m = j.get("metrics").unwrap().get("sws_tasks_executed").unwrap();
        assert_eq!(m.get("total").unwrap().as_f64(), Some(4.0));
        assert_eq!(m.get("per_pe").unwrap().as_arr().unwrap().len(), 3);
        let hh = j
            .get("histograms")
            .unwrap()
            .get("sws_span_latency_ns")
            .unwrap();
        assert_eq!(hh.get("n").unwrap().as_f64(), Some(0.0));
    }
}
