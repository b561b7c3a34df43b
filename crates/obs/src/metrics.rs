//! The per-PE sharded metrics registry a finished run exports through.
//!
//! [`Registry::from_report`] is the only way to build one: it adapts the
//! ad-hoc stat carriers — `QueueStats`, `OpStats`, `EngineStats`,
//! `WorkerStats` — into one metric table with one shard per PE, merged
//! only when rendered. `render_text()` emits a Prometheus-style text
//! exposition, `to_json()` a machine-readable snapshot (`sws-run
//! --metrics` prints both ways).

use std::collections::{BTreeMap, BTreeSet};

use sws_sched::report::RunReport;
use sws_sched::trace::Pow2Histogram;
use sws_shmem::ALL_OP_KINDS;

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

/// Handle to a scalar metric.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct MetricId(usize);

/// Handle to a histogram metric.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct HistId(usize);

struct Desc {
    name: String,
    help: String,
    kind: MetricKind,
}

/// One PE's metric storage: plain `u64` slots and histograms.
#[derive(Default)]
struct Shard {
    scalars: Vec<u64>,
    hists: Vec<Pow2Histogram>,
}

impl Shard {
    fn add(&mut self, id: MetricId, v: u64) {
        self.scalars[id.0] += v;
    }

    fn set(&mut self, id: MetricId, v: u64) {
        self.scalars[id.0] = v;
    }

    fn observe(&mut self, id: HistId, sample: u64) {
        self.hists[id.0].record(sample);
    }
}

/// The sharded registry: metrics declared up front, one shard per PE,
/// merged at render time.
pub struct Registry {
    descs: Vec<Desc>,
    hist_descs: Vec<Desc>,
    shards: Vec<Shard>,
}

impl Registry {
    fn scalar(&mut self, name: &str, help: &str, kind: MetricKind) -> MetricId {
        debug_assert!(
            !self.descs.iter().any(|d| d.name == name),
            "duplicate metric {name}"
        );
        let id = MetricId(self.descs.len());
        self.descs.push(Desc {
            name: name.to_string(),
            help: help.to_string(),
            kind,
        });
        for s in &mut self.shards {
            s.scalars.push(0);
        }
        id
    }

    fn counter(&mut self, name: &str, help: &str) -> MetricId {
        self.scalar(name, help, MetricKind::Counter)
    }

    fn gauge(&mut self, name: &str, help: &str) -> MetricId {
        self.scalar(name, help, MetricKind::Gauge)
    }

    fn histogram(&mut self, name: &str, help: &str) -> HistId {
        debug_assert!(
            !self.hist_descs.iter().any(|d| d.name == name),
            "duplicate histogram {name}"
        );
        let id = HistId(self.hist_descs.len());
        self.hist_descs.push(Desc {
            name: name.to_string(),
            help: help.to_string(),
            kind: MetricKind::Counter,
        });
        for s in &mut self.shards {
            s.hists.push(Pow2Histogram::default());
        }
        id
    }

    /// Merged (summed-across-shards) value of a scalar.
    fn merged(&self, id: MetricId) -> u64 {
        self.shards.iter().map(|s| s.scalars[id.0]).sum()
    }

    /// Per-shard values of a scalar.
    fn per_pe(&self, id: MetricId) -> Vec<u64> {
        self.shards.iter().map(|s| s.scalars[id.0]).collect()
    }

    /// Merged histogram across shards.
    fn merged_hist(&self, id: HistId) -> Pow2Histogram {
        let mut h = Pow2Histogram::default();
        for s in &self.shards {
            h.merge(&s.hists[id.0]);
        }
        h
    }

    /// Prometheus-style text exposition: `# HELP`/`# TYPE` preambles,
    /// merged totals, and `_count`/`_sum`/`_p50`/`_p95`/`_p99` series
    /// for histograms.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, d) in self.descs.iter().enumerate() {
            let _ = writeln!(out, "# HELP {} {}", d.name, d.help);
            let _ = writeln!(out, "# TYPE {} {}", d.name, d.kind.label());
            let _ = writeln!(out, "{} {}", d.name, self.merged(MetricId(i)));
        }
        for (i, d) in self.hist_descs.iter().enumerate() {
            let h = self.merged_hist(HistId(i));
            let _ = writeln!(out, "# HELP {} {}", d.name, d.help);
            let _ = writeln!(out, "# TYPE {} histogram", d.name);
            let _ = writeln!(out, "{}_count {}", d.name, h.n);
            let _ = writeln!(out, "{}_sum {}", d.name, h.sum);
            let _ = writeln!(out, "{}_p50 {}", d.name, h.p50());
            let _ = writeln!(out, "{}_p95 {}", d.name, h.p95());
            let _ = writeln!(out, "{}_p99 {}", d.name, h.p99());
        }
        out
    }

    /// JSON snapshot: merged totals plus the per-PE breakdown.
    ///
    /// Metric and histogram objects emit in *name-sorted* order, not
    /// declaration order, so the snapshot is deterministic regardless of
    /// how callers happened to interleave their declarations (pinned by
    /// a golden test).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"armed\":true,\"pes\":{},\"metrics\":{{",
            self.shards.len()
        );
        let by_name = |descs: &[Desc]| -> Vec<usize> {
            let mut order: Vec<usize> = (0..descs.len()).collect();
            order.sort_by(|&a, &b| descs[a].name.cmp(&descs[b].name));
            order
        };
        for (emitted, i) in by_name(&self.descs).into_iter().enumerate() {
            let d = &self.descs[i];
            if emitted > 0 {
                out.push(',');
            }
            let per: Vec<String> = self
                .per_pe(MetricId(i))
                .iter()
                .map(u64::to_string)
                .collect();
            let _ = write!(
                out,
                "\"{}\":{{\"kind\":\"{}\",\"total\":{},\"per_pe\":[{}]}}",
                escape(&d.name),
                d.kind.label(),
                self.merged(MetricId(i)),
                per.join(",")
            );
        }
        out.push_str("},\"histograms\":{");
        for (emitted, i) in by_name(&self.hist_descs).into_iter().enumerate() {
            let d = &self.hist_descs[i];
            if emitted > 0 {
                out.push(',');
            }
            let h = self.merged_hist(HistId(i));
            let counts: Vec<String> = h.counts.iter().map(u64::to_string).collect();
            let _ = write!(
                out,
                "\"{}\":{{\"n\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"counts\":[{}]}}",
                escape(&d.name),
                h.n,
                h.sum,
                h.p50(),
                h.p95(),
                h.p99(),
                counts.join(",")
            );
        }
        out.push_str("}}");
        out
    }

    /// Build the standard registry from a finished run: every field the
    /// ad-hoc `WorkerStats`/`QueueStats`/`OpStats`/`EngineStats`
    /// carriers hold, one shard per PE, plus span-level latency
    /// histograms when stitched spans are available.
    pub fn from_report(report: &RunReport, spans: Option<&SpanList>) -> Registry {
        let mut reg = Registry {
            descs: Vec::new(),
            hist_descs: Vec::new(),
            shards: (0..report.workers.len())
                .map(|_| Shard::default())
                .collect(),
        };

        // Worker-level.
        let tasks = reg.counter("sws_tasks_executed", "tasks executed");
        let task_ns = reg.counter("sws_task_ns", "virtual ns spent executing tasks");
        let steal_ns = reg.counter("sws_steal_ns", "virtual ns spent inside steal ops");
        let search_ns = reg.counter("sws_search_ns", "virtual ns spent searching for victims");
        let upkeep_ns = reg.counter("sws_upkeep_ns", "virtual ns spent on queue upkeep");
        let runtime_ns = reg.gauge("sws_runtime_ns", "per-PE virtual runtime");
        let first_work_ns = reg.gauge("sws_first_work_ns", "virtual time of first task");
        let crashed = reg.gauge("sws_crashed", "1 if the PE crash-stopped");
        let quarantined = reg.counter("sws_pes_quarantined", "victims this PE quarantined");

        // Queue-level.
        type QueueGetter = fn(&sws_core::QueueStats) -> u64;
        let q_named: Vec<(MetricId, QueueGetter)> = vec![
            (reg.counter("sws_queue_enqueued", "tasks enqueued"), |q| {
                q.enqueued
            }),
            (
                reg.counter("sws_queue_popped", "tasks popped locally"),
                |q| q.popped,
            ),
            (
                reg.counter("sws_queue_releases", "release operations"),
                |q| q.releases,
            ),
            (
                reg.counter("sws_queue_acquires", "acquire operations"),
                |q| q.acquires,
            ),
            (
                reg.counter("sws_queue_acquire_misses", "acquires that found nothing"),
                |q| q.acquire_misses,
            ),
            (
                reg.counter("sws_queue_steal_attempts", "steal attempts issued"),
                |q| q.steal_attempts,
            ),
            (
                reg.counter("sws_queue_steals_won", "steals that landed tasks"),
                |q| q.steals_won,
            ),
            (
                reg.counter("sws_queue_tasks_stolen", "tasks landed by steals"),
                |q| q.tasks_stolen,
            ),
            (
                reg.counter("sws_queue_steals_empty", "steals that found nothing"),
                |q| q.steals_empty,
            ),
            (
                reg.counter("sws_queue_steals_closed", "steals that hit a closed gate"),
                |q| q.steals_closed,
            ),
            (
                reg.counter("sws_queue_owner_polls", "owner progress polls"),
                |q| q.owner_polls,
            ),
            (
                reg.counter("sws_queue_reclaimed", "claims reclaimed by the owner"),
                |q| q.reclaimed,
            ),
            (
                reg.counter("sws_queue_steals_retried", "ops retried under faults"),
                |q| q.steals_retried,
            ),
            (
                reg.counter("sws_queue_steals_failed", "steals abandoned under faults"),
                |q| q.steals_failed,
            ),
            (
                reg.counter("sws_queue_steals_aborted", "steals aborted after claiming"),
                |q| q.steals_aborted,
            ),
            (
                reg.counter("sws_queue_completions_poisoned", "poisoned completions"),
                |q| q.completions_poisoned,
            ),
            (
                reg.counter("sws_queue_claims_reclaimed", "claims lost to reclaim"),
                |q| q.claims_reclaimed,
            ),
        ];

        // Comm-level (per op kind), engine-level.
        let mut comm_ops = Vec::new();
        for k in ALL_OP_KINDS {
            let ops = reg.counter(
                &format!("sws_comm_ops_{}", k.label()),
                &format!("{} operations issued", k.label()),
            );
            let bytes = reg.counter(
                &format!("sws_comm_bytes_{}", k.label()),
                &format!("bytes moved by {}", k.label()),
            );
            let failed = reg.counter(
                &format!("sws_comm_failed_{}", k.label()),
                &format!("injected failures of {}", k.label()),
            );
            comm_ops.push((k, ops, bytes, failed));
        }
        let comm_ns = reg.counter("sws_comm_ns", "virtual ns charged to communication");
        let fast_ops = reg.counter("sws_engine_fast_ops", "gate ops on the lock-free fast path");
        let slow_ops = reg.counter("sws_engine_slow_ops", "gate ops through the slow path");
        let windows = reg.counter("sws_engine_windows", "horizons granted (PE resumes)");
        let gate_wait_ns = reg.counter("sws_engine_gate_wait_ns", "always 0: PEs share one thread");

        // Span-level histograms (need stitched spans).
        let h_latency = reg.histogram("sws_span_latency_ns", "steal-span virtual latency");
        let h_ops = reg.histogram("sws_span_ops", "one-sided ops per steal span");
        let h_blocking = reg.histogram("sws_span_blocking_ops", "blocking ops per steal span");
        let h_volume = reg.histogram("sws_span_tasks", "tasks landed per completed span");
        let mut h_phase: BTreeMap<&'static str, HistId> = BTreeMap::new();
        if let Some(spans) = spans {
            let names: BTreeSet<&'static str> = spans.all_phases().iter().map(|p| p.name).collect();
            for name in names {
                let id = reg.histogram(
                    &format!("sws_phase_ns_{name}"),
                    &format!("virtual ns from the {name} op to the span's next op"),
                );
                h_phase.insert(name, id);
            }
        }

        for (pe, w) in report.workers.iter().enumerate() {
            let shard = &mut reg.shards[pe];
            shard.add(tasks, w.tasks_executed);
            shard.add(task_ns, w.task_ns);
            shard.add(steal_ns, w.steal_ns);
            shard.add(search_ns, w.search_ns);
            shard.add(upkeep_ns, w.upkeep_ns);
            shard.set(runtime_ns, w.runtime_ns);
            shard.set(first_work_ns, w.first_work_ns);
            shard.set(crashed, w.crashed as u64);
            shard.add(quarantined, w.pes_quarantined);
            for (id, get) in &q_named {
                shard.add(*id, get(&w.queue));
            }
            shard.add(fast_ops, w.engine.fast_ops);
            shard.add(slow_ops, w.engine.slow_ops);
            shard.add(windows, w.engine.windows);
            shard.add(gate_wait_ns, w.engine.gate_wait_ns);
        }
        for (pe, st) in report.comm.per_pe.iter().enumerate() {
            let shard = &mut reg.shards[pe];
            for &(k, ops, bytes, failed) in &comm_ops {
                shard.add(ops, st.count(k));
                shard.add(bytes, st.bytes_of(k));
                shard.add(failed, st.failed_of(k));
            }
            shard.add(comm_ns, st.comm_ns);
        }
        if let Some(spans) = spans {
            for s in spans {
                let shard = &mut reg.shards[s.thief as usize];
                shard.observe(h_latency, s.latency_ns());
                shard.observe(h_ops, s.ops());
                shard.observe(h_blocking, s.blocking_ops());
                if s.tasks() > 0 {
                    shard.observe(h_volume, s.tasks());
                }
                for p in spans.phases(s) {
                    if p.dur_ns > 0 {
                        shard.observe(h_phase[p.name], p.dur_ns);
                    }
                }
            }
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_sched::report::WorkerStats;

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
        let id = |name| MetricId(reg.descs.iter().position(|d| d.name == name).expect(name));
        assert_eq!(reg.merged(id("sws_tasks_executed")), 7);
        assert_eq!(reg.per_pe(id("sws_tasks_executed")), vec![2, 0, 5]);
        assert_eq!(reg.merged(id("sws_runtime_ns")), 7);
        assert_eq!(reg.merged_hist(HistId(0)).n, 0, "no spans, no samples");
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
        assert!(
            reg.descs[0].name > reg.descs[1].name,
            "declared out of order"
        );
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
