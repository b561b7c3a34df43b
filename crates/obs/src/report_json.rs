//! Machine-readable run reports.
//!
//! [`report_to_json`] renders a [`RunReport`] as one JSON line that is a
//! strict **superset** of the human-readable text report: every figure
//! `summary_line()`, `fault_summary_line()`, and
//! `engine_summary_line()` print appears here too, plus the per-op-kind
//! communication breakdown. The original headline keys are preserved
//! unchanged (scripts parsing the old `sws-run --json` output keep
//! working); the schema is pinned by a golden test.

use sws_sched::report::RunReport;
use sws_shmem::{OpStats, ALL_OP_KINDS};

use crate::json::escape;
use crate::span::CommReport;

fn op_map(st: &OpStats, f: impl Fn(&OpStats, sws_shmem::OpKind) -> u64) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for k in ALL_OP_KINDS {
        let v = f(st, k);
        if v == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{}\":{}", k.label(), v));
    }
    out.push('}');
    out
}

/// Render the full single-line JSON report (no trailing newline).
pub fn report_to_json(r: &RunReport) -> String {
    let e = r.total_engine();
    let c = r.total_comm();
    let mut out = format!(
        "{{\"system\":\"{}\",\"pes\":{},\"makespan_ns\":{},\"tasks\":{},\
         \"throughput_per_s\":{:.1},\"efficiency\":{:.4},\"steals\":{},\
         \"steal_ns\":{},\"search_ns\":{},\"task_ns\":{},\"mean_steal_op_ns\":{:.1},\
         \"comm_ops\":{},\"comm_bytes\":{},\"wall_ms\":{},\
         \"engine_fast_ops\":{},\"engine_slow_ops\":{},\"engine_windows\":{},\
         \"engine_gate_wait_ns\":{}",
        escape(&r.system),
        r.n_pes,
        r.makespan_ns,
        r.total_tasks(),
        r.throughput_per_s(),
        r.parallel_efficiency(),
        r.total_steals(),
        r.total_steal_ns(),
        r.total_search_ns(),
        r.total_task_ns(),
        r.mean_steal_op_ns(),
        c.data_ops(),
        c.total_bytes(),
        r.wall_ms,
        e.fast_ops,
        e.slow_ops,
        e.windows,
        e.gate_wait_ns,
    );
    out.push_str(&format!(
        ",\"engine\":{{\"fast_ops\":{},\"slow_ops\":{},\"windows\":{},\
         \"gate_wait_ns\":{},\"gated_ops\":{},\"fast_fraction\":{:.4}}}",
        e.fast_ops,
        e.slow_ops,
        e.windows,
        e.gate_wait_ns,
        e.gated_ops(),
        e.fast_fraction(),
    ));
    out.push_str(&format!(
        ",\"comm\":{{\"total_ops\":{},\"data_ops\":{},\"blocking_ops\":{},\
         \"total_bytes\":{},\"total_failed\":{},\"comm_ns\":{},\
         \"ops\":{},\"bytes\":{},\"failed\":{}}}",
        c.total_ops(),
        c.data_ops(),
        c.blocking_ops(),
        c.total_bytes(),
        c.total_failed(),
        c.comm_ns,
        op_map(c, |s, k| s.count(k)),
        op_map(c, |s, k| s.bytes_of(k)),
        op_map(c, |s, k| s.failed_of(k)),
    ));
    out.push_str(&format!(
        ",\"faults\":{{\"retries\":{},\"failed\":{},\"aborted\":{},\
         \"poisoned\":{},\"reclaimed\":{},\"quarantined\":{},\"crashed_pes\":{}}}",
        r.total_steal_retries(),
        r.total_steals_failed(),
        r.total_steals_aborted(),
        r.total_completions_poisoned(),
        r.total_claims_reclaimed(),
        r.total_quarantines(),
        r.crashed_pes(),
    ));
    let lat = r.service_latency();
    let (deferred, blocked, wait_ns, parks, rejoins, readmitted) =
        r.workers
            .iter()
            .fold((0u64, 0u64, 0u64, 0u64, 0u64, 0u64), |a, w| {
                let s = &w.service;
                (
                    a.0 + s.deferred,
                    a.1 + s.blocked,
                    a.2 + s.admission_wait_ns,
                    a.3 + s.parks,
                    a.4 + s.rejoins,
                    a.5 + s.readmitted,
                )
            });
    out.push_str(&format!(
        ",\"service\":{{\"offered\":{},\"admitted\":{},\"shed\":{},\
         \"shed_rate\":{:.4},\"deferred\":{},\"blocked\":{},\
         \"admission_wait_ns\":{},\"completed\":{},\"in_flight\":{},\
         \"conserved\":{},\"parks\":{},\"rejoins\":{},\"readmitted\":{},\
         \"latency_p50_ns\":{},\"latency_p95_ns\":{},\"latency_p99_ns\":{}}}",
        r.total_offered(),
        r.total_admitted(),
        r.total_shed(),
        r.shed_rate(),
        deferred,
        blocked,
        wait_ns,
        r.completed_arrivals(),
        r.arrivals_in_flight(),
        r.arrival_conservation_ok(),
        parks,
        rejoins,
        readmitted,
        lat.p50(),
        lat.p95(),
        lat.p99(),
    ));
    out.push('}');
    out
}

/// Render a comm-accounting report as a JSON object — appended to the
/// report line by `sws-run --json --assert-comms`.
pub fn comm_report_to_json(c: &CommReport) -> String {
    format!(
        "{{\"system\":\"{}\",\"faults\":{},\"completed\":{},\"tasks\":{},\
         \"core_ops_per_steal\":{:.4},\"core_blocking_per_steal\":{:.4},\
         \"budget_ops\":{},\"budget_blocking\":{},\"budget_exact\":{},\
         \"probes\":{},\"empty\":{},\"closed\":{},\"aborted\":{},\"failed\":{},\
         \"open\":{},\"contention_ops\":{},\"ok\":{}}}",
        escape(&c.system),
        c.faults,
        c.completed,
        c.tasks,
        c.mean_core_ops(),
        c.mean_core_blocking(),
        c.budget.max_core_ops,
        c.budget.max_core_blocking,
        c.budget.exact,
        c.probes,
        c.empty,
        c.closed,
        c.aborted,
        c.failed,
        c.open,
        c.contention_ops,
        c.ok(),
    )
}
