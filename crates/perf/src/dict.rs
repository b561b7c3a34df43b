//! The metric and workload dictionary — the single source the harness
//! emits from, `BENCHMARK.json` is rendered from, and the README table
//! restates. Layers are the workspace's crate/module names.
//!
//! Two clocks, never mixed: names under `virt.` (and every program-made
//! count) are virtual time or exact counts — deterministic per seed,
//! compared bit-for-bit. Everything else is host wall/CPU/RSS on the
//! pinned CPU and is compared against a relative bound.

/// Which direction is an improvement.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Copy, Clone, Debug)]
pub struct MetricDef {
    /// Name (`[A-Za-z0-9_.-]`, unique).
    pub name: &'static str,
    /// Unit (`[A-Za-z0-9_/%.-]`).
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; per-layer metrics carry 0 and are never gated).
    pub bound: f64,
}

/// One named workload and why it exists.
#[derive(Copy, Clone, Debug)]
pub struct WorkloadDef {
    /// Name.
    pub name: &'static str,
    /// One-line rationale.
    pub why: &'static str,
}

/// How long one run measures, seconds.
pub const RUN_SECONDS: u64 = 12;

/// The command `BENCHMARK.json` pins (cargo appends `--bench`; the
/// driver appends `--workload/--seed/--seconds/--trace`).
pub const COMMAND: &[&str] = &[
    "cargo", "bench", "-p", "sws-perf", "--bench", "perf", "--", "run",
];

/// Directories holding the benchmark and nothing else.
pub const PATHS: &[&str] = &["crates/perf"];

/// The six workloads.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "uts-wide",
        why: "UTS on 512 PEs: every gated op is a park/unpark among 512 OS threads, so shmem::vclock and shmem::runtime (launch, hand-off) do nearly all the work",
    },
    WorkloadDef {
        name: "uts-local",
        why: "UTS on 1 PE: 100% un-gated, no steals; sha1, task codec, core push/pop/release/acquire and sched::worker do the work - the engine's bypass workload",
    },
    WorkloadDef {
        name: "bpc-search",
        why: "BPC on 64 PEs: the engine serves almost only failed steals, probes and termination polls from idle PEs - the same gate under the opposite op mix to uts-wide",
    },
    WorkloadDef {
        name: "serve-steal",
        why: "open-loop Poisson service, 16 PEs, three-rung rate ladder, SWS and SDC: successful steals dominate, so 3-vs-6 ops per steal and sched::service are most of the run",
    },
    WorkloadDef {
        name: "serve-observed",
        why: "one service run with capture, site profiling and snapshots armed, then the whole obs + check::conform telemetry pipeline on its report; serve-steal is its bypass",
    },
    WorkloadDef {
        name: "explore-corpus",
        why: "check::live over the 8-scenario corpus plus the mutant self-test: thousands of 2-3 PE worlds on the ExploreGate, so per-world launch and the second scheduler show",
    },
];

const fn host(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

/// End-to-end metrics: what a user of the simulator and its checkers
/// pays per run, on the host clock. Every workload emits every one and
/// none can read 0. The timing bounds are as wide as the contract
/// allows because the host demands it (README, "Baseline"); `setup_s`
/// shares the largest.
pub const END_TO_END: &[MetricDef] = &[
    host("wall_s", "s", 0.25),
    host("peak_rss_mb", "MB", 0.10),
    host("setup_s", "s", 0.25),
];

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    host(name, unit, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// Per-layer metrics, emitted by the traced pass. A metric a workload
/// does not exercise reads 0 there (no events, no time spent).
pub const PER_LAYER: &[MetricDef] = &[
    // The paper's virtual-clock results (deterministic per seed).
    lower("virt.makespan_ms", "ms"),
    higher("virt.sws_speedup", "x"),
    lower("virt.steal_ms", "ms"),
    lower("virt.search_ms", "ms"),
    higher("virt.steal_ratio", "x"),
    lower("virt.lat_mean_us", "us"),
    lower("virt.lat_p99_us", "us"),
    lower("harness.fail_share", "ratio"),
    // The typical repetition and how far repetitions scatter: `wall_s`
    // gates the best one, these keep the rest of the distribution in view.
    lower("harness.wall_median_s", "s"),
    lower("harness.wall_spread", "ratio"),
    // Ledger: isolated best-of-5 calibrated loops.
    lower("task.encode_ns", "ns"),
    lower("task.decode_ns", "ns"),
    lower("workloads.sha1_child_ns", "ns"),
    lower("workloads.uts_seq_node_ns", "ns"),
    lower("workloads.arrivals_gen_ns", "ns"),
    lower("core.stealval_codec_ns", "ns"),
    lower("core.steal_half_ns", "ns"),
    lower("core.sws.push_pop_ns", "ns"),
    lower("core.sdc.push_pop_ns", "ns"),
    lower("core.sws.release_acquire_ns", "ns"),
    lower("core.sdc.release_acquire_ns", "ns"),
    lower("core.sws.steal_host_ns", "ns"),
    lower("core.sdc.steal_host_ns", "ns"),
    lower("core.sws.probe_host_ns", "ns"),
    lower("core.sws.steal_threaded_ns", "ns"),
    lower("core.sdc.steal_threaded_ns", "ns"),
    lower("core.sws.steal_virt_ns", "ns"),
    lower("core.sdc.steal_virt_ns", "ns"),
    lower("core.sws.ops_per_steal", "count"),
    lower("core.sdc.ops_per_steal", "count"),
    lower("core.sws.blocking_per_steal", "count"),
    lower("core.sdc.blocking_per_steal", "count"),
    lower("shmem.op_local_virtual_ns", "ns"),
    lower("shmem.compute_ns", "ns"),
    lower("shmem.op_threaded_ns", "ns"),
    lower("shmem.gated_op_us.p2", "us"),
    lower("shmem.gated_op_us.p64", "us"),
    lower("shmem.gated_op_us.p512", "us"),
    lower("shmem.launch_us_per_pe.p2", "us"),
    lower("shmem.launch_us_per_pe.p64", "us"),
    lower("shmem.launch_us_per_pe.p512", "us"),
    lower("check.model.ms", "ms"),
    lower("check.conform.matrix_ms", "ms"),
    // Engine, per virtual-time workload.
    lower("shmem.engine.gated_ops", "count"),
    higher("shmem.engine.windowed_share", "ratio"),
    lower("shmem.engine.host_us_per_gated_op", "us"),
    lower("shmem.engine.gate_wait_share", "ratio"),
    lower("shmem.engine.sys_cpu_share", "ratio"),
    lower("shmem.engine.cold_rep_ratio", "x"),
    lower("shmem.engine.unpinned_wall_ratio", "x"),
    // Scheduler, per scheduler workload.
    higher("sched.tasks", "count"),
    lower("sched.steals", "count"),
    lower("sched.steal_attempts", "count"),
    higher("sched.steal_success_share", "ratio"),
    higher("sched.virt_task_share", "ratio"),
    lower("sched.virt_steal_share", "ratio"),
    lower("sched.virt_search_share", "ratio"),
    lower("sched.service.lat_mean_us.sws.gap2000", "us"),
    lower("sched.service.lat_mean_us.sws.gap1000", "us"),
    lower("sched.service.lat_mean_us.sws.gap700", "us"),
    lower("sched.service.lat_mean_us.sdc.gap2000", "us"),
    lower("sched.service.lat_mean_us.sdc.gap1000", "us"),
    lower("sched.service.lat_mean_us.sdc.gap700", "us"),
    lower("sched.service.lat_p99_us.sws.gap2000", "us"),
    lower("sched.service.lat_p99_us.sws.gap1000", "us"),
    lower("sched.service.lat_p99_us.sws.gap700", "us"),
    lower("sched.service.lat_p99_us.sdc.gap2000", "us"),
    lower("sched.service.lat_p99_us.sdc.gap1000", "us"),
    lower("sched.service.lat_p99_us.sdc.gap700", "us"),
    higher("sched.service.slo_rungs_met.sws", "count"),
    higher("sched.service.slo_rungs_met.sdc", "count"),
    // Telemetry pipeline (serve-observed span self-times).
    lower("obs.capture_wall_ratio", "x"),
    lower("obs.proto_events", "count"),
    lower("obs.merge_ns_per_event", "ns"),
    lower("obs.stitch_ns_per_event", "ns"),
    lower("obs.spans", "count"),
    higher("obs.span_complete_share", "ratio"),
    lower("obs.check_comms_ns_per_span", "ns"),
    lower("check.conform.replay_ns_per_event", "ns"),
    lower("obs.perfetto_ns_per_event", "ns"),
    lower("obs.perfetto_bytes", "bytes"),
    lower("obs.snap_rows", "count"),
    lower("obs.snap_render_ns_per_row", "ns"),
    lower("obs.report_json_us", "us"),
    // Live exploration (explore-corpus).
    lower("check.live.schedules", "count"),
    lower("check.live.us_per_schedule", "us"),
    lower("check.live.branches", "count"),
    higher("check.live.pruned_share", "ratio"),
    lower("check.live.truncated_share", "ratio"),
    lower("check.live.mutant_schedules_to_catch", "count"),
    lower("check.live.mutant_catch_ms", "ms"),
    lower("check.live.replay_us", "us"),
    // Reconciliation.
    higher("ledger.attributed_share", "ratio"),
    lower("ledger.unattributed_s", "s"),
    lower("trace.overhead_share", "ratio"),
];

/// Is `name` on the virtual clock (or the failure ledger)? Those compare
/// with bound 0: any drift is a behaviour change, not noise.
pub fn is_exact(name: &str) -> bool {
    name.starts_with("virt.") || name == "harness.fail_share"
}

/// Look a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

fn push_str_list(out: &mut String, items: &[&str]) {
    out.push('[');
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{s}\""));
    }
    out.push(']');
}

/// Render `BENCHMARK.json` from the dictionary (the checked-in file must
/// equal this byte for byte; `-- spec` prints it).
pub fn render_benchmark_json() -> String {
    let mut out = String::from("{\n  \"command\": ");
    push_str_list(&mut out, COMMAND);
    out.push_str(",\n  \"paths\": ");
    push_str_list(&mut out, PATHS);
    out.push_str(&format!(
        ",\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    ));
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            m.better.label()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_across_tables() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
    }

    #[test]
    fn exactness_follows_the_clock() {
        assert!(is_exact("virt.makespan_ms"));
        assert!(is_exact("harness.fail_share"));
        assert!(!is_exact("wall_s"));
        assert!(!is_exact("shmem.engine.gated_ops"));
        assert_eq!(find("setup_s").map(|m| m.bound), Some(0.25));
        assert!(find("nope").is_none());
    }
}
