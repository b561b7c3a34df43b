//! `sws-run` — run SWS/SDC experiments from the command line.
//!
//! ```text
//! sws-run <workload> [options]
//!
//! workloads:
//!   uts        unbalanced tree search (geometric, scaled T1 family)
//!   bpc        bouncing producer-consumer
//!   flat       flat bag of independent tasks
//! ```
//!
//! Every flag — name, value, help text, what it sets — is one row of
//! [`FLAGS`], the table the parser matches on and `usage()` prints; run
//! `sws-run` with no arguments to read it. Batch runs go to global
//! termination; `--serve` (flat and uts) runs the pool as a persistent
//! service with open-world arrivals. Telemetry flags arm protocol
//! capture and only observe; fault flags inject a deterministic,
//! seeded plan.

use sws::obs::{
    build_stream, check_comms, check_steal_bound, chrome_trace, comm_report_to_json,
    contention_rows, contention_table, contention_to_json, report_to_json, steal_bound_to_json,
    stitch_report, stream_to_jsonl, AlertKind, CommReport, Registry, SloPolicy, SpanList,
    SpanOutcome, StealBoundReport, TraceRun,
};
use sws::prelude::*;
use sws::sched::trace::{render_timeline, Pow2Histogram};
use sws::workloads::arrivals::{ArrivalPattern, ArrivalPlan, FlatServe, UtsServe};
use sws::workloads::bpc::{BpcParams, BpcWorkload};
use sws::workloads::synth::FlatBag;
use sws::workloads::uts::{UtsParams, UtsWorkload};

#[derive(Debug)]
struct Args {
    workload: String,
    pes: usize,
    system: String,
    seed: u64,
    depth: u32,
    tasks: u64,
    task_ns: u64,
    capacity: usize,
    engine: bool,
    timeline: bool,
    histogram: bool,
    json: bool,
    assert_comms: bool,
    assert_steal_bound: bool,
    metrics: bool,
    sample: u32,
    contention: bool,
    trace_out: Option<String>,
    drop_prob: f64,
    stall: Option<(usize, u64, u64)>,
    crash: Option<(usize, u64)>,
    serve: bool,
    arrivals: String,
    mean_gap: u64,
    burst: u32,
    period: u64,
    horizon: u64,
    ingress: usize,
    admission: String,
    hwm: u32,
    slo_p99: Option<u64>,
    away: Vec<(usize, u64, u64)>,
    snapshots: Option<String>,
    snap_interval: u64,
    slo_alerts: String,
}

impl Args {
    /// Any telemetry consumer needs the per-op protocol capture armed
    /// (`--sample` without another consumer still captures — the
    /// sampled spans land in `--json`/`--metrics` surfaces).
    fn capture(&self) -> bool {
        self.assert_comms || self.metrics || self.histogram || self.trace_out.is_some() || self.sample > 1
    }

    fn faults_active(&self) -> bool {
        self.drop_prob != 0.0 || self.stall.is_some() || self.crash.is_some()
    }

    /// Flags meaningless outside `--serve` (only the unambiguous ones:
    /// the numeric knobs share defaults with batch mode).
    fn serve_flags_used(&self) -> bool {
        self.slo_p99.is_some()
            || !self.away.is_empty()
            || self.snapshots.is_some()
            || self.slo_alerts != "off"
    }

    /// Does this run record service snapshots? (A stream file or the
    /// alert engine both need the rows.)
    fn snapshots_armed(&self) -> bool {
        self.snapshots.is_some() || self.slo_alerts != "off"
    }
}

/// One command-line flag: the parser matches `name`, `usage()` prints
/// the row, `set` stores the value (`arg` is empty for a switch, which
/// takes none).
struct Flag {
    name: &'static str,
    arg: &'static str,
    help: &'static str,
    set: fn(&mut Args, &str),
}

/// A flag's numeric value, or usage.
fn num<T: std::str::FromStr>(v: &str) -> T {
    v.parse().unwrap_or_else(|_| usage())
}

const FLAGS: &[(&str, &[Flag])] = &[
    ("options", &[
        Flag { name: "--pes", arg: "N", help: "number of PEs (default 8)", set: |a, v| a.pes = num(v) },
        Flag { name: "--system", arg: "S", help: "sws | sdc | both (default both)", set: |a, v| a.system = v.into() },
        Flag { name: "--seed", arg: "N", help: "run seed (default 0xBA5E)", set: |a, v| a.seed = num(v) },
        Flag { name: "--depth", arg: "N", help: "uts: tree depth | bpc: producers, 64 consumers each (default 10 | 32)", set: |a, v| a.depth = num(v) },
        Flag { name: "--tasks", arg: "N", help: "flat: task count (default 4096)", set: |a, v| a.tasks = num(v) },
        Flag { name: "--task-ns", arg: "N", help: "flat: task duration, ns (default 50000)", set: |a, v| a.task_ns = num(v) },
        Flag { name: "--capacity", arg: "N", help: "task-queue ring capacity, tasks (default 16384)", set: |a, v| a.capacity = num(v) },
        Flag { name: "--engine", arg: "", help: "print engine wall-time/gate-traffic line", set: |a, _| a.engine = true },
        Flag { name: "--timeline", arg: "", help: "print per-PE activity strips (enables tracing)", set: |a, _| a.timeline = true },
        Flag { name: "--histogram", arg: "", help: "print steal-volume and victim histograms (arms capture)", set: |a, _| a.histogram = true },
        Flag { name: "--json", arg: "", help: "machine-readable report to stdout", set: |a, _| a.json = true },
    ]),
    ("telemetry (arms protocol capture; observation only)", &[
        Flag {
            name: "--assert-comms",
            arg: "",
            help: "stitch steal spans and assert the paper's per-steal budget\n\
                   (SWS 3 ops / 2 blocking, SDC 6 / 5); exit 1 on any violation",
            set: |a, _| a.assert_comms = true,
        },
        Flag {
            name: "--assert-steal-bound",
            arg: "",
            help: "assert the rooted-tree steal bound (Σ steals won ≤ Σ budget\n\
                   accrued by the advertisements/releases); exit 1 on violation.\n\
                   Needs no capture: it reads the queue counters",
            set: |a, _| a.assert_steal_bound = true,
        },
        Flag {
            name: "--metrics",
            arg: "",
            help: "print the merged metrics registry (text exposition, or a\n\
                   JSON snapshot with --json)",
            set: |a, _| a.metrics = true,
        },
        Flag {
            name: "--sample",
            arg: "N",
            help: "capture only a seeded, deterministic 1-in-N sample of steal\n\
                   attempts (arms capture); span counts scale by N",
            set: |a, v| {
                a.sample = num(v);
                if a.sample < 2 {
                    eprintln!("--sample needs N >= 2 (1-in-N attempts captured)");
                    usage()
                }
            },
        },
        Flag {
            name: "--contention",
            arg: "",
            help: "count per-site CAS wins/losses, RMWs, loads and stores; print\n\
                   the site heat table aligned with the ORDERINGS.md catalog",
            set: |a, _| a.contention = true,
        },
        Flag {
            name: "--trace-out",
            arg: "F",
            help: "write a Chrome-trace / Perfetto JSON file: one process per\n\
                   system, one track per PE, steal spans as slices, idle-PE /\n\
                   ring-occupancy / in-flight counter tracks",
            set: |a, v| a.trace_out = Some(v.into()),
        },
    ]),
    ("service mode (flat and uts workloads; open-world arrivals)", &[
        Flag {
            name: "--serve",
            arg: "",
            help: "run as a persistent service: work arrives over time on ingress\n\
                   PEs, the pool quiesces between waves, and the report adds\n\
                   admission counters, arrival-latency percentiles, conservation",
            set: |a, _| a.serve = true,
        },
        Flag { name: "--arrivals", arg: "P", help: "poisson | bursty | diurnal (default poisson)", set: |a, v| a.arrivals = v.into() },
        Flag { name: "--mean-gap", arg: "N", help: "mean (or intra-burst) arrival gap, ns (default 10000)", set: |a, v| a.mean_gap = num(v) },
        Flag { name: "--burst", arg: "N", help: "bursty: arrivals per burst (default 64)", set: |a, v| a.burst = num(v) },
        Flag { name: "--period", arg: "N", help: "bursty/diurnal: cycle period, ns (default 200000)", set: |a, v| a.period = num(v) },
        Flag { name: "--horizon", arg: "N", help: "arrival cutoff, virtual ns (default 500000)", set: |a, v| a.horizon = num(v) },
        Flag { name: "--ingress", arg: "N", help: "ingress PE count, ranks 0..N (default 1)", set: |a, v| a.ingress = num(v) },
        Flag { name: "--admission", arg: "A", help: "block | defer | shed (default block)", set: |a, v| a.admission = v.into() },
        Flag { name: "--hwm", arg: "P", help: "admission high-water mark, pct of ring capacity (default 100)", set: |a, v| a.hwm = num(v) },
        Flag { name: "--slo-p99", arg: "NS", help: "fail (exit 1) if arrival-latency p99 exceeds NS", set: |a, v| a.slo_p99 = Some(num(v)) },
        Flag {
            name: "--away",
            arg: "PE:FROM:DUR",
            help: "elastic membership: PE parks its queue at FROM ns and rejoins\n\
                   after DUR ns (repeatable; ingress PEs and PE 0 must stay)",
            set: |a, v| {
                let p = split_nums(v, 3, "--away");
                a.away.push((p[0] as usize, p[1], p[2]));
            },
        },
    ]),
    ("live telemetry (service mode; deterministic per seed)", &[
        Flag {
            name: "--snapshots",
            arg: "F",
            help: "write the sws-obs-snap/v1 JSONL snapshot stream to F (tail it\n\
                   with `sws-top F --follow`); with --system both, F.SDC / F.SWS",
            set: |a, v| a.snapshots = Some(v.into()),
        },
        Flag {
            name: "--snap-interval",
            arg: "N",
            help: "virtual ns between snapshots (default 50000)",
            set: |a, v| {
                a.snap_interval = num(v);
                if a.snap_interval == 0 {
                    eprintln!("--snap-interval must be > 0 ns");
                    usage()
                }
            },
        },
        Flag {
            name: "--slo-alerts",
            arg: "M",
            help: "off | warn | fatal: rolling-window p99 burn-rate alerting\n\
                   against --slo-p99 with fire/clear hysteresis; fatal exits 1\n\
                   if any alert fired",
            set: |a, v| {
                a.slo_alerts = v.into();
                if !matches!(v, "off" | "warn" | "fatal") {
                    eprintln!("unknown --slo-alerts mode {v} (expected off|warn|fatal)");
                    usage()
                }
            },
        },
    ]),
    ("fault injection (chaos runs; deterministic per seed)", &[
        Flag { name: "--drop-prob", arg: "P", help: "drop each remote op with probability P (0.0–1.0)", set: |a, v| a.drop_prob = num(v) },
        Flag {
            name: "--stall",
            arg: "PE:FROM:DUR",
            help: "stall PE for DUR ns starting at FROM ns",
            set: |a, v| {
                let p = split_nums(v, 3, "--stall");
                a.stall = Some((p[0] as usize, p[1], p[2]));
            },
        },
        Flag {
            name: "--crash",
            arg: "PE:AT",
            help: "crash-stop PE at virtual time AT ns (PE 0 hosts the\n\
                   termination counters and cannot crash)",
            set: |a, v| {
                let p = split_nums(v, 2, "--crash");
                a.crash = Some((p[0] as usize, p[1]));
            },
        },
    ]),
];

fn usage() -> ! {
    eprintln!("usage: sws-run <uts|bpc|flat> [options]");
    for (section, flags) in FLAGS {
        eprintln!("\n{section}:");
        for f in *flags {
            let mut help = f.help.lines();
            eprintln!("  {:<22} {}", format!("{} {}", f.name, f.arg), help.next().unwrap_or(""));
            for more in help {
                eprintln!("  {:<22} {more}", "");
            }
        }
    }
    std::process::exit(2);
}

/// Parse `a:b[:c]` into numeric fields, dying with usage() on malformed
/// input.
fn split_nums(spec: &str, n: usize, flag: &str) -> Vec<u64> {
    let parts: Vec<u64> = spec
        .split(':')
        .map(|p| {
            p.parse().unwrap_or_else(|_| {
                eprintln!("bad {flag} spec {spec:?}: expected {n} colon-separated integers");
                usage()
            })
        })
        .collect();
    if parts.len() != n {
        eprintln!("bad {flag} spec {spec:?}: expected {n} colon-separated integers");
        usage()
    }
    parts
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        pes: 8,
        system: "both".into(),
        seed: 0xBA5E,
        depth: 0,
        tasks: 4096,
        task_ns: 50_000,
        capacity: 16384,
        engine: false,
        timeline: false,
        histogram: false,
        json: false,
        assert_comms: false,
        assert_steal_bound: false,
        metrics: false,
        sample: 0,
        contention: false,
        trace_out: None,
        drop_prob: 0.0,
        stall: None,
        crash: None,
        serve: false,
        arrivals: "poisson".into(),
        mean_gap: 10_000,
        burst: 64,
        period: 200_000,
        horizon: 500_000,
        ingress: 1,
        admission: "block".into(),
        hwm: 100,
        slo_p99: None,
        away: Vec::new(),
        snapshots: None,
        snap_interval: 50_000,
        slo_alerts: "off".into(),
    };
    let mut it = std::env::args().skip(1);
    let Some(w) = it.next() else { usage() };
    args.workload = w;
    args.depth = match args.workload.as_str() {
        "uts" => 10,
        "bpc" => 32,
        "flat" => 0,
        _ => usage(),
    };
    while let Some(name) = it.next() {
        let Some(flag) = FLAGS.iter().flat_map(|(_, flags)| *flags).find(|f| f.name == name) else {
            eprintln!("unknown flag {name}");
            usage()
        };
        let val = if flag.arg.is_empty() {
            String::new()
        } else {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        (flag.set)(&mut args, &val);
    }
    if args.histogram && args.sample > 1 {
        eprintln!("--histogram counts every steal and cannot read a --sample capture");
        usage()
    }
    // The tree about doubles per level (771,955 nodes at 15) and the
    // workload keeps one child-count row per level.
    if args.workload == "uts" && args.depth > 64 {
        eprintln!("--depth: a uts tree of {} levels cannot be traversed (at most 64)", args.depth);
        usage()
    }
    if args.serve {
        if !matches!(args.workload.as_str(), "flat" | "uts") {
            eprintln!("--serve supports the flat and uts workloads");
            usage()
        }
        if args.slo_alerts != "off" && args.slo_p99.is_none() {
            eprintln!("--slo-alerts needs --slo-p99 NS as the objective");
            usage()
        }
    } else if args.serve_flags_used() {
        eprintln!("service flags require --serve");
        usage()
    }
    args
}

/// The fault plan from `--drop-prob`, `--stall` and `--crash`; `None`
/// when no fault flag is set.
fn fault_plan(args: &Args) -> Option<FaultPlan> {
    if !args.faults_active() {
        return None;
    }
    let mut plan = FaultPlan::seeded(args.seed ^ 0xFA17);
    if args.drop_prob != 0.0 {
        plan = plan.with_drop(OpClass::All, TargetSel::Any, args.drop_prob);
    }
    if let Some((pe, from, dur)) = args.stall {
        plan = plan.with_stall(pe, from, dur);
    }
    if let Some((pe, at)) = args.crash {
        plan = plan.with_crash(pe, at);
    }
    Some(plan)
}

/// The elastic membership plan from the repeatable `--away` flags.
fn membership_plan(args: &Args) -> MembershipPlan {
    let mut plan = MembershipPlan::fixed();
    for &(pe, from, dur) in &args.away {
        plan = plan.away(pe, from, dur);
    }
    plan
}

/// One queue geometry per workload, shared between the runner and the
/// span stitcher (the stitcher decodes raw stealvals with this layout).
fn queue_config(args: &Args) -> QueueConfig {
    let task_bytes = match args.workload.as_str() {
        "uts" => 48,
        "bpc" => 32,
        _ => 24,
    };
    QueueConfig::new(args.capacity, task_bytes)
}

fn run_one(args: &Args, kind: QueueKind) -> RunReport {
    let mut sched = SchedConfig::new(kind, queue_config(args))
        .with_seed(args.seed)
        .with_sample_period(args.sample);
    // The trace exporter draws scheduler instants and the idle counter
    // from the event log, so --trace-out arms tracing too.
    sched.trace = args.timeline || args.trace_out.is_some();
    let mut cfg = RunConfig::new(args.pes, sched);
    if args.capture() {
        cfg = cfg.with_capture_proto();
    }
    if args.contention {
        cfg = cfg.with_profile_sites();
    }
    if let Some(plan) = fault_plan(args) {
        cfg = cfg.with_faults(plan);
    }
    if args.serve {
        let svc = service_config(args);
        let plan = arrival_plan(args);
        return or_exit(match args.workload.as_str() {
            "flat" => sws::sched::try_run_service(
                &cfg,
                &svc,
                &FlatServe::new(plan, args.task_ns, args.ingress),
            ),
            "uts" => sws::sched::try_run_service(
                &cfg,
                &svc,
                &UtsServe::new(
                    UtsParams::geo_small(args.depth),
                    plan,
                    // Injected subtree roots claim a mid-tree depth so
                    // each arrival's fan-out stays bounded but irregular.
                    args.depth.saturating_sub(4).max(1),
                    args.ingress,
                ),
            ),
            _ => usage(),
        });
    }
    match args.workload.as_str() {
        "uts" => run_batch(&cfg, &UtsWorkload::new(UtsParams::geo_small(args.depth))),
        "bpc" => run_batch(
            &cfg,
            &BpcWorkload::new(BpcParams::scaled(64, args.depth)),
        ),
        "flat" => run_batch(&cfg, &FlatBag::new(args.tasks, args.task_ns, 24)),
        _ => usage(),
    }
}

fn run_batch(cfg: &RunConfig, workload: &impl Workload) -> RunReport {
    or_exit(sws::sched::try_run_workload_mode(cfg, workload, ExecMode::Virtual))
}

/// A run's report, batch or service. A `ShmemError` — a configuration the
/// library refuses (a PE out of range, a ring the stealval cannot address,
/// a crash of PE 0, a heap the host cannot give), a PE that panicked — is
/// one line on stderr and exit 1. The library is the one judge of a
/// configuration; the parser checks only what the CLI alone knows.
fn or_exit(run: Result<RunReport, sws::shmem::ShmemError>) -> RunReport {
    run.unwrap_or_else(|e| {
        eprintln!("sws-run: {e}");
        std::process::exit(1)
    })
}

/// The seeded arrival plan from the `--arrivals` family of flags.
fn arrival_plan(args: &Args) -> ArrivalPlan {
    let pattern = match args.arrivals.as_str() {
        "poisson" => ArrivalPattern::Poisson {
            mean_gap_ns: args.mean_gap,
        },
        "bursty" => ArrivalPattern::Bursty {
            burst: args.burst,
            gap_ns: args.mean_gap,
            period_ns: args.period,
        },
        "diurnal" => ArrivalPattern::Diurnal {
            base_gap_ns: args.mean_gap,
            period_ns: args.period,
            amplitude_pct: 50,
        },
        other => {
            eprintln!("unknown arrival pattern {other} (expected poisson|bursty|diurnal)");
            usage()
        }
    };
    ArrivalPlan {
        pattern,
        seed: args.seed ^ 0xA881,
        start_ns: 0,
        horizon_ns: args.horizon,
    }
}

fn service_config(args: &Args) -> ServiceConfig {
    let admission = match args.admission.as_str() {
        "block" => AdmissionPolicy::Block,
        "defer" => AdmissionPolicy::Defer,
        "shed" => AdmissionPolicy::Shed,
        other => {
            eprintln!("unknown admission policy {other} (expected block|defer|shed)");
            usage()
        }
    };
    let snap_interval = if args.snapshots_armed() {
        args.snap_interval
    } else {
        0
    };
    ServiceConfig::default()
        .with_admission(admission)
        .with_hwm_pct(args.hwm)
        .with_membership(membership_plan(args))
        .with_snapshot_interval(snap_interval)
}

/// The burn-rate alerting policy: `--slo-p99` is the objective; the
/// window and hysteresis thresholds are the library defaults.
fn slo_policy(args: &Args) -> SloPolicy {
    SloPolicy::default().with_slo_p99_ns(if args.slo_alerts == "off" {
        0
    } else {
        args.slo_p99.unwrap_or(0)
    })
}

/// Per-system snapshot file path: `--system both` writes `F.SDC` and
/// `F.SWS` so the streams (each with its own header) stay separate.
fn snap_path(base: &str, system: &str, multi: bool) -> String {
    if multi {
        format!("{base}.{system}")
    } else {
        base.to_string()
    }
}

fn main() {
    let args = parse_args();
    let kinds: Vec<QueueKind> = match args.system.as_str() {
        "sws" => vec![QueueKind::Sws],
        "sdc" => vec![QueueKind::Sdc],
        "both" => vec![QueueKind::Sdc, QueueKind::Sws],
        _ => usage(),
    };
    let mut reports = Vec::new();
    let mut spans: Vec<SpanList> = Vec::new();
    let mut comms_ok = true;
    let mut bound_ok = true;
    let mut slo_ok = true;
    let mut alerts_ok = true;
    let multi = kinds.len() > 1;
    for kind in kinds {
        let report = run_one(&args, kind);
        if args.serve {
            // A service run that loses or duplicates arrivals is wrong
            // no matter what it prints; fail loudly.
            if !report.arrival_conservation_ok() || report.arrivals_in_flight() != 0 {
                eprintln!(
                    "{}: arrival conservation violated: {} offered, {} admitted, {} shed, {} completed, {} in flight",
                    report.system,
                    report.total_offered(),
                    report.total_admitted(),
                    report.total_shed(),
                    report.completed_arrivals(),
                    report.arrivals_in_flight(),
                );
                std::process::exit(1);
            }
            if let Some(slo) = args.slo_p99 {
                let p99 = report.service_latency().p99();
                if p99 > slo {
                    eprintln!(
                        "{}: SLO violated: arrival-latency p99 {p99} ns > {slo} ns",
                        report.system
                    );
                    slo_ok = false;
                }
            }
            if args.snapshots_armed() {
                let policy = slo_policy(&args);
                let stream = build_stream(&report, &policy);
                if let Some(base) = &args.snapshots {
                    let path = snap_path(base, &report.system, multi);
                    let text = stream_to_jsonl(&report, &policy, &stream);
                    if let Err(e) = std::fs::write(&path, &text) {
                        eprintln!("--snapshots: cannot write {path}: {e}");
                        std::process::exit(1);
                    }
                    if !args.json {
                        println!(
                            "   snapshots: wrote {path} ({} frames, {} alerts; \
                             tail with `sws-top {path} --follow`)",
                            stream.frames.len(),
                            stream.alerts.len()
                        );
                    }
                }
                if args.slo_alerts != "off" {
                    for a in &stream.alerts {
                        eprintln!(
                            "{}: slo-alert {} at t={} ns: windowed p99 {} ns = \
                             {}% of SLO {} ns",
                            report.system,
                            a.kind.label(),
                            a.t_ns,
                            a.win_p99_ns,
                            a.burn_pct,
                            policy.slo_p99_ns
                        );
                    }
                    let fired = stream
                        .alerts
                        .iter()
                        .any(|a| a.kind == AlertKind::Fire);
                    if fired && args.slo_alerts == "fatal" {
                        alerts_ok = false;
                    }
                }
            }
        }
        let report_spans = if args.capture() {
            stitch_report(&report, &queue_config(&args))
        } else {
            SpanList::default()
        };
        // Each check runs once; the two branches differ only in rendering.
        let comm = args.assert_comms.then(|| check_comms(&report_spans, args.faults_active()));
        let bound = args.assert_steal_bound.then(|| check_steal_bound(&report));
        let registry = args.metrics.then(|| Registry::from_report(&report, Some(&report_spans)));
        let contention = args.contention.then(|| contention_rows(&report));
        comms_ok &= comm.as_ref().is_none_or(CommReport::ok);
        bound_ok &= bound.as_ref().is_none_or(StealBoundReport::ok);
        if args.json {
            println!("{}", report_to_json(&report));
            let lines = [
                comm.as_ref().map(comm_report_to_json),
                bound.as_ref().map(steal_bound_to_json),
                registry.as_ref().map(Registry::to_json),
                contention.as_deref().map(contention_to_json),
            ];
            lines.into_iter().flatten().for_each(|line| println!("{line}"));
        } else {
            println!("{}", report.summary_line());
            if let Some(faults) = report.fault_summary_line() {
                println!("{faults}");
            }
            if let Some(service) = report.service_summary_line() {
                println!("{service}");
            }
            if args.engine {
                if let Some(engine) = report.engine_summary_line() {
                    println!("{engine}");
                }
            }
            if args.timeline {
                print!("{}", render_timeline(&report.workers, report.makespan_ns, 64));
            }
            if args.histogram {
                let won = report_spans.iter().filter(|s| matches!(s.outcome, SpanOutcome::Completed { .. }));
                let mut victims = std::collections::BTreeMap::new();
                for s in won.clone() {
                    *victims.entry(s.victim).or_insert(0u64) += 1;
                }
                let h = Pow2Histogram::from_samples(won.map(|s| s.tasks()));
                println!("   steal volumes (pow2 buckets): {}", h.render());
                println!("   mean steal volume: {:.1} tasks", h.mean());
                if let Some((pe, c)) = victims.iter().max_by_key(|(_, &c)| c) {
                    println!("   hottest victim: PE {pe} fed {c} of {} steals", h.n);
                }
            }
            let blocks = [
                comm.as_ref().map(CommReport::render),
                bound.as_ref().map(StealBoundReport::render),
                registry.as_ref().map(Registry::render_text),
                contention.as_deref().map(contention_table),
            ];
            blocks.into_iter().flatten().for_each(|block| print!("{block}"));
            if args.sample > 1 {
                println!(
                    "   sampling: 1-in-{} steal attempts captured ({} of {}; \
                     scale span counts by the period)",
                    report.sample_period().max(1),
                    report.total_sampled_attempts(),
                    report.total_steal_attempts()
                );
            }
        }
        reports.push(report);
        spans.push(report_spans);
    }
    if !args.json && reports.len() == 2 {
        let (sdc, sws) = (&reports[0], &reports[1]);
        println!(
            "SWS vs SDC: runtime {:+.1}%, steal time {:.2}x lower, search {:.2}x lower",
            (sdc.makespan_ns as f64 / sws.makespan_ns as f64 - 1.0) * 100.0,
            sdc.total_steal_ns() as f64 / sws.total_steal_ns().max(1) as f64,
            sdc.total_search_ns() as f64 / sws.total_search_ns().max(1) as f64,
        );
    }
    if let Some(path) = &args.trace_out {
        let runs: Vec<TraceRun> = reports
            .iter()
            .zip(&spans)
            .map(|(report, spans)| TraceRun { report, spans })
            .collect();
        let text = chrome_trace(&runs);
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("--trace-out: cannot write {path}: {e}");
            std::process::exit(1);
        }
        if !args.json {
            println!(
                "trace: wrote {path} ({} bytes; open at ui.perfetto.dev)",
                text.len()
            );
        }
    }
    // Print every failed assertion before exiting, so a run that
    // trips several (e.g. hard SLO check + burn-rate alerts) shows
    // the full diagnosis in one pass.
    if !comms_ok {
        eprintln!("--assert-comms: per-steal budget violated (see report above)");
    }
    if !bound_ok {
        eprintln!("--assert-steal-bound: rooted-tree steal bound violated (see report above)");
    }
    if !slo_ok {
        eprintln!("--slo-p99: latency objective violated (see report above)");
    }
    if !alerts_ok {
        eprintln!("--slo-alerts=fatal: burn-rate alerts fired (see above)");
    }
    if !(comms_ok && bound_ok && slo_ok && alerts_ok) {
        std::process::exit(1);
    }
}
