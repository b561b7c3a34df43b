//! The six workloads: input generation with reference answers
//! (`build_*`, what `setup_s` times) and one repetition of identical
//! work (`Bench::rep`, what `wall_s` times — every call into the
//! program from world launch to rendered report).
//!
//! Pinned API surface: only default constructors and entry points are
//! named here (see README.md); nothing that ROADMAP item 2 intends to
//! delete.

use std::hint::black_box;

use sws_check::conform::{self, Proto, ReplayInput};
use sws_check::live::{
    corpus, explore_scenario, mutant_scenario, replay_schedule, write_schedule, ExplorerConfig,
    Scenario,
};
use sws_core::QueueConfig;
use sws_obs::{
    build_stream, check_comms, chrome_trace, report_to_json, stitch_report, stream_to_jsonl,
    Registry, SloPolicy, TraceRun,
};
use sws_sched::{
    run_service, run_workload, QueueKind, RunConfig, RunReport, SchedConfig, ServiceConfig,
};
use sws_workloads::arrivals::{ArrivalPlan, FlatServe};
use sws_workloads::bpc::{BpcParams, BpcWorkload};
use sws_workloads::uts::{UtsParams, UtsWorkload};

use super::tracer::{time_s, Tracer};

/// Workload sizes. `FULL` is frozen (README, "Workloads"); `QUICK` is
/// the smoke run `cargo test -p sws-perf` drives.
#[derive(Copy, Clone)]
pub struct Sizes {
    uts_wide_pes: usize,
    uts_wide_depth: u32,
    uts_local_depth: u32,
    bpc_pes: usize,
    bpc_consumers: u32,
    bpc_depth: u32,
    serve_pes: usize,
    serve_horizon_ns: u64,
    observed_horizon_ns: u64,
    explore_schedules: u64,
}

impl Sizes {
    /// Sized for 0.7–1.5 s per repetition pinned on a 2.1 GHz Xeon core.
    pub const FULL: Sizes = Sizes {
        uts_wide_pes: 512,
        uts_wide_depth: 10,
        uts_local_depth: 15,
        bpc_pes: 64,
        bpc_consumers: 64,
        bpc_depth: 6,
        serve_pes: 16,
        serve_horizon_ns: 10_000_000,
        observed_horizon_ns: 40_000_000,
        explore_schedules: 256,
    };
    /// Tiny: the whole benchmark in seconds, debug profile included.
    pub const QUICK: Sizes = Sizes {
        uts_wide_pes: 32,
        uts_wide_depth: 6,
        uts_local_depth: 8,
        bpc_pes: 8,
        bpc_consumers: 8,
        bpc_depth: 2,
        serve_pes: 4,
        serve_horizon_ns: 200_000,
        observed_horizon_ns: 200_000,
        explore_schedules: 4,
    };
}

/// The open-loop rate ladder: mean arrival gap per ingress PE, ns.
pub const RUNGS: [u64; 3] = [2000, 1000, 700];
/// The rung the headline latency metrics read.
pub const HEADLINE_RUNG: u64 = 1000;
/// Service task cost, virtual ns.
const TASK_NS: u64 = 5_000;
/// Ingress PEs.
const INGRESS: usize = 2;
/// Snapshot interval of the observed run, virtual ns.
const SNAP_INTERVAL_NS: u64 = 100_000;
/// Schedule budget of the mutant self-test (it is caught at schedule 17).
const MUTANT_SCHEDULES: u64 = 64;

/// Correctness checks made and failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn eq(&mut self, what: &str, got: u64, want: u64) {
        self.check(got == want, || format!("{what}: got {got}, want {want}"));
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// What one repetition produced besides heat.
#[derive(Default)]
pub struct Rep {
    pub checks: Checks,
    /// Virtual-clock results and program-made counts, as raw integers.
    /// Deterministic per seed: must repeat exactly across repetitions.
    pub exact: Vec<(String, u64)>,
    /// Program-made host quantities (engine gate wait, windowed ops):
    /// informational, never compared.
    pub host: Vec<(String, u64)>,
}

impl Rep {
    /// An exact fact by name (0 when the workload has no such fact).
    pub fn fact(&self, name: &str) -> u64 {
        self.exact
            .iter()
            .chain(&self.host)
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Sum of `<run>.<field>` over every run of the repetition.
    pub fn sum(&self, field: &str) -> u64 {
        let suffix = format!(".{field}");
        self.exact
            .iter()
            .chain(&self.host)
            .filter(|(k, _)| k.ends_with(&suffix))
            .map(|(_, v)| *v)
            .sum()
    }

    fn record_report(&mut self, run: &str, r: &RunReport) {
        let mut exact = |field: &str, v: u64| self.exact.push((format!("{run}.{field}"), v));
        exact("n_pes", r.n_pes as u64);
        exact("makespan_ns", r.makespan_ns);
        exact("tasks", r.total_tasks());
        exact("task_ns", r.total_task_ns());
        exact("steals", r.total_steals());
        exact("steal_attempts", r.total_steal_attempts());
        exact("steal_ns", r.total_steal_ns());
        exact("search_ns", r.total_search_ns());
        exact(
            "runtime_sum_ns",
            r.workers.iter().map(|w| w.runtime_ns).sum(),
        );
        exact("total_ops", r.total_comm().total_ops());
        exact("enqueued", r.workers.iter().map(|w| w.queue.enqueued).sum());
        exact("releases", r.workers.iter().map(|w| w.queue.releases).sum());
        let engine = r.total_engine();
        exact("gated_ops", engine.gated_ops());
        if r.total_offered() > 0 {
            let lat = r.service_latency();
            exact("offered", r.total_offered());
            exact("in_flight", r.arrivals_in_flight());
            exact("lat_n", lat.n);
            exact("lat_sum_ns", lat.sum);
            exact("lat_p99_ns", lat.p99());
        }
        // Whether an op found its safe window open depends on how far
        // the other PEs' OS threads had got, not only on virtual time.
        self.host.push((format!("{run}.fast_ops"), engine.fast_ops));
        self.host
            .push((format!("{run}.gate_wait_ns"), engine.gate_wait_ns));
    }
}

/// One workload with its inputs generated and reference answers known.
pub trait Bench {
    /// One repetition: identical work every call.
    fn rep(&self, tr: &mut Tracer) -> Rep;

    /// Traced pass only: seconds the same-input run takes with every
    /// telemetry switch off, for the armed/disarmed wall ratio (0 when
    /// the workload arms nothing).
    fn disarmed_run_s(&self) -> f64 {
        0.0
    }
}

fn label(kind: QueueKind) -> &'static str {
    match kind {
        QueueKind::Sws => "sws",
        QueueKind::Sdc => "sdc",
    }
}

/// The report lines a CLI user reads — rendering them is part of a run.
fn render(report: &RunReport) -> String {
    let mut text = report.summary_line();
    for line in [report.engine_summary_line(), report.service_summary_line()]
        .into_iter()
        .flatten()
    {
        text.push('\n');
        text.push_str(&line);
    }
    text
}

// ---------------------------------------------------------------------
// uts-wide, uts-local
// ---------------------------------------------------------------------

struct Uts {
    params: UtsParams,
    n_pes: usize,
    order: [QueueKind; 2],
    seed: u64,
    /// Reference answer: the sequential traversal's node count.
    nodes: u64,
}

impl Bench for Uts {
    fn rep(&self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        for kind in self.order {
            let sys = label(kind);
            let workload = UtsWorkload::new(self.params);
            let sched = SchedConfig::new(kind, QueueConfig::new(16384, 48)).with_seed(self.seed);
            let cfg = RunConfig::new(self.n_pes, sched);
            let report = tr.scope(&format!("sched.run_workload.{sys}"), |_| {
                run_workload(&cfg, &workload)
            });
            black_box(tr.scope("sched.report.render", |_| render(&report)));
            rep.checks.eq(
                &format!("{sys} tasks executed"),
                report.total_tasks(),
                self.nodes,
            );
            rep.checks.eq(
                &format!("{sys} nodes visited"),
                workload.nodes_visited(),
                self.nodes,
            );
            rep.record_report(sys, &report);
            // One SHA-1 child derivation per non-root node.
            rep.exact
                .push((format!("{sys}.sha1_calls"), self.nodes - 1));
        }
        rep
    }
}

fn build_uts(n_pes: usize, depth: u32, order: [QueueKind; 2], seed: u64) -> Box<dyn Bench> {
    // The tree stays the calibrated geo_small family (root seed 5):
    // geometric tree size swings by orders of magnitude with the root.
    // The run seed feeds the scheduler's victim RNG.
    let params = UtsParams::geo_small(depth);
    let nodes = params.sequential_count().nodes;
    Box::new(Uts {
        params,
        n_pes,
        order,
        seed,
        nodes,
    })
}

// ---------------------------------------------------------------------
// bpc-search
// ---------------------------------------------------------------------

struct Bpc {
    params: BpcParams,
    n_pes: usize,
    seed: u64,
}

impl Bench for Bpc {
    fn rep(&self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        for kind in [QueueKind::Sdc, QueueKind::Sws] {
            let sys = label(kind);
            let workload = BpcWorkload::new(self.params);
            let sched = SchedConfig::new(kind, QueueConfig::new(16384, 32)).with_seed(self.seed);
            let cfg = RunConfig::new(self.n_pes, sched);
            let report = tr.scope(&format!("sched.run_workload.{sys}"), |_| {
                run_workload(&cfg, &workload)
            });
            black_box(tr.scope("sched.report.render", |_| render(&report)));
            let want = self.params.total_tasks();
            rep.checks
                .eq(&format!("{sys} tasks executed"), report.total_tasks(), want);
            rep.checks
                .eq(&format!("{sys} handler calls"), workload.executed(), want);
            rep.record_report(sys, &report);
        }
        rep
    }
}

// ---------------------------------------------------------------------
// serve-steal, serve-observed
// ---------------------------------------------------------------------

/// Arrivals a plan presents across the ingress PEs — the reference for
/// the conservation check, generated harness-side from the same seed.
fn planned_arrivals(plan: &ArrivalPlan) -> u64 {
    (0..INGRESS)
        .map(|pe| {
            let mut clock = plan.clock(pe);
            let mut n = 0;
            while clock.take().is_some() {
                n += 1;
            }
            n
        })
        .sum()
}

fn check_service(checks: &mut Checks, run: &str, report: &RunReport, serve: &FlatServe, want: u64) {
    checks.eq(
        &format!("{run} arrivals offered"),
        report.total_offered(),
        want,
    );
    checks.eq(
        &format!("{run} arrivals completed"),
        serve.completed(),
        want,
    );
    checks.check(
        report.arrival_conservation_ok() && report.arrivals_in_flight() == 0,
        || format!("{run}: arrival conservation violated"),
    );
}

struct ServeSteal {
    n_pes: usize,
    seed: u64,
    /// Per rung: the plan and the arrivals it presents.
    rungs: Vec<(u64, ArrivalPlan, u64)>,
}

impl Bench for ServeSteal {
    fn rep(&self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        for (gap, plan, want) in &self.rungs {
            for kind in [QueueKind::Sws, QueueKind::Sdc] {
                let run = format!("{}.gap{gap}", label(kind));
                let serve = FlatServe::new(plan.clone(), TASK_NS, INGRESS);
                let sched =
                    SchedConfig::new(kind, QueueConfig::new(16384, 24)).with_seed(self.seed);
                let cfg = RunConfig::new(self.n_pes, sched);
                let report = tr.scope(&format!("sched.run_service.{run}"), |_| {
                    run_service(&cfg, &ServiceConfig::default(), &serve)
                });
                black_box(tr.scope("sched.report.render", |_| render(&report)));
                check_service(&mut rep.checks, &run, &report, &serve, *want);
                rep.record_report(&run, &report);
            }
        }
        rep
    }
}

fn plan_for(seed: u64, gap: u64, horizon_ns: u64) -> (u64, ArrivalPlan, u64) {
    let plan = ArrivalPlan::poisson(seed ^ 0xA881, gap, horizon_ns);
    let want = planned_arrivals(&plan);
    (gap, plan, want)
}

struct ServeObserved {
    n_pes: usize,
    seed: u64,
    plan: ArrivalPlan,
    want: u64,
}

impl ServeObserved {
    fn queue() -> QueueConfig {
        QueueConfig::new(16384, 24)
    }

    fn run(&self, armed: bool, tr: &mut Tracer, rep: &mut Rep) -> RunReport {
        let run = format!("sws.gap{HEADLINE_RUNG}");
        let serve = FlatServe::new(self.plan.clone(), TASK_NS, INGRESS);
        let mut sched = SchedConfig::new(QueueKind::Sws, Self::queue()).with_seed(self.seed);
        // The trace exporter draws scheduler instants from the event
        // log, exactly as `sws-run --trace-out` arms it.
        sched.trace = armed;
        let mut cfg = RunConfig::new(self.n_pes, sched);
        let mut svc = ServiceConfig::default();
        if armed {
            cfg = cfg.with_capture_proto().with_profile_sites();
            svc = svc.with_snapshot_interval(SNAP_INTERVAL_NS);
        }
        let report = tr.scope(&format!("sched.run_service.{run}"), |_| {
            run_service(&cfg, &svc, &serve)
        });
        check_service(&mut rep.checks, &run, &report, &serve, self.want);
        rep.record_report(&run, &report);
        report
    }
}

impl Bench for ServeObserved {
    fn rep(&self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let report = self.run(true, tr, &mut rep);
        let queue = Self::queue();
        let mut count = |name: &str, v: usize| rep.exact.push((format!("obs.{name}"), v as u64));

        let events = tr.scope("obs.merge", |_| report.proto_trace());
        count("proto_events", events.len());
        let spans = tr.scope("obs.stitch", |_| stitch_report(&report, &queue));
        count("spans", spans.len());
        let comm = tr.scope("obs.check_comms", |_| check_comms(&spans, false));
        count("spans_completed", comm.completed as usize);
        count("spans_probe", comm.probes as usize);
        let replayed = tr.scope("check.conform.replay", |_| {
            conform::replay(&ReplayInput::new(Proto::Sws, queue, &events))
        });
        let trace = tr.scope("obs.perfetto", |_| {
            chrome_trace(&[TraceRun {
                report: &report,
                spans: &spans,
            }])
        });
        count("perfetto_bytes", trace.len());
        let snaps = tr.scope("obs.snap_render", |_| {
            let policy = SloPolicy::default();
            let stream = build_stream(&report, &policy);
            stream_to_jsonl(&report, &policy, &stream)
        });
        count(
            "snap_rows",
            report.workers.iter().map(|w| w.snapshots.len()).sum(),
        );
        let json = tr.scope("obs.report_json", |_| {
            let registry = Registry::from_report(&report, Some(&spans)).to_json();
            black_box(registry);
            report_to_json(&report)
        });
        black_box(tr.scope("sched.report.render", |_| render(&report)));

        rep.checks.check(comm.ok(), || {
            format!("comm budget violated: {:?}", comm.violations.first())
        });
        rep.checks.check(comm.completed > 0, || {
            "no completed steal span stitched".into()
        });
        rep.checks.check(replayed.is_ok(), || {
            format!(
                "conformance replay diverged: {:?}",
                replayed.as_ref().err().map(|d| d.kind)
            )
        });
        // `validate_chrome_trace` is quadratic in the event count (12.6 s
        // for this run's 1.3 MB at a quarter of the horizon), so the
        // export is checked by counting its slices instead.
        let slices = trace.matches("\"ph\":\"X\"").count() as u64;
        rep.checks.check(slices >= comm.completed, || {
            format!(
                "exported trace has {slices} slices for {} steals",
                comm.completed
            )
        });
        rep.checks.check(snaps.lines().count() > 1, || {
            "snapshot stream is empty".into()
        });
        rep.checks
            .check(sws_obs::json::Json::parse(&json).is_ok(), || {
                "report JSON does not parse".into()
            });
        rep
    }

    fn disarmed_run_s(&self) -> f64 {
        time_s(|| self.run(false, &mut Tracer::off(), &mut Rep::default())).0
    }
}

// ---------------------------------------------------------------------
// explore-corpus
// ---------------------------------------------------------------------

struct Explore {
    scenarios: Vec<Scenario>,
    mutant: Scenario,
    cfg: ExplorerConfig,
    mutant_cfg: ExplorerConfig,
}

impl Bench for Explore {
    fn rep(&self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let mut totals = [
            ("schedules", 0u64),
            ("truncated", 0),
            ("branches", 0),
            ("pruned", 0),
            ("pe_launches", 0),
        ];
        for sc in &self.scenarios {
            let (stats, ce) = tr.scope(&format!("check.live.explore.{}", sc.name), |_| {
                explore_scenario(sc, &self.cfg)
            });
            rep.checks.check(ce.is_none(), || {
                format!(
                    "{}: counterexample {:?}",
                    sc.name,
                    ce.as_ref().map(|c| &c.failure)
                )
            });
            rep.checks.check(stats.schedules > 0, || {
                format!("{}: nothing explored", sc.name)
            });
            for ((_, total), v) in totals.iter_mut().zip([
                stats.schedules,
                stats.truncated,
                stats.branches,
                stats.pruned_independent + stats.pruned_preempt,
                sc.n_pes as u64 * stats.schedules,
            ]) {
                *total += v;
            }
        }
        // Mutant self-test: find → ddmin shrink (both inside
        // `explore_scenario`) → replay from the schedule file.
        let (stats, ce) = tr.scope("check.live.mutant", |_| {
            explore_scenario(&self.mutant, &self.mutant_cfg)
        });
        rep.checks.check(ce.is_some(), || {
            format!("seeded mutation survived {} schedules", stats.schedules)
        });
        if let Some(ce) = ce {
            let replay = tr.scope("check.live.replay", |_| {
                replay_schedule(&write_schedule(&ce), self.cfg.max_steps)
            });
            let reproduced = replay
                .as_ref()
                .is_ok_and(|r| r.failure.as_deref() == Some(ce.failure.as_str()));
            rep.checks
                .check(reproduced, || "shrunk schedule does not replay".into());
            rep.exact
                .push(("live.mutant_shrunk_len".into(), ce.schedule.len() as u64));
        }
        rep.exact
            .extend(totals.map(|(name, v)| (format!("live.{name}"), v)));
        rep.exact
            .push(("live.mutant_schedules".into(), stats.schedules));
        rep
    }
}

fn build_explore(sizes: &Sizes) -> Box<dyn Bench> {
    // The corpus is a fixed fixture, like the UTS tree: how many
    // schedules a scenario needs swings by tens of percent with its
    // scheduler seed, and whether a schedule exposes the seeded mutant
    // within the budget is not a property every seed has.
    let scenarios = corpus();
    Box::new(Explore {
        scenarios,
        mutant: mutant_scenario(),
        cfg: ExplorerConfig {
            max_schedules: sizes.explore_schedules,
            ..ExplorerConfig::default()
        },
        mutant_cfg: ExplorerConfig {
            max_schedules: MUTANT_SCHEDULES,
            ..ExplorerConfig::default()
        },
    })
}

/// Generate `workload`'s inputs and reference answers from `seed`.
pub fn build(workload: &str, seed: u64, sizes: &Sizes) -> Box<dyn Bench> {
    use QueueKind::{Sdc, Sws};
    match workload {
        "uts-wide" => build_uts(sizes.uts_wide_pes, sizes.uts_wide_depth, [Sdc, Sws], seed),
        "uts-local" => build_uts(1, sizes.uts_local_depth, [Sws, Sdc], seed),
        "bpc-search" => Box::new(Bpc {
            params: BpcParams::scaled(sizes.bpc_consumers, sizes.bpc_depth),
            n_pes: sizes.bpc_pes,
            seed,
        }),
        "serve-steal" => Box::new(ServeSteal {
            n_pes: sizes.serve_pes,
            seed,
            rungs: RUNGS
                .iter()
                .map(|&gap| plan_for(seed, gap, sizes.serve_horizon_ns))
                .collect(),
        }),
        "serve-observed" => {
            let (_, plan, want) = plan_for(seed, HEADLINE_RUNG, sizes.observed_horizon_ns);
            Box::new(ServeObserved {
                n_pes: sizes.serve_pes,
                seed,
                plan,
                want,
            })
        }
        "explore-corpus" => build_explore(sizes),
        other => unreachable!("cli::parse admits only dictionary workloads, got {other}"),
    }
}
