//! The timing half of the benchmark: pin, set up, warm up, repeat,
//! check, trace, report. `main.rs` and `tests/quick.rs` both include
//! this module; everything pure lives in the `sws_perf` library.

pub mod host;
pub mod ledger;
pub mod tracer;
pub mod workloads;

use std::process::{Command as Process, Stdio};
use std::time::{Duration, Instant};

use sws_obs::json::Json;
use sws_perf::cli::{self, Command, RunArgs};
use sws_perf::dict::{self, MetricDef};
use sws_perf::doc::{Metric, RunDoc, WorkloadResult};
use sws_perf::spec::BenchSpec;
use sws_perf::stats::{median, ratio, Summary};
use sws_perf::trace::{self, Span};

use host::Pin;
use ledger::Ledger;
use tracer::{time_s, Tracer};
use workloads::{Checks, Rep, Sizes, HEADLINE_RUNG, RUNGS};

/// Set-ups timed before the warm-up, at least; one more follows every
/// timed repetition and `setup_s` is the best of them all.
const SETUP_REPS: usize = 5;
/// Keep setting up until this much time or this many samples.
const SETUP_FLOOR: Duration = Duration::from_millis(50);
const SETUP_REPS_MAX: usize = 500;
/// Fewest timed repetitions, however long each takes.
const MIN_REPS: usize = 5;
/// The service-level objective the rate ladder is judged against: SDC's
/// p99 at the lowest rung today (a power-of-two bucket bound), ns.
const SLO_P99_NS: u64 = 262_144;

/// Exit code when pinning fails: host metrics are unresolved.
const EXIT_UNRESOLVED: i32 = 3;

/// One workload's run: the result and the traced pass's spans.
pub struct Outcome {
    pub result: WorkloadResult,
    pub spans: Vec<Span>,
    /// `(hw_threads, pinned_cpu)`.
    pub shape: (usize, usize),
}

/// Host-clock facts of one run that the per-layer metrics need.
struct HostFacts {
    wall_median_s: f64,
    wall_spread: f64,
    cold_s: f64,
    traced_s: f64,
    sys_cpu_share: f64,
    unpinned_s: f64,
    disarmed_s: f64,
}

/// First field on which two repetitions' exact facts differ.
fn first_difference(a: &[(String, u64)], b: &[(String, u64)]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} facts vs {}", a.len(), b.len()));
    }
    a.iter()
        .zip(b)
        .find(|(x, y)| x != y)
        .map(|(x, y)| format!("{} = {} vs {} = {}", x.0, x.1, y.0, y.1))
}

/// Determinism guard: every virtual-clock result and program-made count
/// must be identical to the warm-up's.
fn guard(checks: &mut Checks, which: &str, reference: &Rep, rep: &Rep) {
    let diff = first_difference(&reference.exact, &rep.exact);
    checks.check(diff.is_none(), || {
        format!(
            "{which} differs from the warm-up: {}",
            diff.unwrap_or_default()
        )
    });
}

/// Run one workload in this process. `Err` means pinning failed.
pub fn run_workload(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    host::pin_allocator();
    let sizes = if args.quick {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };

    // Set-up is everything the harness does before the first world is
    // launched: pin the process, generate the inputs, compute the
    // reference answers. The program's own launch cost is inside
    // `wall_s`, because users pay it on every run.
    let set_up = || time_s(|| (Pin::highest(), workloads::build(name, args.seed, &sizes)));
    let mut setups = Vec::new();
    let mut first_pin = None;
    let started = Instant::now();
    let bench = loop {
        let (s, (pin, bench)) = set_up();
        setups.push(s);
        // Only the first pin saw the inherited mask.
        first_pin = first_pin.or(pin);
        // A microsecond-scale set-up needs many samples to be steady.
        let cheap = started.elapsed() < SETUP_FLOOR && setups.len() < SETUP_REPS_MAX;
        if args.quick || (setups.len() >= SETUP_REPS && !cheap) {
            break bench;
        }
    };
    let pin = first_pin.ok_or("cannot pin to one CPU (sched_setaffinity refused)")?;

    let mut checks = Checks::default();
    let (cold_s, mut warmup) = time_s(|| bench.rep(&mut Tracer::off()));
    checks.absorb(std::mem::take(&mut warmup.checks));

    // One wall sample and one peak-RSS sample per repetition: the
    // resident-set high-water mark is reset before each, so the peak is
    // one repetition's and not the set-up's or the whole process's.
    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    let ticks0 = host::cpu_ticks();
    let started = Instant::now();
    loop {
        let done = if args.quick {
            walls.len() >= 2
        } else {
            walls.len() >= MIN_REPS && started.elapsed().as_secs() >= args.seconds
        };
        if done {
            break;
        }
        host::reset_peak_rss();
        let (s, mut rep) = time_s(|| bench.rep(&mut Tracer::off()));
        walls.push(s);
        peaks.push(host::peak_rss_mb());
        guard(
            &mut checks,
            &format!("repetition {}", walls.len()),
            &warmup,
            &rep,
        );
        checks.absorb(std::mem::take(&mut rep.checks));
        // One more set-up sample between repetitions, so that set-up is
        // sampled over the same seconds as the repetitions are.
        setups.push(set_up().0);
    }
    let ticks1 = host::cpu_ticks();
    let (user, sys) = (ticks1.0 - ticks0.0, ticks1.1 - ticks0.1);
    let wall_median_s = median(&walls);
    // Every repetition does identical work on one pinned CPU, so
    // interference — another tenant on the core's sibling thread, a
    // host that drifts by the minute — only ever adds time. The best
    // repetition is the one number that does not move with it.
    let best = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);

    let mut spans = Vec::new();
    let metrics = if args.trace {
        let mut tr = Tracer::on(name);
        let (traced_s, mut traced) = time_s(|| tr.scope("rep", |tr| bench.rep(tr)));
        guard(&mut checks, "traced pass", &warmup, &traced);
        checks.absorb(std::mem::take(&mut traced.checks));
        let disarmed_s = tr.scope("rep.disarmed", |_| bench.disarmed_run_s());
        // What a laptop user sees: the same repetition on the inherited
        // mask. Informational; expected ≈1 or ≈5 (the bimodality).
        let unpinned_s = if name == "uts-wide" {
            tr.scope("rep.unpinned", |_| {
                pin.unpinned(|| time_s(|| bench.rep(&mut Tracer::off())).0)
                    .unwrap_or(0.0)
            })
        } else {
            0.0
        };
        let mut ledger = tr.scope("ledger", |tr| ledger::measure(args.quick, tr));
        checks.absorb(std::mem::take(&mut ledger.checks));
        let facts = HostFacts {
            wall_median_s,
            wall_spread: Summary::of(&walls).map_or(0.0, |s| s.spread()),
            cold_s,
            traced_s,
            sys_cpu_share: ratio(sys as f64, (user + sys) as f64),
            unpinned_s,
            disarmed_s,
        };
        let fail_share = ratio(checks.failed as f64, checks.attempted as f64);
        spans = tr.spans;
        layer_metrics(&traced, &spans, &ledger, &facts, fail_share)
    } else {
        vec![
            ("wall_s", best(&walls), Summary::of(&walls)),
            ("peak_rss_mb", median(&peaks), Summary::of(&peaks)),
            ("setup_s", best(&setups), Summary::of(&setups)),
        ]
    };

    let table = if args.trace {
        dict::PER_LAYER
    } else {
        dict::END_TO_END
    };
    let metrics = emit(table, metrics, &mut checks);
    Ok(Outcome {
        result: WorkloadResult {
            workload: name.to_string(),
            correct: checks.failed == 0,
            attempted: checks.attempted,
            failed: checks.failed,
            failures: checks.failures,
            metrics,
        },
        spans,
        shape: (hw_threads, pin.cpu),
    })
}

/// Order `values` by the dictionary table, attach units, and check
/// that every dictionary metric is present and finite.
fn emit(
    table: &[MetricDef],
    values: Vec<(&'static str, f64, Option<Summary>)>,
    checks: &mut Checks,
) -> Vec<Metric> {
    table
        .iter()
        .map(|def| {
            let found = values.iter().find(|(name, _, _)| *name == def.name);
            let value = found.map(|(_, v, _)| *v).filter(|v| v.is_finite());
            checks.check(value.is_some(), || {
                format!("metric {} missing or not finite", def.name)
            });
            Metric {
                name: def.name.to_string(),
                unit: def.unit.to_string(),
                value: value.unwrap_or(0.0),
                summary: found.and_then(|(_, _, s)| *s),
            }
        })
        .collect()
}

/// The calibrated world width nearest to `n_pes`.
fn width(n_pes: u64) -> &'static str {
    match n_pes {
        0..=8 => "p2",
        9..=128 => "p64",
        _ => "p512",
    }
}

/// Every per-layer metric of one traced run. A metric the workload does
/// not exercise reads 0: no events, no time spent.
fn layer_metrics(
    rep: &Rep,
    spans: &[Span],
    ledger: &Ledger,
    host: &HostFacts,
    fail_share: f64,
) -> Vec<(&'static str, f64, Option<Summary>)> {
    let mut out: Vec<(&'static str, f64, Option<Summary>)> = Vec::new();
    let mut put = |name: &'static str, v: f64| out.push((name, v, None));
    let f = |name: &str| rep.fact(name) as f64;
    let sum = |field: &str| rep.sum(field) as f64;
    let span_ns = |name: &str| trace::total_ns(spans, name) as f64;

    // The paper's virtual-clock results, read at the headline run.
    let head = |sys: &str| {
        if rep.fact(&format!("{sys}.n_pes")) > 0 {
            sys.to_string()
        } else {
            format!("{sys}.gap{HEADLINE_RUNG}")
        }
    };
    let (sws, sdc) = (head("sws"), head("sdc"));
    let at = |run: &str, field: &str| f(&format!("{run}.{field}"));
    put("virt.makespan_ms", at(&sws, "makespan_ns") / 1e6);
    put(
        "virt.sws_speedup",
        ratio(at(&sdc, "makespan_ns"), at(&sws, "makespan_ns")),
    );
    put("virt.steal_ms", at(&sws, "steal_ns") / 1e6);
    put("virt.search_ms", at(&sws, "search_ns") / 1e6);
    put(
        "virt.steal_ratio",
        ratio(at(&sdc, "steal_ns"), at(&sws, "steal_ns")),
    );
    put(
        "virt.lat_mean_us",
        ratio(at(&sws, "lat_sum_ns"), at(&sws, "lat_n")) / 1e3,
    );
    put("virt.lat_p99_us", at(&sws, "lat_p99_ns") / 1e3);
    put("harness.fail_share", fail_share);
    put("harness.wall_median_s", host.wall_median_s);
    put("harness.wall_spread", host.wall_spread);

    for (name, v) in &ledger.entries {
        put(name, *v);
    }

    // Per run: its span, and what the ledger's unit costs account for.
    let runs: Vec<&str> = rep
        .exact
        .iter()
        .filter_map(|(k, _)| k.strip_suffix(".n_pes"))
        .collect();
    let (mut run_ns, mut pe_run_ns, mut launch_s, mut attributed_s) = (0.0, 0.0, 0.0, 0.0);
    for run in &runs {
        let n_pes = at(run, "n_pes");
        let w = width(n_pes as u64);
        let sys = &run[..3];
        let ns = span_ns(&format!("sched.run_workload.{run}"))
            + span_ns(&format!("sched.run_service.{run}"));
        run_ns += ns;
        pe_run_ns += ns * n_pes;
        let launch = n_pes * ledger.get(&format!("shmem.launch_us_per_pe.{w}")) / 1e6;
        launch_s += launch;
        // Ops that took the engine's mutex path are hand-offs; the rest
        // (windowed, or local to the issuer) take the un-gated path.
        let slow = at(run, "gated_ops") - at(run, "fast_ops");
        attributed_s += launch
            + slow * ledger.get(&format!("shmem.gated_op_us.{w}")) / 1e6
            + (at(run, "total_ops") - slow).max(0.0) * ledger.get("shmem.op_local_virtual_ns")
                / 1e9
            + at(run, "enqueued") * ledger.get(&format!("core.{sys}.push_pop_ns")) / 1e9
            + at(run, "releases") * ledger.get(&format!("core.{sys}.release_acquire_ns")) / 1e9
            + at(run, "tasks") * ledger.get("shmem.compute_ns") / 1e9
            + at(run, "sha1_calls") * ledger.get("workloads.sha1_child_ns") / 1e9;
    }
    // Exploration worlds report no op counts: only their launches are
    // attributable from outside.
    let explore_ns = trace::total_prefix_ns(spans, "check.live.explore.") as f64;
    run_ns += explore_ns + span_ns("check.live.mutant");
    attributed_s += f("live.pe_launches") * ledger.get("shmem.launch_us_per_pe.p2") / 1e6;

    let gated = sum("gated_ops");
    put("shmem.engine.gated_ops", gated);
    put("shmem.engine.windowed_share", ratio(sum("fast_ops"), gated));
    put(
        "shmem.engine.host_us_per_gated_op",
        ratio((run_ns / 1e3 - launch_s * 1e6).max(0.0), gated),
    );
    put(
        "shmem.engine.gate_wait_share",
        ratio(sum("gate_wait_ns"), pe_run_ns),
    );
    put("shmem.engine.sys_cpu_share", host.sys_cpu_share);
    put(
        "shmem.engine.cold_rep_ratio",
        ratio(host.cold_s, host.wall_median_s),
    );
    put(
        "shmem.engine.unpinned_wall_ratio",
        ratio(host.unpinned_s, host.wall_median_s),
    );

    let pe_time = sum("runtime_sum_ns");
    put("sched.tasks", sum("tasks"));
    put("sched.steals", sum("steals"));
    put("sched.steal_attempts", sum("steal_attempts"));
    put(
        "sched.steal_success_share",
        ratio(sum("steals"), sum("steal_attempts")),
    );
    put("sched.virt_task_share", ratio(sum("task_ns"), pe_time));
    put("sched.virt_steal_share", ratio(sum("steal_ns"), pe_time));
    put("sched.virt_search_share", ratio(sum("search_ns"), pe_time));
    for def in dict::PER_LAYER {
        let Some(rest) = def.name.strip_prefix("sched.service.") else {
            continue;
        };
        let (kind, run) = rest.split_once('.').unwrap_or((rest, ""));
        let v = match kind {
            "lat_mean_us" => ratio(at(run, "lat_sum_ns"), at(run, "lat_n")) / 1e3,
            "lat_p99_us" => at(run, "lat_p99_ns") / 1e3,
            // Rungs with p99 under the objective and nothing in flight
            // at shutdown: the "highest rate under the limit", coarse
            // by design (power-of-two latency buckets).
            _ => RUNGS
                .iter()
                .map(|gap| format!("{run}.gap{gap}"))
                .filter(|r| {
                    rep.fact(&format!("{r}.lat_n")) > 0
                        && rep.fact(&format!("{r}.lat_p99_ns")) <= SLO_P99_NS
                        && rep.fact(&format!("{r}.in_flight")) == 0
                })
                .count() as f64,
        };
        put(def.name, v);
    }

    let events = f("obs.proto_events");
    let stitched = f("obs.spans");
    let armed_ns = span_ns(&format!("sched.run_service.sws.gap{HEADLINE_RUNG}"));
    put(
        "obs.capture_wall_ratio",
        ratio(armed_ns / 1e9, host.disarmed_s),
    );
    put("obs.proto_events", events);
    put(
        "obs.merge_ns_per_event",
        ratio(span_ns("obs.merge"), events),
    );
    put(
        "obs.stitch_ns_per_event",
        ratio(span_ns("obs.stitch"), events),
    );
    put("obs.spans", stitched);
    put(
        "obs.span_complete_share",
        ratio(f("obs.spans_completed"), stitched - f("obs.spans_probe")),
    );
    put(
        "obs.check_comms_ns_per_span",
        ratio(span_ns("obs.check_comms"), stitched),
    );
    put(
        "check.conform.replay_ns_per_event",
        ratio(span_ns("check.conform.replay"), events),
    );
    put(
        "obs.perfetto_ns_per_event",
        ratio(span_ns("obs.perfetto"), events),
    );
    put("obs.perfetto_bytes", f("obs.perfetto_bytes"));
    put("obs.snap_rows", f("obs.snap_rows"));
    put(
        "obs.snap_render_ns_per_row",
        ratio(span_ns("obs.snap_render"), f("obs.snap_rows")),
    );
    put("obs.report_json_us", span_ns("obs.report_json") / 1e3);

    let schedules = f("live.schedules");
    put("check.live.schedules", schedules);
    put(
        "check.live.us_per_schedule",
        ratio(explore_ns / 1e3, schedules),
    );
    put("check.live.branches", f("live.branches"));
    put(
        "check.live.pruned_share",
        ratio(f("live.pruned"), f("live.pruned") + f("live.branches")),
    );
    put(
        "check.live.truncated_share",
        ratio(f("live.truncated"), schedules),
    );
    put(
        "check.live.mutant_schedules_to_catch",
        f("live.mutant_schedules"),
    );
    put(
        "check.live.mutant_catch_ms",
        span_ns("check.live.mutant") / 1e6,
    );
    put("check.live.replay_us", span_ns("check.live.replay") / 1e3);

    // The residual is printed, never hidden.
    put("ledger.attributed_share", ratio(attributed_s, run_ns / 1e9));
    put("ledger.unattributed_s", run_ns / 1e9 - attributed_s);
    put(
        "trace.overhead_share",
        ratio(host.traced_s - host.wall_median_s, host.wall_median_s),
    );
    out
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// `run --workload W`: measure in this process, print the table, the
/// detail line and — last — the contract line.
fn run_one(name: &str, args: &RunArgs) -> i32 {
    let outcome = match run_workload(name, args) {
        Ok(o) => o,
        Err(why) => {
            // Without a pin the host clock measures the OS scheduler:
            // report the host metrics as unresolved, not as numbers.
            println!("== {name}: {why}");
            for m in dict::END_TO_END {
                println!("   {:<44} unresolved", m.name);
            }
            return EXIT_UNRESOLVED;
        }
    };
    let (hw_threads, cpu) = outcome.shape;
    println!(
        "sws-perf {name}: seed {}, {} s, pinned to cpu {cpu} of {hw_threads} hw threads{}",
        args.seed,
        args.seconds,
        if args.quick {
            ", QUICK sizes (smoke run, not a measurement)"
        } else {
            ""
        }
    );
    print!("{}", outcome.result.table());
    if let Some(path) = &args.trace_out {
        if let Err(e) = write_file(path, &trace::chrome_trace(&outcome.spans)) {
            eprintln!("{e}");
            return 1;
        }
        println!("   trace: wrote {path} ({} spans)", outcome.spans.len());
    }
    println!("detail {}", outcome.result.detail_json());
    println!("{}", outcome.result.contract_line());
    i32::from(!outcome.result.correct)
}

/// `FILE.json` → `FILE.<workload>.json`: one trace per child process
/// (each has its own clock origin).
fn trace_path(base: &str, workload: &str) -> String {
    match base.strip_suffix(".json") {
        Some(stem) => format!("{stem}.{workload}.json"),
        None => format!("{base}.{workload}"),
    }
}

/// `run` without `--workload`: every workload in its own sequential
/// child process, so each is pinned afresh and `VmHWM` is its own.
fn run_all(args: &RunArgs) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return 1;
        }
    };
    let mut doc = RunDoc {
        machine: host::machine(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        workloads: Vec::new(),
    };
    let mut code = 0;
    for w in dict::WORKLOADS {
        let mut child = Process::new(&exe);
        child
            .args(["run", "--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if args.quick {
            child.arg("--quick");
        }
        if let Some(base) = &args.trace_out {
            child.args(["--trace-out", &trace_path(base, w.name)]);
        }
        // `output()` waits for the child to end.
        let output = match child.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: cannot start child: {e}", w.name);
                return 1;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        let mut detail = None;
        for line in text.lines() {
            match line.strip_prefix("detail ") {
                Some(json) => detail = Json::parse(json).ok(),
                // The contract line is for the driver; the table says it all.
                None if line.starts_with('{') => {}
                None => println!("{line}"),
            }
        }
        match detail.as_ref().map(WorkloadResult::from_detail) {
            Some(Ok(result)) => doc.workloads.push(result),
            _ => eprintln!("{}: child reported no result", w.name),
        }
        if !output.status.success() {
            code = output.status.code().unwrap_or(1);
        }
        if code == EXIT_UNRESOLVED {
            doc.machine.pinned_cpu = None;
        }
    }
    let m = &doc.machine;
    println!(
        "machine: {} hw threads, pinned cpu {}, kernel {}, {}, commit {}",
        m.hw_threads,
        m.pinned_cpu
            .map_or("unresolved".to_string(), |c| c.to_string()),
        m.kernel,
        m.rustc,
        m.commit
    );
    if let Some(path) = &args.out {
        if let Err(e) = write_file(path, &doc.render()) {
            eprintln!("{e}");
            return 1;
        }
        println!("wrote {path}");
    }
    code
}

/// Where `BENCHMARK.json` sits relative to this package.
const SPEC_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");

fn agree_cmd(a: &str, b: &str) -> Result<i32, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let spec = BenchSpec::parse(&read(SPEC_PATH)?)?;
    let (a, b) = (RunDoc::parse(&read(a)?)?, RunDoc::parse(&read(b)?)?);
    let cells = sws_perf::agree::agree(&spec, &a, &b);
    print!("{}", sws_perf::agree::render(&cells));
    Ok(i32::from(sws_perf::agree::any_regressed(&cells)))
}

/// Entry point: returns the process exit code.
pub fn main_with_args(args: &[String]) -> i32 {
    match cli::parse(args) {
        Ok(Command::Run(run)) => match run.workload.clone() {
            Some(name) => run_one(&name, &run),
            None => run_all(&run),
        },
        Ok(Command::Agree { a, b }) => agree_cmd(&a, &b).unwrap_or_else(|e| {
            eprintln!("{e}");
            2
        }),
        Ok(Command::Spec) => {
            print!("{}", dict::render_benchmark_json());
            0
        }
        Err(e) => {
            eprintln!("{e}\n{}", cli::USAGE);
            2
        }
    }
}
