//! The layer ledger: each layer's unit cost measured in isolation with
//! the calibrated best-of-N loop (the `benches/micro.rs` method), taken
//! once in the traced pass. Entry names are dictionary names.
//!
//! World-based entries time *inside* the PE closure, so world launch is
//! never part of a per-op figure; launch has its own entries.

use std::hint::black_box;
use std::time::Instant;

use sws_check::mem::OrdTable;
use sws_check::{all_scenarios, conform, explore, Config};
use sws_core::steal_half::volume;
use sws_core::stealval::{Gate, Layout, StealVal};
use sws_core::{QueueConfig, SdcQueue, StealOutcome, StealQueue, SwsQueue};
use sws_sched::QueueKind;
use sws_shmem::{run_world, ShmemCtx, WorldConfig};
use sws_task::TaskDescriptor;
use sws_workloads::arrivals::ArrivalPlan;
use sws_workloads::sha1::spawn_child;
use sws_workloads::synth::sized_task;
use sws_workloads::uts::UtsParams;

use super::tracer::{ns_per_iter, time_s, Effort, Tracer};
use super::workloads::Checks;

/// UTS record size, bytes (Table 2).
const TASK_BYTES: usize = 48;

/// Unit costs by dictionary name, plus the checks the ledger itself
/// makes (Table 1's op counts are exact, so they are assertions).
pub struct Ledger {
    pub entries: Vec<(&'static str, f64)>,
    pub checks: Checks,
}

impl Ledger {
    /// A unit cost by name (0 when not measured).
    pub fn get(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

fn queue_config() -> QueueConfig {
    QueueConfig::new(1024, TASK_BYTES)
}

fn heap_words(cfg: &QueueConfig) -> usize {
    cfg.buffer_words() + cfg.capacity + 8192
}

fn make_queue<'a>(kind: QueueKind, ctx: &'a ShmemCtx) -> Box<dyn StealQueue + 'a> {
    match kind {
        QueueKind::Sws => Box::new(SwsQueue::new(ctx, queue_config())),
        QueueKind::Sdc => Box::new(SdcQueue::new(ctx, queue_config())),
    }
}

/// Run `f` on PE 0 of a fresh 1-PE world and return its result.
fn on_one_pe<R: Send>(cfg: WorldConfig, f: impl Fn(&ShmemCtx) -> R + Sync) -> R {
    let mut out = run_world(cfg, f).expect("ledger world");
    out.results.remove(0)
}

fn pure_entries(effort: Effort, out: &mut Vec<(&'static str, f64)>) {
    let task = TaskDescriptor::new(3, &[0xABu8; 40]);
    let mut rec = vec![0u64; 6];
    out.push((
        "task.encode_ns",
        ns_per_iter(effort, || black_box(&task).encode(black_box(&mut rec))),
    ));
    out.push((
        "task.decode_ns",
        ns_per_iter(effort, || {
            black_box(TaskDescriptor::decode(black_box(&rec)));
        }),
    ));
    let state = [7u8; 20];
    out.push((
        "workloads.sha1_child_ns",
        ns_per_iter(effort, || {
            black_box(spawn_child(black_box(&state), black_box(3)));
        }),
    ));
    let sv = StealVal {
        asteals: 2,
        gate: Gate::Open { epoch: 1 },
        itasks: 150,
        tail: 500,
    };
    out.push((
        "core.stealval_codec_ns",
        ns_per_iter(effort, || {
            let raw = Layout::Epochs.encode(black_box(sv));
            black_box(Layout::Epochs.decode(black_box(raw)));
        }),
    ));
    out.push((
        "core.steal_half_ns",
        ns_per_iter(effort, || {
            black_box(volume(black_box(150), black_box(2)));
        }),
    ));
}

fn workload_entries(quick: bool, out: &mut Vec<(&'static str, f64)>) {
    // Single-thread traversal baseline: the plain sequential program
    // the parallel runs are measured against.
    let params = UtsParams::geo_small(if quick { 6 } else { 10 });
    let (s, stats) = time_s(|| params.sequential_count());
    out.push((
        "workloads.uts_seq_node_ns",
        s * 1e9 / stats.nodes.max(1) as f64,
    ));

    let horizon_ns = if quick { 200_000 } else { 20_000_000 };
    let (s, n) = time_s(|| {
        let mut clock = ArrivalPlan::poisson(0xA881, 1000, horizon_ns).clock(0);
        let mut n = 0u64;
        while clock.take().is_some() {
            n += 1;
        }
        n
    });
    out.push(("workloads.arrivals_gen_ns", s * 1e9 / n.max(1) as f64));
}

/// Owner-side queue costs in a 1-PE virtual world: every op takes the
/// un-gated path, as on `uts-local`.
fn owner_entries(kind: QueueKind, effort: Effort, checks: &mut Checks) -> (f64, f64) {
    let world = WorldConfig::virtual_time(1, heap_words(&queue_config()));
    let (push_pop, cycle, releases, cycles) = on_one_pe(world, |ctx| {
        let mut q = make_queue(kind, ctx);
        let task = sized_task(7, TASK_BYTES);
        let push_pop = ns_per_iter(effort, || {
            q.enqueue(black_box(&task));
            black_box(q.pop_local());
        });
        // One release/acquire cycle: expose half of two tasks, drain the
        // local half, take the shared half back, drain it.
        let before = q.stats().releases;
        let mut cycles = 0u64;
        let cycle = ns_per_iter(effort, || {
            cycles += 1;
            q.enqueue(&task);
            q.enqueue(&task);
            q.release();
            while q.pop_local().is_some() {}
            while q.acquire() {
                while q.pop_local().is_some() {}
            }
        });
        (push_pop, cycle, q.stats().releases - before, cycles)
    });
    checks.eq(
        "ledger: every release/acquire cycle released",
        releases,
        cycles,
    );
    (push_pop, (cycle - 2.0 * push_pop).max(0.0))
}

/// What one successful steal costs the thief.
struct StealCost {
    host_ns: f64,
    virt_ns: f64,
    ops: f64,
    blocking: f64,
    probe_host_ns: f64,
}

/// `rounds` single-task steals in a 2-PE world: PE 0 advertises two
/// tasks, PE 1's steal-half claims one, PE 0 takes the rest back. Only
/// the thief's `steal_from` call is timed (host clock, virtual clock and
/// `OpStats::since`); PE 0 waits in a barrier meanwhile.
fn steal_rounds(world: WorldConfig, kind: QueueKind, rounds: u64, effort: Effort) -> StealCost {
    let out = run_world(world, |ctx| {
        let mut q = make_queue(kind, ctx);
        let task = sized_task(9, TASK_BYTES);
        let (mut host_ns, mut virt_ns, mut ops, mut blocking) = (0u128, 0u64, 0u64, 0u64);
        for _ in 0..rounds {
            if ctx.my_pe() == 0 {
                for _ in 0..4 {
                    assert!(q.enqueue(&task));
                }
                assert!(q.release(), "advertise two so the steal takes one");
            }
            ctx.barrier_all();
            if ctx.my_pe() == 1 {
                let (s0, v0, t0) = (ctx.stats(), ctx.now_ns(), Instant::now());
                let outcome = q.steal_from(0);
                host_ns += t0.elapsed().as_nanos();
                virt_ns += ctx.now_ns() - v0;
                let d = ctx.stats().since(&s0);
                ops += d.total_ops();
                blocking += d.blocking_ops();
                assert_eq!(outcome, StealOutcome::Got { tasks: 1 });
                while q.pop_local().is_some() {}
            }
            ctx.barrier_all();
            if ctx.my_pe() == 0 {
                while q.pop_local().is_some() {}
                while q.acquire() {
                    while q.pop_local().is_some() {}
                }
                q.progress();
            }
            ctx.barrier_all();
        }
        let probe = if ctx.my_pe() == 1 {
            ns_per_iter(effort, || {
                black_box(q.probe(0));
            })
        } else {
            0.0
        };
        ctx.barrier_all();
        q.flush_completions();
        let n = rounds as f64;
        StealCost {
            host_ns: host_ns as f64 / n,
            virt_ns: virt_ns as f64 / n,
            ops: ops as f64 / n,
            blocking: blocking as f64 / n,
            probe_host_ns: probe,
        }
    })
    .expect("steal world");
    out.results.into_iter().nth(1).expect("thief result")
}

/// Best of `tries` barrier-only worlds: what launching and tearing
/// down `n_pes` PEs costs, seconds.
fn launch_s(n_pes: usize, tries: u32) -> f64 {
    (0..tries)
        .map(|_| {
            time_s(|| {
                run_world(WorldConfig::virtual_time(n_pes, 1 << 10), |ctx| {
                    ctx.barrier_all()
                })
                .expect("launch world")
            })
            .0
        })
        .fold(f64::INFINITY, f64::min)
}

/// Host µs per gated op with all `n_pes` PEs issuing remote fetch-adds
/// in min-clock order (every op a hand-off), launch probe subtracted.
fn gated_op_us(n_pes: usize, ops_per_pe: u64, launch_s: f64, tries: u32) -> f64 {
    let best = (0..tries)
        .map(|_| {
            time_s(|| {
                run_world(WorldConfig::virtual_time(n_pes, 1 << 10), |ctx| {
                    let word = ctx.alloc_words(1);
                    ctx.barrier_all();
                    let peer = (ctx.my_pe() + 1) % ctx.n_pes();
                    for _ in 0..ops_per_pe {
                        ctx.atomic_fetch_add(peer, word, 1);
                    }
                    ctx.barrier_all();
                })
                .expect("gated world")
            })
            .0
        })
        .fold(f64::INFINITY, f64::min);
    (best - launch_s).max(0.0) * 1e6 / (n_pes as u64 * ops_per_pe) as f64
}

/// Measure every ledger entry. Each group is a span of the traced pass.
pub fn measure(quick: bool, tr: &mut Tracer) -> Ledger {
    let effort = if quick { Effort::QUICK } else { Effort::FULL };
    let tries = if quick { 1 } else { 3 };
    let mut entries = Vec::new();
    let mut checks = Checks::default();

    tr.scope("ledger.pure", |_| pure_entries(effort, &mut entries));
    tr.scope("ledger.workloads", |_| {
        workload_entries(quick, &mut entries)
    });

    tr.scope("ledger.core", |_| {
        let rounds = if quick { 8 } else { 200 };
        for (kind, names) in [
            (
                QueueKind::Sws,
                [
                    "core.sws.push_pop_ns",
                    "core.sws.release_acquire_ns",
                    "core.sws.steal_host_ns",
                    "core.sws.steal_virt_ns",
                    "core.sws.ops_per_steal",
                    "core.sws.blocking_per_steal",
                    "core.sws.steal_threaded_ns",
                ],
            ),
            (
                QueueKind::Sdc,
                [
                    "core.sdc.push_pop_ns",
                    "core.sdc.release_acquire_ns",
                    "core.sdc.steal_host_ns",
                    "core.sdc.steal_virt_ns",
                    "core.sdc.ops_per_steal",
                    "core.sdc.blocking_per_steal",
                    "core.sdc.steal_threaded_ns",
                ],
            ),
        ] {
            let (push_pop, release_acquire) = owner_entries(kind, effort, &mut checks);
            let heap = heap_words(&queue_config());
            let virt = steal_rounds(WorldConfig::virtual_time(2, heap), kind, rounds, effort);
            // Two real threads on the pinned CPU: the plain-threads arm
            // of the op layer, not a multi-core claim.
            let threaded = steal_rounds(WorldConfig::threaded(2, heap), kind, rounds, effort);
            let values = [
                push_pop,
                release_acquire,
                virt.host_ns,
                virt.virt_ns,
                virt.ops,
                virt.blocking,
                threaded.host_ns,
            ];
            entries.extend(names.into_iter().zip(values));
            if kind == QueueKind::Sws {
                entries.push(("core.sws.probe_host_ns", virt.probe_host_ns));
            }
            // Paper Table 1: SWS steals in 3 ops (2 blocking), SDC in 6 (5).
            let (want_ops, want_blocking) = match kind {
                QueueKind::Sws => (3.0, 2.0),
                QueueKind::Sdc => (6.0, 5.0),
            };
            checks.check(
                virt.ops == want_ops && virt.blocking == want_blocking,
                || {
                    format!(
                    "{kind:?}: {} ops / {} blocking per steal, want {want_ops} / {want_blocking}",
                    virt.ops, virt.blocking
                )
                },
            );
        }
    });

    tr.scope("ledger.shmem", |_| {
        let op = |world: WorldConfig| {
            on_one_pe(world, |ctx| {
                let word = ctx.alloc_words(1);
                ns_per_iter(effort, || {
                    black_box(ctx.atomic_fetch_add(0, word, 1));
                })
            })
        };
        entries.push((
            "shmem.op_local_virtual_ns",
            op(WorldConfig::virtual_time(1, 1 << 10)),
        ));
        entries.push((
            "shmem.op_threaded_ns",
            op(WorldConfig::threaded(1, 1 << 10)),
        ));
        entries.push((
            "shmem.compute_ns",
            on_one_pe(WorldConfig::virtual_time(1, 1 << 10), |ctx| {
                ns_per_iter(effort, || ctx.compute(black_box(100)))
            }),
        ));
        let scale = if quick { 20 } else { 1 };
        for (n_pes, ops_per_pe, launch_name, gated_name) in [
            (
                2,
                4000 / scale,
                "shmem.launch_us_per_pe.p2",
                "shmem.gated_op_us.p2",
            ),
            (
                64,
                400 / scale,
                "shmem.launch_us_per_pe.p64",
                "shmem.gated_op_us.p64",
            ),
            (
                512,
                80 / scale,
                "shmem.launch_us_per_pe.p512",
                "shmem.gated_op_us.p512",
            ),
        ] {
            let launch = launch_s(n_pes, tries);
            entries.push((launch_name, launch * 1e6 / n_pes as f64));
            entries.push((gated_name, gated_op_us(n_pes, ops_per_pe, launch, tries)));
        }
    });

    tr.scope("ledger.check", |_| {
        let (s, clean) = time_s(|| {
            let cfg = Config {
                preemptions: if quick { 1 } else { 2 },
                ..Config::default()
            };
            all_scenarios(&OrdTable::production(), true)
                .iter()
                .all(|w| explore(w, &cfg).is_ok())
        });
        checks.check(clean, || "abstract model check found a violation".into());
        entries.push(("check.model.ms", s * 1e3));
        let (s, report) = time_s(conform::conform_all);
        checks.check(report.ok(), || "conformance matrix diverged".into());
        entries.push(("check.conform.matrix_ms", s * 1e3));
    });

    Ledger { entries, checks }
}
