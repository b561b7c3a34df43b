//! The paper's evaluation (§5) as committed outputs.
//!
//! [`tables`] regenerates every table the repository reproduces (DESIGN.md
//! §4): Table 2, Fig. 6, and the PE sweeps of [`FIGURES`] — Figs. 7 and 8
//! (panels a–f plus dissemination) and four ablations. A sweep figure
//! names its workload, the variants it compares and how its rows read the
//! runs; [`runs`] is the one run path, with fixed seeds, over `PES` ×
//! variant × `RUNS`. Every number is virtual time, so the output is a
//! pure function of the code: `cargo bench -p sws-bench --bench paper`
//! rewrites `figures/*.csv`, and a nonempty `git diff` of that directory
//! is a behaviour change.

use sws_core::steal_half::StealPolicy;
use sws_core::stealval::Layout;
use sws_core::{QueueConfig, SdcQueue, StealOutcome, StealQueue, SwsQueue};
use sws_sched::{run_workload, QueueKind, RunConfig, RunReport, SchedConfig, VictimPolicy};
use sws_shmem::{run_world, NetModel, OpKind, ShmemCtx, WorldConfig};
use sws_workloads::bpc::{BpcParams, BpcWorkload};
use sws_workloads::synth::sized_task;
use sws_workloads::uts::{UtsParams, UtsWorkload};

/// PE counts every sweep figure runs.
const PES: [usize; 8] = [2, 4, 8, 16, 32, 64, 128, 256];
/// Runs per (width, variant) point; run `r` is seeded `seed + 7919·r`.
const RUNS: usize = 3;
/// The golden files: one CSV per [`Table`], named after it.
pub const FIGURES_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/figures");
/// PEs per node of the locality ablation's network.
const NODE: usize = 8;

/// One printed table. Cells are formatted once, so its CSV (the golden
/// file) and its markdown (what EXPERIMENTS.md quotes) carry the same
/// digits.
pub struct Table {
    /// File stem under [`FIGURES_DIR`] and EXPERIMENTS.md's marker name.
    pub name: String,
    /// What the table shows (the markdown heading).
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Formatted cells, one `Vec` per row.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    fn new(name: &str, title: &str, header: &str) -> Table {
        let header = header.split(',').map(String::from).collect();
        Table {
            name: name.into(),
            title: title.into(),
            header,
            rows: Vec::new(),
        }
    }

    /// The golden file: header and rows, comma-separated.
    pub fn csv(&self) -> String {
        let mut out = String::new();
        for row in std::iter::once(&self.header).chain(&self.rows) {
            let comma = row.iter().any(|c| c.contains(','));
            assert!(!comma, "{}: a cell holds a comma", self.name);
            out += &row.join(",");
            out.push('\n');
        }
        out
    }

    /// The same rows as a markdown table.
    pub fn markdown(&self) -> String {
        let line = |row: &[String]| format!("| {} |\n", row.join(" | "));
        let mut out = line(&self.header) + &format!("|{}\n", "---|".repeat(self.header.len()));
        for row in &self.rows {
            out += &line(row);
        }
        out
    }
}

/// Format ns as ms.
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Every table, in the order the `paper` bench prints them.
pub fn tables() -> impl Iterator<Item = Table> {
    std::iter::once_with(table2)
        .chain(std::iter::once_with(fig6))
        .chain(FIGURES.iter().flat_map(|fig| sweep(fig, &PES)))
}

// ---------------------------------------------------------------------
// Table 2 and Fig. 6: no PE sweep
// ---------------------------------------------------------------------

/// The scaled BPC configuration Fig. 7 runs: 48 producers × 128 consumers.
fn bpc() -> BpcParams {
    BpcParams::scaled(128, 48)
}

/// Table 2: workload characteristics, the paper's configurations (not
/// executed: BPC is closed-form, T1WL's count is the paper's) beside the
/// scaled ones the sweeps run.
fn table2() -> Table {
    let header = "benchmark,total tasks,avg task time (ms),task size (B),source";
    let mut t = Table::new("table2", "Table 2, workload characteristics", header);
    let bpc_cols = |p: BpcParams| (p.total_tasks(), f(p.avg_task_ns() / 1e6, 2), "32");
    let uts_cols = |depth| {
        let p = UtsParams::geo_small(depth);
        let task_ms = f(p.node_ns as f64 / 1e6, 5);
        (p.sequential_count().nodes, task_ms, "48")
    };
    let t1wl = (270_751_679_750, f(0.00011, 5), "48");
    let rows = [
        ("BPC (paper)", bpc_cols(BpcParams::paper()), "paper §5.2.1"),
        ("UTS (paper T1WL)", t1wl, "paper Table 2"),
        ("BPC (scaled)", bpc_cols(bpc()), "Fig. 7"),
        ("UTS (scaled d=10)", uts_cols(10), "not swept"),
        ("UTS (scaled d=11)", uts_cols(11), "ablations"),
        ("UTS (scaled d=12)", uts_cols(12), "Fig. 8"),
        ("UTS (scaled d=14)", uts_cols(14), "not swept"),
    ];
    for (name, (tasks, task_ms, bytes), source) in rows {
        let cells = [name, &tasks.to_string(), &task_ms, bytes, source];
        t.rows.push(cells.map(String::from).to_vec());
    }
    t
}

/// Fig. 6: the virtual cost of one steal of volume 1 … 16384, SDC vs SWS,
/// 24- and 192-byte tasks. Two PEs; PE 0 advertises `2·vol` tasks so PE 1's
/// steal-half takes exactly `vol`. One world per point: nothing to average.
pub fn fig6() -> Table {
    let header = "volume,SDC24(µs),SWS24(µs),ratio,SDC192(µs),SWS192(µs),ratio";
    let mut t = Table::new(
        "fig6",
        "Fig. 6, steal operation time vs steal volume, µs",
        header,
    );
    for vol in (0..15).map(|i| 1usize << i) {
        let mut row = vec![vol.to_string()];
        for bytes in [24, 192] {
            let sdc = steal_cost_ns(QueueKind::Sdc, bytes, vol) as f64;
            let sws = steal_cost_ns(QueueKind::Sws, bytes, vol) as f64;
            row.extend([f(sdc / 1e3, 2), f(sws / 1e3, 2), f(sdc / sws, 2)]);
        }
        t.rows.push(row);
    }
    t
}

fn steal_cost_ns(kind: QueueKind, task_bytes: usize, vol: usize) -> u64 {
    let capacity = (4 * vol + 4).next_power_of_two().max(64);
    let cfg = QueueConfig::new(capacity, task_bytes);
    let heap = cfg.buffer_words() + cfg.capacity + 8192;
    let out = run_world(WorldConfig::virtual_time(2, heap), |ctx| {
        let mut q: Box<dyn StealQueue + '_> = match kind {
            QueueKind::Sdc => Box::new(SdcQueue::new(ctx, cfg)),
            QueueKind::Sws => Box::new(SwsQueue::new(ctx, cfg)),
        };
        one_steal(ctx, q.as_mut(), task_bytes, vol)
    })
    .expect("fig6 world");
    out.results[1]
}

fn one_steal(ctx: &ShmemCtx, q: &mut dyn StealQueue, task_bytes: usize, vol: usize) -> u64 {
    if ctx.my_pe() == 0 {
        // Release exposes half the local portion, and the first steal
        // takes half of that: enqueue 4·vol ⇒ advertise 2·vol ⇒ steal vol.
        for i in 0..(4 * vol) as u64 {
            assert!(q.enqueue(&sized_task(i, task_bytes)));
        }
        assert!(q.release(), "advertise 2·vol so the first steal takes vol");
    }
    ctx.barrier_all();
    let mut cost = 0;
    if ctx.my_pe() == 1 {
        let t0 = ctx.now_ns();
        match q.steal_from(0) {
            StealOutcome::Got { tasks } => assert_eq!(tasks as usize, vol, "steal-half of 2·vol"),
            other => panic!("expected a successful steal, got {other:?}"),
        }
        cost = ctx.now_ns() - t0;
    }
    ctx.barrier_all();
    cost
}

// ---------------------------------------------------------------------
// PE sweeps
// ---------------------------------------------------------------------

/// What a sweep figure runs.
#[derive(Clone, Copy)]
pub enum Work {
    /// The geometric UTS tree at this depth limit.
    Uts(u32),
    /// The scaled BPC configuration (Table 2's "BPC (scaled)").
    Bpc,
}

impl Work {
    fn run(self, cfg: &RunConfig) -> RunReport {
        match self {
            Work::Uts(depth) => run_workload(cfg, &UtsWorkload::new(UtsParams::geo_small(depth))),
            Work::Bpc => run_workload(cfg, &BpcWorkload::new(bpc())),
        }
    }

    /// Tasks every run must execute.
    fn tasks(self) -> u64 {
        match self {
            Work::Uts(depth) => UtsParams::geo_small(depth).sequential_count().nodes,
            Work::Bpc => bpc().total_tasks(),
        }
    }
}

/// A compared configuration: its label and the scheduler it builds from
/// the figure's queue.
pub type Variant = (&'static str, fn(QueueConfig) -> SchedConfig);

/// How a table reads the runs at one width.
pub enum Rows {
    /// One row per width, `PEs` then `f(SDC, SWS)` over [`summarize`]d
    /// runs (Figs. 7 and 8, whose variants are the two systems).
    Cells(fn(&Cell, &Cell) -> Vec<String>),
    /// One row per variant, `PEs`, its label, then `f(its runs)`.
    Variants(fn(&[RunReport]) -> Vec<String>),
}

/// One table of a sweep figure.
pub struct Spec {
    /// Appended to the figure's name.
    pub suffix: &'static str,
    /// Appended to the figure's title.
    pub title: &'static str,
    /// Column names, comma-separated, `PEs` first.
    pub header: &'static str,
    /// How each width's runs become rows.
    pub rows: Rows,
}

/// A PE-sweep figure: `PES` × `variants` × `RUNS`.
pub struct Figure {
    /// Name of its tables and files.
    pub name: &'static str,
    /// What it runs, for the tables' titles.
    pub title: &'static str,
    /// Seed of run 0.
    pub seed: u64,
    /// Queue capacity and task bytes.
    pub queue: (usize, usize),
    /// The workload.
    pub work: Work,
    /// The configurations it compares.
    pub variants: &'static [Variant],
    /// PEs per node of a topology-aware network, whose sweep skips the
    /// widths within one node; 0 is the flat network.
    pub node: usize,
    /// The tables it prints.
    pub tables: &'static [Spec],
}

fn sws(q: QueueConfig) -> SchedConfig {
    SchedConfig::new(QueueKind::Sws, q)
}

/// The two systems, Figs. 7 and 8's variants.
const SYSTEMS: &[Variant] = &[
    ("SDC", |q| SchedConfig::new(QueueKind::Sdc, q)),
    ("SWS", sws),
];

/// Σ ms(v) / runs, summed in run order.
fn mean_ms(rs: &[RunReport], v: fn(&RunReport) -> u64) -> String {
    f(rs.iter().map(|r| ms(v(r)) / rs.len() as f64).sum(), 3)
}

/// Σ v / runs, truncated.
fn mean_count(rs: &[RunReport], v: fn(&RunReport) -> u64) -> String {
    (rs.iter().map(v).sum::<u64>() / rs.len() as u64).to_string()
}

fn queue_sum(r: &RunReport, v: fn(&sws_core::QueueStats) -> u64) -> u64 {
    r.workers.iter().map(|w| v(&w.queue)).sum()
}

/// SDC and SWS in ms, and SDC / SWS.
fn ms_ratio(sdc: f64, sws: f64) -> Vec<String> {
    vec![f(sdc / 1e6, 3), f(sws / 1e6, 3), f(sdc / sws.max(1.0), 2)]
}

#[rustfmt::skip]
const PANELS: &[Spec] = &[
    Spec {
        suffix: "a",
        title: "(a) performance, tasks per second",
        header: "PEs,SDC,SWS",
        rows: Rows::Cells(|s, w| vec![f(s.throughput, 0), f(w.throughput, 0)]),
    },
    Spec {
        suffix: "b",
        title: "(b) relative runtime, SDC/SWS × 100 % (> 100: SWS faster)",
        header: "PEs,SDC/SWS %",
        rows: Rows::Cells(|s, w| vec![f(100.0 * s.makespan_ns / w.makespan_ns, 1)]),
    },
    Spec {
        suffix: "c",
        title: "(c) parallel efficiency relative to ideal execution, %",
        header: "PEs,SDC,SWS",
        rows: Rows::Cells(|s, w| vec![f(100.0 * s.efficiency, 1), f(100.0 * w.efficiency, 1)]),
    },
    Spec {
        suffix: "d",
        title: "(d) variation across runs, SD and range as % of mean runtime",
        header: "PEs,SDC-SD%,SWS-SD%,SDC-Range%,SWS-Range%",
        rows: Rows::Cells(|s, w| [s.sd_pct, w.sd_pct, s.range_pct, w.range_pct].map(|x| f(x, 3)).to_vec()),
    },
    Spec {
        suffix: "e",
        title: "(e) total steal operation time, ms",
        header: "PEs,SDC,SWS,ratio",
        rows: Rows::Cells(|s, w| ms_ratio(s.steal_ns, w.steal_ns)),
    },
    Spec {
        suffix: "f",
        title: "(f) total search time, ms",
        header: "PEs,SDC,SWS,ratio",
        rows: Rows::Cells(|s, w| ms_ratio(s.search_ns, w.search_ns)),
    },
    Spec {
        suffix: "_dissemination",
        title: "dissemination, ms until the last PE first obtained work (the abstract's task acquisition time)",
        header: "PEs,SDC,SWS,ratio",
        rows: Rows::Cells(|s, w| ms_ratio(s.dissemination_ns, w.dissemination_ns)),
    },
];

/// Every sweep figure, in print order.
#[rustfmt::skip]
pub static FIGURES: [Figure; 6] = [
    Figure {
        name: "fig7",
        title: "Fig. 7, BPC (48 producers × 128 consumers, 0.5 ms consumers)",
        seed: 0xBA5E,
        queue: (8192, 32),
        work: Work::Bpc,
        variants: SYSTEMS,
        node: 0,
        tables: PANELS,
    },
    Figure {
        name: "fig8",
        title: "Fig. 8, UTS (geometric tree, depth 12)",
        seed: 0xBA5E,
        queue: (16384, 48),
        work: Work::Uts(12),
        variants: SYSTEMS,
        node: 0,
        tables: PANELS,
    },
    Figure {
        name: "ablation_epochs",
        title: "§4.2 ablation, SWS on UTS depth 11",
        seed: 0xE0C4,
        queue: (16384, 48),
        work: Work::Uts(11),
        variants: &[
            ("epochs", |q| sws(q.with_layout(Layout::Epochs))),
            ("validbit", |q| sws(q.with_layout(Layout::ValidBit))),
        ],
        node: 0,
        tables: &[Spec {
            suffix: "",
            title: "completion epochs vs the single-epoch layout (Fig. 3)",
            header: "PEs,layout,makespan(ms),owner polls,acquires,releases",
            rows: Rows::Variants(|rs| {
                let polls = mean_count(rs, |r| queue_sum(r, |q| q.owner_polls));
                let acquires = mean_count(rs, |r| queue_sum(r, |q| q.acquires));
                vec![mean_ms(rs, |r| r.makespan_ns), polls, acquires, mean_count(rs, |r| queue_sum(r, |q| q.releases))]
            }),
        }],
    },
    Figure {
        name: "ablation_damping",
        title: "§4.3 ablation, SWS on UTS depth 11",
        seed: 0xDA3B,
        queue: (16384, 48),
        work: Work::Uts(11),
        variants: &[("on", |q| sws(q).with_damping(true)), ("off", |q| sws(q).with_damping(false))],
        node: 0,
        tables: &[Spec {
            suffix: "",
            title: "steal damping on vs off",
            header: "PEs,damping,makespan(ms),claim fadds,probe fetches,empty steals",
            rows: Rows::Variants(|rs| {
                let fadds = mean_count(rs, |r| r.total_comm().count(OpKind::AtomicFetchAdd));
                let fetches = mean_count(rs, |r| r.total_comm().count(OpKind::AtomicFetch));
                vec![mean_ms(rs, |r| r.makespan_ns), fadds, fetches, mean_count(rs, |r| queue_sum(r, |q| q.steals_empty))]
            }),
        }],
    },
    Figure {
        name: "ablation_policy",
        title: "steal-policy extension, SWS on UTS depth 11",
        seed: 0x11CE,
        queue: (16384, 48),
        work: Work::Uts(11),
        variants: &[
            ("half", |q| sws(q.with_policy(StealPolicy::Half))),
            ("quarter", |q| sws(q.with_policy(StealPolicy::Quarter))),
            ("one", |q| sws(q.with_policy(StealPolicy::One))),
        ],
        node: 0,
        tables: &[Spec {
            suffix: "",
            title: "steal half vs a quarter vs one",
            header: "PEs,policy,makespan(ms),steals,steal(ms),search(ms)",
            rows: Rows::Variants(|rs| {
                // Truncates each run's share, unlike `mean_count`: the golden digits depend on it.
                let steals: u64 = rs.iter().map(|r| r.total_steals() / rs.len() as u64).sum();
                let steal_ms = mean_ms(rs, |r| r.total_steal_ns());
                vec![mean_ms(rs, |r| r.makespan_ns), steals.to_string(), steal_ms, mean_ms(rs, |r| r.total_search_ns())]
            }),
        }],
    },
    Figure {
        name: "ablation_locality",
        title: "locality extension, SWS on UTS depth 11, 8 PEs a node (400 ns intra vs 1500 ns fabric)",
        seed: 0x10CA,
        queue: (16384, 48),
        work: Work::Uts(11),
        variants: &[
            ("uniform", |q| sws(q).with_victim(VictimPolicy::Uniform)),
            ("local80", |q| sws(q).with_victim(VictimPolicy::Hierarchical { node_size: NODE, local_pct: 80 })),
        ],
        node: NODE,
        tables: &[Spec {
            suffix: "",
            title: "uniform vs same-node-preferring victims",
            header: "PEs,victims,makespan(ms),steal(ms)",
            rows: Rows::Variants(|rs| vec![mean_ms(rs, |r| r.makespan_ns), mean_ms(rs, |r| r.total_steal_ns())]),
        }],
    },
];

/// The one run path: `RUNS` runs of `variant` on `pes` PEs. `armed`
/// adds event tracing and protocol capture, which must not move a digit.
pub fn runs(fig: &Figure, variant: &Variant, pes: usize, armed: bool) -> Vec<RunReport> {
    (0..RUNS as u64)
        .map(|r| {
            let queue = QueueConfig::new(fig.queue.0, fig.queue.1);
            let mut sched = (variant.1)(queue).with_seed(fig.seed + r * 7919);
            sched.trace = armed;
            let mut cfg = RunConfig::new(pes, sched);
            cfg.capture_proto = armed;
            if fig.node > 0 {
                cfg.net = NetModel::edr_infiniband_nodes(fig.node);
            }
            fig.work.run(&cfg)
        })
        .collect()
}

/// Run `fig` at each of `pes` (past one node, for a topology figure) and
/// render its tables.
pub fn sweep(fig: &Figure, pes: &[usize]) -> Vec<Table> {
    let tasks = fig.work.tasks();
    let mut out: Vec<Table> = fig
        .tables
        .iter()
        .map(|s| {
            Table::new(
                &format!("{}{}", fig.name, s.suffix),
                &format!("{}: {}", fig.title, s.title),
                s.header,
            )
        })
        .collect();
    for &p in pes.iter().filter(|&&p| p > fig.node) {
        let reports: Vec<Vec<RunReport>> = fig
            .variants
            .iter()
            .map(|v| runs(fig, v, p, false))
            .collect();
        let lost = reports.iter().flatten().any(|r| r.total_tasks() != tasks);
        assert!(
            !lost,
            "{}: a run at {p} PEs did not execute {tasks} tasks",
            fig.name
        );
        for (t, spec) in out.iter_mut().zip(fig.tables) {
            match spec.rows {
                Rows::Cells(row) => {
                    let (sdc, sws) = (summarize(&reports[0]), summarize(&reports[1]));
                    t.rows.push([vec![p.to_string()], row(&sdc, &sws)].concat());
                }
                Rows::Variants(row) => {
                    for ((label, _), rs) in fig.variants.iter().zip(&reports) {
                        t.rows
                            .push([vec![p.to_string(), label.to_string()], row(rs)].concat());
                    }
                }
            }
        }
    }
    out
}

/// Aggregates over the runs of one (system, PE count) point of Figs. 7
/// and 8.
#[derive(Debug, PartialEq)]
pub struct Cell {
    /// Mean makespan, ns.
    pub makespan_ns: f64,
    /// Population SD of makespans as % of the mean (panel d).
    pub sd_pct: f64,
    /// (max−min) range as % of the mean (panel d).
    pub range_pct: f64,
    /// Mean throughput, tasks/s (panel a).
    pub throughput: f64,
    /// Mean parallel efficiency (panel c).
    pub efficiency: f64,
    /// Mean total steal time, ns (panel e).
    pub steal_ns: f64,
    /// Mean total search time, ns (panel f).
    pub search_ns: f64,
    /// Mean dissemination time, ns: virtual time until the *last* PE
    /// first obtained work (the abstract's "task acquisition time").
    pub dissemination_ns: f64,
}

/// Summarize a series of runs of one configuration.
pub fn summarize(reports: &[RunReport]) -> Cell {
    let n = reports.len() as f64;
    let mean = |v: fn(&RunReport) -> f64| reports.iter().map(v).sum::<f64>() / n;
    let makespan = mean(|r| r.makespan_ns as f64);
    let makespans = reports.iter().map(|r| r.makespan_ns as f64);
    let var = makespans
        .clone()
        .map(|x| (x - makespan) * (x - makespan))
        .sum::<f64>()
        / n;
    let min = makespans.clone().fold(f64::MAX, f64::min);
    let max = makespans.fold(0.0, f64::max);
    Cell {
        makespan_ns: makespan,
        sd_pct: 100.0 * var.sqrt() / makespan,
        range_pct: 100.0 * (max - min) / makespan,
        throughput: mean(|r| r.throughput_per_s()),
        efficiency: mean(|r| r.parallel_efficiency()),
        steal_ns: mean(|r| r.total_steal_ns() as f64),
        search_ns: mean(|r| r.total_search_ns() as f64),
        dissemination_ns: mean(|r| {
            r.workers.iter().map(|w| w.first_work_ns).max().unwrap_or(0) as f64
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_converts() {
        assert_eq!(ms(1_500_000), 1.5);
    }
}
