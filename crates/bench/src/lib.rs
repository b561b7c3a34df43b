//! Shared plumbing for the experiment harnesses in `benches/`.
//!
//! Every bench target regenerates one table or figure of the paper (see
//! DESIGN.md §4 for the index) and prints the same rows/series the paper
//! reports. Sweeps are configurable through environment variables:
//!
//! * `SWS_PES`   — comma-separated PE counts (default `2,4,8,16,32,64`)
//! * `SWS_RUNS`  — runs per configuration for variation studies (default 3)
//! * `SWS_SCALE` — workload scale factor (default 1)

use sws_core::QueueConfig;
use sws_sched::{QueueKind, RunConfig, RunReport, SchedConfig, Workload};
use sws_shmem::EngineStats;

/// PE counts to sweep (env `SWS_PES`).
pub fn pe_sweep() -> Vec<usize> {
    match std::env::var("SWS_PES") {
        Ok(s) => s
            .split(',')
            .map(|x| x.trim().parse().expect("SWS_PES must be integers"))
            .collect(),
        Err(_) => vec![2, 4, 8, 16, 32, 64],
    }
}

/// Runs per configuration (env `SWS_RUNS`).
pub fn runs_per_config() -> usize {
    std::env::var("SWS_RUNS")
        .ok()
        .map(|s| s.parse().expect("SWS_RUNS must be an integer"))
        .unwrap_or(3)
}

/// Workload scale factor (env `SWS_SCALE`).
pub fn scale() -> f64 {
    std::env::var("SWS_SCALE")
        .ok()
        .map(|s| s.parse().expect("SWS_SCALE must be a number"))
        .unwrap_or(1.0)
}

/// Run a workload `runs` times on `n_pes` PEs under `kind` with distinct
/// seeds, returning the reports.
pub fn run_series<W: Workload>(
    kind: QueueKind,
    n_pes: usize,
    queue: QueueConfig,
    runs: usize,
    mut workload_for: impl FnMut(u64) -> W,
) -> Vec<RunReport> {
    (0..runs)
        .map(|r| {
            let sched = SchedConfig::new(kind, queue).with_seed(0xBA5E + r as u64 * 7919);
            let cfg = RunConfig::new(n_pes, sched);
            sws_sched::run_workload(&cfg, &workload_for(r as u64))
        })
        .collect()
}

/// As [`run_series`], but with the full telemetry stack armed: event
/// tracing on and per-op protocol capture enabled. Used by the
/// armed-vs-disarmed differential suite to prove telemetry is pure
/// observation — the figure CSVs must come out byte-identical.
pub fn run_series_instrumented<W: Workload>(
    kind: QueueKind,
    n_pes: usize,
    queue: QueueConfig,
    runs: usize,
    mut workload_for: impl FnMut(u64) -> W,
) -> Vec<RunReport> {
    (0..runs)
        .map(|r| {
            let mut sched = SchedConfig::new(kind, queue).with_seed(0xBA5E + r as u64 * 7919);
            sched.trace = true;
            let cfg = RunConfig::new(n_pes, sched).with_capture_proto();
            sws_sched::run_workload(&cfg, &workload_for(r as u64))
        })
        .collect()
}

/// Standard banner for a figure harness.
pub fn banner(fig: &str, what: &str) {
    println!("================================================================");
    println!("{fig}: {what}");
    println!("================================================================");
}

/// Format ns as ms.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Geometric mean of `xs` (for summarizing ratios).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

// ---------------------------------------------------------------------
// Six-panel scaling harness (Figures 7 and 8)
// ---------------------------------------------------------------------

/// Aggregates over the runs of one (system, PE-count) cell.
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
    /// Mean simulation wall time, ms. Wall-clock (nondeterministic) —
    /// reported in the companion `*_wall.csv`, never in the figure CSV.
    pub wall_ms: f64,
    /// Summed engine counters over the runs (wall-clock `gate_wait_ns`
    /// included) — companion CSV only, like `wall_ms`.
    pub engine: EngineStats,
}

/// Summarize a series of runs of one configuration.
pub fn summarize(reports: &[RunReport]) -> Cell {
    let makespans: Vec<f64> = reports.iter().map(|r| r.makespan_ns as f64).collect();
    let n = makespans.len() as f64;
    let mean = makespans.iter().sum::<f64>() / n;
    let var = makespans.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let sd = var.sqrt();
    let min = makespans.iter().cloned().fold(f64::MAX, f64::min);
    let max = makespans.iter().cloned().fold(0.0, f64::max);
    Cell {
        makespan_ns: mean,
        sd_pct: 100.0 * sd / mean,
        range_pct: 100.0 * (max - min) / mean,
        throughput: reports.iter().map(|r| r.throughput_per_s()).sum::<f64>() / n,
        efficiency: reports.iter().map(|r| r.parallel_efficiency()).sum::<f64>() / n,
        steal_ns: reports.iter().map(|r| r.total_steal_ns() as f64).sum::<f64>() / n,
        search_ns: reports.iter().map(|r| r.total_search_ns() as f64).sum::<f64>() / n,
        dissemination_ns: reports
            .iter()
            .map(|r| {
                r.workers
                    .iter()
                    .map(|w| w.first_work_ns)
                    .max()
                    .unwrap_or(0) as f64
            })
            .sum::<f64>()
            / n,
        wall_ms: reports.iter().map(|r| r.wall_ms as f64).sum::<f64>() / n,
        engine: {
            let mut e = EngineStats::default();
            for r in reports {
                e.merge(&r.total_engine());
            }
            e
        },
    }
}

/// Run the full six-panel sweep for one workload family and print the
/// panels in the paper's order.
pub fn six_panels<W: Workload>(
    fig: &str,
    name: &str,
    queue: QueueConfig,
    mut workload_for: impl FnMut(u64) -> W,
) {
    let pes = pe_sweep();
    let runs = runs_per_config();
    banner(fig, &format!("{name} — panels a–f, {runs} runs per point"));

    let mut cells: Vec<(usize, Cell, Cell)> = Vec::new();
    for &p in &pes {
        let sdc = summarize(&run_series(QueueKind::Sdc, p, queue, runs, &mut workload_for));
        let sws = summarize(&run_series(QueueKind::Sws, p, queue, runs, &mut workload_for));
        eprintln!("  swept {p} PEs");
        cells.push((p, sdc, sws));
    }

    println!("\n({fig}a) performance — tasks per second");
    println!("{:>6} {:>16} {:>16}", "PEs", "SDC", "SWS");
    for (p, sdc, sws) in &cells {
        println!("{:>6} {:>16.0} {:>16.0}", p, sdc.throughput, sws.throughput);
    }

    println!("\n({fig}b) relative runtime of SDC vs SWS — SDC/SWS × 100 % (>100 ⇒ SWS faster)");
    println!("{:>6} {:>12}", "PEs", "SDC/SWS %");
    for (p, sdc, sws) in &cells {
        println!("{:>6} {:>12.1}", p, 100.0 * sdc.makespan_ns / sws.makespan_ns);
    }

    println!("\n({fig}c) parallel efficiency relative to ideal execution — %");
    println!("{:>6} {:>10} {:>10}", "PEs", "SDC", "SWS");
    for (p, sdc, sws) in &cells {
        println!(
            "{:>6} {:>10.1} {:>10.1}",
            p,
            100.0 * sdc.efficiency,
            100.0 * sws.efficiency
        );
    }

    println!("\n({fig}d) variation across runs — SD and range as % of mean runtime");
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>12}",
        "PEs", "SDC-SD%", "SWS-SD%", "SDC-Range%", "SWS-Range%"
    );
    for (p, sdc, sws) in &cells {
        println!(
            "{:>6} {:>10.3} {:>10.3} {:>12.3} {:>12.3}",
            p, sdc.sd_pct, sws.sd_pct, sdc.range_pct, sws.range_pct
        );
    }

    println!("\n({fig}e) total steal operation time — ms");
    println!("{:>6} {:>12} {:>12} {:>8}", "PEs", "SDC", "SWS", "ratio");
    for (p, sdc, sws) in &cells {
        println!(
            "{:>6} {:>12.3} {:>12.3} {:>8.2}",
            p,
            sdc.steal_ns / 1e6,
            sws.steal_ns / 1e6,
            sdc.steal_ns / sws.steal_ns.max(1.0)
        );
    }

    println!("\n({fig}f) total search time — ms");
    println!("{:>6} {:>12} {:>12} {:>8}", "PEs", "SDC", "SWS", "ratio");
    for (p, sdc, sws) in &cells {
        println!(
            "{:>6} {:>12.3} {:>12.3} {:>8.2}",
            p,
            sdc.search_ns / 1e6,
            sws.search_ns / 1e6,
            sdc.search_ns / sws.search_ns.max(1.0)
        );
    }

    println!("\n({fig}+) work dissemination — ms until the last PE first obtained work");
    println!("(the abstract's \"task acquisition time\"; not a separate paper figure)");
    println!("{:>6} {:>12} {:>12} {:>8}", "PEs", "SDC", "SWS", "ratio");
    for (p, sdc, sws) in &cells {
        println!(
            "{:>6} {:>12.3} {:>12.3} {:>8.2}",
            p,
            sdc.dissemination_ns / 1e6,
            sws.dissemination_ns / 1e6,
            sdc.dissemination_ns / sws.dissemination_ns.max(1.0)
        );
    }

    write_csv(fig, &cells);
    println!();
}

/// Render the deterministic figure CSV for a sweep. Every column is a
/// pure function of virtual-time results, so two gates (or two identical
/// reruns) must produce byte-identical output — the differential
/// determinism suite asserts exactly that.
pub fn csv_for(cells: &[(usize, Cell, Cell)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "pes,system,makespan_ns,sd_pct,range_pct,throughput,efficiency,steal_ns,search_ns,dissemination_ns\n",
    );
    for (p, sdc, sws) in cells {
        for (name, c) in [("SDC", sdc), ("SWS", sws)] {
            let _ = writeln!(
                out,
                "{p},{name},{},{},{},{},{},{},{},{}",
                c.makespan_ns,
                c.sd_pct,
                c.range_pct,
                c.throughput,
                c.efficiency,
                c.steal_ns,
                c.search_ns,
                c.dissemination_ns
            );
        }
    }
    out
}

/// Render the wall-clock companion CSV: simulation wall time and engine
/// gate counters per cell. Nondeterministic by nature (wall time), so it
/// lives in a separate `*_wall.csv` and is excluded from byte-identity
/// checks.
pub fn wall_csv_for(cells: &[(usize, Cell, Cell)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "pes,system,wall_ms,engine_fast_ops,engine_slow_ops,engine_windows,engine_gate_wait_ns\n",
    );
    for (p, sdc, sws) in cells {
        for (name, c) in [("SDC", sdc), ("SWS", sws)] {
            let _ = writeln!(
                out,
                "{p},{name},{},{},{},{},{}",
                c.wall_ms,
                c.engine.fast_ops,
                c.engine.slow_ops,
                c.engine.windows,
                c.engine.gate_wait_ns
            );
        }
    }
    out
}

/// Write the sweep as machine-readable CSVs under `target/experiments/`:
/// the deterministic figure CSV plus the wall-clock companion.
fn write_csv(fig: &str, cells: &[(usize, Cell, Cell)]) {
    use std::io::Write as _;
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{}.csv", fig.to_lowercase()));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = f.write_all(csv_for(cells).as_bytes());
        eprintln!("  wrote {}", path.display());
    }
    let wall_path = dir.join(format!("{}_wall.csv", fig.to_lowercase()));
    if let Ok(mut f) = std::fs::File::create(&wall_path) {
        let _ = f.write_all(wall_csv_for(cells).as_bytes());
        eprintln!("  wrote {}", wall_path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sweep_is_sorted() {
        if std::env::var("SWS_PES").is_err() {
            let pes = pe_sweep();
            assert!(pes.len() >= 4);
            assert!(pes.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn geomean_of_constant_is_constant() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn ms_converts() {
        assert_eq!(ms(1_500_000), 1.5);
    }
}

