//! `-- agree A.json B.json`: do two complete sets of runs agree within
//! the benchmark's own bounds?
//!
//! Per (metric, workload): end-to-end metrics use the bound
//! `BENCHMARK.json` fixes; virtual-clock metrics and the failure share
//! use bound 0 — they are deterministic per seed, so any difference is
//! a behaviour change. A host metric whose repetitions scatter more
//! widely than its bound ([`Metric::uncertainty`]) is `unresolved`,
//! never silently `ok`.

use crate::dict::{self, Better};
use crate::doc::{Metric, RunDoc};
use crate::spec::BenchSpec;

/// Outcome for one (metric, workload) cell.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// Cannot tell: a side is missing, or the scatter exceeds the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Why, in words (values, change, spread).
    pub note: String,
}

fn judge(a: Option<&Metric>, b: Option<&Metric>, better: Better, bound: f64) -> (Verdict, String) {
    let (Some(a), Some(b)) = (a, b) else {
        return (Verdict::Unresolved, "missing on one side".into());
    };
    if bound == 0.0 {
        // Exact comparison: bit-identical or it is a behaviour change
        // (an "improvement" in a deterministic value is one too).
        return if a.value.to_bits() == b.value.to_bits() {
            (Verdict::Ok, format!("{} identical", a.value))
        } else {
            (
                Verdict::Regressed,
                format!("{} != {} (must be bit-identical)", a.value, b.value),
            )
        };
    }
    let loose = a.uncertainty().max(b.uncertainty());
    if loose > bound {
        return (
            Verdict::Unresolved,
            format!(
                "repetitions scatter {:.1}%, wider than the {:.0}% bound",
                loose * 100.0,
                bound * 100.0
            ),
        );
    }
    if a.value == 0.0 {
        return (Verdict::Unresolved, "base value is 0".into());
    }
    let worse = match better {
        Better::Lower => (b.value - a.value) / a.value.abs(),
        Better::Higher => (a.value - b.value) / a.value.abs(),
    };
    let note = format!("{} -> {} ({:+.1}% worse)", a.value, b.value, worse * 100.0);
    if worse > bound {
        (Verdict::Regressed, note)
    } else {
        (Verdict::Ok, note)
    }
}

/// Compare `b` against `a` for every workload of `spec`: every
/// end-to-end metric, plus every exact (`virt.*`, failure share) metric
/// either side reports.
pub fn agree(spec: &BenchSpec, a: &RunDoc, b: &RunDoc) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (workload, _) in &spec.workloads {
        let (wa, wb) = (a.workload(workload), b.workload(workload));
        let mut push = |metric: &str, better: Better, bound: f64| {
            let (verdict, note) = judge(
                wa.and_then(|w| w.metric(metric)),
                wb.and_then(|w| w.metric(metric)),
                better,
                bound,
            );
            cells.push(Cell {
                workload: workload.clone(),
                metric: metric.to_string(),
                verdict,
                note,
            });
        };
        for m in &spec.end_to_end {
            let better = if m.better == "higher" {
                Better::Higher
            } else {
                Better::Lower
            };
            push(&m.name, better, m.bound.unwrap_or(0.0));
        }
        for m in dict::PER_LAYER.iter().filter(|m| dict::is_exact(m.name)) {
            let reported = |w: Option<&crate::doc::WorkloadResult>| {
                w.is_some_and(|w| w.metric(m.name).is_some())
            };
            if reported(wa) || reported(wb) {
                push(m.name, m.better, 0.0);
            }
        }
    }
    cells
}

/// Render the verdict table.
pub fn render(cells: &[Cell]) -> String {
    let mut out = String::new();
    for c in cells {
        out.push_str(&format!(
            "{:<16} {:<22} {:<11} {}\n",
            c.workload,
            c.metric,
            c.verdict.label(),
            c.note
        ));
    }
    let n = |v: Verdict| cells.iter().filter(|c| c.verdict == v).count();
    out.push_str(&format!(
        "agree: {} ok, {} regressed, {} unresolved\n",
        n(Verdict::Ok),
        n(Verdict::Regressed),
        n(Verdict::Unresolved)
    ));
    out
}

/// Did any cell regress?
pub fn any_regressed(cells: &[Cell]) -> bool {
    cells.iter().any(|c| c.verdict == Verdict::Regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::{Machine, WorkloadResult};
    use crate::stats::Summary;

    /// The dictionary's spec with every bound set to 10 %, so the cases
    /// below do not move when a bound is retuned.
    fn spec() -> BenchSpec {
        let mut spec = BenchSpec::parse(&dict::render_benchmark_json()).unwrap();
        for m in &mut spec.end_to_end {
            m.bound = Some(0.10);
        }
        spec
    }

    /// A document where every workload reports `wall` (with the given
    /// repetition samples scaled around it), fixed RSS/setup, and one
    /// virtual value.
    fn doc(wall: f64, rel_samples: &[f64], virt: Option<f64>) -> RunDoc {
        let samples: Vec<f64> = rel_samples.iter().map(|r| wall * r).collect();
        let mut metrics = vec![
            Metric {
                name: "wall_s".into(),
                unit: "s".into(),
                value: wall,
                summary: Summary::of(&samples),
            },
            Metric {
                name: "peak_rss_mb".into(),
                unit: "MB".into(),
                value: 40.0,
                summary: None,
            },
            Metric {
                name: "setup_s".into(),
                unit: "s".into(),
                value: 0.5,
                summary: None,
            },
        ];
        if let Some(v) = virt {
            metrics.push(Metric {
                name: "virt.makespan_ms".into(),
                unit: "ms".into(),
                value: v,
                summary: None,
            });
        }
        RunDoc {
            machine: Machine::default(),
            seed: 1,
            seconds: 10,
            traced: virt.is_some(),
            workloads: dict::WORKLOADS
                .iter()
                .map(|w| WorkloadResult {
                    workload: w.name.into(),
                    correct: true,
                    attempted: 1,
                    failed: 0,
                    failures: vec![],
                    metrics: metrics.clone(),
                })
                .collect(),
        }
    }

    const TIGHT: &[f64] = &[0.99, 1.0, 1.0, 1.0, 1.01];

    fn verdicts(cells: &[Cell], metric: &str) -> Vec<Verdict> {
        cells
            .iter()
            .filter(|c| c.metric == metric)
            .map(|c| c.verdict)
            .collect()
    }

    #[test]
    fn identical_documents_agree() {
        let a = doc(2.0, TIGHT, Some(0.39));
        let cells = agree(&spec(), &a, &a);
        assert_eq!(cells.len(), dict::WORKLOADS.len() * 4);
        assert!(
            cells.iter().all(|c| c.verdict == Verdict::Ok),
            "{}",
            render(&cells)
        );
        assert!(!any_regressed(&cells));
    }

    #[test]
    fn nine_percent_is_ok_eleven_regresses_and_faster_is_ok() {
        let a = doc(2.0, TIGHT, None);
        let ok = agree(&spec(), &a, &doc(2.18, TIGHT, None));
        assert!(verdicts(&ok, "wall_s").iter().all(|v| *v == Verdict::Ok));
        let bad = agree(&spec(), &a, &doc(2.22, TIGHT, None));
        assert!(verdicts(&bad, "wall_s")
            .iter()
            .all(|v| *v == Verdict::Regressed));
        assert!(any_regressed(&bad));
        assert!(render(&bad).contains("regressed"));
        let faster = agree(&spec(), &a, &doc(1.0, TIGHT, None));
        assert!(!any_regressed(&faster));
    }

    #[test]
    fn wide_spread_is_unresolved_not_ok() {
        let a = doc(2.0, TIGHT, None);
        let noisy = doc(2.0, &[0.8, 0.9, 1.0, 1.1, 1.2], None);
        let cells = agree(&spec(), &a, &noisy);
        assert!(verdicts(&cells, "wall_s")
            .iter()
            .all(|v| *v == Verdict::Unresolved));
        // Single-valued metrics carry no spread and still resolve.
        assert!(verdicts(&cells, "peak_rss_mb")
            .iter()
            .all(|v| *v == Verdict::Ok));
        // A best-of-N value is judged by how close the pack follows the
        // best, not by how far the stragglers trail.
        let trailed = doc(2.0, &[1.0, 1.02, 1.03, 1.5, 2.0], None);
        let cells = agree(&spec(), &a, &trailed);
        assert!(verdicts(&cells, "wall_s").iter().all(|v| *v == Verdict::Ok));
        let lucky = doc(2.0, &[1.0, 1.3, 1.4, 1.5, 1.6], None);
        let cells = agree(&spec(), &a, &lucky);
        assert!(verdicts(&cells, "wall_s")
            .iter()
            .all(|v| *v == Verdict::Unresolved));
    }

    #[test]
    fn missing_metric_or_workload_is_unresolved() {
        let a = doc(2.0, TIGHT, None);
        let mut b = a.clone();
        b.workloads[0].metrics.retain(|m| m.name != "setup_s");
        b.workloads.pop();
        let cells = agree(&spec(), &a, &b);
        let unresolved: Vec<&Cell> = cells
            .iter()
            .filter(|c| c.verdict == Verdict::Unresolved)
            .collect();
        assert_eq!(unresolved.len(), 1 + 3, "{}", render(&cells));
        assert!(!any_regressed(&cells));
    }

    #[test]
    fn differing_virtual_value_regresses_in_either_direction() {
        let a = doc(2.0, TIGHT, Some(0.390));
        for other in [0.391, 0.389] {
            let cells = agree(&spec(), &a, &doc(2.0, TIGHT, Some(other)));
            assert!(verdicts(&cells, "virt.makespan_ms")
                .iter()
                .all(|v| *v == Verdict::Regressed));
        }
        // Present on one side only: cannot tell.
        let cells = agree(&spec(), &a, &doc(2.0, TIGHT, None));
        assert!(verdicts(&cells, "virt.makespan_ms")
            .iter()
            .all(|v| *v == Verdict::Unresolved));
    }
}
