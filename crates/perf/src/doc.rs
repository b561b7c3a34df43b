//! Result documents: what one workload run reports, the one-line JSON
//! object the driver reads, and the multi-workload document `-- agree`
//! compares.

// `num` renders the shortest round-trip form: every measured digit.
use sws_obs::json::{escape, num, Json};

use crate::stats::Summary;

/// Schema tag of the document `-- run --out FILE` writes.
pub const SCHEMA: &str = "sws-perf/v1";

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Dictionary name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The reported value (for `wall_s` the best repetition, for the
    /// other host metrics the median).
    pub value: f64,
    /// Distribution over the timed repetitions, for host metrics
    /// measured once per repetition; `None` for single-valued metrics.
    pub summary: Option<Summary>,
}

impl Metric {
    /// How loosely the repetitions pin the reported value down, as a
    /// share of it: for a best-of-N value (`wall_s`, `setup_s`) how far
    /// the first quartile sits above the best, otherwise the
    /// inter-quartile spread. 0 for single-valued metrics.
    pub fn uncertainty(&self) -> f64 {
        match self.summary {
            Some(s) if self.value <= s.min && s.min > 0.0 => (s.q1 - s.min) / s.min,
            Some(s) => s.spread(),
            None => 0.0,
        }
    }
}

/// Everything one workload run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Did every correctness check pass?
    pub correct: bool,
    /// Correctness checks made.
    pub attempted: u64,
    /// Correctness checks failed.
    pub failed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// Metrics in dictionary order.
    pub metrics: Vec<Metric>,
}

/// Six significant digits for the human-readable table.
fn short(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e-3 && v.abs() < 1e9 {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    } else {
        format!("{v:.5e}")
    }
}

impl WorkloadResult {
    /// The contract line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, each metric exactly `value` and `unit`.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(&m.name),
                    num(m.value),
                    escape(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The detail object: the contract fields plus the workload name,
    /// failure messages and per-metric repetition summaries.
    pub fn detail_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let spread = m.summary.map_or(String::new(), |s| {
                    format!(
                        ", \"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}",
                        s.n,
                        num(s.min),
                        num(s.q1),
                        num(s.median),
                        num(s.q3),
                        num(s.max)
                    )
                });
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{spread}}}",
                    escape(&m.name),
                    num(m.value),
                    escape(&m.unit)
                )
            })
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"failures\": [{}], \"metrics\": {{{}}}}}",
            escape(&self.workload),
            self.correct,
            self.attempted,
            self.failed,
            failures.join(", "),
            metrics.join(", ")
        )
    }

    /// Parse a detail object back.
    pub fn from_detail(v: &Json) -> Result<WorkloadResult, String> {
        let count = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| format!("detail: missing `{k}`"))
        };
        let mut metrics = Vec::new();
        for (name, m) in v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("detail: missing `metrics`")?
        {
            let f = |k: &str| m.get(k).and_then(Json::as_f64);
            let value = f("value").ok_or_else(|| format!("metric {name}: missing value"))?;
            let summary = match (f("n"), f("min"), f("q1"), f("median"), f("q3"), f("max")) {
                (Some(n), Some(min), Some(q1), Some(median), Some(q3), Some(max)) => {
                    Some(Summary {
                        n: n as usize,
                        min,
                        q1,
                        median,
                        q3,
                        max,
                    })
                }
                _ => None,
            };
            metrics.push(Metric {
                name: name.clone(),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("metric {name}: missing unit"))?
                    .to_string(),
                value,
                summary,
            });
        }
        Ok(WorkloadResult {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("detail: missing `workload`")?
                .to_string(),
            correct: matches!(v.get("correct"), Some(Json::Bool(true))),
            attempted: count("attempted")?,
            failed: count("failed")?,
            failures: v
                .get("failures")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            metrics,
        })
    }

    /// Look a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Human-readable block: every metric by name with its unit, and
    /// the repetition spread where there is one.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} — {} ({} of {} checks failed)\n",
            self.workload,
            if self.correct { "correct" } else { "INCORRECT" },
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            out.push_str(&format!("   FAILED: {f}\n"));
        }
        for m in &self.metrics {
            out.push_str(&format!(
                "   {:<44} {:>14} {:<6}",
                m.name,
                short(m.value),
                m.unit
            ));
            if let Some(s) = m.summary {
                out.push_str(&format!(
                    " q1 {} median {} q3 {} min {} max {} n={}",
                    short(s.q1),
                    short(s.median),
                    short(s.q3),
                    short(s.min),
                    short(s.max),
                    s.n
                ));
            }
            out.push('\n');
        }
        out
    }
}

/// The machine a document was measured on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Machine {
    /// Hardware threads visible to the process.
    pub hw_threads: usize,
    /// CPU every workload was pinned to (`None`: pinning failed and the
    /// host metrics are unresolved).
    pub pinned_cpu: Option<usize>,
    /// Kernel release.
    pub kernel: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Commit the tree was built from (`unknown` outside a git checkout).
    pub commit: String,
}

/// One complete set of runs: every workload once, one seed.
#[derive(Clone, Debug, PartialEq)]
pub struct RunDoc {
    /// Where it ran.
    pub machine: Machine,
    /// Workload seed.
    pub seed: u64,
    /// Seconds each workload measured.
    pub seconds: u64,
    /// Did the runs include the traced pass?
    pub traced: bool,
    /// Per-workload results.
    pub workloads: Vec<WorkloadResult>,
}

impl RunDoc {
    /// Render as JSON (one workload per line).
    pub fn render(&self) -> String {
        let m = &self.machine;
        let pinned = m.pinned_cpu.map_or("null".to_string(), |c| c.to_string());
        let workloads: Vec<String> = self.workloads.iter().map(|w| w.detail_json()).collect();
        format!(
            "{{\"schema\": \"{SCHEMA}\",\n \"machine\": {{\"hw_threads\": {}, \"pinned_cpu\": {pinned}, \
             \"kernel\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}},\n \"seed\": {}, \"seconds\": {}, \
             \"traced\": {},\n \"workloads\": [\n  {}\n ]}}\n",
            m.hw_threads,
            escape(&m.kernel),
            escape(&m.rustc),
            escape(&m.commit),
            self.seed,
            self.seconds,
            self.traced,
            workloads.join(",\n  ")
        )
    }

    /// Parse a rendered document.
    pub fn parse(text: &str) -> Result<RunDoc, String> {
        let doc = Json::parse(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("schema must be \"{SCHEMA}\""));
        }
        let mach = doc.get("machine").ok_or("missing `machine`")?;
        let text_of = |k: &str| {
            mach.get(k)
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string()
        };
        let count = |v: &Json, k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| format!("missing `{k}`"))
        };
        Ok(RunDoc {
            machine: Machine {
                hw_threads: count(mach, "hw_threads")? as usize,
                pinned_cpu: mach
                    .get("pinned_cpu")
                    .and_then(Json::as_f64)
                    .map(|c| c as usize),
                kernel: text_of("kernel"),
                rustc: text_of("rustc"),
                commit: text_of("commit"),
            },
            seed: count(&doc, "seed")?,
            seconds: count(&doc, "seconds")?,
            traced: matches!(doc.get("traced"), Some(Json::Bool(true))),
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("missing `workloads`")?
                .iter()
                .map(WorkloadResult::from_detail)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Look a workload up by name.
    pub fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.workload == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadResult {
        WorkloadResult {
            workload: "uts-wide".into(),
            correct: true,
            attempted: 24,
            failed: 0,
            failures: vec![],
            metrics: vec![
                Metric {
                    name: "wall_s".into(),
                    unit: "s".into(),
                    value: 1.2034567891,
                    summary: Summary::of(&[1.1, 1.2034567891, 1.3]),
                },
                Metric {
                    name: "peak_rss_mb".into(),
                    unit: "MB".into(),
                    value: 41.5,
                    summary: None,
                },
            ],
        }
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let line = sample().contract_line();
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).expect("valid JSON");
        assert_eq!(v.keys(), vec!["correct", "attempted", "failed", "metrics"]);
        let wall = v.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.keys(), vec!["value", "unit"]);
        // Every measured digit survives.
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.2034567891));
    }

    #[test]
    fn detail_and_document_round_trip() {
        let w = sample();
        let back = WorkloadResult::from_detail(&Json::parse(&w.detail_json()).unwrap()).unwrap();
        assert_eq!(back, w);
        let doc = RunDoc {
            machine: Machine {
                hw_threads: 2,
                pinned_cpu: Some(1),
                kernel: "6.1".into(),
                rustc: "rustc 1.95.0".into(),
                commit: "unknown".into(),
            },
            seed: 7,
            seconds: 10,
            traced: false,
            workloads: vec![
                w.clone(),
                WorkloadResult {
                    failures: vec!["x \"y\"".into()],
                    ..w
                },
            ],
        };
        assert_eq!(RunDoc::parse(&doc.render()).unwrap(), doc);
        assert!(RunDoc::parse("{\"schema\": \"other\"}").is_err());
    }

    #[test]
    fn uncertainty_follows_the_estimator() {
        let samples = [1.0, 1.1, 1.2, 1.3, 2.0];
        let summary = Summary::of(&samples);
        let metric = |value| Metric {
            name: "wall_s".into(),
            unit: "s".into(),
            value,
            summary,
        };
        // Best-of-N: first quartile (1.05) over the best (1.0).
        assert!((metric(1.0).uncertainty() - 0.05).abs() < 1e-12);
        // Median: inter-quartile (1.65 - 1.05) over the median (1.2).
        assert!((metric(1.2).uncertainty() - 0.5).abs() < 1e-12);
        assert_eq!(sample().metrics[1].uncertainty(), 0.0);
    }

    #[test]
    fn table_names_every_metric_with_its_unit() {
        let t = sample().table();
        assert!(t.contains("wall_s") && t.contains(" s "));
        assert!(t.contains("peak_rss_mb") && t.contains("MB"));
        assert!(t.contains("n=3"));
        assert_eq!(short(1.2034567891), "1.20346");
        assert_eq!(short(104259.0), "104259");
        assert_eq!(short(0.0000084331), "8.43310e-6");
        assert_eq!(short(0.0), "0");
    }
}
