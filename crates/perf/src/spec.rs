//! `BENCHMARK.json`: parse it and check it against the limits the
//! benchmark driver enforces before a single run.

use sws_obs::json::Json;

/// One metric entry as the file states it.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecMetric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Regression bound (end-to-end entries only).
    pub bound: Option<f64>,
}

/// The parsed file.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSpec {
    /// Program and arguments.
    pub command: Vec<String>,
    /// Benchmark-only directories.
    pub paths: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics, each with a bound.
    pub end_to_end: Vec<SpecMetric>,
    /// Per-layer metrics, no bounds.
    pub per_layer: Vec<SpecMetric>,
}

fn str_of(v: &Json, what: &str) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{what} must be a string"))
}

fn arr_of<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("`{key}` must be an array"))
}

fn exact_keys(v: &Json, want: &[&str], what: &str) -> Result<(), String> {
    let mut have = v.keys();
    have.sort_unstable();
    let mut want = want.to_vec();
    want.sort_unstable();
    if have == want {
        Ok(())
    } else {
        Err(format!(
            "{what} must have exactly the keys {want:?}, has {have:?}"
        ))
    }
}

fn metric_of(v: &Json, bounded: bool, what: &str) -> Result<SpecMetric, String> {
    let keys: &[&str] = if bounded {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    exact_keys(v, keys, what)?;
    let field = |k: &str| str_of(v.get(k).unwrap_or(&Json::Null), &format!("{what}.{k}"));
    Ok(SpecMetric {
        name: field("name")?,
        unit: field("unit")?,
        better: field("better")?,
        bound: if bounded {
            Some(
                v.get("bound")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{what}.bound must be a number"))?,
            )
        } else {
            None
        },
    })
}

impl BenchSpec {
    /// Parse the file's text (structure only; see [`BenchSpec::validate`]).
    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let doc = Json::parse(text)?;
        exact_keys(
            &doc,
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
            "BENCHMARK.json",
        )?;
        let strings = |key: &str| -> Result<Vec<String>, String> {
            arr_of(&doc, key)?
                .iter()
                .map(|v| str_of(v, &format!("`{key}` entry")))
                .collect()
        };
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .filter(|s| s.fract() == 0.0 && *s >= 0.0)
            .ok_or("`run_seconds` must be a whole number")? as u64;
        let mut workloads = Vec::new();
        for w in arr_of(&doc, "workloads")? {
            exact_keys(w, &["name", "why"], "a workload")?;
            workloads.push((
                str_of(w.get("name").unwrap_or(&Json::Null), "workload.name")?,
                str_of(w.get("why").unwrap_or(&Json::Null), "workload.why")?,
            ));
        }
        let metrics = |key: &str, bounded: bool| -> Result<Vec<SpecMetric>, String> {
            arr_of(&doc, key)?
                .iter()
                .map(|v| metric_of(v, bounded, &format!("a `{key}` metric")))
                .collect()
        };
        Ok(BenchSpec {
            command: strings("command")?,
            paths: strings("paths")?,
            run_seconds,
            workloads,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// The regression bound of an end-to-end metric.
    pub fn bound(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.bound)
    }

    /// Every violation of the driver's limits (empty ⇒ acceptable).
    pub fn validate(&self, text_len: usize) -> Vec<String> {
        let mut errs = Vec::new();
        let mut check = |ok: bool, msg: String| {
            if !ok {
                errs.push(msg);
            }
        };
        check(
            text_len <= 64 * 1024,
            format!("file is {text_len} bytes (> 64 KiB)"),
        );
        check(
            (1..=32).contains(&self.command.len()) && self.command.iter().all(|s| s.len() <= 200),
            "command: 1..=32 strings of at most 200 characters".into(),
        );
        for arg in &self.command {
            check(
                !arg.starts_with('/') && !arg.split('/').any(|seg| seg == ".."),
                format!("command argument {arg:?} is absolute or leaves the repo"),
            );
        }
        check(
            (1..=16).contains(&self.paths.len()),
            "paths: 1..=16 directories".into(),
        );
        for p in &self.paths {
            let ok = !p.is_empty()
                && p.len() <= 200
                && !p.starts_with('/')
                && !p.split('/').any(|seg| seg == "..")
                && p.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c));
            check(ok, format!("path {p:?} is not a plain relative directory"));
        }
        check(
            (1..=60).contains(&self.run_seconds),
            format!("run_seconds {} outside 1..=60", self.run_seconds),
        );
        check(
            (2..=8).contains(&self.workloads.len()),
            "workloads: 2..=8".into(),
        );
        check(
            (1..=16).contains(&self.end_to_end.len()),
            "end_to_end: 1..=16".into(),
        );
        check(
            (1..=128).contains(&self.per_layer.len()),
            "per_layer: 1..=128".into(),
        );
        for (name, why) in &self.workloads {
            check(
                why.len() <= 200 && !why.contains('\n'),
                format!("workload {name}: why must be one line of at most 200 characters"),
            );
        }
        let mut names: Vec<&str> = self.workloads.iter().map(|(n, _)| n.as_str()).collect();
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            names.push(&m.name);
            check(
                valid_unit(&m.unit),
                format!("{}: bad unit {:?}", m.name, m.unit),
            );
            check(
                m.better == "lower" || m.better == "higher",
                format!("{}: better must be lower|higher", m.name),
            );
            if let Some(b) = m.bound {
                check(
                    (0.0..=0.25).contains(&b),
                    format!("{}: bound {b} outside 0..=0.25", m.name),
                );
            }
        }
        for n in &names {
            check(valid_name(n), format!("bad name {n:?}"));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        check(names.len() == total, "a name is used more than once".into());
        let setup_ok = self
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower");
        check(setup_ok, "end_to_end must hold setup_s (s, lower)".into());
        errs
    }
}

/// Starts with a letter or digit; at most 64 of letters, digits, `_.-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// At most 16 of letters, digits, `_/%.-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict;

    #[test]
    fn rendered_dictionary_round_trips_and_validates() {
        let text = dict::render_benchmark_json();
        let spec = BenchSpec::parse(&text).expect("parses");
        assert_eq!(spec.validate(text.len()), Vec::<String>::new());
        assert_eq!(spec.run_seconds, dict::RUN_SECONDS);
        assert_eq!(spec.workloads.len(), dict::WORKLOADS.len());
        assert_eq!(spec.end_to_end.len(), dict::END_TO_END.len());
        assert_eq!(spec.per_layer.len(), dict::PER_LAYER.len());
        assert_eq!(spec.bound("wall_s"), Some(0.25));
        assert_eq!(spec.bound("virt.makespan_ms"), None);
    }

    #[test]
    fn name_and_unit_charsets() {
        assert!(valid_name("shmem.gated_op_us.p512"));
        assert!(valid_name("uts-wide"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MB"));
        assert!(!valid_unit("µs") && !valid_unit("") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn validate_reports_contract_violations() {
        let text = dict::render_benchmark_json();
        let mut spec = BenchSpec::parse(&text).unwrap();
        spec.run_seconds = 61;
        spec.command.push("/abs".into());
        spec.paths.push("../out".into());
        spec.end_to_end[0].bound = Some(0.5);
        spec.end_to_end.retain(|m| m.name != "setup_s");
        spec.per_layer[0].name = spec.per_layer[1].name.clone();
        let errs = spec.validate(text.len()).join("\n");
        for needle in [
            "run_seconds",
            "/abs",
            "../out",
            "bound 0.5",
            "setup_s",
            "more than once",
        ] {
            assert!(errs.contains(needle), "missing {needle:?} in:\n{errs}");
        }
    }

    #[test]
    fn parse_rejects_extra_and_missing_keys() {
        assert!(BenchSpec::parse("{}").is_err());
        let text = dict::render_benchmark_json().replacen("\"why\"", "\"because\"", 1);
        assert!(BenchSpec::parse(&text)
            .unwrap_err()
            .contains("exactly the keys"));
    }
}
