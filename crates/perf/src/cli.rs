//! Argument parsing for the bench target (pure, so it is unit-tested).
//!
//! ```text
//! perf run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
//!          [--trace-out FILE] [--out FILE] [--quick]
//! perf agree A.json B.json
//! perf spec
//! ```
//!
//! `cargo bench` appends `--bench` to a `harness = false` target's
//! arguments; it is accepted anywhere and ignored.

use crate::dict;

/// Arguments of `run`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunArgs {
    /// One workload (in-process), or every workload (one pinned child
    /// process each) when absent.
    pub workload: Option<String>,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure per workload.
    pub seconds: u64,
    /// Add the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Write the harness spans as Chrome-trace JSON here.
    pub trace_out: Option<String>,
    /// Write the multi-workload result document here.
    pub out: Option<String>,
    /// Tiny sizes, two repetitions: a smoke run, not a measurement.
    pub quick: bool,
}

/// A parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Run workloads.
    Run(RunArgs),
    /// Compare two result documents.
    Agree {
        /// Baseline document.
        a: String,
        /// Candidate document.
        b: String,
    },
    /// Print `BENCHMARK.json` as the dictionary renders it.
    Spec,
}

/// Usage text.
pub const USAGE: &str = "\
usage: perf run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
                [--trace-out FILE] [--out FILE] [--quick]
       perf agree A.json B.json
       perf spec";

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let args: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--bench")
        .collect();
    match args.split_first() {
        Some((&"run", rest)) => parse_run(rest).map(Command::Run),
        Some((&"agree", [a, b])) => Ok(Command::Agree {
            a: a.to_string(),
            b: b.to_string(),
        }),
        Some((&"agree", _)) => Err("agree takes exactly two files".into()),
        Some((&"spec", [])) => Ok(Command::Spec),
        Some((other, _)) => Err(format!("unknown command {other:?}")),
        None => Err("missing command".into()),
    }
}

fn parse_run(rest: &[&str]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: None,
        seed: 1,
        seconds: dict::RUN_SECONDS,
        trace: false,
        trace_out: None,
        out: None,
        quick: false,
    };
    let mut it = rest.iter();
    while let Some(&flag) = it.next() {
        if flag == "--quick" {
            run.quick = true;
            continue;
        }
        let val = *it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let int = || -> Result<u64, String> {
            val.parse()
                .map_err(|_| format!("{flag} needs a whole number, got {val:?}"))
        };
        match flag {
            "--workload" => {
                if !dict::WORKLOADS.iter().any(|w| w.name == val) {
                    return Err(format!("unknown workload {val:?}"));
                }
                run.workload = Some(val.to_string());
            }
            "--seed" => run.seed = int()?,
            "--seconds" => {
                run.seconds = int()?;
                if !(1..=60).contains(&run.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                run.trace = match val {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val:?}")),
                }
            }
            "--trace-out" => run.trace_out = Some(val.to_string()),
            "--out" => run.out = Some(val.to_string()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if run.trace_out.is_some() && !run.trace {
        return Err("--trace-out needs --trace 1".into());
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_invocation_parses() {
        let cmd = parse(&argv(
            "run --workload uts-wide --seed 42 --seconds 10 --trace 1 --bench",
        ));
        let Ok(Command::Run(run)) = cmd else {
            panic!("{cmd:?}")
        };
        assert_eq!(run.workload.as_deref(), Some("uts-wide"));
        assert_eq!(
            (run.seed, run.seconds, run.trace, run.quick),
            (42, 10, true, false)
        );
    }

    #[test]
    fn bench_flag_is_tolerated_anywhere() {
        for s in [
            "--bench run --quick",
            "run --bench --quick",
            "run --quick --bench",
        ] {
            let Ok(Command::Run(run)) = parse(&argv(s)) else {
                panic!("{s}")
            };
            assert!(run.quick && run.workload.is_none());
            assert_eq!(run.seconds, dict::RUN_SECONDS);
        }
        assert_eq!(parse(&argv("spec --bench")), Ok(Command::Spec));
        assert_eq!(
            parse(&argv("agree a.json b.json --bench")),
            Ok(Command::Agree {
                a: "a.json".into(),
                b: "b.json".into()
            })
        );
    }

    #[test]
    fn malformed_input_is_rejected_with_a_reason() {
        for (s, needle) in [
            ("", "missing command"),
            ("bogus", "unknown command"),
            ("run --workload nope", "unknown workload"),
            ("run --seed x", "whole number"),
            ("run --seed", "missing value"),
            ("run --seconds 0", "1..=60"),
            ("run --trace 2", "0 or 1"),
            ("run --frobnicate 1", "unknown flag"),
            ("run --trace-out t.json", "--trace 1"),
            ("agree only-one.json", "exactly two"),
        ] {
            let err = parse(&argv(s)).unwrap_err();
            assert!(err.contains(needle), "{s:?}: {err}");
        }
    }
}
