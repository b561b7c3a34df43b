//! `sws-run`'s `--histogram` and `--timeline` output, and one run with
//! `--metrics`, `--contention` and both assertions, pinned line by line.
//! Each row of `tests/golden/sws-run/commands.txt` names a golden
//! file and the arguments whose stdout it holds; CI diffs the release
//! binary's stdout against the same files.

use std::path::Path;
use std::process::{Command, Output};

fn sws_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sws-run")).args(args).output().expect("sws-run starts")
}

#[test]
fn histogram_and_timeline_stdout_match_the_goldens() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sws-run");
    let commands = std::fs::read_to_string(dir.join("commands.txt")).expect("command list");
    let mut checked = 0;
    for row in commands.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let (name, args) = row.split_once(' ').expect("NAME ARGS...");
        let out = sws_run(&args.split_whitespace().collect::<Vec<_>>());
        assert!(out.status.success(), "sws-run {args}: {}", String::from_utf8_lossy(&out.stderr));
        let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let want = std::fs::read_to_string(dir.join(format!("{name}.out"))).expect("golden file");
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "sws-run {args}: line {} of {name}.out differs", i + 1);
        }
        assert_eq!(got, want, "sws-run {args}: {name}.out differs in length");
        checked += 1;
    }
    assert_eq!(checked, 7, "every golden command ran");
}

/// Sampled spans cannot feed a histogram of every steal: the pair is
/// refused at argument parsing, with one line and the usage.
#[test]
fn histogram_refuses_a_sampled_capture() {
    let out = sws_run(&["uts", "--pes", "8", "--histogram", "--sample", "4"]);
    assert_eq!(out.status.code(), Some(2), "exit status");
    assert!(out.stdout.is_empty(), "nothing ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().next(), Some("--histogram counts every steal and cannot read a --sample capture"));
}

/// Every row of `tests/golden/sws-run/refusals.txt` is a configuration
/// the library refuses before any PE starts: one stderr line, the row's
/// line of `refusals.out`, nothing on stdout, exit 1. CI runs the same
/// table against the release binary.
#[test]
fn every_refused_configuration_is_one_line_and_exit_1() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sws-run");
    let rows = std::fs::read_to_string(dir.join("refusals.txt")).expect("refusal table");
    let lines = std::fs::read_to_string(dir.join("refusals.out")).expect("refusal lines");
    let rows: Vec<&str> = rows.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
    assert_eq!(rows.len(), lines.lines().count(), "one stderr line per row");
    for (args, line) in rows.into_iter().zip(lines.lines()) {
        let out = sws_run(&args.split_whitespace().collect::<Vec<_>>());
        assert_eq!(out.status.code(), Some(1), "sws-run {args}: exit status");
        assert!(out.stdout.is_empty(), "sws-run {args}: nothing ran");
        assert_eq!(String::from_utf8_lossy(&out.stderr), format!("{line}\n"), "sws-run {args}: stderr");
    }
}
