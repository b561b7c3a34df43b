//! The workspace must pass `sws-lint` (same check CI runs via the
//! binary; this keeps it in the plain test suite too).

use sws_check::lint::{run, workspace_root};

#[test]
fn workspace_lints_clean() {
    let report = run(&workspace_root()).expect("lint walks the workspace");
    assert!(report.files > 20, "walker found too few files");
    let msgs: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(msgs.is_empty(), "lint findings:\n{}", msgs.join("\n"));
}

/// DESIGN.md §5's "What is configurable and who sets it" table is the
/// audit: every `pub` field of the six configuration structs and every
/// flag `sws-run` matches on has a row, and the file a row names — not
/// the defining file, not a test tree — contains the spelling it is set
/// through. The two fault-recovery knobs only hostile chaos runs turn
/// are the exception the table states.
#[test]
fn every_option_has_a_row_and_a_caller() {
    const CHAOS_ONLY: [&str; 2] = ["QueueConfig::retry", "QueueConfig::reclaim_grace_ns"];
    let root = workspace_root();
    let read =
        |p: &str| std::fs::read_to_string(root.join(p)).unwrap_or_else(|e| panic!("{p}: {e}"));
    let design = read("DESIGN.md");
    let rows: Vec<Vec<&str>> = design
        .lines()
        .skip_while(|l| !l.contains("What is configurable and who sets it"))
        .skip_while(|l| !l.starts_with("|---"))
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.split('|').map(|c| c.trim().trim_matches('`')).collect())
        .collect();
    let mut options: Vec<(String, &str)> = Vec::new();
    for (owner, file) in [
        ("SchedConfig", "crates/sched/src/config.rs"),
        ("QueueConfig", "crates/core/src/queue/mod.rs"),
        ("RunConfig", "crates/sched/src/runner.rs"),
        ("ServiceConfig", "crates/sched/src/service.rs"),
        ("ExplorerConfig", "crates/check/src/live.rs"),
        ("SloPolicy", "crates/obs/src/snap.rs"),
    ] {
        let src = read(file);
        let body = src
            .split(&format!("pub struct {owner} {{"))
            .nth(1)
            .expect(owner);
        let fields = body
            .lines()
            .take_while(|l| *l != "}")
            .filter_map(|l| l.strip_prefix("    pub "));
        options.extend(fields.map(|f| {
            (
                format!("{owner}::{}", f.split(':').next().unwrap_or(f)),
                file,
            )
        }));
    }
    let run = read("src/bin/sws-run.rs");
    options.extend(run.lines().filter_map(|l| {
        Some((
            l.split("name: \"").nth(1)?.split('"').next()?.to_string(),
            "src/bin/sws-run.rs",
        ))
    }));
    assert!(
        options.len() > 60,
        "the scan found too few options: {options:?}"
    );
    for (option, defined_in) in options {
        let row = rows
            .iter()
            .find(|r| r.get(1) == Some(&option.as_str()))
            .unwrap_or_else(|| panic!("{option} has no row"));
        let (spelling, caller) = (row[2], row[3]);
        let in_tests = caller.contains("tests/") && !CHAOS_ONLY.contains(&option.as_str());
        assert!(
            caller != defined_in && !in_tests,
            "{option}: {caller} is its defining file or a test"
        );
        let text = read(caller);
        let live = text.split("#[cfg(test)]").next().unwrap_or(&text);
        // `spelling` as a whole word, or as the method of a call chain.
        let word = |c: char| c.is_alphanumeric() || "-_:.".contains(c);
        let spells = |w: &str| w == spelling || w.ends_with(&format!(".{spelling}"));
        let found = live
            .split(|c| !word(c))
            .any(|w| spells(w.trim_end_matches([':', '.'])));
        assert!(found, "{option}: {caller} never spells {spelling}");
    }
}

/// ROADMAP item 7's ceiling on `crates/core/src/queue/` (both production
/// queues and the ring they share), set to what is left once planted
/// defects moved out of `QueueConfig`: the directory may shrink — lower
/// this with it — but never grow past it.
const QUEUE_LINES: usize = 1974;

#[test]
fn the_queue_directory_stays_under_its_ceiling() {
    let dir = workspace_root().join("crates/core/src/queue");
    let files = std::fs::read_dir(&dir)
        .expect("queue directory")
        .map(|e| e.expect("entry").path());
    let lines: usize = files
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| {
            std::fs::read_to_string(&p)
                .expect("readable")
                .lines()
                .count()
        })
        .sum();
    assert!(
        lines <= QUEUE_LINES,
        "crates/core/src/queue/ is {lines} lines, over its {QUEUE_LINES}-line ceiling"
    );
}

/// The ceiling on the one-sided op layer, `crates/shmem/src/ctx.rs`, set
/// at its size once every op became one path to one observation point:
/// the file may shrink — lower this with it — but never grow past it.
const CTX_LINES: usize = 753;

#[test]
fn the_op_layer_stays_under_its_ceiling() {
    let ctx = std::fs::read_to_string(workspace_root().join("crates/shmem/src/ctx.rs"))
        .expect("readable");
    let lines = ctx.lines().count();
    assert!(
        lines <= CTX_LINES,
        "crates/shmem/src/ctx.rs is {lines} lines, over its {CTX_LINES}-line ceiling"
    );
}

/// The ceiling on the service loop, `crates/sched/src/service.rs`, set at
/// its size once service mode stopped by the batch termination rule: the
/// file may shrink — lower this with it — but never grow past it.
const SERVICE_LINES: usize = 617;

#[test]
fn the_service_loop_stays_under_its_ceiling() {
    let service = std::fs::read_to_string(workspace_root().join("crates/sched/src/service.rs"))
        .expect("readable");
    let lines = service.lines().count();
    assert!(
        lines <= SERVICE_LINES,
        "crates/sched/src/service.rs is {lines} lines, over its {SERVICE_LINES}-line ceiling"
    );
}

/// The ceiling on the scheduler event log, `crates/sched/src/trace.rs`,
/// set at its size once steal attempts were recorded only as spans and
/// `EventLog::is_enabled` went unused: the file may shrink — lower this
/// with it — but never grow past it.
const TRACE_LINES: usize = 542;

#[test]
fn the_event_log_stays_under_its_ceiling() {
    let trace = std::fs::read_to_string(workspace_root().join("crates/sched/src/trace.rs"))
        .expect("readable");
    let lines = trace.lines().count();
    assert!(
        lines <= TRACE_LINES,
        "crates/sched/src/trace.rs is {lines} lines, over its {TRACE_LINES}-line ceiling"
    );
}

/// The ceiling on `sws-run`, `src/bin/sws-run.rs`, set at its size once
/// the library became the one judge of a run's configuration: the parser
/// checks only what the CLI alone knows, so a restated library rule
/// cannot grow back. The file may shrink — lower this with it — but
/// never grow past it.
const SWS_RUN_LINES: usize = 768;

#[test]
fn the_cli_stays_under_its_ceiling() {
    let cli =
        std::fs::read_to_string(workspace_root().join("src/bin/sws-run.rs")).expect("readable");
    let lines = cli.lines().count();
    assert!(
        lines <= SWS_RUN_LINES,
        "src/bin/sws-run.rs is {lines} lines, over its {SWS_RUN_LINES}-line ceiling"
    );
}

/// Every `pub fn` in library code (`crates/*/src` outside `bin/` and
/// `crates/perf`, above the first `#[cfg(test)]`) is named, as a whole
/// word, on some other non-comment, non-test line of
/// `crates/*/{src,benches}`, `src/` or `examples/`. A public function no
/// program calls goes; the instruments only test suites drive are listed
/// with their reason, and a listed name that gains a caller or goes
/// fails like a stale `lint.allow` entry.
#[test]
fn every_public_function_has_a_caller() {
    #[rustfmt::skip]
    const INSTRUMENTS: [(&str, &str); 7] = [
        ("run_audit", "ordering_audit.rs recomputes ORDERINGS.md's audit"),
        ("orderings_path", "ordering_audit.rs diffs the committed ORDERINGS.md"),
        ("with_retry", "hostile chaos runs turn fault recovery off"),
        ("with_reclaim_grace_ns", "hostile chaos runs shorten the reclaim grace"),
        ("with_drop_limited", "queue chaos tests drop a bounded number of ops"),
        ("encoded_len", "spans.rs bounds a capture's bytes per event"),
        ("bin_small", "the end-to-end suite runs a small binomial UTS tree"),
    ];
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).into_iter().flatten() {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
    }
    let root = workspace_root();
    let mut files = Vec::new();
    for top in ["src", "examples"] {
        walk(&root.join(top), &mut files);
    }
    for krate in std::fs::read_dir(root.join("crates"))
        .expect("crates")
        .map(|e| e.expect("entry").path())
    {
        walk(&krate.join("src"), &mut files);
        walk(&krate.join("benches"), &mut files);
    }
    files.sort();
    assert!(
        files.len() > 60,
        "the scan found too few files: {}",
        files.len()
    );
    // Every whole word of a live line, counted; and every definition with
    // how often its name appears on its own line.
    let words = |line: &str| {
        line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let mut seen: std::collections::HashMap<String, usize> = Default::default();
    let mut defs = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .expect("under the root")
            .to_string_lossy()
            .replace('\\', "/");
        let defines = rel.starts_with("crates/")
            && !rel.starts_with("crates/perf/")
            && rel.split('/').nth(2) == Some("src")
            && !rel.contains("/bin/");
        let text = std::fs::read_to_string(path).expect("readable");
        let live = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
        for (n, line) in live
            .enumerate()
            .filter(|(_, l)| !l.trim_start().starts_with("//"))
        {
            let line_words = words(line);
            if let Some(name) = line.split("pub fn ").nth(1).filter(|_| defines) {
                let name = words(name).into_iter().next().unwrap_or_default();
                let own = line_words.iter().filter(|w| **w == name).count();
                defs.push((name, own, format!("{rel}:{}", n + 1)));
            }
            for w in line_words {
                *seen.entry(w).or_default() += 1;
            }
        }
    }
    let callerless: Vec<&(String, usize, String)> = defs
        .iter()
        .filter(|(name, own, _)| seen[name] == *own)
        .collect();
    let unlisted: Vec<String> = callerless
        .iter()
        .filter(|d| !INSTRUMENTS.iter().any(|(i, _)| *i == d.0))
        .map(|d| format!("{} ({})", d.0, d.2))
        .collect();
    assert!(unlisted.is_empty(), "public functions no program calls — delete them, or list a test instrument with its reason:\n{}", unlisted.join("\n"));
    let stale: Vec<&str> = INSTRUMENTS
        .iter()
        .map(|(i, _)| *i)
        .filter(|i| !callerless.iter().any(|d| d.0 == *i))
        .collect();
    assert!(
        stale.is_empty(),
        "stale instruments (a caller appeared, or the function went) — delete the entry: {stale:?}"
    );
}
