//! `sws-lint` — source-level protocol lint over the workspace.
//!
//! Eleven token-scan rules keep the code honest about the properties the
//! model checker assumes. Scanning is deliberately lexical (comments and
//! string/char literals are stripped first, with nested block comments
//! handled) — no syn, no build dependency, same `std`-only discipline as
//! the rest of the workspace. Counted rules ratchet against
//! `crates/check/lint.allow`: a file may carry at most its allowed count,
//! and an allowance that no longer matches reality (stale entry, or the
//! count dropped) is itself a finding, so the allowlist can only shrink.
//!
//! Rules:
//!
//! 1. `stealval-bit-ops` — raw stealval field surgery (shifts by the
//!    packed-field offsets, mask constants) outside `stealval.rs`, in the
//!    protocol crates. All packing goes through the checked
//!    encode/decode.
//! 2. `relaxed-ordering` — `Ordering::Relaxed` outside the allowlist; in
//!    particular none in `crates/core` or the one-sided op layer, where
//!    every ordering must correspond to an [`sws_core::AtomicSite`].
//! 3. `seqcst` — `SeqCst` anywhere: the protocol is specified in
//!    release/acquire terms and a `SeqCst` "fix" would mask a missing
//!    edge the audit should have found.
//! 4. `fallible-unwrap` — `.unwrap()`/`.expect(` on a fallible `try_*`
//!    one-sided op in the protocol crates: failure-aware paths must
//!    handle `OpResult`, not panic (the fault-injection tests depend on
//!    it).
//! 5. `wall-clock-time` — `std::time`/`Instant::now`/`SystemTime`/
//!    `thread::sleep` outside the virtual-time layer; the model and the
//!    deterministic tests require logical time.
//! 6. `ordering-comment` — every protocol RMW call site in
//!    `crates/core/src/queue/` must carry an `// ordering:` comment
//!    naming its [`sws_core::AtomicSite`], on the same or one of the
//!    three preceding lines, tying source to the audit table.
//! 7. `unsafe-code` — `unsafe` outside the allowlist (three files: the
//!    symmetric heap's aligned backing, the serial executor's context
//!    switch, and SHA-1's two calls into its CPU-feature kernels, the
//!    SHA-extensions compression function and the AVX-512 batch of
//!    sixteen children).
//! 8. `safety-comment` — every `unsafe` occurrence must carry a
//!    `// SAFETY:` comment on the same line or within the eight
//!    preceding lines, stating the invariant that makes it sound.
//!    Per occurrence, no allowlist: an allowed `unsafe` still needs its
//!    justification next to the code.
//! 9. `println-in-lib` — `println!`/`eprintln!` in library crates
//!    (core, shmem, sched, task, workloads, obs). Libraries report
//!    through return values, the event log, or the metrics registry;
//!    stdout belongs to the binaries under `/bin/`.
//! 10. `result-unwrap` — `.unwrap()`/`.expect(` in library-crate
//!     non-test code (everything before the file's first `#[cfg(test)]`
//!     line). Library code propagates or handles errors; panicking
//!     belongs to tests and the binaries. Ratcheted via `lint.allow`
//!     so the existing debt can only shrink.
//! 11. `ordering-consistency` — every `// ordering: <Site>` annotation
//!     must name a site from the [`sws_core::AtomicSite`] catalog, and
//!     the op it annotates (same line or the next four) must be at
//!     least as strong as the site's production ordering in
//!     `ORDERINGS.md` (an annotated `Release` site may sit on an
//!     `AcqRel` CAS, never on a plain read). Catches annotations that
//!     drift from the code they describe — the audit table is only as
//!     trustworthy as these cross-references. Ratcheted via
//!     `lint.allow`.
//! 12. `relaxed-needs-justification` — every `Ordering::Relaxed` in
//!     production code (outside the file's `#[cfg(test)]` tail) must
//!     sit within two lines of a `// ordering:` or `// relaxed:`
//!     comment saying why no synchronization is needed there. The
//!     necessity prover (`sws-check necessity`) is what earns new
//!     relaxations; this rule makes sure each one carries its
//!     justification at the call site. Pre-existing hits are ratcheted
//!     via `lint.allow`.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use sws_core::{AtomicSite, MemOrder};

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule name.
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line of the (first) occurrence, 0 for file-level findings.
    pub line: usize,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.path, self.rule, self.msg)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.path, self.line, self.rule, self.msg
            )
        }
    }
}

/// Result of a lint run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, sorted by path then line.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files: usize,
}

/// The workspace root, resolved relative to this crate's manifest.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

// ---------------------------------------------------------------------------
// Source stripping
// ---------------------------------------------------------------------------

/// Replace comments and string/char-literal contents with spaces,
/// preserving newlines (so line numbers survive). Handles nested block
/// comments, raw strings with `#` fences, escapes, and the char-literal
/// vs. lifetime ambiguity.
pub fn strip_source(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            while i < b.len() && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 1usize;
            out.push(' ');
            out.push(' ');
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
        } else if c == 'r'
            && (next == Some('"') || next == Some('#'))
            && !i
                .checked_sub(1)
                .is_some_and(|p| b[p].is_alphanumeric() || b[p] == '_')
        {
            // Possible raw string r"..." / r#"..."#.
            let mut j = i + 1;
            let mut hashes = 0usize;
            while b.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if b.get(j) == Some(&'"') {
                out.push(' ');
                for _ in 0..hashes + 1 {
                    out.push(' ');
                }
                i = j + 1;
                'raw: while i < b.len() {
                    if b[i] == '"' {
                        let mut k = i + 1;
                        let mut h = 0usize;
                        while h < hashes && b.get(k) == Some(&'#') {
                            h += 1;
                            k += 1;
                        }
                        if h == hashes {
                            for _ in 0..hashes + 1 {
                                out.push(' ');
                            }
                            i = k;
                            break 'raw;
                        }
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
            } else {
                out.push(c);
                i += 1;
            }
        } else if c == '"' {
            out.push(' ');
            i += 1;
            while i < b.len() {
                if b[i] == '\\' {
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if b[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
        } else if c == '\'' {
            // Char literal vs. lifetime: a literal closes within a few
            // chars ('x' or '\n', '\u{..}'); a lifetime never closes.
            let lit_end = if next == Some('\\') {
                let mut j = i + 3;
                while j < b.len() && j < i + 12 && b[j] != '\'' {
                    j += 1;
                }
                (b.get(j) == Some(&'\'')).then_some(j)
            } else if b.get(i + 2) == Some(&'\'') {
                Some(i + 2)
            } else {
                None
            };
            if let Some(end) = lit_end {
                for &ch in &b[i..=end] {
                    out.push(blank(ch));
                }
                i = end + 1;
            } else {
                out.push(c);
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// A counted token rule: occurrences of any token, within scope, net of
/// exemptions, ratcheted against the allowlist.
struct TokenRule {
    name: &'static str,
    tokens: &'static [&'static str],
    /// Does the rule apply to this workspace-relative path?
    in_scope: fn(&str) -> bool,
    /// Stop counting at the file's first `#[cfg(test)]` line: the rule
    /// governs production code only and test modules are exempt.
    until_cfg_test: bool,
}

fn protocol_crates(p: &str) -> bool {
    p.starts_with("crates/core/src/")
        || p.starts_with("crates/sched/src/")
        || p.starts_with("crates/shmem/src/")
        || p.starts_with("crates/check/src/")
}

fn all_sources(_p: &str) -> bool {
    true
}

/// Library crates must report through return values, the event log, or
/// the metrics registry — never straight to stdio. Binaries (`/bin/`)
/// are the presentation layer and may print.
fn library_crates(p: &str) -> bool {
    const LIBS: &[&str] = &[
        "crates/core/src/",
        "crates/shmem/src/",
        "crates/sched/src/",
        "crates/task/src/",
        "crates/workloads/src/",
        "crates/obs/src/",
    ];
    LIBS.iter().any(|l| p.starts_with(l)) && !p.contains("/bin/")
}

const TOKEN_RULES: &[TokenRule] = &[
    TokenRule {
        name: "stealval-bit-ops",
        tokens: &[
            "<< ASTEALS_SHIFT",
            ">> ASTEALS_SHIFT",
            "<< EPOCH_SHIFT",
            ">> EPOCH_SHIFT",
            "<< VALID_SHIFT",
            ">> VALID_SHIFT",
            "<< ITASKS_SHIFT",
            ">> ITASKS_SHIFT",
            "ASTEALS_MASK",
            "ITASKS_MASK",
            "TAIL_MASK",
            "<< 38",
            ">> 38",
            "<< 39",
            ">> 39",
            "<< 40",
            ">> 40",
            "<< 41",
            ">> 41",
        ],
        in_scope: |p| {
            (p.starts_with("crates/core/src/") || p.starts_with("crates/sched/src/"))
                && p != "crates/core/src/stealval.rs"
        },
        until_cfg_test: false,
    },
    TokenRule {
        name: "relaxed-ordering",
        tokens: &["Ordering::Relaxed"],
        in_scope: all_sources,
        until_cfg_test: false,
    },
    TokenRule {
        name: "seqcst",
        tokens: &["SeqCst"],
        in_scope: all_sources,
        until_cfg_test: false,
    },
    TokenRule {
        name: "wall-clock-time",
        tokens: &["std::time", "Instant::now", "SystemTime", "thread::sleep"],
        in_scope: all_sources,
        until_cfg_test: false,
    },
    TokenRule {
        name: "unsafe-code",
        tokens: &["unsafe "],
        in_scope: all_sources,
        until_cfg_test: false,
    },
    TokenRule {
        name: "println-in-lib",
        tokens: &["println!", "eprintln!"],
        in_scope: library_crates,
        until_cfg_test: false,
    },
    TokenRule {
        name: "result-unwrap",
        tokens: &[".unwrap()", ".expect("],
        in_scope: library_crates,
        until_cfg_test: true,
    },
];

/// RMW call tokens for the `ordering-comment` rule. (`atomic_swap(`
/// also matches inside `atomic_compare_swap(`; the rule is a per-line
/// boolean, so double matches are harmless.)
const RMW_TOKENS: &[&str] = &["atomic_fetch_add(", "atomic_swap(", "atomic_compare_swap("];

// Op tokens grouped by the ordering the one-sided layer hardcodes for
// them (`shmem::ctx`), for the `ordering-consistency` rule. A token may
// match inside a longer cousin (`atomic_fetch(` inside
// `atomic_fetch_add(`); that only adds *weaker* evidence alongside the
// stronger match, and the rule accepts any evidence at least as strong
// as the catalog, so double matches cannot flag a correct site.
const ACQREL_OPS: &[&str] = &["atomic_fetch_add(", "atomic_swap(", "atomic_compare_swap("];
const ACQUIRE_OPS: &[&str] = &[
    "atomic_fetch(",
    // The acquire half is selected from the site catalog
    // (`site.production().acquires()`), so the call witnesses exactly
    // the production ordering — which satisfies itself by definition.
    "atomic_fetch_ordered(",
    "get_words(",
    "steal_copy(",
    "read_local",
    "read_block_local(",
];
const RELEASE_OPS: &[&str] = &[
    "atomic_set(",
    "atomic_set_nbi(",
    "put_word",
    "write_local",
    "local_write",
];

/// Does op evidence `(acquire, release, acqrel)` found near an
/// annotation satisfy the site's production ordering? Stronger is fine
/// (a CAS where the catalog says `Acquire`); weaker or absent is a
/// finding. The comparison itself lives on the shared
/// [`MemOrder::satisfies`] lattice — the lint folds the ops it saw into
/// the strongest witnessed ordering and asks the catalog's own lattice,
/// so the two can never drift.
fn evidence_satisfies(acq: bool, rel: bool, acqrel: bool, need: MemOrder) -> bool {
    let witnessed = if acqrel || (acq && rel) {
        Some(MemOrder::AcqRel)
    } else if acq {
        Some(MemOrder::Acquire)
    } else if rel {
        Some(MemOrder::Release)
    } else {
        None
    };
    witnessed.is_some_and(|w| w.satisfies(need))
}

/// Line index (0-based) of the file's first `#[cfg(test)]` attribute,
/// or `usize::MAX` if there is none. Rules with `until_cfg_test` stop
/// counting there: everything at or below the attribute is the test
/// module (the workspace convention keeps test modules at the bottom).
fn cfg_test_cutoff(stripped: &str) -> usize {
    stripped
        .lines()
        .position(|l| l.contains("#[cfg(test)]"))
        .unwrap_or(usize::MAX)
}

fn count_tokens(line: &str, tokens: &[&str]) -> usize {
    let mut n = 0;
    for t in tokens {
        let mut at = 0;
        while let Some(p) = line[at..].find(t) {
            n += 1;
            at += p + t.len();
        }
    }
    n
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

/// Parsed `lint.allow`: `(rule, path) -> allowed occurrence count`.
type Allow = BTreeMap<(String, String), usize>;

fn parse_allow(text: &str) -> Result<Allow, String> {
    let mut allow = Allow::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let (rule, path, count) = match (it.next(), it.next(), it.next(), it.next()) {
            (Some(r), Some(p), Some(c), None) => (r, p, c),
            _ => return Err(format!("lint.allow:{}: expected `rule path count`", i + 1)),
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("lint.allow:{}: bad count {count:?}", i + 1))?;
        if count == 0 {
            return Err(format!(
                "lint.allow:{}: zero allowance is just a stale line",
                i + 1
            ));
        }
        if allow.insert((rule.into(), path.into()), count).is_some() {
            return Err(format!("lint.allow:{}: duplicate entry", i + 1));
        }
    }
    Ok(allow)
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan roots: every crate's `src/` tree plus the workspace binary crate.
fn source_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    for entry in fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Run every rule over the workspace rooted at `root`.
pub fn run(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let allow_path = root.join("crates/check/lint.allow");
    let allow = match fs::read_to_string(&allow_path) {
        Ok(t) => match parse_allow(&t) {
            Ok(a) => a,
            Err(msg) => {
                report.findings.push(Finding {
                    rule: "allowlist",
                    path: "crates/check/lint.allow".into(),
                    line: 0,
                    msg,
                });
                Allow::new()
            }
        },
        Err(_) => Allow::new(),
    };

    // (rule, path) -> (count, first line)
    let mut counts: BTreeMap<(&'static str, String), (usize, usize)> = BTreeMap::new();

    for path in source_files(root)? {
        let relp = rel(root, &path);
        let raw = fs::read_to_string(&path)?;
        let stripped = strip_source(&raw);
        report.files += 1;

        let raw_lines: Vec<&str> = raw.lines().collect();
        let stripped_lines: Vec<&str> = stripped.lines().collect();
        let cutoff = cfg_test_cutoff(&stripped);
        for (ln0, &line) in stripped_lines.iter().enumerate() {
            for rule in TOKEN_RULES {
                if !(rule.in_scope)(&relp) {
                    continue;
                }
                if rule.until_cfg_test && ln0 >= cutoff {
                    continue;
                }
                let n = count_tokens(line, rule.tokens);
                if n > 0 {
                    let e = counts
                        .entry((rule.name, relp.clone()))
                        .or_insert((0, ln0 + 1));
                    e.0 += n;
                }
            }

            // Rule: fallible-unwrap (per occurrence, no allowlist).
            let fallible_op = [
                "try_atomic",
                "try_get(",
                "try_put(",
                "try_quiet",
                "try_barrier",
            ]
            .iter()
            .any(|t| line.contains(t));
            if protocol_crates(&relp)
                && fallible_op
                && (line.contains(".unwrap()") || line.contains(".expect("))
            {
                report.findings.push(Finding {
                    rule: "fallible-unwrap",
                    path: relp.clone(),
                    line: ln0 + 1,
                    msg: "panicking on a fallible try_* op result; handle the OpResult".into(),
                });
            }

            // Rule: safety-comment (per occurrence, no allowlist). The
            // lookback window (not a contiguous comment walk) tolerates
            // a shared SAFETY comment covering a short setup line or two
            // between it and the unsafe block.
            if count_tokens(line, &["unsafe "]) > 0 {
                let lo = ln0.saturating_sub(8);
                let documented = raw_lines[lo..=ln0.min(raw_lines.len() - 1)]
                    .iter()
                    .any(|l| l.contains("SAFETY:"));
                if !documented {
                    report.findings.push(Finding {
                        rule: "safety-comment",
                        path: relp.clone(),
                        line: ln0 + 1,
                        msg: "`unsafe` without a `// SAFETY:` comment justifying it".into(),
                    });
                }
            }

            // Rule: relaxed-needs-justification (counted, ratcheted).
            // Production-code `Ordering::Relaxed` must carry a nearby
            // `// ordering:` / `// relaxed:` comment. Scanned on the
            // stripped line (so string literals don't count) but the
            // justification is searched in the raw lines (comments are
            // exactly what was stripped).
            if ln0 < cutoff && count_tokens(line, &["Ordering::Relaxed"]) > 0 {
                let lo = ln0.saturating_sub(2);
                let hi = (ln0 + 2).min(raw_lines.len() - 1);
                let justified = raw_lines[lo..=hi]
                    .iter()
                    .any(|l| l.contains("// ordering:") || l.contains("// relaxed:"));
                if !justified {
                    let e = counts
                        .entry(("relaxed-needs-justification", relp.clone()))
                        .or_insert((0, ln0 + 1));
                    e.0 += 1;
                }
            }

            // Rule: ordering-comment (per occurrence, no allowlist).
            if relp.starts_with("crates/core/src/queue/") && count_tokens(line, RMW_TOKENS) > 0 {
                let lo = ln0.saturating_sub(3);
                let documented = raw_lines[lo..=ln0.min(raw_lines.len() - 1)]
                    .iter()
                    .any(|l| l.contains("ordering:"));
                if !documented {
                    report.findings.push(Finding {
                        rule: "ordering-comment",
                        path: relp.clone(),
                        line: ln0 + 1,
                        msg: "protocol RMW without an `// ordering: <AtomicSite>` comment".into(),
                    });
                }
            }

            // Rule: ordering-consistency (counted, ratcheted). An
            // `// ordering: <Site>` annotation (raw line — comments are
            // stripped from the scan text) must name a catalog site and
            // be followed within six lines by an op at least as strong
            // as the site's production ordering (rustfmt can wrap a
            // fault-gated call chain across five). Prose mentions are
            // skipped: only a `Sws…`/`Sdc…` token right after the
            // marker counts as an annotation.
            let Some(raw_line) = raw_lines.get(ln0) else {
                continue;
            };
            let Some(pos) = raw_line.find("// ordering:") else {
                continue;
            };
            let rest = raw_line[pos + "// ordering:".len()..].trim_start();
            let token: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            if !(token.starts_with("Sws") || token.starts_with("Sdc")) {
                continue;
            }
            let consistent = match AtomicSite::from_name(&token) {
                None => false,
                Some(site) => {
                    let window = &stripped_lines[ln0..(ln0 + 7).min(stripped_lines.len())];
                    let hit = |ops| window.iter().any(|l| count_tokens(l, ops) > 0);
                    evidence_satisfies(
                        hit(ACQUIRE_OPS),
                        hit(RELEASE_OPS),
                        hit(ACQREL_OPS),
                        site.production(),
                    )
                }
            };
            if !consistent {
                let e = counts
                    .entry(("ordering-consistency", relp.clone()))
                    .or_insert((0, ln0 + 1));
                e.0 += 1;
            }
        }
    }

    // Ratchet counted rules against the allowlist.
    for ((rule, path), (n, first)) in &counts {
        match allow.get(&(rule.to_string(), path.clone())) {
            Some(&allowed) if *n == allowed => {}
            Some(&allowed) if *n < allowed => {
                report.findings.push(Finding {
                    rule,
                    path: path.clone(),
                    line: 0,
                    msg: format!(
                        "allowance is stale: {n} occurrence(s) left but {allowed} allowed — \
                         ratchet lint.allow down to {n}"
                    ),
                });
            }
            Some(&allowed) => {
                report.findings.push(Finding {
                    rule,
                    path: path.clone(),
                    line: *first,
                    msg: format!("{n} occurrence(s), only {allowed} allowed"),
                });
            }
            None => {
                report.findings.push(Finding {
                    rule,
                    path: path.clone(),
                    line: *first,
                    msg: format!("{n} occurrence(s), none allowed"),
                });
            }
        }
    }
    // Entirely stale allowlist entries (file clean or gone).
    for ((rule, path), allowed) in &allow {
        let known_rule = TOKEN_RULES.iter().any(|r| r.name == rule)
            || rule == "ordering-consistency"
            || rule == "relaxed-needs-justification";
        let counted = counts.keys().any(|(r, p)| *r == rule.as_str() && p == path);
        if !known_rule {
            report.findings.push(Finding {
                rule: "allowlist",
                path: "crates/check/lint.allow".into(),
                line: 0,
                msg: format!("unknown rule {rule:?} in allowlist"),
            });
        } else if !counted {
            report.findings.push(Finding {
                rule: "allowlist",
                path: "crates/check/lint.allow".into(),
                line: 0,
                msg: format!(
                    "stale entry: {rule} {path} {allowed} — no occurrences remain; delete it"
                ),
            });
        }
    }

    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_removes_comments_and_strings() {
        let src = "let x = \"SeqCst\"; // SeqCst here\n/* SeqCst\n * nested /* SeqCst */ SeqCst */\nlet y = 'a';";
        let s = strip_source(src);
        assert!(!s.contains("SeqCst"));
        assert_eq!(s.lines().count(), src.lines().count());
        assert!(s.contains("let x ="));
        assert!(s.contains("let y ="));
    }

    #[test]
    fn strip_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(s: &'a str) { let r = r#\"Ordering::Relaxed \"# ; let q = '\"'; }";
        let s = strip_source(src);
        assert!(!s.contains("Ordering::Relaxed"));
        assert!(s.contains("fn f<'a>(s: &'a str)"));
        // The '"' char literal must not open a string that swallows the rest.
        assert!(s.trim_end().ends_with('}'));
    }

    #[test]
    fn token_counting_counts_all_occurrences() {
        assert_eq!(count_tokens("SeqCst SeqCst", &["SeqCst"]), 2);
        assert_eq!(count_tokens("a << 40 | b >> 40", &["<< 40", ">> 40"]), 2);
    }

    #[test]
    fn cfg_test_cutoff_splits_production_from_tests() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn g() { y.unwrap(); } }\n";
        let cut = cfg_test_cutoff(src);
        assert_eq!(cut, 1);
        let before: usize = src
            .lines()
            .take(cut)
            .map(|l| count_tokens(l, &[".unwrap()", ".expect("]))
            .sum();
        assert_eq!(before, 1, "only the production-code unwrap counts");
        assert_eq!(cfg_test_cutoff("fn f() {}\n"), usize::MAX);
    }

    #[test]
    fn ordering_evidence_accepts_stronger_never_weaker() {
        use MemOrder::*;
        // An AcqRel CAS satisfies an Acquire or Release site.
        assert!(evidence_satisfies(false, false, true, Acquire));
        assert!(evidence_satisfies(false, false, true, Release));
        assert!(evidence_satisfies(false, false, true, AcqRel));
        // A plain acquire read never satisfies a Release or AcqRel site.
        assert!(evidence_satisfies(true, false, false, Acquire));
        assert!(!evidence_satisfies(true, false, false, Release));
        assert!(!evidence_satisfies(true, false, false, AcqRel));
        // Separate acquire + release ops together cover an RMW site.
        assert!(evidence_satisfies(true, true, false, AcqRel));
        // No ops near the annotation satisfies nothing.
        assert!(!evidence_satisfies(false, false, false, Acquire));
    }

    #[test]
    fn allowlist_parses_and_rejects_garbage() {
        let a = parse_allow("# comment\nrelaxed-ordering crates/x/src/a.rs 3\n").unwrap();
        assert_eq!(a.len(), 1);
        assert!(parse_allow("one two\n").is_err());
        assert!(parse_allow("r p 0\n").is_err());
        assert!(parse_allow("r p 1\nr p 1\n").is_err());
    }

    /// The real workspace must lint clean — same assertion CI makes, kept
    /// here so `cargo test -p sws-check` catches regressions locally.
    #[test]
    fn workspace_is_clean() {
        let report = run(&workspace_root()).expect("lint walks the workspace");
        assert!(report.files > 20, "walker found too few files");
        let msgs: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
        assert!(msgs.is_empty(), "lint findings:\n{}", msgs.join("\n"));
    }
}
