//! `sws-check`'s stdout, pinned line by line. Each row of
//! `tests/golden/sws-check/commands.txt` (at the workspace root) names a
//! golden file and the arguments whose stdout it holds; CI diffs the
//! release binary's stdout against the same files. `necessity` prints
//! its evidence directory's absolute path, so the workspace root is
//! stripped from stdout before the comparison.

use std::process::Command;

use sws_check::lint::workspace_root;

#[test]
fn checker_stdout_matches_the_goldens() {
    let root = workspace_root().canonicalize().expect("workspace root");
    let dir = root.join("tests/golden/sws-check");
    let commands = std::fs::read_to_string(dir.join("commands.txt")).expect("command list");
    let prefix = format!("{}/", root.display());
    let mut checked = 0;
    for row in commands
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (name, args) = row.split_once(' ').expect("NAME ARGS...");
        let out = Command::new(env!("CARGO_BIN_EXE_sws-check"))
            .args(args.split_whitespace())
            .output()
            .expect("sws-check starts");
        assert!(
            out.status.success(),
            "sws-check {args}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = String::from_utf8(out.stdout)
            .expect("utf-8 stdout")
            .replace(&prefix, "");
        let want = std::fs::read_to_string(dir.join(format!("{name}.out"))).expect("golden file");
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(
                g,
                w,
                "sws-check {args}: line {} of {name}.out differs",
                i + 1
            );
        }
        assert_eq!(got, want, "sws-check {args}: {name}.out differs in length");
        checked += 1;
    }
    assert_eq!(checked, 4, "every golden command ran");
}
