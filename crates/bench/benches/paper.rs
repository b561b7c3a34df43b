//! Regenerates every table and figure of the paper's evaluation: prints
//! each as markdown and writes it to `crates/bench/figures/<name>.csv`.
//!
//! ```text
//! cargo bench -p sws-bench --bench paper
//! git diff --exit-code crates/bench/figures/
//! ```
//!
//! The output is virtual time and a pure function of the code, so the
//! second command is the check that a change moved no figure.

use std::path::Path;

fn main() {
    let dir = Path::new(sws_bench::FIGURES_DIR);
    std::fs::create_dir_all(dir).expect("create the figures directory");
    for t in sws_bench::tables() {
        println!("### {}: {}\n\n{}", t.name, t.title, t.markdown());
        let path = dir.join(format!("{}.csv", t.name));
        std::fs::write(&path, t.csv()).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}
