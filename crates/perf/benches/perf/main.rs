//! `cargo bench -p sws-perf --bench perf -- run [...]` — the pinned
//! end-to-end + per-layer benchmark. See `../../README.md`.

mod harness;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(harness::main_with_args(&args));
}
