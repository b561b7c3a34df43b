//! # sws-perf — the pinned end-to-end + per-layer benchmark
//!
//! This library is the *pure* half of the benchmark: the metric and
//! workload dictionary ([`dict`]), `BENCHMARK.json` parsing and contract
//! validation ([`spec`]), order statistics ([`stats`]), result documents
//! ([`doc`]), the two-set comparison behind `-- agree` ([`agree`]), span
//! arithmetic and the Chrome-trace writer ([`trace`]) and argument
//! parsing ([`cli`]). Nothing here reads a clock, spawns a process or
//! prints — every function is a unit-tested function of its inputs.
//!
//! All timing code lives in the `harness = false` bench target
//! `benches/perf/` (the `sws-bench` `benches/micro.rs` precedent), which
//! `cargo bench -p sws-perf --bench perf -- run` drives. See
//! `README.md` for the dictionary, the pinning rationale and the pinned
//! API surface.

#![warn(missing_docs)]

pub mod agree;
pub mod cli;
pub mod dict;
pub mod doc;
pub mod spec;
pub mod stats;
pub mod trace;
