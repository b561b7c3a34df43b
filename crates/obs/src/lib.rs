//! # sws-obs — steal-span telemetry
//!
//! Observability layer for the SWS/SDC experiments, built on the proto
//! capture in `sws-shmem` and the scheduler reports in `sws-sched`:
//!
//! * [`span`] — stitch the captured [`ProtoLog`](sws_shmem::ProtoLog)
//!   into per-steal spans with a phase-level virtual-time
//!   breakdown, and check the paper's per-steal op budget (SWS: ≤ 3
//!   ops / ≤ 2 blocking; SDC: 6 / 5) as a runtime invariant
//!   (`sws-run --assert-comms`).
//! * [`bound`] — the run-wide rooted-tree steal-bound invariant
//!   (Σ `steals_won` ≤ Σ `steal_budget`) checked from scheduler reports
//!   (`sws-run --assert-steal-bound`).
//! * [`metrics`] — a per-PE sharded counter/gauge/histogram registry
//!   with plain-store recording and report-time merging; text
//!   exposition and JSON snapshot (`sws-run --metrics`).
//! * [`contention`] — the per-site contention heat table recorded
//!   under `RunConfig::profile_sites`, rendered in `AtomicSite` catalog
//!   order (`sws-run --contention`).
//! * [`snap`] — the `sws-obs-snap/v1` JSONL snapshot stream emitted by
//!   service runs (`sws-run --serve --snapshots FILE`), with windowed
//!   latency percentiles and hysteretic SLO burn-rate alerting
//!   (`--slo-alerts warn|fatal`).
//! * [`top`] — the `sws-top` dashboard renderer over that stream.
//! * [`perfetto`] — Chrome-trace/Perfetto JSON export of spans,
//!   scheduler instants, and an idle-PE counter track
//!   (`sws-run --trace-out FILE`), plus the schema validator behind
//!   the `sws-tracecheck` binary.
//! * [`report_json`] — the superset machine-readable run report used
//!   by `sws-run --json`.
//! * [`json`] — the std-only JSON writer/parser underneath it all.
//!
//! Everything here is post-mortem: the hot paths keep their plain
//! per-PE stat structs, and proto capture stays a single predictable
//! branch per site when disarmed, so telemetry never perturbs results
//! (pinned by the armed-vs-disarmed differential suite).

#![warn(missing_docs)]

pub mod bound;
pub mod contention;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod report_json;
pub mod snap;
pub mod span;
pub mod top;

pub use bound::{check_steal_bound, steal_bound_to_json, StealBoundReport};
pub use contention::{contention_rows, contention_table, contention_to_json, ContentionRow};
pub use metrics::{MetricKind, Registry};
pub use perfetto::{chrome_trace, validate_chrome_trace, TraceRun, TraceStats};
pub use report_json::{comm_report_to_json, report_to_json};
pub use snap::{
    build_stream, stream_to_jsonl, AlertEvent, AlertKind, SloPolicy, SnapFrame, SnapStream,
    SNAP_SCHEMA,
};
pub use span::{
    check_comms, stitch_pe, stitch_report, CommBudget, CommReport, PhaseSlice, SpanList,
    SpanOutcome, StealSpan, System,
};
