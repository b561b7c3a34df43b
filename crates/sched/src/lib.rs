//! # sws-sched — the work-first scheduler and experiment runner
//!
//! Drives the task-pool execution model of paper §2.1 over either queue
//! from `sws-core`:
//!
//! * **work-first loop** ([`worker`]): pop-newest local execution
//!   (depth-first), release when the shared portion drains, acquire when
//!   the local portion drains, then random-victim steal-half search;
//! * **victim selection** ([`victim`]): seeded uniform random targets —
//!   runs are fully deterministic in virtual-time mode;
//! * **steal damping** ([`damping`], paper §4.3): per-target full/empty
//!   modes; empty-mode targets are probed read-only before a claiming
//!   fetch-add is risked;
//! * **distributed termination detection** ([`termination`]): global
//!   spawned/completed/idle counters on PE 0;
//! * **experiment runner** ([`runner`]): builds a world, seeds a
//!   [`Workload`], runs every PE to global termination,
//!   and reports the timing decomposition the paper's figures use (task
//!   time, steal time, search time, makespan, parallel efficiency).

#![warn(missing_docs)]

pub mod config;
pub mod damping;
pub mod pool;
pub mod report;
pub mod runner;
pub mod service;
pub mod snapshot;
pub mod taskctx;
pub mod termination;
pub mod trace;
pub mod victim;
pub mod worker;

pub use config::{QueueKind, SchedConfig};
pub use report::{RunReport, WorkerStats};
pub use runner::{
    run_workload, run_workload_mode, try_run_workload_mode, RunConfig, Workload,
};
pub use service::{
    run_service, try_run_service, AdmissionPolicy, ArrivalSource, AwayWindow, MembershipPlan,
    ServiceConfig, ServiceWorkload,
};
pub use pool::TaskPool;
pub use snapshot::SnapRow;
pub use taskctx::TaskCtx;
pub use victim::VictimPolicy;
