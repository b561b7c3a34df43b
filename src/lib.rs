//! # SWS — Structured-atomic Work Stealing
//!
//! A Rust reproduction of *Optimizing Work Stealing Communication with
//! Structured Atomic Operations* (Cartier, Dinan & Larkins, ICPP 2021):
//! a PGAS work-stealing runtime in which a steal operation completes in
//! a **single blocking remote atomic** plus one task copy and one
//! passive completion signal — half the communication of the
//! conventional lock-based protocol.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`shmem`] — the simulated OpenSHMEM substrate: symmetric heap,
//!   one-sided operations, remote atomics, collectives, a network cost
//!   model, and a deterministic virtual-time execution engine;
//! * [`task`] — portable task descriptors and the task registry;
//! * [`core`] — the queues: packed [`core::stealval`] metadata,
//!   steal-half arithmetic, the SWS queue (completion epochs, damping
//!   support) and the Scioto SDC baseline;
//! * [`sched`] — the work-first scheduler, victim selection, steal
//!   damping, termination detection, and the experiment runner;
//! * [`workloads`] — UTS (over a from-scratch SHA-1), BPC, and
//!   synthetic tasks;
//! * [`check`] — the bounded model checker, ordering audit, protocol
//!   lint, and the trace-conformance (refinement) checker;
//! * [`obs`] — observability: steal spans stitched from captured
//!   protocol events, per-steal communication accounting against the
//!   paper's op budgets, a sharded metrics registry, and a
//!   Chrome-trace / Perfetto exporter.
//!
//! ## Quickstart
//!
//! ```
//! use sws::prelude::*;
//!
//! // 8 simulated PEs execute an unbalanced tree search, SWS queues.
//! let params = sws::workloads::uts::UtsParams::geo_small(5);
//! let expected = params.sequential_count().nodes;
//! let workload = sws::workloads::uts::UtsWorkload::new(params);
//! let cfg = RunConfig::new(8, SchedConfig::new(QueueKind::Sws, QueueConfig::new(1024, 48)));
//! let report = run_workload(&cfg, &workload);
//! assert_eq!(report.total_tasks(), expected);
//! println!("{}", report.summary_line());
//! ```

pub use sws_check as check;
pub use sws_core as core;
pub use sws_obs as obs;
pub use sws_sched as sched;
pub use sws_shmem as shmem;
pub use sws_task as task;
pub use sws_workloads as workloads;

/// The common imports for running experiments.
pub mod prelude {
    pub use sws_core::{QueueConfig, SdcQueue, StealOutcome, StealQueue, SwsQueue};
    pub use sws_sched::{
        run_service, run_workload, AdmissionPolicy, MembershipPlan, QueueKind, RunConfig,
        RunReport, SchedConfig, ServiceConfig, TaskCtx, Workload,
    };
    pub use sws_shmem::{
        run_world, EngineStats, ExecMode, FaultPlan, NetModel,
        OpClass, RetryPolicy, ShmemCtx, TargetSel, WorldConfig,
    };
    pub use sws_task::{PayloadReader, PayloadWriter, TaskDescriptor, TaskRegistry};
}
