//! # sws-core — the paper's task queues
//!
//! This crate implements both work-stealing task queues evaluated in
//! *Optimizing Work Stealing Communication with Structured Atomic
//! Operations* (Cartier, Dinan & Larkins, ICPP 2021):
//!
//! * [`SdcQueue`] — the baseline **SDC** queue ("Split queue, Deferred
//!   copy, Aborting steals") from Scioto: a spinlock-guarded split circular
//!   buffer whose steal protocol needs **6 one-sided communications (5
//!   blocking)**: lock, fetch metadata, update tail, unlock, copy tasks,
//!   passive completion ack.
//! * [`SwsQueue`] — the contribution: queue metadata packed into a single
//!   64-bit [`stealval`] word so that one remote **atomic
//!   fetch-add simultaneously discovers and claims** a block of tasks.
//!   A steal needs **3 communications (2 blocking)**: fetch-add, copy
//!   tasks, passive completion notification. Completion epochs (§4.2)
//!   let the owner update the split point without waiting for in-flight
//!   steals; the Fig. 3 single-epoch layout is also implemented as the
//!   ablation baseline.
//!
//! Both queues implement [`StealQueue`], so the scheduler in `sws-sched`
//! runs either interchangeably. All remote interaction flows through
//! `sws-shmem`'s one-sided operations, which charge the modeled network
//! cost and count every message — the experiment harnesses verify the
//! 6-vs-3 (5-vs-2 blocking) communication counts directly.

#![warn(missing_docs)]

pub mod ordering;
pub mod protocol;
pub mod queue;
pub mod ring;
pub mod steal_half;
pub mod stealval;

pub use ordering::{AtomicSite, Defect, DepClass, MemOrder, Necessity, Oracle, SiteRow, Weakening};
pub use protocol::{CommBudget, Protocol};
pub use queue::sdc::SdcQueue;
pub use queue::sws::SwsQueue;
pub use queue::{QueueConfig, QueueStats, StealOutcome, StealQueue};
pub use stealval::EncodeError;
