//! # sws-shmem — a simulated OpenSHMEM-style PGAS substrate
//!
//! The SWS paper (Cartier, Dinan & Larkins, ICPP 2021) implements its work
//! stealing runtime on OpenSHMEM over InfiniBand RDMA. This crate provides
//! the equivalent substrate for an in-process reproduction:
//!
//! * a **symmetric heap**: every processing element (PE) owns a region of
//!   64-bit words at identical symmetric addresses ([`SymAddr`]);
//! * **one-sided operations** on remote regions: blocking `get`/`put`,
//!   non-blocking (`_nbi`) variants completed by [`ShmemCtx::quiet`], and
//!   64-bit remote atomics (`fetch_add`, `swap`, `compare_swap`, `fetch`,
//!   `set`) — the operation set §4 of the paper relies on;
//! * **collectives**: barrier and reductions, plus a collective
//!   symmetric allocator;
//! * a **network cost model** ([`NetModel`]) charging a configurable
//!   latency + bandwidth cost per operation class, with per-PE counters
//!   ([`OpStats`]) so experiments can report exact communication counts;
//! * three execution modes ([`ExecMode`]) over two substrates behind the
//!   crate-private execution seam (`exec`) — the op surface and the
//!   protocols above it cannot tell them apart:
//!   - `Threaded`: PEs are OS threads performing real CPU atomics on the
//!     shared heap — used for concurrency stress tests;
//!   - `Virtual`: PEs are stackful contexts on the *one* OS thread that
//!     called [`run_world`], scheduled by a conservative **virtual-time
//!     engine** (`vclock`): every remote effect applies in global
//!     virtual-time order and advances the issuing PE's clock by the
//!     modeled cost. This yields deterministic, seedable "runs" of
//!     thousands of PEs on a single core with no kernel on the path, from
//!     which runtime / steal time / search time are read off the clocks;
//!   - `Explore`: the same contexts on the same one thread, under the
//!     same scheduling step, but the next PE to run is picked by an explicit
//!     **schedule** ([`explore::ExploreGate`]) instead of by the clocks:
//!     every gated effect is a scheduling choice point — used to search
//!     interleavings of the production queues.
//!
//! The public entry point is [`run_world`]:
//!
//! ```
//! use sws_shmem::{run_world, WorldConfig};
//!
//! let cfg = WorldConfig::virtual_time(4, 1 << 12);
//! let out = run_world(cfg, |ctx| {
//!     let flag = ctx.alloc_words(1);
//!     if ctx.my_pe() == 0 {
//!         ctx.atomic_set(1, flag, 42); // one-sided write to PE 1
//!     }
//!     ctx.barrier_all();
//!     ctx.atomic_fetch(ctx.my_pe(), flag)
//! })
//! .unwrap();
//! assert_eq!(out.results[1], 42);
//! ```

#![warn(missing_docs)]

mod addr;
mod collectives;
mod context;
mod ctx;
mod error;
mod exec;
pub mod explore;
pub mod fault;
mod heap;
mod lock;
mod net;
pub mod overrides;
pub mod prof;
pub mod proto;
pub mod rng;
mod runtime;
mod stats;
mod vclock;

pub use addr::SymAddr;
pub use explore::{Decision, ExploreConfig, ExploreGate, ExploreTrace, OpDesc};
pub use ctx::ShmemCtx;
pub use error::{OpError, OpResult, ShmemError, ShmemResult};
pub use fault::{FaultPlan, OpClass, RetryPolicy, TargetSel};
pub use heap::{SymmetricHeap, CACHE_LINE_BYTES, CACHE_LINE_WORDS, CTRL_WORDS as HEAP_CTRL_WORDS};
pub use net::{Locality, NetModel, OpKind, ALL_OP_KINDS, OP_KIND_COUNT};
pub use overrides::{MemOrder, OpRole, OrdTracker, OrderingCtl, OrderingOverrides};
pub use prof::{merge_site_profiles, SiteCounters};
pub use proto::{ProtoEvent, ProtoLog, ProtoOp, NO_SITE};
pub use runtime::{run_world, ExecMode, WorldConfig, WorldOutput};
pub use stats::{OpStats, StatsSummary};
pub use vclock::EngineStats;
