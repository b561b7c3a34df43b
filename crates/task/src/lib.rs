//! # sws-task — portable task descriptors and the task registry
//!
//! The Scioto/SWS task-pool model (paper §2.1) expresses a parallel
//! computation as a set of *tasks*: fixed-size, position-independent
//! records naming a function plus the state it needs. Task records travel
//! through the symmetric heap (enqueued locally, stolen remotely as raw
//! words), so they must be plain bytes — no pointers, no lifetimes.
//!
//! * [`TaskDescriptor`] — one task: a function id plus up to
//!   [`MAX_PAYLOAD`] payload bytes, encodable to/from heap words.
//! * [`encode_record`] / [`decode_record`] — the record codec itself,
//!   over a task's parts: what the scheduler's per-task path uses, so a
//!   32-byte record never travels as a 252-byte descriptor.
//! * [`TaskRegistry`] — maps function ids to handlers; generic over the
//!   execution context `C` so the scheduler can hand handlers its worker
//!   state (spawning, time charging) without this crate depending on it.
//! * [`PayloadWriter`] / [`PayloadReader`] — tiny LE codecs for building
//!   payloads without allocation.

#![warn(missing_docs)]

mod descriptor;
mod encode;
mod registry;

pub use descriptor::{decode_record, encode_record, TaskDescriptor, MAX_PAYLOAD, MAX_TASK_BYTES};
pub use encode::{PayloadReader, PayloadWriter};
pub use registry::TaskRegistry;
