//! Error types for world construction and execution, plus per-operation
//! failures surfaced by the fault injector.

use crate::net::OpKind;
use std::fmt;

/// Result alias for this crate.
pub type ShmemResult<T> = Result<T, ShmemError>;

/// Result alias for fallible one-sided operations (`try_*` on
/// [`ShmemCtx`](crate::ShmemCtx)).
pub type OpResult<T> = Result<T, OpError>;

/// Failure of a single one-sided operation under fault injection.
///
/// The infallible op surface (`get_words`, `atomic_fetch_add`, ...) never
/// returns these — it panics if an injected fault reaches it — so code
/// that opts into fault tolerance must use the `try_*` variants.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OpError {
    /// The target did not answer within the detection timeout (it is
    /// inside an injected stall window). Retrying later may succeed.
    Timeout {
        /// Kind of the failed operation.
        kind: OpKind,
        /// Target PE.
        target: usize,
    },
    /// The target PE has crash-stopped and marked itself down. Retrying
    /// cannot succeed.
    TargetDown {
        /// Kind of the failed operation.
        kind: OpKind,
        /// Target PE.
        target: usize,
    },
    /// The operation was transiently dropped by the fabric. Retrying is
    /// expected to succeed.
    Retriable {
        /// Kind of the failed operation.
        kind: OpKind,
        /// Target PE.
        target: usize,
    },
}

impl OpError {
    /// Is a retry of the same op potentially useful?
    pub fn is_retriable(&self) -> bool {
        !matches!(self, OpError::TargetDown { .. })
    }

    /// The target PE of the failed op.
    pub fn target(&self) -> usize {
        match *self {
            OpError::Timeout { target, .. }
            | OpError::TargetDown { target, .. }
            | OpError::Retriable { target, .. } => target,
        }
    }

    /// The kind of the failed op.
    pub fn kind(&self) -> OpKind {
        match *self {
            OpError::Timeout { kind, .. }
            | OpError::TargetDown { kind, .. }
            | OpError::Retriable { kind, .. } => kind,
        }
    }
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Timeout { kind, target } => {
                write!(f, "{kind:?} to PE {target} timed out (target stalled)")
            }
            OpError::TargetDown { kind, target } => {
                write!(f, "{kind:?} to PE {target} failed: target is down")
            }
            OpError::Retriable { kind, target } => {
                write!(f, "{kind:?} to PE {target} dropped (transient)")
            }
        }
    }
}

impl std::error::Error for OpError {}

/// Errors surfaced by world construction or execution.
#[derive(Debug)]
pub enum ShmemError {
    /// Invalid configuration (zero PEs, zero-sized heap, ...).
    BadConfig(String),
    /// The symmetric heap ran out of space during a collective allocation.
    HeapExhausted {
        /// Words requested by the failing allocation.
        requested: usize,
        /// Words remaining in each PE region.
        available: usize,
    },
    /// One or more PE closures panicked; the first payload message is kept.
    PePanicked {
        /// PE rank whose closure panicked first (by join order).
        pe: usize,
        /// Panic payload rendered to a string when possible.
        message: String,
    },
    /// The serial executor found no PE able to run while some had not
    /// finished (an executor invariant broke). The PEs were unwound.
    Deadlocked {
        /// The unfinished PEs, each with where and when it was suspended.
        stuck: String,
    },
}

impl fmt::Display for ShmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShmemError::BadConfig(msg) => write!(f, "invalid world configuration: {msg}"),
            ShmemError::HeapExhausted {
                requested,
                available,
            } => write!(
                f,
                "symmetric heap exhausted: requested {requested} words, {available} available"
            ),
            ShmemError::PePanicked { pe, message } => {
                write!(f, "PE {pe} panicked: {message}")
            }
            ShmemError::Deadlocked { stuck } => {
                write!(f, "virtual-time world deadlocked, no PE can run: {stuck}")
            }
        }
    }
}

impl std::error::Error for ShmemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ShmemError::HeapExhausted {
            requested: 100,
            available: 10,
        };
        let s = e.to_string();
        assert!(s.contains("100") && s.contains("10"));

        let e = ShmemError::PePanicked {
            pe: 3,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("PE 3"));
        assert!(e.to_string().contains("boom"));

        let e = ShmemError::BadConfig("zero PEs".into());
        assert!(e.to_string().contains("zero PEs"));

        let e = ShmemError::Deadlocked {
            stuck: "PE 2 at a gate at 40 ns".into(),
        };
        assert!(e.to_string().contains("PE 2 at a gate"));
    }

    #[test]
    fn op_error_classification() {
        let t = OpError::Timeout {
            kind: OpKind::Get,
            target: 2,
        };
        let d = OpError::TargetDown {
            kind: OpKind::AtomicFetchAdd,
            target: 3,
        };
        let r = OpError::Retriable {
            kind: OpKind::Put,
            target: 1,
        };
        assert!(t.is_retriable());
        assert!(r.is_retriable());
        assert!(!d.is_retriable());
        assert_eq!(t.target(), 2);
        assert_eq!(d.kind(), OpKind::AtomicFetchAdd);
        assert!(d.to_string().contains("down"));
        assert!(t.to_string().contains("timed out"));
    }
}
