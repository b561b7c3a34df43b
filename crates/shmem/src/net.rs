//! Network cost model.
//!
//! The paper's evaluation runs on a Mellanox EDR (100 Gb/s) InfiniBand
//! fabric with ConnectX-6 HCAs, where a small one-sided operation costs a
//! round trip of roughly 1–2 µs and bulk transfers stream at ~12 GB/s.
//! Every one-sided operation issued through [`crate::ShmemCtx`] is charged
//! `cost = base_latency + bytes / bandwidth` (local operations use a much
//! smaller base latency). In virtual-time mode the cost advances the PE's
//! clock; in threaded mode it can optionally be injected as a busy-wait.
//!
//! Only the *relative* economics matter for reproducing the paper — SWS
//! steals issue 3 operations (2 blocking) where SDC issues 6 (5 blocking) —
//! so any uniform small-op latency reproduces the shapes of Figs. 6–8.

/// Classes of one-sided operations, used for accounting and costing.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
#[repr(usize)]
pub enum OpKind {
    /// Blocking contiguous read of remote words.
    Get = 0,
    /// Blocking contiguous write of remote words.
    Put = 1,
    /// Non-blocking contiguous write, completed by `quiet`.
    PutNbi = 2,
    /// Blocking atomic fetch-add on a remote 64-bit word.
    AtomicFetchAdd = 3,
    /// Blocking atomic swap on a remote 64-bit word.
    AtomicSwap = 4,
    /// Blocking atomic compare-and-swap on a remote 64-bit word.
    AtomicCompareSwap = 5,
    /// Blocking atomic read of a remote 64-bit word.
    AtomicFetch = 6,
    /// Blocking atomic write of a remote 64-bit word.
    AtomicSet = 7,
    /// Non-blocking atomic add (no fetched value), completed by `quiet`.
    AtomicAddNbi = 8,
    /// Non-blocking atomic set, completed by `quiet`.
    AtomicSetNbi = 9,
    /// Barrier participation.
    Barrier = 10,
    /// `quiet` — completion of outstanding non-blocking operations.
    Quiet = 11,
}

/// Number of [`OpKind`] variants (array-table size).
pub const OP_KIND_COUNT: usize = 12;

/// All op kinds in index order (for reporting).
pub const ALL_OP_KINDS: [OpKind; OP_KIND_COUNT] = [
    OpKind::Get,
    OpKind::Put,
    OpKind::PutNbi,
    OpKind::AtomicFetchAdd,
    OpKind::AtomicSwap,
    OpKind::AtomicCompareSwap,
    OpKind::AtomicFetch,
    OpKind::AtomicSet,
    OpKind::AtomicAddNbi,
    OpKind::AtomicSetNbi,
    OpKind::Barrier,
    OpKind::Quiet,
];

impl OpKind {
    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
            OpKind::PutNbi => "put_nbi",
            OpKind::AtomicFetchAdd => "amo_fadd",
            OpKind::AtomicSwap => "amo_swap",
            OpKind::AtomicCompareSwap => "amo_cswap",
            OpKind::AtomicFetch => "amo_fetch",
            OpKind::AtomicSet => "amo_set",
            OpKind::AtomicAddNbi => "amo_add_nbi",
            OpKind::AtomicSetNbi => "amo_set_nbi",
            OpKind::Barrier => "barrier",
            OpKind::Quiet => "quiet",
        }
    }

    /// Whether the issuing PE must wait for completion before continuing.
    pub fn is_blocking(self) -> bool {
        !matches!(
            self,
            OpKind::PutNbi | OpKind::AtomicAddNbi | OpKind::AtomicSetNbi
        )
    }
}

/// Where an operation's target sits relative to the issuing PE.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Locality {
    /// The issuing PE itself (NIC loopback / local atomics).
    SamePe,
    /// A PE on the same physical node (shared-memory transport; the
    /// paper's testbed packs 48 cores per node).
    SameNode,
    /// A PE across the fabric.
    Remote,
}

/// Latency/bandwidth model for one-sided operations.
#[derive(Copy, Clone, Debug)]
pub struct NetModel {
    /// Round-trip latency of a small remote operation, in ns.
    pub remote_latency_ns: u64,
    /// Latency of a small operation to a PE on the same node (shared
    /// memory transport).
    pub intra_node_latency_ns: u64,
    /// PEs per node (≤ 1 means every PE is its own node — all traffic
    /// crosses the fabric).
    pub node_size: usize,
    /// Latency of a local (same-PE) operation through the NIC loopback or
    /// shared memory path, in ns.
    pub local_latency_ns: u64,
    /// Streaming bandwidth for payload bytes, in bytes per microsecond.
    pub bandwidth_bytes_per_us: u64,
    /// Issue overhead charged immediately for a non-blocking operation;
    /// the remaining latency is deferred to `quiet`.
    pub nbi_issue_ns: u64,
    /// Cost charged for barrier participation on top of the synchronization
    /// itself (log-depth dissemination rounds are folded into this figure).
    pub barrier_ns: u64,
}

impl NetModel {
    /// Model loosely calibrated to the paper's testbed (EDR InfiniBand,
    /// ConnectX-6): ~1.5 µs small-op round trip, ~12 GB/s streaming.
    pub fn edr_infiniband() -> NetModel {
        NetModel {
            remote_latency_ns: 1_500,
            intra_node_latency_ns: 400,
            node_size: 1, // flat by default; set 48 for the paper's nodes
            local_latency_ns: 80,
            bandwidth_bytes_per_us: 12_000,
            nbi_issue_ns: 120,
            barrier_ns: 6_000,
        }
    }

    /// The EDR model with the paper's 48-PEs-per-node topology: ops
    /// between PEs of the same node use the shared-memory latency.
    pub fn edr_infiniband_nodes(node_size: usize) -> NetModel {
        NetModel {
            node_size,
            ..NetModel::edr_infiniband()
        }
    }

    /// Node of a PE under this model's topology.
    #[inline]
    pub fn node_of(&self, pe: usize) -> usize {
        if self.node_size <= 1 {
            pe
        } else {
            pe / self.node_size
        }
    }

    /// Locality of an operation from `from` to `to`.
    #[inline]
    pub fn locality(&self, from: usize, to: usize) -> Locality {
        if from == to {
            Locality::SamePe
        } else if self.node_of(from) == self.node_of(to) {
            Locality::SameNode
        } else {
            Locality::Remote
        }
    }

    /// Zero-cost model: every operation is free. Useful for pure
    /// correctness tests where time must not matter.
    pub fn zero() -> NetModel {
        NetModel {
            remote_latency_ns: 0,
            intra_node_latency_ns: 0,
            node_size: 1,
            local_latency_ns: 0,
            bandwidth_bytes_per_us: u64::MAX,
            nbi_issue_ns: 0,
            barrier_ns: 0,
        }
    }

    /// Cost in ns of the payload-transfer portion for `bytes` bytes.
    #[inline]
    pub fn payload_ns(&self, bytes: usize) -> u64 {
        if self.bandwidth_bytes_per_us == u64::MAX || bytes == 0 {
            return 0;
        }
        // bytes / (bytes_per_us) in µs -> ns; round up.
        ((bytes as u64) * 1_000).div_ceil(self.bandwidth_bytes_per_us)
    }

    /// Base small-op latency for a locality class.
    #[inline]
    pub fn base_latency(&self, loc: Locality) -> u64 {
        match loc {
            Locality::SamePe => self.local_latency_ns,
            Locality::SameNode => self.intra_node_latency_ns,
            Locality::Remote => self.remote_latency_ns,
        }
    }

    /// Full cost in ns of an operation of `kind` moving `bytes` payload
    /// bytes to/from a target at locality `loc`.
    pub fn cost_ns(&self, kind: OpKind, bytes: usize, loc: Locality) -> u64 {
        let base = self.base_latency(loc);
        match kind {
            OpKind::PutNbi | OpKind::AtomicAddNbi | OpKind::AtomicSetNbi => {
                // Issue overhead only; completion cost paid at quiet().
                self.nbi_issue_ns.min(base)
            }
            OpKind::Barrier => self.barrier_ns,
            OpKind::Quiet => 0, // quiet's cost is the deferred nbi latency
            _ => base + self.payload_ns(bytes),
        }
    }

    /// Latency still owed at `quiet` time for a non-blocking op issued
    /// earlier (the part not charged at issue).
    pub fn nbi_deferred_ns(&self, bytes: usize, loc: Locality) -> u64 {
        let base = self.base_latency(loc);
        (base + self.payload_ns(bytes)).saturating_sub(self.nbi_issue_ns.min(base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_classification_matches_paper() {
        // The SWS steal issues: fetch-add (blocking), get (blocking),
        // atomic set nbi (passive). SDC issues 5 blocking + 1 passive.
        assert!(OpKind::AtomicFetchAdd.is_blocking());
        assert!(OpKind::Get.is_blocking());
        assert!(!OpKind::AtomicSetNbi.is_blocking());
        assert!(!OpKind::PutNbi.is_blocking());
        assert!(!OpKind::AtomicAddNbi.is_blocking());
    }

    #[test]
    fn remote_costs_exceed_local() {
        let m = NetModel::edr_infiniband();
        assert!(
            m.cost_ns(OpKind::Get, 8, Locality::Remote)
                > m.cost_ns(OpKind::Get, 8, Locality::SamePe)
        );
        assert!(
            m.cost_ns(OpKind::Get, 8, Locality::Remote)
                > m.cost_ns(OpKind::Get, 8, Locality::SameNode)
        );
    }

    #[test]
    fn node_topology_classifies_localities() {
        let m = NetModel::edr_infiniband_nodes(48);
        assert_eq!(m.locality(3, 3), Locality::SamePe);
        assert_eq!(m.locality(3, 40), Locality::SameNode);
        assert_eq!(m.locality(3, 48), Locality::Remote);
        assert_eq!(m.node_of(47), 0);
        assert_eq!(m.node_of(48), 1);
        // Flat default: distinct PEs are always Remote.
        let flat = NetModel::edr_infiniband();
        assert_eq!(flat.locality(0, 1), Locality::Remote);
    }

    #[test]
    fn payload_cost_scales_with_bytes() {
        let m = NetModel::edr_infiniband();
        let small = m.cost_ns(OpKind::Get, 24, Locality::Remote);
        let large = m.cost_ns(OpKind::Get, 24 * 1024, Locality::Remote);
        assert!(large > small);
        // 12 GB/s => 24 KiB ~ 2.05 µs of streaming.
        assert!(m.payload_ns(24 * 1024) >= 2_000);
    }

    #[test]
    fn zero_model_is_free() {
        let m = NetModel::zero();
        for k in ALL_OP_KINDS {
            assert_eq!(m.cost_ns(k, 4096, Locality::Remote), 0, "{:?}", k);
        }
        assert_eq!(m.nbi_deferred_ns(4096, Locality::Remote), 0);
    }

    #[test]
    fn nbi_defers_most_of_the_latency() {
        let m = NetModel::edr_infiniband();
        let issue = m.cost_ns(OpKind::AtomicSetNbi, 8, Locality::Remote);
        let deferred = m.nbi_deferred_ns(8, Locality::Remote);
        assert!(issue < m.remote_latency_ns);
        assert_eq!(
            issue + deferred,
            m.cost_ns(OpKind::AtomicSet, 8, Locality::Remote)
        );
    }

    #[test]
    fn labels_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in ALL_OP_KINDS {
            assert!(seen.insert(k.label()), "duplicate label {}", k.label());
        }
    }
}
