//! The Unbalanced Tree Search benchmark (paper §5.2.2).
//!
//! UTS exhaustively counts a deterministic but highly unbalanced tree.
//! Every node is a 20-byte SHA-1 digest; a node's child count is drawn
//! from its digest, and child `i`'s digest is `SHA1(parent ‖ i)`. The
//! result is a tree whose shape cannot be predicted without traversing
//! it — the canonical stress test for dynamic load balancing, with one
//! *task per node* (hundreds of nanoseconds each: extremely
//! steal-latency-sensitive, cf. Table 2's 0.00011 ms average task).
//!
//! Two standard tree families are implemented:
//!
//! * **Geometric**: the expected branching factor is a function of depth
//!   (`Fixed` or `Linear` decay to a depth limit); the child count is
//!   geometrically distributed.
//! * **Binomial**: the root has `b0` children; every other node has `m`
//!   children with probability `q`, else none. `m·q < 1` keeps the tree
//!   finite; `m·q` near 1 makes it wildly unbalanced.
//!
//! The paper runs T1WL (270 billion nodes, depth 18) on 2,112 cores;
//! that scale is far beyond this in-process reproduction, so the presets
//! here are scaled-down trees of the same families (DESIGN.md §2). The
//! full T1/T3 parameter sets are provided for reference and work
//! unchanged given enough time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sws_sched::{TaskCtx, Workload};
use sws_task::{PayloadReader, TaskDescriptor, TaskRegistry};

use crate::sha1::{root_state, spawn_child, to_prob, DIGEST_BYTES};

/// Task function id used by UTS node tasks.
pub const UTS_FN: u16 = 10;

/// Depth-dependent branching for geometric trees.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum GeomShape {
    /// Constant expected branching factor `b0` until the depth limit.
    Fixed,
    /// Branching decays linearly to zero at the depth limit (UTS shape
    /// function a=3, the shape used by the paper's T1 family).
    Linear,
    /// Cyclic: branching oscillates with depth (UTS shape a=2) —
    /// alternating bushy and sparse generations.
    Cyclic,
    /// Exponential decay with depth (UTS shape a=1).
    ExpDec,
}

/// Tree family and parameters.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum TreeKind {
    /// Geometric child-count distribution with depth-dependent mean.
    Geometric {
        /// Expected branching factor at the root.
        b0: f64,
        /// Depth limit (no children at or past this depth).
        depth_limit: u32,
        /// Depth decay shape.
        shape: GeomShape,
    },
    /// Binomial: root spawns `b0` children; every other node spawns `m`
    /// children with probability `q` and none otherwise.
    Binomial {
        /// Root fan-out.
        b0: u32,
        /// Probability a non-root node has children.
        q: f64,
        /// Children per non-leaf non-root node.
        m: u32,
    },
}

/// A fully-specified UTS tree.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct UtsParams {
    /// Tree family and shape parameters.
    pub kind: TreeKind,
    /// Root seed (UTS `-r`).
    pub seed: u32,
    /// Virtual ns charged per node visited (paper Table 2: ~110 ns).
    pub node_ns: u64,
}

impl UtsParams {
    /// Number of children of the node with `state` at `depth`.
    pub fn num_children(&self, state: &[u8; DIGEST_BYTES], depth: u32) -> u32 {
        match self.kind {
            TreeKind::Geometric {
                b0,
                depth_limit,
                shape,
            } => {
                if depth >= depth_limit {
                    return 0;
                }
                let b = match shape {
                    GeomShape::Fixed => b0,
                    GeomShape::Linear => b0 * (1.0 - depth as f64 / depth_limit as f64),
                    GeomShape::Cyclic => {
                        // Oscillate between sparse and bushy generations.
                        let phase =
                            (depth as f64 / depth_limit as f64) * std::f64::consts::TAU;
                        (b0 / 2.0) * (1.0 + phase.cos())
                    }
                    GeomShape::ExpDec => {
                        b0 * (-3.0 * depth as f64 / depth_limit as f64).exp()
                    }
                };
                if b <= 0.0 {
                    return 0;
                }
                // Geometric draw with mean b: P(X = k) = p(1-p)^k with
                // p = 1/(1+b); inverse-CDF on the node's uniform value
                // (UTS: floor(log(u) / log(1 - p))).
                let p = 1.0 / (1.0 + b);
                let u = to_prob(state);
                if u <= 0.0 {
                    return 0;
                }
                let k = (u.ln() / (1.0 - p).ln()).floor();
                // Clamp: astronomically unlikely tails would explode the
                // queue; UTS clamps with MAXNUMCHILDREN similarly.
                k.clamp(0.0, 200.0) as u32
            }
            TreeKind::Binomial { b0, q, m } => {
                if depth == 0 {
                    b0
                } else if to_prob(state) < q {
                    m
                } else {
                    0
                }
            }
        }
    }

    /// Root node state.
    pub fn root(&self) -> [u8; DIGEST_BYTES] {
        root_state(self.seed)
    }

    /// Sequential traversal oracle: (total nodes, max depth, leaves).
    /// Used to verify parallel runs and calibrate presets.
    pub fn sequential_count(&self) -> TreeStats {
        let mut stack = vec![(self.root(), 0u32)];
        let mut stats = TreeStats::default();
        while let Some((state, depth)) = stack.pop() {
            stats.nodes += 1;
            stats.max_depth = stats.max_depth.max(depth as u64);
            let n = self.num_children(&state, depth);
            if n == 0 {
                stats.leaves += 1;
            }
            for i in 0..n {
                stack.push((spawn_child(&state, i), depth + 1));
            }
        }
        stats
    }

    /// A node's task payload: state ‖ depth (LE) — with the record
    /// header this lands in the 48-byte records of Table 2.
    fn node_payload(state: &[u8; DIGEST_BYTES], depth: u32) -> [u8; DIGEST_BYTES + 4] {
        let mut p = [0u8; DIGEST_BYTES + 4];
        p[..DIGEST_BYTES].copy_from_slice(state);
        p[DIGEST_BYTES..].copy_from_slice(&depth.to_le_bytes());
        p
    }

    /// Encode a node as a task descriptor.
    pub fn node_task(state: &[u8; DIGEST_BYTES], depth: u32) -> TaskDescriptor {
        TaskDescriptor::new(UTS_FN, &Self::node_payload(state, depth))
    }
}

/// Results of a sequential traversal.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Total tree nodes.
    pub nodes: u64,
    /// Deepest node.
    pub max_depth: u64,
    /// Leaf count.
    pub leaves: u64,
}

/// Named parameter presets.
impl UtsParams {
    /// The paper's T1 geometric family (linear decay, b0 = 4, depth 10,
    /// seed 19): ~4.1 M nodes. Reference scale — minutes of simulation.
    pub fn t1() -> UtsParams {
        UtsParams {
            kind: TreeKind::Geometric {
                b0: 4.0,
                depth_limit: 10,
                shape: GeomShape::Linear,
            },
            seed: 19,
            node_ns: 110,
        }
    }

    /// Scaled-down geometric tree for experiments: same family as T1
    /// with a reduced depth limit. Seed 5 is calibrated to give healthy
    /// trees (≈6 k nodes at depth 8, ≈25 k at 10, ≈104 k at 12, ≈395 k
    /// at 14); the paper's seed 19 draws a degenerate 3-node tree under
    /// our digest→uniform mapping.
    pub fn geo_small(depth_limit: u32) -> UtsParams {
        UtsParams {
            kind: TreeKind::Geometric {
                b0: 4.0,
                depth_limit,
                shape: GeomShape::Linear,
            },
            seed: 5,
            node_ns: 110,
        }
    }

    /// Scaled-down binomial tree for experiments: root fan-out `b0`,
    /// subcritical q·m = 0.875 · 8 ≈ matches T3's criticality.
    pub fn bin_small(b0: u32, seed: u32) -> UtsParams {
        UtsParams {
            kind: TreeKind::Binomial {
                b0,
                q: 0.124875,
                m: 8,
            },
            seed,
            node_ns: 110,
        }
    }
}

/// UTS as a schedulable [`Workload`]: one task per tree node, seeded
/// with the root on PE 0.
pub struct UtsWorkload {
    /// Tree parameters.
    pub params: UtsParams,
    nodes_visited: Arc<AtomicU64>,
}

impl UtsWorkload {
    /// Workload over `params`.
    pub fn new(params: UtsParams) -> UtsWorkload {
        UtsWorkload {
            params,
            nodes_visited: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Nodes visited across all PEs (valid after a run; in-process
    /// instrumentation, not part of the simulated computation).
    pub fn nodes_visited(&self) -> u64 {
        self.nodes_visited.load(Ordering::Relaxed)
    }
}

impl Workload for UtsWorkload {
    fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>) {
        let params = self.params;
        let counter = Arc::clone(&self.nodes_visited);
        reg.register(UTS_FN, move |tctx, payload| {
            let mut r = PayloadReader::new(payload);
            let state: [u8; DIGEST_BYTES] = r.bytes();
            let depth = r.u32();
            counter.fetch_add(1, Ordering::Relaxed);
            let n = params.num_children(&state, depth);
            // Visiting a node costs the base node time plus one SHA-1
            // per spawned child (that is the real work UTS does).
            tctx.compute(params.node_ns + n as u64 * params.node_ns / 2);
            for i in 0..n {
                let child = UtsParams::node_payload(&spawn_child(&state, i), depth + 1);
                tctx.spawn_parts(UTS_FN, &child);
            }
        });
    }

    fn seeds(&self, pe: usize, _n_pes: usize) -> Vec<TaskDescriptor> {
        if pe == 0 {
            vec![UtsParams::node_task(&self.params.root(), 0)]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_oracle_is_deterministic() {
        let p = UtsParams::geo_small(5);
        let a = p.sequential_count();
        let b = p.sequential_count();
        assert_eq!(a, b);
        assert!(a.nodes > 1, "root spawns something: {a:?}");
        assert_eq!(
            a.leaves,
            {
                // Leaves + internal = nodes; sanity via independent walk.
                let mut stack = vec![(p.root(), 0u32)];
                let mut leaves = 0;
                while let Some((s, d)) = stack.pop() {
                    let n = p.num_children(&s, d);
                    if n == 0 {
                        leaves += 1;
                    }
                    for i in 0..n {
                        stack.push((spawn_child(&s, i), d + 1));
                    }
                }
                leaves
            },
            "leaf count"
        );
    }

    #[test]
    fn geometric_tree_respects_depth_limit() {
        let p = UtsParams::geo_small(4);
        let s = p.sequential_count();
        assert!(s.max_depth <= 4, "{s:?}");
        // Linear decay: some branching up high, none at the limit.
        assert_eq!(p.num_children(&p.root(), 4), 0);
        assert_eq!(p.num_children(&p.root(), 99), 0);
    }

    #[test]
    fn binomial_nonroot_is_all_or_nothing() {
        let p = UtsParams::bin_small(32, 1);
        let root = p.root();
        assert_eq!(p.num_children(&root, 0), 32, "root fan-out fixed");
        for i in 0..50 {
            let c = spawn_child(&root, i);
            let n = p.num_children(&c, 1);
            assert!(n == 0 || n == 8, "binomial child count {n}");
        }
    }

    #[test]
    fn binomial_family_is_unbalanced() {
        // Different seeds give wildly different subtree sizes — the
        // benchmark's defining property.
        let sizes: Vec<u64> = (0..12)
            .map(|seed| UtsParams::bin_small(16, seed).sequential_count().nodes)
            .collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(
            max >= min.saturating_mul(2),
            "expected ≥2× spread across seeds: {sizes:?}"
        );
    }

    #[test]
    fn different_seeds_give_different_trees() {
        let a = UtsParams {
            seed: 1,
            ..UtsParams::geo_small(5)
        }
        .sequential_count();
        let b = UtsParams {
            seed: 2,
            ..UtsParams::geo_small(5)
        }
        .sequential_count();
        assert_ne!(a.nodes, b.nodes);
    }

    #[test]
    fn node_task_roundtrip() {
        let p = UtsParams::t1();
        let t = UtsParams::node_task(&p.root(), 3);
        assert_eq!(t.fn_id(), UTS_FN);
        let mut r = PayloadReader::new(t.payload());
        let s: [u8; DIGEST_BYTES] = r.bytes();
        assert_eq!(s, p.root());
        assert_eq!(r.u32(), 3);
        // 20-byte state + 4-byte depth + 8-byte header = 32 ≤ the
        // 48-byte records used in UTS runs (Table 2).
        assert!(t.bytes_needed() <= 48);
    }

    #[test]
    fn geometric_child_counts_have_the_right_mean() {
        // Fixed shape with b0 = 3: mean child count over many nodes
        // should be ≈ 3 (geometric with p = 1/4 has mean (1-p)/p = 3).
        let p = UtsParams {
            kind: TreeKind::Geometric {
                b0: 3.0,
                depth_limit: 100,
                shape: GeomShape::Fixed,
            },
            seed: 5,
            node_ns: 0,
        };
        let mut state = p.root();
        let mut sum = 0u64;
        let n = 4000;
        for i in 0..n {
            sum += p.num_children(&state, 1) as u64;
            state = spawn_child(&state, (i % 7) as u32);
        }
        let mean = sum as f64 / n as f64;
        assert!((2.6..3.4).contains(&mean), "mean {mean}");
    }
}

#[cfg(test)]
mod shape_tests {
    use super::*;

    fn geo(shape: GeomShape, b0: f64, depth_limit: u32, seed: u32) -> UtsParams {
        UtsParams {
            kind: TreeKind::Geometric {
                b0,
                depth_limit,
                shape,
            },
            seed,
            node_ns: 0,
        }
    }

    #[test]
    fn all_shapes_terminate_and_respect_depth() {
        for shape in [
            GeomShape::Fixed,
            GeomShape::Linear,
            GeomShape::Cyclic,
            GeomShape::ExpDec,
        ] {
            let p = geo(shape, 3.0, 8, 5);
            let s = p.sequential_count();
            assert!(s.nodes >= 1, "{shape:?}");
            assert!(s.max_depth <= 8, "{shape:?}: {s:?}");
        }
    }

    #[test]
    fn expdec_trees_are_smaller_than_fixed() {
        // Exponential decay prunes sharply: over several seeds the
        // ExpDec tree must be (much) smaller than the Fixed tree.
        let mut fixed = 0u64;
        let mut expdec = 0u64;
        for seed in 0..6 {
            fixed += geo(GeomShape::Fixed, 2.2, 9, seed).sequential_count().nodes;
            expdec += geo(GeomShape::ExpDec, 2.2, 9, seed).sequential_count().nodes;
        }
        assert!(
            expdec * 2 < fixed,
            "expdec {expdec} not much smaller than fixed {fixed}"
        );
    }

    #[test]
    fn cyclic_branching_oscillates() {
        let p = geo(GeomShape::Cyclic, 4.0, 12, 1);
        // The expected branching at depth 0 (cos=1 → b0) exceeds the
        // trough near depth_limit/2 (cos=-1 → 0). Probe the mean child
        // count at both depths over many nodes.
        let mut crest = 0u64;
        let mut trough = 0u64;
        let mut state = p.root();
        for i in 0..2000u32 {
            crest += p.num_children(&state, 0) as u64;
            trough += p.num_children(&state, 6) as u64;
            state = crate::sha1::spawn_child(&state, i % 5);
        }
        assert!(
            crest > trough * 3,
            "crest {crest} vs trough {trough}: no oscillation"
        );
    }
}
