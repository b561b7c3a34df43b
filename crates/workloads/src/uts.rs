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

use crate::sha1::{
    rand_bits, root_state, spawn_child, spawn_children, to_prob, DIGEST_BYTES, LANES, RAND_MAX,
};

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

impl GeomShape {
    /// Expected child count of a node at `depth < depth_limit`.
    fn mean_children(self, b0: f64, depth: u32, depth_limit: u32) -> f64 {
        match self {
            GeomShape::Fixed => b0,
            GeomShape::Linear => b0 * (1.0 - depth as f64 / depth_limit as f64),
            GeomShape::Cyclic => {
                // Oscillate between sparse and bushy generations.
                let phase = (depth as f64 / depth_limit as f64) * std::f64::consts::TAU;
                (b0 / 2.0) * (1.0 + phase.cos())
            }
            GeomShape::ExpDec => b0 * (-3.0 * depth as f64 / depth_limit as f64).exp(),
        }
    }
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
    /// Number of children of the node with `state` at `depth`: the
    /// definition. Traversals read it through a [`ChildTable`].
    pub fn num_children(&self, state: &[u8; DIGEST_BYTES], depth: u32) -> u32 {
        self.children_at(self.depth_term(depth), state, depth)
    }

    /// The part of a geometric tree's child count that depends on the
    /// depth alone: `ln(1 - p)` for the geometric draw with mean `b`,
    /// `p = 1/(1+b)`. `None` where no node has children whatever its
    /// draw (at or past the depth limit, or a mean of 0), and for a
    /// binomial tree, whose formula has no such term.
    fn depth_term(&self, depth: u32) -> Option<f64> {
        let TreeKind::Geometric {
            b0,
            depth_limit,
            shape,
        } = self.kind
        else {
            return None;
        };
        if depth >= depth_limit {
            return None;
        }
        let b = shape.mean_children(b0, depth, depth_limit);
        if b <= 0.0 {
            return None;
        }
        let p = 1.0 / (1.0 + b);
        Some((1.0 - p).ln())
    }

    /// [`UtsParams::num_children`] given its depth's
    /// [`UtsParams::depth_term`] `log_q`.
    fn children_at(&self, log_q: Option<f64>, state: &[u8; DIGEST_BYTES], depth: u32) -> u32 {
        match self.kind {
            TreeKind::Geometric { .. } => {
                let Some(log_q) = log_q else {
                    return 0;
                };
                // Geometric draw with mean b: P(X = k) = p(1-p)^k with
                // p = 1/(1+b); inverse-CDF on the node's uniform value
                // (UTS: floor(log(u) / log(1 - p))).
                let u = to_prob(state);
                if u <= 0.0 {
                    return 0;
                }
                let k = (u.ln() / log_q).floor();
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

    /// [`UtsParams::num_children`] as a lookup, for code that calls it
    /// once per node.
    pub fn child_table(&self) -> ChildTable {
        let rows = match self.kind {
            TreeKind::Geometric {
                b0,
                depth_limit,
                shape,
            } => (0..depth_limit)
                .map(|depth| self.thresholds(shape.mean_children(b0, depth, depth_limit), depth))
                .collect(),
            TreeKind::Binomial { .. } => Vec::new(),
        };
        ChildTable {
            params: *self,
            rows,
        }
    }

    /// One [`ChildTable`] row: for `j = 1, 2, …` the largest draw that
    /// still gives a node at `depth` (mean child count `b`) `j` children.
    /// Every entry is found by evaluating [`UtsParams::num_children`];
    /// the closed form `qʲ·2³¹`, `q = b/(1+b)`, only says where to look.
    fn thresholds(&self, b: f64, depth: u32) -> Box<[u32]> {
        let log_q = self.depth_term(depth);
        let formula = |v: u32| self.children_at(log_q, &drawing(v), depth);
        let mut row = Vec::new();
        let mut ceiling = RAND_MAX;
        let mut guess = (1u64 << 31) as f64;
        // The smallest non-zero draw gives the most children.
        for j in 1..=formula(1) {
            guess *= b / (1.0 + b);
            let mut t = (guess as u32).clamp(1, ceiling);
            while formula(t) < j {
                t -= 1;
            }
            while t < ceiling && formula(t + 1) >= j {
                t += 1;
            }
            row.push(t);
            ceiling = t;
        }
        row.into_boxed_slice()
    }

    /// Root node state.
    pub fn root(&self) -> [u8; DIGEST_BYTES] {
        root_state(self.seed)
    }

    /// Sequential traversal oracle: (total nodes, max depth, leaves).
    /// Used to verify parallel runs and calibrate presets; it evaluates
    /// the formula at every node, so a run checked against it has also
    /// checked its [`ChildTable`]. The counts do not depend on the order
    /// the nodes are visited in, and the traversal derives children
    /// [`LANES`] at a time ([`spawn_children`]): on a CPU with AVX-512 a
    /// run checked against it has also checked the handlers' one-at-a-time
    /// SHA-1 kernel against an independent one.
    pub fn sequential_count(&self) -> TreeStats {
        let depth_limit = match self.kind {
            TreeKind::Geometric { depth_limit, .. } => depth_limit,
            TreeKind::Binomial { .. } => 0,
        };
        let terms: Vec<Option<f64>> = (0..depth_limit).map(|d| self.depth_term(d)).collect();
        self.traverse(|state, depth| {
            let log_q = terms.get(depth as usize).copied().flatten();
            self.children_at(log_q, state, depth)
        })
    }

    /// Count the tree `num_children` describes. The counts do not depend
    /// on the visit order, which is depth-first but batched: a visited
    /// node's children queue up and are derived [`LANES`] at a time, when
    /// the queue is full or no visited node is left.
    fn traverse(&self, num_children: impl Fn(&[u8; DIGEST_BYTES], u32) -> u32) -> TreeStats {
        self.traverse_with(spawn_children, num_children)
    }

    /// [`UtsParams::traverse`] deriving children with `spawn`.
    fn traverse_with(
        &self,
        spawn: impl Fn(&[([u8; DIGEST_BYTES], u32)], &mut [[u8; DIGEST_BYTES]]),
        num_children: impl Fn(&[u8; DIGEST_BYTES], u32) -> u32,
    ) -> TreeStats {
        let mut stack = vec![(self.root(), 0u32)];
        // The queued children: `(parent, index)` and, beside it, depth.
        let mut jobs = Vec::with_capacity(LANES);
        let mut depths = Vec::with_capacity(LANES);
        let mut children = [[0; DIGEST_BYTES]; LANES];
        let mut derive = |jobs: &mut Vec<_>, depths: &mut Vec<u32>, stack: &mut Vec<_>| {
            let children = &mut children[..jobs.len()];
            spawn(jobs, children);
            stack.extend(children.iter().copied().zip(depths.drain(..)));
            jobs.clear();
        };
        let mut stats = TreeStats::default();
        loop {
            let Some((state, depth)) = stack.pop() else {
                if jobs.is_empty() {
                    return stats;
                }
                derive(&mut jobs, &mut depths, &mut stack);
                continue;
            };
            stats.nodes += 1;
            stats.max_depth = stats.max_depth.max(depth as u64);
            let n = num_children(&state, depth);
            if n == 0 {
                stats.leaves += 1;
            }
            for i in 0..n {
                jobs.push((state, i));
                depths.push(depth + 1);
                if jobs.len() == LANES {
                    derive(&mut jobs, &mut depths, &mut stack);
                }
            }
        }
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

/// [`UtsParams::num_children`] without floating point: a node's draw is
/// a 31-bit integer ([`rand_bits`]) and a geometric tree's child count
/// does not grow with it, so per depth the count is the number of
/// thresholds `T₁ ≥ T₂ ≥ …` the draw does not exceed — `T_j` the largest
/// draw the formula gives at least `j` children (at most 200 of them,
/// its clamp). The formula's two logarithms were ≈ 30 ns of a ≈ 200 ns
/// node task; the tree is the same tree.
pub struct ChildTable {
    params: UtsParams,
    /// Per depth below a geometric tree's limit, `T₁, T₂, …`; empty for
    /// a binomial tree, whose formula is already one comparison.
    rows: Vec<Box<[u32]>>,
}

impl ChildTable {
    /// The tree this table counts children of.
    pub fn params(&self) -> &UtsParams {
        &self.params
    }

    /// [`UtsParams::num_children`] of the node with `state` at `depth`.
    pub fn num_children(&self, state: &[u8; DIGEST_BYTES], depth: u32) -> u32 {
        if let TreeKind::Binomial { .. } = self.params.kind {
            return self.params.num_children(state, depth);
        }
        // A zero draw has no logarithm and the formula gives it no
        // children: the one place the count is not monotone.
        match (self.rows.get(depth as usize), rand_bits(state)) {
            (None, _) | (_, 0) => 0,
            (Some(row), v) => row.iter().take_while(|&&t| v <= t).count() as u32,
        }
    }
}

/// A node state whose draw ([`rand_bits`]) is `v`.
fn drawing(v: u32) -> [u8; DIGEST_BYTES] {
    let mut state = [0; DIGEST_BYTES];
    state[..4].copy_from_slice(&v.to_be_bytes());
    state
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
    /// at 14, 771,955 at 15 — the `sws-perf` `uts-local` tree); the
    /// paper's seed 19 draws a degenerate 3-node tree under our
    /// digest→uniform mapping.
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
    /// Built once here, not per [`Workload::register`]: a world registers
    /// on every PE.
    table: Arc<ChildTable>,
    nodes_visited: Arc<AtomicU64>,
}

impl UtsWorkload {
    /// Workload over `params`.
    pub fn new(params: UtsParams) -> UtsWorkload {
        UtsWorkload {
            table: Arc::new(params.child_table()),
            nodes_visited: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Tree parameters.
    pub fn params(&self) -> &UtsParams {
        self.table.params()
    }

    /// The child-count table every handler over this tree shares.
    pub(crate) fn child_table(&self) -> &Arc<ChildTable> {
        &self.table
    }

    /// Nodes visited across all PEs (valid after a run; in-process
    /// instrumentation, not part of the simulated computation).
    pub fn nodes_visited(&self) -> u64 {
        // relaxed: a statistics counter, read after the run's final
        // barrier; it publishes no other data.
        self.nodes_visited.load(Ordering::Relaxed)
    }
}

impl Workload for UtsWorkload {
    fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>) {
        let table = Arc::clone(&self.table);
        let node_ns = self.params().node_ns;
        let counter = Arc::clone(&self.nodes_visited);
        reg.register(UTS_FN, move |tctx, payload| {
            let mut r = PayloadReader::new(payload);
            let state: [u8; DIGEST_BYTES] = r.bytes();
            let depth = r.u32();
            // relaxed: a statistics counter, read after the run's final
            // barrier; it publishes no other data.
            counter.fetch_add(1, Ordering::Relaxed);
            let n = table.num_children(&state, depth);
            // Visiting a node costs the base node time plus one SHA-1
            // per spawned child (that is the real work UTS does).
            tctx.compute(node_ns + n as u64 * node_ns / 2);
            for i in 0..n {
                let child = UtsParams::node_payload(&spawn_child(&state, i), depth + 1);
                tctx.spawn_parts(UTS_FN, &child);
            }
        });
    }

    fn seeds(&self, pe: usize, _n_pes: usize) -> Vec<TaskDescriptor> {
        if pe == 0 {
            vec![UtsParams::node_task(&self.params().root(), 0)]
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

    pub(super) fn geo(shape: GeomShape, b0: f64, depth_limit: u32, seed: u32) -> UtsParams {
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
            expdec += geo(GeomShape::ExpDec, 2.2, 9, seed)
                .sequential_count()
                .nodes;
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

#[cfg(test)]
mod table_tests {
    use super::shape_tests::geo;
    use super::*;

    #[test]
    fn table_equals_formula_at_every_threshold() {
        let trees = [
            geo(GeomShape::Fixed, 3.0, 6, 1),
            geo(GeomShape::Linear, 4.0, 15, 1),
            geo(GeomShape::Cyclic, 4.0, 12, 1),
            geo(GeomShape::ExpDec, 3.0, 9, 1),
            // Mean 400: every draw below 0.6 asks for more than 200.
            geo(GeomShape::Fixed, 400.0, 3, 1),
        ];
        for p in trees {
            let TreeKind::Geometric { depth_limit, .. } = p.kind else {
                unreachable!()
            };
            let table = p.child_table();
            assert_eq!(table.rows.len(), depth_limit as usize, "{p:?}");
            for (depth, row) in table.rows.iter().enumerate() {
                let depth = depth as u32;
                assert!(
                    row.len() <= 200 && row.is_sorted_by(|a, b| a >= b),
                    "{p:?} depth {depth}"
                );
                let edges = row.iter().flat_map(|&t| [t, t + 1]);
                for v in edges.chain([0, 1, RAND_MAX]).filter(|&v| v <= RAND_MAX) {
                    let state = drawing(v);
                    let want = p.num_children(&state, depth);
                    assert_eq!(
                        table.num_children(&state, depth),
                        want,
                        "{p:?} depth {depth} draw {v}"
                    );
                }
            }
            for depth in [depth_limit, depth_limit + 1, u32::MAX] {
                assert_eq!(
                    table.num_children(&drawing(1), depth),
                    0,
                    "{p:?} depth {depth}"
                );
            }
        }
        let clamped = geo(GeomShape::Fixed, 400.0, 3, 1).child_table();
        assert_eq!(clamped.rows[0].len(), 200);
        assert_eq!(clamped.num_children(&drawing(clamped.rows[0][199]), 0), 200);
        // The trough of a cyclic tree has mean 0: no draw has a child.
        assert!(geo(GeomShape::Cyclic, 4.0, 12, 1).child_table().rows[6].is_empty());
    }

    #[test]
    fn binomial_trees_pass_through() {
        let p = UtsParams::bin_small(32, 1);
        let table = p.child_table();
        assert!(table.rows.is_empty());
        let mut state = p.root();
        assert_eq!(table.num_children(&state, 0), 32);
        for i in 0..200 {
            state = spawn_child(&state, i % 3);
            assert_eq!(
                table.num_children(&state, 1 + i),
                p.num_children(&state, 1 + i)
            );
        }
    }

    #[test]
    fn table_driven_traversal_counts_the_same_tree() {
        let p = UtsParams::geo_small(12);
        let table = p.child_table();
        let stats = p.traverse(|state, depth| table.num_children(state, depth));
        assert_eq!(stats.nodes, 104_259);
        assert_eq!(stats, p.sequential_count());
    }

    /// Building the table per registration cost `uts-wide` (512 PEs)
    /// 3.6× its wall time.
    #[test]
    fn every_registration_shares_the_workloads_one_table() {
        let w = UtsWorkload::new(UtsParams::geo_small(15));
        let registries: Vec<TaskRegistry<TaskCtx>> = (0..512)
            .map(|_| {
                let mut reg = TaskRegistry::new();
                w.register(&mut reg);
                reg
            })
            .collect();
        assert_eq!(Arc::strong_count(&w.table), 1 + registries.len());
    }

    /// The thresholds assume the formula never gives a larger draw more
    /// children; only trying every draw shows it. ≈ 80 s in release:
    /// `cargo test -p sws-workloads --release -- --ignored` (CI, nightly).
    #[test]
    #[ignore = "2^31 formula evaluations"]
    fn table_equals_formula_on_every_draw_at_one_depth() {
        let p = UtsParams::geo_small(15);
        let table = p.child_table();
        for v in 0..=RAND_MAX {
            let state = drawing(v);
            assert_eq!(
                table.num_children(&state, 7),
                p.num_children(&state, 7),
                "draw {v}"
            );
        }
    }
}

#[cfg(test)]
mod oracle_pins {
    use super::shape_tests::geo;
    use super::*;

    fn stats(nodes: u64, max_depth: u64, leaves: u64) -> TreeStats {
        TreeStats {
            nodes,
            max_depth,
            leaves,
        }
    }

    /// The oracle's counts of the `geo_small` family, one per depth limit
    /// from 8 to 15 (the `sws-perf` `uts-local` tree).
    #[test]
    fn geo_small_counts_are_pinned() {
        let pins = [
            (8, stats(6_217, 8, 3_545)),
            (9, stats(12_691, 9, 7_067)),
            (10, stats(25_317, 10, 13_940)),
            (11, stats(52_383, 11, 28_667)),
            (12, stats(104_259, 12, 56_882)),
            (13, stats(209_087, 13, 113_241)),
            (14, stats(395_057, 14, 212_427)),
            (15, stats(771_955, 15, 413_072)),
        ];
        for (depth_limit, want) in pins {
            let got = UtsParams::geo_small(depth_limit).sequential_count();
            assert_eq!(got, want, "geo_small({depth_limit})");
        }
    }

    /// Binomial trees from a few roots: seed 11 is 121 levels deep.
    #[test]
    fn bin_small_counts_are_pinned() {
        let pins = [
            (0, stats(89, 5, 79)),
            (1, stats(97, 4, 86)),
            (3, stats(697, 22, 611)),
            (11, stats(19_777, 121, 17_306)),
        ];
        for (seed, want) in pins {
            let got = UtsParams::bin_small(16, seed).sequential_count();
            assert_eq!(got, want, "bin_small(16, {seed})");
        }
    }

    /// The traversal deriving children one at a time (what a CPU without
    /// AVX-512 runs) counts the trees the batched one counts.
    #[test]
    fn one_at_a_time_traversal_counts_the_same_trees() {
        for p in [UtsParams::geo_small(12), UtsParams::bin_small(16, 11)] {
            let formula = |state: &[u8; DIGEST_BYTES], depth| p.num_children(state, depth);
            let each = p.traverse_with(crate::sha1::spawn_children_each, formula);
            assert_eq!(each, p.sequential_count(), "{p:?}");
        }
    }

    /// The three geometric shapes `geo_small` does not use.
    #[test]
    fn other_shape_counts_are_pinned() {
        let pins = [
            (geo(GeomShape::Fixed, 3.0, 8, 5), stats(60_171, 8, 45_110)),
            (geo(GeomShape::Fixed, 2.2, 9, 0), stats(2_791, 9, 1_936)),
            (geo(GeomShape::Cyclic, 3.0, 8, 5), stats(178, 4, 108)),
            (geo(GeomShape::Cyclic, 4.0, 12, 1), stats(248, 6, 148)),
            (geo(GeomShape::ExpDec, 3.0, 8, 5), stats(201, 6, 117)),
            (geo(GeomShape::ExpDec, 4.0, 12, 1), stats(315, 12, 160)),
        ];
        for (params, want) in pins {
            assert_eq!(params.sequential_count(), want, "{params:?}");
        }
    }
}
