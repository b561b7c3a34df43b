//! Sparse-graph traversal — the "sparse or irregular data" application
//! class the paper's abstract motivates.
//!
//! A deterministic synthetic sparse digraph is defined purely by
//! hashing: vertex `v`'s out-degree and neighbor list follow from
//! `mix(seed, v, i)`, so the graph occupies no memory and any PE can
//! expand any vertex locally. A small fraction of *hub* vertices with
//! large fan-out makes the traversal frontier highly irregular.
//!
//! The parallel traversal is a genuine PGAS application (paper §2.1:
//! tasks "are allowed to communicate and use data stored in the global
//! address space"): a `visited` word per vertex lives on its owner PE
//! (`v mod P`), and a task claims a vertex with one remote **atomic
//! swap** before expanding it — so correctness depends on the substrate's
//! remote atomics, not just on queue discipline.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use sws_shmem::{ShmemCtx, SymAddr};
use sws_sched::{TaskCtx, Workload};
use sws_task::{PayloadReader, PayloadWriter, TaskDescriptor, TaskRegistry};

/// Task function id for vertex-visit tasks.
pub const VISIT_FN: u16 = 50;

/// Synthetic sparse digraph parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GraphParams {
    /// Vertices in the graph.
    pub n_vertices: u64,
    /// Out-degree of ordinary vertices: `h % (base_degree + 1)`.
    pub base_degree: u32,
    /// Out-degree of hub vertices.
    pub hub_degree: u32,
    /// Percent of vertices that are hubs.
    pub hub_pct: u8,
    /// Graph seed.
    pub seed: u64,
    /// Virtual ns charged per vertex expansion.
    pub visit_ns: u64,
}

/// SplitMix64 — a tiny, well-mixed hash for synthetic adjacency.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl GraphParams {
    /// A small irregular graph: 2 % hubs of degree 64 over a base
    /// degree of ≤ 3 — sparse with sudden frontier explosions.
    pub fn small(n_vertices: u64, seed: u64) -> GraphParams {
        GraphParams {
            n_vertices,
            base_degree: 3,
            hub_degree: 64,
            hub_pct: 2,
            seed,
            visit_ns: 200,
        }
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: u64) -> u32 {
        let h = mix(self.seed ^ v.wrapping_mul(0x517C_C1B7_2722_0A95));
        if (h % 100) < self.hub_pct as u64 {
            self.hub_degree
        } else {
            (mix(h) % (self.base_degree as u64 + 1)) as u32
        }
    }

    /// Neighbor `i` of `v`.
    pub fn neighbor(&self, v: u64, i: u32) -> u64 {
        mix(self.seed ^ v.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (i as u64) << 40)
            % self.n_vertices
    }

    /// Sequential BFS oracle: vertices reachable from `root`
    /// (including `root`).
    pub fn sequential_reachable(&self, root: u64) -> u64 {
        let mut visited = vec![false; self.n_vertices as usize];
        let mut stack = vec![root];
        visited[root as usize] = true;
        let mut count = 0u64;
        while let Some(v) = stack.pop() {
            count += 1;
            for i in 0..self.degree(v) {
                let n = self.neighbor(v, i) as usize;
                if !visited[n] {
                    visited[n] = true;
                    stack.push(n as u64);
                }
            }
        }
        count
    }

    /// Task visiting vertex `v`.
    pub fn visit_task(v: u64) -> TaskDescriptor {
        let mut w = PayloadWriter::new();
        w.u64(v);
        TaskDescriptor::new(VISIT_FN, w.as_slice())
    }
}

/// Parallel traversal as a [`Workload`]: visited flags live in the
/// symmetric heap, one word per vertex on its owner PE.
pub struct BfsWorkload {
    /// Graph parameters.
    pub params: GraphParams,
    /// Traversal root.
    pub root: u64,
    /// Symmetric word offset of the visited table (set by `setup`;
    /// identical on every PE by symmetric allocation).
    visited_word: Arc<AtomicUsize>,
    claimed: Arc<AtomicU64>,
}

impl BfsWorkload {
    /// Traversal of `params` from `root`.
    pub fn new(params: GraphParams, root: u64) -> BfsWorkload {
        assert!(root < params.n_vertices);
        BfsWorkload {
            params,
            root,
            visited_word: Arc::new(AtomicUsize::new(usize::MAX)),
            claimed: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Vertices claimed across all PEs (valid after a run).
    pub fn vertices_visited(&self) -> u64 {
        self.claimed.load(Ordering::Relaxed)
    }

    fn owner_and_slot(v: u64, n_pes: usize) -> (usize, usize) {
        ((v % n_pes as u64) as usize, (v / n_pes as u64) as usize)
    }
}

impl Workload for BfsWorkload {
    fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>) {
        let params = self.params;
        let visited_word = Arc::clone(&self.visited_word);
        let claimed = Arc::clone(&self.claimed);
        reg.register(VISIT_FN, move |tctx, payload| {
            let mut r = PayloadReader::new(payload);
            let v = r.u64();
            let table = SymAddr::from_word(visited_word.load(Ordering::Relaxed));
            let (owner, slot) = BfsWorkload::owner_and_slot(v, tctx.n_pes());
            // One remote atomic claims the vertex; exactly one task wins.
            let prev = tctx
                .shmem()
                .atomic_swap(owner, table.offset(slot), 1);
            if prev == 0 {
                claimed.fetch_add(1, Ordering::Relaxed);
                tctx.compute(params.visit_ns);
                for i in 0..params.degree(v) {
                    tctx.spawn(GraphParams::visit_task(params.neighbor(v, i)));
                }
            } else {
                tctx.compute(50); // duplicate attempt: cheap rejection
            }
        });
    }

    fn heap_words(&self, n_pes: usize) -> usize {
        (self.params.n_vertices as usize).div_ceil(n_pes).max(1)
    }

    fn setup(&self, ctx: &ShmemCtx) {
        let table = ctx.alloc_words(self.heap_words(ctx.n_pes()));
        self.visited_word.store(table.word(), Ordering::Relaxed);
        ctx.barrier_all();
    }

    fn seeds(&self, pe: usize, _n_pes: usize) -> Vec<TaskDescriptor> {
        if pe == 0 {
            vec![GraphParams::visit_task(self.root)]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_is_deterministic_and_sparse() {
        let g = GraphParams::small(1000, 7);
        for v in [0u64, 1, 999] {
            assert_eq!(g.degree(v), g.degree(v));
            for i in 0..g.degree(v) {
                let n = g.neighbor(v, i);
                assert!(n < 1000);
                assert_eq!(n, g.neighbor(v, i));
            }
        }
        // Degrees are a mix of small and hub values.
        let mut hubs = 0;
        let mut sum = 0u64;
        for v in 0..1000 {
            let d = g.degree(v);
            sum += d as u64;
            if d == g.hub_degree {
                hubs += 1;
            }
        }
        assert!(hubs > 2 && hubs < 100, "{hubs} hubs");
        let avg = sum as f64 / 1000.0;
        assert!(avg > 1.0 && avg < 8.0, "avg degree {avg}");
    }

    #[test]
    fn oracle_counts_reachable_set() {
        let g = GraphParams::small(500, 3);
        let r = g.sequential_reachable(0);
        assert!((1..=500).contains(&r));
        // Stable across calls.
        assert_eq!(r, g.sequential_reachable(0));
        // Different seeds give different reachable sets (overwhelmingly).
        let g2 = GraphParams::small(500, 4);
        assert_ne!(
            (r, g.sequential_reachable(1)),
            (g2.sequential_reachable(0), g2.sequential_reachable(1))
        );
    }

    #[test]
    fn owner_mapping_partitions_vertices() {
        for n_pes in [1usize, 3, 8] {
            let mut per = vec![0u64; n_pes];
            for v in 0..100 {
                let (o, s) = BfsWorkload::owner_and_slot(v, n_pes);
                assert!(o < n_pes);
                assert_eq!(o as u64 + (s as u64) * n_pes as u64, v);
                per[o] += 1;
            }
            assert!(per.iter().all(|&c| c >= 100 / n_pes as u64));
        }
    }

    #[test]
    fn visit_task_roundtrip() {
        let t = GraphParams::visit_task(123_456);
        let mut r = PayloadReader::new(t.payload());
        assert_eq!(r.u64(), 123_456);
        assert!(t.bytes_needed() <= 24);
    }
}
