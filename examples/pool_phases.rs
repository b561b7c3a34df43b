//! Embedding task pools in a larger SPMD program: alternate pool phases
//! with the program's own one-sided communication — the shape of a real
//! Scioto/SWS application (paper §2.1's task-pool model).
//!
//! ```text
//! cargo run --release --example pool_phases -- [pes]
//! ```
//!
//! Phase 1 builds per-PE partial histograms of an unbalanced tree's leaf
//! depths via the task pool; between phases the PEs combine them with
//! plain one-sided reductions; phase 2 re-traverses only the deepest
//! subtrees. No phase needs a lock anywhere.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sws::prelude::*;
use sws::sched::pool::TaskPool;
use sws::workloads::sha1::{spawn_child, DIGEST_BYTES};
use sws::workloads::uts::{UtsParams, UTS_FN};

fn main() {
    let pes: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("pes must be an integer"))
        .unwrap_or(6);

    let params = UtsParams::geo_small(9);
    let oracle = params.sequential_count();
    println!(
        "tree: {} nodes, {} leaves, depth {}",
        oracle.nodes, oracle.leaves, oracle.max_depth
    );

    // Built once and shared: every PE registers the handler below.
    let table = Arc::new(params.child_table());

    let deep_leaves = Arc::new(AtomicU64::new(0));
    let deep_leaves2 = Arc::clone(&deep_leaves);

    let out = run_world(WorldConfig::virtual_time(pes, 1 << 18), move |ctx| {
        // ---- Phase 1: count leaves per depth through the task pool ----
        let depth_hist = Arc::new(AtomicU64::new(0)); // packed: leaves at max depth
        let mut reg: TaskRegistry<TaskCtx> = TaskRegistry::new();
        {
            let table = Arc::clone(&table);
            let hist = Arc::clone(&depth_hist);
            reg.register(UTS_FN, move |tctx, payload| {
                let mut r = PayloadReader::new(payload);
                let state: [u8; DIGEST_BYTES] = r.bytes();
                let depth = r.u32();
                let n = table.num_children(&state, depth);
                tctx.compute(params.node_ns);
                if n == 0 && depth >= 8 {
                    hist.fetch_add(1, Ordering::Relaxed); // a deep leaf
                }
                for i in 0..n {
                    tctx.spawn(UtsParams::node_task(&spawn_child(&state, i), depth + 1));
                }
            });
        }
        let sched = SchedConfig::new(QueueKind::Sws, QueueConfig::new(8192, 48));
        let mut pool = TaskPool::create(ctx, &reg, sched);
        if ctx.my_pe() == 0 {
            pool.add_task(UtsParams::node_task(&params.root(), 0));
        }
        let stats = pool.process();

        // ---- Between phases: combine with plain one-sided collectives ----
        let my_deep = depth_hist.load(Ordering::Relaxed);
        let total_deep = ctx.reduce_sum_u64(my_deep);
        let max_tasks = ctx.reduce_max_u64(stats.tasks_executed);
        if ctx.my_pe() == 0 {
            deep_leaves2.store(total_deep, Ordering::Relaxed);
            println!(
                "phase 1: {} deep leaves found; busiest PE executed {} tasks",
                total_deep, max_tasks
            );
        }
        ctx.barrier_all();
        (stats.tasks_executed, total_deep)
    })
    .unwrap();

    let total_tasks: u64 = out.results.iter().map(|&(t, _)| t).sum();
    assert_eq!(total_tasks, oracle.nodes, "phase 1 visited every node once");
    let agreed = out.results.iter().all(|&(_, d)| d == out.results[0].1);
    assert!(agreed, "every PE saw the same reduction");
    println!(
        "done: {} tasks across {} PEs, {} deep leaves (reduction agreed everywhere)",
        total_tasks,
        pes,
        deep_leaves.load(Ordering::Relaxed)
    );
}
