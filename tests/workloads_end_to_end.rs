//! Cross-crate integration: the paper's workloads run through the full
//! stack (shmem substrate → queues → scheduler → workload) and match
//! their sequential oracles on both queue implementations.

use sws::prelude::*;
use sws::sched::{try_run_service, try_run_workload_mode, ArrivalSource, ServiceWorkload};
use sws::shmem::ShmemError;
use sws::workloads::arrivals::{ArrivalPlan, FlatServe};
use sws::workloads::bpc::{BpcParams, BpcWorkload};
use sws::workloads::graph::{BfsWorkload, GraphParams};
use sws::workloads::synth::FlatBag;
use sws::workloads::uts::{UtsParams, UtsWorkload};

fn cfg(kind: QueueKind, n_pes: usize, task_bytes: usize) -> RunConfig {
    RunConfig::new(n_pes, SchedConfig::new(kind, QueueConfig::new(2048, task_bytes)))
}

#[test]
fn uts_parallel_count_matches_sequential_oracle() {
    let params = UtsParams::geo_small(6);
    let expected = params.sequential_count();
    assert!(expected.nodes > 100, "tree is nontrivial: {expected:?}");
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        for n_pes in [1, 2, 4, 8] {
            let w = UtsWorkload::new(params);
            let report = run_workload(&cfg(kind, n_pes, 48), &w);
            assert_eq!(
                report.total_tasks(),
                expected.nodes,
                "{kind:?} × {n_pes} PEs"
            );
            assert_eq!(w.nodes_visited(), expected.nodes);
        }
    }
}

#[test]
fn uts_binomial_matches_oracle() {
    let params = UtsParams::bin_small(64, 3);
    let expected = params.sequential_count();
    let w = UtsWorkload::new(params);
    let report = run_workload(&cfg(QueueKind::Sws, 6, 48), &w);
    assert_eq!(report.total_tasks(), expected.nodes);
}

#[test]
fn bpc_executes_exactly_its_task_graph() {
    let params = BpcParams::scaled(16, 12);
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let w = BpcWorkload::new(params);
        let report = run_workload(&cfg(kind, 4, 32), &w);
        assert_eq!(report.total_tasks(), params.total_tasks(), "{kind:?}");
        assert_eq!(w.executed(), params.total_tasks());
    }
}

#[test]
fn bpc_producers_bounce_across_pes() {
    // The defining BPC behaviour: producers sit at the steal side, so
    // with several PEs the work front must spread — every PE executes a
    // decent share of consumers.
    let params = BpcParams::scaled(32, 16);
    let w = BpcWorkload::new(params);
    let report = run_workload(&cfg(QueueKind::Sws, 4, 32), &w);
    let total = report.total_tasks();
    for (pe, ws) in report.workers.iter().enumerate() {
        assert!(
            ws.tasks_executed > total / 16,
            "PE {pe} starved: {} of {total}",
            ws.tasks_executed
        );
    }
}

#[test]
fn flat_bag_disseminates_and_balances() {
    let w = FlatBag::new(400, 50_000, 24);
    let report = run_workload(&cfg(QueueKind::Sws, 8, 24), &w);
    assert_eq!(report.total_tasks(), 400);
    // Coarse independent tasks on 8 PEs should balance decently.
    assert!(
        report.parallel_efficiency() > 0.5,
        "efficiency {}",
        report.parallel_efficiency()
    );
}

#[test]
fn sws_beats_sdc_on_fine_grained_uts() {
    // The paper's headline (Fig. 8b): SWS wins clearly on fine-grained
    // UTS because steal latency dominates. Same tree, same seeds. (The
    // tree must be large enough that steal traffic, not startup noise,
    // dominates — ~25 k nodes at depth 10.)
    let params = UtsParams::geo_small(10);
    let uts_sws = UtsWorkload::new(params);
    let uts_sdc = UtsWorkload::new(params);
    let r_sws = run_workload(&cfg(QueueKind::Sws, 8, 48), &uts_sws);
    let r_sdc = run_workload(&cfg(QueueKind::Sdc, 8, 48), &uts_sdc);
    assert_eq!(r_sws.total_tasks(), r_sdc.total_tasks());
    assert!(
        r_sws.makespan_ns < r_sdc.makespan_ns,
        "SWS {} ns !< SDC {} ns",
        r_sws.makespan_ns,
        r_sdc.makespan_ns
    );
    // And steal time specifically is lower (Fig. 8e).
    assert!(
        r_sws.total_steal_ns() < r_sdc.total_steal_ns(),
        "steal time: SWS {} !< SDC {}",
        r_sws.total_steal_ns(),
        r_sdc.total_steal_ns()
    );
}

#[test]
fn virtual_runs_are_reproducible_across_invocations() {
    let run = || {
        let w = UtsWorkload::new(UtsParams::geo_small(6));
        let r = run_workload(&cfg(QueueKind::Sws, 5, 48), &w);
        (r.makespan_ns, r.total_steals(), r.total_search_ns())
    };
    assert_eq!(run(), run());
}

/// `W`, with a `setup` that takes one cache line more than `W` declares:
/// to the runner, `W`'s world with a heap one line too small.
struct OneLineOver<W>(W);

impl<W: Workload> Workload for OneLineOver<W> {
    fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>) {
        self.0.register(reg)
    }
    fn seeds(&self, pe: usize, n_pes: usize) -> Vec<TaskDescriptor> {
        self.0.seeds(pe, n_pes)
    }
    fn heap_words(&self, n_pes: usize) -> usize {
        self.0.heap_words(n_pes)
    }
    fn setup(&self, ctx: &ShmemCtx) {
        self.0.setup(ctx);
        ctx.alloc_words_aligned(1);
    }
}

impl<W: ServiceWorkload> ServiceWorkload for OneLineOver<W> {
    fn n_ingress(&self) -> usize {
        self.0.n_ingress()
    }
    fn arrival_source(&self, pe: usize) -> Option<Box<dyn ArrivalSource>> {
        self.0.arrival_source(pe)
    }
}

/// The run must end in the allocator's one-line exhaustion error.
fn assert_exhausted(run: Result<RunReport, ShmemError>, label: &str) {
    let line = run.err().unwrap_or_else(|| panic!("{label}: ran in a heap one line short")).to_string();
    assert!(line.contains("symmetric heap exhausted"), "{label}: {line}");
    assert_eq!(line.lines().count(), 1, "{label}: {line}");
}

/// The heap a run asks for is derived from what it allocates — workload
/// state, detector counters, the queue's three blocks, the same for batch
/// and service runs — so every workload of this suite fits it, and none
/// fits it with one line taken away: that run ends in an error, not a hang.
#[test]
fn every_workload_runs_in_exactly_the_derived_heap() {
    fn batch<W: Workload>(c: &RunConfig, w: impl Fn() -> W, label: &str) {
        try_run_workload_mode(c, &w(), ExecMode::Virtual).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_exhausted(try_run_workload_mode(c, &OneLineOver(w()), ExecMode::Virtual), label);
    }
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        batch(&cfg(kind, 4, 48), || UtsWorkload::new(UtsParams::geo_small(5)), "uts");
        batch(&cfg(kind, 4, 32), || BpcWorkload::new(BpcParams::scaled(8, 4)), "bpc");
        batch(&cfg(kind, 3, 24), || FlatBag::new(200, 1_000, 24), "flat");
        // 4,001 vertices on 3 PEs: a table that ends mid-line.
        batch(&cfg(kind, 3, 24), || BfsWorkload::new(GraphParams::small(4_001, 11), 0), "bfs");
        let serve = || FlatServe::new(ArrivalPlan::poisson(7, 4_000, 100_000), 2_500, 1);
        let (c, svc) = (cfg(kind, 4, 24), ServiceConfig::default());
        try_run_service(&c, &svc, &serve()).unwrap_or_else(|e| panic!("serve: {e}"));
        assert_exhausted(try_run_service(&c, &svc, &OneLineOver(serve())), "serve");
    }
}

#[test]
fn bfs_parallel_reachable_matches_oracle() {
    let g = GraphParams::small(4000, 11);
    let expected = g.sequential_reachable(0);
    assert!(expected > 100, "reachable set is nontrivial: {expected}");
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        for n_pes in [2, 4, 8] {
            let w = BfsWorkload::new(g, 0);
            let report = run_workload(&cfg(kind, n_pes, 24), &w);
            assert_eq!(
                w.vertices_visited(),
                expected,
                "{kind:?} × {n_pes}: every reachable vertex claimed once"
            );
            // Visit tasks ≥ claims (duplicates rejected via the atomic).
            assert!(report.total_tasks() >= expected);
        }
    }
}

#[test]
fn bfs_claims_are_exclusive_under_threaded_concurrency() {
    let g = GraphParams::small(2000, 23);
    let expected = g.sequential_reachable(5);
    let w = BfsWorkload::new(g, 5);
    let run_cfg = cfg(QueueKind::Sws, 4, 24);
    let _ = sws::sched::runner::run_workload_mode(&run_cfg, &w, ExecMode::Threaded);
    assert_eq!(w.vertices_visited(), expected, "exactly-once claims");
}
