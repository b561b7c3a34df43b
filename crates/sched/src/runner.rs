//! Experiment runner: build a world, seed a workload, run every PE to
//! global termination, and collect the paper's metrics — plus, when
//! capture is armed, the world's one protocol log, which the report
//! holds as the world handed it over (in apply order, nothing to merge).

use sws_core::{QueueConfig, SdcQueue, StealQueue, SwsQueue};
use sws_shmem::{
    run_world, ExecMode, FaultPlan, NetModel, ShmemCtx, ShmemError, WorldConfig,
    CACHE_LINE_WORDS, HEAP_CTRL_WORDS,
};
use sws_task::{TaskDescriptor, TaskRegistry};

use crate::config::{QueueKind, SchedConfig};
use crate::report::{RunReport, WorkerStats};
use crate::taskctx::TaskCtx;
use crate::termination::CounterTd;
use crate::worker::Worker;

/// A benchmark workload: handler registration plus initial seeding.
pub trait Workload: Sync {
    /// Register the workload's task handlers (called once per PE; every
    /// PE must build the identical registry). Generic over the PE
    /// lifetime so handlers may hold the PE's `ShmemCtx` surface.
    fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>);

    /// Initial tasks to seed on PE `pe` of `n_pes` (commonly: everything
    /// on PE 0, forcing the load balancer to disseminate).
    fn seeds(&self, pe: usize, n_pes: usize) -> Vec<TaskDescriptor>;

    /// Collective setup before the pool runs: allocate and initialize
    /// any symmetric state the workload's handlers use (default: none).
    /// Called on every PE in SPMD order, before queue construction.
    fn setup(&self, _ctx: &sws_shmem::ShmemCtx) {}

    /// Symmetric-heap words [`Workload::setup`] allocates on each PE of
    /// an `n_pes` world, counting any padding between its own blocks; the
    /// runner sizes the heap from it.
    fn heap_words(&self, _n_pes: usize) -> usize {
        0
    }
}

/// Full experiment configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Number of PEs.
    pub n_pes: usize,
    /// Scheduler/queue configuration.
    pub sched: SchedConfig,
    /// Network model.
    pub net: NetModel,
    /// Optional deterministic fault plan (chaos runs). Inactive plans
    /// are dropped before the world is built, keeping clean runs
    /// bit-identical to a `None` plan.
    pub faults: Option<FaultPlan>,
    /// Capture site-annotated protocol ops into `RunReport::proto` (the
    /// conformance checker's input), in apply order; a threaded run
    /// refuses it. Off by default: hot paths see one extra predictable
    /// branch per op at most.
    pub capture_proto: bool,
    /// Count per-site contention (CAS wins/losses, RMWs, loads, stores)
    /// into `WorkerStats::site_prof`, keyed by raw `AtomicSite` id. Like
    /// capture, the counters are plain per-PE stores that never touch
    /// the virtual clock, so profiled runs stay byte-identical.
    pub profile_sites: bool,
    /// Per-site memory-ordering control (override table + optional live
    /// happens-before tracker and planted defect). `None` for ordinary
    /// runs; `sws-check necessity` attaches one to weaken a single
    /// catalog site per run, its self-tests to plant a defect.
    pub ordering: Option<std::sync::Arc<sws_shmem::OrderingCtl>>,
}

impl RunConfig {
    /// A virtual-time run of `kind` on `n_pes` PEs with the default
    /// EDR-InfiniBand-like network.
    pub fn new(n_pes: usize, sched: SchedConfig) -> RunConfig {
        RunConfig {
            n_pes,
            sched,
            net: NetModel::edr_infiniband(),
            faults: None,
            capture_proto: false,
            profile_sites: false,
            ordering: None,
        }
    }

    /// Attach a fault plan to the run.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> RunConfig {
        self.faults = Some(plan);
        self
    }

    /// Capture the protocol op trace for conformance checking.
    #[must_use]
    pub fn with_capture_proto(mut self) -> RunConfig {
        self.capture_proto = true;
        self
    }

    /// Count per-site contention into `WorkerStats::site_prof`.
    #[must_use]
    pub fn with_profile_sites(mut self) -> RunConfig {
        self.profile_sites = true;
        self
    }

    /// Attach the test control (the necessity prover's mutant table and
    /// live tracker, or a self-test's planted defect).
    #[must_use]
    pub fn with_ordering(mut self, ctl: std::sync::Arc<sws_shmem::OrderingCtl>) -> RunConfig {
        self.ordering = Some(ctl);
        self
    }

    /// The world this run executes in under `mode`: the one place a
    /// `RunConfig` field becomes a `WorldConfig` field, so no entry point
    /// can honour a field another drops. The heap is what one PE
    /// allocates: the workload's [`Workload::heap_words`], the detector's
    /// counters, the queue's three, in that order.
    fn world(&self, mode: ExecMode, workload_words: usize) -> WorldConfig {
        // The bump allocator's cursor, replayed: the workload's words
        // follow the world's control words unaligned, every later block
        // (detector, the queue's three) starts on a line.
        let blocks = self.sched.kind.blocks(&self.sched.queue);
        let heap_words = std::iter::once(CounterTd::HEAP_WORDS)
            .chain(blocks)
            .fold(HEAP_CTRL_WORDS + workload_words, |cursor, words| {
                cursor.next_multiple_of(CACHE_LINE_WORDS) + words
            });
        WorldConfig {
            n_pes: self.n_pes,
            heap_words,
            net: self.net,
            mode,
            faults: self.faults.clone(),
            capture_proto: self.capture_proto,
            profile_sites: self.profile_sites,
            ordering: self.ordering.clone(),
        }
    }
}

/// What [`launch`] hands each PE's driver: the PE's context plus the
/// registry, detector and scheduler config the shared
/// prologue built for it.
pub(crate) struct PeSetup<'r, 'a> {
    pub(crate) ctx: &'a ShmemCtx,
    sched: SchedConfig,
    reg: &'r TaskRegistry<TaskCtx<'a>>,
    td: CounterTd,
    seeds: Vec<TaskDescriptor>,
}

impl<'r, 'a> PeSetup<'r, 'a> {
    pub(crate) fn kind(&self) -> QueueKind {
        self.sched.kind
    }

    /// This PE's seeded worker over a queue collectively built by
    /// `make_queue` (`SwsQueue::new` / `SdcQueue::new`).
    pub(crate) fn worker<Q: StealQueue>(
        self,
        make_queue: impl FnOnce(&'a ShmemCtx, QueueConfig) -> Q,
    ) -> Worker<'r, 'a, Q> {
        let queue = make_queue(self.ctx, self.sched.queue);
        let mut w = Worker::new(self.ctx, queue, self.reg, self.td, self.sched);
        w.seed(&self.seeds);
        w
    }
}

/// The launch shared by batch and service runs. It refuses, as
/// [`ShmemError::BadConfig`] before any PE starts, a queue the stealval
/// cannot address and a fault plan that crashes a PE below
/// `protected_pes` (PE 0 hosts the termination counters, service mode
/// adds its ingress PEs); `run_world` refuses the rest of a malformed
/// plan. Then it builds the world — its heap sized for the workload, the
/// detector and the queue — runs `drive` on every PE between the common
/// prologue and epilogue, and assembles the report.
pub(crate) fn launch(
    cfg: &RunConfig,
    mode: ExecMode,
    workload: &impl Workload,
    protected_pes: usize,
    drive: impl for<'r, 'a> Fn(PeSetup<'r, 'a>) -> WorkerStats + Sync,
) -> Result<RunReport, ShmemError> {
    let sched = cfg.sched;
    sched.queue.validate().map_err(ShmemError::BadConfig)?;
    // A run that kills a protected PE cannot terminate.
    let crashes = cfg.faults.iter().flat_map(|plan| &plan.crashes);
    if let Some(pe) = crashes.map(|c| c.pe).find(|&pe| pe < protected_pes) {
        let role = if pe == 0 { "hosts the termination counters" } else { "feeds the service (ingress PE)" };
        return Err(ShmemError::BadConfig(format!("fault plan crashes PE {pe}, which {role}")));
    }
    let world = cfg.world(mode, workload.heap_words(cfg.n_pes));
    let out = run_world(world, |ctx| {
        let mut reg = TaskRegistry::new();
        workload.register(&mut reg);
        workload.setup(ctx);
        let td = CounterTd::new(ctx);
        let seeds = workload.seeds(ctx.my_pe(), ctx.n_pes());
        let mut ws = drive(PeSetup { ctx, sched, reg: &reg, td, seeds });
        ws.engine = ctx.engine_stats();
        ws.site_prof = ctx.take_site_profile();
        ws
    })?;

    let mut workers = out.results;
    for (w, &t) in workers.iter_mut().zip(out.virtual_ns.iter()) {
        // In virtual mode runtime_ns was sampled pre-barrier; the final
        // clock includes the closing barrier. Report the pre-barrier
        // value (the paper stops timers at termination detection) but
        // fall back to the world clock in threaded mode.
        if w.runtime_ns == 0 {
            w.runtime_ns = t;
        }
    }
    let makespan_ns = workers.iter().map(|w| w.runtime_ns).max().unwrap_or(0);
    Ok(RunReport {
        system: sched.kind.label().to_string(),
        n_pes: cfg.n_pes,
        makespan_ns,
        workers,
        comm: out.stats,
        proto: out.proto,
        wall_ms: out.elapsed.as_millis() as u64,
    })
}

/// Run `workload` to global termination in a virtual-time world and
/// report the paper's metrics.
pub fn run_workload(cfg: &RunConfig, workload: &impl Workload) -> RunReport {
    run_workload_mode(cfg, workload, ExecMode::Virtual)
}

/// As [`run_workload`], but selecting the execution mode (threaded mode
/// is used by the concurrency stress tests).
pub fn run_workload_mode(
    cfg: &RunConfig,
    workload: &impl Workload,
    mode: ExecMode,
) -> RunReport {
    try_run_workload_mode(cfg, workload, mode).expect("workload run failed")
}

/// As [`run_workload_mode`], but a malformed configuration is
/// [`ShmemError::BadConfig`] before any PE starts, and a PE panic is
/// [`ShmemError::PePanicked`] instead of an abort. The exploration
/// scheduler uses the latter: an invariant violation inside the queue
/// under an adversarial interleaving becomes a counterexample.
pub fn try_run_workload_mode(
    cfg: &RunConfig,
    workload: &impl Workload,
    mode: ExecMode,
) -> Result<RunReport, ShmemError> {
    launch(cfg, mode, workload, 1, |pe| match pe.kind() {
        QueueKind::Sws => pe.worker(SwsQueue::new).run().0,
        QueueKind::Sdc => pe.worker(SdcQueue::new).run().0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_shmem::{OpClass, RetryPolicy, TargetSel};

    /// No handlers, no seeds: the pool terminates at once.
    struct Idle;

    impl Workload for Idle {
        fn register<'a>(&self, _reg: &mut TaskRegistry<TaskCtx<'a>>) {}
        fn seeds(&self, _pe: usize, _n_pes: usize) -> Vec<TaskDescriptor> {
            Vec::new()
        }
    }

    /// The fault-path knobs have one home, `SchedConfig.queue`, and a
    /// fault plan must not replace what the caller set there.
    #[test]
    fn queue_fault_knobs_reach_the_queue_under_faults() {
        let queue = QueueConfig::new(64, 24)
            .with_reclaim_grace_ns(77)
            .with_retry(RetryPolicy::none());
        let drops = FaultPlan::seeded(7).with_drop(OpClass::All, TargetSel::Any, 0.01);
        let cfg = RunConfig::new(2, SchedConfig::new(QueueKind::Sws, queue)).with_faults(drops);
        launch(&cfg, ExecMode::Virtual, &Idle, 1, |pe| {
            let worker = pe.worker(SwsQueue::new);
            let built = *worker.queue.config();
            assert_eq!(built.reclaim_grace_ns, 77);
            assert_eq!(built.retry.max_attempts, 1);
            worker.run().0
        })
        .expect("idle run terminates");
    }
}
