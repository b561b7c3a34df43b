//! The work-first scheduler loop (paper §2.1 / §3).
//!
//! Each PE runs [`Worker::run`] to global termination:
//!
//! 1. execute the newest local task (LIFO — depth-first, which bounds
//!    queue space at O(T_depth));
//! 2. when the shared portion has drained and enough local work exists,
//!    **release** half of it (after flushing the termination detector's
//!    spawn counts, so visible work is always globally accounted);
//! 3. when the local portion drains, **acquire** from the shared portion;
//! 4. when the whole queue drains, enter the idle set and **search**:
//!    pick uniform-random victims and attempt steal-half operations,
//!    probing damped (empty-mode) targets read-only first, until work is
//!    found or the termination detector fires.
//!
//! Timing is decomposed per the paper's convention: successful steal
//! operations count as *steal time*, failed attempts and probes as
//! *search time* (§5.3).
//!
//! **Fault mode.** When the world carries an active fault plan the loop
//! grows four behaviours:
//!
//! * steals that come back `Failed`/`Aborted` count as search time and
//!   feed the quarantine tracker — a victim that is down, or fails
//!   [`crate::damping::QUARANTINE_AFTER`] consecutive times, is excluded
//!   from the victim pool for the rest of the run (graceful degradation);
//! * at its scheduled crash deadline a PE performs an orderly
//!   [crash-stop](Worker::crash_stop): retire the queue (draining every
//!   outstanding claim), execute everything it still owns, flush and
//!   park in the termination detector's idle set, mark itself down, and
//!   exit without the closing barrier — peers fail fast against it and
//!   no task is lost or duplicated;
//! * an idle PE whose entire victim pool is quarantined stops searching
//!   and polls only the termination detector;
//! * an idle PE that still has ring space outstanding — claims whose
//!   thieves have not completed — keeps running the queue's reclaim, and
//!   leaves the idle set when an abandoned block comes back to it.

use sws_core::{StealOutcome, StealQueue};
use sws_shmem::rng::SplitMix64;
use sws_shmem::ShmemCtx;
use sws_task::{decode_record, TaskDescriptor, TaskRegistry, MAX_PAYLOAD};

use crate::config::SchedConfig;
use crate::damping::DampingState;
use crate::report::WorkerStats;
use crate::taskctx::TaskCtx;
use crate::termination::CounterTd;
use crate::trace::{EventKind, EventLog};
use crate::victim::VictimSelector;

/// Fixed per-task scheduler overhead charged to the virtual clock, ns
/// (dequeue + dispatch; measured Scioto overheads are sub-µs).
const TASK_OVERHEAD_NS: u64 = 120;

/// Minimum local tasks before a release is worthwhile.
const RELEASE_MIN_LOCAL: u64 = 2;

/// One PE's scheduler, generic over the queue implementation.
/// `'a` is the PE context lifetime (task contexts hold it); `'r` is the
/// registry borrow, which may be shorter.
pub struct Worker<'r, 'a, Q: StealQueue> {
    pub(crate) ctx: &'a ShmemCtx,
    pub(crate) queue: Q,
    registry: &'r TaskRegistry<TaskCtx<'a>>,
    pub(crate) td: CounterTd,
    pub(crate) victims: Option<VictimSelector>,
    pub(crate) damping: DampingState,
    pub(crate) cfg: SchedConfig,
    pub(crate) stats: WorkerStats,
    /// Records that could not be enqueued because the ring was full,
    /// newest last; they run before anything else (inline-execution
    /// fallback).
    overflow: Vec<u64>,
    tctx: TaskCtx<'a>,
    /// The record being enqueued or executed (`task_words` long).
    rec: Vec<u64>,
    /// The executing task's payload bytes.
    payload: [u8; MAX_PAYLOAD],
    tasks_since_progress: u64,
    /// Steal attempts until the sampler next opens the capture window;
    /// `None` when sampling is off (window stays open — full capture).
    sample_countdown: Option<u32>,
    pub(crate) had_work: bool,
    pub(crate) log: EventLog,
}

impl<'r, 'a, Q: StealQueue> Worker<'r, 'a, Q> {
    /// Build a worker around an already-constructed queue and detector.
    pub fn new(
        ctx: &'a ShmemCtx,
        queue: Q,
        registry: &'r TaskRegistry<TaskCtx<'a>>,
        td: CounterTd,
        cfg: SchedConfig,
    ) -> Worker<'r, 'a, Q> {
        let victims = if ctx.n_pes() >= 2 {
            Some(VictimSelector::with_policy(
                cfg.seed,
                ctx.my_pe(),
                ctx.n_pes(),
                cfg.victim,
            ))
        } else {
            None
        };
        // Span sampling (see `SchedConfig::sample_period`): with capture
        // armed and N > 1, the window opens for a seeded 1-in-N subset
        // of steal attempts. Systematic sampling with a per-PE random
        // phase — the phase decorrelates PEs, the fixed period keeps
        // estimator variance low — and the draw never touches the
        // virtual clock, so sampling cannot perturb results.
        let sample_countdown = (cfg.sample_period > 1 && ctx.proto_capture_active()).then(|| {
            ctx.set_capture_window(false);
            let mut rng = SplitMix64::stream(cfg.seed ^ 0x5A3B_1E5A_3B1E_5A3B, ctx.my_pe() as u64);
            rng.below(cfg.sample_period as u64) as u32
        });
        let mut w = Worker {
            ctx,
            queue,
            registry,
            td,
            victims,
            damping: DampingState::new(ctx.n_pes(), cfg.damping),
            cfg,
            stats: WorkerStats::default(),
            overflow: Vec::new(),
            tctx: TaskCtx::new(ctx, cfg.queue.task_words),
            rec: vec![0; cfg.queue.task_words],
            payload: [0; MAX_PAYLOAD],
            tasks_since_progress: 0,
            sample_countdown,
            had_work: false,
            log: EventLog::new(cfg.trace),
        };
        w.stats.sample_period = if w.sample_countdown.is_some() {
            cfg.sample_period
        } else {
            0
        };
        w
    }

    /// Seed the pool with initial tasks on this PE (call before `run`;
    /// the seeding itself is counted as spawned work).
    pub fn seed(&mut self, tasks: &[TaskDescriptor]) {
        for t in tasks {
            self.enqueue_or_overflow(t);
        }
        self.td.on_spawn(tasks.len() as u64);
        if !tasks.is_empty() {
            self.had_work = true;
        }
    }

    /// Enqueue one task from outside the pool (a seed, a service arrival);
    /// it runs from `overflow` if the ring is full even after reclaiming.
    pub(crate) fn enqueue_or_overflow(&mut self, t: &TaskDescriptor) {
        t.encode(&mut self.rec);
        if self.queue.enqueue_records(&self.rec) == 0 {
            self.overflow.extend_from_slice(&self.rec);
        }
    }

    /// Run the next task this PE owns — overflow first (records that
    /// bypassed the full ring), else the newest local record, followed by
    /// [`Worker::upkeep`] when `upkeep` is set (a retired or parked queue
    /// gets none). `false` when nothing owned is left to run.
    pub(crate) fn run_owned(&mut self, upkeep: bool) -> bool {
        // Overflow holds whole records, so it is either empty or at least
        // one record long.
        let from_ring = match self.overflow.len().checked_sub(self.rec.len()) {
            Some(at) => {
                self.rec.copy_from_slice(&self.overflow[at..]);
                self.overflow.truncate(at);
                false
            }
            None if self.queue.pop_record(&mut self.rec) => true,
            None => return false,
        };
        self.execute();
        if from_ring && upkeep {
            self.upkeep();
        }
        true
    }

    /// Execute the task in `rec`: run the handler, charge its compute
    /// time, then hand its spawns to the queue.
    fn execute(&mut self) {
        let (fn_id, len) = decode_record(&self.rec, &mut self.payload);
        self.tctx.reset();
        self.registry
            .dispatch(&mut self.tctx, fn_id, &self.payload[..len]);
        let task_ns = self.tctx.compute_ns() + TASK_OVERHEAD_NS;
        self.ctx.compute(task_ns);
        self.stats.task_ns += task_ns;
        if let Some(inject_ns) = self.tctx.take_arrival_mark() {
            // Service-mode arrival: record enqueue→completion latency
            // after the compute charge, so the sample covers the task's
            // own execution time.
            let lat = self.ctx.now_ns().saturating_sub(inject_ns);
            self.stats.service.latency.record(lat);
        }
        // Hand the spawns to the queue; each record that finds the ring
        // full even after its reclaim goes to `overflow` instead, and the
        // rest are offered again.
        let (mut records, mut spawned) = (self.tctx.spawned(), 0);
        while !records.is_empty() {
            let written = self.queue.enqueue_records(records);
            records = &records[written * self.rec.len()..];
            spawned += written;
            if let Some((rec, rest)) = records.split_at_checked(self.rec.len()) {
                self.overflow.extend_from_slice(rec);
                records = rest;
                spawned += 1;
            }
        }
        self.td.on_spawn(spawned as u64);
        self.td.on_complete(1);
        self.stats.tasks_executed += 1;
        self.tasks_since_progress += 1;
    }

    /// Queue upkeep after a task: progress reclamation every
    /// `progress_interval` tasks, and a release whenever the shared
    /// portion has drained and enough local work exists (checked after
    /// every task, as Scioto effectively does).
    pub(crate) fn upkeep(&mut self) {
        if self.tasks_since_progress >= self.cfg.progress_interval {
            self.tasks_since_progress = 0;
            let t0 = self.ctx.now_ns();
            self.queue.progress();
            self.stats.upkeep_ns += self.ctx.now_ns() - t0;
        }
        if self.queue.local_count() >= RELEASE_MIN_LOCAL {
            let t0 = self.ctx.now_ns();
            if self.queue.shared_estimate() == 0 {
                // Make the tasks globally accounted before they become
                // stealable (counter-TD safety invariant).
                self.td.flush(self.ctx);
                let before = self.queue.local_count();
                if self.queue.release() {
                    // Release can reclaim aborted claims back into the
                    // local section, so the count may have *grown*.
                    let exposed = before.saturating_sub(self.queue.local_count());
                    self.log
                        .record(self.ctx.now_ns(), EventKind::Release {
                            exposed: exposed as u32,
                        });
                }
            }
            self.stats.upkeep_ns += self.ctx.now_ns() - t0;
        }
    }

    /// Whether the sampler elects this steal attempt for capture.
    /// Advances the countdown and the attempt counters; never touches
    /// the virtual clock. Always `false` when sampling is off.
    fn sample_this_attempt(&mut self) -> bool {
        self.stats.steal_attempts += 1;
        let Some(countdown) = self.sample_countdown.as_mut() else {
            return false;
        };
        if *countdown == 0 {
            *countdown = self.cfg.sample_period - 1;
            self.stats.steal_attempts_sampled += 1;
            true
        } else {
            *countdown -= 1;
            false
        }
    }

    /// Attempt one steal against `target`, honouring damping. Returns the
    /// outcome; timing is attributed by the caller. When span sampling is
    /// active, the whole attempt (probe + steal + completion ops) runs
    /// inside one capture window so sampled spans stitch complete.
    pub(crate) fn attempt_steal(&mut self, target: usize) -> StealOutcome {
        let sampled = self.sample_this_attempt();
        if sampled {
            self.ctx.set_capture_window(true);
        }
        let out = self.attempt_steal_inner(target);
        if sampled {
            self.ctx.set_capture_window(false);
        }
        out
    }

    fn attempt_steal_inner(&mut self, target: usize) -> StealOutcome {
        if self.damping.should_probe(target) {
            if !self.queue.probe(target) {
                return StealOutcome::Empty; // damped abort, one read-only op
            }
            self.damping.observed_work(target);
        }
        let out = self.queue.steal_from(target);
        match out {
            StealOutcome::Got { .. } => self.damping.observed_work(target),
            StealOutcome::Empty => self.damping.observed_empty(target),
            // Closed: owner mid-update, no mode change. Failures are
            // accounted by the search step, which also owns the victim
            // pool the quarantine decision updates.
            _ => {}
        }
        out
    }

    /// Record a failed/aborted steal against `target`; quarantine it when
    /// it is known down or its failure streak crosses the threshold.
    fn note_steal_failure(&mut self, target: usize, target_down: bool) {
        let quarantine = target_down || self.damping.observed_failure(target);
        if quarantine && self.victims.as_mut().is_some_and(|v| v.exclude(target)) {
            self.stats.pes_quarantined += 1;
            self.log.record(self.ctx.now_ns(), EventKind::Quarantined {
                victim: target as u32,
            });
        }
    }

    /// One turn of the idle search: pick a live victim, attempt a steal
    /// and attribute its time (a won steal is steal time, anything else
    /// is search time). Returns `true` when this PE has work again; it is
    /// still in the idle set then.
    ///
    /// `spared[v]` marks victims whose failed steals never feed the
    /// quarantine streak — service mode's elastic PEs: to a thief a
    /// parked queue is indistinguishable from a faulty one. A victim
    /// reported down is quarantined regardless.
    pub(crate) fn search_step(&mut self, spared: &[bool]) -> bool {
        // A claim its thief could neither confirm nor poison comes back
        // only through the owner's reclaim, and nothing else runs that
        // while this PE is idle: with ring space still outstanding, look.
        if self.ctx.faults_active() && self.queue.occupancy() > 0 {
            let t0 = self.ctx.now_ns();
            self.queue.progress();
            self.stats.upkeep_ns += self.ctx.now_ns() - t0;
            if self.queue.local_count() > 0 {
                return true;
            }
        }
        // Oversubscribed threaded runs: searching PEs must not starve the
        // victims they are waiting on for a core.
        self.ctx.idle_hint();
        let Some(target) = self.victims.as_mut().and_then(|v| v.next_live_victim()) else {
            // No peer at all (single-PE world) or every peer quarantined:
            // nothing left to steal from, only termination (or our own
            // crash) remains.
            self.ctx.compute(200);
            return false;
        };
        let t0 = self.ctx.now_ns();
        let out = self.attempt_steal(target);
        let now = self.ctx.now_ns();
        if let StealOutcome::Got { .. } = out {
            self.stats.steal_ns += now - t0;
            if !self.had_work {
                self.had_work = true;
                self.stats.first_work_ns = now;
            }
            return true;
        }
        self.stats.search_ns += now - t0;
        if let StealOutcome::Failed { target_down: down } | StealOutcome::Aborted { target_down: down } = out {
            if down || !spared.get(target).is_some_and(|&s| s) {
                self.note_steal_failure(target, down);
            }
        }
        false
    }

    /// Local portion empty: recover shared work if any.
    pub(crate) fn acquire_shared(&mut self) -> bool {
        let t0 = self.ctx.now_ns();
        let got = self.queue.acquire();
        self.stats.upkeep_ns += self.ctx.now_ns() - t0;
        let kind = if got {
            EventKind::AcquireHit {
                recovered: self.queue.local_count() as u32,
            }
        } else {
            EventKind::AcquireMiss
        };
        self.log.record(self.ctx.now_ns(), kind);
        got
    }

    /// Whole queue empty: enter the idle set.
    pub(crate) fn enter_idle(&mut self) {
        self.td.enter_idle(self.ctx);
        self.log.record(self.ctx.now_ns(), EventKind::EnterIdle);
    }

    /// Work in hand: leave the idle set (must precede executing it).
    pub(crate) fn leave_idle(&mut self) {
        self.td.exit_idle(self.ctx);
        self.log.record(self.ctx.now_ns(), EventKind::ExitIdle);
    }

    /// Execute everything this PE still owns after its queue retired or
    /// parked; children spawned during the drain land in the closed
    /// queue's local portion (never released) and are drained too, so no
    /// work leaves with us.
    pub(crate) fn drain_owned(&mut self) {
        while self.run_owned(false) {}
    }

    /// Freeze this PE's report: runtime, queue counters, event log.
    fn close_stats(&mut self) {
        self.stats.runtime_ns = self.ctx.now_ns();
        self.stats.queue = self.queue.stats().clone();
        self.stats.events = std::mem::take(&mut self.log).into_events();
    }

    /// Global termination (or shutdown): flush passive completions and
    /// counters so post-run assertions see a consistent world, freeze the
    /// report and meet the closing barrier.
    pub(crate) fn shutdown(&mut self) {
        self.queue.flush_completions();
        self.td.flush(self.ctx);
        self.close_stats();
        self.ctx.barrier_all();
    }

    /// Orderly crash-stop at this PE's scheduled failure time. The dying
    /// PE must not take tasks with it: retire the queue (draining every
    /// outstanding claim back into the local portion), execute everything
    /// still owned locally — children spawned during the drain land back
    /// in the retired queue and are drained too — then hand the final
    /// counts to the termination detector, park permanently in its idle
    /// set, and mark the PE down so peers fail fast and quarantine it.
    /// The closing barrier is skipped; `run_world` releases barriers for
    /// PEs marked down.
    pub(crate) fn crash_stop(&mut self, already_idle: bool) {
        self.log.record(self.ctx.now_ns(), EventKind::CrashStop);
        self.stats.crashed = true;
        self.queue.retire();
        self.drain_owned();
        self.queue.flush_completions();
        self.td.flush(self.ctx);
        if !already_idle {
            // Executing after this is safe: the detector only sees the
            // completions at the flush above, and a crashed PE spawns
            // nothing new once its drain loop is empty.
            self.td.enter_idle(self.ctx);
        }
        self.close_stats();
        self.ctx.mark_self_down();
    }

    /// Run to global termination; returns this PE's stats.
    pub fn run(mut self) -> (WorkerStats, Q) {
        'outer: loop {
            if self.ctx.crash_due() {
                self.crash_stop(false);
                return (self.stats, self.queue);
            }
            if self.run_owned(true) || self.acquire_shared() {
                continue;
            }
            // Whole queue empty: search. Termination is polled every few
            // attempts rather than every attempt — polling is a remote
            // read of PE 0 and would otherwise dominate search cost.
            self.enter_idle();
            let mut search_iters = 0u32;
            loop {
                if self.ctx.crash_due() {
                    self.crash_stop(true);
                    return (self.stats, self.queue);
                }
                if search_iters.is_multiple_of(4) && self.td.poll_terminated(self.ctx) {
                    break 'outer;
                }
                search_iters += 1;
                if self.search_step(&[]) {
                    self.leave_idle();
                    continue 'outer;
                }
            }
        }
        self.shutdown();
        (self.stats, self.queue)
    }
}
