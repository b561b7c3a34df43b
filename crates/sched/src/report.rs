//! Timing decomposition and run reports — the quantities the paper's
//! figures plot.
//!
//! The paper's convention (§5.3): "we treat steal time as time spent
//! performing successful steal operations and search time as time spent
//! looking for work. Failed steal attempts are treated as searches and
//! successful attempts as steals." Whole-program time is "the maximum
//! runtime of any process" since all PEs run until global termination.

use sws_core::QueueStats;
use sws_shmem::{EngineStats, OpStats, ProtoLog, SiteCounters, StatsSummary};

use crate::snapshot::SnapRow;
use crate::trace::{Event, Pow2Histogram};

/// Per-PE service-mode counters (all zero / empty for batch runs).
///
/// Arrival conservation is the load-bearing identity: globally,
/// `completed + shed + in-flight == offered`, where `completed` is the
/// number of latency samples recorded (each admitted arrival records
/// exactly one at execution) and in-flight must be zero once the pool
/// quiesced and shut down.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Arrivals this ingress PE's plan presented (admitted + shed).
    pub offered: u64,
    /// Arrivals injected into the pool (immediately or after defer/block).
    pub admitted: u64,
    /// Arrivals dropped by the `Shed` admission policy.
    pub shed: u64,
    /// Arrivals that waited in the defer buffer at least once.
    pub deferred: u64,
    /// Arrivals that waited head-of-line under the `Block` policy.
    pub blocked: u64,
    /// Total virtual ns arrivals spent waiting for admission (defer and
    /// block wait alike: injection time minus due time).
    pub admission_wait_ns: u64,
    /// Times this PE parked its queue for an elastic away window.
    pub parks: u64,
    /// Times this PE unparked and rejoined the pool.
    pub rejoins: u64,
    /// Peers this PE readmitted to its victim pool (quarantine cleared
    /// when their away window ended).
    pub readmitted: u64,
    /// Quiescent windows this PE observed (entered parked-idle).
    pub quiescent_windows: u64,
    /// Enqueue→completion latency of arrival tasks *executed on this PE*
    /// (arrivals travel by stealing, so samples land where tasks run).
    pub latency: Pow2Histogram,
}

impl ServiceStats {
    /// True when this run never exercised service mode.
    pub fn is_empty(&self) -> bool {
        self.offered == 0
            && self.admitted == 0
            && self.parks == 0
            && self.latency.n == 0
    }
}

/// Per-PE scheduler timing and event counts.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Tasks executed by this PE.
    pub tasks_executed: u64,
    /// Time spent executing task bodies, ns.
    pub task_ns: u64,
    /// Time spent in successful steal operations, ns.
    pub steal_ns: u64,
    /// Time spent searching (failed attempts, probes, termination
    /// polling while idle), ns.
    pub search_ns: u64,
    /// Time spent in release/acquire/progress queue upkeep, ns.
    pub upkeep_ns: u64,
    /// Virtual time at which this PE first obtained work (dissemination
    /// latency; 0 for PEs seeded directly).
    pub first_work_ns: u64,
    /// Final virtual clock of this PE (its runtime).
    pub runtime_ns: u64,
    /// Queue-level counters.
    pub queue: QueueStats,
    /// Did this PE crash-stop at a fault-plan deadline?
    pub crashed: bool,
    /// Victims this PE quarantined (down or persistently failing).
    pub pes_quarantined: u64,
    /// Event trace (empty unless `SchedConfig::trace` was set).
    pub events: Vec<Event>,
    /// Virtual-time engine counters for this PE (all zeros in threaded
    /// mode). Wall-clock quantities — excluded from determinism checks.
    pub engine: EngineStats,
    /// Service-mode counters (all zero for batch runs).
    pub service: ServiceStats,
    /// Steal attempts this PE made (probe-or-steal calls).
    pub steal_attempts: u64,
    /// Attempts the span sampler elected for capture (0 unless sampling).
    pub steal_attempts_sampled: u64,
    /// Effective sampling period: `N` when 1-in-N span sampling was
    /// active on this PE, `0` for full capture / no capture.
    pub sample_period: u32,
    /// Per-site contention counters indexed by raw `AtomicSite` id
    /// (empty unless `RunConfig::profile_sites` was set).
    pub site_prof: Vec<SiteCounters>,
    /// Service-mode telemetry snapshots, one row per tick (empty unless
    /// `ServiceConfig::snapshot_interval_ns` was set).
    pub snapshots: Vec<SnapRow>,
}

/// Everything one experiment run produced.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Label of the queue implementation ("SWS"/"SDC").
    pub system: String,
    /// Number of PEs.
    pub n_pes: usize,
    /// Whole-program runtime: max over PEs of the final virtual clock, ns.
    pub makespan_ns: u64,
    /// Per-PE scheduler stats, rank order.
    pub workers: Vec<WorkerStats>,
    /// Communication statistics (per PE and aggregate).
    pub comm: StatsSummary,
    /// The site-annotated protocol op trace, the world's one log in the
    /// order its effects applied (empty unless `RunConfig::capture_proto`
    /// was set).
    pub proto: ProtoLog,
    /// Wall-clock time the simulation itself took.
    pub wall_ms: u64,
}

impl RunReport {
    /// Total tasks executed across PEs.
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks_executed).sum()
    }

    /// Total task-body time across PEs (the "useful work"), ns.
    pub fn total_task_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.task_ns).sum()
    }

    /// Task throughput in tasks per virtual second.
    pub fn throughput_per_s(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        self.total_tasks() as f64 / (self.makespan_ns as f64 / 1e9)
    }

    /// Parallel efficiency relative to ideal execution: total useful work
    /// divided by the PE-time actually available (the paper's Figs.
    /// 7c/8c). A PE that ran the whole makespan contributes `makespan`;
    /// a crash-stopped PE contributes only the time it was alive, so
    /// fault runs measure the survivors instead of charging dead PEs for
    /// work they could never do. On clean runs this is exactly the
    /// classic `(work / P) / makespan`.
    pub fn parallel_efficiency(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 1.0;
        }
        let avail: u64 = self
            .workers
            .iter()
            .map(|w| {
                if w.crashed {
                    w.runtime_ns.min(self.makespan_ns)
                } else {
                    self.makespan_ns
                }
            })
            .sum();
        if avail == 0 {
            return 1.0;
        }
        self.total_task_ns() as f64 / avail as f64
    }

    /// Sum of successful-steal time across PEs, ns (Figs. 7e/8e).
    pub fn total_steal_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.steal_ns).sum()
    }

    /// Sum of search time across PEs, ns (Figs. 7f/8f).
    pub fn total_search_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.search_ns).sum()
    }

    /// Total steals won across PEs.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.queue.steals_won).sum()
    }

    /// Mean time of one successful steal operation, ns.
    pub fn mean_steal_op_ns(&self) -> f64 {
        let n = self.total_steals();
        if n == 0 {
            return 0.0;
        }
        self.total_steal_ns() as f64 / n as f64
    }

    /// Aggregate communication counters.
    pub fn total_comm(&self) -> &OpStats {
        &self.comm.total
    }

    /// Thief-side steal retries across PEs (fault runs).
    pub fn total_steal_retries(&self) -> u64 {
        self.workers.iter().map(|w| w.queue.steals_retried).sum()
    }

    /// Steals that exhausted their retry budget, across PEs.
    pub fn total_steals_failed(&self) -> u64 {
        self.workers.iter().map(|w| w.queue.steals_failed).sum()
    }

    /// Steals aborted after a successful claim (block poisoned or
    /// returned to the owner), across PEs.
    pub fn total_steals_aborted(&self) -> u64 {
        self.workers.iter().map(|w| w.queue.steals_aborted).sum()
    }

    /// Owner-side poisoned completions observed, across PEs.
    pub fn total_completions_poisoned(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.queue.completions_poisoned)
            .sum()
    }

    /// Owner-side abandoned claims reclaimed after the grace period.
    pub fn total_claims_reclaimed(&self) -> u64 {
        self.workers.iter().map(|w| w.queue.claims_reclaimed).sum()
    }

    /// PEs that crash-stopped during the run.
    pub fn crashed_pes(&self) -> usize {
        self.workers.iter().filter(|w| w.crashed).count()
    }

    /// Quarantine decisions taken across PEs (each thief counts its own).
    pub fn total_quarantines(&self) -> u64 {
        self.workers.iter().map(|w| w.pes_quarantined).sum()
    }

    /// One-line fault-recovery summary, or `None` for a clean run (all
    /// counters zero) so fault-free output stays unchanged.
    pub fn fault_summary_line(&self) -> Option<String> {
        let (retries, failed, aborted) = (
            self.total_steal_retries(),
            self.total_steals_failed(),
            self.total_steals_aborted(),
        );
        let (poisoned, reclaimed) = (
            self.total_completions_poisoned(),
            self.total_claims_reclaimed(),
        );
        let (crashed, quarantined) = (self.crashed_pes(), self.total_quarantines());
        if retries + failed + aborted + poisoned + reclaimed + quarantined == 0
            && crashed == 0
        {
            return None;
        }
        Some(format!(
            "     faults: {retries} retries, {failed} failed, {aborted} aborted, {poisoned} poisoned, {reclaimed} reclaimed, {quarantined} quarantined, {crashed} crashed PEs",
        ))
    }

    /// Arrivals presented across ingress PEs (service mode).
    pub fn total_offered(&self) -> u64 {
        self.workers.iter().map(|w| w.service.offered).sum()
    }

    /// Arrivals admitted into the pool across ingress PEs.
    pub fn total_admitted(&self) -> u64 {
        self.workers.iter().map(|w| w.service.admitted).sum()
    }

    /// Arrivals shed across ingress PEs.
    pub fn total_shed(&self) -> u64 {
        self.workers.iter().map(|w| w.service.shed).sum()
    }

    /// Arrival tasks completed across PEs (latency samples recorded).
    pub fn completed_arrivals(&self) -> u64 {
        self.workers.iter().map(|w| w.service.latency.n).sum()
    }

    /// Admitted arrivals not yet completed — must be zero once the pool
    /// quiesced and shut down.
    pub fn arrivals_in_flight(&self) -> u64 {
        self.total_admitted().saturating_sub(self.completed_arrivals())
    }

    /// Fraction of offered arrivals shed (the overload figure).
    pub fn shed_rate(&self) -> f64 {
        let offered = self.total_offered();
        if offered == 0 {
            return 0.0;
        }
        self.total_shed() as f64 / offered as f64
    }

    /// Arrival conservation: every offered arrival was either admitted or
    /// shed, and every admitted arrival completed (`completed + shed +
    /// in-flight == offered` with in-flight zero at shutdown).
    pub fn arrival_conservation_ok(&self) -> bool {
        self.total_offered() == self.total_admitted() + self.total_shed()
            && self.completed_arrivals() == self.total_admitted()
    }

    /// Merged enqueue→completion latency histogram across PEs.
    pub fn service_latency(&self) -> Pow2Histogram {
        let mut h = Pow2Histogram::default();
        for w in &self.workers {
            h.merge(&w.service.latency);
        }
        h
    }

    /// One-line service summary, or `None` for batch runs (no service
    /// activity) so batch output stays unchanged.
    pub fn service_summary_line(&self) -> Option<String> {
        if self.workers.iter().all(|w| w.service.is_empty()) {
            return None;
        }
        let lat = self.service_latency();
        let parks: u64 = self.workers.iter().map(|w| w.service.parks).sum();
        let blocked: u64 = self.workers.iter().map(|w| w.service.blocked).sum();
        let deferred: u64 = self.workers.iter().map(|w| w.service.deferred).sum();
        Some(format!(
            "    service: {} offered, {} admitted, {} shed ({:.1}%), {} deferred, {} blocked, {} in flight, lat p50 {:.1} µs p99 {:.1} µs, {} parks",
            self.total_offered(),
            self.total_admitted(),
            self.total_shed(),
            self.shed_rate() * 100.0,
            deferred,
            blocked,
            self.arrivals_in_flight(),
            lat.p50() as f64 / 1e3,
            lat.p99() as f64 / 1e3,
            parks,
        ))
    }

    /// Steal attempts across PEs (probe-or-steal calls).
    pub fn total_steal_attempts(&self) -> u64 {
        self.workers.iter().map(|w| w.steal_attempts).sum()
    }

    /// Attempts the span sampler elected for capture, across PEs.
    pub fn total_sampled_attempts(&self) -> u64 {
        self.workers.iter().map(|w| w.steal_attempts_sampled).sum()
    }

    /// The run's span-sampling period: `N` when 1-in-N sampling was
    /// active, `0` when capture was full (or off). Scale sampled span
    /// counts by `max(N, 1)` to estimate full-capture counts.
    pub fn sample_period(&self) -> u32 {
        self.workers.iter().map(|w| w.sample_period).max().unwrap_or(0)
    }

    /// Merged per-site contention profile across PEs (indexed by raw
    /// `AtomicSite` id; empty unless the run profiled sites).
    pub fn site_profile(&self) -> Vec<SiteCounters> {
        let per_pe: Vec<Vec<SiteCounters>> =
            self.workers.iter().map(|w| w.site_prof.clone()).collect();
        sws_shmem::merge_site_profiles(&per_pe)
    }

    /// Sorted, deduplicated snapshot tick times across PEs. Every PE
    /// records the same scheduled ticks it reached; the union is the
    /// stream's time axis.
    pub fn snapshot_ticks(&self) -> Vec<u64> {
        let mut ticks: Vec<u64> = self
            .workers
            .iter()
            .flat_map(|w| w.snapshots.iter().map(|s| s.t_ns))
            .collect();
        ticks.sort_unstable();
        ticks.dedup();
        ticks
    }

    /// The captured protocol trace in the order its effects applied
    /// (empty unless the run captured one).
    pub fn proto_trace(&self) -> &ProtoLog {
        &self.proto
    }

    /// Aggregate virtual-time engine counters across PEs.
    pub fn total_engine(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for w in &self.workers {
            total.merge(&w.engine);
        }
        total
    }

    /// One-line engine summary (wall time, gate traffic), or `None` when
    /// the run recorded no engine activity (threaded mode).
    pub fn engine_summary_line(&self) -> Option<String> {
        let e = self.total_engine();
        if e.gated_ops() == 0 {
            return None;
        }
        Some(format!(
            "     engine: wall {:>8.3} s, {:>9} gated ops ({:>5.1}% windowed), {:>7} windows",
            self.wall_ms as f64 / 1e3,
            e.gated_ops(),
            e.fast_fraction() * 100.0,
            e.windows,
        ))
    }

    /// One-line human-readable summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{:>4} PEs {}: makespan {:>10.3} ms, {:>9} tasks, {:>8.0} tasks/s, eff {:>5.1}%, steals {:>6}, steal {:>8.3} ms, search {:>8.3} ms",
            self.n_pes,
            self.system,
            self.makespan_ns as f64 / 1e6,
            self.total_tasks(),
            self.throughput_per_s(),
            self.parallel_efficiency() * 100.0,
            self.total_steals(),
            self.total_steal_ns() as f64 / 1e6,
            self.total_search_ns() as f64 / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(workers: Vec<WorkerStats>, makespan: u64) -> RunReport {
        let n = workers.len();
        RunReport {
            system: "SWS".into(),
            n_pes: n,
            makespan_ns: makespan,
            workers,
            comm: StatsSummary::default(),
            proto: ProtoLog::new(),
            wall_ms: 0,
        }
    }

    #[test]
    fn efficiency_and_throughput() {
        let w = |tasks, task_ns| WorkerStats {
            tasks_executed: tasks,
            task_ns,
            ..WorkerStats::default()
        };
        // 2 PEs, 1000 ns of work each, makespan 1250 ns ⇒ ideal 1000,
        // efficiency 80 %.
        let r = report_with(vec![w(10, 1000), w(10, 1000)], 1250);
        assert!((r.parallel_efficiency() - 0.8).abs() < 1e-9);
        assert_eq!(r.total_tasks(), 20);
        let tput = r.throughput_per_s();
        assert!((tput - 20.0 / 1.25e-6).abs() / tput < 1e-9);
    }

    #[test]
    fn efficiency_accounts_for_crashed_pes() {
        // 2 PEs, makespan 1000. PE 1 crash-stops at 200 ns having done
        // 200 ns of work; PE 0 works the full 1000 ns. Available PE-time
        // is 1000 + 200 = 1200, all of it useful ⇒ efficiency 1.0. The
        // old formula divided by the full 2 × 1000 and reported 60 %.
        let healthy = WorkerStats {
            task_ns: 1000,
            runtime_ns: 1000,
            ..WorkerStats::default()
        };
        let crashed = WorkerStats {
            task_ns: 200,
            runtime_ns: 200,
            crashed: true,
            ..WorkerStats::default()
        };
        let r = report_with(vec![healthy, crashed], 1000);
        assert!(
            (r.parallel_efficiency() - 1.0).abs() < 1e-9,
            "got {}",
            r.parallel_efficiency()
        );
        // A crashed PE's clock is capped at the makespan even if its
        // recorded runtime overshoots.
        let mut over = r.clone();
        over.workers[1].runtime_ns = 5000;
        assert!(over.parallel_efficiency() <= 1.0);
    }

    #[test]
    fn engine_aggregates_and_summary() {
        let mut a = WorkerStats::default();
        a.engine.fast_ops = 90;
        a.engine.slow_ops = 10;
        a.engine.windows = 7;
        let mut b = WorkerStats::default();
        b.engine.fast_ops = 10;
        b.engine.gate_wait_ns = 2_000_000_000;
        let r = report_with(vec![a, b], 1_000);
        let e = r.total_engine();
        assert_eq!(e.gated_ops(), 110);
        assert_eq!(e.windows, 7);
        assert!((e.fast_fraction() - 100.0 / 110.0).abs() < 1e-12);
        let line = r.engine_summary_line().expect("engine ran");
        assert!(line.contains("110 gated ops"));
        // Threaded runs (no gate traffic) print nothing.
        let r2 = report_with(vec![WorkerStats::default()], 1_000);
        assert_eq!(r2.engine_summary_line(), None);
    }

    #[test]
    fn steal_aggregates() {
        let mut a = WorkerStats {
            steal_ns: 300,
            ..WorkerStats::default()
        };
        a.queue.steals_won = 3;
        let mut b = WorkerStats {
            steal_ns: 100,
            ..WorkerStats::default()
        };
        b.queue.steals_won = 1;
        let r = report_with(vec![a, b], 1);
        assert_eq!(r.total_steal_ns(), 400);
        assert_eq!(r.total_steals(), 4);
        assert!((r.mean_steal_op_ns() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_makespan_degenerates_gracefully() {
        let r = report_with(vec![], 0);
        assert_eq!(r.throughput_per_s(), 0.0);
        assert_eq!(r.parallel_efficiency(), 1.0);
        assert_eq!(r.mean_steal_op_ns(), 0.0);
    }

    #[test]
    fn summary_line_contains_key_fields() {
        let r = report_with(vec![WorkerStats::default()], 1_000_000);
        let s = r.summary_line();
        assert!(s.contains("SWS"));
        assert!(s.contains("1 PEs"));
    }

    #[test]
    fn fault_summary_absent_for_clean_runs() {
        let r = report_with(vec![WorkerStats::default(); 3], 1_000);
        assert_eq!(r.fault_summary_line(), None);
    }

    #[test]
    fn service_summary_absent_for_batch_runs() {
        let r = report_with(vec![WorkerStats::default(); 4], 1_000);
        assert_eq!(r.service_summary_line(), None);
        assert!(r.arrival_conservation_ok(), "0 == 0 + 0 trivially");
        assert_eq!(r.shed_rate(), 0.0);
    }

    #[test]
    fn service_aggregates_and_conservation() {
        let mut ingress = WorkerStats::default();
        ingress.service.offered = 100;
        ingress.service.admitted = 90;
        ingress.service.shed = 10;
        for _ in 0..50 {
            ingress.service.latency.record(1_000);
        }
        let mut thief = WorkerStats::default();
        for _ in 0..40 {
            thief.service.latency.record(8_000);
        }
        let r = report_with(vec![ingress, thief], 1_000);
        assert_eq!(r.total_offered(), 100);
        assert_eq!(r.total_admitted(), 90);
        assert_eq!(r.total_shed(), 10);
        assert_eq!(r.completed_arrivals(), 90);
        assert_eq!(r.arrivals_in_flight(), 0);
        assert!((r.shed_rate() - 0.1).abs() < 1e-12);
        assert!(r.arrival_conservation_ok());
        let line = r.service_summary_line().expect("service ran");
        assert!(line.contains("100 offered"));
        assert!(line.contains("10 shed"));
        // A lost arrival breaks conservation.
        let mut lossy = r.clone();
        lossy.workers[1].service.latency.n -= 1;
        assert!(!lossy.arrival_conservation_ok());
    }

    #[test]
    fn fault_summary_aggregates_counters() {
        let mut a = WorkerStats::default();
        a.queue.steals_retried = 5;
        a.queue.steals_failed = 2;
        a.pes_quarantined = 1;
        let mut b = WorkerStats::default();
        b.queue.steals_aborted = 3;
        b.queue.completions_poisoned = 1;
        b.queue.claims_reclaimed = 4;
        b.crashed = true;
        let r = report_with(vec![a, b], 1_000);
        assert_eq!(r.total_steal_retries(), 5);
        assert_eq!(r.total_steals_failed(), 2);
        assert_eq!(r.total_steals_aborted(), 3);
        assert_eq!(r.total_completions_poisoned(), 1);
        assert_eq!(r.total_claims_reclaimed(), 4);
        assert_eq!(r.crashed_pes(), 1);
        assert_eq!(r.total_quarantines(), 1);
        let line = r.fault_summary_line().expect("non-zero counters");
        assert!(line.contains("5 retries"));
        assert!(line.contains("1 crashed"));
    }
}
