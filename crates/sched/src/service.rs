//! Service mode: a persistent steal pool with open-world arrivals.
//!
//! The batch runner ([`crate::runner`]) seeds a closed workload and runs
//! to global termination. Service mode instead drives the same pool as a
//! long-running system:
//!
//! * **arrivals** — designated *ingress* PEs (ranks `0..n_ingress`) pull
//!   tasks from an [`ArrivalSource`] (a seeded plan deterministic in
//!   virtual time) and inject them into their own queues, where the
//!   ordinary release/steal machinery disseminates them;
//! * **admission control** — each ingress PE enforces a high-water mark
//!   on its ring occupancy; arrivals past the mark are handled per the
//!   configured [`AdmissionPolicy`]: shed (dropped, counted), deferred
//!   (side-buffered, admitted FIFO when capacity returns), or blocked
//!   (head-of-line waits, later arrivals queue behind it);
//! * **elastic membership** — a [`MembershipPlan`] schedules PEs to
//!   *park* mid-run: the queue epoch-locks (SWS closes its gate, SDC
//!   holds its own lock), in-flight claims drain, owned work executes,
//!   and the PE sits in the idle set until its window ends and it
//!   rejoins — peers readmit it into victim selection with a clean
//!   quarantine slate;
//! * **quiescence, then termination** — the batch detector decides both.
//!   Each ingress PE holds an arrival source open in it from setup until
//!   its plan is exhausted and its admission buffers drained. Between
//!   waves [`crate::termination::CounterTd::poll`] reads quiescent; the
//!   counters never latch, so the next wave ends the window for everyone,
//!   and a quiescent or parked PE reads once a tick and does nothing
//!   else. With every source closed the same read says terminated, and
//!   each PE stops on its own read, exactly as in a batch run;
//! * **conservation** — every arrival is accounted exactly once:
//!   `offered == admitted + shed`, and each admitted task records one
//!   arrival-to-completion latency sample, so
//!   `completed_arrivals == admitted` at shutdown
//!   ([`RunReport::arrival_conservation_ok`]).
//!
//! Service mode drives the same [`Worker`] building blocks as the batch
//! loop ([`crate::worker::Worker::run`]) — run the next owned task,
//! acquire, the idle search step, drain, crash-stop, shutdown — from its
//! own loop.

use std::collections::VecDeque;

use sws_core::{SdcQueue, StealQueue, SwsQueue};
use sws_shmem::{ExecMode, ShmemError};
use sws_task::TaskDescriptor;

use crate::config::QueueKind;
use crate::report::{RunReport, WorkerStats};
use crate::runner::{launch, RunConfig, Workload};
use crate::snapshot::SnapRow;
use crate::termination::PoolState;
use crate::worker::Worker;

/// Virtual ns an idle PE waits after each read of the detector.
const IDLE_TICK_NS: u64 = 2_000;

/// A stream of timed task arrivals for one ingress PE.
///
/// Implementations must be deterministic functions of their construction
/// parameters (seed, plan) — virtual-time service runs are replayed
/// bit-for-bit. Due times must be non-decreasing.
pub trait ArrivalSource {
    /// Virtual time of the next arrival, or `None` once the plan is
    /// exhausted. Peeking; [`ArrivalSource::pop`] consumes it.
    fn next_due_ns(&mut self) -> Option<u64>;

    /// Materialize the task for the arrival due at `inject_ns`. The
    /// workload's handler is expected to call
    /// [`crate::TaskCtx::mark_arrival`] with this timestamp so the run records
    /// exactly one latency sample per admitted arrival.
    fn pop(&mut self, inject_ns: u64) -> TaskDescriptor;
}

/// A workload that can be driven by open-world arrivals.
pub trait ServiceWorkload: Workload {
    /// Number of ingress PEs (ranks `0..n`), in `1..=n_pes`.
    fn n_ingress(&self) -> usize;

    /// The arrival source for `pe`, `Some` exactly when
    /// `pe < self.n_ingress()`.
    fn arrival_source(&self, pe: usize) -> Option<Box<dyn ArrivalSource>>;
}

/// What an ingress PE does with an arrival when its ring occupancy is at
/// or above the high-water mark.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AdmissionPolicy {
    /// Hold the arrival at the head of the line until capacity returns;
    /// later arrivals queue (in time order) behind it.
    Block,
    /// Side-buffer the arrival and admit it FIFO when capacity returns.
    Defer,
    /// Drop the arrival and count it. Load shedding: the pool stays
    /// responsive at the cost of lost work.
    Shed,
}

/// One planned absence: PE `pe` parks at `from_ns` and rejoins at
/// `from_ns + dur_ns` (virtual time).
#[derive(Copy, Clone, Debug)]
pub struct AwayWindow {
    /// The departing PE. Never PE 0 (termination counters) and never an
    /// ingress PE.
    pub pe: usize,
    /// Virtual time the PE parks.
    pub from_ns: u64,
    /// Length of the absence, ns (> 0).
    pub dur_ns: u64,
}

/// A seeded-or-explicit schedule of PE absences.
#[derive(Clone, Debug, Default)]
pub struct MembershipPlan {
    /// The planned absences, in any order (validated + sorted per PE).
    pub windows: Vec<AwayWindow>,
}

impl MembershipPlan {
    /// Plan with no absences (static membership).
    pub fn fixed() -> MembershipPlan {
        MembershipPlan::default()
    }

    /// Add one away window.
    #[must_use]
    pub fn away(mut self, pe: usize, from_ns: u64, dur_ns: u64) -> MembershipPlan {
        self.windows.push(AwayWindow { pe, from_ns, dur_ns });
        self
    }

    /// Check the plan against a world: windows must name departable PEs
    /// (not PE 0, not ingress, in range), have nonzero length, and not
    /// overlap per PE.
    pub fn validate(&self, n_pes: usize, n_ingress: usize) -> Result<(), String> {
        let mut per_pe: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_pes];
        for w in &self.windows {
            if w.pe >= n_pes {
                return Err(format!("away window names PE {} of {}", w.pe, n_pes));
            }
            if w.pe == 0 {
                return Err("PE 0 hosts the termination counters; it cannot go away".to_string());
            }
            if w.pe < n_ingress {
                return Err(format!(
                    "PE {} is an ingress PE; ingress PEs cannot go away",
                    w.pe
                ));
            }
            if w.dur_ns == 0 {
                return Err(format!("zero-length away window for PE {}", w.pe));
            }
            per_pe[w.pe].push((w.from_ns, w.dur_ns));
        }
        for (pe, list) in per_pe.iter_mut().enumerate() {
            list.sort_unstable();
            for pair in list.windows(2) {
                if pair[0].0.saturating_add(pair[0].1) > pair[1].0 {
                    return Err(format!("overlapping away windows for PE {pe}"));
                }
            }
        }
        Ok(())
    }
}

/// Service-mode configuration, composed with the batch [`RunConfig`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// What ingress does with arrivals past the high-water mark.
    pub admission: AdmissionPolicy,
    /// High-water mark as a percentage of ring capacity (1..=100); an
    /// ingress queue at or above `capacity * hwm_pct / 100` occupied
    /// slots refuses fresh admissions.
    pub hwm_pct: u32,
    /// Planned PE absences.
    pub membership: MembershipPlan,
    /// Telemetry snapshot interval, virtual ns (`0` = snapshots off).
    /// Each PE records a [`crate::snapshot::SnapRow`] stamped with the
    /// scheduled tick time `k * interval`, so the stream is byte-identical
    /// per seed.
    pub snapshot_interval_ns: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            admission: AdmissionPolicy::Block,
            hwm_pct: 100,
            membership: MembershipPlan::fixed(),
            snapshot_interval_ns: 0,
        }
    }
}

impl ServiceConfig {
    /// Select the admission policy.
    #[must_use]
    pub fn with_admission(mut self, p: AdmissionPolicy) -> ServiceConfig {
        self.admission = p;
        self
    }

    /// Set the admission high-water mark (percent of ring capacity).
    #[must_use]
    pub fn with_hwm_pct(mut self, pct: u32) -> ServiceConfig {
        self.hwm_pct = pct;
        self
    }

    /// Attach a membership plan.
    #[must_use]
    pub fn with_membership(mut self, plan: MembershipPlan) -> ServiceConfig {
        self.membership = plan;
        self
    }

    /// Set the telemetry snapshot interval (virtual ns; `0` = off).
    #[must_use]
    pub fn with_snapshot_interval(mut self, ns: u64) -> ServiceConfig {
        self.snapshot_interval_ns = ns;
        self
    }
}

/// How an away window ended.
enum AwayEnd {
    /// The window elapsed; the PE unparked and rejoined.
    Rejoined,
    /// The pool terminated while parked.
    Terminated,
    /// The PE's own crash deadline hit while parked.
    Crashed,
}

/// Per-PE service driver wrapping the batch [`Worker`].
struct ServiceLoop<'r, 'a, Q: StealQueue> {
    w: Worker<'r, 'a, Q>,
    /// This ingress PE's arrival source while it is open in the detector.
    src: Option<Box<dyn ArrivalSource>>,
    admission: AdmissionPolicy,
    hwm_tasks: u64,
    /// Deferred arrivals awaiting capacity, FIFO of (due_ns, task).
    defer: VecDeque<(u64, TaskDescriptor)>,
    /// Head-of-line blocked arrival under [`AdmissionPolicy::Block`].
    blocked: Option<(u64, TaskDescriptor)>,
    /// This PE's own away windows, (from_ns, dur_ns) sorted ascending.
    my_away: VecDeque<(u64, u64)>,
    /// Peer rejoin events, (rejoin_ns, pe) sorted ascending.
    peer_rejoins: VecDeque<(u64, usize)>,
    /// PEs that appear in the membership plan: steal failures against
    /// them never quarantine (a parked queue looks exactly like a faulty
    /// one to a thief; down PEs still quarantine via `target_down`) —
    /// the `spared` set of [`Worker::search_step`].
    elastic: Vec<bool>,
    /// Telemetry snapshot interval, virtual ns (0 = off).
    snap_interval: u64,
    /// Next scheduled snapshot tick, virtual ns.
    next_snap_at: u64,
}

impl<'r, 'a, Q: StealQueue> ServiceLoop<'r, 'a, Q> {
    fn new(
        w: Worker<'r, 'a, Q>,
        src: Option<Box<dyn ArrivalSource>>,
        svc: &ServiceConfig,
    ) -> ServiceLoop<'r, 'a, Q> {
        let me = w.ctx.my_pe();
        let n = w.ctx.n_pes();
        let mut my_away: Vec<(u64, u64)> = svc
            .membership
            .windows
            .iter()
            .filter(|aw| aw.pe == me)
            .map(|aw| (aw.from_ns, aw.dur_ns))
            .collect();
        my_away.sort_unstable();
        let mut peer_rejoins: Vec<(u64, usize)> = svc
            .membership
            .windows
            .iter()
            .filter(|aw| aw.pe != me)
            .map(|aw| (aw.from_ns.saturating_add(aw.dur_ns), aw.pe))
            .collect();
        peer_rejoins.sort_unstable();
        let mut elastic = vec![false; n];
        for aw in &svc.membership.windows {
            elastic[aw.pe] = true;
        }
        let hwm_tasks =
            ((w.cfg.queue.capacity as u64) * svc.hwm_pct as u64 / 100).max(1);
        ServiceLoop {
            w,
            src,
            admission: svc.admission,
            hwm_tasks,
            defer: VecDeque::new(),
            blocked: None,
            my_away: my_away.into(),
            peer_rejoins: peer_rejoins.into(),
            elastic,
            snap_interval: svc.snapshot_interval_ns,
            next_snap_at: svc.snapshot_interval_ns,
        }
    }

    /// Record the snapshot ticks up to `until`. Rows are stamped
    /// with the *scheduled* tick time (`k * interval`) and carry purely
    /// local, cumulative state — no communication, no clock advance — so
    /// enabling snapshots cannot perturb the run and the stream is
    /// byte-identical per seed.
    fn pump_snapshots(&mut self, until: u64) {
        if self.snap_interval == 0 {
            return;
        }
        while until >= self.next_snap_at {
            let svc = &self.w.stats.service;
            let row = SnapRow {
                t_ns: self.next_snap_at,
                occupancy: self.w.queue.occupancy(),
                local: self.w.queue.local_count(),
                tasks_executed: self.w.stats.tasks_executed,
                steals_won: self.w.queue.stats().steals_won,
                offered: svc.offered,
                admitted: svc.admitted,
                shed: svc.shed,
                deferred: svc.deferred,
                blocked: svc.blocked,
                completed: svc.latency.n,
                latency: svc.latency.clone(),
            };
            self.w.stats.snapshots.push(row);
            self.next_snap_at += self.snap_interval;
        }
    }

    /// Is there admission headroom below the high-water mark?
    fn has_room(&self) -> bool {
        self.w.queue.occupancy() < self.hwm_tasks
    }

    /// Inject one admitted arrival into the local queue, counted for
    /// termination before it can become stealable (the worker flushes
    /// spawn deltas before every release).
    fn admit(&mut self, t: TaskDescriptor) {
        self.w.enqueue_or_overflow(&t);
        self.w.td.on_spawn(1);
        self.w.stats.service.admitted += 1;
        if !self.w.had_work {
            self.w.had_work = true;
            self.w.stats.first_work_ns = self.w.ctx.now_ns();
        }
    }

    /// Move due arrivals into the pool, honouring admission control.
    /// Only called while this PE is *not* in the idle set (the search
    /// loop exits idle before injecting), so counter-TD discipline holds.
    fn pump_arrivals(&mut self) {
        if self.src.is_none() {
            return;
        }
        let now = self.w.ctx.now_ns();
        // Head-of-line blocked arrival first: nothing may pass it.
        if let Some((due, t)) = self.blocked.take() {
            if !self.has_room() {
                self.blocked = Some((due, t));
                return;
            }
            self.w.stats.service.admission_wait_ns += now.saturating_sub(due);
            self.admit(t);
        }
        // Deferred backlog next, FIFO.
        while self.has_room() {
            let Some((due, t)) = self.defer.pop_front() else { break };
            self.w.stats.service.admission_wait_ns += now.saturating_sub(due);
            self.admit(t);
        }
        // Fresh due arrivals.
        while let Some(due) = self.src.as_mut().and_then(|s| s.next_due_ns()) {
            if due > now {
                break;
            }
            let Some(src) = self.src.as_mut() else { break };
            let t = src.pop(due);
            self.w.stats.service.offered += 1;
            if self.has_room() && self.defer.is_empty() {
                self.admit(t);
                continue;
            }
            match self.admission {
                AdmissionPolicy::Shed => self.w.stats.service.shed += 1,
                AdmissionPolicy::Defer => {
                    self.w.stats.service.deferred += 1;
                    self.defer.push_back((due, t));
                }
                AdmissionPolicy::Block => {
                    self.w.stats.service.blocked += 1;
                    self.blocked = Some((due, t));
                    break;
                }
            }
        }
    }

    /// Once this ingress PE's plan is exhausted *and* its admission
    /// buffers are drained, close its arrival source (exactly once).
    fn close_exhausted_source(&mut self) {
        let Some(src) = self.src.as_mut() else { return };
        if src.next_due_ns().is_some() || !self.defer.is_empty() || self.blocked.is_some() {
            return;
        }
        self.src = None;
        self.w.td.close_source(self.w.ctx);
    }

    /// Should an idle ingress PE leave the idle set to inject?
    fn ingress_wake_due(&mut self) -> bool {
        if self.blocked.is_some() || !self.defer.is_empty() {
            // An idle PE's queue is empty, so there is always room.
            return self.has_room();
        }
        let now = self.w.ctx.now_ns();
        self.src.as_mut().and_then(|s| s.next_due_ns()).is_some_and(|due| due <= now)
    }

    /// Clear quarantine state for peers whose away windows have ended.
    fn readmit_due_peers(&mut self) {
        let now = self.w.ctx.now_ns();
        while let Some(&(at, pe)) = self.peer_rejoins.front() {
            if at > now {
                break;
            }
            self.peer_rejoins.pop_front();
            if self.w.ctx.pe_known_down(pe) {
                continue; // crashed while parked: stays quarantined
            }
            self.w.damping.readmit(pe);
            if self.w.victims.as_mut().is_some_and(|v| v.include(pe)) {
                self.w.stats.service.readmitted += 1;
            }
        }
    }

    /// Park for an away window ending at `rejoin_at`: epoch-lock the
    /// queue, drain in-flight claims and owned work, sit in the idle set
    /// (one detector read a tick, as a quiescent PE pays), then unpark and
    /// rejoin.
    fn go_away(&mut self, rejoin_at: u64, already_idle: bool) -> AwayEnd {
        let ctx = self.w.ctx;
        self.w.stats.service.parks += 1;
        self.w.queue.park();
        self.w.drain_owned();
        self.w.queue.flush_completions();
        self.w.td.flush(ctx);
        if !already_idle {
            self.w.enter_idle();
        }
        while ctx.now_ns() < rejoin_at {
            if ctx.crash_due() {
                self.w.crash_stop(true);
                return AwayEnd::Crashed;
            }
            self.pump_snapshots(ctx.now_ns());
            if self.w.td.poll(ctx) == PoolState::Terminated {
                return AwayEnd::Terminated;
            }
            ctx.compute(IDLE_TICK_NS);
        }
        self.w.queue.unpark();
        self.w.stats.service.rejoins += 1;
        self.w.leave_idle();
        AwayEnd::Rejoined
    }

    /// If this PE's next away window is due, take it. Returns `None` to
    /// continue the outer loop normally, or the way the run ends.
    fn take_due_away_window(&mut self, already_idle: bool) -> Option<AwayEnd> {
        let now = self.w.ctx.now_ns();
        let &(from, dur) = self.my_away.front()?;
        if now < from {
            return None;
        }
        self.my_away.pop_front();
        let rejoin_at = from.saturating_add(dur);
        if now >= rejoin_at {
            return None; // window already elapsed (we were busy); skip it
        }
        Some(self.go_away(rejoin_at, already_idle))
    }

    /// Drive this PE until the pool terminates (or its crash deadline).
    fn run(mut self) -> WorkerStats {
        let ctx = self.w.ctx;
        if self.src.is_some() {
            self.w.td.open_source(ctx);
        }
        'outer: loop {
            if ctx.crash_due() {
                self.w.crash_stop(false);
                return self.w.stats;
            }
            self.pump_snapshots(ctx.now_ns());
            self.readmit_due_peers();
            match self.take_due_away_window(false) {
                Some(AwayEnd::Rejoined) | None => {}
                Some(AwayEnd::Terminated) => break 'outer,
                Some(AwayEnd::Crashed) => return self.w.stats,
            }
            self.pump_arrivals();
            self.close_exhausted_source();
            if self.w.run_owned(true) || self.w.acquire_shared() {
                continue;
            }
            // Queue drained: idle. Unlike the batch loop this is not the
            // beginning of the end — an ingress wake or a successful
            // steal resumes the outer loop.
            self.w.enter_idle();
            let (mut quiesced, mut search_iters) = (false, 0u32);
            loop {
                if ctx.crash_due() {
                    self.w.crash_stop(true);
                    return self.w.stats;
                }
                match self.take_due_away_window(true) {
                    None => {}
                    Some(AwayEnd::Rejoined) => continue 'outer,
                    Some(AwayEnd::Terminated) => break 'outer,
                    Some(AwayEnd::Crashed) => return self.w.stats,
                }
                self.pump_snapshots(ctx.now_ns());
                self.readmit_due_peers();
                if self.ingress_wake_due() {
                    self.w.leave_idle();
                    continue 'outer;
                }
                // Each read of the detector is an idle tick. A searching PE reads it
                // every fourth attempt, as the batch loop does, and the tick spaces
                // its rounds (without it the PE spends that time on more attempts);
                // a quiescent PE reads it every tick and does nothing else, since no
                // task exists until the read says busy.
                if quiesced || search_iters.is_multiple_of(4) {
                    match self.w.td.poll(ctx) {
                        PoolState::Terminated => break 'outer,
                        PoolState::Quiescent if !quiesced => {
                            quiesced = true;
                            self.w.stats.service.quiescent_windows += 1;
                        }
                        PoolState::Quiescent => {}
                        PoolState::Busy => quiesced = false,
                    }
                    ctx.compute(IDLE_TICK_NS);
                    if quiesced {
                        continue;
                    }
                }
                search_iters += 1;
                if self.w.search_step(&self.elastic) {
                    self.w.leave_idle();
                    continue 'outer;
                }
            }
        }
        // Terminated: nothing this PE counts changes again, so its rows
        // through the first tick at or after now are already known.
        self.pump_snapshots(ctx.now_ns().next_multiple_of(self.snap_interval.max(1)));
        self.w.shutdown();
        self.w.stats
    }
}

/// Run `workload` as a persistent service in a virtual-time world and
/// report the paper's metrics plus the service aggregates
/// (admission counters, arrival latency percentiles, conservation).
pub fn run_service<W: ServiceWorkload>(
    cfg: &RunConfig,
    svc: &ServiceConfig,
    workload: &W,
) -> RunReport {
    try_run_service(cfg, svc, workload).expect("service run failed")
}

/// As [`run_service`], but every failure is an error, not a panic (the
/// shape of [`crate::try_run_workload_mode`]): a world of no PEs, an
/// ingress count outside `1..=n_pes`, a high-water mark outside 1..=100
/// or a malformed membership plan is [`ShmemError::BadConfig`] before
/// any PE starts.
pub fn try_run_service<W: ServiceWorkload>(
    cfg: &RunConfig,
    svc: &ServiceConfig,
    workload: &W,
) -> Result<RunReport, ShmemError> {
    if cfg.n_pes == 0 {
        return Err(ShmemError::BadConfig("n_pes must be nonzero".into()));
    }
    let n_ingress = workload.n_ingress();
    if !(1..=cfg.n_pes).contains(&n_ingress) {
        let why = format!("service mode needs 1..={} ingress PEs (got {n_ingress})", cfg.n_pes);
        return Err(ShmemError::BadConfig(why));
    }
    if !(1..=100).contains(&svc.hwm_pct) {
        let why = format!("admission high-water mark must be 1..=100 percent (got {})", svc.hwm_pct);
        return Err(ShmemError::BadConfig(why));
    }
    svc.membership.validate(cfg.n_pes, n_ingress).map_err(ShmemError::BadConfig)?;
    launch(cfg, ExecMode::Virtual, workload, n_ingress, |pe| {
        let ctx = pe.ctx;
        let src = workload.arrival_source(ctx.my_pe());
        debug_assert_eq!(
            src.is_some(),
            ctx.my_pe() < n_ingress,
            "arrival_source() disagrees with n_ingress()"
        );
        match pe.kind() {
            QueueKind::Sws => ServiceLoop::new(pe.worker(SwsQueue::new), src, svc).run(),
            QueueKind::Sdc => ServiceLoop::new(pe.worker(SdcQueue::new), src, svc).run(),
        }
    })
}
