//! Scheduler event log: per-PE timestamped events, and the timeline
//! read from them.
//!
//! With `SchedConfig::trace` enabled, every release, acquire, idle
//! transition, quarantine and crash-stop is recorded with its virtual
//! timestamp — what the owner and the termination detector did, which
//! the steal spans (`sws-obs`) cannot say. Steal attempts are recorded
//! once, as spans. Tracing is off by default.

/// One scheduler event.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The owner exposed `exposed` tasks to the shared portion.
    Release {
        /// Tasks moved to the shared portion.
        exposed: u32,
    },
    /// The owner recovered `recovered` tasks from the shared portion.
    AcquireHit {
        /// Tasks moved back to the local portion.
        recovered: u32,
    },
    /// An acquire found nothing unclaimed.
    AcquireMiss,
    /// The PE ran out of work and joined the idle set.
    EnterIdle,
    /// The PE obtained work and left the idle set.
    ExitIdle,
    /// `victim` was quarantined: no further steal attempts against it.
    Quarantined {
        /// Victim PE.
        victim: u32,
    },
    /// This PE reached its crash deadline and began an orderly
    /// crash-stop (drain, hand off counters, mark down).
    CrashStop,
}

/// A timestamped event.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Virtual time, ns.
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Per-PE event recorder (no-op unless enabled).
#[derive(Debug, Default)]
pub struct EventLog {
    enabled: bool,
    events: Vec<Event>,
}

impl EventLog {
    /// A recorder; `enabled = false` makes `record` free.
    pub fn new(enabled: bool) -> EventLog {
        EventLog {
            enabled,
            events: Vec::new(),
        }
    }

    /// Record `kind` at time `t_ns`.
    #[inline]
    pub fn record(&mut self, t_ns: u64, kind: EventKind) {
        if self.enabled {
            self.events.push(Event { t_ns, kind });
        }
    }

    /// Hand the events out (consumes the log).
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

pub use sws_shmem::proto::{ProtoEvent, ProtoOp};

use crate::report::WorkerStats;

/// Idle intervals `(enter, exit)`; an unmatched trailing `EnterIdle`
/// closes at `end_ns` (the PE idled until termination).
pub fn idle_intervals(events: &[Event], end_ns: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut open: Option<u64> = None;
    for e in events {
        match e.kind {
            EventKind::EnterIdle => open = Some(e.t_ns),
            EventKind::ExitIdle => {
                if let Some(t0) = open.take() {
                    out.push((t0, e.t_ns));
                }
            }
            _ => {}
        }
    }
    if let Some(t0) = open {
        out.push((t0, end_ns.max(t0)));
    }
    out
}

/// Render per-PE activity strips: one row per PE, `width` buckets of
/// the run; `#` = mostly busy, `.` = mostly idle, `-` = no data (no
/// events, or a bucket that begins after the PE crash-stopped).
pub fn render_timeline(workers: &[WorkerStats], makespan_ns: u64, width: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let width = width.max(1);
    // Ceiling division: `width` buckets must cover the whole makespan.
    // Floor division left the last `makespan % width` ns of the run
    // outside every bucket, so tail idleness was never rendered.
    let bucket = makespan_ns.div_ceil(width as u64).max(1);
    for (pe, w) in workers.iter().enumerate() {
        let idles = idle_intervals(&w.events, makespan_ns);
        let stopped_ns = if w.crashed { w.runtime_ns } else { u64::MAX };
        let mut row = String::with_capacity(width);
        for b in 0..width {
            let t0 = b as u64 * bucket;
            let t1 = t0 + bucket;
            let idle_overlap: u64 = idles
                .iter()
                .map(|&(a, z)| z.min(t1).saturating_sub(a.max(t0)))
                .sum();
            row.push(if w.events.is_empty() || t0 >= stopped_ns {
                '-'
            } else if idle_overlap * 2 > bucket {
                '.'
            } else {
                '#'
            });
        }
        let _ = writeln!(out, "PE {pe:>4} |{row}|");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: EventKind) -> Event {
        Event { t_ns: t, kind }
    }

    fn pe(events: Vec<Event>) -> WorkerStats {
        WorkerStats { events, ..WorkerStats::default() }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::new(false);
        log.record(1, EventKind::EnterIdle);
        assert!(log.into_events().is_empty());
    }

    #[test]
    fn idle_intervals_pair_up_and_close_trailing() {
        let events = vec![
            ev(10, EventKind::EnterIdle),
            ev(15, EventKind::ExitIdle),
            ev(30, EventKind::EnterIdle),
        ];
        assert_eq!(idle_intervals(&events, 50), vec![(10, 15), (30, 50)]);
    }

    #[test]
    fn timeline_marks_idle_buckets() {
        let events = vec![ev(0, EventKind::EnterIdle), ev(50, EventKind::ExitIdle)];
        let s = render_timeline(&[pe(events), pe(vec![])], 100, 10);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains("....."), "first half idle: {}", lines[0]);
        assert!(lines[0].contains("#"), "second half busy: {}", lines[0]);
        assert!(lines[1].contains("----------"), "no data row: {}", lines[1]);
    }

    #[test]
    fn timeline_covers_non_divisible_makespan() {
        // makespan 100, width 40: floor division used bucket = 2, so the
        // strip covered only [0, 80) and a PE idle from t = 80 on still
        // rendered as all-busy. Ceiling division (bucket = 3) must show
        // the trailing idle tail.
        let events = vec![ev(80, EventKind::EnterIdle)];
        let s = render_timeline(&[pe(events)], 100, 40);
        let row = s.lines().next().unwrap();
        assert!(
            row.contains('.'),
            "idle tail after t=80 must be rendered: {row}"
        );
        assert!(row.contains('#'), "busy head must be rendered: {row}");
        // The last bucket lies within the run, not past it: an always-busy
        // PE still renders fully busy.
        let busy = render_timeline(&[pe(vec![ev(99, EventKind::AcquireMiss)])], 100, 40);
        let busy_row = busy.lines().next().unwrap();
        assert!(!busy_row.contains('.'), "no phantom idle: {busy_row}");
    }

    #[test]
    fn timeline_shows_no_data_after_a_crash_stop() {
        // PE 0 crash-stopped, its clock ending at t = 50 of a 100 ns run:
        // its buckets from there on have no data. PE 1, with the same log,
        // ran to the end.
        let log = vec![ev(40, EventKind::CrashStop)];
        let crashed = WorkerStats { crashed: true, runtime_ns: 50, ..pe(log.clone()) };
        let s = render_timeline(&[crashed, pe(log)], 100, 10);
        let rows: Vec<&str> = s.lines().collect();
        assert_eq!(rows, ["PE    0 |#####-----|", "PE    1 |##########|"]);
    }

    #[test]
    fn end_to_end_trace_through_the_scheduler() {
        use crate::{run_workload, QueueKind, RunConfig, SchedConfig};
        use sws_core::QueueConfig;
        use sws_task::TaskDescriptor;

        struct Bag;
        impl crate::Workload for Bag {
            fn register(&self, reg: &mut sws_task::TaskRegistry<crate::TaskCtx>) {
                reg.register(1, |tctx, _| tctx.compute(20_000));
            }
            fn seeds(&self, pe: usize, _n: usize) -> Vec<TaskDescriptor> {
                if pe == 0 {
                    (0..64).map(|_| TaskDescriptor::new(1, &[])).collect()
                } else {
                    Vec::new()
                }
            }
        }
        let mut sched = SchedConfig::new(QueueKind::Sws, QueueConfig::new(256, 24));
        sched.trace = true;
        let report = run_workload(&RunConfig::new(4, sched), &Bag);
        // The seeding owner released work, and a PE leaves the idle set
        // once for every steal it won (a clean batch run has no other
        // way out of a search).
        assert!(report.workers[0].events.iter().any(|e| matches!(e.kind, EventKind::Release { .. })));
        assert!(report.total_steals() > 0, "some steals happened");
        for (pe, w) in report.workers.iter().enumerate() {
            let exits = w.events.iter().filter(|e| e.kind == EventKind::ExitIdle).count() as u64;
            assert_eq!(exits, w.queue.steals_won, "PE {pe}");
        }
        // Idle PEs (1..3) have idle intervals.
        let idles = idle_intervals(&report.workers[1].events, report.makespan_ns);
        assert!(idles.iter().any(|(enter, exit)| exit > enter));
        // Timeline renders one row per PE.
        let tl = render_timeline(&report.workers, report.makespan_ns, 40);
        assert_eq!(tl.lines().count(), 4);
    }
}

/// A fixed-bucket histogram over `u64` samples with power-of-two bucket
/// edges — compact summaries of steal volumes or idle spans.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Pow2Histogram {
    /// `counts[i]` counts samples in `(2^(i-1), 2^i]` — matching the
    /// `≤ 2^i` upper-bound labels [`Pow2Histogram::render`] prints;
    /// `counts[0]` counts zeros and ones.
    pub counts: Vec<u64>,
    /// Number of samples.
    pub n: u64,
    /// Sum of samples.
    pub sum: u64,
}

impl Pow2Histogram {
    /// Build from samples.
    pub fn from_samples(samples: impl IntoIterator<Item = u64>) -> Pow2Histogram {
        let mut h = Pow2Histogram::default();
        for s in samples {
            h.record(s);
        }
        h
    }

    /// Record one sample.
    pub fn record(&mut self, s: u64) {
        let bucket = if s <= 1 {
            0
        } else {
            64 - (s - 1).leading_zeros() as usize
        };
        if self.counts.len() <= bucket {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.n += 1;
        self.sum = self.sum.saturating_add(s);
    }

    /// Fold another histogram into this one. Equivalent to having
    /// recorded both sample sets into a single histogram (`sum`
    /// saturates like [`Pow2Histogram::record`] does).
    pub fn merge(&mut self, other: &Pow2Histogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.n += other.n;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Upper bound of bucket `i` — the largest sample it can hold.
    fn bucket_upper(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the bucket
    /// bounds: the upper bound of the first bucket whose cumulative
    /// count reaches `⌈q·n⌉`. An over-estimate by at most the bucket
    /// width (2×); 0 for an empty histogram.
    ///
    /// Edge cases (pinned by tests):
    /// * empty histogram → 0 for every `q`;
    /// * `q = 0.0` → the rank clamps to 1, so the smallest non-empty
    ///   bucket's upper bound (the minimum's bucket);
    /// * `q = 1.0` → the largest non-empty bucket's upper bound (the
    ///   maximum's bucket);
    /// * samples ≥ 2⁶³ land in the saturated top bucket whose upper
    ///   bound reports as `u64::MAX`.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(self.counts.len().saturating_sub(1))
    }

    /// Median estimate (see [`Pow2Histogram::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th-percentile estimate — the burn-rate alerting tail
    /// quantile (SLO breaches concentrate far past p99).
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// Bucket-wise difference `self − earlier`, for windowed percentiles
    /// over cumulative histograms: given a snapshot stream where each
    /// tick carries the cumulative histogram, `cur.diff(prev)` is the
    /// histogram of exactly the samples recorded between the two ticks.
    /// `earlier` must be a prefix of `self`'s history (every bucket
    /// count ≤ `self`'s); counts saturate at zero otherwise.
    pub fn diff(&self, earlier: &Pow2Histogram) -> Pow2Histogram {
        let mut counts = self.counts.clone();
        for (i, &c) in earlier.counts.iter().enumerate() {
            if i < counts.len() {
                counts[i] = counts[i].saturating_sub(c);
            }
        }
        Pow2Histogram {
            counts,
            n: self.n.saturating_sub(earlier.n),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Mean sample value.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Render as `≤1: n, ≤2: n, ≤4: n, …` (skipping empty buckets).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let upper = 1u128 << i;
            let _ = write!(out, "≤{upper}: {c}  ");
        }
        out.trim_end().to_string()
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn pow2_buckets_are_correct() {
        let h = Pow2Histogram::from_samples([0, 1, 2, 3, 4, 5, 8, 9, 1024]);
        // bucket 0: {0,1}; bucket 1: {2}; bucket 2: {3,4}; bucket 3: {5,8};
        // bucket 4: {9..16}; bucket 10: {1024 → (512,1024]}.
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[2], 2);
        assert_eq!(h.counts[3], 2);
        assert_eq!(h.counts[4], 1);
        assert_eq!(h.counts[10], 1);
        assert_eq!(h.n, 9);
        assert!(h.render().contains("≤1: 2"));
        assert!(h.render().contains("≤1024: 1"));
    }

    #[test]
    fn percentiles_of_empty_histogram_are_zero() {
        let e = Pow2Histogram::from_samples([]);
        assert_eq!(e.p50(), 0);
        assert_eq!(e.p95(), 0);
        assert_eq!(e.p99(), 0);
        assert_eq!(e.percentile(0.0), 0);
        assert_eq!(e.percentile(1.0), 0);
    }

    #[test]
    fn percentiles_of_single_bucket() {
        // All samples land in (4, 8]; every percentile reports the
        // bucket's upper bound.
        let h = Pow2Histogram::from_samples([5, 5, 5, 5, 5]);
        assert_eq!(h.p50(), 8);
        assert_eq!(h.p95(), 8);
        assert_eq!(h.p99(), 8);
        assert_eq!(h.percentile(1.0), 8);
    }

    #[test]
    fn percentiles_straddle_buckets() {
        // 90 ones (bucket 0, ≤1) + 10 large samples (≤1024).
        let mut samples = vec![1u64; 90];
        samples.extend(std::iter::repeat_n(1000, 10));
        let h = Pow2Histogram::from_samples(samples);
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p95(), 1024);
        assert_eq!(h.p99(), 1024);
    }

    #[test]
    fn saturated_samples_do_not_overflow() {
        let h = Pow2Histogram::from_samples([u64::MAX, u64::MAX, 1]);
        // u64::MAX lands in the top bucket (index 64, upper u64::MAX).
        assert_eq!(h.counts.len(), 65);
        assert_eq!(h.counts[64], 2);
        assert_eq!(h.sum, u64::MAX, "sum saturates");
        assert_eq!(h.p99(), u64::MAX);
        assert_eq!(h.p50(), u64::MAX);
        assert_eq!(h.percentile(0.3), 1);
    }

    #[test]
    fn p999_resolves_the_far_tail() {
        // 9989 small samples + 11 huge ones: p99 stays in the small
        // bucket, p999 (nearest-rank 9990 of 10000) must reach the tail
        // bucket.
        let mut samples = vec![1u64; 9_989];
        samples.extend(std::iter::repeat_n(1 << 20, 11));
        let h = Pow2Histogram::from_samples(samples);
        assert_eq!(h.p99(), 1);
        assert_eq!(h.p999(), 1 << 20);
        // Extremes of the documented percentile contract.
        assert_eq!(h.percentile(0.0), 1, "q=0 reports the minimum's bucket");
        assert_eq!(h.percentile(1.0), 1 << 20, "q=1 reports the maximum's bucket");
        // Saturated top bucket: the p999 of an all-huge population.
        let sat = Pow2Histogram::from_samples(vec![u64::MAX; 1000]);
        assert_eq!(sat.p999(), u64::MAX);
        assert_eq!(Pow2Histogram::default().p999(), 0, "empty histogram");
    }

    #[test]
    fn diff_recovers_window_samples() {
        let mut cum = Pow2Histogram::from_samples([1u64, 5, 900]);
        let prev = cum.clone();
        for s in [2u64, 7, 7, 4096] {
            cum.record(s);
        }
        let window = cum.diff(&prev);
        let expect = Pow2Histogram::from_samples([2u64, 7, 7, 4096]);
        assert_eq!(window.n, expect.n);
        assert_eq!(window.sum, expect.sum);
        assert_eq!(window.p99(), expect.p99());
        // counts may differ in trailing zeros only.
        for i in 0..window.counts.len().max(expect.counts.len()) {
            assert_eq!(
                window.counts.get(i).copied().unwrap_or(0),
                expect.counts.get(i).copied().unwrap_or(0),
                "bucket {i}"
            );
        }
        // Diffing against itself is empty; against a *later* histogram
        // saturates to zero instead of wrapping.
        assert_eq!(cum.diff(&cum).n, 0);
        assert_eq!(prev.diff(&cum).n, 0);
    }

    #[test]
    fn merge_equals_concatenated_samples() {
        let a_samples = [0u64, 3, 17, 900, 2];
        let b_samples = [1u64, 1, 64, 1_000_000];
        let mut a = Pow2Histogram::from_samples(a_samples);
        let b = Pow2Histogram::from_samples(b_samples);
        a.merge(&b);
        let both = Pow2Histogram::from_samples(a_samples.iter().chain(&b_samples).copied());
        assert_eq!(a.counts, both.counts);
        assert_eq!(a.n, both.n);
        assert_eq!(a.sum, both.sum);
        assert_eq!(a.p95(), both.p95());
        // Merging an empty histogram is a no-op.
        let mut c = both.clone();
        c.merge(&Pow2Histogram::default());
        assert_eq!(c.counts, both.counts);
        assert_eq!(c.n, both.n);
    }

    #[test]
    fn mean_and_empty() {
        let h = Pow2Histogram::from_samples([2, 4, 6]);
        assert!((h.mean() - 4.0).abs() < 1e-12);
        let e = Pow2Histogram::from_samples([]);
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.render(), "");
    }
}
