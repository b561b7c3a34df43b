//! The harness's own span recorder and the calibrated timing loop.
//!
//! Spans stay in memory and are written out when the benchmark ends.
//! A disarmed tracer costs one branch per scope, so the untraced
//! repetitions — the only source of end-to-end numbers — run the same
//! code as the traced pass.

use std::time::Instant;

use sws_perf::trace::Span;

/// Records `{name, start, end, parent, workload}` spans.
pub struct Tracer {
    origin: Instant,
    armed: bool,
    workload: String,
    stack: Vec<usize>,
    /// Finished and open spans, in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, "")
    }

    /// A recording tracer for `workload`.
    pub fn on(workload: &str) -> Tracer {
        Tracer::new(true, workload)
    }

    fn new(armed: bool, workload: &str) -> Tracer {
        Tracer {
            origin: Instant::now(),
            armed,
            workload: workload.to_string(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the enclosing scope.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.armed {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            workload: self.workload.clone(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }
}

/// Seconds `f` takes.
pub fn time_s<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// How hard the calibrated loop works: batch length and batch count.
#[derive(Copy, Clone)]
pub struct Effort {
    /// Calibrate the batch to at least this many microseconds.
    pub batch_us: u128,
    /// Batches measured; the minimum is reported.
    pub batches: u32,
}

impl Effort {
    /// The `benches/micro.rs` method: ~5 ms batches, best of 5.
    pub const FULL: Effort = Effort {
        batch_us: 5_000,
        batches: 5,
    };
    /// Smoke-run effort.
    pub const QUICK: Effort = Effort {
        batch_us: 200,
        batches: 2,
    };
}

/// ns per call of `f`: size a batch to fill `batch_us`, then report the
/// best of `batches` batches (the minimum filters scheduler noise).
pub fn ns_per_iter(effort: Effort, mut f: impl FnMut()) -> f64 {
    let mut n: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..n {
            f();
        }
        if t0.elapsed().as_micros() >= effort.batch_us || n >= 1 << 30 {
            break;
        }
        n *= 4;
    }
    let mut best = f64::INFINITY;
    for _ in 0..effort.batches {
        let t0 = Instant::now();
        for _ in 0..n {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / n as f64);
    }
    best
}
