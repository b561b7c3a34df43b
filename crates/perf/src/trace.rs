//! Harness spans: the record the traced pass keeps in memory, self-time
//! arithmetic, and a minimal Chrome-trace writer (`sws-tracecheck`
//! accepts its output).

use sws_obs::json::escape;

/// One harness span around a call into a layer's public functions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sched.run_workload.sws`.
    pub name: String,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Workload the span belongs to.
    pub workload: String,
}

impl Span {
    /// Wall duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time per span: its duration minus what its direct children
/// cover (children of one parent never overlap — the harness is
/// single-threaded around its calls).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Total duration of every span named exactly `name`, ns.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// Total duration of every span whose name starts with `prefix`, ns.
pub fn total_prefix_ns(spans: &[Span], prefix: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(Span::dur_ns)
        .sum()
}

fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Render spans as Chrome-trace JSON: one process, one track, complete
/// (`X`) slices in start order with the parent index and self time in
/// `args`. Spans must be in start order (the tracer records them so).
pub fn chrome_trace(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::from(
        "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"sws-perf harness\"}}",
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{},\"dur\":{},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"workload\":\"{}\",\"self_us\":{}}}}}",
            escape(&s.name),
            us(s.start_ns),
            us(s.dur_ns()),
            escape(&s.workload),
            us(own[i]),
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_obs::validate_chrome_trace;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            workload: "w".into(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("rep", 0, 1000, None),
            span("run.sws", 100, 600, Some(0)),
            span("launch", 100, 200, Some(1)),
            span("render", 700, 900, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![300, 400, 100, 200]);
        assert_eq!(total_ns(&spans, "render"), 200);
        assert_eq!(total_prefix_ns(&spans, "run."), 500);
    }

    #[test]
    fn writer_output_passes_the_trace_validator() {
        let spans = vec![
            span("rep \"1\"", 1_500, 9_000, None),
            span("run", 1_500, 4_000, Some(0)),
            span("render", 4_000, 8_999, Some(0)),
        ];
        let stats = validate_chrome_trace(&chrome_trace(&spans)).expect("valid trace");
        assert_eq!(stats.complete, 3);
        assert_eq!(stats.metadata, 1);
        assert_eq!(stats.tracks, 1);
        assert_eq!(us(1_234_567), "1234.567");
        validate_chrome_trace(&chrome_trace(&[])).expect("empty trace is valid");
    }
}
