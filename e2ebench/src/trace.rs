//! In-memory span recording around calls into each layer, and the
//! per-layer self-time table derived from the spans.
//!
//! Spans are recorded by the benchmark around public calls; nothing in
//! the library is instrumented. A span's self time is its duration minus
//! the part of its interval covered by its children.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `runtime.anonymize`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request (or round).
    pub request: u64,
}

/// Records spans in memory; written out once the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`Tracer::close`] and as the
    /// parent of nested spans.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        let end = self.now();
        self.spans[id].end = end;
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start, s.end, s.request
            )?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals` (each `(start, end)`).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of every span, in nanoseconds, in span order: its duration
/// minus the union of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (start, end) = (s.start.max(parent.start), s.end.min(parent.end));
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end - s.start).saturating_sub(covered(kids)))
        .collect()
}

/// Per-layer aggregate of self times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    /// Self time of every call, in nanoseconds, in span order.
    pub self_ns: Vec<u64>,
}

impl Layer {
    /// Spans recorded under this name.
    pub fn calls(&self) -> usize {
        self.self_ns.len()
    }

    /// Total self time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / 1e6
    }

    /// Median self time per call in microseconds.
    pub fn median_us(&self) -> f64 {
        let us: Vec<f64> = self.self_ns.iter().map(|&n| n as f64 / 1e3).collect();
        crate::stats::median(&us).unwrap_or(0.0)
    }

    /// Median self time per call in milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.median_us() / 1e3
    }
}

/// Group self times by layer name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name).or_default().self_ns.push(t);
    }
    out
}

/// The cost of recording one span, in nanoseconds, measured by timing
/// `n` empty spans on a throwaway tracer.
pub fn span_cost_ns(n: usize) -> f64 {
    let mut probe = Tracer::new();
    probe.spans.reserve(n);
    let start = Instant::now();
    for i in 0..n {
        probe.span("calibrate", None, i as u64, || std::hint::black_box(i));
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0, 100) with children [10, 30), [20, 40) (overlapping, so
        // their union is 30) and [50, 60); a grandchild inside the last
        // child counts against the child only.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 50, 60, Some(0)),
            span("d", 52, 55, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20, 7, 3]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn layers_aggregate_by_name() {
        let spans = vec![
            span("req", 0, 10, None),
            span("x", 0, 4, Some(0)),
            span("req", 10, 30, None),
            span("x", 12, 20, Some(2)),
        ];
        let table = layers(&spans);
        assert_eq!(table["req"].calls(), 2);
        assert_eq!(table["req"].self_ns, vec![6, 12]);
        assert_eq!(table["x"].self_ns, vec![4, 8]);
        assert_eq!(table["x"].median_us(), 0.004);
        assert!((table["req"].total_ms() - 18e-6).abs() < 1e-12);
    }

    #[test]
    fn recorded_spans_nest_and_serialize() {
        let mut t = Tracer::new();
        let root = t.open("root", None, 1);
        let v = t.span("leaf", Some(root), 1, || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains(r#""name":"leaf""#) && text.contains(r#""parent":0"#));
    }
}
