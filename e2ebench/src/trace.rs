//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program (nothing is traced inside the program). They stay in memory
//! until the run ends and are then written out as JSON lines. A
//! disabled recorder records nothing, so untraced requests pay only a
//! branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The request (tapeout, change, job or iteration) it belongs to.
    pub request: u64,
    /// The span that caused it.
    pub parent: Option<SpanId>,
    /// Offsets from the recorder's start.
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            on: false,
            spans: Vec::new(),
        }
    }

    /// Turn recording on or off for the requests that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span; `None` while recording is off.
    pub fn begin(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            request,
            parent,
            start: now,
            end: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::begin`] (a `None` id is a no-op).
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Record an interval measured elsewhere (for example a job's life
    /// in the farm, seen from the generator thread).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start = start.saturating_duration_since(self.origin);
        let end = end.saturating_duration_since(self.origin);
        self.spans.push(Span {
            name,
            request,
            parent,
            start,
            end,
        });
        Some(self.spans.len() - 1)
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, request, parent);
        let r = f();
        self.end(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.duration()))
            .collect()
    }

    /// The spans as JSON lines, each with its self time.
    pub fn to_jsonl(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_us\":{},\"end_us\":{},\"self_us\":{}}}",
                s.name,
                s.request,
                s.start.as_micros(),
                s.end.as_micros(),
                own.as_micros()
            );
        }
        out
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover. Children may overlap one
/// another (concurrent work) or stick out of the parent; only the
/// union of their intervals inside the parent is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: BTreeMap<SpanId, Vec<(Duration, Duration)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let covered = children
                .get_mut(&i)
                .map_or(Duration::ZERO, |c| covered(s.start, s.end, c));
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: Duration, hi: Duration, intervals: &mut [(Duration, Duration)]) -> Duration {
    intervals.sort_unstable();
    let mut total = Duration::ZERO;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            request: 0,
            parent,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    fn self_ms(spans: &[Span]) -> Vec<u64> {
        self_times(spans)
            .iter()
            .map(|d| d.as_millis() as u64)
            .collect()
    }

    #[test]
    fn sequential_children_are_subtracted() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(50, 90, Some(0)),
        ];
        assert_eq!(self_ms(&spans), vec![30, 30, 40]);
    }

    #[test]
    fn only_direct_children_count() {
        // grandchild time is already inside its parent's interval
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_ms(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
        ];
        assert_eq!(self_ms(&spans)[0], 40);
        // identical intervals
        let spans = [span(0, 10, None), span(2, 8, Some(0)), span(2, 8, Some(0))];
        assert_eq!(self_ms(&spans)[0], 4);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(20, 60, None),
            span(0, 30, Some(0)),
            span(50, 90, Some(0)),
        ];
        assert_eq!(self_ms(&spans)[0], 20);
        // a child entirely outside covers nothing
        let spans = [span(20, 60, None), span(70, 90, Some(0))];
        assert_eq!(self_ms(&spans)[0], 40);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new();
        let id = t.begin("a", 1, None);
        t.end(id);
        assert_eq!(t.time("b", 1, None, || 7), 7);
        assert!(t.spans().is_empty());
        t.set_on(true);
        let outer = t.begin("a", 1, None);
        t.time("b", 1, outer, || ());
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end >= t.spans()[1].end);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
