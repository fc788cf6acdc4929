//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing is written while a run measures; the
//! per-layer metrics are folded out of the spans when it ends.

use std::time::Instant;

use crate::measure::{ms_between, self_time_ms, Interval};

/// One recorded span: a layer call, when it ran, and what caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ms: f64,
    pub end_ms: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// A span recorder. Disabled recorders hand out dummy ids and keep nothing,
/// so untraced runs pay one branch per boundary.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span named `name`; its parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ms: ms_between(self.origin, Instant::now()),
            end_ms: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop().expect("end without an open span");
        assert_eq!(top, id.0, "spans must close innermost first");
        self.spans[top].end_ms = ms_between(self.origin, Instant::now());
    }

    /// Record a span over `f`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the children of span `parent` named `name`.
    pub fn child_total_ms(&self, parent: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(Span::duration_ms)
            .sum()
    }

    /// Self time of span `index`: its duration minus what its children cover.
    pub fn self_time_ms(&self, index: usize) -> f64 {
        let span = &self.spans[index];
        let children: Vec<Interval> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| Interval {
                start_ms: s.start_ms,
                end_ms: s.end_ms,
            })
            .collect();
        self_time_ms(
            Interval {
                start_ms: span.start_ms,
                end_ms: span.end_ms,
            },
            &children,
        )
    }

    /// Indices of every span named `name`.
    pub fn indices(&self, name: &str) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .collect()
    }
}

/// Mean cost of recording one span, in milliseconds, measured on a scratch
/// recorder: the unit of `trace.overhead_ratio`.
pub fn span_cost_ms() -> f64 {
    const N: usize = 20_000;
    let mut scratch = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..N {
        let id = scratch.begin("calibrate");
        scratch.end(id);
    }
    start.elapsed().as_secs_f64() * 1e3 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("inner", || ());
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(t.child_total_ms(0, "inner") >= 2.0);
        assert_eq!(t.child_total_ms(1, "inner"), 0.0);
        let own = t.self_time_ms(0);
        assert!(own >= 0.0 && own < spans[0].duration_ms());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        assert_eq!(t.span("y", || 7), 7);
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
