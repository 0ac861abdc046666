//! In-memory span recording for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public function
//! in a span (name, start, end, parent span, request id); nothing inside
//! the program is instrumented. Spans stay in memory until the run ends
//! and are then written out as tab-separated text. A layer's number is
//! its *self time*: the span's duration minus the time its child spans
//! cover. Children of one span never overlap — every traced request runs
//! on one thread.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (for example `formulation`).
    pub name: &'static str,
    /// Request the span belongs to.
    pub request: u64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Offset of the start from the tracer's origin.
    pub start: Duration,
    /// Offset of the end from the tracer's origin (`None` while open).
    pub end: Option<Duration>,
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose offsets count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        self.spans.push(Span {
            name,
            request,
            parent,
            start: self.origin.elapsed(),
            end: None,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration.
    pub fn end(&mut self, id: SpanId) -> Duration {
        let now = self.origin.elapsed();
        let span = &mut self.spans[id];
        assert!(span.end.is_none(), "span `{}` closed twice", span.name);
        span.end = Some(now);
        now - span.start
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another thread's spans (re-based on this tracer's ids).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.origin.saturating_duration_since(self.origin);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start += shift;
            s.end = s.end.map(|e| e + shift);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every closed span: its duration minus its closed
    /// children's durations.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(duration(s));
            }
        }
        own
    }

    /// Self times of every span named `name`, in recording order.
    pub fn self_times_of(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// The spans as tab-separated text: id, parent, request, name, start
    /// and end in microseconds, self time in microseconds.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\trequest\tname\tstart_us\tend_us\tself_us\n");
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let end = s
                .end
                .map_or_else(|| "-".to_owned(), |e| e.as_micros().to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{end}\t{}",
                s.request,
                s.name,
                s.start.as_micros(),
                own.as_micros()
            );
        }
        out
    }
}

fn duration(s: &Span) -> Duration {
    s.end.map_or(Duration::ZERO, |e| e.saturating_sub(s.start))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(name: &'static str, parent: Option<SpanId>, start_ms: u64, end_ms: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start: Duration::from_millis(start_ms),
            end: Some(Duration::from_millis(end_ms)),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            closed("request", None, 0, 100),
            closed("formulation", Some(0), 0, 10),
            closed("feasible", Some(0), 10, 70),
            closed("presolve", Some(2), 10, 30),
        ];
        let own = t.self_times();
        assert_eq!(own[0], Duration::from_millis(30));
        assert_eq!(own[1], Duration::from_millis(10));
        assert_eq!(own[2], Duration::from_millis(40));
        assert_eq!(own[3], Duration::from_millis(20));
        assert_eq!(t.self_times_of("feasible"), vec![Duration::from_millis(40)]);
        assert!(t.to_tsv().lines().nth(4).expect("row").ends_with("\t20000"));
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.begin("request", 0, None);
        a.end(root);
        let mut b = Tracer::new(origin);
        let outer = b.begin("request", 1, None);
        b.span("wire", 1, Some(outer), || ());
        b.end(outer);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].request, 1);
    }
}
