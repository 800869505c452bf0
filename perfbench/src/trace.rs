//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into
//! each layer's public API; the program itself is not instrumented.
//! Every span carries a name, start and end (nanoseconds since the
//! tracer's epoch), its parent span and the id of the request it
//! belongs to, so all spans of one request can be grouped. Spans stay
//! in memory until [`Tracer::write_jsonl`] writes them out at the end of
//! the run.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the tracer (never 0).
    pub id: u64,
    /// Id of the span that caused this one, if any.
    pub parent: Option<u64>,
    /// Request (unit of workload work) the span belongs to: the id of
    /// the request's root span.
    pub request: u64,
    /// Layer boundary, named after the module whose API was called.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer epoch.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds since the tracer epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.at_ns(Instant::now())
    }

    /// Converts an instant to tracer time (0 for instants before the epoch).
    #[must_use]
    pub fn at_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reserves a span id, for spans whose children start before they end.
    #[must_use]
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a finished span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span buffer lock is never held across a panic").push(span);
    }

    /// Opens a span that is recorded when the guard drops.
    #[must_use]
    pub fn span(&self, name: &'static str, parent: Option<u64>, request: u64) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            id: self.next_id(),
            parent,
            request,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Opens the root span of a new request, whose id is the span's own id.
    #[must_use]
    pub fn root_span(&self, name: &'static str) -> SpanGuard<'_> {
        let id = self.next_id();
        SpanGuard { tracer: self, id, parent: None, request: id, name, start_ns: self.now_ns() }
    }

    /// A copy of every span recorded so far, in recording order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock is never held across a panic").clone()
    }

    /// Writes `header` as the first line, then one JSON object per span.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in self.spans() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"request":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// An open span; records itself on drop.
#[derive(Debug)]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// The span's id, to parent child spans on.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.record(Span {
            id: self.id,
            parent: self.parent,
            request: self.request,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        });
    }
}

/// Total and self time of every span named `name`: self time is the
/// span's duration minus the durations of its direct children (which
/// run on the same thread and never overlap). Returns
/// `(spans, total_ns, self_ns)`.
#[must_use]
pub fn self_time(spans: &[Span], name: &str) -> (u64, u64, u64) {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.duration_ns();
        }
    }
    let (mut count, mut total, mut own) = (0, 0, 0);
    for s in spans.iter().filter(|s| s.name == name) {
        count += 1;
        total += s.duration_ns();
        own += s.duration_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    (count, total, own)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, request: 1, name, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(1, None, "dse.truth", 0, 100),
            span(2, Some(1), "dse.evaluator", 10, 40),
            span(3, Some(1), "dse.evaluator", 50, 70),
            span(4, Some(2), "inner", 15, 20),
        ];
        assert_eq!(self_time(&spans, "dse.truth"), (1, 100, 50));
        assert_eq!(self_time(&spans, "dse.evaluator"), (2, 50, 45));
        assert_eq!(self_time(&spans, "absent"), (0, 0, 0));
    }

    #[test]
    fn guards_record_parent_and_request() {
        let tracer = Tracer::new();
        {
            let outer = tracer.root_span("outer");
            let _inner = tracer.span("inner", Some(outer.id()), outer.id());
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(spans.iter().all(|s| s.request == outer.id && s.end_ns >= s.start_ns));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
