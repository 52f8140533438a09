//! In-memory span recording for the traced runs.
//!
//! The benchmark records spans from its own code around the calls it
//! makes into each layer (the program itself is not instrumented). A
//! span has a name, start and end, the span that caused it, and a
//! request id shared by every span of one request. Spans stay in memory
//! and are written out when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Layer boundary, for example `served.serve`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    /// Request id shared by all spans of one request (0 when a span
    /// serves several requests at once, like a coalesced forward).
    pub request: u64,
}

/// Bound on the spans kept in memory; later spans are counted, not kept.
const MAX_SPANS: usize = 400_000;

/// Collects spans while enabled; a disabled tracer costs one relaxed
/// load per call site.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    /// Parent id for spans opened on threads the benchmark does not
    /// own (model forwards run on the server's workers). Set by the one
    /// sequential replay thread around each call.
    current_parent: AtomicU64,
    current_request: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A disabled tracer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            current_parent: AtomicU64::new(0),
            current_request: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id.
    #[must_use]
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span that ends now (no-op while disabled).
    pub fn record(&self, id: u64, name: &'static str, start: u64, parent: u64, request: u64) {
        if !self.enabled() {
            return;
        }
        let end = self.now();
        let mut spans = self.spans.lock().expect("span lock");
        if spans.len() >= MAX_SPANS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(Span {
            id,
            name,
            start,
            end,
            parent,
            request,
        });
    }

    /// Sets the parent and request that spans recorded on other
    /// threads attach to (see [`Tracer::ambient`]).
    pub fn set_ambient(&self, parent: u64, request: u64) {
        self.current_parent.store(parent, Ordering::Release);
        self.current_request.store(request, Ordering::Release);
    }

    /// The ambient `(parent, request)` set by [`Tracer::set_ambient`].
    #[must_use]
    pub fn ambient(&self) -> (u64, u64) {
        (
            self.current_parent.load(Ordering::Acquire),
            self.current_request.load(Ordering::Acquire),
        )
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Spans that did not fit in memory.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id, s.name, s.start, s.end, s.parent, s.request
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once, and the
/// parts of a child outside its parent do not count).
#[must_use]
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end.saturating_sub(s.start);
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_within(kids, s.start, s.end));
            (s.id, dur.saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// Durations (ns) of the spans named `name`.
#[must_use]
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end.saturating_sub(s.start) as f64)
        .collect()
}

/// Self times (ns) of the spans named `name`.
#[must_use]
pub fn self_durations(spans: &[Span], selfs: &HashMap<u64, u64>, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id] as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            name: "x",
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),  // overlaps child 2: union is [10, 50)
            span(4, 1, 90, 120), // sticks out of the parent: only [90, 100) counts
            span(5, 2, 15, 20),  // grandchild: counts against span 2 only
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 30 - 5);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&5], 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        let id = t.next_id();
        t.record(id, "a", 0, 0, 1);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.record(id, "a", t.now(), 0, 1);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(durations(&t.spans(), "a").len(), 1);
    }
}
