//! In-memory span recording for the traced run.
//!
//! A span is `(id, parent, name, job, start, end)`: the benchmark opens one
//! around each of its own calls into a layer's public functions, so spans
//! sit at layer boundaries and nothing inside the program changes. Spans
//! are kept in memory and written out once, when the run ends. A span's
//! *self time* is its duration minus the part of it that its children
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span's id, or 0 for a root span.
    pub parent: u64,
    /// Layer-qualified span name, e.g. `engine.queue.claim`.
    pub name: &'static str,
    /// The job / trial / shard the span belongs to; spans of one unit of
    /// work share it.
    pub job: u64,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`. `f` receives the span's id so
    /// it can parent nested spans (0 when the tracer is disabled).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        job: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.push(Span {
            id,
            parent,
            name,
            job,
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
        });
        out
    }

    /// Records a span whose bounds were measured by the caller (for spans
    /// that do not nest as one closure, e.g. a request and its reply).
    /// Returns its id (0 when disabled).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        job: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name,
            job,
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
        });
        id
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// File creation or write failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.job, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .push(span);
    }

    fn since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// Self time of every span, keyed by span id: its duration minus the union
/// of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_ns_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut by_name = BTreeMap::new();
    for s in spans {
        *by_name.entry(s.name).or_insert(0) += selfs[&s.id];
    }
    by_name
}

/// Total duration per span name, in nanoseconds.
pub fn total_ns_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for s in spans {
        *by_name.entry(s.name).or_insert(0) += s.duration_ns();
    }
    by_name
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent == 0 { "outer" } else { "inner" },
            job: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 1, 90, 120),
        ];
        let selfs = self_times(&spans);
        // Children cover 10..60 and 90..100 of the parent: 60 ns.
        assert_eq!(selfs[&1], 40);
        assert_eq!(selfs[&2], 30);
        let by_name = self_ns_by_name(&spans);
        assert_eq!(by_name["outer"], 40);
        assert_eq!(by_name["inner"], 30 + 30 + 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let id = tracer.span("x", 0, 0, |id| id);
        assert_eq!(id, 0);
        assert!(tracer.spans().is_empty());
        let tracer = Tracer::new(true);
        let outer = tracer.span("x", 0, 7, |id| tracer.span("y", id, 7, |_| 0) + id);
        assert_eq!(outer, 1);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, 1);
    }
}
