//! In-memory spans around the calls the benchmark makes into each
//! layer's public functions. Nothing inside the program under test is
//! instrumented; a span is two `Instant` reads in the benchmark's own
//! code. Spans stay in memory until the run ends and are then written
//! as one JSON object per line.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `graph.build`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one, within the same tracer.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread. Switched off it costs one branch per
/// call, so the same request code serves the timed and the traced
/// pass.
pub struct Tracer {
    origin: Instant,
    on: bool,
    request: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer measuring from `origin` (shared by every thread of a
    /// run so their spans line up).
    pub fn new(origin: Instant, on: bool) -> Self {
        Tracer {
            origin,
            on,
            request: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off between requests.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    /// Starts a new request: later spans carry a fresh identifier.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let index = self.open.pop().expect("exit without enter");
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "read with a span still open");
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once; a child is clipped to its parent).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Seconds spent in spans called `name`, summed per request, one
/// sample per request that has such a span.
pub fn per_request_s(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_request: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == name) {
        *by_request.entry(span.request).or_default() += span.duration_ns();
    }
    by_request.values().map(|&ns| ns as f64 * 1e-9).collect()
}

/// For every span called `root`: the share of its duration that no
/// child span accounts for.
pub fn unattributed_frac(spans: &[Span], root: &str) -> Vec<f64> {
    let own = self_ns(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == root && s.duration_ns() > 0)
        .map(|(s, own)| own as f64 / s.duration_ns() as f64)
        .collect()
}

/// Writes one JSON object per span: `thread`, `id`, `parent` (an `id`
/// of the same thread, or `null`), `request`, `name`, `start_ns`,
/// `end_ns`, `self_ns`.
pub fn write_jsonl(path: &Path, threads: &[&[Span]]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads.iter().enumerate() {
        for (id, (span, own)) in spans.iter().zip(self_ns(spans)).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":{thread},\"id\":{id},\"parent\":{parent},\"request\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, request: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span("request", 0, 100, None, 1),
            span("a", 10, 30, Some(0), 1),
            // Overlaps `a` by 10 ns: the union covers 10..50.
            span("b", 20, 50, Some(0), 1),
            // A grandchild reduces `b`, not the request.
            span("c", 25, 45, Some(2), 1),
            // Sticks out past its parent: clipped to 90..100.
            span("d", 90, 120, Some(0), 1),
        ];
        assert_eq!(self_ns(&spans), vec![100 - 40 - 10, 20, 10, 20, 30]);
        assert_eq!(unattributed_frac(&spans, "request"), vec![0.5]);
    }

    #[test]
    fn per_request_sums_repeated_spans() {
        let spans = [
            span("cell", 0, 5, None, 1),
            span("cell", 5, 12, None, 1),
            span("cell", 20, 21, None, 2),
            span("other", 0, 100, None, 2),
        ];
        assert_eq!(per_request_s(&spans, "cell"), vec![12.0 * 1e-9, 1e-9]);
        assert!(per_request_s(&spans, "missing").is_empty());
    }

    #[test]
    fn tracer_nests_and_switches_off() {
        let mut t = Tracer::new(Instant::now(), true);
        t.next_request();
        t.enter("request");
        let x = t.time("leaf", || 7);
        t.exit();
        t.set_on(false);
        t.time("unseen", || ());
        assert_eq!(x, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("request", None));
        assert_eq!((spans[1].name, spans[1].parent), ("leaf", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].request, 1);
    }
}
