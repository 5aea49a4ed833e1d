//! In-memory spans around the benchmark's calls into each layer,
//! written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.ppr`.
    pub name: &'static str,
    /// Start, in µs since the trace began.
    pub start_us: f64,
    /// End, in µs since the trace began.
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (or query) the call served.
    pub req: u64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let span = Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            req,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that [`close`](Self::close) ends.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, req)
    }

    /// Ends an open span.
    pub fn close(&mut self, span: usize) {
        let end = self.us(Instant::now());
        self.spans[span].end_us = end;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, req);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (duration minus the children's) in ms, summed by name.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ms[p] += span.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ms) {
            *out.entry(span.name).or_insert(0.0) += span.ms() - children;
        }
        out
    }

    /// Durations in ms of `root`'s direct children, summed by name.
    pub fn children_ms(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.parent == Some(root)) {
            *out.entry(span.name).or_insert(0.0) += span.ms();
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let fail = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_us, s.end_us, s.req
            )
            .map_err(fail)?;
        }
        out.flush().map_err(fail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new();
        let base = t.origin;
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("api.query", at(0), at(10), None, 1);
        t.record("core.select", at(1), at(4), Some(root), 1);
        t.record("stats.discrimination", at(4), at(9), Some(root), 1);
        let s = t.self_ms();
        assert!((s["api.query"] - 2.0).abs() < 1e-9);
        assert!((s["core.select"] - 3.0).abs() < 1e-9);
        assert!((s["stats.discrimination"] - 5.0).abs() < 1e-9);
    }
}
