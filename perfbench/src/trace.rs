//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, its parent span, and start/end offsets from the
//! tracer's epoch. Spans are kept in memory and written once, at exit, as
//! NDJSON. A disabled tracer records nothing, so untraced repetitions pay
//! only a branch per call.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished or open span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `plan.decode`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds from the tracer's epoch to the span's start.
    pub start_s: f64,
    /// Seconds from the epoch to the span's end (equal to `start_s` while
    /// the span is open).
    pub end_s: f64,
}

/// A span recorder; see the module docs.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an entered span (`usize::MAX` when the tracer is disabled).
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let now = self.epoch.elapsed().as_secs_f64();
        let id = self.spans.len();
        self.spans.push(Span { name, parent: self.open.last().copied(), start_s: now, end_s: now });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and any span left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_secs_f64();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_s = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_s - s.start_s).sum()
    }

    /// A span's duration minus the time its direct children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let children: f64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(|s| s.end_s - s.start_s).sum();
        (span.end_s - span.start_s) - children
    }

    /// Writes every span as one NDJSON line (`name`, `parent`, `start_s`,
    /// `end_s`, `self_s`).
    ///
    /// # Errors
    ///
    /// The file write error.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{},\"self_s\":{}}}",
                s.name,
                s.start_s,
                s.end_s,
                self.self_time(id)
            );
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}
