//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions: name, layer, start, end, parent span and run id.
//! Counters (work done at a boundary, e.g. kernel-stage totals of one
//! sweep) attach to a span. Nothing is written while the run measures;
//! [`Tracer::write_jsonl`] writes everything out at the end. A disabled
//! tracer records nothing, so the end-to-end runs measure untraced code.

use std::io::Write;
use std::time::{Duration, Instant};

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
struct Span {
    parent: Option<usize>,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct Counter {
    span: Option<usize>,
    name: &'static str,
    value: f64,
}

/// Records spans and counters in memory.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run: u64,
    epoch: Instant,
    spans: Vec<Span>,
    counters: Vec<Counter>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for run `run`; records only when `enabled`.
    pub fn new(enabled: bool, run: u64) -> Tracer {
        Tracer {
            enabled,
            run,
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            layer,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span` (and any span left open inside it) and returns its
    /// duration.
    pub fn end(&mut self, span: SpanId) -> Duration {
        let Some(id) = span.0 else {
            return Duration::ZERO;
        };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            if self.spans[top].end_ns == 0 {
                self.spans[top].end_ns = now;
            }
            if top == id {
                break;
            }
        }
        Duration::from_nanos(now - self.spans[id].start_ns)
    }

    /// Attaches a counter to `span`.
    pub fn count(&mut self, span: SpanId, name: &'static str, value: f64) {
        if self.enabled {
            self.counters.push(Counter {
                span: span.0,
                name,
                value,
            });
        }
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span and counter as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |p| p.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"run\":{},\"span\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run,
                id,
                opt(s.parent),
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        for c in &self.counters {
            writeln!(
                w,
                "{{\"run\":{},\"span\":{},\"counter\":\"{}\",\"value\":{}}}",
                self.run,
                opt(c.span),
                c.name,
                c.value
            )?;
        }
        w.flush()
    }
}
