//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span names a layer call, the diagnosis (request) it belongs to, its
//! parent span, its start and end, and the executor busy time inside it.
//! With one worker the executor runs batches inline on the calling thread,
//! so a layer's self time is its span minus that busy time. Spans stay in
//! memory and are written out once, when the run ends.

use crate::json::Json;
use aitia::Executor;
use std::io::Write;
use std::path::Path;
use std::time::{
    Duration,
    Instant, //
};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: usize,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    pub exec_busy: Duration,
}

/// What one span measured.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub wall: Duration,
    pub exec_busy: Duration,
}

impl Timed {
    /// Wall time not spent executing schedules.
    pub fn self_time(&self) -> Duration {
        self.wall.saturating_sub(self.exec_busy)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`. `f` receives the tracer and the
    /// new span's id, so it can open child spans. `exec`, when given, is
    /// the executor whose busy time the span covers.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
        exec: Option<&Executor>,
        f: impl FnOnce(&mut Tracer, usize) -> T,
    ) -> (T, Timed) {
        let id = self.spans.len();
        let busy_before = exec.map_or(0, |e| e.stats().busy_ns);
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            request,
            parent,
            start,
            end: start,
            exec_busy: Duration::ZERO,
        });
        let out = f(self, id);
        let end = self.origin.elapsed();
        let busy = Duration::from_nanos(exec.map_or(0, |e| e.stats().busy_ns) - busy_before);
        let span = &mut self.spans[id];
        span.end = end;
        span.exec_busy = busy;
        let timed = Timed {
            wall: end - start,
            exec_busy: busy,
        };
        (out, timed)
    }

    /// Records a span the caller timed itself (no executor inside).
    pub fn record(&mut self, name: &'static str, request: usize, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            request,
            parent: None,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            exec_busy: Duration::ZERO,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", id.into()),
                ("name", s.name.into()),
                ("request", s.request.into()),
                ("parent", s.parent.into()),
                ("start_s", s.start.as_secs_f64().into()),
                ("end_s", s.end.as_secs_f64().into()),
                ("exec_busy_s", s.exec_busy.as_secs_f64().into()),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
