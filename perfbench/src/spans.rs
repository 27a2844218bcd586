//! In-memory span recorder for the benchmark's own calls into each
//! layer. A span is a name, a start and end on one monotonic clock, the
//! span that caused it, and the repetition (`run`) it belongs to. Spans
//! stay in memory while the benchmark measures and are written out as
//! JSON lines when it ends; `run.py` turns them into per-layer self
//! times. A disabled recorder reads no clock and stores nothing, so the
//! untraced repetitions pay only a branch per call.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; `None` from a disabled recorder.
pub type SpanId = Option<usize>;

struct Span {
    run: u32,
    parent: SpanId,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    origin: Instant,
    enabled: bool,
    run: u32,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            enabled: false,
            run: 0,
            spans: Vec::new(),
        }
    }

    /// Starts recording repetition `run`, or stops recording when
    /// `enabled` is false.
    pub fn set_run(&mut self, run: u32, enabled: bool) {
        self.run = run;
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            run: self.run,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Spans::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"run":{},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}
