//! In-memory spans, written as JSON lines when the run ends.
//!
//! Spans are recorded from the harness's side of each call into a layer
//! (`run → setup | repetition → submit | tick`, ladder probes under
//! `ladder`); spans inside the program are the ROADMAP telemetry item.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One closed span. `parent == 0` marks the root.
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary (report fields, counter deltas).
    pub counts: Vec<(&'static str, f64)>,
}

/// Span sink for one traced run. Ids are 1-based in opening order.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied().unwrap_or(0),
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32, counts: Vec<(&'static str, f64)>) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.counts = counts;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"counts\":{{",
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            )?;
            for (i, (key, value)) in s.counts.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                write!(out, "{sep}\"{key}\":{}", crate::json_number(*value))?;
            }
            writeln!(out, "}}}}")?;
        }
        out.flush()
    }
}
