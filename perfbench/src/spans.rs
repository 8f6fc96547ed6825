//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions, written out when the run ends.
//!
//! Durations are always measured (the end-to-end metrics need them);
//! spans are only kept when tracing is on, so an untraced run pays one
//! clock read per boundary and nothing else.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The request (job, cell or pass) the span belongs to.
    pub run: u64,
}

/// An open span: its start time and, when tracing, its slot.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

impl Open {
    /// The slot to pass as a child's parent.
    pub fn id(&self) -> Option<usize> {
        self.slot
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens span `name` under `parent` for request `run`.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, run: u64) -> Open {
        let start = Instant::now();
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name,
                start_ns: self.since_origin(start),
                end_ns: 0,
                parent,
                run,
            });
            self.spans.len() - 1
        });
        Open { start, slot }
    }

    /// Closes `open`, returning its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if let Some(i) = open.slot {
            self.spans[i].end_ns = self.since_origin(now);
        }
        now - open.start
    }

    /// Times `f` as span `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        run: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.begin(name, parent, run);
        let out = f();
        (out, self.end(open))
    }

    /// Moves another tracer's spans (same origin) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}
