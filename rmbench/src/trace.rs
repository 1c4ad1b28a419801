//! Wall clock and span recording.
//!
//! Every time the benchmark reports is read through [`Stopwatch`]; the
//! engine crates themselves stay clock-free. A [`Tracer`] records spans
//! (name, start, end, parent) around calls into the engine's layers. It
//! keeps them in memory and writes them out once, at the end of the run.
//! A disabled tracer records nothing, so the untraced run pays only for a
//! branch per call site.

use std::io::Write;
use std::path::Path;
use std::time::Instant; // rm-lint: allow(wallclock-in-results) the benchmark's only clock: it times engine calls from outside and never feeds a result

/// A started wall-clock measurement.
#[derive(Clone, Copy)]
pub struct Stopwatch(Instant); // rm-lint: allow(wallclock-in-results) measurement only

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch(Instant::now()) // rm-lint: allow(wallclock-in-results) measurement only
    }

    /// Seconds since [`Self::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// One recorded span. Times are seconds since the tracer was created.
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open span; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    origin: Stopwatch,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Stopwatch::start(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.secs(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.origin.secs();
        if let Some(span) = self.spans.get_mut(id) {
            span.end = now;
        }
        // Spans close in LIFO order at every call site.
        self.stack.retain(|&s| s != id);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the closed spans called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end.is_finite())
            .map(Span::secs)
            .collect()
    }

    /// Summed durations of the spans called `name` whose parent is span
    /// `parent`, one sum per span called `parent_name`.
    pub fn child_sums(&self, parent_name: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent_name)
            .map(|(pid, _)| {
                self.spans
                    .iter()
                    .filter(|c| c.parent == Some(pid) && c.name == name && c.end.is_finite())
                    .map(Span::secs)
                    .sum()
            })
            .collect()
    }

    /// Writes the spans as JSON lines (`id`, `name`, `start_s`, `end_s`,
    /// `parent`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}",
                s.name,
                crate::report::num(s.start),
                crate::report::num(s.end),
            )?;
        }
        out.flush()
    }
}
