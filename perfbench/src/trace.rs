//! Spans recorded around calls into the simulator's layers, kept in
//! memory and written at the end as Chrome Trace Event JSON (opens in
//! Perfetto and `chrome://tracing`).

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the tracer started.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span recorder with a stack of open spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` and returns its duration in microseconds. Spans
    /// opened inside it and left open (a probe that panicked) close with
    /// it.
    pub fn exit(&mut self, id: usize) -> f64 {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
        self.spans[id].duration_us()
    }

    /// Runs `f` inside a span and returns its result and duration in
    /// microseconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Total self time per span name, in microseconds, largest first: a
    /// span's duration minus the part its children cover.
    pub fn self_times_us(&self) -> Vec<(&'static str, f64)> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration_us();
            }
        }
        let mut by_name: Vec<(&'static str, f64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(own) {
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += t,
                None => by_name.push((s.name, t)),
            }
        }
        by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
        by_name
    }

    /// Writes every closed span as a Chrome Trace Event "complete"
    /// event; the span and parent indices travel in `args`.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        for (id, s) in self.spans.iter().enumerate() {
            if s.end_us.is_nan() {
                continue;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{id},\"parent\":{parent}}}}}",
                s.name,
                s.start_us,
                s.duration_us()
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
