//! In-memory span recorder for the traced run.
//!
//! Spans come only from the benchmark's own code, around its calls into
//! the library's public functions; nothing inside the program is
//! instrumented. A disabled tracer records nothing and costs one branch.
//! Spans are kept in memory and written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `kdtree.build`.
    pub name: &'static str,
    /// Start, microseconds since the tracer's origin.
    pub start_us: f64,
    /// End, microseconds since the tracer's origin.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request or frame the span belongs to.
    pub group: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Span store plus the time spent keeping it.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Wall time spent on work done only because tracing is on
    /// (bookkeeping and tracing-only calls), so the run can report its
    /// own overhead.
    overhead: Duration,
}

impl Tracer {
    /// A tracer; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            overhead: Duration::ZERO,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        group: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let t0 = Instant::now();
        let span = Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            group,
        };
        self.spans.push(span);
        self.overhead += t0.elapsed();
        Some(self.spans.len() - 1)
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Option<usize>) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, start, Instant::now(), parent, group);
        (out, id)
    }

    /// Charges `d` of tracing-only work to the overhead account.
    pub fn charge(&mut self, d: Duration) {
        self.overhead += d;
    }

    /// Tracing overhead accumulated so far.
    pub fn overhead(&self) -> Duration {
        self.overhead
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line (`id`, `parent`, `group`,
    /// `name`, `start_us`, `end_us`) after a header line.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"group\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.group, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, id) = t.time("x", None, 0, || 3);
        assert_eq!((v, id), (3, None));
        assert!(t.spans().is_empty());
    }
}
