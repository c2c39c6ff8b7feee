//! The traced pass's span log: one span per call the benchmark makes into
//! a layer's public API, kept in memory and written out when the run ends.

use crate::stats::{json_str, median};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The per-layer metric the call is charged to.
    pub name: &'static str,
    /// Nanoseconds since the log's origin.
    pub start_ns: u64,
    /// Nanoseconds since the log's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// The request (query, write or wire round trip) the span belongs to.
    pub request: u64,
}

/// An append-only span log for one thread. Spans nest: a span opened
/// while another is open becomes its child.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// An empty log timing from `origin` (share one origin across threads
    /// so their logs merge onto one clock).
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Appends another thread's log.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in ns: its duration minus the part of it
    /// covered by its children. Children of one span run one after another
    /// on its thread, so their union is their sum.
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns.saturating_sub(s.start_ns) as f64;
            }
        }
        own
    }

    /// Per span name: the median over requests of each request's summed
    /// self time under that name, in µs.
    #[must_use]
    pub fn median_self_us(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_times_ns();
        let mut per_request: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            *per_request.entry((s.name, s.request)).or_default() += t;
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), t) in per_request {
            by_name.entry(name).or_default().push(t / 1e3);
        }
        by_name.into_iter().map(|(k, v)| (k, median(&v))).collect()
    }

    /// Writes the log as JSON lines to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
                s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new(Instant::now());
        log.span("outer", 0, |log| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            log.span("inner", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let own = log.self_times_ns();
        assert!(own[0] >= 2e6 && own[0] < 5e6, "outer self {}", own[0]);
        assert!(own[1] >= 5e6, "inner self {}", own[1]);
        assert_eq!(log.spans()[1].parent, Some(0));
        let med = log.median_self_us();
        assert!(med["inner"] >= 5e3);
    }
}
