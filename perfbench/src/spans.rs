//! In-memory spans for the traced run.
//!
//! A span is one timed call into a layer: its name (`layer.operation`),
//! the request (`trace`) it belongs to, the span that caused it, and
//! its start and duration. Spans of one request share `trace`. Child
//! spans are either nested calls or *replays*: the same inputs pushed
//! through a layer's public function right after the service call, so
//! their durations split the parent's time even though they ran after
//! it. A span's self time is its duration minus its children's.
//!
//! Spans stay in memory while the benchmark runs and are written out
//! once at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The request (or batch, or round) the span belongs to.
    pub trace: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, ns after the tracer was created.
    pub start_ns: u64,
    /// Duration, ns, with the cost of one clock read removed.
    pub dur_ns: u64,
}

impl Span {
    /// The layer: the span name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans and derives self times.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Median cost of one `Instant::now()`, subtracted from every
    /// span: each measured span pays for one clock read.
    clock_ns: u64,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer calibrated against this machine's clock.
    pub fn new() -> Self {
        let mut reads: Vec<u64> = (0..10_001)
            .map(|_| {
                let a = Instant::now();
                let b = Instant::now();
                (b - a).as_nanos() as u64
            })
            .collect();
        reads.sort_unstable();
        Self {
            origin: Instant::now(),
            clock_ns: reads[reads.len() / 2],
            spans: Vec::new(),
        }
    }

    /// Records a span that started at `start` and lasted `dur`;
    /// returns its index for use as a parent.
    pub fn record(
        &mut self,
        trace: u64,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        dur: Duration,
    ) -> usize {
        self.spans.push(Span {
            trace,
            parent,
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: (dur.as_nanos() as u64).saturating_sub(self.clock_ns),
        });
        self.spans.len() - 1
    }

    /// Records a span for a duration reported by the program itself
    /// (a solver's own wall-clock diagnostics), which carries no clock
    /// read of ours.
    pub fn record_reported(
        &mut self,
        trace: u64,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        dur: Duration,
    ) -> usize {
        let i = self.record(trace, parent, name, start, dur);
        self.spans[i].dur_ns = dur.as_nanos() as u64;
        i
    }

    /// The cost of one clock read, which [`Tracer::record`] takes off
    /// every span.
    pub fn clock(&self) -> Duration {
        Duration::from_nanos(self.clock_ns)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64)
            .collect()
    }

    /// Self time (ns) of every span: its duration minus the durations
    /// of its direct children, floored at zero.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.dur_ns.saturating_sub(c) as f64)
            .collect()
    }

    /// Self times (ns) of every span named `name`.
    pub fn self_times_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Each layer's self time summed over the spans `keep` selects,
    /// divided by the number of distinct traces among them: the mean
    /// self time per request (ns).
    pub fn layer_self_per_trace(
        &self,
        keep: impl Fn(&Span) -> bool,
    ) -> BTreeMap<&'static str, f64> {
        let kept: Vec<(&Span, f64)> = self
            .spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| keep(s))
            .collect();
        let mut traces: Vec<u64> = kept.iter().map(|(s, _)| s.trace).collect();
        traces.sort_unstable();
        traces.dedup();
        let n = traces.len().max(1) as f64;
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, t) in kept {
            *out.entry(s.layer()).or_default() += t / n;
        }
        out
    }

    /// Writes every span as one JSON array (`parent` is an index into
    /// the same array).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"dur_ns\":{}}}",
                s.trace, s.name, s.start_ns, s.dur_ns
            );
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let now = Instant::now();
        let clock = Duration::from_nanos(t.clock_ns);
        let root = t.record(
            1,
            None,
            "service.submit",
            now,
            Duration::from_nanos(1000) + clock,
        );
        let child = t.record(
            1,
            Some(root),
            "core.locate",
            now,
            Duration::from_nanos(300) + clock,
        );
        t.record(
            1,
            Some(child),
            "core.inner",
            now,
            Duration::from_nanos(100) + clock,
        );
        t.record(
            2,
            None,
            "service.submit",
            now,
            Duration::from_nanos(500) + clock,
        );
        assert_eq!(t.self_times(), vec![700.0, 200.0, 100.0, 500.0]);
        assert_eq!(t.self_times_of("service.submit"), vec![700.0, 500.0]);
        let layers = t.layer_self_per_trace(|_| true);
        assert_eq!(layers["service"], 600.0);
        assert_eq!(layers["core"], 150.0);
        let first = t.layer_self_per_trace(|s| s.trace == 1);
        assert_eq!(first["service"], 700.0);
    }
}
