//! Workspace-wide solver telemetry.
//!
//! `vlp-obs` gives the solver crates a zero-external-dependency way to
//! report what they did: monotonic **counters** (simplex pivots,
//! Dijkstra runs), wall-clock **timers** with min/max/mean aggregation
//! (solve spans, pricing rounds), and numeric **series** (the
//! column-generation objective/dual-bound histories).
//!
//! Everything hangs off a [`Registry`]. Call sites can either take an
//! explicit `&Registry` or record into the process-wide [`global()`]
//! registry; both are cheap (one short mutex lock per *aggregated*
//! event — hot loops count locally and record once per solve). All
//! recording methods take `&self`, so a registry can be shared across
//! `std::thread::scope` workers like the column-generation pricing
//! fan-out.
//!
//! Snapshots serialize through `serde_json` with a stable schema (see
//! [`SCHEMA_VERSION`] and [`schema::validate_snapshot`]):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "run_id": "bench-smoke-seed42",
//!   "counters": {"lpsolve.simplex.pivots": 1290},
//!   "timers": {"cg.solve": {"count": 1, "total_ns": 52031, "min_ns": 52031,
//!                            "max_ns": 52031, "mean_ns": 52031.0}},
//!   "series": {"cg.master_objective": [1.25, 1.18, 1.17]}
//! }
//! ```
//!
//! Counters and series are deterministic for a deterministic workload;
//! timer values are wall-clock and excluded from reproducibility
//! comparisons.
//!
//! The crate also hosts [`failpoint`], the workspace's deterministic
//! fault-injection subsystem: seeded, schedule-driven failpoints that
//! the serving layer scripts (`chaos.*` metric families land in the
//! same registry), so resilience is tested with the same
//! reproducibility guarantees as performance.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use serde_json::{json, Map, Value};

pub mod failpoint;
pub mod schema;

/// Version of the snapshot JSON layout. Bump when the shape of the
/// emitted document changes incompatibly.
///
/// v2: bench artifacts gained the per-quality-tier breakdown
/// (`service.tier.*` counters and the benches' per-tier ETDD series).
pub const SCHEMA_VERSION: u64 = 2;

/// Aggregated wall-clock statistics for one timer metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerStat {
    /// Number of recorded spans.
    pub count: u64,
    /// Sum of span durations in nanoseconds.
    pub total_ns: u64,
    /// Shortest recorded span in nanoseconds.
    pub min_ns: u64,
    /// Longest recorded span in nanoseconds.
    pub max_ns: u64,
}

impl Default for TimerStat {
    /// No spans yet: `min_ns` starts at `u64::MAX` so the first span
    /// sets it.
    fn default() -> Self {
        TimerStat {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl TimerStat {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Mean span duration in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Applies `record` to the metric `name` in `map`, inserting it at its
/// default first when absent. Only that first insert allocates the
/// key; recording into an existing metric looks it up by `&str`.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, record: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(value) => record(value),
        None => record(map.entry(name.to_string()).or_default()),
    }
}

#[derive(Default)]
struct State {
    run_id: String,
    counters: BTreeMap<String, u64>,
    timers: BTreeMap<String, TimerStat>,
    series: BTreeMap<String, Vec<f64>>,
}

/// A sink for telemetry events.
///
/// All methods take `&self`; interior state lives behind a single
/// mutex, so a registry can be shared freely across scoped threads.
#[derive(Default)]
pub struct Registry {
    state: Mutex<State>,
}

impl Registry {
    /// An empty registry with an empty run id.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Labels the registry's next snapshot. Pass something derived from
    /// the workload seed (not the clock) when the artifact must be
    /// reproducible.
    pub fn set_run_id(&self, run_id: impl Into<String>) {
        self.lock().run_id = run_id.into();
    }

    /// Adds `by` to the named monotonic counter, creating it at zero.
    pub fn incr(&self, name: &str, by: u64) {
        update(&mut self.lock().counters, name, |c| *c += by);
    }

    /// Records one wall-clock span of `duration` under `name`.
    pub fn record_duration(&self, name: &str, duration: Duration) {
        let ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        update(&mut self.lock().timers, name, |t| t.record(ns));
    }

    /// Appends `value` to the named series (e.g. a per-iteration
    /// objective history).
    pub fn push(&self, name: &str, value: f64) {
        update(&mut self.lock().series, name, |s| s.push(value));
    }

    /// Appends every element of `values` to the named series.
    pub fn extend(&self, name: &str, values: &[f64]) {
        update(&mut self.lock().series, name, |s| {
            s.extend_from_slice(values)
        });
    }

    /// Starts a scoped timer; the span is recorded when the guard
    /// drops.
    #[must_use = "the span is recorded when the returned guard drops"]
    pub fn start(&self, name: &str) -> SpanGuard<'_> {
        SpanGuard {
            registry: self,
            name: name.to_string(),
            started: Instant::now(),
        }
    }

    /// Times `f` as one span under `name` and returns its result.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _span = self.start(name);
        f()
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Aggregated statistics of a timer, if any span was recorded.
    pub fn timer(&self, name: &str) -> Option<TimerStat> {
        self.lock().timers.get(name).copied()
    }

    /// A copy of the named series (empty when nothing was pushed).
    pub fn series(&self, name: &str) -> Vec<f64> {
        self.lock().series.get(name).cloned().unwrap_or_default()
    }

    /// Clears all metrics and the run id.
    pub fn reset(&self) {
        *self.lock() = State::default();
    }

    /// Serializes the registry to the stable snapshot schema.
    pub fn snapshot(&self) -> Value {
        let state = self.lock();
        let mut counters = Map::new();
        for (name, value) in &state.counters {
            counters.insert(name.clone(), Value::from(*value));
        }
        let mut timers = Map::new();
        for (name, stat) in &state.timers {
            timers.insert(
                name.clone(),
                json!({
                    "count": (stat.count),
                    "total_ns": (stat.total_ns),
                    "min_ns": (stat.min_ns),
                    "max_ns": (stat.max_ns),
                    "mean_ns": (stat.mean_ns()),
                }),
            );
        }
        let mut series = Map::new();
        for (name, values) in &state.series {
            series.insert(
                name.clone(),
                Value::Array(values.iter().map(|&v| Value::from(v)).collect()),
            );
        }
        json!({
            "schema_version": (SCHEMA_VERSION),
            "run_id": (state.run_id.as_str()),
            "counters": (Value::Object(counters)),
            "timers": (Value::Object(timers)),
            "series": (Value::Object(series)),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // Recording never panics while holding the lock, so poisoning
        // can only come from a panicking *caller* thread; telemetry
        // should survive that.
        self.state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }
}

/// Records one timer span on drop; created by [`Registry::start`].
pub struct SpanGuard<'a> {
    registry: &'a Registry,
    name: String,
    started: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.registry
            .record_duration(&self.name, self.started.elapsed());
    }
}

/// The process-wide registry used by instrumented hot paths that are
/// not handed an explicit one.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_isolated() {
        let reg = Registry::new();
        assert_eq!(reg.counter("a"), 0);
        reg.incr("a", 1);
        reg.incr("a", 41);
        reg.incr("b", 7);
        assert_eq!(reg.counter("a"), 42);
        assert_eq!(reg.counter("b"), 7);
    }

    #[test]
    fn timer_aggregates_min_max_mean() {
        let reg = Registry::new();
        reg.record_duration("t", Duration::from_nanos(100));
        reg.record_duration("t", Duration::from_nanos(300));
        let stat = reg.timer("t").unwrap();
        assert_eq!(stat.count, 2);
        assert_eq!(stat.total_ns, 400);
        assert_eq!(stat.min_ns, 100);
        assert_eq!(stat.max_ns, 300);
        assert!((stat.mean_ns() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let reg = Registry::new();
        {
            let _span = reg.start("scoped");
        }
        let stat = reg.timer("scoped").unwrap();
        assert_eq!(stat.count, 1);
        assert!(stat.min_ns <= stat.max_ns);
        let out = reg.time("timed", || 7);
        assert_eq!(out, 7);
        assert_eq!(reg.timer("timed").unwrap().count, 1);
    }

    #[test]
    fn series_preserve_push_order() {
        let reg = Registry::new();
        reg.push("s", 3.0);
        reg.push("s", 1.0);
        reg.extend("s", &[2.0, 4.0]);
        assert_eq!(reg.series("s"), vec![3.0, 1.0, 2.0, 4.0]);
    }

    #[test]
    fn snapshot_matches_schema_and_round_trips() {
        let reg = Registry::new();
        reg.set_run_id("test-run");
        reg.incr("pivots", 12);
        reg.record_duration("solve", Duration::from_micros(5));
        reg.push("objective", 1.5);
        let snap = reg.snapshot();
        schema::validate_snapshot(&snap).unwrap();
        let text = serde_json::to_string_pretty(&snap).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back["run_id"].as_str(), Some("test-run"));
        assert_eq!(back["counters"]["pivots"].as_u64(), Some(12));
        assert_eq!(back["timers"]["solve"]["count"].as_u64(), Some(1));
    }

    #[test]
    fn concurrent_recording_from_scoped_threads() {
        // Mirrors the column-generation pricing fan-out: several scoped
        // workers record into one shared registry.
        let reg = Registry::new();
        let threads = 8;
        let per_thread = 250;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let reg = &reg;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        reg.incr("work.items", 1);
                        reg.push(&format!("thread.{t}"), i as f64);
                        reg.record_duration("work.span", Duration::from_nanos(10));
                    }
                });
            }
        });
        assert_eq!(reg.counter("work.items"), (threads * per_thread) as u64);
        assert_eq!(
            reg.timer("work.span").unwrap().count,
            (threads * per_thread) as u64
        );
        for t in 0..threads {
            assert_eq!(reg.series(&format!("thread.{t}")).len(), per_thread);
        }
        schema::validate_snapshot(&reg.snapshot()).unwrap();
    }

    #[test]
    fn reset_clears_everything() {
        let reg = Registry::new();
        reg.set_run_id("x");
        reg.incr("c", 1);
        reg.push("s", 1.0);
        reg.reset();
        assert_eq!(reg.counter("c"), 0);
        assert!(reg.series("s").is_empty());
        assert_eq!(reg.snapshot()["run_id"].as_str(), Some(""));
    }

    #[test]
    fn global_registry_is_shared() {
        global().incr("obs.test.global", 5);
        assert!(global().counter("obs.test.global") >= 5);
    }
}
