//! What every workload shares: run arguments, the report it returns,
//! the metrics every workload reports, repeated set-up timing, and the
//! per-layer replays of service boot, solves and the hit path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use platform::{service, MechanismService};
use rand::rngs::StdRng;
use roadnet::{EdgeId, Location, NodeDistances, Partition, RoadGraph};
use vlp_core::local::local_index;
use vlp_core::{aux_road_graph, privacy, AuxiliaryGraph, CgDiagnostics, CgOptions, CostMatrix};
use vlp_core::{Discretization, IntervalDistances, LocalShard, LocalityPlan, Mechanism, Prior};
use vlp_core::{PrivacySpec, VlpInstance};

use crate::spans::Tracer;
use crate::stats::{iq_mean, median};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// End-to-end metrics `(name, unit)`: the result line of every
/// workload's untraced run holds exactly these. `BENCHMARK.json` lists
/// the same names and units in the same order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("served_share", "ratio"),
    ("optimal_share", "ratio"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`: the result line of every
/// workload's traced run holds exactly these. `BENCHMARK.json` lists
/// the same names and units in the same order.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("roadnet.partition_ms", "ms"),
    ("core.discretize_ms", "ms"),
    ("core.aux_build_ms", "ms"),
    ("core.engine_build_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("core.cg.master_ms", "ms"),
    ("core.cg.pricing_ms", "ms"),
    ("core.cg.iterations", "count"),
    ("core.cg.columns_added", "count"),
    ("core.verify_ms", "ms"),
    ("lp.pivots", "count"),
    ("lp.warm_resolves", "count"),
    ("lp.cold_solves", "count"),
    ("lp.warm_ms", "ms"),
    ("lp.cold_ms", "ms"),
    ("lp.warm_hit_rate", "ratio"),
    ("roadnet.dijkstra_settled", "count"),
    ("roadnet.to_local_ns", "ns"),
    ("core.locate_ns", "ns"),
    ("core.sample_interval_ns", "ns"),
    ("core.transplant_ns", "ns"),
    ("service.cache_hit_rate", "ratio"),
    ("service.queue.enqueued", "count"),
    ("service.coalesced", "count"),
    ("service.fallback_served", "count"),
    ("service.stale_served", "count"),
    ("service.cache_evictions", "count"),
    ("trace.throttled", "count"),
    ("trace.refusals", "count"),
];

/// One benchmark run's arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement length the workload sizes its work to.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests (or batches, or reports) the measured phase attempted.
    pub attempted: u64,
    /// Of those, requests that failed: rejected, off-partition, or
    /// lost to a panicking caller. Budget refusals are not failures.
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    failures: Vec<String>,
    notes: Vec<String>,
    /// Spans of the traced run, written out when the run ends.
    pub tracer: Option<Tracer>,
}

impl Report {
    /// Adds metric `name` with `value` in `unit`. Metrics outside
    /// [`END_TO_END`] and [`PER_LAYER`] are printed but left out of the
    /// result line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a correctness check; a failed check fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds a line of context printed with the metrics.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Metrics in the order they were added.
    pub fn metrics(&self) -> &[(&'static str, f64, &'static str)] {
        &self.metrics
    }

    /// Failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Context lines.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// `served_share`: the share of attempted requests that did not
    /// fail. Never 0 on a working service, unlike the failed share.
    pub fn served_share(&mut self) {
        let attempted = self.attempted.max(1) as f64;
        self.metric(
            "served_share",
            (attempted - self.failed as f64) / attempted,
            "ratio",
        );
    }
}

/// Runs `setup` [`SETUPS`] times and keeps the last result; returns it
/// with the median set-up time in seconds. Each earlier result is
/// dropped, outside the timed region, before the next set-up starts, so
/// that no two results are ever alive at once.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        let value = setup();
        times.push(t.elapsed().as_secs_f64());
        kept = Some(value);
    }
    (kept.expect("at least one set-up"), median(&times))
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time of one call, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// The service's registry counters, read around a measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    /// Requests that found their mechanism cached.
    pub hits: u64,
    /// Requests that found none.
    pub misses: u64,
    /// Solves enqueued.
    pub enqueued: u64,
    /// Requests served the fallback.
    pub fallback: u64,
    /// Requests served a stale mechanism.
    pub stale: u64,
    /// Cached mechanisms evicted.
    pub evictions: u64,
    /// Grants the trace accountant throttled.
    pub throttled: u64,
    /// Requests the trace accountant refused.
    pub refusals: u64,
    /// Cached mechanisms a prior update invalidated.
    pub invalidations: u64,
}

impl Counters {
    /// The process-wide registry's counts, after `svc` flushed its own.
    pub fn read(svc: &MechanismService) -> Self {
        use service::metrics as m;
        svc.flush_metrics();
        let c = |name: &str| vlp_obs::global().counter(name);
        Self {
            hits: c(m::CACHE_HITS),
            misses: c(m::CACHE_MISSES),
            enqueued: c(m::QUEUE_ENQUEUED),
            fallback: c(m::FALLBACK_SERVED),
            stale: c(m::STALE_SERVED),
            evictions: c(m::CACHE_EVICTIONS),
            throttled: c(m::TRACE_THROTTLED),
            refusals: c(m::TRACE_REFUSALS),
            invalidations: c(m::PRIOR_INVALIDATIONS),
        }
    }

    /// The counts since `before` was read.
    pub fn since(&self, before: &Self) -> Self {
        Self {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            enqueued: self.enqueued - before.enqueued,
            fallback: self.fallback - before.fallback,
            stale: self.stale - before.stale,
            evictions: self.evictions - before.evictions,
            throttled: self.throttled - before.throttled,
            refusals: self.refusals - before.refusals,
            invalidations: self.invalidations - before.invalidations,
        }
    }

    /// Adds the `service.*` and `trace.*` counter metrics.
    pub fn emit(&self, report: &mut Report) {
        let lookups = (self.hits + self.misses).max(1) as f64;
        report.metric(
            "service.cache_hit_rate",
            self.hits as f64 / lookups,
            "ratio",
        );
        // Misses that rode on another request's solve.
        let coalesced = self.misses.saturating_sub(self.enqueued);
        for (name, value) in [
            ("service.queue.enqueued", self.enqueued),
            ("service.coalesced", coalesced),
            ("service.fallback_served", self.fallback),
            ("service.stale_served", self.stale),
            ("service.cache_evictions", self.evictions),
            ("trace.throttled", self.throttled),
            ("trace.refusals", self.refusals),
        ] {
            report.metric(name, value as f64, "count");
        }
    }
}

/// Column-generation and LP work of replayed solves, read from their
/// `CgDiagnostics`: times per solve, counts summed.
#[derive(Debug, Default)]
pub struct CgTally {
    solve_ms: Vec<f64>,
    master_ms: Vec<f64>,
    pricing_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    verify_ms: Vec<f64>,
    iterations: u64,
    columns: u64,
    pivots: u64,
    warm_resolves: u64,
    cold_solves: u64,
    settled: u64,
}

impl CgTally {
    /// Adds one replayed solve: its diagnostics, the Dijkstra nodes it
    /// settled, how long it took, and how long `privacy::verify` took
    /// on its mechanism.
    pub fn absorb(&mut self, d: &CgDiagnostics, settled: u64, solve: Duration, verify: Duration) {
        self.solve_ms.push(ms(solve));
        self.master_ms.push(ms(d.master_time));
        self.pricing_ms.push(ms(d.pricing_time));
        self.warm_ms.push(ms(d.lp_warm_time));
        self.cold_ms.push(ms(d.lp_cold_time));
        self.verify_ms.push(ms(verify));
        self.iterations += d.iterations as u64;
        self.columns += d.columns_added as u64;
        self.pivots += d.master_pivots + d.pricing_pivots;
        self.warm_resolves += d.lp_warm_resolves;
        self.cold_solves += d.lp_cold_solves;
        self.settled += settled;
    }

    /// Solves `inst` at `epsilon` through `VlpInstance::solve`, as a
    /// full-engine solver worker does, audits the mechanism against the
    /// full Geo-I spec, and adds the solve.
    pub fn replay_full(&mut self, inst: &VlpInstance, epsilon: f64) {
        let cg = CgOptions::default();
        let ((solved, solve_t), settled) =
            counting_settled(|| timed(|| inst.solve(epsilon, f64::INFINITY, &cg)));
        let solved = solved.expect("a replayed solve succeeds like the served one");
        let spec = PrivacySpec::full(&inst.aux, epsilon, f64::INFINITY);
        let (ok, verify_t) = timed(|| privacy::verify(&solved.mechanism, &spec, 1e-6));
        assert!(ok, "a replayed solve passes the full Geo-I spec");
        self.absorb(&solved.diagnostics, settled, solve_t, verify_t);
    }

    /// Adds the `core.solve_ms`, `core.cg.*`, `core.verify_ms`, `lp.*`
    /// and `roadnet.dijkstra_settled` metrics.
    pub fn emit(&self, report: &mut Report) {
        report.metric("core.solve_ms", median(&self.solve_ms), "ms");
        report.metric("core.cg.master_ms", median(&self.master_ms), "ms");
        report.metric("core.cg.pricing_ms", median(&self.pricing_ms), "ms");
        report.metric("core.cg.iterations", self.iterations as f64, "count");
        report.metric("core.cg.columns_added", self.columns as f64, "count");
        report.metric("core.verify_ms", median(&self.verify_ms), "ms");
        report.metric("lp.pivots", self.pivots as f64, "count");
        report.metric("lp.warm_resolves", self.warm_resolves as f64, "count");
        report.metric("lp.cold_solves", self.cold_solves as f64, "count");
        report.metric("lp.warm_ms", median(&self.warm_ms), "ms");
        report.metric("lp.cold_ms", median(&self.cold_ms), "ms");
        let resolves = (self.warm_resolves + self.cold_solves).max(1) as f64;
        report.metric(
            "lp.warm_hit_rate",
            self.warm_resolves as f64 / resolves,
            "ratio",
        );
        report.metric("roadnet.dijkstra_settled", self.settled as f64, "count");
    }
}

/// Runs `solve`, returning its result and the Dijkstra nodes settled
/// meanwhile (read from the process-wide registry: call it only while
/// no solver worker runs).
pub fn counting_settled<T>(solve: impl FnOnce() -> T) -> (T, u64) {
    let obs = vlp_obs::global();
    let name = roadnet::shortest_path::metrics::SETTLED_NODES;
    let before = obs.counter(name);
    let out = solve();
    (out, obs.counter(name) - before)
}

/// One shard's map as the hit path reads it.
pub enum ShardMap {
    /// A full-engine shard: rows of its mechanisms are its intervals.
    Full(Arc<VlpInstance>),
    /// A local-engine shard: rows of a neighborhood's mechanism are the
    /// neighborhood's support.
    Local(Arc<LocalShard>),
}

impl ShardMap {
    /// Shard `s`'s current map on `svc`.
    pub fn of(svc: &MechanismService, s: usize) -> Self {
        match svc.local_shard(s) {
            Some(shard) => Self::Local(shard),
            None => Self::Full(svc.shard_instance(s)),
        }
    }

    fn graph_disc(&self) -> (&RoadGraph, &Discretization) {
        match self {
            Self::Full(inst) => (&inst.graph, &inst.disc),
            Self::Local(shard) => (shard.graph(), shard.disc()),
        }
    }
}

/// Spans of the hit path's layer calls, and the per-layer metric each
/// gives (interquartile mean of the spans, ns).
const HIT_PATH: [(&str, &str); 4] = [
    ("roadnet.to_local_ns", "roadnet.to_local"),
    ("core.locate_ns", "core.locate"),
    ("core.sample_interval_ns", "core.sample_interval"),
    ("core.transplant_ns", "core.transplant"),
];

/// Calls per timed block of [`replay_hit`]: a single hit-path call can
/// take less than the clock read that times it.
const HIT_REPEAT: u32 = 8;

/// Calls `f` [`HIT_REPEAT`] times between two clock reads; returns the
/// last result, the start, and the time of one call without its share
/// of a clock read.
fn timed_calls<T>(clock: Duration, mut f: impl FnMut() -> T) -> (T, Instant, Duration) {
    let start = Instant::now();
    for _ in 1..HIT_REPEAT {
        std::hint::black_box(f());
    }
    let out = f();
    let per_call = start.elapsed().saturating_sub(clock) / HIT_REPEAT;
    (out, start, per_call)
}

/// Replays a served request at `loc` through the hit path's layer
/// functions — `Partition::to_local`, `Discretization::locate`,
/// `Mechanism::sample_interval`, `Discretization::transplant` — and
/// records one span per function, of `trace` under `parent`, lasting
/// one call. `mechanism` gives the mechanism serving neighborhood `nb`
/// of shard `s` (`nb` is always 0 on a full-engine shard). Returns
/// whether the request could be replayed: off the partition,
/// unlocated, or without a mechanism, it records nothing.
#[allow(clippy::too_many_arguments)]
pub fn replay_hit(
    tracer: &mut Tracer,
    trace: u64,
    parent: usize,
    partition: &Partition,
    maps: &[ShardMap],
    loc: Location,
    rng: &mut StdRng,
    mechanism: impl FnOnce(usize, u32) -> Option<Arc<Mechanism>>,
) -> bool {
    let clock = tracer.clock();
    let (to_local, t0, to_local_t) = timed_calls(clock, || partition.to_local(loc));
    let Some((s, local)) = to_local else {
        return false;
    };
    let (graph, disc) = maps[s].graph_disc();
    let (i, t1, locate_t) = timed_calls(clock, || disc.locate(graph, local));
    let Some(i) = i else {
        return false;
    };
    let (nb, row) = match &maps[s] {
        ShardMap::Full(_) => (0, Some(i)),
        ShardMap::Local(shard) => {
            let nb = shard.neighborhood_of(i);
            (nb, local_index(shard.members(nb), i))
        }
    };
    let (Some(mech), Some(row)) = (mechanism(s, nb), row) else {
        return false;
    };
    let (col, t2, sample_t) = timed_calls(clock, || mech.sample_interval(row, rng));
    let j = match &maps[s] {
        ShardMap::Full(_) => col,
        ShardMap::Local(shard) => shard.members(nb)[col],
    };
    let (_, t3, transplant_t) = timed_calls(clock, || disc.transplant(graph, local, j));
    for (name, start, took) in [
        ("roadnet.to_local", t0, to_local_t),
        ("core.locate", t1, locate_t),
        ("core.sample_interval", t2, sample_t),
        ("core.transplant", t3, transplant_t),
    ] {
        tracer.record_reported(trace, Some(parent), name, start, took);
    }
    true
}

/// Adds the hit path's per-layer metrics from the spans of `tracer`.
pub fn emit_hit_path(report: &mut Report, tracer: &Tracer) {
    for (metric, span) in HIT_PATH {
        report.metric(metric, iq_mean(&tracer.durations(span)), "ns");
    }
}

/// Which solve engine a service boots per shard.
#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// One dense instance per shard: all-pairs distances, interval
    /// distances and the `K × K` cost matrix.
    Full,
    /// The locally-relevant engine: discretization, auxiliary graph and
    /// a ρ-net plan, with no `O(K²)` object.
    Local { rho: f64, radius: f64 },
}

/// Replays what booting a service over `graph` does, layer by layer,
/// and adds one metric per step (ms, summed over shards).
/// `core.engine_build_ms` is the engine's own structure: the cost
/// matrix on the full engine, the ρ-net plan on the local one.
pub fn setup_layers(
    report: &mut Report,
    graph: &RoadGraph,
    shards: usize,
    delta: f64,
    engine: Engine,
) {
    let (partition, t) = timed(|| Partition::by_bands(graph, shards));
    report.metric("roadnet.partition_ms", ms(t), "ms");
    let (mut disc_t, mut aux_t, mut dist_t, mut cost_t, mut plan_t) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    for shard in partition.shards() {
        let g = shard.graph();
        let (disc, t) = timed(|| Discretization::new(g, delta));
        disc_t += t;
        match engine {
            Engine::Full => {
                let (nd, t) = timed(|| NodeDistances::all_pairs(g));
                dist_t += t;
                let (aux, t) = timed(|| AuxiliaryGraph::build(g, &disc));
                aux_t += t;
                std::hint::black_box(&aux);
                let (cost, t) = timed(|| {
                    let dists = IntervalDistances::build(g, &nd, &disc);
                    let uniform = Prior::uniform(disc.len());
                    CostMatrix::build(&dists, &uniform, &uniform)
                });
                cost_t += t;
                std::hint::black_box(&cost);
            }
            Engine::Local { rho, radius } => {
                let (aux, t) = timed(|| aux_road_graph(g, &disc));
                aux_t += t;
                let (plan, t) = timed(|| LocalityPlan::build(&aux, rho, radius));
                plan_t += t;
                std::hint::black_box(&plan);
            }
        }
    }
    report.metric("core.discretize_ms", ms(disc_t), "ms");
    report.metric("core.aux_build_ms", ms(aux_t), "ms");
    report.metric("core.engine_build_ms", ms(cost_t + plan_t), "ms");
    if let Engine::Full = engine {
        report.metric("roadnet.all_pairs_ms", ms(dist_t), "ms");
    }
}

/// For each shard, the global edge behind each shard-local edge
/// (`None` for connector roads the partition added).
pub fn local_to_global_edges(graph: &RoadGraph, partition: &Partition) -> Vec<Vec<Option<EdgeId>>> {
    let mut map: Vec<Vec<Option<EdgeId>>> = partition
        .shards()
        .iter()
        .map(|s| vec![None; s.graph().edge_count()])
        .collect();
    for e in 0..graph.edge_count() {
        if let Some((s, local)) = partition.to_local(Location::new(EdgeId(e), 0.0)) {
            map[s][local.edge().index()] = Some(EdgeId(e));
        }
    }
    map
}
