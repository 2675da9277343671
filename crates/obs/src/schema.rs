//! Validation of the snapshot JSON layout, plus the workspace's metric
//! name registry.
//!
//! Every fixed metric name, failpoint site name and library family
//! prefix is declared once here, with its doc comment, in one module
//! per family ([`roadnet`], [`lpsolve`], [`cg`], [`dvlp`], [`cr`],
//! [`platform`], [`service`], [`site`], [`chaos`]). Each crate's
//! `metrics` module re-exports its family, and [`KNOWN_METRICS`] and
//! [`METRIC_FAMILIES`] are generated from the same declarations, so the
//! registry cannot drift from the names the code records.
//!
//! CI runs [`validate_snapshot`] against `artifacts/bench_smoke.json`
//! so schema drift is caught by the pipeline, not by downstream
//! dashboards, and the `docs_links` gate checks every metric name
//! `OPERATIONS.md` mentions against [`is_known_metric`] /
//! [`is_known_metric_prefix`] so the runbook can never document a
//! counter the code stopped (or never started) recording.

use serde_json::Value;

use crate::SCHEMA_VERSION;

/// Declares each family as a module of `&str` constants and emits
/// [`KNOWN_METRICS`] (every fixed name) and [`METRIC_FAMILIES`] (every
/// `prefixes` entry, then the `benches` namespaces) from the same
/// items. A family's `prefixes` begin the names it formats at run
/// time, one per shard or site.
macro_rules! metric_schema {
    (
        $(
            $(#[$family_doc:meta])+
            $family:ident {
                $( $(#[$doc:meta])* $name:ident = $value:literal; )*
            }
            $( prefixes {
                $( $(#[$prefix_doc:meta])* $prefix:ident = $prefix_value:literal; )*
            } )?
        )*
        benches [ $( $bench:literal ),* $(,)? ]
    ) => {
        $(
            $(#[$family_doc])+
            pub mod $family {
                $( $(#[$doc])* pub const $name: &str = $value; )*
                $( $( $(#[$prefix_doc])* pub const $prefix: &str = $prefix_value; )* )?
            }
        )*

        /// Every fixed metric and failpoint site name the workspace
        /// records, generated from the family modules. Names formatted
        /// at run time (per-shard series, per-site chaos counters,
        /// per-bench artifacts) are covered by [`METRIC_FAMILIES`]
        /// instead. A name listed here and never recorded is doc/code
        /// drift.
        pub const KNOWN_METRICS: &[&str] = &[ $( $( $family::$name, )* )* ];

        /// Prefix families for dynamically-formatted metric names: the
        /// library families' declared prefixes (per-shard health series,
        /// per-shard blackout sites, per-site chaos accounting), then
        /// the benches' own artifact namespaces (each bench versions
        /// its own report contents).
        pub const METRIC_FAMILIES: &[&str] = &[
            $( $( $( $family::$prefix, )* )? )*
            $( $bench, )*
        ];

        /// Each family's name with every name and prefix it declares,
        /// for the registry's own tests.
        #[cfg_attr(not(test), allow(dead_code))]
        const FAMILIES: &[(&str, &[&str])] = &[
            $( (stringify!($family), &[ $( $family::$name, )* $( $( $family::$prefix, )* )? ]), )*
        ];
    };
}

metric_schema! {
    /// Shortest-path telemetry, recorded by `roadnet::shortest_path`.
    roadnet {
        /// Counter: single-source Dijkstra runs (one per tree, ball or
        /// targeted run, and one per source of an all-pairs build).
        DIJKSTRA_RUNS = "roadnet.dijkstra.runs";
        /// Counter: total nodes settled (popped with a final distance)
        /// across all Dijkstra runs.
        SETTLED_NODES = "roadnet.dijkstra.settled_nodes";
    }

    /// Simplex and warm-start telemetry, recorded by `lpsolve`.
    lpsolve {
        /// Counter: total calls to the solver (cold and warm alike).
        SOLVES = "lpsolve.simplex.solves";
        /// Counter: pivots across both phases (incl. artificial drive-out).
        PIVOTS = "lpsolve.simplex.pivots";
        /// Counter: periodic + phase-boundary refactorizations (one that
        /// finds the basis singular is not counted).
        REFACTORIZATIONS = "lpsolve.simplex.refactorizations";
        /// Counter: refactorization work, rows × kernel columns (`m·s`)
        /// summed over refactorizations — a deterministic measure of what
        /// the kernel factorizations cost.
        REFACTOR_WORK = "lpsolve.simplex.refactor_work";
        /// Counter: phase-1 simplex iterations.
        PHASE1_ITERATIONS = "lpsolve.simplex.phase1_iterations";
        /// Counter: phase-2 simplex iterations.
        PHASE2_ITERATIONS = "lpsolve.simplex.phase2_iterations";
        /// Timer: wall-clock time of each solve.
        SOLVE_TIME = "lpsolve.simplex.solve";
        /// Counter: warm-started `IncrementalLp::resolve` calls that reused
        /// the previous optimal basis.
        WARM_RESOLVES = "lpsolve.warm.resolves";
        /// Counter: cold solves performed by the incremental engine (first
        /// solves and fallbacks after a failed warm attempt).
        WARM_COLD_SOLVES = "lpsolve.warm.cold_solves";
        /// Counter: warm resolves that skipped a phase 1 a cold solve would
        /// have run (the problem has artificial columns).
        WARM_PHASE1_SKIPPED = "lpsolve.warm.phase1_skipped";
        /// Counter: pivots spent inside warm-started resolves.
        WARM_PIVOTS = "lpsolve.warm.pivots";
        /// Counter: columns appended to live warm bases.
        WARM_COLUMNS_ADDED = "lpsolve.warm.columns_added";
    }

    /// Column-generation telemetry, recorded by
    /// `vlp_core::column_generation`: per-iteration histories land in
    /// series, time splits in timers, and totals in counters.
    cg {
        /// Counter: column-generation runs.
        SOLVES = "cg.solves";
        /// Counter: master iterations across all runs.
        ITERATIONS = "cg.iterations";
        /// Counter: columns added across all runs.
        COLUMNS_ADDED = "cg.columns_added";
        /// Counter: simplex pivots spent in restricted-master resolves
        /// (warm engine only; the cold path's pivots are visible in
        /// `lpsolve.simplex.pivots`).
        MASTER_PIVOTS = "cg.master_pivots";
        /// Counter: simplex pivots spent in pricing resolves (warm engine
        /// only).
        PRICING_PIVOTS = "cg.pricing_pivots";
        /// Series: restricted-master objective after each master solve.
        MASTER_OBJECTIVE = "cg.master_objective";
        /// Series: dual lower bound ω (Theorem 4.4) after each iteration.
        DUAL_BOUND = "cg.dual_bound";
        /// Series: `min_l ζ_l` after each pricing round.
        MIN_ZETA = "cg.min_zeta";
        /// Series: pricing threads used, one sample per run.
        THREADS_USED = "cg.threads_used";
        /// Timer: whole column-generation run.
        SOLVE_TIME = "cg.solve";
        /// Timer: cumulative restricted-master share of each run.
        MASTER_TIME = "cg.master";
        /// Timer: cumulative pricing share of each run.
        PRICING_TIME = "cg.pricing";
        /// Timer: cumulative time inside warm-started LP resolves.
        WARM_TIME = "cg.warm";
        /// Timer: cumulative time inside cold LP solves of the warm engine
        /// (first solves and numerical fallbacks).
        COLD_TIME = "cg.cold";
    }

    /// Direct D-VLP solver telemetry, recorded by `vlp_core::dvlp`.
    dvlp {
        /// Counter: number of `solve_direct` invocations.
        SOLVES = "dvlp.solves";
        /// Timer: time to assemble the LP (objective plus all constraint
        /// rows) before the simplex runs.
        MATRIX_BUILD_TIME = "dvlp.matrix_build";
        /// Timer: end-to-end wall time of one `solve_direct` call.
        SOLVE_TIME = "dvlp.solve";
        /// Series: LP row count per solve (`K` unit-measure rows plus
        /// `K · |constraints|` Geo-I rows).
        LP_ROWS = "dvlp.lp_rows";
    }

    /// Constraint-reduction telemetry, recorded by
    /// `vlp_core::constraint_reduction`.
    cr {
        /// Counter: number of `reduced_spec` invocations.
        REDUCTIONS = "cr.reductions";
        /// Series: directed pair count of the *unreduced* spec, `K·(K−1)`,
        /// one sample per reduction (the O(K²) baseline of Theorem 4.2).
        CONSTRAINTS_FULL = "cr.constraints_full";
        /// Series: directed pair count after reduction, one sample per
        /// reduction (the O(K) set of Algorithm 1).
        CONSTRAINTS_REDUCED = "cr.constraints_reduced";
        /// Timer: wall time of one `reduced_spec` call (SPT walks plus the
        /// unordered-pair collapse).
        REDUCE_TIME = "cr.reduce";
    }

    /// Assignment-loop telemetry, recorded by the platform's snapshot
    /// assignment and, for the distortion, refresh, and re-solve
    /// metrics, by `platform::Simulation`, which alone sees true worker
    /// locations and owns the prior-drift check.
    platform {
        /// Counter: assignment snapshots served.
        SNAPSHOTS = "platform.snapshots";
        /// Timer: wall time of one assignment snapshot (report intake plus
        /// Hungarian matching) — the per-request report latency.
        SNAPSHOT_TIME = "platform.snapshot";
        /// Counter: obfuscated worker reports received across snapshots.
        REPORTS_RECEIVED = "platform.reports_received";
        /// Counter: task-worker assignments made.
        ASSIGNMENTS = "platform.assignments";
        /// Series: the server's estimated travel distance per assignment,
        /// km (computed from the *reported* interval).
        ASSIGNMENT_EST_KM = "platform.assignment_est_km";
        /// Series: per-assignment distortion `|estimated − true|` travel
        /// km — recorded by `platform::Simulation`, which knows true
        /// locations; the server itself never does.
        ASSIGNMENT_DISTORTION_KM = "platform.assignment_distortion_km";
        /// Counter: mechanism refreshes triggered by prior drift.
        REFRESHES = "platform.refreshes";
        /// Timer: wall time of one mechanism (re-)solve, including
        /// constraint reduction and column generation.
        RESOLVE_TIME = "platform.mechanism_resolve";
    }

    /// Mechanism-service telemetry, recorded by
    /// `platform::MechanismService`.
    service {
        /// Counter: obfuscation requests received (batch and open-loop).
        REQUESTS = "service.requests";
        /// Timer: wall time of one `obfuscate_batch` call.
        BATCH_TIME = "service.batch";
        /// Counter: requests whose `(shard, ε-bucket)` mechanism was
        /// already cached when they arrived.
        CACHE_HITS = "service.cache_hits";
        /// Counter: requests that found no cached mechanism.
        CACHE_MISSES = "service.cache_misses";
        /// Counter: cache entries evicted to respect the capacity bound.
        CACHE_EVICTIONS = "service.cache_evictions";
        /// Counter: requests served from an optimally solved mechanism
        /// (cached, or solved by this batch and served optimally).
        OPTIMAL_SERVED = "service.optimal_served";
        /// Counter: requests served from the graph-Laplace fallback (cold
        /// key with the solve still in flight, or nothing better to shed
        /// to).
        FALLBACK_SERVED = "service.fallback_served";
        /// Timer: wall time of one per-shard mechanism solve on a solver
        /// worker.
        SOLVE_TIME = "service.solve";
        /// Counter: solves that exhausted their retries with an error (the
        /// request degrades; nothing is cached).
        SOLVE_ERRORS = "service.solve_errors";
        /// Counter: requests whose location could not be mapped into any
        /// shard — a dropped cross-boundary edge, an edge id outside the
        /// map, or an offset that is NaN, negative, or past the edge's
        /// length. The batch skips them; `submit` answers
        /// `Response::OffPartition`.
        OFF_PARTITION = "service.off_partition";
        /// Counter: cache entries invalidated by a shard prior update.
        PRIOR_INVALIDATIONS = "service.prior_invalidations";
        /// Counter: solve attempts beyond the first (ladder rung 1). Each
        /// retry is preceded by deterministic exponential backoff.
        RETRY_ATTEMPTS = "service.retry.attempts";
        /// Counter: solve attempts that panicked (e.g. an injected pricing
        /// panic) and were contained by the worker's unwind boundary.
        PANICS_CAUGHT = "service.solve_panics";
        /// Counter: requests served from the stale store (ladder rung 3):
        /// a previously optimal mechanism for the same `(shard, ε-bucket)`
        /// that had been displaced from the cache.
        STALE_SERVED = "service.stale_served";
        /// Counter: cache entries demoted to the stale store (LRU
        /// eviction, prior invalidation, or an evict storm).
        STALE_DEMOTIONS = "service.stale_demotions";
        /// Counter: breaker transitions into `Open` (ladder rung 2).
        BREAKER_OPENED = "service.breaker.opened";
        /// Counter: breaker transitions `Open` → `HalfOpen` after the
        /// cooldown, admitting one probe solve.
        BREAKER_HALF_OPEN = "service.breaker.half_open";
        /// Counter: breaker transitions `HalfOpen` → `Closed` (a probe
        /// solve succeeded; the shard recovered).
        BREAKER_RECLOSED = "service.breaker.reclosed";
        /// Counter: cache-miss solves shed without an attempt because the
        /// shard's breaker was open (or its half-open probe slot was
        /// taken).
        BREAKER_SHED = "service.breaker.shed";
        /// Counter: solve jobs admitted onto a shard's bounded queue.
        QUEUE_ENQUEUED = "service.queue.enqueued";
        /// Counter: cache misses that coalesced onto an in-flight solve
        /// for the same `(shard, ε-bucket)` instead of enqueueing again.
        QUEUE_COALESCED = "service.queue.coalesced";
        /// Counter: solve admissions refused because the shard's queue was
        /// full (explicit backpressure; the request is shed).
        QUEUE_FULL = "service.queue.full";
        /// Counter: queued solve jobs completed during a graceful
        /// shutdown's drain.
        QUEUE_DRAINED = "service.queue.drained";
        /// Counter: open-loop requests rejected outright — shed with
        /// nothing cached, stale, or previously built to degrade to.
        SHED_REJECTED = "service.shed.rejected";
        /// Counter: open-loop requests shed but served degraded (stale or
        /// previously built fallback).
        SHED_DEGRADED = "service.shed.degraded";
        /// Counter: cumulative LP support size `k` over completed solves.
        /// Divided by the solve count this is the mean support — `K` in
        /// full-shard mode, the (much smaller) neighborhood size in
        /// locally-relevant mode.
        SOLVE_SUPPORT = "service.solve.support";
        /// Counter: cumulative LP variable count (`k²`) over completed
        /// solves — the measurable form of the `O(K²) → O(k²)` claim.
        SOLVE_LP_VARS = "service.solve.lp_vars";
        /// Counter: cumulative instantiated Geo-I inequality rows over
        /// completed solves.
        SOLVE_LP_ROWS = "service.solve.lp_rows";
        /// Counter: ρ-net neighborhoods planned across all shards at boot
        /// (locally-relevant mode only).
        LOCAL_NEIGHBORHOODS = "service.local.neighborhoods";
        /// Counter: solves completed by the locally-relevant engine.
        LOCAL_SOLVES = "service.local.solves";
        /// Counter: requests served at the exact tier (the full
        /// column-generation optimum — `Exact` in
        /// `vlp_core::QualityTier`).
        TIER_EXACT_SERVED = "service.tier.exact.served";
        /// Counter: requests served at the interval-clustering tier
        /// (`Clustered`).
        TIER_CLUSTERED_SERVED = "service.tier.clustered.served";
        /// Counter: requests served at the graph-Laplace tier (`Laplace` —
        /// every fallback serve, whatever rung of the resilience ladder
        /// produced it).
        TIER_LAPLACE_SERVED = "service.tier.laplace.served";
        /// Counter: served reports charged against a vehicle's trace
        /// budget ledger (accounting enabled only).
        TRACE_CHARGES = "service.trace.charges";
        /// Counter: charged reports served at a throttled ε — the ledger
        /// was past the throttle knee, so the grant was shrunk below what
        /// the raw request would have bucketed to.
        TRACE_THROTTLED = "service.trace.throttled";
        /// Counter: reports refused with `Response::BudgetExhausted` —
        /// the throttled grant fell below one ε-bucket width.
        TRACE_REFUSALS = "service.trace.refusals";
        /// Counter: vehicles whose remaining trace budget dropped below
        /// one ε-bucket width (terminal — every later report refuses);
        /// counted once per vehicle.
        TRACE_EXHAUSTED = "service.trace.exhausted";
        /// Series: mean ledger fill fraction across vehicles with any
        /// spend, sampled once per epoch while accounting is enabled.
        TRACE_FILL = "service.trace.fill";
    } prefixes {
        /// Series family: shard `s`'s breaker state once per epoch,
        /// `service.breaker.state.<s>` (`0` closed, `1` half-open, `2`
        /// open). Part of the service's health snapshot.
        BREAKER_STATE = "service.breaker.state.";
        /// Series family: shard `s`'s in-flight solve count (queued plus
        /// running) once per epoch, `service.queue.depth.<s>`.
        QUEUE_DEPTH = "service.queue.depth.";
    }

    /// Well-known failpoint site names wired through the workspace,
    /// re-exported as [`crate::failpoint::site`]. Sites are declared
    /// here (rather than in the crates that check them) so the chaos
    /// harness, the runbook (`OPERATIONS.md`), and the instrumented
    /// crates agree on one spelling.
    site {
        /// Fails `lpsolve::LinearProgram::solve` with an injected solver
        /// error. Keyed by the orchestrator's work unit.
        LP_SOLVE = "lp.solve.fault";
        /// Fails `IncrementalLp::resolve` with an injected solver error.
        LP_RESOLVE = "lp.resolve.fault";
        /// Panics inside a column-generation pricing round (a worker-crash
        /// stand-in; serving layers must contain it).
        CG_PRICING_PANIC = "cg.pricing.panic";
        /// Collapses the mechanism service's solve deadline to zero for
        /// the keyed batch.
        SERVICE_DEADLINE_JITTER = "service.deadline.jitter";
        /// Demotes every cached mechanism to the stale store at the start
        /// of the keyed batch (an eviction storm / cache poisoning purge).
        SERVICE_EVICT_STORM = "service.cache.evict_storm";
    } prefixes {
        /// Prefix for per-shard blackout sites: `service.shard.blackout.3`
        /// makes every solve on shard 3 fail for the keyed batch, as if
        /// the shard's workers crashed.
        SERVICE_SHARD_BLACKOUT = "service.shard.blackout.";
    }

    /// Fault-injection accounting, recorded by
    /// [`FaultPlan::evaluate`](crate::failpoint::FaultPlan::evaluate)
    /// for every configured site.
    chaos {
    } prefixes {
        /// Counter family: failpoint decisions taken at a site,
        /// `chaos.evaluated.<site>`.
        EVALUATED = "chaos.evaluated.";
        /// Counter family: decisions that fired (injected a fault),
        /// `chaos.injected.<site>`.
        INJECTED = "chaos.injected.";
    }

    benches [
        "bench_smoke.",
        "bench_service.",
        "bench_load.",
        "bench_local.",
        "bench_chaos.",
        "bench_traces.",
    ]
}

/// Whether `name` is a metric the workspace records: an exact entry in
/// [`KNOWN_METRICS`] or an instance of a [`METRIC_FAMILIES`] prefix.
pub fn is_known_metric(name: &str) -> bool {
    KNOWN_METRICS.contains(&name)
        || METRIC_FAMILIES
            .iter()
            .any(|f| name.len() > f.len() && name.starts_with(f))
}

/// Whether `prefix` names a family of recorded metrics — used for
/// wildcard references like `service.breaker.*` in the runbook. True
/// when some known metric or family starts with `prefix` (or the
/// prefix extends into a family).
pub fn is_known_metric_prefix(prefix: &str) -> bool {
    KNOWN_METRICS.iter().any(|m| m.starts_with(prefix))
        || METRIC_FAMILIES
            .iter()
            .any(|f| f.starts_with(prefix) || prefix.starts_with(f))
}

/// Checks that `snapshot` conforms to the current snapshot schema.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_snapshot(snapshot: &Value) -> Result<(), String> {
    let root = snapshot
        .as_object()
        .ok_or_else(|| "snapshot root must be an object".to_string())?;

    for key in ["schema_version", "run_id", "counters", "timers", "series"] {
        if !root.contains_key(key) {
            return Err(format!("snapshot is missing required key `{key}`"));
        }
    }

    let version = root
        .get("schema_version")
        .and_then(Value::as_u64)
        .ok_or_else(|| "`schema_version` must be an unsigned integer".to_string())?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {version}, expected {SCHEMA_VERSION}"
        ));
    }

    root.get("run_id")
        .and_then(Value::as_str)
        .ok_or_else(|| "`run_id` must be a string".to_string())?;

    let counters = root
        .get("counters")
        .and_then(Value::as_object)
        .ok_or_else(|| "`counters` must be an object".to_string())?;
    for (name, value) in counters.iter() {
        if value.as_u64().is_none() {
            return Err(format!(
                "counter `{name}` must be an unsigned integer, got {value}"
            ));
        }
    }

    let timers = root
        .get("timers")
        .and_then(Value::as_object)
        .ok_or_else(|| "`timers` must be an object".to_string())?;
    for (name, value) in timers.iter() {
        let stat = value
            .as_object()
            .ok_or_else(|| format!("timer `{name}` must be an object"))?;
        let field = |key: &str| {
            stat.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("timer `{name}` field `{key}` must be an unsigned integer"))
        };
        let count = field("count")?;
        let total = field("total_ns")?;
        let min = field("min_ns")?;
        let max = field("max_ns")?;
        stat.get("mean_ns")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("timer `{name}` field `mean_ns` must be a number"))?;
        if count == 0 {
            return Err(format!("timer `{name}` has zero recorded spans"));
        }
        if min > max {
            return Err(format!("timer `{name}` has min_ns {min} > max_ns {max}"));
        }
        if total < max {
            return Err(format!(
                "timer `{name}` has total_ns {total} < max_ns {max}"
            ));
        }
    }

    let series = root
        .get("series")
        .and_then(Value::as_object)
        .ok_or_else(|| "`series` must be an object".to_string())?;
    for (name, value) in series.iter() {
        let items = value
            .as_array()
            .ok_or_else(|| format!("series `{name}` must be an array"))?;
        for (i, item) in items.iter().enumerate() {
            if item.as_f64().is_none() {
                return Err(format!("series `{name}`[{i}] must be a number, got {item}"));
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn valid() -> Value {
        json!({
            "schema_version": SCHEMA_VERSION,
            "run_id": "r",
            "counters": {"c": 3},
            "timers": {"t": {"count": 2, "total_ns": 10, "min_ns": 4,
                              "max_ns": 6, "mean_ns": 5.0}},
            "series": {"s": [1.0, 2.5]}
        })
    }

    #[test]
    fn accepts_valid_snapshot() {
        validate_snapshot(&valid()).unwrap();
    }

    #[test]
    fn metric_registry_matches_names_and_families() {
        assert!(is_known_metric("service.requests"));
        assert!(is_known_metric("service.tier.clustered.served"));
        assert!(is_known_metric("service.breaker.state.3"));
        assert!(is_known_metric("chaos.injected.service.shard.blackout.1"));
        assert!(is_known_metric("bench_chaos.optimal_share"));
        assert!(is_known_metric("service.trace.charges"));
        assert!(is_known_metric("service.trace.fill"));
        assert!(is_known_metric("bench_traces.regimes"));
        assert!(!is_known_metric("service.trace.bogus"));
        assert!(!is_known_metric("service.tier.bogus"));
        assert!(!is_known_metric("lpsolve.warm.fallbacks"));
        // A bare family prefix is not itself a metric.
        assert!(!is_known_metric("service.breaker.state."));

        assert!(is_known_metric_prefix("service.breaker."));
        assert!(is_known_metric_prefix("service.tier."));
        assert!(is_known_metric_prefix("chaos."));
        assert!(is_known_metric_prefix("bench_load.wall."));
        assert!(!is_known_metric_prefix("telemetry."));
    }

    #[test]
    fn registry_holds_no_duplicate_name() {
        let mut seen = std::collections::HashSet::new();
        for name in KNOWN_METRICS.iter().chain(METRIC_FAMILIES) {
            assert!(seen.insert(name), "`{name}` is declared twice");
        }
    }

    #[test]
    fn every_name_starts_with_its_family_prefix() {
        // Failpoint sites name the place they fire, so they share no
        // prefix.
        for &(family, names) in FAMILIES.iter().filter(|f| f.0 != "site") {
            let prefix = format!("{family}.");
            for name in names {
                assert!(
                    name.starts_with(&prefix),
                    "`{name}` is declared in family `{family}`"
                );
            }
        }
    }

    #[test]
    fn rejects_missing_key_and_bad_version() {
        let err = validate_snapshot(&json!({"run_id": "r"})).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");

        let mut snap = valid();
        if let Value::Object(map) = &mut snap {
            map.insert("schema_version".into(), Value::from(99u64));
        }
        let err = validate_snapshot(&snap).unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
    }

    #[test]
    fn rejects_malformed_sections() {
        let bad_counter = json!({
            "schema_version": SCHEMA_VERSION, "run_id": "r",
            "counters": {"c": (-1)}, "timers": {}, "series": {}
        });
        assert!(validate_snapshot(&bad_counter).is_err());

        let bad_timer = json!({
            "schema_version": SCHEMA_VERSION, "run_id": "r", "counters": {},
            "timers": {"t": {"count": 0, "total_ns": 0, "min_ns": 0,
                              "max_ns": 0, "mean_ns": 0.0}},
            "series": {}
        });
        assert!(validate_snapshot(&bad_timer).is_err());

        let bad_series = json!({
            "schema_version": SCHEMA_VERSION, "run_id": "r", "counters": {},
            "timers": {}, "series": {"s": ["oops"]}
        });
        assert!(validate_snapshot(&bad_series).is_err());
    }
}
