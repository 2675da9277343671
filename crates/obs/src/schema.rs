//! Validation of the snapshot JSON layout, plus the workspace's metric
//! name registry.
//!
//! CI runs [`validate_snapshot`] against `artifacts/bench_smoke.json`
//! so schema drift is caught by the pipeline, not by downstream
//! dashboards, and the `docs_links` gate checks every metric name
//! `OPERATIONS.md` mentions against [`is_known_metric`] /
//! [`is_known_metric_prefix`] so the runbook can never document a
//! counter the code stopped (or never started) recording.

use serde_json::Value;

use crate::SCHEMA_VERSION;

/// Every statically-named metric the workspace records, by family.
/// Dynamically-formatted names (per-shard series, per-site chaos
/// counters, per-bench artifacts) are covered by [`METRIC_FAMILIES`]
/// instead. A name listed here and never recorded is doc/code drift —
/// `crates/platform` pins its `service.*` constants against this list.
pub const KNOWN_METRICS: &[&str] = &[
    // roadnet
    "roadnet.dijkstra.runs",
    "roadnet.dijkstra.settled_nodes",
    // lpsolve (bounded revised simplex + warm-start pool)
    "lpsolve.simplex.phase1_iterations",
    "lpsolve.simplex.phase2_iterations",
    "lpsolve.simplex.pivots",
    "lpsolve.simplex.refactor_work",
    "lpsolve.simplex.refactorizations",
    "lpsolve.simplex.solve",
    "lpsolve.simplex.solves",
    "lpsolve.warm.cold_solves",
    "lpsolve.warm.columns_added",
    "lpsolve.warm.phase1_skipped",
    "lpsolve.warm.pivots",
    "lpsolve.warm.resolves",
    // column generation
    "cg.cold",
    "cg.columns_added",
    "cg.dual_bound",
    "cg.iterations",
    "cg.master",
    "cg.master_objective",
    "cg.master_pivots",
    "cg.min_zeta",
    "cg.pricing",
    "cg.pricing_pivots",
    "cg.solve",
    "cg.solves",
    "cg.threads_used",
    "cg.warm",
    // direct D-VLP solver and constraint reduction
    "dvlp.lp_rows",
    "dvlp.matrix_build",
    "dvlp.solve",
    "dvlp.solves",
    "cr.constraints_full",
    "cr.constraints_reduced",
    "cr.reduce",
    "cr.reductions",
    // platform assignment loop
    "platform.assignment_distortion_km",
    "platform.assignment_est_km",
    "platform.assignments",
    "platform.mechanism_resolve",
    "platform.refreshes",
    "platform.reports_received",
    "platform.snapshot",
    "platform.snapshots",
    // mechanism service
    "service.requests",
    "service.batch",
    "service.cache_hits",
    "service.cache_misses",
    "service.cache_evictions",
    "service.optimal_served",
    "service.fallback_served",
    "service.solve",
    "service.solve_errors",
    "service.off_partition",
    "service.prior_invalidations",
    "service.retry.attempts",
    "service.solve_panics",
    "service.stale_served",
    "service.stale_demotions",
    "service.breaker.opened",
    "service.breaker.half_open",
    "service.breaker.reclosed",
    "service.breaker.shed",
    "service.queue.enqueued",
    "service.queue.coalesced",
    "service.queue.full",
    "service.queue.drained",
    "service.shed.rejected",
    "service.shed.degraded",
    "service.solve.support",
    "service.solve.lp_vars",
    "service.solve.lp_rows",
    "service.local.neighborhoods",
    "service.local.solves",
    "service.tier.exact.served",
    "service.tier.clustered.served",
    "service.tier.laplace.served",
    "service.trace.charges",
    "service.trace.throttled",
    "service.trace.refusals",
    "service.trace.exhausted",
    "service.trace.fill",
    // failpoint site names (documented alongside the chaos counters)
    "service.cache.evict_storm",
    "service.deadline.jitter",
    "cg.pricing.panic",
    "lp.resolve.fault",
    "lp.solve.fault",
];

/// Prefix families for dynamically-formatted metric names: per-shard
/// health series, per-site chaos accounting, and the benches' own
/// artifact namespaces (each bench versions its own report contents).
pub const METRIC_FAMILIES: &[&str] = &[
    "service.breaker.state.",
    "service.queue.depth.",
    "service.shard.blackout.",
    "chaos.evaluated.",
    "chaos.injected.",
    "bench_smoke.",
    "bench_service.",
    "bench_load.",
    "bench_local.",
    "bench_chaos.",
    "bench_traces.",
];

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
