//! Telemetry artifacts of the CI gate binaries: the gated run (with
//! `--check`, a same-seed double run compared on its deterministic
//! projection), and the artifact writer.

use serde_json::Value;

/// The deterministic projection of a telemetry snapshot: everything but
/// the `timers` section (wall-clock) and the series whose names start
/// with one of `unstable` (e.g. wall-clock percentiles). Series whose
/// names start with one of `unordered` are kept as sorted lists: every
/// value is still pinned, but not the order in which concurrent solver
/// workers recorded them (e.g. the `cg.*` series).
pub fn deterministic(snapshot: &Value, unstable: &[&str], unordered: &[&str]) -> Value {
    let matches = |name: &str, prefixes: &[&str]| prefixes.iter().any(|p| name.starts_with(p));
    let number = |v: &Value| v.as_f64().unwrap_or(f64::NAN);
    let mut doc = snapshot.clone();
    if let Some(map) = doc.as_object_mut() {
        map.remove("timers");
        if let Some(Value::Object(series)) = map.remove("series") {
            let kept = series
                .iter()
                .filter(|(name, _)| !matches(name, unstable))
                .map(|(name, values)| {
                    let mut values = values.clone();
                    if let (true, Value::Array(list)) = (matches(name, unordered), &mut values) {
                        list.sort_by(|a, b| number(a).total_cmp(&number(b)));
                    }
                    (name.clone(), values)
                })
                .collect();
            map.insert("series".into(), Value::Object(kept));
        }
    }
    doc
}

/// Runs a gate suite: `run` yields a telemetry snapshot and a report,
/// and `gates` checks both. With `twice`, the suite runs and is gated
/// again, and the two same-seed snapshots must agree on their
/// [`deterministic`] projection (on a mismatch both projections are
/// printed, so the CI log names the drifting field). Any failure exits
/// the process with code 1. Returns the first run.
pub fn gated_runs<T>(
    bin: &str,
    twice: bool,
    unstable: &[&str],
    unordered: &[&str],
    run: impl Fn() -> (Value, T),
    gates: impl Fn(&Value, &T) -> Result<(), String>,
) -> (Value, T) {
    let gate = |(snapshot, report): &(Value, T), which: &str| {
        if let Err(e) = gates(snapshot, report) {
            eprintln!("{bin}: FAIL{which} — {e}");
            std::process::exit(1);
        }
    };
    let first = run();
    gate(&first, "");
    if twice {
        let second = run();
        gate(&second, " (second run)");
        let (a, b) = (
            deterministic(&first.0, unstable, unordered),
            deterministic(&second.0, unstable, unordered),
        );
        if a != b {
            eprintln!("{bin}: FAIL — deterministic fields differ between same-seed runs");
            eprintln!("first:  {}", serde_json::to_string(&a).unwrap());
            eprintln!("second: {}", serde_json::to_string(&b).unwrap());
            std::process::exit(1);
        }
        println!("determinism check: deterministic fields identical across two runs");
    }
    first
}

/// The committed budgets on the Dijkstra work counters, as
/// `(runs, settled nodes)`: fails naming the first of
/// `roadnet.dijkstra.runs` and `roadnet.dijkstra.settled_nodes` whose
/// count in `snapshot` exceeds its budget. Both counts are exact for a
/// fixed seed, so a budget over them fails any change that makes a
/// bounded or targeted search settle more than it needs.
pub fn dijkstra_budgets(snapshot: &Value, runs: u64, settled: u64) -> Result<(), String> {
    use roadnet::shortest_path::metrics::{DIJKSTRA_RUNS, SETTLED_NODES};
    for (name, budget) in [(DIJKSTRA_RUNS, runs), (SETTLED_NODES, settled)] {
        let count = snapshot["counters"][name].as_u64().unwrap_or(0);
        if count > budget {
            return Err(format!(
                "counter `{name}` reached {count}, over the committed budget of {budget} \
                 — the Dijkstra searches do more work than they need"
            ));
        }
    }
    Ok(())
}

/// The committed budget on `lpsolve.simplex.refactor_work` (rows ×
/// kernel columns, summed over refactorizations): fails when its count
/// in `snapshot` exceeds `budget`. The count is exact for a fixed
/// seed, so a budget over it fails any change that makes a
/// refactorization factor more of the basis than its kernel.
pub fn refactor_work_budget(snapshot: &Value, budget: u64) -> Result<(), String> {
    let name = lpsolve::metrics::REFACTOR_WORK;
    let count = snapshot["counters"][name].as_u64().unwrap_or(0);
    if count > budget {
        return Err(format!(
            "counter `{name}` reached {count}, over the committed budget of {budget} \
             — refactorizations factor more than the basis kernel"
        ));
    }
    Ok(())
}

/// Writes `snapshot` to `out` as pretty JSON with a trailing newline,
/// creating parent directories as needed.
///
/// # Panics
///
/// Panics if the directory or the file cannot be written.
pub fn write(out: &str, snapshot: &Value) {
    if let Some(dir) = std::path::Path::new(out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create artifact directory");
        }
    }
    let mut doc = serde_json::to_string_pretty(snapshot).expect("snapshot serializes");
    doc.push('\n');
    std::fs::write(out, doc).expect("write artifact");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_drops_timers_and_unstable_series_only() {
        let snapshot = serde_json::json!({
            "counters": {"a": 1},
            "series": {"cg.x": [1.0], "keep": [2.0]},
            "timers": {"t": {"count": 1}},
        });
        let doc = deterministic(&snapshot, &["cg."], &[]);
        assert_eq!(
            doc,
            serde_json::json!({"counters": {"a": 1}, "series": {"keep": [2.0]}})
        );
        // With no unstable prefixes only the timers go.
        assert_eq!(
            deterministic(&snapshot, &[], &[])["series"],
            snapshot["series"]
        );
    }

    #[test]
    fn unordered_series_compare_as_sorted_lists() {
        let run = |cg: [f64; 3], keep: [f64; 2]| serde_json::json!({"series": {"cg.x": cg, "keep": keep}});
        let project = |doc: &Value| deterministic(doc, &[], &["cg."]);
        // Another arrival order of the same values projects the same...
        let a = run([3.0, 1.0, 2.0], [1.0, 2.0]);
        let b = run([1.0, 2.0, 3.0], [1.0, 2.0]);
        assert_eq!(project(&a), project(&b));
        // ...but every value is still pinned, and other series keep
        // their order.
        assert_ne!(project(&a), project(&run([3.0, 1.0, 4.0], [1.0, 2.0])));
        assert_ne!(project(&a), project(&run([3.0, 1.0, 2.0], [2.0, 1.0])));
    }
}
