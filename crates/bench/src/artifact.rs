//! Telemetry artifacts of the CI gate binaries: the gated run (with
//! `--check`, a same-seed double run compared on its deterministic
//! projection), and the artifact writer.

use serde_json::Value;

/// The deterministic projection of a telemetry snapshot: everything but
/// the `timers` section (wall-clock) and the series whose names start
/// with one of `unstable` (e.g. wall-clock percentiles, or `cg.*`
/// series whose order follows worker scheduling).
pub fn deterministic(snapshot: &Value, unstable: &[&str]) -> Value {
    let mut doc = snapshot.clone();
    if let Some(map) = doc.as_object_mut() {
        map.remove("timers");
        if let Some(Value::Object(series)) = map.remove("series") {
            let kept = series
                .iter()
                .filter(|(name, _)| !unstable.iter().any(|p| name.starts_with(p)))
                .map(|(name, values)| (name.clone(), values.clone()))
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
            deterministic(&first.0, unstable),
            deterministic(&second.0, unstable),
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
        let doc = deterministic(&snapshot, &["cg."]);
        assert_eq!(
            doc,
            serde_json::json!({"counters": {"a": 1}, "series": {"keep": [2.0]}})
        );
        // With no unstable prefixes only the timers go.
        assert_eq!(deterministic(&snapshot, &[])["series"], snapshot["series"]);
    }
}
