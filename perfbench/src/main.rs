//! The serving benchmark of the VLP mechanism service.
//!
//! ```text
//! perfbench --workload <hit_stream|cold_local|fleet_rounds> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` its metrics are the end-to-end metrics every
//! workload reports; with `--trace 1` they are the per-layer metrics
//! every workload reports, and the spans behind them are written to
//! `.bench_out/`. Metrics particular to one workload are printed but
//! left out of the result line. Any failed correctness check is printed
//! to standard error and makes the exit code 1. See `README.md` for the
//! workloads and metrics.

mod cold_local;
mod common;
mod fleet_rounds;
mod heap;
mod hit_stream;
mod inputs;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::{json, Map, Value};

use crate::common::{Args, Report, END_TO_END, PER_LAYER};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Directory the traced run writes its spans to, relative to the
/// working directory.
const SPAN_DIR: &str = ".bench_out";

const USAGE: &str =
    "usage: perfbench --workload <hit_stream|cold_local|fleet_rounds> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Args) -> Report = match args.workload.as_str() {
        "hit_stream" => hit_stream::run,
        "cold_local" => cold_local::run,
        "fleet_rounds" => fleet_rounds::run,
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args);

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in report.notes() {
        println!("  {note}");
    }
    // The result line holds the metrics every workload reports; the
    // rest are printed, marked with no `*`, for context.
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Map::new();
    for &(name, value, unit) in report.metrics() {
        let in_result = listed.contains(&(name, unit));
        let mark = if in_result { '*' } else { ' ' };
        println!("{mark} {name:<32} {value:>16.6} {unit}");
        if in_result {
            metrics.insert(name.to_string(), json!({"value": value, "unit": unit}));
        }
    }
    let missing: Vec<&str> = listed
        .iter()
        .map(|m| m.0)
        .filter(|name| !metrics.contains_key(name))
        .collect();
    if !missing.is_empty() {
        eprintln!("perfbench: check failed: the run did not report {missing:?}");
    }
    for failure in report.failures() {
        eprintln!("perfbench: check failed: {failure}");
    }
    if let Some(tracer) = &report.tracer {
        let path =
            PathBuf::from(SPAN_DIR).join(format!("{}-seed{}.spans.json", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => println!(
                "  {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let correct = report.failures().is_empty()
        && missing.is_empty()
        && report.metrics().iter().all(|m| m.1.is_finite());
    let attempted = report.attempted.max(1);
    let failed = report.failed;
    let metrics = Value::Object(metrics);
    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("the result serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lists the result line is built from name the metrics and
    /// units of `BENCHMARK.json`, in its order.
    #[test]
    fn metric_lists_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let manifest: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let in_manifest = |key: &str| -> Vec<(String, String)> {
            manifest[key]
                .as_array()
                .expect("a metric list")
                .iter()
                .map(|m| (m["name"].to_string(), m["unit"].to_string()))
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(name, unit)| (json!(name).to_string(), json!(unit).to_string()))
                .collect()
        };
        assert_eq!(in_manifest("end_to_end"), ours(&END_TO_END));
        assert_eq!(in_manifest("per_layer"), ours(&PER_LAYER));
    }
}
