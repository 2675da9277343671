//! Deterministic smoke benchmark for CI: runs the full pipeline
//! (discretize → constraint reduction → column generation → snapshot
//! assignment) on a fixed-seed grid scenario and emits the workspace
//! telemetry snapshot as `artifacts/bench_smoke.json`.
//!
//! The artifact is schema-validated (`vlp_obs::schema`) and checked for
//! the signals CI gates on: nonzero simplex pivot counts, populated CG
//! iteration histories, and an end-to-end wall-time timer. Total
//! pivots, refactorization work and the Dijkstra work counters must fit
//! committed budgets ([`PIVOT_BUDGET`], [`REFACTOR_WORK_BUDGET`],
//! [`DIJKSTRA_RUNS_BUDGET`], [`SETTLED_BUDGET`]).
//! Timings are recorded but never gated — only structure and
//! deterministic fields are.
//!
//! Flags:
//!
//! * `--out <path>` — artifact destination (default
//!   `artifacts/bench_smoke.json`);
//! * `--check` — run the scenario twice and fail unless all non-timing
//!   fields (counters, series, run id) are identical across runs;
//! * `--max-pivots <n>` — override the committed pivot budget
//!   ([`PIVOT_BUDGET`]).

use std::time::Instant;

use platform::{ServiceConfig, Simulation, SimulationConfig};
use roadnet::generators;
use serde_json::Value;
use vlp_bench::{artifact, scenarios};

/// Seed shared by every stochastic component of the scenario.
const SEED: u64 = 20_260_807;

/// Stable run identifier: bump the suffix when the scenario changes.
const RUN_ID: &str = "bench-smoke-v2";

/// Committed budget for total simplex pivots across the scenario — a
/// speed-independent regression gate on solver work. The warm-started
/// CG engine runs the scenario in 46,006 pivots (61,129 before the
/// kernel refactorization, whose different last bits steer the
/// platform leg to one solve fewer; the cold-solve baseline was
/// ~189k); the budget leaves headroom for benign drift while still
/// failing loudly if warm starts stop engaging.
const PIVOT_BUDGET: u64 = 75_000;

/// Committed budget for `lpsolve.simplex.refactor_work` (rows × kernel
/// columns, summed over refactorizations). The count is exact
/// (21,886,424), so the budget leaves about 3% headroom; factoring the
/// whole basis at every refactorization fails it.
const REFACTOR_WORK_BUDGET: u64 = 22_550_000;

/// Committed budget for `roadnet.dijkstra.runs` across the scenario. The
/// count is exact (313 single-source runs), so the budget leaves under
/// 3% headroom. The full-mode scenario runs only shortest-path trees and
/// all-pairs builds, so this budget and [`SETTLED_BUDGET`] hold those;
/// bounded balls and targeted runs are held by `bench_local`'s budgets.
const DIJKSTRA_RUNS_BUDGET: u64 = 322;

/// Committed budget for `roadnet.dijkstra.settled_nodes` across the
/// scenario's trees and all-pairs builds. The count is exact (14,161
/// settled nodes), so the budget leaves under 3% headroom.
const SETTLED_BUDGET: u64 = 14_500;

/// Runs the fixed scenario against a freshly reset global registry and
/// returns the resulting telemetry snapshot.
fn run_pipeline() -> Value {
    let obs = vlp_obs::global();
    obs.reset();
    obs.set_run_id(RUN_ID);
    let total = Instant::now();

    // Solver leg: grid map, small fleet, CR + CG solve.
    let graph = generators::grid(4, 4, 0.4, true);
    let traces = scenarios::fleet(&graph, 3, 200, SEED);
    let inst = scenarios::cab_instance(&graph, 0.4, &traces[0], &traces);
    let (mech, etdd, diag) = scenarios::solve_ours(&inst, 5.0, scenarios::DEFAULT_XI);
    assert!(mech.is_row_stochastic(1e-6), "CG produced a non-mechanism");
    obs.push("bench_smoke.etdd_km", etdd);
    obs.incr("bench_smoke.cg_iterations", diag.iterations as u64);

    // Platform leg: simulated workers report, get matched, and drive —
    // exercises snapshot latency and assignment-distortion telemetry.
    let mut sim = Simulation::new(
        generators::grid(3, 3, 0.4, true),
        ServiceConfig {
            delta: 0.2,
            ..ServiceConfig::default()
        },
        SimulationConfig {
            n_workers: 6,
            ..SimulationConfig::default()
        },
        SEED,
    );
    let report = sim.run(45);
    obs.incr("bench_smoke.assigned_tasks", report.assigned_tasks as u64);

    // Warm-start hit rate across every LP solved above (counters are
    // deterministic, so this series survives the --check gate).
    let warm = obs.counter(lpsolve::metrics::WARM_RESOLVES);
    let cold = obs.counter(lpsolve::metrics::WARM_COLD_SOLVES);
    if warm + cold > 0 {
        obs.push(
            "bench_smoke.warm_hit_rate",
            warm as f64 / (warm + cold) as f64,
        );
    }

    obs.record_duration("bench_smoke.total", total.elapsed());
    obs.snapshot()
}

/// Asserts the structural signals CI gates on; returns an error message
/// naming the first missing signal.
fn check_signals(snapshot: &Value) -> Result<(), String> {
    vlp_obs::schema::validate_snapshot(snapshot)?;
    let pivots = snapshot["counters"][lpsolve::metrics::PIVOTS]
        .as_u64()
        .unwrap_or(0);
    if pivots == 0 {
        return Err("simplex pivot count is zero — solver telemetry not wired".into());
    }
    for series in [
        vlp_core::column_generation::metrics::MASTER_OBJECTIVE,
        vlp_core::column_generation::metrics::DUAL_BOUND,
        vlp_core::column_generation::metrics::MIN_ZETA,
    ] {
        if snapshot["series"][series]
            .as_array()
            .is_none_or(|a| a.is_empty())
        {
            return Err(format!("CG series `{series}` is missing or empty"));
        }
    }
    let total = &snapshot["timers"]["bench_smoke.total"];
    if total["total_ns"].as_u64().unwrap_or(0) == 0 {
        return Err("end-to-end wall-time timer is missing".into());
    }
    if snapshot["series"][platform::metrics::ASSIGNMENT_DISTORTION_KM]
        .as_array()
        .is_none_or(|a| a.is_empty())
    {
        return Err("assignment-distortion series is missing or empty".into());
    }
    Ok(())
}

fn main() {
    let mut out = String::from("artifacts/bench_smoke.json");
    let mut check = false;
    let mut max_pivots = PIVOT_BUDGET;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => out = argv.next().expect("--out needs a path"),
            "--max-pivots" => {
                max_pivots = argv
                    .next()
                    .expect("--max-pivots needs a count")
                    .parse()
                    .expect("--max-pivots needs an integer")
            }
            other => {
                eprintln!(
                    "unknown flag `{other}` (expected --check, --out <path>, or --max-pivots <n>)"
                );
                std::process::exit(2);
            }
        }
    }

    let (snapshot, ()) = artifact::gated_runs(
        "bench_smoke",
        check,
        &[],
        &[],
        || (run_pipeline(), ()),
        |snapshot, ()| check_signals(snapshot),
    );

    artifact::write(&out, &snapshot);

    let pivots = snapshot["counters"][lpsolve::metrics::PIVOTS]
        .as_u64()
        .unwrap();
    if pivots > max_pivots {
        eprintln!(
            "bench_smoke: FAIL — {pivots} simplex pivots exceed the budget of {max_pivots} \
             (warm starts regressed?)"
        );
        std::process::exit(1);
    }
    if let Err(e) = artifact::refactor_work_budget(&snapshot, REFACTOR_WORK_BUDGET)
        .and_then(|()| artifact::dijkstra_budgets(&snapshot, DIJKSTRA_RUNS_BUDGET, SETTLED_BUDGET))
    {
        eprintln!("bench_smoke: FAIL — {e}");
        std::process::exit(1);
    }
    let solves = snapshot["counters"][lpsolve::metrics::SOLVES]
        .as_u64()
        .unwrap_or(0);
    let warm_rate = snapshot["series"]["bench_smoke.warm_hit_rate"][0]
        .as_f64()
        .unwrap_or(0.0);
    let total_ns = snapshot["timers"]["bench_smoke.total"]["total_ns"]
        .as_u64()
        .unwrap();
    let runs = snapshot["counters"][roadnet::shortest_path::metrics::DIJKSTRA_RUNS]
        .as_u64()
        .unwrap_or(0);
    let settled = snapshot["counters"][roadnet::shortest_path::metrics::SETTLED_NODES]
        .as_u64()
        .unwrap_or(0);
    let work = snapshot["counters"][lpsolve::metrics::REFACTOR_WORK]
        .as_u64()
        .unwrap_or(0);
    println!(
        "bench_smoke: OK — {solves} LP solves, {pivots} pivots (budget {max_pivots}), \
         refactor work {work} (budget {REFACTOR_WORK_BUDGET}), {runs} Dijkstra runs settling {settled} nodes (budgets {DIJKSTRA_RUNS_BUDGET} / \
         {SETTLED_BUDGET}), {:.1}% warm, {:.2}s end-to-end → {out}",
        warm_rate * 100.0,
        total_ns as f64 / 1e9
    );
}
