//! Continuous-trace serving gate: replays streaming trajectory
//! workloads through the open-loop [`platform::MechanismService`]
//! under four reporting regimes and attacks every one with the
//! spatial-correlation (HMM) adversary, emitting the telemetry
//! snapshot as `artifacts/bench_traces.json`.
//!
//! The regimes share one trip-structured fleet stream
//! ([`vlp_bench::streams`]):
//!
//! * **sporadic** — every 4th report, constant ε, no accountant: the
//!   paper's one-shot reporting model (footnote 4);
//! * **continuous-unprotected** — every report, constant ε, no
//!   accountant: what naive continuous serving leaks;
//! * **continuous** — every report at constant ε against a per-vehicle
//!   trace budget ([`platform::TraceBudgetConfig`]): grants throttle
//!   as the ledger fills and reports are refused once exhausted;
//! * **velocity-adaptive** — per-report ε from
//!   [`platform::VelocityEpsilon`] under the same budget: dwelling
//!   vehicles get tight ε, cruising vehicles coarser ε, and the
//!   budget stretches over more of the trace.
//!
//! Each regime is decoded per vehicle with the per-step-mechanism
//! Viterbi and forward-backward decoders ([`adversary::viterbi_seq`],
//! [`adversary::forward_backward_seq`]) — the adversary knows which
//! mechanism served each report — and scored as mean road-distance
//! trajectory error (AdvError) plus per-report ETDD.
//!
//! Gates (structural, never wall-clock):
//!
//! * **ε-validity** — every mechanism that served a report passes
//!   full-spec `privacy::verify` at its accounted canonical ε;
//! * **composition** — in the budgeted regimes, each vehicle's summed
//!   served ε equals the service ledger and never exceeds the trace
//!   budget; the continuous regime must actually hit exhaustion;
//! * **adaptivity pays** — the budget lasts strictly more reports
//!   under velocity-adaptive ε than under constant ε, and the
//!   adversary's Viterbi error on continuous-unprotected is strictly
//!   *below* (worse for the vehicle) the velocity-adaptive error;
//! * **determinism** — with `--check` the suite runs twice and all
//!   non-timing fields must be bit-identical.
//!
//! Flags: `--out <path>` (default `artifacts/bench_traces.json`),
//! `--check`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adversary::{
    decode_marginals, forward_backward_seq, trajectory_error, viterbi_seq, TransitionMatrix,
};
use mobility::TripConfig;
use platform::{
    MechanismService, Response, ServiceConfig, TraceBudgetConfig, VelocityEpsilon, WorkerId,
};
use rand::SeedableRng;
use roadnet::generators;
use serde_json::Value;
use vlp_bench::artifact;
use vlp_bench::scenarios::{cg_options, DEFAULT_XI};
use vlp_bench::streams::{subsample_stream, trip_stream, TraceReport};
use vlp_core::{privacy, Mechanism, Prior, QualityTier};

/// Seed shared by every stochastic component of the scenario.
const SEED: u64 = 20_260_809;

/// Seed of the floating-vehicle training fleet the adversary learns
/// its transition matrix from (disjoint from the attacked fleet).
const TRAIN_SEED: u64 = 4_242;

/// Stable run identifier: bump the suffix when the scenario changes.
const RUN_ID: &str = "bench-traces-v1";

/// Vehicles in the attacked fleet.
const N_VEHICLES: usize = 4;

/// Reports per vehicle in the continuous stream.
const REPORTS: usize = 40;

/// Sporadic regime keeps every `n`-th report (footnote 4's `7n`).
const SPORADIC_STEP: usize = 4;

/// The constant privacy budget per report (per km).
const EPSILON: f64 = 5.0;

/// Per-vehicle trace budget for the accounted regimes: 12 full-ε
/// reports' worth, against a 40-report trace.
const TRACE_BUDGET: f64 = 60.0;

/// ε-bucket width of the service cache grid.
const BUCKET: f64 = 0.5;

/// Training vehicles and reports for the transition matrix.
const N_TRAIN: usize = 6;
const TRAIN_REPORTS: usize = 300;

/// Additive smoothing for the learned transition matrix (Eq. 5).
const SMOOTHING: f64 = 0.05;

/// How a regime picks its requested ε and whether it is accounted.
struct Regime {
    name: &'static str,
    sporadic_step: usize,
    budget: Option<TraceBudgetConfig>,
    velocity: Option<VelocityEpsilon>,
}

/// Measured results of one regime, feeding the gates and the
/// `EXPERIMENTS.md` table.
struct RegimeReport {
    name: &'static str,
    served: u64,
    refused: u64,
    mean_epsilon: f64,
    /// Mean per-step road distance of the Viterbi decode, km.
    viterbi_km: f64,
    /// Mean per-step road distance of the forward-backward decode, km.
    fb_km: f64,
    /// Mean road distance between reported and true interval, km.
    etdd_km: f64,
    /// Largest per-vehicle ledger fill (spent / budget), 0 when
    /// unaccounted.
    max_fill: f64,
}

/// One served report, aligned to its ground truth.
struct Step {
    truth: usize,
    reported: usize,
    epsilon: f64,
    laplace: bool,
}

fn service(budget: Option<TraceBudgetConfig>) -> MechanismService {
    MechanismService::new(
        generators::grid(4, 4, 0.4, true),
        ServiceConfig {
            n_shards: 1,
            delta: 0.3,
            radius: f64::INFINITY,
            epsilon_bucket: BUCKET,
            cg: cg_options(DEFAULT_XI),
            // Generous logical deadline: background solves run at the
            // Exact tier; the open-loop path serves the fallback on
            // cold keys and the cached optimum afterwards.
            solve_deadline: Duration::from_secs(600),
            solver_threads: 2,
            budget,
            ..ServiceConfig::default()
        },
    )
}

/// The attacked fleet's merged report stream (trip-structured motion:
/// dwells exercise the velocity adapter's tight-ε end).
fn fleet_stream() -> Vec<TraceReport> {
    let graph = generators::grid(4, 4, 0.4, true);
    let cfg = TripConfig {
        reports: REPORTS,
        ..TripConfig::default()
    };
    trip_stream(&graph, &cfg, N_VEHICLES, SEED)
}

/// Maps a global location to its interval in shard 0's discretization.
fn truth_interval(
    svc: &MechanismService,
    inst: &vlp_core::VlpInstance,
    loc: roadnet::Location,
) -> usize {
    let (s, local) = svc
        .partition()
        .to_local(loc)
        .expect("single-shard partition covers the map");
    assert_eq!(s, 0, "single shard");
    inst.disc
        .locate(&inst.graph, local)
        .expect("every trace point lies in an interval")
}

/// Learns the adversary's transition matrix and empirical prior from a
/// disjoint floating-vehicle fleet on the same map (Eq. 5).
fn train_adversary(
    svc: &MechanismService,
    inst: &vlp_core::VlpInstance,
) -> (TransitionMatrix, Prior) {
    let graph = generators::grid(4, 4, 0.4, true);
    let cfg = TripConfig {
        reports: TRAIN_REPORTS,
        ..TripConfig::default()
    };
    let k = inst.f_p.len();
    let mut visits = vec![0.1f64; k];
    let seqs: Vec<Vec<usize>> = (0..N_TRAIN)
        .map(|v| {
            let trace = mobility::generate_trip_trace(
                &graph,
                &cfg,
                TRAIN_SEED.wrapping_add(v as u64).wrapping_mul(0x9E37_79B9),
            );
            let seq: Vec<usize> = trace
                .locations
                .iter()
                .map(|&loc| truth_interval(svc, inst, loc))
                .collect();
            for &i in &seq {
                visits[i] += 1.0;
            }
            seq
        })
        .collect();
    let trans = TransitionMatrix::learn(k, &seqs, SMOOTHING);
    let prior = Prior::from_weights(&visits).expect("smoothed visit counts are positive");
    (trans, prior)
}

/// Replays `stream` through a fresh service under the regime's ε
/// policy, audits every serving mechanism, runs both decoders, and
/// returns the measured report.
fn run_regime(regime: &Regime, index: usize, stream: &[TraceReport]) -> RegimeReport {
    let obs = vlp_obs::global();
    let mut svc = service(regime.budget);
    let inst = svc.shard_instance(0);
    let (trans, prior) = train_adversary(&svc, &inst);
    let stream = if regime.sporadic_step > 1 {
        subsample_stream(stream, regime.sporadic_step)
    } else {
        stream.to_vec()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED.wrapping_add(index as u64));

    let mut steps: Vec<Vec<Step>> = (0..N_VEHICLES).map(|_| Vec::new()).collect();
    let mut refused = 0u64;
    for report in &stream {
        let requested = match &regime.velocity {
            Some(va) => va.epsilon_for(report.speed_kmh),
            None => EPSILON,
        };
        match svc.submit(report.vehicle, report.location, requested, &mut rng) {
            Response::Served(o) => {
                assert!(
                    o.epsilon <= requested + 1e-12,
                    "{}: never less private than asked",
                    regime.name
                );
                steps[report.vehicle.0].push(Step {
                    truth: truth_interval(&svc, &inst, report.location),
                    reported: o.interval,
                    epsilon: o.epsilon,
                    laplace: o.tier == QualityTier::Laplace,
                });
            }
            Response::BudgetExhausted { .. } => {
                assert!(
                    regime.budget.is_some(),
                    "{}: refusal without an accountant",
                    regime.name
                );
                refused += 1;
            }
            other => panic!(
                "{}: unexpected response {other:?} on a fault-free single-shard map",
                regime.name
            ),
        }
        // Drain the background solve a cold key enqueued so the next
        // same-bucket report deterministically hits the cached optimum.
        svc.quiesce();
    }

    // Composition gate: the bench's own ε ledger must agree with the
    // service's, and never exceed the trace budget.
    let mut max_fill = 0.0f64;
    for (v, vehicle_steps) in steps.iter().enumerate() {
        let summed: f64 = vehicle_steps.iter().map(|s| s.epsilon).sum();
        match regime.budget {
            Some(b) => {
                assert!(
                    summed <= b.trace_budget + 1e-9,
                    "{}: vehicle {v} served ε {summed} over budget {}",
                    regime.name,
                    b.trace_budget
                );
                let ledger = svc
                    .budget_spent(WorkerId(v))
                    .expect("accountant is enabled");
                assert!(
                    (summed - ledger).abs() < 1e-9,
                    "{}: vehicle {v} bench ledger {summed} != service ledger {ledger}",
                    regime.name
                );
                max_fill = max_fill.max(summed / b.trace_budget);
            }
            None => assert!(
                svc.budget_spent(WorkerId(v)).is_none(),
                "{}: no accountant, no ledger",
                regime.name
            ),
        }
    }

    // ε-validity gate: every mechanism that served a report satisfies
    // full-spec ε-Geo-I at its accounted canonical ε — the Exact cache
    // entries and the graph-Laplace fallbacks alike.
    let mut mechanisms: BTreeMap<(u64, bool), Arc<Mechanism>> = BTreeMap::new();
    for s in steps.iter().flatten() {
        mechanisms
            .entry((s.epsilon.to_bits(), s.laplace))
            .or_insert_with(|| {
                if s.laplace {
                    svc.fallback_mechanism(0, s.epsilon)
                        .expect("fallback that served is retained")
                } else {
                    svc.cached_mechanism(0, s.epsilon)
                        .expect("optimum that served is cached")
                }
            });
    }
    for (&(bits, laplace), mechanism) in &mechanisms {
        let eps = f64::from_bits(bits);
        let spec = vlp_core::PrivacySpec::full(&inst.aux, eps, f64::INFINITY);
        assert!(
            privacy::verify(mechanism, &spec, 1e-6),
            "{}: served mechanism (ε={eps}, laplace={laplace}) violates Geo-I",
            regime.name
        );
    }
    obs.incr("bench_traces.privacy_audits", mechanisms.len() as u64);

    // The attack: per-vehicle Viterbi and forward-backward decodes
    // with the per-step mechanisms the adversary observed.
    let mut weighted_viterbi = 0.0;
    let mut weighted_fb = 0.0;
    let mut etdd_sum = 0.0;
    let mut eps_sum = 0.0;
    let mut served = 0u64;
    for vehicle_steps in &steps {
        if vehicle_steps.is_empty() {
            continue;
        }
        let truth: Vec<usize> = vehicle_steps.iter().map(|s| s.truth).collect();
        let observed: Vec<usize> = vehicle_steps.iter().map(|s| s.reported).collect();
        let mechs: Vec<&Mechanism> = vehicle_steps
            .iter()
            .map(|s| mechanisms[&(s.epsilon.to_bits(), s.laplace)].as_ref())
            .collect();
        let map_path = viterbi_seq(&trans, &prior, &mechs, &observed);
        let marginals = decode_marginals(&forward_backward_seq(&trans, &prior, &mechs, &observed));
        let n = truth.len() as f64;
        weighted_viterbi += trajectory_error(&truth, &map_path, &inst.interval_dists) * n;
        weighted_fb += trajectory_error(&truth, &marginals, &inst.interval_dists) * n;
        for s in vehicle_steps {
            etdd_sum += inst.interval_dists.get_min(s.truth, s.reported);
            eps_sum += s.epsilon;
        }
        served += truth.len() as u64;
    }
    assert!(
        served > 0,
        "{}: regime served nothing to decode",
        regime.name
    );
    let total = served as f64;

    svc.tick();
    svc.flush_metrics();
    svc.shutdown();

    let report = RegimeReport {
        name: regime.name,
        served,
        refused,
        mean_epsilon: eps_sum / total,
        viterbi_km: weighted_viterbi / total,
        fb_km: weighted_fb / total,
        etdd_km: etdd_sum / total,
        max_fill,
    };
    obs.incr("bench_traces.regimes", 1);
    obs.incr(
        &format!("bench_traces.{}.served", report.name),
        report.served,
    );
    obs.incr(
        &format!("bench_traces.{}.refused", report.name),
        report.refused,
    );
    obs.push(
        &format!("bench_traces.{}.mean_epsilon", report.name),
        report.mean_epsilon,
    );
    obs.push(
        &format!("bench_traces.{}.adv_viterbi_km", report.name),
        report.viterbi_km,
    );
    obs.push(
        &format!("bench_traces.{}.adv_fb_km", report.name),
        report.fb_km,
    );
    obs.push(
        &format!("bench_traces.{}.etdd_km", report.name),
        report.etdd_km,
    );
    obs.push(
        &format!("bench_traces.{}.max_fill", report.name),
        report.max_fill,
    );
    report
}

/// Runs every regime against a freshly reset global registry.
fn run_suite() -> (Value, Vec<RegimeReport>) {
    let obs = vlp_obs::global();
    obs.reset();
    obs.set_run_id(RUN_ID);
    let total = Instant::now();
    let stream = fleet_stream();
    let budget = TraceBudgetConfig {
        trace_budget: TRACE_BUDGET,
        throttle_start: 0.5,
    };
    let regimes = [
        Regime {
            name: "sporadic",
            sporadic_step: SPORADIC_STEP,
            budget: None,
            velocity: None,
        },
        Regime {
            name: "continuous_unprotected",
            sporadic_step: 1,
            budget: None,
            velocity: None,
        },
        Regime {
            name: "continuous",
            sporadic_step: 1,
            budget: Some(budget),
            velocity: None,
        },
        Regime {
            name: "velocity_adaptive",
            sporadic_step: 1,
            budget: Some(budget),
            velocity: Some(VelocityEpsilon {
                base_epsilon: EPSILON,
                ..VelocityEpsilon::default()
            }),
        },
    ];
    let reports: Vec<RegimeReport> = regimes
        .iter()
        .enumerate()
        .map(|(i, regime)| run_regime(regime, i, &stream))
        .collect();
    obs.record_duration("bench_traces.total", total.elapsed());
    (obs.snapshot(), reports)
}

/// Series left out of the `--check` comparison: the `cg.*`
/// per-iteration traces, flushed as one block per solve by solver
/// workers, so block order is thread-scheduling-dependent (the
/// commutative `cg.*` counters stay in).
const UNSTABLE_SERIES: [&str; 1] = ["cg."];

/// The structural gates; returns an error naming the first violation.
fn check_gates(snapshot: &Value, reports: &[RegimeReport]) -> Result<(), String> {
    vlp_obs::schema::validate_snapshot(snapshot)?;
    let find = |name: &str| -> Result<&RegimeReport, String> {
        reports
            .iter()
            .find(|r| r.name == name)
            .ok_or_else(|| format!("regime `{name}` missing from the suite"))
    };
    let unprotected = find("continuous_unprotected")?;
    let continuous = find("continuous")?;
    let adaptive = find("velocity_adaptive")?;
    if continuous.refused == 0 {
        return Err(
            "continuous regime never hit budget exhaustion — the refusal \
             floor went unexercised"
                .into(),
        );
    }
    if adaptive.served <= continuous.served {
        return Err(format!(
            "velocity-adaptive ε served {} reports, constant ε served {} — the \
             budget should stretch further under adaptive ε",
            adaptive.served, continuous.served
        ));
    }
    if unprotected.viterbi_km >= adaptive.viterbi_km {
        return Err(format!(
            "Viterbi error {:.4} km on continuous-unprotected is not below the \
             velocity-adaptive {:.4} km — unthrottled constant-ε reporting must \
             be strictly better for the adversary",
            unprotected.viterbi_km, adaptive.viterbi_km
        ));
    }
    if snapshot["counters"]["bench_traces.privacy_audits"]
        .as_u64()
        .unwrap_or(0)
        == 0
    {
        return Err("privacy audit ran over zero mechanisms".into());
    }
    if snapshot["counters"]["bench_traces.regimes"].as_u64() != Some(reports.len() as u64) {
        return Err("regime counter disagrees with the suite".into());
    }
    Ok(())
}

fn main() {
    let mut out = String::from("artifacts/bench_traces.json");
    let mut check = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => out = argv.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown flag `{other}` (expected --check or --out <path>)");
                std::process::exit(2);
            }
        }
    }

    let (snapshot, reports) = artifact::gated_runs(
        "bench_traces",
        check,
        &UNSTABLE_SERIES,
        &[],
        run_suite,
        |snapshot, reports| check_gates(snapshot, reports),
    );

    artifact::write(&out, &snapshot);

    println!(
        "bench_traces: OK — adversary evaluation over {} regimes:",
        reports.len()
    );
    for r in &reports {
        println!(
            "  {:<23} served {:>3} refused {:>3} mean ε {:>4.2} \
             AdvError(Viterbi) {:.3} km  AdvError(FB) {:.3} km  ETDD {:.3} km  fill {:.2}",
            r.name,
            r.served,
            r.refused,
            r.mean_epsilon,
            r.viterbi_km,
            r.fb_km,
            r.etdd_km,
            r.max_fill
        );
    }
}
