//! End-to-end integration: trace → prior → instance → mechanism →
//! reports → inference attack, across all workspace crates.

use adversary::{bayes, hmm};
use mobility::{estimate_prior, generate_fleet, interval_trace, TraceConfig};
use rand::SeedableRng;
use roadnet::generators;
use vlp_bench::scenarios;
use vlp_core::{CgOptions, Discretization, Mechanism, VlpInstance};

/// A small but non-trivial downtown instance built from traces.
fn build() -> (roadnet::RoadGraph, VlpInstance) {
    let graph = generators::downtown(3, 3, 0.3);
    let disc = Discretization::new(&graph, 0.15);
    let cfg = TraceConfig {
        reports: 300,
        ..TraceConfig::default()
    };
    let fleet = generate_fleet(&graph, &cfg, 3, 7);
    let f_p = estimate_prior(&graph, &disc, &fleet[..1], 0.1).expect("trace on map");
    let f_q = estimate_prior(&graph, &disc, &fleet, 0.1).expect("fleet on map");
    let inst = VlpInstance::new(graph.clone(), 0.15, f_p, f_q);
    (graph, inst)
}

#[test]
fn full_pipeline_produces_feasible_useful_mechanism() {
    let (_, inst) = build();
    let solved = inst
        .solve(5.0, f64::INFINITY, &CgOptions::default())
        .expect("solves");
    // Feasible.
    assert!(solved.mechanism.is_row_stochastic(1e-6));
    assert!(solved.mechanism.max_violation(&solved.spec) <= 1e-6);
    // Better than the uniform mechanism, worse than (or equal to)
    // truthful reporting.
    let uniform_loss = Mechanism::uniform(inst.len()).quality_loss(&inst.cost);
    assert!(solved.quality_loss <= uniform_loss + 1e-9);
    assert!(solved.quality_loss >= -1e-9);
}

#[test]
fn privacy_quality_tradeoff_is_monotone_end_to_end() {
    let (_, inst) = build();
    let mut last_loss = f64::INFINITY;
    for eps in [1.0, 3.0, 9.0] {
        let solved = inst
            .solve(eps, f64::INFINITY, &CgOptions::default())
            .expect("solves");
        assert!(
            solved.quality_loss <= last_loss + 1e-6,
            "loss must fall as privacy loosens"
        );
        last_loss = solved.quality_loss;
    }
}

#[test]
fn mechanism_round_trips_through_the_wire_format() {
    let (_, inst) = build();
    let solved = inst
        .solve(4.0, f64::INFINITY, &CgOptions::default())
        .expect("solves");
    let bytes = serde_json::to_vec(&solved.mechanism).expect("serializes");
    let back: Mechanism = serde_json::from_slice(&bytes).expect("deserializes");
    assert_eq!(back, solved.mechanism);
}

#[test]
fn sampled_reports_match_bayes_model() {
    // Monte-Carlo sanity: empirical adversary error from sampled
    // reports approaches the closed-form AdvError.
    let (_, inst) = build();
    let solved = inst
        .solve(3.0, f64::INFINITY, &CgOptions::default())
        .expect("solves");
    let mech = &solved.mechanism;
    let closed = bayes::adv_error(mech, &inst.f_p, &inst.interval_dists);
    let est = bayes::optimal_estimates(mech, &inst.f_p, &inst.interval_dists);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let n = 20_000;
    let mut total = 0.0;
    for _ in 0..n {
        let i = inst.f_p.sample(&mut rng);
        let j = mech.sample_interval(i, &mut rng);
        total += inst.interval_dists.get_min(i, est[j]);
    }
    let empirical = total / n as f64;
    assert!(
        (empirical - closed).abs() < 0.05 * closed.max(0.05),
        "empirical {empirical} vs closed-form {closed}"
    );
}

#[test]
fn hmm_attack_pipeline_runs_and_is_bounded_by_diameter() {
    let (graph, inst) = build();
    let solved = inst
        .solve(5.0, f64::INFINITY, &CgOptions::default())
        .expect("solves");
    let cfg = TraceConfig {
        reports: 120,
        ..TraceConfig::default()
    };
    let fleet = generate_fleet(&graph, &cfg, 3, 21);
    let seqs: Vec<Vec<usize>> = fleet
        .iter()
        .map(|t| interval_trace(&graph, &inst.disc, t))
        .collect();
    let trans = hmm::TransitionMatrix::learn(inst.len(), &seqs, 0.05);
    let truth = &seqs[0];
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let observed: Vec<usize> = truth
        .iter()
        .map(|&i| solved.mechanism.sample_interval(i, &mut rng))
        .collect();
    let decoded = hmm::viterbi(&trans, &inst.f_p, &solved.mechanism, &observed);
    assert_eq!(decoded.len(), truth.len());
    let err = hmm::trajectory_error(truth, &decoded, &inst.interval_dists);
    // Error is a distance on the map: bounded by the graph diameter.
    let diameter = (0..inst.len())
        .flat_map(|i| (0..inst.len()).map(move |j| (i, j)))
        .map(|(i, j)| inst.interval_dists.get_min(i, j))
        .fold(0.0f64, f64::max);
    assert!(err <= diameter + 1e-9);
}

#[test]
fn assignment_from_reports_is_worse_but_bounded() {
    let (_, inst) = build();
    let solved = inst
        .solve(5.0, f64::INFINITY, &CgOptions::default())
        .expect("solves");
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let vehicles: Vec<usize> = (0..8).map(|_| inst.f_p.sample(&mut rng)).collect();
    let tasks: Vec<usize> = (0..5).map(|_| inst.f_q.sample(&mut rng)).collect();
    let reported: Vec<usize> = vehicles
        .iter()
        .map(|&v| solved.mechanism.sample_interval(v, &mut rng))
        .collect();
    let cost_from = |locs: &[usize]| -> Vec<Vec<f64>> {
        tasks
            .iter()
            .map(|&t| {
                locs.iter()
                    .map(|&v| inst.interval_dists.get(v, t))
                    .collect()
            })
            .collect()
    };
    let true_cost = |a: &assignment::Assignment| -> f64 {
        a.pairs
            .iter()
            .enumerate()
            .map(|(ti, &vi)| inst.interval_dists.get(vehicles[vi], tasks[ti]))
            .sum()
    };
    let with_privacy = true_cost(&assignment::hungarian(&cost_from(&reported)).expect("ok"));
    let without = true_cost(&assignment::hungarian(&cost_from(&vehicles)).expect("ok"));
    // Obfuscation can only hurt the matching (or tie), and the penalty
    // is bounded by the achievable worst case: every task served from
    // the farthest interval.
    assert!(with_privacy >= without - 1e-9);
    let worst = tasks
        .iter()
        .map(|&t| {
            (0..inst.len())
                .map(|v| inst.interval_dists.get(v, t))
                .fold(0.0f64, f64::max)
        })
        .sum::<f64>();
    assert!(with_privacy <= worst + 1e-9);
}

#[test]
fn platform_round_trip_respects_privacy_and_serves_tasks() {
    // The §2 framework built on top of everything: the server only ever
    // sees reports drawn from the mechanism, assignments happen, and
    // the mechanism the workers hold satisfies Geo-I at the configured
    // budget throughout.
    use platform::{ServiceConfig, Simulation, SimulationConfig};
    let graph = generators::downtown(3, 3, 0.3);
    let mut sim = Simulation::new(
        graph,
        ServiceConfig {
            delta: 0.2,
            ..ServiceConfig::default()
        },
        SimulationConfig {
            n_workers: 6,
            epsilon: 5.0,
            ..SimulationConfig::default()
        },
        17,
    );
    let mech = sim
        .service()
        .cached_mechanism(0, 5.0)
        .expect("server boots");
    let inst = sim.service().shard_instance(0);
    let k = inst.len();
    assert!(mech.is_row_stochastic(1e-6));
    let report = sim.run(60);
    assert!(report.assigned_tasks > 0, "platform must assign tasks");
    assert!(report.completed_tasks > 0, "platform must complete tasks");
    // Quality realized end-to-end is consistent: the per-assignment
    // estimate gap stays bounded by the map diameter.
    let diameter = (0..k)
        .flat_map(|i| (0..k).map(move |j| (i, j)))
        .map(|(i, j)| inst.interval_dists.get_min(i, j))
        .fold(0.0f64, f64::max);
    assert!(report.mean_estimate_gap() <= diameter + 1e-9);
}

#[test]
fn scenario_helpers_agree_with_manual_pipeline() {
    let graph = scenarios::rome_graph();
    let traces = scenarios::fleet(&graph, 2, 200, 3);
    let inst = scenarios::cab_instance(&graph, 0.4, &traces[0], &traces);
    let (mech, loss, _) = scenarios::solve_ours(&inst, 5.0, -1e-3);
    let metrics = scenarios::evaluate(&inst, &mech);
    assert!((metrics.etdd - loss).abs() < 1e-6);
    assert!((metrics.etdd - mech.quality_loss(&inst.cost)).abs() < 1e-9);
}
