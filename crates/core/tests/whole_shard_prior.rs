//! A prior update on a whole-shard neighborhood keeps the dense
//! instance and rebuilds only its costs. This binary holds one test, so
//! nothing else moves the process-global `roadnet.dijkstra.runs`
//! counter and it can be compared exactly.

use roadnet::generators;
use roadnet::shortest_path::metrics::DIJKSTRA_RUNS;
use vlp_core::{CgOptions, LocalShard, Prior, VlpInstance};

#[test]
fn prior_update_keeps_the_dense_instance_and_rebuilds_only_costs() {
    let graph = generators::grid(2, 3, 0.5, true);
    let (delta, radius, epsilon) = (0.25, 0.6, 2.0);
    let opts = CgOptions::default();
    // The service's full mode, and the lazily backed ρ = ∞ shard once
    // its dense instance exists.
    let whole = LocalShard::whole_shard(VlpInstance::uniform(graph.clone(), delta), radius);
    let lazy = LocalShard::uniform(graph.clone(), delta, f64::INFINITY, radius);
    let _ = lazy.fallback_neighborhood(0, epsilon);
    let k = whole.len();
    let weights: Vec<f64> = (0..k).map(|i| 1.0 + (i % 4) as f64).collect();
    let f_p = Prior::from_weights(&weights).unwrap();
    let fresh = LocalShard::whole_shard(
        VlpInstance::new(graph, delta, f_p.clone(), Prior::uniform(k)),
        radius,
    );
    let want = fresh.solve_neighborhood(0, epsilon, &opts).unwrap();

    let obs = vlp_obs::global();
    for (name, mut shard) in [("whole_shard", whole), ("uniform(rho = inf)", lazy)] {
        let runs = obs.counter(DIJKSTRA_RUNS);
        shard.set_worker_prior(f_p.clone());
        let dense = shard
            .dense_instance()
            .expect("the prior update dropped the dense instance");
        assert_eq!(
            obs.counter(DIJKSTRA_RUNS),
            runs,
            "{name}: the prior update rebuilt distances"
        );
        assert_eq!(
            dense.cost,
            fresh.dense_instance().unwrap().cost,
            "{name}: cost matrix"
        );
        assert_eq!(dense.f_p, f_p, "{name}: worker prior");

        let got = shard.solve_neighborhood(0, epsilon, &opts).unwrap();
        assert_eq!(got.mechanism, want.mechanism, "{name}: exact solve");
        assert_eq!(
            got.quality_loss.to_bits(),
            want.quality_loss.to_bits(),
            "{name}: quality loss"
        );
        assert_eq!(
            shard.fallback_neighborhood(0, epsilon),
            fresh.fallback_neighborhood(0, epsilon),
            "{name}: fallback"
        );
    }
}
