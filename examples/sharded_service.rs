//! Sharded serving in one sitting: partition a town into region
//! shards, serve a fleet's obfuscation requests under a solve
//! deadline, and feed the obfuscated reports into per-shard task
//! assignment.
//!
//! Run with `cargo run --release --example sharded_service`.

use std::time::Duration;

use platform::{MechanismService, Served, ServiceConfig, WorkerId};
use rand::SeedableRng;
use roadnet::{generators, EdgeId, Location};

fn main() {
    // A 3×4 arterial grid, split into two region shards.
    let graph = generators::grid(3, 4, 0.4, true);
    let n_edges = graph.edge_count();
    let mut svc = MechanismService::new(
        graph,
        ServiceConfig {
            n_shards: 2,
            delta: 0.2,
            // Never wait for a solve: cold keys are served from the
            // graph-Laplace fallback, warm keys from the cached
            // optimum. ε is identical either way.
            solve_deadline: Duration::ZERO,
            ..ServiceConfig::default()
        },
    );
    println!(
        "partitioned into {} shards ({} cross-boundary edges dropped)",
        svc.shard_count(),
        svc.partition().cross_edges().len()
    );

    // A four-vehicle fleet: one location per shard, two budgets.
    let mut locations = Vec::new();
    for e in 0..n_edges {
        let loc = Location::new(EdgeId(e), 0.1);
        if let Some((s, _)) = svc.partition().to_local(loc) {
            if locations.iter().all(|&(shard, _)| shard != s) {
                locations.push((s, loc));
            }
        }
    }
    let requests: Vec<(WorkerId, Location, f64)> = locations
        .iter()
        .enumerate()
        .flat_map(|(i, &(_, loc))| {
            [
                (WorkerId(2 * i), loc, 5.0),
                (WorkerId(2 * i + 1), loc, 10.0),
            ]
        })
        .collect();

    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for round in ["cold", "warm"] {
        let served = svc.obfuscate_batch(&requests, &mut rng);
        let fallback = served
            .iter()
            .filter(|o| o.served == Served::Fallback)
            .count();
        println!(
            "{round} batch: {} requests → {fallback} fallback-served, {} mechanisms cached",
            served.len(),
            svc.cached_mechanisms()
        );
        for o in &served {
            println!(
                "  worker {:>2} → shard {} interval {:>2} at ε={} ({:?})",
                o.worker.0, o.shard, o.interval, o.epsilon, o.served
            );
        }
        // The obfuscated reports drive Hungarian task assignment,
        // one snapshot per shard.
        for (s, _) in &locations {
            svc.publish_task(*s, 0);
        }
        for (s, outcome) in svc.snapshot_batch(&served) {
            println!(
                "  shard {s}: {} tasks assigned from obfuscated reports",
                outcome.assignments.len()
            );
        }
    }
}
