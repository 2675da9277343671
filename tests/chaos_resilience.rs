//! Property-based chaos tests: for *arbitrary* deterministic fault
//! schedules, the mechanism service must keep every servable mechanism
//! ε-Geo-I valid (the resilience ladder trades utility, never
//! privacy), and an empty schedule must leave the service bit-identical
//! to one with no chaos configured at all.

use std::collections::HashMap;
use std::time::Duration;

use platform::{MechanismService, ResilienceConfig, ServiceConfig, WorkerId};
use proptest::prelude::*;
use rand::SeedableRng;
use roadnet::{generators, Location};
use vlp_core::privacy;
use vlp_obs::failpoint::{site, FaultMode, FaultPlan};

fn service(chaos: FaultPlan) -> MechanismService {
    MechanismService::new(
        generators::grid(3, 4, 0.4, true),
        ServiceConfig {
            n_shards: 2,
            delta: 0.2,
            solve_deadline: Duration::from_secs(30),
            resilience: ResilienceConfig {
                // Aggressive thresholds so short runs still exercise
                // breaker trips and half-open probes.
                breaker_threshold: 2,
                breaker_cooldown: 1,
                ..ResilienceConfig::default()
            },
            chaos,
            ..ServiceConfig::default()
        },
    )
}

/// One request per (shard, ε) pair, on the first edge mapping into
/// each shard.
fn requests(svc: &MechanismService, epsilons: &[f64]) -> Vec<(WorkerId, Location, f64)> {
    let g = generators::grid(3, 4, 0.4, true);
    let mut per_shard: HashMap<usize, Location> = HashMap::new();
    for e in 0..g.edge_count() {
        let loc = Location::new(roadnet::EdgeId(e), 0.1);
        if let Some((s, _)) = svc.partition().to_local(loc) {
            per_shard.entry(s).or_insert(loc);
        }
    }
    let mut out = Vec::new();
    for s in 0..svc.shard_count() {
        for (i, &eps) in epsilons.iter().enumerate() {
            out.push((WorkerId(s * epsilons.len() + i), per_shard[&s], eps));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the schedule injects — solver faults on both LP paths,
    /// pricing panics, shard blackouts, evict storms, deadline jitter —
    /// every request is served and everything the service can serve
    /// from satisfies the *full* Geo-I constraint set at its canonical
    /// ε, batch after batch.
    #[test]
    fn arbitrary_fault_schedules_preserve_privacy(
        plan_seed in 0u64..1_000,
        p_solve in 0.0f64..0.8,
        p_resolve in 0.0f64..0.8,
        p_panic in 0.0f64..0.5,
        blackout_shard in 0u64..2,
        blackout_from in 0u64..3,
        blackout_len in 0u64..4,
        storm_every in 0u64..4,
        jitter_every in 0u64..4,
    ) {
        vlp_bench::scenarios::quiet_chaos_panics();
        let plan = FaultPlan::new(plan_seed)
            .with(site::LP_SOLVE, FaultMode::Ratio(p_solve))
            .with(site::LP_RESOLVE, FaultMode::Ratio(p_resolve))
            .with(site::CG_PRICING_PANIC, FaultMode::Ratio(p_panic))
            .with(
                site::shard_blackout(blackout_shard as usize),
                FaultMode::Window { from: blackout_from, to: blackout_from + blackout_len },
            )
            .with(site::SERVICE_EVICT_STORM, FaultMode::Every(storm_every))
            .with(site::SERVICE_DEADLINE_JITTER, FaultMode::Every(jitter_every));
        let mut svc = service(plan);
        let reqs = requests(&svc, &[2.0, 5.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(plan_seed ^ 0xA5A5);
        for batch in 0..4 {
            let served = svc.obfuscate_batch(&reqs, &mut rng);
            prop_assert_eq!(
                served.len(), reqs.len(),
                "batch {} must serve every request", batch
            );
            for o in &served {
                prop_assert!(o.epsilon <= 5.0 + 1e-12, "canonical ε never exceeds requested");
            }
            for (s, eps, mechanism) in svc.live_mechanisms() {
                let inst = svc.shard_instance(s);
                let spec = vlp_core::PrivacySpec::full(&inst.aux, eps, f64::INFINITY);
                prop_assert!(
                    privacy::verify(&mechanism, &spec, 1e-6),
                    "batch {}: shard {} mechanism at ε={} violates Geo-I", batch, s, eps
                );
            }
        }
    }

    /// An empty fault plan — whatever its seed — leaves the ladder
    /// inert: outputs are bit-identical to a service with no chaos
    /// configured, for any workload rng seed.
    #[test]
    fn empty_fault_plans_are_bit_identical_to_no_plan(
        chaos_seed in any::<u64>(),
        rng_seed in 0u64..1_000,
    ) {
        let mut plain = service(FaultPlan::default());
        let mut armed = service(FaultPlan::new(chaos_seed));
        let reqs = requests(&plain, &[2.0, 5.0]);
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(rng_seed);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(rng_seed);
        for _ in 0..2 {
            let out_a = plain.obfuscate_batch(&reqs, &mut rng_a);
            let out_b = armed.obfuscate_batch(&reqs, &mut rng_b);
            prop_assert_eq!(&out_a, &out_b);
        }
    }
}
