//! Queueing-layer contract tests for the always-on serving core:
//! bounded-queue backpressure rejects instead of blocking, shutdown
//! drains deterministically, a cache-hit workload never enters a solve
//! queue, and an empty fault plan is bit-identical to no plan on the
//! open-loop path.

use std::time::{Duration, Instant};

use platform::{MechanismService, ResilienceConfig, Response, Served, ServiceConfig, WorkerId};
use proptest::prelude::*;
use rand::SeedableRng;
use roadnet::{generators, EdgeId, Location};
use vlp_obs::failpoint::{site, FaultMode, FaultPlan};

/// One request location per shard, on the first edge mapping into it.
fn shard_locations(svc: &MechanismService) -> Vec<Location> {
    let g = generators::grid(3, 4, 0.4, true);
    let mut locs = vec![None; svc.shard_count()];
    for e in 0..g.edge_count() {
        let loc = Location::new(EdgeId(e), 0.1);
        if let Some((s, _)) = svc.partition().to_local(loc) {
            locs[s].get_or_insert(loc);
        }
    }
    locs.into_iter()
        .enumerate()
        .map(|(s, l)| l.unwrap_or_else(|| panic!("no location for shard {s}")))
        .collect()
}

fn service(config: ServiceConfig) -> MechanismService {
    MechanismService::new(generators::grid(3, 4, 0.4, true), config)
}

/// With a single worker wedged on injected solve failures (long
/// backoffs) and a one-slot queue, cold submissions past the queue
/// bound come back `Rejected` immediately — the caller is never parked
/// on a full queue.
#[test]
fn full_queue_rejects_cold_submissions_without_blocking() {
    let svc = service(ServiceConfig {
        n_shards: 2,
        delta: 0.2,
        queue_capacity: 1,
        solver_threads: 1,
        solve_deadline: Duration::ZERO,
        resilience: ResilienceConfig {
            max_attempts: 3,
            // Wide margins so the non-blocking assertion below holds
            // even under ThreadSanitizer's ~10× slowdown in CI.
            backoff_base: Duration::from_millis(200),
            backoff_cap: Duration::from_millis(400),
            // Keep the breaker out of this test: admission decisions
            // here must come from the queue bound alone.
            breaker_threshold: u32::MAX,
            ..ResilienceConfig::default()
        },
        // Every attempt panics in column-generation pricing, so each
        // admitted job fails all its attempts and waits out the
        // backoffs between them. (A faulted master resolve would not
        // do: column generation ends at the seed iterate and succeeds.)
        chaos: FaultPlan::new(11).with(site::CG_PRICING_PANIC, FaultMode::Always),
        ..ServiceConfig::default()
    });
    let loc = shard_locations(&svc)[0];

    // Four distinct ε buckets on one shard: at most two can be
    // admitted (one on the worker, one queued); the rest must shed.
    // They are submitted from a helper thread, so a submit parked on
    // the full queue fails the watchdog below instead of hanging the
    // test (it would hold the shard table the worker needs).
    let (done, finished) = std::sync::mpsc::channel();
    let submitter = std::thread::spawn(move || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let t = Instant::now();
        let responses: Vec<Response> = [2.0, 5.0, 10.0, 20.0]
            .iter()
            .enumerate()
            .map(|(i, &eps)| svc.submit(WorkerId(i), loc, eps, &mut rng))
            .collect();
        done.send(t.elapsed()).expect("the test thread is waiting");
        (svc, responses)
    });
    let elapsed = finished
        .recv_timeout(Duration::from_secs(10))
        .expect("a submit blocked on the full queue");
    let (mut svc, responses) = submitter.join().expect("submitter panicked");

    let rejected = responses
        .iter()
        .filter(|r| matches!(r, Response::Rejected { shard: 0, .. }))
        .count();
    let served = responses
        .iter()
        .filter(|r| matches!(r.served(), Some(o) if o.served == Served::Fallback))
        .count();
    assert!(
        rejected >= 2,
        "one-slot queue + one worker admits at most two of four cold keys, \
         got {responses:?}"
    );
    assert_eq!(served + rejected, 4, "every response is served or rejected");
    // A blocking send would wait out the worker's ≥600ms of backoff
    // per job; explicit backpressure returns well inside that even on
    // a sanitizer-slowed runner.
    assert!(
        elapsed < Duration::from_millis(500),
        "submissions took {elapsed:?} — a full queue must reject, not block"
    );
    svc.shutdown();
    assert_eq!(
        svc.cached_mechanisms(),
        0,
        "every solve attempt must fail under the injected pricing panics"
    );
}

/// Shutdown reports one drain slot per shard, leaves every admitted
/// key solved into the cache, and is idempotent.
#[test]
fn shutdown_drains_every_admitted_key_deterministically() {
    let mut svc = service(ServiceConfig {
        n_shards: 2,
        delta: 0.2,
        solve_deadline: Duration::ZERO,
        ..ServiceConfig::default()
    });
    let locs = shard_locations(&svc);
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let epsilons = [2.0, 5.0, 10.0];
    for (s, &loc) in locs.iter().enumerate() {
        for (i, &eps) in epsilons.iter().enumerate() {
            let r = svc.submit(WorkerId(s * epsilons.len() + i), loc, eps, &mut rng);
            assert!(r.served().is_some(), "cold admissions serve the fallback");
        }
    }

    let report = svc.shutdown();
    assert_eq!(
        report.drained.len(),
        svc.shard_count(),
        "the drain report covers every shard in order"
    );
    for (s, &loc) in locs.iter().enumerate() {
        for &eps in &epsilons {
            assert!(
                svc.cached_mechanism(s, eps).is_some(),
                "admitted key (shard {s}, ε={eps}) must be solved during the drain"
            );
            let r = svc.submit(WorkerId(99), loc, eps, &mut rng);
            assert!(
                matches!(r.served(), Some(o) if matches!(o.served, Served::Optimal { .. })),
                "cache hits keep serving after shutdown"
            );
        }
    }
    // Cold keys can no longer be admitted.
    assert!(matches!(
        svc.submit(WorkerId(99), locs[0], 17.25, &mut rng),
        Response::Rejected { shard: 0, .. }
    ));
    assert_eq!(svc.shutdown().total(), 0, "second shutdown drains nothing");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// After warming every key, an arbitrary hit-only workload is
    /// served entirely on the caller path: every response is a cached
    /// optimal mechanism, which can only happen if no request ever
    /// reached the admission path (and hence no solve queue).
    #[test]
    fn hit_only_workloads_never_reach_the_admission_path(
        seed in 0u64..1_000,
        picks in proptest::collection::vec((0usize..2, 0usize..3), 1..60),
    ) {
        let mut svc = service(ServiceConfig {
            n_shards: 2,
            delta: 0.2,
            solve_deadline: Duration::ZERO,
            ..ServiceConfig::default()
        });
        let locs = shard_locations(&svc);
        let epsilons = [2.0, 5.0, 10.0];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for (s, &loc) in locs.iter().enumerate() {
            for &eps in &epsilons {
                svc.submit(WorkerId(s), loc, eps, &mut rng);
            }
        }
        svc.quiesce();
        for (i, &(s, e)) in picks.iter().enumerate() {
            let r = svc.submit(WorkerId(i), locs[s], epsilons[e], &mut rng);
            prop_assert!(
                matches!(
                    r.served(),
                    Some(o) if o.served == Served::Optimal { cached: true }
                ),
                "warm submission {i} was not a pure cache hit: {r:?}"
            );
        }
        svc.shutdown();
    }

    /// A seeded-but-empty fault plan leaves the open-loop path
    /// bit-identical to the default (no-chaos) configuration: same
    /// responses, same sampled locations, request for request.
    #[test]
    fn empty_fault_plan_is_bit_identical_on_the_open_loop_path(
        seed in 0u64..1_000,
        picks in proptest::collection::vec((0usize..2, 0usize..3), 1..40),
    ) {
        let run = |chaos: FaultPlan| {
            let mut svc = service(ServiceConfig {
                n_shards: 2,
                delta: 0.2,
                solve_deadline: Duration::ZERO,
                chaos,
                ..ServiceConfig::default()
            });
            let locs = shard_locations(&svc);
            let epsilons = [2.0, 5.0, 10.0];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut responses = Vec::new();
            for (s, &loc) in locs.iter().enumerate() {
                for &eps in &epsilons {
                    responses.push(svc.submit(WorkerId(s), loc, eps, &mut rng));
                }
            }
            svc.quiesce();
            svc.tick();
            for (i, &(s, e)) in picks.iter().enumerate() {
                responses.push(svc.submit(WorkerId(i), locs[s], epsilons[e], &mut rng));
            }
            svc.shutdown();
            responses
        };
        let without = run(FaultPlan::default());
        let with_empty = run(FaultPlan::new(0xDEAD_BEEF));
        prop_assert_eq!(without, with_empty);
    }
}
