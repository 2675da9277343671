//! Chaos benchmark: drives [`platform::MechanismService`] through a
//! scripted failure schedule and gates the resilience ladder's
//! invariants, emitting recovery telemetry as
//! `artifacts/bench_chaos.json`.
//!
//! The committed schedule (see [`SCHEDULE`]) combines every failure
//! family the ladder is built for: ~30% solver faults on the
//! warm-started LP path (`lp.resolve.fault`; the service never runs
//! the one-shot `LinearProgram::solve`, so `lp.solve.fault` would
//! inject nothing), ~15% pricing panics, a six-batch blackout of shard
//! [`BLACKOUT_SHARD`], an evict storm every six batches, and deadline
//! jitter every nine. The run is
//! deterministic — fault decisions are pure functions of the plan
//! seed — so the gates below are exact, not statistical:
//!
//! * **Privacy never degrades** — after every batch, every mechanism
//!   the service can serve from (cached optimum, stale entry,
//!   fallback) passes `privacy::verify` against the *full* Geo-I
//!   constraint set at its canonical ε. 100% of requests are served;
//!   only utility is allowed to vary.
//! * **The breaker recovers** — the blacked-out shard's breaker opens
//!   during the outage and re-closes within
//!   [`RECOVERY_BUDGET_BATCHES`] batches of the blackout ending; every
//!   breaker is closed again by the end of the run.
//! * **Faults off ⇒ bit-identical** — the same workload served under
//!   an empty fault plan produces exactly the same obfuscations as a
//!   service with no chaos configured at all: the ladder is inert
//!   unless faults are injected.
//! * **Every quality rung serves** — after the blackout recovers, a
//!   tier-ladder phase walks the per-batch deadline down the quality
//!   ladder (see [`LADDER`]) with cold ε budgets, and each of the three
//!   [`QualityTier`] rungs must serve at least one request (checked
//!   both per-request and via the `service.tier.*.served` counters).
//!   Everything the ladder leaves cached — clustered mechanisms
//!   included — must still pass the batch privacy audit.
//! * **The trajectory is pinned** — the served split of the chaos
//!   phase and the per-rung serves of the tier-ladder phase must equal
//!   the committed totals ([`PINNED_SERVED`], [`PINNED_SERVED_LOCAL`],
//!   [`PINNED_LADDER`], [`PINNED_LADDER_LOCAL`]). The run is
//!   deterministic on any core count, so any change to when the ladder
//!   engages moves these numbers and fails the gate.
//!
//! Flags: `--out <path>` (default `artifacts/bench_chaos.json`, or
//! `artifacts/bench_chaos_local.json` under `--local`) and `--local`,
//! which re-runs the committed schedule with the locally-relevant
//! solve mode enabled (`rho` = [`LOCAL_RHO`], protection radius
//! [`LOCAL_RADIUS`]): the same resilience gates must hold when every
//! solve is a restricted `O(k²)` LP and mechanisms are audited against
//! their neighborhoods' restricted Geo-I specs.

use std::time::{Duration, Instant};

use platform::{
    service, BreakerState, LocalConfig, MechanismService, Served, ServiceConfig, TierPolicy,
    WorkerId,
};
use roadnet::{generators, Location};
use vlp_bench::scenarios::{self, fleet_locations};
use vlp_core::QualityTier;
use vlp_obs::failpoint::FaultPlan;

/// Popular privacy budgets the fleet rotates through (per km).
const EPSILONS: [f64; 3] = [2.0, 5.0, 10.0];

/// Region shards the map is partitioned into.
const N_SHARDS: usize = 4;

/// Batches in the scripted run.
const BATCHES: usize = 30;

/// Vehicles per batch.
const FLEET: usize = 36;

/// The shard the schedule blacks out.
const BLACKOUT_SHARD: usize = 1;

/// First batch of the blackout (inclusive).
const BLACKOUT_FROM: u64 = 6;

/// First batch after the blackout (exclusive end).
const BLACKOUT_TO: u64 = 12;

/// Batches after the blackout ends within which the breaker must
/// re-close (documented in `OPERATIONS.md`: one half-open probe every
/// `breaker_cooldown` batches, each retried `max_attempts` times).
const RECOVERY_BUDGET_BATCHES: u64 = 6;

/// Seed of the fault plan (selects which ratio-mode keys fault).
const CHAOS_SEED: u64 = 0xC4A05;

/// Assignment radius ρ used under `--local`, km.
const LOCAL_RHO: f64 = 0.4;

/// Geo-I protection radius used under `--local`, km (the locally-
/// relevant mode needs a finite radius to bound its support balls).
const LOCAL_RADIUS: f64 = 0.5;

/// The committed failure schedule.
const SCHEDULE: &str = "lp.resolve.fault=ratio:0.3; cg.pricing.panic=ratio:0.15; \
     service.shard.blackout.1=window:6..12; service.cache.evict_storm=every:6; \
     service.deadline.jitter=every:9";

/// The tier-ladder schedule: per-batch deadline and the rung it must
/// select under [`service_config`]'s `TierPolicy` floors (exact ≥
/// 150ms, clustered ≥ 50ms, zero = never-wait Laplace).
const LADDER: [(Duration, QualityTier); QualityTier::ALL.len()] = [
    (Duration::from_secs(60), QualityTier::Exact),
    (Duration::from_millis(80), QualityTier::Clustered),
    (Duration::ZERO, QualityTier::Laplace),
];

/// Ladder cycles; deadline jitter hits at most one batch in nine, so
/// three cycles guarantee every rung at least two clean batches.
const LADDER_CYCLES: usize = 3;

/// Committed chaos-phase totals in full-shard mode: requests served
/// optimal / stale / fallback over the [`BATCHES`] scripted batches.
const PINNED_SERVED: [u64; 3] = [915, 90, 75];

/// Committed chaos-phase totals under `--local`, as [`PINNED_SERVED`].
const PINNED_SERVED_LOCAL: [u64; 3] = [934, 77, 69];

/// Committed tier-ladder serves at the rung each deadline targets,
/// exact / clustered / laplace, in full-shard mode.
const PINNED_LADDER: [u64; QualityTier::ALL.len()] = [72, 99, 108];

/// Committed tier-ladder serves under `--local`, as [`PINNED_LADDER`].
const PINNED_LADDER_LOCAL: [u64; QualityTier::ALL.len()] = [68, 99, 108];

fn service_config(chaos: FaultPlan, local: bool) -> ServiceConfig {
    ServiceConfig {
        n_shards: N_SHARDS,
        delta: 0.2,
        // Generous deadline: in calm batches cache misses are solved
        // and served optimally; only injected jitter collapses it.
        solve_deadline: Duration::from_secs(60),
        radius: if local { LOCAL_RADIUS } else { f64::INFINITY },
        local: local.then_some(LocalConfig { rho: LOCAL_RHO }),
        chaos,
        tiers: TierPolicy {
            exact_floor: Duration::from_millis(150),
            clustered_floor: Duration::from_millis(50),
            ..TierPolicy::default()
        },
        ..ServiceConfig::default()
    }
}

fn requests(locations: &[Location]) -> Vec<(WorkerId, Location, f64)> {
    (0..FLEET)
        .map(|w| {
            (
                WorkerId(w),
                locations[w % locations.len()],
                EPSILONS[w % EPSILONS.len()],
            )
        })
        .collect()
}

fn main() {
    let mut out: Option<String> = None;
    let mut local = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--out" => out = Some(argv.next().expect("--out needs a path")),
            "--local" => local = true,
            other => {
                eprintln!("unknown flag `{other}` (expected --out <path> or --local)");
                std::process::exit(2);
            }
        }
    }
    let out = out.unwrap_or_else(|| {
        if local {
            String::from("artifacts/bench_chaos_local.json")
        } else {
            String::from("artifacts/bench_chaos.json")
        }
    });

    // Injected pricing panics are expected and contained.
    scenarios::quiet_chaos_panics();

    use rand::SeedableRng;
    let obs = vlp_obs::global();
    let graph = generators::grid(4, 6, 0.4, true);
    let n_edges = graph.edge_count();

    // Control phase: an *empty* fault plan (even a seeded one) must be
    // indistinguishable from no chaos configuration at all, batch for
    // batch, bit for bit — the ladder is inert without faults.
    {
        let mut plain =
            MechanismService::new(graph.clone(), service_config(FaultPlan::default(), local));
        let mut armed = MechanismService::new(
            graph.clone(),
            service_config(FaultPlan::new(CHAOS_SEED), local),
        );
        let locations = fleet_locations(&plain, n_edges, FLEET.div_ceil(N_SHARDS));
        let reqs = requests(&locations);
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(20_260_807);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(20_260_807);
        for batch in 0..5 {
            let out_a = plain.obfuscate_batch(&reqs, &mut rng_a);
            let out_b = armed.obfuscate_batch(&reqs, &mut rng_b);
            assert_eq!(
                out_a, out_b,
                "faults-disabled batch {batch} must be bit-identical"
            );
        }
        println!("bench_chaos: control OK — empty fault plan is bit-identical over 5 batches");
    }

    // Chaos phase: the committed schedule, telemetry from a clean slate.
    obs.reset();
    obs.set_run_id(if local {
        "bench-chaos-local-v2"
    } else {
        "bench-chaos-v2"
    });
    let total = Instant::now();
    let chaos = FaultPlan::parse(SCHEDULE, CHAOS_SEED).expect("committed schedule parses");
    let mut svc = MechanismService::new(graph, service_config(chaos, local));
    let locations = fleet_locations(&svc, n_edges, FLEET.div_ceil(N_SHARDS));
    let reqs = requests(&locations);
    let mut rng = rand::rngs::StdRng::seed_from_u64(20_260_807);

    let (mut served_optimal, mut served_stale, mut served_fallback) = (0u64, 0u64, 0u64);
    let mut requests_total = 0u64;
    let mut audited = 0u64;
    for batch in 0..BATCHES {
        let served = svc.obfuscate_batch(&reqs, &mut rng);
        assert_eq!(
            served.len(),
            reqs.len(),
            "batch {batch}: every request must be served, faults or not"
        );
        requests_total += served.len() as u64;
        for o in &served {
            match o.served {
                Served::Optimal { .. } => served_optimal += 1,
                Served::Stale { .. } => served_stale += 1,
                Served::Fallback => served_fallback += 1,
            }
        }
        audited += scenarios::audit_live(&svc, &format!("batch {batch}"));
    }
    let elapsed = total.elapsed();

    // Breaker gate: the blacked-out shard opened during the outage and
    // re-closed within the recovery budget; everything ends closed.
    let breaker = obs.series(&service::metrics::breaker_state_series(BLACKOUT_SHARD));
    assert_eq!(breaker.len(), BATCHES, "one breaker sample per batch");
    let opened = breaker[BLACKOUT_FROM as usize..BLACKOUT_TO as usize]
        .iter()
        .any(|&v| v == BreakerState::Open.as_f64());
    assert!(
        opened,
        "the blackout must trip shard {BLACKOUT_SHARD}'s breaker"
    );
    let reclosed_at = (BLACKOUT_TO as usize..BATCHES)
        .find(|&b| breaker[b] == BreakerState::Closed.as_f64())
        .expect("breaker must re-close after the blackout");
    let recovery = reclosed_at as u64 - BLACKOUT_TO;
    assert!(
        recovery <= RECOVERY_BUDGET_BATCHES,
        "breaker re-closed {recovery} batches after the blackout \
         (budget: {RECOVERY_BUDGET_BATCHES})"
    );
    for s in 0..N_SHARDS {
        assert_eq!(
            svc.breaker_state(s),
            BreakerState::Closed,
            "shard {s}'s breaker must be closed at the end of the run"
        );
    }
    assert!(svc.health().ready, "the service must end the run ready");

    // The schedule actually exercised every fault family.
    for injected in [
        "chaos.injected.lp.resolve.fault",
        "chaos.injected.cg.pricing.panic",
        "chaos.injected.service.shard.blackout.1",
        "chaos.injected.service.cache.evict_storm",
        "chaos.injected.service.deadline.jitter",
    ] {
        assert!(obs.counter(injected) > 0, "{injected} never fired");
    }
    assert!(served_stale > 0, "the outage must exercise stale serving");
    assert!(
        obs.counter(service::metrics::BREAKER_SHED) > 0,
        "the open breaker must shed solves"
    );
    if local {
        assert!(
            obs.counter(service::metrics::LOCAL_SOLVES) > 0,
            "--local run must record locally-relevant solves"
        );
    }

    // Tier-ladder phase: with the blackout over and every breaker
    // closed again, walk the per-batch deadline down the quality
    // ladder. Every batch requests a cold ε budget (distinct per
    // batch, disjoint from EPSILONS) so serving cannot hit a warmer
    // tier's cache — the batch must come out at exactly the rung its
    // deadline selects. Chaos stays armed: scheduled jitter or an
    // exhausted retry budget can collapse individual batches to the
    // fallback, which is why the gate is "each rung served at least
    // once over the cycles", not "every request at the target rung".
    let mut ladder_served = [0u64; QualityTier::ALL.len()];
    for cycle in 0..LADDER_CYCLES {
        for (step, (deadline, want)) in LADDER.into_iter().enumerate() {
            let eps = 11.0 + (cycle * LADDER.len() + step) as f64 * 0.5;
            let ladder_reqs: Vec<(WorkerId, Location, f64)> = (0..FLEET)
                .map(|w| (WorkerId(w), locations[w % locations.len()], eps))
                .collect();
            let served = svc.obfuscate_batch_with_deadline(&ladder_reqs, deadline, &mut rng);
            assert_eq!(served.len(), ladder_reqs.len());
            requests_total += served.len() as u64;
            ladder_served[want as usize] += served.iter().filter(|o| o.tier == want).count() as u64;
        }
    }
    for (tier, served) in QualityTier::ALL.into_iter().zip(ladder_served) {
        assert!(
            served > 0,
            "the {} rung never served during the tier-ladder phase",
            tier.label()
        );
        assert!(
            obs.counter(service::metrics::tier_served_metric(tier)) > 0,
            "{} never counted",
            service::metrics::tier_served_metric(tier)
        );
        obs.push(
            &format!("bench_chaos.tier.{}.served", tier.label()),
            served as f64,
        );
    }
    // The ladder's leftovers — clustered mechanisms in the cache
    // included — pass the same privacy audit as every batch.
    audited += scenarios::audit_live(&svc, "after the tier ladder");

    let denom = (served_optimal + served_stale + served_fallback) as f64;
    obs.push("bench_chaos.optimal_share", served_optimal as f64 / denom);
    obs.push("bench_chaos.stale_share", served_stale as f64 / denom);
    obs.push("bench_chaos.fallback_share", served_fallback as f64 / denom);
    obs.push("bench_chaos.recovery_batches", recovery as f64);
    obs.incr("bench_chaos.mechanisms_audited", audited);
    obs.record_duration("bench_chaos.total", elapsed);

    let snapshot = obs.snapshot();
    if let Err(e) = vlp_obs::schema::validate_snapshot(&snapshot) {
        eprintln!("bench_chaos: FAIL — invalid snapshot: {e}");
        std::process::exit(1);
    }
    vlp_bench::artifact::write(&out, &snapshot);

    let mode = if local {
        "locally-relevant"
    } else {
        "full-shard"
    };
    // Trajectory gate, checked after the artifact is written so a
    // failing run still leaves its telemetry behind.
    let served = [served_optimal, served_stale, served_fallback];
    let (pinned, pinned_ladder) = if local {
        (PINNED_SERVED_LOCAL, PINNED_LADDER_LOCAL)
    } else {
        (PINNED_SERVED, PINNED_LADDER)
    };
    if served != pinned || ladder_served != pinned_ladder {
        eprintln!(
            "bench_chaos: FAIL ({mode}) — served optimal/stale/fallback {served:?} and ladder \
             {ladder_served:?} differ from the committed {pinned:?} and {pinned_ladder:?}"
        );
        std::process::exit(1);
    }
    println!(
        "bench_chaos: OK ({mode}) — {requests_total} requests over {BATCHES} batches under \
         `{SCHEDULE}`; served {served_optimal} optimal / {served_stale} stale / \
         {served_fallback} fallback, {audited} mechanism audits all ε-valid, breaker re-closed \
         {recovery} batch(es) after the blackout; ladder served {} {} → {out}",
        ladder_served.map(|n| n.to_string()).join("/"),
        QualityTier::ALL.map(QualityTier::label).join("/"),
    );
}
