//! Service-layer benchmark: drives [`platform::MechanismService`] with
//! a repeated-ε, multi-region obfuscation workload and emits the
//! telemetry snapshot as `artifacts/bench_service.json`.
//!
//! The workload is the serving pattern the sharded layer is built for:
//! a fleet spread over every region shard, each vehicle requesting one
//! of a few popular ε budgets, batch after batch. The first batch is
//! all cache misses (served from the graph-Laplace fallback under a
//! zero deadline, so the run is deterministic); every later batch hits
//! the `(shard, ε-bucket)` LRU cache.
//!
//! The binary enforces the service acceptance gates:
//!
//! * cache hit rate ≥ [`HIT_RATE_FLOOR`] across the workload;
//! * every served mechanism — cached optimum and fallback alike —
//!   passes `privacy::verify` against the *full* Geo-I constraint set
//!   at its canonical ε;
//! * the quality ladder is ordered: solving shard 0 at every rung,
//!   ETDD satisfies exact ≤ clustered ≤ graph-Laplace, and
//!   every rung's mechanism passes the full-spec privacy audit. The
//!   measured per-tier ETDD lands in the artifact as
//!   `bench_service.tier.etdd.<tier>` (plus the ratio against the
//!   exact optimum as `bench_service.tier.etdd_vs_optimal.<tier>`).
//!
//! Flags: `--out <path>` (default `artifacts/bench_service.json`),
//! `--batches <n>`, `--fleet <n>`.

use std::time::{Duration, Instant};

use platform::{service, MechanismService, Served, ServiceConfig, WorkerId};
use roadnet::{generators, Location};
use vlp_bench::scenarios::fleet_locations;
use vlp_core::{privacy, CgOptions, QualityTier};

/// Popular privacy budgets the fleet rotates through (per km).
const EPSILONS: [f64; 3] = [2.0, 5.0, 10.0];

/// Region shards the map is partitioned into.
const N_SHARDS: usize = 4;

/// Minimum acceptable cache hit rate on the repeated-ε workload.
const HIT_RATE_FLOOR: f64 = 0.90;

/// Super-interval width (km) used for the clustered rung of the tier
/// sweep — the `TierPolicy` default.
const CLUSTER_WIDTH: f64 = 0.3;

/// Slack for the tier ETDD ordering gate (the rungs are distinct
/// relaxations; ties up to float noise are legal).
const TIER_ORDER_SLACK: f64 = 1e-9;

fn main() {
    let mut out = String::from("artifacts/bench_service.json");
    let mut batches = 40usize;
    let mut fleet = 60usize;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--out" => out = argv.next().expect("--out needs a path"),
            "--batches" => {
                batches = argv
                    .next()
                    .expect("--batches needs a count")
                    .parse()
                    .expect("--batches needs an integer")
            }
            "--fleet" => {
                fleet = argv
                    .next()
                    .expect("--fleet needs a count")
                    .parse()
                    .expect("--fleet needs an integer")
            }
            other => {
                eprintln!(
                    "unknown flag `{other}` (expected --out <path>, --batches <n>, --fleet <n>)"
                );
                std::process::exit(2);
            }
        }
    }

    let obs = vlp_obs::global();
    obs.reset();
    obs.set_run_id("bench-service-v2");
    let total = Instant::now();

    // A city-like map: large enough that each of the four shards keeps
    // a real road structure after banding.
    let graph = generators::grid(4, 6, 0.4, true);
    let n_edges = graph.edge_count();
    let mut svc = MechanismService::new(
        graph,
        ServiceConfig {
            n_shards: N_SHARDS,
            delta: 0.2,
            // Zero deadline keeps the run deterministic: the cold batch
            // is served entirely from the fallback while the solves
            // land in the cache before the call returns.
            solve_deadline: Duration::ZERO,
            ..ServiceConfig::default()
        },
    );
    let locations = fleet_locations(&svc, n_edges, fleet.div_ceil(N_SHARDS));

    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(20_260_807);
    let mut served_optimal = 0u64;
    let mut served_fallback = 0u64;
    let mut requests_total = 0u64;
    for _batch in 0..batches {
        let reqs: Vec<(WorkerId, Location, f64)> = (0..fleet)
            .map(|w| {
                (
                    WorkerId(w),
                    locations[w % locations.len()],
                    EPSILONS[w % EPSILONS.len()],
                )
            })
            .collect();
        requests_total += reqs.len() as u64;
        for o in svc.obfuscate_batch(&reqs, &mut rng) {
            match o.served {
                Served::Optimal { .. } => served_optimal += 1,
                // This workload injects no faults, so stale serving
                // never engages; count it defensively.
                Served::Stale { .. } | Served::Fallback => served_fallback += 1,
            }
        }
    }
    let elapsed = total.elapsed();

    // Audit every mechanism the workload served: the cached optimum
    // and the fallback of each (shard, ε) against the full (unreduced)
    // Geo-I constraint set at the canonical ε.
    let mut audited = 0usize;
    for s in 0..svc.shard_count() {
        let inst = svc.shard_instance(s);
        for &eps in &EPSILONS {
            let canonical = svc.canonical_epsilon(eps);
            let spec = vlp_core::PrivacySpec::full(&inst.aux, canonical, f64::INFINITY);
            let cached = svc
                .cached_mechanism(s, eps)
                .expect("workload solved every (shard, ε) key");
            assert!(
                privacy::verify(&cached, &spec, 1e-6),
                "cached mechanism for shard {s} at ε={canonical} violates Geo-I"
            );
            let fallback = svc
                .fallback_mechanism(s, eps)
                .expect("cold batch built every fallback");
            assert!(
                privacy::verify(&fallback, &spec, 1e-6),
                "fallback for shard {s} at ε={canonical} violates Geo-I"
            );
            audited += 2;
        }
    }

    // Tier quality sweep: solve shard 0 at every rung of the quality
    // ladder, audit each rung against the full (unreduced) Geo-I spec,
    // and gate the ETDD ordering exact ≤ clustered ≤ graph-Laplace.
    // The clustered tier trades optimality for solve time, never
    // privacy — so the audit is at the ladder's canonical ε for every
    // rung.
    let tier_eps = svc.canonical_epsilon(EPSILONS[1]);
    let inst = svc.shard_instance(0);
    let opts = CgOptions::default();
    let exact = inst
        .solve(tier_eps, f64::INFINITY, &opts)
        .expect("exact rung solves");
    let clustered = inst
        .solve_clustered(tier_eps, f64::INFINITY, CLUSTER_WIDTH, &opts)
        .expect("clustered rung solves");
    let laplace = inst.fallback(tier_eps);
    let tier_etdd = [
        exact.quality_loss,
        clustered.quality_loss,
        laplace.quality_loss(&inst.cost),
    ];
    let full_spec = vlp_core::PrivacySpec::full(&inst.aux, tier_eps, f64::INFINITY);
    for (tier, mech) in
        QualityTier::ALL
            .into_iter()
            .zip([&exact.mechanism, &clustered.mechanism, &laplace])
    {
        assert!(
            privacy::verify(mech, &full_spec, 1e-6),
            "{} rung violates full Geo-I at ε={tier_eps}",
            tier.label()
        );
        audited += 1;
    }
    for (pair, losses) in QualityTier::ALL.windows(2).zip(tier_etdd.windows(2)) {
        assert!(
            losses[0] <= losses[1] + TIER_ORDER_SLACK,
            "tier ETDD ordering violated: {} = {} > {} = {}",
            pair[0].label(),
            losses[0],
            pair[1].label(),
            losses[1]
        );
    }
    for (tier, loss) in QualityTier::ALL.into_iter().zip(tier_etdd) {
        obs.push(&format!("bench_service.tier.etdd.{}", tier.label()), loss);
        obs.push(
            &format!("bench_service.tier.etdd_vs_optimal.{}", tier.label()),
            loss / exact.quality_loss,
        );
    }

    let hits = obs.counter(service::metrics::CACHE_HITS);
    let misses = obs.counter(service::metrics::CACHE_MISSES);
    let hit_rate = hits as f64 / (hits + misses) as f64;
    let fallback_share = served_fallback as f64 / (served_optimal + served_fallback) as f64;
    let throughput = requests_total as f64 / elapsed.as_secs_f64();
    obs.push("bench_service.hit_rate", hit_rate);
    obs.push("bench_service.fallback_share", fallback_share);
    obs.push("bench_service.throughput_rps", throughput);
    obs.incr("bench_service.mechanisms_audited", audited as u64);
    obs.record_duration("bench_service.total", elapsed);

    let snapshot = obs.snapshot();
    if let Err(e) = vlp_obs::schema::validate_snapshot(&snapshot) {
        eprintln!("bench_service: FAIL — invalid snapshot: {e}");
        std::process::exit(1);
    }
    vlp_bench::artifact::write(&out, &snapshot);

    if hit_rate < HIT_RATE_FLOOR {
        eprintln!(
            "bench_service: FAIL — cache hit rate {:.1}% below the {:.0}% floor",
            hit_rate * 100.0,
            HIT_RATE_FLOOR * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "bench_service: OK — {requests_total} requests over {batches} batches × {N_SHARDS} shards, \
         {:.1}% cache hits, {:.1}% fallback-served, {:.0} req/s, {audited} mechanisms audited; \
         tier ETDD exact {:.4} ≤ clustered {:.4} ≤ laplace {:.4} → {out}",
        hit_rate * 100.0,
        fallback_share * 100.0,
        throughput,
        tier_etdd[0],
        tier_etdd[1],
        tier_etdd[2]
    );
}
