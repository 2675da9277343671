//! Open-loop load benchmark for the always-on serving core: drives
//! [`platform::MechanismService`]'s caller-path `submit` API with a
//! Zipf-skewed multi-region workload at a configured arrival rate and
//! emits the telemetry snapshot as `artifacts/bench_load.json`.
//!
//! The generator is *open-loop*: request `i` has a scheduled arrival
//! time `start + i / rate`, and latency is measured from that schedule,
//! not from the moment the generator got around to submitting — so a
//! slow service inflates the recorded tail instead of silently slowing
//! the generator down (no coordinated omission).
//!
//! The run has two phases:
//!
//! 1. **Warm** — one submission per `(shard, ε-bucket)` key. Each is a
//!    cold miss, served from the graph-Laplace fallback while the
//!    optimal solve runs on the shard's worker; `quiesce()` then waits
//!    for every solve to land in the cache.
//! 2. **Measured** — `--requests` Zipf-skewed submissions at `--rate`
//!    req/s. Every key is warm, so this is the pure cache-hit path:
//!    a per-shard table lock, an `Arc` bump, and a mechanism sample on
//!    the caller thread — no solve queue involved.
//!
//! CI gates on structure and determinism, **never on wall-clock
//! speed** (the bench_smoke philosophy): schema validity, same-seed
//! bit-identity of all non-timing/non-wall fields (the `cg.*` series
//! compared as sorted lists), a zero
//! privacy-audit failure count over every live mechanism, the
//! committed shed budget ([`SHED_BUDGET`]), and the invariant that the
//! measured (hit-only) phase enqueues nothing. Latency percentiles and
//! throughput are recorded under `bench_load.wall.*` series, which the
//! determinism projection excludes.
//!
//! Flags:
//!
//! * `--out <path>` — artifact destination (default
//!   `artifacts/bench_load.json`);
//! * `--check` — run the scenario twice and fail unless all
//!   non-timing, non-wall fields are identical across runs;
//! * `--rate <req/s>` — offered arrival rate (default 60000);
//! * `--requests <n>` — measured-phase request count (default 200000).

use std::time::{Duration, Instant};

use platform::{service, MechanismService, Response, Served, ServiceConfig, WorkerId};
use rand::{RngExt, SeedableRng};
use roadnet::{generators, Location};
use serde_json::Value;
use vlp_bench::artifact;
use vlp_bench::scenarios::{self, pace_until, percentile, shard_locations, zipf_cdf, zipf_rank};

/// Seed shared by every stochastic component of the scenario.
const SEED: u64 = 20_260_807;

/// Stable run identifier: bump the suffix when the scenario changes.
const RUN_ID: &str = "bench-load-v1";

/// Popular privacy budgets the fleet rotates through (per km).
const EPSILONS: [f64; 3] = [2.0, 5.0, 10.0];

/// Region shards the map is partitioned into.
const N_SHARDS: usize = 4;

/// Distinct request locations per shard in the measured phase. With
/// [`EPSILONS`], the key universe is `N_SHARDS × LOCS_PER_SHARD × 3`
/// archetypes, all mapping onto the 12 warmed `(shard, ε)` buckets.
const LOCS_PER_SHARD: usize = 8;

/// Zipf popularity exponent for the archetype distribution.
const ZIPF_EXPONENT: f64 = 1.1;

/// Committed budget for `service.shed.rejected` across the run. The
/// workload is admission-friendly by construction (12 cold keys
/// against a deep queue, then hits only), so any rejection means the
/// admission path regressed.
const SHED_BUDGET: u64 = 0;

/// Runs the two-phase load scenario against a freshly reset global
/// registry and returns the resulting telemetry snapshot.
fn run_load(rate: f64, requests: usize) -> Value {
    let obs = vlp_obs::global();
    obs.reset();
    obs.set_run_id(RUN_ID);
    let total = Instant::now();

    let graph = generators::grid(4, 6, 0.4, true);
    let n_edges = graph.edge_count();
    let mut svc = MechanismService::new(
        graph,
        ServiceConfig {
            n_shards: N_SHARDS,
            delta: 0.2,
            // The open-loop path never waits on a deadline; zero keeps
            // the config honest about that.
            solve_deadline: Duration::ZERO,
            ..ServiceConfig::default()
        },
    );
    let by_shard = shard_locations(&svc, n_edges, LOCS_PER_SHARD);
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);

    // Phase 1 — warm every (shard, ε-bucket) key: one cold submission
    // per key (distinct keys, so nothing coalesces and the enqueue
    // count is exactly the key count), then wait for the solves.
    let mut warmed = 0u64;
    for (s, locs) in by_shard.iter().enumerate() {
        for &eps in &EPSILONS {
            match svc.submit(WorkerId(s), locs[0], eps, &mut rng) {
                Response::Served(o) => assert_eq!(
                    o.served,
                    Served::Fallback,
                    "cold submission for shard {s} at ε={eps} must serve the fallback"
                ),
                other => panic!("cold submission was not served: {other:?}"),
            }
            warmed += 1;
        }
    }
    svc.quiesce();
    svc.tick(); // flush warm-phase stats; push depth/breaker series
    let enqueued_warm = obs.counter(service::metrics::QUEUE_ENQUEUED);
    assert_eq!(
        enqueued_warm, warmed,
        "each distinct cold key must enqueue exactly one solve"
    );

    // Zipf popularity over the archetype universe, decoupled from the
    // construction order by a seeded shuffle (Fisher–Yates).
    let mut archetypes: Vec<(Location, f64)> = Vec::new();
    for locs in &by_shard {
        for &loc in locs {
            for &eps in &EPSILONS {
                archetypes.push((loc, eps));
            }
        }
    }
    for i in (1..archetypes.len()).rev() {
        let j = rng.random_range(0..=i);
        archetypes.swap(i, j);
    }
    let cdf = zipf_cdf(archetypes.len(), ZIPF_EXPONENT);

    // Phase 2 — the measured open-loop phase. Request `i` is due at
    // `start + i/rate`; the generator spins until the schedule says go
    // (sleeping when far ahead), and latency runs from the *schedule*.
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut latencies: Vec<Duration> = Vec::with_capacity(requests);
    let mut served_hits = 0u64;
    let mut served_degraded = 0u64;
    let mut rejected = 0u64;
    let start = Instant::now();
    for i in 0..requests {
        let due = start + interval.mul_f64(i as f64);
        pace_until(due);
        let u: f64 = rng.random();
        let (loc, eps) = archetypes[zipf_rank(&cdf, u)];
        match svc.submit(WorkerId(i), loc, eps, &mut rng) {
            Response::Served(o) => match o.served {
                Served::Optimal { .. } => served_hits += 1,
                Served::Stale { .. } | Served::Fallback => served_degraded += 1,
            },
            Response::Rejected { .. } => rejected += 1,
            Response::OffPartition { .. } => panic!("workload locations are all on-partition"),
            Response::BudgetExhausted { .. } => unreachable!("no trace budget configured"),
        }
        latencies.push(due.elapsed());
    }
    let elapsed = start.elapsed();
    svc.quiesce();
    svc.flush_metrics();

    // The measured phase is hit-only: it must never touch a solve
    // queue. Recorded as a series so the determinism gate pins it.
    let enqueued_after = obs.counter(service::metrics::QUEUE_ENQUEUED);
    obs.push(
        "bench_load.hit_phase_enqueues",
        (enqueued_after - enqueued_warm) as f64,
    );
    obs.push("bench_load.hit_rate", served_hits as f64 / requests as f64);
    obs.push("bench_load.degraded", served_degraded as f64);
    obs.push("bench_load.rejected", rejected as f64);

    // Audit every mechanism the service holds — cached optima and
    // fallbacks alike — against the full (unreduced) Geo-I constraint
    // set at its canonical ε.
    let audited = scenarios::audit_live(&svc, "bench_load");
    obs.incr("bench_load.privacy_audits", audited);

    // Wall-clock results: percentiles from the scheduled arrival, plus
    // offered vs achieved throughput. These live under the
    // `bench_load.wall.` prefix, which the determinism projection
    // strips — they are reported, never gated.
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let p999 = percentile(&latencies, 0.999);
    let throughput = requests as f64 / elapsed.as_secs_f64();
    obs.push("bench_load.wall.p50_us", p50.as_secs_f64() * 1e6);
    obs.push("bench_load.wall.p99_us", p99.as_secs_f64() * 1e6);
    obs.push("bench_load.wall.p999_us", p999.as_secs_f64() * 1e6);
    obs.push("bench_load.wall.offered_rps", rate);
    obs.push("bench_load.wall.throughput_rps", throughput);

    obs.record_duration("bench_load.total", total.elapsed());
    svc.shutdown();
    obs.snapshot()
}

/// Series left out of the `--check` comparison: the wall-clock
/// `bench_load.wall.*` series legitimately vary between runs.
const UNSTABLE_SERIES: [&str; 1] = ["bench_load.wall."];

/// Series compared as sorted lists: the solver workers record the
/// `cg.*` series in the order the warm phase's solves finish, which
/// follows thread scheduling; the values themselves do not.
const UNORDERED_SERIES: [&str; 1] = ["cg."];

/// Asserts the signals CI gates on; returns an error message naming
/// the first violated gate. Speed never appears here.
fn check_signals(snapshot: &Value) -> Result<(), String> {
    vlp_obs::schema::validate_snapshot(snapshot)?;
    let shed = snapshot["counters"][service::metrics::SHED_REJECTED]
        .as_u64()
        .unwrap_or(0);
    if shed > SHED_BUDGET {
        return Err(format!(
            "{shed} requests shed exceeds the committed budget of {SHED_BUDGET}"
        ));
    }
    let enqueues = snapshot["series"]["bench_load.hit_phase_enqueues"][0]
        .as_f64()
        .unwrap_or(f64::NAN);
    if enqueues != 0.0 {
        return Err(format!(
            "hit-only phase enqueued {enqueues} solves — cache hits are entering a queue"
        ));
    }
    let hit_rate = snapshot["series"]["bench_load.hit_rate"][0]
        .as_f64()
        .unwrap_or(0.0);
    if hit_rate < 1.0 {
        return Err(format!(
            "measured-phase hit rate {hit_rate} below 1.0 — warm-up left cold keys"
        ));
    }
    if snapshot["counters"]["bench_load.privacy_audits"]
        .as_u64()
        .unwrap_or(0)
        == 0
    {
        return Err("privacy audit ran over zero mechanisms".into());
    }
    for series in [
        "bench_load.wall.p50_us",
        "bench_load.wall.p99_us",
        "bench_load.wall.p999_us",
    ] {
        if snapshot["series"][series]
            .as_array()
            .is_none_or(|a| a.is_empty())
        {
            return Err(format!("latency series `{series}` is missing or empty"));
        }
    }
    if snapshot["timers"]["bench_load.total"]["total_ns"]
        .as_u64()
        .unwrap_or(0)
        == 0
    {
        return Err("end-to-end wall-time timer is missing".into());
    }
    Ok(())
}

fn main() {
    let mut out = String::from("artifacts/bench_load.json");
    let mut check = false;
    let mut rate = 60_000.0f64;
    let mut requests = 200_000usize;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => out = argv.next().expect("--out needs a path"),
            "--rate" => {
                rate = argv
                    .next()
                    .expect("--rate needs a rate")
                    .parse()
                    .expect("--rate needs a number");
                assert!(rate > 0.0, "--rate must be positive");
            }
            "--requests" => {
                requests = argv
                    .next()
                    .expect("--requests needs a count")
                    .parse()
                    .expect("--requests needs an integer")
            }
            other => {
                eprintln!(
                    "unknown flag `{other}` (expected --check, --out <path>, --rate <req/s>, \
                     or --requests <n>)"
                );
                std::process::exit(2);
            }
        }
    }

    let (snapshot, ()) = artifact::gated_runs(
        "bench_load",
        check,
        &UNSTABLE_SERIES,
        &UNORDERED_SERIES,
        || (run_load(rate, requests), ()),
        |snapshot, ()| check_signals(snapshot),
    );

    artifact::write(&out, &snapshot);

    let p50 = snapshot["series"]["bench_load.wall.p50_us"][0]
        .as_f64()
        .unwrap();
    let p99 = snapshot["series"]["bench_load.wall.p99_us"][0]
        .as_f64()
        .unwrap();
    let p999 = snapshot["series"]["bench_load.wall.p999_us"][0]
        .as_f64()
        .unwrap();
    let throughput = snapshot["series"]["bench_load.wall.throughput_rps"][0]
        .as_f64()
        .unwrap();
    let audits = snapshot["counters"]["bench_load.privacy_audits"]
        .as_u64()
        .unwrap();
    println!(
        "bench_load: OK — {requests} requests offered at {rate:.0} req/s, achieved \
         {throughput:.0} req/s, p50 {p50:.1}µs / p99 {p99:.1}µs / p999 {p999:.1}µs, \
         100% cache hits, {audits} mechanisms audited → {out}"
    );
}
