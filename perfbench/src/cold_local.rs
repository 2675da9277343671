//! `cold_local`: a local-engine service takes a closed-loop sequence
//! of `obfuscate_batch` calls under a generous logical deadline. Each
//! batch carries one key no earlier batch solved (twice: the second
//! request coalesces onto the first's solve) and lands its other
//! requests on keys solved during set-up; the run ends with one burst
//! batch of many cold keys. The new keys follow a fixed mix of support
//! sizes (k = 16 … 33) and budgets, so solve cost — Dijkstra balls,
//! the restricted LP, column generation — dominates, and the hit path
//! is negligible.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use platform::{LocalConfig, MechanismService, Obfuscation, Served, ServiceConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vlp_core::{privacy, CgOptions};

use crate::common::{
    counting_settled, emit_hit_path, ms, replay_hit, setup_layers, timed, timed_setups, Args,
    CgTally, Counters, Engine, Report, ShardMap,
};
use crate::inputs::{
    self, sub_seed, Burst, ColdBatch, ColdPlan, Request, COLD_BURSTS, COLD_MAX_REPS, COLD_RADIUS,
    COLD_RHO, SHARDS,
};
use crate::spans::Tracer;
use crate::stats::{median, tail};

/// Seconds the one-new-key batches of one repetition of the key mix
/// take on a 2-core reference machine.
const REP_SECONDS: f64 = 5.5;
/// Seconds one burst batch takes on the same machine.
const BURST_SECONDS: f64 = 2.0;

/// Repetitions of the key mix that, with the bursts, fill about
/// `seconds` of measured work: at least one, at most [`COLD_MAX_REPS`].
fn repetitions(seconds: f64) -> usize {
    let batches_s = seconds - COLD_BURSTS as f64 * BURST_SECONDS;
    ((batches_s / REP_SECONDS).round().max(1.0) as usize).min(COLD_MAX_REPS)
}

fn config() -> ServiceConfig {
    ServiceConfig {
        n_shards: SHARDS,
        delta: inputs::DELTA,
        radius: COLD_RADIUS,
        local: Some(LocalConfig { rho: COLD_RHO }),
        // A generous logical deadline: every batch waits for its own
        // solves and serves them optimally.
        solve_deadline: Duration::from_secs(600),
        // Room for every key a long run solves, so nothing is evicted.
        cache_capacity: 1024,
        ..ServiceConfig::default()
    }
}

/// Boots the service and solves the warm keys, one batch per key.
fn boot_and_warm(plan: &ColdPlan, rng: &mut StdRng) -> MechanismService {
    let mut svc = MechanismService::new(inputs::large_grid(), config());
    for request in &plan.warm {
        let served = svc.obfuscate_batch(std::slice::from_ref(request), rng);
        assert!(
            served
                .iter()
                .all(|o| o.served == Served::Optimal { cached: false }),
            "warm-up keys are solved and served optimally"
        );
    }
    svc
}

/// What the measured batches did.
#[derive(Default)]
struct Measured {
    /// Latency of each one-new-key batch, ms.
    batch_ms: Vec<f64>,
    /// Latency of each burst batch, s.
    burst_s: Vec<f64>,
    requests: u64,
    failed: u64,
    served: u64,
    /// Requests served an optimal mechanism, fresh or cached.
    optimal: u64,
}

/// Checks one batch's output against its requests, and counts it: every
/// request served, never above its ε, the new keys solved by this batch
/// and everything else from the cache.
fn check_batch(
    report: &mut Report,
    m: &mut Measured,
    requests: &[Request],
    out: &[Obfuscation],
    cold: usize,
    what: &str,
) {
    let failed = requests.len().saturating_sub(out.len()) as u64;
    report.check(failed == 0, || {
        format!("{what}: {failed} requests were not served")
    });
    for (o, &(_, _, eps)) in out.iter().zip(requests) {
        report.check(o.epsilon <= eps, || {
            format!("{what}: served ε {} above requested {eps}", o.epsilon)
        });
    }
    let fresh = out
        .iter()
        .filter(|o| o.served == Served::Optimal { cached: false })
        .count();
    let hits = out
        .iter()
        .filter(|o| o.served == Served::Optimal { cached: true })
        .count();
    report.check(fresh == cold && hits == out.len() - cold, || {
        format!("{what}: {fresh} fresh and {hits} cached optima, expected {cold} fresh and the rest cached")
    });
    m.requests += requests.len() as u64;
    m.failed += failed;
    m.served += out.len() as u64;
    m.optimal += (fresh + hits) as u64;
}

/// Runs the one-new-key batches with the bursts spread evenly among
/// them, the last burst ending the run, so that `burst_s` samples the
/// whole run rather than its last seconds; `per_batch` runs after each
/// timed one-new-key batch (the traced run's replay).
fn measure(
    report: &mut Report,
    svc: &mut MechanismService,
    plan: &ColdPlan,
    rng: &mut StdRng,
    mut per_batch: impl FnMut(&MechanismService, usize, &ColdBatch, Instant, Duration),
) -> Measured {
    let mut m = Measured::default();
    let every = (plan.batches.len() / plan.bursts.len().max(1)).max(1);
    let mut bursts = plan.bursts.iter().enumerate();
    for (b, batch) in plan.batches.iter().enumerate() {
        let start = Instant::now();
        let out = svc.obfuscate_batch(&batch.requests, rng);
        let took = start.elapsed();
        m.batch_ms.push(ms(took));
        let cold = inputs::COLD_REQUESTS_PER_NEW_KEY;
        check_batch(
            report,
            &mut m,
            &batch.requests,
            &out,
            cold,
            &format!("batch {b} (k={})", batch.key.k),
        );
        per_batch(svc, b, batch, start, took);
        if (b + 1) % every == 0 && b + 1 < plan.batches.len() {
            if let Some((i, burst)) = bursts.next() {
                run_burst(report, svc, &mut m, i, burst, rng);
            }
        }
    }
    for (i, burst) in bursts {
        run_burst(report, svc, &mut m, i, burst, rng);
    }
    m
}

/// Times and checks one burst batch.
fn run_burst(
    report: &mut Report,
    svc: &mut MechanismService,
    m: &mut Measured,
    i: usize,
    burst: &Burst,
    rng: &mut StdRng,
) {
    let (out, took) = timed(|| svc.obfuscate_batch(&burst.requests, rng));
    m.burst_s.push(took.as_secs_f64());
    let cold = burst.keys.len() * inputs::COLD_REQUESTS_PER_NEW_KEY;
    check_batch(
        report,
        m,
        &burst.requests,
        &out,
        cold,
        &format!("burst {i}"),
    );
}

/// Every mechanism the service holds — all of them served a measured
/// request — passes its neighborhood's restricted Geo-I audit spec.
fn audit(report: &mut Report, svc: &MechanismService, expected: usize) {
    let live = svc.live_mechanisms_keyed();
    report.check(live.len() == expected, || {
        format!(
            "{} live mechanisms, expected one per solved key ({expected})",
            live.len()
        )
    });
    for (s, nb, eps, mech) in live {
        let shard = svc.local_shard(s).expect("local engine");
        report.check(
            privacy::verify(&mech, &shard.audit_spec(nb, eps), 1e-6),
            || {
                format!(
                    "mechanism of shard {s} neighborhood {nb} at ε={eps} violates its audit spec"
                )
            },
        );
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let reps = repetitions(args.seconds);
    let plan = ColdPlan::generate(args.seed, reps);
    let mut report = Report::default();
    let mut rng = StdRng::seed_from_u64(sub_seed(args.seed, 20));
    let (mut svc, setup_s) = timed_setups(|| boot_and_warm(&plan, &mut rng));
    let burst_keys: usize = plan.bursts.iter().map(|b| b.keys.len()).sum();
    let solved_keys = plan.warm_keys.len() + plan.batches.len() + burst_keys;
    let k_min = plan.batches.iter().map(|b| b.key.k).min().unwrap_or(0);
    let k_max = plan.batches.iter().map(|b| b.key.k).max().unwrap_or(0);
    report.note(format!(
        "{} one-new-key batches (k = {k_min}..{k_max}), {} bursts of {} cold keys",
        plan.batches.len(),
        plan.bursts.len(),
        burst_keys / plan.bursts.len().max(1)
    ));

    let before = Counters::read(&svc);
    let (m, took) = timed(|| {
        if args.trace {
            trace_run(&mut report, &mut svc, &plan, &mut rng)
        } else {
            measure(&mut report, &mut svc, &plan, &mut rng, |_, _, _, _, _| {})
        }
    });
    let counts = Counters::read(&svc).since(&before);
    report.note(format!("measured phase: {:.1} s", took.as_secs_f64()));
    audit(&mut report, &svc, solved_keys);
    report.attempted = m.requests;
    report.failed = m.failed;
    let solve_tail = tail(&m.batch_ms);
    report.check(solve_tail.is_some(), || {
        format!(
            "{} batches are too few for a tail percentile",
            m.batch_ms.len()
        )
    });
    if let Some((pct, _)) = solve_tail {
        report.note(format!(
            "latency_tail_ms is p{pct:.1} of {} batches",
            m.batch_ms.len()
        ));
    }
    if args.trace {
        counts.emit(&mut report);
    } else {
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_heap_mb", crate::heap::peak_mb(), "MB");
        report.served_share();
        report.metric(
            "optimal_share",
            m.optimal as f64 / m.served.max(1) as f64,
            "ratio",
        );
        // Requests served per second spent inside `obfuscate_batch`.
        let busy_s = m.batch_ms.iter().sum::<f64>() / 1e3 + m.burst_s.iter().sum::<f64>();
        report.metric("throughput_rps", m.served as f64 / busy_s, "1/s");
        report.metric("latency_p50_ms", median(&m.batch_ms), "ms");
        report.metric(
            "latency_tail_ms",
            solve_tail.map_or(f64::NAN, |t| t.1),
            "ms",
        );
        report.metric("burst_s", median(&m.burst_s), "s");
    }
    report
}

/// The traced run: after each one-new-key batch its key is solved twice
/// more, directly through `LocalShard::solve_neighborhood`, in
/// alternating order: once bare, between two clock reads, and once with
/// the instrumentation the per-layer figures come from (the Dijkstra
/// count and the spans). The instrumented replay's diagnostics
/// split the batch latency into hand-off, preparation (Dijkstra balls,
/// restricted cost and spec), column-generation master and pricing, and
/// its mechanism is audited; the two replays' difference is the cost of
/// the instrumentation. The batch's requests on warm keys are replayed
/// through the hit path.
fn trace_run(
    report: &mut Report,
    svc: &mut MechanismService,
    plan: &ColdPlan,
    rng: &mut StdRng,
) -> Measured {
    let cg = CgOptions::default();
    let maps: Vec<ShardMap> = (0..SHARDS).map(|s| ShardMap::of(svc, s)).collect();
    // Only the warm keys are solved yet.
    let warm: HashMap<_, _> = svc
        .live_mechanisms_keyed()
        .into_iter()
        .map(|(s, nb, eps, mech)| ((s, nb, eps.to_bits()), mech))
        .collect();
    let mut replay_rng = StdRng::seed_from_u64(rng.random());
    let mut tracer = Tracer::new();
    let mut tally = CgTally::default();
    let (mut prepare_ms, mut handoff_ms, mut k) = (Vec::new(), Vec::new(), Vec::new());
    let (mut bare_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let m = measure(report, svc, plan, rng, |svc, b, batch, start, took| {
        let key = batch.key;
        let shard = svc.local_shard(key.shard).expect("local engine");
        let bare = || ms(timed(|| shard.solve_neighborhood(key.nb, key.epsilon, &cg)).1);
        if b % 2 == 1 {
            bare_ms.push(bare());
        }
        let trace = b as u64;
        let root = tracer.record(trace, None, "service.batch", start, took);
        for &(_, loc, eps) in &batch.requests[inputs::COLD_REQUESTS_PER_NEW_KEY..] {
            let canonical = svc.canonical_epsilon(eps).to_bits();
            let replayed = replay_hit(
                &mut tracer,
                trace,
                root,
                svc.partition(),
                &maps,
                loc,
                &mut replay_rng,
                |s, nb| warm.get(&(s, nb, canonical)).cloned(),
            );
            assert!(
                replayed,
                "a request on a warm key replays through the hit path"
            );
        }
        let t = Instant::now();
        let ((solved, solve_t), settled) =
            counting_settled(|| timed(|| shard.solve_neighborhood(key.nb, key.epsilon, &cg)));
        let solved = solved.expect("a replayed solve succeeds like the served one");
        let solve = tracer.record(trace, Some(root), "core.local.solve", t, solve_t);
        let d = &solved.diagnostics;
        let cg_span = tracer.record_reported(trace, Some(solve), "core.cg", t, d.wall_time);
        tracer.record_reported(trace, Some(cg_span), "core.cg.master", t, d.master_time);
        tracer.record_reported(trace, Some(cg_span), "core.cg.pricing", t, d.pricing_time);
        traced_ms.push(ms(t.elapsed()));
        prepare_ms.push(ms(solve_t.saturating_sub(d.wall_time)));
        // Signed: on most batches the difference is within the noise of
        // the two solves, and flooring it at zero would bias the median.
        handoff_ms.push(ms(took) - ms(solve_t));
        k.push(solved.support.len() as f64);
        let spec = shard.audit_spec(key.nb, key.epsilon);
        let (ok, verify_t) = timed(|| privacy::verify(&solved.mechanism, &spec, 1e-6));
        assert!(ok, "a replayed solve passes its audit spec");
        tally.absorb(d, settled, solve_t, verify_t);
        if b % 2 == 0 {
            bare_ms.push(bare());
        }
    });

    let untraced_p50 = median(&bare_ms);
    let traced_p50 = median(&traced_ms);
    report.metric("tracing.solve_p50_untraced_ms", untraced_p50, "ms");
    report.metric("tracing.solve_p50_traced_ms", traced_p50, "ms");
    report.metric(
        "tracing.solve_overhead",
        traced_p50 / untraced_p50 - 1.0,
        "ratio",
    );
    report.metric("service.handoff_ms", median(&handoff_ms), "ms");
    report.metric("core.local.prepare_ms", median(&prepare_ms), "ms");
    report.metric(
        "core.local.k",
        k.iter().sum::<f64>() / k.len().max(1) as f64,
        "count",
    );
    tally.emit(report);
    emit_hit_path(report, &tracer);
    let layers = tracer.layer_self_per_trace(|_| true);
    report.metric(
        "self.service_ms",
        layers.get("service").copied().unwrap_or(0.0) / 1e6,
        "ms",
    );
    report.metric(
        "self.core_ms",
        layers.get("core").copied().unwrap_or(0.0) / 1e6,
        "ms",
    );
    setup_layers(
        report,
        &inputs::large_grid(),
        SHARDS,
        inputs::DELTA,
        Engine::Local {
            rho: COLD_RHO,
            radius: COLD_RADIUS,
        },
    );
    report.tracer = Some(tracer);
    m
}
