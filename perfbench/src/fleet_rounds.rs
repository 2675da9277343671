//! `fleet_rounds`: the paper's Fig. 2 serving loop on a full-engine
//! service with the per-vehicle trace-budget ledger and velocity-aware
//! ε. Each round every vehicle submits its next report, tasks are
//! published, `snapshot_batch` runs the Hungarian assignment, and the
//! round ends with `tick` and `quiesce`. Every few rounds a worker
//! prior estimated from the reports replaces one shard's prior, which
//! invalidates its cache: re-solves, cache writes and fallback serving
//! then happen beside cache reads.
//!
//! A report that misses the cache waits for its solve before the next
//! report is sent, so which reports hit — and with them every share and
//! distance this workload reports — is the same on every same-seed run.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use platform::{
    MechanismService, Obfuscation, Response, Served, ServiceConfig, TaskId, TraceBudgetConfig,
    VelocityEpsilon, WorkerId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vlp_core::{privacy, Mechanism, Prior, PrivacySpec, VlpInstance};

use crate::common::{
    emit_hit_path, ms, replay_hit, setup_layers, timed, timed_setups, Args, CgTally, Counters,
    Engine, Report, ShardMap,
};
use crate::inputs::{self, sub_seed, FleetPlan, FLEET_VEHICLES, SHARDS};
use crate::spans::Tracer;
use crate::stats::{median, tail};

/// Rounds per second of requested run length.
const ROUNDS_PER_SECOND: f64 = 23.0;
/// Rounds between prior updates; each update replaces one shard's prior
/// (round-robin).
const DRIFT_EVERY: usize = 8;
/// Rounds per vehicle shift. Each shift reports under a fresh worker id,
/// so its trace-budget ledger starts empty. Shifts are staggered:
/// vehicle `v`'s first shift ends `SHIFT_ROUNDS - v * SHIFT_ROUNDS /
/// FLEET_VEHICLES` rounds in, so a few ledgers reset every round and no
/// round is a fleet-wide shift change.
const SHIFT_ROUNDS: usize = 40;
/// ε-bucket width of the service cache.
const BUCKET: f64 = 1.0;
/// Per-shift trace budget, per km.
const TRACE_BUDGET: f64 = 60.0;
/// Additive smoothing of the report histogram a prior is estimated from.
const PRIOR_SMOOTHING: f64 = 4.0;
/// Re-solves replayed through `VlpInstance::solve` in the traced run.
const SOLVE_REPLAYS: usize = 48;
/// Reports per round, served from a cached optimum, that the traced
/// run replays through the hit path.
const HIT_REPLAYS_PER_ROUND: usize = 8;
/// First worker id of the warm-up submissions (beyond any shift's ids);
/// each submission uses a fresh id, so no warm-up ledger fills.
const WARMUP_WORKERS: usize = 1 << 40;

const VELOCITY: VelocityEpsilon = VelocityEpsilon {
    base_epsilon: 5.0,
    min_epsilon: 1.0,
    v_ref_kmh: 30.0,
};

fn config() -> ServiceConfig {
    ServiceConfig {
        n_shards: SHARDS,
        delta: inputs::DELTA,
        epsilon_bucket: BUCKET,
        solve_deadline: Duration::ZERO,
        budget: Some(TraceBudgetConfig {
            trace_budget: TRACE_BUDGET,
            throttle_start: 0.5,
        }),
        ..ServiceConfig::default()
    }
}

/// Boots the service and solves, on every shard, each bucket a report
/// can reach, from the smallest grant above zero to the base ε: one
/// submission per bucket from a fresh warm-up worker id at the shard's
/// warm-up location, each solved before the next is submitted.
fn boot_and_warm(plan: &FleetPlan, seed: u64) -> MechanismService {
    let svc = MechanismService::new(inputs::small_grid(), config());
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 30));
    let buckets = (VELOCITY.base_epsilon / BUCKET).round() as usize;
    let mut worker = WARMUP_WORKERS;
    for (s, &loc) in plan.warm.iter().enumerate() {
        for b in 1..=buckets {
            worker += 1;
            match svc.submit(WorkerId(worker), loc, b as f64 * BUCKET, &mut rng) {
                Response::Served(_) => svc.quiesce(),
                other => panic!("warm-up submissions on shard {s} are served: {other:?}"),
            }
        }
    }
    svc.tick();
    svc
}

/// Per-run totals of the measured rounds.
#[derive(Default)]
struct Totals {
    round_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    refused: u64,
    served: u64,
    optimal: u64,
    etdd_sum: f64,
    assign_km_sum: f64,
    assignments: u64,
}

/// Timing hooks of the traced run; the untraced run passes none.
#[derive(Default)]
struct Hooks {
    tracer: Option<Tracer>,
    /// Durations of every `snapshot_batch` and Hungarian replay, µs.
    snapshot_us: Vec<f64>,
    hungarian_us: Vec<f64>,
    /// `(shard, canonical ε)` of this round's re-solves, replayed after
    /// the round while replays are left.
    resolves: Vec<(usize, f64)>,
    replays_left: usize,
    cg: CgTally,
    /// Seed of the hit-path replays' samples.
    seed: u64,
}

/// One round's bookkeeping state carried across rounds.
struct Ledger {
    /// Reported intervals per shard since that shard's last prior update.
    counts: Vec<Vec<f64>>,
    /// ε served per worker, summed by the benchmark.
    spent: HashMap<WorkerId, f64>,
    /// Interval of every published task, per shard.
    task_interval: Vec<Vec<usize>>,
    assigned: HashSet<(usize, TaskId)>,
    /// Every mechanism that served a report, by identity, with its shard
    /// and canonical ε.
    served_mechs: HashMap<usize, (usize, f64, Arc<Mechanism>)>,
    /// ETDD of a served mechanism under a shard instance's cost, by the
    /// identities of both. The entry holds the instance, so that its
    /// address is not reused by a later instance while the key exists
    /// (the mechanism is held in `served_mechs`).
    etdd: HashMap<(usize, usize), (f64, Arc<VlpInstance>)>,
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let rounds =
        ((args.seconds * ROUNDS_PER_SECOND).round() as usize).max(2 * DRIFT_EVERY * SHARDS);
    let plan = FleetPlan::generate(args.seed, rounds);
    let mut report = Report::default();
    let (mut svc, setup_s) = timed_setups(|| boot_and_warm(&plan, args.seed));
    let before = Counters::read(&svc);

    let mut hooks = Hooks {
        tracer: args.trace.then(Tracer::new),
        replays_left: SOLVE_REPLAYS,
        seed: sub_seed(args.seed, 32),
        ..Hooks::default()
    };
    let mut rng = StdRng::seed_from_u64(sub_seed(args.seed, 31));
    let (totals, took) = timed(|| rounds_loop(&mut report, &mut svc, &plan, &mut rng, &mut hooks));
    report.note(format!("measured phase: {:.1} s", took.as_secs_f64()));
    let counts = Counters::read(&svc).since(&before);
    report.check(counts.invalidations >= 1, || {
        "no prior update invalidated a cached mechanism".into()
    });
    report.check(totals.refused >= 1, || {
        "no report was refused for an exhausted trace budget".into()
    });
    report.attempted = totals.attempted;
    report.failed = totals.failed;
    let drifts = rounds.saturating_sub(1) / DRIFT_EVERY;
    report.note(format!(
        "{rounds} rounds ({drifts} prior updates) × {FLEET_VEHICLES} vehicles; {} served, {} refused, {} assignments",
        totals.served, totals.refused, totals.assignments
    ));
    let round_tail = tail(&totals.round_ms);
    if let Some((pct, _)) = round_tail {
        report.note(format!(
            "latency_tail_ms is p{pct:.1} of {} rounds",
            totals.round_ms.len()
        ));
    }

    if args.trace {
        counts.emit(&mut report);
        trace_metrics(&mut report, hooks);
    } else {
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_heap_mb", crate::heap::peak_mb(), "MB");
        report.served_share();
        // Reports answered (served or refused) per second of round time.
        let busy_s = totals.round_ms.iter().sum::<f64>() / 1e3;
        report.metric("throughput_rps", totals.attempted as f64 / busy_s, "1/s");
        report.metric("latency_p50_ms", median(&totals.round_ms), "ms");
        report.metric(
            "latency_tail_ms",
            round_tail.map_or(f64::NAN, |t| t.1),
            "ms",
        );
        let served = totals.served.max(1) as f64;
        report.metric("optimal_share", totals.optimal as f64 / served, "ratio");
        report.metric("served_etdd_km", totals.etdd_sum / served, "km");
        report.metric(
            "assign_km",
            totals.assign_km_sum / totals.assignments.max(1) as f64,
            "km",
        );
        report.metric(
            "refused_share",
            totals.refused as f64 / totals.attempted.max(1) as f64,
            "ratio",
        );
    }
    report
}

fn rounds_loop(
    report: &mut Report,
    svc: &mut MechanismService,
    plan: &FleetPlan,
    rng: &mut StdRng,
    hooks: &mut Hooks,
) -> Totals {
    let mut t = Totals::default();
    let mut led = Ledger {
        counts: (0..SHARDS)
            .map(|s| vec![0.0; svc.shard_instance(s).len()])
            .collect(),
        spent: HashMap::new(),
        task_interval: vec![Vec::new(); SHARDS],
        assigned: HashSet::new(),
        served_mechs: HashMap::new(),
        etdd: HashMap::new(),
    };
    let mut served: Vec<(Obfuscation, f64)> = Vec::with_capacity(FLEET_VEHICLES);
    let mut reports: Vec<Obfuscation> = Vec::with_capacity(FLEET_VEHICLES);
    let mut replay_rng = StdRng::seed_from_u64(hooks.seed);
    for (r, positions) in plan.positions.iter().enumerate() {
        served.clear();
        reports.clear();
        let trace = r as u64;
        let start = Instant::now();
        let mut spans: Vec<(&'static str, Instant, Duration)> = Vec::new();
        let traced = hooks.tracer.is_some();
        let drift = (r > 0 && r % DRIFT_EVERY == 0).then_some((r / DRIFT_EVERY) % SHARDS);
        if let Some(s) = drift {
            let prior = Prior::from_weights(
                &led.counts[s]
                    .iter()
                    .map(|c| c + PRIOR_SMOOTHING)
                    .collect::<Vec<_>>(),
            )
            .expect("smoothed counts are positive");
            let (_, took) = timed(|| svc.set_worker_prior(s, prior));
            led.counts[s].fill(0.0);
            if traced {
                spans.push(("service.set_worker_prior", start, took));
            }
        }
        for (v, &(loc, speed)) in positions.iter().enumerate() {
            let shift = (r + v * SHIFT_ROUNDS / FLEET_VEHICLES) / SHIFT_ROUNDS;
            let worker = WorkerId(shift * FLEET_VEHICLES + v);
            // Vehicles send ε in thousandths, rounded down. An ε a hair
            // below a bucket edge (2.4999999999999996 for 2.5) is
            // served at the edge above it, which the ε check rejects.
            let requested = (VELOCITY.epsilon_for(speed) * 1e3).floor() / 1e3;
            t.attempted += 1;
            let at = Instant::now();
            let resp = svc.submit(worker, loc, requested, rng);
            if traced {
                spans.push(("service.submit", at, at.elapsed()));
            }
            match resp {
                Response::Served(o) => {
                    if o.served != (Served::Optimal { cached: true }) {
                        // Wait for the enqueued solve, so the next report
                        // on this key hits on every run.
                        let at = Instant::now();
                        svc.quiesce();
                        if traced {
                            spans.push(("service.quiesce", at, at.elapsed()));
                            hooks.resolves.push((o.shard, o.epsilon));
                        }
                    }
                    served.push((o, requested));
                    reports.push(o);
                }
                Response::BudgetExhausted { .. } => t.refused += 1,
                Response::Rejected { .. } | Response::OffPartition { .. } => t.failed += 1,
            }
        }
        let at = Instant::now();
        for &(s, i) in &plan.tasks[r] {
            let id = svc.publish_task(s, i);
            debug_assert_eq!(id.0, led.task_interval[s].len());
            led.task_interval[s].push(i);
        }
        if traced {
            spans.push(("service.publish_task", at, at.elapsed()));
        }
        let at = Instant::now();
        let outcomes = svc.snapshot_batch(&reports);
        let snapshot_t = at.elapsed();
        let at_tick = Instant::now();
        svc.tick();
        svc.quiesce();
        let end = Instant::now();
        t.round_ms.push(ms(end - start));
        if let Some(tracer) = &mut hooks.tracer {
            spans.push(("service.tick", at_tick, end - at_tick));
            let root = tracer.record(trace, None, "fleet.round", start, end - start);
            // Vehicle v's submit span, in vehicle order.
            let mut submits = Vec::with_capacity(FLEET_VEHICLES);
            for &(name, at, took) in &spans {
                let id = tracer.record(trace, Some(root), name, at, took);
                if name == "service.submit" {
                    submits.push(id);
                }
            }
            let maps: Vec<ShardMap> = (0..SHARDS).map(|s| ShardMap::of(svc, s)).collect();
            let hits = served
                .iter()
                .filter(|(o, _)| o.served == (Served::Optimal { cached: true }))
                .take(HIT_REPLAYS_PER_ROUND);
            for (o, _) in hits {
                let v = o.worker.0 % FLEET_VEHICLES;
                let replayed = replay_hit(
                    tracer,
                    trace,
                    submits[v],
                    svc.partition(),
                    &maps,
                    positions[v].0,
                    &mut replay_rng,
                    |s, _| svc.cached_mechanism(s, o.epsilon),
                );
                assert!(
                    replayed,
                    "a report served from the cache replays through the hit path"
                );
            }
            let snap = tracer.record(trace, Some(root), "service.snapshot_batch", at, snapshot_t);
            hooks.snapshot_us.push(snapshot_t.as_secs_f64() * 1e6);
            for (s, outcome) in &outcomes {
                if let Some(took) =
                    replay_hungarian(svc, *s, &reports, outcome, &led.task_interval[*s])
                {
                    tracer.record(trace, Some(snap), "assignment.hungarian", end, took);
                    hooks.hungarian_us.push(took.as_secs_f64() * 1e6);
                }
            }
            replay_resolves(svc, hooks);
        }
        account_round(report, svc, plan, r, &served, &outcomes, &mut led, &mut t);
    }
    // The benchmark's own ledger equals the service's, within budget.
    for (&worker, &sum) in &led.spent {
        let ledger = svc.budget_spent(worker).unwrap_or(f64::NAN);
        report.check((ledger - sum).abs() < 1e-9 && sum <= TRACE_BUDGET + 1e-9, || {
            format!("worker {worker}: served ε sums to {sum}, ledger holds {ledger}, budget {TRACE_BUDGET}")
        });
    }
    for (s, eps, mech) in led.served_mechs.values() {
        let spec = PrivacySpec::full(&svc.shard_instance(*s).aux, *eps, f64::INFINITY);
        report.check(privacy::verify(mech, &spec, 1e-6), || {
            format!("a mechanism served on shard {s} at ε={eps} violates Geo-I")
        });
    }
    t
}

/// The untimed bookkeeping after one round: ledger sums, the serving
/// mechanisms and their ETDD, prior counts, and the true travel
/// distance of every assignment.
#[allow(clippy::too_many_arguments)]
fn account_round(
    report: &mut Report,
    svc: &MechanismService,
    plan: &FleetPlan,
    r: usize,
    served: &[(Obfuscation, f64)],
    outcomes: &[(usize, platform::SnapshotOutcome)],
    led: &mut Ledger,
    t: &mut Totals,
) {
    let instances: Vec<Arc<VlpInstance>> = (0..SHARDS).map(|s| svc.shard_instance(s)).collect();
    for &(o, requested) in served {
        t.served += 1;
        report.check(o.epsilon <= requested, || {
            format!(
                "round {r}: served ε {} above requested {requested}",
                o.epsilon
            )
        });
        *led.spent.entry(o.worker).or_default() += o.epsilon;
        led.counts[o.shard][o.interval] += 1.0;
        let mech = match o.served {
            Served::Optimal { .. } => {
                t.optimal += 1;
                svc.cached_mechanism(o.shard, o.epsilon)
            }
            Served::Fallback => svc.fallback_mechanism(o.shard, o.epsilon),
            Served::Stale { .. } => svc.stale_mechanism(o.shard, o.epsilon).map(|m| m.0),
        };
        let Some(mech) = mech else {
            report.check(false, || {
                format!("round {r}: the mechanism that served {o:?} is gone")
            });
            continue;
        };
        let inst = &instances[o.shard];
        let id = Arc::as_ptr(&mech) as usize;
        t.etdd_sum += led
            .etdd
            .entry((id, Arc::as_ptr(inst) as usize))
            .or_insert_with(|| (mech.quality_loss(&inst.cost), Arc::clone(inst)))
            .0;
        led.served_mechs
            .entry(id)
            .or_insert((o.shard, o.epsilon, mech));
    }
    let partition = svc.partition();
    for (s, outcome) in outcomes {
        for &(task, worker, _) in &outcome.assignments {
            report.check(led.assigned.insert((*s, task)), || {
                format!("task {task} of shard {s} assigned twice")
            });
            let (loc, _) = plan.positions[r][worker.0 % FLEET_VEHICLES];
            let inst = &instances[*s];
            let truth = partition
                .to_local(loc)
                .filter(|&(home, _)| home == *s)
                .and_then(|(_, local)| inst.disc.locate(&inst.graph, local));
            let Some(i) = truth else {
                report.check(false, || {
                    format!("round {r}: worker {worker} is not on shard {s}")
                });
                continue;
            };
            t.assign_km_sum += inst.interval_dists.get(i, led.task_interval[*s][task.0]);
            t.assignments += 1;
        }
    }
}

/// Times `assignment::hungarian` alone on the cost matrix shard `s`'s
/// snapshot built: assigned tasks (oldest first) against this round's
/// reports on the shard.
fn replay_hungarian(
    svc: &MechanismService,
    s: usize,
    reports: &[Obfuscation],
    outcome: &platform::SnapshotOutcome,
    task_interval: &[usize],
) -> Option<Duration> {
    if outcome.assignments.is_empty() {
        return None;
    }
    let inst = svc.shard_instance(s);
    let cols: Vec<usize> = reports
        .iter()
        .filter(|o| o.shard == s)
        .map(|o| o.interval)
        .collect();
    let cost: Vec<Vec<f64>> = outcome
        .assignments
        .iter()
        .map(|&(task, _, _)| {
            let t = task_interval[task.0];
            cols.iter()
                .map(|&j| inst.interval_dists.get(j, t))
                .collect()
        })
        .collect();
    let (matched, took) = timed(|| assignment::hungarian(&cost));
    std::hint::black_box(matched.expect("tasks ≤ reports"));
    Some(took)
}

/// Replays this round's re-solves through `VlpInstance::solve` on the
/// shard's current instance, recording their diagnostics.
fn replay_resolves(svc: &MechanismService, hooks: &mut Hooks) {
    let take = hooks.resolves.len().min(hooks.replays_left);
    hooks.replays_left -= take;
    for (s, eps) in hooks.resolves.drain(..).take(take) {
        hooks.cg.replay_full(&svc.shard_instance(s), eps);
    }
}

fn trace_metrics(report: &mut Report, hooks: Hooks) {
    let tracer = hooks.tracer.expect("traced run");
    emit_hit_path(report, &tracer);
    report.metric(
        "service.submit_budget_ns",
        median(&tracer.durations("service.submit")),
        "ns",
    );
    report.metric("assignment.snapshot_us", median(&hooks.snapshot_us), "us");
    report.metric("assignment.hungarian_us", median(&hooks.hungarian_us), "us");
    hooks.cg.emit(report);
    let layers = tracer.layer_self_per_trace(|_| true);
    for (metric, layer) in [
        ("self.fleet_us", "fleet"),
        ("self.service_us", "service"),
        ("self.assignment_us", "assignment"),
    ] {
        report.metric(
            metric,
            layers.get(layer).copied().unwrap_or(0.0) / 1e3,
            "us",
        );
    }
    setup_layers(
        report,
        &inputs::small_grid(),
        SHARDS,
        inputs::DELTA,
        Engine::Full,
    );
    report.tracer = Some(tracer);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(report: &Report, name: &str) -> f64 {
        let metric = report.metrics().iter().find(|m| m.0 == name);
        metric.unwrap_or_else(|| panic!("no metric {name}")).1
    }

    /// Serve decisions, and the solver work they cause, repeat exactly
    /// on two runs of one seed.
    #[test]
    fn same_seed_runs_agree_on_decisions_and_solver_work() {
        let args = |trace| Args {
            workload: "fleet_rounds".into(),
            seed: 5,
            seconds: 2.0,
            trace,
        };
        let (a, b) = (run(&args(false)), run(&args(false)));
        assert!(
            a.failures().is_empty() && b.failures().is_empty(),
            "{:?}",
            a.failures()
        );
        for name in ["optimal_share", "refused_share", "served_etdd_km"] {
            assert_eq!(value(&a, name), value(&b, name), "{name}");
        }
        let (a, b) = (run(&args(true)), run(&args(true)));
        for name in ["lp.pivots", "core.cg.iterations"] {
            assert!(value(&a, name) > 0.0, "{name} counts replayed solves");
            assert_eq!(value(&a, name), value(&b, name), "{name}");
        }
    }
}
