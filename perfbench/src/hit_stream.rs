//! `hit_stream`: a warm full-engine service takes Zipf-skewed `submit`
//! calls from a closed-loop caller through a `ServiceHandle`. Every key
//! is solved during set-up, so the measured phase is the caller path
//! alone — partition lookup, interval locate, shard table lock,
//! sampling and transplant. No solver runs.
//!
//! The end-to-end metrics come from one caller. With one caller per
//! core the figures were bimodal on a 2-vCPU virtual machine: while the
//! hypervisor runs one vCPU, the two callers take turns and never
//! contend, and per-call latency halves. Contention between one caller
//! per core is measured in the traced run instead.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use platform::{MechanismService, Response, Served, ServiceConfig, ServiceHandle, WorkerId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vlp_core::{privacy, Mechanism, PrivacySpec};

use crate::common::{
    emit_hit_path, setup_layers, timed_setups, Args, CgTally, Counters, Engine, Report,
};
use crate::inputs::{self, sub_seed, HitPlan, HIT_EPSILONS, SHARDS};
use crate::spans::Tracer;
use crate::stats::{median, Histogram};

/// Requests of one replay pass in the traced run.
const REPLAYS: usize = 2_000;
/// Replay passes with spans, and as many without; the passes alternate.
const REPLAY_PASSES: usize = 8;

fn config() -> ServiceConfig {
    ServiceConfig {
        n_shards: SHARDS,
        delta: inputs::DELTA,
        // The open-loop path never waits on a deadline.
        solve_deadline: Duration::ZERO,
        ..ServiceConfig::default()
    }
}

/// Boots the service and solves every `(shard, ε)` key, one at a time:
/// a cold submission, then a wait for its solve.
fn boot_and_warm(plan: &HitPlan, seed: u64) -> MechanismService {
    let svc = MechanismService::new(inputs::small_grid(), config());
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 10));
    for &loc in &plan.warm {
        for eps in HIT_EPSILONS {
            let r = svc.submit(WorkerId(0), loc, eps, &mut rng);
            assert!(
                matches!(r, Response::Served(o) if o.served == Served::Fallback),
                "a cold key serves the fallback while it is solved: {r:?}"
            );
            svc.quiesce();
        }
    }
    svc.tick();
    svc
}

/// Equal time slices of a closed-loop phase. Throughput and latency
/// quantiles are computed per slice and reported as their median over
/// slices, so a stall that hits a few slices (another tenant taking a
/// core) does not move the result.
const SLICES: usize = 16;

/// What one closed-loop phase measured.
struct Phase {
    calls: u64,
    slice_len: Duration,
    /// Per-call latency of each slice, all callers merged.
    slices: Vec<Histogram>,
    /// Calls served anything but a cached optimum.
    not_hit: u64,
    /// Calls rejected, off-partition, refused or lost to a panic.
    failed: u64,
    /// Served ε above the requested ε.
    over_budget: u64,
}

impl Phase {
    fn new(slice_len: Duration) -> Self {
        Self {
            calls: 0,
            slice_len,
            slices: vec![Histogram::default(); SLICES],
            not_hit: 0,
            failed: 0,
            over_budget: 0,
        }
    }

    /// Adds another caller's (or phase's) counts.
    fn merge(&mut self, other: Phase) {
        self.calls += other.calls;
        for (a, b) in self.slices.iter_mut().zip(&other.slices) {
            a.merge(b);
        }
        self.not_hit += other.not_hit;
        self.failed += other.failed;
        self.over_budget += other.over_budget;
    }

    /// Median over slices of calls per second.
    fn rps(&self) -> f64 {
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .map(|h| h.count() as f64 / self.slice_len.as_secs_f64())
            .collect();
        median(&per_slice)
    }

    /// Median over slices of the per-call latency quantile `q`, ns.
    fn latency(&self, q: f64) -> f64 {
        median(
            &self
                .slices
                .iter()
                .map(|h| h.quantile(q))
                .collect::<Vec<_>>(),
        )
    }
}

/// Runs `callers` closed-loop callers for `duration`: each sends its
/// next request as soon as the previous reply arrives.
fn closed_loop(
    handle: &ServiceHandle,
    plan: &HitPlan,
    callers: usize,
    duration: Duration,
    seed: u64,
) -> Phase {
    let slice_len = duration / SLICES as u32;
    let barrier = Arc::new(Barrier::new(callers));
    let parts: Vec<std::thread::Result<Phase>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..callers)
            .map(|c| {
                let handle = handle.clone();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let stream = &plan.streams[c];
                    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 200 + c as u64));
                    let mut out = Phase::new(slice_len);
                    let worker = WorkerId(c);
                    barrier.wait();
                    let start = Instant::now();
                    let mut last = start;
                    let (mut slice, mut slice_end) = (0, start + slice_len);
                    let mut i = 0u64;
                    loop {
                        let (loc, eps) =
                            plan.archetypes[stream[i as usize % stream.len()] as usize];
                        let r = handle.submit(worker, loc, eps, &mut rng);
                        let now = Instant::now();
                        while now >= slice_end && slice < SLICES {
                            slice += 1;
                            slice_end += slice_len;
                        }
                        if slice == SLICES {
                            break;
                        }
                        let took = now - last;
                        out.slices[slice].record(took.as_nanos() as u64);
                        match r {
                            Response::Served(o) => {
                                if o.served != (Served::Optimal { cached: true }) {
                                    out.not_hit += 1;
                                }
                                if o.epsilon > eps {
                                    out.over_budget += 1;
                                }
                            }
                            _ => out.failed += 1,
                        }
                        last = now;
                        i += 1;
                    }
                    out.calls = i;
                    out
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join()).collect()
    });
    let mut total = Phase::new(slice_len);
    for part in parts {
        match part {
            Ok(p) => total.merge(p),
            // A panicked caller: count one failed request for it.
            Err(_) => {
                total.calls += 1;
                total.failed += 1;
            }
        }
    }
    total
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plan = HitPlan::generate(args.seed, cores);
    let mut report = Report::default();
    let (svc, setup_s) = timed_setups(|| boot_and_warm(&plan, args.seed));
    let handle = svc.handle();
    let before = Counters::read(&svc);
    report.note(format!(
        "one closed-loop caller; the traced run adds {cores} contending callers"
    ));

    let measured = Duration::from_secs_f64(args.seconds);
    let phase = if args.trace {
        trace_run(
            &mut report,
            &svc,
            &handle,
            &plan,
            cores,
            measured,
            args.seed,
        )
    } else {
        closed_loop(&handle, &plan, 1, measured, args.seed)
    };
    let counts = Counters::read(&svc).since(&before);
    let enqueued = counts.enqueued;

    report.attempted = phase.calls;
    report.failed = phase.failed;
    report.note(format!(
        "measured: {} calls, {} served from a cached optimum; medians over {SLICES} slices of {:.3} s",
        phase.calls,
        phase.calls - phase.not_hit - phase.failed,
        phase.slice_len.as_secs_f64()
    ));
    report.check(phase.not_hit == 0 && phase.failed == 0, || {
        format!(
            "hit rate below 1.0: {} of {} calls missed the cache",
            phase.not_hit + phase.failed,
            phase.calls
        )
    });
    report.check(enqueued == 0, || {
        format!("the hit-only phase enqueued {enqueued} solves")
    });
    report.check(phase.over_budget == 0, || {
        format!(
            "{} calls were served above the requested ε",
            phase.over_budget
        )
    });
    audit(&mut report, &svc);

    if args.trace {
        counts.emit(&mut report);
    } else {
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_heap_mb", crate::heap::peak_mb(), "MB");
        report.served_share();
        let served = phase.calls - phase.failed;
        report.metric(
            "optimal_share",
            (served - phase.not_hit) as f64 / served.max(1) as f64,
            "ratio",
        );
        report.metric("throughput_rps", phase.rps(), "1/s");
        report.metric("latency_p50_ms", phase.latency(0.50) / 1e6, "ms");
        report.metric("latency_tail_ms", phase.latency(0.99) / 1e6, "ms");
    }
    report
}

/// Every mechanism the measured requests were served from — one cached
/// optimum per `(shard, ε)` — passes the full Geo-I spec at its ε.
fn audit(report: &mut Report, svc: &MechanismService) {
    for s in 0..SHARDS {
        let inst = svc.shard_instance(s);
        for eps in HIT_EPSILONS {
            let Some(mech) = svc.cached_mechanism(s, eps) else {
                report.check(false, || {
                    format!("no cached mechanism for shard {s} at ε={eps}")
                });
                continue;
            };
            let spec = PrivacySpec::full(&inst.aux, svc.canonical_epsilon(eps), f64::INFINITY);
            report.check(privacy::verify(&mech, &spec, 1e-6), || {
                format!("served mechanism of shard {s} at ε={eps} violates Geo-I")
            });
        }
    }
}

/// The traced run: one caller, then one caller per core contending for
/// the shard locks, then alternating replay passes over the same
/// requests with and without spans. The spans give the per-layer times;
/// the passes' throughput difference is the cost of the instrumentation
/// behind them.
fn trace_run(
    report: &mut Report,
    svc: &MechanismService,
    handle: &ServiceHandle,
    plan: &HitPlan,
    cores: usize,
    measured: Duration,
    seed: u64,
) -> Phase {
    let each = (measured / 2).min(Duration::from_secs(4));
    let mut phase = closed_loop(handle, plan, 1, each, seed);
    report.metric("service.hit_rps_1t", phase.rps(), "1/s");
    let contended = closed_loop(handle, plan, cores, each, seed);
    report.metric("service.hit_rps_nt", contended.rps(), "1/s");
    report.metric("service.hit_p50_nt_ns", contended.latency(0.50), "ns");

    let mut tracer = Tracer::new();
    let (mut bare, mut traced) = (Vec::new(), Vec::new());
    for pass in 0..REPLAY_PASSES {
        let mut rps = |with_spans: bool| {
            let took = if with_spans {
                replay_pass::<true>(&mut tracer, svc, plan, seed, pass)
            } else {
                replay_pass::<false>(&mut tracer, svc, plan, seed, pass)
            };
            REPLAYS as f64 / took.as_secs_f64()
        };
        // Alternate which kind of pass goes first.
        let spans_first = pass % 2 == 1;
        let (a, b) = (rps(spans_first), rps(!spans_first));
        let (with, without) = if spans_first { (a, b) } else { (b, a) };
        traced.push(with);
        bare.push(without);
    }
    let (bare, traced) = (median(&bare), median(&traced));
    report.metric("tracing.hit_rps_untraced", bare, "1/s");
    report.metric("tracing.hit_rps_traced", traced, "1/s");
    report.metric("tracing.hit_overhead", 1.0 - traced / bare, "ratio");
    emit_hit_path(report, &tracer);
    report.metric(
        "service.lookup_ns",
        median(&tracer.durations("service.lookup")),
        "ns",
    );
    report.metric(
        "service.self_ns",
        median(&tracer.self_times_of("service.submit")),
        "ns",
    );
    let layers = tracer.layer_self_per_trace(|_| true);
    for (metric, layer) in [
        ("self.service_ns", "service"),
        ("self.roadnet_ns", "roadnet"),
        ("self.core_ns", "core"),
    ] {
        report.metric(metric, layers.get(layer).copied().unwrap_or(0.0), "ns");
    }
    // The solves set-up made, one per (shard, ε) key, replayed.
    let mut tally = CgTally::default();
    for s in 0..SHARDS {
        let inst = svc.shard_instance(s);
        for eps in HIT_EPSILONS {
            tally.replay_full(&inst, svc.canonical_epsilon(eps));
        }
    }
    tally.emit(report);
    setup_layers(
        report,
        &inputs::small_grid(),
        SHARDS,
        inputs::DELTA,
        Engine::Full,
    );
    report.tracer = Some(tracer);
    // The run's counts and checks cover every closed-loop call.
    phase.merge(contended);
    phase
}

/// A clock read when `ON`, nothing otherwise.
#[inline(always)]
fn stamp<const ON: bool>() -> Option<Instant> {
    ON.then(Instant::now)
}

/// One replay pass over the first caller's requests: each request's
/// service call, then the same inputs through each layer's public
/// function. With `TRACED` every call sits between two clock reads and
/// becomes a span, the spans of one request sharing its trace id;
/// without, the same calls run bare. Every pass draws the same samples.
/// Returns the pass's wall time.
fn replay_pass<const TRACED: bool>(
    tracer: &mut Tracer,
    svc: &MechanismService,
    plan: &HitPlan,
    seed: u64,
    pass: usize,
) -> Duration {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 300));
    let instances: Vec<_> = (0..SHARDS).map(|s| svc.shard_instance(s)).collect();
    let partition = svc.partition();
    let stream = &plan.streams[0];
    let begin = Instant::now();
    for r in 0..REPLAYS {
        let (loc, eps) = plan.archetypes[stream[r % stream.len()] as usize];
        let t0 = stamp::<TRACED>();
        let resp = svc.submit(WorkerId(0), loc, eps, &mut rng);
        let t1 = stamp::<TRACED>();
        std::hint::black_box(resp);
        let (s, local) = partition
            .to_local(loc)
            .expect("archetypes lie on the partition");
        let t2 = stamp::<TRACED>();
        let mech: Arc<Mechanism> = svc.cached_mechanism(s, eps).expect("every key is warm");
        let t3 = stamp::<TRACED>();
        let inst = &instances[s];
        let i = inst.disc.locate(&inst.graph, local).expect("located");
        let t4 = stamp::<TRACED>();
        let j = mech.sample_interval(i, &mut rng);
        let t5 = stamp::<TRACED>();
        let out = inst.disc.transplant(&inst.graph, local, j);
        let t6 = stamp::<TRACED>();
        std::hint::black_box(out);
        if let [Some(t0), Some(t1), Some(t2), Some(t3), Some(t4), Some(t5), Some(t6)] =
            [t0, t1, t2, t3, t4, t5, t6]
        {
            let trace = (pass as u64) << 32 | r as u64;
            let root = tracer.record(trace, None, "service.submit", t0, t1 - t0);
            tracer.record(trace, Some(root), "roadnet.to_local", t1, t2 - t1);
            tracer.record(trace, Some(root), "service.lookup", t2, t3 - t2);
            tracer.record(trace, Some(root), "core.locate", t3, t4 - t3);
            tracer.record(trace, Some(root), "core.sample_interval", t4, t5 - t4);
            tracer.record(trace, Some(root), "core.transplant", t5, t6 - t5);
        }
    }
    begin.elapsed()
}
