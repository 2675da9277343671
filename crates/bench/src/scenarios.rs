//! Shared scenario builders: maps, fleets, instances, and metrics.

use std::sync::Once;
use std::time::{Duration, Instant};

use adversary::bayes;
use mobility::{estimate_prior, generate_fleet, TraceConfig, VehicleTrace};
use platform::MechanismService;
use roadnet::{generators, EdgeId, Location, RoadGraph};
use vlp_core::baseline::two_d;
use vlp_core::{
    privacy, CgDiagnostics, CgOptions, Discretization, Mechanism, Prior, PrivacySpec, VlpInstance,
};

/// Keeps the default panic report of injected chaos panics (payloads
/// containing `chaos:`) off the console, so real panics stand out.
/// Injected pricing panics unwind through the solver workers'
/// `catch_unwind` by design. Installs the hook once per process.
pub fn quiet_chaos_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if msg.is_some_and(|m| m.contains("chaos:")) {
                return;
            }
            default_hook(info);
        }));
    });
}

/// The privacy audit of a service's live state: every mechanism it can
/// serve from — cached optima at any quality tier, stale entries,
/// fallbacks — passes `privacy::verify` against its Geo-I constraint
/// set at its canonical ε. In full-shard mode that is the whole-shard
/// spec; in locally-relevant mode, the neighborhood's unreduced
/// restricted spec (full-graph `d_min` exponents over the neighborhood
/// support). Returns the number of mechanisms audited.
///
/// # Panics
///
/// Panics, naming `when`, on the first mechanism that fails.
pub fn audit_live(svc: &MechanismService, when: &str) -> u64 {
    let live = svc.live_mechanisms_keyed();
    for (s, nb, eps, mechanism) in &live {
        let spec = match svc.local_shard(*s) {
            Some(shard) => shard.audit_spec(*nb, *eps),
            None => PrivacySpec::full(&svc.shard_instance(*s).aux, *eps, f64::INFINITY),
        };
        assert!(
            privacy::verify(mechanism, &spec, 1e-6),
            "{when}: shard {s} neighborhood {nb} mechanism at ε={eps} violates Geo-I"
        );
    }
    live.len() as u64
}

/// Smoothing mass used when histogramming traces into priors.
pub const PRIOR_SMOOTHING: f64 = 0.1;

/// The early-stopping threshold §5.1 settles on (`ξ = −0.3`), rescaled
/// here because our synthetic maps have kilometre-scale losses: we use
/// a small fraction of the quality-loss scale instead of an absolute
/// −0.3.
pub const DEFAULT_XI: f64 = -1e-4;

/// Quality-of-service and privacy metrics for one mechanism on one
/// instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Expected traveling-distance distortion (quality loss), km.
    pub etdd: f64,
    /// Expected adversary error under the optimal Bayesian attack, km.
    pub adv_error: f64,
}

/// The Rome-like simulation map (§5.1 substitution): ring-and-radial
/// city with a one-way historic centre and 1/r density falloff
/// (~13 km of directed road — sized so the δ-sweeps stay tractable on
/// one core; the paper's absolute scales are not reproduced, shapes
/// are).
pub fn rome_graph() -> RoadGraph {
    generators::rome_like(2, 5, 0.25, 2019)
}

/// The pilot study's Region A (rural) map.
pub fn region_a() -> RoadGraph {
    generators::campus_region_a()
}

/// The pilot study's Region B (downtown) map.
pub fn region_b() -> RoadGraph {
    generators::campus_region_b()
}

/// Generates a taxi fleet on `graph` (downtown-biased random walks, 7 s
/// reporting period as in the CRAWDAD traces).
pub fn fleet(graph: &RoadGraph, n_vehicles: usize, reports: usize, seed: u64) -> Vec<VehicleTrace> {
    let cfg = TraceConfig {
        reports,
        ..TraceConfig::default()
    };
    generate_fleet(graph, &cfg, n_vehicles, seed)
}

/// Builds a per-cab VLP instance: `f_P` estimated from the cab's own
/// records, `f_Q` from the whole fleet's records (§5.1 assumes the
/// task/customer distribution equals the distribution of all cabs).
///
/// # Panics
///
/// Panics if the traces cannot be located on `graph` (wrong map).
pub fn cab_instance(
    graph: &RoadGraph,
    delta: f64,
    cab: &VehicleTrace,
    all: &[VehicleTrace],
) -> VlpInstance {
    let disc = Discretization::new(graph, delta);
    let f_p = estimate_prior(graph, &disc, std::slice::from_ref(cab), PRIOR_SMOOTHING)
        .expect("cab trace must be locatable");
    let f_q =
        estimate_prior(graph, &disc, all, PRIOR_SMOOTHING).expect("fleet traces must be locatable");
    VlpInstance::new(graph.clone(), delta, f_p, f_q)
}

/// Builds an instance whose task prior is concentrated on explicit task
/// intervals (used by the pilot-study experiments that deploy `n`
/// tasks).
pub fn instance_with_tasks(
    graph: &RoadGraph,
    delta: f64,
    f_p: Prior,
    task_intervals: &[usize],
) -> VlpInstance {
    let disc = Discretization::new(graph, delta);
    let mut w = vec![0.0; disc.len()];
    for &t in task_intervals {
        w[t] += 1.0;
    }
    let f_q = Prior::from_weights(&w).expect("at least one task");
    VlpInstance::new(graph.clone(), delta, f_p, f_q)
}

/// Column-generation options used throughout the experiments.
pub fn cg_options(xi: f64) -> CgOptions {
    CgOptions {
        xi,
        max_iterations: 25,
        parallel: true,
        gap_tol: 0.02,
        ..CgOptions::default()
    }
}

/// Solves our road-network mechanism on `inst` at privacy level
/// `epsilon` (per km) with unbounded protection radius.
pub fn solve_ours(inst: &VlpInstance, epsilon: f64, xi: f64) -> (Mechanism, f64, CgDiagnostics) {
    let solved = inst
        .solve(epsilon, f64::INFINITY, &cg_options(xi))
        .expect("our solver must succeed on generated instances");
    (solved.mechanism, solved.quality_loss, solved.diagnostics)
}

/// Solves the 2Db baseline (Euclidean optimal mechanism, spanner
/// stretch 1.5 as in Bordenabe et al.) on the same interval set.
pub fn solve_2db(inst: &VlpInstance, epsilon: f64) -> Mechanism {
    // The Euclidean-spanner master is more degenerate than the road
    // one; give the baseline a larger iteration budget so the
    // comparison is not won by solver starvation (EXPERIMENTS.md
    // discusses the residual fairness caveat).
    let opts = CgOptions {
        max_iterations: 40,
        ..cg_options(DEFAULT_XI)
    };
    two_d::solve_2db(
        &inst.graph,
        &inst.disc,
        inst.f_p.as_slice(),
        epsilon,
        1.5,
        &opts,
    )
    .expect("2Db baseline must solve")
    .mechanism
}

/// Evaluates a mechanism on an instance: road-network ETDD against the
/// instance's cost matrix and AdvError under the optimal Bayesian
/// attack.
pub fn evaluate(inst: &VlpInstance, mech: &Mechanism) -> Metrics {
    Metrics {
        etdd: mech.quality_loss(&inst.cost),
        adv_error: bayes::adv_error(mech, &inst.f_p, &inst.interval_dists),
    }
}

/// Deterministically picks `n` distinct task intervals spread over the
/// map (stride sampling — reproducible without an RNG).
pub fn spread_tasks(k: usize, n: usize) -> Vec<usize> {
    assert!(n > 0 && n <= k, "need 1..=K tasks");
    (0..n).map(|t| t * k / n).collect()
}

// ---------------------------------------------------------------------
// Serving-workload helpers shared by the service bench binaries
// (`bench_service`, `bench_load`, `bench_chaos`, `bench_local`). These
// were once copy-pasted per binary; the committed bench artifacts pin
// their exact behavior, so changes here are changes to every gate.

/// One on-map request location per `(shard, slot)`: up to `per_shard`
/// slots for each of the service's region shards, filled by scanning
/// edge ids in order and probing 5% along each edge.
///
/// # Panics
///
/// Panics if any shard ends up with no request location (a map too
/// small for the shard count).
pub fn shard_locations(
    svc: &MechanismService,
    graph_edges: usize,
    per_shard: usize,
) -> Vec<Vec<Location>> {
    let mut by_shard: Vec<Vec<Location>> = vec![Vec::new(); svc.shard_count()];
    for e in 0..graph_edges {
        let loc = Location::new(EdgeId(e), 0.05);
        if let Some((s, _)) = svc.partition().to_local(loc) {
            if by_shard[s].len() < per_shard {
                by_shard[s].push(loc);
            }
        }
    }
    for (s, locs) in by_shard.iter().enumerate() {
        assert!(!locs.is_empty(), "no request location found for shard {s}");
    }
    by_shard
}

/// Round-robin interleaving of [`shard_locations`] so consecutive
/// requests rotate across shards — the canonical fleet shape of
/// `bench_service` and `bench_chaos`, where every batch must touch
/// every shard.
pub fn fleet_locations(
    svc: &MechanismService,
    graph_edges: usize,
    per_shard: usize,
) -> Vec<Location> {
    let by_shard = shard_locations(svc, graph_edges, per_shard);
    let mut out = Vec::new();
    for slot in 0..per_shard {
        for locs in &by_shard {
            out.push(locs[slot % locs.len()]);
        }
    }
    out
}

/// The Zipf cumulative distribution over `n` ranks with popularity
/// exponent `exponent`: entry `r` is the probability of drawing a rank
/// `≤ r`.
pub fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-exponent)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Maps one uniform draw `u ∈ [0, 1)` to its Zipf rank through the CDF
/// (inverse-transform sampling; clamped so `u = 1.0` stays in range).
pub fn zipf_rank(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Latency percentile by nearest-rank over a sorted sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    assert!(!sorted.is_empty(), "no latency samples");
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Open-loop arrival pacing: blocks until `due`, sleeping while far
/// ahead of schedule and spinning the final stretch so arrival jitter
/// stays in the low microseconds. Callers measure latency from `due`,
/// not from the return of this function, so a slow service inflates
/// the recorded tail instead of silently slowing the generator down
/// (no coordinated omission).
pub fn pace_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let ahead = due - now;
        if ahead > Duration::from_micros(200) {
            std::thread::sleep(ahead - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rome_scenario_builds_and_solves() {
        let g = rome_graph();
        let traces = fleet(&g, 3, 150, 1);
        let inst = cab_instance(&g, 0.4, &traces[0], &traces);
        assert!(inst.len() > 10);
        let (mech, etdd, _) = solve_ours(&inst, 5.0, -1e-3);
        let m = evaluate(&inst, &mech);
        assert!((m.etdd - etdd).abs() < 1e-6);
        assert!(m.adv_error > 0.0);
    }

    #[test]
    fn spread_tasks_are_distinct_and_in_range() {
        let t = spread_tasks(100, 7);
        assert_eq!(t.len(), 7);
        let mut u = t.clone();
        u.dedup();
        assert_eq!(u.len(), 7);
        assert!(t.iter().all(|&x| x < 100));
    }

    #[test]
    fn zipf_cdf_is_monotone_and_normalized() {
        let cdf = zipf_cdf(96, 1.1);
        assert_eq!(cdf.len(), 96);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        assert!((cdf[95] - 1.0).abs() < 1e-12);
        // Heavier head than uniform: rank 0 alone beats 1/96.
        assert!(cdf[0] > 1.0 / 96.0);
    }

    /// Pins the same-seed rank sequence the open-loop generators draw:
    /// any change to the CDF construction, the inverse-transform
    /// mapping, or the RNG stream shows up here before it silently
    /// shifts a committed bench artifact.
    #[test]
    fn zipf_same_seed_rank_sequence_is_pinned() {
        use rand::{RngExt, SeedableRng};
        let cdf = zipf_cdf(96, 1.1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(20_260_807);
        let ranks: Vec<usize> = (0..12)
            .map(|_| {
                let u: f64 = rng.random();
                zipf_rank(&cdf, u)
            })
            .collect();
        assert_eq!(ranks, vec![8, 7, 1, 0, 1, 13, 55, 1, 21, 70, 46, 3]);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let sorted: Vec<Duration> = (1..=10).map(Duration::from_micros).collect();
        assert_eq!(percentile(&sorted, 0.0), Duration::from_micros(1));
        assert_eq!(percentile(&sorted, 0.50), Duration::from_micros(6));
        assert_eq!(percentile(&sorted, 1.0), Duration::from_micros(10));
    }

    #[test]
    fn fleet_locations_interleave_all_shards() {
        let g = generators::grid(3, 4, 0.4, true);
        let n_edges = g.edge_count();
        let svc = MechanismService::new(g, platform::ServiceConfig::default());
        let shards = svc.shard_count();
        let fleet = fleet_locations(&svc, n_edges, 3);
        assert_eq!(fleet.len(), 3 * shards);
        // Each consecutive window of `shards` requests covers every shard.
        for window in fleet.chunks(shards) {
            let mut seen: Vec<usize> = window
                .iter()
                .map(|&loc| svc.partition().to_local(loc).unwrap().0)
                .collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), shards);
        }
    }

    #[test]
    fn instance_with_tasks_masses_only_tasks() {
        let g = region_b();
        let disc = Discretization::new(&g, 0.11);
        let k = disc.len();
        let inst = instance_with_tasks(&g, 0.11, Prior::uniform(k), &[0, 3]);
        assert!(inst.f_q.get(0) > 0.0);
        assert!(inst.f_q.get(1) == 0.0);
    }
}
