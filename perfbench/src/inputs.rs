//! Seeded input generation. Every workload's inputs are a pure function
//! of the run seed (and of the run length, which sizes the schedule);
//! they are generated before any timing starts, and the service only
//! ever sees the generated requests.

use std::collections::HashSet;

use mobility::TripConfig;
use platform::WorkerId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use roadnet::{generators, EdgeId, Location, Partition, RoadGraph};
use vlp_bench::scenarios::{zipf_cdf, zipf_rank};
use vlp_core::{Discretization, LocalShard};

use crate::common::local_to_global_edges;

/// One request for the batch frontend: `(worker, true location, ε)`.
pub type Request = (WorkerId, Location, f64);

/// An independent seed for component `tag` of run `seed` (SplitMix64
/// finalizer over the mixed pair).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// The 4 × 6 grid (0.4 km blocks) the full-engine workloads serve:
/// four band shards of 20 intervals each at δ = 0.2.
pub fn small_grid() -> RoadGraph {
    generators::grid(4, 6, 0.4, true)
}

/// The 16 × 24 grid the local-engine workload serves: four band shards
/// of 656 intervals each at δ = 0.2.
pub fn large_grid() -> RoadGraph {
    generators::grid(16, 24, 0.4, true)
}

/// Region shards of every workload's service.
pub const SHARDS: usize = 4;
/// Interval length δ, km.
pub const DELTA: f64 = 0.2;

/// A uniformly placed point strictly inside a global edge, or `None`
/// when the edge was dropped by the partition (crosses a band
/// boundary).
fn random_on_partition(
    graph: &RoadGraph,
    partition: &Partition,
    rng: &mut StdRng,
) -> Option<(usize, Location)> {
    let e = EdgeId(rng.random_range(0..graph.edge_count()));
    let w = graph.edge(e).length();
    let loc = Location::new(e, w * (0.05 + 0.9 * rng.random::<f64>()));
    partition.to_local(loc).map(|(s, _)| (s, loc))
}

// ---------------------------------------------------------------------
// hit_stream

/// Privacy budgets (per km) the hit-stream fleet requests.
pub const HIT_EPSILONS: [f64; 3] = [2.0, 5.0, 10.0];
/// Distinct request locations per shard.
pub const HIT_LOCS_PER_SHARD: usize = 8;
/// Zipf popularity exponent over the request archetypes.
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Requests generated per caller; the closed loop cycles through them.
pub const HIT_STREAM_LEN: usize = 1 << 16;

/// Inputs of `hit_stream`.
#[derive(Debug, Clone, PartialEq)]
pub struct HitPlan {
    /// Request archetypes `(location, requested ε)` in popularity order:
    /// 8 locations per shard × 3 budgets, each ε raised by up to 0.2 so
    /// the service rounds it down onto its bucket.
    pub archetypes: Vec<(Location, f64)>,
    /// One warm-up location per shard.
    pub warm: Vec<Location>,
    /// Per caller, the archetype of each request (Zipf ranks).
    pub streams: Vec<Vec<u32>>,
}

impl HitPlan {
    /// The inputs for `callers` closed-loop callers.
    pub fn generate(seed: u64, callers: usize) -> Self {
        let graph = small_grid();
        let partition = Partition::by_bands(&graph, SHARDS);
        let to_global = local_to_global_edges(&graph, &partition);
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
        // Location j of a shard lies in the j-th eighth of the shard's
        // intervals: sampling walks a mechanism row up to the reported
        // interval, so the interval index sets a call's cost.
        let by_shard: Vec<Vec<Location>> = partition
            .shards()
            .iter()
            .enumerate()
            .map(|(s, region)| {
                let disc = Discretization::new(region.graph(), DELTA);
                let on_map: Vec<(EdgeId, f64, f64)> = disc
                    .intervals()
                    .iter()
                    .filter_map(|iv| to_global[s][iv.edge.index()].map(|e| (e, iv.x_lo, iv.x_hi)))
                    .collect();
                let n = on_map.len();
                (0..HIT_LOCS_PER_SHARD)
                    .map(|j| {
                        let lo = j * n / HIT_LOCS_PER_SHARD;
                        let hi = ((j + 1) * n / HIT_LOCS_PER_SHARD).max(lo + 1);
                        let (e, x_lo, x_hi) = on_map[rng.random_range(lo..hi)];
                        Location::new(e, x_lo + (x_hi - x_lo) * (0.1 + 0.8 * rng.random::<f64>()))
                    })
                    .collect()
            })
            .collect();
        let warm = by_shard.iter().map(|l| l[0]).collect();
        // Rank r is shard r mod 4 at budget (r / 4) mod 3, so every seed
        // spreads the load over shards and budgets alike; the seed picks
        // the points and the request sequence.
        let n = SHARDS * HIT_LOCS_PER_SHARD * HIT_EPSILONS.len();
        let archetypes: Vec<(Location, f64)> = (0..n)
            .map(|r| {
                let loc = by_shard[r % SHARDS][r / (SHARDS * HIT_EPSILONS.len())];
                let eps = HIT_EPSILONS[(r / SHARDS) % HIT_EPSILONS.len()];
                (loc, eps + 0.2 * rng.random::<f64>())
            })
            .collect();
        let cdf = zipf_cdf(n, ZIPF_EXPONENT);
        let streams = (0..callers)
            .map(|c| {
                let mut rng = StdRng::seed_from_u64(sub_seed(seed, 100 + c as u64));
                (0..HIT_STREAM_LEN)
                    .map(|_| zipf_rank(&cdf, rng.random()) as u32)
                    .collect()
            })
            .collect();
        Self {
            archetypes,
            warm,
            streams,
        }
    }
}

// ---------------------------------------------------------------------
// cold_local

/// Assignment radius ρ of the local engine's ρ-net, km.
pub const COLD_RHO: f64 = 0.2;
/// Geo-I protection radius r, km. Supports are ρ + r = 0.6 km balls:
/// k from 16 to 33 intervals on [`large_grid`].
pub const COLD_RADIUS: f64 = 0.4;
/// ε of the keys solved during set-up, which batch hits land on.
pub const COLD_WARM_EPSILON: f64 = 10.0;
/// Warm keys per shard.
pub const COLD_WARM_PER_SHARD: usize = 2;
/// Requests per batch that land on warm keys.
pub const COLD_HITS_PER_BATCH: usize = 14;
/// Requests per batch on the batch's new key: the second coalesces
/// onto the first's solve.
pub const COLD_REQUESTS_PER_NEW_KEY: usize = 2;

/// One `(shard, neighborhood, ε)` cache key of the local engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalKey {
    /// Region shard.
    pub shard: usize,
    /// ρ-net neighborhood.
    pub nb: u32,
    /// Canonical ε (a multiple of the service's bucket width).
    pub epsilon: f64,
    /// Support size of the neighborhood.
    pub k: usize,
}

impl LocalKey {
    fn id(&self) -> (usize, u32, u64) {
        (self.shard, self.nb, self.epsilon.to_bits())
    }
}

/// One closed-loop batch: requests for one new key, then hits.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdBatch {
    /// The key no earlier batch has solved.
    pub key: LocalKey,
    /// [`COLD_REQUESTS_PER_NEW_KEY`] requests on `key`, then
    /// [`COLD_HITS_PER_BATCH`] requests on warm keys.
    pub requests: Vec<Request>,
}

/// Inputs of `cold_local`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdPlan {
    /// Keys solved during set-up.
    pub warm_keys: Vec<LocalKey>,
    /// One request per warm key.
    pub warm: Vec<Request>,
    /// The measured one-new-key batches.
    pub batches: Vec<ColdBatch>,
    /// The burst batches that end the run.
    pub bursts: Vec<Burst>,
}

/// One batch of many cold keys.
#[derive(Debug, Clone, PartialEq)]
pub struct Burst {
    /// Its keys, none solved before.
    pub keys: Vec<LocalKey>,
    /// Every key twice, plus hits, shuffled.
    pub requests: Vec<Request>,
}

/// The local engine's view of [`large_grid`]: per shard, per
/// neighborhood, the global-frame intervals assigned to it.
struct LocalMap {
    /// `assigned[s][nb]` = `(global edge, x_lo, x_hi)` of every interval
    /// of shard `s` served by neighborhood `nb` that lies on a road of
    /// the original map.
    assigned: Vec<Vec<Vec<(EdgeId, f64, f64)>>>,
    /// `k[s][nb]` = support size.
    k: Vec<Vec<usize>>,
}

impl LocalMap {
    fn build() -> Self {
        let graph = large_grid();
        let partition = Partition::by_bands(&graph, SHARDS);
        let to_global = local_to_global_edges(&graph, &partition);
        let mut assigned = Vec::new();
        let mut k = Vec::new();
        for (s, region) in partition.shards().iter().enumerate() {
            let shard = LocalShard::uniform(region.graph().clone(), DELTA, COLD_RHO, COLD_RADIUS);
            let n_nb = shard.plan().neighborhood_count();
            let mut per_nb = vec![Vec::new(); n_nb];
            for (i, interval) in shard.disc().intervals().iter().enumerate() {
                if let Some(e) = to_global[s][interval.edge.index()] {
                    per_nb[shard.neighborhood_of(i) as usize].push((
                        e,
                        interval.x_lo,
                        interval.x_hi,
                    ));
                }
            }
            k.push((0..n_nb as u32).map(|nb| shard.members(nb).len()).collect());
            assigned.push(per_nb);
        }
        Self { assigned, k }
    }

    /// A random point strictly inside a random interval served by `key`.
    fn point(&self, key: &LocalKey, rng: &mut StdRng) -> Location {
        let intervals = &self.assigned[key.shard][key.nb as usize];
        let (e, lo, hi) = intervals[rng.random_range(0..intervals.len())];
        Location::new(e, lo + (hi - lo) * (0.1 + 0.8 * rng.random::<f64>()))
    }

    /// A random servable neighborhood of support `k` (on shard `shard`,
    /// when given) with no key at `epsilon` in `used`.
    fn fresh_key(
        &self,
        k: usize,
        epsilon: f64,
        shard: Option<usize>,
        used: &mut HashSet<(usize, u32, u64)>,
        rng: &mut StdRng,
    ) -> LocalKey {
        let pool: Vec<(usize, u32)> = (0..SHARDS)
            .filter(|&s| shard.is_none_or(|only| only == s))
            .flat_map(|s| (0..self.k[s].len() as u32).map(move |nb| (s, nb)))
            .filter(|&(s, nb)| {
                self.k[s][nb as usize] == k
                    && !self.assigned[s][nb as usize].is_empty()
                    && !used.contains(&(s, nb, epsilon.to_bits()))
            })
            .collect();
        assert!(!pool.is_empty(), "no unused key with k={k} at ε={epsilon}");
        let (shard, nb) = pool[rng.random_range(0..pool.len())];
        let key = LocalKey {
            shard,
            nb,
            epsilon,
            k,
        };
        used.insert(key.id());
        key
    }
}

/// The new keys of one repetition, as `(support size k, ε, count)`, in
/// three cost groups (solve times on a 2-core reference machine). The
/// mix is the same for every seed — the seed picks the neighborhoods,
/// the request points and the order — and each group is large enough
/// that `solve_p50_ms` falls inside the middle group and
/// `solve_tail_ms` inside the top group, not on a boundary between
/// groups.
const COLD_MIX: [(usize, f64, usize); 9] = [
    // 20–70 ms.
    (16, 5.0, 2),
    (16, 10.0, 2),
    (20, 10.0, 2),
    (22, 10.0, 2),
    // About 210 ms.
    (23, 5.0, 6),
    (20, 2.0, 4),
    // 350–400 ms, from the largest supports.
    (33, 10.0, 4),
    (32, 10.0, 2),
    (22, 2.0, 2),
];

/// Repetitions of [`COLD_MIX`] the map has unused keys for.
pub const COLD_MAX_REPS: usize = 6;

/// A burst's keys, the same on every shard, so that no shard's solver
/// workers become the burst's long pole by chance.
const BURST_MIX: [(usize, f64); 2] = [(33, 10.0), (23, 5.0)];

/// Burst batches in a run; `burst_s` is their median.
pub const COLD_BURSTS: usize = 6;

impl ColdPlan {
    /// The inputs for `reps` repetitions of the key mix.
    ///
    /// # Panics
    ///
    /// Panics if `reps` exceeds [`COLD_MAX_REPS`].
    pub fn generate(seed: u64, reps: usize) -> Self {
        assert!(reps <= COLD_MAX_REPS, "at most {COLD_MAX_REPS} repetitions");
        let map = LocalMap::build();
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
        let mut used: HashSet<(usize, u32, u64)> = HashSet::new();
        let mut worker = 0usize;
        let mut next_worker = || {
            worker += 1;
            WorkerId(worker)
        };
        // A requested ε inside the key's bucket (width 0.25).
        let request_eps = |epsilon: f64, rng: &mut StdRng| epsilon + 0.2 * rng.random::<f64>();

        // Warm keys: per shard, neighborhoods of the smallest support at
        // the warm ε.
        let smallest = COLD_MIX[0].0;
        let warm_keys: Vec<LocalKey> = (0..SHARDS)
            .flat_map(|s| std::iter::repeat_n(s, COLD_WARM_PER_SHARD))
            .map(|s| map.fresh_key(smallest, COLD_WARM_EPSILON, Some(s), &mut used, &mut rng))
            .collect();
        let warm = warm_keys
            .iter()
            .map(|key| (next_worker(), map.point(key, &mut rng), key.epsilon))
            .collect();
        let hit = |rng: &mut StdRng| {
            let key = warm_keys[rng.random_range(0..warm_keys.len())];
            (map.point(&key, rng), request_eps(COLD_WARM_EPSILON, rng))
        };

        let mut keys = Vec::new();
        for _ in 0..reps {
            for &(k, eps, count) in &COLD_MIX {
                for _ in 0..count {
                    keys.push(map.fresh_key(k, eps, None, &mut used, &mut rng));
                }
            }
        }
        shuffle(&mut keys, &mut rng);
        let mut batches = Vec::with_capacity(keys.len());
        for key in keys {
            let mut requests = Vec::new();
            for _ in 0..COLD_REQUESTS_PER_NEW_KEY {
                requests.push((
                    next_worker(),
                    map.point(&key, &mut rng),
                    request_eps(key.epsilon, &mut rng),
                ));
            }
            for _ in 0..COLD_HITS_PER_BATCH {
                let (loc, eps) = hit(&mut rng);
                requests.push((next_worker(), loc, eps));
            }
            batches.push(ColdBatch { key, requests });
        }

        let mut bursts = Vec::with_capacity(COLD_BURSTS);
        for _ in 0..COLD_BURSTS {
            let keys: Vec<LocalKey> = (0..SHARDS)
                .flat_map(|s| BURST_MIX.iter().map(move |&(k, eps)| (s, k, eps)))
                .map(|(s, k, eps)| map.fresh_key(k, eps, Some(s), &mut used, &mut rng))
                .collect();
            let mut requests = Vec::new();
            for key in &keys {
                for _ in 0..COLD_REQUESTS_PER_NEW_KEY {
                    requests.push((
                        next_worker(),
                        map.point(key, &mut rng),
                        request_eps(key.epsilon, &mut rng),
                    ));
                }
            }
            for _ in 0..COLD_HITS_PER_BATCH {
                let (loc, eps) = hit(&mut rng);
                requests.push((next_worker(), loc, eps));
            }
            shuffle(&mut requests, &mut rng);
            bursts.push(Burst { keys, requests });
        }
        Self {
            warm_keys,
            warm,
            batches,
            bursts,
        }
    }
}

// ---------------------------------------------------------------------
// fleet_rounds

/// Vehicles in the fleet.
pub const FLEET_VEHICLES: usize = 128;
/// Tasks published per round.
pub const FLEET_TASKS_PER_ROUND: usize = 24;

/// Inputs of `fleet_rounds`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    /// One warm-up location per shard.
    pub warm: Vec<Location>,
    /// `positions[round][vehicle]` = (true location, speed estimate in
    /// km/h from the vehicle's previous report).
    pub positions: Vec<Vec<(Location, f64)>>,
    /// `tasks[round]` = `(shard, interval)` of each task published.
    pub tasks: Vec<Vec<(usize, usize)>>,
}

impl FleetPlan {
    /// Trip-structured traces of [`FLEET_VEHICLES`] vehicles on
    /// [`small_grid`] for `rounds` rounds, and the tasks of each round.
    ///
    /// A vehicle that is on a road the partition dropped (one crossing
    /// a band boundary) reports the road's starting connection, on an
    /// incoming road of its home shard, as a client snapping to its
    /// region would.
    pub fn generate(seed: u64, rounds: usize) -> Self {
        let graph = small_grid();
        let partition = Partition::by_bands(&graph, SHARDS);
        let snap: Vec<Option<Location>> = (0..graph.edge_count())
            .map(|e| {
                let edge = graph.edge(EdgeId(e));
                match partition.to_local(Location::new(EdgeId(e), 0.0)) {
                    Some(_) => None,
                    None => graph
                        .in_edges(edge.start())
                        .iter()
                        .map(|&inc| Location::new(inc, 0.0))
                        .find(|&loc| {
                            partition
                                .to_local(loc)
                                .is_some_and(|(s, _)| s == partition.shard_of_edge(EdgeId(e)))
                        }),
                }
            })
            .collect();
        let cfg = TripConfig {
            reports: rounds + 1,
            ..TripConfig::default()
        };
        let traces: Vec<Vec<(Location, f64)>> = (0..FLEET_VEHICLES)
            .map(|v| {
                let trace =
                    mobility::generate_trip_trace(&graph, &cfg, sub_seed(seed, 1_000 + v as u64));
                (1..=rounds)
                    .map(|t| {
                        let (prev, here) = (trace.locations[t - 1], trace.locations[t]);
                        let dt_h = (trace.timestamps[t] - trace.timestamps[t - 1]) / 3600.0;
                        let speed = if dt_h > 0.0 {
                            prev.euclidean(here, &graph) / dt_h
                        } else {
                            0.0
                        };
                        let reported = match partition.to_local(here) {
                            Some(_) => here,
                            None => snap[here.edge().index()]
                                .expect("a crossing road's start has an in-shard incoming road"),
                        };
                        (reported, speed)
                    })
                    .collect()
            })
            .collect();
        let positions = (0..rounds)
            .map(|r| traces.iter().map(|t| t[r]).collect())
            .collect();
        let sizes: Vec<usize> = partition
            .shards()
            .iter()
            .map(|s| Discretization::new(s.graph(), DELTA).len())
            .collect();
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
        let mut warm = vec![None; SHARDS];
        while warm.iter().any(Option::is_none) {
            if let Some((s, loc)) = random_on_partition(&graph, &partition, &mut rng) {
                warm[s].get_or_insert(loc);
            }
        }
        let tasks = (0..rounds)
            .map(|_| {
                (0..FLEET_TASKS_PER_ROUND)
                    .map(|_| {
                        let s = rng.random_range(0..SHARDS);
                        (s, rng.random_range(0..sizes[s]))
                    })
                    .collect()
            })
            .collect();
        Self {
            warm: warm.into_iter().flatten().collect(),
            positions,
            tasks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        assert_eq!(HitPlan::generate(7, 2), HitPlan::generate(7, 2));
        assert_ne!(HitPlan::generate(7, 2), HitPlan::generate(8, 2));
        assert_eq!(ColdPlan::generate(7, 1), ColdPlan::generate(7, 1));
        assert_ne!(ColdPlan::generate(7, 1), ColdPlan::generate(8, 1));
        assert_eq!(FleetPlan::generate(7, 5), FleetPlan::generate(7, 5));
        assert_ne!(FleetPlan::generate(7, 5), FleetPlan::generate(8, 5));
    }

    #[test]
    fn cold_keys_are_distinct_and_follow_the_mix() {
        let plan = ColdPlan::generate(3, 2);
        let mut ids: Vec<_> = plan
            .warm_keys
            .iter()
            .chain(plan.batches.iter().map(|b| &b.key))
            .chain(plan.bursts.iter().flat_map(|b| &b.keys))
            .map(LocalKey::id)
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "no key is solved twice");
        let mut ks: Vec<usize> = plan.batches.iter().map(|b| b.key.k).collect();
        ks.sort_unstable();
        ks.dedup();
        assert_eq!(ks, vec![16, 20, 22, 23, 32, 33]);
        // The longest schedule still finds unused keys.
        ColdPlan::generate(3, COLD_MAX_REPS);
    }

    #[test]
    fn every_fleet_report_lies_on_the_partition() {
        let graph = small_grid();
        let partition = Partition::by_bands(&graph, SHARDS);
        let plan = FleetPlan::generate(11, 40);
        assert!(plan
            .positions
            .iter()
            .flatten()
            .all(|&(loc, speed)| partition.to_local(loc).is_some() && speed >= 0.0));
    }
}
