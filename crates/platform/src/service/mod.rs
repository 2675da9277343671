//! The sharded mechanism-serving layer: many regions, one service.
//!
//! A city-scale deployment does not solve one giant D-VLP over the
//! whole map — it partitions the road network into region shards
//! ([`roadnet::Partition`]), poses an independent instance per shard,
//! and serves vehicles from whichever shard they drive in.
//! [`MechanismService`] is that serving layer, built on an always-on
//! pipelined core (the private `core` submodule):
//!
//! * **Sharding** — the graph is split into bands of near-equal node
//!   count; each shard owns its own solve engine (a [`LocalShard`]:
//!   discretization, neighborhood plan, and in full mode a dense
//!   [`VlpInstance`] with interval distances and cost matrix), its own
//!   routing table, its own bounded solve queue, and its own task
//!   queue.
//! * **Caller-path serving** — solved mechanisms are cached per
//!   `(shard, ε-bucket)` in a per-shard bounded LRU. A cache hit is
//!   served on the caller path — one short per-shard lock, one `Arc`
//!   refcount bump — and never enters a solve queue. Requested budgets
//!   are rounded *down* to the bucket grid, so the cached mechanism is
//!   always at least as private as requested.
//! * **Pipelined solving** — cache misses are enqueued onto the
//!   owning shard's bounded MPSC queue and solved by long-lived
//!   per-shard worker threads; while the optimum is in flight the
//!   request is served from the closed-form graph-Laplace baseline
//!   ([`LocalShard::fallback_neighborhood`]) at the same canonical ε.
//!   Duplicate misses coalesce onto the in-flight solve.
//! * **Admission control** — when a solve cannot be admitted (queue
//!   full, open breaker, blackout, shutdown), the service sheds
//!   explicitly: it serves a stale or previously built mechanism if it
//!   has one, and otherwise returns [`Response::Rejected`] — bounded
//!   queues and honest backpressure instead of unbounded queueing.
//! * **Assignment** — obfuscated reports feed a Hungarian-matching
//!   snapshot per shard ([`MechanismService::snapshot`]); a one-shard
//!   service is the paper's single-region server (see
//!   [`crate::Simulation`]).
//!
//! # One ladder, two timings
//!
//! Every rule of the serving ladder — routing a request to its cache
//! slot, the per-key admission decision (breaker, half-open probe,
//! blackout), applying a solve outcome, the degraded serve, and the
//! epoch advance — is implemented once, in the core. The two frontends
//! differ only in *when* the rules apply.
//!
//! [`MechanismService::submit`] (and the cloneable, thread-safe
//! [`ServiceHandle`]) is the open-loop API vehicles hit individually:
//! it returns immediately with a served mechanism or an explicit
//! rejection, while solver workers warm the cache behind it and apply
//! each outcome as they publish it. [`MechanismService::tick`]
//! advances the logical epoch (breaker cooldowns, chaos schedule,
//! metric flush); `bench_load` drives this path at tens of thousands
//! of requests per second.
//!
//! [`MechanismService::obfuscate_batch`] is the synchronous batch API:
//! it decides every distinct miss against the breaker state at batch
//! start, feeds the admitted misses through the same worker queues in
//! *reply mode* (workers return outcomes instead of publishing them),
//! applies every outcome in sorted key order, and serves. Whether
//! fresh solves are served optimally is a **logical** deadline
//! decision — [`ServiceConfig::solve_deadline`] `ZERO` means "serve
//! cold requests from the fallback", anything else means "wait for
//! this batch's solves" — so batch outputs are bit-reproducible on
//! arbitrarily slow machines (no wall-clock race).
//!
//! # The resilience ladder
//!
//! Failure is a first-class input: solver errors, pricing panics,
//! shard blackouts, cache purges, and deadline jitter can all be
//! scripted deterministically through [`vlp_obs::failpoint`]
//! ([`ServiceConfig::chaos`]), and the service climbs a fixed ladder
//! of degradations to survive them — each rung trades more *quality*,
//! never privacy (see `OPERATIONS.md` for the full runbook):
//!
//! 1. **Retry** — a failed or panicking solve is retried up to
//!    [`ResilienceConfig::max_attempts`] times with deterministic
//!    exponential backoff plus seeded jitter;
//! 2. **Circuit breaker** — each shard carries a
//!    closed → open → half-open breaker ([`BreakerState`]); after
//!    [`ResilienceConfig::breaker_threshold`] consecutive solve
//!    failures the shard's solves are shed entirely for
//!    [`ResilienceConfig::breaker_cooldown`] epochs, then probed with
//!    a single solve before re-closing;
//! 3. **Stale serving** — mechanisms displaced from the cache
//!    (LRU eviction, prior invalidation, evict storms) are demoted to
//!    a bounded *stale* store instead of dropped; when a solve fails
//!    or is shed, the stale mechanism is served with explicit
//!    staleness accounting ([`Served::Stale`]) — it was solved at the
//!    same canonical ε against the same interval graph, so it is
//!    exactly as private as a fresh optimum, merely suboptimal;
//! 4. **Fallback** — with nothing cached and nothing stale, the
//!    closed-form graph-Laplace fallback serves at the same ε, as
//!    before — except under backpressure, where a completely cold key
//!    is rejected rather than spending solve work the shard cannot
//!    afford.
//!
//! The invariant at every rung: **the served mechanism satisfies
//! full-spec ε-Geo-I at the canonical ε**. With no faults injected the
//! ladder is inert and the service behaves bit-identically to the
//! ladder-free implementation (`bench_chaos` gates this in CI).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use rand::RngExt;
use roadnet::{Location, Partition, RoadGraph};
use vlp_core::{CgOptions, LocalShard, Mechanism, Prior, QualityTier, VlpInstance};
use vlp_obs::failpoint::{site, FaultPlan};

use crate::snapshot::assign_snapshot;
use crate::{SnapshotOutcome, Task, TaskId, WorkerId};

pub(crate) mod core;
mod ladder;
mod trace;

use core::{lock, CoreShared, Routed, ServingCore, ShardStats};
use ladder::{MechKey, MissOutcome};

pub use core::ShutdownReport;
pub use ladder::BreakerState;
pub use trace::{TraceBudgetConfig, VelocityEpsilon};

/// Telemetry metric names recorded by [`MechanismService`], declared
/// in [`vlp_obs::schema::service`], plus the helpers that pick a name
/// by quality tier or format one per shard.
pub mod metrics {
    pub use vlp_obs::schema::service::*;

    /// The per-tier served counter for `tier` — one of the three
    /// `service.tier.<tier>.served` names.
    pub fn tier_served_metric(tier: vlp_core::QualityTier) -> &'static str {
        use vlp_core::QualityTier;
        match tier {
            QualityTier::Exact => TIER_EXACT_SERVED,
            QualityTier::Clustered => TIER_CLUSTERED_SERVED,
            QualityTier::Laplace => TIER_LAPLACE_SERVED,
        }
    }

    /// Series name recording shard `s`'s breaker state once per epoch:
    /// `0` closed, `1` half-open, `2` open. Part of the service's
    /// health snapshot in the `vlp-obs` schema.
    pub fn breaker_state_series(s: usize) -> String {
        format!("{BREAKER_STATE}{s}")
    }

    /// Series name sampling shard `s`'s in-flight solve count (queued
    /// plus running) once per epoch.
    pub fn queue_depth_series(s: usize) -> String {
        format!("{QUEUE_DEPTH}{s}")
    }
}

/// Configuration for [`MechanismService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of region shards to partition the map into.
    pub n_shards: usize,
    /// Interval length δ for each shard's discretization, km.
    pub delta: f64,
    /// Geo-I protection radius, km.
    pub radius: f64,
    /// Column-generation options for cache-miss solves.
    pub cg: CgOptions,
    /// Width of the ε cache buckets (per km). A requested ε is rounded
    /// *down* to a multiple of this width, so the served mechanism is
    /// never less private than asked for. Requests below one bucket
    /// width are rejected.
    pub epsilon_bucket: f64,
    /// Maximum number of ε-bucket mechanisms kept in *each shard's*
    /// LRU cache.
    pub cache_capacity: usize,
    /// Bound on each shard's solve queue. A miss that finds the queue
    /// full is shed (served degraded, or rejected when cold) instead
    /// of blocking — explicit backpressure.
    pub queue_capacity: usize,
    /// Whether `obfuscate_batch` serves its own fresh solves
    /// optimally. This is a *logical* deadline: `ZERO` means "never
    /// wait" — every cold request is served from the fallback (the
    /// solves still complete and populate the cache before the call
    /// returns); any nonzero value means the batch waits for its
    /// admitted solves and serves them optimally. No wall clock is
    /// raced, so batch outputs are identical on fast and slow machines;
    /// injected deadline jitter flips a batch to "never wait".
    pub solve_deadline: Duration,
    /// Long-lived solver worker threads *per shard*.
    pub solver_threads: usize,
    /// Retry, breaker, and stale-store tuning for the resilience
    /// ladder (see the [module docs](self)).
    pub resilience: ResilienceConfig,
    /// Opt-in locally-relevant solve mode. `None` (the default) serves
    /// each shard as one whole-shard neighborhood — the paper's
    /// region-wide D-VLP, one `O(K²)` LP per `(shard, ε-bucket)` on a
    /// dense instance built at boot. `Some` restricts every solve to
    /// the ρ-net neighborhood covering the reporting vehicle — an
    /// `O(k²)` LP over the `k ≪ K` intervals within road-network reach
    /// — making solve cost independent of map size (see
    /// `ARCHITECTURE.md`, "Locally-relevant solving"). With
    /// [`LocalConfig::rho`] `= ∞` the mode plans that same single
    /// neighborhood, builds its dense instance on first use, and is
    /// bit-identical to full mode.
    pub local: Option<LocalConfig>,
    /// Deterministic fault-injection schedule. The default (empty)
    /// plan injects nothing and leaves every ladder rung inert; chaos
    /// harnesses like `bench_chaos` script solver faults, shard
    /// blackouts, evict storms, and deadline jitter through it.
    pub chaos: FaultPlan,
    /// Quality-tier policy: the cluster width of the intermediate
    /// tier ([`vlp_core::tiers`]) and the deadline floors that decide
    /// which rung of the quality ladder a batch's cold solves run at.
    /// The default picks `Exact` for any nonzero deadline and the
    /// graph-Laplace fallback for a zero deadline — exactly the
    /// pre-tier behavior.
    pub tiers: TierPolicy,
    /// Opt-in per-vehicle trace-budget accounting for continuous
    /// serving, on the open-loop [`MechanismService::submit`] path.
    /// `None` (the default) keeps the classic unaccounted service —
    /// bit-identical to the pre-accountant behavior. `Some` charges
    /// every served report's canonical ε against the vehicle's
    /// ledger, throttles grants as the ledger fills, and refuses with
    /// [`Response::BudgetExhausted`] once a grant would fall below one
    /// ε-bucket width (see [`trace`](TraceBudgetConfig) for the
    /// composition argument). The batch frontend is not accounted —
    /// batches model one sporadic report per vehicle.
    pub budget: Option<TraceBudgetConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            n_shards: 2,
            delta: 0.2,
            radius: f64::INFINITY,
            cg: CgOptions::default(),
            epsilon_bucket: 0.25,
            cache_capacity: 64,
            queue_capacity: 256,
            solve_deadline: Duration::from_millis(200),
            solver_threads: 2,
            resilience: ResilienceConfig::default(),
            local: None,
            chaos: FaultPlan::default(),
            tiers: TierPolicy::default(),
            budget: None,
        }
    }
}

/// The quality ladder's tier-selection policy
/// ([`ServiceConfig::tiers`]): which [`QualityTier`] a cold solve runs
/// at, as a function of the remaining *logical* deadline, plus the
/// clustering width of the intermediate tier (see `DESIGN.md`,
/// "Quality tiers"). Every tier's mechanism satisfies full-spec
/// ε-Geo-I at the canonical ε — the ladder trades quality (ETDD), not
/// privacy.
#[derive(Debug, Clone, Copy)]
pub struct TierPolicy {
    /// Clustering width (km of `d_min` distance) of the `Clustered`
    /// tier: intervals within this distance of a cluster center share
    /// the center's mechanism row. `0` degenerates to the exact
    /// (unclustered) LP.
    pub cluster_width: f64,
    /// Minimum logical deadline at which a cold solve runs `Exact`.
    pub exact_floor: Duration,
    /// Minimum logical deadline for the `Clustered` tier (checked when
    /// the deadline is below [`TierPolicy::exact_floor`]).
    pub clustered_floor: Duration,
}

impl Default for TierPolicy {
    fn default() -> Self {
        Self {
            cluster_width: 0.3,
            exact_floor: Duration::ZERO,
            clustered_floor: Duration::MAX,
        }
    }
}

impl TierPolicy {
    /// The best tier whose deadline floor fits `deadline`. A zero
    /// deadline (the "never wait" contract) is always `Laplace`;
    /// otherwise the ladder is scanned best-first, falling through to
    /// `Laplace` when even the clustered floor does not fit. The
    /// deadline is *logical*, exactly like
    /// [`ServiceConfig::solve_deadline`] — no wall clock is raced.
    pub fn tier_for(&self, deadline: Duration) -> QualityTier {
        if deadline.is_zero() {
            QualityTier::Laplace
        } else if self.exact_floor <= deadline {
            QualityTier::Exact
        } else if self.clustered_floor <= deadline {
            QualityTier::Clustered
        } else {
            QualityTier::Laplace
        }
    }

    /// The tier background (cache-warming) solves run at: the best
    /// tier with no deadline pressure. Never `Laplace` — the exact
    /// floor always fits an unbounded deadline, so warming always
    /// buys a real LP solve.
    pub fn background_tier(&self) -> QualityTier {
        self.tier_for(Duration::MAX)
    }
}

/// Tuning for the locally-relevant solve mode
/// ([`ServiceConfig::local`]).
#[derive(Debug, Clone, Copy)]
pub struct LocalConfig {
    /// Assignment radius ρ of the ρ-net neighborhood plan, km of
    /// road-network distance. Every interval is assigned to a net
    /// center within ρ; the neighborhood's support is the center's
    /// `ρ + radius` ball, so each served vehicle's whole protection
    /// ball is inside the support (the locality theorem). Smaller ρ
    /// means smaller LPs but more neighborhoods (more cache keys,
    /// more cold-start fallback serving); `∞` means one whole-shard
    /// neighborhood, bit-identical to full mode.
    ///
    /// A finite ρ requires a finite [`ServiceConfig::radius`] —
    /// otherwise every support would be the whole shard anyway.
    pub rho: f64,
}

/// Tuning for the resilience ladder: bounded retry (rung 1), the
/// per-shard circuit breaker (rung 2), and the stale store (rung 3).
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Total solve attempts per queued job, including the first (≥ 1).
    /// Attempts beyond the first are counted as
    /// [`metrics::RETRY_ATTEMPTS`].
    pub max_attempts: u32,
    /// Base backoff before the first retry; attempt `n` waits
    /// `min(backoff_base · 2ⁿ⁻¹, backoff_cap)` plus deterministic
    /// jitter in `[0, backoff_base)` seeded from the chaos plan.
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff term.
    pub backoff_cap: Duration,
    /// Consecutive solve failures (retries exhausted) that trip a
    /// shard's breaker from `Closed` to `Open`.
    pub breaker_threshold: u32,
    /// Epochs (batches) a breaker stays `Open` before moving to
    /// `HalfOpen` and admitting a single probe solve.
    pub breaker_cooldown: u64,
    /// Maximum ε-bucket entries kept in *each shard's* stale store;
    /// the oldest demotion is dropped first.
    pub stale_capacity: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base: Duration::from_micros(500),
            backoff_cap: Duration::from_millis(10),
            breaker_threshold: 3,
            breaker_cooldown: 2,
            stale_capacity: 64,
        }
    }
}

/// Where a served mechanism came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// The optimally solved mechanism for the request's
    /// `(shard, ε-bucket)`; `cached` is true when it was already in
    /// the cache before this request (or batch) arrived.
    Optimal {
        /// Whether the mechanism was a cache hit (vs. solved within
        /// this batch and served under the logical deadline).
        cached: bool,
    },
    /// A previously solved optimal mechanism for the same
    /// `(shard, ε-bucket)`, served from the stale store because the
    /// fresh solve failed or was shed. Same canonical ε and interval
    /// graph as a fresh optimum — identical privacy, possibly
    /// suboptimal quality (e.g. solved under an outdated prior).
    Stale {
        /// Epochs (batches) elapsed since the mechanism was demoted
        /// from the primary cache.
        age_batches: u64,
    },
    /// The graph-Laplace fallback: the optimum was not available in
    /// time (cold key, solve in flight, or failed with nothing stale),
    /// so quality was sacrificed to keep ε intact.
    Fallback,
}

/// One served obfuscation: the reported (obfuscated) position plus
/// provenance. Locations and intervals are in the shard's local frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obfuscation {
    /// The requesting worker.
    pub worker: WorkerId,
    /// The shard the worker's true location fell in.
    pub shard: usize,
    /// The reported interval, indexed in the shard's discretization.
    pub interval: usize,
    /// The reported location on the shard's local graph.
    pub location: Location,
    /// The canonical (bucketed) ε the served mechanism enforces —
    /// at most the requested ε.
    pub epsilon: f64,
    /// The quality tier of the served mechanism: `Exact` for the full
    /// CG optimum, `Clustered` for the intermediate tier,
    /// `Laplace` for every fallback serve. All tiers satisfy full-spec
    /// ε-Geo-I at [`Obfuscation::epsilon`].
    pub tier: QualityTier,
    /// Which mechanism served the request.
    pub served: Served,
}

/// The outcome of one open-loop submission ([`MechanismService::submit`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Response {
    /// The request was served an obfuscation (possibly degraded — see
    /// [`Obfuscation::served`]).
    Served(Obfuscation),
    /// Admission control rejected the request: its `(shard, ε-bucket)`
    /// was shed (queue full, open breaker, blackout, or shutdown) and
    /// the shard had nothing cached, stale, or previously built to
    /// degrade to. Explicit backpressure — the caller retries later or
    /// reports at a coarser ε.
    Rejected {
        /// The requesting worker.
        worker: WorkerId,
        /// The shard the request routed to.
        shard: usize,
        /// The canonical ε the request would have been served at.
        epsilon: f64,
    },
    /// The location mapped into no shard: it lies on a dropped
    /// cross-boundary edge, on an edge id outside the map, or at an
    /// offset that is NaN, negative, or past the edge's length. Nothing
    /// was served and nothing was charged.
    OffPartition {
        /// The requesting worker.
        worker: WorkerId,
    },
    /// The vehicle's trace-budget ledger could not afford another
    /// report ([`ServiceConfig::budget`]): the throttled grant fell
    /// below one ε-bucket width, so serving *anything* would either
    /// overspend the trace budget or violate the round-down contract.
    /// Nothing was served and nothing was charged. When `remaining`
    /// is itself below one bucket width the exhaustion is terminal —
    /// every later report from this vehicle refuses too.
    BudgetExhausted {
        /// The requesting worker.
        worker: WorkerId,
        /// The shard the request routed to.
        shard: usize,
        /// The unspent remainder of the vehicle's trace budget.
        remaining: f64,
    },
}

impl Response {
    /// The served obfuscation, if the request was served.
    pub fn served(&self) -> Option<&Obfuscation> {
        match self {
            Response::Served(o) => Some(o),
            _ => None,
        }
    }
}

/// One shard's slice of the service health snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// The shard index.
    pub shard: usize,
    /// The shard's breaker state.
    pub breaker: BreakerState,
    /// Consecutive solve failures in the current run (resets on any
    /// success).
    pub consecutive_failures: u32,
    /// The epoch at which the breaker last opened, when not `Closed`.
    pub opened_at_batch: Option<u64>,
    /// Solved mechanisms currently cached for this shard.
    pub cached: usize,
    /// Mechanisms held in the stale store for this shard.
    pub stale: usize,
    /// Solve jobs queued or running for this shard.
    pub inflight: usize,
}

/// A readiness/health snapshot of the service, for operators and
/// harnesses. The same information is exported per epoch through the
/// `vlp-obs` registry (`service.breaker.state.<s>` and
/// `service.queue.depth.<s>` series plus the `service.*`/`chaos.*`
/// counters) — see `OPERATIONS.md`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceHealth {
    /// Epochs (batches) served so far.
    pub batches: u64,
    /// Whether every shard's breaker is closed (full capacity; no
    /// degraded serving beyond warm-up fallbacks).
    pub ready: bool,
    /// Per-shard detail, in shard order.
    pub shards: Vec<ShardHealth>,
}

/// A cloneable, thread-safe handle for driving a [`MechanismService`]'s
/// open-loop path from other threads: `submit` requests, `tick` the
/// logical clock, `quiesce` on in-flight solves, `flush_metrics`. The
/// handle stays valid after the service shuts down — submissions then
/// serve only from cached/stale/fallback state and reject cold keys.
#[derive(Debug, Clone)]
pub struct ServiceHandle {
    shared: Arc<CoreShared>,
}

impl ServiceHandle {
    /// Serves one request on the caller path — see
    /// [`MechanismService::submit`].
    pub fn submit<R: RngExt + ?Sized>(
        &self,
        worker: WorkerId,
        loc: Location,
        epsilon: f64,
        rng: &mut R,
    ) -> Response {
        self.shared.submit(worker, loc, epsilon, rng)
    }

    /// Advances the logical epoch — see [`MechanismService::tick`].
    pub fn tick(&self) -> u64 {
        self.shared.tick()
    }

    /// Blocks until no solve job is queued or running.
    pub fn quiesce(&self) {
        self.shared.quiesce()
    }

    /// Publishes accumulated per-shard counters into the `vlp-obs`
    /// registry without advancing the epoch.
    pub fn flush_metrics(&self) {
        self.shared.flush_metrics()
    }

    /// The current logical epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Relaxed)
    }

    /// Cumulative ε charged to `worker`'s trace budget — see
    /// [`MechanismService::budget_spent`].
    pub fn budget_spent(&self, worker: WorkerId) -> Option<f64> {
        self.shared.budget_spent(worker)
    }
}

/// Per-shard task queue state (assignment side; not touched by the
/// serving core).
#[derive(Debug, Default)]
struct TaskShard {
    tasks: Vec<Task>,
    pending: Vec<TaskId>,
}

/// The concurrent, sharded mechanism-serving layer. See the
/// [module docs](self) for the serving model and the resilience
/// ladder.
#[derive(Debug)]
pub struct MechanismService {
    core: ServingCore,
    tasks: Vec<TaskShard>,
}

impl MechanismService {
    /// Boots a service over `graph`: partitions it into
    /// `config.n_shards` region shards, prepares one uniform-prior
    /// solve engine ([`LocalShard`]) per shard, and starts
    /// [`ServiceConfig::solver_threads`] long-lived solver workers per
    /// shard. No mechanism is solved yet — the cache starts cold and
    /// fills on demand.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero shards, bucket
    /// width, capacities, or threads; non-positive δ) or the graph is
    /// too small to partition into `n_shards` bands.
    pub fn new(graph: RoadGraph, config: ServiceConfig) -> Self {
        let core = ServingCore::new(graph, config);
        let tasks = (0..core.shared.shards.len())
            .map(|_| TaskShard::default())
            .collect();
        Self { core, tasks }
    }

    /// The region partition the service shards over.
    pub fn partition(&self) -> &Partition {
        &self.core.shared.partition
    }

    /// Number of region shards.
    pub fn shard_count(&self) -> usize {
        self.core.shared.shards.len()
    }

    /// A snapshot of shard `s`'s dense VLP instance — the one its
    /// whole-shard neighborhood solves on (cheap: one refcount bump;
    /// prior updates swap the instance copy-on-write).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range, or if the service runs in
    /// locally-relevant mode — that mode never materializes an `O(K²)`
    /// instance; use [`MechanismService::local_shard`] instead.
    pub fn shard_instance(&self, s: usize) -> Arc<VlpInstance> {
        let shard = self.core.shared.shards[s].engine();
        assert!(
            self.config().local.is_none(),
            "shard_instance is a full-shard accessor; \
             locally-relevant shards expose LocalShard instead"
        );
        Arc::clone(shard.dense_instance().expect("full mode holds one"))
    }

    /// A snapshot of shard `s`'s engine when [`ServiceConfig::local`]
    /// is set — the neighborhood plan, per-neighborhood supports, and
    /// audit specs ([`LocalShard::audit_spec`]) live here. `None` in
    /// full-shard mode, whose one neighborhood is the whole shard.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn local_shard(&self, s: usize) -> Option<Arc<LocalShard>> {
        let shard = self.core.shared.shards[s].engine();
        self.config().local.is_some().then_some(shard)
    }

    /// Number of solved mechanisms currently cached across shards.
    pub fn cached_mechanisms(&self) -> usize {
        self.core
            .shared
            .shards
            .iter()
            .map(|shard| lock(&shard.table).cache.len())
            .sum()
    }

    /// The quality loss (ETDD) of the cached optimal mechanism for
    /// shard `s` at `epsilon`'s bucket, if one is cached. Does not
    /// touch LRU recency. In locally-relevant mode this addresses
    /// neighborhood `0`'s entry; use [`MechanismService::live_mechanisms_keyed`]
    /// for the full keyed view.
    pub fn cached_quality_loss(&self, s: usize, epsilon: f64) -> Option<f64> {
        let (bucket, _) = self.core.shared.bucket(epsilon);
        lock(&self.core.shared.shards[s].table)
            .cache
            .map
            .get(&MechKey::full(bucket))
            .map(|entry| entry.0.quality_loss)
    }

    /// The cached optimal mechanism for shard `s` at `epsilon`'s
    /// bucket, if one is cached. Does not touch LRU recency — use for
    /// auditing (e.g. [`vlp_core::privacy::verify`]), not serving. In
    /// locally-relevant mode this addresses neighborhood `0`'s entry.
    pub fn cached_mechanism(&self, s: usize, epsilon: f64) -> Option<Arc<Mechanism>> {
        let (bucket, _) = self.core.shared.bucket(epsilon);
        lock(&self.core.shared.shards[s].table)
            .cache
            .map
            .get(&MechKey::full(bucket))
            .map(|entry| Arc::clone(&entry.0.mechanism))
    }

    /// The graph-Laplace fallback mechanism for shard `s` at
    /// `epsilon`'s bucket, if one has been built (fallbacks are built
    /// lazily, on the first cold serve of their key). In
    /// locally-relevant mode this addresses neighborhood `0`'s entry.
    pub fn fallback_mechanism(&self, s: usize, epsilon: f64) -> Option<Arc<Mechanism>> {
        let (bucket, _) = self.core.shared.bucket(epsilon);
        lock(&self.core.shared.shards[s].table)
            .fallbacks
            .get(&MechKey::full(bucket).at_tier(QualityTier::Laplace))
            .map(Arc::clone)
    }

    /// The stale mechanism for shard `s` at `epsilon`'s bucket, if one
    /// is held, with the epoch it was demoted at. In locally-relevant
    /// mode this addresses neighborhood `0`'s entry.
    pub fn stale_mechanism(&self, s: usize, epsilon: f64) -> Option<(Arc<Mechanism>, u64)> {
        let (bucket, _) = self.core.shared.bucket(epsilon);
        lock(&self.core.shared.shards[s].table)
            .stale
            .get(&MechKey::full(bucket))
            .map(|(entry, demoted)| (Arc::clone(&entry.mechanism), *demoted))
    }

    /// Epochs (batches) served so far.
    pub fn batches_served(&self) -> u64 {
        self.core.shared.epoch.load(Ordering::Relaxed)
    }

    /// The breaker state of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn breaker_state(&self, s: usize) -> BreakerState {
        lock(&self.core.shared.shards[s].table).breaker.state
    }

    /// A point-in-time health/readiness snapshot: per-shard breaker
    /// states, failure runs, cache/stale occupancy, and queue depth.
    /// The same data lands in the `vlp-obs` registry every epoch.
    pub fn health(&self) -> ServiceHealth {
        let shards = self
            .core
            .shared
            .shards
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                let t = lock(&shard.table);
                ShardHealth {
                    shard: s,
                    breaker: t.breaker.state,
                    consecutive_failures: t.breaker.consecutive_failures,
                    opened_at_batch: (t.breaker.state != BreakerState::Closed)
                        .then_some(t.breaker.opened_at),
                    cached: t.cache.len(),
                    stale: t.stale.len(),
                    inflight: t.inflight.len(),
                }
            })
            .collect::<Vec<_>>();
        ServiceHealth {
            batches: self.batches_served(),
            ready: shards.iter().all(|h| h.breaker == BreakerState::Closed),
            shards,
        }
    }

    /// Every mechanism the service currently holds — cached optima,
    /// stale entries, and built fallbacks — as
    /// `(shard, canonical ε, mechanism)`, in a deterministic order.
    /// Chaos harnesses audit each against full-spec
    /// [`vlp_core::privacy::verify`]: everything servable must satisfy
    /// ε-Geo-I at its canonical ε, whatever rung it sits on. In
    /// locally-relevant mode use
    /// [`MechanismService::live_mechanisms_keyed`], which also carries
    /// the neighborhood id the audit spec is built from.
    pub fn live_mechanisms(&self) -> Vec<(usize, f64, Arc<Mechanism>)> {
        self.live_mechanisms_keyed()
            .into_iter()
            .map(|(s, _, eps, m)| (s, eps, m))
            .collect()
    }

    /// [`MechanismService::live_mechanisms`] with the full cache key:
    /// `(shard, neighborhood, canonical ε, mechanism)`, sorted by
    /// `(shard, neighborhood, ε)`. In full-shard mode every
    /// neighborhood id is `0`; in locally-relevant mode the
    /// neighborhood id selects the restricted audit spec
    /// ([`LocalShard::audit_spec`]) the mechanism must verify against.
    pub fn live_mechanisms_keyed(&self) -> Vec<(usize, u32, f64, Arc<Mechanism>)> {
        let width = self.core.shared.config.epsilon_bucket;
        let mut out: Vec<(usize, MechKey, Arc<Mechanism>)> = Vec::new();
        for (s, shard) in self.core.shared.shards.iter().enumerate() {
            let t = lock(&shard.table);
            out.extend(
                t.cache
                    .map
                    .iter()
                    .map(|(&k, (entry, _))| (s, k, Arc::clone(&entry.mechanism))),
            );
            out.extend(
                t.stale
                    .iter()
                    .map(|(&k, (entry, _))| (s, k, Arc::clone(&entry.mechanism))),
            );
            out.extend(t.fallbacks.iter().map(|(&k, m)| (s, k, Arc::clone(m))));
        }
        out.sort_by_key(|&(s, k, _)| (s, k));
        out.into_iter()
            .map(|(s, k, m)| (s, k.nb, k.bucket as f64 * width, m))
            .collect()
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.core.shared.config
    }

    /// The canonical ε a request for `epsilon` is served at: `epsilon`
    /// rounded down to the bucket grid. Always `≤ epsilon`, so the
    /// served mechanism is at least as private as requested.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is below one bucket width (rounding down
    /// would hit ε = 0, which no mechanism can satisfy usefully).
    pub fn canonical_epsilon(&self, epsilon: f64) -> f64 {
        self.core.shared.bucket(epsilon).1
    }

    /// Cumulative ε charged to `worker`'s trace budget so far (linear
    /// composition over its served reports). `None` when accounting is
    /// disabled ([`ServiceConfig::budget`] is `None`); `Some(0.0)` for
    /// a vehicle that has not been served an accounted report yet.
    pub fn budget_spent(&self, worker: WorkerId) -> Option<f64> {
        self.core.shared.budget_spent(worker)
    }

    /// Updates shard `s`'s worker prior (copy-on-write: in-flight
    /// solves keep the old instance and are demoted to stale when they
    /// land) and invalidates its cached mechanisms. Fallbacks are
    /// prior-free and stay.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or the prior's dimension does not
    /// match the shard's interval count.
    pub fn set_worker_prior(&mut self, s: usize, f_p: Prior) {
        self.core.shared.set_worker_prior(s, f_p);
    }

    /// Serves one open-loop request on the caller path: a cache hit
    /// returns the optimal mechanism without touching any queue; a
    /// miss enqueues a solve on the owning shard's bounded queue
    /// (coalescing duplicates) and serves the graph-Laplace fallback
    /// while it is in flight; a miss that cannot be admitted (queue
    /// full, open breaker, blackout, shutdown) is shed — served stale
    /// or from a previously built fallback when possible, otherwise
    /// [`Response::Rejected`]. A location on no shard is answered
    /// [`Response::OffPartition`]. Never blocks on solve work.
    ///
    /// Sampling uses the caller's `rng`; each submitting thread owns
    /// its own rng (see [`ServiceHandle`]).
    pub fn submit<R: RngExt + ?Sized>(
        &self,
        worker: WorkerId,
        loc: Location,
        epsilon: f64,
        rng: &mut R,
    ) -> Response {
        self.core.shared.submit(worker, loc, epsilon, rng)
    }

    /// A cloneable, thread-safe handle onto the serving core for
    /// open-loop drivers (load generators, per-vehicle threads).
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            shared: Arc::clone(&self.core.shared),
        }
    }

    /// Advances the logical epoch: evaluates epoch-scoped chaos (evict
    /// storms, shard blackouts), ticks breaker cooldowns, samples the
    /// per-shard breaker/queue-depth series, and flushes per-shard
    /// counters to `vlp-obs`. Open-loop drivers call this once per
    /// reporting round. Returns the new epoch.
    pub fn tick(&self) -> u64 {
        self.core.shared.tick()
    }

    /// Blocks until no solve job is queued or running — the open-loop
    /// analogue of a batch barrier, used to warm caches and to make
    /// harness runs deterministic.
    pub fn quiesce(&self) {
        self.core.shared.quiesce()
    }

    /// Publishes accumulated per-shard counters into the `vlp-obs`
    /// registry without advancing the epoch.
    pub fn flush_metrics(&self) {
        self.core.shared.flush_metrics()
    }

    /// Graceful shutdown: stops admitting new solves, lets the workers
    /// drain every queued job (all of them complete and publish), and
    /// joins them in shard order. Idempotent; also runs on drop.
    /// Open-loop submission remains possible afterwards — hits, stale,
    /// and prebuilt fallbacks still serve; cold keys are rejected.
    pub fn shutdown(&mut self) -> ShutdownReport {
        self.core.shutdown()
    }

    /// Serves a batch of obfuscation requests `(worker, true location,
    /// requested ε)` — the synchronous batch API vehicles hit each
    /// reporting round.
    ///
    /// Cache hits are served directly. Distinct missing
    /// `(shard, ε-bucket)` keys are fed through the per-shard solver
    /// workers in reply mode; outcomes are applied in deterministic
    /// key order. Whether this batch's own solves are served optimally
    /// is the *logical* [`ServiceConfig::solve_deadline`] decision —
    /// `ZERO` serves cold requests from the graph-Laplace fallback at
    /// the same canonical ε (solves still land in the cache before the
    /// call returns), nonzero waits and serves them optimally.
    /// Requests whose location lies on no shard (see
    /// [`Response::OffPartition`]) are skipped and counted as
    /// `service.off_partition`.
    ///
    /// Under an injected fault schedule ([`ServiceConfig::chaos`]) the
    /// resilience ladder engages exactly as on the open-loop path:
    /// failed solves retry with backoff, shards with open breakers
    /// shed, and keys whose solve failed (or was shed) are served from
    /// the stale store when possible ([`Served::Stale`]) — otherwise
    /// from the fallback. A cold key that is *not* failed — merely not
    /// waited for — always serves the fallback, exactly as in the
    /// fault-free service.
    ///
    /// Sampling uses the caller's `rng`, so runs are reproducible.
    pub fn obfuscate_batch<R: RngExt + ?Sized>(
        &mut self,
        requests: &[(WorkerId, Location, f64)],
        rng: &mut R,
    ) -> Vec<Obfuscation> {
        let deadline = self.core.shared.config.solve_deadline;
        self.obfuscate_batch_with_deadline(requests, deadline, rng)
    }

    /// [`MechanismService::obfuscate_batch`] with an explicit logical
    /// deadline for this batch, overriding
    /// [`ServiceConfig::solve_deadline`]. The deadline picks the rung
    /// of the *quality ladder* through [`TierPolicy::tier_for`]: cold
    /// keys are solved at the best tier whose deadline floor fits, and
    /// a `Laplace` outcome (zero deadline, or every floor too high)
    /// serves the closed-form fallback while a background solve at
    /// [`TierPolicy::background_tier`] warms the cache. Cache hits are
    /// scanned best-tier-first up to the deadline's tier, so a batch
    /// under pressure still serves the best mechanism already paid
    /// for. Like the base deadline this is logical — no wall clock is
    /// raced, and batch outputs are reproducible on arbitrarily slow
    /// machines.
    pub fn obfuscate_batch_with_deadline<R: RngExt + ?Sized>(
        &mut self,
        requests: &[(WorkerId, Location, f64)],
        deadline: Duration,
        rng: &mut R,
    ) -> Vec<Obfuscation> {
        let obs = vlp_obs::global();
        let _span = obs.start(metrics::BATCH_TIME);
        obs.incr(metrics::REQUESTS, requests.len() as u64);
        let shared = &self.core.shared;
        let batch = shared.epoch.fetch_add(1, Ordering::SeqCst);
        let tiers = shared.config.tiers;
        let target = tiers.tier_for(deadline);

        // Batch-scoped chaos, keyed by the batch index so a schedule
        // reads as a timeline: deadline jitter flips the batch to "never
        // wait"; evict storms and blackouts are the epoch advance.
        let jitter =
            !shared.chaos.is_empty() && shared.chaos.evaluate(site::SERVICE_DEADLINE_JITTER, batch);
        let wait_for_solves = target != QualityTier::Laplace && !jitter;
        shared.advance_epoch(batch);

        // The tier this batch's admitted misses are solved at: the
        // deadline's tier when the batch waits, otherwise the best
        // background tier (the solve completes and warms the cache;
        // the request itself serves the fallback).
        let miss_tier = if wait_for_solves {
            target
        } else {
            tiers.background_tier()
        };
        // Cache hits are scanned best-first over the tiers at least as
        // good as the deadline's own: a generous deadline never serves
        // a degraded entry, and the default (all-Exact) policy scans
        // exactly one key, as before tiers existed. A zero deadline
        // scans every solved tier: any cached LP optimum beats
        // building nothing.
        let scan_cap = target.min(QualityTier::Clustered);

        // Phase A: route every request and classify hit/miss.
        struct Resolved {
            worker: WorkerId,
            route: Routed,
            key: (usize, MechKey),
            canonical: f64,
            was_hit: bool,
        }
        let mut resolved: Vec<Resolved> = Vec::with_capacity(requests.len());
        let mut missing: Vec<((usize, MechKey), f64)> = Vec::new();
        let mut missing_seen: HashSet<(usize, MechKey)> = HashSet::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for &(worker, loc, epsilon) in requests {
            let Some(route) = shared.route(loc) else {
                obs.incr(metrics::OFF_PARTITION, 1);
                continue;
            };
            let (bucket, canonical) = shared.bucket(epsilon);
            let slot = route.slot(bucket);
            let hit_tier = lock(&shared.shards[route.shard].table).cached_tier(slot, scan_cap);
            let was_hit = hit_tier.is_some();
            let key = (route.shard, slot.at_tier(hit_tier.unwrap_or(miss_tier)));
            if was_hit {
                hits += 1;
            } else {
                misses += 1;
                if missing_seen.insert(key) {
                    missing.push((key, canonical));
                }
            }
            resolved.push(Resolved {
                worker,
                route,
                key,
                canonical,
                was_hit,
            });
        }
        obs.incr(metrics::CACHE_HITS, hits);
        obs.incr(metrics::CACHE_MISSES, misses);

        // Decide every distinct miss against the breaker state at batch
        // start; refusals join the solve outcomes and are applied with
        // them, after every decision is made.
        let mut to_solve: Vec<((usize, MechKey), f64)> = Vec::new();
        let mut outcomes: Vec<((usize, MechKey), MissOutcome)> = Vec::new();
        for (key, eps) in missing {
            match lock(&shared.shards[key.0].table).admit(batch) {
                Ok(()) => to_solve.push((key, eps)),
                Err(refused) => outcomes.push((key, refused)),
            }
        }

        // Phase B: solve the admitted misses in reply mode.
        if !to_solve.is_empty() {
            obs.incr(metrics::QUEUE_ENQUEUED, to_solve.len() as u64);
            outcomes.extend(shared.solve_in_reply_mode(&to_solve, batch));
        }

        // Phase C: apply outcomes in key order (reply arrival order
        // depends on thread timing; breaker and cache state must not),
        // then serve. `fresh` keeps this batch's solves reachable even
        // if the batch's own inserts evicted them.
        outcomes.sort_by_key(|o| o.0);
        let mut fresh: HashMap<(usize, MechKey), Arc<Mechanism>> = HashMap::new();
        let mut failed: HashSet<(usize, MechKey)> = HashSet::new();
        for (key, outcome) in outcomes {
            match &outcome {
                MissOutcome::Solved { solve, .. } => {
                    fresh.insert(key, Arc::clone(&solve.mechanism));
                }
                _ => {
                    failed.insert(key);
                }
            }
            shared.apply_outcome(
                &mut lock(&shared.shards[key.0].table),
                key.1,
                outcome,
                batch,
            );
        }

        let mut out = Vec::with_capacity(resolved.len());
        let mut stats = ShardStats::default();
        for r in resolved {
            let serve = {
                let mut t = lock(&shared.shards[r.key.0].table);
                let optimal = if r.was_hit || (wait_for_solves && fresh.contains_key(&r.key)) {
                    t.cache
                        .get(r.key.1)
                        .map(|e| Arc::clone(&e.mechanism))
                        .or_else(|| fresh.get(&r.key).map(Arc::clone))
                } else {
                    None
                };
                match optimal {
                    Some(m) => (m, r.key.1.tier, Served::Optimal { cached: r.was_hit }),
                    // A failed or shed key takes the degraded serve; a
                    // miss merely not waited for serves the fallback,
                    // exactly as the fault-free service does. Either
                    // builds the fallback when none exists yet.
                    None => failed
                        .contains(&r.key)
                        .then(|| t.degraded(r.key.1, batch))
                        .flatten()
                        .unwrap_or_else(|| t.fallback_entry(&r.route.engine, r.key.1, r.canonical)),
                }
            };
            stats.served(serve.1, serve.2);
            out.push(r.route.obfuscate(r.worker, &serve, r.canonical, rng));
        }
        obs.incr(metrics::OPTIMAL_SERVED, stats.served_optimal);
        obs.incr(metrics::STALE_SERVED, stats.served_stale);
        obs.incr(metrics::FALLBACK_SERVED, stats.served_fallback);
        for (tier, served) in QualityTier::ALL.into_iter().zip(stats.served_tier) {
            if served > 0 {
                obs.incr(metrics::tier_served_metric(tier), served);
            }
        }

        // Export the health snapshot: one breaker-state sample per
        // shard per batch.
        for (s, shard) in shared.shards.iter().enumerate() {
            obs.push(
                &metrics::breaker_state_series(s),
                lock(&shard.table).breaker.state.as_f64(),
            );
        }
        out
    }

    /// Publishes a task at `interval` of shard `s`; ids are numbered
    /// per shard.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `interval` is out of range, or in
    /// locally-relevant mode (the assignment subsystem needs the dense
    /// interval-distance matrix of full mode's shard instance).
    pub fn publish_task(&mut self, s: usize, interval: usize) -> TaskId {
        let len = self.shard_instance(s).len();
        assert!(interval < len, "task interval out of range");
        let shard = &mut self.tasks[s];
        let id = TaskId(shard.tasks.len());
        shard.tasks.push(Task { id, interval });
        shard.pending.push(id);
        id
    }

    /// Tasks of shard `s` waiting for assignment.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn pending_tasks(&self, s: usize) -> &[TaskId] {
        &self.tasks[s].pending
    }

    /// Task `id` of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or `id` was not issued by shard
    /// `s`.
    pub fn task(&self, s: usize, id: TaskId) -> Task {
        self.tasks[s].tasks[id.0]
    }

    /// Runs one assignment snapshot on shard `s` over reports
    /// `(worker, reported interval)`: Hungarian matching of the oldest
    /// pending tasks to reporting workers, with travel costs estimated
    /// from the *reported* intervals (the server never sees true
    /// locations).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range, or in locally-relevant mode (the
    /// assignment subsystem needs the dense interval-distance matrix of
    /// full mode's shard instance).
    pub fn snapshot(&mut self, s: usize, reports: &[(WorkerId, usize)]) -> SnapshotOutcome {
        let instance = self.shard_instance(s);
        let shard = &mut self.tasks[s];
        assign_snapshot(
            &instance.interval_dists,
            &shard.tasks,
            &mut shard.pending,
            reports,
        )
    }

    /// Fans a batch of served obfuscations out into per-shard
    /// assignment snapshots. Returns `(shard, outcome)` for every
    /// shard that received at least one report, in shard order.
    pub fn snapshot_batch(&mut self, reports: &[Obfuscation]) -> Vec<(usize, SnapshotOutcome)> {
        let mut by_shard: Vec<Vec<(WorkerId, usize)>> = vec![Vec::new(); self.shard_count()];
        for r in reports {
            by_shard[r.shard].push((r.worker, r.interval));
        }
        by_shard
            .into_iter()
            .enumerate()
            .filter(|(_, reports)| !reports.is_empty())
            .map(|(s, reports)| {
                let outcome = self.snapshot(s, &reports);
                (s, outcome)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use roadnet::generators;
    use vlp_core::privacy;
    use vlp_obs::failpoint::FaultMode;

    /// A two-shard service on the 3×4 grid (δ = 0.2) every test below
    /// runs on unless it says otherwise; `config` sets the rest.
    fn grid_service(config: ServiceConfig) -> MechanismService {
        MechanismService::new(
            generators::grid(3, 4, 0.4, true),
            ServiceConfig {
                n_shards: 2,
                delta: 0.2,
                ..config
            },
        )
    }

    fn service(deadline: Duration) -> MechanismService {
        grid_service(ServiceConfig {
            solve_deadline: deadline,
            ..ServiceConfig::default()
        })
    }

    /// One request per shard, placed on the first global edge that
    /// maps into each shard (same 3×4 grid as [`grid_service`]).
    fn requests(svc: &MechanismService, epsilon: f64) -> Vec<(WorkerId, Location, f64)> {
        let g = generators::grid(3, 4, 0.4, true);
        let mut per_shard: HashMap<usize, Location> = HashMap::new();
        for e in 0..g.edge_count() {
            let loc = Location::new(roadnet::EdgeId(e), 0.1);
            if let Some((s, _)) = svc.partition().to_local(loc) {
                per_shard.entry(s).or_insert(loc);
            }
        }
        (0..svc.shard_count())
            .filter_map(|s| per_shard.get(&s).map(|&loc| (WorkerId(s), loc, epsilon)))
            .collect()
    }

    #[test]
    fn zero_deadline_serves_fallback_then_cache_hits() {
        let mut svc = service(Duration::ZERO);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let reqs = requests(&svc, 5.0);
        assert_eq!(reqs.len(), 2, "one request per shard");

        let cold = svc.obfuscate_batch(&reqs, &mut rng);
        assert_eq!(cold.len(), 2);
        assert!(cold.iter().all(|o| o.served == Served::Fallback));
        // The solves still landed in the cache.
        assert_eq!(svc.cached_mechanisms(), 2);

        let warm = svc.obfuscate_batch(&reqs, &mut rng);
        assert!(warm
            .iter()
            .all(|o| o.served == Served::Optimal { cached: true }));
    }

    #[test]
    fn generous_deadline_serves_optimal_on_cold_cache() {
        let mut svc = service(Duration::from_secs(60));
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let reqs = requests(&svc, 5.0);
        let out = svc.obfuscate_batch(&reqs, &mut rng);
        assert!(out
            .iter()
            .all(|o| o.served == Served::Optimal { cached: false }));
    }

    #[test]
    fn epsilon_buckets_round_down_and_share_cache_entries() {
        let mut svc = service(Duration::ZERO);
        assert_eq!(svc.canonical_epsilon(5.0), 5.0);
        assert_eq!(svc.canonical_epsilon(5.1), 5.0);
        assert_eq!(svc.canonical_epsilon(5.24), 5.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut reqs = requests(&svc, 5.0);
        let extra: Vec<_> = reqs.iter().map(|&(w, l, _)| (w, l, 5.2)).collect();
        reqs.extend(extra);
        let out = svc.obfuscate_batch(&reqs, &mut rng);
        // 5.0 and 5.2 share a bucket: one entry per shard, and every
        // outcome reports the canonical ε.
        assert_eq!(svc.cached_mechanisms(), 2);
        assert!(out.iter().all(|o| o.epsilon == 5.0));
    }

    #[test]
    #[should_panic(expected = "below the bucket width")]
    fn sub_bucket_epsilon_is_rejected() {
        let svc = service(Duration::ZERO);
        svc.canonical_epsilon(0.1);
    }

    #[test]
    fn lru_evicts_least_recently_used_entry() {
        let mut cache = ladder::LruCache::new(2);
        let entry = || ladder::CachedSolve {
            mechanism: Arc::new(Mechanism::uniform(2)),
            quality_loss: 0.0,
            stats: ladder::SolveStats {
                support: 2,
                lp_vars: 4,
                lp_rows: 0,
            },
        };
        let key = MechKey::full;
        assert!(cache.insert(key(1), entry()).is_none());
        assert!(cache.insert(key(2), entry()).is_none());
        assert!(cache.get(key(1)).is_some()); // bump bucket 1
        let evicted = cache.insert(key(3), entry()); // evicts bucket 2
        assert_eq!(evicted.map(|(k, _)| k), Some(key(2)));
        assert!(cache.contains(key(1)));
        assert!(!cache.contains(key(2)));
        assert!(cache.contains(key(3)));
    }

    #[test]
    fn every_served_mechanism_passes_privacy_verify() {
        let mut svc = service(Duration::ZERO);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let reqs = requests(&svc, 5.0);
        let _ = svc.obfuscate_batch(&reqs, &mut rng); // fallback round
        let _ = svc.obfuscate_batch(&reqs, &mut rng); // cached round
        for &(_, loc, eps) in &reqs {
            let (s, _) = svc.partition().to_local(loc).unwrap();
            let canonical = svc.canonical_epsilon(eps);
            let inst = svc.shard_instance(s);
            let spec = vlp_core::PrivacySpec::full(&inst.aux, canonical, f64::INFINITY);
            let fallback = svc.fallback_mechanism(s, eps).expect("fallback built");
            assert!(privacy::verify(&fallback, &spec, 1e-6));
            let cached = svc.cached_mechanism(s, eps).expect("solve cached");
            assert!(privacy::verify(&cached, &spec, 1e-6));
        }
    }

    #[test]
    fn prior_update_invalidates_only_that_shard() {
        let mut svc = service(Duration::ZERO);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let reqs = requests(&svc, 5.0);
        let _ = svc.obfuscate_batch(&reqs, &mut rng);
        assert_eq!(svc.cached_mechanisms(), 2);
        let k = svc.shard_instance(0).len();
        svc.set_worker_prior(0, Prior::uniform(k));
        assert_eq!(svc.cached_mechanisms(), 1);
        assert!(svc.cached_mechanism(0, 5.0).is_none());
        assert!(svc.cached_mechanism(1, 5.0).is_some());
        // The displaced mechanism was demoted, not dropped.
        assert!(svc.stale_mechanism(0, 5.0).is_some());
    }

    #[test]
    fn snapshot_batch_feeds_per_shard_assignment() {
        let mut svc = service(Duration::ZERO);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for s in 0..svc.shard_count() {
            svc.publish_task(s, 0);
        }
        let reqs = requests(&svc, 5.0);
        let served = svc.obfuscate_batch(&reqs, &mut rng);
        let outcomes = svc.snapshot_batch(&served);
        assert_eq!(outcomes.len(), 2);
        for (s, outcome) in outcomes {
            assert_eq!(outcome.assignments.len(), 1, "shard {s} assigns its task");
            assert!(svc.pending_tasks(s).is_empty());
        }
    }

    /// A one-shard service on a 2×2 grid (δ = 0.25): the single-region
    /// map the snapshot tests assign on.
    fn single_region() -> MechanismService {
        MechanismService::new(
            generators::grid(2, 2, 0.5, true),
            ServiceConfig {
                n_shards: 1,
                delta: 0.25,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn publish_and_snapshot_assigns_nearest_by_estimate() {
        let mut s = single_region();
        let t = s.publish_task(0, 0);
        // Two reporting workers: one reports interval 0 (on the task),
        // one reports the farthest interval.
        let far = s.shard_instance(0).len() - 1;
        let out = s.snapshot(0, &[(WorkerId(1), far), (WorkerId(2), 0)]);
        assert_eq!(out.assignments.len(), 1);
        let (task, worker, est) = out.assignments[0];
        assert_eq!(task, t);
        assert_eq!(worker, WorkerId(2));
        assert_eq!(est, 0.0);
        assert!(s.pending_tasks(0).is_empty());
    }

    #[test]
    fn snapshot_without_reports_leaves_tasks_pending() {
        let mut s = single_region();
        let t = s.publish_task(0, 1);
        let out = s.snapshot(0, &[]);
        assert!(out.assignments.is_empty());
        assert_eq!(out.unassigned, vec![t]);
        assert_eq!(s.pending_tasks(0), &[t]);
    }

    #[test]
    fn more_tasks_than_workers_assigns_oldest_first() {
        let mut s = single_region();
        let t0 = s.publish_task(0, 0);
        let _t1 = s.publish_task(0, 1);
        let out = s.snapshot(0, &[(WorkerId(0), 2)]);
        assert_eq!(out.assignments.len(), 1);
        assert_eq!(out.assignments[0].0, t0);
        assert_eq!(s.pending_tasks(0).len(), 1);
    }

    #[test]
    #[should_panic(expected = "task interval out of range")]
    fn publishing_off_map_task_panics() {
        let mut s = single_region();
        s.publish_task(0, 10_000);
    }

    /// The full ladder, scripted end to end: an evict storm forces a
    /// miss every batch, a shard-0 blackout over batches `[1, 4)`
    /// drives three consecutive failures (threshold) so the breaker
    /// opens, the stale store serves through the outage with growing
    /// age, and the half-open probe after the cooldown re-closes it.
    #[test]
    fn breaker_opens_serves_stale_and_recloses_after_probe() {
        let chaos = FaultPlan::new(7)
            .with(site::SERVICE_EVICT_STORM, FaultMode::Every(1))
            .with(
                site::shard_blackout(0),
                FaultMode::Window { from: 1, to: 4 },
            );
        let mut svc = grid_service(ServiceConfig {
            solve_deadline: Duration::ZERO,
            resilience: ResilienceConfig {
                breaker_threshold: 3,
                breaker_cooldown: 2,
                ..ResilienceConfig::default()
            },
            chaos,
            ..ServiceConfig::default()
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let reqs = requests(&svc, 5.0);
        assert_eq!(reqs.len(), 2, "one request per shard");

        let mut shard0_served = Vec::new();
        let mut states = Vec::new();
        for _ in 0..6 {
            let out = svc.obfuscate_batch(&reqs, &mut rng);
            shard0_served.push(out[0].served);
            states.push(svc.breaker_state(0));
        }
        assert_eq!(
            states,
            [
                BreakerState::Closed, // batch 0: clean solve (zero deadline)
                BreakerState::Closed, // batch 1: blackout failure 1
                BreakerState::Closed, // batch 2: blackout failure 2
                BreakerState::Open,   // batch 3: failure 3 trips it
                BreakerState::Open,   // batch 4: cooling down (shed)
                BreakerState::Closed, // batch 5: half-open probe re-closes
            ]
        );
        assert_eq!(
            shard0_served,
            [
                Served::Fallback, // cold, zero deadline
                Served::Stale { age_batches: 0 },
                Served::Stale { age_batches: 1 },
                Served::Stale { age_batches: 2 },
                Served::Stale { age_batches: 3 }, // shed while open
                Served::Fallback,                 // probe solved late (zero deadline)
            ]
        );
        // Shard 1 is untouched by the blackout and stays closed.
        assert_eq!(svc.breaker_state(1), BreakerState::Closed);
        // The health snapshot reflected the outage and the recovery.
        let health = svc.health();
        assert!(health.ready);
        assert_eq!(health.batches, 6);
        assert_eq!(health.shards[0].consecutive_failures, 0);
    }

    #[test]
    fn health_snapshot_reports_open_breaker_as_not_ready() {
        let chaos = FaultPlan::new(1)
            .with(site::SERVICE_EVICT_STORM, FaultMode::Every(1))
            .with(site::shard_blackout(0), FaultMode::Always);
        let mut svc = grid_service(ServiceConfig {
            solve_deadline: Duration::ZERO,
            resilience: ResilienceConfig {
                breaker_threshold: 1,
                breaker_cooldown: 100,
                ..ResilienceConfig::default()
            },
            chaos,
            ..ServiceConfig::default()
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let reqs = requests(&svc, 5.0);
        let _ = svc.obfuscate_batch(&reqs, &mut rng);
        let health = svc.health();
        assert!(!health.ready, "an open breaker must clear readiness");
        assert_eq!(health.shards[0].breaker, BreakerState::Open);
        assert_eq!(health.shards[0].opened_at_batch, Some(0));
        assert_eq!(health.shards[1].breaker, BreakerState::Closed);
    }

    /// An empty fault plan must leave the ladder fully inert: the
    /// service's outputs are identical to a service that has no chaos
    /// configured at all, batch for batch, bit for bit.
    #[test]
    fn empty_fault_plan_is_bit_identical_to_no_plan() {
        let mk = |chaos: FaultPlan| {
            grid_service(ServiceConfig {
                solve_deadline: Duration::ZERO,
                chaos,
                ..ServiceConfig::default()
            })
        };
        let mut a = mk(FaultPlan::default());
        let mut b = mk(FaultPlan::new(0xDEAD_BEEF)); // seeded but empty
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(31);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(31);
        let reqs = requests(&a, 5.0);
        for _ in 0..3 {
            let out_a = a.obfuscate_batch(&reqs, &mut rng_a);
            let out_b = b.obfuscate_batch(&reqs, &mut rng_b);
            assert_eq!(out_a, out_b);
        }
    }

    /// Pins the direction of ε-bucket rounding: requested budgets round
    /// *down* to the grid, so the canonical ε is never larger than the
    /// request — the served mechanism is never *less* private than
    /// asked for. A mechanism valid at the canonical ε is automatically
    /// valid at the (larger) requested ε because ε-Geo-I constraints
    /// relax monotonically in ε.
    #[test]
    fn epsilon_bucket_rounding_direction_is_never_less_private() {
        let svc = service(Duration::ZERO);
        let width = svc.config().epsilon_bucket;
        for step in 0..40 {
            let requested = 0.25 + 0.17 * step as f64;
            let canonical = svc.canonical_epsilon(requested);
            assert!(
                canonical <= requested,
                "canonical ε {canonical} must not exceed requested {requested}"
            );
            let grid = (canonical / width).round();
            assert!(
                (canonical - grid * width).abs() < 1e-9,
                "canonical ε {canonical} must sit on the bucket grid"
            );
        }
        // A request just below a grid point rounds down past it, never
        // up onto it.
        assert_eq!(svc.canonical_epsilon(5.0 - 1e-10), 4.75);
        let half = grid_service(ServiceConfig {
            epsilon_bucket: 0.5,
            ..ServiceConfig::default()
        });
        assert_eq!(half.canonical_epsilon(2.4999999999999996), 2.0);
        // Monotonicity makes the rounding safe: a mechanism built at
        // the canonical (smaller) ε still verifies at the requested ε.
        let requested = 5.24;
        let canonical = svc.canonical_epsilon(requested);
        assert_eq!(canonical, 5.0);
        let inst = svc.shard_instance(0);
        let mechanism = inst.fallback(canonical);
        for eps in [canonical, requested] {
            let spec = vlp_core::PrivacySpec::full(&inst.aux, eps, f64::INFINITY);
            assert!(privacy::verify(&mechanism, &spec, 1e-6));
        }
    }

    /// A grid point keeps its own bucket even where the quotient
    /// `ε / width` lands just below a whole number (`4.3 / 0.1` is
    /// `42.99…`), so re-bucketing a canonical ε never moves it.
    #[test]
    fn grid_points_keep_their_bucket() {
        for width in [0.1, 0.25, 0.3] {
            for n in 1..400 {
                let point = n as f64 * width;
                assert_eq!(
                    core::grid_steps(point, width),
                    n as f64,
                    "{point} at width {width}"
                );
            }
        }
    }

    /// Every rung's product — cached optimum, stale entry, fallback —
    /// satisfies full-spec ε-Geo-I at its canonical ε, even mid-outage.
    #[test]
    fn live_mechanisms_stay_epsilon_valid_under_faults() {
        let chaos = FaultPlan::new(99)
            .with(site::SERVICE_EVICT_STORM, FaultMode::Every(2))
            .with(
                site::shard_blackout(0),
                FaultMode::Window { from: 1, to: 3 },
            );
        let mut svc = grid_service(ServiceConfig {
            solve_deadline: Duration::ZERO,
            chaos,
            ..ServiceConfig::default()
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let reqs = requests(&svc, 5.0);
        for _ in 0..4 {
            let _ = svc.obfuscate_batch(&reqs, &mut rng);
            for (s, eps, mechanism) in svc.live_mechanisms() {
                let inst = svc.shard_instance(s);
                let spec = vlp_core::PrivacySpec::full(&inst.aux, eps, f64::INFINITY);
                assert!(
                    privacy::verify(&mechanism, &spec, 1e-6),
                    "shard {s} mechanism at ε={eps} must stay ε-Geo-I valid"
                );
            }
        }
    }

    #[test]
    fn off_partition_requests_are_skipped() {
        let mut svc = service(Duration::ZERO);
        let cross = svc.partition().cross_edges().to_vec();
        if cross.is_empty() {
            return; // nothing to test on this map
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let out = svc.obfuscate_batch(
            &[(WorkerId(0), Location::new(cross[0], 0.1), 5.0)],
            &mut rng,
        );
        assert!(out.is_empty());
        let resp = svc.submit(WorkerId(0), Location::new(cross[0], 0.1), 5.0, &mut rng);
        assert_eq!(
            resp,
            Response::OffPartition {
                worker: WorkerId(0)
            }
        );
    }

    /// Locations no shard can serve — an edge id past the map, or an
    /// offset that is NaN, negative, or past the edge's length — are
    /// skipped and counted by the batch and answered `OffPartition` by
    /// `submit`, never a panic.
    #[test]
    fn off_map_locations_are_off_partition_on_both_frontends() {
        let mut svc = service(Duration::ZERO);
        let g = generators::grid(3, 4, 0.4, true);
        // An edge intact in some shard, so only the offset is off-map.
        let e = (0..g.edge_count())
            .map(roadnet::EdgeId)
            .find(|&e| svc.partition().to_local(Location::new(e, 0.0)).is_some())
            .expect("some edge is intra-shard");
        let length = g.edge(e).length();
        let off_map = [
            Location::new(roadnet::EdgeId(g.edge_count()), 0.1),
            Location::new(e, f64::NAN),
            Location::new(e, -1.0),
            Location::new(e, length + 1.0),
        ];
        let obs = vlp_obs::global();
        let mut rng = rand::rngs::StdRng::seed_from_u64(79);
        for loc in off_map {
            let before = obs.counter(metrics::OFF_PARTITION);
            let out = svc.obfuscate_batch(&[(WorkerId(0), loc, 5.0)], &mut rng);
            assert!(out.is_empty(), "batch must skip {loc:?}");
            assert!(obs.counter(metrics::OFF_PARTITION) > before);
            assert_eq!(
                svc.submit(WorkerId(0), loc, 5.0, &mut rng),
                Response::OffPartition {
                    worker: WorkerId(0)
                },
                "submit at {loc:?}"
            );
        }
    }

    /// The open-loop caller path: a cold submit warms the cache
    /// through the solve queue and serves the fallback meanwhile;
    /// after `quiesce`, the same key is a pure cache hit that never
    /// touches the queue (pinned via the per-shard counters).
    #[test]
    fn submit_serves_hits_on_caller_path_without_queueing() {
        let svc = service(Duration::ZERO);
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let reqs = requests(&svc, 5.0);
        for &(w, loc, eps) in &reqs {
            match svc.submit(w, loc, eps, &mut rng) {
                Response::Served(o) => assert_eq!(o.served, Served::Fallback),
                other => panic!("cold submit must serve the fallback, got {other:?}"),
            }
        }
        svc.quiesce();
        // Warm: every submit is a hit; the queue counters stay frozen.
        let enqueued_before: u64 = svc
            .core
            .shared
            .shards
            .iter()
            .map(|sh| lock(&sh.table).stats.enqueued)
            .sum();
        for round in 0..50 {
            for &(w, loc, eps) in &reqs {
                match svc.submit(w, loc, eps, &mut rng) {
                    Response::Served(o) => assert_eq!(
                        o.served,
                        Served::Optimal { cached: true },
                        "round {round}: warm submit must hit"
                    ),
                    other => panic!("warm submit must serve, got {other:?}"),
                }
            }
        }
        let enqueued_after: u64 = svc
            .core
            .shared
            .shards
            .iter()
            .map(|sh| lock(&sh.table).stats.enqueued)
            .sum();
        assert_eq!(
            enqueued_before, enqueued_after,
            "a cache-hit-only workload must never enqueue a solve"
        );
        // And the warm submits sample the same mechanism the cache
        // audits expose.
        for &(_, loc, eps) in &reqs {
            let (s, _) = svc.partition().to_local(loc).unwrap();
            assert!(svc.cached_mechanism(s, eps).is_some());
        }
    }

    /// Cold keys on a blacked-out shard are rejected outright: shed
    /// with nothing cached, stale, or prebuilt — explicit backpressure
    /// instead of blocking or silently queueing.
    #[test]
    fn cold_shed_submit_is_rejected_not_blocked() {
        let chaos = FaultPlan::new(3).with(site::shard_blackout(0), FaultMode::Always);
        let svc = grid_service(ServiceConfig {
            resilience: ResilienceConfig {
                breaker_threshold: 1,
                breaker_cooldown: 100,
                ..ResilienceConfig::default()
            },
            chaos,
            ..ServiceConfig::default()
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        svc.tick(); // arm the blackout for this epoch
        let reqs = requests(&svc, 5.0);
        let (shard0_req, shard1_req) = (&reqs[0], &reqs[1]);
        // Shard 0 is blacked out and completely cold: rejected.
        let resp = svc.submit(shard0_req.0, shard0_req.1, shard0_req.2, &mut rng);
        assert_eq!(
            resp,
            Response::Rejected {
                worker: shard0_req.0,
                shard: 0,
                epsilon: 5.0
            }
        );
        // The single blackout failure tripped the threshold-1 breaker.
        assert_eq!(svc.breaker_state(0), BreakerState::Open);
        // Shard 1 is healthy and serves (fallback while warming).
        match svc.submit(shard1_req.0, shard1_req.1, shard1_req.2, &mut rng) {
            Response::Served(o) => assert_eq!(o.served, Served::Fallback),
            other => panic!("healthy shard must serve, got {other:?}"),
        }
        svc.quiesce();
    }

    /// Graceful shutdown drains every queued solve: each admitted cold
    /// key's optimum is in the cache after `shutdown` returns, and the
    /// core refuses new solves afterwards (cold keys reject, hits
    /// still serve).
    #[test]
    fn shutdown_drains_queues_and_serves_hits_after() {
        let mut svc = service(Duration::ZERO);
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        let reqs = requests(&svc, 5.0);
        let mut admitted = Vec::new();
        for (i, &(w, loc, _)) in reqs.iter().enumerate() {
            // Distinct buckets per shard: ε = 5.0 and 7.5.
            for eps in [5.0, 7.5] {
                match svc.submit(WorkerId(w.0 * 10 + i), loc, eps, &mut rng) {
                    Response::Served(o) => {
                        assert_eq!(o.served, Served::Fallback);
                        admitted.push((o.shard, eps));
                    }
                    other => panic!("cold submit must be admitted, got {other:?}"),
                }
            }
        }
        let report = svc.shutdown();
        assert_eq!(report.drained.len(), svc.shard_count());
        // Every admitted solve completed and was cached by the drain.
        for &(s, eps) in &admitted {
            assert!(
                svc.cached_mechanism(s, eps).is_some(),
                "shard {s} ε={eps} must be cached after the drain"
            );
        }
        // Hits still serve; cold keys are rejected (no workers left).
        let (w, loc, _) = reqs[0];
        match svc.submit(w, loc, 5.0, &mut rng) {
            Response::Served(o) => assert_eq!(o.served, Served::Optimal { cached: true }),
            other => panic!("post-shutdown hit must serve, got {other:?}"),
        }
        assert!(matches!(
            svc.submit(w, loc, 12.25, &mut rng),
            Response::Rejected { .. }
        ));
        // Idempotent.
        let again = svc.shutdown();
        assert_eq!(again.total(), 0);
    }

    /// The batch and open-loop frontends agree: a mechanism cached by
    /// a batch serves open-loop hits, and vice versa.
    #[test]
    fn batch_and_open_loop_share_one_cache() {
        let mut svc = service(Duration::ZERO);
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let reqs = requests(&svc, 5.0);
        let _ = svc.obfuscate_batch(&reqs, &mut rng); // warms via batch
        let (w, loc, eps) = reqs[0];
        match svc.submit(w, loc, eps, &mut rng) {
            Response::Served(o) => assert_eq!(o.served, Served::Optimal { cached: true }),
            other => panic!("open-loop hit on batch-warmed cache, got {other:?}"),
        }
        // Open-loop warming serves the next *batch* too.
        let handle = svc.handle();
        for &(w, loc, _) in &reqs {
            let _ = handle.submit(w, loc, 7.5, &mut rng);
        }
        handle.quiesce();
        let reqs_75: Vec<_> = reqs.iter().map(|&(w, l, _)| (w, l, 7.5)).collect();
        let out = svc.obfuscate_batch(&reqs_75, &mut rng);
        assert!(out
            .iter()
            .all(|o| o.served == Served::Optimal { cached: true }));
    }

    fn local_service(rho: f64, radius: f64, deadline: Duration) -> MechanismService {
        grid_service(ServiceConfig {
            radius,
            solve_deadline: deadline,
            local: Some(LocalConfig { rho }),
            ..ServiceConfig::default()
        })
    }

    /// The `(shard, neighborhood)` key a request routes to, recomputed
    /// from the public local-mode accessors.
    fn route(svc: &MechanismService, loc: Location) -> (usize, u32) {
        let (s, local) = svc.partition().to_local(loc).unwrap();
        let shard = svc.local_shard(s).expect("local mode");
        let i = shard.disc().locate(shard.graph(), local).unwrap();
        (s, shard.neighborhood_of(i))
    }

    /// Locally-relevant mode with ρ = ∞ degenerates to one whole-shard
    /// neighborhood and must reproduce full mode bit for bit — same
    /// provenance, same tiers, same sampled intervals, same locations —
    /// batch after batch: at a zero deadline (fallback, then exact
    /// hits), at a deadline whose tier floor selects the clustered
    /// tier, and across a worker-prior update on shard 0.
    #[test]
    fn local_mode_with_infinite_rho_matches_full_mode_bit_for_bit() {
        let mk = |local: Option<LocalConfig>| {
            grid_service(ServiceConfig {
                solve_deadline: Duration::ZERO,
                local,
                tiers: tier_floors(),
                ..ServiceConfig::default()
            })
        };
        let mut full = mk(None);
        let mut local = mk(Some(LocalConfig { rho: f64::INFINITY }));
        let mut rng_full = rand::rngs::StdRng::seed_from_u64(47);
        let mut rng_local = rand::rngs::StdRng::seed_from_u64(47);
        let k = local.local_shard(0).unwrap().len();
        let weights: Vec<f64> = (0..k).map(|i| 1.0 + (i % 3) as f64).collect();
        let prior = Prior::from_weights(&weights).unwrap();
        let ms = Duration::from_millis;
        // (deadline, ε, update shard 0's prior before the batch)
        let schedule = [
            (Duration::ZERO, 5.0, false),
            (Duration::ZERO, 5.0, false),
            (Duration::ZERO, 5.0, false),
            (ms(80), 3.0, false),
            (ms(80), 3.0, true),
            (Duration::ZERO, 5.0, false),
            (ms(200), 5.0, false),
        ];
        let mut tiers = HashSet::new();
        for (deadline, eps, update) in schedule {
            if update {
                full.set_worker_prior(0, prior.clone());
                local.set_worker_prior(0, prior.clone());
            }
            let mut reqs = requests(&full, eps);
            let extra: Vec<_> = reqs.iter().map(|&(w, l, _)| (w, l, eps + 2.5)).collect();
            reqs.extend(extra);
            let out_full = full.obfuscate_batch_with_deadline(&reqs, deadline, &mut rng_full);
            let out_local = local.obfuscate_batch_with_deadline(&reqs, deadline, &mut rng_local);
            assert_eq!(out_full, out_local, "deadline {deadline:?}, ε {eps}");
            tiers.extend(out_full.iter().map(|o| o.tier));
        }
        assert_eq!(tiers.len(), QualityTier::ALL.len(), "every tier served");
        assert_eq!(full.cached_mechanisms(), local.cached_mechanisms());
        assert_eq!(full.live_mechanisms_keyed(), local.live_mechanisms_keyed());
        for s in 0..full.shard_count() {
            let plan_len = local.local_shard(s).unwrap().plan().neighborhood_count();
            assert_eq!(plan_len, 1, "infinite rho is one whole-shard neighborhood");
        }
    }

    /// Finite-radius local mode: every request is served a mechanism
    /// whose support covers its neighborhood, every live mechanism
    /// (optimum and fallback) verifies against its restricted audit
    /// spec, and the solve-shape telemetry is recorded.
    #[test]
    fn local_mode_serves_restricted_mechanisms_that_audit_clean() {
        let mut svc = local_service(0.4, 0.5, Duration::from_secs(60));
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        let reqs = requests(&svc, 5.0);
        let obs = vlp_obs::global();
        let (vars0, support0) = (
            obs.counter(metrics::SOLVE_LP_VARS),
            obs.counter(metrics::SOLVE_SUPPORT),
        );
        let out = svc.obfuscate_batch(&reqs, &mut rng);
        assert_eq!(out.len(), reqs.len());
        assert!(out
            .iter()
            .all(|o| o.served == Served::Optimal { cached: false }));
        // The reported interval lies in the serving neighborhood's
        // support (the support-lifted mechanism maps back to global
        // interval ids).
        for (o, &(_, loc, _)) in out.iter().zip(&reqs) {
            let (s, nb) = route(&svc, loc);
            assert_eq!(s, o.shard);
            let shard = svc.local_shard(s).unwrap();
            assert!(
                shard.members(nb).binary_search(&o.interval).is_ok(),
                "reported interval {} outside neighborhood {nb}'s support",
                o.interval
            );
        }
        // Every live mechanism is exactly its neighborhood's size and
        // passes the unreduced restricted-spec audit.
        let keyed = svc.live_mechanisms_keyed();
        assert!(!keyed.is_empty());
        for (s, nb, eps, mechanism) in keyed {
            let shard = svc.local_shard(s).unwrap();
            assert_eq!(mechanism.len(), shard.members(nb).len());
            let spec = shard.audit_spec(nb, eps);
            assert!(
                privacy::verify(&mechanism, &spec, 1e-6),
                "shard {s} neighborhood {nb} mechanism at ε={eps} must audit clean"
            );
        }
        // LP-shape telemetry was recorded (cumulative counters; other
        // concurrently running tests can only add to them).
        assert!(obs.counter(metrics::SOLVE_LP_VARS) > vars0);
        assert!(obs.counter(metrics::SOLVE_SUPPORT) > support0);
        assert!(obs.counter(metrics::LOCAL_NEIGHBORHOODS) > 0);
    }

    /// Cache keys are `(neighborhood, ε-bucket)`: requests routing to
    /// the same neighborhood share one cached mechanism, and the total
    /// cache population equals the number of distinct keys touched.
    #[test]
    fn local_mode_shares_cache_entries_per_neighborhood() {
        let mut svc = local_service(0.4, 0.5, Duration::ZERO);
        let mut rng = rand::rngs::StdRng::seed_from_u64(59);
        // Two co-located vehicles per shard: same neighborhood, same
        // bucket (5.0 and 5.2 round to one bucket) — one entry each.
        let mut reqs = requests(&svc, 5.0);
        let extra: Vec<_> = reqs.iter().map(|&(w, l, _)| (w, l, 5.2)).collect();
        reqs.extend(extra);
        let _ = svc.obfuscate_batch(&reqs, &mut rng);
        let distinct: HashSet<(usize, u32)> =
            reqs.iter().map(|&(_, loc, _)| route(&svc, loc)).collect();
        assert_eq!(svc.cached_mechanisms(), distinct.len());
        let warm = svc.obfuscate_batch(&reqs, &mut rng);
        assert!(warm
            .iter()
            .all(|o| o.served == Served::Optimal { cached: true }));
    }

    /// Cold keys in local mode serve the *restricted* graph-Laplace
    /// fallback — sized to the neighborhood, not the shard — while the
    /// optimum is in flight.
    #[test]
    fn local_mode_cold_keys_serve_the_restricted_fallback() {
        let mut svc = local_service(0.4, 0.5, Duration::ZERO);
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let reqs = requests(&svc, 5.0);
        let out = svc.obfuscate_batch(&reqs, &mut rng);
        assert!(out.iter().all(|o| o.served == Served::Fallback));
        for &(_, loc, eps) in &reqs {
            let (s, nb) = route(&svc, loc);
            let shard = svc.local_shard(s).unwrap();
            let k = shard.members(nb).len();
            assert!(
                k < shard.len(),
                "this map/radius must produce a strict restriction"
            );
            if nb == 0 {
                let fallback = svc.fallback_mechanism(s, eps).expect("fallback built");
                assert_eq!(fallback.len(), k);
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires a finite")]
    fn local_mode_rejects_finite_rho_with_infinite_radius() {
        let _ = local_service(0.4, f64::INFINITY, Duration::ZERO);
    }

    /// Tier floors that put every rung within a batch deadline's
    /// reach: 200 ms solves `Exact`, 80 ms `Clustered`, and zero
    /// serves `Laplace`.
    fn tier_floors() -> TierPolicy {
        TierPolicy {
            cluster_width: 0.3,
            exact_floor: Duration::from_millis(150),
            clustered_floor: Duration::from_millis(50),
        }
    }

    fn tiered_service() -> MechanismService {
        grid_service(ServiceConfig {
            tiers: tier_floors(),
            ..ServiceConfig::default()
        })
    }

    /// The deadline floors pick each rung of the quality ladder in
    /// turn: a generous deadline solves `Exact`, a tighter one solves
    /// `Clustered`, and a zero deadline serves the
    /// `Laplace` fallback while the background solve warms the cache.
    /// Every served tier's mechanism passes the full-spec privacy
    /// audit at its canonical ε.
    #[test]
    fn deadline_floors_walk_the_quality_ladder() {
        let mut svc = tiered_service();
        let mut rng = rand::rngs::StdRng::seed_from_u64(67);
        let schedule = [
            (Duration::from_millis(200), 2.0, QualityTier::Exact),
            (Duration::from_millis(80), 3.0, QualityTier::Clustered),
            (Duration::ZERO, 6.0, QualityTier::Laplace),
        ];
        for (deadline, eps, want) in schedule {
            let reqs = requests(&svc, eps);
            let out = svc.obfuscate_batch_with_deadline(&reqs, deadline, &mut rng);
            assert_eq!(out.len(), reqs.len());
            for o in &out {
                assert_eq!(o.tier, want, "deadline {deadline:?} must serve {want:?}");
                match want {
                    QualityTier::Laplace => assert_eq!(o.served, Served::Fallback),
                    _ => assert_eq!(o.served, Served::Optimal { cached: false }),
                }
            }
        }
        // Whatever the tier, everything live audits clean against the
        // full unreduced spec at its canonical ε.
        for (s, eps, mechanism) in svc.live_mechanisms() {
            let inst = svc.shard_instance(s);
            let spec = vlp_core::PrivacySpec::full(&inst.aux, eps, f64::INFINITY);
            assert!(
                privacy::verify(&mechanism, &spec, 1e-6),
                "shard {s} tiered mechanism at ε={eps} must audit clean"
            );
        }
    }

    /// The tiered hit scan: a key cached at a worse tier serves hits
    /// under a tight deadline, and under a zero deadline on both
    /// frontends, but a generous deadline refuses to degrade and solves
    /// the exact optimum instead. Zero-deadline batches hit the
    /// background-tier solve their own cold round admitted.
    #[test]
    fn hit_scan_serves_best_cached_tier_within_the_deadline() {
        let mut svc = tiered_service();
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        let reqs = requests(&svc, 3.0);

        // Cold at an 80ms deadline: solved and cached at `Clustered`.
        let out = svc.obfuscate_batch_with_deadline(&reqs, Duration::from_millis(80), &mut rng);
        assert!(out.iter().all(|o| o.tier == QualityTier::Clustered));
        // Same deadline again: a pure hit on the clustered entry.
        let clustered_hit = |o: &Obfuscation| {
            o.tier == QualityTier::Clustered && o.served == Served::Optimal { cached: true }
        };
        let out = svc.obfuscate_batch_with_deadline(&reqs, Duration::from_millis(80), &mut rng);
        assert!(out.iter().all(clustered_hit));
        // With only the clustered entry cached, a zero deadline hits it
        // on both frontends rather than falling back.
        let out = svc.obfuscate_batch_with_deadline(&reqs, Duration::ZERO, &mut rng);
        assert!(
            out.iter().all(clustered_hit),
            "zero-deadline batch: {out:?}"
        );
        for &(w, loc, eps) in &reqs {
            match svc.submit(w, loc, eps, &mut rng) {
                Response::Served(o) => assert!(clustered_hit(&o), "submit: {o:?}"),
                other => panic!("submit must hit the clustered entry, got {other:?}"),
            }
        }
        // A generous deadline must not serve the degraded entry: it
        // solves (and caches) the exact optimum alongside it.
        let out = svc.obfuscate_batch_with_deadline(&reqs, Duration::from_millis(200), &mut rng);
        assert!(
            out.iter()
                .all(|o| o.tier == QualityTier::Exact
                    && o.served == Served::Optimal { cached: false })
        );
        // A zero deadline scans every solved tier and hits the exact
        // entry rather than falling back.
        let out = svc.obfuscate_batch_with_deadline(&reqs, Duration::ZERO, &mut rng);
        assert!(out
            .iter()
            .all(|o| o.tier == QualityTier::Exact && o.served == Served::Optimal { cached: true }));

        // The background solve a zero-deadline cold batch admits runs
        // at the best tier (exact floor fits an unbounded deadline):
        // the next warm batch hits it.
        let cold = requests(&svc, 8.0);
        let out = svc.obfuscate_batch_with_deadline(&cold, Duration::ZERO, &mut rng);
        assert!(out.iter().all(|o| o.tier == QualityTier::Laplace));
        let out = svc.obfuscate_batch_with_deadline(&cold, Duration::ZERO, &mut rng);
        assert!(out
            .iter()
            .all(|o| o.tier == QualityTier::Exact && o.served == Served::Optimal { cached: true }));
    }

    /// The names this module formats at run time resolve in
    /// `vlp_obs::schema` — the registry the `docs_links` CI gate
    /// checks `OPERATIONS.md` against. Its fixed names are declared
    /// there and re-exported here, so only the formatted ones need a
    /// check.
    #[test]
    fn every_service_metric_is_in_the_schema_registry() {
        use vlp_obs::schema::is_known_metric;
        for s in 0..4 {
            assert!(is_known_metric(&metrics::breaker_state_series(s)));
            assert!(is_known_metric(&metrics::queue_depth_series(s)));
        }
        for tier in QualityTier::ALL {
            assert!(is_known_metric(metrics::tier_served_metric(tier)));
        }
    }

    /// The open-loop path serves tiers too: cold submits warm the
    /// cache at the background tier and report `Laplace` meanwhile,
    /// and warm submits carry the cached tier in their provenance.
    #[test]
    fn submit_reports_tier_provenance() {
        let svc = tiered_service();
        let mut rng = rand::rngs::StdRng::seed_from_u64(73);
        let reqs = requests(&svc, 5.0);
        for &(w, loc, eps) in &reqs {
            match svc.submit(w, loc, eps, &mut rng) {
                Response::Served(o) => {
                    assert_eq!(o.tier, QualityTier::Laplace);
                    assert_eq!(o.served, Served::Fallback);
                }
                other => panic!("cold submit must serve the fallback, got {other:?}"),
            }
        }
        svc.quiesce();
        for &(w, loc, eps) in &reqs {
            match svc.submit(w, loc, eps, &mut rng) {
                Response::Served(o) => {
                    assert_eq!(o.tier, QualityTier::Exact);
                    assert_eq!(o.served, Served::Optimal { cached: true });
                }
                other => panic!("warm submit must hit, got {other:?}"),
            }
        }
    }
}
