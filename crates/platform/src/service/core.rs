//! The always-on serving core: long-lived per-shard solver workers fed
//! by bounded MPSC queues, per-shard-locked routing tables that serve
//! cache hits on the caller path, admission control with explicit
//! backpressure, and a graceful draining shutdown.
//!
//! ```text
//!              ┌────────────────────────── CoreShared ──────────────┐
//!  submit ───► │ route → shard table (Mutex)                        │
//!              │   hit  ── Arc clone ──────────────► sample, return │
//!              │   miss ── admission ─┬─ try_send ─► bounded queue  │
//!              │                      │              │              │
//!              │                      └─ shed ─► stale / fallback / │
//!              │                                 Rejected           │
//!              │ solver workers (N per shard) ◄──┘                  │
//!              │   solve w/ retry ladder → publish → cache/stale    │
//!              └────────────────────────────────────────────────────┘
//! ```
//!
//! Every ladder rule is implemented once here; the batch and open-loop
//! frontends only decide when each applies (see "One ladder, two
//! timings" in the service module docs).
//!
//! Lock discipline: a thread holds at most one shard's table lock at a
//! time, never acquires an engine `RwLock` while holding a table
//! lock, and the global in-flight counter is only taken after (or
//! without) a table lock — so there is no cycle and no deadlock. Cache
//! hits touch exactly one short table-lock critical section and never
//! enter a queue.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rand::RngExt;
use roadnet::{Location, Partition, RoadGraph};
use vlp_core::local::local_index;
use vlp_core::{CgOptions, LocalShard, Mechanism, Prior, QualityTier, VlpError, VlpInstance};
use vlp_obs::failpoint::{self, site, FaultPlan};

use super::ladder::{
    solve_key, Attempts, Breaker, BreakerState, CachedSolve, LruCache, MechKey, MissOutcome,
    SolveStats,
};
use super::trace::{Admission, TraceLedger};
use super::{metrics, Obfuscation, Response, Served, ServiceConfig, TierPolicy};
use crate::WorkerId;

/// Locks a mutex, recovering the data on poison: core state is kept
/// consistent under panic by construction (injected solver panics are
/// contained by the worker's unwind boundary before any lock is held).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The number of whole bucket widths in `epsilon`, floored: the one
/// rounding rule of the ε grid, shared by [`CoreShared::bucket`] and
/// the trace ledger. The nudge keeps exact multiples (5.0 / 0.25) from
/// flooring into the bucket below through float error.
pub(crate) fn grid_steps(epsilon: f64, width: f64) -> f64 {
    (epsilon / width + 1e-9).floor()
}

/// Per-shard counters accumulated under the table lock and published
/// to the `vlp-obs` registry on [`CoreShared::flush_metrics`] — the
/// hot path never touches the global registry mutex.
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    pub(crate) requests: u64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) served_optimal: u64,
    pub(crate) served_stale: u64,
    pub(crate) served_fallback: u64,
    pub(crate) enqueued: u64,
    pub(crate) coalesced: u64,
    pub(crate) queue_full: u64,
    pub(crate) rejected: u64,
    pub(crate) degraded: u64,
    /// Serves per quality tier, indexed by the `QualityTier`
    /// discriminant (`Exact`, `Clustered`, `Laplace`).
    pub(crate) served_tier: [u64; QualityTier::ALL.len()],
}

impl ShardStats {
    fn flush(&mut self, obs: &vlp_obs::Registry) {
        let pairs = [
            (metrics::REQUESTS, self.requests),
            (metrics::CACHE_HITS, self.hits),
            (metrics::CACHE_MISSES, self.misses),
            (metrics::OPTIMAL_SERVED, self.served_optimal),
            (metrics::STALE_SERVED, self.served_stale),
            (metrics::FALLBACK_SERVED, self.served_fallback),
            (metrics::QUEUE_ENQUEUED, self.enqueued),
            (metrics::QUEUE_COALESCED, self.coalesced),
            (metrics::QUEUE_FULL, self.queue_full),
            (metrics::SHED_REJECTED, self.rejected),
            (metrics::SHED_DEGRADED, self.degraded),
        ];
        for (name, value) in pairs {
            if value > 0 {
                obs.incr(name, value);
            }
        }
        for (tier, served) in QualityTier::ALL.into_iter().zip(self.served_tier) {
            if served > 0 {
                obs.incr(metrics::tier_served_metric(tier), served);
            }
        }
        *self = ShardStats::default();
    }

    /// Counts one serve by provenance and quality tier.
    #[inline]
    pub(crate) fn served(&mut self, tier: QualityTier, served: Served) {
        match served {
            Served::Optimal { .. } => self.served_optimal += 1,
            Served::Stale { .. } => self.served_stale += 1,
            Served::Fallback => self.served_fallback += 1,
        }
        self.served_tier[tier as usize] += 1;
    }
}

/// A served mechanism with its quality tier and provenance.
pub(crate) type Serve = (Arc<Mechanism>, QualityTier, Served);

/// One shard's routing table: everything the caller path and the
/// publish path share, behind a single per-shard mutex.
#[derive(Debug)]
pub(crate) struct ShardTable {
    pub(crate) cache: LruCache,
    /// Ladder rung 3: mechanisms displaced from the cache, each tagged
    /// with the epoch of its demotion.
    pub(crate) stale: HashMap<MechKey, (CachedSolve, u64)>,
    pub(crate) fallbacks: HashMap<MechKey, Arc<Mechanism>>,
    pub(crate) breaker: Breaker,
    /// `(neighborhood, ε-bucket)` keys with a solve currently queued or
    /// running; duplicate misses coalesce onto it instead of enqueueing
    /// again.
    pub(crate) inflight: HashSet<MechKey>,
    /// The epoch whose half-open probe slot has been used, if any.
    probe_epoch: Option<u64>,
    /// The epoch this shard is blacked out for, if any (set by `tick`
    /// from the chaos plan).
    blackout_epoch: Option<u64>,
    /// Keys whose blackout failure was already accounted this epoch
    /// (one breaker failure per key per epoch, like the batch path).
    blackout_accounted: HashSet<MechKey>,
    /// Bumped by each prior update; solves started under an older
    /// generation are demoted to stale instead of cached as fresh.
    pub(crate) instance_gen: u64,
    pub(crate) stats: ShardStats,
}

impl ShardTable {
    fn new(config: &ServiceConfig) -> Self {
        Self {
            cache: LruCache::new(config.cache_capacity),
            stale: HashMap::new(),
            fallbacks: HashMap::new(),
            breaker: Breaker::new(),
            inflight: HashSet::new(),
            probe_epoch: None,
            blackout_epoch: None,
            blackout_accounted: HashSet::new(),
            instance_gen: 0,
            stats: ShardStats::default(),
        }
    }

    /// The best tier cached for `slot`'s `(neighborhood, ε-bucket)`,
    /// scanning best-first up to `cap`. With the default (all-`Exact`)
    /// tier policy only the first probe ever exists.
    #[inline]
    pub(crate) fn cached_tier(&self, slot: MechKey, cap: QualityTier) -> Option<QualityTier> {
        QualityTier::ALL
            .into_iter()
            .take_while(|&tier| tier <= cap)
            .find(|&tier| self.cache.contains(slot.at_tier(tier)))
    }

    /// The admission decision for one cache miss at `epoch`: `Ok` admits
    /// a solve, `Err` carries the outcome to apply instead. An open
    /// breaker sheds (rung 2); a half-open breaker admits one probe per
    /// epoch and sheds the rest; a shard blacked out for `epoch` fails
    /// the miss without a solve attempt.
    pub(crate) fn admit(&mut self, epoch: u64) -> Result<(), MissOutcome> {
        match self.breaker.state {
            BreakerState::Closed => {}
            BreakerState::Open => return Err(MissOutcome::Shed),
            BreakerState::HalfOpen if self.probe_epoch == Some(epoch) => {
                return Err(MissOutcome::Shed)
            }
            BreakerState::HalfOpen => self.probe_epoch = Some(epoch),
        }
        if self.blackout_epoch == Some(epoch) {
            Err(MissOutcome::Blackout)
        } else {
            Ok(())
        }
    }

    /// The degraded serve for a failed or shed key: the stale entry
    /// (rung 3), else a previously built fallback (rung 4). `None` when
    /// neither exists — nothing is built here, so under backpressure a
    /// cold key costs no work.
    pub(crate) fn degraded(&self, key: MechKey, epoch: u64) -> Option<Serve> {
        if let Some((entry, demoted)) = self.stale.get(&key) {
            let age_batches = epoch.saturating_sub(*demoted);
            return Some((
                Arc::clone(&entry.mechanism),
                key.tier,
                Served::Stale { age_batches },
            ));
        }
        self.fallbacks
            .get(&key.at_tier(QualityTier::Laplace))
            .map(|m| (Arc::clone(m), QualityTier::Laplace, Served::Fallback))
    }

    /// Demotes a displaced cache entry into the bounded stale store
    /// (ladder rung 3), evicting the oldest demotion on overflow.
    pub(crate) fn demote(&mut self, capacity: usize, key: MechKey, entry: CachedSolve, epoch: u64) {
        if !self.stale.contains_key(&key) && self.stale.len() >= capacity {
            if let Some(&victim) = self
                .stale
                .iter()
                .map(|(k, &(_, demoted))| (demoted, k))
                .min()
                .map(|(_, k)| k)
            {
                self.stale.remove(&victim);
            }
        }
        self.stale.insert(key, (entry, epoch));
        vlp_obs::global().incr(metrics::STALE_DEMOTIONS, 1);
    }

    /// The fallback serve for `key`'s `(neighborhood, ε-bucket)` slot,
    /// its mechanism built lazily on first use. Fallbacks are stored at
    /// the `Laplace` tier whatever tier the requesting key carried — one
    /// closed-form mechanism per slot, shared by every tier that sheds
    /// to it.
    pub(crate) fn fallback_entry(
        &mut self,
        engine: &LocalShard,
        key: MechKey,
        canonical: f64,
    ) -> Serve {
        let key = key.at_tier(QualityTier::Laplace);
        let mechanism = self
            .fallbacks
            .entry(key)
            .or_insert_with(|| Arc::new(engine.fallback_neighborhood(key.nb, canonical)));
        (
            Arc::clone(mechanism),
            QualityTier::Laplace,
            Served::Fallback,
        )
    }
}

/// One queued cache-miss solve. `reply: Some` is batch mode — the
/// worker only reports the outcome and the batch frontend applies it
/// in deterministic key order; `reply: None` is open-loop mode — the
/// worker publishes the outcome into the shard table itself.
pub(crate) struct SolveJob {
    pub(crate) key: MechKey,
    /// The canonical (bucketed) ε to solve at.
    pub(crate) epsilon: f64,
    /// The epoch (or batch index) keying failpoint evaluation.
    pub(crate) epoch: u64,
    pub(crate) reply: Option<mpsc::Sender<((usize, MechKey), MissOutcome)>>,
}

/// A request routed onto its shard: the shard, the location in the
/// shard's frame, a snapshot of the shard's engine, the located
/// interval, and the neighborhood serving it.
pub(crate) struct Routed {
    pub(crate) shard: usize,
    pub(crate) local: Location,
    pub(crate) engine: Arc<LocalShard>,
    pub(crate) interval: usize,
    pub(crate) nb: u32,
}

impl Routed {
    /// The exact-tier cache slot for this request at ε-bucket `bucket`.
    #[inline]
    pub(crate) fn slot(&self, bucket: u64) -> MechKey {
        MechKey {
            nb: self.nb,
            bucket,
            tier: QualityTier::Exact,
        }
    }

    /// Samples `mechanism` for this request and transplants the true
    /// location onto the reported interval.
    pub(crate) fn obfuscate<R: RngExt + ?Sized>(
        &self,
        worker: WorkerId,
        (mechanism, tier, served): &Serve,
        epsilon: f64,
        rng: &mut R,
    ) -> Obfuscation {
        let members = self.engine.members(self.nb);
        // `nb` is the interval's own assignment, and an interval is
        // ρ-covered by its center, hence in the ρ + r support ball.
        let row = local_index(members, self.interval)
            .expect("an interval is in its assigned neighborhood's support");
        let j = members[mechanism.sample_interval(row, rng)];
        let location = self
            .engine
            .disc()
            .transplant(self.engine.graph(), self.local, j)
            .expect("reported interval lies on the shard");
        Obfuscation {
            worker,
            shard: self.shard,
            interval: j,
            location,
            epsilon,
            tier: *tier,
            served: *served,
        }
    }
}

/// One region shard's runtime: its solve engine (copy-on-write behind
/// an `RwLock` so prior updates never block readers for the clone), its
/// routing table, and the sending half of its bounded solve queue.
#[derive(Debug)]
pub(crate) struct ShardRuntime {
    engine: RwLock<Arc<LocalShard>>,
    pub(crate) table: Mutex<ShardTable>,
    sender: Mutex<Option<SyncSender<SolveJob>>>,
    /// Jobs completed after shutdown began (the drain).
    drained: AtomicU64,
}

impl ShardRuntime {
    /// A snapshot of the shard's engine (cheap: one refcount bump).
    pub(crate) fn engine(&self) -> Arc<LocalShard> {
        Arc::clone(&self.engine.read().unwrap_or_else(|p| p.into_inner()))
    }

    fn sender(&self) -> Option<SyncSender<SolveJob>> {
        lock(&self.sender).clone()
    }
}

/// What a graceful [`MechanismService::shutdown`] drained: queued or
/// running solve jobs completed between the shutdown request and the
/// last worker exiting, per shard. Shards are drained and joined in
/// shard order, each queue in FIFO order, so given a quiesced set of
/// queued jobs the drain is deterministic.
///
/// [`MechanismService::shutdown`]: super::MechanismService::shutdown
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Solve jobs completed during the drain, indexed by shard.
    pub drained: Vec<u64>,
}

impl ShutdownReport {
    /// Total jobs drained across shards.
    pub fn total(&self) -> u64 {
        self.drained.iter().sum()
    }
}

/// State shared between submitters, solver workers, and the batch
/// frontend.
#[derive(Debug)]
pub(crate) struct CoreShared {
    pub(crate) partition: Partition,
    pub(crate) shards: Vec<ShardRuntime>,
    pub(crate) chaos: Arc<FaultPlan>,
    pub(crate) config: ServiceConfig,
    /// The logical clock: batch index for the batch frontend, tick
    /// count for the open-loop frontend. Chaos schedules, breaker
    /// cooldowns, and staleness ages are all keyed by it.
    pub(crate) epoch: AtomicU64,
    /// Per-vehicle trace-budget ledgers, present only when
    /// [`ServiceConfig::budget`] is `Some` — the disabled path never
    /// takes this lock and is bit-identical to the unaccounted
    /// service.
    accountant: Option<Mutex<TraceLedger>>,
    inflight_jobs: Mutex<u64>,
    idle: Condvar,
    shutting_down: AtomicBool,
}

impl CoreShared {
    /// The ε-bucket and canonical ε for a requested `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is below one bucket width.
    pub(crate) fn bucket(&self, epsilon: f64) -> (u64, f64) {
        let width = self.config.epsilon_bucket;
        assert!(
            epsilon >= width,
            "requested epsilon {epsilon} is below the bucket width {width}"
        );
        let bucket = grid_steps(epsilon, width) as u64;
        (bucket, bucket as f64 * width)
    }

    fn inflight_add(&self) {
        *lock(&self.inflight_jobs) += 1;
    }

    fn inflight_undo(&self) {
        let mut n = lock(&self.inflight_jobs);
        *n -= 1;
        if *n == 0 {
            self.idle.notify_all();
        }
    }

    fn note_done(&self, s: usize) {
        if self.shutting_down.load(Ordering::Relaxed) {
            self.shards[s].drained.fetch_add(1, Ordering::Relaxed);
        }
        self.inflight_undo();
    }

    /// Blocks until no solve job is queued or running.
    pub(crate) fn quiesce(&self) {
        let mut n = lock(&self.inflight_jobs);
        while *n > 0 {
            n = self.idle.wait(n).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Routes a request onto its shard and interval. `None` when the
    /// location is on no shard: an unknown edge, a dropped
    /// cross-boundary edge, or an offset outside the edge (NaN,
    /// negative, or past its length).
    // `submit` is generic over the caller's rng, so the hit path is
    // compiled in the caller's crate; its helpers here, in `Routed`,
    // `ShardTable::cached_tier` and `ShardStats::served` are marked
    // `#[inline]` so they can be inlined there (without it
    // `perfbench`'s `hit_stream` ran about 5% slower on a 2-vCPU VM).
    #[inline]
    pub(crate) fn route(&self, loc: Location) -> Option<Routed> {
        let (shard, local) = self.partition.to_local(loc)?;
        let engine = self.shards[shard].engine();
        let interval = engine.disc().locate(engine.graph(), local)?;
        let nb = engine.neighborhood_of(interval);
        Some(Routed {
            shard,
            local,
            engine,
            interval,
            nb,
        })
    }

    /// Serves one open-loop request on the caller path. See
    /// [`MechanismService::submit`] for the contract.
    ///
    /// [`MechanismService::submit`]: super::MechanismService::submit
    pub(crate) fn submit<R: RngExt + ?Sized>(
        &self,
        worker: WorkerId,
        loc: Location,
        epsilon: f64,
        rng: &mut R,
    ) -> Response {
        let Some(route) = self.route(loc) else {
            vlp_obs::global().incr(metrics::OFF_PARTITION, 1);
            return Response::OffPartition { worker };
        };
        // Trace accounting (enabled only): throttle the requested ε
        // against the vehicle's ledger and reserve the grant. The
        // reservation is committed on a serve and released on a
        // rejection, so the ledger equals exactly what was revealed.
        let mut reservation = None;
        let epsilon = match &self.accountant {
            None => epsilon,
            Some(acct) => match lock(acct).admit(worker, epsilon, self.config.epsilon_bucket) {
                Admission::Granted { epsilon, throttled } => {
                    reservation = Some((epsilon, throttled));
                    epsilon
                }
                Admission::Refused { remaining } => {
                    return Response::BudgetExhausted {
                        worker,
                        shard: route.shard,
                        remaining,
                    }
                }
            },
        };
        let (bucket, canonical) = self.bucket(epsilon);
        let epoch = self.epoch.load(Ordering::Relaxed);
        let slot = route.slot(bucket);
        let shard = &self.shards[route.shard];

        let serve: Option<Serve> = {
            let mut t = lock(&shard.table);
            t.stats.requests += 1;
            // Best-tier-first hit scan: a cached clustered mechanism
            // still beats the fallback.
            if let Some(tier) = t.cached_tier(slot, QualityTier::Clustered) {
                let hit = t
                    .cache
                    .get(slot.at_tier(tier))
                    .map(|e| Arc::clone(&e.mechanism))
                    .expect("cached_tier() above");
                // The hot path: one refcount bump under the table lock,
                // sampling happens outside it. No queue is touched.
                let served = Served::Optimal { cached: true };
                t.stats.hits += 1;
                t.stats.served(tier, served);
                Some((hit, tier, served))
            } else {
                t.stats.misses += 1;
                let key = slot.at_tier(self.config.tiers.background_tier());
                self.admit_miss(&mut t, shard, &route.engine, key, canonical, epoch)
            }
        };
        match serve {
            None => {
                if let (Some(acct), Some((granted, _))) = (&self.accountant, reservation) {
                    // Nothing was revealed; return the reservation.
                    lock(acct).release(worker, granted);
                }
                Response::Rejected {
                    worker,
                    shard: route.shard,
                    epsilon: canonical,
                }
            }
            Some(serve) => {
                if let (Some(acct), Some((_, throttled))) = (&self.accountant, reservation) {
                    lock(acct).commit(throttled);
                }
                Response::Served(route.obfuscate(worker, &serve, canonical, rng))
            }
        }
    }

    /// The cache-miss half of `submit`, with the shard's table lock
    /// held: the admission decision, applied at once; an admitted miss
    /// coalesces onto an in-flight solve or is enqueued and serves the
    /// fallback meanwhile; a refused one (breaker, blackout, full
    /// queue, shutdown) is shed to the degraded serve, or rejected
    /// (`None`) when there is nothing to degrade to.
    fn admit_miss(
        &self,
        t: &mut ShardTable,
        shard: &ShardRuntime,
        engine: &LocalShard,
        key: MechKey,
        canonical: f64,
        epoch: u64,
    ) -> Option<Serve> {
        let pending = match t.admit(epoch) {
            Err(outcome) => {
                self.apply_outcome(t, key, outcome, epoch);
                false
            }
            Ok(()) if t.inflight.contains(&key) => {
                // A solve for this key is already queued or running.
                t.stats.coalesced += 1;
                true
            }
            Ok(()) => {
                self.inflight_add();
                let job = SolveJob {
                    key,
                    epsilon: canonical,
                    epoch,
                    reply: None,
                };
                match shard.sender().map(|tx| tx.try_send(job)) {
                    Some(Ok(())) => {
                        t.inflight.insert(key);
                        t.stats.enqueued += 1;
                        true
                    }
                    Some(Err(TrySendError::Full(_))) => {
                        self.inflight_undo();
                        t.stats.queue_full += 1;
                        false
                    }
                    Some(Err(TrySendError::Disconnected(_))) | None => {
                        // Shutting down: no new solves are admitted.
                        self.inflight_undo();
                        false
                    }
                }
            }
        };
        let serve = if pending {
            // Warming: the optimum is on its way; hold the line with
            // the fallback floor at the same canonical ε (rung 4).
            Some(t.fallback_entry(engine, key, canonical))
        } else {
            let serve = t.degraded(key, epoch);
            match serve {
                Some(_) => t.stats.degraded += 1,
                None => t.stats.rejected += 1,
            }
            serve
        };
        if let Some((_, tier, served)) = &serve {
            t.stats.served(*tier, *served);
        }
        serve
    }

    /// Solves a batch's admitted misses in reply mode — each worker
    /// returns its outcome instead of publishing it — and blocks until
    /// every outcome is back. Workers run the retry ladder (rung 1)
    /// exactly as on the open-loop path.
    ///
    /// # Panics
    ///
    /// Panics if the core has shut down.
    pub(crate) fn solve_in_reply_mode(
        &self,
        misses: &[((usize, MechKey), f64)],
        epoch: u64,
    ) -> Vec<((usize, MechKey), MissOutcome)> {
        let (reply, outcomes) = mpsc::channel();
        for &((s, key), epsilon) in misses {
            let job = SolveJob {
                key,
                epsilon,
                epoch,
                reply: Some(reply.clone()),
            };
            self.inflight_add();
            if self.shards[s]
                .sender()
                .is_none_or(|tx| tx.send(job).is_err())
            {
                self.inflight_undo();
                panic!("serving core is running");
            }
        }
        drop(reply);
        outcomes.into_iter().collect()
    }

    /// Moves every shard to `epoch`: a scheduled evict storm demotes
    /// every cached mechanism to the stale store, a scheduled shard
    /// blackout is armed for `epoch`, and open breakers whose cooldown
    /// has elapsed turn half-open. `tick` passes the epoch it advances
    /// to; a batch passes its own (pre-increment) index.
    pub(crate) fn advance_epoch(&self, epoch: u64) {
        let obs = vlp_obs::global();
        let chaos_on = !self.chaos.is_empty();
        let storm = chaos_on && self.chaos.evaluate(site::SERVICE_EVICT_STORM, epoch);
        let res = &self.config.resilience;
        for (s, shard) in self.shards.iter().enumerate() {
            let mut t = lock(&shard.table);
            if storm {
                for (key, entry) in t.cache.drain_all() {
                    t.demote(res.stale_capacity, key, entry, epoch);
                }
            }
            if chaos_on && self.chaos.evaluate(&site::shard_blackout(s), epoch) {
                t.blackout_epoch = Some(epoch);
                t.blackout_accounted.clear();
            }
            if t.breaker.tick(epoch, res.breaker_cooldown) {
                obs.incr(metrics::BREAKER_HALF_OPEN, 1);
            }
        }
    }

    /// Advances the logical clock by one epoch ([`Self::advance_epoch`]),
    /// samples the per-shard health series, and flushes the per-shard
    /// counters. Returns the new epoch.
    pub(crate) fn tick(&self) -> u64 {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.advance_epoch(epoch);
        let obs = vlp_obs::global();
        for (s, shard) in self.shards.iter().enumerate() {
            let mut t = lock(&shard.table);
            obs.push(&metrics::breaker_state_series(s), t.breaker.state.as_f64());
            obs.push(&metrics::queue_depth_series(s), t.inflight.len() as f64);
            t.stats.flush(obs);
        }
        if let Some(acct) = &self.accountant {
            let mut a = lock(acct);
            obs.push(metrics::TRACE_FILL, a.mean_fill());
            a.stats.flush(obs);
        }
        epoch
    }

    /// Publishes accumulated per-shard counters into the `vlp-obs`
    /// registry without advancing the epoch.
    pub(crate) fn flush_metrics(&self) {
        let obs = vlp_obs::global();
        for shard in &self.shards {
            lock(&shard.table).stats.flush(obs);
        }
        if let Some(acct) = &self.accountant {
            lock(acct).stats.flush(obs);
        }
    }

    /// Cumulative ε charged to `worker`'s trace budget; `None` when
    /// accounting is disabled.
    pub(crate) fn budget_spent(&self, worker: WorkerId) -> Option<f64> {
        self.accountant.as_ref().map(|a| lock(a).spent(worker))
    }

    /// Swaps shard `s`'s engine for one with the new worker prior
    /// (copy-on-write) and invalidates its cached mechanisms — they
    /// were optimal for the old prior. Fallbacks are prior-free and
    /// stay. In-flight solves against the old engine are demoted to
    /// the stale store when they land (generation check).
    pub(crate) fn set_worker_prior(&self, s: usize, f_p: Prior) {
        let shard = &self.shards[s];
        {
            let mut slot = shard.engine.write().unwrap_or_else(|p| p.into_inner());
            Arc::make_mut(&mut slot).set_worker_prior(f_p);
        }
        let epoch = self.epoch.load(Ordering::Relaxed);
        let stale_capacity = self.config.resilience.stale_capacity;
        let mut t = lock(&shard.table);
        t.instance_gen += 1;
        let dropped = t.cache.drain_all();
        vlp_obs::global().incr(metrics::PRIOR_INVALIDATIONS, dropped.len() as u64);
        // The displaced mechanisms are optimal for the *old* prior:
        // stale in quality, identical in privacy — demote, don't drop.
        for (bucket, entry) in dropped {
            t.demote(stale_capacity, bucket, entry, epoch);
        }
    }

    /// Runs one solve job through the retry ladder (rung 1): up to
    /// `max_attempts` attempts with deterministic exponential backoff
    /// plus seeded jitter, each under a failpoint scope keyed by
    /// `(epoch, shard, bucket, attempt)` and an unwind boundary.
    /// A success carries the instance generation it solved under.
    fn run_solve(&self, s: usize, job: &SolveJob) -> MissOutcome {
        let shard = &self.shards[s];
        let gen = lock(&shard.table).instance_gen;
        let engine = shard.engine();
        let chaos_on = !self.chaos.is_empty();
        let res = &self.config.resilience;
        let base_ns = res.backoff_base.as_nanos() as u64;
        let cap_ns = res.backoff_cap.as_nanos() as u64;
        let key = (s, job.key);
        let started = Instant::now();
        let mut retries = 0u32;
        let mut panics = 0u32;
        let mut solved: Option<CachedSolve> = None;
        for attempt in 1..=res.max_attempts {
            if attempt > 1 {
                retries += 1;
                let exp = base_ns
                    .saturating_mul(1u64 << (attempt - 2).min(20))
                    .min(cap_ns);
                let jitter = failpoint::backoff_jitter_ns(
                    self.chaos.seed(),
                    solve_key(job.epoch, key, 0),
                    attempt,
                    base_ns,
                );
                thread::sleep(Duration::from_nanos(exp + jitter));
            }
            let _scope = chaos_on.then(|| {
                failpoint::activate(Arc::clone(&self.chaos), solve_key(job.epoch, key, attempt))
            });
            let result = catch_unwind(AssertUnwindSafe(|| {
                solve(
                    &engine,
                    job.key,
                    job.epsilon,
                    &self.config.cg,
                    &self.config.tiers,
                )
            }));
            match result {
                Ok(Ok(sv)) => {
                    solved = Some(sv);
                    break;
                }
                Ok(Err(_)) => {}
                Err(_) => panics += 1,
            }
        }
        let attempts = Attempts {
            elapsed: started.elapsed(),
            retries,
            panics,
        };
        match solved {
            Some(solve) => MissOutcome::Solved {
                solve,
                gen,
                attempts,
            },
            None => MissOutcome::Failed(attempts),
        }
    }

    /// Applies one miss outcome to shard table `t`, stamping demotions
    /// and breaker trips with `epoch`: a solve is cached (or demoted, if
    /// it ran under a superseded prior) and closes a half-open breaker;
    /// a failure, or a blackout once per key per epoch, counts against
    /// the breaker; a shed is counted.
    pub(crate) fn apply_outcome(
        &self,
        t: &mut ShardTable,
        key: MechKey,
        outcome: MissOutcome,
        epoch: u64,
    ) {
        let obs = vlp_obs::global();
        let res = &self.config.resilience;
        let failed = match outcome {
            MissOutcome::Solved {
                solve,
                gen,
                attempts,
            } => {
                attempts.record(obs);
                // The LP shape as cumulative counters: sums commute, so
                // the totals do not depend on the order solves land in.
                obs.incr(metrics::SOLVE_SUPPORT, solve.stats.support);
                obs.incr(metrics::SOLVE_LP_VARS, solve.stats.lp_vars);
                obs.incr(metrics::SOLVE_LP_ROWS, solve.stats.lp_rows);
                if self.config.local.is_some() {
                    obs.incr(metrics::LOCAL_SOLVES, 1);
                }
                if t.breaker.on_success() {
                    obs.incr(metrics::BREAKER_RECLOSED, 1);
                }
                if gen == t.instance_gen {
                    if let Some((evicted_key, evicted)) = t.cache.insert(key, solve) {
                        obs.incr(metrics::CACHE_EVICTIONS, 1);
                        t.demote(res.stale_capacity, evicted_key, evicted, epoch);
                    }
                    // A fresh optimum supersedes any stale copy.
                    t.stale.remove(&key);
                } else {
                    // Solved under a superseded prior: privacy-equal,
                    // quality-stale — demote instead of caching fresh.
                    t.demote(res.stale_capacity, key, solve, epoch);
                }
                false
            }
            MissOutcome::Failed(attempts) => {
                attempts.record(obs);
                true
            }
            MissOutcome::Blackout => t.blackout_accounted.insert(key),
            MissOutcome::Shed => {
                obs.incr(metrics::BREAKER_SHED, 1);
                false
            }
        };
        if failed {
            obs.incr(metrics::SOLVE_ERRORS, 1);
            if t.breaker.on_failure(epoch, res.breaker_threshold) {
                obs.incr(metrics::BREAKER_OPENED, 1);
            }
        }
    }
}

/// Runs one solve for `key` at `key.tier` on a shard's engine and
/// packages it with its LP-shape stats. The clustered tier reads its
/// width from `tiers`.
///
/// # Panics
///
/// Panics on a `Laplace`-tier key: the graph-Laplace mechanism is
/// closed-form and built by [`ShardTable::fallback_entry`] — it never
/// occupies a solver worker.
fn solve(
    engine: &LocalShard,
    key: MechKey,
    epsilon: f64,
    cg: &CgOptions,
    tiers: &TierPolicy,
) -> Result<CachedSolve, VlpError> {
    let ls = match key.tier {
        QualityTier::Exact => engine.solve_neighborhood(key.nb, epsilon, cg),
        QualityTier::Clustered => {
            engine.clustered_neighborhood(key.nb, epsilon, tiers.cluster_width, cg)
        }
        QualityTier::Laplace => {
            unreachable!("Laplace is built closed-form, never queued as a solve")
        }
    }?;
    Ok(CachedSolve {
        mechanism: Arc::new(ls.mechanism),
        quality_loss: ls.quality_loss,
        stats: SolveStats {
            support: ls.support.len() as u64,
            lp_vars: ls.lp_vars as u64,
            lp_rows: ls.lp_rows as u64,
        },
    })
}

/// The solver-worker main loop: receive, solve through the retry
/// ladder, publish (open-loop) or reply (batch), repeat until the
/// queue disconnects.
fn worker_loop(shared: Arc<CoreShared>, s: usize, rx: Arc<Mutex<Receiver<SolveJob>>>) {
    loop {
        // Workers of one shard share the receiver behind a mutex; recv
        // blocks while holding it, which is exactly the work-stealing
        // we want (any idle worker takes the next job).
        let job = match lock(&rx).recv() {
            Ok(job) => job,
            Err(_) => break,
        };
        let outcome = shared.run_solve(s, &job);
        match &job.reply {
            Some(tx) => {
                // Batch mode: the frontend applies the outcome in
                // deterministic key order; a dropped receiver means the
                // batch gave up waiting, which cannot happen (it drains
                // exactly the jobs it enqueued).
                let _ = tx.send(((s, job.key), outcome));
            }
            None => {
                let epoch = shared.epoch.load(Ordering::Relaxed);
                let mut t = lock(&shared.shards[s].table);
                t.inflight.remove(&job.key);
                shared.apply_outcome(&mut t, job.key, outcome, epoch);
            }
        }
        shared.note_done(s);
    }
}

/// The owning handle of the serving core: shared state plus the worker
/// threads. Dropping it shuts the core down gracefully.
#[derive(Debug)]
pub(crate) struct ServingCore {
    pub(crate) shared: Arc<CoreShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServingCore {
    pub(crate) fn new(graph: RoadGraph, config: ServiceConfig) -> Self {
        assert!(config.n_shards > 0, "need at least one shard");
        assert!(config.delta > 0.0, "delta must be positive");
        assert!(config.epsilon_bucket > 0.0, "bucket width must be positive");
        assert!(config.cache_capacity > 0, "cache capacity must be positive");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        assert!(config.solver_threads > 0, "need at least one solver thread");
        assert!(
            config.resilience.max_attempts > 0,
            "need at least one solve attempt"
        );
        assert!(
            config.resilience.breaker_threshold > 0,
            "breaker threshold must be positive"
        );
        assert!(
            config.resilience.stale_capacity > 0,
            "stale capacity must be positive"
        );
        assert!(
            config.tiers.cluster_width >= 0.0 && config.tiers.cluster_width.is_finite(),
            "cluster width must be finite and non-negative"
        );
        if let Some(budget) = &config.budget {
            budget.validate(config.epsilon_bucket);
        }
        if let Some(local) = &config.local {
            assert!(local.rho > 0.0, "assignment radius rho must be positive");
            assert!(
                local.rho.is_infinite() || config.radius.is_finite(),
                "locally-relevant mode with a finite rho requires a finite \
                 protection radius (the support of a neighborhood is its \
                 rho + radius ball)"
            );
        }
        let partition = Partition::by_bands(&graph, config.n_shards);
        let chaos = Arc::new(config.chaos.clone());
        let mut receivers = Vec::new();
        let mut neighborhoods = 0u64;
        let shards: Vec<ShardRuntime> = partition
            .shards()
            .iter()
            .map(|s| {
                let (tx, rx) = mpsc::sync_channel(config.queue_capacity);
                receivers.push(Arc::new(Mutex::new(rx)));
                let graph = s.graph().clone();
                let engine = match &config.local {
                    // Full mode: the whole shard is one neighborhood.
                    None => LocalShard::whole_shard(
                        VlpInstance::uniform(graph, config.delta),
                        config.radius,
                    ),
                    Some(local) => {
                        LocalShard::uniform(graph, config.delta, local.rho, config.radius)
                    }
                };
                neighborhoods += engine.plan().neighborhood_count() as u64;
                ShardRuntime {
                    engine: RwLock::new(Arc::new(engine)),
                    table: Mutex::new(ShardTable::new(&config)),
                    sender: Mutex::new(Some(tx)),
                    drained: AtomicU64::new(0),
                }
            })
            .collect();
        if config.local.is_some() {
            vlp_obs::global().incr(metrics::LOCAL_NEIGHBORHOODS, neighborhoods);
        }
        let accountant = config
            .budget
            .map(|budget| Mutex::new(TraceLedger::new(budget)));
        let shared = Arc::new(CoreShared {
            partition,
            shards,
            chaos,
            config,
            epoch: AtomicU64::new(0),
            accountant,
            inflight_jobs: Mutex::new(0),
            idle: Condvar::new(),
            shutting_down: AtomicBool::new(false),
        });
        let mut workers = Vec::new();
        for (s, rx) in receivers.into_iter().enumerate() {
            for w in 0..shared.config.solver_threads {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                let handle = thread::Builder::new()
                    .name(format!("vlp-solve-{s}.{w}"))
                    .spawn(move || worker_loop(shared, s, rx))
                    .expect("spawn solver worker");
                workers.push(handle);
            }
        }
        Self { shared, workers }
    }

    /// Graceful shutdown: stops admitting solves, drops the queue
    /// senders in shard order, and joins every worker — each drains
    /// its queue FIFO before exiting. Idempotent.
    pub(crate) fn shutdown(&mut self) -> ShutdownReport {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        for shard in &self.shared.shards {
            lock(&shard.sender).take();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let drained: Vec<u64> = self
            .shared
            .shards
            .iter()
            .map(|shard| shard.drained.swap(0, Ordering::Relaxed))
            .collect();
        let total: u64 = drained.iter().sum();
        if total > 0 {
            vlp_obs::global().incr(metrics::QUEUE_DRAINED, total);
        }
        ShutdownReport { drained }
    }
}

impl Drop for ServingCore {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}
