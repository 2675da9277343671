//! Building blocks of the resilience ladder shared by the batch and
//! open-loop frontends: the per-shard circuit breaker (rung 2), the
//! bounded LRU mechanism cache whose displacements feed the stale
//! store (rung 3), and the vocabulary of cache-miss solve outcomes.
//!
//! Everything here is single-threaded state; the serving core wraps it
//! in per-shard locks (see [`super::core`]).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use vlp_core::{Mechanism, QualityTier};

use super::metrics;

/// The per-shard circuit-breaker state (ladder rung 2).
///
/// ```text
///            ≥ threshold consecutive
///            solve failures
///  Closed ───────────────────────────► Open
///    ▲                                  │ cooldown epochs elapse
///    │ probe solve                      ▼
///    └────────────────────────────── HalfOpen
///      succeeds          (probe fails: back to Open)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation: cache-miss solves are admitted to the shard's
    /// solve queue.
    Closed,
    /// The shard's solves are shed without an attempt; requests are
    /// served from the stale store or the fallback.
    Open,
    /// The cooldown elapsed: exactly one probe solve per epoch is
    /// admitted; success re-closes, failure re-opens.
    HalfOpen,
}

impl BreakerState {
    /// Numeric encoding used by the `service.breaker.state.<s>` series:
    /// `0` closed, `1` half-open, `2` open.
    pub fn as_f64(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }
}

/// One shard's circuit breaker. All transitions happen under the
/// shard's table lock at deterministic points (epoch tick, then
/// success/failure accounting in solve-key order within a batch), so
/// breaker trajectories are reproducible for a given fault schedule.
#[derive(Debug, Clone)]
pub(crate) struct Breaker {
    pub(crate) state: BreakerState,
    pub(crate) consecutive_failures: u32,
    pub(crate) opened_at: u64,
}

impl Breaker {
    pub(crate) fn new() -> Self {
        Self {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: 0,
        }
    }

    /// Epoch-start transition: `Open` → `HalfOpen` once the cooldown
    /// has elapsed. Returns whether the transition happened.
    pub(crate) fn tick(&mut self, epoch: u64, cooldown: u64) -> bool {
        if self.state == BreakerState::Open && epoch >= self.opened_at.saturating_add(cooldown) {
            self.state = BreakerState::HalfOpen;
            true
        } else {
            false
        }
    }

    /// Records one solve failure (retries exhausted, or a blackout).
    /// Returns whether the breaker transitioned to `Open`.
    pub(crate) fn on_failure(&mut self, epoch: u64, threshold: u32) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            BreakerState::Closed if self.consecutive_failures >= threshold => {
                self.state = BreakerState::Open;
                self.opened_at = epoch;
                true
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at = epoch;
                true
            }
            _ => false,
        }
    }

    /// Records one successful solve. Returns whether a half-open
    /// breaker re-closed. A success while `Open` (a solve raced the
    /// trip in the same epoch) resets the failure run but stays open —
    /// recovery is only ever declared by a half-open probe.
    pub(crate) fn on_success(&mut self) -> bool {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            true
        } else {
            false
        }
    }
}

/// One shard-local mechanism cache key. In full-shard mode `nb` is
/// always `0`; in locally-relevant mode it is the canonical
/// neighborhood id from the shard's `LocalityPlan`, so nearby vehicles
/// assigned to the same ρ-net center share one entry per ε-bucket.
/// Distinct quality tiers cache separately — a clustered mechanism
/// must never masquerade as the exact one — with the tier *last* in
/// the derived ordering so `(nb, bucket)` remains the primary sort and
/// all-`Exact` traffic (the default tier policy) orders exactly as
/// before the tier field existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct MechKey {
    /// Canonical neighborhood id (`0` in full-shard mode).
    pub(crate) nb: u32,
    /// ε-bucket (rounded-down canonical budget index).
    pub(crate) bucket: u64,
    /// Quality tier the cached mechanism was solved at.
    pub(crate) tier: QualityTier,
}

impl MechKey {
    /// The full-shard exact-tier key for an ε-bucket.
    pub(crate) fn full(bucket: u64) -> Self {
        Self {
            nb: 0,
            bucket,
            tier: QualityTier::Exact,
        }
    }

    /// The same `(nb, bucket)` slot at another tier.
    pub(crate) fn at_tier(self, tier: QualityTier) -> Self {
        Self { tier, ..self }
    }
}

/// Per-solve LP shape, recorded so the `O(K²) → O(k²)` claim is
/// measurable from telemetry and bench artifacts rather than asserted:
/// the support size `k`, the LP variable count (`k²`), and the
/// instantiated inequality-row count of the solved constraint set.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SolveStats {
    pub(crate) support: u64,
    pub(crate) lp_vars: u64,
    pub(crate) lp_rows: u64,
}

/// A mechanism held in the service cache. The mechanism is shared by
/// `Arc` so the caller path serves a cache hit by bumping a refcount,
/// never by copying the obfuscation matrix.
#[derive(Debug, Clone)]
pub(crate) struct CachedSolve {
    pub(crate) mechanism: Arc<Mechanism>,
    pub(crate) quality_loss: f64,
    pub(crate) stats: SolveStats,
}

/// What happened to one distinct cache-miss `(shard, ε-bucket)` key.
/// `Solved`/`Failed` come back from a solver worker; `Blackout` and
/// `Shed` are admission refusals that never reached a queue.
pub(crate) enum MissOutcome {
    /// The solve succeeded under instance generation `gen`.
    Solved {
        solve: CachedSolve,
        gen: u64,
        attempts: Attempts,
    },
    /// Every attempt failed or panicked.
    Failed(Attempts),
    /// The shard is blacked out this epoch: the miss fails unattempted.
    Blackout,
    /// The breaker refused the solve (open, or half-open with this
    /// epoch's probe already taken).
    Shed,
}

/// A solver worker's record of one queued solve: wall time across all
/// attempts, attempts beyond the first, and panics caught.
pub(crate) struct Attempts {
    pub(crate) elapsed: Duration,
    pub(crate) retries: u32,
    pub(crate) panics: u32,
}

impl Attempts {
    /// Records the solve time and the retry and panic counts.
    pub(crate) fn record(&self, obs: &vlp_obs::Registry) {
        obs.record_duration(metrics::SOLVE_TIME, self.elapsed);
        if self.retries > 0 {
            obs.incr(metrics::RETRY_ATTEMPTS, u64::from(self.retries));
        }
        if self.panics > 0 {
            obs.incr(metrics::PANICS_CAUGHT, u64::from(self.panics));
        }
    }
}

/// The failpoint evaluation key for one solve attempt: a pure mix of
/// `(epoch, shard, neighborhood, ε-bucket, tier, attempt)`, so fault
/// schedules are independent of how solves are distributed over worker
/// threads. The neighborhood term is zero in full-shard mode and the
/// tier term is zero for `Exact` (discriminant 0), keeping committed
/// fault schedules byte-stable across both the locally-relevant and
/// the quality-tier refactors.
pub(crate) fn solve_key(epoch: u64, key: (usize, MechKey), attempt: u32) -> u64 {
    epoch
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((key.0 as u64).rotate_left(40))
        .wrapping_add(key.1.bucket.rotate_left(20))
        .wrapping_add(u64::from(key.1.nb).rotate_left(52))
        .wrapping_add((key.1.tier as u64).rotate_left(33))
        .wrapping_add(u64::from(attempt))
}

/// A minimal LRU map over `(neighborhood, ε-bucket)` keys (one cache
/// per shard): recency is a monotonic tick; eviction scans for the
/// minimum (capacities are small, and the scan is deterministic because
/// ticks are unique).
#[derive(Debug)]
pub(crate) struct LruCache {
    capacity: usize,
    tick: u64,
    pub(crate) map: HashMap<MechKey, (CachedSolve, u64)>,
}

impl LruCache {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    pub(crate) fn contains(&self, key: MechKey) -> bool {
        self.map.contains_key(&key)
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn get(&mut self, key: MechKey) -> Option<&CachedSolve> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|entry| {
            entry.1 = tick;
            &entry.0
        })
    }

    /// Inserts (or refreshes) an entry; returns the entry evicted to
    /// make room, if any, so the caller can demote it to the stale
    /// store instead of losing it.
    pub(crate) fn insert(
        &mut self,
        key: MechKey,
        value: CachedSolve,
    ) -> Option<(MechKey, CachedSolve)> {
        self.tick += 1;
        let mut evicted = None;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(&k, _)| k)
            {
                let (entry, _) = self.map.remove(&oldest).expect("oldest key present");
                evicted = Some((oldest, entry));
            }
        }
        self.map.insert(key, (value, self.tick));
        evicted
    }

    /// Removes every entry (a prior invalidation or an evict storm)
    /// and returns them in key order for demotion.
    pub(crate) fn drain_all(&mut self) -> Vec<(MechKey, CachedSolve)> {
        let mut keys: Vec<MechKey> = self.map.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|k| {
                let (entry, _) = self.map.remove(&k).expect("key listed above");
                (k, entry)
            })
            .collect()
    }
}
