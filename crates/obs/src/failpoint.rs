//! Deterministic fault injection (failpoints).
//!
//! Production resilience cannot be tested by waiting for production to
//! fail. This module lets a harness *script* failures — solver errors,
//! pricing panics, shard blackouts, cache-evict storms, deadline
//! jitter — and inject them into the hot paths deterministically, so a
//! chaos run is exactly as reproducible as a clean one.
//!
//! # Model
//!
//! A [`FaultPlan`] maps *site* names (e.g. `lp.resolve.fault`) to
//! [`FaultMode`]s. Whether a given evaluation fires is a **pure
//! function** of `(plan seed, site name, evaluation key)` — never of
//! wall-clock time, thread scheduling, or a shared counter — so the
//! same schedule produces the same faults no matter how work is
//! distributed over threads:
//!
//! * [`FaultMode::Ratio`] — fail a fixed fraction of keys, chosen by a
//!   seeded hash of `(seed, site, key)`;
//! * [`FaultMode::Window`] — fail exactly the keys in `[from, to)`
//!   (used with batch indices to script outages like a shard
//!   blackout);
//! * [`FaultMode::Every`] — fail keys divisible by `n`;
//! * [`FaultMode::Always`] / [`FaultMode::Off`] — unconditional.
//!
//! # Propagation
//!
//! Deep call sites (the simplex engine, column-generation pricing)
//! cannot thread a plan through their signatures, so the plan travels
//! in a **thread-local scope**: the orchestrator (e.g. the mechanism
//! service's solver pool) wraps each unit of work in
//! [`scope`]/[`ScopeGuard`] with the key identifying that unit, and
//! the instrumented site asks [`should_fail`]. With no active scope the
//! check is a single thread-local read returning `false` — the
//! fault-free hot path stays fault-free and cheap.
//!
//! Every evaluation under an active scope is counted in the
//! [`global`](crate::global) registry as `chaos.evaluated.<site>`, and
//! every injected fault as `chaos.injected.<site>`, so a chaos
//! artifact records exactly what was injected where.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vlp_obs::failpoint::{self, FaultMode, FaultPlan};
//!
//! let plan = Arc::new(
//!     FaultPlan::new(42).with("demo.fault", FaultMode::Window { from: 2, to: 4 }),
//! );
//! let fired: Vec<bool> = (0..6)
//!     .map(|batch| failpoint::scope(plan.clone(), batch, || failpoint::should_fail("demo.fault")))
//!     .collect();
//! assert_eq!(fired, [false, false, true, true, false, false]);
//! // Outside any scope nothing ever fires.
//! assert!(!failpoint::should_fail("demo.fault"));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Well-known failpoint site names wired through the workspace.
///
/// Sites live here (rather than in the crates that check them) so the
/// chaos harness, the runbook (`OPERATIONS.md`), and the instrumented
/// crates agree on one spelling.
pub mod site {
    /// Fails [`LinearProgram::solve`](https://docs.rs/lpsolve) with an
    /// injected solver error. Keyed by the orchestrator's work unit.
    pub const LP_SOLVE: &str = "lp.solve.fault";
    /// Fails `IncrementalLp::resolve` with an injected solver error.
    pub const LP_RESOLVE: &str = "lp.resolve.fault";
    /// Panics inside a column-generation pricing round (a worker-crash
    /// stand-in; serving layers must contain it).
    pub const CG_PRICING_PANIC: &str = "cg.pricing.panic";
    /// Collapses the mechanism service's solve deadline to zero for
    /// the keyed batch.
    pub const SERVICE_DEADLINE_JITTER: &str = "service.deadline.jitter";
    /// Demotes every cached mechanism to the stale store at the start
    /// of the keyed batch (an eviction storm / cache poisoning purge).
    pub const SERVICE_EVICT_STORM: &str = "service.cache.evict_storm";
    /// Prefix for per-shard blackout sites: `service.shard.blackout.3`
    /// makes every solve on shard 3 fail for the keyed batch, as if
    /// the shard's workers crashed.
    pub const SERVICE_SHARD_BLACKOUT: &str = "service.shard.blackout";

    /// The blackout site name for shard `s`.
    pub fn shard_blackout(s: usize) -> String {
        format!("{SERVICE_SHARD_BLACKOUT}.{s}")
    }
}

/// When a configured failpoint site fires. See the module docs for the
/// determinism contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultMode {
    /// Never fires (same as the site being absent from the plan).
    Off,
    /// Fires on every evaluation.
    Always,
    /// Fires on a `p` fraction of keys, selected by a seeded hash of
    /// `(seed, site, key)`; `p` is clamped to `[0, 1]`.
    Ratio(f64),
    /// Fires exactly for keys in `[from, to)`.
    Window {
        /// First failing key (inclusive).
        from: u64,
        /// First non-failing key after the window (exclusive).
        to: u64,
    },
    /// Fires for keys divisible by `n` (`n = 0` never fires).
    Every(u64),
}

/// A deterministic, seeded schedule of faults: site name → mode.
///
/// The empty plan (also [`FaultPlan::default`]) injects nothing and is
/// the production configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    sites: BTreeMap<String, FaultMode>,
}

impl FaultPlan {
    /// An empty plan with the given ratio-selection seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            sites: BTreeMap::new(),
        }
    }

    /// Builder-style [`set`](Self::set).
    #[must_use]
    pub fn with(mut self, site: impl Into<String>, mode: FaultMode) -> Self {
        self.set(site, mode);
        self
    }

    /// Configures `site` to fire per `mode` (replacing any previous
    /// mode for that site).
    pub fn set(&mut self, site: impl Into<String>, mode: FaultMode) {
        self.sites.insert(site.into(), mode);
    }

    /// Whether the plan configures no sites (injects nothing).
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The ratio-selection seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured sites, in name order.
    pub fn sites(&self) -> impl Iterator<Item = (&str, FaultMode)> {
        self.sites.iter().map(|(name, &mode)| (name.as_str(), mode))
    }

    /// Parses a compact schedule string:
    /// `"site=mode[;site=mode]*"` where mode is one of `off`,
    /// `always`, `ratio:<p>`, `window:<from>..<to>`, `every:<n>`.
    ///
    /// ```
    /// use vlp_obs::failpoint::{FaultMode, FaultPlan};
    /// let plan = FaultPlan::parse(
    ///     "lp.resolve.fault=ratio:0.3; service.shard.blackout.1=window:6..12",
    ///     7,
    /// )
    /// .unwrap();
    /// assert_eq!(plan.sites().count(), 2);
    /// ```
    ///
    /// # Errors
    ///
    /// A description of the first malformed clause.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = FaultPlan::new(seed);
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (site, mode) = clause
                .split_once('=')
                .ok_or_else(|| format!("clause `{clause}` is missing `=`"))?;
            let mode = mode.trim();
            let parsed = if mode == "off" {
                FaultMode::Off
            } else if mode == "always" {
                FaultMode::Always
            } else if let Some(p) = mode.strip_prefix("ratio:") {
                FaultMode::Ratio(
                    p.parse::<f64>()
                        .map_err(|e| format!("bad ratio in `{clause}`: {e}"))?,
                )
            } else if let Some(range) = mode.strip_prefix("window:") {
                let (from, to) = range
                    .split_once("..")
                    .ok_or_else(|| format!("bad window in `{clause}` (want from..to)"))?;
                FaultMode::Window {
                    from: from
                        .parse()
                        .map_err(|e| format!("bad window start in `{clause}`: {e}"))?,
                    to: to
                        .parse()
                        .map_err(|e| format!("bad window end in `{clause}`: {e}"))?,
                }
            } else if let Some(n) = mode.strip_prefix("every:") {
                FaultMode::Every(
                    n.parse()
                        .map_err(|e| format!("bad period in `{clause}`: {e}"))?,
                )
            } else {
                return Err(format!("unknown mode `{mode}` in `{clause}`"));
            };
            plan.set(site.trim(), parsed);
        }
        Ok(plan)
    }

    /// Pure decision: does `site` fire for `key` under this plan?
    /// Depends only on `(seed, site, key)` — safe to call from any
    /// thread in any order.
    pub fn decide(&self, site: &str, key: u64) -> bool {
        match self.sites.get(site) {
            None | Some(FaultMode::Off) => false,
            Some(FaultMode::Always) => true,
            Some(FaultMode::Ratio(p)) => {
                let unit = mix64(self.seed ^ fnv1a(site) ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                ((unit >> 11) as f64 / (1u64 << 53) as f64) < p.clamp(0.0, 1.0)
            }
            Some(FaultMode::Window { from, to }) => (*from..*to).contains(&key),
            Some(FaultMode::Every(n)) => *n != 0 && key.is_multiple_of(*n),
        }
    }

    /// [`decide`](Self::decide), plus `chaos.evaluated.<site>` /
    /// `chaos.injected.<site>` accounting in the
    /// [`global`](crate::global) registry for configured sites.
    pub fn evaluate(&self, site: &str, key: u64) -> bool {
        if !matches!(self.sites.get(site), None | Some(FaultMode::Off)) {
            crate::global().incr(&format!("chaos.evaluated.{site}"), 1);
        }
        let fired = self.decide(site, key);
        if fired {
            crate::global().incr(&format!("chaos.injected.{site}"), 1);
        }
        fired
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the site name, so distinct sites draw independent
/// ratio streams.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01B3);
    }
    h
}

/// Deterministic jitter in `[0, bound_ns)` for retry backoff: a pure
/// function of `(seed, key, attempt)`, so backoff schedules are
/// reproducible. Returns 0 when `bound_ns` is 0.
pub fn backoff_jitter_ns(seed: u64, key: u64, attempt: u32, bound_ns: u64) -> u64 {
    if bound_ns == 0 {
        return 0;
    }
    mix64(seed ^ key.rotate_left(23) ^ u64::from(attempt).wrapping_mul(0x9E37_79B9)) % bound_ns
}

thread_local! {
    static ACTIVE: RefCell<Option<(Arc<FaultPlan>, u64)>> = const { RefCell::new(None) };
}

/// Restores the previously active failpoint scope on drop; created by
/// [`activate`].
pub struct ScopeGuard {
    prev: Option<(Arc<FaultPlan>, u64)>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| *a.borrow_mut() = self.prev.take());
    }
}

/// Activates `plan` with evaluation key `key` on the current thread
/// until the returned guard drops (panic-safe: unwinding drops the
/// guard and restores the previous scope).
#[must_use = "the scope deactivates when the returned guard drops"]
pub fn activate(plan: Arc<FaultPlan>, key: u64) -> ScopeGuard {
    let prev = ACTIVE.with(|a| a.borrow_mut().replace((plan, key)));
    ScopeGuard { prev }
}

/// Runs `f` with `plan`/`key` active on the current thread.
pub fn scope<R>(plan: Arc<FaultPlan>, key: u64, f: impl FnOnce() -> R) -> R {
    let _guard = activate(plan, key);
    f()
}

/// The scope active on the current thread, as `(plan, key)`, if any.
/// A caller that hands work to other threads activates it on each of
/// them, so the work evaluates the same sites on any core count.
pub fn current() -> Option<(Arc<FaultPlan>, u64)> {
    ACTIVE.with(|a| a.borrow().clone())
}

/// Asks the thread's active plan whether `site` fires for the scope's
/// key. `false` (and no accounting) when no scope is active.
pub fn should_fail(site: &str) -> bool {
    ACTIVE.with(|a| {
        let borrow = a.borrow();
        match &*borrow {
            None => false,
            Some((plan, key)) => plan.evaluate(site, *key),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires_and_is_default() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        for key in 0..100 {
            assert!(!plan.decide("anything", key));
        }
    }

    #[test]
    fn window_and_every_modes_are_exact() {
        let plan = FaultPlan::new(0)
            .with("w", FaultMode::Window { from: 3, to: 5 })
            .with("e", FaultMode::Every(4))
            .with("z", FaultMode::Every(0));
        let fired: Vec<u64> = (0..8).filter(|&k| plan.decide("w", k)).collect();
        assert_eq!(fired, [3, 4]);
        let fired: Vec<u64> = (0..9).filter(|&k| plan.decide("e", k)).collect();
        assert_eq!(fired, [0, 4, 8]);
        assert!((0..100).all(|k| !plan.decide("z", k)));
    }

    #[test]
    fn ratio_mode_is_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::new(99).with("r", FaultMode::Ratio(0.3));
        let a: Vec<bool> = (0..2000).map(|k| plan.decide("r", k)).collect();
        let b: Vec<bool> = (0..2000).map(|k| plan.decide("r", k)).collect();
        assert_eq!(a, b, "same (seed, site, key) must decide identically");
        let rate = a.iter().filter(|&&x| x).count() as f64 / a.len() as f64;
        assert!((rate - 0.3).abs() < 0.05, "observed injection rate {rate}");
        // Edge ratios are unconditional.
        let always = FaultPlan::new(1).with("r", FaultMode::Ratio(1.0));
        assert!((0..100).all(|k| always.decide("r", k)));
        let never = FaultPlan::new(1).with("r", FaultMode::Ratio(0.0));
        assert!((0..100).all(|k| !never.decide("r", k)));
    }

    #[test]
    fn distinct_sites_and_seeds_draw_independent_streams() {
        let plan = FaultPlan::new(7)
            .with("a", FaultMode::Ratio(0.5))
            .with("b", FaultMode::Ratio(0.5));
        let a: Vec<bool> = (0..256).map(|k| plan.decide("a", k)).collect();
        let b: Vec<bool> = (0..256).map(|k| plan.decide("b", k)).collect();
        assert_ne!(a, b, "sites must not share one decision stream");
        let reseeded = FaultPlan::new(8).with("a", FaultMode::Ratio(0.5));
        let c: Vec<bool> = (0..256).map(|k| reseeded.decide("a", k)).collect();
        assert_ne!(a, c, "seeds must reshuffle the selected keys");
    }

    #[test]
    fn parse_round_trips_every_mode() {
        let plan = FaultPlan::parse(
            "a=off; b=always; c=ratio:0.25; d=window:2..9; e=every:3;",
            5,
        )
        .unwrap();
        let modes: Vec<(&str, FaultMode)> = plan.sites().collect();
        assert_eq!(
            modes,
            vec![
                ("a", FaultMode::Off),
                ("b", FaultMode::Always),
                ("c", FaultMode::Ratio(0.25)),
                ("d", FaultMode::Window { from: 2, to: 9 }),
                ("e", FaultMode::Every(3)),
            ]
        );
        assert!(FaultPlan::parse("nonsense", 0).is_err());
        assert!(FaultPlan::parse("a=ratio:x", 0).is_err());
        assert!(FaultPlan::parse("a=window:3", 0).is_err());
        assert!(FaultPlan::parse("a=sometimes", 0).is_err());
    }

    #[test]
    fn scope_nests_and_survives_panics() {
        let outer = Arc::new(FaultPlan::new(0).with("s", FaultMode::Always));
        let inner = Arc::new(FaultPlan::new(0).with("s", FaultMode::Off));
        scope(outer.clone(), 1, || {
            assert!(should_fail("s"));
            scope(inner.clone(), 1, || assert!(!should_fail("s")));
            assert!(should_fail("s"), "inner scope must restore the outer");
            let unwound = std::panic::catch_unwind(|| {
                let _guard = activate(inner.clone(), 2);
                panic!("boom");
            });
            assert!(unwound.is_err());
            assert!(should_fail("s"), "unwinding must restore the outer scope");
        });
        assert!(!should_fail("s"), "no scope active after the outermost");
    }

    #[test]
    fn evaluate_counts_into_the_global_registry() {
        let plan = FaultPlan::new(0).with("obs.test.fp", FaultMode::Always);
        let before_eval = crate::global().counter("chaos.evaluated.obs.test.fp");
        let before_inj = crate::global().counter("chaos.injected.obs.test.fp");
        assert!(plan.evaluate("obs.test.fp", 0));
        assert!(!plan.evaluate("obs.test.unconfigured", 0));
        assert_eq!(
            crate::global().counter("chaos.evaluated.obs.test.fp"),
            before_eval + 1
        );
        assert_eq!(
            crate::global().counter("chaos.injected.obs.test.fp"),
            before_inj + 1
        );
        assert_eq!(
            crate::global().counter("chaos.evaluated.obs.test.unconfigured"),
            0
        );
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        for attempt in 0..4 {
            let a = backoff_jitter_ns(9, 100, attempt, 1_000_000);
            let b = backoff_jitter_ns(9, 100, attempt, 1_000_000);
            assert_eq!(a, b);
            assert!(a < 1_000_000);
        }
        assert_eq!(backoff_jitter_ns(9, 100, 0, 0), 0);
        assert_ne!(
            backoff_jitter_ns(9, 100, 0, u64::MAX),
            backoff_jitter_ns(9, 100, 1, u64::MAX)
        );
    }
}
