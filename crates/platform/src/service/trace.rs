//! Per-vehicle trace privacy accounting and velocity-aware ε
//! adaptation for continuous serving.
//!
//! The paper's threat model is a sporadic report: one location, one ε.
//! A vehicle that reports every 20–30 s leaks more — per-report ε
//! budgets **compose linearly** along the trace (Andrés et al.), so a
//! trace of `T` reports at ε each is only (T·ε)-Geo-I as a whole. Two
//! pieces make continuous serving honest:
//!
//! * [`TraceBudgetConfig`] — a per-vehicle ε-composition **ledger** in
//!   the service ([`ServiceConfig::budget`]). Every served report
//!   charges its canonical (bucketed) ε against the vehicle's trace
//!   budget; as the ledger fills past the throttle knee the granted ε
//!   shrinks linearly toward zero, and once the grant would fall below
//!   one ε-bucket width the report is refused outright
//!   ([`Response::BudgetExhausted`]) — the cumulative ε served to a
//!   vehicle can never exceed its trace budget, by construction.
//! * [`VelocityEpsilon`] — a VA-GI-style adapter: a fast-moving
//!   vehicle's reports are further apart, so coarser obfuscation
//!   (smaller ε) buys the same protection radius per unit of exposure;
//!   a dwelling vehicle gets the full base ε. Scaling ε down with
//!   speed spends the trace budget where it matters.
//!
//! Both knobs stay inside the ε-bucket universe: grants are floored to
//! the bucket grid, so cache keying ([`MechKey`]) and the
//! never-less-private round-down contract are untouched. With
//! [`ServiceConfig::budget`] `None` (the default) the accountant is
//! absent and the serving path is bit-identical to the unaccounted
//! service (pinned by test).
//!
//! [`ServiceConfig::budget`]: super::ServiceConfig::budget
//! [`Response::BudgetExhausted`]: super::Response::BudgetExhausted
//! [`MechKey`]: super::ladder::MechKey

use std::collections::HashMap;

use super::core::grid_steps;
use crate::WorkerId;

/// Per-vehicle trace-budget accounting for continuous serving
/// ([`ServiceConfig::budget`]).
///
/// The ledger charges every *served* report's canonical ε against the
/// vehicle's `trace_budget`; refusals and rejections charge nothing.
/// Past the `throttle_start` fill fraction, grants shrink linearly —
/// at fill `f ≥ throttle_start` a request for ε is granted at most
/// `ε · (1 − f) / (1 − throttle_start)` — reaching zero as the ledger
/// fills, so a vehicle degrades gracefully (more noise per report)
/// instead of falling off a cliff.
///
/// # Example
///
/// ```
/// use platform::TraceBudgetConfig;
///
/// let cfg = TraceBudgetConfig { trace_budget: 10.0, throttle_start: 0.5 };
/// // Below the knee, requests pass through untouched.
/// assert_eq!(cfg.throttled(5.0, 0.0), 5.0);
/// // At 75% fill with a 50% knee, grants are halved.
/// assert_eq!(cfg.throttled(5.0, 7.5), 2.5);
/// // A full ledger grants nothing.
/// assert_eq!(cfg.throttled(5.0, 10.0), 0.0);
/// ```
///
/// [`ServiceConfig::budget`]: super::ServiceConfig::budget
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceBudgetConfig {
    /// Total ε a single vehicle may be served across its trace — the
    /// linear-composition bound on what the whole report sequence
    /// reveals. Must be at least one ε-bucket width (or the first
    /// report already refuses); `f64::INFINITY` disables throttling
    /// and refusal while keeping the ledger's accounting.
    pub trace_budget: f64,
    /// Ledger fill fraction (`spent / trace_budget`, in `[0, 1)`) at
    /// which ε-throttling starts. Below it requests are granted as
    /// asked; above it grants shrink linearly to zero at full.
    pub throttle_start: f64,
}

impl Default for TraceBudgetConfig {
    fn default() -> Self {
        Self {
            trace_budget: 20.0,
            throttle_start: 0.5,
        }
    }
}

impl TraceBudgetConfig {
    /// The most ε a vehicle that has already `spent` may be granted
    /// for its next report, before flooring to the bucket grid: the
    /// linear throttle above the knee, capped by what remains in the
    /// budget. Monotone non-increasing in `spent`.
    pub fn throttled(&self, requested: f64, spent: f64) -> f64 {
        let remaining = (self.trace_budget - spent).max(0.0);
        if !self.trace_budget.is_finite() {
            return requested;
        }
        let fill = spent / self.trace_budget;
        let scale = if fill >= self.throttle_start {
            // Linear descent from 1 at the knee to 0 at a full ledger.
            ((1.0 - fill) / (1.0 - self.throttle_start)).max(0.0)
        } else {
            1.0
        };
        (requested * scale).min(remaining)
    }

    /// Panics unless the configuration is serviceable: a positive
    /// budget of at least one `bucket_width` (so the first report can
    /// be granted at all) and a throttle knee strictly inside `[0, 1)`.
    pub(crate) fn validate(&self, bucket_width: f64) {
        assert!(
            self.trace_budget >= bucket_width,
            "trace budget {} is below one epsilon bucket width {bucket_width}; \
             no report could ever be served",
            self.trace_budget
        );
        assert!(
            (0.0..1.0).contains(&self.throttle_start),
            "throttle_start {} must lie in [0, 1)",
            self.throttle_start
        );
    }
}

/// VA-GI-style velocity-aware ε adaptation: scale each report's ε by
/// the vehicle's estimated speed, so fast segments (whose reports are
/// geographically sparse anyway) spend less of the trace budget and
/// dwelling segments (the privacy-critical ones — homes, workplaces)
/// keep the full base ε.
///
/// The adapter returns raw ε values in `[min_epsilon, base_epsilon]`;
/// the service floors them onto its ε-bucket grid on submission, so
/// the reachable bucket universe stays finite and cache keying works
/// unchanged.
///
/// # Example
///
/// ```
/// use platform::VelocityEpsilon;
///
/// let va = VelocityEpsilon { base_epsilon: 5.0, min_epsilon: 1.0, v_ref_kmh: 30.0 };
/// // A dwelling vehicle keeps the full base ε.
/// assert_eq!(va.epsilon_for(0.0), 5.0);
/// // Faster means coarser: ε decreases monotonically with speed …
/// assert!(va.epsilon_for(60.0) < va.epsilon_for(15.0));
/// // … down to the clamp floor.
/// assert_eq!(va.epsilon_for(1e12), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VelocityEpsilon {
    /// ε granted to a stationary (dwelling) vehicle — the strongest
    /// utility the adapter ever requests.
    pub base_epsilon: f64,
    /// Clamp floor: no report requests less than this, however fast
    /// the vehicle moves. Must be at least one service ε-bucket width
    /// to be servable.
    pub min_epsilon: f64,
    /// Reference speed (km/h) of the hyperbolic roll-off: at `v_ref`
    /// the adapted ε is half the base, at `2·v_ref` a third, and so
    /// on. City traffic averages 20–40 km/h.
    pub v_ref_kmh: f64,
}

impl Default for VelocityEpsilon {
    fn default() -> Self {
        Self {
            base_epsilon: 5.0,
            min_epsilon: 1.0,
            v_ref_kmh: 30.0,
        }
    }
}

impl VelocityEpsilon {
    /// The adapted per-report ε for a vehicle moving at `speed_kmh`:
    /// `base · v_ref / (v_ref + speed)`, clamped to `min_epsilon`.
    /// Negative or non-finite speed estimates (GPS glitches) are
    /// treated as dwelling.
    ///
    /// # Panics
    ///
    /// Panics if the adapter is degenerate: non-positive `v_ref_kmh`,
    /// or `min_epsilon` outside `(0, base_epsilon]`.
    pub fn epsilon_for(&self, speed_kmh: f64) -> f64 {
        assert!(self.v_ref_kmh > 0.0, "reference speed must be positive");
        assert!(
            self.min_epsilon > 0.0 && self.min_epsilon <= self.base_epsilon,
            "clamp floor must lie in (0, base_epsilon]"
        );
        let speed = if speed_kmh.is_finite() && speed_kmh > 0.0 {
            speed_kmh
        } else {
            0.0
        };
        let adapted = self.base_epsilon * self.v_ref_kmh / (self.v_ref_kmh + speed);
        adapted.max(self.min_epsilon)
    }
}

/// The accountant's verdict on one report, before any serving work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Admission {
    /// Serve at `epsilon` (already floored to the bucket grid and
    /// reserved against the vehicle's ledger — release on a
    /// non-served outcome, commit on a serve). `throttled` marks a
    /// grant strictly below what the raw request would have bucketed
    /// to.
    Granted { epsilon: f64, throttled: bool },
    /// The grant fell below one bucket width; nothing is served and
    /// nothing was reserved. `remaining` is the unspent budget.
    Refused { remaining: f64 },
}

/// Delta counters for the `service.trace.*` metric family, accumulated
/// under the ledger lock and flushed to the `vlp-obs` registry on
/// `tick`/`flush_metrics` — same discipline as the per-shard
/// `ShardStats`, so the hot path never touches the registry mutex.
#[derive(Debug, Default)]
pub(crate) struct TraceStats {
    /// Served reports charged against a ledger.
    pub(crate) charges: u64,
    /// Charged reports served at a throttled (shrunken) ε.
    pub(crate) throttled: u64,
    /// Reports refused because the grant fell below one bucket width.
    pub(crate) refusals: u64,
    /// Vehicles that crossed into terminal exhaustion (remaining
    /// budget below one bucket width); counted once per vehicle.
    pub(crate) exhausted: u64,
}

impl TraceStats {
    pub(crate) fn flush(&mut self, obs: &vlp_obs::Registry) {
        use super::metrics;
        let pairs = [
            (metrics::TRACE_CHARGES, self.charges),
            (metrics::TRACE_THROTTLED, self.throttled),
            (metrics::TRACE_REFUSALS, self.refusals),
            (metrics::TRACE_EXHAUSTED, self.exhausted),
        ];
        for (name, value) in pairs {
            if value > 0 {
                obs.incr(name, value);
            }
        }
        *self = TraceStats::default();
    }
}

/// The per-vehicle ε-composition ledger behind
/// [`ServiceConfig::budget`]: spent ε per [`WorkerId`], plus the
/// accountant's delta counters. Lives behind one `Mutex` in the
/// serving core; present only when accounting is enabled, so the
/// disabled path takes no lock at all.
///
/// [`ServiceConfig::budget`]: super::ServiceConfig::budget
#[derive(Debug)]
pub(crate) struct TraceLedger {
    config: TraceBudgetConfig,
    spent: HashMap<WorkerId, f64>,
    /// Vehicles already counted as terminally exhausted.
    exhausted: std::collections::HashSet<WorkerId>,
    pub(crate) stats: TraceStats,
}

impl TraceLedger {
    pub(crate) fn new(config: TraceBudgetConfig) -> Self {
        Self {
            config,
            spent: HashMap::new(),
            exhausted: std::collections::HashSet::new(),
            stats: TraceStats::default(),
        }
    }

    /// Admits or refuses one report for `worker` requesting
    /// `requested` ε, against a service bucket grid of `width`. A
    /// granted ε is already canonical (grid-floored) and is
    /// *reserved* — the caller must [`TraceLedger::release`] it if the
    /// report ends unserved, or [`TraceLedger::commit`] it once served,
    /// so the ledger never under-counts what was actually revealed.
    pub(crate) fn admit(&mut self, worker: WorkerId, requested: f64, width: f64) -> Admission {
        let spent = self.spent.get(&worker).copied().unwrap_or(0.0);
        let raw = self.config.throttled(requested, spent);
        let steps = grid_steps(raw, width);
        let granted = steps * width;
        if granted < width {
            self.stats.refusals += 1;
            let remaining = (self.config.trace_budget - spent).max(0.0);
            if remaining < width && self.exhausted.insert(worker) {
                // Terminal: the budget itself (not just the throttle)
                // can no longer cover a single bucket. Every later
                // report for this vehicle refuses too.
                self.stats.exhausted += 1;
            }
            return Admission::Refused { remaining };
        }
        self.spent.insert(worker, spent + granted);
        Admission::Granted {
            epsilon: granted,
            throttled: steps < grid_steps(requested, width),
        }
    }

    /// Returns a reserved-but-unserved grant to the vehicle's budget
    /// (the report was rejected by admission control downstream — it
    /// revealed nothing).
    pub(crate) fn release(&mut self, worker: WorkerId, epsilon: f64) {
        if let Some(spent) = self.spent.get_mut(&worker) {
            *spent = (*spent - epsilon).max(0.0);
        }
    }

    /// Finalizes a reserved grant once the report was actually served.
    pub(crate) fn commit(&mut self, throttled: bool) {
        self.stats.charges += 1;
        if throttled {
            self.stats.throttled += 1;
        }
    }

    /// Cumulative ε charged (or currently reserved) for `worker`.
    pub(crate) fn spent(&self, worker: WorkerId) -> f64 {
        self.spent.get(&worker).copied().unwrap_or(0.0)
    }

    /// Mean ledger fill fraction across vehicles with any spend —
    /// the `service.trace.fill` health series. `0` for an idle ledger
    /// or an infinite budget.
    pub(crate) fn mean_fill(&self) -> f64 {
        if self.spent.is_empty() || !self.config.trace_budget.is_finite() {
            return 0.0;
        }
        let fills = self
            .spent
            .values()
            .map(|&e| (e / self.config.trace_budget).min(1.0));
        fixed_point_sum(fills) / self.spent.len() as f64
    }
}

/// Scale of [`fixed_point_sum`]: a fill of 1 maps to `2^63`, the
/// largest power of two a `u64` holds.
const FILL_SCALE: f64 = (1u64 << 63) as f64;

/// Sums fractions in `[0, 1]` exactly and independently of their order:
/// each is truncated to a multiple of `2^-63` (exact for every fill of
/// at least `2^-11`), the integers are added in a `u128`, and the total
/// is rounded to `f64` once. `HashMap` iteration order then cannot move
/// the result, and there is no sort and no allocation.
fn fixed_point_sum(fractions: impl Iterator<Item = f64>) -> f64 {
    let total: u128 = fractions.map(|f| u128::from((f * FILL_SCALE) as u64)).sum();
    total as f64 / FILL_SCALE
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: f64 = 0.25;

    fn ledger(budget: f64, knee: f64) -> TraceLedger {
        TraceLedger::new(TraceBudgetConfig {
            trace_budget: budget,
            throttle_start: knee,
        })
    }

    #[test]
    fn grants_pass_through_below_the_knee() {
        // (requested, width, granted): a request one ulp below a grid
        // point is granted the step below it, never the point itself.
        for (requested, width, granted) in [(2.0, W, 2.0), (2.4999999999999996, 0.5, 2.0)] {
            let mut l = ledger(10.0, 0.5);
            match l.admit(WorkerId(0), requested, width) {
                Admission::Granted { epsilon, throttled } => {
                    assert_eq!(epsilon, granted, "request {requested}");
                    assert!(!throttled);
                }
                other => panic!("expected a grant, got {other:?}"),
            }
            assert_eq!(l.spent(WorkerId(0)), granted);
        }
    }

    #[test]
    fn throttle_shrinks_grants_monotonically() {
        let cfg = TraceBudgetConfig {
            trace_budget: 10.0,
            throttle_start: 0.4,
        };
        let mut last = f64::INFINITY;
        for step in 0..=10 {
            let spent = step as f64;
            let g = cfg.throttled(5.0, spent);
            assert!(g <= last + 1e-12, "throttle must be monotone in spend");
            assert!(g <= 10.0 - spent + 1e-12, "never grant past the budget");
            last = g;
        }
        assert_eq!(cfg.throttled(5.0, 10.0), 0.0);
    }

    #[test]
    fn cumulative_grants_never_exceed_the_budget() {
        let mut l = ledger(3.0, 0.0);
        let mut total = 0.0;
        for _ in 0..100 {
            match l.admit(WorkerId(7), 5.0, W) {
                Admission::Granted { epsilon, .. } => {
                    l.commit(false);
                    total += epsilon;
                }
                Admission::Refused { .. } => break,
            }
        }
        assert!(total <= 3.0 + 1e-9, "overspent: {total}");
        assert_eq!(total, l.spent(WorkerId(7)));
    }

    #[test]
    fn refusal_below_one_bucket_width_is_terminal() {
        let mut l = ledger(1.0, 0.0);
        // Drain the budget.
        loop {
            if let Admission::Refused { remaining } = l.admit(WorkerId(1), 8.0, W) {
                assert!(remaining < W);
                break;
            }
        }
        // Exhaustion counted once, and every later admit refuses.
        assert_eq!(l.stats.exhausted, 1);
        for _ in 0..5 {
            assert!(matches!(
                l.admit(WorkerId(1), 100.0, W),
                Admission::Refused { .. }
            ));
        }
        assert_eq!(l.stats.exhausted, 1, "terminal exhaustion counts once");
    }

    #[test]
    fn release_returns_a_reservation() {
        let mut l = ledger(2.0, 0.0);
        let Admission::Granted { epsilon, .. } = l.admit(WorkerId(3), 1.0, W) else {
            panic!("expected a grant");
        };
        l.release(WorkerId(3), epsilon);
        assert_eq!(l.spent(WorkerId(3)), 0.0);
    }

    #[test]
    fn infinite_budget_never_throttles_or_refuses() {
        let mut l = ledger(f64::INFINITY, 0.5);
        for _ in 0..50 {
            match l.admit(WorkerId(2), 5.0, W) {
                Admission::Granted { epsilon, throttled } => {
                    assert_eq!(epsilon, 5.0);
                    assert!(!throttled);
                }
                other => panic!("infinite budget refused: {other:?}"),
            }
        }
        assert_eq!(l.mean_fill(), 0.0);
    }

    #[test]
    fn ledger_entries_are_sorted_and_fill_is_mean() {
        let mut l = ledger(4.0, 0.9);
        let _ = l.admit(WorkerId(9), 1.0, W);
        let _ = l.admit(WorkerId(2), 3.0, W);
        assert!((l.mean_fill() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fill_sum_is_independent_of_order() {
        // Float addition is not associative ((0.1 + 0.2) + 0.3 is
        // 0.6000000000000001, 0.1 + (0.2 + 0.3) is 0.6), so a naive sum
        // of these fills depends on the order they arrive in.
        let fills = [0.1, 0.2, 0.3, 0.925, 1.0, 0.0, 1e-300, 0.7];
        let naive_fwd: f64 = fills.iter().sum();
        let naive_rev: f64 = fills.iter().rev().sum();
        assert_ne!(naive_fwd.to_bits(), naive_rev.to_bits());
        let fwd = fixed_point_sum(fills.iter().copied());
        let rev = fixed_point_sum(fills.iter().rev().copied());
        assert_eq!(fwd.to_bits(), rev.to_bits());
        assert!((fwd - 3.225).abs() < 1e-15);
    }

    #[test]
    fn velocity_adapter_is_monotone_and_clamped() {
        let va = VelocityEpsilon::default();
        let mut last = f64::INFINITY;
        for v in [0.0, 10.0, 30.0, 60.0, 120.0, 1e6] {
            let e = va.epsilon_for(v);
            assert!(e <= last);
            assert!(e >= va.min_epsilon && e <= va.base_epsilon);
            last = e;
        }
        assert_eq!(va.epsilon_for(f64::NAN), va.base_epsilon);
        assert_eq!(va.epsilon_for(-5.0), va.base_epsilon);
        assert_eq!(va.epsilon_for(va.v_ref_kmh), va.base_epsilon / 2.0);
    }

    #[test]
    #[should_panic(expected = "below one epsilon bucket width")]
    fn validate_rejects_unservable_budget() {
        TraceBudgetConfig {
            trace_budget: 0.1,
            throttle_start: 0.0,
        }
        .validate(W);
    }
}
