//! Geo-Indistinguishability constraint sets over road networks
//! (Definition 3.1, Eq. 20).

use serde::{Deserialize, Serialize};

use crate::auxiliary::AuxiliaryGraph;
use crate::mechanism::Mechanism;

/// Audits a mechanism against a Geo-I spec: row-stochastic within
/// `tol` *and* no constraint violated by more than `tol`.
///
/// This is the acceptance gate every served mechanism must pass —
/// optimally solved or fallback alike: the serving layer may trade
/// *quality* under load, never ε.
///
/// # Example
///
/// ```
/// use roadnet::generators;
/// use vlp_core::{privacy, AuxiliaryGraph, Discretization, Mechanism, PrivacySpec};
///
/// let graph = generators::grid(2, 2, 0.5, true);
/// let disc = Discretization::new(&graph, 0.25);
/// let aux = AuxiliaryGraph::build(&graph, &disc);
/// let spec = PrivacySpec::full(&aux, 2.0, f64::INFINITY);
///
/// // The uniform mechanism satisfies every Geo-I spec...
/// assert!(privacy::verify(&Mechanism::uniform(disc.len()), &spec, 1e-9));
/// // ...truthful reporting satisfies none (over distinct intervals).
/// assert!(!privacy::verify(&Mechanism::identity(disc.len()), &spec, 1e-9));
/// ```
pub fn verify(mechanism: &Mechanism, spec: &PrivacySpec, tol: f64) -> bool {
    mechanism.is_row_stochastic(tol) && mechanism.max_violation(spec) <= tol
}

/// One directed Geo-I constraint: for every obfuscated interval `j`,
/// `z_{i,j} ≤ exp(ε · dist) · z_{l,j}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrivacyConstraint {
    /// The constrained (numerator) interval `u_i`.
    pub i: usize,
    /// The bounding (denominator) interval `u_l`.
    pub l: usize,
    /// The distance term in the exponent, in kilometres.
    pub dist: f64,
}

/// A full `(ε, r)`-Geo-I specification: the privacy budget, the
/// protection radius, and the set of directed constraints to impose.
///
/// Two constructors are provided:
///
/// * [`PrivacySpec::full`] enumerates a constraint for every ordered
///   pair of distinct intervals within radius `r` — `O(K²)` pairs which
///   become `O(K³)` LP rows once instantiated per obfuscated interval;
/// * [`crate::constraint_reduction::reduced_spec`] produces the
///   constraint-reduced set of §4.2 (adjacent pairs on shortest paths),
///   `O(M)` pairs / `O(K·M)` LP rows, with no loss of optimality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrivacySpec {
    /// The privacy budget `ε` (per kilometre).
    pub epsilon: f64,
    /// The protection radius `r` in kilometres (`f64::INFINITY` for
    /// unbounded protection).
    pub radius: f64,
    /// The directed constraints to impose.
    pub constraints: Vec<PrivacyConstraint>,
}

impl PrivacySpec {
    /// Builds the *unreduced* Geo-I constraint set: for every ordered
    /// pair `(i, l)`, `i ≠ l`, with `d_min(u_i, u_l) ≤ radius`, one
    /// constraint with `dist = d_min(u_i, u_l)` (Eq. 20).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not positive or `radius` is negative/NaN.
    pub fn full(aux: &AuxiliaryGraph, epsilon: f64, radius: f64) -> Self {
        Self::within_radius(aux.len(), epsilon, radius, |i, l| aux.distance_min(i, l))
    }

    /// The Eq. 20 pair enumerator over `k` intervals: for every ordered
    /// pair `(i, l)`, `i ≠ l`, in row-major order, one constraint with
    /// `dist = d_min(i, l)` when that is at most `radius`. Every
    /// unreduced spec — the full one and each restricted support's audit
    /// spec — is built here.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not positive or `radius` is negative/NaN.
    pub(crate) fn within_radius(
        k: usize,
        epsilon: f64,
        radius: f64,
        d_min: impl Fn(usize, usize) -> f64,
    ) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        assert!(radius >= 0.0, "radius must be non-negative");
        let mut constraints = Vec::new();
        for i in 0..k {
            for l in 0..k {
                if i == l {
                    continue;
                }
                let d = d_min(i, l);
                if d <= radius {
                    constraints.push(PrivacyConstraint { i, l, dist: d });
                }
            }
        }
        Self {
            epsilon,
            radius,
            constraints,
        }
    }

    /// Number of directed pairwise constraints (each becomes `K` LP
    /// rows when instantiated per obfuscated interval).
    pub fn pair_count(&self) -> usize {
        self.constraints.len()
    }

    /// Total number of LP inequality rows this spec induces in D-VLP
    /// over `k` intervals: one per (pair, obfuscated interval).
    pub fn lp_row_count(&self, k: usize) -> usize {
        self.constraints.len() * k
    }

    /// The multiplicative bound `exp(ε · dist)` of a constraint.
    pub fn bound(&self, c: &PrivacyConstraint) -> f64 {
        (self.epsilon * c.dist).exp()
    }

    /// Checks a row-major `K × K` mechanism matrix against every
    /// constraint and returns the worst violation
    /// `max(z_{i,j} − e^{ε·dist} z_{l,j})` (non-positive means the
    /// mechanism satisfies this spec).
    pub fn max_violation(&self, k: usize, z: &[f64]) -> f64 {
        debug_assert_eq!(z.len(), k * k);
        let mut worst = f64::NEG_INFINITY;
        for c in &self.constraints {
            let bound = self.bound(c);
            for j in 0..k {
                let v = z[c.i * k + j] - bound * z[c.l * k + j];
                if v > worst {
                    worst = v;
                }
            }
        }
        if worst == f64::NEG_INFINITY {
            0.0
        } else {
            worst
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discretize::Discretization;
    use roadnet::generators;

    fn aux() -> AuxiliaryGraph {
        let g = generators::grid(2, 2, 0.5, true);
        let d = Discretization::new(&g, 0.25);
        AuxiliaryGraph::build(&g, &d)
    }

    #[test]
    fn full_spec_covers_all_pairs_with_infinite_radius() {
        let aux = aux();
        let k = aux.len();
        let spec = PrivacySpec::full(&aux, 5.0, f64::INFINITY);
        assert_eq!(spec.pair_count(), k * (k - 1));
        assert_eq!(spec.lp_row_count(k), k * k * (k - 1));
    }

    #[test]
    fn radius_prunes_far_pairs() {
        let aux = aux();
        let spec_all = PrivacySpec::full(&aux, 5.0, f64::INFINITY);
        let spec_near = PrivacySpec::full(&aux, 5.0, 0.3);
        assert!(spec_near.pair_count() < spec_all.pair_count());
        assert!(spec_near.constraints.iter().all(|c| c.dist <= 0.3));
    }

    #[test]
    fn bound_is_exponential_in_distance() {
        let aux = aux();
        let spec = PrivacySpec::full(&aux, 2.0, f64::INFINITY);
        let c = &spec.constraints[0];
        assert!((spec.bound(c) - (2.0 * c.dist).exp()).abs() < 1e-12);
    }

    #[test]
    fn uniform_mechanism_satisfies_everything() {
        let aux = aux();
        let k = aux.len();
        let spec = PrivacySpec::full(&aux, 1.0, f64::INFINITY);
        let z = vec![1.0 / k as f64; k * k];
        assert!(spec.max_violation(k, &z) <= 1e-12);
    }

    #[test]
    fn identity_mechanism_violates() {
        let aux = aux();
        let k = aux.len();
        let spec = PrivacySpec::full(&aux, 1.0, f64::INFINITY);
        let mut z = vec![0.0; k * k];
        for i in 0..k {
            z[i * k + i] = 1.0;
        }
        // Truthful reporting is maximally distinguishable.
        assert!(spec.max_violation(k, &z) > 0.5);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn rejects_zero_epsilon() {
        PrivacySpec::full(&aux(), 0.0, 1.0);
    }

    #[test]
    fn verify_rejects_non_stochastic_matrices() {
        let aux = aux();
        let k = aux.len();
        let spec = PrivacySpec::full(&aux, 1.0, f64::INFINITY);
        assert!(verify(&Mechanism::uniform(k), &spec, 1e-12));
        // Deserialization does not re-validate rows; a sub-stochastic
        // matrix satisfies every ratio constraint yet must fail the
        // audit.
        let half = 0.5 / k as f64;
        let doc = format!("{{\"k\":{k},\"z\":{:?}}}", vec![half; k * k]);
        let m: Mechanism = serde_json::from_str(&doc).unwrap();
        assert!(!verify(&m, &spec, 1e-9));
    }
}
