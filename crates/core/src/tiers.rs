//! The intermediate mechanism-quality tier between the exact
//! column-generation optimum and the graph-Laplace fallback.
//!
//! Following "Trading Optimality for Performance in Location Privacy"
//! (Chatzikokolakis et al.), the serving layer does not have to choose
//! between the exact D-VLP optimum (expensive) and the closed-form
//! graph-Laplace floor (cheap, far from optimal). Interval clustering
//! sits in between, ε-valid **by construction against the full
//! unreduced constraint set** — quality is traded, privacy never is.
//!
//! # Interval clustering ([`clustered_mechanism`])
//!
//! Greedily cluster the support into super-intervals of diameter
//! ≤ `width` (the same greedy-net scan as [`crate::local::LocalityPlan`]
//! — first member within `width` of a center joins it, otherwise it
//! becomes a new center), solve the D-VLP LP **on the clusters**, and
//! lift the cluster mechanism to members: member `i`'s row is its
//! cluster's row, spread over the cluster-center columns.
//!
//! *ε-validity of the lift.* Take any constraint
//! `z_{i·} ≤ e^{ε·d(i,l)} · z_{l·}` of the original spec, with `i` in
//! cluster `a` and `l` in cluster `b`:
//!
//! * `a = b`: the lifted rows of `i` and `l` are **identical**, so the
//!   ratio is 1 and every bound holds.
//! * `a ≠ b`: the cluster spec has the constraint pair `(a, b)` at
//!   distance `d_c(a, b) = min` over member pairs of the original
//!   `d(·,·)` — in particular `d_c(a, b) ≤ d(i, l)` — so
//!   `z_{a·} ≤ e^{ε·d_c(a,b)} · z_{b·} ≤ e^{ε·d(i,l)} · z_{b·}`
//!   column-wise, which is exactly the lifted member constraint. The
//!   LP is solved on the [`chain_reduced`] cluster spec, which imposes
//!   that bound directly or implies it by chaining strictly shorter
//!   cluster pairs.
//!
//! The cluster objective `C[a][b] = Σ_{i∈a} cost(i, center_b)` makes
//! the cluster LP minimize the *exact* lifted ETDD, so the reported
//! quality loss is the true served quality, not a surrogate. With
//! `width = 0` every member is its own cluster and the construction
//! degenerates to the exact solve of the chain-reduced spec — on a
//! partial neighborhood, the exact neighborhood solve (identical up to
//! the final row renormalization of the lift).
//!
//! No rung solves a sparser constraint graph at a tightened ε. The
//! exact rung already keeps only pairs that no shorter chain implies
//! (Algorithm 1's adjacent pairs, or the chain-reduced restricted
//! set); on the benchmark grids a greedy stretch-2.5 sparsification
//! kept exactly those pairs, so it solved the exact LP at ε/2.5.
//! EXPERIMENTS.md ("Quality tiers") records the measurement.
//!
//! The clustered solve returns a [`TierSolve`] shaped like an exact
//! solve, so the serving layer treats every rung of the quality ladder
//! uniformly; [`QualityTier`] names the rungs in quality order.

use crate::column_generation::{solve_column_generation, CgDiagnostics, CgOptions};
use crate::constraint_reduction::chain_reduced;
use crate::cost::CostMatrix;
use crate::error::VlpError;
use crate::instance::VlpInstance;
use crate::local::LocalSolve;
use crate::mechanism::Mechanism;
use crate::privacy::{PrivacyConstraint, PrivacySpec};

/// One rung of the mechanism-quality ladder, in descending quality
/// order: the exact column-generation optimum, the interval-clustering
/// tier, and the graph-Laplace floor.
///
/// The derived [`Ord`] follows declaration order, so *smaller is
/// better*: the serving ladder picks the minimum tier whose solve cost
/// fits the remaining deadline, and `a <= b` reads "a is at least as
/// good as b".
///
/// ```
/// use vlp_core::QualityTier;
///
/// assert!(QualityTier::Exact < QualityTier::Clustered);
/// assert!(QualityTier::Clustered < QualityTier::Laplace);
/// assert_eq!(QualityTier::ALL.len(), 3);
/// // Every tier is ε-valid; the ordering ranks ETDD, never privacy.
/// assert_eq!(QualityTier::Exact as u8, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QualityTier {
    /// The exact D-VLP optimum via column generation.
    Exact,
    /// Interval clustering: LP on super-intervals, lifted to members.
    Clustered,
    /// The closed-form graph-Laplace fallback floor.
    Laplace,
}

impl QualityTier {
    /// All tiers in descending quality order.
    pub const ALL: [QualityTier; 3] = [
        QualityTier::Exact,
        QualityTier::Clustered,
        QualityTier::Laplace,
    ];

    /// Stable lowercase label used in metric names and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            QualityTier::Exact => "exact",
            QualityTier::Clustered => "clustered",
            QualityTier::Laplace => "laplace",
        }
    }
}

/// A solved intermediate-tier mechanism over the full `k`-interval
/// support, shaped like an exact solve so callers treat every rung
/// uniformly.
#[derive(Debug, Clone)]
pub struct TierSolve {
    /// The `k × k` mechanism (full support — lifted, for the
    /// clustering tier).
    pub mechanism: Mechanism,
    /// Achieved quality loss (ETDD) of the *served* `k × k` mechanism
    /// under the original cost matrix.
    pub quality_loss: f64,
    /// Column-generation diagnostics of the reduced solve.
    pub diagnostics: CgDiagnostics,
    /// LP variable count of the reduced problem actually solved
    /// (`m²` for `m` clusters).
    pub lp_vars: usize,
    /// LP inequality-row count of the reduced problem.
    pub lp_rows: usize,
}

/// Pairwise distances recovered from a spec's constraints: `d[i][l]`
/// is the constraint distance, or `+∞` for pairs the spec does not
/// constrain (outside the protection radius — safe to leave unmerged
/// and unconstrained).
fn pairwise_from_spec(k: usize, spec: &PrivacySpec) -> Vec<f64> {
    let mut d = vec![f64::INFINITY; k * k];
    for c in &spec.constraints {
        let v = c.dist;
        let slot = &mut d[c.i * k + c.l];
        if v < *slot {
            *slot = v;
        }
    }
    // `d_min` is symmetric; keep the matrix symmetric even if a spec
    // carries only one direction of a pair.
    for i in 0..k {
        for l in (i + 1)..k {
            let m = d[i * k + l].min(d[l * k + i]);
            d[i * k + l] = m;
            d[l * k + i] = m;
        }
    }
    d
}

/// The interval-clustering tier: greedy width-bounded clustering,
/// cluster-level LP, lift to members (see the module docs for the
/// construction and its ε-validity argument).
///
/// `spec` must be the **unreduced** constraint set the result is
/// audited against ([`PrivacySpec::full`] or a restricted spec from
/// [`crate::local`]): cluster distances are minima over the member
/// pairs present, so a reduced input (§4.2, or [`chain_reduced`])
/// would loosen them. The cluster LP itself is solved on the
/// [`chain_reduced`] cluster spec, built only after the distances are
/// taken. `width = 0` solves the chain-reduced `spec` itself — on a
/// partial neighborhood, the LP of the exact neighborhood solve — up
/// to the lift's row renormalization. Pairs absent from `spec`
/// (beyond the protection radius) are treated as infinitely far: never
/// clustered together, never constrained.
///
/// # Errors
///
/// Propagates solver failures as [`VlpError`].
///
/// # Panics
///
/// Panics if `width` is negative/NaN or `cost`/`spec` dimensions are
/// inconsistent.
pub fn clustered_mechanism(
    cost: &CostMatrix,
    spec: &PrivacySpec,
    width: f64,
    opts: &CgOptions,
) -> Result<TierSolve, VlpError> {
    assert!(width >= 0.0, "cluster width must be non-negative");
    let k = cost.len();
    assert!(k > 0, "cost matrix must be non-empty");
    let d = pairwise_from_spec(k, spec);
    // Greedy width-net over local indices, ascending — the same scan
    // order as `LocalityPlan::build`, so the clustering is a pure
    // function of (spec, width).
    let mut centers: Vec<usize> = Vec::new();
    let mut cluster_of = vec![usize::MAX; k];
    for i in 0..k {
        let found = centers.iter().position(|&c| d[i * k + c] <= width);
        match found {
            Some(a) => cluster_of[i] = a,
            None => {
                cluster_of[i] = centers.len();
                centers.push(i);
            }
        }
    }
    let m = centers.len();
    // Cluster objective: C[a][b] = Σ_{i ∈ a} cost(i, center_b), so the
    // cluster LP minimizes the exact lifted ETDD.
    let mut c_cost = vec![0.0; m * m];
    for (i, &a) in cluster_of.iter().enumerate() {
        for (b, &cb) in centers.iter().enumerate() {
            c_cost[a * m + b] += cost.get(i, cb);
        }
    }
    // Cluster constraints: d_c(a, b) = min over member pairs — at most
    // the distance of any member pair, which is what the lift's
    // validity leans on.
    let mut d_c = vec![f64::INFINITY; m * m];
    for i in 0..k {
        for l in 0..k {
            let (a, b) = (cluster_of[i], cluster_of[l]);
            if a != b {
                let v = d[i * k + l];
                let slot = &mut d_c[a * m + b];
                if v < *slot {
                    *slot = v;
                }
            }
        }
    }
    let mut constraints = Vec::new();
    for a in 0..m {
        for b in 0..m {
            let v = d_c[a * m + b];
            if a != b && v.is_finite() && v <= spec.radius {
                constraints.push(PrivacyConstraint {
                    i: a,
                    l: b,
                    dist: v,
                });
            }
        }
    }
    // Solve on the chain-reduced cluster spec: every cluster distance
    // above came from the unreduced input, so dropping implied cluster
    // pairs only now leaves the feasible region unchanged.
    let c_spec = chain_reduced(
        &PrivacySpec {
            epsilon: spec.epsilon,
            radius: spec.radius,
            constraints,
        },
        m,
    );
    let lp_rows = c_spec.lp_row_count(m);
    let c_matrix = CostMatrix::from_dense(m, c_cost);
    let (c_mech, _, diagnostics) = solve_column_generation(&c_matrix, &c_spec, opts)?;
    // Lift: member i's row is cluster(i)'s row over the center columns.
    let mut z = vec![0.0; k * k];
    for i in 0..k {
        let a = cluster_of[i];
        for (b, &cb) in centers.iter().enumerate() {
            z[i * k + cb] = c_mech.prob(a, b);
        }
    }
    let quality_loss = cost.quality_loss(&z);
    let mechanism =
        Mechanism::from_matrix(k, z, 1e-6).expect("lifted cluster mechanism is row-stochastic");
    Ok(TierSolve {
        mechanism,
        quality_loss,
        diagnostics,
        lp_vars: m * m,
        lp_rows,
    })
}

impl VlpInstance {
    /// Solves the interval-clustering tier over the full support: the
    /// unreduced `(epsilon, radius)` spec, greedy `width`-clustering,
    /// cluster LP (chain-reduced), lift ([`clustered_mechanism`]). The
    /// result is audited against that unreduced spec.
    ///
    /// ```
    /// use roadnet::generators;
    /// use vlp_core::{privacy, CgOptions, PrivacySpec, VlpInstance};
    ///
    /// let inst = VlpInstance::uniform(generators::grid(2, 2, 0.5, true), 0.25);
    /// let tier = inst.solve_clustered(2.0, f64::INFINITY, 0.3, &CgOptions::default()).unwrap();
    /// // Fewer LP variables than the exact problem, same audit spec.
    /// assert!(tier.lp_vars < inst.len() * inst.len());
    /// let spec = PrivacySpec::full(&inst.aux, 2.0, f64::INFINITY);
    /// assert!(privacy::verify(&tier.mechanism, &spec, 1e-6));
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates solver failures as [`VlpError`].
    pub fn solve_clustered(
        &self,
        epsilon: f64,
        radius: f64,
        width: f64,
        opts: &CgOptions,
    ) -> Result<TierSolve, VlpError> {
        let spec = PrivacySpec::full(&self.aux, epsilon, radius);
        clustered_mechanism(&self.cost, &spec, width, opts)
    }
}

/// The restricted-support clustered solve for
/// [`crate::local::LocalShard`]: the cost/spec builders of the exact
/// neighborhood solve feed the tier constructor, so every rung shares
/// one audit spec.
impl crate::local::LocalShard {
    /// Solves neighborhood `nb` at the interval-clustering tier —
    /// clustering the restricted support on the unreduced
    /// [`Self::audit_spec`] (the cluster LP is then chain-reduced), so
    /// the lifted mechanism passes that audit spec unchanged.
    ///
    /// # Errors
    ///
    /// Propagates solver failures as [`VlpError`].
    pub fn clustered_neighborhood(
        &self,
        nb: u32,
        epsilon: f64,
        width: f64,
        opts: &CgOptions,
    ) -> Result<LocalSolve, VlpError> {
        let members = self.members(nb);
        let tier = if members.len() == self.len() {
            self.dense()
                .solve_clustered(epsilon, self.plan().protection(), width, opts)?
        } else {
            let cost = self.restricted_member_cost(members);
            let spec = self.audit_spec(nb, epsilon);
            clustered_mechanism(&cost, &spec, width, opts)?
        };
        Ok(tier.into_local(members))
    }
}

impl TierSolve {
    /// Re-shapes a tier solve over a restricted support into the
    /// [`LocalSolve`] form the serving layer consumes.
    fn into_local(self, support: &[usize]) -> LocalSolve {
        LocalSolve {
            support: std::sync::Arc::new(support.to_vec()),
            mechanism: self.mechanism,
            quality_loss: self.quality_loss,
            diagnostics: self.diagnostics,
            lp_vars: self.lp_vars,
            lp_rows: self.lp_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalShard;
    use crate::privacy;
    use roadnet::generators;

    // Small enough that the *unreduced* full spec (which the clustering
    // tier consumes, and which the width-0 degenerate case solves
    // outright) stays a small LP: K = 16, 240 ordered pairs.
    fn small_instance() -> VlpInstance {
        VlpInstance::uniform(generators::grid(2, 2, 0.5, true), 0.25)
    }

    #[test]
    fn tier_order_ranks_quality_descending() {
        assert!(QualityTier::Exact < QualityTier::Clustered);
        assert!(QualityTier::Clustered < QualityTier::Laplace);
        assert_eq!(QualityTier::ALL.len(), 3);
        assert_eq!(QualityTier::Laplace.label(), "laplace");
    }

    #[test]
    fn zero_width_clustering_is_the_exact_unreduced_solve() {
        let inst = small_instance();
        let spec = PrivacySpec::full(&inst.aux, 3.0, f64::INFINITY);
        let opts = CgOptions::default();
        let tier = clustered_mechanism(&inst.cost, &spec, 0.0, &opts).unwrap();
        let (mech, _, _) = solve_column_generation(&inst.cost, &spec, &opts).unwrap();
        let drift = tier
            .mechanism
            .as_slice()
            .iter()
            .zip(mech.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(drift < 1e-12, "lift drifted {drift} from the exact solve");
        assert_eq!(tier.lp_vars, inst.len() * inst.len());
        // ...and agrees with the reduced-spec exact solve on ETDD.
        let exact = inst.solve(3.0, f64::INFINITY, &opts).unwrap();
        assert!((tier.quality_loss - exact.quality_loss).abs() < 1e-5);
    }

    #[test]
    fn clustered_mechanism_audits_against_the_full_spec() {
        let inst = small_instance();
        let spec = PrivacySpec::full(&inst.aux, 3.0, f64::INFINITY);
        let tier = inst
            .solve_clustered(3.0, f64::INFINITY, 0.3, &CgOptions::default())
            .unwrap();
        assert!(tier.lp_vars < inst.len() * inst.len(), "nothing clustered");
        assert!(privacy::verify(&tier.mechanism, &spec, 1e-6));
    }

    #[test]
    fn clustered_members_share_their_cluster_row() {
        let inst = small_instance();
        let spec = PrivacySpec::full(&inst.aux, 3.0, f64::INFINITY);
        let tier = clustered_mechanism(&inst.cost, &spec, 0.5, &CgOptions::default()).unwrap();
        let k = inst.len();
        // Every row is supported only on cluster-center columns, and
        // at least one pair of distinct members shares a row exactly.
        let mut shared = false;
        for i in 0..k {
            for l in (i + 1)..k {
                if tier.mechanism.row(i) == tier.mechanism.row(l) {
                    shared = true;
                }
            }
        }
        assert!(shared, "width 0.5 should merge at least one pair");
    }

    #[test]
    fn tier_etdd_never_beats_exact() {
        let inst = small_instance();
        let opts = CgOptions::default();
        let exact = inst.solve(3.0, f64::INFINITY, &opts).unwrap();
        let clustered = inst
            .solve_clustered(3.0, f64::INFINITY, 0.3, &opts)
            .unwrap();
        let laplace = inst.fallback(3.0).quality_loss(&inst.cost);
        assert!(clustered.quality_loss >= exact.quality_loss - 1e-9);
        assert!(laplace >= exact.quality_loss - 1e-9);
    }

    #[test]
    fn restricted_tier_solves_pass_the_neighborhood_audit() {
        let shard = LocalShard::uniform(generators::grid(3, 3, 0.4, true), 0.2, 0.4, 0.4);
        let opts = CgOptions::default();
        for nb in 0..shard.plan().neighborhood_count() as u32 {
            if shard.members(nb).len() == shard.len() {
                // Full-support neighborhoods delegate to the dense
                // instance, whose unreduced spec is too large for a
                // unit test; covered by the 2×2 full-support tests.
                continue;
            }
            let spec = shard.audit_spec(nb, 3.0);
            let clustered = shard.clustered_neighborhood(nb, 3.0, 0.2, &opts).unwrap();
            assert!(
                privacy::verify(&clustered.mechanism, &spec, 1e-6),
                "clustered nb {nb}"
            );
            let exact = shard.solve_neighborhood(nb, 3.0, &opts).unwrap();
            assert!(clustered.quality_loss >= exact.quality_loss - 1e-9, "{nb}");
        }
    }

    #[test]
    fn zero_width_restricted_clustering_matches_the_exact_neighborhood() {
        let shard = LocalShard::uniform(generators::grid(3, 3, 0.4, true), 0.2, 0.4, 0.4);
        let opts = CgOptions::default();
        for nb in 0..shard.plan().neighborhood_count() as u32 {
            if shard.members(nb).len() == shard.len() {
                continue;
            }
            let exact = shard.solve_neighborhood(nb, 3.0, &opts).unwrap();
            let tier = shard.clustered_neighborhood(nb, 3.0, 0.0, &opts).unwrap();
            let drift = tier
                .mechanism
                .as_slice()
                .iter()
                .zip(exact.mechanism.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(drift < 1e-12, "nb {nb}: lift drifted {drift}");
        }
    }
}
