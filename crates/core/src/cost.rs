//! Priors, interval travel distances, and the D-VLP cost matrix
//! `c_{i,l}` (Eq. 19).

// Dense numeric kernels below index several parallel arrays in one
// loop; iterator rewrites would obscure the linear-algebra intent.
#![allow(clippy::needless_range_loop)]

use roadnet::distance::{self, NodeMetric};
use roadnet::{Location, NodeDistances, RoadGraph};
use serde::{Deserialize, Serialize};

use crate::discretize::Discretization;
use crate::fan_out;

/// A probability distribution over the `K` route intervals.
///
/// Used both for the worker's location prior `f_P` and the task prior
/// `f_Q` (§3.3). Values are non-negative and sum to one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prior(Vec<f64>);

impl Prior {
    /// The uniform prior over `k` intervals.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn uniform(k: usize) -> Self {
        assert!(k > 0, "prior needs at least one interval");
        Prior(vec![1.0 / k as f64; k])
    }

    /// Builds a prior from non-negative weights, normalizing them to
    /// sum to one. Returns `None` if the weights are empty, contain a
    /// negative or non-finite entry, or sum to zero.
    pub fn from_weights(weights: &[f64]) -> Option<Self> {
        if weights.is_empty() {
            return None;
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        Some(Prior(weights.iter().map(|w| w / total).collect()))
    }

    /// Probability mass of interval `k`.
    pub fn get(&self, k: usize) -> f64 {
        self.0[k]
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the prior covers no intervals.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The probabilities as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Samples an interval index from this prior.
    pub fn sample<R: rand::RngExt + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        let mut acc = 0.0;
        for (k, &p) in self.0.iter().enumerate() {
            acc += p;
            if u < acc {
                return k;
            }
        }
        self.0.len() - 1
    }
}

/// All-pairs travel distances between interval representatives on the
/// *real* road graph (not the auxiliary graph).
///
/// `get(i, q)` is `d_G(mid(u_i), mid(u_q))`: the expected traveling
/// distance from a vehicle in `u_i` to a task in `u_q`, using interval
/// midpoints as representatives (Step III of §4.1 makes all points in
/// an interval equivalent, so the midpoint is the natural quadrature
/// point for the integrals of Eq. 19).
#[derive(Debug, Clone)]
pub struct IntervalDistances {
    k: usize,
    dist: Vec<f64>,
}

impl IntervalDistances {
    /// Computes the `K × K` directed distance matrix.
    pub fn build(graph: &RoadGraph, node_dists: &NodeDistances, disc: &Discretization) -> Self {
        let mids: Vec<_> = disc.intervals().iter().map(|u| u.midpoint()).collect();
        Self {
            k: mids.len(),
            dist: midpoint_table(graph, node_dists, &mids),
        }
    }

    /// Directed travel distance from interval `i` to interval `q`.
    pub fn get(&self, i: usize, q: usize) -> f64 {
        self.dist[i * self.k + q]
    }

    /// Bidirectional distance `min{d(i,l), d(l,i)}`.
    pub fn get_min(&self, i: usize, l: usize) -> f64 {
        self.get(i, l).min(self.get(l, i))
    }

    /// Number of intervals covered.
    pub fn len(&self) -> usize {
        self.k
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }
}

/// The row-major `k × k` table of directed travel distances between
/// the representatives `mids` (Eq. 9/10 over `node_dists`): the one
/// table builder behind the dense [`IntervalDistances`] and the
/// restricted costs of [`crate::local::LocalShard`].
pub(crate) fn midpoint_table<M: NodeMetric>(
    graph: &RoadGraph,
    node_dists: &M,
    mids: &[Location],
) -> Vec<f64> {
    let mut dist = Vec::with_capacity(mids.len() * mids.len());
    for &p in mids {
        for &q in mids {
            dist.push(distance::travel_distance_via(graph, node_dists, p, q));
        }
    }
    dist
}

/// The D-VLP cost matrix: `c_{i,l}` is the expected quality loss
/// contributed when a vehicle whose true location is in `u_i` reports
/// interval `u_l` (Eq. 19):
///
/// `c_{i,l} = f_P(u_i) · Σ_q f_Q(u_q) · |d(u_i, u_q) − d(u_l, u_q)|`.
///
/// With this scaling, the D-VLP objective is simply
/// `Σ_i Σ_l c_{i,l} · z_{i,l}` (Eq. 18).
#[derive(Debug, Clone, PartialEq)]
pub struct CostMatrix {
    k: usize,
    cost: Vec<f64>,
}

impl CostMatrix {
    /// Builds the cost matrix from interval distances and the two
    /// priors.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions of `dists`, `f_p`, and `f_q` disagree.
    pub fn build(dists: &IntervalDistances, f_p: &Prior, f_q: &Prior) -> Self {
        let k = dists.len();
        assert_eq!(f_p.len(), k, "f_P dimension mismatch");
        assert_eq!(f_q.len(), k, "f_Q dimension mismatch");
        Self::eq19(&dists.dist, f_p.as_slice(), f_q.as_slice())
    }

    /// The Eq. 19 kernel over `k = f_p.len()` intervals: `dist` is their
    /// row-major `k × k` directed distance table, `f_p` and `f_q` their
    /// prior masses. [`Self::build`] and the restricted costs of
    /// [`crate::local`] both run it, so a restricted support sees the
    /// dense build's arithmetic in the dense build's order.
    pub(crate) fn eq19(dist: &[f64], f_p: &[f64], f_q: &[f64]) -> Self {
        let k = f_p.len();
        assert_eq!(f_q.len(), k, "f_Q dimension mismatch");
        assert_eq!(dist.len(), k * k, "distance table must be k × k");
        if k == 0 {
            return Self {
                k,
                cost: Vec::new(),
            };
        }
        // Rows are independent (row `i` reads only `f_p[i]`, `f_q`, and
        // the distance table), so the O(k³) build fans out across
        // cores; each row's accumulation order is unchanged, keeping
        // the result bit-identical for any thread count.
        let mut cost = vec![0.0; k * k];
        let () = fan_out::run(
            fan_out::threads(k, true),
            &mut cost.chunks_mut(k).collect::<Vec<_>>(),
            || (),
            |i, row, _| {
                let fp = f_p[i];
                for l in 0..k {
                    let mut acc = 0.0;
                    if fp > 0.0 {
                        for q in 0..k {
                            let fq = f_q[q];
                            if fq > 0.0 {
                                let di = dist[i * k + q];
                                let dl = dist[l * k + q];
                                acc += fq * (di - dl).abs();
                            }
                        }
                    }
                    row[l] = fp * acc;
                }
            },
        );
        Self { k, cost }
    }

    /// Builds a cost matrix with *heterogeneous QoS preferences* — the
    /// extension sketched in the paper's §7: "users may have different
    /// QoS preferences over different regions in the road network,
    /// e.g., some workers may tolerate less quality loss in downtown
    /// than in suburban areas".
    ///
    /// `sensitivity[i]` scales the quality-loss weight of distortions
    /// whose *true* location is interval `u_i` (1.0 = the plain Eq. 19
    /// cost; larger = less tolerance for loss there). The optimizer
    /// then shifts obfuscation budget away from sensitive regions.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree or any sensitivity is negative or
    /// non-finite.
    pub fn build_weighted(
        dists: &IntervalDistances,
        f_p: &Prior,
        f_q: &Prior,
        sensitivity: &[f64],
    ) -> Self {
        let k = dists.len();
        assert_eq!(sensitivity.len(), k, "sensitivity dimension mismatch");
        assert!(
            sensitivity.iter().all(|s| s.is_finite() && *s >= 0.0),
            "sensitivities must be non-negative finite"
        );
        let mut base = Self::build(dists, f_p, f_q);
        for i in 0..k {
            for l in 0..k {
                base.cost[i * k + l] *= sensitivity[i];
            }
        }
        base
    }

    /// Builds a cost matrix directly from a dense row-major `K × K`
    /// table (used by baselines that measure quality differently).
    ///
    /// # Panics
    ///
    /// Panics if `cost.len()` is not a perfect square matching `k²`.
    pub fn from_dense(k: usize, cost: Vec<f64>) -> Self {
        assert_eq!(cost.len(), k * k, "cost matrix must be K×K");
        Self { k, cost }
    }

    /// The cost `c_{i,l}`.
    pub fn get(&self, i: usize, l: usize) -> f64 {
        self.cost[i * self.k + l]
    }

    /// Number of intervals `K`.
    pub fn len(&self) -> usize {
        self.k
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// The column vector `c_{·,l}` (costs of reporting interval `l`).
    pub fn column(&self, l: usize) -> Vec<f64> {
        (0..self.k).map(|i| self.get(i, l)).collect()
    }

    /// Evaluates the D-VLP objective `Σ_{i,l} c_{i,l} z_{i,l}` for a
    /// row-major `K × K` mechanism matrix.
    pub fn quality_loss(&self, z: &[f64]) -> f64 {
        debug_assert_eq!(z.len(), self.k * self.k);
        self.cost.iter().zip(z).map(|(c, zz)| c * zz).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use roadnet::generators;

    fn setup() -> (RoadGraph, NodeDistances, Discretization) {
        let g = generators::grid(2, 2, 0.5, true);
        let nd = NodeDistances::all_pairs(&g);
        let d = Discretization::new(&g, 0.25);
        (g, nd, d)
    }

    #[test]
    fn uniform_prior_sums_to_one() {
        let p = Prior::uniform(7);
        let s: f64 = p.as_slice().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_weights_normalizes() {
        let p = Prior::from_weights(&[2.0, 6.0]).unwrap();
        assert!((p.get(0) - 0.25).abs() < 1e-12);
        assert!((p.get(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn from_weights_rejects_bad_input() {
        assert!(Prior::from_weights(&[]).is_none());
        assert!(Prior::from_weights(&[1.0, -0.1]).is_none());
        assert!(Prior::from_weights(&[0.0, 0.0]).is_none());
        assert!(Prior::from_weights(&[f64::NAN]).is_none());
    }

    #[test]
    fn sample_respects_masses() {
        let p = Prior::from_weights(&[0.0, 1.0, 0.0]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(p.sample(&mut rng), 1);
        }
    }

    #[test]
    fn interval_distances_diagonal_is_zero() {
        let (g, nd, d) = setup();
        let id = IntervalDistances::build(&g, &nd, &d);
        for i in 0..id.len() {
            assert_eq!(id.get(i, i), 0.0);
        }
    }

    #[test]
    fn interval_distances_min_is_symmetric() {
        let (g, nd, d) = setup();
        let id = IntervalDistances::build(&g, &nd, &d);
        for i in 0..id.len() {
            for l in 0..id.len() {
                assert_eq!(id.get_min(i, l), id.get_min(l, i));
            }
        }
    }

    #[test]
    fn cost_diagonal_is_zero() {
        let (g, nd, d) = setup();
        let id = IntervalDistances::build(&g, &nd, &d);
        let k = id.len();
        let c = CostMatrix::build(&id, &Prior::uniform(k), &Prior::uniform(k));
        for i in 0..k {
            assert_eq!(c.get(i, i), 0.0, "truthful reporting costs nothing");
        }
    }

    #[test]
    fn cost_scales_with_prior_mass() {
        let (g, nd, d) = setup();
        let id = IntervalDistances::build(&g, &nd, &d);
        let k = id.len();
        // All the prior mass on interval 0: rows other than 0 are free.
        let mut w = vec![0.0; k];
        w[0] = 1.0;
        let c = CostMatrix::build(&id, &Prior::from_weights(&w).unwrap(), &Prior::uniform(k));
        for i in 1..k {
            for l in 0..k {
                assert_eq!(c.get(i, l), 0.0);
            }
        }
        // Reporting elsewhere from interval 0 has positive cost.
        assert!((1..k).any(|l| c.get(0, l) > 0.0));
    }

    #[test]
    fn truthful_mechanism_has_zero_loss() {
        let (g, nd, d) = setup();
        let id = IntervalDistances::build(&g, &nd, &d);
        let k = id.len();
        let c = CostMatrix::build(&id, &Prior::uniform(k), &Prior::uniform(k));
        let mut identity = vec![0.0; k * k];
        for i in 0..k {
            identity[i * k + i] = 1.0;
        }
        assert_eq!(c.quality_loss(&identity), 0.0);
    }

    #[test]
    fn quality_loss_increases_with_obfuscation_spread() {
        let (g, nd, d) = setup();
        let id = IntervalDistances::build(&g, &nd, &d);
        let k = id.len();
        let c = CostMatrix::build(&id, &Prior::uniform(k), &Prior::uniform(k));
        let uniform = vec![1.0 / k as f64; k * k];
        assert!(c.quality_loss(&uniform) > 0.0);
    }

    #[test]
    fn column_extracts_costs() {
        let (g, nd, d) = setup();
        let id = IntervalDistances::build(&g, &nd, &d);
        let k = id.len();
        let c = CostMatrix::build(&id, &Prior::uniform(k), &Prior::uniform(k));
        let col = c.column(1);
        for i in 0..k {
            assert_eq!(col[i], c.get(i, 1));
        }
    }
}
