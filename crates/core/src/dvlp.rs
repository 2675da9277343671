//! Direct LP formulation of D-VLP (§4.1, Eq. 18–21).
//!
//! The discretized problem is the linear program
//!
//! ```text
//! min  Σ_i Σ_j c_{i,j} · z_{i,j}
//! s.t. z_{i,j} − e^{ε·dist(i,l)} · z_{l,j} ≤ 0   (per privacy pair, per j)
//!      Σ_j z_{i,j} = 1                            (per true interval i)
//!      z ≥ 0
//! ```
//!
//! with `K²` variables. This module solves it *directly* with the dense
//! simplex — tractable for the small instances used in unit tests and
//! ground-truthing. Production-size instances go through
//! [`crate::column_generation`], which solves the same problem by
//! Dantzig-Wolfe decomposition.

use lpsolve::{LinearProgram, Relation};

use crate::cost::CostMatrix;
use crate::error::VlpError;
use crate::mechanism::Mechanism;
use crate::privacy::PrivacySpec;

/// Telemetry metric names recorded by the direct D-VLP solver,
/// declared in [`vlp_obs::schema::dvlp`].
pub mod metrics {
    pub use vlp_obs::schema::dvlp::*;
}

/// Tolerance used when validating the returned matrix.
const ROW_TOL: f64 = 1e-5;

/// Solves D-VLP directly and returns the optimal mechanism together
/// with the optimal quality loss (ETDD).
///
/// # Errors
///
/// * [`VlpError::EmptyInstance`] if the cost matrix covers no
///   intervals;
/// * [`VlpError::DimensionMismatch`] if a privacy constraint references
///   an interval outside the cost matrix;
/// * [`VlpError::Lp`] if the LP solver fails (the feasible region is
///   never empty — the uniform mechanism always qualifies — so this
///   indicates numerical trouble);
/// * [`VlpError::MalformedSolution`] if the solver's matrix cannot be
///   normalized into a mechanism.
pub fn solve_direct(cost: &CostMatrix, spec: &PrivacySpec) -> Result<(Mechanism, f64), VlpError> {
    let obs = vlp_obs::global();
    let _span = obs.start(metrics::SOLVE_TIME);
    let k = cost.len();
    if k == 0 {
        return Err(VlpError::EmptyInstance);
    }
    for c in &spec.constraints {
        if c.i >= k || c.l >= k {
            return Err(VlpError::DimensionMismatch {
                expected: k,
                found: c.i.max(c.l) + 1,
            });
        }
    }
    let build_started = std::time::Instant::now();
    let var = |i: usize, j: usize| i * k + j;
    let mut lp = LinearProgram::new(k * k);
    let mut obj = Vec::with_capacity(k * k);
    for i in 0..k {
        for j in 0..k {
            let c = cost.get(i, j);
            if c != 0.0 {
                obj.push((var(i, j), c));
            }
        }
    }
    lp.set_objective(&obj)?;
    // Probability unit measure (Eq. 21).
    for i in 0..k {
        let row: Vec<(usize, f64)> = (0..k).map(|j| (var(i, j), 1.0)).collect();
        lp.add_constraint(&row, Relation::Eq, 1.0)?;
    }
    // Geo-I constraints (Eq. 20), instantiated per obfuscated interval.
    for c in &spec.constraints {
        let bound = spec.bound(c);
        for j in 0..k {
            lp.add_constraint(
                &[(var(c.i, j), 1.0), (var(c.l, j), -bound)],
                Relation::Le,
                0.0,
            )?;
        }
    }
    obs.record_duration(metrics::MATRIX_BUILD_TIME, build_started.elapsed());
    obs.incr(metrics::SOLVES, 1);
    obs.push(metrics::LP_ROWS, (k + spec.constraints.len() * k) as f64);
    let sol = lp.solve()?;
    let mech = Mechanism::from_matrix(k, sol.x, ROW_TOL).ok_or(VlpError::MalformedSolution)?;
    Ok((mech, sol.objective))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auxiliary::AuxiliaryGraph;
    use crate::constraint_reduction::reduced_spec;
    use crate::cost::{CostMatrix, IntervalDistances, Prior};
    use crate::discretize::Discretization;
    use roadnet::{NodeDistances, RoadGraph, RoadGraphBuilder};

    /// A 3-node directed triangle, one interval per edge (K = 3).
    fn tiny() -> (RoadGraph, Discretization, AuxiliaryGraph, CostMatrix) {
        let mut b = RoadGraphBuilder::new();
        let v0 = b.add_node(0.0, 0.0);
        let v1 = b.add_node(1.0, 0.0);
        let v2 = b.add_node(0.5, 0.8);
        b.add_edge(v0, v1, 1.0).unwrap();
        b.add_edge(v1, v2, 1.0).unwrap();
        b.add_edge(v2, v0, 1.0).unwrap();
        let g = b.build().unwrap();
        let nd = NodeDistances::all_pairs(&g);
        let disc = Discretization::new(&g, 1.0);
        let aux = AuxiliaryGraph::build(&g, &disc);
        let id = IntervalDistances::build(&g, &nd, &disc);
        let k = disc.len();
        let cost = CostMatrix::build(&id, &Prior::uniform(k), &Prior::uniform(k));
        (g, disc, aux, cost)
    }

    #[test]
    fn optimal_mechanism_is_feasible_and_beats_uniform() {
        let (_, _, aux, cost) = tiny();
        let spec = PrivacySpec::full(&aux, 1.0, f64::INFINITY);
        let (mech, obj) = solve_direct(&cost, &spec).unwrap();
        assert!(mech.is_row_stochastic(1e-9));
        assert!(mech.max_violation(&spec) <= 1e-6);
        let uniform_loss = Mechanism::uniform(cost.len()).quality_loss(&cost);
        assert!(obj <= uniform_loss + 1e-9, "{obj} > uniform {uniform_loss}");
        assert!((mech.quality_loss(&cost) - obj).abs() < 1e-6);
    }

    #[test]
    fn tighter_epsilon_costs_more() {
        // Smaller ε (stronger privacy) cannot decrease the optimum
        // (Proposition 4.5's monotonicity).
        let (_, _, aux, cost) = tiny();
        let loose = PrivacySpec::full(&aux, 5.0, f64::INFINITY);
        let tight = PrivacySpec::full(&aux, 0.5, f64::INFINITY);
        let (_, obj_loose) = solve_direct(&cost, &loose).unwrap();
        let (_, obj_tight) = solve_direct(&cost, &tight).unwrap();
        assert!(obj_tight >= obj_loose - 1e-9);
    }

    #[test]
    fn no_constraints_reaches_zero_loss() {
        let (_, _, aux, cost) = tiny();
        let spec = PrivacySpec {
            epsilon: 1.0,
            radius: 0.0,
            constraints: Vec::new(),
        };
        let _ = aux;
        let (mech, obj) = solve_direct(&cost, &spec).unwrap();
        assert!(
            obj.abs() < 1e-9,
            "unconstrained optimum must be truthful: {obj}"
        );
        for i in 0..cost.len() {
            assert!((mech.prob(i, i) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn reduced_spec_attains_full_spec_optimum() {
        // The heart of §4.2: constraint reduction loses no optimality.
        let (_, _, aux, cost) = tiny();
        for eps in [0.5, 1.0, 3.0] {
            let full = PrivacySpec::full(&aux, eps, f64::INFINITY);
            let reduced = reduced_spec(&aux, eps, f64::INFINITY);
            let (_, obj_full) = solve_direct(&cost, &full).unwrap();
            let (_, obj_red) = solve_direct(&cost, &reduced).unwrap();
            assert!(
                (obj_full - obj_red).abs() < 1e-6,
                "eps={eps}: full {obj_full} vs reduced {obj_red}"
            );
        }
    }

    #[test]
    fn reduced_solution_satisfies_full_spec() {
        let (_, _, aux, cost) = tiny();
        let full = PrivacySpec::full(&aux, 2.0, f64::INFINITY);
        let reduced = reduced_spec(&aux, 2.0, f64::INFINITY);
        let (mech, _) = solve_direct(&cost, &reduced).unwrap();
        assert!(mech.max_violation(&full) <= 1e-6);
    }

    #[test]
    fn rejects_out_of_range_constraint() {
        let (_, _, _, cost) = tiny();
        let spec = PrivacySpec {
            epsilon: 1.0,
            radius: 1.0,
            constraints: vec![crate::privacy::PrivacyConstraint {
                i: 0,
                l: 99,
                dist: 0.1,
            }],
        };
        assert!(matches!(
            solve_direct(&cost, &spec),
            Err(VlpError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn grid_instance_full_vs_reduced() {
        // A slightly larger instance (K = 8) as a second ground truth.
        let g = roadnet::generators::grid(2, 2, 0.5, true);
        let nd = NodeDistances::all_pairs(&g);
        let disc = Discretization::new(&g, 0.5);
        let aux = AuxiliaryGraph::build(&g, &disc);
        let id = IntervalDistances::build(&g, &nd, &disc);
        let k = disc.len();
        let cost = CostMatrix::build(&id, &Prior::uniform(k), &Prior::uniform(k));
        let full = PrivacySpec::full(&aux, 2.0, f64::INFINITY);
        let reduced = reduced_spec(&aux, 2.0, f64::INFINITY);
        let (_, obj_full) = solve_direct(&cost, &full).unwrap();
        let (_, obj_red) = solve_direct(&cost, &reduced).unwrap();
        assert!(
            (obj_full - obj_red).abs() < 1e-5,
            "full {obj_full} vs reduced {obj_red}"
        );
        assert!(obj_full > 0.0, "geo-I must cost something");
    }
}
