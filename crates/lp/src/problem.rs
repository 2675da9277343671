//! Modelling API: variables, constraints, objective.

use crate::error::LpError;
use crate::simplex::{self, SolveStats};

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `a·x ≤ b`
    Le,
    /// `a·x = b`
    Eq,
    /// `a·x ≥ b`
    Ge,
}

/// A single linear constraint `a·x {≤,=,≥} b` with sparse coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs; indices are unique.
    pub coeffs: Vec<(usize, f64)>,
    /// Direction of the constraint.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// The result of a successful solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal objective value (minimization).
    pub objective: f64,
    /// Optimal values of the decision variables.
    pub x: Vec<f64>,
    /// One dual value per constraint, in insertion order.
    ///
    /// Sign convention: duals are the values `y = c_B B⁻¹` of the
    /// equality-standard-form problem mapped back to the original rows,
    /// so for a minimization problem a binding `≤` constraint has
    /// `y ≤ 0` and a binding `≥` constraint has `y ≥ 0` (up to
    /// degeneracy). The Lagrangian identity
    /// `objective = Σ_i y_i · rhs_i + Σ_j reduced_cost_j · x_j` holds.
    pub duals: Vec<f64>,
}

/// A linear program in minimization form with non-negative variables.
///
/// Upper bounds on variables are expressed as explicit `≤` constraints,
/// which keeps the solver simple and the duals uniform.
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    n_vars: usize,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates a program over `n_vars` non-negative variables with a
    /// zero objective.
    pub fn new(n_vars: usize) -> Self {
        Self {
            n_vars,
            objective: vec![0.0; n_vars],
            constraints: Vec::new(),
        }
    }

    /// Number of decision variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of constraints added so far.
    pub fn n_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The constraints added so far, in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Sets the minimization objective from sparse `(index, coeff)`
    /// pairs. Unmentioned variables keep coefficient zero; mentioning an
    /// index twice accumulates.
    ///
    /// # Errors
    ///
    /// [`LpError::UnknownVariable`] for an out-of-range index,
    /// [`LpError::NonFiniteValue`] for NaN/infinite coefficients. A
    /// rejected call leaves the objective unchanged.
    pub fn set_objective(&mut self, coeffs: &[(usize, f64)]) -> Result<(), LpError> {
        for &(i, c) in coeffs {
            if i >= self.n_vars {
                return Err(LpError::UnknownVariable {
                    index: i,
                    n_vars: self.n_vars,
                });
            }
            if !c.is_finite() {
                return Err(LpError::NonFiniteValue);
            }
        }
        self.objective.fill(0.0);
        for &(i, c) in coeffs {
            self.objective[i] += c;
        }
        Ok(())
    }

    /// Dense view of the objective vector.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Adds the constraint `Σ coeffs ⋅ x {relation} rhs`.
    ///
    /// Duplicate indices in `coeffs` accumulate.
    ///
    /// # Errors
    ///
    /// [`LpError::UnknownVariable`] for an out-of-range index,
    /// [`LpError::NonFiniteValue`] for NaN/infinite values.
    pub fn add_constraint(
        &mut self,
        coeffs: &[(usize, f64)],
        relation: Relation,
        rhs: f64,
    ) -> Result<usize, LpError> {
        if !rhs.is_finite() {
            return Err(LpError::NonFiniteValue);
        }
        let mut seen: Vec<(usize, f64)> = Vec::with_capacity(coeffs.len());
        for &(i, c) in coeffs {
            if i >= self.n_vars {
                return Err(LpError::UnknownVariable {
                    index: i,
                    n_vars: self.n_vars,
                });
            }
            if !c.is_finite() {
                return Err(LpError::NonFiniteValue);
            }
            if let Some(slot) = seen.iter_mut().find(|(j, _)| *j == i) {
                slot.1 += c;
            } else {
                seen.push((i, c));
            }
        }
        let id = self.constraints.len();
        self.constraints.push(Constraint {
            coeffs: seen,
            relation,
            rhs,
        });
        Ok(id)
    }

    /// Appends a variable with objective coefficient `cost` whose
    /// coefficient in row `r` is `dense[r]`; zero entries stay out of
    /// the sparse rows. The caller has validated both.
    pub(crate) fn push_column(&mut self, cost: f64, dense: &[f64]) {
        let v = self.n_vars;
        self.n_vars += 1;
        self.objective.push(cost);
        for (row, &val) in self.constraints.iter_mut().zip(dense) {
            if val != 0.0 {
                row.coeffs.push((v, val));
            }
        }
    }

    /// Solves the program with the two-phase dense simplex method.
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] if no feasible point exists;
    /// * [`LpError::Unbounded`] if the minimum is −∞;
    /// * [`LpError::IterationLimit`] on pathological numerical behaviour;
    /// * [`LpError::FaultInjected`] under an active chaos failpoint
    ///   scope whose schedule fires `lp.solve.fault` — the hook
    ///   resilience harnesses use to script solver outages
    ///   deterministically (see `vlp_obs::failpoint`).
    pub fn solve(&self) -> Result<Solution, LpError> {
        if vlp_obs::failpoint::should_fail(vlp_obs::failpoint::site::LP_SOLVE) {
            return Err(LpError::FaultInjected);
        }
        let _span = vlp_obs::global().start(simplex::metrics::SOLVE_TIME);
        let mut stats = SolveStats::default();
        let result = simplex::solve_cold(self, &mut stats);
        stats.flush();
        result.map(|(sol, _)| sol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_accumulates_duplicates() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, 1.0), (0, 2.0)]).unwrap();
        assert_eq!(lp.objective(), &[3.0, 0.0]);
    }

    #[test]
    fn constraint_accumulates_duplicates() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(&[(1, 1.0), (1, 1.5)], Relation::Le, 2.0)
            .unwrap();
        assert_eq!(lp.constraints()[0].coeffs, vec![(1, 2.5)]);
    }

    #[test]
    fn rejects_unknown_variable() {
        let mut lp = LinearProgram::new(1);
        assert!(matches!(
            lp.set_objective(&[(3, 1.0)]),
            Err(LpError::UnknownVariable {
                index: 3,
                n_vars: 1
            })
        ));
        assert!(matches!(
            lp.add_constraint(&[(9, 1.0)], Relation::Eq, 0.0),
            Err(LpError::UnknownVariable { .. })
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let mut lp = LinearProgram::new(1);
        assert_eq!(
            lp.set_objective(&[(0, f64::NAN)]),
            Err(LpError::NonFiniteValue)
        );
        assert_eq!(
            lp.add_constraint(&[(0, 1.0)], Relation::Le, f64::INFINITY),
            Err(LpError::NonFiniteValue)
        );
    }

    #[test]
    fn rejected_objective_leaves_program_unchanged() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, 1.0), (1, 2.0)]).unwrap();
        assert!(matches!(
            lp.set_objective(&[(1, 5.0), (7, 1.0)]),
            Err(LpError::UnknownVariable { index: 7, .. })
        ));
        assert_eq!(lp.objective(), &[1.0, 2.0]);
    }
}
