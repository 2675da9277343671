//! A persistent, warm-startable simplex engine.
//!
//! [`IncrementalLp`] holds a [`LinearProgram`] (the one problem type:
//! its data and validation) plus the tableau and basis it keeps
//! *across* solves, which is exactly the structure column generation
//! needs (§4.3):
//!
//! * **Objective changes** ([`IncrementalLp::set_objective`] then
//!   [`resolve`](IncrementalLp::resolve)): the constraint rows — and
//!   therefore the feasible region and the current basic point — are
//!   untouched, so the previous optimal basis stays primal-feasible
//!   and the resolve re-prices and runs phase-2 pivots only. Phase 1
//!   is skipped entirely. This is the pricing-subproblem pattern: the
//!   polytope `Λ_l` never changes, only `c_l − π` does.
//! * **Column additions** ([`add_columns`](IncrementalLp::add_columns)
//!   then `resolve`): new columns enter non-basic at zero, so the old
//!   basis remains primal-feasible (a dual-feasible warm start in the
//!   column-generation sense — only the new columns need pricing in).
//!   This is the restricted-master pattern: the master only ever
//!   *gains* columns.
//!
//! Every resolve ends with a **canonical finish** (a refactorization of
//! the final basis): the reported solution is a pure function of the
//! problem data and the final basis, independent of the pivot path
//! that reached it. A warm resolve and a cold solve landing on the same
//! optimal basis therefore return bit-identical solutions, which is
//! what makes warm-started column generation reproducible against its
//! cold baseline.
//!
//! A first resolve, and any resolve after a numerical failure on the
//! warm path (singular refactorization, iteration limit), runs the same
//! cold two-phase pipeline as [`LinearProgram::solve`] on the held
//! program and keeps its optimal tableau as the warm state, so callers
//! see cold-solve semantics with warm-solve speed.

use std::time::{Duration, Instant};

use crate::error::LpError;
use crate::problem::{LinearProgram, Relation, Solution};
use crate::simplex::{self, canonical_finish, extract_solution, metrics, SolveStats, Tableau};

/// What the most recent [`IncrementalLp::resolve`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Whether the resolve reused the previous optimal basis. `false`
    /// for first solves and for warm attempts that fell back to cold.
    pub warm: bool,
    /// Whether a phase 1 that a cold solve would have run was skipped
    /// (the problem has artificial columns and the resolve was warm).
    pub phase1_skipped: bool,
    /// Simplex pivots performed (all phases, including any wasted warm
    /// attempt before a fallback).
    pub pivots: u64,
    /// Phase-1 iterations performed.
    pub phase1_iterations: u64,
    /// Phase-2 iterations performed.
    pub phase2_iterations: u64,
    /// Wall-clock time of the resolve.
    pub duration: Duration,
}

/// One column to append to a live program: its objective coefficient
/// and sparse `(row, coefficient)` entries.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    /// Objective coefficient of the new variable.
    pub cost: f64,
    /// Sparse constraint-row entries `(row index, coefficient)`;
    /// duplicate rows accumulate.
    pub entries: Vec<(usize, f64)>,
}

/// Warm state carried between resolves: the live tableau plus the
/// bookkeeping to map tableau columns back to variables.
#[derive(Debug, Clone)]
struct WarmState {
    t: Tableau,
    flipped: Vec<bool>,
    /// Structural variable count at assembly time (variables added
    /// later live in appended tableau columns).
    n_assembled: usize,
    /// Tableau column index where appended variables start.
    appended_at: usize,
}

impl WarmState {
    fn var_to_col(&self, v: usize) -> usize {
        if v < self.n_assembled {
            v
        } else {
            self.appended_at + (v - self.n_assembled)
        }
    }

    fn col_to_var(&self, j: usize) -> Option<usize> {
        if j < self.n_assembled {
            Some(j)
        } else if j >= self.appended_at {
            Some(self.n_assembled + (j - self.appended_at))
        } else {
            None
        }
    }
}

/// A [`LinearProgram`] whose solver state persists across solves. The
/// problem data lives in the held program, so modelling and its
/// validation are the program's; this type adds the warm tableau. See
/// the module docs for the two warm patterns; rows are frozen after the
/// first solve, columns and the objective are not.
///
/// # Examples
///
/// ```
/// use lpsolve::{IncrementalLp, Relation};
///
/// // minimize x₀ + 2x₁  s.t.  x₀ + x₁ ≥ 1
/// let mut lp = IncrementalLp::new(2);
/// lp.set_objective(&[(0, 1.0), (1, 2.0)])?;
/// lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 1.0)?;
/// let cold = lp.resolve()?;
/// assert_eq!(cold.objective, 1.0); // all mass on the cheap variable
///
/// // Re-pricing after an objective change warm-starts from the
/// // previous basis: no phase 1, usually few (or zero) pivots.
/// lp.set_objective(&[(0, 3.0), (1, 2.0)])?;
/// let warm = lp.resolve()?;
/// assert_eq!(warm.objective, 2.0); // mass moved to x₁
/// assert!(lp.last_stats().warm);
/// # Ok::<(), lpsolve::LpError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalLp {
    lp: LinearProgram,
    warm: Option<WarmState>,
    last_stats: ResolveStats,
}

impl IncrementalLp {
    /// Creates a program over `n_vars` non-negative variables with a
    /// zero objective.
    pub fn new(n_vars: usize) -> Self {
        Self {
            lp: LinearProgram::new(n_vars),
            ..Self::default()
        }
    }

    /// Clones problem data (not solver state) out of a
    /// [`LinearProgram`].
    pub fn from_program(lp: &LinearProgram) -> Self {
        Self {
            lp: lp.clone(),
            ..Self::default()
        }
    }

    /// Number of decision variables (original plus appended columns).
    pub fn n_vars(&self) -> usize {
        self.lp.n_vars()
    }

    /// Number of constraint rows.
    pub fn n_constraints(&self) -> usize {
        self.lp.n_constraints()
    }

    /// Statistics for the most recent [`resolve`](Self::resolve).
    pub fn last_stats(&self) -> ResolveStats {
        self.last_stats
    }

    /// Drops the warm state: the next resolve is a cold solve.
    pub fn invalidate(&mut self) {
        self.warm = None;
    }

    /// [`LinearProgram::set_objective`] on the held program. Keeps the
    /// warm basis — objective changes never invalidate primal
    /// feasibility.
    ///
    /// # Errors
    ///
    /// Same as [`LinearProgram::set_objective`].
    pub fn set_objective(&mut self, coeffs: &[(usize, f64)]) -> Result<(), LpError> {
        self.lp.set_objective(coeffs)
    }

    /// [`LinearProgram::add_constraint`] on the held program. Rows can
    /// only be added before the first solve — afterwards the basis owns
    /// the row structure.
    ///
    /// # Errors
    ///
    /// [`LpError::StructureFrozen`] after the first solve, otherwise
    /// the same validation errors as
    /// [`LinearProgram::add_constraint`].
    pub fn add_constraint(
        &mut self,
        coeffs: &[(usize, f64)],
        relation: Relation,
        rhs: f64,
    ) -> Result<usize, LpError> {
        if self.warm.is_some() {
            return Err(LpError::StructureFrozen);
        }
        self.lp.add_constraint(coeffs, relation, rhs)
    }

    /// Appends a batch of columns (new non-negative variables). If a
    /// warm basis exists it is extended in place: the new columns enter
    /// non-basic at zero, the old basis stays primal-feasible, and the
    /// next [`resolve`](Self::resolve) only needs to price them in.
    ///
    /// # Errors
    ///
    /// [`LpError::UnknownVariable`] for a row index out of range (the
    /// variant's fields carry the row count), [`LpError::NonFiniteValue`]
    /// for NaN/infinite values. On error nothing is modified.
    pub fn add_columns(&mut self, cols: &[ColumnSpec]) -> Result<(), LpError> {
        let m = self.lp.n_constraints();
        for spec in cols {
            if !spec.cost.is_finite() {
                return Err(LpError::NonFiniteValue);
            }
            for &(row, v) in &spec.entries {
                if row >= m {
                    return Err(LpError::UnknownVariable {
                        index: row,
                        n_vars: m,
                    });
                }
                if !v.is_finite() {
                    return Err(LpError::NonFiniteValue);
                }
            }
        }
        // Dense per-row accumulation (duplicate rows add up), shared by
        // the problem definition and the tableau append.
        let mut dense_cols: Vec<Vec<f64>> = Vec::with_capacity(cols.len());
        for spec in cols {
            let mut dense = vec![0.0; m];
            for &(row, val) in &spec.entries {
                dense[row] += val;
            }
            self.lp.push_column(spec.cost, &dense);
            dense_cols.push(dense);
        }
        if let Some(ws) = self.warm.as_mut() {
            // Normalize to the tableau's sign convention (rows flipped
            // to non-negative rhs during assembly).
            for (i, dense) in dense_cols
                .iter_mut()
                .flat_map(|d| d.iter_mut().enumerate().collect::<Vec<_>>())
            {
                if ws.flipped[i] {
                    *dense = -*dense;
                }
            }
            ws.t.append_columns(&dense_cols);
            vlp_obs::global().incr(metrics::WARM_COLUMNS_ADDED, cols.len() as u64);
        }
        Ok(())
    }

    /// Solves the program, reusing the previous optimal basis when one
    /// exists. The first call (or any call after
    /// [`invalidate`](Self::invalidate)) is a cold two-phase solve;
    /// later calls warm-start: objective changes re-price the old basis
    /// (no phase 1), appended columns price in on top of it. Any warm
    /// numerical failure falls back to a cold solve transparently.
    ///
    /// # Example
    ///
    /// ```
    /// use lpsolve::{IncrementalLp, Relation};
    ///
    /// // minimize 2x₀ + x₁  s.t.  x₀ + x₁ ≥ 1
    /// let mut lp = IncrementalLp::new(2);
    /// lp.set_objective(&[(0, 2.0), (1, 1.0)])?;
    /// lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 1.0)?;
    /// let cold = lp.resolve()?;
    /// assert_eq!(cold.objective, 1.0);
    /// assert!(!lp.last_stats().warm); // first solve is cold
    ///
    /// let warm = lp.resolve()?; // nothing changed: zero-pivot re-price
    /// assert_eq!(warm.objective, 1.0);
    /// assert!(lp.last_stats().warm);
    /// # Ok::<(), lpsolve::LpError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Same failure modes as [`LinearProgram::solve`], plus
    /// [`LpError::FaultInjected`] under an active chaos failpoint
    /// scope whose schedule fires `lp.resolve.fault` (the warm state
    /// is left untouched, so a retried resolve behaves as if the
    /// injected failure never happened).
    pub fn resolve(&mut self) -> Result<Solution, LpError> {
        if vlp_obs::failpoint::should_fail(vlp_obs::failpoint::site::LP_RESOLVE) {
            return Err(LpError::FaultInjected);
        }
        let started = Instant::now();
        let mut stats = SolveStats::default();
        let mut rs = ResolveStats::default();
        let result = match self.warm.take() {
            Some(ws) => match Self::resolve_warm(self.lp.objective(), ws, &mut stats) {
                Ok((sol, ws)) => {
                    rs.warm = true;
                    rs.phase1_skipped = ws.t.has_artificials();
                    self.warm = Some(ws);
                    Ok(sol)
                }
                // The warm attempt hit numerical trouble; its pivots
                // stay in the tally (they were real work) but the
                // answer comes from a fresh cold solve.
                Err(_) => self.resolve_cold(&mut stats),
            },
            None => self.resolve_cold(&mut stats),
        };
        rs.pivots = stats.pivots;
        rs.phase1_iterations = stats.phase1_iterations;
        rs.phase2_iterations = stats.phase2_iterations;
        rs.duration = started.elapsed();
        self.last_stats = rs;
        let reg = vlp_obs::global();
        stats.flush();
        reg.record_duration(metrics::SOLVE_TIME, rs.duration);
        if rs.warm {
            reg.incr(metrics::WARM_RESOLVES, 1);
            reg.incr(metrics::WARM_PIVOTS, stats.pivots);
            if rs.phase1_skipped {
                reg.incr(metrics::WARM_PHASE1_SKIPPED, 1);
            }
        } else {
            reg.incr(metrics::WARM_COLD_SOLVES, 1);
        }
        result
    }

    /// Dense cost vector over all tableau columns (zero on
    /// slack/surplus/artificial columns).
    fn dense_cost(objective: &[f64], ws: &WarmState) -> Vec<f64> {
        let mut c = vec![0.0; ws.t.cols];
        for (v, &cv) in objective.iter().enumerate() {
            c[ws.var_to_col(v)] = cv;
        }
        c
    }

    fn resolve_warm(
        objective: &[f64],
        mut ws: WarmState,
        stats: &mut SolveStats,
    ) -> Result<(Solution, WarmState), LpError> {
        let c = Self::dense_cost(objective, &ws);
        // The previous resolve left the tableau canonically
        // refactorized, so re-pricing against it is numerically clean;
        // the optimize loop refactorizes periodically regardless.
        ws.t.reprice(&c);
        ws.t.optimize(&c, true, stats, false)?;
        canonical_finish(&mut ws.t, &c, stats)?;
        let sol = extract_solution(&ws.t, &ws.flipped, objective.len(), |j| ws.col_to_var(j));
        Ok((sol, ws))
    }

    /// The cold two-phase solve of the held program; its optimal
    /// tableau becomes the warm state.
    fn resolve_cold(&mut self, stats: &mut SolveStats) -> Result<Solution, LpError> {
        let (sol, a) = simplex::solve_cold(&self.lp, stats)?;
        self.warm = Some(WarmState {
            appended_at: a.t.cols,
            n_assembled: self.lp.n_vars(),
            t: a.t,
            flipped: a.flipped,
        });
        Ok(sol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    /// min -3x - 5y over the Hillier polytope; optimum -36 at (2, 6).
    fn hillier() -> IncrementalLp {
        let mut lp = IncrementalLp::new(2);
        lp.set_objective(&[(0, -3.0), (1, -5.0)]).unwrap();
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0).unwrap();
        lp.add_constraint(&[(1, 2.0)], Relation::Le, 12.0).unwrap();
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0)
            .unwrap();
        lp
    }

    #[test]
    fn first_solve_matches_linear_program() {
        let mut inc = hillier();
        let s = inc.resolve().unwrap();
        assert_close(s.objective, -36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
        assert!(!inc.last_stats().warm);
        assert!(inc.last_stats().pivots > 0);
    }

    #[test]
    fn objective_change_resolves_warm_to_cold_answer() {
        let mut inc = hillier();
        inc.resolve().unwrap();
        // New objective over the same polytope: min -x (x to its bound).
        inc.set_objective(&[(0, -1.0)]).unwrap();
        let warm = inc.resolve().unwrap();
        assert!(inc.last_stats().warm);
        let mut cold = LinearProgram::new(2);
        cold.set_objective(&[(0, -1.0)]).unwrap();
        cold.add_constraint(&[(0, 1.0)], Relation::Le, 4.0).unwrap();
        cold.add_constraint(&[(1, 2.0)], Relation::Le, 12.0)
            .unwrap();
        cold.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0)
            .unwrap();
        let cs = cold.solve().unwrap();
        assert_close(warm.objective, cs.objective);
        // Dual objectives agree too (the optimal value is unique even
        // when the dual point is not).
        let rhs = [4.0, 12.0, 18.0];
        let warm_yb: f64 = warm.duals.iter().zip(rhs).map(|(y, b)| y * b).sum();
        let cold_yb: f64 = cs.duals.iter().zip(rhs).map(|(y, b)| y * b).sum();
        assert_close(warm_yb, warm.objective);
        assert_close(cold_yb, cs.objective);
    }

    #[test]
    fn warm_resolve_skips_phase_one_on_equality_rows() {
        // Probability simplex: phase 1 needed cold, skipped warm.
        let mut inc = IncrementalLp::new(3);
        inc.set_objective(&[(0, 3.0), (1, 1.0), (2, 2.0)]).unwrap();
        inc.add_constraint(&[(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Eq, 1.0)
            .unwrap();
        let s = inc.resolve().unwrap();
        assert_close(s.objective, 1.0);
        assert!(inc.last_stats().phase1_iterations > 0);
        inc.set_objective(&[(0, 1.0), (1, 5.0), (2, 4.0)]).unwrap();
        let s2 = inc.resolve().unwrap();
        assert_close(s2.objective, 1.0);
        assert_close(s2.x[0], 1.0);
        let stats = inc.last_stats();
        assert!(stats.warm);
        assert!(stats.phase1_skipped);
        assert_eq!(stats.phase1_iterations, 0);
    }

    #[test]
    fn added_column_prices_in_warm() {
        // Simplex over {a, b} with costs (2, 3): optimum 2. Add a
        // cheaper column c with cost 1: optimum moves to 1.
        let mut inc = IncrementalLp::new(2);
        inc.set_objective(&[(0, 2.0), (1, 3.0)]).unwrap();
        inc.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 1.0)
            .unwrap();
        let s = inc.resolve().unwrap();
        assert_close(s.objective, 2.0);
        inc.add_columns(&[ColumnSpec {
            cost: 1.0,
            entries: vec![(0, 1.0)],
        }])
        .unwrap();
        assert_eq!(inc.n_vars(), 3);
        let s2 = inc.resolve().unwrap();
        assert!(inc.last_stats().warm);
        assert_close(s2.objective, 1.0);
        assert_close(s2.x[2], 1.0);
        assert_close(s2.x[0], 0.0);
    }

    #[test]
    fn added_column_matches_cold_rebuild() {
        // Master-like program: coupling row + convexity row; add a
        // batch of columns warm and compare against a cold solve of the
        // full program.
        let mut inc = IncrementalLp::new(2);
        inc.set_objective(&[(0, 5.0), (1, 4.0)]).unwrap();
        inc.add_constraint(&[(0, 0.3), (1, 0.9)], Relation::Eq, 0.6)
            .unwrap();
        inc.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 1.0)
            .unwrap();
        inc.resolve().unwrap();
        inc.add_columns(&[
            ColumnSpec {
                cost: 2.0,
                entries: vec![(0, 0.6), (1, 1.0)],
            },
            ColumnSpec {
                cost: 7.0,
                entries: vec![(0, 1.4), (1, 1.0)],
            },
        ])
        .unwrap();
        let warm = inc.resolve().unwrap();
        assert!(inc.last_stats().warm);

        let mut cold = LinearProgram::new(4);
        cold.set_objective(&[(0, 5.0), (1, 4.0), (2, 2.0), (3, 7.0)])
            .unwrap();
        cold.add_constraint(&[(0, 0.3), (1, 0.9), (2, 0.6), (3, 1.4)], Relation::Eq, 0.6)
            .unwrap();
        cold.add_constraint(&[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)], Relation::Eq, 1.0)
            .unwrap();
        let cs = cold.solve().unwrap();
        assert_close(warm.objective, cs.objective);
        for (w, c) in warm.x.iter().zip(&cs.x) {
            assert_close(*w, *c);
        }
    }

    #[test]
    fn rows_freeze_after_first_solve() {
        let mut inc = hillier();
        inc.resolve().unwrap();
        assert_eq!(
            inc.add_constraint(&[(0, 1.0)], Relation::Le, 1.0)
                .unwrap_err(),
            LpError::StructureFrozen
        );
        // invalidate() unfreezes (next solve is cold anyway).
        inc.invalidate();
        inc.add_constraint(&[(0, 1.0)], Relation::Le, 1.0).unwrap();
        let s = inc.resolve().unwrap();
        assert_close(s.x[0], 1.0);
    }

    #[test]
    fn unbounded_objective_change_is_reported() {
        let mut inc = IncrementalLp::new(2);
        inc.set_objective(&[(0, 1.0)]).unwrap();
        inc.add_constraint(&[(0, 1.0)], Relation::Le, 5.0).unwrap();
        inc.resolve().unwrap();
        // y is unconstrained above; minimizing -y is unbounded.
        inc.set_objective(&[(1, -1.0)]).unwrap();
        assert_eq!(inc.resolve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn infeasible_cold_solve_is_reported() {
        let mut inc = IncrementalLp::new(1);
        inc.add_constraint(&[(0, 1.0)], Relation::Le, 1.0).unwrap();
        inc.add_constraint(&[(0, 1.0)], Relation::Ge, 2.0).unwrap();
        assert_eq!(inc.resolve().unwrap_err(), LpError::Infeasible);
        // No warm state was stored; a repeat call still reports it.
        assert_eq!(inc.resolve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn from_program_round_trips() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, -3.0), (1, -5.0)]).unwrap();
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0).unwrap();
        lp.add_constraint(&[(1, 2.0)], Relation::Le, 12.0).unwrap();
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0)
            .unwrap();
        let mut inc = IncrementalLp::from_program(&lp);
        let a = lp.solve().unwrap();
        let b = inc.resolve().unwrap();
        // One cold pipeline: a first resolve is the one-shot solve.
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.x), bits(&b.x));
        assert_eq!(bits(&a.duals), bits(&b.duals));
    }

    #[test]
    fn repeated_resolves_are_stable() {
        // Re-resolving without any change must keep returning the same
        // optimum (and take zero pivots once optimal).
        let mut inc = hillier();
        let first = inc.resolve().unwrap();
        for _ in 0..3 {
            let again = inc.resolve().unwrap();
            assert_eq!(again.objective.to_bits(), first.objective.to_bits());
            assert_eq!(inc.last_stats().pivots, 0);
        }
    }
}
