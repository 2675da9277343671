//! Dense two-phase tableau simplex.
//!
//! Internal module; the public entry points are
//! [`LinearProgram::solve`](crate::LinearProgram::solve) (one-shot
//! solves) and [`IncrementalLp`](crate::IncrementalLp) (persistent,
//! warm-started solves on the same tableau machinery). Both run their
//! cold solves through the one pipeline, `solve_cold`.
//!
//! The implementation is the classic textbook method:
//!
//! 1. normalize every row to a non-negative right-hand side;
//! 2. add a slack (`≤`) or surplus (`≥`) column per row, plus an
//!    artificial column for `=` and `≥` rows;
//! 3. **phase 1** minimizes the sum of artificials from the trivial
//!    slack/artificial basis — a positive optimum proves infeasibility;
//! 4. **phase 2** re-prices with the true objective (artificials barred
//!    from entering) and iterates to optimality;
//! 5. duals are read off the reduced costs of each row's slack or
//!    artificial column.
//!
//! Pricing is Dantzig (most negative reduced cost) with a switch to
//! Bland's rule late in the iteration budget to guarantee termination
//! under degeneracy.
//!
//! The tableau carries an explicit artificial-column bitmap (not a
//! column-index threshold) so that structural columns appended *after*
//! assembly — the warm-started master's generated columns — price and
//! pivot like any original column.

// Dense numeric kernels below index several parallel arrays in one
// loop; iterator rewrites would obscure the linear-algebra intent.
#![allow(clippy::needless_range_loop)]

use crate::error::LpError;
use crate::problem::{Constraint, LinearProgram, Relation, Solution};

/// Telemetry metric names recorded by this module (via
/// [`vlp_obs::global`]). Counted locally in the pivot loop and flushed
/// once per solve, so instrumentation adds no per-pivot locking.
pub mod metrics {
    /// Counter: total calls to the solver (cold and warm alike).
    pub const SOLVES: &str = "lpsolve.simplex.solves";
    /// Counter: pivots across both phases (incl. artificial drive-out).
    pub const PIVOTS: &str = "lpsolve.simplex.pivots";
    /// Counter: periodic + phase-boundary refactorizations.
    pub const REFACTORIZATIONS: &str = "lpsolve.simplex.refactorizations";
    /// Counter: phase-1 simplex iterations.
    pub const PHASE1_ITERATIONS: &str = "lpsolve.simplex.phase1_iterations";
    /// Counter: phase-2 simplex iterations.
    pub const PHASE2_ITERATIONS: &str = "lpsolve.simplex.phase2_iterations";
    /// Timer: wall-clock time of each solve.
    pub const SOLVE_TIME: &str = "lpsolve.simplex.solve";
    /// Counter: warm-started `IncrementalLp::resolve` calls that reused
    /// the previous optimal basis.
    pub const WARM_RESOLVES: &str = "lpsolve.warm.resolves";
    /// Counter: cold solves performed by the incremental engine (first
    /// solves and fallbacks after a failed warm attempt).
    pub const WARM_COLD_SOLVES: &str = "lpsolve.warm.cold_solves";
    /// Counter: warm resolves that skipped a phase 1 a cold solve would
    /// have run (the problem has artificial columns).
    pub const WARM_PHASE1_SKIPPED: &str = "lpsolve.warm.phase1_skipped";
    /// Counter: pivots spent inside warm-started resolves.
    pub const WARM_PIVOTS: &str = "lpsolve.warm.pivots";
    /// Counter: columns appended to live warm bases.
    pub const WARM_COLUMNS_ADDED: &str = "lpsolve.warm.columns_added";
}

/// Per-solve event tallies, flushed to the global registry at the end
/// of each solve.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SolveStats {
    pub(crate) pivots: u64,
    pub(crate) refactorizations: u64,
    pub(crate) phase1_iterations: u64,
    pub(crate) phase2_iterations: u64,
}

impl SolveStats {
    pub(crate) fn flush(&self) {
        let reg = vlp_obs::global();
        reg.incr(metrics::SOLVES, 1);
        reg.incr(metrics::PIVOTS, self.pivots);
        reg.incr(metrics::REFACTORIZATIONS, self.refactorizations);
        reg.incr(metrics::PHASE1_ITERATIONS, self.phase1_iterations);
        reg.incr(metrics::PHASE2_ITERATIONS, self.phase2_iterations);
    }
}

/// Pivot tolerance: entries smaller than this are treated as zero.
pub(crate) const EPS: f64 = 1e-9;
/// Phase-1 objective above this value declares infeasibility.
const FEAS_TOL: f64 = 1e-6;
/// Anti-degeneracy right-hand-side perturbation unit. Problems in this
/// workspace carry many homogeneous rows (`a·x ≤ 0`), whose all-slack
/// starting basis is maximally degenerate and stalls the simplex; a
/// deterministic, row-indexed perturbation of the rhs breaks every tie
/// while changing the optimum by at most `m · PERTURB` — far below the
/// solution tolerances used by callers.
const PERTURB: f64 = 1e-10;

/// Minimum magnitude accepted for a ratio-test pivot element. Pivoting
/// on smaller entries amplifies round-off by their reciprocal and was
/// observed to corrupt long runs on degenerate Geo-I programs.
const PIVOT_TOL: f64 = 1e-7;
/// Refactorize (rebuild the tableau from the original data by
/// Gauss-Jordan on the current basis) every this many pivots to purge
/// accumulated floating-point drift.
const REFACTOR_EVERY: usize = 150;

/// A dense simplex tableau with an attached reduced-cost row.
#[derive(Debug, Clone)]
pub(crate) struct Tableau {
    /// Number of constraint rows.
    pub(crate) m: usize,
    /// Total number of columns (structural + slack/surplus + artificial
    /// + appended structural).
    pub(crate) cols: usize,
    /// Row-major data, each row has `cols + 1` entries (last = rhs).
    pub(crate) data: Vec<f64>,
    /// Pristine copy of `data` as assembled (basis = identity on the
    /// initial slack/artificial columns); used for refactorization.
    /// Appended columns extend it with their original coefficients.
    pub(crate) orig: Vec<f64>,
    /// Reduced-cost row, `cols` entries.
    pub(crate) reduced: Vec<f64>,
    /// Current objective value of the phase being optimized.
    pub(crate) objective: f64,
    /// Basic column of each row.
    pub(crate) basis: Vec<usize>,
    /// Whether each column is currently basic (kept in lock-step with
    /// `basis`); basic columns must never re-enter — their reduced
    /// costs are zero by construction and any negative value is pure
    /// round-off drift, but pivoting on such a column corrupts the
    /// basis bookkeeping catastrophically.
    pub(crate) in_basis: Vec<bool>,
    /// Whether each column is an artificial (phase-1-only) column.
    /// A bitmap rather than an index threshold so structural columns
    /// can be appended after assembly.
    pub(crate) is_artificial: Vec<bool>,
    /// Number of artificial columns.
    pub(crate) n_artificial: usize,
}

impl Tableau {
    fn row(&self, i: usize) -> &[f64] {
        let w = self.cols + 1;
        &self.data[i * w..(i + 1) * w]
    }

    pub(crate) fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * (self.cols + 1) + j]
    }

    pub(crate) fn rhs(&self, i: usize) -> f64 {
        self.at(i, self.cols)
    }

    /// Whether the problem carries artificial columns (i.e. a cold
    /// solve must run phase 1).
    pub(crate) fn has_artificials(&self) -> bool {
        self.n_artificial > 0
    }

    /// Performs a pivot on `(row, col)`: normalizes the pivot row and
    /// eliminates `col` from all other rows and the reduced-cost row.
    pub(crate) fn pivot(&mut self, row: usize, col: usize) {
        let w = self.cols + 1;
        let pivot_val = self.at(row, col);
        debug_assert!(pivot_val.abs() > EPS, "pivot on a numerically zero entry");
        let inv = 1.0 / pivot_val;
        for j in 0..w {
            self.data[row * w + j] *= inv;
        }
        // Re-read the normalized pivot row once to avoid aliasing.
        let pivot_row: Vec<f64> = self.row(row).to_vec();
        for i in 0..self.m {
            if i == row {
                continue;
            }
            let factor = self.at(i, col);
            if factor.abs() <= EPS {
                continue;
            }
            for j in 0..w {
                self.data[i * w + j] -= factor * pivot_row[j];
            }
            self.data[i * w + col] = 0.0; // exact zero by construction
        }
        let factor = self.reduced[col];
        if factor.abs() > EPS {
            for (j, r) in self.reduced.iter_mut().enumerate() {
                *r -= factor * pivot_row[j];
            }
            self.objective += factor * pivot_row[self.cols];
            self.reduced[col] = 0.0;
        }
        self.in_basis[self.basis[row]] = false;
        self.in_basis[col] = true;
        self.basis[row] = col;
    }

    /// Recomputes the reduced-cost row and objective for cost vector `c`
    /// (dense over all columns).
    pub(crate) fn reprice(&mut self, c: &[f64]) {
        let mut reduced = c.to_vec();
        let mut objective = 0.0;
        for i in 0..self.m {
            let cb = c[self.basis[i]];
            if cb == 0.0 {
                continue;
            }
            objective += cb * self.rhs(i);
            let w = self.cols + 1;
            for j in 0..self.cols {
                reduced[j] -= cb * self.data[i * w + j];
            }
        }
        self.reduced = reduced;
        self.objective = objective;
    }

    /// Chooses the entering column: Dantzig by default, Bland when
    /// `bland` is set. Artificial columns never enter when
    /// `bar_artificial` is set. Returns `None` at optimality.
    pub(crate) fn entering(&self, bland: bool, bar_artificial: bool) -> Option<usize> {
        if bland {
            (0..self.cols).find(|&j| {
                !(self.in_basis[j] || bar_artificial && self.is_artificial[j])
                    && self.reduced[j] < -EPS
            })
        } else {
            let mut best: Option<(usize, f64)> = None;
            for j in 0..self.cols {
                if bar_artificial && self.is_artificial[j] {
                    continue;
                }
                let r = self.reduced[j];
                if !self.in_basis[j] && r < -EPS && best.is_none_or(|(_, br)| r < br) {
                    best = Some((j, r));
                }
            }
            best.map(|(j, _)| j)
        }
    }

    /// Ratio test for entering column `col`. Returns the leaving row, or
    /// `None` if the column is unbounded.
    ///
    /// Only entries above [`PIVOT_TOL`] qualify as pivots. Among rows
    /// whose ratios tie (within `EPS`), Bland mode picks the smallest
    /// basic column index (anti-cycling); otherwise the numerically
    /// largest pivot element wins, with a preference for expelling
    /// artificial columns.
    pub(crate) fn leaving(&self, col: usize, bland: bool) -> Option<usize> {
        let mut best: Option<(usize, f64, f64)> = None; // (row, ratio, pivot)
        for i in 0..self.m {
            let a = self.at(i, col);
            if a > PIVOT_TOL {
                let ratio = self.rhs(i).max(0.0) / a;
                let better = match best {
                    None => true,
                    Some((bi, br, bp)) => {
                        if ratio < br - EPS {
                            true
                        } else if ratio > br + EPS {
                            false
                        } else if bland {
                            self.basis[i] < self.basis[bi]
                        } else {
                            let bi_art = self.is_artificial[self.basis[bi]];
                            let i_art = self.is_artificial[self.basis[i]];
                            (i_art && !bi_art) || (i_art == bi_art && a > bp)
                        }
                    }
                };
                if better {
                    best = Some((i, ratio, a));
                }
            }
        }
        best.map(|(i, _, _)| i)
    }

    /// Rebuilds the tableau from the pristine matrix for the current
    /// basis via Gauss-Jordan with partial pivoting, then re-prices.
    /// Returns `false` (leaving the tableau untouched) if the basis
    /// matrix is numerically singular.
    pub(crate) fn refactor(&mut self, c: &[f64]) -> bool {
        let m = self.m;
        let w = self.cols + 1;
        // Augmented system [B | A b]: width m + w.
        let aw = m + w;
        let mut mat = vec![0.0; m * aw];
        for i in 0..m {
            for (bpos, &bcol) in self.basis.iter().enumerate() {
                mat[i * aw + bpos] = self.orig[i * w + bcol];
            }
            mat[i * aw + m..i * aw + m + w].copy_from_slice(&self.orig[i * w..(i + 1) * w]);
        }
        // Reduce the B block to the identity.
        for col in 0..m {
            let mut piv = col;
            let mut best = mat[col * aw + col].abs();
            for r in col + 1..m {
                let v = mat[r * aw + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-11 {
                return false;
            }
            if piv != col {
                for j in 0..aw {
                    mat.swap(col * aw + j, piv * aw + j);
                }
            }
            let inv = 1.0 / mat[col * aw + col];
            for j in 0..aw {
                mat[col * aw + j] *= inv;
            }
            let pivot_row: Vec<f64> = mat[col * aw..(col + 1) * aw].to_vec();
            for r in 0..m {
                if r == col {
                    continue;
                }
                let f = mat[r * aw + col];
                if f != 0.0 {
                    for j in 0..aw {
                        mat[r * aw + j] -= f * pivot_row[j];
                    }
                }
            }
        }
        // The B block is now exactly the identity, so row r carries
        // `e_r` in B-position r: its basic column is still `basis[r]`
        // (column r of B). Row swaps reordered intermediate states
        // only; the final correspondence is fixed by the identity.
        for i in 0..m {
            self.data[i * w..(i + 1) * w].copy_from_slice(&mat[i * aw + m..(i + 1) * aw]);
        }
        self.reprice(c);
        true
    }

    /// Runs simplex iterations until optimality, unboundedness, or the
    /// iteration limit. `c` is the active cost vector (needed for the
    /// periodic refactorization). Iterations, pivots, and
    /// refactorizations are tallied into `stats`; `phase1` selects
    /// which per-phase iteration counter they land in.
    pub(crate) fn optimize(
        &mut self,
        c: &[f64],
        bar_artificial: bool,
        stats: &mut SolveStats,
        phase1: bool,
    ) -> Result<(), LpError> {
        let budget = 200 * (self.m + self.cols) + 20_000;
        let bland_after = budget / 2;
        for iter in 0..budget {
            if iter > 0 && iter % REFACTOR_EVERY == 0 {
                self.refactor(c);
                stats.refactorizations += 1;
            }
            if phase1 {
                stats.phase1_iterations += 1;
            } else {
                stats.phase2_iterations += 1;
            }
            let bland = iter >= bland_after;
            let Some(col) = self.entering(bland, bar_artificial) else {
                return Ok(());
            };
            let Some(row) = self.leaving(col, bland) else {
                return Err(LpError::Unbounded);
            };
            self.pivot(row, col);
            stats.pivots += 1;
        }
        Err(LpError::IterationLimit)
    }

    /// Appends structural columns to a live tableau, keeping the
    /// current basis (and therefore primal feasibility) intact.
    ///
    /// `new_cols[c]` holds the *normalized* (row-flip applied) original
    /// coefficients of column `c`, dense over the `m` rows. `init_col`
    /// maps each row to its assembly-time identity column (slack for
    /// `≤`, artificial otherwise): since `orig[:, init_col[i]] = e_i`,
    /// the current `data[:, init_col[i]]` is column `i` of `B⁻¹`, which
    /// lets the basis representation `B⁻¹ a` of each new column be
    /// accumulated without factorizing anything.
    pub(crate) fn append_columns(&mut self, new_cols: &[Vec<f64>], init_col: &[usize]) {
        let b = new_cols.len();
        if b == 0 {
            return;
        }
        let m = self.m;
        let w = self.cols + 1;
        let nw = w + b;
        // Basis representation of each new column: B⁻¹ a.
        let mut rep = vec![0.0; m * b];
        for (c, a) in new_cols.iter().enumerate() {
            debug_assert_eq!(a.len(), m, "appended column must be dense over rows");
            for (i, &ai) in a.iter().enumerate() {
                if ai != 0.0 {
                    let col = init_col[i];
                    for r in 0..m {
                        rep[r * b + c] += ai * self.data[r * w + col];
                    }
                }
            }
        }
        // Widen the row-major stores: existing columns, new columns,
        // then rhs.
        let mut data = vec![0.0; m * nw];
        let mut orig = vec![0.0; m * nw];
        for i in 0..m {
            data[i * nw..i * nw + self.cols].copy_from_slice(&self.data[i * w..i * w + self.cols]);
            orig[i * nw..i * nw + self.cols].copy_from_slice(&self.orig[i * w..i * w + self.cols]);
            for c in 0..b {
                data[i * nw + self.cols + c] = rep[i * b + c];
                orig[i * nw + self.cols + c] = new_cols[c][i];
            }
            data[i * nw + nw - 1] = self.data[i * w + w - 1];
            orig[i * nw + nw - 1] = self.orig[i * w + w - 1];
        }
        self.data = data;
        self.orig = orig;
        self.cols += b;
        self.reduced.resize(self.cols, 0.0);
        self.in_basis.resize(self.cols, false);
        self.is_artificial.resize(self.cols, false);
    }
}

/// Normalized row data after sign-flipping to a non-negative rhs.
struct NormRow {
    coeffs: Vec<(usize, f64)>,
    relation: Relation,
    rhs: f64,
    flipped: bool,
}

/// An assembled tableau plus the row metadata needed for dual
/// extraction and column appends.
pub(crate) struct Assembly {
    pub(crate) t: Tableau,
    /// Per row, the column carrying `+e_i` at zero cost in `orig`
    /// (slack for `≤`, artificial for `=`/`≥`). Used both for dual
    /// extraction and to read `B⁻¹` out of the live tableau.
    pub(crate) ref_col: Vec<usize>,
    /// Whether each row was sign-flipped during normalization.
    pub(crate) flipped: Vec<bool>,
}

/// Normalizes `constraints` and assembles the initial tableau
/// (slack/artificial starting basis, perturbed homogeneous rows).
fn assemble(n: usize, constraints: &[Constraint]) -> Assembly {
    let rows: Vec<NormRow> = constraints
        .iter()
        .map(|c| {
            if c.rhs < 0.0 {
                NormRow {
                    coeffs: c.coeffs.iter().map(|&(i, v)| (i, -v)).collect(),
                    relation: match c.relation {
                        Relation::Le => Relation::Ge,
                        Relation::Eq => Relation::Eq,
                        Relation::Ge => Relation::Le,
                    },
                    rhs: -c.rhs,
                    flipped: true,
                }
            } else {
                NormRow {
                    coeffs: c.coeffs.clone(),
                    relation: c.relation,
                    rhs: c.rhs,
                    flipped: false,
                }
            }
        })
        .collect();
    let m = rows.len();

    // Column layout: structural | slack/surplus | artificial.
    let mut slack_col = vec![usize::MAX; m];
    let mut next = n;
    for (i, r) in rows.iter().enumerate() {
        if !matches!(r.relation, Relation::Eq) {
            slack_col[i] = next;
            next += 1;
        }
    }
    let first_artificial = next;
    let mut art_col = vec![usize::MAX; m];
    for (i, r) in rows.iter().enumerate() {
        if !matches!(r.relation, Relation::Le) {
            art_col[i] = next;
            next += 1;
        }
    }
    let cols = next;

    // Assemble the tableau.
    let w = cols + 1;
    let mut data = vec![0.0; m * w];
    let mut basis = vec![0usize; m];
    for (i, r) in rows.iter().enumerate() {
        for &(j, v) in &r.coeffs {
            data[i * w + j] += v;
        }
        match r.relation {
            Relation::Le => {
                data[i * w + slack_col[i]] = 1.0;
                basis[i] = slack_col[i];
            }
            Relation::Ge => {
                data[i * w + slack_col[i]] = -1.0;
                data[i * w + art_col[i]] = 1.0;
                basis[i] = art_col[i];
            }
            Relation::Eq => {
                data[i * w + art_col[i]] = 1.0;
                basis[i] = art_col[i];
            }
        }
        // Perturb homogeneous inequality rows towards the interior
        // (see PERTURB above); equality rows and rows with structural
        // rhs stay exact so that consistent equality systems remain
        // exactly feasible. Kept positive so rhs stays ≥ 0 for phase 1.
        let perturb = if r.rhs == 0.0 && !matches!(r.relation, Relation::Eq) {
            PERTURB * (i + 1) as f64
        } else {
            0.0
        };
        data[i * w + cols] = r.rhs + perturb;
    }
    let mut in_basis = vec![false; cols];
    for &b in &basis {
        in_basis[b] = true;
    }
    let mut is_artificial = vec![false; cols];
    for a in is_artificial.iter_mut().skip(first_artificial) {
        *a = true;
    }
    let t = Tableau {
        m,
        cols,
        orig: data.clone(),
        data,
        reduced: vec![0.0; cols],
        objective: 0.0,
        basis,
        in_basis,
        is_artificial,
        n_artificial: cols - first_artificial,
    };
    let ref_col: Vec<usize> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| match r.relation {
            Relation::Le => slack_col[i],
            _ => art_col[i],
        })
        .collect();
    let flipped: Vec<bool> = rows.iter().map(|r| r.flipped).collect();
    Assembly {
        t,
        ref_col,
        flipped,
    }
}

/// Phase 1: minimizes the sum of artificials from the slack/artificial
/// starting basis, then drives remaining basic artificials out where
/// possible. Call only when the tableau has artificial columns.
fn run_phase1(t: &mut Tableau, stats: &mut SolveStats) -> Result<(), LpError> {
    let mut c1 = vec![0.0; t.cols];
    for (j, c) in c1.iter_mut().enumerate() {
        if t.is_artificial[j] {
            *c = 1.0;
        }
    }
    t.reprice(&c1);
    t.optimize(&c1, false, stats, true)?;
    if t.objective > FEAS_TOL {
        return Err(LpError::Infeasible);
    }
    // Drive basic artificials out of the basis where possible.
    for i in 0..t.m {
        if t.is_artificial[t.basis[i]] {
            if let Some(j) = (0..t.cols).find(|&j| !t.is_artificial[j] && t.at(i, j).abs() > 1e-7) {
                t.pivot(i, j);
                stats.pivots += 1;
            }
            // Otherwise the row is redundant; the artificial stays
            // basic at value zero and is barred from re-entering.
        }
    }
    Ok(())
}

/// Phase 2: re-prices with the true objective `c` (from a freshly
/// refactorized basis when possible) and optimizes to the minimum.
fn run_phase2(t: &mut Tableau, c: &[f64], stats: &mut SolveStats) -> Result<(), LpError> {
    if t.refactor(c) {
        stats.refactorizations += 1;
    } else {
        t.reprice(c);
    }
    t.optimize(c, true, stats, false)
}

/// Canonicalizes an optimal tableau: refactorizes the final basis so
/// the reported numbers are a pure function of `(orig, basis, c)` —
/// independent of the pivot path that reached the basis. If the cleaned
/// reduced costs re-expose an improving column (round-off was hiding
/// it), optimization resumes, bounded to a few rounds.
///
/// This is what lets a warm-started resolve and a cold solve that land
/// on the same optimal basis return bit-identical solutions.
pub(crate) fn canonical_finish(
    t: &mut Tableau,
    c: &[f64],
    stats: &mut SolveStats,
) -> Result<(), LpError> {
    for _ in 0..5 {
        if !t.refactor(c) {
            // Numerically singular basis: keep the pivoted data.
            return Ok(());
        }
        stats.refactorizations += 1;
        if t.entering(false, true).is_none() {
            return Ok(());
        }
        t.optimize(c, true, stats, false)?;
    }
    Ok(())
}

/// Reads the solution out of an optimized tableau. `col_to_var` maps a
/// tableau column back to its structural variable (identity for plain
/// solves; splices appended columns for the incremental engine).
pub(crate) fn extract_solution(
    t: &Tableau,
    ref_col: &[usize],
    flipped: &[bool],
    n_vars: usize,
    col_to_var: impl Fn(usize) -> Option<usize>,
) -> Solution {
    let mut x = vec![0.0; n_vars];
    for i in 0..t.m {
        if let Some(v) = col_to_var(t.basis[i]) {
            x[v] = t.rhs(i);
        }
    }
    // Duals: y_i = −r(reference column of row i) where the reference
    // column has +e_i and zero cost; flip back rows normalized during
    // assembly.
    let mut duals = vec![0.0; t.m];
    for i in 0..t.m {
        let y = -t.reduced[ref_col[i]];
        duals[i] = if flipped[i] { -y } else { y };
    }
    Solution {
        objective: t.objective,
        x,
        duals,
    }
}

/// The cold two-phase pipeline: assemble the slack/artificial basis,
/// run phase 1 when the program has artificial columns, optimize the
/// true objective, finish canonically and extract the solution.
/// Returns the solution with its optimal tableau, which
/// [`IncrementalLp`](crate::IncrementalLp) keeps as warm state and
/// [`LinearProgram::solve`] drops. Tallies into `stats`; flushing is
/// the caller's.
pub(crate) fn solve_cold(
    lp: &LinearProgram,
    stats: &mut SolveStats,
) -> Result<(Solution, Assembly), LpError> {
    let n = lp.n_vars();
    let mut a = assemble(n, lp.constraints());
    if a.t.has_artificials() {
        run_phase1(&mut a.t, stats)?;
    }
    let mut c = vec![0.0; a.t.cols];
    c[..n].copy_from_slice(lp.objective());
    run_phase2(&mut a.t, &c, stats)?;
    canonical_finish(&mut a.t, &c, stats)?;
    let sol = extract_solution(&a.t, &a.ref_col, &a.flipped, n, |j| (j < n).then_some(j));
    Ok((sol, a))
}

#[cfg(test)]
mod tests {
    use crate::problem::{LinearProgram, Relation};
    use crate::LpError;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    #[test]
    fn simple_le_problem() {
        // min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
        // Classic Hillier example: optimum -36 at (2, 6).
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, -3.0), (1, -5.0)]).unwrap();
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0).unwrap();
        lp.add_constraint(&[(1, 2.0)], Relation::Le, 12.0).unwrap();
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert_close(s.objective, -36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
    }

    #[test]
    fn equality_constraints_need_phase_one() {
        // min x + y s.t. x + y = 2, x - y = 0 → x = y = 1, obj 2.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, 1.0), (1, 1.0)]).unwrap();
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 2.0)
            .unwrap();
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Eq, 0.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert_close(s.objective, 2.0);
        assert_close(s.x[0], 1.0);
        assert_close(s.x[1], 1.0);
    }

    #[test]
    fn ge_constraints() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 → (4, 0)? check: obj 8 at
        // (4,0); (1,3) gives 11. Optimum 8.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, 2.0), (1, 3.0)]).unwrap();
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 4.0)
            .unwrap();
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 1.0).unwrap();
        let s = lp.solve().unwrap();
        assert_close(s.objective, 8.0);
        assert_close(s.x[0], 4.0);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // x - y <= -1 with min x (x,y>=0) → x=0, y>=1 feasible, obj 0.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, 1.0)]).unwrap();
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Le, -1.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert_close(s.objective, 0.0);
        assert!(s.x[1] >= 1.0 - 1e-9);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = LinearProgram::new(1);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 1.0).unwrap();
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 2.0).unwrap();
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[(0, -1.0)]).unwrap();
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 0.0).unwrap();
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn zero_objective_returns_feasible_point() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 1.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert_close(s.objective, 0.0);
        assert_close(s.x[0] + s.x[1], 1.0);
    }

    #[test]
    fn duals_satisfy_strong_duality_le() {
        // Strong duality: c'x* = y'b at the optimum.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, -3.0), (1, -5.0)]).unwrap();
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0).unwrap();
        lp.add_constraint(&[(1, 2.0)], Relation::Le, 12.0).unwrap();
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0)
            .unwrap();
        let s = lp.solve().unwrap();
        let yb: f64 = s.duals[0] * 4.0 + s.duals[1] * 12.0 + s.duals[2] * 18.0;
        assert_close(yb, s.objective);
        // Minimization with ≤ rows: duals are non-positive.
        for &y in &s.duals {
            assert!(y <= 1e-9);
        }
    }

    #[test]
    fn duals_satisfy_strong_duality_mixed() {
        // min 2x + 3y + z s.t. x + y + z = 3, x - y >= 1, z <= 1.
        let mut lp = LinearProgram::new(3);
        lp.set_objective(&[(0, 2.0), (1, 3.0), (2, 1.0)]).unwrap();
        lp.add_constraint(&[(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Eq, 3.0)
            .unwrap();
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Ge, 1.0)
            .unwrap();
        lp.add_constraint(&[(2, 1.0)], Relation::Le, 1.0).unwrap();
        let s = lp.solve().unwrap();
        let yb = s.duals[0] * 3.0 + s.duals[1] * 1.0 + s.duals[2] * 1.0;
        assert_close(yb, s.objective);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Klee-Minty-flavoured degenerate rows: many redundant copies.
        let mut lp = LinearProgram::new(3);
        lp.set_objective(&[(0, -1.0), (1, -1.0), (2, -1.0)])
            .unwrap();
        for _ in 0..5 {
            lp.add_constraint(&[(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Le, 1.0)
                .unwrap();
        }
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 1.0).unwrap();
        let s = lp.solve().unwrap();
        assert_close(s.objective, -1.0);
    }

    #[test]
    fn redundant_equality_rows_are_tolerated() {
        // Same equality twice: phase 1 leaves one artificial basic at 0.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, 1.0), (1, 2.0)]).unwrap();
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 1.0)
            .unwrap();
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 1.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert_close(s.objective, 1.0);
        assert_close(s.x[0], 1.0);
    }

    #[test]
    fn no_constraints_zero_objective() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, 5.0)]).unwrap();
        let s = lp.solve().unwrap();
        // min 5x with x >= 0 and nothing else: x = 0.
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn transportation_problem() {
        // 2 supplies (10, 20), 2 demands (15, 15), costs [[1,4],[2,1]].
        // Variables x00 x01 x10 x11. Optimum: x00=10, x10=5, x11=15 →
        // 10*1 + 5*2 + 15*1 = 35.
        let mut lp = LinearProgram::new(4);
        lp.set_objective(&[(0, 1.0), (1, 4.0), (2, 2.0), (3, 1.0)])
            .unwrap();
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 10.0)
            .unwrap();
        lp.add_constraint(&[(2, 1.0), (3, 1.0)], Relation::Eq, 20.0)
            .unwrap();
        lp.add_constraint(&[(0, 1.0), (2, 1.0)], Relation::Eq, 15.0)
            .unwrap();
        lp.add_constraint(&[(1, 1.0), (3, 1.0)], Relation::Eq, 15.0)
            .unwrap();
        let s = lp.solve().unwrap();
        assert_close(s.objective, 35.0);
    }
}
