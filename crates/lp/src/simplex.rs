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
//!
//! The dense tableau is the only dense array. The assembled matrix
//! `A` stays sparse, one row per constraint, and refactorization reads
//! it from there: a basic column that is its row's assembly identity
//! column (a `≤` row's slack, an `=` or `≥` row's artificial) is `e_r`
//! in `A` and needs no factoring, so only the `s × s` kernel of the
//! other basic columns goes through Gauss–Jordan, and every other row
//! of `B⁻¹A` follows by sparse elimination (see [`Tableau::refactor`]).

// Dense numeric kernels below index several parallel arrays in one
// loop; iterator rewrites would obscure the linear-algebra intent.
#![allow(clippy::needless_range_loop)]

use crate::error::LpError;
use crate::problem::{Constraint, LinearProgram, Relation, Solution};

/// Telemetry metric names recorded by this module (via
/// [`vlp_obs::global`]), declared in [`vlp_obs::schema::lpsolve`].
/// Counted locally in the pivot loop and flushed once per solve, so
/// instrumentation adds no per-pivot locking.
pub mod metrics {
    pub use vlp_obs::schema::lpsolve::*;
}

/// Per-solve event tallies, flushed to the global registry at the end
/// of each solve.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SolveStats {
    pub(crate) pivots: u64,
    pub(crate) refactorizations: u64,
    pub(crate) refactor_work: u64,
    pub(crate) phase1_iterations: u64,
    pub(crate) phase2_iterations: u64,
}

impl SolveStats {
    pub(crate) fn flush(&self) {
        let reg = vlp_obs::global();
        reg.incr(metrics::SOLVES, 1);
        reg.incr(metrics::PIVOTS, self.pivots);
        reg.incr(metrics::REFACTORIZATIONS, self.refactorizations);
        reg.incr(metrics::REFACTOR_WORK, self.refactor_work);
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
/// Refactorize (rebuild the tableau from the assembled rows for the
/// current basis, see [`Tableau::refactor`]) every this many pivots to
/// purge accumulated floating-point drift.
const REFACTOR_EVERY: usize = 150;

/// Pivot magnitude below which refactorization declares the basis
/// numerically singular.
const SINGULAR_TOL: f64 = 1e-11;

/// One row of the assembled matrix, kept sparse.
#[derive(Debug, Clone)]
struct AssembledRow {
    /// Nonzero `(column, coefficient)` entries in column order: the
    /// normalized structural coefficients, the row's slack, surplus or
    /// artificial entry, then the entries of appended columns.
    entries: Vec<(usize, f64)>,
    /// Normalized, perturbed right-hand side.
    rhs: f64,
}

impl AssembledRow {
    /// The nonzeros of a dense assembled row (`rhs` last).
    fn from_dense(row: &[f64]) -> Self {
        let (rhs, coeffs) = row.split_last().expect("a row has an rhs entry");
        let entries = coeffs
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0.0)
            .map(|(j, &v)| (j, v))
            .collect();
        AssembledRow { entries, rhs: *rhs }
    }

    /// Writes the row into a dense row that is zero on entry (`rhs`
    /// last).
    fn scatter(&self, dst: &mut [f64]) {
        for &(j, v) in &self.entries {
            dst[j] = v;
        }
        *dst.last_mut().expect("a row has an rhs entry") = self.rhs;
    }
}

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
    /// The assembled matrix `A` (basis = identity on the initial
    /// slack/artificial columns), one sparse row per constraint;
    /// refactorization rebuilds `data` from it. Appended columns add
    /// their normalized entries to it.
    assembled: Vec<AssembledRow>,
    /// Per row, the column carrying `+e_i` at zero cost in `A` (slack
    /// for `≤`, artificial for `=`/`≥`): its assembly identity column.
    /// Used for dual extraction, to read `B⁻¹` out of the live
    /// tableau, and to find the basis kernel.
    ref_col: Vec<usize>,
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

    /// Rebuilds the tableau `B⁻¹A` for the current basis from the
    /// assembled rows, then re-prices; tallies the refactorization and
    /// its work (`m·s`) into `stats`. Returns `false` (leaving the
    /// tableau untouched) if the basis matrix is numerically singular.
    ///
    /// A basic column that is row `r`'s identity column (`ref_col[r]`)
    /// *covers* row `r`. The other basic columns are the *kernel*
    /// columns, and the rows left uncovered are the kernel rows; each
    /// covered row owns one identity position, so there are `s` of
    /// each. Ordering rows kernel-first and positions kernel-first,
    /// `B = [[K, 0], [C, I]]`, so
    ///
    /// * the kernel positions of `B⁻¹A` are `K⁻¹ A_kernel`, found by
    ///   Gauss–Jordan with partial pivoting on `[K | A_kernel rows]`
    ///   (`K`'s columns in basis order, its rows in row order);
    /// * a covered row's position is its assembled row minus, for each
    ///   of its entries in a kernel column, that entry times the
    ///   kernel column's row of `B⁻¹A`.
    ///
    /// This costs `O(s²·(s + w) + (m − s)·e·w)` for tableau width `w`
    /// and `e` kernel entries per covered row. With no identity column
    /// basic (`s = m`) it is the Gauss–Jordan of the whole basis,
    /// operation for operation. The result is a pure function of the
    /// program, the ordered basis and `c`.
    pub(crate) fn refactor(&mut self, c: &[f64], stats: &mut SolveStats) -> bool {
        let m = self.m;
        let w = self.cols + 1;
        let mut pos = vec![usize::MAX; self.cols];
        for (p, &b) in self.basis.iter().enumerate() {
            pos[b] = p;
        }
        let mut identity_pos = vec![false; m];
        let mut kernel_rows = Vec::new();
        for (r, &col) in self.ref_col.iter().enumerate() {
            match pos[col] {
                usize::MAX => kernel_rows.push(r),
                p => identity_pos[p] = true,
            }
        }
        let kernel_pos: Vec<usize> = (0..m).filter(|&p| !identity_pos[p]).collect();
        let s = kernel_pos.len();
        // Augmented kernel system [K | A_kernel b]: width s + w.
        let aw = s + w;
        let mut mat = vec![0.0; s * aw];
        for (row, &r) in mat.chunks_exact_mut(aw).zip(&kernel_rows) {
            self.assembled[r].scatter(&mut row[s..]);
            for (j, &p) in kernel_pos.iter().enumerate() {
                row[j] = row[s + self.basis[p]];
            }
        }
        // Reduce K to the identity. Columns left of `col` are never
        // read again, so row operations start right of it.
        let mut pivot_row = Vec::with_capacity(aw);
        for col in 0..s {
            let mut piv = col;
            let mut best = mat[col * aw + col].abs();
            for r in col + 1..s {
                let v = mat[r * aw + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < SINGULAR_TOL {
                return false;
            }
            if piv != col {
                for j in col..aw {
                    mat.swap(col * aw + j, piv * aw + j);
                }
            }
            let inv = 1.0 / mat[col * aw + col];
            pivot_row.clear();
            pivot_row.extend(
                mat[col * aw + col + 1..(col + 1) * aw]
                    .iter()
                    .map(|v| v * inv),
            );
            mat[col * aw + col + 1..(col + 1) * aw].copy_from_slice(&pivot_row);
            for r in 0..s {
                if r == col {
                    continue;
                }
                let f = mat[r * aw + col];
                if f != 0.0 {
                    for (x, &p) in mat[r * aw + col + 1..(r + 1) * aw]
                        .iter_mut()
                        .zip(&pivot_row)
                    {
                        *x -= f * p;
                    }
                }
            }
        }
        // K is now the identity, so row i carries kernel position
        // `kernel_pos[i]`; row swaps reordered intermediate states only.
        let mut kernel_of = vec![usize::MAX; m];
        for (i, &p) in kernel_pos.iter().enumerate() {
            kernel_of[p] = i;
            self.data[p * w..(p + 1) * w].copy_from_slice(&mat[i * aw + s..(i + 1) * aw]);
        }
        for (r, row) in self.assembled.iter().enumerate() {
            let own = self.ref_col[r];
            let p = pos[own];
            if p == usize::MAX {
                continue;
            }
            let dst = &mut self.data[p * w..(p + 1) * w];
            dst.fill(0.0);
            row.scatter(dst);
            // A basic column other than the row's own identity column
            // is a kernel column: another row's identity column has no
            // entry here.
            for &(j, v) in &row.entries {
                if j == own || pos[j] == usize::MAX {
                    continue;
                }
                let i = kernel_of[pos[j]];
                for (x, &k) in dst.iter_mut().zip(&mat[i * aw + s..(i + 1) * aw]) {
                    *x -= v * k;
                }
            }
        }
        stats.refactorizations += 1;
        stats.refactor_work += (m * s) as u64;
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
                self.refactor(c, stats);
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
    /// coefficients of column `c`, dense over the `m` rows; its nonzeros
    /// join the assembled rows. Since `A[:, ref_col[i]] = e_i`, the
    /// current `data[:, ref_col[i]]` is column `i` of `B⁻¹`, which lets
    /// the basis representation `B⁻¹ a` of each new column be
    /// accumulated without factorizing anything.
    pub(crate) fn append_columns(&mut self, new_cols: &[Vec<f64>]) {
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
                    let col = self.ref_col[i];
                    for r in 0..m {
                        rep[r * b + c] += ai * self.data[r * w + col];
                    }
                }
            }
        }
        // Widen the row-major data: existing columns, new columns,
        // then rhs.
        let mut data = vec![0.0; m * nw];
        for i in 0..m {
            data[i * nw..i * nw + self.cols].copy_from_slice(&self.data[i * w..i * w + self.cols]);
            data[i * nw + self.cols..i * nw + nw - 1].copy_from_slice(&rep[i * b..(i + 1) * b]);
            data[i * nw + nw - 1] = self.data[i * w + w - 1];
        }
        for (i, row) in self.assembled.iter_mut().enumerate() {
            for (c, a) in new_cols.iter().enumerate() {
                if a[i] != 0.0 {
                    row.entries.push((self.cols + c, a[i]));
                }
            }
        }
        self.data = data;
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
        assembled: data.chunks_exact(w).map(AssembledRow::from_dense).collect(),
        // The starting basis is each row's identity column.
        ref_col: basis.clone(),
        data,
        reduced: vec![0.0; cols],
        objective: 0.0,
        basis,
        in_basis,
        is_artificial,
        n_artificial: cols - first_artificial,
    };
    let flipped: Vec<bool> = rows.iter().map(|r| r.flipped).collect();
    Assembly { t, flipped }
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
    if !t.refactor(c, stats) {
        t.reprice(c);
    }
    t.optimize(c, true, stats, false)
}

/// Canonicalizes an optimal tableau: refactorizes the final basis so
/// the reported numbers are a pure function of `(A, basis, c)` —
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
        if !t.refactor(c, stats) {
            // Numerically singular basis: keep the pivoted data.
            return Ok(());
        }
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
        let y = -t.reduced[t.ref_col[i]];
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
    let sol = extract_solution(&a.t, &a.flipped, n, |j| (j < n).then_some(j));
    Ok((sol, a))
}

#[cfg(test)]
mod tests {
    use super::{assemble, SolveStats, Tableau, SINGULAR_TOL};
    use crate::problem::{Constraint, LinearProgram, Relation};
    use crate::LpError;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    /// The full-basis Gauss–Jordan refactorization on the dense
    /// assembled matrix: the reference the kernel refactorization is
    /// checked against. Same contract as [`Tableau::refactor`].
    fn dense_refactor(t: &mut Tableau, c: &[f64]) -> bool {
        let m = t.m;
        let w = t.cols + 1;
        let aw = m + w;
        let mut orig = vec![0.0; m * w];
        for (row, a) in orig.chunks_exact_mut(w).zip(&t.assembled) {
            a.scatter(row);
        }
        let mut mat = vec![0.0; m * aw];
        for i in 0..m {
            for (bpos, &bcol) in t.basis.iter().enumerate() {
                mat[i * aw + bpos] = orig[i * w + bcol];
            }
            mat[i * aw + m..(i + 1) * aw].copy_from_slice(&orig[i * w..(i + 1) * w]);
        }
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
            if best < SINGULAR_TOL {
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
                let f = mat[r * aw + col];
                if r != col && f != 0.0 {
                    for j in 0..aw {
                        mat[r * aw + j] -= f * pivot_row[j];
                    }
                }
            }
        }
        for i in 0..m {
            t.data[i * w..(i + 1) * w].copy_from_slice(&mat[i * aw + m..(i + 1) * aw]);
        }
        t.reprice(c);
        true
    }

    fn row(coeffs: &[f64], relation: Relation, rhs: f64) -> Constraint {
        Constraint {
            coeffs: coeffs.iter().copied().enumerate().collect(),
            relation,
            rhs,
        }
    }

    /// Pivots on `(row, col)` for each `(row, col)` seed in `moves`
    /// whose column is non-basic and whose entry is well away from
    /// zero, so the bases reached stay well conditioned.
    fn random_pivots(t: &mut Tableau, moves: &[(usize, usize)]) {
        for &(r, j) in moves {
            let (r, j) = (r % t.m, j % t.cols);
            if !t.in_basis[j] && t.at(r, j).abs() > 0.25 {
                t.pivot(r, j);
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Refactors `t` both ways; asserts both succeed and agree within
    /// 1e-9 relative on every tableau entry, reduced cost and the
    /// objective.
    fn check_against_dense(t: &Tableau, c: &[f64]) -> Result<(), proptest::TestCaseError> {
        let (mut kernel, mut dense) = (t.clone(), t.clone());
        prop_assert!(kernel.refactor(c, &mut SolveStats::default()));
        prop_assert!(dense_refactor(&mut dense, c));
        prop_assert_eq!(&kernel.basis, &dense.basis);
        let pairs = kernel
            .data
            .iter()
            .zip(&dense.data)
            .chain(kernel.reduced.iter().zip(&dense.reduced))
            .chain([(&kernel.objective, &dense.objective)]);
        for (idx, (&a, &b)) in pairs.enumerate() {
            let scale = a.abs().max(b.abs()).max(1.0);
            prop_assert!((a - b).abs() <= 1e-9 * scale, "entry {idx}: {a} vs {b}");
        }
        Ok(())
    }

    fn relation(code: u8) -> Relation {
        match code {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        }
    }

    proptest! {
        /// The kernel refactorization matches the full-basis
        /// Gauss–Jordan on bases reached by random pivots, before and
        /// after columns are appended.
        #[test]
        fn kernel_refactor_matches_dense_reference(
            n in 2usize..6,
            rows in prop::collection::vec(
                (prop::collection::vec(-3.0f64..3.0, 5), 0u8..3, -4.0f64..4.0),
                1..7,
            ),
            moves in prop::collection::vec((0usize..64, 0usize..64), 0..12),
            appended in prop::collection::vec(prop::collection::vec(-3.0f64..3.0, 7), 0..3),
            later in prop::collection::vec((0usize..64, 0usize..64), 0..8),
            costs in prop::collection::vec(-5.0f64..5.0, 24),
        ) {
            // `≤`, `≥` and `=` rows with rhs of both signs (negative
            // ones are flipped at assembly).
            let constraints: Vec<Constraint> = rows
                .iter()
                .map(|(coeffs, code, rhs)| row(&coeffs[..n], relation(*code), *rhs))
                .collect();
            let mut a = assemble(n, &constraints);
            let t = &mut a.t;
            random_pivots(t, &moves);
            let c = |t: &Tableau| costs.iter().cycle().take(t.cols).copied().collect::<Vec<_>>();
            check_against_dense(t, &c(t))?;
            let m = t.m;
            let new_cols: Vec<Vec<f64>> = appended.iter().map(|col| col[..m].to_vec()).collect();
            t.append_columns(&new_cols);
            random_pivots(t, &later);
            check_against_dense(t, &c(t))?;
        }
    }

    #[test]
    fn identity_basis_reproduces_the_assembled_rows() {
        // s = 0: every basic column is its row's identity column.
        let constraints = [
            row(&[1.0, -2.0, 0.5], Relation::Le, 3.0),
            row(&[2.0, 1.0, 0.0], Relation::Ge, 1.0),
            row(&[1.0, 1.0, 1.0], Relation::Eq, 2.0),
            row(&[-1.0, 4.0, 0.0], Relation::Le, -1.0),
            row(&[0.0, 3.0, -1.0], Relation::Le, 0.0),
        ];
        let mut t = assemble(3, &constraints).t;
        t.append_columns(&[vec![1.5, 0.0, -2.0, 1.0, 0.25]]);
        let before = t.data.clone();
        let c: Vec<f64> = (0..t.cols).map(|j| j as f64 - 2.0).collect();
        let mut stats = SolveStats::default();
        assert!(t.refactor(&c, &mut stats));
        assert_eq!(bits(&t.data), bits(&before));
        assert_eq!((stats.refactorizations, stats.refactor_work), (1, 0));
    }

    #[test]
    fn basis_without_identity_columns_matches_reference_bit_for_bit() {
        // s = m: pivot a structural column into every row.
        let constraints = [
            row(&[2.0, 1.0, 0.5], Relation::Le, 4.0),
            row(&[1.0, 3.0, -1.0], Relation::Ge, 1.0),
            row(&[0.5, -1.0, 2.0], Relation::Eq, 2.0),
        ];
        let mut t = assemble(3, &constraints).t;
        for r in 0..3 {
            let j = (0..3)
                .filter(|&j| !t.in_basis[j])
                .max_by(|&a, &b| t.at(r, a).abs().total_cmp(&t.at(r, b).abs()))
                .unwrap();
            t.pivot(r, j);
        }
        assert!(t.basis.iter().all(|&b| b < 3), "basis {:?}", t.basis);
        let c: Vec<f64> = (0..t.cols).map(|j| 1.0 + j as f64 * 0.3).collect();
        let mut stats = SolveStats::default();
        let mut dense = t.clone();
        assert!(t.refactor(&c, &mut stats));
        assert!(dense_refactor(&mut dense, &c));
        assert_eq!(bits(&t.data), bits(&dense.data));
        assert_eq!(bits(&t.reduced), bits(&dense.reduced));
        assert_eq!(t.objective.to_bits(), dense.objective.to_bits());
        assert_eq!(stats.refactor_work, 9);
    }

    #[test]
    fn singular_kernel_leaves_the_tableau_untouched() {
        // Columns 0 and 1 are equal, so a basis holding both is
        // singular.
        let constraints = [
            row(&[1.0, 1.0, 2.0], Relation::Le, 4.0),
            row(&[2.0, 2.0, -1.0], Relation::Le, 3.0),
            row(&[0.0, 0.0, 1.0], Relation::Le, 1.0),
        ];
        let mut t = assemble(3, &constraints).t;
        t.pivot(0, 0);
        let c = vec![1.0; t.cols];
        t.reprice(&c);
        // Force the singular basis by hand.
        let out = t.basis[1];
        t.in_basis[out] = false;
        t.in_basis[1] = true;
        t.basis[1] = 1;
        let before = t.clone();
        let mut stats = SolveStats::default();
        assert!(!t.refactor(&c, &mut stats));
        assert_eq!(bits(&t.data), bits(&before.data));
        assert_eq!(t.basis, before.basis);
        assert_eq!(t.in_basis, before.in_basis);
        assert_eq!(bits(&t.reduced), bits(&before.reduced));
        assert_eq!(t.objective.to_bits(), before.objective.to_bits());
        assert_eq!((stats.refactorizations, stats.refactor_work), (0, 0));
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
