//! A dense two-phase simplex linear-programming solver.
//!
//! The VLP workspace needs an LP solver that exposes **both primal
//! solutions and dual values**: the Dantzig-Wolfe column-generation
//! algorithm of §4.3 prices new columns against the duals of the
//! restricted master program. Mature Rust LP crates are thin on dual
//! extraction, so this crate implements the classic textbook machinery
//! from scratch:
//!
//! * [`LinearProgram`] — the one problem type: a small modelling API
//!   (minimization, non-negative variables, `≤ / = / ≥` constraints)
//!   with a one-shot [`LinearProgram::solve`];
//! * [`IncrementalLp`] — the warm engine column generation runs on: it
//!   holds a `LinearProgram` plus the tableau it keeps across solves,
//!   so objective changes re-price the previous basis and appended
//!   columns price in without a new phase 1;
//! * a dense tableau simplex with Dantzig pricing and a Bland-rule
//!   fallback for anti-cycling;
//! * two phases: artificial variables establish feasibility, then the
//!   true objective is optimized — one cold pipeline serves both
//!   types;
//! * [`Solution`] carries the optimum, the primal point, and one dual
//!   value per constraint.
//!
//! The solver targets the problem sizes that arise in this workspace
//! (up to a few thousand rows/columns, dense arithmetic); it is not a
//! general sparse industrial solver.
//!
//! # Example
//!
//! ```
//! use lpsolve::{LinearProgram, Relation};
//!
//! // min -x0 - 2*x1  s.t.  x0 + x1 <= 4,  x1 <= 3,  x >= 0.
//! let mut lp = LinearProgram::new(2);
//! lp.set_objective(&[(0, -1.0), (1, -2.0)])?;
//! lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 4.0)?;
//! lp.add_constraint(&[(1, 1.0)], Relation::Le, 3.0)?;
//! let sol = lp.solve()?;
//! assert!((sol.objective - (-7.0)).abs() < 1e-9);
//! assert!((sol.x[0] - 1.0).abs() < 1e-9);
//! assert!((sol.x[1] - 3.0).abs() < 1e-9);
//! # Ok::<(), lpsolve::LpError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod error;
mod incremental;
mod problem;
mod simplex;

pub use error::LpError;
pub use incremental::{ColumnSpec, IncrementalLp, ResolveStats};
pub use problem::{Constraint, LinearProgram, Relation, Solution};
pub use simplex::metrics;
