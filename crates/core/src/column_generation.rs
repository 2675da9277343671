//! Dantzig-Wolfe decomposition and column generation for D-VLP (§4.3).
//!
//! The D-VLP constraint matrix is block-angular: the Geo-I constraints
//! act independently on each column `z_l` of the obfuscation matrix,
//! and only the probability-unit-measure rows couple the columns. Each
//! block polyhedron
//!
//! ```text
//! Λ_l = { z ∈ R^K : z_i ≤ e^{ε·dist} z_{i'} (per privacy pair), 0 ≤ z ≤ 1 }
//! ```
//!
//! is a polytope (the paper's cone, boxed by the valid bound `z ≤ 1` so
//! that it has informative extreme points), and any `z_l ∈ Λ_l` is a
//! convex combination of extreme points. The master program optimizes
//! over combination weights `λ`; pricing subproblems — one per block,
//! solved in parallel — search each `Λ_l` for an extreme point with
//! negative reduced cost (Proposition 4.3).
//!
//! Following §4.3.3, the iteration stops early once
//! `min_l ζ_l ≥ ξ` for a small negative threshold `ξ`, trading a
//! bounded amount of optimality for a large reduction in iterations
//! (Fig. 13(c)(d)); each iteration also yields the dual lower bound of
//! Theorem 4.4, reported in [`CgDiagnostics`].
//!
//! # Warm-started solver state
//!
//! The LP structure barely changes across iterations: every pricing
//! polytope `Λ_l` is *fixed* (only the objective `c_l − π` moves), and
//! the restricted master only ever *gains* columns. Each LP is
//! therefore built once per run as a [`LinearProgram`]: the pricing
//! polytope (shared by every block) by `pricing_program`, the
//! restricted master over the seeded pool by `master_program`.
//!
//! With `warm_start: true` (the default) the loop turns those programs
//! into persistent [`IncrementalLp`]s, one per pricing block plus one
//! for the master: pricing resolves re-price the previous optimal basis
//! instead of re-pivoting from the slack basis, and master resolves
//! skip phase 1 entirely after the first solve (appended columns enter
//! non-basic, so the old basis stays feasible). `warm_start: false` is
//! the cold reference: every master is rebuilt from the pool and every
//! pricing LP is a clone of the polytope with its objective set, each
//! solved by [`LinearProgram::solve`] — the baseline the warm engine is
//! tested against bit for bit. Pricing fans the `K` blocks out over
//! threads in both modes; block `l` always runs in slot `l`, so results
//! do not depend on the thread count.

use std::time::{Duration, Instant};

use lpsolve::{ColumnSpec, IncrementalLp, LinearProgram, Relation, ResolveStats};

/// Telemetry metric names recorded by this module into
/// [`vlp_obs::global`], declared in [`vlp_obs::schema::cg`].
pub mod metrics {
    pub use vlp_obs::schema::cg::*;
}

use crate::cost::CostMatrix;
use crate::error::VlpError;
use crate::fan_out;
use crate::mechanism::Mechanism;
use crate::privacy::PrivacySpec;

/// Tuning knobs for column generation.
#[derive(Debug, Clone)]
pub struct CgOptions {
    /// Early-stopping threshold `ξ ≤ 0`: the loop ends once
    /// `min_l ζ_l ≥ ξ`. Values closer to zero yield tighter optima but
    /// more iterations (§4.3.3 and Fig. 13(c)(d)).
    pub xi: f64,
    /// Hard cap on master iterations.
    pub max_iterations: usize,
    /// Solve the pricing subproblems on multiple threads.
    pub parallel: bool,
    /// Relative optimality-gap stop: the loop also ends once
    /// `(objective − dual bound) ≤ gap_tol · |objective|` — i.e. the
    /// Theorem 4.4 bound certifies the solution to within `gap_tol`.
    /// The paper reports approximation ratios of 1.03–1.06 (Fig. 13(e)),
    /// so the default of 1 % is faithful; set to `1e-9` for
    /// (numerically) exact optima.
    pub gap_tol: f64,
    /// Seed the master with exponential-decay columns (see the
    /// initialization notes in [`solve_column_generation`]). Disable
    /// only for ablation studies — without the seeds, degenerate
    /// masters stall at the uniform mechanism for many iterations.
    pub seed_decay_columns: bool,
    /// Price at Wentges-smoothed duals instead of the raw master duals.
    /// Disable only for ablation studies.
    pub dual_smoothing: bool,
    /// Reuse solver state across iterations (persistent
    /// [`IncrementalLp`] per pricing block and for the master) instead
    /// of rebuilding every LP from scratch. Disable to get the cold
    /// per-iteration solves as a baseline.
    pub warm_start: bool,
}

impl Default for CgOptions {
    fn default() -> Self {
        Self {
            xi: -1e-6,
            max_iterations: 60,
            parallel: true,
            gap_tol: 0.01,
            seed_decay_columns: true,
            dual_smoothing: true,
            warm_start: true,
        }
    }
}

/// Convergence telemetry for one column-generation run.
#[derive(Debug, Clone, Default)]
pub struct CgDiagnostics {
    /// Number of master iterations performed.
    pub iterations: usize,
    /// `min_l ζ_l` after each master solve (Fig. 13(b)).
    pub min_zeta_history: Vec<f64>,
    /// Restricted-master objective after each solve.
    pub master_objective_history: Vec<f64>,
    /// Dual lower bound ω of Theorem 4.4 after each solve.
    pub dual_bound_history: Vec<f64>,
    /// Total number of columns added across all iterations.
    pub columns_added: usize,
    /// Wall-clock time of the whole run.
    pub wall_time: Duration,
    /// Wall-clock time spent solving restricted masters.
    pub master_time: Duration,
    /// Wall-clock time spent in the pricing subproblems (all rounds,
    /// including mispricing retries).
    pub pricing_time: Duration,
    /// Number of threads the pricing fan-out used.
    pub threads: usize,
    /// Simplex pivots spent in master resolves (warm engine only; zero
    /// when `warm_start` is off — the cold path's pivots are tracked
    /// globally in `lpsolve.simplex.pivots`).
    pub master_pivots: u64,
    /// Simplex pivots spent in pricing resolves (warm engine only).
    pub pricing_pivots: u64,
    /// Warm-engine resolves that reused a previous basis.
    pub lp_warm_resolves: u64,
    /// Warm-engine resolves that ran cold (first solves of each
    /// persistent solver, plus any numerical fallbacks).
    pub lp_cold_solves: u64,
    /// Wall-clock time inside warm resolves.
    pub lp_warm_time: Duration,
    /// Wall-clock time inside the warm engine's cold solves.
    pub lp_cold_time: Duration,
}

impl CgDiagnostics {
    /// The best (largest) dual lower bound observed — the denominator
    /// of the approximation ratios in Fig. 13(e).
    pub fn best_dual_bound(&self) -> f64 {
        self.dual_bound_history
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Fraction of warm-engine resolves that reused a basis
    /// (`NaN`-free: returns 0 when the warm engine never ran).
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.lp_warm_resolves + self.lp_cold_solves;
        if total == 0 {
            0.0
        } else {
            self.lp_warm_resolves as f64 / total as f64
        }
    }

    /// Folds one warm-engine resolve into the tallies.
    fn absorb(&mut self, stats: &ResolveStats, master: bool) {
        if master {
            self.master_pivots += stats.pivots;
        } else {
            self.pricing_pivots += stats.pivots;
        }
        if stats.warm {
            self.lp_warm_resolves += 1;
            self.lp_warm_time += stats.duration;
        } else {
            self.lp_cold_solves += 1;
            self.lp_cold_time += stats.duration;
        }
    }

    /// Mirrors this run into the global telemetry registry.
    fn flush(&self) {
        let reg = vlp_obs::global();
        reg.incr(metrics::SOLVES, 1);
        reg.incr(metrics::ITERATIONS, self.iterations as u64);
        reg.incr(metrics::COLUMNS_ADDED, self.columns_added as u64);
        reg.incr(metrics::MASTER_PIVOTS, self.master_pivots);
        reg.incr(metrics::PRICING_PIVOTS, self.pricing_pivots);
        reg.extend(metrics::MASTER_OBJECTIVE, &self.master_objective_history);
        reg.extend(metrics::DUAL_BOUND, &self.dual_bound_history);
        reg.extend(metrics::MIN_ZETA, &self.min_zeta_history);
        reg.push(metrics::THREADS_USED, self.threads as f64);
        reg.record_duration(metrics::SOLVE_TIME, self.wall_time);
        reg.record_duration(metrics::MASTER_TIME, self.master_time);
        reg.record_duration(metrics::PRICING_TIME, self.pricing_time);
        reg.record_duration(metrics::WARM_TIME, self.lp_warm_time);
        reg.record_duration(metrics::COLD_TIME, self.lp_cold_time);
    }
}

/// One generated extreme-point column for block `l`.
#[derive(Debug, Clone)]
struct Column {
    l: usize,
    z: Vec<f64>,
    /// Objective contribution `Σ_i c_{i,l} ẑ_i`.
    cost: f64,
}

/// The master's column pool plus its per-block index: `by_block[l]`
/// holds the ids (positions in `columns`) of every column of block
/// `l`, so duplicate checks and convexity rows only touch the owning
/// block instead of scanning the whole pool.
#[derive(Debug, Default)]
struct ColumnPool {
    columns: Vec<Column>,
    by_block: Vec<Vec<usize>>,
}

impl ColumnPool {
    fn new(k: usize) -> Self {
        Self {
            columns: Vec::new(),
            by_block: vec![Vec::new(); k],
        }
    }

    fn len(&self) -> usize {
        self.columns.len()
    }

    fn push(&mut self, col: Column) {
        self.by_block[col.l].push(self.columns.len());
        self.columns.push(col);
    }

    /// Whether `z` duplicates an existing column of block `l` (within
    /// round-off). Re-adding identical columns bloats the master
    /// without changing its optimum — a hazard when the master is
    /// degenerate and pricing keeps rediscovering the same vertex.
    /// Only block `l`'s own columns are scanned.
    fn is_duplicate(&self, l: usize, z: &[f64]) -> bool {
        // The tolerance is deliberately coarse: *near*-duplicate
        // columns are as dangerous as exact ones — two of them in a
        // basis make the master matrix near-singular and its
        // "solutions" numerically infeasible.
        self.by_block[l].iter().any(|&t| {
            self.columns[t]
                .z
                .iter()
                .zip(z)
                .all(|(a, b)| (a - b).abs() <= 1e-6)
        })
    }
}

/// Solves D-VLP by column generation.
///
/// Returns the mechanism, its quality loss (restricted-master optimum),
/// and the run diagnostics.
///
/// # Errors
///
/// Same failure modes as [`crate::dvlp::solve_direct`]; additionally a
/// run whose first restricted master fails returns the underlying
/// [`VlpError::Lp`] error, and one whose first master solution fails
/// validation returns [`VlpError::MalformedSolution`]. A later master
/// failure ends the run on the last healthy iterate.
pub fn solve_column_generation(
    cost: &CostMatrix,
    spec: &PrivacySpec,
    opts: &CgOptions,
) -> Result<(Mechanism, f64, CgDiagnostics), VlpError> {
    let start = Instant::now();
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
    let threads = fan_out::threads(k, opts.parallel);

    // Initial restricted master. Two families of provably feasible
    // columns seed every block:
    //
    // * the uniform column (1/K everywhere) — feasible for any Geo-I
    //   spec and, taken across all blocks, feasible for the coupling
    //   rows, so no artificial variables are ever needed;
    // * exponential-decay columns `z_i = e^{−β·D(i, l)}` at several
    //   rates `β ≤ ε`, where `D` is the shortest-path distance in the
    //   *constraint graph* (edges = privacy pairs weighted by their
    //   exponent distances). The triangle inequality on `D` makes every
    //   such column satisfy all chained Geo-I constraints, and together
    //   they give the master genuine mixing freedom from iteration 1 —
    //   without them a degenerate master can sit at the uniform vertex
    //   for dozens of iterations while priced columns enter at zero
    //   step.
    let uniform = vec![1.0 / k as f64; k];
    let mut pool = ColumnPool::new(k);
    for l in 0..k {
        pool.push(Column {
            l,
            cost: column_cost(cost, l, &uniform),
            z: uniform.clone(),
        });
    }
    if opts.seed_decay_columns {
        let chain = chain_distances(k, spec, threads);
        // Candidate construction is embarrassingly parallel (each
        // candidate is a pure function of `chain` and `cost`); only the
        // order-dependent dedup below stays sequential, so the seeded
        // pool is identical for any thread count.
        let betas: Vec<f64> = [1.0, 0.5, 0.25].iter().map(|f| spec.epsilon * f).collect();
        let candidates = seed_candidates(cost, k, &chain, &betas, threads);
        for (idx, (z, col_cost)) in candidates.into_iter().enumerate() {
            let l = idx % k;
            if !pool.is_duplicate(l, &z) {
                pool.push(Column {
                    l,
                    cost: col_cost,
                    z,
                });
            }
        }
    }

    let mut diag = CgDiagnostics::default();
    let pricing = pricing_program(k, spec)?;
    // Persistent warm solvers: one master, one per pricing block, each
    // built from its program on first use. Block `l` always lives in
    // slot `l`.
    let mut warm_master: Option<IncrementalLp> = None;
    let mut pricers: Option<Vec<Option<IncrementalLp>>> =
        opts.warm_start.then(|| (0..k).map(|_| None).collect());
    // Fallback iterate: λ = 1 on each block's uniform column (always
    // feasible) until a master solve succeeds.
    let mut last_lambda: Vec<f64> = {
        let mut l = vec![0.0; pool.len()];
        for slot in l.iter_mut().take(k) {
            *slot = 1.0;
        }
        l
    };
    let mut last_columns = pool.len();
    let mut master_obj = pool.columns[..k].iter().map(|c| c.cost).sum::<f64>();
    // Stall detection: degenerate masters can accept improving columns
    // at zero step length, leaving the objective flat while pricing
    // still reports negative ζ (the "long tail" of §4.3.3). After
    // several flat iterations we stop — the dual bound in the
    // diagnostics quantifies how much optimality that leaves behind.
    let mut best_obj = f64::INFINITY;
    let mut stalled = 0usize;
    // Generous: degenerate masters routinely sit flat for tens of
    // iterations (columns entering at zero step) before the objective
    // drops; the limit only guards against truly unbounded tailing.
    const STALL_LIMIT: usize = 30;
    // Wentges dual smoothing: price at a convex combination of the
    // incumbent best-bound duals and the (wandering) master duals.
    // Degenerate masters produce violently oscillating duals; smoothing
    // towards the best Lagrangian point is the standard stabilization
    // and collapses the oscillation without affecting correctness —
    // any vertex is a valid column, and mispricing falls back to the
    // exact master duals below.
    const SMOOTH_ALPHA: f64 = 0.7;
    let mut stab_pi: Option<Vec<f64>> = None;
    let mut best_bound = f64::NEG_INFINITY;
    loop {
        // --- Restricted master (RDW) ---
        // Validate the master solution: with near-singular bases
        // (near-parallel columns are unavoidable in column generation)
        // the simplex can fail outright or report an "optimal" point
        // with large negative λ or violated coupling rows. Any such
        // iterate is useless for duals and reconstruction alike — stop
        // and fall back to the last healthy one. Before the first
        // healthy master there is none: the seed iterate is not a
        // solve, so the run fails instead.
        let master_started = Instant::now();
        let master_result = if opts.warm_start {
            let lp = match warm_master.as_mut() {
                Some(lp) => lp,
                None => warm_master.insert(IncrementalLp::from_program(&master_program(k, &pool)?)),
            };
            let r = lp.resolve().map_err(VlpError::from);
            diag.absorb(&lp.last_stats(), true);
            r
        } else {
            master_program(k, &pool).and_then(|lp| lp.solve().map_err(VlpError::from))
        };
        diag.master_time += master_started.elapsed();
        let sol = match master_result {
            Ok(s) => s,
            Err(e) if diag.iterations == 0 => return Err(e),
            Err(_) => break,
        };
        let min_lambda = sol.x.iter().cloned().fold(0.0f64, f64::min);
        let coupling_dev = {
            let mut worst = 0.0f64;
            for row in 0..k {
                let sum: f64 = pool
                    .columns
                    .iter()
                    .zip(&sol.x)
                    .map(|(c, &l)| c.z[row] * l.max(0.0))
                    .sum();
                worst = worst.max((sum - 1.0).abs());
            }
            worst
        };
        if coupling_dev > 1e-5 || min_lambda < -1e-6 {
            if diag.iterations == 0 {
                return Err(VlpError::MalformedSolution);
            }
            break;
        }
        master_obj = sol.objective;
        let pi = &sol.duals[0..k];
        let mu = &sol.duals[k..2 * k];
        last_lambda = sol.x.clone();
        last_columns = pool.len();
        diag.master_objective_history.push(master_obj);
        diag.iterations += 1;

        // --- Pricing subproblems sub_1 … sub_K (parallel) ---
        // Price at the smoothed duals; if that yields nothing new
        // (mispricing), retry at the exact master duals so termination
        // decisions are always made against a valid certificate.
        //
        // Chaos hook: a scripted failpoint can crash the pricing round
        // outright (a worker-panic stand-in); serving layers are
        // expected to contain the unwind and degrade, never to let it
        // take down the process.
        if vlp_obs::failpoint::should_fail(vlp_obs::failpoint::site::CG_PRICING_PANIC) {
            panic!("chaos: injected column-generation pricing panic");
        }
        let pricing_started = Instant::now();
        let mut min_zeta;
        let mut new_columns;
        let mut lagrangian;
        let mut attempt = 0usize;
        loop {
            let pihat: Vec<f64> = match (&stab_pi, attempt, opts.dual_smoothing) {
                (Some(stab), 0, true) => stab
                    .iter()
                    .zip(pi)
                    .map(|(s, p)| SMOOTH_ALPHA * s + (1.0 - SMOOTH_ALPHA) * p)
                    .collect(),
                _ => pi.to_vec(),
            };
            let priced = price_all(cost, &pricing, &pihat, threads, pricers.as_deref_mut())?;
            for (_, _, stats) in &priced {
                if let Some(stats) = stats {
                    diag.absorb(stats, false);
                }
            }
            // Lagrangian bound at the pricing point (Theorem 4.4):
            // L(π̂) = Σ_k π̂_k + Σ_l min_{z ∈ Λ_l} (c_l − π̂)·z.
            lagrangian = pihat.iter().sum::<f64>() + priced.iter().map(|(s, _, _)| s).sum::<f64>();
            min_zeta = f64::INFINITY;
            new_columns = Vec::new();
            for (l, (sub_obj, z, _)) in priced.into_iter().enumerate() {
                // ζ_l: reduced cost of the found vertex against the
                // *master* duals — the quantity Proposition 4.3 tests.
                let zeta_master: f64 = column_cost(cost, l, &z)
                    - pi.iter().zip(&z).map(|(p, v)| p * v).sum::<f64>()
                    - mu[l];
                let zeta_hat = sub_obj - mu[l];
                let zeta = zeta_master.min(zeta_hat);
                if zeta < min_zeta {
                    min_zeta = zeta;
                }
                if zeta_master < opts.xi.min(-1e-9) && !pool.is_duplicate(l, &z) {
                    let c = column_cost(cost, l, &z);
                    new_columns.push(Column { l, z, cost: c });
                }
            }
            if lagrangian > best_bound {
                best_bound = lagrangian;
                stab_pi = Some(pihat);
            }
            let mispriced = new_columns.is_empty() && stab_pi.is_some() && attempt == 0;
            if !mispriced {
                break;
            }
            attempt += 1;
        }
        diag.pricing_time += pricing_started.elapsed();
        diag.min_zeta_history.push(min_zeta);
        diag.dual_bound_history.push(best_bound);

        if master_obj < best_obj - 1e-10 * best_obj.abs().max(1.0) {
            best_obj = master_obj;
            stalled = 0;
        } else {
            stalled += 1;
        }
        // Converged when: the Lagrangian gap closes, pricing certifies
        // ζ ≥ ξ, no improving column remains, the run stalls, or the
        // iteration budget runs out.
        let gap_closed =
            master_obj - best_bound <= opts.gap_tol.max(1e-12) * master_obj.abs().max(1e-9);
        if gap_closed
            || min_zeta >= opts.xi
            || new_columns.is_empty()
            || stalled >= STALL_LIMIT
            || diag.iterations >= opts.max_iterations
        {
            break;
        }
        diag.columns_added += new_columns.len();
        if let Some(lp) = warm_master.as_mut() {
            // Dual-feasible warm start: append the new columns to the
            // live master; the old basis stays primal-feasible and the
            // next resolve only has to price them in.
            let specs: Vec<ColumnSpec> = new_columns
                .iter()
                .map(|col| master_column_spec(k, col))
                .collect();
            lp.add_columns(&specs)?;
        }
        for col in new_columns {
            pool.push(col);
        }
    }
    diag.wall_time = start.elapsed();
    diag.threads = threads;
    diag.flush();

    // Reconstruct Z from the last master solution:
    // z_{i,l} = Σ_t λ_{l,t} ẑ^t_{i,l}.
    let mut z = vec![0.0; k * k];
    for (col, &lambda) in pool.columns[..last_columns].iter().zip(&last_lambda) {
        if lambda <= 0.0 {
            continue;
        }
        for i in 0..k {
            z[i * k + col.l] += lambda * col.z[i];
        }
    }
    let mech = Mechanism::from_matrix(k, z, 1e-4).ok_or(VlpError::MalformedSolution)?;
    Ok((mech, master_obj, diag))
}

/// All-pairs shortest-path distances over the privacy-constraint graph,
/// stored target-major: `out[j*k + i] = D(i, j)`, the tightest chained
/// Geo-I exponent between intervals `i` and `j` (`∞` when no chain
/// connects them). A constraint `z_a ≤ e^{ε·d} z_b` contributes the
/// edge `b → a` with weight `d`; `D(·, j)` is one reverse Dijkstra per
/// target `j`. Targets are independent, so they fan out across
/// `threads` workers (each with its own distance/heap scratch); the
/// per-target float operations are identical for any thread count.
fn chain_distances(k: usize, spec: &PrivacySpec, threads: usize) -> Vec<f64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    // Reverse adjacency: paths *towards* each target.
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); k];
    for c in &spec.constraints {
        adj[c.i].push((c.l, c.dist));
    }
    let mut out = vec![f64::INFINITY; k * k];
    let () = fan_out::run(
        threads,
        &mut out.chunks_mut(k).collect::<Vec<_>>(),
        || (vec![f64::INFINITY; k], BinaryHeap::new()),
        |j, row, (dist, heap)| {
            dist.fill(f64::INFINITY);
            dist[j] = 0.0;
            heap.push(Reverse((OrderedF64(0.0), j)));
            while let Some(Reverse((OrderedF64(d), v))) = heap.pop() {
                if d > dist[v] + 1e-15 {
                    continue;
                }
                for &(w, len) in &adj[v] {
                    let nd = d + len;
                    if nd < dist[w] - 1e-15 {
                        dist[w] = nd;
                        heap.push(Reverse((OrderedF64(nd), w)));
                    }
                }
            }
            row.copy_from_slice(dist);
        },
    );
    out
}

/// Builds the `betas.len() × k` decay-column candidates
/// `z_i = e^{−β·D(i, l)}` (slot `b*k + l`), each with its objective
/// cost, fanning the pure per-candidate computation across `threads`.
fn seed_candidates(
    cost: &CostMatrix,
    k: usize,
    chain: &[f64],
    betas: &[f64],
    threads: usize,
) -> Vec<(Vec<f64>, f64)> {
    fan_out::run(
        threads,
        &mut vec![(); betas.len() * k],
        || (),
        |idx, _, _| {
            let beta = betas[idx / k];
            let l = idx % k;
            let z: Vec<f64> = (0..k)
                .map(|i| {
                    let d = chain[l * k + i];
                    if d.is_finite() {
                        (-beta * d).exp().max(FLOOR)
                    } else {
                        FLOOR
                    }
                })
                .collect();
            let c = column_cost(cost, l, &z);
            (z, c)
        },
    )
}

/// Total-order wrapper for non-NaN floats in the Dijkstra heap.
#[derive(PartialEq, PartialOrd)]
struct OrderedF64(f64);
impl Eq for OrderedF64 {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).unwrap_or(std::cmp::Ordering::Equal)
    }
}

/// Objective coefficient of a column: `Σ_i c_{i,l} ẑ_i`.
fn column_cost(cost: &CostMatrix, l: usize, z: &[f64]) -> f64 {
    z.iter().enumerate().map(|(i, &v)| cost.get(i, l) * v).sum()
}

/// The master-row footprint of one column: its `k` coupling entries
/// plus the convexity entry of its block.
fn master_column_spec(k: usize, col: &Column) -> ColumnSpec {
    let mut entries: Vec<(usize, f64)> = Vec::with_capacity(k + 1);
    for (row, &v) in col.z.iter().enumerate() {
        if v.abs() > 1e-15 {
            entries.push((row, v));
        }
    }
    entries.push((k + col.l, 1.0));
    ColumnSpec {
        cost: col.cost,
        entries,
    }
}

/// The restricted master over the current pool: objective `Σ_t cost_t
/// λ_t`, coupling rows `Σ λ_t ẑ^t_{row} = 1` from the columns
/// themselves and convexity rows `Σ_{t ∈ block l} λ_t = 1` straight from
/// the per-block index, built in one pass over the pool. Its solution
/// has λ in column order and duals `[π (K rows); μ (K rows)]`.
fn master_program(k: usize, pool: &ColumnPool) -> Result<LinearProgram, VlpError> {
    let mut lp = LinearProgram::new(pool.len());
    let obj: Vec<(usize, f64)> = pool
        .columns
        .iter()
        .enumerate()
        .map(|(t, c)| (t, c.cost))
        .collect();
    lp.set_objective(&obj)?;
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); 2 * k];
    for (t, c) in pool.columns.iter().enumerate() {
        for (row, &v) in c.z.iter().enumerate() {
            if v.abs() > 1e-15 {
                rows[row].push((t, v));
            }
        }
    }
    for (l, members) in pool.by_block.iter().enumerate() {
        rows[k + l] = members.iter().map(|&t| (t, 1.0)).collect();
    }
    for row in rows {
        lp.add_constraint(&row, Relation::Eq, 1.0)?;
    }
    Ok(lp)
}

/// A priced block: the subproblem's optimal value, its arg-min, and —
/// on the warm path — the resolve statistics.
type PricedBlock = (f64, Vec<f64>, Option<ResolveStats>);

/// The pricing polytope `Λ_l ∩ {z ≥ FLOOR}` (see [`FLOOR`]), shared by
/// every block — only the objective `c_l − π` differs — over the
/// substituted variables `y = z − FLOOR ≥ 0`, which turn every
/// right-hand side strictly positive: the subproblem needs no phase 1
/// and its starting basis is non-degenerate.
fn pricing_program(k: usize, spec: &PrivacySpec) -> Result<LinearProgram, VlpError> {
    let mut lp = LinearProgram::new(k);
    for c in &spec.constraints {
        // z_i − α z_k ≤ 0 with z = y + FLOOR:
        // y_i − α y_k ≤ (α − 1)·FLOOR.
        let bound = spec.bound(c);
        lp.add_constraint(
            &[(c.i, 1.0), (c.l, -bound)],
            Relation::Le,
            (bound - 1.0) * FLOOR,
        )?;
    }
    // Box bound making the region a polytope (valid: probabilities ≤ 1).
    for i in 0..k {
        lp.add_constraint(&[(i, 1.0)], Relation::Le, 1.0 - FLOOR)?;
    }
    Ok(lp)
}

/// Solves all `K` pricing subproblems over `pricing`, returning per
/// block the optimal value of `min (c_l − π)·z over Λ_l` and its
/// arg-min. With `pricers` each block re-prices its persistent warm
/// solver (built from `pricing` on first use); without, each block
/// solves a fresh clone of `pricing` cold.
fn price_all(
    cost: &CostMatrix,
    pricing: &LinearProgram,
    pi: &[f64],
    threads: usize,
    pricers: Option<&mut [Option<IncrementalLp>]>,
) -> Result<Vec<PricedBlock>, VlpError> {
    match pricers {
        Some(slots) => fan_out::run(
            threads,
            slots,
            || (),
            |l, slot, _| {
                let lp = slot.get_or_insert_with(|| IncrementalLp::from_program(pricing));
                price_block(cost, pi, l, |obj| {
                    lp.set_objective(obj)?;
                    Ok((lp.resolve()?, Some(lp.last_stats())))
                })
            },
        ),
        None => fan_out::run(
            threads,
            &mut vec![(); cost.len()],
            || (),
            |l, _, _| {
                price_block(cost, pi, l, |obj| {
                    let mut lp = pricing.clone();
                    lp.set_objective(obj)?;
                    Ok((lp.solve()?, None))
                })
            },
        ),
    }
}

/// Prices block `l`: `min (c_l − π)·z` over `Λ_l ∩ {z ≥ FLOOR}`.
/// `solve` sets the objective on the block's LP over `y = z − FLOOR`
/// and solves it; the optimum and arg-min are shifted back to `z`.
fn price_block(
    cost: &CostMatrix,
    pi: &[f64],
    l: usize,
    solve: impl FnOnce(
        &[(usize, f64)],
    ) -> Result<(lpsolve::Solution, Option<ResolveStats>), lpsolve::LpError>,
) -> Result<PricedBlock, VlpError> {
    let k = cost.len();
    let w: Vec<f64> = (0..k).map(|i| cost.get(i, l) - pi[i]).collect();
    let obj: Vec<(usize, f64)> = w.iter().copied().enumerate().collect();
    let (sol, stats) = solve(&obj)?;
    let z: Vec<f64> = sol.x.iter().map(|y| y + FLOOR).collect();
    let shift: f64 = w.iter().sum::<f64>() * FLOOR;
    Ok((sol.objective + shift, z, stats))
}

/// Numerical floor applied to subproblem variables: pricing searches
/// the truncated polytope `Λ_l ∩ {z ≥ FLOOR}` instead of `Λ_l`.
///
/// Without the floor, extreme points of `Λ_l` carry entries as small as
/// `e^{−ε·diameter}` (the chained Geo-I decay across the whole map,
/// easily `1e−16`), and the master program built from such columns is
/// catastrophically ill-conditioned — its duals explode and column
/// generation diverges. Flooring keeps every column entry in
/// `[FLOOR, 1]`, bounding the master's condition number, at an
/// optimality cost of at most `K · max(c) · FLOOR` (≈ 1e−4 km at the
/// scales used here). The truncated polytope is a subset of `Λ_l`, so
/// the returned mechanism still satisfies Geo-I exactly.
///
/// The floor also matters for warm starts: with every right-hand side
/// strictly positive, the slack basis is primal-feasible and
/// non-degenerate, so pricing subproblems never need artificial
/// variables — objective swaps can always reuse the previous basis.
const FLOOR: f64 = 1e-6;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auxiliary::AuxiliaryGraph;
    use crate::constraint_reduction::reduced_spec;
    use crate::cost::{IntervalDistances, Prior};
    use crate::discretize::Discretization;
    use crate::dvlp::solve_direct;
    use roadnet::{generators, NodeDistances};

    fn instance(delta: f64) -> (AuxiliaryGraph, CostMatrix) {
        let g = generators::grid(2, 2, 0.5, true);
        let nd = NodeDistances::all_pairs(&g);
        let disc = Discretization::new(&g, delta);
        let aux = AuxiliaryGraph::build(&g, &disc);
        let id = IntervalDistances::build(&g, &nd, &disc);
        let k = disc.len();
        let cost = CostMatrix::build(&id, &Prior::uniform(k), &Prior::uniform(k));
        (aux, cost)
    }

    #[test]
    fn cg_matches_direct_lp() {
        let (aux, cost) = instance(0.5);
        let spec = reduced_spec(&aux, 2.0, f64::INFINITY);
        let (_, direct_obj) = solve_direct(&cost, &spec).unwrap();
        let opts = CgOptions {
            xi: -1e-9,
            max_iterations: 200,
            parallel: false,
            gap_tol: 1e-9,
            ..CgOptions::default()
        };
        let (mech, cg_obj, diag) = solve_column_generation(&cost, &spec, &opts).unwrap();
        assert!(
            (cg_obj - direct_obj).abs() < 1e-5,
            "cg {cg_obj} vs direct {direct_obj} after {} iters",
            diag.iterations
        );
        assert!(mech.is_row_stochastic(1e-6));
        assert!(mech.max_violation(&spec) <= 1e-6);
    }

    #[test]
    fn cg_warm_matches_cold() {
        // The warm engine must not change what CG computes, only how
        // fast: identical mechanisms (bit-for-bit) and objective, with
        // the warm run actually reusing bases.
        let (aux, cost) = instance(0.5);
        let spec = reduced_spec(&aux, 2.0, f64::INFINITY);
        let cold = CgOptions {
            warm_start: false,
            parallel: false,
            ..CgOptions::default()
        };
        let warm = CgOptions {
            warm_start: true,
            parallel: false,
            ..CgOptions::default()
        };
        let (m1, o1, d1) = solve_column_generation(&cost, &spec, &cold).unwrap();
        let (m2, o2, d2) = solve_column_generation(&cost, &spec, &warm).unwrap();
        assert!(
            (o1 - o2).abs() <= 1e-9 * o1.abs().max(1.0),
            "cold {o1} vs warm {o2}"
        );
        assert_eq!(d1.iterations, d2.iterations);
        let k = m1.len();
        for i in 0..k {
            for l in 0..k {
                assert_eq!(
                    m1.prob(i, l).to_bits(),
                    m2.prob(i, l).to_bits(),
                    "mechanism entry ({i},{l}) differs between warm and cold"
                );
            }
        }
        // The cold run never touches the warm engine; the warm run
        // reuses bases from iteration 2 onwards.
        assert_eq!(d1.lp_warm_resolves + d1.lp_cold_solves, 0);
        if d2.iterations > 1 {
            assert!(d2.lp_warm_resolves > 0, "warm run never warm-started");
        }
        assert!(d2.lp_cold_solves > 0);
    }

    #[test]
    fn failed_first_master_fails_the_run() {
        // With every LP solve failing, no restricted master succeeds:
        // both engines report the LP error instead of returning the
        // uniform seed iterate as a solution.
        use std::sync::Arc;
        use vlp_obs::failpoint::{self, site, FaultMode, FaultPlan};
        let (aux, cost) = instance(0.5);
        let spec = reduced_spec(&aux, 2.0, f64::INFINITY);
        for (warm_start, fault) in [(true, site::LP_RESOLVE), (false, site::LP_SOLVE)] {
            let plan = Arc::new(FaultPlan::new(1).with(fault, FaultMode::Always));
            let opts = CgOptions {
                warm_start,
                parallel: false,
                ..CgOptions::default()
            };
            let err =
                failpoint::scope(plan, 0, || solve_column_generation(&cost, &spec, &opts)).err();
            assert!(
                matches!(err, Some(VlpError::Lp(lpsolve::LpError::FaultInjected))),
                "warm_start {warm_start}: {err:?}"
            );
        }
    }

    /// Block `l` is priced in slot `l` whatever the thread count, so
    /// threading changes nothing on either engine: not the objective,
    /// not the mechanism, and on the warm engine not the pivot counts.
    fn assert_parallel_matches_serial(warm_start: bool) {
        let (aux, cost) = instance(0.5);
        let spec = reduced_spec(&aux, 1.5, f64::INFINITY);
        let serial = CgOptions {
            parallel: false,
            warm_start,
            ..CgOptions::default()
        };
        let par = CgOptions {
            parallel: true,
            warm_start,
            ..CgOptions::default()
        };
        let (m1, o1, d1) = solve_column_generation(&cost, &spec, &serial).unwrap();
        let (m2, o2, d2) = solve_column_generation(&cost, &spec, &par).unwrap();
        assert_eq!(o1.to_bits(), o2.to_bits());
        assert_eq!(d1.iterations, d2.iterations);
        if warm_start {
            assert_eq!(d1.pricing_pivots, d2.pricing_pivots);
            assert_eq!(d1.master_pivots, d2.master_pivots);
            assert!(d1.pricing_pivots > 0);
        }
        let k = m1.len();
        for i in 0..k {
            for l in 0..k {
                assert_eq!(
                    m1.prob(i, l).to_bits(),
                    m2.prob(i, l).to_bits(),
                    "entry ({i},{l})"
                );
            }
        }
    }

    #[test]
    fn cg_parallel_matches_serial() {
        assert_parallel_matches_serial(false);
    }

    #[test]
    fn warm_parallel_matches_warm_serial() {
        assert_parallel_matches_serial(true);
    }

    #[test]
    fn dual_bound_stays_below_objective() {
        let (aux, cost) = instance(0.5);
        let spec = reduced_spec(&aux, 2.0, f64::INFINITY);
        let opts = CgOptions {
            xi: -1e-9,
            max_iterations: 100,
            parallel: false,
            gap_tol: 1e-9,
            ..CgOptions::default()
        };
        let (_, obj, diag) = solve_column_generation(&cost, &spec, &opts).unwrap();
        for &lb in &diag.dual_bound_history {
            assert!(lb <= obj + 1e-6, "dual bound {lb} exceeds optimum {obj}");
        }
        // At convergence the bound is tight-ish.
        assert!(diag.best_dual_bound() <= obj + 1e-6);
    }

    #[test]
    fn looser_xi_terminates_earlier() {
        let (aux, cost) = instance(0.25);
        let spec = reduced_spec(&aux, 3.0, f64::INFINITY);
        let tight = CgOptions {
            xi: -1e-9,
            max_iterations: 300,
            parallel: false,
            gap_tol: 1e-9,
            ..CgOptions::default()
        };
        let loose = CgOptions {
            xi: -0.5,
            max_iterations: 300,
            parallel: false,
            gap_tol: 1e-9,
            ..CgOptions::default()
        };
        let (_, obj_t, diag_t) = solve_column_generation(&cost, &spec, &tight).unwrap();
        let (_, obj_l, diag_l) = solve_column_generation(&cost, &spec, &loose).unwrap();
        assert!(diag_l.iterations <= diag_t.iterations);
        // Looser threshold can only be worse (higher loss), within noise.
        assert!(obj_l >= obj_t - 1e-7);
    }

    #[test]
    fn min_zeta_is_monotone_toward_zero_at_end() {
        let (aux, cost) = instance(0.5);
        let spec = reduced_spec(&aux, 2.0, f64::INFINITY);
        let opts = CgOptions {
            xi: -1e-9,
            max_iterations: 200,
            parallel: false,
            gap_tol: 1e-9,
            ..CgOptions::default()
        };
        let (_, _, diag) = solve_column_generation(&cost, &spec, &opts).unwrap();
        let last = *diag.min_zeta_history.last().unwrap();
        assert!(last >= -1e-6, "converged min zeta should be ~0, got {last}");
        // All zetas are non-positive (they price against an optimal
        // master).
        for &z in &diag.min_zeta_history {
            assert!(z <= 1e-7);
        }
    }

    #[test]
    fn diagnostics_populate_time_split_and_telemetry() {
        let (aux, cost) = instance(0.5);
        let spec = reduced_spec(&aux, 2.0, f64::INFINITY);
        let opts = CgOptions {
            parallel: true,
            ..CgOptions::default()
        };
        let reg = vlp_obs::global();
        let solves_before = reg.counter(metrics::SOLVES);
        let objective_samples_before = reg.series(metrics::MASTER_OBJECTIVE).len();
        let (_, _, diag) = solve_column_generation(&cost, &spec, &opts).unwrap();
        // The pricing/master wall-time split is populated and sane.
        assert!(diag.master_time > Duration::ZERO, "master time not tracked");
        assert!(
            diag.pricing_time > Duration::ZERO,
            "pricing time not tracked"
        );
        assert!(diag.master_time + diag.pricing_time <= diag.wall_time);
        assert!(diag.threads >= 1);
        // Warm-engine accounting is live (default options warm-start).
        assert!(diag.lp_cold_solves > 0);
        assert!(diag.warm_hit_rate() >= 0.0 && diag.warm_hit_rate() <= 1.0);
        // The run is mirrored into the global registry. Other tests in
        // this binary flush concurrently, so assert lower bounds only.
        assert!(reg.counter(metrics::SOLVES) > solves_before);
        assert!(
            reg.series(metrics::MASTER_OBJECTIVE).len()
                >= objective_samples_before + diag.master_objective_history.len()
        );
        assert!(reg.timer(metrics::PRICING_TIME).is_some());
        assert!(reg.timer(metrics::MASTER_TIME).is_some());
    }

    #[test]
    fn single_interval_instance() {
        let cost = CostMatrix::from_dense(1, vec![0.0]);
        let spec = PrivacySpec {
            epsilon: 1.0,
            radius: 1.0,
            constraints: vec![],
        };
        let (mech, obj, _) = solve_column_generation(&cost, &spec, &CgOptions::default()).unwrap();
        assert_eq!(mech.len(), 1);
        assert!((mech.prob(0, 0) - 1.0).abs() < 1e-9);
        assert!(obj.abs() < 1e-9);
    }
}
