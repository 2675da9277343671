//! Locally-relevant D-VLP: restrict the mechanism support to a
//! neighborhood of the reporting vehicle so solve cost is `O(k²)` in
//! the neighborhood size `k`, independent of the map size `K`.
//!
//! Following "Time-Efficient Locally Relevant Geo-Location Privacy
//! Protection" (Qiu et al.), a vehicle's useful obfuscation range is a
//! small ball around it — reporting an interval across town destroys
//! utility without buying privacy that the protection radius `r`
//! demands. This module therefore solves D-VLP over only the intervals
//! near the vehicle, with a correctness argument that the restriction
//! never weakens `(ε, r)`-Geo-I *within a neighborhood*:
//!
//! # The locality argument
//!
//! Work in the metric closure `d̂` of the bidirectional interval
//! distance `d_min` — the undirected shortest-path metric on the
//! auxiliary graph ([`roadnet::BallMetric::Undirected`]), which is
//! symmetric, satisfies the triangle inequality, and has
//! `d̂ ≤ d_min` pointwise.
//!
//! * A [`LocalityPlan`] covers the `K` intervals with a deterministic
//!   greedy ρ-net: canonical centers `c` such that every interval lies
//!   within `d̂ ≤ ρ` of its assigned (nearest) center.
//! * The neighborhood of center `c` is the ball `B(c, ρ + r)` in `d̂`.
//! * For a vehicle at interval `i` assigned to `c` and any interval
//!   `l` with `d_min(i, l) ≤ r`:
//!   `d̂(c, l) ≤ d̂(c, i) + d̂(i, l) ≤ ρ + d_min(i, l) ≤ ρ + r`,
//!   so **every `r`-close counterpart of every assigned vehicle is in
//!   the support**. The restricted constraint set — one constraint per
//!   ordered in-support pair within `d_min ≤ r`, with the *full-graph*
//!   `d_min` in the exponent — therefore contains every `(ε, r)`-Geo-I
//!   constraint among vehicles served by the same neighborhood, and
//!   [`crate::privacy::verify`] audits the solved mechanism against
//!   exactly that unreduced spec ([`VlpInstance::local_spec`] /
//!   [`LocalShard::audit_spec`]).
//!
//! Two caveats, both deliberate:
//!
//! * **Restricted supports use the chain rule, never Algorithm 1.** The
//!   paper's Algorithm 1 is only sound when shortest paths stay inside
//!   the vertex set; on an induced neighborhood a reduced chain can
//!   detour outside and silently *loosen* privacy. A partial
//!   neighborhood is instead solved on
//!   [`chain_reduced`] of its unreduced restricted spec: a pair
//!   `(a, b)` is dropped only when two strictly shorter pairs
//!   `(a, m)`, `(m, b)` of that same spec, with `m` in the support and
//!   their full-graph `d_min` exponents, chain to at most `d_min(a, b)`.
//!   By induction on the exponent each constituent is kept or itself
//!   implied, so every column still satisfies every unreduced pair, and
//!   no chain leaves the support. On the grids here this keeps the
//!   adjacent pairs plus the few whose middle interval lies outside
//!   the support — about half the `O(k²)` pairs. The solved mechanism
//!   is audited against the unreduced spec all the same.
//! * **The guarantee is per neighborhood**, exactly as the existing
//!   sharded service's guarantee is per region shard: two nearby
//!   vehicles assigned to *different* neighborhoods draw from
//!   different supports, so the neighborhood id itself leaks ρ-granular
//!   location, just as the shard id leaks band-granular location
//!   today. Choosing ρ comparable to the shard band width keeps the
//!   two disclosures of the same order. See ARCHITECTURE.md
//!   ("Locally-relevant solving") for the full discussion.
//!
//! Two solve paths share this module:
//!
//! * [`VlpInstance::solve_local`] — for instances that already carry
//!   dense all-pairs matrices; used by tests and as the bit-identity
//!   baseline. With full support it *delegates verbatim* to
//!   [`VlpInstance::solve`], making "radius ∞ ≡ full-shard solve" true
//!   by construction. A partial support gathers its `k × k` distance
//!   table and its `d_min` exponents from the dense matrices.
//! * [`LocalShard`] — the engine every serving shard runs on. A
//!   neighborhood smaller than the shard never materializes an `O(K²)`
//!   matrix: its `k × k` distance table comes from target-terminated
//!   Dijkstra runs and its `d_min` exponents from radius-bounded ones,
//!   whose settled distances are bit-identical prefixes of the dense
//!   builds. A neighborhood spanning the shard — the service's full
//!   mode, [`LocalShard::whole_shard`] — delegates to a dense
//!   [`VlpInstance`].
//!
//! Only the distance sources of the two paths differ. Both feed the
//! kernels of the dense build: the Eq. 19 cost kernel behind
//! [`CostMatrix::build`] (same row fan-out, and `q` ascending over the
//! sorted support, so the same accumulation order) and the pair
//! enumerator behind [`PrivacySpec::full`], so they agree by
//! construction.

use std::sync::{Arc, OnceLock};

use roadnet::distance::NodeMetric;
use roadnet::{bounded_ball, distances_to_targets, BallMetric, NodeId, RoadGraph};

use crate::auxiliary::aux_road_graph;
use crate::column_generation::{solve_column_generation, CgDiagnostics, CgOptions};
use crate::constraint_reduction::chain_reduced;
use crate::cost::{midpoint_table, CostMatrix, Prior};
use crate::discretize::Discretization;
use crate::error::VlpError;
use crate::instance::VlpInstance;
use crate::mechanism::Mechanism;
use crate::privacy::PrivacySpec;

/// One neighborhood of a [`LocalityPlan`]: a canonical center interval
/// and the sorted global interval ids of its support ball `B(c, ρ+r)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Neighborhood {
    /// Global interval id of the canonical center.
    pub center: usize,
    /// Sorted global interval ids within `d̂(center, ·) ≤ ρ + r`
    /// (always contains the center and every assigned interval).
    pub members: Vec<usize>,
}

/// A deterministic cover of the `K` intervals by `d̂`-balls around
/// greedy ρ-net centers, plus the nearest-center assignment.
///
/// Construction is a pure function of the auxiliary graph and the two
/// radii (intervals scanned in ascending id order; ties broken towards
/// the lower center id), so every replica derives the same canonical
/// neighborhood ids and nearby vehicles share cache entries.
#[derive(Debug, Clone)]
pub struct LocalityPlan {
    rho: f64,
    protection: f64,
    assign: Vec<u32>,
    neighborhoods: Vec<Neighborhood>,
}

impl LocalityPlan {
    /// Builds the plan on an auxiliary graph: greedy ρ-net centers
    /// (an uncovered interval, scanned in ascending id order, becomes
    /// the next center), nearest-center assignment, and support balls
    /// of radius `ρ + protection` per center.
    ///
    /// Either radius may be `f64::INFINITY`; with `rho = ∞` the plan
    /// degenerates to one neighborhood containing every interval — the
    /// full-shard / radius-∞ case.
    ///
    /// # Panics
    ///
    /// Panics if `aux_graph` has no vertices or either radius is
    /// negative/NaN.
    pub fn build(aux_graph: &RoadGraph, rho: f64, protection: f64) -> Self {
        let k = aux_graph.node_count();
        assert!(k > 0, "locality plan needs at least one interval");
        assert!(rho >= 0.0, "assignment radius rho must be non-negative");
        assert!(protection >= 0.0, "protection radius must be non-negative");
        let ball_radius = rho + protection;
        let mut assign: Vec<Option<(f64, u32)>> = vec![None; k];
        let mut neighborhoods = Vec::new();
        for i in 0..k {
            if assign[i].is_some() {
                continue;
            }
            let nb = u32::try_from(neighborhoods.len()).expect("neighborhood count fits u32");
            let ball = bounded_ball(aux_graph, NodeId(i), ball_radius, BallMetric::Undirected);
            let mut members: Vec<usize> = ball.iter().map(|&(v, _)| v.0).collect();
            members.sort_unstable();
            for &(v, d) in &ball {
                if d > rho {
                    continue;
                }
                // Nearest center wins; ties go to the earlier center.
                let better = match assign[v.0] {
                    None => true,
                    Some((best, _)) => d < best,
                };
                if better {
                    assign[v.0] = Some((d, nb));
                }
            }
            neighborhoods.push(Neighborhood { center: i, members });
        }
        let assign = assign
            .into_iter()
            .map(|a| a.expect("greedy net covers every interval").1)
            .collect();
        Self {
            rho,
            protection,
            assign,
            neighborhoods,
        }
    }

    /// The plan [`Self::build`] yields at `rho = ∞` on a connected
    /// auxiliary graph — one neighborhood centered on interval 0 whose
    /// support is all `k` intervals — built without running Dijkstra.
    fn whole(k: usize, protection: f64) -> Self {
        assert!(k > 0, "locality plan needs at least one interval");
        assert!(protection >= 0.0, "protection radius must be non-negative");
        Self {
            rho: f64::INFINITY,
            protection,
            assign: vec![0; k],
            neighborhoods: vec![Neighborhood {
                center: 0,
                members: (0..k).collect(),
            }],
        }
    }

    /// The assignment radius ρ.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The protection radius `r` the support balls were padded with.
    pub fn protection(&self) -> f64 {
        self.protection
    }

    /// The support-ball radius `ρ + r`.
    pub fn ball_radius(&self) -> f64 {
        self.rho + self.protection
    }

    /// Number of intervals covered.
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// Whether the plan covers no intervals (never true — construction
    /// panics on empty graphs).
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Number of neighborhoods (canonical cache-key cardinality).
    pub fn neighborhood_count(&self) -> usize {
        self.neighborhoods.len()
    }

    /// The canonical neighborhood id interval `i` is assigned to.
    pub fn assignment(&self, interval: usize) -> u32 {
        self.assign[interval]
    }

    /// The neighborhood with id `nb`.
    pub fn neighborhood(&self, nb: u32) -> &Neighborhood {
        &self.neighborhoods[nb as usize]
    }

    /// All neighborhoods, indexed by id.
    pub fn neighborhoods(&self) -> &[Neighborhood] {
        &self.neighborhoods
    }
}

/// The position of global interval `global` within a sorted support
/// slice, if present — the local row/column index of the restricted
/// mechanism.
#[inline]
pub fn local_index(support: &[usize], global: usize) -> Option<usize> {
    // A whole-shard support is `0..K`, where every interval is its own
    // row; supports are sorted and distinct, so the check is exact.
    if support.get(global) == Some(&global) {
        return Some(global);
    }
    support.binary_search(&global).ok()
}

/// A solved locally-relevant mechanism: a `k × k` [`Mechanism`] over
/// local indices plus the sorted global support that lifts samples back
/// to global interval ids (`global = support[local]`).
#[derive(Debug, Clone)]
pub struct LocalSolve {
    /// Sorted global interval ids of the support (`k` entries).
    pub support: Arc<Vec<usize>>,
    /// The restricted mechanism over local indices.
    pub mechanism: Mechanism,
    /// Achieved quality loss on the restricted objective.
    pub quality_loss: f64,
    /// Column-generation diagnostics.
    pub diagnostics: CgDiagnostics,
    /// LP variable count (`k²`) — the quantity the `O(k²)` claim gates.
    pub lp_vars: usize,
    /// LP inequality-row count of the constraint set actually solved:
    /// the chain-reduced restricted spec on a partial support, the
    /// Algorithm 1 spec on a whole-shard one, the chain-reduced
    /// cluster spec on the clustered tier. An exact solve never has
    /// more rows than its audit spec induces.
    pub lp_rows: usize,
}

/// The Eq. 19 cost matrix over `support` from its row-major `k × k`
/// directed distance table, with the *raw* restricted priors (no
/// renormalization — scaling rows by `f_P` and the whole matrix by
/// `f_Q` leaves the LP argmin unchanged). It runs the kernel of
/// [`CostMatrix::build`], so with full support and the dense table the
/// two are bit-identical.
fn support_cost(table: &[f64], support: &[usize], f_p: &Prior, f_q: &Prior) -> CostMatrix {
    let at_support =
        |prior: &Prior| -> Vec<f64> { support.iter().map(|&g| prior.get(g)).collect() };
    CostMatrix::eq19(table, &at_support(f_p), &at_support(f_q))
}

/// The row-major `k × k` metric closure `d̂` (undirected
/// auxiliary-graph distances) over a sorted `support` of interval ids:
/// the distances the restricted graph-Laplace fallback decays with.
fn support_d_hat(aux_graph: &RoadGraph, support: &[usize]) -> Vec<f64> {
    let k = support.len();
    let nodes: Vec<NodeId> = support.iter().map(|&g| NodeId(g)).collect();
    let mut d = vec![0.0; k * k];
    for (a, row) in d.chunks_mut(k).enumerate() {
        let dists = distances_to_targets(aux_graph, nodes[a], &nodes, BallMetric::Undirected);
        row.copy_from_slice(&dists);
    }
    d
}

/// Validates a support slice: non-empty, strictly increasing, in range.
fn check_support(support: &[usize], k: usize) {
    assert!(!support.is_empty(), "support must be non-empty");
    assert!(
        support.windows(2).all(|w| w[0] < w[1]),
        "support must be sorted and duplicate-free"
    );
    assert!(*support.last().unwrap() < k, "support id out of range");
}

impl VlpInstance {
    /// Builds a [`LocalityPlan`] for this instance's auxiliary graph.
    pub fn locality_plan(&self, rho: f64, protection: f64) -> LocalityPlan {
        LocalityPlan::build(self.aux.graph(), rho, protection)
    }

    /// The unreduced restricted `(ε, radius)` audit spec over
    /// `support`, with full-graph `d_min` distances in the exponents —
    /// what [`crate::privacy::verify`] checks a locally-relevant
    /// mechanism against. [`Self::solve_local`] solves its
    /// [`chain_reduced`] subset on a partial support.
    pub fn local_spec(&self, support: &[usize], epsilon: f64, radius: f64) -> PrivacySpec {
        check_support(support, self.len());
        PrivacySpec::within_radius(support.len(), epsilon, radius, |a, b| {
            self.aux.distance_min(support[a], support[b])
        })
    }

    /// Solves D-VLP restricted to `support` (sorted global interval
    /// ids) at `(epsilon, radius)`-Geo-I.
    ///
    /// With full support this delegates verbatim to [`Self::solve`] —
    /// the radius-∞ case *is* the full-shard solve, bit for bit, on the
    /// Algorithm 1 spec. With a partial support it builds the
    /// restricted cost (raw restricted priors) and solves the
    /// `O(k²)`-variable LP on the [`chain_reduced`] subset of
    /// [`Self::local_spec`] (full-graph `d_min`; see the module docs for
    /// why Algorithm 1 must not run on an induced subgraph). Either way
    /// the result is audited against [`Self::local_spec`]. This is the
    /// dense reference [`LocalShard::solve_neighborhood`] matches bit
    /// for bit.
    ///
    /// # Errors
    ///
    /// Propagates solver failures as [`VlpError`].
    ///
    /// # Panics
    ///
    /// Panics if `support` is empty, unsorted, or out of range.
    pub fn solve_local(
        &self,
        epsilon: f64,
        radius: f64,
        support: &[usize],
        opts: &CgOptions,
    ) -> Result<LocalSolve, VlpError> {
        let big_k = self.len();
        check_support(support, big_k);
        if support.len() == big_k {
            let solved = self.solve(epsilon, radius, opts)?;
            let lp_rows = solved.spec.lp_row_count(big_k);
            return Ok(LocalSolve {
                support: Arc::new(support.to_vec()),
                mechanism: solved.mechanism,
                quality_loss: solved.quality_loss,
                diagnostics: solved.diagnostics,
                lp_vars: big_k * big_k,
                lp_rows,
            });
        }
        let table: Vec<f64> = support
            .iter()
            .flat_map(|&i| support.iter().map(move |&q| self.interval_dists.get(i, q)))
            .collect();
        let cost = support_cost(&table, support, &self.f_p, &self.f_q);
        let k = support.len();
        let spec = chain_reduced(&self.local_spec(support, epsilon, radius), k);
        let lp_rows = spec.lp_row_count(k);
        let (mechanism, quality_loss, diagnostics) = solve_column_generation(&cost, &spec, opts)?;
        Ok(LocalSolve {
            support: Arc::new(support.to_vec()),
            mechanism,
            quality_loss,
            diagnostics,
            lp_vars: k * k,
            lp_rows,
        })
    }
}

/// Sparse node-to-node distance table for [`travel_distance_via`]:
/// exact Dijkstra distances for the (source, target) node pairs a
/// neighborhood's cost build consults, and nothing else.
struct SparseNodeDists {
    /// `rows[s]` is `Some(per-target distances)` only for source nodes.
    rows: Vec<Option<Vec<f64>>>,
    /// `target_slot[t]` is the column of node `t` in a source row.
    target_slot: Vec<Option<usize>>,
}

impl NodeMetric for SparseNodeDists {
    fn node_dist(&self, s: NodeId, t: NodeId) -> f64 {
        let slot = self.target_slot[t.0].expect("consulted target was precomputed");
        match &self.rows[s.0] {
            Some(row) => row[slot],
            None => unreachable!("consulted source was precomputed"),
        }
    }
}

impl SparseNodeDists {
    /// Runs one target-terminated Dijkstra per unique source node.
    /// Settled distances are bit-identical to the all-pairs matrix.
    fn build(graph: &RoadGraph, sources: &[NodeId], targets: &[NodeId]) -> Self {
        let n = graph.node_count();
        let mut target_slot = vec![None; n];
        let mut uniq_targets = Vec::new();
        for &t in targets {
            if target_slot[t.0].is_none() {
                target_slot[t.0] = Some(uniq_targets.len());
                uniq_targets.push(t);
            }
        }
        let mut rows: Vec<Option<Vec<f64>>> = vec![None; n];
        for &s in sources {
            if rows[s.0].is_none() {
                rows[s.0] = Some(distances_to_targets(
                    graph,
                    s,
                    &uniq_targets,
                    BallMetric::Out,
                ));
            }
        }
        Self { rows, target_slot }
    }
}

/// The solve engine of one region shard. Neighborhoods smaller than
/// the shard never build an `O(K²)` matrix: boot cost is `O(K)` plus
/// one bounded Dijkstra ball per ρ-net center, and each solve touches
/// only its neighborhood.
///
/// A neighborhood spanning the whole shard delegates exact solves,
/// audit specs, fallbacks, and the clustered tier to a dense
/// [`VlpInstance`], so it is bit-identical to the full-shard D-VLP.
/// [`Self::whole_shard`] takes that instance at construction (the
/// service's full mode); [`Self::uniform`] builds it on first use (e.g.
/// at `rho = ∞`). Prior updates keep it and rebuild only its costs.
#[derive(Debug, Clone)]
pub struct LocalShard {
    graph: RoadGraph,
    disc: Discretization,
    aux_graph: RoadGraph,
    f_p: Prior,
    f_q: Prior,
    plan: LocalityPlan,
    /// The dense instance backing whole-shard neighborhoods.
    dense: OnceLock<Arc<VlpInstance>>,
}

impl LocalShard {
    /// The whole shard as one neighborhood, backed by `dense`: the
    /// paper's region-wide D-VLP at protection radius `protection`.
    /// The graph, discretization, auxiliary graph, and priors are the
    /// instance's own, and no Dijkstra runs — the plan is the one
    /// [`LocalityPlan::build`] yields at `rho = ∞` on a connected
    /// shard.
    ///
    /// # Panics
    ///
    /// Panics if the instance has no intervals or `protection` is
    /// negative or NaN.
    pub fn whole_shard(dense: VlpInstance, protection: f64) -> Self {
        Self {
            graph: dense.graph.clone(),
            disc: dense.disc.clone(),
            aux_graph: dense.aux.graph().clone(),
            f_p: dense.f_p.clone(),
            f_q: dense.f_q.clone(),
            plan: LocalityPlan::whole(dense.len(), protection),
            dense: OnceLock::from(Arc::new(dense)),
        }
    }

    /// Builds a shard with uniform priors, an assignment radius `rho`,
    /// and a protection radius `protection` (the Geo-I `r` the support
    /// balls must be padded with).
    ///
    /// # Panics
    ///
    /// Panics if `rho` is finite while `protection` is infinite (a
    /// support ball of radius ∞ around every center would defeat the
    /// mode; use `rho = ∞` for the explicit full-shard case).
    pub fn uniform(graph: RoadGraph, delta: f64, rho: f64, protection: f64) -> Self {
        assert!(
            rho.is_infinite() || protection.is_finite(),
            "finite rho requires a finite protection radius"
        );
        let disc = Discretization::new(&graph, delta);
        let prior = Prior::uniform(disc.len());
        let aux_graph = aux_road_graph(&graph, &disc);
        let plan = LocalityPlan::build(&aux_graph, rho, protection);
        Self {
            graph,
            disc,
            aux_graph,
            f_p: prior.clone(),
            f_q: prior,
            plan,
            dense: OnceLock::new(),
        }
    }

    /// The road graph.
    pub fn graph(&self) -> &RoadGraph {
        &self.graph
    }

    /// The δ-interval partition.
    pub fn disc(&self) -> &Discretization {
        &self.disc
    }

    /// The locality plan (canonical neighborhood ids).
    pub fn plan(&self) -> &LocalityPlan {
        &self.plan
    }

    /// Number of intervals `K`.
    pub fn len(&self) -> usize {
        self.disc.len()
    }

    /// Whether the shard has no intervals.
    pub fn is_empty(&self) -> bool {
        self.disc.is_empty()
    }

    /// The canonical neighborhood id of interval `i`.
    pub fn neighborhood_of(&self, interval: usize) -> u32 {
        self.plan.assignment(interval)
    }

    /// Sorted global support of neighborhood `nb`.
    pub fn members(&self, nb: u32) -> &[usize] {
        &self.plan.neighborhood(nb).members
    }

    /// Replaces the worker prior `f_P`. Restricted costs are built per
    /// solve from the raw priors; a dense instance, if held, is updated
    /// copy-on-write with [`VlpInstance::set_worker_prior`], which
    /// rebuilds only its cost matrix.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn set_worker_prior(&mut self, f_p: Prior) {
        assert_eq!(f_p.len(), self.disc.len(), "f_P dimension mismatch");
        if let Some(dense) = self.dense.get_mut() {
            Arc::make_mut(dense).set_worker_prior(f_p.clone());
        }
        self.f_p = f_p;
    }

    /// The dense instance backing whole-shard neighborhoods, if the
    /// shard holds one: always after [`Self::whole_shard`]; after
    /// [`Self::uniform`], only once a whole-shard solve built it. Never
    /// builds it.
    pub fn dense_instance(&self) -> Option<&Arc<VlpInstance>> {
        self.dense.get()
    }

    /// The dense instance backing whole-shard neighborhoods, built on
    /// first use unless the shard holds one (crate-visible so the
    /// clustered tier in [`crate::tiers`] shares it).
    pub(crate) fn dense(&self) -> &Arc<VlpInstance> {
        self.dense.get_or_init(|| {
            Arc::new(VlpInstance::with_disc(
                self.graph.clone(),
                self.disc.clone(),
                self.f_p.clone(),
                self.f_q.clone(),
            ))
        })
    }

    /// The restricted cost matrix over `members`, shared by the exact
    /// neighborhood solve and the clustered tier: the dense build's
    /// midpoint table and Eq. 19 kernel, with node distances from
    /// target-terminated Dijkstra runs from the member edges' end nodes
    /// in place of the all-pairs matrix.
    pub(crate) fn restricted_member_cost(&self, members: &[usize]) -> CostMatrix {
        let mids: Vec<_> = members
            .iter()
            .map(|&g| self.disc.interval(g).midpoint())
            .collect();
        let sources: Vec<NodeId> = mids
            .iter()
            .map(|m| self.graph.edge(m.edge()).end())
            .collect();
        let targets: Vec<NodeId> = mids
            .iter()
            .map(|m| self.graph.edge(m.edge()).start())
            .collect();
        let node_dists = SparseNodeDists::build(&self.graph, &sources, &targets);
        let table = midpoint_table(&self.graph, &node_dists, &mids);
        support_cost(&table, members, &self.f_p, &self.f_q)
    }

    /// The unreduced restricted `(ε, protection)` spec of neighborhood
    /// `nb` — the audit spec every mechanism served for `nb` is verified
    /// against, and the input of every solve: the exact solve of a
    /// partial neighborhood enforces its [`chain_reduced`] subset, the
    /// clustering tier takes its cluster distances from it. A
    /// whole-shard neighborhood audits against [`PrivacySpec::full`].
    pub fn audit_spec(&self, nb: u32, epsilon: f64) -> PrivacySpec {
        let members = self.members(nb);
        let radius = self.plan.protection();
        if members.len() == self.len() {
            return PrivacySpec::full(&self.dense().aux, epsilon, radius);
        }
        // One directed radius-`r` ball on the auxiliary graph per member:
        // `d_min(a, b) ≤ r` iff either directed distance settles within
        // `r`, and settled distances are bit-identical to the dense
        // all-pairs runs, so every in-radius entry of the local table is
        // exact and the rest stay infinite.
        let k = members.len();
        let mut d_min = vec![f64::INFINITY; k * k];
        for (a, &g) in members.iter().enumerate() {
            for (v, d) in bounded_ball(&self.aux_graph, NodeId(g), radius, BallMetric::Out) {
                if let Some(b) = local_index(members, v.0) {
                    d_min[a * k + b] = d_min[a * k + b].min(d);
                    d_min[b * k + a] = d_min[b * k + a].min(d);
                }
            }
        }
        PrivacySpec::within_radius(k, epsilon, radius, |a, b| d_min[a * k + b])
    }

    /// Solves neighborhood `nb` at budget `epsilon`: an
    /// `O(k²)`-variable LP whose cost and constraints are computed with
    /// neighborhood-bounded Dijkstra runs, on the [`chain_reduced`]
    /// subset of [`Self::audit_spec`] — bit-identical to
    /// [`VlpInstance::solve_local`] over the same support, without the
    /// dense `O(K²)` precomputation. Full-support neighborhoods
    /// delegate to the dense instance ([`VlpInstance::solve`], on the
    /// Algorithm 1 spec). Either way the result is audited against
    /// [`Self::audit_spec`].
    ///
    /// # Errors
    ///
    /// Propagates solver failures as [`VlpError`].
    pub fn solve_neighborhood(
        &self,
        nb: u32,
        epsilon: f64,
        opts: &CgOptions,
    ) -> Result<LocalSolve, VlpError> {
        let members = self.members(nb);
        if members.len() == self.len() {
            return self
                .dense()
                .solve_local(epsilon, self.plan.protection(), members, opts);
        }
        let cost = self.restricted_member_cost(members);
        let k = members.len();
        let spec = chain_reduced(&self.audit_spec(nb, epsilon), k);
        let lp_rows = spec.lp_row_count(k);
        let (mechanism, quality_loss, diagnostics) = solve_column_generation(&cost, &spec, opts)?;
        Ok(LocalSolve {
            support: Arc::new(members.to_vec()),
            mechanism,
            quality_loss,
            diagnostics,
            lp_vars: k * k,
            lp_rows,
        })
    }

    /// The closed-form per-neighborhood fallback at budget `epsilon`:
    /// graph-Laplace over the *restricted* metric-closure submatrix,
    /// `z_{a,b} ∝ e^{−(ε/2)·d̂(a,b)}` row-normalized over the support.
    ///
    /// Privacy: `d̂` restricted to the support is still symmetric and
    /// still satisfies the triangle inequality (it is a global metric
    /// evaluated on a subset — paths may leave the neighborhood), so
    /// the proof of [`crate::baseline::graph_laplace`] carries over
    /// verbatim, with `d̂ ≤ d_min` matching every audit-spec exponent.
    /// Full-support neighborhoods delegate to the dense
    /// [`VlpInstance::fallback`].
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not positive or the support is not
    /// `d̂`-connected to itself (impossible on strongly connected
    /// shards).
    pub fn fallback_neighborhood(&self, nb: u32, epsilon: f64) -> Mechanism {
        assert!(epsilon > 0.0, "epsilon must be positive");
        let members = self.members(nb);
        if members.len() == self.len() {
            return self.dense().fallback(epsilon);
        }
        let k = members.len();
        let mut z: Vec<f64> = support_d_hat(&self.aux_graph, members)
            .into_iter()
            .map(|d| {
                assert!(d.is_finite(), "support must be connected under d-hat");
                (-(epsilon / 2.0) * d).exp()
            })
            .collect();
        for row in z.chunks_mut(k) {
            let total: f64 = row.iter().sum();
            for slot in row.iter_mut() {
                *slot /= total;
            }
        }
        Mechanism::from_matrix(k, z, 1e-9).expect("restricted graph-Laplace is row-stochastic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privacy;
    use roadnet::generators;

    fn small_instance() -> VlpInstance {
        VlpInstance::uniform(generators::grid(3, 3, 0.4, true), 0.2)
    }

    #[test]
    fn plan_covers_every_interval_within_rho() {
        let inst = small_instance();
        let plan = inst.locality_plan(0.5, 0.4);
        assert_eq!(plan.len(), inst.len());
        assert!(plan.neighborhood_count() >= 1);
        for i in 0..inst.len() {
            let nb = plan.assignment(i);
            let hood = plan.neighborhood(nb);
            assert!(
                hood.members.binary_search(&i).is_ok(),
                "interval {i} missing from its own neighborhood"
            );
        }
        // Centers are members of their own neighborhoods and every
        // members list is sorted and duplicate-free.
        for hood in plan.neighborhoods() {
            assert!(hood.members.binary_search(&hood.center).is_ok());
            assert!(hood.members.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let inst = small_instance();
        let a = inst.locality_plan(0.5, 0.4);
        let b = inst.locality_plan(0.5, 0.4);
        assert_eq!(a.neighborhoods(), b.neighborhoods());
        assert_eq!(
            (0..inst.len()).map(|i| a.assignment(i)).collect::<Vec<_>>(),
            (0..inst.len()).map(|i| b.assignment(i)).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn infinite_rho_is_one_full_neighborhood() {
        let inst = small_instance();
        let plan = inst.locality_plan(f64::INFINITY, 0.4);
        assert_eq!(plan.neighborhood_count(), 1);
        assert_eq!(plan.neighborhood(0).members.len(), inst.len());
    }

    #[test]
    fn every_r_close_counterpart_is_in_support() {
        // The locality theorem, checked exhaustively: for every
        // interval i and every l with d_min(i, l) <= r, l is in i's
        // assigned neighborhood support.
        let inst = small_instance();
        let r = 0.4;
        let plan = inst.locality_plan(0.5, r);
        for i in 0..inst.len() {
            let hood = plan.neighborhood(plan.assignment(i));
            for l in 0..inst.len() {
                if inst.aux.distance_min(i, l) <= r {
                    assert!(
                        hood.members.binary_search(&l).is_ok(),
                        "interval {l} within r of {i} but outside its support"
                    );
                }
            }
        }
    }

    #[test]
    fn full_support_solve_local_delegates_bit_identically() {
        let inst = small_instance();
        let full: Vec<usize> = (0..inst.len()).collect();
        let opts = CgOptions::default();
        let a = inst.solve(3.0, 0.5, &opts).unwrap();
        let b = inst.solve_local(3.0, 0.5, &full, &opts).unwrap();
        assert_eq!(a.mechanism, b.mechanism);
        assert_eq!(a.quality_loss.to_bits(), b.quality_loss.to_bits());
        assert_eq!(b.lp_vars, inst.len() * inst.len());
    }

    #[test]
    fn restricted_solve_is_epsilon_valid_and_smaller() {
        let inst = small_instance();
        let r = 0.4;
        let plan = inst.locality_plan(0.4, r);
        assert!(plan.neighborhood_count() > 1, "rho too large for the test");
        let nb = plan.assignment(0);
        let members = &plan.neighborhood(nb).members;
        assert!(members.len() < inst.len());
        let solved = inst
            .solve_local(3.0, r, members, &CgOptions::default())
            .unwrap();
        assert_eq!(solved.lp_vars, members.len() * members.len());
        let spec = inst.local_spec(members, 3.0, r);
        assert!(privacy::verify(&solved.mechanism, &spec, 1e-6));
    }

    #[test]
    fn sparse_engine_matches_dense_bit_for_bit() {
        let graph = generators::grid(3, 3, 0.4, true);
        let inst = VlpInstance::uniform(graph.clone(), 0.2);
        let shard = LocalShard::uniform(graph, 0.2, 0.4, 0.4);
        let opts = CgOptions::default();
        for nb in 0..shard.plan().neighborhood_count() as u32 {
            let members = shard.members(nb).to_vec();
            if members.len() == shard.len() {
                continue;
            }
            let sparse = shard.solve_neighborhood(nb, 3.0, &opts).unwrap();
            let dense = inst.solve_local(3.0, 0.4, &members, &opts).unwrap();
            assert_eq!(sparse.mechanism, dense.mechanism, "nb {nb}");
            assert_eq!(
                sparse.quality_loss.to_bits(),
                dense.quality_loss.to_bits(),
                "nb {nb}"
            );
            // And the audit specs agree exactly.
            let a = shard.audit_spec(nb, 3.0);
            let b = inst.local_spec(&members, 3.0, 0.4);
            assert_eq!(a, b, "nb {nb}");
        }
    }

    #[test]
    fn sparse_cost_at_full_support_matches_dense_cost_bit_for_bit() {
        // Whole-shard neighborhoods delegate to the dense instance, so
        // only a direct call puts the sparse distance source through the
        // shared kernel over every interval. A skewed worker prior with
        // zero-mass intervals exercises the kernel's skipped rows.
        let graph = generators::grid(3, 3, 0.4, true);
        let mut inst = VlpInstance::uniform(graph.clone(), 0.2);
        let mut shard = LocalShard::uniform(graph, 0.2, 0.4, 0.4);
        let k = shard.len();
        let weights: Vec<f64> = (0..k).map(|i| (i % 3) as f64 * 0.7).collect();
        let f_p = Prior::from_weights(&weights).unwrap();
        inst.set_worker_prior(f_p.clone());
        shard.set_worker_prior(f_p);
        let all: Vec<usize> = (0..k).collect();
        let sparse = shard.restricted_member_cost(&all);
        assert_eq!(sparse.len(), k);
        for i in 0..k {
            for l in 0..k {
                assert_eq!(
                    sparse.get(i, l).to_bits(),
                    inst.cost.get(i, l).to_bits(),
                    "({i}, {l})"
                );
            }
        }
    }

    #[test]
    fn sparse_fallback_is_epsilon_valid_per_neighborhood() {
        let shard = LocalShard::uniform(generators::grid(3, 3, 0.4, true), 0.2, 0.4, 0.4);
        for nb in 0..shard.plan().neighborhood_count() as u32 {
            let mech = shard.fallback_neighborhood(nb, 5.0);
            let spec = shard.audit_spec(nb, 5.0);
            assert!(
                privacy::verify(&mech, &spec, 1e-9),
                "fallback for nb {nb} violates Geo-I"
            );
        }
    }

    #[test]
    fn infinite_rho_shard_delegates_to_dense_solve() {
        let graph = generators::grid(2, 2, 0.5, true);
        let inst = VlpInstance::uniform(graph.clone(), 0.25);
        let shard = LocalShard::uniform(graph, 0.25, f64::INFINITY, 0.5);
        assert_eq!(shard.plan().neighborhood_count(), 1);
        let opts = CgOptions::default();
        let a = inst.solve(2.0, 0.5, &opts).unwrap();
        let b = shard.solve_neighborhood(0, 2.0, &opts).unwrap();
        assert_eq!(a.mechanism, b.mechanism);
        assert_eq!(
            inst.fallback(2.0),
            shard.fallback_neighborhood(0, 2.0),
            "full-support fallback must be the dense graph-Laplace"
        );
    }

    #[test]
    #[should_panic(expected = "finite rho requires a finite protection radius")]
    fn rejects_infinite_protection_with_finite_rho() {
        LocalShard::uniform(generators::grid(2, 2, 0.5, true), 0.25, 0.4, f64::INFINITY);
    }

    #[test]
    fn local_index_maps_support_to_rows() {
        let support = vec![2, 5, 9];
        assert_eq!(local_index(&support, 5), Some(1));
        assert_eq!(local_index(&support, 4), None);
        assert_eq!(local_index(&[0, 1, 2, 3], 2), Some(2));
        assert_eq!(local_index(&[0, 2, 3], 2), Some(1));
    }
}
