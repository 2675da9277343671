//! Constraint reduction for D-VLP (§4.2, Algorithm 1).
//!
//! The unreduced Geo-I constraint set pairs every two intervals within
//! the protection radius — `O(K²)` pairs, `O(K³)` LP rows. By the
//! transitivity of Geo-I along shortest paths of the auxiliary graph
//! (Theorem 4.2), it suffices to constrain *adjacent* interval pairs
//! lying on a chosen shortest path between each pair: chaining
//! `z_i ≤ e^{εδ} z_{i+1}` along the shorter-direction path of length
//! `d_min(u_i, u_l)` reproduces exactly `z_i ≤ e^{ε·d_min} z_l`, so the
//! reduced program has the same feasible region and the same optimum.
//!
//! Per Property 4.1 both directions of every marked adjacent pair are
//! constrained (each with exponent `ε·δ`), which makes the chained
//! implication available in both directions.
//!
//! Algorithm 1 walks shortest paths of the whole auxiliary graph, so it
//! is only sound where those paths stay inside the constrained vertex
//! set. [`chain_reduced`] applies the same chaining fact to a given
//! spec instead — dropping pairs that two shorter pairs *of that spec*
//! imply — which is sound on any support.

use std::collections::HashSet;

use roadnet::{NodeId, ShortestPathTree, TreeDirection};

use crate::auxiliary::AuxiliaryGraph;
use crate::privacy::{PrivacyConstraint, PrivacySpec};

/// Telemetry metric names recorded by constraint reduction.
pub mod metrics {
    /// Counter: number of `reduced_spec` invocations.
    pub const REDUCTIONS: &str = "cr.reductions";
    /// Series: directed pair count of the *unreduced* spec, `K·(K−1)`,
    /// one sample per reduction (the O(K²) baseline of Theorem 4.2).
    pub const CONSTRAINTS_FULL: &str = "cr.constraints_full";
    /// Series: directed pair count after reduction, one sample per
    /// reduction (the O(K) set of Algorithm 1).
    pub const CONSTRAINTS_REDUCED: &str = "cr.constraints_reduced";
    /// Timer: wall time of one `reduced_spec` call (SPT walks plus the
    /// unordered-pair collapse).
    pub const REDUCE_TIME: &str = "cr.reduce";
}

/// The output of Algorithm 1: which adjacent interval pairs carry a
/// Geo-I constraint.
#[derive(Debug, Clone)]
pub struct ReductionResult {
    /// Directed auxiliary-graph edges `(l, k)` marked by the traversal
    /// (the indicator matrix `U_con` of Algorithm 1, sparsely stored).
    pub marked: HashSet<(usize, usize)>,
    /// Number of interval vertices `K`.
    pub k: usize,
}

/// Runs Algorithm 1 on the auxiliary graph.
///
/// For every root vertex `u'_i` the algorithm builds SPT-Out(i) and
/// SPT-In(i), categorizes every other vertex by which direction gives
/// the shorter path (line 5–9), and marks the edges of the chosen
/// shortest path of every categorized vertex within `radius`
/// (line 10–13). Shared path suffixes are marked once per root, keeping
/// the whole run at `O(K·(M + K log K))`.
pub fn reduce_constraints(aux: &AuxiliaryGraph, radius: f64) -> ReductionResult {
    let graph = aux.graph();
    let k = graph.node_count();
    let mut marked: HashSet<(usize, usize)> = HashSet::new();
    // Scratch: whether a vertex's `via` edge was already marked during
    // the current root's traversal (separate flags per tree).
    let mut done_out = vec![false; k];
    let mut done_in = vec![false; k];
    for i in 0..k {
        let spt_out = ShortestPathTree::build(graph, NodeId(i), TreeDirection::Out);
        let spt_in = ShortestPathTree::build(graph, NodeId(i), TreeDirection::In);
        done_out.iter_mut().for_each(|f| *f = false);
        done_in.iter_mut().for_each(|f| *f = false);
        for j in 0..k {
            if j == i {
                continue;
            }
            let d_out = spt_out.distance(NodeId(j));
            let d_in = spt_in.distance(NodeId(j));
            if d_out.min(d_in) > radius {
                continue;
            }
            // Line 6–9: categorize into U'_Out (shorter from the root)
            // or U'_In (shorter towards the root); walk the chosen
            // path marking edges until a previously walked suffix.
            if d_out <= d_in {
                // Walk up the Out tree: via_edge(cur) enters cur.
                let mut cur = j;
                while cur != i && !done_out[cur] {
                    done_out[cur] = true;
                    let Some(eid) = spt_out.via_edge(NodeId(cur)) else {
                        break;
                    };
                    let e = graph.edge(eid);
                    marked.insert((e.start().index(), e.end().index()));
                    cur = e.start().index();
                }
            } else {
                // Walk down the In tree: via_edge(cur) leaves cur.
                let mut cur = j;
                while cur != i && !done_in[cur] {
                    done_in[cur] = true;
                    let Some(eid) = spt_in.via_edge(NodeId(cur)) else {
                        break;
                    };
                    let e = graph.edge(eid);
                    marked.insert((e.start().index(), e.end().index()));
                    cur = e.end().index();
                }
            }
        }
    }
    ReductionResult { marked, k }
}

impl ReductionResult {
    /// Number of distinct *unordered* adjacent pairs marked.
    pub fn pair_count(&self) -> usize {
        let mut pairs: HashSet<(usize, usize)> = HashSet::new();
        for &(a, b) in &self.marked {
            pairs.insert(if a < b { (a, b) } else { (b, a) });
        }
        pairs.len()
    }
}

/// Builds the constraint-reduced `(ε, r)`-Geo-I spec: both directions
/// of every marked adjacent pair, each with the exponent distance
/// `d_min(u_a, u_b)` of that adjacency (the auxiliary-graph edge
/// weight; `δ` in the paper's idealized uniform-weight setting, the
/// target interval's actual length here — see
/// [`crate::AuxiliaryGraph`]'s edge-weight notes).
///
/// # Panics
///
/// Panics if `epsilon` is not positive or `radius` is negative/NaN.
pub fn reduced_spec(aux: &AuxiliaryGraph, epsilon: f64, radius: f64) -> PrivacySpec {
    assert!(epsilon > 0.0, "epsilon must be positive");
    assert!(radius >= 0.0, "radius must be non-negative");
    let obs = vlp_obs::global();
    let _span = obs.start(metrics::REDUCE_TIME);
    // Weight of each directed adjacency.
    let mut edge_weight: std::collections::HashMap<(usize, usize), f64> =
        std::collections::HashMap::new();
    for e in aux.graph().edges() {
        let key = (e.start().index(), e.end().index());
        let w = edge_weight.entry(key).or_insert(f64::INFINITY);
        *w = w.min(e.length());
    }
    let result = reduce_constraints(aux, radius);
    // Collapse to unordered pairs with the minimum adjacent weight
    // (d_min of the pair).
    let mut pairs: std::collections::HashMap<(usize, usize), f64> =
        std::collections::HashMap::new();
    for &(a, b) in &result.marked {
        let w = edge_weight[&(a, b)];
        let key = if a < b { (a, b) } else { (b, a) };
        let cur = pairs.entry(key).or_insert(f64::INFINITY);
        *cur = cur.min(w);
    }
    let mut constraints = Vec::with_capacity(2 * pairs.len());
    let mut sorted: Vec<_> = pairs.into_iter().collect();
    sorted.sort_unstable_by_key(|&(key, _)| key);
    for ((a, b), w) in sorted {
        constraints.push(PrivacyConstraint {
            i: a,
            l: b,
            dist: w,
        });
        constraints.push(PrivacyConstraint {
            i: b,
            l: a,
            dist: w,
        });
    }
    let k = aux.len();
    obs.incr(metrics::REDUCTIONS, 1);
    obs.push(metrics::CONSTRAINTS_FULL, (k * k.saturating_sub(1)) as f64);
    obs.push(metrics::CONSTRAINTS_REDUCED, constraints.len() as f64);
    PrivacySpec {
        epsilon,
        radius,
        constraints,
    }
}

/// Drops every constraint of `spec` (a spec over `k` intervals) that
/// two strictly shorter constraints of the same spec imply through a
/// third interval: `(a, b)` with exponent `d_ab` goes when some `m`
/// has `(a, m)` and `(m, b)` in `spec` with `d_am < d_ab`,
/// `d_mb < d_ab` and `d_am + d_mb ≤ d_ab` (plain float comparisons, no
/// tolerance). The kept constraints stay in `spec`'s order.
///
/// Sound by induction on the exponent: both constituents are strictly
/// shorter, so each is kept or itself implied, and chaining gives
/// `z_a ≤ e^{ε·d_am}·e^{ε·d_mb}·z_b ≤ e^{ε·d_ab}·z_b` in every column.
/// The comparisons are strict because the induction needs them: with
/// `d_am = 0`, or a `d_am` too small to change the float sum, `d_mb`
/// can equal `d_ab`, and two such pairs would each justify dropping
/// the other. Unlike [`reduced_spec`], only constraints already in
/// `spec` are chained, with their own exponents, so no chain leaves a
/// restricted support. The locally-relevant solves of
/// [`crate::local`] run on this subset; the unreduced `spec` stays
/// what the solved mechanism is audited against.
///
/// # Panics
///
/// Panics if a constraint names an interval `≥ k`.
pub fn chain_reduced(spec: &PrivacySpec, k: usize) -> PrivacySpec {
    // Smallest exponent per ordered pair; +∞ where the spec has none,
    // which no strict comparison below accepts.
    let mut dist = vec![f64::INFINITY; k * k];
    for c in &spec.constraints {
        let slot = &mut dist[c.i * k + c.l];
        *slot = slot.min(c.dist);
    }
    let implied = |c: &PrivacyConstraint| {
        (0..k).any(|m| {
            let (d_am, d_mb) = (dist[c.i * k + m], dist[m * k + c.l]);
            d_am < c.dist && d_mb < c.dist && d_am + d_mb <= c.dist
        })
    };
    PrivacySpec {
        epsilon: spec.epsilon,
        radius: spec.radius,
        constraints: spec
            .constraints
            .iter()
            .filter(|c| !implied(c))
            .copied()
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discretize::Discretization;
    use roadnet::generators;

    fn aux(delta: f64) -> AuxiliaryGraph {
        let g = generators::grid(3, 3, 0.4, true);
        let d = Discretization::new(&g, delta);
        AuxiliaryGraph::build(&g, &d)
    }

    #[test]
    fn reduction_marks_only_adjacent_pairs() {
        let aux = aux(0.2);
        let res = reduce_constraints(&aux, f64::INFINITY);
        let adjacency: std::collections::HashSet<(usize, usize)> = aux
            .graph()
            .edges()
            .iter()
            .map(|e| (e.start().index(), e.end().index()))
            .collect();
        for pair in &res.marked {
            assert!(
                adjacency.contains(pair),
                "non-adjacent pair marked: {pair:?}"
            );
        }
    }

    #[test]
    fn reduction_is_dramatically_smaller_than_full() {
        let aux = aux(0.2);
        let k = aux.len();
        let full = PrivacySpec::full(&aux, 5.0, f64::INFINITY);
        let reduced = reduced_spec(&aux, 5.0, f64::INFINITY);
        // Fig. 13(a): CR removes the vast majority of constraints.
        assert!(reduced.lp_row_count(k) < full.lp_row_count(k) / 10);
        // Reduced stays O(K·M).
        assert!(reduced.pair_count() <= 2 * aux.edge_count());
    }

    #[test]
    fn reduction_records_telemetry() {
        let aux = aux(0.2);
        let obs = vlp_obs::global();
        let before_runs = obs.counter(metrics::REDUCTIONS);
        let before_full = obs.series(metrics::CONSTRAINTS_FULL).len();
        let before_red = obs.series(metrics::CONSTRAINTS_REDUCED).len();
        let reduced = reduced_spec(&aux, 5.0, f64::INFINITY);
        // Lower bounds only: other tests flush to the same global
        // registry concurrently.
        assert!(obs.counter(metrics::REDUCTIONS) > before_runs);
        assert!(obs.series(metrics::CONSTRAINTS_FULL).len() > before_full);
        assert!(obs.series(metrics::CONSTRAINTS_REDUCED).len() > before_red);
        let k = aux.len();
        assert!(reduced.constraints.len() <= k * (k - 1));
        assert!(obs.timer(metrics::REDUCE_TIME).is_some());
    }

    #[test]
    fn reduced_constraints_have_delta_distance() {
        let aux = aux(0.2);
        let reduced = reduced_spec(&aux, 5.0, f64::INFINITY);
        for c in &reduced.constraints {
            assert!((c.dist - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn reduced_set_contains_both_directions() {
        let aux = aux(0.2);
        let reduced = reduced_spec(&aux, 5.0, f64::INFINITY);
        let set: std::collections::HashSet<(usize, usize)> =
            reduced.constraints.iter().map(|c| (c.i, c.l)).collect();
        for &(i, l) in &set {
            assert!(set.contains(&(l, i)), "missing reverse of ({i},{l})");
        }
    }

    #[test]
    fn every_adjacent_pair_is_covered() {
        // Every auxiliary edge is itself a shortest path between its two
        // endpoints, so Algorithm 1 must mark (at least one direction
        // of) every adjacency.
        let aux = aux(0.2);
        let res = reduce_constraints(&aux, f64::INFINITY);
        for e in aux.graph().edges() {
            let (a, b) = (e.start().index(), e.end().index());
            assert!(
                res.marked.contains(&(a, b)) || res.marked.contains(&(b, a)),
                "adjacency ({a},{b}) uncovered"
            );
        }
    }

    #[test]
    fn radius_zero_marks_nothing() {
        let aux = aux(0.2);
        let res = reduce_constraints(&aux, 0.0);
        assert!(res.marked.is_empty());
    }

    /// Min-plus closure of a spec's exponents over `k` intervals: the
    /// tightest chained exponent between every ordered pair
    /// (shortest path in "constraint space", Floyd-Warshall).
    fn chained_exponents(spec: &PrivacySpec, k: usize) -> Vec<f64> {
        let mut expdist = vec![f64::INFINITY; k * k];
        for i in 0..k {
            expdist[i * k + i] = 0.0;
        }
        for c in &spec.constraints {
            let slot = &mut expdist[c.i * k + c.l];
            *slot = slot.min(c.dist);
        }
        for m in 0..k {
            for i in 0..k {
                let dim = expdist[i * k + m];
                if !dim.is_finite() {
                    continue;
                }
                for l in 0..k {
                    let cand = dim + expdist[m * k + l];
                    if cand < expdist[i * k + l] {
                        expdist[i * k + l] = cand;
                    }
                }
            }
        }
        expdist
    }

    #[test]
    fn chained_bound_reaches_every_pair_within_radius() {
        // Chaining the reduced constraints along a shortest path must
        // reproduce the full constraint exponent for every pair.
        let aux = aux(0.25);
        let eps = 3.0;
        let reduced = reduced_spec(&aux, eps, f64::INFINITY);
        let k = aux.len();
        let expdist = chained_exponents(&reduced, k);
        for i in 0..k {
            for l in 0..k {
                if i == l {
                    continue;
                }
                let want = aux.distance_min(i, l);
                let got = expdist[i * k + l];
                assert!(
                    got <= want + 1e-9,
                    "pair ({i},{l}): chained exponent {got} exceeds d_min {want}"
                );
            }
        }

        // The chain-reduced spec of every partial neighborhood of a
        // finite-ρ shard on the same grid: chaining the kept
        // constraints, all inside the support, must reach every pair
        // of the unreduced restricted spec within its exponent.
        let graph = generators::grid(3, 3, 0.4, true);
        let shard = crate::local::LocalShard::uniform(graph, 0.25, 0.4, 0.4);
        let mut partial = 0;
        for nb in 0..shard.plan().neighborhood_count() as u32 {
            let k = shard.members(nb).len();
            if k == shard.len() {
                continue;
            }
            partial += 1;
            let audit = shard.audit_spec(nb, eps);
            let kept = chain_reduced(&audit, k);
            assert!(
                kept.pair_count() < audit.pair_count(),
                "nb {nb}: nothing dropped"
            );
            let expdist = chained_exponents(&kept, k);
            for c in &audit.constraints {
                let got = expdist[c.i * k + c.l];
                assert!(
                    got <= c.dist + 1e-9,
                    "nb {nb} pair ({},{}): chained exponent {got} exceeds {}",
                    c.i,
                    c.l,
                    c.dist
                );
            }
        }
        assert!(partial > 0, "rho too large for the test");
    }

    #[test]
    fn zero_and_sub_ulp_exponents_never_justify_a_drop() {
        // `a` and `m` coincide (exponent 0, the degenerate-map case of a
        // zero-length stretch), and both lie `x` from `b`. Chaining
        // through the zero pair would let (a, b) and (m, b) each justify
        // dropping the other, leaving `b` unconstrained against both.
        // The same holds for a positive exponent too small to move the
        // float sum.
        let (a, m, b) = (0, 1, 2);
        let x = 0.3;
        for tiny in [0.0, 1e-20] {
            let mut constraints = Vec::new();
            for (i, l, dist) in [(a, m, tiny), (a, b, x), (m, b, x)] {
                constraints.push(PrivacyConstraint { i, l, dist });
                constraints.push(PrivacyConstraint { i: l, l: i, dist });
            }
            let spec = PrivacySpec {
                epsilon: 2.0,
                radius: f64::INFINITY,
                constraints,
            };
            let kept = chain_reduced(&spec, 3);
            for (i, l) in [(a, b), (m, b), (b, a), (b, m)] {
                assert!(
                    kept.constraints.iter().any(|c| (c.i, c.l) == (i, l)),
                    "exponent {tiny}: ({i},{l}) dropped"
                );
            }
        }
    }

    #[test]
    fn chain_reduction_drops_the_implied_pair_and_keeps_order() {
        // A path a — m — b at 0.2 km steps: the 0.4 km pair goes in
        // both directions, the adjacent pairs stay in input order.
        let mut constraints = Vec::new();
        for (i, l, dist) in [(0, 1, 0.2), (0, 2, 0.4), (1, 2, 0.2)] {
            constraints.push(PrivacyConstraint { i, l, dist });
            constraints.push(PrivacyConstraint { i: l, l: i, dist });
        }
        let spec = PrivacySpec {
            epsilon: 2.0,
            radius: 0.5,
            constraints,
        };
        let kept = chain_reduced(&spec, 3);
        let pairs: Vec<(usize, usize)> = kept.constraints.iter().map(|c| (c.i, c.l)).collect();
        assert_eq!(pairs, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
        assert_eq!((kept.epsilon, kept.radius), (spec.epsilon, spec.radius));
    }
}
