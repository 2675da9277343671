//! Dijkstra shortest paths, shortest-path trees, and all-pairs distances.
//!
//! The paper's constraint-reduction algorithm (Algorithm 1) builds, for
//! every vertex `u'_i` of the auxiliary graph, two shortest-path trees:
//! *SPT-Out(i)* (all paths leave `u'_i`) and *SPT-In(i)* (all paths end at
//! `u'_i`). [`ShortestPathTree`] supports both through
//! [`TreeDirection`]; the In tree is a Dijkstra run over the reversed
//! graph.
//!
//! Every search here — trees, the all-pairs matrix, bounded balls and
//! target-terminated runs — is the same Dijkstra loop with a different
//! stop rule. A run that stops early has performed an exact prefix of
//! the unbounded run's operations, so every distance it settles is
//! bit-identical to the one a full run or the all-pairs matrix holds.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::{EdgeId, NodeId, RoadGraph};

/// Telemetry metric names recorded by the shortest-path machinery.
pub mod metrics {
    /// Counter: single-source Dijkstra runs (one per tree, ball or
    /// targeted run, and one per source of an all-pairs build).
    pub const DIJKSTRA_RUNS: &str = "roadnet.dijkstra.runs";
    /// Counter: total nodes settled (popped with a final distance)
    /// across all Dijkstra runs.
    pub const SETTLED_NODES: &str = "roadnet.dijkstra.settled_nodes";
}

/// Whether a shortest-path tree is rooted as a source or a sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeDirection {
    /// Paths lead *from* the root to every other node (SPT-Out).
    Out,
    /// Paths lead from every node *to* the root (SPT-In).
    In,
}

/// Max-heap entry ordered so the smallest distance pops first.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the min distance.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// When a [`Dijkstra::run`] stops popping its heap.
enum Stop<'a> {
    /// Settle every reachable node.
    Never,
    /// Stop at the first pop beyond this distance.
    Radius(f64),
    /// Stop at the first pop after every node flagged in `is_target`
    /// is settled; `remaining` counts the flagged nodes not yet settled.
    Targets {
        is_target: &'a [bool],
        remaining: usize,
    },
}

/// Dijkstra working memory — distances, settled flags, the heap and,
/// when asked for, each node's tree edge — re-initialized, not
/// reallocated, by every run.
#[derive(Default)]
struct Dijkstra {
    dist: Vec<f64>,
    settled: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
    /// Per node, the edge of its last distance improvement (its tree
    /// edge once settled); kept only when `Some`.
    via: Option<Vec<Option<EdgeId>>>,
}

impl Dijkstra {
    /// The Dijkstra loop every search in this module runs: from `root`
    /// under `metric` until `stop`, calling `on_settle(v, d)` for each
    /// node as it settles (ascending distance, ties by ascending node
    /// id). Leaves the distances in `self.dist` and returns the number
    /// of settled nodes.
    fn run(
        &mut self,
        graph: &RoadGraph,
        root: usize,
        metric: BallMetric,
        mut stop: Stop,
        mut on_settle: impl FnMut(usize, f64),
    ) -> u64 {
        let n = graph.node_count();
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.settled.clear();
        self.settled.resize(n, false);
        if let Some(via) = &mut self.via {
            via.clear();
            via.resize(n, None);
        }
        self.heap.clear();
        self.dist[root] = 0.0;
        self.heap.push(HeapEntry {
            dist: 0.0,
            node: root,
        });
        let mut settled_count = 0u64;
        while let Some(HeapEntry { dist: d, node: v }) = self.heap.pop() {
            match stop {
                Stop::Radius(radius) if d > radius => break,
                Stop::Targets { remaining: 0, .. } => break,
                _ => {}
            }
            if self.settled[v] {
                continue;
            }
            self.settled[v] = true;
            settled_count += 1;
            if let Stop::Targets {
                is_target,
                remaining,
            } = &mut stop
            {
                if is_target[v] {
                    *remaining -= 1;
                }
            }
            on_settle(v, d);
            self.relax_neighbors(graph, metric, v, d);
        }
        settled_count
    }

    /// Relaxes the edges at `v` (settled at `d`) under `metric`:
    /// out-edges forwards, in-edges backwards, out before in for
    /// [`BallMetric::Undirected`].
    fn relax_neighbors(&mut self, graph: &RoadGraph, metric: BallMetric, v: usize, d: f64) {
        let node = NodeId(v);
        let (forward, backward): (&[EdgeId], &[EdgeId]) = match metric {
            BallMetric::Out => (graph.out_edges(node), &[]),
            BallMetric::In => (&[], graph.in_edges(node)),
            BallMetric::Undirected => (graph.out_edges(node), graph.in_edges(node)),
        };
        for (edges, is_forward) in [(forward, true), (backward, false)] {
            for &eid in edges {
                let e = graph.edge(eid);
                let w = if is_forward { e.end().0 } else { e.start().0 };
                let nd = d + e.length();
                if nd < self.dist[w] {
                    self.dist[w] = nd;
                    if let Some(via) = &mut self.via {
                        via[w] = Some(eid);
                    }
                    self.heap.push(HeapEntry { dist: nd, node: w });
                }
            }
        }
    }
}

/// Adds `runs` Dijkstra runs that settled `settled` nodes in total to
/// the global counters.
fn record_runs(runs: u64, settled: u64) {
    let obs = vlp_obs::global();
    obs.incr(metrics::DIJKSTRA_RUNS, runs);
    obs.incr(metrics::SETTLED_NODES, settled);
}

/// A shortest-path tree rooted at one connection.
///
/// Stores, for each node, the travel distance to/from the root and the
/// tree edge through which the shortest path passes, enabling path
/// reconstruction. Unreachable nodes have infinite distance and no
/// parent.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    root: NodeId,
    direction: TreeDirection,
    dist: Vec<f64>,
    /// For `Out`: the edge entering node `v` on the root→v path.
    /// For `In`: the edge leaving node `v` on the v→root path.
    via: Vec<Option<EdgeId>>,
}

impl ShortestPathTree {
    /// Runs Dijkstra from (`Out`) or towards (`In`) `root`.
    pub fn build(graph: &RoadGraph, root: NodeId, direction: TreeDirection) -> Self {
        let metric = match direction {
            TreeDirection::Out => BallMetric::Out,
            TreeDirection::In => BallMetric::In,
        };
        let mut search = Dijkstra {
            via: Some(Vec::new()),
            ..Dijkstra::default()
        };
        let settled = search.run(graph, root.0, metric, Stop::Never, |_, _| {});
        record_runs(1, settled);
        Self {
            root,
            direction,
            dist: search.dist,
            via: search.via.expect("tree runs record tree edges"),
        }
    }

    /// The root connection of this tree.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The direction this tree was built with.
    pub fn direction(&self) -> TreeDirection {
        self.direction
    }

    /// Travel distance between the root and `v` (root→v for `Out`,
    /// v→root for `In`). Infinite if unreachable.
    pub fn distance(&self, v: NodeId) -> f64 {
        self.dist[v.0]
    }

    /// Whether `v` is reachable in this tree's direction.
    pub fn is_reachable(&self, v: NodeId) -> bool {
        self.dist[v.0].is_finite()
    }

    /// The tree edge through which the shortest path passes at `v`:
    /// for an `Out` tree the edge *entering* `v` on the root→v path,
    /// for an `In` tree the edge *leaving* `v` on the v→root path.
    /// `None` for the root or unreachable nodes.
    pub fn via_edge(&self, v: NodeId) -> Option<EdgeId> {
        self.via[v.0]
    }

    /// The sequence of edges on the shortest path between the root and
    /// `v`, ordered along the direction of travel (borrowing the graph
    /// for edge-endpoint lookups — the tree does not store the graph).
    /// Empty if `v` is the root; `None` if unreachable.
    pub fn path_edges_on(&self, graph: &RoadGraph, v: NodeId) -> Option<Vec<EdgeId>> {
        if !self.is_reachable(v) {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = v.0;
        let mut guard = 0usize;
        while cur != self.root.0 {
            let eid = self.via[cur]?;
            edges.push(eid);
            let e = graph.edge(eid);
            cur = match self.direction {
                TreeDirection::Out => e.start().0,
                TreeDirection::In => e.end().0,
            };
            guard += 1;
            if guard > graph.edge_count() + 1 {
                return None; // corrupted tree; avoid infinite loop
            }
        }
        if self.direction == TreeDirection::Out {
            edges.reverse();
        }
        Some(edges)
    }
}

/// Which distance a bounded Dijkstra exploration measures.
///
/// `Out`/`In` mirror [`TreeDirection`]; `Undirected` treats every
/// directed edge as traversable both ways at its length, which computes
/// the *metric closure* `d̂` of the bidirectional distance
/// `d_min(u, v) = min{d(u→v), d(v→u)}`: any directed path is an
/// undirected walk (so `d̂ ≤` any chain of `d_min` hops), and every
/// undirected hop across an edge `u→v` costs at least `d_min(u, v)` (so
/// chains of `d_min` reach `d̂`). `d̂` is symmetric and satisfies the
/// triangle inequality even though `d_min` itself does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BallMetric {
    /// Directed distances from the root (`d_G(root, ·)`).
    Out,
    /// Directed distances towards the root (`d_G(·, root)`).
    In,
    /// Metric-closure distances `d̂(root, ·)` (see enum docs).
    Undirected,
}

/// Radius-bounded single-source Dijkstra: every node whose distance
/// from (or to, or metric-closure-from — see [`BallMetric`]) `root` is
/// at most `radius`, with its exact distance, in settling order
/// (ascending distance, ties by ascending node id).
///
/// The run stops at the first heap pop beyond `radius`, so its cost is
/// proportional to the ball, not the graph. Settled distances are
/// bit-identical to an unbounded run over the same metric (the bounded
/// run performs an exact prefix of the unbounded run's operations);
/// with `radius = ∞` it settles every reachable node.
pub fn bounded_ball(
    graph: &RoadGraph,
    root: NodeId,
    radius: f64,
    metric: BallMetric,
) -> Vec<(NodeId, f64)> {
    assert!(radius >= 0.0, "ball radius must be non-negative");
    let mut ball = Vec::new();
    let settled = Dijkstra::default().run(graph, root.0, metric, Stop::Radius(radius), |v, d| {
        ball.push((NodeId(v), d))
    });
    record_runs(1, settled);
    ball
}

/// Distances from `root` to each of `targets` under `metric`, by a
/// Dijkstra run that terminates as soon as every target is settled (so
/// clustered targets cost a ball around them, not a full sweep).
/// Unreachable targets come back infinite. Settled distances are
/// bit-identical to an unbounded run (exact operation prefix).
pub fn distances_to_targets(
    graph: &RoadGraph,
    root: NodeId,
    targets: &[NodeId],
    metric: BallMetric,
) -> Vec<f64> {
    let mut is_target = vec![false; graph.node_count()];
    let mut remaining = 0usize;
    for t in targets {
        if !is_target[t.0] {
            is_target[t.0] = true;
            remaining += 1;
        }
    }
    let mut search = Dijkstra::default();
    let stop = Stop::Targets {
        is_target: &is_target,
        remaining,
    };
    let settled = search.run(graph, root.0, metric, stop, |_, _| {});
    record_runs(1, settled);
    targets.iter().map(|t| search.dist[t.0]).collect()
}

/// All-pairs node-to-node travel distances (`d_G` restricted to `V`).
///
/// Built by running Dijkstra from every connection; the road graphs in
/// this workspace have at most a few thousand connections, for which the
/// dense `O(|V|²)` matrix is the right trade-off.
#[derive(Debug, Clone)]
pub struct NodeDistances {
    n: usize,
    /// Row-major: `dist[s * n + t]` = travel distance s→t.
    dist: Vec<f64>,
}

impl NodeDistances {
    /// Computes travel distances between all ordered pairs of
    /// connections, fanning the independent per-source Dijkstra runs
    /// across the available cores. Each source row is computed by
    /// exactly the same float operations regardless of thread count, so
    /// the result is byte-identical to [`Self::all_pairs_serial`].
    pub fn all_pairs(graph: &RoadGraph) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::all_pairs_with_threads(graph, threads)
    }

    /// Single-threaded [`Self::all_pairs`] (the deterministic
    /// reference the parallel build is tested against).
    pub fn all_pairs_serial(graph: &RoadGraph) -> Self {
        Self::all_pairs_with_threads(graph, 1)
    }

    fn all_pairs_with_threads(graph: &RoadGraph, threads: usize) -> Self {
        let n = graph.node_count();
        if n == 0 {
            return Self {
                n,
                dist: Vec::new(),
            };
        }
        let mut dist = vec![f64::INFINITY; n * n];
        let chunk = n.div_ceil(threads.max(1).min(n));
        let mut settled_total = 0u64;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (t, rows) in dist.chunks_mut(chunk * n).enumerate() {
                let lo = t * chunk;
                handles.push(scope.spawn(move || {
                    let mut search = Dijkstra::default();
                    let mut settled = 0u64;
                    for (off, row) in rows.chunks_mut(n).enumerate() {
                        settled +=
                            search.run(graph, lo + off, BallMetric::Out, Stop::Never, |_, _| {});
                        row.copy_from_slice(&search.dist);
                    }
                    settled
                }));
            }
            for h in handles {
                settled_total += h.join().expect("all-pairs thread panicked");
            }
        });
        // One flush for the whole build (same counter totals as n
        // individual tree builds, and deterministic across thread
        // counts).
        record_runs(n as u64, settled_total);
        Self { n, dist }
    }

    /// Travel distance from connection `s` to connection `t`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn get(&self, s: NodeId, t: NodeId) -> f64 {
        assert!(s.0 < self.n && t.0 < self.n, "node id out of range");
        self.dist[s.0 * self.n + t.0]
    }

    /// Number of connections covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadGraphBuilder;

    /// 4-cycle with asymmetric distances:
    /// v0 -> v1 -> v2 -> v3 -> v0, lengths 1, 2, 3, 4.
    fn ring() -> RoadGraph {
        let mut b = RoadGraphBuilder::new();
        let v: Vec<_> = (0..4).map(|i| b.add_node(i as f64, 0.0)).collect();
        b.add_edge(v[0], v[1], 1.0).unwrap();
        b.add_edge(v[1], v[2], 2.0).unwrap();
        b.add_edge(v[2], v[3], 3.0).unwrap();
        b.add_edge(v[3], v[0], 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn out_tree_distances_follow_cycle() {
        let g = ring();
        let t = ShortestPathTree::build(&g, NodeId(0), TreeDirection::Out);
        assert_eq!(t.distance(NodeId(0)), 0.0);
        assert_eq!(t.distance(NodeId(1)), 1.0);
        assert_eq!(t.distance(NodeId(2)), 3.0);
        assert_eq!(t.distance(NodeId(3)), 6.0);
    }

    #[test]
    fn in_tree_is_reverse_of_out() {
        let g = ring();
        let t = ShortestPathTree::build(&g, NodeId(0), TreeDirection::In);
        // v1 -> v0 must go v1->v2->v3->v0 = 2+3+4 = 9.
        assert_eq!(t.distance(NodeId(1)), 9.0);
        assert_eq!(t.distance(NodeId(3)), 4.0);
    }

    #[test]
    fn path_edges_reconstructs_out_path() {
        let g = ring();
        let t = ShortestPathTree::build(&g, NodeId(0), TreeDirection::Out);
        let path = t.path_edges_on(&g, NodeId(2)).unwrap();
        assert_eq!(path, vec![EdgeId(0), EdgeId(1)]);
        // Path length equals tree distance.
        let len: f64 = path.iter().map(|&e| g.edge(e).length()).sum();
        assert_eq!(len, t.distance(NodeId(2)));
    }

    #[test]
    fn path_edges_reconstructs_in_path() {
        let g = ring();
        let t = ShortestPathTree::build(&g, NodeId(0), TreeDirection::In);
        let path = t.path_edges_on(&g, NodeId(2)).unwrap();
        // v2 -> root(v0): edges (2,3), (3,0), ordered along travel.
        assert_eq!(path, vec![EdgeId(2), EdgeId(3)]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut b = RoadGraphBuilder::new();
        let v0 = b.add_node(0.0, 0.0);
        let v1 = b.add_node(1.0, 0.0);
        b.add_edge(v0, v1, 1.0).unwrap();
        let g = b.build().unwrap();
        let t = ShortestPathTree::build(&g, NodeId(1), TreeDirection::Out);
        assert!(!t.is_reachable(NodeId(0)));
        assert!(t.path_edges_on(&g, NodeId(0)).is_none());
    }

    #[test]
    fn all_pairs_matches_single_source() {
        let g = ring();
        let m = NodeDistances::all_pairs(&g);
        for s in 0..4 {
            let t = ShortestPathTree::build(&g, NodeId(s), TreeDirection::Out);
            for v in 0..4 {
                assert_eq!(m.get(NodeId(s), NodeId(v)), t.distance(NodeId(v)));
            }
        }
    }

    #[test]
    fn all_pairs_parallel_is_byte_identical_to_serial() {
        // Larger irregular graph: a ring plus chords with irrational
        // lengths, so float round-off would expose any change in
        // operation order between the serial and parallel builds.
        let mut b = RoadGraphBuilder::new();
        let n = 37;
        let v: Vec<_> = (0..n).map(|i| b.add_node(i as f64, 0.0)).collect();
        for i in 0..n {
            b.add_edge(v[i], v[(i + 1) % n], 1.0 + (i as f64) * 0.137)
                .unwrap();
            b.add_edge(v[i], v[(i + 7) % n], 2.0 + (i as f64).sqrt())
                .unwrap();
        }
        let g = b.build().unwrap();
        let serial = NodeDistances::all_pairs_serial(&g);
        let parallel = NodeDistances::all_pairs(&g);
        for s in 0..n {
            for t in 0..n {
                let a = serial.get(NodeId(s), NodeId(t));
                let b = parallel.get(NodeId(s), NodeId(t));
                assert_eq!(a.to_bits(), b.to_bits(), "({s},{t}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn all_pairs_asymmetry() {
        let g = ring();
        let m = NodeDistances::all_pairs(&g);
        assert_eq!(m.get(NodeId(0), NodeId(1)), 1.0);
        assert_eq!(m.get(NodeId(1), NodeId(0)), 9.0);
    }

    #[test]
    fn dijkstra_records_runs_and_settled_nodes() {
        let g = ring();
        let obs = vlp_obs::global();
        let runs = obs.counter(metrics::DIJKSTRA_RUNS);
        let settled = obs.counter(metrics::SETTLED_NODES);
        let _ = ShortestPathTree::build(&g, NodeId(0), TreeDirection::Out);
        // Lower bounds only: other tests run Dijkstra concurrently.
        assert!(obs.counter(metrics::DIJKSTRA_RUNS) > runs);
        assert!(obs.counter(metrics::SETTLED_NODES) >= settled + 4);
    }

    #[test]
    fn bounded_ball_is_a_prefix_of_the_full_run() {
        let g = ring();
        let t = ShortestPathTree::build(&g, NodeId(0), TreeDirection::Out);
        let ball = bounded_ball(&g, NodeId(0), 3.0, BallMetric::Out);
        // v0 at 0, v1 at 1, v2 at 3; v3 (dist 6) is beyond the radius.
        assert_eq!(ball.len(), 3);
        for &(v, d) in &ball {
            assert_eq!(d.to_bits(), t.distance(v).to_bits());
        }
        assert!(ball.iter().all(|&(v, _)| v != NodeId(3)));
        // Radius ∞ settles everything, in ascending-distance order.
        let all = bounded_ball(&g, NodeId(0), f64::INFINITY, BallMetric::Out);
        assert_eq!(all.len(), 4);
        assert!(all.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn undirected_ball_is_symmetric_metric_closure() {
        let g = ring();
        // d̂(v0, v3): the single edge v3->v0 (length 4) beats the
        // directed route v0->v1->v2->v3 (length 6).
        let from0 = bounded_ball(&g, NodeId(0), f64::INFINITY, BallMetric::Undirected);
        let from3 = bounded_ball(&g, NodeId(3), f64::INFINITY, BallMetric::Undirected);
        let d03 = from0.iter().find(|(v, _)| *v == NodeId(3)).unwrap().1;
        let d30 = from3.iter().find(|(v, _)| *v == NodeId(0)).unwrap().1;
        assert_eq!(d03, 4.0);
        assert_eq!(d03.to_bits(), d30.to_bits());
    }

    #[test]
    fn targeted_distances_match_all_pairs() {
        let g = ring();
        let m = NodeDistances::all_pairs(&g);
        let targets = [NodeId(2), NodeId(0), NodeId(2)];
        for s in 0..4 {
            let d = distances_to_targets(&g, NodeId(s), &targets, BallMetric::Out);
            assert_eq!(d.len(), targets.len());
            for (i, &t) in targets.iter().enumerate() {
                assert_eq!(d[i].to_bits(), m.get(NodeId(s), t).to_bits());
            }
        }
    }

    #[test]
    fn targeted_distances_flag_unreachable_targets() {
        let mut b = RoadGraphBuilder::new();
        let v0 = b.add_node(0.0, 0.0);
        let v1 = b.add_node(1.0, 0.0);
        b.add_edge(v0, v1, 1.0).unwrap();
        let g = b.build().unwrap();
        let d = distances_to_targets(&g, NodeId(1), &[NodeId(0)], BallMetric::Out);
        assert!(d[0].is_infinite());
    }

    #[test]
    fn path_to_root_is_empty() {
        let g = ring();
        let t = ShortestPathTree::build(&g, NodeId(2), TreeDirection::Out);
        assert_eq!(
            t.path_edges_on(&g, NodeId(2)).unwrap(),
            Vec::<EdgeId>::new()
        );
    }
}
