//! Region sharding: partition a road graph into strongly connected
//! geographic shards.
//!
//! A city-scale serving layer cannot solve one mechanism over the whole
//! map — the D-VLP solve is superlinear in the interval count, and a
//! vehicle's obfuscation only needs to be indistinguishable within its
//! local area (the protection radius `r` is a few kilometres, not the
//! map diameter). [`Partition::by_bands`] splits the map into `n`
//! vertical geographic bands of near-equal node count; each band keeps
//! the road segments internal to it and becomes an independent
//! [`RegionShard`] with its own [`RoadGraph`].
//!
//! Dropping the segments that cross a band boundary can disconnect a
//! band (one-way grids are particularly prone), and every downstream
//! consumer — discretization, interval distances, Geo-I constraints —
//! needs finite intra-shard distances. The partition therefore
//! *repairs* each shard: it computes the shard's strongly connected
//! components and joins every secondary component to the largest one
//! with a two-way connector road between their mutually nearest nodes
//! (the same 15 % meander factor as [`crate::compose::connect`]). The
//! connectors are a modelling choice, not map data; their count is
//! reported per shard so callers can judge the distortion.
//!
//! Mappings are kept in both directions: global node/edge → owning
//! shard, and shard-local node → global node. [`Partition::to_local`]
//! translates an on-edge [`Location`] into the owning shard's
//! coordinate space (cross-boundary locations resolve to `None`; snap
//! them to an endpoint first via [`Partition::shard_of_edge`]).

use crate::graph::{EdgeId, NodeId, RoadGraph, RoadGraphBuilder};
use crate::location::Location;

/// One geographic shard of a partitioned road graph.
#[derive(Debug, Clone)]
pub struct RegionShard {
    /// The shard's own strongly connected road graph.
    graph: RoadGraph,
    /// Shard-local node id → global node id.
    nodes: Vec<NodeId>,
    /// Two-way connector roads added to restore strong connectivity
    /// (count of *connector pairs*, not directed edges).
    connectors: usize,
}

impl RegionShard {
    /// The shard's road graph (strongly connected by construction).
    pub fn graph(&self) -> &RoadGraph {
        &self.graph
    }

    /// Global node ids of this shard, indexed by local node id.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The global node id behind a shard-local node id.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range for this shard.
    pub fn to_global(&self, local: NodeId) -> NodeId {
        self.nodes[local.index()]
    }

    /// Number of two-way connector roads added during repair.
    pub fn connector_count(&self) -> usize {
        self.connectors
    }
}

/// A partition of a road graph into geographic [`RegionShard`]s, with
/// global ↔ local mappings.
#[derive(Debug, Clone)]
pub struct Partition {
    shards: Vec<RegionShard>,
    /// Global node id → shard index.
    node_shard: Vec<usize>,
    /// Global node id → local node id within its shard.
    node_local: Vec<NodeId>,
    /// Global edge id → `(shard, local edge)` for intra-shard edges.
    edge_map: Vec<Option<(usize, EdgeId)>>,
    /// Global edge id → home shard (start node's shard for
    /// cross-boundary edges).
    edge_shard: Vec<usize>,
    /// Global ids of the dropped cross-boundary edges.
    cross_edges: Vec<EdgeId>,
}

impl Partition {
    /// Partitions `graph` into `n_shards` vertical bands of near-equal
    /// node count (split on the x coordinate, ties broken by y then
    /// id), keeping intra-band segments and repairing each band to
    /// strong connectivity.
    ///
    /// # Example
    ///
    /// ```
    /// use roadnet::{generators, Partition};
    ///
    /// let graph = generators::grid(3, 4, 0.4, true);
    /// let partition = Partition::by_bands(&graph, 2);
    /// assert_eq!(partition.shards().len(), 2);
    /// // Bands cover every node exactly once …
    /// let nodes: usize = partition
    ///     .shards()
    ///     .iter()
    ///     .map(|s| s.graph().node_count())
    ///     .sum();
    /// assert_eq!(nodes, graph.node_count());
    /// // … and each band is near-equal in size.
    /// for shard in partition.shards() {
    ///     assert!(shard.graph().node_count() >= graph.node_count() / 2 - 1);
    /// }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `n_shards == 0` or the graph has fewer than
    /// `2 · n_shards` nodes (a shard needs at least two nodes to carry
    /// a road segment).
    pub fn by_bands(graph: &RoadGraph, n_shards: usize) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        let n = graph.node_count();
        assert!(
            n >= 2 * n_shards,
            "{n} nodes cannot fill {n_shards} shards with >= 2 nodes each"
        );
        // Geographic order: west to east.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| {
            let (va, vb) = (&graph.nodes()[a], &graph.nodes()[b]);
            va.x.total_cmp(&vb.x)
                .then(va.y.total_cmp(&vb.y))
                .then(a.cmp(&b))
        });
        // Near-equal band sizes: the first `n % n_shards` bands get one
        // extra node.
        let base = n / n_shards;
        let extra = n % n_shards;
        let mut node_shard = vec![0usize; n];
        let mut node_local = vec![NodeId(0); n];
        let mut members: Vec<Vec<usize>> = Vec::with_capacity(n_shards);
        let mut cursor = 0;
        for s in 0..n_shards {
            let size = base + usize::from(s < extra);
            let band = &order[cursor..cursor + size];
            for (local, &g) in band.iter().enumerate() {
                node_shard[g] = s;
                node_local[g] = NodeId(local);
            }
            members.push(band.to_vec());
            cursor += size;
        }
        // Distribute intra-band edges; record the rest as cross edges.
        let mut builders: Vec<RoadGraphBuilder> = members
            .iter()
            .map(|band| {
                let mut b = RoadGraphBuilder::new();
                for &g in band {
                    let v = &graph.nodes()[g];
                    b.add_node(v.x, v.y);
                }
                b
            })
            .collect();
        let mut local_edges: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); n_shards];
        let mut edge_map = vec![None; graph.edge_count()];
        let mut edge_shard = vec![0usize; graph.edge_count()];
        let mut cross_edges = Vec::new();
        for e in graph.edges() {
            let (s_start, s_end) = (node_shard[e.start().index()], node_shard[e.end().index()]);
            edge_shard[e.id().index()] = s_start;
            if s_start == s_end {
                let a = node_local[e.start().index()];
                let b = node_local[e.end().index()];
                let id = builders[s_start]
                    .add_edge(a, b, e.length())
                    .expect("intra-shard copy of a valid edge");
                edge_map[e.id().index()] = Some((s_start, id));
                local_edges[s_start].push((a.index(), b.index(), e.length()));
            } else {
                cross_edges.push(e.id());
            }
        }
        // Repair and finalize each shard.
        let shards = members
            .into_iter()
            .zip(builders)
            .zip(local_edges)
            .map(|((band, mut b), edges)| {
                let coords: Vec<(f64, f64)> = band
                    .iter()
                    .map(|&g| (graph.nodes()[g].x, graph.nodes()[g].y))
                    .collect();
                let connectors = repair_connectivity(&mut b, &coords, &edges);
                let shard_graph = b.build().expect("shard bands are non-empty");
                debug_assert!(shard_graph.is_strongly_connected());
                RegionShard {
                    graph: shard_graph,
                    nodes: band.into_iter().map(NodeId).collect(),
                    connectors,
                }
            })
            .collect();
        Self {
            shards,
            node_shard,
            node_local,
            edge_map,
            edge_shard,
            cross_edges,
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the partition holds no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shards, indexed by shard id.
    pub fn shards(&self) -> &[RegionShard] {
        &self.shards
    }

    /// One shard by index.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn shard(&self, s: usize) -> &RegionShard {
        &self.shards[s]
    }

    /// The shard owning a global node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of the partitioned graph.
    pub fn shard_of_node(&self, v: NodeId) -> usize {
        self.node_shard[v.index()]
    }

    /// The local id of a global node within its shard.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of the partitioned graph.
    pub fn to_local_node(&self, v: NodeId) -> NodeId {
        self.node_local[v.index()]
    }

    /// The home shard of a global edge: the shard holding it intact,
    /// or the shard of its starting connection for cross-boundary
    /// edges (a vehicle mid-segment still "belongs" to its origin
    /// region).
    ///
    /// # Panics
    ///
    /// Panics if `e` is not an edge of the partitioned graph.
    pub fn shard_of_edge(&self, e: EdgeId) -> usize {
        self.edge_shard[e.index()]
    }

    /// Translates an on-edge location into its owning shard's
    /// coordinates. Returns `None` when the location lies on a dropped
    /// cross-boundary segment (use [`Self::shard_of_edge`] to pick the
    /// home shard and snap to one of its intervals instead) or its edge
    /// is not part of the partitioned graph. The offset is carried over
    /// unchecked.
    pub fn to_local(&self, p: Location) -> Option<(usize, Location)> {
        let (shard, local_edge) = (*self.edge_map.get(p.edge().index())?)?;
        Some((shard, Location::new(local_edge, p.to_end())))
    }

    /// Global ids of the segments dropped because they cross a band
    /// boundary.
    pub fn cross_edges(&self) -> &[EdgeId] {
        &self.cross_edges
    }
}

/// Joins all strongly connected components of the partially built
/// shard into the largest one with two-way connector roads between
/// nearest node pairs. Returns the number of connector pairs added.
fn repair_connectivity(
    b: &mut RoadGraphBuilder,
    coords: &[(f64, f64)],
    edges: &[(usize, usize, f64)],
) -> usize {
    let comp = strongly_connected_components(coords.len(), edges);
    let n_comps = 1 + comp.iter().copied().max().unwrap_or(0);
    if n_comps <= 1 {
        return 0;
    }
    // Hub: the largest component.
    let mut sizes = vec![0usize; n_comps];
    for &c in &comp {
        sizes[c] += 1;
    }
    let hub = sizes
        .iter()
        .enumerate()
        .max_by_key(|&(c, &s)| (s, std::cmp::Reverse(c)))
        .map(|(c, _)| c)
        .expect("at least one component");
    let mut added = 0;
    for c in 0..n_comps {
        if c == hub {
            continue;
        }
        // Nearest pair between the hub and component `c`.
        let mut best = (0usize, 0usize, f64::INFINITY);
        for (i, &(xi, yi)) in coords.iter().enumerate() {
            if comp[i] != hub {
                continue;
            }
            for (j, &(xj, yj)) in coords.iter().enumerate() {
                if comp[j] != c {
                    continue;
                }
                let d = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt();
                if d < best.2 {
                    best = (i, j, d);
                }
            }
        }
        let length = (best.2 * 1.15).max(1e-3);
        b.add_two_way(NodeId(best.0), NodeId(best.1), length)
            .expect("connector endpoints are distinct shard nodes");
        added += 1;
    }
    added
}

/// Kosaraju's algorithm over an edge list; returns a component index
/// per node. Iterative DFS keeps deep one-way chains off the call
/// stack.
fn strongly_connected_components(n: usize, edges: &[(usize, usize, f64)]) -> Vec<usize> {
    let mut out = vec![Vec::new(); n];
    let mut inc = vec![Vec::new(); n];
    for &(a, b, _) in edges {
        out[a].push(b);
        inc[b].push(a);
    }
    // Pass 1: finish order on the forward graph.
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for root in 0..n {
        if seen[root] {
            continue;
        }
        // Stack of (node, next-child cursor).
        let mut stack = vec![(root, 0usize)];
        seen[root] = true;
        while let Some(&mut (v, ref mut cursor)) = stack.last_mut() {
            if let Some(&w) = out[v].get(*cursor) {
                *cursor += 1;
                if !seen[w] {
                    seen[w] = true;
                    stack.push((w, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    // Pass 2: reverse-graph DFS in reverse finish order.
    let mut comp = vec![usize::MAX; n];
    let mut next = 0;
    for &root in order.iter().rev() {
        if comp[root] != usize::MAX {
            continue;
        }
        let mut stack = vec![root];
        comp[root] = next;
        while let Some(v) = stack.pop() {
            for &w in &inc[v] {
                if comp[w] == usize::MAX {
                    comp[w] = next;
                    stack.push(w);
                }
            }
        }
        next += 1;
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compose, generators};

    #[test]
    fn bands_cover_all_nodes_with_balanced_sizes() {
        let g = generators::grid(4, 4, 0.4, true);
        let p = Partition::by_bands(&g, 3);
        assert_eq!(p.len(), 3);
        let total: usize = p.shards().iter().map(|s| s.graph().node_count()).sum();
        assert_eq!(total, g.node_count());
        let sizes: Vec<usize> = p.shards().iter().map(|s| s.graph().node_count()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn every_shard_is_strongly_connected() {
        for g in [
            generators::grid(4, 4, 0.4, true),
            generators::downtown(4, 4, 0.25),
            generators::rural(8, 1.0, 5),
        ] {
            let p = Partition::by_bands(&g, 2);
            for s in p.shards() {
                assert!(s.graph().is_strongly_connected());
            }
        }
    }

    #[test]
    fn node_mappings_round_trip() {
        let g = generators::grid(4, 3, 0.4, true);
        let p = Partition::by_bands(&g, 2);
        for v in g.nodes() {
            let s = p.shard_of_node(v.id());
            let local = p.to_local_node(v.id());
            assert_eq!(p.shard(s).to_global(local), v.id());
            let lv = &p.shard(s).graph().nodes()[local.index()];
            assert_eq!((lv.x, lv.y), (v.x, v.y));
        }
    }

    #[test]
    fn intra_shard_edges_keep_their_length_and_cross_edges_are_reported() {
        let g = generators::grid(4, 4, 0.4, true);
        let p = Partition::by_bands(&g, 2);
        let mut intact = 0;
        for e in g.edges() {
            match p.to_local(Location::new(e.id(), e.length() / 2.0)) {
                Some((s, local)) => {
                    intact += 1;
                    let le = p.shard(s).graph().edge(local.edge());
                    assert!((le.length() - e.length()).abs() < 1e-12);
                    assert_eq!(local.to_end(), e.length() / 2.0);
                }
                None => assert!(p.cross_edges().contains(&e.id())),
            }
        }
        assert!(intact > 0);
        assert!(!p.cross_edges().is_empty(), "a 2-band grid must be cut");
        assert_eq!(intact + p.cross_edges().len(), g.edge_count());
    }

    #[test]
    fn unknown_edges_map_to_no_shard() {
        let g = generators::grid(3, 3, 0.4, true);
        let p = Partition::by_bands(&g, 1);
        let past_the_end = EdgeId(g.edge_count());
        assert_eq!(p.to_local(Location::new(past_the_end, 0.1)), None);
        assert_eq!(p.to_local(Location::new(EdgeId(usize::MAX), 0.0)), None);
        // The last real edge still maps.
        let last = EdgeId(g.edge_count() - 1);
        assert!(p.to_local(Location::new(last, 0.1)).is_some());
    }

    #[test]
    fn cross_edges_home_to_their_start_shard() {
        let g = generators::grid(4, 4, 0.4, true);
        let p = Partition::by_bands(&g, 2);
        for &e in p.cross_edges() {
            let edge = g.edge(e);
            assert_eq!(p.shard_of_edge(e), p.shard_of_node(edge.start()));
        }
    }

    #[test]
    fn two_district_town_splits_on_the_seam() {
        let west = generators::rural(6, 1.0, 3);
        let east = generators::downtown(4, 4, 0.25);
        let town = compose::town(&west, &east, 0.5);
        let p = Partition::by_bands(&town, 2);
        // Bands split west-to-east: the westmost node lands in shard 0,
        // the eastmost in shard 1, and both shards stay usable.
        let westmost = town
            .nodes()
            .iter()
            .min_by(|a, b| a.x.total_cmp(&b.x))
            .unwrap()
            .id();
        let eastmost = town
            .nodes()
            .iter()
            .max_by(|a, b| a.x.total_cmp(&b.x))
            .unwrap()
            .id();
        assert_eq!(p.shard_of_node(westmost), 0);
        assert_eq!(p.shard_of_node(eastmost), 1);
        assert!(p.cross_edges().len() < town.edge_count() / 2);
        for s in p.shards() {
            assert!(s.graph().is_strongly_connected());
        }
    }

    #[test]
    fn one_way_ring_band_needs_connectors() {
        // A one-way square ring: any 2-band cut severs both directions
        // of travel, so each band must be repaired.
        let mut b = RoadGraphBuilder::new();
        let v: Vec<NodeId> = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
            .iter()
            .map(|&(x, y)| b.add_node(x, y))
            .collect();
        for i in 0..4 {
            b.add_edge(v[i], v[(i + 1) % 4], 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let p = Partition::by_bands(&g, 2);
        assert!(p.shards().iter().any(|s| s.connector_count() > 0));
        for s in p.shards() {
            assert!(s.graph().is_strongly_connected());
            assert_eq!(s.graph().node_count(), 2);
        }
    }

    #[test]
    fn partition_is_deterministic() {
        let g = generators::downtown(4, 4, 0.3);
        let a = Partition::by_bands(&g, 3);
        let b = Partition::by_bands(&g, 3);
        for (sa, sb) in a.shards().iter().zip(b.shards()) {
            assert_eq!(sa.nodes(), sb.nodes());
            assert_eq!(sa.graph().edge_count(), sb.graph().edge_count());
        }
    }

    #[test]
    #[should_panic(expected = "cannot fill")]
    fn too_many_shards_panic() {
        let g = generators::grid(2, 2, 0.5, true);
        Partition::by_bands(&g, 3);
    }
}
