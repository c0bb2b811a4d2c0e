//! Graph parameters: degree statistics, degeneracy, arboricity bounds,
//! connectivity.
//!
//! The paper's Section 5 results are parameterized by the **arboricity**
//! `a(G)` (minimum number of forests covering the edges). Computing `a`
//! exactly is possible in polynomial time (matroid union) but unnecessary
//! here: Nash–Williams gives `a = max_H ⌈m_H / (n_H − 1)⌉`, the global
//! density is a lower bound, and the degeneracy `d(G)` satisfies
//! `a ≤ d ≤ 2a − 1`, so degeneracy/2 and degeneracy sandwich `a` tightly.
//! Generators in this workspace additionally *know* their arboricity by
//! construction.

use crate::graph::Graph;
use crate::ids::VertexId;
use crate::num;

/// Summary degree statistics of a graph.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree Δ.
    pub max: usize,
    /// Average degree 2m/n (0 for the empty graph).
    pub mean: f64,
}

/// Computes [`DegreeStats`] for `g`.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    let n = g.num_vertices();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
        };
    }
    let mut min = usize::MAX;
    let mut max = 0usize;
    for v in g.vertices() {
        let d = g.degree(v);
        min = min.min(d);
        max = max.max(d);
    }
    DegreeStats {
        min,
        max,
        mean: 2.0 * num::approx_f64(g.num_edges()) / num::approx_f64(n),
    }
}

/// A degeneracy ordering: vertices listed so that each has at most
/// `degeneracy` neighbors *later* in the order.
#[derive(Clone, Debug)]
pub struct DegeneracyOrdering {
    /// The degeneracy d(G).
    pub degeneracy: usize,
    /// Vertices in elimination order (peeled smallest-degree-first).
    pub order: Vec<VertexId>,
    /// `rank[v]` = position of `v` in `order`.
    pub rank: Vec<usize>,
}

/// Computes the degeneracy and a degeneracy ordering with the standard
/// bucket-queue peeling in O(n + m).
///
/// ```rust
/// use decolor_graph::{generators, properties::degeneracy_ordering};
/// let g = generators::complete(5).unwrap();
/// assert_eq!(degeneracy_ordering(&g).degeneracy, 4);
/// let t = generators::random_tree(100, 7).unwrap();
/// assert_eq!(degeneracy_ordering(&t).degeneracy, 1);
/// ```
pub fn degeneracy_ordering(g: &Graph) -> DegeneracyOrdering {
    let n = g.num_vertices();
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(VertexId::new(v))).collect();
    let maxd = deg.iter().copied().max().unwrap_or(0);
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); maxd + 1];
    for (v, &d) in deg.iter().enumerate() {
        buckets[d].push(v);
    }
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut rank = vec![0usize; n];
    let mut degeneracy = 0usize;
    let mut cur = 0usize;
    for _ in 0..n {
        // Find the lowest nonempty bucket (entries may be stale).
        let v = loop {
            while cur <= maxd && buckets[cur].is_empty() {
                cur += 1;
            }
            // lint: allow(panic, "bucket nonempty")
            let cand = buckets[cur].pop().expect("bucket nonempty");
            // Stale entries (vertex already removed, or re-queued at a
            // lower degree) are simply skipped; `cur` is rewound whenever a
            // degree decreases, so the first fresh entry found is minimal.
            if !removed[cand] && deg[cand] == cur {
                break cand;
            }
        };
        removed[v] = true;
        degeneracy = degeneracy.max(deg[v]);
        rank[v] = order.len();
        order.push(VertexId::new(v));
        for u in g.neighbors(VertexId::new(v)) {
            let ui = u.index();
            if !removed[ui] {
                deg[ui] -= 1;
                buckets[deg[ui]].push(ui);
                if deg[ui] < cur {
                    cur = deg[ui];
                }
            }
        }
    }
    DegeneracyOrdering {
        degeneracy,
        order,
        rank,
    }
}

/// Nash–Williams global-density lower bound on arboricity:
/// `⌈m / (n − 1)⌉` (0 for graphs with < 2 vertices or no edges).
pub fn arboricity_lower_bound(g: &Graph) -> usize {
    if g.num_vertices() < 2 || g.num_edges() == 0 {
        return 0;
    }
    g.num_edges().div_ceil(g.num_vertices() - 1)
}

/// Degeneracy upper bound on arboricity: `a(G) ≤ d(G)`.
pub fn arboricity_upper_bound(g: &Graph) -> usize {
    degeneracy_ordering(g).degeneracy
}

/// Decomposes the edges of `g` into forests greedily along a degeneracy
/// ordering, returning one forest (edge list) per "slot". The number of
/// forests is at most the degeneracy, certifying `a(G) ≤ d(G)`
/// constructively.
///
/// Every edge is assigned to the forest slot equal to its index among the
/// *back-edges* of its lower-ranked endpoint; within a slot each vertex has
/// at most one edge to a later vertex, so each slot is a forest (in fact a
/// set of out-degree-≤1 acyclically-oriented trees).
pub fn forest_decomposition(g: &Graph) -> Vec<Vec<crate::ids::EdgeId>> {
    let ord = degeneracy_ordering(g);
    let mut forests: Vec<Vec<crate::ids::EdgeId>> = vec![Vec::new(); ord.degeneracy.max(1)];
    let mut slot_cursor = vec![0usize; g.num_vertices()];
    for (e, [u, v]) in g.edge_list() {
        // The endpoint peeled first "owns" the edge (it has ≤ degeneracy
        // such edges).
        let owner = if ord.rank[u.index()] < ord.rank[v.index()] {
            u
        } else {
            v
        };
        let slot = slot_cursor[owner.index()];
        slot_cursor[owner.index()] += 1;
        forests[slot].push(e);
    }
    forests.retain(|f| !f.is_empty());
    forests
}

/// `true` iff `g` is connected (trivially true for n ≤ 1).
pub fn is_connected(g: &Graph) -> bool {
    let n = g.num_vertices();
    if n <= 1 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut stack = vec![VertexId::new(0)];
    seen[0] = true;
    let mut count = 1usize;
    while let Some(v) = stack.pop() {
        for u in g.neighbors(v) {
            if !seen[u.index()] {
                seen[u.index()] = true;
                count += 1;
                stack.push(u);
            }
        }
    }
    count == n
}

/// `true` iff `g` is acyclic as an undirected graph (i.e. a forest).
pub fn is_forest(g: &Graph) -> bool {
    // A graph is a forest iff m = n - (#components).
    let n = g.num_vertices();
    let mut seen = vec![false; n];
    let mut components = 0usize;
    for s in 0..n {
        if seen[s] {
            continue;
        }
        components += 1;
        seen[s] = true;
        let mut stack = vec![VertexId::new(s)];
        while let Some(v) = stack.pop() {
            for u in g.neighbors(v) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    stack.push(u);
                }
            }
        }
    }
    g.num_edges() == n - components
}

/// Eccentricity of `v`: the BFS distance to the farthest vertex in its
/// component.
pub fn eccentricity(g: &Graph, v: VertexId) -> usize {
    let n = g.num_vertices();
    let mut dist = vec![usize::MAX; n];
    dist[v.index()] = 0;
    let mut queue = std::collections::VecDeque::from([v]);
    let mut far = 0usize;
    while let Some(w) = queue.pop_front() {
        for u in g.neighbors(w) {
            if dist[u.index()] == usize::MAX {
                dist[u.index()] = dist[w.index()] + 1;
                far = far.max(dist[u.index()]);
                queue.push_back(u);
            }
        }
    }
    far
}

/// Exact diameter (max eccentricity over the largest structure reachable;
/// `None` for disconnected graphs, where the diameter is conventionally
/// infinite). O(n·m) — fine at simulator scale.
pub fn diameter(g: &Graph) -> Option<usize> {
    if g.num_vertices() == 0 {
        return Some(0);
    }
    if !is_connected(g) {
        return None;
    }
    Some(g.vertices().map(|v| eccentricity(g, v)).max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{builder_from_edges, generators};

    #[test]
    fn degree_stats_on_star() {
        let g = generators::star(5).unwrap();
        let s = degree_stats(&g);
        assert_eq!(s.max, 4);
        assert_eq!(s.min, 1);
        assert!((s.mean - 2.0 * 4.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn degeneracy_of_complete_graph() {
        let g = generators::complete(7).unwrap();
        let d = degeneracy_ordering(&g);
        assert_eq!(d.degeneracy, 6);
        // Ranks are a permutation.
        let mut sorted = d.rank.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn degeneracy_of_tree_is_one() {
        let g = generators::random_tree(64, 3).unwrap();
        assert_eq!(degeneracy_ordering(&g).degeneracy, 1);
        assert!(is_forest(&g));
        assert!(is_connected(&g));
    }

    #[test]
    fn degeneracy_ordering_certificate() {
        // Every vertex has at most `degeneracy` neighbors later in order.
        let g = generators::gnm(200, 800, 5).unwrap();
        let d = degeneracy_ordering(&g);
        for v in g.vertices() {
            let later = g
                .neighbors(v)
                .filter(|u| d.rank[u.index()] > d.rank[v.index()])
                .count();
            assert!(
                later <= d.degeneracy,
                "vertex {v} has {later} later neighbors"
            );
        }
    }

    #[test]
    fn arboricity_bounds_sandwich() {
        let g = generators::gnm(100, 400, 11).unwrap();
        let lo = arboricity_lower_bound(&g);
        let hi = arboricity_upper_bound(&g);
        assert!(lo <= hi, "lower bound {lo} exceeds upper bound {hi}");
        assert!(lo >= 1);
    }

    #[test]
    fn forest_decomposition_is_forests_and_covers() {
        let g = generators::gnm(80, 300, 13).unwrap();
        let forests = forest_decomposition(&g);
        let d = degeneracy_ordering(&g).degeneracy;
        assert!(forests.len() <= d.max(1));
        let mut covered = vec![false; g.num_edges()];
        for f in &forests {
            let sub = crate::subgraph::SpanningEdgeSubgraph::new(&g, f);
            assert!(is_forest(sub.graph()), "slot is not a forest");
            for &e in f {
                assert!(!covered[e.index()], "edge covered twice");
                covered[e.index()] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn connectivity_detection() {
        let g = builder_from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!is_connected(&g));
        assert!(is_forest(&g));
        let g = builder_from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert!(is_connected(&g));
        assert!(!is_forest(&g));
    }

    #[test]
    fn empty_graph_properties() {
        let g = crate::GraphBuilder::new(0).build();
        assert_eq!(
            degree_stats(&g),
            DegreeStats {
                min: 0,
                max: 0,
                mean: 0.0
            }
        );
        assert_eq!(arboricity_lower_bound(&g), 0);
        assert!(is_connected(&g));
        assert!(is_forest(&g));
    }

    #[test]
    fn diameter_of_known_shapes() {
        assert_eq!(diameter(&generators::path(7).unwrap()), Some(6));
        assert_eq!(diameter(&generators::cycle(8).unwrap()), Some(4));
        assert_eq!(diameter(&generators::complete(5).unwrap()), Some(1));
        assert_eq!(diameter(&generators::star(6).unwrap()), Some(2));
        assert_eq!(
            diameter(&builder_from_edges(4, &[(0, 1), (2, 3)]).unwrap()),
            None
        );
        assert_eq!(diameter(&crate::GraphBuilder::new(0).build()), Some(0));
    }

    #[test]
    fn eccentricity_endpoints_of_path() {
        let g = generators::path(5).unwrap();
        assert_eq!(eccentricity(&g, VertexId::new(0)), 4);
        assert_eq!(eccentricity(&g, VertexId::new(2)), 2);
    }
}
