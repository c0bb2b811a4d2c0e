//! Edge orientations, acyclicity, and out-degree bounds.
//!
//! Section 5 of the paper relies on *acyclic orientations with bounded
//! out-degree*: an acyclic orientation with out-degree ≤ d certifies
//! arboricity ≤ d, and the orientation connector groups incoming/outgoing
//! edges separately.
//!
//! Every method is generic over [`GraphView`], so orientations work
//! unchanged on an in-RAM [`Graph`](crate::Graph), a borrowed subgraph
//! view, or an out-of-core [`ShardedCsr`](crate::storage::ShardedCsr).

use crate::error::GraphError;
use crate::ids::{EdgeId, VertexId};
use crate::subgraph::GraphView;

/// An orientation of every edge of a [`GraphView`] topology.
///
/// For each edge we store its *head* (the vertex the edge points **to**).
///
/// ```rust
/// use decolor_graph::{builder_from_edges, orientation::Orientation, VertexId};
/// let g = builder_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// // Orient everything toward the higher id: acyclic, out-degree 1.
/// let o = Orientation::toward_higher_id(&g);
/// assert!(o.is_acyclic(&g));
/// assert_eq!(o.max_out_degree(&g), 1);
/// assert_eq!(o.head(decolor_graph::EdgeId::new(0)), VertexId::new(1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Orientation {
    head: Vec<VertexId>,
}

impl Orientation {
    /// Creates an orientation from an explicit head per edge.
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] if the length mismatches `g` or a
    /// head is not an endpoint of its edge.
    pub fn new<V: GraphView>(g: &V, head: Vec<VertexId>) -> Result<Self, GraphError> {
        if head.len() != g.num_edges() {
            return Err(GraphError::ValidationFailed {
                reason: format!("{} heads for {} edges", head.len(), g.num_edges()),
            });
        }
        for (i, &h) in head.iter().enumerate() {
            let e = EdgeId::new(i);
            let [u, v] = g.endpoints(e);
            if h != u && h != v {
                return Err(GraphError::ValidationFailed {
                    reason: format!("head {h} of edge {e} is not an endpoint"),
                });
            }
        }
        Ok(Orientation { head })
    }

    /// Orients every edge toward its higher-indexed endpoint. Always
    /// acyclic; out-degree can be as large as Δ.
    pub fn toward_higher_id<V: GraphView>(g: &V) -> Self {
        Orientation {
            head: (0..g.num_edges())
                .map(|i| {
                    let [u, v] = g.endpoints(EdgeId::new(i));
                    u.max(v)
                })
                .collect(),
        }
    }

    /// Orients every edge according to a vertex order: each edge points to
    /// the endpoint with larger `rank`. Ties broken by vertex id, so any
    /// rank vector yields an acyclic orientation.
    pub fn from_rank<V: GraphView>(g: &V, rank: &[u64]) -> Self {
        let head = (0..g.num_edges())
            .map(|i| {
                let [u, v] = g.endpoints(EdgeId::new(i));
                let ku = (rank[u.index()], u.index());
                let kv = (rank[v.index()], v.index());
                if ku > kv {
                    u
                } else {
                    v
                }
            })
            .collect();
        Orientation { head }
    }

    /// The head (target) of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn head(&self, e: EdgeId) -> VertexId {
        self.head[e.index()]
    }

    /// The tail (source) of edge `e` in `g`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range for `g` or this orientation.
    #[inline]
    pub fn tail<V: GraphView>(&self, g: &V, e: EdgeId) -> VertexId {
        let [u, v] = g.endpoints(e);
        let h = self.head(e);
        debug_assert!(h == u || h == v, "orientation heads are endpoints");
        if h == u {
            v
        } else {
            u
        }
    }

    /// `true` if `e` points out of `v` (i.e. `v` is the tail).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of `e`.
    #[inline]
    pub fn points_out_of<V: GraphView>(&self, g: &V, e: EdgeId, v: VertexId) -> bool {
        self.tail(g, e) == v
    }

    /// Out-degree of `v` under this orientation.
    pub fn out_degree<V: GraphView>(&self, g: &V, v: VertexId) -> usize {
        let mut out = 0usize;
        g.for_each_incident_edge(v, |e| {
            if self.points_out_of(g, e, v) {
                out += 1;
            }
        });
        out
    }

    /// Maximum out-degree over all vertices.
    pub fn max_out_degree<V: GraphView>(&self, g: &V) -> usize {
        (0..g.num_vertices())
            .map(|v| self.out_degree(g, VertexId::new(v)))
            .max()
            .unwrap_or(0)
    }

    /// Outgoing edges of `v` (in port order).
    pub fn out_edges<V: GraphView>(&self, g: &V, v: VertexId) -> Vec<EdgeId> {
        let mut out = Vec::new();
        g.for_each_incident_edge(v, |e| {
            if self.points_out_of(g, e, v) {
                out.push(e);
            }
        });
        out
    }

    /// `true` iff the oriented graph has no directed cycle (Kahn's
    /// algorithm).
    pub fn is_acyclic<V: GraphView>(&self, g: &V) -> bool {
        let n = g.num_vertices();
        let mut indeg = vec![0usize; n];
        for i in 0..g.num_edges() {
            indeg[self.head(EdgeId::new(i)).index()] += 1;
        }
        let mut queue: Vec<VertexId> = (0..n)
            .map(VertexId::new)
            .filter(|&v| indeg[v.index()] == 0)
            .collect();
        let mut removed = 0usize;
        while let Some(v) = queue.pop() {
            removed += 1;
            for e in self.out_edges(g, v) {
                let h = self.head(e);
                indeg[h.index()] -= 1;
                if indeg[h.index()] == 0 {
                    queue.push(h);
                }
            }
        }
        removed == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder_from_edges;
    use crate::graph::Graph;

    fn triangle() -> Graph {
        builder_from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn toward_higher_id_is_acyclic_on_triangle() {
        let g = triangle();
        let o = Orientation::toward_higher_id(&g);
        assert!(o.is_acyclic(&g));
        // Vertex 0 points to both 1 and 2.
        assert_eq!(o.out_degree(&g, VertexId::new(0)), 2);
        assert_eq!(o.out_degree(&g, VertexId::new(2)), 0);
    }

    #[test]
    fn cyclic_orientation_detected() {
        let g = triangle();
        // 0->1, 1->2, 2->0 is a directed cycle.
        let o = Orientation::new(
            &g,
            vec![VertexId::new(1), VertexId::new(2), VertexId::new(0)],
        )
        .unwrap();
        assert!(!o.is_acyclic(&g));
    }

    #[test]
    fn invalid_head_rejected() {
        let g = triangle();
        assert!(Orientation::new(&g, vec![VertexId::new(2); 3]).is_err());
        assert!(Orientation::new(&g, vec![VertexId::new(0)]).is_err());
    }

    #[test]
    fn rank_orientation_respects_ranks() {
        let g = triangle();
        // rank: v2 lowest, v0 middle, v1 highest => all edges toward higher rank.
        let o = Orientation::from_rank(&g, &[1, 2, 0]);
        assert!(o.is_acyclic(&g));
        assert_eq!(o.out_degree(&g, VertexId::new(2)), 2);
        assert_eq!(o.out_degree(&g, VertexId::new(1)), 0);
    }

    #[test]
    fn in_out_edges_partition_incidence() {
        let g = triangle();
        let o = Orientation::toward_higher_id(&g);
        for v in g.vertices() {
            let outs = o.out_edges(&g, v).len();
            let ins = g.incident_edges(v).filter(|&e| o.head(e) == v).count();
            assert_eq!(outs + ins, g.degree(v));
        }
    }

    #[test]
    fn tail_and_head_are_endpoints() {
        let g = triangle();
        let o = Orientation::toward_higher_id(&g);
        for e in g.edges() {
            let [u, v] = g.endpoints(e);
            let h = o.head(e);
            let t = o.tail(&g, e);
            assert!(h == u || h == v);
            assert!(t == u || t == v);
            assert_ne!(h, t);
        }
    }

    #[test]
    fn generic_methods_agree_between_graph_and_edge_view() {
        use crate::subgraph::EdgeSubgraphView;
        let g = builder_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]).unwrap();
        let all: Vec<EdgeId> = g.edges().collect();
        let view = EdgeSubgraphView::new(&g, all).unwrap();
        let og = Orientation::toward_higher_id(&g);
        let ov = Orientation::toward_higher_id(&view);
        assert_eq!(og, ov);
        assert_eq!(og.is_acyclic(&g), ov.is_acyclic(&view));
        assert_eq!(og.max_out_degree(&g), ov.max_out_degree(&view));
        for v in g.vertices() {
            assert_eq!(og.out_degree(&g, v), ov.out_degree(&view, v));
            assert_eq!(og.out_edges(&g, v), ov.out_edges(&view, v));
        }
    }
}
