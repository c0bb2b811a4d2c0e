//! Degree-ordered vertex relabelings: permutations of the vertex set
//! applied at CSR construction time so that reduction sweeps touch
//! vertices in degree-class-contiguous order.
//!
//! A [`Relabeling`] is a bijection `old id → new id` plus its inverse.
//! [`Relabeling::by_degree_classes`] builds the canonical one — a stable
//! counting sort by degree (ascending degree, ties by ascending old id)
//! — and [`Relabeling::apply_to_graph`] rebuilds a [`Graph`] under it
//! through the same parallel CSR seam as
//! [`GraphBuilder::build_parallel`](crate::GraphBuilder::build_parallel).
//! For the streaming backends, [`Relabeling::sink`] wraps any
//! [`EdgeSink`] (in particular
//! [`ShardedCsrBuilder`](crate::storage::ShardedCsrBuilder)) so edges
//! are relabeled on the way into the build.
//!
//! **Equivariance.** Relabeling permutes vertices but keeps edge ids and
//! their order: edge `e` of the relabeled graph is edge `e` of the
//! original, and each vertex's incidence list stays in edge-id order
//! (the CSR scatters edges in id order). Edge colorings computed on the
//! relabeled graph therefore apply to the original verbatim; vertex
//! colorings come back through [`Relabeling::pull_values`]. The
//! round-trip proptests in `crates/core` pin palette/round equality and
//! exact color equality after inversion.

use crate::builder::EdgeSink;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::VertexId;
use crate::num;
use crate::subgraph::GraphView;

/// A bijective relabeling of `n` vertex ids, stored with its inverse so
/// both directions are O(1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relabeling {
    /// `new_of_old[old] = new`.
    new_of_old: Vec<u32>,
    /// `old_of_new[new] = old`.
    old_of_new: Vec<u32>,
}

impl Relabeling {
    /// The identity relabeling on `n` vertices.
    ///
    /// # Errors
    ///
    /// [`GraphError::Overflow`] if `n` exceeds the workspace's u32
    /// vertex-id space.
    pub fn identity(n: usize) -> Result<Self, GraphError> {
        num::to_u32(n)?;
        // lint: allow(cast, "v < n, checked to fit u32 above")
        let ids: Vec<u32> = (0..n).map(|v| v as u32).collect();
        Ok(Relabeling {
            new_of_old: ids.clone(),
            old_of_new: ids,
        })
    }

    /// The degree-class relabeling of `g`: vertices sorted by ascending
    /// degree, ties broken by ascending old id (a stable counting sort,
    /// so the result is deterministic and independent of thread count).
    /// Regular graphs get the identity back.
    ///
    /// # Errors
    ///
    /// [`GraphError::Overflow`] if the vertex count exceeds the u32 id
    /// space.
    pub fn by_degree_classes<V: GraphView>(g: &V) -> Result<Self, GraphError> {
        let n = g.num_vertices();
        num::to_u32(n)?;
        let degrees: Vec<usize> = (0..n).map(|v| g.degree(VertexId::new(v))).collect();
        let max_d = degrees.iter().copied().max().unwrap_or(0);
        // Counting sort: class sizes, then a prefix sum gives each degree
        // class its contiguous run of new ids.
        let mut class_start = vec![0usize; max_d + 2];
        for &d in &degrees {
            class_start[d + 1] += 1;
        }
        for d in 1..class_start.len() {
            class_start[d] += class_start[d - 1];
        }
        let mut new_of_old = vec![0u32; n];
        let mut old_of_new = vec![0u32; n];
        for (old, &d) in degrees.iter().enumerate() {
            let new = class_start[d];
            class_start[d] += 1;
            // lint: allow(cast, "new is < n, checked to fit u32 above")
            new_of_old[old] = new as u32;
            // lint: allow(cast, "old is < n, checked to fit u32 above")
            old_of_new[new] = old as u32;
        }
        Ok(Relabeling {
            new_of_old,
            old_of_new,
        })
    }

    /// Number of vertex ids covered.
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// Whether the relabeling covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// The new id of `old`.
    pub fn new_id(&self, old: VertexId) -> VertexId {
        VertexId::new(num::usize_from(self.new_of_old[old.index()]))
    }

    /// The old id of `new`.
    pub fn old_id(&self, new: VertexId) -> VertexId {
        VertexId::new(num::usize_from(self.old_of_new[new.index()]))
    }

    /// Rebuilds `g` with every vertex `v` renamed to `new_id(v)`. Edge
    /// ids and their order are preserved (edge `e` of the result is edge
    /// `e` of `g`), so edge colorings transfer verbatim; the CSR itself
    /// is built through the parallel scatter seam, bit-identical at any
    /// worker count.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] if `g` has a different vertex
    /// count than this relabeling.
    pub fn apply_to_graph(&self, g: &Graph) -> Result<Graph, GraphError> {
        let n = g.num_vertices();
        if n != self.len() {
            return Err(GraphError::VertexOutOfRange {
                vertex: n,
                n: self.len(),
            });
        }
        let edges: Vec<[VertexId; 2]> = g
            .edge_list()
            .map(|(_, [u, v])| {
                let (nu, nv) = (self.new_id(u), self.new_id(v));
                if nu.index() <= nv.index() {
                    [nu, nv]
                } else {
                    [nv, nu]
                }
            })
            .collect();
        Ok(Graph::from_parts_parallel(n, edges))
    }

    /// Permutes per-vertex values of the *original* graph into the
    /// relabeled id space: `result[new_id(v)] = values[v]`.
    pub fn push_values<T: Clone + Default>(&self, values: &[T]) -> Vec<T> {
        let mut out = vec![T::default(); values.len().min(self.len())];
        for (old, value) in values.iter().enumerate().take(self.len()) {
            out[num::usize_from(self.new_of_old[old])] = value.clone();
        }
        out
    }

    /// Inverts per-vertex values computed on the *relabeled* graph back
    /// to original ids: `result[v] = values[new_id(v)]`. This is how a
    /// vertex coloring of the relabeled graph becomes a coloring of the
    /// original.
    pub fn pull_values<T: Clone + Default>(&self, values: &[T]) -> Vec<T> {
        let mut out = vec![T::default(); values.len().min(self.len())];
        for (new, value) in values.iter().enumerate().take(self.len()) {
            out[num::usize_from(self.old_of_new[new])] = value.clone();
        }
        out
    }

    /// Wraps an [`EdgeSink`] so streamed edges are relabeled on the way
    /// in — the seam that lets
    /// [`ShardedCsrBuilder`](crate::storage::ShardedCsrBuilder) (and any
    /// other sink) build the relabeled CSR directly from a generator
    /// stream, without materializing the original graph first.
    pub fn sink<'a, S: EdgeSink>(&'a self, inner: &'a mut S) -> RelabelingSink<'a, S> {
        RelabelingSink {
            relabeling: self,
            inner,
        }
    }
}

/// The [`EdgeSink`] adapter returned by [`Relabeling::sink`].
pub struct RelabelingSink<'a, S: EdgeSink> {
    relabeling: &'a Relabeling,
    inner: &'a mut S,
}

impl<S: EdgeSink> EdgeSink for RelabelingSink<'_, S> {
    fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        let n = self.relabeling.len();
        if u >= n {
            return Err(GraphError::VertexOutOfRange { vertex: u, n });
        }
        if v >= n {
            return Err(GraphError::VertexOutOfRange { vertex: v, n });
        }
        self.inner.add_edge(
            num::usize_from(self.relabeling.new_of_old[u]),
            num::usize_from(self.relabeling.new_of_old[v]),
        )
    }

    fn reset(&mut self) -> Result<(), GraphError> {
        self.inner.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;

    #[test]
    fn identity_on_regular_graphs() {
        let g = generators::random_regular(64, 4, 7).unwrap();
        let r = Relabeling::by_degree_classes(&g).unwrap();
        assert!(g.vertices().all(|v| r.new_id(v) == v));
        let h = r.apply_to_graph(&g).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn degree_classes_are_contiguous_and_stable() {
        let g = generators::forest_union(128, 2, 8, 3).unwrap();
        let r = Relabeling::by_degree_classes(&g).unwrap();
        let h = r.apply_to_graph(&g).unwrap();
        // Degrees are non-decreasing in new id order.
        let degs: Vec<usize> = (0..h.num_vertices())
            .map(|v| h.degree(VertexId::new(v)))
            .collect();
        assert!(degs.windows(2).all(|w| w[0] <= w[1]));
        // Ties keep old-id order (stability).
        let olds: Vec<(usize, usize)> = (0..h.num_vertices())
            .map(|v| {
                let old = r.old_id(VertexId::new(v));
                (g.degree(old), old.index())
            })
            .collect();
        assert!(olds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn roundtrip_is_exact() {
        let g = generators::gnm(200, 700, 11).unwrap();
        let r = Relabeling::by_degree_classes(&g).unwrap();
        for v in 0..g.num_vertices() {
            assert_eq!(r.old_id(r.new_id(VertexId::new(v))), VertexId::new(v));
        }
        let values: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let pushed = r.push_values(&values);
        assert_eq!(r.pull_values(&pushed), values);
    }

    #[test]
    fn relabeled_graph_preserves_edges_and_degrees() {
        let g = generators::gnm(150, 480, 5).unwrap();
        let r = Relabeling::by_degree_classes(&g).unwrap();
        let h = r.apply_to_graph(&g).unwrap();
        assert_eq!(h.num_vertices(), g.num_vertices());
        assert_eq!(h.num_edges(), g.num_edges());
        for (e, [u, v]) in g.edge_list() {
            let [a, b] = h.endpoints(e);
            let (nu, nv) = (r.new_id(u), r.new_id(v));
            assert!(
                (a, b) == (nu, nv) || (a, b) == (nv, nu),
                "edge {e:?} remapped incorrectly"
            );
        }
        for v in 0..g.num_vertices() {
            let v = VertexId::new(v);
            assert_eq!(g.degree(v), h.degree(r.new_id(v)));
        }
    }

    #[test]
    fn sink_adapter_matches_apply_to_graph() {
        let g = generators::forest_union(96, 3, 6, 9).unwrap();
        let r = Relabeling::by_degree_classes(&g).unwrap();
        let direct = r.apply_to_graph(&g).unwrap();
        let mut b = GraphBuilder::new_multi(g.num_vertices());
        {
            let mut sink = r.sink(&mut b);
            for (_, [u, v]) in g.edge_list() {
                sink.add_edge(u.index(), v.index()).unwrap();
            }
        }
        let streamed = b.build_parallel();
        assert_eq!(direct, streamed);
    }

    #[test]
    fn sink_adapter_rejects_out_of_range() {
        let r = Relabeling::identity(4).unwrap();
        let mut b = GraphBuilder::new(4);
        let mut sink = r.sink(&mut b);
        assert!(matches!(
            sink.add_edge(0, 4),
            Err(GraphError::VertexOutOfRange { vertex: 4, n: 4 })
        ));
    }

    #[test]
    fn apply_rejects_size_mismatch() {
        let g = generators::path(5).unwrap();
        let r = Relabeling::identity(4).unwrap();
        assert!(r.apply_to_graph(&g).is_err());
    }
}
