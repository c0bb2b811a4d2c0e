//! Subgraph views with back-mappings to the parent graph.
//!
//! The paper's algorithms constantly recurse into (a) subgraphs induced by
//! a color class of a vertex coloring (Algorithm 1 line 4) and (b) spanning
//! subgraphs consisting of one color class of an edge coloring (Sections
//! 4–5). Two representations are provided:
//!
//! * **Materializing** — [`InducedSubgraph`] / [`SpanningEdgeSubgraph`]
//!   copy the subgraph into a fresh [`Graph`] plus mappings. Simple, but a
//!   recursion that re-materializes every color class at every level pays
//!   O(n + m) per class — the scaling ceiling of the composite pipelines.
//! * **Borrowed** — [`EdgeSubgraphView`] / [`InducedSubgraphView`] /
//!   [`VertexSubsetView`] borrow the *parent* topology: an activation
//!   bitset with O(1) rank maps parent ids to local ids, and the graph
//!   views keep a compact local incidence (one slot per active port)
//!   filtered once from the parent's ports — O(m/64 + n + m_sub) words
//!   instead of a graph copy. The [`GraphView`] trait lets algorithms
//!   run unchanged on either a whole [`Graph`] or a view.
//!
//! Local identifiers agree between the two representations whenever the
//! activation list is ascending (which color classes are): local edge `i`
//! of a view is edge `i` of the materialized subgraph, so algorithms
//! produce bit-identical results on both. The `*_view_matches_*` unit
//! tests below and `decolor-runtime`'s `topology_equivalence` suite pin
//! exactly this, with the materializing types as the oracle. The
//! algorithms in `decolor-core` recurse on views only.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::{EdgeId, VertexId};
use crate::num;

/// Subgraph induced by a vertex subset, with vertex/edge back-mappings.
///
/// ```rust
/// use decolor_graph::{builder_from_edges, subgraph::InducedSubgraph, VertexId};
/// let g = builder_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// let s = InducedSubgraph::new(&g, &[VertexId::new(1), VertexId::new(2), VertexId::new(3)]);
/// assert_eq!(s.graph().num_vertices(), 3);
/// assert_eq!(s.graph().num_edges(), 2); // (1,2) and (2,3)
/// assert_eq!(s.to_parent_vertex(VertexId::new(0)), VertexId::new(1));
/// ```
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    graph: Graph,
    to_parent_vertex: Vec<VertexId>,
    from_parent_vertex: Vec<Option<VertexId>>,
    to_parent_edge: Vec<EdgeId>,
}

impl InducedSubgraph {
    /// Builds the subgraph of `parent` induced by `vertices`.
    ///
    /// Duplicate entries in `vertices` are ignored; order of first
    /// occurrence determines local indices.
    ///
    /// # Panics
    ///
    /// Panics if any vertex is out of range for `parent`.
    pub fn new(parent: &Graph, vertices: &[VertexId]) -> Self {
        let mut from_parent_vertex: Vec<Option<VertexId>> = vec![None; parent.num_vertices()];
        let mut to_parent_vertex = Vec::with_capacity(vertices.len());
        for &v in vertices {
            if from_parent_vertex[v.index()].is_none() {
                from_parent_vertex[v.index()] = Some(VertexId::new(to_parent_vertex.len()));
                to_parent_vertex.push(v);
            }
        }
        let mut edges = Vec::new();
        let mut to_parent_edge = Vec::new();
        for (e, [u, v]) in parent.edge_list() {
            if let (Some(lu), Some(lv)) =
                (from_parent_vertex[u.index()], from_parent_vertex[v.index()])
            {
                edges.push([lu.min(lv), lu.max(lv)]);
                to_parent_edge.push(e);
            }
        }
        let graph = Graph::from_parts(to_parent_vertex.len(), edges);
        InducedSubgraph {
            graph,
            to_parent_vertex,
            from_parent_vertex,
            to_parent_edge,
        }
    }

    /// The materialized subgraph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Maps a local vertex to its parent-graph identifier.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    #[inline]
    pub fn to_parent_vertex(&self, local: VertexId) -> VertexId {
        self.to_parent_vertex[local.index()]
    }

    /// Maps a parent vertex into this subgraph, if present.
    #[inline]
    pub fn from_parent_vertex(&self, parent: VertexId) -> Option<VertexId> {
        self.from_parent_vertex[parent.index()]
    }

    /// Maps a local edge to its parent-graph identifier.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    #[inline]
    pub fn to_parent_edge(&self, local: EdgeId) -> EdgeId {
        self.to_parent_edge[local.index()]
    }

    /// All parent vertices present in this subgraph, in local order.
    #[inline]
    pub fn parent_vertices(&self) -> &[VertexId] {
        &self.to_parent_vertex
    }

    /// Lifts per-local-vertex values into a parent-sized vector.
    ///
    /// Entries for absent vertices are left untouched in `out`.
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] if `values`/`out` have wrong length.
    pub fn scatter_vertex_values<T: Copy>(
        &self,
        values: &[T],
        out: &mut [T],
    ) -> Result<(), GraphError> {
        if values.len() != self.graph.num_vertices() {
            return Err(GraphError::ValidationFailed {
                reason: format!(
                    "expected {} local values, got {}",
                    self.graph.num_vertices(),
                    values.len()
                ),
            });
        }
        if out.len() != self.from_parent_vertex.len() {
            return Err(GraphError::ValidationFailed {
                reason: format!(
                    "expected parent-sized output of {} entries, got {}",
                    self.from_parent_vertex.len(),
                    out.len()
                ),
            });
        }
        for (local, &parent) in self.to_parent_vertex.iter().enumerate() {
            out[parent.index()] = values[local];
        }
        Ok(())
    }
}

/// Spanning subgraph on the *same vertex set* as the parent but a subset of
/// edges — the natural view for one color class of an edge coloring.
///
/// ```rust
/// use decolor_graph::{builder_from_edges, subgraph::SpanningEdgeSubgraph, EdgeId};
/// let g = builder_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// let s = SpanningEdgeSubgraph::new(&g, &[EdgeId::new(0), EdgeId::new(2)]);
/// assert_eq!(s.graph().num_vertices(), 4);
/// assert_eq!(s.graph().num_edges(), 2);
/// assert_eq!(s.to_parent_edge(EdgeId::new(1)), EdgeId::new(2));
/// ```
#[derive(Clone, Debug)]
pub struct SpanningEdgeSubgraph {
    graph: Graph,
    to_parent_edge: Vec<EdgeId>,
}

impl SpanningEdgeSubgraph {
    /// Builds the spanning subgraph of `parent` with exactly `edges`.
    ///
    /// Local edge `i` corresponds to `edges[i]` (duplicates are kept, which
    /// only matters for multigraph parents).
    ///
    /// # Panics
    ///
    /// Panics if any edge is out of range for `parent`.
    pub fn new(parent: &Graph, edges: &[EdgeId]) -> Self {
        let endpoint_list: Vec<[VertexId; 2]> =
            edges.iter().map(|&e| parent.endpoints(e)).collect();
        let graph = Graph::from_parts(parent.num_vertices(), endpoint_list);
        SpanningEdgeSubgraph {
            graph,
            to_parent_edge: edges.to_vec(),
        }
    }

    /// The materialized subgraph (same vertex ids as the parent).
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Maps a local edge to its parent-graph identifier.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    #[inline]
    pub fn to_parent_edge(&self, local: EdgeId) -> EdgeId {
        self.to_parent_edge[local.index()]
    }
}

/// A bitset over `0..domain` with per-word prefix popcounts, giving O(1)
/// membership and O(1) rank (= local id) queries for a sorted index set.
#[derive(Clone, Debug)]
struct RankedBits {
    words: Vec<u64>,
    /// `rank[w]` = number of set bits in words `0..w`.
    rank: Vec<u32>,
}

impl RankedBits {
    /// Builds from ascending, in-range indices.
    fn from_sorted(indices: impl Iterator<Item = usize>, domain: usize) -> RankedBits {
        let n_words = domain.div_ceil(64);
        let mut words = vec![0u64; n_words];
        for i in indices {
            words[i / 64] |= 1u64 << (i % 64);
        }
        let mut rank = Vec::with_capacity(n_words);
        let mut acc = 0u32;
        for &w in &words {
            rank.push(acc);
            acc += w.count_ones();
        }
        RankedBits { words, rank }
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits strictly below `i` — the local id of member `i`.
    #[inline]
    fn rank(&self, i: usize) -> usize {
        let below = self.words[i / 64] & ((1u64 << (i % 64)) - 1);
        num::usize_from(self.rank[i / 64]) + num::usize_from(below.count_ones())
    }
}

/// The compact local incidence both borrowed graph views carry: a CSR
/// of `(neighbor, local edge)` slots, one per active port, in the
/// parent's port order — the same layout as [`Graph::incidence`].
///
/// Color-class views are iterated dozens of times (every Linial and
/// reduction round reads every agent's neighbors), so the parent ports
/// are filtered once, here, instead of on every call.
#[derive(Clone, Debug)]
struct LocalIncidence {
    /// Row `v` is `adj[offsets[v]..offsets[v + 1]]`; length = vertex
    /// count + 1.
    offsets: Vec<u32>,
    adj: Vec<(VertexId, EdgeId)>,
    max_degree: usize,
}

impl LocalIncidence {
    /// Lays out one row per entry of `degree`, then has `fill(v, row)`
    /// write every slot of each nonempty row.
    ///
    /// # Errors
    ///
    /// [`GraphError::Overflow`] if the total slot count does not fit the
    /// u32 offsets.
    fn build(
        degree: &[u32],
        mut fill: impl FnMut(usize, &mut [(VertexId, EdgeId)]),
    ) -> Result<Self, GraphError> {
        let mut offsets = Vec::with_capacity(degree.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in degree {
            acc += num::usize_from(d);
            offsets.push(num::to_u32(acc)?);
        }
        let mut adj = vec![(VertexId::new(0), EdgeId::new(0)); acc];
        for (v, bounds) in offsets.windows(2).enumerate() {
            let row = num::usize_from(bounds[0])..num::usize_from(bounds[1]);
            if !row.is_empty() {
                fill(v, &mut adj[row]);
            }
        }
        Ok(LocalIncidence {
            offsets,
            adj,
            max_degree: num::usize_from(degree.iter().copied().max().unwrap_or(0)),
        })
    }

    #[inline]
    fn row(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        &self.adj
            [num::usize_from(self.offsets[v.index()])..num::usize_from(self.offsets[v.index() + 1])]
    }
}

/// Read-only graph interface served either by a whole [`Graph`] or by a
/// borrowed subgraph view, so recursive algorithms can run on color
/// classes without materializing them.
///
/// Edge identifiers handed to and returned by these methods are **local**
/// (dense `0..num_edges()`, matching the materialized subgraph's ids);
/// vertex identifiers are whatever the implementor's vertex space is (the
/// parent's for spanning edge views).
pub trait GraphView {
    /// Number of vertices in the view's vertex space.
    fn num_vertices(&self) -> usize;
    /// Number of (active) edges; local edge ids are `0..num_edges()`.
    fn num_edges(&self) -> usize;
    /// Endpoints of local edge `e`, ascending.
    fn endpoints(&self, e: EdgeId) -> [VertexId; 2];
    /// Degree of `v` counting only active edges.
    fn degree(&self, v: VertexId) -> usize;
    /// Maximum active degree (0 for edgeless views).
    fn max_degree(&self) -> usize;
    /// Maps a local edge to the underlying parent-graph edge (identity
    /// for [`Graph`]).
    fn to_parent_edge(&self, local: EdgeId) -> EdgeId;
    /// Calls `f` with the local id of every active edge incident on `v`,
    /// in incidence (= port) order.
    fn for_each_incident_edge(&self, v: VertexId, f: impl FnMut(EdgeId));

    /// Calls `f(neighbor, local edge)` for every active edge incident on
    /// `v`, in incidence (= port) order: the neighbor enumeration every
    /// LOCAL round reads (`decolor_runtime::Network` is generic over this
    /// trait, re-exported there as `Topology`). Port `p` of `v` is the
    /// `p`-th pair yielded.
    ///
    /// The default derives the neighbor from [`GraphView::endpoints`];
    /// implementors backed by an adjacency structure override it to read
    /// the neighbor directly.
    fn for_each_port(&self, v: VertexId, mut f: impl FnMut(VertexId, EdgeId)) {
        self.for_each_incident_edge(v, |e| {
            let [a, b] = self.endpoints(e);
            f(if a == v { b } else { a }, e);
        });
    }

    /// The `(neighbor, local edge)` pair across port `p` of `v`, or
    /// `None` if `p ≥ degree(v)`.
    ///
    /// The default scans the incidence in O(deg); [`Graph`] overrides it
    /// with the O(1) CSR lookup.
    fn port(&self, v: VertexId, p: usize) -> Option<(VertexId, EdgeId)> {
        let mut found = None;
        let mut i = 0usize;
        self.for_each_port(v, |u, e| {
            if i == p {
                found = Some((u, e));
            }
            i += 1;
        });
        found
    }

    /// Whether the topology contains a parallel edge (same endpoint pair
    /// twice). Used by entry points whose constructions require a simple
    /// input.
    ///
    /// One pass over the incidence rows with a per-vertex stamp: row `v`
    /// marks each neighbor `u` with `v`, so meeting a mark already equal
    /// to `v` means a second edge to `u`. Stamps start at the vertex's own
    /// id, which no row writes (self-loops are not representable). O(n)
    /// words and O(n + m) time, for every implementor.
    fn has_parallel_edges(&self) -> bool {
        let mut stamp: Vec<VertexId> = (0..self.num_vertices()).map(VertexId::new).collect();
        let mut parallel = false;
        for v in (0..self.num_vertices()).map(VertexId::new) {
            self.for_each_port(v, |u, _| {
                let mark = &mut stamp[u.index()];
                parallel |= *mark == v;
                *mark = v;
            });
            if parallel {
                return true;
            }
        }
        false
    }
}

impl GraphView for Graph {
    #[inline]
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        Graph::num_edges(self)
    }

    #[inline]
    fn endpoints(&self, e: EdgeId) -> [VertexId; 2] {
        Graph::endpoints(self, e)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        Graph::degree(self, v)
    }

    #[inline]
    fn max_degree(&self) -> usize {
        Graph::max_degree(self)
    }

    #[inline]
    fn to_parent_edge(&self, local: EdgeId) -> EdgeId {
        local
    }

    #[inline]
    fn for_each_incident_edge(&self, v: VertexId, mut f: impl FnMut(EdgeId)) {
        for &(_, e) in self.incidence(v) {
            f(e);
        }
    }

    #[inline]
    fn for_each_port(&self, v: VertexId, mut f: impl FnMut(VertexId, EdgeId)) {
        for &(u, e) in self.incidence(v) {
            f(u, e);
        }
    }

    #[inline]
    fn port(&self, v: VertexId, p: usize) -> Option<(VertexId, EdgeId)> {
        self.incidence(v).get(p).copied()
    }
}

/// Borrowed spanning subgraph: the parent's vertex set with an **active
/// edge subset**, served off the parent topology without copying it.
///
/// The allocation-light counterpart of [`SpanningEdgeSubgraph`]: instead
/// of a fresh `Graph` it keeps the sorted active-edge list, an activation
/// bitset with rank (O(1) parent→local id), and a compact local incidence
/// (one `(neighbor, local edge)` slot per active port, in parent port
/// order) — O(n + m_class) words, with no endpoint table or builder
/// validation pass. Local edge `i` is `edges[i]`, exactly the materialized
/// subgraph's numbering, so results are interchangeable between the
/// representations.
///
/// Generic over the **parent topology** `P` (default [`Graph`]): the
/// recursive pipelines also borrow views of an out-of-core
/// [`ShardedCsr`](crate::storage::ShardedCsr), or of another view.
///
/// ```rust
/// use decolor_graph::subgraph::{EdgeSubgraphView, GraphView};
/// use decolor_graph::{builder_from_edges, EdgeId, VertexId};
/// let g = builder_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// let v = EdgeSubgraphView::new(&g, vec![EdgeId::new(0), EdgeId::new(2)]).unwrap();
/// assert_eq!(v.num_edges(), 2);
/// assert_eq!(v.degree(VertexId::new(1)), 1); // only (0,1) is active at 1
/// assert_eq!(v.port(VertexId::new(2), 0), Some((VertexId::new(3), EdgeId::new(1))));
/// assert_eq!(v.to_parent_edge(EdgeId::new(1)), EdgeId::new(2));
/// assert_eq!(v.local_of(EdgeId::new(2)), Some(EdgeId::new(1)));
/// ```
#[derive(Clone, Debug)]
pub struct EdgeSubgraphView<'g, P: GraphView = Graph> {
    parent: &'g P,
    /// Active edges, ascending parent ids; position = local id.
    edges: Vec<EdgeId>,
    bits: RankedBits,
    /// Active ports per parent vertex.
    incidence: LocalIncidence,
}

impl<'g, P: GraphView> EdgeSubgraphView<'g, P> {
    /// Builds the view for `edges` (must be ascending, distinct, and in
    /// range for `parent`).
    ///
    /// One pass over the active edges counts degrees; one scan of the
    /// parent ports of each vertex with an active edge fills the local
    /// incidence.
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] if the list is out of range or not
    /// strictly ascending.
    pub fn new(parent: &'g P, edges: Vec<EdgeId>) -> Result<Self, GraphError> {
        for pair in edges.windows(2) {
            if pair[1] <= pair[0] {
                return Err(GraphError::ValidationFailed {
                    reason: format!(
                        "edge view requires strictly ascending ids, got {} after {}",
                        pair[1], pair[0]
                    ),
                });
            }
        }
        if let Some(&last) = edges.last() {
            if last.index() >= parent.num_edges() {
                return Err(GraphError::ValidationFailed {
                    reason: format!(
                        "edge {last} out of range for parent with {} edges",
                        parent.num_edges()
                    ),
                });
            }
        }
        let bits = RankedBits::from_sorted(edges.iter().map(|e| e.index()), parent.num_edges());
        let mut degree = vec![0u32; parent.num_vertices()];
        for &e in &edges {
            let [u, v] = parent.endpoints(e);
            degree[u.index()] += 1;
            degree[v.index()] += 1;
        }
        let incidence = LocalIncidence::build(&degree, |v, row| {
            let mut cursor = 0;
            parent.for_each_port(VertexId::new(v), |u, e| {
                if bits.contains(e.index()) {
                    row[cursor] = (u, EdgeId::new(bits.rank(e.index())));
                    cursor += 1;
                }
            });
            debug_assert_eq!(cursor, row.len());
        })?;
        Ok(EdgeSubgraphView {
            parent,
            edges,
            bits,
            incidence,
        })
    }

    /// The view covering every edge of `parent` (the recursion's root).
    pub fn full(parent: &'g P) -> Self {
        EdgeSubgraphView::new(parent, (0..parent.num_edges()).map(EdgeId::new).collect())
            // lint: allow(panic, "the full edge list is ascending and in range")
            .expect("the full edge list is ascending and in range")
    }

    /// The parent topology this view borrows.
    #[inline]
    pub fn parent(&self) -> &'g P {
        self.parent
    }

    /// Whether parent edge `e` is active.
    #[inline]
    pub fn contains(&self, e: EdgeId) -> bool {
        self.bits.contains(e.index())
    }

    /// Local id of parent edge `e`, if active (O(1)).
    #[inline]
    pub fn local_of(&self, e: EdgeId) -> Option<EdgeId> {
        self.contains(e)
            .then(|| EdgeId::new(self.bits.rank(e.index())))
    }
}

impl<P: GraphView> GraphView for EdgeSubgraphView<'_, P> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.parent.num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.edges.len()
    }

    #[inline]
    fn endpoints(&self, e: EdgeId) -> [VertexId; 2] {
        self.parent.endpoints(self.edges[e.index()])
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.incidence.row(v).len()
    }

    #[inline]
    fn max_degree(&self) -> usize {
        self.incidence.max_degree
    }

    #[inline]
    fn to_parent_edge(&self, local: EdgeId) -> EdgeId {
        self.edges[local.index()]
    }

    #[inline]
    fn for_each_incident_edge(&self, v: VertexId, mut f: impl FnMut(EdgeId)) {
        for &(_, e) in self.incidence.row(v) {
            f(e);
        }
    }

    #[inline]
    fn for_each_port(&self, v: VertexId, mut f: impl FnMut(VertexId, EdgeId)) {
        for &(u, e) in self.incidence.row(v) {
            f(u, e);
        }
    }

    #[inline]
    fn port(&self, v: VertexId, p: usize) -> Option<(VertexId, EdgeId)> {
        self.incidence.row(v).get(p).copied()
    }
}

/// Borrowed vertex subset with local renumbering — the allocation-light
/// counterpart of [`InducedSubgraph`] for recursions that only need the
/// subset structure (membership, local ids, induced edge count), not a
/// materialized induced graph.
///
/// Local vertex `i` is `vertices[i]`; the input must be ascending, which
/// makes local ids equal to ranks and matches [`InducedSubgraph`]'s
/// first-occurrence numbering for sorted inputs (color classes are
/// sorted).
#[derive(Clone, Debug)]
pub struct VertexSubsetView<'g, P: GraphView = Graph> {
    parent: &'g P,
    vertices: Vec<VertexId>,
    bits: RankedBits,
}

impl<'g, P: GraphView> VertexSubsetView<'g, P> {
    /// Builds the view for `vertices` (ascending, distinct, in range).
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] if the list is out of range or not
    /// strictly ascending.
    pub fn new(parent: &'g P, vertices: Vec<VertexId>) -> Result<Self, GraphError> {
        for pair in vertices.windows(2) {
            if pair[1] <= pair[0] {
                return Err(GraphError::ValidationFailed {
                    reason: format!(
                        "vertex view requires strictly ascending ids, got {} after {}",
                        pair[1], pair[0]
                    ),
                });
            }
        }
        if let Some(&last) = vertices.last() {
            if last.index() >= parent.num_vertices() {
                return Err(GraphError::ValidationFailed {
                    reason: format!(
                        "vertex {last} out of range for parent with {} vertices",
                        parent.num_vertices()
                    ),
                });
            }
        }
        let bits =
            RankedBits::from_sorted(vertices.iter().map(|v| v.index()), parent.num_vertices());
        Ok(VertexSubsetView {
            parent,
            vertices,
            bits,
        })
    }

    /// The parent topology this view borrows.
    #[inline]
    pub fn parent(&self) -> &'g P {
        self.parent
    }

    /// Number of vertices in the subset.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// The subset, ascending (position = local id).
    #[inline]
    pub fn parent_vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Whether parent vertex `v` is in the subset.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.bits.contains(v.index())
    }

    /// Local id of parent vertex `v`, if present (O(1)).
    #[inline]
    pub fn local_of(&self, v: VertexId) -> Option<VertexId> {
        self.contains(v)
            .then(|| VertexId::new(self.bits.rank(v.index())))
    }

    /// Parent vertex of local id `local`.
    #[inline]
    pub fn to_parent_vertex(&self, local: VertexId) -> VertexId {
        self.vertices[local.index()]
    }

    /// Whether any parent edge has both endpoints in the subset —
    /// [`VertexSubsetView::induced_edge_count`]` > 0`, but returning at
    /// the first hit (recursion-termination checks only need emptiness).
    pub fn has_induced_edge(&self) -> bool {
        self.vertices.iter().any(|&v| {
            let mut hit = false;
            self.parent.for_each_port(v, |u, _| {
                hit = hit || (u > v && self.contains(u));
            });
            hit
        })
    }

    /// Number of parent edges with both endpoints in the subset — the
    /// induced subgraph's edge count, without building it.
    pub fn induced_edge_count(&self) -> usize {
        self.vertices
            .iter()
            .map(|&v| {
                let mut count = 0usize;
                self.parent.for_each_port(v, |u, _| {
                    if u > v && self.contains(u) {
                        count += 1;
                    }
                });
                count
            })
            .sum()
    }
}

/// Borrowed **induced subgraph** in local vertex space — the
/// allocation-light counterpart of [`InducedSubgraph`] that also serves
/// the full [`GraphView`] interface, so LOCAL rounds can run and be
/// charged on a color class of a *vertex* coloring straight off the
/// parent CSR.
///
/// Local vertex `i` is `vertices[i]` (ascending input required, matching
/// [`InducedSubgraph`]'s numbering for sorted subsets); local edge `j` is
/// the `j`-th parent edge — in ascending parent id — with both endpoints
/// in the subset. Degrees, incidence order, and endpoints all agree with
/// the materialized induced subgraph, so algorithms generic over
/// [`GraphView`] produce bit-identical results on either representation.
///
/// Like [`EdgeSubgraphView`], it carries a **compact local incidence**
/// (one `(neighbor, edge)` slot per induced half-edge, written once by
/// the private CSR both views share), because its consumers — the
/// vertex-coloring pipeline's Linial + reduction rounds — iterate every
/// vertex's incidence dozens of times; paying the parent-incidence
/// filtering per round would cost more than the whole recursion saves.
/// Construction is two O(Σ_{v ∈ subset} deg_parent(v)) scans; no `Graph`
/// (endpoint table + builder validation pass) or network state is built.
#[derive(Clone, Debug)]
pub struct InducedSubgraphView<'g, P: GraphView = Graph> {
    subset: VertexSubsetView<'g, P>,
    /// Induced parent edges, ascending; position = local edge id.
    edges: Vec<EdgeId>,
    /// Induced ports per local vertex, in local ids.
    incidence: LocalIncidence,
}

impl<'g, P: GraphView> InducedSubgraphView<'g, P> {
    /// Builds the induced view for `vertices` (ascending, distinct, in
    /// range for `parent`).
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] as [`VertexSubsetView::new`].
    pub fn new(parent: &'g P, vertices: Vec<VertexId>) -> Result<Self, GraphError> {
        let subset = VertexSubsetView::new(parent, vertices)?;
        let mut degree = vec![0u32; subset.num_vertices()];
        let mut edges = Vec::new();
        for (local, &v) in subset.parent_vertices().iter().enumerate() {
            parent.for_each_port(v, |u, e| {
                if subset.contains(u) {
                    degree[local] += 1;
                    if u > v {
                        // Each induced edge is collected once, from its
                        // lower endpoint.
                        edges.push(e);
                    }
                }
            });
        }
        edges.sort_unstable();
        let edge_bits =
            RankedBits::from_sorted(edges.iter().map(|e| e.index()), parent.num_edges());
        // Second pass: the compact local incidence, in the parent's
        // incidence order (= ascending local edge id per vertex).
        let incidence = LocalIncidence::build(&degree, |local, row| {
            let mut cursor = 0;
            parent.for_each_port(subset.to_parent_vertex(VertexId::new(local)), |u, e| {
                if edge_bits.contains(e.index()) {
                    row[cursor] = (
                        subset
                            .local_of(u)
                            // lint: allow(panic, "induced edge endpoints are in the subset")
                            .expect("induced edge endpoints are in the subset"),
                        EdgeId::new(edge_bits.rank(e.index())),
                    );
                    cursor += 1;
                }
            });
            debug_assert_eq!(cursor, row.len());
        })?;
        Ok(InducedSubgraphView {
            subset,
            edges,
            incidence,
        })
    }

    /// The vertex subset this induced view is built over.
    #[inline]
    pub fn subset(&self) -> &VertexSubsetView<'g, P> {
        &self.subset
    }

    /// The subset, ascending (position = local vertex id).
    #[inline]
    pub fn parent_vertices(&self) -> &[VertexId] {
        self.subset.parent_vertices()
    }

    /// Parent vertex of local id `local`.
    #[inline]
    pub fn to_parent_vertex(&self, local: VertexId) -> VertexId {
        self.subset.to_parent_vertex(local)
    }

    /// Local id of parent vertex `v`, if present (O(1)).
    #[inline]
    pub fn local_of(&self, v: VertexId) -> Option<VertexId> {
        self.subset.local_of(v)
    }

    /// The compact local incidence of `v` as `(neighbor, edge)` pairs in
    /// port order — same layout as [`Graph::incidence`].
    #[inline]
    pub fn incidence(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        self.incidence.row(v)
    }
}

impl<P: GraphView> GraphView for InducedSubgraphView<'_, P> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.subset.num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.edges.len()
    }

    #[inline]
    fn endpoints(&self, e: EdgeId) -> [VertexId; 2] {
        let [u, v] = self.subset.parent().endpoints(self.edges[e.index()]);
        // Rank is monotone, so the local pair stays ascending.
        [
            // lint: allow(panic, "endpoint is in the subset")
            self.subset.local_of(u).expect("endpoint is in the subset"),
            // lint: allow(panic, "endpoint is in the subset")
            self.subset.local_of(v).expect("endpoint is in the subset"),
        ]
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.incidence.row(v).len()
    }

    #[inline]
    fn max_degree(&self) -> usize {
        self.incidence.max_degree
    }

    #[inline]
    fn to_parent_edge(&self, local: EdgeId) -> EdgeId {
        self.edges[local.index()]
    }

    #[inline]
    fn for_each_incident_edge(&self, v: VertexId, mut f: impl FnMut(EdgeId)) {
        for &(_, e) in self.incidence(v) {
            f(e);
        }
    }

    #[inline]
    fn for_each_port(&self, v: VertexId, mut f: impl FnMut(VertexId, EdgeId)) {
        for &(u, e) in self.incidence(v) {
            f(u, e);
        }
    }

    #[inline]
    fn port(&self, v: VertexId, p: usize) -> Option<(VertexId, EdgeId)> {
        self.incidence(v).get(p).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder_from_edges;

    fn p4() -> Graph {
        builder_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn induced_keeps_internal_edges_only() {
        let g = p4();
        let s = InducedSubgraph::new(&g, &[VertexId::new(0), VertexId::new(2), VertexId::new(3)]);
        assert_eq!(s.graph().num_vertices(), 3);
        // Only (2,3) survives.
        assert_eq!(s.graph().num_edges(), 1);
        assert_eq!(s.to_parent_edge(EdgeId::new(0)), EdgeId::new(2));
    }

    #[test]
    fn induced_dedups_input_vertices() {
        let g = p4();
        let s = InducedSubgraph::new(&g, &[VertexId::new(1), VertexId::new(1)]);
        assert_eq!(s.graph().num_vertices(), 1);
        assert_eq!(
            s.from_parent_vertex(VertexId::new(1)),
            Some(VertexId::new(0))
        );
        assert_eq!(s.from_parent_vertex(VertexId::new(0)), None);
    }

    #[test]
    fn induced_empty_subset() {
        let g = p4();
        let s = InducedSubgraph::new(&g, &[]);
        assert_eq!(s.graph().num_vertices(), 0);
        assert_eq!(s.graph().num_edges(), 0);
    }

    #[test]
    fn scatter_vertex_values_roundtrip() {
        let g = p4();
        let s = InducedSubgraph::new(&g, &[VertexId::new(3), VertexId::new(1)]);
        let mut out = vec![u32::MAX; 4];
        s.scatter_vertex_values(&[7, 9], &mut out).unwrap();
        assert_eq!(out, vec![u32::MAX, 9, u32::MAX, 7]);
        assert!(s.scatter_vertex_values(&[1], &mut out).is_err());
    }

    #[test]
    fn spanning_subgraph_preserves_vertex_set() {
        let g = p4();
        let s = SpanningEdgeSubgraph::new(&g, &[EdgeId::new(1)]);
        assert_eq!(s.graph().num_vertices(), 4);
        assert_eq!(s.graph().degree(VertexId::new(0)), 0);
        assert_eq!(s.graph().degree(VertexId::new(1)), 1);
    }

    /// Asserts that `view` serves exactly the degrees, incidence and port
    /// table of the materialized subgraph `mat`.
    fn assert_ports_match(view: &impl GraphView, mat: &Graph) {
        assert_eq!(view.num_vertices(), mat.num_vertices());
        assert_eq!(view.num_edges(), mat.num_edges());
        assert_eq!(view.max_degree(), mat.max_degree());
        for v in mat.vertices() {
            assert_eq!(view.degree(v), mat.degree(v), "degree of {v}");
            let mut inc = Vec::new();
            view.for_each_incident_edge(v, |e| inc.push(e));
            assert_eq!(
                inc,
                mat.incident_edges(v).collect::<Vec<_>>(),
                "incidence of {v}"
            );
            let mut ports = Vec::new();
            view.for_each_port(v, |u, e| ports.push((u, e)));
            assert_eq!(ports, mat.incidence(v).to_vec(), "ports of {v}");
            for (p, &pair) in mat.incidence(v).iter().enumerate() {
                assert_eq!(view.port(v, p), Some(pair), "port {p} of {v}");
            }
            assert_eq!(view.port(v, mat.degree(v)), None, "past the ports of {v}");
        }
    }

    #[test]
    fn edge_view_matches_materialized_subgraph() {
        let g = crate::generators::gnm(40, 120, 3).unwrap();
        // Every third edge, ascending — the shape of a color class.
        let subset: Vec<EdgeId> = g.edges().filter(|e| e.index() % 3 == 0).collect();
        let sub = SpanningEdgeSubgraph::new(&g, &subset);
        let view = EdgeSubgraphView::new(&g, subset.clone()).unwrap();
        assert!(
            g.vertices()
                .any(|v| sub.graph().degree(v) == 0 && g.degree(v) > 0),
            "the class leaves some vertex isolated"
        );
        assert_ports_match(&view, sub.graph());
        // The empty view: every vertex isolated, port 0 absent.
        let empty = EdgeSubgraphView::new(&g, vec![]).unwrap();
        assert_ports_match(&empty, SpanningEdgeSubgraph::new(&g, &[]).graph());
        for local in 0..view.num_edges() {
            let e = EdgeId::new(local);
            assert_eq!(view.to_parent_edge(e), sub.to_parent_edge(e));
            assert_eq!(GraphView::endpoints(&view, e), sub.graph().endpoints(e));
            assert_eq!(view.local_of(view.to_parent_edge(e)), Some(e));
        }
        // Inactive parent edges have no local id.
        for e in g.edges().filter(|e| e.index() % 3 != 0) {
            assert_eq!(view.local_of(e), None);
        }
    }

    #[test]
    fn edge_view_rejects_malformed_lists() {
        let g = p4();
        assert!(EdgeSubgraphView::new(&g, vec![EdgeId::new(1), EdgeId::new(0)]).is_err());
        assert!(EdgeSubgraphView::new(&g, vec![EdgeId::new(0), EdgeId::new(0)]).is_err());
        assert!(EdgeSubgraphView::new(&g, vec![EdgeId::new(9)]).is_err());
        assert!(EdgeSubgraphView::new(&g, vec![]).is_ok());
    }

    #[test]
    fn full_edge_view_is_the_graph() {
        let g = crate::generators::gnm(25, 70, 5).unwrap();
        assert_ports_match(&EdgeSubgraphView::full(&g), &g);
    }

    #[test]
    fn graph_implements_graph_view_identically() {
        let g = crate::generators::gnm(20, 50, 8).unwrap();
        assert_eq!(GraphView::num_edges(&g), g.num_edges());
        assert_eq!(GraphView::max_degree(&g), g.max_degree());
        for (e, ep) in g.edge_list() {
            assert_eq!(GraphView::endpoints(&g, e), ep);
            assert_eq!(GraphView::to_parent_edge(&g, e), e);
        }
    }

    #[test]
    fn vertex_view_matches_induced_subgraph() {
        let g = crate::generators::gnm(30, 90, 2).unwrap();
        let subset: Vec<VertexId> = g.vertices().filter(|v| v.index() % 2 == 0).collect();
        let sub = InducedSubgraph::new(&g, &subset);
        let view = VertexSubsetView::new(&g, subset).unwrap();
        assert_eq!(view.num_vertices(), sub.graph().num_vertices());
        assert_eq!(view.induced_edge_count(), sub.graph().num_edges());
        assert_eq!(view.has_induced_edge(), sub.graph().num_edges() > 0);
        let sparse = VertexSubsetView::new(&g, vec![VertexId::new(0)]).unwrap();
        assert!(!sparse.has_induced_edge());
        for v in g.vertices() {
            assert_eq!(view.local_of(v), sub.from_parent_vertex(v));
        }
        for local in 0..view.num_vertices() {
            let l = VertexId::new(local);
            assert_eq!(view.to_parent_vertex(l), sub.to_parent_vertex(l));
        }
    }

    #[test]
    fn vertex_view_rejects_malformed_lists() {
        let g = p4();
        assert!(VertexSubsetView::new(&g, vec![VertexId::new(2), VertexId::new(1)]).is_err());
        assert!(VertexSubsetView::new(&g, vec![VertexId::new(7)]).is_err());
    }

    #[test]
    fn ranked_bits_cross_word_boundaries() {
        let g = crate::generators::path(200).unwrap();
        let subset: Vec<EdgeId> = g.edges().filter(|e| e.index() % 7 == 0).collect();
        let view = EdgeSubgraphView::new(&g, subset.clone()).unwrap();
        for (i, &e) in subset.iter().enumerate() {
            assert_eq!(view.local_of(e), Some(EdgeId::new(i)));
        }
    }

    #[test]
    fn induced_view_matches_materialized_subgraph() {
        let g = crate::generators::gnm(40, 140, 6).unwrap();
        let subset: Vec<VertexId> = g.vertices().filter(|v| v.index() % 3 != 1).collect();
        let sub = InducedSubgraph::new(&g, &subset);
        let view = InducedSubgraphView::new(&g, subset).unwrap();
        let mat = sub.graph();
        assert_ports_match(&view, mat);
        for e in mat.edges() {
            assert_eq!(GraphView::endpoints(&view, e), mat.endpoints(e));
            assert_eq!(view.to_parent_edge(e), sub.to_parent_edge(e));
        }
        for v in g.vertices() {
            assert_eq!(view.local_of(v), sub.from_parent_vertex(v));
        }
    }

    #[test]
    fn induced_view_empty_and_isolated() {
        let g = p4();
        let view = InducedSubgraphView::new(&g, vec![VertexId::new(0), VertexId::new(2)]).unwrap();
        assert_eq!(GraphView::num_edges(&view), 0);
        assert_eq!(GraphView::max_degree(&view), 0);
        let mut seen = 0;
        view.for_each_port(VertexId::new(0), |_, _| seen += 1);
        assert_eq!(seen, 0);
    }

    #[test]
    fn for_each_port_default_matches_override() {
        let g = crate::generators::gnm(30, 90, 11).unwrap();
        let subset: Vec<EdgeId> = g.edges().filter(|e| e.index() % 2 == 0).collect();
        let view = EdgeSubgraphView::new(&g, subset).unwrap();
        for v in g.vertices() {
            let mut via_override = Vec::new();
            view.for_each_port(v, |u, e| via_override.push((u, e)));
            // The trait default derives neighbors from endpoints.
            let mut via_default = Vec::new();
            view.for_each_incident_edge(v, |e| {
                let [a, b] = GraphView::endpoints(&view, e);
                via_default.push((if a == v { b } else { a }, e));
            });
            assert_eq!(via_override, via_default, "port order of {v}");
        }
    }

    #[test]
    fn induced_preserves_adjacency() {
        let g = builder_from_edges(5, &[(0, 1), (0, 2), (1, 2), (3, 4)]).unwrap();
        let s = InducedSubgraph::new(&g, &[VertexId::new(0), VertexId::new(1), VertexId::new(2)]);
        assert_eq!(s.graph().num_edges(), 3);
        for e in s.graph().edges() {
            let [lu, lv] = s.graph().endpoints(e);
            let pu = s.to_parent_vertex(lu);
            let pv = s.to_parent_vertex(lv);
            assert!(g.has_edge(pu, pv));
        }
    }
}
