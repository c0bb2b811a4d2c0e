//! Edge connectors (§4).
//!
//! Each vertex `v` enumerates its incident edges and groups them into
//! subsets of size ≤ t, defining one *virtual vertex* per subset (all
//! simulated locally by `v`). Every original edge `(u, v)` becomes the
//! connector edge `(u_i, v_j)` where `i`/`j` are the group indices at each
//! endpoint. The connector has maximum degree ≤ t, and connector edge `k`
//! **is** original edge `k` (identifiers align), so an edge coloring of
//! the connector is a candidate labeling of `E(G)` directly — this is the
//! "no line-graph simulation needed" point of §4.

use std::path::Path;

use decolor_graph::storage::{ScratchDir, ShardedCsr, ShardedCsrBuilder};
use decolor_graph::subgraph::GraphView;
use decolor_graph::{num, EdgeId, EdgeSink, Graph, GraphBuilder, VertexId};

use crate::error::AlgoError;

/// An edge connector: virtual-vertex graph plus the owner bookkeeping.
#[derive(Clone, Debug)]
pub struct EdgeConnector {
    /// The connector graph on virtual vertices; its edge `k` corresponds
    /// to edge `k` of the source graph.
    pub graph: Graph,
    /// Owner (original vertex) of each virtual vertex.
    pub owner: Vec<VertexId>,
    /// Group index of each virtual vertex within its owner.
    pub group_index: Vec<u32>,
    /// Virtual vertices of each original vertex, in group order.
    pub virtuals_of: Vec<Vec<VertexId>>,
    /// The group-size parameter.
    pub t: usize,
}

/// Builds the edge connector of `g` with group size `t ≥ 1`.
///
/// Purely local (each vertex groups its own ports); callers charge O(1)
/// rounds.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `t == 0` or `g` has parallel edges.
pub fn edge_connector(g: &Graph, t: usize) -> Result<EdgeConnector, AlgoError> {
    if t == 0 {
        return Err(AlgoError::InvalidParameters {
            reason: "edge-connector group size t must be positive".into(),
        });
    }
    if g.has_parallel_edges() {
        return Err(AlgoError::InvalidParameters {
            reason: "edge connector requires a simple source graph".into(),
        });
    }
    // Virtual vertices: ⌈deg(v)/t⌉ per vertex (≥ 1 so isolated vertices
    // keep a representative; the paper's ⌈Δ/t⌉ uses the global bound, the
    // local count only tightens it).
    let mut owner = Vec::new();
    let mut group_index = Vec::new();
    let mut virtuals_of = Vec::with_capacity(g.num_vertices());
    for v in g.vertices() {
        let k = g.degree(v).div_ceil(t).max(1);
        let mut mine = Vec::with_capacity(k);
        for i in 0..k {
            mine.push(VertexId::new(owner.len()));
            owner.push(v);
            group_index.push(num::to_u32(i)?);
        }
        virtuals_of.push(mine);
    }
    // Port p of v falls in group p / t. Distinct source edges share at
    // most one endpoint, so connector edges are unique.
    let mut b = GraphBuilder::new(owner.len()).with_edge_capacity(g.num_edges());
    for (e, [u, v]) in g.edge_list() {
        let pu = port_index(g, u, e);
        let pv = port_index(g, v, e);
        let cu = virtuals_of[u.index()][pu / t];
        let cv = virtuals_of[v.index()][pv / t];
        b.add_edge(cu.index(), cv.index())
            .map_err(|err| AlgoError::InvariantViolated {
                reason: err.to_string(),
            })?;
    }
    Ok(EdgeConnector {
        graph: b.build(),
        owner,
        group_index,
        virtuals_of,
        t,
    })
}

fn port_index(g: &Graph, v: VertexId, e: EdgeId) -> usize {
    g.incidence(v)
        .iter()
        .position(|&(_, f)| f == e)
        // lint: allow(panic, "edge is incident on its endpoint")
        .expect("edge is incident on its endpoint")
}

/// The edge-connector **graph** of a borrowed color-class view (§4),
/// compact: only vertices incident on an active edge get virtual
/// vertices. Connector edge `k` is the view's local edge `k`.
///
/// Dropping the isolated virtual vertices does not change any edge
/// coloring of the connector (they have no incident edges, so no
/// algorithmic decision ever consults them) — the produced class
/// structure is identical to [`edge_connector`] on the materialized
/// subgraph, which the equivalence tests pin.
///
/// The caller is responsible for the source graph being simple (a view of
/// a simple parent always is); the **Δ(connector) ≤ t** guarantee of §4
/// is verified before returning.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `t == 0`;
/// [`AlgoError::InvariantViolated`] if the degree bound fails.
pub fn edge_connector_graph_on<V: GraphView>(view: &V, t: usize) -> Result<Graph, AlgoError> {
    let layout = ConnectorLayout::compute(view, t)?;
    // Connector edges are unique by construction (distinct source edges
    // share at most one endpoint, so at most one virtual vertex), so the
    // multigraph builder can skip the per-edge dedup hashing.
    let mut b = GraphBuilder::new_multi(layout.num_virtuals).with_edge_capacity(view.num_edges());
    layout.stream_into(&mut b)?;
    // The CSR over ~2k incidence slots is the hot spot of the whole
    // connector build at n = 10⁶; the sharded build is bit-identical to
    // the sequential one at any `DECOLOR_THREADS`.
    let graph = b.build_parallel();
    debug_assert!(!graph.has_parallel_edges());
    verify_connector_degree(&graph, t)?;
    Ok(graph)
}

/// The per-edge virtual-endpoint layout shared by the in-RAM and spilled
/// edge-connector builds: which virtual vertex each side of every active
/// edge attaches to, plus the total virtual-vertex count. Computing it
/// once and streaming the edges into an [`EdgeSink`] keeps the two
/// backends byte-identical (same push order ⇒ same edge ids ⇒ same
/// incidence structure).
struct ConnectorLayout {
    num_virtuals: usize,
    virt_lo: Vec<u32>,
    virt_hi: Vec<u32>,
}

impl ConnectorLayout {
    fn compute<V: GraphView>(view: &V, t: usize) -> Result<ConnectorLayout, AlgoError> {
        if t == 0 {
            return Err(AlgoError::InvalidParameters {
                reason: "edge-connector group size t must be positive".into(),
            });
        }
        let k = view.num_edges();
        let n = view.num_vertices();
        // Virtual-vertex base index per touched (active-degree > 0) vertex:
        // ⌈deg/t⌉ groups each. `u32::MAX` marks untouched vertices.
        let mut virt_base = vec![u32::MAX; n];
        let mut acc = 0usize;
        for v in (0..n).map(VertexId::new) {
            let deg = view.degree(v);
            if deg > 0 {
                let base = u32::try_from(acc).map_err(|_| AlgoError::InvalidParameters {
                    reason: format!(
                        "connector needs more than u32::MAX virtual vertices (t = {t})"
                    ),
                })?;
                virt_base[v.index()] = base;
                acc += deg.div_ceil(t);
            }
        }
        if u32::try_from(acc).is_err() {
            return Err(AlgoError::InvalidParameters {
                reason: format!("connector needs {acc} virtual vertices (exceeds u32 ids)"),
            });
        }
        // Virtual endpoint of every active edge on each side: the vertex's
        // base plus (position within its active incidence) / t — exactly the
        // port grouping of `edge_connector` on the materialized subgraph.
        let mut virt_lo = vec![0u32; k];
        let mut virt_hi = vec![0u32; k];
        for v in (0..n).map(VertexId::new) {
            let base = virt_base[v.index()];
            if base == u32::MAX {
                continue;
            }
            let mut pos = 0usize;
            view.for_each_incident_edge(v, |le| {
                // lint: allow(cast, "pos / t is below the vertex's virtual-group count, which fits u32")
                let virt = base + (pos / t) as u32;
                let [lo, _hi] = view.endpoints(le);
                if v == lo {
                    virt_lo[le.index()] = virt;
                } else {
                    virt_hi[le.index()] = virt;
                }
                pos += 1;
            });
        }
        Ok(ConnectorLayout {
            num_virtuals: acc,
            virt_lo,
            virt_hi,
        })
    }

    /// Streams connector edge `k` = source edge `k` into `sink`, in edge-id
    /// order.
    fn stream_into<S: EdgeSink>(&self, sink: &mut S) -> Result<(), AlgoError> {
        for le in 0..self.virt_lo.len() {
            sink.add_edge(
                num::usize_from(self.virt_lo[le]),
                num::usize_from(self.virt_hi[le]),
            )
            .map_err(|err| AlgoError::InvariantViolated {
                reason: err.to_string(),
            })?;
        }
        Ok(())
    }
}

/// The §4 **Δ(connector) ≤ t** guarantee, checked on either backend.
fn verify_connector_degree<V: GraphView>(conn: &V, t: usize) -> Result<(), AlgoError> {
    for v in (0..conn.num_vertices()).map(VertexId::new) {
        if conn.degree(v) > t {
            return Err(AlgoError::InvariantViolated {
                reason: format!("virtual vertex {v} has degree {} > t = {t}", conn.degree(v)),
            });
        }
    }
    Ok(())
}

/// An edge connector spilled to an on-disk [`ShardedCsr`] under a scratch
/// directory. Dropping the wrapper unmaps the CSR and then removes the
/// directory, so the spill lives exactly as long as the stage that
/// colors it.
pub struct SpilledConnector {
    // Field order is drop order: the mapping goes before its directory.
    csr: ShardedCsr,
    _dir: ScratchDir,
}

impl SpilledConnector {
    /// The spilled connector topology (edge `k` = source edge `k`).
    pub fn csr(&self) -> &ShardedCsr {
        &self.csr
    }
}

/// [`edge_connector_graph_on`] streamed into a [`ShardedCsrBuilder`]
/// instead of an in-RAM [`GraphBuilder`]: the connector never exists as an
/// in-RAM graph, so the star partition's top-level stage runs out-of-core
/// end to end. Identical edge-push order makes the spilled CSR's
/// edge-space structure bit-identical to the in-RAM build, which the
/// backend-equivalence tests pin. The CSR lives in a fresh
/// [`ScratchDir`] under `root`, removed on every exit.
///
/// # Errors
///
/// As [`edge_connector_graph_on`], plus [`AlgoError::Graph`] for I/O
/// failures in the scratch directory.
pub fn edge_connector_sharded_on<V: GraphView>(
    view: &V,
    t: usize,
    root: &Path,
) -> Result<SpilledConnector, AlgoError> {
    let layout = ConnectorLayout::compute(view, t)?;
    let dir = ScratchDir::new(root, "conn");
    let mut b = ShardedCsrBuilder::create(dir.path(), layout.num_virtuals)?;
    layout.stream_into(&mut b)?;
    let conn = SpilledConnector {
        csr: b.finish()?,
        _dir: dir,
    };
    verify_connector_degree(conn.csr(), t)?;
    Ok(conn)
}

impl EdgeConnector {
    /// Checks the §4 degree guarantee: Δ(connector) ≤ t.
    ///
    /// # Errors
    ///
    /// [`AlgoError::InvariantViolated`] naming the violating virtual
    /// vertex.
    pub fn verify_degree_bound(&self) -> Result<(), AlgoError> {
        for v in self.graph.vertices() {
            if self.graph.degree(v) > self.t {
                return Err(AlgoError::InvariantViolated {
                    reason: format!(
                        "virtual vertex {v} (owner {}) has degree {} > t = {}",
                        self.owner[v.index()],
                        self.graph.degree(v),
                        self.t
                    ),
                });
            }
        }
        Ok(())
    }

    /// Maximum number of same-connector-color edges any original vertex
    /// can see: `⌈deg(v)/t⌉ ≤ ⌈Δ/t⌉` (the star bound of §4).
    pub fn star_bound(&self, g: &Graph) -> usize {
        g.vertices()
            .map(|v| g.degree(v).div_ceil(self.t))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::generators;

    #[test]
    fn figure2_instance_t_three() {
        // Figure 2 of the paper: edge connector with t = 3 on a vertex of
        // high degree. Star K_{1,7}: center splits into ⌈7/3⌉ = 3 virtual
        // vertices of degrees 3, 3, 1.
        let g = generators::star(8).unwrap();
        let conn = edge_connector(&g, 3).unwrap();
        conn.verify_degree_bound().unwrap();
        assert_eq!(conn.virtuals_of[0].len(), 3);
        let mut degs: Vec<usize> = conn.virtuals_of[0]
            .iter()
            .map(|&v| conn.graph.degree(v))
            .collect();
        degs.sort_unstable();
        assert_eq!(degs, vec![1, 3, 3]);
        assert_eq!(conn.graph.num_edges(), g.num_edges());
    }

    #[test]
    fn edge_ids_align_with_source() {
        let g = generators::gnm(50, 200, 7).unwrap();
        let conn = edge_connector(&g, 4).unwrap();
        assert_eq!(conn.graph.num_edges(), g.num_edges());
        for (e, [cu, cv]) in conn.graph.edge_list() {
            let [u, v] = g.endpoints(e);
            let owners = [conn.owner[cu.index()], conn.owner[cv.index()]];
            assert!(owners == [u, v] || owners == [v, u]);
        }
    }

    #[test]
    fn degree_bound_holds_across_t() {
        let g = generators::random_regular(60, 12, 5).unwrap();
        for t in [1usize, 2, 3, 5, 12, 20] {
            let conn = edge_connector(&g, t).unwrap();
            conn.verify_degree_bound().unwrap();
            assert_eq!(conn.star_bound(&g), 12usize.div_ceil(t));
        }
    }

    #[test]
    fn t_one_gives_perfect_matching_structure() {
        let g = generators::gnm(30, 60, 2).unwrap();
        let conn = edge_connector(&g, 1).unwrap();
        // Every virtual vertex has degree ≤ 1: the connector is a matching.
        assert!(conn.graph.max_degree() <= 1);
    }

    #[test]
    fn isolated_vertices_keep_one_virtual() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        let conn = edge_connector(&g, 2).unwrap();
        assert_eq!(conn.virtuals_of[2].len(), 1);
        assert_eq!(conn.graph.num_vertices(), 3);
    }

    #[test]
    fn group_indices_are_dense_per_owner() {
        let g = generators::gnm(20, 80, 9).unwrap();
        let conn = edge_connector(&g, 3).unwrap();
        for v in g.vertices() {
            for (i, &cv) in conn.virtuals_of[v.index()].iter().enumerate() {
                assert_eq!(conn.owner[cv.index()], v);
                assert_eq!(conn.group_index[cv.index()] as usize, i);
            }
        }
    }

    #[test]
    fn rejects_zero_t() {
        let g = generators::path(3).unwrap();
        assert!(edge_connector(&g, 0).is_err());
        let view = decolor_graph::subgraph::EdgeSubgraphView::full(&g);
        assert!(edge_connector_graph_on(&view, 0).is_err());
    }

    #[test]
    fn connector_csr_build_is_thread_count_invariant() {
        // Large enough that the sharded CSR build actually engages
        // (graph-crate threshold: 2^15 edges).
        let g = generators::gnm(4000, 36_000, 13).unwrap();
        let view = decolor_graph::subgraph::EdgeSubgraphView::full(&g);
        let sequential = rayon::with_num_threads(1, || edge_connector_graph_on(&view, 3).unwrap());
        for threads in [2usize, 4] {
            let parallel =
                rayon::with_num_threads(threads, || edge_connector_graph_on(&view, 3).unwrap());
            assert_eq!(
                parallel, sequential,
                "connector diverges at {threads} threads"
            );
        }
    }

    #[test]
    fn view_connector_matches_materialized_line_structure() {
        // The compact view connector renumbers virtual vertices (isolated
        // ones are dropped), but the *edge-to-edge* structure — which is
        // all an edge coloring consults — must match the connector of the
        // materialized subgraph exactly: same edge count, same per-edge
        // incident-edge lists (as ordered sequences, up to the endpoint
        // pair being unordered).
        let g = generators::gnm(60, 220, 4).unwrap();
        let subset: Vec<EdgeId> = g.edges().filter(|e| e.index() % 3 == 0).collect();
        let sub = decolor_graph::subgraph::SpanningEdgeSubgraph::new(&g, &subset);
        let view = decolor_graph::subgraph::EdgeSubgraphView::new(&g, subset).unwrap();
        for t in [1usize, 2, 3, 5] {
            let reference = edge_connector(sub.graph(), t).unwrap();
            let compact = edge_connector_graph_on(&view, t).unwrap();
            assert_eq!(compact.num_edges(), reference.graph.num_edges(), "t = {t}");
            assert!(compact.max_degree() <= t);
            for e in compact.edges() {
                let sides = |conn: &Graph| {
                    let [u, v] = conn.endpoints(e);
                    let mut s = [
                        conn.incident_edges(u).collect::<Vec<_>>(),
                        conn.incident_edges(v).collect::<Vec<_>>(),
                    ];
                    s.sort();
                    s
                };
                assert_eq!(
                    sides(&compact),
                    sides(&reference.graph),
                    "t = {t}: incident structure of {e} diverges"
                );
            }
        }
    }
}
