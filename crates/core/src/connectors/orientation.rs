//! Orientation connectors (§5).
//!
//! Given an **acyclic orientation** of `G` with out-degree ≤ d, each
//! vertex groups its *incoming* edges into subsets of size ≤ `s_in` and
//! its *outgoing* edges into subsets of size ≤ `s_out`, one virtual vertex
//! per subset. Two flavors are used by the paper:
//!
//! * **Shared** (Theorem 5.3): the i-th in-group and the i-th out-group
//!   attach to the *same* virtual vertex `v_i`; degree ≤ s_in + s_out.
//! * **Bipartite** (Theorem 5.4): in-groups and out-groups get disjoint
//!   virtual vertices, so every connector edge joins an out-virtual to an
//!   in-virtual — the connector is bipartite with side degrees ≤ s_out
//!   and ≤ s_in.
//!
//! In both flavors the connector inherits the orientation (edges point at
//! the head's in-virtual), stays acyclic, and has out-degree ≤ s_out —
//! certifying arboricity ≤ s_out.

use decolor_graph::orientation::Orientation;
use decolor_graph::subgraph::GraphView;
use decolor_graph::{num, EdgeId, Graph, GraphBuilder, VertexId};

use crate::error::AlgoError;

/// Which virtual vertex a connector vertex is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VirtualKind {
    /// Shared flavor: hosts in-group `i` and out-group `i` of its owner.
    Shared(u32),
    /// Bipartite flavor: hosts in-group `i` of its owner.
    In(u32),
    /// Bipartite flavor: hosts out-group `i` of its owner.
    Out(u32),
}

/// An orientation connector.
#[derive(Clone, Debug)]
pub struct OrientationConnector {
    /// The connector graph; edge `k` corresponds to source edge `k`.
    pub graph: Graph,
    /// The inherited (acyclic) orientation of the connector.
    pub orientation: Orientation,
    /// Owner (original vertex) of each virtual vertex.
    pub owner: Vec<VertexId>,
    /// Role of each virtual vertex.
    pub kind: Vec<VirtualKind>,
    /// In-group size bound.
    pub s_in: usize,
    /// Out-group size bound.
    pub s_out: usize,
    /// `true` for the bipartite (Theorem 5.4) flavor.
    pub bipartite: bool,
}

/// Builds an orientation connector.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if a group size is 0, the orientation
/// shape mismatches, or `g` has parallel edges.
pub fn orientation_connector<V: GraphView>(
    g: &V,
    orientation: &Orientation,
    s_in: usize,
    s_out: usize,
    bipartite: bool,
) -> Result<OrientationConnector, AlgoError> {
    if s_in == 0 || s_out == 0 {
        return Err(AlgoError::InvalidParameters {
            reason: "orientation-connector group sizes must be positive".into(),
        });
    }
    if g.has_parallel_edges() {
        return Err(AlgoError::InvalidParameters {
            reason: "orientation connector requires a simple source graph".into(),
        });
    }

    // Enumerate each vertex's in-edges and out-edges (port order).
    let n = g.num_vertices();
    let mut in_slot = vec![0usize; g.num_edges()]; // index among head's in-edges
    let mut out_slot = vec![0usize; g.num_edges()]; // index among tail's out-edges
    let mut in_count = vec![0usize; n];
    let mut out_count = vec![0usize; n];
    for vi in 0..n {
        let v = VertexId::new(vi);
        g.for_each_incident_edge(v, |e| {
            if orientation.head(e) == v {
                in_slot[e.index()] = in_count[v.index()];
                in_count[v.index()] += 1;
            } else {
                out_slot[e.index()] = out_count[v.index()];
                out_count[v.index()] += 1;
            }
        });
    }

    let mut owner = Vec::new();
    let mut kind = Vec::new();
    let mut in_virtuals: Vec<Vec<VertexId>> = Vec::with_capacity(n);
    let mut out_virtuals: Vec<Vec<VertexId>> = Vec::with_capacity(n);
    for v in (0..n).map(VertexId::new) {
        let k_in = in_count[v.index()].div_ceil(s_in).max(1);
        let k_out = out_count[v.index()].div_ceil(s_out).max(1);
        if bipartite {
            let mut ins = Vec::with_capacity(k_in);
            for i in 0..k_in {
                ins.push(VertexId::new(owner.len()));
                owner.push(v);
                kind.push(VirtualKind::In(num::to_u32(i)?));
            }
            let mut outs = Vec::with_capacity(k_out);
            for i in 0..k_out {
                outs.push(VertexId::new(owner.len()));
                owner.push(v);
                kind.push(VirtualKind::Out(num::to_u32(i)?));
            }
            in_virtuals.push(ins);
            out_virtuals.push(outs);
        } else {
            let k = k_in.max(k_out);
            let mut shared = Vec::with_capacity(k);
            for i in 0..k {
                shared.push(VertexId::new(owner.len()));
                owner.push(v);
                kind.push(VirtualKind::Shared(num::to_u32(i)?));
            }
            in_virtuals.push(shared.clone());
            out_virtuals.push(shared);
        }
    }

    let mut b = GraphBuilder::new(owner.len()).with_edge_capacity(g.num_edges());
    let mut heads = Vec::with_capacity(g.num_edges());
    for e in (0..g.num_edges()).map(EdgeId::new) {
        let head = orientation.head(e);
        let [ea, eb] = g.endpoints(e);
        if head != ea && head != eb {
            return Err(AlgoError::InvariantViolated {
                reason: format!("head {head} of edge {e} is not an endpoint"),
            });
        }
        let tail = if head == ea { eb } else { ea };
        let cv_head = in_virtuals[head.index()][in_slot[e.index()] / s_in];
        let cv_tail = out_virtuals[tail.index()][out_slot[e.index()] / s_out];
        b.add_edge(cv_tail.index(), cv_head.index())
            .map_err(|err| AlgoError::InvariantViolated {
                reason: err.to_string(),
            })?;
        heads.push(cv_head);
    }
    let graph = b.build();
    let orientation =
        Orientation::new(&graph, heads).map_err(|err| AlgoError::InvariantViolated {
            reason: err.to_string(),
        })?;
    Ok(OrientationConnector {
        graph,
        orientation,
        owner,
        kind,
        s_in,
        s_out,
        bipartite,
    })
}

/// The **bipartite** orientation-connector *graph* of a borrowed
/// [`GraphView`], compact: only in/out groups that actually host an edge
/// get virtual vertices — the Theorem 5.4 recursion's per-level connector
/// without materializing the class subgraph. `heads[e]` is the head of
/// the view's local edge `e` (in the view's vertex space); connector edge
/// `k` **is** local edge `k`.
///
/// Returns the connector graph plus the `A`-side indicator consumed by
/// [`one_sided_edge_coloring`](crate::crossing_merge::one_sided_edge_coloring)
/// (`true` = out-virtual, matching [`VirtualKind::Out`] of
/// [`orientation_connector`]`(.., true)`). Dropping that connector's
/// isolated virtual vertices changes no coloring decision and no ledger
/// entry (they have degree 0), which the unit test
/// `view_connector_matches_materialized_bipartite_connector` pins.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if a group size is 0 or `heads` has
/// the wrong length; [`AlgoError::InvariantViolated`] if the §5 degree
/// bounds fail.
pub fn bipartite_orientation_connector_on<V: GraphView>(
    view: &V,
    heads: &[VertexId],
    s_in: usize,
    s_out: usize,
) -> Result<(Graph, Vec<bool>), AlgoError> {
    if s_in == 0 || s_out == 0 {
        return Err(AlgoError::InvalidParameters {
            reason: "orientation-connector group sizes must be positive".into(),
        });
    }
    let k = view.num_edges();
    if heads.len() != k {
        return Err(AlgoError::InvalidParameters {
            reason: format!("{} heads for {} active edges", heads.len(), k),
        });
    }
    let n = view.num_vertices();
    // Slot of each active edge among its head's in-edges / its tail's
    // out-edges, in incidence (= port) order — exactly
    // `orientation_connector`'s enumeration.
    let mut in_slot = vec![0u32; k];
    let mut out_slot = vec![0u32; k];
    let mut in_count = vec![0u32; n];
    let mut out_count = vec![0u32; n];
    for vi in 0..n {
        let v = VertexId::new(vi);
        if view.degree(v) == 0 {
            continue;
        }
        view.for_each_incident_edge(v, |e| {
            if heads[e.index()] == v {
                in_slot[e.index()] = in_count[vi];
                in_count[vi] += 1;
            } else {
                out_slot[e.index()] = out_count[vi];
                out_count[vi] += 1;
            }
        });
    }
    // Compact virtual-vertex bases (in-groups first per vertex, like
    // `orientation_connector`; `u32::MAX` marks absent sides).
    let mut in_base = vec![u32::MAX; n];
    let mut out_base = vec![u32::MAX; n];
    let mut in_a = Vec::new();
    let mut acc = 0usize;
    for vi in 0..n {
        let ki = num::usize_from(in_count[vi]).div_ceil(s_in);
        if ki > 0 {
            in_base[vi] = u32::try_from(acc).map_err(|_| AlgoError::InvalidParameters {
                reason: "connector needs more than u32::MAX virtual vertices".into(),
            })?;
            acc += ki;
            in_a.extend(std::iter::repeat_n(false, ki));
        }
        let ko = num::usize_from(out_count[vi]).div_ceil(s_out);
        if ko > 0 {
            out_base[vi] = u32::try_from(acc).map_err(|_| AlgoError::InvalidParameters {
                reason: "connector needs more than u32::MAX virtual vertices".into(),
            })?;
            acc += ko;
            in_a.extend(std::iter::repeat_n(true, ko));
        }
    }
    let mut b = GraphBuilder::new_multi(acc).with_edge_capacity(k);
    let s_in32 = num::to_u32(s_in)?;
    let s_out32 = num::to_u32(s_out)?;
    for le in (0..k).map(EdgeId::new) {
        let head = heads[le.index()];
        let [a, c] = view.endpoints(le);
        let tail = if head == a { c } else { a };
        let cv_head = in_base[head.index()] + in_slot[le.index()] / s_in32;
        let cv_tail = out_base[tail.index()] + out_slot[le.index()] / s_out32;
        b.add_edge(num::usize_from(cv_tail), num::usize_from(cv_head))
            .map_err(|err| AlgoError::InvariantViolated {
                reason: err.to_string(),
            })?;
    }
    let graph = b.build_parallel();
    for v in graph.vertices() {
        let bound = if in_a[v.index()] { s_out } else { s_in };
        if graph.degree(v) > bound {
            return Err(AlgoError::InvariantViolated {
                reason: format!("virtual {v} has degree {} > {bound}", graph.degree(v)),
            });
        }
    }
    Ok((graph, in_a))
}

impl OrientationConnector {
    /// Checks the §5 structural guarantees: degree bounds per flavor,
    /// out-degree ≤ s_out, acyclicity, and bipartiteness when requested.
    ///
    /// # Errors
    ///
    /// [`AlgoError::InvariantViolated`] naming the first violation.
    pub fn verify(&self) -> Result<(), AlgoError> {
        for v in self.graph.vertices() {
            let deg = self.graph.degree(v);
            let bound = if self.bipartite {
                match self.kind[v.index()] {
                    VirtualKind::In(_) => self.s_in,
                    VirtualKind::Out(_) => self.s_out,
                    VirtualKind::Shared(_) => {
                        return Err(AlgoError::InvariantViolated {
                            reason: "shared virtual in bipartite connector".into(),
                        })
                    }
                }
            } else {
                self.s_in + self.s_out
            };
            if deg > bound {
                return Err(AlgoError::InvariantViolated {
                    reason: format!("virtual {v} has degree {deg} > {bound}"),
                });
            }
            let out = self.orientation.out_degree(&self.graph, v);
            if out > self.s_out {
                return Err(AlgoError::InvariantViolated {
                    reason: format!("virtual {v} has out-degree {out} > s_out = {}", self.s_out),
                });
            }
        }
        if !self.orientation.is_acyclic(&self.graph) {
            return Err(AlgoError::InvariantViolated {
                reason: "connector orientation has a directed cycle".into(),
            });
        }
        if self.bipartite {
            for (e, [u, v]) in self.graph.edge_list() {
                let ok = matches!(
                    (self.kind[u.index()], self.kind[v.index()]),
                    (VirtualKind::In(_), VirtualKind::Out(_))
                        | (VirtualKind::Out(_), VirtualKind::In(_))
                );
                if !ok {
                    return Err(AlgoError::InvariantViolated {
                        reason: format!("edge {e} does not cross the bipartition"),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossing_merge::one_sided_edge_coloring;
    use decolor_graph::generators;
    use decolor_graph::subgraph::{EdgeSubgraphView, SpanningEdgeSubgraph};

    fn setup(seed: u64) -> (Graph, Orientation) {
        let g = generators::forest_union(200, 3, 6, seed).unwrap();
        let ord = decolor_graph::properties::degeneracy_ordering(&g);
        let rank: Vec<u64> = (0..g.num_vertices())
            .map(|v| (g.num_vertices() - ord.rank[v]) as u64)
            .collect();
        // Orient along the degeneracy order: out-degree ≤ degeneracy.
        let o = Orientation::from_rank(&g, &rank);
        (g, o)
    }

    #[test]
    fn shared_flavor_invariants() {
        let (g, o) = setup(1);
        assert!(o.is_acyclic(&g));
        let conn = orientation_connector(&g, &o, 4, 2, false).unwrap();
        conn.verify().unwrap();
        assert_eq!(conn.graph.num_edges(), g.num_edges());
    }

    #[test]
    fn bipartite_flavor_invariants() {
        let (g, o) = setup(2);
        let conn = orientation_connector(&g, &o, 5, 3, true).unwrap();
        conn.verify().unwrap();
        // Every edge joins an Out-virtual to an In-virtual by verify();
        // additionally the sides' degree bounds differ.
        for v in conn.graph.vertices() {
            match conn.kind[v.index()] {
                VirtualKind::In(_) => assert!(conn.graph.degree(v) <= 5),
                VirtualKind::Out(_) => assert!(conn.graph.degree(v) <= 3),
                VirtualKind::Shared(_) => panic!("no shared virtuals in bipartite mode"),
            }
        }
    }

    #[test]
    fn figure3_instance() {
        // Figure 3: a single vertex with incoming and outgoing edges split
        // across virtual vertices. Star with center 0, all edges oriented
        // into 0 except two outgoing.
        let g = generators::star(9).unwrap();
        let mut heads = vec![VertexId::new(0); 8];
        heads[6] = VertexId::new(7);
        heads[7] = VertexId::new(8);
        let o = Orientation::new(&g, heads).unwrap();
        assert!(o.is_acyclic(&g));
        let conn = orientation_connector(&g, &o, 3, 1, false).unwrap();
        conn.verify().unwrap();
        // Center: 6 in-edges in groups of 3 → 2 in-groups; 2 out-edges in
        // groups of 1 → 2 out-groups; shared → max(2,2) = 2 virtuals.
        let center_virtuals = conn
            .owner
            .iter()
            .filter(|&&w| w == VertexId::new(0))
            .count();
        assert_eq!(center_virtuals, 2);
    }

    #[test]
    fn arboricity_certificate_out_degree() {
        let (g, o) = setup(3);
        for (s_in, s_out) in [(2usize, 1usize), (8, 4), (3, 3)] {
            let conn = orientation_connector(&g, &o, s_in, s_out, false).unwrap();
            conn.verify().unwrap();
            assert!(conn.orientation.max_out_degree(&conn.graph) <= s_out);
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        let (g, o) = setup(4);
        assert!(orientation_connector(&g, &o, 0, 1, false).is_err());
        assert!(orientation_connector(&g, &o, 1, 0, true).is_err());
    }

    #[test]
    fn edge_ids_align_with_source() {
        let (g, o) = setup(5);
        let conn = orientation_connector(&g, &o, 3, 2, true).unwrap();
        for (e, _) in g.edge_list() {
            let head = o.head(e);
            let conn_head = conn.orientation.head(e);
            assert_eq!(conn.owner[conn_head.index()], head);
        }
    }

    #[test]
    fn view_connector_matches_materialized_bipartite_connector() {
        // The compact view connector drops the isolated virtual vertices
        // of `orientation_connector(.., true)` on the materialized class;
        // the Theorem 5.4 one-sided coloring must not notice: same colors,
        // same ledger.
        let (g, o) = setup(6);
        let class: Vec<EdgeId> = g.edges().filter(|e| e.index() % 3 != 0).collect();
        let heads: Vec<VertexId> = class.iter().map(|&e| o.head(e)).collect();
        let sub = SpanningEdgeSubgraph::new(&g, &class);
        let sub_orient = Orientation::new(sub.graph(), heads.clone()).unwrap();
        let view = EdgeSubgraphView::new(&g, class).unwrap();
        for (s_in, s_out) in [(2usize, 1usize), (3, 2), (5, 3), (8, 4)] {
            let palette = (s_in + s_out - 1) as u64;
            let reference =
                orientation_connector(sub.graph(), &sub_orient, s_in, s_out, true).unwrap();
            let ref_in_a: Vec<bool> = reference
                .kind
                .iter()
                .map(|k| matches!(k, VirtualKind::Out(_)))
                .collect();
            let (want, want_stats) =
                one_sided_edge_coloring(&reference.graph, &ref_in_a, palette).unwrap();
            let (compact, in_a) =
                bipartite_orientation_connector_on(&view, &heads, s_in, s_out).unwrap();
            assert!(compact.num_vertices() < reference.graph.num_vertices());
            let (got, got_stats) = one_sided_edge_coloring(&compact, &in_a, palette).unwrap();
            let case = format!("s_in = {s_in}, s_out = {s_out}");
            assert_eq!(got.as_slice(), want.as_slice(), "{case}: colors diverge");
            assert_eq!(got.palette(), want.palette(), "{case}");
            assert_eq!(got_stats, want_stats, "{case}: ledgers diverge");
        }
    }
}
