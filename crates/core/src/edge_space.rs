//! Direct **edge-space** (2Δ − 1)-edge-coloring — the Panconesi–Rizzi
//! \[33\] baseline family without materializing the line graph.
//!
//! [`edge_coloring_with_target`](crate::delta_plus_one::edge_coloring_with_target)
//! realizes an edge coloring by *building* L(G) and running the vertex
//! pipeline on it: O(Σ_v deg(v)²) memory for the line-graph structure
//! before a single round executes, which caps the harness at Δ ≤ 32.
//! [`edge_coloring_direct`] runs the **same kernels** (Linial's iteration
//! in [`crate::linial`], then the configured reduction in
//! [`crate::reduction`]) on the edge agents defined here: each edge is an
//! agent whose conflict neighbors are its ≤ 2Δ − 2 incident edges, read
//! straight off `G`'s incidence structure:
//!
//! * no L(G) is ever built — memory stays O(n + m);
//! * a reduction round touches only its deciding color class, and a
//!   Linial round fans its chunks out on the worker pool;
//! * a Linial round first settles point 0 per vertex row: one pass over
//!   the rows marks, in a reused one-bit-per-edge set, every edge whose
//!   residue `c mod q` repeats in either endpoint's row. An unmarked edge
//!   takes color `c mod q` at once; only a marked one walks its ≤ 2Δ − 2
//!   neighbors and searches from point 1;
//! * the round/message ledger still charges every round at its full
//!   LOCAL cost — one incident-color-list broadcast on `G` per round —
//!   so measured *rounds* are identical to the line-graph pipeline
//!   (including the one setup round of §4) and only the message
//!   accounting reflects the on-`G` realization.
//!
//! The produced coloring is **bit-identical** to the line-graph path on
//! simple graphs (same Linial trajectory, same reduction decisions); the
//! equivalence is asserted by tests below and in
//! `decolor-baselines`.

use decolor_graph::coloring::EdgeColoring;
use decolor_graph::subgraph::GraphView;
use decolor_graph::{EdgeId, Graph, VertexId};
use decolor_runtime::NetworkStats;

use crate::bitset::PaletteSet;
use crate::delta_plus_one::{ReductionStrategy, SubroutineConfig};
use crate::error::AlgoError;
use crate::linial::{linial_pass, narrow, Agents, Field, LinialState, Modulus, Pooled};
use crate::reduction::{basic_pass, kw_pass};
use decolor_graph::num;

/// The edges of a [`GraphView`] as agents: an edge conflicts with every
/// edge sharing an endpoint (its L(G)-neighbors, with multigraph
/// multiplicity). Edge ids are the view's local ids, so the same code
/// serves a whole [`Graph`] and a borrowed color-class view.
pub(crate) struct EdgeAgents<'g, V> {
    g: &'g V,
    round: NetworkStats,
}

impl<'g, V: GraphView> EdgeAgents<'g, V> {
    pub(crate) fn new(g: &'g V, round: NetworkStats) -> Self {
        EdgeAgents { g, round }
    }
}

impl<V: GraphView> Agents for EdgeAgents<'_, V> {
    fn count(&self) -> usize {
        self.g.num_edges()
    }
    /// The maximum degree of the (never materialized) line graph.
    fn conflict_degree(&self) -> u64 {
        (0..self.g.num_edges())
            .map(|e| {
                let [u, v] = self.g.endpoints(EdgeId::new(e));
                num::to_u64(self.g.degree(u) + self.g.degree(v) - 2)
            })
            .max()
            .unwrap_or(0)
    }
    fn round_cost(&self) -> NetworkStats {
        self.round
    }
    fn for_each_neighbor(&self, a: usize, mut f: impl FnMut(usize)) {
        let e = EdgeId::new(a);
        for end in self.g.endpoints(e) {
            self.g.for_each_incident_edge(end, |other| {
                if other != e {
                    f(other.index());
                }
            });
        }
    }
    /// One pass over the rows of the vertices the view touches: an edge's
    /// conflict neighbors are the other edges of its two endpoint rows,
    /// so it is marked exactly when its residue repeats in either row.
    /// Each residue remembers the row that last held it and that row's
    /// first edge with it; a repeat marks both.
    fn screen_point_zero(&self, colors: &[u64], f: Modulus, taken: &mut PaletteSet) -> bool {
        taken.reset(num::to_u64(self.g.num_edges()));
        // lint: allow(cast, "q < 2^16 in the reciprocal's domain")
        let mut last = vec![(usize::MAX, 0u64); f.q() as usize];
        for v in 0..self.g.num_vertices() {
            self.g.for_each_incident_edge(VertexId::new(v), |e| {
                // lint: allow(cast, "a residue is below q < 2^16")
                let held = &mut last[f.rem(colors[e.index()]) as usize];
                let e = num::to_u64(e.index());
                if held.0 == v {
                    taken.insert(held.1);
                    taken.insert(e);
                } else {
                    *held = (v, e);
                }
            });
        }
        true
    }
}

/// Computes a proper edge coloring of `g` with `target ≥ 2Δ − 1` colors
/// directly in edge space, plus the measured LOCAL statistics.
///
/// Algorithmically identical to
/// [`edge_coloring_with_target`](crate::delta_plus_one::edge_coloring_with_target)
/// (Linial from the edge-index identifiers, then the configured
/// reduction), but simulated on `G` itself: rounds match the line-graph
/// pipeline exactly, the (2Δ − 1) palette is exact, and no line graph is
/// materialized — so Δ = 128 and beyond stay harness-scale.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `target < 2Δ − 1`.
pub fn edge_coloring_direct(
    g: &Graph,
    target: u64,
    cfg: SubroutineConfig,
) -> Result<(EdgeColoring, NetworkStats), AlgoError> {
    let (colors, palette, stats) = edge_coloring_direct_on(g, target, cfg)?;
    let ec = EdgeColoring::new(colors, palette).map_err(|e| AlgoError::InvariantViolated {
        reason: e.to_string(),
    })?;
    debug_assert!(ec.is_proper(g));
    Ok((ec, stats))
}

/// [`edge_coloring_direct`] over any [`GraphView`] — in particular a
/// borrowed color-class view of a parent graph, which is how the
/// recursive pipelines (star partition, Theorem 5.2's intra stages) color
/// their classes without materializing them. Returns the local colors,
/// the realized palette, and the measured statistics; the decisions are
/// bit-identical to running on the materialized subgraph because every
/// query the algorithm makes (degrees, incidence order, endpoints, local
/// ids) agrees between the two representations.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `target` is below the view's
/// 2Δ − 1.
pub fn edge_coloring_direct_on<V: GraphView + Sync>(
    g: &V,
    target: u64,
    cfg: SubroutineConfig,
) -> Result<(Vec<u32>, u64, NetworkStats), AlgoError> {
    let m = num::to_u64(g.num_edges());
    if m == 0 {
        return Ok((vec![], 1, NetworkStats::default()));
    }
    let needed = 2 * num::to_u64(g.max_degree()) - 1;
    if target < needed {
        return Err(AlgoError::InvalidParameters {
            reason: format!("target {target} below 2Δ − 1 = {needed}"),
        });
    }
    // One communication round of the edge-space realization: every vertex
    // broadcasts its incident-color list on all ports.
    let round = NetworkStats {
        rounds: 1,
        messages: 2 * m,
        payload_bytes: (0..g.num_vertices())
            .map(|v| {
                let d = g.degree(VertexId::new(v));
                num::to_u64(d * d)
            })
            .sum::<u64>()
            * num::to_u64(std::mem::size_of::<u64>()),
    };
    let agents = Pooled(EdgeAgents::new(g, round));
    // Linial from the edge-index identifiers, after the §4 setup round
    // (vertices agree to simulate their edge agents), mirroring the
    // line-graph pipeline's charge.
    let mut st = LinialState {
        colors: (0..m).collect(),
        m,
        trace: Vec::new(),
        stats: NetworkStats {
            rounds: 1,
            ..Default::default()
        },
    };
    linial_pass(&agents, &mut st, None, |_| Ok(()))?;
    let mut colors = narrow(st.colors)?;
    let palette = match cfg.reduction {
        ReductionStrategy::Basic => basic_pass(&agents, &mut colors, st.m, target, &mut st.stats),
        ReductionStrategy::KuhnWattenhofer => {
            kw_pass(&agents, &mut colors, st.m, target, &mut st.stats)
        }
    };
    Ok((colors, palette, st.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta_plus_one::edge_coloring_with_target;
    use decolor_graph::generators;

    #[test]
    fn matches_line_graph_pipeline_bit_for_bit() {
        for (g, label) in [
            (generators::gnm(80, 320, 5).unwrap(), "gnm(80,320)"),
            (generators::random_regular(60, 10, 2).unwrap(), "10-regular"),
            (generators::path(12).unwrap(), "path"),
            (generators::complete(9).unwrap(), "K9"),
        ] {
            let delta = g.max_degree() as u64;
            for target in [2 * delta - 1, 2 * delta + 6] {
                let (direct, ds) =
                    edge_coloring_direct(&g, target, SubroutineConfig::default()).unwrap();
                let (via_lg, ls) =
                    edge_coloring_with_target(&g, target, SubroutineConfig::default()).unwrap();
                assert_eq!(
                    direct.as_slice(),
                    via_lg.as_slice(),
                    "colorings diverge on {label} at target {target}"
                );
                assert_eq!(direct.palette(), via_lg.palette());
                assert_eq!(
                    ds.rounds, ls.rounds,
                    "round counts diverge on {label} at target {target}"
                );
            }
        }
    }

    #[test]
    fn basic_strategy_also_matches() {
        let g = generators::gnm(50, 160, 7).unwrap();
        let delta = g.max_degree() as u64;
        let cfg = SubroutineConfig {
            reduction: ReductionStrategy::Basic,
        };
        let (direct, ds) = edge_coloring_direct(&g, 2 * delta - 1, cfg).unwrap();
        let (via_lg, ls) = edge_coloring_with_target(&g, 2 * delta - 1, cfg).unwrap();
        assert_eq!(direct.as_slice(), via_lg.as_slice());
        assert_eq!(ds.rounds, ls.rounds);
    }

    #[test]
    fn proper_and_exact_palette_at_larger_delta() {
        // Δ = 40 here would already need a 39-regular line graph of
        // ~12k vertices; direct edge space stays O(n + m).
        let g = generators::random_regular(128, 40, 11).unwrap();
        let (ec, stats) = edge_coloring_direct(&g, 79, SubroutineConfig::default()).unwrap();
        assert!(ec.is_proper(&g));
        assert_eq!(ec.palette(), 79);
        assert!(stats.rounds > 0);
        assert_eq!(stats.messages % (2 * g.num_edges() as u64), 0);
    }

    #[test]
    fn degenerate_graphs() {
        let g = decolor_graph::GraphBuilder::new(3).build();
        let (ec, stats) = edge_coloring_direct(&g, 1, SubroutineConfig::default()).unwrap();
        assert!(ec.is_empty());
        assert_eq!(stats.rounds, 0);

        let g = generators::path(2).unwrap();
        let (ec, _) = edge_coloring_direct(&g, 1, SubroutineConfig::default()).unwrap();
        assert!(ec.is_proper(&g));
        assert_eq!(ec.palette(), 1);
    }

    /// `gnm(300, 900, 7)` with every third edge doubled, so parallel
    /// edges meet each other in both endpoint rows.
    fn doubled_multigraph() -> Graph {
        let simple = generators::gnm(300, 900, 7).unwrap();
        let mut b = decolor_graph::GraphBuilder::new_multi(300);
        for (e, [u, v]) in simple.edge_list() {
            b.add_edge(u.index(), v.index()).unwrap();
            if e.index() % 3 == 0 {
                b.add_edge(u.index(), v.index()).unwrap();
            }
        }
        b.build()
    }

    /// The screen marks exactly the edges some conflict neighbor ties at
    /// point 0, as `for_each_neighbor` enumerates them.
    fn assert_screen_matches_neighbors<V: GraphView>(g: &V, label: &str) {
        let agents = EdgeAgents::new(g, NetworkStats::default());
        let colors: Vec<u64> = (0..g.num_edges() as u64)
            .map(|e| e.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32)
            .collect();
        let mut taken = PaletteSet::new();
        for q in [2u64, 3, 13, 23] {
            let f = Modulus::for_round(q, 1 << 32).unwrap();
            assert!(agents.screen_point_zero(&colors, f, &mut taken));
            let mut marked = 0;
            for e in 0..g.num_edges() {
                let mut tied = false;
                agents.for_each_neighbor(e, |n| tied |= colors[n] % q == colors[e] % q);
                assert_eq!(
                    taken.contains(e as u64),
                    tied,
                    "{label}: edge {e} at q = {q}"
                );
                marked += usize::from(tied);
            }
            assert!(marked > 0, "{label}: nothing marked at q = {q}");
            if q == 23 {
                assert!(marked < g.num_edges(), "{label}: everything marked");
            }
        }
    }

    #[test]
    fn point_zero_screen_matches_neighbor_walk() {
        let g = doubled_multigraph();
        assert!(g.has_parallel_edges());
        assert_screen_matches_neighbors(&g, "doubled gnm");
        let class: Vec<EdgeId> = g.edges().filter(|e| e.index() % 4 == 1).collect();
        let view = decolor_graph::subgraph::EdgeSubgraphView::new(&g, class).unwrap();
        assert_screen_matches_neighbors(&view, "class view");
        // Vertex agents screen nothing: each tests point 0 on its own walk.
        let vertices = crate::linial::VertexAgents::new(&g, NetworkStats::default());
        let f = Modulus::for_round(13, 1 << 32).unwrap();
        let colors = vec![0; g.num_vertices()];
        assert!(!vertices.screen_point_zero(&colors, f, &mut PaletteSet::new()));
    }

    #[test]
    fn rejects_tight_target() {
        let g = generators::complete(5).unwrap();
        assert!(edge_coloring_direct(&g, 6, SubroutineConfig::default()).is_err());
    }
}
