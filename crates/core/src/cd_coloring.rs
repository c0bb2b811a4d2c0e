//! **Algorithm 1: CD-Coloring** — vertex coloring via clique
//! decompositions (§2–§3).
//!
//! Each level builds a clique connector with parameter `t`, colors it with
//! γ = D(t − 1) + 1 colors using the \[17\] stand-in
//! ([`crate::delta_plus_one`]), and recurses in parallel on the subgraphs
//! induced by the color classes; cliques shrink by a factor of `t` per
//! level (Lemma 2.3). After `x` levels the subgraphs have cliques of size
//! ≈ S/tˣ and degree ≤ D(⌈S/tˣ⌉ − 1), so they are colored directly. The
//! final color of a vertex is the pair ⟨ϕ, ψ⟩ (line 15 of Algorithm 1),
//! encoded canonically by the shared class product
//! (`product::color_classes`) that also closes the star-partition and
//! Theorem 5.3/5.4 recursions.
//!
//! The same levels, run with the labelling leaf (`product::Label`)
//! instead of line 12's coloring, build Theorem 2.4's clique
//! decomposition ([`crate::decomposition::clique_decomposition`]).
//!
//! Per §3, Linial's O(Δ²)-coloring is computed **once** on the input
//! graph; every recursive subroutine call is seeded with the inherited
//! coloring instead of IDs, so the O(log* n) term is paid once.
//!
//! [`cd_edge_coloring`] is Theorem 3.3's edge coloring: CD-Coloring of
//! the line graph, built in RAM or, given a scratch root, streamed to an
//! on-disk CSR — one entry point for both backends.

use std::path::Path;

use decolor_graph::cliques::CliqueCover;
use decolor_graph::coloring::{EdgeColoring, VertexColoring};
use decolor_graph::line_graph::{line_graph_cover, line_graph_edge_count_on, line_graph_stream};
use decolor_graph::storage::{ScratchDir, ShardedCsrBuilder};
use decolor_graph::subgraph::{GraphView, InducedSubgraphView, VertexSubsetView};
use decolor_graph::{Graph, GraphBuilder, VertexId};
use decolor_runtime::{IdAssignment, Network, NetworkStats};

use crate::analysis::optimal_t;
use crate::connectors::clique::clique_connector_on;
use crate::delta_plus_one::{vertex_coloring_with_target, Seed, SubroutineConfig};
use crate::error::AlgoError;
use crate::linial;
use crate::product::{color_classes, Colored, Leaf, Paint};
use crate::verify::certified;
use decolor_graph::num;

/// Parameters of CD-Coloring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CdParams {
    /// Connector group size `t ≥ 2`.
    pub t: usize,
    /// Number of recursion levels `x ≥ 1`.
    pub x: usize,
    /// Configuration of the coloring subroutine.
    pub subroutine: SubroutineConfig,
    /// Appendix B's `A_{i+1}` schedule: recompute `t = ⌊S^{1/(i+2)}⌋` at
    /// every level from the *current* clique size instead of reusing the
    /// top-level `t`. Slightly fewer colors at deep recursion.
    pub per_level_t: bool,
    /// §3 / Appendix B final trim: run the basic color reduction down to
    /// this palette after combining (skipped unless it saves colors;
    /// the target is clamped to ≥ Δ + 1). Costs `palette − target`
    /// rounds, so only small trims are worthwhile.
    pub trim_to: Option<u64>,
}

impl Default for CdParams {
    fn default() -> Self {
        CdParams {
            t: 2,
            x: 1,
            subroutine: SubroutineConfig::default(),
            per_level_t: false,
            trim_to: None,
        }
    }
}

impl CdParams {
    /// §3's optimizing choice for `x` levels: `t = ⌊S^{1/(x+1)}⌋`
    /// (clamped to ≥ 2), where `S` is the maximal clique size.
    pub fn for_levels(max_clique_size: usize, x: usize) -> CdParams {
        let t = optimal_t(num::to_u64(max_clique_size), x);
        CdParams {
            t,
            x: x.max(1),
            ..CdParams::default()
        }
    }

    /// The §3 polylogarithmic-time corollary: `x = log S / (ε log log S)`,
    /// giving 2·S^{1 + 1/(ε log log S)}·-ish colors in polylog rounds.
    pub fn polylog(max_clique_size: usize, epsilon: f64) -> CdParams {
        let s = num::approx_f64(max_clique_size.max(4));
        // lint: allow(cast, "positive ratio of logs; the max(1) at use keeps the level count sane")
        let x = (s.log2() / (epsilon.max(0.1) * s.log2().log2().max(1.0))).ceil() as usize;
        CdParams::for_levels(max_clique_size, x.max(1))
    }
}

/// Result of CD-Coloring.
#[derive(Clone, Debug)]
pub struct CdColoring {
    /// The proper coloring of the input graph.
    pub coloring: VertexColoring,
    /// Measured LOCAL statistics (rounds compose per the model: parallel
    /// recursion takes the max of its branches).
    pub stats: NetworkStats,
    /// The exact palette-product bound realized by the recursion
    /// (`≤ γ^x · (D(⌈S/tˣ⌉ − 1) + 1)` levels multiplied out).
    pub palette_bound: u64,
}

/// Runs CD-Coloring on `g` with the consistent clique identification
/// `cover`.
///
/// ```rust
/// use decolor_core::cd_coloring::{cd_coloring, CdParams};
/// use decolor_graph::{generators, line_graph::LineGraph};
/// use decolor_runtime::IdAssignment;
///
/// # fn main() -> Result<(), decolor_core::AlgoError> {
/// let g = generators::random_regular(32, 8, 1).unwrap();
/// let lg = LineGraph::new(&g); // diversity 2, clique size Δ = 8
/// let params = CdParams::for_levels(8, 1);
/// let ids = IdAssignment::sequential(lg.graph.num_vertices());
/// let res = cd_coloring(&lg.graph, &lg.cover, &params, &ids)?;
/// assert!(res.coloring.is_proper(&lg.graph));
/// assert!(res.coloring.palette() <= 4 * 8); // D²S = 4Δ
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] for `t < 2`, `x < 1`, or mismatched
/// shapes; [`AlgoError::InvariantViolated`] if a paper lemma fails at
/// runtime (indicates an inconsistent cover).
pub fn cd_coloring<G: GraphView + Sync>(
    g: &G,
    cover: &CliqueCover,
    params: &CdParams,
    ids: &IdAssignment,
) -> Result<CdColoring, AlgoError> {
    finish_cd(g, params, run_levels::<_, Paint>(g, cover, params, ids)?)
}

/// Algorithm 1's levels over the whole of `g`, after the parameter check
/// and §3's one Linial pass — what [`cd_coloring`] runs with [`Paint`]
/// and [`crate::decomposition::clique_decomposition`] runs with the
/// labelling leaf.
pub(crate) fn run_levels<G: GraphView + Sync, L: Leaf>(
    g: &G,
    cover: &CliqueCover,
    params: &CdParams,
    ids: &IdAssignment,
) -> Result<Colored, AlgoError> {
    check_cd_params(g, params, ids)?;
    let diversity = cover.diversity().max(1);

    // §3: one Linial pass on the input graph; recursion inherits colors.
    let mut net = Network::new(g);
    let base = linial::linial_coloring(&mut net, ids)?.coloring;
    let base_stats = net.stats();

    let all: Vec<VertexId> = (0..g.num_vertices()).map(VertexId::new).collect();
    let full = VertexSubsetView::new(g, all).map_err(AlgoError::invariant)?;
    let (colors, palette, stats) =
        level_on::<_, L>(g, cover, &base, &full, diversity, params, params.x)?;
    Ok((colors, palette, base_stats.then(stats)))
}

fn check_cd_params<G: GraphView>(
    g: &G,
    params: &CdParams,
    ids: &IdAssignment,
) -> Result<(), AlgoError> {
    if params.t < 2 {
        return Err(AlgoError::InvalidParameters {
            reason: "t must be ≥ 2".into(),
        });
    }
    if params.x < 1 {
        return Err(AlgoError::InvalidParameters {
            reason: "x must be ≥ 1".into(),
        });
    }
    if ids.len() != g.num_vertices() {
        return Err(AlgoError::InvalidParameters {
            reason: format!("{} ids for {} vertices", ids.len(), g.num_vertices()),
        });
    }
    Ok(())
}

/// Shared tail of both paths: the §3 / Appendix B trim and validation.
fn finish_cd<G: GraphView>(
    g: &G,
    params: &CdParams,
    (mut colors, palette, mut stats): Colored,
) -> Result<CdColoring, AlgoError> {
    let mut trimmed = palette;
    // §3 / Appendix B: the final basic color reduction ("we can apply the
    // basic reduction for 2 rounds, and obtain D²S-coloring").
    if let Some(requested) = params.trim_to {
        let target = requested.max(num::to_u64(g.max_degree()) + 1);
        if palette > target {
            let mut net = Network::new(g);
            trimmed = crate::reduction::basic_reduction(&mut net, &mut colors, palette, target)?;
            stats = stats.then(net.stats());
        }
    }
    Ok(CdColoring {
        coloring: certified(g, colors, trimmed)?,
        stats,
        palette_bound: palette,
    })
}

/// The inherited seed coloring `base` of the root, restricted to the
/// class whose root vertices are `parents` (in class order) — what a view
/// recursion hands its subroutine instead of IDs.
fn restrict_seed(base: &VertexColoring, parents: &[VertexId]) -> Result<VertexColoring, AlgoError> {
    let colors = parents.iter().map(|&v| base.color(v)).collect();
    VertexColoring::new(colors, base.palette()).map_err(AlgoError::invariant)
}

/// One recursion level of Algorithm 1 over a borrowed
/// [`VertexSubsetView`] of the *root* graph — the hot path. The clique
/// connector of the class is built from the restricted cover alone
/// (restriction composes), the recursion descends through subset views,
/// and the **leaves run the vertex pipeline directly on an
/// [`InducedSubgraphView`]** through the topology-generic [`Network`]:
/// no per-class graph, port table, or network is ever materialized.
///
/// `L` is the leaf: [`Paint`] runs line 12's direct coloring on the last
/// classes; the labelling leaf gives each last class one label.
fn level_on<G: GraphView + Sync, L: Leaf>(
    root: &G,
    cover: &CliqueCover,
    base: &VertexColoring,
    view: &VertexSubsetView<'_, G>,
    diversity: usize,
    params: &CdParams,
    x: usize,
) -> Result<Colored, AlgoError> {
    let cfg = params.subroutine;
    let k = view.num_vertices();
    if !view.has_induced_edge() {
        return Ok((vec![0; k], 1, NetworkStats::default()));
    }
    // Restriction composes: filtering the root cover by the current subset
    // equals restricting it level by level (`restriction_composes` in
    // decolor-graph's proptest_graph suite).
    let local_cover = cover.restrict_to_subset(view);
    // Appendix B's A_{i+1}: re-optimize t from the current clique size.
    let t = if params.per_level_t {
        optimal_t(num::to_u64(local_cover.max_clique_size()), x)
    } else {
        params.t
    };

    // Line 1: the connector (O(1) rounds, charged below), straight off
    // the subset view — no induced subgraph anywhere.
    let conn = clique_connector_on(view, &local_cover, t)?;
    let gamma = num::to_u64(diversity) * (num::to_u64(t) - 1) + 1;
    if num::to_u64(conn.graph.max_degree()) >= gamma {
        return Err(AlgoError::InvariantViolated {
            reason: format!(
                "Lemma 2.1 violated: connector degree {} ≥ γ = {gamma} (cover inconsistent?)",
                conn.graph.max_degree()
            ),
        });
    }

    // Line 3: ϕ := color G′ with γ colors, seeded by the inherited coloring
    // restricted to the class.
    let sub_base = restrict_seed(base, view.parent_vertices())?;
    let (phi, phi_stats) =
        vertex_coloring_with_target(&conn.graph, Seed::Coloring(&sub_base), gamma, cfg)?;
    let stats = NetworkStats {
        rounds: 1,
        ..Default::default()
    }
    .then(phi_stats);

    // Lines 4–13: recurse (or finish) on the color classes in parallel,
    // each class a fresh subset view of the root; line 15 combines
    // ⟨ϕ, ψ⟩ canonically.
    let s_cur = local_cover.max_clique_size();
    let k_bound = s_cur.div_ceil(t);
    let (out, inner_palette, children) = color_classes(k, &phi.classes(), |class| {
        let parents: Vec<VertexId> = class.iter().map(|&lv| view.to_parent_vertex(lv)).collect();
        if x > 1 {
            let child = VertexSubsetView::new(root, parents).map_err(AlgoError::invariant)?;
            return level_on::<_, L>(root, cover, base, &child, diversity, params, x - 1);
        }
        L::base(parents.len(), || {
            // Line 12: direct coloring with D(⌈S/t⌉ − 1) + 1 colors, on
            // the induced view of the class.
            let child = InducedSubgraphView::new(root, parents).map_err(AlgoError::invariant)?;
            let target = num::to_u64(diversity) * (num::to_u64(k_bound) - 1) + 1;
            if num::to_u64(child.max_degree()) >= target.max(1) {
                return Err(AlgoError::InvariantViolated {
                    reason: format!(
                        "Lemma 2.2 violated: class degree {} ≥ D(k−1)+1 = {target}",
                        child.max_degree()
                    ),
                });
            }
            let child_base = restrict_seed(base, child.parent_vertices())?;
            let (c, s) =
                vertex_coloring_with_target(&child, Seed::Coloring(&child_base), target, cfg)?;
            Ok((c.as_slice().to_vec(), c.palette(), s))
        })
    })?;
    Ok(L::level(gamma, (out, inner_palette, stats.then(children))))
}

/// Theorem 3.3 (ii): edge coloring of `g` as CD-Coloring of its line graph
/// (diversity 2, maximal clique size Δ). Charges one round for the
/// line-graph simulation.
///
/// The canonical cover is computed straight off `g` (O(2m) ids). L(g)
/// (Θ(Σ deg²) edges) is built in RAM, or with `spill` set streamed to an
/// on-disk CSR in a fresh directory under that root and colored off the
/// mmap, so no in-RAM graph proportional to the line graph is ever
/// built; the directory is removed on every exit. Both sinks receive the
/// same line-edge stream, so decisions, palettes and [`NetworkStats`] are
/// bit-identical, which the backend-equivalence tests pin.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `g` has parallel edges; otherwise
/// [`cd_coloring`] errors, plus [`AlgoError::Graph`] for scratch I/O
/// failures.
pub fn cd_edge_coloring<G: GraphView + Sync>(
    g: &G,
    params: &CdParams,
    spill: Option<&Path>,
) -> Result<(EdgeColoring, NetworkStats), AlgoError> {
    let m = g.num_edges();
    if m == 0 {
        return Ok((certified(g, vec![], 1)?, NetworkStats::default()));
    }
    if g.has_parallel_edges() {
        return Err(AlgoError::InvalidParameters {
            reason: "line graph requires a simple source graph".into(),
        });
    }
    let cover = line_graph_cover(g)?;
    let ids = IdAssignment::sequential(m);
    let result = match spill {
        None => {
            let mut b = GraphBuilder::new_multi(m).with_edge_capacity(line_graph_edge_count_on(g));
            line_graph_stream(g, &mut b)?;
            cd_coloring(&b.build_parallel(), &cover, params, &ids)?
        }
        Some(root) => {
            let dir = ScratchDir::new(root, "lg");
            let mut b = ShardedCsrBuilder::create(dir.path(), m)?;
            line_graph_stream(g, &mut b)?;
            cd_coloring(&b.finish()?, &cover, params, &ids)?
        }
    };
    let mut stats = result.stats;
    stats.rounds += 1;
    let palette = result.coloring.palette();
    Ok((certified(g, result.coloring.into_inner(), palette)?, stats))
}

/// §3's constant-S case: "If S is a constant, we directly obtain a
/// (D(S − 1) + 1)-coloring in Õ(√D + log* n) time" — no connectors, one
/// subroutine call with target `D(S − 1) + 1 ≥ Δ + 1`.
///
/// # Errors
///
/// Propagates subroutine errors; fails if the cover is inconsistent
/// (`D(S − 1) < Δ`).
pub fn direct_bounded_diversity_coloring(
    g: &Graph,
    cover: &CliqueCover,
    ids: &IdAssignment,
) -> Result<CdColoring, AlgoError> {
    let d = num::to_u64(cover.diversity().max(1));
    let s = num::to_u64(cover.max_clique_size().max(1));
    let target = d * (s - 1) + 1;
    if num::to_u64(g.max_degree()) >= target.max(1) {
        return Err(AlgoError::InvariantViolated {
            reason: format!(
                "cover inconsistent: Δ = {} ≥ D(S−1)+1 = {target}",
                g.max_degree()
            ),
        });
    }
    let mut net = Network::new(g);
    let base = linial::linial_coloring(&mut net, ids)?.coloring;
    let base_stats = net.stats();
    let (coloring, stats) = vertex_coloring_with_target(
        g,
        Seed::Coloring(&base),
        target,
        SubroutineConfig::default(),
    )?;
    Ok(CdColoring {
        coloring,
        stats: base_stats.then(stats),
        palette_bound: target,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::cliques::cover_from_all_maximal_cliques;
    use decolor_graph::generators;
    use decolor_graph::line_graph::LineGraph;

    #[test]
    fn line_graph_coloring_matches_table2_row1() {
        // D = 2, x = 1 ⇒ ≈ D²S = 4Δ colors.
        let g = generators::random_regular(128, 16, 1).unwrap();
        let lg = LineGraph::new(&g);
        let s = lg.cover.max_clique_size();
        assert_eq!(s, 16);
        let params = CdParams::for_levels(s, 1);
        let ids = IdAssignment::shuffled(lg.graph.num_vertices(), 5);
        let res = cd_coloring(&lg.graph, &lg.cover, &params, &ids).unwrap();
        assert!(res.coloring.is_proper(&lg.graph));
        // Exact product bound: γ(t)·(D(⌈S/t⌉−1)+1).
        let d = 2u64;
        let t = params.t as u64;
        let gamma = d * (t - 1) + 1;
        let k = (s as u64).div_ceil(t);
        assert!(res.coloring.palette() <= gamma * (d * (k - 1) + 1));
    }

    #[test]
    fn deeper_recursion_uses_more_colors_but_stays_proper() {
        let g = generators::random_regular(128, 16, 2).unwrap();
        let lg = LineGraph::new(&g);
        let ids = IdAssignment::sequential(lg.graph.num_vertices());
        let mut palettes = Vec::new();
        for x in 1..=3usize {
            let params = CdParams::for_levels(lg.cover.max_clique_size(), x);
            let res = cd_coloring(&lg.graph, &lg.cover, &params, &ids).unwrap();
            assert!(res.coloring.is_proper(&lg.graph), "x = {x} improper");
            palettes.push(res.coloring.palette());
        }
        // All within a constant factor of 2^{x+1}Δ.
        for (i, &p) in palettes.iter().enumerate() {
            let x = i as u32 + 1;
            let bound = 2u64.pow(x + 1) * 16 * 2; // slack 2 for ceilings
            assert!(p <= bound, "x = {} palette {} > {}", x, p, bound);
        }
    }

    #[test]
    fn hypergraph_line_graphs_diversity_three() {
        let h = generators::random_uniform_hypergraph(120, 90, 3, 8, 3).unwrap();
        let lg = h.line_graph();
        let ids = IdAssignment::shuffled(lg.graph.num_vertices(), 7);
        let params = CdParams::for_levels(lg.cover.max_clique_size().max(2), 2);
        let res = cd_coloring(&lg.graph, &lg.cover, &params, &ids).unwrap();
        assert!(res.coloring.is_proper(&lg.graph));
    }

    #[test]
    fn general_graph_with_bron_kerbosch_cover() {
        let g = generators::gnm(60, 200, 9).unwrap();
        let cover = cover_from_all_maximal_cliques(&g).unwrap();
        let ids = IdAssignment::sequential(60);
        let params = CdParams {
            t: 2,
            x: 1,
            ..CdParams::default()
        };
        let res = cd_coloring(&g, &cover, &params, &ids).unwrap();
        assert!(res.coloring.is_proper(&g));
    }

    #[test]
    fn edge_coloring_wrapper() {
        let g = generators::gnm(80, 320, 4).unwrap();
        let params = CdParams::for_levels(g.max_degree(), 1);
        let (ec, stats) = cd_edge_coloring(&g, &params, None).unwrap();
        assert!(ec.is_proper(&g));
        assert!(stats.rounds > 0);
    }

    #[test]
    fn edge_coloring_rejects_multigraphs_on_both_sinks() {
        let mut b = GraphBuilder::new_multi(3);
        for (u, v) in [(0, 1), (0, 1), (1, 2)] {
            b.add_edge(u, v).unwrap();
        }
        let g = b.build();
        let params = CdParams::default();
        let dir = ScratchDir::new(&std::env::temp_dir(), "decolor-cd-multi");
        let ram = cd_edge_coloring(&g, &params, None).unwrap_err();
        let spilled = cd_edge_coloring(&g, &params, Some(dir.path())).unwrap_err();
        assert!(matches!(ram, AlgoError::InvalidParameters { .. }), "{ram}");
        assert_eq!(spilled, ram);
        assert!(!dir.exists(), "scratch survived the error exit");
    }

    #[test]
    fn rejects_bad_params() {
        let g = generators::complete(4).unwrap();
        let cover = cover_from_all_maximal_cliques(&g).unwrap();
        let ids = IdAssignment::sequential(4);
        let bad_t = CdParams {
            t: 1,
            x: 1,
            ..CdParams::default()
        };
        assert!(cd_coloring(&g, &cover, &bad_t, &ids).is_err());
        let bad_x = CdParams {
            t: 2,
            x: 0,
            ..CdParams::default()
        };
        assert!(cd_coloring(&g, &cover, &bad_x, &ids).is_err());
    }

    #[test]
    fn edgeless_graph_gets_one_color() {
        let g = decolor_graph::GraphBuilder::new(6).build();
        let cover = cover_from_all_maximal_cliques(&g).unwrap();
        let ids = IdAssignment::sequential(6);
        let params = CdParams {
            t: 2,
            x: 2,
            ..CdParams::default()
        };
        let res = cd_coloring(&g, &cover, &params, &ids).unwrap();
        assert_eq!(res.coloring.distinct_colors(), 1);
    }

    #[test]
    fn params_constructors() {
        let p = CdParams::for_levels(256, 1);
        assert_eq!(p.t, 16);
        let p = CdParams::for_levels(256, 3);
        assert_eq!(p.t, 4);
        let p = CdParams::for_levels(3, 5);
        assert_eq!(p.t, 2); // clamped
        assert_eq!(CdParams::for_levels(16, usize::MAX).t, 2); // saturated
        let p = CdParams::polylog(1 << 16, 1.0);
        assert!(p.x >= 2);
    }

    #[test]
    fn stats_account_parallel_children_as_max() {
        let g = generators::random_regular(64, 8, 6).unwrap();
        let lg = LineGraph::new(&g);
        let ids = IdAssignment::sequential(lg.graph.num_vertices());
        let params = CdParams::for_levels(lg.cover.max_clique_size(), 2);
        let res = cd_coloring(&lg.graph, &lg.cover, &params, &ids).unwrap();
        // Sanity: rounds are bounded well below a full sequential sweep of
        // all subgraphs (which would be ≥ number of classes).
        assert!(res.stats.rounds < 10_000);
        assert!(res.stats.rounds > 0);
    }

    #[test]
    fn per_level_t_schedule_stays_proper_and_bounded() {
        let g = generators::random_regular(128, 27, 8).unwrap();
        let lg = LineGraph::new(&g);
        let ids = IdAssignment::sequential(lg.graph.num_vertices());
        for x in 2..=3usize {
            let fixed = CdParams::for_levels(lg.cover.max_clique_size(), x);
            let per_level = CdParams {
                per_level_t: true,
                ..fixed
            };
            let rf = cd_coloring(&lg.graph, &lg.cover, &fixed, &ids).unwrap();
            let rp = cd_coloring(&lg.graph, &lg.cover, &per_level, &ids).unwrap();
            assert!(rf.coloring.is_proper(&lg.graph));
            assert!(rp.coloring.is_proper(&lg.graph));
        }
    }

    #[test]
    fn trim_reduces_palette_when_requested() {
        let g = generators::random_regular(96, 9, 9).unwrap();
        let lg = LineGraph::new(&g);
        let ids = IdAssignment::sequential(lg.graph.num_vertices());
        let base = CdParams::for_levels(lg.cover.max_clique_size(), 1);
        let plain = cd_coloring(&lg.graph, &lg.cover, &base, &ids).unwrap();
        let target = plain.coloring.palette() - 3;
        let trimmed = cd_coloring(
            &lg.graph,
            &lg.cover,
            &CdParams {
                trim_to: Some(target),
                ..base
            },
            &ids,
        )
        .unwrap();
        assert!(trimmed.coloring.is_proper(&lg.graph));
        assert!(trimmed.coloring.palette() <= plain.coloring.palette());
        assert!(trimmed.coloring.palette() > lg.graph.max_degree() as u64);
    }

    #[test]
    fn direct_coloring_for_constant_s() {
        let h = generators::random_uniform_hypergraph(100, 70, 3, 4, 12).unwrap();
        let lg = h.line_graph();
        let d = lg.cover.diversity() as u64;
        let s = lg.cover.max_clique_size() as u64;
        let ids = IdAssignment::shuffled(lg.graph.num_vertices(), 2);
        let res = direct_bounded_diversity_coloring(&lg.graph, &lg.cover, &ids).unwrap();
        assert!(res.coloring.is_proper(&lg.graph));
        assert_eq!(res.coloring.palette(), d * (s - 1) + 1);
    }
}
