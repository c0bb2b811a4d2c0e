//! The deterministic coloring subroutine used as the paper's black box
//! **\[17\]** (Fraigniaud–Heinrich–Kosowski).
//!
//! Everywhere the paper writes "color with Δ′ + 1 colors using \[17\]", this
//! workspace calls [`vertex_coloring_with_target`]: Linial's O(Δ²)-coloring
//! followed by Kuhn–Wattenhofer reduction to the requested target. The
//! substitution is interface-faithful (deterministic, LOCAL, any proper
//! input coloring → proper `target`-coloring for any `target ≥ Δ + 1`);
//! only the round complexity differs (O(Δ log Δ + log* n) instead of
//! FHK's Õ(√Δ) + log* n).
//!
//! §3's optimization — running Linial once and letting recursive calls
//! inherit a proper coloring instead of IDs, so `log* n` is paid once —
//! is supported through [`Seed::Coloring`].

use decolor_graph::coloring::{EdgeColoring, VertexColoring};
use decolor_graph::line_graph::LineGraph;
use decolor_graph::subgraph::GraphView;
use decolor_graph::{num, Graph};
use decolor_runtime::{IdAssignment, Network, NetworkStats};

use crate::error::AlgoError;
use crate::linial;
use crate::reduction;
use crate::verify::certified;

/// Which color-reduction backend to run after Linial.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReductionStrategy {
    /// One color class per round — O(Δ²) rounds from the Linial fixed
    /// point. Simple; used as an ablation baseline.
    Basic,
    /// Kuhn–Wattenhofer blockwise reduction — O(Δ log Δ) rounds. Default.
    #[default]
    KuhnWattenhofer,
}

/// Configuration of the subroutine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubroutineConfig {
    /// Reduction backend (default KW).
    pub reduction: ReductionStrategy,
}

/// The symmetry-breaking seed: either distinct IDs (costs the full log* n)
/// or an inherited proper coloring of the same vertex set (§3).
#[derive(Clone, Copy, Debug)]
pub enum Seed<'a> {
    /// Distinct identifiers, the model's default.
    Ids(&'a IdAssignment),
    /// An inherited proper coloring (palette may be large).
    Coloring(&'a VertexColoring),
}

/// Computes a proper vertex coloring of `g` with exactly `target` palette
/// colors, for any `target ≥ Δ(g) + 1`. Returns the coloring and the
/// *measured* LOCAL statistics.
///
/// `g` is any [`GraphView`] topology — a whole [`Graph`] or a borrowed
/// subgraph view such as
/// [`InducedSubgraphView`](decolor_graph::subgraph::InducedSubgraphView),
/// which is how CD-Coloring's leaves color a class of the recursion
/// without materializing its induced subgraph, port table, or network.
/// The whole pipeline (Linial + reduction) is broadcast-only, so the
/// lazily-built port table of [`Network`] is never allocated.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `target < Δ + 1`, the seed has the
/// wrong shape, or the seed coloring is improper.
pub fn vertex_coloring_with_target<V: GraphView>(
    g: &V,
    seed: Seed<'_>,
    target: u64,
    cfg: SubroutineConfig,
) -> Result<(VertexColoring, NetworkStats), AlgoError> {
    if target < num::to_u64(g.max_degree()) + 1 {
        return Err(AlgoError::InvalidParameters {
            reason: format!("target {} below Δ + 1 = {}", target, g.max_degree() + 1),
        });
    }
    let mut net = Network::new(g);
    let linial_result = match seed {
        Seed::Ids(ids) => linial::linial_coloring(&mut net, ids)?,
        Seed::Coloring(c) => linial::linial_from_coloring(&mut net, c)?,
    };
    let mut colors = linial_result.coloring.as_slice().to_vec();
    let palette = linial_result.coloring.palette();
    let final_palette = match cfg.reduction {
        ReductionStrategy::Basic => {
            reduction::basic_reduction(&mut net, &mut colors, palette, target)?
        }
        ReductionStrategy::KuhnWattenhofer => {
            reduction::kw_reduction(&mut net, &mut colors, palette, target)?
        }
    };
    Ok((certified(g, colors, final_palette)?, net.stats()))
}

/// Convenience wrapper: a (Δ + 1)-coloring.
///
/// # Errors
///
/// Propagates [`vertex_coloring_with_target`] errors.
pub fn delta_plus_one_coloring<V: GraphView>(
    g: &V,
    seed: Seed<'_>,
    cfg: SubroutineConfig,
) -> Result<(VertexColoring, NetworkStats), AlgoError> {
    vertex_coloring_with_target(g, seed, num::to_u64(g.max_degree()) + 1, cfg)
}

/// Computes a proper **edge** coloring of `g` with `target` colors,
/// `target ≥ 2Δ − 1`, by coloring the line graph (an edge coloring of `G`
/// is a vertex coloring of `L(G)`, §1.2). The line-graph simulation is
/// charged one local round, per §4's discussion.
///
/// Line-graph vertices inherit the edge indices as identifiers.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `target < 2Δ − 1`.
pub fn edge_coloring_with_target(
    g: &Graph,
    target: u64,
    cfg: SubroutineConfig,
) -> Result<(EdgeColoring, NetworkStats), AlgoError> {
    let delta = num::to_u64(g.max_degree());
    if g.num_edges() == 0 {
        return Ok((certified(g, vec![], 1)?, NetworkStats::default()));
    }
    let needed = 2 * delta - 1;
    if target < needed {
        return Err(AlgoError::InvalidParameters {
            reason: format!("target {target} below 2Δ − 1 = {needed}"),
        });
    }
    let lg = LineGraph::new(g);
    debug_assert!(num::to_u64(lg.graph.max_degree()) < needed.max(1));
    let ids = IdAssignment::sequential(lg.graph.num_vertices());
    let (vc, mut stats) = vertex_coloring_with_target(&lg.graph, Seed::Ids(&ids), target, cfg)?;
    stats.rounds += 1; // line-graph simulation setup (§4)
    let ec = lg.to_edge_coloring(&vc).map_err(AlgoError::invariant)?;
    debug_assert!(ec.is_proper(g));
    Ok((ec, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::generators;

    #[test]
    fn delta_plus_one_on_random_graphs() {
        for seed in 0..4u64 {
            let g = generators::gnm(150, 600, seed).unwrap();
            let ids = IdAssignment::shuffled(150, seed);
            let (c, stats) =
                delta_plus_one_coloring(&g, Seed::Ids(&ids), SubroutineConfig::default()).unwrap();
            assert!(c.is_proper(&g));
            assert_eq!(c.palette(), g.max_degree() as u64 + 1);
            assert!(stats.rounds > 0);
        }
    }

    #[test]
    fn respects_arbitrary_targets() {
        let g = generators::random_regular(100, 6, 1).unwrap();
        let ids = IdAssignment::sequential(100);
        for target in [7u64, 10, 25, 100] {
            let (c, _) = vertex_coloring_with_target(
                &g,
                Seed::Ids(&ids),
                target,
                SubroutineConfig::default(),
            )
            .unwrap();
            assert!(c.is_proper(&g));
            assert!(c.palette() <= target);
        }
        assert!(
            vertex_coloring_with_target(&g, Seed::Ids(&ids), 6, SubroutineConfig::default())
                .is_err()
        );
    }

    #[test]
    fn inherited_coloring_seed_skips_id_dependence() {
        let g = generators::gnm(100, 400, 9).unwrap();
        let ids = IdAssignment::shuffled(100, 9);
        let mut net = Network::new(&g);
        let base = crate::linial::linial_coloring(&mut net, &ids)
            .unwrap()
            .coloring;
        let (c, stats) =
            delta_plus_one_coloring(&g, Seed::Coloring(&base), SubroutineConfig::default())
                .unwrap();
        assert!(c.is_proper(&g));
        // Seeding from an O(Δ²) coloring should skip Linial iterations
        // entirely (palette is already at most the fixed point).
        let (_, stats_ids) =
            delta_plus_one_coloring(&g, Seed::Ids(&ids), SubroutineConfig::default()).unwrap();
        assert!(stats.rounds <= stats_ids.rounds);
    }

    #[test]
    fn basic_strategy_matches_kw_quality() {
        let g = generators::gnm(80, 240, 3).unwrap();
        let ids = IdAssignment::sequential(80);
        let (basic, sb) = delta_plus_one_coloring(
            &g,
            Seed::Ids(&ids),
            SubroutineConfig {
                reduction: ReductionStrategy::Basic,
            },
        )
        .unwrap();
        let (kw, sk) =
            delta_plus_one_coloring(&g, Seed::Ids(&ids), SubroutineConfig::default()).unwrap();
        assert!(basic.is_proper(&g));
        assert!(kw.is_proper(&g));
        assert_eq!(basic.palette(), kw.palette());
        assert!(sk.rounds <= sb.rounds);
    }

    #[test]
    fn edge_coloring_two_delta_minus_one() {
        let g = generators::gnm(80, 320, 5).unwrap();
        let delta = g.max_degree() as u64;
        let (ec, stats) =
            edge_coloring_with_target(&g, 2 * delta - 1, SubroutineConfig::default()).unwrap();
        assert!(ec.is_proper(&g));
        assert_eq!(ec.palette(), 2 * delta - 1);
        assert!(stats.rounds > 0);
        assert!(edge_coloring_with_target(&g, delta, SubroutineConfig::default()).is_err());
    }

    #[test]
    fn edge_coloring_handles_edgeless() {
        let g = decolor_graph::GraphBuilder::new(4).build();
        let (ec, stats) = edge_coloring_with_target(&g, 1, SubroutineConfig::default()).unwrap();
        assert!(ec.is_empty());
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn path_gets_two_or_three_colors() {
        let g = generators::path(10).unwrap();
        let ids = IdAssignment::sequential(10);
        let (c, _) =
            delta_plus_one_coloring(&g, Seed::Ids(&ids), SubroutineConfig::default()).unwrap();
        assert!(c.is_proper(&g));
        assert_eq!(c.palette(), 3);
    }
}
