//! Distributed baselines: the "previous results" comparators.
//!
//! * [`two_delta_minus_one_edge_coloring`] — the (2Δ − 1)-edge-coloring
//!   family of Panconesi–Rizzi \[33\] and its successors \[3, 17\], realized
//!   **directly in edge space** (`decolor-core`'s
//!   [`edge_space`](decolor_core::edge_space): each edge is an agent
//!   exchanging colors over its ≤ 2Δ − 2 incident edges) — the decision
//!   sequence of the line-graph pipeline without ever materializing L(G),
//!   which is what lets Tables 1–2 sweep Δ ≥ 128. The charged rounds
//!   have the shape of the substituted black-box subroutine
//!   ([`decolor_core::delta_plus_one`]); the color count (2Δ − 1) is
//!   exact.
//! * [`two_delta_minus_one_via_line_graph`] — the original L(G)
//!   materialization, kept as the reference implementation (the unit
//!   tests here assert the two agree).

use decolor_core::delta_plus_one::{edge_coloring_with_target, SubroutineConfig};
use decolor_core::edge_space::edge_coloring_direct;
use decolor_core::AlgoError;
use decolor_graph::coloring::EdgeColoring;
use decolor_graph::{num, Graph};
use decolor_runtime::NetworkStats;

/// The classical distributed (2Δ − 1)-edge-coloring baseline, run
/// directly on edge endpoints.
///
/// # Errors
///
/// Propagates subroutine errors (none for well-formed simple graphs).
pub fn two_delta_minus_one_edge_coloring(
    g: &Graph,
) -> Result<(EdgeColoring, NetworkStats), AlgoError> {
    let delta = num::to_u64(g.max_degree());
    let target = if delta == 0 { 1 } else { 2 * delta - 1 };
    edge_coloring_direct(g, target, SubroutineConfig::default())
}

/// The same baseline through the materialized line graph (reference
/// implementation; O(Σ deg²) memory).
///
/// # Errors
///
/// Propagates subroutine errors (none for well-formed simple graphs).
pub fn two_delta_minus_one_via_line_graph(
    g: &Graph,
) -> Result<(EdgeColoring, NetworkStats), AlgoError> {
    let delta = num::to_u64(g.max_degree());
    let target = if delta == 0 { 1 } else { 2 * delta - 1 };
    edge_coloring_with_target(g, target, SubroutineConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::generators;

    #[test]
    fn two_delta_minus_one_exact_palette() {
        let g = generators::random_regular(80, 10, 1).unwrap();
        let (c, stats) = two_delta_minus_one_edge_coloring(&g).unwrap();
        assert!(c.is_proper(&g));
        assert_eq!(c.palette(), 19);
        assert!(stats.rounds > 0);
    }

    #[test]
    fn handles_degenerate_graphs() {
        let g = decolor_graph::GraphBuilder::new(3).build();
        let (c, _) = two_delta_minus_one_edge_coloring(&g).unwrap();
        assert!(c.is_empty());
        let g = generators::path(2).unwrap();
        let (c, _) = two_delta_minus_one_edge_coloring(&g).unwrap();
        assert!(c.is_proper(&g));
        assert_eq!(c.palette(), 1);
    }

    #[test]
    fn uses_more_colors_than_misra_gries_but_is_distributed() {
        let g = generators::gnm(60, 240, 2).unwrap();
        let (dist, _) = two_delta_minus_one_edge_coloring(&g).unwrap();
        let central = crate::misra_gries::misra_gries_edge_coloring(&g);
        assert!(central.palette() <= dist.palette());
    }

    #[test]
    fn direct_and_line_graph_realizations_agree() {
        for seed in 0..3u64 {
            let g = generators::gnm(70, 280, seed).unwrap();
            let (direct, ds) = two_delta_minus_one_edge_coloring(&g).unwrap();
            let (via_lg, ls) = two_delta_minus_one_via_line_graph(&g).unwrap();
            assert_eq!(direct.as_slice(), via_lg.as_slice());
            assert_eq!(ds.rounds, ls.rounds);
        }
    }

    #[test]
    fn direct_realization_reaches_delta_128() {
        // The line-graph pipeline would materialize ~Σ C(deg, 2) ≈ 2·10⁶
        // adjacencies here; the direct agent view stays O(n + m).
        let g = generators::random_regular(256, 128, 9).unwrap();
        let (c, stats) = two_delta_minus_one_edge_coloring(&g).unwrap();
        assert!(c.is_proper(&g));
        assert_eq!(c.palette(), 255);
        assert!(stats.rounds > 0);
    }
}
