//! **Star-partition edge coloring** (§4, Theorem 4.1): deterministic
//! (2^{x+1}Δ)-edge-coloring in Õ(x · Δ^{1/(2x+2)}) + O(log* n)
//! rounds-shape, without simulating the line graph of the input.
//!
//! Each stage builds an [edge connector](crate::connectors::edge) with
//! group size `t` (maximum degree ≤ t), edge-colors it with 2t − 1 colors,
//! and groups the original edges by connector color; each class has stars
//! of size ≤ ⌈Δ/t⌉, so stages shrink star sizes geometrically. After `x`
//! stages the classes are colored directly with 2⌈Δ/tˣ⌉ − 1 colors. With
//! `t = ⌊Δ^{1/(x+1)}⌋`, the combined palette is ≤ 2^{x+1}Δ after the
//! final one-class-per-round trim (§4's "within an additional round").
//! Each stage ends in the shared ⟨ϕ, ψ⟩ class product
//! (`product::color_classes`): the classes recurse in parallel and edge
//! `e` of class `c` takes `c · inner + ψ(e)`.
//!
//! The same stages, run with the labelling leaf (`product::Label`) and
//! no final coloring, build §4's star partition
//! ([`crate::decomposition::star_partition`]).
//!
//! On the mmap backend, [`crate::algorithms::Algorithm::run`] hands its
//! scratch root to the same stages, and the top-level connector — the
//! one construction proportional to the input — streams to an on-disk
//! CSR instead of an in-RAM graph; there is no second entry point.

use decolor_graph::coloring::EdgeColoring;
use decolor_graph::subgraph::{EdgeSubgraphView, GraphView};
use decolor_graph::EdgeId;
use decolor_runtime::{Network, NetworkStats};

use std::path::Path;

use crate::analysis::optimal_t;
use crate::connectors::edge::{edge_connector_graph_on, edge_connector_sharded_on};
use crate::delta_plus_one::SubroutineConfig;
use crate::edge_space::{edge_coloring_direct, edge_coloring_direct_on};
use crate::error::AlgoError;
use crate::product::{color_classes, Colored, Leaf, Paint};
use crate::reduction::edge_palette_trim;
use crate::verify::certified;
use decolor_graph::num;

/// Parameters for the star-partition edge coloring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StarPartitionParams {
    /// Connector group size `t ≥ 2`.
    pub t: usize,
    /// Number of connector stages `x ≥ 1`.
    pub x: usize,
    /// Subroutine configuration.
    pub subroutine: SubroutineConfig,
    /// Run the final palette trim down to 2^{x+1}Δ (default true).
    pub trim: bool,
}

impl Default for StarPartitionParams {
    fn default() -> Self {
        StarPartitionParams {
            t: 2,
            x: 1,
            subroutine: SubroutineConfig::default(),
            trim: true,
        }
    }
}

impl StarPartitionParams {
    /// §4's choice for `x` stages: `t = ⌊Δ^{1/(x+1)}⌋` (clamped ≥ 2).
    pub fn for_levels<G: GraphView>(g: &G, x: usize) -> StarPartitionParams {
        StarPartitionParams::for_max_degree(num::to_u64(g.max_degree()), x)
    }

    /// [`StarPartitionParams::for_levels`] from an explicit maximum
    /// degree — what the view-generic callers use (a borrowed view knows
    /// its Δ without a graph).
    pub fn for_max_degree(delta: u64, x: usize) -> StarPartitionParams {
        let t = optimal_t(delta, x);
        StarPartitionParams {
            t,
            x: x.max(1),
            ..StarPartitionParams::default()
        }
    }
}

/// Result of the star-partition edge coloring.
#[derive(Clone, Debug)]
pub struct StarPartitionResult {
    /// The proper edge coloring of the input graph.
    pub coloring: EdgeColoring,
    /// Measured LOCAL statistics.
    pub stats: NetworkStats,
    /// Palette before the final trim (the raw product of stage palettes).
    pub untrimmed_palette: u64,
}

/// Computes the (2^{x+1}Δ)-edge-coloring of Theorem 4.1.
///
/// ```rust
/// use decolor_core::star_partition::{star_partition_edge_coloring, StarPartitionParams};
/// use decolor_graph::generators;
///
/// # fn main() -> Result<(), decolor_core::AlgoError> {
/// let g = generators::random_regular(64, 16, 2).unwrap();
/// let res = star_partition_edge_coloring(&g, &StarPartitionParams::for_levels(&g, 1))?;
/// assert!(res.coloring.is_proper(&g));
/// assert!(res.coloring.palette() <= 4 * 16); // 2^{x+1}Δ with x = 1
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] for `t < 2` or `x < 1`;
/// [`AlgoError::InvariantViolated`] if a §4 bound fails at runtime.
pub fn star_partition_edge_coloring<G: GraphView + Sync>(
    g: &G,
    params: &StarPartitionParams,
) -> Result<StarPartitionResult, AlgoError> {
    finish(g, params, run_stages::<_, Paint>(g, params, None)?)
}

/// The §4 stages over the whole of `g`, after the parameter check and
/// the simple-graph check — what the coloring entry points run with
/// [`Paint`] and [`crate::decomposition::star_partition`] runs with the
/// labelling leaf.
///
/// `spill`: a scratch root for the top-level connector, the one
/// construction proportional to the input (exactly `m` edges). With it
/// set, that connector streams to an on-disk CSR in a fresh directory
/// under the root, is colored off the mmap and is removed on every exit,
/// so no in-RAM graph proportional to the input is ever built — the
/// mmap backend of [`crate::algorithms::Algorithm::run`]. Decisions,
/// palettes and [`NetworkStats`] are bit-identical either way (same
/// connector edge-push order), which the backend-equivalence tests pin.
pub(crate) fn run_stages<G: GraphView + Sync, L: Leaf>(
    g: &G,
    params: &StarPartitionParams,
    spill: Option<&Path>,
) -> Result<Colored, AlgoError> {
    check_params(params)?;
    if g.num_edges() > 0 && g.has_parallel_edges() {
        return Err(AlgoError::InvalidParameters {
            reason: "edge connector requires a simple source graph".into(),
        });
    }
    stage_on::<_, _, L>(g, g, params, params.x, spill)
}

fn check_params(params: &StarPartitionParams) -> Result<(), AlgoError> {
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
    Ok(())
}

/// [`star_partition_edge_coloring`] over a borrowed
/// [`EdgeSubgraphView`] of `root` — the entry point the view-generic
/// Theorem 5.2 uses for its intra-H-set edges, so no spanning subgraph is
/// ever materialized. Colors are in the view's local edge ids. The final
/// trim runs on a [`Network`] over the view itself (the LOCAL cost
/// ledger is topology-generic), so decisions **and** [`NetworkStats`] are
/// bit-identical to running [`star_partition_edge_coloring`] on the
/// materialized subgraph.
///
/// The parallel-edge precondition is inherited from the parent graph (a
/// view of a simple graph is simple), so it is not re-checked here.
///
/// # Errors
///
/// As [`star_partition_edge_coloring`].
pub fn star_partition_edge_coloring_on<R: GraphView + Sync>(
    root: &R,
    view: &EdgeSubgraphView<'_, R>,
    params: &StarPartitionParams,
) -> Result<StarPartitionResult, AlgoError> {
    check_params(params)?;
    let staged = stage_on::<_, _, Paint>(root, view, params, params.x, None)?;
    finish(view, params, staged)
}

/// Shared tail of every entry point: the §4 palette trim and validation.
/// Generic over the topology, so a view pipeline trims through a
/// [`Network`] over the borrowed view.
pub(crate) fn finish<V: GraphView>(
    g: &V,
    params: &StarPartitionParams,
    (mut colors, mut palette, mut stats): Colored,
) -> Result<StarPartitionResult, AlgoError> {
    let untrimmed_palette = palette;
    if params.trim && g.num_edges() > 0 {
        let delta = num::to_u64(g.max_degree());
        let target = (1u64 << (num::to_u32(params.x)? + 1)) * delta.max(1);
        let target = target.max(2 * delta.saturating_sub(1).max(1) + 1);
        if palette > target {
            let mut net = Network::new(g);
            palette = edge_palette_trim(&mut net, &mut colors, palette, target)?;
            stats = stats.then(net.stats());
        }
    }
    Ok(StarPartitionResult {
        coloring: certified(g, colors, palette)?,
        stats,
        untrimmed_palette,
    })
}

/// One connector stage over a borrowed [`GraphView`] (or the leaf's base
/// case for `x == 0`): the hot path. Color classes recurse as
/// [`EdgeSubgraphView`]s of the *root* graph — an activation bitset over
/// the root's edges plus the class's own compact incidence — so no
/// per-class `Graph` or line graph is ever materialized; each class view
/// costs O(n + m_class) words plus m/64 bitset words.
///
/// `spill`: scratch root for the stage's connector. `Some` only at the
/// top level (see [`run_stages`]); class connectors shrink geometrically
/// (≤ m/(2t−1) edges per class) and always build in RAM.
///
/// `L` is the leaf: [`Paint`] colors the last classes (and any class
/// whose Δ ≤ t) directly with 2Δ − 1 colors; the labelling leaf runs all
/// `x` stages and gives each last class one label.
fn stage_on<R: GraphView + Sync, V: GraphView + Sync, L: Leaf>(
    root: &R,
    view: &V,
    params: &StarPartitionParams,
    x: usize,
    spill: Option<&Path>,
) -> Result<Colored, AlgoError> {
    if view.num_edges() == 0 {
        return Ok((vec![], 1, NetworkStats::default()));
    }
    let cfg = params.subroutine;
    let delta = num::to_u64(view.max_degree());
    let t = params.t;
    // The partition keeps recursing at Δ ≤ t: its classes must shrink x
    // times.
    if x == 0 || (!L::LABELS && delta <= num::to_u64(t)) {
        // Base: color directly with 2Δ − 1 colors in edge space, straight
        // off the view.
        return L::base(view.num_edges(), || {
            edge_coloring_direct_on(view, (2 * delta - 1).max(1), cfg)
        });
    }

    // Build the connector (O(1) local rounds) over the view and
    // edge-color it with 2t − 1 colors; Δ(connector) ≤ t is verified
    // inside the builder. With `spill` set, the connector streams to an
    // on-disk CSR and is colored off the mmap — never an in-RAM graph.
    let target_conn = (2 * num::to_u64(t) - 1).max(1);
    let (phi, phi_stats) = match spill {
        Some(dir) => {
            let conn = edge_connector_sharded_on(view, t, dir)?;
            let (colors, palette, s) = edge_coloring_direct_on(conn.csr(), target_conn, cfg)?;
            let phi = EdgeColoring::new(colors, palette).map_err(AlgoError::invariant)?;
            (phi, s)
        }
        None => {
            let conn = edge_connector_graph_on(view, t)?;
            edge_coloring_direct(&conn, target_conn, cfg)?
        }
    };
    let stats = NetworkStats {
        rounds: 1,
        ..Default::default()
    }
    .then(phi_stats);

    // Group the view's edges by connector color (edge ids align) and
    // recurse on each class as a fresh view of the root graph.
    let star_bound = num::to_u64(view.max_degree().div_ceil(t));
    let (out, inner_palette, children) =
        color_classes(view.num_edges(), &phi.classes(), |class| {
            let child_edges: Vec<EdgeId> = class.iter().map(|&e| view.to_parent_edge(e)).collect();
            let child = EdgeSubgraphView::new(root, child_edges)?;
            if num::to_u64(child.max_degree()) > star_bound {
                return Err(AlgoError::InvariantViolated {
                    reason: format!(
                        "class star size {} exceeds ⌈Δ/t⌉ = {star_bound}",
                        child.max_degree()
                    ),
                });
            }
            stage_on::<_, _, L>(root, &child, params, x - 1, None)
        })?;
    Ok(L::level(
        target_conn,
        (out, inner_palette, stats.then(children)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::generators;

    #[test]
    fn four_delta_coloring_x1() {
        // Theorem 4.1, x = 1: 4Δ colors.
        for seed in 0..3u64 {
            let g = generators::random_regular(128, 16, seed).unwrap();
            let params = StarPartitionParams::for_levels(&g, 1);
            let res = star_partition_edge_coloring(&g, &params).unwrap();
            assert!(res.coloring.is_proper(&g));
            assert!(
                res.coloring.palette() <= 4 * 16,
                "palette {} exceeds 4Δ = 64",
                res.coloring.palette()
            );
        }
    }

    #[test]
    fn two_pow_x_plus_one_delta_for_deeper_x() {
        let g = generators::random_regular(256, 32, 5).unwrap();
        for x in 1..=3usize {
            let params = StarPartitionParams::for_levels(&g, x);
            let res = star_partition_edge_coloring(&g, &params).unwrap();
            assert!(res.coloring.is_proper(&g), "x = {x} improper");
            let bound = (1u64 << (x as u32 + 1)) * 32;
            assert!(
                res.coloring.palette() <= bound,
                "x = {x}: palette {} > 2^{}Δ = {bound}",
                res.coloring.palette(),
                x + 1
            );
        }
    }

    #[test]
    fn trim_reduces_palette() {
        let g = generators::random_regular(128, 27, 2).unwrap();
        let with_trim =
            star_partition_edge_coloring(&g, &StarPartitionParams::for_levels(&g, 1)).unwrap();
        let mut no_trim_params = StarPartitionParams::for_levels(&g, 1);
        no_trim_params.trim = false;
        let without = star_partition_edge_coloring(&g, &no_trim_params).unwrap();
        assert!(without.coloring.is_proper(&g));
        assert!(with_trim.coloring.palette() <= without.coloring.palette());
        assert_eq!(with_trim.untrimmed_palette, without.coloring.palette());
    }

    #[test]
    fn works_on_sparse_and_odd_shapes() {
        for g in [
            generators::path(20).unwrap(),
            generators::cycle(21).unwrap(),
            generators::star(40).unwrap(),
            generators::grid(8, 9).unwrap(),
            generators::gnm(100, 130, 3).unwrap(),
        ] {
            let params = StarPartitionParams::for_levels(&g, 1);
            let res = star_partition_edge_coloring(&g, &params).unwrap();
            assert!(res.coloring.is_proper(&g));
        }
    }

    #[test]
    fn handles_edgeless_graph() {
        let g = decolor_graph::GraphBuilder::new(5).build();
        let params = StarPartitionParams {
            t: 2,
            x: 1,
            ..StarPartitionParams::default()
        };
        let res = star_partition_edge_coloring(&g, &params).unwrap();
        assert!(res.coloring.is_empty());
        assert_eq!(res.stats.rounds, 0);
    }

    #[test]
    fn rejects_bad_params() {
        let g = generators::path(4).unwrap();
        let bad_t = StarPartitionParams {
            t: 1,
            x: 1,
            trim: false,
            ..StarPartitionParams::default()
        };
        assert!(star_partition_edge_coloring(&g, &bad_t).is_err());
        let bad_x = StarPartitionParams {
            t: 2,
            x: 0,
            trim: false,
            ..StarPartitionParams::default()
        };
        assert!(star_partition_edge_coloring(&g, &bad_x).is_err());
    }

    #[test]
    fn for_levels_computes_roots() {
        let g = generators::random_regular(100, 16, 1).unwrap();
        assert_eq!(StarPartitionParams::for_levels(&g, 1).t, 4); // ⌊16^{1/2}⌋
        assert_eq!(StarPartitionParams::for_levels(&g, 3).t, 2); // ⌊16^{1/4}⌋
        assert_eq!(StarPartitionParams::for_max_degree(16, usize::MAX).t, 2);
    }

    #[test]
    fn more_levels_fewer_rounds_shape_on_large_delta() {
        // The qualitative Table 1 shape: deeper recursion should not cost
        // more rounds than x = 1 on high-degree graphs (our subroutine is
        // linear in subgraph degree, which the recursion shrinks).
        let g = generators::random_regular(512, 64, 4).unwrap();
        let r1 = star_partition_edge_coloring(&g, &StarPartitionParams::for_levels(&g, 1)).unwrap();
        let r3 = star_partition_edge_coloring(&g, &StarPartitionParams::for_levels(&g, 3)).unwrap();
        assert!(r1.coloring.is_proper(&g));
        assert!(r3.coloring.is_proper(&g));
        assert!(
            r3.stats.rounds <= r1.stats.rounds * 2,
            "x=3 rounds {} unexpectedly dwarf x=1 rounds {}",
            r3.stats.rounds,
            r1.stats.rounds
        );
    }
}
