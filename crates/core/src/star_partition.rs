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

use decolor_graph::coloring::{Color, EdgeColoring};
use decolor_graph::subgraph::{EdgeSubgraphView, GraphView, SpanningEdgeSubgraph};
use decolor_graph::{EdgeId, Graph};
use decolor_runtime::{Network, NetworkStats};
use rayon::prelude::*;

use std::path::Path;

use crate::connectors::edge::{edge_connector, edge_connector_graph_on, edge_connector_sharded_on};
use crate::delta_plus_one::SubroutineConfig;
use crate::edge_space::{edge_coloring_direct, edge_coloring_direct_on};
use crate::error::AlgoError;
use crate::product::color_classes;
use crate::reduction::edge_palette_trim;
use crate::util::integer_root;
use decolor_graph::num;

/// Child outcome of a parallel class recursion in the materializing
/// reference path (subgraph, colors, palette, stats).
type ClassOutcome = (SpanningEdgeSubgraph, Vec<Color>, u64, NetworkStats);

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
    /// Ablation: recompute `t = ⌊Δ_cur^{1/(x_rem+1)}⌋` at every stage from
    /// the *current* maximum degree instead of reusing the top-level `t`
    /// (the paper fixes `t`; adaptive `t` trades a few colors for rounds
    /// on irregular graphs).
    pub adaptive_t: bool,
}

impl Default for StarPartitionParams {
    fn default() -> Self {
        StarPartitionParams {
            t: 2,
            x: 1,
            subroutine: SubroutineConfig::default(),
            trim: true,
            adaptive_t: false,
        }
    }
}

/// §4's optimizing `t = ⌊Δ^{1/(x+1)}⌋` (clamped ≥ 2); absurd `x`
/// saturates the exponent, which the clamp absorbs.
fn optimal_t_for(delta: u64, x: usize) -> usize {
    let exp = u32::try_from(x).unwrap_or(u32::MAX).saturating_add(1);
    // lint: allow(cast, "an integer root of Δ is at most Δ ≤ n, which is a usize")
    integer_root(delta, exp).max(2) as usize
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
        let t = optimal_t_for(delta, x);
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
    check_params(g, params)?;
    let staged = stage_on(
        g,
        g,
        params.t,
        params.x,
        params.subroutine,
        params.adaptive_t,
        None,
    )?;
    finish(g, params, staged)
}

/// [`star_partition_edge_coloring`] with the **top-level connector spilled
/// to disk**: the one construction of the star pipeline that is
/// proportional to the input (the stage-one connector has exactly `m`
/// edges) is streamed through
/// [`ShardedCsrBuilder`](decolor_graph::storage::ShardedCsrBuilder) into `scratch_dir`
/// and colored off the mmap CSR, so no in-RAM graph proportional to the
/// input is ever materialized — the entry point the mmap backend uses.
/// Recursion-level connectors are geometrically smaller (≤ m/(2t−1) edges
/// per class) and stay in RAM.
///
/// Decisions, palettes, and [`NetworkStats`] are bit-identical to
/// [`star_partition_edge_coloring`] (same connector edge-push order ⇒
/// same edge-space structure), which the backend-equivalence tests pin.
/// The scratch directory is created on entry and removed before
/// returning, on success and on error.
///
/// # Errors
///
/// As [`star_partition_edge_coloring`], plus [`AlgoError::Graph`] for
/// scratch-directory I/O failures.
pub fn star_partition_edge_coloring_spilled<G: GraphView + Sync>(
    g: &G,
    params: &StarPartitionParams,
    scratch_dir: &Path,
) -> Result<StarPartitionResult, AlgoError> {
    check_params(g, params)?;
    let staged = stage_on(
        g,
        g,
        params.t,
        params.x,
        params.subroutine,
        params.adaptive_t,
        Some(scratch_dir),
    )?;
    finish(g, params, staged)
}

/// The **materializing reference path**: identical decisions to
/// [`star_partition_edge_coloring`], but every recursion level copies each
/// color class into a fresh [`SpanningEdgeSubgraph`] (the pre-view
/// implementation). Kept so the equivalence tests can pin the borrowed
/// [`EdgeSubgraphView`] pipeline bit-for-bit — colorings, palettes, and
/// [`NetworkStats`] must match exactly.
///
/// Note on the ledger: both paths color classes with the edge-space
/// realization ([`edge_coloring_direct`]), whose colorings **and round
/// counts** are pinned bit-identical to the line-graph pipeline by the
/// `edge_space` and `decolor-baselines` equivalence tests, but whose
/// `messages`/`payload_bytes` reflect the on-`G` realization — so those
/// two columns are not comparable with pre-PR-3 recorded runs.
///
/// # Errors
///
/// As [`star_partition_edge_coloring`].
pub fn star_partition_edge_coloring_reference(
    g: &Graph,
    params: &StarPartitionParams,
) -> Result<StarPartitionResult, AlgoError> {
    check_params(g, params)?;
    let staged = stage(g, params.t, params.x, params.subroutine, params.adaptive_t)?;
    finish(g, params, staged)
}

fn check_params<G: GraphView>(g: &G, params: &StarPartitionParams) -> Result<(), AlgoError> {
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
    if g.num_edges() > 0 && g.has_parallel_edges() {
        return Err(AlgoError::InvalidParameters {
            reason: "edge connector requires a simple source graph".into(),
        });
    }
    Ok(())
}

/// [`star_partition_edge_coloring`] over a borrowed
/// [`EdgeSubgraphView`] of `root` — the entry point the view-generic
/// Theorem 5.2 uses for its intra-H-set edges, so no spanning subgraph is
/// ever materialized. Colors are in the view's local edge ids. The final
/// trim runs on a [`Network`] over the view itself (the LOCAL simulator
/// is topology-generic), so decisions **and** [`NetworkStats`] are
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
    if params.t < 2 || params.x < 1 {
        return Err(AlgoError::InvalidParameters {
            reason: "need t ≥ 2, x ≥ 1".into(),
        });
    }
    let staged = stage_on(
        root,
        view,
        params.t,
        params.x,
        params.subroutine,
        params.adaptive_t,
        None,
    )?;
    finish(view, params, staged)
}

/// Shared tail of both paths: the §4 palette trim and validation. Generic
/// over the topology, so the view pipeline trims through a [`Network`]
/// over the borrowed view.
fn finish<V: GraphView>(
    g: &V,
    params: &StarPartitionParams,
    staged: (Vec<Color>, u64, NetworkStats),
) -> Result<StarPartitionResult, AlgoError> {
    let (colors, palette, mut stats) = staged;
    let untrimmed_palette = palette;
    let mut colors = colors;
    let mut palette = palette;
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
    let coloring =
        EdgeColoring::new(colors, palette).map_err(|e| AlgoError::InvariantViolated {
            reason: e.to_string(),
        })?;
    coloring
        .validate(g)
        .map_err(|e| AlgoError::InvariantViolated {
            reason: e.to_string(),
        })?;
    Ok(StarPartitionResult {
        coloring,
        stats,
        untrimmed_palette,
    })
}

/// One connector stage over a borrowed [`GraphView`] (or the direct base
/// case for `x == 0`): the hot path. Color classes recurse as
/// [`EdgeSubgraphView`]s of the *root* graph — activation bitsets over the
/// root CSR — so no per-class graph, port table, or line graph is ever
/// materialized; the only allocations are O(m/64 + n) words of view
/// index per class. Decisions are bit-identical to [`stage`].
///
/// `spill`: scratch directory for the stage's connector. `Some` only at
/// the top level of the spilled entry point — the stage-one connector is
/// the single input-proportional construction; class connectors shrink
/// geometrically and always build in RAM (`None` on recursion).
#[allow(clippy::too_many_arguments)]
fn stage_on<R: GraphView + Sync, V: GraphView + Sync>(
    root: &R,
    view: &V,
    t: usize,
    x: usize,
    cfg: SubroutineConfig,
    adaptive_t: bool,
    spill: Option<&Path>,
) -> Result<(Vec<Color>, u64, NetworkStats), AlgoError> {
    if view.num_edges() == 0 {
        return Ok((vec![], 1, NetworkStats::default()));
    }
    let delta = num::to_u64(view.max_degree());
    let t = if adaptive_t {
        optimal_t_for(delta, x)
    } else {
        t
    };
    if x == 0 || delta <= num::to_u64(t) {
        // Base: color directly with 2Δ − 1 colors in edge space, straight
        // off the view.
        let target = (2 * delta - 1).max(1);
        return edge_coloring_direct_on(view, target, cfg);
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
            let phi =
                EdgeColoring::new(colors, palette).map_err(|e| AlgoError::InvariantViolated {
                    reason: e.to_string(),
                })?;
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
            stage_on(root, &child, t, x - 1, cfg, adaptive_t, None)
        })?;
    Ok((out, target_conn * inner_palette, stats.then(children)))
}

/// One connector stage of the **materializing reference path** (or the
/// direct base case for `x == 0`).
fn stage(
    g: &Graph,
    t: usize,
    x: usize,
    cfg: SubroutineConfig,
    adaptive_t: bool,
) -> Result<(Vec<Color>, u64, NetworkStats), AlgoError> {
    if g.num_edges() == 0 {
        return Ok((vec![], 1, NetworkStats::default()));
    }
    let delta = num::to_u64(g.max_degree());
    let t = if adaptive_t {
        optimal_t_for(delta, x)
    } else {
        t
    };
    if x == 0 || delta <= num::to_u64(t) {
        // Base: color directly with 2Δ − 1 colors in edge space.
        let target = (2 * delta - 1).max(1);
        let (c, s) = edge_coloring_direct(g, target, cfg)?;
        return Ok((c.as_slice().to_vec(), c.palette(), s));
    }

    // Build the connector (O(1) local rounds) and edge-color it with
    // 2t − 1 colors; its maximum degree is ≤ t by construction.
    let conn = edge_connector(g, t)?;
    conn.verify_degree_bound()?;
    let target_conn = (2 * num::to_u64(t) - 1).max(1);
    let (phi, phi_stats) = edge_coloring_direct(&conn.graph, target_conn, cfg)?;
    let mut stats = NetworkStats {
        rounds: 1,
        ..Default::default()
    }
    .then(phi_stats);

    // Group original edges by connector color (edge ids align).
    let classes = phi.classes();
    let star_bound = num::to_u64(conn.star_bound(g));
    let outcomes: Vec<Result<Option<ClassOutcome>, AlgoError>> = classes
        .par_iter()
        .map(|class| {
            if class.is_empty() {
                return Ok(None);
            }
            let edge_ids: Vec<EdgeId> = class.iter().map(|&v| EdgeId::new(v.index())).collect();
            let sub = SpanningEdgeSubgraph::new(g, &edge_ids);
            if num::to_u64(sub.graph().max_degree()) > star_bound {
                return Err(AlgoError::InvariantViolated {
                    reason: format!(
                        "class star size {} exceeds ⌈Δ/t⌉ = {star_bound}",
                        sub.graph().max_degree()
                    ),
                });
            }
            let (colors, palette, s) = stage(sub.graph(), t, x - 1, cfg, adaptive_t)?;
            Ok(Some((sub, colors, palette, s)))
        })
        .collect();

    let mut children = Vec::new();
    for o in outcomes {
        if let Some(c) = o? {
            children.push(c);
        }
    }
    let inner_palette = children.iter().map(|&(_, _, p, _)| p).max().unwrap_or(1);
    let mut out = vec![0 as Color; g.num_edges()];
    for (sub, colors, _, _) in &children {
        for (local, &c) in colors.iter().enumerate() {
            let parent = sub.to_parent_edge(EdgeId::new(local));
            let phi_color = phi.color(parent); // connector edge id == parent edge id
            let combined = u64::from(phi_color) * inner_palette + u64::from(c);
            out[parent.index()] =
                u32::try_from(combined).map_err(|_| AlgoError::InvariantViolated {
                    reason: "combined color exceeds u32".into(),
                })?;
        }
    }
    stats = stats.then(NetworkStats::in_parallel(
        children.iter().map(|&(_, _, _, s)| s),
    ));
    Ok((out, target_conn * inner_palette, stats))
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

    #[test]
    fn adaptive_t_stays_proper_on_irregular_graphs() {
        let g = generators::barabasi_albert(300, 4, 3).unwrap();
        let fixed = StarPartitionParams::for_levels(&g, 2);
        let adaptive = StarPartitionParams {
            adaptive_t: true,
            ..fixed
        };
        let rf = star_partition_edge_coloring(&g, &fixed).unwrap();
        let ra = star_partition_edge_coloring(&g, &adaptive).unwrap();
        assert!(rf.coloring.is_proper(&g));
        assert!(ra.coloring.is_proper(&g));
    }
}
