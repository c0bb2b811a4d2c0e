//! **Section 5**: edge coloring with Δ + o(Δ) colors for graphs of
//! bounded arboricity.
//!
//! * [`theorem52`] — (Δ + O(a))-edge-coloring in O(a log n) rounds:
//!   H-partition, star-partition coloring of the intra-set edges, then
//!   Lemma 5.1 merges stage by stage from `H_ℓ` down to `H_1`.
//! * [`theorem53`] — Δ + O(√(Δa)) colors via one **orientation
//!   connector** (√ grouping), Theorem 5.2 on the connector and on each
//!   color class in parallel.
//! * [`theorem54`] — (Δ^{1/x} + â^{1/x} + O(1))^x colors via `x − 1`
//!   levels of **bipartite** orientation connectors colored by the
//!   one-sided greedy (Lemma 5.1 with empty precoloring), finishing with
//!   Theorem 5.2 on the residual low-degree classes.
//! * [`corollary55`] — the paper's parameter selection: whenever
//!   `a < Δ^{1/(4 log log Δ)}`-ish, a Δ(1 + o(1))-edge-coloring in
//!   O(log n) rounds.
//!
//! All class recursions run on borrowed [`EdgeSubgraphView`]s of the root
//! CSR through the topology-generic LOCAL cost ledger — Theorem 5.2
//! itself is view-generic ([`h_partition`], the intra star partition, and
//! the Lemma 5.1 merges all charge their rounds on the view), so no per-class
//! spanning subgraph, port table, or network is materialized. Theorem
//! 5.3's class step and every Theorem 5.4 level end in the shared ⟨ϕ, ψ⟩
//! class product (`product::color_classes`). The golden sweep rows
//! (`crates/core/tests/golden.rs`) pin colorings, palettes and
//! [`NetworkStats`] of all three theorems over 32 seeded forests.

use decolor_graph::coloring::{Color, EdgeColoring};
use decolor_graph::orientation::Orientation;
use decolor_graph::subgraph::{EdgeSubgraphView, GraphView};
use decolor_graph::{EdgeId, VertexId};
use decolor_runtime::{Network, NetworkStats};

use crate::connectors::orientation::{bipartite_orientation_connector_on, orientation_connector};
use crate::crossing_merge::{all_colored, one_sided_edge_coloring, CrossingStages};
use crate::delta_plus_one::SubroutineConfig;
use crate::error::AlgoError;
use crate::h_partition::h_partition;
use crate::product::{color_classes, Colored};
use crate::star_partition::{star_partition_edge_coloring_on, StarPartitionParams};
use crate::util::integer_root_ceil;
use crate::verify::certified;
use decolor_graph::num;

/// The paper's â = ⌈q·a⌉ degree bound for the H-partition, clamped to
/// ≥ 1, for a speed parameter `q` that is finite and ≥ 2.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] for any other `q`, or when â does
/// not fit a `usize`.
fn a_hat(q: f64, a: usize) -> Result<usize, AlgoError> {
    if !q.is_finite() || q < 2.0 {
        return Err(AlgoError::InvalidParameters {
            reason: format!("q = {q} must be finite and ≥ 2 (+ε)"),
        });
    }
    let d = num::f64_to_usize((q * num::approx_f64(a.max(1))).ceil()).map_err(|_| {
        AlgoError::InvalidParameters {
            reason: format!("â = ⌈q·a⌉ with a = {a} does not fit a usize (q too large)"),
        }
    })?;
    Ok(d.max(1))
}

/// Result of the Section 5 edge colorings.
#[derive(Clone, Debug)]
pub struct ArboricityColoring {
    /// The proper edge coloring.
    pub coloring: EdgeColoring,
    /// Measured LOCAL statistics.
    pub stats: NetworkStats,
}

/// Every Section 5 exit: `colors` [`certified`] on `g`, with its ledger.
fn finish<G: GraphView>(
    g: &G,
    (colors, palette, stats): Colored,
) -> Result<ArboricityColoring, AlgoError> {
    Ok(ArboricityColoring {
        coloring: certified(g, colors, palette)?,
        stats,
    })
}

/// **Theorem 5.2**: a (Δ + O(a))-edge-coloring in O(a log n) rounds, given
/// an upper bound `a ≥ a(G)` on the arboricity.
///
/// The palette is `max(4d + 1, Δ + d)` with `d = ⌈q·a⌉`
/// ([`analysis::theorem52_palette`](crate::analysis::theorem52_palette)):
/// intra-H-set edges take the 4d + 1 star-partition colors, crossing
/// edges are merged with Lemma 5.1 using Δ + d colors.
///
/// ```rust
/// use decolor_core::arboricity::theorem52;
/// use decolor_core::delta_plus_one::SubroutineConfig;
/// use decolor_graph::generators;
///
/// # fn main() -> Result<(), decolor_core::AlgoError> {
/// let g = generators::forest_union(200, 2, 12, 3).unwrap(); // arboricity ≤ 2
/// let res = theorem52(&g, 2, 2.5, SubroutineConfig::default())?;
/// assert!(res.coloring.is_proper(&g));
/// // Δ + O(a): the excess over Δ is independent of Δ.
/// assert!(res.coloring.palette() <= g.max_degree() as u64 + 21);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `q` is not finite, `q < 2`, or
/// `a` underestimates the arboricity badly enough to stall the peeling.
pub fn theorem52<G: GraphView + Sync>(
    g: &G,
    a: usize,
    q: f64,
    cfg: SubroutineConfig,
) -> Result<ArboricityColoring, AlgoError> {
    theorem52_on(g, g, a, q, cfg)
}

/// The view-generic realization of Theorem 5.2: runs on any
/// [`GraphView`] of `root` (the whole graph at the entry points, a
/// borrowed color-class [`EdgeSubgraphView`] inside the Theorem 5.3/5.4
/// recursions). Colors are in the view's local edge ids. Every round —
/// the H-partition peeling, the intra star partition, the Lemma 5.1
/// merges — is computed and charged on the view itself, so decisions **and**
/// [`NetworkStats`] are bit-identical to the materializing path. Past
/// the H-partition and the intra coloring, the call is one pass that
/// buckets the crossing edges by stage and one `CrossingStages` run
/// over all stages, O(n + m) plus the stages' own label rounds.
///
/// The intra-H-set edges get one star-partition level, as Theorem 5.2
/// is stated; the proof remarks that "this step can be computed much
/// faster in the expense of increasing the constant of the number of
/// colors O(a). See Theorem 4.1."
///
/// # Errors
///
/// As [`theorem52`].
pub fn theorem52_on<R: GraphView + Sync, V: GraphView + Sync>(
    root: &R,
    view: &V,
    a: usize,
    q: f64,
    cfg: SubroutineConfig,
) -> Result<ArboricityColoring, AlgoError> {
    if view.num_edges() == 0 {
        return finish(view, (vec![], 1, NetworkStats::default()));
    }
    let d = a_hat(q, a)?;
    let delta = num::to_u64(view.max_degree());
    let hp = h_partition(view, d)?;
    let mut stats = hp.stats;

    // Intra-set edges in id order, and crossing edges bucketed by their
    // stage i = min(h(u), h(v)) with one counting sort (a count pass and
    // a fill pass), so each stage's edges stay in ascending id order.
    let sets = |e: EdgeId| {
        let [u, v] = view.endpoints(e);
        (hp.index[u.index()], hp.index[v.index()])
    };
    let mut same = Vec::new();
    let mut stage_start = vec![0usize; hp.num_sets + 1];
    for e in (0..view.num_edges()).map(EdgeId::new) {
        match sets(e) {
            (hu, hv) if hu == hv => same.push(e),
            (hu, hv) => stage_start[hu.min(hv) + 1] += 1,
        }
    }
    for i in 0..hp.num_sets {
        stage_start[i + 1] += stage_start[i];
    }
    let mut crossing = vec![EdgeId::new(0); stage_start[hp.num_sets]];
    let mut fill = stage_start.clone();
    for e in (0..view.num_edges()).map(EdgeId::new) {
        let (hu, hv) = sets(e);
        if hu != hv {
            let slot = &mut fill[hu.min(hv)];
            crossing[*slot] = e;
            *slot += 1;
        }
    }

    // Intra-set edges: the union of the vertex-disjoint G(H_i) has degree
    // ≤ d; one star-partition stage colors it with ≤ 4d + 1 colors. The
    // class rides a borrowed view of the root — never a spanning copy.
    let mut edge_colors: Vec<Option<Color>> = vec![None; view.num_edges()];
    let mut intra_palette = 1u64;
    if !same.is_empty() {
        let intra_parent: Vec<EdgeId> = same.iter().map(|&e| view.to_parent_edge(e)).collect();
        let intra = EdgeSubgraphView::new(root, intra_parent).map_err(AlgoError::invariant)?;
        debug_assert!(GraphView::max_degree(&intra) <= d);
        let star = star_partition_edge_coloring_on(
            root,
            &intra,
            &StarPartitionParams {
                subroutine: cfg,
                ..StarPartitionParams::for_max_degree(num::to_u64(GraphView::max_degree(&intra)), 1)
            },
        )?;
        intra_palette = star.coloring.palette();
        for (local, &e) in same.iter().enumerate() {
            edge_colors[e.index()] = Some(star.coloring.color(EdgeId::new(local)));
        }
        stats = stats.then(star.stats);
    }

    // Crossing stages, H_ℓ first ("we go over the sets from H_ℓ back to
    // H_1"): stage i colors the edges between H_i and the later sets,
    // with A = H_i. All stages run through one `CrossingStages`, which carries the
    // incident-color table from the intra coloring on.
    let palette = intra_palette.max(delta + num::to_u64(d));
    let mut net = Network::new(view);
    if !crossing.is_empty() {
        let mut stages = CrossingStages::new(&mut net, &mut edge_colors, palette)?;
        for i in (0..hp.num_sets).rev() {
            let edges = &crossing[stage_start[i]..stage_start[i + 1]];
            stages.stage(edges, |v| hp.index[v.index()] == i)?;
        }
    }
    stats = stats.then(net.stats());
    finish(view, (all_colored(edge_colors)?, palette, stats))
}

/// **Theorem 5.3**: for `a = o(Δ)`, a (Δ + O(√(Δa)) + O(a))-edge-coloring
/// — i.e. Δ + o(Δ) — in O(√a log n)-shape rounds, via the shared
/// orientation connector with √-sized groups. Color classes recurse on
/// borrowed [`EdgeSubgraphView`]s through the view-generic Theorem 5.2.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `q` is not finite or `q < 2`;
/// propagates parameter errors from the H-partition and Theorem 5.2.
pub fn theorem53<G: GraphView + Sync>(
    g: &G,
    a: usize,
    q: f64,
    cfg: SubroutineConfig,
) -> Result<ArboricityColoring, AlgoError> {
    if g.num_edges() == 0 {
        return finish(g, (vec![], 1, NetworkStats::default()));
    }
    let d = a_hat(q, a)?;
    let delta = num::to_u64(g.max_degree());
    let hp = h_partition(g, d)?;
    let orient = hp.orientation(g);
    let mut stats = hp.stats;

    let s_in = num::to_usize(integer_root_ceil(delta, 2))?.max(1);
    let s_out = num::to_usize(integer_root_ceil(num::to_u64(d), 2))?.max(1);
    let conn = orientation_connector(g, &orient, s_in, s_out, false)?;
    stats.rounds += 1; // local construction
    let a_conn = conn.orientation.max_out_degree(&conn.graph).max(1);
    let phi = theorem52(&conn.graph, a_conn, q, cfg)?;
    combine_classes_on(g, &orient, &phi.coloring, q, cfg, stats.then(phi.stats))
}

/// Maximum out-degree of the edges of `g` oriented by `arcs` (edge, head):
/// `Orientation::max_out_degree` of the restricted orientation, computed
/// without materializing the restriction or its subgraph.
fn max_out_degree<G: GraphView>(g: &G, arcs: impl Iterator<Item = (EdgeId, VertexId)>) -> usize {
    let mut out_deg = vec![0u32; g.num_vertices()];
    for (e, head) in arcs {
        let [u, v] = g.endpoints(e);
        debug_assert!(head == u || head == v, "orientation heads are endpoints");
        let tail = if head == u { v } else { u };
        out_deg[tail.index()] += 1;
    }
    num::usize_from(out_deg.iter().copied().max().unwrap_or(0))
}

/// Groups the edges of `g` by `phi` (whose edge ids align with `g`) and
/// colors every class with the view-generic Theorem 5.2 in parallel, each
/// class a borrowed [`EdgeSubgraphView`] of `g`.
fn combine_classes_on<G: GraphView + Sync>(
    g: &G,
    orient: &Orientation,
    phi: &EdgeColoring,
    q: f64,
    cfg: SubroutineConfig,
    stats: NetworkStats,
) -> Result<ArboricityColoring, AlgoError> {
    let (out, inner, children) = color_classes(g.num_edges(), &phi.classes(), |class| {
        let view = EdgeSubgraphView::new(g, class.to_vec()).map_err(AlgoError::invariant)?;
        let a_sub = max_out_degree(g, class.iter().map(|&e| (e, orient.head(e)))).max(1);
        let psi = theorem52_on(g, &view, a_sub, q, cfg)?;
        Ok((
            psi.coloring.as_slice().to_vec(),
            psi.coloring.palette(),
            psi.stats,
        ))
    })?;
    finish(g, (out, phi.palette() * inner, stats.then(children)))
}

/// **Theorem 5.4**: a ((Δ^{1/x} + â^{1/x} + 3)^x)-edge-coloring in
/// O(â^{1/x}(x + log n / log q))-shape rounds, `â = ⌈q·a⌉`.
///
/// `x − 1` bipartite orientation-connector levels shrink degree and
/// out-degree geometrically; the final classes are colored with the
/// view-generic Theorem 5.2 in parallel. Every class recursion is a
/// borrowed [`EdgeSubgraphView`] of the root, with the class's heads
/// carried alongside — no spanning subgraph or restricted
/// [`Orientation`] object is materialized. At `x = 1` there is no
/// connector level and the call is [`theorem52`].
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `x == 0`, `q` is not finite or
/// `q < 2`.
pub fn theorem54<G: GraphView + Sync>(
    g: &G,
    a: usize,
    q: f64,
    x: usize,
    cfg: SubroutineConfig,
) -> Result<ArboricityColoring, AlgoError> {
    if x == 0 {
        return Err(AlgoError::InvalidParameters {
            reason: "x must be ≥ 1".into(),
        });
    }
    if g.num_edges() == 0 {
        return finish(g, (vec![], 1, NetworkStats::default()));
    }
    if x == 1 {
        return theorem52(g, a, q, cfg);
    }
    let d = a_hat(q, a)?;
    let delta = num::to_u64(g.max_degree());
    let hp = h_partition(g, d)?;
    let orient = hp.orientation(g);
    let stats = hp.stats;
    // Group sizes fixed from the *original* Δ and â (the paper's
    // ⌈Δ^{1/x} + 1⌉ / ⌈â^{1/x} + 1⌉).
    let x32 = num::to_u32(x)?;
    let ctx = T54Ctx {
        s_in: (num::to_usize(integer_root_ceil(delta, x32))? + 1).max(2),
        s_out: (num::to_usize(integer_root_ceil(num::to_u64(d), x32))? + 1).max(2),
        q,
        cfg,
    };
    let heads: Vec<VertexId> = (0..g.num_edges())
        .map(|e| orient.head(EdgeId::new(e)))
        .collect();
    let (colors, palette, level_stats) = t54_level_on(g, g, &heads, &ctx, x)?;
    finish(g, (colors, palette, stats.then(level_stats)))
}

/// Level-invariant parameters of the Theorem 5.4 recursion.
#[derive(Clone, Copy)]
struct T54Ctx {
    s_in: usize,
    s_out: usize,
    q: f64,
    cfg: SubroutineConfig,
}

/// One Theorem 5.4 level over a borrowed view of the root: the bipartite
/// connector is built straight off the view (`heads[e]` = head of local
/// edge `e`), its classes recurse as child views with their head slices.
fn t54_level_on<R: GraphView + Sync, V: GraphView + Sync>(
    root: &R,
    view: &V,
    heads: &[VertexId],
    ctx: &T54Ctx,
    levels: usize,
) -> Result<(Vec<Color>, u64, NetworkStats), AlgoError> {
    if view.num_edges() == 0 {
        return Ok((vec![], 1, NetworkStats::default()));
    }
    if levels == 1 {
        let arcs = (0..view.num_edges())
            .map(EdgeId::new)
            .zip(heads.iter().copied());
        let a_cur = max_out_degree(view, arcs).max(1);
        let t52 = theorem52_on(root, view, a_cur, ctx.q, ctx.cfg)?;
        return Ok((
            t52.coloring.as_slice().to_vec(),
            t52.coloring.palette(),
            t52.stats,
        ));
    }
    let (conn, in_a) = bipartite_orientation_connector_on(view, heads, ctx.s_in, ctx.s_out)?;
    let palette_conn = num::to_u64(ctx.s_in + ctx.s_out - 1);
    let (phi, phi_stats) = one_sided_edge_coloring(&conn, &in_a, palette_conn)?;
    let stats = NetworkStats {
        rounds: 1,
        ..Default::default()
    }
    .then(phi_stats);

    let (out, inner, children) = color_classes(view.num_edges(), &phi.classes(), |class| {
        let parent_ids: Vec<EdgeId> = class.iter().map(|&e| view.to_parent_edge(e)).collect();
        let child = EdgeSubgraphView::new(root, parent_ids).map_err(AlgoError::invariant)?;
        let child_heads: Vec<VertexId> = class.iter().map(|&e| heads[e.index()]).collect();
        t54_level_on(root, &child, &child_heads, ctx, levels - 1)
    })?;
    Ok((out, palette_conn * inner, stats.then(children)))
}

/// Parameters chosen by [`corollary55`], reported for the bench harness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Corollary55Params {
    /// Recursion depth handed to Theorem 5.4.
    pub x: usize,
    /// H-partition speed parameter `q`.
    pub q: f64,
}

impl Corollary55Params {
    /// The paper's parameter selection for maximum degree `delta` and
    /// arboricity bound `a` — a pure function of the two, so the palette
    /// bound of a Corollary 5.5 run is known before it starts.
    ///
    /// Follows the paper's two regimes: for very small `a` a large `q`
    /// shortens the H-partition; otherwise `x ≈ log â / log log â`
    /// balances the per-level color loss. `x` is clamped to ≤ 6, which
    /// already covers every laptop-scale Δ (the asymptotic regimes only
    /// separate beyond Δ ≈ 2^64).
    pub fn select(delta: usize, a: usize) -> Corollary55Params {
        let delta = num::approx_f64(delta.max(2));
        let a_eff = num::approx_f64(a.max(1));
        let log_delta = delta.log2();
        let loglog_delta = log_delta.log2().max(1.0);
        let small_a_threshold = (log_delta / (4.0 * loglog_delta)).exp2();
        let (x, q) = if a_eff < small_a_threshold {
            // Small-arboricity regime: crank q up so ℓ = O(log n / log q).
            let q = (2.0f64)
                .max((log_delta / loglog_delta).exp2() / a_eff)
                .min(1e6);
            let ahat = (q * a_eff).max(2.0);
            // lint: allow(cast, "ahat >= 2 so its log2 is >= 1, and the clamp bounds the result to 1..=6")
            ((ahat.log2().ceil() as usize).clamp(1, 6), q.max(2.5))
        } else {
            let ahat = (2.5 * a_eff).max(2.0);
            // lint: allow(cast, "positive ratio of logs, clamped to 1..=6 on the next line")
            let x = (ahat.log2() / ahat.log2().log2().max(1.0)).ceil() as usize;
            (x.clamp(1, 6), 2.5)
        };
        Corollary55Params { x, q }
    }
}

/// **Corollary 5.5**: automatic parameter selection
/// ([`Corollary55Params::select`]) for a Δ(1 + O(1/log Δ))-edge-coloring
/// whenever the arboricity is polynomially below Δ.
///
/// # Errors
///
/// Propagates [`theorem54`] errors.
pub fn corollary55<G: GraphView + Sync>(
    g: &G,
    a: usize,
    cfg: SubroutineConfig,
) -> Result<(ArboricityColoring, Corollary55Params), AlgoError> {
    let p = Corollary55Params::select(g.max_degree(), a);
    Ok((theorem54(g, a, p.q, p.x, cfg)?, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossing_merge::color_crossing_edges;
    use decolor_graph::{generators, Graph};

    fn workload(n: usize, a: usize, cap: usize, seed: u64) -> Graph {
        generators::forest_union(n, a, cap, seed).unwrap()
    }

    #[test]
    fn theorem52_palette_is_delta_plus_o_a() {
        for (a, cap, seed) in [(2usize, 10usize, 1u64), (4, 8, 2), (3, 16, 3)] {
            let g = workload(400, a, cap, seed);
            let delta = g.max_degree() as u64;
            let res = theorem52(&g, a, 2.5, SubroutineConfig::default()).unwrap();
            assert!(res.coloring.is_proper(&g));
            let bound = crate::analysis::theorem52_palette(delta, a as u64, 2.5);
            assert!(
                res.coloring.palette() <= bound,
                "palette {} exceeds Δ + O(a) bound {bound}",
                res.coloring.palette()
            );
        }
    }

    #[test]
    fn theorem52_round_shape_is_a_log_n() {
        let g = workload(800, 2, 8, 4);
        let res = theorem52(&g, 2, 2.5, SubroutineConfig::default()).unwrap();
        // d·ℓ + subroutine work; generously below 40·log₂(n)·d.
        let bound = 40 * 10 * 5u64;
        assert!(res.stats.rounds <= bound, "rounds {}", res.stats.rounds);
    }

    #[test]
    fn theorem53_palette_within_closed_form_bound() {
        // Palette ≤ (√Δ + C(√(qa) + 1))² — the Δ + O(√(Δa)) + O(a) shape
        // with explicit constant C = 5 (the 4d + 1 star-partition floor
        // inside Theorem 5.2 dominates at laptop scale; the √ term only
        // takes over for Δ ≫ a · constants, which EXPERIMENTS.md shows).
        for (n, a, cap, seed) in [(600usize, 2usize, 32usize, 5u64), (800, 2, 64, 6)] {
            let g = workload(n, a, cap, seed);
            let delta = g.max_degree() as u64;
            let res = theorem53(&g, a, 2.5, SubroutineConfig::default()).unwrap();
            assert!(res.coloring.is_proper(&g));
            let root_delta = integer_root_ceil(delta, 2);
            let root_qa = integer_root_ceil((2.5 * a as f64).ceil() as u64, 2);
            let bound = (root_delta + 5 * (root_qa + 1)).pow(2);
            assert!(
                res.coloring.palette() <= bound,
                "palette {} vs (√Δ + 5(√(qa)+1))² = {bound} (Δ = {delta})",
                res.coloring.palette()
            );
        }
    }

    #[test]
    fn theorem54_color_budget() {
        let g = workload(500, 2, 24, 6);
        let delta = g.max_degree() as u64;
        for x in 1..=3usize {
            let res = theorem54(&g, 2, 2.5, x, SubroutineConfig::default()).unwrap();
            assert!(res.coloring.is_proper(&g), "x = {x} improper");
            // slack 2 for the final 5.2 stage
            let bound = 2 * crate::analysis::theorem54_palette(delta, 2, 2.5, x as u32);
            assert!(
                res.coloring.palette() <= bound,
                "x = {x}: palette {} > (Δ^(1/x)+â^(1/x)+3)^x·2 = {bound}",
                res.coloring.palette()
            );
        }
    }

    #[test]
    fn theorem54_at_x1_is_theorem52() {
        let cfg = SubroutineConfig::default();
        for g in [
            generators::forest_union(220, 2, 12, 0).unwrap(),
            generators::barabasi_albert(1_500, 2, 1).unwrap(),
            generators::path(50).unwrap(),
        ] {
            let t52 = theorem52(&g, 2, 2.5, cfg).unwrap();
            let t54 = theorem54(&g, 2, 2.5, 1, cfg).unwrap();
            assert_eq!(t54.coloring.as_slice(), t52.coloring.as_slice());
            assert_eq!(t54.coloring.palette(), t52.coloring.palette());
            assert_eq!(t54.stats, t52.stats);
        }
    }

    #[test]
    fn corollary55_delta_one_plus_o1() {
        let g = workload(600, 2, 48, 7);
        let delta = g.max_degree() as u64;
        let (res, params) = corollary55(&g, 2, SubroutineConfig::default()).unwrap();
        assert!(res.coloring.is_proper(&g));
        assert!(params.x >= 1);
        // Δ(1 + o(1)): allow factor 2 at this tiny scale.
        assert!(
            res.coloring.palette() <= 2 * delta + 60,
            "palette {} vs Δ {delta}",
            res.coloring.palette()
        );
    }

    #[test]
    fn all_theorems_on_grid_and_tree() {
        for g in [
            generators::grid(12, 12).unwrap(),
            generators::random_tree(150, 8).unwrap(),
        ] {
            let a = 2;
            assert!(theorem52(&g, a, 2.5, SubroutineConfig::default())
                .unwrap()
                .coloring
                .is_proper(&g));
            assert!(theorem53(&g, a, 2.5, SubroutineConfig::default())
                .unwrap()
                .coloring
                .is_proper(&g));
            assert!(theorem54(&g, a, 2.5, 2, SubroutineConfig::default())
                .unwrap()
                .coloring
                .is_proper(&g));
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = workload(50, 2, 4, 8);
        let cfg = SubroutineConfig::default();
        assert!(theorem52(&g, 2, 1.0, cfg).is_err());
        assert!(theorem54(&g, 2, 2.5, 0, cfg).is_err());
        // Non-finite and overflowing q are parameter errors on every
        // view entry point, not a wrapped or saturated â.
        for q in [f64::NAN, f64::INFINITY, 1e300] {
            for res in [
                theorem52(&g, 2, q, cfg),
                theorem53(&g, 2, q, cfg),
                theorem54(&g, 2, q, 2, cfg),
            ] {
                assert!(
                    matches!(res, Err(AlgoError::InvalidParameters { .. })),
                    "q = {q}"
                );
            }
        }
        assert!(theorem52(&g, 2, 1.0, cfg).is_err());
        assert!(theorem54(&g, 2, 2.5, 0, cfg).is_err());
    }

    #[test]
    fn empty_graphs_short_circuit() {
        let g = decolor_graph::GraphBuilder::new(3).build();
        assert!(theorem52(&g, 1, 2.5, SubroutineConfig::default())
            .unwrap()
            .coloring
            .is_empty());
        assert!(theorem53(&g, 1, 2.5, SubroutineConfig::default())
            .unwrap()
            .coloring
            .is_empty());
        assert!(theorem54(&g, 1, 2.5, 2, SubroutineConfig::default())
            .unwrap()
            .coloring
            .is_empty());
    }

    /// Theorem 5.2 as it ran before `CrossingStages`: the H-partition by
    /// per-level rescans, then per stage a fresh `in_a`, a filter over all
    /// edges, and one [`color_crossing_edges`] call with its own table.
    /// Test-only oracle for the bucketed, carried-table stage loop.
    fn theorem52_by_stage_rescans<R: GraphView + Sync, V: GraphView + Sync>(
        root: &R,
        view: &V,
        a: usize,
        q: f64,
    ) -> (Vec<Color>, u64, NetworkStats, usize) {
        let d = a_hat(q, a).unwrap();
        let delta = num::to_u64(view.max_degree());
        let hp = crate::h_partition::h_partition_by_broadcast(view, d).unwrap();
        let mut stats = hp.stats;
        let same: Vec<EdgeId> = (0..view.num_edges())
            .map(EdgeId::new)
            .filter(|&e| {
                let [u, v] = view.endpoints(e);
                hp.index[u.index()] == hp.index[v.index()]
            })
            .collect();
        let mut edge_colors: Vec<Option<Color>> = vec![None; view.num_edges()];
        let mut intra_palette = 1u64;
        if !same.is_empty() {
            let parent: Vec<EdgeId> = same.iter().map(|&e| view.to_parent_edge(e)).collect();
            let intra = EdgeSubgraphView::new(root, parent).unwrap();
            let params = StarPartitionParams {
                subroutine: SubroutineConfig::default(),
                ..StarPartitionParams::for_max_degree(num::to_u64(GraphView::max_degree(&intra)), 1)
            };
            let star = star_partition_edge_coloring_on(root, &intra, &params).unwrap();
            intra_palette = star.coloring.palette();
            for (local, &e) in same.iter().enumerate() {
                edge_colors[e.index()] = Some(star.coloring.color(EdgeId::new(local)));
            }
            stats = stats.then(star.stats);
        }
        let palette = intra_palette.max(delta + num::to_u64(d));
        let mut net = Network::new(view);
        let mut stages = 0;
        for i in (0..hp.num_sets - 1).rev() {
            let in_a: Vec<bool> = hp.index.iter().map(|&h| h == i).collect();
            let crossing: Vec<EdgeId> = (0..view.num_edges())
                .map(EdgeId::new)
                .filter(|&e| {
                    let [u, v] = view.endpoints(e);
                    let (hu, hv) = (hp.index[u.index()], hp.index[v.index()]);
                    hu.min(hv) == i && hu != hv
                })
                .collect();
            if crossing.is_empty() {
                continue;
            }
            stages += 1;
            color_crossing_edges(&mut net, &in_a, &mut edge_colors, &crossing, palette).unwrap();
        }
        let colors = edge_colors.into_iter().map(Option::unwrap).collect();
        (colors, palette, stats.then(net.stats()), stages)
    }

    #[test]
    fn carried_stages_match_the_per_stage_rescan_oracle() {
        let cfg = SubroutineConfig::default();
        for (a, q) in [(2usize, 2.5f64), (3, 3.0), (4, 2.5)] {
            for seed in 0..2u64 {
                let g = generators::barabasi_albert(1_500, a, seed).unwrap();
                let res = theorem52(&g, a, q, cfg).unwrap();
                let (colors, palette, stats, stages) = theorem52_by_stage_rescans(&g, &g, a, q);
                assert!(stages >= 2, "a = {a} seed {seed}: only {stages} stage(s)");
                assert_eq!(res.coloring.as_slice(), &colors[..], "a = {a} seed {seed}");
                assert_eq!(res.coloring.palette(), palette, "a = {a} seed {seed}");
                assert_eq!(res.stats, stats, "a = {a} seed {seed}");
            }
        }
        // A color class of the root, as Theorem 5.3 recurses on it.
        let g = generators::barabasi_albert(1_500, 4, 7).unwrap();
        let class: Vec<EdgeId> = g.edges().filter(|e| e.index() % 5 != 2).collect();
        let view = EdgeSubgraphView::new(&g, class).unwrap();
        let res = theorem52_on(&g, &view, 4, 2.5, cfg).unwrap();
        let (colors, palette, stats, stages) = theorem52_by_stage_rescans(&g, &view, 4, 2.5);
        assert!(stages >= 2, "view: only {stages} stage(s)");
        assert_eq!(res.coloring.as_slice(), &colors[..], "view");
        assert_eq!(res.coloring.palette(), palette, "view");
        assert_eq!(res.stats, stats, "view");
    }
}
