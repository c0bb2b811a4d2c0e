//! The paper's decompositions as first-class objects.
//!
//! * **Theorem 2.4**: a ((t·D)^x, S/tˣ + 2)-**clique-decomposition** — a
//!   vertex partition into ≤ (tD)^x parts whose induced subgraphs have
//!   maximal cliques of size ≤ S/tˣ + 2 — computed by x levels of clique
//!   connectors.
//! * **§4**: a (p, q)-**star-partition** — an edge partition into ≤ p
//!   classes whose stars have size ≤ q — computed by x levels of edge
//!   connectors.
//!
//! CD-Coloring and the star-partition edge coloring use these implicitly;
//! here they are exposed (and verified) as standalone results, matching
//! the paper's statements. Each level labels its classes with the shared
//! ⟨ϕ, ψ⟩ class product (`product::color_classes`) over the realized
//! child label counts; the entry points compact the labels by first
//! occurrence, so only the partition they induce is observable.

use decolor_graph::cliques::CliqueCover;
use decolor_graph::coloring::{Color, VertexColoring};
use decolor_graph::subgraph::{
    EdgeSubgraphView, GraphView, InducedSubgraph, SpanningEdgeSubgraph, VertexSubsetView,
};
use decolor_graph::{EdgeId, Graph, VertexId};
use decolor_runtime::{IdAssignment, Network, NetworkStats};
use rayon::prelude::*;

use crate::cd_coloring::restrict_seed;
use crate::connectors::clique::clique_connector_for;
use crate::connectors::edge::{edge_connector, edge_connector_graph_on};
use crate::delta_plus_one::{vertex_coloring_with_target, Seed, SubroutineConfig};
use crate::edge_space::edge_coloring_direct;
use crate::error::AlgoError;
use crate::linial;
use crate::product::{color_classes, Colored};
use decolor_graph::num;

/// Child outcome of a vertex-partition recursion.
type VertexChild = (InducedSubgraph, Vec<u64>, NetworkStats);
/// Child outcome of an edge-partition recursion.
type EdgeChild = (SpanningEdgeSubgraph, Vec<u64>, NetworkStats);

/// A ((t·D)^x, S/tˣ + 2)-clique-decomposition (Theorem 2.4).
#[derive(Clone, Debug)]
pub struct CliqueDecomposition {
    /// Part label per vertex (dense in `0..num_parts`).
    pub part: Vec<usize>,
    /// Number of nonempty parts (≤ (tD)^x).
    pub num_parts: usize,
    /// The analytic part-count bound `(t·D)^x`.
    pub parts_bound: u64,
    /// The analytic clique bound `S/tˣ + 2`.
    pub clique_bound: usize,
    /// Measured LOCAL statistics.
    pub stats: NetworkStats,
}

impl CliqueDecomposition {
    /// Verifies Theorem 2.4 against the graph: every part's maximal
    /// cliques (under the restricted cover) are ≤ `clique_bound`, and the
    /// part count is within `parts_bound`.
    ///
    /// # Errors
    ///
    /// [`AlgoError::InvariantViolated`] naming the violated bound.
    pub fn verify(&self, g: &Graph, cover: &CliqueCover) -> Result<(), AlgoError> {
        if num::to_u64(self.num_parts) > self.parts_bound {
            return Err(AlgoError::InvariantViolated {
                reason: format!(
                    "{} parts exceed (tD)^x = {}",
                    self.num_parts, self.parts_bound
                ),
            });
        }
        for p in 0..self.num_parts {
            let members: Vec<VertexId> =
                g.vertices().filter(|v| self.part[v.index()] == p).collect();
            if members.is_empty() {
                continue;
            }
            let sub = VertexSubsetView::new(g, members)?;
            let restricted = cover.restrict_to_subset(&sub);
            if restricted.max_clique_size() > self.clique_bound {
                return Err(AlgoError::InvariantViolated {
                    reason: format!(
                        "part {p} has clique size {} > S/tˣ + 2 = {}",
                        restricted.max_clique_size(),
                        self.clique_bound
                    ),
                });
            }
            if restricted.diversity() > cover.diversity() {
                return Err(AlgoError::InvariantViolated {
                    reason: "Lemma 2.3(ii) violated: diversity increased".into(),
                });
            }
        }
        Ok(())
    }
}

/// Computes the Theorem 2.4 clique-decomposition with parameters `t`, `x`.
///
/// ```rust
/// use decolor_core::decomposition::clique_decomposition;
/// use decolor_graph::{generators, line_graph::LineGraph};
/// use decolor_runtime::IdAssignment;
///
/// # fn main() -> Result<(), decolor_core::AlgoError> {
/// let g = generators::random_regular(32, 8, 1).unwrap();
/// let lg = LineGraph::new(&g);
/// let ids = IdAssignment::sequential(lg.graph.num_vertices());
/// let dec = clique_decomposition(&lg.graph, &lg.cover, 3, 1, &ids)?;
/// dec.verify(&lg.graph, &lg.cover)?; // Theorem 2.4 bounds hold
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] for `t < 2` / `x < 1`; propagates
/// subroutine errors.
pub fn clique_decomposition(
    g: &Graph,
    cover: &CliqueCover,
    t: usize,
    x: usize,
    ids: &IdAssignment,
) -> Result<CliqueDecomposition, AlgoError> {
    if t < 2 || x < 1 {
        return Err(AlgoError::InvalidParameters {
            reason: "need t ≥ 2, x ≥ 1".into(),
        });
    }
    let diversity = cover.diversity().max(1);
    let s = cover.max_clique_size();
    let mut net = Network::new(g);
    let base = linial::linial_coloring(&mut net, ids)?.coloring;
    let base_stats = net.stats();

    let full = VertexSubsetView::new(g, g.vertices().collect())?;
    let (labels, _, stats) = decompose_level_on(g, cover, &base, &full, diversity, t, x)?;
    // Compact the labels.
    let mut map = std::collections::BTreeMap::new();
    let mut part = vec![0usize; g.num_vertices()];
    for (v, &l) in labels.iter().enumerate() {
        let next = map.len();
        part[v] = *map.entry(l).or_insert(next);
    }
    let x32 = num::to_u32(x)?;
    let gamma = num::to_u64(diversity * t);
    let clique_bound = s / t.pow(x32).max(1) + 2;
    Ok(CliqueDecomposition {
        part,
        num_parts: map.len(),
        parts_bound: gamma.saturating_pow(x32),
        clique_bound,
        stats: base_stats.then(stats),
    })
}

/// The **materializing reference path** of [`clique_decomposition`]:
/// identical decisions, but each color class is copied into a fresh
/// [`InducedSubgraph`] per level. Kept for the view-equivalence tests.
///
/// # Errors
///
/// As [`clique_decomposition`].
pub fn clique_decomposition_reference(
    g: &Graph,
    cover: &CliqueCover,
    t: usize,
    x: usize,
    ids: &IdAssignment,
) -> Result<CliqueDecomposition, AlgoError> {
    if t < 2 || x < 1 {
        return Err(AlgoError::InvalidParameters {
            reason: "need t ≥ 2, x ≥ 1".into(),
        });
    }
    let diversity = cover.diversity().max(1);
    let s = cover.max_clique_size();
    let mut net = Network::new(g);
    let base = linial::linial_coloring(&mut net, ids)?.coloring;
    let base_stats = net.stats();

    let (labels, stats) = decompose_level(g, cover, &base, diversity, t, x)?;
    // Compact the labels.
    let mut map = std::collections::BTreeMap::new();
    let mut part = vec![0usize; g.num_vertices()];
    for (v, &l) in labels.iter().enumerate() {
        let next = map.len();
        part[v] = *map.entry(l).or_insert(next);
    }
    let x32 = num::to_u32(x)?;
    let gamma = num::to_u64(diversity * t);
    let clique_bound = s / t.pow(x32).max(1) + 2;
    Ok(CliqueDecomposition {
        part,
        num_parts: map.len(),
        parts_bound: gamma.saturating_pow(x32),
        clique_bound,
        stats: base_stats.then(stats),
    })
}

/// One level of Theorem 2.4 over a borrowed [`VertexSubsetView`] of the
/// *root* graph: the clique connector is built from the restricted cover
/// alone (its edges are derived from clique groups, never from the
/// subgraph CSR), so no induced subgraph is materialized anywhere in the
/// recursion. Decisions are bit-identical to [`decompose_level`].
fn decompose_level_on(
    root: &Graph,
    cover: &CliqueCover,
    base: &VertexColoring,
    view: &VertexSubsetView<'_>,
    diversity: usize,
    t: usize,
    x: usize,
) -> Result<Colored, AlgoError> {
    let k = view.num_vertices();
    if x == 0 || !view.has_induced_edge() {
        return Ok((vec![0; k], 1, NetworkStats::default()));
    }
    // Restriction composes: filtering the root cover by the current
    // subset equals the reference path's level-by-level restriction.
    let local_cover = cover.restrict_to_subset(view);
    let conn = clique_connector_for(k, &local_cover, t)?;
    let gamma = num::to_u64(diversity) * (num::to_u64(t) - 1) + 1;
    let sub_base = restrict_seed(base, view.parent_vertices())?;
    let (phi, phi_stats) = vertex_coloring_with_target(
        &conn.graph,
        Seed::Coloring(&sub_base),
        gamma,
        SubroutineConfig::default(),
    )?;
    let stats = NetworkStats {
        rounds: 1,
        ..Default::default()
    }
    .then(phi_stats);
    let (labels, _, children) = color_classes(k, &phi.classes(), |class| {
        let parents: Vec<VertexId> = class.iter().map(|&lv| view.to_parent_vertex(lv)).collect();
        let child = VertexSubsetView::new(root, parents)?;
        decompose_level_on(root, cover, base, &child, diversity, t, x - 1)
    })?;
    Ok(label_count(labels, stats.then(children)))
}

/// One level of the **materializing reference path** for Theorem 2.4.
fn decompose_level(
    g: &Graph,
    cover: &CliqueCover,
    base: &VertexColoring,
    diversity: usize,
    t: usize,
    x: usize,
) -> Result<(Vec<u64>, NetworkStats), AlgoError> {
    let n = g.num_vertices();
    if g.num_edges() == 0 || x == 0 {
        return Ok((vec![0; n], NetworkStats::default()));
    }
    let conn = crate::connectors::clique::clique_connector(g, cover, t)?;
    let gamma = num::to_u64(diversity) * (num::to_u64(t) - 1) + 1;
    let (phi, phi_stats) = vertex_coloring_with_target(
        &conn.graph,
        Seed::Coloring(base),
        gamma,
        SubroutineConfig::default(),
    )?;
    let mut stats = NetworkStats {
        rounds: 1,
        ..Default::default()
    }
    .then(phi_stats);
    let classes = phi.classes();
    let results: Vec<Result<Option<VertexChild>, AlgoError>> = classes
        .par_iter()
        .map(|class| {
            if class.is_empty() {
                return Ok(None);
            }
            let sub = InducedSubgraph::new(g, class);
            let sub_cover = cover.restrict(&sub);
            let sub_base_colors: Vec<u32> = sub
                .parent_vertices()
                .iter()
                .map(|&v| base.color(v))
                .collect();
            let sub_base = VertexColoring::new(sub_base_colors, base.palette()).map_err(|e| {
                AlgoError::InvariantViolated {
                    reason: e.to_string(),
                }
            })?;
            let (labels, s) =
                decompose_level(sub.graph(), &sub_cover, &sub_base, diversity, t, x - 1)?;
            Ok(Some((sub, labels, s)))
        })
        .collect();
    let mut out = vec![0u64; n];
    let mut children = Vec::new();
    for r in results {
        if let Some(c) = r? {
            children.push(c);
        }
    }
    let width = (num::to_u64(diversity) * num::to_u64(t)).saturating_pow(num::to_u32(x)? - 1);
    for (sub, labels, _) in &children {
        for (local, &parent) in sub.parent_vertices().iter().enumerate() {
            out[parent.index()] = u64::from(phi.color(parent)) * width + labels[local];
        }
    }
    stats = stats.then(NetworkStats::in_parallel(
        children.iter().map(|&(_, _, s)| s),
    ));
    Ok((out, stats))
}

/// A (p, q)-star-partition (§4): an edge partition into ≤ `p` classes with
/// stars of size ≤ `q`.
#[derive(Clone, Debug)]
pub struct StarPartition {
    /// Class label per edge (dense in `0..num_classes`).
    pub class: Vec<usize>,
    /// Number of nonempty classes.
    pub num_classes: usize,
    /// Analytic class bound `(2t − 1)^x`.
    pub classes_bound: u64,
    /// Analytic star bound `⌈Δ/tˣ⌉` (+ rounding slack 1 per level).
    pub star_bound: usize,
    /// Measured LOCAL statistics.
    pub stats: NetworkStats,
}

impl StarPartition {
    /// Verifies the (p, q)-star-partition property against `g`.
    ///
    /// # Errors
    ///
    /// [`AlgoError::InvariantViolated`] naming the violated bound.
    pub fn verify(&self, g: &Graph) -> Result<(), AlgoError> {
        if num::to_u64(self.num_classes) > self.classes_bound {
            return Err(AlgoError::InvariantViolated {
                reason: format!(
                    "{} classes exceed (2t−1)^x = {}",
                    self.num_classes, self.classes_bound
                ),
            });
        }
        for c in 0..self.num_classes {
            let edges: Vec<EdgeId> = g.edges().filter(|e| self.class[e.index()] == c).collect();
            let sub = EdgeSubgraphView::new(g, edges)?;
            if sub.max_degree() > self.star_bound {
                return Err(AlgoError::InvariantViolated {
                    reason: format!(
                        "class {c} has star size {} > bound {}",
                        sub.max_degree(),
                        self.star_bound
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Computes the §4 star-partition with parameters `t`, `x` (x connector
/// levels, no final coloring).
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] for `t < 2` / `x < 1`.
pub fn star_partition(g: &Graph, t: usize, x: usize) -> Result<StarPartition, AlgoError> {
    if t < 2 || x < 1 {
        return Err(AlgoError::InvalidParameters {
            reason: "need t ≥ 2, x ≥ 1".into(),
        });
    }
    if g.num_edges() > 0 && g.has_parallel_edges() {
        return Err(AlgoError::InvalidParameters {
            reason: "edge connector requires a simple source graph".into(),
        });
    }
    let (labels, _, stats) = star_level_on(g, g, t, x)?;
    let labels = labels.into_iter().map(u64::from).collect();
    finish_star_partition(g, t, x, labels, stats)
}

/// The **materializing reference path** of [`star_partition`]: identical
/// decisions via per-class [`SpanningEdgeSubgraph`] copies. Kept for the
/// view-equivalence tests.
///
/// # Errors
///
/// As [`star_partition`].
pub fn star_partition_reference(g: &Graph, t: usize, x: usize) -> Result<StarPartition, AlgoError> {
    if t < 2 || x < 1 {
        return Err(AlgoError::InvalidParameters {
            reason: "need t ≥ 2, x ≥ 1".into(),
        });
    }
    let (labels, stats) = star_level(g, t, x)?;
    finish_star_partition(g, t, x, labels, stats)
}

fn finish_star_partition(
    g: &Graph,
    t: usize,
    x: usize,
    labels: Vec<u64>,
    stats: NetworkStats,
) -> Result<StarPartition, AlgoError> {
    let mut map = std::collections::BTreeMap::new();
    let mut class = vec![0usize; g.num_edges()];
    for (e, &l) in labels.iter().enumerate() {
        let next = map.len();
        class[e] = *map.entry(l).or_insert(next);
    }
    // Star bound: each level divides by t with a ceiling.
    let mut star_bound = g.max_degree();
    for _ in 0..x {
        star_bound = star_bound.div_ceil(t);
    }
    Ok(StarPartition {
        class,
        num_classes: map.len(),
        classes_bound: (2 * num::to_u64(t) - 1).saturating_pow(num::to_u32(x)?),
        star_bound,
        stats,
    })
}

/// One §4 star-partition level over a borrowed [`GraphView`] — the hot
/// path; decisions are bit-identical to [`star_level`].
fn star_level_on<V: GraphView + Sync>(
    root: &Graph,
    view: &V,
    t: usize,
    x: usize,
) -> Result<Colored, AlgoError> {
    if view.num_edges() == 0 || x == 0 {
        return Ok((vec![0; view.num_edges()], 1, NetworkStats::default()));
    }
    let conn = edge_connector_graph_on(view, t)?;
    let target = 2 * num::to_u64(t) - 1;
    let (phi, phi_stats) = edge_coloring_direct(&conn, target, SubroutineConfig::default())?;
    let stats = NetworkStats {
        rounds: 1,
        ..Default::default()
    }
    .then(phi_stats);
    let (labels, _, children) = color_classes(view.num_edges(), &phi.classes(), |class| {
        let child_edges: Vec<EdgeId> = class.iter().map(|&e| view.to_parent_edge(e)).collect();
        let child = EdgeSubgraphView::new(root, child_edges)?;
        star_level_on(root, &child, t, x - 1)
    })?;
    Ok(label_count(labels, stats.then(children)))
}

/// A level's labels with the realized label count (largest label + 1) as
/// its palette, so the next level up packs its ⟨ϕ, label⟩ pairs no wider
/// than the labels actually used. Only the partition the labels induce
/// matters: the entry points compact them by first occurrence.
fn label_count(labels: Vec<Color>, stats: NetworkStats) -> Colored {
    let count = labels.iter().max().map_or(1, |&l| u64::from(l) + 1);
    (labels, count, stats)
}

/// One §4 star-partition level of the **materializing reference path**.
fn star_level(g: &Graph, t: usize, x: usize) -> Result<(Vec<u64>, NetworkStats), AlgoError> {
    if g.num_edges() == 0 || x == 0 {
        return Ok((vec![0; g.num_edges()], NetworkStats::default()));
    }
    let conn = edge_connector(g, t)?;
    let target = 2 * num::to_u64(t) - 1;
    let (phi, phi_stats) = edge_coloring_direct(&conn.graph, target, SubroutineConfig::default())?;
    let mut stats = NetworkStats {
        rounds: 1,
        ..Default::default()
    }
    .then(phi_stats);
    let classes = phi.classes();
    let results: Vec<Result<Option<EdgeChild>, AlgoError>> = classes
        .par_iter()
        .map(|class| {
            if class.is_empty() {
                return Ok(None);
            }
            let sub = SpanningEdgeSubgraph::new(g, class);
            let (labels, s) = star_level(sub.graph(), t, x - 1)?;
            Ok(Some((sub, labels, s)))
        })
        .collect();
    let mut out = vec![0u64; g.num_edges()];
    let mut children = Vec::new();
    for r in results {
        if let Some(c) = r? {
            children.push(c);
        }
    }
    let width = (2 * num::to_u64(t) - 1).saturating_pow(num::to_u32(x)? - 1);
    for (sub, labels, _) in &children {
        for (local, &l) in labels.iter().enumerate() {
            let parent = sub.to_parent_edge(EdgeId::new(local));
            out[parent.index()] = u64::from(phi.color(parent)) * width + l;
        }
    }
    stats = stats.then(NetworkStats::in_parallel(
        children.iter().map(|&(_, _, s)| s),
    ));
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::generators;
    use decolor_graph::line_graph::LineGraph;

    #[test]
    fn theorem_2_4_on_line_graphs() {
        let g = generators::random_regular(96, 16, 1).unwrap();
        let lg = LineGraph::new(&g);
        let ids = IdAssignment::sequential(lg.graph.num_vertices());
        for (t, x) in [(4usize, 1usize), (2, 2), (2, 3)] {
            let dec = clique_decomposition(&lg.graph, &lg.cover, t, x, &ids).unwrap();
            dec.verify(&lg.graph, &lg.cover).unwrap();
            assert!(dec.num_parts >= 1);
        }
    }

    #[test]
    fn star_partition_bounds_hold() {
        let g = generators::random_regular(128, 16, 2).unwrap();
        // x = 24: (2t − 1)^x = 3^24 labels would not fit a u32, but the
        // levels pack only the label counts they realize.
        for (t, x) in [(4usize, 1usize), (2, 2), (2, 3), (2, 24)] {
            let sp = star_partition(&g, t, x).unwrap();
            sp.verify(&g).unwrap();
        }
    }

    #[test]
    fn decomposition_part_count_grows_with_x() {
        let g = generators::random_regular(64, 9, 3).unwrap();
        let lg = LineGraph::new(&g);
        let ids = IdAssignment::sequential(lg.graph.num_vertices());
        let d1 = clique_decomposition(&lg.graph, &lg.cover, 3, 1, &ids).unwrap();
        let d2 = clique_decomposition(&lg.graph, &lg.cover, 3, 2, &ids).unwrap();
        assert!(d2.clique_bound <= d1.clique_bound);
        assert!(d2.parts_bound >= d1.parts_bound);
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = generators::path(4).unwrap();
        let lg = LineGraph::new(&g);
        let ids = IdAssignment::sequential(lg.graph.num_vertices());
        assert!(clique_decomposition(&lg.graph, &lg.cover, 1, 1, &ids).is_err());
        assert!(star_partition(&g, 2, 0).is_err());
    }

    #[test]
    fn edgeless_graph_single_part() {
        let g = decolor_graph::GraphBuilder::new(5).build();
        let cover = decolor_graph::cliques::cover_from_all_maximal_cliques(&g).unwrap();
        let ids = IdAssignment::sequential(5);
        let dec = clique_decomposition(&g, &cover, 2, 2, &ids).unwrap();
        assert_eq!(dec.num_parts, 1);
        dec.verify(&g, &cover).unwrap();
    }
}
