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
//! CD-Coloring and the star-partition edge coloring build these on the
//! way; here they are exposed (and verified) as standalone results,
//! matching the paper's statements. There is one recursion per
//! structure: each entry point runs the coloring algorithm's own levels
//! ([`crate::cd_coloring`], [`crate::star_partition`]) with the labelling
//! leaf (`product::Label`) in place of the final coloring, then compacts
//! the labels by first occurrence, so only the partition they induce is
//! observable.

use std::collections::BTreeMap;

use decolor_graph::cliques::CliqueCover;
use decolor_graph::coloring::Color;
use decolor_graph::{Graph, VertexId};
use decolor_runtime::{IdAssignment, NetworkStats};

use crate::cd_coloring::{run_levels, CdParams};
use crate::error::AlgoError;
use crate::product::Label;
use crate::star_partition::{run_stages, StarPartitionParams};
use decolor_graph::num;

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
        // One pass over the cliques: count each clique's members per part
        // (its clique in the part's restricted cover), then fold the counts
        // into the part maxima, zeroing them for the next clique. Lemma
        // 2.3(ii) needs no check: a member keeps every clique through it,
        // so a part's diversity never exceeds the cover's.
        let part_of = |v: &VertexId| (v.index() < g.num_vertices()).then(|| self.part[v.index()]);
        let mut largest = vec![0usize; self.num_parts];
        let mut count = vec![0usize; self.num_parts];
        for clique in cover.cliques() {
            for p in clique.iter().filter_map(part_of) {
                if let Some(k) = count.get_mut(p) {
                    *k += 1;
                }
            }
            for p in clique.iter().filter_map(part_of) {
                if let Some(k) = count.get_mut(p) {
                    largest[p] = largest[p].max(std::mem::take(k));
                }
            }
        }
        match largest.iter().position(|&size| size > self.clique_bound) {
            Some(p) => Err(AlgoError::InvariantViolated {
                reason: format!(
                    "part {p} has clique size {} > S/tˣ + 2 = {}",
                    largest[p], self.clique_bound
                ),
            }),
            None => Ok(()),
        }
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
/// [`AlgoError::InvalidParameters`] for `t < 2`, `x < 1` or an id count
/// that is not the vertex count; propagates subroutine errors.
pub fn clique_decomposition(
    g: &Graph,
    cover: &CliqueCover,
    t: usize,
    x: usize,
    ids: &IdAssignment,
) -> Result<CliqueDecomposition, AlgoError> {
    let params = CdParams {
        t,
        x,
        ..CdParams::default()
    };
    let (labels, _, stats) = run_levels::<_, Label>(g, cover, &params, ids)?;
    let (part, num_parts) = compact(&labels);
    let x32 = num::to_u32(x)?;
    let gamma = num::to_u64(cover.diversity().max(1) * t);
    Ok(CliqueDecomposition {
        part,
        num_parts,
        parts_bound: gamma.saturating_pow(x32),
        clique_bound: cover.max_clique_size() / t.saturating_pow(x32) + 2,
        stats,
    })
}

/// Renumbers `labels` densely by first occurrence; returns the renumbered
/// labels and their count.
fn compact(labels: &[Color]) -> (Vec<usize>, usize) {
    let mut first = BTreeMap::new();
    let dense = labels
        .iter()
        .map(|&l| {
            let next = first.len();
            *first.entry(l).or_insert(next)
        })
        .collect();
    (dense, first.len())
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
        // One pass over the incidence lists: count each vertex's degree
        // per class, then fold the counts into the class maxima, zeroing
        // them for the next vertex.
        let mut star = vec![0usize; self.num_classes];
        let mut count = vec![0usize; self.num_classes];
        for v in g.vertices() {
            for e in g.incident_edges(v) {
                if let Some(k) = count.get_mut(self.class[e.index()]) {
                    *k += 1;
                }
            }
            for e in g.incident_edges(v) {
                let c = self.class[e.index()];
                if let Some(k) = count.get_mut(c) {
                    star[c] = star[c].max(std::mem::take(k));
                }
            }
        }
        match star.iter().position(|&size| size > self.star_bound) {
            Some(c) => Err(AlgoError::InvariantViolated {
                reason: format!(
                    "class {c} has star size {} > bound {}",
                    star[c], self.star_bound
                ),
            }),
            None => Ok(()),
        }
    }
}

/// Computes the §4 star-partition with parameters `t`, `x` (x connector
/// levels, no final coloring).
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] for `t < 2`, `x < 1` or a graph with
/// parallel edges.
pub fn star_partition(g: &Graph, t: usize, x: usize) -> Result<StarPartition, AlgoError> {
    let params = StarPartitionParams {
        t,
        x,
        ..StarPartitionParams::default()
    };
    let (labels, _, stats) = run_stages::<_, Label>(g, &params, None)?;
    let (class, num_classes) = compact(&labels);
    // Star bound: each level divides by t with a ceiling.
    let mut star_bound = g.max_degree();
    for _ in 0..x {
        star_bound = star_bound.div_ceil(t);
    }
    Ok(StarPartition {
        class,
        num_classes,
        classes_bound: (2 * num::to_u64(t) - 1).saturating_pow(num::to_u32(x)?),
        star_bound,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::generators;
    use decolor_graph::line_graph::LineGraph;
    use decolor_graph::EdgeId;

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
    fn star_partition_verify_names_the_first_oversized_class() {
        use decolor_graph::subgraph::SpanningEdgeSubgraph;
        let g = generators::random_regular(128, 16, 2).unwrap();
        let mut sp = star_partition(&g, 4, 1).unwrap();
        // Oracle: each class's star size off its materialized subgraph.
        let sizes: Vec<usize> = (0..sp.num_classes)
            .map(|c| {
                let edges: Vec<EdgeId> = g.edges().filter(|e| sp.class[e.index()] == c).collect();
                SpanningEdgeSubgraph::new(&g, &edges).graph().max_degree()
            })
            .collect();
        let max = *sizes.iter().max().unwrap();
        assert!(max <= sp.star_bound);
        sp.star_bound = max - 1;
        let first = sizes.iter().position(|&s| s == max).unwrap();
        let err = sp.verify(&g).unwrap_err().to_string();
        let want = format!("class {first} has star size {max} > bound {}", max - 1);
        assert!(err.contains(&want), "{err}");
    }

    #[test]
    fn clique_decomposition_verify_names_the_first_oversized_part() {
        use decolor_graph::subgraph::InducedSubgraph;
        // Skewed degrees, so the parts' clique sizes differ.
        let g = generators::gnm(60, 240, 3).unwrap();
        let lg = LineGraph::new(&g);
        let ids = IdAssignment::sequential(lg.graph.num_vertices());
        let mut dec = clique_decomposition(&lg.graph, &lg.cover, 3, 1, &ids).unwrap();
        // Oracle: each part's clique size off its materialized induced
        // subgraph and restricted cover.
        let sizes: Vec<usize> = (0..dec.num_parts)
            .map(|p| {
                let members: Vec<VertexId> = lg
                    .graph
                    .vertices()
                    .filter(|v| dec.part[v.index()] == p)
                    .collect();
                let sub = InducedSubgraph::new(&lg.graph, &members);
                lg.cover.restrict(&sub).max_clique_size()
            })
            .collect();
        let max = *sizes.iter().max().unwrap();
        assert!(max <= dec.clique_bound);
        assert!(
            sizes.iter().any(|&s| s < max),
            "parts of equal size: {sizes:?}"
        );
        for bound in 0..max {
            dec.clique_bound = bound;
            let first = sizes.iter().position(|&s| s > bound).unwrap();
            let err = dec.verify(&lg.graph, &lg.cover).unwrap_err().to_string();
            let want = format!(
                "part {first} has clique size {} > S/tˣ + 2 = {bound}",
                sizes[first]
            );
            assert!(err.contains(&want), "{err}");
        }
        dec.clique_bound = max;
        dec.verify(&lg.graph, &lg.cover).unwrap();
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

    /// The labelling leaf and the coloring leaf run one recursion: at
    /// x = 1 on graphs with Δ > t, the structure's parts are exactly the
    /// ⌊color / inner⌋ classes of the untrimmed coloring run.
    #[test]
    fn structures_are_the_coloring_runs_outer_classes() {
        use crate::cd_coloring::{cd_coloring, CdParams};
        use crate::star_partition::{star_partition_edge_coloring, StarPartitionParams};
        let outer = |colors: &[Color], inner: u64| {
            let inner = Color::try_from(inner).unwrap();
            compact(&colors.iter().map(|&c| c / inner).collect::<Vec<_>>()).0
        };
        for (seed, t) in [(1u64, 2usize), (2, 3), (3, 4)] {
            let g = generators::gnm(80, 320, seed).unwrap();
            assert!(g.max_degree() > t);
            let sp = star_partition(&g, t, 1).unwrap();
            let params = StarPartitionParams {
                t,
                trim: false,
                ..StarPartitionParams::default() // x = 1
            };
            let star = star_partition_edge_coloring(&g, &params).unwrap();
            let inner = star.coloring.palette() / (2 * num::to_u64(t) - 1);
            assert_eq!(outer(star.coloring.as_slice(), inner), sp.class);

            let lg = LineGraph::new(&g);
            let ids = IdAssignment::sequential(lg.graph.num_vertices());
            let dec = clique_decomposition(&lg.graph, &lg.cover, t, 1, &ids).unwrap();
            let params = CdParams {
                t,
                ..CdParams::default() // x = 1, no trim
            };
            let cd = cd_coloring(&lg.graph, &lg.cover, &params, &ids).unwrap();
            let gamma = num::to_u64(lg.cover.diversity()) * (num::to_u64(t) - 1) + 1;
            let inner = cd.palette_bound / gamma;
            assert_eq!(outer(cd.coloring.as_slice(), inner), dec.part);
        }
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
