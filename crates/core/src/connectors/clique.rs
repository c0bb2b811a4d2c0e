//! Clique connectors (§2).
//!
//! Given a graph `G` with a consistent clique identification `Q` and a
//! parameter `t > 1`, each clique's master partitions the clique's vertex
//! set into groups of size ≤ t (deterministically, in ascending vertex
//! order — any fixed rule works and each clique has diameter 1, so this is
//! O(1) rounds). The connector `G′ = (V, E′)` keeps exactly the edges
//! joining two vertices of the same group of the same clique.
//!
//! The construction is flat: the candidate pairs of every group are
//! listed in clique order, a pair shared by two cliques keeps only its
//! first occurrence (a counting sort by lower endpoint plus a per-vertex
//! stamp, O(n + pairs)), and the survivors become the edges in that order.
//! The groups themselves are not stored: clique `q`'s groups are
//! `sorted(cover.clique(q)).chunks(t)`.
//!
//! **Lemma 2.1**: Δ(G′) ≤ D·(t − 1) — verified by
//! [`CliqueConnector::verify_degree_bound`] and the test suite.

use decolor_graph::cliques::CliqueCover;
use decolor_graph::subgraph::VertexSubsetView;
use decolor_graph::{Graph, GraphBuilder, VertexId};

use crate::error::AlgoError;

/// A clique connector: the graph `G′` and the group size that produced it.
#[derive(Clone, Debug)]
pub struct CliqueConnector {
    /// The connector graph `G′` (same vertex set as the source).
    pub graph: Graph,
    /// The group-size parameter.
    pub t: usize,
}

/// Builds the clique connector of `g` under `cover` with parameter `t`.
///
/// This is a purely local construction: each clique master sees the whole
/// clique (diameter 1), so the paper charges O(1) rounds; callers charge
/// the round via `Network::charge_local_rounds`.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `t < 2` or the cover's shape does
/// not match `g`.
pub fn clique_connector(
    g: &Graph,
    cover: &CliqueCover,
    t: usize,
) -> Result<CliqueConnector, AlgoError> {
    clique_connector_on(&VertexSubsetView::new(g, g.vertices().collect())?, cover, t)
}

/// [`clique_connector`] over a borrowed [`VertexSubsetView`], the entry
/// the CD-Coloring levels use: the edges come from the clique groups
/// alone (each clique has diameter 1), so no induced subgraph is
/// materialized and only the view's vertex count is read. `local_cover`
/// must be the root cover restricted to the view
/// ([`CliqueCover::restrict_to_subset`]); restriction composes
/// (`restriction_composes` in decolor-graph's proptest_graph suite), so
/// the result equals [`clique_connector`] on the induced subgraph.
///
/// # Errors
///
/// As [`clique_connector`].
pub fn clique_connector_on<P: decolor_graph::subgraph::GraphView>(
    view: &VertexSubsetView<'_, P>,
    local_cover: &CliqueCover,
    t: usize,
) -> Result<CliqueConnector, AlgoError> {
    if t < 2 {
        return Err(AlgoError::InvalidParameters {
            reason: format!("connector parameter t = {t} must be at least 2"),
        });
    }
    // Deterministic split in ascending vertex order ("the master is
    // responsible for the computation in its clique").
    let mut pairs: Vec<[VertexId; 2]> = Vec::new();
    let mut members: Vec<VertexId> = Vec::new();
    for clique in local_cover.cliques() {
        members.clear();
        members.extend_from_slice(clique);
        members.sort_unstable();
        for chunk in members.chunks(t) {
            for (i, &u) in chunk.iter().enumerate() {
                pairs.extend(chunk[i + 1..].iter().map(|&v| [u, v]));
            }
        }
    }
    // The same pair may share several groups across cliques; E′ is a set.
    // Sized for both vertex spaces, so a member beyond the view's vertex
    // count reaches the builder's range error.
    let n = view.num_vertices();
    let keep = first_occurrences(n.max(local_cover.num_vertices()), &pairs);
    let mut b = GraphBuilder::new_multi(n).with_edge_capacity(pairs.len());
    for ([u, v], keep) in pairs.into_iter().zip(keep) {
        if keep {
            b.add_edge(u.index(), v.index())?;
        }
    }
    Ok(CliqueConnector {
        graph: b.build(),
        t,
    })
}

/// Marks the first occurrence of each `[lo, hi]` pair (`lo < hi`, both
/// below `n`) in list order. A stable counting sort buckets the pairs by
/// `lo`; inside a bucket, list order is kept, and a stamp per `hi`
/// (`stamp[hi] = lo + 1`) flags every later copy. O(n + pairs), no tree.
fn first_occurrences(n: usize, pairs: &[[VertexId; 2]]) -> Vec<bool> {
    let mut start = vec![0usize; n + 1];
    for [lo, _] in pairs {
        start[lo.index() + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut by_lo = vec![0usize; pairs.len()];
    for (i, [lo, _]) in pairs.iter().enumerate() {
        by_lo[start[lo.index()]] = i;
        start[lo.index()] += 1;
    }
    // Buckets are contiguous and keep list order, so the first copy of a
    // pair is the first one the sweep meets; other buckets' stamps differ.
    let mut stamp = vec![0usize; n];
    let mut keep = vec![false; pairs.len()];
    for &i in &by_lo {
        let [lo, hi] = pairs[i];
        let mark = &mut stamp[hi.index()];
        if *mark != lo.index() + 1 {
            *mark = lo.index() + 1;
            keep[i] = true;
        }
    }
    keep
}

impl CliqueConnector {
    /// Checks **Lemma 2.1**: Δ(G′) ≤ D·(t − 1).
    ///
    /// # Errors
    ///
    /// [`AlgoError::InvariantViolated`] naming the violating vertex.
    pub fn verify_degree_bound(&self, diversity: usize) -> Result<(), AlgoError> {
        let bound = diversity * (self.t - 1);
        for v in self.graph.vertices() {
            if self.graph.degree(v) > bound {
                return Err(AlgoError::InvariantViolated {
                    reason: format!(
                        "connector degree {} of {v} exceeds D(t−1) = {bound}",
                        self.graph.degree(v)
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::cliques::cover_from_all_maximal_cliques;
    use decolor_graph::line_graph::LineGraph;
    use decolor_graph::{builder_from_edges, generators};

    fn ids(raw: &[usize]) -> Vec<VertexId> {
        raw.iter().map(|&v| VertexId::new(v)).collect()
    }

    /// Clique `q`'s groups, as the master forms them.
    fn groups(cover: &CliqueCover, q: usize, t: usize) -> Vec<Vec<VertexId>> {
        let mut members = cover.clique(q).to_vec();
        members.sort_unstable();
        members.chunks(t).map(<[VertexId]>::to_vec).collect()
    }

    /// The tree-based construction the flat dedup replaced: every group
    /// pair through a simple builder, duplicates dropped on insertion.
    fn btree_oracle(n: usize, cover: &CliqueCover, t: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for q in 0..cover.num_cliques() {
            for chunk in groups(cover, q, t) {
                for (i, &u) in chunk.iter().enumerate() {
                    for &v in &chunk[i + 1..] {
                        let _ = b.add_edge_dedup(u.index(), v.index()).unwrap();
                    }
                }
            }
        }
        b.build()
    }

    /// Group pairs before the dedup (with repeats across cliques).
    fn candidate_pairs(cover: &CliqueCover, t: usize) -> usize {
        (0..cover.num_cliques())
            .flat_map(|q| groups(cover, q, t))
            .map(|g| g.len() * (g.len() - 1) / 2)
            .sum()
    }

    fn assert_matches_oracle(g: &Graph, cover: &CliqueCover, t: usize) {
        let conn = clique_connector(g, cover, t).unwrap();
        let oracle = btree_oracle(g.num_vertices(), cover, t);
        assert!(
            conn.graph.edge_list().eq(oracle.edge_list()),
            "edge ids, endpoints or order differ at t = {t}"
        );
        assert_eq!(conn.graph, oracle);
    }

    #[test]
    fn dedup_matches_the_btree_oracle_on_shared_pairs() {
        let mut shared = 0;
        for seed in 0..12u64 {
            let g = generators::gnm(30, 150, seed).unwrap();
            let cover = cover_from_all_maximal_cliques(&g).unwrap();
            for t in [2usize, 3, 4, 7] {
                assert_matches_oracle(&g, &cover, t);
                let conn = clique_connector(&g, &cover, t).unwrap();
                shared += candidate_pairs(&cover, t) - conn.graph.num_edges();
            }
        }
        // The covers really do repeat pairs, so the dedup is exercised.
        assert!(shared > 100, "only {shared} repeated pairs");
        let g = builder_from_edges(4, &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]).unwrap();
        let cover = CliqueCover::new(&g, vec![ids(&[0, 1, 2]), ids(&[0, 1, 3])]).unwrap();
        for t in [2usize, 3] {
            assert_matches_oracle(&g, &cover, t);
        }
    }

    #[test]
    fn figure1_instance_two_cliques_sharing_a_vertex() {
        // Figure 1 of the paper: two cliques Q, R sharing a vertex, t = 4.
        // Build K7 ∪ K7 sharing vertex 0 (clique size 7 each).
        let mut b = GraphBuilder::new(13);
        let q: Vec<usize> = (0..7).collect();
        let r: Vec<usize> = std::iter::once(0).chain(7..13).collect();
        for set in [&q, &r] {
            for i in 0..set.len() {
                for j in (i + 1)..set.len() {
                    let _ = b.add_edge_dedup(set[i], set[j]).unwrap();
                }
            }
        }
        let g = b.build();
        let cover = CliqueCover::new(&g, vec![ids(&q), ids(&r)]).unwrap();
        assert_eq!(cover.diversity(), 2);
        let conn = clique_connector(&g, &cover, 4).unwrap();
        conn.verify_degree_bound(2).unwrap();
        // Each clique of 7 splits into groups of 4 and 3:
        // C(4,2) + C(3,2) = 6 + 3 = 9 edges per clique, shared vertex in
        // both first groups, no duplicated edges between cliques.
        assert_eq!(conn.graph.num_edges(), 18);
        let sizes: Vec<usize> = groups(&cover, 0, 4).iter().map(Vec::len).collect();
        assert_eq!(sizes, [4, 3]);
    }

    #[test]
    fn connector_edges_are_subset_of_source_edges() {
        let g = generators::gnm(40, 150, 3).unwrap();
        let cover = cover_from_all_maximal_cliques(&g).unwrap();
        let conn = clique_connector(&g, &cover, 2).unwrap();
        for (_, [u, v]) in conn.graph.edge_list() {
            assert!(g.has_edge(u, v), "connector invented edge ({u},{v})");
        }
    }

    #[test]
    fn lemma_2_1_on_line_graphs() {
        for (seed, t) in [(1u64, 2usize), (2, 3), (3, 5), (4, 8)] {
            let g = generators::gnm(60, 240, seed).unwrap();
            let lg = LineGraph::new(&g);
            let d = lg.cover.diversity();
            let conn = clique_connector(&lg.graph, &lg.cover, t).unwrap();
            conn.verify_degree_bound(d).unwrap();
        }
    }

    #[test]
    fn group_sizes_respect_t() {
        let g = generators::complete(11).unwrap();
        let cover = cover_from_all_maximal_cliques(&g).unwrap();
        let conn = clique_connector(&g, &cover, 3).unwrap();
        // Each vertex is joined to exactly the rest of its group, and only
        // the last group (ascending order) is short.
        let degrees: Vec<usize> = conn
            .graph
            .vertices()
            .map(|v| conn.graph.degree(v))
            .collect();
        assert_eq!(degrees, [2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1]);
        // K11 with t=3: groups 3/3/3/2 -> 3·C(3,2) + C(2,2)... = 3·3 + 1 = 10 edges.
        assert_eq!(conn.graph.num_edges(), 10);
    }

    #[test]
    fn t_equal_to_clique_size_keeps_clique_intact() {
        let g = generators::complete(5).unwrap();
        let cover = cover_from_all_maximal_cliques(&g).unwrap();
        let conn = clique_connector(&g, &cover, 5).unwrap();
        assert_eq!(conn.graph.num_edges(), g.num_edges());
    }

    #[test]
    fn rejects_t_below_two() {
        let g = builder_from_edges(2, &[(0, 1)]).unwrap();
        let cover = cover_from_all_maximal_cliques(&g).unwrap();
        assert!(clique_connector(&g, &cover, 1).is_err());
    }

    #[test]
    fn shared_pairs_are_deduplicated() {
        // Two cliques {0,1,2} and {0,1,3}: pair (0,1) appears in both.
        let g = builder_from_edges(4, &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]).unwrap();
        let cover = CliqueCover::new(&g, vec![ids(&[0, 1, 2]), ids(&[0, 1, 3])]).unwrap();
        let conn = clique_connector(&g, &cover, 3).unwrap();
        assert!(!conn.graph.has_parallel_edges());
    }
}
