//! Clique covers, the paper's *diversity* measure, and maximal-clique
//! machinery.
//!
//! Section 1.2 of the paper defines the **diversity** `D(G)` as the maximal
//! number of *identified* maximal cliques that any vertex belongs to, under
//! a *consistent clique identification* — a set of cliques such that, for
//! every vertex, the union of its cliques contains all its neighbors
//! (footnote 3). Line graphs come with a canonical identification (one
//! clique per original vertex, diversity ≤ 2); for arbitrary graphs we also
//! provide Bron–Kerbosch enumeration of all maximal cliques, which yields a
//! consistent identification for verification at small scale.
//!
//! A [`CliqueCover`] is two flat CSR tables, cliques → members and
//! vertices → clique ids, so building, restricting and querying a cover
//! are O(n + Σ|Q|) passes over a handful of arrays, with no per-clique or
//! per-vertex allocation: Algorithm 1 restricts the cover once per color
//! class and level.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::VertexId;

/// Identifier of a clique inside a [`CliqueCover`].
pub type CliqueId = usize;

/// A consistent clique identification of a graph.
///
/// Stores the vertex list of every identified clique and, per vertex, the
/// ascending list of cliques it belongs to, both as flat CSR tables.
/// Validity ([`CliqueCover::validate`]) requires each clique to induce a
/// complete subgraph and every edge to be inside at least one clique (this
/// is exactly "the cliques that a vertex belongs to contain all its
/// neighbors").
///
/// ```rust
/// use decolor_graph::{builder_from_edges, cliques::CliqueCover, VertexId};
/// // Two triangles sharing vertex 2 (a "bowtie").
/// let g = builder_from_edges(5, &[(0,1),(0,2),(1,2),(2,3),(2,4),(3,4)]).unwrap();
/// let cover = CliqueCover::new(&g, vec![vec![0,1,2], vec![2,3,4]]
///     .into_iter()
///     .map(|c| c.into_iter().map(VertexId::new).collect())
///     .collect())
///     .unwrap();
/// assert_eq!(cover.diversity(), 2); // vertex 2 is in both cliques
/// assert_eq!(cover.max_clique_size(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct CliqueCover {
    /// Clique `q`'s members are `members[clique_offsets[q]..clique_offsets[q + 1]]`.
    clique_offsets: Vec<usize>,
    /// Members of every clique, clique after clique, in the given order.
    members: Vec<VertexId>,
    /// Vertex `v`'s cliques are `membership[member_offsets[v]..member_offsets[v + 1]]`.
    member_offsets: Vec<usize>,
    /// Clique ids per vertex, ascending.
    membership: Vec<CliqueId>,
}

impl CliqueCover {
    /// Builds and validates a cover from explicit clique vertex lists.
    ///
    /// Empty cliques are rejected; singleton cliques are permitted (they
    /// cover isolated vertices).
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] if a clique is not complete in `g`,
    /// an edge of `g` is covered by no clique, or a clique repeats a vertex.
    pub fn new(g: &Graph, cliques: Vec<Vec<VertexId>>) -> Result<Self, GraphError> {
        let cover = Self::new_unchecked(g.num_vertices(), cliques)?;
        cover.validate(g)?;
        Ok(cover)
    }

    /// Builds a cover without the completeness/coverage checks (still
    /// rejects empty cliques, out-of-range or repeated vertices).
    ///
    /// Useful when the construction guarantees validity (e.g. line graphs)
    /// and the graph is large.
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] on structurally malformed input.
    pub fn new_unchecked(n: usize, cliques: Vec<Vec<VertexId>>) -> Result<Self, GraphError> {
        let mut clique_offsets = Vec::with_capacity(cliques.len() + 1);
        clique_offsets.push(0);
        let mut members = Vec::with_capacity(cliques.iter().map(Vec::len).sum());
        for clique in cliques {
            members.extend(clique);
            clique_offsets.push(members.len());
        }
        Self::from_flat(n, clique_offsets, members)
    }

    /// [`CliqueCover::new_unchecked`] from the flat clique table: clique
    /// `q` is `members[clique_offsets[q]..clique_offsets[q + 1]]`.
    /// `clique_offsets` must start at 0, be non-decreasing and end at
    /// `members.len()`.
    pub(crate) fn from_flat(
        n: usize,
        clique_offsets: Vec<usize>,
        members: Vec<VertexId>,
    ) -> Result<Self, GraphError> {
        // `stamp[v] = q + 1` once clique `q` has mentioned `v`.
        let mut stamp = vec![0usize; n];
        for (qi, w) in clique_offsets.windows(2).enumerate() {
            if let Some(reason) = malformed_clique(qi, &members[w[0]..w[1]], &mut stamp) {
                return Err(GraphError::ValidationFailed { reason });
            }
        }
        Ok(Self::from_valid(n, clique_offsets, members))
    }

    /// Builds the membership table of a structurally valid clique table by
    /// a counting sort over the cliques: each vertex's clique ids come out
    /// ascending.
    fn from_valid(n: usize, clique_offsets: Vec<usize>, members: Vec<VertexId>) -> Self {
        let mut member_offsets = vec![0usize; n + 1];
        for v in &members {
            member_offsets[v.index() + 1] += 1;
        }
        for v in 0..n {
            member_offsets[v + 1] += member_offsets[v];
        }
        let mut cursor = member_offsets.clone();
        let mut membership = vec![0; members.len()];
        for (qi, w) in clique_offsets.windows(2).enumerate() {
            for v in &members[w[0]..w[1]] {
                membership[cursor[v.index()]] = qi;
                cursor[v.index()] += 1;
            }
        }
        CliqueCover {
            clique_offsets,
            members,
            member_offsets,
            membership,
        }
    }

    /// Checks that every clique is complete in `g` and every edge of `g`
    /// lies inside at least one clique.
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] describing the first violation.
    pub fn validate(&self, g: &Graph) -> Result<(), GraphError> {
        if self.num_vertices() != g.num_vertices() {
            return Err(GraphError::ValidationFailed {
                reason: format!(
                    "cover built for {} vertices, graph has {}",
                    self.num_vertices(),
                    g.num_vertices()
                ),
            });
        }
        for (qi, clique) in self.cliques().enumerate() {
            for (i, &u) in clique.iter().enumerate() {
                for &v in &clique[i + 1..] {
                    if !g.has_edge(u, v) {
                        return Err(GraphError::ValidationFailed {
                            reason: format!("clique {qi} contains non-adjacent {u}, {v}"),
                        });
                    }
                }
            }
        }
        // Edge coverage: each edge must appear inside some clique.
        for (e, [u, v]) in g.edge_list() {
            let covered = self
                .cliques_of(u)
                .iter()
                .any(|&qi| self.clique(qi).contains(&v));
            if !covered {
                return Err(GraphError::ValidationFailed {
                    reason: format!("edge {e} = ({u},{v}) not covered by any clique"),
                });
            }
        }
        Ok(())
    }

    /// Number of vertices of the graph the cover was built for.
    pub fn num_vertices(&self) -> usize {
        self.member_offsets.len() - 1
    }

    /// Number of identified cliques.
    pub fn num_cliques(&self) -> usize {
        self.clique_offsets.len() - 1
    }

    /// Vertices of clique `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn clique(&self, q: CliqueId) -> &[VertexId] {
        &self.members[self.clique_offsets[q]..self.clique_offsets[q + 1]]
    }

    /// All cliques, in id order.
    pub fn cliques(&self) -> impl ExactSizeIterator<Item = &[VertexId]> + '_ {
        self.clique_offsets
            .windows(2)
            .map(|w| &self.members[w[0]..w[1]])
    }

    /// Cliques containing vertex `v`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn cliques_of(&self, v: VertexId) -> &[CliqueId] {
        &self.membership[self.member_offsets[v.index()]..self.member_offsets[v.index() + 1]]
    }

    /// The diversity `D`: maximal number of identified cliques any vertex
    /// belongs to (0 for the empty cover).
    pub fn diversity(&self) -> usize {
        self.member_offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// The maximal clique size `S` (0 for the empty cover).
    pub fn max_clique_size(&self) -> usize {
        self.cliques().map(<[VertexId]>::len).max().unwrap_or(0)
    }

    /// The *clique master* of clique `q`: its highest-ID vertex, per §2.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or empty (excluded by construction).
    pub fn master(&self, q: CliqueId) -> VertexId {
        *self
            .clique(q)
            .iter()
            .max()
            // lint: allow(panic, "cliques are nonempty by construction")
            .expect("cliques are nonempty by construction")
    }

    /// Restricts the cover to an induced subgraph: each clique is
    /// intersected with the subgraph's vertex set and re-indexed to local
    /// identifiers; empty intersections are dropped.
    ///
    /// This is how Algorithm 1 maintains consistent cliques through the
    /// recursion (each clique of `G_i` is a subset of a clique of `G`,
    /// Lemma 2.3).
    pub fn restrict(&self, sub: &crate::subgraph::InducedSubgraph) -> CliqueCover {
        self.restrict_by(sub.graph().num_vertices(), |v| sub.from_parent_vertex(v))
    }

    /// [`CliqueCover::restrict`] for a borrowed
    /// [`VertexSubsetView`](crate::subgraph::VertexSubsetView): identical
    /// output without materializing the induced subgraph (the view's local
    /// ids equal the subgraph's for ascending subsets).
    pub fn restrict_to_subset<P: crate::subgraph::GraphView>(
        &self,
        view: &crate::subgraph::VertexSubsetView<'_, P>,
    ) -> CliqueCover {
        self.restrict_by(view.num_vertices(), |v| view.local_of(v))
    }

    /// Keeps each clique's members that `local` maps into `0..n`, under
    /// their local ids, and drops the cliques left empty. A restriction of
    /// a well-formed cover is well-formed, so the flat tables are written
    /// directly.
    fn restrict_by(&self, n: usize, local: impl Fn(VertexId) -> Option<VertexId>) -> CliqueCover {
        let mut clique_offsets = vec![0];
        let mut members = Vec::new();
        for clique in self.cliques() {
            let start = members.len();
            members.extend(clique.iter().filter_map(|&v| local(v)));
            if members.len() > start {
                clique_offsets.push(members.len());
            }
        }
        Self::from_valid(n, clique_offsets, members)
    }
}

/// Why clique `qi` is structurally malformed, if it is: empty, repeating
/// a vertex, or mentioning a vertex outside `0..stamp.len()`, checked in
/// that order. `stamp` holds, per vertex, one plus the last clique that
/// mentioned it, so a repeat is one comparison instead of a sort.
fn malformed_clique(qi: usize, clique: &[VertexId], stamp: &mut [usize]) -> Option<String> {
    if clique.is_empty() {
        return Some(format!("clique {qi} is empty"));
    }
    let mut out_of_range = None;
    let mut repeats = false;
    for &v in clique {
        match stamp.get_mut(v.index()) {
            Some(s) if *s == qi + 1 => repeats = true,
            Some(s) => *s = qi + 1,
            None => out_of_range = out_of_range.or(Some(v)),
        }
    }
    if let Some(v) = out_of_range {
        // A repeat wins over a range error, also among out-of-range ids.
        let mut far: Vec<VertexId> = clique
            .iter()
            .copied()
            .filter(|v| v.index() >= stamp.len())
            .collect();
        far.sort_unstable();
        repeats |= far.windows(2).any(|p| p[0] == p[1]);
        if !repeats {
            return Some(format!("clique {qi} mentions out-of-range vertex {v}"));
        }
    }
    repeats.then(|| format!("clique {qi} repeats a vertex"))
}

/// Enumerates **all maximal cliques** of `g` via Bron–Kerbosch with
/// pivoting. Exponential in the worst case — intended for verification and
/// for building consistent identifications on small/medium graphs (the
/// paper notes each vertex can identify its maximal cliques in one round;
/// this is the centralized equivalent).
///
/// ```rust
/// use decolor_graph::{builder_from_edges, cliques::maximal_cliques};
/// let g = builder_from_edges(4, &[(0,1),(1,2),(2,0),(2,3)]).unwrap();
/// let mut cliques = maximal_cliques(&g);
/// cliques.sort();
/// assert_eq!(cliques.len(), 2); // {0,1,2} and {2,3}
/// ```
pub fn maximal_cliques(g: &Graph) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices();
    // Sorted adjacency sets for O(log) membership tests.
    let adj: Vec<Vec<VertexId>> = (0..n)
        .map(|v| {
            let mut a: Vec<VertexId> = g.neighbors(VertexId::new(v)).collect();
            a.sort_unstable();
            a.dedup();
            a
        })
        .collect();
    let is_adj = |u: VertexId, v: VertexId| adj[u.index()].binary_search(&v).is_ok();

    let mut out = Vec::new();
    let mut r: Vec<VertexId> = Vec::new();
    let p: Vec<VertexId> = (0..n).map(VertexId::new).collect();
    let x: Vec<VertexId> = Vec::new();

    fn bk(
        r: &mut Vec<VertexId>,
        mut p: Vec<VertexId>,
        mut x: Vec<VertexId>,
        is_adj: &dyn Fn(VertexId, VertexId) -> bool,
        out: &mut Vec<Vec<VertexId>>,
    ) {
        if p.is_empty() && x.is_empty() {
            let mut clique = r.clone();
            clique.sort_unstable();
            out.push(clique);
            return;
        }
        // Pivot: vertex of P ∪ X with most neighbors in P.
        let pivot = p
            .iter()
            .chain(x.iter())
            .copied()
            .max_by_key(|&u| p.iter().filter(|&&w| is_adj(u, w)).count())
            // lint: allow(panic, "P ∪ X nonempty here")
            .expect("P ∪ X nonempty here");
        let candidates: Vec<VertexId> = p.iter().copied().filter(|&v| !is_adj(pivot, v)).collect();
        for v in candidates {
            r.push(v);
            let np: Vec<VertexId> = p.iter().copied().filter(|&w| is_adj(v, w)).collect();
            let nx: Vec<VertexId> = x.iter().copied().filter(|&w| is_adj(v, w)).collect();
            bk(r, np, nx, is_adj, out);
            r.pop();
            p.retain(|&w| w != v);
            x.push(v);
        }
    }

    bk(&mut r, p, x, &is_adj, &mut out);
    out
}

/// Builds a consistent identification from **all** maximal cliques
/// (footnote 3's fallback: "each vertex identifies all maximal cliques it
/// belongs to"). Adds singletons for isolated vertices so every vertex is
/// covered.
///
/// # Errors
///
/// Propagates [`GraphError::ValidationFailed`] (cannot happen for outputs
/// of [`maximal_cliques`], but the signature keeps the invariant explicit).
pub fn cover_from_all_maximal_cliques(g: &Graph) -> Result<CliqueCover, GraphError> {
    let mut cliques = maximal_cliques(g);
    cliques.retain(|c| !c.is_empty());
    CliqueCover::new_unchecked(g.num_vertices(), cliques)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder_from_edges;

    fn bowtie() -> Graph {
        builder_from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]).unwrap()
    }

    fn ids(raw: &[usize]) -> Vec<VertexId> {
        raw.iter().map(|&v| VertexId::new(v)).collect()
    }

    #[test]
    fn bowtie_cover_diversity() {
        let g = bowtie();
        let cover = CliqueCover::new(&g, vec![ids(&[0, 1, 2]), ids(&[2, 3, 4])]).unwrap();
        assert_eq!(cover.diversity(), 2);
        assert_eq!(cover.max_clique_size(), 3);
        assert_eq!(cover.cliques_of(VertexId::new(2)), &[0, 1]);
        assert_eq!(cover.master(0), VertexId::new(2));
        assert_eq!(cover.master(1), VertexId::new(4));
    }

    #[test]
    fn incomplete_clique_rejected() {
        let g = builder_from_edges(3, &[(0, 1)]).unwrap();
        assert!(CliqueCover::new(&g, vec![ids(&[0, 1, 2])]).is_err());
    }

    #[test]
    fn uncovered_edge_rejected() {
        let g = builder_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(CliqueCover::new(&g, vec![ids(&[0, 1])]).is_err());
    }

    fn malformed(n: usize, cliques: &[&[usize]]) -> String {
        let cliques = cliques.iter().map(|c| ids(c)).collect();
        CliqueCover::new_unchecked(n, cliques)
            .unwrap_err()
            .to_string()
    }

    #[test]
    fn empty_clique_rejected() {
        assert!(malformed(3, &[&[0], &[]]).contains("clique 1 is empty"));
    }

    #[test]
    fn repeated_vertex_rejected() {
        assert!(malformed(3, &[&[1, 1]]).contains("clique 0 repeats a vertex"));
    }

    #[test]
    fn malformed_cliques_rejected_with_the_first_reason() {
        let cases: [(&[&[usize]], &str); 5] = [
            (&[&[0, 5, 1]], "clique 0 mentions out-of-range vertex v5"),
            // Within a clique a repeat wins over a range error, also when
            // the repeated vertex is the out-of-range one.
            (&[&[7, 0, 2, 0]], "clique 0 repeats a vertex"),
            (&[&[0, 9, 2, 9]], "clique 0 repeats a vertex"),
            (&[&[0, 4, 6]], "clique 0 mentions out-of-range vertex v4"),
            // Earlier cliques are checked first; a vertex may recur across
            // cliques.
            (
                &[&[0, 1], &[1, 2], &[2, 2], &[]],
                "clique 2 repeats a vertex",
            ),
        ];
        for (cliques, want) in cases {
            let err = malformed(3, cliques);
            assert!(err.contains(want), "{cliques:?}: {err}");
        }
    }

    /// Checks every accessor against its definition over the clique lists
    /// the cover was built from.
    fn assert_cover_matches(cover: &CliqueCover, n: usize, lists: &[Vec<VertexId>]) {
        assert_eq!(cover.num_vertices(), n);
        assert_eq!(cover.num_cliques(), lists.len());
        assert!(cover.cliques().eq(lists.iter().map(Vec::as_slice)));
        let mut diversity = 0;
        for v in (0..n).map(VertexId::new) {
            let of: Vec<CliqueId> = (0..lists.len())
                .filter(|&q| lists[q].contains(&v))
                .collect();
            assert_eq!(cover.cliques_of(v), of, "cliques of {v}");
            diversity = diversity.max(of.len());
        }
        assert_eq!(cover.diversity(), diversity);
        let size = lists.iter().map(Vec::len).max().unwrap_or(0);
        assert_eq!(cover.max_clique_size(), size);
        for (q, list) in lists.iter().enumerate() {
            assert_eq!(cover.clique(q), list.as_slice());
            assert_eq!(cover.master(q), *list.iter().max().unwrap());
        }
    }

    #[test]
    fn csr_cover_accessors_match_their_definitions() {
        // The line-graph cover: one clique per non-isolated source vertex,
        // its incident edges in port order.
        let src = crate::generators::gnm(30, 70, 4).unwrap();
        let lg = crate::line_graph::LineGraph::new(&src);
        let lists: Vec<Vec<VertexId>> = src
            .vertices()
            .filter(|&v| src.degree(v) > 0)
            .map(|v| {
                src.incident_edges(v)
                    .map(|e| VertexId::new(e.index()))
                    .collect()
            })
            .collect();
        assert!(lists.len() < src.num_vertices(), "want an isolated vertex");
        assert_cover_matches(&lg.cover, src.num_edges(), &lists);

        // Its restriction to a subset: each clique's kept members under
        // their local ids (ranks in the subset), emptied cliques dropped.
        let subset: Vec<VertexId> = lg.graph.vertices().filter(|v| v.index() % 3 != 1).collect();
        let view = crate::subgraph::VertexSubsetView::new(&lg.graph, subset.clone()).unwrap();
        let local = |v: &VertexId| subset.binary_search(v).ok().map(VertexId::new);
        let restricted: Vec<Vec<VertexId>> = lists
            .iter()
            .map(|q| q.iter().filter_map(local).collect::<Vec<_>>())
            .filter(|q| !q.is_empty())
            .collect();
        assert!(restricted.len() < lists.len(), "want a clique emptied");
        assert_cover_matches(
            &lg.cover.restrict_to_subset(&view),
            subset.len(),
            &restricted,
        );

        // The rook's graph: rows, then columns.
        let (rooks, cover) = crate::ops::rooks_graph(4, 6).unwrap();
        let mut lists: Vec<Vec<VertexId>> = (0..4)
            .map(|u| ids(&(0..6).map(|w| u * 6 + w).collect::<Vec<_>>()))
            .collect();
        lists.extend((0..6).map(|w| ids(&(0..4).map(|u| u * 6 + w).collect::<Vec<_>>())));
        assert_cover_matches(&cover, rooks.num_vertices(), &lists);

        // All maximal cliques (Bron–Kerbosch), which share vertices freely.
        let g = crate::generators::gnm(25, 110, 8).unwrap();
        let lists = maximal_cliques(&g);
        let cover = cover_from_all_maximal_cliques(&g).unwrap();
        assert!(cover.diversity() > 2);
        assert_cover_matches(&cover, g.num_vertices(), &lists);

        // The empty cover.
        assert_cover_matches(&CliqueCover::new_unchecked(3, vec![]).unwrap(), 3, &[]);
    }

    #[test]
    fn bron_kerbosch_on_bowtie() {
        let g = bowtie();
        let mut cliques = maximal_cliques(&g);
        cliques.sort();
        assert_eq!(cliques, vec![ids(&[0, 1, 2]), ids(&[2, 3, 4])]);
    }

    #[test]
    fn bron_kerbosch_on_complete_graph() {
        let g = crate::generators::complete(6).unwrap();
        let cliques = maximal_cliques(&g);
        assert_eq!(cliques.len(), 1);
        assert_eq!(cliques[0].len(), 6);
    }

    #[test]
    fn bron_kerbosch_on_triangle_free() {
        // C5 has exactly its 5 edges as maximal cliques.
        let g = crate::generators::cycle(5).unwrap();
        let cliques = maximal_cliques(&g);
        assert_eq!(cliques.len(), 5);
        assert!(cliques.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn cover_from_maximal_cliques_is_valid() {
        let g = bowtie();
        let cover = cover_from_all_maximal_cliques(&g).unwrap();
        cover.validate(&g).unwrap();
        assert_eq!(cover.diversity(), 2);
    }

    #[test]
    fn restrict_cover_to_induced_subgraph() {
        let g = bowtie();
        let cover = CliqueCover::new(&g, vec![ids(&[0, 1, 2]), ids(&[2, 3, 4])]).unwrap();
        let sub = crate::subgraph::InducedSubgraph::new(&g, &ids(&[1, 2, 3]));
        let restricted = cover.restrict(&sub);
        restricted.validate(sub.graph()).unwrap();
        // Both cliques survive as {1,2} and {2,3} locally.
        assert_eq!(restricted.num_cliques(), 2);
        assert_eq!(restricted.max_clique_size(), 2);
        assert!(restricted.diversity() <= cover.diversity());
    }

    #[test]
    fn isolated_vertices_get_singletons() {
        let mut b = crate::GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        let cover = cover_from_all_maximal_cliques(&g).unwrap();
        cover.validate(&g).unwrap();
        assert!(cover.cliques_of(VertexId::new(2)).len() == 1);
    }
}
