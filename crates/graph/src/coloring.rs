//! Vertex and edge colorings with validation and palette bookkeeping.
//!
//! An edge coloring of `G` is a vertex coloring of its line graph, so one
//! type, [`Coloring`], serves both; [`VertexColoring`] and
//! [`EdgeColoring`] name it per element and differ only in what
//! properness means. The paper's `⟨ϕ, ψ⟩` pairing of colorings
//! (Algorithm 1 and Sections 4–5) lives in `decolor_core`'s
//! `product::color_classes`, which every pipeline calls.

use std::marker::PhantomData;

use crate::error::GraphError;
use crate::ids::{EdgeId, VertexId};
use crate::num;
use crate::subgraph::GraphView;

/// A color. Colors are dense small integers; `u32` is ample for every bound
/// in the paper (the largest palettes are O(Δ²)).
pub type Color = u32;

/// What a [`Coloring`] colors: vertices or edges, by dense id.
pub trait Element: Copy + Into<usize> {
    /// The element with dense index `index`.
    fn from_index(index: usize) -> Self;
}

impl Element for VertexId {
    fn from_index(index: usize) -> Self {
        VertexId::new(index)
    }
}

impl Element for EdgeId {
    fn from_index(index: usize) -> Self {
        EdgeId::new(index)
    }
}

/// A (candidate) coloring of the elements `I` — vertices or edges — of a
/// [`Graph`](crate::Graph).
///
/// Stores one color per element plus the *palette size* (an exclusive
/// upper bound on colors, i.e. all colors are `< palette`). The palette is
/// the quantity the paper's theorems bound; [`Coloring::distinct_colors`]
/// reports how many colors are actually used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coloring<I> {
    colors: Vec<Color>,
    palette: u64,
    element: PhantomData<I>,
}

/// A (candidate) vertex coloring: adjacent vertices must differ.
///
/// ```rust
/// use decolor_graph::{builder_from_edges, coloring::VertexColoring};
/// let g = builder_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let c = VertexColoring::new(vec![0, 1, 0], 2).unwrap();
/// assert!(c.is_proper(&g));
/// assert_eq!(c.distinct_colors(), 2);
/// ```
pub type VertexColoring = Coloring<VertexId>;

/// A (candidate) edge coloring: edges sharing an endpoint must differ.
///
/// ```rust
/// use decolor_graph::{builder_from_edges, coloring::EdgeColoring};
/// let g = builder_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let c = EdgeColoring::new(vec![0, 1], 2).unwrap();
/// assert!(c.is_proper(&g));
/// ```
pub type EdgeColoring = Coloring<EdgeId>;

impl<I: Element> Coloring<I> {
    /// Wraps a color vector with a declared palette size.
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] if any color is `>= palette`.
    pub fn new(colors: Vec<Color>, palette: u64) -> Result<Self, GraphError> {
        if let Some(&c) = colors.iter().find(|&&c| u64::from(c) >= palette) {
            return Err(GraphError::ValidationFailed {
                reason: format!("color {c} outside palette of size {palette}"),
            });
        }
        Ok(Coloring {
            colors,
            palette,
            element: PhantomData,
        })
    }

    /// Color of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn color(&self, i: I) -> Color {
        self.colors[i.into()]
    }

    /// Declared palette size (exclusive upper bound on colors).
    #[inline]
    pub fn palette(&self) -> u64 {
        self.palette
    }

    /// Number of elements colored.
    #[inline]
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// `true` if no elements are colored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// Immutable access to the underlying color vector.
    #[inline]
    pub fn as_slice(&self) -> &[Color] {
        &self.colors
    }

    /// Consumes the coloring, returning the raw color vector.
    pub fn into_inner(self) -> Vec<Color> {
        self.colors
    }

    /// Number of distinct colors actually used.
    pub fn distinct_colors(&self) -> usize {
        let mut seen = std::collections::BTreeSet::new();
        self.colors.iter().filter(|&&c| seen.insert(c)).count()
    }

    /// Largest color used, or `None` for the empty coloring.
    fn max_color(&self) -> Option<Color> {
        self.colors.iter().copied().max()
    }

    /// Renumbers colors to `0..k` (k = distinct colors), preserving
    /// properness, and shrinks the palette to `k`.
    pub fn compacted(&self) -> Self {
        let mut map = std::collections::BTreeMap::new();
        let mut next: Color = 0;
        let colors = self
            .colors
            .iter()
            .map(|&c| {
                *map.entry(c).or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                })
            })
            .collect();
        Coloring {
            colors,
            palette: u64::from(next.max(1)),
            element: PhantomData,
        }
    }

    /// Groups elements by color: `classes()[c]` lists the elements colored
    /// `c` (after compaction indices are dense).
    pub fn classes(&self) -> Vec<Vec<I>> {
        let k = self.max_color().map_or(0, |c| num::usize_from(c) + 1);
        let mut out = vec![Vec::new(); k];
        for (i, &c) in self.colors.iter().enumerate() {
            out[num::usize_from(c)].push(I::from_index(i));
        }
        out
    }

    /// Fails unless the coloring has one entry per `what` (`"vertices"`
    /// or `"edges"`) of a graph with `expected` of them.
    fn check_len(&self, expected: usize, what: &str) -> Result<(), GraphError> {
        if self.colors.len() != expected {
            return Err(GraphError::ValidationFailed {
                reason: format!(
                    "coloring has {} entries but graph has {expected} {what}",
                    self.colors.len()
                ),
            });
        }
        Ok(())
    }
}

impl VertexColoring {
    /// `true` iff adjacent vertices always receive distinct colors.
    ///
    /// Accepts any [`GraphView`] — a whole [`Graph`](crate::Graph) or a
    /// borrowed subgraph view — so the view-generic pipelines can validate
    /// without materializing.
    pub fn is_proper<G: GraphView>(&self, g: &G) -> bool {
        self.first_violation(g).is_none()
    }

    /// Returns an edge whose endpoints share a color, if any.
    ///
    /// Scans incidence lists rather than the edge list: on borrowed
    /// views the per-port neighbor is a slice read, while per-edge
    /// endpoints cost rank queries — and for a whole graph the two scans
    /// are equivalent.
    pub fn first_violation<G: GraphView>(&self, g: &G) -> Option<EdgeId> {
        let mut hit = None;
        for v in (0..g.num_vertices()).map(VertexId::new) {
            g.for_each_port(v, |u, e| {
                if hit.is_none() && u > v && self.colors[u.index()] == self.colors[v.index()] {
                    hit = Some(e);
                }
            });
            if hit.is_some() {
                break;
            }
        }
        hit
    }

    /// Validates properness, returning a descriptive error on failure.
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] naming the violating edge.
    pub fn validate<G: GraphView>(&self, g: &G) -> Result<(), GraphError> {
        self.check_len(g.num_vertices(), "vertices")?;
        match self.first_violation(g) {
            None => Ok(()),
            Some(e) => {
                let [u, v] = g.endpoints(e);
                Err(GraphError::ValidationFailed {
                    reason: format!(
                        "vertices {u} and {v} of edge {e} share color {}",
                        self.colors[u.index()]
                    ),
                })
            }
        }
    }
}

impl EdgeColoring {
    /// `true` iff edges sharing an endpoint always receive distinct colors.
    ///
    /// Accepts any [`GraphView`], like [`VertexColoring::is_proper`].
    pub fn is_proper<G: GraphView>(&self, g: &G) -> bool {
        self.first_violation(g).is_none()
    }

    /// Returns a pair of conflicting incident edges, if any: at the
    /// lowest vertex with a repeated color, the first edge (in port order)
    /// whose color an earlier edge there already has, after that earlier
    /// edge.
    ///
    /// One pass over the incidence rows with one reused hash table of the
    /// row's colors, so memory is O(Δ) whatever the palette.
    pub fn first_violation<G: GraphView>(&self, g: &G) -> Option<(EdgeId, EdgeId)> {
        let mut seen = RowColors::default();
        for v in (0..g.num_vertices()).map(VertexId::new) {
            seen.arm(v, g.degree(v));
            let mut hit = None;
            g.for_each_incident_edge(v, |e| {
                if hit.is_none() {
                    hit = seen.insert(self.colors[e.index()], e).map(|prev| (prev, e));
                }
            });
            if hit.is_some() {
                return hit;
            }
        }
        None
    }

    /// Validates properness, returning a descriptive error on failure.
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] naming the violating edge pair.
    pub fn validate<G: GraphView>(&self, g: &G) -> Result<(), GraphError> {
        self.check_len(g.num_edges(), "edges")?;
        match self.first_violation(g) {
            None => Ok(()),
            Some((e1, e2)) => Err(GraphError::ValidationFailed {
                reason: format!(
                    "incident edges {e1} and {e2} share color {}",
                    self.colors[e1.index()]
                ),
            }),
        }
    }
}

/// The colors seen so far at one vertex, for
/// [`EdgeColoring::first_violation`]: an open-addressing table keyed by a
/// multiplicative hash of the color, with linear probing. Each slot is
/// tagged with the vertex that wrote it, so moving to the next vertex
/// clears the table without touching it. The table is a power of two of
/// at least twice the largest degree armed so far, so it is at most half
/// full, a probe is short, and memory is O(Δ) however large the colors.
#[derive(Default)]
struct RowColors {
    /// `(vertex that wrote the slot, color, first edge with that color)`.
    slots: Vec<(Option<VertexId>, Color, EdgeId)>,
    /// `32 − log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    row: Option<VertexId>,
}

impl RowColors {
    /// Starts vertex `v`'s row, growing the table if `degree` needs it.
    fn arm(&mut self, v: VertexId, degree: usize) {
        if 2 * degree > self.slots.len() {
            let size = (2 * degree).next_power_of_two();
            self.slots = vec![(None, 0, EdgeId::new(0)); size];
            // `2 ≤ size ≤ 2m ≤ 2^33`; past 2^32 slots the hash's 32 bits
            // index the table's low part, which still has room.
            self.shift = 32u32.saturating_sub(size.trailing_zeros());
        }
        self.row = Some(v);
    }

    /// Records `c` at edge `e`, or returns the earlier edge of this row
    /// that already has color `c`.
    fn insert(&mut self, c: Color, e: EdgeId) -> Option<EdgeId> {
        let mask = self.slots.len() - 1;
        let mut i = num::usize_from(c.wrapping_mul(0x9E37_79B9) >> self.shift);
        loop {
            let slot = &mut self.slots[i & mask];
            if slot.0 != self.row {
                *slot = (self.row, c, e);
                return None;
            }
            if slot.1 == c {
                return Some(slot.2);
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder_from_edges;
    use crate::graph::Graph;

    fn triangle() -> Graph {
        builder_from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn improper_vertex_coloring_detected() {
        let g = triangle();
        let c = VertexColoring::new(vec![0, 0, 1], 2).unwrap();
        assert!(!c.is_proper(&g));
        assert!(c.validate(&g).is_err());
    }

    #[test]
    fn palette_violation_rejected() {
        assert!(VertexColoring::new(vec![0, 5], 3).is_err());
        assert!(EdgeColoring::new(vec![5], 5).is_err());
    }

    #[test]
    fn edge_coloring_properness() {
        let g = triangle();
        // Triangle needs 3 edge colors.
        let ok = EdgeColoring::new(vec![0, 1, 2], 3).unwrap();
        assert!(ok.is_proper(&g));
        let bad = EdgeColoring::new(vec![0, 0, 1], 2).unwrap();
        assert!(!bad.is_proper(&g));
        assert!(bad.validate(&g).is_err());
    }

    #[test]
    fn compaction_preserves_properness_and_counts() {
        let g = triangle();
        let c = VertexColoring::new(vec![10, 20, 30], 31).unwrap();
        let cc = c.compacted();
        assert!(cc.is_proper(&g));
        assert_eq!(cc.palette(), 3);
        assert_eq!(cc.distinct_colors(), 3);
        assert_eq!(cc.max_color(), Some(2));
    }

    #[test]
    fn classes_partition_vertices_and_edges() {
        let c = VertexColoring::new(vec![1, 0, 1], 2).unwrap();
        let cls = c.classes();
        assert_eq!(cls.len(), 2);
        assert_eq!(cls[1], vec![VertexId::new(0), VertexId::new(2)]);

        let ec = EdgeColoring::new(vec![0, 1, 0], 2).unwrap();
        let cls = ec.classes();
        assert_eq!(cls[0], vec![EdgeId::new(0), EdgeId::new(2)]);
    }

    #[test]
    fn length_mismatch_is_validation_error() {
        let g = triangle();
        let c = VertexColoring::new(vec![0, 1], 2).unwrap();
        assert!(c.validate(&g).is_err());
        let e = EdgeColoring::new(vec![0], 1).unwrap();
        assert!(e.validate(&g).is_err());
    }

    #[test]
    fn distinct_and_max_on_empty() {
        let c = VertexColoring::new(vec![], 1).unwrap();
        assert_eq!(c.distinct_colors(), 0);
        assert_eq!(c.max_color(), None);
        assert!(c.is_empty());
    }

    /// The `BTreeMap` scan that `first_violation` replaced: per vertex, the
    /// first edge of each color, and the first repeat in port order.
    fn btree_first_violation(c: &EdgeColoring, g: &impl GraphView) -> Option<(EdgeId, EdgeId)> {
        for v in (0..g.num_vertices()).map(VertexId::new) {
            let mut seen = std::collections::BTreeMap::new();
            let mut hit = None;
            g.for_each_incident_edge(v, |e| {
                let color = c.color(e);
                match seen.get(&color) {
                    Some(&prev) if hit.is_none() => hit = Some((prev, e)),
                    Some(_) => {}
                    None => {
                        seen.insert(color, e);
                    }
                }
            });
            if hit.is_some() {
                return hit;
            }
        }
        None
    }

    /// A greedy proper coloring over random colors from the whole `u32`
    /// range, then (for most seeds) a few edges recolored to the color of
    /// an edge next to them, so the first clash lands anywhere.
    fn seeded_coloring(g: &impl GraphView, seed: u64) -> EdgeColoring {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let pool: Vec<Color> = (0..2 * g.max_degree() + 1).map(|_| rng.gen()).collect();
        let m = g.num_edges();
        let mut colors: Vec<Option<Color>> = vec![None; m];
        for e in (0..m).map(EdgeId::new) {
            let mut used = Vec::new();
            for v in g.endpoints(e) {
                g.for_each_incident_edge(v, |f| used.extend(colors[f.index()]));
            }
            colors[e.index()] = pool.iter().copied().find(|c| !used.contains(c));
        }
        let mut colors: Vec<Color> = colors.into_iter().map(Option::unwrap).collect();
        for _ in 0..seed % 4 {
            let e = EdgeId::new(rng.gen_range(0..m));
            let v = g.endpoints(e)[rng.gen_range(0..2usize)];
            let mut around = Vec::new();
            g.for_each_incident_edge(v, |f| around.push(f));
            colors[e.index()] = colors[around[rng.gen_range(0..around.len())].index()];
        }
        EdgeColoring::new(colors, 1 << 32).unwrap()
    }

    #[test]
    fn first_violation_matches_a_btree_oracle() {
        let g = crate::generators::gnm(120, 700, 3).unwrap();
        let class: Vec<EdgeId> = g.edges().filter(|e| e.index() % 3 != 0).collect();
        let view = crate::subgraph::EdgeSubgraphView::new(&g, class).unwrap();
        let mut clash_vertices = std::collections::BTreeSet::new();
        let mut proper = 0;
        for seed in 0..200u64 {
            let on_graph = seeded_coloring(&g, seed);
            let want = btree_first_violation(&on_graph, &g);
            assert_eq!(on_graph.first_violation(&g), want, "graph, seed {seed}");
            match want {
                Some((e, _)) => {
                    clash_vertices.insert(g.endpoints(e));
                }
                None => proper += 1,
            }
            let on_view = seeded_coloring(&view, seed);
            let want = btree_first_violation(&on_view, &view);
            assert_eq!(on_view.first_violation(&view), want, "view, seed {seed}");
            assert_eq!(on_view.is_proper(&view), want.is_none());
        }
        // Proper and improper cases both occur, with clashes spread out.
        assert!(proper >= 40, "{proper} proper colorings");
        assert!(
            clash_vertices.len() >= 50,
            "{} clash sites",
            clash_vertices.len()
        );
    }

    #[test]
    fn first_violation_reports_the_first_repeat_at_the_lowest_vertex() {
        // Star at vertex 0 with colors 7, 9, 7, 9: the repeat of 7 comes
        // first, paired with the first edge of color 7.
        let g = builder_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let c = EdgeColoring::new(vec![7, 9, 7, 9], 10).unwrap();
        assert_eq!(
            c.first_violation(&g),
            Some((EdgeId::new(0), EdgeId::new(2)))
        );
        // Colors equal modulo every table size still differ.
        let c = EdgeColoring::new(vec![0, 1 << 31, 1 << 30, 3 << 30], 1 << 32).unwrap();
        assert_eq!(c.first_violation(&g), None);
    }
}
