//! Vertex and edge colorings with validation and palette bookkeeping.
//!
//! The paper combines colorings hierarchically (`⟨ϕ, ψ⟩` in Algorithm 1 and
//! Sections 4–5); [`VertexColoring::product`] and [`EdgeColoring::product`]
//! implement that pairing canonically so that the *flattened* palette size
//! can be compared against the paper's bounds.

use crate::error::GraphError;
use crate::ids::{EdgeId, VertexId};
use crate::num;
use crate::subgraph::GraphView;

/// A color. Colors are dense small integers; `u32` is ample for every bound
/// in the paper (the largest palettes are O(Δ²)).
pub type Color = u32;

/// A (candidate) vertex coloring of a [`Graph`](crate::Graph).
///
/// Stores one color per vertex plus the *palette size* (an exclusive upper
/// bound on colors, i.e. all colors are `< palette`). The palette is the
/// quantity the paper's theorems bound; [`VertexColoring::distinct_colors`]
/// reports how many colors are actually used.
///
/// ```rust
/// use decolor_graph::{builder_from_edges, coloring::VertexColoring};
/// let g = builder_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let c = VertexColoring::new(vec![0, 1, 0], 2).unwrap();
/// assert!(c.is_proper(&g));
/// assert_eq!(c.distinct_colors(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexColoring {
    colors: Vec<Color>,
    palette: u64,
}

/// A (candidate) edge coloring of a [`Graph`](crate::Graph); see [`VertexColoring`] for
/// the palette conventions.
///
/// ```rust
/// use decolor_graph::{builder_from_edges, coloring::EdgeColoring};
/// let g = builder_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let c = EdgeColoring::new(vec![0, 1], 2).unwrap();
/// assert!(c.is_proper(&g));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeColoring {
    colors: Vec<Color>,
    palette: u64,
}

fn check_palette(colors: &[Color], palette: u64) -> Result<(), GraphError> {
    if let Some(&c) = colors.iter().find(|&&c| u64::from(c) >= palette) {
        return Err(GraphError::ValidationFailed {
            reason: format!("color {c} outside palette of size {palette}"),
        });
    }
    Ok(())
}

impl VertexColoring {
    /// Wraps a color vector with a declared palette size.
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] if any color is `>= palette`.
    pub fn new(colors: Vec<Color>, palette: u64) -> Result<Self, GraphError> {
        check_palette(&colors, palette)?;
        Ok(VertexColoring { colors, palette })
    }

    /// The trivial coloring by identity (`color(v) = v`), palette `n`.
    pub fn identity(n: usize) -> Self {
        VertexColoring {
            // lint: allow(cast, "identity colorings are built for vertex counts, which fit u32 ids")
            colors: (0..n as u32).collect(),
            palette: num::to_u64(n),
        }
    }

    /// Color of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn color(&self, v: VertexId) -> Color {
        self.colors[v.index()]
    }

    /// Declared palette size (exclusive upper bound on colors).
    #[inline]
    pub fn palette(&self) -> u64 {
        self.palette
    }

    /// Number of vertices colored.
    #[inline]
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// `true` if no vertices are colored.
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
    pub fn max_color(&self) -> Option<Color> {
        self.colors.iter().copied().max()
    }

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
        if self.colors.len() != g.num_vertices() {
            return Err(GraphError::ValidationFailed {
                reason: format!(
                    "coloring has {} entries but graph has {} vertices",
                    self.colors.len(),
                    g.num_vertices()
                ),
            });
        }
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

    /// Canonical pairing `⟨outer, self⟩`: the combined color of `v` is
    /// `outer(v) * self.palette + self(v)`, with palette
    /// `outer.palette * self.palette`.
    ///
    /// This is the `⟨ϕ, ψ⟩` combination from Algorithm 1 (line 15).
    ///
    /// # Panics
    ///
    /// Panics if the colorings have different lengths or the combined
    /// palette overflows `u64`.
    pub fn product(&self, outer: &VertexColoring) -> VertexColoring {
        assert_eq!(
            self.len(),
            outer.len(),
            "colorings must cover the same vertex set"
        );
        let palette = outer
            .palette
            .checked_mul(self.palette)
            // lint: allow(panic, "combined palette overflows u64")
            .expect("combined palette overflows u64");
        let colors = self
            .colors
            .iter()
            .zip(&outer.colors)
            .map(|(&inner, &out)| {
                let combined = u64::from(out) * self.palette + u64::from(inner);
                // lint: allow(panic, "combined color overflows u32")
                u32::try_from(combined).expect("combined color overflows u32")
            })
            .collect();
        VertexColoring { colors, palette }
    }

    /// Renumbers colors to `0..k` (k = distinct colors), preserving
    /// properness, and shrinks the palette to `k`.
    pub fn compacted(&self) -> VertexColoring {
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
        VertexColoring {
            colors,
            palette: u64::from(next.max(1)),
        }
    }

    /// Groups vertices by color: `classes()[c]` lists the vertices colored
    /// `c` (after compaction indices are dense).
    pub fn classes(&self) -> Vec<Vec<VertexId>> {
        let k = self.max_color().map_or(0, |c| num::usize_from(c) + 1);
        let mut out = vec![Vec::new(); k];
        for (i, &c) in self.colors.iter().enumerate() {
            out[num::usize_from(c)].push(VertexId::new(i));
        }
        out
    }
}

impl EdgeColoring {
    /// Wraps a color vector with a declared palette size.
    ///
    /// # Errors
    ///
    /// [`GraphError::ValidationFailed`] if any color is `>= palette`.
    pub fn new(colors: Vec<Color>, palette: u64) -> Result<Self, GraphError> {
        check_palette(&colors, palette)?;
        Ok(EdgeColoring { colors, palette })
    }

    /// Color of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn color(&self, e: EdgeId) -> Color {
        self.colors[e.index()]
    }

    /// Declared palette size (exclusive upper bound on colors).
    #[inline]
    pub fn palette(&self) -> u64 {
        self.palette
    }

    /// Number of edges colored.
    #[inline]
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// `true` if no edges are colored.
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
    pub fn max_color(&self) -> Option<Color> {
        self.colors.iter().copied().max()
    }

    /// `true` iff edges sharing an endpoint always receive distinct colors.
    ///
    /// Accepts any [`GraphView`], like [`VertexColoring::is_proper`].
    pub fn is_proper<G: GraphView>(&self, g: &G) -> bool {
        self.first_violation(g).is_none()
    }

    /// Returns a pair of conflicting incident edges, if any.
    pub fn first_violation<G: GraphView>(&self, g: &G) -> Option<(EdgeId, EdgeId)> {
        // Scan each vertex's incidence list for repeated colors.
        let mut seen: std::collections::BTreeMap<Color, EdgeId> = std::collections::BTreeMap::new();
        let mut hit = None;
        for v in (0..g.num_vertices()).map(VertexId::new) {
            seen.clear();
            g.for_each_incident_edge(v, |e| {
                if hit.is_some() {
                    return;
                }
                let c = self.colors[e.index()];
                if let Some(&prev) = seen.get(&c) {
                    hit = Some((prev, e));
                } else {
                    seen.insert(c, e);
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
        if self.colors.len() != g.num_edges() {
            return Err(GraphError::ValidationFailed {
                reason: format!(
                    "coloring has {} entries but graph has {} edges",
                    self.colors.len(),
                    g.num_edges()
                ),
            });
        }
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

    /// Canonical pairing `⟨outer, self⟩`; see [`VertexColoring::product`].
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or the combined palette overflows.
    pub fn product(&self, outer: &EdgeColoring) -> EdgeColoring {
        assert_eq!(
            self.len(),
            outer.len(),
            "colorings must cover the same edge set"
        );
        let palette = outer
            .palette
            .checked_mul(self.palette)
            // lint: allow(panic, "combined palette overflows u64")
            .expect("combined palette overflows u64");
        let colors = self
            .colors
            .iter()
            .zip(&outer.colors)
            .map(|(&inner, &out)| {
                let combined = u64::from(out) * self.palette + u64::from(inner);
                // lint: allow(panic, "combined color overflows u32")
                u32::try_from(combined).expect("combined color overflows u32")
            })
            .collect();
        EdgeColoring { colors, palette }
    }

    /// Renumbers colors to `0..k`, preserving properness.
    pub fn compacted(&self) -> EdgeColoring {
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
        EdgeColoring {
            colors,
            palette: u64::from(next.max(1)),
        }
    }

    /// Groups edges by color: `classes()[c]` lists the edges colored `c`.
    pub fn classes(&self) -> Vec<Vec<EdgeId>> {
        let k = self.max_color().map_or(0, |c| num::usize_from(c) + 1);
        let mut out = vec![Vec::new(); k];
        for (i, &c) in self.colors.iter().enumerate() {
            out[num::usize_from(c)].push(EdgeId::new(i));
        }
        out
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
    fn identity_is_proper() {
        let g = triangle();
        let c = VertexColoring::identity(3);
        assert!(c.is_proper(&g));
        assert_eq!(c.palette(), 3);
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
    fn product_palette_and_properness() {
        let g = triangle();
        let inner = VertexColoring::new(vec![0, 1, 0], 2).unwrap(); // improper alone on (0,2)
        let outer = VertexColoring::new(vec![0, 0, 1], 2).unwrap(); // splits 0 and 2
        let prod = inner.product(&outer);
        assert_eq!(prod.palette(), 4);
        assert!(prod.is_proper(&g));
        assert_eq!(prod.color(VertexId::new(0)), 0);
        assert_eq!(prod.color(VertexId::new(2)), 2); // 1*2 + 0
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
}
