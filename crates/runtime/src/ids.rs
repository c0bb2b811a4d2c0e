//! Distinct-identifier assignment for LOCAL-model symmetry breaking.
//!
//! The model (§1.1) assumes vertices carry distinct O(log n)-bit IDs.
//! Algorithms in `decolor-core` take the assignment as an explicit input so
//! experiments can test adversarial permutations, and so that subgraphs can
//! inherit identifiers (or, per §3, inherit a proper O(Δ²)-coloring *in
//! place of* identifiers).

use decolor_graph::num;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// An assignment of distinct identifiers to the vertices `0..n`.
///
/// ```rust
/// use decolor_runtime::IdAssignment;
/// let ids = IdAssignment::shuffled(10, 42);
/// assert_eq!(ids.len(), 10);
/// let mut sorted = ids.as_slice().to_vec();
/// sorted.sort_unstable();
/// assert_eq!(sorted, (0..10).collect::<Vec<u64>>()); // a permutation
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdAssignment {
    ids: Vec<u64>,
}

impl IdAssignment {
    /// Identifiers equal to vertex indices (`id(v) = v`).
    pub fn sequential(n: usize) -> Self {
        IdAssignment {
            ids: (0..num::to_u64(n)).collect(),
        }
    }

    /// A seeded uniformly random permutation of `0..n` — the standard
    /// adversarial-ish setting for deterministic symmetry breaking.
    pub fn shuffled(n: usize, seed: u64) -> Self {
        let mut ids: Vec<u64> = (0..num::to_u64(n)).collect();
        ids.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(seed));
        IdAssignment { ids }
    }

    /// A permutation of `0..n` scaled into a sparse space of
    /// `O(n^c)`-sized identifiers (`id ↦ id · stride + (id % 7) % stride`),
    /// to exercise algorithms that must not assume dense IDs. The offset
    /// stays below the stride, so the map is injective at every stride.
    pub fn sparse(n: usize, stride: u64, seed: u64) -> Self {
        let base = Self::shuffled(n, seed);
        let stride = stride.max(1);
        IdAssignment {
            ids: base
                .ids
                .iter()
                .map(|&i| i * stride + (i % 7) % stride)
                .collect(),
        }
    }

    /// Wraps explicit identifiers.
    ///
    /// # Panics
    ///
    /// Panics if identifiers are not pairwise distinct.
    pub fn from_ids(ids: Vec<u64>) -> Self {
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert!(
            sorted.windows(2).all(|w| w[0] != w[1]),
            "identifiers must be pairwise distinct"
        );
        IdAssignment { ids }
    }

    /// Identifier of vertex `v` (by index).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn id(&self, v: decolor_graph::VertexId) -> u64 {
        self.ids[v.index()]
    }

    /// Number of vertices covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if the assignment is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Raw identifier slice (indexed by vertex).
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        &self.ids
    }

    /// The smallest strict upper bound on identifiers (the "ID space
    /// size" N with IDs in `[0, N)`), 0 for the empty assignment.
    pub fn id_space(&self) -> u64 {
        self.ids.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// Restricts the assignment to a vertex subset given in local order —
    /// subgraphs inherit parent identifiers (still distinct).
    pub fn restrict(&self, parent_vertices: &[decolor_graph::VertexId]) -> IdAssignment {
        IdAssignment {
            ids: parent_vertices
                .iter()
                .map(|&v| self.ids[v.index()])
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::VertexId;

    #[test]
    fn sequential_is_identity() {
        let ids = IdAssignment::sequential(5);
        assert_eq!(ids.id(VertexId::new(3)), 3);
        assert_eq!(ids.id_space(), 5);
    }

    #[test]
    fn shuffled_is_permutation_and_seeded() {
        let a = IdAssignment::shuffled(100, 1);
        let b = IdAssignment::shuffled(100, 1);
        let c = IdAssignment::shuffled(100, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.as_slice().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn sparse_ids_are_distinct_and_sparse() {
        let ids = IdAssignment::sparse(50, 1000, 3);
        let mut sorted = ids.as_slice().to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 50);
        assert!(ids.id_space() >= 49 * 1000);
    }

    #[test]
    fn sparse_ids_are_distinct_at_every_stride() {
        for stride in 1..=64 {
            let ids = IdAssignment::sparse(2000, stride, 7);
            let mut sorted = ids.as_slice().to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 2000, "stride {stride} repeats an id");
        }
    }

    #[test]
    #[should_panic(expected = "pairwise distinct")]
    fn duplicate_ids_rejected() {
        let _ = IdAssignment::from_ids(vec![1, 2, 1]);
    }

    #[test]
    fn restriction_inherits_parent_ids() {
        let ids = IdAssignment::from_ids(vec![10, 20, 30, 40]);
        let sub = ids.restrict(&[VertexId::new(3), VertexId::new(1)]);
        assert_eq!(sub.as_slice(), &[40, 20]);
    }

    #[test]
    fn empty_assignment() {
        let ids = IdAssignment::sequential(0);
        assert!(ids.is_empty());
        assert_eq!(ids.id_space(), 0);
    }
}
