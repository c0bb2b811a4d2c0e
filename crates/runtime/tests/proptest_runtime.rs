//! Property-based tests of the identifier assignments.

use decolor_runtime::IdAssignment;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shuffled IDs are permutations; restriction preserves distinctness.
    #[test]
    fn id_assignment_permutation(n in 1usize..200, seed in 0u64..1000) {
        let ids = IdAssignment::shuffled(n, seed);
        let mut sorted = ids.as_slice().to_vec();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n as u64).collect::<Vec<_>>());
        let subset: Vec<decolor_graph::VertexId> =
            (0..n).step_by(3).map(decolor_graph::VertexId::new).collect();
        let sub = ids.restrict(&subset);
        let mut s = sub.as_slice().to_vec();
        s.sort_unstable();
        s.dedup();
        prop_assert_eq!(s.len(), subset.len());
    }
}
