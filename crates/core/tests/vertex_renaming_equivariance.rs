//! The algorithms are equivariant under vertex renaming: coloring a
//! graph with its vertices renamed and mapping the result back yields a
//! proper coloring of the original with identical palette and round
//! counts, at both pool widths.
//!
//! The renaming sorts vertices by degree and keeps edge ids and their
//! order. For the vertex pipeline the equivalence is *exact* (the
//! permuted-id run is the same computation under renaming); for the
//! edge pipelines the edge coloring of the renamed graph is asserted
//! directly on the original.

use decolor_core::arboricity::theorem52;
use decolor_core::delta_plus_one::{vertex_coloring_with_target, Seed, SubroutineConfig};
use decolor_core::star_partition::{star_partition_edge_coloring, StarPartitionParams};
use decolor_graph::coloring::VertexColoring;
use decolor_graph::{builder_from_edges, generators, Graph, VertexId};
use decolor_runtime::IdAssignment;
use proptest::prelude::*;

/// Renames the vertices of `g` in ascending degree order, ties by
/// ascending id. Returns `new_of_old` and the renamed graph, built from
/// `g`'s edges in id order so edge `e` of the result is edge `e` of `g`.
fn renamed_by_degree(g: &Graph) -> (Vec<usize>, Graph) {
    let mut old_of_new: Vec<usize> = (0..g.num_vertices()).collect();
    old_of_new.sort_by_key(|&v| g.degree(VertexId::new(v)));
    let mut new_of_old = vec![0; old_of_new.len()];
    for (new, &old) in old_of_new.iter().enumerate() {
        new_of_old[old] = new;
    }
    let edges: Vec<(usize, usize)> = g
        .edge_list()
        .map(|(_, [u, v])| (new_of_old[u.index()], new_of_old[v.index()]))
        .collect();
    let h = builder_from_edges(g.num_vertices(), &edges).unwrap();
    (new_of_old, h)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Vertex pipeline (Linial + KW reduction): running on the renamed
    /// graph with permuted ids and pulling the colors back is
    /// bit-identical to the direct run.
    #[test]
    fn vertex_pipeline_is_equivariant_under_renaming(seed in 0u64..500) {
        let g = generators::gnm(120, 400, seed).unwrap();
        let (new_of_old, h) = renamed_by_degree(&g);
        let ids = IdAssignment::shuffled(g.num_vertices(), seed);
        let mut pushed = vec![0u64; new_of_old.len()];
        for (old, &id) in ids.as_slice().iter().enumerate() {
            pushed[new_of_old[old]] = id;
        }
        let pushed_ids = IdAssignment::from_ids(pushed);
        let target = g.max_degree() as u64 + 1;
        for threads in [1usize, 4] {
            let (direct, direct_stats) = rayon::with_num_threads(threads, || {
                vertex_coloring_with_target(
                    &g, Seed::Ids(&ids), target, SubroutineConfig::default(),
                ).unwrap()
            });
            let (relaid, relaid_stats) = rayon::with_num_threads(threads, || {
                vertex_coloring_with_target(
                    &h, Seed::Ids(&pushed_ids), target, SubroutineConfig::default(),
                ).unwrap()
            });
            let pulled = VertexColoring::new(
                new_of_old.iter().map(|&new| relaid.as_slice()[new]).collect(),
                relaid.palette(),
            ).unwrap();
            prop_assert!(pulled.is_proper(&g));
            prop_assert_eq!(pulled.as_slice(), direct.as_slice());
            prop_assert_eq!(relaid.palette(), direct.palette());
            prop_assert_eq!(relaid_stats.rounds, direct_stats.rounds);
        }
    }

    /// Star partition is edge-space driven; under renaming (edge ids
    /// preserved) its coloring must be bit-identical and apply to the
    /// original graph verbatim.
    #[test]
    fn star_partition_is_equivariant_under_renaming(seed in 0u64..500, x in 1usize..3) {
        let g = generators::gnm(100, 360, seed).unwrap();
        let (_, h) = renamed_by_degree(&g);
        for threads in [1usize, 4] {
            let params = StarPartitionParams::for_levels(&g, x);
            let direct = rayon::with_num_threads(threads, || {
                star_partition_edge_coloring(&g, &params).unwrap()
            });
            let relaid = rayon::with_num_threads(threads, || {
                star_partition_edge_coloring(&h, &params).unwrap()
            });
            prop_assert!(relaid.coloring.is_proper(&g));
            prop_assert_eq!(relaid.coloring.as_slice(), direct.coloring.as_slice());
            prop_assert_eq!(relaid.coloring.palette(), direct.coloring.palette());
            prop_assert_eq!(relaid.stats.rounds, direct.stats.rounds);
        }
    }

    /// Theorem 5.2 (H-partition + intra/crossing stages) on an
    /// arboricity-bounded workload: the renamed run's edge coloring stays
    /// proper on the original and matches palette/round counts.
    #[test]
    fn theorem52_is_equivariant_under_renaming(seed in 0u64..500) {
        let g = generators::forest_union(150, 2, 6, seed).unwrap();
        let (_, h) = renamed_by_degree(&g);
        for threads in [1usize, 4] {
            let direct = rayon::with_num_threads(threads, || {
                theorem52(&g, 2, 2.5, SubroutineConfig::default()).unwrap()
            });
            let relaid = rayon::with_num_threads(threads, || {
                theorem52(&h, 2, 2.5, SubroutineConfig::default()).unwrap()
            });
            prop_assert!(relaid.coloring.is_proper(&g));
            prop_assert_eq!(relaid.coloring.palette(), direct.coloring.palette());
            prop_assert_eq!(relaid.stats.rounds, direct.stats.rounds);
        }
    }
}
