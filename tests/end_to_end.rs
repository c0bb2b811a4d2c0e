//! Cross-crate integration tests: the full pipelines a downstream user
//! would run, from generator to validated coloring.

use decolor::baselines::distributed::two_delta_minus_one_edge_coloring;
use decolor::baselines::greedy::{greedy_degeneracy_coloring, greedy_edge_coloring};
use decolor::baselines::misra_gries::misra_gries_edge_coloring;
use decolor::core::arboricity::{corollary55, theorem52, theorem53, theorem54};
use decolor::core::cd_coloring::{cd_coloring, cd_edge_coloring, CdParams};
use decolor::core::delta_plus_one::SubroutineConfig;
use decolor::core::star_partition::{star_partition_edge_coloring, StarPartitionParams};
use decolor::graph::generators;
use decolor::graph::line_graph::LineGraph;
use decolor::runtime::IdAssignment;

#[test]
fn every_edge_coloring_algorithm_agrees_on_properness() {
    let g = generators::gnm(120, 480, 1).unwrap();
    let delta = g.max_degree() as u64;

    let star = star_partition_edge_coloring(&g, &StarPartitionParams::for_levels(&g, 1)).unwrap();
    assert!(star.coloring.is_proper(&g));
    assert!(star.coloring.palette() <= 4 * delta);

    let params = CdParams::for_levels(g.max_degree(), 1);
    let (cd, _) = cd_edge_coloring(&g, &params, None).unwrap();
    assert!(cd.is_proper(&g));

    let (base, _) = two_delta_minus_one_edge_coloring(&g).unwrap();
    assert!(base.is_proper(&g));
    assert_eq!(base.palette(), 2 * delta - 1);

    let vizing = misra_gries_edge_coloring(&g);
    assert!(vizing.is_proper(&g));
    assert!(vizing.palette() <= delta + 1);

    let greedy = greedy_edge_coloring(&g);
    assert!(greedy.is_proper(&g));

    // Color-count ordering: Vizing ≤ greedy ≤ star partition palette.
    assert!(vizing.palette() <= greedy.palette());
    assert!(greedy.palette() <= star.coloring.palette());
}

#[test]
fn color_rounds_tradeoff_matches_table1_shape() {
    // The paper's headline: permitting 4Δ (and 8Δ) colors buys much
    // faster algorithms than (2Δ − 1).
    let g = generators::random_regular(256, 32, 2).unwrap();
    let (_, base_stats) = two_delta_minus_one_edge_coloring(&g).unwrap();
    let x1 = star_partition_edge_coloring(&g, &StarPartitionParams::for_levels(&g, 1)).unwrap();
    assert!(
        x1.stats.rounds < base_stats.rounds,
        "4Δ ({} rounds) must beat 2Δ−1 ({} rounds)",
        x1.stats.rounds,
        base_stats.rounds
    );
}

#[test]
fn diversity_pipeline_hypergraph_to_schedule() {
    let h = generators::random_uniform_hypergraph(200, 160, 3, 8, 4).unwrap();
    let lg = h.line_graph();
    assert!(lg.cover.diversity() <= 3);
    let ids = IdAssignment::shuffled(lg.graph.num_vertices(), 4);
    let params = CdParams::for_levels(lg.cover.max_clique_size().max(2), 2);
    let res = cd_coloring(&lg.graph, &lg.cover, &params, &ids).unwrap();
    assert!(res.coloring.is_proper(&lg.graph));
    // Vertex coloring of the line graph == valid hyperedge schedule:
    // hyperedges sharing a vertex get distinct colors.
    for v in 0..h.num_vertices() {
        let mut seen = std::collections::HashSet::new();
        for &e in h.hyperedges_of(v) {
            assert!(
                seen.insert(res.coloring.color(decolor::graph::VertexId::new(e))),
                "conflicting hyperedges {:?} share vertex {v}",
                h.hyperedges_of(v)
            );
        }
    }
}

#[test]
fn section5_stack_on_planar_like_graph() {
    let g = generators::grid(20, 25).unwrap(); // arboricity ≤ 2
    let cfg = SubroutineConfig::default();
    for coloring in [
        theorem52(&g, 2, 2.5, cfg).unwrap().coloring,
        theorem53(&g, 2, 2.5, cfg).unwrap().coloring,
        theorem54(&g, 2, 2.5, 2, cfg).unwrap().coloring,
        corollary55(&g, 2, cfg).unwrap().0.coloring,
    ] {
        assert!(coloring.is_proper(&g));
    }
}

#[test]
fn theorem52_beats_star_partition_on_colors_for_sparse_graphs() {
    // The Δ + O(a) guarantee is the point of Section 5: far fewer colors
    // than 4Δ when a ≪ Δ.
    let g = generators::forest_union(600, 2, 24, 5).unwrap();
    let t52 = theorem52(&g, 2, 2.5, SubroutineConfig::default()).unwrap();
    let star = star_partition_edge_coloring(&g, &StarPartitionParams::for_levels(&g, 1)).unwrap();
    assert!(
        t52.coloring.palette() < star.coloring.palette(),
        "Δ+O(a) = {} should beat 4Δ-ish = {}",
        t52.coloring.palette(),
        star.coloring.palette()
    );
}

#[test]
fn vertex_coloring_of_line_graph_is_edge_coloring() {
    let g = generators::gnm(60, 200, 6).unwrap();
    let lg = LineGraph::new(&g);
    let ids = IdAssignment::sequential(lg.graph.num_vertices());
    let res = cd_coloring(
        &lg.graph,
        &lg.cover,
        &CdParams::for_levels(g.max_degree(), 1),
        &ids,
    )
    .unwrap();
    let ec = lg.to_edge_coloring(&res.coloring).unwrap();
    assert!(ec.is_proper(&g));
}

#[test]
fn greedy_degeneracy_on_generated_families() {
    for g in [
        generators::random_tree(300, 1).unwrap(),
        generators::grid(15, 15).unwrap(),
        generators::forest_union(200, 3, 6, 2).unwrap(),
    ] {
        let c = greedy_degeneracy_coloring(&g);
        assert!(c.is_proper(&g));
        let degeneracy = decolor::graph::properties::degeneracy_ordering(&g).degeneracy;
        assert!(c.distinct_colors() <= degeneracy + 1);
    }
}
