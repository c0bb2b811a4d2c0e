//! Spot checks of each theorem's quantitative claim at moderate scale —
//! the integration-level counterpart of EXPERIMENTS.md.

use decolor::core::analysis;
use decolor::core::arboricity::{theorem52, theorem53, theorem54};
use decolor::core::cd_coloring::{cd_coloring, CdParams};
use decolor::core::delta_plus_one::SubroutineConfig;
use decolor::core::linial::{final_palette_bound, linial_coloring};
use decolor::core::star_partition::{star_partition_edge_coloring, StarPartitionParams};
use decolor::graph::generators;
use decolor::graph::line_graph::LineGraph;
use decolor::runtime::{IdAssignment, Network};

#[test]
fn linial_log_star_rounds_scale() {
    // The round count stays ~constant while n grows 64×: the log* n signature.
    let mut rounds = Vec::new();
    for n in [256usize, 2048, 16384] {
        let g = generators::random_regular(n, 4, 1).unwrap();
        let mut net = Network::new(&g);
        let ids = IdAssignment::shuffled(n, 2);
        let res = linial_coloring(&mut net, &ids).unwrap();
        assert!(res.coloring.is_proper(&g));
        assert!(res.coloring.palette() <= final_palette_bound(4));
        rounds.push(net.stats().rounds);
    }
    assert!(
        rounds.iter().max().unwrap() - rounds.iter().min().unwrap() <= 2,
        "rounds should be ~flat in n: {rounds:?}"
    );
}

#[test]
fn theorem_4_1_row_x1_exact() {
    // Table 1 row 1: 4Δ colors.
    let g = generators::random_regular(256, 25, 3).unwrap();
    let res = star_partition_edge_coloring(&g, &StarPartitionParams::for_levels(&g, 1)).unwrap();
    assert!(res.coloring.palette() <= analysis::table1_ours_colors(25, 1));
}

#[test]
fn theorem_3_3_table2_rows() {
    // D^{x+1}S for the line graph of a Δ-regular graph: S = Δ, D = 2.
    let g = generators::random_regular(128, 16, 4).unwrap();
    let lg = LineGraph::new(&g);
    let ids = IdAssignment::sequential(lg.graph.num_vertices());
    for x in 1..=3usize {
        let params = CdParams::for_levels(16, x);
        let res = cd_coloring(&lg.graph, &lg.cover, &params, &ids).unwrap();
        let bound = analysis::table2_ours_colors(2, 16, x as u32);
        assert!(
            res.coloring.palette() <= bound,
            "x = {x}: palette {} > D^{}S = {bound}",
            res.coloring.palette(),
            x + 1
        );
    }
}

#[test]
fn theorem_5_2_delta_plus_o_a() {
    let g = generators::forest_union(800, 2, 32, 5).unwrap();
    let delta = g.max_degree() as u64;
    let res = theorem52(&g, 2, 2.5, SubroutineConfig::default()).unwrap();
    assert!(res.coloring.palette() <= analysis::theorem52_palette(delta, 2, 2.5));
    // The excess over Δ is O(a), independent of Δ.
    assert!(res.coloring.palette() - delta <= 20);
}

#[test]
fn theorem_5_3_and_5_4_within_analytic_bounds() {
    let g = generators::forest_union(500, 2, 24, 6).unwrap();
    let delta = g.max_degree() as u64;
    let cfg = SubroutineConfig::default();
    let t53 = theorem53(&g, 2, 2.5, cfg).unwrap();
    assert!(t53.coloring.palette() <= analysis::theorem53_palette(delta, 2, 2.5));
    for x in 2..=3usize {
        let t54 = theorem54(&g, 2, 2.5, x, cfg).unwrap();
        let bound = analysis::theorem54_palette(delta, 2, 2.5, x as u32);
        // theorem54's final level runs Theorem 5.2 whose 4d + 1 intra
        // term can exceed the pure formula at tiny scale; factor-2 slack.
        assert!(
            t54.coloring.palette() <= 2 * bound,
            "x = {x}: {} > 2·{bound}",
            t54.coloring.palette()
        );
    }
}

#[test]
fn rounds_shrink_as_x_grows_table1_shape() {
    // The fundamental tradeoff of Table 1, measured.
    let g = generators::random_regular(512, 64, 7).unwrap();
    let mut prev_rounds = u64::MAX;
    let mut violations = 0;
    for x in 1..=3usize {
        let res =
            star_partition_edge_coloring(&g, &StarPartitionParams::for_levels(&g, x)).unwrap();
        if res.stats.rounds > prev_rounds {
            violations += 1;
        }
        prev_rounds = res.stats.rounds;
    }
    // Allow one inversion from rounding of t, but the trend must hold.
    assert!(violations <= 1, "round counts did not trend down with x");
}
