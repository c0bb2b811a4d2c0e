//! **Paper-bounds conformance suite**: for a grid of (n, Δ, D, S, a)
//! workloads, the measured palette sizes and round counts of every
//! pipeline must stay within the paper's analytic bounds — the *same*
//! formulas (`decolor_core::analysis`, `linial::final_palette_bound`) the
//! bench bins record into `target/experiments.jsonl` and
//! `experiments_report` diffs in EXPERIMENTS.md. A bound violation here
//! fails `cargo test` instead of only being flagged in a report.
//!
//! Palette bounds are asserted **exactly** (they are theorems, not
//! estimates). Round counts are stated by the paper only up to Õ(·), so
//! each is asserted against its analytic *shape* times an explicit slack
//! constant; the constants are fixed here and shared by every grid row,
//! so a regression that changes the round *shape* (not just a constant)
//! trips the suite.

use std::path::Path;

use decolor_core::algorithms::Algorithm;
use decolor_core::analysis;
use decolor_core::cd_coloring::{cd_coloring, CdParams};
use decolor_core::linial::{final_palette_bound, linial_coloring};
use decolor_graph::line_graph::LineGraph;
use decolor_graph::subgraph::GraphView;
use decolor_graph::{generators, Graph};
use decolor_runtime::{IdAssignment, Network};

/// Iterated logarithm (the paper's log*), matching `util::log_star`'s
/// definition: iterations of log₂ until the value drops to ≤ 1.
fn log_star(mut x: f64) -> u64 {
    let mut it = 0u64;
    while x > 1.0 {
        x = x.log2();
        it += 1;
    }
    it
}

/// Õ(·) slack multipliers for the round-count assertions (see module
/// docs). One constant per pipeline, shared across the whole grid.
const LINIAL_ROUND_SLACK: u64 = 3; // additive: rounds ≤ log*(id space) + 3
const STAR_ROUND_SLACK: f64 = 48.0;
const T52_ROUND_SLACK: f64 = 16.0;
const T53_ROUND_SLACK: f64 = 24.0;
const T54_ROUND_SLACK: f64 = 24.0;
const CD_ROUND_SLACK: f64 = 48.0;

#[test]
fn linial_palette_and_rounds_within_bounds() {
    // Grid over (n, Δ): the bound is the O(Δ²) fixed point and the
    // O(log* n) round count, measured from a sparse adversarial ID space
    // exactly like the `scaling` Linial row.
    for (n, d, seed) in [
        (256usize, 4usize, 1u64),
        (1024, 8, 2),
        (4096, 8, 3),
        (4096, 16, 4),
        (16384, 32, 5),
    ] {
        let g = generators::random_regular(n, d, seed).unwrap();
        let stride = (u64::from(u32::MAX) / n as u64).min(1 << 16);
        let ids = IdAssignment::sparse(n, stride, 2);
        let mut net = Network::new(&g);
        let res = linial_coloring(&mut net, &ids).unwrap();
        assert!(res.coloring.is_proper(&g));
        let bound = final_palette_bound(g.max_degree());
        assert!(
            res.coloring.palette() <= bound,
            "n = {n}, Δ = {d}: palette {} exceeds O(Δ²) bound {bound}",
            res.coloring.palette()
        );
        let round_bound = log_star(ids.id_space() as f64) + LINIAL_ROUND_SLACK;
        assert!(
            net.stats().rounds <= round_bound,
            "n = {n}, Δ = {d}: {} rounds exceed log* bound {round_bound}",
            net.stats().rounds
        );
    }
}

/// The Õ(·) slack of an [`Algorithm`] table entry's round shape.
fn round_slack(algo: &Algorithm) -> f64 {
    match algo {
        Algorithm::Star { .. } => STAR_ROUND_SLACK,
        Algorithm::Cd { .. } => CD_ROUND_SLACK,
        Algorithm::T52 { .. } => T52_ROUND_SLACK,
        Algorithm::T53 { .. } => T53_ROUND_SLACK,
        Algorithm::T54 { .. } | Algorithm::C55 { .. } => T54_ROUND_SLACK,
    }
}

/// Runs `algo` on `view` (a ram graph or its mmap spill, with `scratch`
/// for the spilled paths) and asserts the coloring proper on `g` and
/// within the table's palette bound and slack × round shape.
fn assert_within_bounds<V: GraphView + Sync>(
    algo: Algorithm,
    g: &Graph,
    view: &V,
    scratch: Option<&Path>,
) {
    let (n, delta) = (g.num_vertices(), g.max_degree());
    let (coloring, stats) = algo.run(view, scratch).unwrap();
    assert!(coloring.is_proper(g), "{algo}: improper");
    let bound = algo.palette_bound(delta);
    assert!(
        coloring.palette() <= bound,
        "{algo}, n = {n}, Δ = {delta}: palette {} exceeds {} = {bound}",
        coloring.palette(),
        algo.claim()
    );
    let round_bound = (round_slack(&algo) * algo.round_shape(n, delta)).ceil() as u64;
    assert!(
        stats.rounds <= round_bound,
        "{algo}, n = {n}, Δ = {delta}: {} rounds exceed shape bound {round_bound}",
        stats.rounds
    );
}

#[test]
fn star_partition_palette_and_rounds_within_bounds() {
    // Grid over (n, Δ, x): Theorem 4.1's 2^{x+1}Δ colors in
    // Õ(x·Δ^{1/(2x+2)}) + O(log* n) rounds.
    for (n, d, x, seed) in [
        (256usize, 8usize, 1usize, 1u64),
        (1024, 8, 1, 2),
        (1024, 16, 2, 3),
        (4096, 16, 1, 4),
        (2048, 32, 3, 5),
    ] {
        let g = generators::random_regular(n, d, seed).unwrap();
        assert_within_bounds(Algorithm::Star { x }, &g, &g, None);
    }
}

fn arboricity_grid() -> Vec<(Graph, usize)> {
    vec![
        (generators::forest_union(512, 2, 8, 1).unwrap(), 2),
        (generators::forest_union(2048, 2, 12, 2).unwrap(), 2),
        (generators::forest_union(1024, 4, 8, 3).unwrap(), 4),
        (generators::grid(40, 40).unwrap(), 2),
        (generators::random_tree(1500, 4).unwrap(), 1),
    ]
}

/// Theorems 5.2, 5.3 and 5.4 (x ∈ {2, 3}) over the arboricity grid.
/// Theorem 5.4's closed form covers the connector levels; the final
/// Theorem 5.2 stage contributes its own factor (the paper folds it into
/// the +3 per level asymptotically; at these laptop-scale Δ the table's
/// explicit factor-2 slack applies).
#[test]
fn section5_palette_and_rounds_within_bounds() {
    for (g, a) in arboricity_grid() {
        for algo in [
            Algorithm::T52 { a, q: 2.5 },
            Algorithm::T53 { a, q: 2.5 },
            Algorithm::T54 { a, q: 2.5, x: 2 },
            Algorithm::T54 { a, q: 2.5, x: 3 },
        ] {
            assert_within_bounds(algo, &g, &g, None);
        }
    }
}

/// The same analytic bounds hold when the pipelines run over the mmap
/// backend — t53/t54 on a spilled CSR root, and the streamed star
/// connector / cd line-graph paths (the scaling bench's mmap rows).
/// Equality with the ram results is pinned by the backend-equivalence
/// suite; this asserts the paper bounds directly on the mmap outputs.
#[test]
fn bounds_hold_on_mmap_backend() {
    let root =
        decolor_graph::storage::ScratchDir::new(&std::env::temp_dir(), "decolor-bounds-mmap");
    let cases = [
        (
            generators::forest_union(1024, 2, 8, 1).unwrap(),
            [
                Algorithm::T53 { a: 2, q: 2.5 },
                Algorithm::T54 { a: 2, q: 2.5, x: 2 },
            ],
        ),
        (
            generators::random_regular(256, 8, 1).unwrap(),
            [Algorithm::Star { x: 1 }, Algorithm::Cd { x: 1 }],
        ),
    ];
    for (i, (g, algos)) in cases.iter().enumerate() {
        let dir = root.join(i.to_string());
        let sc = decolor_graph::storage::ShardedCsr::from_graph(dir.join("input"), g).unwrap();
        for algo in algos {
            assert_within_bounds(*algo, g, &sc, Some(&dir));
        }
    }
}

#[test]
fn cd_coloring_palette_and_rounds_within_bounds() {
    // Grid over (n, D, S): line graphs of d-regular graphs give D = 2,
    // S = d; a 3-uniform hypergraph line graph gives D = 3.
    let mut cases: Vec<(decolor_graph::Graph, decolor_graph::cliques::CliqueCover)> = Vec::new();
    for (base_n, d, seed) in [(64usize, 8usize, 1u64), (256, 8, 2), (128, 16, 3)] {
        let base = generators::random_regular(base_n, d, seed).unwrap();
        let lg = LineGraph::new(&base);
        cases.push((lg.graph, lg.cover));
    }
    let h = generators::random_uniform_hypergraph(120, 90, 3, 8, 4).unwrap();
    let lg = h.line_graph();
    cases.push((lg.graph, lg.cover));

    for (g, cover) in &cases {
        for x in [1usize, 2] {
            let n = g.num_vertices();
            let d = cover.diversity() as u64;
            let s = cover.max_clique_size() as u64;
            let params = CdParams::for_levels(s as usize, x);
            let ids = IdAssignment::sequential(n);
            let res = cd_coloring(g, cover, &params, &ids).unwrap();
            assert!(res.coloring.is_proper(g));
            // The realized product bound is itself bounded by the exact
            // per-level palette product of Algorithm 1 (what `scaling`
            // records as the cd row's analytic column).
            let product = analysis::cd_palette_product(d, s, params.t as u64, x as u32);
            assert!(
                res.coloring.palette() <= res.palette_bound,
                "n = {n}, D = {d}, S = {s}, x = {x}: palette {} exceeds realized bound {}",
                res.coloring.palette(),
                res.palette_bound
            );
            assert!(
                res.palette_bound <= product,
                "n = {n}, D = {d}, S = {s}, x = {x}: realized bound {} exceeds product {product}",
                res.palette_bound
            );
            let shape = analysis::table2_ours_time(d, s, x as u32, n as u64);
            let round_bound = (CD_ROUND_SLACK * shape).ceil() as u64;
            assert!(
                res.stats.rounds <= round_bound,
                "n = {n}, D = {d}, S = {s}, x = {x}: {} rounds exceed shape bound {round_bound}",
                res.stats.rounds
            );
        }
    }
}
