//! Criterion bench: the subroutine stack (ablation A1) — Linial and the
//! two reduction strategies standing in for \[17\] — and the input and
//! output checks every edge-coloring entry point runs, at the size of the
//! repository benchmark's `star-regular16` input, and the two Linial round
//! kernels (edge agents, vertex agents) on their own.

use criterion::{criterion_group, criterion_main, Criterion};
use decolor_core::connectors::edge::edge_connector_graph_on;
use decolor_core::delta_plus_one::{
    delta_plus_one_coloring, ReductionStrategy, Seed, SubroutineConfig,
};
use decolor_core::edge_space::edge_coloring_direct;
use decolor_core::linial::linial_coloring;
use decolor_graph::coloring::EdgeColoring;
use decolor_graph::line_graph::LineGraph;
use decolor_graph::subgraph::{EdgeSubgraphView, GraphView};
use decolor_graph::{generators, EdgeId};
use decolor_runtime::{IdAssignment, Network};

fn bench_subroutines(c: &mut Criterion) {
    let mut group = c.benchmark_group("subroutines");
    group.sample_size(10);
    let g = generators::random_regular(512, 8, 13).unwrap();
    let ids = IdAssignment::shuffled(512, 1);
    group.bench_function("linial", |b| {
        b.iter(|| linial_coloring(&mut Network::new(&g), &ids).unwrap());
    });
    group.bench_function("delta_plus_one_kw", |b| {
        b.iter(|| {
            delta_plus_one_coloring(&g, Seed::Ids(&ids), SubroutineConfig::default()).unwrap()
        });
    });
    group.bench_function("delta_plus_one_basic", |b| {
        b.iter(|| {
            delta_plus_one_coloring(
                &g,
                Seed::Ids(&ids),
                SubroutineConfig {
                    reduction: ReductionStrategy::Basic,
                },
            )
            .unwrap()
        });
    });
    group.bench_function("baseline_misra_gries", |b| {
        b.iter(|| decolor_baselines::misra_gries::misra_gries_edge_coloring(&g));
    });
    group.bench_function("baseline_greedy_edge", |b| {
        b.iter(|| decolor_baselines::greedy::greedy_edge_coloring(&g));
    });
    group.bench_function("baseline_randomized_edge", |b| {
        b.iter(|| decolor_baselines::randomized::randomized_edge_coloring(&g, 15, 3).unwrap());
    });
    group.finish();
}

/// The simple-graph precondition and the properness check on
/// `random_regular(16384, 16)` (m = 131,072), over the whole graph and
/// over one color-class view.
fn bench_checks(c: &mut Criterion) {
    let mut group = c.benchmark_group("subroutines");
    group.sample_size(10);
    let g = generators::random_regular(16_384, 16, 5).unwrap();
    let coloring = decolor_baselines::greedy::greedy_edge_coloring(&g);
    group.bench_function("has_parallel_edges_star", |b| {
        b.iter(|| g.has_parallel_edges());
    });
    group.bench_function("edge_coloring_validate_star", |b| {
        b.iter(|| coloring.validate(&g).unwrap());
    });
    let class: Vec<EdgeId> = g.edges().filter(|e| e.index() % 7 == 0).collect();
    let view = EdgeSubgraphView::new(&g, class).unwrap();
    let on_view = EdgeColoring::new(
        (0..view.num_edges())
            .map(|e| coloring.color(view.to_parent_edge(EdgeId::new(e))))
            .collect(),
        coloring.palette(),
    )
    .unwrap();
    group.bench_function("edge_coloring_first_violation_class_view", |b| {
        b.iter(|| on_view.first_violation(&view));
    });
    group.finish();
}

/// The two Linial round kernels at the repository benchmark's sizes: edge
/// agents on the star partition's connector of `random_regular(16384, 16)`
/// (t = 4, so Δ ≤ 4, colored at 2Δ − 1 = 7), and vertex agents on the
/// line graph of `random_regular(16384, 8)` from sequential ids.
fn bench_linial_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("subroutines");
    group.sample_size(10);
    let g = generators::random_regular(16_384, 16, 5).unwrap();
    let connector = edge_connector_graph_on(&g, 4).unwrap();
    group.bench_function("edge_space_connector", |b| {
        b.iter(|| edge_coloring_direct(&connector, 7, SubroutineConfig::default()).unwrap());
    });
    let lg = LineGraph::new(&generators::random_regular(16_384, 8, 5).unwrap());
    let ids = IdAssignment::sequential(lg.graph.num_vertices());
    group.bench_function("linial_line_graph", |b| {
        b.iter(|| linial_coloring(&mut Network::new(&lg.graph), &ids).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_subroutines,
    bench_checks,
    bench_linial_kernels
);
criterion_main!(benches);
