//! Criterion bench: connector construction costs across `t` (ablation A2)
//! — these are the O(1)-round local restructurings of the paper — and the
//! per-level cover bookkeeping of CD-Coloring at the size of the
//! repository benchmark's `cd-linegraph-mmap` input.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use decolor_core::cd_coloring::CdParams;
use decolor_core::connectors::clique::{clique_connector, clique_connector_on};
use decolor_core::connectors::edge::edge_connector;
use decolor_core::connectors::orientation::orientation_connector;
use decolor_graph::generators;
use decolor_graph::line_graph::{line_graph_cover, LineGraph};
use decolor_graph::subgraph::VertexSubsetView;

fn bench_connectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("connectors");
    let g = generators::random_regular(256, 16, 11).unwrap();
    let lg = LineGraph::new(&g);
    for t in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("clique_connector", t), &t, |b, &t| {
            b.iter(|| clique_connector(&lg.graph, &lg.cover, t).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("edge_connector", t), &t, |b, &t| {
            b.iter(|| edge_connector(&g, t).unwrap());
        });
    }
    let fg = generators::forest_union(400, 3, 8, 2).unwrap();
    let hp = decolor_core::h_partition::h_partition_for_arboricity(&fg, 3, 2.5).unwrap();
    let o = hp.orientation(&fg);
    group.bench_function("orientation_connector_shared", |b| {
        b.iter(|| orientation_connector(&fg, &o, 5, 3, false).unwrap());
    });
    group.bench_function("orientation_connector_bipartite", |b| {
        b.iter(|| orientation_connector(&fg, &o, 5, 3, true).unwrap());
    });
    group.finish();
}

/// The cover work of one CD-Coloring level on L(`random_regular(16384, 8)`)
/// (n = 65,536, m = 458,752, S = 8): the canonical cover, its restriction
/// to the level's subset view (the whole graph and one half), and the
/// clique connector built from it.
fn bench_cover_bookkeeping(c: &mut Criterion) {
    let mut group = c.benchmark_group("connectors");
    group.sample_size(10);
    let base = generators::random_regular(16_384, 8, 5).unwrap();
    let lg = LineGraph::new(&base);
    let t = CdParams::for_levels(lg.cover.max_clique_size(), 1).t;
    group.bench_function("line_graph_cover_cd", |b| {
        b.iter(|| line_graph_cover(&base).unwrap());
    });
    let full = VertexSubsetView::new(&lg.graph, lg.graph.vertices().collect()).unwrap();
    let half = VertexSubsetView::new(
        &lg.graph,
        lg.graph.vertices().filter(|v| v.index() % 2 == 0).collect(),
    )
    .unwrap();
    for (name, view) in [("full", &full), ("half", &half)] {
        group.bench_function(BenchmarkId::new("restrict_to_subset_cd", name), |b| {
            b.iter(|| lg.cover.restrict_to_subset(view));
        });
    }
    let local = lg.cover.restrict_to_subset(&full);
    group.bench_function("clique_connector_cd", |b| {
        b.iter(|| clique_connector_on(&full, &local, t).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_connectors, bench_cover_bookkeeping);
criterion_main!(benches);
