//! Criterion bench: design-choice ablation — CD-Coloring's fixed group
//! size `t` (the paper's choice) against a per-level `t` schedule.

use criterion::{criterion_group, criterion_main, Criterion};
use decolor_bench::regular_workload;
use decolor_core::cd_coloring::{cd_coloring, CdParams};
use decolor_graph::line_graph::LineGraph;
use decolor_runtime::IdAssignment;

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    let g = regular_workload(128, 16, 5);
    let lg = LineGraph::new(&g);
    let ids = IdAssignment::sequential(lg.graph.num_vertices());
    let fixed = CdParams::for_levels(lg.cover.max_clique_size(), 2);
    group.bench_function("cd_fixed_t", |b| {
        b.iter(|| cd_coloring(&lg.graph, &lg.cover, &fixed, &ids).unwrap());
    });
    let per_level = CdParams {
        per_level_t: true,
        ..fixed
    };
    group.bench_function("cd_per_level_t", |b| {
        b.iter(|| cd_coloring(&lg.graph, &lg.cover, &per_level, &ids).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
