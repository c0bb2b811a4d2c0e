//! Criterion bench: design-choice ablations — fixed vs per-level/adaptive
//! t schedules and the Theorem 5.2 intra-set depth.

use criterion::{criterion_group, criterion_main, Criterion};
use decolor_bench::{arboricity_workload, regular_workload};
use decolor_core::arboricity::theorem52_on;
use decolor_core::cd_coloring::{cd_coloring, CdParams};
use decolor_core::delta_plus_one::SubroutineConfig;
use decolor_core::star_partition::{star_partition_edge_coloring, StarPartitionParams};
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

    let sp_fixed = StarPartitionParams::for_levels(&g, 2);
    group.bench_function("star_fixed_t", |b| {
        b.iter(|| star_partition_edge_coloring(&g, &sp_fixed).unwrap());
    });
    let sp_adaptive = StarPartitionParams {
        adaptive_t: true,
        ..sp_fixed
    };
    group.bench_function("star_adaptive_t", |b| {
        b.iter(|| star_partition_edge_coloring(&g, &sp_adaptive).unwrap());
    });

    let ga = arboricity_workload(300, 3, 10, 7);
    for intra in [1usize, 2] {
        group.bench_function(format!("t52_intra_levels_{intra}"), |b| {
            b.iter(|| theorem52_on(&ga, &ga, 3, 2.5, intra, SubroutineConfig::default()).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
