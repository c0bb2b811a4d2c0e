//! Criterion bench for Section 5: the Δ + o(Δ) colorings on
//! bounded-arboricity workloads, and the H-partition and Theorem 5.2 at
//! the size of the repository benchmark's `t52-powerlaw` input.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use decolor_bench::arboricity_workload;
use decolor_core::arboricity::{theorem52, theorem53, theorem54};
use decolor_core::delta_plus_one::SubroutineConfig;
use decolor_core::h_partition::h_partition;
use decolor_graph::generators;

fn bench_section5(c: &mut Criterion) {
    let mut group = c.benchmark_group("section5");
    group.sample_size(10);
    let cfg = SubroutineConfig::default();
    let g = arboricity_workload(400, 2, 16, 9);
    group.bench_function("theorem52", |b| {
        b.iter(|| theorem52(&g, 2, 2.5, cfg).unwrap());
    });
    group.bench_function("theorem53", |b| {
        b.iter(|| theorem53(&g, 2, 2.5, cfg).unwrap());
    });
    for x in [2usize, 3] {
        group.bench_with_input(BenchmarkId::new("theorem54", x), &x, |b, &x| {
            b.iter(|| theorem54(&g, 2, 2.5, x, cfg).unwrap());
        });
    }
    group.finish();
}

/// Theorem 5.2 on `barabasi_albert(32768, 2, 1)` (a = 2, q = 2.5, so the
/// peeling threshold is d = 5): the H-partition alone, and the whole call
/// with its crossing stages.
fn bench_t52_powerlaw(c: &mut Criterion) {
    let mut group = c.benchmark_group("section5_arboricity");
    group.sample_size(10);
    let g = generators::barabasi_albert(32_768, 2, 1).unwrap();
    group.bench_function("h_partition_ba", |b| {
        b.iter(|| h_partition(&g, 5).unwrap());
    });
    group.bench_function("theorem52_ba", |b| {
        b.iter(|| theorem52(&g, 2, 2.5, SubroutineConfig::default()).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_section5, bench_t52_powerlaw);
criterion_main!(benches);
