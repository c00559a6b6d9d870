//! Criterion micro-benchmark behind Figure 9: Louvain wall time under the
//! four application orderings on one large-suite instance — the actual
//! runtime effect of reordering on community detection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reorderlab_community::{louvain, LouvainConfig};
use reorderlab_core::Scheme;
use reorderlab_datasets::by_name;
use reorderlab_graph::build_pool;
use std::hint::black_box;

fn bench_louvain(c: &mut Criterion) {
    let g = by_name("livemocha").expect("instance in suite").generate();
    let mut group = c.benchmark_group("louvain_by_ordering");
    group.sample_size(10);
    for scheme in Scheme::application_suite() {
        let pi = scheme.reorder(&g);
        let h = g.permuted(&pi).expect("valid permutation");
        // First phase only (the paper's reported metric) via max_phases(1).
        let cfg = LouvainConfig::default().max_phases(1);
        group.bench_with_input(BenchmarkId::new("first_phase", scheme.name()), &h, |b, h| {
            b.iter(|| black_box(louvain(black_box(h), &cfg)))
        });
    }
    group.finish();
}

fn bench_louvain_serial_vs_parallel(c: &mut Criterion) {
    let g = by_name("livemocha").expect("instance in suite").generate();
    let mut group = c.benchmark_group("louvain_threads");
    group.sample_size(10);
    let cfg = LouvainConfig::default().max_phases(1);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &g, |b, g| {
            build_pool(threads).install(|| b.iter(|| black_box(louvain(black_box(g), &cfg))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_louvain, bench_louvain_serial_vs_parallel);
criterion_main!(benches);
