//! Criterion micro-benchmark behind Figures 10/12: throughput of the
//! trace-driven hierarchy simulator on both replay kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use reorderlab_core::Scheme;
use reorderlab_datasets::by_name;
use reorderlab_memsim::{replay_louvain_scan, replay_rr_sampling, Hierarchy, HierarchyConfig};
use std::hint::black_box;

fn bench_louvain_replay(c: &mut Criterion) {
    let g = by_name("delaunay_n14").expect("instance in suite").generate();
    let loads = g.num_vertices() as u64 + 3 * g.num_arcs() as u64;
    let mut group = c.benchmark_group("memsim_louvain_replay");
    group.sample_size(10);
    group.throughput(Throughput::Elements(loads));
    for scheme in [Scheme::Natural, Scheme::Rcm, Scheme::Grappolo] {
        let pi = scheme.reorder(&g);
        let h = g.permuted(&pi).expect("valid permutation");
        group.bench_with_input(BenchmarkId::from_parameter(scheme.name()), &h, |b, h| {
            b.iter(|| {
                let mut hier = Hierarchy::new(HierarchyConfig::cascade_lake());
                replay_louvain_scan(black_box(h), 4096, &mut hier);
                black_box(hier.report())
            })
        });
    }
    group.finish();
}

fn bench_rr_replay(c: &mut Criterion) {
    let g = by_name("delaunay_n14").expect("instance in suite").generate();
    let mut group = c.benchmark_group("memsim_rr_replay");
    group.sample_size(10);
    group.bench_function("ic_p025_16sets", |b| {
        b.iter(|| {
            let mut hier = Hierarchy::new(HierarchyConfig::cascade_lake());
            let labels: Vec<u32> = (0..g.num_vertices() as u32).collect();
            replay_rr_sampling(black_box(&g), &labels, 0.25, 16, 3, &mut hier);
            black_box(hier.report())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_louvain_replay, bench_rr_replay);
criterion_main!(benches);
