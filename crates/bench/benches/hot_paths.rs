//! Criterion regression gate for the optimized hot paths:
//!
//! 1. the Louvain move phase (one phase of the packed scatter scan);
//! 2. the gap/bandwidth measure sweep (parallel row reductions);
//! 3. CSR relabeling (`permuted`) and transposition (`transposed`);
//! 4. RR-set sampling with a reusable scratch vs per-sample allocation;
//! 5. the parallel reordering kernels vs their retained serial oracles
//!    (`reorder_parallel`): RCM's level gather + packed keys, SlashBurn's
//!    linear-time top-k hub extraction, Rabbit's speculative batched scan,
//!    and the k-way refinement's epoch-stamped scatter connectivity vs the
//!    HashMap connectivity it replaced.
//!
//! Run with `cargo bench -p reorderlab-bench --bench hot_paths`. The
//! before/after numbers recorded in `results/hot_paths.txt` come from this
//! bench; the alloc-sampling and serial-oracle entries *are* the "before",
//! kept runnable so regressions in either direction stay visible.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reorderlab_community::{louvain, LouvainConfig};
use reorderlab_core::measures::{edge_gaps, gap_measures, vertex_bandwidths};
use reorderlab_datasets::by_name;
use reorderlab_graph::{build_pool, Csr, Permutation};
use reorderlab_influence::{DiffusionModel, RrSampler, SampleScratch};
use std::hint::black_box;

/// The large-suite instance all hot-path benches run on (the same one the
/// Figure 9/10 Louvain benches use).
fn instance() -> Csr {
    by_name("livemocha").expect("instance in suite").generate()
}

/// A deterministic non-trivial permutation for the relabel benches.
fn shuffled_perm(n: usize, mut s: u64) -> Permutation {
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..order.len()).rev() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (s >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    Permutation::from_order(&order).expect("shuffled identity is a permutation")
}

fn bench_louvain_move_kernel(c: &mut Criterion) {
    let g = instance();
    let mut group = c.benchmark_group("louvain_move_kernel");
    group.sample_size(10);
    let cfg = LouvainConfig::default().max_phases(1);
    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("packed", format!("{threads}t")), &g, |b, g| {
            build_pool(threads).install(|| b.iter(|| black_box(louvain(black_box(g), &cfg))))
        });
    }
    group.finish();
}

fn bench_gap_measures(c: &mut Criterion) {
    let g = instance();
    let pi = shuffled_perm(g.num_vertices(), 17);
    let mut group = c.benchmark_group("gap_measures");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("measures"), &g, |b, g| {
        b.iter(|| black_box(gap_measures(black_box(g), &pi)))
    });
    group.bench_with_input(BenchmarkId::from_parameter("edge_gaps"), &g, |b, g| {
        b.iter(|| black_box(edge_gaps(black_box(g), &pi)))
    });
    group.bench_with_input(BenchmarkId::from_parameter("bandwidths"), &g, |b, g| {
        b.iter(|| black_box(vertex_bandwidths(black_box(g), &pi)))
    });
    group.finish();
}

fn bench_relabel(c: &mut Criterion) {
    let g = instance();
    let pi = shuffled_perm(g.num_vertices(), 29);
    let mut group = c.benchmark_group("relabel");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("permuted"), &g, |b, g| {
        b.iter(|| black_box(g.permuted(&pi).expect("valid permutation")))
    });
    // `transposed` is the identity clone for undirected graphs; bench it on
    // a directed version of the same arc structure.
    let directed = {
        let mut builder = reorderlab_graph::GraphBuilder::directed(g.num_vertices());
        for (u, v, _) in g.edges() {
            builder = builder.edge(u, v).edge(v, u);
        }
        builder.build().expect("mirror arcs build")
    };
    group.bench_with_input(BenchmarkId::from_parameter("transposed"), &directed, |b, g| {
        b.iter(|| black_box(g.transposed()))
    });
    group.finish();
}

fn bench_rr_sampling(c: &mut Criterion) {
    let g = instance();
    let model = DiffusionModel::IndependentCascade { probability: 0.02 };
    let mut group = c.benchmark_group("rr_sampling");
    group.sample_size(10);
    const SETS: u64 = 512;
    let sampler = RrSampler::new(&g, model);
    group.bench_function(BenchmarkId::from_parameter("scratch"), |b| {
        let mut scratch = SampleScratch::new(sampler.num_vertices());
        b.iter(|| {
            let mut visited = 0u64;
            for i in 0..SETS {
                let (_, t) = sampler.sample_with(7, i, &mut scratch);
                visited += t.vertices_visited;
            }
            black_box(visited)
        })
    });
    group.bench_function(BenchmarkId::from_parameter("alloc"), |b| {
        b.iter(|| {
            let mut visited = 0u64;
            for i in 0..SETS {
                let (_, t) = sampler.sample(7, i);
                visited += t.vertices_visited;
            }
            black_box(visited)
        })
    });
    group.finish();
}

/// The `HashMap`-connectivity k-way refinement this PR replaced with the
/// epoch-stamped scatter array — kept here as the runnable "before" for the
/// `reorder_parallel/kway_refine` comparison (semantics match up to the
/// candidate iteration order feeding the epsilon tie-break).
fn kway_refine_hashmap_before(
    graph: &Csr,
    assignment: &mut [u32],
    num_parts: usize,
    vertex_weights: &[f64],
    epsilon: f64,
    max_passes: usize,
) -> usize {
    use std::collections::HashMap;
    let n = graph.num_vertices();
    let total: f64 = vertex_weights.iter().sum();
    let cap = (1.0 + epsilon) * total / num_parts as f64;
    let mut part_weight = vec![0.0f64; num_parts];
    for (v, &p) in assignment.iter().enumerate() {
        part_weight[p as usize] += vertex_weights[v];
    }
    let mut total_moves = 0usize;
    let mut conn: HashMap<u32, f64> = HashMap::new();
    for _ in 0..max_passes {
        let mut moves = 0usize;
        for v in 0..n as u32 {
            let cur = assignment[v as usize];
            conn.clear();
            for (u, w) in graph.weighted_neighbors(v) {
                if u != v {
                    *conn.entry(assignment[u as usize]).or_insert(0.0) += w;
                }
            }
            let here = conn.get(&cur).copied().unwrap_or(0.0);
            let mut best: Option<(f64, u32)> = None;
            for (&p, &w) in conn.iter() {
                if p == cur {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bw, bp)) => w > bw + 1e-12 || ((w - bw).abs() <= 1e-12 && p < bp),
                };
                if better {
                    best = Some((w, p));
                }
            }
            if let Some((w, p)) = best {
                let vw = vertex_weights[v as usize];
                if w > here + 1e-12 && part_weight[p as usize] + vw <= cap {
                    part_weight[cur as usize] -= vw;
                    part_weight[p as usize] += vw;
                    assignment[v as usize] = p;
                    moves += 1;
                }
            }
        }
        total_moves += moves;
        if moves == 0 {
            break;
        }
    }
    total_moves
}

fn bench_reorder_parallel(c: &mut Criterion) {
    use reorderlab_core::schemes::{
        rabbit_order, rabbit_order_serial, rcm_order, rcm_order_serial, slashburn_order,
        slashburn_order_serial,
    };
    use reorderlab_partition::{kway_refine, partition_kway, PartitionConfig};

    let g = instance();
    let mut group = c.benchmark_group("reorder_parallel");
    group.sample_size(10);

    group.bench_with_input(BenchmarkId::new("rcm", "parallel"), &g, |b, g| {
        b.iter(|| black_box(rcm_order(black_box(g))))
    });
    group.bench_with_input(BenchmarkId::new("rcm", "serial"), &g, |b, g| {
        b.iter(|| black_box(rcm_order_serial(black_box(g))))
    });

    group.bench_with_input(BenchmarkId::new("slashburn", "parallel"), &g, |b, g| {
        b.iter(|| black_box(slashburn_order(black_box(g), 0.005)))
    });
    group.bench_with_input(BenchmarkId::new("slashburn", "serial"), &g, |b, g| {
        b.iter(|| black_box(slashburn_order_serial(black_box(g), 0.005)))
    });

    group.bench_with_input(BenchmarkId::new("rabbit", "parallel"), &g, |b, g| {
        b.iter(|| black_box(rabbit_order(black_box(g))))
    });
    group.bench_with_input(BenchmarkId::new("rabbit", "serial"), &g, |b, g| {
        b.iter(|| black_box(rabbit_order_serial(black_box(g))))
    });

    // Full multilevel pipeline (matching + contraction + refinement).
    let cfg = PartitionConfig::new(32).seed(7);
    group.bench_with_input(BenchmarkId::new("kway_partition", "k32"), &g, |b, g| {
        b.iter(|| black_box(partition_kway(black_box(g), &cfg)))
    });

    // Refinement kernel in isolation: scatter-array connectivity vs the
    // HashMap version it replaced, from the same striped 32-way start.
    let n = g.num_vertices();
    let striped: Vec<u32> = (0..n as u32).map(|v| v % 32).collect();
    let vw = vec![1.0f64; n];
    group.bench_with_input(BenchmarkId::new("kway_refine", "scatter"), &g, |b, g| {
        b.iter(|| {
            let mut a = striped.clone();
            black_box(kway_refine(black_box(g), &mut a, 32, &vw, 0.05, 2))
        })
    });
    group.bench_with_input(BenchmarkId::new("kway_refine", "hashmap_before"), &g, |b, g| {
        b.iter(|| {
            let mut a = striped.clone();
            black_box(kway_refine_hashmap_before(black_box(g), &mut a, 32, &vw, 0.05, 2))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_louvain_move_kernel,
    bench_gap_measures,
    bench_relabel,
    bench_rr_sampling,
    bench_reorder_parallel
);
criterion_main!(benches);
