//! The RR-set store holds its sets about once. An IMM call's peak live
//! heap, counted by a global allocator, stays within a small factor of the
//! bytes its final sets need (a `u32` per member and one per set) plus the
//! per-worker scratch, which is linear in the vertex count. A store that
//! regrows one flat array, or that holds a batch copy of the new sets
//! beside it, peaks well above that.

use peak_alloc::PeakAlloc;
use reorderlab_datasets::grid2d;
use reorderlab_graph::build_pool;
use reorderlab_influence::{imm, DiffusionModel, ImmConfig};

#[global_allocator]
static HEAP: PeakAlloc = PeakAlloc;

const THREADS: usize = 2;
/// Scratch bytes per vertex and worker: the visited stamps and BFS queue,
/// the worker's member counts, the run's counts and selection index, with
/// room to spare.
const SCRATCH_PER_VERTEX: usize = 32;
/// Bytes a worker may stage before a chunk is sealed: its member and end
/// buffers, each at most 256 KiB, counted twice while they grow.
const STAGE_PER_WORKER: usize = 1 << 20;
const FACTOR: f64 = 1.25;

#[test]
fn each_imm_call_peaks_near_its_final_sets() {
    let g = grid2d(200, 200);
    let n = g.num_vertices();
    let cfg = ImmConfig::new(16).epsilon(0.5).model(DiffusionModel::WeightedCascade).seed(7);
    let pool = build_pool(THREADS);
    for call in 1..=2 {
        let before = HEAP.current_usage();
        HEAP.reset_peak_usage();
        let r = pool.install(|| imm(&g, &cfg));
        let peak = HEAP.peak_usage() - before;
        let sets = 4 * (r.stats.vertices_visited as usize + r.stats.rr_sets);
        let scratch = THREADS * (SCRATCH_PER_VERTEX * n + STAGE_PER_WORKER);
        let ratio = peak as f64 / (sets + scratch) as f64;
        eprintln!(
            "call {call}: peak {peak} B, sets {sets} B ({} sets), scratch {scratch} B, ratio {ratio:.3}",
            r.stats.rr_sets
        );
        assert!(ratio <= FACTOR, "call {call}: peak {peak} B is {ratio:.3}× sets + scratch");
    }
}
