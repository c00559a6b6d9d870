//! Thread-count-invariance harness.
//!
//! Every parallel kernel in the workspace promises *bit-identical* output at
//! any worker count. [`assert_thread_invariant`] is the shared test harness
//! for that promise: it runs an operation under explicit 1-, 2-, and 7-thread
//! pools and asserts each result equals the ambient-pool run. Downstream
//! crates (`reorderlab-core`, `reorderlab-partition`, the CLI tests) use it
//! to pin their kernels, so it lives in the public API rather than behind
//! `cfg(test)`.

/// Order-fixed reduction of parallel-computed float parts.
///
/// Float addition is not associative, so reducing a parallel iterator
/// directly (`par_iter().map(..).sum()`) would tie the result to however
/// the scheduler grouped the work. The workspace's rayon has no parallel
/// `sum`, `fold`, `reduce` or `product` (DESIGN.md §8), so that chain does
/// not compile:
///
/// ```compile_fail,E0599
/// use rayon::prelude::*;
///
/// let v = vec![0.1f64; 1000];
/// let total = v.par_iter().map(|x| *x).sum::<f64>();
/// ```
///
/// A parallel float reduction goes through this wrapper instead: compute
/// the parts in parallel into an index-ordered buffer (a `collect`, or a
/// per-vertex array the parallel pass writes), and fold it sequentially
/// here, so the accumulation order never depends on thread count or
/// schedule:
///
/// ```
/// use rayon::prelude::*;
/// use reorderlab_graph::det_sum_f64;
///
/// let v = vec![0.1f64; 1000];
/// let parts: Vec<f64> = v.par_iter().map(|x| *x).collect();
/// let total = det_sum_f64(&parts);
/// assert_eq!(total.to_bits(), v.iter().sum::<f64>().to_bits());
/// ```
#[inline]
pub fn det_sum_f64(parts: &[f64]) -> f64 {
    parts.iter().sum()
}

/// Builds a dedicated pool of exactly `threads` workers.
///
/// The single audited construction point for explicit pools. Thread count
/// is ambient — a kernel runs on the pool it is called in and no config
/// carries a width — so a caller that wants a bound wraps the call in
/// `build_pool(t).install(..)` rather than calling the builder (and
/// unwrapping its `Result`) itself.
///
/// # Panics
///
/// Panics if the pool cannot be constructed. The shim builder only fails on
/// a zero-size stack request, which this function never issues.
pub fn build_pool(threads: usize) -> rayon::ThreadPool {
    #[expect(
        clippy::disallowed_methods,
        reason = "the one pool-construction site: thread count is ambient (DESIGN.md §2)"
    )]
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
    #[expect(
        clippy::expect_used,
        reason = "SAFETY: the builder is configured with thread count only, the one parameter \
                  combination its contract documents as infallible"
    )]
    pool.expect("thread pool construction with default stack size cannot fail")
}

/// Runs `op` once on the ambient pool and once under dedicated pools of 1, 2,
/// and 7 threads, asserting every run returns the same value. Returns the
/// reference result so callers can make further assertions on it.
///
/// # Panics
///
/// Panics if any thread count produces a different result.
pub fn assert_thread_invariant<R, F>(op: F) -> R
where
    R: PartialEq + std::fmt::Debug,
    F: Fn() -> R,
{
    let reference = op();
    for threads in [1usize, 2, 7] {
        let got = build_pool(threads).install(&op);
        assert_eq!(got, reference, "result changed at {threads} threads");
    }
    reference
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_thread_independent_ops() {
        assert_eq!(assert_thread_invariant(|| 42), 42);
    }

    #[test]
    #[should_panic(expected = "result changed at")]
    fn catches_thread_dependent_ops() {
        assert_thread_invariant(rayon::current_num_threads);
    }
}
