//! A file that satisfies both contracts.
//!
//! Doc examples may mention `par_iter().sum()` and `lock()` freely — prose
//! is not tokens — and `#[cfg(test)]` code may reduce a parallel chain.

use rayon::prelude::*;
use std::sync::Mutex;

/// Doubles every value; the reduction stays elementwise, so no D2.
pub fn doubled(xs: &[u64]) -> Vec<u64> {
    xs.par_iter().map(|x| x.saturating_mul(2)).collect()
}

/// Copies out under the lock and writes after it is released, so no L1.
pub fn snapshot(m: &Mutex<Vec<u8>>, out: &mut impl std::io::Write) {
    let copy = m.lock().map(|g| g.clone()).unwrap_or_default();
    let _ = out.write_all(&copy);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_reduce_a_parallel_chain() {
        let total: u64 = doubled(&[1, 2]).par_iter().sum();
        assert_eq!(total, 6);
    }
}
