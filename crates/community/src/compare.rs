//! Comparing community assignments: normalized mutual information and the
//! adjusted Rand index.
//!
//! Used to validate the Louvain engine against planted ground truth (the
//! stochastic-block-model instances in `reorderlab-datasets`) and to check
//! that reordering does not change *what* communities are found — only how
//! fast.

use std::collections::BTreeMap;

/// The contingency table between two assignments, plus marginals. The maps
/// are ordered, so every sum over them adds its terms in one fixed order
/// and the float results are the same bits on every call.
struct Contingency {
    counts: BTreeMap<(u32, u32), f64>,
    a_sizes: BTreeMap<u32, f64>,
    b_sizes: BTreeMap<u32, f64>,
    n: f64,
}

fn contingency(a: &[u32], b: &[u32]) -> Contingency {
    assert_eq!(a.len(), b.len(), "assignments must cover the same vertices");
    let mut counts: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    let mut a_sizes: BTreeMap<u32, f64> = BTreeMap::new();
    let mut b_sizes: BTreeMap<u32, f64> = BTreeMap::new();
    for (&ca, &cb) in a.iter().zip(b) {
        *counts.entry((ca, cb)).or_insert(0.0) += 1.0;
        *a_sizes.entry(ca).or_insert(0.0) += 1.0;
        *b_sizes.entry(cb).or_insert(0.0) += 1.0;
    }
    Contingency { counts, a_sizes, b_sizes, n: a.len() as f64 }
}

/// Normalized mutual information between two community assignments, in
/// `[0, 1]`: 1 for identical partitions (up to relabeling), near 0 for
/// independent ones. Uses the arithmetic-mean normalization
/// `NMI = 2·I(A;B) / (H(A) + H(B))`.
///
/// Both-constant partitions (zero entropy on each side) compare equal by
/// convention (`1.0`).
///
/// # Panics
///
/// Panics if the assignments have different lengths.
///
/// # Examples
///
/// ```
/// use reorderlab_community::nmi;
///
/// assert_eq!(nmi(&[0, 0, 1, 1], &[5, 5, 9, 9]), 1.0); // same up to labels
/// assert!(nmi(&[0, 0, 1, 1], &[0, 1, 0, 1]) < 0.01);  // independent
/// ```
pub fn nmi(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() {
        return 1.0;
    }
    let c = contingency(a, b);
    let n = c.n;
    let entropy = |sizes: &BTreeMap<u32, f64>| -> f64 {
        sizes
            .values()
            .map(|&s| {
                let p = s / n;
                -p * p.ln()
            })
            .sum()
    };
    let ha = entropy(&c.a_sizes);
    let hb = entropy(&c.b_sizes);
    if ha == 0.0 && hb == 0.0 {
        return 1.0; // both trivial partitions: identical structure
    }
    let mut mi = 0.0;
    for (&(ca, cb), &nij) in &c.counts {
        let pij = nij / n;
        let pa = c.a_sizes[&ca] / n;
        let pb = c.b_sizes[&cb] / n;
        mi += pij * (pij / (pa * pb)).ln();
    }
    (2.0 * mi / (ha + hb)).clamp(0.0, 1.0)
}

/// Adjusted Rand index between two community assignments: 1 for identical
/// partitions, ~0 for random agreement, possibly negative for worse than
/// chance.
///
/// # Panics
///
/// Panics if the assignments have different lengths.
///
/// # Examples
///
/// ```
/// use reorderlab_community::adjusted_rand_index;
///
/// assert_eq!(adjusted_rand_index(&[0, 0, 1, 1], &[1, 1, 0, 0]), 1.0);
/// ```
pub fn adjusted_rand_index(a: &[u32], b: &[u32]) -> f64 {
    if a.len() < 2 {
        return 1.0;
    }
    let c = contingency(a, b);
    let choose2 = |x: f64| x * (x - 1.0) / 2.0;
    let sum_ij: f64 = c.counts.values().map(|&x| choose2(x)).sum();
    let sum_a: f64 = c.a_sizes.values().map(|&x| choose2(x)).sum();
    let sum_b: f64 = c.b_sizes.values().map(|&x| choose2(x)).sum();
    let total = choose2(c.n);
    let expected = sum_a * sum_b / total;
    let max_index = (sum_a + sum_b) / 2.0;
    if (max_index - expected).abs() < 1e-12 {
        return 1.0; // degenerate: both partitions trivial in the same way
    }
    (sum_ij - expected) / (max_index - expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_partitions_score_one() {
        let a = [0u32, 0, 1, 1, 2, 2];
        assert_eq!(nmi(&a, &a), 1.0);
        assert_eq!(adjusted_rand_index(&a, &a), 1.0);
    }

    #[test]
    fn relabeling_is_transparent() {
        let a = [0u32, 0, 1, 1, 2, 2];
        let b = [7u32, 7, 3, 3, 9, 9];
        assert!((nmi(&a, &b) - 1.0).abs() < 1e-12);
        assert!((adjusted_rand_index(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_partitions_score_low() {
        // Checkerboard vs halves on 8 items: knowing one tells nothing
        // about the other.
        let a = [0u32, 0, 0, 0, 1, 1, 1, 1];
        let b = [0u32, 1, 0, 1, 0, 1, 0, 1];
        assert!(nmi(&a, &b) < 0.05, "nmi {}", nmi(&a, &b));
        assert!(adjusted_rand_index(&a, &b).abs() < 0.2);
    }

    #[test]
    fn partial_agreement_is_intermediate() {
        let truth = [0u32, 0, 0, 1, 1, 1];
        let noisy = [0u32, 0, 1, 1, 1, 1]; // one vertex misplaced
        let v = nmi(&truth, &noisy);
        assert!(v > 0.3 && v < 1.0, "nmi {v}");
        let r = adjusted_rand_index(&truth, &noisy);
        assert!(r > 0.3 && r < 1.0, "ari {r}");
    }

    #[test]
    fn finer_partition_less_than_one() {
        let coarse = [0u32, 0, 0, 0];
        let fine = [0u32, 1, 2, 3];
        assert!(nmi(&coarse, &fine) < 1.0);
        // H(halves) = ln 2 and H(singletons) = ln 4, and the halves are a
        // function of the singletons, so I = ln 2 and NMI = 2 I / (ln 2 +
        // ln 4) = 2/3 (dividing by the larger entropy would give 1/2).
        let halves = [0u32, 0, 1, 1];
        assert!((nmi(&halves, &fine) - 2.0 / 3.0).abs() < 1e-12, "{}", nmi(&halves, &fine));
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(nmi(&[], &[]), 1.0);
        assert_eq!(adjusted_rand_index(&[0], &[0]), 1.0);
        // Both trivial single-cluster partitions.
        assert_eq!(nmi(&[0, 0, 0], &[1, 1, 1]), 1.0);
        assert_eq!(adjusted_rand_index(&[0, 0, 0], &[1, 1, 1]), 1.0);
    }

    #[test]
    #[should_panic(expected = "same vertices")]
    fn rejects_length_mismatch() {
        let _ = nmi(&[0, 1], &[0]);
    }

    #[test]
    fn nmi_is_one_bit_pattern_across_calls() {
        // Enough clusters that the entropy and mutual-information sums have
        // thousands of terms, whose float total depends on their order.
        let n = 20_000u32;
        let a: Vec<u32> = (0..n).map(|i| (i.wrapping_mul(2_654_435_761) >> 7) % 997).collect();
        let b: Vec<u32> = (0..n).map(|i| (i.wrapping_mul(40_503) >> 3) % 613).collect();
        let first = nmi(&a, &b).to_bits();
        for call in 1..50 {
            assert_eq!(nmi(&a, &b).to_bits(), first, "call {call} summed in another order");
        }
    }

    #[test]
    fn symmetric() {
        let a = [0u32, 0, 1, 1, 2, 2, 0, 1];
        let b = [0u32, 1, 1, 1, 2, 0, 0, 1];
        assert!((nmi(&a, &b) - nmi(&b, &a)).abs() < 1e-12);
        assert!((adjusted_rand_index(&a, &b) - adjusted_rand_index(&b, &a)).abs() < 1e-12);
    }
}
