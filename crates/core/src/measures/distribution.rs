//! Gap-distribution summaries — the data behind the paper's violin plots
//! (Figure 8).
//!
//! The paper notes that gap distributions are heavily skewed ("long tails
//! characteristic of lognormal distribution"), so the summary works on a
//! logarithmic axis: decade buckets plus the usual five-number summary.

use rayon::prelude::*;

/// Fixed chunk size for the parallel histogram/mean reduction. The size is
/// a constant (not derived from the worker count) so chunk boundaries — and
/// therefore any f64 fold order — are identical at every thread count.
const REDUCE_CHUNK: usize = 4096;

/// A distribution summary of edge gaps under one ordering: quantiles, mean,
/// and a logarithmic histogram suitable for rendering a violin/density plot.
#[derive(Debug, Clone, PartialEq)]
pub struct GapDistribution {
    /// Number of samples (edges).
    pub count: usize,
    /// Minimum gap.
    pub min: u32,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum gap.
    pub max: u32,
    /// Arithmetic mean (this is exactly the average gap profile ξ̂).
    pub mean: f64,
    /// Log-decade histogram: `buckets[d]` counts gaps in
    /// `[10^d, 10^(d+1))`, with bucket 0 also holding gaps of 0 and 1.
    pub log_buckets: Vec<usize>,
}

impl GapDistribution {
    /// Summarizes a gap sample (need not be sorted). Returns a zeroed
    /// summary for an empty sample.
    pub fn from_gaps(gaps: &[u32]) -> Self {
        if gaps.is_empty() {
            return GapDistribution {
                count: 0,
                min: 0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                max: 0,
                mean: 0.0,
                log_buckets: Vec::new(),
            };
        }
        let mut sorted = gaps.to_vec();
        sorted.sort_unstable();
        let count = sorted.len();
        #[expect(
            clippy::expect_used,
            reason = "SAFETY: the empty-input case returned early above, so `sorted` holds at least one gap"
        )]
        let max = *sorted.last().expect("non-empty");
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "SAFETY: floor(log10) of a u32 gap >= 10 lies in 1..=9"
        )]
        let decades = if max < 10 { 1 } else { (max as f64).log10().floor() as usize + 1 };
        // Parallel reduction over fixed-size chunks: each yields an exact
        // integer gap sum and a decade-bucket count vector, merged in chunk
        // order. Both accumulators are integers, so the merge is order-free
        // and the result matches the serial scan exactly.
        let chunks = count.div_ceil(REDUCE_CHUNK);
        let sorted_ref: &[u32] = &sorted;
        let partials: Vec<(u64, Vec<usize>)> = (0..chunks)
            .into_par_iter()
            .map(|ci| {
                let chunk = &sorted_ref[ci * REDUCE_CHUNK..count.min((ci + 1) * REDUCE_CHUNK)];
                let mut sum = 0u64;
                let mut buckets = vec![0usize; decades];
                for &g in chunk {
                    sum += g as u64;
                    #[expect(
                        clippy::cast_possible_truncation,
                        clippy::cast_sign_loss,
                        reason = "SAFETY: floor(log10) of a u32 gap >= 10 lies in 1..=9"
                    )]
                    let d = if g < 10 { 0 } else { (g as f64).log10().floor() as usize };
                    buckets[d] += 1;
                }
                (sum, buckets)
            })
            .collect();
        let mut gap_sum = 0u64;
        let mut log_buckets = vec![0usize; decades];
        for (s, b) in &partials {
            gap_sum += s;
            for (dst, src) in log_buckets.iter_mut().zip(b) {
                *dst += src;
            }
        }
        let mean = gap_sum as f64 / count as f64;
        GapDistribution {
            count,
            min: sorted[0],
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            max,
            mean,
            log_buckets,
        }
    }

    /// Fraction of gaps that are "short" (at most `threshold`). The paper
    /// reads violin width at the bottom as exactly this quantity ("a larger
    /// fraction of the gaps are small — between one and ten").
    pub fn fraction_at_most(&self, threshold: u32, gaps: &[u32]) -> f64 {
        if gaps.is_empty() {
            return 0.0;
        }
        gaps.iter().filter(|&&g| g <= threshold).count() as f64 / gaps.len() as f64
    }
}

/// Linear-interpolated quantile of a sorted sample.
fn quantile(sorted: &[u32], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    debug_assert!((0.0..=1.0).contains(&q));
    if sorted.len() == 1 {
        return sorted[0] as f64;
    }
    let pos = q * (sorted.len() - 1) as f64;
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "SAFETY: pos = q * (len - 1) with q in [0, 1] lies in [0, len - 1]"
    )]
    let lo = pos.floor() as usize;
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "SAFETY: pos = q * (len - 1) with q in [0, 1] lies in [0, len - 1]"
    )]
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_number_summary() {
        let d = GapDistribution::from_gaps(&[1, 2, 3, 4, 5]);
        assert_eq!(d.count, 5);
        assert_eq!(d.min, 1);
        assert_eq!(d.max, 5);
        assert_eq!(d.median, 3.0);
        assert_eq!(d.q1, 2.0);
        assert_eq!(d.q3, 4.0);
        assert_eq!(d.mean, 3.0);
    }

    #[test]
    fn interpolated_quantiles() {
        let d = GapDistribution::from_gaps(&[0, 10]);
        assert_eq!(d.median, 5.0);
        assert_eq!(d.q1, 2.5);
        assert_eq!(d.q3, 7.5);
    }

    #[test]
    fn log_buckets_by_decade() {
        let d = GapDistribution::from_gaps(&[0, 1, 5, 9, 10, 99, 100, 1000]);
        // bucket 0: 0..9 -> 4, bucket 1: 10..99 -> 2, bucket 2: 100..999 -> 1,
        // bucket 3: 1000..9999 -> 1
        assert_eq!(d.log_buckets, vec![4, 2, 1, 1]);
    }

    #[test]
    fn empty_sample() {
        let d = GapDistribution::from_gaps(&[]);
        assert_eq!(d.count, 0);
        assert!(d.log_buckets.is_empty());
        assert_eq!(d.fraction_at_most(10, &[]), 0.0);
    }

    #[test]
    fn single_sample() {
        let d = GapDistribution::from_gaps(&[7]);
        assert_eq!(d.median, 7.0);
        assert_eq!(d.q1, 7.0);
        assert_eq!(d.min, 7);
        assert_eq!(d.max, 7);
    }

    #[test]
    fn fraction_at_most_counts() {
        let gaps = [1u32, 2, 3, 100, 200];
        let d = GapDistribution::from_gaps(&gaps);
        assert_eq!(d.fraction_at_most(10, &gaps), 3.0 / 5.0);
        assert_eq!(d.fraction_at_most(0, &gaps), 0.0);
        assert_eq!(d.fraction_at_most(1000, &gaps), 1.0);
    }

    #[test]
    fn bucket_count_matches_total() {
        let gaps: Vec<u32> = (0..1000).map(|i| (i * 37) % 5000).collect();
        let d = GapDistribution::from_gaps(&gaps);
        assert_eq!(d.log_buckets.iter().sum::<usize>(), 1000);
    }
}
