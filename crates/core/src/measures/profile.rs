//! Performance profiles (Dolan–Moré style), the presentation device used by
//! the paper's Figures 1, 4, 5, 6, and 7.
//!
//! Given a set of methods evaluated on a set of problem instances with a
//! lower-is-better metric, a performance profile plots, for each method, the
//! fraction of instances on which that method is within a factor τ of the
//! best method — as τ sweeps from 1 upward. "The closer a curve is aligned
//! to the Y-axis, the better its relative performance."

use crate::error::MeasureError;

/// A computed performance profile over a fixed method and instance set.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceProfile {
    /// Method names, in input order.
    pub methods: Vec<String>,
    /// The τ sample points (factors relative to best, ≥ 1).
    pub taus: Vec<f64>,
    /// `curves[m][t]` = fraction of instances where method `m` is within
    /// `taus[t]` × best.
    pub curves: Vec<Vec<f64>>,
    /// Per-method performance ratios on each instance (`f64::INFINITY`
    /// where the method failed to be comparable, e.g. best was 0 and the
    /// method was not).
    pub ratios: Vec<Vec<f64>>,
}

impl PerformanceProfile {
    /// Builds a profile from raw scores.
    ///
    /// `scores[m][i]` is method `m`'s metric on instance `i` (lower is
    /// better, must be finite and ≥ 0). `taus` are the factor sample points;
    /// they are sorted and deduplicated internally and must all be ≥ 1.
    ///
    /// When an instance's best score is 0, any method also scoring 0 has
    /// ratio 1 and every other method has ratio ∞.
    ///
    /// # Panics
    ///
    /// Panics if the score matrix is ragged or empty, contains a negative or
    /// non-finite value, or any τ < 1 — with the message of the
    /// [`MeasureError`] that [`try_new`](Self::try_new) would have returned.
    pub fn new<S: Into<String> + Clone>(methods: &[S], scores: &[Vec<f64>], taus: &[f64]) -> Self {
        #[expect(
            clippy::panic,
            reason = "SAFETY: documented panicking twin over `try_new` (# Panics in the doc above)"
        )]
        Self::try_new(methods, scores, taus).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`new`](Self::new): validates the score matrix and τ sample
    /// points, returning a typed [`MeasureError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// - [`MeasureError::MethodCountMismatch`] when `methods.len() != scores.len()`.
    /// - [`MeasureError::NoMethods`] / [`MeasureError::NoInstances`] /
    ///   [`MeasureError::NoTaus`] on empty inputs.
    /// - [`MeasureError::RaggedScores`] when rows differ in length.
    /// - [`MeasureError::InvalidScore`] on a negative, NaN, or infinite score.
    /// - [`MeasureError::TauOutOfRange`] when any τ < 1 (or NaN).
    pub fn try_new<S: Into<String> + Clone>(
        methods: &[S],
        scores: &[Vec<f64>],
        taus: &[f64],
    ) -> Result<Self, MeasureError> {
        if methods.len() != scores.len() {
            return Err(MeasureError::MethodCountMismatch {
                methods: methods.len(),
                rows: scores.len(),
            });
        }
        if scores.is_empty() {
            return Err(MeasureError::NoMethods);
        }
        let num_instances = scores[0].len();
        if num_instances == 0 {
            return Err(MeasureError::NoInstances);
        }
        for (m, row) in scores.iter().enumerate() {
            if row.len() != num_instances {
                return Err(MeasureError::RaggedScores {
                    row: m,
                    len: row.len(),
                    expected: num_instances,
                });
            }
            for (i, &s) in row.iter().enumerate() {
                if !(s.is_finite() && s >= 0.0) {
                    return Err(MeasureError::InvalidScore { method: m, instance: i, value: s });
                }
            }
        }
        let mut taus: Vec<f64> = taus.to_vec();
        taus.sort_by(f64::total_cmp);
        taus.dedup();
        if taus.is_empty() {
            return Err(MeasureError::NoTaus);
        }
        if let Some(&bad) = taus.iter().find(|&&t| t < 1.0 || t.is_nan()) {
            return Err(MeasureError::TauOutOfRange { tau: bad });
        }

        // Best per instance.
        let best: Vec<f64> = (0..num_instances)
            .map(|i| scores.iter().map(|row| row[i]).fold(f64::INFINITY, f64::min))
            .collect();

        let ratios: Vec<Vec<f64>> = scores
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&best)
                    .map(|(&s, &b)| {
                        if b == 0.0 {
                            if s == 0.0 {
                                1.0
                            } else {
                                f64::INFINITY
                            }
                        } else {
                            s / b
                        }
                    })
                    .collect()
            })
            .collect();

        let curves: Vec<Vec<f64>> = ratios
            .iter()
            .map(|row| {
                taus.iter()
                    .map(|&t| {
                        row.iter().filter(|&&r| r <= t + 1e-12).count() as f64
                            / num_instances as f64
                    })
                    .collect()
            })
            .collect();

        Ok(PerformanceProfile {
            methods: methods.iter().cloned().map(Into::into).collect(),
            taus,
            curves,
            ratios,
        })
    }

    /// Default τ sample points used across the paper-style figures:
    /// 1, 1.5, 2, 3, 4, 5, 8, 10, 15, 20, 25, 30, 40, 50, 100.
    pub fn default_taus() -> Vec<f64> {
        vec![1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 8.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 50.0, 100.0]
    }

    /// Number of instances the profile covers.
    pub(crate) fn num_instances(&self) -> usize {
        self.ratios[0].len()
    }

    /// Area-under-curve summary per method (higher is better); a cheap
    /// scalar for ranking methods by overall profile dominance.
    pub fn auc(&self) -> Vec<f64> {
        self.curves
            .iter()
            .map(|curve| {
                let mut area = 0.0;
                for t in 1..self.taus.len() {
                    let width = self.taus[t] - self.taus[t - 1];
                    area += width * (curve[t] + curve[t - 1]) / 2.0;
                }
                let span = match (self.taus.first(), self.taus.last()) {
                    (Some(&first), Some(&last)) => last - first,
                    _ => 0.0,
                };
                if span > 0.0 {
                    area / span
                } else {
                    curve[0]
                }
            })
            .collect()
    }

    /// Fraction of instances on which each method is strictly best
    /// (within a 1e-12 tolerance, ties count for all tied methods).
    pub fn win_fraction(&self) -> Vec<f64> {
        let n = self.num_instances();
        self.ratios
            .iter()
            .map(|row| row.iter().filter(|&&r| r <= 1.0 + 1e-12).count() as f64 / n as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominant_method_hugs_y_axis() {
        // Method A is best everywhere; B is 2x worse everywhere.
        let p = PerformanceProfile::new(
            &["A", "B"],
            &[vec![1.0, 2.0, 3.0], vec![2.0, 4.0, 6.0]],
            &[1.0, 2.0, 4.0],
        );
        assert_eq!(p.curves[0], vec![1.0, 1.0, 1.0]);
        assert_eq!(p.curves[1], vec![0.0, 1.0, 1.0]);
        assert_eq!(p.win_fraction(), vec![1.0, 0.0]);
        // Trapezoids over τ ∈ [1, 4]: A is 1 throughout; B rises 0 → 1 on
        // [1, 2], so its area is (1 · 0.5 + 2 · 1) / 3 (left rectangles
        // would give 2/3).
        let auc = p.auc();
        assert_eq!(auc[0], 1.0);
        assert!((auc[1] - 2.5 / 3.0).abs() < 1e-12, "{auc:?}");
    }

    #[test]
    fn curves_are_monotone_in_tau() {
        let p = PerformanceProfile::new(
            &["A", "B", "C"],
            &[vec![1.0, 5.0], vec![2.0, 1.0], vec![10.0, 10.0]],
            &PerformanceProfile::default_taus(),
        );
        for curve in &p.curves {
            for w in curve.windows(2) {
                assert!(w[1] >= w[0], "profile curves must be non-decreasing");
            }
        }
    }

    #[test]
    fn num_instances_counts_columns() {
        let p = PerformanceProfile::new(&["A"], &[vec![1.0, 2.0, 3.0]], &[1.0]);
        assert_eq!(p.num_instances(), 3);
    }

    #[test]
    fn ties_count_for_both() {
        let p = PerformanceProfile::new(&["A", "B"], &[vec![1.0], vec![1.0]], &[1.0]);
        assert_eq!(p.win_fraction(), vec![1.0, 1.0]);
    }

    #[test]
    fn zero_best_handled() {
        let p = PerformanceProfile::new(&["A", "B"], &[vec![0.0], vec![5.0]], &[1.0, 1000.0]);
        assert_eq!(p.ratios[0][0], 1.0);
        assert!(p.ratios[1][0].is_infinite());
        assert_eq!(p.curves[1], vec![0.0, 0.0]);
    }

    #[test]
    fn taus_sorted_and_deduped() {
        let p = PerformanceProfile::new(&["A"], &[vec![1.0]], &[5.0, 1.0, 5.0, 2.0]);
        assert_eq!(p.taus, vec![1.0, 2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn rejects_ragged_scores() {
        let _ = PerformanceProfile::new(&["A", "B"], &[vec![1.0, 2.0], vec![1.0]], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_tau_below_one() {
        let _ = PerformanceProfile::new(&["A"], &[vec![1.0]], &[0.5]);
    }

    #[test]
    fn try_new_reports_typed_errors() {
        assert_eq!(
            PerformanceProfile::try_new(&["A", "B"], &[vec![1.0]], &[1.0]),
            Err(MeasureError::MethodCountMismatch { methods: 2, rows: 1 })
        );
        assert_eq!(
            PerformanceProfile::try_new::<&str>(&[], &[], &[1.0]),
            Err(MeasureError::NoMethods)
        );
        assert_eq!(
            PerformanceProfile::try_new(&["A"], &[vec![]], &[1.0]),
            Err(MeasureError::NoInstances)
        );
        assert_eq!(
            PerformanceProfile::try_new(&["A", "B"], &[vec![1.0, 2.0], vec![1.0]], &[1.0]),
            Err(MeasureError::RaggedScores { row: 1, len: 1, expected: 2 })
        );
        assert!(matches!(
            PerformanceProfile::try_new(&["A"], &[vec![f64::NAN]], &[1.0]),
            Err(MeasureError::InvalidScore { method: 0, instance: 0, .. })
        ));
        assert_eq!(
            PerformanceProfile::try_new(&["A"], &[vec![1.0]], &[0.5]),
            Err(MeasureError::TauOutOfRange { tau: 0.5 })
        );
        assert_eq!(
            PerformanceProfile::try_new(&["A"], &[vec![1.0]], &[]),
            Err(MeasureError::NoTaus)
        );
        assert!(matches!(
            PerformanceProfile::try_new(&["A"], &[vec![1.0]], &[f64::NAN]),
            Err(MeasureError::TauOutOfRange { tau }) if tau.is_nan()
        ));
    }

    #[test]
    fn ratio_factors_match_paper_reading() {
        // "Gorder produces an average gap that is 5x worse than the best on
        // 50% of the inputs" — i.e. its curve reaches 0.5 only at tau = 5.
        let p = PerformanceProfile::new(
            &["best", "gorder"],
            &[vec![1.0, 1.0, 1.0, 1.0], vec![1.2, 4.9, 5.0, 8.0]],
            &[1.0, 2.0, 5.0, 10.0],
        );
        let gorder = &p.curves[1];
        assert_eq!(gorder[1], 0.25); // within 2x on 1/4
        assert_eq!(gorder[2], 0.75); // within 5x on 3/4
        assert_eq!(gorder[3], 1.0);
    }
}
