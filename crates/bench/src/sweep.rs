//! The scheme × instance sweep shared by the gap-measure figures
//! (Figs. 1, 4, 5, 6, 7).

use rayon::prelude::*;
use reorderlab_core::measures::gap_measures;
use reorderlab_core::Scheme;
use reorderlab_datasets::InstanceSpec;
use std::time::Instant;

/// All measurements from sweeping a set of schemes over a set of instances.
#[derive(Debug, Clone)]
pub(crate) struct SweepResult {
    /// Scheme names, row order of the matrices.
    pub(crate) schemes: Vec<String>,
    /// Instance names, column order of the matrices.
    pub(crate) instances: Vec<String>,
    /// `avg_gap[s][i]`: ξ̂ of scheme `s` on instance `i`.
    pub(crate) avg_gap: Vec<Vec<f64>>,
    /// `bandwidth[s][i]`: β.
    pub(crate) bandwidth: Vec<Vec<f64>>,
    /// `avg_bandwidth[s][i]`: β̂.
    pub(crate) avg_bandwidth: Vec<Vec<f64>>,
    /// `reorder_secs[s][i]`: wall seconds spent computing the ordering.
    pub(crate) reorder_secs: Vec<Vec<f64>>,
}

/// Runs every scheme on every instance (instances in parallel), collecting
/// the three gap measures and the reordering time.
pub(crate) fn gap_sweep(instances: &[InstanceSpec], schemes: &[Scheme]) -> SweepResult {
    // per-scheme (ξ̂, β, β̂, seconds) cells, per instance
    let per_instance: Vec<Vec<(f64, f64, f64, f64)>> = instances
        .par_iter()
        .map(|spec| {
            let g = spec.generate();
            schemes
                .iter()
                .map(|scheme| {
                    let t0 = Instant::now();
                    let pi = scheme.reorder(&g);
                    let secs = t0.elapsed().as_secs_f64();
                    let m = gap_measures(&g, &pi);
                    (m.avg_gap, m.bandwidth as f64, m.avg_bandwidth, secs)
                })
                .collect()
        })
        .collect();

    let ns = schemes.len();
    let ni = instances.len();
    let mut out = SweepResult {
        schemes: schemes.iter().map(|s| s.name().to_string()).collect(),
        instances: instances.iter().map(|s| s.name.to_string()).collect(),
        avg_gap: vec![vec![0.0; ni]; ns],
        bandwidth: vec![vec![0.0; ni]; ns],
        avg_bandwidth: vec![vec![0.0; ni]; ns],
        reorder_secs: vec![vec![0.0; ni]; ns],
    };
    for (i, row) in per_instance.iter().enumerate() {
        for (s, &(gap, band, avg_band, secs)) in row.iter().enumerate() {
            out.avg_gap[s][i] = gap;
            out.bandwidth[s][i] = band;
            out.avg_bandwidth[s][i] = avg_band;
            out.reorder_secs[s][i] = secs;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::small_suite;

    #[test]
    fn sweep_two_instances_two_schemes() {
        let instances: Vec<InstanceSpec> = small_suite().into_iter().take(2).collect();
        let schemes = vec![Scheme::Natural, Scheme::Rcm];
        let r = gap_sweep(&instances, &schemes);
        assert_eq!(r.schemes, vec!["Natural", "RCM"]);
        assert_eq!(r.instances.len(), 2);
        assert_eq!(r.avg_gap.len(), 2);
        assert_eq!(r.avg_gap[0].len(), 2);
        // Every measurement is finite and non-negative.
        for mat in [&r.avg_gap, &r.bandwidth, &r.avg_bandwidth, &r.reorder_secs] {
            for row in mat.iter() {
                for &v in row {
                    assert!(v.is_finite() && v >= 0.0);
                }
            }
        }
        // RCM should beat Natural's bandwidth on at least one of these.
        assert!(r.bandwidth[1].iter().zip(&r.bandwidth[0]).any(|(rcm, nat)| rcm <= nat));
    }
}
