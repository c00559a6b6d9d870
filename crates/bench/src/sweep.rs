//! The scheme × instance sweep shared by the gap-measure figures
//! (Figs. 1, 4, 5, 6, 7).

use rayon::prelude::*;
use reorderlab_core::measures::gap_measures;
use reorderlab_core::Scheme;
use reorderlab_datasets::InstanceSpec;
use reorderlab_graph::Csr;
use std::cmp::Reverse;
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

/// One instance's per-scheme (ξ̂, β, β̂, seconds) cells.
type Cells = Vec<(f64, f64, f64, f64)>;

/// Runs every scheme on every instance (instances in parallel), collecting
/// the three gap measures and the reordering time.
pub(crate) fn gap_sweep(instances: &[InstanceSpec], schemes: &[Scheme]) -> SweepResult {
    let graphs: Vec<Csr> = instances.par_iter().map(InstanceSpec::generate).collect();
    // Each worker takes a group of instances, not a contiguous span of the
    // suite: the suites are ordered by size, so a span would put every
    // costly cell in the last worker's share. Instances are dealt costliest
    // first to the group with the least cost so far. The cost is Σ deg²,
    // the work of Gorder's sibling scan, which is most of a sweep that runs
    // Gorder and still grows with size in one that does not.
    let cost: Vec<usize> = graphs
        .iter()
        .map(|g| (0..g.num_vertices() as u32).map(|v| g.degree(v).pow(2)).sum())
        .collect();
    let mut order: Vec<usize> = (0..graphs.len()).collect();
    order.sort_by_key(|&i| Reverse(cost[i]));
    let mut groups = vec![(0usize, Vec::new()); rayon::current_num_threads().max(1)];
    for i in order {
        if let Some((load, group)) = groups.iter_mut().min_by_key(|(load, _)| *load) {
            *load += cost[i];
            group.push(i);
        }
    }
    let done: Vec<Vec<(usize, Cells)>> = groups
        .into_par_iter()
        .map(|(_, group)| {
            group
                .into_iter()
                .map(|i| {
                    let g = &graphs[i];
                    let cells = schemes
                        .iter()
                        .map(|scheme| {
                            let t0 = Instant::now();
                            let pi = scheme.reorder(g);
                            let secs = t0.elapsed().as_secs_f64();
                            let m = gap_measures(g, &pi);
                            (m.avg_gap, m.bandwidth as f64, m.avg_bandwidth, secs)
                        })
                        .collect();
                    (i, cells)
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
    for (i, row) in done.into_iter().flatten() {
        for (s, (gap, band, avg_band, secs)) in row.into_iter().enumerate() {
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
        let r = reorderlab_graph::build_pool(2).install(|| gap_sweep(&instances, &schemes));
        assert_eq!(r.schemes, vec!["Natural", "RCM"]);
        // Each instance's cells land in its own column, whichever worker
        // group ran it.
        for (i, spec) in instances.iter().enumerate() {
            let g = spec.generate();
            assert_eq!(r.avg_gap[0][i], gap_measures(&g, &Scheme::Natural.reorder(&g)).avg_gap);
        }
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
