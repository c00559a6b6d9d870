//! The scheme × instance sweep shared by the gap-measure figures
//! (Figs. 1, 4, 5, 6, 7).

use rayon::prelude::*;
use reorderlab_core::measures::gap_measures;
use reorderlab_core::Scheme;
use reorderlab_datasets::InstanceSpec;
use reorderlab_trace::Manifest;
use std::time::Instant;

/// All measurements from sweeping a set of schemes over a set of instances.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Scheme names, row order of the matrices.
    pub schemes: Vec<String>,
    /// Canonical scheme specs (`Scheme::spec`), row order of the matrices.
    pub scheme_specs: Vec<String>,
    /// Seeds the schemes carry (their own parameter, or the suite default).
    pub seeds: Vec<u64>,
    /// Instance names, column order of the matrices.
    pub instances: Vec<String>,
    /// Generated vertex counts per instance.
    pub vertices: Vec<usize>,
    /// Generated edge counts per instance.
    pub edges: Vec<usize>,
    /// `avg_gap[s][i]`: ξ̂ of scheme `s` on instance `i`.
    pub avg_gap: Vec<Vec<f64>>,
    /// `bandwidth[s][i]`: β.
    pub bandwidth: Vec<Vec<f64>>,
    /// `avg_bandwidth[s][i]`: β̂.
    pub avg_bandwidth: Vec<Vec<f64>>,
    /// `reorder_secs[s][i]`: wall seconds spent computing the ordering.
    pub reorder_secs: Vec<Vec<f64>>,
}

impl SweepResult {
    /// Flattens the sweep into one run manifest per scheme × instance cell,
    /// ready for JSONL appending next to the figure's CSV output.
    pub fn manifests(&self, command: &str) -> Vec<Manifest> {
        let threads = rayon::current_num_threads();
        let mut out = Vec::with_capacity(self.schemes.len() * self.instances.len());
        for (s, scheme) in self.schemes.iter().enumerate() {
            for (i, inst) in self.instances.iter().enumerate() {
                let mut m = Manifest::new(command, inst, self.vertices[i], self.edges[i])
                    .with_scheme(scheme, &self.scheme_specs[s])
                    .with_seed(self.seeds[s])
                    .with_threads(threads);
                m.push_measure("avg_gap", self.avg_gap[s][i]);
                m.push_measure("bandwidth", self.bandwidth[s][i]);
                m.push_measure("avg_bandwidth", self.avg_bandwidth[s][i]);
                m.push_measure("reorder_wall_s", self.reorder_secs[s][i]);
                out.push(m);
            }
        }
        out
    }
}

/// The seed a scheme's manifest reports: the scheme's own seed parameter
/// where it has one, otherwise the evaluation-suite default of 42.
fn scheme_seed(scheme: &Scheme) -> u64 {
    match *scheme {
        Scheme::Random { seed }
        | Scheme::NestedDissection { seed }
        | Scheme::Metis { seed, .. } => seed,
        _ => 42,
    }
}

/// Runs every scheme on every instance (instances in parallel), collecting
/// the three gap measures and the reordering time.
pub fn gap_sweep(instances: &[InstanceSpec], schemes: &[Scheme]) -> SweepResult {
    // (vertices, edges, per-scheme (ξ̂, β, β̂, seconds) cells) per instance
    type InstanceRow = (usize, usize, Vec<(f64, f64, f64, f64)>);
    let per_instance: Vec<InstanceRow> = instances
        .par_iter()
        .map(|spec| {
            let g = spec.generate();
            let cells = schemes
                .iter()
                .map(|scheme| {
                    let t0 = Instant::now();
                    let pi = scheme.reorder(&g);
                    let secs = t0.elapsed().as_secs_f64();
                    let m = gap_measures(&g, &pi);
                    (m.avg_gap, m.bandwidth as f64, m.avg_bandwidth, secs)
                })
                .collect();
            (g.num_vertices(), g.num_edges(), cells)
        })
        .collect();

    let ns = schemes.len();
    let ni = instances.len();
    let mut out = SweepResult {
        schemes: schemes.iter().map(|s| s.name().to_string()).collect(),
        scheme_specs: schemes.iter().map(Scheme::spec).collect(),
        seeds: schemes.iter().map(scheme_seed).collect(),
        instances: instances.iter().map(|s| s.name.to_string()).collect(),
        vertices: per_instance.iter().map(|&(n, ..)| n).collect(),
        edges: per_instance.iter().map(|&(_, m, _)| m).collect(),
        avg_gap: vec![vec![0.0; ni]; ns],
        bandwidth: vec![vec![0.0; ni]; ns],
        avg_bandwidth: vec![vec![0.0; ni]; ns],
        reorder_secs: vec![vec![0.0; ni]; ns],
    };
    for (i, (_, _, row)) in per_instance.iter().enumerate() {
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

    #[test]
    fn sweep_flattens_into_schema_stable_manifests() {
        let instances: Vec<InstanceSpec> = small_suite().into_iter().take(2).collect();
        let schemes = vec![Scheme::Rcm, Scheme::Random { seed: 9 }];
        let r = gap_sweep(&instances, &schemes);
        let manifests = r.manifests("sweep_test");
        assert_eq!(manifests.len(), 4, "one manifest per scheme × instance");
        for m in &manifests {
            assert_eq!(m.command, "sweep_test");
            assert!(m.graph.vertices > 0 && m.graph.edges > 0);
            for key in ["avg_gap", "bandwidth", "avg_bandwidth", "reorder_wall_s"] {
                assert!(m.measure(key).is_some(), "manifest missing {key}");
            }
            // Every manifest survives a serialize/parse round trip.
            let back = Manifest::parse(&m.to_line()).expect("round trip");
            assert_eq!(back.graph.id, m.graph.id);
        }
        let random =
            manifests.iter().find(|m| m.scheme.as_ref().is_some_and(|s| s.name == "Random"));
        assert_eq!(random.expect("random rows present").seed, 9, "seed from the scheme");
    }
}
