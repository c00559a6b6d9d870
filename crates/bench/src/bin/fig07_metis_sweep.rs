//! Figure 7: performance profile of ξ̂ for METIS-induced orderings with
//! different part counts (8, 16, 32, 64, 128, 256) over the 25 small
//! instances.
//!
//! Expected shape (paper §V, footnote 2): 32 parts is the sweet spot.

use reorderlab_bench::args::maybe_write_csv;
use reorderlab_bench::sweep::gap_sweep;
use reorderlab_bench::{render_profile, HarnessArgs};
use reorderlab_core::{PerformanceProfile, Scheme};
use reorderlab_datasets::small_suite;

fn main() {
    let args = HarnessArgs::from_env(
        "Figure 7: METIS partition-count sweep (8..256 parts) on the ξ̂ profile",
    );
    let mut instances = small_suite();
    if args.quick {
        instances.truncate(6);
    }
    let part_counts = [8usize, 16, 32, 64, 128, 256];
    let schemes: Vec<Scheme> =
        part_counts.iter().map(|&parts| Scheme::Metis { parts, seed: 42 }).collect();
    let names: Vec<String> = part_counts.iter().map(|p| format!("METIS-{p}")).collect();

    let sweep = gap_sweep(&instances, &schemes);
    let profile =
        PerformanceProfile::new(&names, &sweep.avg_gap, &PerformanceProfile::default_taus());

    println!("=== Figure 7: ξ̂ profile across METIS part counts ===\n");
    println!("{}", render_profile(&profile));

    let auc = profile.auc();
    let best = names.iter().zip(&auc).max_by(|a, b| a.1.total_cmp(b.1)).expect("non-empty sweep");
    println!("Best configuration by profile dominance: {} (paper: 32 parts).", best.0);

    let mut csv = Vec::new();
    for (s, name) in names.iter().enumerate() {
        for (i, inst) in sweep.instances.iter().enumerate() {
            csv.push(format!("{name},{inst},{}", sweep.avg_gap[s][i]));
        }
    }
    maybe_write_csv(&args.csv, "config,instance,avg_gap", &csv);
}
