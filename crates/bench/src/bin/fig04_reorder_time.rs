//! Figure 4: performance profile of reordering *compute time* for the four
//! representative schemes — RCM, Degree Sort, Grappolo, METIS-32 — over the
//! 9 large instances.
//!
//! Expected shape (paper §III-F): Degree Sort and RCM are the cheapest;
//! Grappolo and METIS-32 cost more but stay within a modest factor.

use reorderlab_bench::args::{maybe_append_manifests, maybe_write_csv};
use reorderlab_bench::sweep::gap_sweep;
use reorderlab_bench::{render_profile, HarnessArgs, Table};
use reorderlab_core::schemes::DegreeDirection;
use reorderlab_core::{PerformanceProfile, Scheme};
use reorderlab_datasets::large_suite;

fn main() {
    let args = HarnessArgs::from_env(
        "Figure 4: performance profile of reordering compute time (RCM, DegreeSort, Grappolo, METIS-32) on the 9 large inputs",
    );
    let mut instances = large_suite();
    if args.quick {
        instances.truncate(3);
    }
    let schemes = vec![
        Scheme::Rcm,
        Scheme::DegreeSort { direction: DegreeDirection::Decreasing },
        Scheme::Grappolo,
        Scheme::Metis { parts: 32, seed: 42 },
    ];
    let sweep = args.in_pool(|| gap_sweep(&instances, &schemes));

    println!("=== Reordering wall time (seconds) per scheme × instance ===\n");
    let mut raw =
        Table::new(std::iter::once("scheme".to_string()).chain(sweep.instances.iter().cloned()));
    for (s, name) in sweep.schemes.iter().enumerate() {
        let mut row = vec![name.clone()];
        row.extend(sweep.reorder_secs[s].iter().map(|v| format!("{v:.3}")));
        raw.row(row);
    }
    println!("{}", raw.render());

    // A wider factor grid than the gap figures: a Rust sort (Degree Sort)
    // on a scaled-down graph is microseconds, so the heavyweight schemes
    // land at much larger relative factors than the paper's C/C++ tools on
    // full-size inputs.
    let taus = [
        1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
        50000.0,
    ];
    let profile = PerformanceProfile::try_new(&sweep.schemes, &sweep.reorder_secs, &taus)
        .unwrap_or_else(|e| {
            eprintln!("fig04_reorder_time: cannot build timing profile: {e}");
            std::process::exit(2);
        });
    println!("=== Figure 4: fraction of inputs within τ × fastest ===\n");
    println!("{}", render_profile(&profile));

    let mut csv = Vec::new();
    for (s, name) in sweep.schemes.iter().enumerate() {
        for (i, inst) in sweep.instances.iter().enumerate() {
            csv.push(format!("{name},{inst},{}", sweep.reorder_secs[s][i]));
        }
    }
    maybe_write_csv(&args.csv, "scheme,instance,seconds", &csv);
    maybe_append_manifests(&args.manifests, &sweep.manifests("fig04_reorder_time"));
}
