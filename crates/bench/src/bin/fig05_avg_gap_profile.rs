//! Figure 5: profile of relative performance of the average gap profile
//! (ξ̂) for the 11 evaluation schemes over the 25 small instances.
//!
//! Expected shape (paper §V-A): METIS-32, Grappolo, and Rabbit-Order form
//! the top tier; RCM is a close second tier; a mixed third tier sits
//! 5–25× off; the degree-/hub-based schemes trail 10–40× off.

use reorderlab_bench::args::maybe_write_csv;
use reorderlab_bench::sweep::gap_sweep;
use reorderlab_bench::{render_profile, HarnessArgs, Table};
use reorderlab_core::{PerformanceProfile, Scheme};
use reorderlab_datasets::small_suite;

fn main() {
    let args = HarnessArgs::from_env(
        "Figure 5: performance profile of the average gap profile (ξ̂), 11 schemes × 25 inputs",
    );
    let mut instances = small_suite();
    if args.quick {
        instances.truncate(6);
    }
    let schemes = Scheme::evaluation_suite(42);
    let sweep = gap_sweep(&instances, &schemes);

    println!("=== Raw ξ̂ per scheme × instance ===\n");
    let mut raw =
        Table::new(std::iter::once("scheme".to_string()).chain(sweep.instances.iter().cloned()));
    for (s, name) in sweep.schemes.iter().enumerate() {
        let mut row = vec![name.clone()];
        row.extend(sweep.avg_gap[s].iter().map(|v| format!("{v:.1}")));
        raw.row(row);
    }
    println!("{}", raw.render());

    let profile = PerformanceProfile::new(
        &sweep.schemes,
        &sweep.avg_gap,
        &PerformanceProfile::default_taus(),
    );
    println!("=== Figure 5: fraction of inputs within τ × best (ξ̂) ===\n");
    println!("{}", render_profile(&profile));

    let mut csv = Vec::new();
    for (s, name) in profile.methods.iter().enumerate() {
        for (t, &tau) in profile.taus.iter().enumerate() {
            csv.push(format!("{name},{tau},{}", profile.curves[s][t]));
        }
    }
    maybe_write_csv(&args.csv, "scheme,tau,fraction", &csv);
}
