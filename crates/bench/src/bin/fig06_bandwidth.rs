//! Figure 6: performance profiles of graph bandwidth β (left, Fig. 6a) and
//! average graph bandwidth β̂ (right, Fig. 6b) for the 11 schemes over the
//! 25 small instances.
//!
//! Expected shape (paper §V-A): RCM clearly dominates β (everything else
//! 2–22× worse); β̂ shows no clear winner.

use reorderlab_bench::args::maybe_write_csv;
use reorderlab_bench::sweep::gap_sweep;
use reorderlab_bench::{render_profile, HarnessArgs};
use reorderlab_core::{PerformanceProfile, Scheme};
use reorderlab_datasets::small_suite;

fn main() {
    let args = HarnessArgs::from_env(
        "Figure 6: performance profiles of graph bandwidth (6a) and average graph bandwidth (6b)",
    );
    let mut instances = small_suite();
    if args.quick {
        instances.truncate(6);
    }
    let schemes = Scheme::evaluation_suite(42);
    let sweep = gap_sweep(&instances, &schemes);

    let band_profile = PerformanceProfile::try_new(
        &sweep.schemes,
        &sweep.bandwidth,
        &PerformanceProfile::default_taus(),
    )
    .unwrap_or_else(|e| {
        eprintln!("fig06_bandwidth: cannot build bandwidth profile: {e}");
        std::process::exit(2);
    });
    println!("=== Figure 6a: graph bandwidth (β) — fraction within τ × best ===\n");
    println!("{}", render_profile(&band_profile));

    let avg_profile = PerformanceProfile::try_new(
        &sweep.schemes,
        &sweep.avg_bandwidth,
        &PerformanceProfile::default_taus(),
    )
    .unwrap_or_else(|e| {
        eprintln!("fig06_bandwidth: cannot build avg-bandwidth profile: {e}");
        std::process::exit(2);
    });
    println!("=== Figure 6b: average graph bandwidth (β̂) — fraction within τ × best ===\n");
    println!("{}", render_profile(&avg_profile));

    // Shape check the paper highlights: RCM wins β on most inputs.
    if let Some(rcm) = band_profile.methods.iter().position(|m| m == "RCM") {
        let wins = band_profile.win_fraction();
        println!(
            "RCM is best on {:.0}% of inputs for β (paper: RCM clearly outperforms all others).",
            wins[rcm] * 100.0
        );
    }

    let mut csv = Vec::new();
    for (label, profile) in [("beta", &band_profile), ("avg_beta", &avg_profile)] {
        for (s, name) in profile.methods.iter().enumerate() {
            for (t, &tau) in profile.taus.iter().enumerate() {
                csv.push(format!("{label},{name},{tau},{}", profile.curves[s][t]));
            }
        }
    }
    maybe_write_csv(&args.csv, "measure,scheme,tau,fraction", &csv);
}
