//! Figure 1 (the headline figure): profile of relative performance of the
//! average linear-arrangement gap across all evaluated schemes on the 25
//! small inputs, plus the headline statistic — the factor between the best
//! and poorest scheme (the paper reports up to 40×).

use reorderlab_bench::args::maybe_write_csv;
use reorderlab_bench::sweep::gap_sweep;
use reorderlab_bench::{render_profile, HarnessArgs};
use reorderlab_core::{PerformanceProfile, Scheme};
use reorderlab_datasets::small_suite;

fn main() {
    let args = HarnessArgs::from_env(
        "Figure 1: headline performance profile of average linear-arrangement gap",
    );
    let mut instances = small_suite();
    if args.quick {
        instances.truncate(6);
    }
    let schemes = Scheme::evaluation_suite(42);
    let sweep = gap_sweep(&instances, &schemes);
    let profile = PerformanceProfile::new(
        &sweep.schemes,
        &sweep.avg_gap,
        &PerformanceProfile::default_taus(),
    );

    println!("=== Figure 1: relative avg-gap performance profile ===\n");
    println!("{}", render_profile(&profile));

    // Headline: spread between best and poorest scheme per instance.
    let mut worst_factor = 0.0f64;
    let mut worst_instance = String::new();
    for (i, inst) in sweep.instances.iter().enumerate() {
        let col: Vec<f64> = sweep.avg_gap.iter().map(|row| row[i]).collect();
        let best = col.iter().copied().fold(f64::INFINITY, f64::min);
        let worst = col.iter().copied().fold(0.0f64, f64::max);
        if best > 0.0 && worst / best > worst_factor {
            worst_factor = worst / best;
            worst_instance = inst.clone();
        }
    }
    println!(
        "Best-vs-poorest ξ̂ spread: up to {worst_factor:.1}x (on {worst_instance}); the paper reports up to 40x.",
    );

    let mut csv = Vec::new();
    for (s, name) in profile.methods.iter().enumerate() {
        for (t, &tau) in profile.taus.iter().enumerate() {
            csv.push(format!("{name},{tau},{}", profile.curves[s][t]));
        }
    }
    maybe_write_csv(&args.csv, "scheme,tau,fraction", &csv);
}
