//! # reorderlab-bench
//!
//! The experiment harness: one binary per table/figure of the paper, plus
//! shared rendering and sweep utilities. Run any binary with `--help` for
//! its options; all binaries accept `--quick` to run a reduced instance set
//! for smoke-testing.
//!
//! Every binary exists because something regenerates from it; a binary
//! (or a `results/*.txt`) with no consumer is deleted, and a test below
//! keeps the two lists in step. None of them is a benchmark: wall time is
//! measured by `benchmark/` (`BENCHMARK.json`) and nowhere else.
//!
//! | Binary | Paper artifact | Consumed by |
//! |---|---|---|
//! | `table1` | Table I — instance statistics | EXPERIMENTS.md "Table I"; `results/table1.txt` |
//! | `fig01_headline_profile` | Fig. 1 — headline avg-gap performance profile | EXPERIMENTS.md "Figure 1"; `results/fig01_headline_profile.txt` |
//! | `fig04_reorder_time` | Fig. 4 — reordering compute-time profile | EXPERIMENTS.md "Figure 4"; `results/fig04_reorder_time.txt` |
//! | `fig05_avg_gap_profile` | Fig. 5 — ξ̂ performance profile | EXPERIMENTS.md "Figure 5"; `results/fig05_avg_gap_profile.txt` |
//! | `fig06_bandwidth` | Fig. 6 — β and β̂ performance profiles | EXPERIMENTS.md "Figure 6a/6b"; `results/fig06_bandwidth.txt` |
//! | `fig07_metis_sweep` | Fig. 7 — METIS partition-count sweep | EXPERIMENTS.md "Figure 7"; `results/fig07_metis_sweep.txt` |
//! | `fig08_violin` | Fig. 8 — gap distributions + best/worst factors | EXPERIMENTS.md "Figure 8"; `results/fig08_violin.txt` |
//! | `fig09_community` | Fig. 9 — community-detection heat maps | EXPERIMENTS.md "Figure 9" and "§VI-B" (`--serial`); `results/fig09_community.txt` |
//! | `fig10_community_memory` | Fig. 10 — Louvain memory metrics | EXPERIMENTS.md "Figure 10"; `results/fig10_community_memory.txt` |
//! | `fig11_influence` | Fig. 11 — IMM throughput / total time | EXPERIMENTS.md "Figure 11"; `results/fig11_influence.txt` |
//! | `fig12_influence_memory` | Fig. 12 — sampling-hotspot memory counters | EXPERIMENTS.md "Figure 12"; `results/fig12_influence_memory.txt` |
//! | `ablations` | Beyond the paper — design-choice ablations | EXPERIMENTS.md "Ablations"; `results/ablations.txt` |
//! | `prior_kernels` | Beyond the paper — PageRank/SSSP/BC baseline suite | EXPERIMENTS.md "Prior-work kernel suite"; `results/prior_kernels.txt` |
//! | `sbm_transition` | Beyond the paper — community-detectability mechanism | EXPERIMENTS.md "SBM detectability transition"; `results/sbm_transition.txt` |
//! | `summary` | One-page end-to-end summary card | README "Reproducing the paper"; `results/summary.txt` |
//! | `snapshot` | `BENCH_*.json` exact memsim + compression counters: emit + `--diff` (DESIGN.md §9) | `tests/snapshot_gate.rs` (tier-1, at 1 and 7 threads); `BENCH_0016.json` |

#![warn(missing_docs)]

pub mod args;
mod render;
pub mod sweep;

pub use args::HarnessArgs;
pub use render::{render_heatmap, render_profile, render_violin, Table};

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::path::Path;

    fn stems(dir: &Path, extension: &str) -> BTreeSet<String> {
        std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|entry| entry.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == extension))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect()
    }

    /// No orphans: a `results/*.txt` nobody can regenerate, or a binary the
    /// crate docs do not account for, fails here.
    #[test]
    fn every_result_has_a_generating_bin_and_every_bin_is_documented() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let bins = stems(&root.join("src/bin"), "rs");
        let results = stems(&root.join("../../results"), "txt");
        let orphans: Vec<_> = results.difference(&bins).collect();
        assert!(orphans.is_empty(), "results/*.txt without a src/bin/*.rs: {orphans:?}");
        let docs = include_str!("lib.rs");
        for bin in &bins {
            assert!(docs.contains(&format!("//! | `{bin}` |")), "{bin} missing from the doc table");
        }
    }
}
