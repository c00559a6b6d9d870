//! # reorderlab-bench
//!
//! The experiment harness: a registry with one entry per table and figure
//! of the paper, plus shared rendering and sweep utilities. One binary runs
//! it, `figures --out DIR [ID...]`: it writes `DIR/<id>.txt` for each id
//! given, or for every entry when none is. `results/` holds the committed
//! texts, all written by one `figures --out results` run.
//!
//! An *exact* entry reads no clock and no worker count, so its text is the
//! same at any width and on any host; `tests/exact_figures.rs` rebuilds
//! each one and diffs it byte for byte against `results/`. A *timing* entry
//! prints wall times or the worker count, and is re-recorded by hand. None
//! of them is a benchmark: wall time is measured by `benchmark/`
//! (`BENCHMARK.json`) and nowhere else.
//!
//! Every entry exists because something reads its text; an entry (or a
//! `results/*.txt`) with no reader is deleted, and a test below keeps the
//! registry, this table and `results/` in step.
//!
//! | Id | Kind | Paper artifact | Read by |
//! |---|---|---|---|
//! | `table1` | exact | Table I — instance statistics | EXPERIMENTS.md "Table I" |
//! | `fig01_headline_profile` | exact | Fig. 1 — headline avg-gap performance profile | EXPERIMENTS.md "Figure 1" |
//! | `fig04_reorder_time` | timing | Fig. 4 — reordering compute-time profile | EXPERIMENTS.md "Figure 4" |
//! | `fig05_avg_gap_profile` | exact | Fig. 5 — ξ̂ performance profile | EXPERIMENTS.md "Figure 5" |
//! | `fig06_bandwidth` | exact | Fig. 6 — β and β̂ performance profiles | EXPERIMENTS.md "Figure 6a/6b" |
//! | `fig07_metis_sweep` | exact | Fig. 7 — METIS partition-count sweep | EXPERIMENTS.md "Figure 7" |
//! | `fig08_violin` | exact | Fig. 8 — gap distributions + best/worst factors | EXPERIMENTS.md "Figure 8" |
//! | `fig09_community` | timing | Fig. 9 — community-detection heat maps | EXPERIMENTS.md "Figure 9" and, at `RAYON_NUM_THREADS=1`, "§VI-B" |
//! | `fig10_community_memory` | exact | Fig. 10 — Louvain memory metrics | EXPERIMENTS.md "Figure 10" |
//! | `fig11_influence` | timing | Fig. 11 — IMM throughput / total time | EXPERIMENTS.md "Figure 11" |
//! | `fig12_influence_memory` | exact | Fig. 12 — sampling-hotspot memory counters | EXPERIMENTS.md "Figure 12" |
//! | `ablations` | exact | Beyond the paper — design-choice ablations | EXPERIMENTS.md "Ablations" |
//! | `prior_kernels` | timing | Beyond the paper — PageRank/SSSP/BC baseline suite | EXPERIMENTS.md "Prior-work kernel suite" |
//! | `sbm_transition` | exact | Beyond the paper — community-detectability mechanism | EXPERIMENTS.md "SBM detectability transition" |
//! | `summary` | timing | One-page end-to-end summary card | README "Reproducing the paper" |
//!
//! The crate's other binary, `snapshot`, is a gate rather than a figure: it
//! emits and `--diff`s the `BENCH_*.json` exact memsim and compression
//! counters (DESIGN.md §9), which `tests/snapshot_gate.rs` checks against
//! `BENCH_0016.json` at 1 and 7 threads.

#![warn(missing_docs)]

mod figures;
mod render;
mod sweep;

pub use figures::{Ctx, Figure, FigureText, FIGURES};

#[cfg(test)]
mod tests {
    use super::FIGURES;
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

    /// No orphans: the registry, the doc table above and `results/*.txt`
    /// name the same ids, each doc row gives its entry's kind, and the only
    /// binaries are the driver and the snapshot gate.
    #[test]
    fn registry_doc_table_and_results_name_the_same_figures() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let registry: BTreeSet<String> = FIGURES.iter().map(|f| f.id.to_string()).collect();
        assert_eq!(registry.len(), FIGURES.len(), "duplicate registry id");
        assert_eq!(stems(&root.join("../../results"), "txt"), registry, "results/*.txt");

        let rows: Vec<(String, String)> = include_str!("lib.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! | `"))
            .map(|row| {
                let (id, rest) = row.split_once("` | ").expect("id cell");
                let kind = rest.split(" | ").next().expect("kind cell");
                (id.to_string(), kind.to_string())
            })
            .collect();
        let documented: BTreeSet<String> = rows.iter().map(|(id, _)| id.clone()).collect();
        assert_eq!(documented.len(), rows.len(), "duplicate doc row");
        assert_eq!(documented, registry, "doc table rows");
        for (id, kind) in &rows {
            let figure = FIGURES.iter().find(|f| f.id == id).expect("registered");
            assert_eq!(kind, if figure.exact { "exact" } else { "timing" }, "{id}'s kind");
        }

        let bins: BTreeSet<String> = stems(&root.join("src/bin"), "rs");
        assert_eq!(bins, ["figures", "snapshot"].map(String::from).into(), "src/bin/*.rs");
    }
}
