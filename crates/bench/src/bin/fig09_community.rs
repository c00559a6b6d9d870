//! Figure 9: impact of vertex ordering on community detection (Grappolo)
//! over the 9 large instances × 4 orderings (Grappolo, RCM, Natural,
//! Degree Sort) — six heat maps: phase time, iteration time, iteration
//! count, modularity, Work%, and Work/edge. Metrics come from the *first*
//! phase, as in the paper ("subsequent phases analyze a derivative,
//! compressed graph").
//!
//! Expected shape (paper §VI-B): the Grappolo ordering usually beats Degree
//! Sort on phase/iteration time (2–4×), has the best Work% and lowest
//! work/edge; modularity spreads stay small; with `--serial` the spread
//! shrinks to 1.3–2.5×.

use rayon::prelude::*;
use reorderlab_bench::args::maybe_write_csv;
use reorderlab_bench::{render_heatmap, HarnessArgs};
use reorderlab_community::{louvain, LouvainConfig};
use reorderlab_core::Scheme;
use reorderlab_datasets::large_suite;

struct Cell {
    phase_secs: f64,
    iter_secs: f64,
    iters: f64,
    modularity: f64,
    work_pct: f64,
    work_per_edge: f64,
}

fn main() {
    let args = HarnessArgs::from_env(
        "Figure 9: community-detection heat maps (phase s, iteration s, #iters, modularity, Work%, work/edge)",
    );
    let mut instances = large_suite();
    if args.quick {
        instances.truncate(3);
    }
    let threads = args.in_pool(rayon::current_num_threads);
    let schemes = Scheme::application_suite();
    let scheme_names: Vec<String> = schemes.iter().map(|s| s.name().to_string()).collect();

    println!(
        "Running Louvain under {} orderings × {} instances with {threads} thread(s)…\n",
        schemes.len(),
        instances.len()
    );

    // Parallelize ordering computation per instance, but run Louvain itself
    // in the pool the flags ask for so Work% is meaningful.
    let results: Vec<(String, Vec<Cell>)> = instances
        .iter()
        .map(|spec| {
            let g = spec.generate();
            let perms: Vec<_> = schemes.par_iter().map(|s| s.reorder(&g)).collect();
            let cells = perms
                .iter()
                .map(|pi| {
                    let h = g.permuted(pi).expect("scheme permutations are valid");
                    let r = args.in_pool(|| louvain(&h, &LouvainConfig::default()));
                    let p = r.stats.first_phase().expect("at least one phase");
                    Cell {
                        phase_secs: p.duration.as_secs_f64(),
                        iter_secs: p.time_per_iteration().as_secs_f64(),
                        iters: p.iterations.len() as f64,
                        modularity: r.modularity,
                        work_pct: p.work_percent(threads) * 100.0,
                        work_per_edge: p.loads_per_edge(),
                    }
                })
                .collect();
            (spec.name.to_string(), cells)
        })
        .collect();

    let rows: Vec<String> = results.iter().map(|(n, _)| n.clone()).collect();
    let extract = |f: &dyn Fn(&Cell) -> f64| -> Vec<Vec<f64>> {
        results.iter().map(|(_, cells)| cells.iter().map(f).collect()).collect()
    };

    let phase = extract(&|c: &Cell| c.phase_secs);
    let iter = extract(&|c: &Cell| c.iter_secs);
    let iters = extract(&|c: &Cell| c.iters);
    let modularity = extract(&|c: &Cell| c.modularity);
    let work = extract(&|c: &Cell| c.work_pct);
    let wpe = extract(&|c: &Cell| c.work_per_edge);

    println!("{}", render_heatmap("Phase (s)", &rows, &scheme_names, &phase, true, 3));
    println!("{}", render_heatmap("Iteration (s)", &rows, &scheme_names, &iter, true, 4));
    println!("{}", render_heatmap("Iteration Count", &rows, &scheme_names, &iters, true, 0));
    println!("{}", render_heatmap("Modularity", &rows, &scheme_names, &modularity, false, 3));
    println!("{}", render_heatmap("Work%", &rows, &scheme_names, &work, false, 0));
    println!("{}", render_heatmap("Work/edge (loads)", &rows, &scheme_names, &wpe, true, 1));

    // Headline contrast the paper reports.
    let mut max_iter_spread = 0.0f64;
    for (_, cells) in &results {
        let best = cells.iter().map(|c| c.iter_secs).fold(f64::INFINITY, f64::min);
        let worst = cells.iter().map(|c| c.iter_secs).fold(0.0f64, f64::max);
        if best > 0.0 {
            max_iter_spread = max_iter_spread.max(worst / best);
        }
    }
    println!(
        "Max best-vs-worst iteration-time spread: {max_iter_spread:.1}x \
         (paper: 2-4x parallel, 1.3-2.5x serial; this run used {threads} thread(s))."
    );

    let mut csv = Vec::new();
    for ((name, cells), _) in results.iter().zip(0..) {
        for (s, c) in cells.iter().enumerate() {
            csv.push(format!(
                "{name},{},{:.4},{:.5},{},{:.4},{:.1},{:.2}",
                scheme_names[s],
                c.phase_secs,
                c.iter_secs,
                c.iters,
                c.modularity,
                c.work_pct,
                c.work_per_edge
            ));
        }
    }
    maybe_write_csv(
        &args.csv,
        "instance,scheme,phase_secs,iter_secs,iterations,modularity,work_pct,work_per_edge",
        &csv,
    );
}
