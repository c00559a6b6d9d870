//! The three pipeline workloads. One cell is one user journey: read a
//! container, reorder, relabel, write the reordered container, run the
//! kernels. Every layer is timed from outside, around the call into the
//! crate's public function.

use crate::checks::{self, Check};
use crate::inputs::{self, csrbin_path, csrz_path};
use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::stats::{mean, median, percentile};
use crate::{ChildConfig, Outcome};
use reorderlab_community::{louvain, louvain_compressed, CommunityResult, LouvainConfig};
use reorderlab_core::measures::{gap_measures, try_compression_measures};
use reorderlab_core::Scheme;
use reorderlab_graph::{
    build_pool, csr_digest, read_binary_csr, read_compressed_csr, CompressedCsr, Csr, Permutation,
};
use reorderlab_influence::{imm, imm_compressed, DiffusionModel, ImmConfig, ImmResult};
use reorderlab_kernels::{pagerank, pagerank_compressed, PageRankConfig, PageRankResult};
use reorderlab_memsim::{replay_pagerank_iteration, Hierarchy, HierarchyConfig};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

const IMM_K: usize = 16;
const IMM_EPSILON: f64 = 0.5;

/// Weighted cascade, not the paper's IC with p = 0.25: on `social` IC takes
/// 8 to 17 s and 190 MB a call and swings twofold between runs.
fn imm_config() -> ImmConfig {
    ImmConfig::new(IMM_K).epsilon(IMM_EPSILON).model(DiffusionModel::WeightedCascade).seed(7)
}

#[derive(Clone, Copy, PartialEq)]
enum Kernels {
    PageRank,
    All,
}

struct Workload {
    cells: Vec<(&'static str, &'static str)>,
    kernels: Kernels,
    compressed: bool,
    /// Seconds of `--seconds` that buy one timed pass.
    seconds_per_pass: f64,
}

fn workload(name: &str) -> Workload {
    match name {
        // The Fig. 4 view: scheme cost dominates. METIS runs on `road` only,
        // because on `social` it would swamp every other scheme; Gorder and
        // nested dissection run for minutes and are left out.
        "reorder_heavy" => Workload {
            cells: vec![
                ("social", "rcm"),
                ("social", "rabbit"),
                ("social", "grappolo"),
                ("road", "rcm"),
                ("road", "rabbit"),
                ("road", "grappolo"),
                ("road", "metis:parts=32"),
            ],
            kernels: Kernels::PageRank,
            compressed: false,
            seconds_per_pass: 6.0,
        },
        // The Figs. 9 and 11 view: the kernels dominate and reorder is about
        // nothing, so a faster scheme must not move this workload.
        "kernel_flat" => Workload {
            cells: vec![
                ("social", "natural"),
                ("social", "dbg"),
                ("road", "natural"),
                ("road", "dbg"),
            ],
            kernels: Kernels::All,
            compressed: false,
            seconds_per_pass: 6.0,
        },
        // The same journey through the compressed tier: rows are gap-decoded
        // instead of sliced, and encode and write run beside read.
        "kernel_csrz" => Workload {
            cells: vec![("social", "dbg"), ("road", "dbg")],
            kernels: Kernels::All,
            compressed: true,
            seconds_per_pass: 6.0,
        },
        other => unreachable!("{other} is not a pipeline workload"),
    }
}

/// The span around a scheme's `try_reorder`, named after the crate that does
/// the work.
fn scheme_span(spec: &str) -> String {
    let name = spec.split(':').next().unwrap_or(spec);
    match name {
        "metis" => "partition.metis".into(),
        "grappolo" => "community.grappolo".into(),
        other => format!("core.reorder.{other}"),
    }
}

/// What the checks compare a cell against: the input graph in natural order
/// and the kernels' results on it.
struct Reference {
    graph: Csr,
    sorted_degrees: Vec<usize>,
    pagerank: PageRankResult,
    /// Louvain modularity and IMM estimate in natural order, where the
    /// workload's checks compare against them.
    natural_kernels: Option<(f64, f64)>,
}

/// Flat kernels on one cell's reordered graph, for the bit-identity check of
/// the compressed kernels.
struct FlatResults {
    digest: u64,
    pagerank: PageRankResult,
    louvain: CommunityResult,
    imm: ImmResult,
}

struct CellOutput {
    seconds: f64,
    pi: Permutation,
    permuted: Csr,
    /// The container the cell wrote.
    written: PathBuf,
    /// Gap-stream bytes of the compressed container, if one was written.
    gap_bytes: usize,
    pagerank: PageRankResult,
    louvain: Option<CommunityResult>,
    imm: Option<ImmResult>,
}

fn open(path: &Path) -> BufReader<File> {
    BufReader::new(
        File::open(path).unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display())),
    )
}

fn run_flat_cell(
    dir: &Path,
    graph: &str,
    spec: &str,
    kernels: Kernels,
    out: PathBuf,
    t: &mut Tracer,
) -> CellOutput {
    let scheme = Scheme::parse(spec).expect("cell schemes parse");
    let cell = t.enter("cell");
    let start = Instant::now();
    let g = t.leaf("graph.read_csrbin", || {
        read_binary_csr(&mut open(&csrbin_path(dir, graph))).expect("the input container reads")
    });
    let pi = t.leaf(&scheme_span(spec), || {
        scheme.try_reorder(&g).expect("cell schemes accept the graph")
    });
    let permuted =
        t.leaf("graph.permuted", || g.permuted(&pi).expect("the ordering covers the graph"));
    t.leaf("graph.write_csrbin", || inputs::write_csrbin(&permuted, &out));
    let pr = t.leaf("kernels.pagerank", || pagerank(&permuted, &PageRankConfig::new()));
    let (lv, im) = match kernels {
        Kernels::PageRank => (None, None),
        Kernels::All => (
            Some(t.leaf("community.louvain", || louvain(&permuted, &LouvainConfig::default()))),
            Some(t.leaf("influence.imm", || imm(&permuted, &imm_config()))),
        ),
    };
    let seconds = start.elapsed().as_secs_f64();
    t.exit(cell);
    CellOutput {
        seconds,
        pi,
        permuted,
        written: out,
        gap_bytes: 0,
        pagerank: pr,
        louvain: lv,
        imm: im,
    }
}

fn run_csrz_cell(dir: &Path, graph: &str, spec: &str, out: PathBuf, t: &mut Tracer) -> CellOutput {
    let scheme = Scheme::parse(spec).expect("cell schemes parse");
    let cell = t.enter("cell");
    let start = Instant::now();
    let read =
        |path: &Path| read_compressed_csr(&mut open(path)).expect("the compressed container reads");
    let cz = t.leaf("graph.read_csrz", || read(&csrz_path(dir, graph)));
    let g = t.leaf("graph.decode", || cz.decode());
    let pi = t.leaf(&scheme_span(spec), || {
        scheme.try_reorder(&g).expect("cell schemes accept the graph")
    });
    let permuted =
        t.leaf("graph.permuted", || g.permuted(&pi).expect("the ordering covers the graph"));
    let encoded =
        t.leaf("graph.encode", || CompressedCsr::from_csr(&permuted).expect("rows are sorted"));
    t.leaf("graph.write_csrz", || inputs::write_csrz(&encoded, &out));
    let gap_bytes = encoded.gap_bytes();
    drop(encoded);
    let hz = t.leaf("graph.read_csrz", || read(&out));
    let pr = t.leaf("kernels.pagerank_csrz", || {
        pagerank_compressed(&hz, &PageRankConfig::new()).expect("rows are sorted")
    });
    let lv =
        t.leaf("community.louvain_csrz", || louvain_compressed(&hz, &LouvainConfig::default()));
    let im = t.leaf("influence.imm_csrz", || {
        imm_compressed(&hz, &imm_config()).expect("rows are sorted")
    });
    let seconds = start.elapsed().as_secs_f64();
    t.exit(cell);
    CellOutput {
        seconds,
        pi,
        permuted,
        written: out,
        gap_bytes,
        pagerank: pr,
        louvain: Some(lv),
        imm: Some(im),
    }
}

/// Ordering quality of one cell, which is exact for a seed.
struct Quality {
    avg_log_gap: f64,
    gap_bytes: u64,
}

/// Every output check of one cell. Returns the failures, and the ordering
/// quality measured on the way.
fn check_cell(
    out: &CellOutput,
    reference: &Reference,
    flat: Option<&FlatResults>,
    compressed: bool,
    t: &mut Tracer,
) -> (Vec<String>, Quality) {
    let token = t.enter("check");
    let g = &reference.graph;
    let n = g.num_vertices();
    let mut results: Vec<Check> = vec![
        checks::permutation(out.pi.ranks(), n),
        checks::relabelled(&reference.sorted_degrees, g.num_arcs(), &out.permuted),
    ];
    let reread = if compressed {
        read_compressed_csr(&mut open(&out.written)).map(|cz| cz.decode())
    } else {
        read_binary_csr(&mut open(&out.written))
    };
    results.push(match reread {
        Ok(reread) => checks::container(&out.permuted, &reread),
        Err(e) => Err(format!("the written container does not read back: {e}")),
    });
    results.push(checks::pagerank(&out.pagerank, &reference.pagerank, out.pi.ranks()));
    // The flat workloads compare Louvain and IMM against natural order. The
    // compressed one compares them against the flat kernels on the same
    // graph, bit for bit; without a natural-order floor the Louvain check
    // still recomputes the modularity, and the IMM check the seeds.
    if let Some(lv) = &out.louvain {
        results.push(checks::louvain(&out.permuted, lv, reference.natural_kernels.map(|(q, _)| q)));
    }
    if let Some(im) = &out.imm {
        results.push(checks::imm(
            im,
            IMM_K,
            n,
            IMM_EPSILON,
            reference.natural_kernels.map(|(_, e)| e),
        ));
    }
    if let (Some(flat), Some(lv), Some(im)) = (flat, &out.louvain, &out.imm) {
        if flat.digest != csr_digest(&out.permuted) {
            results.push(Err("the reordered graph changed between passes".into()));
        }
        results.push(checks::pagerank_bit_identical(&out.pagerank, &flat.pagerank));
        results.push(checks::louvain_bit_identical(lv, &flat.louvain));
        results.push(checks::imm_bit_identical(im, &flat.imm));
    }
    let gaps = t.leaf("core.gap_measures", || gap_measures(g, &out.pi));
    let comp = t.leaf("core.compression_measures", || try_compression_measures(g, &out.pi));
    let gap_bytes = match comp {
        Ok(c) => c.gap_bytes,
        Err(e) => {
            results.push(Err(format!("compression measures reject the ordering: {e}")));
            0
        }
    };
    if compressed && gap_bytes != out.gap_bytes as u64 {
        results.push(Err(format!(
            "the written container has {} gap bytes, the measure says {gap_bytes}",
            out.gap_bytes
        )));
    }
    t.exit(token);
    let failures = results.into_iter().filter_map(Result::err).collect();
    (failures, Quality { avg_log_gap: gaps.avg_log_gap, gap_bytes })
}

fn reference(dir: &Path, graph: &str) -> Reference {
    let g =
        read_binary_csr(&mut open(&csrbin_path(dir, graph))).expect("the input container reads");
    let pr = pagerank(&g, &PageRankConfig::new());
    Reference {
        sorted_degrees: checks::sorted_degrees(&g),
        graph: g,
        pagerank: pr,
        natural_kernels: None,
    }
}

/// Sums and counts taken from the outputs of one pass.
#[derive(Default)]
struct PassCounts {
    pagerank_iterations: usize,
    pagerank_arc_visits: f64,
    louvain_iterations: usize,
    modularity: Vec<f64>,
    rr_sets: usize,
    edges_examined: u64,
}

impl PassCounts {
    fn add(&mut self, out: &CellOutput) {
        self.pagerank_iterations += out.pagerank.iterations;
        self.pagerank_arc_visits += (out.pagerank.iterations * out.permuted.num_arcs()) as f64;
        if let Some(lv) = &out.louvain {
            self.louvain_iterations += lv.stats.total_iterations();
            self.modularity.push(lv.modularity);
        }
        if let Some(im) = &out.imm {
            self.rr_sets += im.stats.rr_sets;
            self.edges_examined += im.stats.edges_examined;
        }
    }
}

pub fn run(name: &str, cfg: &ChildConfig) -> Outcome {
    let pool = build_pool(cfg.threads);
    pool.install(|| run_in_pool(name, cfg))
}

fn run_in_pool(name: &str, cfg: &ChildConfig) -> Outcome {
    let w = workload(name);
    let dir = cfg.dir.as_path();
    let mut t = Tracer::new(Instant::now());
    let mut failures: Vec<String> = Vec::new();

    // References for the checks. They are the instrument's cost, not the
    // program's set-up, and stay out of `setup_s`.
    let mut references: Vec<Reference> =
        inputs::GRAPHS.iter().map(|&g| reference(dir, g)).collect();
    let graph_index = |i: usize| {
        inputs::GRAPHS.iter().position(|&g| g == w.cells[i].0).expect("cells use known graphs")
    };
    // The flat workloads check Louvain and IMM against natural order.
    let wants_natural = w.kernels == Kernels::All && !w.compressed;

    let out_path =
        |i: usize| dir.join(format!("cell{i}.{}", if w.compressed { "csrz" } else { "csrbin" }));
    let run_cell = |i: usize, t: &mut Tracer| {
        let (graph, spec) = w.cells[i];
        if w.compressed {
            run_csrz_cell(dir, graph, spec, out_path(i), t)
        } else {
            run_flat_cell(dir, graph, spec, w.kernels, out_path(i), t)
        }
    };
    let label = |i: usize| format!("{}/{}", w.cells[i].0, w.cells[i].1);

    // One untimed warm-up pass: page cache, allocator and thread pool reach
    // their steady state. It is checked like any other pass.
    let mut warmup_s = 0.0;
    let mut flat: Vec<Option<FlatResults>> = Vec::new();
    for i in 0..w.cells.len() {
        let out = run_cell(i, &mut t);
        warmup_s += out.seconds;
        let reference = &mut references[graph_index(i)];
        if wants_natural && reference.natural_kernels.is_none() {
            // A `natural` cell is the natural-order run. A graph without one
            // gets its own.
            reference.natural_kernels = Some(match (w.cells[i].1, &out.louvain, &out.imm) {
                ("natural", Some(lv), Some(im)) => (lv.modularity, im.influence_estimate),
                _ => {
                    let g = &reference.graph;
                    (
                        louvain(g, &LouvainConfig::default()).modularity,
                        imm(g, &imm_config()).influence_estimate,
                    )
                }
            });
        }
        flat.push(w.compressed.then(|| FlatResults {
            digest: csr_digest(&out.permuted),
            pagerank: pagerank(&out.permuted, &PageRankConfig::new()),
            louvain: louvain(&out.permuted, &LouvainConfig::default()),
            imm: imm(&out.permuted, &imm_config()),
        }));
        let (bad, _) = check_cell(&out, reference, flat[i].as_ref(), w.compressed, &mut t);
        failures.extend(bad.into_iter().map(|f| format!("warm-up {}: {f}", label(i))));
    }
    let setup_failures = failures.len();

    // Timed passes: a fixed number for a given `--seconds`, so that every run
    // does the same work. A traced run makes two traced and two plain passes
    // in turn, so that the cost of the spans is measured inside one process.
    let passes = match (cfg.smoke, cfg.trace) {
        (true, false) => 1,
        (true, true) => 2,
        (false, true) => 4,
        (false, false) => ((cfg.seconds / w.seconds_per_pass).round() as usize).max(2),
    };
    // Seconds of every cell in every plain pass and in every traced one.
    let mut plain: Vec<Vec<f64>> = Vec::new();
    let mut traced: Vec<Vec<f64>> = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut counts = PassCounts::default();
    let mut quality: Vec<Quality> = Vec::new();
    let mut timed = 0.0;
    for pass in 0..passes {
        // On a much slower box, give up passes before the run's time limit.
        if pass >= 2 && timed > 3.0 * cfg.seconds {
            break;
        }
        let tracing = cfg.trace && pass % 2 == 0;
        t.set_enabled(tracing);
        let token = t.enter("pass");
        let mut cell_s = Vec::with_capacity(w.cells.len());
        counts = PassCounts::default();
        quality.clear();
        for i in 0..w.cells.len() {
            t.set_op((pass * 100 + i + 1) as u64);
            let out = run_cell(i, &mut t);
            cell_s.push(out.seconds);
            let (bad, q) = check_cell(
                &out,
                &references[graph_index(i)],
                flat[i].as_ref(),
                w.compressed,
                &mut t,
            );
            attempted += 1;
            failed += usize::from(!bad.is_empty());
            failures.extend(bad.into_iter().map(|f| format!("pass {pass} {}: {f}", label(i))));
            counts.add(&out);
            quality.push(q);
        }
        t.exit(token);
        timed += cell_s.iter().sum::<f64>();
        if tracing { &mut traced } else { &mut plain }.push(cell_s);
    }
    t.set_enabled(cfg.trace);

    // The box this runs on is shared, and other tenants slow it by 20 to
    // 70 % for seconds to minutes at a time. That only ever adds time, so each
    // cell is taken at the best of its passes, and a pass is the sum of its
    // cells. Over ten runs the median of the pass times spread as wide or up
    // to a third wider. See README.md, "Noise protocol and bounds".
    let best = |passes: &[Vec<f64>]| -> Vec<f64> {
        (0..w.cells.len())
            .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
            .collect()
    };
    let pass_s =
        |passes: &[Vec<f64>]| -> Vec<f64> { passes.iter().map(|p| p.iter().sum()).collect() };
    let best_plain = best(&plain);
    let best_ms: Vec<f64> = best_plain.iter().map(|s| s * 1e3).collect();

    let mut m = Metrics::default();
    let total_arcs: usize =
        (0..w.cells.len()).map(|i| references[graph_index(i)].graph.num_arcs()).sum();
    let total_gap_bytes: u64 = quality.iter().map(|q| q.gap_bytes).sum();
    m.set_n("setup_s", cfg.setup.get("setup_parent_s") + warmup_s, 1);
    m.set_n("wall_s", best_plain.iter().sum(), plain.len());
    m.set_n("p50_ms", median(&best_ms), plain.len());
    m.set_n("p99_ms", percentile(&best_ms, 0.99), plain.len());
    m.set("gap_bits", mean(&quality.iter().map(|q| q.avg_log_gap).collect::<Vec<_>>()));
    m.set("bits_per_edge", 8.0 * total_gap_bytes as f64 / total_arcs.max(1) as f64);

    if cfg.trace {
        for (g, graph) in inputs::GRAPHS.iter().enumerate() {
            let on: Vec<f64> = (0..w.cells.len())
                .filter(|&i| graph_index(i) == g)
                .map(|i| quality[i].avg_log_gap)
                .collect();
            m.set(&format!("core.avg_log_gap.{graph}"), mean(&on));
        }
        if name == "kernel_flat" {
            memsim_probe(&references[0].graph, &mut m, &mut t);
        }
        layer_metrics(&t, &counts, traced.len(), cfg, &mut m);
        if !plain.is_empty() && !traced.is_empty() {
            let (with, without) =
                (best(&traced).iter().sum::<f64>(), best_plain.iter().sum::<f64>());
            m.set_n("trace.overhead_share", 100.0 * (with / without - 1.0), traced.len());
        }
        m.set("graph.container_bytes", inputs::container_bytes(dir) as f64);
        m.set("trace.cell_self_share", print_shares(&t));
    }
    m.set("peak_rss_mb", inputs::peak_rss_mb());
    println!(
        "{} cells; pass times: warm-up {warmup_s:.3} s, plain {:.3?} s (median {:.3}), traced {:.3?} s",
        w.cells.len(),
        pass_s(&plain),
        median(&pass_s(&plain)),
        pass_s(&traced)
    );
    println!("best of {} passes, by cell: {best_plain:.3?} s", plain.len());
    Outcome { metrics: m, attempted, failed, setup_failures, failures, tracer: t }
}

/// Replays one PageRank iteration on `social`, in natural and in DBG order,
/// through the simulated hierarchy. It predicts the sign of
/// `kernels.pagerank_s` between the two orders.
pub fn memsim_probe(social: &Csr, m: &mut Metrics, t: &mut Tracer) {
    let dbg = social.permuted(&Scheme::Dbg.reorder(social)).expect("dbg covers the graph");
    for (label, graph) in [("natural", social), ("dbg", &dbg)] {
        let mut hier = Hierarchy::new(HierarchyConfig::scaled_cascade_lake());
        t.leaf("memsim.replay", || replay_pagerank_iteration(graph, &mut hier));
        m.set(&format!("memsim.pagerank_avg_latency_cyc.{label}"), hier.report().avg_latency);
    }
    let d = t.durations("memsim.replay");
    m.set_n("memsim.replay_s", median(&d), d.len());
}

/// Per-layer numbers from the spans: the median over cells × traced passes
/// of every span name that is a metric, and the rates derived from them.
fn layer_metrics(
    t: &Tracer,
    counts: &PassCounts,
    traced_passes: usize,
    cfg: &ChildConfig,
    m: &mut Metrics,
) {
    for def in crate::metrics::per_layer() {
        let Some(span) = def.name.strip_suffix("_s") else { continue };
        let d = t.durations(span);
        if !d.is_empty() {
            m.set_n(&def.name, median(&d), d.len());
        }
    }
    crate::setup_layer_metrics(cfg, m);
    let total = |span: &str| t.durations(span).iter().sum::<f64>();
    let passes = traced_passes.max(1) as f64;
    m.set("kernels.pagerank_iterations", counts.pagerank_iterations as f64);
    let pagerank_s = (total("kernels.pagerank") + total("kernels.pagerank_csrz")) / passes;
    if pagerank_s > 0.0 {
        m.set("kernels.pagerank_marcs_per_s", counts.pagerank_arc_visits / pagerank_s / 1e6);
    }
    m.set("community.louvain_iterations", counts.louvain_iterations as f64);
    m.set("community.modularity", mean(&counts.modularity));
    let louvain_s = (total("community.louvain") + total("community.louvain_csrz")) / passes;
    if counts.louvain_iterations > 0 {
        m.set("community.louvain_iter_ms", louvain_s * 1e3 / counts.louvain_iterations as f64);
    }
    m.set("influence.rr_sets", counts.rr_sets as f64);
    m.set("influence.edges_examined", counts.edges_examined as f64);
    let imm_s = (total("influence.imm") + total("influence.imm_csrz")) / passes;
    if imm_s > 0.0 {
        m.set("influence.rr_sets_per_s", counts.rr_sets as f64 / imm_s);
    }
}

/// Where the timed region went: prints each layer's share of the cells'
/// time, and returns the share in percent that no layer span covers.
fn print_shares(t: &Tracer) -> f64 {
    let spans = t.spans();
    let cell_total: f64 = spans.iter().filter(|s| s.name == "cell").map(|s| s.seconds()).sum();
    if cell_total <= 0.0 {
        return 0.0;
    }
    let mut by_name: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
    for s in spans {
        if s.parent.is_some_and(|p| spans[p].name == "cell") {
            *by_name.entry(&s.name).or_default() += s.seconds();
        }
    }
    println!("share of the timed region by layer (traced passes):");
    for (name, seconds) in &by_name {
        println!("  {:<44} {:>7.2} %", name, 100.0 * seconds / cell_total);
    }
    let uncovered = 100.0 * (1.0 - by_name.values().sum::<f64>() / cell_total);
    println!("  {:<44} {:>7.2} %", "(no layer span)", uncovered);
    uncovered
}
