//! `bench snapshot` — the machine-readable perf trajectory.
//!
//! Emits a schema-versioned `BENCH_*.json` snapshot over a fixed small
//! corpus: for every (graph, scheme, workload) it records, under the name
//! of the workload's one kernel, the deterministic memsim counters (loads,
//! per-level hits, fixed-point latency and boundedness). A `compression`
//! section records the exact delta/varint footprint per (graph, scheme):
//! gap-stream bytes, arc count, and bits-per-edge in fixed-point milli
//! units. Every field is an integer, byte-reproducible across runs and
//! thread counts, so `--diff` matches all of them exactly. Time is not
//! measured here; `benchmark/` is the workspace's stopwatch.
//!
//! ```text
//! snapshot --out BENCH_0016.json            # regenerate the snapshot
//! snapshot --diff BENCH_0016.json fresh.json
//! ```
//!
//! `--diff` exits 0 when the snapshots agree, 1 on schema or counter drift,
//! and 2 on usage errors or a file that is not a snapshot.

use reorderlab_core::Scheme;
use reorderlab_memsim::{
    replay_louvain_move, replay_pagerank_iteration, replay_rr_kernel, Hierarchy, HierarchyConfig,
};
use reorderlab_trace::Json;

/// Snapshot schema identifier; bump `SCHEMA_VERSION` on layout changes.
/// Version 2 added the `compression` section (exact varint footprints);
/// version 3 dropped the per-entry timing field.
const SCHEMA: &str = "reorderlab-bench-snapshot";
const SCHEMA_VERSION: u64 = 3;

/// Fixed corpus: small suite instances small enough for CI yet large enough
/// that the replays leave L1.
const CORPUS: [&str; 2] = ["euroroad", "pgp"];
/// Fixed scheme specs (parsed through the registry, one per family):
/// identity, BFS-based, degree-based, degree-grouped, community-traversal,
/// and the feature-driven adaptive selector.
const SCHEMES: [&str; 6] = ["natural", "rcm", "degree", "dbg", "comm-bfs", "adaptive"];
/// RR replay parameters (the paper's p = 0.25 setting).
const RR_PROBABILITY: f64 = 0.25;
const RR_SETS: usize = 64;
const RR_SEED: u64 = 7;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut out: Option<String> = None;
    let mut diff: Option<(String, String)> = None;
    let mut quick = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--diff" => {
                let a = args.next().unwrap_or_else(|| usage());
                let b = args.next().unwrap_or_else(|| usage());
                diff = Some((a, b));
            }
            "--quick" => quick = true,
            "--help" | "-h" => {
                println!("bench snapshot: emit or diff BENCH_*.json perf snapshots");
                println!("usage: snapshot [--out FILE] [--quick]");
                println!("       snapshot --diff BASELINE CANDIDATE");
                std::process::exit(0);
            }
            _ => usage(),
        }
    }

    if let Some((a, b)) = diff {
        let drift = diff_snapshots(&a, &b);
        std::process::exit(if drift == 0 { 0 } else { 1 });
    }

    let snapshot = build_snapshot(quick);
    let text = snapshot.to_pretty();
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, text + "\n") {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(2);
            }
            println!("(wrote {path})");
        }
        None => println!("{text}"),
    }
}

fn usage() -> ! {
    eprintln!("usage: snapshot [--out FILE] [--quick]");
    eprintln!("       snapshot --diff BASELINE CANDIDATE");
    std::process::exit(2);
}

// ---------------------------------------------------------------- emission

fn build_snapshot(quick: bool) -> Json {
    let corpus: &[&str] = if quick { &CORPUS[..1] } else { &CORPUS };
    let mut entries: Vec<Json> = Vec::new();
    let mut compression: Vec<Json> = Vec::new();
    for graph_name in corpus {
        let spec = reorderlab_datasets::by_name(graph_name).expect("corpus instance exists");
        let g = spec.generate();
        for scheme_spec in SCHEMES {
            let scheme = Scheme::parse(scheme_spec).expect("fixed scheme spec parses");
            let pi = scheme.reorder(&g);
            compression.push(compression_entry(graph_name, scheme.name(), &g, &pi));
            let laid_out = g.permuted(&pi).expect("valid permutation");
            // Stable labels so every layout replays the same logical RR
            // traversal (see replay_rr_kernel).
            let labels: Vec<u32> = pi.to_order();

            entries.push(entry(graph_name, scheme.name(), "louvain_move", "packed", |h| {
                replay_louvain_move(&laid_out, h)
            }));
            entries.push(entry(graph_name, scheme.name(), "rr_sample", "classic", |h| {
                replay_rr_kernel(&laid_out, &labels, RR_PROBABILITY, RR_SETS, RR_SEED, h)
            }));
            entries.push(entry(graph_name, scheme.name(), "pagerank", "pull", |h| {
                replay_pagerank_iteration(&laid_out, h)
            }));
        }
    }
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("schema_version".into(), Json::Num(SCHEMA_VERSION as f64)),
        ("hierarchy".into(), Json::Str("scaled_cascade_lake".into())),
        ("corpus".into(), Json::Arr(corpus.iter().map(|&c| Json::Str(c.into())).collect())),
        ("entries".into(), Json::Arr(entries)),
        ("compression".into(), Json::Arr(compression)),
    ])
}

/// Exact delta/varint footprint of one (graph, scheme) pair. Every field
/// is an integer derived from integer counters — gap-stream bytes, arcs,
/// and `8000 * gap_bytes / arcs` rounded half-up — so `--diff` matches
/// them exactly, like the memsim counters.
fn compression_entry(
    graph: &str,
    scheme: &str,
    g: &reorderlab_graph::Csr,
    pi: &reorderlab_graph::Permutation,
) -> Json {
    let c = reorderlab_core::measures::try_compression_measures(g, pi)
        .expect("corpus permutation is valid for its own graph");
    let arcs = g.num_arcs() as u128;
    let bpe_milli = (c.gap_bytes as u128 * 8000 + arcs / 2).checked_div(arcs).unwrap_or(0) as u64;
    Json::Obj(vec![
        ("graph".into(), Json::Str(graph.into())),
        ("scheme".into(), Json::Str(scheme.into())),
        ("arcs".into(), Json::Num(g.num_arcs() as f64)),
        ("gap_bytes".into(), Json::Num(c.gap_bytes as f64)),
        ("bits_per_edge_milli".into(), Json::Num(bpe_milli as f64)),
    ])
}

/// Builds one snapshot entry: replays the workload through a cold scaled
/// Cascade Lake hierarchy.
fn entry(
    graph: &str,
    scheme: &str,
    workload: &str,
    kernel: &str,
    replay: impl FnOnce(&mut Hierarchy),
) -> Json {
    let mut hier = Hierarchy::new(HierarchyConfig::scaled_cascade_lake());
    replay(&mut hier);
    let r = hier.report();
    let latency = hier.config().latency;
    let hits = r.level_hits;
    // Fixed-point integer metrics derived *only* from the integer counters,
    // so the serialized fields are byte-identical across runs/platforms.
    let cycles: [u128; 4] = [
        hits[0] as u128 * latency[0] as u128,
        hits[1] as u128 * latency[1] as u128,
        hits[2] as u128 * latency[2] as u128,
        hits[3] as u128 * latency[3] as u128,
    ];
    let total_cycles: u128 = cycles.iter().sum();
    let loads = r.loads as u128;
    let ratio_milli = |num: u128, den: u128| -> u64 {
        (num * 1000 + den / 2).checked_div(den).unwrap_or(0) as u64
    };
    let memsim = Json::Obj(vec![
        ("loads".into(), Json::Num(r.loads as f64)),
        ("level_hits".into(), Json::Arr(hits.iter().map(|&h| Json::Num(h as f64)).collect())),
        ("avg_latency_milli".into(), Json::Num(ratio_milli(total_cycles, loads) as f64)),
        (
            "bound_milli".into(),
            Json::Arr(
                cycles.iter().map(|&c| Json::Num(ratio_milli(c, total_cycles) as f64)).collect(),
            ),
        ),
        ("l1_hit_rate_milli".into(), Json::Num(ratio_milli(hits[0] as u128, loads) as f64)),
    ]);
    Json::Obj(vec![
        ("graph".into(), Json::Str(graph.into())),
        ("scheme".into(), Json::Str(scheme.into())),
        ("workload".into(), Json::Str(workload.into())),
        ("kernel".into(), Json::Str(kernel.into())),
        ("memsim".into(), memsim),
    ])
}

// -------------------------------------------------------------------- diff

/// Compares two snapshot files; returns the number of drifts found (0 = in
/// agreement). Every memsim and compression field must match exactly.
fn diff_snapshots(baseline: &str, candidate: &str) -> usize {
    let a = load(baseline);
    let b = load(candidate);
    let mut drifts = 0usize;

    for key in ["schema", "schema_version", "hierarchy"] {
        if a.get(key) != b.get(key) {
            println!("DRIFT {key}: {:?} vs {:?}", a.get(key), b.get(key));
            drifts += 1;
        }
    }

    let empty: Vec<Json> = Vec::new();
    let ea = a.get("entries").and_then(|e| e.as_arr()).unwrap_or(&empty);
    let eb = b.get("entries").and_then(|e| e.as_arr()).unwrap_or(&empty);
    let keyed = |es: &[Json]| -> Vec<(String, Json)> {
        es.iter().map(|e| (entry_key(e), e.clone())).collect()
    };
    let (ka, kb) = (keyed(ea), keyed(eb));

    for (k, ent_a) in &ka {
        let Some((_, ent_b)) = kb.iter().find(|(kk, _)| kk == k) else {
            println!("DRIFT entry only in baseline: {k}");
            drifts += 1;
            continue;
        };
        // Exact matching on the deterministic memsim counters.
        if ent_a.get("memsim") != ent_b.get("memsim") {
            println!(
                "DRIFT memsim counters for {k}:\n  baseline:  {}\n  candidate: {}",
                ent_a.get("memsim").map(Json::to_line).unwrap_or_default(),
                ent_b.get("memsim").map(Json::to_line).unwrap_or_default(),
            );
            drifts += 1;
        }
    }
    for (k, _) in &kb {
        if !ka.iter().any(|(kk, _)| kk == k) {
            println!("DRIFT entry only in candidate: {k}");
            drifts += 1;
        }
    }

    // Compression footprints are pure integer counters: exact matching on
    // every (graph, scheme) row, symmetric presence check like entries.
    let ca = a.get("compression").and_then(|e| e.as_arr()).unwrap_or(&empty);
    let cb = b.get("compression").and_then(|e| e.as_arr()).unwrap_or(&empty);
    let ckey = |e: &Json| -> String {
        let s = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        format!("{}/{}", s("graph"), s("scheme"))
    };
    for row_a in ca {
        let k = ckey(row_a);
        let Some(row_b) = cb.iter().find(|r| ckey(r) == k) else {
            println!("DRIFT compression row only in baseline: {k}");
            drifts += 1;
            continue;
        };
        if row_a != row_b {
            println!(
                "DRIFT compression footprint for {k}:\n  baseline:  {}\n  candidate: {}",
                row_a.to_line(),
                row_b.to_line(),
            );
            drifts += 1;
        }
    }
    for row_b in cb {
        let k = ckey(row_b);
        if !ca.iter().any(|r| ckey(r) == k) {
            println!("DRIFT compression row only in candidate: {k}");
            drifts += 1;
        }
    }

    if drifts == 0 {
        println!(
            "snapshots agree ({} entries + {} compression rows, counters exact)",
            ka.len(),
            ca.len()
        );
    } else {
        println!("{drifts} drift(s) found");
    }
    drifts
}

fn entry_key(e: &Json) -> String {
    let s = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
    format!("{}/{}/{}/{}", s("graph"), s("scheme"), s("workload"), s("kernel"))
}

/// Reads one snapshot file. A file that is not a snapshot — wrong or
/// missing `schema`, or an entry without a `memsim` object — exits 2 naming
/// the file and what is missing, so `--diff` can never "agree" on nothing.
fn load(path: &str) -> Json {
    let reject = |what: String| -> ! {
        eprintln!("{path}: {what}");
        std::process::exit(2);
    };
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| reject(format!("failed to read: {e}")));
    let snapshot = Json::parse(&text).unwrap_or_else(|e| reject(format!("failed to parse: {e}")));
    if snapshot.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        reject(format!("not a snapshot: \"schema\" is not {SCHEMA:?}"));
    }
    let Some(entries) = snapshot.get("entries").and_then(Json::as_arr) else {
        reject("not a snapshot: no \"entries\" array".into());
    };
    for e in entries {
        if !matches!(e.get("memsim"), Some(Json::Obj(_))) {
            reject(format!("entry {} has no \"memsim\" object", entry_key(e)));
        }
    }
    snapshot
}
