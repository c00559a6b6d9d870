//! `reorderlab` — command-line interface to the reordering library.
//!
//! ```text
//! reorderlab list
//! reorderlab generate delaunay_n12 --out g.mtx
//! reorderlab stats --input g.mtx --json
//! reorderlab reorder --scheme rcm --input g.mtx --out reordered.mtx --perm pi.txt
//! reorderlab measure --instance euroroad --scheme rcm --scheme grappolo --manifest runs.jsonl
//! reorderlab compression --instance euroroad --scheme natural --scheme rcm
//! reorderlab validate g.mtx corpus/*.el --json
//! reorderlab manifest-check runs.jsonl
//! ```
//!
//! Exit codes: `0` success, `2` command-line mistakes (usage, bad scheme
//! specs) and malformed inputs diagnosed by `validate`, `1` runtime
//! failures (I/O, unparseable inputs mid-command).
//!
//! This binary is a thin argv shell: every command builds a typed
//! [`OpRequest`], hands it to [`reorderlab_ops::execute`], and renders the
//! typed report. The serve daemon executes the same requests, so CLI and
//! daemon results are identical by construction.

use reorderlab_datasets::{by_name, full_suite, large_suite, small_suite};
use reorderlab_ops::args::{flag_value, flag_values, has_flag};
use reorderlab_ops::{
    execute, run_with_threads, scheme_help, write_graph_auto, FsResolver, GraphSource, OpError,
    OpReport, OpRequest,
};
use reorderlab_trace::Manifest;
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(args: &[String]) -> Result<(), OpError> {
    let Some((command, rest)) = args.split_first() else {
        print_usage();
        return Ok(());
    };
    // Global worker-thread bound, stripped here so no command mistakes the
    // pair for its own arguments. Every kernel is thread-count invariant,
    // so this only affects wall-clock time, never any output.
    let Some(i) = rest.iter().position(|a| a == "--threads") else {
        return dispatch(command, rest);
    };
    let value = rest.get(i + 1).map(String::as_str).unwrap_or_default();
    let t: usize = value
        .parse()
        .map_err(|_| OpError::Usage(format!("--threads needs a number, got {value:?}")))?;
    let rest: Vec<String> = rest.iter().take(i).chain(rest.iter().skip(i + 2)).cloned().collect();
    run_with_threads(Some(t), || dispatch(command, &rest))
}

fn dispatch(command: &str, rest: &[String]) -> Result<(), OpError> {
    match command {
        "list" => cmd_list(),
        "generate" => cmd_generate(rest),
        "stats" => cmd_stats(rest),
        "reorder" => cmd_reorder(rest),
        "measure" => cmd_measure(rest),
        "compression" => cmd_compression(rest),
        "memsim" => cmd_memsim(rest),
        "validate" => cmd_validate(rest),
        "manifest-check" => cmd_manifest_check(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(OpError::Usage(format!("unknown command {other:?}; try `reorderlab help`"))),
    }
}

fn print_usage() {
    println!(
        "reorderlab — vertex reordering toolkit (IISWC 2020 reproduction)\n\n\
         usage:\n  \
         reorderlab list\n  \
         reorderlab generate <instance> [--out FILE]\n  \
         reorderlab stats    (--input FILE | --instance NAME) [--json] [--manifest FILE]\n  \
         reorderlab reorder  (--scheme NAME | --apply-perm FILE)\n                      \
         (--input FILE | --instance NAME) [--out FILE] [--perm FILE]\n                      \
         [--json] [--manifest FILE]\n  \
         reorderlab measure  (--input FILE | --instance NAME) [--scheme NAME]...\n                      \
         [--json] [--manifest FILE]\n  \
         reorderlab compression (--input FILE | --instance NAME) [--scheme NAME]...\n                      \
         [--json] [--manifest FILE]\n                      \
         (exact varint gap-stream bytes and bits-per-edge per ordering)\n  \
         reorderlab memsim   (--input FILE | --instance NAME) [--scheme NAME]\n                      \
         [--workload louvain|rr|pagerank] [--kernel NAME] [--json]\n                      \
         (replay a hot kernel's access stream through the simulated\n                      \
         L1/L2/L3/DRAM hierarchy; each workload has one kernel, which\n                      \
         --kernel may name: packed for louvain, classic for rr, pull\n                      \
         for pagerank)\n  \
         reorderlab validate FILE... [--json] [--manifest FILE]\n                      \
         (exit 0: all clean, 1: unreadable, 2: malformed; errors carry line numbers)\n  \
         reorderlab manifest-check FILE...\n\n\
         any command also takes --threads N (worker threads; results are identical at any N)\n\n\
         --json prints run manifests (JSON) to stdout; --manifest FILE appends them as\n\
         JSON Lines; manifest-check validates such files against the schema\n\n\
         formats by extension: .mtx (Matrix Market), .graph/.metis (METIS), .csrbin\n\
         (checksummed binary CSR), .csrz (checksummed compressed CSR), .el (edge list);\n\
         anything else is rejected\n\n\
         schemes:\n{}",
        scheme_help()
    );
}

fn cmd_list() -> Result<(), OpError> {
    println!(
        "instances ({} small + {} large, Table I stand-ins):",
        small_suite().len(),
        large_suite().len()
    );
    for spec in full_suite() {
        let scale = if spec.is_scaled() {
            format!(" (scaled 1/{})", spec.scale_denominator)
        } else {
            String::new()
        };
        println!(
            "  {:<16} {:<13} paper |V|={:<9} |E|={}{}",
            spec.name,
            spec.domain.to_string(),
            spec.paper_vertices,
            spec.paper_edges,
            scale
        );
    }
    println!("\nschemes:\n{}", scheme_help());
    Ok(())
}

/// Emits a finished manifest: pretty JSON on stdout under `--json`, one
/// appended JSON line per `--manifest FILE`.
fn emit_manifest(m: &Manifest, json_out: bool, path: Option<&str>) -> Result<(), OpError> {
    if json_out {
        println!("{}", m.to_pretty());
    }
    if let Some(p) = path {
        m.append_jsonl(p).map_err(|e| OpError::Io(format!("cannot append to {p}: {e}")))?;
    }
    Ok(())
}

/// The graph source the `--input` / `--instance` flags select.
fn graph_source(args: &[String]) -> Result<GraphSource, OpError> {
    if let Some(path) = flag_value(args, "--input") {
        Ok(GraphSource::Path(path))
    } else if let Some(name) = flag_value(args, "--instance") {
        Ok(GraphSource::Instance(name))
    } else {
        Err(OpError::Usage("need --input FILE or --instance NAME".into()))
    }
}

fn cmd_generate(args: &[String]) -> Result<(), OpError> {
    let name = args.first().filter(|a| !a.starts_with("--")).ok_or_else(|| {
        OpError::Usage("usage: reorderlab generate <instance> [--out FILE]".into())
    })?;
    let spec = by_name(name).ok_or_else(|| {
        OpError::Usage(format!("unknown instance {name:?}; see `reorderlab list`"))
    })?;
    let g = spec.generate();
    eprintln!("generated {} (|V|={}, |E|={})", spec.name, g.num_vertices(), g.num_edges());
    match flag_value(args, "--out") {
        Some(path) => write_graph_auto(&g, &path),
        None => {
            let stdout = std::io::stdout();
            reorderlab_graph::write_edge_list(&g, stdout.lock())
                .map_err(|e| OpError::Io(e.to_string()))
        }
    }
}

fn cmd_stats(args: &[String]) -> Result<(), OpError> {
    let json_out = has_flag(args, "--json");
    let manifest_path = flag_value(args, "--manifest");
    let req = OpRequest::Stats { source: graph_source(args)? };
    let out = execute(&req, &FsResolver)?;
    let OpReport::Stats(s) = &out.report else {
        return Err(OpError::Io("stats returned the wrong report kind".into()));
    };
    if !json_out {
        println!("{}", s.render_text());
    }
    if json_out || manifest_path.is_some() {
        emit_manifest(&s.manifest, json_out, manifest_path.as_deref())?;
    }
    Ok(())
}

fn cmd_reorder(args: &[String]) -> Result<(), OpError> {
    let json_out = has_flag(args, "--json");
    let manifest_path = flag_value(args, "--manifest");
    let req = OpRequest::Reorder {
        source: graph_source(args)?,
        scheme: flag_value(args, "--scheme"),
        apply_perm: flag_value(args, "--apply-perm"),
        return_perm: false,
    };
    let out = execute(&req, &FsResolver)?;
    let OpReport::Reorder(r) = &out.report else {
        return Err(OpError::Io("reorder returned the wrong report kind".into()));
    };
    eprintln!("{}", r.summary_line());
    if let Some(path) = flag_value(args, "--perm") {
        let pi = out
            .permutation
            .as_ref()
            .ok_or_else(|| OpError::Io("reorder produced no permutation".into()))?;
        let file = std::fs::File::create(&path)
            .map_err(|e| OpError::Io(format!("cannot create {path}: {e}")))?;
        // Flushed explicitly: a drop would swallow the last write's error.
        let mut writer = std::io::BufWriter::new(file);
        pi.write_text(&mut writer)
            .and_then(|()| writer.flush())
            .map_err(|e| OpError::Io(format!("failed to write {path}: {e}")))?;
        eprintln!("wrote permutation to {path}");
    }
    if let Some(path) = flag_value(args, "--out") {
        let (g, pi) = match (&out.graph, &out.permutation) {
            (Some(g), Some(pi)) => (g, pi),
            _ => return Err(OpError::Io("reorder produced no graph".into())),
        };
        let h = g.permuted(pi).map_err(|e| OpError::Io(e.to_string()))?;
        write_graph_auto(&h, &path)?;
        eprintln!("wrote reordered graph to {path}");
    }
    if json_out || manifest_path.is_some() {
        emit_manifest(&r.manifest, json_out, manifest_path.as_deref())?;
    }
    Ok(())
}

fn cmd_measure(args: &[String]) -> Result<(), OpError> {
    let json_out = has_flag(args, "--json");
    let manifest_path = flag_value(args, "--manifest");
    let req =
        OpRequest::Measure { source: graph_source(args)?, schemes: flag_values(args, "--scheme") };
    let out = execute(&req, &FsResolver)?;
    let OpReport::Measure(m) = &out.report else {
        return Err(OpError::Io("measure returned the wrong report kind".into()));
    };
    if !json_out {
        println!("{}", m.render_text());
    }
    if json_out || manifest_path.is_some() {
        for row in &m.rows {
            // One compact line per scheme so stdout stays valid JSON Lines
            // even when several schemes run.
            if json_out {
                println!("{}", row.manifest.to_line());
            }
            if let Some(p) = &manifest_path {
                row.manifest
                    .append_jsonl(p)
                    .map_err(|e| OpError::Io(format!("cannot append to {p}: {e}")))?;
            }
        }
    }
    Ok(())
}

/// Tabulates the compression footprint — exact LEB128 gap-stream bytes
/// and bits-per-edge — each requested ordering induces on the input graph
/// (DESIGN.md §12). Like `measure`, no `--scheme` runs the paper's
/// default evaluation suite.
fn cmd_compression(args: &[String]) -> Result<(), OpError> {
    let json_out = has_flag(args, "--json");
    let manifest_path = flag_value(args, "--manifest");
    let req = OpRequest::Compression {
        source: graph_source(args)?,
        schemes: flag_values(args, "--scheme"),
    };
    let out = execute(&req, &FsResolver)?;
    let OpReport::Compression(c) = &out.report else {
        return Err(OpError::Io("compression returned the wrong report kind".into()));
    };
    if !json_out {
        println!("{}", c.render_text());
    }
    if json_out || manifest_path.is_some() {
        for row in &c.rows {
            if json_out {
                println!("{}", row.manifest.to_line());
            }
            if let Some(p) = &manifest_path {
                row.manifest
                    .append_jsonl(p)
                    .map_err(|e| OpError::Io(format!("cannot append to {p}: {e}")))?;
            }
        }
    }
    Ok(())
}

/// Replays one hot kernel's memory-access stream through the simulated
/// scaled-Cascade-Lake hierarchy and reports loads, per-level hit ratios,
/// average latency, and the boundedness breakdown — memsim-as-VTune from
/// the shell (DESIGN.md §9). The replay is deterministic: identical
/// arguments always print identical counters.
fn cmd_memsim(args: &[String]) -> Result<(), OpError> {
    let json_out = has_flag(args, "--json");
    let req = OpRequest::Memsim {
        source: graph_source(args)?,
        scheme: flag_value(args, "--scheme"),
        workload: flag_value(args, "--workload").unwrap_or_else(|| "louvain".into()),
        kernel: flag_value(args, "--kernel"),
    };
    let out = execute(&req, &FsResolver)?;
    let OpReport::Memsim(m) = &out.report else {
        return Err(OpError::Io("memsim returned the wrong report kind".into()));
    };
    if json_out {
        println!("{}", m.render_json().to_pretty());
    } else {
        println!("{}", m.render_text());
    }
    Ok(())
}

/// Checks graph input files against the ingestion contract: every file
/// either parses cleanly or is rejected with a line-numbered diagnosis,
/// never a panic. Exit 0 when every file is clean, 1 when any file is
/// unreadable (I/O), 2 when any file is malformed.
fn cmd_validate(args: &[String]) -> Result<(), OpError> {
    let json_out = has_flag(args, "--json");
    let manifest_path = flag_value(args, "--manifest");
    // Positional arguments are the files to check; skip flags and the
    // value slot following a value-taking flag.
    let mut files: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--manifest" {
            i += 2;
        } else if args[i].starts_with("--") {
            i += 1;
        } else {
            files.push(args[i].clone());
            i += 1;
        }
    }
    if files.is_empty() {
        return Err(OpError::Usage(
            "usage: reorderlab validate FILE... [--json] [--manifest FILE]".into(),
        ));
    }
    let out = execute(&OpRequest::Validate { files }, &FsResolver)?;
    let OpReport::Validate(v) = &out.report else {
        return Err(OpError::Io("validate returned the wrong report kind".into()));
    };
    for f in &v.files {
        // Human-readable verdicts go to stderr so stdout stays valid
        // JSON Lines under --json.
        eprintln!("{}", f.verdict_line());
        if json_out {
            println!("{}", f.manifest.to_line());
        }
        if let Some(p) = &manifest_path {
            f.manifest
                .append_jsonl(p)
                .map_err(|e| OpError::Io(format!("cannot append to {p}: {e}")))?;
        }
    }
    let summary = v.overall()?;
    eprintln!("{summary}");
    Ok(())
}

/// Validates files of run manifests: a whole-file JSON document or one
/// JSON document per line (`.jsonl`). Any schema violation is a runtime
/// error (exit 1) naming the file, line, and cause.
fn cmd_manifest_check(args: &[String]) -> Result<(), OpError> {
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if files.is_empty() {
        return Err(OpError::Usage("usage: reorderlab manifest-check FILE...".into()));
    }
    for path in files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| OpError::Io(format!("cannot read {path}: {e}")))?;
        if let Ok(m) = Manifest::parse(text.trim()) {
            // A single pretty-printed document.
            eprintln!("{path}: 1 manifest ok ({})", m.command);
        } else {
            let mut checked = 0usize;
            for (lineno, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                Manifest::parse(line).map_err(|e| {
                    OpError::Parse(format!("{path}:{}: invalid manifest: {e}", lineno + 1))
                })?;
                checked += 1;
            }
            if checked == 0 {
                return Err(OpError::Parse(format!("{path}: no manifests found")));
            }
            eprintln!("{path}: {checked} manifest(s) ok");
        }
    }
    Ok(())
}
