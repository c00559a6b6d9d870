#![forbid(unsafe_code)]
//! `reorderlab-analyze` CLI.
//!
//! ```text
//! reorderlab-analyze [--root DIR] [--allowlist FILE] [--json FILE]
//!                    [--format text|json] [--explain RULE]
//! ```
//!
//! Exit codes (pinned by the doc test on `reorderlab_analyze::EXIT_CLEAN`):
//! `0` clean, `1` contract violations or allowlist problems, `2` usage or
//! I/O errors — including unknown flags, unknown `--format` values, and
//! unknown `--explain` rule ids. CI runs this as the `static-analysis` leg.

use std::path::PathBuf;
use std::process::ExitCode;

use reorderlab_analyze::rules::{RULE_DOCS, RULE_IDS};
use reorderlab_analyze::{
    allowlist, analyze_workspace, to_json, EXIT_CLEAN, EXIT_USAGE, EXIT_VIOLATIONS,
};

/// Output formats `--format` accepts.
const FORMATS: [&str; 2] = ["text", "json"];

/// Every flag the CLI accepts, for strict unknown-flag errors.
const FLAGS: [&str; 7] =
    ["--root", "--allowlist", "--json", "--format", "--explain", "--help", "-h"];

struct Args {
    root: PathBuf,
    allowlist: Option<PathBuf>,
    json: Option<PathBuf>,
    /// Stdout format: "text" (default) or "json" (the full report).
    format: &'static str,
    explain: Option<String>,
}

fn usage() -> &'static str {
    "usage: reorderlab-analyze [--root DIR] [--allowlist FILE] [--json FILE]\n\
     \x20                         [--format text|json] [--explain RULE]\n\
     \n\
     Runs the reorderlab static-analysis contract (DESIGN.md §8) over every\n\
     workspace .rs file under <root>/crates/*/src.\n\
     \n\
       --root DIR        workspace root (default: .)\n\
       --allowlist FILE  allowlist (default: <root>/analyze.toml)\n\
       --json FILE       also write a schema-versioned JSON report\n\
       --format FMT      stdout format: text (default) or json\n\
       --explain RULE    print a rule's contract, rationale, and example\n\
     \n\
     Exit codes: 0 clean, 1 violations or allowlist problems, 2 usage/IO.\n"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        allowlist: None,
        json: None,
        format: "text",
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory argument")?);
            }
            "--allowlist" => {
                args.allowlist =
                    Some(PathBuf::from(it.next().ok_or("--allowlist needs a file argument")?));
            }
            "--json" => {
                args.json = Some(PathBuf::from(it.next().ok_or("--json needs a file argument")?));
            }
            "--format" => {
                let value = it.next().ok_or("--format needs a value (text or json)")?;
                match FORMATS.iter().find(|f| **f == value) {
                    Some(f) => args.format = f,
                    None => {
                        return Err(format!(
                            "unknown --format {value:?} (accepted: {})",
                            FORMATS.join(", ")
                        ));
                    }
                }
            }
            "--explain" => {
                args.explain = Some(it.next().ok_or("--explain needs a rule id argument")?);
            }
            "--help" | "-h" => return Err(String::new()),
            other => {
                return Err(format!(
                    "unknown argument {other:?} (accepted flags: {})",
                    FLAGS.join(", ")
                ));
            }
        }
    }
    Ok(args)
}

/// Prints the `--explain` card for one rule id, or errors on an unknown id.
fn explain(rule: &str) -> Result<(), String> {
    let Some((id, contract, rationale, example)) =
        RULE_DOCS.iter().find(|(id, _, _, _)| *id == rule)
    else {
        return Err(format!("unknown rule {rule:?} (accepted: {})", RULE_IDS.join(", ")));
    };
    println!("{id} — {contract}\n");
    println!("Why: {rationale}\n");
    println!("Example:");
    for line in example.lines() {
        println!("    {line}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{}", usage());
                return ExitCode::from(EXIT_CLEAN);
            }
            eprintln!("error: {msg}\n\n{}", usage());
            return ExitCode::from(EXIT_USAGE);
        }
    };

    if let Some(rule) = &args.explain {
        return match explain(rule) {
            Ok(()) => ExitCode::from(EXIT_CLEAN),
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::from(EXIT_USAGE)
            }
        };
    }

    let allowlist_path = args.allowlist.clone().unwrap_or_else(|| args.root.join("analyze.toml"));
    let allow = if allowlist_path.is_file() {
        match std::fs::read_to_string(&allowlist_path) {
            Ok(text) => match allowlist::parse(&text) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("error: {}: {e}", allowlist_path.display());
                    return ExitCode::from(EXIT_USAGE);
                }
            },
            Err(e) => {
                eprintln!("error: reading {}: {e}", allowlist_path.display());
                return ExitCode::from(EXIT_USAGE);
            }
        }
    } else if args.allowlist.is_some() {
        eprintln!("error: allowlist {} does not exist", allowlist_path.display());
        return ExitCode::from(EXIT_USAGE);
    } else {
        allowlist::Allowlist { schema: allowlist::ALLOWLIST_SCHEMA, entries: Vec::new() }
    };

    let report = match analyze_workspace(&args.root, &allow) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: analyzing {}: {e}", args.root.display());
            return ExitCode::from(EXIT_USAGE);
        }
    };

    let json = to_json(&report, &allow);
    if args.format == "json" {
        print!("{json}");
    } else {
        for d in &report.diagnostics {
            println!(
                "{}:{}: {} {}",
                d.path, d.diagnostic.line, d.diagnostic.rule, d.diagnostic.message
            );
        }
        for p in &report.problems {
            println!("problem: {p}");
        }
    }

    if let Some(json_path) = &args.json {
        if let Err(e) = std::fs::write(json_path, &json) {
            eprintln!("error: writing {}: {e}", json_path.display());
            return ExitCode::from(EXIT_USAGE);
        }
    }

    if args.format != "json" {
        println!(
            "reorderlab-analyze: {} file(s), {} allowlisted site(s), {} violation(s), {} problem(s) — {}",
            report.files_scanned,
            report.suppressed,
            report.diagnostics.len(),
            report.problems.len(),
            if report.is_clean() { "clean" } else { "FAILED" }
        );
    }
    if report.is_clean() {
        ExitCode::from(EXIT_CLEAN)
    } else {
        ExitCode::from(EXIT_VIOLATIONS)
    }
}
