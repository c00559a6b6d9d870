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
     Runs the analyzer's half of the static-analysis contract (DESIGN.md §8),\n\
     rules D2 and L1, over every workspace .rs file under <root>/crates/*/src;\n\
     clippy and rustc check the rest.\n\
     \n\
       --root DIR        workspace root (default: .)\n\
       --allowlist FILE  allowlist (default: <root>/analyze.toml)\n\
       --json FILE       also write a schema-versioned JSON report\n\
       --format FMT      stdout format: text (default) or json\n\
       --explain RULE    print a rule's contract, rationale, and example\n\
     \n\
     Exit codes: 0 clean, 1 violations or allowlist problems, 2 usage/IO.\n"
}

/// The value after `flag`, or a usage error naming what was expected.
fn value(it: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs {what}"))
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
            "--root" => args.root = value(&mut it, &flag, "a directory argument")?.into(),
            "--allowlist" => {
                args.allowlist = Some(value(&mut it, &flag, "a file argument")?.into())
            }
            "--json" => args.json = Some(value(&mut it, &flag, "a file argument")?.into()),
            "--format" => {
                let v = value(&mut it, &flag, "a value (text or json)")?;
                args.format = FORMATS.iter().find(|f| **f == v).ok_or_else(|| {
                    format!("unknown --format {v:?} (accepted: {})", FORMATS.join(", "))
                })?;
            }
            "--explain" => args.explain = Some(value(&mut it, &flag, "a rule id argument")?),
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

/// Loads the allowlist: `--allowlist FILE` must exist; the default
/// `<root>/analyze.toml` may be absent, which means no exceptions.
fn load_allowlist(args: &Args) -> Result<allowlist::Allowlist, String> {
    let path = args.allowlist.clone().unwrap_or_else(|| args.root.join("analyze.toml"));
    if !path.is_file() {
        if args.allowlist.is_some() {
            return Err(format!("allowlist {} does not exist", path.display()));
        }
        return Ok(allowlist::Allowlist {
            schema: allowlist::ALLOWLIST_SCHEMA,
            entries: Vec::new(),
        });
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    allowlist::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the analysis and prints the report; `Ok(clean)`, or a usage/I/O
/// error.
fn run(args: &Args) -> Result<bool, String> {
    if let Some(rule) = &args.explain {
        return explain(rule).map(|()| true);
    }
    let allow = load_allowlist(args)?;
    let report = analyze_workspace(&args.root, &allow)
        .map_err(|e| format!("analyzing {}: {e}", args.root.display()))?;
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
        println!(
            "reorderlab-analyze: {} file(s), {} allowlisted site(s), {} violation(s), {} problem(s) — {}",
            report.files_scanned,
            report.suppressed,
            report.diagnostics.len(),
            report.problems.len(),
            if report.is_clean() { "clean" } else { "FAILED" }
        );
    }
    if let Some(json_path) = &args.json {
        std::fs::write(json_path, &json)
            .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    }
    Ok(report.is_clean())
}

fn main() -> ExitCode {
    let parsed =
        parse_args().map_err(|m| if m.is_empty() { m } else { format!("{m}\n\n{}", usage()) });
    let outcome = parsed.and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::from(EXIT_CLEAN),
        Ok(false) => ExitCode::from(EXIT_VIOLATIONS),
        Err(msg) if msg.is_empty() => {
            print!("{}", usage());
            ExitCode::from(EXIT_CLEAN)
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}
