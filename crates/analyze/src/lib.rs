//! `reorderlab-analyze` — the repo contracts no type-aware lint can express.
//!
//! Rustc and clippy enforce most of the repo's static contracts (DESIGN.md
//! §8): `unsafe_code` is forbidden workspace-wide, library roots deny
//! panicking calls, lossy casts and hash containers, and every exception is
//! an `#[expect(lint, reason = "SAFETY: …")]` at its site. This crate keeps
//! the two rules that need the repo's own knowledge: D2 (a reduction
//! chained on a parallel iterator, whose order lives in the runtime) and L1
//! (a `MutexGuard` live across blocking work, which clippy checks only in
//! async code). It tokenizes every workspace `.rs` file (no rustc, no syn,
//! no network) and emits line-numbered diagnostics, filtered through a
//! committed allowlist (`analyze.toml`) whose every entry must be justified
//! by a `// SAFETY:` or `// DETERMINISM:` comment in the code it blesses.
//!
//! The pieces:
//! - [`lexer`]: a line-aware Rust lexer (comments, raw strings, lifetimes).
//! - [`scopes`]: function bodies, local `let` bindings and test-only spans
//!   over the token stream.
//! - [`rules`]: the two contracts (D2, L1).
//! - [`allowlist`]: the `analyze.toml` subset-of-TOML parser, schema 3
//!   with content-fingerprint pins.
//! - [`analyze_workspace`]: the driver that walks `crates/*/src`, applies
//!   per-file scopes, and reconciles findings against the allowlist.

pub mod allowlist;
pub mod lexer;
pub mod rules;
pub mod scopes;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use allowlist::{line_fingerprint, Allowlist};
use rules::{Diagnostic, Scope, RULE_IDS};

/// Exit code for a clean run: no findings, no allowlist problems.
///
/// The full exit-code table, pinned:
///
/// ```
/// use reorderlab_analyze::{EXIT_CLEAN, EXIT_USAGE, EXIT_VIOLATIONS};
/// assert_eq!(EXIT_CLEAN, 0); // workspace satisfies both rules
/// assert_eq!(EXIT_VIOLATIONS, 1); // contract violations or allowlist problems
/// assert_eq!(EXIT_USAGE, 2); // bad flags, unknown --format/--explain value, I/O errors
/// ```
pub const EXIT_CLEAN: u8 = 0;
/// Exit code when the workspace has unsuppressed diagnostics or the
/// allowlist has problems (unused entries, count drift, missing comments).
pub const EXIT_VIOLATIONS: u8 = 1;
/// Exit code for usage errors: unknown flags or flag values, unknown rule
/// ids, unreadable inputs.
pub const EXIT_USAGE: u8 = 2;

/// The concurrent serving surface, where L1 applies: these crates hold the
/// daemon's mutexes, channels and sockets; the rest of the workspace has no
/// locks to misuse.
pub const SERVE_CRATES: [&str; 2] = ["ops", "serve"];

/// The blessed D2 wrapper module: the one place order-fixed reductions live.
pub const D2_BLESSED: &str = "crates/graph/src/determinism.rs";

/// Computes the rule scope for one workspace-relative path (forward slashes).
pub fn scope_for(rel: &str) -> Scope {
    let crate_name =
        rel.strip_prefix("crates/").and_then(|rest| rest.split('/').next()).unwrap_or("");
    Scope { d2: rel != D2_BLESSED, l1: SERVE_CRATES.contains(&crate_name) }
}

/// Walks `root/crates/*/src` plus the root facade's `src/`, collecting
/// every `.rs` file sorted by path. `shims/`, `target/`, and per-crate
/// `tests/` trees are outside `src` and therefore never visited.
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            walk_rs(&src, &mut files)?;
        }
    }
    let facade_src = root.join("src");
    if facade_src.is_dir() {
        walk_rs(&facade_src, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// One unsuppressed finding, tied to its file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileDiagnostic {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// The finding itself.
    pub diagnostic: Diagnostic,
}

/// Per-rule tallies for the report.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RuleSummary {
    /// Unsuppressed findings for this rule.
    pub diagnostics: usize,
    /// Findings covered by a valid allowlist entry.
    pub suppressed: usize,
}

/// The reconciled result of a workspace run.
#[derive(Debug, Default)]
pub struct AnalysisReport {
    /// How many `.rs` files were lexed and checked.
    pub files_scanned: usize,
    /// Findings not covered by the allowlist, sorted by path then line.
    pub diagnostics: Vec<FileDiagnostic>,
    /// Allowlist problems: unused entries, count drift, missing
    /// justification comments, an unsupported schema. Any problem fails the
    /// run.
    pub problems: Vec<String>,
    /// Findings covered by a valid allowlist entry.
    pub suppressed: usize,
    /// Per-rule tallies, keyed by rule id; every id in
    /// [`rules::RULE_IDS`] is present.
    pub rules: BTreeMap<String, RuleSummary>,
}

impl AnalysisReport {
    /// True when the workspace satisfies the contract: no stray findings
    /// and no allowlist problems.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.problems.is_empty()
    }
}

/// Everything reconcile needs about one analyzed file.
struct FileData {
    diags: Vec<Diagnostic>,
    lexed: lexer::Lexed,
    /// Source lines, for fingerprint matching.
    lines: Vec<String>,
}

/// Runs the full pass: walk, lex, per-file rules, then reconcile against
/// `allow`.
///
/// # Errors
///
/// Returns the first I/O failure while walking or reading files.
pub fn analyze_workspace(root: &Path, allow: &Allowlist) -> io::Result<AnalysisReport> {
    let files = collect_files(root)?;
    let mut per_file: BTreeMap<String, FileData> = BTreeMap::new();
    for path in &files {
        let rel = relative_slash(root, path);
        let source = fs::read_to_string(path)?;
        let lexed = lexer::lex(&source);
        let diags = rules::check(&lexed, &scope_for(&rel));
        let lines = source.lines().map(str::to_string).collect();
        per_file.insert(rel, FileData { diags, lexed, lines });
    }
    let mut report = reconcile(&per_file, allow);
    report.files_scanned = files.len();
    Ok(report)
}

/// Converts an absolute path under `root` to a `/`-separated relative path.
pub fn relative_slash(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

const JUSTIFICATIONS: [&str; 2] = ["SAFETY:", "DETERMINISM:"];

/// How close (in lines, at or above) a justification comment must sit to a
/// pinned allowlist site. Five lines accommodates a comment above a
/// multi-line method chain whose blessed call sits on the final line.
const JUSTIFICATION_WINDOW: u32 = 5;

fn reconcile(per_file: &BTreeMap<String, FileData>, allow: &Allowlist) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    for rule in RULE_IDS {
        report.rules.insert(rule.to_string(), RuleSummary::default());
    }
    if allow.schema != allowlist::ALLOWLIST_SCHEMA && !allow.entries.is_empty() {
        report.problems.push(format!(
            "allowlist: unsupported schema {} (this analyzer reads schema {})",
            allow.schema,
            allowlist::ALLOWLIST_SCHEMA
        ));
    }

    // Suppression marks, parallel to each file's diagnostics vector.
    let mut taken: BTreeMap<&str, Vec<bool>> =
        per_file.iter().map(|(p, d)| (p.as_str(), vec![false; d.diags.len()])).collect();

    for entry in &allow.entries {
        let (Some(data), Some(marks)) =
            (per_file.get(&entry.path), taken.get_mut(entry.path.as_str()))
        else {
            report.problems.push(format!(
                "allowlist: entry for {} {} matches no analyzed file",
                entry.rule, entry.path
            ));
            continue;
        };
        let hash = entry.hash;
        let print =
            |d: &Diagnostic| data.lines.get(d.line as usize - 1).map(|l| line_fingerprint(l));
        let hits: Vec<usize> = (0..data.diags.len())
            .filter(|&i| data.diags[i].rule == entry.rule && print(&data.diags[i]) == Some(hash))
            .collect();
        if hits.is_empty() {
            let candidates: Vec<String> = data
                .diags
                .iter()
                .filter(|d| d.rule == entry.rule)
                .filter_map(|d| print(d).map(|h| format!("line {} = \"{h:016x}\"", d.line)))
                .collect();
            let candidates = if candidates.is_empty() {
                String::new()
            } else {
                format!(" (candidates: {})", candidates.join(", "))
            };
            report.problems.push(format!(
                "allowlist: unused fingerprint entry {} {} \"{hash:016x}\" — no {} diagnostic \
                 sits on a line with that content{candidates}; remove or re-key it",
                entry.rule, entry.path, entry.rule
            ));
            continue;
        }
        if hits.len() != entry.count as usize {
            report.problems.push(format!(
                "allowlist: count drift for {} {} fingerprint \"{hash:016x}\" — entry blesses \
                 {} site(s) but {} line(s) with that content fire; re-audit and update the count",
                entry.rule,
                entry.path,
                entry.count,
                hits.len()
            ));
        }
        for &i in &hits {
            let line = data.diags[i].line;
            let justified = JUSTIFICATIONS
                .iter()
                .any(|n| data.lexed.comment_near(line, JUSTIFICATION_WINDOW, n));
            if !justified {
                report.problems.push(format!(
                    "allowlist: {} {}:{line} has no // SAFETY: or // DETERMINISM: comment \
                     within {JUSTIFICATION_WINDOW} lines of the fingerprinted site",
                    entry.rule, entry.path
                ));
            }
            marks[i] = true;
            report.suppressed += 1;
            report.rules.entry(entry.rule.clone()).or_default().suppressed += 1;
        }
    }

    for (path, data) in per_file {
        for (d, &blessed) in data.diags.iter().zip(&taken[path.as_str()]) {
            if !blessed {
                report.rules.entry(d.rule.to_string()).or_default().diagnostics += 1;
                report
                    .diagnostics
                    .push(FileDiagnostic { path: path.clone(), diagnostic: d.clone() });
            }
        }
    }
    report
}

/// Schema version of the `--json` report. Bump on breaking layout changes.
/// Version 2 added `allowlist_schema` and per-rule summaries (`rules`);
/// version 3 dropped `warnings`; version 4 drops the call-graph `chain` of
/// each diagnostic and summarizes the two remaining rules.
pub const REPORT_SCHEMA_VERSION: u32 = 4;

/// Serializes the report as stable, sorted JSON (local writer; the crate is
/// dependency-free by design).
pub fn to_json(report: &AnalysisReport, allow: &Allowlist) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"analyze_report_version\": {REPORT_SCHEMA_VERSION},\n"));
    s.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    s.push_str(&format!("  \"allowlist_schema\": {},\n", allow.schema));
    s.push_str(&format!("  \"allowlist_entries\": {},\n", allow.entries.len()));
    s.push_str(&format!("  \"suppressed\": {},\n", report.suppressed));
    s.push_str(&format!("  \"clean\": {},\n", report.is_clean()));
    let rules: Vec<String> = report
        .rules
        .iter()
        .map(|(rule, summary)| {
            format!(
                "\n    \"{}\": {{\"diagnostics\": {}, \"suppressed\": {}}}",
                json_escape(rule),
                summary.diagnostics,
                summary.suppressed
            )
        })
        .collect();
    push_array(&mut s, "  \"rules\": {", &rules, "}");
    let problems: Vec<String> =
        report.problems.iter().map(|p| format!("\n    \"{}\"", json_escape(p))).collect();
    push_array(&mut s, "  \"problems\": [", &problems, "]");
    let diagnostics: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| {
            format!(
                "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                d.diagnostic.rule,
                json_escape(&d.path),
                d.diagnostic.line,
                json_escape(&d.diagnostic.message)
            )
        })
        .collect();
    push_array(&mut s, "  \"diagnostics\": [", &diagnostics, "]");
    s.truncate(s.len() - 2); // the last member takes no comma
    s.push_str("\n}\n");
    s
}

/// Appends `open`, the comma-joined items, an indented `close` when there
/// are items, and a trailing `,\n`.
fn push_array(s: &mut String, open: &str, items: &[String], close: &str) {
    s.push_str(open);
    s.push_str(&items.join(","));
    if !items.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str(close);
    s.push_str(",\n");
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_match_the_contract_table() {
        let graph = scope_for("crates/graph/src/csr.rs");
        assert!(graph.d2 && !graph.l1, "L1 stays off the graph crate");

        let det = scope_for("crates/graph/src/determinism.rs");
        assert!(!det.d2, "determinism.rs is the blessed D2 module");

        let server = scope_for("crates/serve/src/server.rs");
        assert!(server.d2 && server.l1);

        let serve_bin = scope_for("crates/serve/src/bin/loadtool.rs");
        assert!(serve_bin.l1, "binaries still must not hold locks across I/O");

        let facade = scope_for("src/lib.rs");
        assert!(facade.d2 && !facade.l1);
    }

    #[test]
    fn json_report_is_schema_versioned_and_escaped() {
        let mut report = AnalysisReport { files_scanned: 2, ..AnalysisReport::default() };
        report.rules.insert("L1".to_string(), RuleSummary { diagnostics: 1, suppressed: 0 });
        report.diagnostics.push(FileDiagnostic {
            path: "crates/x/src/a.rs".to_string(),
            diagnostic: Diagnostic { rule: "L1", line: 7, message: "has \"quotes\"".to_string() },
        });
        let json = to_json(&report, &Allowlist::default());
        assert!(json.contains("\"analyze_report_version\": 4"));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"L1\": {\"diagnostics\": 1, \"suppressed\": 0}"));
        assert!(
            json.ends_with("\"line\": 7, \"message\": \"has \\\"quotes\\\"\"}\n  ]\n}\n"),
            "{json}"
        );
    }
}
