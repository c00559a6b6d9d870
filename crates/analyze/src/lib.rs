#![forbid(unsafe_code)]
//! `reorderlab-analyze` — repo-native static analysis for reorderlab.
//!
//! Clippy and rustc enforce language-level hygiene; this crate enforces the
//! *repo's* contracts — the determinism, panic-safety, and serving-surface
//! rules that DESIGN.md §8 spells out and that no off-the-shelf lint knows
//! about. It tokenizes every workspace `.rs` file (no rustc, no syn, no
//! network) and emits typed, line-numbered diagnostics, filtered through a
//! committed allowlist (`analyze.toml`) whose every entry must be justified
//! by a `// SAFETY:` or `// DETERMINISM:` comment in the code it blesses.
//!
//! The pieces:
//! - [`lexer`]: a line-aware Rust lexer (comments, raw strings, lifetimes).
//! - [`scopes`]: a block tree over the token stream — `fn` items, `impl`
//!   membership, local `let` bindings, `#[cfg(test)]` spans.
//! - [`callgraph`]: a conservative intra-workspace call graph powering the
//!   transitive determinism-taint rule (D3).
//! - [`rules`]: the nine contracts (D1, D2, D3, P1, C1, U1, L1, E1, W1).
//! - [`allowlist`]: the `analyze.toml` subset-of-TOML parser and ratchet,
//!   schema 2 with content-fingerprint pins.
//! - [`analyze_workspace`]: the driver that walks `crates/*/src`, applies
//!   per-file scopes, runs the call-graph pass, and reconciles findings
//!   against the allowlist.

pub mod allowlist;
pub mod callgraph;
pub mod lexer;
pub mod rules;
pub mod scopes;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use allowlist::{line_fingerprint, AllowKind, Allowlist};
use rules::{Diagnostic, Scope, RULE_IDS};

/// Exit code for a clean run: no findings, no allowlist problems.
///
/// The full exit-code table, pinned:
///
/// ```
/// use reorderlab_analyze::{EXIT_CLEAN, EXIT_USAGE, EXIT_VIOLATIONS};
/// assert_eq!(EXIT_CLEAN, 0); // workspace satisfies all nine rules
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

/// Crates whose `src` trees are library code for P1 (no panicking calls).
/// `cli` and `bench` are binaries: aborting the process there is an
/// acceptable failure mode, and `analyze` itself is excluded from P1 only
/// through this list — it still gets D1/D2/C1-narrow/U1 like everyone else.
pub const LIB_CRATES: [&str; 11] = [
    "graph",
    "core",
    "kernels",
    "community",
    "influence",
    "partition",
    "trace",
    "memsim",
    "datasets",
    "ops",
    "serve",
];

/// Crates where C1 (narrowing `as` casts) applies.
pub const C1_CRATES: [&str; 3] = ["graph", "core", "kernels"];

/// The concurrent serving surface: L1/E1/W1 apply here. These crates hold
/// the daemon's mutexes, channels, sockets, and the `OpError` wire
/// taxonomy; the rest of the workspace has no locks to misuse.
pub const SERVE_CRATES: [&str; 2] = ["ops", "serve"];

/// Ingestion files: stricter C1 (all integer casts) plus P1's index leg,
/// because these parse untrusted bytes.
pub const INGESTION_FILES: [&str; 2] = ["crates/graph/src/io.rs", "crates/graph/src/mtx.rs"];

/// The blessed D2 wrapper module: the one place order-fixed reductions live.
pub const D2_BLESSED: &str = "crates/graph/src/determinism.rs";

/// The blessed C1 module: checked conversions with compile-time width proofs.
pub const C1_BLESSED: &str = "crates/graph/src/cast.rs";

/// Computes the rule scope for one workspace-relative path (forward slashes).
pub fn scope_for(rel: &str) -> Scope {
    let crate_name =
        rel.strip_prefix("crates/").and_then(|rest| rest.split('/').next()).unwrap_or("");
    let is_bin = rel.contains("/src/bin/");
    let ingestion = INGESTION_FILES.contains(&rel);
    let serving = SERVE_CRATES.contains(&crate_name);
    Scope {
        d1: true,
        d2: rel != D2_BLESSED,
        d3: true,
        p1: LIB_CRATES.contains(&crate_name) && !is_bin,
        p1_index: ingestion,
        c1: C1_CRATES.contains(&crate_name) && rel != C1_BLESSED,
        c1_all_int: ingestion,
        u1: true,
        u1_root: rel == "src/lib.rs"
            || rel.ends_with("/src/lib.rs")
            || rel.ends_with("/src/main.rs")
            || is_bin,
        l1: serving,
        e1: serving && !is_bin,
        w1: serving,
    }
}

/// Walks `root/crates/*/src` plus the root facade's `src/`, collecting
/// every `.rs` file sorted by path. `shims/`, `target/`, and per-crate
/// `tests/` trees are outside `src` and therefore never visited.
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
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

/// Per-rule tallies for the schema-2 report.
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

/// Runs the full pass: walk, lex, per-file rules, the workspace call-graph
/// pass (D3), then reconcile against `allow`.
///
/// # Errors
///
/// Returns the first I/O failure while walking or reading files.
pub fn analyze_workspace(root: &Path, allow: &Allowlist) -> io::Result<AnalysisReport> {
    let files = collect_files(root)?;
    let mut rels = Vec::with_capacity(files.len());
    let mut diags = Vec::with_capacity(files.len());
    let mut lines = Vec::with_capacity(files.len());
    let mut lexed_trees = Vec::with_capacity(files.len());
    for path in &files {
        let rel = relative_slash(root, path);
        let source = fs::read_to_string(path)?;
        let lexed = lexer::lex(&source);
        diags.push(rules::check(&lexed, &scope_for(&rel)));
        lines.push(source.lines().map(str::to_string).collect::<Vec<String>>());
        let tree = scopes::ScopeTree::build(&lexed.toks);
        lexed_trees.push((lexed, tree));
        rels.push(rel);
    }

    // The workspace-level pass: D3 taint through the call graph.
    let graph = callgraph::CallGraph::build(&lexed_trees);
    for (file, d) in graph.d3_diagnostics() {
        if scope_for(&rels[file]).d3 {
            diags[file].push(d);
        }
    }

    let mut per_file: BTreeMap<String, FileData> = BTreeMap::new();
    for (((rel, mut d), (lexed, _tree)), file_lines) in
        rels.into_iter().zip(diags).zip(lexed_trees).zip(lines)
    {
        d.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
        per_file.insert(rel, FileData { diags: d, lexed, lines: file_lines });
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
/// multi-line method chain whose `.expect` sits on the final line.
const JUSTIFICATION_WINDOW: u32 = 5;

/// Marks `hits` as allowlist-covered and bumps the per-rule tallies.
fn suppress(report: &mut AnalysisReport, rule: &str, marks: &mut [bool], hits: &[usize]) {
    for &i in hits {
        marks[i] = true;
        report.suppressed += 1;
        report.rules.entry(rule.to_string()).or_default().suppressed += 1;
    }
}

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
        let Some(data) = per_file.get(&entry.path) else {
            report.problems.push(format!(
                "allowlist: entry for {} {} matches no analyzed file",
                entry.rule, entry.path
            ));
            continue;
        };
        let diags = &data.diags;
        let marks =
            taken.get_mut(entry.path.as_str()).expect("taken is keyed identically to per_file");
        match entry.kind {
            AllowKind::Fingerprint { hash, count } => {
                let hits: Vec<usize> = diags
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| {
                        d.rule == entry.rule
                            && data
                                .lines
                                .get(d.line as usize - 1)
                                .is_some_and(|l| line_fingerprint(l) == hash)
                    })
                    .map(|(i, _)| i)
                    .collect();
                if hits.is_empty() {
                    let candidates: Vec<String> = diags
                        .iter()
                        .filter(|d| d.rule == entry.rule)
                        .filter_map(|d| {
                            data.lines.get(d.line as usize - 1).map(|l| {
                                format!("line {} = \"{:016x}\"", d.line, line_fingerprint(l))
                            })
                        })
                        .collect();
                    report.problems.push(format!(
                        "allowlist: unused fingerprint entry {} {} \"{hash:016x}\" — no \
                         {} diagnostic sits on a line with that content{}; remove or \
                         re-key it",
                        entry.rule,
                        entry.path,
                        entry.rule,
                        if candidates.is_empty() {
                            String::new()
                        } else {
                            format!(" (candidates: {})", candidates.join(", "))
                        }
                    ));
                    continue;
                }
                if hits.len() != count as usize {
                    report.problems.push(format!(
                        "allowlist: count drift for {} {} fingerprint \"{hash:016x}\" — \
                         entry blesses {count} site(s) but {} line(s) with that content \
                         fire; re-audit and update the count",
                        entry.rule,
                        entry.path,
                        hits.len()
                    ));
                }
                for &i in &hits {
                    let line = diags[i].line;
                    let justified = JUSTIFICATIONS
                        .iter()
                        .any(|n| data.lexed.comment_near(line, JUSTIFICATION_WINDOW, n));
                    if !justified {
                        report.problems.push(format!(
                            "allowlist: {} {}:{} has no // SAFETY: or // DETERMINISM: \
                             comment within {} lines of the fingerprinted site",
                            entry.rule, entry.path, line, JUSTIFICATION_WINDOW
                        ));
                    }
                }
                suppress(&mut report, &entry.rule, marks, &hits);
            }
            AllowKind::Count(expected) => {
                let hits: Vec<usize> = diags
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| d.rule == entry.rule)
                    .map(|(i, _)| i)
                    .collect();
                if hits.len() as u32 != expected {
                    report.problems.push(format!(
                        "allowlist: count drift for {} {} — entry budgets {expected} \
                         site(s) but the analyzer found {}; re-audit the file and update \
                         the count",
                        entry.rule,
                        entry.path,
                        hits.len()
                    ));
                }
                if let Some(&first) = hits.first() {
                    let first_line = diags[first].line;
                    let justified = JUSTIFICATIONS
                        .iter()
                        .any(|n| data.lexed.comment_at_or_before(first_line, n));
                    if !justified {
                        report.problems.push(format!(
                            "allowlist: {} {} (count = {expected}) has no module-level \
                             // SAFETY: or // DETERMINISM: comment at or before the first \
                             site (line {first_line})",
                            entry.rule, entry.path
                        ));
                    }
                }
                suppress(&mut report, &entry.rule, marks, &hits);
            }
        }
    }

    for (path, data) in per_file.iter() {
        let marks = &taken[path.as_str()];
        for (i, d) in data.diags.iter().enumerate() {
            if !marks[i] {
                report.rules.entry(d.rule.to_string()).or_default().diagnostics += 1;
                report
                    .diagnostics
                    .push(FileDiagnostic { path: path.clone(), diagnostic: d.clone() });
            }
        }
    }
    report
        .diagnostics
        .sort_by(|a, b| a.path.cmp(&b.path).then(a.diagnostic.line.cmp(&b.diagnostic.line)));
    report
}

/// Schema version of the `--json` report. Bump on breaking layout changes.
/// Version 2 added `allowlist_schema`, per-rule summaries (`rules`), and
/// the D3 `chain` field on diagnostics; version 3 dropped `warnings` (its
/// one producer, the schema-1 allowlist reader, is retired).
pub const REPORT_SCHEMA_VERSION: u32 = 3;

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
    s.push_str("  \"rules\": {");
    for (i, (rule, summary)) in report.rules.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    \"{}\": {{\"diagnostics\": {}, \"suppressed\": {}}}",
            json_escape(rule),
            summary.diagnostics,
            summary.suppressed
        ));
    }
    if !report.rules.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("},\n");
    push_str_array(&mut s, "problems", &report.problems);
    s.push_str("  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let chain = d
            .diagnostic
            .chain
            .iter()
            .map(|c| format!("\"{}\"", json_escape(c)))
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\", \
             \"chain\": [{chain}]}}",
            d.diagnostic.rule,
            json_escape(&d.path),
            d.diagnostic.line,
            json_escape(&d.diagnostic.message)
        ));
    }
    if !report.diagnostics.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

fn push_str_array(s: &mut String, key: &str, items: &[String]) {
    s.push_str(&format!("  \"{key}\": ["));
    for (i, p) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n    \"{}\"", json_escape(p)));
    }
    if !items.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n");
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
        assert!(graph.p1 && graph.c1 && !graph.c1_all_int && !graph.p1_index);
        assert!(!graph.l1 && !graph.e1 && !graph.w1, "serving rules stay off the graph crate");

        let ingest = scope_for("crates/graph/src/io.rs");
        assert!(ingest.p1 && ingest.p1_index && ingest.c1 && ingest.c1_all_int);

        let cast = scope_for("crates/graph/src/cast.rs");
        assert!(!cast.c1, "cast.rs is the blessed C1 module");

        let det = scope_for("crates/graph/src/determinism.rs");
        assert!(!det.d2, "determinism.rs is the blessed D2 module");

        let cli = scope_for("crates/cli/src/main.rs");
        assert!(!cli.p1 && cli.u1_root, "binaries may panic but must forbid unsafe");

        let bench_bin = scope_for("crates/bench/src/bin/runner.rs");
        assert!(!bench_bin.p1 && bench_bin.u1_root);

        let lib_root = scope_for("crates/trace/src/lib.rs");
        assert!(lib_root.u1_root && lib_root.p1 && !lib_root.c1);

        let server = scope_for("crates/serve/src/server.rs");
        assert!(server.l1 && server.e1 && server.w1 && server.d3);

        let ops_err = scope_for("crates/ops/src/error.rs");
        assert!(ops_err.l1 && ops_err.e1 && ops_err.w1);

        let serve_bin = scope_for("crates/serve/src/bin/loadtool.rs");
        assert!(
            serve_bin.l1 && !serve_bin.e1,
            "binaries may unwrap but still must not hold locks across I/O"
        );
    }

    #[test]
    fn json_report_is_schema_versioned_and_escaped() {
        let mut report = AnalysisReport { files_scanned: 2, ..AnalysisReport::default() };
        report.rules.insert("P1".to_string(), RuleSummary { diagnostics: 1, suppressed: 0 });
        report.diagnostics.push(FileDiagnostic {
            path: "crates/x/src/a.rs".to_string(),
            diagnostic: rules::Diagnostic::new("P1", 7, "has \"quotes\"".to_string()),
        });
        let json = to_json(&report, &Allowlist::default());
        assert!(json.contains("\"analyze_report_version\": 3"));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"P1\": {\"diagnostics\": 1, \"suppressed\": 0}"));
        assert!(json.contains("\"chain\": []"));
    }

    #[test]
    fn json_report_carries_d3_chains() {
        let mut report = AnalysisReport::default();
        report.diagnostics.push(FileDiagnostic {
            path: "crates/x/src/a.rs".to_string(),
            diagnostic: rules::Diagnostic {
                rule: "D3",
                line: 3,
                message: "tainted via a -> b".to_string(),
                chain: vec!["a".to_string(), "b".to_string()],
            },
        });
        let json = to_json(&report, &Allowlist::default());
        assert!(json.contains("\"chain\": [\"a\", \"b\"]"), "{json}");
    }
}
