//! Integration tests: the fixture corpus (one offending file per rule, with
//! exact rule ids and 1-based lines), end-to-end allowlist semantics over a
//! synthetic workspace — the schema-3 fingerprint pins — the CLI binary's
//! exit codes, and the tier-1 gate: the real workspace passing the analyzer,
//! clippy, and the lint-inheritance check.

use std::path::{Path, PathBuf};
use std::process::Command;

use reorderlab_analyze::{allowlist, analyze_workspace, lexer, rules, to_json};
use rules::{Diagnostic, Scope};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn check_fixture(name: &str, scope: &Scope) -> Vec<Diagnostic> {
    rules::check(&lexer::lex(&fixture(name)), scope)
}

fn lines_of(diags: &[Diagnostic], rule: &str) -> Vec<u32> {
    diags.iter().filter(|d| d.rule == rule).map(|d| d.line).collect()
}

#[test]
fn d2_fixture_flags_the_par_sum_only() {
    let d = check_fixture("d2.rs", &Scope::all());
    assert_eq!(lines_of(&d, "D2"), vec![4], "{d:?}");
    assert_eq!(d.len(), 1, "the serial fold inside the closure must not fire: {d:?}");
}

#[test]
fn l1_fixture_flags_blocking_under_a_live_guard_only() {
    let d = check_fixture("l1.rs", &Scope::all());
    assert_eq!(
        lines_of(&d, "L1"),
        vec![12],
        "only the write under the live guard fires; dropped, detached, and \
         scope-closed bindings are negatives: {d:?}"
    );
    assert_eq!(d.len(), 1, "no other rule fires on the L1 fixture: {d:?}");
}

#[test]
fn clean_fixture_is_clean() {
    let d = check_fixture("clean.rs", &Scope::all());
    assert_eq!(d, Vec::new());
}

/// Builds a throwaway workspace under the target temp dir: one or more
/// files under `crates/<crate>/src/`.
struct TempWorkspace {
    root: PathBuf,
}

impl TempWorkspace {
    fn with_files(tag: &str, files: &[(&str, &str)]) -> Self {
        let root = std::env::temp_dir()
            .join(format!("reorderlab-analyze-it-{}-{tag}", std::process::id()));
        for (rel, source) in files {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("files live under crates/*/src"))
                .expect("temp workspace");
            std::fs::write(&path, source).expect("temp source file");
        }
        TempWorkspace { root }
    }

    fn new(tag: &str, lib_source: &str) -> Self {
        Self::with_files(tag, &[("crates/graph/src/lib.rs", lib_source)])
    }

    fn run(&self, allow_text: &str) -> reorderlab_analyze::AnalysisReport {
        let allow = allowlist::parse(allow_text).expect("valid allowlist text");
        analyze_workspace(&self.root, &allow).expect("workspace walk")
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

const OFFENDING_LIB: &str = "use rayon::prelude::*;\n\
    // DETERMINISM: fixture justification for the blessed sum below.\n\
    pub fn f(v: &[u64]) -> u64 {\n    v.par_iter().sum()\n}\n";

/// The same library with lines inserted above the offending site (which the
/// fingerprint must survive) — the sum moves from line 4 to 6.
const SHIFTED_LIB: &str = "use rayon::prelude::*;\n\
    // A refactor inserted these two lines above the blessed site.\n\
    // Line pins would now be stale; fingerprints must not be.\n\
    // DETERMINISM: fixture justification for the blessed sum below.\n\
    pub fn f(v: &[u64]) -> u64 {\n    v.par_iter().sum()\n}\n";

/// Fingerprint of the offending line, as the allowlist spells it.
fn offending_fingerprint() -> String {
    format!("{:016x}", allowlist::line_fingerprint("v.par_iter().sum()"))
}

fn allow_entry(fingerprint: &str, count: u32) -> String {
    format!(
        "schema = 3\n[[allow]]\nrule = \"D2\"\npath = \"crates/graph/src/lib.rs\"\n\
         fingerprint = \"{fingerprint}\"\ncount = {count}\nreason = \"fixture\"\n"
    )
}

fn fingerprint_allow() -> String {
    allow_entry(&offending_fingerprint(), 1)
}

#[test]
fn allowlisted_site_with_justification_is_clean() {
    let ws = TempWorkspace::new("ok", OFFENDING_LIB);
    let report = ws.run(&fingerprint_allow());
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.suppressed, 1);
}

#[test]
fn a_schema_1_header_is_a_hard_failure() {
    let ws = TempWorkspace::new("s1", OFFENDING_LIB);
    for retired in [1, 2] {
        let report =
            ws.run(&fingerprint_allow().replace("schema = 3", &format!("schema = {retired}")));
        assert!(!report.is_clean(), "the schema-{retired} reader is retired: {report:?}");
        assert!(
            report.problems.iter().any(|p| p.contains(&format!("unsupported schema {retired}"))),
            "{:?}",
            report.problems
        );
    }
}

#[test]
fn fingerprint_pins_survive_lines_inserted_above() {
    let allow = fingerprint_allow();
    let ws = TempWorkspace::new("fp", OFFENDING_LIB);
    let before = ws.run(&allow);
    assert!(before.is_clean(), "fingerprint blesses the original layout: {before:?}");
    assert_eq!(before.suppressed, 1);
    drop(ws);

    let ws = TempWorkspace::new("fpshift", SHIFTED_LIB);
    let after = ws.run(&allow);
    assert!(after.is_clean(), "the same entry survives the two-line shift: {after:?}");
    assert_eq!(after.suppressed, 1);
}

#[test]
fn fingerprint_pins_fail_when_the_line_content_changes() {
    let changed = OFFENDING_LIB.replace("v.par_iter().sum()", "v.par_iter().product()");
    let ws = TempWorkspace::new("fpchange", &changed);
    let report = ws.run(&fingerprint_allow());
    assert!(!report.is_clean(), "a content change must invalidate the pin: {report:?}");
    assert_eq!(report.diagnostics.len(), 1, "the finding resurfaces");
    assert!(
        report.problems.iter().any(|p| p.contains("unused fingerprint")),
        "{:?}",
        report.problems
    );
    let new_print = format!("{:016x}", allowlist::line_fingerprint("v.par_iter().product()"));
    assert!(
        report.problems.iter().any(|p| p.contains(&new_print)),
        "the problem suggests the candidate re-key {new_print}: {:?}",
        report.problems
    );
}

#[test]
fn missing_justification_comment_is_a_problem() {
    // The justification sits six lines above the site: one line outside
    // the window.
    let far = OFFENDING_LIB.replace(
        "pub fn f(v: &[u64]) -> u64 {\n",
        "const A: u8 = 0;\nconst B: u8 = 0;\nconst C: u8 = 0;\nconst D: u8 = 0;\n\
         pub fn f(v: &[u64]) -> u64 {\n",
    );
    let ws = TempWorkspace::new("nojust", &far);
    let report = ws.run(&fingerprint_allow());
    assert!(!report.is_clean());
    assert!(
        report.problems.iter().any(|p| p.contains("SAFETY") && p.contains("within 5 lines")),
        "expects a missing-justification problem: {:?}",
        report.problems
    );
}

#[test]
fn deleting_the_safety_comment_fails_a_fingerprinted_site() {
    let no_comment = OFFENDING_LIB
        .replace("// DETERMINISM: fixture justification for the blessed sum below.\n", "");
    let ws = TempWorkspace::new("fpnojust", &no_comment);
    let report = ws.run(&fingerprint_allow());
    assert!(!report.is_clean(), "fingerprint pins still demand justification: {report:?}");
    assert!(report.problems.iter().any(|p| p.contains("SAFETY")), "{:?}", report.problems);
}

#[test]
fn unused_entry_is_a_problem() {
    let ws = TempWorkspace::new("unused", OFFENDING_LIB);
    let report = ws.run(&allow_entry("0000000000000000", 1));
    assert!(report.problems.iter().any(|p| p.contains("unused")), "{:?}", report.problems);
    assert_eq!(report.diagnostics.len(), 1, "the real finding still surfaces");
}

#[test]
fn count_entries_ratchet_exactly() {
    let ws = TempWorkspace::new("count", OFFENDING_LIB);
    let drift = ws.run(&allow_entry(&offending_fingerprint(), 2));
    assert!(drift.problems.iter().any(|p| p.contains("count drift")), "{:?}", drift.problems);
    drop(ws);

    let twice = format!(
        "{OFFENDING_LIB}// DETERMINISM: the same sum, twice.\n\
         pub fn g(v: &[u64]) -> u64 {{\n    v.par_iter().sum()\n}}\n"
    );
    let ws = TempWorkspace::new("count2", &twice);
    let ok = ws.run(&allow_entry(&offending_fingerprint(), 2));
    assert!(ok.is_clean(), "{ok:?}");
    assert_eq!(ok.suppressed, 2);
    let short = ws.run(&fingerprint_allow());
    assert!(short.problems.iter().any(|p| p.contains("count drift")), "{:?}", short.problems);
}

#[test]
fn unallowed_violation_reaches_the_report_and_json() {
    let ws = TempWorkspace::new("report", OFFENDING_LIB);
    let report = ws.run("schema = 3\n");
    assert_eq!(report.diagnostics.len(), 1);
    let d = &report.diagnostics[0];
    assert_eq!(d.diagnostic.rule, "D2");
    assert_eq!(d.diagnostic.line, 4);
    assert_eq!(d.path, "crates/graph/src/lib.rs");
    let json = to_json(
        &report,
        &allowlist::Allowlist { schema: allowlist::ALLOWLIST_SCHEMA, entries: Vec::new() },
    );
    assert!(json.contains("\"analyze_report_version\": 4"), "{json}");
    assert!(json.contains("\"allowlist_schema\": 3"), "{json}");
    assert!(json.contains("\"rule\": \"D2\""));
    assert!(json.contains("\"line\": 4"));
    assert!(json.contains("\"rules\": {"), "per-rule summary block present: {json}");
    assert!(json.contains("\"D2\": {"), "{json}");
}

#[test]
fn cli_exits_nonzero_on_violations_and_zero_on_clean() {
    let ws = TempWorkspace::new("cli", OFFENDING_LIB);
    let bin = env!("CARGO_BIN_EXE_reorderlab-analyze");

    let dirty = std::process::Command::new(bin)
        .args(["--root", ws.root.to_str().expect("utf8 temp path")])
        .output()
        .expect("spawn analyzer");
    assert_eq!(dirty.status.code(), Some(1), "violations exit 1");

    let allow_path = ws.root.join("analyze.toml");
    std::fs::write(&allow_path, fingerprint_allow()).expect("write allowlist");
    let clean = std::process::Command::new(bin)
        .args(["--root", ws.root.to_str().expect("utf8 temp path")])
        .output()
        .expect("spawn analyzer");
    assert_eq!(
        clean.status.code(),
        Some(0),
        "clean exit 0; stdout: {}",
        String::from_utf8_lossy(&clean.stdout)
    );

    let usage =
        std::process::Command::new(bin).args(["--no-such-flag"]).output().expect("spawn analyzer");
    assert_eq!(usage.status.code(), Some(2), "usage errors exit 2");
    assert!(
        String::from_utf8_lossy(&usage.stderr).contains("--format"),
        "the error lists the accepted flags"
    );
}

#[test]
fn cli_rejects_unknown_formats_with_the_accepted_list() {
    let bin = env!("CARGO_BIN_EXE_reorderlab-analyze");
    let out = std::process::Command::new(bin)
        .args(["--format", "yaml"])
        .output()
        .expect("spawn analyzer");
    assert_eq!(out.status.code(), Some(2), "unknown format exits 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("yaml") && err.contains("text, json"), "{err}");
}

#[test]
fn cli_format_json_prints_the_versioned_report() {
    let ws = TempWorkspace::new("clijson", OFFENDING_LIB);
    std::fs::write(ws.root.join("analyze.toml"), fingerprint_allow()).expect("write allowlist");
    let bin = env!("CARGO_BIN_EXE_reorderlab-analyze");
    let out = std::process::Command::new(bin)
        .args(["--root", ws.root.to_str().expect("utf8 temp path"), "--format", "json"])
        .output()
        .expect("spawn analyzer");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"analyze_report_version\": 4"), "{stdout}");
    assert!(stdout.contains("\"suppressed\": 1"), "{stdout}");
}

#[test]
fn cli_explains_each_rule_and_rejects_unknown_ids() {
    let bin = env!("CARGO_BIN_EXE_reorderlab-analyze");
    for rule in rules::RULE_IDS {
        let out = std::process::Command::new(bin)
            .args(["--explain", rule])
            .output()
            .expect("spawn analyzer");
        assert_eq!(out.status.code(), Some(0), "--explain {rule} exits 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(rule), "--explain {rule} names the rule: {stdout}");
    }
    let out =
        std::process::Command::new(bin).args(["--explain", "Z9"]).output().expect("spawn analyzer");
    assert_eq!(out.status.code(), Some(2), "unknown rule id exits 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("Z9") && err.contains("D2, L1"), "lists the known ids: {err}");
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Manifests under `root` that do not inherit the workspace lint table:
/// the facade's and every `crates/*` one. (`shims/` stand in for registry
/// crates and stay outside the contract.)
fn manifests_without_workspace_lints(root: &Path) -> Vec<String> {
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    manifests
        .into_iter()
        .filter(|m| {
            let text = std::fs::read_to_string(m).expect("manifest is readable");
            let mut table = "";
            !text.lines().map(str::trim).any(|line| {
                if line.starts_with('[') {
                    table = line;
                }
                table == "[lints]" && line.replace(' ', "") == "workspace=true"
            })
        })
        .map(|m| m.display().to_string())
        .collect()
}

/// The tier-1 gate for the static-analysis contract (DESIGN.md §8), in
/// three parts: every crate manifest inherits the workspace lints; the
/// analyzer's D2 and L1 pass under the committed allowlist; and CI's exact
/// clippy invocation passes, in its own target directory so that it never
/// waits on the build lock of the `cargo test` running this. A missing
/// `cargo clippy` fails the gate; it never skips.
#[test]
fn the_workspace_passes_the_analyzer_and_clippy_with_inherited_lints() {
    let root = workspace_root();
    let root_manifest =
        std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest is readable");
    assert!(
        root_manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""),
        "the workspace lint table forbids unsafe code"
    );
    let missing = manifests_without_workspace_lints(&root);
    assert!(missing.is_empty(), "manifests without `[lints] workspace = true`: {missing:?}");

    let allow_text =
        std::fs::read_to_string(root.join("analyze.toml")).expect("committed analyze.toml");
    let allow = allowlist::parse(&allow_text).expect("committed allowlist parses");
    assert_eq!(allow.schema, allowlist::ALLOWLIST_SCHEMA, "the committed allowlist is schema 3");
    let report = analyze_workspace(&root, &allow).expect("workspace walk");
    assert!(
        report.is_clean(),
        "workspace violates D2/L1:\n{}\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| format!(
                "{}:{}: {} {}",
                d.path, d.diagnostic.line, d.diagnostic.rule, d.diagnostic.message
            ))
            .collect::<Vec<_>>()
            .join("\n"),
        report.problems.join("\n")
    );
    assert!(report.files_scanned > 90, "the walker saw the whole workspace");

    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let target_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-gate");
    let out = Command::new(cargo)
        .current_dir(&root)
        .args(["clippy", "--offline", "--workspace", "--all-targets", "--target-dir"])
        .arg(&target_dir)
        .args(["--", "-D", "warnings"])
        .output()
        .expect("spawn cargo clippy");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let tail_start = stderr.char_indices().rev().nth(12_000).map_or(0, |(i, _)| i);
    let tail = &stderr[tail_start..];
    assert!(out.status.success(), "cargo clippy -- -D warnings failed:\n{tail}");
}

#[test]
fn the_lint_inheritance_check_names_a_manifest_that_opts_out() {
    let ws = TempWorkspace::with_files(
        "lints",
        &[
            ("Cargo.toml", "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"),
            ("crates/a/Cargo.toml", "[package]\nname = \"a\"\n\n[lints]\nworkspace = true\n"),
            (
                "crates/b/Cargo.toml",
                "[package]\nname = \"b\"\n\n[dependencies]\nworkspace = true\n",
            ),
        ],
    );
    let missing = manifests_without_workspace_lints(&ws.root);
    assert_eq!(missing.len(), 1, "{missing:?}");
    assert!(missing[0].ends_with("crates/b/Cargo.toml"), "{missing:?}");
}
