//! Integration tests: the fixture corpus (one offending file per rule, with
//! exact rule ids and 1-based lines), end-to-end allowlist semantics over a
//! synthetic workspace — including the schema-2 fingerprint pins — the CLI
//! binary's exit codes, and — the acceptance gate — the real workspace
//! analyzing clean against the committed `analyze.toml`.

use std::path::{Path, PathBuf};

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
fn d1_fixture_flags_each_hashmap_site() {
    let d = check_fixture("d1.rs", &Scope::all());
    assert_eq!(lines_of(&d, "D1"), vec![3, 5, 6], "{d:?}");
    assert_eq!(d.len(), 3, "no other rule fires on the D1 fixture: {d:?}");
}

#[test]
fn d2_fixture_flags_the_par_sum_only() {
    let d = check_fixture("d2.rs", &Scope::all());
    assert_eq!(lines_of(&d, "D2"), vec![5], "{d:?}");
    assert_eq!(d.len(), 1, "the serial fold inside the closure must not fire: {d:?}");
}

#[test]
fn p1_fixture_flags_unwrap_expect_panic_index() {
    let d = check_fixture("p1.rs", &Scope::all());
    assert_eq!(lines_of(&d, "P1"), vec![5, 9, 13, 17], "{d:?}");
    assert_eq!(d.len(), 4, "parser-method expect and unwrap_or must not fire: {d:?}");
}

#[test]
fn c1_fixture_distinguishes_narrow_from_ingestion_mode() {
    let all = check_fixture("c1.rs", &Scope::all());
    assert_eq!(lines_of(&all, "C1"), vec![3, 7], "ingestion mode bans all int casts: {all:?}");

    let mut narrow = Scope::all();
    narrow.c1_all_int = false;
    let d = check_fixture("c1.rs", &narrow);
    assert_eq!(lines_of(&d, "C1"), vec![3], "narrow mode allows `as usize`: {d:?}");
}

#[test]
fn u1_fixture_flags_missing_forbid_and_unsafe() {
    let d = check_fixture("u1.rs", &Scope::all());
    assert_eq!(lines_of(&d, "U1"), vec![1, 2], "{d:?}");
    assert_eq!(d.len(), 2, "{d:?}");
}

#[test]
fn l1_fixture_flags_blocking_under_a_live_guard_only() {
    let d = check_fixture("l1.rs", &Scope::all());
    assert_eq!(
        lines_of(&d, "L1"),
        vec![13],
        "only the write under the live guard fires; dropped, detached, and \
         scope-closed bindings are negatives: {d:?}"
    );
    assert_eq!(d.len(), 1, "no other rule fires on the L1 fixture: {d:?}");
}

#[test]
fn e1_fixture_separates_lock_channel_results_from_plain_options() {
    let d = check_fixture("e1.rs", &Scope::all());
    assert_eq!(
        lines_of(&d, "E1"),
        vec![8, 12],
        "unwrap-on-lock and expect-on-send fire; the Option unwrap, the \
         non-panicking unwrap_or, and the blessed lock() helper do not: {d:?}"
    );
    // The negatives are E1 negatives, not dead code: plain P1 still sees the
    // Option unwrap (line 16) and the blessed helper's unwrap (line 25).
    let p1 = lines_of(&d, "P1");
    assert!(p1.contains(&16) && p1.contains(&25), "{d:?}");
}

#[test]
fn w1_fixture_flags_the_wildcard_swallowed_variant() {
    let d = check_fixture("w1.rs", &Scope::all());
    assert_eq!(lines_of(&d, "W1"), vec![19], "{d:?}");
    assert_eq!(d.len(), 1, "the complete exit_code mapping is the negative: {d:?}");
    assert!(d[0].message.contains("Shutdown"), "names the swallowed variant: {d:?}");
    assert!(d[0].message.contains("status"), "names the incomplete mapping: {d:?}");
}

#[test]
fn w1_mutation_of_the_real_operror_is_caught() {
    // The seeded-mutation contract: deleting any single match arm from the
    // committed crates/ops/src/error.rs wire-status mapping must produce a
    // W1 finding. CI runs the same mutation through the binary.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../ops/src/error.rs");
    let source = std::fs::read_to_string(&path).expect("committed ops error.rs");

    let mut scope = Scope::all();
    scope.p1 = false; // judge the mutation on W1 alone
    let clean = rules::check(&lexer::lex(&source), &scope);
    assert_eq!(lines_of(&clean, "W1"), Vec::<u32>::new(), "committed file is W1-clean");

    let arm = "OpError::Io(_) => \"io\",";
    assert!(source.contains(arm), "the mutation target exists in error.rs");
    let mutated = source.replacen(arm, "", 1);
    let d = rules::check(&lexer::lex(&mutated), &scope);
    let w1 = lines_of(&d, "W1");
    assert_eq!(w1.len(), 1, "exactly the deleted arm is reported: {d:?}");
    assert!(
        d.iter().any(|x| x.rule == "W1" && x.message.contains("Io")),
        "names the unmapped variant: {d:?}"
    );
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

const OFFENDING_LIB: &str = "#![forbid(unsafe_code)]\n\
    // SAFETY: fixture justification for the blessed unwrap below.\n\
    pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";

/// The same library with lines inserted above the offending site (which the
/// schema-2 fingerprint must survive) — the unwrap moves from line 4 to 6.
const SHIFTED_LIB: &str = "#![forbid(unsafe_code)]\n\
    // A refactor inserted these two lines above the blessed site.\n\
    // Line pins would now be stale; fingerprints must not be.\n\
    // SAFETY: fixture justification for the blessed unwrap below.\n\
    pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";

/// Fingerprint of the offending line, as the allowlist spells it.
fn offending_fingerprint() -> String {
    format!("{:016x}", allowlist::line_fingerprint("x.unwrap()"))
}

fn fingerprint_allow() -> String {
    format!(
        "schema = 2\n[[allow]]\nrule = \"P1\"\npath = \"crates/graph/src/lib.rs\"\n\
         fingerprint = \"{}\"\nreason = \"fixture\"\n",
        offending_fingerprint()
    )
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
    let report = ws.run(&fingerprint_allow().replace("schema = 2", "schema = 1"));
    assert!(!report.is_clean(), "the schema-1 reader is retired: {report:?}");
    assert!(
        report.problems.iter().any(|p| p.contains("unsupported schema 1")),
        "{:?}",
        report.problems
    );
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
    let changed = OFFENDING_LIB.replace("x.unwrap()", "y.unwrap()");
    let ws = TempWorkspace::new("fpchange", &changed);
    let report = ws.run(&fingerprint_allow());
    assert!(!report.is_clean(), "a content change must invalidate the pin: {report:?}");
    assert_eq!(report.diagnostics.len(), 1, "the finding resurfaces");
    assert!(
        report.problems.iter().any(|p| p.contains("unused fingerprint")),
        "{:?}",
        report.problems
    );
    let new_print = format!("{:016x}", allowlist::line_fingerprint("y.unwrap()"));
    assert!(
        report.problems.iter().any(|p| p.contains(&new_print)),
        "the problem suggests the candidate re-key {new_print}: {:?}",
        report.problems
    );
}

#[test]
fn missing_justification_comment_is_a_problem() {
    let no_comment =
        "#![forbid(unsafe_code)]\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let ws = TempWorkspace::new("nojust", no_comment);
    let report = ws.run(
        "schema = 2\n[[allow]]\nrule = \"P1\"\npath = \"crates/graph/src/lib.rs\"\ncount = 1\nreason = \"fixture\"\n",
    );
    assert!(!report.is_clean());
    assert!(
        report.problems.iter().any(|p| p.contains("SAFETY")),
        "expects a missing-justification problem: {:?}",
        report.problems
    );
}

#[test]
fn deleting_the_safety_comment_fails_a_fingerprinted_site() {
    let no_comment = OFFENDING_LIB
        .replace("// SAFETY: fixture justification for the blessed unwrap below.\n", "");
    let ws = TempWorkspace::new("fpnojust", &no_comment);
    let report = ws.run(&fingerprint_allow());
    assert!(!report.is_clean(), "fingerprint pins still demand justification: {report:?}");
    assert!(report.problems.iter().any(|p| p.contains("SAFETY")), "{:?}", report.problems);
}

#[test]
fn unused_entry_is_a_problem() {
    let ws = TempWorkspace::new("unused", OFFENDING_LIB);
    let report = ws.run(
        "schema = 2\n[[allow]]\nrule = \"P1\"\npath = \"crates/graph/src/lib.rs\"\nfingerprint = \"0000000000000000\"\nreason = \"stale\"\n",
    );
    assert!(report.problems.iter().any(|p| p.contains("unused")), "{:?}", report.problems);
    assert_eq!(report.diagnostics.len(), 1, "the real finding still surfaces");
}

#[test]
fn count_entries_ratchet_exactly() {
    let ws = TempWorkspace::new("count", OFFENDING_LIB);
    let ok = ws.run(
        "schema = 2\n[[allow]]\nrule = \"P1\"\npath = \"crates/graph/src/lib.rs\"\ncount = 1\nreason = \"fixture\"\n",
    );
    assert!(ok.is_clean(), "{ok:?}");
    let drift = ws.run(
        "schema = 2\n[[allow]]\nrule = \"P1\"\npath = \"crates/graph/src/lib.rs\"\ncount = 2\nreason = \"fixture\"\n",
    );
    assert!(drift.problems.iter().any(|p| p.contains("count drift")), "{:?}", drift.problems);
}

#[test]
fn d3_taint_crosses_files_and_spares_the_serial_caller() {
    let kernel = fixture("d3_kernel.rs");
    let driver = fixture("d3_par.rs");
    let ws = TempWorkspace::with_files(
        "d3",
        &[("crates/graph/src/kernel.rs", &kernel), ("crates/graph/src/par.rs", &driver)],
    );
    let report = ws.run("schema = 2\n");
    let d3: Vec<_> = report.diagnostics.iter().filter(|d| d.diagnostic.rule == "D3").collect();
    assert_eq!(d3.len(), 1, "only the parallel fan-out fires, not the serial twin: {report:?}");
    let hit = d3[0];
    assert_eq!(hit.path, "crates/graph/src/par.rs", "fires at the call site, not the kernel");
    assert_eq!(hit.diagnostic.line, 5);
    assert_eq!(hit.diagnostic.chain, vec!["tally".to_string()], "evidence chain to the base");
    assert!(hit.diagnostic.message.contains("tally"), "{}", hit.diagnostic.message);

    // The same pair under a fingerprint allowlist (pinned to the fan-out
    // line, justified by a DETERMINISM comment) analyzes clean.
    let justified = driver.replace(
        "    rows.par_iter()",
        "    // DETERMINISM: the kernel's map order never escapes its sum.\n    rows.par_iter()",
    );
    drop(ws);
    let ws = TempWorkspace::with_files(
        "d3allow",
        &[("crates/graph/src/kernel.rs", &kernel), ("crates/graph/src/par.rs", &justified)],
    );
    let line = "rows.par_iter().map(|r| crate::kernel::tally(r)).collect()";
    let allow = format!(
        "schema = 2\n[[allow]]\nrule = \"D3\"\npath = \"crates/graph/src/par.rs\"\n\
         fingerprint = \"{:016x}\"\nreason = \"fixture: order never escapes\"\n",
        allowlist::line_fingerprint(line)
    );
    let clean = ws.run(&allow);
    assert!(clean.is_clean(), "{clean:?}");
    assert_eq!(clean.suppressed, 1);
}

#[test]
fn unallowed_violation_reaches_the_report_and_json() {
    let ws = TempWorkspace::new("report", OFFENDING_LIB);
    let report = ws.run("schema = 2\n");
    assert_eq!(report.diagnostics.len(), 1);
    let d = &report.diagnostics[0];
    assert_eq!(d.diagnostic.rule, "P1");
    assert_eq!(d.diagnostic.line, 4);
    assert_eq!(d.path, "crates/graph/src/lib.rs");
    let json = to_json(
        &report,
        &allowlist::Allowlist { schema: allowlist::ALLOWLIST_SCHEMA, entries: Vec::new() },
    );
    assert!(json.contains("\"analyze_report_version\": 3"), "{json}");
    assert!(json.contains("\"allowlist_schema\": 2"), "{json}");
    assert!(json.contains("\"rule\": \"P1\""));
    assert!(json.contains("\"line\": 4"));
    assert!(json.contains("\"rules\": {"), "per-rule summary block present: {json}");
    assert!(json.contains("\"P1\": {"), "{json}");
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
    assert!(stdout.contains("\"analyze_report_version\": 3"), "{stdout}");
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
    assert!(err.contains("Z9") && err.contains("D1"), "lists the known ids: {err}");
}

/// The acceptance gate: the real workspace must satisfy the contract with
/// the committed allowlist. Runs as part of tier-1 `cargo test`.
#[test]
fn the_workspace_is_clean_under_the_committed_allowlist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let allow_text =
        std::fs::read_to_string(root.join("analyze.toml")).expect("committed analyze.toml");
    let allow = allowlist::parse(&allow_text).expect("committed allowlist parses");
    assert_eq!(allow.schema, allowlist::ALLOWLIST_SCHEMA, "the committed allowlist is schema 2");
    let report = analyze_workspace(&root, &allow).expect("workspace walk");
    assert!(
        report.is_clean(),
        "workspace violates the static-analysis contract:\n{}\n{}",
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
}
