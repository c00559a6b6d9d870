//! The tier-1 gate for the static-analysis contract (DESIGN.md §8): every
//! crate manifest inherits the workspace lints, CI's clippy invocation
//! passes, and the structural rules that no lint expresses hold. Clippy
//! carries two structural rules itself: a lock is taken only inside
//! `with_lock` (`disallowed-methods` on `Mutex::lock`), and the rayon shim
//! has no parallel reduction to chain. The rest are the rows of the table
//! below, one test each: `cargo test --test static_gate structural::NAME`
//! checks one row alone.

use std::path::{Path, PathBuf};
use std::process::Command;

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

/// The workspace forbids unsafe code, every crate manifest inherits that
/// table, and CI's exact clippy invocation passes, in its own target
/// directory so that it never waits on the build lock of the `cargo test`
/// running this. A missing `cargo clippy` fails the gate; it never skips.
#[test]
fn the_workspace_passes_clippy_with_inherited_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root_manifest =
        std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest is readable");
    assert!(
        root_manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""),
        "the workspace lint table forbids unsafe code"
    );
    let missing = manifests_without_workspace_lints(root);
    assert!(missing.is_empty(), "manifests without `[lints] workspace = true`: {missing:?}");

    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let target_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-gate");
    let out = Command::new(cargo)
        .current_dir(root)
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
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-inheritance");
    let _ = std::fs::remove_dir_all(&root);
    for (rel, text) in [
        ("Cargo.toml", "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"),
        ("crates/a/Cargo.toml", "[package]\nname = \"a\"\n\n[lints]\nworkspace = true\n"),
        ("crates/b/Cargo.toml", "[package]\nname = \"b\"\n\n[dependencies]\nworkspace = true\n"),
    ] {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("manifests live in a directory"))
            .expect("temp workspace");
        std::fs::write(&path, text).expect("temp manifest");
    }
    let missing = manifests_without_workspace_lints(&root);
    assert_eq!(missing.len(), 1, "{missing:?}");
    assert!(missing[0].ends_with("crates/b/Cargo.toml"), "{missing:?}");
}

/// The entries of the one-line array `key = [..]` in a manifest's text.
fn manifest_array(text: &str, key: &str) -> Vec<String> {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(key)?.trim_start().strip_prefix('='))
        .unwrap_or_else(|| panic!("the manifest has a one-line `{key} = [..]`"));
    line.split('"').skip(1).step_by(2).map(String::from).collect()
}

/// How the root manifest's `default-members` differs from `"."` plus every
/// `members` entry: each entry missing from it, then each extra one.
fn default_members_gaps(root_manifest: &str) -> Vec<String> {
    let defaults = manifest_array(root_manifest, "default-members");
    let mut all = vec![".".to_string()];
    all.extend(manifest_array(root_manifest, "members"));
    let missing = all.iter().filter(|m| !defaults.contains(m)).map(|m| format!("missing {m}"));
    let extra = defaults.iter().filter(|d| !all.contains(d)).map(|d| format!("extra {d}"));
    missing.chain(extra).collect()
}

/// Plain `cargo test` is the whole gate only while `default-members` is
/// the facade plus every workspace member.
#[test]
fn default_members_keep_the_facade_and_every_member() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let gaps = default_members_gaps(&text);
    assert!(gaps.is_empty(), "default-members differs from \".\" + members: {gaps:?}");
}

#[test]
fn the_default_members_check_names_a_narrowed_list() {
    let manifest = "[workspace]\nmembers = [\"crates/*\", \"shims/*\"]\n\
                    default-members = [\".\", \"crates/*\"]\n";
    assert_eq!(default_members_gaps(manifest), ["missing shims/*"]);
    let manifest = "[workspace]\nmembers = [\"crates/*\"]\ndefault-members = [\"crates/*\"]\n";
    assert_eq!(default_members_gaps(manifest), ["missing ."]);
}

/// The part of a file that a row reads.
enum Cut {
    Whole,
    /// Library code: the lines before the first `#[cfg(test)]` line.
    BeforeTests,
    /// From the line that starts with the first string through the next
    /// line that starts with the second.
    Between(&'static str, &'static str),
}

/// A source pattern that may hit at most `max` lines of the files under
/// `paths` (relative to the workspace root; a `*` segment stands for every
/// entry of its directory). The table never reads this file.
struct Row {
    paths: &'static [&'static str],
    cut: Cut,
    hit: fn(&str) -> bool,
    max: usize,
    /// What the rule keeps, and where DESIGN.md argues it.
    reason: &'static str,
    /// A file (path, text) that breaks the rule, for the self-test.
    violation: (&'static str, &'static str),
}

/// The table, and one test per row that checks the workspace.
macro_rules! structural_rows {
    ($($name:ident: $row:expr,)*) => {
        const ROWS: &[(&str, Row)] = &[$((stringify!($name), $row),)*];

        mod structural {
            $(#[test]
            fn $name() {
                super::assert_row_holds(stringify!($name));
            })*
        }
    };
}

structural_rows! {
    one_thread_count_mechanism: Row {
        paths: &["crates", "src", "tests", "examples"],
        cut: Cut::Whole,
        hit: |l| l.contains(".threads("),
        max: 0,
        reason: "thread count is ambient (DESIGN.md §2): wrap a call in build_pool(t).install(..)",
        violation: ("src/a.rs", "let r = Louvain::new().threads(4);"),
    },
    one_public_serial_oracle: Row {
        paths: &["crates/*/src"],
        cut: Cut::Whole,
        hit: |l| l.contains("pub fn ") && l.contains("_serial"),
        max: 1,
        reason: "a greedy scan has one serial body (DESIGN.md §2): `contract_serial` is the last",
        violation: ("crates/graph/src/a.rs", "pub fn contract_serial() {}\npub fn a_serial() {"),
    },
    no_speculative_batch: Row {
        paths: &["crates"],
        cut: Cut::Whole,
        hit: |l| l.contains("let speculate"),
        max: 0,
        reason: "speculative batch scans lost to their serial bodies (DESIGN.md §2)",
        violation: ("crates/core/tests/a.rs", "let speculate = 64;"),
    },
    no_fork_on_the_thread_count: Row {
        paths: &["crates/*/src"],
        cut: Cut::Whole,
        hit: |l| {
            let mut after = l.split("current_num_threads()").skip(1);
            after.any(|r| r.trim_start().starts_with(['<', '>', '=', '!']))
        },
        max: 0,
        reason: "one body per kernel at every width (DESIGN.md §2), whichever way a fork points",
        violation: ("crates/kernels/src/a.rs", "if 1 < 2 && rayon::current_num_threads() > 1 {"),
    },
    q_is_read_not_recomputed: Row {
        paths: &["crates/community/src/louvain.rs"],
        cut: Cut::Between("fn scatter_phase", "fn renumber"),
        hit: |l| l.contains("modularity("),
        max: 0,
        reason: "a Louvain phase reads Q from Communities::q (DESIGN.md §9)",
        violation: ("crates/community/src/louvain.rs", "fn scatter_phase() {\nmodularity(g)"),
    },
    rr_sets_are_flat: Row {
        paths: &["crates/influence/src/imm.rs"],
        cut: Cut::Whole,
        hit: |l| l.contains("Vec<Vec<u32>>"),
        max: 0,
        reason: "RR sets live in one RrSets, offsets plus members (DESIGN.md §9)",
        violation: ("crates/influence/src/imm.rs", "let sets: Vec<Vec<u32>> = Vec::new();"),
    },
    selection_indexes_a_window: Row {
        paths: &["crates/influence/src/greedy.rs"],
        cut: Cut::BeforeTests,
        hit: |l| {
            l.contains("members().len()") && (l.contains("with_capacity(") || l.contains("vec!["))
        },
        max: 0,
        reason: "CELF indexes a window of candidates, never every RR-set member (DESIGN.md §9)",
        violation: ("crates/influence/src/greedy.rs", "let i = vec![0; rr.members().len()];"),
    },
    one_pagerank_pass: Row {
        paths: &["crates/kernels/src/pagerank.rs"],
        cut: Cut::BeforeTests,
        hit: starts_a_parallel_chain,
        max: 1,
        reason: "a PageRank iteration is one parallel pass (DESIGN.md §9)",
        violation: ("crates/kernels/src/pagerank.rs", "par_iter()\nzip(par_iter())\npar_iter()"),
    },
    share_divides_once_per_vertex: Row {
        paths: &["crates/kernels/src/pagerank.rs"],
        cut: Cut::BeforeTests,
        hit: |l| l.contains("/ deg"),
        max: 0,
        reason: "PageRank divides once per vertex into share[], not once per arc (DESIGN.md §9)",
        violation: ("crates/kernels/src/pagerank.rs", "fold(0.0, |acc, u| acc + s[u] / deg[u])"),
    },
    one_container_frame: Row {
        paths: &["crates/graph/src"],
        cut: Cut::Whole,
        hit: |l| l.contains("Err(BinCsrError::HeaderChecksum { stored"),
        max: 1,
        reason: "`.csrbin` and `.csrz` share one frame, container.rs (DESIGN.md §11-12)",
        violation: (
            "crates/graph/src/csrz.rs",
            "Err(BinCsrError::HeaderChecksum { stored\nErr(BinCsrError::HeaderChecksum { stored",
        ),
    },
    one_fnv1a: Row {
        paths: &["crates/*/src"],
        cut: Cut::Whole,
        hit: |l| l.contains("cbf2"),
        max: 1,
        reason: "one FNV-1a, reorderlab_graph::fnv1a, serves the workspace (DESIGN.md §11-12)",
        violation: ("crates/serve/src/a.rs", "const A: u64 = 0xcbf2_9ce4;\nconst B: u64 = 0xcbf2;"),
    },
    no_bench_target: Row {
        paths: &["shims/criterion", "crates/bench/benches"],
        cut: Cut::Whole,
        hit: |_| true,
        max: 0,
        reason: "wall time is measured in benchmark/ only (DESIGN.md §9), not by a bench target",
        violation: ("crates/bench/benches/walk.rs", "fn main() {}"),
    },
    no_criterion: Row {
        paths: &["Cargo.toml", "crates", "shims", ".github"],
        cut: Cut::Whole,
        hit: |l| {
            let uses = ["criterion::", "criterion_", "CRITERION_"];
            l.trim_start().starts_with("criterion") || uses.iter().any(|p| l.contains(p))
        },
        max: 0,
        reason: "the criterion shim is gone (DESIGN.md §9); benchmark/ is the one stopwatch",
        violation: ("crates/bench/Cargo.toml", "criterion = \"0.5\""),
    },
}

/// A `par_iter(`, `par_iter_mut(` or `into_par_iter(` call that is not
/// zipped into another chain.
fn starts_a_parallel_chain(line: &str) -> bool {
    line.match_indices("par_iter").any(|(at, m)| {
        let rest = &line[at + m.len()..];
        let receiver = line[..at].trim_end_matches(|c: char| c.is_alphabetic() || "_.".contains(c));
        (rest.starts_with('(') || rest.starts_with("_mut(")) && !receiver.ends_with("zip(")
    })
}

/// The files under `root` that `row` reads.
fn files_of(root: &Path, row: &Row) -> Vec<PathBuf> {
    let mut stack = Vec::new();
    for path in row.paths {
        let mut found = vec![root.to_path_buf()];
        for segment in path.split('/') {
            found = match segment {
                "*" => found.iter().flat_map(|dir| entries(dir)).collect(),
                _ => found.iter().map(|dir| dir.join(segment)).collect(),
            };
        }
        stack.extend(found);
    }
    let mut files = Vec::new();
    while let Some(path) = stack.pop() {
        if path.is_dir() {
            stack.extend(entries(&path));
        } else if path.is_file() && !path.ends_with("tests/static_gate.rs") {
            files.push(path);
        }
    }
    files.sort();
    files
}

fn entries(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir).map_or(Vec::new(), |d| d.map(|e| e.expect("entry").path()).collect())
}

/// Where `row` fails under `root`: each `.rs` file it names that is gone,
/// each file whose cut has no start, and every hit (`PATH:LINE`) if there
/// are more than `max`. A renamed file or function fails its row instead
/// of retiring it.
fn findings(root: &Path, row: &Row) -> Vec<String> {
    let gone = row.paths.iter().filter(|p| p.ends_with(".rs") && !root.join(p).is_file());
    let mut found: Vec<String> = gone.map(|p| format!("{p} is gone")).collect();
    let mut hits = Vec::new();
    for file in files_of(root, row) {
        let rel = file.strip_prefix(root).expect("read under the root").display().to_string();
        let text = String::from_utf8_lossy(&std::fs::read(&file).expect("readable")).into_owned();
        let lines: Vec<&str> = text.lines().collect();
        let starts = |prefix: &str| lines.iter().position(|l| l.starts_with(prefix));
        let (start, end) = match row.cut {
            Cut::Whole => (0, lines.len()),
            Cut::BeforeTests => (0, starts("#[cfg(test)]").unwrap_or(lines.len())),
            Cut::Between(first, last) => {
                let Some(start) = starts(first) else {
                    found.push(format!("{rel} has no line that starts with `{first}`"));
                    continue;
                };
                (start, starts(last).filter(|&e| e > start).map_or(lines.len(), |e| e + 1))
            }
        };
        let hit = (start..end).filter(|&i| (row.hit)(lines[i]));
        hits.extend(hit.map(|i| format!("{rel}:{}", i + 1)));
    }
    if hits.len() > row.max {
        found.extend(hits);
    }
    found
}

fn assert_row_holds(name: &str) {
    let (_, row) = ROWS.iter().find(|(n, _)| *n == name).expect("a row of that name");
    let found = findings(Path::new(env!("CARGO_MANIFEST_DIR")), row);
    assert!(found.is_empty(), "{}; at most {} hits:\n{}", row.reason, row.max, found.join("\n"));
}

/// Each row fails on a tree that holds nothing but its violation, and
/// names the file, so no row can pass by matching nothing.
#[test]
fn every_structural_row_fails_on_its_violation() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("structural-rows");
    for (name, row) in ROWS {
        let root = base.join(name);
        let _ = std::fs::remove_dir_all(&root);
        let (rel, text) = row.violation;
        std::fs::create_dir_all(root.join(rel).parent().expect("a directory")).expect("temp tree");
        std::fs::write(root.join(rel), text).expect("temp file");
        let found = findings(&root, row).join("\n");
        assert!(found.contains(&format!("{rel}:")), "{name} passed {rel}:\n{found}");
    }
}
