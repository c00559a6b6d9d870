//! The tier-1 gate for the static-analysis contract (DESIGN.md §8): every
//! crate manifest inherits the workspace lints, and CI's clippy invocation
//! passes. Clippy carries the whole contract, including its two structural
//! rules: a lock is taken only inside `with_lock` (`disallowed-methods` on
//! `Mutex::lock`), and the rayon shim has no parallel reduction to chain.

use std::path::Path;
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
