//! The exact-counter gate: a fresh `snapshot` must agree with the committed
//! `BENCH_0016.json` on every memsim counter and compression footprint, and
//! `--diff` must refuse a snapshot whose counters were corrupted.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `snapshot` with `args`; its exit code, and what it printed.
fn snapshot(args: &[&Path]) -> (Option<i32>, String) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_snapshot")).args(args).output().expect("snapshot runs");
    let printed = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    (out.status.code(), printed.into_owned())
}

#[test]
fn fresh_snapshot_matches_the_committed_counters() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_0016.json");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let fresh = dir.join("snapshot_gate_fresh.json");
    let (code, printed) = snapshot(&[Path::new("--out"), &fresh]);
    assert_eq!(code, Some(0), "{printed}");

    let diff = Path::new("--diff");
    let (code, printed) = snapshot(&[diff, &committed, &fresh]);
    assert_eq!(code, Some(0), "counters drifted:\n{printed}");

    // The same file with every `loads` counter rewritten, as CI's
    // corrupted-counter step does: the diff must bite.
    let text = std::fs::read_to_string(&committed).expect("committed snapshot reads");
    assert!(text.contains("\"loads\": "));
    let corrupt = dir.join("snapshot_gate_corrupt.json");
    std::fs::write(&corrupt, text.replace("\"loads\": ", "\"loads\": 1")).expect("write");
    let (code, printed) = snapshot(&[diff, &corrupt, &fresh]);
    assert_eq!(code, Some(1), "diff accepted corrupted counters:\n{printed}");
}
