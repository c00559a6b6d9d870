//! The exact-counter gate: a fresh `snapshot`, at 1 and at 7 threads, must
//! agree with the committed `BENCH_0016.json` on every memsim counter and
//! compression footprint, and `--diff` must refuse a snapshot whose
//! counters were corrupted and a file that is not a snapshot.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `snapshot` with `args` at `threads` (the ambient width if `None`);
/// its exit code, and what it printed.
fn snapshot(args: &[&Path], threads: Option<&str>) -> (Option<i32>, String) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_snapshot"));
    if let Some(t) = threads {
        command.env("RAYON_NUM_THREADS", t);
    }
    let out = command.args(args).output().expect("snapshot runs");
    let printed = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    (out.status.code(), printed.into_owned())
}

#[test]
fn fresh_snapshot_matches_the_committed_counters() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_0016.json");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let fresh = dir.join("snapshot_gate_fresh.json");
    let diff = Path::new("--diff");
    for threads in ["1", "7"] {
        let (code, printed) = snapshot(&[Path::new("--out"), &fresh], Some(threads));
        assert_eq!(code, Some(0), "{printed}");
        let (code, printed) = snapshot(&[diff, &committed, &fresh], None);
        assert_eq!(code, Some(0), "counters drifted at {threads} threads:\n{printed}");
    }

    // Every memsim `loads` counter, then every compression `gap_bytes`
    // footprint, rewritten: the diff must bite on both sections.
    let text = std::fs::read_to_string(&committed).expect("committed snapshot reads");
    let corrupt = dir.join("snapshot_gate_corrupt.json");
    for key in ["\"loads\": ", "\"gap_bytes\": "] {
        assert!(text.contains(key));
        std::fs::write(&corrupt, text.replace(key, &format!("{key}1"))).expect("write");
        let (code, printed) = snapshot(&[diff, &corrupt, &fresh], None);
        assert_eq!(code, Some(1), "diff accepted a corrupted {key}:\n{printed}");
    }

    // Two files with nothing to compare do not agree.
    let empty = dir.join("snapshot_gate_empty.json");
    std::fs::write(&empty, "{}\n").expect("write");
    let (code, printed) = snapshot(&[diff, &empty, &empty], None);
    assert_eq!(code, Some(2), "diff agreed on two files with nothing to compare:\n{printed}");
    assert!(printed.contains("not a snapshot"), "{printed}");
}
