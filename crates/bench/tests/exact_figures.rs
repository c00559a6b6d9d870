//! The exact-figure gate: every registered figure whose text reads no
//! clock and no worker count is rebuilt in-process and must equal its
//! committed `results/<id>.txt` byte for byte. The figures take about
//! 80 s in release on 2 vCPUs and many minutes in debug, so a debug run
//! skips this test and the release test run (`cargo test --release`)
//! carries it.

use reorderlab_bench::{Ctx, FIGURES};
use std::path::Path;

/// The first line at which `fresh` and `stored` part, 1-based, with both
/// versions of it; `None` when they are equal.
fn first_difference(stored: &str, fresh: &str) -> Option<(usize, String, String)> {
    if stored == fresh {
        return None;
    }
    let (mut a, mut b) = (stored.split_inclusive('\n'), fresh.split_inclusive('\n'));
    (1..).find_map(|n| match (a.next(), b.next()) {
        (x, y) if x == y => None,
        (x, y) => {
            Some((n, x.unwrap_or("<end of file>").into(), y.unwrap_or("<end of file>").into()))
        }
    })
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: the exact figures take minutes in debug")]
fn every_exact_figure_matches_its_committed_result() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let ctx = Ctx::default();
    let mut drifted = Vec::new();
    for figure in FIGURES.iter().filter(|f| f.exact) {
        let fresh = (figure.run)(&ctx).unwrap_or_else(|e| panic!("{}: {e}", figure.id));
        let path = results.join(format!("{}.txt", figure.id));
        let stored =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if let Some((line, was, now)) = first_difference(&stored, &fresh) {
            drifted.push(format!(
                "results/{}.txt line {line}:\n  stored: {}\n  fresh:  {}",
                figure.id,
                was.trim_end(),
                now.trim_end()
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "exact figures drifted (regenerate with `figures --out results ID`):\n{}",
        drifted.join("\n")
    );
}

#[test]
fn the_first_difference_is_named_by_line() {
    assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
    assert_eq!(first_difference("a\nb\n", "a\nc\n"), Some((2, "b\n".into(), "c\n".into())));
    assert_eq!(first_difference("a\n", "a\nb\n"), Some((2, "<end of file>".into(), "b\n".into())));
    assert_eq!(first_difference("a", "a\n"), Some((1, "a".into(), "a\n".into())));
}
