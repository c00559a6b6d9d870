//! The row-splitting rule of every per-arc parallel pass: `rayon::arc_spans`
//! cuts the rows `0..n` of an arc prefix into at most one contiguous span
//! per worker, of near-equal weight Σ (degree(v) + 1).

use proptest::prelude::*;
use reorderlab_datasets::star;
use reorderlab_graph::{build_pool, GraphBuilder};
use std::ops::Range;

/// The arc prefix of a degree sequence.
fn prefix(degrees: &[usize]) -> Vec<usize> {
    std::iter::once(0)
        .chain(degrees.iter().scan(0, |at, &d| {
            *at += d;
            Some(*at)
        }))
        .collect()
}

fn spans_at(threads: usize, offsets: &[usize]) -> Vec<Range<usize>> {
    build_pool(threads).install(|| rayon::arc_spans(offsets))
}

/// The contract: non-empty contiguous spans covering `0..n`, at most one
/// per worker, none heavier than the total over the width by more than the
/// heaviest row.
fn assert_balanced(offsets: &[usize], threads: usize) {
    let n = offsets.len() - 1;
    let spans = spans_at(threads, offsets);
    if n == 0 {
        assert!(spans.is_empty(), "no rows, no spans");
        return;
    }
    assert!(spans.len() <= threads.min(n), "{} spans for {threads} threads", spans.len());
    assert_eq!(spans[0].start, 0);
    assert_eq!(spans[spans.len() - 1].end, n);
    assert!(spans.windows(2).all(|w| w[0].end == w[1].start), "contiguous: {spans:?}");
    assert!(spans.iter().all(|s| !s.is_empty()), "non-empty: {spans:?}");
    let weight = |r: &Range<usize>| offsets[r.end] - offsets[r.start] + r.len();
    let total = weight(&(0..n));
    let heaviest = (0..n).map(|v| weight(&(v..v + 1))).max().unwrap_or(0);
    for span in &spans {
        // weight ≤ total / T + heaviest, in integers.
        assert!(
            weight(span) * threads <= total + heaviest * threads,
            "{span:?} weighs {} of {total} at {threads} threads (heaviest row {heaviest})",
            weight(span)
        );
    }
}

/// A degree sequence with a few hubs (about one row in seven) among light
/// rows, anywhere.
fn skewed_degrees() -> impl Strategy<Value = Vec<usize>> {
    let row = (0u8..7, 0usize..4, 50usize..2000)
        .prop_map(|(pick, light, hub)| if pick == 0 { hub } else { light });
    proptest::collection::vec(row, 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn spans_are_contiguous_cover_and_balance(
        degrees in skewed_degrees(),
        threads in 1usize..9,
    ) {
        assert_balanced(&prefix(&degrees), threads);
    }

    #[test]
    fn a_prefix_that_starts_past_zero_balances_the_same(
        degrees in skewed_degrees(),
        base in 0usize..1000,
        threads in 1usize..9,
    ) {
        let offsets = prefix(&degrees);
        let shifted: Vec<usize> = offsets.iter().map(|&o| o + base).collect();
        prop_assert_eq!(spans_at(threads, &shifted), spans_at(threads, &offsets));
    }
}

#[test]
fn no_rows_give_no_spans() {
    for threads in [1usize, 2, 7] {
        assert!(spans_at(threads, &[0]).is_empty());
        assert!(spans_at(threads, &[]).is_empty());
    }
}

#[test]
fn fewer_rows_than_workers_give_one_row_each_at_most() {
    for n in 1..7 {
        let offsets = prefix(&vec![2; n]);
        assert_eq!(spans_at(7, &offsets), (0..n).map(|v| v..v + 1).collect::<Vec<_>>());
        assert_balanced(&offsets, 7);
    }
}

#[test]
fn isolated_vertices_split_by_count() {
    let offsets = vec![0; 101];
    assert_eq!(spans_at(2, &offsets), [0..50, 50..100]);
    assert_eq!(spans_at(4, &offsets), [0..25, 25..50, 50..75, 75..100]);
    assert_balanced(&offsets, 7);
}

#[test]
fn a_star_hub_is_weighed_first_or_last() {
    // 200 vertices: the hub weighs 200 and every leaf 2, 598 in all.
    let hub_first = star(200);
    let hub_last = GraphBuilder::undirected(200)
        .edges((0..199u32).map(|v| (v, 199)))
        .build()
        .expect("valid star");
    assert_eq!(spans_at(2, hub_first.offsets()), [0..51, 51..200]);
    assert_eq!(spans_at(2, hub_last.offsets()), [0..150, 150..200]);
    for threads in [2usize, 3, 7] {
        assert_balanced(hub_first.offsets(), threads);
        assert_balanced(hub_last.offsets(), threads);
    }
    // A hub heavier than a whole share closes its span alone, and no span
    // is left empty behind it.
    let offsets = prefix(&[1000, 1, 1, 1]);
    assert_eq!(spans_at(4, &offsets), [0..1, 1..4]);
}
