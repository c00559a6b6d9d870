//! The benchmark's own request trace for `serve_zipf`.
//!
//! Templates are ranked, and rank r gets the share 1 / r^1.1 of the trace,
//! rounded by largest remainder. The seed decides only the order of the
//! requests, so the class counts are exact and the same for every seed, and
//! the shares the workload was built for can be read off the table this
//! module prints.

use crate::rng::SplitMix64;
use reorderlab_ops::{GraphSource, OpRequest, RequestEnvelope};

pub const ZIPF_S: f64 = 1.1;

/// Distinct `random:seed=i` specs the miss class cycles through. The daemon's
/// permutation cache holds 64 orderings and evicts the least recently used,
/// so an ordering asked for again after 79 others is always computed.
pub const MISS_SPECS: usize = 80;

/// The schemes whose orderings stay in the daemon's cache.
const HOT_SCHEMES: [&str; 4] = ["rcm", "dbg", "degree", "hubsort-dbg"];

#[derive(Debug, Clone)]
pub struct Template {
    pub class: &'static str,
    pub label: String,
    pub request: OpRequest,
}

impl Template {
    pub fn line(&self) -> String {
        let mut line = RequestEnvelope::new(self.request.clone()).to_json().to_line();
        line.push('\n');
        line
    }

    pub fn graph(&self) -> &str {
        match &self.request {
            OpRequest::Stats { source }
            | OpRequest::Reorder { source, .. }
            | OpRequest::Measure { source, .. }
            | OpRequest::Compression { source, .. }
            | OpRequest::Memsim { source, .. } => source.id(),
            OpRequest::Validate { .. } => "",
        }
    }
}

fn corpus(graph: &str) -> GraphSource {
    GraphSource::Corpus(graph.to_string())
}

fn reorder(class: &'static str, graph: &str, scheme: &str, return_perm: bool) -> Template {
    Template {
        class,
        label: format!("reorder {graph} {scheme}{}", if return_perm { " +perm" } else { "" }),
        request: OpRequest::Reorder {
            source: corpus(graph),
            scheme: Some(scheme.to_string()),
            apply_perm: None,
            return_perm,
        },
    }
}

fn hot_schemes() -> Vec<String> {
    HOT_SCHEMES.iter().map(|s| s.to_string()).collect()
}

/// The i-th request of the miss class.
pub fn miss(i: usize) -> Template {
    reorder("reorder_miss", "road", &format!("random:seed={}", i % MISS_SPECS), false)
}

/// The ranked templates, rank 1 first. `None` is the slot of the miss class,
/// whose requests differ from one to the next.
///
/// The ranks are chosen so that:
/// - `social` hits hold ranks 1 to 3 and 59 % of the trace, so that the
///   median request is a `social` hit and sits inside that mode, not on the
///   boundary to the cheaper `road` hits;
/// - requests answered from the permutation cache are 90 % of the trace;
/// - the slow classes, `stats_heavy` and `reorder_miss`, are 4.9 %, and
///   `stats_heavy` alone is 2.1 %, so that the 99th percentile sits in the
///   middle of the `stats_heavy` replies.
pub fn ranked() -> Vec<Option<Template>> {
    let measure = |graph: &str| Template {
        class: "measure",
        label: format!("measure {graph}"),
        request: OpRequest::Measure { source: corpus(graph), schemes: hot_schemes() },
    };
    let compression = |graph: &str| Template {
        class: "compression",
        label: format!("compression {graph}"),
        request: OpRequest::Compression { source: corpus(graph), schemes: hot_schemes() },
    };
    let memsim = |graph: &str| Template {
        class: "memsim",
        label: format!("memsim {graph} pagerank"),
        request: OpRequest::Memsim {
            source: corpus(graph),
            scheme: None,
            workload: "pagerank".into(),
            kernel: None,
        },
    };
    let stats = |class: &'static str, graph: &str| Template {
        class,
        label: format!("stats {graph}"),
        request: OpRequest::Stats { source: corpus(graph) },
    };
    vec![
        Some(reorder("reorder_hit", "social", "rcm", false)),
        Some(reorder("reorder_hit", "social", "dbg", false)),
        Some(reorder("reorder_hit", "social", "degree", false)),
        Some(reorder("reorder_hit", "road", "rcm", false)),
        Some(reorder("reorder_hit", "road", "dbg", false)),
        Some(reorder("reorder_hit", "road", "degree", false)),
        Some(reorder("reorder_hit", "road", "hubsort-dbg", false)),
        Some(reorder("reorder_hit", "social", "hubsort-dbg", false)),
        None,
        Some(measure("road")),
        Some(reorder("reorder_perm", "road", "dbg", true)),
        Some(stats("stats_heavy", "social")),
        Some(compression("road")),
        Some(measure("social")),
        Some(stats("stats_light", "road")),
        Some(reorder("reorder_perm", "social", "rcm", true)),
        Some(memsim("road")),
        Some(compression("social")),
        Some(memsim("social")),
    ]
}

/// How many of `total` requests each rank gets: proportional to 1 / r^s,
/// rounded by largest remainder, ties to the better rank.
pub fn counts(ranks: usize, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=ranks).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..ranks).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let left = total - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(left) {
        counts[r] += 1;
    }
    counts
}

/// The trace: for each request, the rank slot it came from. The seed decides
/// the order only.
pub fn trace(ranks: usize, total: usize, seed: u64) -> Vec<usize> {
    let mut slots: Vec<usize> = counts(ranks, total)
        .iter()
        .enumerate()
        .flat_map(|(r, &c)| std::iter::repeat_n(r, c))
        .collect();
    SplitMix64::new(seed ^ 0x7a69_7066).shuffle(&mut slots);
    slots
}

/// Prints the class → template → rank table, and the shares the workload is
/// built for. Returns `(cache-hit share, slow share)`.
pub fn print_table(templates: &[Option<Template>], counts: &[usize]) -> (f64, f64) {
    let total: usize = counts.iter().sum();
    println!("trace: {total} requests, zipf s={ZIPF_S} over {} ranked templates", templates.len());
    println!("  {:<14} {:<32} {:>4} {:>7} {:>7}", "class", "template", "rank", "count", "share");
    let (mut cached, mut slow) = (0usize, 0usize);
    for (r, (template, &count)) in templates.iter().zip(counts).enumerate() {
        let (class, label) = match template {
            Some(t) => (t.class, t.label.clone()),
            None => ("reorder_miss", format!("reorder road random:seed=i, {MISS_SPECS} specs")),
        };
        println!(
            "  {:<14} {:<32} {:>4} {:>7} {:>6.2}%",
            class,
            label,
            r + 1,
            count,
            100.0 * count as f64 / total as f64
        );
        if matches!(class, "reorder_hit" | "reorder_perm" | "measure" | "compression") {
            cached += count;
        }
        if matches!(class, "stats_heavy" | "reorder_miss") {
            slow += count;
        }
    }
    let share = |x: usize| x as f64 / total as f64;
    println!(
        "  answered from the permutation cache: {:.1} %; slow classes (stats_heavy + reorder_miss): {:.1} %",
        100.0 * share(cached),
        100.0 * share(slow)
    );
    (share(cached), share(slow))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_exact_and_follow_the_ranks() {
        for total in [100, 1000, 1080, 2000] {
            let c = counts(19, total);
            assert_eq!(c.iter().sum::<usize>(), total);
            assert!(c.windows(2).all(|w| w[0] >= w[1]), "{c:?}");
            assert!(c.iter().all(|&x| x >= 1), "every template appears: {c:?}");
        }
        // 1 / r^1.1 over two ranks: 1 to 0.4665.
        assert_eq!(counts(2, 1000), vec![682, 318]);
    }

    #[test]
    fn the_seed_moves_the_order_and_not_the_counts() {
        let (a, b) = (trace(19, 1000, 1), trace(19, 1000, 2));
        assert_ne!(a, b);
        assert_eq!(a, trace(19, 1000, 1));
        let histogram = |t: &[usize]| {
            let mut h = vec![0usize; 19];
            t.iter().for_each(|&r| h[r] += 1);
            h
        };
        assert_eq!(histogram(&a), histogram(&b));
        assert_eq!(histogram(&a), counts(19, 1000));
    }

    #[test]
    fn the_shares_the_workload_is_built_for_hold() {
        let templates = ranked();
        for total in [1000, 2000] {
            let (cached, slow) = print_table(&templates, &counts(templates.len(), total));
            assert!(cached >= 0.8, "{cached}");
            assert!((0.04..=0.06).contains(&slow), "{slow}");
        }
        let classes: std::collections::BTreeSet<&str> =
            templates.iter().map(|t| t.as_ref().map_or("reorder_miss", |t| t.class)).collect();
        assert_eq!(classes.len(), crate::metrics::CLASSES.len());
        assert!(crate::metrics::CLASSES.iter().all(|c| classes.contains(c)));
    }

    #[test]
    fn miss_specs_cycle_and_lines_end_in_a_newline() {
        assert_eq!(miss(3).line(), miss(3 + MISS_SPECS).line());
        assert_ne!(miss(3).line(), miss(4).line());
        assert!(miss(0).line().ends_with("}\n"));
        assert_eq!(miss(0).graph(), "road");
    }
}
