//! Output checks. Each runs outside the timed region, and an operation whose
//! check fails counts as a failed operation. Every check is a plain function
//! of the outputs, so the self-tests below can feed each one a bad value and
//! see it trip.

use reorderlab_community::{modularity, CommunityResult};
use reorderlab_graph::{csr_digest, Csr, Permutation};
use reorderlab_influence::ImmResult;
use reorderlab_kernels::PageRankResult;
use reorderlab_ops::OpReport;
use reorderlab_serve::Response;
use reorderlab_trace::Manifest;

pub type Check = Result<(), String>;

/// π is a bijection on `0..n`.
pub fn permutation(ranks: &[u32], n: usize) -> Check {
    if ranks.len() != n {
        return Err(format!("permutation covers {} of {n} vertices", ranks.len()));
    }
    Permutation::from_ranks(ranks.to_vec())
        .map(|_| ())
        .map_err(|e| format!("not a permutation: {e}"))
}

pub fn sorted_degrees(graph: &Csr) -> Vec<usize> {
    let mut d: Vec<usize> = (0..graph.num_vertices() as u32).map(|v| graph.degree(v)).collect();
    d.sort_unstable();
    d
}

/// The relabelled graph keeps n, the arcs and the sorted degree multiset.
pub fn relabelled(
    original_sorted_degrees: &[usize],
    original_arcs: usize,
    permuted: &Csr,
) -> Check {
    if permuted.num_vertices() != original_sorted_degrees.len() {
        return Err(format!(
            "relabelling changed n: {} -> {}",
            original_sorted_degrees.len(),
            permuted.num_vertices()
        ));
    }
    if permuted.num_arcs() != original_arcs {
        return Err(format!(
            "relabelling changed arcs: {original_arcs} -> {}",
            permuted.num_arcs()
        ));
    }
    if sorted_degrees(permuted) != original_sorted_degrees {
        return Err("relabelling changed the degree multiset".into());
    }
    Ok(())
}

/// The container read back holds the graph that was written.
pub fn container(written: &Csr, reread: &Csr) -> Check {
    let (a, b) = (csr_digest(written), csr_digest(reread));
    if a != b {
        return Err(format!("container digest {b:016x} differs from the written graph's {a:016x}"));
    }
    Ok(())
}

/// Scores sum to 1 ± 1e-9 and match the natural-order run mapped through π
/// within 1e-6.
pub fn pagerank(result: &PageRankResult, natural: &PageRankResult, ranks: &[u32]) -> Check {
    let sum: f64 = result.scores.iter().sum();
    if (sum - 1.0).abs() > 1e-9 {
        return Err(format!("pagerank scores sum to {sum}"));
    }
    if result.scores.len() != natural.scores.len() || ranks.len() != natural.scores.len() {
        return Err("pagerank score count differs from the natural-order run".into());
    }
    for (v, &want) in natural.scores.iter().enumerate() {
        let got = result.scores[ranks[v] as usize];
        if (got - want).abs() > 1e-6 {
            return Err(format!("pagerank of vertex {v} is {got}, natural order gives {want}"));
        }
    }
    Ok(())
}

/// The reported modularity is the modularity of the reported assignment
/// within 1e-9, and at least the natural-order value, where one is given,
/// less 0.02.
pub fn louvain(graph: &Csr, result: &CommunityResult, natural_modularity: Option<f64>) -> Check {
    if result.assignment.len() != graph.num_vertices() {
        return Err("louvain assignment does not cover the graph".into());
    }
    let recomputed = modularity(graph, &result.assignment);
    if (recomputed - result.modularity).abs() > 1e-9 {
        return Err(format!(
            "louvain reports Q={} but its assignment has Q={recomputed}",
            result.modularity
        ));
    }
    match natural_modularity {
        Some(natural) if result.modularity < natural - 0.02 => {
            Err(format!("louvain Q={} is below natural order's {natural}", result.modularity))
        }
        _ => Ok(()),
    }
}

/// `k` distinct seeds, and an estimate within (1 ± ε) of the natural-order
/// run's, where one is given.
pub fn imm(
    result: &ImmResult,
    k: usize,
    n: usize,
    epsilon: f64,
    natural_estimate: Option<f64>,
) -> Check {
    let mut seeds = result.seeds.clone();
    seeds.sort_unstable();
    seeds.dedup();
    if seeds.len() != k.min(n) || seeds.iter().any(|&s| s as usize >= n) {
        return Err(format!("imm chose {} distinct valid seeds, wanted {}", seeds.len(), k.min(n)));
    }
    let Some(natural) = natural_estimate else { return Ok(()) };
    let (lo, hi) = ((1.0 - epsilon) * natural, (1.0 + epsilon) * natural);
    if !(lo..=hi).contains(&result.influence_estimate) {
        return Err(format!(
            "imm estimates {} outside [{lo}, {hi}] around natural order's",
            result.influence_estimate
        ));
    }
    Ok(())
}

/// The compressed kernels are bit-identical to the flat ones on the same
/// graph: that is the repository's guarantee.
pub fn pagerank_bit_identical(compressed: &PageRankResult, flat: &PageRankResult) -> Check {
    let same = compressed.iterations == flat.iterations
        && compressed.scores.len() == flat.scores.len()
        && compressed.scores.iter().zip(&flat.scores).all(|(a, b)| a.to_bits() == b.to_bits());
    same.then_some(()).ok_or_else(|| "compressed pagerank differs from flat".to_string())
}

pub fn louvain_bit_identical(compressed: &CommunityResult, flat: &CommunityResult) -> Check {
    let same = compressed.assignment == flat.assignment
        && compressed.modularity.to_bits() == flat.modularity.to_bits()
        && compressed.stats.total_iterations() == flat.stats.total_iterations();
    same.then_some(()).ok_or_else(|| "compressed louvain differs from flat".to_string())
}

pub fn imm_bit_identical(compressed: &ImmResult, flat: &ImmResult) -> Check {
    let same = compressed.seeds == flat.seeds
        && compressed.influence_estimate.to_bits() == flat.influence_estimate.to_bits()
        && compressed.stats.rr_sets == flat.stats.rr_sets
        && compressed.stats.edges_examined == flat.stats.edges_examined;
    same.then_some(()).ok_or_else(|| "compressed imm differs from flat".to_string())
}

/// A reply in the timed region: one complete line with `status: ok`.
pub fn reply_ok(line: &str) -> Check {
    if line.starts_with("{\"status\":\"ok\"") && line.ends_with("}\n") {
        Ok(())
    } else {
        let head: String = line.chars().take(80).collect();
        Err(format!("reply is not a complete ok line: {head:?}"))
    }
}

/// The report with every field that holds a time, or that tells a cached
/// from a computed ordering, blanked. The manifests go whole: their
/// measures repeat the typed fields and the rest is phase timings.
fn without_timing(mut report: OpReport) -> OpReport {
    let blank = || Manifest::new("", "", 0, 0);
    match &mut report {
        OpReport::Stats(s) => s.manifest = blank(),
        OpReport::Reorder(r) => {
            r.wall_s = 0.0;
            r.cache_hit = false;
            r.manifest = blank();
        }
        OpReport::Measure(m) => m.rows.iter_mut().for_each(|row| row.manifest = blank()),
        OpReport::Compression(c) => c.rows.iter_mut().for_each(|row| row.manifest = blank()),
        OpReport::Validate(v) => v.files.iter_mut().for_each(|f| f.manifest = blank()),
        OpReport::Memsim(_) => {}
    }
    report
}

/// Cuts the `permutation` string out of a reply line and returns the line
/// without it, and the text. `Json::parse` is quadratic in the length of a
/// string, and takes 6 to 8 s on a `return_perm` reply of 0.8 MB, so the text
/// is compared as text. It holds digits and `\n` escapes only, and is the
/// last field of the report.
fn split_permutation(line: &str) -> (String, Option<String>) {
    const KEY: &str = ",\"permutation\":\"";
    let Some(at) = line.find(KEY) else { return (line.to_string(), None) };
    let text_at = at + KEY.len();
    let Some(len) = line[text_at..].find('"') else { return (line.to_string(), None) };
    let text = line[text_at..text_at + len].replace("\\n", "\n");
    (format!("{}{}", &line[..at], &line[text_at + len + 1..]), Some(text))
}

/// The first reply for a template parses with `Response::parse`, and equals a
/// local `execute` on the same graph in every non-timing field. Returns the
/// parsed report.
pub fn reply_matches(line: &str, local: &OpReport) -> Result<OpReport, String> {
    let (line, permutation) = split_permutation(line.trim_end());
    let mut report = match Response::parse(&line) {
        Ok(Response::Ok(report)) => *report,
        Ok(Response::Ack(_)) => return Err("reply carries no report".into()),
        Ok(Response::Err(e)) => return Err(format!("daemon answered with an error: {e}")),
        Err(e) => return Err(format!("reply does not parse: {e}")),
    };
    if let OpReport::Reorder(r) = &mut report {
        r.permutation = permutation;
    }
    if without_timing(report.clone()) != without_timing(local.clone()) {
        return Err(format!("daemon's {} report differs from local execution", report.op_name()));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_community::{louvain as run_louvain, LouvainConfig};
    use reorderlab_core::Scheme;
    use reorderlab_datasets::by_name;
    use reorderlab_influence::{imm as run_imm, DiffusionModel, ImmConfig};
    use reorderlab_kernels::{pagerank as run_pagerank, PageRankConfig};
    use reorderlab_ops::{execute, FsResolver, GraphSource, OpRequest};
    use reorderlab_serve::ok_response;

    fn graph() -> Csr {
        by_name("euroroad").unwrap().generate()
    }

    #[test]
    fn a_swapped_rank_trips_the_permutation_check() {
        let g = graph();
        let pi = Scheme::Rcm.reorder(&g);
        assert_eq!(permutation(pi.ranks(), g.num_vertices()), Ok(()));
        let mut bad = pi.ranks().to_vec();
        bad[3] = bad[4]; // rank 4 twice, rank 3 never
        assert!(permutation(&bad, g.num_vertices()).is_err());
        assert!(permutation(&pi.ranks()[1..], g.num_vertices()).is_err());
    }

    #[test]
    fn a_lost_edge_trips_the_relabel_check() {
        let g = graph();
        let pi = Scheme::Rcm.reorder(&g);
        let h = g.permuted(&pi).unwrap();
        assert_eq!(relabelled(&sorted_degrees(&g), g.num_arcs(), &h), Ok(()));
        assert!(relabelled(&sorted_degrees(&g), g.num_arcs() + 2, &h).is_err());
        let other = by_name("pgp").unwrap().generate();
        assert!(relabelled(&sorted_degrees(&g), g.num_arcs(), &other).is_err());
        // Same n and arcs, another degree multiset.
        let mut degrees = sorted_degrees(&g);
        let last = degrees.len() - 1;
        degrees[0] += 1;
        degrees[last] -= 1;
        assert!(relabelled(&degrees, g.num_arcs(), &h).is_err());
    }

    #[test]
    fn another_graph_trips_the_container_check() {
        let g = graph();
        assert_eq!(container(&g, &g.clone()), Ok(()));
        let h = g.permuted(&Scheme::Rcm.reorder(&g)).unwrap();
        assert!(container(&g, &h).is_err());
    }

    #[test]
    fn a_flipped_score_trips_the_pagerank_check() {
        let g = graph();
        let natural = run_pagerank(&g, &PageRankConfig::new());
        let pi = Scheme::Rcm.reorder(&g);
        let result = run_pagerank(&g.permuted(&pi).unwrap(), &PageRankConfig::new());
        assert_eq!(pagerank(&result, &natural, pi.ranks()), Ok(()));
        // Two scores exchanged: the sum holds, the mapping through π does not.
        let (lo, hi) = {
            let order = result.ranking();
            (order[0] as usize, order[order.len() - 1] as usize)
        };
        let mut swapped = result.clone();
        swapped.scores.swap(lo, hi);
        assert!(pagerank(&swapped, &natural, pi.ranks()).unwrap_err().contains("natural order"));
        // One score lost: the sum no longer holds.
        let mut short = result.clone();
        short.scores[lo] = 0.0;
        assert!(pagerank(&short, &natural, pi.ranks()).unwrap_err().contains("sum"));
        // Mapped through the wrong permutation.
        assert!(
            pagerank(&result, &natural, Permutation::identity(g.num_vertices()).ranks()).is_err()
        );
    }

    #[test]
    fn a_moved_vertex_or_a_poor_partition_trips_the_louvain_check() {
        let g = graph();
        let result = run_louvain(&g, &LouvainConfig::default());
        assert_eq!(louvain(&g, &result, Some(result.modularity)), Ok(()));
        let mut moved = result.clone();
        moved.assignment[0] = (moved.assignment[0] + 1) % moved.num_communities as u32;
        assert!(louvain(&g, &moved, None).unwrap_err().contains("assignment has"));
        assert!(louvain(&g, &result, Some(result.modularity + 0.05))
            .unwrap_err()
            .contains("below"));
        assert_eq!(louvain(&g, &result, None), Ok(()));
    }

    #[test]
    fn a_repeated_seed_or_a_far_estimate_trips_the_imm_check() {
        let g = graph();
        let cfg = ImmConfig::new(16).model(DiffusionModel::WeightedCascade).seed(7);
        let result = run_imm(&g, &cfg);
        let n = g.num_vertices();
        assert_eq!(imm(&result, 16, n, 0.5, Some(result.influence_estimate)), Ok(()));
        let mut repeated = result.clone();
        repeated.seeds[1] = repeated.seeds[0];
        assert!(imm(&repeated, 16, n, 0.5, None).unwrap_err().contains("distinct"));
        assert!(imm(&result, 16, n, 0.5, Some(result.influence_estimate * 2.1))
            .unwrap_err()
            .contains("outside"));
        assert!(imm(&result, 16, n, 0.5, Some(result.influence_estimate / 1.6)).is_err());
    }

    #[test]
    fn one_flipped_bit_trips_the_bit_identity_checks() {
        let g = graph();
        let pr = run_pagerank(&g, &PageRankConfig::new());
        assert_eq!(pagerank_bit_identical(&pr, &pr.clone()), Ok(()));
        let mut off = pr.clone();
        off.scores[7] = f64::from_bits(off.scores[7].to_bits() ^ 1);
        assert!(pagerank_bit_identical(&off, &pr).is_err());

        let lv = run_louvain(&g, &LouvainConfig::default());
        assert_eq!(louvain_bit_identical(&lv, &lv.clone()), Ok(()));
        let mut off = lv.clone();
        off.assignment[0] ^= 1;
        assert!(louvain_bit_identical(&off, &lv).is_err());

        let im = run_imm(&g, &ImmConfig::new(4).model(DiffusionModel::WeightedCascade).seed(7));
        assert_eq!(imm_bit_identical(&im, &im.clone()), Ok(()));
        let mut off = im.clone();
        off.stats.edges_examined += 1;
        assert!(imm_bit_identical(&off, &im).is_err());
    }

    #[test]
    fn a_truncated_or_foreign_reply_trips_the_reply_checks() {
        let request = OpRequest::Reorder {
            source: GraphSource::Instance("euroroad".into()),
            scheme: Some("rcm".into()),
            apply_perm: None,
            return_perm: true,
        };
        let local = execute(&request, &FsResolver).unwrap().report;
        let line = format!("{}\n", ok_response(&local));
        assert_eq!(reply_ok(&line), Ok(()));
        assert!(reply_matches(&line, &local).is_ok());
        // Timing fields may differ.
        let OpReport::Reorder(mut later) = local.clone() else { unreachable!() };
        later.wall_s += 1.0;
        later.cache_hit = true;
        assert!(reply_matches(&line, &OpReport::Reorder(later.clone())).is_ok());
        // One rank of the returned permutation changed.
        let OpReport::Reorder(mut moved) = local.clone() else { unreachable!() };
        moved.permutation = moved.permutation.map(|p| p.replacen('1', "2", 1));
        assert!(reply_matches(&line, &OpReport::Reorder(moved)).unwrap_err().contains("differs"));
        // A truncated line.
        let cut = &line[..line.len() / 2];
        assert!(reply_ok(cut).is_err());
        assert!(reply_matches(cut, &local).unwrap_err().contains("parse"));
        // A complete reply for another ordering.
        later.after.avg_gap += 1.0;
        assert!(reply_matches(&line, &OpReport::Reorder(later)).unwrap_err().contains("differs"));
        // An error reply.
        let error = "{\"status\":\"usage\",\"error\":\"no\"}\n";
        assert!(reply_ok(error).is_err());
        assert!(reply_matches(error, &local).unwrap_err().contains("error"));
    }
}
