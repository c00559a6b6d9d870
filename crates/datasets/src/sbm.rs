//! Stochastic block model (planted partition) generator.
//!
//! Community-detection experiments need graphs whose ground-truth community
//! structure is known and whose strength is tunable — the planted-partition
//! model provides exactly that: `k` blocks with intra-block edge probability
//! `p_in` and inter-block probability `p_out`. With `p_in ≫ p_out` Louvain
//! should recover the blocks; as they approach each other the structure
//! (and the benefit of community-based reordering) dissolves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reorderlab_graph::{Csr, GraphBuilder};

/// A planted-partition graph together with its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedPartition {
    /// The generated graph.
    pub graph: Csr,
    /// Ground-truth block of every vertex.
    pub blocks: Vec<u32>,
    /// Number of blocks `k`.
    pub num_blocks: usize,
}

/// Generates a stochastic block model graph: `k` equal blocks over `n`
/// vertices, each intra-block pair connected with probability `p_in` and
/// each inter-block pair with probability `p_out`.
///
/// Edge sampling uses geometric skipping, so generation costs
/// `O(n + m)` rather than `O(n²)`.
///
/// # Panics
///
/// Panics if `k == 0` or `k > n`, or if the probabilities are outside
/// `[0, 1]`.
///
/// # Examples
///
/// ```
/// use reorderlab_datasets::stochastic_block_model;
///
/// let pp = stochastic_block_model(200, 4, 0.2, 0.01, 7);
/// assert_eq!(pp.num_blocks, 4);
/// assert_eq!(pp.blocks.len(), 200);
/// ```
pub fn stochastic_block_model(
    n: usize,
    k: usize,
    p_in: f64,
    p_out: f64,
    seed: u64,
) -> PlantedPartition {
    assert!(k >= 1 && k <= n.max(1), "need 1..=n blocks");
    assert!((0.0..=1.0).contains(&p_in), "p_in must be a probability");
    assert!((0.0..=1.0).contains(&p_out), "p_out must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    // Round-robin block assignment keeps blocks equal-sized without
    // correlating block and id range (the collection-order property is the
    // jitter's job elsewhere; here interleaving also exercises reordering).
    let blocks: Vec<u32> = (0..n as u32).map(|v| v % k as u32).collect();

    let mut edges: Vec<(u32, u32)> = Vec::new();
    // Geometric skipping at the envelope rate p_max over the linearized
    // strictly-upper-triangular pair space, thinned to the landed pair's
    // actual class probability — O(n + m) regardless of n².
    let total_pairs = n as u64 * (n as u64 - 1) / 2;
    let p_max = p_in.max(p_out);
    if p_max > 0.0 {
        let mut cursor = 0u64;
        while cursor < total_pairs {
            if p_max < 1.0 {
                // Failures before the next envelope success.
                let r: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let skip = (r.ln() / (1.0 - p_max).ln()).floor() as u64;
                cursor = cursor.saturating_add(skip);
                if cursor >= total_pairs {
                    break;
                }
            }
            let (u, v) = unrank_pair(cursor, n as u64);
            let p_here = if blocks[u as usize] == blocks[v as usize] { p_in } else { p_out };
            // Thinning: envelope hits survive with probability p/p_max.
            if p_here >= p_max || rng.gen::<f64>() < p_here / p_max {
                edges.push((u, v));
            }
            cursor += 1;
        }
    }

    let graph = GraphBuilder::undirected(n).edges(edges).build_expect();
    PlantedPartition { graph, blocks, num_blocks: k }
}

/// Maps a linear index in `[0, n(n-1)/2)` to the corresponding strictly
/// upper-triangular pair `(u, v)`, `u < v`.
fn unrank_pair(index: u64, n: u64) -> (u32, u32) {
    // Row u owns (n - 1 - u) pairs. Find u by solving the triangular sum.
    // cumulative(u) = u*n - u*(u+1)/2 pairs precede row u.
    let mut lo = 0u64;
    let mut hi = n - 1;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        let before = mid * n - mid * (mid + 1) / 2;
        if before <= index {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let u = lo;
    let before = u * n - u * (u + 1) / 2;
    let v = u + 1 + (index - before);
    (u as u32, v as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unrank_covers_all_pairs() {
        let n = 7u64;
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..(n * (n - 1) / 2) {
            let (u, v) = unrank_pair(i, n);
            assert!(u < v && (v as u64) < n, "bad pair ({u},{v}) at {i}");
            assert!(seen.insert((u, v)), "duplicate pair at {i}");
        }
        assert_eq!(seen.len() as u64, n * (n - 1) / 2);
    }

    #[test]
    fn block_sizes_are_balanced() {
        let pp = stochastic_block_model(100, 4, 0.1, 0.01, 1);
        let mut counts = [0usize; 4];
        for &b in &pp.blocks {
            counts[b as usize] += 1;
        }
        assert_eq!(counts, [25, 25, 25, 25]);
    }

    #[test]
    fn edge_density_tracks_probabilities() {
        let n = 400;
        let k = 4;
        let pp = stochastic_block_model(n, k, 0.2, 0.01, 3);
        let (mut intra, mut inter) = (0usize, 0usize);
        for (u, v, _) in pp.graph.edges() {
            if pp.blocks[u as usize] == pp.blocks[v as usize] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        // Expected pairs: intra = k * C(100,2) = 4*4950 = 19800 -> ~3960
        // edges; inter = C(400,2) - 19800 = 60000 -> ~600 edges.
        let intra_rate = intra as f64 / 19_800.0;
        let inter_rate = inter as f64 / 60_000.0;
        assert!((intra_rate - 0.2).abs() < 0.03, "intra rate {intra_rate}");
        assert!((inter_rate - 0.01).abs() < 0.005, "inter rate {inter_rate}");
    }

    #[test]
    fn strong_structure_is_detectable() {
        use reorderlab_graph::Components;
        let pp = stochastic_block_model(300, 3, 0.25, 0.002, 9);
        assert!(pp.graph.num_edges() > 1000);
        // Most vertices connect (the intra blocks are dense).
        let c = Components::find(&pp.graph);
        assert!(c.sizes().iter().max().unwrap() > &250);
    }

    #[test]
    fn p_zero_and_one_degenerate() {
        let empty = stochastic_block_model(30, 3, 0.0, 0.0, 5);
        assert_eq!(empty.graph.num_edges(), 0);
        let full_intra = stochastic_block_model(30, 3, 1.0, 0.0, 5);
        // 3 blocks of 10: 3 * C(10,2) = 135 intra edges, no inter.
        assert_eq!(full_intra.graph.num_edges(), 135);
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            stochastic_block_model(120, 4, 0.15, 0.01, 11),
            stochastic_block_model(120, 4, 0.15, 0.01, 11)
        );
    }

    #[test]
    #[should_panic(expected = "blocks")]
    fn rejects_zero_blocks() {
        let _ = stochastic_block_model(10, 0, 0.1, 0.1, 0);
    }
}
