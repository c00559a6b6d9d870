//! Baseline orderings: the natural (input) order and a seeded random
//! shuffle. The paper includes both in its 11-scheme evaluation as the
//! "do nothing" and "destroy everything" reference points.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reorderlab_graph::{Csr, Permutation};

/// The natural ordering: the identity permutation (paper §II).
///
/// # Examples
///
/// ```
/// use reorderlab_core::schemes::natural_order;
/// use reorderlab_datasets::path;
///
/// let pi = natural_order(&path(4));
/// assert!(pi.is_identity());
/// ```
pub fn natural_order(graph: &Csr) -> Permutation {
    Permutation::identity(graph.num_vertices())
}

/// A uniformly random ordering (Fisher–Yates with a seeded generator).
pub fn random_order(graph: &Csr, seed: u64) -> Permutation {
    let n = graph.num_vertices();
    let mut rng = StdRng::seed_from_u64(seed);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let mut ranks: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        ranks.swap(i, j);
    }
    Permutation::from_ranks_unchecked(ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::{erdos_renyi_gnm, path};

    #[test]
    fn natural_is_identity() {
        let g = path(10);
        assert!(natural_order(&g).is_identity());
    }

    #[test]
    fn random_is_valid_permutation() {
        let g = erdos_renyi_gnm(50, 100, 1);
        let pi = random_order(&g, 42);
        assert_eq!(pi.len(), 50);
        // from_ranks validates; round-trip through it must succeed.
        assert!(Permutation::from_ranks(pi.ranks().to_vec()).is_ok());
    }

    #[test]
    fn random_deterministic_per_seed() {
        let g = path(30);
        assert_eq!(random_order(&g, 7), random_order(&g, 7));
        assert_ne!(random_order(&g, 7), random_order(&g, 8));
    }

    #[test]
    fn random_actually_shuffles() {
        let g = path(100);
        assert!(!random_order(&g, 3).is_identity());
    }

    #[test]
    fn empty_graph() {
        let g = reorderlab_graph::GraphBuilder::undirected(0).build().unwrap();
        assert!(natural_order(&g).is_empty());
        assert!(random_order(&g, 0).is_empty());
    }
}
