//! Forward Monte-Carlo estimation of influence spread.
//!
//! IMM's influence estimate comes from *reverse* sampling; the ground-truth
//! check is the definition itself: run the diffusion process forward from
//! the seed set many times and average the cascade sizes. This module
//! provides that estimator (parallel over simulations), used in tests and
//! examples to validate IMM's `(1 − 1/e − ε)` quality end to end.

use crate::config::DiffusionModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use reorderlab_graph::Csr;

/// The outcome of forward spread simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpreadEstimate {
    /// Mean cascade size (vertices activated, seeds included).
    pub mean: f64,
    /// Sample standard deviation of the cascade size.
    pub std_dev: f64,
    /// Number of simulations run.
    pub simulations: usize,
}

/// Estimates the expected spread of `seeds` under `model` by running
/// `simulations` independent forward cascades (parallel, each derived from
/// `(seed, index)` so results are thread-count independent).
///
/// # Panics
///
/// Panics if any seed vertex is out of bounds.
///
/// # Examples
///
/// ```
/// use reorderlab_datasets::star;
/// use reorderlab_influence::{estimate_spread, DiffusionModel};
///
/// let g = star(100);
/// let e = estimate_spread(
///     &g,
///     &[0],
///     DiffusionModel::IndependentCascade { probability: 0.5 },
///     500,
///     7,
/// );
/// // The hub activates ~half its 99 leaves: spread ≈ 1 + 49.5.
/// assert!((e.mean - 50.5).abs() < 5.0, "mean {}", e.mean);
/// ```
pub fn estimate_spread(
    graph: &Csr,
    seeds: &[u32],
    model: DiffusionModel,
    simulations: usize,
    rng_seed: u64,
) -> SpreadEstimate {
    let n = graph.num_vertices();
    for &s in seeds {
        assert!((s as usize) < n, "seed {s} out of bounds");
    }
    if n == 0 || seeds.is_empty() || simulations == 0 {
        return SpreadEstimate { mean: 0.0, std_dev: 0.0, simulations };
    }
    let sizes: Vec<f64> = (0..simulations)
        .into_par_iter()
        .map(|i| {
            let mut rng =
                StdRng::seed_from_u64(rng_seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15));
            simulate_once(graph, seeds, model, &mut rng) as f64
        })
        .collect();
    let mean = sizes.iter().sum::<f64>() / simulations as f64;
    let var = if simulations < 2 {
        0.0
    } else {
        sizes.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (simulations as f64 - 1.0)
    };
    SpreadEstimate { mean, std_dev: var.sqrt(), simulations }
}

/// One forward cascade; returns the number of activated vertices.
fn simulate_once(graph: &Csr, seeds: &[u32], model: DiffusionModel, rng: &mut StdRng) -> usize {
    let n = graph.num_vertices();
    let mut active = vec![false; n];
    let mut frontier: Vec<u32> = Vec::new();
    for &s in seeds {
        if !active[s as usize] {
            active[s as usize] = true;
            frontier.push(s);
        }
    }
    let mut count = frontier.len();
    match model {
        DiffusionModel::IndependentCascade { probability } => {
            while let Some(v) = frontier.pop() {
                for &u in graph.neighbors(v) {
                    if !active[u as usize] && rng.gen::<f64>() < probability {
                        active[u as usize] = true;
                        count += 1;
                        frontier.push(u);
                    }
                }
            }
        }
        DiffusionModel::WeightedCascade => {
            while let Some(v) = frontier.pop() {
                for &u in graph.neighbors(v) {
                    let p = 1.0 / graph.degree(u).max(1) as f64;
                    if !active[u as usize] && rng.gen::<f64>() < p {
                        active[u as usize] = true;
                        count += 1;
                        frontier.push(u);
                    }
                }
            }
        }
        DiffusionModel::LinearThreshold => {
            // Each vertex draws a threshold; activates once the active
            // fraction of its in-neighborhood (uniform weights) exceeds it.
            let thresholds: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
            let mut changed = true;
            while changed {
                changed = false;
                for v in 0..n as u32 {
                    if active[v as usize] {
                        continue;
                    }
                    let deg = graph.degree(v);
                    if deg == 0 {
                        continue;
                    }
                    let live = graph.neighbors(v).iter().filter(|&&u| active[u as usize]).count();
                    if live as f64 / deg as f64 >= thresholds[v as usize] {
                        active[v as usize] = true;
                        count += 1;
                        changed = true;
                    }
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::{clique_chain, path, star};

    fn ic(p: f64) -> DiffusionModel {
        DiffusionModel::IndependentCascade { probability: p }
    }

    #[test]
    fn zero_probability_spread_is_seed_count() {
        let g = star(50);
        let e = estimate_spread(&g, &[0, 3], ic(0.0), 100, 1);
        assert_eq!(e.mean, 2.0);
        assert_eq!(e.std_dev, 0.0);
    }

    #[test]
    fn probability_one_reaches_component() {
        let g = path(20);
        let e = estimate_spread(&g, &[0], ic(1.0), 50, 2);
        assert_eq!(e.mean, 20.0);
    }

    #[test]
    fn star_hub_spread_matches_closed_form() {
        // Hub seed with IC(p): spread = 1 + 99p exactly in expectation.
        let g = star(100);
        let e = estimate_spread(&g, &[0], ic(0.3), 3_000, 3);
        let expected = 1.0 + 99.0 * 0.3;
        let std_error = e.std_dev / (e.simulations as f64).sqrt();
        assert!(
            (e.mean - expected).abs() < 4.0 * std_error.max(0.2),
            "mean {} vs expected {expected} (se {std_error})",
            e.mean,
        );
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // Per-simulation RNG streams are index-derived; results must not
        // depend on rayon's schedule.
        let g = clique_chain(3, 8);
        let a = estimate_spread(&g, &[0], ic(0.2), 200, 5);
        let b = estimate_spread(&g, &[0], ic(0.2), 200, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_seeds_counted_once() {
        let g = path(10);
        let e = estimate_spread(&g, &[4, 4, 4], ic(0.0), 10, 0);
        assert_eq!(e.mean, 1.0);
    }

    #[test]
    fn linear_threshold_spreads_in_cliques() {
        // In a clique, one active member gives each other vertex activation
        // probability 1/(size-1) per threshold draw; spread exceeds 1.
        let g = clique_chain(1, 10);
        let e = estimate_spread(&g, &[0], DiffusionModel::LinearThreshold, 1_000, 9);
        assert!(e.mean > 1.5, "LT should propagate in a clique, mean {}", e.mean);
        assert!(e.mean <= 10.0);
    }

    #[test]
    fn empty_inputs() {
        let g = path(5);
        assert_eq!(estimate_spread(&g, &[], ic(0.5), 100, 0).mean, 0.0);
        assert_eq!(estimate_spread(&g, &[0], ic(0.5), 0, 0).simulations, 0);
    }

    #[test]
    fn imm_estimate_agrees_with_forward_simulation() {
        // End-to-end validation: IMM's reverse-sampling estimate and the
        // forward Monte-Carlo estimate must agree within sampling error.
        use crate::{imm, ImmConfig};
        let g = reorderlab_datasets::barabasi_albert(500, 3, 7);
        let cfg = ImmConfig::new(5).model(ic(0.05)).seed(11);
        let r = imm(&g, &cfg);
        let forward = estimate_spread(&g, &r.seeds, ic(0.05), 2_000, 13);
        let rel = (r.influence_estimate - forward.mean).abs() / forward.mean;
        assert!(
            rel < 0.2,
            "IMM {} vs forward MC {} (rel {rel:.3})",
            r.influence_estimate,
            forward.mean
        );
    }
}
