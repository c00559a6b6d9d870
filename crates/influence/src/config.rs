//! IMM configuration and diffusion-model selection.

/// The diffusion process simulated during sampling (paper §VI-C: Ripples
/// supports both; the evaluation focuses on IC, "the more computationally
/// challenging").
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum DiffusionModel {
    /// Independent Cascade with a uniform edge probability (the paper's
    /// setting; it reports results for `p = 0.25`).
    IndependentCascade {
        /// Per-edge activation probability.
        probability: f64,
    },
    /// Independent Cascade in the *weighted cascade* parameterization:
    /// `p(u → v) = 1 / indegree(v)`.
    WeightedCascade,
    /// Linear Threshold with uniform edge weights `1 / indegree(v)`.
    LinearThreshold,
}

impl DiffusionModel {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            DiffusionModel::IndependentCascade { .. } => "IC",
            DiffusionModel::WeightedCascade => "WC",
            DiffusionModel::LinearThreshold => "LT",
        }
    }
}

/// Configuration for [`imm`](crate::imm).
#[derive(Debug, Clone, PartialEq)]
pub struct ImmConfig {
    /// Number of seeds to select.
    pub k: usize,
    /// Approximation parameter ε of the `(1 − 1/e − ε)` guarantee.
    pub epsilon: f64,
    /// Failure-probability exponent ℓ (guarantee holds with probability
    /// `1 − 1/n^ℓ`).
    pub ell: f64,
    /// Diffusion model simulated by the sampler.
    pub model: DiffusionModel,
    /// RNG seed; RR set `i` uses a generator derived from `(seed, i)`, so
    /// results are independent of how many workers draw the sets.
    pub seed: u64,
}

impl ImmConfig {
    /// A configuration selecting `k` seeds with default accuracy
    /// (`ε = 0.5`, `ℓ = 1`, IC with `p = 0.25` — the paper's setting).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one seed");
        ImmConfig {
            k,
            epsilon: 0.5,
            ell: 1.0,
            model: DiffusionModel::IndependentCascade { probability: 0.25 },
            seed: 0,
        }
    }

    /// Sets ε.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ε < 1`.
    pub fn epsilon(mut self, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "epsilon must be in (0, 1)");
        self.epsilon = eps;
        self
    }

    /// Sets the diffusion model.
    ///
    /// # Panics
    ///
    /// Panics if an IC probability is outside `(0, 1]`.
    pub fn model(mut self, model: DiffusionModel) -> Self {
        if let DiffusionModel::IndependentCascade { probability } = model {
            assert!(probability > 0.0 && probability <= 1.0, "IC probability must be in (0, 1]");
        }
        self.model = model;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ImmConfig::new(10);
        assert_eq!(c.k, 10);
        assert_eq!(c.model, DiffusionModel::IndependentCascade { probability: 0.25 });
        assert_eq!(c.epsilon, 0.5);
    }

    #[test]
    fn builder_chains() {
        let c = ImmConfig::new(5).epsilon(0.3).model(DiffusionModel::WeightedCascade).seed(9);
        assert_eq!(c.epsilon, 0.3);
        assert_eq!(c.model, DiffusionModel::WeightedCascade);
    }

    #[test]
    fn model_names() {
        assert_eq!(DiffusionModel::IndependentCascade { probability: 0.1 }.name(), "IC");
        assert_eq!(DiffusionModel::WeightedCascade.name(), "WC");
        assert_eq!(DiffusionModel::LinearThreshold.name(), "LT");
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn rejects_zero_k() {
        let _ = ImmConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_probability() {
        let _ = ImmConfig::new(1).model(DiffusionModel::IndependentCascade { probability: 1.5 });
    }
}
