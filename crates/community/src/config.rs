//! Louvain engine configuration.

/// Configuration for the [`louvain`](crate::louvain) engine.
///
/// The defaults match the behaviour the paper describes for Grappolo:
/// iterate within a phase until the modularity gain falls below a threshold,
/// then compact and repeat.
#[derive(Debug, Clone, PartialEq)]
pub struct LouvainConfig {
    /// Stop iterating within a phase once an iteration improves modularity
    /// by less than this.
    pub iteration_gain_threshold: f64,
    /// Stop starting new phases once a phase improves modularity by less
    /// than this.
    pub phase_gain_threshold: f64,
    /// Hard cap on iterations per phase.
    pub max_iterations: usize,
    /// Hard cap on phases.
    pub max_phases: usize,
}

impl LouvainConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        LouvainConfig {
            iteration_gain_threshold: 1e-4,
            phase_gain_threshold: 1e-4,
            max_iterations: 200,
            max_phases: 12,
        }
    }

    /// Sets the per-iteration modularity-gain termination threshold.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or not finite.
    pub fn iteration_gain_threshold(mut self, t: f64) -> Self {
        assert!(t >= 0.0 && t.is_finite(), "threshold must be non-negative");
        self.iteration_gain_threshold = t;
        self
    }

    /// Sets the per-phase modularity-gain termination threshold.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or not finite.
    pub fn phase_gain_threshold(mut self, t: f64) -> Self {
        assert!(t >= 0.0 && t.is_finite(), "threshold must be non-negative");
        self.phase_gain_threshold = t;
        self
    }

    /// Caps the number of iterations per phase.
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n.max(1);
        self
    }

    /// Caps the number of phases.
    pub fn max_phases(mut self, n: usize) -> Self {
        self.max_phases = n.max(1);
        self
    }
}

impl Default for LouvainConfig {
    fn default() -> Self {
        LouvainConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = LouvainConfig::default();
        assert!(c.iteration_gain_threshold > 0.0);
        assert!(c.max_iterations >= 1);
        assert!(c.max_phases >= 1);
    }

    #[test]
    fn builder_chains() {
        let c = LouvainConfig::new()
            .iteration_gain_threshold(1e-6)
            .phase_gain_threshold(1e-5)
            .max_iterations(10)
            .max_phases(3);
        assert_eq!(c.max_iterations, 10);
        assert_eq!(c.max_phases, 3);
        assert_eq!(c.iteration_gain_threshold, 1e-6);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_threshold() {
        let _ = LouvainConfig::new().iteration_gain_threshold(-1.0);
    }

    #[test]
    fn caps_clamped_to_one() {
        let c = LouvainConfig::new().max_iterations(0).max_phases(0);
        assert_eq!(c.max_iterations, 1);
        assert_eq!(c.max_phases, 1);
    }
}
