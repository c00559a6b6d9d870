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
}
