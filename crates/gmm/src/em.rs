//! Shared EM configuration and error type.

use std::fmt;

/// Configuration for expectation-maximization fitting.
///
/// The defaults follow common practice (and scikit-learn's defaults, which
/// the paper's open-source implementation relies on): up to 100 iterations,
/// convergence when the per-sample log-likelihood improves by less than
/// `tol`, and a small variance floor for numerical robustness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmConfig {
    /// Maximum EM iterations per restart.
    pub max_iters: usize,
    /// Convergence threshold on the change in mean log-likelihood.
    pub tol: f64,
    /// Absolute lower bound applied to every variance estimate.
    pub variance_floor: f64,
    /// Relative lower bound: every component variance is at least this
    /// fraction of the overall data variance. Prevents near-singular
    /// components on small samples, which would make out-of-sample NLLs
    /// explode (sklearn's `reg_covar` plays the same role).
    pub relative_floor: f64,
    /// Independent k-means++-seeded restarts; the best likelihood wins.
    pub restarts: usize,
}

impl Default for EmConfig {
    fn default() -> Self {
        Self {
            max_iters: 100,
            tol: 1e-6,
            variance_floor: 1e-9,
            relative_floor: 5e-3,
            restarts: 3,
        }
    }
}

/// Error produced when a GMM cannot be fit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitGmmError {
    /// Fewer data points than mixture components.
    NotEnoughData {
        /// Points provided.
        points: usize,
        /// Components requested.
        components: usize,
    },
    /// Zero components requested.
    ZeroComponents,
    /// The data contained NaN or infinity.
    NonFiniteData,
}

impl fmt::Display for FitGmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotEnoughData { points, components } => write!(
                f,
                "cannot fit {components} components to {points} data points"
            ),
            Self::ZeroComponents => write!(f, "a mixture needs at least one component"),
            Self::NonFiniteData => write!(f, "data contains NaN or infinite values"),
        }
    }
}

impl std::error::Error for FitGmmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = EmConfig::default();
        assert!(cfg.max_iters >= 10);
        assert!(cfg.tol > 0.0);
        assert!(cfg.variance_floor > 0.0);
        assert!(cfg.restarts >= 1);
    }

    #[test]
    fn errors_render_helpful_messages() {
        let e = FitGmmError::NotEnoughData {
            points: 2,
            components: 5,
        };
        assert!(e.to_string().contains("5 components"));
        assert!(FitGmmError::ZeroComponents
            .to_string()
            .contains("at least one"));
    }
}
