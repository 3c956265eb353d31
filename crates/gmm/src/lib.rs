//! Gaussian mixture models fit by expectation-maximization, with BIC model
//! selection — the statistical core of the AdvHunter detector (paper §3,
//! §5.3, Algorithm 1).
//!
//! The detector models each (output-category, HPC-event) pair with a 1-D GMM
//! ([`Gmm1d`]) whose component count is chosen by the Bayesian Information
//! Criterion ([`fit_bic_1d`]).
//!
//! # Example
//!
//! ```
//! use advhunter_gmm::{fit_bic_1d, EmConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! // Two well-separated modes.
//! let data: Vec<f64> = (0..50)
//!     .map(|i| if i % 2 == 0 { i as f64 * 1e-3 } else { 10.0 + i as f64 * 1e-3 })
//!     .collect();
//! let fit = fit_bic_1d(&data, 1..=4, &EmConfig::default(), &mut rng)?;
//! assert_eq!(fit.model.num_components(), 2);
//! # Ok::<(), advhunter_gmm::FitGmmError>(())
//! ```

mod em;
mod select;
mod univariate;

pub use em::{EmConfig, FitGmmError};
pub use select::{fit_bic_1d, BicFit};
pub use univariate::Gmm1d;

/// Natural log of 2π, used by the Gaussian density.
pub(crate) const LN_2PI: f64 = 1.837_877_066_409_345_5;

/// Numerically stable `log(Σ exp(x_i))`.
pub(crate) fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() {
        return m;
    }
    m + xs.iter().map(|&x| (x - m).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_exp_matches_naive_on_small_values() {
        let xs = [0.0f64, 1.0, -2.0];
        let naive = xs.iter().map(|x| x.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_survives_large_magnitudes() {
        let xs = [-1000.0, -1000.5];
        let v = log_sum_exp(&xs);
        assert!(v.is_finite());
        assert!((v - (-1000.0 + (1.0 + (-0.5f64).exp()).ln())).abs() < 1e-9);
    }

    #[test]
    fn log_sum_exp_of_empty_is_neg_infinity() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }
}
