//! BIC-based model selection over the number of mixture components.

use std::ops::RangeInclusive;

use rand::Rng;

use crate::{EmConfig, FitGmmError, Gmm1d};

/// Result of BIC model selection: the winning model and the score table.
#[derive(Debug, Clone, PartialEq)]
pub struct BicFit<M> {
    /// The model with the lowest BIC.
    pub model: M,
    /// `(k, bic)` for every candidate component count that could be fit.
    pub scores: Vec<(usize, f64)>,
}

impl<M> BicFit<M> {
    /// The component count that won selection.
    pub fn chosen_k(&self) -> usize {
        self.scores
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|&(k, _)| k)
            .unwrap_or(0)
    }
}

/// Fits 1-D mixtures for every `k` in `k_range` and returns the one with the
/// lowest BIC (paper §5.3: "the model with the lowest BIC value is typically
/// selected as the best model").
///
/// Candidate `k`s that exceed the data size are skipped; at least one
/// candidate must be fittable.
///
/// # Errors
///
/// Returns [`FitGmmError`] if no candidate can be fit (empty range, empty
/// data, or non-finite data).
pub fn fit_bic_1d(
    data: &[f64],
    k_range: RangeInclusive<usize>,
    config: &EmConfig,
    rng: &mut impl Rng,
) -> Result<BicFit<Gmm1d>, FitGmmError> {
    let mut best: Option<(f64, Gmm1d)> = None;
    let mut scores = Vec::new();
    let mut last_err = FitGmmError::ZeroComponents;
    for k in k_range {
        match Gmm1d::fit(data, k, config, rng) {
            Ok(model) => {
                let bic = model.bic(data);
                scores.push((k, bic));
                if best.as_ref().is_none_or(|(b, _)| bic < *b) {
                    best = Some((bic, model));
                }
            }
            Err(e) => last_err = e,
        }
    }
    match best {
        Some((_, model)) => Ok(BicFit { model, scores }),
        None => Err(last_err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trimodal() -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(17);
        let mut data = Vec::new();
        for _ in 0..120 {
            data.push(0.0 + rng.gen_range(-0.3..0.3));
            data.push(10.0 + rng.gen_range(-0.3..0.3));
            data.push(25.0 + rng.gen_range(-0.3..0.3));
        }
        data
    }

    #[test]
    fn bic_selects_three_components_for_trimodal_data() {
        let data = trimodal();
        let mut rng = StdRng::seed_from_u64(0);
        let fit = fit_bic_1d(&data, 1..=5, &EmConfig::default(), &mut rng).unwrap();
        assert_eq!(fit.chosen_k(), 3, "scores: {:?}", fit.scores);
        assert_eq!(fit.model.num_components(), 3);
    }

    #[test]
    fn bic_selects_one_component_for_gaussian_data() {
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<f64> = (0..300)
            .map(|_| {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect();
        let fit = fit_bic_1d(&data, 1..=4, &EmConfig::default(), &mut rng).unwrap();
        assert_eq!(fit.chosen_k(), 1, "scores: {:?}", fit.scores);
    }

    #[test]
    fn oversized_candidates_are_skipped() {
        let data = vec![1.0, 2.0, 3.0];
        let mut rng = StdRng::seed_from_u64(2);
        let fit = fit_bic_1d(&data, 1..=10, &EmConfig::default(), &mut rng).unwrap();
        assert!(fit.scores.iter().all(|&(k, _)| k <= 3));
    }

    #[test]
    fn empty_data_is_an_error() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(fit_bic_1d(&[], 1..=3, &EmConfig::default(), &mut rng).is_err());
    }
}
