//! Gradient-based adversarial example attacks against [`advhunter_nn`]
//! models: FGSM, PGD (both L∞) and DeepFool (L2), each in untargeted and
//! targeted variants — the attack matrix of the paper's evaluation (§6).
//!
//! All attacks assume the paper's threat model: a white-box adversary with
//! full gradient access to the victim model. Perturbed images are always
//! clamped back to the valid pixel range `[0, 1]`.
//!
//! # Example
//!
//! ```
//! use advhunter_attacks::{Attack, AttackGoal};
//! use advhunter_nn::{GraphBuilder};
//! use advhunter_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut b = GraphBuilder::new(&[1, 4, 4]);
//! let input = b.input();
//! let f = b.flatten("f", input);
//! b.linear("fc", f, 2, &mut rng);
//! let model = b.build();
//!
//! let x = Tensor::full(&[1, 4, 4], 0.5);
//! let attack = Attack::fgsm(0.1);
//! let adv = attack.perturb(&model, &x, 0, AttackGoal::Untargeted, &mut rng);
//! // L∞ budget respected and pixels stay valid.
//! assert!((&adv - &x).linf_norm() <= 0.1 + 1e-6);
//! assert!(adv.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
//! ```

mod deepfool;
mod eval;
mod fgsm;
mod gradient;
mod mifgsm;
mod nes;
mod pgd;
mod square;

pub use deepfool::DeepFoolParams;
pub use eval::{
    attack_dataset, transfer_attack_dataset, AdversarialExample, AttackOutcome, AttackReport,
};
pub use gradient::{logit_input_gradient, loss_input_gradient};
pub use nes::{perturb_recorded as nes_perturb_recorded, NesParams, NesTrace};
pub use square::SquareParams;

use advhunter_nn::Graph;
use advhunter_tensor::Tensor;
use rand::Rng;

/// What the adversary wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackGoal {
    /// Any misclassification.
    Untargeted,
    /// Misclassification as a specific class.
    Targeted(usize),
}

/// A configured attack.
///
/// Construct via [`Attack::fgsm`], [`Attack::pgd`], or [`Attack::deepfool`],
/// then apply with [`Attack::perturb`].
#[derive(Debug, Clone, PartialEq)]
pub enum Attack {
    /// Fast Gradient Sign Method (single L∞ step).
    Fgsm {
        /// Attack strength ε.
        epsilon: f32,
    },
    /// Projected Gradient Descent (iterated L∞ steps with projection).
    Pgd {
        /// L∞ budget ε.
        epsilon: f32,
        /// Per-step size α.
        alpha: f32,
        /// Number of steps.
        steps: usize,
        /// Start from a random point in the ε-ball.
        random_start: bool,
    },
    /// DeepFool (minimal L2 perturbation toward the nearest boundary).
    DeepFool(DeepFoolParams),
    /// Decision-based (hard-label black-box) square attack.
    Square(SquareParams),
    /// Score-based black-box NES attack (Ilyas et al., ICML 2018): the
    /// iterative query-based adversary the fingerprint defense targets.
    Nes(NesParams),
    /// Momentum Iterative FGSM (Dong et al., CVPR 2018).
    MiFgsm {
        /// L∞ budget ε.
        epsilon: f32,
        /// Per-step size α.
        alpha: f32,
        /// Number of steps.
        steps: usize,
        /// Momentum decay μ.
        decay: f32,
    },
}

impl Attack {
    /// FGSM with strength `epsilon`.
    pub fn fgsm(epsilon: f32) -> Self {
        Attack::Fgsm { epsilon }
    }

    /// PGD with budget `epsilon`, the conventional step size `epsilon / 4`,
    /// 10 steps, and random start.
    pub fn pgd(epsilon: f32) -> Self {
        Attack::Pgd {
            epsilon,
            alpha: epsilon / 4.0,
            steps: 10,
            random_start: true,
        }
    }

    /// DeepFool with its original default parameters.
    pub fn deepfool() -> Self {
        Attack::DeepFool(DeepFoolParams::default())
    }

    /// Decision-based square attack with initial magnitude `epsilon` and
    /// default search budgets — notable for needing only hard-label access,
    /// the same access level the defender has.
    pub fn square(epsilon: f32) -> Self {
        Attack::Square(SquareParams {
            epsilon,
            ..SquareParams::default()
        })
    }

    /// NES black-box attack with budget `epsilon` and default search
    /// parameters. Use [`nes_perturb_recorded`] directly to also capture
    /// the full query stream.
    pub fn nes(epsilon: f32) -> Self {
        Attack::Nes(NesParams {
            epsilon,
            ..NesParams::default()
        })
    }

    /// Momentum Iterative FGSM with budget `epsilon`, step `epsilon / 10`,
    /// 10 steps, and the original decay μ = 1.0.
    pub fn mi_fgsm(epsilon: f32) -> Self {
        Attack::MiFgsm {
            epsilon,
            alpha: epsilon / 10.0,
            steps: 10,
            decay: 1.0,
        }
    }

    /// Short name for reports ("FGSM", "PGD", "DeepFool").
    pub fn name(&self) -> &'static str {
        match self {
            Attack::Fgsm { .. } => "FGSM",
            Attack::Pgd { .. } => "PGD",
            Attack::DeepFool(_) => "DeepFool",
            Attack::Square(_) => "Square",
            Attack::Nes(_) => "NES",
            Attack::MiFgsm { .. } => "MI-FGSM",
        }
    }

    /// The attack strength (ε for FGSM/PGD, overshoot for DeepFool) —
    /// used to label sweep plots.
    pub fn strength(&self) -> f32 {
        match self {
            Attack::Fgsm { epsilon } => *epsilon,
            Attack::Pgd { epsilon, .. } => *epsilon,
            Attack::DeepFool(p) => p.overshoot,
            Attack::Square(p) => p.epsilon,
            Attack::Nes(p) => p.epsilon,
            Attack::MiFgsm { epsilon, .. } => *epsilon,
        }
    }

    /// Perturbs one CHW image with the given true label.
    ///
    /// Returns the adversarial image (same shape, clamped to `[0, 1]`). The
    /// attack does not guarantee success; use [`attack_dataset`] to filter
    /// for successful examples the way the paper's evaluation does.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not a single CHW tensor matching the model's
    /// input shape, or a targeted goal names an out-of-range class.
    pub fn perturb(
        &self,
        model: &Graph,
        image: &Tensor,
        true_label: usize,
        goal: AttackGoal,
        rng: &mut impl Rng,
    ) -> Tensor {
        assert_eq!(
            image.shape().dims(),
            model.input_dims(),
            "image shape must match model input"
        );
        match self {
            Attack::Fgsm { epsilon } => fgsm::perturb(model, image, true_label, goal, *epsilon),
            Attack::Pgd {
                epsilon,
                alpha,
                steps,
                random_start,
            } => pgd::perturb(
                model,
                image,
                true_label,
                goal,
                *epsilon,
                *alpha,
                *steps,
                *random_start,
                rng,
            ),
            Attack::DeepFool(params) => deepfool::perturb(model, image, true_label, goal, params),
            Attack::Square(params) => square::perturb(model, image, true_label, goal, params, rng),
            Attack::Nes(params) => nes::perturb(model, image, true_label, goal, params, rng),
            Attack::MiFgsm {
                epsilon,
                alpha,
                steps,
                decay,
            } => mifgsm::perturb(
                model, image, true_label, goal, *epsilon, *alpha, *steps, *decay,
            ),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use advhunter_nn::train::{fit, TrainConfig};
    use advhunter_nn::{Graph, GraphBuilder};
    use advhunter_runtime::Parallelism;
    use advhunter_tensor::{init, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A small trained 3-class model over 1x8x8 images where class k has a
    /// bright k-th quadrant. Returns (model, one test image per class).
    pub fn trained_toy_model() -> (Graph, Vec<Tensor>) {
        let mut rng = StdRng::seed_from_u64(77);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..240 {
            let class = i % 3;
            let mut img = init::normal(&mut rng, &[1, 8, 8], 0.25, 0.05);
            // Brighten one quadrant per class.
            let (y0, x0) = [(0, 0), (0, 4), (4, 0)][class];
            for y in y0..y0 + 4 {
                for x in x0..x0 + 4 {
                    let v = img.at(&[0, y, x]);
                    img.set(&[0, y, x], (v + 0.55).min(1.0));
                }
            }
            img.clamp_inplace(0.0, 1.0);
            images.push(img);
            labels.push(class);
        }
        let mut b = GraphBuilder::new(&[1, 8, 8]);
        let input = b.input();
        let c = b.conv2d("c", input, 6, 3, 1, 1, &mut rng);
        let r = b.relu("r", c);
        let p = b.maxpool("p", r, 2, 2);
        let f = b.flatten("f", p);
        b.linear("fc", f, 3, &mut rng);
        let mut model = b.build();
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 16,
            learning_rate: 3e-3,
            lr_decay: 0.8,
        };
        fit(
            &mut model,
            &images,
            &labels,
            &cfg,
            &Parallelism::available_cores(),
            &mut rng,
        );
        let probes = (0..3).map(|c| images[c].clone()).collect();
        (model, probes)
    }
}
