//! Input-gradient helpers shared by the attacks.

use advhunter_nn::{Graph, Mode};
use advhunter_tensor::ops::cross_entropy_with_logits;
use advhunter_tensor::Tensor;

/// Gradient of the cross-entropy loss `CE(f(x), label)` with respect to a
/// single CHW input image. Also returns the logits.
///
/// Only the input gradient is computed ([`Graph::input_gradient`]), no
/// parameter gradient.
///
/// # Panics
///
/// Panics if `label` is out of range for the model's output.
pub fn loss_input_gradient(model: &Graph, image: &Tensor, label: usize) -> (Tensor, Tensor) {
    let batch = Tensor::stack(std::slice::from_ref(image));
    let trace = model.forward(&batch, Mode::Eval);
    let logits = trace.output().clone();
    let (_, dlogits) = cross_entropy_with_logits(&logits, &[label]);
    let grad = model.input_gradient(&trace, &dlogits);
    (grad.image(0), logits.reshape(&[logits.len()]))
}

/// Gradient of a single logit `f_k(x)` with respect to the input image.
/// Also returns the logits. Used by DeepFool's boundary linearization.
///
/// # Panics
///
/// Panics if `k` is out of range for the model's output.
pub fn logit_input_gradient(model: &Graph, image: &Tensor, k: usize) -> (Tensor, Tensor) {
    let batch = Tensor::stack(std::slice::from_ref(image));
    let trace = model.forward(&batch, Mode::Eval);
    let logits = trace.output().clone();
    let classes = logits.shape().dim(1);
    assert!(
        k < classes,
        "logit index {k} out of range for {classes} classes"
    );
    let mut seed = Tensor::zeros(&[1, classes]);
    seed.data_mut()[k] = 1.0;
    let grad = model.input_gradient(&trace, &seed);
    (grad.image(0), logits.reshape(&[logits.len()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_toy_model;

    #[test]
    fn loss_gradient_points_uphill() {
        let (model, probes) = trained_toy_model();
        let x = &probes[0];
        let (grad, logits) = loss_input_gradient(&model, x, 0);
        assert_eq!(grad.shape().dims(), x.shape().dims());
        assert!(grad.data().iter().any(|&v| v != 0.0));
        assert_eq!(logits.len(), 3);

        // Stepping along the gradient must increase the loss.
        let loss_of = |img: &Tensor| {
            let batch = Tensor::stack(std::slice::from_ref(img));
            let t = model.forward(&batch, advhunter_nn::Mode::Eval);
            advhunter_tensor::ops::cross_entropy_with_logits(t.output(), &[0]).0
        };
        let mut stepped = x.clone();
        stepped.add_scaled(&grad, 1e-2 / grad.l2_norm().max(1e-9));
        assert!(loss_of(&stepped) > loss_of(x));
    }

    #[test]
    fn logit_gradient_raises_that_logit() {
        let (model, probes) = trained_toy_model();
        let x = &probes[1];
        let (grad, logits_before) = logit_input_gradient(&model, x, 2);
        let mut stepped = x.clone();
        stepped.add_scaled(&grad, 1e-2 / grad.l2_norm().max(1e-9));
        let batch = Tensor::stack(std::slice::from_ref(&stepped));
        let logits_after = model.logits(&batch);
        assert!(
            logits_after.data()[2] > logits_before.data()[2],
            "logit 2 should increase"
        );
    }

    /// An S1 block in miniature, untrained: batch norms (differentiated
    /// through their running statistics), a depthwise convolution and a
    /// squeeze-and-excitation branch of linear layers.
    fn s1_like() -> (Graph, Vec<Tensor>) {
        use advhunter_nn::GraphBuilder;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(31);
        let mut b = GraphBuilder::new(&[1, 8, 8]);
        let input = b.input();
        let c = b.conv2d("stem", input, 6, 3, 1, 1, &mut rng);
        let bn = b.batchnorm("stem.bn", c);
        let a = b.silu("stem.act", bn);
        let d = b.dwconv2d("dw", a, 3, 2, 1, &mut rng);
        let bn2 = b.batchnorm("dw.bn", d);
        let a2 = b.silu("dw.act", bn2);
        let gap = b.global_avgpool("se.gap", a2);
        let fc1 = b.linear("se.fc1", gap, 3, &mut rng);
        let act = b.silu("se.act", fc1);
        let fc2 = b.linear("se.fc2", act, 6, &mut rng);
        let gate = b.sigmoid("se.gate", fc2);
        let scaled = b.scale_channels("se.scale", a2, gate);
        let f = b.flatten("flatten", scaled);
        b.linear("fc", f, 3, &mut rng);
        let probes = (0..3)
            .map(|_| advhunter_tensor::init::uniform(&mut rng, &[1, 8, 8], 0.0, 1.0))
            .collect();
        (b.build(), probes)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Both helpers compute the input gradient alone; it is the full
    /// backward pass's, bit for bit.
    #[test]
    fn input_gradients_are_those_of_the_full_backward_pass() {
        for (model, probes) in [trained_toy_model(), s1_like()] {
            for (label, x) in probes.iter().enumerate() {
                let batch = Tensor::stack(std::slice::from_ref(x));
                let trace = model.forward(&batch, Mode::Eval);
                let (_, dlogits) = cross_entropy_with_logits(trace.output(), &[label]);
                let full = model.backward(&trace, &dlogits).input.image(0);
                assert_eq!(bits(&loss_input_gradient(&model, x, label).0), bits(&full));
                let mut seed = Tensor::zeros(trace.output().shape().dims());
                seed.data_mut()[label] = 1.0;
                let full = model.backward(&trace, &seed).input.image(0);
                assert_eq!(bits(&logit_input_gradient(&model, x, label).0), bits(&full));
            }
        }
    }

    /// FGSM and PGD examples on the toy model, pinned by a hash of their
    /// bits taken when the gradient pass still computed every parameter
    /// gradient.
    #[test]
    fn fgsm_and_pgd_examples_are_pinned() {
        use crate::{Attack, AttackGoal};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (model, probes) = trained_toy_model();
        let mut rng = StdRng::seed_from_u64(3);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (label, x) in probes.iter().enumerate() {
            for attack in [Attack::fgsm(0.1), Attack::pgd(0.1)] {
                let adv = attack.perturb(&model, x, label, AttackGoal::Untargeted, &mut rng);
                for v in bits(&adv) {
                    hash = (hash ^ u64::from(v)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(hash, 0x4b92_99ed_ebd3_59ed, "FGSM/PGD examples changed");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn logit_gradient_rejects_bad_class() {
        let (model, probes) = trained_toy_model();
        logit_input_gradient(&model, &probes[0], 99);
    }
}
