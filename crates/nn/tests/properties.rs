//! Property-based tests: gradient correctness and training behavior on
//! randomly-parameterized small networks.

use advhunter_nn::train::Adam;
use advhunter_nn::{Graph, GraphBuilder, Mode};
use advhunter_tensor::ops::cross_entropy_with_logits;
use advhunter_tensor::{init, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a random small CNN from a compact genome.
fn build_random_graph(seed: u64, channels: usize, with_bn: bool, act: u8) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(&[1, 6, 6]);
    let input = b.input();
    let c = b.conv2d("conv", input, channels, 3, 1, 1, &mut rng);
    let x = if with_bn { b.batchnorm("bn", c) } else { c };
    let a = match act % 3 {
        0 => b.relu("act", x),
        1 => b.silu("act", x),
        _ => b.sigmoid("act", x),
    };
    let g = b.global_avgpool("gap", a);
    b.linear("fc", g, 3, &mut rng);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The analytic input gradient matches finite differences for random
    /// architectures, inputs, and labels (eval mode — the attack path).
    #[test]
    fn input_gradient_matches_finite_differences(
        seed in 0u64..500,
        channels in 2usize..5,
        with_bn in any::<bool>(),
        act in 0u8..3,
        label in 0usize..3,
    ) {
        let g = build_random_graph(seed, channels, with_bn, act);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFF);
        let x = init::normal(&mut rng, &[1, 1, 6, 6], 0.0, 1.0);

        let loss_of = |x: &Tensor| {
            let t = g.forward(x, Mode::Eval);
            cross_entropy_with_logits(t.output(), &[label]).0
        };
        let trace = g.forward(&x, Mode::Eval);
        let (_, dlogits) = cross_entropy_with_logits(trace.output(), &[label]);
        let grads = g.backward(&trace, &dlogits);

        let eps = 1e-2;
        for i in (0..x.len()).step_by(11) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss_of(&xp) - loss_of(&xm)) / (2.0 * eps);
            let ana = grads.input.data()[i];
            prop_assert!(
                (num - ana).abs() < 3e-2,
                "grad[{i}]: numeric {num} vs analytic {ana} (seed {seed})"
            );
        }
    }

    /// One Adam step along the analytic gradient reduces the loss.
    #[test]
    fn one_optimizer_step_reduces_loss(
        seed in 0u64..500,
        lr in 1e-4f32..3e-3,
    ) {
        let mut g = build_random_graph(seed, 4, true, 0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAA);
        let x = init::normal(&mut rng, &[8, 1, 6, 6], 0.0, 1.0);
        let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();

        let trace = g.forward(&x, Mode::Train);
        let (loss_before, dlogits) = cross_entropy_with_logits(trace.output(), &labels);
        let grads = g.backward(&trace, &dlogits);
        let flat: Vec<&Tensor> = grads.flat();
        let mut opt = Adam::new(lr);
        let mut params = g.param_tensors_mut();
        opt.step(&mut params, &flat);
        drop(params);

        let trace = g.forward(&x, Mode::Train);
        let (loss_after, _) = cross_entropy_with_logits(trace.output(), &labels);
        prop_assert!(
            loss_after < loss_before + 1e-4,
            "loss went up: {loss_before} -> {loss_after} (seed {seed}, lr {lr})"
        );
    }

    /// A tiny plain gradient step also never increases the loss
    /// meaningfully.
    #[test]
    fn sgd_step_reduces_loss(seed in 0u64..200) {
        let mut g = build_random_graph(seed, 3, false, 1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBB);
        let x = init::normal(&mut rng, &[4, 1, 6, 6], 0.0, 1.0);
        let labels = vec![0usize, 1, 2, 0];
        let trace = g.forward(&x, Mode::Eval);
        let (loss_before, dlogits) = cross_entropy_with_logits(trace.output(), &labels);
        let grads = g.backward(&trace, &dlogits);
        for (p, grad) in g.param_tensors_mut().into_iter().zip(grads.flat()) {
            for (w, &d) in p.data_mut().iter_mut().zip(grad.data()) {
                *w -= 1e-3 * d;
            }
        }
        let trace = g.forward(&x, Mode::Eval);
        let (loss_after, _) = cross_entropy_with_logits(trace.output(), &labels);
        prop_assert!(loss_after < loss_before + 1e-5);
    }

    /// Eval-mode forward is deterministic and batch-size invariant: an image
    /// scores identically alone or inside a batch.
    #[test]
    fn eval_forward_is_batch_invariant(seed in 0u64..300) {
        let g = build_random_graph(seed, 3, true, 0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCC);
        let a = init::normal(&mut rng, &[1, 6, 6], 0.0, 1.0);
        let b_img = init::normal(&mut rng, &[1, 6, 6], 0.0, 1.0);
        let single = g.forward(&Tensor::stack(std::slice::from_ref(&a)), Mode::Eval);
        let pair = g.forward(&Tensor::stack(&[a.clone(), b_img]), Mode::Eval);
        let c = single.output().shape().dim(1);
        for j in 0..c {
            let x = single.output().data()[j];
            let y = pair.output().data()[j];
            prop_assert!((x - y).abs() < 1e-4, "logit {j}: {x} vs {y}");
        }
    }
}
