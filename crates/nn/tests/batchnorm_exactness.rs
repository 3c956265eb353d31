//! Bit-exactness of train-mode batch norm against the channel-at-a-time
//! loops it replaced.
//!
//! Training is pinned by trained-weight digests, so the lane-parallel
//! batch statistics and gradient sums must reproduce, for every channel,
//! the sequential sums of the per-channel loops kept here as oracles.
//! Channel counts cover every remainder of the eight-channel lanes (1, 3,
//! 7, 8, 9, 13, 48), batches run from 1 to 5, planes from 1×1 to 7×7 (also
//! off the eight-pixel blocks), and gradients carry exact zeros. Each
//! forward pass runs in a workspace that a pass over other data used
//! first, so reused batch-norm buffers must leave no residue.

use advhunter_nn::{Graph, GraphBuilder, Mode, Op};
use advhunter_tensor::Tensor;
use proptest::prelude::*;

const CHANNELS: [usize; 7] = [1, 3, 7, 8, 9, 13, 48];

/// Deterministic fill in `[offset - 1, offset + 1)`; one value in
/// `zero_every` is an exact zero.
fn fill(len: usize, seed: u64, zero_every: u64, offset: f32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if (state >> 8).is_multiple_of(zero_every) {
                0.0
            } else {
                offset + ((state >> 40) as i32 - (1 << 23)) as f32 / (1 << 23) as f32
            }
        })
        .collect()
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// Train-mode forward as one loop per channel: returns
/// `(out, mean, var, xhat)`.
fn forward_oracle(
    x: &[f32],
    (n, c, plane): (usize, usize, usize),
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let count = (n * plane) as f32;
    let mut mean = vec![0.0f32; c];
    let mut var = vec![0.0f32; c];
    for ch in 0..c {
        let mut s = 0.0;
        for img in 0..n {
            let base = (img * c + ch) * plane;
            s += x[base..base + plane].iter().sum::<f32>();
        }
        mean[ch] = s / count;
        let mut v = 0.0;
        for img in 0..n {
            let base = (img * c + ch) * plane;
            for i in 0..plane {
                let d = x[base + i] - mean[ch];
                v += d * d;
            }
        }
        var[ch] = v / count;
    }
    let mut xhat = vec![0.0f32; x.len()];
    let mut out = vec![0.0f32; x.len()];
    for ch in 0..c {
        let inv = 1.0 / (var[ch] + eps).sqrt();
        for img in 0..n {
            let base = (img * c + ch) * plane;
            for i in 0..plane {
                let nx = (x[base + i] - mean[ch]) * inv;
                xhat[base + i] = nx;
                out[base + i] = nx * gamma[ch] + beta[ch];
            }
        }
    }
    (out, mean, var, xhat)
}

/// Train-mode backward as one loop per channel: returns
/// `(grad_input, grad_gamma, grad_beta)`.
fn backward_oracle(
    g: &[f32],
    xhat: &[f32],
    var: &[f32],
    (n, c, plane): (usize, usize, usize),
    gamma: &[f32],
    eps: f32,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let count = (n * plane) as f32;
    let mut gx = vec![0.0f32; g.len()];
    let mut ggamma = vec![0.0f32; c];
    let mut gbeta = vec![0.0f32; c];
    for ch in 0..c {
        let inv = 1.0 / (var[ch] + eps).sqrt();
        let mut sum_g = 0.0f32;
        let mut sum_gx = 0.0f32;
        for img in 0..n {
            let base = (img * c + ch) * plane;
            for i in 0..plane {
                sum_g += g[base + i];
                sum_gx += g[base + i] * xhat[base + i];
            }
        }
        ggamma[ch] = sum_gx;
        gbeta[ch] = sum_g;
        let k1 = gamma[ch] * inv / count;
        for img in 0..n {
            let base = (img * c + ch) * plane;
            for i in 0..plane {
                gx[base + i] = k1 * (count * g[base + i] - sum_g - xhat[base + i] * sum_gx);
            }
        }
    }
    (gx, ggamma, gbeta)
}

/// A one-node batch-norm graph over `c × h × w` images with seeded γ/β.
fn batchnorm_graph(c: usize, h: usize, w: usize, seed: u64) -> Graph {
    let mut b = GraphBuilder::new(&[c, h, w]);
    let input = b.input();
    b.batchnorm("bn", input);
    let mut graph = b.build();
    for (i, p) in graph.param_tensors_mut().into_iter().enumerate() {
        let offset = if i == 0 { 1.0 } else { 0.0 };
        p.data_mut()
            .copy_from_slice(&fill(c, seed ^ (10 + i as u64), 1 << 40, offset));
    }
    graph
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn train_mode_batchnorm_matches_the_per_channel_loops(
        batch in 1usize..6,
        ci in 0usize..CHANNELS.len(),
        h in 1usize..8,
        w in 1usize..8,
        dense in any::<bool>(),
        seed in any::<u64>()
    ) {
        let c = CHANNELS[ci];
        let zero_every = if dense { 7 } else { 2 };
        let dims = [batch, c, h, w];
        let len = batch * c * h * w;
        let x = Tensor::from_vec(fill(len, seed, zero_every, 0.5), &dims).unwrap();
        let other = Tensor::from_vec(fill(len, seed ^ 3, 3, -2.0), &dims).unwrap();
        let g = Tensor::from_vec(fill(len, seed ^ 4, zero_every, 0.0), &dims).unwrap();
        let mut graph = batchnorm_graph(c, h, w, seed);
        let Op::BatchNorm2d(bn) = &graph.nodes()[0].op else {
            unreachable!("the graph's one node is a batch norm");
        };
        let (gamma, beta, eps, momentum) =
            (bn.gamma.data().to_vec(), bn.beta.data().to_vec(), bn.eps, bn.momentum);
        let running: Vec<Vec<f32>> =
            graph.running_stat_tensors().iter().map(|t| t.data().to_vec()).collect();

        let (out, mean, var, xhat) =
            forward_oracle(x.data(), (batch, c, h * w), &gamma, &beta, eps);
        let mut ws = graph.workspace(batch);
        graph.forward_with(&other, Mode::Train, &mut ws);
        graph.forward_with(&x, Mode::Train, &mut ws);
        prop_assert_eq!(bits(ws.output().data()), bits(&out), "reused workspace");

        let trace = graph.forward(&x, Mode::Train);
        prop_assert_eq!(bits(trace.output().data()), bits(&out), "fresh forward");
        let (gx, ggamma, gbeta) =
            backward_oracle(g.data(), &xhat, &var, (batch, c, h * w), &gamma, eps);
        let grads = graph.backward(&trace, &g);
        let pg = grads.params[0].as_ref().expect("batch norm has parameters");
        prop_assert_eq!(bits(grads.input.data()), bits(&gx), "grad_input");
        prop_assert_eq!(bits(pg.weight.data()), bits(&ggamma), "grad_gamma");
        prop_assert_eq!(bits(pg.bias.data()), bits(&gbeta), "grad_beta");

        // The batch statistics themselves, through the running averages.
        graph.update_running_stats(&trace);
        let stats = graph.running_stat_tensors();
        for ((now, before), batch_stat) in stats.iter().zip(&running).zip([&mean, &var]) {
            let want: Vec<f32> = before
                .iter()
                .zip(batch_stat)
                .map(|(&r, &b)| (1.0 - momentum) * r + momentum * b)
                .collect();
            prop_assert_eq!(bits(now.data()), bits(&want), "running statistics");
        }
    }
}
