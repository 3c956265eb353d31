//! Bit-exactness of the training backward kernels against the reference
//! loops they replaced, at one, two and three workers.
//!
//! Training is pinned by trained-weight digests, so the parallel packed
//! backward passes must reproduce the sequential reference loops to the
//! bit: `conv2d_backward` against `conv2d_backward_reference`,
//! `linear_backward` against `matmul` / `matmul_at` / column sums, and
//! `dwconv2d_backward` (a gather with register-blocked filter sums)
//! against the scatter loop it was. Shapes are ragged (reduction, plane
//! and row counts off every multiple of 4, MR and NR), operands carry
//! exact zeros at two densities (the reference loops' skip paths),
//! batches run from 1 to 5, and convolutions cover strides 1 to 3 and
//! padding 0 to 2, on planes small enough that some kernel taps reach no
//! input pixel (every such plane up to 3×3 is swept exhaustively).
//! Pointwise convolutions, which skip im2col and col2im, get a property of
//! their own.

use advhunter_runtime::Parallelism;
use advhunter_tensor::ops::{
    conv2d_backward, conv2d_backward_reference, conv2d_param_backward, dwconv2d_backward,
    linear_backward, matmul, matmul_at, Conv2dSpec,
};
use advhunter_tensor::Tensor;
use proptest::prelude::*;

/// Deterministic operand fill; one value in `zero_every` is an exact zero.
fn fill(len: usize, seed: u64, zero_every: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if (state >> 8).is_multiple_of(zero_every) {
                0.0
            } else {
                ((state >> 40) as i32 - (1 << 23)) as f32 / (1 << 24) as f32
            }
        })
        .collect()
}

fn tensor(dims: &[usize], seed: u64, zero_every: u64) -> Tensor {
    Tensor::from_vec(fill(dims.iter().product(), seed, zero_every), dims).unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `dwconv2d_backward` as it was before its channels fanned out and its
/// input gradient became a gather: one scatter pass over images and
/// channels, output pixels in raster order, zero gradients skipped, then
/// the bias sums.
fn dwconv2d_backward_oracle(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = input.shape().as_nchw();
    let (_, _, oh, ow) = grad_out.shape().as_nchw();
    let k = spec.kernel;
    let mut grad_input = Tensor::zeros(&[n, c, h, w]);
    let mut grad_weight = Tensor::zeros(&[c, k * k]);
    let (id, wd, gd) = (input.data(), weight.data(), grad_out.data());
    for img in 0..n {
        for ch in 0..c {
            let ibase = (img * c + ch) * h * w;
            let obase = (img * c + ch) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = gd[obase + oy * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ky in 0..k {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let ii = ibase + iy as usize * w + ix as usize;
                            grad_weight.data_mut()[ch * k * k + ky * k + kx] += g * id[ii];
                            grad_input.data_mut()[ii] += g * wd[ch * k * k + ky * k + kx];
                        }
                    }
                }
            }
        }
    }
    let mut grad_bias = Tensor::zeros(&[c]);
    for img in 0..n {
        for ch in 0..c {
            let obase = (img * c + ch) * oh * ow;
            grad_bias.data_mut()[ch] += gd[obase..obase + oh * ow].iter().sum::<f32>();
        }
    }
    (grad_input, grad_weight, grad_bias)
}

/// Whether some kernel column of `spec` reads no input column of a
/// `w`-wide plane from any output column.
fn has_dead_kernel_column(w: usize, spec: &Conv2dSpec) -> bool {
    let (_, ow) = spec.out_hw(w, w);
    (0..spec.kernel).any(|kx| {
        (0..ow).all(|ox| {
            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
            ix < 0 || ix >= w as isize
        })
    })
}

/// Every plane up to 3×3 under kernels 1–4, strides 1–3 and padding 0–2,
/// at one and three workers: the shapes whose col2im runs are empty or one
/// pixel long.
#[test]
fn conv2d_backward_matches_reference_on_tiny_planes() {
    let mut dead = 0;
    for (h, w) in (1..=3).flat_map(|h| (1..=3).map(move |w| (h, w))) {
        for kernel in 1..=4 {
            for stride in 1..=3 {
                for padding in 0..=2 {
                    if h + 2 * padding < kernel || w + 2 * padding < kernel {
                        continue;
                    }
                    let spec = Conv2dSpec::new(2, 3, kernel, stride, padding);
                    dead += usize::from(has_dead_kernel_column(w, &spec));
                    let (oh, ow) = spec.out_hw(h, w);
                    let seed = (h * 31 + w * 7 + kernel * 3 + stride) as u64 + padding as u64 * 97;
                    let input = tensor(&[2, 2, h, w], seed, 5);
                    let weight = tensor(&[3, 2 * kernel * kernel], seed ^ 1, 5);
                    let grad = tensor(&[2, 3, oh, ow], seed ^ 2, 5);
                    let want = conv2d_backward_reference(&input, &weight, &grad, &spec);
                    for threads in [1, 3] {
                        let got = conv2d_backward(
                            &input,
                            &weight,
                            &grad,
                            &spec,
                            &Parallelism::new(threads),
                        );
                        let at =
                            format!("{h}x{w} k{kernel} s{stride} p{padding}, {threads} workers");
                        assert_eq!(bits(&got.0), bits(&want.0), "grad_input, {at}");
                        assert_eq!(bits(&got.1), bits(&want.1), "grad_weight, {at}");
                        assert_eq!(bits(&got.2), bits(&want.2), "grad_bias, {at}");
                    }
                }
            }
        }
    }
    assert!(dead > 0, "no plane with a dead kernel column was swept");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Planes from 1×1 up, padding 0 to 2 and strides 1 to 3, so some
    /// kernel rows and columns reach no input pixel at all.
    #[test]
    fn conv2d_backward_matches_reference(
        batch in 1usize..6,
        c in 1usize..5,
        h in 1usize..12,
        w in 1usize..12,
        out_c in 1usize..12,
        kernel in 1usize..4,
        stride in 1usize..4,
        padding in 0usize..3,
        threads in 1usize..4,
        dense in any::<bool>(),
        seed in any::<u64>()
    ) {
        let zero_every = if dense { 7 } else { 2 };
        // The padded input must hold one kernel.
        let fit = kernel.saturating_sub(2 * padding);
        let (h, w) = (h.max(fit), w.max(fit));
        let spec = Conv2dSpec::new(c, out_c, kernel, stride, padding);
        let (oh, ow) = spec.out_hw(h, w);
        let input = tensor(&[batch, c, h, w], seed, zero_every);
        let weight = tensor(&[out_c, c * kernel * kernel], seed ^ 1, zero_every);
        let grad = tensor(&[batch, out_c, oh, ow], seed ^ 2, zero_every);

        let want = conv2d_backward_reference(&input, &weight, &grad, &spec);
        let par = Parallelism::new(threads);
        let got = conv2d_backward(&input, &weight, &grad, &spec, &par);
        prop_assert_eq!(bits(&got.0), bits(&want.0), "grad_input, {} workers", threads);
        prop_assert_eq!(bits(&got.1), bits(&want.1), "grad_weight, {} workers", threads);
        prop_assert_eq!(bits(&got.2), bits(&want.2), "grad_bias, {} workers", threads);
        let (gw, gb) = conv2d_param_backward(&input, &weight, &grad, &spec, &par);
        prop_assert_eq!(bits(&gw), bits(&want.1), "param-only grad_weight");
        prop_assert_eq!(bits(&gb), bits(&want.2), "param-only grad_bias");
    }

    #[test]
    fn linear_backward_matches_reference(
        rows in 1usize..6,
        in_f in 1usize..45,
        out_f in 1usize..30,
        threads in 1usize..4,
        dense in any::<bool>(),
        seed in any::<u64>()
    ) {
        let zero_every = if dense { 7 } else { 2 };
        let x = tensor(&[rows, in_f], seed, zero_every);
        let weight = tensor(&[out_f, in_f], seed ^ 1, zero_every);
        let grad = tensor(&[rows, out_f], seed ^ 2, zero_every);

        let mut grad_bias = Tensor::zeros(&[out_f]);
        for row in grad.data().chunks_exact(out_f) {
            for (b, &g) in grad_bias.data_mut().iter_mut().zip(row) {
                *b += g;
            }
        }
        let got = linear_backward(&x, &weight, &grad, &Parallelism::new(threads));
        prop_assert_eq!(bits(&got.0), bits(&matmul(&grad, &weight)), "grad_input");
        prop_assert_eq!(bits(&got.1), bits(&matmul_at(&grad, &x)), "grad_weight");
        prop_assert_eq!(bits(&got.2), bits(&grad_bias), "grad_bias");
    }

    #[test]
    fn pointwise_conv2d_backward_matches_reference(
        batch in 1usize..6,
        c in 1usize..20,
        h in 1usize..12,
        w in 1usize..12,
        out_c in 1usize..20,
        threads in 1usize..4,
        dense in any::<bool>(),
        seed in any::<u64>()
    ) {
        let zero_every = if dense { 7 } else { 2 };
        let spec = Conv2dSpec::new(c, out_c, 1, 1, 0);
        let input = tensor(&[batch, c, h, w], seed, zero_every);
        let weight = tensor(&[out_c, c], seed ^ 1, zero_every);
        let grad = tensor(&[batch, out_c, h, w], seed ^ 2, zero_every);

        let want = conv2d_backward_reference(&input, &weight, &grad, &spec);
        let got = conv2d_backward(&input, &weight, &grad, &spec, &Parallelism::new(threads));
        prop_assert_eq!(bits(&got.0), bits(&want.0), "grad_input, {} workers", threads);
        prop_assert_eq!(bits(&got.1), bits(&want.1), "grad_weight, {} workers", threads);
        prop_assert_eq!(bits(&got.2), bits(&want.2), "grad_bias, {} workers", threads);
    }

    /// Channel counts off the lanes of the other kernels, planes from 1×1
    /// (every tap in the padding) to wider than two 8-column blocks (the
    /// vectorized gather interior), kernels 1 to 4 (one and several 3×3
    /// tap blocks).
    #[test]
    fn dwconv2d_backward_matches_reference(
        batch in 1usize..6,
        ci in 0usize..7,
        h in 1usize..20,
        w in 1usize..20,
        kernel in 1usize..5,
        stride in 1usize..3,
        padding in 0usize..2,
        threads in 1usize..4,
        dense in any::<bool>(),
        seed in any::<u64>()
    ) {
        let c = [1, 3, 7, 8, 9, 13, 48][ci];
        let zero_every = if dense { 7 } else { 2 };
        // The padded input must hold one kernel.
        let fit = kernel.saturating_sub(2 * padding);
        let (h, w) = (h.max(fit), w.max(fit));
        let spec = Conv2dSpec::new(c, c, kernel, stride, padding);
        let (oh, ow) = spec.out_hw(h, w);
        let input = tensor(&[batch, c, h, w], seed, zero_every);
        let weight = tensor(&[c, kernel * kernel], seed ^ 1, zero_every);
        let grad = tensor(&[batch, c, oh, ow], seed ^ 2, zero_every);

        let want = dwconv2d_backward_oracle(&input, &weight, &grad, &spec);
        let got = dwconv2d_backward(&input, &weight, &grad, &spec, &Parallelism::new(threads));
        prop_assert_eq!(bits(&got.0), bits(&want.0), "grad_input, {} workers", threads);
        prop_assert_eq!(bits(&got.1), bits(&want.1), "grad_weight, {} workers", threads);
        prop_assert_eq!(bits(&got.2), bits(&want.2), "grad_bias, {} workers", threads);
    }
}
