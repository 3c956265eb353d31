//! Bit-exactness of the training backward kernels against the reference
//! loops they replaced, over the whole batch and over the batch cut into
//! one, two and three parts.
//!
//! Training is pinned by trained-weight digests, and a training step runs
//! the backward pieces on image shards: the per-image pieces on each
//! shard, the cross-image reductions over all shards in batch order. Both
//! must reproduce the sequential reference loops to the bit:
//! `conv2d_backward` against `conv2d_backward_reference`,
//! `linear_backward` against `matmul` / `matmul_at` / column sums, and
//! `dwconv2d_backward` (a phase-split gather, and filter sums with a
//! channel per lane) against a scatter loop. Shapes are ragged (reduction, plane
//! and row counts off every multiple of 4, MR and NR), operands carry
//! exact zeros at two densities (the reference loops' skip paths),
//! batches run from 1 to 5, and convolutions cover strides 1 to 3 and
//! padding 0 to 2, on planes small enough that some kernel taps reach no
//! input pixel (every such plane up to 3×3 is swept exhaustively).
//! Pointwise convolutions, which skip im2col and col2im, get a property of
//! their own.

use advhunter_tensor::ops::{
    conv2d_backward, conv2d_backward_reference, conv2d_input_grad_into, conv2d_sum_partials,
    conv2d_weight_partial_sum, conv2d_weight_partials, dwconv2d_backward, dwconv2d_input_grad_into,
    dwconv2d_param_grads, linear_backward, linear_bias_grad, linear_input_grad_into,
    linear_weight_grad_rows, matmul, matmul_at, Conv2dScratch, Conv2dSpec,
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

/// `t` cut along its first axis into `parts` contiguous pieces whose
/// sizes differ by at most one, the way a training batch is sharded.
fn split_batch(t: &Tensor, parts: usize) -> Vec<Tensor> {
    let dims = t.shape().dims();
    let (n, row) = (dims[0], t.len() / dims[0].max(1));
    let mut start = 0;
    (0..parts)
        .map(|p| {
            let len = n / parts + usize::from(p < n % parts);
            let mut part_dims = dims.to_vec();
            part_dims[0] = len;
            let data = t.data()[start * row..(start + len) * row].to_vec();
            start += len;
            Tensor::from_vec(data, &part_dims).unwrap()
        })
        .collect()
}

/// The output of an `_into` kernel run into a fresh tensor of `dims`,
/// poisoned so that an element it leaves unassigned shows.
fn into(dims: &[usize], f: impl FnOnce(&mut Tensor)) -> Tensor {
    let mut out = Tensor::full(dims, f32::NAN);
    f(&mut out);
    out
}

/// Per-part results joined back into one batch tensor.
fn join_batch(parts: &[Tensor]) -> Tensor {
    let mut dims = parts[0].shape().dims().to_vec();
    dims[0] = parts.iter().map(|p| p.shape().dim(0)).sum();
    let data = parts
        .iter()
        .flat_map(|p| p.data().iter().copied())
        .collect();
    Tensor::from_vec(data, &dims).unwrap()
}

/// `ranges` contiguous ranges covering `0..len`.
fn cut(len: usize, ranges: usize) -> Vec<std::ops::Range<usize>> {
    let step = len.div_ceil(ranges).max(1);
    (0..len)
        .step_by(step)
        .map(|lo| lo..(lo + step).min(len))
        .collect()
}

/// `conv2d_backward` over the batch cut into `parts` shards: per-shard
/// weight partials and input gradients, the partials summed over all
/// shards in batch order.
fn conv2d_backward_in_parts(
    input: &Tensor,
    weight: &Tensor,
    grad: &Tensor,
    spec: &Conv2dSpec,
    parts: usize,
) -> (Tensor, Tensor, Tensor) {
    let (xs, gs) = (split_batch(input, parts), split_batch(grad, parts));
    // One scratch for every part and piece, as a shard keeps it: what one
    // call leaves in it must not reach the next.
    let (_, c, h, w) = input.shape().as_nchw();
    let mut scratch = Conv2dScratch::new(c, h, w, spec);
    let (mut partials, mut gx) = (Vec::new(), Vec::new());
    for (x, g) in xs.iter().zip(&gs) {
        // The first part sums its images into one slot, as the first
        // shard of a training step does.
        let p = if partials.is_empty() {
            let mut p = vec![0.0; spec.partial_len()];
            conv2d_weight_partial_sum(x, g, spec, &mut p, &mut scratch);
            p
        } else {
            let mut p = vec![0.0; x.shape().dim(0) * spec.partial_len()];
            conv2d_weight_partials(x, g, spec, &mut p, &mut scratch);
            p
        };
        partials.push(p);
        gx.push(into(x.shape().dims(), |o| {
            conv2d_input_grad_into(weight, g, spec, o, &mut scratch)
        }));
    }
    let refs: Vec<&[f32]> = partials.iter().map(Vec::as_slice).collect();
    let (gw, gb) = conv2d_sum_partials(&refs, spec);
    (join_batch(&gx), gw, gb)
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

/// `dwconv2d_backward` as a training step runs it: the batch in `parts`
/// shards, each shard's input gradient on its own, and the parameter
/// gradients over all shards with the channels in `parts` blocks, every
/// call through one scratch.
fn dwconv2d_backward_in_parts(
    input: &Tensor,
    weight: &Tensor,
    grad: &Tensor,
    spec: &Conv2dSpec,
    parts: usize,
) -> (Tensor, Tensor, Tensor) {
    let mut scratch = Conv2dScratch::default();
    let (xs, gs) = (split_batch(input, parts), split_batch(grad, parts));
    let gx: Vec<Tensor> = xs
        .iter()
        .zip(&gs)
        .map(|(x, g)| {
            into(x.shape().dims(), |o| {
                dwconv2d_input_grad_into(weight, g, spec, &mut scratch, o)
            })
        })
        .collect();
    let pairs: Vec<(&Tensor, &Tensor)> = xs.iter().zip(&gs).collect();
    let (mut gw, mut gb) = (Vec::new(), Vec::new());
    for channels in cut(spec.in_channels, parts) {
        let (w_rows, b) = dwconv2d_param_grads(&pairs, spec, channels, &mut scratch);
        gw.extend(w_rows);
        gb.extend(b);
    }
    let c = spec.in_channels;
    let k2 = spec.kernel * spec.kernel;
    (
        join_batch(&gx),
        Tensor::from_vec(gw, &[c, k2]).unwrap(),
        Tensor::from_vec(gb, &[c]).unwrap(),
    )
}

/// Checks `dwconv2d_backward`, whole and in one to three parts, against
/// the scatter oracle.
fn check_dwconv2d_backward(input: &Tensor, weight: &Tensor, grad: &Tensor, spec: &Conv2dSpec) {
    let want = dwconv2d_backward_oracle(input, weight, grad, spec);
    let (_, _, h, w) = input.shape().as_nchw();
    for parts in [0, 1, 2, 3] {
        let got = match parts {
            0 => dwconv2d_backward(input, weight, grad, spec),
            _ => dwconv2d_backward_in_parts(input, weight, grad, spec, parts),
        };
        let at = format!(
            "{h}x{w} k{} s{} p{}, {parts} parts",
            spec.kernel, spec.stride, spec.padding
        );
        assert_eq!(bits(&got.0), bits(&want.0), "grad_input, {at}");
        assert_eq!(bits(&got.1), bits(&want.1), "grad_weight, {at}");
        assert_eq!(bits(&got.2), bits(&want.2), "grad_bias, {at}");
    }
}

/// Every width from 1 to 20 (under one vector block, odd, and one or two
/// blocks wide) under kernels 1, 3, 5, strides 1–3 and padding 0–2, over
/// nine channels (a full lane group and one lane of the next) and three
/// images. Half the output-gradient pixels are exact zeros, inputs and
/// weights carry zeros too, and every filter's border columns are
/// negative.
#[test]
fn dwconv2d_backward_every_width_matches_the_scatter() {
    let mut seed = 0u64;
    for kernel in [1usize, 3, 5] {
        let k2 = kernel * kernel;
        for stride in [1usize, 2, 3] {
            for padding in [0usize, 1, 2] {
                let spec = Conv2dSpec::new(9, 9, kernel, stride, padding);
                for h in [1usize, 4, 7] {
                    for w in 1usize..=20 {
                        if h + 2 * padding < kernel || w + 2 * padding < kernel {
                            continue;
                        }
                        seed += 1;
                        let (oh, ow) = spec.out_hw(h, w);
                        let input = tensor(&[3, 9, h, w], seed, 5);
                        let mut weight = tensor(&[9, k2], seed ^ 1, 5);
                        for row in weight.data_mut().chunks_exact_mut(kernel) {
                            row[0] = -row[0].abs() - 0.125;
                            row[kernel - 1] = -row[kernel - 1].abs() - 0.125;
                        }
                        let grad = tensor(&[3, 9, oh, ow], seed ^ 2, 2);
                        check_dwconv2d_backward(&input, &weight, &grad, &spec);
                    }
                }
            }
        }
    }
}

/// S1's two depthwise layers, mb1.dw (32 channels, 28×28, stride 2) and
/// mb2.dw (48 channels, 14×14, stride 1), over four images.
#[test]
fn dwconv2d_backward_matches_the_scatter_on_s1_shapes() {
    for (seed, c, hw, stride) in [(1u64, 32, 28, 2), (2, 48, 14, 1)] {
        let spec = Conv2dSpec::new(c, c, 3, stride, 1);
        let (oh, ow) = spec.out_hw(hw, hw);
        let input = tensor(&[4, c, hw, hw], seed, 7);
        let weight = tensor(&[c, 9], seed ^ 1, 7);
        let grad = tensor(&[4, c, oh, ow], seed ^ 2, 3);
        check_dwconv2d_backward(&input, &weight, &grad, &spec);
    }
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
/// whole and in one and two parts: the shapes whose col2im runs are empty
/// or one pixel long.
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
                    for parts in [0, 1, 2] {
                        let got = match parts {
                            0 => conv2d_backward(&input, &weight, &grad, &spec),
                            _ => conv2d_backward_in_parts(&input, &weight, &grad, &spec, parts),
                        };
                        let at = format!("{h}x{w} k{kernel} s{stride} p{padding}, {parts} parts");
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
        parts in 1usize..4,
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
        let got = conv2d_backward(&input, &weight, &grad, &spec);
        prop_assert_eq!(bits(&got.0), bits(&want.0), "grad_input");
        prop_assert_eq!(bits(&got.1), bits(&want.1), "grad_weight");
        prop_assert_eq!(bits(&got.2), bits(&want.2), "grad_bias");
        let got = conv2d_backward_in_parts(&input, &weight, &grad, &spec, parts);
        prop_assert_eq!(bits(&got.0), bits(&want.0), "grad_input, {} parts", parts);
        prop_assert_eq!(bits(&got.1), bits(&want.1), "grad_weight, {} parts", parts);
        prop_assert_eq!(bits(&got.2), bits(&want.2), "grad_bias, {} parts", parts);
    }

    #[test]
    fn linear_backward_matches_reference(
        rows in 1usize..6,
        in_f in 1usize..45,
        out_f in 1usize..30,
        parts in 1usize..4,
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
        let got = linear_backward(&x, &weight, &grad);
        prop_assert_eq!(bits(&got.0), bits(&matmul(&grad, &weight)), "grad_input");
        prop_assert_eq!(bits(&got.1), bits(&matmul_at(&grad, &x)), "grad_weight");
        prop_assert_eq!(bits(&got.2), bits(&grad_bias), "grad_bias");

        // The batch in `parts` shards, the weight rows in `parts` blocks.
        let (xs, gs) = (split_batch(&x, parts), split_batch(&grad, parts));
        let gx: Vec<Tensor> = xs
            .iter()
            .zip(&gs)
            .map(|(x, g)| into(x.shape().dims(), |o| linear_input_grad_into(&weight, g, o)))
            .collect();
        let pairs: Vec<(&Tensor, &Tensor)> = xs.iter().zip(&gs).collect();
        let mut gw = vec![0.0f32; out_f * in_f];
        for rows in cut(out_f, parts) {
            let block = &mut gw[rows.start * in_f..rows.end * in_f];
            linear_weight_grad_rows(&pairs, rows, block);
        }
        let gw = Tensor::from_vec(gw, &[out_f, in_f]).unwrap();
        let gb = linear_bias_grad(&gs.iter().collect::<Vec<_>>());
        prop_assert_eq!(bits(&join_batch(&gx)), bits(&got.0), "grad_input, {} parts", parts);
        prop_assert_eq!(bits(&gw), bits(&got.1), "grad_weight, {} parts", parts);
        prop_assert_eq!(bits(&gb), bits(&got.2), "grad_bias, {} parts", parts);
    }

    #[test]
    fn pointwise_conv2d_backward_matches_reference(
        batch in 1usize..6,
        c in 1usize..20,
        h in 1usize..12,
        w in 1usize..12,
        out_c in 1usize..20,
        parts in 1usize..4,
        dense in any::<bool>(),
        seed in any::<u64>()
    ) {
        let zero_every = if dense { 7 } else { 2 };
        let spec = Conv2dSpec::new(c, out_c, 1, 1, 0);
        let input = tensor(&[batch, c, h, w], seed, zero_every);
        let weight = tensor(&[out_c, c], seed ^ 1, zero_every);
        let grad = tensor(&[batch, out_c, h, w], seed ^ 2, zero_every);

        let want = conv2d_backward_reference(&input, &weight, &grad, &spec);
        let got = conv2d_backward(&input, &weight, &grad, &spec);
        prop_assert_eq!(bits(&got.0), bits(&want.0), "grad_input");
        prop_assert_eq!(bits(&got.1), bits(&want.1), "grad_weight");
        prop_assert_eq!(bits(&got.2), bits(&want.2), "grad_bias");
        let got = conv2d_backward_in_parts(&input, &weight, &grad, &spec, parts);
        prop_assert_eq!(bits(&got.0), bits(&want.0), "grad_input, {} parts", parts);
        prop_assert_eq!(bits(&got.1), bits(&want.1), "grad_weight, {} parts", parts);
        prop_assert_eq!(bits(&got.2), bits(&want.2), "grad_bias, {} parts", parts);
    }

    /// Channel counts on and off the eight lanes of the filter gradient,
    /// planes from 1×1 (every tap in the padding) to wider than two
    /// 8-column blocks, kernels 1 to 4 (one and several 3×3 tap blocks),
    /// strides 1 to 3 and padding 0 to 2.
    #[test]
    fn dwconv2d_backward_matches_reference(
        batch in 1usize..6,
        ci in 0usize..7,
        h in 1usize..20,
        w in 1usize..20,
        kernel in 1usize..5,
        stride in 1usize..4,
        padding in 0usize..3,
        parts in 1usize..4,
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
        let got = dwconv2d_backward(&input, &weight, &grad, &spec);
        prop_assert_eq!(bits(&got.0), bits(&want.0), "grad_input");
        prop_assert_eq!(bits(&got.1), bits(&want.1), "grad_weight");
        prop_assert_eq!(bits(&got.2), bits(&want.2), "grad_bias");

        let got = dwconv2d_backward_in_parts(&input, &weight, &grad, &spec, parts);
        prop_assert_eq!(bits(&got.0), bits(&want.0), "grad_input, {} parts", parts);
        prop_assert_eq!(bits(&got.1), bits(&want.1), "grad_weight, {} parts", parts);
        prop_assert_eq!(bits(&got.2), bits(&want.2), "grad_bias, {} parts", parts);
    }
}
