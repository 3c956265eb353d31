//! Property-based bit-exactness of the packed-panel GEMM kernel family
//! against the reference loops.
//!
//! The whole AdvHunter trace contract rests on the packed kernels being
//! *bit-for-bit* interchangeable with the reference matrix code: the
//! simulated HPC counts derive from forward activations, so a single ULP
//! of drift anywhere would silently re-address every golden count. These
//! properties drive randomized shapes — including ragged tails smaller
//! than every register block, stride/padding edge cases, and zero-heavy
//! operands that exercise the sparsity skip — and require exact
//! `to_bits` equality, not tolerance.

use advhunter_tensor::ops::{
    conv2d_into, conv2d_packed_into, gemm_packed_bias_into, linear_into, linear_packed_into,
    matmul_into, Conv2dScratch, Conv2dSpec, KernelVariant, PackedWeights,
};
use advhunter_tensor::Tensor;
use proptest::prelude::*;

/// Deterministic operand fill with exact zeros sprinkled in (roughly one
/// in seven), so the zero-skip paths of the reference loops are exercised.
fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.is_multiple_of(7) {
                0.0
            } else {
                ((state >> 40) as i32 - (1 << 23)) as f32 / (1 << 24) as f32
            }
        })
        .collect()
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` on `x` cut along its first axis into `parts` contiguous
/// pieces (sizes differing by at most one, the way a training batch is
/// sharded) and joins the per-piece outputs.
fn in_parts(x: &Tensor, parts: usize, f: impl Fn(&Tensor) -> Tensor) -> Vec<f32> {
    let dims = x.shape().dims();
    let (n, row) = (dims[0], x.len() / dims[0]);
    let mut out = Vec::new();
    let mut start = 0;
    for p in 0..parts {
        let len = n / parts + usize::from(p < n % parts);
        let mut part_dims = dims.to_vec();
        part_dims[0] = len;
        let part = Tensor::from_vec(
            x.data()[start * row..(start + len) * row].to_vec(),
            &part_dims,
        );
        out.extend_from_slice(f(&part.unwrap()).data());
        start += len;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conv-discipline GEMM: every variant, every shape (tails included),
    /// bit-identical to `matmul_into` + bias.
    #[test]
    fn packed_conv_gemm_matches_reference(
        m in 1usize..20, k in 1usize..40, n in 1usize..70, seed in any::<u64>()
    ) {
        let a = fill(m * k, seed);
        let b = fill(k * n, seed ^ 1);
        let bias = fill(m, seed ^ 2);

        let ta = Tensor::from_vec(a.clone(), &[m, k]).unwrap();
        let tb = Tensor::from_vec(b.clone(), &[k, n]).unwrap();
        let mut reference = Tensor::zeros(&[m, n]);
        matmul_into(&ta, &tb, &mut reference);
        let expected: Vec<f32> = reference
            .data()
            .iter()
            .enumerate()
            .map(|(i, &v)| v + bias[i / n])
            .collect();

        for variant in KernelVariant::ALL {
            let packed = PackedWeights::pack(&a, m, k, variant);
            // Poisoned output: every element must be overwritten.
            let mut out = vec![f32::NAN; m * n];
            gemm_packed_bias_into(&packed, &b, n, &bias, &mut out);
            prop_assert_eq!(bits(&out), bits(&expected), "variant {:?}", variant);
        }
    }

    /// Linear layer: every variant, ragged feature counts, one to nine
    /// rows cut into one to three shards (so every shard count sees row
    /// pairs and an odd last row), bit-identical to `linear_into`.
    #[test]
    fn packed_linear_matches_reference(
        rows in 1usize..10, out_f in 1usize..24, in_f in 1usize..48, seed in any::<u64>()
    ) {
        let x = Tensor::from_vec(fill(rows * in_f, seed), &[rows, in_f]).unwrap();
        let w = fill(out_f * in_f, seed ^ 1);
        let tw = Tensor::from_vec(w.clone(), &[out_f, in_f]).unwrap();
        let bias = Tensor::from_vec(fill(out_f, seed ^ 2), &[out_f]).unwrap();

        let mut reference = Tensor::zeros(&[rows, out_f]);
        linear_into(&x, &tw, &bias, &mut reference);

        for (variant, parts) in KernelVariant::ALL.into_iter().zip([1, 2, 3]) {
            let packed = PackedWeights::pack(&w, out_f, in_f, variant);
            let out = in_parts(&x, parts, |x| {
                let mut out = Tensor::full(&[x.shape().dim(0), out_f], f32::NAN);
                linear_packed_into(x, &packed, &bias, &mut out);
                out
            });
            prop_assert_eq!(
                bits(&out),
                bits(reference.data()),
                "variant {:?}, {} shards",
                variant,
                parts
            );
        }
    }

    /// Whole convolutions: random stride/padding/kernel geometry (every
    /// im2col edge case), batch > 1, bit-identical to `conv2d_into` with the
    /// images cut into one to three shards.
    #[test]
    fn packed_conv2d_matches_reference(
        batch in 1usize..4,
        c in 1usize..4,
        h in 3usize..10,
        w in 3usize..10,
        out_c in 1usize..10,
        kernel in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        seed in any::<u64>()
    ) {
        let spec = Conv2dSpec::new(c, out_c, kernel, stride, padding);
        let input = Tensor::from_vec(fill(batch * c * h * w, seed), &[batch, c, h, w]).unwrap();
        let wlen = out_c * c * kernel * kernel;
        let weight_data = fill(wlen, seed ^ 1);
        let weight = Tensor::from_vec(weight_data, &[out_c, c * kernel * kernel]).unwrap();
        let bias = Tensor::from_vec(fill(out_c, seed ^ 2), &[out_c]).unwrap();
        let (oh, ow) = spec.out_hw(h, w);

        let mut scratch = Conv2dScratch::new(c, h, w, &spec);
        let mut reference = Tensor::zeros(&[batch, out_c, oh, ow]);
        conv2d_into(&input, &weight, &bias, &spec, &mut scratch, &mut reference);

        for (variant, parts) in KernelVariant::ALL.into_iter().zip([1, 2, 3]) {
            let packed = PackedWeights::pack_tensor(&weight, variant);
            let out = in_parts(&input, parts, |x| {
                let mut out = Tensor::full(&[x.shape().dim(0), out_c, oh, ow], f32::NAN);
                let mut packed_scratch = Conv2dScratch::new(c, h, w, &spec);
                conv2d_packed_into(x, &packed, &bias, &spec, &mut packed_scratch, &mut out);
                out
            });
            prop_assert_eq!(
                bits(&out),
                bits(reference.data()),
                "variant {:?}, {} shards",
                variant,
                parts
            );
        }
    }

    /// Pointwise convolutions (1×1, stride 1, no padding) feed the image
    /// itself to the GEMM instead of an im2col copy: still bit-identical to
    /// the im2col path of `conv2d_into`.
    #[test]
    fn packed_pointwise_conv2d_matches_im2col_path(
        batch in 1usize..5,
        c in 1usize..20,
        h in 1usize..12,
        w in 1usize..12,
        out_c in 1usize..20,
        parts in 1usize..4,
        seed in any::<u64>()
    ) {
        let spec = Conv2dSpec::new(c, out_c, 1, 1, 0);
        let input = Tensor::from_vec(fill(batch * c * h * w, seed), &[batch, c, h, w]).unwrap();
        let weight = Tensor::from_vec(fill(out_c * c, seed ^ 1), &[out_c, c]).unwrap();
        let bias = Tensor::from_vec(fill(out_c, seed ^ 2), &[out_c]).unwrap();

        let mut scratch = Conv2dScratch::new(c, h, w, &spec);
        let mut reference = Tensor::zeros(&[batch, out_c, h, w]);
        conv2d_into(&input, &weight, &bias, &spec, &mut scratch, &mut reference);

        let packed = PackedWeights::pack_tensor(&weight, KernelVariant::TRAINING);
        let out = in_parts(&input, parts, |x| {
            let mut out = Tensor::full(&[x.shape().dim(0), out_c, h, w], f32::NAN);
            let mut scratch = Conv2dScratch::new(c, h, w, &spec);
            conv2d_packed_into(x, &packed, &bias, &spec, &mut scratch, &mut out);
            out
        });
        prop_assert_eq!(bits(&out), bits(reference.data()), "{} shards", parts);
    }
}
