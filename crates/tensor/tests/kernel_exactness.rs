//! Bit-exactness of the vectorized depthwise convolution and the branch-free
//! sigmoid family against their textbook scalar forms.
//!
//! The simulated HPC counts derive from forward activations, so these
//! kernels must be bit-for-bit interchangeable with the loops they replaced:
//! comparisons are on `to_bits`, never within a tolerance.

use advhunter_tensor::ops::{
    dwconv2d_into, sigmoid_into, silu_backward_from_sigmoid_into, silu_backward_into, silu_into,
    silu_sigmoid_of_into, Conv2dScratch, Conv2dSpec,
};
use advhunter_tensor::Tensor;

/// Deterministic operand fill. Roughly one value in five is a signed zero
/// (`-0.0` as often as `+0.0`), so sign-of-zero propagation is exercised.
fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 10 {
                0 => 0.0,
                1 => -0.0,
                _ => ((state >> 40) as i32 - (1 << 23)) as f32 / (1 << 22) as f32,
            }
        })
        .collect()
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// The scalar tap loop `dwconv2d_into` ran before its interior columns were
/// vectorized: every output starts from the bias and adds each in-bounds
/// tap in `ky`, `kx` order.
fn dwconv2d_oracle(
    input: &[f32],
    dims: [usize; 4],
    weight: &[f32],
    bias: &[f32],
    spec: &Conv2dSpec,
) -> Vec<f32> {
    let [n, c, h, w] = dims;
    let (oh, ow) = spec.out_hw(h, w);
    let k = spec.kernel;
    let mut od = vec![0.0; n * c * oh * ow];
    for img in 0..n {
        for ch in 0..c {
            let wrow = &weight[ch * k * k..(ch + 1) * k * k];
            let b = bias[ch];
            let ibase = (img * c + ch) * h * w;
            let obase = (img * c + ch) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b;
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
                            acc += wrow[ky * k + kx] * input[ibase + iy as usize * w + ix as usize];
                        }
                    }
                    od[obase + oy * ow + ox] = acc;
                }
            }
        }
    }
    od
}

/// Runs `dwconv2d_into` on `input` into a poisoned output (every element
/// must be overwritten) through `scratch`, which earlier calls of other
/// geometries leave dirty, and compares it with the tap loop.
fn check_dwconv_on(
    input: Vec<f32>,
    weight: Vec<f32>,
    bias: Vec<f32>,
    [n, c, h, w]: [usize; 4],
    spec: &Conv2dSpec,
    scratch: &mut Conv2dScratch,
) {
    let expected = dwconv2d_oracle(&input, [n, c, h, w], &weight, &bias, spec);
    let (oh, ow) = spec.out_hw(h, w);
    let mut out = Tensor::full(&[n, c, oh, ow], f32::NAN);
    dwconv2d_into(
        &Tensor::from_vec(input, &[n, c, h, w]).unwrap(),
        &Tensor::from_vec(weight, &[c, spec.kernel * spec.kernel]).unwrap(),
        &Tensor::from_vec(bias, &[c]).unwrap(),
        spec,
        scratch,
        &mut out,
    );
    assert_eq!(
        bits(out.data()),
        bits(&expected),
        "k={} s={} p={} on {h}x{w}",
        spec.kernel,
        spec.stride,
        spec.padding
    );
}

fn check_dwconv(n: usize, c: usize, h: usize, w: usize, spec: &Conv2dSpec, seed: u64) {
    let input = fill(n * c * h * w, seed);
    let weight = fill(c * spec.kernel * spec.kernel, seed ^ 1);
    let bias = fill(c, seed ^ 2);
    let mut scratch = Conv2dScratch::default();
    check_dwconv_on(input, weight, bias, [n, c, h, w], spec, &mut scratch);
}

#[test]
fn dwconv_matches_the_scalar_tap_loop_bit_for_bit() {
    // Sizes below the kernel, with an empty or sub-block interior, and
    // wide enough for several overlapping vector blocks.
    let sizes = [1usize, 2, 3, 4, 5, 7, 8, 9, 12, 14, 17, 28, 33];
    let mut seed = 0u64;
    for kernel in [1usize, 3, 5] {
        for stride in [1usize, 2, 3] {
            for padding in [0usize, 1, 2] {
                let spec = Conv2dSpec::new(2, 2, kernel, stride, padding);
                for &h in &sizes {
                    for &w in &sizes {
                        if h + 2 * padding < kernel || w + 2 * padding < kernel {
                            continue;
                        }
                        seed += 1;
                        check_dwconv(2, 2, h, w, &spec, seed);
                    }
                }
            }
        }
    }
}

/// Every width from 1 to 20 (under one vector block, odd, and one or two
/// blocks wide) under kernels 1, 3, 5, strides 1–3 and padding 0–2, with
/// one scratch for every call. Three channels: the first has a `-0.0` bias,
/// a zero input plane and negative weights, so each output is a sum of
/// `-0.0` products that stays `-0.0` only if no padding tap is added; the
/// second has a `-0.0` bias and negative border weights over a signed-zero
/// rich input; the third is random.
#[test]
fn dwconv_every_width_keeps_negative_zero_sums() {
    let mut scratch = Conv2dScratch::default();
    let mut seed = 1000u64;
    for kernel in [1usize, 3, 5] {
        let k2 = kernel * kernel;
        for stride in [1usize, 2, 3] {
            for padding in [0usize, 1, 2] {
                let spec = Conv2dSpec::new(3, 3, kernel, stride, padding);
                for h in [1usize, 2, 5, 9] {
                    for w in 1usize..=20 {
                        if h + 2 * padding < kernel || w + 2 * padding < kernel {
                            continue;
                        }
                        seed += 1;
                        let (n, plane) = (2, h * w);
                        let mut input = fill(n * 3 * plane, seed);
                        for img in 0..n {
                            input[img * 3 * plane..][..plane].fill(0.0);
                        }
                        let mut weight = fill(3 * k2, seed ^ 1);
                        weight[..k2].iter_mut().for_each(|v| *v = -v.abs() - 0.25);
                        for ky in 0..kernel {
                            for kx in [0, kernel - 1] {
                                weight[k2 + ky * kernel + kx] = -0.5 - ky as f32;
                            }
                        }
                        let mut bias = fill(3, seed ^ 2);
                        bias[..2].fill(-0.0);
                        check_dwconv_on(input, weight, bias, [n, 3, h, w], &spec, &mut scratch);
                    }
                }
            }
        }
    }
}

#[test]
fn dwconv_matches_the_scalar_tap_loop_on_s1_shapes() {
    // mb1.dw (32 channels, 28x28, stride 2) and mb2.dw (48 channels,
    // 14x14, stride 1) of the S1 EfficientNet-micro spec.
    check_dwconv(2, 32, 28, 28, &Conv2dSpec::new(32, 32, 3, 2, 1), 7);
    check_dwconv(2, 48, 14, 14, &Conv2dSpec::new(48, 48, 3, 1, 1), 8);
}

fn textbook_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Every 4093rd `f32` bit pattern (about a million values over both signs,
/// all exponents and subnormals) plus the edge cases, NaNs excluded: the
/// sign of a propagated NaN is not part of the contract.
fn sweep() -> Vec<f32> {
    let mut xs: Vec<f32> = (0..=u32::MAX)
        .step_by(4093)
        .map(f32::from_bits)
        .filter(|x| !x.is_nan())
        .collect();
    xs.extend([
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        -f32::from_bits(0x007f_ffff),
        f32::MAX,
        f32::MIN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        88.72284,
        -88.72284,
        103.97208,
        -103.97208,
    ]);
    xs
}

#[test]
fn sigmoid_and_silu_match_the_branchy_form_bit_for_bit() {
    let xs = sweep();
    let x = Tensor::from_vec(xs.clone(), &[xs.len()]).unwrap();
    let mut sig = Tensor::zeros(&[xs.len()]);
    let mut silu = Tensor::zeros(&[xs.len()]);
    sigmoid_into(&x, &mut sig);
    silu_into(&x, &mut silu);
    let grad = Tensor::full(&[xs.len()], 0.75);
    let mut dsilu = Tensor::full(&[xs.len()], f32::NAN);
    silu_backward_into(&x, &grad, &mut dsilu);
    // The fused pair's form, with `z = x`, keeps the same bits; the length
    // is off the lanes, so the tail block runs too.
    let n = xs.len() - 3;
    let (mut act, mut fsig) = (vec![f32::NAN; n], vec![f32::NAN; n]);
    silu_sigmoid_of_into(&xs[..n], |z| z, &mut act, &mut fsig);
    assert_eq!(bits(&act), bits(&silu.data()[..n]), "fused silu");
    assert_eq!(bits(&fsig), bits(&sig.data()[..n]), "fused sigmoid");
    let mut dfused = vec![f32::NAN; n];
    silu_backward_from_sigmoid_into(&xs[..n], |z| z, &fsig, &grad.data()[..n], &mut dfused);
    for (i, (&got, &want)) in dfused.iter().zip(dsilu.data()).enumerate() {
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "fused silu'({:e})",
            xs[i]
        );
    }
    for (i, &v) in xs.iter().enumerate() {
        let s = textbook_sigmoid(v);
        assert_eq!(sig.data()[i].to_bits(), s.to_bits(), "sigmoid({v:e})");
        assert_eq!(silu.data()[i].to_bits(), (v * s).to_bits(), "silu({v:e})");
        let ds = 0.75 * (s + v * s * (1.0 - s));
        // `inf * 0` inside the gradient is NaN either way; compare those by
        // class, everything else by bits.
        if ds.is_nan() {
            assert!(dsilu.data()[i].is_nan(), "silu'({v:e})");
        } else {
            assert_eq!(dsilu.data()[i].to_bits(), ds.to_bits(), "silu'({v:e})");
        }
    }
}
