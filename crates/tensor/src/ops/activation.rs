//! Activation functions and the softmax / cross-entropy pair.

use super::exp::{exp_lanes, LANES};
use crate::Tensor;

/// Rectified linear unit: `max(x, 0)` elementwise.
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

/// [`relu`] into a caller-provided same-length tensor.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn relu_into(x: &Tensor, out: &mut Tensor) {
    map_into(x, out, |v| v.max(0.0));
}

/// Backward pass of [`relu`] into `out`: passes gradient where the input
/// was positive.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn relu_backward_into(input: &Tensor, grad_out: &Tensor, out: &mut Tensor) {
    zip_into(input, grad_out, out, |x, g| if x > 0.0 { g } else { 0.0 });
}

/// Leaky rectified linear unit: `x` if positive, `alpha * x` otherwise.
pub fn leaky_relu(x: &Tensor, alpha: f32) -> Tensor {
    x.map(|v| if v > 0.0 { v } else { alpha * v })
}

/// [`leaky_relu`] into a caller-provided same-length tensor.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn leaky_relu_into(x: &Tensor, alpha: f32, out: &mut Tensor) {
    map_into(x, out, |v| if v > 0.0 { v } else { alpha * v });
}

/// Backward pass of [`leaky_relu`] into `out`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn leaky_relu_backward_into(input: &Tensor, grad_out: &Tensor, alpha: f32, out: &mut Tensor) {
    zip_into(
        input,
        grad_out,
        out,
        |x, g| if x > 0.0 { g } else { alpha * g },
    );
}

/// Hyperbolic tangent elementwise.
pub fn tanh(x: &Tensor) -> Tensor {
    x.map(f32::tanh)
}

/// [`tanh`] into a caller-provided same-length tensor.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn tanh_into(x: &Tensor, out: &mut Tensor) {
    map_into(x, out, f32::tanh);
}

/// Backward pass of [`tanh`] into `out`, given the *output* of the
/// forward pass.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn tanh_backward_into(output: &Tensor, grad_out: &Tensor, out: &mut Tensor) {
    zip_into(output, grad_out, out, |y, g| g * (1.0 - y * y));
}

/// Logistic sigmoid `1 / (1 + e^-x)` elementwise.
pub fn sigmoid(x: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(x.shape().dims());
    sigmoid_into(x, &mut out);
    out
}

/// [`sigmoid`] into a caller-provided same-length tensor.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sigmoid_into(x: &Tensor, out: &mut Tensor) {
    check_len(x, out);
    map_lanes([x.data()], out.data_mut(), |[v]| sigmoid_lanes(v));
}

/// Backward pass of [`sigmoid`] into `out`, given the *output* of the
/// forward pass.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sigmoid_backward_into(output: &Tensor, grad_out: &Tensor, out: &mut Tensor) {
    zip_into(output, grad_out, out, |y, g| g * y * (1.0 - y));
}

/// SiLU / swish: `x * sigmoid(x)` elementwise.
pub fn silu(x: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(x.shape().dims());
    silu_into(x, &mut out);
    out
}

/// [`silu`] into a caller-provided same-length tensor.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn silu_into(x: &Tensor, out: &mut Tensor) {
    check_len(x, out);
    map_lanes([x.data()], out.data_mut(), |[v]| {
        let s = sigmoid_lanes(v);
        std::array::from_fn(|l| v[l] * s[l])
    });
}

/// [`silu`] of `z = f(x)` into `act` and `σ(z)` into `sig`, without storing
/// `z`: bit for bit [`silu_into`] and [`sigmoid_into`] of the `z` that
/// `f` computes, which a caller that can recompute `z` pairs with
/// [`silu_backward_from_sigmoid_into`]. `f` must depend on its own element
/// only.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn silu_sigmoid_of_into(x: &[f32], f: impl Fn(f32) -> f32, act: &mut [f32], sig: &mut [f32]) {
    assert_eq!(x.len(), act.len(), "silu output length mismatch");
    assert_eq!(x.len(), sig.len(), "sigmoid output length mismatch");
    let block = |x: [f32; LANES]| {
        let z = x.map(&f);
        let s = sigmoid_lanes(z);
        (std::array::from_fn::<f32, LANES, _>(|l| z[l] * s[l]), s)
    };
    let full = x.len() - x.len() % LANES;
    let outs = act.chunks_exact_mut(LANES).zip(sig.chunks_exact_mut(LANES));
    for (x, (act, sig)) in x[..full].chunks_exact(LANES).zip(outs) {
        let (a, s) = block(x.try_into().expect("lanes"));
        act.copy_from_slice(&a);
        sig.copy_from_slice(&s);
    }
    let tail = x.len() - full;
    if tail > 0 {
        // The missing lanes are zeros whose results are dropped.
        let mut lanes = [0.0; LANES];
        lanes[..tail].copy_from_slice(&x[full..]);
        let (a, s) = block(lanes);
        act[full..].copy_from_slice(&a[..tail]);
        sig[full..].copy_from_slice(&s[..tail]);
    }
}

/// [`silu_backward_into`] at `z = f(x)`, given `sig = σ(z)` from
/// [`silu_sigmoid_of_into`]: the same bits, with no `exp`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn silu_backward_from_sigmoid_into(
    x: &[f32],
    f: impl Fn(f32) -> f32,
    sig: &[f32],
    grad_out: &[f32],
    out: &mut [f32],
) {
    assert_eq!(x.len(), out.len(), "silu gradient length mismatch");
    assert_eq!(x.len(), sig.len(), "sigmoid length mismatch");
    assert_eq!(
        x.len(),
        grad_out.len(),
        "silu output gradient length mismatch"
    );
    map_lanes([x, sig, grad_out], out, |[x, s, g]| {
        let z = x.map(&f);
        silu_grad_lanes(z, s, g)
    });
}

/// Backward pass of [`silu`] into `out`, given the *input* of the forward
/// pass.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn silu_backward_into(input: &Tensor, grad_out: &Tensor, out: &mut Tensor) {
    check_len(input, grad_out);
    check_len(input, out);
    map_lanes([input.data(), grad_out.data()], out.data_mut(), |[x, g]| {
        silu_grad_lanes(x, sigmoid_lanes(x), g)
    });
}

/// The SiLU gradient `g · (σ + x·σ·(1 − σ))` at `x`, given `σ = σ(x)`.
#[inline]
fn silu_grad_lanes<const L: usize>(x: [f32; L], s: [f32; L], g: [f32; L]) -> [f32; L] {
    std::array::from_fn(|l| g[l] * (s[l] + x[l] * s[l] * (1.0 - s[l])))
}

/// Row-wise softmax over a `[n, c]` tensor.
///
/// # Panics
///
/// Panics if `x` is not rank 2.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let (n, c) = row_dims(x);
    let mut out = x.clone();
    let mut shifted = vec![0.0; c];
    for r in out.data_mut().chunks_exact_mut(c.max(1)).take(n) {
        let m = r.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for (d, &v) in shifted.iter_mut().zip(r.iter()) {
            *d = v - m;
        }
        map_lanes([shifted.as_slice()], r, |[d]| exp_lanes(d));
        let mut sum = 0.0;
        for &v in r.iter() {
            sum += v;
        }
        for v in r.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Row-wise log-softmax over a `[n, c]` tensor (numerically stable).
///
/// # Panics
///
/// Panics if `x` is not rank 2.
pub fn log_softmax_rows(x: &Tensor) -> Tensor {
    let (n, c) = row_dims(x);
    let mut out = x.clone();
    let (mut shifted, mut exps) = (vec![0.0; c], vec![0.0; c]);
    for r in out.data_mut().chunks_exact_mut(c.max(1)).take(n) {
        let m = r.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for (d, &v) in shifted.iter_mut().zip(r.iter()) {
            *d = v - m;
        }
        map_lanes([shifted.as_slice()], &mut exps, |[d]| exp_lanes(d));
        let lse = m + exps.iter().sum::<f32>().ln();
        for v in r.iter_mut() {
            *v -= lse;
        }
    }
    out
}

/// Mean softmax cross-entropy over a batch of logits `[n, c]` with integer
/// labels; returns `(loss, grad_logits)`.
///
/// The gradient is already divided by the batch size, so it can be fed
/// straight into a backward pass.
///
/// # Panics
///
/// Panics if `logits` is not rank 2, `labels.len() != n`, or any label is out
/// of range.
pub fn cross_entropy_with_logits(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (n, c) = row_dims(logits);
    assert_eq!(labels.len(), n, "one label per batch row required");
    let log_probs = log_softmax_rows(logits);
    let mut grad = softmax_rows(logits);
    let gd = grad.data_mut();
    let scale = 1.0 / n as f32;
    let mut loss = 0.0;
    for (row, &label) in labels.iter().enumerate() {
        assert!(label < c, "label {label} out of range for {c} classes");
        loss -= log_probs.data()[row * c + label];
        gd[row * c + label] -= 1.0;
    }
    for g in gd.iter_mut() {
        *g *= scale;
    }
    (loss * scale, grad)
}

/// Writes `f` applied to every element of `x` into `out`, which may hold
/// any shape of the same total length (activations are shape-agnostic).
fn map_into(x: &Tensor, out: &mut Tensor, f: impl Fn(f32) -> f32) {
    check_len(x, out);
    for (o, &v) in out.data_mut().iter_mut().zip(x.data()) {
        *o = f(v);
    }
}

fn zip_into(a: &Tensor, b: &Tensor, out: &mut Tensor, f: impl Fn(f32, f32) -> f32) {
    check_len(a, b);
    check_len(a, out);
    for (o, (&x, &y)) in out.data_mut().iter_mut().zip(a.data().iter().zip(b.data())) {
        *o = f(x, y);
    }
}

fn check_len(x: &Tensor, out: &Tensor) {
    assert_eq!(
        x.len(),
        out.len(),
        "activation output length {} does not match input {}",
        out.len(),
        x.len()
    );
}

/// Writes `f` of `K` same-length inputs into `out`, [`LANES`] elements per
/// call; the last call's missing lanes are zeros whose results are
/// dropped. Every lane of `f` must depend on its own inputs only.
fn map_lanes<const K: usize>(
    ins: [&[f32]; K],
    out: &mut [f32],
    f: impl Fn([[f32; LANES]; K]) -> [f32; LANES],
) {
    let full = out.len() - out.len() % LANES;
    for (i, dst) in out.chunks_exact_mut(LANES).enumerate() {
        let args = ins.map(|x| <[f32; LANES]>::try_from(&x[i * LANES..][..LANES]).expect("lanes"));
        dst.copy_from_slice(&f(args));
    }
    let tail = &mut out[full..];
    if !tail.is_empty() {
        let args = ins.map(|x| {
            let mut block = [0.0; LANES];
            block[..tail.len()].copy_from_slice(&x[full..][..tail.len()]);
            block
        });
        tail.copy_from_slice(&f(args)[..tail.len()]);
    }
}

/// `1 / (1 + e^-x)` without overflow: with `e = exp(-|x|)` in `(0, 1]`,
/// the result is `1 / (1 + e)` for `x >= 0` and `e / (1 + e)` otherwise.
///
/// This is bit-identical to the textbook two-branch form (`exp(-x)` above
/// zero, `exp(x)` below): both branches take `exp` of exactly `-|x|` (and
/// `exp(+0) == exp(-0)`), so only the numerator depends on the sign. Picking
/// the numerator with a select instead of a branch keeps one `exp` per
/// element and no sign-dependent jump, which mispredicts on activations.
#[inline]
fn sigmoid_lanes<const L: usize>(x: [f32; L]) -> [f32; L] {
    let e = exp_lanes(x.map(|v| -v.abs()));
    std::array::from_fn(|l| {
        let num = if x[l] >= 0.0 { 1.0 } else { e[l] };
        num / (1.0 + e[l])
    })
}

fn row_dims(t: &Tensor) -> (usize, usize) {
    assert_eq!(
        t.shape().rank(),
        2,
        "expected [rows, cols], got {}",
        t.shape()
    );
    (t.shape().dim(0), t.shape().dim(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The output of an `_into` kernel run into a fresh tensor shaped like
    /// `like`.
    fn into(like: &Tensor, f: impl FnOnce(&mut Tensor)) -> Tensor {
        let mut out = Tensor::full(like.shape().dims(), f32::NAN);
        f(&mut out);
        out
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_gates_gradient() {
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let g = Tensor::from_slice(&[5.0, 5.0, 5.0]);
        assert_eq!(
            into(&x, |o| relu_backward_into(&x, &g, o)).data(),
            &[0.0, 0.0, 5.0]
        );
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let x = Tensor::from_slice(&[-2.0, 0.0, 3.0]);
        assert_eq!(leaky_relu(&x, 0.1).data(), &[-0.2, 0.0, 3.0]);
    }

    #[test]
    fn leaky_relu_backward_matches_finite_differences() {
        let alpha = 0.2;
        for &x0 in &[-1.5f32, -0.1, 0.1, 2.0] {
            let x = Tensor::from_slice(&[x0]);
            let g = Tensor::from_slice(&[1.0]);
            let ana = into(&x, |o| leaky_relu_backward_into(&x, &g, alpha, o)).data()[0];
            let eps = 1e-3;
            let f = |v: f32| if v > 0.0 { v } else { alpha * v };
            let num = (f(x0 + eps) - f(x0 - eps)) / (2.0 * eps);
            assert!((ana - num).abs() < 1e-3, "at {x0}: {ana} vs {num}");
        }
    }

    #[test]
    fn tanh_is_bounded_and_odd() {
        let x = Tensor::from_slice(&[-100.0, -1.0, 0.0, 1.0, 100.0]);
        let y = tanh(&x);
        assert!(y.data().iter().all(|v| (-1.0..=1.0).contains(v)));
        assert!((y.data()[1] + y.data()[3]).abs() < 1e-6, "odd function");
        assert_eq!(y.data()[2], 0.0);
    }

    #[test]
    fn tanh_backward_matches_finite_differences() {
        for &x0 in &[-2.0f32, -0.3, 0.0, 0.7] {
            let x = Tensor::from_slice(&[x0]);
            let y = tanh(&x);
            let g = Tensor::from_slice(&[1.0]);
            let ana = into(&y, |o| tanh_backward_into(&y, &g, o)).data()[0];
            let eps = 1e-3;
            let num = ((x0 + eps).tanh() - (x0 - eps).tanh()) / (2.0 * eps);
            assert!((ana - num).abs() < 1e-3, "at {x0}: {ana} vs {num}");
        }
    }

    #[test]
    fn sigmoid_is_symmetric_and_bounded() {
        let x = Tensor::from_slice(&[-100.0, 0.0, 100.0]);
        let y = sigmoid(&x);
        assert!(y.data()[0] >= 0.0 && y.data()[0] < 1e-6);
        assert!((y.data()[1] - 0.5).abs() < 1e-7);
        assert!(y.data()[2] <= 1.0 && y.data()[2] > 1.0 - 1e-6);
    }

    #[test]
    fn silu_matches_definition() {
        let x = Tensor::from_slice(&[1.5]);
        let expect = 1.5 / (1.0 + std::hint::black_box(-1.5f32).exp());
        assert!((silu(&x).data()[0] - expect).abs() < 1e-6);
    }

    #[test]
    fn silu_backward_matches_finite_differences() {
        let xs = [-3.0f32, -0.5, 0.0, 0.7, 4.0];
        for &x0 in &xs {
            let x = Tensor::from_slice(&[x0]);
            let g = Tensor::from_slice(&[1.0]);
            let analytic = into(&x, |o| silu_backward_into(&x, &g, o)).data()[0];
            let eps = 1e-3;
            let f = |v: f32| v * sigmoid_lanes([v])[0];
            let numeric = (f(x0 + eps) - f(x0 - eps)) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-3,
                "at {x0}: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let y = softmax_rows(&x);
        for row in 0..2 {
            let s: f32 = y.data()[row * 3..(row + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Softmax is shift-invariant: both rows differ by a constant.
        for i in 0..3 {
            assert!((y.data()[i] - y.data()[3 + i]).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_survives_large_logits() {
        let x = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]).unwrap();
        let y = softmax_rows(&x);
        assert!(y.data().iter().all(|v| v.is_finite()));
        assert!((y.data()[0] + y.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = Tensor::from_vec(vec![0.5, -0.25, 2.0], &[1, 3]).unwrap();
        let a = log_softmax_rows(&x);
        let b = softmax_rows(&x).map(f32::ln);
        for (u, v) in a.data().iter().zip(b.data().iter()) {
            assert!((u - v).abs() < 1e-5);
        }
    }

    /// Softmax and log-softmax as they were written over the host
    /// `f32::exp`, on random rows and on rows with infinities, NaN, huge
    /// and tiny logits, and more columns than one block of lanes.
    #[test]
    fn softmax_matches_the_libm_formulas() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut rows: Vec<Vec<f32>> = (0..64)
            .map(|i| {
                (0..1 + i % 19)
                    .map(|_| rng.gen_range(-40.0..40.0))
                    .collect()
            })
            .collect();
        rows.push(vec![f32::NEG_INFINITY, 0.0, -1e-30, 1e30, -1e30]);
        rows.push(vec![f32::INFINITY, 1.0]);
        rows.push(vec![f32::NAN, 1.0, 2.0]);
        rows.push(vec![-103.0, 0.0, -87.5, -100.0, -0.0]);
        for row in rows {
            let x = Tensor::from_vec(row.clone(), &[1, row.len()]).unwrap();
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            // Opaque inputs: LLVM must not fold these through its own `exp`.
            let exps: Vec<f32> = row
                .iter()
                .map(|&v| std::hint::black_box(v - m).exp())
                .collect();
            let mut sum = 0.0;
            for &e in &exps {
                sum += e;
            }
            let lse = m + exps.iter().sum::<f32>().ln();
            let soft: Vec<f32> = exps.iter().map(|&e| e / sum).collect();
            let log_soft: Vec<f32> = row.iter().map(|&v| v - lse).collect();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(softmax_rows(&x).data()), bits(&soft), "{row:?}");
            assert_eq!(
                bits(log_softmax_rows(&x).data()),
                bits(&log_soft),
                "{row:?}"
            );
        }
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Tensor::from_vec(vec![20.0, 0.0, 0.0], &[1, 3]).unwrap();
        let (loss, _) = cross_entropy_with_logits(&logits, &[0]);
        assert!(loss < 1e-6);
    }

    #[test]
    fn cross_entropy_gradient_matches_softmax_minus_onehot() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 0.5], &[1, 3]).unwrap();
        let (_, grad) = cross_entropy_with_logits(&logits, &[1]);
        let p = softmax_rows(&logits);
        assert!((grad.data()[0] - p.data()[0]).abs() < 1e-6);
        assert!((grad.data()[1] - (p.data()[1] - 1.0)).abs() < 1e-6);
        assert!((grad.data()[2] - p.data()[2]).abs() < 1e-6);
        // Gradient rows always sum to ~0.
        assert!(grad.data().iter().sum::<f32>().abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_averages_over_batch() {
        let logits = Tensor::from_vec(vec![0.0, 0.0, 0.0, 0.0], &[2, 2]).unwrap();
        let (loss, grad) = cross_entropy_with_logits(&logits, &[0, 1]);
        assert!((loss - (2.0f32).ln()).abs() < 1e-6);
        assert!((grad.data()[0] - (0.5 - 1.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_entropy_rejects_bad_label() {
        let logits = Tensor::zeros(&[1, 2]);
        cross_entropy_with_logits(&logits, &[2]);
    }
}
