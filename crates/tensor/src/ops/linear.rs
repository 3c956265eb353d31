//! Dense matrix products and the fully-connected layer kernel.
//!
//! These are the reference kernels: straightforward loops whose reduction
//! orders define the bit-exact contract the packed-panel microkernels in
//! [`super::gemm`] must reproduce. Their scalar primitives
//! ([`dot`](super::gemm::dot), [`axpy_skip_zero`](super::gemm::axpy_skip_zero))
//! live in that module, beside the packed kernels that replicate them.

use std::ops::Range;

use super::gemm::{
    axpy_skip_zero, dot, gemm_packed_acc_into, linear_packed_bias_into, KernelVariant,
    PackedWeights,
};
use crate::Tensor;

/// Matrix product `a[m,k] · b[k,n] -> [m,n]`.
///
/// Uses the cache-friendly i-k-j loop order so the inner loop streams over
/// contiguous rows of `b` and the output.
///
/// # Panics
///
/// Panics if the operands are not rank-2 or the inner dimensions differ.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, _) = mat_dims(a, "matmul lhs");
    let (_, n) = mat_dims(b, "matmul rhs");
    let mut out = Tensor::zeros(&[m, n]);
    matmul_into(a, b, &mut out);
    out
}

/// [`matmul`] into a caller-provided `[m, n]` output tensor.
///
/// The output is zeroed first, so its prior contents never leak into the
/// result; `matmul(a, b)` is exactly this over a fresh tensor.
///
/// # Panics
///
/// Panics on rank, inner-dimension, or output-shape mismatches.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k) = mat_dims(a, "matmul lhs");
    let (kb, n) = mat_dims(b, "matmul rhs");
    assert_eq!(k, kb, "matmul inner dimensions differ: {k} vs {kb}");
    assert_eq!(
        out.shape().dims(),
        &[m, n],
        "matmul output must be [{m}, {n}]"
    );
    out.fill_zero();
    let ad = a.data();
    let bd = b.data();
    let od = out.data_mut();
    // Four output rows per pass over `b`: the rows of the block share every
    // streamed `b` row, quartering the traffic on the dominant operand (for
    // conv-sized products `b` is far larger than any cache level, so it is
    // re-streamed from memory once per output row otherwise). Each output
    // element still accumulates its products in ascending-k order, so the
    // result is bit-for-bit the one-row, one-k-at-a-time loop's.
    let mut i = 0;
    while i + 4 <= m {
        let (o0, rest) = od[i * n..(i + 4) * n].split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        let a0 = &ad[i * k..(i + 1) * k];
        let a1 = &ad[(i + 1) * k..(i + 2) * k];
        let a2 = &ad[(i + 2) * k..(i + 3) * k];
        let a3 = &ad[(i + 3) * k..(i + 4) * k];
        let mut kk = 0;
        while kk + 4 <= k {
            let q0 = [a0[kk], a0[kk + 1], a0[kk + 2], a0[kk + 3]];
            let q1 = [a1[kk], a1[kk + 1], a1[kk + 2], a1[kk + 3]];
            let q2 = [a2[kk], a2[kk + 1], a2[kk + 2], a2[kk + 3]];
            let q3 = [a3[kk], a3[kk + 1], a3[kk + 2], a3[kk + 3]];
            let b0 = &bd[kk * n..(kk + 1) * n];
            let b1 = &bd[(kk + 1) * n..(kk + 2) * n];
            let b2 = &bd[(kk + 2) * n..(kk + 3) * n];
            let b3 = &bd[(kk + 3) * n..(kk + 4) * n];
            let dense = |q: &[f32; 4]| q.iter().all(|&v| v != 0.0);
            if dense(&q0) && dense(&q1) && dense(&q2) && dense(&q3) {
                for j in 0..n {
                    let v0 = b0[j];
                    let v1 = b1[j];
                    let v2 = b2[j];
                    let v3 = b3[j];
                    o0[j] = fma4(o0[j], &q0, v0, v1, v2, v3);
                    o1[j] = fma4(o1[j], &q1, v0, v1, v2, v3);
                    o2[j] = fma4(o2[j], &q2, v0, v1, v2, v3);
                    o3[j] = fma4(o3[j], &q3, v0, v1, v2, v3);
                }
            } else {
                // A zero somewhere in the block: per-row passes keep the
                // skip semantics (zero rows contribute no operations).
                matmul_k4_row(&q0, b0, b1, b2, b3, o0);
                matmul_k4_row(&q1, b0, b1, b2, b3, o1);
                matmul_k4_row(&q2, b0, b1, b2, b3, o2);
                matmul_k4_row(&q3, b0, b1, b2, b3, o3);
            }
            kk += 4;
        }
        for t in kk..k {
            let brow = &bd[t * n..(t + 1) * n];
            axpy_skip_zero(a0[t], brow, o0);
            axpy_skip_zero(a1[t], brow, o1);
            axpy_skip_zero(a2[t], brow, o2);
            axpy_skip_zero(a3[t], brow, o3);
        }
        i += 4;
    }
    // Leftover rows: same k-blocking, one row at a time.
    while i < m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut od[i * n..(i + 1) * n];
        let mut kk = 0;
        while kk + 4 <= k {
            let q = [arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]];
            matmul_k4_row(
                &q,
                &bd[kk * n..(kk + 1) * n],
                &bd[(kk + 1) * n..(kk + 2) * n],
                &bd[(kk + 2) * n..(kk + 3) * n],
                &bd[(kk + 3) * n..(kk + 4) * n],
                orow,
            );
            kk += 4;
        }
        for t in kk..k {
            axpy_skip_zero(arow[t], &bd[t * n..(t + 1) * n], orow);
        }
        i += 1;
    }
}

/// `acc + q[0]*v0 + q[1]*v1 + q[2]*v2 + q[3]*v3`, added in that (ascending
/// k) order.
#[inline(always)]
fn fma4(acc: f32, q: &[f32; 4], v0: f32, v1: f32, v2: f32, v3: f32) -> f32 {
    let mut s = acc;
    s += q[0] * v0;
    s += q[1] * v1;
    s += q[2] * v2;
    s += q[3] * v3;
    s
}

/// Four k-steps of one output row: each element accumulates its four
/// products in ascending-k order (bit-for-bit the one-k-at-a-time result),
/// but the row is loaded and stored once per four steps, and the
/// independent chains give the ALUs latency to hide. Falls back to the
/// skipping scalar passes when any step's `a` value is exactly zero.
#[inline]
fn matmul_k4_row(q: &[f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32], orow: &mut [f32]) {
    if q.iter().all(|&v| v != 0.0) {
        for ((((o, &v0), &v1), &v2), &v3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            *o = fma4(*o, q, v0, v1, v2, v3);
        }
    } else {
        axpy_skip_zero(q[0], b0, orow);
        axpy_skip_zero(q[1], b1, orow);
        axpy_skip_zero(q[2], b2, orow);
        axpy_skip_zero(q[3], b3, orow);
    }
}

/// Matrix product with the left operand transposed: `aᵀ[k,m]ᵀ · b[k,n] -> [m,n]`.
///
/// `a` is given as `[k, m]`; the product computed is `transpose(a) · b`.
///
/// # Panics
///
/// Panics if the operands are not rank-2 or their leading dimensions differ.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = mat_dims(a, "matmul_at lhs");
    let (kb, n) = mat_dims(b, "matmul_at rhs");
    assert_eq!(k, kb, "matmul_at leading dimensions differ: {k} vs {kb}");
    let mut out = Tensor::zeros(&[m, n]);
    let ad = a.data();
    let bd = b.data();
    let od = out.data_mut();
    for kk in 0..k {
        let arow = &ad[kk * m..(kk + 1) * m];
        let brow = &bd[kk * n..(kk + 1) * n];
        for (i, &aval) in arow.iter().enumerate() {
            axpy_skip_zero(aval, brow, &mut od[i * n..(i + 1) * n]);
        }
    }
    out
}

/// Matrix product with the right operand transposed: `a[m,k] · bᵀ[n,k]ᵀ -> [m,n]`.
///
/// `b` is given as `[n, k]`; the product computed is `a · transpose(b)`.
///
/// # Panics
///
/// Panics if the operands are not rank-2 or their trailing dimensions differ.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, _) = mat_dims(a, "matmul_bt lhs");
    let (n, _) = mat_dims(b, "matmul_bt rhs");
    let mut out = Tensor::zeros(&[m, n]);
    matmul_bt_into(a, b, &mut out);
    out
}

/// [`matmul_bt`] into a caller-provided `[m, n]` output tensor.
///
/// Every output element is assigned, so prior contents never leak.
///
/// # Panics
///
/// Panics on rank, trailing-dimension, or output-shape mismatches.
pub fn matmul_bt_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k) = mat_dims(a, "matmul_bt lhs");
    let (n, kb) = mat_dims(b, "matmul_bt rhs");
    assert_eq!(k, kb, "matmul_bt trailing dimensions differ: {k} vs {kb}");
    assert_eq!(
        out.shape().dims(),
        &[m, n],
        "matmul_bt output must be [{m}, {n}]"
    );
    let ad = a.data();
    let bd = b.data();
    let od = out.data_mut();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &bd[j * k..(j + 1) * k];
            od[i * n + j] = dot(arow, brow);
        }
    }
}

/// Fully-connected layer: `x[n, in] · wᵀ[out, in]ᵀ + bias -> [n, out]`.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn linear(x: &Tensor, weight: &Tensor, bias: &Tensor) -> Tensor {
    let (n, _) = mat_dims(x, "linear input");
    let (out_f, _) = mat_dims(weight, "linear weight");
    let mut out = Tensor::zeros(&[n, out_f]);
    linear_into(x, weight, bias, &mut out);
    out
}

/// [`linear`] into a caller-provided `[n, out]` output tensor.
///
/// Every output element is assigned, so prior contents never leak.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn linear_into(x: &Tensor, weight: &Tensor, bias: &Tensor, out: &mut Tensor) {
    let (out_f, in_f) = mat_dims(weight, "linear weight");
    assert_eq!(
        bias.len(),
        out_f,
        "linear bias length {} does not match {out_f} outputs",
        bias.len()
    );
    let (n, xin) = mat_dims(x, "linear input");
    assert_eq!(xin, in_f, "linear input features {xin} vs weight {in_f}");
    matmul_bt_into(x, weight, out);
    let od = out.data_mut();
    let bd = bias.data();
    for row in 0..n {
        for (o, &b) in od[row * out_f..(row + 1) * out_f].iter_mut().zip(bd) {
            *o += b;
        }
    }
}

/// [`linear_into`] over pre-packed weights: dispatches the packed-panel
/// microkernel family instead of the reference loops. Bit-for-bit identical
/// to [`linear_into`] for any [`super::gemm::KernelVariant`].
///
/// # Panics
///
/// Panics on rank or dimension mismatches, or if `packed` was built for a
/// different weight geometry.
pub fn linear_packed_into(x: &Tensor, packed: &PackedWeights, bias: &Tensor, out: &mut Tensor) {
    let (out_f, in_f) = (packed.rows(), packed.k());
    let (n, xin) = mat_dims(x, "linear input");
    assert_eq!(xin, in_f, "linear input features {xin} vs packed {in_f}");
    assert_eq!(
        out.shape().dims(),
        &[n, out_f],
        "linear output must be [{n}, {out_f}]"
    );
    linear_packed_bias_into(packed, x.data(), n, bias.data(), out.data_mut());
}

/// Backward pass of [`linear`].
///
/// Returns `(grad_input, grad_weight, grad_bias)` given the stored input and
/// the gradient of the loss with respect to the output: the three pieces
/// of [`linear_input_grad_into`], [`linear_weight_grad_rows`] over every row
/// and [`linear_bias_grad`], bit-for-bit the reference loops (for finite
/// operands, the contract of [`super::gemm`]).
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn linear_backward(x: &Tensor, weight: &Tensor, grad_out: &Tensor) -> (Tensor, Tensor, Tensor) {
    let (out_f, in_f) = mat_dims(weight, "linear weight");
    let mut grad_input = Tensor::zeros(&[grad_out.shape().dim(0), in_f]);
    linear_input_grad_into(weight, grad_out, &mut grad_input);
    let mut grad_weight = Tensor::zeros(&[out_f, in_f]);
    linear_weight_grad_rows(&[(x, grad_out)], 0..out_f, grad_weight.data_mut());
    (grad_input, grad_weight, linear_bias_grad(&[grad_out]))
}

/// `dX = dY · W` of [`linear_backward`] into `grad_input` (`[n, in]`,
/// every element assigned): every element accumulates over the output
/// features in ascending order, exactly [`matmul`]`(grad_out, weight)`.
/// Rows are independent, so any split of the batch into row blocks gives
/// the same rows. [`linear_input_grad_blocks_into`] over blocks of
/// [`DX_FEATURE_BLOCK`] weight rows.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn linear_input_grad_into(weight: &Tensor, grad_out: &Tensor, grad_input: &mut Tensor) {
    let (out_f, in_f) = mat_dims(weight, "linear weight");
    let (_, gout) = mat_dims(grad_out, "linear grad_out");
    assert_eq!(gout, out_f, "grad_out features {gout} vs weight {out_f}");
    let blocks: Vec<&[f32]> = weight
        .data()
        .chunks(DX_FEATURE_BLOCK * in_f.max(1))
        .collect();
    linear_input_grad_blocks_into(&blocks, grad_out, grad_input);
}

/// [`linear_input_grad_into`] with the weight given as consecutive blocks
/// of its rows, in order, each row-major with `grad_input`'s width.
///
/// Each block's columns of `dY` are packed as panels
/// ([`KernelVariant::ACCUMULATING`]) and continue the zeroed accumulators
/// over that block's weight rows ([`gemm_packed_acc_into`]), so the weight
/// streams from memory once, a few rows at a time, and its row slices stay
/// cached for every panel.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn linear_input_grad_blocks_into(
    blocks: &[&[f32]],
    grad_out: &Tensor,
    grad_input: &mut Tensor,
) {
    let (n, out_f) = mat_dims(grad_out, "linear grad_out");
    let (gn, in_f) = mat_dims(grad_input, "linear grad_input");
    assert_eq!(gn, n, "linear grad_input must have {n} rows, got {gn}");
    let rows: usize = blocks.iter().map(|b| b.len() / in_f.max(1)).sum();
    assert_eq!(
        rows, out_f,
        "weight blocks hold {rows} rows, grad_out {out_f}"
    );
    grad_input.fill_zero();
    if in_f == 0 {
        return;
    }
    let mut first = 0;
    let mut cols = Vec::new();
    for block in blocks {
        let k = block.len() / in_f.max(1);
        assert_eq!(block.len(), k * in_f, "weight block of whole rows");
        cols.clear();
        for row in grad_out.data().chunks_exact(out_f.max(1)) {
            cols.extend_from_slice(&row[first..first + k]);
        }
        let packed = PackedWeights::pack(&cols, n, k, KernelVariant::ACCUMULATING);
        gemm_packed_acc_into(&packed, block, in_f, grad_input.data_mut());
        first += k;
    }
}

/// Weight rows per block of [`linear_input_grad_into`].
const DX_FEATURE_BLOCK: usize = 16;

/// Rows `rows` of `dW = dYᵀ · X` of [`linear_backward`] into the zeroed
/// `out` (`rows.len() × in_f`), for a batch held as `(X, dY)` parts in
/// batch order. Each element accumulates its products over the batch rows
/// in ascending order, carrying on from one part into the next, so the
/// rows are bit-for-bit those of [`matmul_at`]`(dY, X)` over the whole
/// batch however it is cut into parts.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn linear_weight_grad_rows(parts: &[(&Tensor, &Tensor)], rows: Range<usize>, out: &mut [f32]) {
    for &(x, grad_out) in parts {
        let (n, in_f) = mat_dims(x, "linear input");
        let (gn, out_f) = mat_dims(grad_out, "linear grad_out");
        assert_eq!(gn, n, "linear input must have {gn} rows, got {n}");
        assert!(rows.end <= out_f, "weight rows {rows:?} out of {out_f}");
        assert_eq!(out.len(), rows.len() * in_f, "dW block size mismatch");
        if n == 0 || rows.is_empty() {
            continue;
        }
        // The block's rows of dYᵀ, `rows.len() × n`.
        let mut grad_t = vec![0.0f32; rows.len() * n];
        for (i, grow) in grad_out.data().chunks_exact(out_f).enumerate() {
            for (r, &g) in grow[rows.clone()].iter().enumerate() {
                grad_t[r * n + i] = g;
            }
        }
        let packed = PackedWeights::pack(&grad_t, rows.len(), n, KernelVariant::ACCUMULATING);
        gemm_packed_acc_into(&packed, x.data(), in_f, out);
    }
}

/// `db` of [`linear_backward`]: the column sums of `dY`, added row by row
/// from `+0.0` over parts given in batch order.
///
/// # Panics
///
/// Panics on rank mismatches or parts of different widths.
pub fn linear_bias_grad(grads: &[&Tensor]) -> Tensor {
    let out_f = grads
        .first()
        .map_or(0, |g| mat_dims(g, "linear grad_out").1);
    let mut grad_bias = Tensor::zeros(&[out_f]);
    let gb = grad_bias.data_mut();
    for g in grads {
        assert_eq!(
            mat_dims(g, "linear grad_out").1,
            out_f,
            "grad_out widths differ"
        );
        for row in g.data().chunks_exact(out_f.max(1)) {
            for (b, &v) in gb.iter_mut().zip(row) {
                *b += v;
            }
        }
    }
    grad_bias
}

fn mat_dims(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(
        t.shape().rank(),
        2,
        "{what} must be rank-2, got {}",
        t.shape()
    );
    (t.shape().dim(0), t.shape().dim(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).expect("test tensor")
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transposed_variants_agree_with_plain_matmul() {
        let a = t(&[1.0, -2.0, 0.5, 3.0, 4.0, -1.0], &[2, 3]);
        let b = t(&[2.0, 1.0, 0.0, -1.0, 1.5, 2.5], &[3, 2]);
        let c = matmul(&a, &b);

        // aᵀ stored as [3,2] -> matmul_at should reproduce c.
        let a_t = t(&[1.0, 3.0, -2.0, 4.0, 0.5, -1.0], &[3, 2]);
        assert_eq!(matmul_at(&a_t, &b).data(), c.data());

        // bᵀ stored as [2,3] -> matmul_bt should reproduce c.
        let b_t = t(&[2.0, 0.0, 1.5, 1.0, -1.0, 2.5], &[2, 3]);
        assert_eq!(matmul_bt(&a, &b_t).data(), c.data());
    }

    #[test]
    fn identity_is_neutral() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(matmul(&a, &Tensor::eye(2)).data(), a.data());
        assert_eq!(matmul(&Tensor::eye(2), &a).data(), a.data());
    }

    #[test]
    fn linear_adds_bias_per_output() {
        let x = t(&[1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let w = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let b = t(&[0.1, 0.2, 0.3], &[3]);
        let y = linear(&x, &w, &b);
        assert_eq!(y.shape().dims(), &[2, 3]);
        let expect = [1.1, 3.2, 5.3, 2.1, 4.2, 6.3];
        for (a, e) in y.data().iter().zip(expect.iter()) {
            assert!((a - e).abs() < 1e-6);
        }
    }

    #[test]
    fn linear_backward_matches_finite_differences() {
        let x = t(&[0.5, -1.0, 2.0, 0.25, 1.5, -0.75], &[2, 3]);
        let w = t(&[0.1, -0.2, 0.3, 0.4, 0.5, -0.6], &[2, 3]);
        let b = t(&[0.05, -0.05], &[2]);
        let grad_out = t(&[1.0, -1.0, 0.5, 2.0], &[2, 2]);

        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            let y = linear(x, w, b);
            y.data()
                .iter()
                .zip(grad_out.data().iter())
                .map(|(&y, &g)| y * g)
                .sum()
        };

        let (gx, gw, gb) = linear_backward(&x, &w, &grad_out);
        let eps = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < 1e-2,
                "gx[{i}] {num} vs {}",
                gx.data()[i]
            );
        }
        for i in 0..w.len() {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!(
                (num - gw.data()[i]).abs() < 1e-2,
                "gw[{i}] {num} vs {}",
                gw.data()[i]
            );
        }
        for i in 0..b.len() {
            let mut bp = b.clone();
            bp.data_mut()[i] += eps;
            let mut bm = b.clone();
            bm.data_mut()[i] -= eps;
            let num = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
            assert!(
                (num - gb.data()[i]).abs() < 1e-2,
                "gb[{i}] {num} vs {}",
                gb.data()[i]
            );
        }
    }

    /// The input gradient across several weight blocks and column passes
    /// (and batches that fill no four-row panel) is bit for bit the
    /// reference product.
    #[test]
    fn input_grad_matches_matmul_across_blocks_and_passes() {
        let value = |i: usize| match i % 5 {
            0 => 0.0,
            r => (i % 97) as f32 * 0.03 - 1.4 + r as f32 * 1e-3,
        };
        let tensor = |dims: &[usize], salt: usize| {
            let len = dims.iter().product();
            t(
                &(0..len).map(|i| value(i * 7 + salt)).collect::<Vec<_>>(),
                dims,
            )
        };
        for (n, out_f, in_f) in [(16, 96, 700), (5, 33, 259), (1, 65, 17), (7, 32, 256)] {
            let weight = tensor(&[out_f, in_f], 1);
            let grad_out = tensor(&[n, out_f], 2);
            let mut got = Tensor::full(&[n, in_f], f32::NAN);
            linear_input_grad_into(&weight, &grad_out, &mut got);
            let want = matmul(&grad_out, &weight);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{n}x{out_f}x{in_f}");
            // Uneven row blocks give the same rows.
            let blocks: Vec<&[f32]> = weight.data().chunks(5 * in_f).collect();
            let mut got = Tensor::full(&[n, in_f], f32::NAN);
            linear_input_grad_blocks_into(&blocks, &grad_out, &mut got);
            assert_eq!(
                bits(&got),
                bits(&want),
                "{n}x{out_f}x{in_f} in 5-row blocks"
            );
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_rejects_mismatched_inner_dims() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[2, 2]));
    }
}
