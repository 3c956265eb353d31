//! Pooling kernels: max pooling, average pooling, and global average pooling.

use crate::Tensor;

/// Flat argmax indices recorded by [`maxpool2d`], consumed by
/// [`maxpool2d_backward_into`] to route gradients to the winning inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxPoolIndices {
    indices: Vec<usize>,
    input_dims: [usize; 4],
}

impl MaxPoolIndices {
    /// An empty record, to be filled by [`maxpool2d_into`] (reusing its
    /// allocation across calls).
    pub fn empty() -> Self {
        Self {
            indices: Vec::new(),
            input_dims: [0; 4],
        }
    }

    /// The recorded winner index (into the flat input buffer) per output.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }
}

/// Max pooling with square window `k` and stride `s` over an NCHW batch.
///
/// Returns the pooled tensor and the winner indices needed for backward.
///
/// # Panics
///
/// Panics if the input is not rank 4, or `k`/`s` is zero, or the input is
/// smaller than the window.
pub fn maxpool2d(input: &Tensor, k: usize, s: usize) -> (Tensor, MaxPoolIndices) {
    assert!(k > 0 && s > 0, "pool window and stride must be positive");
    let (n, c, h, w) = input.shape().as_nchw();
    assert!(
        h >= k && w >= k,
        "input {h}x{w} smaller than pool window {k}"
    );
    let oh = (h - k) / s + 1;
    let ow = (w - k) / s + 1;
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let mut indices = MaxPoolIndices::empty();
    maxpool2d_into(input, k, s, &mut out, &mut indices);
    (out, indices)
}

/// [`maxpool2d`] into a caller-provided output tensor and index record,
/// reusing both allocations across calls.
///
/// Every output element and index is assigned, so prior contents never
/// leak.
///
/// # Panics
///
/// Panics on the same violations as [`maxpool2d`], or if `out` does not
/// have the pooled output shape.
pub fn maxpool2d_into(
    input: &Tensor,
    k: usize,
    s: usize,
    out: &mut Tensor,
    record: &mut MaxPoolIndices,
) {
    assert!(k > 0 && s > 0, "pool window and stride must be positive");
    let (n, c, h, w) = input.shape().as_nchw();
    assert!(
        h >= k && w >= k,
        "input {h}x{w} smaller than pool window {k}"
    );
    let oh = (h - k) / s + 1;
    let ow = (w - k) / s + 1;
    assert_eq!(out.len(), n * c * oh * ow, "maxpool output length mismatch");
    record.indices.clear();
    record.indices.resize(n * c * oh * ow, 0);
    record.input_dims = [n, c, h, w];
    let id = input.data();
    let planes = out
        .data_mut()
        .chunks_exact_mut(oh * ow)
        .zip(record.indices.chunks_exact_mut(oh * ow));
    for (p, (oplane, iplane)) in planes.enumerate() {
        let base = p * h * w;
        let plane = &id[base..base + h * w];
        let rows = oplane.chunks_exact_mut(ow).zip(iplane.chunks_exact_mut(ow));
        for (oy, (orow, irow)) in rows.enumerate() {
            let mut ox = 0;
            while ox + POOL_LANES <= ow {
                let (best, at) = maxpool_windows::<POOL_LANES>(plane, w, (k, s), oy, ox);
                orow[ox..ox + POOL_LANES].copy_from_slice(&best);
                for (i, at) in irow[ox..ox + POOL_LANES].iter_mut().zip(at) {
                    *i = base + at;
                }
                ox += POOL_LANES;
            }
            for ox in ox..ow {
                let ([best], [at]) = maxpool_windows::<1>(plane, w, (k, s), oy, ox);
                orow[ox] = best;
                irow[ox] = base + at;
            }
        }
    }
}

/// Output columns of one max-pool row computed side by side.
const POOL_LANES: usize = 8;

/// The maxima of the `L` pooling windows of output row `oy` from column
/// `ox0` on, and the index of each winner in `plane`.
///
/// The winner is picked with selects, not branches: it is the first strict
/// maximum in raster order, and a window with nothing above −∞ (or only
/// NaN) records its own first pixel.
#[inline(always)]
fn maxpool_windows<const L: usize>(
    plane: &[f32],
    w: usize,
    (k, s): (usize, usize),
    oy: usize,
    ox0: usize,
) -> ([f32; L], [usize; L]) {
    let mut best = [f32::NEG_INFINITY; L];
    // Offsets from each window's first pixel: 32-bit, so one vector holds
    // all lanes.
    let mut at = [0u32; L];
    for ky in 0..k {
        let row = &plane[(oy * s + ky) * w..][..w];
        for kx in 0..k {
            let off = (ky * w + kx) as u32;
            let xs = &row[ox0 * s + kx..][..(L - 1) * s + 1];
            for l in 0..L {
                let v = xs[l * s];
                let wins = v > best[l];
                best[l] = if wins { v } else { best[l] };
                at[l] = if wins { off } else { at[l] };
            }
        }
    }
    let first = oy * s * w + ox0 * s;
    (
        best,
        std::array::from_fn(|l| first + l * s + at[l] as usize),
    )
}

/// Backward pass of [`maxpool2d`] into the input-shaped `grad_input`:
/// gradients flow only to each window winner, every other element is
/// zero.
///
/// # Panics
///
/// Panics if `grad_out` does not match the pooling output that produced
/// `indices`, or `grad_input` its input.
pub fn maxpool2d_backward_into(
    grad_out: &Tensor,
    indices: &MaxPoolIndices,
    grad_input: &mut Tensor,
) {
    assert_eq!(
        grad_out.len(),
        indices.indices.len(),
        "grad_out does not match recorded pooling output"
    );
    assert_eq!(
        grad_input.shape().dims(),
        &indices.input_dims[..],
        "grad_input does not match the pooled input"
    );
    grad_input.fill_zero();
    let gi = grad_input.data_mut();
    for (&idx, &g) in indices.indices.iter().zip(grad_out.data().iter()) {
        gi[idx] += g;
    }
}

/// Average pooling with square window `k` and stride `s` over an NCHW batch.
///
/// # Panics
///
/// Panics on rank or size violations (see [`maxpool2d`]).
pub fn avgpool2d(input: &Tensor, k: usize, s: usize) -> Tensor {
    assert!(k > 0 && s > 0, "pool window and stride must be positive");
    let (n, c, h, w) = input.shape().as_nchw();
    assert!(
        h >= k && w >= k,
        "input {h}x{w} smaller than pool window {k}"
    );
    let oh = (h - k) / s + 1;
    let ow = (w - k) / s + 1;
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    avgpool2d_into(input, k, s, &mut out);
    out
}

/// [`avgpool2d`] into a caller-provided output tensor.
///
/// Every output element is assigned, so prior contents never leak.
///
/// # Panics
///
/// Panics on the same violations as [`avgpool2d`], or if `out` does not
/// have the pooled output length.
pub fn avgpool2d_into(input: &Tensor, k: usize, s: usize, out: &mut Tensor) {
    assert!(k > 0 && s > 0, "pool window and stride must be positive");
    let (n, c, h, w) = input.shape().as_nchw();
    assert!(
        h >= k && w >= k,
        "input {h}x{w} smaller than pool window {k}"
    );
    let oh = (h - k) / s + 1;
    let ow = (w - k) / s + 1;
    assert_eq!(out.len(), n * c * oh * ow, "avgpool output length mismatch");
    let norm = 1.0 / (k * k) as f32;
    let id = input.data();
    let od = out.data_mut();
    for img in 0..n {
        for ch in 0..c {
            let ibase = (img * c + ch) * h * w;
            let obase = (img * c + ch) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for ky in 0..k {
                        let iy = oy * s + ky;
                        for kx in 0..k {
                            acc += id[ibase + iy * w + ox * s + kx];
                        }
                    }
                    od[obase + oy * ow + ox] = acc * norm;
                }
            }
        }
    }
}

/// Backward pass of [`avgpool2d`] into the input-shaped `grad_input`:
/// spreads each gradient uniformly over its window.
///
/// # Panics
///
/// Panics if `grad_out` is inconsistent with `grad_input`'s geometry.
pub fn avgpool2d_backward_into(grad_out: &Tensor, k: usize, s: usize, grad_input: &mut Tensor) {
    let (n, c, h, w) = grad_input.shape().as_nchw();
    let (gn, gc, oh, ow) = grad_out.shape().as_nchw();
    assert_eq!((gn, gc), (n, c), "grad_out batch/channel mismatch");
    assert_eq!(
        ((h - k) / s + 1, (w - k) / s + 1),
        (oh, ow),
        "grad_out spatial mismatch"
    );
    let norm = 1.0 / (k * k) as f32;
    grad_input.fill_zero();
    let gd = grad_out.data();
    let gi = grad_input.data_mut();
    for img in 0..n {
        for ch in 0..c {
            let ibase = (img * c + ch) * h * w;
            let obase = (img * c + ch) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = gd[obase + oy * ow + ox] * norm;
                    for ky in 0..k {
                        let iy = oy * s + ky;
                        for kx in 0..k {
                            gi[ibase + iy * w + ox * s + kx] += g;
                        }
                    }
                }
            }
        }
    }
}

/// Global average pooling: `[n, c, h, w] -> [n, c]`.
///
/// # Panics
///
/// Panics if the input is not rank 4.
pub fn global_avgpool(input: &Tensor) -> Tensor {
    let (n, c, _, _) = input.shape().as_nchw();
    let mut out = Tensor::zeros(&[n, c]);
    global_avgpool_into(input, &mut out);
    out
}

/// [`global_avgpool`] into a caller-provided `[n, c]` output tensor.
///
/// Every output element is assigned, so prior contents never leak.
///
/// # Panics
///
/// Panics if the input is not rank 4 or `out` does not hold `n * c`
/// elements.
pub fn global_avgpool_into(input: &Tensor, out: &mut Tensor) {
    let (n, c, h, w) = input.shape().as_nchw();
    assert_eq!(out.len(), n * c, "global_avgpool output length mismatch");
    let plane = h * w;
    let norm = 1.0 / plane as f32;
    let id = input.data();
    let od = out.data_mut();
    for img in 0..n {
        for ch in 0..c {
            let base = (img * c + ch) * plane;
            od[img * c + ch] = id[base..base + plane].iter().sum::<f32>() * norm;
        }
    }
}

/// Backward pass of [`global_avgpool`] into the input-shaped
/// `grad_input`; every element is assigned.
///
/// # Panics
///
/// Panics if `grad_out` is not `[n, c]` for `grad_input`'s geometry.
pub fn global_avgpool_backward_into(grad_out: &Tensor, grad_input: &mut Tensor) {
    let (n, c, h, w) = grad_input.shape().as_nchw();
    assert_eq!(grad_out.shape().dims(), &[n, c], "grad_out must be [n, c]");
    let plane = h * w;
    let norm = 1.0 / plane as f32;
    let gd = grad_out.data();
    let gi = grad_input.data_mut();
    for img in 0..n {
        for ch in 0..c {
            let g = gd[img * c + ch] * norm;
            let base = (img * c + ch) * plane;
            for v in &mut gi[base..base + plane] {
                *v = g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The output of a backward `_into` kernel run into a fresh tensor of
    /// `dims`, poisoned so that an element it leaves unassigned shows.
    fn into(dims: &[usize], f: impl FnOnce(&mut Tensor)) -> Tensor {
        let mut out = Tensor::full(dims, f32::NAN);
        f(&mut out);
        out
    }

    #[test]
    fn maxpool_picks_window_maxima() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 3.0, 4.0, 0.0, 1.0, 2.0, 7.0, 1.0, 0.0, 0.0, 2.0, 3.0, 1.0, 6.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let (y, idx) = maxpool2d(&x, 2, 2);
        assert_eq!(y.data(), &[4.0, 5.0, 7.0, 6.0]);
        assert_eq!(idx.indices(), &[4, 2, 8, 15]);
    }

    #[test]
    fn maxpool_backward_routes_to_winners() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let (_, idx) = maxpool2d(&x, 2, 2);
        let g = Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap();
        let gx = into(&[1, 1, 2, 2], |o| maxpool2d_backward_into(&g, &idx, o));
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn maxpool_window_without_a_finite_value_routes_to_itself() {
        // Image 0 is ordinary; image 1's only window holds -inf and NaN, so
        // nothing beats the -inf start: its winner is its own first pixel,
        // and its gradient stays in image 1.
        let x = Tensor::from_vec(
            vec![
                1.0,
                2.0,
                3.0,
                4.0,
                f32::NEG_INFINITY,
                f32::NAN,
                f32::NAN,
                -f32::INFINITY,
            ],
            &[2, 1, 2, 2],
        )
        .unwrap();
        let (y, idx) = maxpool2d(&x, 2, 2);
        assert_eq!(y.data(), &[4.0, f32::NEG_INFINITY]);
        assert_eq!(idx.indices(), &[3, 4]);
        let g = Tensor::from_vec(vec![1.0, 10.0], &[2, 1, 1, 1]).unwrap();
        let gx = into(&[2, 1, 2, 2], |o| maxpool2d_backward_into(&g, &idx, o));
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 1.0, 10.0, 0.0, 0.0, 0.0]);
    }

    /// The branchy window loop the select-based kernel replaced (with each
    /// window's first pixel as its starting winner): same maxima, same
    /// indices, over ragged rows (full lane blocks and a tail), strides
    /// below, at and above the window, ties, -inf and NaN.
    #[test]
    fn maxpool_matches_the_branchy_loop() {
        for (n, c, h, w, k, s) in [
            (1, 1, 2, 2, 2, 2),
            (2, 3, 9, 21, 2, 2),
            (1, 2, 7, 19, 3, 1),
            (3, 1, 11, 35, 3, 2),
            (1, 2, 6, 30, 2, 3),
            (2, 16, 32, 32, 2, 2),
        ] {
            let len = n * c * h * w;
            let data = (0..len)
                .map(|i| match (i * 7919) % 23 {
                    0 => f32::NEG_INFINITY,
                    1 => f32::NAN,
                    r => (r % 5) as f32 - 2.0,
                })
                .collect();
            let x = Tensor::from_vec(data, &[n, c, h, w]).unwrap();
            let (y, idx) = maxpool2d(&x, k, s);
            let (oh, ow) = ((h - k) / s + 1, (w - k) / s + 1);
            let mut at = 0;
            for p in 0..n * c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let first = p * h * w + oy * s * w + ox * s;
                        let (mut best, mut best_idx) = (f32::NEG_INFINITY, first);
                        for ky in 0..k {
                            for kx in 0..k {
                                let i = first + ky * w + kx;
                                if x.data()[i] > best {
                                    best = x.data()[i];
                                    best_idx = i;
                                }
                            }
                        }
                        assert_eq!(y.data()[at].to_bits(), best.to_bits(), "{n}x{c}x{h}x{w}");
                        assert_eq!(idx.indices()[at], best_idx, "{n}x{c}x{h}x{w} k{k} s{s}");
                        at += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn avgpool_averages_windows() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]).unwrap();
        let y = avgpool2d(&x, 2, 2);
        assert_eq!(y.data(), &[4.0]);
    }

    #[test]
    fn avgpool_backward_spreads_uniformly() {
        let g = Tensor::from_vec(vec![8.0], &[1, 1, 1, 1]).unwrap();
        let gx = into(&[1, 1, 2, 2], |o| avgpool2d_backward_into(&g, 2, 2, o));
        assert_eq!(gx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn global_avgpool_reduces_planes() {
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
            &[1, 2, 2, 2],
        )
        .unwrap();
        let y = global_avgpool(&x);
        assert_eq!(y.shape().dims(), &[1, 2]);
        assert_eq!(y.data(), &[2.5, 25.0]);
    }

    #[test]
    fn global_avgpool_backward_is_uniform() {
        let g = Tensor::from_vec(vec![4.0, 8.0], &[1, 2]).unwrap();
        let gx = into(&[1, 2, 2, 2], |o| global_avgpool_backward_into(&g, o));
        assert_eq!(gx.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn pool_shapes_with_stride() {
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let (y, _) = maxpool2d(&x, 2, 2);
        assert_eq!(y.shape().dims(), &[2, 3, 4, 4]);
        let y = avgpool2d(&x, 2, 2);
        assert_eq!(y.shape().dims(), &[2, 3, 4, 4]);
    }
}
