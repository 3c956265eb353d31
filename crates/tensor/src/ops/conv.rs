//! 2-D convolution kernels (standard and depthwise) via im2col + GEMM.

use std::ops::Range;

use crate::{Shape, Tensor};

use super::gemm::{
    gemm_packed_bias_into, linear_packed_bias_into, transpose, KernelVariant, PackedWeights,
};
use super::linear::{matmul_at, matmul_bt, matmul_into};

/// Geometry of a 2-D convolution.
///
/// # Example
///
/// ```
/// use advhunter_tensor::ops::Conv2dSpec;
///
/// let spec = Conv2dSpec::new(3, 16, 3, 1, 1);
/// assert_eq!(spec.out_hw(32, 32), (32, 32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input of `h × w`.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        assert!(
            ph >= self.kernel && pw >= self.kernel,
            "padded input {ph}x{pw} smaller than kernel {}",
            self.kernel
        );
        (
            (ph - self.kernel) / self.stride + 1,
            (pw - self.kernel) / self.stride + 1,
        )
    }

    /// Whether this is a 1×1, stride-1, unpadded convolution, whose im2col
    /// matrix is the input image itself.
    fn is_pointwise(&self) -> bool {
        (self.kernel, self.stride, self.padding) == (1, 1, 0)
    }

    /// Number of weight elements: `out_c * in_c * k * k`.
    pub fn weight_len(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }

    /// Floats of one image's slot of [`conv2d_weight_partials`]: the
    /// transposed filter gradient, then one bias sum per output channel.
    pub fn partial_len(&self) -> usize {
        self.weight_len() + self.out_channels
    }

    /// Multiply-accumulate count for an `h × w` input (dense execution).
    pub fn mac_count(&self, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.out_hw(h, w);
        (self.out_channels * self.in_channels * self.kernel * self.kernel * oh * ow) as u64
    }
}

/// Lowers one CHW image into the im2col matrix `[C*k*k, oh*ow]`.
fn im2col(img: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Tensor {
    let k = spec.kernel;
    let (oh, ow) = spec.out_hw(h, w);
    let mut out = Tensor::zeros(&[c * k * k, oh * ow]);
    im2col_into(img, c, h, w, spec, &mut out);
    out
}

/// [`im2col`] into a caller-provided `[C*k*k, oh*ow]` tensor.
///
/// Every position is written exactly once — in-bounds positions get the
/// gathered pixel, padding positions get an explicit 0 — so no up-front
/// clear of the (large) lowering buffer is needed.
fn im2col_into(img: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec, out: &mut Tensor) {
    let k = spec.kernel;
    let s = spec.stride;
    let pad = spec.padding;
    let (oh, ow) = spec.out_hw(h, w);
    let rows = c * k * k;
    let cols = oh * ow;
    debug_assert_eq!(out.shape().dims(), &[rows, cols]);
    let od = out.data_mut();
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ch * k + ky) * k + kx;
                let orow = &mut od[row * cols..(row + 1) * cols];
                let (ox_lo, ox_hi) = interior_outputs(kx, 1, (w, ow), spec);
                if ox_lo >= ox_hi {
                    orow.fill(0.0);
                    continue;
                }
                for oy in 0..oh {
                    let iy = (oy * s + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        orow[oy * ow..(oy + 1) * ow].fill(0.0);
                        continue;
                    }
                    let ibase = (ch * h + iy as usize) * w;
                    let ix0 = ox_lo * s + kx - pad;
                    orow[oy * ow..oy * ow + ox_lo].fill(0.0);
                    orow[oy * ow + ox_hi..(oy + 1) * ow].fill(0.0);
                    let dst = &mut orow[oy * ow + ox_lo..oy * ow + ox_hi];
                    if s == 1 {
                        dst.copy_from_slice(&img[ibase + ix0..ibase + ix0 + (ox_hi - ox_lo)]);
                    } else {
                        let src = &img[ibase + ix0..];
                        for (i, d) in dst.iter_mut().enumerate() {
                            *d = src[i * s];
                        }
                    }
                }
            }
        }
    }
}

/// Scatters an im2col-shaped gradient back onto the input image (col2im),
/// adding into `img` in the fixed channel, kernel-row, kernel-column,
/// output-position order.
///
/// The in-bounds output rows and columns of each kernel tap are hoisted out
/// of the inner loop, as in [`im2col_into`]: at stride 1 each output row's
/// run is one contiguous slice add. Within one tap every input pixel is hit
/// at most once, so each pixel still receives its adds in ascending tap
/// order and the sums are bit-identical to the per-element bounds-checked
/// loop (kept as [`col2im_add_reference`]).
fn col2im_add(cols: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec, img: &mut [f32]) {
    let (k, s, pad) = (spec.kernel, spec.stride, spec.padding);
    let (oh, ow) = spec.out_hw(h, w);
    let ncols = oh * ow;
    debug_assert_eq!(img.len(), c * h * w);
    for (ch, plane) in img.chunks_exact_mut((h * w).max(1)).enumerate() {
        for ky in 0..k {
            let (oy_lo, oy_hi) = interior_outputs(ky, 1, (h, oh), spec);
            for kx in 0..k {
                let (ox_lo, ox_hi) = interior_outputs(kx, 1, (w, ow), spec);
                if ox_lo >= ox_hi {
                    continue;
                }
                let row = (ch * k + ky) * k + kx;
                let crow = &cols[row * ncols..(row + 1) * ncols];
                let ix0 = ox_lo * s + kx - pad;
                let run = ox_hi - ox_lo;
                for oy in oy_lo..oy_hi {
                    let irow = &mut plane[(oy * s + ky - pad) * w..][..w];
                    let src = &crow[oy * ow + ox_lo..][..run];
                    if s == 1 {
                        for (d, &v) in irow[ix0..ix0 + run].iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in irow[ix0..].iter_mut().step_by(s).zip(src) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// The per-element, bounds-checked col2im loop that [`col2im_add`]
/// replaced: the oracle of [`conv2d_backward_reference`].
fn col2im_add_reference(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    img: &mut [f32],
) {
    let k = spec.kernel;
    let (oh, ow) = spec.out_hw(h, w);
    let ncols = oh * ow;
    debug_assert_eq!(img.len(), c * h * w);
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ch * k + ky) * k + kx;
                let crow = &cols[row * ncols..(row + 1) * ncols];
                for oy in 0..oh {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let ibase = (ch * h + iy as usize) * w;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        img[ibase + ix as usize] += crow[oy * ow + ox];
                    }
                }
            }
        }
    }
}

/// Standard 2-D convolution over an NCHW batch.
///
/// `weight` is `[out_c, in_c * k * k]` (each row is one flattened filter),
/// `bias` is `[out_c]`. Returns `[n, out_c, oh, ow]`.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `spec`.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let (n, c, h, w) = input.shape().as_nchw();
    let (oh, ow) = spec.out_hw(h, w);
    let mut out = Tensor::zeros(&[n, spec.out_channels, oh, ow]);
    let mut scratch = Conv2dScratch::new(c, h, w, spec);
    conv2d_into(input, weight, bias, spec, &mut scratch, &mut out);
    out
}

/// Reusable intermediate buffers of the convolution kernels: the im2col
/// lowering, the pre-bias GEMM product of [`conv2d_into`], and what the
/// backward pieces use. Each call shapes them to its own geometry, so one
/// scratch serves every convolution of a graph; sized by
/// [`Conv2dScratch::new`] or [`Conv2dScratch::reserve`] for the largest,
/// calls allocate nothing.
#[derive(Debug, Clone)]
pub struct Conv2dScratch {
    /// `[C*k*k, oh*ow]` im2col matrix; backward's `dcols` product too.
    cols: Tensor,
    /// `[out_c, oh*ow]` GEMM product before the bias is applied. Allocated
    /// lazily on the first reference-path convolution: the packed-panel
    /// path ([`conv2d_packed_into`]) fuses the bias into its store and
    /// never needs it, so packed workspaces stay that much smaller.
    gemm: Option<Tensor>,
    /// One image's output gradient packed as panels and its partial, for
    /// [`conv2d_weight_partials`]; grown on first use, or ahead of it by
    /// [`Conv2dScratch::reserve_backward`].
    panels: Vec<f32>,
    partial: Vec<f32>,
}

impl Default for Conv2dScratch {
    /// Empty scratch, grown by [`Conv2dScratch::reserve`] or on first use.
    fn default() -> Self {
        Self {
            cols: Tensor::zeros(&[0, 0]),
            gemm: None,
            panels: Vec::new(),
            partial: Vec::new(),
        }
    }
}

impl Conv2dScratch {
    /// Allocates scratch for convolving one `c × h × w` image under `spec`.
    pub fn new(c: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Self {
        let mut scratch = Self::default();
        scratch.reserve(c, h, w, spec);
        scratch
    }

    /// Grows the im2col buffer to what convolving one `c × h × w` image
    /// under `spec` needs.
    pub fn reserve(&mut self, c: usize, h: usize, w: usize, spec: &Conv2dSpec) {
        let (oh, ow) = spec.out_hw(h, w);
        let rows = c * spec.kernel * spec.kernel;
        if self.cols.len() < rows * oh * ow {
            self.cols = Tensor::zeros(&[rows, oh * ow]);
        }
    }

    /// Grows every buffer to what the backward pieces of the convolution
    /// `spec` over `c × h × w` images need.
    pub fn reserve_backward(&mut self, c: usize, h: usize, w: usize, spec: &Conv2dSpec) {
        self.reserve(c, h, w, spec);
        let (oh, ow) = spec.out_hw(h, w);
        let mr = KernelVariant::TRAINING.mr();
        let len = spec.out_channels.div_ceil(mr) * mr * oh * ow;
        self.panels.reserve(len.saturating_sub(self.panels.len()));
        let len = spec.partial_len();
        self.partial.reserve(len.saturating_sub(self.partial.len()));
    }

    /// The im2col buffer shaped `[rows, plane]`.
    fn cols_for(&mut self, rows: usize, plane: usize) -> &mut Tensor {
        reshape_in_place(&mut self.cols, &[rows, plane])
    }
}

/// `t` with `dims`, reusing its buffer (contents unspecified).
fn reshape_in_place<'t>(t: &'t mut Tensor, dims: &[usize]) -> &'t mut Tensor {
    if t.shape().dims() != dims {
        let mut buf = std::mem::replace(t, Tensor::zeros(&[0])).into_vec();
        buf.resize(dims.iter().product(), 0.0);
        *t = Tensor::from_vec(buf, dims).expect("buffer resized to the shape");
    }
    t
}

/// [`conv2d`] into a caller-provided `[n, out_c, oh, ow]` output tensor,
/// reusing `scratch` for the per-image im2col and GEMM intermediates.
///
/// Every output element is assigned, so neither the output's nor the
/// scratch buffers' prior contents leak into the result; `conv2d` is
/// exactly this over fresh buffers.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `spec` or `scratch` was built
/// for a different input geometry.
pub fn conv2d_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
    scratch: &mut Conv2dScratch,
    out: &mut Tensor,
) {
    let (n, c, h, w) = input.shape().as_nchw();
    check_weights(weight, bias, spec, c);
    let (oh, ow) = spec.out_hw(h, w);
    assert_eq!(
        out.shape().dims(),
        &[n, spec.out_channels, oh, ow],
        "conv2d output shape mismatch"
    );
    let in_stride = c * h * w;
    let out_stride = spec.out_channels * oh * ow;
    let plane = oh * ow;
    let rows = c * spec.kernel * spec.kernel;
    for img in 0..n {
        let cols = scratch.cols_for(rows, plane);
        im2col_into(
            &input.data()[img * in_stride..(img + 1) * in_stride],
            c,
            h,
            w,
            spec,
            cols,
        );
        let gemm = scratch.gemm.get_or_insert_with(|| Tensor::zeros(&[0]));
        let gemm = reshape_in_place(gemm, &[spec.out_channels, plane]);
        matmul_into(weight, &scratch.cols, gemm); // [out_c, oh*ow]
        let od = out.data_mut();
        let dst = &mut od[img * out_stride..(img + 1) * out_stride];
        for oc in 0..spec.out_channels {
            let b = bias.data()[oc];
            for (d, &s) in dst[oc * plane..(oc + 1) * plane]
                .iter_mut()
                .zip(&gemm.data()[oc * plane..(oc + 1) * plane])
            {
                *d = s + b;
            }
        }
    }
}

/// [`conv2d_into`] over pre-packed weights: the im2col lowering feeds the
/// packed-panel microkernel family, which fuses the bias into its store —
/// the pre-bias GEMM buffer of `scratch` is never touched or allocated.
/// Bit-for-bit identical to [`conv2d_into`] for any
/// [`super::gemm::KernelVariant`].
///
/// # Panics
///
/// Panics if shapes are inconsistent with `spec`, `scratch` was built for a
/// different input geometry, or `packed` does not match the spec's weight
/// geometry.
pub fn conv2d_packed_into(
    input: &Tensor,
    packed: &PackedWeights,
    bias: &Tensor,
    spec: &Conv2dSpec,
    scratch: &mut Conv2dScratch,
    out: &mut Tensor,
) {
    let (n, c, h, w) = input.shape().as_nchw();
    assert_eq!(spec.in_channels, c, "input channels do not match spec");
    assert_eq!(
        (packed.rows(), packed.k()),
        (
            spec.out_channels,
            spec.in_channels * spec.kernel * spec.kernel
        ),
        "packed weights built for a different conv geometry"
    );
    assert_eq!(
        bias.len(),
        spec.out_channels,
        "conv bias length {} does not match {} output channels",
        bias.len(),
        spec.out_channels
    );
    let (oh, ow) = spec.out_hw(h, w);
    assert_eq!(
        out.shape().dims(),
        &[n, spec.out_channels, oh, ow],
        "conv2d output shape mismatch"
    );
    let in_stride = c * h * w;
    let plane = oh * ow;
    // A pointwise convolution's im2col matrix is the image itself: no
    // lowering, no scratch.
    let pointwise = spec.is_pointwise();
    let out_stride = (spec.out_channels * plane).max(1);
    let rows = c * spec.kernel * spec.kernel;
    for (img, dst) in out.data_mut().chunks_mut(out_stride).enumerate() {
        let x = &input.data()[img * in_stride..(img + 1) * in_stride];
        let cols = if pointwise {
            x
        } else {
            let cols = scratch.cols_for(rows, plane);
            im2col_into(x, c, h, w, spec, cols);
            cols.data()
        };
        gemm_packed_bias_into(packed, cols, plane, bias.data(), dst);
    }
}

/// Backward pass of [`conv2d`].
///
/// Returns `(grad_input, grad_weight, grad_bias)`: the per-image
/// [`conv2d_weight_partials`] summed by [`conv2d_sum_partials`], and
/// [`conv2d_input_grad`]. The result is bit-identical to
/// [`conv2d_backward_reference`] for finite operands (the zero-skip
/// contract of [`super::gemm`]).
///
/// # Panics
///
/// Panics if shapes are inconsistent with `spec`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = input.shape().as_nchw();
    let mut scratch = Conv2dScratch::new(c, h, w, spec);
    let mut partials = vec![0.0f32; n * spec.partial_len()];
    conv2d_weight_partials(input, grad_out, spec, &mut partials, &mut scratch);
    let (grad_weight, grad_bias) = conv2d_sum_partials(&[&partials], spec);
    let mut grad_input = Tensor::zeros(input.shape().dims());
    conv2d_input_grad_into(weight, grad_out, spec, &mut grad_input, &mut scratch);
    (grad_input, grad_weight, grad_bias)
}

/// Checks `grad_out` against a convolution of `input_dims` under `spec`
/// and returns `(rows, plane)`: the im2col rows `in_c·k·k` and the output
/// plane `oh·ow`.
fn check_grad_out(
    input_dims: (usize, usize, usize, usize),
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> (usize, usize) {
    let (n, c, h, w) = input_dims;
    let (gn, goc, oh, ow) = grad_out.shape().as_nchw();
    assert_eq!(gn, n, "grad_out batch mismatch");
    assert_eq!(goc, spec.out_channels, "grad_out channel mismatch");
    assert_eq!((oh, ow), spec.out_hw(h, w), "grad_out spatial mismatch");
    assert_eq!(spec.in_channels, c, "input channels do not match spec");
    (c * spec.kernel * spec.kernel, oh * ow)
}

/// Each image's parameter-gradient partial of [`conv2d_backward`], one
/// [`Conv2dSpec::partial_len`] slot per image of `partials`: `dWᵀ_img =
/// cols · dYᵀ` (`in_c·k·k × out_c`), then the `out_c` bias row sums.
///
/// `dWᵀ_img` runs the split-k4 linear discipline with the small `dY`
/// packed as panels. Every product commutes, so each element is
/// bit-for-bit the `dot(dY row, cols row)` of [`matmul_bt`]`(dY, cols)`.
/// A pointwise convolution (1×1, stride 1, no padding) skips the lowering:
/// its im2col matrix is the image itself. Images are independent, so any
/// split of a batch gives the same slots.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `spec`, `scratch` was built for
/// a different geometry, or `partials` holds another number of slots.
pub fn conv2d_weight_partials(
    input: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
    partials: &mut [f32],
    scratch: &mut Conv2dScratch,
) {
    let n = input.shape().dim(0);
    assert_eq!(
        partials.len(),
        n * spec.partial_len(),
        "one partial slot per image"
    );
    weight_partials(input, grad_out, spec, scratch, |img, partial| {
        partials[img * partial.len()..][..partial.len()].copy_from_slice(partial);
    });
}

/// The first images of a batch in one slot: their [`conv2d_weight_partials`]
/// added element by element in image order from `+0.0`, the order of
/// [`conv2d_sum_partials`]. Summed on with the later images' slots, it
/// gives that reduction's very bits: an accumulator that starts at `+0.0`
/// never becomes `-0.0`, so adding it to a zero changes nothing.
///
/// # Panics
///
/// Panics as [`conv2d_weight_partials`] does, for one slot.
pub fn conv2d_weight_partial_sum(
    input: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
    sum: &mut [f32],
    scratch: &mut Conv2dScratch,
) {
    assert_eq!(sum.len(), spec.partial_len(), "one partial slot");
    sum.fill(0.0);
    weight_partials(input, grad_out, spec, scratch, |_, partial| {
        for (s, &p) in sum.iter_mut().zip(partial.iter()) {
            *s += p;
        }
    });
}

/// Computes each image's partial in turn and hands it to `take`.
fn weight_partials(
    input: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
    scratch: &mut Conv2dScratch,
    mut take: impl FnMut(usize, &[f32]),
) {
    let (n, c, h, w) = input.shape().as_nchw();
    let (rows, plane) = check_grad_out((n, c, h, w), grad_out, spec);
    let oc = spec.out_channels;
    let in_stride = c * h * w;
    let mut partial = std::mem::take(&mut scratch.partial);
    partial.resize(spec.partial_len(), 0.0);
    let panels = std::mem::take(&mut scratch.panels);
    let mut grad_panels = PackedWeights::zeros_in(panels, oc, plane, KernelVariant::TRAINING);
    let mut cols = (!spec.is_pointwise()).then(|| scratch.cols_for(rows, plane));
    let zeros = vec![0.0f32; oc];
    for img in 0..n {
        let x = &input.data()[img * in_stride..(img + 1) * in_stride];
        let gy = &grad_out.data()[img * oc * plane..(img + 1) * oc * plane];
        let cols = match &mut cols {
            Some(cols) => {
                im2col_into(x, c, h, w, spec, cols);
                cols.data()
            }
            None => x,
        };
        grad_panels.repack(gy);
        let (gw_t, gb) = partial.split_at_mut(rows * oc);
        linear_packed_bias_into(&grad_panels, cols, rows, &zeros, gw_t);
        for (b, row) in gb.iter_mut().zip(gy.chunks_exact(plane.max(1))) {
            *b = row.iter().sum::<f32>();
        }
        take(img, &partial);
    }
    scratch.panels = grad_panels.into_buffer();
    scratch.partial = partial;
}

/// Sums per-image [`conv2d_weight_partials`] slots into `(grad_weight,
/// grad_bias)` in ascending image order, the reduction
/// [`conv2d_backward_reference`] performs. `parts` hold consecutive runs of
/// images in batch order, so the sum is the same however the batch is cut.
///
/// # Panics
///
/// Panics if a part is not a whole number of slots.
pub fn conv2d_sum_partials(parts: &[&[f32]], spec: &Conv2dSpec) -> (Tensor, Tensor) {
    let oc = spec.out_channels;
    let rows = spec.in_channels * spec.kernel * spec.kernel;
    let slot = spec.partial_len();
    let mut grad_weight = Tensor::zeros(&[oc, rows]);
    let mut grad_bias = Tensor::zeros(&[oc]);
    for part in parts {
        assert_eq!(part.len() % slot, 0, "partials hold whole image slots");
        for partial in part.chunks_exact(slot) {
            let (gw_t, gb) = partial.split_at(rows * oc);
            // `add_scaled(&gw, 1.0)` in the reference: scaling by exactly
            // 1.0 is the identity, so this is the same sum.
            for (o, grow) in grad_weight.data_mut().chunks_exact_mut(rows).enumerate() {
                for (g, &v) in grow.iter_mut().zip(gw_t[o..].iter().step_by(oc)) {
                    *g += v;
                }
            }
            for (g, &v) in grad_bias.data_mut().iter_mut().zip(gb) {
                *g += v;
            }
        }
    }
    (grad_weight, grad_bias)
}

/// The input gradient of [`conv2d_backward`] into the input-shaped
/// `grad_input`; every element is assigned. Per image, `dcols = Wᵀ · dY`
/// runs the ascending-k conv
/// discipline over `Wᵀ`, packed once per call: bit-for-bit
/// [`matmul_at`]`(W, dY)`. `dcols` is then scattered back onto the image's
/// slice of the gradient in the fixed col2im order, one contiguous run per
/// output row and kernel tap. A pointwise convolution skips the scatter,
/// whose order is then element order: `dcols` is added straight onto the
/// zeroed gradient, which still turns a `-0.0` into `+0.0`.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `spec`.
pub fn conv2d_input_grad_into(
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
    grad_input: &mut Tensor,
    scratch: &mut Conv2dScratch,
) {
    let (n, c, h, w) = grad_input.shape().as_nchw();
    let oc = spec.out_channels;
    let (rows, plane) = check_grad_out((n, c, h, w), grad_out, spec);
    assert_eq!(
        weight.shape().dims(),
        &[oc, rows],
        "conv weight shape does not match spec"
    );
    let weight_t = PackedWeights::pack(
        &transpose(weight.data(), oc, rows),
        rows,
        oc,
        KernelVariant::TRAINING,
    );
    let zeros = vec![0.0f32; rows];
    let dcols = scratch.cols_for(rows, plane).data_mut();
    grad_input.fill_zero();
    let gimgs = grad_input.data_mut().chunks_mut((c * h * w).max(1));
    for (gimg, gy) in gimgs.zip(grad_out.data().chunks((oc * plane).max(1))) {
        gemm_packed_bias_into(&weight_t, gy, plane, &zeros, dcols);
        if spec.is_pointwise() {
            for (g, &d) in gimg.iter_mut().zip(dcols.iter()) {
                *g += d;
            }
        } else {
            col2im_add(dcols, c, h, w, spec, gimg);
        }
    }
}

/// The reference backward pass of [`conv2d`]: per image, im2col,
/// `dW += matmul_bt(dY, cols)`, bias row sums, `dcols = matmul_at(W, dY)`
/// and the bounds-checked col2im loop, one image after another. Kept as the
/// bit-exact oracle of [`conv2d_backward`].
///
/// # Panics
///
/// Panics if shapes are inconsistent with `spec`.
pub fn conv2d_backward_reference(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = input.shape().as_nchw();
    let (gn, goc, oh, ow) = grad_out.shape().as_nchw();
    assert_eq!(gn, n, "grad_out batch mismatch");
    assert_eq!(goc, spec.out_channels, "grad_out channel mismatch");
    assert_eq!((oh, ow), spec.out_hw(h, w), "grad_out spatial mismatch");

    let plane = oh * ow;
    let in_stride = c * h * w;
    let out_stride = spec.out_channels * plane;

    let mut grad_input = Tensor::zeros(&[n, c, h, w]);
    let mut grad_weight = Tensor::zeros(&[
        spec.out_channels,
        spec.in_channels * spec.kernel * spec.kernel,
    ]);
    let mut grad_bias = Tensor::zeros(&[spec.out_channels]);

    for img in 0..n {
        let cols = im2col(
            &input.data()[img * in_stride..(img + 1) * in_stride],
            c,
            h,
            w,
            spec,
        );
        let gslice = &grad_out.data()[img * out_stride..(img + 1) * out_stride];
        let gy = Tensor::from_vec(gslice.to_vec(), &[spec.out_channels, plane])
            .expect("grad slice shape");
        // dW += dY · colsᵀ
        let gw = matmul_bt(&gy, &cols);
        grad_weight.add_scaled(&gw, 1.0);
        // db += row sums of dY
        for oc in 0..spec.out_channels {
            grad_bias.data_mut()[oc] += gy.data()[oc * plane..(oc + 1) * plane].iter().sum::<f32>();
        }
        // dcols = Wᵀ · dY, then scatter back with col2im.
        let dcols = matmul_at(weight, &gy);
        let mut gimg = vec![0.0f32; in_stride];
        col2im_add_reference(dcols.data(), c, h, w, spec, &mut gimg);
        grad_input.data_mut()[img * in_stride..(img + 1) * in_stride]
            .iter_mut()
            .zip(gimg.iter())
            .for_each(|(d, &s)| *d += s);
    }
    (grad_input, grad_weight, grad_bias)
}

/// Depthwise 2-D convolution: each channel is convolved with its own `k × k`
/// filter. `weight` is `[c, k * k]`, `bias` is `[c]`.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `spec` (whose `in_channels` and
/// `out_channels` must both equal the channel count).
pub fn dwconv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let (n, c, h, w) = input.shape().as_nchw();
    let (oh, ow) = spec.out_hw(h, w);
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    dwconv2d_into(input, weight, bias, spec, &mut out);
    out
}

/// Output columns computed together in the interior of a depthwise row: one
/// AVX2 vector of `f32`.
const DW_LANES: usize = 8;

/// [`dwconv2d`] into a caller-provided `[n, c, oh, ow]` output tensor.
///
/// Every output element is assigned, so prior contents never leak.
///
/// Each output row splits into border columns, whose taps may fall into the
/// zero padding, and interior columns, whose `k` taps per kernel row all land
/// inside the input row. Border columns run the plain tap loop. Interior
/// columns are computed eight at a time in an accumulator array that
/// vectorizes. Every output still starts from the bias and adds
/// `w[ky, kx] * x` over its in-bounds kernel rows in the same `ky`, `kx`
/// order, so the result is bit-identical to the tap loop: rustc never
/// contracts a separate multiply and add into an FMA. An interior shorter
/// than one block runs the tap loop; the last block of a longer one overlaps
/// the block before it instead of leaving a scalar tail.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `spec`.
pub fn dwconv2d_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
    out: &mut Tensor,
) {
    let (n, c, h, w) = input.shape().as_nchw();
    assert_eq!(spec.in_channels, c, "depthwise spec channel mismatch");
    assert_eq!(spec.out_channels, c, "depthwise conv keeps channel count");
    assert_eq!(weight.shape().dims(), &[c, spec.kernel * spec.kernel]);
    assert_eq!(bias.len(), c);
    let (oh, ow) = spec.out_hw(h, w);
    assert_eq!(
        out.shape().dims(),
        &[n, c, oh, ow],
        "dwconv2d output shape mismatch"
    );
    let k2 = spec.kernel * spec.kernel;
    for (i, oplane) in out.data_mut().chunks_exact_mut(oh * ow).enumerate() {
        let plane = &input.data()[i * h * w..(i + 1) * h * w];
        let ch = i % c;
        let taps = &weight.data()[ch * k2..(ch + 1) * k2];
        let b = bias.data()[ch];
        // The stride is a constant in the common copies, so the interior
        // loads are contiguous (stride 1) or a fixed gather (stride 2).
        match spec.stride {
            1 => dwconv2d_plane::<1>(plane, (h, w), taps, b, spec, oplane),
            2 => dwconv2d_plane::<2>(plane, (h, w), taps, b, spec, oplane),
            _ => dwconv2d_plane::<0>(plane, (h, w), taps, b, spec, oplane),
        }
    }
}

/// One channel of [`dwconv2d_into`]; `S` is the stride, `0` = read it from
/// `spec`.
fn dwconv2d_plane<const S: usize>(
    plane: &[f32],
    (h, w): (usize, usize),
    taps: &[f32],
    b: f32,
    spec: &Conv2dSpec,
    out: &mut [f32],
) {
    let (k, p) = (spec.kernel, spec.padding);
    let s = if S == 0 { spec.stride } else { S };
    let (_, ow) = spec.out_hw(h, w);
    // Interior columns: `ox * s >= p` and `ox * s - p + k <= w`.
    let ox_lo = p.div_ceil(s).min(ow);
    let ox_hi = if w + p >= k {
        ((w + p - k) / s + 1).min(ow)
    } else {
        0
    }
    .max(ox_lo);
    for (oy, orow) in out.chunks_exact_mut(ow).enumerate() {
        // Kernel rows that land inside the input for this output row.
        let ky_lo = p.saturating_sub(oy * s).min(k);
        let ky_hi = (h + p).saturating_sub(oy * s).min(k).max(ky_lo);
        let input_row = |ky: usize| &plane[(oy * s + ky - p) * w..][..w];
        let tap = |ox: usize| {
            let mut acc = b;
            for ky in ky_lo..ky_hi {
                let row = input_row(ky);
                for kx in 0..k {
                    let ix = (ox * s + kx) as isize - p as isize;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    acc += taps[ky * k + kx] * row[ix as usize];
                }
            }
            acc
        };
        if ox_hi - ox_lo < DW_LANES {
            for (ox, o) in orow.iter_mut().enumerate() {
                *o = tap(ox);
            }
            continue;
        }
        for ox in (0..ox_lo).chain(ox_hi..ow) {
            orow[ox] = tap(ox);
        }
        let mut ox0 = ox_lo;
        loop {
            let mut acc = [b; DW_LANES];
            for ky in ky_lo..ky_hi {
                let row = input_row(ky);
                for kx in 0..k {
                    let wv = taps[ky * k + kx];
                    let xs = &row[ox0 * s + kx - p..][..(DW_LANES - 1) * s + 1];
                    for (l, a) in acc.iter_mut().enumerate() {
                        *a += wv * xs[l * s];
                    }
                }
            }
            orow[ox0..ox0 + DW_LANES].copy_from_slice(&acc);
            if ox0 + DW_LANES == ox_hi {
                break;
            }
            ox0 = (ox0 + DW_LANES).min(ox_hi - DW_LANES);
        }
    }
}

/// Backward pass of [`dwconv2d`]; returns `(grad_input, grad_weight, grad_bias)`:
/// [`dwconv2d_input_grad_into`] and [`dwconv2d_param_grads`] over every
/// channel.
///
/// The order is that of the scatter loop this replaced (kept as the oracle
/// of `tests/backward_exactness.rs`), which walks output pixels in raster
/// order, skips those whose gradient is exactly zero, and adds each
/// in-bounds tap's products into the filter and input gradients:
///
/// * the filter gradient accumulates in the same raster order, one
///   accumulator per tap, image after image;
/// * at stride 1 the input gradient is a gather: each input pixel sums its
///   taps from `+0.0` in ascending output-pixel order, which is kernel rows
///   and then columns descending. Interior columns, whose taps all land
///   inside the output row, run eight at a time with zero-gradient taps
///   selected away; border columns run the plain tap loop. Other strides
///   keep the scatter, whose taps interleave by column parity.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `spec`.
pub fn dwconv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    let c = input.shape().dim(1);
    let k2 = spec.kernel * spec.kernel;
    let mut grad_input = Tensor::zeros(input.shape().dims());
    dwconv2d_input_grad_into(weight, grad_out, spec, &mut grad_input);
    let (gw, gb) = dwconv2d_param_grads(&[(input, grad_out)], spec, 0..c);
    let grad_weight = Tensor::from_vec(gw, &[c, k2]).expect("one filter per channel");
    let grad_bias = Tensor::from_vec(gb, &[c]).expect("one bias per channel");
    (grad_input, grad_weight, grad_bias)
}

/// The input gradient of [`dwconv2d_backward`] into the input-shaped
/// `grad_input`, every image and channel on its own plane; every element
/// is assigned.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `spec`.
pub fn dwconv2d_input_grad_into(
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
    grad_input: &mut Tensor,
) {
    let (n, c, oh, ow) = grad_out.shape().as_nchw();
    let (gn, gc, h, w) = grad_input.shape().as_nchw();
    assert_eq!(
        (gn, gc),
        (n, c),
        "depthwise grad_input batch/channel mismatch"
    );
    assert_eq!(c, spec.in_channels, "depthwise grad_out channel mismatch");
    assert_eq!(
        (oh, ow),
        spec.out_hw(h, w),
        "depthwise grad_out spatial mismatch"
    );
    let k2 = spec.kernel * spec.kernel;
    assert_eq!(weight.shape().dims(), &[c, k2], "depthwise weight shape");
    if spec.stride != 1 {
        // The scatter adds into its planes.
        grad_input.fill_zero();
    }
    let gplanes = grad_input.data_mut().chunks_mut((h * w).max(1));
    for (i, (gx, g)) in gplanes
        .zip(grad_out.data().chunks((oh * ow).max(1)))
        .enumerate()
    {
        let taps = &weight.data()[(i % c) * k2..][..k2];
        if spec.stride == 1 {
            dwconv2d_input_grad_gather(g, taps, (h, w), spec, gx);
        } else {
            dwconv2d_input_grad_scatter(g, taps, (h, w), spec, gx);
        }
    }
}

/// The filter and bias gradients of [`dwconv2d_backward`] for `channels`,
/// over a batch held as `(input, grad_out)` parts in batch order: the
/// filter rows (`channels.len() × k·k`) and the bias sums. A channel's
/// filter gradient accumulates image after image, carrying on from one
/// part into the next, and its bias adds each image's plane sum from
/// `+0.0`, so the result is the same however the batch is cut.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `spec`.
pub fn dwconv2d_param_grads(
    parts: &[(&Tensor, &Tensor)],
    spec: &Conv2dSpec,
    channels: Range<usize>,
) -> (Vec<f32>, Vec<f32>) {
    let k2 = spec.kernel * spec.kernel;
    let mut grad_weight = vec![0.0f32; channels.len() * k2];
    let mut grad_bias = vec![0.0f32; channels.len()];
    for &(input, grad_out) in parts {
        let (n, c, h, w) = input.shape().as_nchw();
        let (gn, gc, oh, ow) = grad_out.shape().as_nchw();
        assert_eq!(
            (gn, gc),
            (n, c),
            "depthwise grad_out batch/channel mismatch"
        );
        assert_eq!(
            (oh, ow),
            spec.out_hw(h, w),
            "depthwise grad_out spatial mismatch"
        );
        let planes = channels
            .clone()
            .zip(grad_weight.chunks_exact_mut(k2.max(1)));
        for ((ch, acc), gb) in planes.zip(grad_bias.iter_mut()) {
            for img in 0..n {
                let x = &input.data()[(img * c + ch) * h * w..][..h * w];
                let g = &grad_out.data()[(img * c + ch) * oh * ow..][..oh * ow];
                dwconv2d_weight_grad(x, g, (h, w), spec, acc);
                *gb += g.iter().sum::<f32>();
            }
        }
    }
    (grad_weight, grad_bias)
}

/// Kernel rows (or columns) `lo..hi` whose taps land inside an input of
/// side `len` for output row (or column) `o`.
fn valid_taps(o: usize, len: usize, spec: &Conv2dSpec) -> (usize, usize) {
    let (k, p) = (spec.kernel, spec.padding);
    let lo = p.saturating_sub(o * spec.stride).min(k);
    let hi = (len + p).saturating_sub(o * spec.stride).min(k).max(lo);
    (lo, hi)
}

/// Kernel taps per side of the block whose filter-gradient accumulators
/// stay in registers through a pass over the output plane.
const DW_TAP_BLOCK: usize = 3;

/// Output columns `lo..hi` (of `ow`) whose taps `kx0..kx0 + taps` all
/// land inside an input row of width `w`; the same for output rows, given
/// kernel rows and the input height.
fn interior_outputs(
    kx0: usize,
    taps: usize,
    (w, ow): (usize, usize),
    spec: &Conv2dSpec,
) -> (usize, usize) {
    let (s, p) = (spec.stride, spec.padding);
    let lo = p.saturating_sub(kx0).div_ceil(s).min(ow);
    let hi = if w + p >= kx0 + taps {
        ((w + p - kx0 - taps) / s + 1).min(ow)
    } else {
        0
    };
    (lo, hi.max(lo))
}

/// Adds one image's filter gradient for one channel into `gw`: output
/// pixels in raster order, zero gradients skipped, in-bounds taps in
/// kernel order.
///
/// Each tap's sum is a chain of dependent adds, so the taps run side by
/// side: one pass over the output plane per 3×3 block of taps, with the
/// block's accumulators in registers (a 3×3 kernel is one pass). Output
/// columns whose block taps all land inside the input skip the bounds
/// checks.
fn dwconv2d_weight_grad(
    x: &[f32],
    g: &[f32],
    (h, w): (usize, usize),
    spec: &Conv2dSpec,
    gw: &mut [f32],
) {
    const B: usize = DW_TAP_BLOCK;
    let (k, s, p) = (spec.kernel, spec.stride, spec.padding);
    let (_, ow) = spec.out_hw(h, w);
    for ky0 in (0..k).step_by(B) {
        for kx0 in (0..k).step_by(B) {
            let tap =
                |a: usize, b: usize| (ky0 + a < k && kx0 + b < k).then(|| (ky0 + a) * k + kx0 + b);
            let mut acc: [[f32; B]; B] =
                std::array::from_fn(|a| std::array::from_fn(|b| tap(a, b).map_or(0.0, |t| gw[t])));
            let (cx_lo, cx_hi) = interior_outputs(kx0, B, (w, ow), spec);
            for (oy, grow) in g.chunks_exact(ow).enumerate() {
                let (ky_lo, ky_hi) = valid_taps(oy, h, spec);
                let checked = |acc: &mut [[f32; B]; B], ox: usize| {
                    let gv = grow[ox];
                    if gv == 0.0 {
                        return;
                    }
                    let (kx_lo, kx_hi) = valid_taps(ox, w, spec);
                    for (a, acc) in acc.iter_mut().enumerate() {
                        let ky = ky0 + a;
                        if ky < ky_lo || ky >= ky_hi {
                            continue;
                        }
                        let row = &x[(oy * s + ky - p) * w..][..w];
                        for (b, acc) in acc.iter_mut().enumerate() {
                            let kx = kx0 + b;
                            if kx >= kx_lo && kx < kx_hi {
                                *acc += gv * row[ox * s + kx - p];
                            }
                        }
                    }
                };
                if ky0 < ky_lo || ky0 + B > ky_hi || kx0 + B > k {
                    for ox in 0..ow {
                        checked(&mut acc, ox);
                    }
                    continue;
                }
                for ox in 0..cx_lo {
                    checked(&mut acc, ox);
                }
                let rows: [&[f32]; B] =
                    std::array::from_fn(|a| &x[(oy * s + ky0 + a - p) * w..][..w]);
                for (ox, &gv) in grow.iter().enumerate().take(cx_hi).skip(cx_lo) {
                    if gv == 0.0 {
                        continue;
                    }
                    let ix = ox * s + kx0 - p;
                    for (acc, row) in acc.iter_mut().zip(&rows) {
                        for (a, &xv) in acc.iter_mut().zip(&row[ix..ix + B]) {
                            *a += gv * xv;
                        }
                    }
                }
                for ox in cx_hi..ow {
                    checked(&mut acc, ox);
                }
            }
            for (a, row) in acc.iter().enumerate() {
                for (b, &v) in row.iter().enumerate() {
                    if let Some(t) = tap(a, b) {
                        gw[t] = v;
                    }
                }
            }
        }
    }
}

/// One image's input gradient for one channel at stride 1, as a gather
/// (see [`dwconv2d_backward`]); every element of `gx` is assigned.
fn dwconv2d_input_grad_gather(
    g: &[f32],
    taps: &[f32],
    (h, w): (usize, usize),
    spec: &Conv2dSpec,
    gx: &mut [f32],
) {
    let (k, p) = (spec.kernel, spec.padding);
    let (oh, ow) = spec.out_hw(h, w);
    // Input column ix reads output columns ix + p - kx; all k are inside
    // the output row for ix in ix_lo..ix_hi.
    let ix_lo = (k - 1).saturating_sub(p).min(w);
    let ix_hi = ow.saturating_sub(p).min(w).max(ix_lo);
    for (iy, xrow) in gx.chunks_exact_mut(w).enumerate() {
        // Kernel rows whose output row iy + p - ky exists.
        let ky_lo = (iy + p + 1).saturating_sub(oh).min(k);
        let ky_hi = (iy + p + 1).min(k).max(ky_lo);
        let grow = |ky: usize| &g[(iy + p - ky) * ow..][..ow];
        let tap = |ix: usize| {
            let mut acc = 0.0f32;
            for ky in (ky_lo..ky_hi).rev() {
                let row = grow(ky);
                for kx in (0..k).rev() {
                    let ox = (ix + p).wrapping_sub(kx);
                    if ox < ow && row[ox] != 0.0 {
                        acc += row[ox] * taps[ky * k + kx];
                    }
                }
            }
            acc
        };
        if ix_hi - ix_lo < DW_LANES {
            for (ix, o) in xrow.iter_mut().enumerate() {
                *o = tap(ix);
            }
            continue;
        }
        for ix in (0..ix_lo).chain(ix_hi..w) {
            xrow[ix] = tap(ix);
        }
        let mut ix0 = ix_lo;
        loop {
            let mut acc = [0.0f32; DW_LANES];
            for ky in (ky_lo..ky_hi).rev() {
                let row = grow(ky);
                for kx in (0..k).rev() {
                    let wv = taps[ky * k + kx];
                    let gs = &row[ix0 + p - kx..][..DW_LANES];
                    for (a, &gv) in acc.iter_mut().zip(gs) {
                        // A zero gradient adds +0.0, which leaves the sum
                        // (never -0.0, it starts at +0.0) as skipping did.
                        *a += if gv == 0.0 { 0.0 } else { gv * wv };
                    }
                }
            }
            xrow[ix0..ix0 + DW_LANES].copy_from_slice(&acc);
            if ix0 + DW_LANES == ix_hi {
                break;
            }
            ix0 = (ix0 + DW_LANES).min(ix_hi - DW_LANES);
        }
    }
}

/// One image's input gradient for one channel at any stride, scattered
/// from the output pixels in raster order into the zeroed `gx`. Output
/// columns whose taps all land inside the input skip the bounds checks.
fn dwconv2d_input_grad_scatter(
    g: &[f32],
    taps: &[f32],
    (h, w): (usize, usize),
    spec: &Conv2dSpec,
    gx: &mut [f32],
) {
    let (k, s, p) = (spec.kernel, spec.stride, spec.padding);
    let (_, ow) = spec.out_hw(h, w);
    let (cx_lo, cx_hi) = interior_outputs(0, k, (w, ow), spec);
    for (oy, grow) in g.chunks_exact(ow).enumerate() {
        let (ky_lo, ky_hi) = valid_taps(oy, h, spec);
        for (ox, &gv) in grow.iter().enumerate() {
            if gv == 0.0 {
                continue;
            }
            let (kx_lo, kx_hi) = if (cx_lo..cx_hi).contains(&ox) {
                (0, k)
            } else {
                valid_taps(ox, w, spec)
            };
            for ky in ky_lo..ky_hi {
                let row = &mut gx[(oy * s + ky - p) * w..][..w];
                let wrow = &taps[ky * k..][..k];
                let ix0 = ox * s + kx_lo - p;
                for (o, &wv) in row[ix0..ix0 + (kx_hi - kx_lo)]
                    .iter_mut()
                    .zip(&wrow[kx_lo..kx_hi])
                {
                    *o += gv * wv;
                }
            }
        }
    }
}

fn check_weights(weight: &Tensor, bias: &Tensor, spec: &Conv2dSpec, in_c: usize) {
    assert_eq!(spec.in_channels, in_c, "input channels do not match spec");
    let expect = Shape::new(&[
        spec.out_channels,
        spec.in_channels * spec.kernel * spec.kernel,
    ]);
    assert_eq!(
        weight.shape(),
        &expect,
        "conv weight shape {} does not match spec {expect}",
        weight.shape()
    );
    assert_eq!(
        bias.len(),
        spec.out_channels,
        "conv bias length {} does not match {} output channels",
        bias.len(),
        spec.out_channels
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_hw_matches_formula() {
        let spec = Conv2dSpec::new(1, 1, 3, 1, 1);
        assert_eq!(spec.out_hw(8, 8), (8, 8));
        let spec = Conv2dSpec::new(1, 1, 3, 2, 1);
        assert_eq!(spec.out_hw(8, 8), (4, 4));
        let spec = Conv2dSpec::new(1, 1, 2, 2, 0);
        assert_eq!(spec.out_hw(8, 8), (4, 4));
    }

    #[test]
    fn conv_identity_kernel_reproduces_input() {
        // 3x3 kernel with a single 1 in the center, padding 1 => identity.
        let spec = Conv2dSpec::new(1, 1, 3, 1, 1);
        let mut w = Tensor::zeros(&[1, 9]);
        w.data_mut()[4] = 1.0;
        let b = Tensor::zeros(&[1]);
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = conv2d(&x, &w, &b, &spec);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_sums_box_filter() {
        // All-ones 2x2 kernel stride 2 on an all-ones image => every output 4.
        let spec = Conv2dSpec::new(1, 1, 2, 2, 0);
        let w = Tensor::ones(&[1, 4]);
        let b = Tensor::zeros(&[1]);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let y = conv2d(&x, &w, &b, &spec);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert!(y.data().iter().all(|&v| (v - 4.0).abs() < 1e-6));
    }

    #[test]
    fn conv_bias_offsets_every_output() {
        let spec = Conv2dSpec::new(1, 2, 1, 1, 0);
        let w = Tensor::from_vec(vec![1.0, -1.0], &[2, 1]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = conv2d(&x, &w, &b, &spec);
        assert_eq!(&y.data()[0..4], &[11.0, 12.0, 13.0, 14.0]);
        assert_eq!(&y.data()[4..8], &[19.0, 18.0, 17.0, 16.0]);
    }

    #[test]
    fn conv_backward_matches_finite_differences() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let spec = Conv2dSpec::new(2, 3, 3, 1, 1);
        let x = crate::init::normal(&mut rng, &[1, 2, 5, 5], 0.0, 1.0);
        let w = crate::init::normal(&mut rng, &[3, 18], 0.0, 0.5);
        let b = crate::init::normal(&mut rng, &[3], 0.0, 0.5);
        let g = crate::init::normal(&mut rng, &[1, 3, 5, 5], 0.0, 1.0);

        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            conv2d(x, w, b, &spec)
                .data()
                .iter()
                .zip(g.data().iter())
                .map(|(&y, &gg)| y * gg)
                .sum()
        };

        let (gx, gw, gb) = conv2d_backward(&x, &w, &g, &spec);
        let eps = 1e-2;
        for i in (0..x.len()).step_by(7) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < 0.05,
                "gx[{i}] {num} vs {}",
                gx.data()[i]
            );
        }
        for i in (0..w.len()).step_by(5) {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!(
                (num - gw.data()[i]).abs() < 0.05,
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
                (num - gb.data()[i]).abs() < 0.05,
                "gb[{i}] {num} vs {}",
                gb.data()[i]
            );
        }
    }

    #[test]
    fn dwconv_applies_per_channel_filters() {
        let spec = Conv2dSpec::new(2, 2, 1, 1, 0);
        let w = Tensor::from_vec(vec![2.0, 3.0], &[2, 1]).unwrap();
        let b = Tensor::from_vec(vec![0.0, 1.0], &[2]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 10.0, 20.0], &[1, 2, 1, 2]).unwrap();
        let y = dwconv2d(&x, &w, &b, &spec);
        assert_eq!(y.data(), &[2.0, 4.0, 31.0, 61.0]);
    }

    #[test]
    fn dwconv_backward_matches_finite_differences() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(13);
        let spec = Conv2dSpec::new(3, 3, 3, 1, 1);
        let x = crate::init::normal(&mut rng, &[2, 3, 4, 4], 0.0, 1.0);
        let w = crate::init::normal(&mut rng, &[3, 9], 0.0, 0.5);
        let b = crate::init::normal(&mut rng, &[3], 0.0, 0.5);
        let g = crate::init::normal(&mut rng, &[2, 3, 4, 4], 0.0, 1.0);

        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            dwconv2d(x, w, b, &spec)
                .data()
                .iter()
                .zip(g.data().iter())
                .map(|(&y, &gg)| y * gg)
                .sum()
        };

        let (gx, gw, gb) = dwconv2d_backward(&x, &w, &g, &spec);
        let eps = 1e-2;
        for i in (0..x.len()).step_by(5) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            assert!((num - gx.data()[i]).abs() < 0.05);
        }
        for i in 0..w.len() {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!((num - gw.data()[i]).abs() < 0.05);
        }
        for i in 0..b.len() {
            let mut bp = b.clone();
            bp.data_mut()[i] += eps;
            let mut bm = b.clone();
            bm.data_mut()[i] -= eps;
            let num = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
            assert!((num - gb.data()[i]).abs() < 0.05);
        }
    }

    #[test]
    fn mac_count_matches_dense_formula() {
        let spec = Conv2dSpec::new(3, 16, 3, 1, 1);
        assert_eq!(spec.mac_count(32, 32), (16 * 3 * 9 * 32 * 32) as u64);
    }
}
