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
/// lowering, the pre-bias GEMM product of [`conv2d_into`], what the
/// backward pieces use, and the depthwise kernels' plane copies. Each call
/// shapes them to its own geometry, so one scratch serves every
/// convolution of a graph; sized by [`Conv2dScratch::new`],
/// [`Conv2dScratch::reserve`] and [`Conv2dScratch::reserve_depthwise`] for
/// the largest, calls allocate nothing.
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
    /// The depthwise kernels' phase-split, padded or channel-minor plane
    /// copies; grown on first use, or ahead of it by
    /// [`Conv2dScratch::reserve_depthwise`].
    depthwise: Vec<f32>,
}

impl Default for Conv2dScratch {
    /// Empty scratch, grown by [`Conv2dScratch::reserve`] or on first use.
    fn default() -> Self {
        Self {
            cols: Tensor::zeros(&[0, 0]),
            gemm: None,
            panels: Vec::new(),
            partial: Vec::new(),
            depthwise: Vec::new(),
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

    /// Grows the depthwise buffer to what the forward pass of the
    /// depthwise convolution `spec` over `h × w` planes needs.
    pub fn reserve_depthwise(&mut self, h: usize, w: usize, spec: &Conv2dSpec) {
        self.depthwise_for(DwGeometry::new(h, w, spec).forward_len());
    }

    /// Grows the depthwise buffer to what the input gradient of the
    /// depthwise convolution `spec` over `h × w` planes needs.
    pub fn reserve_depthwise_input_grad(&mut self, h: usize, w: usize, spec: &Conv2dSpec) {
        self.depthwise_for(DwGeometry::new(h, w, spec).input_grad_len());
    }

    /// Grows the depthwise buffer to what the filter gradient of the
    /// depthwise convolution `spec` over `h × w` planes needs.
    pub fn reserve_depthwise_param_grad(&mut self, h: usize, w: usize, spec: &Conv2dSpec) {
        self.depthwise_for(DwGeometry::new(h, w, spec).param_grad_len());
    }

    /// Floats the depthwise buffer holds.
    #[must_use]
    pub fn depthwise_len(&self) -> usize {
        self.depthwise.len()
    }

    /// The first `len` floats of the depthwise buffer, grown if shorter.
    fn depthwise_for(&mut self, len: usize) -> &mut [f32] {
        if self.depthwise.len() < len {
            self.depthwise.resize(len, 0.0);
        }
        &mut self.depthwise[..len]
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
    let mut scratch = Conv2dScratch::default();
    dwconv2d_into(input, weight, bias, spec, &mut scratch, &mut out);
    out
}

/// Channels the depthwise filter gradient computes together, one per lane:
/// one AVX2 vector of `f32`.
const DW_LANES: usize = 8;

/// One vector of lanes.
type Lanes = [f32; DW_LANES];

/// The lanes starting at `x[0]`.
#[inline(always)]
fn lanes(x: &[f32]) -> Lanes {
    x[..DW_LANES].try_into().expect("a vector of lanes")
}

/// The plane geometry of a depthwise convolution and the layout of what its
/// forward pass and input gradient keep in [`Conv2dScratch`].
///
/// Both work on *phase planes*: at stride `s`, padded pixel `(u, v)`
/// (input pixel `(u − p, v − p)`) belongs to phase `(u % s, v % s)`, at row
/// `u / s` and column `v / s` of that phase's plane. Each kernel tap then
/// reads one phase plane at a fixed offset, so both passes are sums of
/// whole-plane shifted passes, one per tap in the sum's order, over rows a
/// fixed pitch apart: long runs that vectorize at any stride.
#[derive(Clone, Copy)]
struct DwGeometry<'a> {
    spec: &'a Conv2dSpec,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    /// Row length of the forward pass's phase planes and accumulator:
    /// every output column with its taps' overhang, and every input
    /// column.
    pitch: usize,
    /// Rows of a forward phase plane, one spare for the overhang of the
    /// last row's taps.
    rows: usize,
    /// Zero rows and columns before the output gradient in its padded copy
    /// (the input gradient): one per kernel row of a phase past its first.
    lead: usize,
    /// Rows of the input gradient's phase planes.
    grad_rows: usize,
    /// Row length of the input gradient's phase planes and of the padded
    /// output gradient.
    grad_pitch: usize,
}

impl<'a> DwGeometry<'a> {
    fn new(h: usize, w: usize, spec: &'a Conv2dSpec) -> Self {
        let (oh, ow) = spec.out_hw(h, w);
        let (k, s, p) = (spec.kernel, spec.stride, spec.padding);
        let lead = (k - 1) / s;
        Self {
            spec,
            h,
            w,
            oh,
            ow,
            pitch: (ow + lead).max((w + p).div_ceil(s)),
            rows: oh + lead + 1,
            lead,
            grad_rows: (h + p - 1) / s + 1,
            grad_pitch: lead + ow.max((w + p - 1) / s + 1),
        }
    }

    /// The stride: `S`, or the spec's if `S` is 0. The kernels take the
    /// common strides as constants, so that their divisions by the stride
    /// compile to shifts.
    #[inline(always)]
    fn stride<const S: usize>(&self) -> usize {
        if S == 0 {
            self.spec.stride
        } else {
            S
        }
    }

    /// Floats of one forward phase plane.
    fn phase_len(&self) -> usize {
        self.rows * self.pitch
    }

    /// The forward pass's buffer: a lane mask per kernel column, the phase
    /// planes, the accumulator.
    fn forward_len(&self) -> usize {
        let (k, s) = (self.spec.kernel, self.spec.stride);
        (k + 1) * self.oh * self.pitch + s * s * self.phase_len()
    }

    /// Rows of the padded output gradient: the lead, every row a phase
    /// plane's taps read, and one spare for the overhang.
    fn padded_grad_rows(&self) -> usize {
        self.lead + self.oh.max(self.grad_rows) + 1
    }

    /// Floats of one phase plane of the input gradient.
    fn grad_phase_len(&self) -> usize {
        self.grad_rows * self.grad_pitch
    }

    /// The input gradient's buffer: the padded output gradient, the phase
    /// planes.
    fn input_grad_len(&self) -> usize {
        let s = self.spec.stride;
        self.padded_grad_rows() * self.grad_pitch + s * s * self.grad_phase_len()
    }

    fn param_grad_len(&self) -> usize {
        let k = self.spec.kernel;
        DW_LANES * (k * k + self.h * self.w + self.oh * self.ow)
    }
}

/// [`dwconv2d`] into a caller-provided `[n, c, oh, ow]` output tensor,
/// reusing `scratch` for the phase planes (see [`DwGeometry`]).
///
/// Every output element is assigned, so prior contents never leak. Each
/// output starts from the bias and adds `w[ky, kx] * x` over its in-bounds
/// taps in `ky`, then `kx` order, exactly as the scalar tap loop does:
/// rustc never contracts a separate multiply and add into an FMA.
///
/// Each tap is one pass over the output rows whose input row for it is
/// inside the input. Output columns whose tap column falls into the zero
/// padding are selected away by a lane mask rather than adding a zero
/// product: adding `+0.0` would turn a `-0.0` sum into `+0.0`.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `spec`.
pub fn dwconv2d_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
    scratch: &mut Conv2dScratch,
    out: &mut Tensor,
) {
    let (n, c, h, w) = input.shape().as_nchw();
    assert_eq!(spec.in_channels, c, "depthwise spec channel mismatch");
    assert_eq!(spec.out_channels, c, "depthwise conv keeps channel count");
    assert_eq!(weight.shape().dims(), &[c, spec.kernel * spec.kernel]);
    assert_eq!(bias.len(), c);
    let geo = DwGeometry::new(h, w, spec);
    let (oh, ow, pitch) = (geo.oh, geo.ow, geo.pitch);
    assert_eq!(
        out.shape().dims(),
        &[n, c, oh, ow],
        "dwconv2d output shape mismatch"
    );
    let k2 = spec.kernel * spec.kernel;
    let buf = scratch.depthwise_for(geo.forward_len());
    let (masks, buf) = buf.split_at_mut(spec.kernel * oh * pitch);
    // Kernel column `kx` reaches inside the input from output columns
    // `lo..hi`; a mask of 1.0 there, 0.0 elsewhere, on every row.
    for (kx, mask) in masks.chunks_exact_mut(oh * pitch).enumerate() {
        let (lo, hi) = interior_outputs(kx, 1, (w, ow), spec);
        for row in mask.chunks_exact_mut(pitch) {
            for (ox, m) in row.iter_mut().enumerate() {
                *m = if (lo..hi).contains(&ox) { 1.0 } else { 0.0 };
            }
        }
    }
    for (i, oplane) in out.data_mut().chunks_exact_mut(oh * ow).enumerate() {
        let plane = &input.data()[i * h * w..][..h * w];
        let ch = i % c;
        let taps = &weight.data()[ch * k2..][..k2];
        let b = bias.data()[ch];
        match spec.stride {
            1 => dwconv2d_plane::<1>(plane, (taps, b), &geo, (masks, buf), oplane),
            2 => dwconv2d_plane::<2>(plane, (taps, b), &geo, (masks, buf), oplane),
            _ => dwconv2d_plane::<0>(plane, (taps, b), &geo, (masks, buf), oplane),
        }
    }
}

/// One channel of [`dwconv2d_into`] at stride `S` (0: the spec's): the
/// plane split into phase planes in `buf`, then one pass per tap over an
/// accumulator of output rows `pitch` apart, masked by `masks` where the
/// tap's column leaves the input.
fn dwconv2d_plane<const S: usize>(
    plane: &[f32],
    (taps, b): (&[f32], f32),
    geo: &DwGeometry<'_>,
    (masks, buf): (&[f32], &mut [f32]),
    out: &mut [f32],
) {
    let DwGeometry {
        spec,
        h,
        w,
        oh,
        ow,
        pitch,
        ..
    } = *geo;
    let (k, p, s) = (spec.kernel, spec.padding, geo.stride::<S>());
    let phase = geo.phase_len();
    let (planes, acc) = buf.split_at_mut(s * s * phase);
    let acc = &mut acc[..oh * pitch];
    for (iy, src) in plane.chunks_exact(w).enumerate() {
        let u = iy + p;
        let at = u % s * s * phase + u / s * pitch;
        split_phases::<S>(src, (s, p, phase), &mut planes[at..]);
    }
    acc.fill(b);
    for (ky, ws) in taps.chunks_exact(k).enumerate() {
        let (oy_lo, oy_hi) = interior_outputs(ky, 1, (h, oh), spec);
        let rows = oy_lo * pitch..oy_hi * pitch;
        let acc = &mut acc[rows.clone()];
        for (kx, &wv) in ws.iter().enumerate() {
            let at = (ky % s * s + kx % s) * phase + ky / s * pitch + kx / s;
            let xs = &planes[at..][rows.clone()];
            let (lo, hi) = interior_outputs(kx, 1, (w, ow), spec);
            if lo == 0 && hi == ow {
                for (a, &x) in acc.iter_mut().zip(xs) {
                    *a += wv * x;
                }
            } else {
                let mask = &masks[kx * oh * pitch..][rows.clone()];
                for ((a, &x), &m) in acc.iter_mut().zip(xs).zip(mask) {
                    let sum = *a + wv * x;
                    *a = if m != 0.0 { sum } else { *a };
                }
            }
        }
    }
    for (dst, src) in out.chunks_exact_mut(ow).zip(acc.chunks_exact(pitch)) {
        copy_row(dst, &src[..ow]);
    }
}

/// Copies one row of a plane into its phase rows, `phase` floats apart
/// from phase to phase, from `dst[0]`: column `ix` to slot `(ix + p) / s`
/// of phase `(ix + p) % s`. At stride 2 the row is split pairwise, which
/// vectorizes. Slots in the padding keep what they held.
fn split_phases<const S: usize>(
    src: &[f32],
    (s, p, phase): (usize, usize, usize),
    dst: &mut [f32],
) {
    match S {
        1 => copy_row(&mut dst[p..p + src.len()], src),
        2 => {
            let (even, odd) = dst.split_at_mut(phase);
            // Even columns land in phase `p % 2`, odd ones in the other.
            let (a, b) = if p % 2 == 0 {
                (&mut even[p / 2..], &mut odd[p / 2..])
            } else {
                (&mut odd[p / 2..], &mut even[p / 2 + 1..])
            };
            for ((a, b), pair) in a.iter_mut().zip(b).zip(src.chunks_exact(2)) {
                *a = pair[0];
                *b = pair[1];
            }
            if let [last] = src.chunks_exact(2).remainder() {
                a[src.len() / 2] = *last;
            }
        }
        _ => {
            for (ix, &v) in src.iter().enumerate() {
                let u = ix + p;
                dst[u % s * phase + u / s] = v;
            }
        }
    }
}

/// The inverse of [`split_phases`]: `dst[ix]` from slot `(ix + p) / s` of
/// phase `(ix + p) % s` of the phase rows from `src[0]`.
fn merge_phases<const S: usize>(
    src: &[f32],
    (s, p, phase): (usize, usize, usize),
    dst: &mut [f32],
) {
    match S {
        1 => copy_row(dst, &src[p..p + dst.len()]),
        2 => {
            let (even, odd) = src.split_at(phase);
            let (a, b) = if p % 2 == 0 {
                (&even[p / 2..], &odd[p / 2..])
            } else {
                (&odd[p / 2..], &even[p / 2 + 1..])
            };
            interleave(a, b, dst);
        }
        _ => {
            for (ix, o) in dst.iter_mut().enumerate() {
                let u = ix + p;
                *o = src[u % s * phase + u / s];
            }
        }
    }
}

/// `dst.copy_from_slice(src)` a vector at a time, the last vector
/// overlapping the one before it, so that a short row copies inline rather
/// than through a library call.
#[inline(always)]
fn copy_row(dst: &mut [f32], src: &[f32]) {
    let n = src.len();
    if n < DW_LANES {
        dst.copy_from_slice(src);
        return;
    }
    for (d, s) in dst
        .chunks_exact_mut(DW_LANES)
        .zip(src.chunks_exact(DW_LANES))
    {
        d.copy_from_slice(s);
    }
    dst[n - DW_LANES..].copy_from_slice(&src[n - DW_LANES..]);
}

/// Pairs of consecutive columns [`interleave`] writes from one vector of
/// each half.
const PAIRS: usize = 8;

/// `dst` from its even elements in `a` and its odd ones in `b`, eight
/// pairs at a time, the last block overlapping the one before it.
fn interleave(a: &[f32], b: &[f32], dst: &mut [f32]) {
    let pairs = dst.len() / 2;
    if pairs >= PAIRS {
        for t in (0..pairs).step_by(PAIRS).map(|t| t.min(pairs - PAIRS)) {
            let (a, b): (&Lanes, &Lanes) = (
                a[t..t + PAIRS].try_into().expect("pairs"),
                b[t..t + PAIRS].try_into().expect("pairs"),
            );
            let block: [f32; 2 * PAIRS] =
                std::array::from_fn(|i| if i % 2 == 0 { a[i / 2] } else { b[i / 2] });
            dst[2 * t..][..2 * PAIRS].copy_from_slice(&block);
        }
    } else {
        for ((pair, &a), &b) in dst.chunks_exact_mut(2).zip(a).zip(b) {
            pair[0] = a;
            pair[1] = b;
        }
    }
    if dst.len() % 2 == 1 {
        dst[2 * pairs] = a[pairs];
    }
}

/// Backward pass of [`dwconv2d`]; returns `(grad_input, grad_weight, grad_bias)`:
/// [`dwconv2d_input_grad_into`] and [`dwconv2d_param_grads`] over every
/// channel.
///
/// The order is that of a scatter loop (the oracle of
/// `tests/backward_exactness.rs`) that walks output pixels in raster
/// order, skips those whose gradient is exactly zero, and adds each
/// in-bounds tap's products into the filter and input gradients:
///
/// * the filter gradient accumulates in the same raster order, one
///   accumulator per tap, image after image;
/// * the input gradient is a gather: each input pixel sums its taps from
///   `+0.0` in ascending output-pixel order, which is kernel rows and then
///   columns descending.
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
    let mut scratch = Conv2dScratch::default();
    let mut grad_input = Tensor::zeros(input.shape().dims());
    dwconv2d_input_grad_into(weight, grad_out, spec, &mut scratch, &mut grad_input);
    let (gw, gb) = dwconv2d_param_grads(&[(input, grad_out)], spec, 0..c, &mut scratch);
    let grad_weight = Tensor::from_vec(gw, &[c, k2]).expect("one filter per channel");
    let grad_bias = Tensor::from_vec(gb, &[c]).expect("one bias per channel");
    (grad_input, grad_weight, grad_bias)
}

/// The input gradient of [`dwconv2d_backward`] into the input-shaped
/// `grad_input`, every image and channel on its own plane; every element
/// is assigned.
///
/// The input pixels of one phase (see [`DwGeometry`]) share their taps:
/// the kernel rows and columns of that phase, which read the output
/// gradient at consecutive rows and columns. Each plane's output gradient
/// is copied into a zero-padded plane of `scratch`, and each phase plane
/// of the input gradient sums one pass per tap, kernel rows and then
/// columns descending, before the phases are interleaved back. A tap whose
/// gradient is zero, or falls outside the output, adds `+0.0`, which
/// leaves the sum (never `-0.0`: it starts at `+0.0`) as the scatter's
/// skip does.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `spec`.
pub fn dwconv2d_input_grad_into(
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
    scratch: &mut Conv2dScratch,
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
    let geo = DwGeometry::new(h, w, spec);
    assert_eq!(
        (oh, ow),
        (geo.oh, geo.ow),
        "depthwise grad_out spatial mismatch"
    );
    let k2 = spec.kernel * spec.kernel;
    assert_eq!(weight.shape().dims(), &[c, k2], "depthwise weight shape");
    let buf = scratch.depthwise_for(geo.input_grad_len());
    let (padded, phases) = buf.split_at_mut(geo.padded_grad_rows() * geo.grad_pitch);
    // Only the output gradient's own rows and columns are written below.
    padded.fill(0.0);
    let gplanes = grad_input.data_mut().chunks_mut((h * w).max(1));
    for (i, (gx, g)) in gplanes
        .zip(grad_out.data().chunks((oh * ow).max(1)))
        .enumerate()
    {
        let taps = &weight.data()[(i % c) * k2..][..k2];
        match spec.stride {
            1 => dwconv2d_input_grad_plane::<1>(g, taps, &geo, (padded, phases), gx),
            2 => dwconv2d_input_grad_plane::<2>(g, taps, &geo, (padded, phases), gx),
            _ => dwconv2d_input_grad_plane::<0>(g, taps, &geo, (padded, phases), gx),
        }
    }
}

/// One image's input gradient for one channel at stride `S` (0: the
/// spec's; see [`dwconv2d_input_grad_into`]); every element of `gx` is
/// assigned.
fn dwconv2d_input_grad_plane<const S: usize>(
    g: &[f32],
    taps: &[f32],
    geo: &DwGeometry<'_>,
    (padded, phases): (&mut [f32], &mut [f32]),
    gx: &mut [f32],
) {
    let DwGeometry {
        spec,
        w,
        ow,
        lead,
        grad_rows,
        grad_pitch: pitch,
        ..
    } = *geo;
    let (k, p, s) = (spec.kernel, spec.padding, geo.stride::<S>());
    let phase = geo.grad_phase_len();
    for (src, dst) in g
        .chunks_exact(ow)
        .zip(padded[lead * pitch..].chunks_exact_mut(pitch))
    {
        copy_row(&mut dst[lead..lead + ow], src);
    }
    let padded = &*padded;
    let phases = &mut phases[..s * s * phase];
    phases.fill(0.0);
    for (i, acc) in phases.chunks_exact_mut(phase).enumerate() {
        let (py, px) = (i / s, i % s);
        // Phase rows before the first input row hold no input pixel.
        let rows = p.saturating_sub(py).div_ceil(s) * pitch..grad_rows * pitch;
        let acc = &mut acc[rows.clone()];
        for ky in (py..k).step_by(s).rev() {
            for kx in (px..k).step_by(s).rev() {
                let wv = taps[ky * k + kx];
                let at = (lead - (ky - py) / s) * pitch + lead - (kx - px) / s;
                for (a, &gv) in acc.iter_mut().zip(&padded[at..][rows.clone()]) {
                    *a += if gv == 0.0 { 0.0 } else { gv * wv };
                }
            }
        }
    }
    for (iy, dst) in gx.chunks_exact_mut(w).enumerate() {
        let u = iy + p;
        let at = u % s * s * phase + u / s * pitch;
        merge_phases::<S>(&phases[at..], (s, p, phase), dst);
    }
}

/// The filter and bias gradients of [`dwconv2d_backward`] for `channels`,
/// over a batch held as `(input, grad_out)` parts in batch order: the
/// filter rows (`channels.len() × k·k`) and the bias sums. A channel's
/// filter gradient accumulates image after image, carrying on from one
/// part into the next, and its bias adds each image's plane sum from
/// `-0.0` (as `Iterator::sum` does), so the result is the same however the
/// batch is cut.
///
/// The channels run [`DW_LANES`] at a time, one per lane, over
/// channel-minor copies of each image's planes in `scratch`: every
/// `(channel, tap)` accumulator stays one chain in raster order, and a
/// zero gradient is selected away. Lanes past the last channel repeat the
/// first one and are dropped.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `spec`.
pub fn dwconv2d_param_grads(
    parts: &[(&Tensor, &Tensor)],
    spec: &Conv2dSpec,
    channels: Range<usize>,
    scratch: &mut Conv2dScratch,
) -> (Vec<f32>, Vec<f32>) {
    let k2 = spec.kernel * spec.kernel;
    let mut grad_weight = vec![0.0f32; channels.len() * k2];
    let mut grad_bias = vec![0.0f32; channels.len()];
    let Some(&(first, _)) = parts.first() else {
        return (grad_weight, grad_bias);
    };
    let (_, c, h, w) = first.shape().as_nchw();
    let geo = DwGeometry::new(h, w, spec);
    let (plane, oplane) = (h * w, geo.oh * geo.ow);
    let buf = scratch.depthwise_for(geo.param_grad_len());
    let (acc, rest) = buf.split_at_mut(k2 * DW_LANES);
    let (xs, gs) = rest.split_at_mut(plane * DW_LANES);
    let gs = &mut gs[..oplane * DW_LANES];
    for ch0 in channels.clone().step_by(DW_LANES) {
        let lanes = DW_LANES.min(channels.end - ch0);
        acc.fill(0.0);
        let mut bias = [0.0f32; DW_LANES];
        for &(input, grad_out) in parts {
            let n = input.shape().dim(0);
            assert_eq!(
                input.shape().dims(),
                &[n, c, h, w],
                "depthwise input shape differs between parts"
            );
            assert_eq!(
                grad_out.shape().dims(),
                &[n, c, geo.oh, geo.ow],
                "depthwise grad_out shape mismatch"
            );
            for img in 0..n {
                let lane = |l: usize| img * c + ch0 + if l < lanes { l } else { 0 };
                channel_minor(
                    std::array::from_fn(|l| &input.data()[lane(l) * plane..][..plane]),
                    xs,
                );
                channel_minor(
                    std::array::from_fn(|l| &grad_out.data()[lane(l) * oplane..][..oplane]),
                    gs,
                );
                match spec.stride {
                    1 => weight_grad_lanes::<1>(xs, gs, &geo, acc),
                    2 => weight_grad_lanes::<2>(xs, gs, &geo, acc),
                    _ => weight_grad_lanes::<0>(xs, gs, &geo, acc),
                }
                let mut sum = [-0.0f32; DW_LANES];
                for g in gs.chunks_exact(DW_LANES) {
                    sum = std::array::from_fn(|l| sum[l] + g[l]);
                }
                bias = std::array::from_fn(|l| bias[l] + sum[l]);
            }
        }
        let at = ch0 - channels.start;
        for l in 0..lanes {
            for (t, gw) in grad_weight[(at + l) * k2..][..k2].iter_mut().enumerate() {
                *gw = acc[t * DW_LANES + l];
            }
            grad_bias[at + l] = bias[l];
        }
    }
    (grad_weight, grad_bias)
}

/// `planes`, one per lane and equally long, interleaved into `dst`: pixel
/// `i` of lane `l` at `i · DW_LANES + l`. Written as one store per lane, the
/// loop vectorizes as an interleaved store of eight vector loads.
fn channel_minor(planes: [&[f32]; DW_LANES], dst: &mut [f32]) {
    let len = planes[0].len();
    let [p0, p1, p2, p3, p4, p5, p6, p7] = planes.map(|p| &p[..len]);
    for (i, px) in dst[..len * DW_LANES].chunks_exact_mut(DW_LANES).enumerate() {
        *<&mut Lanes>::try_from(px).expect("lanes") =
            [p0[i], p1[i], p2[i], p3[i], p4[i], p5[i], p6[i], p7[i]];
    }
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

/// The accumulators of one block of kernel taps, a channel per lane.
type TapSums = [[Lanes; DW_TAP_BLOCK]; DW_TAP_BLOCK];

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

/// `sum + g·x` in the lanes whose gradient `g` is not zero, `sum` in the
/// others.
#[inline(always)]
fn add_nonzero(sum: &mut Lanes, g: &Lanes, x: &[f32]) {
    for ((s, &g), &x) in sum.iter_mut().zip(g).zip(x) {
        let t = *s + g * x;
        *s = if g == 0.0 { *s } else { t };
    }
}

/// Adds one image's filter gradient at stride `S` (0: the spec's), a
/// channel per lane, into the channel-minor accumulators `acc` (tap `t` of
/// lane `l` at `t · DW_LANES + l`), from the channel-minor planes `x` and
/// `g`: output pixels in raster order, in-bounds taps in kernel order.
///
/// Each tap's sum is a chain of dependent adds, so the taps run side by
/// side: one pass over the output plane per 3×3 block of taps (a 3×3
/// kernel is one pass). The output columns of a row whose block taps all
/// land inside the input run with the block's accumulators in registers;
/// the others check each tap.
fn weight_grad_lanes<const S: usize>(x: &[f32], g: &[f32], geo: &DwGeometry<'_>, acc: &mut [f32]) {
    const B: usize = DW_TAP_BLOCK;
    let DwGeometry { spec, h, w, ow, .. } = *geo;
    let (k, p, s) = (spec.kernel, spec.padding, geo.stride::<S>());
    for ky0 in (0..k).step_by(B) {
        for kx0 in (0..k).step_by(B) {
            let tap =
                |a: usize, b: usize| (ky0 + a < k && kx0 + b < k).then(|| (ky0 + a) * k + kx0 + b);
            let mut sums: TapSums = std::array::from_fn(|a| {
                std::array::from_fn(|b| {
                    tap(a, b).map_or([0.0; DW_LANES], |t| lanes(&acc[t * DW_LANES..]))
                })
            });
            let (cx_lo, cx_hi) = interior_outputs(kx0, B, (w, ow), spec);
            for (oy, grow) in g.chunks_exact(ow * DW_LANES).enumerate() {
                let (ky_lo, ky_hi) = valid_taps(oy, h, spec);
                let (lo, hi) = if ky0 >= ky_lo && ky0 + B <= ky_hi && kx0 + B <= k {
                    (cx_lo, cx_hi)
                } else {
                    (ow, ow)
                };
                // Taps `ky0 + a`, `kx0 + b` of output column `ox` read input
                // pixel `at + (a·w + ox·s + b)` (times the lanes).
                let at = (oy * s + ky0) as isize * w as isize + kx0 as isize - (p * w + p) as isize;
                let checked = |sums: &mut TapSums, ox: usize| {
                    let gv = lanes(&grow[ox * DW_LANES..]);
                    let (kx_lo, kx_hi) = valid_taps(ox, w, spec);
                    for (a, sums) in sums.iter_mut().enumerate() {
                        if !(ky_lo..ky_hi).contains(&(ky0 + a)) {
                            continue;
                        }
                        for (b, sum) in sums.iter_mut().enumerate() {
                            if (kx_lo..kx_hi).contains(&(kx0 + b)) {
                                let px = at + (a * w + ox * s + b) as isize;
                                add_nonzero(sum, &gv, &x[px as usize * DW_LANES..]);
                            }
                        }
                    }
                };
                for ox in 0..lo {
                    checked(&mut sums, ox);
                }
                if lo < hi {
                    let base = (at + (lo * s) as isize) as usize;
                    sums = interior_run::<S>(
                        sums,
                        x,
                        (base, w, s),
                        &grow[lo * DW_LANES..hi * DW_LANES],
                    );
                }
                for ox in hi.max(lo)..ow {
                    checked(&mut sums, ox);
                }
            }
            for (a, row) in sums.iter().enumerate() {
                for (b, v) in row.iter().enumerate() {
                    if let Some(t) = tap(a, b) {
                        acc[t * DW_LANES..][..DW_LANES].copy_from_slice(v);
                    }
                }
            }
        }
    }
}

/// The interior output columns of one row of [`weight_grad_lanes`], whose
/// gradients are `g`: the first reads its block's taps from input pixels
/// `base + a·w + b`, each next one `s` pixels on (`S`, if not 0).
#[inline(always)]
fn interior_run<const S: usize>(
    mut sums: TapSums,
    x: &[f32],
    (base, w, s): (usize, usize, usize),
    g: &[f32],
) -> TapSums {
    const B: usize = DW_TAP_BLOCK;
    let s = if S == 0 { s } else { S };
    let (x, _) = x.as_chunks::<DW_LANES>();
    let (g, _) = g.as_chunks::<DW_LANES>();
    // Each tap row's pixels for the columns in turn.
    let rows: [_; B] = std::array::from_fn(|a| x[base + a * w..].windows(B).step_by(s));
    let [r0, r1, r2] = rows;
    for (&gv, taps) in g.iter().zip(r0.zip(r1).zip(r2)) {
        let ((x0, x1), x2) = taps;
        for (sums, xs) in sums.iter_mut().zip([x0, x1, x2]) {
            for (sum, xv) in sums.iter_mut().zip(xs) {
                add_nonzero(sum, &gv, xv);
            }
        }
    }
    sums
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
