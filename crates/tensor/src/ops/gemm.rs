//! Shape-specialized packed-panel GEMM microkernels.
//!
//! The inference hot path runs two matrix disciplines over and over with
//! weights that never change between calls:
//!
//! * **conv**: `weight[m,k] · cols[k,n]` over an im2col buffer, followed by
//!   a per-row bias add ([`super::conv::conv2d_into`]);
//! * **linear**: `x[rows,k] · weightᵀ[m,k]ᵀ` followed by a bias add
//!   ([`super::linear::linear_into`]).
//!
//! Training reuses both disciplines for its backward products (see
//! [`super::conv::conv2d_backward`] and [`super::linear::linear_backward`]),
//! packing operands that change every step with [`KernelVariant::TRAINING`].
//!
//! This module packs the weight operand once into an MR-row, k-major panel
//! layout ([`PackedPanels`]) and dispatches register-blocked microkernels
//! over it ([`KernelVariant`]): MR×NR output accumulators live in registers
//! for the whole k loop, the panel is streamed contiguously, and the bias is
//! fused into the store, so the per-call path does zero repacking and zero
//! allocation.
//!
//! # Bit-exactness
//!
//! Every variant reproduces the reference kernels bit-for-bit, which is what
//! lets the autotuner pick freely without perturbing the simulated HPC
//! counts downstream:
//!
//! * the conv discipline accumulates each output element's products in
//!   ascending-k order from `0.0`, exactly like
//!   [`matmul_into`](super::linear::matmul_into) (whose zero-skip fast
//!   paths are themselves bit-identical to the no-skip loop for finite
//!   inputs: adding `±0.0` to a finite accumulator that started at `+0.0`
//!   never changes it under round-to-nearest);
//! * the linear discipline replicates the exact split-k4 reduction of
//!   [`dot`]: four interleaved partial sums over `k / 4` chunks, summed
//!   left-associatively, then the tail added in ascending order;
//! * the fused bias store computes `acc + bias`, the same expression the
//!   reference paths evaluate after their GEMM.
//!
//! Row blocking (MR) and column blocking (NR) only change *which* elements
//! are computed together, never the order of any element's own reduction,
//! so the variant choice is observationally irrelevant.

use std::ops::Range;

use crate::Tensor;

/// Which matrix discipline a GEMM call site uses (reduction-order contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GemmOpKind {
    /// `weight · im2col` with ascending-k accumulation (convolution).
    Conv,
    /// `x · weightᵀ` with split-k4 accumulation (fully connected).
    Linear,
}

impl GemmOpKind {
    /// Stable one-byte tag for fingerprints and persisted decision tables.
    pub fn tag(self) -> u8 {
        match self {
            GemmOpKind::Conv => 1,
            GemmOpKind::Linear => 2,
        }
    }

    /// Stable lowercase name.
    pub fn label(self) -> &'static str {
        match self {
            GemmOpKind::Conv => "conv",
            GemmOpKind::Linear => "linear",
        }
    }
}

/// The dimensions of one GEMM call site: `m×k` weights against a `k×n`
/// (conv) or `n×k` (linear, `n` = batch rows) data operand.
///
/// Two layers with the same geometry perform the identical computation, so
/// the autotuner keys its decision table on this struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GemmGeometry {
    /// Discipline of the call site.
    pub op: GemmOpKind,
    /// Weight rows (conv output channels / linear output features).
    pub m: usize,
    /// Reduction length (conv `in_c·k·k` / linear input features).
    pub k: usize,
    /// Data columns (conv `oh·ow` / linear batch rows, 1 on the
    /// single-image measure path).
    pub n: usize,
}

impl std::fmt::Display for GemmGeometry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}x{}x{}", self.op.label(), self.m, self.k, self.n)
    }
}

/// One register-blocking strategy: MR weight rows per panel, NR data
/// columns per accumulator block (conv discipline only; the linear
/// discipline uses MR lanes with the split-k4 accumulators).
///
/// All variants are bit-exact (see the module docs), so the autotuner's
/// choice is purely a performance decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelVariant {
    /// 4 rows × 16 columns: widest column vectorization.
    Mr4Nr16,
    /// 8 rows × 8 columns: halves the data-operand traffic.
    Mr8Nr8,
    /// 6 rows × 8 columns: middle ground for row counts divisible by 6.
    Mr6Nr8,
}

impl KernelVariant {
    /// Every variant, in stable order.
    pub const ALL: [Self; 3] = [Self::Mr4Nr16, Self::Mr8Nr8, Self::Mr6Nr8];

    /// The variant of the training GEMMs, whose operands are repacked on
    /// every step or call rather than tuned: eight-row panels fill AVX2
    /// vectors in both disciplines (about 2.5× the 4-row panels on the
    /// backward products).
    pub const TRAINING: Self = Self::Mr8Nr8;

    /// The variant of the products that continue their accumulators
    /// through `out`, a linear layer's input and weight gradients: each
    /// sixteen-column block reads whole cache lines of the streamed
    /// operand (about 1.3–2× the eight-row panels there).
    pub const ACCUMULATING: Self = Self::Mr4Nr16;

    /// Rows per packed panel.
    pub fn mr(self) -> usize {
        match self {
            Self::Mr4Nr16 => 4,
            Self::Mr8Nr8 => 8,
            Self::Mr6Nr8 => 6,
        }
    }

    /// Columns per conv accumulator block.
    pub fn nr(self) -> usize {
        match self {
            Self::Mr4Nr16 => 16,
            Self::Mr8Nr8 | Self::Mr6Nr8 => 8,
        }
    }

    /// Stable one-byte tag for persisted decision tables.
    pub fn tag(self) -> u8 {
        match self {
            Self::Mr4Nr16 => 1,
            Self::Mr8Nr8 => 2,
            Self::Mr6Nr8 => 3,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|v| v.tag() == tag)
    }

    /// Stable metric/label suffix, e.g. `mr4nr16`.
    pub fn label(self) -> &'static str {
        match self {
            Self::Mr4Nr16 => "mr4nr16",
            Self::Mr8Nr8 => "mr8nr8",
            Self::Mr6Nr8 => "mr6nr8",
        }
    }
}

impl Default for KernelVariant {
    /// The fallback when tuning is disabled: widest column vectorization.
    fn default() -> Self {
        Self::Mr4Nr16
    }
}

/// A weight matrix repacked into MR-row, k-major panels for one
/// [`KernelVariant`].
///
/// Panel `p` holds rows `[p·MR, (p+1)·MR)`; within a panel the slot order is
/// `[kk·MR + r]`, so the microkernel streams the panel exactly once per
/// block of output columns with unit stride. The last panel's missing rows
/// are zero-padded: their lanes are computed (cheaply, against zeros) but
/// never stored.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedWeights {
    data: Vec<f32>,
    variant: KernelVariant,
    rows: usize,
    k: usize,
}

impl PackedWeights {
    /// Packs a row-major `rows × k` matrix into a zero-allocated buffer.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != rows * k`.
    pub fn pack(a: &[f32], rows: usize, k: usize, variant: KernelVariant) -> Self {
        Self::packed_in(Vec::new(), a, rows, k, variant, |&v| v)
    }

    /// Panels for a `rows × k` all-zero matrix: a buffer that
    /// [`repack`](Self::repack) refills without allocating.
    pub fn zeros(rows: usize, k: usize, variant: KernelVariant) -> Self {
        Self::zeros_in(Vec::new(), rows, k, variant)
    }

    /// [`zeros`](Self::zeros) in `buf`'s allocation, which
    /// [`into_buffer`](Self::into_buffer) hands back. A `buf` too small
    /// for the panels is dropped for a zero-allocated one instead of being
    /// grown and then written with zeros.
    pub fn zeros_in(mut buf: Vec<f32>, rows: usize, k: usize, variant: KernelVariant) -> Self {
        buf.clear();
        Self::sized_in(buf, rows, k, variant)
    }

    /// Panels of the `rows × k` geometry in `buf`'s allocation, or a
    /// zero-allocated one when it is too small, with unspecified contents
    /// except that floats past `buf`'s length are zero.
    fn sized_in(mut buf: Vec<f32>, rows: usize, k: usize, variant: KernelVariant) -> Self {
        let len = rows.div_ceil(variant.mr()) * k * variant.mr();
        if buf.capacity() < len {
            buf = vec![0.0; len];
        } else {
            buf.resize(len, 0.0);
        }
        Self {
            data: buf,
            variant,
            rows,
            k,
        }
    }

    /// The panels' buffer, for [`zeros_in`](Self::zeros_in) or
    /// [`pack_le_bytes_in`](Self::pack_le_bytes_in) to reuse.
    pub fn into_buffer(self) -> Vec<f32> {
        self.data
    }

    /// Repacks a row-major matrix of the same `rows × k` geometry into
    /// these panels in place.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != rows * k`.
    pub fn repack(&mut self, a: &[f32]) {
        self.fill(a, |&v| v);
    }

    /// Packs a row-major `rows × k` matrix stored as little-endian `f32`
    /// bytes (an `AHW1` weight payload) straight into panels in `buf`'s
    /// allocation: bit for bit [`pack`](Self::pack) of the decoded floats,
    /// whatever `buf` held. Every float of a large enough `buf` is written
    /// once, and a smaller one is dropped for a zero-allocated buffer.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != rows * k * 4`.
    pub fn pack_le_bytes_in(
        buf: Vec<f32>,
        bytes: &[u8],
        rows: usize,
        k: usize,
        variant: KernelVariant,
    ) -> Self {
        let (words, rest) = bytes.as_chunks::<4>();
        assert!(rest.is_empty(), "packing a byte payload of partial floats");
        Self::packed_in(buf, words, rows, k, variant, |w| f32::from_le_bytes(*w))
    }

    /// Packs a row-major `rows × k` matrix of `T`s, each read as a float
    /// by `value`, into panels in `buf`'s allocation (see
    /// [`pack_le_bytes_in`](Self::pack_le_bytes_in)).
    fn packed_in<T>(
        buf: Vec<f32>,
        a: &[T],
        rows: usize,
        k: usize,
        variant: KernelVariant,
        value: impl Fn(&T) -> f32,
    ) -> Self {
        let mut packed = Self::sized_in(buf, rows, k, variant);
        packed.fill(a, value);
        packed
    }

    /// Writes a row-major `rows × k` matrix of `T`s, each read as a float
    /// by `value`, into every slot of the panels, the tail panel's padding
    /// lanes as zeros.
    fn fill<T>(&mut self, a: &[T], value: impl Fn(&T) -> f32) {
        let (rows, k) = (self.rows, self.k);
        assert_eq!(a.len(), rows * k, "packing a non-{rows}x{k} matrix");
        match self.variant {
            KernelVariant::Mr4Nr16 => repack_panels::<4, T>(&mut self.data, a, rows, k, value),
            KernelVariant::Mr8Nr8 => repack_panels::<8, T>(&mut self.data, a, rows, k, value),
            KernelVariant::Mr6Nr8 => repack_panels::<6, T>(&mut self.data, a, rows, k, value),
        }
    }

    /// The row-major `rows × k` matrix the panels were packed from: a pure
    /// permutation of the panel slots, so `pack(unpack())` gives back
    /// these panels bit for bit.
    pub fn unpack(&self) -> Vec<f32> {
        let mr = self.variant.mr();
        let mut a = Vec::with_capacity(self.rows * self.k);
        for r in 0..self.rows {
            let panel = self.panel(r / mr);
            a.extend((0..self.k).map(|kk| panel[kk * mr + r % mr]));
        }
        a
    }

    /// [`unpack`](Self::unpack) as a rank-2 `[rows, k]` tensor.
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(self.unpack(), &[self.rows, self.k]).expect("rows x k floats")
    }

    /// Packs a rank-2 `[rows, k]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank-2.
    pub fn pack_tensor(w: &Tensor, variant: KernelVariant) -> Self {
        assert_eq!(w.shape().rank(), 2, "packed weights must be rank-2");
        Self::pack(w.data(), w.shape().dim(0), w.shape().dim(1), variant)
    }

    /// The blocking strategy the panels were packed for.
    pub fn variant(&self) -> KernelVariant {
        self.variant
    }

    /// Rows of the original matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns (reduction length) of the original matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total floats held, including tail-panel zero padding.
    pub fn packed_len(&self) -> usize {
        self.data.len()
    }

    fn panel(&self, p: usize) -> &[f32] {
        let stride = self.k * self.variant.mr();
        &self.data[p * stride..(p + 1) * stride]
    }
}

/// [`PackedWeights::fill`] for MR-row panels. A full panel is written
/// slot by slot, each slot's MR values gathered from the MR rows at once,
/// so the panel is stored sequentially; the tail panel goes row by row,
/// then its padding lanes are zeroed.
fn repack_panels<const MR: usize, T>(
    panels: &mut [f32],
    a: &[T],
    rows: usize,
    k: usize,
    value: impl Fn(&T) -> f32,
) {
    for (p, panel) in panels.chunks_exact_mut(k * MR).enumerate() {
        let live = MR.min(rows - p * MR);
        let src = &a[p * MR * k..(p * MR + live) * k];
        if live == MR {
            let rows: [&[T]; MR] = std::array::from_fn(|r| &src[r * k..(r + 1) * k]);
            for (kk, slot) in panel.chunks_exact_mut(MR).enumerate() {
                for (v, row) in slot.iter_mut().zip(&rows) {
                    *v = value(&row[kk]);
                }
            }
        } else {
            for (r, row) in src.chunks_exact(k).enumerate() {
                for (kk, v) in row.iter().enumerate() {
                    panel[kk * MR + r] = value(v);
                }
            }
            for slot in panel.chunks_exact_mut(MR) {
                slot[live..].fill(0.0);
            }
        }
    }
}

/// Conv-discipline packed GEMM with fused bias:
/// `out[r, j] = Σ_k panel[r, kk]·b[kk, j] + bias[r]`, accumulated in
/// ascending-k order — bit-for-bit
/// [`matmul_into`](super::linear::matmul_into) followed by the bias add of
/// [`conv2d_into`](super::conv::conv2d_into).
///
/// `b` is row-major `k × n`, `out` row-major `rows × n`; every output
/// element is assigned.
///
/// # Panics
///
/// Panics if `b`, `bias` or `out` do not match the packed geometry.
pub fn gemm_packed_bias_into(
    packed: &PackedWeights,
    b: &[f32],
    n: usize,
    bias: &[f32],
    out: &mut [f32],
) {
    let (rows, k) = (packed.rows, packed.k);
    assert_eq!(b.len(), k * n, "gemm data operand must be {k}x{n}");
    assert_eq!(bias.len(), rows, "gemm bias must have {rows} entries");
    assert_eq!(out.len(), rows * n, "gemm output must be {rows}x{n}");
    match packed.variant {
        KernelVariant::Mr4Nr16 => conv_panels::<4, 16, false>(packed, b, n, bias, out, 0..n),
        KernelVariant::Mr8Nr8 => conv_panels::<8, 8, false>(packed, b, n, bias, out, 0..n),
        KernelVariant::Mr6Nr8 => conv_panels::<6, 8, false>(packed, b, n, bias, out, 0..n),
    }
}

/// Conv-discipline packed GEMM that continues each output element's
/// reduction: the accumulator starts from `out[r, j]`, adds the products
/// in ascending-k order and is stored back, with no bias.
///
/// Over a zeroed `out`, calls on consecutive row blocks of `b` (with the
/// matching column blocks of the packed operand) give bit for bit one
/// [`gemm_packed_bias_into`] over the whole reduction with a zero bias: an
/// accumulator that starts at `+0.0` never becomes `-0.0`, so that final
/// `+ 0.0` changes nothing.
///
/// The columns go through in passes of [`ACC_PASS_COLS`], every panel
/// over one pass before the next pass starts, so each pass's slice of `b`
/// is loaded from memory once however many panels there are. Blocking
/// changes no element's own reduction.
///
/// # Panics
///
/// Panics if `b` or `out` do not match the packed geometry.
pub(super) fn gemm_packed_acc_into(packed: &PackedWeights, b: &[f32], n: usize, out: &mut [f32]) {
    let (rows, k) = (packed.rows, packed.k);
    assert_eq!(b.len(), k * n, "gemm data operand must be {k}x{n}");
    assert_eq!(out.len(), rows * n, "gemm output must be {rows}x{n}");
    for lo in (0..n).step_by(ACC_PASS_COLS) {
        let cols = lo..(lo + ACC_PASS_COLS).min(n);
        match packed.variant {
            KernelVariant::Mr4Nr16 => conv_panels::<4, 16, true>(packed, b, n, &[], out, cols),
            KernelVariant::Mr8Nr8 => conv_panels::<8, 8, true>(packed, b, n, &[], out, cols),
            KernelVariant::Mr6Nr8 => conv_panels::<6, 8, true>(packed, b, n, &[], out, cols),
        }
    }
}

/// Columns per pass of [`gemm_packed_acc_into`]: a 32-row slice of a
/// `b` row-major operand is then 32 KiB, about an L1 data cache.
const ACC_PASS_COLS: usize = 256;

/// Linear-discipline packed GEMM with fused bias:
/// `out[i, r] = dot(x[i, ..], panel row r) + bias[r]` with the exact
/// split-k4 reduction of [`dot`] — bit-for-bit
/// [`linear_into`](super::linear::linear_into).
///
/// `x` is row-major `xrows × k`, `out` row-major `xrows × rows`; every
/// output element is assigned.
///
/// # Panics
///
/// Panics if `x`, `bias` or `out` do not match the packed geometry.
pub fn linear_packed_bias_into(
    packed: &PackedWeights,
    x: &[f32],
    xrows: usize,
    bias: &[f32],
    out: &mut [f32],
) {
    let (rows, k) = (packed.rows, packed.k);
    assert_eq!(x.len(), xrows * k, "linear input must be {xrows}x{k}");
    assert_eq!(bias.len(), rows, "linear bias must have {rows} entries");
    assert_eq!(
        out.len(),
        xrows * rows,
        "linear output must be {xrows}x{rows}"
    );
    let out = (rows, 0, out);
    match packed.variant {
        KernelVariant::Mr4Nr16 => linear_panels::<4, false>(packed, x, xrows, bias, out),
        KernelVariant::Mr8Nr8 => linear_panels::<8, false>(packed, x, xrows, bias, out),
        KernelVariant::Mr6Nr8 => linear_panels::<6, false>(packed, x, xrows, bias, out),
    }
}

/// [`linear_packed_bias_into`] for a block of weight rows: writes the
/// output columns `first..first + packed.rows()` of `out`, a row-major
/// `xrows × width` matrix, and leaves its other columns as they are. The
/// blocks of a matrix's rows give together bit for bit the product over
/// the whole matrix: the columns are computed independently.
///
/// # Panics
///
/// Panics if `x`, `bias` or `out` do not match the packed geometry.
pub fn linear_packed_bias_cols_into(
    packed: &PackedWeights,
    x: &[f32],
    xrows: usize,
    bias: &[f32],
    out: &mut [f32],
    first: usize,
) {
    let (rows, k) = (packed.rows, packed.k);
    assert_eq!(x.len(), xrows * k, "linear input must be {xrows}x{k}");
    assert_eq!(bias.len(), rows, "linear bias must have {rows} entries");
    let width = out.len().checked_div(xrows).unwrap_or(first + rows);
    assert!(
        out.len() == xrows * width && first + rows <= width,
        "linear output columns {first}..{} out of a {xrows}-row output of {} floats",
        first + rows,
        out.len()
    );
    let out = (width, first, out);
    match packed.variant {
        KernelVariant::Mr4Nr16 => linear_panels::<4, true>(packed, x, xrows, bias, out),
        KernelVariant::Mr8Nr8 => linear_panels::<8, true>(packed, x, xrows, bias, out),
        KernelVariant::Mr6Nr8 => linear_panels::<6, true>(packed, x, xrows, bias, out),
    }
}

/// MR×NR register-blocked conv microkernel over one packed operand, for
/// the output columns `cols` of `n`.
///
/// The accumulator block lives in registers for the whole k loop; each
/// element's own reduction is ascending-k, so blocking is invisible in the
/// bits. Without `ACC` the accumulators start at zero and the store adds
/// `bias`; with `ACC` they start from `out` and are stored as they are,
/// loaded and stored by loops unrolled over MR with the row test inside
/// (a loop over the live rows spills the block out of registers).
fn conv_panels<const MR: usize, const NR: usize, const ACC: bool>(
    packed: &PackedWeights,
    b: &[f32],
    n: usize,
    bias: &[f32],
    out: &mut [f32],
    cols: Range<usize>,
) {
    let (rows, k) = (packed.rows, packed.k);
    for p in 0..rows.div_ceil(MR) {
        let panel = packed.panel(p);
        let r0 = p * MR;
        let live = MR.min(rows - r0);
        let mut j = cols.start;
        while j + NR <= cols.end {
            let mut acc = [[0.0f32; NR]; MR];
            if ACC {
                for (r, acc) in acc.iter_mut().enumerate() {
                    if r < live {
                        acc.copy_from_slice(&out[(r0 + r) * n + j..][..NR]);
                    }
                }
            }
            for kk in 0..k {
                let brow: &[f32; NR] = b[kk * n + j..kk * n + j + NR]
                    .try_into()
                    .expect("NR-sized block");
                let a: &[f32; MR] = panel[kk * MR..(kk + 1) * MR]
                    .try_into()
                    .expect("MR-sized panel slice");
                for r in 0..MR {
                    let av = a[r];
                    for (dst, &bv) in acc[r].iter_mut().zip(brow) {
                        *dst += av * bv;
                    }
                }
            }
            if ACC {
                for (r, acc) in acc.iter().enumerate() {
                    if r < live {
                        out[(r0 + r) * n + j..][..NR].copy_from_slice(acc);
                    }
                }
            } else {
                for r in 0..live {
                    let orow = &mut out[(r0 + r) * n + j..(r0 + r) * n + j + NR];
                    for (o, &s) in orow.iter_mut().zip(acc[r].iter()) {
                        *o = s + bias[r0 + r];
                    }
                }
            }
            j += NR;
        }
        // Tail columns: one scalar ascending-k reduction per element.
        while j < cols.end {
            let mut acc = [0.0f32; MR];
            if ACC {
                for (r, acc) in acc.iter_mut().enumerate().take(live) {
                    *acc = out[(r0 + r) * n + j];
                }
            }
            for kk in 0..k {
                let bv = b[kk * n + j];
                let a = &panel[kk * MR..(kk + 1) * MR];
                for (dst, &av) in acc.iter_mut().zip(a) {
                    *dst += av * bv;
                }
            }
            for r in 0..live {
                out[(r0 + r) * n + j] = if ACC { acc[r] } else { acc[r] + bias[r0 + r] };
            }
            j += 1;
        }
    }
}

/// MR-lane split-k4 linear microkernel over one packed operand.
///
/// Per lane this is exactly [`dot`]: four interleaved partial sums over the
/// `k/4` chunks (ascending), summed left-associatively, tail ascending.
/// Each panel is applied to every input row before the next panel loads,
/// so a many-row batch streams the weights once instead of once per row;
/// the rows go through in pairs, so each panel load feeds two rows, and an
/// odd last row runs alone.
///
/// `out` is `(width, first, data)`: row `i`'s output column `c` of the
/// packed rows is `data[i * width + first + c]`. Without `COLS` the output
/// is the packed rows' alone, `(rows, 0, data)`, known when compiling.
fn linear_panels<const MR: usize, const COLS: bool>(
    packed: &PackedWeights,
    x: &[f32],
    xrows: usize,
    bias: &[f32],
    (width, first, out): (usize, usize, &mut [f32]),
) {
    let (rows, k) = (packed.rows, packed.k);
    let (width, first) = if COLS { (width, first) } else { (rows, 0) };
    for p in 0..rows.div_ceil(MR) {
        let panel = packed.panel(p);
        let r0 = p * MR;
        let live = MR.min(rows - r0);
        let bias = &bias[r0..r0 + live];
        let mut store = |i: usize, s: &[f32; MR]| {
            let row = &mut out[i * width + first + r0..][..live];
            for ((o, &acc), &b) in row.iter_mut().zip(s).zip(bias) {
                *o = acc + b;
            }
        };
        let xrow = |i: usize| &x[i * k..(i + 1) * k];
        let mut i = 0;
        while i + 2 <= xrows {
            let [s0, s1] = split_k4_pair::<MR>(panel, xrow(i), xrow(i + 1));
            store(i, &s0);
            store(i + 1, &s1);
            i += 2;
        }
        if i < xrows {
            store(i, &split_k4_row::<MR>(panel, xrow(i)));
        }
    }
}

/// The split-k4 reduction of [`dot`] of two input rows against every lane
/// of one packed panel: per row and lane, four interleaved partial sums
/// over the `k / 4` chunks, summed left to right, then the tail in
/// ascending order. Both rows share each panel load.
#[inline(always)]
fn split_k4_pair<const MR: usize>(panel: &[f32], x0: &[f32], x1: &[f32]) -> [[f32; MR]; 2] {
    let (lanes, _) = panel.as_chunks::<MR>();
    let (body, tail) = lanes.as_chunks::<4>();
    let (h0, t0) = x0.as_chunks::<4>();
    let (h1, t1) = x1.as_chunks::<4>();
    let mut a0 = [[0.0f32; MR]; 4];
    let mut a1 = [[0.0f32; MR]; 4];
    for ((a, v0), v1) in body.iter().zip(h0).zip(h1) {
        for q in 0..4 {
            for r in 0..MR {
                a0[q][r] += a[q][r] * v0[q];
                a1[q][r] += a[q][r] * v1[q];
            }
        }
    }
    let mut s = [[0.0f32; MR]; 2];
    for r in 0..MR {
        s[0][r] = a0[0][r] + a0[1][r] + a0[2][r] + a0[3][r];
        s[1][r] = a1[0][r] + a1[1][r] + a1[2][r] + a1[3][r];
    }
    for ((a, &v0), &v1) in tail.iter().zip(t0).zip(t1) {
        for r in 0..MR {
            s[0][r] += a[r] * v0;
            s[1][r] += a[r] * v1;
        }
    }
    s
}

/// [`split_k4_pair`] for a single input row.
#[inline(always)]
fn split_k4_row<const MR: usize>(panel: &[f32], x: &[f32]) -> [f32; MR] {
    let (lanes, _) = panel.as_chunks::<MR>();
    let (body, tail) = lanes.as_chunks::<4>();
    let (head, rest) = x.as_chunks::<4>();
    let mut acc = [[0.0f32; MR]; 4];
    for (a, v) in body.iter().zip(head) {
        for q in 0..4 {
            for r in 0..MR {
                acc[q][r] += a[q][r] * v[q];
            }
        }
    }
    let mut s = [0.0f32; MR];
    for r in 0..MR {
        s[r] = acc[0][r] + acc[1][r] + acc[2][r] + acc[3][r];
    }
    for (a, &v) in tail.iter().zip(rest) {
        for r in 0..MR {
            s[r] += a[r] * v;
        }
    }
    s
}

/// The row-major transpose of a row-major `rows × cols` matrix.
pub(super) fn transpose(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    debug_assert_eq!(a.len(), rows * cols);
    let mut t = vec![0.0f32; a.len()];
    for (r, row) in a.chunks_exact(cols.max(1)).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            t[c * rows + r] = v;
        }
    }
    t
}

/// Split-k4 dot product — the linear discipline's reduction order.
///
/// The reference [`matmul_bt_into`](super::linear::matmul_bt_into) and
/// [`linear_into`](super::linear::linear_into) run it; the packed
/// [`linear_panels`] replicates it per row and lane, which the
/// `gemm_equivalence` proptests pin.
#[inline]
pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc[0] += a[i] * b[i];
        acc[1] += a[i + 1] * b[i + 1];
        acc[2] += a[i + 2] * b[i + 2];
        acc[3] += a[i + 3] * b[i + 3];
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        s += a[i] * b[i];
    }
    s
}

/// One sparsity-aware k-step: `orow += aval * brow`, skipped entirely when
/// `aval` is exactly zero (im2col padding rows, sparse gradients).
///
/// Shared by the reference [`matmul_into`](super::linear::matmul_into)
/// tails and [`matmul_at`](super::linear::matmul_at)'s inner loop.
#[inline]
pub(super) fn axpy_skip_zero(aval: f32, brow: &[f32], orow: &mut [f32]) {
    if aval == 0.0 {
        return;
    }
    for (o, &bval) in orow.iter_mut().zip(brow.iter()) {
        *o += aval * bval;
    }
}

#[cfg(test)]
mod tests {
    use super::super::linear::{linear_into, matmul_into};
    use super::*;
    use crate::Tensor;

    /// Deterministic pseudo-random fill with zeros sprinkled in (to cross
    /// the reference kernels' zero-skip fast paths).
    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(7) {
                    0.0
                } else {
                    ((state >> 16) as i32 % 1000) as f32 / 250.0
                }
            })
            .collect()
    }

    fn tensor(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).expect("test tensor")
    }

    #[test]
    fn conv_discipline_is_bit_exact_for_every_variant() {
        for (m, k, n) in [
            (16, 27, 1024),
            (16, 144, 1024),
            (10, 128, 1),
            (1, 1, 1),
            (5, 9, 17),
            (7, 13, 3),
            (6, 8, 8),
            (9, 5, 33),
        ] {
            let a = fill(m * k, (m * 31 + k) as u64);
            let b = fill(k * n, (k * 17 + n) as u64);
            let bias = fill(m, m as u64);
            let at = tensor(&a, &[m, k]);
            let bt = tensor(&b, &[k, n]);
            let mut reference = Tensor::zeros(&[m, n]);
            matmul_into(&at, &bt, &mut reference);
            let mut expect = reference.data().to_vec();
            for r in 0..m {
                for v in &mut expect[r * n..(r + 1) * n] {
                    *v += bias[r];
                }
            }
            for variant in KernelVariant::ALL {
                let packed = PackedWeights::pack(&a, m, k, variant);
                let mut got = vec![f32::NAN; m * n];
                gemm_packed_bias_into(&packed, &b, n, &bias, &mut got);
                for (i, (g, e)) in got.iter().zip(expect.iter()).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        e.to_bits(),
                        "{variant:?} {m}x{k}x{n} diverged at {i}: {g} vs {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn linear_discipline_is_bit_exact_for_every_variant() {
        for (xrows, out_f, in_f) in [
            (1, 128, 2048),
            (1, 10, 128),
            (3, 8, 32),
            (2, 5, 7),
            (1, 1, 1),
            (4, 6, 9),
            (2, 13, 5),
        ] {
            let x = fill(xrows * in_f, (xrows * 7 + in_f) as u64);
            let w = fill(out_f * in_f, (out_f * 3 + in_f) as u64);
            let bias = fill(out_f, out_f as u64);
            let xt = tensor(&x, &[xrows, in_f]);
            let wt = tensor(&w, &[out_f, in_f]);
            let biast = tensor(&bias, &[out_f]);
            let mut reference = Tensor::zeros(&[xrows, out_f]);
            linear_into(&xt, &wt, &biast, &mut reference);
            for variant in KernelVariant::ALL {
                let packed = PackedWeights::pack_tensor(&wt, variant);
                let mut got = vec![f32::NAN; xrows * out_f];
                linear_packed_bias_into(&packed, &x, xrows, &bias, &mut got);
                for (i, (g, e)) in got.iter().zip(reference.data().iter()).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        e.to_bits(),
                        "{variant:?} {xrows}x{out_f}x{in_f} diverged at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_blocks_fill_their_output_columns() {
        let (xrows, out_f, in_f) = (3, 13, 9);
        let x = fill(xrows * in_f, 4);
        let w = fill(out_f * in_f, 5);
        let bias = fill(out_f, 6);
        let whole = PackedWeights::pack(&w, out_f, in_f, KernelVariant::TRAINING);
        let mut want = vec![f32::NAN; xrows * out_f];
        linear_packed_bias_into(&whole, &x, xrows, &bias, &mut want);
        let mut got = vec![f32::NAN; xrows * out_f];
        for first in (0..out_f).step_by(5) {
            let rows = 5.min(out_f - first);
            let block = &w[first * in_f..(first + rows) * in_f];
            let packed = PackedWeights::pack(block, rows, in_f, KernelVariant::TRAINING);
            let bias = &bias[first..first + rows];
            linear_packed_bias_cols_into(&packed, &x, xrows, bias, &mut got, first);
        }
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn tail_panel_padding_never_leaks() {
        // rows not divisible by any MR: the zero-padded lanes must not be
        // stored.
        let (m, k, n) = (5, 3, 4);
        let a = fill(m * k, 9);
        let b = fill(k * n, 10);
        let bias = vec![1.0; m];
        for variant in KernelVariant::ALL {
            let packed = PackedWeights::pack(&a, m, k, variant);
            let mut out = vec![f32::NAN; m * n];
            gemm_packed_bias_into(&packed, &b, n, &bias, &mut out);
            assert!(out.iter().all(|v| v.is_finite()), "{variant:?} left NaNs");
        }
    }

    #[test]
    fn variant_tags_round_trip() {
        for v in KernelVariant::ALL {
            assert_eq!(KernelVariant::from_tag(v.tag()), Some(v));
        }
        assert_eq!(KernelVariant::from_tag(0), None);
        assert_eq!(KernelVariant::from_tag(99), None);
    }

    #[test]
    fn packed_len_accounts_for_tail_padding() {
        let packed = PackedWeights::pack(&fill(5 * 3, 1), 5, 3, KernelVariant::Mr4Nr16);
        assert_eq!(packed.packed_len(), 2 * 3 * 4); // two 4-row panels
        assert_eq!(packed.rows(), 5);
        assert_eq!(packed.k(), 3);
    }
}
