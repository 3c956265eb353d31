//! The single-precision exponential every tensor kernel uses, owned here so
//! that trained weights and simulated counts do not depend on the host's
//! libm.
//!
//! This is glibc 2.36's `expf` (from Arm's optimized-routines): with
//! `N = 32`, `x·N/ln 2 = k + r` for an integer `k` and `|r| <= 1/2`, so
//! `e^x = 2^(k/N) · 2^(r/N)`. `2^(k/N)` comes from a 32-entry table of
//! `2^(i/N)` with `k / N` added to the exponent bits, and `2^(r/N)` from a
//! degree-3 polynomial, all in `f64`, rounded to `f32` once at the end.
//!
//! `r = InvLn2N·x − kd` is one fused multiply-add, as in glibc's FMA
//! build: with that contraction the result equals the host `f32::exp` for
//! every `f32` input (the exhaustive `matches_host_libm_everywhere` test),
//! without it `x = −63.09946` differs. The polynomial's multiply-adds are
//! fused too; that changes no result.
//!
//! [`exp_lanes`] computes several inputs at once and looks up the table in
//! a pass of its own, so the arithmetic around it vectorizes.

/// `log2` of the table size `N`.
const TABLE_BITS: u32 = 5;

/// `TABLE[i] = bits(2^(i/N)) − (i << (52 − TABLE_BITS))`, so adding
/// `k << (52 − TABLE_BITS)` to `TABLE[k % N]` yields the bits of
/// `2^(k/N)` for any integer `|k| < 150·N`.
const TABLE: [u64; 1 << TABLE_BITS] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `N / ln 2` (`0x1.71547652b82fep+0 · 32`).
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);

/// `0x1.8p+52`: adding it rounds to an integer held in the low mantissa
/// bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);

/// Polynomial `C0·r³ + C1·r² + C2·r + 1 ≈ 2^(r/N)`, coefficients
/// `0x1.c6af84b912394p-5 / N³`, `0x1.ebfce50fac4f3p-3 / N²` and
/// `0x1.62e42ff0c52d6p-1 / N`.
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);

/// Below `log(0x1p-150)` (`-0x1.9fe368p6`) the result rounds to `+0`.
const UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);

/// Above `log(0x1p128)` (`0x1.62e42ep6`) the result rounds to `+inf`.
const OVERFLOW: f32 = f32::from_bits(0x42b1_7217);

/// Inputs computed together by the vectorized callers: one AVX2 vector of
/// `f32`.
pub(crate) const LANES: usize = 8;

/// `e^x` for every lane (see the module docs). NaN propagates, `−inf` gives
/// `+0` and results below `f32::MIN_POSITIVE` are correctly rounded
/// subnormals.
#[inline]
pub(crate) fn exp_lanes<const L: usize>(x: [f32; L]) -> [f32; L] {
    let mut r = [0.0f64; L];
    let mut ki = [0u64; L];
    for ((r, ki), &x) in r.iter_mut().zip(&mut ki).zip(&x) {
        let xd = f64::from(x);
        let kd = INV_LN2_N * xd + SHIFT;
        *ki = kd.to_bits();
        *r = INV_LN2_N.mul_add(xd, -(kd - SHIFT));
    }
    // The gather, apart so that the passes around it vectorize. Out-of-range
    // inputs produce garbage scales here that the final select discards.
    let scale: [f64; L] = std::array::from_fn(|l| {
        let t = TABLE[(ki[l] % (1 << TABLE_BITS)) as usize];
        f64::from_bits(t.wrapping_add(ki[l] << (52 - TABLE_BITS)))
    });
    let y: [f32; L] = std::array::from_fn(|l| {
        let r = r[l];
        let p = C0.mul_add(r, C1);
        (p.mul_add(r * r, C2.mul_add(r, 1.0)) * scale[l]) as f32
    });
    // Masks rather than `if`: LLVM turns a select chain into branches around
    // the arithmetic and stops vectorizing. NaN compares false both ways and
    // keeps `y`, which is NaN.
    std::array::from_fn(|l| {
        let under = u32::from(x[l] < UNDERFLOW).wrapping_neg();
        let over = u32::from(x[l] > OVERFLOW).wrapping_neg();
        f32::from_bits(y[l].to_bits() & !(under | over) | f32::INFINITY.to_bits() & over)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expf(x: f32) -> f32 {
        exp_lanes([x])[0]
    }

    /// The host `f32::exp`, on an input the optimizer cannot see: a
    /// constant argument would be folded at compile time through a
    /// different `exp` (in release, LLVM folds `(-63.09946f32).exp()` one
    /// ulp below glibc's `expf`).
    fn libm(x: f32) -> f32 {
        std::hint::black_box(x).exp()
    }

    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn edge_inputs() {
        assert_eq!(expf(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(expf(-0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(expf(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(expf(f32::INFINITY), f32::INFINITY);
        assert!(expf(f32::NAN).is_nan());
        assert!(expf(-f32::NAN).is_nan());
        // The underflow cutoff itself still rounds up to the smallest
        // subnormal; one step below it is zero.
        assert_eq!(expf(UNDERFLOW), f32::from_bits(1));
        assert_eq!(expf(f32::from_bits(UNDERFLOW.to_bits() + 1)), 0.0);
        assert!(expf(OVERFLOW).is_finite() && same(expf(OVERFLOW), libm(OVERFLOW)));
        assert_eq!(expf(f32::from_bits(OVERFLOW.to_bits() + 1)), f32::INFINITY);
    }

    #[test]
    fn subnormal_results_match_host_libm() {
        // From ln(MIN_POSITIVE) ≈ -87.34 down to the underflow cutoff.
        let mut x = -87.3f32;
        while x > -104.5 {
            let got = expf(x);
            assert!(
                same(got, libm(x)),
                "expf({x:e}) = {got:e}, libm {:e}",
                libm(x)
            );
            x -= 0.0137;
        }
        assert!(expf(-95.0) < f32::MIN_POSITIVE && expf(-95.0) > 0.0);
    }

    #[test]
    fn lanes_agree_with_one_lane() {
        let xs = [
            -0.5f32,
            -63.09946,
            f32::NAN,
            -110.0,
            0.0,
            -1e-30,
            -88.0,
            3.5,
        ];
        let lanes = exp_lanes(xs);
        for (x, y) in xs.into_iter().zip(lanes) {
            assert!(same(y, expf(x)), "{x:e}");
            assert!(same(y, libm(x)), "{x:e}");
        }
    }

    /// Every `f32` bit pattern against the host `f32::exp` (glibc's `expf`
    /// on x86-64 Linux). ~30 s in release on one core of a 2-core Xeon; CI
    /// runs it with `--ignored`. On a host whose
    /// libm `expf` rounds differently this test reports the libm, not this
    /// function: [`exp_lanes`] is the definition the pinned weights rely
    /// on.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release with --ignored"]
    fn matches_host_libm_everywhere() {
        let mut mismatches = Vec::new();
        let mut bits = 0u32;
        loop {
            let x: [f32; LANES] = std::array::from_fn(|l| f32::from_bits(bits + l as u32));
            for (x, y) in x.into_iter().zip(exp_lanes(x)) {
                if !same(y, libm(x)) && mismatches.len() < 16 {
                    mismatches.push(x);
                }
            }
            if bits == u32::MAX - (LANES as u32 - 1) {
                break;
            }
            bits += LANES as u32;
        }
        assert!(mismatches.is_empty(), "differs from libm at {mismatches:?}");
    }
}
