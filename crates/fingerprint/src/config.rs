//! Configuration of the query-fingerprint stage.

use std::fmt;

/// All knobs of the fingerprint defense.
///
/// The configuration is `Copy` and fully scalar so it can ride inside
/// monitor and pipeline configurations, be hashed into content-addressed
/// fingerprints, and be compared for exact equality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FingerprintConfig {
    /// Pixel quantization step. Perturbations smaller than roughly half a
    /// step collapse onto the same quantized level, which is what makes
    /// near-duplicate attack queries hash alike. The paper-calibrated
    /// attack step sizes (σ ≈ 0.01–0.02) sit well inside the default 0.05.
    pub quant_step: f32,
    /// Length (in quantized elements) of each sliding hash window.
    pub probe_window: usize,
    /// Stride between consecutive hash windows. Larger strides hash fewer
    /// windows per query (faster) at slightly coarser localization.
    pub stride: usize,
    /// Number of probe hashes kept per query (the `k` smallest distinct
    /// window hashes — a min-hash sketch of the query).
    pub probes: usize,
    /// Fingerprints remembered per tenant (sliding window, oldest evicted
    /// first). `0` disables the stage entirely: every query degrades
    /// gracefully to an HPC-only verdict.
    pub window: usize,
    /// Fraction of the incoming query's probes that must overlap a single
    /// stored fingerprint to flag the query as attack-correlated.
    pub match_threshold: f64,
    /// Salt mixed into every probe hash. Per-deployment salts keep an
    /// adaptive adversary from predicting hash collisions offline.
    pub salt: u64,
    /// Hard cap on concurrently tracked tenants. Queries from new tenants
    /// beyond the cap are shed from fingerprinting (HPC-only verdicts),
    /// never admitted at unbounded memory cost.
    pub max_tenants: usize,
}

impl FingerprintConfig {
    /// The disabled configuration: `window == 0`, so no store is built and
    /// every verdict is HPC-only. This is the monitor's default — the
    /// defense is strictly opt-in.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            window: 0,
            ..Self::default()
        }
    }

    /// Whether the stage is active (a nonzero sliding window).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.window > 0
    }

    /// The same configuration with a different per-tenant window.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// The same configuration with a different salt.
    #[must_use]
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }

    /// The same configuration with a different tenant cap.
    #[must_use]
    pub fn with_max_tenants(mut self, max_tenants: usize) -> Self {
        self.max_tenants = max_tenants;
        self
    }

    /// Worst-case bytes of fingerprint payload the store can hold:
    /// `max_tenants × window × probes × 8` (each probe is a `u64`), plus
    /// the same again for the inverted index entries. Container sizing can
    /// take this as the hard ceiling — the store never exceeds it
    /// regardless of traffic.
    #[must_use]
    pub fn max_bytes(&self) -> usize {
        2 * self.max_tenants * self.window * self.probes * std::mem::size_of::<u64>()
    }

    /// Checks the configuration for nonsense values. A disabled
    /// configuration (`window == 0`) is always valid.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a
    /// [`FingerprintConfigError`].
    pub fn validate(&self) -> Result<(), FingerprintConfigError> {
        if !self.is_enabled() {
            return Ok(());
        }
        if self.quant_step <= 0.0 || !self.quant_step.is_finite() {
            return Err(FingerprintConfigError::BadQuantStep);
        }
        if self.probe_window == 0 {
            return Err(FingerprintConfigError::ZeroProbeWindow);
        }
        if self.stride == 0 {
            return Err(FingerprintConfigError::ZeroStride);
        }
        if self.probes == 0 {
            return Err(FingerprintConfigError::ZeroProbes);
        }
        if !(self.match_threshold > 0.0 && self.match_threshold <= 1.0) {
            return Err(FingerprintConfigError::BadMatchThreshold);
        }
        if self.max_tenants == 0 {
            return Err(FingerprintConfigError::ZeroMaxTenants);
        }
        Ok(())
    }
}

impl Default for FingerprintConfig {
    /// Blacklight-flavored defaults tuned for the repo's 3×32×32 queries:
    /// 20 quantization levels, 16-element windows at stride 4, 32 probes,
    /// a 256-deep per-tenant window, and a 50 % overlap threshold.
    fn default() -> Self {
        Self {
            quant_step: 0.05,
            probe_window: 16,
            stride: 4,
            probes: 32,
            window: 256,
            match_threshold: 0.5,
            salt: 0xB1AC_1147,
            max_tenants: 1024,
        }
    }
}

/// An invalid [`FingerprintConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintConfigError {
    /// `quant_step` was zero, negative, or non-finite.
    BadQuantStep,
    /// `probe_window` was zero: no window could ever be hashed.
    ZeroProbeWindow,
    /// `stride` was zero: the window scan could never advance.
    ZeroStride,
    /// `probes` was zero: fingerprints would be empty and never match.
    ZeroProbes,
    /// `match_threshold` was outside `(0, 1]`.
    BadMatchThreshold,
    /// `max_tenants` was zero while the stage was enabled.
    ZeroMaxTenants,
}

impl fmt::Display for FingerprintConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadQuantStep => write!(f, "fingerprint quantization step must be positive"),
            Self::ZeroProbeWindow => write!(f, "fingerprint probe window must be positive"),
            Self::ZeroStride => write!(f, "fingerprint stride must be positive"),
            Self::ZeroProbes => write!(f, "fingerprint probe count must be positive"),
            Self::BadMatchThreshold => {
                write!(f, "fingerprint match threshold must be in (0, 1]")
            }
            Self::ZeroMaxTenants => write!(f, "fingerprint tenant cap must be positive"),
        }
    }
}

impl std::error::Error for FingerprintConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_disabled_is_always_valid() {
        assert!(FingerprintConfig::default().validate().is_ok());
        assert!(FingerprintConfig::default().is_enabled());
        let off = FingerprintConfig::disabled();
        assert!(!off.is_enabled());
        assert!(off.validate().is_ok());
        // Even nonsense knobs are fine while disabled.
        let mut nonsense = off;
        nonsense.quant_step = -1.0;
        assert!(nonsense.validate().is_ok());
    }

    #[test]
    fn each_constraint_is_reported() {
        let base = FingerprintConfig::default();
        let cases = [
            (
                FingerprintConfig {
                    quant_step: 0.0,
                    ..base
                },
                FingerprintConfigError::BadQuantStep,
            ),
            (
                FingerprintConfig {
                    probe_window: 0,
                    ..base
                },
                FingerprintConfigError::ZeroProbeWindow,
            ),
            (
                FingerprintConfig { stride: 0, ..base },
                FingerprintConfigError::ZeroStride,
            ),
            (
                FingerprintConfig { probes: 0, ..base },
                FingerprintConfigError::ZeroProbes,
            ),
            (
                FingerprintConfig {
                    match_threshold: 0.0,
                    ..base
                },
                FingerprintConfigError::BadMatchThreshold,
            ),
            (
                FingerprintConfig {
                    match_threshold: 1.5,
                    ..base
                },
                FingerprintConfigError::BadMatchThreshold,
            ),
            (
                FingerprintConfig {
                    max_tenants: 0,
                    ..base
                },
                FingerprintConfigError::ZeroMaxTenants,
            ),
        ];
        for (config, expected) in cases {
            assert_eq!(config.validate(), Err(expected));
        }
    }

    #[test]
    fn memory_bound_is_closed_form() {
        let config = FingerprintConfig::default()
            .with_window(100)
            .with_max_tenants(10);
        assert_eq!(config.max_bytes(), 2 * 10 * 100 * 32 * 8);
    }
}
