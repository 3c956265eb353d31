//! Drift detection over the clean-NLL stream, and the detector sources
//! that answer it.
//!
//! The monitor's scoring loop feeds every *clean* verdict's mean
//! per-event NLL (in admission order) into a [`DriftTracker`]: the first
//! [`DriftConfig::window`] samples establish a baseline mean/σ, after
//! which a one-sided CUSUM statistic accumulates standardized exceedances
//! — `c ← max(0, c + z − slack)` — and fires once `c > threshold`. A
//! firing yields a [`DriftObservation`] the service hands to its
//! [`DetectorSource`], which re-runs only the pipeline's `Calibrate`
//! stage against the artifact store and returns a replacement detector
//! to hot-swap. Because the tracker consumes the admission-ordered
//! verdict stream and nothing timing-dependent, drift firings — and the
//! exact request at which the swapped detector takes effect — are
//! bit-identical across thread counts and batch shapes.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

use advhunter::persist::detector_from_bytes;
use advhunter::store::checksum;
use advhunter::{ArtifactStore, Detector, Payload, Pipeline, PipelineConfig, Stage, StoreLoad};

/// Knobs of the clean-NLL drift test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Clean samples used to establish the baseline mean/σ (and the
    /// length of the rolling window whose mean becomes
    /// [`DriftObservation::observed_mean`]).
    pub window: usize,
    /// CUSUM slack `k`, in baseline-σ units: per-sample drift smaller
    /// than this is absorbed instead of accumulated.
    pub slack: f64,
    /// CUSUM firing threshold `h`, in accumulated-σ units.
    pub threshold: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            window: 64,
            slack: 0.5,
            threshold: 8.0,
        }
    }
}

impl DriftConfig {
    /// Checks the knobs for nonsense values.
    ///
    /// # Errors
    ///
    /// Returns [`DriftConfigError`] when the window is zero, the slack is
    /// negative or non-finite, or the threshold is non-positive or
    /// non-finite.
    pub fn validate(&self) -> Result<(), DriftConfigError> {
        if self.window == 0 {
            return Err(DriftConfigError::ZeroWindow);
        }
        if !self.slack.is_finite() || self.slack < 0.0 {
            return Err(DriftConfigError::BadSlack);
        }
        if !self.threshold.is_finite() || self.threshold <= 0.0 {
            return Err(DriftConfigError::BadThreshold);
        }
        Ok(())
    }
}

/// An invalid [`DriftConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftConfigError {
    /// `window` was zero: no baseline could ever form.
    ZeroWindow,
    /// `slack` was negative or non-finite.
    BadSlack,
    /// `threshold` was non-positive or non-finite.
    BadThreshold,
}

impl fmt::Display for DriftConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroWindow => write!(f, "drift window must be positive"),
            Self::BadSlack => write!(f, "drift slack must be finite and non-negative"),
            Self::BadThreshold => write!(f, "drift threshold must be finite and positive"),
        }
    }
}

impl std::error::Error for DriftConfigError {}

/// What the drift test saw when it fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftObservation {
    /// Baseline mean clean NLL.
    pub baseline_mean: f64,
    /// Baseline clean-NLL standard deviation.
    pub baseline_std: f64,
    /// Mean clean NLL over the most recent window.
    pub observed_mean: f64,
    /// Clean samples consumed after the baseline before firing.
    pub samples: u64,
}

impl DriftObservation {
    /// The estimated location shift of the clean-NLL distribution —
    /// the threshold translation a compensating detector applies (see
    /// [`Detector::shifted`]).
    #[must_use]
    pub fn shift(&self) -> f64 {
        self.observed_mean - self.baseline_mean
    }
}

/// One-sided CUSUM drift test over the clean-NLL stream.
///
/// Feed it mean clean NLLs in admission order via
/// [`observe`](Self::observe); it returns `Some(observation)` exactly
/// when the test fires, then re-baselines itself (the post-swap NLL
/// distribution is new territory).
#[derive(Debug)]
pub struct DriftTracker {
    config: DriftConfig,
    baseline: Vec<f64>,
    mean: f64,
    std: f64,
    cusum: f64,
    recent: VecDeque<f64>,
    samples: u64,
}

impl DriftTracker {
    /// A tracker with no baseline yet.
    #[must_use]
    pub fn new(config: DriftConfig) -> Self {
        Self {
            config,
            baseline: Vec::with_capacity(config.window),
            mean: 0.0,
            std: 0.0,
            cusum: 0.0,
            recent: VecDeque::with_capacity(config.window),
            samples: 0,
        }
    }

    /// Whether the baseline window has filled.
    #[must_use]
    pub fn baseline_ready(&self) -> bool {
        self.baseline.len() >= self.config.window
    }

    /// The current CUSUM statistic (0 until the baseline is ready).
    #[must_use]
    pub fn cusum(&self) -> f64 {
        self.cusum
    }

    /// Consumes one clean-NLL sample. Non-finite samples are ignored.
    /// Returns the drift observation exactly when the test fires; the
    /// tracker then resets to collect a fresh baseline.
    pub fn observe(&mut self, nll: f64) -> Option<DriftObservation> {
        if !nll.is_finite() {
            return None;
        }
        if !self.baseline_ready() {
            self.baseline.push(nll);
            if self.baseline_ready() {
                let n = self.baseline.len() as f64;
                let mean = self.baseline.iter().sum::<f64>() / n;
                let var = self
                    .baseline
                    .iter()
                    .map(|v| (v - mean) * (v - mean))
                    .sum::<f64>()
                    / n;
                self.mean = mean;
                // σ floor: a degenerate (constant) baseline must not turn
                // every later sample into an infinite z-score.
                self.std = var.sqrt().max(1e-9);
            }
            return None;
        }
        self.recent.push_back(nll);
        if self.recent.len() > self.config.window {
            self.recent.pop_front();
        }
        self.samples += 1;
        let z = (nll - self.mean) / self.std;
        self.cusum = (self.cusum + z - self.config.slack).max(0.0);
        if self.cusum <= self.config.threshold {
            return None;
        }
        let observed_mean = self.recent.iter().sum::<f64>() / self.recent.len() as f64;
        let observation = DriftObservation {
            baseline_mean: self.mean,
            baseline_std: self.std,
            observed_mean,
            samples: self.samples,
        };
        self.baseline.clear();
        self.recent.clear();
        self.cusum = 0.0;
        self.samples = 0;
        Some(observation)
    }
}

/// Where replacement detectors come from.
///
/// Both hooks have do-nothing defaults so a source can serve only one
/// role: the store watcher calls [`poll_swap`](Self::poll_swap) on its
/// timer, the scoring loop calls [`recalibrate`](Self::recalibrate) when
/// the drift test fires.
pub trait DetectorSource: Send + Sync {
    /// A new detector to hot-swap in, if the source has one (polled by
    /// the store watcher thread).
    fn poll_swap(&self) -> Option<Detector> {
        None
    }

    /// A recalibrated detector answering a drift firing, or `None` to
    /// keep serving the current one.
    fn recalibrate(&self, observation: &DriftObservation) -> Option<Detector> {
        let _ = observation;
        None
    }
}

/// The production [`DetectorSource`]: the pipeline's content-addressed
/// artifact store.
///
/// * [`poll_swap`](DetectorSource::poll_swap) watches the `Calibrate`
///   artifact under this configuration's fingerprint; when its payload
///   digest changes (a new detector was deployed), the new bytes are
///   decoded and served.
/// * [`recalibrate`](DetectorSource::recalibrate) re-runs *only* the
///   `Calibrate` stage against the store
///   ([`Pipeline::run_calibrate_only`]) and compensates the observed
///   NLL shift via [`Detector::shifted`]. The store keeps the canonical
///   recalibrated artifact; the shift is runtime compensation only.
pub struct StoreDetectorSource {
    config: PipelineConfig,
    store: ArtifactStore,
    last_digest: Mutex<Option<u64>>,
}

impl StoreDetectorSource {
    /// A source watching `store` under `config`'s stage fingerprints.
    /// The currently stored detector (if any) counts as already deployed
    /// — only *subsequent* changes trigger a swap.
    #[must_use]
    pub fn new(config: PipelineConfig, store: ArtifactStore) -> Self {
        let source = Self {
            config,
            store,
            last_digest: Mutex::new(None),
        };
        let current = source.current_payload().map(|p| checksum(&p));
        *source
            .last_digest
            .lock()
            .expect("detector source digest poisoned") = current;
        source
    }

    fn current_payload(&self) -> Option<Payload> {
        let fp = self.config.fingerprint(Stage::Calibrate);
        match self.store.load(Stage::Calibrate.artifact_kind(), fp) {
            Ok(StoreLoad::Hit(payload)) => Some(payload),
            _ => None,
        }
    }

    fn remember_current(&self) {
        let current = self.current_payload().map(|p| checksum(&p));
        *self
            .last_digest
            .lock()
            .expect("detector source digest poisoned") = current;
    }
}

impl DetectorSource for StoreDetectorSource {
    fn poll_swap(&self) -> Option<Detector> {
        let payload = self.current_payload()?;
        let digest = checksum(&payload);
        {
            let mut last = self
                .last_digest
                .lock()
                .expect("detector source digest poisoned");
            if *last == Some(digest) {
                return None;
            }
            // Remember the digest even if decoding fails below, so a
            // corrupt deploy is logged as one failed swap attempt rather
            // than retried every poll tick.
            *last = Some(digest);
        }
        detector_from_bytes(&payload).ok()
    }

    fn recalibrate(&self, observation: &DriftObservation) -> Option<Detector> {
        let pipeline = Pipeline::new(self.config.clone(), self.store.clone());
        let (detector, _report) = pipeline.run_calibrate_only().ok()?;
        // The rerun overwrote the stored artifact; adopt its digest so
        // the watcher does not immediately re-swap the uncompensated one.
        self.remember_current();
        Some(detector.shifted(observation.shift()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_nonsense() {
        assert!(DriftConfig::default().validate().is_ok());
        let bad = DriftConfig {
            window: 0,
            ..DriftConfig::default()
        };
        assert_eq!(bad.validate(), Err(DriftConfigError::ZeroWindow));
        let bad = DriftConfig {
            slack: -0.1,
            ..DriftConfig::default()
        };
        assert_eq!(bad.validate(), Err(DriftConfigError::BadSlack));
        let bad = DriftConfig {
            threshold: 0.0,
            ..DriftConfig::default()
        };
        assert_eq!(bad.validate(), Err(DriftConfigError::BadThreshold));
    }

    #[test]
    fn stable_stream_never_fires() {
        let mut tracker = DriftTracker::new(DriftConfig {
            window: 8,
            slack: 0.5,
            threshold: 4.0,
        });
        // Alternating ±1 around 10: zero drift, bounded CUSUM.
        for i in 0..200 {
            let nll = 10.0 + if i % 2 == 0 { 1.0 } else { -1.0 };
            assert_eq!(tracker.observe(nll), None, "sample {i}");
        }
        assert!(tracker.baseline_ready());
    }

    #[test]
    fn sustained_shift_fires_and_rebaselines() {
        let config = DriftConfig {
            window: 8,
            slack: 0.5,
            threshold: 4.0,
        };
        let mut tracker = DriftTracker::new(config);
        for i in 0..8 {
            let nll = 10.0 + if i % 2 == 0 { 1.0 } else { -1.0 };
            assert_eq!(tracker.observe(nll), None);
        }
        // Sustained +3σ shift: fires after ~2 samples of accumulation.
        let mut fired = None;
        for i in 0..20 {
            if let Some(obs) = tracker.observe(13.0 + if i % 2 == 0 { 1.0 } else { -1.0 }) {
                fired = Some((i, obs));
                break;
            }
        }
        let (at, obs) = fired.expect("a 3σ sustained shift must fire");
        assert!(at < 8, "fired late (sample {at})");
        assert!((obs.baseline_mean - 10.0).abs() < 1e-9);
        assert!(obs.observed_mean > 12.0, "observed {}", obs.observed_mean);
        assert!(obs.shift() > 2.0);
        // The tracker re-baselines: the very next samples build a new
        // baseline instead of firing again.
        assert!(!tracker.baseline_ready());
        assert_eq!(tracker.cusum(), 0.0);
        for i in 0..8 {
            assert_eq!(
                tracker.observe(13.0 + if i % 2 == 0 { 1.0 } else { -1.0 }),
                None
            );
        }
        assert!(tracker.baseline_ready());
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut tracker = DriftTracker::new(DriftConfig {
            window: 2,
            slack: 0.0,
            threshold: 1.0,
        });
        assert_eq!(tracker.observe(f64::NAN), None);
        assert_eq!(tracker.observe(f64::INFINITY), None);
        assert!(!tracker.baseline_ready());
        assert_eq!(tracker.observe(1.0), None);
        assert_eq!(tracker.observe(1.0), None);
        assert!(tracker.baseline_ready());
    }
}
