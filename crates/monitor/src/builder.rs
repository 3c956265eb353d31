//! The validating front door of the monitor service.

use std::sync::Arc;
use std::time::Duration;

use advhunter::{ArtifactStore, Detector, Pipeline, PipelineConfig, PipelineError};
use advhunter_exec::TraceEngine;
use advhunter_fingerprint::FingerprintConfig;
use advhunter_nn::Graph;
use advhunter_runtime::ExecOptions;

use crate::config::{FusionPolicy, MonitorConfig, MonitorConfigError, OverloadPolicy};
use crate::drift::{DetectorSource, DriftConfig, StoreDetectorSource};
use crate::service::Monitor;

/// Why a [`MonitorBuilder`] could not produce a running monitor.
#[derive(Debug)]
#[non_exhaustive]
pub enum MonitorBuildError {
    /// The assembled configuration was invalid.
    Config(MonitorConfigError),
    /// The offline pipeline failed (store I/O or detector fit) while
    /// booting from a store.
    Pipeline(PipelineError),
}

impl std::fmt::Display for MonitorBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid monitor configuration: {e}"),
            Self::Pipeline(e) => write!(f, "offline pipeline failed: {e}"),
        }
    }
}

impl std::error::Error for MonitorBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            Self::Pipeline(e) => Some(e),
        }
    }
}

impl From<MonitorConfigError> for MonitorBuildError {
    fn from(e: MonitorConfigError) -> Self {
        Self::Config(e)
    }
}

impl From<PipelineError> for MonitorBuildError {
    fn from(e: PipelineError) -> Self {
        Self::Pipeline(e)
    }
}

/// Builder for a [`Monitor`]: collects the queue shape, defense stages,
/// drift test, and hot-swap plumbing, then validates everything at once
/// when [`spawn`](Self::spawn) (or
/// [`spawn_from_store`](Self::spawn_from_store)) is called — the only
/// place a monitor can come from since 0.7.0.
///
/// ```ignore
/// let monitor = MonitorBuilder::new(ExecOptions::default())
///     .queue_capacity(256)
///     .micro_batch(32)
///     .overload(OverloadPolicy::Shed)
///     .drift(DriftConfig::default())
///     .watch_store(Duration::from_millis(50))
///     .spawn_from_store(pipeline, store)?;
/// ```
pub struct MonitorBuilder {
    config: MonitorConfig,
    source: Option<Arc<dyn DetectorSource>>,
    watch_poll: Option<Duration>,
}

impl MonitorBuilder {
    /// A builder with the default queue shape (capacity 128, micro-batch
    /// 16, blocking overload policy) over the given execution options.
    #[must_use]
    pub fn new(exec: ExecOptions) -> Self {
        Self {
            config: MonitorConfig::new(exec),
            source: None,
            watch_poll: None,
        }
    }

    /// Capacity of the bounded submission queue.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Maximum requests coalesced into one measurement micro-batch.
    #[must_use]
    pub fn micro_batch(mut self, micro_batch: usize) -> Self {
        self.config.micro_batch = micro_batch;
        self
    }

    /// What to do with submissions while the queue is full.
    #[must_use]
    pub fn overload(mut self, overload: OverloadPolicy) -> Self {
        self.config.overload = overload;
        self
    }

    /// Enables (or replaces) the query-fingerprint defense stage.
    #[must_use]
    pub fn fingerprint(mut self, fingerprint: FingerprintConfig) -> Self {
        self.config.fingerprint = fingerprint;
        self
    }

    /// How HPC anomaly and query correlation combine into `flagged`.
    #[must_use]
    pub fn fusion(mut self, fusion: FusionPolicy) -> Self {
        self.config.fusion = fusion;
        self
    }

    /// Enables the clean-NLL drift test. When a [`DetectorSource`] is
    /// also available (explicitly via
    /// [`detector_source`](Self::detector_source), or implicitly when
    /// spawning from a store), a firing triggers recalibration and a
    /// hot-swap at the exact next request.
    #[must_use]
    pub fn drift(mut self, drift: DriftConfig) -> Self {
        self.config.drift = Some(drift);
        self
    }

    /// Where replacement detectors come from (hot-swap polling and drift
    /// recalibration). [`spawn_from_store`](Self::spawn_from_store)
    /// installs a [`StoreDetectorSource`] automatically when drift or
    /// store-watching is enabled and no explicit source was given.
    #[must_use]
    pub fn detector_source(mut self, source: Arc<dyn DetectorSource>) -> Self {
        self.source = Some(source);
        self
    }

    /// Polls the detector source every `poll` for externally-deployed
    /// replacements and hot-swaps them in at micro-batch boundaries.
    #[must_use]
    pub fn watch_store(mut self, poll: Duration) -> Self {
        self.watch_poll = Some(poll);
        self
    }

    /// Validates the assembled configuration and starts the service over
    /// an explicit engine, model, and detector.
    ///
    /// # Errors
    ///
    /// [`MonitorBuildError::Config`] when the configuration is invalid;
    /// no thread is spawned in that case.
    pub fn spawn(
        self,
        engine: TraceEngine,
        model: Graph,
        detector: Detector,
    ) -> Result<Monitor, MonitorBuildError> {
        Monitor::spawn_inner(
            engine,
            model,
            detector,
            self.config,
            self.source,
            self.watch_poll,
        )
        .map_err(MonitorBuildError::Config)
    }

    /// Boots the service from the staged offline pipeline: runs (or, on a
    /// warm store, merely loads) every offline stage for `pipeline`
    /// against `store`, then spawns the monitor over the resulting
    /// engine, model, and calibrated detector.
    ///
    /// Two conveniences apply:
    ///
    /// * when the pipeline carries an enabled
    ///   [`defense`](PipelineConfig::defense) and this builder left its
    ///   own fingerprint stage disabled, the monitor adopts the
    ///   pipeline's defense — one configuration object drives the whole
    ///   deployment;
    /// * when drift tracking or store-watching is enabled and no explicit
    ///   [`detector_source`](Self::detector_source) was given, a
    ///   [`StoreDetectorSource`] over this pipeline and store is
    ///   installed, so `advhunter deploy` hot-swaps and drift firings
    ///   recalibrate with no extra wiring.
    ///
    /// # Errors
    ///
    /// [`MonitorBuildError::Pipeline`] when the offline phase fails,
    /// [`MonitorBuildError::Config`] when the configuration is invalid;
    /// no thread is spawned in either case.
    pub fn spawn_from_store(
        mut self,
        pipeline: PipelineConfig,
        store: ArtifactStore,
    ) -> Result<Monitor, MonitorBuildError> {
        if !self.config.fingerprint.is_enabled() && pipeline.defense.is_enabled() {
            self.config.fingerprint = pipeline.defense;
        }
        if self.source.is_none() && (self.config.drift.is_some() || self.watch_poll.is_some()) {
            self.source = Some(Arc::new(StoreDetectorSource::new(
                pipeline.clone(),
                store.clone(),
            )));
        }
        let (art, _report) = Pipeline::new(pipeline, store).run()?;
        Monitor::spawn_inner(
            art.engine,
            art.model,
            art.detector,
            self.config,
            self.source,
            self.watch_poll,
        )
        .map_err(MonitorBuildError::Config)
    }
}
