//! AdvHunter: detection of adversarial examples in hard-label black-box
//! DNNs through hardware performance counters — a full Rust reproduction of
//! Alam & Maniatakos, DAC 2024.
//!
//! The detector never looks inside the model: it sees only the hard-label
//! prediction and the HPC readings of each inference (provided here by the
//! [`advhunter_exec`] instrumented-inference engine over the
//! [`advhunter_uarch`] machine simulator).
//!
//! * **Offline phase** ([`offline`]): measure `M` clean validation images
//!   per output category, `R` repetitions each; fit one 1-D GMM per
//!   (category, event) with BIC-selected component count; set the
//!   three-sigma NLL threshold.
//! * **Online phase** ([`Detector`]): score an unknown inference's reading
//!   under the GMM of its *predicted* category; flag it as adversarial when
//!   the negative log-likelihood exceeds the threshold.
//!
//! [`scenario`] rebuilds the paper's three evaluation scenarios (dataset +
//! model + trained weights), [`pipeline`] stages the whole offline phase
//! through the content-addressed [`store`] so it runs once per deployment,
//! and [`experiment`] implements the evaluation protocols behind every
//! table and figure.
//!
//! # Example
//!
//! A complete end-to-end run is in `examples/quickstart.rs`; the core loop
//! looks like:
//!
//! ```no_run
//! use advhunter::{ArtifactStore, Pipeline, PipelineConfig};
//! use advhunter::scenario::ScenarioId;
//! use advhunter_uarch::HpcEvent;
//!
//! // Each stage (train → measure → fit → calibrate) is cached in the
//! // store under a fingerprint of its inputs, so re-runs are pure cache
//! // hits and results are bit-identical for every thread count
//! // (ADVHUNTER_THREADS picks the pool size).
//! let pipeline = Pipeline::new(
//!     PipelineConfig::for_scenario(ScenarioId::S2),
//!     ArtifactStore::shared()?,
//! );
//! let (art, report) = pipeline.run()?;
//! println!("cache hits: {}/{}", report.hits(), report.stages.len());
//! let m = art.engine.measure_indexed(&art.model, &art.split.test.images()[0], 0, 0);
//! let verdict = art.detector.evaluate(m.predicted, &m.sample);
//! let flagged = verdict.flagged_by(HpcEvent::CacheMisses);
//! # let _ = flagged;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod detector;
mod metrics;
mod verdict;

pub mod baseline;
pub mod experiment;
pub mod offline;
pub mod persist;
pub mod pipeline;
pub mod report;
pub mod scenario;
pub mod store;

pub use advhunter_exec::{tune_stats, TuneStats};
pub use advhunter_fingerprint::{FingerprintConfig, FingerprintConfigError};
pub use advhunter_nn::spec::{GraphSpec, GraphSpecError};
pub use advhunter_runtime::{
    derive_seed, ExecOptions, ExecOptionsBuilder, ExecOptionsError, Parallelism,
};
pub use detector::{
    Detector, DetectorConfig, DetectorConfigBuilder, DetectorConfigError, EventModel, EventScore,
    FitDetectorError,
};
pub use metrics::{mean_std, BinaryConfusion};
pub use offline::{collect_template, OfflineTemplate};
pub use persist::{load_detector, save_detector, PersistError};
pub use pipeline::{
    tune_fingerprint, Pipeline, PipelineArtifacts, PipelineConfig, PipelineError, PipelineReport,
    Stage, StageOutcome, StageReport, StoreTunePersistence,
};
pub use scenario::{build_from_spec, build_scenario, load_spec, ScenarioArtifacts, ScenarioId};
pub use store::{
    ArtifactKind, ArtifactStore, Fingerprint, FingerprintBuilder, Payload, StoreLoad, Unverified,
};
pub use verdict::{AnomalyDetector, Verdict};
