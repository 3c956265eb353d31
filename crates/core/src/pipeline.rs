//! The staged offline pipeline: `TrainModel → CollectTemplate →
//! FitDetector → Calibrate`, each stage cached in a content-addressed
//! [`ArtifactStore`].
//!
//! The paper's offline phase "runs once per deployment"; this module makes
//! that literal. Every stage is a typed unit with a deterministic
//! [`Fingerprint`] over its complete input closure — the graph spec's
//! content digest, split sizes, train config, measurement config, seeds,
//! and the upstream stage's fingerprint — and persists its artifact under
//! that fingerprint:
//!
//! ```text
//! TrainModel       (spec digest, sizes, train cfg, seeds)     → AHW1 weights
//!   └─ CollectTemplate (fp↑, measure seed, R, cap)            → AHT1 template
//!        └─ FitDetector (fp↑, events, k-range, EM cfg)        → AHD1 detector
//!             └─ Calibrate (fp↑, sigma factor)                → AHD1 detector
//! ```
//!
//! Re-running with unchanged inputs is a pure cache hit; changing a knob
//! invalidates exactly the downstream stages (e.g. a new `sigma_factor`
//! recalibrates thresholds without retraining, re-measuring, or refitting
//! — `FitDetector` always fits at the canonical three-sigma factor, and
//! `Calibrate` derives the configured thresholds from the stored
//! mixtures). Because every stage is thread-count-deterministic, cached
//! and freshly computed artifacts are bit-identical, so hits are exact.
//!
//! The data split is regenerated, never stored, and only on demand: a
//! stage's compute closure builds it the first time it is needed, so a
//! fully warm store never touches the dataset. [`Pipeline::run`] then adds
//! the split and clean test accuracy; [`Pipeline::run_for_serving`] stops
//! at the engine, model and detector a monitor needs.
//!
//! Stage wall-times land in the global telemetry registry
//! (`advhunter_pipeline_<stage>_ns`, plus `advhunter_pipeline_split_ns`
//! and `advhunter_pipeline_clean_accuracy_ns`), alongside the store's
//! hit/miss/evict counters.

use std::cell::OnceCell;
use std::fmt;
use std::sync::{Arc, OnceLock};

use advhunter_data::{SplitDataset, SplitSizes};
use advhunter_exec::{choose_variant, TraceEngine, TunePersistence};
use advhunter_fingerprint::FingerprintConfig;
use advhunter_nn::io::weights_from_bytes_with;
use advhunter_nn::spec::{GraphSpec, GraphSpecError};
use advhunter_nn::train::{evaluate, fit, TrainConfig};
use advhunter_nn::{Graph, ZeroWeights};
use advhunter_telemetry::{global, Histogram};
use advhunter_tensor::ops::{GemmGeometry, KernelVariant};
use advhunter_uarch::{MachineConfig, Sampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::detector::{Detector, DetectorConfig, FitDetectorError};
use crate::offline::{collect_template, OfflineTemplate};
use crate::persist::{
    self, detector_from_bytes, detector_to_bytes, template_from_bytes, template_to_bytes,
    PersistError,
};
use crate::scenario::{self, ScenarioId};
use crate::store::{ArtifactKind, ArtifactStore, Fingerprint, FingerprintBuilder, StoreLoad};
use advhunter_runtime::{ExecOptions, Parallelism};

/// The canonical training seed. Training is a pipeline input like any
/// other, so it has one well-known default instead of whatever RNG a
/// caller happened to hold; override with
/// [`PipelineConfig::with_train_seed`].
pub const DEFAULT_TRAIN_SEED: u64 = 0x5EED_0001;

/// The canonical measurement/fit seed driving `CollectTemplate` and
/// `FitDetector` (stage-derived, so their streams are independent).
pub const DEFAULT_PIPELINE_SEED: u64 = 0xAD17;

/// The sigma factor `FitDetector` always fits at (the paper's three-sigma
/// rule). `Calibrate` re-derives thresholds for any other configured
/// factor from the stored mixtures.
pub const CANONICAL_FIT_SIGMA: f64 = 3.0;

/// One stage of the offline pipeline, in dependency order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Train the victim model on the scenario's training split.
    TrainModel,
    /// Measure the validation split and collect per-class HPC templates.
    CollectTemplate,
    /// Fit per-(category, event) GMMs at the canonical sigma factor.
    FitDetector,
    /// Derive thresholds for the configured sigma factor.
    Calibrate,
}

impl Stage {
    /// All stages, upstream first.
    pub const ALL: [Self; 4] = [
        Self::TrainModel,
        Self::CollectTemplate,
        Self::FitDetector,
        Self::Calibrate,
    ];

    /// Stable stage name (used in fingerprint domain tags and status
    /// output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::TrainModel => "train-model",
            Self::CollectTemplate => "collect-template",
            Self::FitDetector => "fit-detector",
            Self::Calibrate => "calibrate",
        }
    }

    /// The artifact kind this stage stores.
    #[must_use]
    pub fn artifact_kind(self) -> ArtifactKind {
        match self {
            Self::TrainModel => ArtifactKind::ModelWeights,
            Self::CollectTemplate => ArtifactKind::Template,
            Self::FitDetector | Self::Calibrate => ArtifactKind::Detector,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The complete input closure of one pipeline run.
///
/// Everything that can change any artifact lives here; the per-stage
/// [`fingerprint`](Self::fingerprint) is a stable hash over exactly these
/// fields (plus the spec's seeds, which travel inside its content digest),
/// so equal configs address equal artifacts and any changed knob
/// re-addresses the affected stages.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// The graph spec to build: architecture, dataset family, seeds, and
    /// metadata. Models are addressed by the spec's canonicalized content
    /// digest, so editing a spec invalidates exactly its own artifacts.
    pub spec: Arc<GraphSpec>,
    /// Per-class split sizes.
    pub sizes: SplitSizes,
    /// Training hyperparameters.
    pub train: TrainConfig,
    /// Seed for the training RNG (shuffling, augmentation).
    pub train_seed: u64,
    /// Root seed for measurement and fitting; stages derive independent
    /// streams from it.
    pub seed: u64,
    /// Measurement repeats per inference (the paper's `R`).
    pub repeats: usize,
    /// Cap on template samples kept per class (`None` = keep all).
    pub per_class_cap: Option<usize>,
    /// Detector hyperparameters. `sigma_factor` affects only the
    /// `Calibrate` stage.
    pub detector: DetectorConfig,
    /// The online query-fingerprint defense stage, disabled by default.
    ///
    /// Deliberately **not** part of any offline stage's input closure:
    /// the defense consumes no offline artifact, so toggling or retuning
    /// it must never retrain, re-measure, refit, or recalibrate. It has
    /// its own address, [`defense_fingerprint`](Self::defense_fingerprint).
    pub defense: FingerprintConfig,
}

impl PipelineConfig {
    /// The canonical configuration for `scenario`: a [`for_spec`]
    /// configuration over its checked-in spec.
    ///
    /// [`for_spec`]: Self::for_spec
    #[must_use]
    pub fn for_scenario(scenario: ScenarioId) -> Self {
        Self::for_spec(Arc::clone(scenario.spec()))
    }

    /// The canonical configuration for an arbitrary graph spec: the spec's
    /// split sizes and training recipe, and the paper's measurement and
    /// detector defaults. This is the bring-your-own-architecture entry
    /// point; `spec` typically comes from `scenario::load_spec` or the
    /// generated variant library.
    #[must_use]
    pub fn for_spec(spec: Arc<GraphSpec>) -> Self {
        Self {
            sizes: scenario::split_sizes(&spec),
            train: spec.train,
            spec,
            train_seed: DEFAULT_TRAIN_SEED,
            seed: DEFAULT_PIPELINE_SEED,
            repeats: Sampler::default().repeats,
            per_class_cap: None,
            detector: DetectorConfig::default(),
            defense: FingerprintConfig::disabled(),
        }
    }

    /// Replaces the split sizes.
    #[must_use]
    pub fn with_sizes(mut self, sizes: SplitSizes) -> Self {
        self.sizes = sizes;
        self
    }

    /// Replaces the training seed.
    #[must_use]
    pub fn with_train_seed(mut self, train_seed: u64) -> Self {
        self.train_seed = train_seed;
        self
    }

    /// Replaces the measurement/fit root seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the measurement repeat count `R`.
    #[must_use]
    pub fn with_repeats(mut self, repeats: usize) -> Self {
        self.repeats = repeats;
        self
    }

    /// Replaces the per-class template cap.
    #[must_use]
    pub fn with_per_class_cap(mut self, cap: Option<usize>) -> Self {
        self.per_class_cap = cap;
        self
    }

    /// Replaces the detector hyperparameters.
    #[must_use]
    pub fn with_detector(mut self, detector: DetectorConfig) -> Self {
        self.detector = detector;
        self
    }

    /// Replaces the online query-fingerprint defense configuration.
    #[must_use]
    pub fn with_defense(mut self, defense: FingerprintConfig) -> Self {
        self.defense = defense;
        self
    }

    /// The deterministic address of the online defense configuration.
    ///
    /// This is a *sibling* of the offline stage chain, not a member:
    /// changing any [`defense`](Self::defense) knob changes only this
    /// fingerprint, and changing offline knobs never changes it. Deployers
    /// can therefore record which defense configuration served traffic
    /// (e.g. in run manifests) while the four offline artifacts keep
    /// hitting their cached addresses.
    #[must_use]
    pub fn defense_fingerprint(&self) -> Fingerprint {
        let mut b = FingerprintBuilder::new("advhunter.pipeline.defense.v1");
        let d = &self.defense;
        b.push_u64(u64::from(d.is_enabled()))
            .push_f32(d.quant_step)
            .push_usize(d.probe_window)
            .push_usize(d.stride)
            .push_usize(d.probes)
            .push_usize(d.window)
            .push_f64(d.match_threshold)
            .push_u64(d.salt)
            .push_usize(d.max_tenants);
        b.finish()
    }

    /// The deterministic fingerprint of `stage` under this configuration.
    ///
    /// Fingerprints chain: each stage hashes its own knobs plus its
    /// upstream stage's fingerprint, so an upstream change re-addresses
    /// every downstream artifact while untouched prefixes keep hitting.
    /// Thread count is not an input — results are thread-count-invariant.
    ///
    /// `TrainModel` has two recipes. A spec whose content digest matches
    /// one of the four canonical scenarios keeps the pre-0.8 `v1` recipe
    /// (hashing the scenario label and seeds), so stores warmed before the
    /// spec redesign — and the golden fingerprints pinned in tests — stay
    /// byte-valid. Any other spec (a variant, a user file, or an *edited*
    /// canonical spec, whose digest no longer matches) is addressed by the
    /// `v2` recipe over its content digest, which covers the architecture
    /// and both seeds in one value.
    #[must_use]
    pub fn fingerprint(&self, stage: Stage) -> Fingerprint {
        match stage {
            Stage::TrainModel => {
                let digest = self.spec.digest();
                let mut b = match ScenarioId::for_digest(digest) {
                    Some(id) => {
                        let mut b = FingerprintBuilder::new("advhunter.pipeline.train-model.v1");
                        b.push_str(id.label())
                            .push_usize(self.sizes.train)
                            .push_usize(self.sizes.val)
                            .push_usize(self.sizes.test)
                            .push_u64(self.spec.dataset_seed)
                            .push_u64(self.spec.model_seed);
                        b
                    }
                    None => {
                        let mut b = FingerprintBuilder::new("advhunter.pipeline.train-model.v2");
                        b.push_u64(digest)
                            .push_usize(self.sizes.train)
                            .push_usize(self.sizes.val)
                            .push_usize(self.sizes.test);
                        b
                    }
                };
                b.push_u64(self.train_seed)
                    .push_usize(self.train.epochs)
                    .push_usize(self.train.batch_size)
                    .push_f32(self.train.learning_rate)
                    .push_f32(self.train.lr_decay);
                b.finish()
            }
            Stage::CollectTemplate => {
                let mut b = FingerprintBuilder::new("advhunter.pipeline.collect-template.v1");
                b.push_fingerprint(self.fingerprint(Stage::TrainModel))
                    .push_u64(self.seed)
                    .push_usize(self.repeats);
                match self.per_class_cap {
                    None => b.push_u64(0),
                    Some(cap) => b.push_u64(1).push_usize(cap),
                };
                b.finish()
            }
            Stage::FitDetector => {
                let mut b = FingerprintBuilder::new("advhunter.pipeline.fit-detector.v1");
                b.push_fingerprint(self.fingerprint(Stage::CollectTemplate))
                    .push_u64(self.seed)
                    .push_usize(self.detector.events.len());
                for &event in &self.detector.events {
                    b.push_usize(event.index());
                }
                b.push_usize(*self.detector.k_range.start())
                    .push_usize(*self.detector.k_range.end())
                    .push_usize(self.detector.em.max_iters)
                    .push_f64(self.detector.em.tol)
                    .push_f64(self.detector.em.variance_floor)
                    .push_f64(self.detector.em.relative_floor)
                    .push_usize(self.detector.em.restarts);
                // sigma_factor is deliberately absent: it only affects
                // Calibrate.
                b.finish()
            }
            Stage::Calibrate => {
                let mut b = FingerprintBuilder::new("advhunter.pipeline.calibrate.v1");
                b.push_fingerprint(self.fingerprint(Stage::FitDetector))
                    .push_f64(self.detector.sigma_factor);
                b.finish()
            }
        }
    }
}

/// How a stage's artifact was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOutcome {
    /// Loaded from the store.
    Hit,
    /// Absent from the store; computed and stored.
    Miss,
    /// Present but corrupt or undecodable; evicted, recomputed, stored.
    Rebuilt,
    /// Recomputed because the pipeline ran with `force`.
    Forced,
}

impl StageOutcome {
    /// Whether the artifact came from the store without recomputation.
    #[must_use]
    pub fn is_hit(self) -> bool {
        matches!(self, Self::Hit)
    }

    /// Status label for CLI output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::Rebuilt => "rebuilt",
            Self::Forced => "forced",
        }
    }
}

impl fmt::Display for StageOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What happened at one stage of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageReport {
    /// The stage.
    pub stage: Stage,
    /// Its fingerprint under the run's configuration.
    pub fingerprint: Fingerprint,
    /// How its artifact was obtained.
    pub outcome: StageOutcome,
}

/// Per-stage outcomes of one pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineReport {
    /// One report per executed stage, upstream first.
    pub stages: Vec<StageReport>,
}

impl PipelineReport {
    /// Whether every stage was a cache hit.
    #[must_use]
    pub fn all_hits(&self) -> bool {
        self.stages.iter().all(|s| s.outcome.is_hit())
    }

    /// Number of cache hits.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.stages.iter().filter(|s| s.outcome.is_hit()).count()
    }

    /// Number of stages that recomputed (miss, rebuild, or force).
    #[must_use]
    pub fn recomputed(&self) -> usize {
        self.stages.len() - self.hits()
    }
}

/// Everything a full pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineArtifacts {
    /// The graph spec this run built.
    pub spec: Arc<GraphSpec>,
    /// Train/val/test data (regenerated deterministically, not stored).
    pub split: SplitDataset,
    /// The trained victim model.
    pub model: Graph,
    /// The instrumented-inference engine over the model, with the
    /// configured repeat count.
    pub engine: TraceEngine,
    /// Clean test accuracy.
    pub clean_accuracy: f32,
    /// The collected per-class template.
    pub template: OfflineTemplate,
    /// The calibrated detector.
    pub detector: Detector,
}

impl PipelineArtifacts {
    /// Architecture display name from the spec.
    #[must_use]
    pub fn model_name(&self) -> &str {
        &self.spec.model
    }

    /// Dataset family display name from the spec.
    #[must_use]
    pub fn dataset_name(&self) -> &'static str {
        scenario::dataset_family(&self.spec).display_name()
    }

    /// The class targeted attacks aim for.
    #[must_use]
    pub fn target_class(&self) -> usize {
        self.spec.target_class
    }

    /// Number of output categories.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.spec.classes
    }
}

/// Error running the pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// The artifact store failed (I/O).
    Store(PersistError),
    /// Detector fitting failed.
    Fit(FitDetectorError),
    /// The configured graph spec failed validation (a hand-built
    /// `GraphSpec` that bypassed `GraphSpec::parse`).
    Spec(GraphSpecError),
    /// A partial rerun needed a stored upstream artifact that was absent
    /// or corrupt (run the full pipeline first to materialize it).
    MissingArtifact {
        /// The stage whose stored artifact could not be loaded.
        stage: Stage,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Store(e) => write!(f, "artifact store failure: {e}"),
            Self::Fit(e) => write!(f, "detector fit failure: {e}"),
            Self::Spec(e) => write!(f, "invalid graph spec: {e}"),
            Self::MissingArtifact { stage } => write!(
                f,
                "required {} artifact missing from the store (run the full pipeline first)",
                stage.name()
            ),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Store(e) => Some(e),
            Self::Fit(e) => Some(e),
            Self::Spec(e) => Some(e),
            Self::MissingArtifact { .. } => None,
        }
    }
}

impl From<PersistError> for PipelineError {
    fn from(e: PersistError) -> Self {
        Self::Store(e)
    }
}

impl From<FitDetectorError> for PipelineError {
    fn from(e: FitDetectorError) -> Self {
        Self::Fit(e)
    }
}

impl From<GraphSpecError> for PipelineError {
    fn from(e: GraphSpecError) -> Self {
        Self::Spec(e)
    }
}

struct StageTimers {
    train: Arc<Histogram>,
    template: Arc<Histogram>,
    fit: Arc<Histogram>,
    calibrate: Arc<Histogram>,
    split: Arc<Histogram>,
    clean_accuracy: Arc<Histogram>,
    model_read: Arc<Histogram>,
    model_verify: Arc<Histogram>,
    weight_decode: Arc<Histogram>,
    engine_build: Arc<Histogram>,
}

fn timers() -> &'static StageTimers {
    static TIMERS: OnceLock<StageTimers> = OnceLock::new();
    TIMERS.get_or_init(|| {
        let r = global();
        StageTimers {
            train: r.histogram(
                "advhunter_pipeline_train_model_ns",
                "Wall time of the TrainModel stage (load or compute)",
            ),
            template: r.histogram(
                "advhunter_pipeline_collect_template_ns",
                "Wall time of the CollectTemplate stage (load or compute)",
            ),
            fit: r.histogram(
                "advhunter_pipeline_fit_detector_ns",
                "Wall time of the FitDetector stage (load or compute)",
            ),
            calibrate: r.histogram(
                "advhunter_pipeline_calibrate_ns",
                "Wall time of the Calibrate stage (load or compute)",
            ),
            split: r.histogram(
                "advhunter_pipeline_split_ns",
                "Wall time of generating the data split (only when a stage recomputes or run needs it)",
            ),
            clean_accuracy: r.histogram(
                "advhunter_pipeline_clean_accuracy_ns",
                "Wall time of scoring the test split for clean accuracy",
            ),
            model_read: r.histogram(
                "advhunter_boot_model_read_ns",
                "Wall time of reading the stored model artifact and checking its envelope header",
            ),
            model_verify: r.histogram(
                "advhunter_boot_model_verify_ns",
                "Wall time of checking the stored model artifact's payload checksum, before it is decoded",
            ),
            weight_decode: r.histogram(
                "advhunter_boot_weight_decode_ns",
                "Wall time of building the model from its stored AHW1 weights",
            ),
            engine_build: r.histogram(
                "advhunter_boot_engine_build_ns",
                "Wall time of building the trace engine (layout, tuned packing, plan)",
            ),
        }
    })
}

fn timer(stage: Stage) -> &'static Histogram {
    let t = timers();
    match stage {
        Stage::TrainModel => &t.train,
        Stage::CollectTemplate => &t.template,
        Stage::FitDetector => &t.fit,
        Stage::Calibrate => &t.calibrate,
    }
}

/// The deterministic store address of one GEMM layer geometry's autotuner
/// verdict.
///
/// Like [`PipelineConfig::defense_fingerprint`], this is deliberately
/// *outside* the four offline stage closures: the tuner's choice changes
/// wall time only (every kernel variant is bit-exact), so re-tuning —
/// or tuning differently on another machine — must never re-address a
/// model, template, or detector. The key is the layer geometry alone, so
/// every model sharing a layer shape shares the verdict.
#[must_use]
pub fn tune_fingerprint(geometry: &GemmGeometry) -> Fingerprint {
    let mut b = FingerprintBuilder::new("advhunter.tune.v1");
    b.push_u64(u64::from(geometry.op.tag()))
        .push_usize(geometry.m)
        .push_usize(geometry.k)
        .push_usize(geometry.n);
    b.finish()
}

/// [`TunePersistence`] over an [`ArtifactStore`]: autotuner verdicts are
/// [`ArtifactKind::TuneTable`] artifacts (a single kernel-variant tag
/// byte) addressed by [`tune_fingerprint`], so warm pipeline runs skip
/// tuner benchmarking entirely.
#[derive(Debug, Clone)]
pub struct StoreTunePersistence {
    store: ArtifactStore,
}

impl StoreTunePersistence {
    /// A persistence backend over `store`.
    #[must_use]
    pub fn new(store: ArtifactStore) -> Self {
        Self { store }
    }
}

impl TunePersistence for StoreTunePersistence {
    fn load(&self, geometry: &GemmGeometry) -> Option<KernelVariant> {
        let fp = tune_fingerprint(geometry);
        match self.store.load(ArtifactKind::TuneTable, fp) {
            Ok(StoreLoad::Hit(payload)) if payload.len() == 1 => {
                // An unknown tag (future build) falls through to a fresh
                // benchmark; the re-store overwrites it.
                KernelVariant::from_tag(payload[0])
            }
            _ => None,
        }
    }

    fn store(&self, geometry: &GemmGeometry, variant: KernelVariant) {
        // Persistence is an optimization; a failed write just means the
        // next cold process re-benchmarks.
        let _ = self.store.save(
            ArtifactKind::TuneTable,
            tune_fingerprint(geometry),
            &[variant.tag()],
        );
    }
}

/// The `TrainModel` stage's output plus the always-recomputed context
/// around it (data split, accuracy).
#[derive(Debug, Clone)]
pub struct ModelRun {
    /// Train/val/test data.
    pub split: SplitDataset,
    /// The trained victim model.
    pub model: Graph,
    /// Clean test accuracy.
    pub clean_accuracy: f32,
    /// What happened at the `TrainModel` stage.
    pub report: StageReport,
}

/// What the four stages produce, plus the data split if a recomputing
/// stage had to build it.
struct Staged {
    model: Graph,
    engine: TraceEngine,
    template: OfflineTemplate,
    detector: Detector,
    report: PipelineReport,
    split: OnceCell<SplitDataset>,
}

/// Clean accuracy of `model` on the test split.
fn clean_accuracy(model: &Graph, split: &SplitDataset, parallelism: &Parallelism) -> f32 {
    let _span = timers().clean_accuracy.span();
    evaluate(model, split.test.images(), split.test.labels(), parallelism)
}

/// A configured pipeline bound to a store.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    store: ArtifactStore,
    force: bool,
    parallelism: Parallelism,
}

impl Pipeline {
    /// A pipeline for `config` persisting into `store`, with the
    /// environment-driven worker count.
    #[must_use]
    pub fn new(config: PipelineConfig, store: ArtifactStore) -> Self {
        Self {
            config,
            store,
            force: false,
            parallelism: Parallelism::default(),
        }
    }

    /// Recompute every stage even when a stored artifact exists (the
    /// recomputed artifact still overwrites the stored one).
    #[must_use]
    pub fn force(mut self, force: bool) -> Self {
        self.force = force;
        self
    }

    /// Overrides the worker count. Artifacts are bit-identical for every
    /// setting; this only changes wall time.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The pipeline's configuration.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The store this pipeline reads and writes.
    #[must_use]
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    fn opts(&self) -> ExecOptions {
        ExecOptions::new(self.config.seed, self.parallelism)
    }

    /// The load-else-compute protocol shared by every stage: try the
    /// store (unless forced), verify and decode on a hit, evict and
    /// recompute if the payload is corrupt or does not decode, and
    /// persist whatever was computed. The outcome reported is exactly
    /// what happened, and a payload is decoded only once its checksum
    /// holds.
    fn run_stage<T>(
        &self,
        stage: Stage,
        decode: impl FnOnce(&[u8]) -> Option<T>,
        compute: impl FnOnce() -> Result<T, PipelineError>,
        encode: impl FnOnce(&T) -> Vec<u8>,
    ) -> Result<(T, StageReport), PipelineError> {
        let _span = timer(stage).span();
        let fp = self.config.fingerprint(stage);
        let kind = stage.artifact_kind();
        let report = |outcome| StageReport {
            stage,
            fingerprint: fp,
            outcome,
        };
        let outcome = if self.force {
            StageOutcome::Forced
        } else {
            let model = stage == Stage::TrainModel;
            let read = {
                let _span = model.then(|| timers().model_read.span());
                self.store.read(kind, fp)?
            };
            let load = {
                let _span = model.then(|| timers().model_verify.span());
                read.verify()
            };
            match load {
                StoreLoad::Hit(payload) => match decode(&payload) {
                    Some(value) => return Ok((value, report(StageOutcome::Hit))),
                    None => {
                        // Envelope intact but the payload does not decode
                        // (e.g. written by an incompatible build): evict
                        // and recompute rather than load bad state.
                        let _ = std::fs::remove_file(self.store.path_for(kind, fp));
                        StageOutcome::Rebuilt
                    }
                },
                StoreLoad::Miss => StageOutcome::Miss,
                StoreLoad::Evicted => StageOutcome::Rebuilt,
            }
        };
        let value = compute()?;
        self.store.save(kind, fp, &encode(&value))?;
        Ok((value, report(outcome)))
    }

    /// Generates the deterministic data split.
    fn generate_split(&self) -> SplitDataset {
        let _span = timers().split.span();
        scenario::generate_data(&self.config.spec, &self.config.sizes, &self.parallelism)
    }

    /// The split in `cell`, generated on first use. Only a stage that
    /// recomputes asks for it, so a warm store never builds it.
    fn split_of<'s>(&self, cell: &'s OnceCell<SplitDataset>) -> &'s SplitDataset {
        cell.get_or_init(|| self.generate_split())
    }

    /// The split a stage built into `cell`, or a fresh one if none did.
    fn take_split(&self, cell: OnceCell<SplitDataset>) -> SplitDataset {
        cell.into_inner().unwrap_or_else(|| self.generate_split())
    }

    /// The `TrainModel` stage, finished by `finish` (the engine build, for
    /// a serving boot). On a hit the spec compiles to zeroed weights that
    /// the stored AHW1 payload is decoded into, so the model is built
    /// once. For `serving`, each matrix weight is decoded straight into
    /// the panels of the variant the store's tune table names, which the
    /// engine then shares, so no row-major copy of it is made. Only a
    /// recompute draws the initial weights from the model seed and trains
    /// them on the lazily generated split.
    fn train_stage<T>(
        &self,
        split: &OnceCell<SplitDataset>,
        serving: bool,
        finish: impl Fn(Graph) -> T,
        encode: impl FnOnce(&T) -> Vec<u8>,
    ) -> Result<(T, StageReport), PipelineError> {
        let config = &self.config;
        config.spec.validate()?;
        self.run_stage(
            Stage::TrainModel,
            |bytes| {
                let model = timers().weight_decode.time(|| {
                    let tuning = StoreTunePersistence::new(self.store.clone());
                    let mut panels =
                        |geometry| serving.then(|| choose_variant(geometry, Some(&tuning)));
                    let mut m = config.spec.build_graph(&mut ZeroWeights).ok()?;
                    weights_from_bytes_with(&mut m, bytes, &mut panels).ok()?;
                    Some(m)
                })?;
                Some(finish(model))
            },
            || {
                let train = &self.split_of(split).train;
                let mut m = config
                    .spec
                    .build_graph(&mut StdRng::seed_from_u64(config.spec.model_seed))?;
                let mut train_rng = StdRng::seed_from_u64(config.train_seed);
                fit(
                    &mut m,
                    train.images(),
                    train.labels(),
                    &config.train,
                    &self.parallelism,
                    &mut train_rng,
                );
                Ok(finish(m))
            },
            encode,
        )
    }

    /// The instrumented-inference engine over `model` with the configured
    /// repeat count. Construction autotunes against this store's decision
    /// table: warm runs load persisted verdicts, cold runs persist what
    /// they benchmark.
    fn build_engine(&self, model: &Graph) -> TraceEngine {
        let _span = timers().engine_build.span();
        let tuning = StoreTunePersistence::new(self.store.clone());
        TraceEngine::with_config_tuned(
            model,
            MachineConfig::default(),
            Sampler {
                repeats: self.config.repeats,
                ..Sampler::default()
            },
            Some(&tuning),
        )
    }

    /// The staged core behind every entry point: the four stages in
    /// order through [`run_stage`](Self::run_stage), with the data split
    /// generated only if one of them recomputes. A `serving` run decodes a
    /// stored model into its engine's panels (see
    /// [`train_stage`](Self::train_stage)).
    fn run_stages(&self, serving: bool) -> Result<Staged, PipelineError> {
        let config = &self.config;
        let split = OnceCell::new();
        let ((model, engine), train_report) = self.train_stage(
            &split,
            serving,
            |model| {
                let engine = self.build_engine(&model);
                (model, engine)
            },
            |(model, _)| persist::model_to_bytes(model),
        )?;
        let opts = self.opts();

        let (template, template_report) = self.run_stage(
            Stage::CollectTemplate,
            |bytes| template_from_bytes(bytes).ok(),
            || {
                Ok(collect_template(
                    &engine,
                    &model,
                    &self.split_of(&split).val,
                    config.per_class_cap,
                    &opts.stage(0),
                ))
            },
            template_to_bytes,
        )?;

        let (fitted, fit_report) = self.run_stage(
            Stage::FitDetector,
            |bytes| detector_from_bytes(bytes).ok(),
            || {
                let mut fit_config = config.detector.clone();
                fit_config.sigma_factor = CANONICAL_FIT_SIGMA;
                Ok(Detector::fit(&template, &fit_config, &opts.stage(1))?)
            },
            detector_to_bytes,
        )?;

        let (detector, calibrate_report) = self.run_stage(
            Stage::Calibrate,
            |bytes| detector_from_bytes(bytes).ok(),
            || Ok(fitted.recalibrated(&template, config.detector.sigma_factor)),
            detector_to_bytes,
        )?;

        Ok(Staged {
            model,
            engine,
            template,
            detector,
            report: PipelineReport {
                stages: vec![train_report, template_report, fit_report, calibrate_report],
            },
            split,
        })
    }

    /// Runs (or loads) the `TrainModel` stage and records clean test
    /// accuracy on the data split.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Store`] on store I/O failures and
    /// [`PipelineError::Spec`] if the configured spec fails validation.
    pub fn run_model(&self) -> Result<ModelRun, PipelineError> {
        let split = OnceCell::new();
        let (model, report) = self.train_stage(&split, false, |m| m, persist::model_to_bytes)?;
        let split = self.take_split(split);
        let clean_accuracy = clean_accuracy(&model, &split, &self.parallelism);
        Ok(ModelRun {
            split,
            model,
            clean_accuracy,
            report,
        })
    }

    /// Runs the full pipeline, loading every stage that hits and computing
    /// the rest, then scores the test split for clean accuracy.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Store`] on store I/O failures and
    /// [`PipelineError::Fit`] if `FitDetector` must recompute and fails.
    pub fn run(&self) -> Result<(PipelineArtifacts, PipelineReport), PipelineError> {
        let staged = self.run_stages(false)?;
        let split = self.take_split(staged.split);
        let clean_accuracy = clean_accuracy(&staged.model, &split, &self.parallelism);
        Ok((
            PipelineArtifacts {
                spec: Arc::clone(&self.config.spec),
                split,
                model: staged.model,
                engine: staged.engine,
                clean_accuracy,
                template: staged.template,
                detector: staged.detector,
            },
            staged.report,
        ))
    }

    /// Runs the same four stages as [`run`](Self::run) and returns only
    /// what the online phase needs: the engine, the model and the
    /// calibrated detector.
    ///
    /// Every stored artifact is still verified and decoded, and a missing
    /// or corrupt one is recomputed and re-stored exactly as `run` would.
    /// But the data split is built only when a stage recomputes, and the
    /// test split is never scored, so a warm boot costs the artifact loads
    /// and the engine build.
    ///
    /// A stored model's `Conv2d` and `Linear` weights are decoded straight
    /// into the tuned panels the engine dispatches, and the returned model
    /// shares them ([`MatWeight::Panels`](advhunter_nn::MatWeight)): the
    /// process holds each matrix weight once. Its row-major readers (the
    /// reference passes, [`persist::model_to_bytes`]) unpack on demand,
    /// to the same floats.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_for_serving(&self) -> Result<(TraceEngine, Graph, Detector), PipelineError> {
        let staged = self.run_stages(true)?;
        Ok((staged.engine, staged.model, staged.detector))
    }

    /// Loads a stored stage artifact, failing with
    /// [`PipelineError::MissingArtifact`] unless it is present and
    /// decodes.
    fn load_artifact<T>(
        &self,
        stage: Stage,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Result<T, PipelineError> {
        let fp = self.config.fingerprint(stage);
        match self.store.load(stage.artifact_kind(), fp)? {
            StoreLoad::Hit(payload) => {
                decode(&payload).ok_or(PipelineError::MissingArtifact { stage })
            }
            StoreLoad::Miss | StoreLoad::Evicted => Err(PipelineError::MissingArtifact { stage }),
        }
    }

    /// Re-runs *only* the `Calibrate` stage against the store: loads the
    /// stored template and fitted detector, re-derives thresholds with the
    /// configured sigma factor, and overwrites the stored calibrated
    /// detector. This is the drift-recalibration fast path — no training,
    /// template collection, or EM refit.
    ///
    /// Always recomputes (a recalibration request means the cached
    /// artifact is suspect), so the returned report's outcome is
    /// [`StageOutcome::Forced`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::MissingArtifact`] if the upstream
    /// `CollectTemplate` or `FitDetector` artifacts are not in the store,
    /// and [`PipelineError::Store`] on store I/O failures.
    pub fn run_calibrate_only(&self) -> Result<(Detector, StageReport), PipelineError> {
        let _span = timer(Stage::Calibrate).span();
        let template =
            self.load_artifact(Stage::CollectTemplate, |b| template_from_bytes(b).ok())?;
        let fitted = self.load_artifact(Stage::FitDetector, |b| detector_from_bytes(b).ok())?;
        let detector = fitted.recalibrated(&template, self.config.detector.sigma_factor);
        let fp = self.config.fingerprint(Stage::Calibrate);
        self.store.save(
            Stage::Calibrate.artifact_kind(),
            fp,
            &detector_to_bytes(&detector),
        )?;
        Ok((
            detector,
            StageReport {
                stage: Stage::Calibrate,
                fingerprint: fp,
                outcome: StageOutcome::Forced,
            },
        ))
    }

    /// Publishes `detector` at this configuration's `Calibrate` address,
    /// replacing whatever is stored there. Deployment primitive for
    /// zero-downtime hot-swap: a monitor watching the store picks the new
    /// bytes up on its next poll.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Store`] on store I/O failures.
    pub fn deploy_detector(&self, detector: &Detector) -> Result<Fingerprint, PipelineError> {
        let fp = self.config.fingerprint(Stage::Calibrate);
        self.store.save(
            Stage::Calibrate.artifact_kind(),
            fp,
            &detector_to_bytes(detector),
        )?;
        Ok(fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> PipelineConfig {
        PipelineConfig::for_scenario(ScenarioId::CaseStudy).with_sizes(SplitSizes {
            train: 6,
            val: 8,
            test: 4,
        })
    }

    #[test]
    fn fingerprints_chain_downstream() {
        let base = tiny_config();
        let fp = |c: &PipelineConfig, s| c.fingerprint(s);

        // Train-seed change re-addresses every stage.
        let new_train_seed = base.clone().with_train_seed(7);
        for stage in Stage::ALL {
            assert_ne!(fp(&base, stage), fp(&new_train_seed, stage), "{stage}");
        }

        // Repeat-count change leaves TrainModel alone, re-addresses the
        // rest.
        let new_repeats = base.clone().with_repeats(3);
        assert_eq!(
            fp(&base, Stage::TrainModel),
            fp(&new_repeats, Stage::TrainModel)
        );
        for stage in [Stage::CollectTemplate, Stage::FitDetector, Stage::Calibrate] {
            assert_ne!(fp(&base, stage), fp(&new_repeats, stage), "{stage}");
        }

        // Sigma change re-addresses only Calibrate.
        let mut sigma = base.clone();
        sigma.detector.sigma_factor = 2.5;
        for stage in [
            Stage::TrainModel,
            Stage::CollectTemplate,
            Stage::FitDetector,
        ] {
            assert_eq!(fp(&base, stage), fp(&sigma, stage), "{stage}");
        }
        assert_ne!(fp(&base, Stage::Calibrate), fp(&sigma, Stage::Calibrate));
    }

    #[test]
    fn defense_knobs_never_re_address_offline_stages() {
        let base = tiny_config();
        let defended = base
            .clone()
            .with_defense(FingerprintConfig::default().with_window(64));
        for stage in Stage::ALL {
            assert_eq!(
                base.fingerprint(stage),
                defended.fingerprint(stage),
                "{stage} must not depend on the online defense"
            );
        }
        assert_ne!(
            base.defense_fingerprint(),
            defended.defense_fingerprint(),
            "the defense has its own address"
        );
        // And each defense knob re-addresses the defense fingerprint.
        let tuned = defended.clone().with_defense(defended.defense.with_salt(1));
        assert_ne!(defended.defense_fingerprint(), tuned.defense_fingerprint());
        // Offline knobs never touch the defense address.
        let retrained = defended.clone().with_train_seed(99);
        assert_eq!(
            defended.defense_fingerprint(),
            retrained.defense_fingerprint()
        );
    }

    #[test]
    fn variant_and_edited_specs_get_their_own_addresses() {
        let sizes = SplitSizes {
            train: 6,
            val: 8,
            test: 4,
        };
        let canonical = tiny_config();

        // A generated variant must not collide with any canonical address.
        let variant = PipelineConfig::for_spec(Arc::new(advhunter_nn::variants::all().remove(0)))
            .with_sizes(sizes);
        assert_ne!(
            canonical.fingerprint(Stage::TrainModel),
            variant.fingerprint(Stage::TrainModel)
        );

        // Editing a canonical spec changes its digest, dropping it to the
        // v2 recipe — the stale v1 address must not be hit.
        let mut edited = (**ScenarioId::CaseStudy.spec()).clone();
        edited.model_seed += 1;
        let edited = PipelineConfig::for_spec(Arc::new(edited)).with_sizes(sizes);
        for stage in Stage::ALL {
            assert_ne!(
                canonical.fingerprint(stage),
                edited.fingerprint(stage),
                "{stage}"
            );
        }
    }

    #[test]
    fn stage_names_and_kinds_are_stable() {
        assert_eq!(Stage::TrainModel.name(), "train-model");
        assert_eq!(Stage::Calibrate.artifact_kind(), ArtifactKind::Detector);
        assert_eq!(
            Stage::CollectTemplate.artifact_kind(),
            ArtifactKind::Template
        );
        assert_eq!(Stage::ALL.len(), 4);
    }
}
