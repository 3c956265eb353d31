//! The paper's evaluation scenarios: dataset + architecture + trained model
//! (Table 1), plus the Figure 1 case-study CNN.
//!
//! Since 0.8 the scenarios are no longer hardcoded: [`ScenarioId`] is a
//! thin alias table over four checked-in `.ahg` graph specs (`specs/s1.ahg`
//! … `specs/case_study.ahg`, embedded at compile time), and every accessor
//! delegates to the parsed [`GraphSpec`]. Anything a scenario can do — the
//! offline pipeline, the online monitor, wire serving — works identically
//! for a user-supplied spec loaded from disk; see
//! [`build_from_spec`] and `PipelineConfig::for_spec`.

use std::sync::{Arc, OnceLock};

pub use advhunter_data::SplitSizes;
use advhunter_data::{DatasetFamily, SplitDataset};
use advhunter_exec::TraceEngine;
use advhunter_nn::spec::GraphSpec;
use advhunter_nn::train::TrainConfig;
use advhunter_nn::Graph;
use advhunter_runtime::Parallelism;

use crate::pipeline::{Pipeline, PipelineConfig};
use crate::store::ArtifactStore;

/// Which evaluation setup to build — an alias into the checked-in spec
/// library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioId {
    /// FashionMNIST-like data on the micro EfficientNet (`specs/s1.ahg`).
    S1,
    /// CIFAR-10-like data on the micro ResNet (`specs/s2.ahg`).
    S2,
    /// GTSRB-like data on the micro DenseNet (`specs/s3.ahg`).
    S3,
    /// The Figure 1 case study: 4-conv/2-fc CNN on CIFAR-10-like data
    /// (`specs/case_study.ahg`).
    CaseStudy,
}

/// The embedded `.ahg` sources, in [`ScenarioId::ALL`] order.
const SPEC_SOURCES: [&str; 4] = [
    include_str!("../../../specs/s1.ahg"),
    include_str!("../../../specs/s2.ahg"),
    include_str!("../../../specs/s3.ahg"),
    include_str!("../../../specs/case_study.ahg"),
];

static SPECS: [OnceLock<Arc<GraphSpec>>; 4] = [
    OnceLock::new(),
    OnceLock::new(),
    OnceLock::new(),
    OnceLock::new(),
];

impl ScenarioId {
    /// All three Table 1 scenarios.
    pub const TABLE1: [ScenarioId; 3] = [ScenarioId::S1, ScenarioId::S2, ScenarioId::S3];

    /// Every scenario, in spec-library order.
    pub const ALL: [ScenarioId; 4] = [
        ScenarioId::S1,
        ScenarioId::S2,
        ScenarioId::S3,
        ScenarioId::CaseStudy,
    ];

    fn index(self) -> usize {
        match self {
            ScenarioId::S1 => 0,
            ScenarioId::S2 => 1,
            ScenarioId::S3 => 2,
            ScenarioId::CaseStudy => 3,
        }
    }

    /// Scenario label as used in the paper (also the stable fingerprint
    /// label for the canonical pipeline recipes).
    pub fn label(self) -> &'static str {
        match self {
            ScenarioId::S1 => "S1",
            ScenarioId::S2 => "S2",
            ScenarioId::S3 => "S3",
            ScenarioId::CaseStudy => "CaseStudy",
        }
    }

    /// The raw `.ahg` text this scenario aliases.
    pub fn spec_source(self) -> &'static str {
        SPEC_SOURCES[self.index()]
    }

    /// The parsed spec this scenario aliases (parsed once per process).
    ///
    /// # Panics
    ///
    /// Panics if the embedded spec fails to parse — impossible for a
    /// released build, since the specs are validated in CI and by tests.
    pub fn spec(self) -> &'static Arc<GraphSpec> {
        SPECS[self.index()].get_or_init(|| {
            Arc::new(
                GraphSpec::parse(self.spec_source())
                    .unwrap_or_else(|e| panic!("embedded spec for {}: {e}", self.label())),
            )
        })
    }

    /// Looks up the scenario whose spec has the given content digest —
    /// how the pipeline recognizes canonical architectures (to keep their
    /// pre-0.8 fingerprint recipes) after everything became spec-driven.
    pub fn for_digest(digest: u64) -> Option<ScenarioId> {
        Self::ALL
            .into_iter()
            .find(|id| id.spec().digest() == digest)
    }

    /// The dataset family behind this scenario's spec.
    pub fn dataset_family(self) -> DatasetFamily {
        dataset_family(self.spec())
    }

    /// Dataset name (stand-in).
    pub fn dataset_name(self) -> &'static str {
        self.dataset_family().display_name()
    }

    /// Architecture name (micro stand-in for the paper's model).
    pub fn model_name(self) -> &'static str {
        &self.spec().model
    }

    /// Number of output categories.
    pub fn num_classes(self) -> usize {
        self.spec().classes
    }

    /// The target class for targeted attacks, mirroring the paper's picks:
    /// 'shirt' (FashionMNIST index 6), 'frog' (CIFAR-10 index 6), 'speed
    /// limit 30' (GTSRB index 1).
    pub fn target_class(self) -> usize {
        self.spec().target_class
    }

    /// CHW input dimensions.
    pub fn input_dims(self) -> [usize; 3] {
        self.spec().input
    }

    /// Human-readable class names (from the real datasets the synthetic
    /// ones stand in for).
    pub fn class_names(self) -> Vec<String> {
        self.dataset_family().class_names(self.num_classes())
    }

    /// Default dataset split sizes (per class), balancing fidelity against
    /// single-core runtime.
    pub fn default_sizes(self) -> SplitSizes {
        split_sizes(self.spec())
    }

    /// The canonical training hyperparameters for this scenario (part of
    /// the pipeline's `TrainModel` fingerprint).
    pub fn train_config(self) -> TrainConfig {
        self.spec().train
    }
}

/// The dataset family a spec references.
///
/// # Panics
///
/// Panics if the slug is unknown — load-time validation (`load_spec`,
/// `PipelineConfig::for_spec`) rejects such specs first, so this only
/// triggers on a hand-built `GraphSpec` that bypassed validation.
pub(crate) fn dataset_family(spec: &GraphSpec) -> DatasetFamily {
    DatasetFamily::from_slug(&spec.dataset).unwrap_or_else(|| {
        panic!(
            "spec `{}`: unknown dataset family `{}`",
            spec.name, spec.dataset
        )
    })
}

/// A spec's default split sizes as the data crate's type.
pub(crate) fn split_sizes(spec: &GraphSpec) -> SplitSizes {
    SplitSizes {
        train: spec.sizes.train,
        val: spec.sizes.val,
        test: spec.sizes.test,
    }
}

/// Generates the spec's dataset at the given split sizes, rendering on
/// `parallelism`.
pub(crate) fn generate_data(
    spec: &GraphSpec,
    sizes: &SplitSizes,
    parallelism: &Parallelism,
) -> SplitDataset {
    dataset_family(spec).generate_with(
        spec.input,
        spec.classes,
        spec.dataset_seed,
        sizes,
        parallelism,
    )
}

/// The most bytes [`load_spec`] reads from one file (1 MiB). The largest
/// checked-in spec is under 2 KB.
const MAX_SPEC_BYTES: u64 = 1 << 20;

/// Loads and validates a `.ahg` spec from disk, additionally checking that
/// its dataset slug resolves — the one rule the format-level
/// `GraphSpec::validate` cannot see. At most 1 MiB and one byte are read,
/// so an endless file (`/dev/zero`) fails instead of exhausting memory.
///
/// # Errors
///
/// I/O errors, a file over the size cap, non-UTF-8 text and spec errors,
/// stringified with the file path.
pub fn load_spec(path: &std::path::Path) -> Result<Arc<GraphSpec>, String> {
    use std::io::Read;
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|f| f.take(MAX_SPEC_BYTES + 1).read_to_end(&mut bytes))
        .map_err(|e| fail(&e))?;
    if bytes.len() as u64 > MAX_SPEC_BYTES {
        return Err(fail(&format!(
            "spec file exceeds the {MAX_SPEC_BYTES}-byte cap"
        )));
    }
    let text = String::from_utf8(bytes).map_err(|e| fail(&e))?;
    let spec = GraphSpec::parse(&text).map_err(|e| fail(&e))?;
    if DatasetFamily::from_slug(&spec.dataset).is_none() {
        return Err(format!(
            "{}: unknown dataset family `{}` (known: {})",
            path.display(),
            spec.dataset,
            DatasetFamily::ALL.map(DatasetFamily::slug).join(", ")
        ));
    }
    Ok(Arc::new(spec))
}

/// Everything one scenario needs: data, a trained model, and the
/// instrumented-inference engine over it.
#[derive(Debug, Clone)]
pub struct ScenarioArtifacts {
    /// The graph spec this was built from.
    pub spec: Arc<GraphSpec>,
    /// Train/val/test data.
    pub split: SplitDataset,
    /// The trained victim model.
    pub model: Graph,
    /// The instrumented-inference engine for the model.
    pub engine: TraceEngine,
    /// Clean test accuracy (the Table 1 column).
    pub clean_accuracy: f32,
    /// Whether the model weights came from the disk cache.
    pub from_cache: bool,
}

impl ScenarioArtifacts {
    /// The spec's unique name (e.g. `s2`, `case-study`, or a variant id).
    pub fn label(&self) -> &str {
        &self.spec.name
    }

    /// Architecture display name.
    pub fn model_name(&self) -> &str {
        &self.spec.model
    }

    /// Dataset family display name.
    pub fn dataset_name(&self) -> &'static str {
        dataset_family(&self.spec).display_name()
    }

    /// Number of output categories.
    pub fn num_classes(&self) -> usize {
        self.spec.classes
    }

    /// The class targeted attacks aim for.
    pub fn target_class(&self) -> usize {
        self.spec.target_class
    }

    /// Human-readable class names.
    pub fn class_names(&self) -> Vec<String> {
        dataset_family(&self.spec).class_names(self.spec.classes)
    }
}

/// Builds (or loads from the shared artifact store) a scenario: generate
/// data, obtain the trained model via the pipeline's `TrainModel` stage,
/// wrap it in a trace engine, and record clean accuracy.
///
/// A thin wrapper over [`build_from_spec`] with the scenario's checked-in
/// spec; `sizes` overrides the spec's default split sizes. No RNG is
/// passed — seeds live in the spec, and the model comes from the pipeline
/// stage (cached in [`ArtifactStore::shared`]) so repeated builds are pure
/// cache hits and every caller gets the same model bits.
pub fn build_scenario(id: ScenarioId, sizes: Option<SplitSizes>) -> ScenarioArtifacts {
    build_from_spec(Arc::clone(id.spec()), sizes)
}

/// [`build_scenario`] for an arbitrary spec — the bring-your-own-
/// architecture entry point. Artifacts are cached in the shared store
/// keyed by the spec's content digest, so an edited spec re-trains while
/// an untouched one is a pure cache hit.
///
/// Callers needing a different store, seed, or the downstream pipeline
/// stages should use [`Pipeline`] with `PipelineConfig::for_spec`.
pub fn build_from_spec(spec: Arc<GraphSpec>, sizes: Option<SplitSizes>) -> ScenarioArtifacts {
    let mut config = PipelineConfig::for_spec(Arc::clone(&spec));
    if let Some(sizes) = sizes {
        config = config.with_sizes(sizes);
    }
    let store = ArtifactStore::shared().expect("artifact store I/O");
    let run = Pipeline::new(config, store)
        .run_model()
        .expect("artifact store I/O");
    let engine = TraceEngine::new(&run.model);
    ScenarioArtifacts {
        spec,
        split: run.split,
        model: run.model,
        engine,
        clean_accuracy: run.clean_accuracy,
        from_cache: run.report.outcome.is_hit(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_metadata_matches_the_paper() {
        assert_eq!(ScenarioId::S1.dataset_name(), "FashionMNIST-like");
        assert_eq!(ScenarioId::S2.model_name(), "ResNet18-micro");
        assert_eq!(ScenarioId::S3.num_classes(), 43);
        assert_eq!(ScenarioId::S2.class_names()[6], "frog");
        assert_eq!(ScenarioId::S1.class_names()[6], "shirt");
        assert_eq!(ScenarioId::S3.class_names()[1], "speed limit (30km/h)");
        assert_eq!(ScenarioId::S2.target_class(), 6);
        assert_eq!(ScenarioId::S1.input_dims(), [1, 28, 28]);
        assert_eq!(ScenarioId::S3.train_config().lr_decay, 0.75);
        assert_eq!(ScenarioId::S3.default_sizes().train, 40);
    }

    #[test]
    fn class_name_counts_match_class_counts() {
        for id in ScenarioId::ALL {
            assert_eq!(id.class_names().len(), id.num_classes());
        }
    }

    #[test]
    fn checked_in_specs_match_the_generator() {
        // The embedded files must be exactly what `gen_specs` would write,
        // so regeneration is a no-op and digests are stable.
        for (id, generated) in ScenarioId::ALL
            .into_iter()
            .zip(advhunter_nn::variants::canonical_scenarios())
        {
            assert_eq!(
                id.spec_source(),
                generated.to_canonical_string(),
                "specs/{}.ahg drifted from variants::canonical_scenarios()",
                generated.name.replace('-', "_")
            );
            assert_eq!(id.spec().digest(), generated.digest());
        }
    }

    #[test]
    fn digest_lookup_recognizes_the_canonical_four_only() {
        for id in ScenarioId::ALL {
            assert_eq!(ScenarioId::for_digest(id.spec().digest()), Some(id));
        }
        assert_eq!(ScenarioId::for_digest(0), None);
        for variant in advhunter_nn::variants::all() {
            assert_eq!(ScenarioId::for_digest(variant.digest()), None);
        }
    }

    #[test]
    fn load_spec_reads_at_most_the_cap() {
        let dir = std::env::temp_dir().join(format!("advhunter-cap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A valid spec padded with one comment line to exactly the cap
        // loads; one byte more fails, naming the cap.
        let mut text = ScenarioId::S1.spec_source().to_string();
        text.push('#');
        let pad = MAX_SPEC_BYTES as usize - text.len() - 1;
        text.push_str(&" ".repeat(pad));
        text.push('\n');
        let at_cap = dir.join("at_cap.ahg");
        std::fs::write(&at_cap, &text).unwrap();
        let spec = load_spec(&at_cap).expect("a spec of exactly the cap loads");
        assert_eq!(spec.digest(), ScenarioId::S1.spec().digest());

        text.push('\n');
        let over = dir.join("over_cap.ahg");
        std::fs::write(&over, &text).unwrap();
        let err = load_spec(&over).expect_err("one byte over the cap");
        assert!(err.contains(&format!("{MAX_SPEC_BYTES}-byte cap")), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_scenario_trains_a_usable_model_on_tiny_sizes() {
        let dir = std::env::temp_dir().join(format!("advhunter-scn-{}", std::process::id()));
        std::env::set_var("ADVHUNTER_CACHE_DIR", &dir);
        let sizes = SplitSizes {
            train: 12,
            val: 4,
            test: 6,
        };
        let art = build_scenario(ScenarioId::CaseStudy, Some(sizes));
        assert_eq!(art.split.train.len(), 120);
        assert_eq!(art.label(), "case-study");
        assert_eq!(art.model_name(), "CaseStudyCNN");
        assert_eq!(art.dataset_name(), "CIFAR10-like");
        // Even a tiny training run should beat random guessing (10%).
        assert!(
            art.clean_accuracy > 0.15,
            "tiny model accuracy {}",
            art.clean_accuracy
        );
        // A rebuild must hit the store.
        let art2 = build_scenario(ScenarioId::CaseStudy, Some(sizes));
        assert!(art2.from_cache);
        assert_eq!(art2.model, art.model);
        std::env::remove_var("ADVHUNTER_CACHE_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
