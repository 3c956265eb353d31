//! Where a boot's time goes: the data split and the clean-accuracy pass
//! have timers of their own, and a warm serving boot records neither.
//!
//! A binary of its own, with one test, so no concurrent test moves the
//! global registry between the snapshots compared here.

use std::sync::atomic::{AtomicU64, Ordering};

use advhunter::scenario::ScenarioId;
use advhunter::{ArtifactStore, Pipeline, PipelineConfig};
use advhunter_data::SplitSizes;

const SPLIT: &str = "advhunter_pipeline_split_ns";
const ACCURACY: &str = "advhunter_pipeline_clean_accuracy_ns";

/// Observations recorded so far under each of [`SPLIT`] and [`ACCURACY`].
fn counts() -> [u64; 2] {
    let snapshot = advhunter_telemetry::global().snapshot();
    [SPLIT, ACCURACY].map(|name| snapshot.histogram(name).map_or(0, |h| h.count))
}

/// What `f` added to each count.
fn recorded(f: impl FnOnce()) -> [u64; 2] {
    let before = counts();
    f();
    let after = counts();
    [after[0] - before[0], after[1] - before[1]]
}

fn scratch_store() -> (ArtifactStore, std::path::PathBuf) {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "advhunter-boot-telemetry-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    (
        ArtifactStore::open(&root).expect("open scratch store"),
        root,
    )
}

#[test]
fn boots_record_the_split_only_when_a_stage_computes() {
    let config = PipelineConfig::for_scenario(ScenarioId::CaseStudy).with_sizes(SplitSizes {
        train: 30,
        val: 40,
        test: 10,
    });
    let (store, root) = scratch_store();
    let pipeline = Pipeline::new(config.clone(), store);
    let boot = || {
        pipeline.run_for_serving().expect("serving boot");
    };

    // Cold: TrainModel and CollectTemplate both need the split; it is
    // built once and shared. No accuracy pass.
    assert_eq!(recorded(boot), [1, 0], "cold serving boot");
    // Warm: nothing but artifact loads and the engine build.
    assert_eq!(recorded(boot), [0, 0], "warm serving boot");
    // A full run still returns the split and clean accuracy.
    let run = || {
        pipeline.run().expect("pipeline run");
    };
    assert_eq!(recorded(run), [1, 1], "warm run");
    // Cold, `run` reuses the split its stages built.
    let (cold_store, cold_root) = scratch_store();
    let cold = || {
        Pipeline::new(config, cold_store).run().expect("cold run");
    };
    assert_eq!(recorded(cold), [1, 1], "cold run");

    std::fs::remove_dir_all(root).ok();
    std::fs::remove_dir_all(cold_root).ok();
}
