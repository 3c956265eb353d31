//! The cold offline pipeline — train, collect the template, fit, calibrate —
//! on a fresh store, at a reduced split so it can repeat within a run.

use std::path::{Path, PathBuf};

use advhunter::pipeline::CANONICAL_FIT_SIGMA;
use advhunter::{
    collect_template, ArtifactStore, Detector, ExecOptions, Parallelism, Pipeline, PipelineConfig,
};
use advhunter_data::SplitSizes;

use crate::host::dir_bytes;
use crate::report::Metric;
use crate::runner::defined;
use crate::trace::{timed, Tracer};

/// Per class. The smallest split at which both workloads' models learn
/// every class, which the template needs (it keeps only correctly
/// classified validation images).
pub const OFFLINE_SIZES: SplitSizes = SplitSizes {
    train: 20,
    val: 24,
    test: 6,
};

/// A fresh, empty store directory; removed when dropped.
struct FreshStore {
    dir: PathBuf,
    store: ArtifactStore,
}

impl FreshStore {
    fn new(state: &Path, tag: &str) -> Result<FreshStore, String> {
        let dir = state.join(format!("offline-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(FreshStore { dir, store })
    }
}

impl Drop for FreshStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn pipeline(config: &PipelineConfig, store: &ArtifactStore) -> Pipeline {
    Pipeline::new(config.clone(), store.clone()).with_parallelism(Parallelism::available_cores())
}

/// Wall seconds of one cold pipeline run on a fresh store.
pub fn cold_run(config: &PipelineConfig, state: &Path) -> Result<f64, String> {
    let fresh = FreshStore::new(state, "cold")?;
    let (run, secs) = timed(|| pipeline(config, &fresh.store).run());
    run.map_err(|e| format!("cold pipeline run: {e}"))?;
    Ok(secs)
}

/// One cold pipeline taken apart: the training stage, the three detector
/// stages, a warm re-run, and collect / fit / calibrate by direct calls
/// (collect at one and at two threads).
pub fn stages(
    config: &PipelineConfig,
    state: &Path,
    tracer: &Tracer,
) -> Result<Vec<(String, Metric)>, String> {
    let fresh = FreshStore::new(state, "traced")?;
    let pipeline = pipeline(config, &fresh.store);
    let err = |e: advhunter::PipelineError| format!("offline pipeline: {e}");
    let (model_run, train_s) = tracer.time("core.train_model", None, || pipeline.run_model());
    model_run.map_err(err)?;
    let (run, stages_s) = tracer.time("core.detector_stages", None, || pipeline.run());
    let (art, _) = run.map_err(err)?;
    let (run, warm_s) = tracer.time("core.warm_run", None, || pipeline.run());
    run.map_err(err)?;
    let store_bytes = dir_bytes(&fresh.dir);

    // The pipeline's own stage options: CollectTemplate is stage 0,
    // FitDetector stage 1.
    let opts = ExecOptions::new(config.seed, Parallelism::available_cores());
    let collect = |threads: usize| {
        collect_template(
            &art.engine,
            &art.model,
            &art.split.val,
            config.per_class_cap,
            &opts.stage(0).with_threads(threads),
        )
    };
    let (template, collect_2t) = tracer.time("core.collect_template", None, || collect(2));
    let (_, collect_1t) = tracer.time("core.collect_template_1t", None, || collect(1));
    let mut fit_config = config.detector.clone();
    fit_config.sigma_factor = CANONICAL_FIT_SIGMA;
    let (fitted, fit_s) = tracer.time("gmm.fit", None, || {
        Detector::fit(&template, &fit_config, &opts.stage(1))
    });
    let fitted = fitted.map_err(|e| format!("detector fit: {e}"))?;
    let (_, calibrate_s) = tracer.time("core.calibrate", None, || {
        std::hint::black_box(fitted.recalibrated(&template, config.detector.sigma_factor))
    });
    Ok(vec![
        defined("core.train_model_s", vec![train_s]),
        defined("core.detector_stages_s", vec![stages_s]),
        defined("core.warm_run_s", vec![warm_s]),
        defined("core.store_bytes", vec![store_bytes as f64]),
        defined("core.collect_template_s", vec![collect_2t]),
        defined("runtime.collect_2t_speedup", vec![collect_1t / collect_2t]),
        defined("gmm.fit_s", vec![fit_s]),
        defined("core.calibrate_ms", vec![calibrate_s * 1e3]),
    ])
}
