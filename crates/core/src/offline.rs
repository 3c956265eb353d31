//! The offline phase: building the benign template `D_c` (paper §5.2).

use advhunter_data::Dataset;
use advhunter_exec::TraceEngine;
use advhunter_nn::Graph;
use advhunter_runtime::ExecOptions;
use advhunter_uarch::HpcSample;
use rand::Rng;

/// The benign template: per output category, the mean HPC readings of the
/// clean validation images the defender measured (each already averaged
/// over `R` repetitions) — the rows of the paper's matrix `D_c`.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineTemplate {
    per_class: Vec<Vec<HpcSample>>,
}

impl OfflineTemplate {
    /// Builds a template from already-collected per-class samples.
    pub fn from_samples(per_class: Vec<Vec<HpcSample>>) -> Self {
        Self { per_class }
    }

    /// Number of output categories.
    pub fn num_classes(&self) -> usize {
        self.per_class.len()
    }

    /// The samples of category `c` (one per validation image).
    pub fn class_samples(&self, c: usize) -> &[HpcSample] {
        &self.per_class[c]
    }

    /// Smallest per-class sample count (the effective `M`).
    pub fn min_samples_per_class(&self) -> usize {
        self.per_class.iter().map(|v| v.len()).min().unwrap_or(0)
    }

    /// A new template keeping at most `m` randomly chosen samples per
    /// category — the resampling step of the paper's Figure 6 validation-
    /// size study (measurements are reused; only the selection varies).
    pub fn subsample(&self, m: usize, rng: &mut impl Rng) -> OfflineTemplate {
        use rand::seq::SliceRandom;
        let per_class = self
            .per_class
            .iter()
            .map(|samples| {
                let mut idx: Vec<usize> = (0..samples.len()).collect();
                idx.shuffle(rng);
                idx.into_iter().take(m).map(|i| samples[i]).collect()
            })
            .collect();
        OfflineTemplate { per_class }
    }
}

/// Measures the clean validation set and groups readings by category.
///
/// Following the hard-label protocol, an image contributes to the
/// category the model *predicts*; validation images the model
/// misclassifies are dropped (the defender can check predictions against
/// the validation labels it owns). So every image runs its forward pass
/// over the runtime's worker pool, but only an image whose prediction
/// matches its label has its trace replayed through the simulated machine
/// (internally averaged over the engine's `R` repetitions); then the
/// selection rule is applied in dataset order.
///
/// `per_class_cap` limits how many images per category are used (the
/// paper's `M`); `None` uses everything available.
///
/// Image `i` draws its measurement noise from the stream seeded by
/// `derive_seed(opts.seed, i)`, whether or not its neighbours are
/// replayed, so the returned template is bit-for-bit the one that
/// measuring every image gives, and identical for every thread count,
/// including [`Parallelism::sequential`].
pub fn collect_template(
    engine: &TraceEngine,
    model: &Graph,
    validation: &Dataset,
    per_class_cap: Option<usize>,
    opts: &ExecOptions,
) -> OfflineTemplate {
    let cap = per_class_cap.unwrap_or(usize::MAX);
    let labels = validation.labels();
    let correct = |i: usize, predicted: usize| predicted == labels[i];
    let measurements = engine.measure_batch_if(
        model,
        validation.images(),
        opts.seed,
        &opts.parallelism,
        correct,
    );
    let mut per_class: Vec<Vec<HpcSample>> = vec![Vec::new(); validation.num_classes()];
    for (m, &label) in measurements.iter().zip(labels) {
        match m {
            Some(m) if per_class[label].len() < cap => per_class[label].push(m.sample),
            _ => {}
        }
    }
    OfflineTemplate::from_samples(per_class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use advhunter_nn::GraphBuilder;
    use advhunter_tensor::{init, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Graph, TraceEngine, Dataset) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = GraphBuilder::new(&[1, 6, 6]);
        let input = b.input();
        let c = b.conv2d("c", input, 4, 3, 1, 1, &mut rng);
        let r = b.relu("r", c);
        let g = b.global_avgpool("g", r);
        b.linear("fc", g, 2, &mut rng);
        let model = b.build();
        let engine = TraceEngine::new(&model);

        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            images.push(init::uniform(&mut rng, &[1, 6, 6], 0.0, 1.0));
            labels.push(i % 2);
        }
        let ds = Dataset::new("toy", images, labels, 2);
        (model, engine, ds)
    }

    #[test]
    fn template_groups_by_class_and_respects_cap() {
        let (model, engine, ds) = setup();
        let t = collect_template(&engine, &model, &ds, Some(5), &ExecOptions::seeded(1));
        assert_eq!(t.num_classes(), 2);
        assert!(t.class_samples(0).len() <= 5);
        assert!(t.class_samples(1).len() <= 5);
    }

    #[test]
    fn only_correctly_predicted_images_contribute() {
        let (model, engine, ds) = setup();
        let t = collect_template(&engine, &model, &ds, None, &ExecOptions::seeded(2));
        // An untrained 2-class model predicts ~one class for most inputs;
        // total retained samples can never exceed the dataset size, and
        // every retained sample must have been predicted as its class.
        let total: usize = (0..2).map(|c| t.class_samples(c).len()).sum();
        assert!(total <= ds.len());
        assert_eq!(
            t.min_samples_per_class(),
            (0..2).map(|c| t.class_samples(c).len()).min().unwrap()
        );

        // Cross-check one class against direct predictions.
        let mut expect0 = 0;
        for i in 0..ds.len() {
            let (img, label) = ds.item(i);
            let batch = Tensor::stack(std::slice::from_ref(img));
            if label == 0 && model.predict(&batch)[0] == 0 {
                expect0 += 1;
            }
        }
        assert_eq!(t.class_samples(0).len(), expect0);
    }

    #[test]
    fn parallel_template_is_thread_count_invariant() {
        let (model, engine, ds) = setup();
        let seq = collect_template(&engine, &model, &ds, Some(5), &ExecOptions::sequential(3));
        for threads in [2, 4] {
            let opts = ExecOptions::sequential(3).with_threads(threads);
            let par = collect_template(&engine, &model, &ds, Some(5), &opts);
            assert_eq!(seq, par, "thread count {threads} changed the template");
        }
    }

    #[test]
    fn parallel_template_applies_the_same_selection_rule() {
        let (model, engine, ds) = setup();
        let t = collect_template(
            &engine,
            &model,
            &ds,
            None,
            &ExecOptions::seeded(4).with_threads(2),
        );
        // Every retained sample was predicted as its own class; cross-check
        // against direct predictions as in the sequential test.
        let mut expect0 = 0;
        for i in 0..ds.len() {
            let (img, label) = ds.item(i);
            let batch = Tensor::stack(std::slice::from_ref(img));
            if label == 0 && model.predict(&batch)[0] == 0 {
                expect0 += 1;
            }
        }
        assert_eq!(t.class_samples(0).len(), expect0);
        let capped = collect_template(
            &engine,
            &model,
            &ds,
            Some(2),
            &ExecOptions::seeded(4).with_threads(2),
        );
        assert!(capped.class_samples(0).len() <= 2);
        assert!(capped.class_samples(1).len() <= 2);
    }

    #[test]
    fn from_samples_round_trips() {
        let t = OfflineTemplate::from_samples(vec![vec![HpcSample::default()], vec![]]);
        assert_eq!(t.num_classes(), 2);
        assert_eq!(t.class_samples(0).len(), 1);
        assert_eq!(t.min_samples_per_class(), 0);
    }
}
