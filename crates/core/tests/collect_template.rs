//! `collect_template` against the loop it replaced: measure every
//! validation image (forward pass and trace replay), then keep, in dataset
//! order, the correctly classified ones up to the per-class cap.
//!
//! `collect_template` replays the trace only of images whose prediction
//! matches their label. The template must still be that loop's, bit for
//! bit, at one, two and four threads, with and without a cap, and the
//! engine's `advhunter_exec_measurements_total` must grow by exactly the
//! replays that ran. The counter is process-wide, so this binary holds a
//! single test.

use advhunter::offline::{collect_template, OfflineTemplate};
use advhunter::ExecOptions;
use advhunter_data::Dataset;
use advhunter_exec::TraceEngine;
use advhunter_nn::train::{fit, TrainConfig};
use advhunter_nn::{Graph, GraphBuilder};
use advhunter_runtime::Parallelism;
use advhunter_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Three classes of images whose mean brightness rises with the class,
/// noisy enough that a briefly trained model gets some of them wrong.
fn setup() -> (Graph, TraceEngine, Dataset) {
    let mut rng = StdRng::seed_from_u64(17);
    let mut b = GraphBuilder::new(&[1, 6, 6]);
    let input = b.input();
    let c = b.conv2d("conv", input, 4, 3, 1, 1, &mut rng);
    let r = b.relu("act", c);
    let f = b.flatten("flatten", r);
    b.linear("fc", f, 3, &mut rng);
    let mut model = b.build();
    let (images, labels): (Vec<Tensor>, Vec<usize>) = (0..48)
        .map(|i| {
            let label = i % 3;
            let mean = label as f32 * 0.4 - 0.4;
            (init::normal(&mut rng, &[1, 6, 6], mean, 0.8), label)
        })
        .unzip();
    let config = TrainConfig {
        epochs: 2,
        batch_size: 12,
        ..TrainConfig::default()
    };
    let par = Parallelism::sequential();
    fit(&mut model, &images, &labels, &config, &par, &mut rng);
    let engine = TraceEngine::new(&model);
    (model, engine, Dataset::new("brightness", images, labels, 3))
}

/// The template of measuring every image, then filtering.
fn measure_all_then_filter(
    engine: &TraceEngine,
    model: &Graph,
    validation: &Dataset,
    per_class_cap: Option<usize>,
    opts: &ExecOptions,
) -> OfflineTemplate {
    let cap = per_class_cap.unwrap_or(usize::MAX);
    let measurements =
        engine.measure_batch(model, validation.images(), opts.seed, &opts.parallelism);
    let mut per_class = vec![Vec::new(); validation.num_classes()];
    for (m, &label) in measurements.iter().zip(validation.labels()) {
        if per_class[label].len() >= cap || m.predicted != label {
            continue;
        }
        per_class[label].push(m.sample);
    }
    OfflineTemplate::from_samples(per_class)
}

fn replays() -> u64 {
    advhunter_telemetry::global()
        .snapshot()
        .counter("advhunter_exec_measurements_total")
        .unwrap_or(0)
}

#[test]
fn template_replays_only_kept_images_and_equals_measuring_all() {
    let (model, engine, validation) = setup();
    let correct = (0..validation.len())
        .filter(|&i| {
            let (image, label) = validation.item(i);
            model.predict(&Tensor::stack(std::slice::from_ref(image)))[0] == label
        })
        .count() as u64;
    assert!(
        0 < correct && correct < validation.len() as u64,
        "{correct} of {} correct: the test needs both kinds",
        validation.len()
    );
    for cap in [None, Some(3)] {
        let oracle = measure_all_then_filter(
            &engine,
            &model,
            &validation,
            cap,
            &ExecOptions::sequential(5),
        );
        if cap.is_some() {
            assert!(
                (0..3).any(|c| oracle.class_samples(c).len() == 3),
                "the cap must bind for a class"
            );
        }
        for threads in [1, 2, 4] {
            let opts = ExecOptions::sequential(5).with_threads(threads);
            let before = replays();
            let template = collect_template(&engine, &model, &validation, cap, &opts);
            assert_eq!(
                replays() - before,
                correct,
                "replays at {threads} threads, cap {cap:?}"
            );
            assert_eq!(template, oracle, "{threads} threads, cap {cap:?}");
        }
    }
}
