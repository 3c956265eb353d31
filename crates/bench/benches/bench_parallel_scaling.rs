//! Thread-scaling benchmark for the parallel runtime: offline-phase
//! template collection, GMM-bank fitting, and batched online scoring at
//! 1/2/4/8 worker threads.
//!
//! Every stage is seed-deterministic and thread-count invariant, so the
//! different thread counts here compute *identical* results — the only
//! thing that changes is wall-clock time. On a single-core container the
//! curves are flat (or slightly worse with threads); on real multi-core
//! hardware the offline stages scale near-linearly because each item owns
//! its trace simulator or EM fit outright.

use std::hint::black_box;

use advhunter::offline::collect_template;
use advhunter::{Detector, DetectorConfig, ExecOptions, OfflineTemplate, Parallelism};
use advhunter_bench::bench_function;
use advhunter_data::Dataset;
use advhunter_exec::TraceEngine;
use advhunter_nn::{Graph, GraphBuilder};
use advhunter_tensor::init;
use advhunter_uarch::{HpcEvent, HpcSample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn toy_setup() -> (Graph, TraceEngine, Dataset) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut b = GraphBuilder::new(&[1, 8, 8]);
    let input = b.input();
    let c1 = b.conv2d("c1", input, 8, 3, 1, 1, &mut rng);
    let r1 = b.relu("r1", c1);
    let c2 = b.conv2d("c2", r1, 8, 3, 1, 1, &mut rng);
    let r2 = b.relu("r2", c2);
    let g = b.global_avgpool("g", r2);
    b.linear("fc", g, 2, &mut rng);
    let model = b.build();
    let engine = TraceEngine::new(&model);
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for i in 0..32 {
        images.push(init::uniform(&mut rng, &[1, 8, 8], 0.0, 1.0));
        labels.push(i % 2);
    }
    (model, engine, Dataset::new("scaling", images, labels, 2))
}

fn synthetic_template(classes: usize, samples_per_class: usize) -> OfflineTemplate {
    let mut rng = StdRng::seed_from_u64(1);
    let per_class = (0..classes)
        .map(|c| {
            (0..samples_per_class)
                .map(|_| {
                    let mut s = HpcSample::default();
                    s.set(
                        HpcEvent::CacheMisses,
                        10_000.0 + c as f64 * 1_000.0 + rng.gen_range(-250.0..250.0),
                    );
                    s.set(
                        HpcEvent::Instructions,
                        1e6 + c as f64 * 1e4 + rng.gen_range(-4e3..4e3),
                    );
                    s.set(HpcEvent::Branches, 2e5 + rng.gen_range(-1e3..1e3));
                    s
                })
                .collect()
        })
        .collect();
    OfflineTemplate::from_samples(per_class)
}

/// Offline stage 1: per-image instrumented traces over the worker pool.
fn bench_collect_template() {
    let (model, engine, ds) = toy_setup();
    for threads in THREAD_COUNTS {
        let opts = ExecOptions::seeded(7).with_threads(threads);
        bench_function(&format!("offline/collect_template/{threads}t"), || {
            collect_template(&engine, &model, black_box(&ds), None, &opts)
        });
    }
}

/// Offline stage 2: the per-(class, event) GMM bank fit.
fn bench_fit_gmm_bank() {
    let template = synthetic_template(10, 60);
    let config = DetectorConfig::default();
    for threads in THREAD_COUNTS {
        let opts = ExecOptions::seeded(7).with_threads(threads);
        bench_function(&format!("offline/fit_gmm_bank/{threads}t"), || {
            Detector::fit(black_box(&template), &config, &opts).unwrap()
        });
    }
}

/// Online phase: batched NLL scoring of many queries.
fn bench_score_batch() {
    let template = synthetic_template(10, 60);
    let detector = Detector::fit(
        &template,
        &DetectorConfig::default(),
        &ExecOptions::sequential(7),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let queries: Vec<(usize, HpcSample)> = (0..8_192)
        .map(|i| {
            let mut s = HpcSample::default();
            s.set(
                HpcEvent::CacheMisses,
                9_000.0 + rng.gen_range(0.0..12_000.0),
            );
            (i % 10, s)
        })
        .collect();
    for threads in THREAD_COUNTS {
        let parallelism = Parallelism::new(threads);
        bench_function(&format!("online/score_batch_8k/{threads}t"), || {
            detector.score_batch(black_box(&queries), HpcEvent::CacheMisses, &parallelism)
        });
    }
}

/// Raw batched measurement throughput (trace simulation dominated).
fn bench_measure_batch() {
    let (model, engine, ds) = toy_setup();
    let images = &ds.images()[..16];
    for threads in THREAD_COUNTS {
        let parallelism = Parallelism::new(threads);
        bench_function(&format!("exec/measure_batch_16/{threads}t"), || {
            engine.measure_batch(&model, black_box(images), 7, &parallelism)
        });
    }
}

fn main() {
    bench_collect_template();
    bench_fit_gmm_bank();
    bench_score_batch();
    bench_measure_batch();
}
