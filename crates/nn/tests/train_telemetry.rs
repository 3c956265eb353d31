//! The training spans `fit` records in the global telemetry registry.
//!
//! One `fit` must record its forward runs, backward shard runs, parameter
//! tasks and optimizer steps, and allocate its image shards exactly once,
//! a ragged last batch included. The registry is process-wide, so this
//! binary holds a single test.

use advhunter_nn::train::{fit, TrainConfig};
use advhunter_nn::GraphBuilder;
use advhunter_runtime::Parallelism;
use advhunter_tensor::init;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SPANS: [&str; 5] = [
    "advhunter_train_forward_ns",
    "advhunter_train_backward_ns",
    "advhunter_train_param_tasks_ns",
    "advhunter_train_optimizer_ns",
    "advhunter_train_shard_alloc_ns",
];

fn counts() -> [u64; 5] {
    let snapshot = advhunter_telemetry::global().snapshot();
    SPANS.map(|name| snapshot.histogram(name).map_or(0, |h| h.count))
}

#[test]
fn one_fit_records_every_span_and_allocates_its_shards_once() {
    advhunter_telemetry::enable();
    let mut rng = StdRng::seed_from_u64(5);
    let mut b = GraphBuilder::new(&[2, 6, 6]);
    let input = b.input();
    let c = b.conv2d("conv", input, 4, 3, 1, 1, &mut rng);
    let bn = b.batchnorm("bn", c);
    let a = b.silu("act", bn);
    let g = b.global_avgpool("gap", a);
    b.linear("fc", g, 2, &mut rng);
    let mut graph = b.build();
    let images: Vec<_> = (0..24)
        .map(|_| init::normal(&mut rng, &[2, 6, 6], 0.0, 1.0))
        .collect();
    let labels: Vec<usize> = (0..24).map(|i| i % 2).collect();
    // Two epochs of three steps, the last step of each a ragged 4 images.
    let config = TrainConfig {
        epochs: 2,
        batch_size: 10,
        ..TrainConfig::default()
    };
    let steps = 6;
    let before = counts();
    fit(
        &mut graph,
        &images,
        &labels,
        &config,
        &Parallelism::new(2),
        &mut rng,
    );
    let after = counts();
    let recorded: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let [forward, backward, params, optimizer, alloc] = recorded[..] else {
        unreachable!("five spans");
    };
    assert_eq!(alloc, 1, "shard allocations in one fit");
    assert_eq!(forward, steps, "forward passes");
    assert_eq!(optimizer, steps, "optimizer steps");
    assert!(backward >= steps, "{backward} backward shard runs");
    assert!(params >= steps, "{params} parameter-task runs");
}
