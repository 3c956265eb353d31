//! How many helper threads training spawns.
//!
//! `advhunter_runtime_workers_total` counts every helper thread any crew
//! spawns in the process, so this binary holds a single test: no other test
//! can spawn crews while it counts. Training a tiny graph for a known
//! number of optimizer steps on two workers may spawn at most one helper per
//! step; a per-kernel fan-out coming back inside training spawns one per
//! kernel call and fails it.

use advhunter_nn::train::{fit, TrainConfig};
use advhunter_nn::GraphBuilder;
use advhunter_runtime::Parallelism;
use advhunter_tensor::init;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn training_spawns_at_most_one_helper_per_step() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut b = GraphBuilder::new(&[2, 8, 8]);
    let input = b.input();
    let c = b.conv2d("conv", input, 4, 3, 1, 1, &mut rng);
    let bn = b.batchnorm("bn", c);
    let a = b.silu("act", bn);
    let d = b.dwconv2d("dw", a, 3, 1, 1, &mut rng);
    let g = b.global_avgpool("gap", d);
    b.linear("fc", g, 2, &mut rng);
    let mut graph = b.build();
    let images: Vec<_> = (0..24)
        .map(|_| init::normal(&mut rng, &[2, 8, 8], 0.0, 1.0))
        .collect();
    let labels: Vec<usize> = (0..24).map(|i| i % 2).collect();
    // Three epochs of three steps, the last step of each ragged.
    let config = TrainConfig {
        epochs: 3,
        batch_size: 10,
        ..TrainConfig::default()
    };
    let steps = 9;
    let helpers = || {
        advhunter_telemetry::global()
            .snapshot()
            .counter("advhunter_runtime_workers_total")
            .unwrap_or(0)
    };
    let before = helpers();
    fit(
        &mut graph,
        &images,
        &labels,
        &config,
        &Parallelism::new(2),
        &mut rng,
    );
    let spawned = helpers() - before;
    assert!(
        spawned <= steps,
        "{spawned} helper threads for {steps} optimizer steps"
    );
    if Parallelism::new(2).crew_members() > 1 {
        assert!(spawned > 0, "the counter saw no helper at all");
    }
}
