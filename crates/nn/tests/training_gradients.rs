//! The training step against the one-batch reference pass, at every
//! shard count.
//!
//! `train::step` (the step `fit` takes) runs a batch on image shards, one
//! per crew member, and computes no gradient with respect to the images:
//! it skips nodes upstream of every parameter, and a convolution, depthwise
//! convolution, linear layer or batch norm on the graph input computes only
//! its parameter gradients. Its loss, every parameter gradient and the
//! batch-norm running statistics must still be bit-for-bit those of the
//! reference pass (`Graph::forward` in train mode, `Graph::backward`,
//! `Graph::update_running_stats`) at one to four workers, over ragged
//! batches of 5 and 7 images, and `train::logits` must equal
//! `Graph::logits` row for row. The graphs start with a convolution, a
//! parameter-free op, a linear layer on the flattened input, a depthwise
//! convolution and a batch norm; one shares its input with a residual sum,
//! and one is an S1 block, with linear layers between batch norms. A
//! batch norm whose only reader is the SiLU after it runs fused with it;
//! two graphs pin the unfused paths beside a fused pair: a batch norm that
//! a SiLU and a residual sum both read, and a SiLU after a linear layer.
//!
//! `fit` takes each Adam step on the crew, a task per block of a linear
//! layer's weight rows and one per other node: over a few epochs with a
//! ragged last batch, its trained parameters and running statistics must
//! be bit-for-bit those of the reference pass followed by `Adam::step`,
//! with linear layers whose rows fill neither whole blocks nor whole
//! panels.
//!
//! The shard count is min(crew members, batch), and crews never run more
//! members than cores unless `ADVHUNTER_OVERSUBSCRIBE=1`: CI runs this
//! file with it set, so that three and four shards really run.

use advhunter_nn::train::{fit, logits, step, Adam, TrainConfig};
use advhunter_nn::{Graph, GraphBuilder, Mode};
use advhunter_runtime::Parallelism;
use advhunter_tensor::ops::cross_entropy_with_logits;
use advhunter_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// CaseStudy in miniature: two conv/ReLU blocks, max pool, two linear
/// layers, a convolution on the input.
fn conv_first(rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::new(&[3, 10, 10]);
    let input = b.input();
    let c1 = b.conv2d("conv1", input, 6, 3, 1, 1, rng);
    let a1 = b.relu("act1", c1);
    let c2 = b.conv2d("conv2", a1, 8, 3, 1, 1, rng);
    let bn = b.batchnorm("bn", c2);
    let a2 = b.relu("act2", bn);
    let p = b.maxpool("pool", a2, 2, 2);
    let f = b.flatten("flatten", p);
    let h = b.linear("fc1", f, 12, rng);
    let a3 = b.relu("act3", h);
    b.linear("fc2", a3, 4, rng);
    b.build()
}

/// A parameter-free node on the input, then a strided convolution.
fn pool_first(rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::new(&[2, 9, 9]);
    let input = b.input();
    let p = b.maxpool("pool", input, 2, 1);
    let c = b.conv2d("conv", p, 5, 3, 2, 1, rng);
    let g = b.global_avgpool("gap", c);
    b.linear("fc", g, 3, rng);
    b.build()
}

/// A linear layer on the flattened input.
fn linear_first(rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::new(&[1, 5, 5]);
    let input = b.input();
    let f = b.flatten("flatten", input);
    let h = b.linear("fc1", f, 7, rng);
    let a = b.silu("act", h);
    b.linear("fc2", a, 3, rng);
    b.build()
}

/// The input feeds a convolution and a residual sum with its output.
fn residual_input(rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::new(&[4, 6, 6]);
    let input = b.input();
    let c = b.conv2d("conv", input, 4, 3, 1, 1, rng);
    let s = b.add("skip", input, c);
    let d = b.dwconv2d("dw", s, 3, 1, 1, rng);
    let g = b.global_avgpool("gap", d);
    b.linear("fc", g, 5, rng);
    b.build()
}

/// A depthwise convolution on the input, at stride 2.
fn depthwise_first(rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::new(&[4, 9, 9]);
    let input = b.input();
    let d = b.dwconv2d("dw", input, 3, 2, 1, rng);
    let bn = b.batchnorm("bn", d);
    let a = b.relu("act", bn);
    let f = b.flatten("flatten", a);
    b.linear("fc", f, 3, rng);
    b.build()
}

/// A batch norm on the input, and one more between a convolution and an
/// activation.
fn batchnorm_first(rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::new(&[3, 6, 6]);
    let input = b.input();
    let bn = b.batchnorm("bn", input);
    let c = b.conv2d("conv", bn, 4, 3, 1, 1, rng);
    let bn2 = b.batchnorm("bn2", c);
    let a = b.silu("act", bn2);
    let g = b.global_avgpool("gap", a);
    b.linear("fc", g, 3, rng);
    b.build()
}

/// An S1 block in miniature: batch norms with a squeeze-and-excitation
/// branch of linear layers between them, and a residual sum.
fn squeeze_excite(rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::new(&[3, 8, 8]);
    let input = b.input();
    let c = b.conv2d("stem", input, 8, 3, 1, 1, rng);
    let bn = b.batchnorm("stem.bn", c);
    let a = b.silu("stem.act", bn);
    let d = b.dwconv2d("dw", a, 3, 2, 1, rng);
    let bn2 = b.batchnorm("dw.bn", d);
    let a2 = b.silu("dw.act", bn2);
    let gap = b.global_avgpool("se.gap", a2);
    let fc1 = b.linear("se.fc1", gap, 4, rng);
    let act = b.silu("se.act", fc1);
    let fc2 = b.linear("se.fc2", act, 8, rng);
    let gate = b.sigmoid("se.gate", fc2);
    let scaled = b.scale_channels("se.scale", a2, gate);
    let p = b.conv2d("project", scaled, 8, 1, 1, 0, rng);
    let bn3 = b.batchnorm("project.bn", p);
    let skip = b.add("skip", bn3, a2);
    let f = b.flatten("flatten", skip);
    b.linear("fc", f, 3, rng);
    b.build()
}

/// Linear layers wider than a weight block, whose 37 rows are neither
/// whole blocks (16 rows) nor whole panels (8 rows), after a convolution
/// and a batch norm.
fn wide_linear(rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::new(&[2, 5, 5]);
    let input = b.input();
    let c = b.conv2d("conv", input, 3, 3, 1, 1, rng);
    let bn = b.batchnorm("bn", c);
    let a = b.silu("act", bn);
    let f = b.flatten("flatten", a);
    let h = b.linear("fc1", f, 37, rng);
    let a2 = b.silu("act2", h);
    b.linear("fc2", a2, 3, rng);
    b.build()
}

/// A batch norm read by its SiLU and by a residual sum, so the pair is
/// not fused, beside a batch norm whose SiLU is its only reader.
fn batchnorm_two_readers(rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::new(&[3, 6, 6]);
    let input = b.input();
    let c = b.conv2d("conv", input, 4, 3, 1, 1, rng);
    let bn = b.batchnorm("bn", c);
    let a = b.silu("act", bn);
    let s = b.add("skip", bn, a);
    let c2 = b.conv2d("conv2", s, 4, 1, 1, 0, rng);
    let bn2 = b.batchnorm("bn2", c2);
    let a2 = b.silu("act2", bn2);
    let g = b.global_avgpool("gap", a2);
    b.linear("fc", g, 3, rng);
    b.build()
}

/// A SiLU after a linear layer, beside a batch norm paired with its SiLU.
fn linear_silu(rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::new(&[2, 6, 6]);
    let input = b.input();
    let c = b.conv2d("conv", input, 4, 3, 2, 1, rng);
    let bn = b.batchnorm("bn", c);
    let a = b.silu("act", bn);
    let g = b.global_avgpool("gap", a);
    let h = b.linear("fc1", g, 6, rng);
    let a2 = b.silu("act2", h);
    b.linear("fc2", a2, 3, rng);
    b.build()
}

type Build = fn(&mut StdRng) -> Graph;

const GRAPHS: [(&str, Build); 9] = [
    ("conv_first", conv_first),
    ("pool_first", pool_first),
    ("linear_first", linear_first),
    ("residual_input", residual_input),
    ("depthwise_first", depthwise_first),
    ("batchnorm_first", batchnorm_first),
    ("squeeze_excite", squeeze_excite),
    ("batchnorm_two_readers", batchnorm_two_readers),
    ("linear_silu", linear_silu),
];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn images(graph: &Graph, n: usize, rng: &mut StdRng) -> Vec<Tensor> {
    (0..n)
        .map(|_| init::normal(rng, graph.input_dims(), 0.0, 1.0))
        .collect()
}

#[test]
fn training_step_matches_the_reference_at_every_shard_count() {
    for (seed, (name, build)) in GRAPHS.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed as u64 + 40);
        let graph = build(&mut rng);
        let classes = graph.single_image_shapes().last().expect("nodes")[0];
        for batch in [5, 7] {
            let imgs = images(&graph, batch, &mut rng);
            let labels: Vec<usize> = (0..batch).map(|i| i % classes).collect();

            let mut reference = graph.clone();
            let trace = reference.forward(&Tensor::stack(&imgs), Mode::Train);
            let (want_loss, dlogits) = cross_entropy_with_logits(trace.output(), &labels);
            let want = reference.backward(&trace, &dlogits).params;
            reference.update_running_stats(&trace);

            for threads in 1..=4 {
                let at = format!("{name}, batch {batch}, {threads} workers");
                let mut stepped = graph.clone();
                let (loss, got) = step(&mut stepped, &imgs, &labels, &Parallelism::new(threads));
                assert_eq!(loss.to_bits(), want_loss.to_bits(), "loss, {at}");
                assert_eq!(got.len(), want.len(), "{at}");
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    let (g, w) = match (g, w) {
                        (Some(g), Some(w)) => (g, w),
                        (None, None) => continue,
                        _ => panic!("node {i}: parameter gradient presence differs, {at}"),
                    };
                    assert_eq!(bits(&g.weight), bits(&w.weight), "node {i} weight, {at}");
                    assert_eq!(bits(&g.bias), bits(&w.bias), "node {i} bias, {at}");
                }
                let stats = |g: &Graph| {
                    g.running_stat_tensors()
                        .into_iter()
                        .flat_map(bits)
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    stats(&stepped),
                    stats(&reference),
                    "running statistics, {at}"
                );
            }
        }
    }
}

/// Several evaluation batches, the last ragged.
#[test]
fn sharded_logits_match_graph_logits() {
    for (seed, (name, build)) in GRAPHS.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed as u64 + 60);
        let graph = build(&mut rng);
        let imgs = images(&graph, 70, &mut rng);
        let want = graph.logits(&Tensor::stack(&imgs));
        for threads in 1..=4 {
            let got = logits(&graph, &imgs, &Parallelism::new(threads));
            assert_eq!(bits(&got), bits(&want), "{name}, {threads} workers");
        }
    }
}

/// Two epochs of 12 images in batches of 5 (the last of each epoch holds
/// 2): `fit` against the same shuffles run through the reference pass and
/// `Adam::step`, with the learning rate decayed between epochs.
#[test]
fn fit_updates_every_parameter_as_adam_step_does() {
    let graphs: [(&str, Build); 3] = [
        ("wide_linear", wide_linear),
        ("conv_first", conv_first),
        ("squeeze_excite", squeeze_excite),
    ];
    let config = TrainConfig {
        epochs: 2,
        batch_size: 5,
        learning_rate: 0.01,
        lr_decay: 0.5,
    };
    for (seed, (name, build)) in graphs.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed as u64 + 80);
        let graph = build(&mut rng);
        let classes = graph.single_image_shapes().last().expect("nodes")[0];
        let imgs = images(&graph, 12, &mut rng);
        let labels: Vec<usize> = (0..imgs.len()).map(|i| i % classes).collect();

        let mut reference = graph.clone();
        let mut opt = Adam::new(config.learning_rate);
        let mut order: Vec<usize> = (0..imgs.len()).collect();
        let mut shuffle = StdRng::seed_from_u64(7);
        for _ in 0..config.epochs {
            order.shuffle(&mut shuffle);
            for chunk in order.chunks(config.batch_size) {
                let batch: Vec<Tensor> = chunk.iter().map(|&i| imgs[i].clone()).collect();
                let batch_labels: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                let trace = reference.forward(&Tensor::stack(&batch), Mode::Train);
                let (_, dlogits) = cross_entropy_with_logits(trace.output(), &batch_labels);
                let grads = reference.backward(&trace, &dlogits);
                reference.update_running_stats(&trace);
                opt.step(&mut reference.param_tensors_mut(), &grads.flat());
            }
            opt.set_learning_rate(opt.learning_rate() * config.lr_decay);
        }

        let state = |g: &Graph| {
            let params = g.param_tensors();
            let tensors = params.iter().map(|t| &**t).chain(g.running_stat_tensors());
            tensors.map(bits).collect::<Vec<_>>()
        };
        for threads in 1..=4 {
            let mut trained = graph.clone();
            let par = Parallelism::new(threads);
            let mut shuffle = StdRng::seed_from_u64(7);
            fit(&mut trained, &imgs, &labels, &config, &par, &mut shuffle);
            assert_eq!(
                state(&trained),
                state(&reference),
                "{name}, {threads} workers"
            );
        }
    }
}
