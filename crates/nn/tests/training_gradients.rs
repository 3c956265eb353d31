//! The training step's parameter gradients against the full backward pass.
//!
//! `fit` differentiates with `Graph::param_gradients`, which computes no
//! gradient with respect to the images: it skips nodes upstream of every
//! parameter and a convolution on the graph input computes only its filter
//! and bias gradients. Every parameter gradient must still be bit-for-bit
//! what `Graph::backward_with` (the attacks' pass, input gradient included)
//! returns, at one, two and three workers, over graphs whose first node is
//! a convolution, a parameter-free op, a linear layer on the flattened
//! input, and an input shared by a residual sum.

use advhunter_nn::{Graph, GraphBuilder, MatKernels, Mode};
use advhunter_runtime::Parallelism;
use advhunter_tensor::ops::{cross_entropy_with_logits, KernelVariant};
use advhunter_tensor::{init, Tensor};
use rand::rngs::StdRng;
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

type Build = fn(&mut StdRng) -> Graph;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn training_step_param_gradients_match_backward_with() {
    let builders: [(&str, Build); 4] = [
        ("conv_first", conv_first),
        ("pool_first", pool_first),
        ("linear_first", linear_first),
        ("residual_input", residual_input),
    ];
    for (seed, (name, build)) in builders.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed as u64 + 40);
        let graph = build(&mut rng);
        let mut dims = vec![5];
        dims.extend_from_slice(graph.input_dims());
        let x = init::normal(&mut rng, &dims, 0.0, 1.0);
        let classes = graph.single_image_shapes().last().expect("nodes")[0];
        let labels: Vec<usize> = (0..5).map(|i| i % classes).collect();
        let kernels = MatKernels::pack_with(&graph, &mut |_| KernelVariant::TRAINING);
        for threads in [1, 2, 3] {
            let par = Parallelism::new(threads);
            let trace =
                graph.forward_packed(x.clone(), Mode::Train, &kernels, &par, graph.workspace(5));
            let (_, dlogits) = cross_entropy_with_logits(trace.output(), &labels);
            let want = graph.backward_with(&trace, &dlogits, &par);
            let got = graph.param_gradients(&trace, &dlogits, &par);
            assert_eq!(got.len(), want.params.len(), "{name}");
            for (i, (g, w)) in got.iter().zip(&want.params).enumerate() {
                match (g, w) {
                    (None, None) => {}
                    (Some(g), Some(w)) => {
                        let at = format!("{name} node {i}, {threads} workers");
                        assert_eq!(bits(&g.weight), bits(&w.weight), "weight, {at}");
                        assert_eq!(bits(&g.bias), bits(&w.bias), "bias, {at}");
                    }
                    _ => panic!("{name} node {i}: parameter gradient presence differs"),
                }
            }
            let sequential = graph.backward(&trace, &dlogits);
            assert_eq!(
                bits(&want.input),
                bits(&sequential.input),
                "{name} input gradient, {threads} workers"
            );
        }
    }
}
