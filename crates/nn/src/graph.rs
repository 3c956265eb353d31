//! The computation graph: ops, forward traces, and backpropagation.

use std::borrow::Cow;
use std::ops::Range;

use advhunter_tensor::ops::{
    avgpool2d_backward_into, conv2d_input_grad_into, conv2d_sum_partials, conv2d_weight_partials,
    dwconv2d_input_grad_into, dwconv2d_param_grads, global_avgpool_backward_into,
    leaky_relu_backward_into, linear_bias_grad, linear_input_grad_into, linear_weight_grad_rows,
    maxpool2d_backward_into, relu_backward_into, sigmoid_backward_into,
    silu_backward_from_sigmoid_into, silu_backward_into, silu_sigmoid_of_into, tanh_backward_into,
    Conv2dScratch, Conv2dSpec, MaxPoolIndices,
};
use advhunter_tensor::{init, Tensor};
use rand::Rng;

use crate::{MatWeight, Workspace};

/// Whether a forward pass runs with batch statistics (training) or running
/// statistics (inference).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Batch-norm uses batch statistics and the trace retains what backward
    /// needs for parameter gradients.
    Train,
    /// Batch-norm uses running statistics; this is the deployment path the
    /// defender observes and the one adversarial attacks differentiate.
    Eval,
}

/// A standard convolution layer's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2dLayer {
    /// Geometry.
    pub spec: Conv2dSpec,
    /// `[out_c, in_c * k * k]`.
    pub weight: MatWeight,
    /// `[out_c]`.
    pub bias: Tensor,
}

/// A depthwise convolution layer's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DwConv2dLayer {
    /// Geometry (`in_channels == out_channels`).
    pub spec: Conv2dSpec,
    /// `[c, k * k]`.
    pub weight: Tensor,
    /// `[c]`.
    pub bias: Tensor,
}

/// A fully-connected layer's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearLayer {
    /// `[out_features, in_features]`.
    pub weight: MatWeight,
    /// `[out_features]`.
    pub bias: Tensor,
}

/// Batch normalization over the channel dimension of NCHW tensors.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNorm2d {
    /// Scale γ, `[c]`.
    pub gamma: Tensor,
    /// Shift β, `[c]`.
    pub beta: Tensor,
    /// Running mean, `[c]`.
    pub running_mean: Tensor,
    /// Running variance, `[c]`.
    pub running_var: Tensor,
    /// Exponential-moving-average momentum for the running statistics.
    pub momentum: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl BatchNorm2d {
    /// Fresh batch norm for `c` channels (γ=1, β=0, running stats at N(0,1)).
    pub fn new(c: usize) -> Self {
        Self {
            gamma: Tensor::ones(&[c]),
            beta: Tensor::zeros(&[c]),
            running_mean: Tensor::zeros(&[c]),
            running_var: Tensor::ones(&[c]),
            momentum: 0.1,
            eps: 1e-5,
        }
    }
}

/// One operation in the graph.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Standard 2-D convolution.
    Conv2d(Conv2dLayer),
    /// Depthwise 2-D convolution.
    DwConv2d(DwConv2dLayer),
    /// Fully-connected layer on `[n, features]`.
    Linear(LinearLayer),
    /// Batch normalization on `[n, c, h, w]`.
    BatchNorm2d(BatchNorm2d),
    /// ReLU activation.
    ReLU,
    /// Leaky ReLU activation with negative slope `alpha`.
    LeakyReLU {
        /// Negative-side slope.
        alpha: f32,
    },
    /// SiLU (swish) activation.
    SiLU,
    /// Logistic sigmoid activation.
    Sigmoid,
    /// Hyperbolic tangent activation.
    Tanh,
    /// Max pooling with window `k`, stride `s`.
    MaxPool2d {
        /// Window side.
        k: usize,
        /// Stride.
        s: usize,
    },
    /// Average pooling with window `k`, stride `s`.
    AvgPool2d {
        /// Window side.
        k: usize,
        /// Stride.
        s: usize,
    },
    /// Global average pooling `[n,c,h,w] -> [n,c]`.
    GlobalAvgPool,
    /// Flatten `[n,c,h,w] -> [n, c*h*w]`.
    Flatten,
    /// Elementwise sum of two same-shape tensors (residual connection).
    Add,
    /// Channel-dimension concatenation of two NCHW tensors (dense block).
    ConcatChannels,
    /// Per-channel scaling: `[n,c,h,w] * [n,c]` (squeeze-and-excitation).
    ScaleChannels,
}

impl Op {
    /// Number of inputs the op consumes.
    pub fn arity(&self) -> usize {
        match self {
            Op::Add | Op::ConcatChannels | Op::ScaleChannels => 2,
            _ => 1,
        }
    }

    /// Whether the op is an activation function (used by the Figure 1
    /// neuron-activation analysis).
    pub fn is_activation(&self) -> bool {
        matches!(
            self,
            Op::ReLU | Op::LeakyReLU { .. } | Op::SiLU | Op::Sigmoid | Op::Tanh
        )
    }

    /// The op's trainable parameters: weight and bias, or γ and β. A
    /// matrix weight held as panels is unpacked (see [`MatWeight`]).
    pub(crate) fn params(&self) -> Option<[Cow<'_, Tensor>; 2]> {
        match self {
            Op::Conv2d(l) => Some([l.weight.tensor(), Cow::Borrowed(&l.bias)]),
            Op::DwConv2d(l) => Some([Cow::Borrowed(&l.weight), Cow::Borrowed(&l.bias)]),
            Op::Linear(l) => Some([l.weight.tensor(), Cow::Borrowed(&l.bias)]),
            Op::BatchNorm2d(bn) => Some([Cow::Borrowed(&bn.gamma), Cow::Borrowed(&bn.beta)]),
            _ => None,
        }
    }

    /// The element counts of [`Op::params`], without unpacking anything.
    pub(crate) fn param_lens(&self) -> Option<[usize; 2]> {
        match self {
            Op::Conv2d(l) => Some([l.weight.len(), l.bias.len()]),
            Op::DwConv2d(l) => Some([l.weight.len(), l.bias.len()]),
            Op::Linear(l) => Some([l.weight.len(), l.bias.len()]),
            Op::BatchNorm2d(bn) => Some([bn.gamma.len(), bn.beta.len()]),
            _ => None,
        }
    }

    /// [`Op::params`], mutably: a matrix weight held as panels becomes
    /// row-major.
    pub(crate) fn params_mut(&mut self) -> Option<[&mut Tensor; 2]> {
        match self {
            Op::Conv2d(l) => Some([l.weight.tensor_mut(), &mut l.bias]),
            Op::DwConv2d(l) => Some([&mut l.weight, &mut l.bias]),
            Op::Linear(l) => Some([l.weight.tensor_mut(), &mut l.bias]),
            Op::BatchNorm2d(bn) => Some([&mut bn.gamma, &mut bn.beta]),
            _ => None,
        }
    }
}

/// Where a node reads its input from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// The graph input image batch.
    Input,
    /// The output of an earlier node.
    Node(usize),
}

/// One node: an op applied to earlier outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Human-readable name (stable; used for reporting and tracing).
    pub name: String,
    /// The operation.
    pub op: Op,
    /// Inputs, in op order.
    pub inputs: Vec<Src>,
}

/// Per-node auxiliary state captured by the forward pass for backward.
#[derive(Debug, Clone)]
pub enum Aux {
    /// Nothing needed.
    None,
    /// Max-pool winner indices.
    MaxPool(MaxPoolIndices),
    /// Batch-norm cache: per-channel batch mean and batch variance (train
    /// mode only). Backward recomputes the normalized activations `x̂`
    /// from them and the node's input, with the forward pass's expression,
    /// so they need not be kept.
    BatchNorm {
        /// Batch mean per channel.
        mean: Vec<f32>,
        /// Batch (biased) variance per channel.
        var: Vec<f32>,
    },
}

/// Everything the forward pass computed: one output tensor per node plus the
/// auxiliary state backward needs, held in the [`Workspace`] the pass ran
/// in.
#[derive(Debug, Clone)]
pub struct ForwardTrace {
    input: Tensor,
    ws: Workspace,
    mode: Mode,
}

impl ForwardTrace {
    /// The graph input this trace was computed from.
    pub fn input(&self) -> &Tensor {
        &self.input
    }

    /// The output of node `i`.
    pub fn node_output(&self, i: usize) -> &Tensor {
        self.ws.node_output(i)
    }

    /// The final output (last node).
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty.
    pub fn output(&self) -> &Tensor {
        self.ws.output()
    }

    /// The mode the trace was computed in.
    pub fn mode(&self) -> Mode {
        self.mode
    }
}

/// Gradient of a node's parameters: `(weight, bias)` or `(gamma, beta)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamGrad {
    /// Gradient of the primary parameter (weight / γ).
    pub weight: Tensor,
    /// Gradient of the secondary parameter (bias / β).
    pub bias: Tensor,
}

/// The full result of a backward pass.
#[derive(Debug, Clone)]
pub struct Gradients {
    /// Gradient with respect to the graph input (what attacks consume).
    pub input: Tensor,
    /// Per-node parameter gradients (`None` for parameter-free ops).
    pub params: Vec<Option<ParamGrad>>,
}

impl Gradients {
    /// Flattens per-node parameter gradients in the same order as
    /// [`Graph::param_tensors_mut`]: for each parameterized node, weight
    /// then bias.
    pub fn flat(&self) -> Vec<&Tensor> {
        self.params
            .iter()
            .flatten()
            .flat_map(|pg| [&pg.weight, &pg.bias])
            .collect()
    }
}

/// A directed acyclic computation graph over NCHW image batches.
///
/// Nodes are stored in topological order (enforced by [`GraphBuilder`]); the
/// last node's output is the model output.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    nodes: Vec<Node>,
    input_dims: Vec<usize>,
}

impl Graph {
    /// The nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The expected CHW shape of a single input image.
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    /// Runs the graph on an NCHW batch (or a single CHW image, treated as a
    /// batch of one), retaining every intermediate output.
    ///
    /// This is a convenience wrapper that builds a fresh [`Workspace`] sized
    /// for `x` and runs [`Graph::forward_with`]; hot paths that call the
    /// graph repeatedly should hold onto a workspace instead.
    ///
    /// [`Workspace`]: crate::Workspace
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent (programming error in the model
    /// definition).
    pub fn forward(&self, x: &Tensor, mode: Mode) -> ForwardTrace {
        let dims = x.shape().dims();
        let (batch, chw): (usize, &[usize]) = match dims.len() {
            3 => (1, dims),
            4 => (dims[0], &dims[1..]),
            _ => panic!("graph input must be NCHW or CHW, got {:?}", x.shape()),
        };
        let mut ws = self.workspace_for(batch, chw);
        self.forward_with(x, mode, &mut ws);
        ForwardTrace {
            input: x.clone(),
            ws,
            mode,
        }
    }

    /// Convenience: class logits for a batch (eval mode).
    pub fn logits(&self, x: &Tensor) -> Tensor {
        self.forward(x, Mode::Eval).output().clone()
    }

    /// Convenience: predicted class per image in the batch (eval mode).
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        argmax_rows(&self.logits(x)).collect()
    }

    /// Backpropagates `grad_output` through the trace.
    ///
    /// Returns gradients for the input batch and for every parameter. Uses
    /// the trace's mode: in [`Mode::Eval`] batch-norm differentiates through
    /// its running statistics (the correct linearization of the deployed
    /// network, which is what attacks need).
    ///
    /// This is the reference pass, one node after another on the calling
    /// thread. A training step computes the same parameter gradients, bit
    /// for bit, on image shards (see [`crate::train::fit`]).
    ///
    /// # Panics
    ///
    /// Panics if `grad_output`'s shape differs from the trace's final output.
    pub fn backward(&self, trace: &ForwardTrace, grad_output: &Tensor) -> Gradients {
        self.backward_impl(trace, grad_output, true)
    }

    /// The input gradient of [`Graph::backward`] alone, bit for bit: the
    /// same pass, computing no parameter gradient but the batch sums a
    /// train-mode batch norm's input gradient needs. What attacks use.
    ///
    /// # Panics
    ///
    /// Panics if `grad_output`'s shape differs from the trace's final output.
    pub fn input_gradient(&self, trace: &ForwardTrace, grad_output: &Tensor) -> Tensor {
        self.backward_impl(trace, grad_output, false).input
    }

    fn backward_impl(
        &self,
        trace: &ForwardTrace,
        grad_output: &Tensor,
        with_params: bool,
    ) -> Gradients {
        assert_eq!(
            grad_output.shape(),
            trace.output().shape(),
            "grad_output shape mismatch"
        );
        let n_nodes = self.nodes.len();
        let mut node_grads: Vec<Option<Tensor>> = vec![None; n_nodes];
        let mut input = None;
        node_grads[n_nodes - 1] = Some(grad_output.clone());
        let mut params: Vec<Option<ParamGrad>> = vec![None; n_nodes];

        for i in (0..n_nodes).rev() {
            let Some(gout) = node_grads[i].take() else {
                continue;
            };
            let node = &self.nodes[i];
            let ins: Vec<&Tensor> = node
                .inputs
                .iter()
                .map(|src| match src {
                    Src::Input => &trace.input,
                    Src::Node(j) => &trace.ws.outputs[*j],
                })
                .collect();
            let mut grad = OpGrad {
                op: &node.op,
                ins: &ins,
                output: &trace.ws.outputs[i],
                aux: &trace.ws.aux[i],
                gout: &gout,
                mode: trace.mode,
                bn_sums: None,
            };
            let batch_norm = matches!(grad.aux, Aux::BatchNorm { .. });
            if with_params || batch_norm {
                params[i] = grad.param_grads();
            }
            if let (Some(pg), true) = (&params[i], batch_norm) {
                let (n, _, h, w) = ins[0].shape().as_nchw();
                grad.bn_sums = Some((pg.weight.data(), pg.bias.data(), (n * h * w) as f32));
            }
            for (k, (src, x)) in node.inputs.iter().zip(&ins).enumerate() {
                let mut g = Tensor::zeros(x.shape().dims());
                grad.input_grad_into(k, &mut g, None);
                match src {
                    Src::Input => accumulate(&mut input, g),
                    Src::Node(j) => accumulate(&mut node_grads[*j], g),
                }
            }
        }
        let input = input.unwrap_or_else(|| Tensor::zeros(trace.input.shape().dims()));
        Gradients { input, params }
    }

    /// Mutable references to every parameter tensor, in node order (weight
    /// before bias / γ before β). This is the order optimizers and the
    /// weight file format use.
    pub fn param_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        self.nodes
            .iter_mut()
            .filter_map(|n| n.op.params_mut())
            .flatten()
            .collect()
    }

    /// Node `i`'s op, mutably.
    pub(crate) fn op_mut(&mut self, i: usize) -> &mut Op {
        &mut self.nodes[i].op
    }

    /// Node `i`'s parameters, mutably (see [`Op::params_mut`]).
    pub(crate) fn node_params_mut(&mut self, i: usize) -> Option<[&mut Tensor; 2]> {
        self.nodes[i].op.params_mut()
    }

    /// Every parameter tensor, in the same order as
    /// [`param_tensors_mut`](Self::param_tensors_mut): borrowed, or
    /// unpacked from a matrix weight held as panels.
    pub fn param_tensors(&self) -> Vec<Cow<'_, Tensor>> {
        self.nodes
            .iter()
            .filter_map(|n| n.op.params())
            .flatten()
            .collect()
    }

    /// Immutable view of the batch-norm running statistics, in the same
    /// order as [`running_stat_tensors_mut`](Self::running_stat_tensors_mut).
    pub fn running_stat_tensors(&self) -> Vec<&Tensor> {
        let mut out: Vec<&Tensor> = Vec::new();
        for node in &self.nodes {
            if let Op::BatchNorm2d(bn) = &node.op {
                out.push(&bn.running_mean);
                out.push(&bn.running_var);
            }
        }
        out
    }

    /// The running-statistic tensors of every batch-norm node, in node
    /// order (mean before variance). Persisted alongside parameters.
    pub fn running_stat_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        let mut out: Vec<&mut Tensor> = Vec::new();
        for node in &mut self.nodes {
            if let Op::BatchNorm2d(bn) = &mut node.op {
                out.push(&mut bn.running_mean);
                out.push(&mut bn.running_var);
            }
        }
        out
    }

    /// Total parameter count.
    pub fn num_parameters(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| n.op.param_lens())
            .flatten()
            .sum()
    }

    /// Per-node output shapes for a single (batchless) image, in node order.
    ///
    /// Used by the instrumented-execution engine to size activation buffers
    /// without running a forward pass.
    pub fn single_image_shapes(&self) -> Vec<Vec<usize>> {
        self.shapes_for(&self.input_dims)
    }

    /// Per-node output shapes (batchless) for an arbitrary CHW input shape.
    pub(crate) fn shapes_for(&self, input_chw: &[usize]) -> Vec<Vec<usize>> {
        let mut shapes: Vec<Vec<usize>> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let ins: Vec<Vec<usize>> = node
                .inputs
                .iter()
                .map(|src| match src {
                    Src::Input => input_chw.to_vec(),
                    Src::Node(i) => shapes[*i].clone(),
                })
                .collect();
            shapes.push(op_output_shape(&node.op, &ins));
        }
        shapes
    }

    /// A human-readable per-layer summary: name, op kind, output shape, and
    /// parameter count — the `model.summary()` every practitioner expects.
    ///
    /// # Example
    ///
    /// ```
    /// use advhunter_nn::GraphBuilder;
    /// use rand::SeedableRng;
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    /// let mut b = GraphBuilder::new(&[1, 4, 4]);
    /// let input = b.input();
    /// let f = b.flatten("flat", input);
    /// b.linear("fc", f, 2, &mut rng);
    /// let g = b.build();
    /// let s = g.summary();
    /// assert!(s.contains("fc"));
    /// assert!(s.contains("total parameters"));
    /// ```
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let shapes = self.single_image_shapes();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:<14} {:<16} {:>12}",
            "layer", "op", "output (CHW)", "params"
        );
        for (node, shape) in self.nodes.iter().zip(shapes.iter()) {
            let params: usize = node.op.param_lens().map_or(0, |[w, b]| w + b);
            let kind = match &node.op {
                Op::Conv2d(_) => "Conv2d",
                Op::DwConv2d(_) => "DwConv2d",
                Op::Linear(_) => "Linear",
                Op::BatchNorm2d(_) => "BatchNorm2d",
                Op::ReLU => "ReLU",
                Op::LeakyReLU { .. } => "LeakyReLU",
                Op::SiLU => "SiLU",
                Op::Sigmoid => "Sigmoid",
                Op::Tanh => "Tanh",
                Op::MaxPool2d { .. } => "MaxPool2d",
                Op::AvgPool2d { .. } => "AvgPool2d",
                Op::GlobalAvgPool => "GlobalAvgPool",
                Op::Flatten => "Flatten",
                Op::Add => "Add",
                Op::ConcatChannels => "Concat",
                Op::ScaleChannels => "ScaleChannels",
            };
            let _ = writeln!(
                out,
                "{:<24} {:<14} {:<16} {:>12}",
                node.name,
                kind,
                format!("{shape:?}"),
                params
            );
        }
        let _ = writeln!(out, "total parameters: {}", self.num_parameters());
        out
    }

    /// Updates every batch-norm running statistic from the batch statistics
    /// recorded in `trace` (call after a train-mode forward pass).
    pub fn update_running_stats(&mut self, trace: &ForwardTrace) {
        self.update_running_stats_from(&trace.ws);
    }

    /// [`Graph::update_running_stats`] from the batch statistics a
    /// train-mode pass left in `ws`.
    pub(crate) fn update_running_stats_from(&mut self, ws: &Workspace) {
        for (node, aux) in self.nodes.iter_mut().zip(ws.aux.iter()) {
            if let (Op::BatchNorm2d(bn), Aux::BatchNorm { mean, var, .. }) = (&mut node.op, aux) {
                let m = bn.momentum;
                for (r, &b) in bn.running_mean.data_mut().iter_mut().zip(mean.iter()) {
                    *r = (1.0 - m) * *r + m * b;
                }
                for (r, &b) in bn.running_var.data_mut().iter_mut().zip(var.iter()) {
                    *r = (1.0 - m) * *r + m * b;
                }
            }
        }
    }
}

/// The predicted class of each row of a `[n, classes]` logit matrix: the
/// last maximum under `total_cmp`.
pub(crate) fn argmax_rows(logits: &Tensor) -> impl Iterator<Item = usize> + '_ {
    let (n, c) = (logits.shape().dim(0), logits.shape().dim(1));
    (0..n).map(move |row| {
        logits.data()[row * c..(row + 1) * c]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    })
}

fn accumulate(slot: &mut Option<Tensor>, g: Tensor) {
    match slot {
        Some(existing) => existing.add_scaled(&g, 1.0),
        None => *slot = Some(g),
    }
}

/// What one node's backward pass reads: its op, inputs, output and forward
/// cache, and the gradient of its output.
pub(crate) struct OpGrad<'a> {
    pub(crate) op: &'a Op,
    pub(crate) ins: &'a [&'a Tensor],
    pub(crate) output: &'a Tensor,
    pub(crate) aux: &'a Aux,
    pub(crate) gout: &'a Tensor,
    pub(crate) mode: Mode,
    /// A train-mode batch norm's parameter gradients `(Σ g·x̂, Σ g)` over
    /// the whole batch and the values per channel it holds: its input
    /// gradient needs them.
    pub(crate) bn_sums: Option<(&'a [f32], &'a [f32], f32)>,
}

impl OpGrad<'_> {
    /// The gradient with respect to input `k` into the input-shaped `out`;
    /// every element is assigned. Every op computes it image by image, so
    /// a batch can be differentiated in shards. A convolution (depthwise
    /// too) works in `scratch`, its forward pass's, or else in scratch of
    /// its own.
    pub(crate) fn input_grad_into(
        &self,
        k: usize,
        out: &mut Tensor,
        scratch: Option<&mut Conv2dScratch>,
    ) {
        let (ins, gout) = (self.ins, self.gout);
        match self.op {
            Op::Conv2d(l) => {
                let mut own = None;
                let scratch = scratch.unwrap_or_else(|| own.insert(conv_scratch(ins[0], &l.spec)));
                conv2d_input_grad_into(&l.weight.tensor(), gout, &l.spec, out, scratch);
            }
            Op::DwConv2d(l) => {
                let mut own = None;
                let scratch = scratch.unwrap_or_else(|| own.insert(Conv2dScratch::default()));
                dwconv2d_input_grad_into(&l.weight, gout, &l.spec, scratch, out);
            }
            Op::Linear(l) => linear_input_grad_into(&l.weight.tensor(), gout, out),
            Op::BatchNorm2d(bn) => match (self.mode, self.aux) {
                (Mode::Eval, _) => bn_eval_input_grad_into(bn, gout, out),
                (Mode::Train, Aux::BatchNorm { mean, var }) => {
                    let sums = self.bn_sums.expect("batch-norm gradient sums");
                    bn_input_grad_into(bn, (ins[0], mean, var), gout, sums, out);
                }
                (Mode::Train, _) => panic!("batch-norm node missing its cache"),
            },
            Op::ReLU => relu_backward_into(ins[0], gout, out),
            Op::LeakyReLU { alpha } => leaky_relu_backward_into(ins[0], gout, *alpha, out),
            Op::SiLU => silu_backward_into(ins[0], gout, out),
            Op::Sigmoid => sigmoid_backward_into(self.output, gout, out),
            Op::Tanh => tanh_backward_into(self.output, gout, out),
            Op::MaxPool2d { .. } => {
                let Aux::MaxPool(idx) = self.aux else {
                    panic!("max-pool node missing its index cache");
                };
                maxpool2d_backward_into(gout, idx, out);
            }
            Op::AvgPool2d { k, s } => avgpool2d_backward_into(gout, *k, *s, out),
            Op::GlobalAvgPool => global_avgpool_backward_into(gout, out),
            Op::Flatten | Op::Add => {
                assert_eq!(out.len(), gout.len(), "gradient buffer size mismatch");
                out.data_mut().copy_from_slice(gout.data());
            }
            Op::ConcatChannels => concat_channels_backward_into(ins[0], ins[1], gout, k, out),
            Op::ScaleChannels => scale_channels_backward_into(ins[0], ins[1], gout, k, out),
        }
    }

    /// The node's parameter gradients over its whole batch, `None` for a
    /// parameter-free op: the one-batch reference of the sharded
    /// reductions a training step runs.
    fn param_grads(&self) -> Option<ParamGrad> {
        let (x, gout) = (self.ins[0], self.gout);
        let (weight, bias) = match self.op {
            Op::Conv2d(l) => {
                let mut partials = vec![0.0f32; x.shape().dim(0) * l.spec.partial_len()];
                let mut scratch = conv_scratch(x, &l.spec);
                conv2d_weight_partials(x, gout, &l.spec, &mut partials, &mut scratch);
                let (gw, gb) = conv2d_sum_partials(&[&partials], &l.spec);
                (gw.into_vec(), gb.into_vec())
            }
            Op::DwConv2d(l) => {
                let mut scratch = Conv2dScratch::default();
                dwconv2d_param_grads(&[(x, gout)], &l.spec, 0..l.spec.in_channels, &mut scratch)
            }
            Op::Linear(l) => {
                let mut gw = vec![0.0f32; l.weight.len()];
                linear_weight_grad_rows(&[(x, gout)], 0..l.weight.rows(), &mut gw);
                (gw, linear_bias_grad(&[gout]).into_vec())
            }
            Op::BatchNorm2d(bn) => match (self.mode, self.aux) {
                (Mode::Eval, _) => bn_eval_param_grads(bn, x, gout),
                (Mode::Train, Aux::BatchNorm { mean, var }) => {
                    let (_, c, h, w) = x.shape().as_nchw();
                    let (gs, xs) = (image_slices([gout]), image_slices([x]));
                    let norm = BnNorm::new(bn, mean, var);
                    bn_grad_sums(&gs, &xs, &norm, (c, h * w), 0..c)
                }
                (Mode::Train, _) => panic!("batch-norm node missing its cache"),
            },
            _ => return None,
        };
        let [w, b] = self.op.params().expect("a parameterized op");
        Some(ParamGrad {
            weight: Tensor::from_vec(weight, w.shape().dims()).expect("weight-shaped"),
            bias: Tensor::from_vec(bias, b.shape().dims()).expect("bias-shaped"),
        })
    }
}

/// Allocating batch-norm forward; kept as the reference the unit tests
/// exercise directly. Production paths go through
/// [`batchnorm_forward_into`].
#[cfg(test)]
fn batchnorm_forward(bn: &BatchNorm2d, x: &Tensor, mode: Mode) -> (Tensor, Aux) {
    let (n, c, h, w) = x.shape().as_nchw();
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let mut aux = Aux::None;
    if mode == Mode::Train {
        let (mean, var) = bn_batch_stats(&image_slices([x]), (c, h * w), 0..c);
        set_batch_stats(&mut aux, &mean, &var);
    }
    batchnorm_forward_into(bn, x, mode, &mut out, &mut aux);
    (out, aux)
}

/// Each image's `[c, h, w]` slice of NCHW `parts` given in batch order.
pub(crate) fn image_slices<'a>(parts: impl IntoIterator<Item = &'a Tensor>) -> Vec<&'a [f32]> {
    parts
        .into_iter()
        .flat_map(|t| {
            let n = t.shape().dim(0);
            let stride = t.len() / n.max(1);
            t.data().chunks_exact(stride.max(1)).take(n)
        })
        .collect()
}

/// Stores a batch's per-channel statistics in a batch-norm node's `aux`
/// for [`batchnorm_forward_into`], reusing the buffers a previous
/// train-mode pass left there.
pub(crate) fn set_batch_stats(aux: &mut Aux, mean: &[f32], var: &[f32]) {
    match aux {
        Aux::BatchNorm { mean: m, var: v } if m.len() == mean.len() => {
            m.copy_from_slice(mean);
            v.copy_from_slice(var);
        }
        _ => {
            *aux = Aux::BatchNorm {
                mean: mean.to_vec(),
                var: var.to_vec(),
            }
        }
    }
}

/// [`BatchNorm2d`] forward into a caller-provided buffer; every output
/// element is assigned. In train mode `aux` must hold the batch statistics
/// ([`set_batch_stats`]); in eval mode it is left empty.
///
/// Every element depends only on its own input and its channel's
/// statistics, so a batch can be normalized in shards.
pub(crate) fn batchnorm_forward_into(
    bn: &BatchNorm2d,
    x: &Tensor,
    mode: Mode,
    out: &mut Tensor,
    aux: &mut Aux,
) {
    let (n, c, h, w) = x.shape().as_nchw();
    let plane = h * w;
    assert_eq!(
        out.len(),
        n * c * plane,
        "batch-norm output buffer size mismatch"
    );
    match mode {
        Mode::Eval => {
            let xd = x.data();
            let od = out.data_mut();
            for ch in 0..c {
                let inv = 1.0 / (bn.running_var.data()[ch] + bn.eps).sqrt();
                let g = bn.gamma.data()[ch] * inv;
                let b = bn.beta.data()[ch] - bn.running_mean.data()[ch] * g;
                for img in 0..n {
                    let base = (img * c + ch) * plane;
                    for i in 0..plane {
                        od[base + i] = xd[base + i] * g + b;
                    }
                }
            }
            *aux = Aux::None;
        }
        Mode::Train => {
            let Aux::BatchNorm { mean, var } = aux else {
                panic!("batch-norm node has no batch statistics");
            };
            let norm = BnNorm::new(bn, mean, var);
            let xd = x.data();
            let od = out.data_mut();
            for ch in 0..c {
                let (g, b, xhat) = (bn.gamma.data()[ch], bn.beta.data()[ch], norm.xhat(ch));
                for img in 0..n {
                    let base = (img * c + ch) * plane;
                    for i in 0..plane {
                        od[base + i] = xhat(xd[base + i]) * g + b;
                    }
                }
            }
        }
    }
}

/// A train-mode batch norm and the SiLU that is its only reader, in one
/// pass over the batch norm's input `x` (with its batch statistics in
/// `aux`): the SiLU's output into `act` and `σ(z)` into `sig`, the batch
/// norm's output buffer, for [`bn_silu_input_grad_into`]. `z`, the batch
/// norm's output, is never stored; it and the activation have the bits of
/// [`batchnorm_forward_into`] followed by `silu_into`.
pub(crate) fn bn_silu_forward_into(
    bn: &BatchNorm2d,
    (x, aux): (&Tensor, &Aux),
    sig: &mut Tensor,
    act: &mut Tensor,
) {
    let Aux::BatchNorm { mean, var } = aux else {
        panic!("batch-norm node has no batch statistics");
    };
    let norm = BnNorm::new(bn, mean, var);
    let (_, c, h, w) = x.shape().as_nchw();
    let plane = h * w;
    let outs = sig
        .data_mut()
        .chunks_exact_mut(plane)
        .zip(act.data_mut().chunks_exact_mut(plane));
    for (i, (xs, (sig, act))) in x.data().chunks_exact(plane).zip(outs).enumerate() {
        let ch = i % c;
        let (g, b, xhat) = (bn.gamma.data()[ch], bn.beta.data()[ch], norm.xhat(ch));
        silu_sigmoid_of_into(xs, |x| xhat(x) * g + b, act, sig);
    }
}

/// The input gradient of the SiLU of a pair run by [`bn_silu_forward_into`]
/// into `out`, from the batch norm's input `x` and statistics and the
/// stored `sig`: `z` is recomputed with the forward pass's expression, so
/// the bits are those of `silu_backward_into` at `z`, with no `exp`.
pub(crate) fn bn_silu_input_grad_into(
    bn: &BatchNorm2d,
    (x, aux): (&Tensor, &Aux),
    sig: &Tensor,
    gout: &Tensor,
    out: &mut Tensor,
) {
    let Aux::BatchNorm { mean, var } = aux else {
        panic!("batch-norm node has no batch statistics");
    };
    let norm = BnNorm::new(bn, mean, var);
    let (_, c, h, w) = x.shape().as_nchw();
    let plane = h * w;
    let ins = sig
        .data()
        .chunks_exact(plane)
        .zip(gout.data().chunks_exact(plane));
    let planes = x.data().chunks_exact(plane).zip(ins);
    for (i, ((xs, (sig, g)), out)) in planes
        .zip(out.data_mut().chunks_exact_mut(plane))
        .enumerate()
    {
        let ch = i % c;
        let (gamma, beta, xhat) = (bn.gamma.data()[ch], bn.beta.data()[ch], norm.xhat(ch));
        silu_backward_from_sigmoid_into(xs, |x| xhat(x) * gamma + beta, sig, g, out);
    }
}

/// A train-mode batch norm's per-channel normalization `x̂ = (x − μ) · inv`
/// with `inv = 1 / sqrt(σ² + ε)`: forward computes `x̂` with it, and
/// backward recomputes the very same values from the node's input.
pub(crate) struct BnNorm<'a> {
    mean: &'a [f32],
    inv: Vec<f32>,
}

impl<'a> BnNorm<'a> {
    pub(crate) fn new(bn: &BatchNorm2d, mean: &'a [f32], var: &[f32]) -> Self {
        let inv = var.iter().map(|&v| 1.0 / (v + bn.eps).sqrt()).collect();
        Self { mean, inv }
    }

    /// Channel `ch`'s `x ↦ x̂`, with the channel's statistics read once.
    #[inline]
    fn xhat(&self, ch: usize) -> impl Fn(f32) -> f32 {
        let (mean, inv) = (self.mean[ch], self.inv[ch]);
        move |x| (x - mean) * inv
    }
}

/// Channels whose batch-norm sums run side by side, one lane each: the
/// sums are chains of dependent adds, so eight independent chains keep the
/// adder busy where one channel at a time waits on each add.
pub(crate) const BN_LANES: usize = 8;

/// Pixels loaded per channel plane at a time, so that the lanes fill from
/// vector loads rather than one scalar load per channel and pixel.
const BN_BLOCK: usize = 8;

/// Plane of channels `ch0..ch0 + L` of one image's `[c, plane]` slice.
fn channel_planes<const L: usize>(img: &[f32], plane: usize, ch0: usize) -> [&[f32]; L] {
    std::array::from_fn(|j| &img[(ch0 + j) * plane..][..plane])
}

/// Pixels `i..i + BN_BLOCK` of each plane, one lane array per pixel.
fn pixel_block<const L: usize>(planes: &[&[f32]; L], i: usize) -> [[f32; L]; BN_BLOCK] {
    let rows: [[f32; BN_BLOCK]; L] =
        planes.map(|p| p[i..i + BN_BLOCK].try_into().expect("block in bounds"));
    std::array::from_fn(|px| std::array::from_fn(|j| rows[j][px]))
}

/// Runs `group(ch0, lanes)` over `channels` in groups of [`BN_LANES`]
/// channels, then one channel at a time: every lane computes the same sums
/// as a one-channel loop, so any cut of the channels gives the same bits.
fn lane_groups(channels: Range<usize>, mut group: impl FnMut(usize, usize)) {
    let mut ch = channels.start;
    while ch < channels.end {
        let lanes = if channels.end - ch >= BN_LANES {
            BN_LANES
        } else {
            1
        };
        group(ch, lanes);
        ch += lanes;
    }
}

/// Batch mean and biased variance of `channels`, over the batch's images
/// (`[c, plane]` slices in batch order), as `(mean, var)` of
/// `channels.len()` entries each.
pub(crate) fn bn_batch_stats(
    images: &[&[f32]],
    (c, plane): (usize, usize),
    channels: Range<usize>,
) -> (Vec<f32>, Vec<f32>) {
    debug_assert!(images.iter().all(|img| img.len() == c * plane));
    let base = channels.start;
    let mut mean = vec![0.0f32; channels.len()];
    let mut var = vec![0.0f32; channels.len()];
    lane_groups(channels, |ch0, lanes| {
        let at = ch0 - base..ch0 - base + lanes;
        let (m, v) = (&mut mean[at.clone()], &mut var[at]);
        match lanes {
            BN_LANES => batch_stats::<BN_LANES>(images, plane, ch0, m, v),
            _ => batch_stats::<1>(images, plane, ch0, m, v),
        }
    });
    (mean, var)
}

/// Batch mean and biased variance of channels `ch0..ch0 + L`, each in its
/// own lane and in the order of a channel-at-a-time loop: the mean's total
/// starts at `+0.0` and adds every image's plane sum, which starts at `-0.0`
/// like `Iterator::sum`; the variance adds squared deviations image by
/// image, pixel by pixel, from `+0.0`.
fn batch_stats<const L: usize>(
    images: &[&[f32]],
    plane: usize,
    ch0: usize,
    mean: &mut [f32],
    var: &mut [f32],
) {
    let count = (images.len() * plane) as f32;
    let full = plane - plane % BN_BLOCK;
    let mut total = [0.0f32; L];
    for img in images {
        let xs = channel_planes::<L>(img, plane, ch0);
        let mut sum = [-0.0f32; L];
        for i in (0..full).step_by(BN_BLOCK) {
            for px in pixel_block(&xs, i) {
                for (s, x) in sum.iter_mut().zip(px) {
                    *s += x;
                }
            }
        }
        for i in full..plane {
            for (s, x) in sum.iter_mut().zip(&xs) {
                *s += x[i];
            }
        }
        for (t, s) in total.iter_mut().zip(sum) {
            *t += s;
        }
    }
    let m = total.map(|t| t / count);
    let mut v = [0.0f32; L];
    for img in images {
        let xs = channel_planes::<L>(img, plane, ch0);
        for i in (0..full).step_by(BN_BLOCK) {
            for px in pixel_block(&xs, i) {
                for ((v, x), m) in v.iter_mut().zip(px).zip(m) {
                    let d = x - m;
                    *v += d * d;
                }
            }
        }
        for i in full..plane {
            for ((v, x), m) in v.iter_mut().zip(&xs).zip(m) {
                let d = x[i] - m;
                *v += d * d;
            }
        }
    }
    mean.copy_from_slice(&m);
    var.copy_from_slice(&v.map(|v| v / count));
}

/// The parameter gradients of a train-mode batch norm for `channels`:
/// `(Σ g·x̂, Σ g)` (γ, then β) over the batch, from `grads` and the node's
/// inputs `xs` (`[c, plane]` image slices in batch order), `x̂` recomputed
/// with `norm`.
pub(crate) fn bn_grad_sums(
    grads: &[&[f32]],
    xs: &[&[f32]],
    norm: &BnNorm<'_>,
    (c, plane): (usize, usize),
    channels: Range<usize>,
) -> (Vec<f32>, Vec<f32>) {
    debug_assert_eq!(grads.len(), xs.len());
    debug_assert!(grads.iter().all(|img| img.len() == c * plane));
    let base = channels.start;
    let mut sum_gx = vec![0.0f32; channels.len()];
    let mut sum_g = vec![0.0f32; channels.len()];
    lane_groups(channels, |ch0, lanes| {
        let at = ch0 - base..ch0 - base + lanes;
        let (sg, sgx) = (&mut sum_g[at.clone()], &mut sum_gx[at]);
        match lanes {
            BN_LANES => grad_sums::<BN_LANES>(grads, xs, norm, (plane, ch0), sg, sgx),
            _ => grad_sums::<1>(grads, xs, norm, (plane, ch0), sg, sgx),
        }
    });
    (sum_gx, sum_g)
}

/// `(Σ g, Σ g·x̂)` over the batch for channels `ch0..ch0 + L`, each in its
/// own lane, from `+0.0` in image, pixel order.
fn grad_sums<const L: usize>(
    grads: &[&[f32]],
    xs: &[&[f32]],
    norm: &BnNorm<'_>,
    (plane, ch0): (usize, usize),
    sum_g: &mut [f32],
    sum_gx: &mut [f32],
) {
    let full = plane - plane % BN_BLOCK;
    let mean: [f32; L] = std::array::from_fn(|j| norm.mean[ch0 + j]);
    let inv: [f32; L] = std::array::from_fn(|j| norm.inv[ch0 + j]);
    let (mut sg, mut sgx) = ([0.0f32; L], [0.0f32; L]);
    let mut add = |g: [f32; L], x: [f32; L]| {
        for j in 0..L {
            sg[j] += g[j];
            sgx[j] += g[j] * ((x[j] - mean[j]) * inv[j]);
        }
    };
    for (gimg, ximg) in grads.iter().zip(xs) {
        let gs = channel_planes::<L>(gimg, plane, ch0);
        let xs = channel_planes::<L>(ximg, plane, ch0);
        for i in (0..full).step_by(BN_BLOCK) {
            for (g, x) in pixel_block(&gs, i).into_iter().zip(pixel_block(&xs, i)) {
                add(g, x);
            }
        }
        for i in full..plane {
            add(gs.map(|g| g[i]), xs.map(|x| x[i]));
        }
    }
    sum_g.copy_from_slice(&sg);
    sum_gx.copy_from_slice(&sgx);
}

/// The input gradient of a train-mode batch norm into `out`, given its
/// input `x` with the batch statistics, and its parameter gradients
/// `(Σ g·x̂, Σ g)` over the whole batch ([`bn_grad_sums`]) with the `count`
/// values per channel they sum. Every element depends only on its own
/// gradient and input, so a batch can be differentiated in shards.
fn bn_input_grad_into(
    bn: &BatchNorm2d,
    (x, mean, var): (&Tensor, &[f32], &[f32]),
    gout: &Tensor,
    (sum_gx, sum_g, count): (&[f32], &[f32], f32),
    out: &mut Tensor,
) {
    let (n, c, h, w) = x.shape().as_nchw();
    let plane = h * w;
    assert_eq!(out.shape(), x.shape(), "batch-norm gradient shape mismatch");
    let norm = BnNorm::new(bn, mean, var);
    let (gd, xd) = (gout.data(), x.data());
    let gxd = out.data_mut();
    for ch in 0..c {
        let gamma = bn.gamma.data()[ch];
        let (sum_g, sum_gx) = (sum_g[ch], sum_gx[ch]);
        let (k1, xhat) = (gamma * norm.inv[ch] / count, norm.xhat(ch));
        for img in 0..n {
            let base = (img * c + ch) * plane;
            for i in 0..plane {
                let xh = xhat(xd[base + i]);
                gxd[base + i] = k1 * (count * gd[base + i] - sum_g - xh * sum_gx);
            }
        }
    }
}

/// The input gradient of an eval-mode batch norm into `out`:
/// y = γ (x − μ_r) / sqrt(σ²_r + ε) + β is affine in x.
fn bn_eval_input_grad_into(bn: &BatchNorm2d, gout: &Tensor, out: &mut Tensor) {
    let (n, c, h, w) = gout.shape().as_nchw();
    let plane = h * w;
    assert_eq!(
        out.shape(),
        gout.shape(),
        "batch-norm gradient shape mismatch"
    );
    let gd = gout.data();
    let gxd = out.data_mut();
    for ch in 0..c {
        let inv = 1.0 / (bn.running_var.data()[ch] + bn.eps).sqrt();
        let g = bn.gamma.data()[ch] * inv;
        for img in 0..n {
            let base = (img * c + ch) * plane;
            for i in 0..plane {
                gxd[base + i] = gd[base + i] * g;
            }
        }
    }
}

/// Scratch for a convolution `spec` over the images of `x`.
fn conv_scratch(x: &Tensor, spec: &Conv2dSpec) -> Conv2dScratch {
    let (_, c, h, w) = x.shape().as_nchw();
    Conv2dScratch::new(c, h, w, spec)
}

/// An eval-mode batch norm's `(γ, β)` gradients.
fn bn_eval_param_grads(bn: &BatchNorm2d, x: &Tensor, gout: &Tensor) -> (Vec<f32>, Vec<f32>) {
    let (n, c, h, w) = x.shape().as_nchw();
    let plane = h * w;
    let (gd, xd) = (gout.data(), x.data());
    let mut ggamma = vec![0.0f32; c];
    let mut gbeta = vec![0.0f32; c];
    for ch in 0..c {
        let inv = 1.0 / (bn.running_var.data()[ch] + bn.eps).sqrt();
        let mu = bn.running_mean.data()[ch];
        let mut sg = 0.0;
        let mut sb = 0.0;
        for img in 0..n {
            let base = (img * c + ch) * plane;
            for i in 0..plane {
                sg += gd[base + i] * (xd[base + i] - mu) * inv;
                sb += gd[base + i];
            }
        }
        ggamma[ch] = sg;
        gbeta[ch] = sb;
    }
    (ggamma, gbeta)
}

/// Channel concatenation into a caller-provided `[n, ca + cb, h, w]`
/// buffer; every output element is assigned.
pub(crate) fn concat_channels_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (n, ca, h, w) = a.shape().as_nchw();
    let (nb, cb, hb, wb) = b.shape().as_nchw();
    assert_eq!(
        (n, h, w),
        (nb, hb, wb),
        "concat requires matching batch/spatial dims"
    );
    let plane = h * w;
    assert_eq!(
        out.len(),
        n * (ca + cb) * plane,
        "concat output buffer size mismatch"
    );
    let od = out.data_mut();
    for img in 0..n {
        let dst = &mut od[img * (ca + cb) * plane..(img + 1) * (ca + cb) * plane];
        dst[..ca * plane].copy_from_slice(&a.data()[img * ca * plane..(img + 1) * ca * plane]);
        dst[ca * plane..].copy_from_slice(&b.data()[img * cb * plane..(img + 1) * cb * plane]);
    }
}

/// The gradient of concatenation input `k` (`a` or `b`) into `out`.
fn concat_channels_backward_into(
    a: &Tensor,
    b: &Tensor,
    gout: &Tensor,
    k: usize,
    out: &mut Tensor,
) {
    let (n, ca, h, w) = a.shape().as_nchw();
    let cb = b.shape().dim(1);
    let plane = h * w;
    let (skip, take) = if k == 0 { (0, ca) } else { (ca, cb) };
    assert_eq!(out.len(), n * take * plane, "concat gradient size mismatch");
    let rows = gout.data().chunks_exact(((ca + cb) * plane).max(1));
    for (dst, src) in out
        .data_mut()
        .chunks_exact_mut((take * plane).max(1))
        .zip(rows)
    {
        dst.copy_from_slice(&src[skip * plane..(skip + take) * plane]);
    }
}

/// Per-channel scaling into a caller-provided `[n, c, h, w]` buffer; every
/// output element is assigned.
pub(crate) fn scale_channels_into(x: &Tensor, s: &Tensor, out: &mut Tensor) {
    let (n, c, h, w) = x.shape().as_nchw();
    assert_eq!(s.shape().dims(), &[n, c], "scale tensor must be [n, c]");
    let plane = h * w;
    assert_eq!(
        out.len(),
        n * c * plane,
        "scale-channels output buffer size mismatch"
    );
    let od = out.data_mut();
    let xd = x.data();
    let sd = s.data();
    for img in 0..n {
        for ch in 0..c {
            let scale = sd[img * c + ch];
            let base = (img * c + ch) * plane;
            for i in 0..plane {
                od[base + i] = xd[base + i] * scale;
            }
        }
    }
}

/// The gradient of per-channel scaling's input `k` into `out`: of the
/// scaled tensor `x` (`k == 0`) or of the `[n, c]` scales.
fn scale_channels_backward_into(x: &Tensor, s: &Tensor, gout: &Tensor, k: usize, out: &mut Tensor) {
    let (n, c, h, w) = x.shape().as_nchw();
    let plane = h * w;
    let xd = x.data();
    let sd = s.data();
    let gd = gout.data();
    let od = out.data_mut();
    assert_eq!(
        od.len(),
        if k == 0 { x.len() } else { n * c },
        "scale gradient size mismatch"
    );
    for img in 0..n {
        for ch in 0..c {
            let base = (img * c + ch) * plane;
            if k == 0 {
                let scale = sd[img * c + ch];
                for i in 0..plane {
                    od[base + i] = gd[base + i] * scale;
                }
            } else {
                let mut acc = 0.0;
                for i in 0..plane {
                    acc += gd[base + i] * xd[base + i];
                }
                od[img * c + ch] = acc;
            }
        }
    }
}

/// Where a [`GraphBuilder`]'s layer weights come from.
///
/// Every RNG is one: it draws Kaiming-normal and Xavier-uniform weights, in
/// the builder's call order. [`ZeroWeights`] allocates them zeroed, for a
/// graph whose every parameter is loaded right after it is built.
pub trait WeightInit {
    /// A `dims` weight with fan-in `fan_in`, Kaiming-normal.
    fn kaiming_normal(&mut self, dims: &[usize], fan_in: usize) -> Tensor;
    /// A `dims` weight with fans `fan_in` and `fan_out`, Xavier-uniform.
    fn xavier_uniform(&mut self, dims: &[usize], fan_in: usize, fan_out: usize) -> Tensor;
}

impl<R: Rng> WeightInit for R {
    fn kaiming_normal(&mut self, dims: &[usize], fan_in: usize) -> Tensor {
        init::kaiming_normal(self, dims, fan_in)
    }

    fn xavier_uniform(&mut self, dims: &[usize], fan_in: usize, fan_out: usize) -> Tensor {
        init::xavier_uniform(self, dims, fan_in, fan_out)
    }
}

/// Zeroed weights: the structure of a graph with nothing drawn, for a
/// stored model's weights to be decoded into.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroWeights;

impl WeightInit for ZeroWeights {
    fn kaiming_normal(&mut self, dims: &[usize], _fan_in: usize) -> Tensor {
        Tensor::zeros(dims)
    }

    fn xavier_uniform(&mut self, dims: &[usize], _fan_in: usize, _fan_out: usize) -> Tensor {
        Tensor::zeros(dims)
    }
}

/// Incrementally constructs a [`Graph`] in topological order.
///
/// Layer methods take the input node, initialize parameters from the given
/// [`WeightInit`] (an RNG, or [`ZeroWeights`]), and return the new node's
/// id.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
    input_dims: Vec<usize>,
}

impl GraphBuilder {
    /// Starts a graph for single-image inputs of CHW shape `input_dims`.
    pub fn new(input_dims: &[usize]) -> Self {
        Self {
            nodes: Vec::new(),
            input_dims: input_dims.to_vec(),
        }
    }

    /// The graph-input source.
    pub fn input(&self) -> Src {
        Src::Input
    }

    /// Adds an arbitrary node.
    ///
    /// # Panics
    ///
    /// Panics if the op arity does not match `inputs.len()` or an input
    /// references a node that does not exist yet.
    pub fn push(&mut self, name: &str, op: Op, inputs: &[Src]) -> Src {
        assert_eq!(op.arity(), inputs.len(), "op {name} arity mismatch");
        for src in inputs {
            if let Src::Node(i) = src {
                assert!(
                    *i < self.nodes.len(),
                    "node {name} references future node {i}"
                );
            }
        }
        self.nodes.push(Node {
            name: name.to_string(),
            op,
            inputs: inputs.to_vec(),
        });
        Src::Node(self.nodes.len() - 1)
    }

    /// Standard convolution with Kaiming-normal weights.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        &mut self,
        name: &str,
        input: Src,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        init: &mut impl WeightInit,
    ) -> Src {
        let in_channels = self.channels_of(input);
        let spec = Conv2dSpec::new(in_channels, out_channels, kernel, stride, padding);
        let fan_in = in_channels * kernel * kernel;
        let layer = Conv2dLayer {
            spec,
            weight: init.kaiming_normal(&[out_channels, fan_in], fan_in).into(),
            bias: Tensor::zeros(&[out_channels]),
        };
        self.push(name, Op::Conv2d(layer), &[input])
    }

    /// Depthwise convolution with Kaiming-normal weights.
    pub fn dwconv2d(
        &mut self,
        name: &str,
        input: Src,
        kernel: usize,
        stride: usize,
        padding: usize,
        init: &mut impl WeightInit,
    ) -> Src {
        let c = self.channels_of(input);
        let spec = Conv2dSpec::new(c, c, kernel, stride, padding);
        let fan_in = kernel * kernel;
        let layer = DwConv2dLayer {
            spec,
            weight: init.kaiming_normal(&[c, fan_in], fan_in),
            bias: Tensor::zeros(&[c]),
        };
        self.push(name, Op::DwConv2d(layer), &[input])
    }

    /// Fully-connected layer with Xavier-uniform weights.
    pub fn linear(
        &mut self,
        name: &str,
        input: Src,
        out_features: usize,
        init: &mut impl WeightInit,
    ) -> Src {
        let in_features = self.features_of(input);
        let layer = LinearLayer {
            weight: init
                .xavier_uniform(&[out_features, in_features], in_features, out_features)
                .into(),
            bias: Tensor::zeros(&[out_features]),
        };
        self.push(name, Op::Linear(layer), &[input])
    }

    /// Batch normalization for the input's channel count.
    pub fn batchnorm(&mut self, name: &str, input: Src) -> Src {
        let c = self.channels_of(input);
        self.push(name, Op::BatchNorm2d(BatchNorm2d::new(c)), &[input])
    }

    /// ReLU activation.
    pub fn relu(&mut self, name: &str, input: Src) -> Src {
        self.push(name, Op::ReLU, &[input])
    }

    /// Leaky ReLU activation with negative slope `alpha`.
    pub fn leaky_relu(&mut self, name: &str, input: Src, alpha: f32) -> Src {
        self.push(name, Op::LeakyReLU { alpha }, &[input])
    }

    /// Tanh activation.
    pub fn tanh(&mut self, name: &str, input: Src) -> Src {
        self.push(name, Op::Tanh, &[input])
    }

    /// SiLU activation.
    pub fn silu(&mut self, name: &str, input: Src) -> Src {
        self.push(name, Op::SiLU, &[input])
    }

    /// Sigmoid activation.
    pub fn sigmoid(&mut self, name: &str, input: Src) -> Src {
        self.push(name, Op::Sigmoid, &[input])
    }

    /// Max pooling.
    pub fn maxpool(&mut self, name: &str, input: Src, k: usize, s: usize) -> Src {
        self.push(name, Op::MaxPool2d { k, s }, &[input])
    }

    /// Average pooling.
    pub fn avgpool(&mut self, name: &str, input: Src, k: usize, s: usize) -> Src {
        self.push(name, Op::AvgPool2d { k, s }, &[input])
    }

    /// Global average pooling.
    pub fn global_avgpool(&mut self, name: &str, input: Src) -> Src {
        self.push(name, Op::GlobalAvgPool, &[input])
    }

    /// Flatten to `[n, features]`.
    pub fn flatten(&mut self, name: &str, input: Src) -> Src {
        self.push(name, Op::Flatten, &[input])
    }

    /// Residual addition.
    pub fn add(&mut self, name: &str, a: Src, b: Src) -> Src {
        self.push(name, Op::Add, &[a, b])
    }

    /// Channel concatenation.
    pub fn concat(&mut self, name: &str, a: Src, b: Src) -> Src {
        self.push(name, Op::ConcatChannels, &[a, b])
    }

    /// Per-channel scaling (squeeze-and-excitation application).
    pub fn scale_channels(&mut self, name: &str, x: Src, s: Src) -> Src {
        self.push(name, Op::ScaleChannels, &[x, s])
    }

    /// Finishes the graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no nodes.
    pub fn build(self) -> Graph {
        assert!(!self.nodes.is_empty(), "graph needs at least one node");
        Graph {
            nodes: self.nodes,
            input_dims: self.input_dims,
        }
    }

    /// Infers the channel count of a source by dry-running shapes.
    fn channels_of(&self, src: Src) -> usize {
        self.shape_of(src)[0]
    }

    fn features_of(&self, src: Src) -> usize {
        self.shape_of(src).iter().product()
    }

    /// Single-image (no batch dim) output shape of a source.
    fn shape_of(&self, src: Src) -> Vec<usize> {
        match src {
            Src::Input => self.input_dims.clone(),
            Src::Node(i) => {
                let node = &self.nodes[i];
                let in_shapes: Vec<Vec<usize>> =
                    node.inputs.iter().map(|s| self.shape_of(*s)).collect();
                op_output_shape(&node.op, &in_shapes)
            }
        }
    }
}

/// Single-image output shape of an op given single-image input shapes.
pub(crate) fn op_output_shape(op: &Op, ins: &[Vec<usize>]) -> Vec<usize> {
    match op {
        Op::Conv2d(l) => {
            let (oh, ow) = l.spec.out_hw(ins[0][1], ins[0][2]);
            vec![l.spec.out_channels, oh, ow]
        }
        Op::DwConv2d(l) => {
            let (oh, ow) = l.spec.out_hw(ins[0][1], ins[0][2]);
            vec![l.spec.out_channels, oh, ow]
        }
        Op::Linear(l) => vec![l.weight.rows()],
        Op::BatchNorm2d(_)
        | Op::ReLU
        | Op::LeakyReLU { .. }
        | Op::SiLU
        | Op::Sigmoid
        | Op::Tanh => ins[0].clone(),
        Op::MaxPool2d { k, s } | Op::AvgPool2d { k, s } => {
            vec![ins[0][0], (ins[0][1] - k) / s + 1, (ins[0][2] - k) / s + 1]
        }
        Op::GlobalAvgPool => vec![ins[0][0]],
        Op::Flatten => vec![ins[0].iter().product()],
        Op::Add => ins[0].clone(),
        Op::ConcatChannels => {
            let mut s = ins[0].clone();
            s[0] += ins[1][0];
            s
        }
        Op::ScaleChannels => ins[0].clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advhunter_tensor::ops::cross_entropy_with_logits;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_cnn(rng: &mut StdRng) -> Graph {
        let mut b = GraphBuilder::new(&[2, 6, 6]);
        let input = b.input();
        let c1 = b.conv2d("conv1", input, 4, 3, 1, 1, rng);
        let bn = b.batchnorm("bn1", c1);
        let r1 = b.relu("relu1", bn);
        let p = b.maxpool("pool", r1, 2, 2);
        let f = b.flatten("flatten", p);
        b.linear("fc", f, 3, rng);
        b.build()
    }

    #[test]
    fn forward_produces_expected_logit_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = tiny_cnn(&mut rng);
        let x = Tensor::zeros(&[5, 2, 6, 6]);
        let t = g.forward(&x, Mode::Eval);
        assert_eq!(t.output().shape().dims(), &[5, 3]);
    }

    #[test]
    fn predict_returns_one_class_per_image() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = tiny_cnn(&mut rng);
        let x = init::normal(&mut rng, &[4, 2, 6, 6], 0.0, 1.0);
        let preds = g.predict(&x);
        assert_eq!(preds.len(), 4);
        assert!(preds.iter().all(|&p| p < 3));
    }

    #[test]
    fn input_gradient_matches_finite_differences_eval_mode() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = tiny_cnn(&mut rng);
        let x = init::normal(&mut rng, &[1, 2, 6, 6], 0.0, 1.0);
        let labels = [1usize];

        let loss_of = |x: &Tensor| {
            let t = g.forward(x, Mode::Eval);
            cross_entropy_with_logits(t.output(), &labels).0
        };

        let trace = g.forward(&x, Mode::Eval);
        let (_, dlogits) = cross_entropy_with_logits(trace.output(), &labels);
        let grads = g.backward(&trace, &dlogits);

        let eps = 1e-2;
        for i in (0..x.len()).step_by(9) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss_of(&xp) - loss_of(&xm)) / (2.0 * eps);
            let ana = grads.input.data()[i];
            assert!(
                (num - ana).abs() < 2e-2,
                "input grad [{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn param_gradients_match_finite_differences_train_mode() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = tiny_cnn(&mut rng);
        let x = init::normal(&mut rng, &[3, 2, 6, 6], 0.0, 1.0);
        let labels = [0usize, 1, 2];

        let trace = g.forward(&x, Mode::Train);
        let (_, dlogits) = cross_entropy_with_logits(trace.output(), &labels);
        let grads = g.backward(&trace, &dlogits);
        let flat_grads: Vec<Tensor> = grads.flat().into_iter().cloned().collect();

        let eps = 1e-2;
        let n_params = g.param_tensors().len();
        assert_eq!(flat_grads.len(), n_params);
        for (p_idx, grad) in flat_grads.iter().enumerate() {
            let plen = g.param_tensors()[p_idx].len();
            // Spot-check a few entries of every parameter tensor.
            for e_idx in (0..plen).step_by((plen / 3).max(1)) {
                let loss_at = |delta: f32, g: &mut Graph| {
                    g.param_tensors_mut()[p_idx].data_mut()[e_idx] += delta;
                    let t = g.forward(&x, Mode::Train);
                    let (l, _) = cross_entropy_with_logits(t.output(), &labels);
                    g.param_tensors_mut()[p_idx].data_mut()[e_idx] -= delta;
                    l
                };
                let lp = loss_at(eps, &mut g);
                let lm = loss_at(-eps, &mut g);
                let num = (lp - lm) / (2.0 * eps);
                let ana = grad.data()[e_idx];
                assert!(
                    (num - ana).abs() < 3e-2,
                    "param {p_idx}[{e_idx}]: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn residual_and_concat_graphs_backprop() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut b = GraphBuilder::new(&[2, 4, 4]);
        let input = b.input();
        let c1 = b.conv2d("c1", input, 2, 3, 1, 1, &mut rng);
        let r1 = b.relu("r1", c1);
        let sum = b.add("add", r1, input); // residual over the input (2 ch)
        let cat = b.concat("cat", sum, r1); // 4 channels
        let gap = b.global_avgpool("gap", cat);
        b.linear("fc", gap, 2, &mut rng);
        let g = b.build();
        let x = init::normal(&mut rng, &[2, 2, 4, 4], 0.0, 1.0);
        let trace = g.forward(&x, Mode::Eval);
        assert_eq!(trace.output().shape().dims(), &[2, 2]);

        let (_, dlogits) = cross_entropy_with_logits(trace.output(), &[0, 1]);
        let grads = g.backward(&trace, &dlogits);
        assert_eq!(grads.input.shape().dims(), &[2, 2, 4, 4]);
        assert!(grads.input.data().iter().any(|&v| v != 0.0));

        // Finite-difference check on a couple of input coordinates.
        let loss_of = |x: &Tensor| {
            let t = g.forward(x, Mode::Eval);
            cross_entropy_with_logits(t.output(), &[0, 1]).0
        };
        let eps = 1e-2;
        for i in [0usize, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss_of(&xp) - loss_of(&xm)) / (2.0 * eps);
            let ana = grads.input.data()[i];
            assert!((num - ana).abs() < 2e-2, "[{i}] {num} vs {ana}");
        }
    }

    #[test]
    fn scale_channels_backprops_se_style() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = GraphBuilder::new(&[2, 4, 4]);
        let input = b.input();
        let gap = b.global_avgpool("gap", input);
        let fc = b.linear("fc", gap, 2, &mut rng);
        let sig = b.sigmoid("sig", fc);
        let scaled = b.scale_channels("scale", input, sig);
        let gap2 = b.global_avgpool("gap2", scaled);
        b.linear("head", gap2, 2, &mut rng);
        let g = b.build();

        let x = init::normal(&mut rng, &[1, 2, 4, 4], 0.0, 1.0);
        let loss_of = |x: &Tensor| {
            let t = g.forward(x, Mode::Eval);
            cross_entropy_with_logits(t.output(), &[1]).0
        };
        let trace = g.forward(&x, Mode::Eval);
        let (_, dlogits) = cross_entropy_with_logits(trace.output(), &[1]);
        let grads = g.backward(&trace, &dlogits);
        let eps = 1e-2;
        for i in [0usize, 9, 25] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss_of(&xp) - loss_of(&xm)) / (2.0 * eps);
            let ana = grads.input.data()[i];
            assert!((num - ana).abs() < 2e-2, "[{i}] {num} vs {ana}");
        }
    }

    #[test]
    fn batchnorm_train_normalizes_batch() {
        let bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4, 1, 1, 1]).unwrap();
        let (y, aux) = batchnorm_forward(&bn, &x, Mode::Train);
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        let var: f32 = y.data().iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert!((var - 1.0).abs() < 1e-3);
        let Aux::BatchNorm {
            mean: m, var: v, ..
        } = aux
        else {
            panic!()
        };
        assert!((m[0] - 2.5).abs() < 1e-6);
        assert!((v[0] - 1.25).abs() < 1e-6);
    }

    #[test]
    fn running_stats_update_moves_toward_batch_stats() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut b = GraphBuilder::new(&[1, 2, 2]);
        let input = b.input();
        b.batchnorm("bn", input);
        let mut g = b.build();
        let x = init::normal(&mut rng, &[8, 1, 2, 2], 5.0, 1.0);
        let trace = g.forward(&x, Mode::Train);
        g.update_running_stats(&trace);
        let Op::BatchNorm2d(bn) = &g.nodes()[0].op else {
            panic!()
        };
        assert!(
            bn.running_mean.data()[0] > 0.3,
            "running mean moved toward 5.0"
        );
    }

    #[test]
    fn builder_validates_arity_and_order() {
        let mut b = GraphBuilder::new(&[1, 2, 2]);
        let input = b.input();
        let r = b.relu("r", input);
        let _ = r;
        let g = b.build();
        assert_eq!(g.nodes().len(), 1);
        assert_eq!(g.num_parameters(), 0);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn builder_rejects_wrong_arity() {
        let mut b = GraphBuilder::new(&[1, 2, 2]);
        b.push("bad", Op::Add, &[Src::Input]);
    }

    #[test]
    fn param_order_is_stable_between_accessors() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = tiny_cnn(&mut rng);
        let shapes_ro: Vec<Vec<usize>> = g
            .param_tensors()
            .iter()
            .map(|t| t.shape().dims().to_vec())
            .collect();
        let shapes_mut: Vec<Vec<usize>> = g
            .param_tensors_mut()
            .iter()
            .map(|t| t.shape().dims().to_vec())
            .collect();
        assert_eq!(shapes_ro, shapes_mut);
    }
}
