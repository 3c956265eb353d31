//! The computation graph: ops, forward traces, and backpropagation.

use advhunter_runtime::Parallelism;
use advhunter_tensor::ops::{
    avgpool2d_backward, conv2d_backward, conv2d_param_backward, dwconv2d_backward,
    global_avgpool_backward, leaky_relu_backward, linear_backward, maxpool2d_backward,
    relu_backward, sigmoid_backward, silu_backward, tanh_backward, Conv2dSpec, MaxPoolIndices,
};
use advhunter_tensor::{init, Tensor};
use rand::Rng;

use crate::{MatKernels, Workspace};

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
    pub weight: Tensor,
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
    pub weight: Tensor,
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

    /// Whether the op holds trainable parameters.
    fn has_params(&self) -> bool {
        matches!(
            self,
            Op::Conv2d(_) | Op::DwConv2d(_) | Op::Linear(_) | Op::BatchNorm2d(_)
        )
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
    /// Batch-norm cache: per-channel batch mean, batch variance and the
    /// normalized activations (train mode only).
    BatchNorm {
        /// Batch mean per channel.
        mean: Vec<f32>,
        /// Batch (biased) variance per channel.
        var: Vec<f32>,
        /// Normalized activations `x̂`.
        xhat: Tensor,
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

    /// The workspace the pass ran in, for the next pass of the same batch
    /// size (see [`Graph::forward_packed`]).
    pub fn into_workspace(self) -> Workspace {
        self.ws
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
        flatten_params(&self.params)
    }
}

/// Per-node parameter gradients flattened like [`Gradients::flat`].
pub(crate) fn flatten_params(params: &[Option<ParamGrad>]) -> Vec<&Tensor> {
    params
        .iter()
        .flatten()
        .flat_map(|pg| [&pg.weight, &pg.bias])
        .collect()
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

    /// [`Graph::forward`] into `ws` (from [`Graph::workspace`] or a
    /// previous trace's [`ForwardTrace::into_workspace`]), with the matrix
    /// nodes dispatched through `kernels` and each convolution's images
    /// fanned out over `parallelism`: the training forward pass, which
    /// reuses one batch's buffers for the next. Every kernel overwrites
    /// its whole output, so the trace is bit-for-bit that of
    /// [`Graph::forward`] for any variant choice and worker count.
    ///
    /// # Panics
    ///
    /// Panics on the same shape mismatches as [`Graph::forward_with`], or
    /// if `kernels` was packed for a different graph.
    pub fn forward_packed(
        &self,
        x: Tensor,
        mode: Mode,
        kernels: &MatKernels,
        parallelism: &Parallelism,
        mut ws: Workspace,
    ) -> ForwardTrace {
        ws.parallelism = *parallelism;
        self.forward_with_kernels(&x, mode, &mut ws, kernels);
        ForwardTrace { input: x, ws, mode }
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
    /// # Panics
    ///
    /// Panics if `grad_output`'s shape differs from the trace's final output.
    pub fn backward(&self, trace: &ForwardTrace, grad_output: &Tensor) -> Gradients {
        self.backward_with(trace, grad_output, &Parallelism::sequential())
    }

    /// [`Graph::backward`] with the convolution and fully-connected
    /// gradients fanned out over `parallelism`. Every cross-image sum is
    /// still taken on the calling thread in ascending image order, so the
    /// gradients are bit-for-bit those of [`Graph::backward`] at any worker
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `grad_output`'s shape differs from the trace's final output.
    pub fn backward_with(
        &self,
        trace: &ForwardTrace,
        grad_output: &Tensor,
        parallelism: &Parallelism,
    ) -> Gradients {
        let (input, params) = self.backward_impl(trace, grad_output, parallelism, true);
        let input = input.unwrap_or_else(|| Tensor::zeros(trace.input.shape().dims()));
        Gradients { input, params }
    }

    /// The parameter gradients of [`Graph::backward_with`], bit for bit,
    /// without the gradient with respect to the graph input: what a
    /// training step needs.
    ///
    /// Gradients that reach no parameter are not computed: nodes upstream
    /// of every parameter are skipped, and a convolution reading the graph
    /// input computes only its filter and bias gradients. Other
    /// parameterized nodes on the input still compute their input gradient
    /// and drop it.
    ///
    /// # Panics
    ///
    /// Panics if `grad_output`'s shape differs from the trace's final output.
    pub fn param_gradients(
        &self,
        trace: &ForwardTrace,
        grad_output: &Tensor,
        parallelism: &Parallelism,
    ) -> Vec<Option<ParamGrad>> {
        self.backward_impl(trace, grad_output, parallelism, false).1
    }

    /// The one backward loop: per-node parameter gradients, plus the input
    /// gradient when `input_grad` is set.
    fn backward_impl(
        &self,
        trace: &ForwardTrace,
        grad_output: &Tensor,
        parallelism: &Parallelism,
        input_grad: bool,
    ) -> (Option<Tensor>, Vec<Option<ParamGrad>>) {
        assert_eq!(
            grad_output.shape(),
            trace.output().shape(),
            "grad_output shape mismatch"
        );
        let n_nodes = self.nodes.len();
        // Whether the gradient of a node's output reaches a parameter or,
        // with `input_grad`, the graph input.
        let mut wanted: Vec<bool> = Vec::with_capacity(n_nodes);
        for node in &self.nodes {
            let reaches = node.op.has_params()
                || node.inputs.iter().any(|src| match src {
                    Src::Input => input_grad,
                    Src::Node(j) => wanted[*j],
                });
            wanted.push(reaches);
        }
        let src_wanted = |src: &Src| match src {
            Src::Input => input_grad,
            Src::Node(j) => wanted[*j],
        };
        let mut node_grads: Vec<Option<Tensor>> = vec![None; n_nodes];
        let mut input = None;
        node_grads[n_nodes - 1] = Some(grad_output.clone());
        let mut params: Vec<Option<ParamGrad>> = vec![None; n_nodes];

        for i in (0..n_nodes).rev() {
            let Some(gout) = node_grads[i].take() else {
                continue;
            };
            if !wanted[i] {
                continue;
            }
            let node = &self.nodes[i];
            let ins: Vec<&Tensor> = node
                .inputs
                .iter()
                .map(|src| match src {
                    Src::Input => &trace.input,
                    Src::Node(j) => &trace.ws.outputs[*j],
                })
                .collect();
            let (input_grads, pgrad) = backward_op(
                &node.op,
                &ins,
                &trace.ws.outputs[i],
                &trace.ws.aux[i],
                &gout,
                trace.mode,
                parallelism,
                node.inputs.iter().any(src_wanted),
            );
            params[i] = pgrad;
            let grads = node.inputs.iter().zip(input_grads);
            for (src, g) in grads.filter(|(src, _)| src_wanted(src)) {
                match src {
                    Src::Input => accumulate(&mut input, g),
                    Src::Node(j) => accumulate(&mut node_grads[*j], g),
                }
            }
        }
        (input, params)
    }

    /// Mutable references to every parameter tensor, in node order (weight
    /// before bias / γ before β). This is the order optimizers and the
    /// weight file format use.
    pub fn param_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        let mut out: Vec<&mut Tensor> = Vec::new();
        for node in &mut self.nodes {
            match &mut node.op {
                Op::Conv2d(l) => {
                    out.push(&mut l.weight);
                    out.push(&mut l.bias);
                }
                Op::DwConv2d(l) => {
                    out.push(&mut l.weight);
                    out.push(&mut l.bias);
                }
                Op::Linear(l) => {
                    out.push(&mut l.weight);
                    out.push(&mut l.bias);
                }
                Op::BatchNorm2d(bn) => {
                    out.push(&mut bn.gamma);
                    out.push(&mut bn.beta);
                }
                _ => {}
            }
        }
        out
    }

    /// Immutable view of every parameter tensor, in the same order as
    /// [`param_tensors_mut`](Self::param_tensors_mut).
    pub fn param_tensors(&self) -> Vec<&Tensor> {
        let mut out: Vec<&Tensor> = Vec::new();
        for node in &self.nodes {
            match &node.op {
                Op::Conv2d(l) => {
                    out.push(&l.weight);
                    out.push(&l.bias);
                }
                Op::DwConv2d(l) => {
                    out.push(&l.weight);
                    out.push(&l.bias);
                }
                Op::Linear(l) => {
                    out.push(&l.weight);
                    out.push(&l.bias);
                }
                Op::BatchNorm2d(bn) => {
                    out.push(&bn.gamma);
                    out.push(&bn.beta);
                }
                _ => {}
            }
        }
        out
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
        self.param_tensors().iter().map(|t| t.len()).sum()
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
            let params: usize = match &node.op {
                Op::Conv2d(l) => l.weight.len() + l.bias.len(),
                Op::DwConv2d(l) => l.weight.len() + l.bias.len(),
                Op::Linear(l) => l.weight.len() + l.bias.len(),
                Op::BatchNorm2d(bn) => bn.gamma.len() + bn.beta.len(),
                _ => 0,
            };
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
        for (node, aux) in self.nodes.iter_mut().zip(trace.ws.aux.iter()) {
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

/// One node's backward pass: the gradient of each input and of the
/// node's parameters. Without `input_grads` a convolution returns no input
/// gradients at all; every other op ignores the flag.
#[allow(clippy::too_many_arguments)]
fn backward_op(
    op: &Op,
    ins: &[&Tensor],
    output: &Tensor,
    aux: &Aux,
    gout: &Tensor,
    mode: Mode,
    parallelism: &Parallelism,
    input_grads: bool,
) -> (Vec<Tensor>, Option<ParamGrad>) {
    match op {
        Op::Conv2d(l) if !input_grads => {
            let (gw, gb) = conv2d_param_backward(ins[0], &l.weight, gout, &l.spec, parallelism);
            (
                Vec::new(),
                Some(ParamGrad {
                    weight: gw,
                    bias: gb,
                }),
            )
        }
        Op::Conv2d(l) => {
            let (gx, gw, gb) = conv2d_backward(ins[0], &l.weight, gout, &l.spec, parallelism);
            (
                vec![gx],
                Some(ParamGrad {
                    weight: gw,
                    bias: gb,
                }),
            )
        }
        Op::DwConv2d(l) => {
            let (gx, gw, gb) = dwconv2d_backward(ins[0], &l.weight, gout, &l.spec, parallelism);
            (
                vec![gx],
                Some(ParamGrad {
                    weight: gw,
                    bias: gb,
                }),
            )
        }
        Op::Linear(l) => {
            let (gx, gw, gb) = linear_backward(ins[0], &l.weight, gout, parallelism);
            (
                vec![gx],
                Some(ParamGrad {
                    weight: gw,
                    bias: gb,
                }),
            )
        }
        Op::BatchNorm2d(bn) => batchnorm_backward(bn, ins[0], aux, gout, mode),
        Op::ReLU => (vec![relu_backward(ins[0], gout)], None),
        Op::LeakyReLU { alpha } => (vec![leaky_relu_backward(ins[0], gout, *alpha)], None),
        Op::SiLU => (vec![silu_backward(ins[0], gout, parallelism)], None),
        Op::Sigmoid => (vec![sigmoid_backward(output, gout)], None),
        Op::Tanh => (vec![tanh_backward(output, gout)], None),
        Op::MaxPool2d { .. } => {
            let Aux::MaxPool(idx) = aux else {
                panic!("max-pool node missing its index cache");
            };
            (vec![maxpool2d_backward(gout, idx)], None)
        }
        Op::AvgPool2d { k, s } => {
            let dims = ins[0].shape().as_nchw();
            (vec![avgpool2d_backward(gout, dims, *k, *s)], None)
        }
        Op::GlobalAvgPool => {
            let dims = ins[0].shape().as_nchw();
            (vec![global_avgpool_backward(gout, dims)], None)
        }
        Op::Flatten => (vec![gout.reshape(ins[0].shape().dims())], None),
        Op::Add => (vec![gout.clone(), gout.clone()], None),
        Op::ConcatChannels => {
            let (ga, gb) = concat_channels_backward(ins[0], ins[1], gout);
            (vec![ga, gb], None)
        }
        Op::ScaleChannels => {
            let (gx, gs) = scale_channels_backward(ins[0], ins[1], gout);
            (vec![gx, gs], None)
        }
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
    batchnorm_forward_into(bn, x, mode, &mut out, &mut aux);
    (out, aux)
}

/// [`BatchNorm2d`] forward into a caller-provided buffer; every output
/// element is assigned. Leaves in `aux` the state backward needs: batch
/// statistics and `x̂` in train mode, reusing the buffers a previous
/// train-mode pass left there, nothing in eval mode.
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
            let (mut mean, mut var, mut xhat) = match std::mem::replace(aux, Aux::None) {
                Aux::BatchNorm { mean, var, xhat } if xhat.shape() == x.shape() => {
                    (mean, var, xhat)
                }
                _ => (vec![0.0; c], vec![0.0; c], Tensor::zeros(&[n, c, h, w])),
            };
            let xd = x.data();
            let mut ch = 0;
            while ch < c {
                if c - ch >= BN_LANES {
                    batch_stats::<BN_LANES>(xd, (n, c, plane), ch, &mut mean, &mut var);
                    ch += BN_LANES;
                } else {
                    batch_stats::<1>(xd, (n, c, plane), ch, &mut mean, &mut var);
                    ch += 1;
                }
            }
            {
                let xh = xhat.data_mut();
                let od = out.data_mut();
                for ch in 0..c {
                    let inv = 1.0 / (var[ch] + bn.eps).sqrt();
                    let g = bn.gamma.data()[ch];
                    let b = bn.beta.data()[ch];
                    for img in 0..n {
                        let base = (img * c + ch) * plane;
                        for i in 0..plane {
                            let nx = (xd[base + i] - mean[ch]) * inv;
                            xh[base + i] = nx;
                            od[base + i] = nx * g + b;
                        }
                    }
                }
            }
            *aux = Aux::BatchNorm { mean, var, xhat };
        }
    }
}

/// Channels whose batch-norm sums run side by side, one lane each: the
/// sums are chains of dependent adds, so eight independent chains keep the
/// adder busy where one channel at a time waits on each add.
const BN_LANES: usize = 8;

/// Pixels loaded per channel plane at a time, so that the lanes fill from
/// vector loads rather than one scalar load per channel and pixel.
const BN_BLOCK: usize = 8;

/// Plane `img` of channels `ch0..ch0 + L` of an NCHW buffer.
fn channel_planes<const L: usize>(
    data: &[f32],
    (c, plane): (usize, usize),
    img: usize,
    ch0: usize,
) -> [&[f32]; L] {
    std::array::from_fn(|j| &data[(img * c + ch0 + j) * plane..][..plane])
}

/// Pixels `i..i + BN_BLOCK` of each plane, one lane array per pixel.
fn pixel_block<const L: usize>(planes: &[&[f32]; L], i: usize) -> [[f32; L]; BN_BLOCK] {
    let rows: [[f32; BN_BLOCK]; L] =
        planes.map(|p| p[i..i + BN_BLOCK].try_into().expect("block in bounds"));
    std::array::from_fn(|px| std::array::from_fn(|j| rows[j][px]))
}

/// Batch mean and biased variance of channels `ch0..ch0 + L`, each in its
/// own lane and in the order of a channel-at-a-time loop: the mean's total
/// starts at `+0.0` and adds every image's plane sum, which starts at `-0.0`
/// like `Iterator::sum`; the variance adds squared deviations image by
/// image, pixel by pixel, from `+0.0`.
fn batch_stats<const L: usize>(
    xd: &[f32],
    (n, c, plane): (usize, usize, usize),
    ch0: usize,
    mean: &mut [f32],
    var: &mut [f32],
) {
    let count = (n * plane) as f32;
    let full = plane - plane % BN_BLOCK;
    let mut total = [0.0f32; L];
    for img in 0..n {
        let xs = channel_planes::<L>(xd, (c, plane), img, ch0);
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
    for img in 0..n {
        let xs = channel_planes::<L>(xd, (c, plane), img, ch0);
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
    mean[ch0..ch0 + L].copy_from_slice(&m);
    var[ch0..ch0 + L].copy_from_slice(&v.map(|v| v / count));
}

/// `(Σ g, Σ g·x̂)` over the batch for channels `ch0..ch0 + L`, each in its
/// own lane, from `+0.0` in image, pixel order.
fn grad_sums<const L: usize>(
    gd: &[f32],
    xh: &[f32],
    (n, c, plane): (usize, usize, usize),
    ch0: usize,
    sum_g: &mut [f32],
    sum_gx: &mut [f32],
) {
    let full = plane - plane % BN_BLOCK;
    let (mut sg, mut sgx) = ([0.0f32; L], [0.0f32; L]);
    let mut add = |g: [f32; L], x: [f32; L]| {
        for j in 0..L {
            sg[j] += g[j];
            sgx[j] += g[j] * x[j];
        }
    };
    for img in 0..n {
        let gs = channel_planes::<L>(gd, (c, plane), img, ch0);
        let xs = channel_planes::<L>(xh, (c, plane), img, ch0);
        for i in (0..full).step_by(BN_BLOCK) {
            for (g, x) in pixel_block(&gs, i).into_iter().zip(pixel_block(&xs, i)) {
                add(g, x);
            }
        }
        for i in full..plane {
            add(gs.map(|g| g[i]), xs.map(|x| x[i]));
        }
    }
    sum_g[ch0..ch0 + L].copy_from_slice(&sg);
    sum_gx[ch0..ch0 + L].copy_from_slice(&sgx);
}

fn batchnorm_backward(
    bn: &BatchNorm2d,
    x: &Tensor,
    aux: &Aux,
    gout: &Tensor,
    mode: Mode,
) -> (Vec<Tensor>, Option<ParamGrad>) {
    let (n, c, h, w) = x.shape().as_nchw();
    let plane = h * w;
    match mode {
        Mode::Eval => {
            // y = γ (x − μ_r) / sqrt(σ²_r + ε) + β is affine in x.
            let mut gx = Tensor::zeros(&[n, c, h, w]);
            let mut ggamma = Tensor::zeros(&[c]);
            let mut gbeta = Tensor::zeros(&[c]);
            let gd = gout.data();
            let xd = x.data();
            let gxd = gx.data_mut();
            for ch in 0..c {
                let inv = 1.0 / (bn.running_var.data()[ch] + bn.eps).sqrt();
                let g = bn.gamma.data()[ch] * inv;
                let mu = bn.running_mean.data()[ch];
                let mut sg = 0.0;
                let mut sb = 0.0;
                for img in 0..n {
                    let base = (img * c + ch) * plane;
                    for i in 0..plane {
                        gxd[base + i] = gd[base + i] * g;
                        sg += gd[base + i] * (xd[base + i] - mu) * inv;
                        sb += gd[base + i];
                    }
                }
                ggamma.data_mut()[ch] = sg;
                gbeta.data_mut()[ch] = sb;
            }
            (
                vec![gx],
                Some(ParamGrad {
                    weight: ggamma,
                    bias: gbeta,
                }),
            )
        }
        Mode::Train => {
            let Aux::BatchNorm { var, xhat, .. } = aux else {
                panic!("batch-norm node missing its cache");
            };
            let count = (n * plane) as f32;
            let gd = gout.data();
            let xh = xhat.data();
            let mut gx = Tensor::zeros(&[n, c, h, w]);
            let mut ggamma = Tensor::zeros(&[c]);
            let mut gbeta = Tensor::zeros(&[c]);
            let mut ch = 0;
            while ch < c {
                let (sum_g, sum_gx) = (gbeta.data_mut(), ggamma.data_mut());
                if c - ch >= BN_LANES {
                    grad_sums::<BN_LANES>(gd, xh, (n, c, plane), ch, sum_g, sum_gx);
                    ch += BN_LANES;
                } else {
                    grad_sums::<1>(gd, xh, (n, c, plane), ch, sum_g, sum_gx);
                    ch += 1;
                }
            }
            let gxd = gx.data_mut();
            for (ch, &var_ch) in var.iter().enumerate().take(c) {
                let inv = 1.0 / (var_ch + bn.eps).sqrt();
                let gamma = bn.gamma.data()[ch];
                let (sum_g, sum_gx) = (gbeta.data()[ch], ggamma.data()[ch]);
                let k1 = gamma * inv / count;
                for img in 0..n {
                    let base = (img * c + ch) * plane;
                    for i in 0..plane {
                        gxd[base + i] = k1 * (count * gd[base + i] - sum_g - xh[base + i] * sum_gx);
                    }
                }
            }
            (
                vec![gx],
                Some(ParamGrad {
                    weight: ggamma,
                    bias: gbeta,
                }),
            )
        }
    }
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

fn concat_channels_backward(a: &Tensor, b: &Tensor, gout: &Tensor) -> (Tensor, Tensor) {
    let (n, ca, h, w) = a.shape().as_nchw();
    let (_, cb, _, _) = b.shape().as_nchw();
    let plane = h * w;
    let mut ga = Tensor::zeros(a.shape().dims());
    let mut gb = Tensor::zeros(b.shape().dims());
    let gd = gout.data();
    for img in 0..n {
        let src = &gd[img * (ca + cb) * plane..(img + 1) * (ca + cb) * plane];
        ga.data_mut()[img * ca * plane..(img + 1) * ca * plane].copy_from_slice(&src[..ca * plane]);
        gb.data_mut()[img * cb * plane..(img + 1) * cb * plane].copy_from_slice(&src[ca * plane..]);
    }
    (ga, gb)
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

fn scale_channels_backward(x: &Tensor, s: &Tensor, gout: &Tensor) -> (Tensor, Tensor) {
    let (n, c, h, w) = x.shape().as_nchw();
    let plane = h * w;
    let mut gx = Tensor::zeros(&[n, c, h, w]);
    let mut gs = Tensor::zeros(&[n, c]);
    let xd = x.data();
    let sd = s.data();
    let gd = gout.data();
    let gxd = gx.data_mut();
    let gsd = gs.data_mut();
    for img in 0..n {
        for ch in 0..c {
            let scale = sd[img * c + ch];
            let base = (img * c + ch) * plane;
            let mut acc = 0.0;
            for i in 0..plane {
                gxd[base + i] = gd[base + i] * scale;
                acc += gd[base + i] * xd[base + i];
            }
            gsd[img * c + ch] = acc;
        }
    }
    (gx, gs)
}

/// Incrementally constructs a [`Graph`] in topological order.
///
/// Layer methods take the input node, initialize parameters from the given
/// RNG, and return the new node's id.
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
        rng: &mut impl Rng,
    ) -> Src {
        let in_channels = self.channels_of(input);
        let spec = Conv2dSpec::new(in_channels, out_channels, kernel, stride, padding);
        let fan_in = in_channels * kernel * kernel;
        let layer = Conv2dLayer {
            spec,
            weight: init::kaiming_normal(rng, &[out_channels, fan_in], fan_in),
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
        rng: &mut impl Rng,
    ) -> Src {
        let c = self.channels_of(input);
        let spec = Conv2dSpec::new(c, c, kernel, stride, padding);
        let fan_in = kernel * kernel;
        let layer = DwConv2dLayer {
            spec,
            weight: init::kaiming_normal(rng, &[c, fan_in], fan_in),
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
        rng: &mut impl Rng,
    ) -> Src {
        let in_features = self.features_of(input);
        let layer = LinearLayer {
            weight: init::xavier_uniform(
                rng,
                &[out_features, in_features],
                in_features,
                out_features,
            ),
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
        Op::Linear(l) => vec![l.weight.shape().dim(0)],
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
