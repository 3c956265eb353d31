//! Reusable forward-pass buffers: the allocation-free inference hot path.
//!
//! [`Graph::forward`] allocates one output tensor per node on every call,
//! which dominates the cost of repeated single-image inference (the
//! measurement loop of the HPC detector runs the same graph thousands of
//! times). A [`Workspace`] preallocates every per-node activation buffer,
//! the max-pool index records, and the conv2d im2col scratch once;
//! [`Graph::forward_with`] then fills them in place with zero heap traffic.
//!
//! Numerically the two paths are identical: each allocating kernel in
//! `advhunter_tensor::ops` is a thin wrapper over its `_into` variant, so
//! `forward` is literally `forward_with` over fresh buffers.

use std::ops::Range;

use advhunter_tensor::ops::{
    avgpool2d_into, conv2d_into, conv2d_packed_into, dwconv2d_into, global_avgpool_into,
    leaky_relu_into, linear_into, linear_packed_into, maxpool2d_into, relu_into, sigmoid_into,
    silu_into, tanh_into, Conv2dScratch, MaxPoolIndices,
};
use advhunter_tensor::Tensor;

use crate::graph::{
    batchnorm_forward_into, bn_batch_stats, concat_channels_into, image_slices,
    scale_channels_into, set_batch_stats, Aux, Graph, Mode, Op, Src,
};
use crate::kernels::{MatKernels, NodeKernel};

/// Preallocated per-node buffers for repeated forward passes over a fixed
/// graph and input shape.
///
/// Build one with [`Graph::workspace`] and reuse it across calls to
/// [`Graph::forward_with`]; after a pass, [`Workspace::output`] and
/// [`Workspace::node_output`] expose the activations without copying them
/// out.
///
/// # Example
///
/// ```
/// use advhunter_nn::{GraphBuilder, Mode};
/// use advhunter_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut b = GraphBuilder::new(&[1, 4, 4]);
/// let input = b.input();
/// let f = b.flatten("flat", input);
/// b.linear("fc", f, 2, &mut rng);
/// let g = b.build();
///
/// let mut ws = g.workspace(1);
/// let image = Tensor::zeros(&[1, 4, 4]); // CHW: a batch of one
/// g.forward_with(&image, Mode::Eval, &mut ws);
/// assert_eq!(ws.output().shape().dims(), &[1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Workspace {
    pub(crate) batch: usize,
    pub(crate) input_chw: Vec<usize>,
    pub(crate) outputs: Vec<Tensor>,
    pub(crate) aux: Vec<Aux>,
    /// The convolutions' im2col and depthwise scratch, one for every
    /// convolution.
    pub(crate) conv_scratch: Conv2dScratch,
}

impl Workspace {
    /// The batch size the buffers are sized for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The output buffer of node `i` (valid after a forward pass).
    pub fn node_output(&self, i: usize) -> &Tensor {
        &self.outputs[i]
    }

    /// The final output — the last node's buffer (valid after a forward
    /// pass).
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty.
    pub fn output(&self) -> &Tensor {
        self.outputs.last().expect("graph has at least one node")
    }
}

impl Graph {
    /// Allocates a [`Workspace`] for `batch`-sized forward passes over this
    /// graph's declared input shape.
    pub fn workspace(&self, batch: usize) -> Workspace {
        self.workspace_for(batch, self.input_dims())
    }

    /// Allocates a workspace for an arbitrary CHW input shape (used by
    /// [`Graph::forward`] to honor whatever shape the caller actually
    /// passes).
    pub(crate) fn workspace_for(&self, batch: usize, input_chw: &[usize]) -> Workspace {
        let shapes = self.shapes_for(input_chw);
        let n = self.nodes().len();
        let mut outputs = Vec::with_capacity(n);
        let mut aux = Vec::with_capacity(n);
        let mut conv_scratch = Conv2dScratch::default();
        for (node, shape) in self.nodes().iter().zip(shapes.iter()) {
            let mut dims = Vec::with_capacity(shape.len() + 1);
            dims.push(batch);
            dims.extend_from_slice(shape);
            outputs.push(Tensor::zeros(&dims));
            aux.push(Aux::None);
            let in_shape: &[usize] = match node.inputs.first() {
                Some(Src::Node(j)) => &shapes[*j],
                _ => input_chw,
            };
            match (&node.op, in_shape) {
                (Op::Conv2d(l), &[c, h, w]) => conv_scratch.reserve(c, h, w, &l.spec),
                (Op::DwConv2d(l), &[_, h, w]) => conv_scratch.reserve_depthwise(h, w, &l.spec),
                (Op::Conv2d(_) | Op::DwConv2d(_), _) => {
                    panic!("conv input must be CHW, got {in_shape:?}")
                }
                _ => {}
            }
        }
        Workspace {
            batch,
            input_chw: input_chw.to_vec(),
            outputs,
            aux,
            conv_scratch,
        }
    }

    /// Runs the graph on `x`, writing every node output into `ws` instead
    /// of allocating. `x` is an NCHW batch or a single CHW image (treated
    /// as a batch of one — its flat data is already in batch layout).
    ///
    /// Produces bit-for-bit the same activations as [`Graph::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `x`'s shape does not match what `ws` was sized for, or if
    /// shapes are inconsistent with the model definition.
    pub fn forward_with(&self, x: &Tensor, mode: Mode, ws: &mut Workspace) {
        self.forward_impl(x, mode, ws, None);
    }

    /// [`Graph::forward_with`] with the matrix nodes dispatched through
    /// pre-packed panel kernels. Bit-for-bit the same activations as the
    /// reference path for every variant choice; nodes without a kernel in
    /// `kernels` fall back to the reference loops.
    ///
    /// # Panics
    ///
    /// Panics on the same shape mismatches as [`Graph::forward_with`], or
    /// if `kernels` was packed for a different graph.
    pub fn forward_with_kernels(
        &self,
        x: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
        kernels: &MatKernels,
    ) {
        self.forward_impl(x, mode, ws, Some(kernels));
    }

    fn forward_impl(
        &self,
        x: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
        kernels: Option<&MatKernels>,
    ) {
        let dims = x.shape().dims();
        let (batch, chw): (usize, &[usize]) = match dims.len() {
            3 => (1, dims),
            4 => (dims[0], &dims[1..]),
            _ => panic!("graph input must be NCHW or CHW, got {:?}", x.shape()),
        };
        assert_eq!(batch, ws.batch, "workspace sized for a different batch");
        assert_eq!(
            chw,
            ws.input_chw.as_slice(),
            "workspace sized for a different input shape"
        );
        for i in 0..self.nodes().len() {
            if mode == Mode::Train && matches!(self.nodes()[i].op, Op::BatchNorm2d(_)) {
                let x = self.node_input(x, ws, i);
                let (_, c, h, w) = x.shape().as_nchw();
                let (mean, var) = bn_batch_stats(&image_slices([x]), (c, h * w), 0..c);
                ws.set_batch_stats(i, &mean, &var);
            }
            self.forward_span(x, mode, ws, kernels, i..i + 1);
        }
    }

    /// The first input of node `i` in a pass over `x` into `ws`.
    pub(crate) fn node_input<'a>(&self, x: &'a Tensor, ws: &'a Workspace, i: usize) -> &'a Tensor {
        match self.nodes()[i].inputs[0] {
            Src::Input => x,
            Src::Node(j) => &ws.outputs[j],
        }
    }

    /// Runs nodes `span` of a pass over `x` into `ws`, whose earlier nodes
    /// already hold their outputs. A train-mode batch norm in `span`
    /// normalizes with the batch statistics stored in `ws` by
    /// [`Workspace::set_batch_stats`]: those of this batch alone, or of a
    /// whole batch `ws` holds a shard of.
    pub(crate) fn forward_span(
        &self,
        x: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
        kernels: Option<&MatKernels>,
        span: Range<usize>,
    ) {
        for i in span {
            let node = &self.nodes()[i];
            let (done, rest) = ws.outputs.split_at_mut(i);
            let out = &mut rest[0];
            let mut ins: [&Tensor; 2] = [x; 2];
            for (slot, src) in ins.iter_mut().zip(node.inputs.iter()) {
                *slot = match src {
                    Src::Input => x,
                    Src::Node(j) => &done[*j],
                };
            }
            forward_op_into(
                &node.op,
                &ins[..node.inputs.len()],
                out,
                &mut ws.aux[i],
                &mut ws.conv_scratch,
                mode,
                kernels.and_then(|k| k.node(i)),
            );
        }
    }
}

impl Workspace {
    /// Re-sizes every buffer for `batch`-image passes in place: a smaller
    /// batch keeps the allocations, so going back up to the batch they
    /// were made for allocates nothing.
    pub(crate) fn set_batch(&mut self, batch: usize) {
        for out in &mut self.outputs {
            set_batch_dim(out, batch);
        }
        self.batch = batch;
    }

    /// Stores the batch mean and variance of batch-norm node `i` for a
    /// train-mode pass.
    pub(crate) fn set_batch_stats(&mut self, i: usize, mean: &[f32], var: &[f32]) {
        set_batch_stats(&mut self.aux[i], mean, var);
    }
}

/// Gives the batch tensor `t` `batch` images, reusing its buffer (the
/// contents are unspecified).
pub(crate) fn set_batch_dim(t: &mut Tensor, batch: usize) {
    let dims = t.shape().dims();
    if dims[0] == batch {
        return;
    }
    let mut dims = dims.to_vec();
    dims[0] = batch;
    let mut buf = std::mem::replace(t, Tensor::zeros(&[0])).into_vec();
    buf.resize(dims.iter().product(), 0.0);
    *t = Tensor::from_vec(buf, &dims).expect("buffer resized to the shape");
}

fn forward_op_into(
    op: &Op,
    ins: &[&Tensor],
    out: &mut Tensor,
    aux: &mut Aux,
    scratch: &mut Conv2dScratch,
    mode: Mode,
    kernel: Option<&NodeKernel>,
) {
    match op {
        Op::Conv2d(l) => {
            match kernel {
                Some(k) => conv2d_packed_into(ins[0], &k.packed, &l.bias, &l.spec, scratch, out),
                None => conv2d_into(ins[0], &l.weight.tensor(), &l.bias, &l.spec, scratch, out),
            }
            *aux = Aux::None;
        }
        Op::DwConv2d(l) => {
            dwconv2d_into(ins[0], &l.weight, &l.bias, &l.spec, scratch, out);
            *aux = Aux::None;
        }
        Op::Linear(l) => {
            match kernel {
                Some(k) => linear_packed_into(ins[0], &k.packed, &l.bias, out),
                None => linear_into(ins[0], &l.weight.tensor(), &l.bias, out),
            }
            *aux = Aux::None;
        }
        Op::BatchNorm2d(bn) => {
            batchnorm_forward_into(bn, ins[0], mode, out, aux);
        }
        Op::ReLU => {
            relu_into(ins[0], out);
            *aux = Aux::None;
        }
        Op::LeakyReLU { alpha } => {
            leaky_relu_into(ins[0], *alpha, out);
            *aux = Aux::None;
        }
        Op::SiLU => {
            silu_into(ins[0], out);
            *aux = Aux::None;
        }
        Op::Sigmoid => {
            sigmoid_into(ins[0], out);
            *aux = Aux::None;
        }
        Op::Tanh => {
            tanh_into(ins[0], out);
            *aux = Aux::None;
        }
        Op::MaxPool2d { k, s } => {
            // Reuse the index record across passes; allocate it lazily the
            // first time this slot runs a max-pool.
            if !matches!(aux, Aux::MaxPool(_)) {
                *aux = Aux::MaxPool(MaxPoolIndices::empty());
            }
            let Aux::MaxPool(idx) = aux else {
                unreachable!("slot was just set to Aux::MaxPool");
            };
            maxpool2d_into(ins[0], *k, *s, out, idx);
        }
        Op::AvgPool2d { k, s } => {
            avgpool2d_into(ins[0], *k, *s, out);
            *aux = Aux::None;
        }
        Op::GlobalAvgPool => {
            global_avgpool_into(ins[0], out);
            *aux = Aux::None;
        }
        Op::Flatten => {
            assert_eq!(out.len(), ins[0].len(), "flatten buffer size mismatch");
            out.data_mut().copy_from_slice(ins[0].data());
            *aux = Aux::None;
        }
        Op::Add => {
            assert_eq!(
                ins[0].len(),
                ins[1].len(),
                "add requires matching operand sizes"
            );
            assert_eq!(out.len(), ins[0].len(), "add output buffer size mismatch");
            let (a, b) = (ins[0].data(), ins[1].data());
            for (o, (&x, &y)) in out.data_mut().iter_mut().zip(a.iter().zip(b)) {
                *o = x + y;
            }
            *aux = Aux::None;
        }
        Op::ConcatChannels => {
            concat_channels_into(ins[0], ins[1], out);
            *aux = Aux::None;
        }
        Op::ScaleChannels => {
            scale_channels_into(ins[0], ins[1], out);
            *aux = Aux::None;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{GraphBuilder, Mode};
    use advhunter_tensor::{init, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn zoo_graph(rng: &mut StdRng) -> crate::Graph {
        let mut b = GraphBuilder::new(&[2, 8, 8]);
        let input = b.input();
        let c1 = b.conv2d("c1", input, 4, 3, 1, 1, rng);
        let bn = b.batchnorm("bn", c1);
        let s1 = b.silu("s1", bn);
        let d1 = b.dwconv2d("d1", s1, 3, 1, 1, rng);
        let a = b.add("a", s1, d1);
        let p = b.maxpool("p", a, 2, 2);
        let q = b.avgpool("q", a, 2, 2);
        let cat = b.concat("cat", p, q);
        let gap = b.global_avgpool("gap", cat);
        let fc = b.linear("fc", gap, 8, &mut *rng);
        let sg = b.sigmoid("sg", fc);
        let sc = b.scale_channels("sc", cat, sg);
        let t = b.tanh("t", sc);
        let lr = b.leaky_relu("lr", t, 0.1);
        let f = b.flatten("f", lr);
        b.linear("head", f, 3, rng);
        b.build()
    }

    #[test]
    fn forward_with_matches_forward_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = zoo_graph(&mut rng);
        let x = init::normal(&mut rng, &[3, 2, 8, 8], 0.0, 1.0);

        let trace = g.forward(&x, Mode::Eval);
        let mut ws = g.workspace(3);
        // Run twice to prove buffer reuse leaves no residue.
        g.forward_with(&x, Mode::Eval, &mut ws);
        g.forward_with(&x, Mode::Eval, &mut ws);

        for i in 0..g.nodes().len() {
            assert_eq!(
                trace.node_output(i).data(),
                ws.node_output(i).data(),
                "node {i} ({}) diverged",
                g.nodes()[i].name
            );
            assert_eq!(trace.node_output(i).shape(), ws.node_output(i).shape());
        }
    }

    #[test]
    fn chw_image_matches_batch_of_one() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = zoo_graph(&mut rng);
        let img = init::uniform(&mut rng, &[2, 8, 8], 0.0, 1.0);
        let batch = img.reshape(&[1, 2, 8, 8]);

        let trace = g.forward(&batch, Mode::Eval);
        let mut ws = g.workspace(1);
        g.forward_with(&img, Mode::Eval, &mut ws);
        assert_eq!(trace.output().data(), ws.output().data());
    }

    #[test]
    fn train_mode_forward_with_matches_forward() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = zoo_graph(&mut rng);
        let x = init::normal(&mut rng, &[4, 2, 8, 8], 0.0, 1.0);

        let trace = g.forward(&x, Mode::Train);
        let mut ws = g.workspace(4);
        g.forward_with(&x, Mode::Train, &mut ws);
        assert_eq!(trace.output().data(), ws.output().data());
    }

    #[test]
    #[should_panic(expected = "workspace sized for a different batch")]
    fn mismatched_batch_is_rejected() {
        let mut rng = StdRng::seed_from_u64(14);
        let g = zoo_graph(&mut rng);
        let mut ws = g.workspace(2);
        g.forward_with(&Tensor::zeros(&[3, 2, 8, 8]), Mode::Eval, &mut ws);
    }

    #[test]
    fn an_s1_serving_workspace_reserves_the_depthwise_forward_alone() {
        use advhunter_tensor::ops::{Conv2dScratch, Conv2dSpec};
        let spec = crate::spec::GraphSpec::parse(include_str!("../../../specs/s1.ahg"))
            .expect("S1 parses");
        let graph = spec
            .build_graph(&mut crate::ZeroWeights)
            .expect("S1 compiles");
        let ws = graph.workspace(1);
        // S1's depthwise layers: mb1.dw (32 channels, 28x28, stride 2) and
        // mb2.dw (48 channels, 14x14, stride 1).
        let reserved = |reserve: fn(&mut Conv2dScratch, usize, usize, &Conv2dSpec)| {
            let mut scratch = Conv2dScratch::default();
            reserve(&mut scratch, 28, 28, &Conv2dSpec::new(32, 32, 3, 2, 1));
            reserve(&mut scratch, 14, 14, &Conv2dSpec::new(48, 48, 3, 1, 1));
            scratch.depthwise_len()
        };
        let forward = reserved(Conv2dScratch::reserve_depthwise);
        assert_eq!(ws.conv_scratch.depthwise_len(), forward);
        // The filter gradient, which only training's filter-gradient tasks
        // compute, would need over four times as much.
        assert_eq!(forward, 1800);
        assert_eq!(reserved(Conv2dScratch::reserve_depthwise_param_grad), 7912);
    }
}
