//! Image shards: how [`crate::train::fit`] and [`crate::train::logits`]
//! run their batches on every crew member.
//!
//! A batch is cut into K = min(crew members, batch) contiguous shards whose
//! sizes differ by at most one image. Each shard owns its images, a
//! [`Workspace`] and its gradient buffers, kept from one step to the next
//! behind a lock of its own, so one crew, opened once per call, can run
//! every per-image op: each shard runs the ops of a chain of nodes one
//! after another, sequentially, with the shards side by side. The shards
//! are allocated once per call, for its largest batch; a smaller (ragged)
//! batch runs in a prefix of them, each shard using a prefix of its
//! buffers.
//!
//! A chain ends where a node needs the whole batch: a train-mode batch
//! norm, whose statistics forward and whose gradient sums backward run
//! over all shards, and the loss between the two passes. The parameter
//! gradients are whole-batch reductions too. Every such part reads the
//! shards in global image order and reduces in exactly the order of the
//! one-batch kernels, fanned out over channels, rows or nodes as crew
//! tasks, so the trained weights are bit-identical for any shard count.
//!
//! The optimizer step runs on the crew as well. A linear layer's weight is
//! kept, for the whole call, in blocks of [`ROW_BLOCK`] rows
//! ([`WeightBlock`]): each block's rows, panels and Adam moments, next to
//! the block's weight gradient. The forward pass and the input gradient
//! read the blocks, and one task per block updates its rows and repacks
//! its panels. Every other parameter is updated by one task per node,
//! with the node's tensors moved out of the graph for the run.
//!
//! Every buffer a shard needs is allocated on the calling thread when the
//! shards are cut: gradients live in slots that gradients never alive at
//! the same time share ([`GradSlots`]). Crew helpers allocate next to
//! nothing, so no memory settles in their allocator arenas.

use std::ops::{Deref, DerefMut, Range};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use advhunter_runtime::{with_crew, Crew, Parallelism};
use advhunter_telemetry::Histogram;
use advhunter_tensor::ops::{
    conv2d_sum_partials, conv2d_weight_partial_sum, conv2d_weight_partials,
    cross_entropy_with_logits, dwconv2d_param_grads, linear_bias_grad,
    linear_input_grad_blocks_into, linear_packed_bias_cols_into, linear_weight_grad_rows,
    Conv2dScratch, KernelVariant, PackedWeights,
};
use advhunter_tensor::Tensor;

use crate::graph::{
    argmax_rows, bn_batch_stats, bn_grad_sums, bn_silu_forward_into, bn_silu_input_grad_into,
    image_slices, Aux, BnNorm, OpGrad, BN_LANES,
};
use crate::train::AdamStep;
use crate::workspace::set_batch_dim;
use crate::{Graph, MatKernels, Mode, Node, Op, ParamGrad, Src, Workspace};

/// A pair of per-channel (or per-row) vectors: batch mean and variance,
/// or a node's primary and secondary parameter gradient.
type Pair = (Vec<f32>, Vec<f32>);

/// Rows of a linear layer's weight block ([`WeightBlock`]) and of its
/// weight-gradient task: a whole number of panels of either packed
/// variant the blocks use, so blocks split no panel.
const ROW_BLOCK: usize = 16;

/// Wall-time spans of the training passes in the global telemetry
/// registry; observational only, reading the clock only while telemetry is
/// enabled.
struct TrainMetrics {
    forward: Arc<Histogram>,
    backward: Arc<Histogram>,
    param_tasks: Arc<Histogram>,
    optimizer: Arc<Histogram>,
    shard_alloc: Arc<Histogram>,
}

fn train_metrics() -> &'static TrainMetrics {
    static METRICS: OnceLock<TrainMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = advhunter_telemetry::global();
        TrainMetrics {
            forward: r.histogram(
                "advhunter_train_forward_ns",
                "Wall time of one sharded forward pass, batch-norm statistics included",
            ),
            backward: r.histogram(
                "advhunter_train_backward_ns",
                "Wall time of one backward shard run over a chain of nodes",
            ),
            param_tasks: r.histogram(
                "advhunter_train_param_tasks_ns",
                "Wall time of one run of whole-batch parameter-gradient tasks",
            ),
            optimizer: r.histogram(
                "advhunter_train_optimizer_ns",
                "Wall time of one optimizer step on the crew",
            ),
            shard_alloc: r.histogram(
                "advhunter_train_shard_alloc_ns",
                "Wall time of allocating the image shards of one training or evaluation call",
            ),
        }
    })
}

fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One contiguous run of a batch's images and everything a pass keeps for
/// them.
#[derive(Debug)]
struct Shard {
    /// Position of the shard's first image in the batch.
    start: usize,
    /// The images, `[n, c, h, w]`.
    input: Tensor,
    ws: Workspace,
    /// During backward, the gradient of each node's output, held in its
    /// slot's buffer.
    grads: Vec<Option<Tensor>>,
    /// The gradient slots' buffers ([`GradSlots`]); a slot in use is empty.
    slots: Vec<Vec<f32>>,
    /// What a gradient added onto one already written is computed in.
    scratch: Vec<f32>,
    /// Each convolution's per-image parameter-gradient partials; the
    /// first shard's, summed in image order into one slot.
    partials: Vec<Vec<f32>>,
}

impl Shard {
    /// Node `j`'s gradient buffer, `dims`-shaped, taken from its slot.
    fn take_slot(slots: &mut [Vec<f32>], plan: &GradSlots, j: usize, dims: &[usize]) -> Tensor {
        let slot = plan.of[j].expect("a planned gradient");
        let mut buf = std::mem::take(&mut slots[slot]);
        buf.resize(dims.iter().product(), 0.0);
        Tensor::from_vec(buf, dims).expect("slot sized for the gradient")
    }

    /// Puts node `j`'s gradient buffer back into its slot.
    fn give(&mut self, plan: &GradSlots, j: usize, grad: Tensor) {
        self.slots[plan.of[j].expect("a planned gradient")] = grad.into_vec();
    }

    /// Hands every gradient of node `from` on back to its slot.
    fn release_grads(&mut self, plan: &GradSlots, from: usize) {
        for j in from..self.grads.len() {
            if let Some(grad) = self.grads[j].take() {
                self.give(plan, j, grad);
            }
        }
    }

    /// Makes the shard the `n` images from `start` of a batch, in the
    /// buffers it has.
    fn resize(&mut self, start: usize, n: usize) {
        self.start = start;
        set_batch_dim(&mut self.input, n);
        self.ws.set_batch(n);
    }

    /// Convolution `node`'s partials of the current images: the first
    /// shard's one summed slot, or one slot per image.
    fn partials(&self, node: usize, slot: usize) -> &[f32] {
        let slots = if self.start == 0 {
            1
        } else {
            self.input.shape().dim(0)
        };
        &self.partials[node][..slots * slot]
    }
}

/// Where a training step keeps each node's output gradient: in slots that
/// gradients never alive at the same time share, planned once by walking
/// the backward pass's order of use, and allocated with the shards.
#[derive(Debug)]
struct GradSlots {
    /// The slot of each node's output gradient, for the nodes that get one.
    of: Vec<Option<usize>>,
    /// Floats per image of each slot.
    per_image: Vec<usize>,
    /// Floats per image of [`Shard::scratch`].
    scratch: usize,
}

impl GradSlots {
    /// Follows [`Sharded::backward`]: the loss gradient arrives at the last
    /// node; each node processed, last first, writes the gradient of each
    /// wanted input, the first write into a new buffer and later ones
    /// through the scratch, and then frees its own, unless it keeps it
    /// until the next chain starts at a batch norm.
    fn plan(graph: &Graph, layout: &Layout) -> Self {
        let nodes = graph.nodes();
        let size: Vec<usize> = graph
            .single_image_shapes()
            .iter()
            .map(|dims| dims.iter().product())
            .collect();
        let mut plan = GradSlots {
            of: vec![None; nodes.len()],
            per_image: Vec::new(),
            scratch: 0,
        };
        let mut free: Vec<usize> = Vec::new();
        let mut kept: Vec<usize> = Vec::new();
        let take = |plan: &mut GradSlots, free: &mut Vec<usize>, j: usize| {
            let cap = |f: &usize| plan.per_image[free[*f]];
            let fits = (0..free.len())
                .filter(|f| cap(f) >= size[j])
                .min_by_key(cap);
            let slot = match fits.or_else(|| (0..free.len()).max_by_key(cap)) {
                Some(f) => free.swap_remove(f),
                None => {
                    plan.per_image.push(0);
                    plan.per_image.len() - 1
                }
            };
            plan.per_image[slot] = plan.per_image[slot].max(size[j]);
            plan.of[j] = Some(slot);
        };
        take(&mut plan, &mut free, nodes.len() - 1);
        for (i, node) in nodes.iter().enumerate().rev() {
            if layout.bn[i].is_some() {
                free.extend(kept.drain(..).filter_map(|j| plan.of[j]));
            }
            let Some(slot) = plan.of[i] else {
                continue;
            };
            let wanted = layout.wanted[i];
            for src in node.inputs.iter().filter(|_| wanted) {
                match *src {
                    Src::Node(j) if layout.wanted[j] && plan.of[j].is_some() => {
                        plan.scratch = plan.scratch.max(size[j]);
                    }
                    Src::Node(j) if layout.wanted[j] => take(&mut plan, &mut free, j),
                    _ => {}
                }
            }
            if wanted && keeps_grad(&node.op) {
                kept.push(i);
            } else {
                free.push(slot);
            }
        }
        plan
    }
}

/// Whether node `i` is a batch norm read only by node `i + 1`, a SiLU.
fn bn_silu_pair(nodes: &[Node], i: usize) -> bool {
    let readers = nodes
        .iter()
        .flat_map(|n| &n.inputs)
        .filter(|src| **src == Src::Node(i))
        .count();
    matches!(nodes[i].op, Op::BatchNorm2d(_))
        && readers == 1
        && nodes
            .get(i + 1)
            .is_some_and(|n| matches!(n.op, Op::SiLU) && n.inputs == [Src::Node(i)])
}

/// Whether a node of `op` keeps its output gradient after its own
/// backward, for the whole-batch parameter tasks of its chain.
fn keeps_grad(op: &Op) -> bool {
    matches!(op, Op::DwConv2d(_) | Op::Linear(_))
}

/// A call's shards: allocated once, for its largest batch, with the
/// current batch in a prefix of them.
#[derive(Debug)]
struct Shards {
    /// The largest batch the shards hold.
    capacity: usize,
    /// How many shards the current batch runs in, from the first.
    active: usize,
    shards: Vec<RwLock<Shard>>,
    /// The gradient slots of shards cut for training.
    slots: Option<GradSlots>,
}

impl Shards {
    /// Shards for batches of up to `capacity` images on `members` crew
    /// members, with the gradient slots, convolution partials and
    /// batch-norm statistics of training when `mode` is [`Mode::Train`].
    fn new(
        graph: &Graph,
        layout: &Layout,
        (capacity, members): (usize, usize),
        mode: Mode,
    ) -> Self {
        let _span = train_metrics().shard_alloc.span();
        let nodes = graph.nodes();
        let slots = (mode == Mode::Train).then(|| GradSlots::plan(graph, layout));
        let k = members.min(capacity).max(1);
        let mut start = 0;
        let shards = (0..k)
            .map(|i| {
                let n = capacity / k + usize::from(i < capacity % k);
                let mut dims = vec![n];
                dims.extend_from_slice(graph.input_dims());
                let mut shard = Shard {
                    start,
                    input: Tensor::zeros(&dims),
                    ws: graph.workspace(n),
                    grads: vec![None; nodes.len()],
                    slots: Vec::new(),
                    scratch: Vec::new(),
                    partials: vec![Vec::new(); nodes.len()],
                };
                if let Some(plan) = &slots {
                    shard.slots = plan.per_image.iter().map(|&f| vec![0.0; f * n]).collect();
                    shard.scratch = vec![0.0; plan.scratch * n];
                    for (j, node) in nodes.iter().enumerate() {
                        match &node.op {
                            Op::Conv2d(l) if layout.wanted[j] => {
                                let slots = if start == 0 { 1 } else { n };
                                shard.partials[j] = vec![0.0; slots * l.spec.partial_len()];
                                let x = graph.node_input(&shard.input, &shard.ws, j);
                                let (_, c, h, w) = x.shape().as_nchw();
                                shard.ws.conv_scratch.reserve_backward(c, h, w, &l.spec);
                            }
                            // Its input gradient is computed only for a
                            // chain that reaches a parameter.
                            Op::DwConv2d(l)
                                if matches!(node.inputs[0], Src::Node(k) if layout.wanted[k]) =>
                            {
                                let x = graph.node_input(&shard.input, &shard.ws, j);
                                let (_, _, h, w) = x.shape().as_nchw();
                                shard.ws.conv_scratch.reserve_depthwise_input_grad(h, w, &l.spec);
                            }
                            Op::BatchNorm2d(bn) => {
                                let zeros = vec![0.0; bn.gamma.len()];
                                shard.ws.set_batch_stats(j, &zeros, &zeros);
                            }
                            _ => {}
                        }
                    }
                }
                start += n;
                RwLock::new(shard)
            })
            .collect();
        Self {
            capacity,
            active: k,
            shards,
            slots,
        }
    }

    /// Cuts a batch of `batch` images into the first min(shards, batch)
    /// shards, sizes differing by at most one: each fits in what its shard
    /// was allocated for.
    ///
    /// # Panics
    ///
    /// Panics if the batch is larger than the shards were allocated for.
    fn cut(&mut self, batch: usize) {
        assert!(
            batch <= self.capacity,
            "a batch of {batch} images in shards allocated for {}",
            self.capacity
        );
        let k = self.shards.len().min(batch).max(1);
        let mut start = 0;
        for (i, shard) in self.shards[..k].iter_mut().enumerate() {
            let n = batch / k + usize::from(i < batch % k);
            shard
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .resize(start, n);
            start += n;
        }
        self.active = k;
    }

    /// The shards of the current batch.
    fn current(&self) -> &[RwLock<Shard>] {
        &self.shards[..self.active]
    }
}

/// One block of a linear layer's weight rows, for the whole of a training
/// call: the rows, their panels and their Adam moments.
#[derive(Debug)]
struct WeightBlock {
    /// The rows, row-major: the master copy the optimizer updates.
    weight: Vec<f32>,
    /// The rows packed for the forward pass.
    panels: PackedWeights,
    m: Vec<f32>,
    v: Vec<f32>,
}

/// The parameters of one node that one optimizer task updates, with their
/// Adam moments: a linear layer's bias, or every other parameterized
/// node's two tensors. The tensors are moved out of the graph for the
/// optimizer's run and back after it; between runs these are empty.
#[derive(Debug)]
struct NodeParams {
    tensors: Vec<Tensor>,
    moments: Vec<(Vec<f32>, Vec<f32>)>,
    /// A convolution's panels, moved out with its weight and repacked
    /// from it.
    panels: Option<Arc<PackedWeights>>,
}

/// The graph's structure as the calling thread schedules it, fixed for a
/// crew's lifetime, and the buffers the tasks of a training step share.
struct Layout {
    /// The channel count of each node that is a train-mode batch norm.
    bn: Vec<Option<usize>>,
    /// Whether each node is a train-mode batch norm whose only reader is
    /// the SiLU right after it: the pair runs as one pass
    /// ([`bn_silu_forward_into`]) that keeps `σ` in the batch norm's output
    /// buffer for the SiLU's backward.
    bn_silu: Vec<bool>,
    /// Whether each node's output gradient reaches a parameter: the
    /// backward pass of a training step computes nothing else.
    wanted: Vec<bool>,
    /// The whole-batch parameter tasks of each node, a batch norm's aside.
    param_tasks: Vec<Vec<Task>>,
    /// Each linear layer's weight blocks in training: indices into
    /// `blocks` and `pieces`.
    linear: Vec<Option<Range<usize>>>,
    /// Every linear layer's weight blocks, allocated with the layout so
    /// that no helper allocates them.
    blocks: Vec<RwLock<WeightBlock>>,
    /// The weight gradient of each block, written by its
    /// [`Task::LinearGrad`].
    pieces: Vec<Mutex<Vec<f32>>>,
    /// The scratch of each [`Task::DwGrad`], allocated with the layout so
    /// that no helper allocates it.
    dw_scratch: Vec<Mutex<Conv2dScratch>>,
    /// Each parameterized node's [`NodeParams`].
    params: Vec<Option<Mutex<NodeParams>>>,
    /// The tasks of one optimizer step: the weight blocks, largest first,
    /// then the nodes.
    optimizer: Vec<Task>,
}

impl Layout {
    fn new(graph: &Graph, mode: Mode) -> Self {
        let nodes = graph.nodes();
        let mut wanted: Vec<bool> = Vec::with_capacity(nodes.len());
        for node in nodes {
            let reaches = node.op.params().is_some()
                || node.inputs.iter().any(|src| match src {
                    Src::Input => false,
                    Src::Node(j) => wanted[*j],
                });
            wanted.push(reaches);
        }
        let train = mode == Mode::Train;
        let mut layout = Self {
            bn: nodes
                .iter()
                .map(|n| match &n.op {
                    Op::BatchNorm2d(bn) if train => Some(bn.gamma.len()),
                    _ => None,
                })
                .collect(),
            bn_silu: (0..nodes.len())
                .map(|i| train && bn_silu_pair(nodes, i))
                .collect(),
            wanted,
            param_tasks: Vec::new(),
            linear: vec![None; nodes.len()],
            blocks: Vec::new(),
            pieces: Vec::new(),
            dw_scratch: Vec::new(),
            params: Vec::new(),
            optimizer: Vec::new(),
        };
        let shapes = graph.single_image_shapes();
        for (node, n) in nodes.iter().enumerate() {
            let tasks = match &n.op {
                Op::Conv2d(_) => vec![Task::ConvGrad { node }],
                Op::DwConv2d(l) if train => {
                    let dims = match n.inputs[0] {
                        Src::Input => graph.input_dims(),
                        Src::Node(j) => &shapes[j],
                    };
                    let [_, h, w] = dims[..] else {
                        panic!("depthwise input must be CHW, got {dims:?}");
                    };
                    blocks(l.spec.in_channels, BN_LANES)
                        .map(|channels| {
                            let mut scratch = Conv2dScratch::default();
                            scratch.reserve_depthwise_param_grad(h, w, &l.spec);
                            layout.dw_scratch.push(Mutex::new(scratch));
                            let scratch = layout.dw_scratch.len() - 1;
                            Task::DwGrad {
                                node,
                                channels,
                                scratch,
                            }
                        })
                        .collect()
                }
                Op::Linear(l) if train => {
                    let first = layout.blocks.len();
                    let tasks = layout.cut_linear(&l.weight.tensor(), node);
                    layout.linear[node] = Some(first..layout.blocks.len());
                    tasks
                }
                _ => Vec::new(),
            };
            layout.param_tasks.push(tasks);
        }
        if train {
            layout.params = nodes
                .iter()
                .map(|n| {
                    let lens = match &n.op {
                        Op::Linear(l) => vec![l.bias.len()],
                        op => op.param_lens()?.to_vec(),
                    };
                    Some(Mutex::new(NodeParams {
                        moments: lens.iter().map(|&len| (zeros(len), zeros(len))).collect(),
                        tensors: lens.iter().map(|_| Tensor::zeros(&[0])).collect(),
                        panels: matches!(n.op, Op::Conv2d(_))
                            .then(|| Arc::new(PackedWeights::zeros(0, 0, KernelVariant::TRAINING))),
                    }))
                })
                .collect();
            let mut by_size: Vec<usize> = (0..layout.blocks.len()).collect();
            by_size.sort_by_key(|&b| std::cmp::Reverse(read(&layout.blocks[b]).weight.len()));
            layout.optimizer = by_size
                .into_iter()
                .map(|piece| Task::AdamBlock { piece })
                .chain(
                    (0..nodes.len())
                        .filter(|&node| layout.params[node].is_some())
                        .map(|node| Task::AdamNode { node }),
                )
                .collect();
        }
        layout
    }

    /// Cuts linear layer `node`'s `weight` into blocks of [`ROW_BLOCK`]
    /// rows, each with its gradient piece, and returns the node's
    /// parameter tasks.
    fn cut_linear(&mut self, weight: &Tensor, node: usize) -> Vec<Task> {
        let in_f = weight.shape().dim(1);
        blocks(weight.shape().dim(0), ROW_BLOCK)
            .map(|rows| {
                let data = weight.data()[rows.start * in_f..rows.end * in_f].to_vec();
                self.blocks.push(RwLock::new(WeightBlock {
                    panels: PackedWeights::pack(&data, rows.len(), in_f, KernelVariant::TRAINING),
                    m: zeros(data.len()),
                    v: zeros(data.len()),
                    weight: data,
                }));
                self.pieces.push(Mutex::new(zeros(rows.len() * in_f)));
                let piece = self.pieces.len() - 1;
                Task::LinearGrad { node, rows, piece }
            })
            .chain([Task::LinearBias { node }])
            .collect()
    }
}

impl Layout {
    /// The shape of linear layer `node`'s weight, if it is kept in blocks.
    fn linear_dims(&self, node: usize) -> Option<[usize; 2]> {
        let blocks = &self.blocks[self.linear[node].clone()?];
        let rows = blocks.iter().map(|b| read(b).panels.rows()).sum();
        Some([rows, blocks.first().map_or(0, |b| read(b).panels.k())])
    }

    /// Linear layer `node`'s weight blocks, in row order.
    fn node_blocks(&self, node: usize) -> &[RwLock<WeightBlock>] {
        &self.blocks[self.linear[node].clone().unwrap_or_default()]
    }
}

impl WeightBlock {
    /// A block holding nothing.
    fn empty() -> Self {
        Self {
            weight: Vec::new(),
            panels: PackedWeights::zeros(0, 0, KernelVariant::TRAINING),
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

fn zeros(len: usize) -> Vec<f32> {
    vec![0.0; len]
}

/// What a crew's tasks read. The calling thread changes it only between
/// crew runs, under the write lock.
struct State<G> {
    graph: G,
    mode: Mode,
    kernels: MatKernels,
    /// Indices into the images of the current batch, in batch order.
    batch: Vec<usize>,
    shards: Shards,
    /// Each node's parameter gradients from the last backward pass; a
    /// linear layer's weight gradient stays in [`Layout::pieces`].
    grads: Vec<Option<Pair>>,
    /// The optimizer step being taken.
    adam: Option<AdamStep>,
}

type StepCrew<'c> = Crew<'c, (), Task, Option<Pair>>;

/// A crew with image shards over a graph (see the module docs): the
/// training steps of [`crate::train::fit`] and the evaluation batches of
/// [`crate::train::logits`].
pub(crate) struct Sharded<'s, 'c, G> {
    crew: &'s mut StepCrew<'c>,
    state: &'s RwLock<State<G>>,
    layout: &'s Layout,
}

/// Runs `body` with a crew of `parallelism` over `images` and the graph
/// `graph` in `mode`, opened once for the call, with shards allocated for
/// batches of up to `capacity` images.
pub(crate) fn with_shards<G, O>(
    graph: G,
    images: &[Tensor],
    (mode, capacity): (Mode, usize),
    parallelism: &Parallelism,
    body: impl FnOnce(&mut Sharded<'_, '_, G>) -> O,
) -> O
where
    G: Deref<Target = Graph> + Send + Sync,
{
    let layout = Layout::new(&graph, mode);
    let kernels = match mode {
        Mode::Train => MatKernels::pack_convolutions(&graph),
        Mode::Eval => MatKernels::pack_with(&graph, &mut |_| KernelVariant::TRAINING),
    };
    let members = parallelism.crew_members();
    let shards = Shards::new(&graph, &layout, (capacity, members), mode);
    let state = RwLock::new(State {
        grads: vec![None; graph.nodes().len()],
        graph,
        mode,
        kernels,
        batch: Vec::new(),
        shards,
        adam: None,
    });
    with_crew(
        parallelism,
        || (),
        |(), _, task: &Task| {
            let state = read(&state);
            Ctx::new(&state, &layout, images).run(task)
        },
        |crew| {
            body(&mut Sharded {
                crew,
                state: &state,
                layout: &layout,
            })
        },
    )
}

impl<G: Deref<Target = Graph> + Send + Sync> Sharded<'_, '_, G> {
    /// Makes `batch` (indices into the images) the current batch, in a
    /// prefix of the shards.
    fn load(&mut self, batch: &[usize]) {
        let mut state = write(self.state);
        let state = &mut *state;
        state.batch.clear();
        state.batch.extend_from_slice(batch);
        state.shards.cut(batch.len());
    }

    fn shard_count(&self) -> usize {
        read(self.state).shards.active
    }

    /// Eval-mode logits of the images `batch`, one row per image.
    pub(crate) fn logits(&mut self, batch: &[usize]) -> Tensor {
        self.load(batch);
        self.forward();
        self.gather_logits()
    }

    /// Runs whole-batch tasks and joins each node's pieces in task order.
    fn run_whole(&mut self, tasks: Vec<Task>) -> Vec<(usize, Pair)> {
        let (tasks, outs) = self.crew.run(tasks);
        let mut joined: Vec<(usize, Pair)> = Vec::new();
        for (task, (a, b)) in tasks.iter().zip(outs).filter_map(|(t, o)| Some((t, o?))) {
            match joined.last_mut() {
                Some((node, (ja, jb))) if *node == task.node() => {
                    ja.extend(a);
                    jb.extend(b);
                }
                _ => joined.push((task.node(), (a, b))),
            }
        }
        joined
    }

    /// The forward pass: one shard run per chain of per-image nodes, and
    /// the batch statistics of each train-mode batch norm in between.
    fn forward(&mut self) {
        let _span = train_metrics().forward.span();
        let n = self.layout.bn.len();
        let k = self.shard_count();
        let (mut start, mut stats) = (0, None);
        loop {
            let end = (start..n)
                .find(|&i| self.layout.bn[i].is_some() && (i > start || stats.is_none()))
                .unwrap_or(n);
            let shard_tasks = (0..k).map(|shard| Task::Forward {
                shard,
                span: start..end,
                stats: stats.clone(),
            });
            self.crew.run(shard_tasks.collect());
            let Some(c) = self.layout.bn.get(end).copied().flatten() else {
                return;
            };
            let tasks = blocks(c, BN_LANES).map(|channels| Task::BnStats {
                node: end,
                channels,
            });
            stats = self.run_whole(tasks.collect()).pop().map(|(_, p)| p);
            start = end;
        }
    }

    /// The output rows of every shard, in batch order.
    fn gather_logits(&self) -> Tensor {
        let state = read(self.state);
        let mut data = Vec::new();
        for shard in state.shards.current() {
            data.extend_from_slice(read(shard).ws.output().data());
        }
        let batch = state.batch.len();
        let classes = data.len() / batch.max(1);
        Tensor::from_vec(data, &[batch, classes]).expect("one row per image")
    }
}

impl<G: DerefMut<Target = Graph> + Send + Sync> Sharded<'_, '_, G> {
    /// One training step's forward and backward pass over the images
    /// `batch` with `labels`: returns the mean loss and the number of
    /// correct predictions, keeps every node's parameter gradient for
    /// [`Sharded::optimize`] and [`Sharded::param_grads`], and moves the
    /// batch-norm running statistics toward the batch's.
    pub(crate) fn train_step(&mut self, batch: &[usize], labels: &[usize]) -> (f32, usize) {
        self.load(batch);
        self.forward();
        let logits = self.gather_logits();
        let (loss, dlogits) = cross_entropy_with_logits(&logits, labels);
        let correct = argmax_rows(&logits)
            .zip(labels)
            .filter(|(pred, label)| pred == *label)
            .count();
        self.seed_backward(&dlogits);
        self.backward();
        let mut state = write(self.state);
        let state = &mut *state;
        // Every shard holds the statistics of the whole batch.
        let first = read(&state.shards.shards[0]);
        state.graph.update_running_stats_from(&first.ws);
        (loss, correct)
    }

    /// Every node's parameter gradient from the last [`Sharded::train_step`]
    /// (`None` for parameter-free nodes).
    pub(crate) fn param_grads(&self) -> Vec<Option<ParamGrad>> {
        let state = read(self.state);
        let nodes = state.graph.nodes();
        (0..nodes.len())
            .map(|node| {
                let (weight, bias) = state.grads[node].clone()?;
                let [w, b] = nodes[node].op.params().expect("a parameter node");
                let (weight, dims) = match (
                    self.layout.linear[node].clone(),
                    self.layout.linear_dims(node),
                ) {
                    (Some(pieces), Some(dims)) => {
                        let mut weight = Vec::with_capacity(dims[0] * dims[1]);
                        for piece in &self.layout.pieces[pieces] {
                            weight.extend_from_slice(&lock(piece));
                        }
                        (weight, dims.to_vec())
                    }
                    _ => (weight, w.shape().dims().to_vec()),
                };
                Some(ParamGrad {
                    weight: Tensor::from_vec(weight, &dims).expect("weight-shaped"),
                    bias: Tensor::from_vec(bias, b.shape().dims()).expect("bias-shaped"),
                })
            })
            .collect()
    }

    /// Applies the Adam step `step` to every parameter with the gradients
    /// of the last [`Sharded::train_step`]: one crew task per linear weight
    /// block (the update, then its panels repacked) and one per other
    /// parameterized node, whose tensors (and a convolution's panels) are
    /// moved out of the graph for the run.
    pub(crate) fn optimize(&mut self, step: AdamStep) {
        let _span = train_metrics().optimizer.span();
        self.exchange_params(Some(step));
        self.crew.run(self.layout.optimizer.clone());
        self.exchange_params(None);
    }

    /// Swaps the optimizer's node tensors with the graph's (out before a
    /// step, back after it) and sets the step its tasks take.
    fn exchange_params(&mut self, step: Option<AdamStep>) {
        let mut state = write(self.state);
        let state = &mut *state;
        state.adam = step;
        for (node, params) in self.layout.params.iter().enumerate() {
            let Some(params) = params else {
                continue;
            };
            let mut params = lock(params);
            let params = &mut *params;
            let [w, b] = state.graph.node_params_mut(node).expect("a parameter node");
            let graph_tensors = if params.tensors.len() == 1 {
                vec![b]
            } else {
                vec![w, b]
            };
            for (mine, theirs) in params.tensors.iter_mut().zip(graph_tensors) {
                std::mem::swap(mine, theirs);
            }
            if let (Some(mine), Some(theirs)) = (&mut params.panels, state.kernels.node_mut(node)) {
                std::mem::swap(mine, &mut theirs.packed);
            }
        }
    }

    /// Drops the graph's copy of every linear layer's weight at the start
    /// of a training call: the layer's blocks hold the weight until
    /// [`Sharded::store_weights`] puts it back, so it is not held twice.
    /// Nothing infers shapes from the graph in between.
    pub(crate) fn hold_weights(&mut self) {
        let mut state = write(self.state);
        for (node, _) in self.linear_nodes() {
            let [w, _] = state.graph.node_params_mut(node).expect("a linear layer");
            *w = Tensor::zeros(&[0]);
        }
    }

    /// Writes the linear layers' weights back into the graph from their
    /// blocks: the last thing a training call does. The shards and each
    /// block are freed first, so the joined weights are never held on top
    /// of them.
    pub(crate) fn store_weights(&mut self) {
        let mut state = write(self.state);
        state.shards.shards.clear();
        state.shards.active = 0;
        for (node, dims) in self.linear_nodes() {
            let mut weight = Vec::with_capacity(dims[0] * dims[1]);
            for block in self.layout.node_blocks(node) {
                let block = std::mem::replace(&mut *write(block), WeightBlock::empty());
                weight.extend_from_slice(&block.weight);
            }
            let [w, _] = state.graph.node_params_mut(node).expect("a linear layer");
            *w = Tensor::from_vec(weight, &dims).expect("weight-shaped");
        }
    }

    /// Each linear layer kept in weight blocks, with its weight's shape.
    fn linear_nodes(&self) -> impl Iterator<Item = (usize, [usize; 2])> + '_ {
        (0..self.layout.linear.len())
            .filter_map(|node| Some((node, self.layout.linear_dims(node)?)))
    }

    /// Hands each shard its rows of the loss gradient `dlogits`.
    fn seed_backward(&self, dlogits: &Tensor) {
        let state = read(self.state);
        let plan = state.shards.slots.as_ref().expect("training shards");
        let last = self.layout.bn.len() - 1;
        let classes = dlogits.shape().dim(1);
        for shard in state.shards.current() {
            let mut guard = write(shard);
            let s = &mut *guard;
            s.release_grads(plan, 0);
            let dims = s.ws.node_output(last).shape().dims();
            let mut rows = Shard::take_slot(&mut s.slots, plan, last, dims);
            let len = rows.len();
            rows.data_mut()
                .copy_from_slice(&dlogits.data()[s.start * classes..][..len]);
            s.grads[last] = Some(rows);
        }
    }

    /// The backward pass: one shard run per chain of per-image nodes
    /// between batch norms, then one whole-batch run for the chain's
    /// parameter gradients and the gradient sums of the batch norm below
    /// it.
    fn backward(&mut self) {
        let n = self.layout.bn.len();
        let k = self.shard_count();
        let mut top = n - 1;
        let mut sums = None;
        if self.layout.bn[top].is_some() {
            sums = self.param_run(Vec::new(), Some(top));
        }
        loop {
            let below = (0..top).rev().find(|&i| self.layout.bn[i].is_some());
            let bottom = below.map_or(0, |b| b + 1);
            let shard_tasks = (0..k).map(|shard| Task::Backward {
                shard,
                span: bottom..top + 1,
                sums: sums.clone(),
            });
            let span = train_metrics().backward.span();
            self.crew.run(shard_tasks.collect());
            span.finish();
            let layout = self.layout;
            let tasks = (bottom..=top)
                .filter(|&i| layout.wanted[i])
                .flat_map(|i| layout.param_tasks[i].iter().cloned())
                .collect();
            sums = self.param_run(tasks, below);
            match below {
                Some(b) => top = b,
                None => return,
            }
        }
    }

    /// Runs `tasks` and the gradient sums of batch norm `bn` together,
    /// keeps every node's parameter gradients for the optimizer and
    /// returns the batch norm's.
    fn param_run(&mut self, mut tasks: Vec<Task>, bn: Option<usize>) -> Option<Pair> {
        let _span = train_metrics().param_tasks.span();
        if let Some(node) = bn.filter(|&b| self.layout.wanted[b]) {
            let c = self.layout.bn[node].unwrap_or(0);
            tasks.extend(blocks(c, BN_LANES).map(|channels| Task::BnSums { node, channels }));
        }
        let joined = self.run_whole(tasks);
        let mut state = write(self.state);
        let mut sums = None;
        for (node, pair) in joined {
            if Some(node) == bn {
                sums = Some(pair.clone());
            }
            state.grads[node] = Some(pair);
        }
        sums
    }
}

/// One crew task. Shard tasks take their shard's write lock; whole-batch
/// tasks take every shard's read lock and return their piece of a node's
/// result; optimizer tasks lock the parameters they update.
#[derive(Debug, Clone)]
enum Task {
    /// Runs nodes `span` on one shard, after storing the batch statistics
    /// of the batch norm the span starts at, if given, or else, for the
    /// first span, copying the shard's images in.
    Forward {
        shard: usize,
        span: Range<usize>,
        stats: Option<Pair>,
    },
    /// Batch mean and variance of a batch norm's `channels`.
    BnStats { node: usize, channels: Range<usize> },
    /// Backpropagates one shard through nodes `span`, last node first.
    /// `sums` are the parameter gradients of the batch norm at the top of
    /// the span, whose input gradient needs them.
    Backward {
        shard: usize,
        span: Range<usize>,
        sums: Option<Pair>,
    },
    /// A batch norm's `(γ, β)` gradients for `channels`.
    BnSums { node: usize, channels: Range<usize> },
    /// A convolution's filter and bias gradients from the per-image
    /// partials.
    ConvGrad { node: usize },
    /// A depthwise convolution's filter and bias gradients for `channels`,
    /// in [`Layout::dw_scratch`]`[scratch]`.
    DwGrad {
        node: usize,
        channels: Range<usize>,
        scratch: usize,
    },
    /// Weight-gradient `rows` of a linear layer, written to
    /// [`Layout::pieces`]`[piece]`.
    LinearGrad {
        node: usize,
        rows: Range<usize>,
        piece: usize,
    },
    /// A linear layer's bias gradient.
    LinearBias { node: usize },
    /// The Adam update of weight block `piece` with its gradient, then
    /// the block's panels repacked.
    AdamBlock { piece: usize },
    /// The Adam update of a node's [`NodeParams`].
    AdamNode { node: usize },
}

impl Task {
    /// The node a whole-batch task computes a piece of.
    fn node(&self) -> usize {
        match self {
            Task::Forward { .. }
            | Task::Backward { .. }
            | Task::AdamBlock { .. }
            | Task::AdamNode { .. } => usize::MAX,
            Task::BnStats { node, .. }
            | Task::BnSums { node, .. }
            | Task::ConvGrad { node }
            | Task::DwGrad { node, .. }
            | Task::LinearGrad { node, .. }
            | Task::LinearBias { node } => *node,
        }
    }
}

/// `0..len` in consecutive blocks of `step`, the last one shorter.
fn blocks(len: usize, step: usize) -> impl Iterator<Item = Range<usize>> {
    (0..len)
        .step_by(step)
        .map(move |lo| lo..(lo + step).min(len))
}

/// Everything a crew task reads, borrowed from the [`State`] under a read
/// lock.
struct Ctx<'a> {
    graph: &'a Graph,
    kernels: &'a MatKernels,
    mode: Mode,
    images: &'a [Tensor],
    batch: &'a [usize],
    shards: &'a [RwLock<Shard>],
    slots: Option<&'a GradSlots>,
    grads: &'a [Option<Pair>],
    adam: Option<AdamStep>,
    layout: &'a Layout,
}

impl<'a> Ctx<'a> {
    fn new<G: Deref<Target = Graph>>(
        state: &'a State<G>,
        layout: &'a Layout,
        images: &'a [Tensor],
    ) -> Self {
        Ctx {
            graph: &state.graph,
            kernels: &state.kernels,
            mode: state.mode,
            images,
            batch: &state.batch,
            shards: state.shards.current(),
            slots: state.shards.slots.as_ref(),
            grads: &state.grads,
            adam: state.adam,
            layout,
        }
    }

    fn run(&self, task: &Task) -> Option<Pair> {
        match task {
            Task::Forward { shard, span, stats } => {
                let mut s = write(&self.shards[*shard]);
                let s = &mut *s;
                match stats {
                    Some((mean, var)) => s.ws.set_batch_stats(span.start, mean, var),
                    None if span.start == 0 => self.fill(s),
                    None => {}
                }
                self.forward_span(s, span.clone());
                None
            }
            Task::Backward { shard, span, sums } => {
                self.backward_shard(&mut write(&self.shards[*shard]), span, sums.as_ref());
                None
            }
            Task::AdamBlock { piece } => {
                let step = self.adam.expect("an optimizer step");
                let grad = lock(&self.layout.pieces[*piece]);
                let mut block = write(&self.layout.blocks[*piece]);
                let WeightBlock {
                    weight,
                    panels,
                    m,
                    v,
                } = &mut *block;
                step.update(weight, &grad, m, v);
                panels.repack(weight);
                None
            }
            Task::AdamNode { node } => {
                let step = self.adam.expect("an optimizer step");
                let (weight, bias) = self.grads[*node].as_ref().expect("a parameter gradient");
                let params = self.layout.params[*node]
                    .as_ref()
                    .expect("a parameter node");
                let mut params = lock(params);
                let NodeParams {
                    tensors,
                    moments,
                    panels,
                } = &mut *params;
                let grads = [weight.as_slice(), bias.as_slice()];
                let grads = &grads[grads.len() - tensors.len()..];
                for ((t, (m, v)), g) in tensors.iter_mut().zip(moments).zip(grads) {
                    step.update(t.data_mut(), g, m, v);
                }
                if let Some(panels) = panels {
                    Arc::get_mut(panels)
                        .expect("panels moved out of the graph")
                        .repack(tensors[0].data());
                }
                None
            }
            whole => Some(self.run_whole_task(whole)),
        }
    }

    /// Copies the shard's images of the batch into its input.
    fn fill(&self, s: &mut Shard) {
        let n = s.input.shape().dim(0);
        let row = s.input.len() / n.max(1);
        let ids = &self.batch[s.start..s.start + n];
        for (dst, &i) in s.input.data_mut().chunks_exact_mut(row.max(1)).zip(ids) {
            let image = &self.images[i];
            assert_eq!(
                image.shape().dims(),
                self.graph.input_dims(),
                "image {i} does not match the graph input"
            );
            dst.copy_from_slice(image.data());
        }
    }

    /// Runs nodes `span` of the shard's forward pass: a linear layer of a
    /// training step through its weight blocks, a batch norm and the SiLU
    /// it pairs with ([`Layout::bn_silu`]) in one pass, every other node
    /// through [`Graph::forward_span`].
    fn forward_span(&self, s: &mut Shard, span: Range<usize>) {
        let kernels = Some(self.kernels);
        let (mut from, mut i) = (span.start, span.start);
        while i < span.end {
            let pieces = self.layout.linear[i].clone();
            if pieces.is_none() && !self.layout.bn_silu[i] {
                i += 1;
                continue;
            }
            self.graph
                .forward_span(&s.input, self.mode, &mut s.ws, kernels, from..i);
            let node = &self.graph.nodes()[i];
            let (done, rest) = s.ws.outputs.split_at_mut(i);
            let x = match node.inputs[0] {
                Src::Input => &s.input,
                Src::Node(j) => &done[j],
            };
            match (&node.op, pieces) {
                (Op::Linear(l), Some(pieces)) => {
                    let rows = x.shape().dim(0);
                    let mut first = 0;
                    for block in &self.layout.blocks[pieces] {
                        let panels = &read(block).panels;
                        let bias = &l.bias.data()[first..first + panels.rows()];
                        linear_packed_bias_cols_into(
                            panels,
                            x.data(),
                            rows,
                            bias,
                            rest[0].data_mut(),
                            first,
                        );
                        first += panels.rows();
                    }
                    i += 1;
                }
                (Op::BatchNorm2d(bn), None) => {
                    let [sig, act, ..] = rest else {
                        unreachable!("a SiLU after the batch norm");
                    };
                    bn_silu_forward_into(bn, (x, &s.ws.aux[i]), sig, act);
                    i += 2;
                }
                _ => unreachable!("weight blocks of a linear layer"),
            }
            from = i;
        }
        self.graph
            .forward_span(&s.input, self.mode, &mut s.ws, kernels, from..span.end);
    }

    /// One shard's backward through `span`, last node first. Convolutions
    /// leave their per-image partials, depthwise and linear layers keep
    /// their output gradient, for the whole-batch parameter tasks; only
    /// gradients that reach a parameter are computed, each into its slot.
    fn backward_shard(&self, s: &mut Shard, span: &Range<usize>, sums: Option<&Pair>) {
        let plan = self.slots.expect("training shards");
        let wanted = &self.layout.wanted;
        // Gradients the chain above kept for its parameter tasks.
        s.release_grads(plan, span.end);
        for i in span.clone().rev() {
            let Some(gout) = s.grads[i].take() else {
                continue;
            };
            if !wanted[i] {
                s.give(plan, i, gout);
                continue;
            }
            let node = &self.graph.nodes()[i];
            let ins: Vec<&Tensor> = node
                .inputs
                .iter()
                .map(|src| match src {
                    Src::Input => &s.input,
                    Src::Node(j) => &s.ws.outputs[*j],
                })
                .collect();
            // A convolution's backward works in the forward im2col scratch.
            let scratch = &mut s.ws.conv_scratch;
            if let Op::Conv2d(l) = &node.op {
                // Nothing comes before the first shard's images: it can sum
                // its partials already.
                let slot = l.spec.partial_len();
                match s.start {
                    0 => {
                        let sum = &mut s.partials[i][..slot];
                        conv2d_weight_partial_sum(ins[0], &gout, &l.spec, sum, scratch);
                    }
                    _ => {
                        let partials = &mut s.partials[i][..ins[0].shape().dim(0) * slot];
                        conv2d_weight_partials(ins[0], &gout, &l.spec, partials, scratch);
                    }
                }
            }
            // The sums belong to the batch norm at the top of the span.
            let bn_sums = sums.filter(|_| i + 1 == span.end).map(|(sum_gx, sum_g)| {
                let (_, _, h, w) = ins[0].shape().as_nchw();
                let count = (self.batch.len() * h * w) as f32;
                (sum_gx.as_slice(), sum_g.as_slice(), count)
            });
            let grad = OpGrad {
                op: &node.op,
                ins: &ins,
                output: &s.ws.outputs[i],
                aux: &s.ws.aux[i],
                gout: &gout,
                mode: Mode::Train,
                bn_sums,
            };
            // A linear layer's weight is in its blocks.
            let blocks: Vec<RwLockReadGuard<'_, WeightBlock>> =
                self.layout.linear[i].clone().map_or_else(Vec::new, |p| {
                    self.layout.blocks[p].iter().map(read).collect()
                });
            let weight: Vec<&[f32]> = blocks.iter().map(|b| b.weight.as_slice()).collect();
            // A SiLU paired with the batch norm below it reads `σ` from the
            // batch norm's output and recomputes `z` from its input.
            let pair = (i > 0 && self.layout.bn_silu[i - 1]).then(|| {
                let b = i - 1;
                let Op::BatchNorm2d(bn) = &self.graph.nodes()[b].op else {
                    unreachable!("a paired batch norm");
                };
                let x = match self.graph.nodes()[b].inputs[0] {
                    Src::Input => &s.input,
                    Src::Node(j) => &s.ws.outputs[j],
                };
                (bn, x, &s.ws.aux[b])
            });
            let mut input_grad = |k: usize, g: &mut Tensor| match (&node.op, pair) {
                (Op::Linear(_), _) if !weight.is_empty() => {
                    linear_input_grad_blocks_into(&weight, &gout, g);
                }
                (Op::SiLU, Some((bn, x, aux))) => {
                    bn_silu_input_grad_into(bn, (x, aux), ins[0], &gout, g);
                }
                _ => grad.input_grad_into(k, g, Some(&mut *scratch)),
            };
            for (k, src) in node.inputs.iter().enumerate() {
                let Src::Node(j) = *src else {
                    continue;
                };
                if !wanted[j] {
                    continue;
                }
                let dims = s.ws.outputs[j].shape().dims();
                match &mut s.grads[j] {
                    None => {
                        let mut g = Shard::take_slot(&mut s.slots, plan, j, dims);
                        input_grad(k, &mut g);
                        s.grads[j] = Some(g);
                    }
                    Some(acc) => {
                        let mut buf = std::mem::take(&mut s.scratch);
                        buf.resize(acc.len(), 0.0);
                        let mut g = Tensor::from_vec(buf, dims).expect("scratch sized");
                        input_grad(k, &mut g);
                        acc.add_scaled(&g, 1.0);
                        s.scratch = g.into_vec();
                    }
                }
            }
            if keeps_grad(&node.op) {
                s.grads[i] = Some(gout);
            } else {
                s.give(plan, i, gout);
            }
        }
    }

    /// A whole-batch task over every shard, in batch order.
    fn run_whole_task(&self, task: &Task) -> Pair {
        let shards: Vec<RwLockReadGuard<'_, Shard>> = self.shards.iter().map(read).collect();
        let node = task.node();
        let op = &self.graph.nodes()[node].op;
        let inputs: Vec<&Tensor> = shards
            .iter()
            .map(|s| self.graph.node_input(&s.input, &s.ws, node))
            .collect();
        let grads = || -> Vec<&Tensor> {
            shards
                .iter()
                .map(|s| s.grads[node].as_ref().expect("a kept output gradient"))
                .collect()
        };
        let parts = || -> Vec<(&Tensor, &Tensor)> { inputs.iter().copied().zip(grads()).collect() };
        match (task, op) {
            (Task::BnStats { channels, .. }, _) => {
                let (_, c, h, w) = inputs[0].shape().as_nchw();
                let xs = image_slices(inputs.iter().copied());
                bn_batch_stats(&xs, (c, h * w), channels.clone())
            }
            (Task::BnSums { channels, .. }, Op::BatchNorm2d(bn)) => {
                let Aux::BatchNorm { mean, var } = &shards[0].ws.aux[node] else {
                    panic!("batch-norm node missing its batch statistics");
                };
                let (_, c, h, w) = inputs[0].shape().as_nchw();
                let norm = BnNorm::new(bn, mean, var);
                let (gs, xs) = (image_slices(grads()), image_slices(inputs.iter().copied()));
                bn_grad_sums(&gs, &xs, &norm, (c, h * w), channels.clone())
            }
            (Task::ConvGrad { .. }, Op::Conv2d(l)) => {
                let slot = l.spec.partial_len();
                let partials: Vec<&[f32]> = shards.iter().map(|s| s.partials(node, slot)).collect();
                let (gw, gb) = conv2d_sum_partials(&partials, &l.spec);
                (gw.into_vec(), gb.into_vec())
            }
            (
                Task::DwGrad {
                    channels, scratch, ..
                },
                Op::DwConv2d(l),
            ) => {
                let mut scratch = lock(&self.layout.dw_scratch[*scratch]);
                dwconv2d_param_grads(&parts(), &l.spec, channels.clone(), &mut scratch)
            }
            (Task::LinearGrad { rows, piece, .. }, Op::Linear(_)) => {
                let mut gw = lock(&self.layout.pieces[*piece]);
                gw.fill(0.0);
                linear_weight_grad_rows(&parts(), rows.clone(), &mut gw);
                (Vec::new(), Vec::new())
            }
            (Task::LinearBias { .. }, Op::Linear(_)) => {
                (Vec::new(), linear_bias_grad(&grads()).into_vec())
            }
            _ => unreachable!("whole-batch task on a node of another kind"),
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;
    use crate::spec::GraphSpec;

    /// S1 pairs the batch norm and SiLU of its stem, of both expansions and
    /// depthwise convolutions, and of its head: six pairs. Its projection
    /// batch norms feed no SiLU, and `se.act` follows a linear layer.
    #[test]
    fn s1_pairs_six_batch_norms_with_their_silu() {
        let spec = GraphSpec::parse(include_str!("../../../specs/s1.ahg")).expect("S1 parses");
        let graph = spec
            .build_graph(&mut StdRng::seed_from_u64(0))
            .expect("S1 builds");
        let names = |layout: &Layout| -> Vec<&str> {
            (0..graph.nodes().len())
                .filter(|&i| layout.bn_silu[i])
                .map(|i| graph.nodes()[i].name.as_str())
                .collect()
        };
        assert_eq!(
            names(&Layout::new(&graph, Mode::Train)),
            [
                "stem.bn",
                "mb1.expand.bn",
                "mb1.dw.bn",
                "mb2.expand.bn",
                "mb2.dw.bn",
                "head.bn"
            ]
        );
        assert!(names(&Layout::new(&graph, Mode::Eval)).is_empty());
    }
}
