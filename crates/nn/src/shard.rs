//! Image shards: how [`crate::train::fit`] and [`crate::train::logits`]
//! run their batches on every crew member.
//!
//! A batch is cut into K = min(crew members, batch) contiguous shards whose
//! sizes differ by at most one image. Each shard owns its images, a
//! [`Workspace`] and its gradient buffers, kept from one step to the next
//! behind a lock of its own, so one crew, opened once per call, can run
//! every per-image op: each shard runs the ops of a chain of nodes one
//! after another, sequentially, with the shards side by side.
//!
//! A chain ends where a node needs the whole batch: a train-mode batch
//! norm, whose statistics forward and whose gradient sums backward run
//! over all shards, and the loss between the two passes. The parameter
//! gradients are whole-batch reductions too. Every such part reads the
//! shards in global image order and reduces in exactly the order of the
//! one-batch kernels, fanned out over channels, rows or nodes as crew
//! tasks, so the trained weights are bit-identical for any shard count.
//!
//! Every buffer a shard needs is allocated on the calling thread when the
//! shards are cut: gradients live in slots that gradients never alive at
//! the same time share ([`GradSlots`]). Crew helpers allocate next to
//! nothing, so no memory settles in their allocator arenas.

use std::ops::{Deref, DerefMut, Range};
use std::sync::{Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use advhunter_runtime::{with_crew, Crew, Parallelism};
use advhunter_tensor::ops::{
    conv2d_sum_partials, conv2d_weight_partial_sum, conv2d_weight_partials,
    cross_entropy_with_logits, dwconv2d_param_grads, linear_bias_grad, linear_weight_grad_rows,
    KernelVariant,
};
use advhunter_tensor::Tensor;

use crate::graph::{
    argmax_rows, bn_batch_stats, bn_grad_sums, image_slices, Aux, BnNorm, OpGrad, BN_LANES,
};
use crate::{Graph, MatKernels, Mode, Op, ParamGrad, Src, Workspace};

/// A pair of per-channel (or per-row) vectors: batch mean and variance,
/// or a node's primary and secondary parameter gradient.
type Pair = (Vec<f32>, Vec<f32>);

/// Weight rows of one linear-gradient task: the packed kernels' panel
/// height, so blocks split no panel.
const ROW_BLOCK: usize = 8;

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

/// Whether a node of `op` keeps its output gradient after its own
/// backward, for the whole-batch parameter tasks of its chain.
fn keeps_grad(op: &Op) -> bool {
    matches!(op, Op::DwConv2d(_) | Op::Linear(_))
}

/// A batch's shards, kept across the steps of one batch size.
#[derive(Debug)]
struct Shards {
    batch: usize,
    shards: Vec<RwLock<Shard>>,
    /// The gradient slots of shards cut for training.
    slots: Option<GradSlots>,
}

impl Shards {
    /// Shards for `batch` images on `members` crew members, with the
    /// gradient slots, convolution partials and batch-norm statistics of
    /// training when `mode` is [`Mode::Train`].
    fn new(graph: &Graph, layout: &Layout, (batch, members): (usize, usize), mode: Mode) -> Self {
        let nodes = graph.nodes();
        let slots = (mode == Mode::Train).then(|| GradSlots::plan(graph, layout));
        let k = members.min(batch).max(1);
        let mut start = 0;
        let shards = (0..k)
            .map(|i| {
                let n = batch / k + usize::from(i < batch % k);
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
            batch,
            shards,
            slots,
        }
    }
}

/// The graph's structure as the calling thread schedules it, fixed for a
/// crew's lifetime.
struct Layout {
    /// The channel count of each node that is a train-mode batch norm.
    bn: Vec<Option<usize>>,
    /// Whether each node's output gradient reaches a parameter: the
    /// backward pass of a training step computes nothing else.
    wanted: Vec<bool>,
    /// The whole-batch parameter tasks of each node, a batch norm's aside.
    param_tasks: Vec<Vec<Task>>,
    /// Where each [`Task::LinearGrad`] writes its weight rows, allocated
    /// with the layout so that no helper allocates them.
    pieces: Vec<Mutex<Vec<f32>>>,
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
        let mut pieces = Vec::new();
        let param_tasks = nodes
            .iter()
            .enumerate()
            .map(|(node, n)| match &n.op {
                Op::Conv2d(_) => vec![Task::ConvGrad { node }],
                Op::DwConv2d(l) => blocks(l.spec.in_channels, BN_LANES)
                    .map(|channels| Task::DwGrad { node, channels })
                    .collect(),
                Op::Linear(l) if mode == Mode::Train => {
                    let in_f = l.weight.shape().dim(1);
                    blocks(l.weight.shape().dim(0), ROW_BLOCK)
                        .map(|rows| {
                            pieces.push(Mutex::new(vec![0.0; rows.len() * in_f]));
                            let piece = pieces.len() - 1;
                            Task::LinearGrad { node, rows, piece }
                        })
                        .chain([Task::LinearBias { node }])
                        .collect()
                }
                _ => Vec::new(),
            })
            .collect();
        Self {
            bn: nodes
                .iter()
                .map(|n| match &n.op {
                    Op::BatchNorm2d(bn) if mode == Mode::Train => Some(bn.gamma.len()),
                    _ => None,
                })
                .collect(),
            wanted,
            param_tasks,
            pieces,
        }
    }
}

/// What a crew's tasks read. The calling thread changes it only between
/// crew runs, under the write lock.
struct State<G> {
    graph: G,
    mode: Mode,
    kernels: Option<MatKernels>,
    /// Indices into the images of the current batch, in batch order.
    batch: Vec<usize>,
    shards: Option<Shards>,
}

type StepCrew<'c> = Crew<'c, (), Task, Option<Pair>>;

/// A crew with image shards over a graph (see the module docs): the
/// training steps of [`crate::train::fit`] and the evaluation batches of
/// [`crate::train::logits`].
pub(crate) struct Sharded<'s, 'c, G> {
    crew: &'s mut StepCrew<'c>,
    state: &'s RwLock<State<G>>,
    layout: &'s Layout,
    members: usize,
}

/// Runs `body` with a crew of `parallelism` over `images` and the graph
/// `graph` in `mode`, opened once for the call.
pub(crate) fn with_shards<G, O>(
    graph: G,
    images: &[Tensor],
    mode: Mode,
    parallelism: &Parallelism,
    body: impl FnOnce(&mut Sharded<'_, '_, G>) -> O,
) -> O
where
    G: Deref<Target = Graph> + Send + Sync,
{
    let layout = Layout::new(&graph, mode);
    let state = RwLock::new(State {
        graph,
        mode,
        kernels: None,
        batch: Vec::new(),
        shards: None,
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
                members: parallelism.crew_members(),
            })
        },
    )
}

impl<G: Deref<Target = Graph> + Send + Sync> Sharded<'_, '_, G> {
    /// Makes `batch` (indices into the images) the current batch: cuts
    /// shards for its size unless the current ones fit, and packs the
    /// weights when `repack` or not yet packed. Shards of another size (a
    /// ragged last batch's, or the ones before it) are freed before the new
    /// ones are allocated, so two batches' buffers are never alive
    /// together.
    fn load(&mut self, batch: &[usize], repack: bool) {
        let mut state = write(self.state);
        let state = &mut *state;
        match &mut state.kernels {
            Some(kernels) if repack => kernels.repack(&state.graph),
            Some(_) => {}
            None => {
                let pack = MatKernels::pack_with(&state.graph, &mut |_| KernelVariant::TRAINING);
                state.kernels = Some(pack);
            }
        }
        state.batch.clear();
        state.batch.extend_from_slice(batch);
        if state.shards.as_ref().map(|s| s.batch) != Some(batch.len()) {
            state.shards = None;
            let size = (batch.len(), self.members);
            state.shards = Some(Shards::new(&state.graph, self.layout, size, state.mode));
        }
    }

    fn shard_count(&self) -> usize {
        read(self.state)
            .shards
            .as_ref()
            .map_or(0, |s| s.shards.len())
    }

    /// Eval-mode logits of the images `batch`, one row per image.
    pub(crate) fn logits(&mut self, batch: &[usize]) -> Tensor {
        self.load(batch, false);
        self.forward();
        self.gather_logits()
    }

    /// Runs whole-batch tasks and joins each node's pieces in task order.
    fn run_whole(&mut self, tasks: Vec<Task>) -> Vec<(usize, Pair)> {
        let (tasks, outs) = self.crew.run(tasks);
        let mut joined: Vec<(usize, Pair)> = Vec::new();
        for (task, (mut a, b)) in tasks.iter().zip(outs).filter_map(|(t, o)| Some((t, o?))) {
            if let Task::LinearGrad { piece, .. } = task {
                a.extend_from_slice(&lock(&self.layout.pieces[*piece]));
            }
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
        let shards = state.shards.as_ref().expect("a loaded batch");
        let mut data = Vec::new();
        for shard in &shards.shards {
            data.extend_from_slice(read(shard).ws.output().data());
        }
        let classes = data.len() / shards.batch;
        Tensor::from_vec(data, &[shards.batch, classes]).expect("one row per image")
    }
}

impl<G: DerefMut<Target = Graph> + Send + Sync> Sharded<'_, '_, G> {
    /// One training step's forward and backward pass over the images
    /// `batch` with `labels`: returns the mean loss, the number of correct
    /// predictions and every node's parameter gradient, and moves the
    /// batch-norm running statistics toward the batch's.
    pub(crate) fn train_step(
        &mut self,
        batch: &[usize],
        labels: &[usize],
    ) -> (f32, usize, Vec<Option<ParamGrad>>) {
        self.load(batch, true);
        self.forward();
        let logits = self.gather_logits();
        let (loss, dlogits) = cross_entropy_with_logits(&logits, labels);
        let correct = argmax_rows(&logits)
            .zip(labels)
            .filter(|(pred, label)| pred == *label)
            .count();
        self.seed_backward(&dlogits);
        let grads = self.backward();
        let mut state = write(self.state);
        let state = &mut *state;
        let shards = state.shards.as_ref().expect("a loaded batch");
        // Every shard holds the statistics of the whole batch.
        state
            .graph
            .update_running_stats_from(&read(&shards.shards[0]).ws);
        (loss, correct, grads)
    }

    /// Runs `f` on the graph between steps.
    pub(crate) fn update_graph(&mut self, f: impl FnOnce(&mut Graph)) {
        f(&mut write(self.state).graph);
    }

    /// Hands each shard its rows of the loss gradient `dlogits`.
    fn seed_backward(&self, dlogits: &Tensor) {
        let state = read(self.state);
        let shards = state.shards.as_ref().expect("a loaded batch");
        let plan = shards.slots.as_ref().expect("training shards");
        let last = self.layout.bn.len() - 1;
        let classes = dlogits.shape().dim(1);
        for shard in &shards.shards {
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
    fn backward(&mut self) -> Vec<Option<ParamGrad>> {
        let n = self.layout.bn.len();
        let k = self.shard_count();
        let mut params: Vec<Option<ParamGrad>> = vec![None; n];
        let mut top = n - 1;
        let mut sums = None;
        if self.layout.bn[top].is_some() {
            sums = self.param_run(Vec::new(), Some(top), &mut params);
        }
        loop {
            let below = (0..top).rev().find(|&i| self.layout.bn[i].is_some());
            let bottom = below.map_or(0, |b| b + 1);
            let shard_tasks = (0..k).map(|shard| Task::Backward {
                shard,
                span: bottom..top + 1,
                sums: sums.clone(),
            });
            self.crew.run(shard_tasks.collect());
            let layout = self.layout;
            let tasks = (bottom..=top)
                .filter(|&i| layout.wanted[i])
                .flat_map(|i| layout.param_tasks[i].iter().cloned())
                .collect();
            sums = self.param_run(tasks, below, &mut params);
            match below {
                Some(b) => top = b,
                None => return params,
            }
        }
    }

    /// Runs `tasks` and the gradient sums of batch norm `bn` together,
    /// stores every node's parameter gradient in `params` and returns the
    /// batch norm's.
    fn param_run(
        &mut self,
        mut tasks: Vec<Task>,
        bn: Option<usize>,
        params: &mut [Option<ParamGrad>],
    ) -> Option<Pair> {
        if let Some(node) = bn.filter(|&b| self.layout.wanted[b]) {
            let c = self.layout.bn[node].unwrap_or(0);
            tasks.extend(blocks(c, BN_LANES).map(|channels| Task::BnSums { node, channels }));
        }
        let mut sums = None;
        for (node, (weight, bias)) in self.run_whole(tasks) {
            if Some(node) == bn {
                sums = Some((weight.clone(), bias.clone()));
            }
            let state = read(self.state);
            let [w, b] = state.graph.nodes()[node]
                .op
                .params()
                .expect("a parameter node");
            params[node] = Some(ParamGrad {
                weight: Tensor::from_vec(weight, w.shape().dims()).expect("weight-shaped"),
                bias: Tensor::from_vec(bias, b.shape().dims()).expect("bias-shaped"),
            });
        }
        sums
    }
}

/// One crew task. Shard tasks take their shard's write lock; whole-batch
/// tasks take every shard's read lock and return their piece of a node's
/// result.
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
    /// A depthwise convolution's filter and bias gradients for `channels`.
    DwGrad { node: usize, channels: Range<usize> },
    /// Weight-gradient `rows` of a linear layer, written to
    /// [`Layout::pieces`]`[piece]`.
    LinearGrad {
        node: usize,
        rows: Range<usize>,
        piece: usize,
    },
    /// A linear layer's bias gradient.
    LinearBias { node: usize },
}

impl Task {
    /// The node a whole-batch task computes a piece of.
    fn node(&self) -> usize {
        match self {
            Task::Forward { .. } | Task::Backward { .. } => usize::MAX,
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
    layout: &'a Layout,
}

impl<'a> Ctx<'a> {
    fn new<G: Deref<Target = Graph>>(
        state: &'a State<G>,
        layout: &'a Layout,
        images: &'a [Tensor],
    ) -> Self {
        let shards = state.shards.as_ref().expect("a loaded batch");
        Ctx {
            graph: &state.graph,
            kernels: state.kernels.as_ref().expect("packed weights"),
            mode: state.mode,
            images,
            batch: &state.batch,
            shards: &shards.shards,
            slots: shards.slots.as_ref(),
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
                let kernels = Some(self.kernels);
                let span = span.clone();
                self.graph
                    .forward_span(&s.input, self.mode, &mut s.ws, kernels, span);
                None
            }
            Task::Backward { shard, span, sums } => {
                self.backward_shard(&mut write(&self.shards[*shard]), span, sums.as_ref());
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
                let partials = &mut s.partials[i];
                match s.start {
                    0 => conv2d_weight_partial_sum(ins[0], &gout, &l.spec, partials, scratch),
                    _ => conv2d_weight_partials(ins[0], &gout, &l.spec, partials, scratch),
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
                        grad.input_grad_into(k, &mut g, Some(&mut *scratch));
                        s.grads[j] = Some(g);
                    }
                    Some(acc) => {
                        let mut buf = std::mem::take(&mut s.scratch);
                        buf.resize(acc.len(), 0.0);
                        let mut g = Tensor::from_vec(buf, dims).expect("scratch sized");
                        grad.input_grad_into(k, &mut g, Some(&mut *scratch));
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
                let partials: Vec<&[f32]> =
                    shards.iter().map(|s| s.partials[node].as_slice()).collect();
                let (gw, gb) = conv2d_sum_partials(&partials, &l.spec);
                (gw.into_vec(), gb.into_vec())
            }
            (Task::DwGrad { channels, .. }, Op::DwConv2d(l)) => {
                dwconv2d_param_grads(&parts(), &l.spec, channels.clone())
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
