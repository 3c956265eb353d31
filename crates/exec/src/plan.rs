//! Precomputed per-node trace plans.
//!
//! Everything about a node's trace that depends only on the model — code
//! regions, weight/bias/output stream ranges, per-tile weight-slice
//! geometry, loop trip counts, instruction budgets, which streams touch
//! their lines first — is computed once at
//! [`TraceEngine`](crate::TraceEngine) construction. At measure time the
//! only remaining data-dependent work is counting the active elements of
//! each input-activation tile, which selects how many lines of each
//! precomputed weight slice are streamed.

use std::sync::Arc;

use advhunter_nn::{Graph, MatKernels, Op, Src};
use advhunter_tensor::ops::KernelVariant;
use advhunter_uarch::LINE_BYTES;

use crate::layout::{MemoryLayout, Region};

/// Where a matrix node's trace reads its input activations from at
/// measure time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum InputSlot {
    /// The image being measured.
    Image,
    /// The workspace output of node `j`.
    Node(usize),
}

/// One input-activation tile of a matrix kernel: the address of the
/// activation line the kernel inspects and the weight-line slice it streams
/// when the tile is active.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TilePlan {
    /// Address of the tile's activation line.
    pub x_addr: u64,
    /// First address of the tile's weight-line slice.
    pub w_addr: u64,
    /// Length of the slice in lines; the active-element count decides how
    /// many of them are streamed.
    pub slice: u64,
}

/// Which of a node's streams the plan proves untouched since the
/// machine's reset: the replay fills their lines without tag scans
/// ([`CounterGroup::fill_read`](advhunter_uarch::CounterGroup::fill_read)
/// and its siblings). Set by [`TracePlan::new`]'s walk over the plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Fills {
    /// The kernel code fetch.
    pub code: bool,
    /// A matrix node's weight slices, or an element-wise node's pre-load
    /// stream.
    pub weights: bool,
    /// The input activation lines.
    pub input: bool,
    /// A matrix node's bias stream.
    pub bias: bool,
    /// The output stream.
    pub out: bool,
}

/// The static trace of one node.
#[derive(Debug, Clone)]
pub(crate) enum NodePlan {
    /// Tiled sparsity-aware GEMM/conv kernel (`Conv2d`, `DwConv2d`,
    /// `Linear`).
    Matrix {
        /// Kernel code region.
        code: Region,
        /// Where the input activations live at measure time.
        input: InputSlot,
        /// Per-tile activation/weight geometry.
        tiles: Vec<TilePlan>,
        /// The input activations the tiles inspect, one line per tile;
        /// its line count is the outer loop's trip count.
        activations: Region,
        /// The weights the tiles slice; its line count is the inner loop's
        /// trip count.
        weights: Region,
        /// Bias stream.
        bias: Region,
        /// Output stream.
        out: Region,
        /// Multiply-accumulate budget (dimension-only).
        macs: u64,
        /// Streams to fill without tag scans.
        fills: Fills,
    },
    /// Dense streaming op, with an optional leading parameter/second-input
    /// stream (folded batch-norm parameters, or the second operand of
    /// `Add`/`Concat`/`ScaleChannels`).
    Elementwise {
        /// Kernel code region.
        code: Region,
        /// Streamed before the main input (parameter block or second
        /// operand), if any.
        pre_load: Option<Region>,
        /// Main input stream.
        input: Region,
        /// Output stream.
        out: Region,
        /// Instruction budget (dimension-only).
        instructions: u64,
        /// Streams to fill without tag scans.
        fills: Fills,
    },
    /// A view — no data movement.
    Flatten,
}

/// The full static trace plan of a model, in node order.
#[derive(Debug, Clone)]
pub(crate) struct TracePlan {
    pub nodes: Vec<NodePlan>,
    /// Pre-packed GEMM kernels for the forward pass, shared read-only
    /// across every worker thread.
    pub kernels: Arc<MatKernels>,
    /// How many matrix nodes dispatch through each variant, indexed like
    /// [`KernelVariant::ALL`] — precomputed so the hot path's dispatch
    /// telemetry is three counter adds.
    pub variant_counts: [u64; KernelVariant::ALL.len()],
}

impl TracePlan {
    /// Precomputes the plan for `graph` under `layout`, storing the packed
    /// kernel table the measurement forward pass dispatches through.
    pub fn new(graph: &Graph, layout: &MemoryLayout, kernels: Arc<MatKernels>) -> Self {
        let shapes = graph.single_image_shapes();
        let len_of = |src: &Src| -> usize {
            match src {
                Src::Input => graph.input_dims().iter().product(),
                Src::Node(j) => shapes[*j].iter().product(),
            }
        };
        let shape_of = |src: &Src| -> &[usize] {
            match src {
                Src::Input => graph.input_dims(),
                Src::Node(j) => &shapes[*j],
            }
        };

        let mut nodes = Vec::with_capacity(graph.nodes().len());
        for (i, node) in graph.nodes().iter().enumerate() {
            let code = layout.node_code[i];
            let out = layout.node_outputs[i];
            let plan = match &node.op {
                Op::Conv2d(l) => {
                    let s = shape_of(&node.inputs[0]);
                    matrix_plan(
                        code,
                        &node.inputs[0],
                        layout.input_region(&node.inputs, 0),
                        layout.node_weights[i][0],
                        layout.node_weights[i][1],
                        out,
                        l.spec.mac_count(s[1], s[2]),
                    )
                }
                Op::DwConv2d(l) => {
                    let s = shape_of(&node.inputs[0]);
                    let (oh, ow) = l.spec.out_hw(s[1], s[2]);
                    let macs = (s[0] * l.spec.kernel * l.spec.kernel * oh * ow) as u64;
                    matrix_plan(
                        code,
                        &node.inputs[0],
                        layout.input_region(&node.inputs, 0),
                        layout.node_weights[i][0],
                        layout.node_weights[i][1],
                        out,
                        macs,
                    )
                }
                Op::Linear(l) => matrix_plan(
                    code,
                    &node.inputs[0],
                    layout.input_region(&node.inputs, 0),
                    layout.node_weights[i][0],
                    layout.node_weights[i][1],
                    out,
                    l.weight.len() as u64,
                ),
                Op::BatchNorm2d(_) => NodePlan::Elementwise {
                    code,
                    pre_load: Some(layout.node_weights[i][0]),
                    input: layout.input_region(&node.inputs, 0),
                    out,
                    instructions: len_of(&node.inputs[0]) as u64 * 2,
                    fills: Fills::default(),
                },
                Op::ReLU | Op::LeakyReLU { .. } | Op::SiLU | Op::Sigmoid | Op::Tanh => {
                    NodePlan::Elementwise {
                        code,
                        pre_load: None,
                        input: layout.input_region(&node.inputs, 0),
                        out,
                        instructions: len_of(&node.inputs[0]) as u64 * 2,
                        fills: Fills::default(),
                    }
                }
                Op::MaxPool2d { .. } | Op::AvgPool2d { .. } | Op::GlobalAvgPool => {
                    NodePlan::Elementwise {
                        code,
                        pre_load: None,
                        input: layout.input_region(&node.inputs, 0),
                        out,
                        instructions: len_of(&node.inputs[0]) as u64,
                        fills: Fills::default(),
                    }
                }
                Op::Flatten => NodePlan::Flatten,
                Op::Add | Op::ConcatChannels | Op::ScaleChannels => NodePlan::Elementwise {
                    code,
                    pre_load: Some(layout.input_region(&node.inputs, 1)),
                    input: layout.input_region(&node.inputs, 0),
                    out,
                    instructions: (len_of(&node.inputs[0]) + len_of(&node.inputs[1])) as u64,
                    fills: Fills::default(),
                },
            };
            nodes.push(plan);
        }
        mark_fills(&mut nodes);
        let variant_counts = kernels.variant_counts();
        Self {
            nodes,
            kernels,
            variant_counts,
        }
    }
}

impl TracePlan {
    /// Clears every fill mark, so the replay scans every stream.
    #[cfg(test)]
    pub(crate) fn clear_fills(&mut self) {
        for node in &mut self.nodes {
            if let NodePlan::Matrix { fills, .. } | NodePlan::Elementwise { fills, .. } = node {
                *fills = Fills::default();
            }
        }
    }

    /// How many streams carry a fill mark.
    #[cfg(test)]
    pub(crate) fn fill_marks(&self) -> usize {
        let count = |f: &Fills| {
            [f.code, f.weights, f.input, f.bias, f.out]
                .iter()
                .filter(|&&m| m)
                .count()
        };
        self.nodes
            .iter()
            .map(|node| match node {
                NodePlan::Matrix { fills, .. } | NodePlan::Elementwise { fills, .. } => {
                    count(fills)
                }
                NodePlan::Flatten => 0,
            })
            .sum()
    }
}

/// Marks, in execution order, every stream whose footprint no earlier
/// stream can have touched since the machine's reset. A replay starts on a
/// cold machine, and a line enters a cache only when it is accessed (the
/// prefetcher, which breaks this, makes the fill calls scan), so such a
/// stream's lines are absent from every level. A matrix node's weight and
/// input footprints are its whole weight and input regions, whichever tiles
/// an image activates; its tiles stream disjoint slices of them. So every
/// weight slice, bias and batch-norm parameter block is filled (weight
/// regions are disjoint), and so are the first read of the image, the
/// first fetch of each code region and each output into an arena slot no
/// earlier node used.
fn mark_fills(nodes: &mut [NodePlan]) {
    // The regions streamed so far.
    let mut touched: Vec<Region> = Vec::new();
    let mut first_touch = |r: Region| {
        let fresh = touched.iter().all(|&t| !overlap(r, t));
        touched.push(r);
        fresh
    };
    for node in nodes {
        match node {
            NodePlan::Matrix {
                code,
                activations,
                weights,
                bias,
                out,
                fills,
                ..
            } => {
                fills.code = first_touch(*code);
                // The two footprints interleave tile by tile, so each must
                // also miss the other.
                let apart = !overlap(*activations, *weights);
                fills.input = first_touch(*activations) && apart;
                fills.weights = first_touch(*weights) && apart;
                fills.bias = first_touch(*bias);
                fills.out = first_touch(*out);
            }
            NodePlan::Elementwise {
                code,
                pre_load,
                input,
                out,
                fills,
                ..
            } => {
                fills.weights = pre_load.is_some_and(&mut first_touch);
                fills.code = first_touch(*code);
                fills.input = first_touch(*input);
                fills.out = first_touch(*out);
            }
            NodePlan::Flatten => {}
        }
    }
}

/// Whether two regions share a byte.
fn overlap(a: Region, b: Region) -> bool {
    a.base < b.base + b.bytes && b.base < a.base + a.bytes
}

/// Builds the per-tile geometry of a matrix node: tile `i` of `in_lines`
/// inspects one activation line and owns the weight-line slice
/// `[i*w/in, (i+1)*w/in)`.
fn matrix_plan(
    code: Region,
    src: &Src,
    x_region: Region,
    w_region: Region,
    bias: Region,
    out: Region,
    macs: u64,
) -> NodePlan {
    // One tile per activation line: a line-aligned region of `len` floats
    // spans exactly `ceil(len / FLOATS_PER_LINE)` lines, which is also the
    // tile count `tile_active_counts` produces for the tensor.
    let in_lines = x_region.lines();
    let w_lines = w_region.lines();
    let mut tiles = Vec::with_capacity(in_lines as usize);
    for i in 0..in_lines {
        // `in_lines > 0` inside the loop, so the clamp cannot underflow
        // (the pre-plan code subtracted unconditionally and would have
        // underflowed on an empty region).
        let x_line = i.min(in_lines - 1);
        let start = i * w_lines / in_lines;
        let end = (i + 1) * w_lines / in_lines;
        tiles.push(TilePlan {
            x_addr: x_region.base + x_line * LINE_BYTES,
            w_addr: w_region.base + start * LINE_BYTES,
            slice: end - start,
        });
    }
    let input = match src {
        Src::Input => InputSlot::Image,
        Src::Node(j) => InputSlot::Node(*j),
    };
    NodePlan::Matrix {
        code,
        input,
        tiles,
        activations: x_region,
        weights: w_region,
        bias,
        out,
        macs,
        fills: Fills::default(),
    }
}
