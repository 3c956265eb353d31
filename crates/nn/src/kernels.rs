//! Pre-packed GEMM kernels for a fixed graph: the dispatch table the
//! inference hot path uses instead of the reference matrix loops.
//!
//! [`MatKernels::pack_with`] walks a [`Graph`] once, derives the
//! [`GemmGeometry`] of every `Conv2d` and `Linear` node (from the graph's
//! single-image shape propagation), asks a caller-supplied chooser for the
//! [`KernelVariant`] to use, and repacks that node's weight tensor into the
//! panel layout the variant's microkernel streams. The result is immutable
//! and shared (`Arc` the whole table, or the per-node panels individually),
//! so any number of worker threads can dispatch through it without
//! contention.
//!
//! [`Graph::forward_with_kernels`] is [`Graph::forward_with`] with the
//! matrix nodes routed through the packed panels — bit-for-bit the same
//! activations for every variant choice (see `advhunter_tensor::ops::gemm`).
//!
//! A matrix layer's weight is a [`MatWeight`]: its row-major tensor, or
//! the panels of one variant. A model decoded for serving holds only the
//! panels, and a table packed for it takes them by `Arc` instead of
//! packing a second copy.

use std::borrow::Cow;
use std::sync::Arc;

use advhunter_tensor::ops::{GemmGeometry, GemmOpKind, KernelVariant, PackedWeights};
use advhunter_tensor::Tensor;

use crate::graph::{Graph, Op, Src};

/// The weight of a `Conv2d` or `Linear` layer, a `[rows, k]` matrix held
/// in exactly one layout.
///
/// Training, the reference passes and the `AHW1` weight format read the
/// row-major form; a [`MatWeight::Panels`] weight unpacks to it on demand
/// ([`tensor`](Self::tensor)), a pure permutation, so every reader sees the
/// same floats in either layout. Two weights are equal when they hold the
/// same matrix, whatever their layouts.
#[derive(Debug, Clone)]
pub enum MatWeight {
    /// Row-major `[rows, k]`.
    RowMajor(Tensor),
    /// Packed panels, shared with the kernel tables that dispatch them.
    Panels(Arc<PackedWeights>),
}

impl MatWeight {
    /// Rows of the matrix (output channels / output features).
    pub fn rows(&self) -> usize {
        match self {
            Self::RowMajor(t) => t.shape().dim(0),
            Self::Panels(p) => p.rows(),
        }
    }

    /// Columns of the matrix (the reduction length).
    pub fn k(&self) -> usize {
        match self {
            Self::RowMajor(t) => t.shape().dim(1),
            Self::Panels(p) => p.k(),
        }
    }

    /// Number of matrix elements (padding excluded).
    pub fn len(&self) -> usize {
        match self {
            Self::RowMajor(t) => t.len(),
            Self::Panels(p) => p.rows() * p.k(),
        }
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row-major tensor: borrowed, or unpacked from the panels.
    pub fn tensor(&self) -> Cow<'_, Tensor> {
        match self {
            Self::RowMajor(t) => Cow::Borrowed(t),
            Self::Panels(p) => Cow::Owned(p.to_tensor()),
        }
    }

    /// The row-major tensor, mutably: panels are unpacked into it first,
    /// so the weight is row-major from then on.
    pub fn tensor_mut(&mut self) -> &mut Tensor {
        if let Self::Panels(p) = self {
            *self = Self::RowMajor(p.to_tensor());
        }
        match self {
            Self::RowMajor(t) => t,
            Self::Panels(_) => unreachable!("unpacked above"),
        }
    }

    /// The panels, when the weight is held packed.
    pub fn panels(&self) -> Option<&Arc<PackedWeights>> {
        match self {
            Self::RowMajor(_) => None,
            Self::Panels(p) => Some(p),
        }
    }
}

impl From<Tensor> for MatWeight {
    fn from(t: Tensor) -> Self {
        Self::RowMajor(t)
    }
}

impl PartialEq for MatWeight {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Self::RowMajor(a), Self::RowMajor(b)) => a == b,
            _ => self.tensor() == other.tensor(),
        }
    }
}

/// One matrix node's packed weights and the variant they were packed for.
#[derive(Debug, Clone)]
pub struct NodeKernel {
    /// The blocking strategy chosen for this node's geometry.
    pub variant: KernelVariant,
    /// The node's GEMM dimensions.
    pub geometry: GemmGeometry,
    /// The node's weight tensor in panel layout.
    pub packed: Arc<PackedWeights>,
}

/// Per-node packed-kernel table for one graph (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct MatKernels {
    per_node: Vec<Option<NodeKernel>>,
}

impl MatKernels {
    /// Packs every `Conv2d` and `Linear` node of `graph`, choosing each
    /// node's variant with `choose` (called once per node, in node order).
    /// A node whose weight the graph already holds as panels of the chosen
    /// variant shares them instead of packing a copy.
    pub fn pack_with(graph: &Graph, choose: &mut dyn FnMut(GemmGeometry) -> KernelVariant) -> Self {
        Self::pack_where(graph, choose, |_| true)
    }

    /// [`MatKernels::pack_with`] over the matrix nodes whose op `keep`
    /// accepts.
    fn pack_where(
        graph: &Graph,
        choose: &mut dyn FnMut(GemmGeometry) -> KernelVariant,
        keep: impl Fn(&Op) -> bool,
    ) -> Self {
        let per_node = graph
            .nodes()
            .iter()
            .zip(gemm_geometries(graph))
            .map(|(node, geometry)| {
                let geometry = geometry.filter(|_| keep(&node.op))?;
                let variant = choose(geometry);
                let weight = match &node.op {
                    Op::Conv2d(l) => &l.weight,
                    Op::Linear(l) => &l.weight,
                    _ => unreachable!("only matrix nodes have a geometry"),
                };
                let packed = match weight.panels() {
                    Some(panels) if panels.variant() == variant => Arc::clone(panels),
                    _ => Arc::new(PackedWeights::pack_tensor(&weight.tensor(), variant)),
                };
                Some(NodeKernel {
                    variant,
                    geometry,
                    packed,
                })
            })
            .collect();
        Self { per_node }
    }

    /// The convolutions' panels for training
    /// ([`KernelVariant::TRAINING`]): a training step keeps its linear
    /// layers' panels with their weight blocks.
    pub(crate) fn pack_convolutions(graph: &Graph) -> Self {
        let convolution = |op: &Op| matches!(op, Op::Conv2d(_));
        Self::pack_where(graph, &mut |_| KernelVariant::TRAINING, convolution)
    }

    /// The kernel for node `i`, mutably.
    pub(crate) fn node_mut(&mut self, i: usize) -> Option<&mut NodeKernel> {
        self.per_node.get_mut(i).and_then(|k| k.as_mut())
    }

    /// Packs every matrix node with the default variant (no tuning).
    pub fn pack(graph: &Graph) -> Self {
        Self::pack_with(graph, &mut |_| KernelVariant::default())
    }

    /// The kernels `keep` accepts, sharing their panels; the other nodes
    /// run the reference loops.
    pub fn retained(&self, keep: impl Fn(&NodeKernel) -> bool) -> Self {
        let per_node = self
            .per_node
            .iter()
            .map(|k| k.as_ref().filter(|k| keep(k)).cloned())
            .collect();
        Self { per_node }
    }

    /// The kernel for node `i`, if it is a matrix node.
    pub fn node(&self, i: usize) -> Option<&NodeKernel> {
        self.per_node.get(i).and_then(|k| k.as_ref())
    }

    /// Every packed node, in node order.
    pub fn iter(&self) -> impl Iterator<Item = &NodeKernel> {
        self.per_node.iter().flatten()
    }

    /// How many nodes dispatch through each variant, indexed like
    /// [`KernelVariant::ALL`].
    pub fn variant_counts(&self) -> [u64; KernelVariant::ALL.len()] {
        let mut counts = [0u64; KernelVariant::ALL.len()];
        for kernel in self.iter() {
            let slot = KernelVariant::ALL
                .iter()
                .position(|v| *v == kernel.variant)
                .expect("variant is in ALL");
            counts[slot] += 1;
        }
        counts
    }

    /// Total floats held across all panels (including tail padding) — the
    /// packed-weight memory footprint.
    pub fn packed_floats(&self) -> usize {
        self.iter().map(|k| k.packed.packed_len()).sum()
    }
}

/// The [`GemmGeometry`] of each node (`None` for non-matrix nodes), using
/// single-image shape propagation — the geometry of the measurement path.
pub fn gemm_geometries(graph: &Graph) -> Vec<Option<GemmGeometry>> {
    let shapes = graph.single_image_shapes();
    graph
        .nodes()
        .iter()
        .map(|node| match &node.op {
            Op::Conv2d(l) => {
                let s: &[usize] = match node.inputs[0] {
                    Src::Input => graph.input_dims(),
                    Src::Node(j) => &shapes[j],
                };
                let (oh, ow) = l.spec.out_hw(s[1], s[2]);
                Some(GemmGeometry {
                    op: GemmOpKind::Conv,
                    m: l.spec.out_channels,
                    k: l.spec.in_channels * l.spec.kernel * l.spec.kernel,
                    n: oh * ow,
                })
            }
            Op::Linear(l) => Some(GemmGeometry {
                op: GemmOpKind::Linear,
                m: l.weight.rows(),
                k: l.weight.k(),
                n: 1,
            }),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, Mode};
    use advhunter_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn zoo_graph(rng: &mut StdRng) -> Graph {
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
    fn packed_forward_is_bit_identical_for_every_variant() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = zoo_graph(&mut rng);
        let x = init::normal(&mut rng, &[3, 2, 8, 8], 0.0, 1.0);

        let mut reference = g.workspace(3);
        g.forward_with(&x, Mode::Eval, &mut reference);

        for variant in KernelVariant::ALL {
            let kernels = MatKernels::pack_with(&g, &mut |_| variant);
            let mut ws = g.workspace(3);
            // Twice: buffer reuse must leave no residue on the packed path.
            g.forward_with_kernels(&x, Mode::Eval, &mut ws, &kernels);
            g.forward_with_kernels(&x, Mode::Eval, &mut ws, &kernels);
            for i in 0..g.nodes().len() {
                let (r, p) = (reference.node_output(i).data(), ws.node_output(i).data());
                assert_eq!(
                    r.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    p.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{variant:?} diverged at node {i} ({})",
                    g.nodes()[i].name
                );
            }
        }
    }

    #[test]
    fn geometries_cover_exactly_the_matrix_nodes() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = zoo_graph(&mut rng);
        let geos = gemm_geometries(&g);
        for (node, geo) in g.nodes().iter().zip(&geos) {
            match &node.op {
                Op::Conv2d(_) | Op::Linear(_) => assert!(geo.is_some(), "{}", node.name),
                _ => assert!(geo.is_none(), "{}", node.name),
            }
        }
        let kernels = MatKernels::pack(&g);
        assert_eq!(
            kernels.iter().count(),
            geos.iter().flatten().count(),
            "one kernel per matrix node"
        );
        assert_eq!(
            kernels.variant_counts().iter().sum::<u64>(),
            kernels.iter().count() as u64
        );
        assert!(kernels.packed_floats() > 0);
    }

    #[test]
    fn mixed_variants_choose_per_geometry() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = zoo_graph(&mut rng);
        let x = init::normal(&mut rng, &[1, 2, 8, 8], 0.0, 1.0);
        let mut reference = g.workspace(1);
        g.forward_with(&x, Mode::Eval, &mut reference);

        let mut flip = false;
        let kernels = MatKernels::pack_with(&g, &mut |_| {
            flip = !flip;
            if flip {
                KernelVariant::Mr8Nr8
            } else {
                KernelVariant::Mr6Nr8
            }
        });
        let mut ws = g.workspace(1);
        g.forward_with_kernels(&x, Mode::Eval, &mut ws, &kernels);
        assert_eq!(reference.output().data(), ws.output().data());
    }
}
