//! Virtual address layout of the inference runtime.

use advhunter_nn::{Graph, Op, Src};
use advhunter_uarch::LINE_BYTES;

/// A contiguous, line-aligned address range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte address (line-aligned).
    pub base: u64,
    /// Size in bytes (line-aligned).
    pub bytes: u64,
}

impl Region {
    /// Number of cache lines spanned.
    pub fn lines(&self) -> u64 {
        self.bytes / LINE_BYTES
    }

    /// Address of line `i` within the region.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn line_addr(&self, i: u64) -> u64 {
        assert!(
            i < self.lines(),
            "line {i} out of range ({} lines)",
            self.lines()
        );
        self.base + i * LINE_BYTES
    }
}

const CODE_BASE: u64 = 0x1000_0000;
const WEIGHT_BASE: u64 = 0x2000_0000;
const ACT_BASE: u64 = 0x6000_0000;
/// Bytes of kernel code modelled per op kind.
const CODE_BYTES_PER_KIND: u64 = 4096;

/// The address map of one model: kernel code per op kind, a weight region
/// per parameter tensor, and an activation buffer per node output (plus the
/// input buffer). `Flatten` aliases its producer's buffer — it is a view,
/// not a copy.
#[derive(Debug, Clone)]
pub struct MemoryLayout {
    /// Input image buffer.
    pub input: Region,
    /// Output activation buffer per node.
    pub node_outputs: Vec<Region>,
    /// Weight regions per node (empty for parameter-free ops). Order
    /// matches the op's parameter order (weight, then bias merged in).
    pub node_weights: Vec<Vec<Region>>,
    /// Kernel code region per node (shared between nodes of the same kind).
    pub node_code: Vec<Region>,
}

impl MemoryLayout {
    /// Builds the address map for a graph.
    pub fn new(graph: &Graph) -> Self {
        let shapes = graph.single_image_shapes();

        // Code: one region per distinct op kind.
        let mut kind_regions: Vec<(u8, Region)> = Vec::new();
        let mut node_code = Vec::with_capacity(graph.nodes().len());
        for node in graph.nodes() {
            let kind = op_kind(&node.op);
            let region = match kind_regions.iter().find(|(k, _)| *k == kind) {
                Some((_, r)) => *r,
                None => {
                    let r = Region {
                        base: CODE_BASE + kind_regions.len() as u64 * CODE_BYTES_PER_KIND,
                        bytes: CODE_BYTES_PER_KIND,
                    };
                    kind_regions.push((kind, r));
                    r
                }
            };
            node_code.push(region);
        }

        // Weights: contiguous per parameter tensor, in node order.
        let mut cursor = WEIGHT_BASE;
        let mut node_weights = Vec::with_capacity(graph.nodes().len());
        for node in graph.nodes() {
            let sizes: Vec<u64> = match &node.op {
                Op::Conv2d(l) => vec![l.weight.len() as u64 * 4, l.bias.len() as u64 * 4],
                Op::DwConv2d(l) => vec![l.weight.len() as u64 * 4, l.bias.len() as u64 * 4],
                Op::Linear(l) => vec![l.weight.len() as u64 * 4, l.bias.len() as u64 * 4],
                Op::BatchNorm2d(bn) => vec![bn.gamma.len() as u64 * 4 * 4], // γ, β, μ, σ² folded
                _ => vec![],
            };
            let mut regions = Vec::with_capacity(sizes.len());
            for sz in sizes {
                let bytes = align_up(sz.max(1));
                regions.push(Region {
                    base: cursor,
                    bytes,
                });
                cursor += bytes;
            }
            node_weights.push(regions);
        }

        // Activations: an arena of reusable slots, as real inference
        // runtimes allocate them. Buffer lifetimes come from a liveness
        // pass (a node's output dies after its last consumer); `Flatten`
        // aliases its producer, extending the producer's lifetime.
        let input_bytes = align_up(graph.input_dims().iter().product::<usize>() as u64 * 4);
        let input = Region {
            base: ACT_BASE,
            bytes: input_bytes,
        };
        let node_outputs = allocate_activation_arena(graph, &shapes, input, ACT_BASE + input_bytes);

        Self {
            input,
            node_outputs,
            node_weights,
            node_code,
        }
    }

    /// The buffer a node reads its `idx`-th input from.
    pub fn input_region(&self, node_inputs: &[Src], idx: usize) -> Region {
        match node_inputs[idx] {
            Src::Input => self.input,
            Src::Node(j) => self.node_outputs[j],
        }
    }

    /// Total weight bytes mapped.
    pub fn total_weight_bytes(&self) -> u64 {
        self.node_weights
            .iter()
            .flat_map(|v| v.iter())
            .map(|r| r.bytes)
            .sum()
    }

    /// Total activation bytes mapped (excluding aliased flatten views).
    pub fn total_activation_bytes(&self) -> u64 {
        let mut seen_bases = std::collections::HashSet::new();
        let mut total = self.input.bytes;
        seen_bases.insert(self.input.base);
        for r in &self.node_outputs {
            if seen_bases.insert(r.base) {
                total += r.bytes;
            }
        }
        total
    }
}

/// Assigns each node output a slot from a reusable arena, register-allocator
/// style: a buffer's lifetime extends to its last (alias-resolved) consumer;
/// freed slots are reused for later buffers that fit.
fn allocate_activation_arena(
    graph: &Graph,
    shapes: &[Vec<usize>],
    input: Region,
    arena_base: u64,
) -> Vec<Region> {
    let nodes = graph.nodes();
    let n = nodes.len();

    // Resolve flatten aliases down to the real producer.
    let resolve = |mut src: Src| -> Src {
        while let Src::Node(j) = src {
            if matches!(nodes[j].op, Op::Flatten) {
                src = nodes[j].inputs[0];
            } else {
                break;
            }
        }
        src
    };

    // Liveness: last node index that reads each producer's buffer.
    let mut last_use: Vec<usize> = (0..n).collect();
    for (i, node) in nodes.iter().enumerate() {
        for &src in &node.inputs {
            if let Src::Node(j) = resolve(src) {
                last_use[j] = last_use[j].max(i);
            }
        }
    }
    // The final output stays live forever.
    if let Some(final_src) = (0..n).last().map(Src::Node) {
        if let Src::Node(j) = resolve(final_src) {
            last_use[j] = usize::MAX;
        }
    }

    // Greedy first-fit over slots: (base, bytes, free_after_node).
    let mut slots: Vec<(u64, u64, usize)> = Vec::new();
    let mut cursor = arena_base;
    let mut regions: Vec<Region> = Vec::with_capacity(n);
    for (i, node) in nodes.iter().enumerate() {
        if matches!(node.op, Op::Flatten) {
            let region = match resolve(Src::Node(i)) {
                Src::Input => input,
                Src::Node(j) => regions[j],
            };
            regions.push(region);
            continue;
        }
        let bytes = align_up(shapes[i].iter().product::<usize>() as u64 * 4);
        let slot = slots
            .iter()
            .position(|&(_, cap, free_after)| free_after < i && cap >= bytes);
        let base = match slot {
            Some(s) => {
                slots[s].2 = last_use[i];
                slots[s].0
            }
            None => {
                let base = cursor;
                cursor += bytes;
                slots.push((base, bytes, last_use[i]));
                base
            }
        };
        regions.push(Region { base, bytes });
    }
    regions
}

fn op_kind(op: &Op) -> u8 {
    match op {
        Op::Conv2d(_) => 0,
        Op::DwConv2d(_) => 1,
        Op::Linear(_) => 2,
        Op::BatchNorm2d(_) => 3,
        Op::ReLU => 4,
        Op::SiLU => 5,
        Op::Sigmoid => 6,
        Op::MaxPool2d { .. } => 7,
        Op::AvgPool2d { .. } => 8,
        Op::GlobalAvgPool => 9,
        Op::Flatten => 10,
        Op::Add => 11,
        Op::ConcatChannels => 12,
        Op::ScaleChannels => 13,
        Op::LeakyReLU { .. } => 14,
        Op::Tanh => 15,
    }
}

fn align_up(bytes: u64) -> u64 {
    bytes.div_ceil(LINE_BYTES) * LINE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use advhunter_nn::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> Graph {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = GraphBuilder::new(&[1, 8, 8]);
        let input = b.input();
        let c = b.conv2d("conv", input, 4, 3, 1, 1, &mut rng);
        let r = b.relu("relu", c);
        let f = b.flatten("flat", r);
        b.linear("fc", f, 3, &mut rng);
        b.build()
    }

    #[test]
    fn regions_are_line_aligned_and_disjoint() {
        let g = model();
        let layout = MemoryLayout::new(&g);
        let mut regions = vec![layout.input];
        regions.extend(layout.node_weights.iter().flatten().copied());
        for r in &regions {
            assert_eq!(r.base % LINE_BYTES, 0);
            assert_eq!(r.bytes % LINE_BYTES, 0);
        }
        // Weight regions must not overlap each other.
        let mut sorted: Vec<Region> = layout.node_weights.iter().flatten().copied().collect();
        sorted.sort_by_key(|r| r.base);
        for w in sorted.windows(2) {
            assert!(w[0].base + w[0].bytes <= w[1].base, "overlap: {w:?}");
        }
    }

    #[test]
    fn flatten_aliases_producer_buffer() {
        let g = model();
        let layout = MemoryLayout::new(&g);
        // Node order: conv(0), relu(1), flatten(2), fc(3).
        assert_eq!(layout.node_outputs[2], layout.node_outputs[1]);
    }

    #[test]
    fn nodes_of_same_kind_share_code() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = GraphBuilder::new(&[1, 4, 4]);
        let input = b.input();
        let c1 = b.conv2d("c1", input, 2, 3, 1, 1, &mut rng);
        let r1 = b.relu("r1", c1);
        let c2 = b.conv2d("c2", r1, 2, 3, 1, 1, &mut rng);
        b.relu("r2", c2);
        let g = b.build();
        let layout = MemoryLayout::new(&g);
        assert_eq!(layout.node_code[0], layout.node_code[2], "convs share code");
        assert_eq!(layout.node_code[1], layout.node_code[3], "relus share code");
        assert_ne!(layout.node_code[0], layout.node_code[1]);
    }

    #[test]
    fn weight_bytes_match_parameter_count() {
        let g = model();
        let layout = MemoryLayout::new(&g);
        // conv: 4*9*4B weights + 4*4B bias; fc: 3*256*4B + 3*4B, all
        // rounded up to 64B lines.
        let expect: u64 = [4 * 9 * 4u64, 4 * 4, 3 * 256 * 4, 3 * 4]
            .iter()
            .map(|&b| b.div_ceil(64) * 64)
            .sum();
        assert_eq!(layout.total_weight_bytes(), expect);
    }

    #[test]
    fn region_line_addressing() {
        let r = Region {
            base: 0x1000,
            bytes: 640,
        };
        assert_eq!(r.lines(), 10);
        assert_eq!(r.line_addr(3), 0x1000 + 192);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn line_addr_bounds_checked() {
        Region { base: 0, bytes: 64 }.line_addr(1);
    }
}
