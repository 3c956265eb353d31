//! Per-layer trace attribution: which node contributes which share of each
//! HPC event.
//!
//! The aggregate counters the defender sees are sums over every layer of
//! the inference. For analysis (not available to a real black-box
//! defender), this module re-runs the trace with a counter snapshot per
//! node, yielding a per-layer breakdown — e.g. to quantify how much of the
//! `cache-misses` signal each layer carries, or why minimally-perturbed
//! adversarial examples can hide from layers whose activations they align
//! with (see EXPERIMENTS.md).

use advhunter_nn::{Graph, Mode};
use advhunter_tensor::Tensor;
use advhunter_uarch::{CounterGroup, HpcCounts, HpcEvent};

use crate::engine::{execute_node, TraceEngine};

/// Counter deltas attributed to one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAttribution {
    /// Node index in the graph.
    pub node_index: usize,
    /// The node's name.
    pub name: String,
    /// Counter increments caused by this node's kernel.
    pub counts: HpcCounts,
}

/// A full per-node breakdown of one inference's trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAttribution {
    /// Per-node deltas, in execution order.
    pub nodes: Vec<NodeAttribution>,
}

impl TraceAttribution {
    /// Total counts (equals the engine's aggregate trace).
    pub fn total(&self) -> HpcCounts {
        let mut total = HpcCounts::default();
        for node in &self.nodes {
            for event in HpcEvent::ALL {
                total.add(event, node.counts.get(event));
            }
        }
        total
    }

    /// Fraction of `event` attributed to node `i` (0 when the total is 0).
    pub fn share(&self, i: usize, event: HpcEvent) -> f64 {
        let total = self.total().get(event);
        if total == 0 {
            return 0.0;
        }
        self.nodes[i].counts.get(event) as f64 / total as f64
    }
}

impl TraceEngine {
    /// Traces one inference with a per-node counter breakdown.
    ///
    /// The forward pass is the engine's packed one, the pass
    /// [`measure`](TraceEngine::measure) runs, and the machine state is
    /// shared across nodes exactly as in
    /// [`true_counts`](TraceEngine::true_counts) — attribution reflects the
    /// warm-cache interactions between layers, and the per-node deltas sum
    /// to the aggregate counts.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the model's input shape.
    pub fn attribute(&self, graph: &Graph, image: &Tensor) -> TraceAttribution {
        assert_eq!(
            image.shape().dims(),
            graph.input_dims(),
            "image shape must match model input"
        );
        let mut scratch = self.scratch(graph);
        graph.forward_with_kernels(image, Mode::Eval, &mut scratch.ws, &self.plan.kernels);

        let mut group = CounterGroup::new(self.machine_config());
        let mut nodes = Vec::with_capacity(graph.nodes().len());
        for (i, node) in graph.nodes().iter().enumerate() {
            group.enable();
            execute_node(
                &mut group,
                &self.plan.nodes[i],
                image,
                &scratch.ws,
                &mut scratch.tiles,
            );
            group.disable();
            nodes.push(NodeAttribution {
                node_index: i,
                name: node.name.clone(),
                counts: group.read(),
            });
        }
        TraceAttribution { nodes }
    }
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
        b.linear("fc", f, 4, &mut rng);
        b.build()
    }

    fn image() -> Tensor {
        let mut rng = StdRng::seed_from_u64(1);
        advhunter_tensor::init::uniform(&mut rng, &[1, 8, 8], 0.0, 1.0)
    }

    #[test]
    fn attribution_sums_to_aggregate_counts() {
        let g = model();
        let engine = TraceEngine::new(&g);
        let img = image();
        let attribution = engine.attribute(&g, &img);
        let aggregate = engine.true_counts(&g, &img);
        assert_eq!(attribution.total(), aggregate);
        for spec in advhunter_nn::variants::canonical_scenarios() {
            let g = spec
                .build_graph(&mut StdRng::seed_from_u64(spec.model_seed))
                .expect("canonical spec compiles");
            let engine = TraceEngine::new(&g);
            let img = advhunter_tensor::init::uniform(
                &mut StdRng::seed_from_u64(2),
                g.input_dims(),
                0.0,
                1.0,
            );
            let attribution = engine.attribute(&g, &img);
            assert_eq!(
                attribution.total(),
                engine.true_counts(&g, &img),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn every_node_is_attributed() {
        let g = model();
        let engine = TraceEngine::new(&g);
        let attribution = engine.attribute(&g, &image());
        assert_eq!(attribution.nodes.len(), g.nodes().len());
        assert_eq!(attribution.nodes[0].name, "conv");
        assert!(attribution.nodes[0].counts.get(HpcEvent::Instructions) > 0);
    }

    #[test]
    fn fc_dominates_cache_misses_in_this_model() {
        // The fc weight matrix (256x4) is bigger than the conv's (4x9), so
        // the fc layer must dominate weight-fetch misses.
        let g = model();
        let engine = TraceEngine::new(&g);
        let attribution = engine.attribute(&g, &image());
        let dominant = attribution
            .nodes
            .iter()
            .max_by_key(|n| n.counts.get(HpcEvent::CacheMisses))
            .unwrap();
        assert_eq!(dominant.name, "fc");
        assert!(attribution.share(3, HpcEvent::CacheMisses) > 0.3);
    }

    #[test]
    fn shares_sum_to_one_per_event() {
        let g = model();
        let engine = TraceEngine::new(&g);
        let attribution = engine.attribute(&g, &image());
        let total: f64 = (0..attribution.nodes.len())
            .map(|i| attribution.share(i, HpcEvent::Instructions))
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
