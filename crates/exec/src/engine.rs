//! The instrumented-inference engine.

use std::sync::{Arc, Mutex, OnceLock};

use advhunter_nn::{Graph, Mode, Workspace};
use advhunter_runtime::{parallel_map_with, Parallelism};
use advhunter_telemetry::{Counter, Histogram};
use advhunter_tensor::ops::KernelVariant;
use advhunter_tensor::Tensor;
use advhunter_uarch::{CounterGroup, HpcCounts, HpcEvent, HpcSample, MachineConfig, Sampler};
use rand::Rng;

/// Telemetry handles for the measurement hot path, registered once in the
/// global registry. Observational only — the measured counts, predictions,
/// and noise streams are untouched, and stage spans read the clock only
/// when telemetry is enabled.
struct EngineMetrics {
    measurements: Arc<Counter>,
    scratch_pool_hits: Arc<Counter>,
    scratch_pool_misses: Arc<Counter>,
    forward_ns: Arc<Histogram>,
    trace_ns: Arc<Histogram>,
    /// Cumulative simulated-HPC event totals, indexed like
    /// [`HpcEvent::ALL`].
    event_totals: [Arc<Counter>; HpcEvent::ALL.len()],
    /// Matrix-node dispatches through each packed-kernel variant, indexed
    /// like [`KernelVariant::ALL`].
    gemm_dispatch: [Arc<Counter>; KernelVariant::ALL.len()],
}

fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = advhunter_telemetry::global();
        EngineMetrics {
            measurements: r.counter(
                "advhunter_exec_measurements_total",
                "Instrumented inferences replayed through the simulated machine",
            ),
            scratch_pool_hits: r.counter(
                "advhunter_exec_scratch_pool_hits_total",
                "Measurements that recycled a pooled TraceScratch",
            ),
            scratch_pool_misses: r.counter(
                "advhunter_exec_scratch_pool_misses_total",
                "Measurements that had to allocate a fresh TraceScratch",
            ),
            forward_ns: r.histogram(
                "advhunter_exec_forward_ns",
                "Wall time of the model forward pass per measurement",
            ),
            trace_ns: r.histogram(
                "advhunter_exec_trace_ns",
                "Wall time of the trace replay through the cache/branch model per measurement",
            ),
            event_totals: HpcEvent::ALL.map(|event| {
                // Prometheus metric names cannot contain '-'.
                let name = format!(
                    "advhunter_exec_event_{}_total",
                    event.perf_name().replace('-', "_").to_lowercase()
                );
                r.counter(
                    &name,
                    "Cumulative noise-free simulated counts for this HPC event",
                )
            }),
            gemm_dispatch: KernelVariant::ALL.map(|variant| {
                let name = format!("advhunter_gemm_dispatch_{}_total", variant.label());
                r.counter(
                    &name,
                    "Matrix nodes dispatched through this packed-kernel variant",
                )
            }),
        }
    })
}

use crate::kernels::tile_active_counts_into;
use crate::layout::MemoryLayout;
use crate::plan::{InputSlot, NodePlan, TracePlan};
use crate::FLOATS_PER_LINE;

/// One measured inference: the model's hard-label prediction plus the HPC
/// reading — exactly what the paper's defender observes.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The hard-label prediction (the only model output the defender sees).
    pub predicted: usize,
    /// Mean of `R` noisy counter readings (the paper's `Ē` values).
    pub sample: HpcSample,
    /// The underlying noise-free counts (not available to a real defender;
    /// exposed for analysis and tests).
    pub counts: HpcCounts,
}

/// Reusable per-measurement buffers: the forward-pass workspace plus the
/// tile-activity scratch. One `TraceScratch` serves any number of
/// sequential measurements; give each worker thread its own.
#[derive(Debug, Clone)]
pub struct TraceScratch {
    pub(crate) ws: Workspace,
    pub(crate) tiles: Vec<u8>,
    /// The simulated machine, reset to cold before every measurement so its
    /// reuse is invisible in the counts.
    pub(crate) group: CounterGroup,
}

/// Replays a model's forward pass as a memory/branch/instruction trace
/// through the simulated machine. See the crate docs for the execution
/// model.
///
/// Construction precomputes a static per-node trace plan (code and stream
/// ranges, per-tile weight-slice geometry, loop trip counts); each
/// measurement only runs the model forward into a reusable workspace and
/// counts active tiles — no allocation on the hot path.
#[derive(Debug)]
pub struct TraceEngine {
    layout: MemoryLayout,
    machine: MachineConfig,
    sampler: Sampler,
    pub(crate) plan: TracePlan,
    /// Scratch buffers recycled across `measure`/`true_counts` calls.
    pool: Mutex<Vec<TraceScratch>>,
}

impl Clone for TraceEngine {
    fn clone(&self) -> Self {
        Self {
            layout: self.layout.clone(),
            machine: self.machine,
            sampler: self.sampler,
            plan: self.plan.clone(),
            pool: Mutex::new(Vec::new()),
        }
    }
}

impl TraceEngine {
    /// Engine with the default machine and the paper's `R = 10` sampler.
    pub fn new(graph: &Graph) -> Self {
        Self::with_config(graph, MachineConfig::default(), Sampler::default())
    }

    /// Engine with explicit machine and measurement configuration.
    ///
    /// Construction autotunes and pre-packs the graph's GEMM kernels (see
    /// [`tuned_kernels`](crate::tuned_kernels)); the per-image path then
    /// does zero repacking or tuning work.
    pub fn with_config(graph: &Graph, machine: MachineConfig, sampler: Sampler) -> Self {
        Self::with_config_tuned(graph, machine, sampler, None)
    }

    /// [`with_config`](Self::with_config) with a persisted tuning decision
    /// table: verdicts already in `backend` skip the plan-time benchmarks,
    /// and fresh verdicts are stored back for the next process.
    pub fn with_config_tuned(
        graph: &Graph,
        machine: MachineConfig,
        sampler: Sampler,
        backend: Option<&dyn crate::TunePersistence>,
    ) -> Self {
        let layout = MemoryLayout::new(graph);
        let kernels = Arc::new(crate::tune::tuned_kernels(graph, backend));
        let plan = TracePlan::new(graph, &layout, kernels);
        Self {
            layout,
            machine,
            sampler,
            plan,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The packed-kernel table the forward pass dispatches through.
    pub fn kernels(&self) -> &advhunter_nn::MatKernels {
        &self.plan.kernels
    }

    /// The address layout in use.
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// The simulated machine configuration in use.
    pub fn machine_config(&self) -> MachineConfig {
        self.machine
    }

    /// The measurement sampler in use.
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// Allocates a fresh scratch for `graph` (which must be the graph this
    /// engine was built for). The `*_with` measurement methods reuse it
    /// across calls; the plain methods draw from an internal pool instead.
    pub fn scratch(&self, graph: &Graph) -> TraceScratch {
        TraceScratch {
            ws: graph.workspace(1),
            tiles: Vec::new(),
            group: CounterGroup::new(self.machine),
        }
    }

    fn pooled_scratch(&self, graph: &Graph) -> TraceScratch {
        let recycled = self.pool.lock().expect("scratch pool poisoned").pop();
        match recycled {
            Some(scratch) => {
                engine_metrics().scratch_pool_hits.inc();
                scratch
            }
            None => {
                engine_metrics().scratch_pool_misses.inc();
                self.scratch(graph)
            }
        }
    }

    fn recycle(&self, scratch: TraceScratch) {
        self.pool
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
    }

    /// A pooled scratch that recycles itself when dropped — the per-member
    /// state of [`measure_batch`](Self::measure_batch), so repeated batch
    /// calls reuse buffers instead of allocating per member per call.
    ///
    /// One-shot fan-outs use this to pay the pool mutex once per member
    /// per call instead of twice per image: take one guard per member,
    /// deref it into [`measure_indexed_with`](Self::measure_indexed_with),
    /// and let the drop return the buffers. A loop that lives as long as
    /// its threads (the monitor's crew) owns a plain
    /// [`scratch`](Self::scratch) per member instead.
    pub fn worker_scratch(&self, graph: &Graph) -> PooledScratch<'_> {
        PooledScratch {
            engine: self,
            scratch: Some(self.pooled_scratch(graph)),
        }
    }

    /// Noise-free HPC counts of one inference on a cold machine.
    ///
    /// Deterministic: the same model and image always produce the same
    /// counts.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the model's input shape.
    pub fn true_counts(&self, graph: &Graph, image: &Tensor) -> HpcCounts {
        let mut scratch = self.pooled_scratch(graph);
        let (_, counts) = self.run_with(graph, image, &mut scratch);
        self.recycle(scratch);
        counts
    }

    /// Measures one inference the way the defender does: run it, read the
    /// counters `R` times with noise, average, and note the hard-label
    /// prediction.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the model's input shape.
    pub fn measure(&self, graph: &Graph, image: &Tensor, rng: &mut impl Rng) -> Measurement {
        let mut scratch = self.pooled_scratch(graph);
        let m = self.measure_with(graph, image, rng, &mut scratch);
        self.recycle(scratch);
        m
    }

    /// [`measure`](Self::measure) with caller-owned scratch buffers —
    /// the allocation-free form for measurement loops.
    pub fn measure_with(
        &self,
        graph: &Graph,
        image: &Tensor,
        rng: &mut impl Rng,
        scratch: &mut TraceScratch,
    ) -> Measurement {
        let (predicted, counts) = self.run_with(graph, image, scratch);
        let sample = self.sampler.sample(&counts, rng);
        Measurement {
            predicted,
            sample,
            counts,
        }
    }

    /// Measures one inference using the private noise stream of item
    /// `index` under batch seed `seed` — the single-item unit of
    /// [`measure_batch`](Self::measure_batch). Pure in `(image, seed,
    /// index)`.
    pub fn measure_indexed(
        &self,
        graph: &Graph,
        image: &Tensor,
        seed: u64,
        index: u64,
    ) -> Measurement {
        let mut scratch = self.pooled_scratch(graph);
        let m = self.measure_indexed_with(graph, image, seed, index, &mut scratch);
        self.recycle(scratch);
        m
    }

    /// [`measure_indexed`](Self::measure_indexed) with caller-owned scratch
    /// buffers.
    pub fn measure_indexed_with(
        &self,
        graph: &Graph,
        image: &Tensor,
        seed: u64,
        index: u64,
        scratch: &mut TraceScratch,
    ) -> Measurement {
        self.measure_indexed_if(graph, image, (seed, index), scratch, |_| true)
            .expect("kept unconditionally")
    }

    /// [`measure_indexed_with`](Self::measure_indexed_with) that stops
    /// after the forward pass unless `keep` accepts its prediction: `None`
    /// then, with no trace replayed and no noise drawn. A kept item's
    /// measurement is the unconditional one, bit for bit.
    fn measure_indexed_if(
        &self,
        graph: &Graph,
        image: &Tensor,
        (seed, index): (u64, u64),
        scratch: &mut TraceScratch,
        keep: impl FnOnce(usize) -> bool,
    ) -> Option<Measurement> {
        let predicted = self.forward(graph, image, scratch);
        if !keep(predicted) {
            return None;
        }
        let counts = self.replay(image, scratch);
        let sample = self.sampler.sample_indexed(&counts, seed, index);
        Some(Measurement {
            predicted,
            sample,
            counts,
        })
    }

    /// Measures a whole batch, fanning the per-image trace simulations out
    /// over a one-run runtime crew. Every member replays its images
    /// through a private cold [`CounterGroup`] (cache hierarchy + branch
    /// predictor) using its own reusable scratch, and item `i` draws
    /// measurement noise from the stream seeded by `derive_seed(seed, i)` —
    /// so the result is bit-for-bit identical for every thread count,
    /// including [`Parallelism::sequential`], and `out[i]` equals
    /// [`measure_indexed`](Self::measure_indexed)`(graph, &images[i],
    /// seed, i)`.
    ///
    /// # Panics
    ///
    /// Panics if any image does not match the model's input shape.
    pub fn measure_batch(
        &self,
        graph: &Graph,
        images: &[Tensor],
        seed: u64,
        parallelism: &Parallelism,
    ) -> Vec<Measurement> {
        self.measure_batch_if(graph, images, seed, parallelism, |_, _| true)
            .into_iter()
            .map(|m| m.expect("kept unconditionally"))
            .collect()
    }

    /// [`measure_batch`](Self::measure_batch) that replays item `i`'s trace
    /// only if `keep(i, predicted)` accepts the prediction of its forward
    /// pass: `out[i]` is `None` for the others. Item `i` keeps the noise
    /// stream of `derive_seed(seed, i)`, so a kept item's measurement is
    /// bit for bit `measure_batch`'s, at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if any image does not match the model's input shape.
    pub fn measure_batch_if(
        &self,
        graph: &Graph,
        images: &[Tensor],
        seed: u64,
        parallelism: &Parallelism,
        keep: impl Fn(usize, usize) -> bool + Sync,
    ) -> Vec<Option<Measurement>> {
        parallel_map_with(
            parallelism,
            images,
            || self.worker_scratch(graph),
            |guard, i, image| {
                let index = (seed, i as u64);
                self.measure_indexed_if(graph, image, index, guard, |p| keep(i, p))
            },
        )
    }

    fn run_with(
        &self,
        graph: &Graph,
        image: &Tensor,
        scratch: &mut TraceScratch,
    ) -> (usize, HpcCounts) {
        let predicted = self.forward(graph, image, scratch);
        (predicted, self.replay(image, scratch))
    }

    /// The measured inference's forward pass into the scratch workspace:
    /// the hard-label prediction.
    fn forward(&self, graph: &Graph, image: &Tensor, scratch: &mut TraceScratch) -> usize {
        assert_eq!(
            image.shape().dims(),
            graph.input_dims(),
            "image shape must match model input"
        );
        let metrics = engine_metrics();
        for (count, counter) in self.plan.variant_counts.iter().zip(&metrics.gemm_dispatch) {
            counter.add(*count);
        }
        // A CHW image is a batch of one — same flat data, no copy needed.
        let _span = metrics.forward_ns.span();
        graph.forward_with_kernels(image, Mode::Eval, &mut scratch.ws, &self.plan.kernels);
        argmax_row(scratch.ws.output())
    }

    /// Replays the trace of the forward pass in the scratch workspace
    /// through the simulated machine: its noise-free counts.
    fn replay(&self, image: &Tensor, scratch: &mut TraceScratch) -> HpcCounts {
        let metrics = engine_metrics();
        metrics.measurements.inc();
        let TraceScratch { ws, tiles, group } = scratch;
        // Reused machine, but reset to cold: identical to a fresh one.
        let trace_span = metrics.trace_ns.span();
        group.reset_machine();
        group.enable();
        for node_plan in &self.plan.nodes {
            execute_node(group, node_plan, image, ws, tiles);
        }
        group.disable();
        trace_span.finish();
        let counts = group.read();
        for (event, counter) in HpcEvent::ALL.iter().zip(&metrics.event_totals) {
            counter.add(counts.get(*event));
        }
        counts
    }
}

/// Per-member scratch borrowed from the engine's pool; returns it on drop
/// (one pool-mutex hit per member per batch, not per image). Derefs to
/// [`TraceScratch`] so it plugs straight into
/// [`TraceEngine::measure_indexed_with`].
pub struct PooledScratch<'a> {
    engine: &'a TraceEngine,
    scratch: Option<TraceScratch>,
}

impl std::ops::Deref for PooledScratch<'_> {
    type Target = TraceScratch;

    fn deref(&self) -> &TraceScratch {
        self.scratch
            .as_ref()
            .expect("guard holds scratch until drop")
    }
}

impl std::ops::DerefMut for PooledScratch<'_> {
    fn deref_mut(&mut self) -> &mut TraceScratch {
        self.scratch
            .as_mut()
            .expect("guard holds scratch until drop")
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.engine.recycle(scratch);
        }
    }
}

/// Emits the trace of one node: its static plan plus the data-dependent
/// tile-activity counts of its input activations.
pub(crate) fn execute_node(
    group: &mut CounterGroup,
    plan: &NodePlan,
    image: &Tensor,
    ws: &Workspace,
    tiles_buf: &mut Vec<u8>,
) {
    match plan {
        NodePlan::Matrix {
            code,
            input,
            tiles,
            activations,
            weights,
            bias,
            out,
            macs,
            fills,
        } => {
            fetch(group, code.base, code.lines(), fills.code);
            let data = match input {
                InputSlot::Image => image.data(),
                InputSlot::Node(j) => ws.node_output(*j).data(),
            };
            tile_active_counts_into(data, tiles_buf);
            debug_assert_eq!(
                tiles_buf.len(),
                tiles.len(),
                "tile plan out of sync with activation size"
            );
            // The activation lines are consecutive (tile `i` inspects line
            // `i`), so runs of tiles that stream no weight lines batch
            // their activation loads into one range — semantically one
            // `load` per line in the same order, minus per-call overhead.
            let mut run_base = 0u64;
            let mut run_len = 0u64;
            for (tile, &active) in tiles.iter().zip(tiles_buf.iter()) {
                if run_len == 0 {
                    run_base = tile.x_addr;
                }
                run_len += 1;
                if active > 0 && tile.slice > 0 {
                    read(group, run_base, run_len, fills.input);
                    run_len = 0;
                    // Fetch only the weight rows of the tile's active
                    // neurons.
                    let take = (tile.slice * active as u64).div_ceil(FLOATS_PER_LINE as u64);
                    read(group, tile.w_addr, take.min(tile.slice), fills.weights);
                }
            }
            if run_len > 0 {
                read(group, run_base, run_len, fills.input);
            }
            read(group, bias.base, bias.lines(), fills.bias);
            write(group, out.base, out.lines(), fills.out);

            // Dimension-only control flow: outer loop over input lines,
            // inner loop over weight slice, write-out loop.
            group.loop_branches(code.base, activations.lines());
            group.loop_branches(code.base + 8, weights.lines().max(1));
            group.loop_branches(code.base + 16, out.lines());
            group.retire_instructions(macs / 4 + out.lines() * 4);
        }
        NodePlan::Elementwise {
            code,
            pre_load,
            input,
            out,
            instructions,
            fills,
        } => {
            if let Some(r) = pre_load {
                read(group, r.base, r.lines(), fills.weights);
            }
            fetch(group, code.base, code.lines(), fills.code);
            read(group, input.base, input.lines(), fills.input);
            write(group, out.base, out.lines(), fills.out);
            group.loop_branches(code.base, input.lines().max(1));
            group.retire_instructions(*instructions);
        }
        NodePlan::Flatten => {
            // A view: no data movement, negligible instructions.
            group.retire_instructions(4);
        }
    }
}

/// Streams data reads, as fills when the plan marks the lines untouched.
fn read(group: &mut CounterGroup, base: u64, lines: u64, fill: bool) {
    if fill {
        group.fill_read(base, lines);
    } else {
        group.stream_read(base, lines);
    }
}

/// Streams data writes, as fills when the plan marks the lines untouched.
fn write(group: &mut CounterGroup, base: u64, lines: u64, fill: bool) {
    if fill {
        group.fill_write(base, lines);
    } else {
        group.stream_write(base, lines);
    }
}

/// Fetches kernel code, as fills when the plan marks the lines untouched.
fn fetch(group: &mut CounterGroup, base: u64, lines: u64, fill: bool) {
    if fill {
        group.fill_fetch(base, lines);
    } else {
        group.fetch_range(base, lines);
    }
}

fn argmax_row(logits: &Tensor) -> usize {
    let c = logits.shape().dim(1);
    logits.data()[..c]
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use advhunter_nn::GraphBuilder;
    use advhunter_uarch::{HpcEvent, NoiseModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> Graph {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = GraphBuilder::new(&[1, 8, 8]);
        let input = b.input();
        let c1 = b.conv2d("c1", input, 8, 3, 1, 1, &mut rng);
        let r1 = b.relu("r1", c1);
        let c2 = b.conv2d("c2", r1, 8, 3, 1, 1, &mut rng);
        let r2 = b.relu("r2", c2);
        let f = b.flatten("f", r2);
        b.linear("fc", f, 4, &mut rng);
        b.build()
    }

    fn image(seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        advhunter_tensor::init::uniform(&mut rng, &[1, 8, 8], 0.0, 1.0)
    }

    #[test]
    fn true_counts_are_deterministic() {
        let g = model();
        let e = TraceEngine::new(&g);
        let img = image(0);
        assert_eq!(e.true_counts(&g, &img), e.true_counts(&g, &img));
    }

    #[test]
    fn control_flow_events_are_input_independent() {
        let g = model();
        let e = TraceEngine::new(&g);
        let a = e.true_counts(&g, &image(1));
        let b = e.true_counts(&g, &image(2));
        for ev in [
            HpcEvent::Instructions,
            HpcEvent::Branches,
            HpcEvent::BranchMisses,
        ] {
            assert_eq!(a.get(ev), b.get(ev), "{ev} must not depend on the input");
        }
        assert_eq!(
            a.get(HpcEvent::L1iLoadMisses),
            b.get(HpcEvent::L1iLoadMisses),
            "instruction-cache behavior is input-independent"
        );
    }

    #[test]
    fn data_flow_events_depend_on_activations() {
        let g = model();
        let e = TraceEngine::new(&g);
        // Many different images: cache-miss counts must vary.
        let misses: Vec<u64> = (0..8)
            .map(|s| e.true_counts(&g, &image(s)).get(HpcEvent::CacheMisses))
            .collect();
        let distinct: std::collections::HashSet<u64> = misses.iter().copied().collect();
        assert!(
            distinct.len() > 1,
            "cache misses identical across inputs: {misses:?}"
        );
    }

    #[test]
    fn a_dark_image_touches_fewer_weight_lines() {
        let g = model();
        let e = TraceEngine::new(&g);
        let dark = Tensor::zeros(&[1, 8, 8]);
        let bright = Tensor::full(&[1, 8, 8], 0.9);
        let dark_misses = e.true_counts(&g, &dark).get(HpcEvent::CacheMisses);
        let bright_misses = e.true_counts(&g, &bright).get(HpcEvent::CacheMisses);
        assert!(
            dark_misses < bright_misses,
            "all-zero input must skip weight tiles: {dark_misses} vs {bright_misses}"
        );
    }

    #[test]
    fn measure_returns_prediction_and_noisy_sample() {
        let g = model();
        let e = TraceEngine::with_config(
            &g,
            MachineConfig::default(),
            Sampler {
                noise: NoiseModel::default(),
                repeats: 5,
            },
        );
        let mut rng = StdRng::seed_from_u64(7);
        let m = e.measure(&g, &image(3), &mut rng);
        assert!(m.predicted < 4);
        let truth = m.counts.get(HpcEvent::Instructions) as f64;
        let measured = m.sample.get(HpcEvent::Instructions);
        // Background noise adds up to ~2 * background_mean * weight counts;
        // this toy model is tiny, so allow that absolute slack.
        assert!(
            (measured - truth).abs() < 0.1 * truth + 5_000.0,
            "noisy sample too far from truth: {measured} vs {truth}"
        );
    }

    #[test]
    fn prediction_matches_plain_forward() {
        let g = model();
        let e = TraceEngine::new(&g);
        let mut rng = StdRng::seed_from_u64(9);
        for s in 0..5 {
            let img = image(s);
            let m = e.measure(&g, &img, &mut rng);
            let batch = Tensor::stack(std::slice::from_ref(&img));
            assert_eq!(m.predicted, g.predict(&batch)[0]);
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let g = model();
        let e = TraceEngine::new(&g);
        let mut reused = e.scratch(&g);
        for s in 0..6 {
            let img = image(s);
            let mut fresh = e.scratch(&g);
            let a = e.measure_indexed_with(&g, &img, 99, s, &mut reused);
            let b = e.measure_indexed_with(&g, &img, 99, s, &mut fresh);
            assert_eq!(a, b, "scratch reuse changed measurement {s}");
            assert_eq!(a, e.measure_indexed(&g, &img, 99, s));
        }
    }

    #[test]
    fn packed_kernels_leave_the_trace_untouched() {
        let g = model();
        let packed = TraceEngine::new(&g);
        // Same engine with the kernel table emptied: the forward pass runs
        // the reference loops instead of the packed panels.
        let mut reference = packed.clone();
        reference.plan.kernels = Arc::new(advhunter_nn::MatKernels::default());
        reference.plan.variant_counts = Default::default();
        assert!(packed.plan.kernels.iter().count() > 0, "engine must pack");
        for s in 0..4 {
            let img = image(s);
            assert_eq!(
                packed.true_counts(&g, &img),
                reference.true_counts(&g, &img),
                "packed dispatch changed the simulated trace for image {s}"
            );
        }
    }

    /// Every op of the graph zoo, with a residual `Add`, a `ConcatChannels`
    /// and a squeeze-excite `ScaleChannels` whose inputs reuse arena slots.
    fn zoo() -> Graph {
        let mut rng = StdRng::seed_from_u64(17);
        let mut b = GraphBuilder::new(&[2, 8, 8]);
        let input = b.input();
        let c1 = b.conv2d("c1", input, 8, 3, 1, 1, &mut rng);
        let bn = b.batchnorm("bn", c1);
        let s1 = b.silu("silu", bn);
        let dw = b.dwconv2d("dw", s1, 3, 1, 1, &mut rng);
        let lr = b.leaky_relu("lrelu", dw, 0.1);
        let th = b.tanh("tanh", lr);
        let ad = b.add("add", th, s1);
        let mp = b.maxpool("mp", ad, 2, 2);
        let ap = b.avgpool("ap", ad, 2, 2);
        let cc = b.concat("cat", mp, ap);
        let rr = b.relu("relu", cc);
        let gp = b.global_avgpool("gap", rr);
        let se = b.linear("se", gp, 16, &mut rng);
        let sg = b.sigmoid("sig", se);
        let sc = b.scale_channels("scale", rr, sg);
        let fl = b.flatten("flat", sc);
        b.linear("fc", fl, 5, &mut rng);
        b.build()
    }

    /// Every checked-in spec under `specs/`, compiled from its own seed,
    /// plus the zoo graph.
    fn spec_library() -> Vec<(String, Graph)> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        let mut graphs = vec![("zoo".to_string(), zoo())];
        for entry in std::fs::read_dir(dir).expect("specs dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("ahg") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("read spec");
            let spec = advhunter_nn::spec::GraphSpec::parse(&text).expect("checked-in spec parses");
            let mut rng = StdRng::seed_from_u64(spec.model_seed);
            let graph = spec
                .build_graph(&mut rng)
                .expect("checked-in spec compiles");
            graphs.push((spec.name, graph));
        }
        assert!(graphs.len() > 16, "expected the full spec library");
        graphs
    }

    /// The fill marks change nothing: on every spec and the zoo graph, a
    /// replay through the plan's marks leaves the same counts and the same
    /// final machine (caches, predictor, counters) as a replay that scans
    /// every stream. With the prefetcher enabled, whose LLC fills break
    /// the marks' premise, the fill calls scan and nothing changes either.
    #[test]
    fn fill_marks_leave_counts_and_machine_untouched() {
        let prefetching = MachineConfig {
            prefetch: advhunter_uarch::PrefetchConfig::aggressive(),
            ..MachineConfig::default()
        };
        for (name, g) in spec_library() {
            for machine in [MachineConfig::default(), prefetching] {
                let marked = TraceEngine::with_config(&g, machine, Sampler::default());
                let mut scanning = marked.clone();
                scanning.plan.clear_fills();
                assert!(
                    marked.plan.fill_marks() > 0,
                    "{name}: the plan marks no fills"
                );
                assert_eq!(scanning.plan.fill_marks(), 0);
                let dims = g.input_dims();
                let images = [
                    advhunter_tensor::init::uniform(&mut StdRng::seed_from_u64(5), dims, 0.0, 1.0),
                    Tensor::zeros(dims),
                    Tensor::full(dims, 1.0),
                ];
                for (i, img) in images.iter().enumerate() {
                    let mut a = marked.scratch(&g);
                    let mut b = scanning.scratch(&g);
                    let (pa, ca) = marked.run_with(&g, img, &mut a);
                    let (pb, cb) = scanning.run_with(&g, img, &mut b);
                    let case = format!("{name}, image {i}, prefetch {}", machine.prefetch.enabled);
                    assert_eq!((pa, ca), (pb, cb), "{case}: counts differ");
                    assert!(a.group == b.group, "{case}: final machines differ");
                }
            }
        }
    }

    #[test]
    fn cloned_engine_measures_identically() {
        let g = model();
        let e = TraceEngine::new(&g);
        let img = image(2);
        // Warm the pool, then clone (clones start with an empty pool).
        let _ = e.true_counts(&g, &img);
        let e2 = e.clone();
        assert_eq!(e.true_counts(&g, &img), e2.true_counts(&g, &img));
    }

    #[test]
    fn measure_batch_is_thread_count_invariant() {
        let g = model();
        let e = TraceEngine::new(&g);
        let images: Vec<Tensor> = (0..6).map(image).collect();
        let seq = e.measure_batch(&g, &images, 42, &Parallelism::sequential());
        for threads in [2, 4] {
            let par = e.measure_batch(&g, &images, 42, &Parallelism::new(threads));
            assert_eq!(seq, par, "thread count {threads} changed measurements");
        }
    }

    #[test]
    fn measure_batch_items_match_measure_indexed() {
        let g = model();
        let e = TraceEngine::new(&g);
        let images: Vec<Tensor> = (0..4).map(image).collect();
        let batch = e.measure_batch(&g, &images, 7, &Parallelism::new(2));
        for (i, m) in batch.iter().enumerate() {
            assert_eq!(*m, e.measure_indexed(&g, &images[i], 7, i as u64));
        }
    }

    #[test]
    fn per_item_noise_streams_are_independent_of_neighbours() {
        let g = model();
        let e = TraceEngine::new(&g);
        let a: Vec<Tensor> = vec![image(1), image(2)];
        let b: Vec<Tensor> = vec![image(1), image(3)];
        let ma = e.measure_batch(&g, &a, 11, &Parallelism::sequential());
        let mb = e.measure_batch(&g, &b, 11, &Parallelism::sequential());
        assert_eq!(ma[0], mb[0], "item 0 must not depend on its neighbours");
    }

    #[test]
    fn counts_scale_with_model_size() {
        let small = model();
        let mut rng = StdRng::seed_from_u64(11);
        let mut b = GraphBuilder::new(&[1, 8, 8]);
        let input = b.input();
        let c1 = b.conv2d("c1", input, 32, 3, 1, 1, &mut rng);
        let r1 = b.relu("r1", c1);
        let f = b.flatten("f", r1);
        b.linear("fc", f, 4, &mut rng);
        let big = b.build();

        let img = image(4);
        let es = TraceEngine::new(&small);
        let eb = TraceEngine::new(&big);
        assert!(
            eb.true_counts(&big, &img).get(HpcEvent::Instructions)
                > es.true_counts(&small, &img).get(HpcEvent::Instructions) / 2,
            "bigger model retires comparable or more instructions"
        );
    }
}
