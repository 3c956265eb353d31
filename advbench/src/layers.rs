//! Per-layer probes for the traced run. Each one times calls into a public
//! function of one layer, over the corpus's fixed probe slice, and records
//! a span per call.

use std::hint::black_box;

use advhunter::{
    ArtifactStore, Parallelism, Pipeline, PipelineArtifacts, PipelineConfig, StoreTunePersistence,
};
use advhunter_data::DatasetFamily;
use advhunter_exec::{tuned_kernels, TraceEngine};
use advhunter_nn::{Mode, Op};
use advhunter_uarch::HpcEvent;
use advhunter_wire::{Frame, WireVerdict};

use crate::corpus::Item;
use crate::report::Metric;
use crate::runner::defined;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Set-up pieces repeated this many times each; the median is reported.
const SETUP_REPEATS: usize = 3;

fn us(secs: f64) -> f64 {
    secs * 1e6
}

/// The measurement hot path, call by call: forward pass, the full
/// `measure` (forward plus trace replay), noise sampling, GMM scoring, the
/// simulated counts, and a micro-batch at one and two threads.
pub fn hot_path(
    art: &PipelineArtifacts,
    store: &ArtifactStore,
    probe: &[Item],
    seed: u64,
    tracer: &Tracer,
) -> Vec<(String, Metric)> {
    let (model, engine) = (&art.model, &art.engine);
    // The kernels the engine packed, rebuilt from the store's tuning table.
    let kernels = tuned_kernels(model, Some(&StoreTunePersistence::new(store.clone())));
    let mut ws = model.workspace(1);
    let forward: Vec<f64> = probe
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let ((), secs) = tracer.time("nn.forward", Some(i as u64), || {
                model.forward_with_kernels(&item.image, Mode::Eval, &mut ws, &kernels);
                black_box(ws.output());
            });
            us(secs)
        })
        .collect();

    let mut scratch = engine.scratch(model);
    let mut measure = Vec::with_capacity(probe.len());
    let mut sample = Vec::with_capacity(probe.len());
    let mut evaluate = Vec::with_capacity(probe.len());
    let mut totals = [0u64; HpcEvent::ALL.len()];
    for (i, item) in probe.iter().enumerate() {
        let i = i as u64;
        let (m, secs) = tracer.time("exec.measure", Some(i), || {
            engine.measure_indexed_with(model, &item.image, seed, i, &mut scratch)
        });
        measure.push(us(secs));
        for event in HpcEvent::ALL {
            totals[event.index()] += m.counts.get(event);
        }
        let (_, secs) = tracer.time("uarch.sample", Some(i), || {
            black_box(engine.sampler().sample_indexed(&m.counts, seed, i))
        });
        sample.push(us(secs));
        let (_, secs) = tracer.time("core.evaluate", Some(i), || {
            black_box(art.detector.evaluate(m.predicted, &m.sample))
        });
        evaluate.push(us(secs));
    }
    let trace: Vec<f64> = measure.iter().zip(&forward).map(|(m, f)| m - f).collect();

    let images: Vec<_> = probe.iter().map(|item| item.image.clone()).collect();
    let batch = |threads: usize, name: &'static str| -> Vec<f64> {
        images
            .chunks(8)
            .enumerate()
            .map(|(i, chunk)| {
                let (_, secs) = tracer.time(name, Some(i as u64), || {
                    black_box(engine.measure_batch(model, chunk, seed, &Parallelism::new(threads)))
                });
                secs * 1e3
            })
            .collect()
    };
    let batch_1t = batch(1, "runtime.batch8_1t");
    let batch_2t = batch(2, "runtime.batch8_2t");

    let n = probe.len() as f64;
    let mut metrics = vec![
        defined("nn.forward_us.p50", vec![median(&forward)]),
        defined("nn.forward_us.p99", vec![percentile(&forward, 0.99)]),
        defined("exec.measure_us.p50", vec![median(&measure)]),
        defined("exec.measure_us.p99", vec![percentile(&measure, 0.99)]),
        defined("exec.trace_us.p50", vec![median(&trace)]),
        defined("uarch.sample_us.p50", vec![median(&sample)]),
        defined("core.evaluate_us.p50", vec![median(&evaluate)]),
        defined("runtime.batch8_1t_ms", vec![median(&batch_1t)]),
        defined("runtime.batch8_2t_ms", vec![median(&batch_2t)]),
    ];
    for event in HpcEvent::ALL {
        let name = format!(
            "uarch.{}",
            event.perf_name().replace('-', "_").to_lowercase()
        );
        metrics.push(defined(&name, vec![totals[event.index()] as f64 / n]));
    }
    metrics
}

/// Cache references per request attributed to each matrix node (convs and
/// linears), via `TraceEngine::attribute`: one `uarch.node.<node>` entry
/// per node, plus the top node's count and share of the total.
pub fn node_attribution(
    art: &PipelineArtifacts,
    probe: &[Item],
    tracer: &Tracer,
) -> Vec<(String, Metric)> {
    let nodes = art.model.nodes();
    let mut refs = vec![0u64; nodes.len()];
    for (i, item) in probe.iter().enumerate() {
        let (attribution, _) = tracer.time("uarch.attribute", Some(i as u64), || {
            art.engine.attribute(&art.model, &item.image)
        });
        for node in &attribution.nodes {
            refs[node.node_index] += node.counts.get(HpcEvent::CacheReferences);
        }
    }
    let total: u64 = refs.iter().sum();
    let n = probe.len() as f64;
    let matrix = |op: &Op| matches!(op, Op::Conv2d(_) | Op::DwConv2d(_) | Op::Linear(_));
    let mut metrics: Vec<(String, Metric)> = nodes
        .iter()
        .zip(&refs)
        .filter(|(node, _)| matrix(&node.op))
        .map(|(node, &r)| {
            (
                format!("uarch.node.{}.cache_references", node.name),
                Metric::new("count", vec![r as f64 / n]),
            )
        })
        .collect();
    let top = refs.iter().copied().max().unwrap_or(0);
    metrics.push(defined(
        "uarch.top_node.cache_references",
        vec![top as f64 / n],
    ));
    metrics.push(defined(
        "uarch.top_node.cache_ref_share",
        vec![top as f64 / total.max(1) as f64],
    ));
    metrics
}

/// What a warm boot is made of: building the trace engine (with the
/// store's tuning table), regenerating the data split, and the whole warm
/// pipeline run.
pub fn setup_pieces(
    art: &PipelineArtifacts,
    config: &PipelineConfig,
    store: &ArtifactStore,
    tracer: &Tracer,
) -> Result<Vec<(String, Metric)>, String> {
    let tuning = StoreTunePersistence::new(store.clone());
    let spec = &config.spec;
    let family = DatasetFamily::from_slug(&spec.dataset)
        .ok_or_else(|| format!("unknown dataset family {}", spec.dataset))?;
    let mut engine_ms = Vec::new();
    let mut split_s = Vec::new();
    let mut warm_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (_, secs) = tracer.time("exec.engine_build", None, || {
            black_box(TraceEngine::with_config_tuned(
                &art.model,
                art.engine.machine_config(),
                *art.engine.sampler(),
                Some(&tuning),
            ))
        });
        engine_ms.push(secs * 1e3);
        let (_, secs) = tracer.time("data.split", None, || {
            black_box(family.generate(spec.input, spec.classes, spec.dataset_seed, &config.sizes))
        });
        split_s.push(secs);
        let (run, secs) = tracer.time("core.pipeline_warm", None, || {
            Pipeline::new(config.clone(), store.clone()).run()
        });
        run.map_err(|e| format!("warm pipeline run: {e}"))?;
        warm_s.push(secs);
    }
    Ok(vec![
        defined("exec.engine_build_ms", engine_ms),
        defined("data.split_s", split_s),
        defined("core.pipeline_warm_s", warm_s),
    ])
}

/// The wire codec alone: encoding and decoding every probe request, and
/// decoding the verdicts the server actually sent.
pub fn wire_codec(
    probe: &[Item],
    verdicts: &[WireVerdict],
    tracer: &Tracer,
) -> Result<Vec<(String, Metric)>, String> {
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut bytes = 0usize;
    for (i, item) in probe.iter().enumerate() {
        let frame = Frame::Request(
            advhunter_wire::MonitorRequest::new(item.image.clone()).request_id(i as u64),
        );
        let (encoded, secs) = tracer.time("wire.request_encode", Some(i as u64), || frame.encode());
        let encoded = encoded.map_err(|e| format!("encoding a request: {e}"))?;
        encode.push(us(secs));
        bytes = encoded.len();
        let (decoded, secs) = tracer.time("wire.request_decode", Some(i as u64), || {
            Frame::decode(&encoded)
        });
        decoded.map_err(|e| format!("decoding a request: {e}"))?;
        decode.push(us(secs));
    }
    let mut verdict_decode = Vec::new();
    for v in verdicts {
        let encoded = Frame::Verdict(v.clone())
            .encode()
            .map_err(|e| format!("encoding a verdict: {e}"))?;
        let (decoded, secs) = tracer.time("wire.verdict_decode", v.correlation_id, || {
            Frame::decode(&encoded)
        });
        decoded.map_err(|e| format!("decoding a verdict: {e}"))?;
        verdict_decode.push(us(secs));
    }
    Ok(vec![
        defined("wire.request_encode_us.p50", vec![median(&encode)]),
        defined("wire.request_decode_us.p50", vec![median(&decode)]),
        defined("wire.verdict_decode_us.p50", vec![median(&verdict_decode)]),
        defined("wire.request_bytes", vec![bytes as f64]),
    ])
}
