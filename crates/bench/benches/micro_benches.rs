//! Micro-benchmarks for the substrates: cache-simulator throughput, branch
//! prediction, convolution (dense and depthwise), max pooling, SiLU, the
//! training backward kernels (reference against packed) and the packed
//! training forward of S1's widest linear layer, S1's memory-bound training
//! kernels (batch norm, SiLU backward, depthwise and pointwise
//! convolution), the depthwise input and filter gradients alone and one
//! batch-norm + SiLU training step, one Adam step over S1's parameters on the calling thread
//! and on a crew of two, four full optimizer steps of S1 and CaseStudy at
//! one and two workers, GMM fitting, instrumented inference, the trace
//! replay alone on S1 and CaseStudy, online detector scoring, and a warm
//! serving boot of S1 and CaseStudy. Each row is the best time per iteration of the shared
//! `advhunter_bench` timing loop over a `CRITERION_MEASURE_MS` window.

use std::hint::black_box;

use advhunter::scenario::ScenarioId;
use advhunter::{
    ArtifactStore, Detector, DetectorConfig, ExecOptions, OfflineTemplate, Parallelism, Pipeline,
    PipelineConfig,
};
use advhunter_bench::{bench_function, measure_budget, report};
use advhunter_data::SplitSizes;
use advhunter_exec::TraceEngine;
use advhunter_gmm::{EmConfig, Gmm1d};
use advhunter_nn::train::{fit, Adam, TrainConfig};
use advhunter_nn::{GraphBuilder, Mode};
use advhunter_tensor::ops::{
    conv2d, conv2d_backward, conv2d_backward_reference, conv2d_packed_into, dwconv2d_backward,
    dwconv2d_input_grad_into, dwconv2d_into, dwconv2d_param_grads, linear_backward,
    linear_input_grad_into, linear_packed_into, matmul, matmul_at, maxpool2d_into,
    silu_backward_into, silu_into, Conv2dScratch, Conv2dSpec, KernelVariant, MaxPoolIndices,
    PackedWeights,
};
use advhunter_tensor::{init, Tensor};
use advhunter_uarch::{AccessKind, BranchPredictor, Cache, CacheConfig, HpcEvent, HpcSample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_cache_access() {
    let mut rng = StdRng::seed_from_u64(0);
    let addrs: Vec<u64> = (0..8192).map(|_| rng.gen_range(0..4_000_000u64)).collect();
    bench_function("cache_8k_random_accesses", || {
        let mut cache = Cache::new(CacheConfig::new(32 * 1024, 8));
        for &a in &addrs {
            cache.access(black_box(a), AccessKind::Read);
        }
        cache.stats().misses()
    });
}

fn bench_branch_predictor() {
    bench_function("branch_predictor_4k_loops", || {
        let mut bp = BranchPredictor::new(12);
        for pc in 0..4096u64 {
            bp.predict_loop(black_box(pc * 4), 64);
        }
        bp.misses()
    });
}

fn bench_conv2d() {
    let mut rng = StdRng::seed_from_u64(1);
    let spec = Conv2dSpec::new(16, 16, 3, 1, 1);
    let x = init::normal(&mut rng, &[1, 16, 32, 32], 0.0, 1.0);
    let w = init::normal(&mut rng, &[16, 16 * 9], 0.0, 0.1);
    let bias = Tensor::zeros(&[16]);
    bench_function("conv2d_16x16_32x32", || {
        conv2d(black_box(&x), &w, &bias, &spec)
    });
}

/// S1's two depthwise layers: mb1.dw (32 channels, 28x28, stride 2) and
/// mb2.dw (48 channels, 14x14, stride 1).
fn bench_dwconv2d() {
    let mut rng = StdRng::seed_from_u64(7);
    for (name, c, hw, stride) in [
        ("dwconv2d_s1_mb1_32x28x28_s2", 32, 28, 2),
        ("dwconv2d_s1_mb2_48x14x14_s1", 48, 14, 1),
    ] {
        let spec = Conv2dSpec::new(c, c, 3, stride, 1);
        let x = init::normal(&mut rng, &[1, c, hw, hw], 0.0, 1.0);
        let w = init::normal(&mut rng, &[c, 9], 0.0, 0.3);
        let bias = init::normal(&mut rng, &[c], 0.0, 0.1);
        let (oh, ow) = spec.out_hw(hw, hw);
        let mut out = Tensor::zeros(&[1, c, oh, ow]);
        let mut scratch = Conv2dScratch::default();
        scratch.reserve_depthwise(hw, hw, &spec);
        bench_function(name, || {
            dwconv2d_into(black_box(&x), &w, &bias, &spec, &mut scratch, &mut out);
            out.data()[0]
        });
    }
}

/// CaseStudy's pool1 (16 channels, 32x32, 2x2 windows, stride 2) over one
/// training batch and over the single image of the serving path.
fn bench_maxpool() {
    let mut rng = StdRng::seed_from_u64(11);
    for batch in [32, 1] {
        let x = init::normal(&mut rng, &[batch, 16, 32, 32], 0.0, 1.0);
        let mut out = Tensor::zeros(&[batch, 16, 16, 16]);
        let mut idx = MaxPoolIndices::empty();
        bench_function(&format!("maxpool2d_case_pool1_b{batch}"), || {
            maxpool2d_into(black_box(&x), 2, 2, &mut out, &mut idx);
            out.data()[0]
        });
    }
}

/// The training backward kernels, reference loops against the packed
/// kernels, over one training batch: CaseStudy's
/// four convolutions, conv1 (3→16 at 32x32), conv2 (16→16 at 32x32), conv3
/// (16→32 at 16x16) and conv4 (32→32 at 16x16), and S1's head.fc1
/// (12544→96), whose packed training forward pass is timed too.
fn bench_backward() {
    let mut rng = StdRng::seed_from_u64(9);
    let batch = 32;
    for (name, c, oc, hw) in [
        ("case_conv1", 3, 16, 32),
        ("case_conv2", 16, 16, 32),
        ("case_conv3", 16, 32, 16),
        ("case_conv4", 32, 32, 16),
    ] {
        let spec = Conv2dSpec::new(c, oc, 3, 1, 1);
        let x = init::normal(&mut rng, &[batch, c, hw, hw], 0.0, 1.0);
        let w = init::normal(&mut rng, &[oc, c * 9], 0.0, 0.1);
        let g = init::normal(&mut rng, &[batch, oc, hw, hw], 0.0, 1.0);
        bench_function(&format!("conv2d_backward_{name}_b32_reference"), || {
            conv2d_backward_reference(black_box(&x), &w, &g, &spec)
        });
        bench_function(&format!("conv2d_backward_{name}_b32_packed_1t"), || {
            conv2d_backward(black_box(&x), &w, &g, &spec)
        });
    }
    let (in_f, out_f) = (64 * 14 * 14, 96);
    let x = init::normal(&mut rng, &[batch, in_f], 0.0, 1.0);
    let w = init::normal(&mut rng, &[out_f, in_f], 0.0, 0.01);
    let g = init::normal(&mut rng, &[batch, out_f], 0.0, 1.0);
    let bias = init::normal(&mut rng, &[out_f], 0.0, 0.1);
    let packed = PackedWeights::pack_tensor(&w, KernelVariant::TRAINING);
    let mut out = Tensor::zeros(&[batch, out_f]);
    bench_function("linear_forward_s1_head_fc1_b32_packed_1t", || {
        linear_packed_into(black_box(&x), &packed, &bias, &mut out);
        out.data()[0]
    });
    bench_function("linear_backward_s1_head_fc1_b32_reference", || {
        (matmul(black_box(&g), &w), matmul_at(&g, &x))
    });
    bench_function("linear_backward_s1_head_fc1_b32_packed_1t", || {
        linear_backward(black_box(&x), &w, &g)
    });
    // One shard's input gradient at two workers.
    let g16 = init::normal(&mut rng, &[16, out_f], 0.0, 1.0);
    let mut dx = Tensor::zeros(&[16, in_f]);
    bench_function("linear_input_grad_s1_head_fc1_b16", || {
        linear_input_grad_into(&w, black_box(&g16), &mut dx);
        dx.data()[0]
    });
}

/// One Adam step over S1's parameters: [`Adam::step`] on the calling
/// thread, and the step `fit` takes on a crew of two, read from its
/// `advhunter_train_optimizer_ns` span: the best mean per step of
/// one-epoch fits over four batches of 32.
fn bench_optimizer() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut model = ScenarioId::S1
        .spec()
        .build_graph(&mut rng)
        .expect("checked-in spec compiles");
    let grads: Vec<Tensor> = model
        .param_tensors()
        .iter()
        .map(|p| init::normal(&mut rng, p.shape().dims(), 0.0, 1e-3))
        .collect();
    let grads: Vec<&Tensor> = grads.iter().collect();
    let mut opt = Adam::new(1e-3);
    bench_function("adam_step_s1_1t", || {
        opt.step(&mut model.param_tensors_mut(), black_box(&grads));
    });

    let images: Vec<Tensor> = (0..128)
        .map(|_| init::uniform(&mut rng, model.input_dims(), 0.0, 1.0))
        .collect();
    let labels: Vec<usize> = (0..128).map(|i| i % 10).collect();
    let config = TrainConfig {
        epochs: 1,
        batch_size: 32,
        ..TrainConfig::default()
    };
    let par = Parallelism::new(2);
    let span = || {
        let snapshot = advhunter_telemetry::global().snapshot();
        let h = snapshot.histogram("advhunter_train_optimizer_ns");
        h.map_or((0, 0), |h| (h.count, h.sum))
    };
    let (mut best, mut steps) = (f64::MAX, 0);
    let start = std::time::Instant::now();
    while start.elapsed() < measure_budget() || steps == 0 {
        let (count, sum) = span();
        fit(&mut model, &images, &labels, &config, &par, &mut rng);
        let (count2, sum2) = span();
        let n = count2 - count;
        best = best.min((sum2 - sum) as f64 / n.max(1) as f64 / 1e3);
        steps += n;
    }
    report("optimizer_step_s1_crew_2t", best, steps);
}

/// Four optimizer steps of `fit` (a one-epoch run over four batches of
/// 32), on the S1 and CaseStudy specs at one and two workers: a quarter of
/// the row is one step, with the shard buffers cut once per run as `fit`
/// cuts them once per batch size.
fn bench_train_step() {
    let mut rng = StdRng::seed_from_u64(12);
    let config = TrainConfig {
        epochs: 1,
        batch_size: 32,
        ..TrainConfig::default()
    };
    for (name, id) in [("s1", ScenarioId::S1), ("case", ScenarioId::CaseStudy)] {
        let spec = id.spec();
        let mut model = spec
            .build_graph(&mut rng)
            .expect("checked-in spec compiles");
        let images: Vec<Tensor> = (0..128)
            .map(|_| init::uniform(&mut rng, model.input_dims(), 0.0, 1.0))
            .collect();
        let labels: Vec<usize> = (0..128).map(|i| i % 10).collect();
        for threads in [1, 2] {
            let par = Parallelism::new(threads);
            bench_function(&format!("train_4_steps_{name}_b32_{threads}t"), || {
                fit(
                    &mut model,
                    black_box(&images),
                    &labels,
                    &config,
                    &par,
                    &mut rng,
                )
            });
        }
    }
}

/// SiLU over mb1.expand's output (32 x 28 x 28), zero-mean so the sign of
/// the input is unpredictable, as it is on real activations.
fn bench_silu() {
    let mut rng = StdRng::seed_from_u64(8);
    let x = init::normal(&mut rng, &[32, 28, 28], 0.0, 2.0);
    let mut out = Tensor::zeros(&[32, 28, 28]);
    bench_function("silu_32x28x28", || {
        silu_into(black_box(&x), &mut out);
        out.data()[0]
    });
}

/// S1's memory-bound training kernels over one 32-image batch: batch norm
/// in train mode on mb1.expand's output, SiLU backward, the two depthwise
/// backward passes, and mb1.expand's pointwise conv.
fn bench_s1_training() {
    let mut rng = StdRng::seed_from_u64(10);
    let batch = 32;
    let mut b = GraphBuilder::new(&[32, 28, 28]);
    let input = b.input();
    b.batchnorm("mb1.expand.bn", input);
    let bn = b.build();
    let x = init::normal(&mut rng, &[batch, 32, 28, 28], 0.5, 2.0);
    let g = init::normal(&mut rng, &[batch, 32, 28, 28], 0.0, 1.0);
    let mut ws = bn.workspace(batch);
    bench_function("batchnorm_train_forward_s1_mb1_expand_b32", || {
        bn.forward_with(black_box(&x), Mode::Train, &mut ws);
        ws.output().data()[0]
    });
    let trace = bn.forward(&x, Mode::Train);
    bench_function("batchnorm_train_backward_s1_mb1_expand_b32", || {
        bn.backward(black_box(&trace), &g)
    });

    let sx = init::normal(&mut rng, &[32, 28, 28], 0.0, 2.0);
    let sg = init::normal(&mut rng, &[32, 28, 28], 0.0, 1.0);
    let mut sgx = Tensor::zeros(&[32, 28, 28]);
    bench_function("silu_backward_32x28x28", || {
        silu_backward_into(black_box(&sx), &sg, &mut sgx);
        sgx.data()[0]
    });

    for (name, c, hw, stride) in [("mb1", 32, 28, 2), ("mb2", 48, 14, 1)] {
        let spec = Conv2dSpec::new(c, c, 3, stride, 1);
        let (oh, ow) = spec.out_hw(hw, hw);
        let x = init::normal(&mut rng, &[batch, c, hw, hw], 0.0, 1.0);
        let w = init::normal(&mut rng, &[c, 9], 0.0, 0.3);
        let g = init::normal(&mut rng, &[batch, c, oh, ow], 0.0, 1.0);
        bench_function(&format!("dwconv2d_backward_s1_{name}_b32_1t"), || {
            dwconv2d_backward(black_box(&x), &w, &g, &spec)
        });
    }

    let spec = Conv2dSpec::new(16, 32, 1, 1, 0);
    let x = init::normal(&mut rng, &[batch, 16, 28, 28], 0.0, 1.0);
    let w = init::normal(&mut rng, &[32, 16], 0.0, 0.3);
    let bias = init::normal(&mut rng, &[32], 0.0, 0.1);
    let g = init::normal(&mut rng, &[batch, 32, 28, 28], 0.0, 1.0);
    let packed = PackedWeights::pack_tensor(&w, KernelVariant::TRAINING);
    let mut scratch = Conv2dScratch::new(16, 28, 28, &spec);
    let mut out = Tensor::zeros(&[batch, 32, 28, 28]);
    bench_function("pointwise_conv_forward_s1_mb1_expand_b32", || {
        conv2d_packed_into(black_box(&x), &packed, &bias, &spec, &mut scratch, &mut out);
        out.data()[0]
    });
    bench_function("pointwise_conv_backward_s1_mb1_expand_b32", || {
        conv2d_backward(black_box(&x), &w, &g, &spec)
    });
}

/// S1's per-channel training layers alone: the depthwise input gradient of
/// a 16-image shard and the filter gradients over a 32-image batch at both
/// depthwise shapes, and one `fit` step (batch 16, one thread) of a
/// mb1.expand-shaped batch norm and SiLU under a pooled linear head.
fn bench_s1_per_channel() {
    let mut rng = StdRng::seed_from_u64(14);
    for (name, c, hw, stride) in [("mb1", 32, 28, 2), ("mb2", 48, 14, 1)] {
        let spec = Conv2dSpec::new(c, c, 3, stride, 1);
        let (oh, ow) = spec.out_hw(hw, hw);
        let x = init::normal(&mut rng, &[32, c, hw, hw], 0.0, 1.0);
        let w = init::normal(&mut rng, &[c, 9], 0.0, 0.3);
        let g = init::normal(&mut rng, &[32, c, oh, ow], 0.0, 1.0);
        let g16 = Tensor::from_vec(g.data()[..16 * c * oh * ow].to_vec(), &[16, c, oh, ow])
            .expect("16 images");
        let mut gx = Tensor::zeros(&[16, c, hw, hw]);
        let mut scratch = Conv2dScratch::default();
        scratch.reserve_depthwise_input_grad(hw, hw, &spec);
        scratch.reserve_depthwise_param_grad(hw, hw, &spec);
        bench_function(&format!("dwconv2d_input_grad_s1_{name}_b16"), || {
            dwconv2d_input_grad_into(&w, black_box(&g16), &spec, &mut scratch, &mut gx);
            gx.data()[0]
        });
        bench_function(&format!("dwconv2d_param_grads_s1_{name}_b32"), || {
            dwconv2d_param_grads(&[(black_box(&x), &g)], &spec, 0..c, &mut scratch)
        });
    }
    let mut b = GraphBuilder::new(&[32, 28, 28]);
    let input = b.input();
    let bn = b.batchnorm("mb1.expand.bn", input);
    let act = b.silu("mb1.expand.act", bn);
    let pool = b.global_avgpool("gap", act);
    let flat = b.flatten("flat", pool);
    b.linear("fc", flat, 10, &mut rng);
    let mut model = b.build();
    let images: Vec<Tensor> = (0..16)
        .map(|_| init::normal(&mut rng, &[32, 28, 28], 0.5, 2.0))
        .collect();
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
    let config = TrainConfig {
        epochs: 1,
        batch_size: 16,
        ..TrainConfig::default()
    };
    let par = Parallelism::new(1);
    bench_function("bn_silu_train_step_s1_mb1_expand_b16_1t", || {
        fit(
            &mut model,
            black_box(&images),
            &labels,
            &config,
            &par,
            &mut rng,
        )
    });
}

fn bench_gmm_fit() {
    let mut rng = StdRng::seed_from_u64(2);
    let data: Vec<f64> = (0..200)
        .map(|i| {
            if i % 2 == 0 {
                rng.gen_range(-1.0..1.0)
            } else {
                10.0 + rng.gen_range(-1.0..1.0)
            }
        })
        .collect();
    bench_function("gmm1d_fit_k2_200pts", || {
        let mut r = StdRng::seed_from_u64(3);
        Gmm1d::fit(black_box(&data), 2, &EmConfig::default(), &mut r).unwrap()
    });
}

fn bench_instrumented_inference() {
    let mut rng = StdRng::seed_from_u64(4);
    let model = ScenarioId::CaseStudy
        .spec()
        .build_graph(&mut rng)
        .expect("checked-in spec compiles");
    let engine = TraceEngine::new(&model);
    let img = init::uniform(&mut rng, &[3, 32, 32], 0.0, 1.0);
    bench_function("trace_inference_case_study_cnn", || {
        engine.true_counts(&model, black_box(&img))
    });
    let batch = Tensor::stack(std::slice::from_ref(&img));
    bench_function("plain_forward_case_study_cnn", || {
        model.forward(black_box(&batch), Mode::Eval)
    });
}

/// The trace replay of one inference alone, on S1 and CaseStudy: each row
/// is the best single replay, read from the engine's
/// `advhunter_exec_trace_ns` span, so the forward pass that precedes it
/// stays outside the timed region.
fn bench_trace_replay() {
    let mut rng = StdRng::seed_from_u64(14);
    let replay_ns = || {
        let snapshot = advhunter_telemetry::global().snapshot();
        snapshot
            .histogram("advhunter_exec_trace_ns")
            .map_or(0, |h| h.sum)
    };
    for (name, id) in [
        ("s1", ScenarioId::S1),
        ("case_study", ScenarioId::CaseStudy),
    ] {
        let model = id
            .spec()
            .build_graph(&mut rng)
            .expect("checked-in spec compiles");
        let engine = TraceEngine::new(&model);
        let img = init::uniform(&mut rng, model.input_dims(), 0.0, 1.0);
        let (mut best, mut iters) = (u64::MAX, 0);
        let start = std::time::Instant::now();
        while start.elapsed() < measure_budget() || iters == 0 {
            let before = replay_ns();
            black_box(engine.true_counts(&model, black_box(&img)));
            best = best.min(replay_ns() - before);
            iters += 1;
        }
        report(&format!("trace_replay_{name}"), best as f64 / 1e3, iters);
    }
}

fn bench_detector_scoring() {
    let mut rng = StdRng::seed_from_u64(5);
    let per_class: Vec<Vec<HpcSample>> = (0..10)
        .map(|cl| {
            (0..60)
                .map(|_| {
                    let mut s = HpcSample::default();
                    s.set(
                        HpcEvent::CacheMisses,
                        10_000.0 + cl as f64 * 500.0 + rng.gen_range(-100.0..100.0),
                    );
                    s
                })
                .collect()
        })
        .collect();
    let template = OfflineTemplate::from_samples(per_class);
    let detector = Detector::fit(
        &template,
        &DetectorConfig::default(),
        &ExecOptions::seeded(6),
    )
    .unwrap();
    let mut probe = HpcSample::default();
    probe.set(HpcEvent::CacheMisses, 12_345.0);
    bench_function("detector_score_all_events", || {
        detector.score_all(black_box(3), &probe)
    });
}

/// A warm serving boot of S1 and CaseStudy: `Pipeline::run_for_serving`
/// on a store primed by one cold boot (a small split; the model is full
/// size). Below each row, the mean of each piece of the model stage over
/// the row's iterations, from the boot histograms: the checksum runs
/// beside the decode and the engine build when a second core is free.
fn bench_serving_boot() {
    const PIECES: [(&str, &str); 4] = [
        ("read", "advhunter_boot_model_read_ns"),
        ("verify", "advhunter_boot_model_verify_ns"),
        ("decode", "advhunter_boot_weight_decode_ns"),
        ("engine", "advhunter_boot_engine_build_ns"),
    ];
    let totals = || {
        let snapshot = advhunter_telemetry::global().snapshot();
        PIECES.map(|(_, name)| {
            snapshot
                .histogram(name)
                .map_or((0, 0), |h| (h.sum, h.count))
        })
    };
    for (name, id) in [("s1", ScenarioId::S1), ("case", ScenarioId::CaseStudy)] {
        let root = std::env::temp_dir().join(format!(
            "advhunter-micro-boot-{name}-{}",
            std::process::id()
        ));
        let store = ArtifactStore::open(&root).expect("open a scratch store");
        let sizes = SplitSizes {
            train: 30,
            val: 40,
            test: 10,
        };
        let pipeline = Pipeline::new(PipelineConfig::for_scenario(id).with_sizes(sizes), store);
        pipeline.run_for_serving().expect("priming boot");
        let before = totals();
        bench_function(&format!("serving_boot_{name}_warm"), || {
            pipeline.run_for_serving().expect("warm boot")
        });
        let pieces: Vec<String> = PIECES
            .iter()
            .zip(before.iter().zip(totals()))
            .map(|((piece, _), (&(sum0, n0), (sum1, n1)))| {
                let mean_ms = (sum1 - sum0) as f64 / (n1 - n0).max(1) as f64 / 1e6;
                format!("{piece} {mean_ms:.2} ms")
            })
            .collect();
        println!("  model stage means: {}", pieces.join(", "));
        std::fs::remove_dir_all(root).ok();
    }
}

fn main() {
    bench_cache_access();
    bench_branch_predictor();
    bench_conv2d();
    bench_dwconv2d();
    bench_maxpool();
    bench_silu();
    bench_backward();
    bench_s1_training();
    bench_s1_per_channel();
    bench_optimizer();
    bench_train_step();
    bench_gmm_fit();
    bench_instrumented_inference();
    bench_trace_replay();
    bench_detector_scoring();
    bench_serving_boot();
}
