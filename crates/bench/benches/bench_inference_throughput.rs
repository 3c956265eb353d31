//! Inference hot-path throughput: single-image `measure` (packed kernels
//! vs the reference loops), per-layer GEMM breakdown, plan-time autotuner
//! cold/warm cost, batched measurement at 1/4 workers, and the offline
//! template+fit pipeline end-to-end.
//!
//! Timed with the shared `advhunter_bench::time_per_iter` loop; writes a
//! machine-readable `BENCH_inference.json` at the repo root, including
//! the speedup over the pre-plan engine (which re-traced every node's
//! geometry and reallocated every activation buffer per measurement). `CRITERION_MEASURE_MS` bounds the per-section measuring
//! time (default 300 ms). `ADVHUNTER_KERNEL_ASSERT=1` turns the
//! packed-kernel speedup and tune-cache floors into hard asserts (for CI).

use std::time::Instant;

use advhunter::offline::collect_template;
use advhunter::scenario::ScenarioId;
use advhunter::{Detector, DetectorConfig, ExecOptions, Parallelism};
use advhunter_bench::{measure_budget, time_per_iter};
use advhunter_data::{scenarios, SplitSizes};
use advhunter_exec::TraceEngine;
use advhunter_nn::gemm_geometries;
use advhunter_tensor::init;
use advhunter_tensor::ops::{
    gemm_packed_bias_into, linear_into, linear_packed_bias_into, matmul_into, GemmOpKind,
    PackedWeights,
};
use advhunter_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Single-image `measure` latency of the pre-plan engine on the reference
/// machine (µs, release build, best-of-iterations over a 1 s budget — the
/// same methodology `time_per_iter` uses) — the baseline the speedup is
/// reported against.
const PRE_PR_SINGLE_IMAGE_US: f64 = 2297.7;

fn main() {
    let budget = measure_budget();
    let model = ScenarioId::CaseStudy
        .spec()
        .build_graph(&mut StdRng::seed_from_u64(1))
        .expect("checked-in spec compiles");

    advhunter_bench::section("Inference throughput (case-study CNN, 3x32x32)");

    // Plan-time autotuner cost. The process-global memo makes only the very
    // first call cold (it micro-benchmarks every distinct geometry), so this
    // must run before any engine is built; the second call prices a fully
    // warm plan build (memo hits + weight packing only).
    let t0 = Instant::now();
    let kernels = advhunter_exec::tuned_kernels(&model, None);
    let tune_cold_us = t0.elapsed().as_secs_f64() * 1e6;
    let t0 = Instant::now();
    std::hint::black_box(advhunter_exec::tuned_kernels(&model, None));
    let tune_warm_us = t0.elapsed().as_secs_f64() * 1e6;
    println!(
        "tune/plan_build: cold {tune_cold_us:>10.1} µs  warm {tune_warm_us:>10.1} µs  \
         ({} packed floats)",
        kernels.packed_floats()
    );

    // Reference engine (ADVHUNTER_TUNE=reference leaves the kernel table
    // empty, so every matrix node runs the reference loops) vs the tuned
    // packed-kernel engine — the A/B this PR is about.
    std::env::set_var("ADVHUNTER_TUNE", "reference");
    let reference_engine = TraceEngine::new(&model);
    std::env::remove_var("ADVHUNTER_TUNE");
    let engine = TraceEngine::new(&model);
    let image = init::uniform(&mut StdRng::seed_from_u64(5), &[3, 32, 32], 0.0, 1.0);

    // Single-image measure: the unit of both the offline and online phases.
    let mut rng = StdRng::seed_from_u64(2);
    let (single_us, iters) = time_per_iter(budget, || {
        std::hint::black_box(engine.measure(&model, &image, &mut rng));
    });
    let single_per_s = 1e6 / single_us;
    let speedup = PRE_PR_SINGLE_IMAGE_US / single_us;
    println!(
        "measure/single_image: {single_us:>10.1} µs/iter  {single_per_s:>8.1}/s  \
         ({iters} iters, {speedup:.2}x vs pre-plan {PRE_PR_SINGLE_IMAGE_US} µs)"
    );

    let mut rng = StdRng::seed_from_u64(2);
    let (reference_us, _) = time_per_iter(budget, || {
        std::hint::black_box(reference_engine.measure(&model, &image, &mut rng));
    });
    let packed_speedup = reference_us / single_us;
    println!(
        "measure/single_image/reference_loops: {reference_us:>10.1} µs/iter  \
         (packed kernels {packed_speedup:.2}x faster)"
    );

    // Per-layer GEMM breakdown: each matrix node's reference loops vs its
    // tuned packed kernel, on synthetic operands of the node's geometry.
    let mut layer_rows = Vec::new();
    for (i, (node, geometry)) in model
        .nodes()
        .iter()
        .zip(gemm_geometries(&model))
        .enumerate()
    {
        let Some(geo) = geometry else { continue };
        let kernel = kernels.node(i).expect("matrix node has a kernel");
        let (m, k, n) = (geo.m, geo.k, geo.n);
        let wt = init::uniform(
            &mut StdRng::seed_from_u64(40 + i as u64),
            &[m, k],
            -0.1,
            0.1,
        );
        let data = init::uniform(
            &mut StdRng::seed_from_u64(80 + i as u64),
            &[k, n],
            -1.0,
            1.0,
        );
        let bias = init::uniform(&mut StdRng::seed_from_u64(120 + i as u64), &[m], -0.1, 0.1);
        let packed = PackedWeights::pack_tensor(&wt, kernel.variant);

        let (ref_us, packed_us) = match geo.op {
            GemmOpKind::Conv => {
                let mut out = Tensor::zeros(&[m, n]);
                let (r, _) = time_per_iter(budget / 4, || {
                    matmul_into(&wt, &data, &mut out);
                    for (j, v) in out.data_mut().iter_mut().enumerate() {
                        *v += bias.data()[j / n];
                    }
                    std::hint::black_box(&out);
                });
                let mut pout = vec![0.0f32; m * n];
                let (p, _) = time_per_iter(budget / 4, || {
                    gemm_packed_bias_into(&packed, data.data(), n, bias.data(), &mut pout);
                    std::hint::black_box(&pout);
                });
                (r, p)
            }
            GemmOpKind::Linear => {
                let x = init::uniform(
                    &mut StdRng::seed_from_u64(160 + i as u64),
                    &[1, k],
                    -1.0,
                    1.0,
                );
                let mut out = Tensor::zeros(&[1, m]);
                let (r, _) = time_per_iter(budget / 4, || {
                    linear_into(&x, &wt, &bias, &mut out);
                    std::hint::black_box(&out);
                });
                let mut pout = vec![0.0f32; m];
                let (p, _) = time_per_iter(budget / 4, || {
                    linear_packed_bias_into(&packed, x.data(), 1, bias.data(), &mut pout);
                    std::hint::black_box(&pout);
                });
                (r, p)
            }
        };
        println!(
            "gemm/{:<8} {:>3}x{:>4}x{:>4} [{}]: ref {ref_us:>8.1} µs  packed {packed_us:>8.1} µs  \
             ({:.2}x)",
            node.name,
            m,
            k,
            n,
            kernel.variant.label(),
            ref_us / packed_us
        );
        layer_rows.push((node.name.clone(), kernel.variant.label(), ref_us, packed_us));
    }

    // Batched measurement at 1 and 4 workers (per-worker scratch reuse).
    // The pool never oversubscribes, so on a host with fewer than 4 cores
    // the 4-worker row actually runs with `available_parallelism` workers
    // — say so, or the row reads like a scaling regression.
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    if cores > 0 && cores < 4 {
        println!("note: only {cores} core(s) available — worker requests are capped there");
    }
    let mut img_rng = StdRng::seed_from_u64(3);
    let images: Vec<_> = (0..32)
        .map(|_| init::uniform(&mut img_rng, &[3, 32, 32], 0.0, 1.0))
        .collect();
    let mut batch_us = Vec::new();
    for threads in [1usize, 4] {
        let parallelism = Parallelism::new(threads);
        let (us, iters) = time_per_iter(budget, || {
            std::hint::black_box(engine.measure_batch(&model, &images, 7, &parallelism));
        });
        println!(
            "measure_batch/32_images/{threads}t: {us:>10.1} µs/iter  \
             {:>8.1} images/s  ({iters} iters)",
            32.0 * 1e6 / us
        );
        batch_us.push((threads, us));
    }

    // Offline phase end-to-end: template collection + GMM-bank fit.
    let split = scenarios::cifar10_like(
        9,
        &SplitSizes {
            train: 4,
            val: 6,
            test: 4,
        },
    );
    let opts = ExecOptions::seeded(21).with_threads(4);
    let (fit_us, iters) = time_per_iter(budget, || {
        let template = collect_template(&engine, &model, &split.val, None, &opts.stage(0));
        std::hint::black_box(Detector::fit(
            &template,
            &DetectorConfig::default(),
            &opts.stage(1),
        ))
        .ok();
    });
    println!("offline/collect+fit/6_images/4t: {fit_us:>10.1} µs/iter  ({iters} iters)");

    let mut layer_json = String::new();
    for (name, label, ref_us, packed_us) in &layer_rows {
        layer_json.push_str(&format!(
            "  \"gemm_{name}_variant\": \"{label}\",\n  \
             \"gemm_{name}_reference_us\": {ref_us:.1},\n  \
             \"gemm_{name}_packed_us\": {packed_us:.1},\n"
        ));
    }
    let gemm_geomean = (layer_rows
        .iter()
        .map(|(_, _, reference, packed)| (reference / packed).ln())
        .sum::<f64>()
        / layer_rows.len() as f64)
        .exp();
    layer_json.push_str(&format!("  \"gemm_speedup_geomean\": {gemm_geomean:.2},\n"));
    let json = format!(
        "{{\n  \"benchmark\": \"inference_throughput\",\n  \
         \"budget_ms\": {},\n  \
         \"pre_pr_single_image_us\": {PRE_PR_SINGLE_IMAGE_US},\n  \
         \"single_image_us\": {single_us:.1},\n  \
         \"single_image_per_s\": {single_per_s:.1},\n  \
         \"speedup_vs_pre_pr\": {speedup:.2},\n  \
         \"reference_single_image_us\": {reference_us:.1},\n  \
         \"packed_speedup_vs_reference\": {packed_speedup:.2},\n  \
         \"tune_cold_us\": {tune_cold_us:.1},\n  \
         \"tune_warm_us\": {tune_warm_us:.1},\n\
         {layer_json}  \
         \"measure_batch_32_1t_us\": {:.1},\n  \
         \"measure_batch_32_4t_us\": {:.1},\n  \
         \"offline_collect_fit_us\": {fit_us:.1}\n}}\n",
        budget.as_millis(),
        batch_us[0].1,
        batch_us[1].1,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_inference.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    // CI perf floor (pattern of ADVHUNTER_FP_ASSERT): relative floors only —
    // the packed kernels must actually beat the reference loops, and the
    // warm tuner must not re-benchmark. Absolute-µs floors would be noise.
    // The kernel floor is the geometric mean of per-layer GEMM speedups:
    // the full measure path is dominated by the (unchanged) trace
    // simulation, which would dilute the signal below the noise floor.
    if std::env::var("ADVHUNTER_KERNEL_ASSERT").is_ok_and(|v| v == "1") {
        assert!(
            gemm_geomean >= 1.2,
            "packed GEMM kernels only {gemm_geomean:.2}x (geomean) over reference loops \
             (floor 1.2x)"
        );
        assert!(
            packed_speedup >= 1.0,
            "packed kernels made the full measure path slower \
             ({packed_speedup:.2}x vs reference loops)"
        );
        assert!(
            tune_warm_us * 2.0 < tune_cold_us,
            "warm plan build ({tune_warm_us:.1} µs) not clearly cheaper than cold \
             ({tune_cold_us:.1} µs) — tune memo miss?"
        );
        println!("ADVHUNTER_KERNEL_ASSERT: packed-kernel floors hold");
    }
}
