//! Telemetry overhead on the measurement hot path: single-image `measure`
//! with telemetry enabled vs disabled.
//!
//! The zero-impact contract says instrumentation must not perturb results
//! (checked by the golden-count suites) and must cost a negligible share
//! of wall time. This harness quantifies the second half: the enabled
//! path pays two stage spans (four clock reads) plus a handful of relaxed
//! atomic adds per measurement, the disabled path skips the clock reads
//! entirely. The overhead is spliced into `BENCH_inference.json` as
//! `telemetry_*` fields next to the throughput numbers it qualifies.
//! `CRITERION_MEASURE_MS` bounds the per-section measuring time.

use std::time::Duration;

use advhunter_bench::{measure_budget, time_per_iter};
use advhunter_exec::TraceEngine;
use advhunter_tensor::init;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let budget = measure_budget();
    let mut rng = StdRng::seed_from_u64(1);
    let model = advhunter::scenario::ScenarioId::CaseStudy
        .spec()
        .build_graph(&mut rng)
        .expect("checked-in spec compiles");
    let engine = TraceEngine::new(&model);
    let image = init::uniform(&mut StdRng::seed_from_u64(5), &[3, 32, 32], 0.0, 1.0);

    advhunter_bench::section("Telemetry overhead (single-image measure, case-study CNN)");

    // Same noise stream for both arms: `measure_indexed` is pure in
    // (image, seed, index), so the two arms run identical work and differ
    // only in whether the spans read the clock. The arms alternate in
    // short rounds so clock-frequency drift hits both equally.
    let arm = |budget: Duration| {
        time_per_iter(budget, || {
            std::hint::black_box(engine.measure_indexed(&model, &image, 7, 0));
        })
    };
    const ROUNDS: u32 = 8;
    let round = budget / (2 * ROUNDS);
    let (mut enabled_us, mut disabled_us) = (f64::MAX, f64::MAX);
    let (mut enabled_iters, mut disabled_iters) = (0u64, 0u64);
    for _ in 0..ROUNDS {
        advhunter_telemetry::enable();
        let (us, iters) = arm(round);
        enabled_us = enabled_us.min(us);
        enabled_iters += iters;
        advhunter_telemetry::disable();
        let (us, iters) = arm(round);
        disabled_us = disabled_us.min(us);
        disabled_iters += iters;
    }
    advhunter_telemetry::enable();
    println!(
        "measure/single_image/telemetry_on:  {enabled_us:>10.1} µs/iter  ({enabled_iters} iters)"
    );
    println!(
        "measure/single_image/telemetry_off: {disabled_us:>10.1} µs/iter  ({disabled_iters} iters)"
    );

    let overhead_pct = (enabled_us - disabled_us) / disabled_us * 100.0;
    println!(
        "telemetry overhead: {overhead_pct:+.3}% \
         ({enabled_us:.1} µs on vs {disabled_us:.1} µs off)"
    );
    if overhead_pct < 1.0 {
        println!("zero-impact contract holds: overhead under 1%");
    } else {
        println!("WARNING: overhead above the 1% contract");
    }

    // Splice the telemetry_* fields into BENCH_inference.json, preserving
    // the throughput fields the other harness wrote.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_inference.json");
    let doc = std::fs::read_to_string(&path).unwrap_or_else(|_| "{\n}\n".to_string());
    let mut kept: Vec<&str> = doc
        .lines()
        .filter(|l| !l.contains("\"telemetry_"))
        .collect();
    while kept.last().is_some_and(|l| l.trim().is_empty()) {
        kept.pop();
    }
    let Some(last) = kept.pop().filter(|l| l.trim() == "}") else {
        eprintln!(
            "could not splice into {}: unexpected layout",
            path.display()
        );
        return;
    };
    let mut body = kept.join("\n");
    let trimmed = body.trim_end().to_string();
    if !trimmed.ends_with(['{', ',']) {
        body = format!("{trimmed},");
    }
    let json = format!(
        "{body}\n  \
         \"telemetry_enabled_single_image_us\": {enabled_us:.1},\n  \
         \"telemetry_disabled_single_image_us\": {disabled_us:.1},\n  \
         \"telemetry_overhead_pct\": {overhead_pct:.3}\n{last}\n"
    );
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
