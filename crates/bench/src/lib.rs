//! Shared plumbing for the experiment harnesses that regenerate the paper's
//! tables and figures.
//!
//! Each table/figure has a dedicated `harness = false` bench target (see
//! `benches/`); `cargo bench --workspace` therefore reproduces the whole
//! evaluation. The helpers here handle scenario construction, detector
//! fitting, histogram rendering, consistent report formatting, and the one
//! timing loop every micro- and throughput benchmark shares.

use std::time::{Duration, Instant};

use advhunter::experiment::{measure_dataset, LabeledSample};
use advhunter::offline::OfflineTemplate;
use advhunter::scenario::{build_scenario, ScenarioArtifacts, ScenarioId};
use advhunter::{ArtifactStore, Detector, ExecOptions, Pipeline, PipelineConfig};
use advhunter_data::SplitSizes;

/// Scale factor for experiment sizes, settable via `ADVHUNTER_SCALE`
/// (default 1.0). Values below 1 shrink sample counts for quick runs;
/// values above 1 increase fidelity.
pub fn scale() -> f64 {
    std::env::var("ADVHUNTER_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|v: &f64| *v > 0.0)
        .unwrap_or(1.0)
}

/// Applies the global scale to a nominal count, with a floor.
pub fn scaled(nominal: usize, floor: usize) -> usize {
    ((nominal as f64 * scale()) as usize).max(floor)
}

/// Builds a scenario with its default sizes and a fixed seed, printing a
/// one-line summary.
pub fn prepare_scenario(id: ScenarioId) -> ScenarioArtifacts {
    prepare_scenario_sized(id, None)
}

/// Builds a scenario with explicit split sizes.
pub fn prepare_scenario_sized(id: ScenarioId, sizes: Option<SplitSizes>) -> ScenarioArtifacts {
    let t0 = std::time::Instant::now();
    let art = build_scenario(id, sizes);
    eprintln!(
        "[{}] {} on {}: clean accuracy {:.2}% ({}, {:.1}s)",
        id.label(),
        art.model_name(),
        art.dataset_name(),
        art.clean_accuracy * 100.0,
        if art.from_cache { "cached" } else { "trained" },
        t0.elapsed().as_secs_f64(),
    );
    art
}

/// A fitted detector plus the measurements it was built from — one offline
/// phase, reusable across attack settings.
pub struct PreparedDetector {
    /// The offline template (all measured validation samples).
    pub template: OfflineTemplate,
    /// The fitted detector.
    pub detector: Detector,
    /// Measured clean test samples (for the clean side of evaluations).
    pub clean_test: Vec<LabeledSample>,
}

/// Runs the offline phase for a scenario through the staged pipeline:
/// measure the validation split, fit the GMM bank (both cached in the
/// shared artifact store), and pre-measure the clean test split.
pub fn prepare_detector(
    art: &ScenarioArtifacts,
    val_per_class: Option<usize>,
    test_per_class: Option<usize>,
    seed: u64,
) -> PreparedDetector {
    let config = PipelineConfig::for_spec(std::sync::Arc::clone(&art.spec))
        .with_sizes(art.split.sizes_per_class())
        .with_seed(seed)
        .with_per_class_cap(val_per_class);
    let store = ArtifactStore::shared().expect("artifact store I/O");
    let (out, _report) = Pipeline::new(config, store)
        .run()
        .expect("offline pipeline for prepared detector");
    let opts = ExecOptions::seeded(seed);
    let clean_test = measure_dataset(art, &art.split.test, test_per_class, &opts.stage(2));
    PreparedDetector {
        template: out.template,
        detector: out.detector,
        clean_test,
    }
}

/// Renders an ASCII histogram of two distributions over a common range —
/// the textual analogue of the paper's distribution figures (Fig. 3/5).
pub fn render_two_histograms(
    label_a: &str,
    a: &[f64],
    label_b: &str,
    b: &[f64],
    bins: usize,
) -> String {
    if a.is_empty() && b.is_empty() {
        return "  (no data)\n".to_string();
    }
    let lo = a
        .iter()
        .chain(b.iter())
        .copied()
        .fold(f64::INFINITY, f64::min);
    let hi = a
        .iter()
        .chain(b.iter())
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let width = (hi - lo).max(1e-9);
    let hist = |xs: &[f64]| {
        let mut h = vec![0usize; bins];
        for &x in xs {
            let i = (((x - lo) / width) * bins as f64) as usize;
            h[i.min(bins - 1)] += 1;
        }
        h
    };
    let ha = hist(a);
    let hb = hist(b);
    let max = ha
        .iter()
        .chain(hb.iter())
        .copied()
        .max()
        .unwrap_or(1)
        .max(1);
    let mut out = String::new();
    out.push_str(&format!(
        "  range [{lo:.0}, {hi:.0}]  {label_a}: '#' ({} pts)  {label_b}: 'o' ({} pts)\n",
        a.len(),
        b.len()
    ));
    for i in 0..bins {
        let bar_a = "#".repeat(ha[i] * 40 / max);
        let bar_b = "o".repeat(hb[i] * 40 / max);
        out.push_str(&format!(
            "  {:>10.0} |{bar_a}\n             |{bar_b}\n",
            lo + (i as f64 + 0.5) / bins as f64 * width
        ));
    }
    out
}

/// Jaccard-style overlap coefficient of two sample sets' histograms in
/// `[0, 1]` — a scalar summary of how separable two distributions are.
pub fn distribution_overlap(a: &[f64], b: &[f64], bins: usize) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let lo = a
        .iter()
        .chain(b.iter())
        .copied()
        .fold(f64::INFINITY, f64::min);
    let hi = a
        .iter()
        .chain(b.iter())
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let width = (hi - lo).max(1e-9);
    let hist = |xs: &[f64]| {
        let mut h = vec![0f64; bins];
        for &x in xs {
            let i = (((x - lo) / width) * bins as f64) as usize;
            h[i.min(bins - 1)] += 1.0 / xs.len() as f64;
        }
        h
    };
    let ha = hist(a);
    let hb = hist(b);
    ha.iter().zip(hb.iter()).map(|(x, y)| x.min(*y)).sum()
}

/// Prints a horizontal rule with a title, for separating report sections.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// The measuring window per timed benchmark: `CRITERION_MEASURE_MS`
/// milliseconds (default 300).
pub fn measure_budget() -> Duration {
    let ms = std::env::var("CRITERION_MEASURE_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(300u64);
    Duration::from_millis(ms)
}

/// Runs `f` repeatedly for about `budget`, returning (best µs per
/// iteration, iterations). The best — not the mean — estimates the cost of
/// the code itself: anything else that runs on the machine only ever adds
/// time.
pub fn time_per_iter<F: FnMut()>(budget: Duration, mut f: F) -> (f64, u64) {
    f(); // warm-up
    let start = Instant::now();
    let mut iters = 0u64;
    let mut best = Duration::MAX;
    while start.elapsed() < budget || iters == 0 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
        iters += 1;
    }
    (best.as_secs_f64() * 1e6, iters)
}

/// Times `f` for one [`measure_budget`] window and prints one row: the
/// benchmark id, the best time per iteration, and the iteration count.
/// `f`'s result goes through `black_box`, so the work is never elided.
pub fn bench_function<O>(id: &str, mut f: impl FnMut() -> O) {
    let (us, iters) = time_per_iter(measure_budget(), || {
        std::hint::black_box(f());
    });
    report(id, us, iters);
}

/// Prints one benchmark row: the id, `us` µs per iteration and the number
/// of iterations timed.
pub fn report(id: &str, us: f64, iters: u64) {
    println!("{id:<48} {:>14}/iter  ({iters} iterations)", format_us(us));
}

fn format_us(us: f64) -> String {
    if us < 1.0 {
        format!("{:.1} ns", us * 1e3)
    } else if us < 1e3 {
        format!("{us:.2} µs")
    } else if us < 1e6 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{:.3} s", us / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_applies_floor() {
        std::env::remove_var("ADVHUNTER_SCALE");
        assert_eq!(scaled(100, 10), 100);
        assert_eq!(scaled(5, 10), 10);
    }

    #[test]
    fn overlap_extremes() {
        let a: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        assert!(distribution_overlap(&a, &a, 10) > 0.99);
        let b: Vec<f64> = (0..100).map(|i| 10.0 + i as f64 / 100.0).collect();
        assert!(distribution_overlap(&a, &b, 10) < 0.01);
        assert_eq!(distribution_overlap(&a, &[], 10), 0.0);
    }

    #[test]
    fn timing_loop_runs_at_least_once_and_formats_units() {
        let mut calls = 0u32;
        let (us, iters) = time_per_iter(Duration::ZERO, || calls += 1);
        assert_eq!(iters, 1);
        assert_eq!(calls, 2, "one warm-up call plus one timed call");
        assert!(us >= 0.0);
        assert!(format_us(0.012).ends_with("ns"));
        assert!(format_us(12.0).ends_with("µs"));
        assert!(format_us(12_000.0).ends_with("ms"));
        assert!(format_us(2e6).ends_with('s'));
    }

    #[test]
    fn histogram_renders_nonempty() {
        let s = render_two_histograms("clean", &[1.0, 2.0, 2.1], "adv", &[5.0, 5.1], 4);
        assert!(s.contains("clean"));
        assert!(s.contains('#'));
        assert!(s.contains('o'));
    }
}
