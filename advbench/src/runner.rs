//! One workload, one run: prepare the store and the corpus, then either
//! measure the end-to-end metrics or, traced, the per-layer ones.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

use advhunter::scenario::ScenarioId;
use advhunter::{derive_seed, ArtifactStore, Parallelism, Pipeline, PipelineConfig};
use advhunter_data::SplitSizes;
use advhunter_monitor::WireServer;
use advhunter_wire::WireVerdict;

use crate::corpus::Corpus;
use crate::definition::Definition;
use crate::host::{peak_rss_mb, process_cpu_s, source_digest};
use crate::layers;
use crate::offline::{self, OFFLINE_SIZES};
use crate::report::{Metric, PhaseCount, WorkloadResult};
use crate::serve::{self, Conn, Phase};
use crate::speed::Reference;
use crate::stats::{median, percentile};
use crate::trace::{timed, Tracer};

pub struct Workload {
    pub name: &'static str,
    pub scenario: ScenarioId,
    /// Open-loop request rate of the traced run: about a fifth of the
    /// closed-loop capacity measured on a 2-core host, so a queue forms
    /// only in bursts. At 35% and more, queueing made the latency
    /// percentiles swing several times as much as the host's speed.
    pub nominal_rate: f64,
}

/// Why each workload exists is recorded in `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "serve_case",
        scenario: ScenarioId::CaseStudy,
        nominal_rate: 200.0,
    },
    Workload {
        name: "serve_s1",
        scenario: ScenarioId::S1,
        nominal_rate: 100.0,
    },
];

/// Rounds per run. Each round boots a fresh server, warms it up, runs a
/// closed-loop slice and stops it; every other round then runs one cold
/// offline pipeline. Every metric's samples thus spread over the whole
/// run, and a metric's value is the median over its samples. Serving
/// speed differs from boot to boot by up to a third (the same slices on
/// one server agree far better), so the run boots many times.
const ROUNDS: usize = 6;
const OFFLINE_EVERY: usize = 2;
/// In-flight requests in the closed-loop phases.
const OUTSTANDING: usize = 32;
/// The end-to-end run keeps every verdict whose sequence number is a
/// multiple of this for the correctness gate.
const KEEP_EVERY: u64 = 8;
/// Unmeasured load after boot, so scratch pools fill and lazy set-up
/// finishes before the first timed phase.
const WARMUP_SECS: f64 = 0.25;

/// The `--tiny` split of the CLI, for the quick profile.
const QUICK_SIZES: SplitSizes = SplitSizes {
    train: 30,
    val: 40,
    test: 10,
};

pub struct Settings {
    pub seed: u64,
    pub seconds: u64,
    /// Tiny stores, 1 s phases, one offline repetition: a smoke run.
    pub quick: bool,
    pub traced: bool,
}

impl Settings {
    fn rounds(&self) -> usize {
        if self.quick {
            1
        } else {
            ROUNDS
        }
    }

    /// Every closed-loop slice lasts this long: the slices fill half of
    /// `--seconds`, boots and offline runs about the other half.
    fn slice_secs(&self) -> f64 {
        if self.quick {
            1.0
        } else {
            self.seconds as f64 / (2 * ROUNDS) as f64
        }
    }

    /// The traced run's nominal phases last this long.
    fn phase_secs(&self) -> f64 {
        if self.quick {
            1.0
        } else {
            self.seconds as f64 / 6.0
        }
    }

    /// Verdicts checked bit for bit against the reference per run.
    fn checked(&self) -> usize {
        if self.quick {
            128
        } else {
            512
        }
    }

    fn probe_len(&self) -> usize {
        if self.quick {
            64
        } else {
            512
        }
    }
}

/// A metric named in `BENCHMARK.json`, with the unit it declares there.
pub fn defined(name: &str, values: Vec<f64>) -> (String, Metric) {
    let def = Definition::get()
        .metric(name)
        .unwrap_or_else(|| panic!("metric {name} is not defined in BENCHMARK.json"));
    (name.to_string(), Metric::new(&def.unit, values))
}

/// `count` sequence numbers spread evenly over `first..first + n`.
fn spread_sample(first: u64, n: u64, count: usize) -> HashSet<u64> {
    let count = (count as u64).min(n);
    (0..count).map(|k| first + k * n / count.max(1)).collect()
}

/// At most `count` of `items`, spread evenly over them.
fn thin<T>(items: Vec<T>, count: usize) -> Vec<T> {
    let n = items.len();
    if n <= count {
        return items;
    }
    let picked = spread_sample(0, n as u64, count);
    items
        .into_iter()
        .enumerate()
        .filter_map(|(i, item)| picked.contains(&(i as u64)).then_some(item))
        .collect()
}

/// Everything both modes start from.
struct Prepared {
    config: PipelineConfig,
    store: ArtifactStore,
    /// The reference the served verdicts are checked against.
    art: advhunter::PipelineArtifacts,
    corpus: Corpus,
    exec_seed: u64,
}

fn prepare(w: &Workload, s: &Settings, state: &Path) -> Result<Prepared, String> {
    let mut config = PipelineConfig::for_spec(Arc::clone(w.scenario.spec()));
    let mut store_dir = format!("store-{}", source_digest()?);
    if s.quick {
        config = config.with_sizes(QUICK_SIZES);
        store_dir.push_str("-quick");
    }
    let store_dir = state.join(store_dir);
    let store =
        ArtifactStore::open(&store_dir).map_err(|e| format!("{}: {e}", store_dir.display()))?;
    // On a cold store this trains the model once per source version (about
    // 40 s at spec sizes); set-up time, not a metric.
    let (run, prime_s) = timed(|| {
        Pipeline::new(config.clone(), store.clone())
            .with_parallelism(Parallelism::available_cores())
            .run()
    });
    let (art, report) = run.map_err(|e| format!("offline pipeline: {e}"))?;
    if report.recomputed() > 0 {
        eprintln!(
            "advbench: {}: primed the serving store in {prime_s:.1} s (prime_s)",
            w.name
        );
    }
    let corpus = Corpus::build(&art, s.seed, s.probe_len());
    // The same seed must always yield the same corpus.
    let recorded = store_dir.join(format!("corpus-{}-seed{}.digest", w.name, s.seed));
    match std::fs::read_to_string(&recorded) {
        Ok(digest) if digest.trim() != corpus.digest => {
            return Err(format!(
                "corpus digest {} differs from the one recorded for seed {} ({})",
                corpus.digest,
                s.seed,
                digest.trim()
            ))
        }
        Ok(_) => {}
        Err(_) => std::fs::write(&recorded, &corpus.digest)
            .map_err(|e| format!("{}: {e}", recorded.display()))?,
    }
    eprintln!(
        "advbench: {}: corpus of {} requests ({} adversarial), digest {}",
        w.name,
        corpus.items.len(),
        corpus.adversarial_count(),
        corpus.digest
    );
    Ok(Prepared {
        config,
        store,
        art,
        corpus,
        exec_seed: derive_seed(s.seed, 3),
    })
}

/// Tallies of a run's load phases.
#[derive(Default)]
struct Ledger {
    phases: Vec<PhaseCount>,
    kept: Vec<(u64, WireVerdict)>,
    next_seq: u64,
}

impl Ledger {
    fn add(&mut self, name: String, phase: &mut Phase) {
        self.phases.push(PhaseCount {
            phase: name,
            sent: phase.sent,
            succeeded: phase.succeeded,
            failed: phase.failed,
        });
        self.kept.append(&mut phase.kept);
        self.next_seq += phase.sent;
    }

    /// A phase whose requests cannot fail on their own (boots, in-process).
    fn count(&mut self, name: String, sent: u64) {
        self.phases.push(PhaseCount {
            phase: name,
            sent,
            succeeded: sent,
            failed: 0,
        });
        self.next_seq += sent;
    }

    fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }
}

fn warm_up(conn: &mut Conn, corpus: &Corpus, ledger: &mut Ledger) -> Result<(), String> {
    let mut phase = serve::closed_loop(
        conn,
        corpus,
        OUTSTANDING,
        WARMUP_SECS,
        ledger.next_seq,
        &|_| false,
    )?;
    ledger.add("warmup".into(), &mut phase);
    Ok(())
}

fn shut_down(server: WireServer, conn: Conn) {
    drop(conn);
    server.stop();
}

pub fn run_workload(
    w: &Workload,
    s: &Settings,
    state: &Path,
) -> Result<(WorkloadResult, Option<Tracer>), String> {
    let p = prepare(w, s, state)?;
    let tracer = s.traced.then(Tracer::new);
    let mut ledger = Ledger {
        next_seq: 1,
        ..Ledger::default()
    };
    let metrics = match &tracer {
        None => end_to_end(s, state, &p, &mut ledger)?,
        Some(tracer) => per_layer(w, s, state, &p, &mut ledger, tracer)?,
    };
    let verified = match serve::verify(&p.art, &p.corpus, p.exec_seed, &ledger.kept) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("advbench: {}: correctness gate failed: {e}", w.name);
            0
        }
    };
    let failed = ledger.failed();
    let correct = verified == ledger.kept.len() as u64 && !ledger.kept.is_empty() && failed == 0;
    Ok((
        WorkloadResult {
            name: w.name.to_string(),
            corpus_digest: p.corpus.digest.clone(),
            correct,
            verified,
            attempted: ledger.attempted(),
            failed,
            metrics,
            phases: ledger.phases,
        },
        tracer,
    ))
}

fn flag_rate(flagged: u64, seen: u64) -> f64 {
    flagged as f64 / seen.max(1) as f64
}

fn end_to_end(
    s: &Settings,
    state: &Path,
    p: &Prepared,
    ledger: &mut Ledger,
) -> Result<Vec<(String, Metric)>, String> {
    let secs = s.slice_secs();
    let offline_config = p.config.clone().with_sizes(OFFLINE_SIZES);
    let reference = Reference::new();
    let mut slowness = Vec::new();
    let (mut boots, mut throughput, mut loaded, mut offline_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut adv_seen, mut adv_flagged, mut clean_seen, mut clean_flagged) = (0, 0, 0, 0);
    // How many requests a slice sends depends on the server's speed, so
    // keep a fixed share of them and thin them out afterwards.
    let keep = |seq: u64| seq.is_multiple_of(KEEP_EVERY);
    for round in 1..=s.rounds() {
        let (server, mut conn, boot_s) = serve::boot(&p.config, &p.store, p.exec_seed, &p.corpus)?;
        boots.push(boot_s);
        ledger.count(format!("boot-{round}"), 1);
        warm_up(&mut conn, &p.corpus, ledger)?;
        slowness.push(reference.slowness());
        let mut phase = serve::closed_loop(
            &mut conn,
            &p.corpus,
            OUTSTANDING,
            secs,
            ledger.next_seq,
            &keep,
        )?;
        throughput.push(phase.throughput);
        loaded.push(median(&phase.latency_ms));
        adv_seen += phase.adv_seen;
        adv_flagged += phase.adv_flagged;
        clean_seen += phase.clean_seen;
        clean_flagged += phase.clean_flagged;
        ledger.add(format!("closed-{round}"), &mut phase);
        shut_down(server, conn);
        slowness.push(reference.slowness());
        if round % OFFLINE_EVERY == 0 || s.quick {
            offline_s.push(offline::cold_run(&offline_config, state)?);
            slowness.push(reference.slowness());
        }
    }
    // Timings read at the reference speed (see `speed`): durations divided
    // by the run's slowness, rates multiplied by it. The samples as
    // measured stay in the results document under `raw.`.
    let slow = median(&slowness);
    let mut metrics = Vec::new();
    for (name, raw, is_rate) in [
        ("setup_s", boots, false),
        ("verdicts_per_s", throughput, true),
        ("loaded_verdict_ms", loaded, false),
        ("offline_s", offline_s, false),
    ] {
        let scaled = raw
            .iter()
            .map(|v| if is_rate { v * slow } else { v / slow })
            .collect();
        let (name, metric) = defined(name, scaled);
        metrics.push((format!("raw.{name}"), Metric::new(&metric.unit, raw)));
        metrics.push((name, metric));
    }
    metrics.extend([
        defined("adv_flag_rate", vec![flag_rate(adv_flagged, adv_seen)]),
        defined("peak_rss_mb", vec![peak_rss_mb()?]),
        defined("bench.slowness", slowness),
        (
            "clean_flag_rate".into(),
            Metric::new("ratio", vec![flag_rate(clean_flagged, clean_seen)]),
        ),
    ]);
    ledger.kept = thin(std::mem::take(&mut ledger.kept), s.checked());
    Ok(metrics)
}

fn per_layer(
    w: &Workload,
    s: &Settings,
    state: &Path,
    p: &Prepared,
    ledger: &mut Ledger,
    tracer: &Tracer,
) -> Result<Vec<(String, Metric)>, String> {
    let secs = s.phase_secs();
    let rate = w.nominal_rate;
    let mut metrics = Vec::new();
    // Per-layer timings are as measured; the host's slowness at the start
    // and the end of the run says how fast it was.
    let reference = Reference::new();
    let slowness_before = reference.slowness();

    // The same nominal phase over TCP without and with spans.
    let (server, mut conn, _) = serve::boot(&p.config, &p.store, p.exec_seed, &p.corpus)?;
    ledger.count("boot".into(), 1);
    warm_up(&mut conn, &p.corpus, ledger)?;
    let per_phase = (rate * secs).round() as u64;
    let keep = spread_sample(ledger.next_seq, 2 * per_phase, s.checked());
    let keep = |seq: u64| keep.contains(&seq);
    let mut plain = serve::open_loop(
        &mut conn,
        &p.corpus,
        rate,
        secs,
        ledger.next_seq,
        &keep,
        None,
    )?;
    ledger.add("nominal".into(), &mut plain);
    let mut traced = serve::open_loop(
        &mut conn,
        &p.corpus,
        rate,
        secs,
        ledger.next_seq,
        &keep,
        Some(tracer),
    )?;
    ledger.add("nominal-traced".into(), &mut traced);
    shut_down(server, conn);
    let tcp_p50 = median(&plain.latency_ms);
    metrics.push(defined(
        "bench.trace_overhead_pct",
        vec![(median(&traced.latency_ms) / tcp_p50 - 1.0) * 100.0],
    ));
    metrics.push(defined("bench.verdict_p50_ms", vec![tcp_p50]));
    metrics.push(defined(
        "bench.verdict_p99_ms",
        vec![percentile(&plain.latency_ms, 0.99)],
    ));
    metrics.push(defined(
        "bench.generator_late_ms.p99",
        vec![percentile(&plain.late_ms, 0.99)],
    ));

    // The monitor in-process: sojourn and batch shape at the nominal rate,
    // batch shape at saturation, and its CPU cost beyond `measure`.
    let monitor = serve::spawn_monitor(&p.config, &p.store, p.exec_seed)?;
    let before = monitor.stats();
    let cpu_before = process_cpu_s()?;
    let sojourn = serve::inprocess_open(
        &monitor,
        &p.corpus,
        rate,
        secs,
        ledger.next_seq,
        Some(tracer),
    )?;
    let cpu_after = process_cpu_s()?;
    let nominal = monitor.stats();
    ledger.count("inprocess-nominal".into(), sojourn.len() as u64);
    let burst = per_phase.max(256);
    serve::inprocess_burst(&monitor, &p.corpus, burst, ledger.next_seq)?;
    let saturated = monitor.stats();
    ledger.count("inprocess-saturated".into(), burst);
    monitor.shutdown();
    let batch_size = |from: &advhunter_monitor::StatsSnapshot,
                      to: &advhunter_monitor::StatsSnapshot| {
        (to.completed - from.completed) as f64 / (to.batches - from.batches).max(1) as f64
    };
    let completed = (nominal.completed - before.completed).max(1) as f64;
    let sojourn_p50 = median(&sojourn);
    metrics.push(defined("monitor.sojourn_ms.p50", vec![sojourn_p50]));
    metrics.push(defined(
        "monitor.batch_size.nominal",
        vec![batch_size(&before, &nominal)],
    ));
    metrics.push(defined(
        "monitor.batch_size.saturated",
        vec![batch_size(&nominal, &saturated)],
    ));
    metrics.push(defined("wire.overhead_ms.p50", vec![tcp_p50 - sojourn_p50]));

    let hot = layers::hot_path(&p.art, &p.store, &p.corpus.probe, p.exec_seed, tracer);
    let measure_ms = hot
        .iter()
        .find(|(n, _)| n == "exec.measure_us.p50")
        .map_or(0.0, |(_, m)| m.value() / 1e3);
    metrics.push(defined(
        "monitor.overhead_cpu_ms_per_verdict",
        vec![(cpu_after - cpu_before) * 1e3 / completed - measure_ms],
    ));
    metrics.extend(hot);
    metrics.extend(layers::node_attribution(&p.art, &p.corpus.probe, tracer));
    metrics.extend(layers::setup_pieces(&p.art, &p.config, &p.store, tracer)?);
    let verdicts: Vec<WireVerdict> = ledger.kept.iter().map(|(_, v)| v.clone()).collect();
    metrics.extend(layers::wire_codec(&p.corpus.probe, &verdicts, tracer)?);
    metrics.extend(offline::stages(
        &p.config.clone().with_sizes(OFFLINE_SIZES),
        state,
        tracer,
    )?);
    metrics.push(defined(
        "bench.slowness",
        vec![slowness_before, reference.slowness()],
    ));
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_spreads_evenly_and_caps_at_the_population() {
        let picked = spread_sample(10, 1000, 4);
        let mut picked: Vec<u64> = picked.into_iter().collect();
        picked.sort_unstable();
        assert_eq!(picked, [10, 260, 510, 760]);
        assert_eq!(spread_sample(0, 3, 512).len(), 3);
    }

    #[test]
    fn thinning_keeps_an_even_spread_in_order() {
        let items: Vec<u32> = (0..10).collect();
        assert_eq!(thin(items.clone(), 4), [0, 2, 5, 7]);
        assert_eq!(thin(items.clone(), 20), items);
    }

    #[test]
    fn workloads_match_the_definition() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, Definition::get().workloads);
    }
}
