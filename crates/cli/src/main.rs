//! `advhunter` — command-line front end for the detector.
//!
//! ```text
//! advhunter events                      list monitorable HPC events
//! advhunter scenarios                   list evaluation scenarios
//! advhunter validate <spec.ahg>...      parse + validate graph-spec files
//! advhunter pipeline <MODEL> [--store DIR] [--force] [--tiny]
//!                  [--seed N] [--metrics-json PATH]
//!                                       run the staged offline pipeline
//!                                       with per-stage cache status
//! advhunter train  <MODEL>              train/cache a scenario model
//! advhunter fit    <MODEL> <out.ahd>    run the offline phase, save detector
//! advhunter detect <MODEL> <det.ahd> [--attack fgsm|pgd|mifgsm|deepfool|nes]
//!                  [--eps F] [--targeted] [-n N]
//!                                       screen clean + attacked inferences
//! advhunter monitor <MODEL> [--attack A] [--eps F] [-n N] [--capacity N]
//!                  [--batch N] [--shed] [--tiny]
//!                  [--fingerprint] [--fp-window N] [--fp-threshold F]
//!                  [--fp-quant F] [--fusion hpc|fingerprint|or|and]
//!                  [--tenants N] [--metrics-json PATH]
//!                                       replay a clean + attacked stream
//!                                       through the online monitor service
//! advhunter serve  <MODEL> [--addr A] [--store DIR] [--tiny] [--seed N]
//!                  [--capacity N] [--batch N] [--shed] [--watch-ms N]
//!                  [--drift] [--drift-window N] [--drift-slack F]
//!                  [--drift-threshold F] [--allow-remote-control]
//!                                       serve the monitor over TCP (AHP2
//!                                       wire protocol) until a client
//!                                       sends the shutdown control
//! advhunter deploy <MODEL> [--store DIR] [--tiny] [--sigma F]
//!                                       recalibrate the detector and
//!                                       rewrite the store's Calibrate
//!                                       artifact (running servers
//!                                       watching the store hot-swap it)
//! ```
//!
//! `<MODEL>` is either a canonical scenario label (`S1|S2|S3|CASE`) or
//! `--graph FILE.ahg`, which loads any graph-spec file — the checked-in
//! `specs/*.ahg` variants or one you wrote yourself — and runs the same
//! staged pipeline against it, cached in the store under the spec's
//! content digest.
//!
//! `pipeline` runs the four offline stages (`train-model`,
//! `collect-template`, `fit-detector`, `calibrate`) against a
//! content-addressed artifact store and prints one status line per stage
//! (`hit` = loaded, `miss`/`rebuilt`/`forced` = recomputed). `train`,
//! `fit`, and `monitor` are thin views over the same stages, so anything
//! the pipeline cached they load instead of recomputing.
//!
//! `monitor` extras: `--tiny` shrinks the dataset splits for smoke runs,
//! `--metrics-json PATH` writes the unified telemetry snapshot (monitor +
//! engine + worker pool) as JSON on shutdown, and a `metrics:` summary
//! line goes to stderr periodically during the stream.
//!
//! `--fingerprint` turns on the query-fingerprint defense layer
//! (Blacklight-style near-duplicate query detection); `--fp-window`,
//! `--fp-threshold`, `--fp-quant`, and `--tenants` tune its sliding
//! window, match threshold, quantization step, and tenant cap, and
//! `--fusion` picks how the HPC verdict and the query-correlation signal
//! combine into the headline flag (default `or`).
//!
//! `serve` binds a TCP listener (port 0 gives an ephemeral port; the
//! bound address is printed as `listening on ADDR`), boots the monitor
//! from the staged pipeline, and serves the `AHP2` wire protocol until
//! some client sends the shutdown control. Control frames
//! (pause/resume/shutdown) are honored only from loopback peers unless
//! `--allow-remote-control` is passed; denied ops get a typed reject and
//! the connection keeps scoring. It watches the store for
//! redeployed detectors every `--watch-ms` (50 by default, 0 disables)
//! and hot-swaps without dropping a request; `--drift*` arms the
//! clean-NLL drift test that triggers automatic recalibration. `deploy`
//! is the other half: it recomputes the calibrated detector (optionally
//! under a new `--sigma`) and rewrites the artifact a running server is
//! watching.

use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use advhunter::experiment::{detection_confusion, measure_dataset, measure_examples};
use advhunter::scenario::{build_from_spec, ScenarioId, SplitSizes};
use advhunter::{
    load_detector, load_spec, save_detector, ArtifactStore, ExecOptions, GraphSpec, Pipeline,
    PipelineConfig,
};
use advhunter_attacks::{attack_dataset, Attack, AttackGoal};
use advhunter_monitor::{
    ControlAccess, DriftConfig, FingerprintConfig, FusionPolicy, MonitorBuilder, OverloadPolicy,
    WireServer,
};
use advhunter_uarch::HpcEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("events") => {
            for e in HpcEvent::ALL {
                println!("{}", e.perf_name());
            }
            Ok(())
        }
        Some("scenarios") => {
            for id in ScenarioId::ALL {
                println!(
                    "{:<10} {:<18} {:<20} {:>2} classes  specs/{}.ahg  digest {:016x}",
                    id.label(),
                    id.dataset_name(),
                    id.model_name(),
                    id.num_classes(),
                    id.spec().name.replace('-', "_"),
                    id.spec().digest()
                );
            }
            println!("(any other architecture: pass --graph FILE.ahg in place of the label)");
            Ok(())
        }
        Some("validate") => cmd_validate(&args[1..]),
        Some("pipeline") => cmd_pipeline(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("fit") => cmd_fit(&args[1..]),
        Some("detect") => cmd_detect(&args[1..]),
        Some("monitor") => cmd_monitor(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("deploy") => cmd_deploy(&args[1..]),
        _ => {
            eprintln!(
                "usage: advhunter <events|scenarios|validate|pipeline|train|fit|detect|monitor|serve|deploy> ..."
            );
            eprintln!("see the crate docs or README for details");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn parse_scenario(arg: Option<&String>) -> Result<ScenarioId, String> {
    match arg.map(|s| s.to_uppercase()).as_deref() {
        Some("S1") => Ok(ScenarioId::S1),
        Some("S2") => Ok(ScenarioId::S2),
        Some("S3") => Ok(ScenarioId::S3),
        Some("CASE") | Some("CASESTUDY") => Ok(ScenarioId::CaseStudy),
        other => Err(format!(
            "expected a scenario (S1|S2|S3|CASE), got {:?}",
            other.unwrap_or("nothing")
        )),
    }
}

/// The model a subcommand operates on: either a canonical scenario label
/// (`S1|S2|S3|CASE`) or `--graph FILE.ahg` anywhere among the arguments,
/// which loads any graph-spec file and runs the same staged machinery
/// against it.
struct ModelArg {
    spec: Arc<GraphSpec>,
    /// `S1`-style label for scenarios, the spec's name for graph files.
    label: String,
}

/// Extracts the model reference from `args`, returning it plus the
/// remaining (non-model) arguments in their original order.
fn parse_model(args: &[String]) -> Result<(ModelArg, Vec<String>), String> {
    if let Some(j) = args.iter().position(|a| a == "--graph") {
        let path = args.get(j + 1).ok_or("--graph needs a .ahg file path")?;
        let spec = load_spec(Path::new(path))?;
        let label = spec.name.clone();
        let mut rest: Vec<String> = args[..j].to_vec();
        rest.extend_from_slice(&args[j + 2..]);
        Ok((ModelArg { spec, label }, rest))
    } else {
        let id = parse_scenario(args.first())
            .map_err(|e| format!("{e} (or --graph FILE.ahg to run an arbitrary graph spec)"))?;
        Ok((
            ModelArg {
                spec: Arc::clone(id.spec()),
                label: id.label().to_string(),
            },
            args[1..].to_vec(),
        ))
    }
}

/// A cursor over a subcommand's flag arguments. Each subcommand matches
/// the flags it accepts and rejects every other one with
/// [`Flags::unknown`], so flag sets stay per-subcommand while the value
/// handling and its error text are shared.
struct Flags<'a> {
    args: &'a [String],
    next: usize,
    /// The flag last returned by [`Flags::next_flag`], named in errors.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Self {
            args,
            next: 0,
            flag: "",
        }
    }

    /// The next flag, or `None` once every argument is consumed.
    fn next_flag(&mut self) -> Option<&'a str> {
        self.flag = self.value_opt()?;
        Some(self.flag)
    }

    /// The current flag's value, if there is one.
    fn value_opt(&mut self) -> Option<&'a str> {
        let value = self.args.get(self.next)?;
        self.next += 1;
        Some(value)
    }

    /// The current flag's value; `what` describes it in the error
    /// (`--store needs a directory`).
    fn value(&mut self, what: &str) -> Result<&'a str, String> {
        self.value_opt()
            .ok_or_else(|| format!("{} needs {what}", self.flag))
    }

    /// The current flag's value parsed as a number.
    fn number<T: FromStr>(&mut self) -> Result<T, String> {
        self.value("a number")?
            .parse()
            .map_err(|_| format!("{} needs a number", self.flag))
    }

    /// The error for a flag the subcommand does not accept.
    fn unknown(&self) -> String {
        format!("unknown flag {}", self.flag)
    }
}

/// The offline-pipeline selection flags — `--tiny`, `--seed N` and
/// `--store DIR` — of which each subcommand accepts its own subset.
#[derive(Default)]
struct PipelineFlags {
    tiny: bool,
    seed: Option<u64>,
    store: Option<String>,
}

impl PipelineFlags {
    /// The pipeline configuration and artifact store these flags select
    /// for `model`: the spec's defaults (shrunk under `--tiny`, reseeded
    /// under `--seed`) over the `--store` directory or the shared store.
    fn resolve(&self, model: &ModelArg) -> Result<(PipelineConfig, ArtifactStore), String> {
        let mut config = PipelineConfig::for_spec(Arc::clone(&model.spec));
        if self.tiny {
            config = config.with_sizes(tiny_sizes());
        }
        if let Some(seed) = self.seed {
            config = config.with_seed(seed);
        }
        let store = match &self.store {
            Some(dir) => ArtifactStore::open(dir),
            None => ArtifactStore::shared(),
        }
        .map_err(|e| e.to_string())?;
        Ok((config, store))
    }
}

/// The smoke-test split used by `--tiny` across subcommands.
fn tiny_sizes() -> SplitSizes {
    SplitSizes {
        train: 30,
        val: 40,
        test: 10,
    }
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        return Err("usage: advhunter validate <spec.ahg>...".into());
    }
    for path in args {
        let spec = load_spec(Path::new(path))?;
        println!(
            "{path}: ok — {} on {} ({} nodes, {} parameters, digest {:016x})",
            spec.model,
            spec.dataset,
            spec.nodes.len(),
            spec.num_parameters(),
            spec.digest()
        );
    }
    Ok(())
}

fn cmd_pipeline(args: &[String]) -> Result<(), String> {
    let (model, args) = parse_model(args)?;
    let mut pipeline = PipelineFlags::default();
    let mut force = false;
    let mut metrics_json: Option<String> = None;
    let mut flags = Flags::new(&args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--store" => pipeline.store = Some(flags.value("a directory")?.to_string()),
            "--force" => force = true,
            "--tiny" => pipeline.tiny = true,
            "--seed" => pipeline.seed = Some(flags.number()?),
            "--metrics-json" => metrics_json = Some(flags.value("a path")?.to_string()),
            _ => return Err(flags.unknown()),
        }
    }
    let (config, store) = pipeline.resolve(&model)?;
    println!(
        "{} offline pipeline, store {}",
        model.label,
        store.root().display()
    );
    let start = Instant::now();
    let (art, report) = Pipeline::new(config, store)
        .force(force)
        .run()
        .map_err(|e| e.to_string())?;
    let total_ms = start.elapsed().as_millis();
    println!("{:<18} {:<18} status", "stage", "fingerprint");
    for s in &report.stages {
        println!(
            "{:<18} {:<18} {}",
            s.stage.name(),
            s.fingerprint.to_string(),
            s.outcome
        );
    }
    println!(
        "pipeline: hits={} recomputed={} total_ms={}",
        report.hits(),
        report.recomputed(),
        total_ms
    );
    let tune = advhunter::tune_stats();
    println!(
        "tune: hits={} misses={} evals={}",
        tune.hits, tune.misses, tune.evals
    );
    println!(
        "clean accuracy {:.2}%, template M >= {}, detector {} categories x {} events",
        art.clean_accuracy * 100.0,
        art.template.min_samples_per_class(),
        art.detector.num_classes(),
        art.detector.events().len()
    );
    if let Some(path) = metrics_json {
        std::fs::write(
            &path,
            advhunter_telemetry::global().snapshot().render_json(),
        )
        .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("metrics snapshot written to {path}");
    }
    Ok(())
}

/// Attack-stream flags shared by `detect` and `monitor`.
struct AttackFlags {
    attack: Attack,
    targeted: bool,
    n: usize,
    capacity: usize,
    batch: usize,
    shed: bool,
    /// Only `--tiny`: the stream always runs against the shared store.
    pipeline: PipelineFlags,
    fingerprint: Option<FingerprintConfig>,
    fusion: FusionPolicy,
    metrics_json: Option<String>,
}

fn parse_attack_flags(args: &[String]) -> Result<AttackFlags, String> {
    let mut attack_name = "fgsm";
    let mut eps = 0.5f32;
    let mut targeted = false;
    let mut n = 60usize;
    let mut capacity = 64usize;
    let mut batch = 8usize;
    let mut shed = false;
    let mut pipeline = PipelineFlags::default();
    let mut fingerprint = false;
    let mut fp = FingerprintConfig::default();
    let mut fusion = FusionPolicy::Or;
    let mut metrics_json = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        // Every `--fp-*`/`--tenants` knob implies `--fingerprint`.
        fingerprint |= flag.starts_with("--fp-") || flag == "--tenants";
        match flag {
            "--attack" => attack_name = flags.value("a value")?,
            "--eps" => eps = flags.number()?,
            "--targeted" => targeted = true,
            "-n" => n = flags.number()?,
            "--capacity" => capacity = flags.number()?,
            "--batch" => batch = flags.number()?,
            "--shed" => shed = true,
            "--tiny" => pipeline.tiny = true,
            "--fingerprint" => fingerprint = true,
            "--fp-window" => fp.window = flags.number()?,
            "--fp-threshold" => fp.match_threshold = flags.number()?,
            "--fp-quant" => fp.quant_step = flags.number()?,
            "--tenants" => fp.max_tenants = flags.number()?,
            "--fusion" => {
                fusion = match flags.value_opt() {
                    Some("hpc") => FusionPolicy::HpcOnly,
                    Some("fingerprint") => FusionPolicy::FingerprintOnly,
                    Some("or") => FusionPolicy::Or,
                    Some("and") => FusionPolicy::And,
                    other => {
                        return Err(format!(
                            "--fusion expects hpc|fingerprint|or|and, got {:?}",
                            other.unwrap_or("nothing")
                        ))
                    }
                };
            }
            "--metrics-json" => metrics_json = Some(flags.value("a path")?.to_string()),
            _ => return Err(flags.unknown()),
        }
    }
    let attack = match attack_name {
        "fgsm" => Attack::fgsm(eps),
        "pgd" => Attack::pgd(eps),
        "mifgsm" => Attack::mi_fgsm(eps),
        "deepfool" => Attack::deepfool(),
        "nes" => Attack::nes(eps),
        other => return Err(format!("unknown attack {other}")),
    };
    Ok(AttackFlags {
        attack,
        targeted,
        n,
        capacity,
        batch,
        shed,
        pipeline,
        fingerprint: fingerprint.then_some(fp),
        fusion,
        metrics_json,
    })
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let (model, _) = parse_model(args)?;
    let art = build_from_spec(Arc::clone(&model.spec), None);
    println!(
        "{}: {} on {} — clean accuracy {:.2}% ({})",
        model.label,
        art.model_name(),
        art.dataset_name(),
        art.clean_accuracy * 100.0,
        if art.from_cache {
            "loaded from store"
        } else {
            "trained"
        }
    );
    Ok(())
}

fn cmd_fit(args: &[String]) -> Result<(), String> {
    let (model, args) = parse_model(args)?;
    let out = args.first().ok_or("missing output path for the detector")?;
    let (config, store) = PipelineFlags::default().resolve(&model)?;
    println!("running offline pipeline (cached stages load from the store) ...");
    let (art, report) = Pipeline::new(config, store)
        .run()
        .map_err(|e| e.to_string())?;
    save_detector(&art.detector, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "detector saved to {out}: {} categories × {} events, M ≥ {} ({} stage hits)",
        art.detector.num_classes(),
        art.detector.events().len(),
        art.template.min_samples_per_class(),
        report.hits()
    );
    Ok(())
}

fn cmd_detect(args: &[String]) -> Result<(), String> {
    let (model, args) = parse_model(args)?;
    let det_path = args
        .first()
        .ok_or("missing detector path (run `fit` first)")?;
    let flags = parse_attack_flags(&args[1..])?;

    let detector = load_detector(Path::new(det_path)).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(0xC13);
    let art = build_from_spec(Arc::clone(&model.spec), None);
    let goal = if flags.targeted {
        AttackGoal::Targeted(art.target_class())
    } else {
        AttackGoal::Untargeted
    };
    println!(
        "attacking up to {} test images with {} ...",
        flags.n,
        flags.attack.name()
    );
    let report = attack_dataset(
        &art.model,
        &art.split.test,
        &flags.attack,
        goal,
        Some(flags.n),
        &mut rng,
    );
    println!(
        "attack: {} attacked, {:.1}% success",
        report.attacked,
        report.success_rate() * 100.0
    );
    let opts = ExecOptions::seeded(0xC13);
    let adv = measure_examples(&art, &report.examples, &opts.stage(0));
    let clean = measure_dataset(&art, &art.split.test, Some(10), &opts.stage(1));
    println!("\n{:>24} {:>10} {:>8}", "event", "accuracy", "F1");
    for event in HpcEvent::ALL {
        let c = detection_confusion(&detector, event, &clean, &adv);
        println!(
            "{:>24} {:>9.1}% {:>8.4}",
            event.perf_name(),
            c.accuracy() * 100.0,
            c.f1()
        );
    }
    Ok(())
}

fn cmd_monitor(args: &[String]) -> Result<(), String> {
    let (model, args) = parse_model(args)?;
    let flags = parse_attack_flags(&args)?;
    let mut rng = StdRng::seed_from_u64(0xC14);
    let opts = ExecOptions::seeded(0xC14);

    // Offline phase through the staged pipeline: on a warm store every
    // stage is a load, so the monitor boots without training, measuring,
    // or fitting anything. This is the full `run`, not the serving boot
    // `serve` uses, because the stream below draws from the test split.
    println!("offline phase: running the staged pipeline (cached stages load) ...");
    let (config, store) = flags.pipeline.resolve(&model)?;
    let (art, report) = Pipeline::new(config, store)
        .run()
        .map_err(|e| e.to_string())?;
    println!(
        "offline phase ready: {}/{} stage cache hits",
        report.hits(),
        report.stages.len()
    );
    let detector = art.detector.clone();

    // Build the replay stream: clean test images interleaved with
    // adversarial examples generated from the same split.
    let num_classes = art.num_classes();
    let goal = if flags.targeted {
        AttackGoal::Targeted(art.target_class())
    } else {
        AttackGoal::Untargeted
    };
    println!(
        "attacking up to {} test images with {} ...",
        flags.n,
        flags.attack.name()
    );
    let report = attack_dataset(
        &art.model,
        &art.split.test,
        &flags.attack,
        goal,
        Some(flags.n),
        &mut rng,
    );
    let clean_images: Vec<_> = art
        .split
        .test
        .images()
        .iter()
        .take(flags.n)
        .cloned()
        .collect();
    // true = adversarial, indexed by submission order (= request id).
    let mut stream = Vec::new();
    let mut adv_iter = report.examples.iter();
    for image in clean_images {
        stream.push((image, false));
        if let Some(ex) = adv_iter.next() {
            stream.push((ex.image.clone(), true));
        }
    }
    for ex in adv_iter {
        stream.push((ex.image.clone(), true));
    }

    let mut builder = MonitorBuilder::new(opts.stage(2))
        .queue_capacity(flags.capacity)
        .micro_batch(flags.batch)
        .overload(if flags.shed {
            OverloadPolicy::Shed
        } else {
            OverloadPolicy::Block
        })
        .fusion(flags.fusion);
    if let Some(fp) = flags.fingerprint {
        builder = builder.fingerprint(fp);
    }
    let monitor = builder
        .spawn(art.engine, art.model, detector)
        .map_err(|e| e.to_string())?;

    println!(
        "monitor up: queue capacity {}, micro-batch {}, policy {}, {} requests",
        flags.capacity,
        flags.batch,
        if flags.shed { "shed" } else { "block" },
        stream.len()
    );
    if let Some(fp) = flags.fingerprint {
        println!(
            "fingerprint defense on: window {}, threshold {:.2}, quant {}, \
             {} tenants max, fusion {}",
            fp.window,
            fp.match_threshold,
            fp.quant_step,
            fp.max_tenants,
            flags.fusion.name()
        );
    }
    println!(
        "\n{:>8} {:>8} {:>8} {:>10} {:>10}",
        "done", "depth", "shed", "clean-flag", "adv-flag"
    );

    let start = Instant::now();
    // A rejected submission was shed under the shed policy; the service
    // counts it.
    let admitted: Vec<bool> = stream
        .iter()
        .map(|(image, _)| monitor.submit(image.clone()).is_ok())
        .collect();
    monitor.close();

    // Verdicts arrive in admission order; map them back onto the stream
    // (shed submissions never got an id, so walk the admitted ones).
    let truth: Vec<bool> = stream
        .iter()
        .zip(&admitted)
        .filter(|(_, &adm)| adm)
        .map(|((_, adv), _)| *adv)
        .collect();
    let mut clean_seen = 0u64;
    let mut clean_flagged = 0u64;
    let mut adv_seen = 0u64;
    let mut adv_flagged = 0u64;
    let mut done = 0u64;
    let mut correlated = 0u64;
    while let Some(v) = monitor.recv() {
        correlated += u64::from(v.query_correlated);
        let is_adv = truth[usize::try_from(v.request_id).expect("id fits usize")];
        if is_adv {
            adv_seen += 1;
            adv_flagged += u64::from(v.flagged);
        } else {
            clean_seen += 1;
            clean_flagged += u64::from(v.flagged);
        }
        done += 1;
        if done.is_multiple_of(flags.batch as u64 * 4) {
            let s = monitor.stats();
            println!(
                "{:>8} {:>8} {:>8} {:>9.1}% {:>9.1}%",
                done,
                monitor.queue_depth(),
                s.shed,
                rate(clean_flagged, clean_seen) * 100.0,
                rate(adv_flagged, adv_seen) * 100.0
            );
            // Periodic operational summary on stderr, from the unified
            // telemetry snapshot (stdout stays a clean results table).
            let snap = monitor.metrics_snapshot();
            let p50_us = snap
                .histogram("advhunter_monitor_verdict_latency_ns")
                .and_then(|h| h.quantile(0.5))
                .unwrap_or(0)
                / 1_000;
            eprintln!(
                "metrics: completed={done} depth={} shed={} blocked={} \
                 batches={} p50_verdict_latency_us<={p50_us}",
                monitor.queue_depth(),
                s.shed,
                s.blocked,
                s.batches,
            );
        }
    }
    let elapsed = start.elapsed();
    if let Some(path) = &flags.metrics_json {
        std::fs::write(path, monitor.metrics_snapshot().render_json())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("metrics snapshot written to {path}");
    }
    let stats = monitor.shutdown();

    println!("\nstream done in {:.2}s", elapsed.as_secs_f64());
    println!(
        "  throughput      {:.1} inferences/s",
        stats.completed as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!(
        "  submitted {} · completed {} · shed {} · blocked {} · {} micro-batches · max depth {}",
        stats.submitted,
        stats.completed,
        stats.shed,
        stats.blocked,
        stats.batches,
        stats.max_queue_depth
    );
    println!(
        "  mean queued {:?} · mean measure/batch {:?} · mean score/batch {:?}",
        stats.mean_queued(),
        stats.mean_measure_per_batch(),
        stats.mean_score_per_batch()
    );
    println!(
        "  clean flagged   {:>5.1}%  (false-positive rate, any-event fusion)",
        rate(clean_flagged, clean_seen) * 100.0
    );
    println!(
        "  adv flagged     {:>5.1}%  (recall, any-event fusion)",
        rate(adv_flagged, adv_seen) * 100.0
    );
    if flags.fingerprint.is_some() {
        println!(
            "  query-correlated {} · fp matched {} · fp shed {} · fp stage {:?}",
            correlated, stats.fingerprint_matched, stats.fingerprint_shed, stats.fingerprint
        );
    }
    println!("\n{:>8} {:>10} {:>10}", "class", "screened", "flag-rate");
    for (class, c) in stats.per_class.iter().enumerate() {
        if c.screened == 0 {
            continue;
        }
        let label = if class < num_classes {
            format!("{class}")
        } else {
            "other".to_string()
        };
        println!(
            "{:>8} {:>10} {:>9.1}%",
            label,
            c.screened,
            c.flag_rate() * 100.0
        );
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (model, args) = parse_model(args)?;
    let mut addr = "127.0.0.1:0";
    let mut pipeline = PipelineFlags::default();
    let mut capacity = 64usize;
    let mut batch = 8usize;
    let mut shed = false;
    let mut watch_ms = 50u64;
    let mut drift = false;
    let mut drift_config = DriftConfig::default();
    let mut control = ControlAccess::Loopback;
    let mut flags = Flags::new(&args);
    while let Some(flag) = flags.next_flag() {
        // Every `--drift-*` knob implies `--drift`.
        drift |= flag.starts_with("--drift");
        match flag {
            "--addr" => addr = flags.value("host:port")?,
            "--store" => pipeline.store = Some(flags.value("a directory")?.to_string()),
            "--tiny" => pipeline.tiny = true,
            "--seed" => pipeline.seed = Some(flags.number()?),
            "--capacity" => capacity = flags.number()?,
            "--batch" => batch = flags.number()?,
            "--shed" => shed = true,
            "--watch-ms" => {
                watch_ms = flags
                    .number()
                    .map_err(|e| format!("{e} (0 disables watching)"))?;
            }
            "--drift" => drift = true,
            "--allow-remote-control" => control = ControlAccess::Any,
            "--drift-window" => drift_config.window = flags.number()?,
            "--drift-slack" => drift_config.slack = flags.number()?,
            "--drift-threshold" => drift_config.threshold = flags.number()?,
            _ => return Err(flags.unknown()),
        }
    }
    let (config, store) = pipeline.resolve(&model)?;

    let opts = ExecOptions::seeded(0xC15);
    let mut builder = MonitorBuilder::new(opts.stage(2))
        .queue_capacity(capacity)
        .micro_batch(batch)
        .overload(if shed {
            OverloadPolicy::Shed
        } else {
            OverloadPolicy::Block
        });
    if watch_ms > 0 {
        builder = builder.watch_store(std::time::Duration::from_millis(watch_ms));
    }
    if drift {
        builder = builder.drift(drift_config);
    }
    println!(
        "offline phase: loading the stored stage artifacts and building the engine \
         (a missing or corrupt stage is recomputed) ..."
    );
    let monitor = builder
        .spawn_from_store(config, store)
        .map_err(|e| e.to_string())?;
    let server = WireServer::bind_with(monitor, addr, control).map_err(|e| e.to_string())?;
    // The port-0 contract: this exact line is how scripts learn the port.
    println!("listening on {}", server.local_addr());
    println!(
        "serve: {} capacity {}, micro-batch {}, policy {}, watch {}, drift {}",
        model.label,
        capacity,
        batch,
        if shed { "shed" } else { "block" },
        if watch_ms > 0 {
            format!("{watch_ms}ms")
        } else {
            "off".to_string()
        },
        if drift { "on" } else { "off" },
    );
    server.wait_for_shutdown();
    println!("shutdown requested; draining ...");
    let stats = server.stop();
    println!(
        "serve: submitted={} completed={} shed={} drained={} swaps={} drift={} epoch={}",
        stats.submitted,
        stats.completed,
        stats.shed,
        stats.drained,
        stats.detector_swaps,
        stats.drift_events,
        stats.config_epoch,
    );
    Ok(())
}

fn cmd_deploy(args: &[String]) -> Result<(), String> {
    let (model, args) = parse_model(args)?;
    let mut pipeline = PipelineFlags::default();
    let mut sigma: Option<f64> = None;
    let mut flags = Flags::new(&args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--store" => pipeline.store = Some(flags.value("a directory")?.to_string()),
            "--tiny" => pipeline.tiny = true,
            "--sigma" => sigma = Some(flags.number()?),
            _ => return Err(flags.unknown()),
        }
    }
    let (base, store) = pipeline.resolve(&model)?;

    // Recalibrate under the requested sigma, but *publish* at the base
    // configuration's Calibrate fingerprint — that is the key a running
    // `serve --watch-ms` is polling, so the swap is picked up live.
    let mut recalibrate = base.clone();
    if let Some(sigma) = sigma {
        recalibrate.detector.sigma_factor = sigma;
    }
    let (detector, _) = Pipeline::new(recalibrate, store.clone())
        .run_calibrate_only()
        .map_err(|e| e.to_string())?;
    let fp = Pipeline::new(base, store)
        .deploy_detector(&detector)
        .map_err(|e| e.to_string())?;
    println!(
        "deploy: detector recalibrated (sigma {}) and written at {fp} — \
         watching servers hot-swap it at their next poll",
        sigma.map_or_else(|| "unchanged".to_string(), |s| format!("{s}")),
    );
    Ok(())
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    type Cmd = fn(&[String]) -> Result<(), String>;

    /// Runs each subcommand on its arguments and checks the exact error.
    fn assert_errors(cases: &[(Cmd, &[&str], &str)]) {
        for &(cmd, list, want) in cases {
            assert_eq!(cmd(&args(list)).unwrap_err(), want, "{list:?}");
        }
    }

    fn spec_path(name: &str) -> String {
        format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn flag_reader_walks_flags_and_values() {
        let list = args(&["--tiny", "--seed", "7", "--store", "dir"]);
        let mut flags = Flags::new(&list);
        assert_eq!(flags.next_flag(), Some("--tiny"));
        assert_eq!(flags.next_flag(), Some("--seed"));
        assert_eq!(flags.number::<u64>(), Ok(7));
        assert_eq!(flags.next_flag(), Some("--store"));
        assert_eq!(flags.value("a directory"), Ok("dir"));
        assert_eq!(flags.next_flag(), None);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert_errors(&[
            (
                cmd_pipeline,
                &["CASE", "--tiny", "--bogus"],
                "unknown flag --bogus",
            ),
            (cmd_monitor, &["CASE", "--bogus"], "unknown flag --bogus"),
            (cmd_serve, &["CASE", "stray"], "unknown flag stray"),
        ]);
    }

    #[test]
    fn missing_values_name_what_the_flag_needs() {
        assert_errors(&[
            (
                cmd_pipeline,
                &["CASE", "--store"],
                "--store needs a directory",
            ),
            (
                cmd_pipeline,
                &["CASE", "--metrics-json"],
                "--metrics-json needs a path",
            ),
            (cmd_monitor, &["CASE", "--attack"], "--attack needs a value"),
            (cmd_serve, &["CASE", "--addr"], "--addr needs host:port"),
            (cmd_deploy, &["CASE", "--sigma"], "--sigma needs a number"),
        ]);
        let err = cmd_monitor(&args(&["CASE", "--fusion"])).unwrap_err();
        assert_eq!(
            err,
            "--fusion expects hpc|fingerprint|or|and, got \"nothing\""
        );
    }

    #[test]
    fn non_numeric_values_are_rejected() {
        assert_errors(&[
            (
                cmd_pipeline,
                &["CASE", "--seed", "x"],
                "--seed needs a number",
            ),
            (
                cmd_monitor,
                &["CASE", "--eps", "big"],
                "--eps needs a number",
            ),
            (cmd_monitor, &["CASE", "-n", "-"], "-n needs a number"),
            (
                cmd_serve,
                &["CASE", "--watch-ms", "soon"],
                "--watch-ms needs a number (0 disables watching)",
            ),
        ]);
    }

    #[test]
    fn graph_is_accepted_at_any_position() {
        let path = spec_path("case_study.ahg");
        for list in [
            args(&["--graph", &path, "--tiny", "--seed", "3"]),
            args(&["--tiny", "--graph", &path, "--seed", "3"]),
            args(&["--tiny", "--seed", "3", "--graph", &path]),
        ] {
            let (model, rest) = parse_model(&list).expect("model parses");
            assert_eq!(model.label, "case-study");
            assert_eq!(model.spec.digest(), ScenarioId::CaseStudy.spec().digest());
            assert_eq!(rest, args(&["--tiny", "--seed", "3"]));
        }
        let mut list = args(&["--tiny", "--graph", &path, "--bogus"]);
        assert_eq!(cmd_deploy(&list).unwrap_err(), "unknown flag --bogus");
        list.truncate(2);
        assert_eq!(
            cmd_deploy(&list).unwrap_err(),
            "--graph needs a .ahg file path"
        );
    }

    #[test]
    fn flags_of_other_subcommands_are_rejected() {
        assert_errors(&[
            (cmd_deploy, &["CASE", "--seed", "1"], "unknown flag --seed"),
            (cmd_deploy, &["CASE", "--force"], "unknown flag --force"),
            (
                cmd_monitor,
                &["CASE", "--store", "dir"],
                "unknown flag --store",
            ),
            (cmd_monitor, &["CASE", "--seed", "1"], "unknown flag --seed"),
            (
                cmd_pipeline,
                &["CASE", "--addr", "x"],
                "unknown flag --addr",
            ),
        ]);
    }
}
