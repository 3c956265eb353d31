//! The staged offline pipeline and its content-addressed artifact store:
//! fingerprints are golden (stable across runs and thread counts, and
//! every knob re-addresses exactly its downstream stages), cached bytes
//! are bit-identical to freshly computed ones, corruption is healed by
//! recomputation, and a warm run is an order of magnitude faster than a
//! cold one. The serving boot runs the same stages: it stores, heals and
//! serves exactly what a full run does.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use advhunter::persist::{detector_to_bytes, load_model_bytes, model_to_bytes, template_to_bytes};
use advhunter::scenario::ScenarioId;
use advhunter::{
    ArtifactKind, ArtifactStore, ExecOptions, Parallelism, Pipeline, PipelineArtifacts,
    PipelineConfig, PipelineReport, Stage, StageOutcome,
};
use advhunter_data::SplitSizes;
use advhunter_monitor::{Monitor, MonitorBuilder};
use advhunter_nn::Op;

/// A fresh, unique store root under the system temp dir.
fn scratch_store() -> (ArtifactStore, PathBuf) {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "advhunter-pipeline-test-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    let store = ArtifactStore::open(&root).expect("open scratch store");
    (store, root)
}

fn tiny_config() -> PipelineConfig {
    PipelineConfig::for_scenario(ScenarioId::CaseStudy).with_sizes(SplitSizes {
        train: 30,
        val: 40,
        test: 10,
    })
}

/// Serialized payload bytes of every artifact a run produced.
fn artifact_bytes(art: &PipelineArtifacts) -> [Vec<u8>; 3] {
    [
        model_to_bytes(&art.model),
        template_to_bytes(&art.template),
        detector_to_bytes(&art.detector),
    ]
}

/// On-disk store file for each stage of `config`.
fn stage_files(store: &ArtifactStore, config: &PipelineConfig) -> Vec<PathBuf> {
    Stage::ALL
        .iter()
        .map(|&s| store.path_for(s.artifact_kind(), config.fingerprint(s)))
        .collect()
}

#[test]
fn golden_fingerprints_pin_the_addressing_scheme() {
    // These literals pin the fingerprint recipe: any change to the hash
    // function, the field order, or the canonical seeds re-addresses every
    // stored artifact and must be deliberate (bump the domain-tag version
    // and update these values).
    let config = PipelineConfig::for_scenario(ScenarioId::CaseStudy);
    let got: Vec<String> = Stage::ALL
        .iter()
        .map(|&s| config.fingerprint(s).to_string())
        .collect();
    let expected = [
        "9990407ccef04e52",
        "9970edffc4a23da1",
        "4cc87e0150697026",
        "2e674c5ad8b784ef",
    ];
    assert_eq!(got, expected, "fingerprint recipe changed");
}

#[test]
fn each_knob_re_addresses_exactly_its_downstream_stages() {
    let base = tiny_config();
    let fps = |c: &PipelineConfig| Stage::ALL.map(|s| c.fingerprint(s));
    let base_fps = fps(&base);

    // Upstream training knobs re-address everything.
    for variant in [
        base.clone().with_train_seed(123),
        base.clone().with_sizes(SplitSizes {
            train: 31,
            val: 40,
            test: 10,
        }),
    ] {
        let v = fps(&variant);
        for i in 0..4 {
            assert_ne!(base_fps[i], v[i], "stage {} must be re-addressed", i);
        }
    }

    // Measurement knobs leave the trained model alone.
    for variant in [
        base.clone().with_seed(99),
        base.clone().with_repeats(3),
        base.clone().with_per_class_cap(Some(5)),
    ] {
        let v = fps(&variant);
        assert_eq!(base_fps[0], v[0], "TrainModel must keep its address");
        for i in 1..4 {
            assert_ne!(base_fps[i], v[i], "stage {} must be re-addressed", i);
        }
    }

    // The sigma factor affects only threshold calibration.
    let mut detector = base.detector.clone();
    detector.sigma_factor = 2.5;
    let v = fps(&base.with_detector(detector));
    assert_eq!(base_fps[..3], v[..3], "sigma must not touch fit or earlier");
    assert_ne!(base_fps[3], v[3], "sigma must re-address Calibrate");
}

#[test]
fn defense_knobs_never_invalidate_offline_artifacts() {
    // The online defense (query fingerprinting) is configured on the same
    // PipelineConfig but is deliberately outside every offline stage's
    // input closure: flipping any defense knob must leave all four golden
    // addresses — and therefore every cached artifact — untouched.
    let base = tiny_config();
    let base_fps = Stage::ALL.map(|s| base.fingerprint(s));

    let tuned = advhunter::FingerprintConfig {
        window: 512,
        probes: 64,
        salt: 0xDEAD_BEEF,
        ..Default::default()
    };
    for variant in [
        base.clone()
            .with_defense(advhunter::FingerprintConfig::default()),
        base.clone().with_defense(tuned),
    ] {
        assert_eq!(
            base_fps,
            Stage::ALL.map(|s| variant.fingerprint(s)),
            "defense knobs must not re-address offline stages"
        );
    }

    // The defense itself *is* addressed — under its own sibling
    // fingerprint, so deployments can tell defense configurations apart
    // without churning the offline cache.
    let a = base.defense_fingerprint();
    let b = base
        .clone()
        .with_defense(advhunter::FingerprintConfig::default())
        .defense_fingerprint();
    let c = base.with_defense(tuned).defense_fingerprint();
    assert_ne!(a, b, "enabling the defense must change its address");
    assert_ne!(b, c, "each defense knob must change the defense address");
}

#[test]
fn cold_warm_forced_and_rebuilt_artifacts_are_bit_identical() {
    let (store, root) = scratch_store();
    let config = tiny_config();
    let run = |force: bool| -> (PipelineArtifacts, PipelineReport) {
        Pipeline::new(config.clone(), store.clone())
            .force(force)
            .run()
            .expect("pipeline run")
    };

    // Cold: every stage computes and stores.
    let (cold_art, cold_report) = run(false);
    assert!(
        cold_report
            .stages
            .iter()
            .all(|s| s.outcome == StageOutcome::Miss),
        "cold run must miss everywhere, got {:?}",
        cold_report
    );
    let cold_bytes = artifact_bytes(&cold_art);
    let files = stage_files(&store, &config);
    let cold_files: Vec<Vec<u8>> = files
        .iter()
        .map(|p| std::fs::read(p).expect("stage artifact on disk"))
        .collect();

    // Warm: pure cache hits, identical artifacts.
    let (warm_art, warm_report) = run(false);
    assert!(warm_report.all_hits(), "warm run must hit everywhere");
    assert_eq!(cold_bytes, artifact_bytes(&warm_art));

    // Forced: recomputes everything, rewrites the same bytes.
    let (forced_art, forced_report) = run(true);
    assert!(
        forced_report
            .stages
            .iter()
            .all(|s| s.outcome == StageOutcome::Forced),
        "forced run must recompute everywhere"
    );
    assert_eq!(cold_bytes, artifact_bytes(&forced_art));
    for (path, before) in files.iter().zip(&cold_files) {
        assert_eq!(
            &std::fs::read(path).expect("stage artifact on disk"),
            before,
            "forced rewrite must be bit-identical"
        );
    }

    // Corruption: flip one payload byte of the calibrated detector and
    // truncate the template. Both stages must evict and recompute, the
    // pipeline must return the original artifacts, and the store must be
    // healed to the original bytes.
    let calibrate_file = &files[3];
    let mut corrupt = cold_files[3].clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF;
    std::fs::write(calibrate_file, &corrupt).unwrap();
    let template_file = &files[1];
    std::fs::write(template_file, &cold_files[1][..10]).unwrap();

    let (healed_art, healed_report) = run(false);
    let outcomes: Vec<StageOutcome> = healed_report.stages.iter().map(|s| s.outcome).collect();
    assert_eq!(
        outcomes,
        vec![
            StageOutcome::Hit,
            StageOutcome::Rebuilt,
            StageOutcome::Hit,
            StageOutcome::Rebuilt
        ],
        "corrupt stages rebuild, intact stages keep hitting"
    );
    assert_eq!(cold_bytes, artifact_bytes(&healed_art));
    for (path, before) in files.iter().zip(&cold_files) {
        assert_eq!(
            &std::fs::read(path).expect("stage artifact on disk"),
            before,
            "store must be healed to the original bytes"
        );
    }

    std::fs::remove_dir_all(root).ok();
}

#[test]
fn artifacts_are_bit_identical_across_thread_counts() {
    let config = tiny_config();
    let mut baseline: Option<[Vec<u8>; 3]> = None;
    for threads in [1usize, 2, 4] {
        // A fresh store per thread count: every run is cold, so the bytes
        // compared are genuinely recomputed, not replayed from a cache.
        let (store, root) = scratch_store();
        let (art, report) = Pipeline::new(config.clone(), store)
            .with_parallelism(Parallelism::new(threads))
            .run()
            .expect("pipeline run");
        assert_eq!(report.recomputed(), 4);
        let bytes = artifact_bytes(&art);
        match &baseline {
            None => baseline = Some(bytes),
            Some(expected) => assert_eq!(
                expected, &bytes,
                "artifacts must be bit-identical at {threads} threads"
            ),
        }
        std::fs::remove_dir_all(root).ok();
    }
}

/// Filename → file bytes of every autotune verdict in the store, sorted.
fn tune_artifacts(store: &ArtifactStore) -> Vec<(String, Vec<u8>)> {
    let dir = store.root().join("tune");
    let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("tune dir exists")
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    entries.sort();
    entries
}

#[test]
fn tune_verdicts_are_cached_and_byte_stable() {
    // The autotuner's decision table is content-addressed like every other
    // artifact: a cold run populates it, and warm + forced runs (at any
    // thread count) leave every byte untouched. Verdict files are
    // per-geometry and keyed outside the offline stage closures, so the
    // four stage fingerprints never move when tuning state changes.
    let config = tiny_config();
    let mut baseline: Option<Vec<(String, Vec<u8>)>> = None;
    for threads in [1usize, 2, 4] {
        let (store, root) = scratch_store();
        let run = |force: bool| {
            Pipeline::new(config.clone(), store.clone())
                .with_parallelism(Parallelism::new(threads))
                .force(force)
                .run()
                .expect("pipeline run")
        };

        run(false);
        let cold = tune_artifacts(&store);
        assert!(
            !cold.is_empty(),
            "a cold run must persist autotune verdicts"
        );
        for (name, bytes) in &cold {
            // AHS2 envelope (29 bytes) + 1-byte kernel-variant tag.
            assert_eq!(bytes.len(), 30, "{name}: tune payload is one tag byte");
        }

        run(false);
        assert_eq!(cold, tune_artifacts(&store), "warm run changed verdicts");
        run(true);
        assert_eq!(cold, tune_artifacts(&store), "forced run changed verdicts");

        // Tuning state must never re-address the offline stages.
        for path in stage_files(&store, &config) {
            assert!(path.exists(), "offline artifact missing: {path:?}");
        }

        match &baseline {
            None => baseline = Some(cold),
            Some(expected) => assert_eq!(
                expected, &cold,
                "tune artifacts must be byte-identical at {threads} threads"
            ),
        }
        std::fs::remove_dir_all(root).ok();
    }
}

#[test]
fn warm_run_is_an_order_of_magnitude_faster_than_cold() {
    let (store, root) = scratch_store();
    let config = tiny_config();

    let t0 = std::time::Instant::now();
    let (_, cold) = Pipeline::new(config.clone(), store.clone())
        .run()
        .expect("cold run");
    let cold_time = t0.elapsed();
    assert_eq!(cold.recomputed(), 4);

    let t1 = std::time::Instant::now();
    let (_, warm) = Pipeline::new(config, store).run().expect("warm run");
    let warm_time = t1.elapsed();
    assert!(warm.all_hits());

    assert!(
        warm_time * 10 <= cold_time,
        "warm run must be >= 10x faster: cold {:?}, warm {:?}",
        cold_time,
        warm_time
    );
    std::fs::remove_dir_all(root).ok();
}

/// Stored bytes of each stage artifact of `config`.
fn stage_bytes(store: &ArtifactStore, config: &PipelineConfig) -> Vec<Vec<u8>> {
    stage_files(store, config)
        .iter()
        .map(|p| std::fs::read(p).expect("stage artifact on disk"))
        .collect()
}

#[test]
fn cold_serving_boot_stores_what_a_cold_run_stores() {
    let config = tiny_config();
    let (run_store, run_root) = scratch_store();
    let (art, _) = Pipeline::new(config.clone(), run_store.clone())
        .run()
        .expect("cold run");
    let (boot_store, boot_root) = scratch_store();
    let (_, model, detector) = Pipeline::new(config.clone(), boot_store.clone())
        .run_for_serving()
        .expect("cold serving boot");

    assert_eq!(model_to_bytes(&model), model_to_bytes(&art.model));
    assert_eq!(
        detector_to_bytes(&detector),
        detector_to_bytes(&art.detector)
    );
    assert_eq!(
        stage_bytes(&boot_store, &config),
        stage_bytes(&run_store, &config),
        "a cold serving boot must store all four stage artifacts byte for byte"
    );
    assert_eq!(tune_artifacts(&boot_store), tune_artifacts(&run_store));

    // Warm, the serving boot loads exactly what the cold run left.
    let (_, model, detector) = Pipeline::new(config, run_store)
        .run_for_serving()
        .expect("warm serving boot");
    assert_eq!(
        [model_to_bytes(&model), detector_to_bytes(&detector)],
        [model_to_bytes(&art.model), detector_to_bytes(&art.detector)]
    );
    std::fs::remove_dir_all(run_root).ok();
    std::fs::remove_dir_all(boot_root).ok();
}

#[test]
fn serving_boot_evicts_corrupt_artifacts_and_never_serves_them() {
    let (store, root) = scratch_store();
    let config = tiny_config();
    let pipeline = Pipeline::new(config.clone(), store.clone());
    let (art, _) = pipeline.run().expect("cold run");
    let [model_bytes, _, detector_bytes] = artifact_bytes(&art);
    let cold = stage_bytes(&store, &config);
    let files = stage_files(&store, &config);
    let boot = || {
        let (_, model, detector) = pipeline.run_for_serving().expect("serving boot");
        assert_eq!(model_to_bytes(&model), model_bytes);
        assert_eq!(detector_to_bytes(&detector), detector_bytes);
        assert_eq!(stage_bytes(&store, &config), cold, "store must be healed");
    };

    // A bit-flipped Calibrate file fails its checksum; a truncated
    // template fails its envelope. Both are evicted and recomputed (the
    // template from a freshly generated split).
    let mut flipped = cold[3].clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    std::fs::write(&files[3], &flipped).unwrap();
    std::fs::write(&files[1], &cold[1][..10]).unwrap();
    boot();

    // An envelope-valid payload that does not decode as a detector.
    let calibrate = config.fingerprint(Stage::Calibrate);
    store
        .save(ArtifactKind::Detector, calibrate, b"AHD1 not a detector")
        .unwrap();
    boot();

    // A corrupt model retrains from the split, bit for bit.
    let mut flipped = cold[0].clone();
    flipped[40] ^= 0x80;
    std::fs::write(&files[0], &flipped).unwrap();
    boot();
    std::fs::remove_dir_all(root).ok();
}

/// Byte offset of the version byte in a store envelope, after its
/// 3-byte magic `AHS`.
const VERSION_AT: usize = 3;

/// Byte offset of the checksum field in an `AHS2` envelope: magic(3),
/// version(1), kind(1), fingerprint(8), payload length(8).
const CHECKSUM_AT: usize = 21;

/// Byte offset of the payload in an `AHS2` envelope.
const PAYLOAD_AT: usize = CHECKSUM_AT + 8;

/// The `AHS1` envelope of an `AHS2` file's payload: the same layout, with
/// version byte `1` and the byte-serial FNV-1a checksum earlier builds
/// wrote.
fn ahs1_envelope(ahs2: &[u8]) -> Vec<u8> {
    let fnv1a = ahs2[PAYLOAD_AT..]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |state, &byte| {
            (state ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    let mut ahs1 = ahs2.to_vec();
    ahs1[VERSION_AT] = b'1';
    ahs1[CHECKSUM_AT..PAYLOAD_AT].copy_from_slice(&fnv1a.to_le_bytes());
    ahs1
}

#[test]
fn ahs1_stores_are_rebuilt_once_as_ahs2() {
    let (store, root) = scratch_store();
    let config = tiny_config();
    let pipeline = Pipeline::new(config.clone(), store.clone());
    let (art, _) = pipeline.run().expect("cold run");
    let cold = stage_bytes(&store, &config);
    let files = stage_files(&store, &config);
    assert!(cold.iter().all(|file| file[VERSION_AT] == b'2'));
    let write_ahs1 = || {
        for (file, bytes) in files.iter().zip(&cold) {
            std::fs::write(file, ahs1_envelope(bytes)).unwrap();
        }
    };

    write_ahs1();
    let (_, report) = pipeline.run().expect("run over an AHS1 store");
    assert!(
        report
            .stages
            .iter()
            .all(|s| s.outcome == StageOutcome::Rebuilt),
        "{report:?}"
    );
    assert_eq!(stage_bytes(&store, &config), cold, "rebuilt as AHS2");

    write_ahs1();
    let (_, model, detector) = pipeline
        .run_for_serving()
        .expect("serving boot over an AHS1 store");
    assert_eq!(model_to_bytes(&model), model_to_bytes(&art.model));
    assert_eq!(
        detector_to_bytes(&detector),
        detector_to_bytes(&art.detector)
    );
    assert_eq!(stage_bytes(&store, &config), cold, "rebuilt as AHS2");
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn serving_boot_evicts_a_model_that_decodes_but_fails_its_checksum() {
    let (store, root) = scratch_store();
    let config = tiny_config();
    let (art, _) = Pipeline::new(config.clone(), store.clone())
        .run()
        .expect("cold run");
    let model_bytes = model_to_bytes(&art.model);
    let model_file = &stage_files(&store, &config)[0];
    let cold = std::fs::read(model_file).expect("model artifact on disk");

    // One mantissa bit deep inside the last tensor's last float: the
    // payload still decodes, to a model that differs from the stored one.
    let mut flipped = cold.clone();
    let at = flipped.len() - 3;
    flipped[at] ^= 0x01;
    let mut decoded = art.model;
    load_model_bytes(&mut decoded, &flipped[PAYLOAD_AT..]).expect("the flipped payload decodes");
    assert_ne!(model_to_bytes(&decoded), model_bytes);
    // Only the stored checksum changed: the payload is the stored model's.
    let mut resummed = cold.clone();
    resummed[CHECKSUM_AT] ^= 0x01;

    for threads in [1, 2] {
        for corrupt in [&flipped, &resummed] {
            std::fs::write(model_file, corrupt).unwrap();
            let pipeline = Pipeline::new(config.clone(), store.clone())
                .with_parallelism(Parallelism::new(threads));
            let (_, model, _) = pipeline.run_for_serving().expect("serving boot");
            assert_eq!(
                model_to_bytes(&model),
                model_bytes,
                "{threads} threads: the retrained model is served, bit for bit"
            );
            assert_eq!(
                std::fs::read(model_file).expect("model artifact re-stored"),
                cold,
                "{threads} threads: the corrupt file is evicted and re-stored"
            );
        }
    }
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn warm_serving_boot_serves_the_model_a_cold_run_trained() {
    let (store, root) = scratch_store();
    let config = tiny_config();
    let (art, _) = Pipeline::new(config.clone(), store.clone())
        .run()
        .expect("cold run");
    for threads in [1, 2, 4] {
        let (_, model, _) = Pipeline::new(config.clone(), store.clone())
            .with_parallelism(Parallelism::new(threads))
            .run_for_serving()
            .expect("warm serving boot");
        assert_eq!(
            model_to_bytes(&model),
            model_to_bytes(&art.model),
            "{threads} threads"
        );
    }
    std::fs::remove_dir_all(root).ok();
}

/// A warm serving boot of each canonical model holds every `Conv2d` and
/// `Linear` weight once, as the panels its engine dispatches (shared by
/// `Arc`, with no row-major copy), re-encodes to the stored AHW1 bytes,
/// and measures what the cold run's engine measures.
#[test]
fn warm_serving_boots_hold_each_matrix_weight_once_as_the_engine_panels() {
    for id in [
        ScenarioId::CaseStudy,
        ScenarioId::S1,
        ScenarioId::S2,
        ScenarioId::S3,
    ] {
        let (store, root) = scratch_store();
        let config = PipelineConfig::for_scenario(id).with_sizes(SplitSizes {
            train: 30,
            val: 40,
            test: 4,
        });
        let (art, _) = Pipeline::new(config.clone(), store.clone())
            .run()
            .expect("cold run");
        let stored = std::fs::read(&stage_files(&store, &config)[0]).expect("stored model");
        let (engine, model, _) = Pipeline::new(config, store)
            .run_for_serving()
            .expect("warm serving boot");
        assert_eq!(model_to_bytes(&model), stored[PAYLOAD_AT..], "{id:?}");

        let mut matrices = 0;
        for (i, node) in model.nodes().iter().enumerate() {
            let weight = match &node.op {
                Op::Conv2d(l) => &l.weight,
                Op::Linear(l) => &l.weight,
                _ => continue,
            };
            let panels = weight
                .panels()
                .unwrap_or_else(|| panic!("{id:?} {}: a row-major weight", node.name));
            let kernel = engine.kernels().node(i).expect("a matrix node's kernel");
            assert!(
                Arc::ptr_eq(&kernel.packed, panels),
                "{id:?} {}: the engine packed a second copy",
                node.name
            );
            matrices += 1;
        }
        assert_eq!(matrices, engine.kernels().iter().count(), "{id:?}");

        for image in art.split.test.images() {
            assert_eq!(
                engine.true_counts(&model, image),
                art.engine.true_counts(&art.model, image),
                "{id:?}"
            );
        }
        std::fs::remove_dir_all(root).ok();
    }
}

#[test]
fn forced_serving_boot_recomputes_over_a_valid_stored_detector() {
    let (store, root) = scratch_store();
    let config = tiny_config();
    let (art, _) = Pipeline::new(config.clone(), store.clone())
        .run()
        .expect("cold run");
    let cold = stage_bytes(&store, &config);
    // A valid but different detector at the Calibrate address: a warm
    // boot serves it, a forced boot recomputes the calibrated one.
    let deployed = art.detector.shifted(5.0);
    let pipeline = Pipeline::new(config.clone(), store.clone());
    pipeline.deploy_detector(&deployed).unwrap();
    let (_, _, warm) = pipeline.run_for_serving().expect("warm boot");
    assert_eq!(warm, deployed);
    let (_, model, forced) = pipeline.force(true).run_for_serving().expect("forced boot");
    assert_eq!(forced, art.detector);
    assert_eq!(model_to_bytes(&model), model_to_bytes(&art.model));
    assert_eq!(stage_bytes(&store, &config), cold, "forced boot re-stores");
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn warm_serving_boot_serves_the_verdicts_of_a_full_run() {
    let (store, root) = scratch_store();
    let config = tiny_config();
    let (art, _) = Pipeline::new(config.clone(), store.clone())
        .run()
        .expect("cold run");
    let images: Vec<_> = art.split.test.images()[..40].to_vec();
    let exec = ExecOptions::seeded(0xB007).with_threads(2);
    let verdicts = |monitor: Monitor| {
        for image in &images {
            monitor.submit(image.clone()).unwrap();
        }
        let mut out: Vec<_> = (0..images.len())
            .map(|_| monitor.recv().expect("verdict"))
            .collect();
        out.sort_by_key(|v| v.request_id);
        monitor.shutdown();
        out.iter()
            .map(|v| {
                let scores: Vec<_> = v
                    .verdict
                    .scores()
                    .iter()
                    .map(|s| (s.event, s.nll.to_bits(), s.threshold.to_bits()))
                    .collect();
                (v.request_id, v.verdict.predicted(), scores, v.flagged)
            })
            .collect::<Vec<_>>()
    };
    let from_run = MonitorBuilder::new(exec)
        .spawn(art.engine, art.model, art.detector)
        .unwrap();
    let from_store = MonitorBuilder::new(exec)
        .spawn_from_store(config, store)
        .unwrap();
    let expected = verdicts(from_run);
    assert_eq!(expected.len(), 40);
    assert!(
        expected.iter().filter(|v| !v.2.is_empty()).count() >= 32,
        "at least 32 verdicts carry per-event scores"
    );
    assert_eq!(verdicts(from_store), expected);
    std::fs::remove_dir_all(root).ok();
}
