//! Negative-path and fusion tests for the query-fingerprint stage:
//! tenant isolation, tenant-cap shedding, zero-window degradation, and
//! the fusion policies' effect on the headline flag.

use advhunter::{Detector, DetectorConfig, ExecOptions, OfflineTemplate};
use advhunter_exec::TraceEngine;
use advhunter_monitor::{
    FingerprintConfig, FingerprintConfigError, FusionPolicy, Monitor, MonitorBuildError,
    MonitorBuilder, MonitorConfigError, MonitorRequest, MonitorVerdict,
};
use advhunter_nn::{Graph, GraphBuilder};
use advhunter_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Same seeded fixture as `monitor_service.rs`: a tiny 2-class CNN, a
/// detector fitted on toy measurements, and a stream of query images.
fn fixture() -> (Graph, TraceEngine, Detector, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut b = GraphBuilder::new(&[1, 6, 6]);
    let input = b.input();
    let c = b.conv2d("c", input, 4, 3, 1, 1, &mut rng);
    let r = b.relu("r", c);
    let g = b.global_avgpool("g", r);
    b.linear("fc", g, 2, &mut rng);
    let model = b.build();
    let engine = TraceEngine::new(&model);

    let mut images = Vec::new();
    for _ in 0..40 {
        images.push(init::uniform(&mut rng, &[1, 6, 6], 0.0, 1.0));
    }
    let opts = ExecOptions::sequential(7);
    let measurements = engine.measure_batch(&model, &images, opts.seed, &opts.parallelism);
    let mut per_class = vec![Vec::new(); 2];
    for (i, m) in measurements.iter().enumerate() {
        per_class[i % 2].push(m.sample);
    }
    let template = OfflineTemplate::from_samples(per_class);
    let detector = Detector::fit(&template, &DetectorConfig::default(), &opts.stage(1)).unwrap();

    let mut stream = Vec::new();
    for _ in 0..12 {
        stream.push(init::uniform(&mut rng, &[1, 6, 6], 0.0, 1.0));
    }
    (model, engine, detector, stream)
}

/// A small enabled fingerprint configuration suited to 1×6×6 queries.
fn fp_config() -> FingerprintConfig {
    let mut config = FingerprintConfig::default().with_window(8);
    config.probe_window = 8;
    config.stride = 2;
    config
}

fn spawn(builder: MonitorBuilder) -> Monitor {
    let (model, engine, detector, _) = fixture();
    builder.spawn(engine, model, detector).unwrap()
}

fn drain(monitor: &Monitor) -> Vec<MonitorVerdict> {
    monitor.close();
    let mut out = Vec::new();
    while let Some(v) = monitor.recv() {
        out.push(v);
    }
    out
}

#[test]
fn repeated_queries_become_query_correlated() {
    let (_, _, _, stream) = fixture();
    let monitor = spawn(MonitorBuilder::new(ExecOptions::sequential(42)).fingerprint(fp_config()));
    for _ in 0..3 {
        monitor.submit(stream[0].clone()).unwrap();
    }
    let verdicts = drain(&monitor);
    assert_eq!(verdicts.len(), 3);
    let first = &verdicts[0];
    assert!(!first.query_correlated, "an empty window matches nothing");
    let report = first.fingerprint.expect("stage enabled: report present");
    assert_eq!(report.window_len, 0);
    for v in &verdicts[1..] {
        assert!(
            v.query_correlated,
            "request {} must correlate",
            v.request_id
        );
        let r = v.fingerprint.unwrap();
        assert_eq!(r.best_overlap, r.probes, "identical query: full overlap");
        assert!(!r.shed);
    }
    let stats = monitor.shutdown();
    assert_eq!(stats.fingerprint_matched, 2);
    assert_eq!(stats.fingerprint_shed, 0);
}

#[test]
fn tenants_never_see_each_others_history() {
    let (_, _, _, stream) = fixture();
    let monitor = spawn(MonitorBuilder::new(ExecOptions::sequential(42)).fingerprint(fp_config()));
    monitor
        .submit(MonitorRequest::new(stream[0].clone()).tenant(1))
        .unwrap();
    monitor
        .submit(MonitorRequest::new(stream[0].clone()).tenant(2))
        .unwrap();
    monitor
        .submit(MonitorRequest::new(stream[0].clone()).tenant(1))
        .unwrap();
    let verdicts = drain(&monitor);
    assert_eq!(verdicts[0].tenant, 1);
    assert!(!verdicts[0].query_correlated);
    assert_eq!(verdicts[1].tenant, 2);
    assert!(
        !verdicts[1].query_correlated,
        "tenant 2 must not match tenant 1's identical query"
    );
    assert_eq!(verdicts[2].tenant, 1);
    assert!(
        verdicts[2].query_correlated,
        "tenant 1's own repeat must match"
    );
}

#[test]
fn tenant_cap_sheds_to_hpc_only_without_failing_requests() {
    let (_, _, _, stream) = fixture();
    let builder = MonitorBuilder::new(ExecOptions::sequential(42))
        .fingerprint(fp_config().with_max_tenants(1));
    let monitor = spawn(builder);
    monitor
        .submit(MonitorRequest::new(stream[0].clone()).tenant(1))
        .unwrap();
    // Tenant 2 arrives at a full store: requests still measure and score,
    // but the fingerprint stage sheds them — repeatedly identical queries
    // never correlate.
    monitor
        .submit(MonitorRequest::new(stream[1].clone()).tenant(2))
        .unwrap();
    monitor
        .submit(MonitorRequest::new(stream[1].clone()).tenant(2))
        .unwrap();
    let verdicts = drain(&monitor);
    assert_eq!(verdicts.len(), 3, "shed tenants still get verdicts");
    for v in &verdicts[1..] {
        assert_eq!(v.tenant, 2);
        assert!(v.fingerprint.unwrap().shed);
        assert!(!v.query_correlated);
        assert_eq!(
            v.flagged,
            v.verdict.flagged_any(),
            "shed request degrades to the HPC-only verdict"
        );
    }
    let stats = monitor.shutdown();
    assert_eq!(stats.fingerprint_shed, 2);
    assert_eq!(stats.fingerprint_matched, 0);
    assert_eq!(stats.completed, 3);
}

#[test]
fn zero_window_config_degrades_gracefully_to_hpc_only() {
    let (_, _, _, stream) = fixture();
    // The default config carries a disabled fingerprint stage.
    let monitor = spawn(
        MonitorBuilder::new(ExecOptions::sequential(42)).fingerprint(FingerprintConfig::disabled()),
    );
    for _ in 0..3 {
        monitor.submit(stream[0].clone()).unwrap();
    }
    let verdicts = drain(&monitor);
    for v in &verdicts {
        assert!(v.fingerprint.is_none(), "disabled stage produces no report");
        assert!(!v.query_correlated);
        assert_eq!(v.flagged, v.verdict.flagged_any());
        assert_eq!(v.hpc_anomalous, v.verdict.flagged_any());
    }
    let stats = monitor.shutdown();
    assert_eq!(stats.fingerprint, std::time::Duration::ZERO);
    assert_eq!(stats.fingerprint_matched, 0);
}

#[test]
fn fusion_policies_shape_the_headline_flag() {
    let (_, _, _, stream) = fixture();
    for policy in [
        FusionPolicy::HpcOnly,
        FusionPolicy::FingerprintOnly,
        FusionPolicy::Or,
        FusionPolicy::And,
    ] {
        let builder = MonitorBuilder::new(ExecOptions::sequential(42))
            .fingerprint(fp_config())
            .fusion(policy);
        let monitor = spawn(builder);
        monitor.submit(stream[0].clone()).unwrap();
        monitor.submit(stream[0].clone()).unwrap();
        monitor.submit(stream[1].clone()).unwrap();
        for v in drain(&monitor) {
            assert_eq!(
                v.flagged,
                policy.fuse(v.hpc_anomalous, v.query_correlated),
                "{policy:?} request {}",
                v.request_id
            );
        }
    }
}

#[test]
fn spawn_rejects_invalid_fingerprint_configs() {
    let (model, engine, detector, _) = fixture();
    let bad = FingerprintConfig {
        probes: 0,
        ..FingerprintConfig::default()
    };
    let err = MonitorBuilder::new(ExecOptions::default())
        .fingerprint(bad)
        .spawn(engine, model, detector)
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(
        err,
        MonitorBuildError::Config(MonitorConfigError::Fingerprint(
            FingerprintConfigError::ZeroProbes
        ))
    ));
}
