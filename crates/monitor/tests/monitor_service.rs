//! Service-level tests: determinism of the verdict stream across thread
//! counts and submission batchings, and graceful behavior under overload.

use advhunter::{Detector, DetectorConfig, ExecOptions, OfflineTemplate, Verdict};
use advhunter_exec::TraceEngine;
use advhunter_monitor::{
    MonitorBuildError, MonitorBuilder, MonitorConfigError, MonitorRequest, OverloadPolicy,
    SubmitError,
};
use advhunter_nn::{Graph, GraphBuilder};
use advhunter_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A tiny 2-class CNN plus a detector fitted on a toy validation split.
/// Everything is seeded, so repeated calls build bit-identical fixtures —
/// the property the cross-monitor determinism tests rely on.
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

    // An untrained model predicts mostly one class, so group validation
    // measurements by true label instead of going through the
    // prediction-filtered `collect_template` path.
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

/// Runs `stream` through a fresh monitor with the given thread count and
/// micro-batch size, submitting everything up front, and returns the
/// deterministic part of each outcome.
fn run_stream(stream: &[Tensor], threads: usize, micro_batch: usize) -> Vec<(u64, Verdict, bool)> {
    let (model, engine, detector, _) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::seeded(42).with_threads(threads))
        .queue_capacity(stream.len().max(1))
        .micro_batch(micro_batch)
        .spawn(engine, model, detector)
        .unwrap();
    for image in stream {
        monitor.submit(image.clone()).unwrap();
    }
    monitor.close();
    let mut out = Vec::new();
    while let Some(v) = monitor.recv() {
        out.push((v.request_id, v.verdict, v.flagged));
    }
    out
}

#[test]
fn verdict_stream_is_thread_count_invariant() {
    let (_, _, _, stream) = fixture();
    let baseline = run_stream(&stream, 1, 4);
    assert_eq!(baseline.len(), stream.len());
    for threads in [2, 4] {
        let par = run_stream(&stream, threads, 4);
        assert_eq!(baseline, par, "thread count {threads} changed verdicts");
    }
}

#[test]
fn verdict_stream_is_invariant_to_micro_batch_size() {
    let (_, _, _, stream) = fixture();
    let baseline = run_stream(&stream, 2, 1);
    for micro_batch in [3, 5, 64] {
        let other = run_stream(&stream, 2, micro_batch);
        assert_eq!(
            baseline, other,
            "micro-batch size {micro_batch} changed verdicts"
        );
    }
}

#[test]
fn verdict_stream_is_invariant_to_submission_batching() {
    let (model, engine, detector, stream) = fixture();
    let all_at_once = run_stream(&stream, 2, 4);

    // Same images trickled in one by one, with every verdict consumed
    // before the next submission — maximally different arrival pattern.
    let monitor = MonitorBuilder::new(ExecOptions::seeded(42).with_threads(2))
        .queue_capacity(1)
        .micro_batch(4)
        .spawn(engine, model, detector)
        .unwrap();
    let mut trickled = Vec::new();
    for image in &stream {
        monitor.submit(image.clone()).unwrap();
        let v = monitor.recv().unwrap();
        trickled.push((v.request_id, v.verdict, v.flagged));
    }
    monitor.close();
    assert!(monitor.recv().is_none());
    assert_eq!(all_at_once, trickled);
}

#[test]
fn env_thread_override_does_not_change_verdicts() {
    let (_, _, _, stream) = fixture();
    let baseline = run_stream(&stream, 1, 4);
    // Restore whatever the harness set (CI runs with a fixed count), so
    // later tests in this binary see the same environment.
    let saved = std::env::var_os("ADVHUNTER_THREADS");
    std::env::set_var("ADVHUNTER_THREADS", "3");
    // ExecOptions::seeded picks up the env-driven parallelism.
    let (model, engine, detector, _) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::seeded(42))
        .queue_capacity(stream.len())
        .micro_batch(4)
        .spawn(engine, model, detector)
        .unwrap();
    match saved {
        Some(v) => std::env::set_var("ADVHUNTER_THREADS", v),
        None => std::env::remove_var("ADVHUNTER_THREADS"),
    }
    for image in &stream {
        monitor.submit(image.clone()).unwrap();
    }
    let stats = monitor.shutdown();
    assert_eq!(stats.completed, stream.len() as u64);
    let replay = run_stream(&stream, 3, 4);
    assert_eq!(baseline, replay);
}

#[test]
fn mismatched_shape_is_refused_before_admission() {
    let (model, engine, detector, stream) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::sequential(3))
        .micro_batch(2)
        .spawn(engine, model, detector)
        .unwrap();
    assert_eq!(monitor.input_dims(), &[1, 6, 6]);
    // Wrong dims, wrong rank, and a zero-sized tensor: none may reach
    // the worker (whose engine asserts the model input shape).
    for dims in [&[2usize, 6, 6][..], &[36], &[1, 6, 0]] {
        assert_eq!(
            monitor.submit(Tensor::zeros(dims)),
            Err(SubmitError::ShapeMismatch)
        );
        assert_eq!(
            monitor.submit(MonitorRequest::new(Tensor::zeros(dims)).tenant(3)),
            Err(SubmitError::ShapeMismatch)
        );
    }
    // Nothing was admitted, and the worker is still alive for valid work.
    monitor.submit(stream[0].clone()).unwrap();
    assert!(monitor.recv().is_some());
    let stats = monitor.shutdown();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn non_finite_pixels_are_refused_before_admission() {
    let (model, engine, detector, stream) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::sequential(3))
        .micro_batch(2)
        .spawn(engine, model, detector)
        .unwrap();
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut image = stream[0].clone();
        image.data_mut()[7] = bad;
        assert_eq!(monitor.submit(image.clone()), Err(SubmitError::NonFinite));
        assert_eq!(
            monitor.submit(MonitorRequest::new(image).tenant(3)),
            Err(SubmitError::NonFinite)
        );
    }
    // Nothing was admitted, and the worker is still alive for valid work.
    monitor.submit(stream[0].clone()).unwrap();
    assert!(monitor.recv().is_some());
    let stats = monitor.shutdown();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn shed_policy_rejects_when_full_and_recovers() {
    let (model, engine, detector, stream) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::sequential(1))
        .queue_capacity(4)
        .micro_batch(2)
        .overload(OverloadPolicy::Shed)
        .spawn(engine, model, detector)
        .unwrap();

    // Hold the worker so the queue fills deterministically.
    monitor.pause();
    for image in stream.iter().take(4) {
        monitor.submit(image.clone()).unwrap();
    }
    assert_eq!(monitor.queue_depth(), 4);
    assert_eq!(
        monitor.submit(stream[4].clone()),
        Err(SubmitError::Overloaded)
    );
    assert_eq!(
        monitor.submit(stream[5].clone()),
        Err(SubmitError::Overloaded)
    );
    monitor.resume();

    // The shed requests are gone; the four admitted ones all complete.
    let mut ids = Vec::new();
    for _ in 0..4 {
        ids.push(monitor.recv().unwrap().request_id);
    }
    assert_eq!(ids, vec![0, 1, 2, 3]);
    let stats = monitor.shutdown();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.shed, 2);
    assert_eq!(stats.blocked, 0, "the shed policy never parks a submitter");
    assert_eq!(stats.max_queue_depth, 4);
}

#[test]
fn block_policy_admits_everything_without_shedding() {
    let (model, engine, detector, stream) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::sequential(1))
        .queue_capacity(2)
        .micro_batch(2)
        .overload(OverloadPolicy::Block)
        .spawn(engine, model, detector)
        .unwrap();
    // Submissions outnumber the queue capacity several times over; the
    // blocking policy parks the submitter instead of shedding.
    for image in &stream {
        monitor.submit(image.clone()).unwrap();
    }
    let stats = monitor.shutdown();
    assert_eq!(stats.submitted, stream.len() as u64);
    assert_eq!(stats.completed, stream.len() as u64);
    assert_eq!(stats.shed, 0);
    assert!(stats.max_queue_depth <= 2);
}

#[test]
fn block_policy_counts_parked_submissions() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let (model, engine, detector, stream) = fixture();
    let monitor = Arc::new(
        MonitorBuilder::new(ExecOptions::sequential(1))
            .queue_capacity(2)
            .micro_batch(2)
            .overload(OverloadPolicy::Block)
            .spawn(engine, model, detector)
            .unwrap(),
    );

    // Hold the worker and fill the queue, so the next submission must park.
    monitor.pause();
    monitor.submit(stream[0].clone()).unwrap();
    monitor.submit(stream[1].clone()).unwrap();
    assert_eq!(monitor.queue_depth(), 2);

    let started = Arc::new(AtomicBool::new(false));
    let (m2, s2, image) = (
        Arc::clone(&monitor),
        Arc::clone(&started),
        stream[2].clone(),
    );
    let submitter = std::thread::spawn(move || {
        s2.store(true, Ordering::SeqCst);
        m2.submit(image)
    });
    // Give the submitter a grace period to park on the full queue before
    // releasing the worker.
    while !started.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    std::thread::sleep(std::time::Duration::from_millis(50));
    monitor.resume();
    assert_eq!(submitter.join().unwrap(), Ok(2));

    for _ in 0..3 {
        monitor.recv().unwrap();
    }
    let stats = Arc::into_inner(monitor).unwrap().shutdown();
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.shed, 0, "the block policy never sheds");
    assert_eq!(stats.blocked, 1, "exactly one submission parked");
}

#[test]
fn metrics_snapshot_unifies_monitor_engine_and_pool_families() {
    let (model, engine, detector, stream) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::seeded(3).with_threads(2))
        .micro_batch(4)
        .spawn(engine, model, detector)
        .unwrap();
    for image in &stream {
        monitor.submit(image.clone()).unwrap();
    }
    monitor.close();
    while monitor.recv().is_some() {}

    let snapshot = monitor.metrics_snapshot();
    // Monitor-private families.
    assert_eq!(
        snapshot.counter("advhunter_monitor_completed_total"),
        Some(stream.len() as u64)
    );
    assert_eq!(snapshot.counter("advhunter_monitor_shed_total"), Some(0));
    assert_eq!(snapshot.counter("advhunter_monitor_blocked_total"), Some(0));
    let (_, max_depth) = snapshot.gauge("advhunter_monitor_queue_depth").unwrap();
    assert!(max_depth >= 1);
    let batch_sizes = snapshot.histogram("advhunter_monitor_batch_size").unwrap();
    assert_eq!(batch_sizes.sum, stream.len() as u64);
    let latency = snapshot
        .histogram("advhunter_monitor_verdict_latency_ns")
        .unwrap();
    assert_eq!(latency.count, stream.len() as u64);
    // Process-global families merged in: the engine measured this stream
    // (plus whatever other tests in this process ran) and the pool ran it.
    assert!(
        snapshot
            .counter("advhunter_exec_measurements_total")
            .unwrap()
            >= stream.len() as u64,
        "engine measurement counter missing or too small"
    );
    assert!(
        snapshot
            .counter("advhunter_exec_event_instructions_total")
            .unwrap()
            > 0
    );
    assert!(snapshot.counter("advhunter_runtime_tasks_total").unwrap() >= stream.len() as u64);

    // Both renderings carry the same families.
    let text = snapshot.render_prometheus();
    assert!(text.contains("# TYPE advhunter_monitor_completed_total counter"));
    assert!(text.contains("# TYPE advhunter_monitor_verdict_latency_ns histogram"));
    let json = snapshot.render_json();
    assert!(json.contains("\"name\": \"advhunter_monitor_completed_total\""));
    assert!(json.contains("\"name\": \"advhunter_exec_measurements_total\""));
}

#[test]
fn close_ends_the_stream_and_rejects_new_work() {
    let (model, engine, detector, stream) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::sequential(5))
        .micro_batch(3)
        .spawn(engine, model, detector)
        .unwrap();
    for image in stream.iter().take(5) {
        monitor.submit(image.clone()).unwrap();
    }
    monitor.close();
    assert_eq!(monitor.submit(stream[5].clone()), Err(SubmitError::Closed));
    let mut count = 0;
    while let Some(v) = monitor.recv() {
        assert_eq!(v.request_id, count);
        count += 1;
    }
    assert_eq!(count, 5);
    assert!(monitor.try_recv().is_none());
}

#[test]
fn telemetry_and_stats_describe_the_run() {
    let (model, engine, detector, stream) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::seeded(9).with_threads(2))
        .micro_batch(4)
        .spawn(engine, model, detector)
        .unwrap();
    for image in &stream {
        monitor.submit(image.clone()).unwrap();
    }
    monitor.close();
    let mut flagged_total = 0u64;
    while let Some(v) = monitor.recv() {
        assert!(v.telemetry.batch_size >= 1 && v.telemetry.batch_size <= 4);
        assert!(v.telemetry.depth_at_admission >= 1);
        assert_eq!(v.flagged, v.verdict.flagged_any());
        flagged_total += u64::from(v.flagged);
    }
    let stats = monitor.shutdown();
    assert_eq!(stats.completed, stream.len() as u64);
    assert!(stats.batches >= (stream.len() as u64).div_ceil(4));
    let screened: u64 = stats.per_class.iter().map(|c| c.screened).sum();
    let flagged: u64 = stats.per_class.iter().map(|c| c.flagged).sum();
    assert_eq!(screened, stats.completed);
    assert_eq!(flagged, flagged_total);
}

#[test]
fn spawn_rejects_invalid_configs() {
    let (model, engine, detector, _) = fixture();
    let err = MonitorBuilder::new(ExecOptions::default())
        .queue_capacity(0)
        .spawn(engine, model, detector)
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(
        err,
        MonitorBuildError::Config(MonitorConfigError::ZeroQueueCapacity)
    ));
}

#[test]
fn monitor_request_carries_tenant_and_correlation() {
    let (model, engine, detector, stream) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::sequential(11))
        .micro_batch(4)
        .spawn(engine, model, detector)
        .unwrap();
    monitor.submit(stream[0].clone()).unwrap();
    monitor
        .submit(
            MonitorRequest::new(stream[1].clone())
                .tenant(7)
                .request_id(0xBEEF),
        )
        .unwrap();
    monitor.close();
    let first = monitor.recv().unwrap();
    assert_eq!(first.request_id, 0);
    assert_eq!(first.correlation_id, None);
    assert_eq!(first.config_epoch, 0, "no swap happened");
    let second = monitor.recv().unwrap();
    assert_eq!(second.request_id, 1);
    assert_eq!(second.tenant, 7);
    assert_eq!(second.correlation_id, Some(0xBEEF));
    assert!(monitor.recv().is_none());
}
