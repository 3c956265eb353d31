//! A fault costs one micro-batch, not the service: a panic while a batch
//! is processed answers that batch's requests with typed `Internal`
//! rejects over the wire, is counted, and leaves the monitor serving the
//! next batch with its whole measurement crew.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use advhunter::{Detector, DetectorConfig, ExecOptions, OfflineTemplate, Parallelism};
use advhunter_exec::TraceEngine;
use advhunter_monitor::{
    DetectorSource, DriftConfig, DriftObservation, MonitorBuilder, MonitorRequest, WireServer,
};
use advhunter_nn::{Graph, GraphBuilder};
use advhunter_tensor::{init, Tensor};
use advhunter_wire::{MonitorClient, RejectCode, ServerReply};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: usize = 2;
const MICRO_BATCH: usize = 4;

/// The hot-swap tests' tiny CNN with a detector whose thresholds are
/// lifted out of reach (every verdict stays clean and feeds the drift
/// tracker), plus a detector fit on a degenerate template whose NLLs
/// explode on real traffic: swapping it in fires the drift test.
fn fixture() -> (Graph, TraceEngine, Detector, Detector) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut b = GraphBuilder::new(&[1, 6, 6]);
    let input = b.input();
    let c = b.conv2d("c", input, 4, 3, 1, 1, &mut rng);
    let r = b.relu("r", c);
    let g = b.global_avgpool("g", r);
    b.linear("fc", g, 2, &mut rng);
    let model = b.build();
    let engine = TraceEngine::new(&model);

    let images: Vec<Tensor> = (0..40)
        .map(|_| init::uniform(&mut rng, &[1, 6, 6], 0.0, 1.0))
        .collect();
    let opts = ExecOptions::sequential(7);
    let measurements = engine.measure_batch(&model, &images, opts.seed, &opts.parallelism);
    let mut per_class = vec![Vec::new(); 2];
    for (i, m) in measurements.iter().enumerate() {
        per_class[i % 2].push(m.sample);
    }
    let fit = |template: &OfflineTemplate| {
        Detector::fit(template, &DetectorConfig::default(), &opts.stage(1))
            .unwrap()
            .shifted(1.0e18)
    };
    let detector = fit(&OfflineTemplate::from_samples(per_class));
    let [a, b] = [measurements[0].sample, measurements[1].sample];
    let miscalibrated = fit(&OfflineTemplate::from_samples(vec![vec![a; 4], vec![b; 4]]));
    (model, engine, detector, miscalibrated)
}

/// A detector source whose first recalibration panics, as a faulty
/// extension would; later ones keep the current detector.
struct FaultySource {
    armed: AtomicBool,
}

impl DetectorSource for FaultySource {
    fn recalibrate(&self, _: &DriftObservation) -> Option<Detector> {
        assert!(
            !self.armed.swap(false, Ordering::SeqCst),
            "injected fault in recalibration"
        );
        None
    }
}

/// Submits `images` as requests `first..`, pipelined, and returns each
/// request's reply in submission order: `Ok(())` for a verdict, the
/// reject otherwise.
fn exchange(
    client: &mut MonitorClient,
    images: &[Tensor],
    first: u64,
) -> Vec<Result<(), (RejectCode, String)>> {
    for (i, image) in images.iter().enumerate() {
        let request = MonitorRequest::new(image.clone()).request_id(first + i as u64);
        client.submit(&request).unwrap();
    }
    let mut replies = vec![None; images.len()];
    for _ in images {
        let (corr, reply) = match client.recv_reply().unwrap() {
            ServerReply::Verdict(v) => (v.correlation_id, Ok(())),
            ServerReply::Rejected(r) => (r.correlation_id, Err((r.code, r.message))),
        };
        let slot = (corr.expect("replies echo the correlation id") - first) as usize;
        assert!(replies[slot].is_none(), "request {slot} answered twice");
        replies[slot] = Some(reply);
    }
    replies.into_iter().map(Option::unwrap).collect()
}

#[test]
fn a_panicking_batch_is_rejected_over_tcp_and_serving_continues() {
    let (model, engine, detector, miscalibrated) = fixture();
    let source = Arc::new(FaultySource {
        armed: AtomicBool::new(true),
    });
    let drift = DriftConfig {
        window: 8,
        slack: 0.25,
        threshold: 4.0,
    };
    let monitor = MonitorBuilder::new(ExecOptions::seeded(42).with_threads(THREADS))
        .queue_capacity(64)
        .micro_batch(MICRO_BATCH)
        .drift(drift)
        .detector_source(source as Arc<dyn DetectorSource>)
        .spawn(engine, model, detector)
        .unwrap();
    let server = WireServer::bind(monitor, "127.0.0.1:0").unwrap();
    let mut client = MonitorClient::connect(server.local_addr()).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let mut images = |n: usize| -> Vec<Tensor> {
        (0..n)
            .map(|_| init::uniform(&mut rng, &[1, 6, 6], 0.0, 1.0))
            .collect()
    };

    // Baseline traffic fills the drift window; nothing faults.
    let baseline = exchange(&mut client, &images(8), 0);
    assert!(baseline.iter().all(Result::is_ok), "{baseline:?}");

    // The miscalibrated deploy fires the drift test on the first request
    // scored under it, and the source panics inside that batch.
    server.monitor().swap_detector(miscalibrated);
    let replies = exchange(&mut client, &images(24), 100);
    let rejected: Vec<usize> = (0..replies.len())
        .filter(|&i| replies[i].is_err())
        .collect();
    assert!(
        !rejected.is_empty() && rejected.len() <= MICRO_BATCH,
        "one micro-batch is rejected: {replies:?}"
    );
    assert!(
        rejected.windows(2).all(|w| w[1] == w[0] + 1),
        "the rejected requests are one batch: {rejected:?}"
    );
    for i in &rejected {
        let (code, message) = replies[*i].clone().unwrap_err();
        assert_eq!(code, RejectCode::Internal);
        assert!(message.contains("injected fault"), "{message}");
    }
    assert!(
        replies[rejected[rejected.len() - 1] + 1..]
            .iter()
            .all(Result::is_ok),
        "every later request of the phase is served"
    );

    // The service keeps serving, with its whole crew.
    let after = exchange(&mut client, &images(8), 200);
    assert!(after.iter().all(Result::is_ok), "{after:?}");
    let monitor = server.monitor();
    assert_eq!(monitor.stats().faults, 1);
    assert_eq!(
        monitor.stats().completed,
        (8 + 24 + 8 - rejected.len()) as u64
    );
    let metrics = monitor.metrics_snapshot();
    assert_eq!(metrics.counter("advhunter_monitor_faults_total"), Some(1));
    let members = Parallelism::new(THREADS).crew_members() as u64;
    assert_eq!(
        metrics
            .gauge("advhunter_monitor_crew_members")
            .map(|(now, _)| now),
        Some(members),
        "the crew lost a member to the fault"
    );
    server.stop();
}
