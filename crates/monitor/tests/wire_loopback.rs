//! Loopback tests over the TCP front-end: the wire path reuses
//! `Monitor::submit` verbatim, so remote verdicts must be bit-identical
//! to in-process ones at every thread count, concurrent clients
//! multiplex cleanly onto one queue, and overload/control frames behave
//! as typed protocol events.

use advhunter::{Detector, DetectorConfig, ExecOptions, OfflineTemplate, Verdict};
use advhunter_exec::TraceEngine;
use advhunter_monitor::{ControlAccess, MonitorBuilder, OverloadPolicy, WireServer};
use advhunter_nn::{Graph, GraphBuilder};
use advhunter_tensor::{init, Tensor};
use advhunter_wire::{
    ControlOp, MonitorClient, MonitorRequest, RejectCode, ServerReply, WireError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The same seeded fixture as the service tests: a tiny 2-class CNN, a
/// detector fitted on toy measurements, and a query stream.
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

type Outcome = (u64, Verdict, bool, u64);

/// The in-process path: submit everything, collect `(id, verdict,
/// flagged, epoch)` in admission order.
fn library_stream(stream: &[Tensor], threads: usize) -> Vec<Outcome> {
    let (model, engine, detector, _) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::seeded(42).with_threads(threads))
        .queue_capacity(stream.len().max(1))
        .micro_batch(4)
        .spawn(engine, model, detector)
        .unwrap();
    for image in stream {
        monitor.submit(image.clone()).unwrap();
    }
    monitor.close();
    let mut out = Vec::new();
    while let Some(v) = monitor.recv() {
        out.push((v.request_id, v.verdict, v.flagged, v.config_epoch));
    }
    out
}

/// The wire path: the same monitor configuration behind a TCP server,
/// driven by a pipelined client over loopback.
fn wire_stream(stream: &[Tensor], threads: usize) -> Vec<Outcome> {
    let (model, engine, detector, _) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::seeded(42).with_threads(threads))
        .queue_capacity(stream.len().max(1))
        .micro_batch(4)
        .spawn(engine, model, detector)
        .unwrap();
    let server = WireServer::bind(monitor, "127.0.0.1:0").unwrap();
    let mut client = MonitorClient::connect(server.local_addr()).unwrap();
    for (i, image) in stream.iter().enumerate() {
        client
            .submit(&MonitorRequest::new(image.clone()).request_id(i as u64))
            .unwrap();
    }
    let mut out = Vec::new();
    for _ in 0..stream.len() {
        match client.recv_reply().unwrap() {
            ServerReply::Verdict(v) => {
                // One pipelined client: admission order is submission
                // order, so the echoed correlation id must match.
                assert_eq!(v.correlation_id, Some(v.request_id));
                out.push((v.request_id, v.verdict, v.flagged, v.config_epoch));
            }
            ServerReply::Rejected(r) => panic!("unexpected reject: {r:?}"),
        }
    }
    server.stop();
    out
}

/// The tentpole equivalence: verdicts that crossed the wire are
/// bit-identical (per-event NLLs, thresholds, prediction, flag, epoch)
/// to the library path, at 1, 2, and 4 worker threads.
#[test]
fn wire_verdicts_are_bit_identical_to_library_path() {
    let (_, _, _, stream) = fixture();
    for threads in [1usize, 2, 4] {
        let library = library_stream(&stream, threads);
        let wire = wire_stream(&stream, threads);
        assert_eq!(library.len(), stream.len());
        assert_eq!(library, wire, "wire path diverged at {threads} threads");
    }
}

/// Several concurrent clients share one monitor; each gets exactly its
/// own verdicts back, matched by correlation id.
#[test]
fn concurrent_clients_multiplex_onto_one_monitor() {
    const CLIENTS: u64 = 3;
    const PER_CLIENT: u64 = 6;
    let (model, engine, detector, stream) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::seeded(42).with_threads(2))
        .queue_capacity(64)
        .micro_batch(4)
        .spawn(engine, model, detector)
        .unwrap();
    let server = WireServer::bind(monitor, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let images: Vec<Tensor> = stream.iter().take(PER_CLIENT as usize).cloned().collect();
            std::thread::spawn(move || {
                let mut client = MonitorClient::connect(addr).unwrap();
                for (i, image) in images.into_iter().enumerate() {
                    let corr = c * 100 + i as u64;
                    client
                        .submit(&MonitorRequest::new(image).tenant(c).request_id(corr))
                        .unwrap();
                }
                let mut corrs = Vec::new();
                for _ in 0..PER_CLIENT {
                    match client.recv_reply().unwrap() {
                        ServerReply::Verdict(v) => {
                            assert_eq!(v.tenant, c, "verdict routed to the wrong client");
                            corrs.push(v.correlation_id.unwrap());
                        }
                        ServerReply::Rejected(r) => panic!("unexpected reject: {r:?}"),
                    }
                }
                corrs
            })
        })
        .collect();
    for (c, worker) in workers.into_iter().enumerate() {
        let expected: Vec<u64> = (0..PER_CLIENT).map(|i| c as u64 * 100 + i).collect();
        assert_eq!(worker.join().unwrap(), expected);
    }
    let stats = server.stop();
    assert_eq!(stats.submitted, CLIENTS * PER_CLIENT);
    assert_eq!(stats.completed, CLIENTS * PER_CLIENT);
    assert_eq!(stats.shed, 0);
}

/// Under the shed policy a full queue turns into typed `Overloaded`
/// reject frames echoing the caller's correlation id — the library
/// error, faithfully on the wire.
#[test]
fn shed_overload_maps_to_reject_frames() {
    let (model, engine, detector, stream) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::sequential(1))
        .queue_capacity(2)
        .micro_batch(2)
        .overload(OverloadPolicy::Shed)
        .spawn(engine, model, detector)
        .unwrap();
    let server = WireServer::bind(monitor, "127.0.0.1:0").unwrap();
    // Hold the worker so admission is deterministic: 2 fit, 3 shed.
    server.monitor().pause();
    let mut client = MonitorClient::connect(server.local_addr()).unwrap();
    for (i, image) in stream.iter().take(5).enumerate() {
        client
            .submit(&MonitorRequest::new(image.clone()).request_id(i as u64))
            .unwrap();
    }
    let mut verdicts = Vec::new();
    let mut rejected = Vec::new();
    for _ in 0..5 {
        // Rejects arrive immediately; verdicts only after resume. Poke
        // the worker awake once the rejects are accounted for.
        if rejected.len() == 3 && verdicts.is_empty() {
            server.monitor().resume();
        }
        match client.recv_reply().unwrap() {
            ServerReply::Verdict(v) => verdicts.push(v.correlation_id.unwrap()),
            ServerReply::Rejected(r) => {
                assert_eq!(r.code, RejectCode::Overloaded);
                rejected.push(r.correlation_id.unwrap());
            }
        }
    }
    assert_eq!(rejected, vec![2, 3, 4], "the last three submissions shed");
    assert_eq!(verdicts, vec![0, 1]);
    let stats = server.stop();
    assert_eq!(stats.shed, 3);
    assert_eq!(stats.completed, 2);
}

/// A wire-valid request whose image shape does not match the served
/// model is answered with a typed `BadRequest` reject — the shared
/// worker never sees it, so the service keeps scoring for everyone
/// (one hostile frame must not be a remote denial of service).
#[test]
fn mismatched_shape_is_a_typed_reject_not_a_crash() {
    let (model, engine, detector, stream) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::sequential(3))
        .micro_batch(2)
        .spawn(engine, model, detector)
        .unwrap();
    let server = WireServer::bind(monitor, "127.0.0.1:0").unwrap();
    let mut client = MonitorClient::connect(server.local_addr()).unwrap();

    // Wrong channel count, wrong rank, and a zero-sized dim — all
    // decode fine on the wire, none may reach the worker.
    for (i, dims) in [&[2usize, 6, 6][..], &[6, 6], &[1, 6, 0]]
        .iter()
        .enumerate()
    {
        let bad = Tensor::zeros(dims);
        client
            .submit(&MonitorRequest::new(bad).request_id(100 + i as u64))
            .unwrap();
        match client.recv_reply().unwrap() {
            ServerReply::Rejected(r) => {
                assert_eq!(r.code, RejectCode::BadRequest);
                assert_eq!(r.correlation_id, Some(100 + i as u64));
                assert!(r.message.contains("[1, 6, 6]"), "names the expected shape");
            }
            ServerReply::Verdict(v) => panic!("bad shape was scored: {v:?}"),
        }
    }
    // The worker survived: a well-formed request still gets its verdict.
    client
        .submit(&MonitorRequest::new(stream[0].clone()).request_id(7))
        .unwrap();
    match client.recv_reply().unwrap() {
        ServerReply::Verdict(v) => assert_eq!(v.correlation_id, Some(7)),
        ServerReply::Rejected(r) => panic!("valid request rejected: {r:?}"),
    }
    let stats = server.stop();
    assert_eq!(stats.submitted, 1, "rejected shapes were never admitted");
    assert_eq!(stats.completed, 1);
}

/// A request whose image holds a NaN or infinite pixel is answered with a
/// typed `BadRequest` reject, like a bad shape, and never reaches the
/// worker.
#[test]
fn non_finite_pixels_are_a_typed_reject() {
    let (model, engine, detector, stream) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::sequential(3))
        .micro_batch(2)
        .spawn(engine, model, detector)
        .unwrap();
    let server = WireServer::bind(monitor, "127.0.0.1:0").unwrap();
    let mut client = MonitorClient::connect(server.local_addr()).unwrap();

    for (i, bad) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
        .into_iter()
        .enumerate()
    {
        let mut image = stream[1].clone();
        image.data_mut()[i] = bad;
        client
            .submit(&MonitorRequest::new(image).request_id(200 + i as u64))
            .unwrap();
        match client.recv_reply().unwrap() {
            ServerReply::Rejected(r) => {
                assert_eq!(r.code, RejectCode::BadRequest);
                assert_eq!(r.correlation_id, Some(200 + i as u64));
                assert!(r.message.contains("NaN or infinite"), "{}", r.message);
            }
            ServerReply::Verdict(v) => panic!("non-finite image was scored: {v:?}"),
        }
    }
    client
        .submit(&MonitorRequest::new(stream[0].clone()).request_id(9))
        .unwrap();
    match client.recv_reply().unwrap() {
        ServerReply::Verdict(v) => assert_eq!(v.correlation_id, Some(9)),
        ServerReply::Rejected(r) => panic!("valid request rejected: {r:?}"),
    }
    let stats = server.stop();
    assert_eq!(stats.submitted, 1, "non-finite images were never admitted");
    assert_eq!(stats.completed, 1);
}

/// Under `ControlAccess::Deny` a control frame comes back as a typed
/// `Denied` reject (surfaced as `WireError::Refused` by the client) and
/// the connection stays fully usable for scoring.
#[test]
fn denied_control_ops_do_not_steer_or_kill_the_connection() {
    let (model, engine, detector, stream) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::sequential(3))
        .micro_batch(2)
        .spawn(engine, model, detector)
        .unwrap();
    let server = WireServer::bind_with(monitor, "127.0.0.1:0", ControlAccess::Deny).unwrap();
    let mut client = MonitorClient::connect(server.local_addr()).unwrap();

    for op in [ControlOp::Pause, ControlOp::Shutdown] {
        match client.control(op) {
            Err(WireError::Refused(r)) => assert_eq!(r.code, RejectCode::Denied),
            other => panic!("denied control op returned {other:?}"),
        }
    }
    // The denied Pause did not pause and the denied Shutdown did not set
    // the shutdown flag: requests still score.
    client
        .submit(&MonitorRequest::new(stream[0].clone()).request_id(1))
        .unwrap();
    match client.recv_reply().unwrap() {
        ServerReply::Verdict(v) => assert_eq!(v.correlation_id, Some(1)),
        ServerReply::Rejected(r) => panic!("submission rejected after denial: {r:?}"),
    }
    let stats = server.stop();
    assert_eq!(stats.completed, 1);
}

/// Disconnected clients release their socket immediately and their
/// bookkeeping at the acceptor's next sweep — a long-running server does
/// not accumulate one fd plus dead thread handles per past client.
#[test]
fn disconnected_clients_are_reaped() {
    use std::time::{Duration, Instant};

    let (model, engine, detector, stream) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::sequential(3))
        .micro_batch(2)
        .spawn(engine, model, detector)
        .unwrap();
    let server = WireServer::bind(monitor, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // A burst of short-lived clients, each scoring one request.
    for i in 0..8u64 {
        let mut client = MonitorClient::connect(addr).unwrap();
        client
            .submit(&MonitorRequest::new(stream[0].clone()).request_id(i))
            .unwrap();
        assert!(matches!(
            client.recv_reply().unwrap(),
            ServerReply::Verdict(_)
        ));
    }
    // Each new accept sweeps finished connections; poll with fresh
    // probes until the burst is gone (readers exit asynchronously after
    // the client side hangs up).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        {
            let mut probe = MonitorClient::connect(addr).unwrap();
            probe.stats().unwrap();
        }
        // At most the probe itself plus one just-dropped predecessor.
        if server.connections() <= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "dead connections were never reaped ({} tracked)",
            server.connections()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = server.stop();
    assert_eq!(stats.completed, 8);
}

/// Stats and control frames round-trip, and a client-sent shutdown wakes
/// the server owner out of `wait_for_shutdown`.
#[test]
fn stats_and_control_round_trip() {
    let (model, engine, detector, stream) = fixture();
    let monitor = MonitorBuilder::new(ExecOptions::sequential(3))
        .micro_batch(2)
        .spawn(engine, model, detector)
        .unwrap();
    let server = WireServer::bind(monitor, "127.0.0.1:0").unwrap();
    let mut client = MonitorClient::connect(server.local_addr()).unwrap();

    for image in stream.iter().take(4) {
        client.submit(&MonitorRequest::new(image.clone())).unwrap();
    }
    for _ in 0..4 {
        match client.recv_reply().unwrap() {
            ServerReply::Verdict(v) => assert_eq!(v.correlation_id, None),
            ServerReply::Rejected(r) => panic!("unexpected reject: {r:?}"),
        }
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.config_epoch, 0);

    assert_eq!(client.control(ControlOp::Pause).unwrap(), 0);
    assert_eq!(client.control(ControlOp::Resume).unwrap(), 0);
    assert_eq!(client.control(ControlOp::Shutdown).unwrap(), 0);
    // The shutdown control only sets the flag; the owner tears down.
    server.wait_for_shutdown();
    let final_stats = server.stop();
    assert_eq!(final_stats.completed, 4);
    assert_eq!(final_stats.drained, 0, "nothing was queued at shutdown");
}
