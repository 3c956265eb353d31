//! The serving side as `advhunter serve` runs it, and the load generator
//! that drives it: one AHP1 connection, a sender and a receiver thread.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use advhunter::{ArtifactStore, ExecOptions, Parallelism, PipelineArtifacts, PipelineConfig};
use advhunter_monitor::{Monitor, MonitorBuilder, OverloadPolicy, WireServer};
use advhunter_runtime::parallel_map;
use advhunter_wire::{read_frame, Frame, WireVerdict};

use crate::corpus::Corpus;
use crate::trace::Tracer;

/// How long the generator waits for any one reply before declaring the
/// server stuck.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Boots an in-process monitor from a warm store with the `advhunter serve`
/// defaults: queue 64, micro-batch 8, blocking overload policy, a 50 ms
/// store watch, one exec thread per core.
pub fn spawn_monitor(
    config: &PipelineConfig,
    store: &ArtifactStore,
    exec_seed: u64,
) -> Result<Monitor, String> {
    MonitorBuilder::new(ExecOptions::new(exec_seed, Parallelism::available_cores()))
        .queue_capacity(64)
        .micro_batch(8)
        .overload(OverloadPolicy::Block)
        .watch_store(Duration::from_millis(50))
        .spawn_from_store(config.clone(), store.clone())
        .map_err(|e| format!("booting the monitor: {e}"))
}

/// One client connection; reads are buffered, writes go out one frame per
/// request.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("configuring the client socket: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cloning the client socket: {e}"))?,
        );
        Ok(Conn { stream, reader })
    }
}

fn send(mut stream: &TcpStream, bytes: &[u8]) -> Result<(), String> {
    stream
        .write_all(bytes)
        .map_err(|e| format!("sending a request: {e}"))
}

fn encode(frame: &Frame) -> Result<Vec<u8>, String> {
    frame.encode().map_err(|e| format!("encoding a frame: {e}"))
}

fn recv(reader: &mut BufReader<TcpStream>) -> Result<Frame, String> {
    read_frame(reader)
        .map_err(|e| format!("waiting for a reply: {e}"))?
        .ok_or_else(|| "the server hung up".to_string())
}

/// Boots the monitor and its TCP front end from the warm store and gets
/// the first verdict back; returns the server, the connection and the
/// seconds from `spawn_from_store` to that verdict.
pub fn boot(
    config: &PipelineConfig,
    store: &ArtifactStore,
    exec_seed: u64,
    corpus: &Corpus,
) -> Result<(WireServer, Conn, f64), String> {
    let start = Instant::now();
    let monitor = spawn_monitor(config, store, exec_seed)?;
    let server = WireServer::bind(monitor, "127.0.0.1:0")
        .map_err(|e| format!("binding the wire server: {e}"))?;
    let mut conn = Conn::connect(server.local_addr())?;
    send(&conn.stream, &encode(&Frame::Request(corpus.request(0)))?)?;
    match recv(&mut conn.reader)? {
        Frame::Verdict(_) => Ok((server, conn, start.elapsed().as_secs_f64())),
        other => Err(format!(
            "first reply after boot was not a verdict: {other:?}"
        )),
    }
}

/// What one load phase sent and got back.
#[derive(Debug, Default)]
pub struct Phase {
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
    /// Per verdict, from the moment the request was due (open loop) — so a
    /// stall also charges the requests queued behind it — or was sent
    /// (closed loop).
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each request (open loop).
    pub late_ms: Vec<f64>,
    /// Verdicts per second received inside the phase window (closed loop).
    pub throughput: f64,
    pub adv_seen: u64,
    pub adv_flagged: u64,
    pub clean_seen: u64,
    pub clean_flagged: u64,
    /// Verdicts kept for the reference check, with their sequence numbers.
    pub kept: Vec<(u64, WireVerdict)>,
}

impl Phase {
    /// Tallies one reply: a verdict's flag counts against its request's
    /// kind, and the verdict is kept for the reference check when its
    /// sequence number satisfies `keep`. Returns that sequence number.
    fn reply(
        &mut self,
        frame: Frame,
        corpus: &Corpus,
        keep: &dyn Fn(u64) -> bool,
    ) -> Result<Option<u64>, String> {
        match frame {
            Frame::Verdict(v) => {
                self.succeeded += 1;
                let seq = v
                    .correlation_id
                    .ok_or("a verdict lost its correlation id")?;
                let (seen, flagged) = if corpus.item(seq).adversarial {
                    (&mut self.adv_seen, &mut self.adv_flagged)
                } else {
                    (&mut self.clean_seen, &mut self.clean_flagged)
                };
                *seen += 1;
                *flagged += u64::from(v.flagged);
                if keep(seq) {
                    self.kept.push((seq, v));
                }
                Ok(Some(seq))
            }
            Frame::Reject(r) => {
                eprintln!("advbench: request rejected: {:?} {}", r.code, r.message);
                self.failed += 1;
                Ok(None)
            }
            other => Err(format!("unexpected frame from the server: {other:?}")),
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Open loop: `rate` requests per second for `secs`, on schedule whatever
/// the replies do. Sequence numbers start at `first_seq`; verdicts whose
/// sequence number satisfies `keep` are returned for the reference check.
pub fn open_loop(
    conn: &mut Conn,
    corpus: &Corpus,
    rate: f64,
    secs: f64,
    first_seq: u64,
    keep: &(dyn Fn(u64) -> bool + Sync),
    tracer: Option<&Tracer>,
) -> Result<Phase, String> {
    let n = (rate * secs).round() as u64;
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: u64| start + Duration::from_secs_f64(i as f64 / rate);
    let Conn { stream, reader } = conn;
    let stream = &*stream;
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> Result<Vec<f64>, String> {
            let mut late = Vec::with_capacity(n as usize);
            for i in 0..n {
                let due_i = due(i);
                let now = Instant::now();
                if now < due_i {
                    std::thread::sleep(due_i - now);
                }
                let woke = Instant::now();
                late.push(ms(woke.saturating_duration_since(due_i)));
                let seq = first_seq + i;
                let bytes = encode(&Frame::Request(corpus.request(seq)))?;
                let encoded = Instant::now();
                send(stream, &bytes)?;
                if let Some(t) = tracer {
                    let written = Instant::now();
                    t.record("client.wait", Some("request"), Some(seq), due_i, woke);
                    t.record("client.encode", Some("request"), Some(seq), woke, encoded);
                    t.record("client.write", Some("request"), Some(seq), encoded, written);
                }
            }
            Ok(late)
        });
        let mut phase = Phase {
            sent: n,
            ..Phase::default()
        };
        for _ in 0..n {
            let frame = recv(reader)?;
            let now = Instant::now();
            if let Some(seq) = phase.reply(frame, corpus, keep)? {
                let due_i = due(seq - first_seq);
                phase
                    .latency_ms
                    .push(ms(now.saturating_duration_since(due_i)));
                if let Some(t) = tracer {
                    t.record("request", None, Some(seq), due_i, now);
                }
            }
        }
        phase.late_ms = sender.join().expect("sender thread panicked")?;
        Ok(phase)
    })
}

/// Closed loop: keeps `outstanding` requests in flight for `secs`;
/// `throughput` counts the verdicts that arrived inside the window over
/// the time from the first send to the last of them, and `latency_ms`
/// holds their times from send to verdict. Verdicts whose sequence number
/// satisfies `keep` are returned for the reference check.
pub fn closed_loop(
    conn: &mut Conn,
    corpus: &Corpus,
    outstanding: usize,
    secs: f64,
    first_seq: u64,
    keep: &dyn Fn(u64) -> bool,
) -> Result<Phase, String> {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let (token_tx, token_rx) = mpsc::channel::<()>();
    for _ in 0..outstanding {
        token_tx.send(()).expect("receiver alive");
    }
    let (sent_tx, sent_rx) = mpsc::channel::<(u64, Instant)>();
    let sent_total = AtomicU64::new(u64::MAX);
    let Conn { stream, reader } = conn;
    let stream = &*stream;
    std::thread::scope(|s| {
        let sent_total = &sent_total;
        let sender = s.spawn(move || -> Result<(), String> {
            let mut sent = 0u64;
            while Instant::now() < end {
                token_rx
                    .recv_timeout(REPLY_TIMEOUT)
                    .map_err(|_| "no reply freed a request slot")?;
                if Instant::now() >= end {
                    break;
                }
                let seq = first_seq + sent;
                let bytes = encode(&Frame::Request(corpus.request(seq)))?;
                // Registered before the write, so the send time is known
                // by the time the verdict can arrive.
                let _ = sent_tx.send((seq, Instant::now()));
                send(stream, &bytes)?;
                sent += 1;
            }
            // The count is final before the marker goes out, so the
            // receiver knows how many replies to wait for once it sees the
            // marker's answer.
            sent_total.store(sent, Ordering::SeqCst);
            send(stream, &encode(&Frame::StatsRequest)?)
        });
        let mut phase = Phase::default();
        let mut marker_seen = false;
        let (mut in_window, mut last) = (0u64, start);
        let mut sent_at = HashMap::new();
        while !(marker_seen && phase.succeeded + phase.failed == sent_total.load(Ordering::SeqCst))
        {
            let frame = recv(reader)?;
            if let Frame::Stats(_) = frame {
                marker_seen = true;
                continue;
            }
            let now = Instant::now();
            sent_at.extend(sent_rx.try_iter());
            if let Some(seq) = phase.reply(frame, corpus, keep)? {
                let sent = sent_at.remove(&seq);
                if now <= end {
                    in_window += 1;
                    last = now;
                    if let Some(sent) = sent {
                        phase.latency_ms.push(ms(now - sent));
                    }
                }
            }
            // The sender stops taking slots once the window closes.
            let _ = token_tx.send(());
        }
        sender.join().expect("sender thread panicked")?;
        phase.sent = sent_total.load(Ordering::SeqCst);
        phase.throughput = in_window as f64 / (last - start).as_secs_f64().max(1e-9);
        Ok(phase)
    })
}

/// Submits request `seq`; on failure closes the monitor, so the receiving
/// side sees the stream end instead of waiting for verdicts forever.
fn submit(monitor: &Monitor, corpus: &Corpus, seq: u64) -> Result<(), String> {
    monitor.submit(corpus.request(seq)).map(drop).map_err(|e| {
        monitor.close();
        format!("in-process submit: {e}")
    })
}

/// In-process open loop: `submit` → `recv` on the monitor itself at
/// `rate`; returns each verdict's sojourn from its due time, in ms.
pub fn inprocess_open(
    monitor: &Monitor,
    corpus: &Corpus,
    rate: f64,
    secs: f64,
    first_seq: u64,
    tracer: Option<&Tracer>,
) -> Result<Vec<f64>, String> {
    let n = (rate * secs).round() as u64;
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: u64| start + Duration::from_secs_f64(i as f64 / rate);
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> Result<(), String> {
            for i in 0..n {
                let now = Instant::now();
                if now < due(i) {
                    std::thread::sleep(due(i) - now);
                }
                submit(monitor, corpus, first_seq + i)?;
            }
            Ok(())
        });
        let mut sojourn = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let v = monitor.recv().ok_or("the monitor closed mid-phase")?;
            let now = Instant::now();
            let seq = v
                .correlation_id
                .ok_or("a verdict lost its correlation id")?;
            let due_i = due(seq - first_seq);
            sojourn.push(ms(now.saturating_duration_since(due_i)));
            if let Some(t) = tracer {
                t.record("monitor.sojourn", None, Some(seq), due_i, now);
            }
        }
        sender.join().expect("sender thread panicked")?;
        Ok(sojourn)
    })
}

/// Submits `n` requests as fast as the blocking queue admits them and
/// drains the verdicts: the monitor at saturation.
pub fn inprocess_burst(
    monitor: &Monitor,
    corpus: &Corpus,
    n: u64,
    first_seq: u64,
) -> Result<(), String> {
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> Result<(), String> {
            for i in 0..n {
                submit(monitor, corpus, first_seq + i)?;
            }
            Ok(())
        });
        for _ in 0..n {
            monitor.recv().ok_or("the monitor closed mid-phase")?;
        }
        sender.join().expect("sender thread panicked")
    })
}

/// The correctness gate: every kept verdict must equal, bit for bit, the
/// verdict recomputed from the same image, exec seed and admission id with
/// `TraceEngine::measure_indexed` + `Detector::evaluate`. Returns the
/// number checked.
pub fn verify(
    art: &PipelineArtifacts,
    corpus: &Corpus,
    exec_seed: u64,
    kept: &[(u64, WireVerdict)],
) -> Result<u64, String> {
    let mismatches: Vec<String> =
        parallel_map(&Parallelism::available_cores(), kept, |_, (seq, v)| {
            let m = art.engine.measure_indexed(
                &art.model,
                &corpus.item(*seq).image,
                exec_seed,
                v.request_id,
            );
            let reference = art.detector.evaluate(m.predicted, &m.sample);
            let scores_match = v.verdict.scores().len() == reference.scores().len()
                && v.verdict
                    .scores()
                    .iter()
                    .zip(reference.scores())
                    .all(|(a, b)| {
                        a.event == b.event
                            && a.nll.to_bits() == b.nll.to_bits()
                            && a.threshold.to_bits() == b.threshold.to_bits()
                    });
            let same = scores_match
                && v.config_epoch == 0
                && v.verdict.predicted() == reference.predicted()
                && v.hpc_anomalous == reference.flagged_any()
                && v.flagged == reference.flagged_any();
            (!same).then(|| format!("request {seq} (admission id {})", v.request_id))
        })
        .into_iter()
        .flatten()
        .collect();
    if mismatches.is_empty() {
        Ok(kept.len() as u64)
    } else {
        Err(format!(
            "{} of {} verdicts differ from the reference, first: {}",
            mismatches.len(),
            kept.len(),
            mismatches[0]
        ))
    }
}
