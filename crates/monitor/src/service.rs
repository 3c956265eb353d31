//! The monitor service itself: queue → micro-batch → scored verdicts,
//! with zero-downtime detector hot-swap and drift-driven recalibration.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use advhunter::{Detector, Verdict};
use advhunter_exec::TraceEngine;
use advhunter_fingerprint::{FingerprintStore, MatchReport, TenantId};
use advhunter_nn::Graph;
use advhunter_runtime::parallel_map_with;
use advhunter_tensor::Tensor;
use advhunter_wire::MonitorRequest;

use crate::config::{MonitorConfig, MonitorConfigError, OverloadPolicy};
use crate::drift::{DetectorSource, DriftTracker};
use crate::queue::{BoundedQueue, PushError};
use crate::stats::{MonitorStats, StatsSnapshot};

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue was full and the monitor runs the
    /// [`OverloadPolicy::Shed`] policy.
    Overloaded,
    /// The monitor has been closed.
    Closed,
    /// The request image's shape does not match the served model's input
    /// shape ([`Monitor::input_dims`]). Checked before admission, so a
    /// bad request never reaches the worker — the wire path depends on
    /// this to keep one hostile frame from stalling every client.
    ShapeMismatch,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Overloaded => write!(f, "monitor queue is full (request shed)"),
            Self::Closed => write!(f, "monitor is closed"),
            Self::ShapeMismatch => write!(f, "image shape does not match the model input"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Observational timings of one request's trip through the service.
///
/// Telemetry never feeds back into measurement or scoring, so it varies
/// run to run while the [`Verdict`] stays bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTelemetry {
    /// Queue depth right after this request was admitted.
    pub depth_at_admission: usize,
    /// Size of the micro-batch this request was coalesced into.
    pub batch_size: usize,
    /// Time spent queued before its micro-batch started measuring.
    pub queued: Duration,
    /// Wall time of the micro-batch's measurement stage.
    pub measure: Duration,
    /// Wall time of the micro-batch's scoring stage.
    pub score: Duration,
}

/// One request's complete outcome: id, deterministic fused verdict,
/// telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorVerdict {
    /// The admission-order id returned by [`Monitor::submit`].
    pub request_id: u64,
    /// The caller's correlation id, echoed verbatim from
    /// [`MonitorRequest::request_id`]. `None` when the caller did not set
    /// one.
    pub correlation_id: Option<u64>,
    /// The tenant the request was submitted under
    /// ([`FingerprintStore::DEFAULT_TENANT`] unless the request set one).
    pub tenant: TenantId,
    /// The detector configuration epoch this request was scored under.
    /// Starts at 0 and bumps by one per hot-swap, so a reader can tell
    /// exactly which verdicts the old and the new detector produced.
    pub config_epoch: u64,
    /// The hard-label prediction and per-event scores. Deterministic: a
    /// pure function of `(image, exec.seed, request_id)` and the detector
    /// of `config_epoch`.
    pub verdict: Verdict,
    /// The per-query HPC signal: [`Verdict::flagged_any`].
    pub hpc_anomalous: bool,
    /// The cross-query signal: the query's fingerprint overlapped a
    /// recent fingerprint of the same tenant beyond the match threshold.
    /// Always `false` while the fingerprint stage is disabled, the store
    /// shed the tenant, or this was the tenant's first sighting of the
    /// content.
    pub query_correlated: bool,
    /// The full fingerprint match report, when the stage is enabled.
    /// Deterministic: a pure function of the configuration and the
    /// admission-ordered `(tenant, image)` stream.
    pub fingerprint: Option<MatchReport>,
    /// The fused headline per the configured
    /// [`FusionPolicy`](crate::FusionPolicy):
    /// `fusion.fuse(hpc_anomalous, query_correlated)`.
    pub flagged: bool,
    /// Observational timings (not deterministic).
    pub telemetry: RequestTelemetry,
}

struct Request {
    id: u64,
    correlation: Option<u64>,
    tenant: TenantId,
    image: Tensor,
    admitted_at: Instant,
    depth_at_admission: usize,
}

/// The currently-installed detector and its epoch, swapped atomically
/// under one lock.
struct DetectorState {
    detector: Arc<Detector>,
    epoch: u64,
}

/// Close/stop signal shared with the store-watcher thread.
struct StopSignal {
    stopped: Mutex<bool>,
    cv: Condvar,
}

impl StopSignal {
    fn new() -> Self {
        Self {
            stopped: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn signal(&self) {
        *self.stopped.lock().expect("stop signal poisoned") = true;
        self.cv.notify_all();
    }

    /// Sleeps up to `timeout`; returns `true` once stopped.
    fn wait(&self, timeout: Duration) -> bool {
        let guard = self.stopped.lock().expect("stop signal poisoned");
        if *guard {
            return true;
        }
        let (guard, _) = self
            .cv
            .wait_timeout(guard, timeout)
            .expect("stop signal poisoned");
        *guard
    }
}

struct Shared {
    engine: TraceEngine,
    model: Graph,
    detector: Mutex<DetectorState>,
    source: Option<Arc<dyn DetectorSource>>,
    config: MonitorConfig,
    queue: BoundedQueue<Request>,
    stats: MonitorStats,
    stop: StopSignal,
}

/// Installs `detector` as the live one, bumping the epoch. Returns the
/// new `(detector, epoch)` pair for callers that score with it directly.
fn install_detector(shared: &Shared, detector: Detector) -> (Arc<Detector>, u64) {
    let mut state = shared.detector.lock().expect("detector state poisoned");
    state.epoch += 1;
    state.detector = Arc::new(detector);
    shared.stats.record_swap(state.epoch);
    (Arc::clone(&state.detector), state.epoch)
}

/// A long-lived online detection service.
///
/// The monitor owns an instrumented-inference engine, a model, and a
/// fitted [`Detector`]. Requests enter through a bounded queue
/// ([`submit`](Self::submit)), a worker thread coalesces them into
/// micro-batches, fans the trace measurements out over the
/// `advhunter-runtime` worker pool, scores each measurement under the
/// predicted category's models, and delivers one [`MonitorVerdict`] per
/// request through [`recv`](Self::recv) in admission order.
///
/// Build one with [`MonitorBuilder`](crate::MonitorBuilder).
///
/// # Determinism
///
/// Request `i` (ids count admissions) is measured via the engine's
/// indexed noise stream `derive_seed(config.exec.seed, i)` and scored by
/// pure functions; the fingerprint stage runs sequentially in admission
/// order inside the worker. The fused
/// `(request_id, verdict, query_correlated, flagged)` stream is therefore
/// bit-identical for every `ADVHUNTER_THREADS` setting and every way the
/// same images are batched into submissions. Only the telemetry varies.
///
/// # Hot-swap
///
/// The live detector sits behind one lock the worker touches twice per
/// micro-batch. [`swap_detector`](Self::swap_detector) (or the store
/// watcher, see [`MonitorBuilder::watch_store`](crate::MonitorBuilder))
/// replaces it between micro-batches without dropping a single queued
/// request; every verdict carries the `config_epoch` it was scored under.
/// Drift-driven swaps (see [`DriftConfig`](crate::DriftConfig)) take
/// effect at the exact next request in admission order, so they are
/// reproducible across thread counts and batch shapes.
///
/// # Overload
///
/// The queue is bounded by `config.queue_capacity`. When it is full,
/// [`OverloadPolicy::Shed`] makes `submit` fail fast with
/// [`SubmitError::Overloaded`] (counted in
/// [`StatsSnapshot::shed`]); [`OverloadPolicy::Block`] parks the
/// submitting thread until a slot frees.
pub struct Monitor {
    shared: Arc<Shared>,
    verdicts: Mutex<Receiver<MonitorVerdict>>,
    worker: Option<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
}

impl Monitor {
    pub(crate) fn spawn_inner(
        engine: TraceEngine,
        model: Graph,
        detector: Detector,
        config: MonitorConfig,
        source: Option<Arc<dyn DetectorSource>>,
        watch_poll: Option<Duration>,
    ) -> Result<Self, MonitorConfigError> {
        config.validate()?;
        let num_classes = detector.num_classes();
        let shared = Arc::new(Shared {
            engine,
            model,
            detector: Mutex::new(DetectorState {
                detector: Arc::new(detector),
                epoch: 0,
            }),
            source,
            config,
            queue: BoundedQueue::new(config.queue_capacity),
            stats: MonitorStats::new(num_classes),
            stop: StopSignal::new(),
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("advhunter-monitor".into())
            .spawn(move || worker_loop(&worker_shared, &tx))
            .expect("failed to spawn monitor worker thread");
        let watcher = match (watch_poll, shared.source.is_some()) {
            (Some(poll), true) => {
                let watcher_shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("advhunter-watcher".into())
                        .spawn(move || watcher_loop(&watcher_shared, poll))
                        .expect("failed to spawn monitor watcher thread"),
                )
            }
            _ => None,
        };
        Ok(Self {
            shared,
            verdicts: Mutex::new(rx),
            worker: Some(worker),
            watcher,
        })
    }

    /// Submits one request for screening and returns its admission-order
    /// id. Accepts anything convertible into a [`MonitorRequest`] — a
    /// bare [`Tensor`] submits under the default tenant with no
    /// correlation id:
    ///
    /// ```ignore
    /// monitor.submit(image.clone())?;                           // simplest
    /// monitor.submit(MonitorRequest::new(image).tenant(7))?;    // full form
    /// ```
    ///
    /// Tenants are fully isolated in the fingerprint stage: a query only
    /// ever matches the *same* tenant's recent history, so one client's
    /// attack campaign cannot flag (or mask) another's traffic.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShapeMismatch`] when the image's shape is not the
    /// model's input shape; [`SubmitError::Overloaded`] when the queue is
    /// full under the shed policy; [`SubmitError::Closed`] after
    /// [`close`](Self::close).
    pub fn submit(&self, request: impl Into<MonitorRequest>) -> Result<u64, SubmitError> {
        let request = request.into();
        if request.image.shape().dims() != self.shared.model.input_dims() {
            return Err(SubmitError::ShapeMismatch);
        }
        let MonitorRequest {
            image,
            tenant,
            request_id,
        } = request;
        let make = |id, depth_at_admission| Request {
            id,
            correlation: request_id,
            tenant,
            image,
            admitted_at: Instant::now(),
            depth_at_admission,
        };
        let pushed = match self.shared.config.overload {
            OverloadPolicy::Shed => self.shared.queue.try_push_with(make),
            OverloadPolicy::Block => self.shared.queue.push_with(make),
        };
        match pushed {
            Ok(p) => {
                if p.blocked {
                    self.shared.stats.record_blocked();
                }
                self.shared.stats.record_submitted(p.depth);
                Ok(p.id)
            }
            Err(PushError::Full) => {
                self.shared.stats.record_shed();
                Err(SubmitError::Overloaded)
            }
            Err(PushError::Closed) => Err(SubmitError::Closed),
        }
    }

    /// Blocks until the next verdict is available. Returns `None` once
    /// the monitor is closed and every admitted request has been
    /// delivered.
    pub fn recv(&self) -> Option<MonitorVerdict> {
        self.verdicts
            .lock()
            .expect("verdict receiver poisoned")
            .recv()
            .ok()
    }

    /// Returns the next verdict if one is ready, without blocking, or
    /// `None` otherwise (including after the stream has ended).
    pub fn try_recv(&self) -> Option<MonitorVerdict> {
        self.verdicts
            .lock()
            .expect("verdict receiver poisoned")
            .try_recv()
            .ok()
    }

    /// Current queue depth (requests admitted but not yet measured).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// The served model's input shape — the shape every submitted image
    /// must have (see [`SubmitError::ShapeMismatch`]).
    pub fn input_dims(&self) -> &[usize] {
        self.shared.model.input_dims()
    }

    /// The current detector configuration epoch (0 until the first
    /// hot-swap).
    pub fn config_epoch(&self) -> u64 {
        self.shared
            .detector
            .lock()
            .expect("detector state poisoned")
            .epoch
    }

    /// Hot-swaps the live detector without dropping a single queued or
    /// in-flight request, returning the new configuration epoch. The
    /// worker picks the replacement up at its next micro-batch boundary;
    /// every verdict reports the epoch it was actually scored under.
    pub fn swap_detector(&self, detector: Detector) -> u64 {
        install_detector(&self.shared, detector).1
    }

    /// A point-in-time copy of the operational counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// A unified telemetry snapshot: this monitor's private metrics
    /// (queue occupancy, shed/block counts, batch sizes, stage and
    /// end-to-end latency histograms, per-class screening counters)
    /// merged with the process-wide registry (engine measurement spans,
    /// simulated-HPC event totals, worker-pool utilisation).
    ///
    /// Render it with
    /// [`Snapshot::render_prometheus`](advhunter_telemetry::Snapshot::render_prometheus)
    /// or
    /// [`Snapshot::render_json`](advhunter_telemetry::Snapshot::render_json).
    pub fn metrics_snapshot(&self) -> advhunter_telemetry::Snapshot {
        self.shared
            .stats
            .registry_snapshot()
            .merge(advhunter_telemetry::global().snapshot())
    }

    /// Holds the worker before its next micro-batch: submissions keep
    /// being admitted (and the bounded queue fills), but nothing is
    /// measured until [`resume`](Self::resume). Exposed for operational
    /// drains and for deterministic backpressure tests.
    pub fn pause(&self) {
        self.shared.queue.pause();
    }

    /// Releases a paused worker.
    pub fn resume(&self) {
        self.shared.queue.resume();
    }

    /// Stops admissions and begins the graceful drain: every
    /// already-admitted request is still measured, scored, and delivered
    /// before [`recv`](Self::recv) returns `None`. The number of requests
    /// in the queue at this moment is recorded in
    /// [`StatsSnapshot::drained`] — the drain debt the shutdown proof
    /// checks against `completed`.
    pub fn close(&self) {
        let backlog = self.shared.queue.close();
        self.shared.stats.record_drained(backlog);
        self.shared.stop.signal();
    }

    /// Closes the monitor, waits for the worker to drain the queue and
    /// flush every pending verdict, and returns the final counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.close();
        if let Some(worker) = self.worker.take() {
            worker.join().expect("monitor worker panicked");
        }
        if let Some(watcher) = self.watcher.take() {
            watcher.join().expect("monitor watcher panicked");
        }
        self.stats()
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.close();
        if let Some(watcher) = self.watcher.take() {
            let _ = watcher.join();
        }
        if let Some(worker) = self.worker.take() {
            // Surfacing the worker's panic beats swallowing it, except
            // while already unwinding (a double panic would abort).
            if worker.join().is_err() && !std::thread::panicking() {
                panic!("monitor worker panicked");
            }
        }
    }
}

/// Polls the detector source for externally-deployed replacements until
/// the monitor closes.
fn watcher_loop(shared: &Shared, poll: Duration) {
    let Some(source) = shared.source.as_deref() else {
        return;
    };
    while !shared.stop.wait(poll) {
        if let Some(detector) = source.poll_swap() {
            install_detector(shared, detector);
        }
    }
}

fn worker_loop(shared: &Shared, tx: &Sender<MonitorVerdict>) {
    let micro_batch = shared.config.micro_batch;
    let exec = shared.config.exec;
    let fusion = shared.config.fusion;
    // The worker owns the fingerprint store outright: matching mutates
    // per-tenant windows, so it runs here, sequentially in admission-id
    // order, *before* the parallel measurement fan-out. That makes the
    // cross-query verdict a pure function of the admission-ordered
    // (tenant, image) stream — thread count and batching cannot touch it.
    let mut store = shared
        .config
        .fingerprint
        .is_enabled()
        .then(|| FingerprintStore::new(shared.config.fingerprint));
    // The drift tracker is equally sequential: it consumes mean clean
    // NLLs in admission order, so its firings (and the exact request at
    // which a drift-swapped detector takes over) are reproducible.
    let mut drift = shared.config.drift.map(DriftTracker::new);
    while let Some(batch) = shared.queue.pop_batch(micro_batch) {
        shared.stats.record_drain(batch.len(), shared.queue.len());
        // Refresh the live detector once per micro-batch: external
        // hot-swaps take effect at batch boundaries, and the scoring
        // below shares no &mut state with other epochs' batches.
        let (mut detector, mut epoch) = {
            let state = shared.detector.lock().expect("detector state poisoned");
            (Arc::clone(&state.detector), state.epoch)
        };
        let fingerprint_start = Instant::now();
        let reports: Vec<Option<MatchReport>> = batch
            .iter()
            .map(|req| {
                store
                    .as_mut()
                    .map(|s| s.observe_query(req.tenant, req.image.data()))
            })
            .collect();
        let measure_start = Instant::now();
        if store.is_some() {
            shared
                .stats
                .record_fingerprint_stage(measure_start - fingerprint_start);
        }
        // Fan-out over the worker pool. Each request's noise stream is
        // derived from (exec.seed, request id), and each pool worker
        // checks out its own pooled scratch (workspace + tiles + counter
        // group) exactly once per micro-batch — measurement shares no
        // &mut engine state across workers, which is what lets the
        // simulated-multicore bench scale it linearly.
        let measurements = parallel_map_with(
            &exec.parallelism,
            &batch,
            || shared.engine.worker_scratch(&shared.model),
            |scratch, _, req| {
                shared.engine.measure_indexed_with(
                    &shared.model,
                    &req.image,
                    exec.seed,
                    req.id,
                    scratch,
                )
            },
        );
        // Scoring runs sequentially in admission order so a drift-driven
        // swap takes effect at the exact next request — deterministic
        // under every thread count and batch shape.
        let score_start = Instant::now();
        let mut scored: Vec<(Verdict, u64)> = Vec::with_capacity(batch.len());
        for m in &measurements {
            let verdict = detector.evaluate(m.predicted, &m.sample);
            // A firing below swaps the detector for the *next* request;
            // this one was already scored under the current epoch.
            let scored_epoch = epoch;
            let scores = verdict.scores();
            if let (Some(tracker), false, false) =
                (drift.as_mut(), verdict.flagged_any(), scores.is_empty())
            {
                let mean_nll = scores.iter().map(|s| s.nll).sum::<f64>() / scores.len() as f64;
                if let Some(observation) = tracker.observe(mean_nll) {
                    shared.stats.record_drift();
                    if let Some(replacement) = shared
                        .source
                        .as_deref()
                        .and_then(|s| s.recalibrate(&observation))
                    {
                        let (d, e) = install_detector(shared, replacement);
                        detector = d;
                        epoch = e;
                    }
                }
            }
            scored.push((verdict, scored_epoch));
        }
        let score_done = Instant::now();
        let measure = score_start - measure_start;
        let score = score_done - score_start;
        shared.stats.record_batch(measure, score);
        for ((req, (verdict, scored_epoch)), report) in batch.iter().zip(scored).zip(reports) {
            let queued = measure_start.saturating_duration_since(req.admitted_at);
            let hpc_anomalous = verdict.flagged_any();
            let query_correlated = report.is_some_and(|r| r.matched);
            let flagged = fusion.fuse(hpc_anomalous, query_correlated);
            if let Some(r) = report {
                shared.stats.record_fingerprint_report(&r);
            }
            shared.stats.record_verdict(
                verdict.predicted(),
                flagged,
                queued,
                req.admitted_at.elapsed(),
            );
            let out = MonitorVerdict {
                request_id: req.id,
                correlation_id: req.correlation,
                tenant: req.tenant,
                config_epoch: scored_epoch,
                verdict,
                hpc_anomalous,
                query_correlated,
                fingerprint: report,
                flagged,
                telemetry: RequestTelemetry {
                    depth_at_admission: req.depth_at_admission,
                    batch_size: batch.len(),
                    queued,
                    measure,
                    score,
                },
            };
            // A dropped receiver just means nobody wants verdicts any
            // more; keep draining so shutdown still completes.
            let _ = tx.send(out);
        }
    }
}
