//! Operational counters of the monitor service, backed by the
//! `advhunter-telemetry` registry.
//!
//! Every counter, gauge, and latency histogram lives in a per-monitor
//! [`Registry`], so the same numbers are available two ways: as the plain
//! [`StatsSnapshot`] struct (the stable programmatic surface) and as a
//! telemetry [`Snapshot`](advhunter_telemetry::Snapshot) renderable to
//! Prometheus text or JSON via [`Monitor::metrics_snapshot`]. Telemetry is
//! *observational* — none of it feeds back into measurement or scoring, so
//! verdicts stay deterministic while latencies and depths vary run to run.
//!
//! [`Monitor::metrics_snapshot`]: crate::Monitor::metrics_snapshot

use std::sync::Arc;
use std::time::Duration;

use advhunter_fingerprint::MatchReport;
use advhunter_telemetry::{Counter, Gauge, Histogram, Registry};

/// Live counters shared between the submission side and the worker, all
/// registered in a per-monitor registry.
#[derive(Debug)]
pub(crate) struct MonitorStats {
    registry: Registry,
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    shed: Arc<Counter>,
    blocked: Arc<Counter>,
    drained: Arc<Counter>,
    batches: Arc<Counter>,
    detector_swaps: Arc<Counter>,
    drift_events: Arc<Counter>,
    faults: Arc<Counter>,
    crew_members: Arc<Gauge>,
    config_epoch: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    batch_size: Arc<Histogram>,
    queued_ns: Arc<Histogram>,
    measure_ns: Arc<Histogram>,
    score_ns: Arc<Histogram>,
    fingerprint_ns: Arc<Histogram>,
    fingerprint_matched: Arc<Counter>,
    fingerprint_shed: Arc<Counter>,
    verdict_latency_ns: Arc<Histogram>,
    /// Per-class `[screened, flagged]` counter pairs; the final pair
    /// collects predictions outside the detector's modelled range.
    per_class: Vec<[Arc<Counter>; 2]>,
}

impl MonitorStats {
    pub(crate) fn new(num_classes: usize) -> Self {
        let registry = Registry::new();
        let per_class = (0..=num_classes)
            .map(|i| {
                let label = if i < num_classes {
                    i.to_string()
                } else {
                    "other".to_string()
                };
                [
                    registry.counter(
                        &format!("advhunter_monitor_class_{label}_screened_total"),
                        "Verdicts produced for this predicted class",
                    ),
                    registry.counter(
                        &format!("advhunter_monitor_class_{label}_flagged_total"),
                        "Verdicts flagged adversarial for this predicted class",
                    ),
                ]
            })
            .collect();
        Self {
            submitted: registry.counter(
                "advhunter_monitor_submitted_total",
                "Requests admitted into the queue",
            ),
            completed: registry.counter("advhunter_monitor_completed_total", "Verdicts produced"),
            shed: registry.counter(
                "advhunter_monitor_shed_total",
                "Submissions rejected under the shed overload policy",
            ),
            blocked: registry.counter(
                "advhunter_monitor_blocked_total",
                "Submissions that parked on a full queue under the block policy",
            ),
            drained: registry.counter(
                "advhunter_monitor_drained_total",
                "Requests still queued at close time, measured and delivered during shutdown",
            ),
            batches: registry.counter("advhunter_monitor_batches_total", "Micro-batches processed"),
            detector_swaps: registry.counter(
                "advhunter_monitor_detector_swaps_total",
                "Zero-downtime detector hot-swaps performed",
            ),
            drift_events: registry.counter(
                "advhunter_monitor_drift_events_total",
                "Clean-NLL drift-test firings",
            ),
            faults: registry.counter(
                "advhunter_monitor_faults_total",
                "Micro-batches whose processing panicked; each of their requests got an Internal reject",
            ),
            crew_members: registry.gauge(
                "advhunter_monitor_crew_members",
                "Members of the measurement crew, the worker thread included (set at start and after each fault)",
            ),
            config_epoch: registry.gauge(
                "advhunter_monitor_config_epoch",
                "Monotonic detector epoch (bumps on every hot-swap)",
            ),
            queue_depth: registry.gauge(
                "advhunter_monitor_queue_depth",
                "Queue occupancy (level at last admission/drain; _max is the high watermark)",
            ),
            batch_size: registry.histogram(
                "advhunter_monitor_batch_size",
                "Requests coalesced into one micro-batch",
            ),
            queued_ns: registry.histogram(
                "advhunter_monitor_queued_ns",
                "Time a request spent queued before its micro-batch started measuring",
            ),
            measure_ns: registry.histogram(
                "advhunter_monitor_measure_ns",
                "Wall time of the measurement stage per micro-batch",
            ),
            score_ns: registry.histogram(
                "advhunter_monitor_score_ns",
                "Wall time of the scoring stage per micro-batch",
            ),
            fingerprint_ns: registry.histogram(
                "advhunter_monitor_fingerprint_ns",
                "Wall time of the query-fingerprint stage per micro-batch",
            ),
            fingerprint_matched: registry.counter(
                "advhunter_monitor_fingerprint_matched_total",
                "Verdicts whose query correlated with the tenant's recent history",
            ),
            fingerprint_shed: registry.counter(
                "advhunter_monitor_fingerprint_shed_total",
                "Verdicts degraded to HPC-only because the store shed the tenant",
            ),
            verdict_latency_ns: registry.histogram(
                "advhunter_monitor_verdict_latency_ns",
                "End-to-end time from admission to verdict delivery per request",
            ),
            per_class,
            registry,
        }
    }

    pub(crate) fn record_submitted(&self, depth_after: usize) {
        self.submitted.inc();
        self.queue_depth.set(depth_after as u64);
    }

    pub(crate) fn record_shed(&self) {
        self.shed.inc();
    }

    pub(crate) fn record_blocked(&self) {
        self.blocked.inc();
    }

    pub(crate) fn record_drained(&self, backlog: usize) {
        self.drained.add(backlog as u64);
    }

    pub(crate) fn record_swap(&self, epoch: u64) {
        self.detector_swaps.inc();
        self.config_epoch.set(epoch);
    }

    pub(crate) fn record_drift(&self) {
        self.drift_events.inc();
    }

    pub(crate) fn record_fault(&self, crew_members: usize) {
        self.faults.inc();
        self.record_crew_members(crew_members);
    }

    pub(crate) fn record_crew_members(&self, members: usize) {
        self.crew_members.set(members as u64);
    }

    pub(crate) fn record_drain(&self, batch_size: usize, depth_after: usize) {
        self.batch_size.record(batch_size as u64);
        self.queue_depth.set(depth_after as u64);
    }

    pub(crate) fn record_batch(&self, measure: Duration, score: Duration) {
        self.batches.inc();
        self.measure_ns.record_duration(measure);
        self.score_ns.record_duration(score);
    }

    pub(crate) fn record_fingerprint_stage(&self, elapsed: Duration) {
        self.fingerprint_ns.record_duration(elapsed);
    }

    pub(crate) fn record_fingerprint_report(&self, report: &MatchReport) {
        if report.matched {
            self.fingerprint_matched.inc();
        }
        if report.shed {
            self.fingerprint_shed.inc();
        }
    }

    pub(crate) fn record_verdict(
        &self,
        predicted: usize,
        flagged: bool,
        queued: Duration,
        latency: Duration,
    ) {
        self.completed.inc();
        self.queued_ns.record_duration(queued);
        self.verdict_latency_ns.record_duration(latency);
        let slot = self.per_class.get(predicted).unwrap_or(
            self.per_class
                .last()
                .expect("per_class always has an overflow slot"),
        );
        slot[0].inc();
        if flagged {
            slot[1].inc();
        }
    }

    /// A telemetry snapshot of this monitor's private registry.
    pub(crate) fn registry_snapshot(&self) -> advhunter_telemetry::Snapshot {
        self.registry.snapshot()
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            submitted: self.submitted.get(),
            completed: self.completed.get(),
            shed: self.shed.get(),
            blocked: self.blocked.get(),
            drained: self.drained.get(),
            batches: self.batches.get(),
            detector_swaps: self.detector_swaps.get(),
            drift_events: self.drift_events.get(),
            faults: self.faults.get(),
            config_epoch: self.config_epoch.get(),
            max_queue_depth: self.queue_depth.max(),
            queued: Duration::from_nanos(self.queued_ns.snapshot().sum),
            measure: Duration::from_nanos(self.measure_ns.snapshot().sum),
            score: Duration::from_nanos(self.score_ns.snapshot().sum),
            fingerprint: Duration::from_nanos(self.fingerprint_ns.snapshot().sum),
            fingerprint_matched: self.fingerprint_matched.get(),
            fingerprint_shed: self.fingerprint_shed.get(),
            per_class: self
                .per_class
                .iter()
                .map(|slot| ClassFlagStats {
                    screened: slot[0].get(),
                    flagged: slot[1].get(),
                })
                .collect(),
        }
    }
}

/// Per-predicted-class screening counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassFlagStats {
    /// Verdicts produced for this predicted class.
    pub screened: u64,
    /// How many of them were flagged adversarial (by the monitor's
    /// configured fusion rule).
    pub flagged: u64,
}

impl ClassFlagStats {
    /// Fraction of screened inferences that were flagged (0 when none
    /// were screened).
    pub fn flag_rate(&self) -> f64 {
        if self.screened == 0 {
            0.0
        } else {
            self.flagged as f64 / self.screened as f64
        }
    }
}

/// A point-in-time copy of the monitor's operational counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Verdicts produced.
    pub completed: u64,
    /// Submissions rejected under the shed policy.
    pub shed: u64,
    /// Submissions that parked on a full queue under the block policy
    /// (they were eventually admitted and are also counted in
    /// `submitted`).
    pub blocked: u64,
    /// Requests that were still queued when the monitor closed and were
    /// measured and delivered during the shutdown drain (also counted in
    /// `completed`) — graceful shutdown never silently drops an admitted
    /// request.
    pub drained: u64,
    /// Micro-batches processed.
    pub batches: u64,
    /// Detector hot-swaps performed (store watcher, explicit
    /// [`swap_detector`](crate::Monitor::swap_detector), or drift
    /// recalibration).
    pub detector_swaps: u64,
    /// Clean-NLL drift-test firings.
    pub drift_events: u64,
    /// Micro-batches whose processing panicked: each of their requests
    /// was answered with a [`MonitorFault`](crate::MonitorFault) instead
    /// of a verdict.
    pub faults: u64,
    /// Current detector epoch (0 until the first hot-swap).
    pub config_epoch: u64,
    /// Highest queue depth observed at any admission.
    pub max_queue_depth: u64,
    /// Total time completed requests spent queued before measurement.
    pub queued: Duration,
    /// Total wall time of the measurement stage across batches.
    pub measure: Duration,
    /// Total wall time of the scoring stage across batches.
    pub score: Duration,
    /// Total wall time of the query-fingerprint stage across batches
    /// (zero while the stage is disabled).
    pub fingerprint: Duration,
    /// Verdicts whose query correlated with the tenant's recent history.
    pub fingerprint_matched: u64,
    /// Verdicts degraded to HPC-only because the store shed the tenant.
    pub fingerprint_shed: u64,
    /// Per-predicted-class screening counts; the final entry collects
    /// predictions outside the detector's modelled classes.
    pub per_class: Vec<ClassFlagStats>,
}

impl StatsSnapshot {
    /// Mean queued time per completed request.
    pub fn mean_queued(&self) -> Duration {
        checked_div(self.queued, self.completed)
    }

    /// Mean measurement-stage time per micro-batch.
    pub fn mean_measure_per_batch(&self) -> Duration {
        checked_div(self.measure, self.batches)
    }

    /// Mean scoring-stage time per micro-batch.
    pub fn mean_score_per_batch(&self) -> Duration {
        checked_div(self.score, self.batches)
    }
}

fn checked_div(total: Duration, n: u64) -> Duration {
    if n == 0 {
        Duration::ZERO
    } else {
        total / n as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_into_snapshot() {
        let stats = MonitorStats::new(2);
        stats.record_submitted(1);
        stats.record_submitted(3);
        stats.record_shed();
        stats.record_blocked();
        stats.record_drain(3, 0);
        stats.record_batch(Duration::from_millis(4), Duration::from_millis(1));
        let q = Duration::from_millis(2);
        let lat = Duration::from_millis(5);
        stats.record_verdict(0, true, q, lat);
        stats.record_verdict(1, false, q, lat);
        stats.record_verdict(9, true, q, lat); // overflow slot
        let s = stats.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.shed, 1);
        assert_eq!(s.blocked, 1);
        assert_eq!(s.completed, 3);
        assert_eq!(s.batches, 1);
        assert_eq!(s.max_queue_depth, 3);
        assert_eq!(s.per_class.len(), 3);
        assert_eq!(
            s.per_class[0],
            ClassFlagStats {
                screened: 1,
                flagged: 1
            }
        );
        assert_eq!(
            s.per_class[1],
            ClassFlagStats {
                screened: 1,
                flagged: 0
            }
        );
        assert_eq!(
            s.per_class[2],
            ClassFlagStats {
                screened: 1,
                flagged: 1
            }
        );
        assert!((s.per_class[0].flag_rate() - 1.0).abs() < 1e-12);
        assert_eq!(s.mean_queued(), Duration::from_millis(2));
        assert_eq!(s.mean_measure_per_batch(), Duration::from_millis(4));
    }

    #[test]
    fn registry_snapshot_mirrors_the_struct() {
        let stats = MonitorStats::new(1);
        stats.record_submitted(2);
        stats.record_shed();
        stats.record_drain(2, 0);
        stats.record_verdict(0, true, Duration::from_micros(3), Duration::from_micros(9));
        let r = stats.registry_snapshot();
        assert_eq!(r.counter("advhunter_monitor_submitted_total"), Some(1));
        assert_eq!(r.counter("advhunter_monitor_shed_total"), Some(1));
        assert_eq!(r.counter("advhunter_monitor_blocked_total"), Some(0));
        assert_eq!(r.gauge("advhunter_monitor_queue_depth"), Some((0, 2)));
        assert_eq!(
            r.counter("advhunter_monitor_class_0_screened_total"),
            Some(1)
        );
        assert_eq!(
            r.counter("advhunter_monitor_class_other_screened_total"),
            Some(0)
        );
        let lat = r.histogram("advhunter_monitor_verdict_latency_ns").unwrap();
        assert_eq!(lat.count, 1);
        assert_eq!(lat.sum, 9_000);
        assert_eq!(
            r.histogram("advhunter_monitor_batch_size").unwrap().sum,
            2,
            "batch-size histogram sums coalesced requests"
        );
    }

    #[test]
    fn fingerprint_counters_accumulate() {
        let stats = MonitorStats::new(1);
        stats.record_fingerprint_stage(Duration::from_micros(7));
        let matched = MatchReport {
            score: 1.0,
            best_overlap: 8,
            probes: 8,
            window_len: 3,
            matched: true,
            shed: false,
        };
        let shed = MatchReport {
            score: 0.0,
            best_overlap: 0,
            probes: 0,
            window_len: 0,
            matched: false,
            shed: true,
        };
        stats.record_fingerprint_report(&matched);
        stats.record_fingerprint_report(&shed);
        let s = stats.snapshot();
        assert_eq!(s.fingerprint, Duration::from_micros(7));
        assert_eq!(s.fingerprint_matched, 1);
        assert_eq!(s.fingerprint_shed, 1);
        let r = stats.registry_snapshot();
        assert_eq!(
            r.counter("advhunter_monitor_fingerprint_matched_total"),
            Some(1)
        );
        assert_eq!(
            r.counter("advhunter_monitor_fingerprint_shed_total"),
            Some(1)
        );
    }

    #[test]
    fn serving_counters_accumulate() {
        let stats = MonitorStats::new(1);
        stats.record_drained(3);
        stats.record_swap(1);
        stats.record_swap(2);
        stats.record_drift();
        let s = stats.snapshot();
        assert_eq!(s.drained, 3);
        assert_eq!(s.detector_swaps, 2);
        assert_eq!(s.drift_events, 1);
        assert_eq!(s.config_epoch, 2);
        let r = stats.registry_snapshot();
        assert_eq!(r.counter("advhunter_monitor_drained_total"), Some(3));
        assert_eq!(r.counter("advhunter_monitor_detector_swaps_total"), Some(2));
        assert_eq!(r.counter("advhunter_monitor_drift_events_total"), Some(1));
        assert_eq!(r.gauge("advhunter_monitor_config_epoch"), Some((2, 2)));
    }

    #[test]
    fn empty_snapshot_divides_safely() {
        let s = MonitorStats::new(1).snapshot();
        assert_eq!(s.mean_queued(), Duration::ZERO);
        assert_eq!(s.mean_measure_per_batch(), Duration::ZERO);
        assert_eq!(s.mean_score_per_batch(), Duration::ZERO);
        assert_eq!(
            ClassFlagStats {
                screened: 0,
                flagged: 0
            }
            .flag_rate(),
            0.0
        );
    }
}
