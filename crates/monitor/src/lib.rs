//! Online monitor service for AdvHunter: a long-lived detector that
//! screens a *stream* of inference requests the way the paper deploys the
//! defense — continuously, during inference, from the hard label and the
//! HPC readings alone.
//!
//! # Architecture (DESIGN.md §11)
//!
//! ```text
//! submit() ──► BoundedQueue ──► worker: micro-batch ──► parallel
//!   │            (capacity,        (≤ micro_batch        measure over
//!   │             shed/block)       per drain)           the thread pool
//!   │                                                        │
//!   ◄──────────── recv(): MonitorVerdict per request ◄── score + fuse
//! ```
//!
//! * **Admission** — [`Monitor::submit`] pushes into a bounded queue that
//!   assigns sequential request ids under its lock. When full it either
//!   sheds ([`OverloadPolicy::Shed`]) or blocks the caller
//!   ([`OverloadPolicy::Block`]).
//! * **Micro-batching** — one worker thread drains up to
//!   [`MonitorConfig::micro_batch`] requests at a time and measures them
//!   as one batch over the `advhunter-runtime` pool, reusing the engine's
//!   pooled per-worker scratch so the steady state allocates nothing.
//! * **Fingerprinting** — when [`MonitorConfig::fingerprint`] is enabled,
//!   the worker first runs every drained request through a per-tenant
//!   [`FingerprintStore`] (sequentially, in admission order): queries that
//!   near-duplicate the tenant's recent history are marked
//!   *query-correlated*, the cross-query signal that per-query HPC
//!   scoring cannot see (DESIGN.md §14).
//! * **Verdicts** — every request yields a [`MonitorVerdict`]: the
//!   detector's [`Verdict`](advhunter::Verdict) (predicted class plus
//!   per-event NLL scores), the HPC and query-correlation bits, the
//!   headline `flagged` bit fused per [`FusionPolicy`], and queue/latency
//!   telemetry. [`Monitor::stats`] exposes service-level counters (depth,
//!   shed count, per-stage latency, per-class flag rate).
//!
//! # Determinism
//!
//! Request `i` draws measurement noise from
//! `derive_seed(config.exec.seed, i)` and scoring is pure, so the
//! `(request_id, verdict)` stream is bit-identical for every
//! `ADVHUNTER_THREADS` value and for every way the same ordered inputs
//! are split into submissions. Telemetry is observational only.

mod builder;
mod config;
mod drift;
mod queue;
mod server;
mod service;
mod stats;

pub use builder::{MonitorBuildError, MonitorBuilder};
pub use config::{FusionPolicy, MonitorConfig, MonitorConfigError, OverloadPolicy};
pub use drift::{
    DetectorSource, DriftConfig, DriftConfigError, DriftObservation, DriftTracker,
    StoreDetectorSource,
};
pub use queue::{BoundedQueue, PushError, Pushed};
pub use server::{ControlAccess, WireServer};
pub use service::{
    Monitor, MonitorFault, MonitorOutcome, MonitorVerdict, RequestTelemetry, SubmitError,
};
pub use stats::{ClassFlagStats, StatsSnapshot};

// Re-export the wire-protocol request type: `Monitor::submit` takes it,
// and the TCP front-end serializes exactly this struct, so library and
// remote callers share one vocabulary.
pub use advhunter_wire::MonitorRequest;

// Re-export the fingerprint vocabulary so service callers (the CLI, the
// integration tests) can configure the defense without a direct
// dependency on `advhunter-fingerprint`.
pub use advhunter_fingerprint::{
    FingerprintConfig, FingerprintConfigError, FingerprintStore, MatchReport, QueryFingerprint,
    StoreStats, TenantId,
};
