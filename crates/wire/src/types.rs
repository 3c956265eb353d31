//! Reply-side wire vocabulary: verdicts, service stats, control ops, and
//! admission rejects.

use advhunter::Verdict;
use advhunter_fingerprint::{MatchReport, TenantId};

/// A scored verdict as it travels the wire — the remote mirror of the
/// monitor's in-process verdict, including which detector version
/// (`config_epoch`) produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct WireVerdict {
    /// The monitor's admission-ordered request id.
    pub request_id: u64,
    /// The caller's correlation id, echoed from the request.
    pub correlation_id: Option<u64>,
    /// Tenant the query billed to.
    pub tenant: TenantId,
    /// Monotonic detector epoch this verdict was scored under. Bumps on
    /// every hot-swap, so clients can attribute flag-rate changes to a
    /// detector version.
    pub config_epoch: u64,
    /// Per-event NLL scores and the hard-label prediction.
    pub verdict: Verdict,
    /// The HPC side-channel anomaly bit.
    pub hpc_anomalous: bool,
    /// The query-fingerprint correlation bit.
    pub query_correlated: bool,
    /// The fingerprint stage's report, when the defense ran.
    pub fingerprint: Option<MatchReport>,
    /// The fused decision under the service's fusion policy.
    pub flagged: bool,
}

/// Service counters as returned for a `StatsRequest` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Verdicts delivered.
    pub completed: u64,
    /// Requests refused under the Shed overload policy.
    pub shed: u64,
    /// Submissions that had to wait under the Block overload policy.
    pub blocked: u64,
    /// Requests still queued at close time that were measured and
    /// delivered during shutdown (never silently dropped).
    pub drained: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Current detector epoch.
    pub config_epoch: u64,
    /// Detector hot-swaps performed.
    pub detector_swaps: u64,
    /// Drift-test firings.
    pub drift_events: u64,
}

/// Control operations a client can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlOp {
    /// Pause batch formation (submissions still queue).
    Pause,
    /// Resume batch formation.
    Resume,
    /// Ask the server process to shut down gracefully (drain, then exit).
    Shutdown,
}

impl ControlOp {
    pub(crate) fn tag(self) -> u8 {
        match self {
            Self::Pause => 1,
            Self::Resume => 2,
            Self::Shutdown => 3,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(Self::Pause),
            2 => Some(Self::Resume),
            3 => Some(Self::Shutdown),
            _ => None,
        }
    }
}

/// Why a request was refused without a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// The bounded queue was full under the Shed policy; retry later.
    Overloaded,
    /// The service is shutting down; no further requests are admitted.
    Closed,
    /// The client's frame violated the protocol; the server closes the
    /// connection after sending this.
    Protocol,
    /// The request was structurally valid on the wire but semantically
    /// inadmissible — e.g. its image shape does not match the served
    /// model's input. The connection stays open.
    BadRequest,
    /// The operation is not permitted for this client under the server's
    /// access policy (e.g. a control op from a non-loopback peer). The
    /// connection stays open.
    Denied,
    /// The request was admitted, but processing its micro-batch failed
    /// inside the server; the service goes on serving. The connection
    /// stays open.
    Internal,
}

impl RejectCode {
    pub(crate) fn tag(self) -> u8 {
        match self {
            Self::Overloaded => 1,
            Self::Closed => 2,
            Self::Protocol => 3,
            Self::BadRequest => 4,
            Self::Denied => 5,
            Self::Internal => 6,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(Self::Overloaded),
            2 => Some(Self::Closed),
            3 => Some(Self::Protocol),
            4 => Some(Self::BadRequest),
            5 => Some(Self::Denied),
            6 => Some(Self::Internal),
            _ => None,
        }
    }
}

/// An admission failure or protocol violation report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// Why the request was refused.
    pub code: RejectCode,
    /// The correlation id of the refused request, when it carried one.
    pub correlation_id: Option<u64>,
    /// Human-readable detail.
    pub message: String,
}
