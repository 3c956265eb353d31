//! Frame codec: header validation, payload checksums, and the
//! stream-level read/write entry points.

use std::fmt;
use std::io::{self, Read, Write};

use advhunter::store::checksum;

use crate::payload;
use crate::request::MonitorRequest;
use crate::types::{ControlOp, Reject, WireStats, WireVerdict};

/// Frame preamble: protocol name plus the version byte (`b'2'`). The
/// version names the payload [`checksum`] too: an `AHP1` peer, which
/// sums with byte-serial FNV-1a, is refused as
/// [`WireError::UnsupportedVersion`].
pub const WIRE_MAGIC: [u8; 4] = *b"AHP2";

/// Header size: magic (4) + kind (1) + flags (1) + length (4) +
/// checksum (8).
pub const HEADER_LEN: usize = 18;

/// Largest accepted payload (16 MiB). A header declaring more is
/// rejected before any payload byte is read or allocated, so a hostile
/// length field cannot balloon server memory.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Frame discriminator (the header's `kind` byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: submit a [`MonitorRequest`].
    Request = 1,
    /// Server → client: a scored [`WireVerdict`].
    Verdict = 2,
    /// Client → server: ask for service counters.
    StatsRequest = 3,
    /// Server → client: the [`WireStats`] reply.
    Stats = 4,
    /// Client → server: a [`ControlOp`].
    Control = 5,
    /// Server → client: acknowledges a control op, echoing it plus the
    /// current detector epoch.
    ControlAck = 6,
    /// Server → client: an admission failure or protocol violation.
    Reject = 7,
}

impl FrameKind {
    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(Self::Request),
            2 => Some(Self::Verdict),
            3 => Some(Self::StatsRequest),
            4 => Some(Self::Stats),
            5 => Some(Self::Control),
            6 => Some(Self::ControlAck),
            7 => Some(Self::Reject),
            _ => None,
        }
    }
}

/// Typed decode/transport failure. Every malformed input maps to a
/// variant — the codec never panics on untrusted bytes (pinned by the
/// crate's property tests).
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The first four bytes were not `AHP` + a version byte.
    BadMagic([u8; 4]),
    /// `AHP` magic with a version byte this build does not speak.
    UnsupportedVersion(u8),
    /// An undefined `kind` byte.
    UnknownKind(u8),
    /// Non-zero reserved flag bits.
    ReservedFlags(u8),
    /// The header declared a payload beyond [`MAX_PAYLOAD`].
    Oversize {
        /// The declared payload length.
        declared: u32,
        /// The accepted maximum.
        max: u32,
    },
    /// Payload bytes did not hash to the header's checksum.
    ChecksumMismatch {
        /// The checksum the header declared.
        expected: u64,
        /// The checksum of the bytes actually received.
        actual: u64,
    },
    /// A buffer decode needed more bytes than the buffer holds.
    Truncated {
        /// Bytes needed to finish the frame.
        needed: usize,
        /// Bytes available.
        have: usize,
    },
    /// The stream ended mid-frame (a clean end *between* frames is
    /// `Ok(None)` from [`read_frame`], not an error).
    UnexpectedEof,
    /// Structurally invalid payload contents.
    Malformed(&'static str),
    /// The server refused the operation with a typed [`Reject`] — e.g. a
    /// control op denied by the server's control-access policy.
    Refused(Reject),
    /// Underlying transport failure.
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported protocol version byte {v:#04x}"),
            Self::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            Self::ReservedFlags(b) => write!(f, "reserved frame flags set ({b:#04x})"),
            Self::Oversize { declared, max } => {
                write!(
                    f,
                    "declared payload of {declared} bytes exceeds the {max} byte cap"
                )
            }
            Self::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload checksum mismatch (header {expected:#018x}, payload {actual:#018x})"
            ),
            Self::Truncated { needed, have } => {
                write!(f, "frame truncated: need {needed} bytes, have {have}")
            }
            Self::UnexpectedEof => write!(f, "stream ended mid-frame"),
            Self::Malformed(what) => write!(f, "malformed payload: {what}"),
            Self::Refused(r) => write!(f, "server refused the operation: {}", r.message),
            Self::Io(e) => write!(f, "transport failure: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// A decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Submit a query.
    Request(MonitorRequest),
    /// A scored verdict.
    Verdict(WireVerdict),
    /// Ask for service counters.
    StatsRequest,
    /// Service counters.
    Stats(WireStats),
    /// A control operation.
    Control(ControlOp),
    /// Control acknowledgement: the op performed and the detector epoch
    /// after it.
    ControlAck {
        /// The acknowledged operation.
        op: ControlOp,
        /// Detector epoch at acknowledgement time.
        config_epoch: u64,
    },
    /// An admission failure or protocol violation.
    Reject(Reject),
}

impl Frame {
    fn kind(&self) -> FrameKind {
        match self {
            Self::Request(_) => FrameKind::Request,
            Self::Verdict(_) => FrameKind::Verdict,
            Self::StatsRequest => FrameKind::StatsRequest,
            Self::Stats(_) => FrameKind::Stats,
            Self::Control(_) => FrameKind::Control,
            Self::ControlAck { .. } => FrameKind::ControlAck,
            Self::Reject(_) => FrameKind::Reject,
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        match self {
            Self::Request(req) => payload::encode_request(req),
            Self::Verdict(v) => payload::encode_verdict(v),
            Self::StatsRequest => Vec::new(),
            Self::Stats(s) => payload::encode_stats(s),
            Self::Control(op) => vec![op.tag()],
            Self::ControlAck { op, config_epoch } => {
                let mut out = Vec::with_capacity(9);
                out.push(op.tag());
                out.extend_from_slice(&config_epoch.to_le_bytes());
                out
            }
            Self::Reject(r) => payload::encode_reject(r),
        }
    }

    fn decode_payload(kind: FrameKind, payload: &[u8]) -> Result<Self, WireError> {
        match kind {
            FrameKind::Request => payload::decode_request(payload).map(Self::Request),
            FrameKind::Verdict => payload::decode_verdict(payload).map(Self::Verdict),
            FrameKind::StatsRequest => {
                if payload.is_empty() {
                    Ok(Self::StatsRequest)
                } else {
                    Err(WireError::Malformed("stats request carries a payload"))
                }
            }
            FrameKind::Stats => payload::decode_stats(payload).map(Self::Stats),
            FrameKind::Control => match payload {
                [tag] => ControlOp::from_tag(*tag)
                    .map(Self::Control)
                    .ok_or(WireError::Malformed("unknown control op")),
                _ => Err(WireError::Malformed("control payload must be one byte")),
            },
            FrameKind::ControlAck => {
                if payload.len() != 9 {
                    return Err(WireError::Malformed("control ack payload must be 9 bytes"));
                }
                let op = ControlOp::from_tag(payload[0])
                    .ok_or(WireError::Malformed("unknown control op in ack"))?;
                let mut epoch = [0u8; 8];
                epoch.copy_from_slice(&payload[1..9]);
                Ok(Self::ControlAck {
                    op,
                    config_epoch: u64::from_le_bytes(epoch),
                })
            }
            FrameKind::Reject => payload::decode_reject(payload).map(Self::Reject),
        }
    }

    /// Serializes the frame: header (with payload checksum) + payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] when the payload exceeds [`MAX_PAYLOAD`] —
    /// the same cap the decode side enforces, so a frame this refuses
    /// would only have been rejected by the peer (and a length beyond
    /// `u32` would silently corrupt the header). Nothing is written on
    /// error.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let payload = self.encode_payload();
        if payload.len() > MAX_PAYLOAD as usize {
            return Err(WireError::Oversize {
                declared: u32::try_from(payload.len()).unwrap_or(u32::MAX),
                max: MAX_PAYLOAD,
            });
        }
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&WIRE_MAGIC);
        out.push(self.kind() as u8);
        out.push(0); // flags, reserved
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&checksum(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }

    /// Decodes one frame from the front of `buf`, returning it and the
    /// bytes consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if `buf` holds less than one whole frame;
    /// any other [`WireError`] variant for invalid bytes. Never panics.
    pub fn decode(buf: &[u8]) -> Result<(Self, usize), WireError> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                needed: HEADER_LEN,
                have: buf.len(),
            });
        }
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&buf[..HEADER_LEN]);
        let (kind, len, expected) = parse_header(&header)?;
        let total = HEADER_LEN + len as usize;
        if buf.len() < total {
            return Err(WireError::Truncated {
                needed: total,
                have: buf.len(),
            });
        }
        let payload = &buf[HEADER_LEN..total];
        verify_checksum(payload, expected)?;
        Ok((Self::decode_payload(kind, payload)?, total))
    }
}

/// Validates a header, returning `(kind, payload_len, checksum)`.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(FrameKind, u32, u64), WireError> {
    if header[..3] != WIRE_MAGIC[..3] {
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&header[..4]);
        return Err(WireError::BadMagic(magic));
    }
    if header[3] != WIRE_MAGIC[3] {
        return Err(WireError::UnsupportedVersion(header[3]));
    }
    let kind = FrameKind::from_tag(header[4]).ok_or(WireError::UnknownKind(header[4]))?;
    if header[5] != 0 {
        return Err(WireError::ReservedFlags(header[5]));
    }
    let mut len = [0u8; 4];
    len.copy_from_slice(&header[6..10]);
    let len = u32::from_le_bytes(len);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversize {
            declared: len,
            max: MAX_PAYLOAD,
        });
    }
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&header[10..18]);
    Ok((kind, len, u64::from_le_bytes(sum)))
}

fn verify_checksum(payload: &[u8], expected: u64) -> Result<(), WireError> {
    let actual = checksum(payload);
    if actual != expected {
        return Err(WireError::ChecksumMismatch { expected, actual });
    }
    Ok(())
}

/// Fills `buf` from the stream. `Ok(false)` means the stream ended
/// cleanly before the first byte; an EOF after at least one byte is
/// [`WireError::UnexpectedEof`].
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(WireError::UnexpectedEof)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads the next frame from the stream. `Ok(None)` is a clean
/// end-of-stream at a frame boundary; an EOF anywhere inside a frame is
/// [`WireError::UnexpectedEof`]. The header is validated before any
/// payload byte is read, so an oversize declaration is refused without
/// allocating.
///
/// # Errors
///
/// Any [`WireError`] variant; never panics on hostile input.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(None);
    }
    let (kind, len, expected) = parse_header(&header)?;
    let mut payload = vec![0u8; len as usize];
    if !payload.is_empty() && !read_exact_or_eof(r, &mut payload)? {
        return Err(WireError::UnexpectedEof);
    }
    verify_checksum(&payload, expected)?;
    Ok(Some(Frame::decode_payload(kind, &payload)?))
}

/// Writes one frame to the stream (buffering is the caller's choice).
///
/// # Errors
///
/// [`WireError::Oversize`] when the frame's payload exceeds
/// [`MAX_PAYLOAD`] (nothing is written); [`WireError::Io`] on transport
/// failure.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    w.write_all(&frame.encode()?)?;
    Ok(())
}
