//! The AdvHunter wire protocol (`AHP2`): a dependency-free, length-
//! prefixed binary frame format plus a blocking TCP client, so the
//! monitor service can be driven across a network instead of only
//! in-process.
//!
//! # Frame grammar
//!
//! Every frame is a fixed 18-byte header followed by a payload:
//!
//! ```text
//! magic    : 4 bytes  — b"AHP" + version byte b'2'
//! kind     : u8       — frame discriminator (see FrameKind)
//! flags    : u8       — reserved, must be zero
//! length   : u32 LE   — payload byte count, <= MAX_PAYLOAD
//! checksum : u64 LE   — advhunter::store::checksum of the payload bytes
//! payload  : `length` bytes
//! ```
//!
//! All integers are little-endian; floats travel as their IEEE-754 bit
//! patterns (`f64::to_bits`), so a verdict that crosses the wire is
//! bit-identical to one scored in-process — the loopback tests pin this.
//!
//! The header is validated *before* the payload is read: a declared
//! length beyond [`MAX_PAYLOAD`] is rejected without allocating, bad
//! magic/version/kind/flags fail typed ([`WireError`]), and a stream
//! that ends mid-frame reports [`WireError::UnexpectedEof`] while a
//! stream that ends cleanly between frames is a normal end-of-stream
//! (`Ok(None)` from [`read_frame`]).
//!
//! # Vocabulary
//!
//! [`MonitorRequest`] is *the* submission type — the same struct the
//! in-process `Monitor::submit` API takes is what frame kind `Request`
//! serializes, so there is exactly one request schema for both paths.
//! Verdicts come back as [`WireVerdict`] (including the detector
//! `config_epoch` they were scored under), service counters as
//! [`WireStats`], and admission failures as [`Reject`] frames carrying
//! the caller's correlation id.

pub mod client;
pub mod frame;
mod payload;
mod request;
mod types;

pub use client::{MonitorClient, ServerReply};
pub use frame::{
    read_frame, write_frame, Frame, FrameKind, WireError, HEADER_LEN, MAX_PAYLOAD, WIRE_MAGIC,
};
pub use request::MonitorRequest;
pub use types::{ControlOp, Reject, RejectCode, WireStats, WireVerdict};
