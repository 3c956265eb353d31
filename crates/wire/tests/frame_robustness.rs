//! Robustness net over the `AHP2` frame codec: hostile bytes map to
//! typed [`WireError`]s, never panics, and valid frames round-trip
//! bit-identically — including non-finite float payloads.

use std::io::Cursor;

use advhunter::{EventScore, Verdict};
use advhunter_tensor::{init, Tensor};
use advhunter_uarch::HpcEvent;
use advhunter_wire::{
    read_frame, ControlOp, Frame, MonitorRequest, Reject, RejectCode, WireError, WireStats,
    WireVerdict, HEADER_LEN, MAX_PAYLOAD, WIRE_MAGIC,
};
use proptest::collection;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic request frame: random image (rank 1–3), tenant, and
/// optional correlation id derived from `seed`.
fn sample_request(seed: u64) -> Frame {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims: Vec<usize> = match seed % 3 {
        0 => vec![1 + (seed % 7) as usize],
        1 => vec![2, 1 + (seed % 5) as usize],
        _ => vec![3, 2, 1 + (seed % 4) as usize],
    };
    let image: Tensor = init::uniform(&mut rng, &dims, -2.0, 2.0);
    let mut request = MonitorRequest::new(image).tenant(seed.rotate_left(17));
    if seed.is_multiple_of(2) {
        request = request.request_id(seed.wrapping_mul(31));
    }
    Frame::Request(request)
}

/// One frame of every kind, derived from `seed` so the corpus covers
/// empty payloads (StatsRequest), text (Reject), and float-bearing
/// payloads (Verdict).
fn sample_frames(seed: u64) -> Vec<Frame> {
    let scores: Vec<EventScore> = HpcEvent::ALL
        .iter()
        .take(1 + (seed % HpcEvent::ALL.len() as u64) as usize)
        .map(|&event| EventScore {
            event,
            nll: (seed as f64) * 0.125 - 3.0,
            threshold: (seed as f64) * 0.25 + 1.0,
        })
        .collect();
    vec![
        sample_request(seed),
        Frame::Verdict(WireVerdict {
            request_id: seed,
            correlation_id: (seed % 2 == 1).then_some(seed ^ 0xAB),
            tenant: seed % 5,
            config_epoch: seed % 9,
            verdict: Verdict::new((seed % 10) as usize, scores),
            hpc_anomalous: seed.is_multiple_of(2),
            query_correlated: seed.is_multiple_of(3),
            fingerprint: None,
            flagged: seed.is_multiple_of(2),
        }),
        Frame::StatsRequest,
        Frame::Stats(WireStats {
            submitted: seed,
            completed: seed / 2,
            shed: seed % 7,
            blocked: seed % 3,
            drained: seed % 5,
            batches: seed / 8,
            config_epoch: seed % 4,
            detector_swaps: seed % 2,
            drift_events: seed % 6,
        }),
        Frame::Control(match seed % 3 {
            0 => ControlOp::Pause,
            1 => ControlOp::Resume,
            _ => ControlOp::Shutdown,
        }),
        Frame::ControlAck {
            op: ControlOp::Resume,
            config_epoch: seed,
        },
        Frame::Reject(Reject {
            code: match seed % 6 {
                0 => RejectCode::Overloaded,
                1 => RejectCode::Closed,
                2 => RejectCode::Protocol,
                3 => RejectCode::BadRequest,
                4 => RejectCode::Denied,
                _ => RejectCode::Internal,
            },
            correlation_id: (seed.is_multiple_of(2)).then_some(seed),
            message: format!("reject #{seed}"),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every frame kind round-trips through encode/decode identically,
    /// both via the buffer codec and the stream reader.
    #[test]
    fn round_trip_is_the_identity(seed in any::<u64>()) {
        for frame in sample_frames(seed) {
            let bytes = frame.encode().expect("frame fits the payload cap");
            let (decoded, consumed) = Frame::decode(&bytes).expect("valid frame decodes");
            prop_assert_eq!(consumed, bytes.len());
            prop_assert_eq!(&decoded, &frame);
            let mut stream = Cursor::new(&bytes);
            prop_assert_eq!(read_frame(&mut stream).expect("stream decode"), Some(frame));
            prop_assert_eq!(read_frame(&mut stream).expect("clean EOF"), None);
        }
    }

    /// Arbitrary byte soup never panics the codec: every outcome is a
    /// clean `Ok` or a typed `WireError`.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..256usize)) {
        if let Ok((_, consumed)) = Frame::decode(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
        let _ = read_frame(&mut Cursor::new(&bytes));
    }

    /// Randomly corrupted valid frames never panic either — they decode
    /// to something or fail typed, but the process survives.
    #[test]
    fn mutated_frames_never_panic(seed in any::<u64>(), xor in 1u8..=255, pos_seed in any::<u64>()) {
        for frame in sample_frames(seed) {
            let mut bytes = frame.encode().expect("frame fits the payload cap");
            let pos = (pos_seed % bytes.len() as u64) as usize;
            bytes[pos] ^= xor;
            let _ = Frame::decode(&bytes);
            let _ = read_frame(&mut Cursor::new(&bytes));
        }
    }

    /// A frame cut anywhere before its end is `Truncated` from the
    /// buffer codec and `UnexpectedEof` from the stream reader; a cut at
    /// zero bytes is a clean end-of-stream.
    #[test]
    fn truncation_is_typed(seed in any::<u64>(), cut_seed in any::<u64>()) {
        for frame in sample_frames(seed) {
            let bytes = frame.encode().expect("frame fits the payload cap");
            let cut = 1 + (cut_seed % (bytes.len() as u64 - 1)) as usize;
            match Frame::decode(&bytes[..cut]) {
                Err(WireError::Truncated { needed, have }) => {
                    prop_assert_eq!(have, cut);
                    prop_assert!(needed > cut);
                    prop_assert!(needed <= bytes.len());
                }
                other => panic!("cut at {cut}/{} gave {other:?}", bytes.len()),
            }
            match read_frame(&mut Cursor::new(&bytes[..cut])) {
                Err(WireError::UnexpectedEof) => {}
                other => panic!("stream cut at {cut} gave {other:?}"),
            }
        }
        prop_assert!(matches!(read_frame(&mut Cursor::new(&[] as &[u8])), Ok(None)));
    }

    /// Each header field rejects corruption with its own error variant.
    #[test]
    fn header_corruption_is_typed(seed in any::<u64>(), byte in any::<u8>()) {
        let frame = sample_request(seed);
        let template = frame.encode().expect("frame fits the payload cap");

        // Magic: any first byte other than b'A' breaks the prefix.
        if byte != b'A' {
            let mut bytes = template.clone();
            bytes[0] = byte;
            prop_assert!(matches!(Frame::decode(&bytes), Err(WireError::BadMagic(_))));
        }
        // Version: `AHP` prefix with a different version byte is a
        // version problem, not a magic problem.
        if byte != WIRE_MAGIC[3] {
            let mut bytes = template.clone();
            bytes[3] = byte;
            prop_assert!(
                matches!(Frame::decode(&bytes), Err(WireError::UnsupportedVersion(v)) if v == byte)
            );
        }
        // Kind: tags outside 1..=7 are unknown.
        if byte == 0 || byte > 7 {
            let mut bytes = template.clone();
            bytes[4] = byte;
            prop_assert!(
                matches!(Frame::decode(&bytes), Err(WireError::UnknownKind(k)) if k == byte)
            );
        }
        // Flags: reserved bits must be zero.
        if byte != 0 {
            let mut bytes = template.clone();
            bytes[5] = byte;
            prop_assert!(
                matches!(Frame::decode(&bytes), Err(WireError::ReservedFlags(f)) if f == byte)
            );
        }
    }

    /// A declared length beyond the cap is refused from the header alone
    /// — no payload bytes are read or allocated first.
    #[test]
    fn oversize_declarations_are_refused(seed in any::<u64>(), extra in any::<u32>()) {
        let declared = MAX_PAYLOAD + 1 + extra % 4096;
        let mut bytes = sample_request(seed).encode().expect("frame fits the payload cap");
        bytes.truncate(HEADER_LEN);
        bytes[6..10].copy_from_slice(&declared.to_le_bytes());
        prop_assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::Oversize { declared: d, max: MAX_PAYLOAD }) if d == declared
        ));
        // The stream reader refuses too, despite the payload never
        // arriving (it would block forever if it tried to read it).
        prop_assert!(matches!(
            read_frame(&mut Cursor::new(&bytes)),
            Err(WireError::Oversize { .. })
        ));
    }

    /// Any single-byte payload flip is caught by the checksum (each of
    /// its steps is a bijection of the running state, so one changed byte
    /// always changes the digest).
    #[test]
    fn payload_corruption_fails_the_checksum(seed in any::<u64>(), xor in 1u8..=255, pos_seed in any::<u64>()) {
        for frame in sample_frames(seed) {
            let mut bytes = frame.encode().expect("frame fits the payload cap");
            let payload_len = bytes.len() - HEADER_LEN;
            if payload_len == 0 {
                continue;
            }
            let pos = HEADER_LEN + (pos_seed % payload_len as u64) as usize;
            bytes[pos] ^= xor;
            prop_assert!(matches!(
                Frame::decode(&bytes),
                Err(WireError::ChecksumMismatch { .. })
            ));
        }
    }
}

/// Back-to-back frames on one stream decode in order, then end cleanly.
#[test]
fn concatenated_frames_decode_in_sequence() {
    let frames = sample_frames(42);
    let mut bytes = Vec::new();
    for frame in &frames {
        bytes.extend_from_slice(&frame.encode().expect("frame fits the payload cap"));
    }
    let mut stream = Cursor::new(&bytes);
    for frame in &frames {
        assert_eq!(
            read_frame(&mut stream).expect("decode"),
            Some(frame.clone())
        );
    }
    assert!(matches!(read_frame(&mut stream), Ok(None)));
}

/// Non-finite image floats survive the wire bit-for-bit: NaN payloads
/// re-encode to the identical byte sequence (equality would lie here,
/// since NaN != NaN).
#[test]
fn non_finite_floats_round_trip_bit_identical() {
    let data = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1.5e-42];
    let image = Tensor::from_vec(data, &[5]).expect("tensor");
    let frame = Frame::Request(MonitorRequest::new(image).tenant(3).request_id(9));
    let bytes = frame.encode().expect("frame fits the payload cap");
    let (decoded, consumed) = Frame::decode(&bytes).expect("decode");
    assert_eq!(consumed, bytes.len());
    assert_eq!(decoded.encode().expect("re-encode"), bytes);
}

/// The encode side enforces the same payload cap as decode: a frame
/// whose payload would exceed `MAX_PAYLOAD` is a typed `Oversize` error
/// at encode time — not a silently truncated length field that would
/// desync the stream, and not a frame the peer rejects only after the
/// fact. `write_frame` refuses it before emitting a single byte.
#[test]
fn oversize_payload_is_refused_at_encode() {
    // MAX_PAYLOAD / 4 f32 elements put the payload just over the cap
    // once the tenant/id/dims preamble is added.
    let count = (MAX_PAYLOAD / 4) as usize;
    let image = Tensor::from_vec(vec![0.0f32; count], &[count]).expect("tensor");
    let frame = Frame::Request(MonitorRequest::new(image));
    assert!(matches!(
        frame.encode(),
        Err(WireError::Oversize {
            declared: _,
            max: MAX_PAYLOAD
        })
    ));
    let mut sink = Vec::new();
    assert!(matches!(
        advhunter_wire::write_frame(&mut sink, &frame),
        Err(WireError::Oversize { .. })
    ));
    assert!(sink.is_empty(), "nothing may be written on encode failure");
}

/// The request payload guards its element count before allocating: a
/// tiny frame declaring a gigantic image is malformed, not an OOM.
#[test]
fn huge_declared_image_is_malformed_not_oom() {
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_le_bytes()); // tenant
    payload.push(0); // no correlation id
    payload.push(4); // rank 4
    for _ in 0..4 {
        payload.extend_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
    }
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&WIRE_MAGIC);
    bytes.push(1); // Request
    bytes.push(0);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&advhunter::store::checksum(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    assert!(matches!(
        Frame::decode(&bytes),
        Err(WireError::Malformed(_))
    ));
}

/// A frame from an `AHP1` peer (byte-serial FNV-1a checksum) is refused
/// by its version byte, before its checksum is compared.
#[test]
fn an_ahp1_frame_is_an_unsupported_version() {
    let mut bytes = sample_request(7)
        .encode()
        .expect("frame fits the payload cap");
    bytes[..4].copy_from_slice(b"AHP1");
    assert!(matches!(
        Frame::decode(&bytes),
        Err(WireError::UnsupportedVersion(b'1'))
    ));
    assert!(matches!(
        read_frame(&mut Cursor::new(&bytes)),
        Err(WireError::UnsupportedVersion(b'1'))
    ));
}
