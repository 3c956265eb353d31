//! Artifact persistence: typed binary encodings for every offline-phase
//! artifact — fitted [`Detector`]s, trained model weights, and
//! [`OfflineTemplate`]s — so the (expensive) offline phase runs once per
//! deployment and its outputs survive on disk.
//!
//! Every encoding follows the same header discipline: a three-byte magic
//! (`AHD` detectors, `AHW` weights, `AHT` templates) plus a one-byte
//! format version (currently `1`). Detector files written by earlier
//! releases under the `AHD1` name load byte-identically; a future format
//! bump changes only the version byte, so old binaries reject new files
//! with a precise [`PersistError::UnsupportedVersion`] instead of a
//! generic parse failure.
//!
//! * Detectors: category count, then per category and per event an
//!   optional [`EventModel`] — threshold plus the GMM's weights, means,
//!   and variances, all little-endian `f64`.
//! * Model weights: the `advhunter_nn::io` `AHW1` encoding
//!   ([`advhunter_nn::io::weights_to_bytes`]), re-exposed here behind the
//!   same typed [`PersistError`].
//! * Templates: category count, then per category the sample count and
//!   each sample's nine event readings as little-endian `f64`.
//!
//! The byte-level entry points ([`detector_to_bytes`] /
//! [`detector_from_bytes`] and friends) are what the content-addressed
//! [`ArtifactStore`](crate::store::ArtifactStore) wraps; the `save_*` /
//! `load_*` pairs are thin file adapters over them.

use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

use advhunter_gmm::Gmm1d;
use advhunter_nn::io::WeightsError;
use advhunter_nn::Graph;
use advhunter_uarch::{HpcEvent, HpcSample};

use crate::detector::{Detector, EventModel};
use crate::offline::OfflineTemplate;

const MAGIC: &[u8; 3] = b"AHD";
/// The format version this build writes and the only one it reads.
const VERSION: u8 = b'1';

const TEMPLATE_MAGIC: &[u8; 3] = b"AHT";
const TEMPLATE_VERSION: u8 = b'1';

/// Error persisting or restoring an offline artifact.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The data does not start with the expected magic — not an artifact
    /// of the requested kind.
    BadMagic,
    /// The data is an artifact of the right kind, but of a format version
    /// this build does not understand.
    UnsupportedVersion {
        /// The version byte found in the data.
        found: u8,
        /// The version this build supports.
        supported: u8,
    },
    /// The data ended before the structure it declares was complete.
    Truncated {
        /// Bytes the parser needed at the point of failure.
        needed: usize,
        /// Bytes actually remaining in the data.
        available: usize,
    },
    /// A weight payload does not match the target graph's tensor layout.
    ShapeMismatch {
        /// What the graph expects.
        expected: usize,
        /// What the payload contains.
        actual: usize,
    },
    /// Structurally well-formed reads produced invalid content.
    Malformed(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "artifact I/O failed: {e}"),
            Self::BadMagic => write!(f, "not an artifact of the expected kind (bad magic)"),
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported detector format version {} (this build reads version {})",
                char::from(*found),
                char::from(*supported),
            ),
            Self::Truncated { needed, available } => write!(
                f,
                "truncated artifact: needed {needed} more bytes, {available} available"
            ),
            Self::ShapeMismatch { expected, actual } => write!(
                f,
                "weight payload mismatch: expected {expected}, found {actual}"
            ),
            Self::Malformed(what) => write!(f, "malformed artifact: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<WeightsError> for PersistError {
    fn from(e: WeightsError) -> Self {
        match e {
            WeightsError::Io(e) => Self::Io(e),
            WeightsError::BadMagic => Self::BadMagic,
            WeightsError::UnsupportedVersion { found, supported } => {
                Self::UnsupportedVersion { found, supported }
            }
            WeightsError::Truncated { needed, available } => Self::Truncated { needed, available },
            WeightsError::ShapeMismatch { expected, actual } => {
                Self::ShapeMismatch { expected, actual }
            }
            WeightsError::TrailingBytes { .. } => Self::Malformed("trailing bytes"),
            // `WeightsError` is non_exhaustive; any future variant is a
            // content-level failure.
            _ => Self::Malformed("unrecognized weight payload error"),
        }
    }
}

/// Encodes a fitted detector as an `AHD1` byte payload — the exact bytes
/// [`save_detector`] writes to disk.
pub fn detector_to_bytes(detector: &Detector) -> Vec<u8> {
    let mut buf: Vec<u8> = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    push_u32(&mut buf, detector.num_classes() as u32);
    push_u32(&mut buf, detector.events().len() as u32);
    for &event in detector.events() {
        push_u32(&mut buf, event.index() as u32);
    }
    for class in 0..detector.num_classes() {
        for event in HpcEvent::ALL {
            match detector.event_model(class, event) {
                None => buf.push(0),
                Some(model) => {
                    buf.push(1);
                    push_f64(&mut buf, model.threshold);
                    let k = model.gmm.num_components();
                    push_u32(&mut buf, k as u32);
                    for &w in model.gmm.weights() {
                        push_f64(&mut buf, w);
                    }
                    for &m in model.gmm.means() {
                        push_f64(&mut buf, m);
                    }
                    for &v in model.gmm.variances() {
                        push_f64(&mut buf, v);
                    }
                }
            }
        }
    }
    buf
}

/// Writes a fitted detector to `path`.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on filesystem failures.
pub fn save_detector(detector: &Detector, path: &Path) -> Result<(), PersistError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::File::create(path)?.write_all(&detector_to_bytes(detector))?;
    Ok(())
}

/// Loads a detector previously written by [`save_detector`].
///
/// # Errors
///
/// Returns [`PersistError`] if the file is missing ([`PersistError::Io`]),
/// not a detector file ([`PersistError::BadMagic`]), of a newer format
/// ([`PersistError::UnsupportedVersion`]), cut short
/// ([`PersistError::Truncated`]), or carries invalid content
/// ([`PersistError::Malformed`]).
pub fn load_detector(path: &Path) -> Result<Detector, PersistError> {
    let mut data = Vec::new();
    fs::File::open(path)?.read_to_end(&mut data)?;
    detector_from_bytes(&data)
}

/// Decodes an `AHD1` byte payload produced by [`detector_to_bytes`].
///
/// # Errors
///
/// Same contract as [`load_detector`], minus the filesystem cases.
pub fn detector_from_bytes(data: &[u8]) -> Result<Detector, PersistError> {
    let mut cur = 0usize;
    if take(data, &mut cur, MAGIC.len())? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = take(data, &mut cur, 1)?[0];
    if version != VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let num_classes = read_u32(data, &mut cur)? as usize;
    let num_events = read_u32(data, &mut cur)? as usize;
    if num_events > HpcEvent::ALL.len() {
        return Err(PersistError::Malformed("too many events"));
    }
    let mut events = Vec::with_capacity(num_events);
    for _ in 0..num_events {
        let idx = read_u32(data, &mut cur)? as usize;
        let event = *HpcEvent::ALL
            .get(idx)
            .ok_or(PersistError::Malformed("bad event index"))?;
        events.push(event);
    }
    // Every category takes at least one tag byte per event.
    ensure(data, cur, num_classes, HpcEvent::ALL.len())?;
    let mut models: Vec<Vec<Option<EventModel>>> = Vec::with_capacity(num_classes);
    for _ in 0..num_classes {
        let mut row: Vec<Option<EventModel>> = Vec::with_capacity(HpcEvent::ALL.len());
        for _ in HpcEvent::ALL {
            match take(data, &mut cur, 1)?[0] {
                0 => {
                    row.push(None);
                    continue;
                }
                1 => {}
                _ => return Err(PersistError::Malformed("bad event-model tag")),
            }
            let threshold = read_f64(data, &mut cur)?;
            let k = read_u32(data, &mut cur)? as usize;
            if k == 0 || k > 64 {
                return Err(PersistError::Malformed("bad component count"));
            }
            let mut read_k = || -> Result<Vec<f64>, PersistError> {
                (0..k).map(|_| read_f64(data, &mut cur)).collect()
            };
            let weights: Vec<f64> = read_k()?;
            let means: Vec<f64> = read_k()?;
            let variances: Vec<f64> = read_k()?;
            // Exactly the invariants `Gmm1d::from_parameters` asserts, so a
            // corrupt mixture fails typed instead of panicking there.
            let wsum: f64 = weights.iter().sum();
            let valid = (wsum - 1.0).abs() < 1e-6 && variances.iter().all(|&v| v > 0.0);
            if !valid {
                return Err(PersistError::Malformed("invalid mixture parameters"));
            }
            row.push(Some(EventModel {
                gmm: Gmm1d::from_parameters(weights, means, variances),
                threshold,
            }));
        }
        models.push(row);
    }
    finish(data, cur)?;
    Ok(Detector::from_parts(models, events))
}

/// Encodes a trained model's weights as an `AHW1` byte payload.
///
/// Delegates to [`advhunter_nn::io::weights_to_bytes`]; re-exposed here so
/// every artifact kind shares one encode/decode vocabulary.
pub fn model_to_bytes(graph: &Graph) -> Vec<u8> {
    advhunter_nn::io::weights_to_bytes(graph)
}

/// Restores model weights from an `AHW1` byte payload into `graph`.
///
/// # Errors
///
/// Returns [`PersistError`] with the same taxonomy as the detector loaders
/// ([`PersistError::BadMagic`], [`PersistError::UnsupportedVersion`],
/// [`PersistError::Truncated`], [`PersistError::ShapeMismatch`]).
pub fn load_model_bytes(graph: &mut Graph, data: &[u8]) -> Result<(), PersistError> {
    advhunter_nn::io::weights_from_bytes(graph, data)?;
    Ok(())
}

/// Encodes an [`OfflineTemplate`] as an `AHT1` byte payload: category
/// count, then per category the sample count and each sample's nine event
/// readings in [`HpcEvent::ALL`] order, all little-endian.
pub fn template_to_bytes(template: &OfflineTemplate) -> Vec<u8> {
    let mut buf: Vec<u8> = Vec::new();
    buf.extend_from_slice(TEMPLATE_MAGIC);
    buf.push(TEMPLATE_VERSION);
    push_u32(&mut buf, template.num_classes() as u32);
    for class in 0..template.num_classes() {
        let samples = template.class_samples(class);
        push_u32(&mut buf, samples.len() as u32);
        for sample in samples {
            for event in HpcEvent::ALL {
                push_f64(&mut buf, sample.get(event));
            }
        }
    }
    buf
}

/// Decodes an `AHT1` byte payload produced by [`template_to_bytes`].
///
/// # Errors
///
/// Returns [`PersistError::BadMagic`] for non-template data,
/// [`PersistError::UnsupportedVersion`] for a newer format,
/// [`PersistError::Truncated`] for short payloads, or
/// [`PersistError::Malformed`] when bytes follow the last sample.
pub fn template_from_bytes(data: &[u8]) -> Result<OfflineTemplate, PersistError> {
    let mut cur = 0usize;
    if take(data, &mut cur, TEMPLATE_MAGIC.len())? != TEMPLATE_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = take(data, &mut cur, 1)?[0];
    if version != TEMPLATE_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: TEMPLATE_VERSION,
        });
    }
    let num_classes = read_u32(data, &mut cur)? as usize;
    // Every category takes at least its four-byte sample count.
    ensure(data, cur, num_classes, 4)?;
    let mut per_class: Vec<Vec<HpcSample>> = Vec::with_capacity(num_classes);
    for _ in 0..num_classes {
        let num_samples = read_u32(data, &mut cur)? as usize;
        ensure(data, cur, num_samples, 8 * HpcEvent::ALL.len())?;
        let mut samples = Vec::with_capacity(num_samples);
        for _ in 0..num_samples {
            let mut sample = HpcSample::default();
            for event in HpcEvent::ALL {
                sample.set(event, read_f64(data, &mut cur)?);
            }
            samples.push(sample);
        }
        per_class.push(samples);
    }
    finish(data, cur)?;
    Ok(OfflineTemplate::from_samples(per_class))
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn take<'d>(data: &'d [u8], cur: &mut usize, n: usize) -> Result<&'d [u8], PersistError> {
    if *cur + n > data.len() {
        return Err(PersistError::Truncated {
            needed: n,
            available: data.len() - *cur,
        });
    }
    let s = &data[*cur..*cur + n];
    *cur += n;
    Ok(s)
}

/// Fails with [`PersistError::Truncated`] unless `count` records of at
/// least `min_size` bytes each fit in what remains after `cur` — checked
/// before any allocation is sized by `count`.
fn ensure(data: &[u8], cur: usize, count: usize, min_size: usize) -> Result<(), PersistError> {
    let available = data.len() - cur;
    let needed = count.saturating_mul(min_size);
    if needed > available {
        return Err(PersistError::Truncated { needed, available });
    }
    Ok(())
}

/// Fails with [`PersistError::Malformed`] if bytes follow the decoded
/// structure.
fn finish(data: &[u8], cur: usize) -> Result<(), PersistError> {
    if cur == data.len() {
        Ok(())
    } else {
        Err(PersistError::Malformed("trailing bytes"))
    }
}

fn read_u32(data: &[u8], cur: &mut usize) -> Result<u32, PersistError> {
    Ok(u32::from_le_bytes(take(data, cur, 4)?.try_into().unwrap()))
}

fn read_f64(data: &[u8], cur: &mut usize) -> Result<f64, PersistError> {
    Ok(f64::from_le_bytes(take(data, cur, 8)?.try_into().unwrap()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::OfflineTemplate;
    use crate::{Detector, DetectorConfig};
    use advhunter_uarch::HpcSample;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::path::PathBuf;

    fn tempfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("advhunter-persist-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn fitted() -> Detector {
        let mut rng = StdRng::seed_from_u64(0);
        let per_class = (0..3)
            .map(|c| {
                (0..40)
                    .map(|_| {
                        let mut s = HpcSample::default();
                        s.set(
                            HpcEvent::CacheMisses,
                            1_000.0 * (c + 1) as f64 + rng.gen_range(-20.0..20.0),
                        );
                        s.set(HpcEvent::Branches, 5_000.0 + rng.gen_range(-10.0..10.0));
                        s
                    })
                    .collect()
            })
            .collect();
        let template = OfflineTemplate::from_samples(per_class);
        Detector::fit(
            &template,
            &DetectorConfig::default(),
            &advhunter_runtime::ExecOptions::seeded(0),
        )
        .unwrap()
    }

    #[test]
    fn save_load_round_trips() {
        let d = fitted();
        let path = tempfile("d.ahd");
        save_detector(&d, &path).unwrap();
        let loaded = load_detector(&path).unwrap();
        assert_eq!(d, loaded);
    }

    #[test]
    fn header_is_the_legacy_ahd1_byte_string() {
        let d = fitted();
        let path = tempfile("header.ahd");
        save_detector(&d, &path).unwrap();
        let bytes = fs::read(&path).unwrap();
        assert_eq!(&bytes[..4], b"AHD1", "magic+version must stay AHD1");
    }

    #[test]
    fn parallel_fit_detector_round_trips_through_ahd1() {
        let mut rng = StdRng::seed_from_u64(3);
        let per_class: Vec<Vec<HpcSample>> = (0..3)
            .map(|c| {
                (0..40)
                    .map(|_| {
                        let mut s = HpcSample::default();
                        s.set(
                            HpcEvent::CacheMisses,
                            1_000.0 * (c + 1) as f64 + rng.gen_range(-20.0..20.0),
                        );
                        s
                    })
                    .collect()
            })
            .collect();
        let template = OfflineTemplate::from_samples(per_class);
        let d = Detector::fit(
            &template,
            &DetectorConfig::default(),
            &advhunter_runtime::ExecOptions::seeded(17).with_threads(4),
        )
        .unwrap();
        let path = tempfile("par.ahd");
        save_detector(&d, &path).unwrap();
        let loaded = load_detector(&path).unwrap();
        assert_eq!(d, loaded);
        let mut probe = HpcSample::default();
        probe.set(HpcEvent::CacheMisses, 1_950.0);
        let queries: Vec<(usize, HpcSample)> = (0..3).map(|c| (c, probe)).collect();
        assert_eq!(
            d.score_batch(
                &queries,
                HpcEvent::CacheMisses,
                &advhunter_runtime::Parallelism::new(2)
            ),
            loaded.score_batch(
                &queries,
                HpcEvent::CacheMisses,
                &advhunter_runtime::Parallelism::sequential()
            )
        );
    }

    #[test]
    fn loaded_detector_scores_identically() {
        let d = fitted();
        let path = tempfile("score.ahd");
        save_detector(&d, &path).unwrap();
        let loaded = load_detector(&path).unwrap();
        let mut probe = HpcSample::default();
        probe.set(HpcEvent::CacheMisses, 2_345.0);
        for class in 0..3 {
            assert_eq!(
                d.score(class, HpcEvent::CacheMisses, &probe),
                loaded.score(class, HpcEvent::CacheMisses, &probe)
            );
        }
    }

    #[test]
    fn garbage_is_rejected_as_bad_magic() {
        let path = tempfile("garbage.ahd");
        fs::write(&path, b"definitely not a detector").unwrap();
        assert!(matches!(load_detector(&path), Err(PersistError::BadMagic)));
    }

    #[test]
    fn future_version_is_rejected_with_both_versions() {
        let d = fitted();
        let path = tempfile("future.ahd");
        save_detector(&d, &path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[3] = b'2';
        fs::write(&path, &bytes).unwrap();
        match load_detector(&path) {
            Err(PersistError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, b'2');
                assert_eq!(supported, b'1');
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncation_reports_needed_and_available() {
        let d = fitted();
        let path = tempfile("trunc.ahd");
        save_detector(&d, &path).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        match load_detector(&path) {
            Err(PersistError::Truncated { needed, available }) => {
                assert!(available < needed, "needed {needed}, available {available}");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn header_only_file_is_truncated_not_malformed() {
        let path = tempfile("header-only.ahd");
        fs::write(&path, b"AHD1").unwrap();
        assert!(matches!(
            load_detector(&path),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_detector(Path::new("/definitely/not/here.ahd")),
            Err(PersistError::Io(_))
        ));
    }

    #[test]
    fn detector_bytes_match_the_file_bytes() {
        let d = fitted();
        let path = tempfile("bytes.ahd");
        save_detector(&d, &path).unwrap();
        assert_eq!(fs::read(&path).unwrap(), detector_to_bytes(&d));
        assert_eq!(detector_from_bytes(&detector_to_bytes(&d)).unwrap(), d);
    }

    fn tiny_model(seed: u64) -> advhunter_nn::Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = advhunter_nn::GraphBuilder::new(&[1, 4, 4]);
        let input = b.input();
        let f = b.flatten("f", input);
        b.linear("fc", f, 3, &mut rng);
        b.build()
    }

    #[test]
    fn model_bytes_round_trip_through_persist_error() {
        let mut graph = tiny_model(9);
        let bytes = model_to_bytes(&graph);
        assert_eq!(&bytes[..4], b"AHW1");
        let mut other = tiny_model(10);
        load_model_bytes(&mut other, &bytes).unwrap();
        assert_eq!(model_to_bytes(&other), bytes);
        assert!(matches!(
            load_model_bytes(&mut graph, b"AHT1"),
            Err(PersistError::BadMagic)
        ));
        assert!(matches!(
            load_model_bytes(&mut graph, &bytes[..bytes.len() - 3]),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn template_bytes_round_trip() {
        let mut rng = StdRng::seed_from_u64(5);
        let per_class: Vec<Vec<HpcSample>> = (0..3)
            .map(|c| {
                (0..7 + c)
                    .map(|_| {
                        let mut s = HpcSample::default();
                        for event in HpcEvent::ALL {
                            s.set(event, rng.gen_range(0.0..1e6));
                        }
                        s
                    })
                    .collect()
            })
            .collect();
        let template = OfflineTemplate::from_samples(per_class);
        let bytes = template_to_bytes(&template);
        assert_eq!(&bytes[..4], b"AHT1");
        let restored = template_from_bytes(&bytes).unwrap();
        assert_eq!(restored.num_classes(), template.num_classes());
        for class in 0..template.num_classes() {
            assert_eq!(restored.class_samples(class), template.class_samples(class));
        }
        assert_eq!(template_to_bytes(&restored), bytes);
    }

    #[test]
    fn template_rejects_wrong_kind_and_truncation() {
        let template = OfflineTemplate::from_samples(vec![vec![HpcSample::default()]]);
        let bytes = template_to_bytes(&template);
        assert!(matches!(
            template_from_bytes(b"AHD1"),
            Err(PersistError::BadMagic)
        ));
        let mut future = bytes.clone();
        future[3] = b'2';
        assert!(matches!(
            template_from_bytes(&future),
            Err(PersistError::UnsupportedVersion {
                found: b'2',
                supported: b'1'
            })
        ));
        assert!(matches!(
            template_from_bytes(&bytes[..bytes.len() - 5]),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut detector = detector_to_bytes(&fitted());
        detector.push(0);
        assert!(matches!(
            detector_from_bytes(&detector),
            Err(PersistError::Malformed("trailing bytes"))
        ));
        let template = OfflineTemplate::from_samples(vec![vec![HpcSample::default()]]);
        let mut bytes = template_to_bytes(&template);
        bytes.push(0);
        assert!(matches!(
            template_from_bytes(&bytes),
            Err(PersistError::Malformed("trailing bytes"))
        ));
    }

    #[test]
    fn errors_display_their_specifics() {
        let v = PersistError::UnsupportedVersion {
            found: b'2',
            supported: b'1',
        };
        assert_eq!(
            v.to_string(),
            "unsupported detector format version 2 (this build reads version 1)"
        );
        let t = PersistError::Truncated {
            needed: 8,
            available: 3,
        };
        assert!(t.to_string().contains("needed 8"));
        assert!(t.to_string().contains("3 available"));
    }
}
