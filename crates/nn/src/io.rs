//! Weight persistence: a small explicit binary format, plus the cache
//! directory the artifact store keeps trained models under.
//!
//! Format (`AHW1`): the `AHW` magic, a one-byte format version (currently
//! `1`, making the header the familiar `AHW1` byte string), tensor count,
//! then for each tensor its element count and little-endian `f32` payload.
//! Weights are stored in [`Graph::param_tensors`] order followed by the
//! batch-norm running statistics, so the format is only meaningful
//! together with the graph structure (which a spec compiles
//! deterministically from its model seed).
//!
//! [`weights_to_bytes`] / [`weights_from_bytes`] expose the encoding
//! without touching the filesystem; the artifact store in `advhunter`
//! reuses them so a stored model payload is byte-identical to an `.ahw`
//! file written by [`save_weights`].

use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use advhunter_tensor::Tensor;

use crate::Graph;

const MAGIC: &[u8; 3] = b"AHW";
/// The format version this build writes and the only one it reads.
const VERSION: u8 = b'1';

/// Error loading or saving model weights.
#[derive(Debug)]
#[non_exhaustive]
pub enum WeightsError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The data does not start with the `AHW` magic — not a weight file.
    BadMagic,
    /// The data is a weight file, but of a format version this build does
    /// not understand.
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
        /// Bytes actually remaining.
        available: usize,
    },
    /// Tensor count or element counts do not match the graph.
    ShapeMismatch {
        /// What the graph expects.
        expected: usize,
        /// What the file contains.
        actual: usize,
    },
}

impl fmt::Display for WeightsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "weight file I/O failed: {e}"),
            Self::BadMagic => write!(f, "not a weight file (missing AHW magic)"),
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported weight format version {} (this build reads version {})",
                char::from(*found),
                char::from(*supported),
            ),
            Self::Truncated { needed, available } => write!(
                f,
                "truncated weight data: needed {needed} more bytes, {available} available"
            ),
            Self::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "weight file mismatch: expected {expected}, found {actual}"
                )
            }
        }
    }
}

impl std::error::Error for WeightsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WeightsError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Encodes a graph's parameters and running statistics as an `AHW1` byte
/// payload — the exact bytes [`save_weights`] writes to disk.
pub fn weights_to_bytes(graph: &Graph) -> Vec<u8> {
    let mut tensors: Vec<&Tensor> = graph.param_tensors();
    tensors.extend(graph.running_stat_tensors());
    let mut buf: Vec<u8> = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    buf.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
    for t in &tensors {
        buf.extend_from_slice(&(t.len() as u32).to_le_bytes());
        for &v in t.data() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    buf
}

/// Writes a graph's parameters and running statistics to `path`.
///
/// # Errors
///
/// Returns [`WeightsError::Io`] on filesystem failures.
pub fn save_weights(graph: &Graph, path: &Path) -> Result<(), WeightsError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::File::create(path)?.write_all(&weights_to_bytes(graph))?;
    Ok(())
}

/// Loads parameters and running statistics saved by [`save_weights`] into a
/// graph with identical structure.
///
/// # Errors
///
/// Returns [`WeightsError`] if the file is malformed or its tensor layout
/// does not match the graph.
pub fn load_weights(graph: &mut Graph, path: &Path) -> Result<(), WeightsError> {
    let mut f = fs::File::open(path)?;
    let mut data = Vec::new();
    f.read_to_end(&mut data)?;
    weights_from_bytes(graph, &data)
}

/// Decodes an `AHW1` byte payload produced by [`weights_to_bytes`] into a
/// graph with identical structure.
///
/// # Errors
///
/// Returns a precise [`WeightsError`]: [`BadMagic`](WeightsError::BadMagic)
/// when the payload is not a weight encoding at all,
/// [`UnsupportedVersion`](WeightsError::UnsupportedVersion) on a format
/// bump, [`Truncated`](WeightsError::Truncated) when it ends early, and
/// [`ShapeMismatch`](WeightsError::ShapeMismatch) when the tensor layout
/// does not match the graph.
pub fn weights_from_bytes(graph: &mut Graph, data: &[u8]) -> Result<(), WeightsError> {
    let mut cur = 0usize;

    if take(data, &mut cur, MAGIC.len())? != MAGIC {
        return Err(WeightsError::BadMagic);
    }
    let version = take(data, &mut cur, 1)?[0];
    if version != VERSION {
        return Err(WeightsError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let count = u32::from_le_bytes(take(data, &mut cur, 4)?.try_into().unwrap()) as usize;

    let expected = graph.param_tensors().len() + graph.running_stat_tensors().len();
    if expected != count {
        return Err(WeightsError::ShapeMismatch {
            expected,
            actual: count,
        });
    }

    // Phase 1: parse every payload (with length checks deferred to phase 2).
    let mut payloads: Vec<Vec<f32>> = Vec::with_capacity(count);
    for _ in 0..count {
        let len = u32::from_le_bytes(take(data, &mut cur, 4)?.try_into().unwrap()) as usize;
        let bytes = take(data, &mut cur, len * 4)?;
        payloads.push(
            bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        );
    }

    // Phase 2: validate shapes, then copy into the graph.
    {
        let params = graph.param_tensors();
        let running = graph.running_stat_tensors();
        for (t, p) in params.iter().chain(running.iter()).zip(payloads.iter()) {
            if t.len() != p.len() {
                return Err(WeightsError::ShapeMismatch {
                    expected: t.len(),
                    actual: p.len(),
                });
            }
        }
    }
    let n_params = graph.param_tensors().len();
    for (t, p) in graph
        .param_tensors_mut()
        .iter_mut()
        .zip(&payloads[..n_params])
    {
        t.data_mut().copy_from_slice(p);
    }
    for (t, p) in graph
        .running_stat_tensors_mut()
        .iter_mut()
        .zip(&payloads[n_params..])
    {
        t.data_mut().copy_from_slice(p);
    }
    Ok(())
}

fn take<'d>(data: &'d [u8], cur: &mut usize, n: usize) -> Result<&'d [u8], WeightsError> {
    if *cur + n > data.len() {
        return Err(WeightsError::Truncated {
            needed: n,
            available: data.len() - *cur,
        });
    }
    let s = &data[*cur..*cur + n];
    *cur += n;
    Ok(s)
}

/// The directory used to cache trained models, honoring
/// `ADVHUNTER_CACHE_DIR` and defaulting to `target/advhunter-cache` under
/// the workspace.
///
/// The default is anchored at this crate's compile-time location rather
/// than the process working directory, so binaries, tests, and `cargo
/// bench` targets (which run with different working directories) all share
/// one cache.
pub fn cache_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("ADVHUNTER_CACHE_DIR") {
        return PathBuf::from(dir);
    }
    if let Ok(target) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(target).join("advhunter-cache");
    }
    let workspace_target = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("target");
    if workspace_target.exists() {
        return workspace_target.join("advhunter-cache");
    }
    PathBuf::from("target").join("advhunter-cache")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, Mode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(&[1, 4, 4]);
        let input = b.input();
        let c = b.conv2d("c", input, 2, 3, 1, 1, &mut rng);
        let bn = b.batchnorm("bn", c);
        let r = b.relu("r", bn);
        let g = b.global_avgpool("g", r);
        b.linear("fc", g, 2, &mut rng);
        b.build()
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("advhunter-io-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trips_exactly() {
        let dir = tempdir("roundtrip");
        let path = dir.join("m.ahw");
        let mut a = model(1);
        save_weights(&mut a, &path).unwrap();
        let mut b = model(2); // different random weights
        assert_ne!(a, b);
        load_weights(&mut b, &path).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = tempdir("garbage");
        let path = dir.join("bad.ahw");
        fs::write(&path, b"not a weight file").unwrap();
        let mut g = model(1);
        assert!(matches!(
            load_weights(&mut g, &path),
            Err(WeightsError::BadMagic)
        ));
    }

    #[test]
    fn load_rejects_mismatched_model() {
        let dir = tempdir("mismatch");
        let path = dir.join("m.ahw");
        let mut small = model(1);
        save_weights(&mut small, &path).unwrap();
        // A structurally different model must refuse the file.
        let mut rng = StdRng::seed_from_u64(9);
        let mut b = GraphBuilder::new(&[1, 4, 4]);
        let input = b.input();
        let f = b.flatten("f", input);
        b.linear("fc", f, 5, &mut rng);
        let mut other = b.build();
        assert!(matches!(
            load_weights(&mut other, &path),
            Err(WeightsError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn running_stats_are_persisted() {
        let dir = tempdir("running");
        let path = dir.join("m.ahw");
        let mut a = model(1);
        // Push the running stats away from their init via a train pass.
        let mut rng = StdRng::seed_from_u64(5);
        let x = advhunter_tensor::init::normal(&mut rng, &[8, 1, 4, 4], 3.0, 1.0);
        let t = a.forward(&x, Mode::Train);
        a.update_running_stats(&t);
        save_weights(&mut a, &path).unwrap();
        let mut b = model(1);
        load_weights(&mut b, &path).unwrap();
        assert_eq!(a, b, "running statistics round-trip");
    }

    #[test]
    fn truncated_file_reports_needed_and_available() {
        let dir = tempdir("trunc");
        let path = dir.join("m.ahw");
        let mut a = model(1);
        save_weights(&mut a, &path).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let mut b = model(1);
        match load_weights(&mut b, &path) {
            Err(WeightsError::Truncated { needed, available }) => {
                assert!(available < needed, "needed {needed}, available {available}");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn bytes_round_trip_matches_the_file_format() {
        let dir = tempdir("bytes");
        let path = dir.join("m.ahw");
        let mut a = model(1);
        save_weights(&mut a, &path).unwrap();
        let file_bytes = fs::read(&path).unwrap();
        assert_eq!(weights_to_bytes(&a), file_bytes, "in-memory == on-disk");
        assert_eq!(&file_bytes[..4], b"AHW1", "magic+version must stay AHW1");
        let mut b = model(2);
        weights_from_bytes(&mut b, &file_bytes).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn future_version_is_rejected_with_both_versions() {
        let a = model(1);
        let mut bytes = weights_to_bytes(&a);
        bytes[3] = b'2';
        let mut b = model(1);
        match weights_from_bytes(&mut b, &bytes) {
            Err(WeightsError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, b'2');
                assert_eq!(supported, b'1');
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }
}
