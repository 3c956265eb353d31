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
use std::sync::Arc;

use advhunter_tensor::ops::{GemmGeometry, KernelVariant, PackedWeights};
use advhunter_tensor::Tensor;

use crate::{gemm_geometries, Conv2dLayer, Graph, LinearLayer, MatWeight, Op};

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
    /// Bytes follow the last tensor the data declares.
    TrailingBytes {
        /// How many.
        extra: usize,
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
            Self::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last weight tensor")
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
/// payload — the exact bytes [`save_weights`] writes to disk. A matrix
/// weight held as panels is written row-major, as it was packed from.
pub fn weights_to_bytes(graph: &Graph) -> Vec<u8> {
    let params = graph.param_tensors();
    let mut tensors: Vec<&Tensor> = params.iter().map(|t| &**t).collect();
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
/// graph with identical structure, every weight row-major.
///
/// # Errors
///
/// As [`weights_from_bytes_with`].
pub fn weights_from_bytes(graph: &mut Graph, data: &[u8]) -> Result<(), WeightsError> {
    weights_from_bytes_with(graph, data, &mut |_| None)
}

/// Decodes an `AHW1` byte payload produced by [`weights_to_bytes`] into a
/// graph with identical structure. `panels` is asked once per `Conv2d` and
/// `Linear` node, in node order, with the node's [`GemmGeometry`]: when it
/// names a variant, the node's weight is packed straight from the payload
/// bytes into that variant's panels ([`MatWeight::Panels`]), in the
/// allocation the row-major weight held, and no row-major copy is made;
/// otherwise it is decoded row-major.
///
/// # Errors
///
/// Returns a precise [`WeightsError`]: [`BadMagic`](WeightsError::BadMagic)
/// when the payload is not a weight encoding at all,
/// [`UnsupportedVersion`](WeightsError::UnsupportedVersion) on a format
/// bump, [`Truncated`](WeightsError::Truncated) when it ends early,
/// [`ShapeMismatch`](WeightsError::ShapeMismatch) when the tensor layout
/// does not match the graph, and
/// [`TrailingBytes`](WeightsError::TrailingBytes) when data follows the
/// last tensor. On any error `graph` is left untouched and `panels` is
/// never asked.
pub fn weights_from_bytes_with(
    graph: &mut Graph,
    data: &[u8],
    panels: &mut dyn FnMut(GemmGeometry) -> Option<KernelVariant>,
) -> Result<(), WeightsError> {
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

    let lens: Vec<usize> = graph
        .nodes()
        .iter()
        .filter_map(|n| n.op.param_lens())
        .flatten()
        .chain(graph.running_stat_tensors().iter().map(|t| t.len()))
        .collect();
    if lens.len() != count {
        return Err(WeightsError::ShapeMismatch {
            expected: lens.len(),
            actual: count,
        });
    }

    // Phase 1: locate every payload (with length checks deferred to phase
    // 2). Only slices are kept, so a failure costs a walk over the length
    // prefixes and nothing is allocated by a length field.
    let mut payloads: Vec<&[u8]> = Vec::with_capacity(count);
    for _ in 0..count {
        let len = u32::from_le_bytes(take(data, &mut cur, 4)?.try_into().unwrap()) as usize;
        payloads.push(take(data, &mut cur, len * 4)?);
    }
    if cur != data.len() {
        return Err(WeightsError::TrailingBytes {
            extra: data.len() - cur,
        });
    }

    // Phase 2: validate shapes, then write into the graph node by node.
    for (&len, p) in lens.iter().zip(&payloads) {
        if len != p.len() / 4 {
            return Err(WeightsError::ShapeMismatch {
                expected: len,
                actual: p.len() / 4,
            });
        }
    }
    let copy = |t: &mut Tensor, p: &[u8]| {
        for (v, c) in t.data_mut().iter_mut().zip(p.chunks_exact(4)) {
            *v = f32::from_le_bytes(c.try_into().unwrap());
        }
    };
    let mut payloads = payloads.into_iter();
    for (i, geometry) in gemm_geometries(graph).into_iter().enumerate() {
        let op = graph.op_mut(i);
        if op.param_lens().is_none() {
            continue;
        }
        let (w, b) = (payloads.next().unwrap(), payloads.next().unwrap());
        match (op, geometry.and_then(&mut *panels)) {
            (
                Op::Conv2d(Conv2dLayer { weight, bias, .. })
                | Op::Linear(LinearLayer { weight, bias }),
                Some(variant),
            ) => {
                // The panels reuse the row-major weight's allocation, which
                // a freshly built graph holds zeroed and never read.
                let (rows, k) = (weight.rows(), weight.k());
                let buf = match std::mem::replace(weight, MatWeight::RowMajor(Tensor::zeros(&[0])))
                {
                    MatWeight::RowMajor(t) => t.into_vec(),
                    MatWeight::Panels(_) => Vec::new(),
                };
                let packed = PackedWeights::pack_le_bytes_in(buf, w, rows, k, variant);
                *weight = MatWeight::Panels(Arc::new(packed));
                copy(bias, b);
            }
            (op, _) => {
                let [tw, tb] = op.params_mut().expect("a parameterized op");
                copy(tw, w);
                copy(tb, b);
            }
        }
    }
    for (t, p) in graph.running_stat_tensors_mut().into_iter().zip(payloads) {
        copy(t, p);
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
        let a = model(1);
        save_weights(&a, &path).unwrap();
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
        let small = model(1);
        save_weights(&small, &path).unwrap();
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
        save_weights(&a, &path).unwrap();
        let mut b = model(1);
        load_weights(&mut b, &path).unwrap();
        assert_eq!(a, b, "running statistics round-trip");
    }

    #[test]
    fn truncated_file_reports_needed_and_available() {
        let dir = tempdir("trunc");
        let path = dir.join("m.ahw");
        let a = model(1);
        save_weights(&a, &path).unwrap();
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
        let a = model(1);
        save_weights(&a, &path).unwrap();
        let file_bytes = fs::read(&path).unwrap();
        assert_eq!(weights_to_bytes(&a), file_bytes, "in-memory == on-disk");
        assert_eq!(&file_bytes[..4], b"AHW1", "magic+version must stay AHW1");
        let mut b = model(2);
        weights_from_bytes(&mut b, &file_bytes).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn trailing_bytes_are_rejected_and_leave_the_graph_untouched() {
        let mut bytes = weights_to_bytes(&model(1));
        bytes.push(0);
        let mut b = model(2);
        assert!(matches!(
            weights_from_bytes(&mut b, &bytes),
            Err(WeightsError::TrailingBytes { extra: 1 })
        ));
        assert_eq!(b, model(2));
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
