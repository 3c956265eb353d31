//! Content-addressed artifact store for the staged offline pipeline.
//!
//! The offline phase produces four artifact kinds — trained model
//! weights, per-class [`OfflineTemplate`](crate::OfflineTemplate)s, fitted
//! [`Detector`](crate::Detector)s, and per-geometry GEMM kernel-tuning
//! verdicts — each addressed by the
//! [`Fingerprint`] of everything that determined it (scenario, split
//! sizes, train config, measurement config, seeds, and upstream
//! fingerprints). Because every stage is thread-count-deterministic, the
//! bytes stored under a fingerprint are *the* bytes that recomputation
//! would produce, so a hit can be trusted without re-deriving anything.
//!
//! # On-disk layout
//!
//! ```text
//! <root>/
//!   models/<fingerprint>.ahs      AHW1 weight payload in an AHS2 envelope
//!   templates/<fingerprint>.ahs   AHT1 template payload in an AHS2 envelope
//!   detectors/<fingerprint>.ahs   AHD1 detector payload in an AHS2 envelope
//!   tune/<fingerprint>.ahs        1-byte kernel-variant tag in an AHS2 envelope
//! ```
//!
//! Each file is an `AHS2` envelope: 3-byte magic `AHS`, version byte `2`,
//! the artifact-kind tag, the fingerprint, the payload length, the
//! [`checksum`] of the payload, then the payload itself (the exact bytes
//! the `persist` module encodes). A file that fails *any* envelope check —
//! magic, version, kind, fingerprint, length, checksum — is evicted
//! (deleted) and reported as [`StoreLoad::Evicted`], so corruption
//! triggers recomputation rather than a bad load. An `AHS1` file (the
//! byte-serial FNV-1a checksum of earlier builds) fails the version check
//! and is rebuilt once. [`ArtifactStore::read`] checks the header alone,
//! so a caller can time the checksum apart with
//! [`StoreLoad::verify`].
//!
//! Writes are atomic (unique temp file + rename), so concurrent pipelines
//! sharing a store never observe half-written artifacts; because
//! computation is deterministic, racing writers produce identical bytes
//! and the race is benign.
//!
//! Store traffic is counted in the global `advhunter-telemetry` registry
//! (`advhunter_store_{hits,misses,evictions,writes}_total`).

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use advhunter_telemetry::{global, Counter};

use crate::persist::PersistError;

const STORE_MAGIC: &[u8; 3] = b"AHS";
const STORE_VERSION: u8 = b'2';
/// Envelope bytes before the payload: magic(3) + version(1) + kind(1) +
/// fingerprint(8) + payload_len(8) + checksum(8).
const HEADER_LEN: usize = 3 + 1 + 1 + 8 + 8 + 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Independent lanes of the payload [`checksum`].
const LANES: usize = 8;
/// The lane step's multiplier: odd, so the multiply is a bijection.
const LANE_K: u64 = 0x9e37_79b9_7f4a_7c15;
/// The lane step's rotation, which brings the product's well-mixed high
/// bits down to where the next word's low bits land.
const LANE_R: u32 = 31;

/// A stable 64-bit identity for a pipeline stage's complete input closure.
///
/// Two runs share a fingerprint exactly when every input that could change
/// the stage's output is identical: same scenario, same sizes, same seeds,
/// same config, same upstream fingerprints. Thread count is deliberately
/// *not* an input — results are thread-count-invariant, so the same
/// fingerprint is produced under any `ADVHUNTER_THREADS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Incremental FNV-1a hasher with typed, length-prefixed pushes.
///
/// Every push is framed (strings and byte slices are length-prefixed,
/// numbers are fixed-width little-endian), so distinct input sequences
/// cannot collide by concatenation. Builders start from a domain tag like
/// `"advhunter.pipeline.train-model.v1"`, which separates stage hash
/// domains and doubles as the format version: changing an encoding means
/// bumping the tag, which invalidates exactly that stage and downstream.
#[derive(Debug, Clone)]
pub struct FingerprintBuilder {
    state: u64,
}

impl FingerprintBuilder {
    /// Starts a fingerprint in the hash domain named by `tag`.
    #[must_use]
    pub fn new(tag: &str) -> Self {
        let mut b = Self { state: FNV_OFFSET };
        b.push_str(tag);
        b
    }

    fn absorb(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a length-prefixed byte slice.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.push_u64(bytes.len() as u64);
        self.absorb(bytes);
        self
    }

    /// Absorbs a length-prefixed UTF-8 string.
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.push_bytes(s.as_bytes())
    }

    /// Absorbs a `u64` as 8 little-endian bytes.
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.absorb(&v.to_le_bytes());
        self
    }

    /// Absorbs a `usize` widened to `u64` (stable across pointer widths).
    pub fn push_usize(&mut self, v: usize) -> &mut Self {
        self.push_u64(v as u64)
    }

    /// Absorbs an `f64` by its exact bit pattern.
    pub fn push_f64(&mut self, v: f64) -> &mut Self {
        self.push_u64(v.to_bits())
    }

    /// Absorbs an `f32` by its exact bit pattern.
    pub fn push_f32(&mut self, v: f32) -> &mut Self {
        self.push_u64(u64::from(v.to_bits()))
    }

    /// Chains an upstream stage's fingerprint into this one.
    pub fn push_fingerprint(&mut self, fp: Fingerprint) -> &mut Self {
        self.push_u64(fp.0)
    }

    /// Finalizes the fingerprint.
    #[must_use]
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

/// The payload checksum of store envelopes (`AHS2`) and wire frames
/// (`AHP2`).
///
/// Eight independent lanes each take every eighth little-endian `u64`
/// word as `lane = ((lane ^ word) * K).rotate_left(31)`: one multiply
/// per word, and no lane waits on another, so the multiplies overlap. The
/// lanes fold in order with the 64-bit FNV step, followed by the tail
/// (the last `len % 8` bytes, zero-padded to one word) and the length.
/// Each step is a bijection of the running state for a fixed input, so
/// any corruption confined to one word or to the tail changes the sum.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let lane_step = |lane: u64, word: &[u8; 8]| {
        (lane ^ u64::from_le_bytes(*word))
            .wrapping_mul(LANE_K)
            .rotate_left(LANE_R)
    };
    let fnv_step = |state: u64, word: u64| (state ^ word).wrapping_mul(FNV_PRIME);
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| FNV_OFFSET ^ i as u64);
    let (blocks, rest) = bytes.as_chunks::<{ 8 * LANES }>();
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = lane_step(*lane, word);
        }
    }
    let (words, tail) = rest.as_chunks::<8>();
    for (lane, word) in lanes.iter_mut().zip(words) {
        *lane = lane_step(*lane, word);
    }
    let mut padded = [0u8; 8];
    padded[..tail.len()].copy_from_slice(tail);
    let folded = lanes.into_iter().fold(FNV_OFFSET, fnv_step);
    let state = fnv_step(folded, u64::from_le_bytes(padded));
    fnv_step(state, bytes.len() as u64)
}

/// The artifact kinds the offline pipeline produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// Trained model weights (`AHW1` payload).
    ModelWeights,
    /// Collected per-class HPC template (`AHT1` payload).
    Template,
    /// Fitted + calibrated detector (`AHD1` payload).
    Detector,
    /// GEMM autotuner verdict for one layer geometry (1-byte
    /// kernel-variant tag payload).
    TuneTable,
}

impl ArtifactKind {
    /// All kinds, in pipeline order.
    pub const ALL: [Self; 4] = [
        Self::ModelWeights,
        Self::Template,
        Self::Detector,
        Self::TuneTable,
    ];

    /// The envelope tag byte identifying this kind.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            Self::ModelWeights => 1,
            Self::Template => 2,
            Self::Detector => 3,
            Self::TuneTable => 4,
        }
    }

    /// The store subdirectory holding this kind.
    #[must_use]
    pub fn dir_name(self) -> &'static str {
        match self {
            Self::ModelWeights => "models",
            Self::Template => "templates",
            Self::Detector => "detectors",
            Self::TuneTable => "tune",
        }
    }

    /// Human-readable label for status output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::ModelWeights => "model-weights",
            Self::Template => "template",
            Self::Detector => "detector",
            Self::TuneTable => "tune-table",
        }
    }
}

/// The outcome of an [`ArtifactStore::load`] (a verified [`Payload`]) or
/// an [`ArtifactStore::read`] (an [`Unverified`] artifact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreLoad<P = Payload> {
    /// The artifact was present and passed every envelope check (for
    /// [`read`](ArtifactStore::read): every check but the checksum).
    Hit(P),
    /// No artifact is stored under this fingerprint.
    Miss,
    /// An artifact was present but corrupt; it has been deleted so the
    /// caller recomputes instead of loading bad bytes.
    Evicted,
}

/// A stored artifact's payload, left in the buffer its file was read into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Payload {
    file: Vec<u8>,
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.file[HEADER_LEN..]
    }
}

/// An artifact whose envelope header checked out but whose payload
/// checksum has not been compared yet; [`StoreLoad::verify`] compares it.
#[derive(Debug)]
pub struct Unverified {
    payload: Payload,
    stored_sum: u64,
    path: PathBuf,
}

impl StoreLoad<Unverified> {
    /// Compares a read artifact's payload checksum: an intact artifact is
    /// a [`StoreLoad::Hit`]; a corrupt one is deleted and
    /// [`StoreLoad::Evicted`].
    #[must_use]
    pub fn verify(self) -> StoreLoad {
        match self {
            Self::Hit(artifact) if checksum(&artifact.payload) == artifact.stored_sum => {
                counters().hits.inc();
                StoreLoad::Hit(artifact.payload)
            }
            Self::Hit(artifact) => {
                evict(&artifact.path);
                StoreLoad::Evicted
            }
            Self::Miss => StoreLoad::Miss,
            Self::Evicted => StoreLoad::Evicted,
        }
    }
}

/// Deletes a corrupt artifact so the caller recomputes it.
fn evict(path: &Path) {
    let _ = fs::remove_file(path);
    counters().evictions.inc();
}

/// An on-disk, content-addressed store of offline-pipeline artifacts.
///
/// Cloning is cheap (the handle is just a root path); any number of
/// handles may share one directory, across threads and processes.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
}

struct StoreCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    writes: Arc<Counter>,
}

fn counters() -> &'static StoreCounters {
    static COUNTERS: OnceLock<StoreCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = global();
        StoreCounters {
            hits: r.counter(
                "advhunter_store_hits_total",
                "Artifact-store loads satisfied from disk",
            ),
            misses: r.counter(
                "advhunter_store_misses_total",
                "Artifact-store loads with no stored artifact",
            ),
            evictions: r.counter(
                "advhunter_store_evictions_total",
                "Corrupt artifacts deleted from the store",
            ),
            writes: r.counter(
                "advhunter_store_writes_total",
                "Artifacts written to the store",
            ),
        }
    })
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if the directory tree cannot be
    /// created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, PersistError> {
        let root = root.into();
        for kind in ArtifactKind::ALL {
            fs::create_dir_all(root.join(kind.dir_name()))?;
        }
        Ok(Self { root })
    }

    /// Opens the workspace-shared store under the advhunter cache
    /// directory (`ADVHUNTER_CACHE_DIR` or the workspace `target/`).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if the directory tree cannot be
    /// created.
    pub fn shared() -> Result<Self, PersistError> {
        Self::open(advhunter_nn::io::cache_dir().join("store"))
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path an artifact of `kind` with fingerprint `fp` lives at.
    #[must_use]
    pub fn path_for(&self, kind: ArtifactKind, fp: Fingerprint) -> PathBuf {
        self.root.join(kind.dir_name()).join(format!("{fp}.ahs"))
    }

    /// Loads the payload stored under `(kind, fp)`.
    ///
    /// Corrupt envelopes are deleted and reported as
    /// [`StoreLoad::Evicted`] — never surfaced as payload bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] only for filesystem failures other
    /// than the file being absent.
    pub fn load(&self, kind: ArtifactKind, fp: Fingerprint) -> Result<StoreLoad, PersistError> {
        Ok(self.read(kind, fp)?.verify())
    }

    /// Reads the artifact stored under `(kind, fp)` and checks every
    /// envelope field but the checksum, which [`StoreLoad::verify`] then
    /// compares ([`load`](Self::load) is the two in one call). A file that
    /// fails a header check is deleted and reported as
    /// [`StoreLoad::Evicted`].
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] only for filesystem failures other
    /// than the file being absent.
    pub fn read(
        &self,
        kind: ArtifactKind,
        fp: Fingerprint,
    ) -> Result<StoreLoad<Unverified>, PersistError> {
        let path = self.path_for(kind, fp);
        let file = match fs::read(&path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                counters().misses.inc();
                return Ok(StoreLoad::Miss);
            }
            Err(e) => return Err(PersistError::Io(e)),
        };
        match stored_checksum(&file, kind, fp) {
            Some(stored_sum) => Ok(StoreLoad::Hit(Unverified {
                payload: Payload { file },
                stored_sum,
                path,
            })),
            None => {
                evict(&path);
                Ok(StoreLoad::Evicted)
            }
        }
    }

    /// Stores `payload` under `(kind, fp)` atomically (temp file +
    /// rename), replacing any existing artifact.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on filesystem failures.
    pub fn save(
        &self,
        kind: ArtifactKind,
        fp: Fingerprint,
        payload: &[u8],
    ) -> Result<(), PersistError> {
        let path = self.path_for(kind, fp);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
        buf.extend_from_slice(STORE_MAGIC);
        buf.push(STORE_VERSION);
        buf.push(kind.tag());
        buf.extend_from_slice(&fp.0.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(&checksum(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        let tmp = path.with_extension(format!("tmp.{}.{}", std::process::id(), tmp_nonce()));
        fs::File::create(&tmp)?.write_all(&buf)?;
        fs::rename(&tmp, &path)?;
        counters().writes.inc();
        Ok(())
    }
}

/// Per-process monotonically increasing temp-file nonce, so concurrent
/// saves within one process never collide on the temp path.
fn tmp_nonce() -> u64 {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    NONCE.fetch_add(1, Ordering::Relaxed)
}

/// Validates an `AHS2` envelope's header against `kind`, `fp` and the
/// file's length, and returns the checksum it stores; `None` on any
/// structural failure.
fn stored_checksum(data: &[u8], kind: ArtifactKind, fp: Fingerprint) -> Option<u64> {
    if data.len() < HEADER_LEN {
        return None;
    }
    if &data[..3] != STORE_MAGIC || data[3] != STORE_VERSION || data[4] != kind.tag() {
        return None;
    }
    let stored_fp = u64::from_le_bytes(data[5..13].try_into().ok()?);
    if stored_fp != fp.0 {
        return None;
    }
    let payload_len = u64::from_le_bytes(data[13..21].try_into().ok()?);
    if data.len() - HEADER_LEN != usize::try_from(payload_len).ok()? {
        return None;
    }
    Some(u64::from_le_bytes(data[21..29].try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tempstore(name: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("advhunter-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ArtifactStore::open(dir).unwrap()
    }

    #[test]
    fn fingerprints_are_stable_and_order_sensitive() {
        let fp = |f: &mut FingerprintBuilder| f.finish();
        let mut a = FingerprintBuilder::new("tag");
        a.push_u64(1).push_str("x");
        let mut b = FingerprintBuilder::new("tag");
        b.push_u64(1).push_str("x");
        assert_eq!(fp(&mut a), fp(&mut b));
        let mut c = FingerprintBuilder::new("tag");
        c.push_str("x").push_u64(1);
        assert_ne!(fp(&mut a), fp(&mut c));
        let mut d = FingerprintBuilder::new("other");
        d.push_u64(1).push_str("x");
        assert_ne!(fp(&mut a), fp(&mut d));
    }

    #[test]
    fn framing_prevents_concatenation_collisions() {
        let mut a = FingerprintBuilder::new("t");
        a.push_str("ab").push_str("c");
        let mut b = FingerprintBuilder::new("t");
        b.push_str("a").push_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn save_then_load_round_trips() {
        let store = tempstore("roundtrip");
        let fp = Fingerprint(0xDEAD_BEEF);
        let payload = b"hello artifact".to_vec();
        store.save(ArtifactKind::Template, fp, &payload).unwrap();
        match store.load(ArtifactKind::Template, fp).unwrap() {
            StoreLoad::Hit(loaded) => assert_eq!(&*loaded, &payload[..]),
            other => panic!("expected a hit, got {other:?}"),
        }
    }

    #[test]
    fn read_defers_the_checksum_to_verify() {
        let store = tempstore("verify");
        let fp = Fingerprint(77);
        store
            .save(ArtifactKind::ModelWeights, fp, b"weights")
            .unwrap();
        let path = store.path_for(ArtifactKind::ModelWeights, fp);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let read = store.read(ArtifactKind::ModelWeights, fp).unwrap();
        assert!(matches!(read, StoreLoad::Hit(_)), "the header is intact");
        assert_eq!(read.verify(), StoreLoad::Evicted);
        assert!(!path.exists(), "a failed checksum evicts");
    }

    fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.gen::<u32>() as u8).collect()
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        let mut rng = StdRng::seed_from_u64(0xC4EC);
        for len in 0..=200usize {
            let mut payload = random_bytes(&mut rng, len);
            let sum = checksum(&payload);
            for bit in 0..8 * len {
                payload[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&payload), sum, "length {len}, bit {bit}");
                payload[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn one_byte_truncation_or_extension_changes_the_checksum() {
        let mut rng = StdRng::seed_from_u64(0x7A11);
        for len in (1..=200).chain([4095, 4096, 4097, 65_536]) {
            let payload = random_bytes(&mut rng, len);
            let sum = checksum(&payload);
            assert_ne!(checksum(&payload[..len - 1]), sum, "truncated {len}");
            for extra in [0u8, 1, 0xFF] {
                let mut extended = payload.clone();
                extended.push(extra);
                assert_ne!(checksum(&extended), sum, "extended {len} by {extra}");
            }
        }
    }

    /// Pins the function: a new checksum needs a new envelope version
    /// (and wire protocol version), never a silent change under `AHS2`.
    #[test]
    fn checksum_known_answers() {
        let counting: Vec<u8> = (0..=255).collect();
        let got = [
            checksum(b""),
            checksum(b"AdvHunter"),
            checksum(&counting),
            checksum(&[0u8; 4096]),
        ];
        assert_eq!(got, KNOWN_ANSWERS, "{got:#018x?}");
    }

    const KNOWN_ANSWERS: [u64; 4] = [
        0xfa86_3fba_d7ff_64bd,
        0x2bea_3c95_3708_e9f9,
        0x9b6b_762c_7bf5_9fef,
        0x564a_e53b_fba1_67a3,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A random single-byte XOR anywhere in a random payload of up to
        /// 64 KB changes the checksum.
        #[test]
        fn any_single_byte_xor_changes_the_checksum(
            seed in any::<u64>(),
            len in 1usize..=65_536,
            pos_seed in any::<u64>(),
            xor in 1u8..=255,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut payload = random_bytes(&mut rng, len);
            let sum = checksum(&payload);
            payload[(pos_seed % len as u64) as usize] ^= xor;
            prop_assert!(checksum(&payload) != sum);
        }
    }

    #[test]
    fn absent_artifact_is_a_miss() {
        let store = tempstore("miss");
        assert_eq!(
            store.load(ArtifactKind::Detector, Fingerprint(7)).unwrap(),
            StoreLoad::Miss
        );
    }

    #[test]
    fn kinds_are_isolated() {
        let store = tempstore("kinds");
        let fp = Fingerprint(42);
        store.save(ArtifactKind::ModelWeights, fp, b"w").unwrap();
        assert_eq!(
            store.load(ArtifactKind::Template, fp).unwrap(),
            StoreLoad::Miss
        );
    }

    #[test]
    fn corrupt_payload_is_evicted_then_missing() {
        let store = tempstore("corrupt");
        let fp = Fingerprint(99);
        store
            .save(ArtifactKind::Detector, fp, b"payload-bytes")
            .unwrap();
        let path = store.path_for(ArtifactKind::Detector, fp);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            store.load(ArtifactKind::Detector, fp).unwrap(),
            StoreLoad::Evicted
        );
        assert!(!path.exists(), "evicted artifact must be deleted");
        assert_eq!(
            store.load(ArtifactKind::Detector, fp).unwrap(),
            StoreLoad::Miss
        );
    }

    #[test]
    fn truncated_envelope_is_evicted() {
        let store = tempstore("trunc");
        let fp = Fingerprint(5);
        store
            .save(ArtifactKind::Template, fp, b"0123456789")
            .unwrap();
        let path = store.path_for(ArtifactKind::Template, fp);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert_eq!(
            store.load(ArtifactKind::Template, fp).unwrap(),
            StoreLoad::Evicted
        );
    }

    #[test]
    fn wrong_fingerprint_slot_is_evicted() {
        let store = tempstore("wrongfp");
        let a = Fingerprint(1);
        let b = Fingerprint(2);
        store.save(ArtifactKind::Detector, a, b"abc").unwrap();
        // Simulate a file landing in the wrong slot.
        fs::rename(
            store.path_for(ArtifactKind::Detector, a),
            store.path_for(ArtifactKind::Detector, b),
        )
        .unwrap();
        assert_eq!(
            store.load(ArtifactKind::Detector, b).unwrap(),
            StoreLoad::Evicted
        );
    }

    #[test]
    fn store_traffic_lands_in_global_counters() {
        let store = tempstore("telemetry");
        let before = advhunter_telemetry::global()
            .snapshot()
            .counter("advhunter_store_writes_total")
            .unwrap_or(0);
        store
            .save(ArtifactKind::Template, Fingerprint(11), b"t")
            .unwrap();
        let after = advhunter_telemetry::global()
            .snapshot()
            .counter("advhunter_store_writes_total")
            .unwrap();
        assert!(after > before);
    }
}
