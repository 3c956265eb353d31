//! Robustness net over the three stored payload decoders a monitor boot
//! trusts — model weights (`AHW1`), templates (`AHT1`) and detectors
//! (`AHD1`) — fed with mutations of real artifacts from a tiny CaseStudy
//! pipeline run.
//!
//! Every proper prefix fails as [`PersistError::Truncated`]. A single-bit
//! flip or byte soup either fails with a typed [`PersistError`] or decodes
//! to a value that re-encodes to exactly the bytes given, so a decoder
//! never accepts bytes it did not read. Nothing panics, and a length field
//! is checked against the bytes that remain before it sizes anything.

use std::sync::OnceLock;

use advhunter::persist::{
    detector_from_bytes, detector_to_bytes, load_model_bytes, model_to_bytes, template_from_bytes,
    template_to_bytes,
};
use advhunter::scenario::ScenarioId;
use advhunter::{ArtifactStore, PersistError, Pipeline, PipelineConfig};
use advhunter_data::SplitSizes;
use advhunter_nn::Graph;
use advhunter_uarch::HpcEvent;
use proptest::collection;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Bytes per stored template sample: nine `f64` event readings.
const SAMPLE_BYTES: usize = 8 * HpcEvent::ALL.len();

/// The real payloads, plus the freshly compiled (untrained) graph the
/// model payload decodes into.
struct Artifacts {
    graph: Graph,
    model: Vec<u8>,
    template: Vec<u8>,
    detector: Vec<u8>,
}

fn artifacts() -> &'static Artifacts {
    static ARTIFACTS: OnceLock<Artifacts> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let config = PipelineConfig::for_scenario(ScenarioId::CaseStudy).with_sizes(SplitSizes {
            train: 30,
            val: 40,
            test: 10,
        });
        let root = std::env::temp_dir().join(format!(
            "advhunter-artifact-robustness-{}",
            std::process::id()
        ));
        let store = ArtifactStore::open(&root).expect("open scratch store");
        let (art, _) = Pipeline::new(config.clone(), store)
            .run()
            .expect("pipeline run");
        std::fs::remove_dir_all(root).ok();
        let spec = &config.spec;
        let graph = spec
            .build_graph(&mut StdRng::seed_from_u64(spec.model_seed))
            .expect("canonical spec compiles");
        Artifacts {
            graph,
            model: model_to_bytes(&art.model),
            template: template_to_bytes(&art.template),
            detector: detector_to_bytes(&art.detector),
        }
    })
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Model,
    Template,
    Detector,
}

const KINDS: [Kind; 3] = [Kind::Model, Kind::Template, Kind::Detector];

impl Kind {
    fn valid(self) -> &'static [u8] {
        let a = artifacts();
        match self {
            Kind::Model => &a.model,
            Kind::Template => &a.template,
            Kind::Detector => &a.detector,
        }
    }

    /// Decodes `bytes` (a model into `graph`) and re-encodes the result.
    fn round_trip(self, graph: &mut Graph, bytes: &[u8]) -> Result<Vec<u8>, PersistError> {
        match self {
            Kind::Model => load_model_bytes(graph, bytes).map(|()| model_to_bytes(graph)),
            Kind::Template => template_from_bytes(bytes).map(|t| template_to_bytes(&t)),
            Kind::Detector => detector_from_bytes(bytes).map(|d| detector_to_bytes(&d)),
        }
    }

    /// Byte offsets of the header and of every count or length field;
    /// everything else is `f32` or `f64` payload.
    fn structural_bytes(self) -> Vec<usize> {
        let data = self.valid();
        let u32_at = |pos: usize| u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        let mut out: Vec<usize> = (0..8).collect();
        match self {
            Kind::Model => {
                let mut pos = 8;
                for _ in 0..u32_at(4) {
                    out.extend(pos..pos + 4);
                    pos += 4 + 4 * u32_at(pos) as usize;
                }
            }
            Kind::Template => {
                let mut pos = 8;
                for _ in 0..u32_at(4) {
                    out.extend(pos..pos + 4);
                    pos += 4 + SAMPLE_BYTES * u32_at(pos) as usize;
                }
            }
            // Small enough to flip every bit.
            Kind::Detector => out = (0..data.len()).collect(),
        }
        out
    }
}

/// Asserts the decoder's contract for one mutated input: a typed error,
/// or a value that re-encodes to exactly `bytes`.
fn assert_typed_or_exact(kind: Kind, graph: &mut Graph, bytes: &[u8]) {
    if let Ok(encoded) = kind.round_trip(graph, bytes) {
        assert!(
            encoded == bytes,
            "{kind:?}: accepted {} bytes it does not re-encode",
            bytes.len()
        );
    }
}

#[test]
fn the_real_artifacts_round_trip() {
    let mut graph = artifacts().graph.clone();
    for kind in KINDS {
        assert_eq!(
            kind.round_trip(&mut graph, kind.valid())
                .expect("valid payload"),
            kind.valid(),
            "{kind:?}"
        );
    }
}

#[test]
fn every_truncation_fails_as_truncated() {
    let mut graph = artifacts().graph.clone();
    for kind in KINDS {
        let valid = kind.valid();
        for cut in 0..valid.len() {
            match kind.round_trip(&mut graph, &valid[..cut]) {
                Err(PersistError::Truncated { needed, available }) => {
                    assert!(needed > available, "{kind:?} cut at {cut}");
                }
                other => panic!("{kind:?} cut at {cut}: {other:?}"),
            }
        }
    }
    // A failed model decode leaves the graph untouched.
    assert_eq!(model_to_bytes(&graph), model_to_bytes(&artifacts().graph));
}

#[test]
fn every_structural_bit_flip_fails_typed_or_decodes_exactly() {
    let mut graph = artifacts().graph.clone();
    for kind in KINDS {
        let mut bytes = kind.valid().to_vec();
        for pos in kind.structural_bytes() {
            for bit in 0..8 {
                bytes[pos] ^= 1 << bit;
                match kind.round_trip(&mut graph, &bytes) {
                    Err(PersistError::BadMagic) => assert!(pos < 3, "{kind:?} at {pos}"),
                    Err(PersistError::UnsupportedVersion { .. }) => assert_eq!(pos, 3),
                    _ => assert_typed_or_exact(kind, &mut graph, &bytes),
                }
                bytes[pos] ^= 1 << bit;
            }
        }
    }
}

#[test]
fn maximal_length_fields_fail_before_allocating() {
    let set_u32 = |kind: Kind, pos: usize| {
        let mut bytes = kind.valid().to_vec();
        bytes[pos..pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes
    };
    fn truncated<T>(r: Result<T, PersistError>) -> bool {
        matches!(r, Err(PersistError::Truncated { .. }))
    }
    // Class counts, and the first class's sample count.
    assert!(truncated(template_from_bytes(&set_u32(Kind::Template, 4))));
    assert!(truncated(template_from_bytes(&set_u32(Kind::Template, 8))));
    assert!(truncated(detector_from_bytes(&set_u32(Kind::Detector, 4))));
    // The tensor count must match the graph; the first tensor's length
    // must fit.
    let mut graph = artifacts().graph.clone();
    assert!(matches!(
        load_model_bytes(&mut graph, &set_u32(Kind::Model, 4)),
        Err(PersistError::ShapeMismatch { .. })
    ));
    assert!(truncated(load_model_bytes(
        &mut graph,
        &set_u32(Kind::Model, 8)
    )));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A flip anywhere, payload included.
    #[test]
    fn any_bit_flip_fails_typed_or_decodes_exactly(pos_seed in any::<u64>(), bit in 0u32..8) {
        let mut graph = artifacts().graph.clone();
        for kind in KINDS {
            let mut bytes = kind.valid().to_vec();
            let pos = (pos_seed % bytes.len() as u64) as usize;
            bytes[pos] ^= 1 << bit;
            assert_typed_or_exact(kind, &mut graph, &bytes);
        }
    }

    /// Random bytes, bare or behind a prefix of a real artifact (so they
    /// get past the magic and into the length fields).
    #[test]
    fn byte_soup_fails_typed_or_decodes_exactly(
        soup in collection::vec(any::<u8>(), 0..512usize),
        prefix in 0usize..24,
    ) {
        let mut graph = artifacts().graph.clone();
        for kind in KINDS {
            assert_typed_or_exact(kind, &mut graph, &soup);
            let mut bytes = kind.valid()[..prefix].to_vec();
            bytes.extend_from_slice(&soup);
            assert_typed_or_exact(kind, &mut graph, &bytes);
        }
    }
}
