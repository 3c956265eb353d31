//! The graph-spec (`.ahg`) contract: canonical serialization round-trips
//! bit-identically (so the content digest is stable), the four scenario
//! specs address the store exactly like the pre-redesign hardcoded
//! builders did, and the models they compile to are pinned by parameter
//! digest and trace counts, before and after training.

use std::sync::Arc;

use advhunter::persist::model_to_bytes;
use advhunter::scenario::ScenarioId;
use advhunter::{GraphSpec, Parallelism, PipelineConfig, Stage};
use advhunter_data::SplitSizes;
use advhunter_exec::TraceEngine;
use advhunter_nn::spec::{SpecNode, SpecOp, SpecSrc};
use advhunter_nn::train::{fit, TrainConfig};
use advhunter_nn::Graph;
use advhunter_tensor::init;
use advhunter_uarch::HpcEvent;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn every_checked_in_spec_roundtrips_bit_identically() {
    let mut count = 0;
    for entry in std::fs::read_dir("specs").expect("specs dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("ahg") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read spec");
        let spec = GraphSpec::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let canon = spec.to_canonical_string();
        let reparsed = GraphSpec::parse(&canon).expect("canonical text reparses");
        assert_eq!(reparsed, spec, "{}: reparse drifted", path.display());
        assert_eq!(
            reparsed.to_canonical_string(),
            canon,
            "{}: canonicalization is not a fixed point",
            path.display()
        );
        assert_eq!(reparsed.digest(), spec.digest(), "{}", path.display());
        count += 1;
    }
    assert!(count >= 16, "expected the full spec library, found {count}");
}

/// A small conv net with a residual add, parameterized enough to exercise
/// every serialization branch (explicit refs, default previous-node
/// inputs, unary chains).
fn synthetic_spec(w1: usize, w2: usize, fc: usize, classes: usize, seed: u64) -> GraphSpec {
    let conv = |out| SpecOp::Conv2d {
        out_channels: out,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let node = |name: &str, op: SpecOp, inputs: Vec<SpecSrc>| SpecNode {
        name: name.to_string(),
        op,
        inputs,
    };
    GraphSpec {
        name: format!("prop-{w1}-{w2}-{fc}-{classes}-{seed}"),
        model: "PropNet".to_string(),
        dataset: "cifar10-like".to_string(),
        input: [3, 16, 16],
        classes,
        target_class: classes - 1,
        dataset_seed: seed,
        model_seed: seed ^ 0xABCD,
        sizes: Default::default(),
        train: Default::default(),
        nodes: vec![
            node("c1", conv(w1), vec![SpecSrc::Input]),
            node("r1", SpecOp::ReLU, vec![SpecSrc::Node(0)]),
            node("c2", conv(w1), vec![SpecSrc::Node(1)]),
            node(
                "skip",
                SpecOp::Add,
                vec![SpecSrc::Node(2), SpecSrc::Node(1)],
            ),
            node(
                "pool",
                SpecOp::MaxPool2d { k: 2, s: 2 },
                vec![SpecSrc::Node(3)],
            ),
            node("c3", conv(w2), vec![SpecSrc::Node(4)]),
            node("r3", SpecOp::ReLU, vec![SpecSrc::Node(5)]),
            node("gap", SpecOp::GlobalAvgPool, vec![SpecSrc::Node(6)]),
            node(
                "fc1",
                SpecOp::Linear { out_features: fc },
                vec![SpecSrc::Node(7)],
            ),
            node("r4", SpecOp::ReLU, vec![SpecSrc::Node(8)]),
            node(
                "fc2",
                SpecOp::Linear {
                    out_features: classes,
                },
                vec![SpecSrc::Node(9)],
            ),
        ],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// parse(canonicalize(spec)) == spec, and the digest survives the trip.
    #[test]
    fn random_specs_roundtrip_through_canonical_text(
        w1 in 4usize..24,
        w2 in 4usize..24,
        fc in 8usize..64,
        classes in 2usize..12,
        seed in 0u64..1000,
    ) {
        let spec = synthetic_spec(w1, w2, fc, classes, seed);
        spec.validate().expect("generated spec is valid");
        let canon = spec.to_canonical_string();
        let reparsed = GraphSpec::parse(&canon).expect("canonical text reparses");
        prop_assert_eq!(&reparsed, &spec);
        prop_assert_eq!(reparsed.to_canonical_string(), canon);
        prop_assert_eq!(reparsed.digest(), spec.digest());
    }
}

#[test]
fn scenario_stage_fingerprints_are_golden() {
    // These literals pin the spec-addressed store layout for all four
    // canonical scenarios. The TrainModel row is the same recipe the
    // pre-redesign ScenarioId-keyed builders produced, so warm stores
    // survive the 0.8 API break; any drift here silently orphans every
    // cached artifact and must be deliberate.
    let expected: [(ScenarioId, [&str; 4]); 4] = [
        (
            ScenarioId::S1,
            [
                "1da6e6d5f4da8970",
                "79170799c8db3c83",
                "71e19f1295e3aa39",
                "e381b2153dc4543d",
            ],
        ),
        (
            ScenarioId::S2,
            [
                "5ba556749989bd0d",
                "4bb70bef1f0ba3fa",
                "ceb7c4d2247c4c6c",
                "73bcd772108ae428",
            ],
        ),
        (
            ScenarioId::S3,
            [
                "baab7d8d6f531419",
                "3fad6ba4e20867bc",
                "42454d323d8bd36f",
                "617ea72e1b3e5ab7",
            ],
        ),
        (
            ScenarioId::CaseStudy,
            [
                "9990407ccef04e52",
                "9970edffc4a23da1",
                "4cc87e0150697026",
                "2e674c5ad8b784ef",
            ],
        ),
    ];
    for (id, want) in expected {
        let config = PipelineConfig::for_spec(Arc::clone(id.spec()));
        let got: Vec<String> = Stage::ALL
            .iter()
            .map(|&s| config.fingerprint(s).to_string())
            .collect();
        assert_eq!(got, want, "{} fingerprints drifted", id.label());
    }
}

/// FNV-1a over the f32 bit patterns of every parameter, in node order.
fn param_digest(graph: &Graph) -> u64 {
    fnv1a(
        graph
            .param_tensors()
            .iter()
            .flat_map(|t| t.data().iter().flat_map(|v| v.to_bits().to_le_bytes())),
    )
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn canonical_spec_models_train_to_pinned_weights() {
    // Captured with the sequential reference training loop (per-image
    // matmul_bt / matmul_at convolution gradients, reference forward):
    // FNV-1a over the persisted model bytes (parameters and batch-norm
    // running statistics) after two epochs on three images per class,
    // batch 8, so every epoch ends on a partial batch.
    let expected: [(ScenarioId, u64); 4] = [
        (ScenarioId::S1, 0xd833_01ac_0479_9276),
        (ScenarioId::S2, 0x790f_63df_0b61_0925),
        (ScenarioId::S3, 0xeb68_7ab1_2ed2_ff19),
        (ScenarioId::CaseStudy, 0xc078_5f18_b366_2b16),
    ];
    let sizes = SplitSizes {
        train: 3,
        val: 2,
        test: 1,
    };
    for (id, want) in expected {
        let spec = id.spec();
        let split =
            id.dataset_family()
                .generate(spec.input, spec.classes, spec.dataset_seed, &sizes);
        assert_ne!(split.train.len() % 8, 0, "the last batch must be partial");
        let config = TrainConfig {
            epochs: 2,
            batch_size: 8,
            ..spec.train
        };
        for threads in [1, 2, 4] {
            let mut graph = spec
                .build_graph(&mut StdRng::seed_from_u64(spec.model_seed))
                .expect("spec compiles");
            fit(
                &mut graph,
                split.train.images(),
                split.train.labels(),
                &config,
                &Parallelism::new(threads),
                &mut StdRng::seed_from_u64(5),
            );
            assert_eq!(
                fnv1a(model_to_bytes(&graph)),
                want,
                "{}: trained weights drifted at {threads} threads",
                id.label()
            );
        }
    }
}

#[test]
fn canonical_spec_models_are_pinned() {
    // Captured while the retired hardcoded builders were still the
    // bit-for-bit oracle for the canonical specs: the compiled parameters
    // (FNV-1a over f32 bits) and the noiseless trace counts of one fixed
    // seeded image, in `HpcEvent::ALL` order.
    let expected: [(ScenarioId, u64, [u64; 9]); 4] = [
        (
            ScenarioId::S1,
            0xc32d_17b7_2cd1_e937,
            [1172425, 98725, 73, 48503, 5467, 14847, 576, 763, 4704],
        ),
        (
            ScenarioId::S2,
            0x3271_af4d_f894_7bd4,
            [2903628, 87012, 38, 72421, 32131, 42389, 320, 29043, 3088],
        ),
        (
            ScenarioId::S3,
            0x4598_e160_3b29_0c29,
            [3024403, 54787, 62, 105811, 26841, 38719, 384, 4418, 22423],
        ),
        (
            ScenarioId::CaseStudy,
            0x61f1_1a61_6d6d_f0a2,
            [1813788, 27316, 25, 26068, 10403, 12740, 256, 8346, 2057],
        ),
    ];
    for (id, want_digest, want_counts) in expected {
        let spec = id.spec();
        let graph = spec
            .build_graph(&mut StdRng::seed_from_u64(spec.model_seed))
            .expect("spec compiles");
        let image = init::uniform(&mut StdRng::seed_from_u64(11), &spec.input, 0.0, 1.0);
        let counts = TraceEngine::new(&graph).true_counts(&graph, &image);
        let got: Vec<u64> = HpcEvent::ALL.iter().map(|&e| counts.get(e)).collect();
        assert_eq!(
            param_digest(&graph),
            want_digest,
            "{}: parameters drifted",
            id.label()
        );
        assert_eq!(got, want_counts, "{}: trace counts drifted", id.label());
    }
}
