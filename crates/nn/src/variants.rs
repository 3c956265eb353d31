//! The generated spec library: the four canonical scenario architectures
//! plus width/depth sweeps of each family and an encoder–decoder topology,
//! all as [`GraphSpec`] values.
//!
//! [`canonical_scenarios`] is the source of the four paper architectures;
//! compiling one under its scenario's model seed yields the model every
//! scenario trains (pinned by parameter digest and trace counts in
//! `tests/spec_roundtrip.rs`). [`all`] is the sweep library the
//! `gen_specs` example materializes under `specs/`; every entry runs
//! end-to-end through `advhunter pipeline --tiny --graph`.

use crate::spec::{GraphSpec, SpecNode, SpecOp, SpecSizes, SpecSrc};
use crate::train::TrainConfig;

/// Incrementally assembles a node list with name-based references,
/// mirroring how `GraphBuilder` is driven.
struct NodeList {
    nodes: Vec<SpecNode>,
}

impl NodeList {
    fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    fn push(&mut self, name: &str, op: SpecOp, inputs: Vec<SpecSrc>) -> SpecSrc {
        debug_assert_eq!(inputs.len(), op.arity());
        self.nodes.push(SpecNode {
            name: name.to_string(),
            op,
            inputs,
        });
        SpecSrc::Node(self.nodes.len() - 1)
    }

    fn conv2d(
        &mut self,
        name: &str,
        input: SpecSrc,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> SpecSrc {
        self.push(
            name,
            SpecOp::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
            },
            vec![input],
        )
    }

    fn unary(&mut self, name: &str, op: SpecOp, input: SpecSrc) -> SpecSrc {
        self.push(name, op, vec![input])
    }
}

#[allow(clippy::too_many_arguments)]
fn spec(
    name: &str,
    model: &str,
    dataset: &str,
    input: [usize; 3],
    classes: usize,
    target_class: usize,
    dataset_seed: u64,
    model_seed: u64,
    nodes: Vec<SpecNode>,
) -> GraphSpec {
    let s = GraphSpec {
        name: name.to_string(),
        model: model.to_string(),
        dataset: dataset.to_string(),
        input,
        classes,
        target_class,
        dataset_seed,
        model_seed,
        sizes: SpecSizes::default(),
        train: TrainConfig::default(),
        nodes,
    };
    debug_assert!(s.validate().is_ok(), "generated spec `{name}` is invalid");
    s
}

/// Case-study-CNN family: `widths[b]`-channel double-conv blocks, each
/// followed by a 2×2 max pool, then a `fc_dim` hidden classifier.
fn case_study_nodes(widths: &[usize], fc_dim: usize, classes: usize) -> Vec<SpecNode> {
    let mut b = NodeList::new();
    let mut x = SpecSrc::Input;
    let mut i = 0;
    for (block, &w) in widths.iter().enumerate() {
        for _ in 0..2 {
            i += 1;
            x = b.conv2d(&format!("conv{i}"), x, w, 3, 1, 1);
            x = b.unary(&format!("act{i}"), SpecOp::ReLU, x);
        }
        x = b.push(
            &format!("pool{}", block + 1),
            SpecOp::MaxPool2d { k: 2, s: 2 },
            vec![x],
        );
    }
    x = b.unary("flatten", SpecOp::Flatten, x);
    x = b.unary(
        "fc1",
        SpecOp::Linear {
            out_features: fc_dim,
        },
        x,
    );
    x = b.unary(&format!("act{}", i + 1), SpecOp::ReLU, x);
    b.unary(
        "fc2",
        SpecOp::Linear {
            out_features: classes,
        },
        x,
    );
    b.nodes
}

/// ResNet family: stem, then one basic block per `(out_c, stride)` stage,
/// then the weight-heavy classifier head.
fn resnet_nodes(
    stem_c: usize,
    stages: &[(usize, usize)],
    fc_dim: usize,
    classes: usize,
) -> Vec<SpecNode> {
    let mut b = NodeList::new();
    let stem = b.conv2d("stem.conv", SpecSrc::Input, stem_c, 3, 1, 1);
    let bn = b.unary("stem.bn", SpecOp::BatchNorm2d, stem);
    let mut x = b.unary("stem.act", SpecOp::ReLU, bn);
    for (i, &(out_c, stride)) in stages.iter().enumerate() {
        let name = format!("layer{}.0", i + 1);
        let input = x;
        let c1 = b.conv2d(&format!("{name}.conv1"), input, out_c, 3, stride, 1);
        let bn1 = b.unary(&format!("{name}.bn1"), SpecOp::BatchNorm2d, c1);
        let a1 = b.unary(&format!("{name}.act1"), SpecOp::ReLU, bn1);
        let c2 = b.conv2d(&format!("{name}.conv2"), a1, out_c, 3, 1, 1);
        let bn2 = b.unary(&format!("{name}.bn2"), SpecOp::BatchNorm2d, c2);
        let shortcut = if stride != 1 {
            let sc = b.conv2d(&format!("{name}.down.conv"), input, out_c, 1, stride, 0);
            b.unary(&format!("{name}.down.bn"), SpecOp::BatchNorm2d, sc)
        } else {
            input
        };
        let sum = b.push(&format!("{name}.add"), SpecOp::Add, vec![bn2, shortcut]);
        x = b.unary(&format!("{name}.act2"), SpecOp::ReLU, sum);
    }
    let f = b.unary("flatten", SpecOp::Flatten, x);
    let fc1 = b.unary(
        "head.fc1",
        SpecOp::Linear {
            out_features: fc_dim,
        },
        f,
    );
    let act = b.unary("head.act", SpecOp::ReLU, fc1);
    b.unary(
        "fc",
        SpecOp::Linear {
            out_features: classes,
        },
        act,
    );
    b.nodes
}

/// EfficientNet family: stem, one MBConv per `(expand_c, out_c, stride)`
/// entry (with a residual add whenever shape is preserved), conv head,
/// then the classifier.
fn effnet_nodes(
    stem_c: usize,
    mbs: &[(usize, usize, usize)],
    head_c: usize,
    fc_dim: usize,
    classes: usize,
) -> Vec<SpecNode> {
    let mut b = NodeList::new();
    let stem = b.conv2d("stem.conv", SpecSrc::Input, stem_c, 3, 1, 1);
    let bn = b.unary("stem.bn", SpecOp::BatchNorm2d, stem);
    let mut x = b.unary("stem.act", SpecOp::SiLU, bn);
    let mut prev_c = stem_c;
    for (i, &(expand_c, out_c, stride)) in mbs.iter().enumerate() {
        let name = format!("mb{}", i + 1);
        let input = x;
        let e = b.conv2d(&format!("{name}.expand.conv"), input, expand_c, 1, 1, 0);
        let ebn = b.unary(&format!("{name}.expand.bn"), SpecOp::BatchNorm2d, e);
        let ea = b.unary(&format!("{name}.expand.act"), SpecOp::SiLU, ebn);
        let dw = b.push(
            &format!("{name}.dw.conv"),
            SpecOp::DwConv2d {
                kernel: 3,
                stride,
                padding: 1,
            },
            vec![ea],
        );
        let dwbn = b.unary(&format!("{name}.dw.bn"), SpecOp::BatchNorm2d, dw);
        let dwa = b.unary(&format!("{name}.dw.act"), SpecOp::SiLU, dwbn);
        let gap = b.unary(&format!("{name}.se.gap"), SpecOp::GlobalAvgPool, dwa);
        let fc1 = b.unary(
            &format!("{name}.se.fc1"),
            SpecOp::Linear {
                out_features: (expand_c / 4).max(4),
            },
            gap,
        );
        let sa = b.unary(&format!("{name}.se.act"), SpecOp::SiLU, fc1);
        let fc2 = b.unary(
            &format!("{name}.se.fc2"),
            SpecOp::Linear {
                out_features: expand_c,
            },
            sa,
        );
        let gate = b.unary(&format!("{name}.se.gate"), SpecOp::Sigmoid, fc2);
        let scaled = b.push(
            &format!("{name}.se.scale"),
            SpecOp::ScaleChannels,
            vec![dwa, gate],
        );
        let p = b.conv2d(&format!("{name}.project.conv"), scaled, out_c, 1, 1, 0);
        let out = b.unary(&format!("{name}.project.bn"), SpecOp::BatchNorm2d, p);
        // Residual skip whenever the block preserves shape.
        x = if stride == 1 && out_c == prev_c && i > 0 {
            b.push(&format!("{name}.skip"), SpecOp::Add, vec![out, input])
        } else {
            out
        };
        prev_c = out_c;
    }
    let head = b.conv2d("head.conv", x, head_c, 1, 1, 0);
    let hbn = b.unary("head.bn", SpecOp::BatchNorm2d, head);
    let hact = b.unary("head.act", SpecOp::SiLU, hbn);
    let f = b.unary("flatten", SpecOp::Flatten, hact);
    let fc1 = b.unary(
        "head.fc1",
        SpecOp::Linear {
            out_features: fc_dim,
        },
        f,
    );
    let act = b.unary("head.fc1.act", SpecOp::SiLU, fc1);
    b.unary(
        "fc",
        SpecOp::Linear {
            out_features: classes,
        },
        act,
    );
    b.nodes
}

/// DenseNet family: stem, `blocks` dense blocks of `layers` concat layers
/// at the given growth rate, each followed by a halving transition, then
/// the classifier.
fn densenet_nodes(
    growth: usize,
    layers: usize,
    blocks: usize,
    fc_dim: usize,
    classes: usize,
) -> Vec<SpecNode> {
    let mut b = NodeList::new();
    let stem = b.conv2d("stem.conv", SpecSrc::Input, 16, 3, 1, 1);
    let bn = b.unary("stem.bn", SpecOp::BatchNorm2d, stem);
    let mut x = b.unary("stem.act", SpecOp::ReLU, bn);
    let mut channels = 16usize;
    for blk in 0..blocks {
        let dname = format!("dense{}", blk + 1);
        for l in 0..layers {
            let lbn = b.unary(&format!("{dname}.{l}.bn"), SpecOp::BatchNorm2d, x);
            let lact = b.unary(&format!("{dname}.{l}.act"), SpecOp::ReLU, lbn);
            let conv = b.conv2d(&format!("{dname}.{l}.conv"), lact, growth, 3, 1, 1);
            x = b.push(
                &format!("{dname}.{l}.concat"),
                SpecOp::ConcatChannels,
                vec![x, conv],
            );
            channels += growth;
        }
        let tname = format!("trans{}", blk + 1);
        let tbn = b.unary(&format!("{tname}.bn"), SpecOp::BatchNorm2d, x);
        let tact = b.unary(&format!("{tname}.act"), SpecOp::ReLU, tbn);
        channels = (channels / 2).max(4);
        let tconv = b.conv2d(&format!("{tname}.conv"), tact, channels, 1, 1, 0);
        x = b.push(
            &format!("{tname}.pool"),
            SpecOp::AvgPool2d { k: 2, s: 2 },
            vec![tconv],
        );
    }
    let fbn = b.unary("final.bn", SpecOp::BatchNorm2d, x);
    let fact = b.unary("final.act", SpecOp::ReLU, fbn);
    let f = b.unary("flatten", SpecOp::Flatten, fact);
    let fc1 = b.unary(
        "head.fc1",
        SpecOp::Linear {
            out_features: fc_dim,
        },
        f,
    );
    let a1 = b.unary("head.act", SpecOp::ReLU, fc1);
    b.unary(
        "fc",
        SpecOp::Linear {
            out_features: classes,
        },
        a1,
    );
    b.nodes
}

/// Encoder–decoder ("U-Net-ish") family: a strided stem, a channel-
/// contracting encoder, a bottleneck, and a decoder whose stages
/// concatenate the matching encoder activations (long skips).
///
/// The runtime has no upsampling op and `concat` requires equal spatial
/// dims, so the encoder/decoder run at one resolution and the "U" is in
/// channel width — which still exercises the multi-consumer, long-range
/// concat edges the trace plan has to schedule.
fn unet_nodes(widths: [usize; 4], fc_dim: usize, classes: usize) -> Vec<SpecNode> {
    let [stem_c, enc1_c, enc2_c, mid_c] = widths;
    let mut b = NodeList::new();
    let stem = b.conv2d("stem.conv", SpecSrc::Input, stem_c, 3, 1, 1);
    let sact = b.unary("stem.act", SpecOp::ReLU, stem);
    let spool = b.push("stem.pool", SpecOp::MaxPool2d { k: 2, s: 2 }, vec![sact]);
    let e1 = b.conv2d("enc1.conv", spool, enc1_c, 3, 1, 1);
    let e1a = b.unary("enc1.act", SpecOp::ReLU, e1);
    let e2 = b.conv2d("enc2.conv", e1a, enc2_c, 3, 1, 1);
    let e2a = b.unary("enc2.act", SpecOp::ReLU, e2);
    let m = b.conv2d("mid.conv", e2a, mid_c, 3, 1, 1);
    let ma = b.unary("mid.act", SpecOp::ReLU, m);
    let u2cat = b.push("up2.cat", SpecOp::ConcatChannels, vec![ma, e2a]);
    let u2 = b.conv2d("up2.conv", u2cat, enc2_c, 3, 1, 1);
    let u2a = b.unary("up2.act", SpecOp::ReLU, u2);
    let u1cat = b.push("up1.cat", SpecOp::ConcatChannels, vec![u2a, e1a]);
    let u1 = b.conv2d("up1.conv", u1cat, enc1_c, 3, 1, 1);
    let u1a = b.unary("up1.act", SpecOp::ReLU, u1);
    let hp = b.push("head.pool", SpecOp::MaxPool2d { k: 2, s: 2 }, vec![u1a]);
    let f = b.unary("flatten", SpecOp::Flatten, hp);
    let fc1 = b.unary(
        "head.fc1",
        SpecOp::Linear {
            out_features: fc_dim,
        },
        f,
    );
    let ha = b.unary("head.act", SpecOp::ReLU, fc1);
    b.unary(
        "fc",
        SpecOp::Linear {
            out_features: classes,
        },
        ha,
    );
    b.nodes
}

/// The four canonical scenario specs, carrying the scenario metadata
/// (`crates/core`'s `ScenarioId` resolves to the checked-in `.ahg` files
/// generated from exactly these values).
#[must_use]
pub fn canonical_scenarios() -> Vec<GraphSpec> {
    let s1 = spec(
        "s1",
        "EfficientNet-micro",
        "fashionmnist-like",
        [1, 28, 28],
        10,
        6,
        101,
        201,
        effnet_nodes(16, &[(32, 24, 2), (48, 24, 1)], 64, 96, 10),
    );
    let s2 = spec(
        "s2",
        "ResNet18-micro",
        "cifar10-like",
        [3, 32, 32],
        10,
        6,
        102,
        202,
        resnet_nodes(16, &[(16, 1), (32, 2)], 128, 10),
    );
    let mut s3 = spec(
        "s3",
        "DenseNet-micro",
        "gtsrb-like",
        [3, 32, 32],
        43,
        1,
        103,
        203,
        densenet_nodes(8, 3, 2, 128, 43),
    );
    s3.sizes = SpecSizes {
        train: 40,
        val: 70,
        test: 30,
    };
    s3.train = TrainConfig {
        lr_decay: 0.75,
        ..TrainConfig::default()
    };
    let case = spec(
        "case-study",
        "CaseStudyCNN",
        "cifar10-like",
        [3, 32, 32],
        10,
        6,
        102,
        204,
        case_study_nodes(&[16, 32], 128, 10),
    );
    vec![s1, s2, s3, case]
}

/// The generated variant library: width/depth sweeps of each family plus
/// two encoder–decoder topologies. Thirteen specs, each validated at
/// construction and runnable end-to-end through `advhunter pipeline
/// --tiny --graph`.
#[must_use]
pub fn all() -> Vec<GraphSpec> {
    let cifar = ("cifar10-like", [3usize, 32, 32], 10usize, 6usize);
    let fashion = ("fashionmnist-like", [1usize, 28, 28], 10usize, 6usize);
    let gtsrb = ("gtsrb-like", [3usize, 32, 32], 43usize, 1usize);
    let mut out = Vec::new();
    let mut add = |name: &str,
                   model: &str,
                   family: (&str, [usize; 3], usize, usize),
                   nodes: Vec<SpecNode>| {
        let (dataset, input, classes, target) = family;
        let i = out.len() as u64;
        out.push(spec(
            name,
            model,
            dataset,
            input,
            classes,
            target,
            300 + i,
            400 + i,
            nodes,
        ));
    };
    // Case-study CNN: width and depth sweeps.
    add(
        "case-w8",
        "CaseStudyCNN-w8",
        cifar,
        case_study_nodes(&[8, 16], 96, 10),
    );
    add(
        "case-w24",
        "CaseStudyCNN-w24",
        cifar,
        case_study_nodes(&[24, 48], 160, 10),
    );
    add(
        "case-d3",
        "CaseStudyCNN-d3",
        cifar,
        case_study_nodes(&[12, 24, 32], 128, 10),
    );
    // ResNet: width and depth sweeps.
    add(
        "resnet-w8",
        "ResNet-micro-w8",
        cifar,
        resnet_nodes(8, &[(8, 1), (16, 2)], 96, 10),
    );
    add(
        "resnet-w24",
        "ResNet-micro-w24",
        cifar,
        resnet_nodes(24, &[(24, 1), (48, 2)], 128, 10),
    );
    add(
        "resnet-d3",
        "ResNet-micro-d3",
        cifar,
        resnet_nodes(16, &[(16, 1), (32, 2), (64, 2)], 128, 10),
    );
    // EfficientNet: width and depth sweeps.
    add(
        "effnet-w24",
        "EfficientNet-micro-w24",
        fashion,
        effnet_nodes(24, &[(48, 32, 2), (64, 32, 1)], 96, 128, 10),
    );
    add(
        "effnet-d3",
        "EfficientNet-micro-d3",
        fashion,
        effnet_nodes(16, &[(32, 24, 2), (48, 24, 1), (48, 24, 1)], 64, 96, 10),
    );
    // DenseNet: growth and depth sweeps.
    add(
        "dense-g4",
        "DenseNet-micro-g4",
        gtsrb,
        densenet_nodes(4, 3, 2, 96, 43),
    );
    add(
        "dense-g12",
        "DenseNet-micro-g12",
        gtsrb,
        densenet_nodes(12, 3, 2, 128, 43),
    );
    add(
        "dense-d4",
        "DenseNet-micro-d4",
        gtsrb,
        densenet_nodes(8, 4, 2, 128, 43),
    );
    // Encoder–decoder topologies with long concat skips.
    add(
        "unet-mini",
        "UNet-mini",
        cifar,
        unet_nodes([12, 16, 24, 32], 96, 10),
    );
    add(
        "unet-wide",
        "UNet-wide",
        cifar,
        unet_nodes([16, 24, 32, 48], 128, 10),
    );
    // case-w8 at the sequential seed never predicts category 0 on a
    // `--tiny` validation split, which aborts the detector fit; this seed
    // trains to full category coverage there.
    out[0].model_seed = 413;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mode, Op};
    use advhunter_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Forward/backward shapes, the family's distinctive ops, parameter
    /// budget, and same-seed determinism for the four canonical scenarios.
    #[test]
    fn canonical_scenarios_build_run_and_are_seed_deterministic() {
        type Check = fn(&crate::Graph) -> bool;
        fn has(g: &crate::Graph, f: fn(&Op) -> bool) -> bool {
            g.nodes().iter().any(|n| f(&n.op))
        }
        let expected: [(&str, usize, usize, Check); 4] = [
            ("s1", 100_000, 2_500_000, |g| {
                has(g, |op| matches!(op, Op::DwConv2d(_)))
                    && has(g, |op| matches!(op, Op::ScaleChannels))
            }),
            ("s2", 200_000, 2_500_000, |g| {
                has(g, |op| matches!(op, Op::Add))
            }),
            ("s3", 100_000, 2_500_000, |g| {
                has(g, |op| matches!(op, Op::ConcatChannels))
            }),
            ("case-study", 50_000, 600_000, |g| {
                // 4 convs + 2 fcs => 12 parameter tensors; 5 activations.
                g.param_tensors().len() == 12
                    && g.nodes().iter().filter(|n| n.op.is_activation()).count() == 5
            }),
        ];
        for (spec, (name, lo, hi, structure)) in canonical_scenarios().iter().zip(expected) {
            assert_eq!(spec.name, name);
            let build = || {
                spec.build_graph(&mut StdRng::seed_from_u64(spec.model_seed))
                    .expect("canonical spec compiles")
            };
            let g = build();
            assert_eq!(g, build(), "{name}: same seed must give the same model");
            assert!(structure(&g), "{name}: distinctive structure missing");
            let p = g.num_parameters();
            assert!(
                (lo..=hi).contains(&p),
                "{name}: parameter count {p} outside [{lo}, {hi}]"
            );

            let mut dims = vec![2];
            dims.extend_from_slice(&spec.input);
            let x = Tensor::zeros(&dims);
            let t = g.forward(&x, Mode::Eval);
            assert_eq!(t.output().shape().dims(), &[2, spec.classes]);
            // Backward must run through the whole graph.
            let grads = g.backward(&t, &Tensor::ones(&[2, spec.classes]));
            assert_eq!(grads.input.shape().dims(), &dims[..]);
        }
    }

    #[test]
    fn variant_library_is_large_and_distinct() {
        let variants = all();
        assert!(
            variants.len() >= 12,
            "need >= 12 variants, have {}",
            variants.len()
        );
        let mut names: Vec<&str> = variants.iter().map(|v| v.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), variants.len(), "variant names must be unique");
        let mut digests: Vec<u64> = variants.iter().map(GraphSpec::digest).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(
            digests.len(),
            variants.len(),
            "variant digests must be unique"
        );
        // At least one skip/concat encoder–decoder topology.
        assert!(variants.iter().any(|v| {
            v.name.starts_with("unet")
                && v.nodes
                    .iter()
                    .any(|n| matches!(n.op, SpecOp::ConcatChannels))
        }));
    }

    #[test]
    fn every_variant_validates_and_compiles() {
        for v in all() {
            v.validate().unwrap_or_else(|e| panic!("{}: {e}", v.name));
            let g = v
                .build_graph(&mut StdRng::seed_from_u64(v.model_seed))
                .unwrap_or_else(|e| panic!("{}: {e}", v.name));
            // The canonical text round-trips.
            let reparsed = GraphSpec::parse(&v.to_canonical_string())
                .unwrap_or_else(|e| panic!("{}: {e}", v.name));
            assert_eq!(reparsed, v);
            assert_eq!(g.num_parameters(), v.num_parameters());
        }
    }
}
