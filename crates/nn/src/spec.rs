//! The `.ahg` graph-spec format: a compact textual description of a model
//! architecture plus the dataset/attack metadata a scenario needs, compiled
//! into a runnable [`Graph`] (and, through `TraceEngine::new`, the static
//! trace plan the instrumented executor runs).
//!
//! The format exists so AdvHunter is not limited to the four hardcoded
//! model families: any architecture expressible with the ops in [`SpecOp`]
//! can be written as a text file, validated with shape inference at load
//! time (mismatched skip/concat edges are a typed [`GraphSpecError`], not
//! a runtime panic), addressed by a content digest, and run end to end
//! through the offline pipeline and the online monitor.
//!
//! # Grammar
//!
//! One directive per line; `#` starts a comment; blank lines are ignored.
//! Metadata directives must precede node directives:
//!
//! ```text
//! ahg 1                       # format version, first significant line
//! name case-w8                # unique spec id (fingerprint labels, CLI)
//! model CaseStudyCNN-w8       # display name of the architecture
//! dataset cifar10-like        # dataset family slug
//! input 3 32 32               # CHW input dimensions
//! classes 10                  # output categories
//! target-class 6              # the paper-style targeted-attack class
//! dataset-seed 102            # split generation seed
//! model-seed 204              # weight initialization seed
//! sizes 150 80 60             # default per-class train/val/test sizes
//! train 5 32 0.002 0.7        # epochs, batch size, learning rate, decay
//! node conv1 conv2d 8 3 1 1   # node <name> <op> <params...> [<inputs...>]
//! node act1 relu              # omitted input = the previous node
//! node skip add act1 conv1    # 2-ary ops name both inputs explicitly
//! ```
//!
//! An input reference is the literal `input` (the graph input image) or the
//! name of an *earlier* node. A unary op with no reference reads the
//! immediately preceding node (the graph input for the first node).
//!
//! # Canonical form and digest
//!
//! [`GraphSpec::to_canonical_string`] re-serializes the spec with every
//! metadata directive present, in fixed order, comments stripped, single
//! spaces, and input references only where they deviate from the
//! previous-node default. [`GraphSpec::digest`] is the 64-bit FNV-1a hash
//! of the domain tag `advhunter.graphspec.v1` followed by the canonical
//! bytes — so formatting, comments, and directive order never change a
//! spec's identity, while any semantic edit does. The pipeline addresses
//! per-architecture artifacts by this digest.

use std::fmt;

use crate::train::TrainConfig;
use crate::{Graph, GraphBuilder, Src, WeightInit};

/// The `.ahg` format version this build reads and writes.
pub const SPEC_VERSION: u32 = 1;

/// The most nodes a spec may declare.
pub const MAX_NODES: usize = 4096;

/// The largest value an input dimension or a padding may take.
pub const MAX_DIM: usize = 1 << 16;

/// The most elements one node's single-image output may hold (256 MiB of
/// `f32`).
pub const MAX_ACTIVATION: usize = 1 << 26;

/// The most parameters a spec's model may hold (1 GiB of `f32`).
pub const MAX_PARAMETERS: usize = 1 << 28;

/// Per-class split sizes carried by a spec (a dependency-free mirror of
/// the data crate's `SplitSizes`, so this crate stays zero-dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecSizes {
    /// Training images per class.
    pub train: usize,
    /// Validation images per class.
    pub val: usize,
    /// Test images per class.
    pub test: usize,
}

impl Default for SpecSizes {
    fn default() -> Self {
        Self {
            train: 150,
            val: 80,
            test: 60,
        }
    }
}

/// Where a spec node reads its input from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecSrc {
    /// The graph input image.
    Input,
    /// The output of an earlier node (by index into [`GraphSpec::nodes`]).
    Node(usize),
}

/// One operation in a spec — the weight-free mirror of [`Op`]. Parameters
/// here are architecture hyperparameters only; weights are materialized by
/// [`GraphSpec::build_graph`] from a seeded RNG.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecOp {
    /// Standard 2-D convolution (`conv2d OUT K S P`).
    Conv2d {
        /// Output channels.
        out_channels: usize,
        /// Square kernel side.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
    },
    /// Depthwise 2-D convolution (`dwconv2d K S P`).
    DwConv2d {
        /// Square kernel side.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
    },
    /// Fully-connected layer (`linear OUT`).
    Linear {
        /// Output features.
        out_features: usize,
    },
    /// Batch normalization (`batchnorm`).
    BatchNorm2d,
    /// ReLU activation (`relu`).
    ReLU,
    /// Leaky ReLU activation (`leaky_relu ALPHA`).
    LeakyReLU {
        /// Negative-side slope.
        alpha: f32,
    },
    /// SiLU activation (`silu`).
    SiLU,
    /// Sigmoid activation (`sigmoid`).
    Sigmoid,
    /// Tanh activation (`tanh`).
    Tanh,
    /// Max pooling (`maxpool K S`).
    MaxPool2d {
        /// Window side.
        k: usize,
        /// Stride.
        s: usize,
    },
    /// Average pooling (`avgpool K S`).
    AvgPool2d {
        /// Window side.
        k: usize,
        /// Stride.
        s: usize,
    },
    /// Global average pooling (`gap`).
    GlobalAvgPool,
    /// Flatten to a feature vector (`flatten`).
    Flatten,
    /// Elementwise sum — residual skip (`add A B`).
    Add,
    /// Channel concatenation — dense skip (`concat A B`).
    ConcatChannels,
    /// Per-channel scaling — squeeze-and-excitation (`scale X S`).
    ScaleChannels,
}

impl SpecOp {
    /// The op keyword used in `.ahg` files.
    #[must_use]
    pub fn keyword(&self) -> &'static str {
        match self {
            Self::Conv2d { .. } => "conv2d",
            Self::DwConv2d { .. } => "dwconv2d",
            Self::Linear { .. } => "linear",
            Self::BatchNorm2d => "batchnorm",
            Self::ReLU => "relu",
            Self::LeakyReLU { .. } => "leaky_relu",
            Self::SiLU => "silu",
            Self::Sigmoid => "sigmoid",
            Self::Tanh => "tanh",
            Self::MaxPool2d { .. } => "maxpool",
            Self::AvgPool2d { .. } => "avgpool",
            Self::GlobalAvgPool => "gap",
            Self::Flatten => "flatten",
            Self::Add => "add",
            Self::ConcatChannels => "concat",
            Self::ScaleChannels => "scale",
        }
    }

    /// Number of inputs the op consumes.
    #[must_use]
    pub fn arity(&self) -> usize {
        match self {
            Self::Add | Self::ConcatChannels | Self::ScaleChannels => 2,
            _ => 1,
        }
    }
}

/// One named node of a spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecNode {
    /// Stable node name (unique within the spec; becomes the graph node
    /// name, so trace reports and layer attribution keep working).
    pub name: String,
    /// The operation.
    pub op: SpecOp,
    /// Inputs, in op order.
    pub inputs: Vec<SpecSrc>,
}

/// A parsed `.ahg` spec: the typed IR every consumer works from.
///
/// The architecture (nodes) and the scenario metadata (dataset family,
/// seeds, split sizes, training recipe, target class) travel together so
/// one file fully determines a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSpec {
    /// Unique spec id: fingerprint label, CLI handle, store display name.
    pub name: String,
    /// Display name of the architecture.
    pub model: String,
    /// Dataset family slug (resolved by the data crate).
    pub dataset: String,
    /// CHW input dimensions.
    pub input: [usize; 3],
    /// Number of output categories.
    pub classes: usize,
    /// The class targeted attacks aim for.
    pub target_class: usize,
    /// Seed fixing the generated dataset splits.
    pub dataset_seed: u64,
    /// Seed fixing the initial weights.
    pub model_seed: u64,
    /// Default per-class split sizes.
    pub sizes: SpecSizes,
    /// Default training recipe.
    pub train: TrainConfig,
    /// The architecture, in topological order.
    pub nodes: Vec<SpecNode>,
}

/// Why a spec failed to parse, validate, or compile.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraphSpecError {
    /// A line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The `ahg` version line declares a version this build cannot read.
    UnsupportedVersion {
        /// The declared version.
        found: u32,
    },
    /// A required metadata directive is absent.
    MissingField {
        /// The missing directive.
        field: &'static str,
    },
    /// Two nodes share a name.
    DuplicateNode {
        /// 1-based line number of the second definition.
        line: usize,
        /// The repeated name.
        name: String,
    },
    /// A node references an input that is not `input` or an earlier node.
    UnknownInput {
        /// 1-based line number.
        line: usize,
        /// The referencing node.
        node: String,
        /// The unresolved reference.
        reference: String,
    },
    /// The spec has no nodes.
    EmptyGraph,
    /// An input dimension is zero.
    BadInputDims {
        /// The offending CHW dims.
        dims: [usize; 3],
    },
    /// Shape inference failed at a node (mismatched skip/concat edges,
    /// window larger than the feature map, zero-sized output, …).
    ShapeMismatch {
        /// The offending node.
        node: String,
        /// What shape rule was violated.
        detail: String,
    },
    /// The final node's shape is not `[classes]`.
    OutputMismatch {
        /// Declared class count.
        classes: usize,
        /// Inferred output shape.
        output: Vec<usize>,
    },
    /// `target-class` is outside `0..classes`.
    TargetClassOutOfRange {
        /// The declared target.
        target: usize,
        /// Declared class count.
        classes: usize,
    },
    /// An input dimension or padding, a node's output, the parameter
    /// count or the node count exceeds its cap ([`MAX_DIM`], [`MAX_ACTIVATION`],
    /// [`MAX_PARAMETERS`], [`MAX_NODES`]), or would overflow computing it.
    TooLarge {
        /// What is too large.
        what: String,
        /// Its cap.
        limit: usize,
    },
    /// The `train` learning rate or its per-epoch decay is not a finite
    /// number above zero.
    BadLearningRate {
        /// `"learning rate"` or `"lr decay"`.
        field: &'static str,
        /// The declared value.
        value: f32,
    },
}

impl fmt::Display for GraphSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Parse { line, reason } => write!(f, "line {line}: {reason}"),
            Self::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported ahg version {found} (this build reads {SPEC_VERSION})"
                )
            }
            Self::MissingField { field } => write!(f, "missing required directive `{field}`"),
            Self::DuplicateNode { line, name } => {
                write!(f, "line {line}: duplicate node name `{name}`")
            }
            Self::UnknownInput {
                line,
                node,
                reference,
            } => write!(
                f,
                "line {line}: node `{node}` references `{reference}`, which is neither \
                 `input` nor an earlier node"
            ),
            Self::EmptyGraph => write!(f, "spec declares no nodes"),
            Self::BadInputDims { dims } => {
                write!(f, "input dims {dims:?} contain a zero dimension")
            }
            Self::ShapeMismatch { node, detail } => {
                write!(f, "shape error at node `{node}`: {detail}")
            }
            Self::OutputMismatch { classes, output } => write!(
                f,
                "final node produces shape {output:?}, expected [{classes}] (one logit per class)"
            ),
            Self::TargetClassOutOfRange { target, classes } => {
                write!(f, "target-class {target} is outside 0..{classes}")
            }
            Self::TooLarge { what, limit } => write!(f, "{what} exceeds the limit of {limit}"),
            Self::BadLearningRate { field, value } => {
                write!(f, "train {field} {value} is not a finite number above zero")
            }
        }
    }
}

impl std::error::Error for GraphSpecError {}

/// FNV-1a over the domain tag and the canonical bytes — the same hash
/// family the artifact store uses, reimplemented locally so this crate
/// stays dependency-free.
fn fnv1a(tag: &str, bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in tag.as_bytes().iter().chain(std::iter::once(&0u8)) {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

impl GraphSpec {
    /// Parses a `.ahg` document.
    ///
    /// Parsing also runs [`validate`](Self::validate): a successfully
    /// parsed spec is guaranteed to compile without panicking.
    ///
    /// # Errors
    ///
    /// Any [`GraphSpecError`]; parse errors carry the 1-based line number.
    pub fn parse(text: &str) -> Result<Self, GraphSpecError> {
        let spec = Self::parse_unvalidated(text)?;
        spec.validate()?;
        Ok(spec)
    }

    fn parse_unvalidated(text: &str) -> Result<Self, GraphSpecError> {
        let mut version: Option<u32> = None;
        let mut name: Option<String> = None;
        let mut model: Option<String> = None;
        let mut dataset: Option<String> = None;
        let mut input: Option<[usize; 3]> = None;
        let mut classes: Option<usize> = None;
        let mut target_class: usize = 0;
        let mut dataset_seed: u64 = 0;
        let mut model_seed: u64 = 0;
        let mut sizes = SpecSizes::default();
        let mut train = TrainConfig::default();
        let mut nodes: Vec<SpecNode> = Vec::new();
        // Node name -> index, for input-reference resolution.
        let mut index: std::collections::HashMap<String, usize> = std::collections::HashMap::new();

        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let parse_err = |reason: String| GraphSpecError::Parse {
                line: line_no,
                reason,
            };
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let key = tokens[0];
            if version.is_none() {
                // The first significant line must declare the version.
                if key != "ahg" {
                    return Err(parse_err(format!(
                        "expected `ahg {SPEC_VERSION}` as the first directive, found `{key}`"
                    )));
                }
                let v: u32 = parse_field(&tokens[1..], 0, "version", line_no)?;
                if v != SPEC_VERSION {
                    return Err(GraphSpecError::UnsupportedVersion { found: v });
                }
                version = Some(v);
                continue;
            }
            match key {
                "ahg" => return Err(parse_err("duplicate `ahg` directive".into())),
                "node" => {
                    let node = parse_node(&tokens[1..], &nodes, &index, line_no)?;
                    if index.contains_key(&node.name) {
                        return Err(GraphSpecError::DuplicateNode {
                            line: line_no,
                            name: node.name,
                        });
                    }
                    index.insert(node.name.clone(), nodes.len());
                    nodes.push(node);
                }
                _ if !nodes.is_empty() => {
                    return Err(parse_err(format!(
                        "metadata directive `{key}` after the first node"
                    )))
                }
                "name" => name = Some(single_token(&tokens[1..], "name", line_no)?),
                "model" => {
                    if tokens.len() < 2 {
                        return Err(parse_err("`model` needs a value".into()));
                    }
                    model = Some(tokens[1..].join(" "));
                }
                "dataset" => dataset = Some(single_token(&tokens[1..], "dataset", line_no)?),
                "input" => {
                    input = Some([
                        parse_field(&tokens[1..], 0, "input channels", line_no)?,
                        parse_field(&tokens[1..], 1, "input height", line_no)?,
                        parse_field(&tokens[1..], 2, "input width", line_no)?,
                    ]);
                    expect_len(&tokens[1..], 3, "input", line_no)?;
                }
                "classes" => {
                    classes = Some(parse_field(&tokens[1..], 0, "classes", line_no)?);
                    expect_len(&tokens[1..], 1, "classes", line_no)?;
                }
                "target-class" => {
                    target_class = parse_field(&tokens[1..], 0, "target-class", line_no)?;
                    expect_len(&tokens[1..], 1, "target-class", line_no)?;
                }
                "dataset-seed" => {
                    dataset_seed = parse_field(&tokens[1..], 0, "dataset-seed", line_no)?;
                    expect_len(&tokens[1..], 1, "dataset-seed", line_no)?;
                }
                "model-seed" => {
                    model_seed = parse_field(&tokens[1..], 0, "model-seed", line_no)?;
                    expect_len(&tokens[1..], 1, "model-seed", line_no)?;
                }
                "sizes" => {
                    sizes = SpecSizes {
                        train: parse_field(&tokens[1..], 0, "train size", line_no)?,
                        val: parse_field(&tokens[1..], 1, "val size", line_no)?,
                        test: parse_field(&tokens[1..], 2, "test size", line_no)?,
                    };
                    expect_len(&tokens[1..], 3, "sizes", line_no)?;
                }
                "train" => {
                    train = TrainConfig {
                        epochs: parse_field(&tokens[1..], 0, "epochs", line_no)?,
                        batch_size: parse_field(&tokens[1..], 1, "batch size", line_no)?,
                        learning_rate: parse_field(&tokens[1..], 2, "learning rate", line_no)?,
                        lr_decay: parse_field(&tokens[1..], 3, "lr decay", line_no)?,
                    };
                    expect_len(&tokens[1..], 4, "train", line_no)?;
                }
                other => return Err(parse_err(format!("unknown directive `{other}`"))),
            }
        }

        if version.is_none() {
            return Err(GraphSpecError::MissingField { field: "ahg" });
        }
        let name = name.ok_or(GraphSpecError::MissingField { field: "name" })?;
        Ok(Self {
            model: model.unwrap_or_else(|| name.clone()),
            name,
            dataset: dataset.ok_or(GraphSpecError::MissingField { field: "dataset" })?,
            input: input.ok_or(GraphSpecError::MissingField { field: "input" })?,
            classes: classes.ok_or(GraphSpecError::MissingField { field: "classes" })?,
            target_class,
            dataset_seed,
            model_seed,
            sizes,
            train,
            nodes,
        })
    }

    /// Validates metadata and runs shape inference over every node.
    ///
    /// # Errors
    ///
    /// The first violated rule, as a typed [`GraphSpecError`].
    pub fn validate(&self) -> Result<(), GraphSpecError> {
        if self.input.contains(&0) {
            return Err(GraphSpecError::BadInputDims { dims: self.input });
        }
        if self.nodes.is_empty() {
            return Err(GraphSpecError::EmptyGraph);
        }
        if self.nodes.len() > MAX_NODES {
            return Err(GraphSpecError::TooLarge {
                what: format!("{} nodes", self.nodes.len()),
                limit: MAX_NODES,
            });
        }
        for (field, value) in [
            ("learning rate", self.train.learning_rate),
            ("lr decay", self.train.lr_decay),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(GraphSpecError::BadLearningRate { field, value });
            }
        }
        if self.classes == 0 || self.target_class >= self.classes {
            return Err(GraphSpecError::TargetClassOutOfRange {
                target: self.target_class,
                classes: self.classes,
            });
        }
        let shapes = self.infer_shapes()?;
        let output = shapes.last().expect("non-empty graph").clone();
        if output != vec![self.classes] {
            return Err(GraphSpecError::OutputMismatch {
                classes: self.classes,
                output,
            });
        }
        self.count_parameters(&shapes).map(|_| ())
    }

    /// Single-image (CHW, no batch dim) output shape of every node, in
    /// order — the shape-inference pass that catches mismatched edges at
    /// load time.
    ///
    /// # Errors
    ///
    /// [`GraphSpecError::ShapeMismatch`] at the first inconsistent node,
    /// [`GraphSpecError::TooLarge`] at the first dimension or node output
    /// over its cap.
    pub fn infer_shapes(&self) -> Result<Vec<Vec<usize>>, GraphSpecError> {
        for &dim in &self.input {
            capped(dim, MAX_DIM, || format!("input dimension {dim}"))?;
        }
        let mut shapes: Vec<Vec<usize>> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let ins: Vec<&[usize]> = node
                .inputs
                .iter()
                .map(|src| match src {
                    SpecSrc::Input => &self.input[..],
                    SpecSrc::Node(i) => &shapes[*i][..],
                })
                .collect();
            let shape = spec_op_output_shape(&node.name, &node.op, &ins)?;
            let elements = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
            capped(elements.unwrap_or(usize::MAX), MAX_ACTIVATION, || {
                format!("node `{}` output {shape:?}", node.name)
            })?;
            shapes.push(shape);
        }
        Ok(shapes)
    }

    /// Compiles the spec into a runnable [`Graph`], materializing weights
    /// from `init` with the same per-op initializers (and therefore the
    /// same RNG draw order) as [`GraphBuilder`] — a spec transliterated
    /// from a builder-constructed model reproduces it bit for bit under
    /// the same seed. [`ZeroWeights`](crate::ZeroWeights) draws nothing:
    /// it builds the structure a stored model's weights decode into.
    ///
    /// Wrapping the result in `advhunter_exec::TraceEngine::new` builds
    /// the static trace plan, so this one call opens every downstream
    /// subsystem (pipeline, monitor, wire serving) to the architecture.
    ///
    /// # Errors
    ///
    /// Any [`validate`](Self::validate) error; a validated spec cannot
    /// fail to compile.
    pub fn build_graph(&self, init: &mut impl WeightInit) -> Result<Graph, GraphSpecError> {
        self.validate()?;
        let mut b = GraphBuilder::new(&self.input);
        let mut built: Vec<Src> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let src = |s: &SpecSrc| match s {
                SpecSrc::Input => Src::Input,
                SpecSrc::Node(i) => built[*i],
            };
            let ins: Vec<Src> = node.inputs.iter().map(src).collect();
            let out = match &node.op {
                SpecOp::Conv2d {
                    out_channels,
                    kernel,
                    stride,
                    padding,
                } => b.conv2d(
                    &node.name,
                    ins[0],
                    *out_channels,
                    *kernel,
                    *stride,
                    *padding,
                    init,
                ),
                SpecOp::DwConv2d {
                    kernel,
                    stride,
                    padding,
                } => b.dwconv2d(&node.name, ins[0], *kernel, *stride, *padding, init),
                SpecOp::Linear { out_features } => {
                    b.linear(&node.name, ins[0], *out_features, init)
                }
                SpecOp::BatchNorm2d => b.batchnorm(&node.name, ins[0]),
                SpecOp::ReLU => b.relu(&node.name, ins[0]),
                SpecOp::LeakyReLU { alpha } => b.leaky_relu(&node.name, ins[0], *alpha),
                SpecOp::SiLU => b.silu(&node.name, ins[0]),
                SpecOp::Sigmoid => b.sigmoid(&node.name, ins[0]),
                SpecOp::Tanh => b.tanh(&node.name, ins[0]),
                SpecOp::MaxPool2d { k, s } => b.maxpool(&node.name, ins[0], *k, *s),
                SpecOp::AvgPool2d { k, s } => b.avgpool(&node.name, ins[0], *k, *s),
                SpecOp::GlobalAvgPool => b.global_avgpool(&node.name, ins[0]),
                SpecOp::Flatten => b.flatten(&node.name, ins[0]),
                SpecOp::Add => b.add(&node.name, ins[0], ins[1]),
                SpecOp::ConcatChannels => b.concat(&node.name, ins[0], ins[1]),
                SpecOp::ScaleChannels => b.scale_channels(&node.name, ins[0], ins[1]),
            };
            built.push(out);
        }
        Ok(b.build())
    }

    /// The canonical serialization: fixed directive order, every metadata
    /// field explicit, no comments, input references only where they
    /// deviate from the previous-node default. Two specs are semantically
    /// equal exactly when their canonical strings are byte-equal.
    #[must_use]
    pub fn to_canonical_string(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "ahg {SPEC_VERSION}");
        let _ = writeln!(out, "name {}", self.name);
        let _ = writeln!(out, "model {}", self.model);
        let _ = writeln!(out, "dataset {}", self.dataset);
        let _ = writeln!(
            out,
            "input {} {} {}",
            self.input[0], self.input[1], self.input[2]
        );
        let _ = writeln!(out, "classes {}", self.classes);
        let _ = writeln!(out, "target-class {}", self.target_class);
        let _ = writeln!(out, "dataset-seed {}", self.dataset_seed);
        let _ = writeln!(out, "model-seed {}", self.model_seed);
        let _ = writeln!(
            out,
            "sizes {} {} {}",
            self.sizes.train, self.sizes.val, self.sizes.test
        );
        let _ = writeln!(
            out,
            "train {} {} {} {}",
            self.train.epochs, self.train.batch_size, self.train.learning_rate, self.train.lr_decay
        );
        for (i, node) in self.nodes.iter().enumerate() {
            let _ = write!(out, "node {} {}", node.name, node.op.keyword());
            match &node.op {
                SpecOp::Conv2d {
                    out_channels,
                    kernel,
                    stride,
                    padding,
                } => {
                    let _ = write!(out, " {out_channels} {kernel} {stride} {padding}");
                }
                SpecOp::DwConv2d {
                    kernel,
                    stride,
                    padding,
                } => {
                    let _ = write!(out, " {kernel} {stride} {padding}");
                }
                SpecOp::Linear { out_features } => {
                    let _ = write!(out, " {out_features}");
                }
                SpecOp::LeakyReLU { alpha } => {
                    let _ = write!(out, " {alpha}");
                }
                SpecOp::MaxPool2d { k, s } | SpecOp::AvgPool2d { k, s } => {
                    let _ = write!(out, " {k} {s}");
                }
                _ => {}
            }
            let default_src = if i == 0 {
                SpecSrc::Input
            } else {
                SpecSrc::Node(i - 1)
            };
            let explicit = node.op.arity() == 2 || node.inputs[0] != default_src;
            if explicit {
                for src in &node.inputs {
                    match src {
                        SpecSrc::Input => {
                            let _ = write!(out, " input");
                        }
                        SpecSrc::Node(j) => {
                            let _ = write!(out, " {}", self.nodes[*j].name);
                        }
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// The spec's content digest: 64-bit FNV-1a over the domain tag
    /// `advhunter.graphspec.v1` and the canonical serialization. This is
    /// the address the pipeline caches per-architecture artifacts under —
    /// re-formatting a file never invalidates, any semantic edit does.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a(
            "advhunter.graphspec.v1",
            self.to_canonical_string().as_bytes(),
        )
    }

    /// Total trainable parameter count implied by the architecture
    /// (weights plus biases; batchnorm scale/shift included), without
    /// materializing any tensor. `0` for a spec that fails
    /// [`validate`](Self::validate)'s shape inference or caps.
    #[must_use]
    pub fn num_parameters(&self) -> usize {
        self.infer_shapes()
            .and_then(|shapes| self.count_parameters(&shapes))
            .unwrap_or(0)
    }

    /// The parameter count over inferred `shapes`, in checked arithmetic
    /// and capped at [`MAX_PARAMETERS`].
    fn count_parameters(&self, shapes: &[Vec<usize>]) -> Result<usize, GraphSpecError> {
        let too_large = || GraphSpecError::TooLarge {
            what: "the parameter count".into(),
            limit: MAX_PARAMETERS,
        };
        let mut total = 0usize;
        for node in &self.nodes {
            let in_shape = |src: &SpecSrc| match src {
                SpecSrc::Input => &self.input[..],
                SpecSrc::Node(i) => &shapes[*i][..],
            };
            let weights = match &node.op {
                SpecOp::Conv2d {
                    out_channels,
                    kernel,
                    ..
                } => {
                    let ic = in_shape(&node.inputs[0])[0];
                    [ic, *kernel, *kernel, *out_channels]
                        .iter()
                        .try_fold(1usize, |n, &d| n.checked_mul(d))
                        .and_then(|w| w.checked_add(*out_channels))
                }
                SpecOp::DwConv2d { kernel, .. } => {
                    let c = in_shape(&node.inputs[0])[0];
                    kernel
                        .checked_mul(*kernel)
                        .and_then(|k| k.checked_add(1))
                        .and_then(|k| k.checked_mul(c))
                }
                SpecOp::Linear { out_features } => {
                    let inf: usize = in_shape(&node.inputs[0]).iter().product();
                    inf.checked_add(1)
                        .and_then(|k| k.checked_mul(*out_features))
                }
                SpecOp::BatchNorm2d => in_shape(&node.inputs[0])[0].checked_mul(2),
                _ => Some(0),
            };
            total = weights
                .and_then(|w| total.checked_add(w))
                .filter(|&t| t <= MAX_PARAMETERS)
                .ok_or_else(too_large)?;
        }
        Ok(total)
    }
}

/// `value`, or [`GraphSpecError::TooLarge`] naming `what` if it exceeds
/// `limit`.
fn capped(
    value: usize,
    limit: usize,
    what: impl FnOnce() -> String,
) -> Result<usize, GraphSpecError> {
    if value > limit {
        return Err(GraphSpecError::TooLarge {
            what: what(),
            limit,
        });
    }
    Ok(value)
}

impl fmt::Display for GraphSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_canonical_string())
    }
}

fn single_token(values: &[&str], field: &str, line: usize) -> Result<String, GraphSpecError> {
    match values {
        [v] => Ok((*v).to_string()),
        _ => Err(GraphSpecError::Parse {
            line,
            reason: format!("`{field}` needs exactly one value"),
        }),
    }
}

fn expect_len(values: &[&str], n: usize, field: &str, line: usize) -> Result<(), GraphSpecError> {
    if values.len() == n {
        Ok(())
    } else {
        Err(GraphSpecError::Parse {
            line,
            reason: format!(
                "`{field}` needs exactly {n} value(s), found {}",
                values.len()
            ),
        })
    }
}

fn parse_field<T: std::str::FromStr>(
    values: &[&str],
    idx: usize,
    what: &str,
    line: usize,
) -> Result<T, GraphSpecError> {
    values
        .get(idx)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| GraphSpecError::Parse {
            line,
            reason: format!("{what}: expected a number at position {}", idx + 1),
        })
}

/// Parses the tokens after `node`: name, op keyword, numeric params, then
/// optional input references.
fn parse_node(
    tokens: &[&str],
    nodes: &[SpecNode],
    index: &std::collections::HashMap<String, usize>,
    line: usize,
) -> Result<SpecNode, GraphSpecError> {
    let parse_err = |reason: String| GraphSpecError::Parse { line, reason };
    let [name, op_kw, rest @ ..] = tokens else {
        return Err(parse_err("`node` needs a name and an op".into()));
    };
    let (op, params) = match *op_kw {
        "conv2d" => (
            SpecOp::Conv2d {
                out_channels: parse_field(rest, 0, "conv2d out-channels", line)?,
                kernel: parse_field(rest, 1, "conv2d kernel", line)?,
                stride: parse_field(rest, 2, "conv2d stride", line)?,
                padding: parse_field(rest, 3, "conv2d padding", line)?,
            },
            4,
        ),
        "dwconv2d" => (
            SpecOp::DwConv2d {
                kernel: parse_field(rest, 0, "dwconv2d kernel", line)?,
                stride: parse_field(rest, 1, "dwconv2d stride", line)?,
                padding: parse_field(rest, 2, "dwconv2d padding", line)?,
            },
            3,
        ),
        "linear" => (
            SpecOp::Linear {
                out_features: parse_field(rest, 0, "linear out-features", line)?,
            },
            1,
        ),
        "batchnorm" => (SpecOp::BatchNorm2d, 0),
        "relu" => (SpecOp::ReLU, 0),
        "leaky_relu" => (
            SpecOp::LeakyReLU {
                alpha: parse_field(rest, 0, "leaky_relu alpha", line)?,
            },
            1,
        ),
        "silu" => (SpecOp::SiLU, 0),
        "sigmoid" => (SpecOp::Sigmoid, 0),
        "tanh" => (SpecOp::Tanh, 0),
        "maxpool" => (
            SpecOp::MaxPool2d {
                k: parse_field(rest, 0, "maxpool window", line)?,
                s: parse_field(rest, 1, "maxpool stride", line)?,
            },
            2,
        ),
        "avgpool" => (
            SpecOp::AvgPool2d {
                k: parse_field(rest, 0, "avgpool window", line)?,
                s: parse_field(rest, 1, "avgpool stride", line)?,
            },
            2,
        ),
        "gap" => (SpecOp::GlobalAvgPool, 0),
        "flatten" => (SpecOp::Flatten, 0),
        "add" => (SpecOp::Add, 0),
        "concat" => (SpecOp::ConcatChannels, 0),
        "scale" => (SpecOp::ScaleChannels, 0),
        other => return Err(parse_err(format!("unknown op `{other}`"))),
    };
    let refs = &rest[params.min(rest.len())..];
    if rest.len() < params {
        return Err(parse_err(format!(
            "op `{op_kw}` needs {params} numeric parameter(s)"
        )));
    }
    let resolve = |r: &str| -> Result<SpecSrc, GraphSpecError> {
        if r == "input" {
            return Ok(SpecSrc::Input);
        }
        index
            .get(r)
            .map(|&i| SpecSrc::Node(i))
            .ok_or_else(|| GraphSpecError::UnknownInput {
                line,
                node: (*name).to_string(),
                reference: r.to_string(),
            })
    };
    let inputs = match (op.arity(), refs) {
        (1, []) => {
            // Default: the previous node, or the graph input for node 0.
            vec![if nodes.is_empty() {
                SpecSrc::Input
            } else {
                SpecSrc::Node(nodes.len() - 1)
            }]
        }
        (1, [r]) => vec![resolve(r)?],
        (2, [a, b]) => vec![resolve(a)?, resolve(b)?],
        (arity, refs) => {
            return Err(parse_err(format!(
                "op `{op_kw}` takes {arity} input(s), found {} reference(s)",
                refs.len()
            )))
        }
    };
    Ok(SpecNode {
        name: (*name).to_string(),
        op,
        inputs,
    })
}

/// Shape inference for one spec op — the load-time mirror of the graph's
/// runtime shape rules, with every failure a typed error instead of a
/// panic.
fn spec_op_output_shape(
    name: &str,
    op: &SpecOp,
    ins: &[&[usize]],
) -> Result<Vec<usize>, GraphSpecError> {
    let err = |detail: String| GraphSpecError::ShapeMismatch {
        node: name.to_string(),
        detail,
    };
    // The sums below cannot overflow: padding is capped at MAX_DIM here,
    // and every input shape was capped at MAX_ACTIVATION elements when
    // its node was inferred. An oversized channel or feature count fails
    // that cap on this node's output.
    let chw = |idx: usize| -> Result<[usize; 3], GraphSpecError> {
        match ins[idx] {
            [c, h, w] => Ok([*c, *h, *w]),
            other => Err(err(format!("expected a CHW input, found shape {other:?}"))),
        }
    };
    let conv_hw = |h: usize,
                   w: usize,
                   k: usize,
                   s: usize,
                   p: usize|
     -> Result<(usize, usize), GraphSpecError> {
        if k == 0 || s == 0 {
            return Err(err("kernel and stride must be nonzero".into()));
        }
        capped(p, MAX_DIM, || format!("node `{name}` padding {p}"))?;
        if h + 2 * p < k || w + 2 * p < k {
            return Err(err(format!(
                "window {k} exceeds padded input {}x{}",
                h + 2 * p,
                w + 2 * p
            )));
        }
        Ok(((h + 2 * p - k) / s + 1, (w + 2 * p - k) / s + 1))
    };
    Ok(match op {
        SpecOp::Conv2d {
            out_channels,
            kernel,
            stride,
            padding,
        } => {
            let [_, h, w] = chw(0)?;
            if *out_channels == 0 {
                return Err(err("out-channels must be nonzero".into()));
            }
            let (oh, ow) = conv_hw(h, w, *kernel, *stride, *padding)?;
            vec![*out_channels, oh, ow]
        }
        SpecOp::DwConv2d {
            kernel,
            stride,
            padding,
        } => {
            let [c, h, w] = chw(0)?;
            let (oh, ow) = conv_hw(h, w, *kernel, *stride, *padding)?;
            vec![c, oh, ow]
        }
        SpecOp::Linear { out_features } => {
            if *out_features == 0 {
                return Err(err("out-features must be nonzero".into()));
            }
            vec![*out_features]
        }
        SpecOp::BatchNorm2d => chw(0)?.to_vec(),
        SpecOp::ReLU | SpecOp::LeakyReLU { .. } | SpecOp::SiLU | SpecOp::Sigmoid | SpecOp::Tanh => {
            ins[0].to_vec()
        }
        SpecOp::MaxPool2d { k, s } | SpecOp::AvgPool2d { k, s } => {
            let [c, h, w] = chw(0)?;
            let (oh, ow) = conv_hw(h, w, *k, *s, 0)?;
            vec![c, oh, ow]
        }
        SpecOp::GlobalAvgPool => vec![chw(0)?[0]],
        SpecOp::Flatten => vec![ins[0].iter().product()],
        SpecOp::Add => {
            if ins[0] != ins[1] {
                return Err(err(format!(
                    "add inputs disagree: {:?} vs {:?}",
                    ins[0], ins[1]
                )));
            }
            ins[0].to_vec()
        }
        SpecOp::ConcatChannels => {
            let [c0, h0, w0] = chw(0)?;
            let [c1, h1, w1] = chw(1)?;
            if (h0, w0) != (h1, w1) {
                return Err(err(format!(
                    "concat spatial dims disagree: {h0}x{w0} vs {h1}x{w1}"
                )));
            }
            vec![c0 + c1, h0, w0]
        }
        SpecOp::ScaleChannels => {
            let [c, h, w] = chw(0)?;
            if ins[1] != [c] {
                return Err(err(format!(
                    "scale vector must be [{c}], found {:?}",
                    ins[1]
                )));
            }
            vec![c, h, w]
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TINY: &str = "\
# a comment
ahg 1
name tiny
model TinyCNN
dataset cifar10-like
input 3 8 8
classes 4
target-class 1
dataset-seed 7
model-seed 8
sizes 10 6 4
train 2 8 0.002 0.7
node conv1 conv2d 4 3 1 1
node act1 relu        # default input: conv1
node skip add act1 conv1
node flat flatten
node fc linear 4
";

    #[test]
    fn parses_and_round_trips_canonically() {
        let spec = GraphSpec::parse(TINY).expect("parse");
        assert_eq!(spec.name, "tiny");
        assert_eq!(spec.nodes.len(), 5);
        assert_eq!(
            spec.nodes[2].inputs,
            vec![SpecSrc::Node(1), SpecSrc::Node(0)]
        );
        let canon = spec.to_canonical_string();
        let again = GraphSpec::parse(&canon).expect("reparse");
        assert_eq!(spec, again);
        assert_eq!(again.to_canonical_string(), canon);
        assert_eq!(spec.digest(), again.digest());
    }

    #[test]
    fn comments_and_formatting_do_not_change_the_digest() {
        let spec = GraphSpec::parse(TINY).expect("parse");
        let noisy = TINY.replace("node act1 relu", "   node   act1   relu   # !");
        let spec2 = GraphSpec::parse(&noisy).expect("parse noisy");
        assert_eq!(spec.digest(), spec2.digest());
        // A semantic edit does change it.
        let edited = TINY.replace("conv2d 4 3 1 1", "conv2d 8 3 1 1");
        // 8-channel conv still validates (add edge matches itself).
        let spec3 = GraphSpec::parse(&edited).expect("parse edited");
        assert_ne!(spec.digest(), spec3.digest());
    }

    #[test]
    fn compiles_into_a_runnable_graph() {
        let spec = GraphSpec::parse(TINY).expect("parse");
        let g = spec
            .build_graph(&mut StdRng::seed_from_u64(1))
            .expect("compile");
        assert_eq!(g.nodes().len(), 5);
        assert_eq!(g.input_dims(), &[3, 8, 8]);
        let x = advhunter_tensor::Tensor::zeros(&[2, 3, 8, 8]);
        let t = g.forward(&x, crate::Mode::Eval);
        assert_eq!(t.output().shape().dims(), &[2, 4]);
    }

    #[test]
    fn shape_inference_rejects_mismatched_edges() {
        let bad = TINY.replace(
            "node skip add act1 conv1",
            "node pool maxpool 2 2\nnode skip add pool conv1",
        );
        let err = GraphSpec::parse(&bad).expect_err("mismatched add");
        assert!(
            matches!(err, GraphSpecError::ShapeMismatch { ref node, .. } if node == "skip"),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn typed_errors_cover_the_failure_modes() {
        // Unknown reference.
        let e = GraphSpec::parse(&TINY.replace("add act1 conv1", "add act1 ghost"))
            .expect_err("unknown ref");
        assert!(matches!(e, GraphSpecError::UnknownInput { .. }), "{e:?}");
        // Duplicate node.
        let e = GraphSpec::parse(&TINY.replace("node act1 relu", "node conv1 relu"))
            .expect_err("duplicate");
        assert!(matches!(e, GraphSpecError::DuplicateNode { .. }), "{e:?}");
        // Output/classes mismatch.
        let e = GraphSpec::parse(&TINY.replace("node fc linear 4", "node fc linear 5"))
            .expect_err("output mismatch");
        assert!(matches!(e, GraphSpecError::OutputMismatch { .. }), "{e:?}");
        // Version gate.
        let e = GraphSpec::parse(&TINY.replace("ahg 1", "ahg 2")).expect_err("version");
        assert!(
            matches!(e, GraphSpecError::UnsupportedVersion { found: 2 }),
            "{e:?}"
        );
        // Target class out of range.
        let e = GraphSpec::parse(&TINY.replace("target-class 1", "target-class 4"))
            .expect_err("target class");
        assert!(
            matches!(
                e,
                GraphSpecError::TargetClassOutOfRange {
                    target: 4,
                    classes: 4
                }
            ),
            "{e:?}"
        );
        // Missing required field.
        let e = GraphSpec::parse(&TINY.replace("dataset cifar10-like\n", "")).expect_err("dataset");
        assert!(
            matches!(e, GraphSpecError::MissingField { field: "dataset" }),
            "{e:?}"
        );
    }

    /// The cap a spec fails on, through `parse` (which validates) alone:
    /// no graph is built, so nothing is allocated for the sizes tested.
    fn too_large(text: &str) -> usize {
        match GraphSpec::parse(text) {
            Err(GraphSpecError::TooLarge { limit, .. }) => limit,
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_specs_fail_validation_as_too_large() {
        // Dimensions: the input, a padding near usize::MAX.
        assert_eq!(
            too_large(&TINY.replace("input 3 8 8", "input 3 100000 100000")),
            MAX_DIM
        );
        let padded = TINY.replace("conv2d 4 3 1 1", &format!("conv2d 4 3 1 {}", usize::MAX));
        assert_eq!(too_large(&padded), MAX_DIM);
        // One node's output: a layer 10^9 wide, and 8 × 4096 × 4096 floats.
        let wide = TINY.replace(
            "node fc linear 4",
            "node fc linear 1000000000\nnode out linear 4",
        );
        assert_eq!(too_large(&wide), MAX_ACTIVATION);
        let deep = TINY
            .replace("input 3 8 8", "input 1 4096 4096")
            .replace("conv2d 4 3 1 1", "conv2d 8 3 1 1");
        assert_eq!(too_large(&deep), MAX_ACTIVATION);
        // Parameters: a 64 × 64 × 64 image flattened into 2048 features.
        let heavy = TINY
            .replace("input 3 8 8", "input 64 64 64")
            .replace("conv2d 4 3 1 1", "conv2d 64 1 1 0")
            .replace("node fc linear 4", "node fc linear 2048\nnode out linear 4");
        assert_eq!(too_large(&heavy), MAX_PARAMETERS);
        // Nodes.
        let relus: String = (0..MAX_NODES)
            .map(|i| format!("node r{i} relu\n"))
            .collect();
        let long = TINY.replace(
            "node flat flatten\n",
            &format!("{relus}node flat flatten\n"),
        );
        assert_eq!(too_large(&long), MAX_NODES);
        // A hand-built spec that bypassed `parse` is capped by `validate`.
        let mut spec = GraphSpec::parse(TINY).expect("parse");
        spec.input = [usize::MAX, usize::MAX, usize::MAX];
        assert!(matches!(
            spec.validate(),
            Err(GraphSpecError::TooLarge { .. })
        ));
        assert_eq!(spec.num_parameters(), 0);
    }

    #[test]
    fn num_parameters_matches_the_materialized_graph() {
        let spec = GraphSpec::parse(TINY).expect("parse");
        let g = spec
            .build_graph(&mut StdRng::seed_from_u64(2))
            .expect("compile");
        assert_eq!(spec.num_parameters(), g.num_parameters());
    }
}
