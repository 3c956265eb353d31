//! From-scratch neural networks: layers, a small computation graph with
//! manual backpropagation, optimizers, a training loop, and the `.ahg`
//! graph specs that define the micro CNNs of the AdvHunter reproduction.
//!
//! The paper runs PyTorch CNNs (EfficientNet, ResNet18, DenseNet201 plus a
//! 4-conv/2-fc case-study CNN). This crate rebuilds that substrate natively:
//!
//! * [`Graph`] — a directed acyclic graph of [`Op`]s with forward
//!   ([`Graph::forward`]) and backward ([`Graph::backward`]) passes. The
//!   backward pass yields gradients with respect to *both* parameters (for
//!   training) and the input image (for gradient-based adversarial attacks).
//! * [`spec`] — the `.ahg` textual graph format: a typed [`spec::GraphSpec`]
//!   IR with a parser, canonical serializer, content digest, load-time shape
//!   inference, and a compiler into [`Graph`]. This is the open model API;
//!   any architecture expressible with the ops above can be brought in as a
//!   text file.
//! * [`variants`] — the four paper architectures as specs
//!   ([`variants::canonical_scenarios`], checked in as `specs/*.ahg`) plus a
//!   generated library of width/depth sweeps of each family and an
//!   encoder–decoder topology.
//! * [`train`] — Adam/SGD optimizers and a batched training loop.
//! * [`record`] — per-activation-layer neuron statistics (paper Figure 1).
//! * [`io`] — a small binary weight format plus the cache directory the
//!   artifact store keeps trained models under.
//!
//! # Example
//!
//! ```
//! use advhunter_nn::{Graph, GraphBuilder, Mode};
//! use advhunter_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut b = GraphBuilder::new(&[1, 8, 8]);
//! let input = b.input();
//! let c = b.conv2d("conv", input, 4, 3, 1, 1, &mut rng);
//! let r = b.relu("relu", c);
//! let f = b.flatten("flatten", r);
//! b.linear("fc", f, 3, &mut rng);
//! let graph: Graph = b.build();
//! let logits = graph.forward(&Tensor::zeros(&[2, 1, 8, 8]), Mode::Eval).output().clone();
//! assert_eq!(logits.shape().dims(), &[2, 3]);
//! ```

mod graph;
mod kernels;
mod workspace;

pub mod augment;
pub mod io;
pub mod record;
pub mod spec;
pub mod train;
pub mod variants;

pub use graph::{
    Aux, BatchNorm2d, Conv2dLayer, DwConv2dLayer, ForwardTrace, Gradients, Graph, GraphBuilder,
    LinearLayer, Mode, Node, Op, ParamGrad, Src,
};
pub use kernels::{gemm_geometries, MatKernels, NodeKernel};
pub use workspace::Workspace;
