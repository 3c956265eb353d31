//! Numerical kernels: matrix multiplication, 2-D convolution, pooling, and
//! activation functions, each with the backward pass needed for training and
//! for gradient-based adversarial attacks.
//!
//! Kernels operate on [`Tensor`](crate::Tensor)s in NCHW layout (batch,
//! channels, height, width). The reference kernels are straightforward
//! loops that the compiler auto-vectorizes; the training and inference hot
//! paths run the packed-panel GEMMs of the `gemm` module instead, and the
//! training kernels fan images, rows and channels out over an
//! `advhunter_runtime::Parallelism`, bit-identical to the reference loops
//! at any worker count.

mod activation;
mod conv;
mod exp;
mod gemm;
mod linear;
mod pool;

pub use activation::{
    cross_entropy_with_logits, leaky_relu, leaky_relu_backward, leaky_relu_into, log_softmax_rows,
    relu, relu_backward, relu_into, sigmoid, sigmoid_backward, sigmoid_into, silu, silu_backward,
    silu_into, softmax_rows, tanh, tanh_backward, tanh_into,
};
pub use conv::{
    conv2d, conv2d_backward, conv2d_backward_reference, conv2d_into, conv2d_packed_into,
    conv2d_param_backward, dwconv2d, dwconv2d_backward, dwconv2d_into, Conv2dScratch, Conv2dSpec,
};
pub use gemm::{
    gemm_packed_bias_into, linear_packed_bias_into, GemmGeometry, GemmOpKind, KernelVariant,
    PackedWeights,
};
pub use linear::{
    linear, linear_backward, linear_into, linear_packed_into, matmul, matmul_at, matmul_bt,
    matmul_bt_into, matmul_into,
};
pub use pool::{
    avgpool2d, avgpool2d_backward, avgpool2d_into, global_avgpool, global_avgpool_backward,
    global_avgpool_into, maxpool2d, maxpool2d_backward, maxpool2d_into, MaxPoolIndices,
};
