//! Numerical kernels: matrix multiplication, 2-D convolution, pooling, and
//! activation functions, each with the backward pass needed for training and
//! for gradient-based adversarial attacks.
//!
//! Kernels operate on [`Tensor`](crate::Tensor)s in NCHW layout (batch,
//! channels, height, width). The reference kernels are straightforward
//! loops that the compiler auto-vectorizes; the training and inference hot
//! paths run the packed-panel GEMMs of the `gemm` module instead. Every
//! kernel runs on the calling thread. The backward passes of the
//! parameterized layers also come in pieces, per-image ones and
//! whole-batch reductions over a batch held in parts, so that a training
//! step can run them on image shards and stay bit-identical to the
//! one-batch kernels.

mod activation;
mod conv;
mod exp;
mod gemm;
mod linear;
mod pool;

pub use activation::{
    cross_entropy_with_logits, leaky_relu, leaky_relu_backward_into, leaky_relu_into,
    log_softmax_rows, relu, relu_backward_into, relu_into, sigmoid, sigmoid_backward_into,
    sigmoid_into, silu, silu_backward_from_sigmoid_into, silu_backward_into, silu_into,
    silu_sigmoid_of_into, softmax_rows, tanh, tanh_backward_into, tanh_into,
};
pub use conv::{
    conv2d, conv2d_backward, conv2d_backward_reference, conv2d_input_grad_into, conv2d_into,
    conv2d_packed_into, conv2d_sum_partials, conv2d_weight_partial_sum, conv2d_weight_partials,
    dwconv2d, dwconv2d_backward, dwconv2d_input_grad_into, dwconv2d_into, dwconv2d_param_grads,
    Conv2dScratch, Conv2dSpec,
};
pub use gemm::{
    gemm_packed_bias_into, linear_packed_bias_cols_into, linear_packed_bias_into, GemmGeometry,
    GemmOpKind, KernelVariant, PackedWeights,
};
pub use linear::{
    linear, linear_backward, linear_bias_grad, linear_input_grad_blocks_into,
    linear_input_grad_into, linear_into, linear_packed_into, linear_weight_grad_rows, matmul,
    matmul_at, matmul_bt, matmul_bt_into, matmul_into,
};
pub use pool::{
    avgpool2d, avgpool2d_backward_into, avgpool2d_into, global_avgpool,
    global_avgpool_backward_into, global_avgpool_into, maxpool2d, maxpool2d_backward_into,
    maxpool2d_into, MaxPoolIndices,
};
