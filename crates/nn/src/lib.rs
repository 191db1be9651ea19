//! A from-scratch CPU neural-network substrate for the RL-MUL agent
//! networks.
//!
//! The paper uses a PyTorch ResNet-18 on GPU; this crate provides the
//! equivalent building blocks in pure Rust: dense tensors, 2-D
//! convolution, batch normalization, residual blocks, linear heads,
//! global average pooling, SGD/RMSProp/Adam optimizers and masked
//! softmax/argmax helpers. Every differentiable layer is covered by a
//! numerical gradient check.
//!
//! # Example
//!
//! ```
//! use rlmul_nn::{build_trunk, Layer, Tensor, TrunkConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let cfg = TrunkConfig { in_channels: 2, channels: vec![8, 16], blocks_per_stage: 1 };
//! let mut trunk = build_trunk(&cfg, &mut rng);
//! let x = Tensor::zeros(&[1, 2, 16, 16]);
//! let features = trunk.forward(&x, false);
//! assert_eq!(features.shape(), &[1, 16]);
//! ```

#![forbid(unsafe_code)]

mod act;
mod ckpt;
mod conv;
pub mod gemm;
pub mod im2col;
mod io;
mod layer;
mod linear;
mod loss;
mod norm;
mod optim;
mod pool;
pub mod reference;
mod resnet;
mod stats;
mod sums;
mod tensor;
mod testutil;

pub use act::Relu;
pub use ckpt::{restore_net, snapshot_net, NetSnapshot};
pub use conv::Conv2d;
pub use io::{load_params, save_params};
pub use layer::{Layer, Param, Sequential};
pub use linear::{Flatten, Linear};
pub use loss::{entropy, masked_argmax, masked_softmax, mse};
pub use norm::BatchNorm2d;
pub use optim::{clip_grad_norm, Adam, Optimizer, RmsProp, Sgd};
pub use pool::GlobalAvgPool;
pub use resnet::{build_trunk, ResidualBlock, TrunkConfig};
pub use stats::NnStats;
pub use tensor::Tensor;
