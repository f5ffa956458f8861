//! # simpadv-nn
//!
//! A layer-based neural-network library with **exact analytic backprop**,
//! built on [`simpadv_tensor`]. It is the training/inference substrate of
//! the `simpadv` reproduction of *"Using Intuition from Empirical Properties
//! to Simplify Adversarial Training Defense"* (Liu et al., 2019).
//!
//! Design highlights:
//!
//! * Every [`Layer`] caches what its backward pass needs during `forward`
//!   and returns **the gradient with respect to its input** from `backward`.
//!   Chaining backward through [`Sequential`] therefore yields ∂loss/∂input
//!   — exactly the quantity FGSM/BIM-style attacks require — at no extra
//!   cost.
//! * Weight initialization is seeded; training runs are exactly
//!   reproducible.
//! * Optimizers operate on a flat, stable ordering of parameters exposed by
//!   [`Layer::params`], so optimizer state never aliases the network.
//!
//! ## Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use simpadv_nn::{Classifier, Dense, Relu, Sequential, Sgd, SoftmaxCrossEntropy};
//! use simpadv_tensor::Tensor;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = Sequential::new(vec![
//!     Box::new(Dense::new(4, 16, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Dense::new(16, 3, &mut rng)),
//! ]);
//! let mut clf = Classifier::new(net, 3);
//! let x = Tensor::rand_uniform(&mut rng, &[8, 4], 0.0, 1.0);
//! let y = vec![0usize, 1, 2, 0, 1, 2, 0, 1];
//! let mut opt = Sgd::new(0.1);
//! let loss0 = clf.train_batch(&x, &y, &mut opt);
//! let loss1 = clf.train_batch(&x, &y, &mut opt);
//! assert!(loss1 < loss0, "training reduces the loss on a fixed batch");
//! ```

// R1: every sanctioned panic site carries an item-level `#[expect]` (DESIGN.md §8).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod classifier;
mod layer;
pub mod layers;
mod loss;
mod metrics;
mod optim;
mod serialize;
#[cfg(test)]
pub(crate) mod testutil;

pub use classifier::{Classifier, GradientModel};
pub use layer::{Layer, Mode, ParamRef};
pub use layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu, Reshape, Sequential};
pub use loss::{log_softmax, softmax, SoftmaxCrossEntropy};
pub use metrics::{accuracy, ConfusionMatrix};
pub use optim::{OptimState, Optimizer, Sgd};
pub use serialize::{load_state_dict_json, save_state_dict_json, StateDict};
