//! Network building blocks: trainable layers, activations and containers.

mod activation;
mod conv;
mod dense;
mod flatten;
mod pool;
mod reshape;
mod sequential;

pub use activation::Relu;
pub use conv::Conv2d;
pub use dense::Dense;
pub use flatten::Flatten;
pub use pool::MaxPool2d;
pub use reshape::Reshape;
pub use sequential::Sequential;

use rand::Rng;
use simpadv_tensor::Tensor;

/// He/Kaiming-uniform weights for ReLU networks: `U(-a, a)` with
/// `a = sqrt(6 / fan_in)`.
fn he_uniform<R: Rng + ?Sized>(rng: &mut R, shape: &[usize], fan_in: usize) -> Tensor {
    let a = (6.0 / fan_in as f32).sqrt();
    Tensor::rand_uniform(rng, shape, -a, a)
}
