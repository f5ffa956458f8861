//! # simpadv-data
//!
//! Synthetic image datasets for the `simpadv` reproduction of *"Using
//! Intuition from Empirical Properties to Simplify Adversarial Training
//! Defense"* (Liu et al., 2019).
//!
//! The paper evaluates on MNIST and Fashion-MNIST. Those corpora are not
//! available in this environment, so this crate generates **procedural
//! stand-ins** with the properties the experiments actually depend on:
//!
//! * 28×28 grayscale images in `[0, 1]`, ten classes, balanced;
//! * within-class variation (translation, rotation, scale, stroke
//!   thickness, pixel noise) so classifiers must generalize;
//! * a "digits" task ([`SynthDataset::Mnist`]) that small networks learn to
//!   high accuracy, and a deliberately harder "garments" task
//!   ([`SynthDataset::Fashion`]) with confusable classes (t-shirt vs shirt
//!   vs pullover vs coat), mirroring the MNIST vs Fashion-MNIST gap;
//! * full determinism under a seed.
//!
//! ## Example
//!
//! ```
//! use simpadv_data::{Dataset, SynthConfig, SynthDataset};
//!
//! let data = SynthDataset::Mnist.generate(&SynthConfig::new(100, 7));
//! assert_eq!(data.len(), 100);
//! assert_eq!(data.images().shape(), &[100, 784]);
//! assert!(data.images().as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
//! ```

// R1: every sanctioned panic site carries an item-level `#[expect]` (DESIGN.md §8).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod ascii;
mod dataset;
mod fashion;
mod glyphs;
mod pgm;
mod raster;
mod synth;

pub use ascii::{ascii_image, ascii_pair};
pub use dataset::{BatchIter, Dataset};
pub use fashion::FASHION_NAMES;
pub use pgm::{save_pgm, write_pgm};
pub use raster::{arc_points, Canvas, Transform};
pub use synth::{SynthConfig, SynthDataset, CLASS_COUNT, IMAGE_PIXELS, IMAGE_SIDE};
