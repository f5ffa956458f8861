//! # simpadv
//!
//! The core of the reproduction of *"Using Intuition from Empirical
//! Properties to Simplify Adversarial Training Defense"* (Liu, Khalil,
//! Khreishah — 2019, arXiv:1906.11729): adversarial-training methods, the
//! robustness evaluation harness, and runners for every figure and table in
//! the paper.
//!
//! ## The methods
//!
//! | Trainer | Paper role | Cost per batch (extra fwd/bwd) |
//! |---|---|---|
//! | [`train::VanillaTrainer`] | undefended baseline | 0 |
//! | [`train::FgsmAdvTrainer`] | original Single-Adv (Goodfellow et al.) | 1 |
//! | [`train::AtdaTrainer`] | SOTA Single-Adv comparator (Song et al.) | 1 (+ DA loss) |
//! | [`train::ProposedTrainer`] | **the paper's contribution** | 1 |
//! | [`train::BimAdvTrainer`] | Iter-Adv (Kurakin/Madry) | k |
//!
//! The proposed method keeps one **persistent adversarial example per
//! training image**, advances it by a single *large* signed-gradient step
//! each epoch (projected to the ε-ball), and resets it every
//! `reset_period` epochs — so adversarial examples become iterative *across
//! epochs* while each epoch pays only Single-Adv cost (Figure 3b of the
//! paper).
//!
//! ## Quickstart
//!
//! ```no_run
//! use simpadv::{train::{ProposedTrainer, Trainer}, EvalSuite, ModelSpec, TrainConfig};
//! use simpadv_data::{SynthConfig, SynthDataset};
//!
//! let train = SynthDataset::Mnist.generate(&SynthConfig::new(1000, 1));
//! let test = SynthDataset::Mnist.generate(&SynthConfig::new(500, 2));
//! let config = TrainConfig::new(10, 0);
//! let mut clf = ModelSpec::default_mlp().build(7);
//! let mut trainer = ProposedTrainer::new(0.3, 0.1, 20);
//! let report = trainer.train(&mut clf, &train, &config);
//! println!("mean epoch time: {:.3}s", report.mean_epoch_seconds());
//! let eval = EvalSuite::paper(0.3).run(&mut clf, &test);
//! println!("{eval}");
//! ```

// R1: every sanctioned panic site carries an item-level `#[expect]` (DESIGN.md §8).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod chart;
mod config;
pub mod contracts;
pub mod diagnostics;
mod eval;
mod eval_detail;
pub mod experiments;
mod model;
mod report;
pub mod smoothing;
pub mod train;

pub use config::TrainConfig;
pub use diagnostics::{audit_masking, DiagnosticCheck, MaskingReport};
pub use eval::{
    evaluate_accuracy, evaluate_accuracy_parallel, evaluate_clean, EvalResult, EvalSuite,
};
pub use eval_detail::{class_breakdown, ClassBreakdown};
pub use model::ModelSpec;
pub use report::TrainReport;
pub use smoothing::{SmoothedClassifier, SmoothedPrediction};
