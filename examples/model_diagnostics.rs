//! Deep-dive diagnostics of one trained defense: gradient-masking audit,
//! per-class robustness breakdown, and noise-stability via randomized
//! smoothing.
//!
//! ```text
//! cargo run --release --example model_diagnostics
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "R8: examples print their results")]

use simpadv_suite::attacks::Bim;
use simpadv_suite::data::{SynthConfig, SynthDataset};
use simpadv_suite::defense::train::{ProposedTrainer, Trainer};
use simpadv_suite::defense::{
    audit_masking, class_breakdown, ModelSpec, SmoothedClassifier, TrainConfig,
};

fn main() {
    let dataset = SynthDataset::Mnist;
    let eps = dataset.paper_epsilon();
    let train = dataset.generate(&SynthConfig::new(800, 1));
    let test = dataset.generate(&SynthConfig::new(200, 2));

    println!("training the proposed defense ...");
    let mut clf = ModelSpec::default_mlp().build(7);
    ProposedTrainer::paper_defaults(eps).train(
        &mut clf,
        &train,
        &TrainConfig::new(40, 0).with_lr_decay(0.96),
    );

    // 1. is the robustness real, or obfuscated gradients?
    println!("\n{}", audit_masking(&mut clf, &test, eps, 11));

    // 2. which classes does the defense actually protect?
    println!("per-class recall (columns are classes 0-9):");
    println!("{}", class_breakdown(&mut clf, &test, None));
    let mut bim = Bim::new(eps, 10);
    let attacked = class_breakdown(&mut clf, &test, Some(&mut bim));
    println!("{attacked}");
    if let Some(w) = attacked.weakest_class() {
        println!("weakest class under BIM(10): {w}");
    }

    // 3. stability under pure noise (no gradients involved)
    let subset = test.subset(&(0..50).collect::<Vec<_>>());
    let (acc, margin) =
        SmoothedClassifier::new(&mut clf, 0.35, 24, 5).stability(subset.images(), subset.labels());
    println!(
        "\nsmoothed accuracy at sigma 0.35: {:.1}% (mean vote margin {:.2})",
        acc * 100.0,
        margin
    );
}
