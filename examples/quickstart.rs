//! Quickstart: train a robust classifier with the paper's proposed method
//! and compare it against an undefended baseline, end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "R8: examples print their results")]

use simpadv_suite::attacks::{Bim, Fgsm};
use simpadv_suite::data::{SynthConfig, SynthDataset};
use simpadv_suite::defense::train::{ProposedTrainer, Trainer, VanillaTrainer};
use simpadv_suite::defense::{evaluate_accuracy, evaluate_clean, ModelSpec, TrainConfig};

fn main() {
    // 1. Data: the synthetic MNIST stand-in (see simpadv-data docs).
    let train = SynthDataset::Mnist.generate(&SynthConfig::new(1000, 1));
    let test = SynthDataset::Mnist.generate(&SynthConfig::new(400, 2));
    let epsilon = SynthDataset::Mnist.paper_epsilon();
    let config = TrainConfig::new(40, 0).with_lr_decay(0.96);

    // 2. Train an undefended classifier and the proposed defense.
    println!("training vanilla classifier ...");
    let mut vanilla = ModelSpec::default_mlp().build(7);
    let rep_v = VanillaTrainer::new().train(&mut vanilla, &train, &config);

    println!("training proposed defense (persistent single-step adversarial examples) ...");
    let mut defended = ModelSpec::default_mlp().build(7);
    let rep_p = ProposedTrainer::paper_defaults(epsilon).train(&mut defended, &train, &config);

    // 3. Evaluate both under clean, FGSM and BIM(10) inputs.
    println!("\n{:<22}{:>10}{:>10}{:>10}{:>12}", "model", "clean", "fgsm", "bim(10)", "s/epoch");
    for (name, clf, rep) in [("vanilla", &mut vanilla, &rep_v), ("proposed", &mut defended, &rep_p)]
    {
        let clean = evaluate_clean(clf, &test);
        let mut fgsm = Fgsm::new(epsilon);
        let a_fgsm = evaluate_accuracy(clf, &test, &mut fgsm);
        let mut bim = Bim::new(epsilon, 10);
        let a_bim = evaluate_accuracy(clf, &test, &mut bim);
        println!(
            "{name:<22}{:>9.1}%{:>9.1}%{:>9.1}%{:>12.3}",
            clean * 100.0,
            a_fgsm * 100.0,
            a_bim * 100.0,
            rep.mean_epoch_seconds()
        );
    }
    println!("\nThe proposed defense keeps clean accuracy, resists iterative attacks that");
    println!("zero out the vanilla model,");
    println!("and costs the same per epoch as single-step adversarial training.");
}
