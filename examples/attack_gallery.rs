//! Attack gallery: renders a clean digit and its adversarial versions
//! under every attack in the crate as ASCII art, with the model's
//! prediction for each.
//!
//! ```text
//! cargo run --release --example attack_gallery
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "R8: examples print their results")]

use simpadv_suite::attacks::{Attack, Bim, Fgsm, Mim, Pgd, RandomNoise};
use simpadv_suite::data::{ascii_image, SynthConfig, SynthDataset};
use simpadv_suite::defense::train::{Trainer, VanillaTrainer};
use simpadv_suite::defense::{ModelSpec, TrainConfig};

fn main() {
    let train = SynthDataset::Mnist.generate(&SynthConfig::new(800, 1));
    let mut clf = ModelSpec::default_mlp().build(3);
    println!("training an (undefended) classifier ...");
    VanillaTrainer::new().train(&mut clf, &train, &TrainConfig::new(12, 0));

    // pick one test digit
    let test = SynthDataset::Mnist.generate(&SynthConfig::new(20, 99));
    let idx = 3; // class 3 by construction (balanced generation order)
    let x = test.images().rows(idx..idx + 1);
    let y = vec![test.labels()[idx]];
    let eps = 0.3;

    let mut attacks: Vec<(&str, Box<dyn Attack>)> = vec![
        ("random noise", Box::new(RandomNoise::new(eps, 5))),
        ("fgsm", Box::new(Fgsm::new(eps))),
        ("bim(10)", Box::new(Bim::new(eps, 10))),
        ("pgd(10)", Box::new(Pgd::new(eps, 10, 5))),
        ("mim(10)", Box::new(Mim::new(eps, 10, 1.0))),
    ];

    let pred = clf.predict(&x)[0];
    println!("\n=== clean image — true label {}, predicted {pred} ===", y[0]);
    println!("{}", ascii_image(&x.row(0)));

    for (name, attack) in attacks.iter_mut() {
        let adv = attack.perturb(&mut clf, &x, &y);
        let pred = clf.predict(&adv)[0];
        let verdict = if pred == y[0] { "correct" } else { "FOOLED" };
        println!("=== {name} (eps = {eps}) — predicted {pred} ({verdict}) ===");
        println!("{}", ascii_image(&adv.row(0)));
    }
}
