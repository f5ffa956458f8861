//! Exports dataset samples and their adversarial versions as PGM images
//! (viewable in any image viewer) — the inspection workflow for anyone
//! extending the datasets or attacks.
//!
//! ```text
//! cargo run --release --example export_images [out_dir]
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "R8: examples print their results")]

use simpadv_suite::attacks::{Attack, Bim};
use simpadv_suite::data::{save_pgm, SynthConfig, SynthDataset, FASHION_NAMES};
use simpadv_suite::defense::train::{Trainer, VanillaTrainer};
use simpadv_suite::defense::{ModelSpec, TrainConfig};
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir: PathBuf =
        std::env::args().nth(1).unwrap_or_else(|| "exported_images".to_string()).into();
    std::fs::create_dir_all(&out_dir)?;

    // one clean sample per class, both datasets
    for dataset in [SynthDataset::Mnist, SynthDataset::Fashion] {
        let data = dataset.generate(&SynthConfig::new(10, 42));
        for (i, fashion_name) in FASHION_NAMES.iter().enumerate() {
            let name = match dataset {
                SynthDataset::Mnist => format!("mnist_{i}.pgm"),
                SynthDataset::Fashion => format!("fashion_{i}_{fashion_name}.pgm"),
            };
            save_pgm(&data.images().row(i), out_dir.join(name))?;
        }
    }

    // adversarial pair for one digit against a quickly trained model
    let train = SynthDataset::Mnist.generate(&SynthConfig::new(500, 1));
    let mut clf = ModelSpec::default_mlp().build(5);
    VanillaTrainer::new().train(&mut clf, &train, &TrainConfig::new(8, 0));
    let x = train.images().rows(3..4);
    let y = vec![train.labels()[3]];
    let adv = Bim::new(0.3, 10).perturb(&mut clf, &x, &y);
    save_pgm(&x.row(0), out_dir.join("adv_before.pgm"))?;
    save_pgm(&adv.row(0), out_dir.join("adv_after.pgm"))?;

    println!("wrote 22 PGM images to {}", out_dir.display());
    Ok(())
}
