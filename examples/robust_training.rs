//! Head-to-head: all five defensive methods from the paper on one
//! dataset, with robustness and cost — a miniature of Table I.
//!
//! ```text
//! cargo run --release --example robust_training [mnist|fashion]
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "R8: examples print their results")]

use simpadv_suite::data::SynthDataset;
use simpadv_suite::defense::experiments::ExperimentScale;
use simpadv_suite::defense::train::{
    AtdaTrainer, BimAdvTrainer, FgsmAdvTrainer, ProposedTrainer, Trainer, VanillaTrainer,
};
use simpadv_suite::defense::{EvalSuite, ModelSpec};

fn main() {
    let dataset = match std::env::args().nth(1).as_deref() {
        Some("fashion") => SynthDataset::Fashion,
        _ => SynthDataset::Mnist,
    };
    let scale = ExperimentScale::quick();
    let (train, test) = scale.load(dataset);
    let eps = dataset.paper_epsilon();
    let config = scale.train_config();
    println!(
        "dataset {} (eps = {eps}), {} train / {} test, {} epochs\n",
        dataset.id(),
        train.len(),
        test.len(),
        config.epochs
    );

    let mut methods: Vec<(&str, Box<dyn Trainer>)> = vec![
        ("vanilla", Box::new(VanillaTrainer::new())),
        ("fgsm-adv", Box::new(FgsmAdvTrainer::new(eps))),
        ("atda", Box::new(AtdaTrainer::new(eps))),
        ("proposed", Box::new(ProposedTrainer::paper_defaults(eps))),
        ("bim(10)-adv", Box::new(BimAdvTrainer::new(eps, 10))),
    ];

    println!(
        "{:<14}{:>10}{:>10}{:>10}{:>10}{:>12}{:>12}",
        "method", "orig", "fgsm", "bim(10)", "bim(30)", "s/epoch", "passes/ep"
    );
    for (name, trainer) in methods.iter_mut() {
        let mut clf = ModelSpec::default_mlp().build(42);
        let report = trainer.train(&mut clf, &train, &config);
        let eval = EvalSuite::paper(eps).run(&mut clf, &test);
        print!("{name:<14}");
        for a in &eval.accuracies {
            print!("{:>9.1}%", a * 100.0);
        }
        println!("{:>12.3}{:>12.0}", report.mean_epoch_seconds(), report.mean_gradient_passes());
    }
    println!("\nReading: only the methods that train on iterative (or epoch-wise iterated)");
    println!("adversarial examples hold up against BIM, and the proposed method does so");
    println!("at single-step cost.");
}
