//! Gradient-masking audit of the proposed defense (and, for contrast, a
//! vanilla model) — the executable version of the paper's claim that
//! adversarial training does not rely on obfuscated gradients.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "R8: the terminal is its interface")]

use simpadv::train::{ProposedTrainer, Trainer, VanillaTrainer};
use simpadv::{audit_masking, MaskingReport, ModelSpec};
use simpadv_bench::{baseline::run_with_baseline, write_artifact, BenchOpts};
use simpadv_data::SynthDataset;

fn accuracies(reports: &[(String, MaskingReport)]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (model, report) in reports {
        for check in &report.checks {
            out.push((format!("{model}/{}", check.name), f64::from(u8::from(check.passed))));
        }
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = BenchOpts::from_args(&args);
    opts.apply();
    let scale = opts.scale;
    let dataset = SynthDataset::Mnist;
    let eps = dataset.paper_epsilon();

    eprintln!("training vanilla + proposed for the audit ({scale:?})");
    let (reports, baseline_path) = run_with_baseline(
        &opts,
        "audit",
        |r: &Vec<(String, MaskingReport)>| accuracies(r),
        || {
            let (train, test) = scale.load(dataset);
            let config = scale.train_config();
            let mut vanilla = ModelSpec::default_mlp().build(scale.seed);
            VanillaTrainer::new().train(&mut vanilla, &train, &config);
            let mut proposed = ModelSpec::default_mlp().build(scale.seed);
            ProposedTrainer::paper_defaults(eps).train(&mut proposed, &train, &config);
            [("vanilla", &mut vanilla), ("proposed", &mut proposed)]
                .map(|(name, clf)| (name.to_string(), audit_masking(clf, &test, eps, scale.seed)))
                .into_iter()
                .collect::<Vec<_>>()
        },
    )?;
    for (name, report) in &reports {
        println!("== {name} ==\n{report}");
    }
    match write_artifact("audit.json", &reports) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
    if let Some(path) = baseline_path {
        eprintln!("wrote baseline {}", path.display());
    }
    opts.finish();
    Ok(())
}
