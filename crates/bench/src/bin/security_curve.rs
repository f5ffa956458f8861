//! Regenerates the security-curve extension: accuracy vs BIM(10) budget
//! for Vanilla / FGSM-Adv / Proposed / BIM(10)-Adv.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "R8: the terminal is its interface")]

use simpadv::experiments::security_curve::{self, SecurityCurveResult};
use simpadv_bench::{baseline::run_with_baseline, write_artifact, BenchOpts};
use simpadv_data::SynthDataset;

fn accuracies(result: &SecurityCurveResult) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (series, values) in &result.series {
        for (i, acc) in values.iter().enumerate() {
            out.push((format!("{series}/eps{i}"), f64::from(*acc)));
        }
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = BenchOpts::from_args(&args);
    opts.apply();
    let scale = opts.scale;
    eprintln!("security curves at scale {scale:?}");
    let (result, baseline_path) = run_with_baseline(&opts, "security_curve", accuracies, || {
        security_curve::run(SynthDataset::Mnist, &scale)
    })?;
    println!("{result}");
    let labels: Vec<String> = result.epsilons.iter().map(|e| format!("{e:.2}")).collect();
    println!("{}", simpadv::chart::render_accuracy_chart(&labels, &result.series));
    match write_artifact("security_curve.json", &result) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
    if let Some(path) = baseline_path {
        eprintln!("wrote baseline {}", path.display());
    }
    opts.finish();
    Ok(())
}
