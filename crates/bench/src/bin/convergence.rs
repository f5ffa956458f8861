//! Regenerates the convergence-dynamics extension: BIM(10) robustness vs
//! training epochs for FGSM-Adv, the proposed method and BIM(10)-Adv.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "R8: the terminal is its interface")]

use simpadv::experiments::convergence::{self, ConvergenceResult};
use simpadv_bench::{baseline::run_with_baseline, write_artifact, BenchOpts};
use simpadv_data::SynthDataset;

fn accuracies(result: &ConvergenceResult) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (series, values) in &result.series {
        for (epochs, acc) in result.epochs.iter().zip(values) {
            out.push((format!("{series}/epochs{epochs}"), f64::from(*acc)));
        }
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = BenchOpts::from_args(&args);
    opts.apply();
    let scale = opts.scale;
    // epoch grid scaled to the configured budget
    let max = scale.epochs;
    let grid: Vec<usize> = [1, 2, 4, 8].iter().map(|f| (max * f / 8).max(1)).collect();
    eprintln!("convergence at scale {scale:?}, epoch grid {grid:?}");
    let (result, baseline_path) = run_with_baseline(&opts, "convergence", accuracies, || {
        convergence::run(SynthDataset::Mnist, &scale, &grid)
    })?;
    println!("{result}");
    let labels: Vec<String> = result.epochs.iter().map(|e| e.to_string()).collect();
    println!("{}", simpadv::chart::render_accuracy_chart(&labels, &result.series));
    match write_artifact("convergence.json", &result) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
    if let Some(path) = baseline_path {
        eprintln!("wrote baseline {}", path.display());
    }
    opts.finish();
    Ok(())
}
