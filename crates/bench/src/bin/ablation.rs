//! Regenerates the ablation study of the proposed method's two knobs
//! (per-epoch step size, reset period) — the design-choice analysis
//! DESIGN.md lists beyond the paper's own exhibits.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "R8: the terminal is its interface")]

use simpadv::experiments::ablation::{self, AblationResult};
use simpadv_bench::{baseline::run_with_baseline, write_artifact, BenchOpts};
use simpadv_data::SynthDataset;

fn accuracies(result: &AblationResult) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (sweep, rows) in [("step", &result.step_sweep), ("reset", &result.reset_sweep)] {
        for row in rows {
            out.push((format!("{sweep}/{}/clean", row.variant), f64::from(row.clean)));
            out.push((format!("{sweep}/{}/robust", row.variant), f64::from(row.robust)));
        }
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = BenchOpts::from_args(&args);
    opts.apply();
    let scale = opts.scale;
    eprintln!("ablation at scale {scale:?}");
    let (result, baseline_path) = run_with_baseline(&opts, "ablation", accuracies, || {
        ablation::run(SynthDataset::Mnist, &scale)
    })?;
    println!("{result}");
    match write_artifact("ablation.json", &result) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
    if let Some(path) = baseline_path {
        eprintln!("wrote baseline {}", path.display());
    }
    opts.finish();
    Ok(())
}
