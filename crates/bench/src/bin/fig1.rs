//! Regenerates Figure 1: test accuracy vs BIM iteration count, for the
//! four probe classifiers on both synthetic datasets.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "R8: the terminal is its interface")]

use simpadv::experiments::fig1::{self, Fig1Result};
use simpadv_bench::{baseline::run_with_baseline, write_artifact, BenchOpts};
use simpadv_data::SynthDataset;

fn accuracies(results: &[Fig1Result]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for result in results {
        for (series, values) in &result.series {
            for (iters, acc) in result.iterations.iter().zip(values) {
                out.push((format!("{}/{series}/iter{iters}", result.dataset), f64::from(*acc)));
            }
        }
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = BenchOpts::from_args(&args);
    opts.apply();
    let scale = opts.scale;
    eprintln!("figure 1 at scale {scale:?}");
    let (artifacts, baseline_path) = run_with_baseline(
        &opts,
        "fig1",
        |r: &Vec<Fig1Result>| accuracies(r),
        || {
            [SynthDataset::Mnist, SynthDataset::Fashion]
                .into_iter()
                .map(|dataset| fig1::run(dataset, &scale))
                .collect::<Vec<_>>()
        },
    )?;
    for result in &artifacts {
        println!("{result}");
        let labels: Vec<String> = result.iterations.iter().map(|n| n.to_string()).collect();
        println!("{}", simpadv::chart::render_accuracy_chart(&labels, &result.series));
    }
    match write_artifact("fig1.json", &artifacts) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
    if let Some(path) = baseline_path {
        eprintln!("wrote baseline {}", path.display());
    }
    opts.finish();
    Ok(())
}
