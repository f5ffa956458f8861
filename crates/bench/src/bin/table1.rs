//! Regenerates Table I: accuracy of all five defensive methods on
//! Original / FGSM / BIM(10) / BIM(30) inputs for both datasets, plus
//! training cost per epoch.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "R8: the terminal is its interface")]

use simpadv::experiments::table1::{self, Table1Result};
use simpadv_bench::{baseline::run_with_baseline, write_artifact, BenchOpts};

fn accuracies(result: &Table1Result) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for row in &result.rows {
        for (ds, eval) in &row.evals {
            for (col, acc) in eval.columns.iter().zip(&eval.accuracies) {
                out.push((format!("{ds}/{}/{col}", row.method), f64::from(*acc)));
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
    eprintln!("table 1 at scale {scale:?}");
    let (result, baseline_path) =
        run_with_baseline(&opts, "table1", accuracies, || table1::run(&scale))?;
    println!("{result}");
    match write_artifact("table1.json", &result) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
    if let Some(path) = baseline_path {
        eprintln!("wrote baseline {}", path.display());
    }
    opts.finish();
    Ok(())
}
