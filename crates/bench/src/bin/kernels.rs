//! `bench kernels`: the kernel microbenchmark lab.
//!
//! Sweeps every registered hot kernel at real experiment shapes, prints
//! the scoreboard, and writes `BENCH_kernels.json` (plus optional
//! flamegraphs). See `simpadv_bench::kernels` for the registry and the
//! logical/wall split.
//!
//! ```text
//! cargo run --release -p simpadv-bench --bin kernels -- --smoke
//! cargo run --release -p simpadv-bench --bin kernels -- \
//!     --full --repeat 5 --flame-dir results/flame
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "R8: the terminal is its interface")]

use simpadv_bench::kernels::{run_sweep, write_outputs, KernelsOpts};

#[expect(clippy::disallowed_methods, reason = "R12: bench exit code is the CI interface")]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = KernelsOpts::from_args(&args);
    let (artifact, events) = run_sweep(&opts);
    print!("{}", simpadv_bench::kernels::render_table(&artifact));
    if let Err(e) = write_outputs(&opts, &artifact, &events) {
        eprintln!("cannot write kernel scoreboard: {e}");
        std::process::exit(1);
    }
    println!("wrote {}", opts.out.display());
    if let Some(dir) = &opts.flame_dir {
        println!("wrote flamegraphs under {}", dir.display());
    }
}
