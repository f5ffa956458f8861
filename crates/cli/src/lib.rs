//! # simpadv-cli
//!
//! The library behind the `simpadv-cli` command-line tool: argument parsing,
//! the model checkpoint format, and the subcommand implementations.
//! Keeping the logic in a library makes every code path unit-testable;
//! `main.rs` is a thin shell.
//!
//! ```text
//! simpadv-cli generate --dataset mnist --samples 20 --preview 3
//! simpadv-cli train    --dataset mnist --method proposed --epochs 40 --out model.json
//! simpadv-cli evaluate --model model.json --dataset mnist
//! simpadv-cli attack   --model model.json --dataset mnist --attack bim10 --index 3
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "R8: the terminal is its interface")]

mod args;
mod checkpoint;
mod commands;

pub use args::{Args, ParseError};
pub use checkpoint::SavedModel;
pub use commands::{run, CliError};
