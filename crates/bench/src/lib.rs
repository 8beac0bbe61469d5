//! # minpsid-bench — experiment harness
//!
//! The paper's evaluation — Figs. 2 and 6–9, Tables II–IV, §IV, §VIII and
//! four ablations — is twelve views of one computation per kernel. A
//! [`Sweep`] computes each kernel's baseline profile, MINPSID passes and
//! evaluation campaigns once; the [`tables`] render from it. One binary
//! prints them (DESIGN.md §4 has the index):
//!
//! ```text
//! experiments [TABLE…] [--preset tiny|small|paper] [--seed N] [--bench KERNEL]
//!             [--trace-out FILE] [--out DIR]
//! ```
//!
//! `paper` uses the paper's §III-A counts (50 evaluation inputs, 1000
//! whole-program injections, 100 per-instruction injections); `tiny` and
//! `small` scale those down for a single-core box. Coverage *shapes* (who
//! wins, where the loss appears) are stable across presets; only error
//! bars widen.

pub mod candlestick;
pub mod experiment;
pub mod preset;
pub mod tables;

pub use candlestick::Candlestick;
pub use experiment::{CoverageRow, Prepared, Sweep};
pub use preset::{parse_args, usage, ExperimentArgs, Preset};
