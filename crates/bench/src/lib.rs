//! # orianna-bench
//!
//! The evaluation harness: everything needed to regenerate the paper's
//! tables and figures (Sec. 7) from this reproduction.
//!
//! * [`eval`] — the per-application pipeline: compile each algorithm,
//!   profile its operation trace, generate an accelerator, simulate
//!   ORIANNA-OoO / ORIANNA-IO, and evaluate every baseline on the same
//!   trace.
//! * [`figures`] — one function per table/figure, each returning both the
//!   raw numbers and a formatted text block; the `figures` binary prints
//!   them (`cargo run --release -p orianna-bench --bin figures -- all`).
//!
//! The `orianna-bench` binary times the per-layer rows committed as
//! `BENCH_*.json`.

pub mod eval;
pub mod figures;

pub use eval::{evaluate_app, repeat_program, AlgoEval, AppEvaluation};
