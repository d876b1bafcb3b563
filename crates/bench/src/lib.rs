//! # gsuite-bench
//!
//! Micro-benchmarks of the engine itself — the core kernels, pipeline
//! construction and profiling, and trace replay (`benches/`) — on the
//! [`microbench`] harness. `scripts/bench.sh` records their results as a
//! `BENCH_<tag>.json` trajectory.
//!
//! The paper's tables and figures are registry scenarios
//! ([`gsuite_scenarios::registry`]), run with
//! `gsuite-cli run-scenario NAME [--quick|--full] [--csv DIR]`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod microbench;
