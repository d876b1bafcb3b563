//! # gsuite-scenarios
//!
//! The scenario engine: the paper's central claim — *any* GNN layer ×
//! dataset × graph format × GPU configuration is a runnable inference
//! experiment — as a first-class, data-driven subsystem.
//!
//! A [`ScenarioSpec`] declares the axes of an experiment grid; the runner
//! expands it into the cross-product of concrete `RunConfig`s, loads each
//! distinct graph once (memoized cache), builds each distinct pipeline
//! once, and fans the profiling grid across CPU cores with bit-identical,
//! thread-count-independent results. The [`registry`] names one spec +
//! renderer per paper figure (`fig3` … `fig9`, `table2`, `table4`) plus
//! beyond-paper scenarios (`xmodels`, `gpusweep`, `ablations`, …), and
//! `gsuite-cli run-scenario` is the one launcher for all of them; it
//! takes `--quick`, `--full` and `--csv DIR` among its flags.
//!
//! ```text
//! gsuite-cli run-scenario --list          # what's in the registry
//! gsuite-cli run-scenario fig5 --quick    # one figure, tiny scales
//! gsuite-cli run-scenario xmodels --csv out/
//! ```
//!
//! The golden-profile regression suite (`tests/golden.rs` at the workspace
//! root) renders every registry scenario in a fixed small mode
//! ([`BenchOpts::golden`]) and diffs the reports against committed
//! snapshots, locking the reproduction's numbers against drift.
//!
//! # Example
//!
//! ```
//! use gsuite_core::config::GnnModel;
//! use gsuite_graph::datasets::Dataset;
//! use gsuite_scenarios::{run_scenario, BenchOpts, ScenarioSpec};
//!
//! let spec = ScenarioSpec {
//!     name: "doc",
//!     title: "GCN across two datasets",
//!     models: vec![GnnModel::Gcn],
//!     datasets: vec![Dataset::Cora, Dataset::CiteSeer],
//!     ..ScenarioSpec::default()
//! };
//! let result = run_scenario(&spec, &BenchOpts::golden());
//! assert_eq!(result.cells.len(), 4); // 2 datasets x {MP/COO, SpMM/CSR}
//! assert_eq!(result.profiled_count(), 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ablations;
mod cache;
mod chaos;
mod opts;
pub mod registry;
mod report;
pub mod resilience;
mod runner;
mod servebatch;
pub mod sim;
mod spec;
pub mod trace;

pub use cache::{ByteLru, LruStats};
pub use opts::{gsuite_pairs, ms, pct, profile_pipeline, sweep_config, BenchOpts};
pub use report::{Report, ReportItem};
pub use runner::{run_scenario, run_scenario_threads, CellOutcome, ScenarioResult};
pub use sim::CacheDisposition;
pub use spec::{format_feeds_comp, CellFilter, GpuSpec, ScalePolicy, ScenarioCell, ScenarioSpec};
