//! # gsuite-serve
//!
//! The serving layer of gSuite-rs: the benchmark engine under *sustained
//! request traffic* instead of one-shot batch sweeps. A long-running
//! service accepts inference-benchmark requests (model × dataset × format
//! × GPU config), executes them through a worker pool with
//!
//! * a **byte-accounted LRU cache** of built graphs + pipelines, sharded
//!   by key hash with per-shard locks ([`ShardedByteLru`] over
//!   [`ByteLru`]; hit/miss/eviction and lock-wait counters),
//! * a **plan-template fast path** — repeat compile shapes skip
//!   lower/optimize/decorate and only instantiate + re-schedule
//!   ([`gsuite_core::plan::template::TemplateCache`]), bit-identically,
//! * **request coalescing** — identical in-flight configurations share one
//!   profile run,
//! * a **bounded queue with backpressure** (blocking submits for
//!   closed-loop clients, load shedding for open-loop overload) and
//!   per-request queue/service/latency timing,
//!
//! and a deterministic **load generator** that drives the service from a
//! seeded workload mix (drawn from the scenario registry) in closed- or
//! open-loop mode, producing a throughput + p50/p95/p99 latency + SLO
//! report. Request execution reuses the batch runner's exact build/profile
//! path, so a served profile is bit-identical to the same configuration's
//! cell in [`gsuite_scenarios::run_scenario`].
//!
//! Two clocks, one service model:
//!
//! * `--clock sim` replays the stream through a pure discrete-event model
//!   ([`sim`]) over the profiles' *modeled* milliseconds — byte-identical
//!   reports for a `(scenario, seed, parameters)` triple on any host, any
//!   thread count: a reproducible benchmark.
//! * `--clock wall` drives a live threaded [`Server`] and reports measured
//!   wall time; the `net` module exposes the same service over a newline-delimited
//!   `std::net` TCP protocol.
//!
//! ```text
//! gsuite-cli serve --port 4816 --threads 8
//! gsuite-cli loadgen --scenario serve-mix --seed 42
//! gsuite-cli loadgen --connect 127.0.0.1:4816 --clients 8 --requests 256
//! ```
//!
//! # Example
//!
//! ```
//! use gsuite_serve::{run_loadgen, ClockMode, LoadSpec};
//! use gsuite_scenarios::BenchOpts;
//!
//! let spec = LoadSpec {
//!     requests: 32,
//!     opts: BenchOpts::golden(),
//!     ..LoadSpec::default()
//! };
//! let report = run_loadgen(&spec).unwrap();
//! assert_eq!(report.completed, 32);
//! // Repeated configurations in the mix make the pipeline cache pay off.
//! assert!(report.cache.hit_rate() > 0.0);
//! // Same spec, same report — down to every per-request latency.
//! assert_eq!(run_loadgen(&spec).unwrap(), report);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod fault;
mod loadgen;
mod net;
mod request;
mod server;

/// The deterministic discrete-event execution model behind `--clock sim`
/// — re-exported from [`gsuite_scenarios::sim`], where it lives so the
/// scenario registry's `chaos` sweep can drive the same model without a
/// dependency cycle.
pub mod sim {
    pub use gsuite_scenarios::sim::*;
}

pub use cache::ShardedByteLru;
pub use fault::ResilienceSummary;
pub use gsuite_scenarios::sim::build_cost_ms;
pub use gsuite_scenarios::{ByteLru, LruStats};
pub use loadgen::{
    run_loadgen, run_loadgen_traced, ArrivalMode, BatchSummary, ClockMode, LatencySummary,
    LoadReport, LoadSpec, SloReport, PHASE_SPAN_NAMES,
};
pub use net::{loadgen_tcp, serve_blocking, serve_on, ProtocolClient};
pub use request::{CacheDisposition, ServeRequest};
pub use server::{
    entry_bytes, CachedPipeline, Completion, ServeConfig, Server, ServerStats, SubmitError,
};
