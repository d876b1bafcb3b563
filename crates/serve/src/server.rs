//! The long-running inference-benchmark service: a worker pool draining a
//! bounded FIFO request queue, a shared byte-accounted LRU cache of built
//! graphs + pipelines (sharded by key hash with per-shard locks, see
//! [`crate::cache::ShardedByteLru`]), and request coalescing (identical
//! in-flight configurations share one profile run). Repeat compile shapes
//! ride the plan-template fast path
//! ([`gsuite_core::plan::template::TemplateCache`]): lower/optimize/
//! decorate are skipped and only instantiate + schedule run, which is
//! bit-identical by construction.
//!
//! Execution of one request mirrors the batch scenario runner exactly —
//! `Dataset::load_scaled`, `PipelineRun::build`, then
//! `GpuSpec::profiler(opts, dataset)` and `PipelineRun::profile` — so a
//! served profile is **bit-identical** to the same configuration's cell in
//! [`gsuite_scenarios::run_scenario`] (a property the workspace
//! determinism suite locks in). What serving adds around that execution is
//! the traffic layer: queueing, backpressure, caching and per-request
//! timing.
//!
//! # Failure semantics
//!
//! With a [`FaultPlan`] configured, the server injects seeded faults —
//! slowdowns, transient failures, worker crashes (real panic-unwinds,
//! caught and counted by the supervisor), cache eviction storms, degraded
//! interconnects — and the [`ResilienceConfig`] decides what happens
//! next. The per-request rules (stale serves, refreshes, the O0
//! fallback, backoff, breaker outcomes, counters) are the ones the sim
//! clock applies, from [`crate::fault`]. What this clock adds is its own:
//! deadline pressure means over half the budget is spent before an
//! attempt starts; a deadline is enforced at build checkpoints and again
//! after the attempt; time is [`Instant`] and `sleep`; and a crash is a
//! real panic, raised after the attempt's cache work and profile. Every
//! knob defaults to **inert**: a fault-free server takes exactly the
//! historical code path.
//!
//! # Cross-request batching
//!
//! With a [`BatchPolicy`], every submission passes the sim clock's own
//! [`BatchFormer`] in front of the queue, so both clocks form the same
//! batches. A forming batch holds no worker; its expiry is seen at the
//! next submission, before each dequeue, or by an idle worker's timed
//! wait, and shutdown flushes it. A singleton dispatch takes the
//! unbatched path without blocking; a merged batch meets only the queue
//! bound and is shed as a unit. `batches` counts every dispatch,
//! singletons included.
//!
//! # Example
//!
//! ```
//! use gsuite_serve::{ServeConfig, ServeRequest, Server};
//!
//! let server = Server::start(ServeConfig::golden());
//! let rx = server.submit(ServeRequest::parse_line("model=gcn scale=0.05").unwrap()).unwrap();
//! let done = rx.recv().unwrap();
//! assert!(done.outcome.unwrap().total_time_ms() > 0.0);
//! server.shutdown();
//! ```

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, Once};
use std::time::{Duration, Instant};

use gsuite_core::config::RunConfig;
use gsuite_core::pipeline::{PipelineRun, WorkerScratch};
use gsuite_core::plan::batchmerge::{merge_class, MergeClass};
use gsuite_core::plan::template::{TemplateCache, TemplateKey, TemplateStats};
use gsuite_core::plan::OptLevel;
use gsuite_core::CoreError;
use gsuite_graph::Graph;
use gsuite_profile::{Interconnect, PipelineProfile};
use gsuite_scenarios::sim::{BatchArrival, BatchFormer, BatchPolicy, FormedBatch, FormerEvent};
use gsuite_scenarios::{BenchOpts, GpuSpec, LruStats};

use crate::cache::ShardedByteLru;
use crate::fault::{
    CacheStep, CircuitBreaker, FaultDraw, FaultPlan, RejectReason, ResilienceConfig, ServeCounters,
};
use crate::request::{CacheDisposition, ServeRequest};

/// A cached execution unit: the loaded graph and the built pipeline.
pub type CachedPipeline = (Arc<Graph>, Arc<PipelineRun>);

/// The payload of an injected worker crash: `panic_any(InjectedCrash)`
/// unwinds the attempt, the supervisor catches it, and the filtering
/// panic hook keeps it off stderr (real panics still print).
struct InjectedCrash;

/// Installs (once, process-wide) a panic hook that silences
/// [`InjectedCrash`] payloads and forwards everything else to the
/// previous hook.
fn install_quiet_crash_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedCrash>().is_none() {
                prev(info);
            }
        }));
    });
}

/// The cost model of one cache entry: feature matrix + COO topology + CSR
/// index of the graph, plus the pipeline's output buffer and a fixed
/// per-launch overhead for workload descriptors. Deliberately a *model*
/// (exact heap sizes are an implementation detail of the substrate
/// crates), but a deterministic, monotone one: bigger graphs and deeper
/// pipelines account more bytes.
pub fn entry_bytes(graph: &Graph, run: &PipelineRun) -> u64 {
    let s = graph.stats();
    let graph_bytes = s.nodes * (s.feature_len * 4 + 8) + s.edges * 8;
    let pipeline_bytes = run.output.len() * 4 + run.launches.len() * 512;
    (graph_bytes + pipeline_bytes) as u64
}

/// One cache slot: the execution unit plus its build instant, which the
/// stale-TTL policy ages against.
#[derive(Clone)]
struct CacheEntry {
    value: CachedPipeline,
    built_at: Instant,
}

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded queue depth; a full queue blocks [`Server::submit`] and
    /// rejects [`Server::try_submit`].
    pub queue_cap: usize,
    /// LRU cache capacity in bytes (split across [`ServeConfig::cache_shards`]).
    pub cache_bytes: u64,
    /// Pipeline-cache lock shards: the cache is split `cache_shards` ways
    /// by key hash, each slice behind its own lock, so workers touching
    /// different keys never contend (values < 1 are clamped to 1).
    pub cache_shards: usize,
    /// Measurement options shared by every request (scale policy, CTA
    /// caps) — the same knobs the batch scenario runner takes.
    pub opts: BenchOpts,
    /// Seeded fault injection plan; `None` (the default) injects nothing.
    pub fault: Option<FaultPlan>,
    /// Resilience policy (deadlines, retries, breaker, degradation). The
    /// default is fully inert — see [`ResilienceConfig::is_inert`].
    pub resilience: ResilienceConfig,
    /// Cross-request batching policy. `None` (the default) serves every
    /// request alone — the historical code path, exactly. When set, every
    /// submission passes the [`BatchFormer`] (see the module docs), and
    /// requests of one merge class on one GPU dispatch as one merged Plan
    /// build + profile. Merged executions skip the pipeline LRU and the
    /// fault-injection machinery (the healthy fast path); the
    /// plan-template cache still serves repeat batch shapes.
    pub batch: Option<BatchPolicy>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_cap: 64,
            cache_bytes: 256 << 20,
            cache_shards: 8,
            opts: BenchOpts::quick(),
            fault: None,
            resilience: ResilienceConfig::default(),
            batch: None,
        }
    }
}

impl ServeConfig {
    /// A test-sized config: golden measurement mode (quick scales, 32-CTA
    /// cap) with a small worker pool.
    pub fn golden() -> Self {
        ServeConfig {
            workers: 2,
            opts: BenchOpts::golden(),
            ..ServeConfig::default()
        }
    }
}

/// One finished request as delivered to its submitter.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Submission id (monotone per server).
    pub id: u64,
    /// The request this answers.
    pub request: ServeRequest,
    /// The profile, or the build error (e.g. an unsupported
    /// model/computational-model combination).
    pub outcome: Result<Arc<PipelineProfile>, String>,
    /// How the cache satisfied the request.
    pub cache: CacheDisposition,
    /// Typed reject reason when the resilience layer failed the request
    /// (deadline, crash, …); `None` for successes and plain build errors.
    pub reject: Option<RejectReason>,
    /// Served degraded: an O0 compile fallback or a stale-but-valid cache
    /// entry past its soft TTL, taken under deadline pressure.
    pub degraded: bool,
    /// Retries consumed before this completion was produced.
    pub retries: u32,
    /// Members in the cross-request batch this completion was served by
    /// (`1` = served alone, the historical path).
    pub batch: u32,
    /// Wall milliseconds spent queued before dispatch.
    pub queue_ms: f64,
    /// Wall milliseconds of (possibly shared) build + profile work.
    pub service_ms: f64,
    /// Wall milliseconds from submission to completion.
    pub latency_ms: f64,
}

impl Completion {
    /// Renders the wire-format response line. The resilience keys
    /// (`code=`, `degraded=`, `retries=`) are appended only when set, so
    /// fault-free responses keep the historical format byte-for-byte.
    pub fn to_line(&self) -> String {
        let mut line = match &self.outcome {
            Ok(profile) => format!(
                "ok id={} cache={} queue_ms={:.4} service_ms={:.4} latency_ms={:.4} device_ms={:.4} e2e_ms={:.4} kernels={}",
                self.id,
                self.cache,
                self.queue_ms,
                self.service_ms,
                self.latency_ms,
                profile.device_time_ms(),
                profile.total_time_ms(),
                profile.kernels.len(),
            ),
            Err(msg) => format!(
                "err id={} cache={} latency_ms={:.4} msg={:?}",
                self.id, self.cache, self.latency_ms, msg
            ),
        };
        if let Some(reason) = self.reject {
            line.push_str(&format!(" code={}", reason.code()));
        }
        if self.degraded {
            line.push_str(" degraded=true");
        }
        if self.retries > 0 {
            line.push_str(&format!(" retries={}", self.retries));
        }
        if self.batch > 1 {
            line.push_str(&format!(" batch={}", self.batch));
        }
        line
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is full ([`Server::try_submit`] only; counted as shed
    /// load in [`ServerStats::rejected`]).
    Busy,
    /// The request's per-config circuit breaker is open: the
    /// configuration failed recently enough, often enough, that the
    /// server fast-fails it instead of queueing it.
    CircuitOpen,
    /// The batch former shed this request at submission: it would have
    /// opened a new batch while [`BatchPolicy::max_backlog`] batches
    /// were already forming. A request that joins a forming batch, and
    /// an unmergeable one, is never shed this way.
    BatchBacklog,
    /// The server is shutting down.
    ShuttingDown,
}

impl SubmitError {
    /// The typed reject this submission failure maps to on the wire
    /// (`None` for shutdown, which is connection-level).
    pub fn reject_reason(&self) -> Option<RejectReason> {
        match self {
            SubmitError::Busy => Some(RejectReason::QueueFull),
            SubmitError::CircuitOpen => Some(RejectReason::CircuitOpen),
            SubmitError::BatchBacklog => Some(RejectReason::BatchBacklog),
            SubmitError::ShuttingDown => None,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SubmitError::Busy => "queue full",
            SubmitError::CircuitOpen => "circuit open",
            SubmitError::BatchBacklog => "batch backlog full",
            SubmitError::ShuttingDown => "server shutting down",
        })
    }
}

/// A counter snapshot of the running service.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerStats {
    /// Worker-pool size.
    pub workers: usize,
    /// Requests currently queued (excluding executing ones).
    pub queue_depth: usize,
    /// Submissions queued or coalesced (with a batch policy, once the
    /// former dispatched them).
    pub submitted: u64,
    /// Delivered completions of executed work; sheds are not counted.
    pub completed: u64,
    /// Submissions that attached to an in-flight identical request.
    pub coalesced: u64,
    /// Requests shed by a full queue: `try_submit` calls and, with a
    /// batch policy, dispatches from the former (a merged batch counts
    /// every member).
    pub rejected: u64,
    /// Largest peak-device-bytes footprint of any pipeline served so far
    /// (each pipeline's memory schedule reports its own peak; see
    /// `gsuite_profile::PipelineProfile::peak_device_bytes`).
    pub peak_device_bytes: u64,
    /// Largest *per-shard* device-bytes peak among sharded (multi-GPU)
    /// pipelines served so far — the memory one device of the modeled
    /// cluster must provision. `0` until a `shards>1` request runs.
    pub shard_peak_device_bytes: u64,
    /// Retry attempts consumed across all requests.
    pub retries: u64,
    /// Requests failed on an expired deadline (queued or mid-build).
    pub timeouts: u64,
    /// Circuit-breaker trips (closed/half-open → open transitions).
    pub breaker_trips: u64,
    /// Submissions shed at admission by an open circuit breaker.
    pub breaker_shed: u64,
    /// Attempts served by the O0 compile fallback under deadline
    /// pressure.
    pub degraded: u64,
    /// Attempts that served a stale-but-valid cache entry past its soft
    /// TTL.
    pub stale_serves: u64,
    /// Crashed attempts, retried or not: worker panics the supervisor
    /// caught, injected or not, in solo attempts and merged batch
    /// builds.
    pub crashed: u64,
    /// Worker respawns after caught crashes (one per crash — no crash
    /// loses its worker slot).
    pub respawns: u64,
    /// Plan-template cache lookup hits (repeat compile shapes).
    pub tpl_hits: u64,
    /// Plan-template cache lookup misses (first sight of a shape).
    pub tpl_misses: u64,
    /// Builds served by template instantiation instead of a full
    /// lower/optimize/decorate compile.
    pub tpl_instantiates: u64,
    /// Contended pipeline-cache shard-lock acquisitions.
    pub lock_waits: u64,
    /// Batches dispatched by the batch former, singletons included.
    pub batches: u64,
    /// Requests resolved through a dispatched batch, singletons
    /// included.
    pub batched_requests: u64,
    /// Submissions shed by the batch former's backlog bound.
    pub batch_shed: u64,
    /// Cache counters.
    pub cache: LruStats,
}

impl ServerStats {
    /// The `stats` line's keys, in wire order: the rows of the stats
    /// table. The order is part of the protocol: new keys are only ever
    /// appended (so positional and prefix parsers keep working), and the
    /// `stats_line_and_metrics_text_are_locked` test locks it.
    pub const LINE_KEYS: [&'static str; STATS_FIELDS.len()] = {
        let mut keys = [""; STATS_FIELDS.len()];
        let mut i = 0;
        while i < keys.len() {
            keys[i] = STATS_FIELDS[i].key;
            i += 1;
        }
        keys
    };

    /// Renders the wire-format `stats` response line. The resilience
    /// counters are appended after the historical fields, so existing
    /// parsers keep working.
    ///
    /// # Wire format
    ///
    /// One space-separated line: the literal token `stats` followed by
    /// `key=value` pairs — every key in [`ServerStats::LINE_KEYS`], in
    /// that order, each value a base-10 unsigned integer. Example:
    ///
    /// ```text
    /// stats workers=2 queue=0 submitted=1 completed=1 coalesced=0 rejected=0
    ///   cache_hits=0 cache_misses=1 cache_insertions=1 cache_evictions=0
    ///   cache_rejected=0 cache_bytes=211456 cache_capacity=268435456
    ///   cache_entries=1 peak_device_bytes=54112 shard_peak_device_bytes=0
    ///   retries=0 timeouts=0 breaker_trips=0 breaker_shed=0 degraded=0
    ///   stale_serves=0 crashed=0 respawns=0 tpl_hits=0 tpl_misses=1
    ///   tpl_instantiates=0 lock_waits=0 batches=0 batched_requests=0
    ///   batch_shed=0
    /// ```
    ///
    /// (wrapped here for the page; the wire carries a single line).
    /// [`ServerStats::parse_line`] reads it back; the round trip is
    /// exact.
    pub fn to_line(&self) -> String {
        let mut line = String::from("stats");
        for f in STATS_FIELDS {
            line.push_str(&format!(" {}={}", f.key, (f.get)(self)));
        }
        line
    }

    /// Parses a wire-format `stats` line back into a snapshot — the
    /// inverse of [`ServerStats::to_line`]. Unknown keys are ignored
    /// (future servers may append fields); missing keys read as 0, so
    /// pre-resilience lines still parse.
    ///
    /// Returns `None` when the line does not start with the `stats`
    /// token.
    pub fn parse_line(line: &str) -> Option<ServerStats> {
        let mut tokens = line.split_whitespace();
        if tokens.next() != Some("stats") {
            return None;
        }
        let mut stats = ServerStats::default();
        for f in STATS_FIELDS {
            let value = tokens
                .clone()
                .find_map(|tok| tok.strip_prefix(f.key)?.strip_prefix('=')?.parse().ok());
            (f.set)(&mut stats, value.unwrap_or(0));
        }
        Some(stats)
    }

    /// The snapshot's serving counters. The wire carries no batch-size
    /// histogram, so `batch.size_hist` is empty.
    pub(crate) fn counters(&self) -> ServeCounters {
        let mut c = ServeCounters::default();
        for f in STATS_FIELDS {
            if let Some(shared) = f.shared {
                *shared(&mut c) = (f.get)(self);
            }
        }
        c
    }

    /// The snapshot as a metrics registry — the payload of the `metrics`
    /// protocol command. Monotone counters become Prometheus counters,
    /// point-in-time values (queue depth, cache occupancy, memory peaks)
    /// become gauges; exposition order is sorted by name.
    pub fn metrics(&self) -> gsuite_telemetry::MetricsRegistry {
        let mut reg = gsuite_telemetry::MetricsRegistry::new();
        for f in STATS_FIELDS {
            let Some(name) = f.metric else { continue };
            let v = (f.get)(self);
            match f.kind {
                StatKind::Counter => reg.counter_add(name, metric_help(name), v),
                StatKind::Gauge => reg.gauge_set(name, metric_help(name), v as f64),
            }
        }
        reg
    }
}

/// Whether a `stats` key is a running total or a point-in-time value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StatKind {
    /// Monotone over the server's life: a Prometheus counter, diffed
    /// per loadgen run.
    Counter,
    /// A point-in-time value: a gauge, sampled at the end of a run.
    Gauge,
}

/// One key of the `stats` line: its kind, its metric name (`None` keeps
/// it off the `metrics` exposition), its [`ServerStats`] field and, for
/// the serving counters both clocks keep, its [`ServeCounters`] field.
pub(crate) struct StatsField {
    pub(crate) key: &'static str,
    pub(crate) kind: StatKind,
    metric: Option<&'static str>,
    pub(crate) get: fn(&ServerStats) -> u64,
    pub(crate) set: fn(&mut ServerStats, u64),
    shared: Option<fn(&mut ServeCounters) -> &mut u64>,
}

/// A [`StatsField`] row: its key, its kind and its [`ServerStats`]
/// field, then its metric name, if any, and then, for a shared counter,
/// its [`ServeCounters`] field.
macro_rules! field {
    ($key:literal, $kind:ident, $($path:ident).+ $(, $metric:literal $(, $($shared:ident).+)?)?) => {
        StatsField {
            key: $key,
            kind: StatKind::$kind,
            metric: field!(@some $($metric)?),
            get: |s| s.$($path).+ as u64,
            set: |s, v| s.$($path).+ = v as _,
            shared: field!(@some $($(|c| &mut c.$($shared).+)?)?),
        }
    };
    (@some $e:expr) => { Some($e) };
    (@some) => { None };
}

/// The one table behind the `stats` line ([`ServerStats::to_line`],
/// [`ServerStats::parse_line`]), the `metrics` exposition
/// ([`ServerStats::metrics`]), the TCP loadgen's per-run diff and the
/// copies between [`ServerStats`] and [`ServeCounters`]: one row per
/// wire key, in wire order.
#[rustfmt::skip]
pub(crate) const STATS_FIELDS: &[StatsField] = &[
    field!("workers", Gauge, workers, "gsuite_serve_workers"),
    field!("queue", Gauge, queue_depth, "gsuite_serve_queue_depth"),
    field!("submitted", Counter, submitted, "gsuite_serve_submitted_total"),
    field!("completed", Counter, completed, "gsuite_serve_completed_total"),
    field!("coalesced", Counter, coalesced, "gsuite_serve_coalesced_total", coalesced),
    field!("rejected", Counter, rejected, "gsuite_serve_rejected_total", rejected),
    field!("cache_hits", Counter, cache.hits, "gsuite_cache_hits_total"),
    field!("cache_misses", Counter, cache.misses, "gsuite_cache_misses_total"),
    field!("cache_insertions", Counter, cache.insertions, "gsuite_cache_insertions_total"),
    field!("cache_evictions", Counter, cache.evictions, "gsuite_cache_evictions_total"),
    field!("cache_rejected", Counter, cache.rejected, "gsuite_cache_rejected_total"),
    field!("cache_bytes", Gauge, cache.bytes_in_use, "gsuite_cache_bytes_in_use"),
    field!("cache_capacity", Gauge, cache.capacity_bytes),
    field!("cache_entries", Gauge, cache.entries, "gsuite_cache_entries"),
    field!("peak_device_bytes", Gauge, peak_device_bytes, "gsuite_serve_peak_device_bytes"),
    field!("shard_peak_device_bytes", Gauge, shard_peak_device_bytes, "gsuite_serve_shard_peak_device_bytes"),
    field!("retries", Counter, retries, "gsuite_resilience_retries_total", resilience.retries),
    field!("timeouts", Counter, timeouts, "gsuite_resilience_timeouts_total", resilience.timeouts),
    field!("breaker_trips", Counter, breaker_trips, "gsuite_resilience_breaker_trips_total", resilience.breaker_trips),
    field!("breaker_shed", Counter, breaker_shed, "gsuite_resilience_breaker_shed_total", resilience.circuit_open),
    field!("degraded", Counter, degraded, "gsuite_resilience_degraded_total", resilience.degraded),
    field!("stale_serves", Counter, stale_serves, "gsuite_resilience_stale_serves_total", resilience.stale_serves),
    field!("crashed", Counter, crashed, "gsuite_resilience_crashed_total", resilience.crashed),
    field!("respawns", Counter, respawns, "gsuite_resilience_respawns_total"),
    field!("tpl_hits", Counter, tpl_hits, "gsuite_template_hits_total", tpl_hits),
    field!("tpl_misses", Counter, tpl_misses, "gsuite_template_misses_total", tpl_misses),
    field!("tpl_instantiates", Counter, tpl_instantiates, "gsuite_template_instantiates_total"),
    field!("lock_waits", Counter, lock_waits, "gsuite_cache_lock_waits_total"),
    field!("batches", Counter, batches, "gsuite_batch_dispatched_total", batch.batches),
    field!("batched_requests", Counter, batched_requests, "gsuite_batch_requests_total", batch.batched_requests),
    field!("batch_shed", Counter, batch_shed, "gsuite_batch_shed_total", batch.shed),
];

/// The help text of the metric `name`: one text per name, shared by
/// the server's `metrics` command ([`ServerStats::metrics`]) and the
/// loadgen report's exposition, so a metric both expose reads the same.
///
/// # Panics
///
/// Panics for a name without a text.
pub(crate) fn metric_help(name: &str) -> &'static str {
    match name {
        "gsuite_batch_avg_size" => "Mean members per dispatched batch.",
        "gsuite_batch_dispatched_total" => "Batches dispatched by the cross-request former.",
        "gsuite_batch_requests_total" => "Requests resolved through a dispatched batch.",
        "gsuite_batch_shed_total" => "Requests shed by the batch former's admission control.",
        "gsuite_cache_bytes_in_use" => "Pipeline-cache bytes in use.",
        "gsuite_cache_entries" => "Pipeline-cache resident entries.",
        "gsuite_cache_evictions_total" => "Pipeline-cache evictions.",
        "gsuite_cache_hits_total" => "Pipeline-cache lookup hits.",
        "gsuite_cache_insertions_total" => "Pipeline-cache insertions.",
        "gsuite_cache_lock_waits_total" => "Contended pipeline-cache shard-lock acquisitions.",
        "gsuite_cache_misses_total" => "Pipeline-cache lookup misses.",
        "gsuite_cache_rejected_total" => {
            "Pipeline-cache inserts rejected (entry larger than capacity)."
        }
        "gsuite_loadgen_coalesced_total" => "Requests sharing an in-flight execution.",
        "gsuite_loadgen_completed_total" => "Delivered completions.",
        "gsuite_loadgen_errors_total" => "Completions that were error responses.",
        "gsuite_loadgen_latency_ms" => "Completed-request latency (milliseconds).",
        "gsuite_loadgen_makespan_ms" => "First-submission-to-last-completion milliseconds.",
        "gsuite_loadgen_rejected_total" => "Requests shed by the bounded queue.",
        "gsuite_loadgen_throughput_rps" => "Completed requests per second over the makespan.",
        "gsuite_resilience_breaker_shed_total" => "Submissions shed by an open circuit breaker.",
        "gsuite_resilience_breaker_trips_total" => "Circuit-breaker trips.",
        "gsuite_resilience_crashed_total" => "Crashed attempts, retried or not.",
        "gsuite_resilience_degraded_total" => "Attempts served by the O0 compile fallback.",
        "gsuite_resilience_respawns_total" => "Worker respawns after caught crashes.",
        "gsuite_resilience_retries_total" => "Retry attempts performed.",
        "gsuite_resilience_stale_serves_total" => "Stale-but-valid cache serves past the soft TTL.",
        "gsuite_resilience_timeouts_total" => "Requests failed on an expired deadline.",
        "gsuite_serve_coalesced_total" => {
            "Submissions that attached to an in-flight identical request."
        }
        "gsuite_serve_completed_total" => "Delivered completions.",
        "gsuite_serve_peak_device_bytes" => "Largest peak-device-bytes footprint served.",
        "gsuite_serve_queue_depth" => "Requests currently queued.",
        "gsuite_serve_rejected_total" => "Submissions shed due to a full queue.",
        "gsuite_serve_shard_peak_device_bytes" => "Largest per-shard device-bytes peak served.",
        "gsuite_serve_submitted_total" => "Accepted submissions (including coalesced).",
        "gsuite_serve_workers" => "Worker-pool size.",
        "gsuite_template_hits_total" => "Plan-template cache lookup hits.",
        "gsuite_template_instantiates_total" => {
            "Builds served by template instantiation instead of a full compile."
        }
        "gsuite_template_misses_total" => "Plan-template cache lookup misses.",
        _ => panic!("metric {name} has no help text"),
    }
}

struct Waiter {
    id: u64,
    submitted: Instant,
    tx: mpsc::Sender<Completion>,
}

/// One distinct request of a dispatch and everyone waiting on it: its
/// submitter, its duplicates in a merged batch, and the identical
/// submissions coalesced onto it.
struct Member {
    key: ServeRequest,
    waiters: Vec<Waiter>,
}

/// A queued dispatch.
enum Job {
    /// One request, served alone.
    Solo(Member),
    /// A merged batch: its distinct members, and its size with
    /// duplicates counted.
    Merged { members: Vec<Member>, size: u32 },
}

impl Job {
    fn members(&mut self) -> &mut [Member] {
        match self {
            Job::Solo(m) => std::slice::from_mut(m),
            Job::Merged { members, .. } => members,
        }
    }
}

struct State {
    queue: VecDeque<Job>,
    /// Keys currently executing on a worker; identical submissions attach
    /// their waiter here.
    executing: Vec<(ServeRequest, Vec<Waiter>)>,
    /// Per-config circuit breakers (linear scan: the config universe a
    /// service sees is small).
    breakers: Vec<(ServeRequest, CircuitBreaker)>,
    /// The batch former, present with a batch policy.
    former: Option<BatchFormer>,
    /// Requests waiting in the former, by request id.
    in_former: HashMap<u64, (ServeRequest, Waiter)>,
    /// The former's group ids: interned merge keys.
    merge_keys: Vec<(MergeClass, GpuSpec)>,
    next_id: u64,
    submitted: u64,
    completed: u64,
    /// The serving counters; the template counters come from the
    /// template cache and `breaker_trips` from `breakers` when a
    /// snapshot is taken ([`State::counters`]).
    counters: ServeCounters,
    respawns: u64,
    peak_device_bytes: u64,
    shard_peak_device_bytes: u64,
    shutdown: bool,
}

impl State {
    /// The serving counters, with the template cache's lookups `tpl`
    /// and the breakers' trips folded in.
    fn counters(&self, tpl: TemplateStats) -> ServeCounters {
        let mut c = self.counters.clone();
        c.tpl_hits = tpl.hits;
        c.tpl_misses = tpl.misses;
        c.resilience.breaker_trips = self.breakers.iter().map(|(_, b)| b.trips()).sum();
        c
    }
}

struct Inner {
    cfg: ServeConfig,
    /// The server's time origin: breaker transitions run on milliseconds
    /// since this instant, mirroring the sim clock's absolute time.
    epoch: Instant,
    state: Mutex<State>,
    /// The pipeline cache, sharded by key hash with per-shard locks —
    /// deliberately *outside* the queue mutex so cache traffic and queue
    /// bookkeeping never serialize against each other.
    cache: ShardedByteLru<ServeRequest, CacheEntry>,
    /// Compile-shape templates shared by every worker: repeat shapes skip
    /// lower/optimize/decorate and only re-schedule.
    templates: TemplateCache,
    work_avail: Condvar,
    space_avail: Condvar,
}

/// The running service. Dropping the handle is equivalent to
/// [`Server::shutdown`]: the queue drains (pending submitters still get
/// their completions) and the workers are joined.
pub struct Server {
    inner: Arc<Inner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool and returns the service handle.
    pub fn start(cfg: ServeConfig) -> Server {
        let workers = cfg.workers.max(1);
        if cfg.fault.is_some_and(|f| f.spec.crash_rate > 0.0) {
            install_quiet_crash_hook();
        }
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                executing: Vec::new(),
                breakers: Vec::new(),
                former: cfg.batch.map(BatchFormer::new),
                in_former: HashMap::new(),
                merge_keys: Vec::new(),
                next_id: 0,
                submitted: 0,
                completed: 0,
                counters: ServeCounters::default(),
                respawns: 0,
                peak_device_bytes: 0,
                shard_peak_device_bytes: 0,
                shutdown: false,
            }),
            epoch: Instant::now(),
            cache: ShardedByteLru::new(cfg.cache_bytes, cfg.cache_shards),
            templates: TemplateCache::new(),
            work_avail: Condvar::new(),
            space_avail: Condvar::new(),
            cfg,
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Server { inner, handles }
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.cfg
    }

    /// Submits a request, **blocking** while the queue is full — the
    /// backpressure path closed-loop clients ride on. Returns the channel
    /// the [`Completion`] arrives on.
    ///
    /// With a batch policy the request passes the batch former first and
    /// never waits for queue space: a later shed (full queue, open
    /// breaker) arrives as a typed reject completion.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShuttingDown`] after [`Server::shutdown`] began;
    /// [`SubmitError::CircuitOpen`] when the config's breaker is open
    /// (unbatched); [`SubmitError::BatchBacklog`] when the former sheds
    /// the request.
    pub fn submit(&self, req: ServeRequest) -> Result<mpsc::Receiver<Completion>, SubmitError> {
        self.submit_inner(req, true)
    }

    /// Non-blocking submission: a full queue sheds the request instead of
    /// waiting — the open-loop overload path.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when the queue is full,
    /// [`SubmitError::CircuitOpen`] when the config's breaker is open,
    /// [`SubmitError::ShuttingDown`] during shutdown; with a batch
    /// policy, as [`Server::submit`].
    pub fn try_submit(&self, req: ServeRequest) -> Result<mpsc::Receiver<Completion>, SubmitError> {
        self.submit_inner(req, false)
    }

    fn submit_inner(
        &self,
        req: ServeRequest,
        block: bool,
    ) -> Result<mpsc::Receiver<Completion>, SubmitError> {
        let inner = &*self.inner;
        let (tx, rx) = mpsc::channel();
        let mut state = inner.state.lock().expect("server state poisoned");
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        // Every submission takes the next request index, shed or not: the
        // index keys the fault draws, so it follows the request stream.
        let id = state.next_id;
        state.next_id += 1;
        if state.former.is_some() {
            let submitted = Instant::now();
            let arrival = BatchArrival {
                index: id,
                // Members are resolved by `index`; there is no key table.
                key: 0,
                group: merge_key(&req).map(|k| intern(&mut state.merge_keys, k)),
                // Read under the lock, so arrivals never go back in time.
                at_ms: ms_between(inner.epoch, submitted),
            };
            state
                .in_former
                .insert(id, (req, Waiter { id, submitted, tx }));
            let shed = run_former(inner, &mut state, |f, emit| f.offer(arrival, emit));
            drop(state);
            // An idle worker times its wait to a newly forming batch.
            inner.work_avail.notify_one();
            return (!shed).then_some(rx).ok_or(SubmitError::BatchBacklog);
        }
        // Circuit-breaker admission runs before coalescing: an open
        // breaker means the config is known-bad, and attaching to an
        // in-flight execution of it would defeat the fast-fail.
        if !admit(inner, &mut state, &req) {
            return Err(SubmitError::CircuitOpen);
        }
        let mut waiter = Waiter {
            id,
            submitted: Instant::now(),
            tx,
        };
        loop {
            // Re-checked after every full-queue wait — while this
            // submitter was blocked, another may have enqueued the same
            // key, and pushing a second job would break the
            // one-execution-per-key invariant the cache-build path relies
            // on.
            waiter = match coalesce(&mut state, &req, waiter) {
                Ok(()) => return Ok(rx),
                Err(waiter) => waiter,
            };
            if state.queue.len() < inner.cfg.queue_cap.max(1) {
                break;
            }
            if !block {
                state.counters.count_shed(RejectReason::QueueFull);
                return Err(SubmitError::Busy);
            }
            state = inner
                .space_avail
                .wait(state)
                .expect("server state poisoned");
            if state.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
        }
        state.submitted += 1;
        state.queue.push_back(Job::Solo(Member {
            key: req,
            waiters: vec![waiter],
        }));
        drop(state);
        inner.work_avail.notify_one();
        Ok(rx)
    }

    /// The current counter snapshot.
    pub fn stats(&self) -> ServerStats {
        let tpl = self.inner.templates.stats();
        let state = self.inner.state.lock().expect("server state poisoned");
        let mut stats = ServerStats {
            workers: self.handles.len(),
            queue_depth: state.queue.len(),
            submitted: state.submitted,
            completed: state.completed,
            peak_device_bytes: state.peak_device_bytes,
            shard_peak_device_bytes: state.shard_peak_device_bytes,
            respawns: state.respawns,
            tpl_instantiates: tpl.instantiates,
            lock_waits: self.inner.cache.lock_waits(),
            cache: self.inner.cache.stats(),
            ..ServerStats::default()
        };
        let mut c = state.counters(tpl);
        for f in STATS_FIELDS {
            if let Some(shared) = f.shared {
                (f.set)(&mut stats, *shared(&mut c));
            }
        }
        stats
    }

    /// The serving counters so far: the ones [`Server::stats`] reports,
    /// plus the batch-size histogram the flat snapshot leaves out.
    pub(crate) fn counters(&self) -> ServeCounters {
        let tpl = self.inner.templates.stats();
        let state = self.inner.state.lock().expect("server state poisoned");
        state.counters(tpl)
    }

    /// Stops accepting work, drains the queue and joins the workers.
    /// Queued requests still receive their completions.
    pub fn shutdown(self) {
        // Drop does the work; the method exists to make the stop explicit.
    }

    fn stop_and_join(&mut self) {
        {
            let mut state = self.inner.state.lock().expect("server state poisoned");
            state.shutdown = true;
            // Batches still forming dispatch now, so every accepted
            // waiter gets a completion before the workers drain and exit.
            run_former(&self.inner, &mut state, |f, emit| f.flush(emit));
        }
        self.inner.work_avail.notify_all();
        self.inner.space_avail.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    /// Dropping the handle stops the service: without this, workers whose
    /// queue has drained would park in `work_avail.wait()` forever,
    /// leaking the threads and the shared state.
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Circuit-breaker admission of `req` now (`true` without a breaker
/// policy); a refusal counts as circuit-shed.
fn admit(inner: &Inner, state: &mut State, req: &ServeRequest) -> bool {
    let Some(bcfg) = inner.cfg.resilience.breaker else {
        return true;
    };
    let now_ms = ms_between(inner.epoch, Instant::now());
    let breaker = match state.breakers.iter_mut().position(|(k, _)| k == req) {
        Some(i) => &mut state.breakers[i].1,
        None => {
            state
                .breakers
                .push((req.clone(), CircuitBreaker::new(bcfg)));
            &mut state.breakers.last_mut().expect("just pushed").1
        }
    };
    let admitted = breaker.admit(now_ms);
    if !admitted {
        state.counters.count_shed(RejectReason::CircuitOpen);
    }
    admitted
}

/// Attaches `waiter` to an executing or queued execution of `req`, so it
/// shares that execution's profile run; hands the waiter back when there
/// is none.
fn coalesce(state: &mut State, req: &ServeRequest, waiter: Waiter) -> Result<(), Waiter> {
    let waiters = match state.executing.iter_mut().find(|(k, _)| k == req) {
        Some((_, waiters)) => waiters,
        None => match state
            .queue
            .iter_mut()
            .flat_map(Job::members)
            .find(|m| m.key == *req)
        {
            Some(m) => &mut m.waiters,
            None => return Err(waiter),
        },
    };
    waiters.push(waiter);
    state.submitted += 1;
    state.counters.coalesced += 1;
    Ok(())
}

/// Drives the batch former one step — an arrival, a timer tick or the
/// shutdown flush — and applies its decisions: a shed arrival leaves, a
/// released batch is dispatched. Returns whether an arrival was shed.
/// Without a batch policy it does nothing.
fn run_former(
    inner: &Inner,
    state: &mut State,
    step: impl FnOnce(&mut BatchFormer, &mut dyn FnMut(FormerEvent)),
) -> bool {
    let Some(former) = state.former.as_mut() else {
        return false;
    };
    let mut events = Vec::new();
    step(former, &mut |e| events.push(e));
    let mut shed = false;
    for event in events {
        match event {
            FormerEvent::Shed(a) => {
                state.in_former.remove(&a.index);
                state.counters.count_shed(RejectReason::BatchBacklog);
                shed = true;
            }
            FormerEvent::Dispatch(batch) => dispatch(inner, state, batch),
        }
    }
    shed
}

/// Dispatches a batch the former released. A singleton takes the
/// unbatched path — breaker admission, coalescing, the queue bound —
/// except that a full queue sheds it instead of blocking. A merged batch
/// meets only the queue bound and is shed as a unit; its duplicate keys
/// share their first occurrence's execution.
fn dispatch(inner: &Inner, state: &mut State, batch: FormedBatch) {
    let size = batch.members.len();
    state.counters.count_batch(size);
    let mut members: Vec<(ServeRequest, Waiter)> = batch
        .members
        .iter()
        .map(|a| {
            state
                .in_former
                .remove(&a.index)
                .expect("held until released")
        })
        .collect();
    let full = state.queue.len() >= inner.cfg.queue_cap.max(1);
    let job = if size == 1 {
        let (key, waiter) = members.pop().expect("one member");
        if !admit(inner, state, &key) {
            return shed_accepted(key, waiter, SubmitError::CircuitOpen);
        }
        let Err(waiter) = coalesce(state, &key, waiter) else {
            return;
        };
        if full {
            state.counters.count_shed(RejectReason::QueueFull);
            return shed_accepted(key, waiter, SubmitError::Busy);
        }
        Job::Solo(Member {
            key,
            waiters: vec![waiter],
        })
    } else if full {
        for (key, waiter) in members {
            state.counters.count_shed(RejectReason::QueueFull);
            shed_accepted(key, waiter, SubmitError::Busy);
        }
        return;
    } else {
        let mut leaders: Vec<Member> = Vec::new();
        for (key, waiter) in members {
            match leaders.iter_mut().find(|m| m.key == key) {
                Some(m) => {
                    m.waiters.push(waiter);
                    state.counters.coalesced += 1;
                }
                None => leaders.push(Member {
                    key,
                    waiters: vec![waiter],
                }),
            }
        }
        Job::Merged {
            members: leaders,
            size: size as u32,
        }
    };
    state.submitted += size as u64;
    state.queue.push_back(job);
    inner.work_avail.notify_one();
}

/// Answers a request shed after `submit` accepted it with the typed
/// reject of `err`.
fn shed_accepted(key: ServeRequest, waiter: Waiter, err: SubmitError) {
    let latency_ms = ms_between(waiter.submitted, Instant::now());
    let _ = waiter.tx.send(Completion {
        id: waiter.id,
        request: key,
        outcome: Err(err.to_string()),
        cache: CacheDisposition::Miss,
        reject: err.reject_reason(),
        degraded: false,
        retries: 0,
        batch: 1,
        queue_ms: latency_ms,
        service_ms: 0.0,
        latency_ms,
    });
}

/// How one execution attempt failed.
enum AttemptError {
    /// Not retryable: a bad configuration (e.g. an unsupported
    /// model/computational-model pair).
    Permanent(String),
    /// Retryable: an injected transient fault.
    Transient,
    /// The worker crashed mid-attempt (caught panic); retryable.
    Crash,
    /// The deadline budget expired at a build checkpoint.
    Cancelled,
}

/// What one successful attempt produced.
struct AttemptSuccess {
    profile: Arc<PipelineProfile>,
    /// How the attempt's cache interaction resolved.
    step: CacheStep,
    peak_device_bytes: u64,
    shard_peak_device_bytes: u64,
}

/// Builds the pipeline for `config` over `graph` (loaded here when the
/// caller has none) — the expensive miss path, run outside the state
/// lock. Repeat compile shapes are served from `templates` (instantiate
/// and schedule only); `scratch` is the calling worker's reusable
/// compile arena; `cancelled` is the deadline budget's
/// cooperative-cancellation checkpoint.
fn build_pipeline(
    config: &RunConfig,
    graph: Option<Arc<Graph>>,
    templates: &TemplateCache,
    scratch: &mut WorkerScratch,
    cancelled: &mut dyn FnMut() -> bool,
) -> Result<CachedPipeline, AttemptError> {
    let graph = graph.unwrap_or_else(|| Arc::new(config.load_graph()));
    match PipelineRun::build_with_templates_in(&graph, config, templates, scratch, cancelled) {
        Ok(run) => Ok((graph, Arc::new(run))),
        Err(CoreError::Cancelled) => Err(AttemptError::Cancelled),
        // The suite's known boundary (e.g. gSuite SAGE under SpMM) and any
        // other build failure both surface as error responses; a serving
        // process must not crash on a bad request.
        Err(e @ CoreError::UnsupportedCombination { .. }) => {
            Err(AttemptError::Permanent(e.to_string()))
        }
        Err(e) => Err(AttemptError::Permanent(format!(
            "cannot build {}: {e}",
            config.label()
        ))),
    }
}

/// One execution attempt of `key`: the shared cache step (stale-TTL
/// aging; the O0 fallback under deadline pressure), a build on a miss or
/// refresh, the profile (link faults price the halo exchanges), then the
/// injected slowdown, crash and transient failure — the last two lose the
/// attempt's result after its cache work. Runs under the supervisor's
/// `catch_unwind`.
fn run_attempt(
    inner: &Inner,
    key: &ServeRequest,
    draw: &FaultDraw,
    pressured: bool,
    scratch: &mut WorkerScratch,
    cancelled: &mut dyn FnMut() -> bool,
) -> Result<AttemptSuccess, AttemptError> {
    let started = Instant::now();
    // Cache lookup under the key's shard lock only; the expensive build
    // outside any lock. Coalescing guarantees one execution per key at a
    // time, so two workers never race to build the same entry.
    let cached = inner.cache.get(key);
    let mut graph = None;
    let step = inner.cfg.resilience.cache_step(
        cached
            .as_ref()
            .map(|e| ms_between(e.built_at, Instant::now())),
        |_| pressured,
        || {
            // Only a miss that could degrade probes; its build reuses
            // the graph the key needs.
            let g = graph.insert(Arc::new(key.config.load_graph()));
            TemplateKey::of(g, &key.config).is_some_and(|k| inner.templates.contains(&k))
        },
    );
    let (_, run) = &match (step, cached) {
        (CacheStep::Hit | CacheStep::Stale, Some(entry)) => entry.value,
        // Degraded builds are *not* cached — the next unpressured
        // request builds the real thing.
        (CacheStep::MissO0, _) => {
            let o0 = RunConfig {
                opt: OptLevel::O0,
                ..key.config.clone()
            };
            build_pipeline(&o0, graph, &inner.templates, scratch, cancelled)?
        }
        // A miss, or a refresh re-inserted with a fresh age.
        _ => {
            let built = build_pipeline(&key.config, graph, &inner.templates, scratch, cancelled)?;
            let bytes = entry_bytes(&built.0, &built.1);
            let entry = CacheEntry {
                value: built.clone(),
                built_at: Instant::now(),
            };
            inner.cache.insert(key.clone(), entry, bytes);
            built
        }
    };
    // Counted once the step is taken: an unbuildable config never takes
    // one, exactly as on the sim clock.
    if step.is_degraded() {
        let mut state = inner.state.lock().expect("server state poisoned");
        state.counters.resilience.count_step(step);
    }
    let profiler = key.gpu.profiler(&inner.cfg.opts, key.config.dataset);
    let link = Interconnect::nvlink().degraded(draw.link_factor);
    let profile = Arc::new(run.profile_with_link(profiler.as_ref(), link));

    // Injected slowdown: stretch the attempt's wall time by the factor.
    if draw.slow_factor > 1.0 {
        std::thread::sleep(started.elapsed().mul_f64(draw.slow_factor - 1.0));
    }
    // An injected worker crash: a real panic-unwind through the execution
    // path, caught by the supervisor in `worker_loop`.
    if draw.crash {
        std::panic::panic_any(InjectedCrash);
    }
    // Injected transient failure: the work happened, the result is lost.
    if draw.transient {
        return Err(AttemptError::Transient);
    }

    Ok(AttemptSuccess {
        peak_device_bytes: run.peak_device_bytes,
        shard_peak_device_bytes: run
            .sharding
            .as_ref()
            .map(|s| s.max_shard_peak_bytes())
            .unwrap_or(0),
        profile,
        step,
    })
}

/// Executes a merged batch as **one** merged Plan build + profile over
/// its distinct members and scatters per-request completions; every
/// member reports the whole batch's service time. The merged path skips
/// the pipeline LRU (each member is a distinct key whose merged entry
/// would not be reusable solo) and the fault-injection machinery — it
/// is the healthy fast path; the plan-template cache still serves
/// repeat batch shapes. A panic anywhere in the build is caught and
/// delivered as error completions, so the worker survives.
fn run_merged_batch(inner: &Inner, members: Vec<Member>, size: u32, scratch: &mut WorkerScratch) {
    let dispatched = Instant::now();
    let configs: Vec<RunConfig> = members.iter().map(|m| m.key.config.clone()).collect();
    let head = &members[0].key;
    let built = catch_unwind(AssertUnwindSafe(|| {
        let graph = Arc::new(head.config.load_graph());
        let (run, _) =
            PipelineRun::build_merged_with_templates(&graph, &configs, &inner.templates, scratch)
                .map_err(|e| e.to_string())?;
        let profiler = head.gpu.profiler(&inner.cfg.opts, head.config.dataset);
        let profile = Arc::new(run.profile(profiler.as_ref()));
        Ok((run.peak_device_bytes, profile))
    }));
    let outcome = built.unwrap_or_else(|_payload| {
        let mut state = inner.state.lock().expect("server state poisoned");
        state.counters.resilience.crashed += 1;
        state.respawns += 1;
        Err("worker crashed during merged batch build".to_string())
    });
    let finished = Instant::now();
    let service_ms = ms_between(dispatched, finished);
    // Retire every member's executing slot (collecting coalescers that
    // attached during execution) under one lock.
    let late: Vec<Vec<Waiter>> = {
        let mut state = inner.state.lock().expect("server state poisoned");
        if let Ok((peak, _)) = outcome {
            state.peak_device_bytes = state.peak_device_bytes.max(peak);
        }
        let late: Vec<Vec<Waiter>> = members
            .iter()
            .map(|m| {
                let i = state
                    .executing
                    .iter()
                    .position(|(k, _)| *k == m.key)
                    .expect("executing entry registered at dispatch");
                state.executing.swap_remove(i).1
            })
            .collect();
        state.completed += members
            .iter()
            .zip(&late)
            .map(|(m, l)| (m.waiters.len() + l.len()) as u64)
            .sum::<u64>();
        late
    };
    let outcome = outcome.map(|(_, profile)| profile);
    for (member, late_waiters) in members.into_iter().zip(late) {
        for (n, waiter) in member.waiters.into_iter().chain(late_waiters).enumerate() {
            let completion = Completion {
                id: waiter.id,
                request: member.key.clone(),
                outcome: outcome.clone(),
                cache: if n == 0 {
                    CacheDisposition::Miss
                } else {
                    CacheDisposition::Coalesced
                },
                reject: None,
                degraded: false,
                retries: 0,
                batch: size,
                queue_ms: ms_between(waiter.submitted, dispatched).max(0.0),
                service_ms,
                latency_ms: ms_between(waiter.submitted, finished).max(0.0),
            };
            let _ = waiter.tx.send(completion);
        }
    }
}

fn worker_loop(inner: &Inner) {
    // Per-worker reusable compile arena: steady-state builds recycle the
    // schedule allocator and liveness buckets instead of reallocating.
    // Safe across caught panics — every build resets the scratch before
    // use, so a crash-interrupted attempt cannot poison the next one.
    let mut scratch = WorkerScratch::new();
    loop {
        // Wait for a job (or drain-and-exit on shutdown).
        let job = {
            let mut state = inner.state.lock().expect("server state poisoned");
            let job = loop {
                // Batches whose delay ran out dispatch before the dequeue.
                run_former(inner, &mut state, |f, emit| {
                    f.expire(ms_between(inner.epoch, Instant::now()), emit)
                });
                if let Some(mut job) = state.queue.pop_front() {
                    for m in job.members() {
                        state.executing.push((m.key.clone(), Vec::new()));
                    }
                    inner.space_avail.notify_one();
                    break job;
                }
                if state.shutdown {
                    return;
                }
                // An idle worker wakes by itself when the oldest forming
                // batch's delay runs out, or after an hour (a NaN delay
                // never runs out).
                state = match state.former.as_ref().and_then(BatchFormer::next_expiry) {
                    Some(at_ms) => {
                        let s = (at_ms - ms_between(inner.epoch, Instant::now())) / 1e3;
                        let wait = Duration::try_from_secs_f64(s.clamp(0.0, 3600.0))
                            .unwrap_or(Duration::from_secs(3600));
                        let waited = inner.work_avail.wait_timeout(state, wait);
                        waited.expect("server state poisoned").0
                    }
                    None => inner.work_avail.wait(state).expect("server state poisoned"),
                };
            };
            match job {
                Job::Solo(member) => member,
                Job::Merged { members, size } => {
                    drop(state);
                    run_merged_batch(inner, members, size, &mut scratch);
                    continue;
                }
            }
        };
        let dispatched = Instant::now();
        let res = &inner.cfg.resilience;
        // The deadline budget and fault stream anchor on the *first*
        // submitter: coalesced waiters share its execution wholesale.
        let anchor = job.waiters[0].submitted;
        let request_index = job.waiters[0].id;
        let deadline_ms = job.key.deadline_ms.or(res.deadline_ms);
        let plan = crate::fault::plan_for(inner.cfg.fault, job.key.fault_seed);
        let expired = |at: Instant| deadline_ms.is_some_and(|d| ms_between(anchor, at) >= d);

        let mut attempt: u32 = 0;
        let mut any_crash = false;
        let mut queued_out = false;
        let mut reject: Option<RejectReason> = None;
        let result: Result<AttemptSuccess, String> = loop {
            // Deadline checkpoint before (each) dispatch: a request that
            // aged out in the queue, or between retries, fails without
            // doing the work.
            if expired(Instant::now()) {
                queued_out = attempt == 0;
                reject = Some(RejectReason::DeadlineExceeded);
                break Err("deadline exceeded".to_string());
            }
            let draw = plan.map_or_else(FaultDraw::healthy, |p| p.draw(request_index, attempt));
            if draw.evict > 0 {
                // Injected eviction storm: poison the LRU tails before the
                // attempt's cache lookup.
                inner.cache.evict_lru(draw.evict);
            }
            // This clock's deadline pressure: over half the budget is
            // spent before the attempt starts.
            let pressured =
                deadline_ms.is_some_and(|d| ms_between(anchor, Instant::now()) > 0.5 * d);

            // The supervisor: one attempt, crash-isolated. A panic (an
            // injected crash or a real bug) unwinds to here; the worker
            // thread survives and is logically respawned.
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_attempt(inner, &job.key, &draw, pressured, &mut scratch, &mut || {
                    expired(Instant::now())
                })
            }));
            let outcome = caught.unwrap_or_else(|_payload| {
                let mut state = inner.state.lock().expect("server state poisoned");
                state.counters.resilience.crashed += 1;
                state.respawns += 1;
                Err(AttemptError::Crash)
            });
            match outcome {
                // The work finished after the budget (e.g. an injected
                // slowdown): the result is cached, but this request
                // already missed its deadline.
                Ok(_) if expired(Instant::now()) => {
                    reject = Some(RejectReason::DeadlineExceeded);
                    break Err("deadline exceeded".to_string());
                }
                Ok(s) => break Ok(s),
                Err(AttemptError::Cancelled) => {
                    reject = Some(RejectReason::DeadlineExceeded);
                    break Err("deadline exceeded during build".to_string());
                }
                Err(AttemptError::Permanent(msg)) => break Err(msg),
                Err(retryable) => {
                    any_crash |= matches!(retryable, AttemptError::Crash);
                    if let Some(backoff_ms) =
                        res.retry_after_ms(plan.as_ref(), request_index, attempt)
                    {
                        inner
                            .state
                            .lock()
                            .expect("server state poisoned")
                            .counters
                            .resilience
                            .retries += 1;
                        std::thread::sleep(std::time::Duration::from_secs_f64(backoff_ms / 1e3));
                        attempt += 1;
                        continue;
                    }
                    if any_crash {
                        reject = Some(RejectReason::Crashed);
                        break Err("worker crashed (injected fault)".to_string());
                    }
                    break Err("injected transient fault".to_string());
                }
            }
        };

        let finished = Instant::now();
        let service_ms = ms_between(dispatched, finished);
        let (outcome, disposition, degraded): (Result<Arc<PipelineProfile>, String>, _, _) =
            match &result {
                Ok(s) => (
                    Ok(Arc::clone(&s.profile)),
                    s.step.disposition(),
                    s.step.is_degraded(),
                ),
                Err(msg) => (Err(msg.clone()), CacheDisposition::Miss, false),
            };

        // Collect the waiters that coalesced during execution and deliver.
        let late_waiters = {
            let mut state = inner.state.lock().expect("server state poisoned");
            let i = state
                .executing
                .iter()
                .position(|(k, _)| *k == job.key)
                .expect("executing entry registered at dispatch");
            let (_, waiters) = state.executing.swap_remove(i);
            state.completed += (job.waiters.len() + waiters.len()) as u64;
            if let Ok(s) = &result {
                state.peak_device_bytes = state.peak_device_bytes.max(s.peak_device_bytes);
                state.shard_peak_device_bytes =
                    state.shard_peak_device_bytes.max(s.shard_peak_device_bytes);
            }
            if reject == Some(RejectReason::DeadlineExceeded) {
                state.counters.resilience.timeouts += 1;
            }
            // One breaker outcome per dispatched request, recorded before
            // delivery; a request that expired in the queue says nothing
            // about its config.
            if !queued_out {
                let now_ms = ms_between(inner.epoch, finished);
                if let Some((_, b)) = state.breakers.iter_mut().find(|(k, _)| *k == job.key) {
                    b.record(now_ms, result.is_ok());
                }
            }
            waiters
        };
        for (n, waiter) in job.waiters.into_iter().chain(late_waiters).enumerate() {
            let disposition = if n == 0 {
                disposition
            } else {
                CacheDisposition::Coalesced
            };
            let completion = Completion {
                id: waiter.id,
                request: job.key.clone(),
                outcome: outcome.clone(),
                cache: disposition,
                reject,
                degraded,
                retries: attempt,
                batch: 1,
                queue_ms: ms_between(waiter.submitted, dispatched).max(0.0),
                service_ms,
                latency_ms: ms_between(waiter.submitted, finished).max(0.0),
            };
            // A submitter that dropped its receiver simply misses the
            // delivery; the server keeps running.
            let _ = waiter.tx.send(completion);
        }
    }
}

fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// The batch former's merge key of a request: its merge class on its
/// GPU, since a merged Plan is profiled on one device; `None` when the
/// request never merges.
pub(crate) fn merge_key(req: &ServeRequest) -> Option<(MergeClass, GpuSpec)> {
    merge_class(&req.config).map(|class| (class, req.gpu))
}

/// The id of `item` in `table`, appended on first use.
pub(crate) fn intern<T: PartialEq>(table: &mut Vec<T>, item: T) -> usize {
    match table.iter().position(|t| *t == item) {
        Some(id) => id,
        None => {
            table.push(item);
            table.len() - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use gsuite_core::config::{CompModel, GnnModel};

    fn golden_request(line: &str) -> ServeRequest {
        ServeRequest::parse_line(line).expect("valid request line")
    }

    #[test]
    fn serves_a_request_end_to_end() {
        let server = Server::start(ServeConfig::golden());
        let rx = server
            .submit(golden_request("model=gcn dataset=cora scale=0.05"))
            .unwrap();
        let done = rx.recv().expect("completion arrives");
        let profile = done.outcome.expect("gcn-mp builds");
        assert!(!profile.kernels.is_empty());
        assert_eq!(done.cache, CacheDisposition::Miss);
        assert!(done.latency_ms >= done.service_ms);
        assert_eq!(done.reject, None);
        assert!(!done.degraded);
        assert_eq!(done.retries, 0);
        let stats = server.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.cache.misses, 1);
        assert!(
            stats.peak_device_bytes > 0,
            "served pipeline reports its memory-schedule peak"
        );
        assert!(stats.to_line().contains("peak_device_bytes="));
        assert!(stats.to_line().ends_with(
            "tpl_hits=0 tpl_misses=1 tpl_instantiates=0 lock_waits=0 \
             batches=0 batched_requests=0 batch_shed=0"
        ));
        server.shutdown();
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let server = Server::start(ServeConfig::golden());
        let req = golden_request("model=gin dataset=cora scale=0.05");
        let first = server.submit(req.clone()).unwrap().recv().unwrap();
        let second = server.submit(req).unwrap().recv().unwrap();
        assert_eq!(first.cache, CacheDisposition::Miss);
        assert_eq!(second.cache, CacheDisposition::Hit);
        // Bit-identical profiles: same pipeline, same profiler.
        assert_eq!(first.outcome.unwrap(), second.outcome.unwrap());
        assert!(server.stats().cache.hit_rate() > 0.0);
        server.shutdown();
    }

    #[test]
    fn expired_entries_refresh_and_report_a_hit() {
        // Every entry is past a zero soft TTL, and with no deadline there
        // is no pressure: the repeat rebuilds in line and re-inserts.
        let server = Server::start(ServeConfig {
            resilience: ResilienceConfig {
                stale_ttl_ms: Some(0.0),
                ..ResilienceConfig::default()
            },
            ..ServeConfig::golden()
        });
        let req = golden_request("model=gcn dataset=cora scale=0.05");
        let first = server.submit(req.clone()).unwrap().recv().unwrap();
        let second = server.submit(req).unwrap().recv().unwrap();
        assert_eq!(first.cache, CacheDisposition::Miss);
        assert_eq!(second.cache, CacheDisposition::Hit, "a refresh is a hit");
        assert!(!second.degraded);
        let stats = server.stats();
        assert_eq!((stats.cache.hits, stats.cache.insertions), (1, 2));
        assert_eq!(stats.stale_serves, 0);
        server.shutdown();
    }

    #[test]
    fn evicted_pipelines_rebuild_from_the_plan_template() {
        // A zero-byte cache rejects every pipeline insert, so each repeat
        // request misses the pipeline cache — but the second one finds
        // the plan template and serves an instantiated build that is
        // bit-identical to the first full compile.
        let server = Server::start(ServeConfig {
            cache_bytes: 0,
            ..ServeConfig::golden()
        });
        let req = golden_request("model=gcn dataset=cora scale=0.05");
        let first = server.submit(req.clone()).unwrap().recv().unwrap();
        let second = server.submit(req).unwrap().recv().unwrap();
        assert_eq!(first.cache, CacheDisposition::Miss);
        assert_eq!(second.cache, CacheDisposition::Miss);
        assert_eq!(
            first.outcome.unwrap(),
            second.outcome.unwrap(),
            "instantiated build profiles bit-identically to the full compile"
        );
        let stats = server.stats();
        assert_eq!(stats.tpl_misses, 1, "first request sees no template");
        assert_eq!(stats.tpl_hits, 1, "second request finds the template");
        assert_eq!(stats.tpl_instantiates, 1);
        assert_eq!(stats.cache.rejected, 2, "pipeline cache rejects both");
        server.shutdown();
    }

    #[test]
    fn sharded_requests_report_their_per_shard_peak() {
        let server = Server::start(ServeConfig::golden());
        let done = server
            .submit(golden_request(
                "model=gcn dataset=cora scale=0.05 shards=2 partitioner=range",
            ))
            .unwrap()
            .recv()
            .unwrap();
        let profile = done.outcome.expect("sharded gcn-mp builds");
        let sharding = profile.sharding.as_ref().expect("sharded profile");
        assert_eq!(sharding.shards.len(), 2);
        let stats = server.stats();
        assert!(stats.shard_peak_device_bytes > 0);
        assert_eq!(
            stats.shard_peak_device_bytes,
            sharding.max_shard_peak_bytes()
        );
        assert!(stats.to_line().contains("shard_peak_device_bytes="));
        server.shutdown();
    }

    #[test]
    fn unsupported_combination_is_an_error_response() {
        let server = Server::start(ServeConfig::golden());
        let req = ServeRequest::parse_line("model=sage comp=spmm dataset=cora scale=0.05").unwrap();
        assert_eq!(req.config.model, GnnModel::Sage);
        assert_eq!(req.config.comp, CompModel::Spmm);
        let done = server.submit(req).unwrap().recv().unwrap();
        assert!(done.outcome.is_err());
        assert!(done.to_line().starts_with("err id=0"));
        assert_eq!(done.reject, None, "a build error is not a typed reject");
        server.shutdown();
    }

    /// A snapshot with a distinct value in every field.
    fn snapshot() -> ServerStats {
        ServerStats {
            workers: 3,
            queue_depth: 2,
            submitted: 40,
            completed: 37,
            coalesced: 5,
            rejected: 6,
            peak_device_bytes: 123_456,
            shard_peak_device_bytes: 7_890,
            retries: 4,
            timeouts: 9,
            breaker_trips: 10,
            breaker_shed: 11,
            degraded: 12,
            stale_serves: 14,
            crashed: 15,
            respawns: 18,
            tpl_hits: 19,
            tpl_misses: 21,
            tpl_instantiates: 22,
            lock_waits: 23,
            batches: 24,
            batched_requests: 25,
            batch_shed: 26,
            cache: LruStats {
                hits: 20,
                misses: 17,
                insertions: 16,
                evictions: 7,
                rejected: 8,
                bytes_in_use: 9999,
                capacity_bytes: 1 << 20,
                entries: 13,
            },
        }
    }

    #[test]
    fn stats_line_round_trips_with_locked_key_order() {
        let stats = snapshot();
        let line = stats.to_line();
        // The wire key order is locked: exactly LINE_KEYS, in order.
        let keys: Vec<&str> = line
            .split_whitespace()
            .skip(1)
            .map(|tok| tok.split('=').next().unwrap())
            .collect();
        assert_eq!(keys, ServerStats::LINE_KEYS);
        // Exact round trip through the documented format.
        let parsed = ServerStats::parse_line(&line).expect("stats line parses");
        assert_eq!(parsed, stats);
        assert_eq!(parsed.to_line(), line);
        // Each shared counter maps onto its own `ServeCounters` field.
        let c = stats.counters();
        let r = c.resilience;
        assert_eq!(
            (c.coalesced, c.rejected, c.tpl_hits, c.tpl_misses),
            (5, 6, 19, 21)
        );
        assert_eq!(
            (r.retries, r.timeouts, r.breaker_trips, r.circuit_open),
            (4, 9, 10, 11)
        );
        assert_eq!((r.degraded, r.stale_serves, r.crashed), (12, 14, 15));
        let b = &c.batch;
        assert_eq!((b.batches, b.batched_requests, b.shed), (24, 25, 26));
        // Non-stats lines do not parse.
        assert_eq!(ServerStats::parse_line("ok id=0 cache=miss"), None);
    }

    /// The `stats` line and the `metrics` exposition of a fixed snapshot,
    /// byte for byte: both are wire formats.
    #[test]
    fn stats_line_and_metrics_text_are_locked() {
        let stats = snapshot();
        assert_eq!(
            stats.to_line(),
            "stats workers=3 queue=2 submitted=40 completed=37 coalesced=5 rejected=6 \
             cache_hits=20 cache_misses=17 cache_insertions=16 cache_evictions=7 \
             cache_rejected=8 cache_bytes=9999 cache_capacity=1048576 cache_entries=13 \
             peak_device_bytes=123456 shard_peak_device_bytes=7890 retries=4 timeouts=9 \
             breaker_trips=10 breaker_shed=11 degraded=12 stale_serves=14 crashed=15 \
             respawns=18 tpl_hits=19 tpl_misses=21 tpl_instantiates=22 lock_waits=23 \
             batches=24 batched_requests=25 batch_shed=26"
        );
        assert_eq!(stats.metrics().render(), "\
# HELP gsuite_batch_dispatched_total Batches dispatched by the cross-request former.
# TYPE gsuite_batch_dispatched_total counter
gsuite_batch_dispatched_total 24
# HELP gsuite_batch_requests_total Requests resolved through a dispatched batch.
# TYPE gsuite_batch_requests_total counter
gsuite_batch_requests_total 25
# HELP gsuite_batch_shed_total Requests shed by the batch former's admission control.
# TYPE gsuite_batch_shed_total counter
gsuite_batch_shed_total 26
# HELP gsuite_cache_bytes_in_use Pipeline-cache bytes in use.
# TYPE gsuite_cache_bytes_in_use gauge
gsuite_cache_bytes_in_use 9999.000
# HELP gsuite_cache_entries Pipeline-cache resident entries.
# TYPE gsuite_cache_entries gauge
gsuite_cache_entries 13.000
# HELP gsuite_cache_evictions_total Pipeline-cache evictions.
# TYPE gsuite_cache_evictions_total counter
gsuite_cache_evictions_total 7
# HELP gsuite_cache_hits_total Pipeline-cache lookup hits.
# TYPE gsuite_cache_hits_total counter
gsuite_cache_hits_total 20
# HELP gsuite_cache_insertions_total Pipeline-cache insertions.
# TYPE gsuite_cache_insertions_total counter
gsuite_cache_insertions_total 16
# HELP gsuite_cache_lock_waits_total Contended pipeline-cache shard-lock acquisitions.
# TYPE gsuite_cache_lock_waits_total counter
gsuite_cache_lock_waits_total 23
# HELP gsuite_cache_misses_total Pipeline-cache lookup misses.
# TYPE gsuite_cache_misses_total counter
gsuite_cache_misses_total 17
# HELP gsuite_cache_rejected_total Pipeline-cache inserts rejected (entry larger than capacity).
# TYPE gsuite_cache_rejected_total counter
gsuite_cache_rejected_total 8
# HELP gsuite_resilience_breaker_shed_total Submissions shed by an open circuit breaker.
# TYPE gsuite_resilience_breaker_shed_total counter
gsuite_resilience_breaker_shed_total 11
# HELP gsuite_resilience_breaker_trips_total Circuit-breaker trips.
# TYPE gsuite_resilience_breaker_trips_total counter
gsuite_resilience_breaker_trips_total 10
# HELP gsuite_resilience_crashed_total Crashed attempts, retried or not.
# TYPE gsuite_resilience_crashed_total counter
gsuite_resilience_crashed_total 15
# HELP gsuite_resilience_degraded_total Attempts served by the O0 compile fallback.
# TYPE gsuite_resilience_degraded_total counter
gsuite_resilience_degraded_total 12
# HELP gsuite_resilience_respawns_total Worker respawns after caught crashes.
# TYPE gsuite_resilience_respawns_total counter
gsuite_resilience_respawns_total 18
# HELP gsuite_resilience_retries_total Retry attempts performed.
# TYPE gsuite_resilience_retries_total counter
gsuite_resilience_retries_total 4
# HELP gsuite_resilience_stale_serves_total Stale-but-valid cache serves past the soft TTL.
# TYPE gsuite_resilience_stale_serves_total counter
gsuite_resilience_stale_serves_total 14
# HELP gsuite_resilience_timeouts_total Requests failed on an expired deadline.
# TYPE gsuite_resilience_timeouts_total counter
gsuite_resilience_timeouts_total 9
# HELP gsuite_serve_coalesced_total Submissions that attached to an in-flight identical request.
# TYPE gsuite_serve_coalesced_total counter
gsuite_serve_coalesced_total 5
# HELP gsuite_serve_completed_total Delivered completions.
# TYPE gsuite_serve_completed_total counter
gsuite_serve_completed_total 37
# HELP gsuite_serve_peak_device_bytes Largest peak-device-bytes footprint served.
# TYPE gsuite_serve_peak_device_bytes gauge
gsuite_serve_peak_device_bytes 123456.000
# HELP gsuite_serve_queue_depth Requests currently queued.
# TYPE gsuite_serve_queue_depth gauge
gsuite_serve_queue_depth 2.000
# HELP gsuite_serve_rejected_total Submissions shed due to a full queue.
# TYPE gsuite_serve_rejected_total counter
gsuite_serve_rejected_total 6
# HELP gsuite_serve_shard_peak_device_bytes Largest per-shard device-bytes peak served.
# TYPE gsuite_serve_shard_peak_device_bytes gauge
gsuite_serve_shard_peak_device_bytes 7890.000
# HELP gsuite_serve_submitted_total Accepted submissions (including coalesced).
# TYPE gsuite_serve_submitted_total counter
gsuite_serve_submitted_total 40
# HELP gsuite_serve_workers Worker-pool size.
# TYPE gsuite_serve_workers gauge
gsuite_serve_workers 3.000
# HELP gsuite_template_hits_total Plan-template cache lookup hits.
# TYPE gsuite_template_hits_total counter
gsuite_template_hits_total 19
# HELP gsuite_template_instantiates_total Builds served by template instantiation instead of a full compile.
# TYPE gsuite_template_instantiates_total counter
gsuite_template_instantiates_total 22
# HELP gsuite_template_misses_total Plan-template cache lookup misses.
# TYPE gsuite_template_misses_total counter
gsuite_template_misses_total 21
# EOF
");
    }

    #[test]
    fn stats_metrics_expose_counters_and_gauges() {
        let server = Server::start(ServeConfig::golden());
        let rx = server
            .submit(golden_request("model=gcn dataset=cora scale=0.05"))
            .unwrap();
        rx.recv().expect("completion arrives");
        let text = server.stats().metrics().render();
        assert!(text.contains("# TYPE gsuite_serve_completed_total counter"));
        assert!(text.contains("gsuite_serve_completed_total 1"));
        assert!(text.contains("gsuite_cache_misses_total 1"));
        assert!(text.contains("# TYPE gsuite_serve_queue_depth gauge"));
        assert!(text.ends_with("# EOF\n"));
        server.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let server = Server::start(ServeConfig::golden());
        {
            let mut state = server.inner.state.lock().unwrap();
            state.shutdown = true;
        }
        let err = server
            .submit(golden_request("model=gcn scale=0.05"))
            .unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
    }

    #[test]
    fn response_lines_are_wire_parsable() {
        let server = Server::start(ServeConfig::golden());
        let rx = server
            .submit(golden_request("model=gcn dataset=cora scale=0.05"))
            .unwrap();
        let line = rx.recv().unwrap().to_line();
        assert!(line.starts_with("ok id=0 cache=miss "));
        for field in [
            "queue_ms=",
            "service_ms=",
            "latency_ms=",
            "device_ms=",
            "e2e_ms=",
            "kernels=",
        ] {
            assert!(line.contains(field), "{line}");
        }
        // Fault-free lines never grow resilience keys.
        for absent in ["code=", "degraded=", "retries="] {
            assert!(!line.contains(absent), "{line}");
        }
        server.shutdown();
    }

    #[test]
    fn expired_deadline_times_out_without_executing() {
        let server = Server::start(ServeConfig::golden());
        let done = server
            .submit(golden_request(
                "model=gcn dataset=cora scale=0.05 deadline_ms=0.000001",
            ))
            .unwrap()
            .recv()
            .unwrap();
        assert_eq!(done.reject, Some(RejectReason::DeadlineExceeded));
        assert!(done.outcome.is_err());
        assert!(done.to_line().contains("code=deadline-exceeded"));
        let stats = server.stats();
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.cache.misses, 0, "timed-out request never built");
        server.shutdown();
    }

    #[test]
    fn injected_crashes_are_supervised_and_respawned() {
        let crash_plan = FaultPlan {
            seed: 1,
            spec: FaultSpec {
                crash_rate: 1.0,
                ..FaultSpec::none()
            },
        };
        // No retries: every request crashes once and fails typed.
        let server = Server::start(ServeConfig {
            fault: Some(crash_plan),
            ..ServeConfig::golden()
        });
        let n = 3;
        // Distinct scales so the requests never coalesce: one panic each.
        let rxs: Vec<_> = (0..n)
            .map(|i| {
                let line = format!("model=gcn dataset=cora scale=0.0{}", 5 + i);
                server.submit(golden_request(&line)).unwrap()
            })
            .collect();
        for rx in rxs {
            let done = rx.recv().expect("crashed requests still complete");
            assert_eq!(done.reject, Some(RejectReason::Crashed));
            assert!(done.to_line().contains("code=crashed"));
        }
        let stats = server.stats();
        assert_eq!(stats.crashed, n as u64, "every injected panic is counted");
        assert_eq!(stats.respawns, n as u64, "one respawn per crash");
        assert_eq!(stats.completed, n as u64, "no request lost or hung");
        // The worker pool survived: a fault-free request still... would
        // crash under this plan, but submission and delivery both work.
        server.shutdown();
    }

    #[test]
    fn transient_faults_exhaust_retries_with_backoff() {
        let plan = FaultPlan {
            seed: 2,
            spec: FaultSpec {
                transient_rate: 1.0,
                ..FaultSpec::none()
            },
        };
        let server = Server::start(ServeConfig {
            fault: Some(plan),
            resilience: ResilienceConfig {
                retry: crate::fault::RetryPolicy {
                    max_retries: 2,
                    base_ms: 0.1,
                    cap_ms: 0.5,
                },
                ..ResilienceConfig::default()
            },
            ..ServeConfig::golden()
        });
        let done = server
            .submit(golden_request("model=gcn dataset=cora scale=0.05"))
            .unwrap()
            .recv()
            .unwrap();
        assert!(done.outcome.is_err());
        assert_eq!(done.retries, 2, "both retries consumed");
        assert!(done.to_line().contains("retries=2"));
        assert_eq!(server.stats().retries, 2);
        server.shutdown();
    }

    #[test]
    fn compatible_requests_merge_into_one_batch() {
        let server = Server::start(ServeConfig {
            workers: 1,
            batch: Some(BatchPolicy {
                max_batch: 2,
                max_queue_delay_ms: 5_000.0,
                max_backlog: 0,
            }),
            ..ServeConfig::golden()
        });
        // Same dataset + scale + opt + framework: one full-graph merge
        // class, two different models — merged block-diagonally.
        let a = server
            .submit(golden_request("model=gcn dataset=cora scale=0.05"))
            .unwrap();
        let b = server
            .submit(golden_request("model=gin dataset=cora scale=0.05"))
            .unwrap();
        let da = a.recv().expect("first member completes");
        let db = b.recv().expect("second member completes");
        for d in [&da, &db] {
            assert_eq!(d.batch, 2);
            assert!(d.to_line().contains(" batch=2"), "{}", d.to_line());
            assert!(d.outcome.is_ok());
            assert_eq!(d.cache, CacheDisposition::Miss);
            assert!(d.service_ms > 0.0, "the batch's execution time is non-zero");
            assert!(d.latency_ms >= d.service_ms);
        }
        let stats = server.stats();
        assert_eq!(stats.batches, 1, "one merged execution for both");
        assert_eq!(stats.batched_requests, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.batch_shed, 0);
        assert!(stats.peak_device_bytes > 0);
        assert!(stats.to_line().contains("batches=1 batched_requests=2"));
        server.shutdown();
    }

    #[test]
    fn batch_backlog_sheds_mergeable_submissions_only() {
        let server = Server::start(ServeConfig {
            workers: 1,
            batch: Some(BatchPolicy {
                max_batch: 8,
                max_queue_delay_ms: 400.0,
                max_backlog: 1,
            }),
            ..ServeConfig::golden()
        });
        let rx = server
            .submit(golden_request("model=gcn dataset=cora scale=0.05"))
            .unwrap();
        // Another merge class would open a second batch past the bound.
        let err = server
            .submit(golden_request("model=gin dataset=citeseer scale=0.05"))
            .unwrap_err();
        assert_eq!(err, SubmitError::BatchBacklog);
        assert_eq!(err.reject_reason(), Some(RejectReason::BatchBacklog));
        // Unmergeable requests (sharded multi-GPU) dispatch at once as
        // singletons, whatever the backlog.
        let solo = server
            .submit(golden_request(
                "model=gcn dataset=cora scale=0.05 shards=2 partitioner=range",
            ))
            .unwrap();
        let head = rx.recv().expect("head completes");
        assert_eq!(head.batch, 1, "a lonely batch dispatches alone");
        assert!(!head.to_line().contains("batch="), "{}", head.to_line());
        assert!(solo.recv().unwrap().outcome.is_ok());
        let stats = server.stats();
        assert_eq!(stats.batch_shed, 1);
        assert_eq!(stats.batches, 2, "singleton dispatches are batches");
        assert_eq!(stats.batched_requests, 2);
        server.shutdown();
    }

    fn batching_server(max_batch: usize, max_queue_delay_ms: f64, max_backlog: usize) -> Server {
        Server::start(ServeConfig {
            workers: 1,
            batch: Some(BatchPolicy {
                max_batch,
                max_queue_delay_ms,
                max_backlog,
            }),
            ..ServeConfig::golden()
        })
    }

    #[test]
    fn joins_are_never_shed_by_a_full_backlog() {
        let server = batching_server(2, 60_000.0, 1);
        // The first request opens the one batch the bound allows; the
        // second has its merge class, joins and fills it.
        let a = server
            .submit(golden_request("model=gcn dataset=cora scale=0.05"))
            .unwrap();
        // The join comes well after the batch opened.
        std::thread::sleep(Duration::from_millis(150));
        let b = server
            .submit(golden_request("model=gin dataset=cora scale=0.05"))
            .expect("a join is never shed");
        for rx in [a, b] {
            let done = rx.recv().expect("member completes");
            assert!(done.outcome.is_ok());
            assert_eq!(done.batch, 2);
        }
        let stats = server.stats();
        assert_eq!(stats.batch_shed, 0);
        assert_eq!((stats.batches, stats.batched_requests), (1, 2));
        server.shutdown();
    }

    #[test]
    fn a_lone_batch_dispatches_when_its_delay_runs_out() {
        let server = batching_server(4, 50.0, 0);
        // No further arrival: the idle worker's timed wait dispatches it.
        let done = server
            .submit(golden_request("model=gcn dataset=cora scale=0.05"))
            .unwrap()
            .recv_timeout(Duration::from_secs(120))
            .expect("the expired batch dispatches");
        assert!(done.outcome.is_ok());
        assert!(done.latency_ms >= 50.0, "dispatched before its delay");
        let stats = server.stats();
        assert_eq!((stats.batches, stats.batched_requests), (1, 1));
        server.shutdown();
    }

    #[test]
    fn dropping_the_server_flushes_forming_batches() {
        let server = batching_server(4, 3_600_000.0, 0);
        let rxs: Vec<_> = ["gcn", "gin"]
            .iter()
            .map(|model| {
                let line = format!("model={model} dataset=cora scale=0.05");
                server.submit(golden_request(&line)).unwrap()
            })
            .collect();
        drop(server);
        for rx in rxs {
            let done = rx.recv().expect("a forming batch still completes");
            assert!(done.outcome.is_ok());
            assert_eq!(done.batch, 2);
        }
    }

    #[test]
    fn a_merged_dispatch_into_a_full_queue_is_shed_as_a_unit() {
        // Solo attempts are slowed 4x (merged batches skip faults), so
        // the first request holds the only worker for about a second,
        // far longer than the submissions below take.
        let slow = FaultPlan {
            seed: 3,
            spec: FaultSpec {
                slow_rate: 1.0,
                slow_factor: 4.0,
                ..FaultSpec::none()
            },
        };
        let server = Server::start(ServeConfig {
            workers: 1,
            queue_cap: 1,
            fault: Some(slow),
            batch: Some(BatchPolicy {
                max_batch: 2,
                max_queue_delay_ms: 60_000.0,
                max_backlog: 0,
            }),
            ..ServeConfig::golden()
        });
        let busy = server
            .submit(golden_request(
                "model=gcn dataset=cora scale=0.05 shards=2 partitioner=range",
            ))
            .unwrap();
        while server.stats().queue_depth > 0 {
            std::thread::yield_now();
        }
        // An unbuildable singleton fills the queue behind it...
        let queued = server
            .submit(golden_request(
                "model=sage comp=spmm dataset=cora scale=0.05",
            ))
            .unwrap();
        // ...so the batch these two fill finds no room.
        let members: Vec<_> = ["gcn", "gin"]
            .iter()
            .map(|model| {
                let line = format!("model={model} dataset=cora scale=0.05");
                server.submit(golden_request(&line)).unwrap()
            })
            .collect();
        for rx in members {
            let done = rx.recv().expect("a shed member is answered");
            assert_eq!(done.reject, Some(RejectReason::QueueFull));
            assert!(
                done.to_line().contains("code=queue-full"),
                "{}",
                done.to_line()
            );
        }
        let stats = server.stats();
        assert_eq!(stats.rejected, 2, "every member counts");
        assert_eq!((stats.batches, stats.batched_requests), (3, 4));
        assert!(busy.recv().unwrap().outcome.is_ok());
        assert!(queued.recv().unwrap().outcome.is_err());
        server.shutdown();
    }

    #[test]
    fn breaker_opens_on_persistent_errors_and_sheds_submissions() {
        let server = Server::start(ServeConfig {
            resilience: ResilienceConfig {
                breaker: Some(crate::fault::BreakerConfig {
                    window: 2,
                    min_samples: 2,
                    fail_threshold: 0.5,
                    cooldown_ms: 60_000.0,
                    half_open_probes: 1,
                }),
                ..ResilienceConfig::default()
            },
            ..ServeConfig::golden()
        });
        let bad = "model=sage comp=spmm dataset=cora scale=0.05";
        for _ in 0..2 {
            let done = server.submit(golden_request(bad)).unwrap().recv().unwrap();
            assert!(done.outcome.is_err());
        }
        let err = server.submit(golden_request(bad)).unwrap_err();
        assert_eq!(err, SubmitError::CircuitOpen);
        assert_eq!(err.reject_reason(), Some(RejectReason::CircuitOpen));
        let stats = server.stats();
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.breaker_shed, 1);
        // A healthy config is unaffected: breakers are per-config.
        let ok = server
            .submit(golden_request("model=gcn dataset=cora scale=0.05"))
            .unwrap()
            .recv()
            .unwrap();
        assert!(ok.outcome.is_ok());
        server.shutdown();
    }
}
