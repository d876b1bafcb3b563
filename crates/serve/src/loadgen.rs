//! The load generator: a seeded request stream over a scenario-registry
//! workload mix, driven through the serving layer in one of two clock
//! modes, with a throughput + latency-percentile + SLO report.
//!
//! * **Simulated clock** ([`ClockMode::Sim`], the default): profiles every
//!   distinct configuration once (order-preserving parallel fan-out, so
//!   results are thread-count independent) and replays the stream through
//!   the deterministic queueing model of [`crate::sim`]. The report —
//!   every per-request latency, every counter — is a pure function of
//!   `(scenario, seed, parameters)`: a *reproducible benchmark*.
//! * **Wall clock** ([`ClockMode::Wall`]): drives a real in-process
//!   [`Server`] with live threads and reports measured wall times — a
//!   *measurement* of the host.
//!
//! Closed-loop mode models a fixed client population (each client submits
//! its next request when the previous completes); open-loop mode models
//! seeded Poisson arrivals at a fixed rate that do not slow down under
//! server pressure — the regime where the bounded queue sheds load.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gsuite_core::plan::template::TemplateKey;
use gsuite_scenarios::trace::span_profile;
use gsuite_scenarios::{registry, BenchOpts, LruStats};
use gsuite_telemetry::metrics::LATENCY_BUCKETS_MS;
use gsuite_telemetry::{Attr, ClockDomain, MetricsRegistry, SpanSink, Trace};

use crate::fault::{BatchSummary, FaultPlan, RejectReason, ResilienceConfig, ServeCounters};
use crate::request::ServeRequest;
use crate::server::{
    entry_bytes, intern, merge_key, metric_help, Completion, ServeConfig, Server, SubmitError,
};
use crate::sim::{
    build_cost_ms, simulate, Arrivals, BatchPolicy, SimBatch, SimCosts, SimDisposition, SimParams,
    SpanProfile,
};

/// How the stream's submission times are produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalMode {
    /// A fixed client population with zero think time.
    Closed {
        /// Concurrent clients.
        clients: usize,
    },
    /// Seeded Poisson arrivals at a fixed rate, independent of completions.
    Open {
        /// Mean arrival rate in requests per second.
        rate_rps: f64,
    },
}

impl std::fmt::Display for ArrivalMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrivalMode::Closed { clients } => write!(f, "closed(clients={clients})"),
            ArrivalMode::Open { rate_rps } => write!(f, "open(rate={rate_rps}/s)"),
        }
    }
}

/// Which clock the run is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Deterministic queueing simulation over modeled service times.
    Sim,
    /// A live in-process server measured in wall time.
    Wall,
}

impl ClockMode {
    /// Report name (`sim` / `wall`).
    pub fn name(self) -> &'static str {
        match self {
            ClockMode::Sim => "sim",
            ClockMode::Wall => "wall",
        }
    }
}

/// A full load-generation specification.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Scenario-registry entry whose expanded grid is the workload mix.
    pub scenario: String,
    /// Stream seed: drives configuration sampling and open-loop arrivals.
    pub seed: u64,
    /// Total requests in the stream.
    pub requests: usize,
    /// Closed- or open-loop arrivals.
    pub arrival: ArrivalMode,
    /// Simulated or wall clock.
    pub clock: ClockMode,
    /// Service worker-pool size.
    pub workers: usize,
    /// Bounded queue depth.
    pub queue_cap: usize,
    /// LRU cache capacity in bytes.
    pub cache_bytes: u64,
    /// Threads for the distinct-configuration profiling pass (and the
    /// wall-mode worker pool); `0` uses [`gsuite_par::default_threads`].
    pub threads: usize,
    /// Optional latency SLO in milliseconds (report attainment against a
    /// 99% target).
    pub slo_ms: Option<f64>,
    /// Seeded fault injection plan; `None` (the default) injects nothing
    /// and leaves every report byte-identical to the pre-fault format.
    pub fault: Option<FaultPlan>,
    /// Resilience policy applied by the service. Default: fully inert.
    /// Both clocks apply it through the same rules
    /// ([`crate::fault::ResilienceConfig::cache_step`],
    /// [`crate::fault::ResilienceConfig::retry_after_ms`]); each keeps
    /// only its own deadline-pressure test (a predicted overrun on the
    /// sim clock, over half the budget spent on the wall clock), its
    /// deadline enforcement, its time and its way of crashing. With one
    /// closed-loop client and one worker, and no slowdowns, eviction
    /// storms, deadlines or TTLs, both clocks report the same counters.
    pub resilience: ResilienceConfig,
    /// Cross-request batching policy. `None` (the default) serves every
    /// request alone and keeps all reports byte-identical to the
    /// unbatched format. `Some` requires open-loop arrivals: both clocks
    /// offer every request to one [`crate::sim::BatchFormer`] in front
    /// of the queue, which merges compatible requests into one batched
    /// Plan execution, so a stream forms the same batches on either.
    pub batch: Option<BatchPolicy>,
    /// Measurement options (scale policy, CTA caps).
    pub opts: BenchOpts,
}

impl Default for LoadSpec {
    /// The acceptance-criteria default: `serve-mix`, seed 42, 128 requests
    /// from 8 closed-loop clients on the simulated clock, quick scales.
    fn default() -> Self {
        LoadSpec {
            scenario: "serve-mix".to_string(),
            seed: 42,
            requests: 128,
            arrival: ArrivalMode::Closed { clients: 8 },
            clock: ClockMode::Sim,
            workers: 4,
            queue_cap: 64,
            cache_bytes: 64 << 20,
            threads: 0,
            slo_ms: None,
            fault: None,
            resilience: ResilienceConfig::default(),
            batch: None,
            opts: BenchOpts::quick(),
        }
    }
}

impl LoadSpec {
    /// The workload-mix universe: the expanded cells of the named
    /// scenario, as serving requests.
    ///
    /// # Errors
    ///
    /// Unknown scenario names and scenarios with empty grids (the static
    /// table scenarios) are rejected.
    pub fn universe(&self) -> Result<Vec<ServeRequest>, String> {
        let scenario = registry::find(&self.scenario).ok_or_else(|| {
            let known: Vec<&str> = registry::all().iter().map(|s| s.name).collect();
            format!(
                "unknown scenario {:?} (registry: {})",
                self.scenario,
                known.join(", ")
            )
        })?;
        let cells = scenario.spec().expand(&self.opts);
        if cells.is_empty() {
            return Err(format!(
                "scenario {:?} expands to an empty grid (nothing to serve)",
                self.scenario
            ));
        }
        Ok(cells.iter().map(ServeRequest::from_cell).collect())
    }

    /// The seeded request stream: `requests` indices into a universe of
    /// `universe_len` configurations, sampled uniformly with replacement.
    pub fn sample_keys(&self, universe_len: usize) -> Vec<usize> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        (0..self.requests)
            .map(|_| rng.gen_range(0..universe_len))
            .collect()
    }

    /// Seeded open-loop arrival times (ms, nondecreasing): exponential
    /// inter-arrivals at `rate_rps`. Decoupled from the sampling stream
    /// so the same seed yields the same mix under both arrival modes.
    pub fn arrivals(&self, rate_rps: f64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xA5A5_5A5A_1234_5678);
        let mut t = 0.0;
        (0..self.requests)
            .map(|_| {
                let u: f64 = rng.gen();
                t += -(1.0 - u).ln() / rate_rps.max(1e-9) * 1e3;
                t
            })
            .collect()
    }

    fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            gsuite_par::default_threads()
        } else {
            self.threads
        }
    }
}

/// Latency percentile summary in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Maximum.
    pub max_ms: f64,
}

impl LatencySummary {
    /// The nearest-rank percentile of an ascending sample: the element at
    /// rank `ceil(percent·n / 100)` (1-based), in exact integer
    /// arithmetic. The float form `(q * n as f64).ceil()` lands one rank
    /// high whenever the product rounds just above an integer (e.g.
    /// `0.28 * 25.0 == 7.000000000000001` ranks 8th instead of 7th), so
    /// the rank is never allowed near floating point.
    fn nearest_rank(sorted: &[f64], percent: u64) -> f64 {
        let n = sorted.len() as u64;
        let rank = (percent * n).div_ceil(100).max(1);
        sorted[rank as usize - 1]
    }

    /// Summarizes a latency sample (empty samples summarize to zeros).
    pub fn of(latencies: &[f64]) -> LatencySummary {
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_by(f64::total_cmp);
        LatencySummary {
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_ms: Self::nearest_rank(&sorted, 50),
            p95_ms: Self::nearest_rank(&sorted, 95),
            p99_ms: Self::nearest_rank(&sorted, 99),
            max_ms: *sorted.last().expect("non-empty"),
        }
    }
}

/// SLO attainment against a 99%-of-requests target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloReport {
    /// Latency objective in milliseconds.
    pub target_ms: f64,
    /// Fraction of completed requests at or under the objective.
    pub attainment: f64,
}

impl SloReport {
    /// The attainment fraction the SLO is judged against.
    pub const TARGET_FRACTION: f64 = 0.99;

    /// Whether the run met the objective.
    pub fn met(&self) -> bool {
        self.attainment >= Self::TARGET_FRACTION
    }
}

/// The load generator's result: counters, cache stats, throughput and the
/// latency distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Workload-mix scenario name.
    pub scenario: String,
    /// Stream seed.
    pub seed: u64,
    /// Clock the run was measured on (`sim` / `wall` / `tcp`).
    pub clock: String,
    /// Arrival-mode description.
    pub arrival: String,
    /// Distinct configurations in the mix universe.
    pub universe: usize,
    /// Requests in the stream.
    pub requests: usize,
    /// Delivered completions (successful profiles + error responses).
    pub completed: u64,
    /// Completions that were error responses: unbuildable configs,
    /// timeouts, crashes and transient failures that exhausted their
    /// retries.
    pub errors: u64,
    /// The run's coalescing, shedding, resilience, template and batching
    /// counters. On the sim and wall clocks the resilience counters stay
    /// zero when [`LoadReport::fault_mode`] is false, and the batching
    /// counters on unbatched runs (which keeps those reports
    /// byte-identical to the historical format). On TCP they are the
    /// server's per-run deltas, whatever the client's own spec.
    pub counters: ServeCounters,
    /// Cache counters after the run.
    pub cache: LruStats,
    /// Completed requests per second over the makespan.
    pub throughput_rps: f64,
    /// First-submission-to-last-completion milliseconds.
    pub makespan_ms: f64,
    /// Latency distribution of completed requests.
    pub latency: LatencySummary,
    /// SLO attainment, when an objective was set.
    pub slo: Option<SloReport>,
    /// True when the run injected faults or ran a non-inert resilience
    /// policy — gates the `outcome:` / `resilience:` report lines so
    /// fault-free reports keep the historical format byte-for-byte.
    pub fault_mode: bool,
    /// Per-completed-request latencies in stream order — the
    /// reproducibility surface the determinism tests compare.
    pub latencies_ms: Vec<f64>,
    /// Per-phase total milliseconds summed over the run's span stream,
    /// in [`PHASE_SPAN_NAMES`] order. Empty unless the run was traced
    /// ([`run_loadgen_traced`]) — untraced reports keep the historical
    /// format byte-for-byte.
    pub phases: Vec<(String, f64)>,
}

impl LoadReport {
    /// The batching counters when any request passed a batch former
    /// (each one is dispatched or shed); `None` on unbatched runs.
    fn batch(&self) -> Option<&BatchSummary> {
        let b = &self.counters.batch;
        (b.batches + b.shed > 0).then_some(b)
    }

    /// Renders the human-readable report. In sim-clock mode the output is
    /// byte-stable across runs, hosts and thread counts.
    pub fn render(&self) -> String {
        let c = &self.counters;
        let mut out = String::new();
        out.push_str("=== gsuite-serve :: loadgen report\n");
        out.push_str(&format!(
            "scenario={} seed={} clock={} arrival={}\n",
            self.scenario, self.seed, self.clock, self.arrival
        ));
        out.push_str(&format!(
            "universe={} configs | requests={} | completed={} (errors={}) | rejected={} | coalesced={}\n",
            self.universe, self.requests, self.completed, self.errors, c.rejected, c.coalesced
        ));
        out.push_str(&format!(
            "throughput: {:.1} req/s | makespan: {:.4} ms\n",
            self.throughput_rps, self.makespan_ms
        ));
        out.push_str(&format!(
            "latency (ms): mean={:.4} p50={:.4} p95={:.4} p99={:.4} max={:.4}\n",
            self.latency.mean_ms,
            self.latency.p50_ms,
            self.latency.p95_ms,
            self.latency.p99_ms,
            self.latency.max_ms
        ));
        out.push_str(&format!(
            "cache: hits={} misses={} hit-rate={:.1}% evictions={} rejected={} bytes={}/{} entries={}\n",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.evictions,
            self.cache.rejected,
            self.cache.bytes_in_use,
            self.cache.capacity_bytes,
            self.cache.entries
        ));
        if c.tpl_hits + c.tpl_misses > 0 {
            out.push_str(&format!(
                "templates: hits={} misses={} hit-rate={:.1}%\n",
                c.tpl_hits,
                c.tpl_misses,
                c.tpl_hits as f64 / (c.tpl_hits + c.tpl_misses) as f64 * 100.0
            ));
        }
        if self.fault_mode {
            let ok = self.completed.saturating_sub(self.errors);
            let shed = c.shed();
            let total = self.requests.max(1) as f64;
            out.push_str(&format!(
                "outcome: ok={} ({:.1}%) failed={} ({:.1}%) shed={} ({:.1}%) | availability={:.1}%\n",
                ok,
                ok as f64 / total * 100.0,
                self.errors,
                self.errors as f64 / total * 100.0,
                shed,
                shed as f64 / total * 100.0,
                self.availability() * 100.0,
            ));
            let r = &c.resilience;
            out.push_str(&format!(
                "resilience: retries={} timeouts={} crashed={} breaker-trips={} circuit-shed={} degraded={} stale={}\n",
                r.retries, r.timeouts, r.crashed, r.breaker_trips, r.circuit_open, r.degraded, r.stale_serves
            ));
        }
        if let Some(b) = self.batch() {
            out.push_str(&format!(
                "batch: batches={} batched={} avg-size={:.2} shed={}",
                b.batches,
                b.batched_requests,
                b.avg_size(),
                b.shed
            ));
            let cells: Vec<String> = b
                .size_hist
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(i, &n)| format!("{}:{}", i + 1, n))
                .collect();
            if !cells.is_empty() {
                out.push_str(&format!(" | sizes {}", cells.join(" ")));
            }
            out.push('\n');
        }
        if !self.phases.is_empty() {
            out.push_str("phases (ms):");
            for (name, total) in &self.phases {
                out.push_str(&format!(" {name}={total:.4}"));
            }
            out.push('\n');
        }
        if let Some(slo) = &self.slo {
            out.push_str(&format!(
                "SLO: {:.1}% of requests <= {:.2} ms (target {:.1}%) -> {}\n",
                slo.attainment * 100.0,
                slo.target_ms,
                SloReport::TARGET_FRACTION * 100.0,
                if slo.met() { "MET" } else { "VIOLATED" }
            ));
        }
        out
    }

    /// Successful (non-error, non-shed) completions over the whole
    /// request stream — the chaos sweeps' headline availability metric.
    pub fn availability(&self) -> f64 {
        self.completed.saturating_sub(self.errors) as f64 / self.requests.max(1) as f64
    }

    /// Renders the report as one JSON object (hand-rolled: the workspace
    /// builds offline, without serde_json).
    pub fn to_json(&self) -> String {
        let slo = match &self.slo {
            Some(s) => format!(
                ",\n  \"slo\": {{\"target_ms\": {}, \"attainment\": {:.6}, \"met\": {}}}",
                s.target_ms,
                s.attainment,
                s.met()
            ),
            None => String::new(),
        };
        let c = &self.counters;
        let fault = if self.fault_mode {
            let r = &c.resilience;
            format!(
                ",\n  \"availability\": {:.6},\n  \"resilience\": {{\"retries\": {}, \"timeouts\": {}, \
                 \"crashed\": {}, \"breaker_trips\": {}, \"circuit_open\": {}, \"degraded\": {}, \
                 \"stale_serves\": {}}}",
                self.availability(),
                r.retries,
                r.timeouts,
                r.crashed,
                r.breaker_trips,
                r.circuit_open,
                r.degraded,
                r.stale_serves
            )
        } else {
            String::new()
        };
        let templates = if c.tpl_hits + c.tpl_misses > 0 {
            format!(
                ",\n  \"tpl_hits\": {},\n  \"tpl_misses\": {},\n  \"tpl_hit_rate\": {:.6}",
                c.tpl_hits,
                c.tpl_misses,
                c.tpl_hits as f64 / (c.tpl_hits + c.tpl_misses) as f64
            )
        } else {
            String::new()
        };
        let phases = if self.phases.is_empty() {
            String::new()
        } else {
            let cols: Vec<String> = self
                .phases
                .iter()
                .map(|(name, total)| format!("\"{name}\": {total:.4}"))
                .collect();
            format!(",\n  \"phases\": {{{}}}", cols.join(", "))
        };
        let batch = match self.batch() {
            Some(b) => {
                let hist: Vec<String> = b.size_hist.iter().map(u64::to_string).collect();
                format!(
                    ",\n  \"batch\": {{\"batches\": {}, \"batched_requests\": {}, \
                     \"avg_size\": {:.4}, \"shed\": {}, \"size_hist\": [{}]}}",
                    b.batches,
                    b.batched_requests,
                    b.avg_size(),
                    b.shed,
                    hist.join(", ")
                )
            }
            None => String::new(),
        };
        format!(
            "{{\n  \"scenario\": {:?},\n  \"seed\": {},\n  \"clock\": {:?},\n  \"arrival\": {:?},\n  \
             \"universe\": {},\n  \"requests\": {},\n  \"completed\": {},\n  \"errors\": {},\n  \
             \"rejected\": {},\n  \"coalesced\": {},\n  \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
             \"cache_hit_rate\": {:.6},\n  \"cache_evictions\": {},\n  \"throughput_rps\": {:.3},\n  \
             \"makespan_ms\": {:.4},\n  \"latency_ms\": {{\"mean\": {:.4}, \"p50\": {:.4}, \"p95\": {:.4}, \
             \"p99\": {:.4}, \"max\": {:.4}}}{}{}{}{}{}\n}}",
            self.scenario,
            self.seed,
            self.clock,
            self.arrival,
            self.universe,
            self.requests,
            self.completed,
            self.errors,
            c.rejected,
            c.coalesced,
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate(),
            self.cache.evictions,
            self.throughput_rps,
            self.makespan_ms,
            self.latency.mean_ms,
            self.latency.p50_ms,
            self.latency.p95_ms,
            self.latency.p99_ms,
            self.latency.max_ms,
            templates,
            slo,
            fault,
            batch,
            phases
        )
    }

    /// The report as a metrics registry: counters for the traffic and
    /// cache outcomes, gauges for point-in-time values, a fixed-bucket
    /// latency histogram, and (for traced runs) one gauge per phase
    /// column. Exposition order is sorted by name, so the rendered text
    /// is byte-stable wherever the report itself is.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let r = &self.counters.resilience;
        let mut counters = vec![
            ("gsuite_loadgen_completed_total", self.completed),
            ("gsuite_loadgen_errors_total", self.errors),
            ("gsuite_loadgen_rejected_total", self.counters.rejected),
            ("gsuite_loadgen_coalesced_total", self.counters.coalesced),
            ("gsuite_cache_hits_total", self.cache.hits),
            ("gsuite_cache_misses_total", self.cache.misses),
            ("gsuite_cache_evictions_total", self.cache.evictions),
            ("gsuite_resilience_retries_total", r.retries),
            ("gsuite_resilience_timeouts_total", r.timeouts),
            ("gsuite_resilience_crashed_total", r.crashed),
            ("gsuite_resilience_breaker_trips_total", r.breaker_trips),
            ("gsuite_resilience_breaker_shed_total", r.circuit_open),
            ("gsuite_resilience_degraded_total", r.degraded),
            ("gsuite_resilience_stale_serves_total", r.stale_serves),
        ];
        let mut gauges = vec![
            ("gsuite_cache_bytes_in_use", self.cache.bytes_in_use as f64),
            ("gsuite_cache_entries", self.cache.entries as f64),
            ("gsuite_loadgen_throughput_rps", self.throughput_rps),
            ("gsuite_loadgen_makespan_ms", self.makespan_ms),
        ];
        if let Some(b) = self.batch() {
            counters.extend([
                ("gsuite_batch_dispatched_total", b.batches),
                ("gsuite_batch_requests_total", b.batched_requests),
                ("gsuite_batch_shed_total", b.shed),
            ]);
            gauges.push(("gsuite_batch_avg_size", b.avg_size()));
            for (i, &n) in b.size_hist.iter().enumerate() {
                if n > 0 {
                    let name = format!("gsuite_batch_size_{}_total", i + 1);
                    reg.counter_add(&name, "Dispatched batches of this size.", n);
                }
            }
        }
        for (name, v) in counters {
            reg.counter_add(name, metric_help(name), v);
        }
        for (name, v) in gauges {
            reg.gauge_set(name, metric_help(name), v);
        }
        let latency = "gsuite_loadgen_latency_ms";
        for &l in &self.latencies_ms {
            reg.histogram_observe(latency, metric_help(latency), &LATENCY_BUCKETS_MS, l);
        }
        for (name, total) in &self.phases {
            let metric = format!("gsuite_phase_{}_ms", name.replace('.', "_"));
            reg.gauge_set(
                &metric,
                "Total milliseconds spent in this span phase.",
                *total,
            );
        }
        reg
    }

    /// Assembles a report from a run's counters and latency sample.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        spec: &LoadSpec,
        clock: &str,
        universe: usize,
        completed: u64,
        errors: u64,
        counters: ServeCounters,
        cache: LruStats,
        makespan_ms: f64,
        latencies_ms: Vec<f64>,
    ) -> LoadReport {
        let latency = LatencySummary::of(&latencies_ms);
        let slo = spec.slo_ms.map(|target_ms| {
            let within = latencies_ms.iter().filter(|&&l| l <= target_ms).count();
            SloReport {
                target_ms,
                attainment: if latencies_ms.is_empty() {
                    0.0
                } else {
                    within as f64 / latencies_ms.len() as f64
                },
            }
        });
        LoadReport {
            scenario: spec.scenario.clone(),
            seed: spec.seed,
            clock: clock.to_string(),
            arrival: spec.arrival.to_string(),
            universe,
            requests: spec.requests,
            completed,
            errors,
            counters,
            cache,
            throughput_rps: if makespan_ms > 0.0 {
                completed as f64 / makespan_ms * 1e3
            } else {
                0.0
            },
            makespan_ms,
            latency,
            slo,
            fault_mode: spec.fault.is_some() || !spec.resilience.is_inert(),
            latencies_ms,
            phases: Vec::new(),
        }
    }
}

/// The span names the traced reports' per-phase breakdown sums, in
/// column order: the queue/cache/compile/service decomposition of a
/// served request. Wall-clock traces only populate the envelope phases
/// (`queue`, `service`) — the rest read 0.
pub const PHASE_SPAN_NAMES: [&str; 12] = [
    "queue",
    "cache_lookup",
    "build",
    "compile.lower",
    "compile.optimize",
    "compile.decorate",
    "compile.instantiate",
    "compile.schedule",
    "service",
    "kernel",
    "exchange",
    "backoff",
];

/// Sums each [`PHASE_SPAN_NAMES`] column over a trace.
fn phase_totals(trace: &Trace) -> Vec<(String, f64)> {
    PHASE_SPAN_NAMES
        .iter()
        .map(|&name| (name.to_string(), trace.total_ms(name)))
        .collect()
}

/// Profiles the distinct configurations of a stream (order-preserving
/// parallel fan-out) into sim-mode cost records. Unreferenced universe
/// entries get zero-cost placeholders that the simulation never touches.
///
/// With `traced`, the same pass also captures each key's per-launch
/// [`SpanProfile`] (kernel names, modeled times, exchange peers/bytes)
/// for the traced simulation to attach under its `service` spans —
/// untraced runs skip that allocation entirely.
///
/// With `batched`, every mergeable configuration (see
/// `plan::batchmerge::merge_class`) is additionally profiled as a
/// merged **pair** of itself, and [`SimBatch::two_point`] splits its solo
/// service time into the fixed and per-member shares that the batched
/// simulation charges merged executions. Batch groups are the wall
/// server's merge keys: one merge class on one GPU. Unbatched runs
/// skip the pair builds entirely and produce the historical costs.
fn sim_costs(
    universe: &[ServeRequest],
    keys: &[usize],
    opts: &BenchOpts,
    threads: usize,
    traced: bool,
    batched: bool,
) -> (Vec<SimCosts>, Vec<SpanProfile>) {
    let mut referenced: Vec<usize> = Vec::new();
    for &k in keys {
        if !referenced.contains(&k) {
            referenced.push(k);
        }
    }
    let profiled = gsuite_par::par_map_threads(&referenced, threads, |_, &k| {
        let req = &universe[k];
        let graph = req.config.load_graph();
        match gsuite_core::pipeline::PipelineRun::build(&graph, &req.config) {
            Ok(run) => {
                let profiler = req.gpu.profiler(opts, req.config.dataset);
                let profile = run.profile(profiler.as_ref());
                let bytes = entry_bytes(&graph, &run);
                // The slowest shard's halo-exchange share: what a
                // degraded-link fault gets to inflate (0 single-device).
                let exchange_ms = profile.sharding.as_ref().map_or(0.0, |sh| {
                    sh.shards
                        .iter()
                        .map(|shard| shard.exchange_ms)
                        .fold(0.0, f64::max)
                });
                let spans = if traced {
                    span_profile(&run, &profile)
                } else {
                    SpanProfile::default()
                };
                let alone_ms = profile.total_time_ms();
                let probe = if batched {
                    merge_key(req).and_then(|group| {
                        let pair = [req.config.clone(), req.config.clone()];
                        gsuite_core::pipeline::PipelineRun::build_merged(&graph, &pair)
                            .ok()
                            .map(|(pair_run, _)| {
                                (group, pair_run.profile(profiler.as_ref()).total_time_ms())
                            })
                    })
                } else {
                    None
                };
                (
                    SimCosts {
                        service_ms: alone_ms,
                        build_ms: build_cost_ms(bytes),
                        exchange_ms,
                        bytes,
                        template: None,
                        batch: None,
                        error: None,
                    },
                    spans,
                    TemplateKey::of(&graph, &req.config),
                    probe,
                )
            }
            Err(e) => (
                SimCosts {
                    service_ms: 0.0,
                    build_ms: build_cost_ms(0),
                    exchange_ms: 0.0,
                    bytes: 0,
                    template: None,
                    batch: None,
                    error: Some(e.to_string()),
                },
                SpanProfile::default(),
                None,
                None,
            ),
        }
    });
    let mut costs = vec![
        SimCosts {
            service_ms: 0.0,
            build_ms: 0.0,
            exchange_ms: 0.0,
            bytes: 0,
            template: None,
            batch: None,
            error: None,
        };
        universe.len()
    ];
    let mut profiles = vec![SpanProfile::default(); universe.len()];
    // Mirror the server's plan-template cache: every buildable entry
    // whose compile shape (TemplateKey) matches an earlier one shares
    // that entry's group, so only the group's first build pays the full
    // lower/optimize/decorate cost. Group ids are assigned in first-use
    // order, which keys them to the deterministic request stream.
    let mut groups: Vec<TemplateKey> = Vec::new();
    // Batch-former groups (the server's merge keys), likewise in
    // first-use order.
    let mut batch_groups = Vec::new();
    for (&k, (mut cost, spans, tkey, probe)) in referenced.iter().zip(profiled) {
        cost.template = tkey.map(|key| intern(&mut groups, key));
        cost.batch = probe.map(|(group, pair_ms)| {
            SimBatch::two_point(intern(&mut batch_groups, group), cost.service_ms, pair_ms)
        });
        costs[k] = cost;
        profiles[k] = spans;
    }
    (costs, profiles)
}

/// Runs the load generator in-process (sim or wall clock) and returns its
/// report.
///
/// # Errors
///
/// Propagates workload-mix resolution failures (unknown scenario, empty
/// grid).
pub fn run_loadgen(spec: &LoadSpec) -> Result<LoadReport, String> {
    validate_batch_mode(spec)?;
    let universe = spec.universe()?;
    let keys = spec.sample_keys(universe.len());
    match spec.clock {
        ClockMode::Sim => Ok(run_sim(spec, &universe, &keys, false).0),
        ClockMode::Wall => Ok(run_wall(spec, &universe, &keys, false).0),
    }
}

/// [`run_loadgen`] with telemetry: the same report (sim-clock reports
/// are bit-identical to the untraced run's, down to every latency) plus
/// the run's span stream and a populated per-phase breakdown.
///
/// * `--clock sim`: the discrete-event model records every request as a
///   `request` tree (queue → cache_lookup → build/compile.\* →
///   service/kernel/exchange, plus retry/backoff/degrade events) on the
///   **sim clock** — deterministic, byte-identical across runs, hosts
///   and thread counts.
/// * `--clock wall`: spans are synthesized from each live completion's
///   measured envelope (queue/service under the request root) on the
///   **monotonic clock** — real, not reproducible.
///
/// # Errors
///
/// Propagates workload-mix resolution failures (unknown scenario, empty
/// grid).
pub fn run_loadgen_traced(spec: &LoadSpec) -> Result<(LoadReport, Trace), String> {
    validate_batch_mode(spec)?;
    let universe = spec.universe()?;
    let keys = spec.sample_keys(universe.len());
    let (mut report, trace) = match spec.clock {
        ClockMode::Sim => run_sim(spec, &universe, &keys, true),
        ClockMode::Wall => run_wall(spec, &universe, &keys, true),
    };
    let trace = trace.expect("traced run produces a trace");
    report.phases = phase_totals(&trace);
    if spec.batch.is_some() {
        // Batch orchestration spans sit outside the per-request phase
        // list, so append them explicitly when batching is on.
        for name in ["batch.form", "batch.scatter"] {
            report.phases.push((name.to_string(), trace.total_ms(name)));
        }
    }
    Ok((report, trace))
}

/// Rejects spec combinations the batching layer cannot serve: the batch
/// former keys off open-loop arrival timestamps, so closed-loop runs
/// (which have no arrival clock to age a forming batch against) are a
/// configuration error rather than a silently unbatched run.
fn validate_batch_mode(spec: &LoadSpec) -> Result<(), String> {
    if spec.batch.is_some() && matches!(spec.arrival, ArrivalMode::Closed { .. }) {
        return Err("cross-request batching requires open-loop arrivals (--rate)".to_string());
    }
    Ok(())
}

fn run_sim(
    spec: &LoadSpec,
    universe: &[ServeRequest],
    keys: &[usize],
    traced: bool,
) -> (LoadReport, Option<Trace>) {
    let (costs, profiles) = sim_costs(
        universe,
        keys,
        &spec.opts,
        spec.effective_threads(),
        traced,
        spec.batch.is_some(),
    );
    let params = SimParams {
        workers: spec.workers,
        queue_cap: spec.queue_cap,
        cache_bytes: spec.cache_bytes,
        fault: spec.fault,
        resilience: spec.resilience,
    };
    let at_ms;
    let arrivals = match spec.arrival {
        ArrivalMode::Closed { clients } => Arrivals::Closed { clients },
        ArrivalMode::Open { rate_rps } => {
            at_ms = spec.arrivals(rate_rps);
            Arrivals::Open {
                at_ms: &at_ms,
                batch: spec.batch,
            }
        }
    };
    let spans = traced.then_some(profiles.as_slice());
    let (outcome, trace) = simulate(keys, arrivals, &costs, params, spans);
    let mut latencies = Vec::with_capacity(outcome.records.len());
    let (mut completed, mut errors) = (0u64, 0u64);
    for r in &outcome.records {
        match r.disposition {
            // Shed before execution: no completion, no latency sample.
            SimDisposition::Rejected | SimDisposition::CircuitOpen | SimDisposition::BatchShed => {}
            // Delivered as an error response — mirroring the wall server,
            // where timeouts and crashes complete with `err` lines.
            SimDisposition::Error | SimDisposition::TimedOut | SimDisposition::Crashed => {
                completed += 1;
                errors += 1;
                latencies.push(r.latency_ms);
            }
            SimDisposition::Done(_) => {
                completed += 1;
                latencies.push(r.latency_ms);
            }
        }
    }
    let report = LoadReport::assemble(
        spec,
        "sim",
        universe.len(),
        completed,
        errors,
        outcome.counters,
        outcome.cache,
        outcome.makespan_ms,
        latencies,
    );
    (report, trace)
}

/// One closed-loop step's result (see [`drive_closed_loop`]).
pub(crate) enum Step {
    /// A completion was delivered: `(latency_ms, was_error)`.
    Done(f64, bool),
    /// The request was shed before execution (open breaker / full
    /// queue) — counted by the server, no latency sample.
    Shed,
    /// The server is stopping; retire this worker quietly.
    Retire,
}

/// The shared closed-loop driver: `clients` workers pull stream indices
/// `0..n` from one shared cursor; each worker gets its own state from
/// `setup` (e.g. a TCP connection) and runs `step` per index. `step`
/// returns a [`Step`] describing what happened, or `Err` to fail the
/// whole run (first failure wins). Results come back sorted by stream
/// index.
///
/// Both the in-process wall-clock loadgen and the TCP loadgen ride on
/// this, so their work-distribution and accounting cannot drift apart.
pub(crate) fn drive_closed_loop<S>(
    clients: usize,
    n: usize,
    setup: impl Fn() -> Result<S, String> + Sync,
    step: impl Fn(&mut S, usize) -> Result<Step, String> + Sync,
) -> Result<Vec<(usize, f64, bool)>, String> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let collected: std::sync::Mutex<Vec<(usize, f64, bool)>> = std::sync::Mutex::new(Vec::new());
    let failure: std::sync::Mutex<Option<String>> = std::sync::Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| {
                let mut state = match setup() {
                    Ok(s) => s,
                    Err(msg) => {
                        failure
                            .lock()
                            .expect("failure slot poisoned")
                            .get_or_insert(msg);
                        return;
                    }
                };
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    match step(&mut state, i) {
                        Ok(Step::Done(latency_ms, is_err)) => {
                            collected
                                .lock()
                                .expect("collector poisoned")
                                .push((i, latency_ms, is_err));
                        }
                        Ok(Step::Shed) => {}
                        Ok(Step::Retire) => break,
                        Err(msg) => {
                            failure
                                .lock()
                                .expect("failure slot poisoned")
                                .get_or_insert(msg);
                            break;
                        }
                    }
                }
            });
        }
    });
    if let Some(msg) = failure.into_inner().expect("failure slot poisoned") {
        return Err(msg);
    }
    let mut results = collected.into_inner().expect("collector poisoned");
    results.sort_by_key(|&(i, _, _)| i);
    Ok(results)
}

fn run_wall(
    spec: &LoadSpec,
    universe: &[ServeRequest],
    keys: &[usize],
    traced: bool,
) -> (LoadReport, Option<Trace>) {
    let threads = spec.effective_threads();
    // Traced runs capture each delivered completion with its submission
    // offset (ms since run start) so the span synthesis can rebuild the
    // request timeline; untraced runs never touch this.
    let captured: std::sync::Mutex<Vec<(usize, f64, Completion)>> =
        std::sync::Mutex::new(Vec::new());
    let server = Server::start(ServeConfig {
        workers: if spec.workers == 0 {
            threads
        } else {
            spec.workers
        },
        queue_cap: spec.queue_cap,
        cache_bytes: spec.cache_bytes,
        cache_shards: ServeConfig::default().cache_shards,
        opts: spec.opts.clone(),
        fault: spec.fault,
        resilience: spec.resilience,
        batch: spec.batch,
    });
    let t0 = std::time::Instant::now();
    // (stream index, latency_ms, was_error) per delivered completion.
    let mut results: Vec<(usize, f64, bool)> = Vec::new();
    match spec.arrival {
        ArrivalMode::Closed { clients } => {
            results = drive_closed_loop(
                clients,
                keys.len(),
                || Ok(()),
                |(), i| {
                    let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
                    let rx = match server.submit(universe[keys[i]].clone()) {
                        Ok(rx) => rx,
                        // A typed shed: the stream moves on (the server
                        // counts the shed).
                        Err(e) if e.reject_reason().is_some_and(RejectReason::is_shed) => {
                            return Ok(Step::Shed)
                        }
                        // Submit failures mean the server is stopping:
                        // retire the worker rather than failing the run.
                        Err(_) => return Ok(Step::Retire),
                    };
                    let Ok(done) = rx.recv() else {
                        return Ok(Step::Retire);
                    };
                    if done.reject.is_some_and(RejectReason::is_shed) {
                        return Ok(Step::Shed);
                    }
                    let result = Step::Done(done.latency_ms, done.outcome.is_err());
                    if traced {
                        captured
                            .lock()
                            .expect("capture buffer poisoned")
                            .push((i, submit_ms, done));
                    }
                    Ok(result)
                },
            )
            .expect("in-process setup is infallible");
        }
        ArrivalMode::Open { rate_rps } => {
            // One dispatcher pacing seeded arrivals; a full queue sheds.
            let mut pending = Vec::new();
            for (i, at_ms) in spec.arrivals(rate_rps).into_iter().enumerate() {
                let due = std::time::Duration::from_secs_f64(at_ms / 1e3);
                if let Some(sleep) = due.checked_sub(t0.elapsed()) {
                    std::thread::sleep(sleep);
                }
                let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
                match server.try_submit(universe[keys[i]].clone()) {
                    Ok(rx) => pending.push((i, submit_ms, rx)),
                    Err(SubmitError::ShuttingDown) => break,
                    // Typed sheds are counted by the server.
                    Err(_) => {}
                }
            }
            for (i, submit_ms, rx) in pending {
                // A request shed after acceptance is counted by the
                // server too; it is not a completion.
                let Ok(done) = rx.recv() else { continue };
                if done.reject.is_some_and(RejectReason::is_shed) {
                    continue;
                }
                results.push((i, done.latency_ms, done.outcome.is_err()));
                if traced {
                    captured
                        .lock()
                        .expect("capture buffer poisoned")
                        .push((i, submit_ms, done));
                }
            }
        }
    }
    let makespan_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (counters, cache) = (server.counters(), server.stats().cache);
    server.shutdown();

    results.sort_by_key(|&(i, _, _)| i);
    let errors = results.iter().filter(|&&(_, _, e)| e).count() as u64;
    let latencies: Vec<f64> = results.iter().map(|&(_, l, _)| l).collect();
    let report = LoadReport::assemble(
        spec,
        "wall",
        universe.len(),
        results.len() as u64,
        errors,
        counters,
        cache,
        makespan_ms,
        latencies,
    );
    let trace = traced.then(|| {
        let mut captured = captured.into_inner().expect("capture buffer poisoned");
        wall_trace(&mut captured, universe, keys)
    });
    (report, trace)
}

/// Synthesizes a wall-clock trace from captured completions: one
/// `request` root per delivered completion (in stream order) with its
/// measured `queue`/`service` envelope as children. Wall mode has no
/// per-worker attribution, so every span rides track 0; timestamps are
/// monotonic milliseconds since the run started.
fn wall_trace(
    captured: &mut [(usize, f64, Completion)],
    universe: &[ServeRequest],
    keys: &[usize],
) -> Trace {
    captured.sort_by_key(|&(i, _, _)| i);
    let mut sink = SpanSink::new();
    for (i, submit_ms, done) in captured.iter() {
        let root = sink.reserve();
        sink.record("queue", Some(root), 0, *submit_ms, done.queue_ms, vec![]);
        sink.record(
            "service",
            Some(root),
            0,
            submit_ms + done.queue_ms,
            done.service_ms,
            vec![Attr::str("cache", done.cache.name())],
        );
        let mut attrs = vec![
            Attr::str("key", universe[keys[*i]].config.label()),
            Attr::u64("id", done.id),
        ];
        if done.outcome.is_err() {
            attrs.push(Attr::str("outcome", "error"));
        }
        if done.degraded {
            attrs.push(Attr::str("degraded", "true"));
        }
        if done.retries > 0 {
            attrs.push(Attr::u64("retries", u64::from(done.retries)));
        }
        sink.record_with_id(root, "request", None, 0, *submit_ms, done.latency_ms, attrs);
    }
    sink.finish(ClockDomain::Wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_percentiles() {
        let l: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencySummary::of(&l);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p95_ms, 95.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert!((s.mean_ms - 50.5).abs() < 1e-12);
        assert_eq!(LatencySummary::of(&[]), LatencySummary::default());
        let one = LatencySummary::of(&[7.0]);
        assert_eq!((one.p50_ms, one.p99_ms, one.max_ms), (7.0, 7.0, 7.0));
    }

    #[test]
    fn nearest_rank_edge_cases_are_exact() {
        // Single sample: every percentile is that sample.
        let one = LatencySummary::of(&[3.5]);
        assert_eq!((one.p50_ms, one.p95_ms, one.p99_ms), (3.5, 3.5, 3.5));

        // Even-length median: nearest-rank picks the lower middle
        // (rank ceil(0.5·4) = 2), never an interpolated value.
        let even = LatencySummary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.p50_ms, 2.0);

        // q·n exactly integral: rank q·n itself, not one past it.
        // (The float form is one ulp away from ranking 20th here.)
        let twenty: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let s = LatencySummary::of(&twenty);
        assert_eq!(s.p50_ms, 10.0);
        assert_eq!(s.p95_ms, 19.0);
        assert_eq!(s.p99_ms, 20.0);

        // The class of float failure nearest_rank guards against:
        // 28% of 25 must rank 7th even though 0.28 * 25.0 > 7.0.
        let quarter: Vec<f64> = (1..=25).map(|i| i as f64).collect();
        assert_eq!(LatencySummary::nearest_rank(&quarter, 28), 7.0);
    }

    proptest::proptest! {
        /// Random samples: every reported percentile equals a brute-force
        /// integer-arithmetic nearest-rank reference.
        #[test]
        fn latency_percentiles_match_integer_reference(
            sample in proptest::collection::vec(0.0f64..1e6, 1..300),
        ) {
            let s = LatencySummary::of(&sample);
            let mut sorted = sample.clone();
            sorted.sort_by(f64::total_cmp);
            let reference = |percent: usize| {
                let rank = ((percent * sorted.len()).div_ceil(100)).max(1);
                sorted[rank - 1]
            };
            proptest::prop_assert_eq!(s.p50_ms, reference(50));
            proptest::prop_assert_eq!(s.p95_ms, reference(95));
            proptest::prop_assert_eq!(s.p99_ms, reference(99));
            proptest::prop_assert_eq!(s.max_ms, *sorted.last().expect("non-empty"));
            proptest::prop_assert!(s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms);
        }
    }

    #[test]
    fn sampled_streams_are_seed_deterministic() {
        let spec = LoadSpec::default();
        assert_eq!(spec.sample_keys(18), spec.sample_keys(18));
        let other = LoadSpec {
            seed: 7,
            ..LoadSpec::default()
        };
        assert_ne!(spec.sample_keys(18), other.sample_keys(18));
        let arr = spec.arrivals(500.0);
        assert_eq!(arr.len(), spec.requests);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(arr, spec.arrivals(500.0));
    }

    /// The seeded mix must match the inline reference generators bit
    /// for bit (the serve goldens depend on it).
    #[test]
    fn streams_match_eager_reference_with_constant_memory() {
        let spec = LoadSpec {
            requests: 257,
            ..LoadSpec::default()
        };
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let eager_keys: Vec<usize> = (0..spec.requests).map(|_| rng.gen_range(0..18)).collect();
        let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0xA5A5_5A5A_1234_5678);
        let mut t = 0.0;
        let eager_arrivals: Vec<f64> = (0..spec.requests)
            .map(|_| {
                let u: f64 = rng.gen();
                t += -(1.0 - u).ln() / 500.0f64.max(1e-9) * 1e3;
                t
            })
            .collect();
        assert_eq!(spec.sample_keys(18), eager_keys);
        let arrivals = spec.arrivals(500.0);
        assert_eq!(arrivals.len(), eager_arrivals.len());
        for (a, e) in arrivals.iter().zip(&eager_arrivals) {
            assert_eq!(a.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn batching_rejects_closed_loop_specs() {
        let spec = LoadSpec {
            batch: Some(BatchPolicy::default()),
            ..LoadSpec::default()
        };
        let err = run_loadgen(&spec).unwrap_err();
        assert!(err.contains("open-loop"), "{err}");
        assert!(run_loadgen_traced(&spec).is_err());
    }

    #[test]
    fn batch_summary_average_handles_empty() {
        let none = BatchSummary {
            batches: 0,
            batched_requests: 0,
            shed: 0,
            size_hist: Vec::new(),
        };
        assert_eq!(none.avg_size(), 0.0);
        let some = BatchSummary {
            batches: 4,
            batched_requests: 10,
            shed: 1,
            size_hist: vec![2, 1, 0, 1],
        };
        assert!((some.avg_size() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn unknown_scenarios_are_rejected() {
        let spec = LoadSpec {
            scenario: "no-such-mix".to_string(),
            ..LoadSpec::default()
        };
        let err = spec.universe().unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
        // Static table scenarios have no cells to serve.
        let spec = LoadSpec {
            scenario: "table2".to_string(),
            ..LoadSpec::default()
        };
        assert!(spec.universe().unwrap_err().contains("empty grid"));
    }

    #[test]
    fn batch_groups_never_span_gpus() {
        // A merged Plan is profiled on one device: Cora on 4 SMs and on
        // 32 SMs share a merge class but not a batch group.
        let spec = LoadSpec {
            scenario: "gpusweep".to_string(),
            opts: BenchOpts::golden(),
            ..LoadSpec::default()
        };
        let universe = spec.universe().expect("gpusweep resolves");
        let cora_on = |sms| {
            universe
                .iter()
                .position(|r| {
                    r.config.dataset == gsuite_graph::datasets::Dataset::Cora
                        && r.gpu == gsuite_scenarios::GpuSpec::SimSms(sms)
                })
                .expect("in the sweep")
        };
        let keys = [cora_on(4), cora_on(32)];
        let (costs, _) = sim_costs(&universe, &keys, &spec.opts, 2, false, true);
        let group = |k: usize| costs[k].batch.as_ref().expect("Cora merges").group;
        assert_ne!(group(keys[0]), group(keys[1]));
    }

    #[test]
    fn build_cost_is_monotone_in_bytes() {
        assert!(build_cost_ms(0) > 0.0);
        assert!(build_cost_ms(1 << 20) > build_cost_ms(1 << 10));
    }
}
