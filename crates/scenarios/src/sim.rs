//! The simulated-clock execution model of the serving layer: a
//! deterministic discrete-event simulation — FIFO bounded queue, `W`
//! workers, the byte-accounted LRU cache and request coalescing — over
//! *modeled* service times (the profiled pipeline's own end-to-end
//! milliseconds plus a modeled build cost on cache misses).
//!
//! Everything here is pure `f64` arithmetic over a fixed iteration order:
//! the same request stream always yields the same per-request latencies,
//! the same hit/miss counters and the same eviction sequence, regardless
//! of host, core count or wall time — the property that makes
//! `gsuite-cli loadgen --clock sim` a *reproducible* benchmark rather
//! than a measurement of the load generator's machine.
//!
//! # Fault injection and resilience
//!
//! The simulation optionally executes under a seeded
//! [`FaultPlan`] and a
//! [`ResilienceConfig`]: per-attempt
//! slowdowns, transient failures, worker crashes, eviction storms and
//! degraded-interconnect inflation of the Exchange share, against
//! deadlines (with cooperative cancellation that reclaims the worker at
//! the deadline), bounded retries with seeded jittered backoff, a
//! per-config circuit breaker and graceful degradation (O0 compile
//! fallback, stale-but-valid serves past the soft TTL). The per-request
//! rules come from [`crate::resilience`], which the live server applies
//! too; this clock's own part is a deadline pressure that predicts an
//! overrun of the pending step. Fault draws are
//! keyed on `(seed, request index, attempt)` only, so a faulted run is
//! exactly as replayable as a healthy one. With no plan and an inert
//! config, every code path below is numerically identical to the
//! fault-free model.

//! # Telemetry
//!
//! [`simulate`] with span profiles runs the *same* simulation while
//! emitting a structured span stream on the sim clock
//! ([`gsuite_telemetry::Trace`], [`ClockDomain::Sim`]): one `request`
//! root per request with `queue` / `cache_lookup` / `build`
//! (`compile.{lower,optimize,decorate,schedule}`) / `service`
//! (`kernel`, `exchange`) children plus the resilience events `retry`,
//! `backoff`, `degrade` and `cancelled`. A traced run returns the
//! identical [`SimOutcome`] as an untraced one — tracing is
//! observation, never perturbation — and the span stream is as
//! deterministic as the simulation itself.
//!
//! Compile-phase spans inside a modeled `build` use the documented cost
//! split [`COMPILE_PHASE_SPLIT`]; the degraded O0 fallback path drops
//! the `compile.optimize` span, which by construction makes its build
//! span sum to exactly the `0.5 · build_ms` the simulation charges. A
//! template-served build ([`SimCosts::template`]) renders
//! `compile.{instantiate,schedule}` children instead ([`TEMPLATE_PHASE_SPLIT`]),
//! summing to the `TEMPLATE_BUILD_SHARE · build_ms` it was charged.

use crate::cache::{ByteLru, LruStats};
use crate::resilience::{
    CacheStep, CircuitBreaker, FaultDraw, FaultPlan, RejectReason, ResilienceConfig, ServeCounters,
};
use gsuite_telemetry::{Attr, ClockDomain, SpanId, SpanSink, Trace};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// How the serving layer satisfied a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Graph + pipeline came from the LRU cache.
    Hit,
    /// Graph + pipeline were built for this request (and cached).
    Miss,
    /// The request attached to an identical in-flight execution and
    /// shared its profile run.
    Coalesced,
}

impl CacheDisposition {
    /// Wire-format name (`hit`, `miss`, `coalesced`).
    pub fn name(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Coalesced => "coalesced",
        }
    }
}

impl std::fmt::Display for CacheDisposition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The modeled execution costs of one distinct request configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCosts {
    /// Modeled inference milliseconds (the profile's end-to-end time).
    pub service_ms: f64,
    /// Modeled graph-load + pipeline-build milliseconds paid on a cache
    /// miss.
    pub build_ms: f64,
    /// The interconnect-attributable share of
    /// [`SimCosts::service_ms`] (Exchange transfers on sharded runs;
    /// zero for single-device configs). A degraded-link fault with
    /// factor `f` inflates the attempt by `exchange_ms · (f − 1)`.
    pub exchange_ms: f64,
    /// Cache accounting bytes of the built entry.
    pub bytes: u64,
    /// Plan-template group of this configuration: configurations sharing
    /// a compile shape (same plan modulo the profiling axis) carry the
    /// same group id. After the group's first charged full build, later
    /// misses and refreshes pay only [`TEMPLATE_BUILD_SHARE`] of
    /// `build_ms` — the modeled instantiate + schedule fast path. `None`
    /// (the default everywhere but the load generator) disables the
    /// model and reproduces the historical costs exactly.
    pub template: Option<usize>,
    /// Cross-request batch-merge model of this configuration.
    /// Configurations sharing a [`SimBatch::group`] may be merged by a
    /// batched open-loop run ([`Arrivals::Open`]) into one batched Plan
    /// execution whose inference time is `max(fixed_ms) + Σ marginal_ms`
    /// over the members. `None` (the default everywhere but the batched load
    /// generator) excludes the configuration from merging: it always
    /// dispatches alone, under the full fault/resilience machinery, and
    /// reproduces the historical costs exactly.
    pub batch: Option<SimBatch>,
    /// `Some(msg)` when the configuration cannot build (the request
    /// completes as an error after paying the build cost).
    pub error: Option<String>,
}

/// The two-point cross-request batching cost model of one configuration
/// — see [`SimCosts::batch`]. The invariant `fixed_ms + marginal_ms ==
/// service_ms` makes a merged batch of one member cost exactly its solo
/// service time.
#[derive(Debug, Clone, PartialEq)]
pub struct SimBatch {
    /// Merge-key id: only configurations with equal `group` may share a
    /// batched Plan (the live server's merge key: one
    /// `plan::batchmerge::merge_class` on one GPU).
    pub group: usize,
    /// The batch-invariant share of [`SimCosts::service_ms`] (op
    /// dispatch, framework wrapper overhead): a merged execution pays
    /// it once, as the max over its members.
    pub fixed_ms: f64,
    /// The per-member share of [`SimCosts::service_ms`] (the member's
    /// own rows of the block-diagonal batch): every merged member pays
    /// its own.
    pub marginal_ms: f64,
}

impl SimBatch {
    /// The split of a configuration measured alone and merged with
    /// itself: the pair's extra time, clamped into `[0, alone]`, is the
    /// marginal share, and the rest of `alone_ms` the fixed one.
    pub fn two_point(group: usize, alone_ms: f64, pair_ms: f64) -> SimBatch {
        let marginal_ms = (pair_ms - alone_ms).clamp(0.0, alone_ms);
        SimBatch {
            group,
            fixed_ms: alone_ms - marginal_ms,
            marginal_ms,
        }
    }
}

/// The modeled graph-load + pipeline-build cost charged on a cache miss in
/// sim-clock mode: a flat dispatch term plus ~2 ms per accounted MiB.
pub fn build_cost_ms(bytes: u64) -> f64 {
    0.2 + bytes as f64 / (512.0 * 1024.0)
}

/// Queue/worker/cache parameters of the simulated service, plus the
/// optional fault plan and resilience policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// Simulated worker count.
    pub workers: usize,
    /// Bounded queue depth; arrivals beyond it are shed (open loop only).
    pub queue_cap: usize,
    /// LRU capacity in bytes.
    pub cache_bytes: u64,
    /// Seeded fault injection; `None` runs fault-free.
    pub fault: Option<FaultPlan>,
    /// Deadline/retry/breaker/degradation policy (inert by default).
    pub resilience: ResilienceConfig,
}

impl SimParams {
    /// Fault-free parameters with an inert resilience policy — the
    /// historical simulation model.
    pub fn new(workers: usize, queue_cap: usize, cache_bytes: u64) -> Self {
        SimParams {
            workers,
            queue_cap,
            cache_bytes,
            fault: None,
            resilience: ResilienceConfig::default(),
        }
    }
}

/// The cross-request batch-forming policy of a batched open-loop run
/// ([`Arrivals::Open`]): how many compatible queued requests may merge
/// into one batched Plan, how long the head of a forming batch waits for
/// company, and how many batches may be forming at once before
/// batch-opening arrivals are shed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Maximum members per merged execution; a batch reaching it
    /// dispatches immediately. `1` disables merging entirely — every
    /// request dispatches alone at its own arrival time, reproducing
    /// the unbatched model byte-for-byte.
    pub max_batch: usize,
    /// Milliseconds the *first* member of a forming batch may wait
    /// before the batch dispatches regardless of fill.
    pub max_queue_delay_ms: f64,
    /// Admission bound on concurrently forming batches: an arrival that
    /// would need to *open* a new batch while this many are already
    /// forming is shed ([`SimDisposition::BatchShed`]). Arrivals that
    /// join an existing batch — and unmergeable singleton dispatches —
    /// are never subject to it. `0` means unbounded.
    pub max_backlog: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_queue_delay_ms: 2.0,
            max_backlog: 0,
        }
    }
}

/// What happened to one simulated request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimDisposition {
    /// Completed; how the cache satisfied it.
    Done(CacheDisposition),
    /// Completed as an error response (unbuildable configuration, or an
    /// injected transient failure that exhausted its retries).
    Error,
    /// Shed at arrival: queue full.
    Rejected,
    /// The per-request deadline expired (queued past it, or cancelled
    /// cooperatively mid-attempt).
    TimedOut,
    /// Shed at arrival: the config's circuit breaker was open.
    CircuitOpen,
    /// The executing worker crashed and retries (if any) were exhausted.
    Crashed,
    /// Shed at arrival by the batch former's admission control: the
    /// backlog of open (forming) batches exceeded
    /// [`BatchPolicy::max_backlog`].
    BatchShed,
}

/// One simulated request's timing record.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRecord {
    /// Index into the distinct-configuration table.
    pub key: usize,
    /// Simulated submission time (ms since sim start).
    pub submit_ms: f64,
    /// Milliseconds waited for a worker.
    pub queue_ms: f64,
    /// Milliseconds of (possibly shared) build + inference work.
    pub service_ms: f64,
    /// Submission-to-completion milliseconds (`0` for rejected requests).
    pub latency_ms: f64,
    /// Outcome.
    pub disposition: SimDisposition,
}

/// The full outcome of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// One record per request, in stream order.
    pub records: Vec<SimRecord>,
    /// Cache counters after the run.
    pub cache: LruStats,
    /// Coalescing, shedding, resilience, template and batching counters.
    /// The template counters stay zero when no cost record carries a
    /// template group ([`SimCosts::template`]), the batching counters on
    /// unbatched runs.
    pub counters: ServeCounters,
    /// Last completion time (ms since sim start).
    pub makespan_ms: f64,
}

/// The modeled share of a full build each compile phase accounts for in
/// traced simulations: `lower` / `optimize` / `decorate` / `schedule`.
/// The split is a documented modeling constant (the sim clock has no
/// per-phase measurement); it is chosen so the non-`optimize` phases sum
/// to exactly `0.5` — the degraded O0 fallback's modeled build charge.
pub const COMPILE_PHASE_SPLIT: [(&str, f64); 4] = [
    ("compile.lower", 0.25),
    ("compile.optimize", 0.50),
    ("compile.decorate", 0.10),
    ("compile.schedule", 0.15),
];

/// The modeled share of a full build an instantiate-from-template build
/// charges ([`SimCosts::template`]): lower/optimize/decorate are skipped,
/// leaving the [`TEMPLATE_PHASE_SPLIT`] phases, which sum to exactly this
/// constant.
pub const TEMPLATE_BUILD_SHARE: f64 = 0.25;

/// The modeled share of each *additional* miss member's solo build cost
/// a merged batch build pays: merging K requests lowers and optimizes
/// one block-diagonal Plan, so the merged build is modeled as
/// `max(build_ms) + share · Σ build_ms(others)` rather than the full
/// sum. Once a merged shape (the ordered miss-member key list) has been
/// charged, later identical shapes pay [`TEMPLATE_BUILD_SHARE`] of that
/// — the batched template fast path.
pub const BATCH_MEMBER_BUILD_SHARE: f64 = 0.25;

/// Compile-phase spans of a traced instantiate-from-template build:
/// rebinding the cached plan (`compile.instantiate`) plus the address
/// assignment (`compile.schedule`, same share as in
/// [`COMPILE_PHASE_SPLIT`]). Shares are of the *full* build cost and sum
/// to [`TEMPLATE_BUILD_SHARE`].
pub const TEMPLATE_PHASE_SPLIT: [(&str, f64); 2] =
    [("compile.instantiate", 0.10), ("compile.schedule", 0.15)];

/// One kernel (or exchange) child of a traced `service` span: the
/// modeled per-launch breakdown of a distinct request configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpan {
    /// Table II taxonomy name (`sgemm`, `SpMM`, `exchange`, …).
    pub name: String,
    /// Modeled milliseconds of this launch.
    pub time_ms: f64,
    /// Exchange attribution: `(peer device, transferred bytes)`.
    /// `None` for compute kernels.
    pub exchange: Option<(u64, u64)>,
}

/// Per-configuration launch breakdown used by the traced simulations to
/// render `kernel`/`exchange` children under each `service` span.
/// Configurations without one (or an empty list) trace the service
/// envelope only.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanProfile {
    /// Launches in execution order.
    pub kernels: Vec<KernelSpan>,
}

/// The span recorder of a traced simulation: the sink plus the per-key
/// launch breakdowns. Lives outside [`ServiceSim`]'s numeric state; the
/// simulation never reads it back.
struct SimTracer<'a> {
    sink: SpanSink,
    profiles: &'a [SpanProfile],
}

/// An execution in flight: submitted (at or before the current clock,
/// since requests are fed in nondecreasing submission order), possibly
/// not yet dispatched to a worker.
struct InFlight {
    key: usize,
    start_ms: f64,
    finish_ms: f64,
    /// The worker executing it — coalesced requests' spans render on the
    /// leader's track.
    worker: usize,
    /// Whether this execution completes as an error response (coalesced
    /// requests share the outcome, error or not — exactly like the live
    /// server's shared `Completion`).
    error: bool,
}

/// The simulation core: workers, queue accounting, cache, the coalescing
/// window, and the fault/resilience machinery. Requests are fed one at a
/// time in nondecreasing submission order.
struct ServiceSim<'a> {
    costs: &'a [SimCosts],
    params: SimParams,
    /// Per-worker next-free time.
    worker_free: Vec<f64>,
    /// Executions whose finish time is still ahead of the clock.
    in_flight: Vec<InFlight>,
    /// Cached entries map to their build-completion time (the soft-TTL
    /// clock).
    cache: ByteLru<usize, f64>,
    /// Plan-template groups whose full build has been charged: later
    /// builds of the same group pay only the instantiate share.
    installed_templates: std::collections::HashSet<usize>,
    /// Merged batch shapes (ordered miss-member key lists) whose full
    /// merged build has been charged: later identical shapes pay
    /// [`TEMPLATE_BUILD_SHARE`] of the merged build.
    installed_batch_shapes: std::collections::HashSet<Vec<usize>>,
    /// Per-config breakers, present only when the policy enables them.
    breakers: Option<Vec<CircuitBreaker>>,
    /// The run's counters; `breaker_trips` is summed from `breakers` at
    /// the end.
    counters: ServeCounters,
    makespan_ms: f64,
    /// Span recorder, present only in traced runs. The numeric model
    /// never branches on it.
    tracer: Option<SimTracer<'a>>,
}

impl<'a> ServiceSim<'a> {
    fn new(costs: &'a [SimCosts], params: SimParams, spans: Option<&'a [SpanProfile]>) -> Self {
        let breakers = params
            .resilience
            .breaker
            .map(|cfg| (0..costs.len()).map(|_| CircuitBreaker::new(cfg)).collect());
        ServiceSim {
            costs,
            worker_free: vec![0.0; params.workers.max(1)],
            in_flight: Vec::new(),
            cache: ByteLru::new(params.cache_bytes),
            installed_templates: std::collections::HashSet::new(),
            installed_batch_shapes: std::collections::HashSet::new(),
            breakers,
            counters: ServeCounters::default(),
            makespan_ms: 0.0,
            tracer: spans.map(|profiles| SimTracer {
                sink: SpanSink::new(),
                profiles,
            }),
            params,
        }
    }

    /// The virtual admission lane (Chrome `tid`) for requests shed
    /// before any worker was elected.
    fn admission_track(&self) -> u32 {
        self.params.workers.max(1) as u32
    }

    /// Sheds request `key` at `t` before any work runs (breaker open,
    /// queue full, batch backlog full): counts it, traces a
    /// zero-duration `request` root on the admission lane, and returns
    /// its record.
    fn shed(&mut self, key: usize, t: f64, disposition: SimDisposition) -> SimRecord {
        let (reason, name) = match disposition {
            SimDisposition::CircuitOpen => (RejectReason::CircuitOpen, "circuit-open"),
            SimDisposition::Rejected => (RejectReason::QueueFull, "rejected"),
            SimDisposition::BatchShed => (RejectReason::BatchBacklog, "batch-shed"),
            other => unreachable!("{other:?} is not a shed disposition"),
        };
        self.counters.count_shed(reason);
        let track = self.admission_track();
        if let Some(tr) = self.tracer.as_mut() {
            tr.sink.record(
                "request",
                None,
                track,
                t,
                0.0,
                vec![Attr::u64("key", key as u64), Attr::str("disposition", name)],
            );
        }
        SimRecord {
            key,
            submit_ms: t,
            queue_ms: 0.0,
            service_ms: 0.0,
            latency_ms: 0.0,
            disposition,
        }
    }

    /// Traces one attempt's spans: the `cache_lookup` event, the modeled
    /// `build` (with compile-phase children; the degraded path drops
    /// `compile.optimize`, a template-instantiated build renders
    /// [`TEMPLATE_PHASE_SPLIT`] instead) and the `service` envelope with
    /// its `kernel`/`exchange` children scaled to fill it.
    #[allow(clippy::too_many_arguments)]
    fn trace_attempt(
        &mut self,
        root: SpanId,
        track: u32,
        key: usize,
        attempt_start: f64,
        attempt_ms: f64,
        kind: CacheStep,
        template_hit: bool,
        cost: &SimCosts,
        draw: &FaultDraw,
    ) {
        let Some(tr) = self.tracer.as_mut() else {
            return;
        };
        let result = match kind {
            CacheStep::Hit => "hit",
            CacheStep::Stale => "stale-hit",
            CacheStep::Refresh => "refresh",
            CacheStep::Miss => "miss",
            CacheStep::MissO0 => "miss-degraded",
        };
        tr.sink.record(
            "cache_lookup",
            Some(root),
            track,
            attempt_start,
            0.0,
            vec![Attr::str("result", result)],
        );
        let build_share = step_build_ms(kind, cost, template_hit) * draw.slow_factor;
        let mut cursor = attempt_start;
        if build_share > 0.0 {
            let build = tr.sink.record(
                "build",
                Some(root),
                track,
                cursor,
                build_share,
                if kind == CacheStep::MissO0 {
                    vec![Attr::str("opt", "O0-fallback")]
                } else if template_hit {
                    vec![Attr::str("compile", "instantiate")]
                } else {
                    vec![]
                },
            );
            // Full builds charge build_ms across all four phases; the
            // degraded O0 fallback skips `compile.optimize` (the
            // remaining splits sum to the exact 0.5 · build_ms charged);
            // a template-instantiated build renders instantiate +
            // schedule, summing to the exact 0.25 · build_ms charged.
            let full_build = cost.build_ms * draw.slow_factor;
            let phases: &[(&str, f64)] = if template_hit {
                &TEMPLATE_PHASE_SPLIT
            } else {
                &COMPILE_PHASE_SPLIT
            };
            let mut phase_start = cursor;
            for &(phase, share) in phases {
                if kind == CacheStep::MissO0 && phase == "compile.optimize" {
                    continue;
                }
                let dur = full_build * share;
                tr.sink
                    .record(phase, Some(build), track, phase_start, dur, vec![]);
                phase_start += dur;
            }
            cursor += build_share;
        }
        let service_share = attempt_ms - build_share;
        let mut service_attrs = vec![Attr::f64("modeled_ms", cost.service_ms)];
        if draw.link_factor > 1.0 {
            service_attrs.push(Attr::f64("link_factor", draw.link_factor));
        }
        if draw.slow_factor > 1.0 {
            service_attrs.push(Attr::f64("slow_factor", draw.slow_factor));
        }
        let service = tr.sink.record(
            "service",
            Some(root),
            track,
            cursor,
            service_share,
            service_attrs,
        );
        // Kernel/exchange children laid out sequentially, scaled to fill
        // the service envelope (slow/link inflation spreads evenly; the
        // per-launch modeled_ms attribute keeps the unscaled figure).
        if let Some(profile) = tr.profiles.get(key) {
            let modeled_total: f64 = profile.kernels.iter().map(|k| k.time_ms).sum();
            if modeled_total > 0.0 {
                let scale = service_share / modeled_total;
                let mut k_start = cursor;
                for k in &profile.kernels {
                    let dur = k.time_ms * scale;
                    let mut attrs = vec![
                        Attr::str("kernel", k.name.clone()),
                        Attr::f64("modeled_ms", k.time_ms),
                    ];
                    let name = if let Some((peer, bytes)) = k.exchange {
                        attrs.push(Attr::u64("peer", peer));
                        attrs.push(Attr::u64("bytes", bytes));
                        "exchange"
                    } else {
                        "kernel"
                    };
                    tr.sink
                        .record(name, Some(service), track, k_start, dur, attrs);
                    k_start += dur;
                }
            }
        }
    }

    /// Records a `request` root under a reserved id.
    #[allow(clippy::too_many_arguments)]
    fn trace_root(
        &mut self,
        root: SpanId,
        track: u32,
        key: usize,
        t: f64,
        latency_ms: f64,
        disposition: &str,
        retries: u32,
    ) {
        if let Some(tr) = self.tracer.as_mut() {
            let mut attrs = vec![
                Attr::u64("key", key as u64),
                Attr::u64("worker", track as u64),
                Attr::str("disposition", disposition),
            ];
            if retries > 0 {
                attrs.push(Attr::u64("retries", retries as u64));
            }
            tr.sink
                .record_with_id(root, "request", None, track, t, latency_ms, attrs);
        }
    }

    fn record_breaker(&mut self, key: usize, now_ms: f64, success: bool) {
        if let Some(breakers) = &mut self.breakers {
            breakers[key].record(now_ms, success);
        }
    }

    fn finish(&mut self, record: SimRecord) -> SimRecord {
        self.makespan_ms = self.makespan_ms.max(record.submit_ms + record.latency_ms);
        record
    }

    /// Feeds request number `req` (the fault-draw key) for config `key`
    /// submitted at `t`; returns its record. `reject` enables the
    /// bounded-queue shed path (open loop).
    fn offer(&mut self, req: u64, key: usize, t: f64, reject: bool) -> SimRecord {
        // Retire executions that finished before `t`.
        self.in_flight.retain(|e| e.finish_ms > t);

        // Known-bad-config shed: the breaker is consulted before queueing
        // or coalescing, exactly like the live server's submit path.
        if let Some(breakers) = &mut self.breakers {
            if !breakers[key].admit(t) {
                return self.shed(key, t, SimDisposition::CircuitOpen);
            }
        }

        // Coalescing window: an identical configuration is in flight.
        if let Some(e) = self.in_flight.iter().find(|e| e.key == key) {
            self.counters.coalesced += 1;
            let finish = e.finish_ms;
            let start = e.start_ms;
            let track = e.worker as u32;
            let disposition = if e.error {
                SimDisposition::Error
            } else {
                SimDisposition::Done(CacheDisposition::Coalesced)
            };
            if let Some(tr) = self.tracer.as_mut() {
                // The follower's tree: its own wait plus the shared
                // window of the leader's execution, on the leader's track.
                let root = tr.sink.reserve();
                tr.sink
                    .record("queue", Some(root), track, t, (start - t).max(0.0), vec![]);
                tr.sink.record(
                    "service",
                    Some(root),
                    track,
                    start.max(t),
                    finish - start.max(t),
                    vec![Attr::str("shared", "leader")],
                );
                tr.sink.record_with_id(
                    root,
                    "request",
                    None,
                    track,
                    t,
                    finish - t,
                    vec![
                        Attr::u64("key", key as u64),
                        Attr::u64("worker", track as u64),
                        Attr::str("disposition", if e.error { "error" } else { "coalesced" }),
                    ],
                );
            }
            return self.finish(SimRecord {
                key,
                submit_ms: t,
                queue_ms: (start - t).max(0.0),
                service_ms: finish - start.max(t),
                latency_ms: finish - t,
                disposition,
            });
        }

        // Backpressure: executions not yet started at `t` are the queue.
        if reject {
            let waiting = self.in_flight.iter().filter(|e| e.start_ms > t).count();
            if waiting >= self.params.queue_cap.max(1) {
                return self.shed(key, t, SimDisposition::Rejected);
            }
        }

        // Dispatch to the earliest-free worker (FIFO; ties to the lowest
        // index keep the schedule deterministic).
        let w = min_index(&self.worker_free);
        let start = t.max(self.worker_free[w]);
        let deadline = self.params.resilience.deadline_ms.map(|d| t + d);
        let root = self.tracer.as_mut().map(|tr| tr.sink.reserve());

        // Cooperative cancellation while queued: a request whose worker
        // only frees past the deadline is abandoned before any work runs
        // (the worker is untouched).
        if let Some(dl) = deadline {
            if start >= dl {
                self.counters.resilience.timeouts += 1;
                if let (Some(root), Some(tr)) = (root, self.tracer.as_mut()) {
                    tr.sink
                        .record("queue", Some(root), w as u32, t, dl - t, vec![]);
                    tr.sink.record(
                        "cancelled",
                        Some(root),
                        w as u32,
                        dl,
                        0.0,
                        vec![Attr::str("reason", "queued-past-deadline")],
                    );
                }
                if let Some(root) = root {
                    self.trace_root(root, w as u32, key, t, dl - t, "timeout", 0);
                }
                return self.finish(SimRecord {
                    key,
                    submit_ms: t,
                    queue_ms: dl - t,
                    service_ms: 0.0,
                    latency_ms: dl - t,
                    disposition: SimDisposition::TimedOut,
                });
            }
        }
        if let (Some(root), Some(tr)) = (root, self.tracer.as_mut()) {
            tr.sink
                .record("queue", Some(root), w as u32, t, start - t, vec![]);
        }

        let cost = &self.costs[key];
        let mut clock = start;
        // Attempt k is retry k: the retry count is the attempt index.
        let mut attempt: u32 = 0;
        let mut any_crash = false;
        loop {
            let draw = match &self.params.fault {
                Some(plan) => plan.draw(req, attempt),
                None => FaultDraw::healthy(),
            };
            if draw.evict > 0 {
                self.cache.evict_lru(draw.evict);
            }

            // Unbuildable configurations pay the build (discovery) cost
            // and complete as errors; nothing enters the cache and
            // retries cannot help.
            if cost.error.is_some() {
                self.cache.get(&key);
                let service = cost.build_ms * draw.slow_factor;
                if let Some(dl) = deadline {
                    if clock + service > dl {
                        return self.cancel_at(key, t, start, w, dl, root);
                    }
                }
                if let (Some(root), Some(tr)) = (root, self.tracer.as_mut()) {
                    tr.sink.record(
                        "cache_lookup",
                        Some(root),
                        w as u32,
                        clock,
                        0.0,
                        vec![Attr::str("result", "miss")],
                    );
                    // The discovery build that surfaces the error; no
                    // compile-phase children — lowering rejected it.
                    tr.sink.record(
                        "build",
                        Some(root),
                        w as u32,
                        clock,
                        service,
                        vec![Attr::str("outcome", "error")],
                    );
                }
                clock += service;
                self.worker_free[w] = clock;
                self.in_flight.push(InFlight {
                    key,
                    start_ms: start,
                    finish_ms: clock,
                    worker: w,
                    error: true,
                });
                self.record_breaker(key, clock, false);
                if let Some(root) = root {
                    self.trace_root(root, w as u32, key, t, clock - t, "error", attempt);
                }
                return self.finish(SimRecord {
                    key,
                    submit_ms: t,
                    queue_ms: start - t,
                    service_ms: clock - start,
                    latency_ms: clock - t,
                    disposition: SimDisposition::Error,
                });
            }

            // The attempt's cache interaction and base cost. Degraded
            // interconnect inflates the Exchange share of the service
            // time. A build whose template group is installed pays only
            // the instantiate share of the build cost.
            let service_base = cost.service_ms + cost.exchange_ms * (draw.link_factor - 1.0);
            let template_hit = cost
                .template
                .is_some_and(|g| self.installed_templates.contains(&g));
            let step_ms =
                |step| (step_build_ms(step, cost, template_hit) + service_base) * draw.slow_factor;
            // The shared step rule; this clock's deadline pressure is a
            // predicted overrun of the pending step.
            let age_ms = self.cache.get(&key).map(|&built_at| clock - built_at);
            let kind = self.params.resilience.cache_step(
                age_ms,
                |pending| deadline.is_some_and(|dl| clock + step_ms(pending) > dl),
                || template_hit,
            );
            let attempt_ms = step_ms(kind);
            if let Some(dl) = deadline.filter(|&dl| clock + attempt_ms > dl) {
                return self.cancel_at(key, t, start, w, dl, root);
            }
            let degrade_mode = match kind {
                CacheStep::Stale => Some("stale-serve"),
                CacheStep::MissO0 => Some("o0-fallback"),
                _ => None,
            };
            if let Some(root) = root {
                if let (Some(mode), Some(tr)) = (degrade_mode, self.tracer.as_mut()) {
                    tr.sink.record(
                        "degrade",
                        Some(root),
                        w as u32,
                        clock,
                        0.0,
                        vec![Attr::str("mode", mode)],
                    );
                }
                self.trace_attempt(
                    root,
                    w as u32,
                    key,
                    clock,
                    attempt_ms,
                    kind,
                    template_hit,
                    cost,
                    &draw,
                );
            }
            clock += attempt_ms;
            self.counters.resilience.count_step(kind);
            if let CacheStep::Miss | CacheStep::Refresh = kind {
                self.cache.insert(key, clock, cost.bytes);
                // The charged build installs the shape's template
                // (mirroring the live server, the insert survives a
                // later loss of the attempt's result).
                if let Some(g) = cost.template {
                    if template_hit {
                        self.counters.tpl_hits += 1;
                    } else {
                        self.counters.tpl_misses += 1;
                    }
                    self.installed_templates.insert(g);
                }
            }

            // Injected failures: the attempt's work is lost; retry with
            // seeded jittered backoff while the policy allows.
            if draw.crash || draw.transient {
                if draw.crash {
                    self.counters.resilience.crashed += 1;
                    any_crash = true;
                }
                let cause = if draw.crash { "crash" } else { "transient" };
                let plan = self.params.fault.as_ref();
                if let Some(backoff) = self.params.resilience.retry_after_ms(plan, req, attempt) {
                    self.counters.resilience.retries += 1;
                    if let (Some(root), Some(tr)) = (root, self.tracer.as_mut()) {
                        tr.sink.record(
                            "retry",
                            Some(root),
                            w as u32,
                            clock,
                            0.0,
                            vec![
                                Attr::u64("attempt", (attempt + 1) as u64),
                                Attr::str("cause", cause),
                            ],
                        );
                        tr.sink
                            .record("backoff", Some(root), w as u32, clock, backoff, vec![]);
                    }
                    clock += backoff;
                    attempt += 1;
                    continue;
                }
                self.worker_free[w] = clock;
                self.in_flight.push(InFlight {
                    key,
                    start_ms: start,
                    finish_ms: clock,
                    worker: w,
                    error: true,
                });
                self.record_breaker(key, clock, false);
                let disposition = if any_crash {
                    SimDisposition::Crashed
                } else {
                    SimDisposition::Error
                };
                if let Some(root) = root {
                    let name = if any_crash { "crashed" } else { "error" };
                    self.trace_root(root, w as u32, key, t, clock - t, name, attempt);
                }
                return self.finish(SimRecord {
                    key,
                    submit_ms: t,
                    queue_ms: start - t,
                    service_ms: clock - start,
                    latency_ms: clock - t,
                    disposition,
                });
            }

            // Success.
            self.worker_free[w] = clock;
            self.in_flight.push(InFlight {
                key,
                start_ms: start,
                finish_ms: clock,
                worker: w,
                error: false,
            });
            self.record_breaker(key, clock, true);
            let cached = kind.disposition();
            if let Some(root) = root {
                self.trace_root(root, w as u32, key, t, clock - t, cached.name(), attempt);
            }
            return self.finish(SimRecord {
                key,
                submit_ms: t,
                queue_ms: start - t,
                service_ms: clock - start,
                latency_ms: clock - t,
                disposition: SimDisposition::Done(cached),
            });
        }
    }

    /// Cooperative mid-attempt cancellation: the worker is reclaimed at
    /// the deadline (the next plan-phase checkpoint observes the expired
    /// budget) and the config's breaker records a failure.
    fn cancel_at(
        &mut self,
        key: usize,
        t: f64,
        start: f64,
        w: usize,
        dl: f64,
        root: Option<SpanId>,
    ) -> SimRecord {
        self.worker_free[w] = dl;
        self.counters.resilience.timeouts += 1;
        self.record_breaker(key, dl, false);
        if let Some(root) = root {
            if let Some(tr) = self.tracer.as_mut() {
                tr.sink.record(
                    "cancelled",
                    Some(root),
                    w as u32,
                    dl,
                    0.0,
                    vec![Attr::str("reason", "deadline")],
                );
            }
            self.trace_root(root, w as u32, key, t, dl - t, "timeout", 0);
        }
        self.finish(SimRecord {
            key,
            submit_ms: t,
            queue_ms: start - t,
            service_ms: dl - start,
            latency_ms: dl - t,
            disposition: SimDisposition::TimedOut,
        })
    }

    /// The run's outcome, plus its span stream when traced.
    fn into_outcome(mut self, records: Vec<SimRecord>) -> (SimOutcome, Option<Trace>) {
        self.counters.resilience.breaker_trips = self
            .breakers
            .as_ref()
            .map_or(0, |bs| bs.iter().map(CircuitBreaker::trips).sum());
        let outcome = SimOutcome {
            records,
            cache: self.cache.stats(),
            counters: self.counters,
            makespan_ms: self.makespan_ms,
        };
        let trace = self.tracer.map(|tr| tr.sink.finish(ClockDomain::Sim));
        (outcome, trace)
    }

    /// Executes a formed batch of `k ≥ 2` members as **one** merged
    /// Plan: one worker election, one amortized merged build over the
    /// leader members ([`BATCH_MEMBER_BUILD_SHARE`]; the instantiate
    /// share once the merged shape is installed), `max(fixed) +
    /// Σ marginal` inference, then per-member scatter of records.
    ///
    /// The merged path models the *healthy* fast path exactly like the
    /// wall server's: fault draws, deadlines, retries and circuit
    /// breakers apply only to singleton dispatches (and to admission,
    /// in the former), and the pipeline LRU is **skipped entirely** —
    /// a merged batch compiles its own combined plan whether or not
    /// member pipelines are cached, so cache counters never move here.
    /// Duplicate keys inside one batch coalesce onto their first
    /// occurrence, and every leader key is left in flight so later solo
    /// arrivals can coalesce onto the merged execution.
    fn offer_merged(&mut self, batch: &FormedBatch) -> Vec<SimRecord> {
        let t = batch.dispatch_ms;
        self.in_flight.retain(|e| e.finish_ms > t);

        // Backpressure sheds the batch as a unit: its members were
        // admitted by the former, but the execution queue is full.
        let waiting = self.in_flight.iter().filter(|e| e.start_ms > t).count();
        if waiting >= self.params.queue_cap.max(1) {
            return batch
                .members
                .iter()
                .map(|m| self.shed(m.key, m.at_ms, SimDisposition::Rejected))
                .collect();
        }

        let w = min_index(&self.worker_free);
        let start = t.max(self.worker_free[w]);
        // First occurrence of each key leads; duplicates coalesce onto
        // their leader exactly like the in-flight window.
        let mut leaders: Vec<usize> = Vec::with_capacity(batch.members.len());
        let is_leader: Vec<bool> = batch
            .members
            .iter()
            .map(|m| {
                if leaders.contains(&m.key) {
                    false
                } else {
                    leaders.push(m.key);
                    true
                }
            })
            .collect();

        // One merged execution: the leaders share one amortized build
        // and one fixed-plus-marginals inference envelope — the LRU is
        // never consulted, exactly like the wall server's merged path.
        let mut fixed_max: f64 = 0.0;
        let mut marginal_sum = 0.0;
        let mut build_max: f64 = 0.0;
        let mut build_sum = 0.0;
        for &key in &leaders {
            let cost = &self.costs[key];
            let b = cost
                .batch
                .as_ref()
                .expect("merged members carry a batch cost model");
            fixed_max = fixed_max.max(b.fixed_ms);
            marginal_sum += b.marginal_ms;
            build_max = build_max.max(cost.build_ms);
            build_sum += cost.build_ms;
        }
        let mut batch_build = build_max + BATCH_MEMBER_BUILD_SHARE * (build_sum - build_max);
        if self.installed_batch_shapes.contains(&leaders) {
            batch_build *= TEMPLATE_BUILD_SHARE;
            self.counters.tpl_hits += 1;
        } else {
            self.counters.tpl_misses += 1;
            self.installed_batch_shapes.insert(leaders.clone());
        }
        let duration = batch_build + fixed_max + marginal_sum;
        let finish = start + duration;

        for (m, &lead) in batch.members.iter().zip(&is_leader) {
            if lead {
                self.in_flight.push(InFlight {
                    key: m.key,
                    start_ms: start,
                    finish_ms: finish,
                    worker: w,
                    error: false,
                });
            }
        }
        self.worker_free[w] = finish;

        let track = w as u32;
        let size = batch.members.len() as u64;
        if let Some(tr) = self.tracer.as_mut() {
            tr.sink.record(
                "batch.form",
                None,
                track,
                batch.head_ms,
                t - batch.head_ms,
                vec![Attr::u64("size", size)],
            );
        }
        let mut records = Vec::with_capacity(batch.members.len());
        for (m, &lead) in batch.members.iter().zip(&is_leader) {
            let disposition = if lead {
                SimDisposition::Done(CacheDisposition::Miss)
            } else {
                self.counters.coalesced += 1;
                SimDisposition::Done(CacheDisposition::Coalesced)
            };
            if let Some(tr) = self.tracer.as_mut() {
                let name = match disposition {
                    SimDisposition::Done(d) => d.name(),
                    _ => unreachable!("merged members always complete"),
                };
                let root = tr.sink.reserve();
                tr.sink
                    .record("queue", Some(root), track, m.at_ms, start - m.at_ms, vec![]);
                tr.sink.record(
                    "service",
                    Some(root),
                    track,
                    start,
                    duration,
                    vec![Attr::str("shared", "batch")],
                );
                tr.sink.record_with_id(
                    root,
                    "request",
                    None,
                    track,
                    m.at_ms,
                    finish - m.at_ms,
                    vec![
                        Attr::u64("key", m.key as u64),
                        Attr::u64("worker", track as u64),
                        Attr::str("disposition", name),
                    ],
                );
            }
            records.push(self.finish(SimRecord {
                key: m.key,
                submit_ms: m.at_ms,
                queue_ms: start - m.at_ms,
                service_ms: duration,
                latency_ms: finish - m.at_ms,
                disposition,
            }));
        }
        if let Some(tr) = self.tracer.as_mut() {
            tr.sink.record(
                "batch.scatter",
                None,
                track,
                finish,
                0.0,
                vec![Attr::u64("size", size)],
            );
        }
        records
    }

    /// Feeds an open-loop stream through a [`BatchFormer`] under
    /// `policy`, then executes its decisions in order: backlog sheds,
    /// singleton dispatches on the solo path ([`ServiceSim::offer`]) and
    /// merged batches on [`ServiceSim::offer_merged`]. Records come back
    /// in stream order.
    fn offer_batched(
        &mut self,
        keys: &[usize],
        at_ms: &[f64],
        policy: BatchPolicy,
    ) -> Vec<SimRecord> {
        // The former never reads simulation state, so its whole decision
        // stream can be formed before any of it executes.
        let mut former = BatchFormer::new(policy);
        let mut events = Vec::new();
        for (i, (&key, &t)) in keys.iter().zip(at_ms).enumerate() {
            let cost = &self.costs[key];
            // Unbuildable configurations keep their solo error path (and
            // never waste a merged execution).
            let group = match cost.error {
                Some(_) => None,
                None => cost.batch.as_ref().map(|b| b.group),
            };
            let arrival = BatchArrival {
                index: i as u64,
                key,
                group,
                at_ms: t,
            };
            former.offer(arrival, &mut |e| events.push(e));
        }
        former.flush(&mut |e| events.push(e));

        let mut slots: Vec<Option<SimRecord>> = vec![None; keys.len()];
        for event in events {
            let b = match event {
                FormerEvent::Shed(a) => {
                    let r = self.shed(a.key, a.at_ms, SimDisposition::BatchShed);
                    slots[a.index as usize] = Some(r);
                    continue;
                }
                FormerEvent::Dispatch(b) => b,
            };
            self.counters.count_batch(b.members.len());
            if b.members.len() == 1 {
                // The full solo machinery, dispatched at the former's
                // release; time spent forming counts as queueing (a zero
                // wait leaves the record — and the max_batch=1
                // differential — untouched).
                let m = &b.members[0];
                let mut r = self.offer(m.index, m.key, b.dispatch_ms, true);
                let wait = b.dispatch_ms - m.at_ms;
                if wait > 0.0 {
                    r.submit_ms = m.at_ms;
                    r.queue_ms += wait;
                    r.latency_ms += wait;
                }
                slots[m.index as usize] = Some(r);
            } else {
                let records = self.offer_merged(&b);
                for (m, r) in b.members.iter().zip(records) {
                    slots[m.index as usize] = Some(r);
                }
            }
        }
        slots
            .into_iter()
            .map(|r| r.expect("every arrival resolves in exactly one event"))
            .collect()
    }
}

/// How a simulated run's requests arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals<'a> {
    /// **Open loop**: request `i` is submitted at `at_ms[i]` regardless
    /// of completions; a full queue sheds arrivals.
    ///
    /// With a `batch` policy the stream first passes through a
    /// [`BatchFormer`]. Dispatched singletons execute like unbatched
    /// requests — the full fault/resilience/template/cache machinery —
    /// at their dispatch time, with the former wait folded into their
    /// queue time. Merged batches (k ≥ 2) execute the modeled healthy
    /// fast path: one worker, one amortized merged build,
    /// `max(fixed) + Σ marginal` inference, per-member scatter. With
    /// `max_batch == 1` the outcome is **byte-identical** to the
    /// unbatched run apart from the batch counters.
    Open {
        /// Submission times in ms, one per request, nondecreasing.
        at_ms: &'a [f64],
        /// Cross-request batch forming; `None` serves every request
        /// alone.
        batch: Option<BatchPolicy>,
    },
    /// **Closed loop**: `clients` clients share the request stream; each
    /// submits its next request the moment its previous one completes
    /// (zero think time). The queue never exceeds the client count, so
    /// nothing is shed.
    Closed {
        /// Concurrent clients.
        clients: usize,
    },
}

/// Simulates one run: request `i` asks for distinct configuration
/// `keys[i]` (an index into `costs`) and arrives as `arrivals` says.
///
/// With `spans`, the run also records its sim-clock span stream (one
/// `request` tree per request) and returns it next to the identical
/// [`SimOutcome`]. `spans` supplies the per-key `kernel`/`exchange`
/// breakdown of each `service` span; pass `Some(&[])` to trace envelopes
/// only. Merged batches add a `batch.form` span on the worker track (the
/// forming window), one `request` root per member sharing the batch
/// `service` envelope, and a zero-duration `batch.scatter` marker at
/// completion.
///
/// # Panics
///
/// Panics if open-loop `keys` and `at_ms` differ in length or the
/// arrivals are not nondecreasing.
pub fn simulate(
    keys: &[usize],
    arrivals: Arrivals<'_>,
    costs: &[SimCosts],
    params: SimParams,
    spans: Option<&[SpanProfile]>,
) -> (SimOutcome, Option<Trace>) {
    let mut sim = ServiceSim::new(costs, params, spans);
    let records = match arrivals {
        Arrivals::Closed { clients } => {
            let mut available: Vec<f64> = vec![0.0; clients.max(1)];
            keys.iter()
                .enumerate()
                .map(|(i, &key)| {
                    let c = min_index(&available);
                    let record = sim.offer(i as u64, key, available[c], false);
                    available[c] += record.latency_ms.max(0.0);
                    record
                })
                .collect()
        }
        Arrivals::Open { at_ms, batch } => {
            assert_eq!(keys.len(), at_ms.len(), "one arrival per request");
            assert!(
                at_ms.windows(2).all(|w| w[0] <= w[1]),
                "arrivals must be nondecreasing"
            );
            match batch {
                Some(policy) => sim.offer_batched(keys, at_ms, policy),
                None => keys
                    .iter()
                    .zip(at_ms)
                    .enumerate()
                    .map(|(i, (&key, &t))| sim.offer(i as u64, key, t, true))
                    .collect(),
            }
        }
    };
    sim.into_outcome(records)
}

/// One request offered to the [`BatchFormer`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchArrival {
    /// Original request-stream index (also the fault-draw key).
    pub index: u64,
    /// Distinct-configuration index.
    pub key: usize,
    /// Merge-class id ([`SimBatch::group`]). `None` never merges: the
    /// arrival dispatches as an immediate singleton, bypassing both
    /// forming and the backlog bound.
    pub group: Option<usize>,
    /// Arrival time (ms since sim start).
    pub at_ms: f64,
}

/// A batch the [`BatchFormer`] decided to dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct FormedBatch {
    /// When the batch leaves the former: the arrival that filled it, or
    /// its head's arrival plus [`BatchPolicy::max_queue_delay_ms`].
    pub dispatch_ms: f64,
    /// The first member's arrival time.
    pub head_ms: f64,
    /// Members in arrival order (completion scatter preserves this
    /// FIFO-within-batch order).
    pub members: Vec<BatchArrival>,
}

/// What the [`BatchFormer`] emits while consuming an arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub enum FormerEvent {
    /// A batch dispatched: by fill, by the head's delay budget
    /// expiring, or by [`BatchFormer::flush`].
    Dispatch(FormedBatch),
    /// An arrival shed by the backlog bound
    /// ([`BatchPolicy::max_backlog`]).
    Shed(BatchArrival),
}

/// The pure, streaming cross-request batch former: arrivals and timer
/// ticks go in (in nondecreasing time order), dispatch and shed
/// decisions come out. Both serving clocks drive this one former, in
/// front of their queue: the DES with its arrival stream, the live
/// server with its submissions. It holds only the currently forming
/// batches — `O(max_backlog)` or `O(live merge classes)` state, never
/// the arrival history — so a million-request stream forms batches in
/// bounded memory.
///
/// Guarantees, for any arrival sequence and policy (property-tested
/// against a brute-force reference in `tests/batchserve.rs`):
///
/// - no batch exceeds [`BatchPolicy::max_batch`] members;
/// - no batch dispatches later than `head arrival +
///   max_queue_delay_ms` (no request starves in the former);
/// - members dispatch in arrival order within their batch, and the
///   emitted event stream is nondecreasing in time — an expiry that
///   ties an arrival dispatches *first*, without the arrival;
/// - every arrival resolves in exactly one event (a dispatch
///   membership, or a shed).
///
/// Formation is key-agnostic: duplicate keys consume member slots like
/// any other arrival (both clocks coalesce them at execution).
pub struct BatchFormer {
    policy: BatchPolicy,
    /// Forming batches in head-arrival order; heads — and therefore
    /// expiry deadlines — are nondecreasing.
    open: Vec<OpenBatch>,
}

struct OpenBatch {
    head_ms: f64,
    group: usize,
    members: Vec<BatchArrival>,
}

impl BatchFormer {
    /// An empty former under `policy`.
    pub fn new(policy: BatchPolicy) -> Self {
        BatchFormer {
            policy,
            open: Vec::new(),
        }
    }

    /// When the oldest forming batch's delay budget runs out — the next
    /// time [`BatchFormer::expire`] has work — or `None` with nothing
    /// forming.
    pub fn next_expiry(&self) -> Option<f64> {
        let delay = self.policy.max_queue_delay_ms;
        self.open.first().map(|b| b.head_ms + delay)
    }

    /// A timer tick at `now_ms` (nondecreasing, like arrivals): every
    /// batch whose delay budget ran out by then dispatches, oldest head
    /// first.
    pub fn expire(&mut self, now_ms: f64, emit: &mut dyn FnMut(FormerEvent)) {
        let delay = self.policy.max_queue_delay_ms;
        // Expired batches form a prefix (heads are nondecreasing).
        while self
            .open
            .first()
            .is_some_and(|b| b.head_ms + delay <= now_ms)
        {
            let b = self.open.remove(0);
            emit(FormerEvent::Dispatch(FormedBatch {
                dispatch_ms: b.head_ms + delay,
                head_ms: b.head_ms,
                members: b.members,
            }));
        }
    }

    /// Feeds the next arrival (nondecreasing `at_ms`), emitting any
    /// batches whose delay budget expired first, then the arrival's own
    /// resolution if it has one now.
    pub fn offer(&mut self, arrival: BatchArrival, emit: &mut dyn FnMut(FormerEvent)) {
        // A tie dispatches without the arrival: the timer fired first.
        self.expire(arrival.at_ms, emit);
        let singleton = |a: BatchArrival| {
            let t = a.at_ms;
            FormerEvent::Dispatch(FormedBatch {
                dispatch_ms: t,
                head_ms: t,
                members: vec![a],
            })
        };
        let Some(group) = arrival.group else {
            // Unmergeable configurations bypass forming entirely.
            emit(singleton(arrival));
            return;
        };
        // Join the oldest forming batch of the same class (all open
        // batches are non-full by construction).
        if let Some(i) = self.open.iter().position(|b| b.group == group) {
            self.open[i].members.push(arrival);
            if self.open[i].members.len() >= self.policy.max_batch {
                let b = self.open.remove(i);
                let filled_at = b.members.last().expect("non-empty batch").at_ms;
                emit(FormerEvent::Dispatch(FormedBatch {
                    dispatch_ms: filled_at,
                    head_ms: b.head_ms,
                    members: b.members,
                }));
            }
            return;
        }
        // Opening a new batch is what the backlog bound controls.
        if self.policy.max_backlog > 0 && self.open.len() >= self.policy.max_backlog {
            emit(FormerEvent::Shed(arrival));
            return;
        }
        if self.policy.max_batch <= 1 {
            emit(singleton(arrival));
            return;
        }
        self.open.push(OpenBatch {
            head_ms: arrival.at_ms,
            group,
            members: vec![arrival],
        });
    }

    /// Ends the stream: every still-forming batch dispatches at its
    /// head's delay deadline, in head order.
    pub fn flush(&mut self, emit: &mut dyn FnMut(FormerEvent)) {
        let delay = self.policy.max_queue_delay_ms;
        for b in self.open.drain(..) {
            emit(FormerEvent::Dispatch(FormedBatch {
                dispatch_ms: b.head_ms + delay,
                head_ms: b.head_ms,
                members: b.members,
            }));
        }
    }
}

/// A seeded open-loop request stream for the sim-clock scenarios
/// (`chaos`, `servebatch`): `requests` keys drawn uniformly from
/// `0..universe`, arriving with gaps jittered uniformly over
/// `[0.5, 1.5) · gap_ms`. Pure arithmetic — no transcendentals — so the
/// stream is bit-stable across hosts.
pub(crate) fn jittered_stream(
    seed: u64,
    requests: usize,
    universe: usize,
    gap_ms: f64,
) -> (Vec<usize>, Vec<f64>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..requests)
        .map(|_| {
            let key = rng.gen_range(0..universe);
            t += gap_ms * (0.5 + rng.gen::<f64>());
            (key, t)
        })
        .unzip()
}

/// The per-run tallies the sim-clock scenarios report.
pub(crate) struct Tally {
    pub ok: usize,
    pub err: usize,
    pub shed: usize,
    pub timeouts: usize,
    pub goodput_rps: f64,
    pub p99_ms: f64,
    /// Fraction of all requests that completed within the SLO.
    pub slo: f64,
    /// Fraction of all requests that completed successfully.
    pub availability: f64,
}

/// Tallies one simulated run against a latency SLO. `p99_ms` is the
/// 0-based rank `ceil((n − 1) · 0.99)` over the successful latencies.
pub(crate) fn tally(out: &SimOutcome, slo_ms: f64) -> Tally {
    let total = out.records.len().max(1);
    let mut ok = 0usize;
    let mut err = 0usize;
    let mut shed = 0usize;
    let mut timeouts = 0usize;
    let mut within_slo = 0usize;
    let mut ok_latencies: Vec<f64> = Vec::new();
    for r in &out.records {
        match r.disposition {
            SimDisposition::Done(_) => {
                ok += 1;
                ok_latencies.push(r.latency_ms);
                if r.latency_ms <= slo_ms {
                    within_slo += 1;
                }
            }
            SimDisposition::Error | SimDisposition::Crashed => err += 1,
            SimDisposition::Rejected | SimDisposition::CircuitOpen | SimDisposition::BatchShed => {
                shed += 1
            }
            SimDisposition::TimedOut => timeouts += 1,
        }
    }
    ok_latencies.sort_by(|a, b| a.total_cmp(b));
    let p99_ms = if ok_latencies.is_empty() {
        0.0
    } else {
        let rank = ((ok_latencies.len() - 1) as f64 * 0.99).ceil() as usize;
        ok_latencies[rank]
    };
    Tally {
        ok,
        err,
        shed,
        timeouts,
        goodput_rps: if out.makespan_ms > 0.0 {
            ok as f64 / out.makespan_ms * 1000.0
        } else {
            0.0
        },
        p99_ms,
        slo: within_slo as f64 / total as f64,
        availability: ok as f64 / total as f64,
    }
}

/// The modeled build milliseconds of one cache step: none on a hit or a
/// stale serve, the full build on a miss or refresh ([`TEMPLATE_BUILD_SHARE`]
/// of it once the template group is installed), and half the full build
/// for the O0 fallback.
fn step_build_ms(step: CacheStep, cost: &SimCosts, template_hit: bool) -> f64 {
    match step {
        CacheStep::Hit | CacheStep::Stale => 0.0,
        CacheStep::Miss | CacheStep::Refresh if template_hit => {
            TEMPLATE_BUILD_SHARE * cost.build_ms
        }
        CacheStep::Miss | CacheStep::Refresh => cost.build_ms,
        CacheStep::MissO0 => 0.5 * cost.build_ms,
    }
}

/// Index of the minimum element (first on ties) — worker/client election.
fn min_index(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x < xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{BatchSummary, BreakerConfig, FaultSpec, RetryPolicy};

    fn costs(n: usize, service: f64, build: f64, bytes: u64) -> Vec<SimCosts> {
        (0..n)
            .map(|_| SimCosts {
                service_ms: service,
                build_ms: build,
                exchange_ms: 0.0,
                bytes,
                template: None,
                batch: None,
                error: None,
            })
            .collect()
    }

    fn params(workers: usize, queue: usize, cache: u64) -> SimParams {
        SimParams::new(workers, queue, cache)
    }

    /// An untraced open-loop run.
    fn open(keys: &[usize], at_ms: &[f64], costs: &[SimCosts], p: SimParams) -> SimOutcome {
        simulate(keys, Arrivals::Open { at_ms, batch: None }, costs, p, None).0
    }

    /// An untraced batched open-loop run.
    fn batched(
        keys: &[usize],
        at_ms: &[f64],
        costs: &[SimCosts],
        p: SimParams,
        policy: BatchPolicy,
    ) -> SimOutcome {
        let batch = Some(policy);
        simulate(keys, Arrivals::Open { at_ms, batch }, costs, p, None).0
    }

    /// An untraced closed-loop run.
    fn closed(keys: &[usize], clients: usize, costs: &[SimCosts], p: SimParams) -> SimOutcome {
        simulate(keys, Arrivals::Closed { clients }, costs, p, None).0
    }

    /// A traced run: the outcome plus its span stream.
    fn traced(
        keys: &[usize],
        arrivals: Arrivals<'_>,
        costs: &[SimCosts],
        p: SimParams,
        spans: &[SpanProfile],
    ) -> (SimOutcome, Trace) {
        let (out, trace) = simulate(keys, arrivals, costs, p, Some(spans));
        (out, trace.expect("traced runs return their span stream"))
    }

    #[test]
    fn single_worker_serializes_and_caches() {
        let costs = costs(1, 10.0, 5.0, 100);
        // Same key three times, back-to-back arrivals after completion.
        let out = open(&[0, 0, 0], &[0.0, 20.0, 40.0], &costs, params(1, 4, 1000));
        // First: miss (build + service = 15), later: hits (10 each).
        assert_eq!(out.records[0].latency_ms, 15.0);
        assert_eq!(out.records[1].latency_ms, 10.0);
        assert_eq!(out.records[2].latency_ms, 10.0);
        assert_eq!(out.cache.hits, 2);
        assert_eq!(out.cache.misses, 1);
        assert_eq!(out.counters.coalesced, 0);
    }

    #[test]
    fn template_groups_pay_the_instantiate_share_after_first_build() {
        // Two distinct keys sharing one template group: the first miss
        // pays the full build, the second only the instantiate share.
        let mut costs = costs(2, 10.0, 8.0, 100);
        costs[0].template = Some(0);
        costs[1].template = Some(0);
        let out = open(&[0, 1], &[0.0, 20.0], &costs, params(1, 4, 1000));
        assert_eq!(out.records[0].latency_ms, 18.0, "full build + service");
        assert_eq!(
            out.records[1].latency_ms,
            10.0 + TEMPLATE_BUILD_SHARE * 8.0,
            "instantiate share + service"
        );
        assert_eq!((out.counters.tpl_misses, out.counters.tpl_hits), (1, 1));

        // `template: None` reproduces the historical costs exactly.
        let plain = costs_plain(&costs);
        let legacy = open(&[0, 1], &[0.0, 20.0], &plain, params(1, 4, 1000));
        assert_eq!(legacy.records[1].latency_ms, 18.0);
        assert_eq!(
            (legacy.counters.tpl_misses, legacy.counters.tpl_hits),
            (0, 0)
        );
    }

    fn costs_plain(costs: &[SimCosts]) -> Vec<SimCosts> {
        costs
            .iter()
            .map(|c| SimCosts {
                template: None,
                ..c.clone()
            })
            .collect()
    }

    #[test]
    fn overlapping_identical_requests_coalesce() {
        let costs = costs(1, 10.0, 5.0, 100);
        // Second arrives while the first is still executing.
        let out = open(&[0, 0], &[0.0, 3.0], &costs, params(2, 4, 1000));
        assert_eq!(out.counters.coalesced, 1);
        assert_eq!(out.records[1].latency_ms, 12.0); // finishes at 15, arrived at 3
        assert_eq!(
            out.records[1].disposition,
            SimDisposition::Done(CacheDisposition::Coalesced)
        );
        // Only one real execution touched the cache.
        assert_eq!(out.cache.misses, 1);
        assert_eq!(out.cache.hits, 0);
    }

    #[test]
    fn bounded_queue_sheds_bursts() {
        let costs = costs(3, 100.0, 0.0, 1);
        // Three distinct configs at t=0 on one worker with queue depth 1:
        // first executes, second waits, third is shed.
        let out = open(&[0, 1, 2], &[0.0, 0.0, 0.0], &costs, params(1, 1, 1000));
        assert_eq!(out.counters.rejected, 1);
        assert_eq!(out.records[2].disposition, SimDisposition::Rejected);
        assert_eq!(out.records[1].queue_ms, 100.0);
    }

    #[test]
    fn eviction_follows_lru_under_pressure() {
        // Cache fits two of three equally sized entries.
        let costs = costs(3, 1.0, 1.0, 100);
        let keys = [0, 1, 2, 0]; // 0 evicted by 2's insertion, so the last 0 misses again
        let arrivals = [0.0, 10.0, 20.0, 30.0];
        let out = open(&keys, &arrivals, &costs, params(1, 4, 200));
        assert_eq!(out.cache.misses, 4);
        assert_eq!(out.cache.evictions, 2);
        assert_eq!(out.cache.hits, 0);
    }

    #[test]
    fn closed_loop_keeps_clients_busy() {
        let costs = costs(2, 10.0, 0.0, 1);
        let keys = [0, 1, 0, 1, 0, 1];
        let out = closed(&keys, 2, &costs, params(2, 8, 1000));
        assert_eq!(out.counters.rejected, 0);
        // Two clients, two workers, 10 ms each, 6 requests => 30 ms.
        assert_eq!(out.makespan_ms, 30.0);
        assert!(out.records.iter().all(|r| r.queue_ms == 0.0));
    }

    #[test]
    fn error_configs_complete_as_errors() {
        let mut c = costs(2, 10.0, 5.0, 100);
        c[1].error = Some("unsupported".to_string());
        let out = open(&[1, 1], &[0.0, 100.0], &c, params(1, 4, 1000));
        assert!(out
            .records
            .iter()
            .all(|r| r.disposition == SimDisposition::Error));
        // Errors never enter the cache: both pay the build cost.
        assert_eq!(out.records[0].latency_ms, 5.0);
        assert_eq!(out.records[1].latency_ms, 5.0);
        assert_eq!(out.cache.entries, 0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let costs = costs(4, 3.0, 1.5, 64);
        let keys: Vec<usize> = (0..40).map(|i| i % 4).collect();
        let arrivals: Vec<f64> = (0..40).map(|i| i as f64 * 0.75).collect();
        let a = open(&keys, &arrivals, &costs, params(3, 8, 128));
        let b = open(&keys, &arrivals, &costs, params(3, 8, 128));
        assert_eq!(a, b);
        let c = closed(&keys, 5, &costs, params(3, 8, 128));
        let d = closed(&keys, 5, &costs, params(3, 8, 128));
        assert_eq!(c, d);
    }

    #[test]
    fn faulted_runs_replay_byte_identically() {
        let costs = costs(4, 3.0, 1.5, 64);
        let keys: Vec<usize> = (0..60).map(|i| i % 4).collect();
        let arrivals: Vec<f64> = (0..60).map(|i| i as f64 * 1.25).collect();
        let p = SimParams {
            fault: Some(FaultPlan::mixed(9, 0.3)),
            resilience: ResilienceConfig {
                deadline_ms: Some(40.0),
                retry: RetryPolicy::retries(2),
                breaker: Some(BreakerConfig::default()),
                degrade: true,
                stale_ttl_ms: Some(20.0),
            },
            ..params(2, 8, 256)
        };
        let a = open(&keys, &arrivals, &costs, p);
        let b = open(&keys, &arrivals, &costs, p);
        assert_eq!(a, b);
        // The fault mix actually fired something.
        assert!(
            a.counters.resilience.retries
                + a.counters.resilience.timeouts
                + a.counters.resilience.crashed
                > 0
        );
    }

    #[test]
    fn transient_faults_retry_then_fail() {
        let costs = costs(1, 10.0, 0.0, 1);
        let always_transient = FaultPlan {
            seed: 1,
            spec: FaultSpec {
                transient_rate: 1.0,
                ..FaultSpec::none()
            },
        };
        let p = SimParams {
            fault: Some(always_transient),
            resilience: ResilienceConfig {
                retry: RetryPolicy {
                    max_retries: 2,
                    base_ms: 4.0,
                    cap_ms: 50.0,
                },
                ..ResilienceConfig::default()
            },
            ..params(1, 4, 100)
        };
        let out = open(&[0], &[0.0], &costs, p);
        assert_eq!(out.records[0].disposition, SimDisposition::Error);
        assert_eq!(out.counters.resilience.retries, 2, "both retries spent");
        // 3 attempts x 10 ms plus two jittered backoffs in [2, 4) + [4, 8).
        assert!(out.records[0].latency_ms > 30.0);
        assert!(out.records[0].latency_ms < 42.0);
    }

    #[test]
    fn crashes_surface_as_crashed_and_are_retryable() {
        let costs = costs(1, 10.0, 0.0, 1);
        let always_crash = FaultPlan {
            seed: 5,
            spec: FaultSpec {
                crash_rate: 1.0,
                ..FaultSpec::none()
            },
        };
        let no_retry = SimParams {
            fault: Some(always_crash),
            ..params(1, 4, 100)
        };
        let out = open(&[0], &[0.0], &costs, no_retry);
        assert_eq!(out.records[0].disposition, SimDisposition::Crashed);
        assert_eq!(out.counters.resilience.crashed, 1);
        let with_retry = SimParams {
            resilience: ResilienceConfig {
                retry: RetryPolicy::retries(3),
                ..ResilienceConfig::default()
            },
            ..no_retry
        };
        let out = open(&[0], &[0.0], &costs, with_retry);
        assert_eq!(
            out.counters.resilience.crashed, 4,
            "initial attempt + 3 retries all crash"
        );
        assert_eq!(out.records[0].disposition, SimDisposition::Crashed);
    }

    #[test]
    fn deadlines_cancel_cooperatively_and_free_the_worker() {
        let costs = costs(2, 100.0, 0.0, 1);
        let p = SimParams {
            resilience: ResilienceConfig {
                deadline_ms: Some(50.0),
                ..ResilienceConfig::default()
            },
            ..params(1, 4, 100)
        };
        let out = open(&[0, 1], &[0.0, 10.0], &costs, p);
        assert_eq!(out.records[0].disposition, SimDisposition::TimedOut);
        assert_eq!(out.records[0].latency_ms, 50.0);
        assert_eq!(out.counters.resilience.timeouts, 2);
        // The worker was reclaimed at t=50, so the second request starts
        // there — and times out at its own deadline (10 + 50).
        assert_eq!(out.records[1].queue_ms, 40.0);
        assert_eq!(out.records[1].latency_ms, 50.0);
    }

    #[test]
    fn breaker_sheds_known_bad_configs() {
        let mut c = costs(1, 1.0, 1.0, 1);
        c[0].error = Some("always fails".to_string());
        let p = SimParams {
            resilience: ResilienceConfig {
                breaker: Some(BreakerConfig {
                    window: 4,
                    min_samples: 4,
                    fail_threshold: 0.5,
                    cooldown_ms: 1000.0,
                    half_open_probes: 1,
                }),
                ..ResilienceConfig::default()
            },
            ..params(1, 8, 100)
        };
        let keys = vec![0usize; 8];
        let arrivals: Vec<f64> = (0..8).map(|i| i as f64 * 10.0).collect();
        let out = open(&keys, &arrivals, &c, p);
        assert_eq!(out.counters.resilience.breaker_trips, 1);
        assert_eq!(
            out.counters.resilience.circuit_open, 4,
            "after 4 failures the rest are shed"
        );
        assert!(out.records[7].disposition == SimDisposition::CircuitOpen);
    }

    #[test]
    fn degradation_falls_back_to_o0_when_the_build_misses_the_deadline() {
        // build 20 + service 10 = 30 > deadline 25, but the O0 fallback
        // (10 + 10 = 20) fits.
        let costs = costs(1, 10.0, 20.0, 5);
        let degrade = SimParams {
            resilience: ResilienceConfig {
                deadline_ms: Some(25.0),
                degrade: true,
                ..ResilienceConfig::default()
            },
            ..params(1, 4, 100)
        };
        let out = open(&[0, 0], &[0.0, 100.0], &costs, degrade);
        assert_eq!(
            out.records[0].disposition,
            SimDisposition::Done(CacheDisposition::Miss)
        );
        assert_eq!(out.records[0].latency_ms, 20.0);
        // Degraded builds are not cached: the second request degrades too.
        assert_eq!(out.cache.entries, 0);
        assert_eq!(out.counters.resilience.degraded, 2);
        assert_eq!(out.counters.resilience.timeouts, 0);

        // Refresh past the soft TTL happens in line when the budget
        // allows it.
        let warm = SimParams {
            resilience: ResilienceConfig {
                deadline_ms: Some(200.0),
                degrade: true,
                stale_ttl_ms: Some(50.0),
                ..ResilienceConfig::default()
            },
            ..params(1, 4, 100)
        };
        let out = open(&[0, 0], &[0.0, 100.0], &costs, warm);
        // Entry built at t=30; at t=100 it is 70 ms old (> 50 TTL) and the
        // refresh (30 ms) fits the 200 ms deadline: refreshed in line.
        assert_eq!(out.counters.resilience.stale_serves, 0);
        assert_eq!(out.records[1].latency_ms, 30.0);
        assert_eq!(out.cache.hits, 1);
        assert_eq!(out.cache.insertions, 2, "the refresh re-inserts");
    }

    #[test]
    fn stale_entries_serve_under_pressure() {
        // Occupy the worker with a second config so the refresh budget
        // runs out while the stale serve still fits.
        let mut c = costs(1, 10.0, 20.0, 5);
        c.push(SimCosts {
            service_ms: 25.0,
            build_ms: 0.0,
            exchange_ms: 0.0,
            bytes: 1,
            template: None,
            batch: None,
            error: None,
        });
        let p = SimParams {
            resilience: ResilienceConfig {
                deadline_ms: Some(35.0),
                degrade: true,
                stale_ttl_ms: Some(50.0),
                ..ResilienceConfig::default()
            },
            ..params(1, 4, 100)
        };
        // t=0: build+serve config 0 (finish 30). t=90: config 1 occupies
        // the worker until 115. t=100: config 0 again — dispatches at
        // 115, budget left is 20 ms (deadline 135): the 30 ms refresh
        // does not fit, the 10 ms stale serve does.
        let out = open(&[0, 1, 0], &[0.0, 90.0, 100.0], &c, p);
        assert_eq!(out.counters.resilience.stale_serves, 1);
        assert_eq!(
            out.records[2].disposition,
            SimDisposition::Done(CacheDisposition::Hit)
        );
        assert_eq!(out.records[2].latency_ms, 25.0); // 15 queued + 10 served
        assert_eq!(out.counters.resilience.timeouts, 0);
    }

    #[test]
    fn degraded_links_inflate_the_exchange_share_only() {
        let mut c = costs(1, 10.0, 0.0, 1);
        c[0].exchange_ms = 2.0;
        let always_link = FaultPlan {
            seed: 2,
            spec: FaultSpec {
                link_rate: 1.0,
                link_factor: 4.0,
                ..FaultSpec::none()
            },
        };
        let p = SimParams {
            fault: Some(always_link),
            ..params(1, 4, 100)
        };
        let out = open(&[0], &[0.0], &c, p);
        // service 10 + exchange 2 x (4 - 1) = 16.
        assert_eq!(out.records[0].latency_ms, 16.0);
    }

    #[test]
    fn traced_runs_return_the_identical_outcome() {
        let costs = costs(4, 3.0, 1.5, 64);
        let keys: Vec<usize> = (0..60).map(|i| i % 4).collect();
        let arrivals: Vec<f64> = (0..60).map(|i| i as f64 * 1.25).collect();
        let p = SimParams {
            fault: Some(FaultPlan::mixed(9, 0.3)),
            resilience: ResilienceConfig {
                deadline_ms: Some(40.0),
                retry: RetryPolicy::retries(2),
                breaker: Some(BreakerConfig::default()),
                degrade: true,
                stale_ttl_ms: Some(20.0),
            },
            ..params(2, 8, 256)
        };
        let plain = open(&keys, &arrivals, &costs, p);
        let arrivals = Arrivals::Open {
            at_ms: &arrivals,
            batch: None,
        };
        let (out, trace) = traced(&keys, arrivals, &costs, p, &[]);
        assert_eq!(plain, out, "tracing must never perturb the model");
        assert_eq!(trace.root_count(), keys.len(), "one request root each");
        let closed_loop = Arrivals::Closed { clients: 5 };
        let (closed_out, closed_trace) = traced(&keys, closed_loop, &costs, params(3, 8, 128), &[]);
        assert_eq!(closed_out, closed(&keys, 5, &costs, params(3, 8, 128)));
        assert_eq!(closed_trace.root_count(), keys.len());
    }

    #[test]
    fn traced_span_stream_is_byte_identical_across_runs() {
        let costs = costs(3, 2.0, 1.0, 32);
        let keys: Vec<usize> = (0..30).map(|i| i % 3).collect();
        let arrivals: Vec<f64> = (0..30).map(|i| i as f64 * 0.5).collect();
        let profiles: Vec<SpanProfile> = (0..3)
            .map(|i| SpanProfile {
                kernels: vec![
                    KernelSpan {
                        name: "sgemm".to_string(),
                        time_ms: 1.25,
                        exchange: None,
                    },
                    KernelSpan {
                        name: "exchange".to_string(),
                        time_ms: 0.75,
                        exchange: Some((i as u64, 4096)),
                    },
                ],
            })
            .collect();
        let p = SimParams {
            fault: Some(FaultPlan::mixed(7, 0.25)),
            resilience: ResilienceConfig {
                deadline_ms: Some(25.0),
                retry: RetryPolicy::retries(1),
                degrade: true,
                ..ResilienceConfig::default()
            },
            ..params(2, 4, 128)
        };
        let arrivals = Arrivals::Open {
            at_ms: &arrivals,
            batch: None,
        };
        let (_, a) = traced(&keys, arrivals, &costs, p, &profiles);
        let (_, b) = traced(&keys, arrivals, &costs, p, &profiles);
        assert_eq!(a.to_chrome_json(), b.to_chrome_json());
        assert_eq!(a.render_tree(), b.render_tree());
        gsuite_telemetry::json::validate(&a.to_chrome_json()).expect("valid chrome JSON");
        // The taxonomy shows up: kernels, exchanges, builds with the
        // compile-phase split.
        for name in ["request", "queue", "cache_lookup", "build", "service"] {
            assert!(a.spans.iter().any(|s| s.name == name), "missing {name}");
        }
        assert!(a.spans.iter().any(|s| s.name == "compile.optimize"));
        assert!(a.spans.iter().any(|s| s.name == "exchange"));
    }

    #[test]
    fn degraded_builds_drop_the_optimize_span_and_sum_to_half() {
        // build 20 + service 10 > deadline 25 forces the O0 fallback.
        let costs = costs(1, 10.0, 20.0, 5);
        let degrade = SimParams {
            resilience: ResilienceConfig {
                deadline_ms: Some(25.0),
                degrade: true,
                ..ResilienceConfig::default()
            },
            ..params(1, 4, 100)
        };
        let arrivals = Arrivals::Open {
            at_ms: &[0.0],
            batch: None,
        };
        let (out, trace) = traced(&[0], arrivals, &costs, degrade, &[]);
        assert_eq!(out.counters.resilience.degraded, 1);
        assert!(trace.spans.iter().any(|s| s.name == "degrade"));
        let build: Vec<_> = trace.spans.iter().filter(|s| s.name == "build").collect();
        assert_eq!(build.len(), 1);
        assert_eq!(build[0].dur_ms, 10.0, "0.5 x build_ms");
        assert!(!trace.spans.iter().any(|s| s.name == "compile.optimize"));
        // The remaining phases tile the degraded build exactly.
        let phases: f64 = trace
            .spans
            .iter()
            .filter(|s| s.name.starts_with("compile."))
            .map(|s| s.dur_ms)
            .sum();
        assert!((phases - 10.0).abs() < 1e-9, "{phases}");
    }

    #[test]
    fn eviction_storms_drop_cached_entries() {
        let costs = costs(2, 1.0, 1.0, 10);
        let always_evict = FaultPlan {
            seed: 3,
            spec: FaultSpec {
                evict_rate: 1.0,
                evict_n: 8,
                ..FaultSpec::none()
            },
        };
        let p = SimParams {
            fault: Some(always_evict),
            ..params(1, 4, 1000)
        };
        // Every attempt's storm clears the cache first: all misses.
        let out = open(&[0, 0, 0], &[0.0, 10.0, 20.0], &costs, p);
        assert_eq!(out.cache.hits, 0);
        assert_eq!(out.cache.misses, 3);
        assert_eq!(out.cache.evictions, 2, "two cached entries were stormed");
    }

    /// Collects everything a former emits for an arrival sequence.
    fn form(policy: BatchPolicy, arrivals: &[(usize, Option<usize>, f64)]) -> Vec<FormerEvent> {
        let mut former = BatchFormer::new(policy);
        let mut events = Vec::new();
        for (i, &(key, group, at_ms)) in arrivals.iter().enumerate() {
            former.offer(
                BatchArrival {
                    index: i as u64,
                    key,
                    group,
                    at_ms,
                },
                &mut |e| events.push(e),
            );
        }
        former.flush(&mut |e| events.push(e));
        events
    }

    fn dispatched(events: &[FormerEvent]) -> Vec<(f64, Vec<u64>)> {
        events
            .iter()
            .filter_map(|e| match e {
                FormerEvent::Dispatch(b) => {
                    Some((b.dispatch_ms, b.members.iter().map(|m| m.index).collect()))
                }
                FormerEvent::Shed(_) => None,
            })
            .collect()
    }

    #[test]
    fn former_dispatches_on_fill_and_on_delay() {
        let policy = BatchPolicy {
            max_batch: 2,
            max_queue_delay_ms: 5.0,
            max_backlog: 0,
        };
        let g = Some(0);
        // 0 and 1 fill a batch at t=1; 2 waits out its delay.
        let events = form(policy, &[(0, g, 0.0), (1, g, 1.0), (2, g, 2.0)]);
        assert_eq!(dispatched(&events), vec![(1.0, vec![0, 1]), (7.0, vec![2])]);

        // An arrival landing exactly on the head's deadline does not
        // join: the timer fires first.
        let events = form(policy, &[(0, g, 0.0), (1, g, 5.0)]);
        assert_eq!(dispatched(&events), vec![(5.0, vec![0]), (10.0, vec![1])]);

        // max_batch=1 never forms: immediate singletons at arrival.
        let one = BatchPolicy {
            max_batch: 1,
            ..policy
        };
        let events = form(one, &[(0, g, 0.0), (1, g, 0.5)]);
        assert_eq!(dispatched(&events), vec![(0.0, vec![0]), (0.5, vec![1])]);
    }

    #[test]
    fn former_backlog_sheds_only_batch_opening_arrivals() {
        let policy = BatchPolicy {
            max_batch: 4,
            max_queue_delay_ms: 100.0,
            max_backlog: 1,
        };
        // 0 opens the only allowed batch; 1 (a new class) is shed; 2
        // joins 0's batch; 3 (unmergeable) bypasses the bound.
        let events = form(
            policy,
            &[
                (0, Some(0), 0.0),
                (1, Some(1), 1.0),
                (2, Some(0), 2.0),
                (3, None, 3.0),
            ],
        );
        assert!(matches!(&events[0], FormerEvent::Shed(a) if a.index == 1));
        assert_eq!(
            dispatched(&events),
            vec![(3.0, vec![3]), (100.0, vec![0, 2])]
        );
    }

    #[test]
    fn batched_with_max_batch_one_is_byte_identical_to_unbatched() {
        // Batch metadata present on every cost, full fault/resilience
        // machinery active: max_batch=1 must reduce to the unbatched run
        // exactly (the differential anchor of the batched model).
        let mut costs = costs(4, 3.0, 1.5, 64);
        for (i, c) in costs.iter_mut().enumerate() {
            c.template = Some(i % 2);
            c.batch = Some(SimBatch {
                group: i % 2,
                fixed_ms: 2.0,
                marginal_ms: 1.0,
            });
        }
        let keys: Vec<usize> = (0..60).map(|i| i % 4).collect();
        let arrivals: Vec<f64> = (0..60).map(|i| i as f64 * 1.25).collect();
        let p = SimParams {
            fault: Some(FaultPlan::mixed(9, 0.3)),
            resilience: ResilienceConfig {
                deadline_ms: Some(40.0),
                retry: RetryPolicy::retries(2),
                breaker: Some(BreakerConfig::default()),
                degrade: true,
                stale_ttl_ms: Some(20.0),
            },
            ..params(2, 8, 256)
        };
        let unbatched = open(&keys, &arrivals, &costs, p);
        let policy = BatchPolicy {
            max_batch: 1,
            max_queue_delay_ms: 4.0,
            max_backlog: 2,
        };
        let batched = batched(&keys, &arrivals, &costs, p, policy);
        assert_eq!(batched.counters.batch.batches, 60);
        assert_eq!(batched.counters.batch.batched_requests, 60);
        assert_eq!(batched.counters.batch.size_hist, vec![60]);
        assert_eq!(batched.counters.batch.shed, 0);
        let mut stripped = batched.clone();
        stripped.counters.batch = BatchSummary::default();
        assert_eq!(
            stripped, unbatched,
            "max_batch=1 must reproduce the unbatched run"
        );
    }

    #[test]
    fn merged_batches_amortize_fixed_and_build_costs() {
        // Two distinct keys of one merge class; a cache too small to
        // hold anything keeps every request on the miss path.
        let costs: Vec<SimCosts> = (0..2)
            .map(|_| SimCosts {
                service_ms: 10.0,
                build_ms: 4.0,
                exchange_ms: 0.0,
                bytes: 100,
                template: None,
                batch: Some(SimBatch {
                    group: 0,
                    fixed_ms: 8.0,
                    marginal_ms: 2.0,
                }),
                error: None,
            })
            .collect();
        let policy = BatchPolicy {
            max_batch: 2,
            max_queue_delay_ms: 5.0,
            max_backlog: 0,
        };
        let keys = [0, 1, 0, 1];
        let arrivals = [0.0, 0.5, 100.0, 100.5];
        let out = batched(&keys, &arrivals, &costs, params(2, 8, 1), policy);
        // First pair: filled at 0.5; merged build = 4 + 0.25·4 = 5,
        // inference = max(8, 8) + 2 + 2 = 12; finish = 17.5.
        assert_eq!(out.records[0].latency_ms, 17.5);
        assert_eq!(out.records[1].latency_ms, 17.0);
        assert_eq!(
            out.records[0].disposition,
            SimDisposition::Done(CacheDisposition::Miss)
        );
        // Second identical pair: the merged shape [0, 1] is installed,
        // so the build drops to the instantiate share (5 · 0.25 =
        // 1.25); finish = 100.5 + 13.25.
        assert_eq!(out.records[2].latency_ms, 13.75);
        assert_eq!((out.counters.tpl_misses, out.counters.tpl_hits), (1, 1));
        assert_eq!(out.counters.batch.batches, 2);
        assert_eq!(out.counters.batch.batched_requests, 4);
        assert_eq!(out.counters.batch.size_hist, vec![0, 2]);

        // The same stream unbatched keeps full per-request costs: the
        // merged run strictly beats it on makespan.
        let unbatched = open(&keys, &arrivals, &costs, params(2, 8, 1));
        assert!(out.makespan_ms < unbatched.makespan_ms);
    }

    #[test]
    fn batch_backlog_sheds_and_unmergeable_requests_bypass_forming() {
        let mut costs = costs(3, 10.0, 4.0, 10);
        costs[0].batch = Some(SimBatch {
            group: 0,
            fixed_ms: 8.0,
            marginal_ms: 2.0,
        });
        costs[1].batch = Some(SimBatch {
            group: 1,
            fixed_ms: 8.0,
            marginal_ms: 2.0,
        });
        let policy = BatchPolicy {
            max_batch: 4,
            max_queue_delay_ms: 100.0,
            max_backlog: 1,
        };
        let out = batched(
            &[0, 1, 2],
            &[0.0, 1.0, 2.0],
            &costs,
            params(2, 8, 1000),
            policy,
        );
        // 0 opens the only allowed batch; 1 is shed; 2 (no batch
        // model) dispatches immediately as a plain miss.
        assert_eq!(out.records[1].disposition, SimDisposition::BatchShed);
        assert_eq!(out.records[1].latency_ms, 0.0);
        assert_eq!(out.counters.batch.shed, 1);
        assert_eq!(out.records[2].submit_ms, 2.0);
        assert_eq!(out.records[2].latency_ms, 14.0);
        // 0's lonely batch dispatches as a singleton at its deadline;
        // the forming wait counts as queue time.
        assert_eq!(out.records[0].submit_ms, 0.0);
        assert_eq!(out.records[0].queue_ms, 100.0);
        assert_eq!(out.records[0].latency_ms, 114.0);
        assert_eq!(out.counters.batch.batches, 2);
    }

    #[test]
    fn later_arrivals_coalesce_onto_merged_executions() {
        let costs: Vec<SimCosts> = (0..2)
            .map(|_| SimCosts {
                service_ms: 10.0,
                build_ms: 4.0,
                exchange_ms: 0.0,
                bytes: 100,
                template: None,
                batch: Some(SimBatch {
                    group: 0,
                    fixed_ms: 8.0,
                    marginal_ms: 2.0,
                }),
                error: None,
            })
            .collect();
        let policy = BatchPolicy {
            max_batch: 2,
            max_queue_delay_ms: 1.0,
            max_backlog: 0,
        };
        // 0 and 1 merge (dispatch at 0.5, finish 17.5); a second key-0
        // request at t=3 finds the merged execution in flight and
        // coalesces onto it rather than re-executing.
        let out = batched(
            &[0, 1, 0],
            &[0.0, 0.5, 3.0],
            &costs,
            params(2, 8, 1000),
            policy,
        );
        assert_eq!(out.counters.coalesced, 1);
        assert_eq!(
            out.records[2].disposition,
            SimDisposition::Done(CacheDisposition::Coalesced)
        );
        assert_eq!(out.records[2].latency_ms, 14.5, "finishes with the batch");
    }

    #[test]
    fn traced_batched_runs_match_and_emit_batch_spans() {
        let mut costs = costs(4, 3.0, 1.5, 64);
        for c in costs.iter_mut() {
            c.batch = Some(SimBatch {
                group: 0,
                fixed_ms: 2.0,
                marginal_ms: 1.0,
            });
        }
        let keys: Vec<usize> = (0..40).map(|i| i % 4).collect();
        let arrivals: Vec<f64> = (0..40).map(|i| i as f64 * 0.6).collect();
        let policy = BatchPolicy {
            max_batch: 4,
            max_queue_delay_ms: 2.0,
            max_backlog: 0,
        };
        let p = params(2, 8, 256);
        let plain = batched(&keys, &arrivals, &costs, p, policy);
        let arrivals = Arrivals::Open {
            at_ms: &arrivals,
            batch: Some(policy),
        };
        let (out, a) = traced(&keys, arrivals, &costs, p, &[]);
        assert_eq!(plain, out, "tracing must never perturb the model");
        assert!(
            plain.counters.batch.size_hist.len() > 1,
            "some real merging happened"
        );
        let (_, b) = traced(&keys, arrivals, &costs, p, &[]);
        assert_eq!(a.to_chrome_json(), b.to_chrome_json());
        gsuite_telemetry::json::validate(&a.to_chrome_json()).expect("valid chrome JSON");
        for name in ["batch.form", "batch.scatter", "request", "service"] {
            assert!(a.spans.iter().any(|s| s.name == name), "missing {name}");
        }
    }
}
