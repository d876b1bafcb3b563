//! Deterministic fault injection and resilience policy primitives.
//!
//! The serving layer's failure semantics are built from four pieces that
//! all live here so the batch `chaos` scenario, the sim-clock load
//! generator and the live threaded server share one implementation:
//!
//! * [`FaultPlan`] — a seeded, declarative fault model. Every fault
//!   decision for `(request, attempt)` is drawn from a [`FaultRng`]
//!   keyed on `(seed, request, attempt)` alone, so draws are independent
//!   of thread interleaving and wall-clock timing: the same plan replays
//!   **byte-identically** under the sim clock and
//!   identically-in-distribution under the wall clock.
//! * [`RetryPolicy`] — bounded retries with seeded, jittered exponential
//!   backoff.
//! * [`CircuitBreaker`] — a per-config closed/open/half-open state
//!   machine over a sliding failure-rate window, driven by an explicit
//!   `now_ms` so the sim and wall clocks share the transition logic.
//! * [`RejectReason`] — the typed reject taxonomy surfaced as distinct
//!   protocol response codes.
//!
//! The per-request rules that use them live here too, once for both
//! serving clocks: [`ResilienceConfig::cache_step`] picks an attempt's
//! cache step (stale serve, refresh, O0 fallback),
//! [`ResilienceConfig::retry_after_ms`] the backoff before a retry, and
//! [`ResilienceSummary`] holds the counters. It sits inside
//! [`ServeCounters`], the one set of serving counters both clocks keep,
//! with the shed and batch counting rules ([`ServeCounters::count_shed`],
//! [`ServeCounters::count_batch`]). Each clock supplies only what is
//! clock-shaped: its deadline-pressure test, how it enforces a deadline,
//! how time passes and how a crash happens.
//!
//! All policy defaults are **inert**: a default [`ResilienceConfig`] with
//! no [`FaultPlan`] leaves every fault-free code path bit-identical to a
//! build without this module.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::sim::CacheDisposition;

/// Finalizes one splitmix64 mixing round (the standard finalizer used by
/// the vendored `SmallRng` seeding path as well).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded generator behind every fault decision: a `SmallRng` whose
/// seed mixes `(plan seed, request index, attempt)` through splitmix64,
/// so each `(request, attempt)` pair owns an independent, reproducible
/// stream regardless of scheduling order.
#[derive(Debug, Clone)]
pub struct FaultRng(SmallRng);

impl FaultRng {
    /// The generator for one `(request, attempt)` pair under `seed`.
    pub fn for_attempt(seed: u64, request: u64, attempt: u32) -> Self {
        let mixed = splitmix64(
            seed ^ splitmix64(request.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ splitmix64(u64::from(attempt).wrapping_mul(0xD134_2543_DE82_EF95)),
        );
        FaultRng(SmallRng::seed_from_u64(mixed))
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.0.gen::<f64>()
    }
}

/// The declarative fault mix: independent per-attempt probabilities for
/// each fault class, plus their severity knobs. All rates default to
/// zero (no faults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability that an attempt runs slowed by [`FaultSpec::slow_factor`].
    pub slow_rate: f64,
    /// Service-time multiplier for slowed attempts (≥ 1).
    pub slow_factor: f64,
    /// Probability that an attempt fails transiently (retryable).
    pub transient_rate: f64,
    /// Probability that the worker executing the attempt "crashes"
    /// (panic-unwind on the wall path; a lost, retryable attempt in the
    /// sim).
    pub crash_rate: f64,
    /// Probability of an eviction storm before the attempt's cache
    /// lookup: the [`FaultSpec::evict_n`] least-recently-used entries are
    /// poisoned and dropped.
    pub evict_rate: f64,
    /// Entries dropped per eviction storm.
    pub evict_n: usize,
    /// Probability that the attempt observes a degraded interconnect.
    pub link_rate: f64,
    /// α/β inflation factor for degraded-link attempts: latency is
    /// multiplied and bandwidth divided by this factor (≥ 1).
    pub link_factor: f64,
}

impl FaultSpec {
    /// No faults at all.
    pub fn none() -> Self {
        FaultSpec {
            slow_rate: 0.0,
            slow_factor: 1.0,
            transient_rate: 0.0,
            crash_rate: 0.0,
            evict_rate: 0.0,
            evict_n: 0,
            link_rate: 0.0,
            link_factor: 1.0,
        }
    }

    /// The canonical chaos mix at overall intensity `rate` ∈ [0, 1]:
    /// slowdowns are the most common fault, transient failures next,
    /// crashes and eviction storms rare, and every sharded attempt at
    /// this intensity sees some interconnect degradation.
    pub fn mixed(rate: f64) -> Self {
        FaultSpec {
            slow_rate: rate,
            slow_factor: 8.0,
            transient_rate: rate * 0.5,
            crash_rate: rate * 0.2,
            evict_rate: rate * 0.25,
            evict_n: 4,
            link_rate: rate,
            link_factor: 4.0,
        }
    }

    /// True when every rate is zero (the plan cannot fire).
    pub fn is_none(&self) -> bool {
        self.slow_rate == 0.0
            && self.transient_rate == 0.0
            && self.crash_rate == 0.0
            && self.evict_rate == 0.0
            && self.link_rate == 0.0
    }
}

/// A seeded fault model: `(seed, spec)` fully determines the fault drawn
/// for every `(request, attempt)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// The fault seed (independent of the workload seed).
    pub seed: u64,
    /// The fault mix.
    pub spec: FaultSpec,
}

/// The concrete faults one attempt experiences, fully determined by
/// `(plan, request, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultDraw {
    /// Service-time multiplier (1.0 = healthy).
    pub slow_factor: f64,
    /// The attempt fails transiently after doing its work.
    pub transient: bool,
    /// The worker crashes mid-attempt.
    pub crash: bool,
    /// LRU entries to drop before the attempt's cache lookup.
    pub evict: usize,
    /// Interconnect α/β inflation for the attempt (1.0 = healthy).
    pub link_factor: f64,
}

impl FaultDraw {
    /// A fault-free draw.
    pub fn healthy() -> Self {
        FaultDraw {
            slow_factor: 1.0,
            transient: false,
            crash: false,
            evict: 0,
            link_factor: 1.0,
        }
    }

    /// True when the draw injects nothing.
    pub fn is_healthy(&self) -> bool {
        *self == FaultDraw::healthy()
    }
}

impl FaultPlan {
    /// A plan with the canonical mix at `rate` (see [`FaultSpec::mixed`]).
    pub fn mixed(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            spec: FaultSpec::mixed(rate),
        }
    }

    /// Draws the faults for attempt `attempt` of request `request`.
    /// Field order of the draws is fixed — part of the replay contract.
    pub fn draw(&self, request: u64, attempt: u32) -> FaultDraw {
        if self.spec.is_none() {
            return FaultDraw::healthy();
        }
        let mut rng = FaultRng::for_attempt(self.seed, request, attempt);
        let slow = rng.unit() < self.spec.slow_rate;
        let transient = rng.unit() < self.spec.transient_rate;
        let crash = rng.unit() < self.spec.crash_rate;
        let evict = rng.unit() < self.spec.evict_rate;
        let link = rng.unit() < self.spec.link_rate;
        FaultDraw {
            slow_factor: if slow {
                self.spec.slow_factor.max(1.0)
            } else {
                1.0
            },
            transient,
            crash,
            evict: if evict { self.spec.evict_n } else { 0 },
            link_factor: if link {
                self.spec.link_factor.max(1.0)
            } else {
                1.0
            },
        }
    }

    /// The backoff jitter draw for retrying `(request, attempt)` — a
    /// dedicated stream so fault draws and jitter never alias.
    pub fn jitter(&self, request: u64, attempt: u32) -> f64 {
        FaultRng::for_attempt(self.seed ^ 0x6A09_E667_F3BC_C908, request, attempt).unit()
    }
}

/// Bounded retries with jittered exponential backoff. The default policy
/// retries nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before retry k is `base_ms · 2^k`, capped at
    /// [`RetryPolicy::cap_ms`], then scaled by jitter into
    /// `[0.5, 1.0) ×` that value.
    pub base_ms: f64,
    /// Upper bound on the un-jittered backoff.
    pub cap_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// No retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_ms: 1.0,
            cap_ms: 50.0,
        }
    }

    /// `n` retries with the default 1 ms base / 50 ms cap.
    pub fn retries(n: u32) -> Self {
        RetryPolicy {
            max_retries: n,
            ..RetryPolicy::none()
        }
    }

    /// The backoff in ms before retry `attempt` (1-based: the delay
    /// between attempt `attempt - 1` failing and attempt `attempt`
    /// starting), given a jitter draw in `[0, 1)`.
    pub fn backoff_ms(&self, attempt: u32, jitter_unit: f64) -> f64 {
        let exp = self
            .base_ms
            .max(0.0)
            .mul_add(f64::from(1u32 << attempt.saturating_sub(1).min(20)), 0.0)
            .min(self.cap_ms.max(0.0));
        exp * (0.5 + 0.5 * jitter_unit)
    }
}

/// Circuit-breaker tuning. The window is a count-based sliding window of
/// recent attempt outcomes for one config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Sliding-window length in outcomes.
    pub window: usize,
    /// Minimum outcomes in the window before the breaker may trip.
    pub min_samples: usize,
    /// Failure fraction (in the window) at which the breaker opens.
    pub fail_threshold: f64,
    /// How long an open breaker rejects before probing, in ms.
    pub cooldown_ms: f64,
    /// Probes admitted in half-open state; one success closes, one
    /// failure re-opens.
    pub half_open_probes: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 16,
            min_samples: 8,
            fail_threshold: 0.5,
            cooldown_ms: 100.0,
            half_open_probes: 2,
        }
    }
}

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all requests admitted, outcomes recorded.
    Closed,
    /// Tripped: all requests rejected until the cooldown elapses.
    Open,
    /// Probing: a bounded number of requests admitted; one success
    /// closes the breaker, one failure re-opens it.
    HalfOpen,
}

/// A closed/open/half-open circuit breaker over a sliding failure-rate
/// window. All transitions take an explicit `now_ms` so the same state
/// machine serves the sim clock, the wall clock and the chaos DES.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    window: VecDeque<bool>,
    opened_at_ms: f64,
    probes_admitted: usize,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            window: VecDeque::new(),
            opened_at_ms: 0.0,
            probes_admitted: 0,
            trips: 0,
        }
    }

    /// Current state, after applying any cooldown transition due at
    /// `now_ms`.
    pub fn state(&mut self, now_ms: f64) -> BreakerState {
        if self.state == BreakerState::Open && now_ms >= self.opened_at_ms + self.cfg.cooldown_ms {
            self.state = BreakerState::HalfOpen;
            self.probes_admitted = 0;
        }
        self.state
    }

    /// Whether a request for this config may proceed at `now_ms`.
    /// Half-open admission counts against the probe budget.
    pub fn admit(&mut self, now_ms: f64) -> bool {
        match self.state(now_ms) {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                if self.probes_admitted < self.cfg.half_open_probes {
                    self.probes_admitted += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records one attempt outcome at `now_ms` and applies any resulting
    /// transition.
    pub fn record(&mut self, now_ms: f64, success: bool) {
        match self.state(now_ms) {
            BreakerState::Closed => {
                self.window.push_back(success);
                while self.window.len() > self.cfg.window {
                    self.window.pop_front();
                }
                let samples = self.window.len();
                if samples >= self.cfg.min_samples.max(1) {
                    let failures = self.window.iter().filter(|ok| !**ok).count();
                    if failures as f64 / samples as f64 >= self.cfg.fail_threshold {
                        self.trip(now_ms);
                    }
                }
            }
            BreakerState::HalfOpen => {
                if success {
                    self.state = BreakerState::Closed;
                    self.window.clear();
                } else {
                    self.trip(now_ms);
                }
            }
            // Outcomes of requests admitted before the trip may land
            // while open; they are stale — ignore them.
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now_ms: f64) {
        self.state = BreakerState::Open;
        self.opened_at_ms = now_ms;
        self.window.clear();
        self.probes_admitted = 0;
        self.trips += 1;
    }

    /// How many times this breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

/// The resilience policy bundle. The default is fully inert: no
/// deadline, no retries, no breaker, no degradation — the fault-free
/// code path is untouched.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResilienceConfig {
    /// Per-request deadline (sim/wall ms from submission). `None`
    /// disables deadline handling entirely.
    pub deadline_ms: Option<f64>,
    /// Retry policy for transient faults and crashes.
    pub retry: RetryPolicy,
    /// Per-config circuit breaker; `None` disables breaking.
    pub breaker: Option<BreakerConfig>,
    /// Graceful degradation on deadline pressure: fall back to an O0
    /// compile (skip optimize passes) when the remaining budget cannot
    /// cover a full build.
    pub degrade: bool,
    /// Soft TTL for cached profiles: entries older than this are
    /// refreshed off the hot path but may still be served
    /// stale-but-valid under deadline pressure. `None` disables TTLs.
    pub stale_ttl_ms: Option<f64>,
}

impl ResilienceConfig {
    /// True when every knob is off (the fault-free fast path).
    pub fn is_inert(&self) -> bool {
        *self == ResilienceConfig::default()
    }

    /// Picks one attempt's cache step. `age_ms` is the cached entry's
    /// age (`None` on a miss). An entry past the soft TTL is refreshed;
    /// with [`ResilienceConfig::degrade`] on and the clock's `pressured`
    /// test true for the pending step, a refresh serves the entry stale
    /// instead, and a miss falls back to an O0 compile unless
    /// `template_cached` says the instantiate path already undercuts it.
    /// `pressured` and `template_cached` are called only when they can
    /// change the answer.
    pub fn cache_step(
        &self,
        age_ms: Option<f64>,
        pressured: impl FnOnce(CacheStep) -> bool,
        template_cached: impl FnOnce() -> bool,
    ) -> CacheStep {
        let step = match age_ms {
            None => CacheStep::Miss,
            Some(age) if self.stale_ttl_ms.is_some_and(|ttl| age > ttl) => CacheStep::Refresh,
            Some(_) => return CacheStep::Hit,
        };
        if !self.degrade || !pressured(step) {
            step
        } else if step == CacheStep::Refresh {
            CacheStep::Stale
        } else if template_cached() {
            CacheStep::Miss
        } else {
            CacheStep::MissO0
        }
    }

    /// The backoff in ms before retrying request `request` after its
    /// 0-based attempt `failed_attempt` failed, or `None` once the retry
    /// budget is spent. The jitter comes from `plan`'s jitter stream, and
    /// is `0.0` without a plan.
    pub fn retry_after_ms(
        &self,
        plan: Option<&FaultPlan>,
        request: u64,
        failed_attempt: u32,
    ) -> Option<f64> {
        (failed_attempt < self.retry.max_retries).then(|| {
            let jitter = plan.map_or(0.0, |p| p.jitter(request, failed_attempt));
            self.retry.backoff_ms(failed_attempt + 1, jitter)
        })
    }
}

/// How one attempt's cache interaction resolves
/// ([`ResilienceConfig::cache_step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStep {
    /// A fresh cached entry is served.
    Hit,
    /// An entry past the soft TTL is served stale under deadline pressure.
    Stale,
    /// An entry past the soft TTL is rebuilt in line and re-inserted.
    Refresh,
    /// No entry: a full build, then cached.
    Miss,
    /// No entry, built with the O0 fallback under deadline pressure (not
    /// cached).
    MissO0,
}

impl CacheStep {
    /// What a successful attempt reports: every step that found an
    /// entry, a refresh included, is a hit.
    pub fn disposition(self) -> CacheDisposition {
        match self {
            CacheStep::Hit | CacheStep::Stale | CacheStep::Refresh => CacheDisposition::Hit,
            CacheStep::Miss | CacheStep::MissO0 => CacheDisposition::Miss,
        }
    }

    /// Whether the step is a degraded serve (stale or O0).
    pub fn is_degraded(self) -> bool {
        matches!(self, CacheStep::Stale | CacheStep::MissO0)
    }
}

/// Resilience counters of one serving run, kept the same way by both
/// clocks; all zero on a fault-free run with an inert policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceSummary {
    /// Retry attempts performed.
    pub retries: u64,
    /// Requests whose deadline expired (queued past it, or mid-attempt).
    pub timeouts: u64,
    /// Injected worker crashes (each crashed attempt counts, retried or
    /// not).
    pub crashed: u64,
    /// Circuit-breaker trips (closed/half-open → open transitions).
    pub breaker_trips: u64,
    /// Requests shed at admission by an open circuit breaker.
    pub circuit_open: u64,
    /// Attempts served by the O0 compile fallback.
    pub degraded: u64,
    /// Attempts that served a stale-but-valid entry past the soft TTL.
    pub stale_serves: u64,
}

impl ResilienceSummary {
    /// Counts a degraded cache step where it is taken.
    pub fn count_step(&mut self, step: CacheStep) {
        match step {
            CacheStep::MissO0 => self.degraded += 1,
            CacheStep::Stale => self.stale_serves += 1,
            CacheStep::Hit | CacheStep::Refresh | CacheStep::Miss => {}
        }
    }
}

/// Cross-request batching counters of one serving run; all zero when
/// nothing passed a batch former.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchSummary {
    /// Batches dispatched (singleton dispatches included).
    pub batches: u64,
    /// Requests that resolved through a dispatched batch.
    pub batched_requests: u64,
    /// Requests shed by the batch former's admission control.
    pub shed: u64,
    /// `size_hist[i]` = dispatched batches of size `i + 1`.
    pub size_hist: Vec<u64>,
}

impl BatchSummary {
    /// Mean members per dispatched batch (`0` with no batches).
    pub fn avg_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }
}

/// The serving counters both clocks keep the same way: coalescing,
/// shedding, resilience, plan templates and batching. The sim clock and
/// the live server each hold one, and a load-generation report carries
/// its run's.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeCounters {
    /// Requests that shared an in-flight identical execution.
    pub coalesced: u64,
    /// Requests shed by the bounded queue (a merged batch shed as a unit
    /// counts every member).
    pub rejected: u64,
    /// Retry, deadline, crash, breaker and degradation counters.
    pub resilience: ResilienceSummary,
    /// Plan-template fast-path builds: charged builds served at the
    /// instantiate share (sim clock), or template-cache lookup hits
    /// (wall clock).
    pub tpl_hits: u64,
    /// Template-carrying builds that paid the full compile (sim clock),
    /// or template-cache lookup misses (wall clock).
    pub tpl_misses: u64,
    /// Cross-request batching counters.
    pub batch: BatchSummary,
}

impl ServeCounters {
    /// Counts a request shed before any work ran under its reason's
    /// counter: `rejected` for a full queue, `resilience.circuit_open`
    /// for an open breaker, `batch.shed` for the batch backlog.
    ///
    /// # Panics
    ///
    /// Panics for a reason that is not a shed ([`RejectReason::is_shed`]).
    pub fn count_shed(&mut self, reason: RejectReason) {
        let counter = match reason {
            RejectReason::QueueFull => &mut self.rejected,
            RejectReason::CircuitOpen => &mut self.resilience.circuit_open,
            RejectReason::BatchBacklog => &mut self.batch.shed,
            RejectReason::DeadlineExceeded | RejectReason::Crashed => {
                unreachable!("{reason} is not a shed")
            }
        };
        *counter += 1;
    }

    /// Counts one batch the former dispatched with `size` members,
    /// singletons included.
    pub fn count_batch(&mut self, size: usize) {
        let b = &mut self.batch;
        b.batches += 1;
        b.batched_requests += size as u64;
        if b.size_hist.len() < size {
            b.size_hist.resize(size, 0);
        }
        b.size_hist[size - 1] += 1;
    }

    /// Requests shed before any work ran, whatever the reason.
    pub fn shed(&self) -> u64 {
        self.rejected + self.resilience.circuit_open + self.batch.shed
    }
}

/// Why a request was rejected or failed without a result — the typed
/// taxonomy the protocol surfaces as distinct response codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded submission queue was full (load shed).
    QueueFull,
    /// The per-request deadline expired before a result was ready.
    DeadlineExceeded,
    /// The config's circuit breaker was open (known-bad config shed).
    CircuitOpen,
    /// The executing worker crashed (and retries, if any, were
    /// exhausted).
    Crashed,
    /// The cross-request batch former's backlog of open batches exceeded
    /// its admission bound (batched load shed).
    BatchBacklog,
}

impl RejectReason {
    /// The wire code for protocol `err` responses.
    pub fn code(&self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::DeadlineExceeded => "deadline-exceeded",
            RejectReason::CircuitOpen => "circuit-open",
            RejectReason::Crashed => "crashed",
            RejectReason::BatchBacklog => "batch-backlog",
        }
    }

    /// Whether the request was shed before any work ran (a full queue,
    /// an open breaker, the batch backlog): every loadgen clock counts
    /// it as shed, not as a completed error.
    pub fn is_shed(self) -> bool {
        matches!(
            self,
            RejectReason::QueueFull | RejectReason::CircuitOpen | RejectReason::BatchBacklog
        )
    }

    /// Parses a wire code back into the reason.
    pub fn parse(code: &str) -> Option<Self> {
        match code {
            "queue-full" => Some(RejectReason::QueueFull),
            "deadline-exceeded" => Some(RejectReason::DeadlineExceeded),
            "circuit-open" => Some(RejectReason::CircuitOpen),
            "crashed" => Some(RejectReason::Crashed),
            "batch-backlog" => Some(RejectReason::BatchBacklog),
            _ => None,
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_attempt_independent() {
        let plan = FaultPlan::mixed(7, 0.3);
        let a = plan.draw(12, 0);
        assert_eq!(a, plan.draw(12, 0), "same (request, attempt) replays");
        assert_eq!(a, FaultPlan::mixed(7, 0.3).draw(12, 0), "plan is pure");
        // Different attempts draw from independent streams.
        let draws: Vec<FaultDraw> = (0..4).map(|k| plan.draw(12, k)).collect();
        assert!(draws.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn zero_rate_plan_is_healthy() {
        let plan = FaultPlan {
            seed: 99,
            spec: FaultSpec::none(),
        };
        for r in 0..64 {
            assert!(plan.draw(r, 0).is_healthy());
        }
        assert!(FaultSpec::none().is_none());
        assert!(!FaultSpec::mixed(0.1).is_none());
    }

    #[test]
    fn mixed_rates_hit_roughly_in_proportion() {
        let plan = FaultPlan::mixed(3, 0.5);
        let n = 2000;
        let slow = (0..n)
            .filter(|r| plan.draw(*r, 0).slow_factor > 1.0)
            .count();
        let crash = (0..n).filter(|r| plan.draw(*r, 0).crash).count();
        let frac_slow = slow as f64 / n as f64;
        let frac_crash = crash as f64 / n as f64;
        assert!(
            (0.4..0.6).contains(&frac_slow),
            "slow ~0.5, got {frac_slow}"
        );
        assert!(
            (0.05..0.15).contains(&frac_crash),
            "crash ~0.1, got {frac_crash}"
        );
    }

    #[test]
    fn backoff_is_exponential_capped_and_jittered() {
        let p = RetryPolicy {
            max_retries: 5,
            base_ms: 2.0,
            cap_ms: 10.0,
        };
        assert_eq!(p.backoff_ms(1, 1.0), 2.0 * 1.0);
        assert_eq!(p.backoff_ms(2, 1.0), 4.0);
        assert_eq!(p.backoff_ms(3, 1.0), 8.0);
        assert_eq!(p.backoff_ms(4, 1.0), 10.0, "capped");
        assert_eq!(p.backoff_ms(1, 0.0), 1.0, "jitter floor is half");
        assert_eq!(RetryPolicy::none().max_retries, 0);
    }

    #[test]
    fn breaker_trips_cools_down_and_recovers() {
        let cfg = BreakerConfig {
            window: 4,
            min_samples: 4,
            fail_threshold: 0.5,
            cooldown_ms: 10.0,
            half_open_probes: 1,
        };
        let mut b = CircuitBreaker::new(cfg);
        assert!(b.admit(0.0));
        for t in 0..4 {
            b.record(f64::from(t), t % 2 == 0); // 2/4 failures hits 0.5
        }
        assert_eq!(b.state(3.0), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        assert!(!b.admit(5.0), "open rejects inside cooldown");
        assert!(b.admit(13.0), "half-open admits the probe");
        assert_eq!(b.state(13.0), BreakerState::HalfOpen);
        assert!(!b.admit(13.0), "probe budget is bounded");
        b.record(14.0, true);
        assert_eq!(b.state(14.0), BreakerState::Closed, "probe success closes");
        // Failure in half-open re-opens immediately.
        for t in 0..4 {
            b.record(20.0 + f64::from(t), false);
        }
        assert_eq!(b.state(24.0), BreakerState::Open);
        assert!(b.admit(40.0));
        b.record(41.0, false);
        assert_eq!(b.state(41.0), BreakerState::Open, "probe failure re-opens");
        assert_eq!(b.trips(), 3);
    }

    #[test]
    fn inert_config_is_detectable() {
        assert!(ResilienceConfig::default().is_inert());
        let with_deadline = ResilienceConfig {
            deadline_ms: Some(10.0),
            ..ResilienceConfig::default()
        };
        assert!(!with_deadline.is_inert());
    }

    #[test]
    fn cache_steps_and_retry_backoff_follow_one_table() {
        use CacheStep::*;
        // (stale TTL, entry age, degrade, pressured, template cached) → step.
        let cases = [
            (None, Some(1e9), true, true, true, Hit),
            (Some(50.0), Some(10.0), true, true, false, Hit),
            (Some(50.0), Some(60.0), false, false, false, Refresh),
            (Some(50.0), Some(60.0), false, true, false, Refresh),
            (Some(50.0), Some(60.0), true, false, false, Refresh),
            (Some(50.0), Some(60.0), true, true, false, Stale),
            (Some(50.0), Some(60.0), true, true, true, Stale),
            (None, None, false, false, false, Miss),
            (None, None, false, true, false, Miss),
            (None, None, true, false, false, Miss),
            (None, None, true, true, false, MissO0),
            (None, None, true, true, true, Miss),
            (Some(50.0), None, true, true, false, MissO0),
            (Some(50.0), None, true, false, true, Miss),
            (Some(0.0), Some(0.0), true, true, false, Hit),
            (Some(0.0), Some(1e-9), false, true, false, Refresh),
        ];
        for (ttl, age, degrade, pressured, cached, want) in cases {
            let cfg = ResilienceConfig {
                degrade,
                stale_ttl_ms: ttl,
                ..ResilienceConfig::default()
            };
            let (mut asked, mut probed) = (false, false);
            let step = cfg.cache_step(
                age,
                |pending| {
                    asked = true;
                    assert!(matches!(pending, Refresh | Miss), "{pending:?}");
                    pressured
                },
                || {
                    probed = true;
                    cached
                },
            );
            let case = (ttl, age, degrade, pressured, cached);
            assert_eq!(step, want, "{case:?}");
            // The clock's probes run only when they can change the step.
            assert_eq!(asked, degrade && want != Hit, "pressure asked: {case:?}");
            let could_fall_back = degrade && pressured && age.is_none();
            assert_eq!(probed, could_fall_back, "template probed: {case:?}");
        }
        assert_eq!(Refresh.disposition(), CacheDisposition::Hit);
        assert_eq!(Stale.disposition(), CacheDisposition::Hit);
        assert_eq!(MissO0.disposition(), CacheDisposition::Miss);
        let mut counts = ResilienceSummary::default();
        for step in [Hit, Stale, Refresh, Miss, MissO0, MissO0] {
            counts.count_step(step);
        }
        assert_eq!((counts.degraded, counts.stale_serves), (2, 1));

        // Backoff: retry k waits backoff_ms(k, jitter(request, k - 1)).
        let cfg = ResilienceConfig {
            retry: RetryPolicy::retries(2),
            ..ResilienceConfig::default()
        };
        let plan = FaultPlan::mixed(5, 0.3);
        for failed in 0..2 {
            let jitter = plan.jitter(9, failed);
            let want = cfg.retry.backoff_ms(failed + 1, jitter);
            assert_eq!(cfg.retry_after_ms(Some(&plan), 9, failed), Some(want));
        }
        assert_eq!(
            cfg.retry_after_ms(None, 9, 1),
            Some(1.0),
            "no plan: jitter 0"
        );
        assert_eq!(cfg.retry_after_ms(Some(&plan), 9, 2), None, "retries spent");
        assert_eq!(ResilienceConfig::default().retry_after_ms(None, 0, 0), None);
    }

    #[test]
    fn reject_codes_round_trip() {
        for reason in [
            RejectReason::QueueFull,
            RejectReason::DeadlineExceeded,
            RejectReason::CircuitOpen,
            RejectReason::Crashed,
            RejectReason::BatchBacklog,
        ] {
            assert_eq!(RejectReason::parse(reason.code()), Some(reason));
        }
        assert_eq!(RejectReason::parse("nope"), None);
    }

    #[test]
    fn serve_counters_count_sheds_and_batches_by_one_rule() {
        let mut c = ServeCounters::default();
        for reason in [
            RejectReason::QueueFull,
            RejectReason::CircuitOpen,
            RejectReason::CircuitOpen,
            RejectReason::BatchBacklog,
        ] {
            assert!(reason.is_shed());
            c.count_shed(reason);
        }
        assert_eq!(
            (c.rejected, c.resilience.circuit_open, c.batch.shed),
            (1, 2, 1)
        );
        assert_eq!(c.shed(), 4);
        for size in [3, 1, 3] {
            c.count_batch(size);
        }
        assert_eq!((c.batch.batches, c.batch.batched_requests), (3, 7));
        assert_eq!(c.batch.size_hist, vec![1, 0, 2]);
        assert!((c.batch.avg_size() - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(BatchSummary::default().avg_size(), 0.0);
    }
}
