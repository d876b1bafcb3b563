//! Chaos-mode guarantees, locked at the workspace level:
//!
//! 1. **Fault replay determinism** — a sim-clock loadgen run with fault
//!    injection and the full resilience policy enabled is a pure function
//!    of `(spec, fault seed)`: byte-identical reports (text and JSON)
//!    across repeated runs and across profiling thread counts.
//! 2. **Worker supervision** — N injected panics produce exactly N
//!    counted crashes and N respawns, and every submitted request still
//!    completes with a typed reject code: nothing is lost or hung.
//! 3. **Breaker correctness** — the closed/open/half-open circuit
//!    breaker agrees with a brute-force reference state machine under
//!    random admit/record/clock-advance sequences.
//! 4. **Cancellation hygiene** — a deadline that cancels a build mid-way
//!    leaves the pipeline cache and device-memory accounting exactly as
//!    if the request had never arrived.
//! 5. **One policy, two clocks** — the sim clock and the live server
//!    apply the same retry, crash and breaker rules: one stream under
//!    one fault plan yields the same counters on both.

use proptest::prelude::*;

use gsuite::scenarios::BenchOpts;
use gsuite::serve::fault::{
    BreakerConfig, BreakerState, CircuitBreaker, FaultPlan, FaultSpec, RejectReason,
    ResilienceConfig, RetryPolicy,
};
use gsuite::serve::{
    run_loadgen, ArrivalMode, ClockMode, LoadSpec, ServeConfig, ServeRequest, Server,
};

// ---------------------------------------------------------------------------
// 1. Fault replay determinism (the acceptance criterion).
// ---------------------------------------------------------------------------

fn chaos_loadspec() -> LoadSpec {
    LoadSpec {
        requests: 96,
        fault: Some(FaultPlan::mixed(7, 0.25)),
        resilience: ResilienceConfig {
            deadline_ms: Some(900.0),
            retry: RetryPolicy::retries(2),
            breaker: Some(BreakerConfig::default()),
            degrade: true,
            stale_ttl_ms: Some(5_000.0),
        },
        opts: BenchOpts::golden(),
        ..LoadSpec::default()
    }
}

#[test]
fn injected_fault_loadgen_is_byte_identical_across_runs_and_threads() {
    let a = run_loadgen(&chaos_loadspec()).expect("chaos loadgen runs");
    let b = run_loadgen(&chaos_loadspec()).expect("chaos loadgen runs");
    assert_eq!(a, b, "same (spec, fault seed), same report");
    assert_eq!(a.render(), b.render(), "byte-identical text report");
    assert_eq!(a.to_json(), b.to_json(), "byte-identical JSON report");

    // The profiling fan-out width must not leak into fault draws.
    for threads in [1, 3, 8] {
        let t = run_loadgen(&LoadSpec {
            threads,
            ..chaos_loadspec()
        })
        .expect("chaos loadgen runs");
        assert_eq!(a.render(), t.render(), "threads={threads}");
        assert_eq!(a.to_json(), t.to_json(), "threads={threads}");
    }

    // The injection actually did something, and the report reflects it.
    assert!(a.fault_mode, "fault runs flip the report into fault mode");
    let res = a.counters.resilience;
    assert!(
        res.retries + res.timeouts + res.crashed + res.degraded > 0,
        "a 25% mixed fault rate must leave visible resilience traffic: {}",
        a.render()
    );
    assert!(a.availability() > 0.0 && a.availability() <= 1.0);

    // A different fault seed perturbs the outcome stream.
    let other = run_loadgen(&LoadSpec {
        fault: Some(FaultPlan::mixed(8, 0.25)),
        ..chaos_loadspec()
    })
    .expect("chaos loadgen runs");
    assert_ne!(a.render(), other.render(), "fault seed must matter");
}

// ---------------------------------------------------------------------------
// 2. Worker supervision under injected panics.
// ---------------------------------------------------------------------------

#[test]
fn injected_panics_are_all_supervised_and_respawned() {
    let crash_plan = FaultPlan {
        seed: 3,
        spec: FaultSpec {
            crash_rate: 1.0,
            ..FaultSpec::none()
        },
    };
    let server = Server::start(ServeConfig {
        workers: 2,
        fault: Some(crash_plan),
        ..ServeConfig::golden()
    });
    // Distinct configurations: no coalescing, one injected panic each.
    let n = 5u64;
    let rxs: Vec<_> = (0..n)
        .map(|i| {
            let line = format!("model=gcn dataset=cora scale=0.0{}", 2 + i);
            let req = ServeRequest::parse_line(&line).expect("parses");
            server.submit(req).expect("accepted")
        })
        .collect();
    for rx in rxs {
        let done = rx.recv().expect("crashed requests still complete");
        assert_eq!(done.reject, Some(RejectReason::Crashed));
        assert!(done.outcome.is_err());
        assert!(
            done.to_line().contains("code=crashed"),
            "{}",
            done.to_line()
        );
    }
    let stats = server.stats();
    assert_eq!(stats.crashed, n, "every injected panic is counted");
    assert_eq!(stats.respawns, n, "one respawn per crash");
    assert_eq!(stats.completed, n, "no request lost or hung");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// 3. Circuit breaker vs a brute-force reference state machine.
// ---------------------------------------------------------------------------

/// An independent oracle for the breaker's documented semantics.
struct ModelBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    window: Vec<bool>,
    opened_at_ms: f64,
    probes: usize,
    trips: u64,
}

impl ModelBreaker {
    fn new(cfg: BreakerConfig) -> Self {
        ModelBreaker {
            cfg,
            state: BreakerState::Closed,
            window: Vec::new(),
            opened_at_ms: 0.0,
            probes: 0,
            trips: 0,
        }
    }

    fn tick(&mut self, now_ms: f64) {
        if self.state == BreakerState::Open && now_ms >= self.opened_at_ms + self.cfg.cooldown_ms {
            self.state = BreakerState::HalfOpen;
            self.probes = 0;
        }
    }

    fn admit(&mut self, now_ms: f64) -> bool {
        self.tick(now_ms);
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                if self.probes < self.cfg.half_open_probes {
                    self.probes += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn trip(&mut self, now_ms: f64) {
        self.state = BreakerState::Open;
        self.opened_at_ms = now_ms;
        self.window.clear();
        self.probes = 0;
        self.trips += 1;
    }

    fn record(&mut self, now_ms: f64, success: bool) {
        self.tick(now_ms);
        match self.state {
            BreakerState::Closed => {
                self.window.push(success);
                let excess = self.window.len().saturating_sub(self.cfg.window);
                self.window.drain(..excess);
                if self.window.len() >= self.cfg.min_samples.max(1) {
                    let failures = self.window.iter().filter(|ok| !**ok).count();
                    if failures as f64 / self.window.len() as f64 >= self.cfg.fail_threshold {
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
            BreakerState::Open => {} // stale outcome from before the trip
        }
    }
}

#[test]
fn breaker_walks_the_documented_state_machine() {
    let cfg = BreakerConfig {
        window: 4,
        min_samples: 2,
        fail_threshold: 0.5,
        cooldown_ms: 100.0,
        half_open_probes: 1,
    };
    let mut b = CircuitBreaker::new(cfg);
    assert_eq!(b.state(0.0), BreakerState::Closed);
    // Two failures trip it open.
    assert!(b.admit(0.0));
    b.record(1.0, false);
    assert!(b.admit(2.0));
    b.record(3.0, false);
    assert_eq!(b.state(4.0), BreakerState::Open);
    assert_eq!(b.trips(), 1);
    assert!(!b.admit(50.0), "open rejects before the cooldown");
    // Cooldown elapses: half-open admits exactly one probe.
    assert_eq!(b.state(103.0), BreakerState::HalfOpen);
    assert!(b.admit(104.0));
    assert!(!b.admit(105.0), "probe budget spent");
    // Probe failure re-opens; probe success after the next cooldown closes.
    b.record(106.0, false);
    assert_eq!(b.state(107.0), BreakerState::Open);
    assert_eq!(b.trips(), 2);
    assert!(b.admit(206.5));
    b.record(207.0, true);
    assert_eq!(b.state(208.0), BreakerState::Closed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random (clock advance, outcome) sequences: admissions, states and
    /// trip counts agree with the oracle at every step.
    #[test]
    fn breaker_matches_reference_model(
        ops in proptest::collection::vec((0u32..150, proptest::bool::ANY), 0..200),
    ) {
        let cfg = BreakerConfig {
            window: 6,
            min_samples: 3,
            fail_threshold: 0.5,
            cooldown_ms: 80.0,
            half_open_probes: 2,
        };
        let mut real = CircuitBreaker::new(cfg);
        let mut model = ModelBreaker::new(cfg);
        let mut now_ms = 0.0;
        for (advance, success) in ops {
            now_ms += f64::from(advance);
            let admitted = real.admit(now_ms);
            prop_assert_eq!(admitted, model.admit(now_ms), "admit at t={}", now_ms);
            if admitted {
                real.record(now_ms, success);
                model.record(now_ms, success);
            }
            prop_assert_eq!(real.state(now_ms), model.state, "state at t={}", now_ms);
            prop_assert_eq!(real.trips(), model.trips, "trips at t={}", now_ms);
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Deadline cancellation leaves accounting untouched.
// ---------------------------------------------------------------------------

#[test]
fn cancelled_deadline_leaves_cache_and_memory_accounting_consistent() {
    // Server A sees a request whose deadline has effectively already
    // expired (cancelled at the first build checkpoint), then a clean
    // run of the same configuration. Server B sees only the clean run.
    let line = "model=gcn dataset=cora scale=0.05";
    let server_a = Server::start(ServeConfig::golden());
    let doomed = ServeRequest {
        deadline_ms: Some(0.000_001),
        ..ServeRequest::parse_line(line).expect("parses")
    };
    let done = server_a
        .submit(doomed)
        .expect("accepted")
        .recv()
        .expect("delivered");
    assert_eq!(done.reject, Some(RejectReason::DeadlineExceeded));
    let after_timeout = server_a.stats();
    assert_eq!(after_timeout.timeouts, 1);
    assert_eq!(after_timeout.cache.misses, 0, "never reached the cache");
    assert_eq!(after_timeout.cache.insertions, 0, "nothing was built");
    assert_eq!(after_timeout.cache.bytes_in_use, 0, "no bytes leaked");
    assert_eq!(after_timeout.peak_device_bytes, 0, "no device accounting");

    let clean = |server: &Server| {
        let req = ServeRequest::parse_line(line).expect("parses");
        server
            .submit(req)
            .expect("accepted")
            .recv()
            .expect("delivered")
    };
    let from_a = clean(&server_a);
    let server_b = Server::start(ServeConfig::golden());
    let from_b = clean(&server_b);

    // The cancelled request left no trace: profiles are bit-identical
    // and every cache/memory counter matches the fresh server.
    assert_eq!(
        from_a.outcome.as_ref().expect("a builds"),
        from_b.outcome.as_ref().expect("b builds"),
    );
    let (a, b) = (server_a.stats(), server_b.stats());
    assert_eq!(a.cache.misses, b.cache.misses);
    assert_eq!(a.cache.insertions, b.cache.insertions);
    assert_eq!(a.cache.bytes_in_use, b.cache.bytes_in_use);
    assert_eq!(a.cache.entries, b.cache.entries);
    assert_eq!(a.peak_device_bytes, b.peak_device_bytes);
    assert_eq!(a.shard_peak_device_bytes, b.shard_peak_device_bytes);
    server_a.shutdown();
    server_b.shutdown();
}

// ---------------------------------------------------------------------------
// 5. One resilience policy under both clocks.
// ---------------------------------------------------------------------------

#[test]
fn sim_and_wall_clocks_apply_one_policy() {
    // One closed-loop client and one worker fix the submission order, so
    // both clocks draw the same faults for the same request indices.
    // Slowdowns, eviction storms, deadlines and TTLs stay out: they depend
    // on wall time or on the server's shard layout.
    let spec = |clock| LoadSpec {
        scenario: "serve-mix".to_string(),
        seed: 42,
        requests: 48,
        arrival: ArrivalMode::Closed { clients: 1 },
        clock,
        workers: 1,
        cache_bytes: 1 << 30,
        fault: Some(FaultPlan {
            seed: 11,
            spec: FaultSpec {
                transient_rate: 0.3,
                crash_rate: 0.15,
                ..FaultSpec::none()
            },
        }),
        resilience: ResilienceConfig {
            retry: RetryPolicy::retries(2),
            breaker: Some(BreakerConfig {
                window: 2,
                min_samples: 2,
                fail_threshold: 0.5,
                cooldown_ms: 1e12,
                half_open_probes: 1,
            }),
            ..ResilienceConfig::default()
        },
        opts: BenchOpts::golden(),
        ..LoadSpec::default()
    };
    let sim = run_loadgen(&spec(ClockMode::Sim)).expect("sim loadgen runs");
    let wall = run_loadgen(&spec(ClockMode::Wall)).expect("wall loadgen runs");

    let counters = |r: &gsuite::serve::LoadReport| {
        let c = &r.cache;
        (
            (
                r.completed,
                r.errors,
                r.counters.rejected,
                r.counters.coalesced,
            ),
            r.counters.resilience,
            (c.hits, c.misses, c.insertions, c.evictions),
            (c.entries, c.bytes_in_use),
        )
    };
    assert_eq!(
        counters(&sim),
        counters(&wall),
        "{}{}",
        sim.render(),
        wall.render()
    );

    // The sim side is the reference the wall server now follows.
    let res = sim.counters.resilience;
    assert_eq!((sim.completed, sim.errors), (43, 6));
    assert_eq!((res.retries, res.crashed), (17, 8));
    assert_eq!((res.breaker_trips, res.circuit_open), (3, 5));
    assert_eq!(
        (sim.cache.hits, sim.cache.misses, sim.cache.insertions),
        (43, 17, 12)
    );
}
