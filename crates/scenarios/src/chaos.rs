//! The `chaos` scenario: the serving simulation under seeded fault
//! injection, swept across fault rate × resilience policy.
//!
//! The grid profiles the request universe (three paper models × two
//! citation datasets × both computational models, single-device and
//! 2-shard variants — the sharded cells give the degraded-link fault a
//! real Exchange share to inflate, and gSuite SAGE under SpMM supplies
//! persistent error traffic for the circuit breaker). The renderer then
//! replays one fixed seeded request stream through the deterministic
//! service simulation ([`crate::sim`]) under a sweep of
//! [`FaultPlan`]/[`ResilienceConfig`] pairs and reports goodput, tail
//! latency, SLO attainment and availability deltas against the
//! fault-free baseline.
//!
//! Everything is pure `f64` arithmetic over fixed iteration orders —
//! the report is byte-identical across runs, hosts and `--threads`
//! values, and is locked by a golden snapshot like every other registry
//! scenario.

use gsuite_core::config::GnnModel;
use gsuite_graph::datasets::Dataset;
use gsuite_profile::TextTable;

use crate::opts::{ms, pct, BenchOpts};
use crate::report::Report;
use crate::resilience::{BreakerConfig, FaultPlan, ResilienceConfig, RetryPolicy};
use crate::runner::{CellOutcome, ScenarioResult};
use crate::sim::{build_cost_ms, jittered_stream, simulate, tally, Arrivals, SimCosts, SimParams};
use crate::spec::ScenarioSpec;

/// Seed of the synthetic request stream (key choices and arrival jitter).
const STREAM_SEED: u64 = 42;
/// Seed of every injected [`FaultPlan`] in the sweep.
const FAULT_SEED: u64 = 7;
/// Requests replayed per sweep row.
const REQUESTS: usize = 240;
/// Simulated worker threads.
const WORKERS: usize = 4;
/// Bounded queue depth.
const QUEUE_CAP: usize = 16;
/// Fault rates swept against the policies (the baseline row is 0).
const FAULT_RATES: [f64; 2] = [0.10, 0.25];

pub(crate) fn spec_chaos() -> ScenarioSpec {
    ScenarioSpec {
        name: "chaos",
        title: "resilience under seeded fault injection: goodput, tail latency and availability by policy",
        models: GnnModel::ALL.to_vec(),
        datasets: vec![Dataset::Cora, Dataset::CiteSeer],
        gpus_per_run: vec![1, 2],
        ..ScenarioSpec::default()
    }
}

/// One sweep row: a label, the injected fault rate (0 = fault-free) and
/// the resilience policy under test.
struct Policy {
    label: &'static str,
    rate: f64,
    retry: bool,
    breaker: bool,
}

/// The sweep: a fault-free baseline, then each fault rate against a
/// deadline-only policy, retries + graceful degradation, and the full
/// stack with the per-config circuit breaker.
fn policies() -> Vec<Policy> {
    let mut rows = vec![Policy {
        label: "baseline (no faults)",
        rate: 0.0,
        retry: false,
        breaker: false,
    }];
    for &rate in &FAULT_RATES {
        rows.push(Policy {
            label: "deadline only",
            rate,
            retry: false,
            breaker: false,
        });
        rows.push(Policy {
            label: "+retry+degrade",
            rate,
            retry: true,
            breaker: false,
        });
        rows.push(Policy {
            label: "+breaker",
            rate,
            retry: true,
            breaker: true,
        });
    }
    rows
}

/// Lowers the profiled grid into per-config simulation costs: the
/// profile's end-to-end time as the service time, the byte-accounted
/// cache entry (graph + per-launch descriptors) driving the modeled
/// cold-start cost — graph load + pipeline build *plus two warm-up
/// inference passes*, which is what a cache miss actually pays in the
/// serving layer and what the O0 degraded build gets to halve — and the
/// slowest shard's halo-exchange share as the degraded-link target.
/// Unsupported cells become error configs that pay the graph-load
/// discovery cost and feed the circuit breaker.
fn chaos_costs(result: &ScenarioResult) -> Vec<SimCosts> {
    result
        .iter()
        .map(|(cell, outcome)| {
            let s = result
                .graph(cell.config.dataset)
                .expect("every spec dataset is loaded")
                .stats();
            let graph_bytes = s.nodes * (s.feature_len * 4 + 8) + s.edges * 8;
            match outcome {
                CellOutcome::Profiled(p) => {
                    let bytes = (graph_bytes + p.kernels.len() * 512) as u64;
                    let exchange_ms = p.sharding.as_ref().map_or(0.0, |sh| {
                        sh.shards
                            .iter()
                            .map(|shard| shard.exchange_ms)
                            .fold(0.0, f64::max)
                    });
                    SimCosts {
                        service_ms: p.total_time_ms(),
                        build_ms: build_cost_ms(bytes) + 2.0 * p.total_time_ms(),
                        exchange_ms,
                        bytes,
                        template: None,
                        batch: None,
                        error: None,
                    }
                }
                CellOutcome::Unsupported(msg) => SimCosts {
                    service_ms: 0.0,
                    build_ms: build_cost_ms(graph_bytes as u64),
                    exchange_ms: 0.0,
                    bytes: 0,
                    template: None,
                    batch: None,
                    error: Some(msg.clone()),
                },
            }
        })
        .collect()
}

pub(crate) fn render_chaos(result: &ScenarioResult, _opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header(
        "Scenario chaos",
        "seeded fault injection vs resilience policy over the serving simulation",
    );

    let costs = chaos_costs(result);

    // One fixed request stream shared by every sweep row: uniformly
    // sampled configs, open-loop arrivals at ~70% of healthy capacity
    // with jittered gaps.
    let healthy: Vec<&SimCosts> = costs.iter().filter(|c| c.error.is_none()).collect();
    let mean_service =
        healthy.iter().map(|c| c.service_ms).sum::<f64>() / healthy.len().max(1) as f64;
    let gap_ms = mean_service / (WORKERS as f64 * 0.5);
    let deadline_ms = 6.0 * mean_service;
    let slo_ms = 4.0 * mean_service;
    let stale_ttl_ms = 16.0 * mean_service;
    let cache_bytes: u64 = costs.iter().map(|c| c.bytes).sum::<u64>() + 1;

    let (keys, arrivals) = jittered_stream(STREAM_SEED, REQUESTS, costs.len(), gap_ms);

    let mut table = TextTable::new(&[
        "policy",
        "faults",
        "ok",
        "err",
        "shed",
        "timeo",
        "retry",
        "trips",
        "degr",
        "goodput (rps)",
        "p99 (ms)",
        "SLO",
        "avail",
        "d-avail",
    ]);
    let mut baseline_avail = None;
    for p in policies() {
        let params = SimParams {
            workers: WORKERS,
            queue_cap: QUEUE_CAP,
            cache_bytes,
            fault: (p.rate > 0.0).then(|| FaultPlan::mixed(FAULT_SEED, p.rate)),
            resilience: ResilienceConfig {
                deadline_ms: Some(deadline_ms),
                retry: if p.retry {
                    RetryPolicy::retries(3)
                } else {
                    RetryPolicy::none()
                },
                // Tighter than the default: the error configs each see
                // only ~10 requests over the stream, so the breaker must
                // trip on a few samples to shed anything.
                breaker: p.breaker.then_some(BreakerConfig {
                    window: 8,
                    min_samples: 5,
                    fail_threshold: 0.6,
                    cooldown_ms: 1500.0,
                    half_open_probes: 1,
                }),
                degrade: p.retry,
                stale_ttl_ms: p.retry.then_some(stale_ttl_ms),
            },
        };
        let at = Arrivals::Open {
            at_ms: &arrivals,
            batch: None,
        };
        let (out, _) = simulate(&keys, at, &costs, params, None);
        let row = tally(&out, slo_ms);
        let base = *baseline_avail.get_or_insert(row.availability);
        table.row_owned(vec![
            p.label.to_string(),
            pct(p.rate),
            row.ok.to_string(),
            row.err.to_string(),
            row.shed.to_string(),
            row.timeouts.to_string(),
            out.resilience.retries.to_string(),
            out.resilience.breaker_trips.to_string(),
            (out.resilience.degraded + out.resilience.stale_serves).to_string(),
            format!("{:.1}", row.goodput_rps),
            ms(row.p99_ms),
            pct(row.slo),
            pct(row.availability),
            format!("{:+.1}%", (row.availability - base) * 100.0),
        ]);
    }
    report.table(
        "chaos",
        "Fault rate x resilience policy — goodput, tail latency, availability",
        table,
    );
    report.note(format!(
        "stream: {REQUESTS} requests over {} configs ({} buildable), seed {STREAM_SEED}; \
         fault seed {FAULT_SEED}",
        costs.len(),
        healthy.len(),
    ));
    report.note(format!(
        "policy: deadline {} ms, SLO {} ms, stale TTL {} ms, {WORKERS} workers, queue {QUEUE_CAP}",
        ms(deadline_ms),
        ms(slo_ms),
        ms(stale_ttl_ms),
    ));
    report.note(
        "(replayable: fault draws are keyed on (seed, request, attempt) — \
         byte-identical for every --threads value)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_scenario_threads;

    #[test]
    fn chaos_report_is_thread_count_invariant_and_faults_fire() {
        let opts = BenchOpts::golden();
        let spec = spec_chaos();
        let serial = run_scenario_threads(&spec, &opts, 1);
        let parallel = run_scenario_threads(&spec, &opts, 4);
        let a = render_chaos(&serial, &opts).render(&opts);
        let b = render_chaos(&parallel, &opts).render(&opts);
        assert_eq!(a, b);
        // SAGE under SpMM keeps the breaker fed with real error traffic.
        let costs = chaos_costs(&serial);
        assert!(costs.iter().any(|c| c.error.is_some()));
        assert!(costs.iter().any(|c| c.exchange_ms > 0.0), "sharded cells");
    }
}
