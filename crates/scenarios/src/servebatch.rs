//! The `servebatch` scenario: cross-request batching over the serving
//! simulation, swept across offered rate × batch policy.
//!
//! The workload is the serving shape the tentpole targets: **ego-net
//! requests** — every request asks for one seed node's sampled
//! neighborhood under one of three GNN models, so the key universe is
//! wide (models × seed nodes), identical in-flight requests are rare
//! (request coalescing cannot absorb the load the way it does for the
//! 18-config full-graph `serve-mix` universe) and each request pays its
//! own compile unless the batch former merges it with class-mates into
//! one combined block-diagonal Plan. Per-key costs are **measured, not
//! assumed**: each ego config is built and profiled solo, then merged
//! with itself, and the two-point difference splits its service time
//! into the shared `fixed` and per-member `marginal` share the DES
//! charges merged executions (`max(fixed) + Σ marginal`).
//!
//! The renderer replays one fixed seeded request stream through
//! [`crate::sim::simulate`] for every rate × policy pair
//! and reports goodput, tail latency, SLO attainment and the realized
//! batch-size distribution. The pipeline LRU is held at one byte:
//! requests model *distinct users*, where caching one user's compiled
//! ego pipeline never serves the next — precisely the regime where
//! cross-request batching pays and per-key caching cannot.
//!
//! Everything is pure `f64` arithmetic over fixed iteration orders —
//! the report is byte-identical across runs, hosts and `--threads`
//! values, and is locked by a golden snapshot like every other registry
//! scenario.

use gsuite_core::config::{CompModel, GnnModel, RunConfig};
use gsuite_core::pipeline::PipelineRun;
use gsuite_core::plan::batchmerge::merge_class;
use gsuite_graph::datasets::Dataset;
use gsuite_profile::TextTable;

use crate::opts::{ms, pct, BenchOpts};
use crate::report::Report;
use crate::runner::ScenarioResult;
use crate::sim::{
    build_cost_ms, jittered_stream, simulate, tally, Arrivals, BatchPolicy, SimBatch, SimCosts,
    SimOutcome, SimParams,
};
use crate::spec::ScenarioSpec;

/// Seed of the synthetic request stream (key choices and arrival jitter).
const STREAM_SEED: u64 = 42;
/// Requests replayed per sweep row.
const REQUESTS: usize = 360;
/// Simulated worker threads.
const WORKERS: usize = 4;
/// Bounded queue depth.
const QUEUE_CAP: usize = 32;
/// The model axis of the ego-net universe — one merge class per model.
const BASE_MODELS: [GnnModel; 3] = [GnnModel::Gcn, GnnModel::Gin, GnnModel::Sage];
/// Distinct seed nodes per model (profiled universe = models × seeds).
const SEEDS_PER_MODEL: usize = 8;
/// Virtual-user key space: the profiled shapes tiled so each request is
/// effectively a distinct user — duplicate in-flight keys (and with
/// them request coalescing) become negligible, which is the regime
/// cross-request batching exists for.
const VIRTUAL_USERS: usize = 1440;
/// Offered load as a multiple of the unbatched serving capacity.
const RATE_MULTS: [f64; 3] = [0.6, 1.2, 2.5];

pub(crate) fn spec_servebatch() -> ScenarioSpec {
    ScenarioSpec {
        name: "servebatch",
        title: "cross-request batching: goodput and tail latency by offered rate x batch policy (ego-net mix)",
        models: vec![GnnModel::Gcn],
        datasets: vec![Dataset::Cora],
        comp_models: vec![CompModel::Mp],
        ..ScenarioSpec::default()
    }
}

/// One sweep policy row; `max_batch == 1` is the unbatched baseline
/// (locked byte-identical to the unbatched simulation).
struct Policy {
    label: &'static str,
    policy: BatchPolicy,
}

fn policies(delay_ms: f64) -> Vec<Policy> {
    vec![
        Policy {
            label: "unbatched",
            policy: BatchPolicy {
                max_batch: 1,
                max_queue_delay_ms: 0.0,
                max_backlog: 0,
            },
        },
        Policy {
            label: "batch<=4",
            policy: BatchPolicy {
                max_batch: 4,
                max_queue_delay_ms: delay_ms,
                max_backlog: 0,
            },
        },
        Policy {
            label: "batch<=8",
            policy: BatchPolicy {
                max_batch: 8,
                max_queue_delay_ms: delay_ms,
                max_backlog: 0,
            },
        },
        Policy {
            label: "batch<=8 backlog 2",
            policy: BatchPolicy {
                max_batch: 8,
                max_queue_delay_ms: delay_ms,
                max_backlog: 2,
            },
        },
    ]
}

/// Builds and profiles the ego-net key universe over the scenario's
/// loaded graph: one merge group per base model, [`SEEDS_PER_MODEL`]
/// distinct seed nodes each. The solo profile gives `service_ms`; the
/// self-pair merged profile gives the two-point `fixed`/`marginal`
/// split (identical to the loadgen probe in `gsuite-serve`).
fn ego_costs(result: &ScenarioResult, opts: &BenchOpts) -> Vec<SimCosts> {
    let graph = result
        .graph(Dataset::Cora)
        .expect("the spec grid loads Cora");
    let base = &result.iter().next().expect("grid is non-empty").0.config;
    let feature_len = graph.stats().feature_len;
    let profiler = opts.hw();
    let nodes = graph.num_nodes() as u32;
    let mut costs = Vec::with_capacity(BASE_MODELS.len() * SEEDS_PER_MODEL);
    for (group, &model) in BASE_MODELS.iter().enumerate() {
        for s in 0..SEEDS_PER_MODEL {
            // Seed nodes spread deterministically over the graph.
            let seed_node = (s as u32 * 37 + group as u32 * 11) % nodes;
            let config = RunConfig {
                model,
                hidden: 8,
                seed_node: Some(seed_node),
                fanout: vec![4, 4],
                ..base.clone()
            };
            assert!(merge_class(&config).is_some(), "ego configs must merge");
            let (solo, parts) =
                PipelineRun::build_merged(graph, std::slice::from_ref(&config)).expect("ego build");
            let alone_ms = solo.profile(&profiler).total_time_ms();
            let pair = [config.clone(), config.clone()];
            let (pair_run, _) = PipelineRun::build_merged(graph, &pair).expect("pair probe");
            let pair_ms = pair_run.profile(&profiler).total_time_ms();
            let bytes = (parts[0].nodes * (feature_len * 4 + 8) + parts[0].edges * 8 + 512) as u64;
            costs.push(SimCosts {
                service_ms: alone_ms,
                build_ms: build_cost_ms(bytes) + 2.0 * alone_ms,
                exchange_ms: 0.0,
                bytes,
                template: None,
                batch: Some(SimBatch::two_point(group, alone_ms, pair_ms)),
                error: None,
            });
        }
    }
    // Tile the profiled shapes across the virtual-user key space: same
    // measured costs and merge groups, but distinct simulation keys, so
    // two users asking for the same shape are separate requests (no
    // identical-key coalescing) that the former may still merge.
    (0..VIRTUAL_USERS)
        .map(|u| costs[u % costs.len()].clone())
        .collect()
}

/// The capacity model of an ego-net universe.
struct Load {
    /// Mean per-request work: every request pays its own cold build plus
    /// inference (distinct users, one-byte LRU).
    mean_work_ms: f64,
    /// Unbatched serving capacity of the worker pool.
    capacity_rps: f64,
    slo_ms: f64,
    /// The batch former's head delay budget.
    delay_ms: f64,
}

fn load_model(costs: &[SimCosts]) -> Load {
    let mean_work_ms =
        costs.iter().map(|c| c.build_ms + c.service_ms).sum::<f64>() / costs.len() as f64;
    Load {
        mean_work_ms,
        capacity_rps: WORKERS as f64 / mean_work_ms * 1000.0,
        slo_ms: 8.0 * mean_work_ms,
        delay_ms: 2.0 * mean_work_ms,
    }
}

/// Replays the fixed seeded request stream at `rate_rps` under `policy`.
/// Every policy row of one rate sees the same stream.
fn replay(costs: &[SimCosts], rate_rps: f64, policy: BatchPolicy) -> SimOutcome {
    let (keys, arrivals) = jittered_stream(STREAM_SEED, REQUESTS, costs.len(), 1000.0 / rate_rps);
    let at = Arrivals::Open {
        at_ms: &arrivals,
        batch: Some(policy),
    };
    let params = SimParams::new(WORKERS, QUEUE_CAP, 1);
    simulate(&keys, at, costs, params, None).0
}

pub(crate) fn render_servebatch(result: &ScenarioResult, opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header(
        "Scenario servebatch",
        "offered rate x batch policy over the ego-net serving simulation",
    );

    let costs = ego_costs(result, opts);
    let load = load_model(&costs);

    let mut table = TextTable::new(&[
        "rate (rps)",
        "policy",
        "ok",
        "shed",
        "batches",
        "avg-size",
        "goodput (rps)",
        "p99 (ms)",
        "SLO",
    ]);
    for mult in RATE_MULTS {
        let rate_rps = load.capacity_rps * mult;
        for p in policies(load.delay_ms) {
            let out = replay(&costs, rate_rps, p.policy);
            let row = tally(&out, load.slo_ms);
            let batch = &out.counters.batch;
            table.row_owned(vec![
                format!("{rate_rps:.1}"),
                p.label.to_string(),
                row.ok.to_string(),
                row.shed.to_string(),
                batch.batches.to_string(),
                format!("{:.2}", batch.avg_size()),
                format!("{:.1}", row.goodput_rps),
                ms(row.p99_ms),
                pct(row.slo),
            ]);
        }
    }
    report.table(
        "servebatch",
        "Offered rate x batch policy — goodput, tail latency, batch sizes",
        table,
    );
    report.note(format!(
        "universe: {} profiled ego-net shapes ({} models x {SEEDS_PER_MODEL} seed nodes, \
         fanout 4x4) tiled over {VIRTUAL_USERS} virtual users; stream seed {STREAM_SEED}, \
         {REQUESTS} requests per row",
        BASE_MODELS.len() * SEEDS_PER_MODEL,
        BASE_MODELS.len(),
    ));
    report.note(format!(
        "capacity model: mean per-request work {} ms (cold build + inference) over {WORKERS} \
         workers -> {:.1} rps unbatched; SLO {}, former delay {}",
        ms(load.mean_work_ms),
        load.capacity_rps,
        ms(load.slo_ms),
        ms(load.delay_ms),
    ));
    report.note(
        "(distinct-user regime: the pipeline LRU is held at one byte, so solo requests pay \
         their own compile while merged batches share one amortized build — replayable, \
         byte-identical for every --threads value)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_scenario_threads;

    /// The acceptance shape, asserted directly on the outcomes: at the
    /// top offered rate the batch<=8 policy must at least double the
    /// unbatched goodput and hold the SLO the unbatched path misses.
    fn assert_batching_wins(result: &ScenarioResult, opts: &BenchOpts) {
        let costs = ego_costs(result, opts);
        let load = load_model(&costs);
        let rate_rps = load.capacity_rps * RATE_MULTS[RATE_MULTS.len() - 1];
        let rows = policies(load.delay_ms);
        let solo = tally(&replay(&costs, rate_rps, rows[0].policy), load.slo_ms);
        let batched = tally(&replay(&costs, rate_rps, rows[2].policy), load.slo_ms);
        assert!(
            batched.goodput_rps >= 2.0 * solo.goodput_rps,
            "batched {:.1} rps vs unbatched {:.1} rps",
            batched.goodput_rps,
            solo.goodput_rps,
        );
        assert!(solo.slo < 0.99, "unbatched must miss the SLO at overload");
        assert!(batched.slo >= 0.99, "batched must hold the SLO");
    }

    #[test]
    fn servebatch_report_is_thread_count_invariant_and_batching_wins() {
        let opts = BenchOpts::golden();
        let spec = spec_servebatch();
        let serial = run_scenario_threads(&spec, &opts, 1);
        let parallel = run_scenario_threads(&spec, &opts, 4);
        let a = render_servebatch(&serial, &opts).render(&opts);
        let b = render_servebatch(&parallel, &opts).render(&opts);
        assert_eq!(a, b);
        assert_batching_wins(&serial, &opts);

        // The default mode (full-scale Cora) prints the headline
        // numbers of `gsuite-cli run-scenario servebatch`; the shape
        // must hold there too.
        let opts = BenchOpts::default();
        assert_batching_wins(&run_scenario_threads(&spec, &opts, 2), &opts);
    }
}
