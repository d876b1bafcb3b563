//! The cross-request batching layer's guarantees, locked at the
//! workspace level — the PR's differential batched ≡ unbatched
//! contract:
//!
//! 1. **Member bit-identity** — for every model × computational model ×
//!    framework combination the pipeline can build, each member of a
//!    merged batch ([`PipelineRun::build_merged`]) produces exactly the
//!    output the solo build produces, bit for bit; combinations the
//!    merge former refuses (`merge_class == None` for a single-GPU,
//!    non-sweep config) are exactly the statically-unbuildable ones.
//! 2. **Batch-of-one ≡ solo** — a merged batch with one member compiles
//!    to the same launch stream, peak-bytes accounting and output as
//!    the plain solo pipeline.
//! 3. **Template-cache parity** — a repeat-shape merged batch served
//!    from the template cache is bit-identical to the full merged
//!    compile (output, parts, peak bytes, launch kinds), and the cache
//!    state advances hit/miss/instantiate exactly once each.
//! 4. **Serving-layer determinism** — a batched sim-clock loadgen run
//!    is a pure function of `(scenario, seed, parameters)`: reports,
//!    Chrome-trace JSON and metrics exposition are byte-identical
//!    across repeated runs and `--threads`; with `max_batch == 1` the
//!    report collapses to the unbatched report byte-for-byte.
//! 5. **Former properties** — the streaming [`BatchFormer`] matches a
//!    brute-force reference model on random arrival sequences, timer
//!    ticks and policies, never violates `max_batch`/`max_queue_delay_ms`,
//!    never starves a request, and preserves FIFO-within-batch order
//!    (mirrors the LRU/breaker oracle style in `tests/serve.rs`).
//! 6. **One former, two clocks** — a batched stream forms the same
//!    batches, sheds the same requests and completes the same work on
//!    the sim clock and on the live server.

use proptest::prelude::*;

use gsuite::core::config::{CompModel, FrameworkKind, GnnModel, RunConfig};
use gsuite::core::pipeline::{PipelineRun, WorkerScratch};
use gsuite::core::plan::batchmerge::merge_class;
use gsuite::core::plan::template::TemplateCache;
use gsuite::scenarios::BenchOpts;
use gsuite::serve::fault::FaultPlan;
use gsuite::serve::sim::{BatchArrival, BatchFormer, BatchPolicy, FormedBatch, FormerEvent};
use gsuite::serve::{
    run_loadgen, run_loadgen_traced, ArrivalMode, BatchSummary, ClockMode, LoadReport, LoadSpec,
};
use gsuite::telemetry::json;

/// Bitwise f32 equality — the differential layer's definition of
/// "identical": not approximately equal, the same bytes.
fn bits(m: &gsuite::tensor::DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn ego_config(model: GnnModel, comp: CompModel, framework: FrameworkKind, node: u32) -> RunConfig {
    RunConfig {
        model,
        comp,
        framework,
        scale: 0.05,
        hidden: 8,
        functional_math: true,
        seed_node: Some(node),
        fanout: vec![4, 4],
        ..RunConfig::default()
    }
}

// ---------------------------------------------------------------------------
// 1. Every model × format × framework: merged members ≡ solo builds.
// ---------------------------------------------------------------------------

#[test]
fn every_model_and_format_mix_merges_bit_identical_to_solo() {
    let models = [
        GnnModel::Gcn,
        GnnModel::Gin,
        GnnModel::Sage,
        GnnModel::Gat,
        GnnModel::Sgc,
        GnnModel::Rgcn,
    ];
    let comps = [CompModel::Mp, CompModel::Spmm];
    let frameworks = [
        FrameworkKind::GSuite,
        FrameworkKind::PygLike,
        FrameworkKind::DglLike,
    ];
    let (mut covered, mut refused) = (0usize, 0usize);
    for framework in frameworks {
        for model in models {
            for comp in comps {
                let configs: Vec<RunConfig> = [3u32, 9, 27]
                    .iter()
                    .map(|&n| ego_config(model, comp, framework, n))
                    .collect();
                let graph = configs[0].load_graph();
                let Some(class) = merge_class(&configs[0]) else {
                    // The former refuses exactly the statically-unbuildable
                    // combinations: the solo build must fail too, so a
                    // merged batch never carries a poison member.
                    refused += 1;
                    assert!(
                        PipelineRun::build(&graph, &configs[0]).is_err(),
                        "{model:?}/{comp:?}/{framework:?}: refused to merge yet solo-buildable"
                    );
                    continue;
                };
                covered += 1;
                for c in &configs[1..] {
                    assert_eq!(merge_class(c).as_ref(), Some(&class), "seed node leaked");
                }
                let (run, parts) =
                    PipelineRun::build_merged(&graph, &configs).unwrap_or_else(|e| {
                        panic!("{model:?}/{comp:?}/{framework:?}: merged build failed: {e}")
                    });
                assert_eq!(parts.len(), configs.len());
                let mut stacked = Vec::new();
                for (config, part) in configs.iter().zip(&parts) {
                    let solo = PipelineRun::build(&graph, config).expect("solo build");
                    assert_eq!(
                        bits(&part.output),
                        bits(&solo.output),
                        "{model:?}/{comp:?}/{framework:?} seed_node={:?}: member diverged",
                        config.seed_node
                    );
                    assert!(part.nodes > 0 && part.edges > 0);
                    stacked.extend(bits(&part.output));
                }
                // The combined plan's output is the members stacked row-wise.
                assert_eq!(bits(&run.output), stacked, "stacking order broke");
            }
        }
    }
    // 3 frameworks × 6 models × 2 comps = 36 combos; the refused set is
    // the fixed unsupported list, everything else is proven above.
    assert_eq!(covered + refused, 36);
    assert!(covered >= 29, "only {covered} combos covered");
}

/// Full-graph requests with *different* models over the same dataset
/// merge block-diagonally, and every member keeps its solo output.
#[test]
fn heterogeneous_full_graph_batch_members_match_solo() {
    let base = RunConfig {
        scale: 0.05,
        hidden: 8,
        functional_math: true,
        ..RunConfig::default()
    };
    let configs = vec![
        base.clone(),
        RunConfig {
            model: GnnModel::Gin,
            seed: 7,
            ..base.clone()
        },
        RunConfig {
            model: GnnModel::Sgc,
            ..base.clone()
        },
    ];
    let class = merge_class(&configs[0]).expect("full-graph mergeable");
    for c in &configs[1..] {
        assert_eq!(
            merge_class(c).as_ref(),
            Some(&class),
            "model leaked into class"
        );
    }
    let graph = base.load_graph();
    let (_, parts) = PipelineRun::build_merged(&graph, &configs).expect("merged build");
    for (config, part) in configs.iter().zip(&parts) {
        let solo = PipelineRun::build(&graph, config).expect("solo build");
        assert_eq!(bits(&part.output), bits(&solo.output), "{}", config.label());
        assert_eq!(
            (part.nodes, part.edges),
            (graph.num_nodes(), graph.num_edges())
        );
    }
}

// ---------------------------------------------------------------------------
// 2. Batch of one ≡ the solo pipeline, peak bytes included.
// ---------------------------------------------------------------------------

#[test]
fn batch_of_one_is_bit_identical_to_the_solo_pipeline() {
    let config = ego_config(GnnModel::Gcn, CompModel::Mp, FrameworkKind::GSuite, 11);
    let graph = config.load_graph();
    let solo = PipelineRun::build(&graph, &config).expect("solo build");
    let (merged, parts) =
        PipelineRun::build_merged(&graph, std::slice::from_ref(&config)).expect("merged build");
    assert_eq!(parts.len(), 1);
    assert_eq!(bits(&merged.output), bits(&solo.output));
    assert_eq!(bits(&parts[0].output), bits(&solo.output));
    assert_eq!(
        merged.peak_device_bytes, solo.peak_device_bytes,
        "a batch of one must not change the memory plan"
    );
    let kinds = |run: &PipelineRun| run.launches.iter().map(|l| l.kind).collect::<Vec<_>>();
    assert_eq!(kinds(&merged), kinds(&solo), "launch stream diverged");
}

// ---------------------------------------------------------------------------
// 3. Template-cache parity: hit ≡ miss, cache state advances exactly.
// ---------------------------------------------------------------------------

#[test]
fn template_hit_reproduces_the_full_merged_compile() {
    let configs: Vec<RunConfig> = [5u32, 17, 23]
        .iter()
        .map(|&n| ego_config(GnnModel::Gin, CompModel::Spmm, FrameworkKind::GSuite, n))
        .collect();
    let graph = configs[0].load_graph();
    let templates = TemplateCache::new();
    let mut scratch = WorkerScratch::new();

    let (cold, cold_parts) =
        PipelineRun::build_merged_with_templates(&graph, &configs, &templates, &mut scratch)
            .expect("cold merged build");
    let after_miss = templates.stats();
    assert_eq!((after_miss.misses, after_miss.hits), (1, 0));
    assert_eq!(after_miss.entries, 1, "cold build must capture a template");

    let (warm, warm_parts) =
        PipelineRun::build_merged_with_templates(&graph, &configs, &templates, &mut scratch)
            .expect("warm merged build");
    let after_hit = templates.stats();
    assert_eq!((after_hit.misses, after_hit.hits), (1, 1));
    assert_eq!(after_hit.instantiates, 1);

    assert_eq!(bits(&warm.output), bits(&cold.output));
    assert_eq!(warm.peak_device_bytes, cold.peak_device_bytes);
    let kinds = |run: &PipelineRun| run.launches.iter().map(|l| l.kind).collect::<Vec<_>>();
    assert_eq!(kinds(&warm), kinds(&cold));
    assert_eq!(warm_parts.len(), cold_parts.len());
    for (w, c) in warm_parts.iter().zip(&cold_parts) {
        assert_eq!(bits(&w.output), bits(&c.output));
        assert_eq!((w.nodes, w.edges), (c.nodes, c.edges));
    }
}

// ---------------------------------------------------------------------------
// 4. Serving-layer determinism: reports, traces, metrics.
// ---------------------------------------------------------------------------

fn batched_spec() -> LoadSpec {
    LoadSpec {
        requests: 64,
        seed: 42,
        arrival: ArrivalMode::Open { rate_rps: 400.0 },
        clock: ClockMode::Sim,
        batch: Some(BatchPolicy {
            max_batch: 4,
            max_queue_delay_ms: 5.0,
            max_backlog: 0,
        }),
        ..LoadSpec::default()
    }
}

#[test]
fn batched_sim_runs_are_byte_identical_across_runs_and_threads() {
    let spec = batched_spec();
    let (report_a, trace_a) = run_loadgen_traced(&spec).expect("traced batched run");
    let (report_b, trace_b) = run_loadgen_traced(&spec).expect("traced batched rerun");

    let json_a = trace_a.to_chrome_json();
    assert_eq!(
        json_a,
        trace_b.to_chrome_json(),
        "batched trace must replay"
    );
    json::validate(&json_a).expect("exported trace is valid JSON");
    assert_eq!(report_a.render(), report_b.render());
    assert_eq!(report_a.to_json(), report_b.to_json());
    assert_eq!(report_a.metrics().render(), report_b.metrics().render());

    let wide = LoadSpec {
        threads: 4,
        ..batched_spec()
    };
    let (report_w, trace_w) = run_loadgen_traced(&wide).expect("wide batched run");
    assert_eq!(json_a, trace_w.to_chrome_json(), "threads leak into trace");
    assert_eq!(report_a.metrics().render(), report_w.metrics().render());

    // The run actually batched, and the orchestration spans are
    // accounted in the phase breakdown.
    let batch = &report_a.counters.batch;
    assert!(batch.batches > 0, "no batches dispatched");
    assert!(batch.batched_requests >= batch.batches);
    assert!(
        batch.size_hist.iter().skip(1).any(|&n| n > 0),
        "no multi-member batch: {:?}",
        batch.size_hist
    );
    for phase in ["batch.form", "batch.scatter"] {
        assert!(
            report_a.phases.iter().any(|(name, _)| name == phase),
            "missing {phase} phase"
        );
    }
    let render = report_a.render();
    assert!(render.contains("batch:"), "render must surface the summary");
}

#[test]
fn max_batch_one_report_collapses_to_the_unbatched_report() {
    let unbatched = LoadSpec {
        batch: None,
        ..batched_spec()
    };
    let degenerate = LoadSpec {
        batch: Some(BatchPolicy {
            max_batch: 1,
            max_queue_delay_ms: 0.0,
            max_backlog: 0,
        }),
        ..batched_spec()
    };
    let solo = run_loadgen(&unbatched).expect("unbatched run");
    let batched = run_loadgen(&degenerate).expect("max_batch=1 run");
    let mut stripped = batched.clone();
    stripped.counters.batch = BatchSummary::default();
    assert_eq!(
        stripped, solo,
        "max_batch=1 must serve every request exactly like the unbatched path"
    );
}

// ---------------------------------------------------------------------------
// 5. The batch former vs a brute-force reference model.
// ---------------------------------------------------------------------------

/// The brute-force former: no ordering cleverness, no streaming state
/// discipline — it re-scans every open batch at every step. Same
/// observable semantics as [`BatchFormer`] by construction of the spec,
/// not by sharing code.
struct ModelFormer {
    policy: BatchPolicy,
    open: Vec<(f64, usize, Vec<BatchArrival>)>,
}

impl ModelFormer {
    fn new(policy: BatchPolicy) -> Self {
        ModelFormer {
            policy,
            open: Vec::new(),
        }
    }

    fn next_expiry(&self) -> Option<f64> {
        self.open
            .iter()
            .map(|(head, _, _)| head + self.policy.max_queue_delay_ms)
            .min_by(f64::total_cmp)
    }

    fn dispatch_expired(&mut self, now: f64, out: &mut Vec<FormerEvent>) {
        // Oldest head first, full scan every time.
        while let Some(i) = self
            .open
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
            .map(|(i, _)| i)
        {
            let (head, _, _) = self.open[i];
            if head + self.policy.max_queue_delay_ms > now {
                break;
            }
            let (head_ms, _, members) = self.open.remove(i);
            out.push(FormerEvent::Dispatch(FormedBatch {
                dispatch_ms: head_ms + self.policy.max_queue_delay_ms,
                head_ms,
                members,
            }));
        }
    }

    fn offer(&mut self, arrival: BatchArrival, out: &mut Vec<FormerEvent>) {
        self.dispatch_expired(arrival.at_ms, out);
        let singleton = |a: BatchArrival| {
            FormerEvent::Dispatch(FormedBatch {
                dispatch_ms: a.at_ms,
                head_ms: a.at_ms,
                members: vec![a],
            })
        };
        let Some(group) = arrival.group else {
            out.push(singleton(arrival));
            return;
        };
        let joinable = self
            .open
            .iter()
            .enumerate()
            .filter(|(_, (_, g, _))| *g == group)
            .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
            .map(|(i, _)| i);
        if let Some(i) = joinable {
            self.open[i].2.push(arrival);
            if self.open[i].2.len() >= self.policy.max_batch {
                let (head_ms, _, members) = self.open.remove(i);
                let filled = members.last().expect("non-empty").at_ms;
                out.push(FormerEvent::Dispatch(FormedBatch {
                    dispatch_ms: filled,
                    head_ms,
                    members,
                }));
            }
        } else if self.policy.max_backlog > 0 && self.open.len() >= self.policy.max_backlog {
            out.push(FormerEvent::Shed(arrival));
        } else if self.policy.max_batch <= 1 {
            out.push(singleton(arrival));
        } else {
            self.open.push((arrival.at_ms, group, vec![arrival]));
        }
    }

    fn flush(&mut self, out: &mut Vec<FormerEvent>) {
        self.open.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (head_ms, _, members) in self.open.drain(..) {
            out.push(FormerEvent::Dispatch(FormedBatch {
                dispatch_ms: head_ms + self.policy.max_queue_delay_ms,
                head_ms,
                members,
            }));
        }
    }
}

/// Drives the real former and the reference through the same arrivals,
/// each preceded by an optional timer tick at `ticks[i]`, then flushes
/// both; checks that both agree on the next expiry after every step.
fn run_both(
    policy: BatchPolicy,
    arrivals: &[BatchArrival],
    ticks: &[Option<f64>],
) -> (Vec<FormerEvent>, Vec<FormerEvent>) {
    let mut former = BatchFormer::new(policy);
    let mut model = ModelFormer::new(policy);
    let (mut real, mut reference) = (Vec::new(), Vec::new());
    for (a, tick) in arrivals.iter().zip(ticks) {
        if let Some(now) = *tick {
            former.expire(now, &mut |e| real.push(e));
            model.dispatch_expired(now, &mut reference);
            assert_eq!(former.next_expiry(), model.next_expiry(), "after tick");
        }
        former.offer(a.clone(), &mut |e| real.push(e));
        model.offer(a.clone(), &mut reference);
        assert_eq!(former.next_expiry(), model.next_expiry(), "after offer");
    }
    former.flush(&mut |e| real.push(e));
    model.flush(&mut reference);
    assert_eq!(former.next_expiry(), None);
    (real, reference)
}

/// The satellite's property bundle, checked on the real former's event
/// stream directly (independent of the reference comparison).
fn check_former_invariants(policy: BatchPolicy, arrivals: &[BatchArrival], events: &[FormerEvent]) {
    let cap = policy.max_batch.max(1);
    let mut resolved: Vec<u64> = Vec::new();
    let mut last_event_ms = f64::NEG_INFINITY;
    for event in events {
        match event {
            FormerEvent::Dispatch(batch) => {
                assert!(!batch.members.is_empty(), "empty dispatch");
                assert!(batch.members.len() <= cap, "max_batch violated");
                assert_eq!(batch.head_ms, batch.members[0].at_ms);
                assert!(
                    batch.dispatch_ms <= batch.head_ms + policy.max_queue_delay_ms,
                    "head starved past its delay budget"
                );
                assert!(batch.dispatch_ms >= batch.members.last().expect("non-empty").at_ms);
                // FIFO within the batch: members keep arrival order.
                for pair in batch.members.windows(2) {
                    assert!(pair[0].index < pair[1].index, "batch reordered members");
                    assert!(pair[0].at_ms <= pair[1].at_ms);
                }
                assert!(batch.dispatch_ms >= last_event_ms, "time ran backwards");
                last_event_ms = batch.dispatch_ms;
                resolved.extend(batch.members.iter().map(|m| m.index));
            }
            FormerEvent::Shed(a) => {
                assert!(a.group.is_some(), "group-less arrivals never shed");
                assert!(policy.max_backlog > 0, "shed with no backlog bound");
                assert!(a.at_ms >= last_event_ms, "time ran backwards");
                last_event_ms = a.at_ms;
                resolved.push(a.index);
            }
        }
    }
    // No request starves, none is duplicated: after flush, every arrival
    // resolved exactly once.
    let mut expected: Vec<u64> = arrivals.iter().map(|a| a.index).collect();
    expected.sort_unstable();
    resolved.sort_unstable();
    assert_eq!(resolved, expected, "arrivals lost or duplicated");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn former_matches_brute_force_reference(
        max_batch in 1usize..6,
        delay_halves in 0u8..8,
        max_backlog in 0usize..4,
        steps in proptest::collection::vec(
            // (gap, group, tick): half-ms gaps keep every timestamp
            // binary-exact, so reference and real former face identical
            // tie-breaks; group 0 encodes "unmergeable" (`None`); tick 1
            // fires a timer halfway through the gap, tick 2 at the
            // arrival's own instant, tick 0 none.
            (0u8..5, 0usize..4, 0u8..3),
            0..60,
        ),
    ) {
        let policy = BatchPolicy {
            max_batch,
            max_queue_delay_ms: f64::from(delay_halves) * 0.5,
            max_backlog,
        };
        let mut at_ms = 0.0;
        let (arrivals, ticks): (Vec<BatchArrival>, Vec<Option<f64>>) = steps
            .iter()
            .enumerate()
            .map(|(i, &(gap, group, tick))| {
                let gap_ms = f64::from(gap) * 0.5;
                at_ms += gap_ms;
                let tick = match tick {
                    1 => Some(at_ms - gap_ms * 0.5),
                    2 => Some(at_ms),
                    _ => None,
                };
                let group = group.checked_sub(1);
                (BatchArrival { index: i as u64, key: i % 5, group, at_ms }, tick)
            })
            .unzip();
        let (real, model) = run_both(policy, &arrivals, &ticks);
        prop_assert_eq!(&real, &model, "streaming former diverged from reference");
        check_former_invariants(policy, &arrivals, &real);
    }
}

// ---------------------------------------------------------------------------
// 6. One former, two clocks: the sim and the live server batch alike.
// ---------------------------------------------------------------------------

/// One batched open-loop stream on both clocks. The whole burst arrives
/// far inside the 500 ms delay, so the former's decisions depend only on
/// arrival order, merge keys and the policy, which both clocks share.
/// Coalescing and cache counters stay out: a singleton's coalescing
/// depends on execution time. The batch-size histogram is in: both
/// clocks count a dispatch by the same rule.
#[test]
fn sim_and_wall_clocks_form_the_same_batches() {
    let spec = |clock| LoadSpec {
        scenario: "serve-mix".to_string(),
        seed: 42,
        requests: 48,
        arrival: ArrivalMode::Open {
            rate_rps: 100_000.0,
        },
        clock,
        workers: 1,
        batch: Some(BatchPolicy {
            max_batch: 4,
            max_queue_delay_ms: 500.0,
            max_backlog: 2,
        }),
        opts: BenchOpts::golden(),
        ..LoadSpec::default()
    };
    let counters = |r: &LoadReport| {
        let b = &r.counters.batch;
        (
            r.completed,
            r.errors,
            r.counters.rejected,
            b.batches,
            b.batched_requests,
            b.shed,
            b.size_hist.clone(),
        )
    };
    let sim = run_loadgen(&spec(ClockMode::Sim)).expect("sim run");
    assert_eq!(
        counters(&sim),
        (37, 8, 0, 16, 37, 11, vec![8, 1, 1, 6]),
        "the sim's batching"
    );
    let wall = run_loadgen(&spec(ClockMode::Wall)).expect("wall run");
    assert_eq!(
        counters(&wall),
        counters(&sim),
        "the wall batched otherwise"
    );
}

/// A faulted, batched run's `outcome:` line splits every request into
/// exactly one of ok, failed and shed, batch-former sheds included.
#[test]
fn fault_mode_outcome_counts_every_request_once() {
    let spec = LoadSpec {
        scenario: "serve-mix".to_string(),
        seed: 42,
        requests: 96,
        arrival: ArrivalMode::Open {
            rate_rps: 100_000.0,
        },
        workers: 1,
        fault: Some(FaultPlan::mixed(3, 0.1)),
        batch: Some(BatchPolicy {
            max_batch: 4,
            max_queue_delay_ms: 300.0,
            max_backlog: 1,
        }),
        ..LoadSpec::default()
    };
    let report = run_loadgen(&spec).expect("sim run");
    let text = report.render();
    let outcome = text
        .lines()
        .find(|l| l.starts_with("outcome: "))
        .expect("fault mode prints an outcome line");
    let count = |key: &str| -> usize {
        let tok = outcome
            .split_whitespace()
            .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
            .unwrap_or_else(|| panic!("no {key}= in {outcome:?}"));
        tok.parse().expect("a count")
    };
    assert_eq!(
        count("ok") + count("failed") + count("shed"),
        spec.requests,
        "{text}"
    );
}
