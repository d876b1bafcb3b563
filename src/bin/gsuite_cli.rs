//! The gSuite command-line interface — the paper's "pass a few parameters"
//! user surface (Fig. 1), the scenario registry, and the serving layer.
//!
//! ```text
//! gsuite-cli [--config FILE] [--model gcn|gin|sag] [--comp mp|spmm]
//!            [--dataset cora|citeseer|pubmed|reddit|livejournal]
//!            [--scale F] [--layers N] [--hidden N]
//!            [--framework gsuite|pyg|dgl] [--seed N]
//!            [--backend hw|sim] [--sim-sms N] [--max-ctas N] [--quiet]
//!
//! gsuite-cli run-scenario --list [--filter STR]
//! gsuite-cli run-scenario NAME [--quick|--full] [--csv DIR] [--threads N]
//!                              [--opt 0|2] [--shards N] [--partitioner NAME]
//!                              [--batch-size N] [--fanout 10x5] [--trace FILE]
//!
//! gsuite-cli docs-scenarios [--check|--write]
//!
//! gsuite-cli explain [MODEL] [--json] [pipeline flags ...]
//!
//! gsuite-cli serve   [--host H] [--port N] [--threads N] [--queue N]
//!                    [--cache-mb N] [--fault-seed N [--fault-rate F]]
//!                    [--batch N [--batch-delay-ms F] [--batch-backlog N]]
//!                    [--quick|--full]
//! gsuite-cli loadgen [--scenario NAME] [--seed N] [--requests N]
//!                    [--clients N | --rate RPS] [--clock sim|wall]
//!                    [--workers N] [--threads N] [--queue N] [--cache-mb N]
//!                    [--slo-ms F] [--fault-seed N [--fault-rate F]]
//!                    [--deadline-ms F] [--retries N] [--breaker]
//!                    [--batch N [--batch-delay-ms F] [--batch-backlog N]]
//!                    [--connect ADDR [--stop-server]]
//!                    [--json FILE] [--trace FILE] [--metrics] [--full]
//! gsuite-cli trace-export FILE [loadgen flags]   # sim clock, forced
//! ```
//!
//! Without a subcommand: builds the configured pipeline, runs it
//! functionally, profiles every kernel launch on the selected backend and
//! prints a characterization report. `run-scenario` executes a named
//! experiment grid from the registry; `serve` runs the benchmark service
//! over TCP; `loadgen` drives a workload mix through the service (or a
//! deterministic simulation of it) and reports throughput, latency
//! percentiles and SLO attainment.

use std::process::ExitCode;

use gsuite_core::config::RunConfig;
use gsuite_core::pipeline::PipelineRun;
use gsuite_profile::{HwProfiler, PipelineProfile, Profiler, SimProfiler, TextTable};
use gsuite_scenarios::{registry, BenchOpts};
use gsuite_serve::fault::{BreakerConfig, FaultPlan, RetryPolicy};
use gsuite_serve::sim::BatchPolicy;
use gsuite_serve::{
    loadgen_tcp, run_loadgen, run_loadgen_traced, serve_blocking, ArrivalMode, ClockMode,
    LoadReport, LoadSpec, ServeConfig,
};
use gsuite_telemetry::{Attr, ClockDomain, SpanSink, Trace};

/// A subcommand handler over its argument tail.
type Subcommand = fn(&[String]) -> Result<(), String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dispatch: Option<Subcommand> = match args.first().map(String::as_str) {
        Some("run-scenario") => Some(run_scenario_cmd),
        Some("explain") => Some(explain_cmd),
        Some("serve") => Some(serve_cmd),
        Some("loadgen") => Some(loadgen_cmd),
        Some("trace-export") => Some(trace_export_cmd),
        Some("docs-scenarios") => Some(docs_scenarios_cmd),
        _ => None,
    };
    if let Some(cmd) = dispatch {
        return match cmd(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("run with --help for usage");
                ExitCode::FAILURE
            }
        };
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run with --help for usage");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "gsuite-cli: framework-independent GNN inference benchmark\n\
         \n\
         pipeline flags (defaults in parentheses):\n\
           --config FILE          apply a key=value defaults file first\n\
           --model gcn|gin|sag    GNN model (gcn)\n\
           --comp mp|spmm         computational model (mp)\n\
           --dataset NAME         cora|citeseer|pubmed|reddit|livejournal (cora)\n\
           --scale F              dataset scale in (0,1] (1.0)\n\
           --layers N             GNN layers (2)\n\
           --hidden N             hidden width (16)\n\
           --framework NAME       gsuite|pyg|dgl (gsuite)\n\
           --seed N               weight seed (42)\n\
           --functional BOOL      compute real outputs host-side (true)\n\
           --opt 0|2              plan optimization level (0 = golden-compatible\n\
                                  launch stream, 2 = fusion/hoist/memory planning)\n\
           --shards N             modeled devices; N > 1 partitions the graph and\n\
                                  compiles one op DAG per shard + halo exchanges (1)\n\
           --partitioner NAME     hash|range|edgecut shard assignment (hash)\n\
           --batch-size N         neighbor-sampled mini-batch size; N > 0 compiles\n\
                                  every sampled batch into one plan (0 = full graph)\n\
           --fanout SPEC          per-hop sampling fanouts, e.g. 10x5 (10 per hop)\n\
           --seed-node N          compile one sampled ego-net around node N\n\
         \n\
         measurement flags:\n\
           --backend hw|sim       analytical profiler or cycle simulator (hw)\n\
           --sim-sms N            simulated SM count for --backend sim (8)\n\
           --max-ctas N           CTA sampling cap for --backend sim (2048)\n\
           --spans                append the run's span tree (compile phases,\n\
                                  per-kernel launches) to the report\n\
           --quiet                print only the summary line\n\
         \n\
         scenario registry:\n\
           run-scenario --list [--filter STR]   list registered scenarios\n\
           run-scenario NAME [--quick|--full] [--csv DIR] [--threads N]\n\
                        [--opt 0|2] [--shards N] [--partitioner NAME]\n\
                        [--batch-size N] [--fanout SPEC] [--trace FILE]\n\
                                  run one named experiment grid (the paper's\n\
                                  figures plus beyond-paper scenarios); --opt\n\
                                  forces one plan-optimization level on every\n\
                                  cell (see the planopt scenario for O0 vs O2),\n\
                                  --shards/--partitioner force the multi-GPU\n\
                                  axis (see the multigpu scenario),\n\
                                  --batch-size/--fanout force the mini-batch\n\
                                  axes (see the minibatch scenario);\n\
                                  --trace exports the grid as a Chrome-trace\n\
                                  JSON (Perfetto-loadable, sim clock)\n\
           docs-scenarios [--check|--write]\n\
                                  the generated markdown scenario reference\n\
                                  (docs/SCENARIOS.md); --check fails on drift\n\
         \n\
         plan IR:\n\
           explain [MODEL] [--json] [pipeline flags ...]\n\
                                  dump the configuration's kernel-dataflow plan\n\
                                  at O0 and O2: ops, pass decisions (fusion,\n\
                                  hoisting, dead buffers), per-buffer liveness,\n\
                                  planned addresses and peak device bytes;\n\
                                  --json emits the machine-readable dump\n\
         \n\
         serving layer (gsuite-serve):\n\
           serve [--host H] [--port N] [--threads N] [--queue N]\n\
                 [--cache-mb N] [--fault-seed N [--fault-rate F]]\n\
                 [--batch N [--batch-delay-ms F] [--batch-backlog N]]\n\
                 [--quick|--full]\n\
                                  run the benchmark service over TCP\n\
                                  (port 0 picks an ephemeral port);\n\
                                  --fault-seed injects a seeded mixed\n\
                                  fault plan at --fault-rate (0.1);\n\
                                  --batch merges up to N compatible\n\
                                  requests into one batched Plan (a\n\
                                  head waits --batch-delay-ms, default 2;\n\
                                  --batch-backlog N sheds submissions\n\
                                  that would open a batch past it)\n\
           loadgen [--scenario NAME] [--seed N] [--requests N]\n\
                   [--clients N | --rate RPS] [--clock sim|wall]\n\
                   [--workers N] [--threads N] [--queue N] [--cache-mb N]\n\
                   [--slo-ms F] [--fault-seed N [--fault-rate F]]\n\
                   [--deadline-ms F] [--retries N] [--breaker]\n\
                   [--batch N [--batch-delay-ms F] [--batch-backlog N]]\n\
                   [--connect ADDR [--stop-server]]\n\
                   [--json FILE] [--trace FILE] [--metrics] [--full]\n\
                                  drive a seeded workload mix and report\n\
                                  throughput + p50/p95/p99 latency + SLO\n\
                                  (--clock sim, the default, is exactly\n\
                                  reproducible for a given seed — also\n\
                                  under --fault-seed chaos injection);\n\
                                  --deadline-ms / --retries / --breaker\n\
                                  enable the resilience policy; --batch\n\
                                  enables cross-request batching (open\n\
                                  loop only); --trace exports the run's\n\
                                  span stream as a Chrome-trace JSON,\n\
                                  --metrics appends a Prometheus-style\n\
                                  exposition + per-phase breakdown\n\
           trace-export FILE [loadgen flags]\n\
                                  run the loadgen on the (forced) sim clock\n\
                                  and export its span stream to FILE —\n\
                                  byte-identical across runs, hosts and\n\
                                  thread counts; the server-side `metrics`\n\
                                  protocol command exposes the same\n\
                                  registry over TCP"
    );
}

/// Parses the value following flag `i`, or errors naming the flag.
fn take_value(args: &[String], i: usize) -> Result<&str, String> {
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("flag {} needs a value", args[i]))
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str, expected: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects {expected} (got {value:?})"))
}

fn parse_positive(args: &[String], i: usize) -> Result<usize, String> {
    let n: usize = parse_num(take_value(args, i)?, args[i].as_str(), "a positive integer")?;
    if n == 0 {
        return Err(format!("{} expects a positive integer", args[i]));
    }
    Ok(n)
}

/// A finite, positive float: NaN passes any `<= 0` check, and neither it
/// nor infinity makes a usable rate, deadline or objective.
fn parse_positive_f64(args: &[String], i: usize, what: &str) -> Result<f64, String> {
    let value = take_value(args, i)?;
    match value.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        _ => Err(format!(
            "{} expects a finite, positive {what} (got {value:?})",
            args[i]
        )),
    }
}

/// The serving flags `serve` and `loadgen` share: `--fault-seed`,
/// `--fault-rate`, `--batch`, `--batch-delay-ms` and `--batch-backlog`.
#[derive(Default)]
struct ServingFlags {
    fault_seed: Option<u64>,
    fault_rate: Option<f64>,
    batch_max: Option<usize>,
    batch_delay: Option<f64>,
    batch_backlog: Option<usize>,
}

impl ServingFlags {
    /// Parses `args[i]` and its value when it is one of the shared flags;
    /// returns whether it was.
    fn parse(&mut self, args: &[String], i: usize) -> Result<bool, String> {
        match args[i].as_str() {
            "--fault-seed" => {
                let seed = parse_num(take_value(args, i)?, "--fault-seed", "an integer")?;
                self.fault_seed = Some(seed);
            }
            "--fault-rate" => {
                // A probability scale in (0, 1].
                let r: f64 = parse_num(take_value(args, i)?, "--fault-rate", "a rate in (0, 1]")?;
                if !(r > 0.0 && r <= 1.0) {
                    return Err("--fault-rate expects a rate in (0, 1]".to_string());
                }
                self.fault_rate = Some(r);
            }
            "--batch" => self.batch_max = Some(parse_positive(args, i)?),
            "--batch-delay-ms" => {
                let d: f64 = parse_num(take_value(args, i)?, "--batch-delay-ms", "milliseconds")?;
                if d.is_nan() || d < 0.0 {
                    return Err("--batch-delay-ms expects a non-negative window".to_string());
                }
                self.batch_delay = Some(d);
            }
            "--batch-backlog" => {
                let n = parse_num(take_value(args, i)?, "--batch-backlog", "an integer")?;
                self.batch_backlog = Some(n);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolves the flags into a mixed fault plan and a cross-request
    /// batching policy. `--fault-seed` is the fault opt-in: a rate without
    /// one is a mistake, not a plan. `--batch N` is the batching opt-in;
    /// `--batch-delay-ms` and `--batch-backlog` refine its forming window
    /// and admission bound.
    fn resolve(self) -> Result<(Option<FaultPlan>, Option<BatchPolicy>), String> {
        let fault = match (self.fault_seed, self.fault_rate) {
            (Some(seed), rate) => Some(FaultPlan::mixed(seed, rate.unwrap_or(0.1))),
            (None, Some(_)) => return Err("--fault-rate only applies with --fault-seed N".into()),
            (None, None) => None,
        };
        let batch = match (self.batch_max, self.batch_delay, self.batch_backlog) {
            (None, None, None) => None,
            (None, ..) => {
                return Err("--batch-delay-ms / --batch-backlog only apply with --batch N".into())
            }
            (Some(max_batch), delay, backlog) => {
                let defaults = BatchPolicy::default();
                Some(BatchPolicy {
                    max_batch,
                    max_queue_delay_ms: delay.unwrap_or(defaults.max_queue_delay_ms),
                    max_backlog: backlog.unwrap_or(defaults.max_backlog),
                })
            }
        };
        Ok((fault, batch))
    }
}

/// `gsuite-cli run-scenario ...`: list, filter or execute registry
/// entries. Every flag is matched explicitly — unknown flags are an
/// error, not something to forward and misreport.
fn run_scenario_cmd(args: &[String]) -> Result<(), String> {
    let mut opts = BenchOpts::default();
    let mut list = false;
    let mut filter: Option<String> = None;
    let mut name: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut trace_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                print_help();
                return Ok(());
            }
            "--list" => {
                list = true;
                i += 1;
            }
            "--filter" => {
                filter = Some(take_value(args, i)?.to_string());
                i += 2;
            }
            "--quick" => {
                opts.quick = true;
                i += 1;
            }
            "--full" => {
                opts.full = true;
                i += 1;
            }
            "--csv" => {
                opts.csv_dir = Some(take_value(args, i)?.into());
                i += 2;
            }
            "--threads" => {
                threads = Some(parse_positive(args, i)?);
                i += 2;
            }
            "--opt" => {
                let value = take_value(args, i)?;
                opts.opt_override = Some(
                    gsuite_core::OptLevel::parse(value)
                        .ok_or_else(|| format!("--opt expects 0|2 (got {value:?})"))?,
                );
                i += 2;
            }
            "--shards" => {
                opts.shards_override = Some(parse_positive(args, i)?);
                i += 2;
            }
            "--partitioner" => {
                let value = take_value(args, i)?;
                opts.partitioner_override = Some(
                    gsuite_graph::PartitionStrategy::parse(value).ok_or_else(|| {
                        format!("--partitioner expects hash|range|edgecut (got {value:?})")
                    })?,
                );
                i += 2;
            }
            "--batch-size" => {
                opts.batch_size_override = Some(parse_num(
                    take_value(args, i)?,
                    "--batch-size",
                    "a batch size (0 = full graph)",
                )?);
                i += 2;
            }
            "--fanout" => {
                let value = take_value(args, i)?;
                opts.fanout_override = Some(gsuite_graph::parse_fanout(value).ok_or_else(|| {
                    format!("--fanout expects x-separated per-hop fanouts, e.g. 10x5 (got {value:?})")
                })?);
                i += 2;
            }
            "--trace" => {
                trace_path = Some(take_value(args, i)?.to_string());
                i += 2;
            }
            flag if flag.starts_with("--") => {
                return Err(format!(
                    "unknown run-scenario flag {flag:?} (expected --list | --filter STR | \
                     --quick | --full | --csv DIR | --threads N | --opt 0|2 | --shards N | \
                     --partitioner hash|range|edgecut | --batch-size N | --fanout 10x5 | \
                     --trace FILE)"
                ));
            }
            other => {
                if name.replace(other.to_string()).is_some() {
                    return Err(format!("unexpected extra scenario name {other:?}"));
                }
                i += 1;
            }
        }
    }

    if let Some(n) = &name {
        if list || filter.is_some() {
            return Err(format!(
                "scenario name {n:?} conflicts with --list/--filter (run one or list, not both)"
            ));
        }
    }

    if list || filter.is_some() {
        let scenarios = match &filter {
            Some(f) => registry::matching(f),
            None => registry::all(),
        };
        if scenarios.is_empty() {
            return Err(format!(
                "no scenario matches filter {:?}",
                filter.as_deref().unwrap_or("")
            ));
        }
        println!(
            "registered scenarios ({} mode grid sizes):\n",
            mode_name(&opts)
        );
        println!("{}", registry::list_table(&scenarios, &opts).render());
        return Ok(());
    }

    let Some(name) = name else {
        return Err("run-scenario needs a scenario name (or --list)".to_string());
    };
    let scenario = registry::find(&name).ok_or_else(|| {
        let known: Vec<&str> = registry::all().iter().map(|s| s.name).collect();
        format!("unknown scenario {name:?} (registry: {})", known.join(", "))
    })?;
    let (result, report) = match threads {
        Some(t) => scenario.run_threads(&opts, t),
        None => scenario.run(&opts),
    };
    report.emit(&opts);
    if let Some(path) = trace_path {
        let trace = gsuite_scenarios::trace::scenario_trace(&result);
        write_trace(&path, &trace)?;
    }
    Ok(())
}

/// Exports a trace as Chrome-trace JSON, self-validating the document
/// before it touches disk, and announces the write.
fn write_trace(path: &str, trace: &Trace) -> Result<(), String> {
    let json = trace.to_chrome_json();
    gsuite_telemetry::json::validate(&json)
        .map_err(|e| format!("internal error: exported trace is not valid JSON: {e}"))?;
    std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "[trace] {path} ({} spans, {} roots, clock={})",
        trace.spans.len(),
        trace.root_count(),
        trace.clock.label()
    );
    Ok(())
}

/// `gsuite-cli docs-scenarios [--check|--write]`: the generated markdown
/// scenario reference. Prints to stdout by default; `--write` updates
/// `docs/SCENARIOS.md`, `--check` (CI) fails when the committed file has
/// drifted from the registry.
fn docs_scenarios_cmd(args: &[String]) -> Result<(), String> {
    let mut check = false;
    let mut write = false;
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => {
                print_help();
                return Ok(());
            }
            "--check" => check = true,
            "--write" => write = true,
            other => {
                return Err(format!(
                    "unknown docs-scenarios flag {other:?} (expected --check | --write)"
                ))
            }
        }
    }
    if check && write {
        return Err("--check and --write are mutually exclusive".to_string());
    }
    let docs = registry::scenario_docs(&BenchOpts::default());
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/SCENARIOS.md");
    if write {
        std::fs::create_dir_all(path.parent().expect("docs/ has a parent"))
            .map_err(|e| format!("cannot create docs/: {e}"))?;
        std::fs::write(&path, &docs)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        return Ok(());
    }
    if check {
        let committed = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if committed != docs {
            let drift = committed
                .lines()
                .zip(docs.lines())
                .position(|(a, b)| a != b)
                .map(|i| format!("first drift at line {}", i + 1))
                .unwrap_or_else(|| "line counts differ".to_string());
            return Err(format!(
                "docs/SCENARIOS.md is out of sync with the scenario registry ({drift}); \
                 regenerate with `gsuite-cli docs-scenarios --write` and commit the diff"
            ));
        }
        println!("docs/SCENARIOS.md is in sync with the registry");
        return Ok(());
    }
    print!("{docs}");
    Ok(())
}

/// `gsuite-cli explain [MODEL] [pipeline flags ...]`: dump the
/// configuration's kernel-dataflow plan at O0 and O2 — ops, pass
/// decisions, buffer liveness, planned addresses and peak device bytes.
fn explain_cmd(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return Ok(());
    }
    // The report always shows both optimization levels side by side, so
    // `--opt` would have no effect here — reject it rather than silently
    // ignoring it.
    if args
        .iter()
        .any(|a| a == "--opt" || a.starts_with("--opt=") || a.starts_with("--opt-level"))
    {
        return Err(
            "explain always renders both O0 and O2; drop --opt (use `run-scenario --opt` or \
             the top-level `--opt` flag to run at one level)"
                .to_string(),
        );
    }
    // `--json` switches to the machine-readable dump; it is not a
    // pipeline flag, so strip it before RunConfig sees the tail.
    let json = args.iter().any(|a| a == "--json");
    let args: Vec<String> = args.iter().filter(|a| *a != "--json").cloned().collect();
    // An optional leading positional names the model; everything else is
    // standard `--key value` pipeline flags.
    let mut rest = &args[..];
    let mut model: Option<gsuite_core::config::GnnModel> = None;
    if let Some(first) = args.first() {
        if !first.starts_with("--") {
            model = Some(gsuite_core::config::GnnModel::parse(first).ok_or_else(|| {
                format!("unknown model {first:?} (expected gcn|gin|sag|gat|sgc)")
            })?);
            rest = &args[1..];
        }
    }
    let mut config = RunConfig::from_args(rest).map_err(|e| e.to_string())?;
    if let Some(m) = model {
        config.model = m;
    }
    let graph = config.load_graph();
    let text = if json {
        gsuite_core::plan::explain::explain_json(&graph, &config).map_err(|e| e.to_string())?
    } else {
        gsuite_core::plan::explain::explain(&graph, &config).map_err(|e| e.to_string())?
    };
    print!("{text}");
    Ok(())
}

/// `gsuite-cli serve ...`: the benchmark service over TCP.
fn serve_cmd(args: &[String]) -> Result<(), String> {
    let mut host = "127.0.0.1".to_string();
    let mut port: u16 = 4816;
    let mut cfg = ServeConfig {
        workers: gsuite_par::default_threads(),
        ..ServeConfig::default()
    };
    let mut serving = ServingFlags::default();
    let mut i = 0;
    while i < args.len() {
        if serving.parse(args, i)? {
            i += 2;
            continue;
        }
        match args[i].as_str() {
            "--help" | "-h" => {
                print_help();
                return Ok(());
            }
            "--host" => {
                host = take_value(args, i)?.to_string();
                i += 2;
            }
            "--port" => {
                port = parse_num(take_value(args, i)?, "--port", "a port number")?;
                i += 2;
            }
            "--threads" | "--workers" => {
                cfg.workers = parse_positive(args, i)?;
                i += 2;
            }
            "--queue" => {
                cfg.queue_cap = parse_positive(args, i)?;
                i += 2;
            }
            "--cache-mb" => {
                let mb: u64 = parse_num(take_value(args, i)?, "--cache-mb", "an integer")?;
                cfg.cache_bytes = mb << 20;
                i += 2;
            }
            "--quick" => {
                cfg.opts.quick = true;
                cfg.opts.full = false;
                i += 1;
            }
            "--full" => {
                cfg.opts.full = true;
                cfg.opts.quick = false;
                i += 1;
            }
            other => {
                return Err(format!(
                    "unknown serve flag {other:?} (expected --host H | --port N | --threads N | \
                     --queue N | --cache-mb N | --fault-seed N | --fault-rate F | \
                     --batch N | --batch-delay-ms F | --batch-backlog N | \
                     --quick | --full)"
                ));
            }
        }
    }
    (cfg.fault, cfg.batch) = serving.resolve()?;
    println!(
        "gsuite-serve: {} workers, queue depth {}, cache {} MiB, {} scales{}",
        cfg.workers,
        cfg.queue_cap,
        cfg.cache_bytes >> 20,
        mode_name(&cfg.opts),
        match cfg.fault {
            Some(plan) => format!(", fault seed {}", plan.seed),
            None => String::new(),
        }
    );
    serve_blocking(&host, port, cfg).map_err(|e| format!("serve failed: {e}"))
}

/// `gsuite-cli loadgen ...`: drive a workload mix, in-process (simulated
/// or wall clock) or against a remote server.
/// Parsed `loadgen` command line, shared with `trace-export` (which is a
/// sim-clock loadgen run whose span stream goes to a file).
struct LoadgenArgs {
    spec: LoadSpec,
    connect: Option<String>,
    stop_server: bool,
    json_path: Option<String>,
    trace_path: Option<String>,
    metrics: bool,
}

/// Parse loadgen flags. Returns `Ok(None)` when `--help` was handled.
fn parse_loadgen_args(args: &[String]) -> Result<Option<LoadgenArgs>, String> {
    let mut spec = LoadSpec::default();
    let mut connect: Option<String> = None;
    let mut stop_server = false;
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics = false;
    let mut serving = ServingFlags::default();
    let mut i = 0;
    while i < args.len() {
        if serving.parse(args, i)? {
            i += 2;
            continue;
        }
        match args[i].as_str() {
            "--help" | "-h" => {
                print_help();
                return Ok(None);
            }
            "--scenario" => {
                spec.scenario = take_value(args, i)?.to_string();
                i += 2;
            }
            "--seed" => {
                spec.seed = parse_num(take_value(args, i)?, "--seed", "an integer")?;
                i += 2;
            }
            "--requests" => {
                spec.requests = parse_positive(args, i)?;
                i += 2;
            }
            "--clients" => {
                spec.arrival = ArrivalMode::Closed {
                    clients: parse_positive(args, i)?,
                };
                i += 2;
            }
            "--rate" => {
                let rate_rps = parse_positive_f64(args, i, "requests-per-second value")?;
                spec.arrival = ArrivalMode::Open { rate_rps };
                i += 2;
            }
            "--clock" => {
                spec.clock = match take_value(args, i)? {
                    "sim" => ClockMode::Sim,
                    "wall" => ClockMode::Wall,
                    other => return Err(format!("unknown clock {other:?} (expected sim|wall)")),
                };
                i += 2;
            }
            // --threads parallelizes the profiling pass only; the modeled
            // service's worker pool is --workers. Keeping them separate is
            // what makes sim-clock reports thread-count independent.
            "--threads" => {
                spec.threads = parse_positive(args, i)?;
                i += 2;
            }
            "--workers" => {
                spec.workers = parse_positive(args, i)?;
                i += 2;
            }
            "--queue" => {
                spec.queue_cap = parse_positive(args, i)?;
                i += 2;
            }
            "--cache-mb" => {
                let mb: u64 = parse_num(take_value(args, i)?, "--cache-mb", "an integer")?;
                spec.cache_bytes = mb << 20;
                i += 2;
            }
            "--slo-ms" => {
                spec.slo_ms = Some(parse_positive_f64(args, i, "objective in milliseconds")?);
                i += 2;
            }
            "--deadline-ms" => {
                spec.resilience.deadline_ms =
                    Some(parse_positive_f64(args, i, "budget in milliseconds")?);
                i += 2;
            }
            "--retries" => {
                let n: u32 = parse_num(take_value(args, i)?, "--retries", "an integer")?;
                spec.resilience.retry = RetryPolicy::retries(n);
                i += 2;
            }
            "--breaker" => {
                spec.resilience.breaker = Some(BreakerConfig::default());
                i += 1;
            }
            "--connect" => {
                connect = Some(take_value(args, i)?.to_string());
                i += 2;
            }
            "--stop-server" => {
                stop_server = true;
                i += 1;
            }
            "--json" => {
                json_path = Some(take_value(args, i)?.to_string());
                i += 2;
            }
            "--trace" => {
                trace_path = Some(take_value(args, i)?.to_string());
                i += 2;
            }
            "--metrics" => {
                metrics = true;
                i += 1;
            }
            // The loadgen defaults to quick scales (a traffic benchmark
            // wants cheap per-request work); --full opts into Table IV
            // scales, --quick is accepted for symmetry.
            "--quick" => {
                spec.opts = BenchOpts::quick();
                i += 1;
            }
            "--full" => {
                spec.opts = BenchOpts {
                    full: true,
                    ..BenchOpts::default()
                };
                i += 1;
            }
            other => {
                return Err(format!(
                    "unknown loadgen flag {other:?} (expected --scenario NAME | --seed N | \
                     --requests N | --clients N | --rate RPS | --clock sim|wall | --workers N | \
                     --threads N | --queue N | --cache-mb N | --slo-ms F | --fault-seed N | \
                     --fault-rate F | --deadline-ms F | --retries N | --breaker | \
                     --batch N | --batch-delay-ms F | --batch-backlog N | \
                     --connect ADDR | --stop-server | --json FILE | --trace FILE | --metrics | \
                     --quick | --full)"
                ));
            }
        }
    }
    (spec.fault, spec.batch) = serving.resolve()?;
    Ok(Some(LoadgenArgs {
        spec,
        connect,
        stop_server,
        json_path,
        trace_path,
        metrics,
    }))
}

fn loadgen_cmd(args: &[String]) -> Result<(), String> {
    let Some(la) = parse_loadgen_args(args)? else {
        return Ok(());
    };
    if la.stop_server && la.connect.is_none() {
        return Err("--stop-server only applies with --connect ADDR".to_string());
    }
    if la.trace_path.is_some() && la.connect.is_some() {
        return Err("--trace needs the in-process loadgen; drop --connect ADDR".to_string());
    }
    // --metrics alone is satisfied from the report's counters; --trace (or
    // --metrics on an in-process run, where it is free) takes the traced
    // path so per-phase totals are available too.
    let traced = la.trace_path.is_some() || (la.metrics && la.connect.is_none());
    let (report, trace) = match &la.connect {
        Some(addr) => (loadgen_tcp(addr, &la.spec, la.stop_server)?, None),
        None if traced => {
            let (report, trace) = run_loadgen_traced(&la.spec)?;
            (report, Some(trace))
        }
        None => (run_loadgen(&la.spec)?, None),
    };
    emit_loadgen_output(&report, trace.as_ref(), &la)
}

/// Shared `loadgen`/`trace-export` tail: report, then the optional
/// `--metrics` exposition, `--json` dump, and `--trace` export.
fn emit_loadgen_output(
    report: &LoadReport,
    trace: Option<&Trace>,
    la: &LoadgenArgs,
) -> Result<(), String> {
    print!("{}", report.render());
    if la.metrics {
        print!("{}", report.metrics().render());
    }
    if let Some(path) = &la.json_path {
        std::fs::write(path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("[json] {path}");
    }
    if let (Some(path), Some(trace)) = (&la.trace_path, trace) {
        write_trace(path, trace)?;
    }
    Ok(())
}

/// `trace-export FILE [loadgen flags]` — a deterministic sim-clock loadgen
/// run whose span stream is exported as Chrome-trace JSON at FILE.
fn trace_export_cmd(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return Ok(());
    }
    let Some(file) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err(
            "trace-export expects an output FILE as its first argument (then loadgen flags)"
                .to_string(),
        );
    };
    let Some(mut la) = parse_loadgen_args(&args[1..])? else {
        return Ok(());
    };
    if la.connect.is_some() {
        return Err("trace-export runs the in-process loadgen; drop --connect ADDR".to_string());
    }
    if matches!(la.spec.clock, ClockMode::Wall) {
        return Err(
            "trace-export is deterministic by design: sim clock only (drop --clock wall)"
                .to_string(),
        );
    }
    la.spec.clock = ClockMode::Sim;
    la.trace_path = Some(file.clone());
    let (report, trace) = run_loadgen_traced(&la.spec)?;
    emit_loadgen_output(&report, Some(&trace), &la)
}

fn mode_name(opts: &BenchOpts) -> &'static str {
    if opts.full {
        "full"
    } else if opts.quick {
        "quick"
    } else {
        "default"
    }
}

fn run(args: &[String]) -> Result<(), String> {
    // Split measurement flags (handled here) from pipeline flags
    // (handled by RunConfig).
    let mut backend = "hw".to_string();
    let mut sim_sms: usize = 8;
    let mut max_ctas: u64 = 2048;
    let mut quiet = false;
    let mut spans = false;
    let mut config_file: Option<String> = None;
    let mut pipeline_args: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--backend" => {
                backend = take_value(args, i)?.to_string();
                i += 2;
            }
            "--sim-sms" => {
                sim_sms = parse_num(take_value(args, i)?, "--sim-sms", "an integer")?;
                i += 2;
            }
            "--max-ctas" => {
                max_ctas = parse_num(take_value(args, i)?, "--max-ctas", "an integer")?;
                i += 2;
            }
            "--config" => {
                config_file = Some(take_value(args, i)?.to_string());
                i += 2;
            }
            "--quiet" => {
                quiet = true;
                i += 1;
            }
            "--spans" => {
                spans = true;
                i += 1;
            }
            _ => {
                pipeline_args.push(args[i].clone());
                i += 1;
            }
        }
    }

    let mut config = RunConfig::default();
    if let Some(path) = config_file {
        let content = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read config file {path}: {e}"))?;
        config.apply_file(&content).map_err(|e| e.to_string())?;
    }
    // CLI flags win over file defaults: apply them on top.
    config
        .apply_args(&pipeline_args)
        .map_err(|e| e.to_string())?;

    let profiler: Box<dyn Profiler> = match backend.as_str() {
        "hw" => Box::new(HwProfiler::v100()),
        "sim" => Box::new(SimProfiler::scaled(sim_sms.clamp(1, 80)).max_ctas(Some(max_ctas))),
        other => return Err(format!("unknown backend {other:?} (expected hw|sim)")),
    };

    let graph = config.load_graph();
    if !quiet {
        println!("gSuite-rs | {}", config.label());
        let stats = graph.stats();
        println!(
            "graph: {} nodes, {} edges, {} features | layers={} hidden={}\n",
            stats.nodes, stats.edges, stats.feature_len, config.layers, config.hidden
        );
    }
    let run = PipelineRun::build(&graph, &config).map_err(|e| e.to_string())?;
    let profile = run.profile(profiler.as_ref());

    if !quiet {
        if let Some(sharding) = &profile.sharding {
            // Sharded run: per-shard summary instead of per-op rows (the
            // flat launch stream spans every shard's plan).
            let mut table = TextTable::new(&[
                "shard",
                "device",
                "owned",
                "halo",
                "kernels (ms)",
                "exchange (ms)",
                "halo in (KiB)",
                "peak (KiB)",
            ]);
            for (i, s) in sharding.shards.iter().enumerate() {
                table.row_owned(vec![
                    i.to_string(),
                    format!("gpu{}", s.device),
                    s.owned_nodes.to_string(),
                    s.halo_nodes.to_string(),
                    format!("{:.4}", s.kernel_ms),
                    format!("{:.4}", s.exchange_ms),
                    format!("{:.1}", s.halo_in_bytes as f64 / 1024.0),
                    format!("{:.1}", s.peak_device_bytes as f64 / 1024.0),
                ]);
            }
            println!("{}", table.render());
            println!(
                "partition: {} x{} | edge cut {:.1}% ({}/{} edges) | halo {} KiB/inference | \
                 makespan {:.4} ms (slowest shard incl. exchanges)",
                sharding.strategy,
                sharding.shards.len(),
                sharding.edge_cut_fraction() * 100.0,
                sharding.cut_edges,
                sharding.total_edges,
                sharding.halo_bytes() / 1024,
                sharding.makespan_ms(),
            );
        } else {
            let mut table = TextTable::new(&[
                "#",
                "kernel",
                "op",
                "time (ms)",
                "instr",
                "L1 hit",
                "L2 hit",
                "comp util",
                "mem util",
            ]);
            // Per-op attribution: each profiled launch corresponds 1:1 to a
            // plan op, so the semantic op label rides along the Table II name.
            for (i, (k, op)) in profile.kernels.iter().zip(run.plan.ops()).enumerate() {
                table.row_owned(vec![
                    (i + 1).to_string(),
                    k.kernel.clone(),
                    op.label(),
                    format!("{:.4}", k.time_ms),
                    k.instr_mix.total().to_string(),
                    format!("{:.1}%", k.l1.hit_rate() * 100.0),
                    format!("{:.1}%", k.l2.hit_rate() * 100.0),
                    format!("{:.1}%", k.compute_utilization * 100.0),
                    format!("{:.1}%", k.memory_utilization * 100.0),
                ]);
            }
            println!("{}", table.render());
        }
        println!(
            "host overhead: {:.2} ms ({} launches, plan {}) | peak device bytes: {}",
            profile.host_overhead_ms,
            profile.kernels.len(),
            config.opt,
            profile.peak_device_bytes
        );
    }
    println!(
        "{} | backend={} | device {:.3} ms | end-to-end {:.3} ms | output checksum {:.6}",
        config.label(),
        profiler.backend(),
        profile.parallel_time_ms(),
        profile.total_time_ms(),
        run.output.sum()
    );
    if spans {
        println!(
            "\n{}",
            single_run_trace(&config, &run, &profile).render_tree()
        );
    }
    Ok(())
}

/// Builds the single-run span tree the `--spans` flag appends to the
/// report: one `request` root covering build (with the measured
/// `compile.*` phase children) then service (with one `kernel`/`exchange`
/// child per profiled launch, offset by the host launch overhead). Build
/// times are wall-measured; kernel times are the backend's modeled
/// milliseconds — the same mix a served request's trace carries.
fn single_run_trace(
    config: &RunConfig,
    run: &PipelineRun,
    profile: &PipelineProfile,
) -> gsuite_telemetry::Trace {
    let mut sink = SpanSink::new();
    let root = sink.reserve();
    let build_ms = run.compile_phases.total_ms();
    let service_ms = profile.total_time_ms();
    let build = sink.record("build", Some(root), 0, 0.0, build_ms, Vec::new());
    let mut t = 0.0;
    for (name, dur) in [
        ("compile.lower", run.compile_phases.lower_ms),
        ("compile.optimize", run.compile_phases.optimize_ms),
        ("compile.decorate", run.compile_phases.decorate_ms),
        ("compile.instantiate", run.compile_phases.instantiate_ms),
        ("compile.schedule", run.compile_phases.schedule_ms),
    ] {
        sink.record(name, Some(build), 0, t, dur, Vec::new());
        t += dur;
    }
    let service = sink.record(
        "service",
        Some(root),
        0,
        build_ms,
        service_ms,
        vec![Attr::f64("host_overhead_ms", profile.host_overhead_ms)],
    );
    let mut k_start = build_ms + profile.host_overhead_ms;
    for k in &profile.kernels {
        let name = if k.kernel == "exchange" {
            "exchange"
        } else {
            "kernel"
        };
        let mut attrs = vec![Attr::str("kernel", k.kernel.clone())];
        if k.kernel == "exchange" {
            attrs.push(Attr::u64("bytes", k.dram_bytes));
        }
        sink.record(name, Some(service), 0, k_start, k.time_ms, attrs);
        k_start += k.time_ms;
    }
    sink.record_with_id(
        root,
        "request",
        None,
        0,
        0.0,
        build_ms + service_ms,
        vec![Attr::str("key", config.label())],
    );
    sink.finish(ClockDomain::Wall)
}
