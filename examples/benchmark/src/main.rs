//! Wall-clock benchmark of `gsuite-cli serve`: closed-loop TCP load on
//! one client connection, output verification against in-process
//! reference builds, and (with `--trace 1`) a traced in-process replay
//! that breaks request time down by layer.
//!
//! ```text
//! benchmark --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! benchmark --server PATH --runs N [--workload NAME] [--seed N] [--seconds S] [--out FILE]
//! ```
//!
//! `examples/benchmark/run.sh` builds the server and this harness from
//! source and supplies `--server`. The last stdout line of a single run
//! is its JSON result; `--runs` writes a set of runs for `compare.py`.

mod load;
mod replay;
mod stats;
mod verify;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gsuite_serve::ServerStats;
use load::{drive, Client, Sample, ServerProcess};
use stats::{field_f64, mean, median, modeled_fields, percentile, ratio, result_json, Metric};
use workload::{permutation, Stream, Workload};

/// Set-ups per run: each starts a fresh server, and `setup_s` is their
/// median. The last one's server carries on into the timed window.
const SETUPS: usize = 3;
/// Window responses of `unique` checked against a reference build.
const UNIQUE_CHECKED: usize = 32;
/// Threads building the references, once the server has been stopped.
const REFERENCE_THREADS: usize = 2;

struct Args {
    server: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: Option<usize>,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: benchmark --server PATH --workload repeat|unique|paper|simulate \
                     --seed N --seconds S --trace 0|1 \
                     | benchmark --server PATH --runs N [--workload W] [--seed N] [--seconds S] [--out FILE]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        server: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        runs: None,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value\n{USAGE}", args[i]))?;
        let bad = |what: &str| format!("{} expects {what}, got {value:?}", args[i]);
        match args[i].as_str() {
            "--server" => parsed.server = PathBuf::from(value),
            "--workload" => {
                parsed.workload =
                    Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("positive seconds"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--runs" => {
                parsed.runs = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| bad("a positive count"))?,
                )
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
        i += 2;
    }
    if parsed.server.as_os_str().is_empty() {
        return Err(format!("--server is required\n{USAGE}"));
    }
    if parsed.runs.is_none() && parsed.workload.is_none() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(parsed)
}

/// Where results and traces go: `<cargo target dir>/benchmark`.
fn out_dir() -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let dir = PathBuf::from(target).join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// One measured run of one workload.
struct Run {
    attempted: u64,
    failed: u64,
    samples: usize,
    end_to_end: Vec<Metric>,
    /// Filled only by traced runs.
    per_layer: Vec<Metric>,
}

fn run_once(args: &Args, workload: Workload, seed: u64, trace: bool) -> Result<Run, String> {
    let stream = Stream::new(workload, seed);
    let setup = stream.setup_lines();
    let mut all: Vec<Sample> = Vec::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut live = None;
    for _ in 0..SETUPS {
        drop(live.take()); // stop the previous set-up's server first
        let start = Instant::now();
        let server = ServerProcess::spawn(&args.server)?;
        let mut client = Client::connect(&server.addr)?;
        client.stats()?;
        let warm = drive(&mut client, |k| setup.get(k).cloned());
        setup_s.push(start.elapsed().as_secs_f64());
        all.extend(warm.iter().cloned());
        live = Some((server, client, warm));
    }
    let (server, mut client, warm) = live.expect("at least one set-up");

    let before = client.stats()?;
    let cpu_before = server.cpu_ms()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let deck = stream.deck_len();
    let window = drive(&mut client, |k| {
        // Past the deadline, stop at the next deck boundary: every window
        // then carries each configuration equally often.
        if k % deck == 0 && Instant::now() >= deadline {
            return None;
        }
        stream.window_line(k)
    });
    let window_s = start.elapsed().as_secs_f64();
    if stream.window_line(window.len()).is_none() {
        return Err(format!("{} ran out of distinct requests", workload.name()));
    }
    let after = client.stats()?;
    let cpu_ms = server.cpu_ms()? - cpu_before;
    let rss_mb = server.peak_rss_mb()?;
    drop(client);
    drop(server);
    all.extend(window.iter().cloned());

    let ok: Vec<(&Sample, &str)> = window.iter().filter_map(|s| Some((s, s.ok()?))).collect();
    if ok.is_empty() {
        return Err(format!(
            "no successful response in the {} window",
            workload.name()
        ));
    }
    let mut rtts: Vec<f64> = ok.iter().map(|(s, _)| s.rtt_ms).collect();
    rtts.sort_by(f64::total_cmp);

    let failed = all.iter().filter(|s| s.ok().is_none()).count() as u64
        + mismatches(workload, seed, &warm, &ok);
    for sample in all.iter().filter(|s| s.ok().is_none()) {
        eprintln!("failed: {} -> {:?}", sample.line, sample.response);
    }

    let end_to_end = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("throughput_rps", ok.len() as f64 / window_s, "1/s"),
        Metric::new("latency_p50_ms", percentile(&rtts, 50), "ms"),
        Metric::new("latency_p90_ms", percentile(&rtts, 90), "ms"),
        Metric::new("server_rss_mb", rss_mb, "MiB"),
    ];

    let mut per_layer = Vec::new();
    if trace {
        per_layer = server_layers(&ok, &before, &after, cpu_ms);
        let lines: Vec<String> = (0..workload.replay_len())
            .map(|k| {
                stream
                    .window_line(k)
                    .expect("the replay fits in the stream")
            })
            .collect();
        // A first untimed pass pays the process's one-off costs (heap
        // growth, page faults), so the timed pass and the untimed pass it
        // is compared with both start warm.
        replay::replay(&lines, false)?;
        let traced = replay::replay(&lines, true)?;
        let plain_ms = replay::replay(&lines, false)?.wall_ms;
        per_layer.extend(replay::metrics(&traced, plain_ms, lines.len()));
        let path = out_dir()?.join(format!("trace-{}-seed{seed}.json", workload.name()));
        std::fs::write(&path, traced.trace.to_chrome_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "trace: {} ({} spans)",
            path.display(),
            traced.trace.spans.len()
        );
    }

    Ok(Run {
        attempted: all.len() as u64,
        failed,
        samples: rtts.len(),
        end_to_end,
        per_layer,
    })
}

/// Served responses whose modeled numbers differ from an in-process
/// reference build. Repeat, paper and simulate check every `ok` response
/// (each configuration appears at least once, in set-up); unique checks a
/// seeded sample of its window.
fn mismatches(workload: Workload, seed: u64, warm: &[Sample], ok: &[(&Sample, &str)]) -> u64 {
    let checked: Vec<(&Sample, &str)> = match workload {
        Workload::Unique => {
            let mut pool = ok.to_vec();
            pool.sort_by(|a, b| a.0.line.cmp(&b.0.line));
            let pick = permutation(pool.len(), seed);
            pick.iter()
                .take(UNIQUE_CHECKED)
                .map(|&i| pool[i as usize])
                .collect()
        }
        _ => warm
            .iter()
            .filter_map(|s| Some((s, s.ok()?)))
            .chain(ok.iter().copied())
            .collect(),
    };
    let lines: Vec<&str> = checked.iter().map(|(s, _)| s.line.as_str()).collect();
    let references = verify::references(&lines, REFERENCE_THREADS);
    let mut count = 0;
    for (sample, response) in checked {
        let expected = references.get(&sample.line).and_then(|r| r.as_ref().ok());
        let matches = expected.is_some_and(|(device, e2e, kernels)| {
            modeled_fields(response) == Some((device.as_str(), e2e.as_str(), kernels.as_str()))
        });
        if !matches {
            count += 1;
            eprintln!(
                "mismatch: {} -> {response} (expected {expected:?})",
                sample.line
            );
        }
    }
    count
}

/// Per-layer metrics measured from outside the server: response fields,
/// `stats` deltas across the window and the server's CPU time.
fn server_layers(
    ok: &[(&Sample, &str)],
    before: &ServerStats,
    after: &ServerStats,
    cpu_ms: f64,
) -> Vec<Metric> {
    let ops = ok.len() as f64;
    let field =
        |key: &str| -> Vec<f64> { ok.iter().filter_map(|(_, r)| field_f64(r, key)).collect() };
    let delta = |f: fn(&ServerStats) -> u64| f(after).saturating_sub(f(before)) as f64;
    let (hits, misses) = (delta(|s| s.cache.hits), delta(|s| s.cache.misses));
    let (tpl_hits, tpl_misses) = (delta(|s| s.tpl_hits), delta(|s| s.tpl_misses));
    let overhead: Vec<f64> = ok
        .iter()
        .filter_map(|(s, r)| Some(s.rtt_ms - field_f64(r, "latency_ms")?))
        .collect();
    vec![
        Metric::new("net.overhead_ms", median(&overhead), "ms"),
        Metric::new("server.service_ms", mean(&field("service_ms")), "ms"),
        Metric::new("server.queue_ms", mean(&field("queue_ms")), "ms"),
        Metric::new("server.cpu_ms_per_op", cpu_ms / ops, "ms"),
        Metric::new("cache.hit_frac", ratio(hits, hits + misses), "ratio"),
        Metric::new(
            "cache.evict_per_op",
            delta(|s| s.cache.evictions) / ops,
            "count",
        ),
        Metric::new(
            "cache.reject_per_op",
            delta(|s| s.cache.rejected) / ops,
            "count",
        ),
        Metric::new(
            "template.hit_frac",
            ratio(tpl_hits, tpl_hits + tpl_misses),
            "ratio",
        ),
    ]
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<26} {:>14.6} {}", m.name, m.value, m.unit);
    }
}

/// A single run: human-readable metrics, then the JSON result line.
fn single(args: &Args, workload: Workload) -> Result<bool, String> {
    let run = run_once(args, workload, args.seed, args.trace)?;
    println!(
        "workload={} seed={} seconds={} samples={} beyond_p90={} attempted={} failed={}",
        workload.name(),
        args.seed,
        args.seconds,
        run.samples,
        stats::beyond(run.samples, 90),
        run.attempted,
        run.failed
    );
    print_metrics(&run.end_to_end);
    print_metrics(&run.per_layer);
    let reported = if args.trace {
        &run.per_layer
    } else {
        &run.end_to_end
    };
    let json = result_json(run.failed == 0, run.attempted, run.failed, reported);
    let path = out_dir()?.join(format!(
        "result-{}-seed{}-trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, format!("{json}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{json}");
    Ok(run.failed == 0)
}

/// `--runs N`: N runs of each workload (seeds `seed..seed+N`,
/// interleaved across workloads), written as one JSON set.
fn runs(args: &Args, n: usize) -> Result<bool, String> {
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut values: BTreeMap<&str, BTreeMap<&str, Vec<f64>>> = BTreeMap::new();
    let mut failed = 0;
    for r in 0..n as u64 {
        for &workload in &workloads {
            let seed = args.seed + r;
            let run = run_once(args, workload, seed, false)?;
            failed += run.failed;
            println!(
                "run {r} {} seed={seed} failed={}",
                workload.name(),
                run.failed
            );
            print_metrics(&run.end_to_end);
            for m in run.end_to_end {
                values
                    .entry(workload.name())
                    .or_default()
                    .entry(m.name)
                    .or_default()
                    .push(m.value);
            }
        }
    }
    let body: Vec<String> = values
        .iter()
        .map(|(workload, metrics)| {
            let series: Vec<String> = metrics
                .iter()
                .map(|(name, v)| {
                    let nums: Vec<String> = v.iter().map(|&x| stats::json_number(x)).collect();
                    format!("\"{name}\": [{}]", nums.join(", "))
                })
                .collect();
            format!("\"{workload}\": {{{}}}", series.join(", "))
        })
        .collect();
    let json = format!(
        "{{\"seconds\": {}, \"runs\": {n}, \"first_seed\": {}, \"failed\": {failed}, \"workloads\": {{{}}}}}\n",
        stats::json_number(args.seconds),
        args.seed,
        body.join(", ")
    );
    let path = match &args.out {
        Some(p) => p.clone(),
        None => out_dir()?.join("runs.json"),
    };
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(failed == 0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match (args.runs, args.workload) {
        (Some(n), _) => runs(&args, n),
        (None, Some(workload)) => single(&args, workload),
        (None, None) => unreachable!("parse_args requires a workload"),
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}
