//! The traced replay: the first requests of a workload's window stream,
//! re-executed in-process in the order `serve::server::run_attempt`
//! runs them, with a span around every call into a layer.
//!
//! Span names follow the serving DES (`request`, `cache_lookup`, `build`,
//! `compile.*`, `service`, `kernel`) plus `request.decode`, `graph.load`,
//! `cache_insert`, `trace_gen` and `response.encode`. The `compile.*`
//! children are laid out from the `CompilePhases` the build measures
//! itself; every other span is timed here. Spans stay in memory and are
//! written out once the replay ends.

use std::cell::Cell;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gsuite_core::pipeline::{PipelineRun, WorkerScratch};
use gsuite_core::plan::template::{TemplateCache, TemplateKey};
use gsuite_gpu::{Grid, KernelWorkload, TraceBuf};
use gsuite_profile::PipelineProfile;
use gsuite_scenarios::BenchOpts;
use gsuite_serve::{
    entry_bytes, CacheDisposition, CachedPipeline, Completion, ServeConfig, ServeRequest,
    ShardedByteLru,
};
use gsuite_telemetry::{Attr, ClockDomain, SpanId, SpanSink, Trace};

use crate::stats::{mean, Metric};

/// A launch's workload with `trace_into` timed: the profiler's calls into
/// trace generation are the only part of profiling it cannot separate.
struct TimedWorkload<'a> {
    inner: &'a dyn KernelWorkload,
    ns: Cell<u64>,
    warps: Cell<u64>,
}

impl KernelWorkload for TimedWorkload<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn grid(&self) -> Grid {
        self.inner.grid()
    }

    fn trace_into(&self, buf: &mut TraceBuf, cta: u64, warp: u32) {
        let start = Instant::now();
        self.inner.trace_into(buf, cta, warp);
        self.ns
            .set(self.ns.get() + start.elapsed().as_nanos() as u64);
        self.warps.set(self.warps.get() + 1);
    }
}

/// One replay of the request lines.
pub struct Pass {
    pub wall_ms: f64,
    pub trace: Trace,
    pub warps: u64,
    /// Wall ms of one `Template::instantiate` of each template the replay
    /// captured, measured after the replay (empty on untimed passes).
    pub instantiate_ms: Vec<f64>,
}

/// Replays `lines` against fresh caches sized like the server's. With
/// `timed`, each launch's workload is wrapped to time trace generation.
pub fn replay(lines: &[String], timed: bool) -> Result<Pass, String> {
    let cfg = ServeConfig::default();
    let opts = BenchOpts::quick();
    let lru: ShardedByteLru<ServeRequest, CachedPipeline> =
        ShardedByteLru::new(cfg.cache_bytes, cfg.cache_shards);
    let templates = TemplateCache::new();
    let mut scratch = WorkerScratch::new();
    let mut sink = SpanSink::new();
    let mut captured: Vec<TemplateKey> = Vec::new();
    let mut warps = 0u64;

    let t0 = Instant::now();
    let at = |t: Instant| t.duration_since(t0).as_secs_f64() * 1e3;
    let since = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    for (id, line) in lines.iter().enumerate() {
        let root = sink.reserve();
        let started = Instant::now();

        let t = Instant::now();
        let request = ServeRequest::parse_line(line)?;
        sink.record("request.decode", Some(root), 0, at(t), since(t), vec![]);

        let t = Instant::now();
        let cached = lru.get(&request);
        sink.record("cache_lookup", Some(root), 0, at(t), since(t), vec![]);

        let (disposition, (_, run)) = match cached {
            Some(entry) => (CacheDisposition::Hit, entry),
            None => {
                let build = sink.reserve();
                let build_start = Instant::now();
                let t = Instant::now();
                let graph = Arc::new(request.config.load_graph());
                sink.record("graph.load", Some(build), 0, at(t), since(t), vec![]);
                let compile_start = at(Instant::now());
                let run = PipelineRun::build_with_templates_in(
                    &graph,
                    &request.config,
                    &templates,
                    &mut scratch,
                    &mut || false,
                )
                .map_err(|e| format!("cannot build {line:?}: {e}"))?;
                let p = run.compile_phases;
                let mut cursor = compile_start;
                for (name, ms) in [
                    ("compile.lower", p.lower_ms),
                    ("compile.optimize", p.optimize_ms),
                    ("compile.decorate", p.decorate_ms),
                    ("compile.instantiate", p.instantiate_ms),
                    ("compile.schedule", p.schedule_ms),
                ] {
                    if ms > 0.0 {
                        sink.record(name, Some(build), 0, cursor, ms, vec![]);
                        cursor += ms;
                    }
                }
                if p.instantiate_ms == 0.0 {
                    if let Some(key) = TemplateKey::of(&graph, &request.config) {
                        captured.push(key);
                    }
                }
                sink.record_with_id(
                    build,
                    "build",
                    Some(root),
                    0,
                    at(build_start),
                    since(build_start),
                    vec![],
                );

                let t = Instant::now();
                let bytes = entry_bytes(&graph, &run);
                let entry = (graph, Arc::new(run));
                lru.insert(request.clone(), entry.clone(), bytes);
                sink.record("cache_insert", Some(root), 0, at(t), since(t), vec![]);
                (CacheDisposition::Miss, entry)
            }
        };

        let service = sink.reserve();
        let service_start = Instant::now();
        let profiler = request.gpu.profiler(&opts, request.config.dataset);
        let mut kernels = Vec::with_capacity(run.launches.len());
        for launch in &run.launches {
            let kernel = sink.reserve();
            let t = Instant::now();
            let mut stats = if timed {
                let workload = TimedWorkload {
                    inner: launch.workload.as_ref(),
                    ns: Cell::new(0),
                    warps: Cell::new(0),
                };
                let stats = profiler.profile(&workload);
                warps += workload.warps.get();
                sink.record(
                    "trace_gen",
                    Some(kernel),
                    0,
                    at(t),
                    workload.ns.get() as f64 / 1e6,
                    vec![],
                );
                stats
            } else {
                profiler.profile(launch.workload.as_ref())
            };
            stats.kernel = launch.kind.name().to_string();
            sink.record_with_id(
                kernel,
                "kernel",
                Some(service),
                0,
                at(t),
                since(t),
                vec![Attr::str("kernel", launch.kind.name())],
            );
            kernels.push(stats);
        }
        let costs = run.config.framework.costs();
        let mut profile = PipelineProfile::new(run.label.clone());
        profile.host_overhead_ms = costs.init_ms + costs.per_launch_ms * kernels.len() as f64;
        profile.peak_device_bytes = run.peak_device_bytes;
        profile.kernels = kernels;
        let service_ms = since(service_start);
        sink.record_with_id(
            service,
            "service",
            Some(root),
            0,
            at(service_start),
            service_ms,
            vec![],
        );

        let t = Instant::now();
        let done = Completion {
            id: id as u64,
            request,
            outcome: Ok(Arc::new(profile)),
            cache: disposition,
            reject: None,
            degraded: false,
            retries: 0,
            batch: 1,
            queue_ms: 0.0,
            service_ms,
            latency_ms: since(started),
        };
        black_box(done.to_line());
        sink.record("response.encode", Some(root), 0, at(t), since(t), vec![]);

        sink.record_with_id(
            root,
            "request",
            None,
            0,
            at(started),
            since(started),
            vec![Attr::u64("id", id as u64)],
        );
    }
    let wall_ms = since(t0);

    let mut instantiate_ms = Vec::new();
    if timed {
        for key in &captured {
            if let Some(template) = templates.get(key) {
                let t = Instant::now();
                black_box(template.instantiate());
                instantiate_ms.push(since(t));
            }
        }
    }
    Ok(Pass {
        wall_ms,
        trace: sink.finish(ClockDomain::Wall),
        warps,
        instantiate_ms,
    })
}

/// Self time per span name: each span's duration minus the part its
/// children cover.
fn self_times(trace: &Trace) -> HashMap<&str, f64> {
    let mut covered: HashMap<SpanId, f64> = HashMap::new();
    for span in &trace.spans {
        if let Some(parent) = span.parent {
            *covered.entry(parent).or_default() += span.dur_ms;
        }
    }
    let mut out: HashMap<&str, f64> = HashMap::new();
    for span in &trace.spans {
        let own = span.dur_ms - covered.get(&span.id).copied().unwrap_or(0.0);
        *out.entry(span.name.as_str()).or_default() += own;
    }
    out
}

/// The per-layer metrics of a timed pass over `ops` requests, given the
/// wall time of an untimed pass over the same requests.
pub fn metrics(traced: &Pass, plain_ms: f64, ops: usize) -> Vec<Metric> {
    let ops = ops as f64;
    let own = self_times(&traced.trace);
    let total = |name: &str| traced.trace.total_ms(name);
    let per_op = |ms: f64| ms / ops;
    let launches = traced
        .trace
        .spans
        .iter()
        .filter(|s| s.name == "kernel")
        .count();
    let layer_ms: f64 = own
        .iter()
        .filter(|(name, _)| **name != "request")
        .map(|(_, ms)| ms)
        .sum();
    vec![
        Metric::new(
            "request.decode_us",
            per_op(total("request.decode")) * 1e3,
            "us",
        ),
        Metric::new(
            "response.encode_us",
            per_op(total("response.encode")) * 1e3,
            "us",
        ),
        Metric::new("cache.lookup_us", per_op(total("cache_lookup")) * 1e3, "us"),
        Metric::new("graph.load_ms", per_op(total("graph.load")), "ms"),
        Metric::new("compile.lower_ms", per_op(total("compile.lower")), "ms"),
        Metric::new(
            "compile.optimize_ms",
            per_op(total("compile.optimize")),
            "ms",
        ),
        Metric::new(
            "compile.decorate_ms",
            per_op(total("compile.decorate")),
            "ms",
        ),
        Metric::new(
            "compile.schedule_ms",
            per_op(total("compile.schedule")),
            "ms",
        ),
        Metric::new("compile.instantiate_ms", mean(&traced.instantiate_ms), "ms"),
        Metric::new("trace_gen.ms", per_op(total("trace_gen")), "ms"),
        Metric::new("trace_gen.warps_per_op", traced.warps as f64 / ops, "count"),
        Metric::new(
            "profile.model_ms",
            per_op(own.get("kernel").copied().unwrap_or(0.0)),
            "ms",
        ),
        Metric::new("profile.launches_per_op", launches as f64 / ops, "count"),
        Metric::new("trace.coverage", layer_ms / traced.wall_ms, "ratio"),
        Metric::new("trace.overhead", traced.wall_ms / plain_ms, "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut sink = SpanSink::new();
        let root = sink.reserve();
        let build = sink.record("build", Some(root), 0, 0.0, 4.0, vec![]);
        sink.record("graph.load", Some(build), 0, 0.0, 1.5, vec![]);
        sink.record_with_id(root, "request", None, 0, 0.0, 5.0, vec![]);
        let trace = sink.finish(ClockDomain::Wall);
        let own = self_times(&trace);
        assert_eq!(own["request"], 1.0);
        assert_eq!(own["build"], 2.5);
        assert_eq!(own["graph.load"], 1.5);
    }

    #[test]
    fn timed_replay_matches_the_untimed_one_and_covers_the_wall_time() {
        let lines: Vec<String> = [
            "model=gcn comp=mp dataset=cora scale=0.02 hidden=8 backend=hw",
            "model=gcn comp=mp dataset=cora scale=0.02 hidden=8 backend=hw",
            "model=gin comp=spmm dataset=cora scale=0.02 hidden=8 backend=hw",
        ]
        .map(String::from)
        .to_vec();
        let plain = replay(&lines, false).expect("replay");
        let traced = replay(&lines, true).expect("replay");
        let kernels = |p: &Pass| p.trace.spans.iter().filter(|s| s.name == "kernel").count();
        assert_eq!(kernels(&traced), kernels(&plain));
        assert!(traced.warps > 0);
        assert_eq!(traced.trace.root_count(), 3);
        // Two distinct configurations: two builds, one cache hit.
        assert_eq!(
            traced
                .trace
                .spans
                .iter()
                .filter(|s| s.name == "build")
                .count(),
            2
        );
        assert_eq!(traced.instantiate_ms.len(), 2);
        let m = metrics(&traced, plain.wall_ms, lines.len());
        let coverage = m.iter().find(|m| m.name == "trace.coverage").unwrap().value;
        assert!(coverage > 0.5 && coverage <= 1.0, "coverage {coverage}");
        assert!(m.iter().all(|m| m.value.is_finite() && m.value >= 0.0));
    }
}
