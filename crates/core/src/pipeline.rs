//! Pipeline assembly and profiling: the executable form of one configured
//! GNN inference run.
//!
//! Since the kernel-dataflow IR refactor, [`PipelineRun::build`] is a
//! three-stage compile: **lower** the model to a [`Plan`]
//! ([`crate::frameworks::lower`]), **optimize** it at the configured
//! [`crate::plan::OptLevel`] (fusion / hoist-CSE / dead-buffer
//! elimination; a no-op at O0), then **schedule** it — assigning device
//! addresses (bump layout at O0, liveness-planned reuse at O2) and
//! materializing the launch stream.

use gsuite_profile::{
    Interconnect, KernelStats, PipelineProfile, Profiler, ShardStats, ShardingProfile,
};
use gsuite_tensor::DenseMatrix;

use crate::config::RunConfig;
use crate::frameworks;
use crate::kernels::Launch;
use crate::plan::batchmerge::{self, MergedPart};
use crate::plan::shard::{self, ShardedExec};
use crate::plan::template::{Template, TemplateCache, TemplateKey};
use crate::plan::{OpSpec, Plan, ScheduleScratch};
use crate::Result;
use gsuite_graph::Graph;

/// Wall-clock milliseconds spent in each compile phase of one
/// [`PipelineRun::build`] (monotonic host time, the `wall` clock domain
/// of the telemetry layer — never the sim clock, so these numbers are
/// real but not reproducible byte-for-byte). Sharded builds charge the
/// whole per-shard compile to `lower_ms`; the remaining phases run
/// inside [`crate::plan::shard::build_sharded`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompilePhases {
    /// Model → Plan lowering (including mini-batch sampling + per-batch
    /// lowering, and the full sharded build on multi-GPU runs).
    pub lower_ms: f64,
    /// The O-level pass pipeline (fusion / hoist-CSE / dead buffers).
    pub optimize_ms: f64,
    /// Framework wrapper-op decoration.
    pub decorate_ms: f64,
    /// Plan-template rebind on the serve fast path
    /// ([`PipelineRun::build_with_templates`]): nonzero only when a
    /// cached template replaced the lower/optimize/decorate phases.
    pub instantiate_ms: f64,
    /// Address assignment + launch materialization.
    pub schedule_ms: f64,
}

impl CompilePhases {
    /// Sum over all phases.
    pub fn total_ms(&self) -> f64 {
        self.lower_ms + self.optimize_ms + self.decorate_ms + self.instantiate_ms + self.schedule_ms
    }

    /// The phases a plan template skips: lowering, optimization and
    /// decoration. A warmed serving worker drives this to ~0 on
    /// repeat-shape mixes (`tests/golden.rs` asserts it on the sim clock).
    pub fn full_compile_ms(&self) -> f64 {
        self.lower_ms + self.optimize_ms + self.decorate_ms
    }
}

/// A fully built pipeline: the optimized plan, the ordered kernel
/// launches it scheduled to, the functional output, and the run
/// description.
///
/// # Example
///
/// ```
/// use gsuite_core::config::RunConfig;
/// use gsuite_core::pipeline::PipelineRun;
/// use gsuite_profile::HwProfiler;
///
/// # fn main() -> Result<(), gsuite_core::CoreError> {
/// let config = RunConfig {
///     scale: 0.02,
///     hidden: 8,
///     ..RunConfig::default()
/// };
/// let graph = config.load_graph();
/// let run = PipelineRun::build(&graph, &config)?;
/// let profile = run.profile(&HwProfiler::v100());
/// assert_eq!(profile.kernels.len(), run.launches.len());
/// assert!(profile.total_time_ms() > 0.0);
/// assert!(profile.peak_device_bytes > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PipelineRun {
    /// Human-readable run label.
    pub label: String,
    /// The configuration that produced this run.
    pub config: RunConfig,
    /// The optimized plan (one op per launch, in order).
    pub plan: Plan,
    /// Kernel launches in execution order.
    pub launches: Vec<Launch>,
    /// Peak simultaneously-live device bytes of the schedule (at O0 this
    /// is the full bump arena; at O2 the memory planner's high-water
    /// mark). For sharded runs: the largest single-device peak.
    pub peak_device_bytes: u64,
    /// Functional inference output (zeros when functional math disabled;
    /// sharded runs are always profile-only and report zeros).
    pub output: DenseMatrix,
    /// The multi-GPU execution — `Some` only when
    /// `config.gpus_per_run > 1`, in which case [`PipelineRun::plan`] is
    /// empty and [`PipelineRun::launches`] concatenates every shard's
    /// stream (see [`crate::plan::shard`]).
    pub sharding: Option<ShardedExec>,
    /// Measured wall-clock cost of each compile phase of this build —
    /// the instrumentation points the telemetry layer's
    /// `compile.{lower,optimize,decorate,schedule}` spans read from on
    /// live (`--clock wall`) runs.
    pub compile_phases: CompilePhases,
}

impl PipelineRun {
    /// Builds the pipeline for `config` over `graph`: lower → optimize
    /// (at `config.opt`) → decorate with the configured framework's
    /// wrapper ops → schedule.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::CoreError::UnsupportedCombination`] for
    /// gSuite + GraphSAGE + SpMM.
    pub fn build(graph: &Graph, config: &RunConfig) -> Result<Self> {
        Self::build_cancellable(graph, config, &mut || false)
    }

    /// [`PipelineRun::build`] with cooperative cancellation: `cancelled`
    /// is polled at a checkpoint between each compile phase (before
    /// lowering, after lowering, after optimization, and after
    /// decoration — and around the sharded build), and a `true` return
    /// aborts the build with [`crate::CoreError::Cancelled`]. This is
    /// how the serving layer propagates a request's deadline budget into
    /// the build stage without preempting a phase mid-flight. A closure
    /// that never fires takes the exact same code path as `build`, so
    /// the fault-free output is identical.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::Cancelled`] when a checkpoint fires;
    /// otherwise everything [`PipelineRun::build`] can return.
    pub fn build_cancellable(
        graph: &Graph,
        config: &RunConfig,
        cancelled: &mut dyn FnMut() -> bool,
    ) -> Result<Self> {
        Self::full_build(graph, config, &mut ScheduleScratch::default(), cancelled)
    }

    /// [`PipelineRun::build`] through a [`TemplateCache`]: repeat-shape
    /// requests skip lower/optimize/decorate and only rebind + schedule
    /// (see [`crate::plan::template`]). The result is bit-identical to
    /// [`PipelineRun::build`] whether the cache hits or misses.
    ///
    /// # Errors
    ///
    /// Everything [`PipelineRun::build`] can return (only full compiles
    /// can fail; instantiation is infallible).
    pub fn build_with_templates(
        graph: &Graph,
        config: &RunConfig,
        templates: &TemplateCache,
    ) -> Result<Self> {
        Self::build_with_templates_in(
            graph,
            config,
            templates,
            &mut WorkerScratch::default(),
            &mut || false,
        )
    }

    /// The serving hot path: [`PipelineRun::build_with_templates`] with a
    /// per-worker [`WorkerScratch`] (so steady-state builds allocate
    /// ~zero) and the same cooperative cancellation contract as
    /// [`PipelineRun::build_cancellable`]. The template fast path polls
    /// `cancelled` before instantiating and before scheduling.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::Cancelled`] when a checkpoint fires;
    /// otherwise everything [`PipelineRun::build`] can return.
    pub fn build_with_templates_in(
        graph: &Graph,
        config: &RunConfig,
        templates: &TemplateCache,
        scratch: &mut WorkerScratch,
        cancelled: &mut dyn FnMut() -> bool,
    ) -> Result<Self> {
        // Sharded multi-GPU builds are not templatable; take the full
        // path (which has its own checkpoints).
        let Some(key) = TemplateKey::of(graph, config) else {
            return Self::full_build(graph, config, &mut scratch.schedule, cancelled);
        };
        let Some(template) = templates.get(&key) else {
            let run = Self::full_build(graph, config, &mut scratch.schedule, cancelled)?;
            templates.insert(key, Template::capture(&run.plan, &run.output));
            return Ok(run);
        };
        if cancelled() {
            return Err(crate::CoreError::Cancelled);
        }
        let mut phases = CompilePhases::default();
        let mut mark = std::time::Instant::now();
        let mut lap = |slot: &mut f64| {
            let now = std::time::Instant::now();
            *slot += now.duration_since(mark).as_secs_f64() * 1e3;
            mark = now;
        };
        let (plan, output) = template.instantiate();
        lap(&mut phases.instantiate_ms);
        if cancelled() {
            return Err(crate::CoreError::Cancelled);
        }
        let schedule = plan.schedule_in(config.opt, &mut scratch.schedule);
        lap(&mut phases.schedule_ms);
        templates.note_instantiated();
        Ok(PipelineRun {
            label: config.label(),
            config: config.clone(),
            plan,
            launches: schedule.launches,
            peak_device_bytes: schedule.peak_device_bytes,
            output,
            sharding: None,
            compile_phases: phases,
        })
    }

    /// Builds one cross-request merged batch (see
    /// [`crate::plan::batchmerge`]): all member requests lowered into a
    /// single block-diagonal plan, one optimize → decorate → schedule
    /// tail, one launch stream. Returns the combined run plus each
    /// member's [`MergedPart`] (solo-bit-identical output + attribution
    /// weights) in request order.
    ///
    /// The returned run's `config`/`label` describe the first member;
    /// its `output` stacks the member outputs row-wise when they share a
    /// width (always true for sampled merges).
    ///
    /// # Errors
    ///
    /// Everything [`crate::plan::batchmerge::lower_merged`] can return:
    /// empty or class-mixed member lists, sampler errors, unsupported
    /// model combinations.
    pub fn build_merged(graph: &Graph, configs: &[RunConfig]) -> Result<(Self, Vec<MergedPart>)> {
        Self::merged_full_build(graph, configs, &mut ScheduleScratch::default())
    }

    /// [`PipelineRun::build_merged`] through a [`TemplateCache`]: a
    /// repeat-shape merged batch (same members, same order — see
    /// [`TemplateKey::of_merged`]) skips lower/optimize/decorate and
    /// only rebinds + schedules. Bit-identical to the full merged build
    /// whether the cache hits or misses; heterogeneous merges
    /// (full-graph mixes) always take the full path.
    ///
    /// # Errors
    ///
    /// Everything [`PipelineRun::build_merged`] can return.
    pub fn build_merged_with_templates(
        graph: &Graph,
        configs: &[RunConfig],
        templates: &TemplateCache,
        scratch: &mut WorkerScratch,
    ) -> Result<(Self, Vec<MergedPart>)> {
        let Some(key) = TemplateKey::of_merged(graph, configs) else {
            return Self::merged_full_build(graph, configs, &mut scratch.schedule);
        };
        let Some(template) = templates.get(&key) else {
            let (run, parts) = Self::merged_full_build(graph, configs, &mut scratch.schedule)?;
            let meta = parts.iter().map(|p| (p.nodes, p.edges)).collect();
            templates.insert(key, Template::capture_merged(&run.plan, &run.output, meta));
            return Ok((run, parts));
        };
        let mut phases = CompilePhases::default();
        let mut mark = std::time::Instant::now();
        let mut lap = |slot: &mut f64| {
            let now = std::time::Instant::now();
            *slot += now.duration_since(mark).as_secs_f64() * 1e3;
            mark = now;
        };
        let (plan, output) = template.instantiate();
        lap(&mut phases.instantiate_ms);
        // Unstack the members: sampled merges (the only templatable
        // kind) contribute one output row each, and the template kept
        // every member's attribution metadata at capture time.
        let first = &configs[0];
        let parts: Vec<MergedPart> = template
            .merged_parts()
            .iter()
            .enumerate()
            .map(|(i, &(nodes, edges))| {
                let mut member = DenseMatrix::zeros(1, first.hidden);
                for c in 0..first.hidden {
                    member.set(0, c, output.get(i, c));
                }
                MergedPart {
                    output: member,
                    nodes,
                    edges,
                }
            })
            .collect();
        let schedule = plan.schedule_in(first.opt, &mut scratch.schedule);
        lap(&mut phases.schedule_ms);
        templates.note_instantiated();
        Ok((
            PipelineRun {
                label: format!("batch[{}] {}", configs.len(), first.label()),
                config: first.clone(),
                plan,
                launches: schedule.launches,
                peak_device_bytes: schedule.peak_device_bytes,
                output,
                sharding: None,
                compile_phases: phases,
            },
            parts,
        ))
    }

    /// The full merged-batch compile: `lower_merged` plus the ordinary
    /// optimize → decorate → schedule tail of [`PipelineRun::full_build`].
    fn merged_full_build(
        graph: &Graph,
        configs: &[RunConfig],
        scratch: &mut ScheduleScratch,
    ) -> Result<(Self, Vec<MergedPart>)> {
        let mut phases = CompilePhases::default();
        let mut mark = std::time::Instant::now();
        let mut lap = |slot: &mut f64| {
            let now = std::time::Instant::now();
            *slot += now.duration_since(mark).as_secs_f64() * 1e3;
            mark = now;
        };
        let (mut plan, parts) = batchmerge::lower_merged(graph, configs)?;
        lap(&mut phases.lower_ms);
        let first = &configs[0];
        plan.optimize(first.opt);
        lap(&mut phases.optimize_ms);
        frameworks::decorate(&mut plan, first.framework);
        lap(&mut phases.decorate_ms);
        let schedule = plan.schedule_in(first.opt, scratch);
        lap(&mut phases.schedule_ms);
        let output = stack_member_outputs(&parts);
        Ok((
            PipelineRun {
                label: format!("batch[{}] {}", configs.len(), first.label()),
                config: first.clone(),
                plan,
                launches: schedule.launches,
                peak_device_bytes: schedule.peak_device_bytes,
                output,
                sharding: None,
                compile_phases: phases,
            },
            parts,
        ))
    }

    /// The shared full-compile path behind every build entry: lower →
    /// optimize → decorate → schedule, with the schedule drawing on
    /// `scratch`.
    fn full_build(
        graph: &Graph,
        config: &RunConfig,
        scratch: &mut ScheduleScratch,
        cancelled: &mut dyn FnMut() -> bool,
    ) -> Result<Self> {
        let checkpoint = |cancelled: &mut dyn FnMut() -> bool| {
            if cancelled() {
                Err(crate::CoreError::Cancelled)
            } else {
                Ok(())
            }
        };
        checkpoint(cancelled)?;
        if config.gpus_per_run > 1 && config.is_minibatch() {
            return Err(crate::CoreError::InvalidConfig {
                key: "batch_size/seed_node".to_string(),
                value: format!(
                    "batch_size={} seed_node={:?} with gpus_per_run={}",
                    config.batch_size, config.seed_node, config.gpus_per_run
                ),
                expected: "mini-batch sampling runs single-device (shards=1)".to_string(),
            });
        }
        let mut phases = CompilePhases::default();
        let mut mark = std::time::Instant::now();
        // Charges the wall time since the previous `lap` call to one
        // phase; ~an Instant::now() per compile phase, so the sim-clock
        // benchmarks stay byte-identical and measurably free.
        let mut lap = |slot: &mut f64| {
            let now = std::time::Instant::now();
            *slot += now.duration_since(mark).as_secs_f64() * 1e3;
            mark = now;
        };
        if config.gpus_per_run > 1 {
            // Sharded multi-GPU path: one plan per shard plus halo
            // exchanges; profile-only by design (output reports zeros,
            // exactly like `functional_math: false`).
            let sharded = shard::build_sharded(graph, config)?;
            lap(&mut phases.lower_ms);
            checkpoint(cancelled)?;
            return Ok(PipelineRun {
                label: config.label(),
                config: config.clone(),
                plan: Plan::new(),
                launches: sharded.flat_launches(),
                peak_device_bytes: sharded.max_shard_peak_bytes(),
                output: DenseMatrix::zeros(graph.num_nodes(), config.hidden),
                sharding: Some(sharded),
                compile_phases: phases,
            });
        }
        let (mut plan, output) = if config.is_minibatch() {
            // Neighbor-sampled path: every batch's ego-net lowered into
            // one combined plan (see `plan::minibatch`); the optimize →
            // decorate → schedule tail below is shared with full-graph
            // runs, so serve requests and batch cells compile alike.
            crate::plan::minibatch::lower_batched(graph, config)?
        } else {
            frameworks::lower(graph, config)?
        };
        lap(&mut phases.lower_ms);
        checkpoint(cancelled)?;
        plan.optimize(config.opt);
        lap(&mut phases.optimize_ms);
        checkpoint(cancelled)?;
        frameworks::decorate(&mut plan, config.framework);
        lap(&mut phases.decorate_ms);
        checkpoint(cancelled)?;
        let schedule = plan.schedule_in(config.opt, scratch);
        lap(&mut phases.schedule_ms);
        Ok(PipelineRun {
            label: config.label(),
            config: config.clone(),
            plan,
            launches: schedule.launches,
            peak_device_bytes: schedule.peak_device_bytes,
            output,
            sharding: None,
            compile_phases: phases,
        })
    }

    /// Profiles every launch with `profiler` and attaches the framework's
    /// modeled host overheads (init + per-launch dispatch) plus the
    /// schedule's peak device bytes. On sharded runs, exchange launches
    /// are priced by the [`Interconnect`] model (`α + β·bytes`) instead of
    /// the kernel profiler, and the per-shard split lands in
    /// [`PipelineProfile::sharding`].
    pub fn profile(&self, profiler: &dyn Profiler) -> PipelineProfile {
        self.profile_with_link(profiler, Interconnect::nvlink())
    }

    /// [`PipelineRun::profile`] with an explicit [`Interconnect`] pricing
    /// the halo exchanges of sharded runs — the hook the fault injector
    /// uses to model a degraded fabric
    /// ([`Interconnect::degraded`]). Single-device runs ignore the link.
    pub fn profile_with_link(
        &self,
        profiler: &dyn Profiler,
        link: Interconnect,
    ) -> PipelineProfile {
        let kernels = self
            .launches
            .iter()
            .map(|launch| profile_launch(profiler, launch))
            .collect();
        self.finish_profile(kernels, link)
    }

    /// [`PipelineRun::profile`] with the independent kernel launches fanned
    /// across CPU cores.
    ///
    /// Each launch owns an independent simulation/model state (caches start
    /// cold per kernel, as the paper's per-kernel profiling does), so
    /// launches are embarrassingly parallel; results are merged back in
    /// launch order, making the output **bit-identical** to the serial
    /// [`PipelineRun::profile`] — a property the `determinism` test suite
    /// locks in.
    pub fn profile_par(&self, profiler: &(dyn Profiler + Sync)) -> PipelineProfile {
        let kernels =
            gsuite_par::par_map(&self.launches, |_, launch| profile_launch(profiler, launch));
        self.finish_profile(kernels, Interconnect::nvlink())
    }

    /// Shared tail of the serial and parallel profile paths: attaches
    /// host overheads and, on sharded runs, replaces exchange records
    /// with `link`-priced transfers and builds the [`ShardingProfile`].
    fn finish_profile(&self, kernels: Vec<KernelStats>, link: Interconnect) -> PipelineProfile {
        let costs = self.config.framework.costs();
        let mut profile = PipelineProfile::new(self.label.clone());
        profile.host_overhead_ms = costs.init_ms + costs.per_launch_ms * self.launches.len() as f64;
        profile.peak_device_bytes = self.peak_device_bytes;
        profile.kernels = kernels;

        if let Some(sharded) = &self.sharding {
            let mut shard_stats = Vec::with_capacity(sharded.shards.len());
            let mut cursor = 0usize;
            for shard in &sharded.shards {
                let slice = &mut profile.kernels[cursor..cursor + shard.launches.len()];
                let (mut kernel_ms, mut exchange_ms) = (0.0f64, 0.0f64);
                for (op, stats) in shard.plan.ops().iter().zip(slice.iter_mut()) {
                    if let OpSpec::Exchange { rows, feat, .. } = &op.spec {
                        let bytes = rows * *feat as u64 * 4;
                        let time_ms = link.transfer_ms(bytes);
                        // The transfer is link-bound: overwrite the
                        // device-side record with the interconnect cost
                        // (keeping the backend tag for report grouping).
                        *stats = KernelStats {
                            kernel: "exchange".to_string(),
                            backend: stats.backend,
                            time_ms,
                            instr_mix: Default::default(),
                            stalls: None,
                            occupancy: None,
                            l1: Default::default(),
                            l2: Default::default(),
                            dram_bytes: bytes,
                            compute_utilization: 0.0,
                            memory_utilization: (time_ms - link.latency_ms) / time_ms,
                        };
                        exchange_ms += time_ms;
                    } else {
                        kernel_ms += stats.time_ms;
                    }
                }
                cursor += shard.launches.len();
                shard_stats.push(ShardStats {
                    device: shard.device,
                    owned_nodes: shard.owned_nodes,
                    halo_nodes: shard.halo_nodes,
                    kernel_ms,
                    exchange_ms,
                    halo_in_bytes: shard.halo_in_bytes,
                    peak_device_bytes: shard.peak_device_bytes,
                });
            }
            profile.sharding = Some(ShardingProfile {
                strategy: sharded.strategy.name().to_string(),
                cut_edges: sharded.cut_edges,
                total_edges: sharded.total_edges,
                shards: shard_stats,
            });
        }
        profile
    }

    /// Total kernel launches.
    pub fn launch_count(&self) -> usize {
        self.launches.len()
    }
}

/// Stacks merged-member outputs row-wise into the combined run's output
/// matrix. Members of differing widths (full-graph merges mixing hidden
/// sizes) cannot stack; the combined output degrades to a `1×1` zero
/// placeholder and callers read the per-member [`MergedPart`]s instead.
fn stack_member_outputs(parts: &[MergedPart]) -> DenseMatrix {
    let cols = parts.first().map_or(0, |p| p.output.cols());
    if cols == 0 || parts.iter().any(|p| p.output.cols() != cols) {
        return DenseMatrix::zeros(1, 1);
    }
    let rows = parts.iter().map(|p| p.output.rows()).sum();
    let mut out = DenseMatrix::zeros(rows, cols);
    let mut r = 0;
    for part in parts {
        for i in 0..part.output.rows() {
            for c in 0..cols {
                out.set(r, c, part.output.get(i, c));
            }
            r += 1;
        }
    }
    out
}

/// Per-worker reusable compile arenas: everything a build can recycle
/// between requests so steady-state serving allocates ~zero on the
/// compile side. Today that is the schedule scratch (allocator free
/// lists + liveness bucket vectors; see
/// [`crate::plan::ScheduleScratch`]) — simulator-side `TraceBuf`s are
/// already pooled inside the GPU model. Not `Sync` by design: each
/// serving worker owns one.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    /// Schedule-time arenas, reset (not reallocated) on every build.
    pub schedule: ScheduleScratch,
}

impl WorkerScratch {
    /// A fresh scratch; arenas grow to steady-state size over the first
    /// few builds and are retained afterwards.
    pub fn new() -> WorkerScratch {
        WorkerScratch::default()
    }
}

/// Measures one launch, grouping it under the Table II taxonomy name
/// (e.g. all elementwise variants report as "other"). Exchange launches
/// skip the kernel profiler entirely — `finish_profile` replaces their
/// records with interconnect-priced transfers, so cycle-simulating the
/// staging stores would be pure waste; only the backend tag survives into
/// the final record.
fn profile_launch(profiler: &dyn Profiler, launch: &Launch) -> KernelStats {
    if launch.kind == crate::kernels::KernelKind::Exchange {
        return KernelStats {
            kernel: launch.kind.name().to_string(),
            backend: profiler.backend(),
            time_ms: 0.0,
            instr_mix: Default::default(),
            stalls: None,
            occupancy: None,
            l1: Default::default(),
            l2: Default::default(),
            dram_bytes: 0,
            compute_utilization: 0.0,
            memory_utilization: 0.0,
        };
    }
    let mut stats = profiler.profile(launch.workload.as_ref());
    stats.kernel = launch.kind.name().to_string();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CompModel, FrameworkKind, GnnModel};
    use crate::plan::OptLevel;
    use gsuite_graph::datasets::Dataset;
    use gsuite_profile::HwProfiler;

    fn config() -> RunConfig {
        RunConfig {
            model: GnnModel::Gcn,
            comp: CompModel::Mp,
            dataset: Dataset::Cora,
            scale: 0.02,
            layers: 2,
            hidden: 8,
            ..RunConfig::default()
        }
    }

    /// The merged template fast path is bit-identical to the full merged
    /// build: same launch stream size, peak bytes, stacked output and
    /// per-member parts — and the second identical batch hits the cache.
    #[test]
    fn merged_template_instantiate_is_bit_identical() {
        let member = |v: u32| RunConfig {
            seed_node: Some(v),
            fanout: vec![3, 3],
            opt: OptLevel::O2,
            ..config()
        };
        let configs: Vec<RunConfig> = [2u32, 5, 11].iter().map(|&v| member(v)).collect();
        let graph = configs[0].load_graph();
        let (full, full_parts) = PipelineRun::build_merged(&graph, &configs).unwrap();

        let templates = TemplateCache::new();
        let mut scratch = WorkerScratch::default();
        let (first, _) =
            PipelineRun::build_merged_with_templates(&graph, &configs, &templates, &mut scratch)
                .unwrap();
        assert_eq!(templates.stats().instantiates, 0, "first build compiles");
        let (hit, hit_parts) =
            PipelineRun::build_merged_with_templates(&graph, &configs, &templates, &mut scratch)
                .unwrap();
        assert_eq!(templates.stats().instantiates, 1, "second build rebinds");

        for run in [&first, &hit] {
            assert_eq!(run.launches.len(), full.launches.len());
            assert_eq!(run.peak_device_bytes, full.peak_device_bytes);
            assert_eq!(run.output, full.output);
        }
        assert_eq!(hit_parts.len(), full_parts.len());
        for (a, b) in hit_parts.iter().zip(&full_parts) {
            assert_eq!(a.output, b.output);
            assert_eq!((a.nodes, a.edges), (b.nodes, b.edges));
        }
        // The stacked output carries one row per member.
        assert_eq!(full.output.rows(), configs.len());
    }

    #[test]
    fn build_and_profile() {
        let cfg = config();
        let graph = cfg.load_graph();
        let run = PipelineRun::build(&graph, &cfg).unwrap();
        // GCN-MP: 4 kernels/layer x 2 layers + 1 inter-layer ReLU.
        assert_eq!(run.launch_count(), 9);
        let profile = run.profile(&HwProfiler::v100());
        assert_eq!(profile.kernels.len(), 9);
        assert!(profile.device_time_ms() > 0.0);
        assert!(profile.host_overhead_ms > 0.0);
        assert_eq!(profile.peak_device_bytes, run.peak_device_bytes);
        // Kernel records grouped under Table II names.
        assert!(profile.kernels.iter().any(|k| k.kernel == "indexSelect"));
        assert!(profile.kernels.iter().any(|k| k.kernel == "sgemm"));
    }

    #[test]
    fn framework_overheads_rank_pipelines() {
        let graph = config().load_graph();
        let mut times = Vec::new();
        for fw in FrameworkKind::ALL {
            let cfg = RunConfig {
                framework: fw,
                ..config()
            };
            let run = PipelineRun::build(&graph, &cfg).unwrap();
            let p = run.profile(&HwProfiler::v100());
            times.push((fw, p.total_time_ms()));
        }
        let pyg = times
            .iter()
            .find(|(f, _)| *f == FrameworkKind::PygLike)
            .unwrap()
            .1;
        let dgl = times
            .iter()
            .find(|(f, _)| *f == FrameworkKind::DglLike)
            .unwrap()
            .1;
        let gsuite = times
            .iter()
            .find(|(f, _)| *f == FrameworkKind::GSuite)
            .unwrap()
            .1;
        assert!(pyg > dgl, "PyG {pyg} should exceed DGL {dgl}");
        assert!(dgl > gsuite, "DGL {dgl} should exceed gSuite {gsuite}");
    }

    #[test]
    fn profile_par_is_bit_identical_to_serial() {
        let cfg = config();
        let graph = cfg.load_graph();
        let run = PipelineRun::build(&graph, &cfg).unwrap();
        let hw = HwProfiler::v100();
        assert_eq!(run.profile(&hw), run.profile_par(&hw));
    }

    #[test]
    fn profile_only_mode_builds_without_math() {
        let cfg = RunConfig {
            functional_math: false,
            ..config()
        };
        let graph = cfg.load_graph();
        let run = PipelineRun::build(&graph, &cfg).unwrap();
        assert_eq!(run.output.sum(), 0.0, "profile-only output is zeros");
        assert_eq!(run.launch_count(), 9);
    }

    #[test]
    fn sharded_runs_profile_per_shard_with_interconnect_pricing() {
        let cfg = RunConfig {
            gpus_per_run: 2,
            functional_math: false,
            ..config()
        };
        let graph = cfg.load_graph();
        let run = PipelineRun::build(&graph, &cfg).unwrap();
        assert!(run.sharding.is_some());
        let profile = run.profile(&HwProfiler::v100());
        let sharding = profile.sharding.as_ref().expect("sharded profile");
        assert_eq!(sharding.shards.len(), 2);
        assert_eq!(
            sharding.shards.iter().map(|s| s.owned_nodes).sum::<u64>(),
            graph.num_nodes() as u64
        );
        assert!(sharding.cut_edges > 0);
        assert!(sharding.halo_bytes() > 0);
        // Exchange records are link-priced, never profiler output.
        let exchanges: Vec<_> = profile
            .kernels
            .iter()
            .filter(|k| k.kernel == "exchange")
            .collect();
        assert!(!exchanges.is_empty());
        for x in &exchanges {
            assert!(x.time_ms >= 0.005, "latency floor applies: {}", x.time_ms);
            assert!(x.dram_bytes > 0);
        }
        // The makespan (slowest shard) is bounded by the summed work.
        assert!(profile.parallel_time_ms() <= profile.device_time_ms());
        assert!(profile.parallel_time_ms() >= sharding.shards[0].exchange_ms);
        // Single-device memory is the max shard peak.
        assert_eq!(profile.peak_device_bytes, sharding.max_shard_peak_bytes());
        // Parallel profiling is bit-identical on sharded runs too.
        assert_eq!(profile, run.profile_par(&HwProfiler::v100()));
    }

    #[test]
    fn compile_phases_are_measured_and_finite() {
        let cfg = config();
        let graph = cfg.load_graph();
        let run = PipelineRun::build(&graph, &cfg).unwrap();
        let p = run.compile_phases;
        for ms in [p.lower_ms, p.optimize_ms, p.decorate_ms, p.schedule_ms] {
            assert!(ms.is_finite() && ms >= 0.0, "{p:?}");
        }
        assert!(p.total_ms() > 0.0, "some phase took wall time: {p:?}");
        // Sharded builds charge everything to the lowering slot.
        let sharded_cfg = RunConfig {
            gpus_per_run: 2,
            functional_math: false,
            ..config()
        };
        let sharded = PipelineRun::build(&graph, &sharded_cfg).unwrap();
        assert!(sharded.compile_phases.lower_ms > 0.0);
        assert_eq!(sharded.compile_phases.optimize_ms, 0.0);
    }

    #[test]
    fn cancellable_build_matches_build_and_cancels_at_checkpoints() {
        let cfg = config();
        let graph = cfg.load_graph();
        let plain = PipelineRun::build(&graph, &cfg).unwrap();
        let free = PipelineRun::build_cancellable(&graph, &cfg, &mut || false).unwrap();
        assert_eq!(plain.launch_count(), free.launch_count());
        assert_eq!(plain.peak_device_bytes, free.peak_device_bytes);
        assert_eq!(
            plain.profile(&HwProfiler::v100()),
            free.profile(&HwProfiler::v100()),
            "never-firing cancellation is the plain build path"
        );
        assert_eq!(plain.output, free.output);
        // A budget that expires after N polls aborts with Cancelled at
        // every checkpoint depth (four on the single-device path) —
        // never a panic, never a partial run.
        for expire_after in 0..4usize {
            let mut polls = 0usize;
            let result = PipelineRun::build_cancellable(&graph, &cfg, &mut || {
                polls += 1;
                polls > expire_after
            });
            assert!(
                matches!(result, Err(crate::CoreError::Cancelled)),
                "expire_after={expire_after}"
            );
        }
        // Sharded builds hit their own checkpoints too.
        let sharded_cfg = RunConfig {
            gpus_per_run: 2,
            functional_math: false,
            ..config()
        };
        let result = PipelineRun::build_cancellable(&graph, &sharded_cfg, &mut || true);
        assert!(matches!(result, Err(crate::CoreError::Cancelled)));
    }

    #[test]
    fn degraded_links_inflate_only_the_exchange_share() {
        let cfg = RunConfig {
            gpus_per_run: 2,
            functional_math: false,
            ..config()
        };
        let graph = cfg.load_graph();
        let run = PipelineRun::build(&graph, &cfg).unwrap();
        let hw = HwProfiler::v100();
        let clean = run.profile(&hw);
        assert_eq!(
            clean,
            run.profile_with_link(&hw, Interconnect::nvlink()),
            "profile() is profile_with_link(nvlink)"
        );
        let slow = run.profile_with_link(&hw, Interconnect::nvlink().degraded(8.0));
        let (c, s) = (
            clean.sharding.as_ref().unwrap(),
            slow.sharding.as_ref().unwrap(),
        );
        for (cs, ss) in c.shards.iter().zip(&s.shards) {
            assert!(ss.exchange_ms > cs.exchange_ms, "exchange inflates");
            assert_eq!(ss.kernel_ms, cs.kernel_ms, "kernel time untouched");
        }
    }

    #[test]
    fn template_builds_are_bit_identical_and_attributed_to_instantiate() {
        let cfg = config();
        let graph = cfg.load_graph();
        let templates = TemplateCache::new();
        let plain = PipelineRun::build(&graph, &cfg).unwrap();
        let cold = PipelineRun::build_with_templates(&graph, &cfg, &templates).unwrap();
        let warm = PipelineRun::build_with_templates(&graph, &cfg, &templates).unwrap();
        for run in [&cold, &warm] {
            assert_eq!(run.launch_count(), plain.launch_count());
            assert_eq!(run.peak_device_bytes, plain.peak_device_bytes);
            assert_eq!(run.output, plain.output);
            assert_eq!(
                run.profile(&HwProfiler::v100()),
                plain.profile(&HwProfiler::v100())
            );
        }
        // Phase attribution: the cold build paid the full compile, the
        // warm one only instantiate + schedule.
        assert_eq!(cold.compile_phases.instantiate_ms, 0.0);
        assert!(cold.compile_phases.full_compile_ms() > 0.0);
        assert_eq!(warm.compile_phases.full_compile_ms(), 0.0);
        assert!(warm.compile_phases.instantiate_ms >= 0.0);
        assert!(warm.compile_phases.total_ms() > 0.0);
        let s = templates.stats();
        assert_eq!((s.hits, s.misses, s.instantiates, s.entries), (1, 1, 1, 1));
    }

    #[test]
    fn template_fast_path_honors_cancellation_and_sharded_bypass() {
        let cfg = config();
        let graph = cfg.load_graph();
        let templates = TemplateCache::new();
        let mut scratch = WorkerScratch::new();
        PipelineRun::build_with_templates_in(&graph, &cfg, &templates, &mut scratch, &mut || false)
            .unwrap();
        // Warm path: cancellation still aborts cleanly.
        let result = PipelineRun::build_with_templates_in(
            &graph,
            &cfg,
            &templates,
            &mut scratch,
            &mut || true,
        );
        assert!(matches!(result, Err(crate::CoreError::Cancelled)));
        // Sharded configs bypass the cache entirely (and never insert).
        let sharded_cfg = RunConfig {
            gpus_per_run: 2,
            functional_math: false,
            ..config()
        };
        let before = templates.stats();
        let sharded = PipelineRun::build_with_templates(&graph, &sharded_cfg, &templates).unwrap();
        assert!(sharded.sharding.is_some());
        let after = templates.stats();
        assert_eq!(after.entries, before.entries);
        assert_eq!((after.hits, after.misses), (before.hits, before.misses));
    }

    #[test]
    fn worker_scratch_reuse_is_byte_identical_across_builds() {
        // One scratch serving many different shapes must never leak
        // state between schedules — O0 and O2, interleaved.
        let graph = config().load_graph();
        let mut scratch = WorkerScratch::new();
        let templates = TemplateCache::with_capacity(0); // force full builds
        for opt in [OptLevel::O0, OptLevel::O2, OptLevel::O0, OptLevel::O2] {
            for model in [GnnModel::Gcn, GnnModel::Gin] {
                let cfg = RunConfig {
                    opt,
                    model,
                    ..config()
                };
                let fresh = PipelineRun::build(&graph, &cfg).unwrap();
                let reused = PipelineRun::build_with_templates_in(
                    &graph,
                    &cfg,
                    &templates,
                    &mut scratch,
                    &mut || false,
                )
                .unwrap();
                assert_eq!(
                    fresh.profile(&HwProfiler::v100()),
                    reused.profile(&HwProfiler::v100()),
                    "{model:?} at {opt:?}"
                );
                assert_eq!(fresh.peak_device_bytes, reused.peak_device_bytes);
                assert_eq!(fresh.output, reused.output);
            }
        }
    }

    #[test]
    fn o2_shrinks_launches_and_peak_without_changing_output() {
        let cfg_o0 = config();
        let cfg_o2 = RunConfig {
            opt: OptLevel::O2,
            ..config()
        };
        let graph = cfg_o0.load_graph();
        let o0 = PipelineRun::build(&graph, &cfg_o0).unwrap();
        let o2 = PipelineRun::build(&graph, &cfg_o2).unwrap();
        // GCN-MP at O2: the layer-2 degree scatter is hoisted.
        assert!(o2.launch_count() < o0.launch_count());
        assert!(o2.peak_device_bytes < o0.peak_device_bytes);
        assert_eq!(o2.output, o0.output, "functional output is bit-identical");
        assert!(!o2.plan.decisions().is_empty());
    }
}
