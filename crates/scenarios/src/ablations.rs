//! The `ablations` scenario: the design points ARCHITECTURE.md calls out
//! and the architectural suggestions the paper closes with (§V-D5/D6),
//! each measured on the cycle simulator:
//!
//! 1. **L1 bypassing** — the paper: "using L1 cache bypassing techniques
//!    can be considered" for GNN inference's cache-hostile gathers.
//! 2. **Split-K GEMM** — the suite's deep-reduction policy for tall-skinny
//!    linear layers (CiteSeer's f = 3703).
//! 3. **Edge ordering** — destination-sorted vs shuffled edge index:
//!    the locality the MP kernels inherit from the loader.
//!
//! The grid is empty (like `table2`): the renderer builds its own kernels.

use std::sync::Arc;

use gsuite_core::config::{CompModel, FrameworkKind, GnnModel, RunConfig};
use gsuite_core::kernels::{KernelKind, ScatterKernel, SgemmKernel};
use gsuite_core::pipeline::PipelineRun;
use gsuite_gpu::{GpuConfig, KernelWorkload, SimOptions, Simulator};
use gsuite_graph::datasets::Dataset;
use gsuite_profile::{Profiler, SimProfiler, TextTable};
use gsuite_tensor::ops::Reduce;

use crate::opts::{ms, pct, BenchOpts};
use crate::report::Report;
use crate::runner::ScenarioResult;
use crate::spec::ScenarioSpec;

pub(crate) fn spec_ablations() -> ScenarioSpec {
    ScenarioSpec {
        name: "ablations",
        title: "L1 bypass, split-K, edge ordering",
        models: vec![],
        datasets: vec![],
        ..ScenarioSpec::default()
    }
}

pub(crate) fn render_ablations(_result: &ScenarioResult, opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header("Ablations", "L1 bypass, split-K, edge ordering");
    ablation_l1_bypass(&mut report, opts);
    ablation_split_k(&mut report, opts);
    ablation_edge_order(&mut report, opts);
    report
}

/// The CTA sampling cap of an ablation simulation: 128 in quick mode,
/// `default_cap` otherwise, tightened by [`BenchOpts::max_ctas_cap`].
fn cta_cap(opts: &BenchOpts, default_cap: u64) -> u64 {
    opts.cap_ctas(if opts.quick { 128 } else { default_cap })
}

/// GIN-MP gather/scatter kernels with and without L1 load bypassing.
fn ablation_l1_bypass(report: &mut Report, opts: &BenchOpts) {
    let cfg = RunConfig {
        model: GnnModel::Gin,
        comp: CompModel::Mp,
        dataset: Dataset::Cora,
        scale: opts.scale_for(Dataset::Cora),
        layers: 1,
        hidden: 16,
        framework: FrameworkKind::GSuite,
        functional_math: false,
        ..RunConfig::default()
    };
    let graph = cfg.load_graph();
    let run = PipelineRun::build(&graph, &cfg).expect("GIN-MP builds on every dataset");
    let max_ctas = cta_cap(opts, 1024);
    let sims = [
        ("L1 on", GpuConfig::v100_scaled(16)),
        ("L1 bypass", GpuConfig::v100_scaled(16).with_l1_bypass(true)),
    ];
    let mut table = TextTable::new(&["Kernel", "Variant", "time (ms)", "L1 hit", "DRAM MB"]);
    for launch in &run.launches {
        if !matches!(launch.kind, KernelKind::IndexSelect | KernelKind::Scatter) {
            continue;
        }
        for (label, gpu) in &sims {
            let sim = SimProfiler::new(Simulator::new(
                gpu.clone(),
                SimOptions {
                    max_ctas: Some(max_ctas),
                    max_cycles: None,
                },
            ));
            let stats = sim.profile(launch.workload.as_ref());
            table.row_owned(vec![
                launch.kind.name().to_string(),
                label.to_string(),
                ms(stats.time_ms),
                pct(stats.l1.hit_rate()),
                format!("{:.2}", stats.dram_bytes as f64 / 1e6),
            ]);
        }
    }
    report.table(
        "ablation_l1_bypass",
        "L1 bypassing on the GIN-MP gather/scatter kernels (paper §V-D5)",
        table,
    );
}

/// sgemm over CiteSeer's tall-skinny first layer with varying K strips.
fn ablation_split_k(report: &mut Report, opts: &BenchOpts) {
    let (m, k, n) = if opts.quick {
        (256usize, 1024usize, 16usize)
    } else {
        (3_327, 3_703, 16)
    };
    let mut table = TextTable::new(&["k_strip", "CTAs", "time (ms)", "compute util"]);
    for strip in [k, 512, 256, 128] {
        let kernel = SgemmKernel {
            k_strip: strip,
            ..SgemmKernel::new(m, k, n, 0x1000_0000, 0x2000_0000, 0x3000_0000)
        };
        let sim = SimProfiler::scaled(16).max_ctas(Some(cta_cap(opts, 2048)));
        let stats = sim.profile(&kernel);
        table.row_owned(vec![
            strip.to_string(),
            kernel.grid().ctas.to_string(),
            ms(stats.time_ms),
            pct(stats.compute_utilization),
        ]);
    }
    report.table(
        "ablation_split_k",
        format!("split-K policy on a {m}x{k}x{n} sgemm (CiteSeer layer 1 shape)"),
        table,
    );
}

/// Scatter with destination-sorted vs shuffled edge order.
fn ablation_edge_order(report: &mut Report, opts: &BenchOpts) {
    let graph = Dataset::Cora.load_scaled(opts.scale_for(Dataset::Cora));
    let at = graph.adjacency_csr_transposed();
    let mut sorted: Vec<u32> = Vec::with_capacity(at.nnz());
    for d in 0..at.rows() {
        sorted.extend(std::iter::repeat_n(d as u32, at.row_nnz(d)));
    }
    // Deterministic shuffle (LCG index permutation).
    let n = sorted.len() as u64;
    let mut shuffled = sorted.clone();
    if n > 1 {
        for i in 0..n {
            let j = (i
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(144_115_188))
                % n;
            shuffled.swap(i as usize, j as usize);
        }
    }
    let feat = 64usize;
    let mut table = TextTable::new(&["Edge order", "time (ms)", "L2 hit", "DRAM MB"]);
    for (label, index) in [("dst-sorted", sorted), ("shuffled", shuffled)] {
        let kernel = ScatterKernel {
            index: Arc::new(index),
            index_base: 0x1000_0000,
            in_base: Some(0x2000_0000),
            feat,
            out_base: 0x4000_0000,
            out_rows: graph.num_nodes(),
            reduce: Reduce::Sum,
        };
        let sim = SimProfiler::scaled(16).max_ctas(Some(cta_cap(opts, 2048)));
        let stats = sim.profile(&kernel);
        table.row_owned(vec![
            label.to_string(),
            ms(stats.time_ms),
            pct(stats.l2.hit_rate()),
            format!("{:.2}", stats.dram_bytes as f64 / 1e6),
        ]);
    }
    report.table(
        "ablation_edge_order",
        "scatter locality: destination-sorted vs shuffled edge index",
        table,
    );
}
