//! Benchmarks of pipeline construction, analytical profiling and cycle
//! simulation — the throughput numbers that bound how fast the scenario
//! grids can sweep — including the serial vs. parallel profiling paths.

use gsuite_bench::microbench::Runner;
use gsuite_core::config::{CompModel, GnnModel, RunConfig};
use gsuite_core::pipeline::PipelineRun;
use gsuite_graph::datasets::Dataset;
use gsuite_profile::{HwProfiler, Profiler, SimProfiler};

fn small_config(model: GnnModel, comp: CompModel) -> RunConfig {
    RunConfig {
        model,
        comp,
        dataset: Dataset::Cora,
        scale: 0.1,
        layers: 2,
        hidden: 16,
        functional_math: false,
        ..RunConfig::default()
    }
}

fn bench_pipeline_build(r: &mut Runner) {
    for (model, comp, label) in [
        (GnnModel::Gcn, CompModel::Mp, "gcn_mp"),
        (GnnModel::Gcn, CompModel::Spmm, "gcn_spmm"),
        (GnnModel::Gin, CompModel::Mp, "gin_mp"),
        (GnnModel::Sage, CompModel::Mp, "sage_mp"),
    ] {
        let cfg = small_config(model, comp);
        let graph = cfg.load_graph();
        r.bench(&format!("build/{label}"), 0.5, || {
            PipelineRun::build(&graph, &cfg).unwrap();
        });
    }
}

fn bench_functional_inference(r: &mut Runner) {
    let cfg = RunConfig {
        functional_math: true,
        ..small_config(GnnModel::Gcn, CompModel::Mp)
    };
    let graph = cfg.load_graph();
    r.bench("functional/gcn_mp_cora@0.1", 0.5, || {
        let run = PipelineRun::build(&graph, &cfg).unwrap();
        let _ = run.output.sum();
    });
}

fn bench_profiling_backends(r: &mut Runner) {
    let cfg = small_config(GnnModel::Gcn, CompModel::Mp);
    let graph = cfg.load_graph();
    let run = PipelineRun::build(&graph, &cfg).unwrap();
    let launches = run.launch_count() as f64;
    let hw = HwProfiler::v100();
    r.bench_units(
        "profile/hw_serial_gcn_mp",
        1.0,
        Some((launches, "launches")),
        || {
            let _ = run.profile(&hw);
        },
    );
    let sim = SimProfiler::scaled(4).max_ctas(Some(64));
    r.bench("profile/cycle_sim_one_kernel", 1.0, || {
        let _ = sim.profile(run.launches[2].workload.as_ref());
    });
}

fn main() {
    let mut r = Runner::new("pipelines");
    bench_pipeline_build(&mut r);
    bench_functional_inference(&mut r);
    bench_profiling_backends(&mut r);
    r.finish_from_env();
}
