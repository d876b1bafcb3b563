//! The scenario registry: every paper figure/table as a named
//! [`ScenarioSpec`] plus a renderer, and beyond-paper scenarios the
//! original evaluation never ran.
//!
//! The CLI exposes the registry as `gsuite-cli run-scenario <name>` /
//! `--list` / `--filter`.

use gsuite_core::config::{CompModel, FrameworkKind, GnnModel};
use gsuite_core::OptLevel;
use gsuite_gpu::StallReason;
use gsuite_graph::datasets::Dataset;
use gsuite_graph::{fanout_label, GraphFormat};
use gsuite_profile::{PipelineProfile, TextTable};

use crate::opts::{ms, pct, BenchOpts};
use crate::report::Report;
use crate::runner::{run_scenario, CellOutcome, ScenarioResult};
use crate::spec::{GpuSpec, ScenarioSpec};

/// A registered scenario: a named grid spec plus its report renderer.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Registry name.
    pub name: &'static str,
    /// One-line description shown by `--list`.
    pub about: &'static str,
    spec_fn: fn() -> ScenarioSpec,
    render_fn: fn(&ScenarioResult, &BenchOpts) -> Report,
}

impl Scenario {
    /// The scenario's grid spec.
    pub fn spec(&self) -> ScenarioSpec {
        (self.spec_fn)()
    }

    /// Runs the grid and renders its report.
    pub fn run(&self, opts: &BenchOpts) -> (ScenarioResult, Report) {
        let result = run_scenario(&self.spec(), opts);
        let report = (self.render_fn)(&result, opts);
        (result, report)
    }

    /// [`Scenario::run`] with an explicit worker count (`1` forces a
    /// serial run); output is bit-identical for every thread count.
    pub fn run_threads(&self, opts: &BenchOpts, threads: usize) -> (ScenarioResult, Report) {
        let result = crate::runner::run_scenario_threads(&self.spec(), opts, threads);
        let report = (self.render_fn)(&result, opts);
        (result, report)
    }

    /// Renders a report from an already executed result.
    pub fn render(&self, result: &ScenarioResult, opts: &BenchOpts) -> Report {
        (self.render_fn)(result, opts)
    }
}

/// Every registered scenario, in the paper's figure order followed by the
/// beyond-paper entries.
pub fn all() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "fig3",
            about: "end-to-end execution time per framework, model and dataset",
            spec_fn: spec_fig3,
            render_fn: render_fig3,
        },
        Scenario {
            name: "fig4",
            about: "kernel execution-time distribution per framework / model / dataset",
            spec_fn: spec_fig4,
            render_fn: render_fig4,
        },
        Scenario {
            name: "fig5",
            about: "instruction breakdown of the core kernels (GCN-CR, GIN-LJ)",
            spec_fn: spec_fig5,
            render_fn: render_fig5,
        },
        Scenario {
            name: "fig6",
            about: "issue-stall distribution of core kernels (cycle simulator)",
            spec_fn: spec_fig6,
            render_fn: render_fig6,
        },
        Scenario {
            name: "fig7",
            about: "warp occupancy distribution of gSuite-MP kernels (cycle simulator)",
            spec_fn: spec_fig7,
            render_fn: render_fig7,
        },
        Scenario {
            name: "fig8",
            about: "L1/L2 hit rates: analytical profiler vs cycle simulator",
            spec_fn: spec_fig8,
            render_fn: render_fig8,
        },
        Scenario {
            name: "fig9",
            about: "compute/memory utilization of gSuite-MP kernels (cycle simulator)",
            spec_fn: spec_fig9,
            render_fn: render_fig9,
        },
        Scenario {
            name: "table2",
            about: "core MP and SpMM kernel inventory (paper Table II)",
            spec_fn: spec_table2,
            render_fn: render_table2,
        },
        Scenario {
            name: "table4",
            about: "evaluation datasets and generated instances (paper Table IV)",
            spec_fn: spec_table4,
            render_fn: render_table4,
        },
        Scenario {
            name: "xmodels",
            about: "beyond-paper: all 5 models x all 5 datasets x both formats on V100",
            spec_fn: spec_xmodels,
            render_fn: render_xmodels,
        },
        Scenario {
            name: "gpusweep",
            about: "beyond-paper: GCN-MP scaling across simulated GPU sizes (4..32 SMs)",
            spec_fn: spec_gpusweep,
            render_fn: render_gpusweep,
        },
        Scenario {
            name: "serve-mix",
            about: "beyond-paper: the serving workload mix driven by gsuite-cli loadgen",
            spec_fn: spec_servemix,
            render_fn: render_servemix,
        },
        Scenario {
            name: "planopt",
            about: "beyond-paper: plan-IR optimization deltas (O0 vs O2) per model/comp/dataset",
            spec_fn: spec_planopt,
            render_fn: render_planopt,
        },
        Scenario {
            name: "multigpu",
            about:
                "beyond-paper: graph-partitioned multi-GPU scaling (1/2/4/8 shards, halo exchange)",
            spec_fn: spec_multigpu,
            render_fn: render_multigpu,
        },
        Scenario {
            name: "minibatch",
            about: "beyond-paper: seed-deterministic neighbor-sampled mini-batch inference (batch x fanout sweep, O0 vs O2 weight sharing)",
            spec_fn: spec_minibatch,
            render_fn: render_minibatch,
        },
        Scenario {
            name: "hetero",
            about: "beyond-paper: heterogeneous ogbn-mag-like graph, RGCN with one aggregation chain per typed relation",
            spec_fn: spec_hetero,
            render_fn: render_hetero,
        },
        Scenario {
            name: "chaos",
            about: "beyond-paper: seeded fault injection vs resilience policy (deadlines, retries, breaker) over the serving simulation",
            spec_fn: crate::chaos::spec_chaos,
            render_fn: crate::chaos::render_chaos,
        },
        Scenario {
            name: "servebatch",
            about: "beyond-paper: cross-request batching vs unbatched serving (goodput, tail latency, SLO) by offered rate x batch policy over an ego-net request mix",
            spec_fn: crate::servebatch::spec_servebatch,
            render_fn: crate::servebatch::render_servebatch,
        },
        Scenario {
            name: "ablations",
            about: "beyond-paper: ablations of the paper's closing suggestions on the cycle simulator (L1 bypass, split-K GEMM, edge ordering)",
            spec_fn: crate::ablations::spec_ablations,
            render_fn: crate::ablations::render_ablations,
        },
    ]
}

/// Finds a scenario by registry name.
pub fn find(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

/// Scenarios whose name or description contains `filter`
/// (case-insensitive).
pub fn matching(filter: &str) -> Vec<Scenario> {
    let needle = filter.to_ascii_lowercase();
    all()
        .into_iter()
        .filter(|s| {
            s.name.to_ascii_lowercase().contains(&needle)
                || s.about.to_ascii_lowercase().contains(&needle)
        })
        .collect()
}

/// The `--list` table: name, grid size at the given mode, description.
pub fn list_table(scenarios: &[Scenario], opts: &BenchOpts) -> TextTable {
    let mut table = TextTable::new(&["scenario", "cells", "description"]);
    for s in scenarios {
        let cells = s.spec().expand(opts).len();
        table.row_owned(vec![
            s.name.to_string(),
            cells.to_string(),
            s.about.to_string(),
        ]);
    }
    table
}

/// Renders the generated scenario reference (`docs/SCENARIOS.md`): one
/// markdown table row per registry entry — name, axes, expanded cell
/// count at the default mode, golden snapshot path and description.
///
/// `gsuite-cli docs-scenarios` prints this; `--write` commits it to
/// `docs/SCENARIOS.md` and CI's `--check` fails when the committed file
/// drifts from the registry.
pub fn scenario_docs(opts: &BenchOpts) -> String {
    let mut out = String::new();
    out.push_str("# Scenario reference\n\n");
    out.push_str(
        "<!-- GENERATED by `gsuite-cli docs-scenarios --write` — do not edit by hand.\n     \
         CI runs `gsuite-cli docs-scenarios --check` and fails when this file\n     \
         drifts from the registry in crates/scenarios/src/registry.rs. -->\n\n",
    );
    out.push_str(
        "Every entry is runnable as `gsuite-cli run-scenario <name> [--quick|--full]`\n\
         and locked by a byte-exact golden snapshot (see `tests/golden.rs`).\n\
         Cell counts are the default-mode grid size; axes with a single value\n\
         are collapsed.\n\n",
    );
    out.push_str("| scenario | cells | axes | golden snapshot | description |\n");
    out.push_str("|---|---|---|---|---|\n");
    for s in all() {
        let spec = s.spec();
        let cells = spec.expand(opts).len();
        let mut axes: Vec<String> = Vec::new();
        let join = |items: Vec<String>| items.join("/");
        if !spec.models.is_empty() {
            axes.push(format!(
                "models: {}",
                join(spec.models.iter().map(|m| m.to_string()).collect())
            ));
        }
        if !spec.datasets.is_empty() {
            axes.push(format!(
                "datasets: {}",
                join(
                    spec.datasets
                        .iter()
                        .map(|d| d.short().to_string())
                        .collect()
                )
            ));
        }
        if spec.frameworks.len() > 1 {
            axes.push(format!(
                "frameworks: {}",
                join(spec.frameworks.iter().map(|f| f.to_string()).collect())
            ));
        }
        if !spec.comp_models.is_empty() {
            axes.push(format!(
                "comp: {}",
                join(spec.comp_models.iter().map(|c| c.to_string()).collect())
            ));
        }
        axes.push(format!(
            "gpus: {}",
            join(spec.gpus.iter().map(|g| g.label()).collect())
        ));
        if spec.gpus_per_run != vec![1] {
            axes.push(format!(
                "shards: {} ({})",
                join(spec.gpus_per_run.iter().map(|n| n.to_string()).collect()),
                spec.partitioner.name()
            ));
        }
        if spec.opt_levels != vec![OptLevel::O0] {
            axes.push(format!(
                "opt: {}",
                join(spec.opt_levels.iter().map(|o| o.to_string()).collect())
            ));
        }
        if spec.batch_sizes != vec![0] {
            axes.push(format!(
                "batch: {}",
                join(spec.batch_sizes.iter().map(|b| b.to_string()).collect())
            ));
        }
        if spec.fanouts != vec![Vec::new()] {
            axes.push(format!(
                "fanout: {}",
                join(spec.fanouts.iter().map(|f| fanout_label(f)).collect())
            ));
        }
        if spec.restrict.is_some() {
            axes.push("restricted subset".to_string());
        }
        out.push_str(&format!(
            "| `{}` | {} | {} | `tests/golden/{}.txt` | {} |\n",
            s.name,
            cells,
            axes.join("; "),
            s.name,
            s.about
        ));
    }
    out.push_str("\nRegenerate with:\n\n```bash\ncargo run --release --bin gsuite-cli -- docs-scenarios --write\n```\n");
    out
}

fn na() -> String {
    "n/a".to_string()
}

// ---------------------------------------------------------------------------
// Fig. 3 — end-to-end execution time.
// ---------------------------------------------------------------------------

/// The four framework variants of Figs. 3/4, in column order.
const VARIANTS: [(FrameworkKind, CompModel); 4] = [
    (FrameworkKind::PygLike, CompModel::Mp),
    (FrameworkKind::DglLike, CompModel::Spmm),
    (FrameworkKind::GSuite, CompModel::Mp),
    (FrameworkKind::GSuite, CompModel::Spmm),
];

fn framework_grid(name: &'static str, title: &'static str) -> ScenarioSpec {
    ScenarioSpec {
        name,
        title,
        models: GnnModel::ALL.to_vec(),
        datasets: Dataset::ALL.to_vec(),
        frameworks: vec![
            FrameworkKind::PygLike,
            FrameworkKind::DglLike,
            FrameworkKind::GSuite,
        ],
        ..ScenarioSpec::default()
    }
}

fn spec_fig3() -> ScenarioSpec {
    framework_grid(
        "fig3",
        "end-to-end execution time (ms) per framework, model and dataset",
    )
}

fn render_fig3(result: &ScenarioResult, _opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header(
        "Fig. 3",
        "end-to-end execution time (ms) per framework, model and dataset",
    );
    for model in GnnModel::ALL {
        let mut table = TextTable::new(&["Dataset", "PyG", "DGL", "gSuite-MP", "gSuite-SpMM"]);
        let mut device_table =
            TextTable::new(&["Dataset", "PyG", "DGL", "gSuite-MP", "gSuite-SpMM"]);
        for dataset in Dataset::ALL {
            let mut total = vec![dataset.short().to_string()];
            let mut device = vec![dataset.short().to_string()];
            for (fw, comp) in VARIANTS {
                match result.profile_at(0, |c| {
                    c.framework == fw && c.model == model && c.comp == comp && c.dataset == dataset
                }) {
                    Some(p) => {
                        total.push(ms(p.total_time_ms()));
                        device.push(ms(p.device_time_ms()));
                    }
                    None => {
                        total.push(na());
                        device.push(na());
                    }
                }
            }
            table.row_owned(total);
            device_table.row_owned(device);
        }
        report.table(
            format!("fig3_{}", model.name().to_lowercase()),
            format!("End-to-end execution time (ms) — {model}"),
            table,
        );
        report.table(
            format!("fig3_{}_device", model.name().to_lowercase()),
            format!("Device-only time (ms) — {model} (kernel growth across datasets)"),
            device_table,
        );
    }
    report.note("shape check: PyG > DGL > gSuite on every row (init-dominated small datasets);");
    report.note("             all frameworks converge toward kernel time on RD/LJ.");
    report
}

// ---------------------------------------------------------------------------
// Fig. 4 — kernel execution-time distribution.
// ---------------------------------------------------------------------------

const KERNEL_COLUMNS: [&str; 6] = ["sgemm", "scatter", "indexSelect", "SpMM", "SpGEMM", "other"];

fn spec_fig4() -> ScenarioSpec {
    framework_grid(
        "fig4",
        "kernel execution-time distribution (%) per framework / model / dataset",
    )
}

fn render_fig4(result: &ScenarioResult, _opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header(
        "Fig. 4",
        "kernel execution-time distribution (%) per framework / model / dataset",
    );
    let frameworks: [(&str, FrameworkKind, CompModel); 4] = [
        ("PyG", FrameworkKind::PygLike, CompModel::Mp),
        ("DGL", FrameworkKind::DglLike, CompModel::Spmm),
        ("gSuite-MP", FrameworkKind::GSuite, CompModel::Mp),
        ("gSuite-SpMM", FrameworkKind::GSuite, CompModel::Spmm),
    ];
    for (fw_label, fw, comp) in frameworks {
        for model in GnnModel::ALL {
            // gSuite-SpMM has no SAGE (paper §V-A).
            if fw == FrameworkKind::GSuite && comp == CompModel::Spmm && model == GnnModel::Sage {
                continue;
            }
            let mut table = TextTable::new(&[
                "Dataset",
                "sgemm",
                "scatter",
                "indexSelect",
                "SpMM",
                "SpGEMM",
                "other",
            ]);
            for dataset in Dataset::ALL {
                let Some(profile) = result.profile_at(0, |c| {
                    c.framework == fw && c.model == model && c.comp == comp && c.dataset == dataset
                }) else {
                    continue;
                };
                let shares = profile.kernel_time_shares();
                let share_of = |name: &str| -> String {
                    shares
                        .iter()
                        .find(|(k, _)| k == name)
                        .map(|&(_, s)| pct(s))
                        .unwrap_or_else(|| "-".to_string())
                };
                let mut row = vec![dataset.short().to_string()];
                row.extend(KERNEL_COLUMNS.iter().map(|k| share_of(k)));
                table.row_owned(row);
            }
            report.table(
                format!(
                    "fig4_{}_{}",
                    fw_label.to_lowercase().replace('-', "_"),
                    model.name().to_lowercase()
                ),
                format!("Kernel time distribution — {fw_label}, {model}"),
                table,
            );
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Fig. 5 — instruction breakdown of the core kernels.
// ---------------------------------------------------------------------------

fn spec_fig5() -> ScenarioSpec {
    ScenarioSpec {
        name: "fig5",
        title: "instruction breakdown (%) of the core kernels",
        models: vec![GnnModel::Gcn, GnnModel::Gin],
        datasets: vec![Dataset::Cora, Dataset::LiveJournal],
        // The paper shows two showcase corners of the grid: GCN on the
        // smallest dataset and GIN on the largest.
        restrict: Some(|_, model, _, dataset| {
            matches!(
                (model, dataset),
                (GnnModel::Gcn, Dataset::Cora) | (GnnModel::Gin, Dataset::LiveJournal)
            )
        }),
        ..ScenarioSpec::default()
    }
}

fn render_fig5(result: &ScenarioResult, _opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header("Fig. 5", "instruction breakdown (%) of the core kernels");
    let cases: [(&str, GnnModel, Dataset, CompModel, &[&str]); 4] = [
        (
            "gSuite-MP GCN-CR",
            GnnModel::Gcn,
            Dataset::Cora,
            CompModel::Mp,
            &["sgemm", "scatter", "indexSelect"],
        ),
        (
            "gSuite-MP GIN-LJ",
            GnnModel::Gin,
            Dataset::LiveJournal,
            CompModel::Mp,
            &["sgemm", "scatter", "indexSelect"],
        ),
        (
            "gSuite-SpMM GCN-CR",
            GnnModel::Gcn,
            Dataset::Cora,
            CompModel::Spmm,
            &["SpMM", "SpGEMM", "sgemm"],
        ),
        (
            "gSuite-SpMM GIN-LJ",
            GnnModel::Gin,
            Dataset::LiveJournal,
            CompModel::Spmm,
            &["SpMM", "sgemm"],
        ),
    ];
    for (label, model, dataset, comp, kernels) in cases {
        let Some(profile) = result.profile_at(0, |c| {
            c.model == model && c.dataset == dataset && c.comp == comp
        }) else {
            continue;
        };
        let merged = profile.merged_by_kernel();
        let mut table =
            TextTable::new(&["Kernel", "FP32", "INT", "Load/Store", "Control", "other"]);
        for kernel in kernels {
            let Some(k) = merged.iter().find(|k| k.kernel == *kernel) else {
                continue;
            };
            let f = k.instr_mix.fractions();
            table.row_owned(vec![
                kernel.to_string(),
                pct(f[0].1),
                pct(f[1].1),
                pct(f[2].1),
                pct(f[3].1),
                pct(f[4].1),
            ]);
        }
        report.table(
            format!("fig5_{}", label.to_lowercase().replace([' ', '-'], "_")),
            format!("Instruction breakdown — {label}"),
            table,
        );
    }
    report.note(
        "shape check: is/sc INT-heavy (address math), sgemm FP32-heavy, stable across cases.",
    );
    report
}

// ---------------------------------------------------------------------------
// Fig. 6 — issue-stall distribution (cycle simulator).
// ---------------------------------------------------------------------------

fn spec_fig6() -> ScenarioSpec {
    ScenarioSpec {
        name: "fig6",
        title: "issue-stall distribution (%) of core kernels (cycle simulator)",
        models: GnnModel::ALL.to_vec(),
        datasets: Dataset::ALL.to_vec(),
        gpus: vec![GpuSpec::SimAuto],
        ..ScenarioSpec::default()
    }
}

fn render_fig6(result: &ScenarioResult, _opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header(
        "Fig. 6",
        "issue-stall distribution (%) of core kernels (cycle simulator)",
    );
    let mp_kernels = ["sgemm", "scatter", "indexSelect"];
    let spmm_kernels = ["SpMM", "SpGEMM", "sgemm"];
    let mut memdep_sum = 0.0;
    let mut memdep_n = 0usize;
    for (comp, kernels, models) in [
        (CompModel::Mp, &mp_kernels[..], &GnnModel::ALL[..]),
        (
            CompModel::Spmm,
            &spmm_kernels[..],
            &[GnnModel::Gcn, GnnModel::Gin][..],
        ),
    ] {
        for &model in models {
            let mut table = TextTable::new(&[
                "Dataset",
                "Kernel",
                "MemoryDep",
                "ExecDep",
                "InstrIssued",
                "InstrFetch",
                "Sync",
                "NotSelected",
            ]);
            for dataset in Dataset::ALL {
                let Some(profile) = result.profile_at(0, |c| {
                    c.model == model && c.comp == comp && c.dataset == dataset
                }) else {
                    continue;
                };
                let merged = profile.merged_by_kernel();
                for kernel in kernels {
                    let Some(k) = merged.iter().find(|k| k.kernel == *kernel) else {
                        continue;
                    };
                    let stalls = k.stalls.expect("sim backend reports stalls");
                    let memdep = stalls.fraction(StallReason::MemoryDependency);
                    memdep_sum += memdep;
                    memdep_n += 1;
                    table.row_owned(vec![
                        dataset.short().to_string(),
                        kernel.to_string(),
                        pct(memdep),
                        pct(stalls.fraction(StallReason::ExecutionDependency)),
                        pct(stalls.fraction(StallReason::InstructionIssued)),
                        pct(stalls.fraction(StallReason::InstructionFetch)),
                        pct(stalls.fraction(StallReason::Synchronization)),
                        pct(stalls.fraction(StallReason::NotSelected)),
                    ]);
                }
            }
            report.table(
                format!(
                    "fig6_{}_{}",
                    comp.name().to_lowercase(),
                    model.name().to_lowercase()
                ),
                format!("Issue-stall distribution — gSuite-{comp} {model}"),
                table,
            );
        }
    }
    if memdep_n > 0 {
        report.note(format!(
            "average MemoryDependency share: {} (paper: 46.3%)",
            pct(memdep_sum / memdep_n as f64)
        ));
    }
    report
}

// ---------------------------------------------------------------------------
// Fig. 7 — warp occupancy distribution (cycle simulator).
// ---------------------------------------------------------------------------

fn mp_sim_grid(name: &'static str, title: &'static str) -> ScenarioSpec {
    ScenarioSpec {
        name,
        title,
        models: GnnModel::ALL.to_vec(),
        datasets: Dataset::ALL.to_vec(),
        comp_models: vec![CompModel::Mp],
        gpus: vec![GpuSpec::SimAuto],
        ..ScenarioSpec::default()
    }
}

fn spec_fig7() -> ScenarioSpec {
    mp_sim_grid(
        "fig7",
        "warp occupancy distribution (%) of gSuite-MP kernels (cycle simulator)",
    )
}

fn render_fig7(result: &ScenarioResult, _opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header(
        "Fig. 7",
        "warp occupancy distribution (%) of gSuite-MP kernels (cycle simulator)",
    );
    let kernels = ["sgemm", "scatter", "indexSelect"];
    for model in GnnModel::ALL {
        let mut table = TextTable::new(&["Dataset", "Kernel", "Stall", "Idle", "W8", "W20", "W32"]);
        for dataset in Dataset::ALL {
            let Some(profile) = result.profile_at(0, |c| c.model == model && c.dataset == dataset)
            else {
                continue;
            };
            let merged = profile.merged_by_kernel();
            for kernel in kernels {
                let Some(k) = merged.iter().find(|k| k.kernel == kernel) else {
                    continue;
                };
                let occ = k.occupancy.expect("sim backend reports occupancy");
                let f = occ.fractions();
                table.row_owned(vec![
                    dataset.short().to_string(),
                    kernel.to_string(),
                    pct(f[0].1),
                    pct(f[1].1),
                    pct(f[2].1),
                    pct(f[3].1),
                    pct(f[4].1),
                ]);
            }
        }
        report.table(
            format!("fig7_{}", model.name().to_lowercase()),
            format!("Warp occupancy — gSuite-MP {model}"),
            table,
        );
    }
    report
}

// ---------------------------------------------------------------------------
// Fig. 8 — L1/L2 hit rates, analytical profiler vs cycle simulator.
// ---------------------------------------------------------------------------

fn spec_fig8() -> ScenarioSpec {
    ScenarioSpec {
        gpus: vec![GpuSpec::HwV100, GpuSpec::SimAuto],
        ..mp_sim_grid(
            "fig8",
            "L1/L2 hit rates of gSuite-MP kernels: NVProf-like vs cycle sim",
        )
    }
}

fn render_fig8(result: &ScenarioResult, _opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header(
        "Fig. 8",
        "L1/L2 hit rates of gSuite-MP kernels: NVProf-like vs cycle sim",
    );
    let kernels = ["sgemm", "indexSelect", "scatter"];
    let mut l1_gap_sum = 0.0;
    let mut l2_gap_sum = 0.0;
    let mut n = 0usize;
    for model in GnnModel::ALL {
        let mut table = TextTable::new(&[
            "Dataset",
            "Kernel",
            "L1 (NVProf)",
            "L1 (Sim)",
            "L2 (NVProf)",
            "L2 (Sim)",
        ]);
        for dataset in Dataset::ALL {
            let probe =
                |c: &gsuite_core::config::RunConfig| c.model == model && c.dataset == dataset;
            let (Some(hw), Some(sim)) = (result.profile_at(0, probe), result.profile_at(1, probe))
            else {
                continue;
            };
            let hw_merged = hw.merged_by_kernel();
            let sim_merged = sim.merged_by_kernel();
            for kernel in kernels {
                let (Some(h), Some(s)) = (
                    hw_merged.iter().find(|k| k.kernel == kernel),
                    sim_merged.iter().find(|k| k.kernel == kernel),
                ) else {
                    continue;
                };
                l1_gap_sum += (h.l1.hit_rate() - s.l1.hit_rate()).abs();
                l2_gap_sum += (h.l2.hit_rate() - s.l2.hit_rate()).abs();
                n += 1;
                table.row_owned(vec![
                    dataset.short().to_string(),
                    kernel.to_string(),
                    pct(h.l1.hit_rate()),
                    pct(s.l1.hit_rate()),
                    pct(h.l2.hit_rate()),
                    pct(s.l2.hit_rate()),
                ]);
            }
        }
        report.table(
            format!("fig8_{}", model.name().to_lowercase()),
            format!("L1/L2 hit rates, NVProf vs Sim — gSuite-MP {model}"),
            table,
        );
    }
    if n > 0 {
        report.note(format!(
            "mean |NVProf - Sim| gap: L1 {} vs L2 {} (paper: L1 aligns better than L2)",
            pct(l1_gap_sum / n as f64),
            pct(l2_gap_sum / n as f64)
        ));
    }
    report
}

// ---------------------------------------------------------------------------
// Fig. 9 — compute/memory utilization (cycle simulator).
// ---------------------------------------------------------------------------

fn spec_fig9() -> ScenarioSpec {
    mp_sim_grid(
        "fig9",
        "compute/memory utilization (%) of gSuite-MP kernels (cycle simulator)",
    )
}

fn render_fig9(result: &ScenarioResult, _opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header(
        "Fig. 9",
        "compute/memory utilization (%) of gSuite-MP kernels (cycle simulator)",
    );
    let kernels = ["sgemm", "indexSelect", "scatter"];
    for model in GnnModel::ALL {
        let mut table = TextTable::new(&["Dataset", "Kernel", "Compute", "Memory"]);
        for dataset in Dataset::ALL {
            let Some(profile) = result.profile_at(0, |c| c.model == model && c.dataset == dataset)
            else {
                continue;
            };
            let merged = profile.merged_by_kernel();
            for kernel in kernels {
                let Some(k) = merged.iter().find(|k| k.kernel == kernel) else {
                    continue;
                };
                table.row_owned(vec![
                    dataset.short().to_string(),
                    kernel.to_string(),
                    pct(k.compute_utilization),
                    pct(k.memory_utilization),
                ]);
            }
        }
        report.table(
            format!("fig9_{}", model.name().to_lowercase()),
            format!("Compute/memory utilization — gSuite-MP {model}"),
            table,
        );
    }
    report
}

// ---------------------------------------------------------------------------
// Table II — kernel inventory (static; empty grid).
// ---------------------------------------------------------------------------

fn spec_table2() -> ScenarioSpec {
    ScenarioSpec {
        name: "table2",
        title: "core MP and SpMM kernels",
        models: vec![],
        datasets: vec![],
        ..ScenarioSpec::default()
    }
}

fn render_table2(_result: &ScenarioResult, _opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header("Table II", "core MP and SpMM kernels");
    let mut table = TextTable::new(&[
        "Kernel Name",
        "Computational Model",
        "Short Form",
        "Description",
    ]);
    table.row(&[
        "indexSelect",
        "MP",
        "is",
        "Indexes the input along specified dimension by using index entries.",
    ]);
    table.row(&[
        "scatter",
        "MP",
        "sc",
        "Reduces given input based-on index vector using entries.",
    ]);
    table.row(&[
        "sgemm/GEMM",
        "SpMM",
        "sg",
        "Generalized matrix multiplication of two given matrices.",
    ]);
    table.row(&[
        "SpGEMM/GEMM",
        "SpMM",
        "sp",
        "Matrix multiplication of two sparse matrices.",
    ]);
    report.table("table2", "Core MP and SpMM kernels (paper Table II)", table);

    // Cross-check: the implemented kernel taxonomy uses the same names.
    use gsuite_core::kernels::KernelKind;
    let implemented = [
        KernelKind::IndexSelect,
        KernelKind::Scatter,
        KernelKind::Sgemm,
        KernelKind::Spmm,
        KernelKind::Spgemm,
    ];
    report.note("implemented kernels:");
    for k in implemented {
        report.note(format!("  {:<12} (short: {})", k.name(), k.short()));
    }
    report
}

// ---------------------------------------------------------------------------
// Table IV — datasets (graph census; no pipeline cells).
// ---------------------------------------------------------------------------

fn spec_table4() -> ScenarioSpec {
    ScenarioSpec {
        name: "table4",
        title: "included datasets",
        models: vec![],
        datasets: Dataset::ALL.to_vec(),
        ..ScenarioSpec::default()
    }
}

fn render_table4(result: &ScenarioResult, opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header("Table IV", "included datasets");
    let mut spec_table =
        TextTable::new(&["Dataset", "Nodes", "Feature Length", "Edges", "Short Form"]);
    for d in Dataset::ALL {
        let s = d.spec();
        spec_table.row_owned(vec![
            s.name.to_string(),
            s.nodes.to_string(),
            s.feature_len.to_string(),
            s.edges.to_string(),
            s.short.to_string(),
        ]);
    }
    report.table(
        "table4_spec",
        "Dataset specifications (paper Table IV)",
        spec_table,
    );

    let mut gen_table = TextTable::new(&[
        "Dataset",
        "Scale",
        "Nodes",
        "Edges",
        "Feature Length",
        "Avg Degree",
        "Max Degree",
    ]);
    for d in Dataset::ALL {
        let scale = opts.scale_for(d);
        let g = result
            .graph(d)
            .expect("census scenario loads every dataset");
        let st = g.stats();
        gen_table.row_owned(vec![
            d.name().to_string(),
            format!("{scale}"),
            st.nodes.to_string(),
            st.edges.to_string(),
            st.feature_len.to_string(),
            format!("{:.2}", st.avg_degree),
            st.max_degree.to_string(),
        ]);
    }
    report.table(
        "table4_generated",
        "Generated instances at the configured scale",
        gen_table,
    );
    report
}

// ---------------------------------------------------------------------------
// xmodels — beyond-paper: the full extended-model grid.
// ---------------------------------------------------------------------------

fn spec_xmodels() -> ScenarioSpec {
    ScenarioSpec {
        name: "xmodels",
        title: "extended-model grid: 5 models x 5 datasets x both formats (V100)",
        models: GnnModel::EXTENDED.to_vec(),
        datasets: Dataset::ALL.to_vec(),
        ..ScenarioSpec::default()
    }
}

fn render_xmodels(result: &ScenarioResult, _opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header(
        "Scenario xmodels",
        "extended-model grid: 5 models x 5 datasets x both formats (V100)",
    );
    for comp in CompModel::ALL {
        let mut table = TextTable::new(&[
            "Model",
            "Dataset",
            "Format",
            "device (ms)",
            "end-to-end (ms)",
            "top kernel",
            "L1 hit",
        ]);
        for (cell, outcome) in result.iter() {
            if cell.config.comp != comp {
                continue;
            }
            let mut row = vec![
                cell.config.model.to_string(),
                cell.config.dataset.short().to_string(),
                cell.format.to_string(),
            ];
            match outcome {
                CellOutcome::Profiled(p) => {
                    let shares = p.kernel_time_shares();
                    let top = shares
                        .first()
                        .map(|(k, s)| format!("{k} ({})", pct(*s)))
                        .unwrap_or_else(na);
                    let l1 = merged_l1(p);
                    row.extend([ms(p.device_time_ms()), ms(p.total_time_ms()), top, pct(l1)]);
                }
                CellOutcome::Unsupported(_) => {
                    row.extend([na(), na(), na(), na()]);
                }
            }
            table.row_owned(row);
        }
        report.table(
            format!("xmodels_{}", comp.name().to_lowercase()),
            format!("Extended model grid — {comp}"),
            table,
        );
    }
    let unsupported = result.cells.len() - result.profiled_count();
    report.note(format!(
        "grid: {} cells, {} profiled, {} unsupported (SAGE/GAT have no SpMM lowering)",
        result.cells.len(),
        result.profiled_count(),
        unsupported
    ));
    report
}

/// Pipeline-wide L1 hit rate (merged over kernels).
fn merged_l1(p: &PipelineProfile) -> f64 {
    let (mut acc, mut hit) = (0u64, 0u64);
    for k in &p.kernels {
        acc += k.l1.accesses;
        hit += k.l1.hits;
    }
    if acc == 0 {
        0.0
    } else {
        hit as f64 / acc as f64
    }
}

// ---------------------------------------------------------------------------
// gpusweep — beyond-paper: GPU-config scaling study.
// ---------------------------------------------------------------------------

/// The simulated SM counts of the GPU-config sweep.
const SWEEP_SMS: [usize; 4] = [4, 8, 16, 32];

fn spec_gpusweep() -> ScenarioSpec {
    ScenarioSpec {
        name: "gpusweep",
        title: "GCN-MP across simulated GPU sizes (proportional V100 scale-downs)",
        models: vec![GnnModel::Gcn],
        datasets: vec![Dataset::Cora, Dataset::PubMed],
        comp_models: vec![CompModel::Mp],
        gpus: SWEEP_SMS.iter().map(|&sms| GpuSpec::SimSms(sms)).collect(),
        ..ScenarioSpec::default()
    }
}

fn render_gpusweep(result: &ScenarioResult, _opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header(
        "Scenario gpusweep",
        "GCN-MP across simulated GPU sizes (proportional V100 scale-downs)",
    );
    let mut table = TextTable::new(&[
        "Dataset",
        "SMs",
        "device (ms)",
        "comp util",
        "mem util",
        "L2 hit",
    ]);
    for dataset in [Dataset::Cora, Dataset::PubMed] {
        for (gpu_index, &sms) in SWEEP_SMS.iter().enumerate() {
            let Some(p) = result.profile_at(gpu_index, |c| c.dataset == dataset) else {
                continue;
            };
            let (mut acc, mut hit) = (0u64, 0u64);
            let (mut cu, mut mu, mut t) = (0.0, 0.0, 0.0);
            for k in &p.kernels {
                acc += k.l2.accesses;
                hit += k.l2.hits;
                cu += k.compute_utilization * k.time_ms;
                mu += k.memory_utilization * k.time_ms;
                t += k.time_ms;
            }
            let l2 = if acc == 0 {
                0.0
            } else {
                hit as f64 / acc as f64
            };
            table.row_owned(vec![
                dataset.short().to_string(),
                sms.to_string(),
                ms(p.device_time_ms()),
                pct(if t > 0.0 { cu / t } else { 0.0 }),
                pct(if t > 0.0 { mu / t } else { 0.0 }),
                pct(l2),
            ]);
        }
    }
    report.table(
        "gpusweep",
        "Device scaling — GCN-MP, cycle simulator at 4/8/16/32 SMs",
        table,
    );
    report.note("shape check: device time shrinks with SM count until the small grids stop filling the machine.");
    report
}

// ---------------------------------------------------------------------------
// serve-mix — beyond-paper: the serving-layer workload universe.
// ---------------------------------------------------------------------------

fn spec_servemix() -> ScenarioSpec {
    ScenarioSpec {
        name: "serve-mix",
        title: "serving workload mix: paper models x citation datasets x both comp models (V100)",
        models: GnnModel::ALL.to_vec(),
        datasets: vec![Dataset::Cora, Dataset::CiteSeer, Dataset::PubMed],
        ..ScenarioSpec::default()
    }
}

fn render_servemix(result: &ScenarioResult, _opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header(
        "Scenario serve-mix",
        "serving workload mix: paper models x citation datasets x both comp models (V100)",
    );
    let mut table = TextTable::new(&[
        "Model",
        "Comp",
        "Dataset",
        "device (ms)",
        "end-to-end (ms)",
        "launches",
    ]);
    for (cell, outcome) in result.iter() {
        let mut row = vec![
            cell.config.model.to_string(),
            cell.config.comp.to_string(),
            cell.config.dataset.short().to_string(),
        ];
        match outcome {
            CellOutcome::Profiled(p) => row.extend([
                ms(p.device_time_ms()),
                ms(p.total_time_ms()),
                p.kernels.len().to_string(),
            ]),
            CellOutcome::Unsupported(_) => row.extend([na(), na(), na()]),
        }
        table.row_owned(row);
    }
    report.table(
        "serve_mix",
        "Serving workload mix — per-configuration batch profile",
        table,
    );
    report.note(format!(
        "grid: {} configs, {} buildable — the default request universe of `gsuite-cli loadgen`",
        result.cells.len(),
        result.profiled_count()
    ));
    report.note("(serve-mode profiles are bit-identical to these cells; see gsuite-serve)");
    report
}

// ---------------------------------------------------------------------------
// planopt — beyond-paper: the kernel-dataflow IR's optimization deltas.
// ---------------------------------------------------------------------------

fn spec_planopt() -> ScenarioSpec {
    ScenarioSpec {
        name: "planopt",
        title: "plan-IR optimization: launches, device time and peak device bytes, O0 vs O2",
        models: GnnModel::EXTENDED.to_vec(),
        datasets: vec![Dataset::Cora, Dataset::PubMed],
        opt_levels: vec![OptLevel::O0, OptLevel::O2],
        ..ScenarioSpec::default()
    }
}

fn render_planopt(result: &ScenarioResult, _opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header(
        "Scenario planopt",
        "plan-IR optimization: launches, device time and peak device bytes, O0 vs O2",
    );
    let mut table = TextTable::new(&[
        "Model",
        "Comp",
        "Dataset",
        "launches O0",
        "launches O2",
        "Δlaunch",
        "device O0 (ms)",
        "device O2 (ms)",
        "peak O0 (KiB)",
        "peak O2 (KiB)",
        "Δpeak",
    ]);
    let kib = |bytes: u64| format!("{:.1}", bytes as f64 / 1024.0);
    let (mut launches_o0, mut launches_o2) = (0usize, 0usize);
    let (mut peak_o0_sum, mut peak_o2_sum) = (0u64, 0u64);
    // Walk the executed spec's own axes so the renderer can never drift
    // from the grid (adding a dataset or model to spec_planopt is enough).
    for &model in &result.spec.models {
        for &comp in &result.spec.comp_models {
            for &dataset in &result.spec.datasets {
                let probe = |opt: OptLevel| {
                    result.profile_at(0, |c| {
                        c.model == model && c.comp == comp && c.dataset == dataset && c.opt == opt
                    })
                };
                let mut row = vec![
                    model.to_string(),
                    comp.to_string(),
                    dataset.short().to_string(),
                ];
                match (probe(OptLevel::O0), probe(OptLevel::O2)) {
                    (Some(p0), Some(p2)) => {
                        launches_o0 += p0.kernels.len();
                        launches_o2 += p2.kernels.len();
                        peak_o0_sum += p0.peak_device_bytes;
                        peak_o2_sum += p2.peak_device_bytes;
                        let dpeak = if p0.peak_device_bytes > 0 {
                            format!(
                                "-{:.1}%",
                                (p0.peak_device_bytes - p2.peak_device_bytes) as f64
                                    / p0.peak_device_bytes as f64
                                    * 100.0
                            )
                        } else {
                            na()
                        };
                        let dlaunch = p0.kernels.len() - p2.kernels.len();
                        row.extend([
                            p0.kernels.len().to_string(),
                            p2.kernels.len().to_string(),
                            if dlaunch == 0 {
                                "0".to_string()
                            } else {
                                format!("-{dlaunch}")
                            },
                            ms(p0.device_time_ms()),
                            ms(p2.device_time_ms()),
                            kib(p0.peak_device_bytes),
                            kib(p2.peak_device_bytes),
                            dpeak,
                        ]);
                    }
                    _ => row.extend([na(), na(), na(), na(), na(), na(), na(), na()]),
                }
                table.row_owned(row);
            }
        }
    }
    report.table(
        "planopt",
        "Plan optimization deltas — O0 (golden-compatible) vs O2 (fusion + hoist + memory planning)",
        table,
    );
    report.note(format!(
        "totals: {launches_o0} launches at O0 vs {launches_o2} at O2; \
         summed peak device bytes {peak_o0_sum} vs {peak_o2_sum}"
    ));
    report.note("O2 passes: elementwise fusion into sgemm, hoist/CSE of layer-invariant");
    report.note("subgraphs (SpGEMM normalization chains, degree scatters, re-uploaded");
    report.note("aggregation matrices), dead-buffer elimination, liveness-planned reuse.");
    report
}

// ---------------------------------------------------------------------------
// multigpu — beyond-paper: graph-partitioned multi-GPU scaling.
// ---------------------------------------------------------------------------

/// The shard counts of the multi-GPU scaling sweep.
const MULTIGPU_SHARDS: [usize; 4] = [1, 2, 4, 8];

fn spec_multigpu() -> ScenarioSpec {
    ScenarioSpec {
        name: "multigpu",
        title: "graph-partitioned multi-GPU scaling: paper models across 1/2/4/8 shards",
        models: GnnModel::ALL.to_vec(),
        datasets: vec![Dataset::Cora, Dataset::PubMed],
        comp_models: vec![CompModel::Mp],
        formats: vec![GraphFormat::Coo],
        gpus_per_run: MULTIGPU_SHARDS.to_vec(),
        ..ScenarioSpec::default()
    }
}

fn render_multigpu(result: &ScenarioResult, _opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header(
        "Scenario multigpu",
        "graph-partitioned multi-GPU scaling: paper models across 1/2/4/8 shards",
    );
    let partitioner = result
        .cells
        .first()
        .map(|c| c.config.partitioner.name())
        .unwrap_or("hash");
    let kib = |bytes: u64| format!("{:.1}", bytes as f64 / 1024.0);
    let mut table = TextTable::new(&[
        "Model",
        "Dataset",
        "Shards",
        "edge-cut",
        "halo (KiB)",
        "device (ms)",
        "speedup",
        "efficiency",
        "shard peak (KiB)",
    ]);
    // Walk the shard counts that actually executed (the spec's axis, or
    // the single value a `--shards` override collapsed it to), so forced
    // axes still render their results; the scaling baseline is the
    // smallest executed shard count (1 in the registry grid).
    let mut shard_axis: Vec<usize> = Vec::new();
    for cell in &result.cells {
        if !shard_axis.contains(&cell.config.gpus_per_run) {
            shard_axis.push(cell.config.gpus_per_run);
        }
    }
    let base_shards = shard_axis.iter().copied().min().unwrap_or(1);
    // Walk the executed spec's model/dataset axes so the renderer can
    // never drift from the grid.
    for &model in &result.spec.models {
        for &dataset in &result.spec.datasets {
            let probe = |shards: usize| {
                result.profile_at(0, |c| {
                    c.model == model && c.dataset == dataset && c.gpus_per_run == shards
                })
            };
            let t1 = probe(base_shards).map(|p| p.parallel_time_ms());
            for &shards in &shard_axis {
                let mut row = vec![
                    model.to_string(),
                    dataset.short().to_string(),
                    shards.to_string(),
                ];
                match (probe(shards), t1) {
                    (Some(p), Some(t1)) => {
                        let tn = p.parallel_time_ms();
                        let speedup = if tn > 0.0 { t1 / tn } else { 0.0 };
                        let (cut, halo, peak) = match &p.sharding {
                            Some(s) => (
                                s.edge_cut_fraction(),
                                s.halo_bytes(),
                                s.max_shard_peak_bytes(),
                            ),
                            None => (0.0, 0, p.peak_device_bytes),
                        };
                        row.extend([
                            pct(cut),
                            kib(halo),
                            ms(tn),
                            format!("{speedup:.2}x"),
                            // Efficiency relative to the baseline shard
                            // count (speedup/shards when the base is 1).
                            pct(speedup * base_shards as f64 / shards as f64),
                            kib(peak),
                        ]);
                    }
                    _ => row.extend([na(), na(), na(), na(), na(), na()]),
                }
                table.row_owned(row);
            }
        }
    }
    report.table(
        "multigpu",
        format!("Strong scaling under graph partitioning — gSuite-MP, {partitioner} partitioner, NVLink-class interconnect"),
        table,
    );
    report.note("device (ms) is the bulk-synchronous makespan: the slowest shard's kernels");
    report.note("plus its halo transfers (alpha + bytes/beta per transfer); efficiency is");
    report.note("speedup/shards. 1-shard rows take the unsharded single-GPU path and");
    report.note("reproduce the golden launch stream byte-for-byte.");
    report
}

// ---------------------------------------------------------------------------
// minibatch — beyond-paper: neighbor-sampled mini-batch inference.
// ---------------------------------------------------------------------------

/// The mini-batch sizes of the sampled-inference sweep.
const MINIBATCH_SIZES: [usize; 2] = [32, 128];

fn spec_minibatch() -> ScenarioSpec {
    ScenarioSpec {
        name: "minibatch",
        title: "neighbor-sampled mini-batch inference: batch/fanout sweep, O0 vs O2 weight sharing",
        models: vec![GnnModel::Gcn, GnnModel::Sage],
        datasets: vec![Dataset::Cora, Dataset::PubMed],
        comp_models: vec![CompModel::Mp],
        formats: vec![GraphFormat::Coo],
        opt_levels: vec![OptLevel::O0, OptLevel::O2],
        batch_sizes: MINIBATCH_SIZES.to_vec(),
        fanouts: vec![vec![5, 5], vec![10, 5]],
        ..ScenarioSpec::default()
    }
}

/// Report label for a per-layer fanout vector (empty = the `RunConfig`
/// default of 10 per hop).
fn fanout_cell(fanout: &[usize]) -> String {
    if fanout.is_empty() {
        "10/hop".to_string()
    } else {
        fanout_label(fanout)
    }
}

fn render_minibatch(result: &ScenarioResult, _opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header(
        "Scenario minibatch",
        "neighbor-sampled mini-batch inference: batch/fanout sweep, O0 vs O2 weight sharing",
    );
    let kib = |bytes: u64| format!("{:.1}", bytes as f64 / 1024.0);
    let mut table = TextTable::new(&[
        "Model",
        "Dataset",
        "Batch",
        "Fanout",
        "launches O0",
        "launches O2",
        "device O2 (ms)",
        "peak O0 (KiB)",
        "peak O2 (KiB)",
        "Δpeak",
    ]);
    // Walk the batch/fanout values that actually executed (the spec's
    // axes, or the single values a `--batch-size`/`--fanout` override
    // collapsed them to), so forced axes still render their results.
    let mut batch_axis: Vec<usize> = Vec::new();
    let mut fanout_axis: Vec<Vec<usize>> = Vec::new();
    for cell in &result.cells {
        if !batch_axis.contains(&cell.config.batch_size) {
            batch_axis.push(cell.config.batch_size);
        }
        if !fanout_axis.contains(&cell.config.fanout) {
            fanout_axis.push(cell.config.fanout.clone());
        }
    }
    for &model in &result.spec.models {
        for &dataset in &result.spec.datasets {
            for &batch in &batch_axis {
                for fanout in &fanout_axis {
                    let probe = |opt: OptLevel| {
                        result.profile_at(0, |c| {
                            c.model == model
                                && c.dataset == dataset
                                && c.batch_size == batch
                                && c.fanout == *fanout
                                && c.opt == opt
                        })
                    };
                    let mut row = vec![
                        model.to_string(),
                        dataset.short().to_string(),
                        batch.to_string(),
                        fanout_cell(fanout),
                    ];
                    match (probe(OptLevel::O0), probe(OptLevel::O2)) {
                        (Some(p0), Some(p2)) => {
                            let dpeak = if p0.peak_device_bytes > 0 {
                                let delta =
                                    p0.peak_device_bytes as f64 - p2.peak_device_bytes as f64;
                                format!("{:.1}%", -delta / p0.peak_device_bytes as f64 * 100.0)
                            } else {
                                na()
                            };
                            row.extend([
                                p0.kernels.len().to_string(),
                                p2.kernels.len().to_string(),
                                ms(p2.device_time_ms()),
                                kib(p0.peak_device_bytes),
                                kib(p2.peak_device_bytes),
                                dpeak,
                            ]);
                        }
                        _ => row.extend([na(), na(), na(), na(), na(), na()]),
                    }
                    table.row_owned(row);
                }
            }
        }
    }
    report.table(
        "minibatch",
        "Neighbor-sampled mini-batch inference — every batch compiled into one combined plan",
        table,
    );
    report.note("every cell samples seeded fixed-fanout ego-nets over the shuffled node");
    report.note("set and compiles all batches into one plan; at O2 the content-identity");
    report.note("CSE keeps a single resident copy of each layer's weights across batches");
    report.note("(the Δpeak column) while per-batch adjacency/index uploads rebind, and");
    report.note("fusion trims per-batch launches. A served batch_size=/fanout= request");
    report.note("replays the same sampler and plan path, so its profile is bit-identical");
    report.note("to the matching cell here.");
    report
}

// ---------------------------------------------------------------------------
// hetero — beyond-paper: heterogeneous ogbn-mag-like inference.
// ---------------------------------------------------------------------------

fn spec_hetero() -> ScenarioSpec {
    ScenarioSpec {
        name: "hetero",
        title: "heterogeneous ogbn-mag-like inference: typed-relation RGCN vs homogeneous GCN",
        models: vec![GnnModel::Rgcn, GnnModel::Gcn],
        datasets: vec![Dataset::OgbnMag],
        comp_models: vec![CompModel::Mp],
        formats: vec![GraphFormat::Coo],
        ..ScenarioSpec::default()
    }
}

fn render_hetero(result: &ScenarioResult, _opts: &BenchOpts) -> Report {
    let mut report = Report::new();
    report.header(
        "Scenario hetero",
        "heterogeneous ogbn-mag-like inference: typed-relation RGCN vs homogeneous GCN",
    );
    let kib = |bytes: u64| format!("{:.1}", bytes as f64 / 1024.0);
    let mut table = TextTable::new(&[
        "Model",
        "Dataset",
        "launches",
        "device (ms)",
        "end-to-end (ms)",
        "top kernel",
        "peak (KiB)",
    ]);
    for (cell, outcome) in result.iter() {
        let mut row = vec![
            cell.config.model.to_string(),
            cell.config.dataset.short().to_string(),
        ];
        match outcome {
            CellOutcome::Profiled(p) => {
                let top = p
                    .kernel_time_shares()
                    .first()
                    .map(|(k, s)| format!("{k} ({})", pct(*s)))
                    .unwrap_or_else(na);
                row.extend([
                    p.kernels.len().to_string(),
                    ms(p.device_time_ms()),
                    ms(p.total_time_ms()),
                    top,
                    kib(p.peak_device_bytes),
                ]);
            }
            CellOutcome::Unsupported(_) => row.extend([na(), na(), na(), na(), na()]),
        }
        table.row_owned(row);
    }
    report.table(
        "hetero",
        "ogbn-mag-like union graph (paper/author/institution/field nodes; cites/writes/affiliated/topic relations)",
        table,
    );
    report.note("RGC lowers one gather -> scatter-sum aggregation chain per typed relation");
    report.note("plus a per-layer self transform, accumulating relation messages with axpy;");
    report.note("GCN treats the same union graph homogeneously. Both read the seeded");
    report.note("128-wide ogbn-mag-like embeddings at the mode's dataset scale.");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multigpu_reports_scaling_for_every_shard_count() {
        let (result, report) = find("multigpu").unwrap().run(&BenchOpts::golden());
        // 3 models x 2 datasets x 4 shard counts.
        assert_eq!(result.cells.len(), 24);
        assert_eq!(result.profiled_count(), 24);
        for &shards in &MULTIGPU_SHARDS {
            let p = result
                .profile_at(0, |c| {
                    c.model == GnnModel::Gcn
                        && c.dataset == Dataset::Cora
                        && c.gpus_per_run == shards
                })
                .expect("every shard count profiles");
            if shards == 1 {
                assert!(p.sharding.is_none(), "1-shard cells are unsharded");
            } else {
                let s = p.sharding.as_ref().expect("sharded profile");
                assert_eq!(s.shards.len(), shards);
                assert!(s.cut_edges > 0);
            }
        }
        let text = report.render(&BenchOpts::golden());
        assert!(text.contains("speedup"));
        assert!(text.contains("efficiency"));
        assert!(text.contains("edge-cut"));
    }

    #[test]
    fn planopt_o2_strictly_improves_gcn_spmm_and_gin() {
        // The acceptance bar of the plan-IR refactor: at O2, GCN-SpMM and
        // GIN (both computational models) launch strictly fewer kernels
        // and peak strictly lower on both datasets of the grid.
        let (result, _) = find("planopt").unwrap().run(&BenchOpts::golden());
        for (model, comp) in [
            (GnnModel::Gcn, CompModel::Spmm),
            (GnnModel::Gin, CompModel::Mp),
            (GnnModel::Gin, CompModel::Spmm),
        ] {
            for dataset in [Dataset::Cora, Dataset::PubMed] {
                let probe = |opt: OptLevel| {
                    result
                        .profile_at(0, |c| {
                            c.model == model
                                && c.comp == comp
                                && c.dataset == dataset
                                && c.opt == opt
                        })
                        .unwrap_or_else(|| panic!("{model} {comp} {dataset} {opt} profiled"))
                };
                let (p0, p2) = (probe(OptLevel::O0), probe(OptLevel::O2));
                assert!(
                    p2.kernels.len() < p0.kernels.len(),
                    "{model}-{comp} on {dataset}: O2 launches {} !< O0 {}",
                    p2.kernels.len(),
                    p0.kernels.len()
                );
                assert!(
                    p2.peak_device_bytes < p0.peak_device_bytes,
                    "{model}-{comp} on {dataset}: O2 peak {} !< O0 {}",
                    p2.peak_device_bytes,
                    p0.peak_device_bytes
                );
            }
        }
    }

    #[test]
    fn minibatch_o2_shares_weights_and_profiles_every_cell() {
        let (result, report) = find("minibatch").unwrap().run(&BenchOpts::golden());
        // 2 models x 2 datasets x 2 batch sizes x 2 fanouts x 2 opt levels.
        assert_eq!(result.cells.len(), 32);
        assert_eq!(result.profiled_count(), 32);
        for model in [GnnModel::Gcn, GnnModel::Sage] {
            for dataset in [Dataset::Cora, Dataset::PubMed] {
                let probe = |opt: OptLevel| {
                    result
                        .profile_at(0, |c| {
                            c.model == model
                                && c.dataset == dataset
                                && c.batch_size == 32
                                && c.fanout == vec![5, 5]
                                && c.opt == opt
                        })
                        .expect("cell profiled")
                };
                let (p0, p2) = (probe(OptLevel::O0), probe(OptLevel::O2));
                // O2 plans the combined-plan memory and keeps one resident
                // copy of each layer's weights across every batch.
                assert!(
                    p2.peak_device_bytes < p0.peak_device_bytes,
                    "{model} on {dataset}: O2 peak {} !< O0 {}",
                    p2.peak_device_bytes,
                    p0.peak_device_bytes
                );
                assert!(p2.kernels.len() <= p0.kernels.len());
            }
        }
        let text = report.render(&BenchOpts::golden());
        assert!(text.contains("Δpeak"));
        assert!(text.contains("5x5"));
        assert!(text.contains("10x5"));
    }

    #[test]
    fn hetero_profiles_rgcn_and_gcn_on_the_union_graph() {
        let (result, report) = find("hetero").unwrap().run(&BenchOpts::golden());
        assert_eq!(result.cells.len(), 2);
        assert_eq!(result.profiled_count(), 2);
        let rgcn = result
            .profile_at(0, |c| c.model == GnnModel::Rgcn)
            .expect("RGCN profiled");
        let gcn = result
            .profile_at(0, |c| c.model == GnnModel::Gcn)
            .expect("GCN profiled");
        // One aggregation chain per typed relation launches more kernels
        // than the single homogeneous chain.
        assert!(rgcn.kernels.len() > gcn.kernels.len());
        let text = report.render(&BenchOpts::golden());
        assert!(text.contains("RGC"));
        assert!(text.contains("cites/writes/affiliated/topic"));
    }

    #[test]
    fn registry_names_are_unique_and_findable() {
        let names: Vec<&str> = all().iter().map(|s| s.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len(), "duplicate registry names");
        for name in ["fig3", "fig9", "table4", "xmodels", "gpusweep"] {
            assert!(find(name).is_some(), "{name} missing from registry");
        }
        assert!(find("fig99").is_none());
    }

    #[test]
    fn beyond_paper_scenarios_exist() {
        // The registry must carry at least two scenarios the paper never
        // ran (ISSUE 2 acceptance criterion).
        let beyond: Vec<&str> = all()
            .iter()
            .map(|s| s.name)
            .filter(|n| !n.starts_with("fig") && !n.starts_with("table"))
            .collect();
        assert!(beyond.len() >= 2, "beyond-paper entries: {beyond:?}");
    }

    #[test]
    fn matching_filters_by_name_and_description() {
        assert_eq!(matching("fig").len(), 7);
        assert!(matching("cycle simulator").len() >= 3);
        assert!(matching("no-such-scenario").is_empty());
    }

    #[test]
    fn scenario_docs_cover_every_registry_entry() {
        let docs = scenario_docs(&BenchOpts::default());
        for s in all() {
            assert!(docs.contains(&format!("| `{}` |", s.name)), "{}", s.name);
            assert!(docs.contains(&format!("tests/golden/{}.txt", s.name)));
        }
        assert!(docs.contains("GENERATED"));
        // The multigpu entry names its shard axis and partitioner.
        assert!(docs.contains("shards: 1/2/4/8 (hash)"));
        // The minibatch entry names its batch and fanout axes.
        assert!(docs.contains("batch: 32/128"));
        assert!(docs.contains("fanout: 5x5/10x5"));
        // Deterministic: the CI drift check depends on it.
        assert_eq!(docs, scenario_docs(&BenchOpts::default()));
    }

    #[test]
    fn list_table_reports_grid_sizes() {
        let table = list_table(&all(), &BenchOpts::quick());
        assert_eq!(table.len(), all().len());
        let rendered = table.render();
        assert!(rendered.contains("fig3"));
        assert!(rendered.contains("gpusweep"));
    }

    #[test]
    fn static_scenarios_render_without_cells() {
        let opts = BenchOpts::golden();
        let (result, report) = find("table2").unwrap().run(&opts);
        assert!(result.cells.is_empty());
        let text = report.render(&opts);
        assert!(text.contains("implemented kernels:"));
        let (result, report) = find("table4").unwrap().run(&opts);
        assert!(result.cells.is_empty());
        assert_eq!(result.graphs.len(), 5);
        assert!(report.render(&opts).contains("LiveJournal"));
    }
}
