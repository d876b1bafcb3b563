//! Shared sweep options and helpers: mode flags, the dataset scale
//! policy, backend policies, and the formatting primitives every figure
//! renderer uses.

use std::path::PathBuf;

use gsuite_core::config::{CompModel, FrameworkKind, GnnModel, RunConfig};
use gsuite_core::pipeline::PipelineRun;
use gsuite_graph::datasets::Dataset;
use gsuite_profile::{HwProfiler, PipelineProfile, Profiler, SimProfiler};

/// Common figure/scenario options.
#[derive(Debug, Clone, Default)]
pub struct BenchOpts {
    /// Tiny scales / sampling caps for smoke runs.
    pub quick: bool,
    /// Full Table IV scales everywhere.
    pub full: bool,
    /// Optional CSV output directory.
    pub csv_dir: Option<PathBuf>,
    /// Extra ceiling on the per-kernel CTA sampling caps of *both*
    /// backends, on top of the mode policy. `None` (the default, and the
    /// only value the CLI flags produce) leaves the mode policy untouched;
    /// the golden-profile suite sets a small cap so every registry
    /// scenario — cycle simulator included — stays affordable under
    /// `cargo test` in debug builds.
    pub max_ctas_cap: Option<u64>,
    /// Forces one plan-optimization level on every expanded cell,
    /// replacing the spec's `opt_levels` axis (`run-scenario --opt 0|2`).
    pub opt_override: Option<gsuite_core::OptLevel>,
    /// Forces one modeled-device (shard) count on every expanded cell,
    /// replacing the spec's `gpus_per_run` axis (`run-scenario --shards N`).
    pub shards_override: Option<usize>,
    /// Forces one graph-partition strategy on every sharded cell
    /// (`run-scenario --partitioner hash|range|edgecut`).
    pub partitioner_override: Option<gsuite_graph::PartitionStrategy>,
    /// Forces one mini-batch size on every expanded cell, replacing the
    /// spec's `batch_sizes` axis (`run-scenario --batch-size N`; `0`
    /// forces full-graph inference).
    pub batch_size_override: Option<usize>,
    /// Forces one per-layer fanout vector on every expanded cell,
    /// replacing the spec's `fanouts` axis (`run-scenario --fanout 10x5`).
    pub fanout_override: Option<Vec<usize>>,
}

impl BenchOpts {
    /// Quick-mode options (tiny scales, small sampling caps).
    pub fn quick() -> Self {
        BenchOpts {
            quick: true,
            ..BenchOpts::default()
        }
    }

    /// The golden-profile test mode: quick scales plus a hard 32-CTA
    /// sampling cap, cheap enough for debug-build `cargo test`.
    pub fn golden() -> Self {
        BenchOpts {
            quick: true,
            max_ctas_cap: Some(32),
            ..BenchOpts::default()
        }
    }

    /// Parses `--quick`, `--full` and `--csv DIR` from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on unknown flags, so a run fails
    /// fast rather than silently measuring the wrong thing.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::from_args(&args) {
            Ok(opts) => opts,
            Err(msg) => panic!("{msg}"),
        }
    }

    /// Parses `--quick`, `--full` and `--csv DIR` from an argument slice.
    ///
    /// # Errors
    ///
    /// Returns a usage message for unknown flags or a missing `--csv`
    /// directory.
    pub fn from_args<S: AsRef<str>>(args: &[S]) -> Result<Self, String> {
        let mut opts = BenchOpts::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_ref() {
                "--quick" => {
                    opts.quick = true;
                    i += 1;
                }
                "--full" => {
                    opts.full = true;
                    i += 1;
                }
                "--csv" => {
                    let dir = args
                        .get(i + 1)
                        .ok_or_else(|| "--csv needs a directory".to_string())?;
                    opts.csv_dir = Some(PathBuf::from(dir.as_ref()));
                    i += 2;
                }
                other => {
                    return Err(format!(
                        "unknown flag {other:?} (expected --quick | --full | --csv DIR)"
                    ))
                }
            }
        }
        Ok(opts)
    }

    /// The dataset scale policy (see crate docs).
    pub fn scale_for(&self, dataset: Dataset) -> f64 {
        if self.full {
            return 1.0;
        }
        if self.quick {
            return match dataset {
                Dataset::Cora | Dataset::CiteSeer => 0.05,
                Dataset::PubMed => 0.02,
                Dataset::Reddit => 0.001,
                Dataset::LiveJournal => 0.0002,
                Dataset::OgbnMag => 0.0005,
            };
        }
        match dataset {
            Dataset::Cora | Dataset::CiteSeer | Dataset::PubMed => 1.0,
            Dataset::Reddit => 0.02,
            Dataset::LiveJournal => 0.005,
            Dataset::OgbnMag => 0.005,
        }
    }

    /// The cycle-simulator backend policy: a full 80-SM device for the
    /// small citation graphs (whose Fig. 7 idle behaviour depends on real
    /// SM counts) and a proportionally scaled device for the big graphs.
    pub fn sim_for(&self, dataset: Dataset) -> SimProfiler {
        let max_ctas = self.cap_ctas(if self.quick { 256 } else { 4096 });
        let sim = match dataset {
            Dataset::Cora | Dataset::CiteSeer | Dataset::PubMed => {
                if self.quick {
                    SimProfiler::scaled(16)
                } else {
                    SimProfiler::new(gsuite_gpu::Simulator::new(
                        gsuite_gpu::GpuConfig::v100(),
                        gsuite_gpu::SimOptions::default(),
                    ))
                }
            }
            Dataset::Reddit | Dataset::LiveJournal | Dataset::OgbnMag => SimProfiler::scaled(16),
        };
        sim.max_ctas(Some(max_ctas))
    }

    /// The analytical (nvprof-like) backend with a sampling cap matched to
    /// the mode.
    pub fn hw(&self) -> HwProfiler {
        HwProfiler::v100().max_ctas(self.cap_ctas(if self.quick { 512 } else { 8192 }))
    }

    /// Applies [`BenchOpts::max_ctas_cap`] to a mode-policy CTA cap.
    pub fn cap_ctas(&self, mode_cap: u64) -> u64 {
        match self.max_ctas_cap {
            Some(cap) => mode_cap.min(cap),
            None => mode_cap,
        }
    }

    /// Hidden width used across the evaluation sweeps.
    pub fn hidden(&self) -> usize {
        16
    }

    /// Layer count used across the evaluation sweeps (the paper's default
    /// 2-layer pipelines).
    pub fn layers(&self) -> usize {
        2
    }

    /// The standard reproducibility header as a string (ends without a
    /// trailing newline; callers add spacing).
    pub fn header_text(&self, figure: &str, description: &str) -> String {
        let mode = if self.full {
            "full"
        } else if self.quick {
            "quick"
        } else {
            "default"
        };
        let cap = match self.max_ctas_cap {
            Some(cap) => format!(" | max-ctas<={cap}"),
            None => String::new(),
        };
        format!(
            "=== gSuite-rs :: {figure} — {description}\nmode={mode}{cap} | scales: {}",
            Dataset::ALL
                .map(|d| format!("{}={}", d.spec().short, self.scale_for(d)))
                .join(" ")
        )
    }
}

/// A `RunConfig` for one sweep point.
pub fn sweep_config(
    opts: &BenchOpts,
    framework: FrameworkKind,
    model: GnnModel,
    comp: CompModel,
    dataset: Dataset,
) -> RunConfig {
    RunConfig {
        model,
        comp,
        dataset,
        scale: opts.scale_for(dataset),
        layers: opts.layers(),
        hidden: opts.hidden(),
        framework,
        seed: 42,
        functional_math: false, // profiling sweeps never need host math
        opt: gsuite_core::OptLevel::O0,
        gpus_per_run: 1,
        partitioner: gsuite_graph::PartitionStrategy::Hash,
        batch_size: 0,
        fanout: Vec::new(),
        seed_node: None,
    }
}

/// Builds and profiles one pipeline; panics on unsupported combinations
/// (callers filter those out).
pub fn profile_pipeline(config: &RunConfig, profiler: &dyn Profiler) -> PipelineProfile {
    let graph = config.load_graph();
    let run = PipelineRun::build(&graph, config)
        .unwrap_or_else(|e| panic!("cannot build {}: {e}", config.label()));
    run.profile(profiler)
}

/// The `(model, comp)` pairs gSuite provides (paper §V-A: SAGE is MP-only).
pub fn gsuite_pairs() -> Vec<(GnnModel, CompModel)> {
    vec![
        (GnnModel::Gcn, CompModel::Mp),
        (GnnModel::Gcn, CompModel::Spmm),
        (GnnModel::Gin, CompModel::Mp),
        (GnnModel::Gin, CompModel::Spmm),
        (GnnModel::Sage, CompModel::Mp),
    ]
}

/// Formats a fraction as `"12.3%"`.
pub fn pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

/// Formats milliseconds with sensible precision.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_policy_orders_modes() {
        let quick = BenchOpts::quick();
        let default = BenchOpts::default();
        let full = BenchOpts {
            full: true,
            ..BenchOpts::default()
        };
        for d in Dataset::ALL {
            assert!(quick.scale_for(d) <= default.scale_for(d));
            assert!(default.scale_for(d) <= full.scale_for(d));
            assert_eq!(full.scale_for(d), 1.0);
        }
    }

    #[test]
    fn gsuite_pairs_exclude_sage_spmm() {
        let pairs = gsuite_pairs();
        assert_eq!(pairs.len(), 5);
        assert!(!pairs.contains(&(GnnModel::Sage, CompModel::Spmm)));
    }

    #[test]
    fn quick_profile_runs() {
        let opts = BenchOpts::quick();
        let cfg = sweep_config(
            &opts,
            FrameworkKind::GSuite,
            GnnModel::Gcn,
            CompModel::Mp,
            Dataset::Cora,
        );
        let profile = profile_pipeline(&cfg, &opts.hw());
        assert!(!profile.kernels.is_empty());
        assert!(profile.total_time_ms() > 0.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(ms(0.01234), "0.0123");
        assert_eq!(ms(12.345), "12.35");
        assert_eq!(ms(1234.5), "1234");
    }

    #[test]
    fn ctas_cap_tightens_both_backends() {
        let golden = BenchOpts::golden();
        assert_eq!(golden.cap_ctas(256), 32);
        assert_eq!(golden.cap_ctas(16), 16);
        let quick = BenchOpts::quick();
        assert_eq!(quick.cap_ctas(256), 256);
        // The cap is visible in the reproducibility header (goldens are
        // self-describing); plain modes are unchanged.
        assert!(golden.header_text("X", "y").contains("max-ctas<=32"));
        assert!(!quick.header_text("X", "y").contains("max-ctas"));
    }

    #[test]
    fn from_args_parses_flags() {
        let opts = BenchOpts::from_args(&["--quick", "--csv", "/tmp/x"]).unwrap();
        assert!(opts.quick && !opts.full);
        assert_eq!(
            opts.csv_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
        assert!(BenchOpts::from_args(&["--nope"]).is_err());
        assert!(BenchOpts::from_args(&["--csv"]).is_err());
    }
}
