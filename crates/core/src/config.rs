//! The paper's User Interface / Abstraction Module (Fig. 1): a GNN
//! pipeline is fully described by a handful of parameters, passed as CLI
//! flags or read from a `key = value` defaults file.

use gsuite_graph::datasets::Dataset;
use gsuite_graph::{Graph, PartitionStrategy};
use serde::{Deserialize, Serialize};

use crate::plan::OptLevel;
use crate::{CoreError, Result};

/// The GNN models gSuite ships.
///
/// GCN, GIN and GraphSAGE are the paper's evaluated trio (§II-C);
/// GAT and SGC are extension models demonstrating the suite's
/// plug-and-play extendability claim (§IV) — they are built from the same
/// Table II core kernels and are *not* part of the paper-reproduction
/// sweeps ([`GnnModel::ALL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GnnModel {
    /// Graph Convolutional Network.
    Gcn,
    /// Graph Isomorphism Network.
    Gin,
    /// GraphSAGE.
    Sage,
    /// Graph Attention Network (single-head; extension model, MP only).
    Gat,
    /// Simple Graph Convolution (K-hop propagation then one linear;
    /// extension model).
    Sgc,
    /// Relational GCN (one aggregation chain per typed edge relation;
    /// hetero extension model, MP only). Outside both [`GnnModel::ALL`]
    /// and [`GnnModel::EXTENDED`] — it runs on heterogeneous shapes and
    /// is exercised by its own registry scenario, not the paper sweeps.
    Rgcn,
}

impl GnnModel {
    /// The paper's evaluated models, in its order.
    pub const ALL: [GnnModel; 3] = [GnnModel::Gcn, GnnModel::Gin, GnnModel::Sage];

    /// Every model including the extension models.
    pub const EXTENDED: [GnnModel; 5] = [
        GnnModel::Gcn,
        GnnModel::Gin,
        GnnModel::Sage,
        GnnModel::Gat,
        GnnModel::Sgc,
    ];

    /// Paper-style short name (`GCN`, `GIN`, `SAG`, ...).
    pub fn name(self) -> &'static str {
        match self {
            GnnModel::Gcn => "GCN",
            GnnModel::Gin => "GIN",
            GnnModel::Sage => "SAG",
            GnnModel::Gat => "GAT",
            GnnModel::Sgc => "SGC",
            GnnModel::Rgcn => "RGC",
        }
    }

    /// Parses a model name (case-insensitive; accepts `sage`/`sag`).
    pub fn parse(s: &str) -> Option<GnnModel> {
        match s.to_ascii_lowercase().as_str() {
            "gcn" => Some(GnnModel::Gcn),
            "gin" => Some(GnnModel::Gin),
            "sag" | "sage" | "graphsage" => Some(GnnModel::Sage),
            "gat" => Some(GnnModel::Gat),
            "sgc" => Some(GnnModel::Sgc),
            "rgc" | "rgcn" => Some(GnnModel::Rgcn),
            _ => None,
        }
    }
}

impl std::fmt::Display for GnnModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The two computational models (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompModel {
    /// Message passing (indexSelect / scatter / sgemm).
    Mp,
    /// Sparse matrix multiplication (SpGEMM / SpMM / sgemm).
    Spmm,
}

impl CompModel {
    /// Both computational models.
    pub const ALL: [CompModel; 2] = [CompModel::Mp, CompModel::Spmm];

    /// Paper-style name (`MP`, `SpMM`).
    pub fn name(self) -> &'static str {
        match self {
            CompModel::Mp => "MP",
            CompModel::Spmm => "SpMM",
        }
    }

    /// Parses a computational-model name.
    pub fn parse(s: &str) -> Option<CompModel> {
        match s.to_ascii_lowercase().as_str() {
            "mp" | "messagepassing" | "message-passing" => Some(CompModel::Mp),
            "spmm" | "sparse" => Some(CompModel::Spmm),
            _ => None,
        }
    }
}

impl std::fmt::Display for CompModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which implementation runs the pipeline: gSuite's own kernels or one of
/// the framework baselines the paper compares against (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameworkKind {
    /// gSuite's framework-independent kernels.
    GSuite,
    /// The PyTorch-Geometric-like baseline (MP schema, heavy dependency
    /// chain).
    PygLike,
    /// The DGL-like baseline (SpMM schema).
    DglLike,
}

impl FrameworkKind {
    /// All frameworks in the paper's Fig. 3 order (PyG, DGL, gSuite).
    pub const ALL: [FrameworkKind; 3] = [
        FrameworkKind::PygLike,
        FrameworkKind::DglLike,
        FrameworkKind::GSuite,
    ];

    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            FrameworkKind::GSuite => "gSuite",
            FrameworkKind::PygLike => "PyG",
            FrameworkKind::DglLike => "DGL",
        }
    }

    /// Parses a framework name.
    pub fn parse(s: &str) -> Option<FrameworkKind> {
        match s.to_ascii_lowercase().as_str() {
            "gsuite" | "none" => Some(FrameworkKind::GSuite),
            "pyg" | "pytorch-geometric" | "pyglike" => Some(FrameworkKind::PygLike),
            "dgl" | "dgllike" => Some(FrameworkKind::DglLike),
            _ => None,
        }
    }
}

impl std::fmt::Display for FrameworkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full description of one benchmark run — the paper's "few parameters".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// GNN model.
    pub model: GnnModel,
    /// Computational model.
    pub comp: CompModel,
    /// Dataset (Table IV).
    pub dataset: Dataset,
    /// Dataset scale in `(0, 1]` (1.0 = full Table IV size).
    pub scale: f64,
    /// Number of GNN layers.
    pub layers: usize,
    /// Hidden width of every layer.
    pub hidden: usize,
    /// Executing framework.
    pub framework: FrameworkKind,
    /// RNG seed (weights).
    pub seed: u64,
    /// Compute real outputs host-side (disable for huge profile-only runs).
    pub functional_math: bool,
    /// Plan optimization level (O0 = golden-compatible launch stream, O2
    /// = fusion/hoist/memory-planning passes).
    pub opt: OptLevel,
    /// Modeled devices executing this run. `1` (the default) is the
    /// paper's single-GPU pipeline — the golden-compatible path, bit
    /// exact to every historical snapshot. `N > 1` partitions the graph
    /// into `N` shards with [`RunConfig::partitioner`] and compiles one
    /// op DAG per shard plus halo-exchange transfers
    /// ([`crate::plan::shard`]).
    pub gpus_per_run: usize,
    /// Graph-partition strategy for sharded runs (ignored at
    /// `gpus_per_run == 1`).
    pub partitioner: PartitionStrategy,
    /// Mini-batch size for neighbor-sampled inference. `0` (the default)
    /// is full-graph inference — the golden-compatible path. `N > 0`
    /// partitions the node set into seed batches of `N` with
    /// [`gsuite_graph::batch_schedule`], samples each batch's ego-net
    /// with [`RunConfig::fanout`] and compiles every sampled subgraph
    /// into one combined plan (weights shared across batches via
    /// content-identity CSE).
    pub batch_size: usize,
    /// Per-layer neighbor fanouts for sampled inference, outermost hop
    /// first (CLI/protocol form `10x5`). Empty (the default) means
    /// "10 per hop for every layer"; ignored on full-graph runs.
    pub fanout: Vec<usize>,
    /// Single seed node for ego-net inference (the serving shape: one
    /// request = one sampled neighborhood). Overrides
    /// [`RunConfig::batch_size`] scheduling — the run has exactly one
    /// batch containing this node.
    pub seed_node: Option<u32>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            model: GnnModel::Gcn,
            comp: CompModel::Mp,
            dataset: Dataset::Cora,
            scale: 1.0,
            layers: 2,
            hidden: 16,
            framework: FrameworkKind::GSuite,
            seed: 42,
            functional_math: true,
            opt: OptLevel::O0,
            gpus_per_run: 1,
            partitioner: PartitionStrategy::Hash,
            batch_size: 0,
            fanout: Vec::new(),
            seed_node: None,
        }
    }
}

impl RunConfig {
    /// Loads the configured graph at the configured scale.
    pub fn load_graph(&self) -> Graph {
        self.dataset.load_scaled(self.scale)
    }

    /// A human-readable run label, e.g. `"gSuite-MP GCN on Cora"`.
    pub fn label(&self) -> String {
        format!(
            "{}-{} {} on {}",
            self.framework,
            self.comp.name(),
            self.model,
            self.dataset
        )
    }

    /// Whether this run takes the neighbor-sampled mini-batch path
    /// (either a batch schedule or a single-ego-net request) instead of
    /// full-graph inference.
    pub fn is_minibatch(&self) -> bool {
        self.batch_size > 0 || self.seed_node.is_some()
    }

    /// The per-layer fanouts a sampled run uses: [`RunConfig::fanout`]
    /// when set, else 10 neighbors per hop for every layer.
    pub fn effective_fanouts(&self) -> Vec<usize> {
        if self.fanout.is_empty() {
            vec![10; self.layers]
        } else {
            self.fanout.clone()
        }
    }

    /// Applies one `key = value` setting.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownKey`] for unrecognized keys,
    /// [`CoreError::InvalidConfig`] for unparsable values.
    pub fn apply(&mut self, key: &str, value: &str) -> Result<()> {
        let invalid = |expected: &str| CoreError::InvalidConfig {
            key: key.to_string(),
            value: value.to_string(),
            expected: expected.to_string(),
        };
        match key {
            "model" => self.model = GnnModel::parse(value).ok_or_else(|| invalid("gcn|gin|sag"))?,
            "comp" | "computational-model" => {
                self.comp = CompModel::parse(value).ok_or_else(|| invalid("mp|spmm"))?
            }
            "dataset" => {
                self.dataset = Dataset::parse(value)
                    .ok_or_else(|| invalid("cora|citeseer|pubmed|reddit|livejournal"))?
            }
            "scale" => {
                let v: f64 = value.parse().map_err(|_| invalid("float in (0,1]"))?;
                if !(v > 0.0 && v <= 1.0) {
                    return Err(invalid("float in (0,1]"));
                }
                self.scale = v;
            }
            "layers" => {
                let v: usize = value.parse().map_err(|_| invalid("positive integer"))?;
                if v == 0 {
                    return Err(invalid("positive integer"));
                }
                self.layers = v;
            }
            "hidden" => {
                let v: usize = value.parse().map_err(|_| invalid("positive integer"))?;
                if v == 0 {
                    return Err(invalid("positive integer"));
                }
                self.hidden = v;
            }
            "framework" => {
                self.framework =
                    FrameworkKind::parse(value).ok_or_else(|| invalid("gsuite|pyg|dgl"))?
            }
            "seed" => self.seed = value.parse().map_err(|_| invalid("integer"))?,
            "functional" | "functional-math" => {
                self.functional_math = value.parse().map_err(|_| invalid("true|false"))?
            }
            "opt" | "opt-level" => {
                self.opt = OptLevel::parse(value).ok_or_else(|| invalid("0|2"))?
            }
            "shards" | "gpus" | "gpus-per-run" => {
                let v: usize = value.parse().map_err(|_| invalid("positive integer"))?;
                if v == 0 {
                    return Err(invalid("positive integer"));
                }
                self.gpus_per_run = v;
            }
            "partitioner" => {
                self.partitioner =
                    PartitionStrategy::parse(value).ok_or_else(|| invalid("hash|range|edgecut"))?
            }
            "batch_size" | "batch-size" => {
                self.batch_size = value
                    .parse()
                    .map_err(|_| invalid("non-negative integer (0 = full graph)"))?;
            }
            "fanout" => {
                self.fanout = gsuite_graph::parse_fanout(value)
                    .ok_or_else(|| invalid("x-separated fanouts, e.g. 10x5"))?;
            }
            "seed_node" | "seed-node" => {
                self.seed_node = Some(value.parse().map_err(|_| invalid("node id (u32)"))?);
            }
            _ => {
                return Err(CoreError::UnknownKey {
                    key: key.to_string(),
                })
            }
        }
        Ok(())
    }

    /// Applies a defaults file: one `key = value` per line, `#` comments.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RunConfig::apply`], plus
    /// [`CoreError::InvalidConfig`] for lines without `=`.
    pub fn apply_file(&mut self, content: &str) -> Result<()> {
        for (lineno, raw) in content.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(CoreError::InvalidConfig {
                    key: format!("line {}", lineno + 1),
                    value: raw.to_string(),
                    expected: "key = value".to_string(),
                });
            };
            self.apply(key.trim(), value.trim())?;
        }
        Ok(())
    }

    /// Parses CLI-style arguments (`--key value` or `--key=value`) on top
    /// of the defaults. A leading `--config <path>` pair is handled by the
    /// CLI binary, not here.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RunConfig::apply_args`].
    pub fn from_args<S: AsRef<str>>(args: &[S]) -> Result<RunConfig> {
        let mut config = RunConfig::default();
        config.apply_args(args)?;
        Ok(config)
    }

    /// Applies CLI-style arguments (`--key value` or `--key=value`) in
    /// order, through the same key table as [`RunConfig::apply`] — so
    /// flags override whatever a defaults file set before them.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RunConfig::apply`], plus
    /// [`CoreError::InvalidConfig`] for malformed flags.
    pub fn apply_args<S: AsRef<str>>(&mut self, args: &[S]) -> Result<()> {
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_ref();
            let Some(flag) = arg.strip_prefix("--") else {
                return Err(CoreError::InvalidConfig {
                    key: arg.to_string(),
                    value: String::new(),
                    expected: "--key value".to_string(),
                });
            };
            if let Some((key, value)) = flag.split_once('=') {
                self.apply(key, value)?;
                i += 1;
            } else {
                let value = args.get(i + 1).map(|s| s.as_ref()).ok_or_else(|| {
                    CoreError::InvalidConfig {
                        key: flag.to_string(),
                        value: String::new(),
                        expected: "a value after the flag".to_string(),
                    }
                })?;
                self.apply(flag, value)?;
                i += 2;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = RunConfig::default();
        assert_eq!(c.model, GnnModel::Gcn);
        assert_eq!(c.layers, 2);
        assert!(c.functional_math);
    }

    #[test]
    fn parse_enums() {
        assert_eq!(GnnModel::parse("SAGE"), Some(GnnModel::Sage));
        assert_eq!(GnnModel::parse("sag"), Some(GnnModel::Sage));
        assert_eq!(CompModel::parse("SpMM"), Some(CompModel::Spmm));
        assert_eq!(FrameworkKind::parse("PyG"), Some(FrameworkKind::PygLike));
        assert_eq!(GnnModel::parse("transformer"), None);
    }

    #[test]
    fn from_args_both_flag_styles() {
        let c = RunConfig::from_args(&["--model", "gin", "--layers=3", "--dataset", "PB"]).unwrap();
        assert_eq!(c.model, GnnModel::Gin);
        assert_eq!(c.layers, 3);
        assert_eq!(c.dataset, Dataset::PubMed);
    }

    #[test]
    fn flags_override_file_defaults() {
        let mut c = RunConfig::default();
        c.apply_file("dataset = citeseer\nscale = 0.05\nhidden = 8\n")
            .unwrap();
        c.apply_args(&["--scale", "0.03", "--model=gin"]).unwrap();
        assert_eq!(c.dataset, Dataset::CiteSeer);
        assert_eq!(c.scale, 0.03);
        assert_eq!(c.hidden, 8);
        assert_eq!(c.model, GnnModel::Gin);
        let err = c.apply_args(&["--hidden", "0"]).unwrap_err();
        assert!(err.to_string().contains("hidden"), "{err}");
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(RunConfig::from_args(&["--layers", "0"]).is_err());
        assert!(RunConfig::from_args(&["--scale", "2.0"]).is_err());
        assert!(RunConfig::from_args(&["--nonsense", "1"]).is_err());
        assert!(RunConfig::from_args(&["bare"]).is_err());
        assert!(RunConfig::from_args(&["--model"]).is_err());
        assert!(RunConfig::from_args(&["--opt", "1"]).is_err());
    }

    #[test]
    fn opt_level_is_configurable_and_defaults_to_o0() {
        assert_eq!(RunConfig::default().opt, OptLevel::O0);
        let c = RunConfig::from_args(&["--opt", "2"]).unwrap();
        assert_eq!(c.opt, OptLevel::O2);
        let mut c = RunConfig::default();
        c.apply_file("opt = 2\n").unwrap();
        assert_eq!(c.opt, OptLevel::O2);
    }

    #[test]
    fn sharding_keys_are_configurable_and_default_single_gpu() {
        let c = RunConfig::default();
        assert_eq!(c.gpus_per_run, 1);
        assert_eq!(c.partitioner, PartitionStrategy::Hash);
        let c = RunConfig::from_args(&["--shards", "4", "--partitioner", "edgecut"]).unwrap();
        assert_eq!(c.gpus_per_run, 4);
        assert_eq!(c.partitioner, PartitionStrategy::EdgeCut);
        let mut c = RunConfig::default();
        c.apply_file("gpus-per-run = 2\npartitioner = range\n")
            .unwrap();
        assert_eq!(c.gpus_per_run, 2);
        assert_eq!(c.partitioner, PartitionStrategy::Range);
        assert!(RunConfig::from_args(&["--shards", "0"]).is_err());
        assert!(RunConfig::from_args(&["--partitioner", "metis"]).is_err());
    }

    #[test]
    fn batch_keys_are_configurable_and_default_to_full_graph() {
        let c = RunConfig::default();
        assert_eq!(c.batch_size, 0);
        assert!(c.fanout.is_empty());
        assert_eq!(c.seed_node, None);
        assert!(!c.is_minibatch());
        assert_eq!(c.effective_fanouts(), vec![10, 10]);

        let c = RunConfig::from_args(&["--batch-size", "64", "--fanout", "10x5"]).unwrap();
        assert_eq!(c.batch_size, 64);
        assert_eq!(c.fanout, vec![10, 5]);
        assert!(c.is_minibatch());
        assert_eq!(c.effective_fanouts(), vec![10, 5]);

        let mut c = RunConfig::default();
        c.apply_file("batch_size = 32\nfanout = 25x10\nseed_node = 7\n")
            .unwrap();
        assert_eq!(c.batch_size, 32);
        assert_eq!(c.fanout, vec![25, 10]);
        assert_eq!(c.seed_node, Some(7));
        assert!(c.is_minibatch());

        assert!(RunConfig::from_args(&["--fanout", "10x"]).is_err());
        assert!(RunConfig::from_args(&["--fanout", "ten"]).is_err());
        assert!(RunConfig::from_args(&["--seed-node", "-1"]).is_err());
        // batch_size 0 is legal: it means full-graph.
        assert!(!RunConfig::from_args(&["--batch-size", "0"])
            .unwrap()
            .is_minibatch());
    }

    #[test]
    fn rgcn_parses_but_stays_out_of_the_sweep_arrays() {
        assert_eq!(GnnModel::parse("rgcn"), Some(GnnModel::Rgcn));
        assert_eq!(GnnModel::parse("RGC"), Some(GnnModel::Rgcn));
        assert_eq!(GnnModel::Rgcn.name(), "RGC");
        assert!(!GnnModel::ALL.contains(&GnnModel::Rgcn));
        assert!(!GnnModel::EXTENDED.contains(&GnnModel::Rgcn));
    }

    #[test]
    fn config_file_round_trip() {
        let mut c = RunConfig::default();
        c.apply_file("# defaults\nmodel = sag\ncomp = mp\nhidden = 32 # wide\n\nscale = 0.5\n")
            .unwrap();
        assert_eq!(c.model, GnnModel::Sage);
        assert_eq!(c.hidden, 32);
        assert!((c.scale - 0.5).abs() < 1e-12);
        assert!(c.apply_file("not a kv line").is_err());
    }

    #[test]
    fn label_reads_well() {
        let c = RunConfig::default();
        assert_eq!(c.label(), "gSuite-MP GCN on Cora");
    }
}
