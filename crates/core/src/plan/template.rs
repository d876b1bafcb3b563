//! Compile-once / instantiate-many **plan templates** — the serve fast
//! path between "request decoded" and "first launch priced".
//!
//! Lowering, optimization and decoration are pure functions of the
//! compile-relevant subset of [`RunConfig`] plus the graph: for a
//! repeat-shape request the resulting pre-schedule [`Plan`] is
//! byte-identical to the one compiled last time. A [`TemplateCache`]
//! memoizes that plan (and the functional output, which is computed
//! host-side during lowering) keyed by [`TemplateKey`], so repeat
//! requests skip lower/optimize/decorate entirely and run only
//! [`Template::instantiate`]: a shallow plan clone — upload buffers keep
//! their content tags, weights stay CSE-shared, and the `Arc`-held index
//! structures rebind by reference-count bump rather than copy — followed
//! by a fresh address assignment ([`Plan::schedule_in`]).
//!
//! Because scheduling is itself a pure function of the plan and the
//! opt level, an instantiated pipeline is **bit-identical** to a full
//! compile: same ops, addresses, launches, functional output and peak
//! bytes (`tests/plan_template.rs` locks this across every model ×
//! format × opt level).
//!
//! Sharded configs (`gpus_per_run > 1`) bypass the cache — their
//! per-shard plans live inside [`crate::plan::shard::ShardedExec`] and
//! profile-only semantics make the full build cheap relative to the
//! partitioning itself. [`TemplateKey::of`] returns `None` for them.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gsuite_graph::Graph;
use gsuite_tensor::DenseMatrix;

use crate::config::{CompModel, FrameworkKind, GnnModel, RunConfig};
use crate::plan::{OptLevel, Plan};

/// The compile-relevant identity of one build: every [`RunConfig`] field
/// the lower → optimize → decorate pipeline consumes, plus a cheap graph
/// fingerprint. Fields that only affect profiling (the GPU axis) or that
/// are ignored single-device (`partitioner`) are deliberately excluded,
/// so requests differing only in those share one template.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TemplateKey {
    model: GnnModel,
    comp: CompModel,
    dataset: gsuite_graph::datasets::Dataset,
    /// `RunConfig::scale` as raw bits (f64 is not `Eq`).
    scale_bits: u64,
    layers: usize,
    hidden: usize,
    framework: FrameworkKind,
    seed: u64,
    functional_math: bool,
    opt: OptLevel,
    batch_size: usize,
    fanout: Vec<usize>,
    seed_node: Option<u32>,
    /// Graph identity guard: node count of the graph actually passed in.
    nodes: usize,
    /// Graph identity guard: edge count of the graph actually passed in.
    edges: usize,
    /// Cross-request merged ego-net batches ([`TemplateKey::of_merged`]):
    /// the member seed nodes in batch order. Always empty for solo
    /// builds, so merged keys can never collide with per-request ones.
    merged_seeds: Vec<u32>,
}

impl TemplateKey {
    /// The template key of `config` over `graph`, or `None` when the
    /// combination is not templatable (sharded multi-GPU builds).
    pub fn of(graph: &Graph, config: &RunConfig) -> Option<TemplateKey> {
        if config.gpus_per_run > 1 {
            return None;
        }
        Some(TemplateKey {
            model: config.model,
            comp: config.comp,
            dataset: config.dataset,
            scale_bits: config.scale.to_bits(),
            layers: config.layers,
            hidden: config.hidden,
            framework: config.framework,
            seed: config.seed,
            functional_math: config.functional_math,
            opt: config.opt,
            batch_size: config.batch_size,
            fanout: config.fanout.clone(),
            seed_node: config.seed_node,
            nodes: graph.num_nodes(),
            edges: graph.num_edges(),
            merged_seeds: Vec::new(),
        })
    }

    /// The template key of one cross-request merged ego-net batch (see
    /// [`crate::plan::batchmerge`]): the members' shared compile shape
    /// with the seed nodes folded into `TemplateKey::merged_seeds` in
    /// batch order. `None` when the members are not a homogeneous
    /// sampled merge — full-graph merges may mix models, so their
    /// combined plans are not worth a template slot.
    pub fn of_merged(graph: &Graph, configs: &[RunConfig]) -> Option<TemplateKey> {
        let first = configs.first()?;
        first.seed_node?;
        let stripped = |config: &RunConfig| {
            TemplateKey::of(
                graph,
                &RunConfig {
                    seed_node: None,
                    ..config.clone()
                },
            )
        };
        let mut key = stripped(first)?;
        let mut seeds = Vec::with_capacity(configs.len());
        for config in configs {
            if config.seed_node.is_none() || stripped(config)? != key {
                return None;
            }
            seeds.push(config.seed_node.expect("checked above"));
        }
        key.merged_seeds = seeds;
        Some(key)
    }
}

/// One cached compile: the post-decorate, pre-schedule plan and the
/// functional output that lowering computed alongside it.
#[derive(Debug)]
pub struct Template {
    pub(crate) plan: Plan,
    pub(crate) output: DenseMatrix,
    /// Merged-batch member metadata (`(nodes, edges)` per member, batch
    /// order; empty for solo templates): the attribution weights a
    /// template-served merged build scatters cost by, preserved so
    /// instantiation never has to re-sample the members.
    pub(crate) parts: Vec<(usize, usize)>,
}

impl Template {
    /// Captures a template from a finished single-device build.
    pub(crate) fn capture(plan: &Plan, output: &DenseMatrix) -> Template {
        Template {
            plan: plan.clone(),
            output: output.clone(),
            parts: Vec::new(),
        }
    }

    /// Captures a template from a finished merged-batch build, keeping
    /// each member's `(nodes, edges)` attribution metadata.
    pub(crate) fn capture_merged(
        plan: &Plan,
        output: &DenseMatrix,
        parts: Vec<(usize, usize)>,
    ) -> Template {
        Template {
            plan: plan.clone(),
            output: output.clone(),
            parts,
        }
    }

    /// The merged-batch member metadata (empty for solo templates).
    pub(crate) fn merged_parts(&self) -> &[(usize, usize)] {
        &self.parts
    }

    /// Rebinds the template into a fresh `(plan, output)` pair ready for
    /// scheduling. The clone is shallow where it matters: index
    /// structures and sparse patterns are `Arc`-shared with the
    /// template, upload buffers keep their content tags (weights stay
    /// CSE-merged exactly as the optimizer left them), and the output
    /// matrix is copied as-is.
    pub fn instantiate(&self) -> (Plan, DenseMatrix) {
        (self.plan.clone(), self.output.clone())
    }

    /// Launches the cached plan schedules to.
    pub fn launch_count(&self) -> usize {
        self.plan.launch_count()
    }
}

/// Monotone counters of one [`TemplateCache`], snapshot by
/// [`TemplateCache::stats`]. Serve surfaces these as the `tpl_hits` /
/// `tpl_misses` / `tpl_instantiates` stats keys and the matching
/// Prometheus gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateStats {
    /// Lookups that found a template.
    pub hits: u64,
    /// Lookups that missed (templatable key, nothing cached yet).
    pub misses: u64,
    /// Builds served by [`Template::instantiate`] instead of a full
    /// compile.
    pub instantiates: u64,
    /// Templates currently cached.
    pub entries: usize,
}

/// A bounded, thread-safe map of [`TemplateKey`] → [`Template`].
///
/// Shared by every worker of a serving process (and by the scenario
/// runner's memoized build phase); lookups and inserts take one short
/// mutex hold, and the heavyweight work — full compiles on miss,
/// schedule on hit — happens outside the lock. Capacity is bounded with
/// FIFO eviction: templates are small (plans share their index
/// structures with the graph via `Arc`), so recency tracking is not
/// worth the extra bookkeeping.
#[derive(Debug)]
pub struct TemplateCache {
    inner: Mutex<CacheMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    instantiates: AtomicU64,
}

#[derive(Debug, Default)]
struct CacheMap {
    map: HashMap<TemplateKey, Arc<Template>>,
    /// Insertion order, for FIFO eviction.
    order: VecDeque<TemplateKey>,
    cap: usize,
}

/// Default [`TemplateCache`] capacity (distinct compile shapes).
pub const DEFAULT_TEMPLATE_CAP: usize = 256;

impl Default for TemplateCache {
    fn default() -> Self {
        TemplateCache::new()
    }
}

impl TemplateCache {
    /// A cache holding up to [`DEFAULT_TEMPLATE_CAP`] templates.
    pub fn new() -> TemplateCache {
        TemplateCache::with_capacity(DEFAULT_TEMPLATE_CAP)
    }

    /// A cache holding up to `cap` templates (`0` disables caching:
    /// every lookup misses and inserts are dropped).
    pub fn with_capacity(cap: usize) -> TemplateCache {
        TemplateCache {
            inner: Mutex::new(CacheMap {
                cap,
                ..CacheMap::default()
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            instantiates: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, counting a hit or miss.
    pub fn get(&self, key: &TemplateKey) -> Option<Arc<Template>> {
        let inner = self.inner.lock().expect("template cache lock");
        let found = inner.map.get(key).cloned();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Whether `key` has a template, without counting a hit or miss.
    pub fn contains(&self, key: &TemplateKey) -> bool {
        let inner = self.inner.lock().expect("template cache lock");
        inner.map.contains_key(key)
    }

    /// Caches `template` under `key` (first writer wins; FIFO-evicts the
    /// oldest entry when full).
    pub fn insert(&self, key: TemplateKey, template: Template) {
        let mut inner = self.inner.lock().expect("template cache lock");
        if inner.cap == 0 || inner.map.contains_key(&key) {
            return;
        }
        while inner.map.len() >= inner.cap {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            inner.map.remove(&oldest);
        }
        inner.order.push_back(key.clone());
        inner.map.insert(key, Arc::new(template));
    }

    /// Records one instantiate-served build (the hit actually being
    /// used, as opposed to a lookup).
    pub fn note_instantiated(&self) {
        self.instantiates.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TemplateStats {
        let entries = self.inner.lock().expect("template cache lock").map.len();
        TemplateStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            instantiates: self.instantiates.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Templates currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("template cache lock").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> TemplateKey {
        let config = RunConfig {
            seed,
            scale: 0.02,
            hidden: 8,
            ..RunConfig::default()
        };
        let graph = config.load_graph();
        TemplateKey::of(&graph, &config).expect("single-device key")
    }

    fn empty_template() -> Template {
        Template {
            plan: Plan::new(),
            output: DenseMatrix::zeros(1, 1),
            parts: Vec::new(),
        }
    }

    #[test]
    fn sharded_configs_are_not_templatable() {
        let config = RunConfig {
            gpus_per_run: 2,
            scale: 0.02,
            ..RunConfig::default()
        };
        let graph = config.load_graph();
        assert_eq!(TemplateKey::of(&graph, &config), None);
    }

    #[test]
    fn profiling_only_fields_do_not_split_keys() {
        let config = RunConfig {
            scale: 0.02,
            hidden: 8,
            ..RunConfig::default()
        };
        let graph = config.load_graph();
        let base = TemplateKey::of(&graph, &config).unwrap();
        let partitioner_differs = RunConfig {
            partitioner: gsuite_graph::PartitionStrategy::EdgeCut,
            ..config.clone()
        };
        assert_eq!(
            base,
            TemplateKey::of(&graph, &partitioner_differs).unwrap(),
            "partitioner is ignored single-device"
        );
        let compile_differs = RunConfig {
            opt: OptLevel::O2,
            ..config
        };
        assert_ne!(base, TemplateKey::of(&graph, &compile_differs).unwrap());
    }

    #[test]
    fn merged_keys_fold_seed_nodes_and_never_collide() {
        let config = |v| RunConfig {
            scale: 0.02,
            hidden: 8,
            seed_node: Some(v),
            fanout: vec![3, 3],
            ..RunConfig::default()
        };
        let graph = config(0).load_graph();
        let configs = vec![config(1), config(3)];
        let k = TemplateKey::of_merged(&graph, &configs).expect("homogeneous merge");
        assert_eq!(k, TemplateKey::of_merged(&graph, &configs).unwrap());
        // Member order is part of the shape.
        let swapped = vec![config(3), config(1)];
        assert_ne!(k, TemplateKey::of_merged(&graph, &swapped).unwrap());
        // A merged key can never collide with a solo full-graph key of
        // the same compile shape (merged_seeds is non-empty).
        let solo = RunConfig {
            scale: 0.02,
            hidden: 8,
            fanout: vec![3, 3],
            ..RunConfig::default()
        };
        assert_ne!(k, TemplateKey::of(&graph, &solo).unwrap());
        // Heterogeneous and full-graph member sets are not templatable.
        let mixed = vec![
            config(1),
            RunConfig {
                hidden: 4,
                ..config(3)
            },
        ];
        assert_eq!(TemplateKey::of_merged(&graph, &mixed), None);
        assert_eq!(TemplateKey::of_merged(&graph, &[solo]), None);
        assert_eq!(TemplateKey::of_merged(&graph, &[]), None);
    }

    #[test]
    fn cache_counts_hits_misses_and_instantiates() {
        let cache = TemplateCache::new();
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), empty_template());
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none());
        cache.note_instantiated();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.instantiates, s.entries), (1, 2, 1, 1));
        assert!(!cache.is_empty());
    }

    #[test]
    fn capacity_evicts_fifo_and_zero_disables() {
        let cache = TemplateCache::with_capacity(2);
        for seed in 0..3 {
            cache.insert(key(seed), empty_template());
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(0)).is_none(), "oldest entry evicted");
        assert!(cache.get(&key(2)).is_some());

        let off = TemplateCache::with_capacity(0);
        off.insert(key(0), empty_template());
        assert!(off.is_empty());
    }
}
