//! The serving request type and its newline-delimited wire format.
//!
//! One request = one inference-benchmark configuration: a [`RunConfig`]
//! (model × dataset × scale × layers × …) plus the [`GpuSpec`] backend
//! that measures it. On the wire a request is a single line of
//! whitespace-separated `key=value` pairs — the same keys the CLI and the
//! `key = value` defaults files accept, plus `backend` for the GPU axis
//! and the per-request QoS keys `deadline_ms` / `fault_seed`:
//!
//! ```text
//! model=gcn comp=mp dataset=cora scale=0.05 hidden=16 backend=hw
//! model=gin comp=spmm dataset=pubmed backend=sim:8 deadline_ms=250
//! ```
//!
//! Unspecified keys take the [`RunConfig`] defaults, except
//! `functional_math`, which defaults to `false` for serving (a profiling
//! service has no use for host-side output math). Requests are compared
//! structurally — two lines that resolve to the same configuration are
//! the *same* request for caching and coalescing purposes. The QoS keys
//! are deliberately **excluded** from that identity: a tight deadline
//! must not fragment the cache or the coalescing window.

use std::hash::{Hash, Hasher};

use gsuite_core::config::RunConfig;
use gsuite_scenarios::{GpuSpec, ScenarioCell};

pub use gsuite_scenarios::CacheDisposition;

/// One inference-benchmark request: what to run, which backend measures
/// it, and the per-request QoS envelope.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// The pipeline configuration (the cache/coalescing key together with
    /// [`ServeRequest::gpu`]).
    pub config: RunConfig,
    /// The GPU/backend axis measuring this request.
    pub gpu: GpuSpec,
    /// Per-request latency budget in milliseconds (`None` = the server's
    /// default policy). Propagated into the build/profile stages as a
    /// cooperative-cancellation budget. **Not** part of request identity.
    pub deadline_ms: Option<f64>,
    /// Per-request fault-seed override for injected faults (`None` = the
    /// server's configured fault plan, if any). Lets a chaos client replay
    /// one request's fault draws deterministically. **Not** part of
    /// request identity.
    pub fault_seed: Option<u64>,
}

/// Request identity is the configuration + backend only: QoS knobs never
/// fragment the cache or the coalescing window.
impl PartialEq for ServeRequest {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config && self.gpu == other.gpu
    }
}

/// Hashes exactly the identity fields [`PartialEq`] compares (the full
/// configuration + backend; QoS keys excluded), as the sharded cache's
/// hash routing requires. `scale` hashes by bit pattern — configurations
/// validate it as a positive finite value, so bitwise identity coincides
/// with `==` there.
impl Hash for ServeRequest {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let c = &self.config;
        c.model.name().hash(state);
        c.comp.name().hash(state);
        c.dataset.name().hash(state);
        c.scale.to_bits().hash(state);
        c.layers.hash(state);
        c.hidden.hash(state);
        c.framework.name().hash(state);
        c.seed.hash(state);
        c.functional_math.hash(state);
        c.opt.name().hash(state);
        c.gpus_per_run.hash(state);
        c.partitioner.name().hash(state);
        c.batch_size.hash(state);
        c.fanout.hash(state);
        c.seed_node.hash(state);
        self.gpu.proto_name().hash(state);
    }
}

impl ServeRequest {
    /// A request over `config` measured by `gpu`, with no QoS overrides.
    pub fn new(config: RunConfig, gpu: GpuSpec) -> Self {
        ServeRequest {
            config,
            gpu,
            deadline_ms: None,
            fault_seed: None,
        }
    }

    /// The request corresponding to one expanded scenario cell — the
    /// bridge from the scenario registry to a serving workload mix.
    pub fn from_cell(cell: &ScenarioCell) -> Self {
        ServeRequest::new(cell.config.clone(), cell.gpu)
    }

    /// Parses one protocol line (see the module docs for the format).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending token for malformed pairs,
    /// unknown keys or unparsable values.
    pub fn parse_line(line: &str) -> Result<Self, String> {
        let config = RunConfig {
            functional_math: false,
            ..RunConfig::default()
        };
        let mut req = ServeRequest::new(config, GpuSpec::HwV100);
        for token in line.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("malformed token {token:?} (expected key=value)"))?;
            match key {
                "backend" | "gpu" => {
                    req.gpu = GpuSpec::parse(value).ok_or_else(|| {
                        format!("invalid backend {value:?} (expected hw | sim | sim:<sms>)")
                    })?;
                }
                "deadline_ms" => {
                    let ms: f64 = value
                        .parse()
                        .ok()
                        .filter(|v: &f64| v.is_finite() && *v > 0.0)
                        .ok_or_else(|| {
                            format!("invalid deadline_ms {value:?} (expected positive ms)")
                        })?;
                    req.deadline_ms = Some(ms);
                }
                "fault_seed" => {
                    let seed: u64 = value.parse().map_err(|_| {
                        format!("invalid fault_seed {value:?} (expected unsigned integer)")
                    })?;
                    req.fault_seed = Some(seed);
                }
                _ => req.config.apply(key, value).map_err(|e| e.to_string())?,
            }
        }
        Ok(req)
    }

    /// Renders the request as one protocol line. `parse_line` of the
    /// result round-trips to an equal request (QoS keys included). The
    /// sharding keys (`shards`, `partitioner`), the mini-batch keys
    /// (`batch_size`, `fanout`, `seed_node`) and the QoS keys are
    /// emitted only when set, keeping plain lines identical to the
    /// historical format.
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "model={} comp={} dataset={} scale={} layers={} hidden={} framework={} seed={} functional={} opt={} backend={}",
            self.config.model.name().to_ascii_lowercase(),
            self.config.comp.name().to_ascii_lowercase(),
            self.config.dataset.name().to_ascii_lowercase(),
            self.config.scale,
            self.config.layers,
            self.config.hidden,
            self.config.framework.name().to_ascii_lowercase(),
            self.config.seed,
            self.config.functional_math,
            self.config.opt.name().to_ascii_lowercase(),
            self.gpu.proto_name(),
        );
        if self.config.gpus_per_run > 1 {
            line.push_str(&format!(
                " shards={} partitioner={}",
                self.config.gpus_per_run,
                self.config.partitioner.name()
            ));
        }
        if self.config.batch_size > 0 {
            line.push_str(&format!(" batch_size={}", self.config.batch_size));
        }
        if !self.config.fanout.is_empty() {
            line.push_str(&format!(
                " fanout={}",
                gsuite_graph::fanout_label(&self.config.fanout)
            ));
        }
        if let Some(node) = self.config.seed_node {
            line.push_str(&format!(" seed_node={node}"));
        }
        if let Some(ms) = self.deadline_ms {
            line.push_str(&format!(" deadline_ms={ms}"));
        }
        if let Some(seed) = self.fault_seed {
            line.push_str(&format!(" fault_seed={seed}"));
        }
        line
    }

    /// A compact display label, e.g. `"gSuite-MP GCN on Cora [V100-hw]"`.
    pub fn label(&self) -> String {
        format!("{} [{}]", self.config.label(), self.gpu.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsuite_core::config::{CompModel, GnnModel};
    use gsuite_graph::datasets::Dataset;

    #[test]
    fn parse_line_applies_keys_and_defaults() {
        let r = ServeRequest::parse_line("model=gin comp=spmm dataset=pubmed backend=sim:8")
            .expect("valid line");
        assert_eq!(r.config.model, GnnModel::Gin);
        assert_eq!(r.config.comp, CompModel::Spmm);
        assert_eq!(r.config.dataset, Dataset::PubMed);
        assert_eq!(r.gpu, GpuSpec::SimSms(8));
        // Serving defaults: profiling only, no host math, no QoS.
        assert!(!r.config.functional_math);
        assert_eq!(r.config.layers, 2);
        assert_eq!(r.deadline_ms, None);
        assert_eq!(r.fault_seed, None);
    }

    #[test]
    fn parse_line_rejects_garbage() {
        assert!(ServeRequest::parse_line("model").is_err());
        assert!(ServeRequest::parse_line("model=transformer").is_err());
        assert!(ServeRequest::parse_line("backend=tpu").is_err());
        assert!(ServeRequest::parse_line("nonsense=1").is_err());
        assert!(ServeRequest::parse_line("scale=2.0").is_err());
        assert!(ServeRequest::parse_line("deadline_ms=0").is_err());
        assert!(ServeRequest::parse_line("deadline_ms=-5").is_err());
        assert!(ServeRequest::parse_line("fault_seed=x").is_err());
    }

    #[test]
    fn to_line_round_trips() {
        for line in [
            "model=gcn backend=hw",
            "model=sage comp=mp dataset=citeseer scale=0.05 backend=sim",
            "model=gat dataset=reddit scale=0.001 layers=3 hidden=8 seed=7 backend=sim:4",
            "model=gin comp=spmm dataset=cora opt=2 backend=hw",
            "model=gcn dataset=cora scale=0.05 shards=4 partitioner=edgecut backend=hw",
            "model=gcn dataset=cora deadline_ms=250.5 fault_seed=9 backend=hw",
            "model=sage dataset=pubmed scale=0.02 batch_size=32 fanout=10x5 backend=hw",
            "model=gcn dataset=cora scale=0.05 seed_node=17 fanout=5x5 backend=hw",
        ] {
            let r = ServeRequest::parse_line(line).expect("valid");
            let back = ServeRequest::parse_line(&r.to_line()).expect("round-trip parses");
            assert_eq!(r, back, "round-trip of {line:?}");
            // QoS keys are outside request identity — check them directly.
            assert_eq!(r.deadline_ms, back.deadline_ms, "round-trip of {line:?}");
            assert_eq!(r.fault_seed, back.fault_seed, "round-trip of {line:?}");
        }
    }

    #[test]
    fn equal_requests_hash_identically() {
        use std::collections::hash_map::DefaultHasher;
        let digest = |r: &ServeRequest| {
            let mut h = DefaultHasher::new();
            r.hash(&mut h);
            h.finish()
        };
        let line = "model=gcn dataset=cora scale=0.05 batch_size=32 fanout=10x5 backend=sim:8";
        let a = ServeRequest::parse_line(line).unwrap();
        let b = ServeRequest::parse_line(&format!("{line} deadline_ms=9")).unwrap();
        assert_eq!(a, b);
        assert_eq!(digest(&a), digest(&b), "QoS keys must not perturb the hash");
        let other = ServeRequest::parse_line("model=gin dataset=cora backend=hw").unwrap();
        assert_ne!(digest(&a), digest(&other));
    }

    #[test]
    fn qos_keys_do_not_fragment_request_identity() {
        let plain = ServeRequest::parse_line("model=gcn dataset=cora backend=hw").unwrap();
        let qos = ServeRequest::parse_line(
            "model=gcn dataset=cora backend=hw deadline_ms=10 fault_seed=3",
        )
        .unwrap();
        assert_eq!(plain, qos, "QoS keys must not split the cache key");
        assert_eq!(qos.deadline_ms, Some(10.0));
        assert_eq!(qos.fault_seed, Some(3));
    }

    #[test]
    fn empty_line_is_the_default_request() {
        let r = ServeRequest::parse_line("").expect("empty = defaults");
        assert_eq!(r.config.model, GnnModel::Gcn);
        assert_eq!(r.gpu, GpuSpec::HwV100);
    }
}
