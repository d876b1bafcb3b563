//! The four workloads and their seeded request streams.
//!
//! Every stream is a pure function of `(workload, seed)`: request `k` of
//! the timed window is the same line on every run with that seed, no
//! matter which client connection ends up sending it.

use gsuite_core::config::{CompModel, FrameworkKind, GnnModel, RunConfig};
use gsuite_graph::datasets::Dataset;
use gsuite_scenarios::{gsuite_pairs, registry, sweep_config, BenchOpts, GpuSpec};
use gsuite_serve::ServeRequest;

/// One traffic mix the benchmark drives `gsuite-cli serve` with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Seeded draws from the 15 buildable `serve-mix` configurations at
    /// quick scales: every window request hits the pipeline cache.
    Repeat,
    /// Distinct sampled ego-nets on full-scale Cora: every request
    /// misses both caches and evicts a ~15.6 MB entry.
    Unique,
    /// The `repeat` configurations at the paper's scales: Citeseer and
    /// PubMed entries exceed an LRU shard and take the template path.
    Paper,
    /// The 15 gSuite-MP configurations on the cycle simulator.
    Simulate,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Repeat,
        Workload::Unique,
        Workload::Paper,
        Workload::Simulate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Repeat => "repeat",
            Workload::Unique => "unique",
            Workload::Paper => "paper",
            Workload::Simulate => "simulate",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many window requests the traced replay re-executes in-process.
    pub fn replay_len(self) -> usize {
        match self {
            Workload::Repeat | Workload::Unique => 300,
            Workload::Paper | Workload::Simulate => 60,
        }
    }
}

/// Models, hidden widths and seed nodes the `unique` key space spans.
const UNIQUE_MODELS: [GnnModel; 3] = GnnModel::ALL;
const UNIQUE_HIDDEN: [usize; 2] = [16, 32];
/// `unique` set-up requests: enough 15.6 MB entries to fill the server's
/// 256 MiB pipeline cache (8 shards of 32 MiB hold two entries each), so
/// the timed window starts in the evicting steady state.
const UNIQUE_SETUP: usize = 16;

/// A seeded request stream: set-up lines, then the timed window's lines.
pub struct Stream {
    setup: Vec<String>,
    window: Window,
}

enum Window {
    /// Request `k` is a seeded draw without replacement from a deck of
    /// these lines, reshuffled every `lines.len()` requests: a window of
    /// whole decks carries each configuration equally often, so a
    /// different seed changes the order, not the mix.
    Draw { lines: Vec<String>, seed: u64 },
    /// Request `k` is key `keys[UNIQUE_SETUP + k]` of a seeded
    /// permutation of the `unique` key space.
    Unique { keys: Vec<u32> },
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let draw = |lines: Vec<String>| Stream {
            setup: lines.clone(),
            window: Window::Draw { lines, seed },
        };
        match workload {
            Workload::Repeat => draw(serve_mix_lines(None)),
            Workload::Paper => draw(serve_mix_lines(Some(1.0))),
            Workload::Simulate => draw(simulate_lines()),
            Workload::Unique => {
                let keys = permutation(unique_key_count(), seed);
                Stream {
                    setup: keys[..UNIQUE_SETUP]
                        .iter()
                        .map(|&k| unique_line(k))
                        .collect(),
                    window: Window::Unique { keys },
                }
            }
        }
    }

    /// The lines sent once, before the timed window, to warm the server.
    pub fn setup_lines(&self) -> &[String] {
        &self.setup
    }

    /// Requests per reshuffled deck; 1 for `unique`, which has no deck.
    pub fn deck_len(&self) -> usize {
        match &self.window {
            Window::Draw { lines, .. } => lines.len(),
            Window::Unique { .. } => 1,
        }
    }

    /// Request `k` of the timed window, or `None` once a finite stream
    /// (`unique`, which never repeats a key) is exhausted.
    pub fn window_line(&self, k: usize) -> Option<String> {
        match &self.window {
            Window::Draw { lines, seed } => {
                let n = lines.len();
                let deck = permutation(n, splitmix64(splitmix64(*seed) ^ (k / n) as u64));
                Some(lines[deck[k % n] as usize].clone())
            }
            Window::Unique { keys } => keys.get(UNIQUE_SETUP + k).map(|&key| unique_line(key)),
        }
    }
}

/// The buildable `serve-mix` cells (quick scales, V100 analytical model),
/// optionally forced to one dataset scale.
fn serve_mix_lines(scale: Option<f64>) -> Vec<String> {
    let pairs = gsuite_pairs();
    registry::find("serve-mix")
        .expect("serve-mix is a registry scenario")
        .spec()
        .expand(&BenchOpts::quick())
        .into_iter()
        .filter(|cell| pairs.contains(&(cell.config.model, cell.config.comp)))
        .map(|cell| {
            let mut request = ServeRequest::from_cell(&cell);
            if let Some(scale) = scale {
                request.config.scale = scale;
            }
            request.to_line()
        })
        .collect()
}

/// gSuite-MP {GCN, GIN, SAGE} × the five Table IV datasets, quick scales,
/// on the cycle simulator.
fn simulate_lines() -> Vec<String> {
    let opts = BenchOpts::quick();
    let mut lines = Vec::new();
    for model in GnnModel::ALL {
        for dataset in Dataset::ALL {
            let config = sweep_config(&opts, FrameworkKind::GSuite, model, CompModel::Mp, dataset);
            lines.push(ServeRequest::new(config, GpuSpec::SimAuto).to_line());
        }
    }
    lines
}

fn unique_key_count() -> usize {
    UNIQUE_MODELS.len() * UNIQUE_HIDDEN.len() * Dataset::Cora.spec().nodes
}

/// The request line of `unique` key `key`: (model, hidden, seed node).
fn unique_line(key: u32) -> String {
    let nodes = Dataset::Cora.spec().nodes;
    let key = key as usize;
    let config = RunConfig {
        model: UNIQUE_MODELS[key / (nodes * UNIQUE_HIDDEN.len())],
        dataset: Dataset::Cora,
        scale: 1.0,
        hidden: UNIQUE_HIDDEN[(key / nodes) % UNIQUE_HIDDEN.len()],
        functional_math: false,
        fanout: vec![10, 5],
        seed_node: Some((key % nodes) as u32),
        ..RunConfig::default()
    };
    ServeRequest::new(config, GpuSpec::HwV100).to_line()
}

/// The SplitMix64 step: advances `x` by the golden gamma and mixes it.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut keys: Vec<u32> = (0..n as u32).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix64(state);
        keys.swap(i, (state % (i as u64 + 1)) as usize);
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn window(workload: Workload, seed: u64, n: usize) -> Vec<String> {
        let stream = Stream::new(workload, seed);
        (0..n)
            .map(|k| stream.window_line(k).expect("stream has room"))
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_request_lines() {
        for workload in Workload::ALL {
            assert_eq!(window(workload, 7, 200), window(workload, 7, 200));
            assert_ne!(window(workload, 7, 200), window(workload, 8, 200));
            assert_eq!(
                Stream::new(workload, 7).setup_lines(),
                Stream::new(workload, 7).setup_lines()
            );
        }
    }

    #[test]
    fn every_line_parses_as_a_request() {
        for workload in Workload::ALL {
            let stream = Stream::new(workload, 1);
            for line in stream.setup_lines().iter().chain(&window(workload, 1, 50)) {
                ServeRequest::parse_line(line).expect("benchmark lines are valid requests");
            }
        }
    }

    #[test]
    fn config_universes_have_fifteen_buildable_entries() {
        for workload in [Workload::Repeat, Workload::Paper, Workload::Simulate] {
            let setup = Stream::new(workload, 3).setup_lines().to_vec();
            assert_eq!(setup.len(), 15, "{}", workload.name());
            assert_eq!(setup.iter().collect::<HashSet<_>>().len(), 15);
        }
        assert!(Stream::new(Workload::Paper, 3)
            .setup_lines()
            .iter()
            .all(|l| l.contains(" scale=1 ")));
        assert!(Stream::new(Workload::Simulate, 3)
            .setup_lines()
            .iter()
            .all(|l| l.ends_with("backend=sim")));
    }

    #[test]
    fn draws_keep_every_configuration_in_proportion() {
        let stream = Stream::new(Workload::Repeat, 9);
        assert_eq!(stream.deck_len(), 15);
        assert_eq!(Stream::new(Workload::Unique, 9).deck_len(), 1);
        let lines = window(Workload::Repeat, 9, 15 * 20 + 7);
        for config in stream.setup_lines() {
            let whole = lines[..15 * 20].iter().filter(|l| *l == config).count();
            assert_eq!(whole, 20, "{config} drawn {whole} times in whole decks");
            let n = lines.iter().filter(|l| *l == config).count();
            assert!(n == 20 || n == 21, "{config} drawn {n} times");
        }
    }

    #[test]
    fn unique_never_repeats_a_key() {
        let stream = Stream::new(Workload::Unique, 11);
        let total = unique_key_count();
        let mut seen: HashSet<String> = stream.setup_lines().iter().cloned().collect();
        let mut k = 0;
        while let Some(line) = stream.window_line(k) {
            assert!(seen.insert(line), "request {k} repeats a key");
            k += 1;
        }
        assert_eq!(
            seen.len(),
            total,
            "the stream covers the key space, then ends"
        );
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut p = permutation(1000, 5);
        assert_ne!(p, (0..1000).collect::<Vec<u32>>());
        p.sort_unstable();
        assert_eq!(p, (0..1000).collect::<Vec<u32>>());
    }
}
