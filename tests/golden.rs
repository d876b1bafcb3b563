//! Golden-profile regression tests: every scenario in the registry runs at
//! a fixed small mode ([`BenchOpts::golden`]: quick scales, 32-CTA
//! sampling cap) and its rendered report is diffed byte-for-byte against a
//! committed snapshot under `tests/golden/`.
//!
//! These snapshots are what locks the reproduction's numbers — Fig. 3–9,
//! Table II/IV and the beyond-paper scenarios — against silent drift: any
//! change to the kernels, trace generation, cache models, simulator,
//! profilers, graph generators or report formatting that moves a single
//! digit fails here.
//!
//! The same lock covers the serving layer's sim-clock numbers: five
//! `gsuite-cli loadgen --metrics --json` reports over the `serve-mix`
//! stream (closed loop, open loop with shedding, warm templates, chaos,
//! open loop with batching) are snapshotted as `loadgen-*.json`. The
//! discrete-event model has no run-to-run noise, so the check is exact.
//!
//! Regenerating after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! git diff tests/golden/   # review every number that moved
//! ```

use std::fs;
use std::path::PathBuf;

use gsuite::scenarios::{registry, BenchOpts};
use gsuite::serve::fault::{BreakerConfig, FaultPlan, ResilienceConfig, RetryPolicy};
use gsuite::serve::sim::BatchPolicy;
use gsuite::serve::{run_loadgen_traced, ArrivalMode, LoadReport, LoadSpec};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn update_mode() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Runs one registry scenario in golden mode and checks (or regenerates)
/// its snapshot.
fn check_scenario(name: &str) {
    let scenario = registry::find(name).unwrap_or_else(|| panic!("{name} not in registry"));
    let opts = BenchOpts::golden();
    let (_result, report) = scenario.run(&opts);
    check_golden(&format!("{name}.txt"), &report.render(&opts));
}

/// Checks `rendered` against the snapshot `tests/golden/<file>` (or
/// regenerates it under `UPDATE_GOLDEN=1`).
fn check_golden(file: &str, rendered: &str) {
    let path = golden_dir().join(file);

    if update_mode() {
        fs::create_dir_all(golden_dir()).expect("create tests/golden");
        fs::write(&path, rendered).expect("write golden file");
        eprintln!("updated {}", path.display());
        return;
    }

    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate with UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        )
    });
    if rendered != expected {
        let diff_at = expected
            .lines()
            .zip(rendered.lines())
            .position(|(a, b)| a != b);
        let context = match diff_at {
            Some(i) => format!(
                "first difference at line {}:\n  golden: {:?}\n  actual: {:?}",
                i + 1,
                expected.lines().nth(i).unwrap_or(""),
                rendered.lines().nth(i).unwrap_or("")
            ),
            None => format!(
                "line counts differ (golden {} vs actual {})",
                expected.lines().count(),
                rendered.lines().count()
            ),
        };
        panic!(
            "golden mismatch for {file} ({}).\n{context}\n\
             If the change is intentional, regenerate with:\n  \
             UPDATE_GOLDEN=1 cargo test --test golden\nand review the diff.",
            path.display()
        );
    }
}

#[test]
fn golden_covers_every_registry_scenario() {
    // A snapshot test per scenario exists below; this guard fails when a
    // new registry entry is added without golden coverage.
    let tested = [
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "table2",
        "table4",
        "xmodels",
        "gpusweep",
        "serve-mix",
        "planopt",
        "multigpu",
        "minibatch",
        "hetero",
        "chaos",
        "servebatch",
        "ablations",
    ];
    let registered: Vec<&str> = registry::all().iter().map(|s| s.name).collect();
    assert_eq!(
        registered, tested,
        "registry and golden suite out of sync — add a golden_<name> test and snapshot"
    );
}

macro_rules! golden_test {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                check_scenario(&stringify!($name)["golden_".len()..]);
            }
        )*
    };
}

golden_test!(
    golden_fig3,
    golden_fig4,
    golden_fig5,
    golden_fig6,
    golden_fig7,
    golden_fig8,
    golden_fig9,
    golden_table2,
    golden_table4,
    golden_xmodels,
    golden_gpusweep,
    golden_planopt,
    golden_multigpu,
    golden_minibatch,
    golden_hetero,
    golden_chaos,
    golden_servebatch,
    golden_ablations,
);

// Hyphenated registry names don't fit the identifier-derived macro above.
#[test]
fn golden_serve_mix() {
    check_scenario("serve-mix");
}

/// The `serve-mix` stream every loadgen golden replays: seed 42, 256
/// requests, quick scales, sim clock.
fn loadgen_spec(arrival: ArrivalMode) -> LoadSpec {
    LoadSpec {
        requests: 256,
        arrival,
        ..LoadSpec::default()
    }
}

fn closed_spec() -> LoadSpec {
    loadgen_spec(ArrivalMode::Closed { clients: 8 })
}

fn open_spec() -> LoadSpec {
    LoadSpec {
        workers: 2,
        queue_cap: 8,
        slo_ms: Some(250.0),
        ..loadgen_spec(ArrivalMode::Open { rate_rps: 200.0 })
    }
}

/// Runs one sim-clock loadgen traced, as `gsuite-cli loadgen --metrics`
/// does (the traced path fills the report's `phases` block), and checks
/// its `--json` report against `tests/golden/loadgen-<name>.json`.
fn check_loadgen(name: &str, spec: &LoadSpec) -> LoadReport {
    let (report, _trace) = run_loadgen_traced(spec).expect("loadgen run");
    check_golden(&format!("loadgen-{name}.json"), &report.to_json());
    report
}

/// One phase's total milliseconds in a traced report.
fn phase_ms(report: &LoadReport, phase: &str) -> f64 {
    report
        .phases
        .iter()
        .find(|(name, _)| name == phase)
        .unwrap_or_else(|| panic!("no {phase} phase"))
        .1
}

#[test]
fn golden_loadgen_closed() {
    check_loadgen("closed", &closed_spec());
}

#[test]
fn golden_loadgen_open() {
    check_loadgen("open", &open_spec());
}

/// A 4 MiB cache keeps evicting pipelines, so rebuilds take the
/// plan-template instantiate path. Once every compile shape in the mix
/// has been seen, more traffic adds no lower/optimize/decorate time:
/// the first 128 requests pay the same full-compile total as all 256,
/// while instantiate time and template hits keep growing.
#[test]
fn golden_loadgen_warm() {
    let spec = LoadSpec {
        cache_bytes: 4 << 20,
        ..closed_spec()
    };
    let full = check_loadgen("warm", &spec);
    let (half, _trace) = run_loadgen_traced(&LoadSpec {
        requests: 128,
        ..spec
    })
    .expect("loadgen run");
    for phase in ["compile.lower", "compile.optimize", "compile.decorate"] {
        assert_eq!(phase_ms(&half, phase), phase_ms(&full, phase), "{phase}");
    }
    let instantiate = phase_ms(&half, "compile.instantiate");
    assert!(instantiate > 0.0);
    assert!(phase_ms(&full, "compile.instantiate") > instantiate);
    assert!(full.counters.tpl_hits > half.counters.tpl_hits && half.counters.tpl_hits > 0);
}

#[test]
fn golden_loadgen_chaos() {
    let spec = LoadSpec {
        fault: Some(FaultPlan::mixed(7, 0.25)),
        resilience: ResilienceConfig {
            deadline_ms: Some(900.0),
            retry: RetryPolicy::retries(2),
            breaker: Some(BreakerConfig::default()),
            ..ResilienceConfig::default()
        },
        ..closed_spec()
    };
    check_loadgen("chaos", &spec);
}

#[test]
fn golden_loadgen_open_batched() {
    let spec = LoadSpec {
        batch: Some(BatchPolicy {
            max_batch: 8,
            max_queue_delay_ms: 5.0,
            ..BatchPolicy::default()
        }),
        ..open_spec()
    };
    check_loadgen("open-batched", &spec);
}
