#!/usr/bin/env bash
# Builds `gsuite-cli` and the benchmark harness from source (release,
# offline), then runs the harness against the freshly built server.
#
#   bash examples/benchmark/run.sh --workload repeat --seed 1 --seconds 20 --trace 0
#   bash examples/benchmark/run.sh --runs 5 --out target/benchmark/a.json
#
# Run from the repository root. Build output goes to stderr, so the last
# stdout line of a single run is its JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin gsuite-cli >&2
cargo build --release --offline --quiet --manifest-path examples/benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" --server "$CARGO_TARGET_DIR/release/gsuite-cli" "$@"
