#!/usr/bin/env bash
# Builds the release binaries under test (`repro`, `pipedepth-serve`) and
# the benchmark harness from source, then runs the harness. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload repro-cold --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the harness prints its result record as the
# last line of stdout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet \
    -p pipedepth-experiments --bin repro \
    -p pipedepth-serve --bin pipedepth-serve 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
