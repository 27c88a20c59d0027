#!/usr/bin/env bash
# Builds the `dbs` CLI and the benchmark from source, then runs one
# benchmark workload:
#
#   bash pipebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); inputs and outputs live under .bench_work/ and
# are removed when the run ends.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p dbs-cli >&2
cargo build --release --offline --quiet --manifest-path pipebench/Cargo.toml --bin pipeline >&2
exec "$CARGO_TARGET_DIR/release/pipeline" --dbs "$CARGO_TARGET_DIR/release/dbs" "$@"
