# Development shortcuts. `just check` is the pre-commit gate.

# Format check + lints + doc links + tests, exactly as CI would run them.
check:
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
    cargo test -q
    cargo build --release --offline --locked --manifest-path pipebench/Cargo.toml
    cargo test --release --offline --locked --manifest-path pipebench/Cargo.toml
    cargo test --release --offline -q --workspace --lib --tests

# Apply formatting in place.
fmt:
    cargo fmt

# Full test suite with output.
test:
    cargo test --workspace

# Release build of every binary and bench.
build:
    cargo build --release --workspace --benches

# Run every benchmark; set CRITERION_JSON=<file> to capture JSON lines.
bench:
    cargo bench --workspace

# CURE merge-loop scaling: accelerated core vs retained reference loop.
# CURE_SCALING_FULL_REF=1 also runs the (slow) reference at 50k, as done
# for the recorded BENCH_cure_scaling.json.
bench-cure:
    rm -f BENCH_cure_scaling.json
    CRITERION_JSON={{justfile_directory()}}/BENCH_cure_scaling.json cargo bench -p dbs-bench --bench cure_scaling

# Tracked `.rs` lines outside pipebench/, the net line count every
# CHANGES.md entry reports.
loc:
    git ls-files '*.rs' ':!pipebench' | xargs wc -l | tail -1

# Single-thread batch KDE engine vs per-point evaluation at d in {2,3,5},
# 100k and 1M points, recorded as BENCH_kde_batch.json (JSON lines).
bench-kde:
    rm -f BENCH_kde_batch.json
    CRITERION_JSON={{justfile_directory()}}/BENCH_kde_batch.json cargo bench -p dbs-bench --bench kde_batch

# Regenerate the CI-sized versions of every paper figure/table.
experiments:
    cargo run --release -p dbs-experiments -- all

# Compare two pipebench results files (the JSON lines `pipeline --out FILE`
# appends, e.g. one from the parent commit and one from a change) against
# the end-to-end bounds in BENCHMARK.json. Exits 1 on a regression or a
# counter difference.
bench-diff OLD NEW:
    cargo run --release --offline --quiet --manifest-path pipebench/Cargo.toml --bin bench-diff -- {{OLD}} {{NEW}} --bench BENCHMARK.json

# Alternating parent/change timings of one pipebench workload: PAIRS
# rounds of one `pipeline` run with PARENT_DBS (a `dbs` built from the
# parent commit) and one with this checkout's `dbs` (workload seed SEED,
# default 42, `--seconds 4 --trace 0`; the side that runs first
# alternates), appended to .bench_pairs/old.jsonl and new.jsonl, then
# compared by `bench-diff` (exit 1 on a regression or a counter change).
# Builds what `pipebench/run.sh` builds first.
bench-pairs PARENT_DBS WORKLOAD PAIRS SEED="42":
    #!/usr/bin/env bash
    set -euo pipefail
    target="${CARGO_TARGET_DIR:-.bench_build}"
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet -p dbs-cli
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet --manifest-path pipebench/Cargo.toml --bin pipeline --bin bench-diff
    mkdir -p .bench_pairs
    rm -f .bench_pairs/old.jsonl .bench_pairs/new.jsonl
    run() { "$target/release/pipeline" --dbs "$1" --workload {{WORKLOAD}} --seed {{SEED}} --seconds 4 --trace 0 --out "$2"; }
    for i in $(seq {{PAIRS}}); do
        if (( i % 2 )); then
            run {{PARENT_DBS}} .bench_pairs/old.jsonl
            run "$target/release/dbs" .bench_pairs/new.jsonl
        else
            run "$target/release/dbs" .bench_pairs/new.jsonl
            run {{PARENT_DBS}} .bench_pairs/old.jsonl
        fi
    done
    "$target/release/bench-diff" .bench_pairs/old.jsonl .bench_pairs/new.jsonl --bench BENCHMARK.json

# Partitioned / sample-fed CURE vs the single-phase quadratic loop at
# 50k/250k/1M points, recorded as BENCH_cure_partitioned.json (includes
# the 50k full baseline so the speedup is self-contained).
bench-cure-part:
    rm -f BENCH_cure_partitioned.json
    CRITERION_JSON={{justfile_directory()}}/BENCH_cure_partitioned.json cargo bench -p dbs-bench --bench cure_partitioned

# Averaged-grid estimator A/B: fit + batch query vs KDE and hashed grid
# at d in {2,3,5}, 100k and 1M points. The recorded BENCH_agrid.json
# carries the d=5/100k agrid-vs-KDE query comparison (>=5x target).
bench-agrid:
    rm -f BENCH_agrid.json
    CRITERION_JSON={{justfile_directory()}}/BENCH_agrid.json cargo bench -p dbs-bench --bench agrid

# High-dimension CURE merge-loop curve: tight 16-d (and 12-d) diagonal
# blobs, wall clock + merge-loop counters per size, plus the d=16/n=2000
# bit-parity proof against the reference loop. The recorded
# BENCH_cure_highdim.json holds the pre-candidate-cache cliff curve
# (CURE_HIGHDIM_PHASE=before, budget-capped) and the post-fix curve side
# by side; CURE_HIGHDIM_SMOKE=1 runs only the CI regression gate.
bench-cure-highdim:
    CRITERION_JSON={{justfile_directory()}}/BENCH_cure_highdim.json cargo bench -p dbs-bench --bench cure_highdim

# Out-of-core proof: a 10M-point (16-d) sample-fed clustering run over
# read-backend shards with peak RSS measured against the raw dataset size
# (< 25% target), plus sharded-vs-in-memory wall times and the
# FileSource::scan A/B. Takes a few minutes on one core; drop
# SHARD_SCAN_FULL=1 for a 1M-point smoke version.
bench-shard:
    rm -f BENCH_shard_scan.json
    SHARD_SCAN_FULL=1 CRITERION_JSON={{justfile_directory()}}/BENCH_shard_scan.json cargo bench -p dbs-bench --bench shard_scan

# Streaming sketch service: one-pass fit throughput and merge cost for the
# Count-Min density sketch, plus the >=1M-point bounded-memory proof that
# a biased sample drawn off the sketch matches the exact dense grid
# (allocation TV <= 0.05, size within 10%, normalizer within 25%),
# recorded as BENCH_stream_sketch.json.
bench-stream:
    rm -f BENCH_stream_sketch.json
    CRITERION_JSON={{justfile_directory()}}/BENCH_stream_sketch.json cargo bench -p dbs-bench --bench stream_sketch
