# Development shortcuts. `just check` is the pre-commit gate.

# Format check + lints + doc links + tests, exactly as CI would run them.
check:
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
    cargo test -q
    cargo build --release --offline --locked --manifest-path pipebench/Cargo.toml
    cargo test --release --offline --locked --manifest-path pipebench/Cargo.toml

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
    CRITERION_JSON=BENCH_cure_scaling.json cargo bench -p dbs-bench --bench cure_scaling

# Regenerate the CI-sized versions of every paper figure/table.
experiments:
    cargo run --release -p dbs-experiments -- all

# Run the instrumented pipeline and emit a sample metrics JSON
# (deterministic counters + machine-dependent stage timings).
metrics:
    cargo run --release -p dbs-experiments -- metrics --metrics-out metrics_sample.json

# Partitioned / sample-fed CURE vs the single-phase quadratic loop at
# 50k/250k/1M points, recorded as BENCH_cure_partitioned.json (includes
# the 50k full baseline so the speedup is self-contained).
bench-cure-part:
    CRITERION_JSON=BENCH_cure_partitioned.json cargo bench -p dbs-bench --bench cure_partitioned

# Averaged-grid estimator A/B: fit + batch query vs KDE and hashed grid
# at d in {2,3,5}, 100k and 1M points. The recorded BENCH_agrid.json
# carries the d=5/100k agrid-vs-KDE query comparison (>=5x target).
bench-agrid:
    CRITERION_JSON=BENCH_agrid.json cargo bench -p dbs-bench --bench agrid

# High-dimension CURE merge-loop curve: tight 16-d (and 12-d) diagonal
# blobs, wall clock + merge-loop counters per size, plus the d=16/n=2000
# bit-parity proof against the reference loop. The recorded
# BENCH_cure_highdim.json holds the pre-candidate-cache cliff curve
# (CURE_HIGHDIM_PHASE=before, budget-capped) and the post-fix curve side
# by side; CURE_HIGHDIM_SMOKE=1 runs only the CI regression gate.
bench-cure-highdim:
    CRITERION_JSON=BENCH_cure_highdim.json cargo bench -p dbs-bench --bench cure_highdim

# Out-of-core proof: a 10M-point (16-d) sample-fed clustering run over
# read-backend shards with peak RSS measured against the raw dataset size
# (< 25% target), plus sharded-vs-in-memory wall times and the
# FileSource::scan A/B. Takes a few minutes on one core; drop
# SHARD_SCAN_FULL=1 for a 1M-point smoke version.
bench-shard:
    SHARD_SCAN_FULL=1 CRITERION_JSON=BENCH_shard_scan.json cargo bench -p dbs-bench --bench shard_scan

# Streaming sketch service: one-pass fit throughput and merge cost for the
# Count-Min density sketch, plus the >=1M-point bounded-memory proof that
# a biased sample drawn off the sketch matches the exact dense grid
# (allocation TV <= 0.05, size within 10%, normalizer within 25%),
# recorded as BENCH_stream_sketch.json.
bench-stream:
    CRITERION_JSON=BENCH_stream_sketch.json cargo bench -p dbs-bench --bench stream_sketch
