#!/usr/bin/env bash
# Builds the oolong CLI (the daemon serve_mix starts) and the benchmark
# from source, then runs the benchmark with the given arguments. Run it
# from the repository root, for example:
#
#   bash oolong_bench/run.sh --workload paper_cold --seed 1 --seconds 20 --trace 0
#   bash oolong_bench/run.sh run --seed 1 --trace
#
# Both binaries land in the same release directory, where the benchmark
# looks for `oolong`.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p oolong-cli >&2
cargo build --release --offline --quiet --manifest-path oolong_bench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/oolong_bench" "$@"
