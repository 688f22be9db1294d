#!/usr/bin/env bash
# Builds clr-served and the benchmark from source, then runs one
# benchmark pass. Run from the root of a checkout:
#
#   bash servebench/run.sh --workload fleet_small --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last stdout line is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p clr-serve --bin clr-served >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$target/release/servebench" --served "$target/release/clr-served" "$@"
