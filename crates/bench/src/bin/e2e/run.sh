#!/usr/bin/env bash
# Builds the `serve` and `e2e` binaries of vlsa-bench, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash crates/bench/src/bin/e2e/run.sh --workload bulk-uniform --seed 1 --seconds 15
#
# Build output goes to stderr, so the benchmark's last stdout line is
# its JSON result. CARGO_TARGET_DIR defaults to ./target.
set -euo pipefail

cargo build --release --quiet -p vlsa-bench --bin serve --bin e2e 1>&2
exec "${CARGO_TARGET_DIR:-target}/release/e2e" "$@"
