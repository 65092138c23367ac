#!/usr/bin/env bash
# Runs the simulation-core scale benchmark and validates its report.
#
#   scripts/bench.sh [out.json]
#
# Builds the bench crate in release mode, runs the `scale` binary (full
# from-scratch solver baseline vs the incremental component solver, 1k+
# concurrent flows), writes the JSON report (default: BENCH_simnet.json at
# the repo root) and re-reads it with `scale --check` so a malformed
# report fails loudly. The check validates shape only — it is a smoke
# test, not a performance gate.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_simnet.json}"

cargo build --release -p datagrid-bench --bin scale
BIN="${CARGO_TARGET_DIR:-target}/release/scale"
"${BIN}" --out "${OUT}"
"${BIN}" --check "${OUT}"
