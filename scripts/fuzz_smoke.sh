#!/usr/bin/env bash
# Runs the differential fuzz smoke: a fixed-seed corpus of random
# scenarios through the paired engine configurations, plus the harness's
# own self-test and determinism suite.
#
#   scripts/fuzz_smoke.sh [count]
#
# Builds the bench crate in release mode and runs the `fuzz` binary three
# ways:
#
#   1. the corpus with `--deny-divergence` — every scenario's pairs
#      (batching on/off, validation on/off, incremental vs full solver,
#      static vs contention-aware selection) must agree under their
#      oracles,
#   2. a smaller corpus with `--break-oracle` — the harness sabotages its
#      own baseline and must catch, shrink and report the divergence
#      (a tester that cannot fail gates nothing),
#   3. the fuzz determinism property tests — same seed ⇒ byte-identical
#      worlds, divergence reports and shrunk reproducers.
#
# Fixed seed, so the whole run is reproducible; any divergence prints a
# `fuzz --replay <code>` token that re-runs the scenario byte-identically.
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${1:-200}"
SEED="${DATAGRID_FUZZ_SEED:-20050905}"

cargo build --release -p datagrid-bench --bin fuzz
BIN="${CARGO_TARGET_DIR:-target}/release/fuzz"

"${BIN}" --count "${COUNT}" --seed "${SEED}" --deny-divergence

"${BIN}" --count 25 --seed "${SEED}" --break-oracle

cargo test --release -p datagrid-testbed --test fuzz_determinism
