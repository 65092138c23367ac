#!/usr/bin/env bash
# The whole CI gate, runnable locally. Operates on the workspace's default
# members plus an explicit `crates/bench` build (bench is excluded from the
# default members so plain `cargo test` stays fast).
#
# Each step runs through `step`, which echoes its wall-clock time so slow
# stages are visible at a glance both locally and in the Actions log.
# Run a single step with e.g. `scripts/ci.sh test`; the Actions `analysis`
# job runs `scripts/ci.sh lint clippy validate`.
set -euo pipefail
cd "$(dirname "$0")/.."

step() {
  local name="$1"
  shift
  echo "==> ${name}: $*"
  local t0
  t0=$(date +%s)
  "$@"
  echo "==> ${name} OK ($(($(date +%s) - t0)) s)"
}

step_build() { step build cargo build --release; }
step_bench_build() { step bench-build cargo build -p datagrid-bench; }
step_test() { step test cargo test -q; }
step_fmt() { step fmt cargo fmt --check; }
step_clippy() { step clippy cargo clippy --all-targets -- -D warnings; }
# Token-level static analysis of what the compiler cannot check: panics
# and unwraps outside audited invariants, wall clocks in simulation
# crates, hash containers feeding exports, float `==`, wildcard arms on
# model-checked enums, console output from libraries and a missing
# `#![forbid(unsafe_code)]`. Any finding that neither an inline
# `// lint: allow` nor lint-allow.txt covers fails, and so does a stale
# allow at either layer. Hot-path allocation is gated by the
# counting-allocator tests in `test`, truncating casts by `clippy`.
step_lint() { step lint cargo run -q -p datagrid-lint -- --deny; }
# Max-min certificate enforcement in release mode: the `validate` feature
# keeps the solver's per-settle certificate check on where
# debug_assertions would normally turn it off, then re-runs the simnet
# suite (including the certificate property tests) against it.
step_validate() { step validate cargo test -q --release -p datagrid-simnet --features validate; }
# Smoke, not a perf gate: the scale benchmark must run and emit a report
# whose key throughput fields parse (scripts/bench.sh re-reads it with
# `scale --check`).
step_bench_smoke() { step bench-smoke scripts/bench.sh target/BENCH_simnet.json; }
# Grid-workload smoke: the grid_scale benchmark must emit a valid report
# within ci/grid_budget.json whose cells equal the committed
# BENCH_grid.json, the determinism property tests must hold, and the
# prof-timing build must stay green (scripts/grid_smoke.sh).
step_grid_smoke() { step grid-smoke scripts/grid_smoke.sh target/BENCH_grid.json; }
# Differential fuzz smoke: a fixed-seed corpus of random scenarios must
# agree across paired engine configurations, and the harness must catch
# its own sabotage (scripts/fuzz_smoke.sh).
step_fuzz_smoke() { step fuzz-smoke scripts/fuzz_smoke.sh; }
# Replay benchmark tests: perfbench is a workspace of its own that builds
# against the repository's crates by path, so this is where a change to
# their public API breaks it. The tests also pin that every workload's
# fetch digest is reproducible from its seed.
step_perfbench() {
  CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/perfbench}" \
    step perfbench cargo test --release --offline --manifest-path perfbench/Cargo.toml
}
# Simulated-result gate: each perfbench workload, replayed once per
# instance at the default seed, must print exactly the `run:` line (run and
# per-instance fetch digests) pinned in ci/perfbench_digests.txt. A change
# that claims only speed so proves it moved no simulated result.
check_perfbench_digests() {
  local out="${CARGO_TARGET_DIR}/perfbench-digests"
  mkdir -p "$out"
  cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
  : >"$out/run_lines.txt"
  local w
  for w in $(sed -n 's/^run: {"workload": "\([^"]*\)".*/\1/p' ci/perfbench_digests.txt); do
    "${CARGO_TARGET_DIR}/release/datagrid-perfbench" --workload "$w" --seconds 0 --trace 0 \
      --out "$out" | grep '^run: ' >>"$out/run_lines.txt"
  done
  if ! diff <(grep '^run: ' ci/perfbench_digests.txt) "$out/run_lines.txt"; then
    echo "perfbench digests differ from ci/perfbench_digests.txt (< pinned, > this tree)" >&2
    return 1
  fi
}
step_perfbench_digests() {
  CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/perfbench}" \
    step perfbench-digests check_perfbench_digests
}

if [ $# -gt 0 ]; then
  for sel in "$@"; do
    "step_${sel//-/_}"
  done
else
  step_build
  step_bench_build
  step_test
  step_fmt
  step_clippy
  step_lint
  step_bench_smoke
  step_grid_smoke
  step_fuzz_smoke
  step_perfbench
  step_perfbench_digests
fi

echo "==> ci OK"
