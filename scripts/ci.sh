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

# Paper-output gate: the paper binaries listed in experiments_output.txt
# (`===== <bin> =====` headers), run at their default seeds in file order
# without observability dumps, must print exactly that file. A change that
# claims to leave the reproduced figures and tables alone so proves it.
check_paper_outputs() {
  cargo build --release --quiet -p datagrid-bench
  local bin="${CARGO_TARGET_DIR:-target}/release"
  local out="${CARGO_TARGET_DIR:-target}/paper-outputs.txt"
  local b
  : >"$out"
  for b in $(sed -n 's/^===== \(.*\) =====$/\1/p' experiments_output.txt); do
    echo "===== ${b} =====" >>"$out"
    env -u DATAGRID_OBS_DIR "${bin}/${b}" >>"$out"
  done
  if ! diff experiments_output.txt "$out"; then
    echo "paper outputs differ from experiments_output.txt (< pinned, > this tree)" >&2
    return 1
  fi
}
step_paper_outputs() { step paper-outputs check_paper_outputs; }

# Examples gate: every example under examples/, built in release and run
# without observability dumps in file-name order, must print exactly
# ci/examples_output.txt (`===== <example> =====` headers). Every example
# is seeded, so its stdout is a pure function of the code; a change that
# rewrites an example's plumbing so proves it prints the same tour.
check_examples() {
  cargo build --release --quiet --examples
  local bin="${CARGO_TARGET_DIR:-target}/release/examples"
  local out="${CARGO_TARGET_DIR:-target}/examples-output.txt"
  local f e
  : >"$out"
  for f in examples/*.rs; do
    e=$(basename "$f" .rs)
    echo "===== ${e} =====" >>"$out"
    env -u DATAGRID_OBS_DIR "${bin}/${e}" >>"$out"
  done
  if ! diff ci/examples_output.txt "$out"; then
    echo "example outputs differ from ci/examples_output.txt (< pinned, > this tree)" >&2
    return 1
  fi
}
step_examples() { step examples check_examples; }

# Observability-dump gate: the paper binaries of experiments_output.txt plus
# table1_fault, run at their default seeds in file order with
# DATAGRID_OBS_DIR set, must write dump files (metrics, event JSONL,
# selection audit) whose sha256 digests equal ci/obs_digests.txt. Every dump
# is a pure function of the seed, so a change that claims to move no
# simulated result proves it for the recorded events and counters too.
# None of those binaries makes more than 1,024 decisions, so one grid_scale
# cell (2,048 clients, contention-aware) runs too: its dumps come out of an
# audit log and an event log that have both wrapped, which pins the
# eviction path. Its report goes to the gate's own directory, not to
# BENCH_grid.json.
check_obs_digests() {
  cargo build --release --quiet -p datagrid-bench
  local bin="${CARGO_TARGET_DIR:-target}/release"
  local out="${CARGO_TARGET_DIR:-target}/obs-digests"
  rm -rf "$out"
  mkdir -p "$out/dumps"
  local b
  for b in $(sed -n 's/^===== \(.*\) =====$/\1/p' experiments_output.txt) table1_fault; do
    DATAGRID_OBS_DIR="$out/dumps" "${bin}/${b}" >/dev/null
  done
  DATAGRID_OBS_DIR="$out/dumps" DATAGRID_GRID_CLIENTS=2048 DATAGRID_GRID_MODES=contention \
    "${bin}/grid_scale" --out "$out/grid_scale.json" >/dev/null
  (cd "$out/dumps" && LC_ALL=C sha256sum -- *) >"$out/obs_digests.txt"
  if ! diff ci/obs_digests.txt "$out/obs_digests.txt"; then
    echo "obs dump digests differ from ci/obs_digests.txt (< pinned, > this tree)" >&2
    return 1
  fi
}
step_obs_digests() { step obs-digests check_obs_digests; }

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
  step_paper_outputs
  step_examples
  step_obs_digests
fi

echo "==> ci OK"
