#!/usr/bin/env bash
# Runs the grid-level scale smoke: the multi-client replay benchmark at
# reduced client counts, the deterministic perf budget, a cell-by-cell
# comparison with the committed BENCH_grid.json, and the determinism
# property tests.
#
#   scripts/grid_smoke.sh [out.json]
#
# Builds the bench crate in release mode, runs the `grid_scale` binary
# (deterministic multi-client fetch replay, static and contention-aware
# selection side by side, health timeline and phase profiler attached),
# writes the JSON report (default: target/BENCH_grid.json) and re-reads
# it with `grid_scale --check` so a malformed report fails loudly. Gates
# the hot-path work counters against `ci/grid_budget.json` with
# `grid_scale --check-budget` (solver passes per decision, batching
# savings, score-scratch misses — deterministic counters, not timings).
# Every regenerated cell must then equal the cell with the same client
# count and mode in the committed BENCH_grid.json, field for field: the
# replay is deterministic, so a change that moves any cell (a solver
# change, a scheduling change) fails here until BENCH_grid.json is
# regenerated on purpose. Then runs the determinism property tests that
# pin same-seed ⇒ byte-identical reports, obs exports and timelines, and
# the obs suite with `prof-timing` enabled, proving the timed build still
# compiles and its counts stay deterministic. Not a wall-time gate.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-target/BENCH_grid.json}"
REF=BENCH_grid.json

# CI-sized sweep: big enough to exercise real contention, small enough
# to stay in seconds. The default 16..16384 sweep runs locally.
export DATAGRID_GRID_CLIENTS="${DATAGRID_GRID_CLIENTS:-16,64,256}"

# Snapshot the reference first: OUT may be the reference itself.
mkdir -p target
cp "${REF}" target/BENCH_grid.ref.json

cargo build --release -p datagrid-bench --bin grid_scale
BIN="${CARGO_TARGET_DIR:-target}/release/grid_scale"
"${BIN}" --out "${OUT}"
"${BIN}" --check "${OUT}"
"${BIN}" --check-budget ci/grid_budget.json "${OUT}"

python3 - "${OUT}" target/BENCH_grid.ref.json <<'PY'
import json
import sys

out, ref = (json.load(open(p)) for p in sys.argv[1:3])
committed = {(c["clients"], c["mode"]): c for c in ref["cells"]}
bad = 0
for cell in out["cells"]:
    key = (cell["clients"], cell["mode"])
    want = committed.get(key)
    if want is None:
        print(f"grid-smoke: no committed cell for {key[0]} clients, {key[1]}")
        bad += 1
        continue
    for field in sorted(set(cell) | set(want)):
        if cell.get(field) != want.get(field):
            print(f"grid-smoke: {key[0]} clients, {key[1]}: {field} = "
                  f"{cell.get(field)} (committed {want.get(field)})")
            bad += 1
if bad:
    sys.exit(f"grid-smoke: {bad} difference(s) from the committed BENCH_grid.json")
print(f"grid-smoke: {len(out['cells'])} cells match the committed BENCH_grid.json")
PY

cargo test --release --test workload_determinism
cargo test --release --test timeline_determinism
cargo test -q -p datagrid-obs --features prof-timing
