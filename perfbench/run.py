#!/usr/bin/env python3
"""Replay benchmark of the datagrid simulator.

Builds the benchmark binary (perfbench/Cargo.toml, release, offline) and
runs each requested workload in a fresh process of its own, on one
thread. Prints every metric by name with its unit; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.

    python3 perfbench/run.py --workload burst-contended --seed 20050905 \
        --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --trace 1

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the spans). Outputs go to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench): per workload, the fetch digest, the
spans of a traced run, and the result with the host it ran on.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["burst-contended", "steady-sparse", "faulted-failover", "paper-sequential"]
DEFAULT_SEED = 20050905
HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Time a run may take beyond --seconds: the last repetition overshoots
# the deadline and a traced run adds probes.
GRACE_S = 150
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def capture(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=60).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def environment(seed):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or "unknown",
        "rustc": capture(["rustc", "-V"]) or "unknown",
        "commit": capture(["git", "-C", HERE, "rev-parse", "HEAD"]) or "not a git checkout",
        "seed": seed,
    }


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return False
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
    return done.returncode == 0


def run_workload(binary, workload, args, out_dir):
    """Runs one workload in a fresh process; returns its result or None."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=args.seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {args.seconds + GRACE_S} s")
        return None
    except OSError as e:
        log(f"{workload}: {e}")
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload}: exit code {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not JSON")
        return None
    if set(result) != RESULT_KEYS:
        log(f"{workload}: result keys {sorted(result)}")
        return None
    for line in lines[:-1]:
        print(f"{workload:<17} {line}")
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=28)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must not be negative")

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    if not build(env):
        return 1
    binary = os.path.join(target, "release", "datagrid-perfbench")
    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)

    host = environment(args.seed)
    print("env: " + json.dumps(host, sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        result = run_workload(binary, w, args, out_dir)
        if result is None:
            return 1
        results[w] = result
        path = os.path.join(out_dir, f"{w}-{args.seed}-trace{args.trace}.result.json")
        with open(path, "w") as f:
            json.dump({"env": host, "workload": w, "trace": args.trace,
                       "seconds": args.seconds, "result": result}, f, indent=1, sort_keys=True)
            f.write("\n")

    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
