#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see perfbench/RATIONALE.md).

    python3 perfbench/run.py --workload prove|verify|serve|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. It builds the release `csp` binary and the
benchmark (into $CARGO_TARGET_DIR, default `.bench_build`), then runs one
benchmark process per workload. The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; with `--workload all`
it merges the three workloads, prefixing each metric with its workload.
Build output goes to stderr. Traced runs write their spans under
`$CARGO_TARGET_DIR/perfbench-out/`.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["prove", "verify", "serve"]
# A workload run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in (
        ["--manifest-path", "Cargo.toml", "--bin", "csp"],
        ["--manifest-path", "perfbench/Cargo.toml"],
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: `{' '.join(cmd)}` failed")


def run_one(target, workload, args):
    cmd = [
        os.path.join(target, "release", "csp-perfbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--csp-bin", os.path.join(target, "release", "csp"),
        "--out", os.path.join(target, "perfbench-out"),
    ]
    # Its own session, so a timeout also stops the `csp serve` it spawns.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"run.py: workload {workload} ran past {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        sys.exit(f"run.py: workload {workload} failed (exit {proc.returncode})")
    return lines


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    if args.workload != "all":
        print("\n".join(run_one(target, args.workload, args)))
        return
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines = run_one(target, workload, args)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
