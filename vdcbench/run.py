#!/usr/bin/env python3
"""Builds the catalog benchmark from source and runs one workload.

Usage (from the repository root):

  python3 vdcbench/run.py --workload discovery|campaign|lineage|all \
      --seed N --seconds S --trace 0|1
  python3 vdcbench/run.py --selftest      # the benchmark's own unit tests

The build goes to $CARGO_TARGET_DIR (default .bench_build) in Release
mode. The workload's report goes to standard output; its last line is
one JSON object with the keys correct, attempted, failed and metrics.
The metrics are the end_to_end list of BENCHMARK.json, or with
--trace 1 its per_layer list. The exit code is non-zero when the build
fails, an answer disagrees with the oracle, or the output does not match
BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["discovery", "campaign", "lineage"]
# A run sets its stack up five times and builds an oracle on top of
# --seconds of measurement; past this it is treated as hung.
SETUP_ALLOWANCE_S = 110
RUN_TIMEOUT_PER_S = 3


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_root():
    return os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build(targets):
    """Configures (once) and builds `targets`; returns the build dir."""
    out = os.path.join(build_root(), "vdcbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "Makefile")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(max(1, min(os.cpu_count() or 1, 4)))
        subprocess.run(
            ["cmake", "--build", out, "-j", jobs, "--target", *targets],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Returns why `result` breaks the output contract, or None."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        return f"metrics {got} do not match BENCHMARK.json {want}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive integer"
    return None


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; prints its report, returns (result, exit code)."""
    root = build_root()
    scratch = os.path.join(root, f"run-{os.getpid()}-{workload}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scratch", scratch]
    if trace:
        trace_dir = os.path.join(root, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{workload}.spans.csv")]
    timeout = SETUP_ALLOWANCE_S + RUN_TIMEOUT_PER_S * seconds
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {timeout:.0f} s")
        return None, 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n") if proc.stdout else []
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        log(f"{workload}: vdcbench exited with {proc.returncode}")
        return None, proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not a JSON result")
        return None, 1
    problem = check_result(result, trace)
    if problem:
        log(f"{workload}: {problem}")
        return None, 1
    return result, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        if args.selftest:
            out = build(["vdcbench_test"])
            return subprocess.run([os.path.join(out, "vdcbench_test")]).returncode
        if not args.workload:
            parser.error("--workload is required")
        out = build(["vdcbench"])
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    binary = os.path.join(out, "vdcbench")

    if args.workload != "all":
        result, code = run_one(binary, args.workload, args.seed, args.seconds,
                               args.trace == 1)
        if result is None:
            return code
        print(json.dumps(result), flush=True)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        print(f"== {workload}")
        result, rc = run_one(binary, workload, args.seed, args.seconds,
                             args.trace == 1)
        if result is None:
            return rc
        print(json.dumps(result))
        code = code or rc
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
