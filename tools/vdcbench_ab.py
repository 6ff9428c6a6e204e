#!/usr/bin/env python3
"""A/B runner for vdcbench: pairs of base and change runs, one verdict per metric.

Builds each of two checkouts through that checkout's own vdcbench/run.py,
each into its own CARGO_TARGET_DIR, then runs N pairs per workload in
ABBA order (pair 0 runs base first, pair 1 change first, ...). Every run
is started under `taskset -c <cpus>` with the same CPU list, which pins
only the runner's own processes.

For every end-to-end metric of BENCHMARK.json it prints each side's
median and IQR, the median of the per-pair ratios change/base with a
seeded bootstrap 95% interval, the per-pair win count, and a verdict
against the metric's `bound`:

  better        the interval lies wholly on the better side of 1.0
  worse         the interval lies wholly past the bound
  within-bound  the interval's worse end stays inside the bound
  unresolved    the interval straddles the bound, or the runs spread
                too widely to tell: either side's IQR is more than the
                bound times its median, and not every change run beats
                every base run

It also reports whether a claimed gain would stand: the change wins at
least nine tenths of the pairs (ties count for neither side) and the
medians differ, in the better direction, by more than the base's IQR.
Every raw result goes to one JSON file (--out), with each side's
commit and the git tree id of the files it was built from.

Every measured run takes run.py's default length, the benchmark's run
length; the one discarded warm-up run per side and workload takes
WARMUP_SECONDS.

Usage (from either checkout):

  python3 tools/vdcbench_ab.py --base ../parent --change . \\
      --workload lineage discovery --pairs 10 --seed 1 \\
      --cpus 0-3 --out ab-lineage.json
  python3 tools/vdcbench_ab.py --selftest
"""

import argparse
import json
import math
import os
import random
import statistics
import shutil
import subprocess
import sys
import tempfile
import time

SIDES = ("base", "change")
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 20031
CLAIM_WIN_SHARE = 0.9
WARMUP_SECONDS = 2


def log(message):
    print(f"vdcbench_ab: {message}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) with linear interpolation between order stats."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]

    def at(q):
        pos = q * (len(xs) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def bootstrap_median_ci(values, seed=BOOTSTRAP_SEED,
                        resamples=BOOTSTRAP_RESAMPLES):
    """Percentile bootstrap 95% interval of the median of `values`."""
    rng = random.Random(seed)
    n = len(values)
    medians = sorted(
        statistics.median(rng.choice(values) for _ in range(n))
        for _ in range(resamples))
    lo = medians[int(0.025 * (resamples - 1))]
    hi = medians[int(math.ceil(0.975 * (resamples - 1)))]
    return lo, hi


def verdict(ci, better, bound, spread=0.0, separated=False):
    """Classifies an interval of ratios change/base against `bound`.

    `spread` is the larger of the two sides' IQR/median; past the bound
    the runs are too noisy to tell, unless they are `separated` (every
    change run beats every base run).
    """
    if spread > bound and not separated:
        return "unresolved"
    lo, hi = ci
    if better == "lower":
        if hi < 1.0:
            return "better"
        if lo > 1.0 + bound:
            return "worse"
        if hi <= 1.0 + bound:
            return "within-bound"
        return "unresolved"
    if lo > 1.0:
        return "better"
    if hi < 1.0 - bound:
        return "worse"
    if lo >= 1.0 - bound:
        return "within-bound"
    return "unresolved"


def change_wins(base, change, better):
    """+1 when the change is better in this pair, -1 worse, 0 a tie."""
    if change == base:
        return 0
    return 1 if (change < base) == (better == "lower") else -1


def relative_iqr(q1, median, q3):
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def summarize(pairs, better, bound):
    """Summary of one metric over [(base, change), ...] pairs."""
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    ratios = [c / b if b != 0 else (1.0 if c == 0 else math.inf)
              for b, c in pairs]
    ci = bootstrap_median_ci(ratios)
    outcomes = [change_wins(b, c, better) for b, c in pairs]
    wins = sum(1 for o in outcomes if o > 0)
    losses = sum(1 for o in outcomes if o < 0)
    gain = (b_med - c_med) if better == "lower" else (c_med - b_med)
    spread = max(relative_iqr(b_q1, b_med, b_q3),
                 relative_iqr(c_q1, c_med, c_q3))
    separated = (max(change) < min(base) if better == "lower"
                 else min(change) > max(base))
    return {
        "better": better,
        "bound": bound,
        "base": {"median": b_med, "q1": b_q1, "q3": b_q3,
                 "iqr": b_q3 - b_q1},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3,
                   "iqr": c_q3 - c_q1},
        "ratios": ratios,
        "median_ratio": statistics.median(ratios),
        "ci95": list(ci),
        "wins": wins,
        "losses": losses,
        "pairs": len(pairs),
        "spread": spread,
        "separated": separated,
        "verdict": verdict(ci, better, bound, spread, separated),
        "claim_holds": (wins >= math.ceil(CLAIM_WIN_SHARE * len(pairs))
                        and gain > b_q3 - b_q1),
    }


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------

def run_once(checkout, target_dir, cpus, workload, seed, seconds=None):
    """One vdcbench run through `checkout`'s run.py; a raw record.

    Without `seconds` the run takes run.py's default length.
    """
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["taskset", "-c", cpus, sys.executable,
           os.path.join(checkout, "vdcbench", "run.py"),
           "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    record = {"returncode": proc.returncode,
              "wall_s": round(time.monotonic() - start, 3)}
    lines = proc.stdout.strip().splitlines()
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["result"] = None
        record["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    return record


def describe_checkout(path):
    """Where the checkout at `path` (kept as given) came from: its HEAD
    commit and the git tree id of its working files (tracked and
    untracked, ignored ones left out), which equals HEAD's tree when
    nothing is changed. Commit and tree are None outside a git checkout."""
    info = {"path": path, "commit": None, "tree": None, "dirty": None}

    def git(*args, env=None):
        return subprocess.run(["git", "-C", path, *args], env=env,
                              check=True, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True).stdout.strip()

    try:
        info["commit"] = git("rev-parse", "HEAD")
        git_dir = git("rev-parse", "--absolute-git-dir")
        with tempfile.TemporaryDirectory() as tmp:
            # A copy of the index, so the checkout's own stays as it is.
            index = os.path.join(tmp, "index")
            shutil.copyfile(os.path.join(git_dir, "index"), index)
            env = dict(os.environ, GIT_INDEX_FILE=index)
            git("add", "-A", env=env)
            info["tree"] = git("write-tree", env=env)
        info["dirty"] = info["tree"] != git("rev-parse", "HEAD^{tree}")
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"{path}: no git commit recorded ({e})")
    return info


def metric_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def run_ab(args):
    checkouts = {"base": os.path.abspath(args.base),
                 "change": os.path.abspath(args.change)}
    build_root = os.path.abspath(args.build_root)
    targets = {side: os.path.join(build_root, side) for side in SIDES}
    spec = metric_spec(checkouts["change"])
    sources = {"base": describe_checkout(args.base),
               "change": describe_checkout(args.change)}

    # Build each side (run.py builds on first use) with one discarded
    # warm-up run per workload.
    for side in SIDES:
        for workload in args.workload:
            log(f"building and warming {side} ({checkouts[side]}): {workload}")
            warm = run_once(checkouts[side], targets[side], args.cpus,
                            workload, args.seed, WARMUP_SECONDS)
            if warm["result"] is None:
                log(f"{side} warm-up failed: {warm.get('stderr_tail')}")
                return 1

    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in args.workload:
            for side in order:
                record = run_once(checkouts[side], targets[side], args.cpus,
                                  workload, args.seed)
                record.update(pair=pair, side=side, workload=workload,
                              first=order[0])
                runs.append(record)
                result = record["result"] or {}
                log(f"pair {pair} {workload} {side}: " + ", ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in result.get("metrics", {}).items()))

    summary = {}
    problems = []
    for workload in args.workload:
        by_pair = {}
        for r in runs:
            if r["workload"] != workload:
                continue
            res = r["result"]
            if res is None or not res["correct"] or res["failed"] > 0:
                problems.append(f"{workload} pair {r['pair']} {r['side']}: "
                                f"rc={r['returncode']} result={res and {k: res[k] for k in ('correct', 'attempted', 'failed')}}")
            if res is not None:
                by_pair.setdefault(r["pair"], {})[r["side"]] = res
        complete = [p for p in by_pair.values() if len(p) == 2]
        summary[workload] = {}
        for m in spec:
            pairs = [(p["base"]["metrics"][m["name"]]["value"],
                      p["change"]["metrics"][m["name"]]["value"])
                     for p in complete]
            if pairs:
                summary[workload][m["name"]] = summarize(
                    pairs, m["better"], m["bound"])

    artifact = {
        "config": {"base": sources["base"], "change": sources["change"],
                   "workloads": args.workload, "pairs": args.pairs,
                   "seed": args.seed, "warmup_seconds": WARMUP_SECONDS,
                   "cpus": args.cpus, "order": "ABBA",
                   "bootstrap": {"resamples": BOOTSTRAP_RESAMPLES,
                                 "seed": BOOTSTRAP_SEED},
                   "host_cpus": os.cpu_count()},
        "runs": runs,
        "summary": summary,
        "problems": problems,
    }
    with open(args.out, "w") as f:
        json.dump(artifact, f, indent=1)
    print_summary(summary)
    for p in problems:
        print(f"PROBLEM {p}")
    print(f"raw runs: {args.out}")
    return 1 if problems else 0


def print_summary(summary):
    header = (f"{'workload':<10} {'metric':<12} {'base med [IQR]':>22} "
              f"{'change med [IQR]':>22} {'ratio':>7} {'95% CI':>17} "
              f"{'wins':>6} {'spread':>6} verdict")
    print(header)
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            b, c = s["base"], s["change"]
            print(f"{workload:<10} {name:<12} "
                  f"{b['median']:>11.4g} [{b['iqr']:>8.3g}] "
                  f"{c['median']:>11.4g} [{c['iqr']:>8.3g}] "
                  f"{s['median_ratio']:>7.3f} "
                  f"[{s['ci95'][0]:.3f}, {s['ci95'][1]:.3f}] "
                  f"{s['wins']:>2}/{s['pairs']:<3} {s['spread']:>6.3f} "
                  f"{s['verdict']}"
                  + ("  (claim holds)" if s["claim_holds"] else ""))


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------

def selftest():
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    check(quartiles([1, 2, 3, 4, 5]) == (2, 3, 4), "quartiles of 1..5")
    check(quartiles([7]) == (7, 7, 7), "quartiles of one value")

    check(bootstrap_median_ci([0.5] * 10) == (0.5, 0.5),
          "constant data has a point interval")
    noisy = [1.0 + 0.01 * ((i * 37) % 11 - 5) for i in range(12)]
    ci = bootstrap_median_ci(noisy)
    check(ci == bootstrap_median_ci(noisy), "bootstrap is seeded")
    check(ci[0] <= statistics.median(noisy) <= ci[1],
          "interval contains the median")

    # The verdict rule, lower-is-better with a 25% bound.
    check(verdict((0.4, 0.6), "lower", 0.25) == "better", "lower: better")
    check(verdict((1.3, 1.5), "lower", 0.25) == "worse", "lower: worse")
    check(verdict((0.95, 1.2), "lower", 0.25) == "within-bound",
          "lower: within-bound")
    check(verdict((0.9, 1.4), "lower", 0.25) == "unresolved",
          "lower: unresolved")
    # Higher-is-better mirrors it.
    check(verdict((1.1, 1.3), "higher", 0.25) == "better", "higher: better")
    check(verdict((0.5, 0.7), "higher", 0.25) == "worse", "higher: worse")
    check(verdict((0.8, 1.05), "higher", 0.25) == "within-bound",
          "higher: within-bound")
    check(verdict((0.6, 1.1), "higher", 0.25) == "unresolved",
          "higher: unresolved")

    # Runs spread wider than the bound tell nothing, unless every change
    # run beats every base run.
    check(verdict((0.95, 1.2), "lower", 0.25, spread=0.3) == "unresolved",
          "lower: too noisy to tell")
    check(verdict((0.4, 0.6), "lower", 0.25, spread=0.3,
                  separated=True) == "better", "lower: noisy but separated")
    check(verdict((0.8, 1.05), "higher", 0.25, spread=0.3) == "unresolved",
          "higher: too noisy to tell")

    # End to end on synthetic pairs.
    halved = [(0.75 + 0.01 * i, 0.3 + 0.005 * i) for i in range(10)]
    s = summarize(halved, "lower", 0.25)
    check(s["verdict"] == "better" and s["wins"] == 10 and s["claim_holds"],
          "a halved metric is a standing gain")
    same = [(1.0 + 0.01 * (i % 3), 1.0 + 0.01 * ((i + 1) % 3))
            for i in range(10)]
    s = summarize(same, "lower", 0.25)
    check(s["verdict"] == "within-bound" and not s["claim_holds"],
          "an A/A-like spread is within bound and claims nothing")
    eight = [(1.0, 0.5)] * 8 + [(1.0, 1.5)] * 2
    check(not summarize(eight, "lower", 0.25)["claim_holds"],
          "8 wins of 10 is no claim")
    slower = [(100.0, 60.0 + i) for i in range(10)]
    check(summarize(slower, "higher", 0.25)["verdict"] == "worse",
          "throughput down 40% is worse")
    # The base spreads 0.27..0.50 (IQR/median 0.29 > 0.25) and some change
    # runs are slower than the fastest base run: noise, not a verdict.
    noisy_base = [(0.27 + 0.025 * i, 0.38 + 0.01 * (i % 4 - 2))
                  for i in range(10)]
    s = summarize(noisy_base, "lower", 0.25)
    check(s["spread"] > 0.25 and not s["separated"] and
          s["verdict"] == "unresolved",
          "a base spread past the bound is unresolved")
    wide_apart = [(1.0 + 0.05 * i, 0.2 + 0.02 * i) for i in range(10)]
    s = summarize(wide_apart, "lower", 0.25)
    check(s["spread"] > 0.25 and s["separated"] and s["verdict"] == "better",
          "a spread past the bound with every change run faster is better")
    ties = [(1.0, 1.0)] * 10
    s = summarize(ties, "lower", 0.25)
    check(s["wins"] == 0 and s["losses"] == 0 and
          s["verdict"] == "within-bound", "ties count for neither side")

    for f in failures:
        print(f"selftest FAILED: {f}")
    if not failures:
        print("vdcbench_ab selftest: ok")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", help="checkout of the base commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload", nargs="+",
                        choices=["discovery", "campaign", "lineage"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cpus", default=f"0-{(os.cpu_count() or 1) - 1}",
                        help="taskset CPU list for every run")
    parser.add_argument("--build-root", default=".ab_build",
                        help="holds one CARGO_TARGET_DIR per side")
    parser.add_argument("--out", default="vdcbench_ab.json")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not (args.base and args.change and args.workload):
        parser.error("--base, --change and --workload are required")
    return run_ab(args)


if __name__ == "__main__":
    sys.exit(main())
