#!/usr/bin/env python3
"""Asserts a benchmark's rate (or a named counter) meets a floor.

Usage: check_bench_floor.py [--ceiling] <bench.json> <benchmark-name> \
           <bound> [counter]

Reads Google Benchmark JSON output and checks the named benchmark's
`agg_items_per_sec` counter (falling back to `items_per_second`)
against the floor. Exits nonzero, printing every rate it saw, when the
benchmark is missing or below the floor. CI uses this to keep the
compressed discovery-index path honest: the floor is a multiple of the
pre-compression seed rate, loose enough for shared runners yet tight
enough to catch the index degrading to a scan.

With the optional fourth argument the named counter is gated instead of
the items/s rate — e.g. `availability 0.999` holds the wire chaos
bench (bench_wire_faults) to its client-visible success-rate floor.

With --ceiling the bound is an upper limit instead: the check fails
when the value EXCEEDS it. Latency counters gate this way — e.g.
`--ceiling ... BM_WireServerRoundTrip/1 100000 real_time` holds one
wire round trip under 100 us of wall time.

With --relative-to <other-benchmark> the bound is a factor applied to
the other benchmark's value from the same file — e.g.
`--ceiling --relative-to BM_CommitCost/2500/manual_time ...
BM_CommitCost/80000/manual_time 2 commit_us` holds an 80k-dataset
commit to twice the cost of a 2.5k-dataset one on any host.
"""

import json
import sys


def rate_of(bench, counter=None):
    if counter is not None:
        return bench.get(counter)
    agg = bench.get("agg_items_per_sec")
    if agg is not None:
        return agg
    return bench.get("items_per_second", 0.0)


def fmt(value):
    # Success-rate style counters need decimals; throughputs do not.
    return f"{value:.4f}" if abs(value) < 10 else f"{value:,.0f}"


def main():
    argv = list(sys.argv[1:])
    ceiling = "--ceiling" in argv
    if ceiling:
        argv.remove("--ceiling")
    relative_to = None
    if "--relative-to" in argv:
        at = argv.index("--relative-to")
        if at + 1 >= len(argv):
            sys.exit(__doc__.strip())
        relative_to = argv[at + 1]
        del argv[at:at + 2]
    if len(argv) not in (3, 4):
        sys.exit(__doc__.strip())
    path, name, bound = argv[0], argv[1], float(argv[2])
    counter = argv[3] if len(argv) == 4 else None
    unit = counter if counter else "items/s"
    with open(path) as f:
        data = json.load(f)
    rates = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        rates[bench.get("name", "?")] = rate_of(bench, counter)
    for bench_name, rate in sorted(rates.items()):
        if rate is not None:
            print(f"  {bench_name}: {fmt(rate)} {unit}")
    if relative_to is not None:
        base = rates.get(relative_to)
        if base is None:
            sys.exit(f"benchmark {relative_to} has no {unit} value in {path}")
        print(f"bound: {bound:g} x {relative_to} ({fmt(base)} {unit})")
        bound *= base
    rate = rates.get(name)
    if rate is None:
        sys.exit(f"benchmark {name} has no {unit} value in {path}")
    if ceiling:
        if rate > bound:
            sys.exit(f"{name} {unit} {fmt(rate)} exceeds ceiling {fmt(bound)}")
        print(f"{name} meets ceiling {fmt(bound)} {unit}")
        return
    if rate < bound:
        sys.exit(f"{name} {unit} {fmt(rate)} is below floor {fmt(bound)}")
    print(f"{name} meets floor {fmt(bound)} {unit}")


if __name__ == "__main__":
    main()
