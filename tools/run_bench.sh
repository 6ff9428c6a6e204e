#!/usr/bin/env bash
# Builds the benchmarks in Release mode and runs the discovery-engine
# benchmark suite (FIG1 discovery paths + FIG4 index refresh), merging
# the results into BENCH_discovery.json at the repo root, plus the
# concurrent-read scaling suite into BENCH_concurrency.json, the
# fault-tolerance suite into BENCH_fault.json, and the federation
# transport suite (wire round-trip accounting) into
# BENCH_federation.json.
#
# Usage: tools/run_bench.sh [build-dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-bench}"
OUT_JSON="$REPO_ROOT/BENCH_discovery.json"
CONC_JSON="$REPO_ROOT/BENCH_concurrency.json"
FAULT_JSON="$REPO_ROOT/BENCH_fault.json"
FED_JSON="$REPO_ROOT/BENCH_federation.json"

cmake -S "$REPO_ROOT" -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target bench_fig1_schema_ops bench_fig4_federated_index \
           bench_conc_catalog bench_fault_recovery bench_fed_rpc \
           bench_wire_server bench_wire_faults >/dev/null

# Every bench result must come from a Release-compiled binary. The
# binaries stamp vdg_build_type into their context (bench/bench_main.cc)
# because the system libbenchmark's own library_build_type describes
# the Debian package, not our flags.
assert_release() {
  if ! grep -q '"vdg_build_type": "release"' "$1"; then
    echo "BENCH BUILD-TYPE ERROR: $1 was not produced by a Release build" >&2
    exit 1
  fi
}

FIG1_FILTER='BM_AttributeDiscovery|BM_TypeDiscovery|BM_MaterializedDiscovery|BM_DerivationDiscoveryByInput|BM_ShardScanView|BM_ShardScanLegacyCopy'
FIG4_FILTER='BM_IndexQuery|BM_DirectScan|BM_IndexRefresh|BM_DeltaRefresh|BM_FullRebuild'

FIG1_OUT="$BUILD_DIR/bench_fig1_discovery.json"
FIG4_OUT="$BUILD_DIR/bench_fig4_refresh.json"

"$BUILD_DIR/bench/bench_fig1_schema_ops" \
  --benchmark_filter="$FIG1_FILTER" \
  --benchmark_out="$FIG1_OUT" --benchmark_out_format=json \
  --benchmark_min_time=0.2

"$BUILD_DIR/bench/bench_fig4_federated_index" \
  --benchmark_filter="$FIG4_FILTER" \
  --benchmark_out="$FIG4_OUT" --benchmark_out_format=json \
  --benchmark_min_time=0.2

assert_release "$FIG1_OUT"
assert_release "$FIG4_OUT"

# Merge the two result files and compute the headline delta-vs-full
# refresh speedup. Python (stdlib only) ships with the toolchain.
python3 - "$FIG1_OUT" "$FIG4_OUT" "$OUT_JSON" <<'PYEOF'
import json
import sys

fig1_path, fig4_path, out_path = sys.argv[1:4]
with open(fig1_path) as f:
    fig1 = json.load(f)
with open(fig4_path) as f:
    fig4 = json.load(f)

merged = {
    "context": fig1.get("context", {}),
    "benchmarks": fig1.get("benchmarks", []) + fig4.get("benchmarks", []),
}

# Headline number: delta refresh vs full rebuild at matching churn.
times = {b["name"]: b["real_time"] for b in merged["benchmarks"]}
speedups = {}
for name, t in times.items():
    if not name.startswith("BM_DeltaRefresh/"):
        continue
    churn = name.split("/")[1]
    full = times.get("BM_FullRebuild/" + churn)
    if full and t > 0:
        speedups["changed_entries_" + churn] = round(full / t, 1)
merged["delta_refresh_speedup"] = speedups

with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")

print("wrote", out_path)
for k, v in sorted(speedups.items()):
    print(f"  delta vs full rebuild, {k}: {v}x")
PYEOF

# Concurrent-read scaling: reader throughput vs thread count against
# the snapshot-isolated catalog (1..16 threads, pure reads and
# read+writer), plus the commit/discovery/cold-start gates:
#   - commit cost flat in catalog size: BM_CommitCost at 80k datasets
#     <= 2x its cost at 2.5k (checked right after this block)
#   - ApplyBatch group commit at or above an absolute floor; the
#     group/per-record ratio is reported with its base, not gated
#   - selective indexed conjunction >= 10x the pre-compression seed
#     rate, and the broad shard scan >= 10x as well: the zero-copy
#     result plane (NameList views into the pinned snapshot) removed
#     the ~2us/query string-copy API floor that used to cap it at 3x
#   - flat-snapshot cold start cheaper than full journal replay
#   - reads while a writer streams batches within 20% of no-writer
CONC_OUT="$BUILD_DIR/bench_conc_catalog.json"
"$BUILD_DIR/bench/bench_conc_catalog" \
  --benchmark_out="$CONC_OUT" --benchmark_out_format=json \
  --benchmark_min_time=0.2

assert_release "$CONC_OUT"

python3 - "$CONC_OUT" "$CONC_JSON" <<'PYEOF'
import json
import sys

src_path, out_path = sys.argv[1:3]
with open(src_path) as f:
    raw = json.load(f)

# Per-benchmark curve: thread count -> aggregate reader items/sec.
# The read benches report agg_items_per_sec (a kIsRate counter summed
# across threads, see bench_conc_catalog.cc) alongside the per-thread
# rate; items_per_second remains as a fallback for benches without the
# explicit counters. Single-threaded benches (group commit, snapshot
# isolation, cold start) are gated below instead.
def agg_rate(b):
    return b.get("agg_items_per_sec") or b.get("items_per_second", 0.0)

curves = {}
per_thread_curves = {}
items = {}
times = {}
for b in raw.get("benchmarks", []):
    name = b["name"]  # e.g. BM_ConcIndexedFind/real_time/threads:4
    base = name.split("/")[0]
    if "threads:" in name:
        threads = int(name.rsplit("threads:", 1)[1])
        curves.setdefault(base, {})[threads] = round(agg_rate(b))
        per_thread_curves.setdefault(base, {})[threads] = round(
            b.get("per_thread_items_per_sec", 0.0))
        if threads == 1:
            items[base] = agg_rate(b)  # 1-thread rate is the gate input
            times[base] = b.get("real_time", 0.0)
    else:
        items[base] = agg_rate(b)
        times[base] = b.get("real_time", 0.0)

# Compressed-discovery gates, both against the pre-compression seed
# baseline (sorted-vector posting lists + linear set_intersection,
# measured on the same host/workload at the seed). Two rates because
# they bound different layers:
#   - BM_IndexedFindCompressedSkewed (selective two-predicate
#     conjunction, the workload shape the discovery index exists for)
#     isolates the index: postings + galloping intersection + row
#     mapping, ~14 result names. Gated >= 10x.
#   - BM_ConcIndexedFind (single-predicate shard scan) returns ~164 of
#     2615 names per query. It used to be gated at only 3x because
#     copying those names out through Result<vector<string>> cost
#     ~2.1us/query — more than the whole 10x budget. The zero-copy
#     NameList result plane emits pinned views instead, so the shard
#     scan now carries the same >= 10x floor as the selective path.
SEED_INDEXED_FIND_ITEMS_PER_SEC = 55908.0
indexed_find = items.get("BM_IndexedFindCompressedSkewed")
indexed_speedup = None
if indexed_find:
    indexed_speedup = round(indexed_find / SEED_INDEXED_FIND_ITEMS_PER_SEC, 1)
shard_scan = items.get("BM_ConcIndexedFind")
shard_scan_speedup = None
if shard_scan:
    shard_scan_speedup = round(shard_scan / SEED_INDEXED_FIND_ITEMS_PER_SEC, 1)

# Cold-start gate: mmap flat snapshot vs full journal replay.
cold_replay_ms = times.get("BM_ColdStartReplay")
cold_flat_ms = times.get("BM_ColdStartFlatSnapshot")
cold_speedup = None
if cold_replay_ms and cold_flat_ms:
    cold_replay_ms = round(cold_replay_ms / 1e6, 3)  # ns -> ms
    cold_flat_ms = round(cold_flat_ms / 1e6, 3)
    cold_speedup = round(cold_replay_ms / max(cold_flat_ms, 1e-9), 1)

# Group commit floor: the rate of the rebuild-per-publish catalog (best
# of three runs, 4-vCPU reference host). The gate is absolute because a
# per-record commit is now cheap, so the group/per-record ratio no
# longer says how well batching works.
GROUP_COMMIT_FLOOR_ITEMS_PER_SEC = 167210.0
group_speedup = None
per_record = items.get("BM_ApplyBatch_PerRecordCommit")
group = items.get("BM_ApplyBatch_GroupCommit")
if per_record and group:
    group_speedup = round(group / per_record, 1)

# Commit cost by catalog size (us per commit, mean of one Annotate, one
# DefineDerivation and one 4-op write-back). The "before" row is the
# same bench run against the rebuild-per-publish catalog on the 4-vCPU
# reference host.
COMMIT_COST_BEFORE_US = {"2500": 296.5, "20000": 9600.1, "80000": 41301.5}
commit_cost = {}
for b in raw.get("benchmarks", []):
    if b["name"].startswith("BM_CommitCost/"):
        size = b["name"].split("/")[1]
        commit_cost[size] = {
            k: round(b[k], 2)
            for k in ("commit_us", "annotate_us", "derive_us", "writeback_us")
            if k in b
        }

isolation_ratio = None
baseline = items.get("BM_SnapshotFindNoWriter")
under_writes = items.get("BM_SnapshotFindDuringWrites")
if baseline and under_writes:
    isolation_ratio = round(under_writes / baseline, 3)

result = {
    "context": raw.get("context", {}),
    "read_throughput_items_per_sec_by_threads": curves,
    "per_thread_items_per_sec_by_threads": per_thread_curves,
    "group_commit_speedup": group_speedup,
    "group_commit_speedup_base": "BM_ApplyBatch_PerRecordCommit items/s",
    "group_commit_items_per_sec": group,
    "group_commit_floor_items_per_sec": GROUP_COMMIT_FLOOR_ITEMS_PER_SEC,
    "commit_cost_us_by_datasets": commit_cost,
    "commit_cost_us_by_datasets_before": COMMIT_COST_BEFORE_US,
    "snapshot_read_under_writes_ratio": isolation_ratio,
    "indexed_find_items_per_sec": indexed_find,
    "indexed_find_seed_items_per_sec": SEED_INDEXED_FIND_ITEMS_PER_SEC,
    "indexed_find_speedup_vs_seed": indexed_speedup,
    "shard_scan_items_per_sec": shard_scan,
    "shard_scan_speedup_vs_seed": shard_scan_speedup,
    "compressed_find_items_per_sec": {
        k: items.get(k)
        for k in ("BM_IndexedFindCompressed", "BM_IndexedFindCompressedSkewed",
                  "BM_IndexedFindCompressedDense")
    },
    "cold_start_replay_ms": cold_replay_ms,
    "cold_start_flat_snapshot_ms": cold_flat_ms,
    "cold_start_speedup": cold_speedup,
    "benchmarks": raw.get("benchmarks", []),
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

print("wrote", out_path)
cores = raw.get("context", {}).get("num_cpus", "?")
print(f"  host cores: {cores} (scaling with threads needs cores to scale on)")
for base, curve in sorted(curves.items()):
    pts = " ".join(f"{t}t={v}" for t, v in sorted(curve.items()))
    print(f"  {base}: {pts}")
print(f"  group commit: {group} items/s (floor "
      f"{GROUP_COMMIT_FLOOR_ITEMS_PER_SEC:.0f}); {group_speedup}x per-record "
      f"commit ({per_record} items/s)")
for size, cost in sorted(commit_cost.items(), key=lambda kv: int(kv[0])):
    print(f"  commit cost at {size} datasets: {cost.get('commit_us')}us "
          f"(before: {COMMIT_COST_BEFORE_US.get(size)}us)")
print(f"  reads under writes vs no writer: {isolation_ratio}")
print(f"  selective indexed find vs seed baseline: {indexed_speedup}x "
      f"({indexed_find} vs {SEED_INDEXED_FIND_ITEMS_PER_SEC} items/s)")
print(f"  shard scan vs seed baseline: {shard_scan_speedup}x "
      f"({shard_scan} vs {SEED_INDEXED_FIND_ITEMS_PER_SEC} items/s)")
print(f"  cold start: replay {cold_replay_ms}ms vs flat snapshot "
      f"{cold_flat_ms}ms ({cold_speedup}x)")

failed = []
if (group or 0) < GROUP_COMMIT_FLOOR_ITEMS_PER_SEC:
    failed.append("group commit below the rebuild-per-publish catalog's rate")
if (isolation_ratio or 0) < 0.8:
    failed.append("reads under writes dropped > 20% vs no-writer baseline")
if (indexed_speedup or 0) < 10:
    failed.append("selective indexed find < 10x the pre-compression seed rate")
if (shard_scan_speedup or 0) < 10:
    failed.append("shard scan < 10x the pre-compression seed rate")
if (cold_speedup or 0) <= 1.0:
    failed.append("flat-snapshot cold start not cheaper than full replay")
if failed:
    print("CATALOG-COMMIT REGRESSION:", failed)
    sys.exit(1)
PYEOF

# Commit cost must not grow with the catalog (O(keys touched) commits).
python3 "$REPO_ROOT/tools/check_bench_floor.py" --ceiling \
  --relative-to "BM_CommitCost/2500/manual_time" "$CONC_OUT" \
  "BM_CommitCost/80000/manual_time" 2 commit_us

# Flat-snapshot cold start at most half of full journal replay
# (recorded 11.0 vs 46.7 ms; the speedup above only requires > 1x).
python3 "$REPO_ROOT/tools/check_bench_floor.py" --ceiling \
  --relative-to "BM_ColdStartReplay/real_time" "$CONC_OUT" \
  "BM_ColdStartFlatSnapshot/real_time" 0.5 real_time

# Fault tolerance: workflow success rates under injected job/transfer
# failures and a mid-run site crash with data loss. The acceptance bar
# (10%/10% faults + crash -> >= 99% success) is checked here so a
# regression fails the script.
FAULT_OUT="$BUILD_DIR/bench_fault_recovery.json"
"$BUILD_DIR/bench/bench_fault_recovery" \
  --benchmark_out="$FAULT_OUT" --benchmark_out_format=json \
  --benchmark_min_time=0.2

assert_release "$FAULT_OUT"

python3 - "$FAULT_OUT" "$FAULT_JSON" <<'PYEOF'
import json
import sys

src_path, out_path = sys.argv[1:3]
with open(src_path) as f:
    raw = json.load(f)

scenarios = {}
for b in raw.get("benchmarks", []):
    name = b["name"]  # e.g. BM_FaultSweep/10/10
    scenarios[name] = {
        "success_rate": b.get("success_rate"),
        "runs": b.get("runs"),
        "job_failures_per_run": b.get("job_failures_per_run"),
        "transfer_failures_per_run": b.get("transfer_failures_per_run"),
        "failovers_per_run": b.get("failovers_per_run"),
        "rederivations_per_run": b.get("rederivations_per_run"),
        "backoff_s_per_run": b.get("backoff_s_per_run"),
        "sim_makespan_s_avg": b.get("sim_makespan_s_avg"),
    }

result = {
    "context": raw.get("context", {}),
    "scenarios": scenarios,
    "benchmarks": raw.get("benchmarks", []),
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

print("wrote", out_path)
failed = []
for name, s in sorted(scenarios.items()):
    rate = s.get("success_rate")
    if rate is None:
        continue
    print(f"  {name}: success_rate={rate:.4f} over {int(s['runs'] or 0)} runs")
    if rate < 0.99:
        failed.append(name)
if failed:
    print("FAULT-TOLERANCE REGRESSION: success_rate < 0.99 in:", failed)
    sys.exit(1)
PYEOF

# Wire-layer chaos: client-visible availability with 5% connection
# resets + 5% frame corruption injected under the resilient client
# (two replica endpoints). The DESIGN.md §14 acceptance bar — at most
# one hard failure per thousand calls — is gated below and the stats
# land in BENCH_fault.json next to the workflow-level fault sweeps.
WIREFAULT_OUT="$BUILD_DIR/bench_wire_faults.json"
"$BUILD_DIR/bench/bench_wire_faults" \
  --benchmark_out="$WIREFAULT_OUT" --benchmark_out_format=json \
  --benchmark_min_time=0.2

assert_release "$WIREFAULT_OUT"

python3 "$REPO_ROOT/tools/check_bench_floor.py" "$WIREFAULT_OUT" \
  "BM_WireFaultAvailability/5/5" 0.999 availability

python3 - "$WIREFAULT_OUT" "$FAULT_JSON" <<'PYEOF'
import json
import sys

wire_path, fault_path = sys.argv[1:3]
with open(wire_path) as f:
    wire = json.load(f)
with open(fault_path) as f:
    fault = json.load(f)

scenarios = {}
for b in wire.get("benchmarks", []):
    name = b["name"]  # e.g. BM_WireFaultAvailability/5/5
    scenarios[name] = {
        "availability": b.get("availability"),
        "faults_injected": b.get("faults_injected"),
        "resets": b.get("resets"),
        "corruptions": b.get("corruptions"),
        "retries": b.get("retries"),
        "reconnects": b.get("reconnects"),
        "failovers": b.get("failovers"),
        "exhausted_calls": b.get("exhausted_calls"),
        "calls_per_sec": b.get("items_per_second"),
    }

fault["wire"] = scenarios
fault["benchmarks"] = fault.get("benchmarks", []) + wire.get("benchmarks", [])
with open(fault_path, "w") as f:
    json.dump(fault, f, indent=2)
    f.write("\n")

print("merged wire chaos results into", fault_path)
for name, s in sorted(scenarios.items()):
    avail = s.get("availability")
    if avail is None:
        continue
    print(f"  {name}: availability={avail:.4f} "
          f"({int(s.get('faults_injected') or 0)} faults, "
          f"{int(s.get('reconnects') or 0)} reconnects, "
          f"{int(s.get('retries') or 0)} retries)")
PYEOF

# Federation transport: round trips per FIG3 chain walk and per FIG4
# index refresh over WireCatalogClient -> CatalogServer, in naive /
# batched / cached modes, plus the loss+outage fault sweep on the
# resilient client over the fault shim. Gates: batching+cache must cut
# round trips >= 5x vs naive per-call RPC on both figures, and the
# fault sweep must complete with retries, not hard failures.
FED_OUT="$BUILD_DIR/bench_fed_rpc.json"
"$BUILD_DIR/bench/bench_fed_rpc" \
  --benchmark_out="$FED_OUT" --benchmark_out_format=json \
  --benchmark_min_time=0.2

assert_release "$FED_OUT"

python3 - "$FED_OUT" "$FED_JSON" <<'PYEOF'
import json
import sys

src_path, out_path = sys.argv[1:3]
with open(src_path) as f:
    raw = json.load(f)

trips = {}
sweep = {}
for b in raw.get("benchmarks", []):
    name = b["name"]
    if "round_trips" in b:
        trips[name] = b["round_trips"]
    if name.startswith("BM_FaultSweep"):
        sweep = {
            "retries": b.get("retries"),
            "lost_calls": b.get("lost_calls"),
            "outage_rejections": b.get("outage_rejections"),
            "failures": b.get("failures"),
        }

def ratio(naive, optimized):
    n, o = trips.get(naive), trips.get(optimized)
    if n is None or o is None:
        return None
    return round(n / max(o, 1e-9), 1)

savings = {
    # FIG3 steady state: batching collapses each chain link to one
    # compound trip, the cache amortizes repeat walks to ~zero.
    "fig3_chain_walk_naive_vs_cached":
        ratio("BM_Fig3ChainWalk_NaiveRpc", "BM_Fig3ChainWalk_CachedRpc"),
    "fig3_chain_walk_naive_vs_batched":
        ratio("BM_Fig3ChainWalk_NaiveRpc", "BM_Fig3ChainWalk_BatchedRpc"),
    # FIG4: a delta refresh at churn K costs K+2 trips naive, 3 batched.
    "fig4_refresh_naive_vs_batched":
        ratio("BM_Fig4Refresh_NaiveRpc", "BM_Fig4Refresh_BatchedRpc"),
    # Executor provenance write-back: the whole replica/invocation/
    # annotation batch ships as one compound trip instead of one per op.
    "executor_writeback_naive_vs_batched":
        ratio("BM_ExecutorWriteBack_NaiveRpc",
              "BM_ExecutorWriteBack_BatchedRpc"),
}

result = {
    "context": raw.get("context", {}),
    "round_trips_per_op": trips,
    "round_trips_saved": savings,
    "fault_sweep": sweep,
    "benchmarks": raw.get("benchmarks", []),
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

print("wrote", out_path)
for name, t in sorted(trips.items()):
    print(f"  {name}: {t:.3f} round trips/op")
for k, v in sorted(savings.items()):
    print(f"  {k}: {v}x")

failed = []
if (savings["fig3_chain_walk_naive_vs_cached"] or 0) < 5:
    failed.append("fig3 chain walk: batching+cache < 5x vs naive RPC")
if (savings["fig4_refresh_naive_vs_batched"] or 0) < 5:
    failed.append("fig4 refresh: batching < 5x vs naive RPC")
wb_naive = trips.get("BM_ExecutorWriteBack_NaiveRpc")
wb_batched = trips.get("BM_ExecutorWriteBack_BatchedRpc")
if wb_naive is None or wb_naive < 5:
    failed.append("executor write-back: naive RPC should cost >= 5 trips")
if wb_batched is None or wb_batched > 1.01:
    failed.append("executor write-back: batched RPC should be ONE trip")
if sweep.get("failures", 1) != 0:
    failed.append("fault sweep finished with hard failures")
if not sweep.get("retries"):
    failed.append("fault sweep exercised no retries")
if failed:
    print("FEDERATION-TRANSPORT REGRESSION:", failed)
    sys.exit(1)
PYEOF

# Real wire path: binary-codec encode/decode throughput and full
# client -> pipe -> worker-pool server round trips (workers 1..8),
# merged into BENCH_federation.json next to the round-trip counts.
# Floors (tools/check_bench_floor.py) are ~1/4 of the rates measured
# on the 1-CPU reference host — loose enough for shared runners, tight
# enough to catch the codec or server degrading by integer factors.
WIRE_OUT="$BUILD_DIR/bench_wire_server.json"
"$BUILD_DIR/bench/bench_wire_server" \
  --benchmark_out="$WIRE_OUT" --benchmark_out_format=json \
  --benchmark_min_time=0.2

assert_release "$WIRE_OUT"

# Reference-host rates (1-CPU dev box): request encode+decode ~3.6M/s,
# dataset-response encode+decode ~254K/s, single-worker round trip
# ~220K calls/s of CPU time.
python3 "$REPO_ROOT/tools/check_bench_floor.py" "$WIRE_OUT" \
  BM_WireEncodeDecodeRequest 900000
python3 "$REPO_ROOT/tools/check_bench_floor.py" "$WIRE_OUT" \
  BM_WireEncodeDecodeResponse 60000
python3 "$REPO_ROOT/tools/check_bench_floor.py" "$WIRE_OUT" \
  "BM_WireServerRoundTrip/1" 55000
# The rate above is calls per second of the CALLING thread's CPU time,
# which counts the caller's awake wait for a reply but not a park.
# Gate the wall-clock round trip too: ~6 us on a 4-vCPU host when calls
# follow back to back and neither side parks (7-22 us when both parked
# on every call), ~41 us when both sides park after a pause
# (BM_WireServerSpacedRoundTrip); a parked handoff costs 10-25 us there.
# The ceiling trips on an extra parked handoff per call.
python3 "$REPO_ROOT/tools/check_bench_floor.py" --ceiling "$WIRE_OUT" \
  "BM_WireServerRoundTrip/1" 100000 real_time

python3 - "$WIRE_OUT" "$FED_JSON" <<'PYEOF'
import json
import sys

wire_path, fed_path = sys.argv[1:3]
with open(wire_path) as f:
    wire = json.load(f)
with open(fed_path) as f:
    fed = json.load(f)

items = {}
rtt_by_workers = {}
frame_bytes = None
spaced_us = None
for b in wire.get("benchmarks", []):
    name = b["name"]
    base = name.split("/")[0]
    rate = b.get("items_per_second", 0.0)
    if base == "BM_WireServerSpacedRoundTrip":
        spaced_us = round(b.get("real_time", 0.0) / 1e3, 2)
    elif base == "BM_WireServerRoundTrip":
        rtt_by_workers[int(b.get("workers", name.rsplit("/", 1)[1]))] = {
            "calls_per_sec": round(rate),
            "round_trip_us": round(b.get("real_time", 0.0) / 1e3, 2),
        }
    else:
        items[base] = round(rate)
    if base == "BM_WireEncodeDecodeResponse":
        frame_bytes = b.get("frame_bytes")

fed["wire"] = {
    "encode_decode_request_frames_per_sec":
        items.get("BM_WireEncodeDecodeRequest"),
    "encode_decode_response_frames_per_sec":
        items.get("BM_WireEncodeDecodeResponse"),
    "response_frame_bytes": frame_bytes,
    "round_trip_by_workers": rtt_by_workers,
    # One worker, calls ~200 us apart: both sides park on every trip.
    "spaced_round_trip_us": spaced_us,
    "apply_batch_calls_per_sec": items.get("BM_WireServerApplyBatch"),
}
fed["benchmarks"] = fed.get("benchmarks", []) + wire.get("benchmarks", [])

with open(fed_path, "w") as f:
    json.dump(fed, f, indent=2)
    f.write("\n")

print("merged wire results into", fed_path)
for k, v in sorted(items.items()):
    print(f"  {k}: {v:,} frames/s")
for workers, point in sorted(rtt_by_workers.items()):
    print(f"  round trip, {workers} worker(s): {point['round_trip_us']}us "
          f"({point['calls_per_sec']:,} calls/s)")
print(f"  spaced round trip, 1 worker: {spaced_us}us")
PYEOF
