// Concurrent-read throughput of the snapshot-isolated catalog.
// Sweeps reader thread count 1..16 over indexed discovery queries and
// point lookups against a fixed catalog, plus a contended variant
// where thread 0 writes while the rest read. Reads pin an immutable
// snapshot (no catalog lock at all), so read-only throughput should
// scale with threads and a concurrent writer should barely dent
// reader latency; tools/run_bench.sh records the per-thread items/sec
// curve into BENCH_concurrency.json and gates commit cost (flat in
// catalog size), group commit (absolute throughput) and snapshot
// isolation (reads under writes within 20% of the no-writer baseline).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "catalog/query.h"
#include "federation/index.h"

namespace vdg {
namespace {

constexpr size_t kCatalogSize = 2000;
constexpr int kBatchSize = 64;

using bench::ShardQuery;

/// Explicit read-rate counters. The old reporting set only
/// SetItemsProcessed, whose items/sec rendering under ThreadRange +
/// UseRealTime mixes per-thread iteration counts with wall time in a
/// way that reads as a flat curve regardless of scaling. Counters make
/// the aggregation explicit and machine-readable: kIsRate sums every
/// thread's count and divides by wall time (aggregate reader
/// throughput, what run_bench.sh records and gates), and adding
/// kAvgThreads divides that by the thread count (per-thread rate — flat
/// means perfect scaling, 1/N means a serialized hot path).
void ReportReadRates(benchmark::State& state, double items) {
  state.counters["agg_items_per_sec"] =
      benchmark::Counter(items, benchmark::Counter::kIsRate);
  state.counters["per_thread_items_per_sec"] = benchmark::Counter(
      items, benchmark::Counter::kIsRate | benchmark::Counter::kAvgThreads);
}

void BM_ConcIndexedFind(benchmark::State& state) {
  const VirtualDataCatalog* catalog = bench::ShardedCatalog(kCatalogSize);
  int64_t shard = state.thread_index() % 16;
  size_t found = 0;
  for (auto _ : state) {
    found += catalog->FindDatasets(ShardQuery(shard)).size();
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  ReportReadRates(state, static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ConcIndexedFind)->ThreadRange(1, 16)->UseRealTime();

void BM_ConcPointLookup(benchmark::State& state) {
  const VirtualDataCatalog* catalog = bench::ShardedCatalog(kCatalogSize);
  NameList names = catalog->AllDatasetNames();
  size_t i = static_cast<size_t>(state.thread_index()) * 37;
  size_t hits = 0;
  for (auto _ : state) {
    Result<Dataset> ds = catalog->GetDataset(names[i++ % names.size()]);
    if (ds.ok()) ++hits;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  ReportReadRates(state, static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ConcPointLookup)->ThreadRange(1, 16)->UseRealTime();

// Readers with one writer thread mutating annotations: measures how
// much a writer publishing fresh snapshots degrades readers (with
// snapshot isolation, it should not — readers never take the lock).
void BM_ConcReadWithWriter(benchmark::State& state) {
  VirtualDataCatalog* catalog = bench::ShardedCatalog(kCatalogSize);
  if (state.thread_index() == 0) {
    NameList names = catalog->AllDatasetNames();
    size_t i = 0;
    for (auto _ : state) {
      Status s = catalog->Annotate(
          "dataset", names[i % names.size()], "shard",
          AttributeValue(static_cast<int64_t>(i % 16)));
      benchmark::DoNotOptimize(s.ok());
      ++i;
    }
    state.SetItemsProcessed(0);  // count reader throughput only
    ReportReadRates(state, 0.0);
  } else {
    int64_t shard = state.thread_index() % 16;
    size_t found = 0;
    for (auto _ : state) {
      found += catalog->FindDatasets(ShardQuery(shard)).size();
    }
    benchmark::DoNotOptimize(found);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    ReportReadRates(state, static_cast<double>(state.iterations()));
  }
}
BENCHMARK(BM_ConcReadWithWriter)->ThreadRange(2, 16)->UseRealTime();

// Index lookups while a refresher keeps the snapshot current.
void BM_ConcFederatedLookup(benchmark::State& state) {
  static FederatedIndex* index = [] {
    auto* idx = new FederatedIndex("conc-bench");
    if (!idx->AddSource(bench::ShardedCatalog(kCatalogSize)).ok()) {
      std::abort();
    }
    if (!idx->Refresh().ok()) std::abort();
    return idx;
  }();
  int64_t shard = state.thread_index() % 16;
  size_t found = 0;
  for (auto _ : state) {
    found += index->FindDatasets(ShardQuery(shard)).size();
    if (index->IsStale() && !index->Refresh().ok()) std::abort();
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  ReportReadRates(state, static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ConcFederatedLookup)->ThreadRange(1, 16)->UseRealTime();

// ---------------------------------------------------------------------
// Group commit: N mutations through ApplyBatch (one lock, one version
// bump, one journal flush) versus N single-op calls each paying the
// full commit (journal flush + snapshot publication) on its own.
// ---------------------------------------------------------------------

/// Fresh journaled catalog seeded with kCatalogSize/4 datasets; each
/// commit pays real journal I/O, as a durable deployment would.
std::unique_ptr<VirtualDataCatalog> JournaledCatalog(
    std::vector<std::string>* names) {
  static int counter = 0;
  std::string path = "/tmp/vdg_bench_journal_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(counter++) + ".log";
  std::remove(path.c_str());
  Logger::set_threshold(LogLevel::kError);
  auto catalog = std::make_unique<VirtualDataCatalog>(
      "batch-bench", std::make_unique<FileJournal>(path));
  if (!catalog->Open().ok()) std::abort();
  std::vector<CatalogMutation> defs;
  for (size_t i = 0; i < kCatalogSize / 4; ++i) {
    Dataset ds;
    ds.name = "bb" + std::to_string(i);
    ds.size_bytes = 1 << 20;
    ds.descriptor = DatasetDescriptor::File("/bench/" + ds.name);
    names->push_back(ds.name);
    defs.push_back(CatalogMutation::DefineDataset(std::move(ds)));
  }
  BatchOptions seed;
  seed.stop_on_error = true;
  if (!catalog->ApplyBatch(defs, seed).first_error.ok()) std::abort();
  return catalog;
}

void BM_ApplyBatch_PerRecordCommit(benchmark::State& state) {
  std::vector<std::string> names;
  std::unique_ptr<VirtualDataCatalog> catalog = JournaledCatalog(&names);
  size_t i = 0;
  for (auto _ : state) {
    for (int k = 0; k < kBatchSize; ++k) {
      Status s = catalog->Annotate("dataset", names[i % names.size()],
                                   "tick", static_cast<int64_t>(i));
      if (!s.ok()) std::abort();
      ++i;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kBatchSize);
  state.counters["batch_size"] = kBatchSize;
}
BENCHMARK(BM_ApplyBatch_PerRecordCommit);

void BM_ApplyBatch_GroupCommit(benchmark::State& state) {
  std::vector<std::string> names;
  std::unique_ptr<VirtualDataCatalog> catalog = JournaledCatalog(&names);
  size_t i = 0;
  for (auto _ : state) {
    std::vector<CatalogMutation> ops;
    ops.reserve(kBatchSize);
    for (int k = 0; k < kBatchSize; ++k) {
      ops.push_back(CatalogMutation::Annotate(
          "dataset", names[i % names.size()], "tick",
          AttributeValue(static_cast<int64_t>(i))));
      ++i;
    }
    BatchResult applied = catalog->ApplyBatch(ops);
    if (!applied.first_error.ok()) std::abort();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kBatchSize);
  state.counters["batch_size"] = kBatchSize;
}
BENCHMARK(BM_ApplyBatch_GroupCommit);

// ---------------------------------------------------------------------
// Commit cost vs catalog size. One commit is the writer's whole path:
// apply, journal, publish the next snapshot generation. With the
// copy-on-write generations a commit copies only the nodes it touches,
// so cost(80k datasets) must stay within 2x cost(2.5k) (gated in
// tools/run_bench.sh). Each iteration times one single Annotate, one
// single DefineDerivation (new output), and one executor write-back
// (a 4-op ApplyBatch: derivation, replica, invocation, annotation),
// then removes what it added, untimed, so the catalog keeps its size.
// ---------------------------------------------------------------------

/// A catalog of `datasets` annotated datasets plus one derivation per
/// eight of them, loaded in 1000-op batches.
VirtualDataCatalog* CommitCostCatalog(size_t datasets) {
  static std::map<size_t, std::unique_ptr<VirtualDataCatalog>>* cache =
      new std::map<size_t, std::unique_ptr<VirtualDataCatalog>>();
  std::unique_ptr<VirtualDataCatalog>& slot = (*cache)[datasets];
  if (slot != nullptr) return slot.get();
  slot = std::make_unique<VirtualDataCatalog>("commit-cost");
  if (!slot->Open().ok()) std::abort();
  Transformation tr("step", Transformation::Kind::kSimple);
  FormalArg out;
  out.name = "out";
  out.direction = ArgDirection::kOut;
  FormalArg in;
  in.name = "in";
  in.direction = ArgDirection::kIn;
  if (!tr.AddArg(out).ok() || !tr.AddArg(in).ok()) std::abort();
  tr.set_executable("/bin/step");
  if (!slot->DefineTransformation(tr).ok()) std::abort();
  std::vector<CatalogMutation> batch;
  auto flush = [&] {
    if (!slot->ApplyBatch(batch).first_error.ok()) std::abort();
    batch.clear();
  };
  for (size_t i = 0; i < datasets; ++i) {
    Dataset ds;
    ds.name = "cc" + std::to_string(i * 7919 % datasets);
    ds.descriptor = DatasetDescriptor::File("/cc/" + ds.name);
    ds.annotations.Set("bin", static_cast<int64_t>(i % 32));
    ds.annotations.Set("tier", i % 3 == 0 ? "gold" : "std");
    batch.push_back(CatalogMutation::DefineDataset(std::move(ds)));
    if (batch.size() == 1000) flush();
  }
  for (size_t i = 0; i < datasets / 8; ++i) {
    Derivation dv("ccv" + std::to_string(i), "step");
    if (!dv.AddArg(ActualArg::DatasetRef("in", "cc" + std::to_string(i),
                                         ArgDirection::kIn))
             .ok() ||
        !dv.AddArg(ActualArg::DatasetRef("out", "cco" + std::to_string(i),
                                         ArgDirection::kOut))
             .ok()) {
      std::abort();
    }
    batch.push_back(CatalogMutation::DefineDerivation(std::move(dv)));
    if (batch.size() == 1000) flush();
  }
  if (!batch.empty()) flush();
  return slot.get();
}

void BM_CommitCost(benchmark::State& state) {
  const size_t datasets = static_cast<size_t>(state.range(0));
  VirtualDataCatalog* catalog = CommitCostCatalog(datasets);
  using Clock = std::chrono::steady_clock;
  auto micros = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  auto step = [](const std::string& name, const std::string& input,
                 const std::string& output) {
    Derivation dv(name, "step");
    if (!dv.AddArg(ActualArg::DatasetRef("in", input, ArgDirection::kIn))
             .ok() ||
        !dv.AddArg(ActualArg::DatasetRef("out", output, ArgDirection::kOut))
             .ok()) {
      std::abort();
    }
    return dv;
  };
  double annotate_us = 0, derive_us = 0, writeback_us = 0;
  size_t i = 0;
  for (auto _ : state) {
    const std::string input = "cc" + std::to_string(i * 104729 % datasets);
    const std::string n = std::to_string(i++);
    Replica replica;
    replica.dataset = "cbo" + n;
    replica.site = "site-a";
    Invocation invocation;
    invocation.derivation = "cbv" + n;
    std::vector<CatalogMutation> writeback = {
        CatalogMutation::DefineDerivation(step("cbv" + n, input, "cbo" + n)),
        CatalogMutation::AddReplica(std::move(replica)),
        CatalogMutation::RecordInvocation(std::move(invocation), {1}),
        CatalogMutation::Annotate("dataset", "cbo" + n, "campaign",
                                  AttributeValue(static_cast<int64_t>(i)))};
    Derivation single = step("csv" + n, input, "cso" + n);

    const Clock::time_point t0 = Clock::now();
    if (!catalog->Annotate("dataset", input, "tick",
                           AttributeValue(static_cast<int64_t>(i)))
             .ok()) {
      std::abort();
    }
    const Clock::time_point t1 = Clock::now();
    if (!catalog->DefineDerivation(std::move(single)).ok()) std::abort();
    const Clock::time_point t2 = Clock::now();
    if (!catalog->ApplyBatch(writeback).first_error.ok()) std::abort();
    const Clock::time_point t3 = Clock::now();
    annotate_us += micros(t0, t1);
    derive_us += micros(t1, t2);
    writeback_us += micros(t2, t3);
    state.SetIterationTime(std::chrono::duration<double>(t3 - t0).count());

    // Untimed: take the additions back out so the size stays put.
    if (!catalog->RemoveDerivation("csv" + n).ok() ||
        !catalog->RemoveDataset("cso" + n).ok() ||
        !catalog->RemoveDerivation("cbv" + n).ok() ||
        !catalog->RemoveDataset("cbo" + n).ok()) {
      std::abort();
    }
  }
  const auto per_iteration = benchmark::Counter::kAvgIterations;
  state.counters["annotate_us"] =
      benchmark::Counter(annotate_us, per_iteration);
  state.counters["derive_us"] = benchmark::Counter(derive_us, per_iteration);
  state.counters["writeback_us"] =
      benchmark::Counter(writeback_us, per_iteration);
  state.counters["commit_us"] = benchmark::Counter(
      (annotate_us + derive_us + writeback_us) / 3, per_iteration);
  state.counters["datasets"] = static_cast<double>(datasets);
}
BENCHMARK(BM_CommitCost)->Arg(2500)->Arg(20000)->Arg(80000)->UseManualTime();

// ---------------------------------------------------------------------
// Snapshot isolation: query latency while a writer streams batches.
// The writer is rate-limited (one 16-op batch every ~4ms) so this
// measures isolation, not raw CPU contention on single-core hosts;
// the gate is reads-under-writes within 20% of the no-writer
// baseline below.
// ---------------------------------------------------------------------

void BM_SnapshotFindNoWriter(benchmark::State& state) {
  const VirtualDataCatalog* catalog = bench::ShardedCatalog(kCatalogSize);
  size_t found = 0;
  int64_t shard = 0;
  for (auto _ : state) {
    found += catalog->FindDatasets(ShardQuery(shard)).size();
    shard = (shard + 1) % 16;
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  ReportReadRates(state, static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SnapshotFindNoWriter)->UseRealTime();

void BM_SnapshotFindDuringWrites(benchmark::State& state) {
  VirtualDataCatalog* catalog = bench::ShardedCatalog(kCatalogSize);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batches{0};
  std::thread writer([&] {
    NameList names = catalog->AllDatasetNames();
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<CatalogMutation> ops;
      ops.reserve(16);
      for (int k = 0; k < 16; ++k) {
        ops.push_back(CatalogMutation::Annotate(
            "dataset", std::string(names[i % names.size()]), "writer.tick",
            AttributeValue(static_cast<int64_t>(i))));
        ++i;
      }
      if (!catalog->ApplyBatch(ops).first_error.ok()) std::abort();
      batches.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
  });
  size_t found = 0;
  int64_t shard = 0;
  for (auto _ : state) {
    found += catalog->FindDatasets(ShardQuery(shard)).size();
    shard = (shard + 1) % 16;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  ReportReadRates(state, static_cast<double>(state.iterations()));
  state.counters["writer_batches"] =
      static_cast<double>(batches.load(std::memory_order_relaxed));
}
BENCHMARK(BM_SnapshotFindDuringWrites)->UseRealTime();

// ---------------------------------------------------------------------
// Compressed discovery indexes: the >= 10x throughput gate shape.
// Single equality predicate served straight off a posting list, a
// skewed conjunction (tiny list gallops into a large one), and a
// dense x dense conjunction (blockwise bitmap AND). run_bench.sh
// records these and gates the Skewed conjunction's rate at >= 10x the
// pre-compression seed baseline (it isolates the index layer; the
// 164-name shard scan is bounded by result string copies and is gated
// separately at >= 3x).
// ---------------------------------------------------------------------

/// ShardedCatalog plus two more indexed annotations: "parity" (dense:
/// half the catalog each) and "rare" (sparse: ~1%). Annotations never
/// change shard-query membership, so sharing the cached catalog with
/// the scaling benches above is safe.
VirtualDataCatalog* CompressedBenchCatalog() {
  static VirtualDataCatalog* catalog = [] {
    VirtualDataCatalog* c = bench::ShardedCatalog(kCatalogSize);
    NameList names = c->AllDatasetNames();
    for (size_t i = 0; i < names.size(); ++i) {
      Status s = c->Annotate("dataset", names[i], "parity",
                             AttributeValue(static_cast<int64_t>(i % 2)));
      if (!s.ok()) std::abort();
      if (i % 97 == 0) {
        s = c->Annotate("dataset", names[i], "rare",
                        AttributeValue(static_cast<int64_t>(1)));
        if (!s.ok()) std::abort();
      }
    }
    return c;
  }();
  return catalog;
}

void BM_IndexedFindCompressed(benchmark::State& state) {
  const VirtualDataCatalog* catalog = CompressedBenchCatalog();
  int64_t shard = 0;
  size_t found = 0;
  for (auto _ : state) {
    found += catalog->FindDatasets(ShardQuery(shard)).size();
    shard = (shard + 1) % 16;
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  ReportReadRates(state, static_cast<double>(state.iterations()));
}
BENCHMARK(BM_IndexedFindCompressed);

void BM_IndexedFindCompressedSkewed(benchmark::State& state) {
  const VirtualDataCatalog* catalog = CompressedBenchCatalog();
  DatasetQuery q;
  q.predicates = {
      AttributePredicate{"rare", PredicateOp::kEq,
                         AttributeValue(static_cast<int64_t>(1))},
      AttributePredicate{"parity", PredicateOp::kEq,
                         AttributeValue(static_cast<int64_t>(0))}};
  size_t found = 0;
  for (auto _ : state) {
    found += catalog->FindDatasets(q).size();
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  ReportReadRates(state, static_cast<double>(state.iterations()));
}
BENCHMARK(BM_IndexedFindCompressedSkewed);

void BM_IndexedFindCompressedDense(benchmark::State& state) {
  const VirtualDataCatalog* catalog = CompressedBenchCatalog();
  size_t found = 0;
  int64_t shard = 0;
  for (auto _ : state) {
    DatasetQuery q;
    q.predicates = {
        AttributePredicate{"parity", PredicateOp::kEq,
                           AttributeValue(shard % 2)},
        AttributePredicate{"shard", PredicateOp::kEq, AttributeValue(shard)}};
    found += catalog->FindDatasets(q).size();
    shard = (shard + 1) % 16;
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  ReportReadRates(state, static_cast<double>(state.iterations()));
}
BENCHMARK(BM_IndexedFindCompressedDense);

// ---------------------------------------------------------------------
// Cold start: full journal replay vs mmap-ed flat snapshot. The same
// populated catalog (one definition batch + annotation churn, so the
// journal history is longer than the live state) is reopened both
// ways; run_bench.sh emits the speedup into BENCH_concurrency.json.
// ---------------------------------------------------------------------

struct ColdStartPaths {
  std::string journal;
  std::string snapshot;
};

const ColdStartPaths& ColdStartFiles() {
  static ColdStartPaths* paths = [] {
    auto* p = new ColdStartPaths;
    p->journal = "/tmp/vdg_bench_cold_" + std::to_string(::getpid()) + ".log";
    p->snapshot = p->journal + ".snap";
    std::remove(p->journal.c_str());
    std::remove(p->snapshot.c_str());
    Logger::set_threshold(LogLevel::kError);
    VirtualDataCatalog catalog("cold-bench",
                               std::make_unique<FileJournal>(p->journal));
    if (!catalog.Open().ok()) std::abort();
    std::vector<CatalogMutation> defs;
    for (size_t i = 0; i < kCatalogSize; ++i) {
      Dataset ds;
      ds.name = "cs" + std::to_string(i);
      ds.size_bytes = 1 << 16;
      ds.annotations.Set("shard", static_cast<int64_t>(i % 16));
      defs.push_back(CatalogMutation::DefineDataset(std::move(ds)));
    }
    if (!catalog.ApplyBatch(defs).first_error.ok()) std::abort();
    for (int round = 0; round < 4; ++round) {
      std::vector<CatalogMutation> ticks;
      for (size_t i = 0; i < kCatalogSize; i += 2) {
        ticks.push_back(CatalogMutation::Annotate(
            "dataset", "cs" + std::to_string(i), "tick",
            AttributeValue(static_cast<int64_t>(round))));
      }
      if (!catalog.ApplyBatch(ticks).first_error.ok()) std::abort();
    }
    if (!catalog.SyncJournal().ok()) std::abort();
    if (!catalog.SaveSnapshotFile(p->snapshot).ok()) std::abort();
    return p;
  }();
  return *paths;
}

void BM_ColdStartReplay(benchmark::State& state) {
  const ColdStartPaths& files = ColdStartFiles();
  for (auto _ : state) {
    VirtualDataCatalog catalog("cold",
                               std::make_unique<FileJournal>(files.journal));
    if (!catalog.Open().ok()) std::abort();
    benchmark::DoNotOptimize(catalog.version());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ColdStartReplay)->UseRealTime();

void BM_ColdStartFlatSnapshot(benchmark::State& state) {
  const ColdStartPaths& files = ColdStartFiles();
  for (auto _ : state) {
    VirtualDataCatalog catalog("cold",
                               std::make_unique<FileJournal>(files.journal));
    if (!catalog.OpenFromSnapshot(files.snapshot).ok()) std::abort();
    if (!catalog.last_snapshot_load().used) std::abort();
    benchmark::DoNotOptimize(catalog.version());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ColdStartFlatSnapshot)->UseRealTime();

}  // namespace
}  // namespace vdg
