// EXP-CANON — Section 6: "We also created 'canonical' applications
// that could mimic arbitrary argument passing conventions and file I/O
// behavior, and used these to create large application dependency
// graphs to validate our provenance tracking mechanism."
//
// Series reproduced: dependency-graph construction rate, provenance
// validation (catalog answer == generator ground truth) across graph
// sizes from 10 to 5000 derivations, and lineage-query latency as the
// graph grows.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "provenance/provenance.h"

namespace vdg {
namespace {

void BM_GraphConstruction(benchmark::State& state) {
  Logger::set_threshold(LogLevel::kError);
  size_t n = static_cast<size_t>(state.range(0));
  int64_t run = 0;
  for (auto _ : state) {
    VirtualDataCatalog catalog("canon" + std::to_string(run++));
    if (!catalog.Open().ok()) std::abort();
    workload::CanonicalGraphOptions options;
    options.num_derivations = n;
    options.num_raw_inputs = std::max<size_t>(4, n / 20);
    options.seed = 42;
    Result<workload::CanonicalGraph> graph =
        workload::GenerateCanonicalGraph(&catalog, options);
    if (!graph.ok()) std::abort();
    benchmark::DoNotOptimize(graph);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.counters["graph_size"] = static_cast<double>(n);
}
BENCHMARK(BM_GraphConstruction)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

// The validation itself: every output's ancestor closure from the
// catalog must equal the generator's ground truth. The counter
// `mismatches` must be 0 — that is the experiment's result.
void BM_ProvenanceValidation(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  VirtualDataCatalog* catalog = bench::CachedCanonicalCatalog(n);
  const workload::CanonicalGraph& graph = bench::CachedCanonicalGraph(n);
  InProcessCatalogClient catalog_client(catalog);
  ProvenanceTracker tracker(catalog_client);
  size_t mismatches = 0;
  size_t checked = 0;
  for (auto _ : state) {
    mismatches = 0;
    checked = 0;
    for (const std::string& output : graph.outputs) {
      Result<std::set<std::string>> ancestors = tracker.Ancestors(output);
      if (!ancestors.ok()) std::abort();
      if (*ancestors != graph.TrueAncestors(output)) ++mismatches;
      ++checked;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(checked));
  state.counters["graph_size"] = static_cast<double>(n);
  state.counters["mismatches"] = static_cast<double>(mismatches);
}
BENCHMARK(BM_ProvenanceValidation)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_LineageQueryLatency(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  VirtualDataCatalog* catalog = bench::CachedCanonicalCatalog(n);
  const workload::CanonicalGraph& graph = bench::CachedCanonicalGraph(n);
  InProcessCatalogClient catalog_client(catalog);
  ProvenanceTracker tracker(catalog_client);
  // Query the sinks: the deepest lineages in the graph.
  size_t i = 0;
  size_t nodes = 0;
  for (auto _ : state) {
    const std::string& sink = graph.sinks[i++ % graph.sinks.size()];
    Result<std::set<std::string>> ancestors = tracker.Ancestors(sink);
    benchmark::DoNotOptimize(ancestors);
    if (!ancestors.ok()) std::abort();
    nodes = ancestors->size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["graph_size"] = static_cast<double>(n);
  state.counters["closure_size_last"] = static_cast<double>(nodes);
}
BENCHMARK(BM_LineageQueryLatency)->Arg(100)->Arg(1000)->Arg(5000);

void BM_DescendantsQuery(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  VirtualDataCatalog* catalog = bench::CachedCanonicalCatalog(n);
  const workload::CanonicalGraph& graph = bench::CachedCanonicalGraph(n);
  InProcessCatalogClient catalog_client(catalog);
  ProvenanceTracker tracker(catalog_client);
  size_t i = 0;
  for (auto _ : state) {
    const std::string& raw = graph.raw_inputs[i++ % graph.raw_inputs.size()];
    Result<std::set<std::string>> descendants = tracker.Descendants(raw);
    benchmark::DoNotOptimize(descendants);
    if (!descendants.ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["graph_size"] = static_cast<double>(n);
}
BENCHMARK(BM_DescendantsQuery)->Arg(100)->Arg(1000)->Arg(5000);

}  // namespace
}  // namespace vdg
