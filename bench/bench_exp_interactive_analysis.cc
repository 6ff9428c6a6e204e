// EXP-INTER — Section 6's "current work": interactive analysis with
// changeable codes, cut sets, and histograms, where the goal is "to
// produce, for each data point in the final graph, a detailed data
// lineage report on the datasets that contributed to the creation of
// that point".
//
// Series reproduced: lineage-report latency and size for the final
// graph as the session grows (iterations x cuts), and audit-trail
// extraction once the session has executed.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "estimator/estimator.h"
#include "executor/executor.h"
#include "planner/planner.h"
#include "provenance/provenance.h"
#include "workload/interactive.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

struct Session {
  std::unique_ptr<VirtualDataCatalog> catalog;
  workload::InteractiveWorkload workload;
};

Session* BuildSession(int iterations, int cuts, bool execute) {
  static std::map<std::tuple<int, int, bool>, std::unique_ptr<Session>>*
      cache =
          new std::map<std::tuple<int, int, bool>, std::unique_ptr<Session>>();
  auto key = std::make_tuple(iterations, cuts, execute);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second.get();

  Logger::set_threshold(LogLevel::kError);
  auto session = std::make_unique<Session>();
  session->catalog = std::make_unique<VirtualDataCatalog>("ana-bench.org");
  if (!session->catalog->Open().ok()) std::abort();
  workload::InteractiveOptions options;
  options.num_iterations = iterations;
  options.cuts_per_iteration = cuts;
  Result<workload::InteractiveWorkload> workload =
      workload::GenerateInteractive(session->catalog.get(), options);
  if (!workload.ok()) std::abort();
  session->workload = std::move(*workload);

  if (execute) {
    GridSimulator grid(workload::SmallTestbed(), 3);
    if (!grid.PlaceFile("east", session->workload.event_store,
                        512LL * 1024 * 1024, true)
             .ok()) {
      std::abort();
    }
    Replica r;
    r.dataset = session->workload.event_store;
    r.site = "east";
    r.size_bytes = 512LL * 1024 * 1024;
    if (!session->catalog->AddReplica(r).ok()) std::abort();
    CostEstimator estimator;
    InProcessCatalogClient client(session->catalog.get());
    RequestPlanner planner(client, grid.topology(), &grid.rls(),
                           estimator);
    WorkflowEngine engine(&grid, client);
    PlannerOptions popts;
    popts.target_site = "east";
    Result<ExecutionPlan> plan =
        planner.Plan(session->workload.final_graph, popts);
    if (!plan.ok()) std::abort();
    Result<WorkflowResult> result = engine.Execute(*plan);
    if (!result.ok() || !result->succeeded) std::abort();
  }
  Session* raw = session.get();
  cache->emplace(key, std::move(session));
  return raw;
}

// The per-point lineage report: latency and report size vs session
// scale.
void BM_LineageReportForFinalGraph(benchmark::State& state) {
  int iterations = static_cast<int>(state.range(0));
  int cuts = static_cast<int>(state.range(1));
  Session* session = BuildSession(iterations, cuts, /*execute=*/false);
  InProcessCatalogClient catalog_client(session->catalog.get());
  ProvenanceTracker tracker(catalog_client);
  size_t report_nodes = 0;
  size_t report_bytes = 0;
  for (auto _ : state) {
    Result<LineageNode> lineage =
        tracker.Lineage(session->workload.final_graph);
    if (!lineage.ok()) std::abort();
    report_nodes = CountLineageNodes(*lineage);
    std::string report = RenderLineage(*lineage);
    benchmark::DoNotOptimize(report);
    report_bytes = report.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["histograms"] = iterations * cuts;
  state.counters["report_nodes"] = static_cast<double>(report_nodes);
  state.counters["report_bytes"] = static_cast<double>(report_bytes);
}
BENCHMARK(BM_LineageReportForFinalGraph)
    ->Args({2, 2})
    ->Args({5, 3})
    ->Args({10, 5})
    ->Args({20, 10});

// Per-histogram (single data point) lineage, the inner loop of the
// paper's goal.
void BM_LineagePerHistogram(benchmark::State& state) {
  Session* session = BuildSession(10, 5, /*execute=*/false);
  InProcessCatalogClient catalog_client(session->catalog.get());
  ProvenanceTracker tracker(catalog_client);
  size_t i = 0;
  for (auto _ : state) {
    const std::string& hist =
        session->workload
            .histograms[i++ % session->workload.histograms.size()];
    Result<LineageNode> lineage = tracker.Lineage(hist);
    benchmark::DoNotOptimize(lineage);
    if (!lineage.ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LineagePerHistogram);

// After executing the session, the audit trail carries the actual
// invocation record behind each point.
void BM_AuditTrailAfterExecution(benchmark::State& state) {
  Session* session = BuildSession(5, 3, /*execute=*/true);
  InProcessCatalogClient catalog_client(session->catalog.get());
  ProvenanceTracker tracker(catalog_client);
  size_t trail_len = 0;
  for (auto _ : state) {
    Result<std::vector<Invocation>> trail =
        tracker.AuditTrail(session->workload.final_graph);
    if (!trail.ok()) std::abort();
    trail_len = trail->size();
  }
  state.SetItemsProcessed(state.iterations());
  // 15 selects + 15 hists + 1 graph = 31 invocations upstream.
  state.counters["trail_invocations"] = static_cast<double>(trail_len);
}
BENCHMARK(BM_AuditTrailAfterExecution);

// Discovery across code versions: which cut sets did version vK make?
void BM_DiscoveryByCodeVersion(benchmark::State& state) {
  Session* session = BuildSession(10, 5, /*execute=*/false);
  size_t i = 0;
  size_t hits = 0;
  for (auto _ : state) {
    DerivationQuery query;
    query.transformation =
        session->workload
            .analysis_codes[i++ % session->workload.analysis_codes.size()];
    NameList found =
        session->catalog->FindDerivations(query);
    benchmark::DoNotOptimize(found);
    hits = found.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["derivations_per_version"] = static_cast<double>(hits);
}
BENCHMARK(BM_DiscoveryByCodeVersion);

}  // namespace
}  // namespace vdg
