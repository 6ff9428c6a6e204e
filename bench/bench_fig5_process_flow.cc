// FIG5 — Figure 5 is the virtual-data process flow: composition ->
// planning (-> estimation) -> derivation -> discovery/sharing. This
// bench times each facet of the loop separately and then the whole
// loop end-to-end for one virtual data product on the simulated grid.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "estimator/estimator.h"
#include "executor/executor.h"
#include "planner/planner.h"
#include "provenance/provenance.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

constexpr const char* kPipelineVdl = R"(
TR simulate( output events, input config, none nevents="1000" ) {
  argument n = "-n "${none:nevents};
  argument stdin = ${input:config};
  argument stdout = ${output:events};
  exec = "/bin/simulate";
}
TR analyze( output summary, input events ) {
  argument stdin = ${input:events};
  argument stdout = ${output:summary};
  exec = "/bin/analyze";
}
)";

// Composition: parse + define a TR/DV pair (fresh names each time).
void BM_Composition(benchmark::State& state) {
  Logger::set_threshold(LogLevel::kError);
  VirtualDataCatalog catalog("flow.org");
  if (!catalog.Open().ok()) std::abort();
  if (!catalog.ImportVdl(kPipelineVdl).ok()) std::abort();
  if (!catalog.ImportVdl("DS cfg : Dataset size=\"1024\";").ok()) {
    std::abort();
  }
  int64_t i = 0;
  for (auto _ : state) {
    std::string n = std::to_string(i++);
    Status s = catalog.ImportVdl(
        "DV sim" + n + "->simulate( events=@{output:\"evts" + n +
        "\"}, config=@{input:\"cfg\"}, nevents=\"" + n + "\" );");
    if (!s.ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Composition);

struct FlowWorld {
  VirtualDataCatalog catalog{"flow.org"};
  InProcessCatalogClient client{&catalog};
  GridSimulator grid{workload::SmallTestbed(), 1};
  CostEstimator estimator;
  std::unique_ptr<RequestPlanner> planner;
  std::unique_ptr<WorkflowEngine> engine;

  FlowWorld() {
    Logger::set_threshold(LogLevel::kError);
    if (!catalog.Open().ok()) std::abort();
    if (!catalog.ImportVdl(kPipelineVdl).ok()) std::abort();
    if (!catalog.ImportVdl("DS cfg : Dataset size=\"65536\";").ok()) {
      std::abort();
    }
    if (!grid.PlaceFile("east", "cfg", 65536, true).ok()) std::abort();
    Replica r;
    r.dataset = "cfg";
    r.site = "east";
    r.size_bytes = 65536;
    if (!catalog.AddReplica(r).ok()) std::abort();
    planner = std::make_unique<RequestPlanner>(client, grid.topology(),
                                               &grid.rls(), estimator);
    engine = std::make_unique<WorkflowEngine>(&grid, client);
  }

  // Adds the two-stage derivation chain for generation `i`.
  void Compose(int64_t i) {
    std::string n = std::to_string(i);
    Status s = catalog.ImportVdl(
        "DV sim" + n + "->simulate( events=@{output:\"evts" + n +
        "\"}, config=@{input:\"cfg\"}, nevents=\"" + n + "\" );"
        "DV ana" + n + "->analyze( summary=@{output:\"sum" + n +
        "\"}, events=@{input:\"evts" + n + "\"} );");
    if (!s.ok()) std::abort();
  }
};

// Planning: resolve the two-stage chain into an execution plan.
void BM_Planning(benchmark::State& state) {
  FlowWorld world;
  world.Compose(0);
  PlannerOptions options;
  options.target_site = "east";
  for (auto _ : state) {
    Result<ExecutionPlan> plan = world.planner->Plan("sum0", options);
    benchmark::DoNotOptimize(plan);
    if (!plan.ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Planning);

// Estimation: the rerun-vs-fetch cost decision alone.
void BM_Estimation(benchmark::State& state) {
  FlowWorld world;
  world.Compose(0);
  PlannerOptions options;
  options.target_site = "east";
  for (auto _ : state) {
    Result<RequestPlanner::ModeDecision> decision =
        world.planner->DecideMode("sum0", options);
    benchmark::DoNotOptimize(decision);
    if (!decision.ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Estimation);

// Derivation: execute the planned workflow on the simulated grid
// (plan + simulate + provenance recording).
void BM_Derivation(benchmark::State& state) {
  FlowWorld world;
  PlannerOptions options;
  options.target_site = "east";
  int64_t i = 0;
  for (auto _ : state) {
    world.Compose(i);
    Result<ExecutionPlan> plan =
        world.planner->Plan("sum" + std::to_string(i), options);
    if (!plan.ok()) std::abort();
    Result<WorkflowResult> result = world.engine->Execute(*plan);
    if (!result.ok() || !result->succeeded) std::abort();
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Derivation);

// Discovery: find what exists now and trace one product's lineage.
void BM_Discovery(benchmark::State& state) {
  FlowWorld world;
  PlannerOptions options;
  options.target_site = "east";
  for (int64_t i = 0; i < 32; ++i) {
    world.Compose(i);
    Result<ExecutionPlan> plan =
        world.planner->Plan("sum" + std::to_string(i), options);
    if (!plan.ok()) std::abort();
    if (!world.engine->Execute(*plan).ok()) std::abort();
  }
  InProcessCatalogClient catalog_client(&world.catalog);
  ProvenanceTracker tracker(catalog_client);
  DatasetQuery query;
  query.name_prefix = "sum";
  query.require_materialized = true;
  for (auto _ : state) {
    NameList found = world.catalog.FindDatasets(query);
    if (found.size() != 32) std::abort();
    Result<LineageNode> lineage = tracker.Lineage(found[0]);
    benchmark::DoNotOptimize(lineage);
    if (!lineage.ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Discovery);

// The full Figure 5 loop: compose -> plan -> estimate -> derive ->
// discover, once per iteration, each on a fresh virtual product.
void BM_FullCycle(benchmark::State& state) {
  FlowWorld world;
  PlannerOptions options;
  options.target_site = "east";
  InProcessCatalogClient catalog_client(&world.catalog);
  ProvenanceTracker tracker(catalog_client);
  int64_t i = 0;
  double sim_seconds = 0;
  for (auto _ : state) {
    world.Compose(i);
    std::string target = "sum" + std::to_string(i);
    Result<RequestPlanner::ModeDecision> decision =
        world.planner->DecideMode(target, options);
    if (!decision.ok()) std::abort();
    Result<ExecutionPlan> plan = world.planner->Plan(target, options);
    if (!plan.ok()) std::abort();
    Result<WorkflowResult> result = world.engine->Execute(*plan);
    if (!result.ok() || !result->succeeded) std::abort();
    sim_seconds += result->makespan_s;
    Result<LineageNode> lineage = tracker.Lineage(target);
    if (!lineage.ok()) std::abort();
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["simulated_makespan_s"] =
      benchmark::Counter(sim_seconds, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FullCycle);

}  // namespace
}  // namespace vdg
