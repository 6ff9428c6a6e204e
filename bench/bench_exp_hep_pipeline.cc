// EXP-HEP — Section 6: the CMS collision-event simulation "consisted
// of four separate program executions with intermediate and final
// results passing between the stages", the last two stages using OODB
// files (multi-modal data). Expressed through the compound
// transformation, so this bench also measures compound expansion.
//
// Series reproduced: per-batch pipeline makespan (compound vs explicit
// four-derivation form must match), batch-count scaling on the
// GriPhyN testbed, and expansion cost.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "estimator/estimator.h"
#include "executor/executor.h"
#include "planner/expansion.h"
#include "planner/planner.h"
#include "workload/hep.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

double RunHep(int batches, bool use_compound, uint64_t seed,
              size_t* invocations_out) {
  Logger::set_threshold(LogLevel::kError);
  VirtualDataCatalog catalog("cms-bench.org");
  if (!catalog.Open().ok()) std::abort();
  workload::HepOptions options;
  options.num_batches = batches;
  options.use_compound = use_compound;
  Result<workload::HepWorkload> workload =
      workload::GenerateHep(&catalog, options);
  if (!workload.ok()) std::abort();

  GridSimulator grid(workload::GriphynTestbed(), seed);
  std::vector<std::string> sites = grid.topology().SiteNames();
  for (size_t b = 0; b < workload->config_datasets.size(); ++b) {
    const std::string& config = workload->config_datasets[b];
    const std::string& site = sites[b % sites.size()];
    if (!grid.PlaceFile(site, config, 64 * 1024, true).ok()) std::abort();
    Replica r;
    r.dataset = config;
    r.site = site;
    r.size_bytes = 64 * 1024;
    if (!catalog.AddReplica(r).ok()) std::abort();
  }
  CostEstimator estimator;
  InProcessCatalogClient client(&catalog);
  RequestPlanner planner(client, grid.topology(), &grid.rls(), estimator);
  WorkflowEngine engine(&grid, client);
  PlannerOptions popts;
  popts.target_site = "uchicago";
  for (const std::string& ntuple : workload->ntuples) {
    Result<ExecutionPlan> plan = planner.Plan(ntuple, popts);
    if (!plan.ok()) std::abort();
    if (plan->nodes.size() != 4) std::abort();  // the 4-stage invariant
    if (!engine.Submit(*plan, nullptr).ok()) std::abort();
  }
  double makespan = grid.RunUntilIdle();
  if (invocations_out != nullptr) {
    *invocations_out = catalog.Stats().invocations;
  }
  return makespan;
}

void BM_PipelineCompound(benchmark::State& state) {
  int batches = static_cast<int>(state.range(0));
  double makespan = 0;
  size_t invocations = 0;
  for (auto _ : state) {
    makespan = RunHep(batches, /*use_compound=*/true, 7, &invocations);
  }
  state.counters["batches"] = batches;
  state.counters["sim_makespan_s"] = makespan;
  state.counters["invocations_recorded"] =
      static_cast<double>(invocations);
}
BENCHMARK(BM_PipelineCompound)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// The explicit four-derivation form must execute identically — the
// compound construct is notation, not semantics.
void BM_PipelineExplicit(benchmark::State& state) {
  int batches = static_cast<int>(state.range(0));
  double makespan = 0;
  for (auto _ : state) {
    makespan = RunHep(batches, /*use_compound=*/false, 7, nullptr);
  }
  state.counters["batches"] = batches;
  state.counters["sim_makespan_s"] = makespan;
}
BENCHMARK(BM_PipelineExplicit)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Compound-expansion throughput in isolation.
void BM_CompoundExpansion(benchmark::State& state) {
  Logger::set_threshold(LogLevel::kError);
  VirtualDataCatalog catalog("cms-expand.org");
  if (!catalog.Open().ok()) std::abort();
  workload::HepOptions options;
  options.num_batches = 8;
  Result<workload::HepWorkload> workload =
      workload::GenerateHep(&catalog, options);
  if (!workload.ok()) std::abort();
  Result<Derivation> dv = catalog.GetDerivation(workload->derivations[0]);
  if (!dv.ok()) std::abort();
  InProcessCatalogClient client(&catalog);
  for (auto _ : state) {
    Result<std::vector<Derivation>> subs = ExpandDerivation(client, *dv);
    benchmark::DoNotOptimize(subs);
    if (!subs.ok() || subs->size() != 4) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompoundExpansion);

}  // namespace
}  // namespace vdg
