// EXP-SDSS — Section 6 / reference [1]: the Sloan Digital Sky Survey
// MaxBCG galaxy-cluster search. The paper reports ~5000 derivations,
// workflow DAGs of several hundred nodes, a grid of almost 800 hosts
// across four sites, and up to 120 hosts used by a single workflow.
//
// Series reproduced here:
//   1. the full campaign at paper scale (~5000 derivations);
//   2. makespan of ONE workflow as its width (fields per stripe)
//      grows toward and past the paper's 120-host mark;
//   3. campaign throughput as more stripes run concurrently.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "estimator/estimator.h"
#include "executor/executor.h"
#include "planner/planner.h"
#include "workload/sdss.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

struct CampaignResult {
  size_t derivations = 0;
  size_t nodes_executed = 0;
  double makespan_s = 0;
  double mean_utilization = 0;
  uint64_t transfers = 0;
};

CampaignResult RunCampaign(int stripes, int fields_per_stripe,
                           uint64_t seed) {
  Logger::set_threshold(LogLevel::kError);
  VirtualDataCatalog catalog("sdss-bench.org");
  if (!catalog.Open().ok()) std::abort();
  workload::SdssOptions options;
  options.num_stripes = stripes;
  options.fields_per_stripe = fields_per_stripe;
  Result<workload::SdssWorkload> workload =
      workload::GenerateSdss(&catalog, options);
  if (!workload.ok()) std::abort();

  GridSimulator grid(workload::GriphynTestbed(), seed);
  grid.set_runtime_jitter(0.05);
  if (!workload::StageSdssInputs(*workload, options, &grid, &catalog)
           .ok()) {
    std::abort();
  }
  CostEstimator estimator;
  InProcessCatalogClient client(&catalog);
  RequestPlanner planner(client, grid.topology(), &grid.rls(), estimator);
  // Provenance recording off for the large sweeps: the paper's numbers
  // are about execution, and recording is measured by FIG1.
  ExecutorOptions eopts;
  eopts.record_provenance = false;
  WorkflowEngine engine(&grid, client, eopts);

  PlannerOptions popts;
  popts.target_site = "fermilab";
  CampaignResult result;
  result.derivations = workload->derivation_count;
  size_t executed = 0;
  for (const std::string& clusters : workload->cluster_catalogs) {
    Result<ExecutionPlan> plan = planner.Plan(clusters, popts);
    if (!plan.ok()) std::abort();
    Status submitted =
        engine
            .Submit(*plan,
                    [&executed](const WorkflowResult& wf) {
                      executed += wf.nodes_succeeded;
                    })
            .status();
    if (!submitted.ok()) std::abort();
  }
  result.makespan_s = grid.RunUntilIdle();
  result.nodes_executed = executed;
  double util_sum = 0;
  for (const std::string& site : grid.topology().SiteNames()) {
    util_sum += *grid.Utilization(site);
  }
  result.mean_utilization =
      util_sum / static_cast<double>(grid.topology().site_count());
  result.transfers = grid.total_transfers_submitted();
  return result;
}

// 1. Paper scale: 192 stripes x 25 fields = 4800 searches + 192
//    merges = 4992 derivations (the paper's "about 5000").
void BM_PaperScaleCampaign(benchmark::State& state) {
  CampaignResult result;
  for (auto _ : state) {
    result = RunCampaign(/*stripes=*/192, /*fields_per_stripe=*/25,
                         /*seed=*/2002);
  }
  state.counters["derivations"] = static_cast<double>(result.derivations);
  state.counters["nodes_executed"] =
      static_cast<double>(result.nodes_executed);
  state.counters["sim_makespan_s"] = result.makespan_s;
  state.counters["mean_utilization"] = result.mean_utilization;
  state.counters["wan_transfers"] = static_cast<double>(result.transfers);
}
BENCHMARK(BM_PaperScaleCampaign)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// 2. Single-workflow width sweep: one stripe whose field count grows
//    toward the paper's "as many as 120 hosts in a single workflow".
//    Makespan should flatten once width ceases to be the bottleneck.
void BM_SingleWorkflowWidth(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  CampaignResult result;
  for (auto _ : state) {
    result = RunCampaign(/*stripes=*/1, width, /*seed=*/2002);
  }
  state.counters["workflow_width"] = width;
  state.counters["sim_makespan_s"] = result.makespan_s;
  state.counters["nodes_executed"] =
      static_cast<double>(result.nodes_executed);
}
BENCHMARK(BM_SingleWorkflowWidth)
    ->Arg(10)
    ->Arg(30)
    ->Arg(60)
    ->Arg(120)
    ->Arg(240)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// 3. Concurrency sweep: more stripes in flight should raise grid
//    utilization and total throughput without inflating makespan
//    until the 800 hosts saturate.
void BM_ConcurrentStripes(benchmark::State& state) {
  int stripes = static_cast<int>(state.range(0));
  CampaignResult result;
  for (auto _ : state) {
    result = RunCampaign(stripes, /*fields_per_stripe=*/25, /*seed=*/2002);
  }
  state.counters["stripes"] = stripes;
  state.counters["sim_makespan_s"] = result.makespan_s;
  state.counters["mean_utilization"] = result.mean_utilization;
  state.counters["jobs_per_sim_s"] =
      static_cast<double>(result.nodes_executed) / result.makespan_s;
}
BENCHMARK(BM_ConcurrentStripes)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace vdg
