// ABL-PAT — Section 5.2 lists four patterns for applying procedures to
// datasets: (1) procedure collocated with data, (2) ship procedure to
// data, (3) ship data to procedure, (4) ship both to a third site.
// This ablation executes the same derivation under each pattern while
// sweeping input size, measuring simulated completion time. Expected
// shape: collocated ~ procedure-to-data << data-to-procedure for large
// inputs; ship-both only pays when the compute site is faster.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "estimator/estimator.h"
#include "executor/executor.h"
#include "planner/planner.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

// Three sites: `data` holds the input, `user` is where the requester
// sits, `hpc` is a faster third-party compute site.
GridTopology PatternTopology() {
  GridTopology topology;
  auto add_site = [&topology](const std::string& name, double factor) {
    SiteConfig site;
    site.name = name;
    for (int i = 0; i < 8; ++i) {
      site.hosts.push_back(
          {name + "-n" + std::to_string(i), factor, 1});
    }
    StorageElementConfig se;
    se.name = "se0";
    site.storage.push_back(se);
    Status s = topology.AddSite(site);
    if (!s.ok()) std::abort();
  };
  add_site("data", 1.0);
  add_site("user", 1.0);
  add_site("hpc", 4.0);  // the reason pattern 4 exists
  auto link = [&topology](const std::string& a, const std::string& b) {
    LinkConfig l;
    l.from = a;
    l.to = b;
    l.bandwidth_bytes_per_s = 12.5e6;  // 100 Mbps everywhere
    l.latency_s = 0.02;
    Status s = topology.AddLink(l);
    if (!s.ok()) std::abort();
  };
  link("data", "user");
  link("data", "hpc");
  link("user", "hpc");
  return topology;
}

double RunPattern(const std::string& exec_site, int64_t input_mb,
                  double runtime_s) {
  Logger::set_threshold(LogLevel::kError);
  VirtualDataCatalog catalog("pat.org");
  if (!catalog.Open().ok()) std::abort();
  if (!catalog
           .ImportVdl("TR analyze( output out, input in ) {"
                      "  argument stdin = ${input:in};"
                      "  argument stdout = ${output:out};"
                      "  exec = \"/bin/analyze\"; }"
                      "DS big : Dataset size=\"" +
                      std::to_string(input_mb << 20) +
                      "\";"
                      "DV run->analyze( out=@{output:\"result\"}, "
                      "in=@{input:\"big\"} );")
           .ok()) {
    std::abort();
  }
  Status annotated = catalog.Annotate("transformation", "analyze",
                                      "sim.runtime_s", runtime_s);
  if (!annotated.ok()) std::abort();

  GridSimulator grid(PatternTopology(), 5);
  if (!grid.PlaceFile("data", "big", input_mb << 20, true).ok()) {
    std::abort();
  }
  Replica r;
  r.dataset = "big";
  r.site = "data";
  r.size_bytes = input_mb << 20;
  if (!catalog.AddReplica(r).ok()) std::abort();

  CostEstimator estimator;
  InProcessCatalogClient client(&catalog);
  RequestPlanner planner(client, grid.topology(), &grid.rls(), estimator);
  WorkflowEngine engine(&grid, client);
  PlannerOptions popts;
  popts.target_site = "user";
  popts.site_policy = SiteSelectionPolicy::kFixed;
  popts.fixed_site = exec_site;
  Result<ExecutionPlan> plan = planner.Plan("result", popts);
  if (!plan.ok()) std::abort();
  Result<WorkflowResult> result = engine.Execute(*plan);
  if (!result.ok() || !result->succeeded) std::abort();
  return result->makespan_s;
}

void RunPatternBench(benchmark::State& state, const std::string& site,
                     const char* label) {
  int64_t input_mb = state.range(0);
  double makespan = 0;
  for (auto _ : state) {
    // Host speed at hpc is 4x: nominal 200s of work.
    makespan = RunPattern(site, input_mb, /*runtime_s=*/200.0);
  }
  state.SetLabel(label);
  state.counters["input_mb"] = static_cast<double>(input_mb);
  state.counters["sim_completion_s"] = makespan;
}

// Pattern 1/2 (collocated / ship procedure to data): run at `data`.
void BM_PatternProcedureToData(benchmark::State& state) {
  RunPatternBench(state, "data", "procedure-to-data");
}
BENCHMARK(BM_PatternProcedureToData)
    ->Arg(8)
    ->Arg(64)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Pattern 3 (ship data to procedure): run at the user's site.
void BM_PatternDataToProcedure(benchmark::State& state) {
  RunPatternBench(state, "user", "data-to-procedure");
}
BENCHMARK(BM_PatternDataToProcedure)
    ->Arg(8)
    ->Arg(64)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Pattern 4 (ship both to a bigger computer): run at `hpc`.
void BM_PatternShipBoth(benchmark::State& state) {
  RunPatternBench(state, "hpc", "ship-both-to-hpc");
}
BENCHMARK(BM_PatternShipBoth)
    ->Arg(8)
    ->Arg(64)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// The planner's own choice (min-cost) should track the best pattern
// as input size changes.
void BM_PlannerPicksPattern(benchmark::State& state) {
  int64_t input_mb = state.range(0);
  Logger::set_threshold(LogLevel::kError);
  VirtualDataCatalog catalog("pat.org");
  if (!catalog.Open().ok()) std::abort();
  if (!catalog
           .ImportVdl("TR analyze( output out, input in ) {"
                      "  argument stdin = ${input:in};"
                      "  argument stdout = ${output:out};"
                      "  exec = \"/bin/analyze\"; }"
                      "DS big : Dataset size=\"" +
                      std::to_string(input_mb << 20) +
                      "\";"
                      "DV run->analyze( out=@{output:\"result\"}, "
                      "in=@{input:\"big\"} );")
           .ok()) {
    std::abort();
  }
  GridTopology topology = PatternTopology();
  Replica r;
  r.dataset = "big";
  r.site = "data";
  r.size_bytes = input_mb << 20;
  if (!catalog.AddReplica(r).ok()) std::abort();
  CostEstimator estimator;
  // Teach the estimator the hpc speed advantage.
  estimator.RecordRuntime("analyze", "hpc", 50.0);
  estimator.RecordRuntime("analyze", "data", 200.0);
  estimator.RecordRuntime("analyze", "user", 200.0);
  InProcessCatalogClient client(&catalog);
  RequestPlanner planner(client, topology, nullptr, estimator);
  PlannerOptions popts;
  popts.target_site = "user";
  std::string chosen;
  for (auto _ : state) {
    Result<ExecutionPlan> plan = planner.Plan("result", popts);
    if (!plan.ok()) std::abort();
    chosen = plan->nodes[0].site;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("chose:" + chosen);
  state.counters["input_mb"] = static_cast<double>(input_mb);
}
BENCHMARK(BM_PlannerPicksPattern)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

}  // namespace
}  // namespace vdg
