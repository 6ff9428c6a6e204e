// ABL-VIRT — the central virtual-data economics claim (Sections 1 and
// 5.2): "determine whether a requested computation has been performed
// previously, and whether it is cheaper to rerun it or to retrieve
// previously generated data". This ablation sweeps the two axes that
// decide the question — dataset size (transfer cost) and
// transformation runtime (compute cost) — and records which side the
// planner picks, exposing the crossover front.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "estimator/estimator.h"
#include "planner/planner.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

struct DecisionWorld {
  VirtualDataCatalog catalog{"virt.org"};
  InProcessCatalogClient client{&catalog};
  GridTopology topology = workload::GriphynTestbed();
  CostEstimator estimator;

  DecisionWorld(int64_t dataset_mb, double runtime_s) {
    Logger::set_threshold(LogLevel::kError);
    if (!catalog.Open().ok()) std::abort();
    if (!catalog
             .ImportVdl("TR make( output out, input in ) {"
                        "  argument stdin = ${input:in};"
                        "  argument stdout = ${output:out};"
                        "  exec = \"/bin/make\"; }"
                        "DS raw : Dataset size=\"1048576\";"
                        "DV mk->make( out=@{output:\"product\"}, "
                        "in=@{input:\"raw\"} );")
             .ok()) {
      std::abort();
    }
    // Raw input local to the requester; the existing product replica
    // sits on the slowest remote link (caltech <-> wisconsin).
    AddReplica("raw", "uchicago", 1 << 20);
    AddReplica("product", "caltech", dataset_mb << 20);
    if (!catalog.SetDatasetSize("product", dataset_mb << 20).ok()) {
      std::abort();
    }
    estimator.RecordRuntime("make", "uchicago", runtime_s);
  }

  void AddReplica(const std::string& ds, const std::string& site,
                  int64_t bytes) {
    Replica r;
    r.dataset = ds;
    r.site = site;
    r.size_bytes = bytes;
    if (!catalog.AddReplica(r).ok()) std::abort();
  }
};

// Sweep dataset size at fixed compute cost: small products fetch,
// large products rerun.
void BM_CrossoverBySize(benchmark::State& state) {
  int64_t mb = state.range(0);
  DecisionWorld world(mb, /*runtime_s=*/100.0);
  RequestPlanner planner(world.client, world.topology, nullptr,
                         world.estimator);
  PlannerOptions options;
  options.target_site = "uchicago";
  RequestPlanner::ModeDecision decision;
  for (auto _ : state) {
    Result<RequestPlanner::ModeDecision> d =
        planner.DecideMode("product", options);
    if (!d.ok()) std::abort();
    decision = *d;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["dataset_mb"] = static_cast<double>(mb);
  state.counters["fetch_cost_s"] = decision.fetch_cost_s;
  state.counters["rerun_cost_s"] = decision.rerun_cost_s;
  state.counters["picked_rerun"] =
      decision.mode == MaterializationMode::kRerun ? 1 : 0;
}
BENCHMARK(BM_CrossoverBySize)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);

// Sweep compute cost at fixed dataset size: cheap transforms rerun,
// expensive ones fetch.
void BM_CrossoverByRuntime(benchmark::State& state) {
  double runtime_s = static_cast<double>(state.range(0));
  DecisionWorld world(/*dataset_mb=*/256, runtime_s);
  RequestPlanner planner(world.client, world.topology, nullptr,
                         world.estimator);
  PlannerOptions options;
  options.target_site = "uchicago";
  RequestPlanner::ModeDecision decision;
  for (auto _ : state) {
    Result<RequestPlanner::ModeDecision> d =
        planner.DecideMode("product", options);
    if (!d.ok()) std::abort();
    decision = *d;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["runtime_s"] = runtime_s;
  state.counters["fetch_cost_s"] = decision.fetch_cost_s;
  state.counters["rerun_cost_s"] = decision.rerun_cost_s;
  state.counters["picked_rerun"] =
      decision.mode == MaterializationMode::kRerun ? 1 : 0;
}
BENCHMARK(BM_CrossoverByRuntime)
    ->Arg(1)
    ->Arg(10)
    ->Arg(60)
    ->Arg(300)
    ->Arg(3600);

// A nearby replica flips the decision back to fetch even for large
// data: replica placement is part of the economics.
void BM_NearbyReplicaFlipsDecision(benchmark::State& state) {
  bool nearby = state.range(0) == 1;
  DecisionWorld world(/*dataset_mb=*/1024, /*runtime_s=*/30.0);
  if (nearby) {
    world.AddReplica("product", "fermilab", 1024LL << 20);  // fat link
  }
  RequestPlanner planner(world.client, world.topology, nullptr,
                         world.estimator);
  PlannerOptions options;
  options.target_site = "uchicago";
  RequestPlanner::ModeDecision decision;
  for (auto _ : state) {
    Result<RequestPlanner::ModeDecision> d =
        planner.DecideMode("product", options);
    if (!d.ok()) std::abort();
    decision = *d;
  }
  state.SetLabel(nearby ? "with-nearby-replica" : "distant-replica-only");
  state.counters["fetch_cost_s"] = decision.fetch_cost_s;
  state.counters["rerun_cost_s"] = decision.rerun_cost_s;
  state.counters["picked_rerun"] =
      decision.mode == MaterializationMode::kRerun ? 1 : 0;
}
BENCHMARK(BM_NearbyReplicaFlipsDecision)->Arg(0)->Arg(1);

}  // namespace
}  // namespace vdg
