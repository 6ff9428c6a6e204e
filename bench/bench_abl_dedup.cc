// ABL-DEDUP — Section 1's motivating quote: "If the program has
// already been run and the results stored, I'll save weeks of
// computation." This ablation submits request streams with a
// controlled overlap fraction (how often a request repeats an earlier
// computation) and measures how much compute the signature-based dedup
// plus materialized-reuse machinery saves.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/rng.h"
#include "estimator/estimator.h"
#include "executor/executor.h"
#include "planner/planner.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

struct DedupOutcome {
  size_t requests = 0;
  size_t dedup_hits = 0;       // answered by signature lookup
  size_t jobs_executed = 0;    // actual grid jobs run
  double compute_saved_s = 0;  // runtime that did not need to run
};

DedupOutcome RunStream(int overlap_percent, int requests, uint64_t seed) {
  Logger::set_threshold(LogLevel::kError);
  VirtualDataCatalog catalog("dedup.org");
  if (!catalog.Open().ok()) std::abort();
  if (!catalog
           .ImportVdl("TR crunch( output out, input in, none level ) {"
                      "  argument l = \"-l \"${none:level};"
                      "  argument stdin = ${input:in};"
                      "  argument stdout = ${output:out};"
                      "  exec = \"/bin/crunch\"; }"
                      "DS corpus : Dataset size=\"1048576\";")
           .ok()) {
    std::abort();
  }
  Status annotated =
      catalog.Annotate("transformation", "crunch", "sim.runtime_s", 50.0);
  if (!annotated.ok()) std::abort();

  GridSimulator grid(workload::SmallTestbed(), seed);
  if (!grid.PlaceFile("east", "corpus", 1 << 20, true).ok()) std::abort();
  Replica r;
  r.dataset = "corpus";
  r.site = "east";
  r.size_bytes = 1 << 20;
  if (!catalog.AddReplica(r).ok()) std::abort();

  CostEstimator estimator;
  InProcessCatalogClient client(&catalog);
  RequestPlanner planner(client, grid.topology(), &grid.rls(), estimator);
  WorkflowEngine engine(&grid, client);
  PlannerOptions popts;
  popts.target_site = "east";

  Rng rng(seed);
  DedupOutcome outcome;
  outcome.requests = static_cast<size_t>(requests);
  int unique_levels = 0;
  for (int i = 0; i < requests; ++i) {
    // With probability `overlap`, re-request an existing level; else a
    // brand new parameterization.
    int level;
    if (unique_levels > 0 &&
        rng.Chance(static_cast<double>(overlap_percent) / 100.0)) {
      level = static_cast<int>(rng.Index(static_cast<size_t>(unique_levels)));
    } else {
      level = unique_levels++;
    }
    std::string output = "result-l" + std::to_string(level);
    Derivation request("req" + std::to_string(i), "crunch");
    Status s1 = request.AddArg(
        ActualArg::DatasetRef("out", output, ArgDirection::kOut));
    Status s2 = request.AddArg(
        ActualArg::DatasetRef("in", "corpus", ArgDirection::kIn));
    Status s3 = request.AddArg(
        ActualArg::String("level", std::to_string(level)));
    if (!s1.ok() || !s2.ok() || !s3.ok()) std::abort();

    // The community workflow: check the catalog before computing.
    if (catalog.HasBeenComputed(request)) {
      ++outcome.dedup_hits;
      outcome.compute_saved_s += 50.0;
      continue;
    }
    if (!catalog.HasDerivation("canon-l" + std::to_string(level))) {
      Derivation canonical("canon-l" + std::to_string(level), "crunch");
      Status c1 = canonical.AddArg(
          ActualArg::DatasetRef("out", output, ArgDirection::kOut));
      Status c2 = canonical.AddArg(
          ActualArg::DatasetRef("in", "corpus", ArgDirection::kIn));
      Status c3 = canonical.AddArg(
          ActualArg::String("level", std::to_string(level)));
      if (!c1.ok() || !c2.ok() || !c3.ok()) std::abort();
      if (!catalog.DefineDerivation(std::move(canonical)).ok()) {
        std::abort();
      }
    }
    Result<ExecutionPlan> plan = planner.Plan(output, popts);
    if (!plan.ok()) std::abort();
    Result<WorkflowResult> result = engine.Execute(*plan);
    if (!result.ok() || !result->succeeded) std::abort();
    outcome.jobs_executed += result->nodes_succeeded;
  }
  return outcome;
}

void BM_DedupByOverlap(benchmark::State& state) {
  int overlap = static_cast<int>(state.range(0));
  DedupOutcome outcome;
  for (auto _ : state) {
    outcome = RunStream(overlap, /*requests=*/200, /*seed=*/31);
  }
  state.counters["overlap_pct"] = overlap;
  state.counters["requests"] = static_cast<double>(outcome.requests);
  state.counters["dedup_hits"] = static_cast<double>(outcome.dedup_hits);
  state.counters["jobs_executed"] =
      static_cast<double>(outcome.jobs_executed);
  state.counters["compute_saved_s"] = outcome.compute_saved_s;
  state.counters["saved_fraction"] =
      outcome.compute_saved_s /
      (50.0 * static_cast<double>(outcome.requests));
}
BENCHMARK(BM_DedupByOverlap)
    ->Arg(0)
    ->Arg(25)
    ->Arg(50)
    ->Arg(75)
    ->Arg(95)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Raw probe cost: the signature lookup itself stays O(1)-ish as the
// derivation space grows.
void BM_SignatureProbeScaling(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  VirtualDataCatalog* catalog = bench::CachedCanonicalCatalog(n);
  const workload::CanonicalGraph& graph = bench::CachedCanonicalGraph(n);
  Result<Derivation> probe = catalog->GetDerivation(graph.derivations[0]);
  if (!probe.ok()) std::abort();
  for (auto _ : state) {
    bool computed = catalog->HasBeenComputed(*probe);
    benchmark::DoNotOptimize(computed);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["derivations_in_catalog"] = static_cast<double>(n);
}
BENCHMARK(BM_SignatureProbeScaling)->Arg(100)->Arg(1000)->Arg(5000);

}  // namespace
}  // namespace vdg
