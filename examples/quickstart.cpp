// Quickstart: the virtual-data cycle in one file.
//
// 1. Define transformations and derivations in VDL.
// 2. Ask the planner to materialize a dataset that does not exist yet.
// 3. Execute the plan on the simulated grid.
// 4. Ask the catalog where the data came from (provenance) and whether
//    an equivalent computation already ran (dedup).
#include <cstdio>

#include "catalog/catalog.h"
#include "estimator/estimator.h"
#include "executor/executor.h"
#include "planner/planner.h"
#include "provenance/provenance.h"
#include "workload/testbed.h"

namespace {

constexpr const char* kVdl = R"(
# Two-stage pipeline, exactly in the style of the paper's Appendix A.
TR simulate( output events, input config, none nevents="1000" ) {
  argument n = "-n "${none:nevents};
  argument stdin = ${input:config};
  argument stdout = ${output:events};
  exec = "/opt/science/bin/simulate";
}
TR analyze( output summary, input events ) {
  argument stdin = ${input:events};
  argument stdout = ${output:summary};
  exec = "/opt/science/bin/analyze";
}
DS run1.config : Dataset size="65536" path="/configs/run1";
DV sim-run1->simulate( events=@{output:"run1.events"},
                       config=@{input:"run1.config"}, nevents="5000" );
DV ana-run1->analyze( summary=@{output:"run1.summary"},
                      events=@{input:"run1.events"} );
)";

#define CHECK_OK(expr)                                           \
  do {                                                           \
    ::vdg::Status vdg_check_status = (expr);                     \
    if (!vdg_check_status.ok()) {                                \
      std::fprintf(stderr, "FATAL %s\n",                         \
                   vdg_check_status.ToString().c_str());         \
      return 1;                                                  \
    }                                                            \
  } while (false)

}  // namespace

int main() {
  using namespace vdg;  // NOLINT: example brevity

  // --- Compose: a catalog holding the community's definitions. ---
  VirtualDataCatalog catalog("quickstart.org");
  CHECK_OK(catalog.Open());
  CHECK_OK(catalog.ImportVdl(kVdl));
  CHECK_OK(catalog.Annotate("transformation", "simulate", "sim.runtime_s",
                            AttributeValue(120.0)));
  CHECK_OK(catalog.Annotate("transformation", "analyze", "sim.runtime_s",
                            AttributeValue(30.0)));
  std::printf("catalog holds %zu transformations, %zu derivations, "
              "%zu datasets\n",
              catalog.Stats().transformations, catalog.Stats().derivations,
              catalog.Stats().datasets);

  // --- A small two-site grid; the raw config lives at 'east'. ---
  GridSimulator grid(workload::SmallTestbed(), /*seed=*/1);
  CHECK_OK(grid.PlaceFile("east", "run1.config", 65536, /*pinned=*/true));
  Replica config_replica;
  config_replica.dataset = "run1.config";
  config_replica.site = "east";
  config_replica.size_bytes = 65536;
  CHECK_OK(catalog.AddReplica(config_replica).status());

  // --- Plan: run1.summary is virtual; how do we make it real? ---
  CostEstimator estimator;
  InProcessCatalogClient client(&catalog);
  RequestPlanner planner(client, grid.topology(), &grid.rls(), estimator);
  PlannerOptions options;
  options.target_site = "east";
  Result<ExecutionPlan> plan = planner.Plan("run1.summary", options);
  CHECK_OK(plan.status());
  std::printf("\n%s\n", plan->ToString().c_str());

  // --- Derive: execute on the grid, recording provenance. ---
  WorkflowEngine engine(&grid, client);
  Result<WorkflowResult> result = engine.Execute(*plan);
  CHECK_OK(result.status());
  std::printf("workflow %s in %.1f simulated seconds "
              "(%zu/%zu nodes succeeded)\n",
              result->succeeded ? "succeeded" : "FAILED",
              result->makespan_s, result->nodes_succeeded,
              result->nodes_total);

  // --- Provenance: where did run1.summary come from? ---
  InProcessCatalogClient catalog_client(&catalog);
  ProvenanceTracker tracker(catalog_client);
  Result<LineageNode> lineage = tracker.Lineage("run1.summary");
  CHECK_OK(lineage.status());
  std::printf("\nlineage of run1.summary:\n%s",
              RenderLineage(*lineage).c_str());

  Result<std::vector<Invocation>> trail = tracker.AuditTrail("run1.summary");
  CHECK_OK(trail.status());
  std::printf("\naudit trail (%zu invocations):\n", trail->size());
  for (const Invocation& iv : *trail) {
    std::printf("  t=%-8.1f %-12s at %s/%s (%.1fs)\n", iv.start_time,
                iv.derivation.c_str(), iv.context.site.c_str(),
                iv.context.host.c_str(), iv.duration_s);
  }

  // --- Dedup: has this computation been performed before? ---
  Derivation duplicate("someone-elses-request", "analyze");
  CHECK_OK(duplicate.AddArg(ActualArg::DatasetRef(
      "summary", "run1.summary", ArgDirection::kOut)));
  CHECK_OK(duplicate.AddArg(ActualArg::DatasetRef(
      "events", "run1.events", ArgDirection::kIn)));
  std::printf("\nequivalent computation already performed? %s\n",
              catalog.HasBeenComputed(duplicate) ? "yes - reuse it"
                                                 : "no");

  // --- Re-plan: the planner now sees materialized data. ---
  Result<ExecutionPlan> replan = planner.Plan("run1.summary", options);
  CHECK_OK(replan.status());
  std::printf("second request resolves to: %s\n",
              MaterializationModeToString(replan->mode));
  return 0;
}
