// The paper's first challenge problem (Section 6): a high-energy
// physics collision-event simulation consisting of four program
// executions chained by intermediate datasets — expressed here as a
// *compound transformation* and invoked per batch, so the planner
// expands the pipeline into its DAG automatically. The intermediates
// are multi-modal (files, a Zebra file set, an OODB object closure).
#include <cstdio>
#include <cstdlib>

#include "catalog/catalog.h"
#include "estimator/estimator.h"
#include "executor/executor.h"
#include "planner/planner.h"
#include "provenance/provenance.h"
#include "vdl/printer.h"
#include "workload/hep.h"
#include "workload/testbed.h"

#define CHECK_OK(expr)                                           \
  do {                                                           \
    ::vdg::Status vdg_check_status = (expr);                     \
    if (!vdg_check_status.ok()) {                                \
      std::fprintf(stderr, "FATAL %s\n",                         \
                   vdg_check_status.ToString().c_str());         \
      return 1;                                                  \
    }                                                            \
  } while (false)

int main(int argc, char** argv) {
  using namespace vdg;  // NOLINT: example brevity

  workload::HepOptions options;
  options.num_batches = argc > 1 ? std::atoi(argv[1]) : 5;

  VirtualDataCatalog catalog("cms.org");
  CHECK_OK(catalog.Open());
  Result<workload::HepWorkload> workload =
      workload::GenerateHep(&catalog, options);
  CHECK_OK(workload.status());

  // Show the compound pipeline as the VDL the physicists would write.
  Result<Transformation> pipeline = catalog.GetTransformation("cms-pipeline");
  CHECK_OK(pipeline.status());
  std::printf("compound transformation:\n%s\n",
              PrintTransformation(*pipeline).c_str());

  GridSimulator grid(workload::GriphynTestbed(), /*seed=*/7);
  const std::vector<std::string> sites = grid.topology().SiteNames();
  for (size_t b = 0; b < workload->config_datasets.size(); ++b) {
    const std::string& config = workload->config_datasets[b];
    const std::string& site = sites[b % sites.size()];
    CHECK_OK(grid.PlaceFile(site, config, 64 * 1024, /*pinned=*/true));
    Replica r;
    r.dataset = config;
    r.site = site;
    r.size_bytes = 64 * 1024;
    CHECK_OK(catalog.AddReplica(r).status());
  }

  CostEstimator estimator;
  InProcessCatalogClient client(&catalog);
  RequestPlanner planner(client, grid.topology(), &grid.rls(), estimator);
  WorkflowEngine engine(&grid, client);
  PlannerOptions popts;
  popts.target_site = "uchicago";

  int finished = 0;
  for (const std::string& ntuple : workload->ntuples) {
    Result<ExecutionPlan> plan = planner.Plan(ntuple, popts);
    CHECK_OK(plan.status());
    std::printf("plan for %s: %zu expanded stages at [", ntuple.c_str(),
                plan->nodes.size());
    for (size_t i = 0; i < plan->nodes.size(); ++i) {
      std::printf("%s%s", i ? " " : "", plan->nodes[i].site.c_str());
    }
    std::printf("]\n");
    CHECK_OK(engine.Submit(*plan, [&finished](const WorkflowResult&) {
                     ++finished;
                   })
                 .status());
  }
  SimTime makespan = grid.RunUntilIdle();
  std::printf("\n%d batches complete at t=%.0fs\n", finished, makespan);

  // Per-point lineage: where did batch 0's ntuple come from, exactly?
  InProcessCatalogClient catalog_client(&catalog);
  ProvenanceTracker tracker(catalog_client);
  Result<LineageNode> lineage = tracker.Lineage(workload->ntuples[0]);
  CHECK_OK(lineage.status());
  std::printf("\nlineage of %s:\n%s", workload->ntuples[0].c_str(),
              RenderLineage(*lineage).c_str());

  // The calibration-error story, HEP flavour: a bad generator config
  // invalidates everything downstream.
  Result<InvalidationReport> report =
      tracker.Invalidate(workload->config_datasets[0]);
  CHECK_OK(report.status());
  std::printf("\nbad generator config %s -> recompute %zu datasets via "
              "%zu derivations\n",
              workload->config_datasets[0].c_str(),
              report->affected_datasets.size(),
              report->derivations_to_rerun.size());
  return 0;
}
