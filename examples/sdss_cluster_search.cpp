// The paper's astronomy challenge (Section 6, ref [1]): searching for
// galaxy clusters in the Sloan Digital Sky Survey with the MaxBCG
// algorithm, planned and executed across a 4-site / 800-host grid.
//
// The run reproduces the published shape at configurable scale:
// per-field brightest-cluster-galaxy searches fan out wide, per-stripe
// merges join them, and the catalog accumulates the full provenance
// record of the campaign.
#include <cstdio>
#include <cstdlib>

#include "catalog/catalog.h"
#include "estimator/estimator.h"
#include "executor/executor.h"
#include "planner/planner.h"
#include "provenance/provenance.h"
#include "workload/sdss.h"
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

  workload::SdssOptions options;
  options.num_stripes = argc > 1 ? std::atoi(argv[1]) : 8;
  options.fields_per_stripe = argc > 2 ? std::atoi(argv[2]) : 25;

  VirtualDataCatalog catalog("griphyn.org");
  CHECK_OK(catalog.Open());
  Result<workload::SdssWorkload> workload =
      workload::GenerateSdss(&catalog, options);
  CHECK_OK(workload.status());
  std::printf("SDSS MaxBCG campaign: %d stripes x %d fields = %zu "
              "derivations defined\n",
              options.num_stripes, options.fields_per_stripe,
              workload->derivation_count);

  // The survey archive is distributed across the 4-site testbed.
  GridSimulator grid(workload::GriphynTestbed(), /*seed=*/2003);
  grid.set_runtime_jitter(0.1);
  CHECK_OK(workload::StageSdssInputs(*workload, options, &grid, &catalog));
  std::printf("grid: %zu sites, %zu hosts; %zu field images staged\n",
              grid.topology().site_count(), grid.topology().total_hosts(),
              workload->field_datasets.size());

  CostEstimator estimator;
  InProcessCatalogClient client(&catalog);
  RequestPlanner planner(client, grid.topology(), &grid.rls(), estimator);
  WorkflowEngine engine(&grid, client);
  PlannerOptions popts;
  popts.target_site = "fermilab";  // where the astronomers sit

  // Materialize every stripe's cluster catalog; workflows overlap on
  // the grid like the paper's concurrent DAGs.
  double total_compute = 0;
  size_t total_nodes = 0;
  int finished = 0;
  for (const std::string& clusters : workload->cluster_catalogs) {
    Result<ExecutionPlan> plan = planner.Plan(clusters, popts);
    CHECK_OK(plan.status());
    total_compute += plan->est_compute_s;
    total_nodes += plan->nodes.size();
    CHECK_OK(engine
                 .Submit(*plan,
                         [&finished](const WorkflowResult& result) {
                           (void)result;
                           ++finished;
                         })
                 .status());
  }
  SimTime makespan = grid.RunUntilIdle();
  std::printf("\n%d workflows (%zu derivation nodes) completed in %.0f "
              "simulated seconds\n",
              finished, total_nodes, makespan);
  for (const std::string& site : grid.topology().SiteNames()) {
    Result<SiteStats> stats = grid.StatsFor(site);
    Result<double> util = grid.Utilization(site);
    if (stats.ok() && util.ok()) {
      std::printf("  %-10s jobs=%-5lu utilization=%4.1f%%\n", site.c_str(),
                  static_cast<unsigned long>(stats->jobs_completed),
                  *util * 100);
    }
  }

  // Every cluster catalog is now real data with a full audit trail.
  InProcessCatalogClient catalog_client(&catalog);
  ProvenanceTracker tracker(catalog_client);
  const std::string& sample = workload->cluster_catalogs[0];
  Result<std::vector<Invocation>> trail = tracker.AuditTrail(sample);
  CHECK_OK(trail.status());
  std::printf("\naudit trail of %s: %zu invocations across sites\n",
              sample.c_str(), trail->size());

  // The virtual-data payoff: a second community request for the same
  // sky region needs no computation at all.
  Result<ExecutionPlan> again = planner.Plan(sample, popts);
  CHECK_OK(again.status());
  std::printf("re-request of %s resolves to '%s' (zero new jobs)\n",
              sample.c_str(), MaterializationModeToString(again->mode));

  // Simulate the paper's calibration-error scenario on one field.
  const std::string& bad_field = workload->field_datasets[0];
  Result<InvalidationReport> report = tracker.Invalidate(bad_field);
  CHECK_OK(report.status());
  std::printf("\ncalibration error in %s: %zu derived datasets to "
              "recompute (%zu replicas invalidated)\n",
              bad_field.c_str(), report->affected_datasets.size(),
              report->invalidated_replicas.size());
  Result<ExecutionPlan> repair =
      planner.Plan(workload->cluster_catalogs[0], popts);
  CHECK_OK(repair.status());
  std::printf("repair plan re-runs only %zu of %d derivations\n",
              repair->nodes.size(), options.fields_per_stripe + 1);
  return 0;
}
