// Cross-module property tests: invariants that must hold for *any*
// generated workload, swept over seeds — plan well-formedness, plan
// executability, failure-injection monotonicity, and site-outage
// behaviour.
#include <gtest/gtest.h>

#include "estimator/estimator.h"
#include "executor/executor.h"
#include "planner/planner.h"
#include "provenance/provenance.h"
#include "workload/canonical.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

struct World {
  VirtualDataCatalog catalog{"prop.org"};
  InProcessCatalogClient client{&catalog};
  GridSimulator grid{workload::SmallTestbed(), 17};
  CostEstimator estimator;
  std::unique_ptr<RequestPlanner> planner;
  workload::CanonicalGraph graph;

  explicit World(uint64_t seed, size_t derivations = 40) {
    EXPECT_TRUE(catalog.Open().ok());
    workload::CanonicalGraphOptions options;
    options.num_derivations = derivations;
    options.num_raw_inputs = 6;
    options.seed = seed;
    Result<workload::CanonicalGraph> generated =
        workload::GenerateCanonicalGraph(&catalog, options);
    EXPECT_TRUE(generated.ok()) << generated.status();
    graph = std::move(*generated);
    // Raw inputs staged alternately at the two sites.
    for (size_t i = 0; i < graph.raw_inputs.size(); ++i) {
      const std::string& site = i % 2 == 0 ? "east" : "west";
      EXPECT_TRUE(
          grid.PlaceFile(site, graph.raw_inputs[i], 1 << 20, true).ok());
      Replica r;
      r.dataset = graph.raw_inputs[i];
      r.site = site;
      r.size_bytes = 1 << 20;
      EXPECT_TRUE(catalog.AddReplica(r).ok());
    }
    planner = std::make_unique<RequestPlanner>(client, grid.topology(),
                                               &grid.rls(), estimator);
  }
};

class PlanProperties : public ::testing::TestWithParam<uint64_t> {};

// Property: every plan is topologically ordered, every node input is
// either produced by a declared dependency or has a staging/materialized
// source, and the makespan estimate is at least the critical node cost.
TEST_P(PlanProperties, PlansAreWellFormed) {
  World world(GetParam());
  PlannerOptions options;
  options.target_site = "east";
  for (const std::string& sink : world.graph.sinks) {
    Result<ExecutionPlan> plan = world.planner->Plan(sink, options);
    ASSERT_TRUE(plan.ok()) << sink << ": " << plan.status();
    if (plan->mode != MaterializationMode::kRerun) continue;

    double max_runtime = 0;
    std::set<std::string> produced;
    for (size_t i = 0; i < plan->nodes.size(); ++i) {
      const PlanNode& node = plan->nodes[i];
      // Topological: all deps point strictly backwards.
      for (size_t dep : node.deps) {
        EXPECT_LT(dep, i) << sink;
      }
      // Every input is accounted for.
      for (const std::string& input : node.inputs) {
        bool from_dep = produced.count(input) != 0;
        bool staged_or_local =
            world.planner->IsMaterializedAnywhere(input);
        EXPECT_TRUE(from_dep || staged_or_local)
            << sink << " node " << i << " input " << input;
      }
      for (const std::string& output : node.outputs) {
        produced.insert(output);
      }
      max_runtime = std::max(max_runtime, node.est_runtime_s);
      EXPECT_FALSE(node.site.empty());
    }
    // The request target is produced by the plan.
    EXPECT_TRUE(produced.count(sink) != 0) << sink;
    EXPECT_GE(plan->est_makespan_s, max_runtime - 1e-9);
    EXPECT_GE(plan->est_compute_s, plan->est_makespan_s > 0 ? 1e-12 : 0);
  }
}

// Property: executing the plan actually materializes the sink, and the
// catalog afterwards carries a full audit trail for it.
TEST_P(PlanProperties, PlansExecuteToMaterialization) {
  World world(GetParam());
  WorkflowEngine engine(&world.grid, world.client);
  PlannerOptions options;
  options.target_site = "east";
  ASSERT_FALSE(world.graph.sinks.empty());
  const std::string& sink = world.graph.sinks.front();
  Result<ExecutionPlan> plan = world.planner->Plan(sink, options);
  ASSERT_TRUE(plan.ok());
  Result<WorkflowResult> result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->succeeded);
  EXPECT_TRUE(world.catalog.IsMaterialized(sink));
  EXPECT_TRUE(world.grid.rls().ExistsAt(sink, "east"));

  InProcessCatalogClient catalog_client(&world.catalog);

  ProvenanceTracker tracker(catalog_client);
  Result<std::vector<Invocation>> trail = tracker.AuditTrail(sink);
  ASSERT_TRUE(trail.ok());
  EXPECT_EQ(trail->size(), plan->nodes.size());
  EXPECT_TRUE(*tracker.FullyMaterialized(sink) ||
              !plan->fetches.empty());
}

// Property: multi-output derivations materialize *all* their outputs,
// and the aux outputs' provenance matches ground truth.
TEST_P(PlanProperties, AuxOutputsShareProvenance) {
  World world(GetParam());
  InProcessCatalogClient catalog_client(&world.catalog);
  ProvenanceTracker tracker(catalog_client);
  for (const std::string& aux : world.graph.aux_outputs) {
    Result<std::set<std::string>> ancestors = tracker.Ancestors(aux);
    ASSERT_TRUE(ancestors.ok()) << aux;
    EXPECT_EQ(*ancestors, world.graph.TrueAncestors(aux)) << aux;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanProperties,
                         ::testing::Values(2, 11, 29, 71));

// Property: with enough retries, any failure rate < 1 is eventually
// survived; with no retries, higher failure rates never yield *more*
// successes (checked in expectation via fixed seeds).
TEST(FailureInjectionProperty, RetriesBeatTransientFailures) {
  for (double rate : {0.1, 0.3, 0.5}) {
    World world(101);
    world.grid.set_job_failure_rate(rate);
    ExecutorOptions opts;
    opts.max_retries = 60;  // (1-rate)^-1 bounded well below 60 tries
    WorkflowEngine engine(&world.grid, world.client, opts);
    PlannerOptions options;
    options.target_site = "east";
    Result<ExecutionPlan> plan =
        world.planner->Plan(world.graph.sinks.front(), options);
    ASSERT_TRUE(plan.ok());
    Result<WorkflowResult> result = engine.Execute(*plan);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->succeeded) << "rate=" << rate;
  }
}

TEST(FailureInjectionProperty, NoRetriesDegradeMonotonically) {
  size_t prev_successes = SIZE_MAX;
  for (double rate : {0.0, 0.4, 0.8, 1.0}) {
    World world(101);
    world.grid.set_job_failure_rate(rate);
    ExecutorOptions opts;
    opts.max_retries = 0;
    WorkflowEngine engine(&world.grid, world.client, opts);
    PlannerOptions options;
    options.target_site = "east";
    Result<ExecutionPlan> plan =
        world.planner->Plan(world.graph.sinks.front(), options);
    ASSERT_TRUE(plan.ok());
    Result<WorkflowResult> result = engine.Execute(*plan);
    ASSERT_TRUE(result.ok());
    // Node accounting always balances.
    EXPECT_EQ(result->nodes_succeeded + result->nodes_failed +
                  result->nodes_skipped,
              result->nodes_total);
    // More failures, fewer successes (same seed, same graph).
    EXPECT_LE(result->nodes_succeeded, prev_successes);
    prev_successes = result->nodes_succeeded;
    if (rate == 0.0) {
      EXPECT_TRUE(result->succeeded);
    }
    if (rate == 1.0) {
      EXPECT_FALSE(result->succeeded);
      EXPECT_EQ(result->nodes_succeeded, 0u);
    }
  }
}

// ------------------------- Site outages ------------------------------

TEST(SiteOutageTest, OfflineSiteRejectsAndQueuesDrainOnReturn) {
  GridSimulator grid(workload::SmallTestbed(), 5);
  // Queue two jobs, take the site down mid-queue, bring it back.
  int completed = 0;
  ASSERT_TRUE(grid.SubmitJob("east", 10.0, [&](const JobResult& r) {
                    EXPECT_TRUE(r.succeeded);
                    ++completed;
                  })
                  .ok());
  ASSERT_TRUE(grid.SetSiteOffline("east", true).ok());
  EXPECT_TRUE(grid.IsSiteOffline("east"));
  // New submissions are refused while offline.
  EXPECT_EQ(grid.SubmitJob("east", 1.0, nullptr).status().code(),
            StatusCode::kUnavailable);
  // Other sites unaffected.
  EXPECT_TRUE(grid.SubmitJob("west", 1.0, nullptr).ok());
  // Service returns at t=50; the in-flight job finishes on schedule.
  grid.events().ScheduleAt(50.0, [&grid]() {
    Status s = grid.SetSiteOffline("east", false);
    EXPECT_TRUE(s.ok());
  });
  grid.RunUntilIdle();
  EXPECT_EQ(completed, 1);
  EXPECT_FALSE(grid.IsSiteOffline("east"));
  EXPECT_TRUE(grid.SetSiteOffline("mars", true).IsNotFound());
}

TEST(SiteOutageTest, QueuedWorkWaitsOutTheOutage) {
  GridSimulator grid(workload::SmallTestbed(), 5);
  // Saturate east's 4 hosts, then one more job queues.
  std::vector<double> ends;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(grid.SubmitJob("east", 10.0, [&](const JobResult& r) {
                      ends.push_back(r.end_time);
                    })
                    .ok());
  }
  // Outage from t=5 to t=40: the queued 5th job cannot dispatch at
  // t=10 as it normally would; it starts when service returns.
  grid.events().ScheduleAt(5.0, [&grid]() {
    (void)grid.SetSiteOffline("east", true);
  });
  grid.events().ScheduleAt(40.0, [&grid]() {
    (void)grid.SetSiteOffline("east", false);
  });
  grid.RunUntilIdle();
  ASSERT_EQ(ends.size(), 5u);
  EXPECT_EQ(ends[4], 50.0);  // 40 (return) + 10 (runtime)
}

TEST(SiteOutageTest, PlannerSiteFilterAvoidsOfflineSites) {
  World world(7);
  ASSERT_TRUE(world.grid.SetSiteOffline("east", true).ok());
  PlannerOptions options;
  options.target_site = "east";
  options.site_filter = [&world](std::string_view site) {
    return !world.grid.IsSiteOffline(site);
  };
  Result<ExecutionPlan> plan =
      world.planner->Plan(world.graph.sinks.front(), options);
  ASSERT_TRUE(plan.ok());
  for (const PlanNode& node : plan->nodes) {
    EXPECT_EQ(node.site, "west");
  }
  // The workflow then runs entirely on the surviving site.
  WorkflowEngine engine(&world.grid, world.client);
  Result<WorkflowResult> result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->succeeded);
}

}  // namespace
}  // namespace vdg
