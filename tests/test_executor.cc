#include "executor/executor.h"

#include <gtest/gtest.h>

#include "planner/planner.h"
#include "workload/hep.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : catalog_("exec.org"),
        client_(&catalog_),
        grid_(workload::SmallTestbed(), 7),
        planner_(client_, grid_.topology(), &grid_.rls(), estimator_),
        engine_(&grid_, client_) {
    EXPECT_TRUE(catalog_.Open().ok());
    EXPECT_TRUE(catalog_.ImportVdl(R"(
TR stepA( output out, input in ) {
  argument stdin = ${input:in};
  argument stdout = ${output:out};
  exec = "/bin/a";
}
TR stepB( output out, input lhs, input rhs ) {
  argument l = "-l "${input:lhs};
  argument r = "-r "${input:rhs};
  argument stdout = ${output:out};
  exec = "/bin/b";
}
DS raw : Dataset size="1048576";
DV mkM1->stepA( out=@{output:"m1"}, in=@{input:"raw"} );
DV mkM2->stepA( out=@{output:"m2"}, in=@{input:"raw"} );
DV mkJoin->stepB( out=@{output:"joined"}, lhs=@{input:"m1"},
                  rhs=@{input:"m2"} );
)")
                    .ok());
    // Annotate runtimes so the simulation has defined behaviour.
    EXPECT_TRUE(catalog_
                    .Annotate("transformation", "stepA", "sim.runtime_s",
                              20.0)
                    .ok());
    EXPECT_TRUE(catalog_
                    .Annotate("transformation", "stepB", "sim.runtime_s",
                              5.0)
                    .ok());
    // raw lives at east (grid + catalog agree).
    EXPECT_TRUE(grid_.PlaceFile("east", "raw", 1 << 20, true).ok());
    Replica r;
    r.dataset = "raw";
    r.site = "east";
    r.size_bytes = 1 << 20;
    EXPECT_TRUE(catalog_.AddReplica(r).ok());
    options_.target_site = "east";
  }

  Result<ExecutionPlan> PlanFor(const std::string& dataset) {
    return planner_.Plan(dataset, options_);
  }

  VirtualDataCatalog catalog_;
  InProcessCatalogClient client_;
  GridSimulator grid_;
  CostEstimator estimator_;
  RequestPlanner planner_;
  WorkflowEngine engine_;
  PlannerOptions options_;
};

TEST_F(ExecutorTest, ExecutesDiamondAndMaterializesOutputs) {
  Result<ExecutionPlan> plan = PlanFor("joined");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->nodes.size(), 3u);
  Result<WorkflowResult> result = engine_.Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->succeeded);
  EXPECT_EQ(result->nodes_total, 3u);
  EXPECT_EQ(result->nodes_succeeded, 3u);
  EXPECT_EQ(result->nodes_failed, 0u);
  // Two 20s stages run in parallel, then the 5s join: makespan 25s.
  EXPECT_NEAR(result->makespan_s, 25.0, 1.0);
  // Outputs exist both physically (RLS) and logically (catalog).
  EXPECT_TRUE(grid_.rls().Exists("m1"));
  EXPECT_TRUE(grid_.rls().Exists("joined"));
  EXPECT_TRUE(catalog_.IsMaterialized("joined"));
}

TEST_F(ExecutorTest, RecordsInvocationsWithContext) {
  Result<ExecutionPlan> plan = PlanFor("joined");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine_.Execute(*plan).ok());
  std::vector<Invocation> ivs = catalog_.InvocationsOf("mkJoin");
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_TRUE(ivs[0].succeeded);
  EXPECT_FALSE(ivs[0].context.host.empty());
  EXPECT_EQ(ivs[0].context.site, plan->nodes[2].site);
  EXPECT_NEAR(ivs[0].duration_s, 5.0, 1e-6);
  // Consumed/produced replicas recorded for replica-precise provenance.
  EXPECT_EQ(ivs[0].consumed_replicas.size(), 2u);
  EXPECT_EQ(ivs[0].produced_replicas.size(), 1u);
  // Output sizes learned into the catalog.
  EXPECT_GT(catalog_.GetDataset("joined")->size_bytes, 0);
}

TEST_F(ExecutorTest, SecondRequestReusesMaterializedData) {
  Result<ExecutionPlan> first = PlanFor("joined");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(engine_.Execute(*first).ok());
  Result<ExecutionPlan> second = PlanFor("joined");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->mode, MaterializationMode::kAlreadyLocal);
}

TEST_F(ExecutorTest, RetriesSurviveTransientFailures) {
  grid_.set_job_failure_rate(0.3);
  ExecutorOptions opts;
  opts.max_retries = 25;  // with p=0.3 per attempt this cannot fail
  WorkflowEngine engine(&grid_, client_, opts);
  Result<ExecutionPlan> plan = PlanFor("joined");
  ASSERT_TRUE(plan.ok());
  Result<WorkflowResult> result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->succeeded);
}

TEST_F(ExecutorTest, ExhaustedRetriesFailWorkflowAndSkipDependents) {
  grid_.set_job_failure_rate(1.0);  // everything fails
  ExecutorOptions opts;
  opts.max_retries = 1;
  WorkflowEngine engine(&grid_, client_, opts);
  Result<ExecutionPlan> plan = PlanFor("joined");
  ASSERT_TRUE(plan.ok());
  Result<WorkflowResult> result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->succeeded);
  EXPECT_EQ(result->nodes_succeeded, 0u);
  EXPECT_GE(result->nodes_failed, 1u);
  EXPECT_GE(result->nodes_skipped, 1u);  // the join never ran
  EXPECT_FALSE(catalog_.IsMaterialized("joined"));
}

TEST_F(ExecutorTest, FetchPlanJustTransfers) {
  // Materialize at west only, then ask for it at east cheaply.
  ASSERT_TRUE(grid_.PlaceFile("west", "joined", 4096).ok());
  Replica r;
  r.dataset = "joined";
  r.site = "west";
  r.size_bytes = 4096;
  ASSERT_TRUE(catalog_.AddReplica(r).ok());
  estimator_.set_default_runtime(1e6);  // make rerun unattractive
  Result<ExecutionPlan> plan = PlanFor("joined");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->mode, MaterializationMode::kFetch);
  Result<WorkflowResult> result = engine_.Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->succeeded);
  EXPECT_EQ(result->nodes_total, 0u);
  EXPECT_EQ(result->transfers, 1u);
  EXPECT_TRUE(grid_.rls().ExistsAt("joined", "east"));
}

TEST_F(ExecutorTest, StagingTransfersHappenForCrossSitePlans) {
  options_.site_policy = SiteSelectionPolicy::kFixed;
  options_.fixed_site = "west";
  Result<ExecutionPlan> plan = PlanFor("joined");
  ASSERT_TRUE(plan.ok());
  Result<WorkflowResult> result = engine_.Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->succeeded);
  EXPECT_GE(result->transfers, 2u);  // raw staged twice + final fetch
  EXPECT_GT(result->bytes_staged, 0);
  // Final data landed back at the requested site.
  EXPECT_TRUE(grid_.rls().ExistsAt("joined", "east"));
}

TEST_F(ExecutorTest, ConcurrentWorkflowsShareTheGrid) {
  Result<ExecutionPlan> plan1 = PlanFor("m1");
  ASSERT_TRUE(plan1.ok());
  Result<ExecutionPlan> plan2 = PlanFor("m2");
  ASSERT_TRUE(plan2.ok());
  int done = 0;
  ASSERT_TRUE(
      engine_.Submit(*plan1, [&](const WorkflowResult&) { ++done; }).ok());
  ASSERT_TRUE(
      engine_.Submit(*plan2, [&](const WorkflowResult&) { ++done; }).ok());
  grid_.RunUntilIdle();
  EXPECT_EQ(done, 2);
  EXPECT_TRUE(catalog_.IsMaterialized("m1"));
  EXPECT_TRUE(catalog_.IsMaterialized("m2"));
}

TEST_F(ExecutorTest, ExecutionsOfFinishedWorkflow) {
  Result<ExecutionPlan> plan = PlanFor("joined");
  ASSERT_TRUE(plan.ok());
  Result<WorkflowResult> result = engine_.Execute(*plan);
  ASSERT_TRUE(result.ok());
  Result<std::vector<NodeExecution>> execs =
      engine_.ExecutionsOf(result->workflow_id);
  ASSERT_TRUE(execs.ok());
  ASSERT_EQ(execs->size(), 3u);
  for (const NodeExecution& e : *execs) {
    EXPECT_TRUE(e.succeeded);
    EXPECT_EQ(e.attempts, 1);
    EXPECT_GE(e.end_time, e.start_time);
  }
  EXPECT_TRUE(engine_.ExecutionsOf(999).status().IsNotFound());
}

TEST_F(ExecutorTest, RuntimeModelUsesAnnotations) {
  // stepA has sim.runtime_s=20; add a per-MB term and re-check.
  ASSERT_TRUE(catalog_
                  .Annotate("transformation", "stepA",
                            "sim.runtime_s_per_mb", 10.0)
                  .ok());
  Result<ExecutionPlan> plan = PlanFor("m1");
  ASSERT_TRUE(plan.ok());
  Result<WorkflowResult> result = engine_.Execute(*plan);
  ASSERT_TRUE(result.ok());
  std::vector<Invocation> ivs = catalog_.InvocationsOf("mkM1");
  ASSERT_EQ(ivs.size(), 1u);
  // 20s base + 10 s/MiB x 1 MiB input = 30s.
  EXPECT_NEAR(ivs[0].duration_s, 30.0, 1e-6);
}

TEST_F(ExecutorTest, ProvenanceRecordingCanBeDisabled) {
  ExecutorOptions opts;
  opts.record_provenance = false;
  WorkflowEngine engine(&grid_, client_, opts);
  Result<ExecutionPlan> plan = PlanFor("m1");
  ASSERT_TRUE(plan.ok());
  Result<WorkflowResult> result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->succeeded);
  // Physical placement happens; catalog records do not.
  EXPECT_TRUE(grid_.rls().Exists("m1"));
  EXPECT_FALSE(catalog_.IsMaterialized("m1"));
  EXPECT_TRUE(catalog_.InvocationsOf("mkM1").empty());
  EXPECT_EQ(engine.workflows_submitted(), 1u);
}

TEST_F(ExecutorTest, AlreadyLocalPlanCompletesImmediately) {
  Replica r;
  r.dataset = "m1";
  r.site = "east";
  r.size_bytes = 5;
  ASSERT_TRUE(catalog_.AddReplica(r).ok());
  Result<ExecutionPlan> plan = PlanFor("m1");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->mode, MaterializationMode::kAlreadyLocal);
  Result<WorkflowResult> result = engine_.Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->succeeded);
  EXPECT_EQ(result->nodes_total, 0u);
  EXPECT_EQ(result->transfers, 0u);
  EXPECT_EQ(result->makespan_s, 0.0);
}

TEST_F(ExecutorTest, CompoundWorkflowEndToEnd) {
  workload::HepOptions hep;
  hep.num_batches = 1;
  Result<workload::HepWorkload> workload =
      workload::GenerateHep(&catalog_, hep);
  ASSERT_TRUE(workload.ok());
  ASSERT_TRUE(grid_.PlaceFile("east", "cms.batch0.config", 64 * 1024, true)
                  .ok());
  Replica r;
  r.dataset = "cms.batch0.config";
  r.site = "east";
  r.size_bytes = 64 * 1024;
  ASSERT_TRUE(catalog_.AddReplica(r).ok());

  Result<ExecutionPlan> plan = PlanFor("cms.batch0.ntuple");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->nodes.size(), 4u);
  Result<WorkflowResult> result = engine_.Execute(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->succeeded);
  EXPECT_TRUE(catalog_.IsMaterialized("cms.batch0.ntuple"));
  // Synthesized sub-derivations were defined and carry invocations.
  std::vector<Invocation> ivs =
      catalog_.InvocationsOf("cms-batch0.c3");
  ASSERT_EQ(ivs.size(), 1u);
  // Paper runtime chain: 50+400+200+60 = 710 simulated seconds.
  EXPECT_NEAR(result->makespan_s, 710.0, 5.0);
}

}  // namespace
}  // namespace vdg
