// End-to-end tests of the fault-tolerant derivation engine: same-seed
// determinism, a fault-rate matrix that must succeed within the retry
// budget, backoff/blacklist/failover mechanics, submit-rejection
// retries across maintenance windows, re-derivation of lost inputs
// from the derivation record, rescue plans, and recovery from a
// mid-run site crash.
#include <cstdlib>
#include <gtest/gtest.h>

#include "executor/executor.h"
#include "planner/planner.h"
#include "workload/canonical.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

uint64_t FaultSeed() {
  // CI sweeps several seeds via VDG_FAULT_SEED; locally the default
  // keeps runs reproducible.
  const char* env = std::getenv("VDG_FAULT_SEED");
  return env ? std::strtoull(env, nullptr, 10) : 17;
}

void ExpectStatsEqual(const RecoveryStats& a, const RecoveryStats& b) {
  EXPECT_EQ(a.job_attempts, b.job_attempts);
  EXPECT_EQ(a.job_failures, b.job_failures);
  EXPECT_EQ(a.transfer_attempts, b.transfer_attempts);
  EXPECT_EQ(a.transfer_failures, b.transfer_failures);
  EXPECT_EQ(a.submit_rejections, b.submit_rejections);
  EXPECT_EQ(a.backoff_waits, b.backoff_waits);
  EXPECT_DOUBLE_EQ(a.total_backoff_s, b.total_backoff_s);
  EXPECT_EQ(a.node_timeouts, b.node_timeouts);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.sites_blacklisted, b.sites_blacklisted);
  EXPECT_EQ(a.replicas_lost_detected, b.replicas_lost_detected);
  EXPECT_EQ(a.rederivations, b.rederivations);
  EXPECT_EQ(a.datasets_regenerated, b.datasets_regenerated);
}

// A canonical-application world (random derivation DAG) on the
// two-site testbed, with raw inputs pinned at both sites so no fault
// can destroy source data beyond recovery.
struct CanonicalWorld {
  VirtualDataCatalog catalog{"fault.org"};
  InProcessCatalogClient client{&catalog};
  GridSimulator grid;
  CostEstimator estimator;
  workload::CanonicalGraph graph;

  explicit CanonicalWorld(uint64_t seed, size_t derivations = 24)
      : grid(workload::SmallTestbed(), seed) {
    EXPECT_TRUE(catalog.Open().ok());
    workload::CanonicalGraphOptions options;
    options.num_derivations = derivations;
    options.num_raw_inputs = 6;
    options.seed = seed;
    Result<workload::CanonicalGraph> generated =
        workload::GenerateCanonicalGraph(&catalog, options);
    EXPECT_TRUE(generated.ok()) << generated.status();
    graph = std::move(*generated);
    for (const std::string& raw : graph.raw_inputs) {
      for (const char* site : {"east", "west"}) {
        EXPECT_TRUE(grid.PlaceFile(site, raw, 1 << 20, true).ok());
        Replica replica;
        replica.dataset = raw;
        replica.site = site;
        replica.size_bytes = 1 << 20;
        EXPECT_TRUE(catalog.AddReplica(std::move(replica)).ok());
      }
    }
  }

  Result<ExecutionPlan> PlanSink() {
    RequestPlanner planner(client, grid.topology(), &grid.rls(), estimator);
    PlannerOptions options;
    options.target_site = "east";
    EXPECT_FALSE(graph.sinks.empty());
    return planner.Plan(graph.sinks.front(), options);
  }
};

WorkflowResult RunFaultyCanonical(uint64_t seed, double job_rate,
                                  double transfer_rate) {
  CanonicalWorld world(seed);
  world.grid.set_job_failure_rate(job_rate);
  world.grid.set_transfer_failure_rate(transfer_rate);
  ExecutorOptions opts;
  opts.max_retries = 10;
  opts.faults.backoff_base_s = 1.0;
  WorkflowEngine engine(&world.grid, world.client, opts);
  Result<ExecutionPlan> plan = world.PlanSink();
  EXPECT_TRUE(plan.ok()) << plan.status();
  Result<WorkflowResult> result = engine.Execute(*plan);
  EXPECT_TRUE(result.ok()) << result.status();
  return *result;
}

TEST(FaultRecoveryTest, SameSeedRunsAreBitIdentical) {
  WorkflowResult a = RunFaultyCanonical(FaultSeed(), 0.2, 0.1);
  WorkflowResult b = RunFaultyCanonical(FaultSeed(), 0.2, 0.1);
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.nodes_total, b.nodes_total);
  EXPECT_EQ(a.nodes_succeeded, b.nodes_succeeded);
  EXPECT_EQ(a.nodes_failed, b.nodes_failed);
  EXPECT_EQ(a.nodes_skipped, b.nodes_skipped);
  EXPECT_EQ(a.transfers, b.transfers);
  EXPECT_EQ(a.bytes_staged, b.bytes_staged);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  ExpectStatsEqual(a.recovery, b.recovery);
}

TEST(FaultRecoveryTest, FaultMatrixSucceedsWithinRetryBudget) {
  for (double job_rate : {0.0, 0.1, 0.2}) {
    for (double transfer_rate : {0.0, 0.1, 0.2}) {
      WorkflowResult result =
          RunFaultyCanonical(FaultSeed(), job_rate, transfer_rate);
      EXPECT_TRUE(result.succeeded)
          << "job_rate=" << job_rate
          << " transfer_rate=" << transfer_rate;
      EXPECT_EQ(result.nodes_failed, 0u);
      EXPECT_EQ(result.nodes_succeeded, result.nodes_total);
      if (job_rate == 0.0 && transfer_rate == 0.0) {
        EXPECT_EQ(result.recovery.job_failures, 0u);
        EXPECT_EQ(result.recovery.transfer_failures, 0u);
        EXPECT_EQ(result.recovery.backoff_waits, 0u);
      }
    }
  }
}

TEST(FaultRecoveryTest, MidRunCrashWithDataLossStillCompletes) {
  CanonicalWorld world(FaultSeed());
  // West crashes shortly into the run — running jobs die, unpinned
  // intermediates on west are wiped — and returns 50s later.
  ASSERT_TRUE(world.grid.ScheduleOutage("west", 6.0, 50.0,
                                        /*crash=*/true).ok());
  ExecutorOptions opts;
  opts.max_retries = 10;
  opts.faults.backoff_base_s = 2.0;
  opts.faults.rederive_lost_inputs = true;
  WorkflowEngine engine(&world.grid, world.client, opts);
  Result<ExecutionPlan> plan = world.PlanSink();
  ASSERT_TRUE(plan.ok()) << plan.status();
  Result<WorkflowResult> result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->succeeded);
  EXPECT_EQ(result->nodes_failed, 0u);
  EXPECT_TRUE(world.grid.rls().Exists(world.graph.sinks.front()));
}

// A three-derivation chain world where staging behaviour is fully
// controlled: raw -> mid -> {outA, outB}.
class ChainWorldTest : public ::testing::Test {
 protected:
  ChainWorldTest() : grid_(workload::SmallTestbed(), FaultSeed()) {
    EXPECT_TRUE(catalog_.Open().ok());
    EXPECT_TRUE(catalog_.ImportVdl(R"(
TR conv( output out, input in ) {
  argument stdin = ${input:in};
  argument stdout = ${output:out};
  exec = "/bin/conv";
}
DS raw : Dataset size="1048576";
DV mkMid->conv( out=@{output:"mid"}, in=@{input:"raw"} );
DV mkOutA->conv( out=@{output:"outA"}, in=@{input:"mid"} );
DV mkOutB->conv( out=@{output:"outB"}, in=@{input:"mid"} );
)")
                    .ok());
    EXPECT_TRUE(
        catalog_.Annotate("transformation", "conv", "sim.runtime_s", 20.0)
            .ok());
    for (const char* site : {"east", "west"}) {
      EXPECT_TRUE(grid_.PlaceFile(site, "raw", 1 << 20, true).ok());
      Replica replica;
      replica.dataset = "raw";
      replica.site = site;
      replica.size_bytes = 1 << 20;
      EXPECT_TRUE(catalog_.AddReplica(std::move(replica)).ok());
    }
  }

  Result<ExecutionPlan> PlanFor(const std::string& dataset) {
    RequestPlanner planner(client_, grid_.topology(), &grid_.rls(),
                           estimator_);
    return planner.Plan(dataset, options_);
  }

  // Removes every physical copy of `dataset` while leaving its catalog
  // replica records in place — the "replica lost" failure mode.
  void LoseReplicas(const std::string& dataset) {
    for (const char* site : {"east", "west"}) {
      if (grid_.rls().ExistsAt(dataset, site)) {
        EXPECT_TRUE(grid_.EvictFile(site, dataset).ok());
      }
    }
    EXPECT_FALSE(grid_.rls().Exists(dataset));
  }

  VirtualDataCatalog catalog_{"chain.org"};
  InProcessCatalogClient client_{&catalog_};
  GridSimulator grid_;
  CostEstimator estimator_;
  PlannerOptions options_;
};

TEST_F(ChainWorldTest, SubmitRejectionsRetryWithExponentialBackoff) {
  // The only admissible site spends the first 40 simulated seconds in
  // a maintenance window; backoff (5, 10, 20, 40, ...) must carry the
  // workflow across it.
  options_.target_site = "east";
  options_.site_policy = SiteSelectionPolicy::kFixed;
  options_.fixed_site = "east";
  ASSERT_TRUE(grid_.SetSiteOffline("east", true).ok());
  grid_.events().ScheduleAfter(40.0, [this] {
    EXPECT_TRUE(grid_.SetSiteOffline("east", false).ok());
  });
  ExecutorOptions opts;
  opts.max_retries = 6;
  WorkflowEngine engine(&grid_, client_, opts);
  Result<ExecutionPlan> plan = PlanFor("outA");
  ASSERT_TRUE(plan.ok()) << plan.status();
  Result<WorkflowResult> result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->succeeded);
  // Rejections at t = 0, 5, 15, 35; the t = 75 attempt lands after the
  // window and runs.
  EXPECT_EQ(result->recovery.submit_rejections, 4u);
  EXPECT_EQ(result->recovery.backoff_waits, 4u);
  EXPECT_DOUBLE_EQ(result->recovery.total_backoff_s, 75.0);
  EXPECT_GT(result->makespan_s, 75.0);
}

TEST_F(ChainWorldTest, FailoverMovesWorkOffACrashedSite) {
  options_.target_site = "east";
  Result<ExecutionPlan> plan = PlanFor("outA");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->nodes.size(), 2u);
  const std::string planned = plan->nodes[0].site;
  ASSERT_TRUE(grid_.CrashSite(planned).ok());

  ExecutorOptions opts;
  opts.max_retries = 3;
  opts.faults.backoff_base_s = 1.0;
  WorkflowEngine engine(&grid_, client_, opts);
  Result<WorkflowResult> result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->succeeded);
  EXPECT_GE(result->recovery.failovers, 1u);
  EXPECT_GE(result->recovery.submit_rejections, 1u);
  Result<std::vector<NodeExecution>> executions =
      engine.ExecutionsOf(result->workflow_id);
  ASSERT_TRUE(executions.ok());
  EXPECT_NE((*executions)[0].site, planned);
  EXPECT_TRUE((*executions)[0].succeeded);
}

TEST_F(ChainWorldTest, FlakySiteIsBlacklistedAndBackoffIsExponential) {
  options_.target_site = "east";
  grid_.set_job_failure_rate(1.0);  // nothing can succeed anywhere
  ExecutorOptions opts;
  opts.max_retries = 5;
  opts.faults.backoff_base_s = 1.0;
  opts.faults.blacklist_threshold = 2;
  opts.faults.blacklist_cooldown_s = 1e6;
  WorkflowEngine engine(&grid_, client_, opts);
  Result<ExecutionPlan> plan = PlanFor("mid");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->nodes.size(), 1u);
  Result<WorkflowResult> result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->succeeded);
  EXPECT_EQ(result->nodes_failed, 1u);
  // 6 attempts, 5 backoffs of 1, 2, 4, 8, 16 simulated seconds.
  EXPECT_EQ(result->recovery.job_attempts, 6u);
  EXPECT_EQ(result->recovery.job_failures, 6u);
  EXPECT_EQ(result->recovery.backoff_waits, 5u);
  EXPECT_DOUBLE_EQ(result->recovery.total_backoff_s, 31.0);
  // Both sites hit the consecutive-failure threshold; the engine kept
  // moving work between them while any alternative remained.
  EXPECT_GE(result->recovery.sites_blacklisted, 2u);
  EXPECT_GE(result->recovery.failovers, 1u);
  EXPECT_FALSE(engine.IsSiteUsable(plan->nodes[0].site));
}

TEST_F(ChainWorldTest, NodeTimeoutAbandonsSlowAttempts) {
  options_.target_site = "east";
  ExecutorOptions opts;
  opts.max_retries = 2;
  opts.faults.backoff_base_s = 1.0;
  opts.faults.node_timeout_s = 10.0;  // conv takes 20s: always too slow
  WorkflowEngine engine(&grid_, client_, opts);
  Result<ExecutionPlan> plan = PlanFor("mid");
  ASSERT_TRUE(plan.ok()) << plan.status();
  Result<WorkflowResult> result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->succeeded);
  EXPECT_EQ(result->recovery.node_timeouts, 3u);

  // A deadline longer than the runtime never fires.
  ExecutorOptions relaxed = opts;
  relaxed.faults.node_timeout_s = 30.0;
  WorkflowEngine patient(&grid_, client_, relaxed);
  Result<ExecutionPlan> again = PlanFor("mid");
  ASSERT_TRUE(again.ok()) << again.status();
  Result<WorkflowResult> ok = patient.Execute(*again);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(ok->succeeded);
  EXPECT_EQ(ok->recovery.node_timeouts, 0u);
}

TEST_F(ChainWorldTest, FailedTransfersAreRetriedUntilStagingSucceeds) {
  // raw only exists at west; the fixed east placement forces a
  // west->east staging transfer under a 90% failure rate.
  for (StorageElement* se : grid_.StorageAt("east")) {
    if (se->Contains("raw")) {
      ASSERT_TRUE(se->SetPinned("raw", false).ok());
    }
  }
  ASSERT_TRUE(grid_.EvictFile("east", "raw").ok());
  for (const Replica& replica : catalog_.ReplicasOf("raw")) {
    if (replica.site == "east") {
      ASSERT_TRUE(catalog_.RemoveReplica(replica.id).ok());
    }
  }
  options_.target_site = "east";
  options_.site_policy = SiteSelectionPolicy::kFixed;
  options_.fixed_site = "east";
  grid_.set_transfer_failure_rate(0.9);
  ExecutorOptions opts;
  opts.max_retries = 30;
  opts.faults.backoff_base_s = 0.5;
  WorkflowEngine engine(&grid_, client_, opts);
  Result<ExecutionPlan> plan = PlanFor("mid");
  ASSERT_TRUE(plan.ok()) << plan.status();
  Result<WorkflowResult> result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->succeeded);
  EXPECT_GE(result->recovery.transfer_attempts,
            result->recovery.transfer_failures + 1);
  EXPECT_GT(result->bytes_staged, 0);
  EXPECT_TRUE(grid_.rls().Exists("mid"));
}

TEST_F(ChainWorldTest, RederivesLostInputAndRecordsRecovery) {
  // Materialize mid (via outA), then destroy every physical copy while
  // the catalog still claims replicas exist.
  options_.target_site = "east";
  {
    WorkflowEngine engine(&grid_, client_, {});
    Result<ExecutionPlan> first = PlanFor("outA");
    ASSERT_TRUE(first.ok()) << first.status();
    Result<WorkflowResult> ran = engine.Execute(*first);
    ASSERT_TRUE(ran.ok()) << ran.status();
    ASSERT_TRUE(ran->succeeded);
  }
  LoseReplicas("mid");

  // The consumer's plan reuses the (supposedly) materialized mid.
  Result<ExecutionPlan> plan = PlanFor("outB");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->nodes.size(), 1u);

  ExecutorOptions opts;
  opts.faults.rederive_lost_inputs = true;
  WorkflowEngine engine(&grid_, client_, opts);
  Result<WorkflowResult> result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->succeeded);
  EXPECT_GE(result->recovery.replicas_lost_detected, 1u);
  EXPECT_EQ(result->recovery.rederivations, 1u);
  EXPECT_EQ(result->recovery.datasets_regenerated, 1u);
  // The input physically exists again and the recovery is in the
  // provenance record: the dataset is marked re-derived and its
  // producer ran a second time.
  EXPECT_TRUE(grid_.rls().Exists("mid"));
  EXPECT_TRUE(grid_.rls().Exists("outB"));
  Result<Dataset> mid = catalog_.GetDataset("mid");
  ASSERT_TRUE(mid.ok());
  EXPECT_TRUE(mid->annotations.GetBool("recovery.rederived")
                  .value_or(false));
  EXPECT_EQ(catalog_.InvocationsOf("mkMid").size(), 2u);
}

TEST_F(ChainWorldTest, DefaultPolicyTrustsCatalogReplicaRecords) {
  // Without rederive_lost_inputs the engine preserves the seed
  // behaviour: catalog replica records are taken at face value and
  // staging proceeds from the claimed location.
  options_.target_site = "east";
  {
    WorkflowEngine engine(&grid_, client_, {});
    Result<ExecutionPlan> first = PlanFor("outA");
    ASSERT_TRUE(first.ok()) << first.status();
    ASSERT_TRUE(engine.Execute(*first)->succeeded);
  }
  LoseReplicas("mid");
  Result<ExecutionPlan> plan = PlanFor("outB");
  ASSERT_TRUE(plan.ok()) << plan.status();
  WorkflowEngine engine(&grid_, client_, {});
  Result<WorkflowResult> result = engine.Execute(*plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->succeeded);
  EXPECT_EQ(result->recovery.rederivations, 0u);
  EXPECT_EQ(result->recovery.datasets_regenerated, 0u);
}

TEST_F(ChainWorldTest, AlreadyLocalFetchCompletesSynchronously) {
  // A pure-fetch plan whose dataset already sits at the destination
  // (the RescueOf-resubmission shape: rescue plans copy the original
  // fetches wholesale) completes inside Submit — the engine must not
  // touch the erased workflow state afterwards (use-after-free
  // regression, caught under ASan).
  ExecutionPlan plan;
  plan.target_dataset = "raw";
  plan.target_site = "east";
  plan.mode = MaterializationMode::kFetch;
  TransferPlan fetch;
  fetch.dataset = "raw";
  fetch.from_site = "west";
  fetch.to_site = "east";
  fetch.bytes = 1 << 20;
  plan.fetches.push_back(fetch);

  WorkflowEngine engine(&grid_, client_, {});
  Result<WorkflowResult> result = engine.Execute(plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->succeeded);
  EXPECT_EQ(result->transfers, 0u);  // nothing moved: already local
}

TEST_F(ChainWorldTest, RederivationCapHoldsAcrossOneStagingPass) {
  // Three derived inputs of one node all lose their bytes at once;
  // with a ceiling of two recovery sub-workflows the single staging
  // pass may launch at most two — the third input falls back to the
  // trusted-catalog staging path instead.
  ASSERT_TRUE(catalog_.ImportVdl(R"(
DV mkIA->conv( out=@{output:"ia"}, in=@{input:"raw"} );
DV mkIB->conv( out=@{output:"ib"}, in=@{input:"raw"} );
DV mkIC->conv( out=@{output:"ic"}, in=@{input:"raw"} );
)")
                  .ok());
  options_.target_site = "east";
  for (const char* input : {"ia", "ib", "ic"}) {
    WorkflowEngine warm(&grid_, client_, {});
    Result<ExecutionPlan> plan = PlanFor(input);
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_TRUE(warm.Execute(*plan)->succeeded);
    LoseReplicas(input);
  }

  ExecutionPlan plan;
  plan.target_dataset = "z";
  plan.target_site = "east";
  PlanNode node;
  node.derivation = Derivation("mergeLost", "conv");
  node.transformation = "conv";
  node.site = "east";
  node.inputs = {"ia", "ib", "ic"};
  node.outputs = {"z"};
  node.candidate_sites = {"east", "west"};
  plan.nodes.push_back(std::move(node));

  ExecutorOptions opts;
  opts.record_provenance = false;  // synthetic derivation, catalog-less
  opts.faults.rederive_lost_inputs = true;
  opts.faults.max_rederivations_per_node = 2;
  WorkflowEngine engine(&grid_, client_, opts);
  Result<WorkflowResult> result = engine.Execute(plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->succeeded);
  EXPECT_EQ(result->recovery.rederivations, 2u);  // ceiling respected
  EXPECT_EQ(result->recovery.datasets_regenerated, 2u);
}

TEST_F(ChainWorldTest, RescuePlanResumesAFailedWorkflow) {
  options_.target_site = "east";
  grid_.set_job_failure_rate(1.0);
  ExecutorOptions opts;
  opts.max_retries = 0;
  opts.faults.backoff_base_s = 1.0;
  WorkflowEngine engine(&grid_, client_, opts);
  Result<ExecutionPlan> plan = PlanFor("outA");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->nodes.size(), 2u);
  Result<WorkflowResult> failed = engine.Execute(*plan);
  ASSERT_TRUE(failed.ok()) << failed.status();
  EXPECT_FALSE(failed->succeeded);
  EXPECT_EQ(failed->nodes_failed + failed->nodes_skipped, 2u);

  // The rescue plan carries exactly the unfinished nodes, with the
  // mkMid -> mkOutA edge intact.
  Result<ExecutionPlan> rescue = engine.RescueOf(failed->workflow_id);
  ASSERT_TRUE(rescue.ok()) << rescue.status();
  ASSERT_EQ(rescue->nodes.size(), 2u);

  // The fault clears; submitting the rescue plan finishes the job.
  grid_.set_job_failure_rate(0.0);
  Result<WorkflowResult> resumed = engine.Execute(*rescue);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->succeeded);
  EXPECT_TRUE(grid_.rls().Exists("outA"));
  EXPECT_TRUE(catalog_.IsMaterialized("outA"));

  // A successful workflow has an empty rescue plan; unknown ids are
  // NotFound.
  Result<ExecutionPlan> empty = engine.RescueOf(resumed->workflow_id);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->nodes.empty());
  EXPECT_TRUE(engine.RescueOf(999999).status().IsNotFound());
}

TEST_F(ChainWorldTest, RescueSkipsAlreadyMaterializedPredecessors) {
  // mkMid succeeds, then everything starts failing: the rescue plan
  // must contain only the unfinished tail, staging from mid's
  // materialized output rather than re-running its producer.
  options_.target_site = "east";
  WorkflowEngine warm(&grid_, client_, {});
  Result<ExecutionPlan> mid_plan = PlanFor("mid");
  ASSERT_TRUE(mid_plan.ok()) << mid_plan.status();
  ASSERT_TRUE(warm.Execute(*mid_plan)->succeeded);

  Result<ExecutionPlan> plan = PlanFor("outA");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->nodes.size(), 1u);  // mid reused, only mkOutA runs
  grid_.set_job_failure_rate(1.0);
  ExecutorOptions opts;
  opts.max_retries = 0;
  opts.faults.backoff_base_s = 1.0;
  WorkflowEngine engine(&grid_, client_, opts);
  Result<WorkflowResult> failed = engine.Execute(*plan);
  ASSERT_TRUE(failed.ok());
  EXPECT_FALSE(failed->succeeded);

  Result<ExecutionPlan> rescue = engine.RescueOf(failed->workflow_id);
  ASSERT_TRUE(rescue.ok()) << rescue.status();
  ASSERT_EQ(rescue->nodes.size(), 1u);
  EXPECT_EQ(rescue->nodes[0].derivation.name(), "mkOutA");
  grid_.set_job_failure_rate(0.0);
  Result<WorkflowResult> resumed = engine.Execute(*rescue);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed->succeeded);
  EXPECT_TRUE(grid_.rls().Exists("outA"));
}

}  // namespace
}  // namespace vdg
