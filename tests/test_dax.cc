// Tests for the abstract-DAG (DAX) plan wire format — Chimera's real
// output artifact, consumed by Pegasus / Condor DAGMan in the paper's
// derivation path (Section 5.4).
#include "planner/dax.h"

#include <gtest/gtest.h>

#include "estimator/estimator.h"
#include "executor/executor.h"
#include "planner/planner.h"
#include "workload/sdss.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

class DaxTest : public ::testing::Test {
 protected:
  DaxTest()
      : catalog_("dax.org"),
        client_(&catalog_),
        topology_(workload::SmallTestbed()),
        planner_(client_, topology_, nullptr, estimator_) {
    EXPECT_TRUE(catalog_.Open().ok());
    EXPECT_TRUE(catalog_.ImportVdl(R"(
TR stepA( output out, input in ) {
  argument stdin = ${input:in};
  argument stdout = ${output:out};
  exec = "/bin/a";
}
TR join( output out, input lhs, input rhs ) {
  argument l = "-l "${input:lhs};
  argument r = "-r "${input:rhs};
  argument stdout = ${output:out};
  exec = "/bin/j";
}
DS raw : Dataset size="1000";
DV mk1->stepA( out=@{output:"m1"}, in=@{input:"raw"} );
DV mk2->stepA( out=@{output:"m2"}, in=@{input:"raw"} );
DV mkj->join( out=@{output:"final"}, lhs=@{input:"m1"},
              rhs=@{input:"m2"} );
)")
                    .ok());
    Replica r;
    r.dataset = "raw";
    r.site = "east";
    r.size_bytes = 1000;
    EXPECT_TRUE(catalog_.AddReplica(r).ok());
    options_.target_site = "east";
  }

  VirtualDataCatalog catalog_;
  InProcessCatalogClient client_;
  GridTopology topology_;
  CostEstimator estimator_;
  RequestPlanner planner_;
  PlannerOptions options_;
};

TEST_F(DaxTest, EmitsJobsUsesAndEdges) {
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());
  std::string dax = PlanToDax(*plan);
  EXPECT_NE(dax.find("<adag name=\"materialize-final\""), std::string::npos);
  EXPECT_NE(dax.find("<job id=\"ID000001\""), std::string::npos);
  EXPECT_NE(dax.find("transformation=\"join\""), std::string::npos);
  EXPECT_NE(dax.find("<uses file=\"raw\" link=\"input\"/>"),
            std::string::npos);
  EXPECT_NE(dax.find("<uses file=\"final\" link=\"output\"/>"),
            std::string::npos);
  EXPECT_NE(dax.find("<child ref=\"ID000003\">"), std::string::npos);
  EXPECT_NE(dax.find("<parent ref=\"ID000001\"/>"), std::string::npos);
}

TEST_F(DaxTest, RoundTripPreservesPlanStructure) {
  options_.site_policy = SiteSelectionPolicy::kFixed;
  options_.fixed_site = "west";  // forces staging and a final fetch
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());
  Result<ExecutionPlan> decoded = PlanFromDax(PlanToDax(*plan));
  ASSERT_TRUE(decoded.ok()) << decoded.status();

  EXPECT_EQ(decoded->target_dataset, plan->target_dataset);
  EXPECT_EQ(decoded->target_site, plan->target_site);
  EXPECT_EQ(decoded->mode, plan->mode);
  ASSERT_EQ(decoded->nodes.size(), plan->nodes.size());
  for (size_t i = 0; i < plan->nodes.size(); ++i) {
    EXPECT_EQ(decoded->nodes[i].transformation,
              plan->nodes[i].transformation);
    EXPECT_EQ(decoded->nodes[i].site, plan->nodes[i].site);
    EXPECT_EQ(decoded->nodes[i].deps, plan->nodes[i].deps);
    EXPECT_EQ(decoded->nodes[i].inputs, plan->nodes[i].inputs);
    EXPECT_EQ(decoded->nodes[i].outputs, plan->nodes[i].outputs);
    EXPECT_EQ(decoded->nodes[i].derivation.SignatureText(),
              plan->nodes[i].derivation.SignatureText());
    ASSERT_EQ(decoded->nodes[i].staging.size(),
              plan->nodes[i].staging.size());
  }
  ASSERT_EQ(decoded->fetches.size(), plan->fetches.size());
  for (size_t i = 0; i < plan->fetches.size(); ++i) {
    EXPECT_EQ(decoded->fetches[i].dataset, plan->fetches[i].dataset);
    EXPECT_EQ(decoded->fetches[i].bytes, plan->fetches[i].bytes);
  }
}

TEST_F(DaxTest, DecodedPlanExecutes) {
  // A DAX round-tripped plan must still run on the grid: the payload
  // derivations carry everything the executor needs.
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());
  Result<ExecutionPlan> decoded = PlanFromDax(PlanToDax(*plan));
  ASSERT_TRUE(decoded.ok());

  GridSimulator grid(workload::SmallTestbed(), 3);
  ASSERT_TRUE(grid.PlaceFile("east", "raw", 1000, true).ok());
  WorkflowEngine engine(&grid, client_);
  Result<WorkflowResult> result = engine.Execute(*decoded);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->succeeded);
  EXPECT_EQ(result->nodes_succeeded, 3u);
  EXPECT_TRUE(catalog_.IsMaterialized("final"));
}

TEST_F(DaxTest, SdssWorkflowDaxScales) {
  workload::SdssOptions sdss;
  sdss.num_stripes = 1;
  sdss.fields_per_stripe = 10;
  Result<workload::SdssWorkload> workload =
      workload::GenerateSdss(&catalog_, sdss);
  ASSERT_TRUE(workload.ok());
  for (size_t i = 0; i < workload->field_datasets.size(); ++i) {
    Replica r;
    r.dataset = workload->field_datasets[i];
    r.site = i % 2 == 0 ? "east" : "west";
    r.size_bytes = 1 << 20;
    ASSERT_TRUE(catalog_.AddReplica(r).ok());
  }
  Result<ExecutionPlan> plan =
      planner_.Plan(workload->cluster_catalogs[0], options_);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->nodes.size(), 11u);
  Result<ExecutionPlan> decoded = PlanFromDax(PlanToDax(*plan));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->nodes.size(), 11u);
  // The merge node depends on all ten searches.
  EXPECT_EQ(decoded->nodes[10].deps.size(), 10u);
}

TEST_F(DaxTest, RejectsMalformedDax) {
  EXPECT_FALSE(PlanFromDax("<notadag/>").ok());
  EXPECT_FALSE(PlanFromDax("garbage").ok());
  EXPECT_FALSE(PlanFromDax("<adag><job id=\"ID000001\"/></adag>").ok());
  // Non-topological or dangling edges are rejected.
  EXPECT_FALSE(PlanFromDax(R"(<adag>
    <child ref="ID000009"><parent ref="ID000001"/></child>
  </adag>)")
                   .ok());
}

}  // namespace
}  // namespace vdg
