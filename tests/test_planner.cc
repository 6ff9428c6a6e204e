#include "planner/planner.h"

#include <gtest/gtest.h>

#include "planner/expansion.h"
#include "workload/hep.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

// trans1..trans5 from Appendix A (trans4/trans5 compound).
constexpr const char* kCompoundVdl = R"(
TR trans1( output a2, input a1 ) {
  argument stdin = ${input:a1};
  argument stdout = ${output:a2};
  exec = "/usr/bin/app1";
}
TR trans2( output a2, input a1 ) {
  argument stdin = ${input:a1};
  argument stdout = ${output:a2};
  exec = "/usr/bin/app2";
}
TR trans3( input a2, input a1, output a3 ) {
  argument parg = "-p foo";
  argument stdin = ${input:a2};
  argument farg = "-f "${input:a1};
  argument stdout = ${output:a3};
  exec = "/usr/bin/app3";
}
TR trans4( input a2, input a1,
           inout a5=@{inout:"anywhere":""},
           inout a4=@{inout:"somewhere":""},
           output a3 ) {
  trans1( a2=${output:a4}, a1=${a1} );
  trans2( a2=${output:a5}, a1=${a2} );
  trans3( a2=${input:a5}, a1=${input:a4}, a3=${output:a3} );
}
TR trans5( input a2, input a1,
           inout a4=@{inout:"someplace":""},
           output a3 ) {
  trans1( a2=${output:a4}, a1=${a1} );
  trans4( a2=${input:a4}, a1=${a2}, a3=${a3} );
}
DS f1 : Dataset size="1000";
DS f2 : Dataset size="1000";
DV use4->trans4( a2=@{input:"f2"}, a1=@{input:"f1"},
                 a3=@{output:"f3"} );
DV use5->trans5( a2=@{input:"f2"}, a1=@{input:"f1"},
                 a3=@{output:"f5out"} );
)";

// ----------------------------- Expansion -----------------------------

class ExpansionTest : public ::testing::Test {
 protected:
  ExpansionTest() : catalog_("exp.org"), client_(&catalog_) {
    EXPECT_TRUE(catalog_.Open().ok());
    EXPECT_TRUE(catalog_.ImportVdl(kCompoundVdl).ok());
  }
  VirtualDataCatalog catalog_;
  InProcessCatalogClient client_;
};

TEST_F(ExpansionTest, SimpleDerivationExpandsToItself) {
  Derivation dv("plain", "trans1");
  ASSERT_TRUE(
      dv.AddArg(ActualArg::DatasetRef("a2", "x", ArgDirection::kOut)).ok());
  ASSERT_TRUE(
      dv.AddArg(ActualArg::DatasetRef("a1", "f1", ArgDirection::kIn)).ok());
  Result<std::vector<Derivation>> subs = ExpandDerivation(client_, dv);
  ASSERT_TRUE(subs.ok());
  ASSERT_EQ(subs->size(), 1u);
  EXPECT_EQ((*subs)[0].name(), "plain");
}

TEST_F(ExpansionTest, Trans4ExpandsToThreeStages) {
  Result<Derivation> dv = catalog_.GetDerivation("use4");
  ASSERT_TRUE(dv.ok());
  Result<std::vector<Derivation>> subs = ExpandDerivation(client_, *dv);
  ASSERT_TRUE(subs.ok()) << subs.status();
  ASSERT_EQ(subs->size(), 3u);
  EXPECT_EQ((*subs)[0].transformation(), "trans1");
  EXPECT_EQ((*subs)[1].transformation(), "trans2");
  EXPECT_EQ((*subs)[2].transformation(), "trans3");
  // Stage 1 writes the a4 temp from compound input a1=f1.
  EXPECT_EQ((*subs)[0].InputDatasets(), std::vector<std::string>{"f1"});
  EXPECT_EQ((*subs)[0].OutputDatasets(),
            std::vector<std::string>{"use4.a4"});
  // Stage 2 reads f2 into the a5 temp.
  EXPECT_EQ((*subs)[1].InputDatasets(), std::vector<std::string>{"f2"});
  // Stage 3 joins both temps into the final output.
  std::vector<std::string> stage3_inputs = (*subs)[2].InputDatasets();
  std::sort(stage3_inputs.begin(), stage3_inputs.end());
  EXPECT_EQ(stage3_inputs,
            (std::vector<std::string>{"use4.a4", "use4.a5"}));
  EXPECT_EQ((*subs)[2].OutputDatasets(), std::vector<std::string>{"f3"});
}

TEST_F(ExpansionTest, NestedCompoundFlattensRecursively) {
  Result<Derivation> dv = catalog_.GetDerivation("use5");
  ASSERT_TRUE(dv.ok());
  Result<std::vector<Derivation>> subs = ExpandDerivation(client_, *dv);
  ASSERT_TRUE(subs.ok()) << subs.status();
  // trans5 = trans1 + trans4(= 3 stages) = 4 simple derivations.
  ASSERT_EQ(subs->size(), 4u);
  EXPECT_EQ((*subs)[0].transformation(), "trans1");
  // The nested temp names are scoped by the synthesized child name.
  EXPECT_EQ((*subs)[1].OutputDatasets(),
            std::vector<std::string>{"use5.c1.a4"});
  EXPECT_EQ((*subs)[3].OutputDatasets(),
            std::vector<std::string>{"f5out"});
}

TEST_F(ExpansionTest, TempNamesAreScopedPerDerivation) {
  Derivation again("use4b", "trans4");
  ASSERT_TRUE(
      again.AddArg(ActualArg::DatasetRef("a2", "f2", ArgDirection::kIn))
          .ok());
  ASSERT_TRUE(
      again.AddArg(ActualArg::DatasetRef("a1", "f1", ArgDirection::kIn))
          .ok());
  ASSERT_TRUE(again
                  .AddArg(ActualArg::DatasetRef("a3", "f3b",
                                                ArgDirection::kOut))
                  .ok());
  Result<std::vector<Derivation>> subs = ExpandDerivation(client_, again);
  ASSERT_TRUE(subs.ok());
  EXPECT_EQ((*subs)[0].OutputDatasets(),
            std::vector<std::string>{"use4b.a4"});
}

TEST(StripNamespaceTest, Basics) {
  EXPECT_EQ(StripNamespace("ns::tr"), "tr");
  EXPECT_EQ(StripNamespace("tr"), "tr");
  EXPECT_EQ(StripNamespace("a::b::c"), "c");
}

// ------------------------------ Planner ------------------------------

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest()
      : catalog_("plan.org"),
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
TR stepB( output out, input in ) {
  argument stdin = ${input:in};
  argument stdout = ${output:out};
  exec = "/bin/b";
}
DS raw : Dataset size="1000000";
DV makeMid->stepA( out=@{output:"mid"}, in=@{input:"raw"} );
DV makeFinal->stepB( out=@{output:"final"}, in=@{input:"mid"} );
)")
                    .ok());
    AddReplica("raw", "east", 1000000);
    options_.target_site = "east";
  }

  void AddReplica(const std::string& ds, const std::string& site,
                  int64_t bytes) {
    Replica r;
    r.dataset = ds;
    r.site = site;
    r.size_bytes = bytes;
    ASSERT_TRUE(catalog_.AddReplica(r).ok());
  }

  VirtualDataCatalog catalog_;
  InProcessCatalogClient client_;
  GridTopology topology_;
  CostEstimator estimator_;
  RequestPlanner planner_;
  PlannerOptions options_;
};

TEST_F(PlannerTest, RerunPlanResolvesFullChain) {
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->mode, MaterializationMode::kRerun);
  ASSERT_EQ(plan->nodes.size(), 2u);
  EXPECT_EQ(plan->nodes[0].derivation.name(), "makeMid");
  EXPECT_EQ(plan->nodes[1].derivation.name(), "makeFinal");
  EXPECT_EQ(plan->nodes[1].deps, std::vector<size_t>{0});
  EXPECT_GT(plan->est_makespan_s, 0.0);
  EXPECT_GT(plan->est_compute_s, 0.0);
}

TEST_F(PlannerTest, AlreadyLocalShortCircuits) {
  AddReplica("final", "east", 10);
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->mode, MaterializationMode::kAlreadyLocal);
  EXPECT_TRUE(plan->empty());
}

TEST_F(PlannerTest, FetchWinsWhenRemoteCopyIsCheap) {
  AddReplica("final", "west", 10);  // tiny: fetch is nearly free
  estimator_.set_default_runtime(1000.0);
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->mode, MaterializationMode::kFetch);
  ASSERT_EQ(plan->fetches.size(), 1u);
  EXPECT_EQ(plan->fetches[0].from_site, "west");
  EXPECT_EQ(plan->fetches[0].to_site, "east");
}

TEST_F(PlannerTest, RerunWinsWhenTransferIsExpensive) {
  // A huge remote copy vs a 1-second recompute.
  AddReplica("final", "west", 10LL << 30);
  ASSERT_TRUE(catalog_.SetDatasetSize("final", 10LL << 30).ok());
  AddReplica("mid", "east", 10);
  estimator_.set_default_runtime(1.0);
  Result<RequestPlanner::ModeDecision> decision =
      planner_.DecideMode("final", options_);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->mode, MaterializationMode::kRerun);
  EXPECT_GT(decision->fetch_cost_s, decision->rerun_cost_s);
}

TEST_F(PlannerTest, DisallowFetchForcesRerun) {
  AddReplica("final", "west", 10);
  options_.allow_fetch = false;
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->mode, MaterializationMode::kRerun);
  EXPECT_FALSE(plan->nodes.empty());
}

TEST_F(PlannerTest, ReuseSkipsMaterializedIntermediates) {
  AddReplica("mid", "east", 500);
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->nodes.size(), 1u);  // only makeFinal
  EXPECT_EQ(plan->nodes[0].derivation.name(), "makeFinal");
}

TEST_F(PlannerTest, NoReuseRerunsEverything) {
  AddReplica("mid", "east", 500);
  options_.reuse_materialized = false;
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->nodes.size(), 2u);
}

TEST_F(PlannerTest, RawUnmaterializedInputIsAnError) {
  ASSERT_TRUE(catalog_.ImportVdl(R"(
DS orphan : Dataset;
DV needsOrphan->stepA( out=@{output:"from-orphan"},
                       in=@{input:"orphan"} );
)")
                  .ok());
  Result<ExecutionPlan> plan = planner_.Plan("from-orphan", options_);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PlannerTest, UnknownTargetsRejected) {
  EXPECT_TRUE(planner_.Plan("ghost", options_).status().IsNotFound());
  options_.target_site = "mars";
  EXPECT_TRUE(planner_.Plan("final", options_).status().IsNotFound());
}

TEST_F(PlannerTest, FixedSitePolicyPinsEverything) {
  options_.site_policy = SiteSelectionPolicy::kFixed;
  options_.fixed_site = "west";
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());
  for (const PlanNode& node : plan->nodes) {
    EXPECT_EQ(node.site, "west");
  }
  // Result must hop back to the target site.
  ASSERT_EQ(plan->fetches.size(), 1u);
  EXPECT_EQ(plan->fetches[0].to_site, "east");
}

TEST_F(PlannerTest, DataLocalPolicyFollowsInputBytes) {
  options_.site_policy = SiteSelectionPolicy::kDataLocal;
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());
  // raw sits at east, so stage 1 runs at east.
  EXPECT_EQ(plan->nodes[0].site, "east");
}

TEST_F(PlannerTest, MinCostAvoidsNeedlessTransfers) {
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());
  // Everything can run at east where raw lives: no staging at all.
  for (const PlanNode& node : plan->nodes) {
    EXPECT_EQ(node.site, "east");
    EXPECT_TRUE(node.staging.empty());
  }
  EXPECT_TRUE(plan->fetches.empty());
}

TEST_F(PlannerTest, StagingPlansComputedForRemoteInputs) {
  options_.site_policy = SiteSelectionPolicy::kFixed;
  options_.fixed_site = "west";
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());
  // Stage 1 at west must stage raw from east.
  ASSERT_EQ(plan->nodes[0].staging.size(), 1u);
  EXPECT_EQ(plan->nodes[0].staging[0].dataset, "raw");
  EXPECT_EQ(plan->nodes[0].staging[0].from_site, "east");
  EXPECT_GT(plan->nodes[0].staging[0].est_seconds, 0.0);
  // Stage 2's input comes from stage 1 at the same site: no staging.
  EXPECT_TRUE(plan->nodes[1].staging.empty());
}

TEST_F(PlannerTest, ShippingPatternClassification) {
  options_.site_policy = SiteSelectionPolicy::kFixed;
  options_.fixed_site = "west";
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->nodes[0].pattern, ShippingPattern::kShipBoth);
  EXPECT_EQ(plan->nodes[1].pattern, ShippingPattern::kProcedureToData);
}

TEST_F(PlannerTest, QueuePenaltySteersAway) {
  options_.queue_depth = [](std::string_view site) {
    return site == "east" ? 1000 : 0;
  };
  options_.queue_penalty_s = 10.0;
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());
  for (const PlanNode& node : plan->nodes) {
    EXPECT_EQ(node.site, "west");
  }
}

TEST_F(PlannerTest, PlanToStringMentionsEverything) {
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());
  std::string text = plan->ToString();
  EXPECT_NE(text.find("makeMid"), std::string::npos);
  EXPECT_NE(text.find("makeFinal"), std::string::npos);
  EXPECT_NE(text.find("rerun"), std::string::npos);
}

TEST_F(PlannerTest, FeasibilityAssessment) {
  // Default estimates: 2 stages x 60s = 120s makespan.
  Result<RequestPlanner::FeasibilityReport> tight =
      planner_.AssessFeasibility("final", options_, 60.0);
  ASSERT_TRUE(tight.ok());
  EXPECT_FALSE(tight->feasible);
  EXPECT_EQ(tight->derivations_needed, 2u);
  EXPECT_NEAR(tight->est_seconds, 120.0, 1.0);

  Result<RequestPlanner::FeasibilityReport> loose =
      planner_.AssessFeasibility("final", options_, 1000.0);
  ASSERT_TRUE(loose.ok());
  EXPECT_TRUE(loose->feasible);
  EXPECT_EQ(loose->mode, MaterializationMode::kRerun);

  // Already-materialized data is feasible for any deadline.
  AddReplica("final", "east", 10);
  Result<RequestPlanner::FeasibilityReport> instant =
      planner_.AssessFeasibility("final", options_, 0.001);
  ASSERT_TRUE(instant.ok());
  EXPECT_TRUE(instant->feasible);
  EXPECT_EQ(instant->mode, MaterializationMode::kAlreadyLocal);
}

TEST_F(PlannerTest, RequirementsRestrictSiteChoice) {
  // stepA may only run at west, despite raw living at east.
  ASSERT_TRUE(
      catalog_.Annotate("transformation", "stepA", "req.site", "west").ok());
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->nodes[0].site, "west");
  // stepB is unconstrained and follows cost back to east... or stays
  // where its input landed; either way it must not violate stepA.
  ASSERT_EQ(plan->nodes[0].transformation, "stepA");
}

TEST_F(PlannerTest, MinCpuFactorRequirement) {
  GridTopology topology;
  SiteConfig slow;
  slow.name = "slow";
  slow.hosts.push_back({"s0", 1.0, 1});
  SiteConfig fast;
  fast.name = "fast";
  fast.hosts.push_back({"f0", 3.0, 1});
  ASSERT_TRUE(topology.AddSite(slow).ok());
  ASSERT_TRUE(topology.AddSite(fast).ok());
  RequestPlanner planner(client_, topology, nullptr, estimator_);
  ASSERT_TRUE(catalog_
                  .Annotate("transformation", "stepA",
                            "req.min_cpu_factor", 2.0)
                  .ok());
  // Make "slow" otherwise attractive: raw is remote to both, so only
  // the requirement differentiates.
  PlannerOptions opts;
  opts.target_site = "slow";
  Result<ExecutionPlan> plan = planner.Plan("final", opts);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->nodes[0].site, "fast");
}

TEST_F(PlannerTest, UnsatisfiableRequirementsFallBackToAllSites) {
  ASSERT_TRUE(catalog_
                  .Annotate("transformation", "stepA", "req.site",
                            "atlantis")
                  .ok());
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());  // best-effort, not an error
  EXPECT_FALSE(plan->nodes[0].site.empty());
}

TEST_F(PlannerTest, FixedPolicyOverridesRequirements) {
  ASSERT_TRUE(
      catalog_.Annotate("transformation", "stepA", "req.site", "east").ok());
  options_.site_policy = SiteSelectionPolicy::kFixed;
  options_.fixed_site = "west";
  Result<ExecutionPlan> plan = planner_.Plan("final", options_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->nodes[0].site, "west");
}

TEST_F(PlannerTest, CompoundDerivationPlansAsExpandedDag) {
  workload::HepOptions hep;
  hep.num_batches = 1;
  Result<workload::HepWorkload> workload =
      workload::GenerateHep(&catalog_, hep);
  ASSERT_TRUE(workload.ok()) << workload.status();
  AddReplica("cms.batch0.config", "east", 64 * 1024);
  Result<ExecutionPlan> plan =
      planner_.Plan("cms.batch0.ntuple", options_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->nodes.size(), 4u);  // the four expanded stages
  EXPECT_EQ(plan->nodes[0].transformation, "cms-generate");
  EXPECT_EQ(plan->nodes[3].transformation, "cms-analyze");
  // Chain dependencies: each stage depends on the previous.
  EXPECT_EQ(plan->nodes[1].deps, std::vector<size_t>{0});
  EXPECT_EQ(plan->nodes[3].deps, std::vector<size_t>{2});
}

}  // namespace
}  // namespace vdg
