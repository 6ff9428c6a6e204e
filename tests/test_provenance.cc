#include "provenance/provenance.h"

#include <gtest/gtest.h>

#include <memory>

#include "catalog/sharding.h"
#include "federation/server.h"

namespace vdg {
namespace {

// Diamond + tail:
//   raw -> (dvA) -> mid1 --+
//   raw -> (dvB) -> mid2 --+-> (dvC) -> final -> (dvD) -> report
constexpr const char* kDiamondVdl = R"(
TR step( output out, input in ) {
  argument stdin = ${input:in};
  argument stdout = ${output:out};
  exec = "/bin/step";
}
TR join( output out, input lhs, input rhs ) {
  argument l = "-l "${input:lhs};
  argument r = "-r "${input:rhs};
  argument stdout = ${output:out};
  exec = "/bin/join";
}
DS raw : Dataset size="1000";
DV dvA->step( out=@{output:"mid1"}, in=@{input:"raw"} );
DV dvB->step( out=@{output:"mid2"}, in=@{input:"raw"} );
DV dvC->join( out=@{output:"final"}, lhs=@{input:"mid1"},
              rhs=@{input:"mid2"} );
DV dvD->step( out=@{output:"report"}, in=@{input:"final"} );
)";

class ProvenanceTest : public ::testing::Test {
 protected:
  ProvenanceTest()
      : catalog_("prov.org"), client_(&catalog_), tracker_(client_) {
    EXPECT_TRUE(catalog_.Open().ok());
    EXPECT_TRUE(catalog_.ImportVdl(kDiamondVdl).ok());
  }

  void AddReplicaFor(const std::string& dataset, const std::string& site) {
    Replica r;
    r.dataset = dataset;
    r.site = site;
    r.size_bytes = 10;
    ASSERT_TRUE(catalog_.AddReplica(r).ok());
  }

  void AddInvocationFor(const std::string& derivation, SimTime start) {
    Invocation iv;
    iv.derivation = derivation;
    iv.context.site = "uchicago";
    iv.context.host = "n0";
    iv.start_time = start;
    iv.duration_s = 5;
    ASSERT_TRUE(catalog_.RecordInvocation(iv).ok());
  }

  /// Defines dvC's synthesized expansion child "dvC.c0" in `catalog`
  /// and records one invocation of it.
  static void DefineExpansionChild(VirtualDataCatalog* catalog) {
    Derivation child("dvC.c0", "join");
    ASSERT_TRUE(
        child.AddArg(ActualArg::DatasetRef("out", "final", ArgDirection::kOut))
            .ok());
    ASSERT_TRUE(
        child.AddArg(ActualArg::DatasetRef("lhs", "mid1", ArgDirection::kIn))
            .ok());
    ASSERT_TRUE(
        child.AddArg(ActualArg::DatasetRef("rhs", "mid2", ArgDirection::kIn))
            .ok());
    ASSERT_TRUE(catalog->DefineDerivation(child).ok());
    Invocation iv;
    iv.derivation = "dvC.c0";
    iv.context.site = "uchicago";
    iv.context.host = "n0";
    iv.start_time = 11;
    iv.duration_s = 5;
    ASSERT_TRUE(catalog->RecordInvocation(iv).ok());
  }

  VirtualDataCatalog catalog_;
  InProcessCatalogClient client_;
  ProvenanceTracker tracker_;
};

TEST_F(ProvenanceTest, LineageOfRawInputIsLeaf) {
  Result<LineageNode> node = tracker_.Lineage("raw");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node->dataset, "raw");
  EXPECT_TRUE(node->derivation.empty());
  EXPECT_TRUE(node->inputs.empty());
  EXPECT_EQ(LineageDepth(*node), 0);
}

TEST_F(ProvenanceTest, LineageTreeShape) {
  Result<LineageNode> node = tracker_.Lineage("report");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node->derivation, "dvD");
  EXPECT_EQ(node->transformation, "step");
  ASSERT_EQ(node->inputs.size(), 1u);
  const LineageNode& final_node = node->inputs[0];
  EXPECT_EQ(final_node.derivation, "dvC");
  ASSERT_EQ(final_node.inputs.size(), 2u);
  // The diamond duplicates raw in both branches (tree, not DAG).
  EXPECT_EQ(CountLineageNodes(*node), 6u);
  EXPECT_EQ(LineageDepth(*node), 3);
}

TEST_F(ProvenanceTest, LineageDepthLimit) {
  Result<LineageNode> node = tracker_.Lineage("report", /*max_depth=*/1);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node->derivation, "dvD");
  ASSERT_EQ(node->inputs.size(), 1u);
  // The child's producer is named but not expanded further.
  EXPECT_EQ(node->inputs[0].derivation, "dvC");
  EXPECT_TRUE(node->inputs[0].inputs.empty());
}

TEST_F(ProvenanceTest, LineageUnknownDatasetFails) {
  EXPECT_TRUE(tracker_.Lineage("ghost").status().IsNotFound());
}

TEST_F(ProvenanceTest, RenderLineageMentionsEveryLink) {
  Result<LineageNode> node = tracker_.Lineage("final");
  ASSERT_TRUE(node.ok());
  std::string text = RenderLineage(*node);
  EXPECT_NE(text.find("final"), std::string::npos);
  EXPECT_NE(text.find("dvC"), std::string::npos);
  EXPECT_NE(text.find("mid1"), std::string::npos);
  EXPECT_NE(text.find("[raw input]"), std::string::npos);
  EXPECT_NE(text.find("never executed: virtual"), std::string::npos);
}

TEST_F(ProvenanceTest, AncestorsAndDescendants) {
  Result<std::set<std::string>> ancestors = tracker_.Ancestors("final");
  ASSERT_TRUE(ancestors.ok());
  EXPECT_EQ(*ancestors, (std::set<std::string>{"mid1", "mid2", "raw"}));

  Result<std::set<std::string>> descendants = tracker_.Descendants("raw");
  ASSERT_TRUE(descendants.ok());
  EXPECT_EQ(*descendants,
            (std::set<std::string>{"mid1", "mid2", "final", "report"}));

  EXPECT_TRUE(tracker_.Descendants("report")->empty());
  EXPECT_TRUE(tracker_.Ancestors("raw")->empty());
}

TEST_F(ProvenanceTest, RawSources) {
  Result<std::set<std::string>> sources = tracker_.RawSources("report");
  ASSERT_TRUE(sources.ok());
  EXPECT_EQ(*sources, std::set<std::string>{"raw"});
  // A raw dataset is its own source.
  EXPECT_EQ(*tracker_.RawSources("raw"), std::set<std::string>{"raw"});
}

TEST_F(ProvenanceTest, AuditTrailIsChronological) {
  AddInvocationFor("dvA", 10);
  AddInvocationFor("dvB", 5);
  AddInvocationFor("dvC", 20);
  AddInvocationFor("dvD", 30);
  Result<std::vector<Invocation>> trail = tracker_.AuditTrail("report");
  ASSERT_TRUE(trail.ok());
  ASSERT_EQ(trail->size(), 4u);
  EXPECT_EQ((*trail)[0].derivation, "dvB");
  EXPECT_EQ((*trail)[1].derivation, "dvA");
  EXPECT_EQ((*trail)[3].derivation, "dvD");
}

TEST_F(ProvenanceTest, PlanInvalidationListsDownstream) {
  AddReplicaFor("mid1", "s1");
  AddReplicaFor("final", "s1");
  Result<InvalidationReport> report = tracker_.PlanInvalidation("raw");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->affected_datasets.size(), 4u);
  EXPECT_EQ(report->derivations_to_rerun,
            (std::vector<std::string>{"dvA", "dvB", "dvC", "dvD"}));
  EXPECT_EQ(report->invalidated_replicas.size(), 2u);
  // Pure query: nothing actually invalidated.
  EXPECT_TRUE(catalog_.IsMaterialized("mid1"));
}

TEST_F(ProvenanceTest, InvalidateCascadesReplicas) {
  AddReplicaFor("mid1", "s1");
  AddReplicaFor("mid2", "s1");
  AddReplicaFor("final", "s1");
  AddReplicaFor("raw", "s1");  // the faulty source itself stays valid
  Result<InvalidationReport> report = tracker_.Invalidate("raw");
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(catalog_.IsMaterialized("mid1"));
  EXPECT_FALSE(catalog_.IsMaterialized("mid2"));
  EXPECT_FALSE(catalog_.IsMaterialized("final"));
  EXPECT_TRUE(catalog_.IsMaterialized("raw"));
}

TEST_F(ProvenanceTest, InvalidateThroughReadOnlyClientIsPermissionDenied) {
  AddReplicaFor("mid1", "s1");
  InProcessCatalogClient read_only(&catalog_, /*read_only=*/true);
  ProvenanceTracker tracker(read_only);
  EXPECT_TRUE(tracker.Invalidate("raw").status().IsPermissionDenied());
  // Denied even with nothing to invalidate, and nothing was touched.
  EXPECT_TRUE(tracker.Invalidate("report").status().IsPermissionDenied());
  EXPECT_TRUE(catalog_.IsMaterialized("mid1"));
  // The pure query still answers.
  EXPECT_EQ(tracker.PlanInvalidation("raw")->invalidated_replicas.size(), 1u);
}

TEST_F(ProvenanceTest, FullyMaterializedRequiresWholeChain) {
  AddReplicaFor("raw", "s");
  AddReplicaFor("mid1", "s");
  AddReplicaFor("mid2", "s");
  AddReplicaFor("final", "s");
  EXPECT_FALSE(*tracker_.FullyMaterialized("report"));  // report missing
  AddReplicaFor("report", "s");
  EXPECT_TRUE(*tracker_.FullyMaterialized("report"));
  EXPECT_TRUE(*tracker_.FullyMaterialized("final"));
}

TEST_F(ProvenanceTest, CycleDetection) {
  // Construct a cycle directly: x -> (loopA) -> y -> (loopB) -> x.
  // (Possible because x is defined first as a plain dataset.)
  ASSERT_TRUE(catalog_.ImportVdl(R"(
DS x : Dataset;
DV loopA->step( out=@{output:"y"}, in=@{input:"x"} );
DV loopB->step( out=@{output:"x"}, in=@{input:"y"} );
)")
                  .ok());
  Status lineage = tracker_.Lineage("x").status();
  EXPECT_EQ(lineage.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ProvenanceTest, ExpansionChildInvocationsSurfaceOnParent) {
  // Record an invocation against a synthesized child derivation.
  DefineExpansionChild(&catalog_);
  Result<LineageNode> node = tracker_.Lineage("final");
  ASSERT_TRUE(node.ok());
  ASSERT_EQ(node->invocations.size(), 1u);
  EXPECT_EQ(node->invocations[0].derivation, "dvC.c0");
  // The audit trail reads the same steps.
  Result<std::vector<Invocation>> trail = tracker_.AuditTrail("report");
  ASSERT_TRUE(trail.ok());
  ASSERT_EQ(trail->size(), 1u);
  EXPECT_EQ((*trail)[0].derivation, "dvC.c0");
}

TEST_F(ProvenanceTest, ExpansionChildInvocationsSurfaceOverTheWire) {
  DefineExpansionChild(&catalog_);
  CatalogServer server(std::make_shared<InProcessCatalogClient>(&catalog_));
  Result<std::shared_ptr<WireCatalogClient>> wire =
      WireCatalogClient::Connect(&server);
  ASSERT_TRUE(wire.ok()) << wire.status();
  ProvenanceTracker remote(**wire);
  Result<LineageNode> node = remote.Lineage("final");
  ASSERT_TRUE(node.ok()) << node.status();
  ASSERT_EQ(node->invocations.size(), 1u);
  EXPECT_EQ(node->invocations[0].derivation, "dvC.c0");
  EXPECT_EQ(RenderLineage(*node), RenderLineage(*tracker_.Lineage("final")));
}

// Partition-mode shards skip the expansion-child fold (sharding.h): a
// step through the shard set reports the producer's own invocations
// only, even with the child homed beside its parent. One shard puts
// every object on the shard that answers the step; two shards add the
// router's cross-shard completion.
TEST_F(ProvenanceTest, PartitionModeStepReportsOwnInvocationsOnly) {
  for (int shard_count : {1, 2}) {
    SCOPED_TRACE(shard_count);
    std::vector<std::unique_ptr<VirtualDataCatalog>> shard_catalogs;
    std::vector<std::shared_ptr<CatalogClient>> shards;
    for (int k = 0; k < shard_count; ++k) {
      auto shard =
          std::make_unique<VirtualDataCatalog>("shard" + std::to_string(k));
      shard->set_partition_mode(true);
      ASSERT_TRUE(shard->Open().ok());
      shards.push_back(std::make_shared<InProcessCatalogClient>(shard.get()));
      shard_catalogs.push_back(std::move(shard));
    }
    ShardedCatalogClient sharded(shards);
    ASSERT_TRUE(
        sharded.DefineTransformation(*catalog_.GetTransformation("join"))
            .ok());
    for (const char* input : {"mid1", "mid2"}) {
      Dataset ds;
      ds.name = input;
      ASSERT_TRUE(sharded.DefineDataset(ds).ok());
    }
    ASSERT_TRUE(sharded.DefineDerivation(*catalog_.GetDerivation("dvC")).ok());
    VirtualDataCatalog& home = *shard_catalogs[sharded.ShardOf("dvC")];
    DefineExpansionChild(&home);
    ASSERT_EQ(home.InvocationsOf("dvC.c0").size(), 1u);

    Result<ProvenanceStep> step = sharded.GetProvenanceStep("final");
    ASSERT_TRUE(step.ok()) << step.status();
    EXPECT_EQ(step->producer, "dvC");
    EXPECT_TRUE(step->derivation.has_value());
    EXPECT_TRUE(step->invocations.empty());
  }
}

}  // namespace
}  // namespace vdg
