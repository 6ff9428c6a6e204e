#include "versioning/versions.h"

#include <gtest/gtest.h>

#include "federation/server.h"

namespace vdg {
namespace {

// ------------------- TransformationVersionGraph ----------------------

TEST(VersionGraphTest, RegisterAndEnumerate) {
  TransformationVersionGraph graph;
  ASSERT_TRUE(graph.RegisterVersion("maxBcg", "maxBcg-v1").ok());
  ASSERT_TRUE(graph.RegisterVersion("maxBcg", "maxBcg-v2").ok());
  ASSERT_TRUE(graph.RegisterVersion("maxBcg", "maxBcg-v3").ok());
  EXPECT_EQ(graph.VersionsOf("maxBcg"),
            (std::vector<std::string>{"maxBcg-v1", "maxBcg-v2",
                                      "maxBcg-v3"}));
  EXPECT_EQ(*graph.LatestOf("maxBcg"), "maxBcg-v3");
  EXPECT_EQ(*graph.FamilyOf("maxBcg-v2"), "maxBcg");
  EXPECT_TRUE(graph.LatestOf("unknown").status().IsNotFound());
  EXPECT_TRUE(graph.FamilyOf("unknown").status().IsNotFound());
  EXPECT_TRUE(graph.VersionsOf("unknown").empty());
}

TEST(VersionGraphTest, DuplicateVersionRejected) {
  TransformationVersionGraph graph;
  ASSERT_TRUE(graph.RegisterVersion("f", "f-v1").ok());
  EXPECT_TRUE(graph.RegisterVersion("f", "f-v1").IsAlreadyExists());
  EXPECT_TRUE(graph.RegisterVersion("other", "f-v1").IsAlreadyExists());
  EXPECT_FALSE(graph.RegisterVersion("bad name", "x").ok());
}

TEST(VersionGraphTest, EquivalenceIsReflexiveSymmetricTransitive) {
  TransformationVersionGraph graph;
  EXPECT_TRUE(graph.AreEquivalent("a", "a"));  // reflexive, unregistered
  ASSERT_TRUE(graph.AssertEquivalent("a", "b").ok());
  ASSERT_TRUE(graph.AssertEquivalent("b", "c").ok());
  EXPECT_TRUE(graph.AreEquivalent("a", "b"));
  EXPECT_TRUE(graph.AreEquivalent("b", "a"));   // symmetric
  EXPECT_TRUE(graph.AreEquivalent("a", "c"));   // transitive
  EXPECT_FALSE(graph.AreEquivalent("a", "d"));  // unrelated
  std::vector<std::string> cls = graph.EquivalenceClassOf("b");
  EXPECT_EQ(cls.size(), 3u);
}

TEST(VersionGraphTest, DistinctClassesStaySeparateUntilMerged) {
  TransformationVersionGraph graph;
  ASSERT_TRUE(graph.AssertEquivalent("x1", "x2").ok());
  ASSERT_TRUE(graph.AssertEquivalent("y1", "y2").ok());
  EXPECT_FALSE(graph.AreEquivalent("x1", "y1"));
  ASSERT_TRUE(graph.AssertEquivalent("x2", "y2").ok());
  EXPECT_TRUE(graph.AreEquivalent("x1", "y1"));
}

// --------------------- Version-aware dedup ---------------------------

class VersionDedupTest : public ::testing::Test {
 protected:
  VersionDedupTest() : catalog_("ver.org") {
    EXPECT_TRUE(catalog_.Open().ok());
    EXPECT_TRUE(catalog_.ImportVdl(R"(
TR crunch-v1( output out, input in ) {
  argument stdin = ${input:in};
  argument stdout = ${output:out};
  exec = "/bin/crunch1";
}
TR crunch-v2( output out, input in ) {
  argument stdin = ${input:in};
  argument stdout = ${output:out};
  exec = "/bin/crunch2";
}
DS raw : Dataset size="100";
DV old-run->crunch-v1( out=@{output:"result"}, in=@{input:"raw"} );
)")
                    .ok());
  }

  Derivation NewRequest() {
    Derivation dv("new-run", "crunch-v2");
    EXPECT_TRUE(
        dv.AddArg(ActualArg::DatasetRef("out", "result", ArgDirection::kOut))
            .ok());
    EXPECT_TRUE(
        dv.AddArg(ActualArg::DatasetRef("in", "raw", ArgDirection::kIn))
            .ok());
    return dv;
  }

  VirtualDataCatalog catalog_;
  InProcessCatalogClient client_{&catalog_};
  TransformationVersionGraph versions_;
};

TEST_F(VersionDedupTest, NoAssertionNoMatch) {
  EXPECT_FALSE(FindEquivalentDerivationModuloVersion(client_, versions_,
                                                     NewRequest())
                   .ok());
  EXPECT_FALSE(
      HasBeenComputedModuloVersion(client_, versions_, NewRequest()));
}

TEST_F(VersionDedupTest, AssertionEnablesCrossVersionMatch) {
  ASSERT_TRUE(versions_.AssertEquivalent("crunch-v1", "crunch-v2").ok());
  Result<std::string> hit = FindEquivalentDerivationModuloVersion(
      client_, versions_, NewRequest());
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, "old-run");
  // Computed only once the old run's output is materialized.
  EXPECT_FALSE(
      HasBeenComputedModuloVersion(client_, versions_, NewRequest()));
  Replica r;
  r.dataset = "result";
  r.site = "east";
  ASSERT_TRUE(catalog_.AddReplica(r).ok());
  EXPECT_TRUE(
      HasBeenComputedModuloVersion(client_, versions_, NewRequest()));
}

TEST_F(VersionDedupTest, ExactMatchStillPreferred) {
  Derivation same("other-name", "crunch-v1");
  ASSERT_TRUE(
      same.AddArg(ActualArg::DatasetRef("out", "result", ArgDirection::kOut))
          .ok());
  ASSERT_TRUE(
      same.AddArg(ActualArg::DatasetRef("in", "raw", ArgDirection::kIn))
          .ok());
  Result<std::string> hit =
      FindEquivalentDerivationModuloVersion(client_, versions_, same);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, "old-run");
}

TEST_F(VersionDedupTest, DifferentArgsNeverMatch) {
  ASSERT_TRUE(versions_.AssertEquivalent("crunch-v1", "crunch-v2").ok());
  Derivation different("diff", "crunch-v2");
  ASSERT_TRUE(different
                  .AddArg(ActualArg::DatasetRef("out", "other-result",
                                                ArgDirection::kOut))
                  .ok());
  ASSERT_TRUE(
      different.AddArg(ActualArg::DatasetRef("in", "raw", ArgDirection::kIn))
          .ok());
  EXPECT_FALSE(FindEquivalentDerivationModuloVersion(client_, versions_,
                                                     different)
                   .ok());
}

TEST_F(VersionDedupTest, CrossVersionMatchOverTheWire) {
  // The same dedup against a remote catalog: each probe is one
  // FindEquivalentDerivation round trip to the server.
  CatalogServer server(std::make_shared<InProcessCatalogClient>(&catalog_));
  Result<std::shared_ptr<WireCatalogClient>> wire =
      WireCatalogClient::Connect(&server);
  ASSERT_TRUE(wire.ok()) << wire.status();
  WireCatalogClient& remote = **wire;
  EXPECT_TRUE(
      FindEquivalentDerivationModuloVersion(remote, versions_, NewRequest())
          .status()
          .IsNotFound());
  ASSERT_TRUE(versions_.AssertEquivalent("crunch-v1", "crunch-v2").ok());
  Result<std::string> hit =
      FindEquivalentDerivationModuloVersion(remote, versions_, NewRequest());
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(*hit, "old-run");
  EXPECT_FALSE(HasBeenComputedModuloVersion(remote, versions_, NewRequest()));
  Replica r;
  r.dataset = "result";
  r.site = "east";
  ASSERT_TRUE(remote.AddReplica(r).ok());
  EXPECT_TRUE(HasBeenComputedModuloVersion(remote, versions_, NewRequest()));
}

// ------------------------ DatasetUpdateLog ---------------------------

class UpdateLogTest : public ::testing::Test {
 protected:
  UpdateLogTest() : catalog_("upd.org") {
    EXPECT_TRUE(catalog_.Open().ok());
    EXPECT_TRUE(catalog_.ImportVdl(R"(
TR append( inout store, input delta ) {
  argument stdin = ${input:delta};
  argument stdout = ${inout:store};
  exec = "/bin/append";
}
DS store : Dataset size="1000";
DS delta1 : Dataset size="10";
DV upd1->append( store=@{inout:"store"}, delta=@{input:"delta1"} );
)")
                    .ok());
  }
  VirtualDataCatalog catalog_;
  InProcessCatalogClient client_{&catalog_};
  DatasetUpdateLog log_;
};

TEST_F(UpdateLogTest, RecordsUpdatesWithBeforeAfter) {
  Result<UpdateRecord> first =
      log_.RecordUpdate(&client_, "store", "upd1", 1100, 10.0, "append d1");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->sequence, 1u);
  EXPECT_EQ(first->size_before, 1000);
  EXPECT_EQ(first->size_after, 1100);
  EXPECT_EQ(catalog_.GetDataset("store")->size_bytes, 1100);
  EXPECT_EQ(catalog_.GetDataset("store")->annotations.GetInt("vdg.updates"),
            1);

  Result<UpdateRecord> second =
      log_.RecordUpdate(&client_, "store", "upd1", 1250, 20.0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->sequence, 2u);
  EXPECT_EQ(second->size_before, 1100);
  EXPECT_EQ(log_.UpdateCountOf("store"), 2u);
  EXPECT_FALSE(log_.IsPristine("store"));
  ASSERT_EQ(log_.HistoryOf("store").size(), 2u);
  EXPECT_EQ(log_.HistoryOf("store")[0].note, "append d1");
}

TEST_F(UpdateLogTest, UndoRestoresPriorState) {
  ASSERT_TRUE(
      log_.RecordUpdate(&client_, "store", "upd1", 1100, 10.0).ok());
  ASSERT_TRUE(
      log_.RecordUpdate(&client_, "store", "upd1", 1250, 20.0).ok());
  Result<UpdateRecord> undone = log_.UndoLastUpdate(&client_, "store");
  ASSERT_TRUE(undone.ok());
  EXPECT_EQ(undone->sequence, 2u);
  EXPECT_EQ(catalog_.GetDataset("store")->size_bytes, 1100);
  ASSERT_TRUE(log_.UndoLastUpdate(&client_, "store").ok());
  EXPECT_EQ(catalog_.GetDataset("store")->size_bytes, 1000);
  EXPECT_TRUE(log_.IsPristine("store"));
  EXPECT_EQ(log_.UndoLastUpdate(&client_, "store").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(UpdateLogTest, ValidationErrors) {
  EXPECT_FALSE(
      log_.RecordUpdate(nullptr, "store", "upd1", 1, 0).ok());
  EXPECT_TRUE(log_.RecordUpdate(&client_, "ghost", "upd1", 1, 0)
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(log_.RecordUpdate(&client_, "store", "no-such-dv", 1, 0)
                  .status()
                  .IsNotFound());
  // An empty derivation is allowed (manual/out-of-band update).
  EXPECT_TRUE(log_.RecordUpdate(&client_, "store", "", 1, 0).ok());
}

TEST_F(UpdateLogTest, IndependentDatasets) {
  ASSERT_TRUE(catalog_.ImportVdl("DS other : Dataset size=\"5\";").ok());
  ASSERT_TRUE(
      log_.RecordUpdate(&client_, "store", "upd1", 1100, 1.0).ok());
  EXPECT_EQ(log_.UpdateCountOf("other"), 0u);
  EXPECT_TRUE(log_.IsPristine("other"));
  EXPECT_TRUE(log_.HistoryOf("other").empty());
}

}  // namespace
}  // namespace vdg
