#include "catalog/catalog.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <variant>
#include <vector>
#include <gtest/gtest.h>

#include "catalog/journal_record.h"

namespace vdg {
namespace {

// Small VDL corpus used across tests: two-stage chain.
constexpr const char* kChainVdl = R"(
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
DS file1 : Dataset size="1024";
DV usetrans1->trans1( a2=@{output:"file2"}, a1=@{input:"file1"} );
DV usetrans2->trans2( a2=@{output:"file3"}, a1=@{input:"file2"} );
)";

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest() : catalog_("test.example.org") {
    EXPECT_TRUE(catalog_.Open().ok());
    EXPECT_TRUE(catalog_.ImportVdl(kChainVdl).ok());
  }
  VirtualDataCatalog catalog_;
};

TEST_F(CatalogTest, ImportDefinesEverything) {
  CatalogStats stats = catalog_.Stats();
  EXPECT_EQ(stats.transformations, 2u);
  EXPECT_EQ(stats.derivations, 2u);
  // file1 declared; file2/file3 auto-defined as virtual outputs.
  EXPECT_EQ(stats.datasets, 3u);
  EXPECT_TRUE(catalog_.HasDataset("file2"));
  EXPECT_TRUE(catalog_.HasDataset("file3"));
}

TEST_F(CatalogTest, ProducerAndConsumers) {
  EXPECT_EQ(*catalog_.ProducerOf("file2"), "usetrans1");
  EXPECT_EQ(*catalog_.ProducerOf("file3"), "usetrans2");
  EXPECT_TRUE(catalog_.ProducerOf("file1").status().IsNotFound());
  EXPECT_EQ(catalog_.ConsumersOf("file2"),
            std::vector<std::string>{"usetrans2"});
  EXPECT_TRUE(catalog_.ConsumersOf("file3").empty());
}

TEST_F(CatalogTest, DuplicateDefinitionsRejected) {
  Dataset ds;
  ds.name = "file1";
  EXPECT_TRUE(catalog_.DefineDataset(ds).IsAlreadyExists());
  Transformation tr("trans1", Transformation::Kind::kSimple);
  tr.set_executable("/x");
  EXPECT_TRUE(catalog_.DefineTransformation(tr).IsAlreadyExists());
  Derivation dv("usetrans1", "trans1");
  EXPECT_TRUE(catalog_.DefineDerivation(dv).IsAlreadyExists());
}

TEST_F(CatalogTest, DerivationNeedsKnownTransformation) {
  Derivation dv("dangling", "no-such-tr");
  EXPECT_TRUE(catalog_.DefineDerivation(dv).IsNotFound());
}

TEST_F(CatalogTest, SecondProducerForDatasetRejected) {
  Derivation dv("rival", "trans1");
  ASSERT_TRUE(
      dv.AddArg(ActualArg::DatasetRef("a2", "file2", ArgDirection::kOut))
          .ok());
  ASSERT_TRUE(
      dv.AddArg(ActualArg::DatasetRef("a1", "file1", ArgDirection::kIn))
          .ok());
  EXPECT_TRUE(catalog_.DefineDerivation(dv).IsAlreadyExists());
}

TEST_F(CatalogTest, ExpansionChildMayReproduceParentOutput) {
  Derivation child("usetrans1.c0", "trans1");
  ASSERT_TRUE(
      child.AddArg(ActualArg::DatasetRef("a2", "file2", ArgDirection::kOut))
          .ok());
  ASSERT_TRUE(
      child.AddArg(ActualArg::DatasetRef("a1", "file1", ArgDirection::kIn))
          .ok());
  EXPECT_TRUE(catalog_.DefineDerivation(child).ok());
  // Parent remains the recorded producer.
  EXPECT_EQ(*catalog_.ProducerOf("file2"), "usetrans1");
}

TEST_F(CatalogTest, ReplicasAndMaterialization) {
  EXPECT_FALSE(catalog_.IsMaterialized("file2"));
  Replica r;
  r.dataset = "file2";
  r.site = "uchicago";
  r.storage_element = "se0";
  r.size_bytes = 77;
  Result<std::string> id = catalog_.AddReplica(r);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, "rp-1");
  EXPECT_TRUE(catalog_.IsMaterialized("file2"));
  ASSERT_EQ(catalog_.ReplicasOf("file2").size(), 1u);
  EXPECT_EQ(catalog_.ReplicasOf("file2")[0].size_bytes, 77);

  EXPECT_TRUE(catalog_.InvalidateReplica(*id).ok());
  EXPECT_FALSE(catalog_.IsMaterialized("file2"));
  EXPECT_TRUE(catalog_.ReplicasOf("file2").empty());
  EXPECT_EQ(catalog_.ReplicasOf("file2", /*valid_only=*/false).size(), 1u);
}

TEST_F(CatalogTest, ReplicaForUnknownDatasetRejected) {
  Replica r;
  r.dataset = "ghost";
  r.site = "x";
  EXPECT_TRUE(catalog_.AddReplica(r).status().IsNotFound());
}

TEST_F(CatalogTest, InvocationsRecordAndIndex) {
  Invocation iv;
  iv.derivation = "usetrans1";
  iv.context.site = "uchicago";
  iv.context.host = "n01";
  iv.start_time = 100;
  iv.duration_s = 20;
  Result<std::string> id = catalog_.RecordInvocation(iv);
  ASSERT_TRUE(id.ok());
  std::vector<Invocation> ivs = catalog_.InvocationsOf("usetrans1");
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_EQ(ivs[0].context.host, "n01");
  Invocation bad;
  bad.derivation = "no-such-dv";
  EXPECT_TRUE(catalog_.RecordInvocation(bad).status().IsNotFound());
}

TEST_F(CatalogTest, AnnotateEveryKind) {
  EXPECT_TRUE(
      catalog_.Annotate("dataset", "file1", "quality", "curated").ok());
  EXPECT_TRUE(catalog_.Annotate("transformation", "trans1", "author",
                                "alice")
                  .ok());
  EXPECT_TRUE(
      catalog_.Annotate("derivation", "usetrans1", "campaign", "dr1").ok());
  EXPECT_EQ(catalog_.GetDataset("file1")->annotations.GetString("quality"),
            "curated");
  EXPECT_EQ(
      catalog_.GetTransformation("trans1")->annotations().GetString("author"),
      "alice");
  EXPECT_TRUE(
      catalog_.Annotate("dataset", "ghost", "k", "v").IsNotFound());
  EXPECT_FALSE(catalog_.Annotate("widget", "file1", "k", "v").ok());
}

TEST_F(CatalogTest, DiscoveryByPrefixAndPredicate) {
  ASSERT_TRUE(
      catalog_.Annotate("dataset", "file1", "quality", "curated").ok());
  DatasetQuery by_prefix;
  by_prefix.name_prefix = "file";
  EXPECT_EQ(catalog_.FindDatasets(by_prefix).size(), 3u);
  DatasetQuery by_attr;
  by_attr.predicates = {{"quality", PredicateOp::kEq, "curated"}};
  EXPECT_EQ(catalog_.FindDatasets(by_attr),
            std::vector<std::string>{"file1"});
  DatasetQuery limited;
  limited.limit = 2;
  EXPECT_EQ(catalog_.FindDatasets(limited).size(), 2u);
}

TEST_F(CatalogTest, AttributeEqualityIndexMatchesScanSemantics) {
  ASSERT_TRUE(catalog_.Annotate("dataset", "file1", "science", "astro").ok());
  ASSERT_TRUE(catalog_.Annotate("dataset", "file2", "science", "astro").ok());
  ASSERT_TRUE(
      catalog_.Annotate("dataset", "file3", "science", "physics").ok());
  ASSERT_TRUE(
      catalog_.Annotate("dataset", "file1", "events", int64_t{500}).ok());

  DatasetQuery eq;
  eq.predicates = {{"science", PredicateOp::kEq, "astro"}};
  EXPECT_EQ(catalog_.FindDatasets(eq),
            (std::vector<std::string>{"file1", "file2"}));

  // Conjunction: index narrows, remaining predicates still filter.
  DatasetQuery conj;
  conj.predicates = {{"science", PredicateOp::kEq, "astro"},
                     {"events", PredicateOp::kGe, int64_t{100}}};
  EXPECT_EQ(catalog_.FindDatasets(conj),
            std::vector<std::string>{"file1"});

  // Numeric coercion: double operand matches int annotation.
  DatasetQuery numeric;
  numeric.predicates = {{"events", PredicateOp::kEq, 500.0}};
  EXPECT_EQ(catalog_.FindDatasets(numeric),
            std::vector<std::string>{"file1"});

  // Overwriting the attribute re-indexes that key alone: the other keys
  // of file1 keep their postings.
  ASSERT_TRUE(catalog_.Annotate("dataset", "file1", "tier", "gold").ok());
  ASSERT_TRUE(
      catalog_.Annotate("dataset", "file1", "science", "physics").ok());
  EXPECT_EQ(catalog_.FindDatasets(eq), std::vector<std::string>{"file2"});
  DatasetQuery physics;
  physics.predicates = {{"science", PredicateOp::kEq, "physics"}};
  EXPECT_EQ(catalog_.FindDatasets(physics),
            (std::vector<std::string>{"file1", "file3"}));
  EXPECT_EQ(catalog_.FindDatasets(numeric),
            std::vector<std::string>{"file1"});
  DatasetQuery gold;
  gold.predicates = {{"tier", PredicateOp::kEq, "gold"}};
  EXPECT_EQ(catalog_.FindDatasets(gold), std::vector<std::string>{"file1"});
  // Setting a key to the value it already holds keeps one posting.
  ASSERT_TRUE(catalog_.Annotate("dataset", "file1", "tier", "gold").ok());
  EXPECT_EQ(catalog_.FindDatasets(gold), std::vector<std::string>{"file1"});

  // Removing a dataset drops its postings.
  ASSERT_TRUE(catalog_.RemoveDataset("file2").ok());
  EXPECT_TRUE(catalog_.FindDatasets(eq).empty());

  // Limits still apply on the indexed path.
  DatasetQuery limited;
  limited.predicates = {{"science", PredicateOp::kEq, "physics"}};
  limited.limit = 1;
  EXPECT_EQ(catalog_.FindDatasets(limited).size(), 1u);
}

TEST_F(CatalogTest, DiscoveryVirtualVersusMaterialized) {
  Replica r;
  r.dataset = "file2";
  r.site = "s";
  ASSERT_TRUE(catalog_.AddReplica(r).ok());
  DatasetQuery materialized;
  materialized.require_materialized = true;
  EXPECT_EQ(catalog_.FindDatasets(materialized),
            std::vector<std::string>{"file2"});
  DatasetQuery virtual_only;
  virtual_only.only_virtual = true;
  NameList virtuals = catalog_.FindDatasets(virtual_only);
  EXPECT_EQ(virtuals.size(), 2u);  // file1 (no replica), file3
}

TEST_F(CatalogTest, DiscoveryTransformationsByTypes) {
  ASSERT_TRUE(catalog_
                  .DefineType(TypeDimension::kContent, "raw-evt",
                              TypeDimensionBaseName(TypeDimension::kContent))
                  .ok());
  Transformation tr("typed-tr", Transformation::Kind::kSimple);
  DatasetType raw;
  raw.content = "raw-evt";
  FormalArg in{.name = "in", .direction = ArgDirection::kIn, .types = {raw}};
  FormalArg out{.name = "out", .direction = ArgDirection::kOut, .types = {raw}};
  ASSERT_TRUE(tr.AddArg(in).ok());
  ASSERT_TRUE(tr.AddArg(out).ok());
  tr.set_executable("/x");
  ASSERT_TRUE(catalog_.DefineTransformation(tr).ok());

  // Untyped formals (trans1/trans2) accept anything, so a typed
  // dataset can flow into all three transformations...
  TransformationQuery q;
  q.consumes = raw;
  EXPECT_EQ(catalog_.FindTransformations(q),
            (std::vector<std::string>{"trans1", "trans2", "typed-tr"}));
  // ...but only typed-tr *declares* that it yields raw-evt data.
  TransformationQuery p;
  p.produces = raw;
  EXPECT_EQ(catalog_.FindTransformations(p),
            std::vector<std::string>{"typed-tr"});
  // An untyped dataset conforms only to untyped formals: typed-tr
  // demands raw-evt and is excluded.
  TransformationQuery untyped_ok;
  untyped_ok.consumes = DatasetType::Any();
  EXPECT_EQ(catalog_.FindTransformations(untyped_ok).size(), 2u);
}

TEST_F(CatalogTest, DiscoveryDerivations) {
  DerivationQuery q;
  q.transformation = "trans1";
  EXPECT_EQ(catalog_.FindDerivations(q),
            std::vector<std::string>{"usetrans1"});
  DerivationQuery reads;
  reads.reads_dataset = "file2";
  EXPECT_EQ(catalog_.FindDerivations(reads),
            std::vector<std::string>{"usetrans2"});
  DerivationQuery writes;
  writes.writes_dataset = "file2";
  EXPECT_EQ(catalog_.FindDerivations(writes),
            std::vector<std::string>{"usetrans1"});
}

TEST_F(CatalogTest, EquivalentDerivationDedup) {
  Derivation same("differently-named", "trans1");
  ASSERT_TRUE(
      same.AddArg(ActualArg::DatasetRef("a2", "file2", ArgDirection::kOut))
          .ok());
  ASSERT_TRUE(
      same.AddArg(ActualArg::DatasetRef("a1", "file1", ArgDirection::kIn))
          .ok());
  Result<std::string> found = catalog_.FindEquivalentDerivation(same);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, "usetrans1");

  // Computed only when outputs are materialized.
  EXPECT_FALSE(catalog_.HasBeenComputed(same));
  Replica r;
  r.dataset = "file2";
  r.site = "s";
  ASSERT_TRUE(catalog_.AddReplica(r).ok());
  EXPECT_TRUE(catalog_.HasBeenComputed(same));

  Derivation different("d", "trans1");
  ASSERT_TRUE(
      different
          .AddArg(ActualArg::DatasetRef("a2", "other", ArgDirection::kOut))
          .ok());
  ASSERT_TRUE(
      different
          .AddArg(ActualArg::DatasetRef("a1", "file1", ArgDirection::kIn))
          .ok());
  EXPECT_FALSE(catalog_.FindEquivalentDerivation(different).ok());

  // No dataset bindings: found among the transformation's users.
  ASSERT_TRUE(catalog_
                  .ImportVdl("TR knob( none p ) { exec = \"/bin/k\"; }"
                             "DV k1->knob( p=\"1\" );"
                             "DV k2->knob( p=\"2\" );")
                  .ok());
  Derivation knob("k3", "knob");
  ASSERT_TRUE(knob.AddArg(ActualArg::String("p", "2")).ok());
  found = catalog_.FindEquivalentDerivation(knob);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, "k2");
  Derivation other_knob("k4", "knob");
  ASSERT_TRUE(other_knob.AddArg(ActualArg::String("p", "3")).ok());
  EXPECT_FALSE(catalog_.FindEquivalentDerivation(other_knob).ok());
}

TEST_F(CatalogTest, RemoveTransformationBlockedByDerivations) {
  EXPECT_TRUE(catalog_.RemoveTransformation("trans1").code() ==
              StatusCode::kFailedPrecondition);
  ASSERT_TRUE(catalog_.RemoveDerivation("usetrans1").ok());
  EXPECT_TRUE(catalog_.RemoveTransformation("trans1").ok());
  EXPECT_FALSE(catalog_.HasTransformation("trans1"));
}

TEST_F(CatalogTest, RemoveDerivationClearsProducerAndIndexes) {
  ASSERT_TRUE(catalog_.RemoveDerivation("usetrans2").ok());
  EXPECT_TRUE(catalog_.ProducerOf("file3").status().IsNotFound());
  EXPECT_TRUE(catalog_.ConsumersOf("file2").empty());
  EXPECT_FALSE(catalog_.HasDerivation("usetrans2"));
}

TEST_F(CatalogTest, RemoveDatasetCascadesReplicas) {
  Replica r;
  r.dataset = "file1";
  r.site = "s";
  Result<std::string> id = catalog_.AddReplica(r);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(catalog_.RemoveDataset("file1").ok());
  EXPECT_FALSE(catalog_.HasDataset("file1"));
  EXPECT_TRUE(catalog_.GetReplica(*id).status().IsNotFound());
}

TEST_F(CatalogTest, VersionBumpsOnMutation) {
  uint64_t before = catalog_.version();
  ASSERT_TRUE(catalog_.Annotate("dataset", "file1", "k", "v").ok());
  EXPECT_GT(catalog_.version(), before);
}

TEST_F(CatalogTest, SetDatasetSize) {
  ASSERT_TRUE(catalog_.SetDatasetSize("file2", 4096).ok());
  EXPECT_EQ(catalog_.GetDataset("file2")->size_bytes, 4096);
  EXPECT_FALSE(catalog_.SetDatasetSize("file2", -4).ok());
  EXPECT_TRUE(catalog_.SetDatasetSize("ghost", 1).IsNotFound());
}

// ------------------------- Query planner -----------------------------

// Regression for selectivity ordering: with several equality
// predicates, the planner must drive from the *smallest* posting list,
// not the first predicate written.
TEST_F(CatalogTest, PlannerPicksMostSelectivePostingList) {
  for (int i = 0; i < 50; ++i) {
    Dataset ds;
    ds.name = "bulk" + std::to_string(i);
    ASSERT_TRUE(catalog_.DefineDataset(ds).ok());
    ASSERT_TRUE(catalog_.Annotate("dataset", ds.name, "tier", "bronze").ok());
  }
  ASSERT_TRUE(catalog_.Annotate("dataset", "bulk7", "rare", "yes").ok());
  ASSERT_TRUE(catalog_.Annotate("dataset", "bulk9", "rare", "yes").ok());

  // The broad predicate is listed first; the plan must still pick the
  // two-element "rare" posting list as driver.
  DatasetQuery query;
  query.predicates = {{"tier", PredicateOp::kEq, "bronze"},
                      {"rare", PredicateOp::kEq, "yes"}};
  QueryPlan plan = catalog_.ExplainFindDatasets(query);
  EXPECT_EQ(plan.path, AccessPath::kAttributeIndex);
  EXPECT_EQ(plan.driver, "attr rare=yes");
  EXPECT_EQ(plan.estimated_candidates, 2u);
  EXPECT_EQ(plan.posting_lists, 2u);
  EXPECT_EQ(catalog_.FindDatasets(query),
            (std::vector<std::string>{"bulk7", "bulk9"}));

  // Same query with the predicates swapped plans identically.
  std::swap(query.predicates[0], query.predicates[1]);
  QueryPlan swapped = catalog_.ExplainFindDatasets(query);
  EXPECT_EQ(swapped.driver, plan.driver);
  EXPECT_EQ(swapped.estimated_candidates, plan.estimated_candidates);
  EXPECT_EQ(catalog_.FindDatasets(query),
            (std::vector<std::string>{"bulk7", "bulk9"}));
}

TEST_F(CatalogTest, PlannerTypeIndexDrivesTypeQueries) {
  ASSERT_TRUE(catalog_
                  .DefineType(TypeDimension::kContent, "Survey",
                              TypeDimensionBaseName(TypeDimension::kContent))
                  .ok());
  ASSERT_TRUE(
      catalog_.DefineType(TypeDimension::kContent, "SDSS", "Survey").ok());
  Dataset ds;
  ds.name = "sky";
  ds.type.content = "SDSS";
  ASSERT_TRUE(catalog_.DefineDataset(ds).ok());

  // Querying the parent type finds the subtype dataset via the
  // ancestry closure index.
  DatasetQuery query;
  query.type = DatasetType{};
  query.type->content = "Survey";
  QueryPlan plan = catalog_.ExplainFindDatasets(query);
  EXPECT_EQ(plan.path, AccessPath::kTypeIndex);
  EXPECT_EQ(plan.estimated_candidates, 1u);
  EXPECT_EQ(catalog_.FindDatasets(query), std::vector<std::string>{"sky"});

  // Removing the dataset drops its type postings.
  ASSERT_TRUE(catalog_.RemoveDataset("sky").ok());
  EXPECT_TRUE(catalog_.FindDatasets(query).empty());
}

TEST_F(CatalogTest, PlannerMaterializedSetAndScanPaths) {
  Replica r;
  r.dataset = "file2";
  r.site = "s";
  Result<std::string> id = catalog_.AddReplica(r);
  ASSERT_TRUE(id.ok());

  DatasetQuery materialized;
  materialized.require_materialized = true;
  QueryPlan plan = catalog_.ExplainFindDatasets(materialized);
  EXPECT_EQ(plan.path, AccessPath::kMaterializedSet);
  EXPECT_EQ(plan.estimated_candidates, 1u);

  // Invalidation shrinks the materialized set incrementally.
  ASSERT_TRUE(catalog_.InvalidateReplica(*id).ok());
  EXPECT_EQ(catalog_.ExplainFindDatasets(materialized).estimated_candidates,
            0u);
  EXPECT_TRUE(catalog_.FindDatasets(materialized).empty());

  DatasetQuery by_prefix;
  by_prefix.name_prefix = "file";
  EXPECT_EQ(catalog_.ExplainFindDatasets(by_prefix).path,
            AccessPath::kNamePrefixRange);
  EXPECT_EQ(catalog_.ExplainFindDatasets(DatasetQuery{}).path,
            AccessPath::kFullScan);
}

TEST_F(CatalogTest, DerivationQueryUsesEdgeIndexes) {
  DerivationQuery reads;
  reads.reads_dataset = "file2";
  QueryPlan plan = catalog_.ExplainFindDerivations(reads);
  EXPECT_EQ(plan.path, AccessPath::kReadsIndex);
  EXPECT_EQ(plan.estimated_candidates, 1u);
  EXPECT_EQ(catalog_.FindDerivations(reads),
            std::vector<std::string>{"usetrans2"});

  DerivationQuery writes;
  writes.writes_dataset = "file2";
  EXPECT_EQ(catalog_.ExplainFindDerivations(writes).path,
            AccessPath::kWritesIndex);
  EXPECT_EQ(catalog_.FindDerivations(writes),
            std::vector<std::string>{"usetrans1"});

  // Intersection: writes file2 AND uses trans1.
  DerivationQuery both;
  both.writes_dataset = "file2";
  both.transformation = "trans1";
  EXPECT_EQ(catalog_.ExplainFindDerivations(both).posting_lists, 2u);
  EXPECT_EQ(catalog_.FindDerivations(both),
            std::vector<std::string>{"usetrans1"});

  // Removal drops the edge postings.
  ASSERT_TRUE(catalog_.RemoveDerivation("usetrans1").ok());
  EXPECT_TRUE(catalog_.FindDerivations(writes).empty());
  EXPECT_EQ(catalog_.ExplainFindDerivations(writes).estimated_candidates, 0u);
}

// --------------------------- Changelog -------------------------------

TEST_F(CatalogTest, ChangelogCoversEveryVersionBump) {
  uint64_t base = catalog_.version();
  ASSERT_TRUE(catalog_.Annotate("dataset", "file1", "k", "v").ok());
  Replica r;
  r.dataset = "file2";
  r.site = "s";
  Result<std::string> id = catalog_.AddReplica(r);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(catalog_.InvalidateReplica(*id).ok());

  Result<std::vector<CatalogChange>> changes = catalog_.ChangesSince(base);
  ASSERT_TRUE(changes.ok());
  ASSERT_EQ(changes->size(), catalog_.version() - base);
  // Versions are consecutive — the delta protocol relies on that.
  for (size_t i = 0; i < changes->size(); ++i) {
    EXPECT_EQ((*changes)[i].version, base + i + 1);
  }
  // Replica mutations surface as upserts of their dataset.
  EXPECT_EQ((*changes)[1].kind, "dataset");
  EXPECT_EQ((*changes)[1].name, "file2");
  EXPECT_EQ((*changes)[2].kind, "dataset");
  EXPECT_EQ((*changes)[2].name, "file2");

  // Asking from the current version yields the empty delta; asking
  // from the future is an error.
  EXPECT_TRUE(catalog_.ChangesSince(catalog_.version())->empty());
  EXPECT_FALSE(catalog_.ChangesSince(catalog_.version() + 1).ok());
}

TEST_F(CatalogTest, ChangelogWindowBoundsAndFallbackSignal) {
  catalog_.set_changelog_capacity(4);
  uint64_t base = catalog_.version();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        catalog_.Annotate("dataset", "file1", "k" + std::to_string(i), i)
            .ok());
  }
  // The window only reaches back 4 versions now.
  EXPECT_EQ(catalog_.changelog_floor(), catalog_.version() - 4);
  EXPECT_FALSE(catalog_.ChangesSince(base).ok());
  Result<std::vector<CatalogChange>> tail =
      catalog_.ChangesSince(catalog_.version() - 4);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->size(), 4u);
}

// --------------------------- Persistence -----------------------------

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Test name plus pid: cases that run at once, in separate
    // processes, never share a journal file.
    path_ = ::testing::TempDir() + "/vdg_journal_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(getpid()) + ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(PersistenceTest, ReopenReplaysEverything) {
  {
    VirtualDataCatalog catalog("persist.org",
                               std::make_unique<FileJournal>(path_));
    ASSERT_TRUE(catalog.Open().ok());
    ASSERT_TRUE(catalog.LoadTypePreset().ok());
    ASSERT_TRUE(catalog.ImportVdl(kChainVdl).ok());
    ASSERT_TRUE(
        catalog.Annotate("dataset", "file1", "quality", "curated").ok());
    Replica r;
    r.dataset = "file2";
    r.site = "uchicago";
    r.size_bytes = 55;
    ASSERT_TRUE(catalog.AddReplica(r).ok());
    Invocation iv;
    iv.derivation = "usetrans1";
    iv.context.site = "uchicago";
    iv.duration_s = 12;
    ASSERT_TRUE(catalog.RecordInvocation(iv).ok());
    ASSERT_TRUE(catalog.SyncJournal().ok());
  }
  VirtualDataCatalog reopened("persist.org",
                              std::make_unique<FileJournal>(path_));
  ASSERT_TRUE(reopened.Open().ok());
  CatalogStats stats = reopened.Stats();
  EXPECT_EQ(stats.transformations, 2u);
  EXPECT_EQ(stats.derivations, 2u);
  EXPECT_EQ(stats.datasets, 3u);
  EXPECT_EQ(stats.replicas, 1u);
  EXPECT_EQ(stats.invocations, 1u);
  EXPECT_EQ(reopened.GetDataset("file1")->annotations.GetString("quality"),
            "curated");
  EXPECT_EQ(*reopened.ProducerOf("file2"), "usetrans1");
  EXPECT_TRUE(reopened.IsMaterialized("file2"));
  EXPECT_TRUE(reopened.HasType(TypeDimension::kFormat, "Tar-archive"));
  // Id counters continue past replayed ids.
  Replica r2;
  r2.dataset = "file3";
  r2.site = "x";
  EXPECT_EQ(*reopened.AddReplica(r2), "rp-2");
}

TEST_F(PersistenceTest, RemovalsAndInvalidationsSurviveReplay) {
  {
    VirtualDataCatalog catalog("persist.org",
                               std::make_unique<FileJournal>(path_));
    ASSERT_TRUE(catalog.Open().ok());
    ASSERT_TRUE(catalog.ImportVdl(kChainVdl).ok());
    Replica r;
    r.dataset = "file2";
    r.site = "s";
    Result<std::string> id = catalog.AddReplica(r);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(catalog.InvalidateReplica(*id).ok());
    ASSERT_TRUE(catalog.RemoveDerivation("usetrans2").ok());
    ASSERT_TRUE(catalog.SyncJournal().ok());
  }
  VirtualDataCatalog reopened("persist.org",
                              std::make_unique<FileJournal>(path_));
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_FALSE(reopened.HasDerivation("usetrans2"));
  EXPECT_FALSE(reopened.IsMaterialized("file2"));
  EXPECT_EQ(reopened.ReplicasOf("file2", false).size(), 1u);
}

// A nan/inf double attribute has no journal form: journaling one would
// leave a record replay refuses, so the catalog could not be reopened.
// Every mutation path must refuse it before journaling.
TEST_F(PersistenceTest, NonFiniteDoubleAttributesAreRejectedBeforeJournaling) {
  {
    VirtualDataCatalog catalog("persist.org",
                               std::make_unique<FileJournal>(path_));
    ASSERT_TRUE(catalog.Open().ok());
    ASSERT_TRUE(catalog.ImportVdl(kChainVdl).ok());
    Replica good_replica;
    good_replica.dataset = "file1";
    good_replica.site = "s";
    Result<std::string> replica_id = catalog.AddReplica(good_replica);
    ASSERT_TRUE(replica_id.ok());
    Invocation good_invocation;
    good_invocation.derivation = "usetrans1";
    Result<std::string> invocation_id =
        catalog.RecordInvocation(good_invocation);
    ASSERT_TRUE(invocation_id.ok());
    const uint64_t version = catalog.version();

    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
      const AttributeValue value(bad);
      for (const auto& [kind, name] :
           std::vector<std::pair<std::string, std::string>>{
               {"dataset", "file1"},
               {"transformation", "trans1"},
               {"derivation", "usetrans1"},
               {"replica", *replica_id},
               {"invocation", *invocation_id}}) {
        EXPECT_TRUE(catalog.Annotate(kind, name, "q", value)
                        .IsInvalidArgument())
            << kind;
      }

      Dataset annotated;
      annotated.name = "bad_annotation";
      annotated.annotations.Set("q", value);
      EXPECT_TRUE(catalog.DefineDataset(annotated).IsInvalidArgument());
      Dataset described;
      described.name = "bad_descriptor";
      described.descriptor.fields.Set("q", value);
      EXPECT_TRUE(catalog.DefineDataset(described).IsInvalidArgument());

      Transformation tr = *catalog.GetTransformation("trans1");
      tr.set_name("trans_bad");
      tr.annotations().Set("q", value);
      EXPECT_TRUE(catalog.DefineTransformation(tr).IsInvalidArgument());
      Derivation dv("dv_bad", "trans1");
      ASSERT_TRUE(dv.AddArg(ActualArg::DatasetRef("a1", "file1",
                                                  ArgDirection::kIn))
                      .ok());
      ASSERT_TRUE(dv.AddArg(ActualArg::DatasetRef("a2", "file_bad",
                                                  ArgDirection::kOut))
                      .ok());
      dv.annotations().Set("q", value);
      EXPECT_TRUE(catalog.DefineDerivation(dv).IsInvalidArgument());

      Replica replica = good_replica;
      replica.annotations.Set("q", value);
      EXPECT_TRUE(catalog.AddReplica(replica).status().IsInvalidArgument());
      Invocation invocation = good_invocation;
      invocation.annotations.Set("q", value);
      EXPECT_TRUE(
          catalog.RecordInvocation(invocation).status().IsInvalidArgument());

      BatchResult batch = catalog.ApplyBatch(
          {CatalogMutation::Annotate("dataset", "file1", "q", value),
           CatalogMutation::DefineDataset(annotated),
           CatalogMutation::AddReplica(replica),
           CatalogMutation::RecordInvocation(invocation)});
      EXPECT_EQ(batch.applied, 0u);
      for (const Status& s : batch.statuses) {
        EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
      }
    }
    EXPECT_EQ(catalog.version(), version);
    ASSERT_TRUE(catalog.SyncJournal().ok());
  }
  VirtualDataCatalog reopened("persist.org",
                              std::make_unique<FileJournal>(path_));
  Status opened = reopened.Open();
  ASSERT_TRUE(opened.ok()) << opened.ToString();
  EXPECT_FALSE(reopened.GetDataset("file1")->annotations.Has("q"));
  EXPECT_FALSE(reopened.HasDataset("bad_annotation"));
}

TEST(VectorJournalTest, CapturesRecords) {
  auto journal = std::make_unique<VectorJournal>();
  VectorJournal* raw = journal.get();
  VirtualDataCatalog catalog("v.org", std::move(journal));
  ASSERT_TRUE(catalog.Open().ok());
  ASSERT_TRUE(catalog.ImportVdl(kChainVdl).ok());
  EXPECT_GE(raw->records().size(), 5u);  // 2 TR + 3 DS + 2 DV at least
}

// ---------------------- Zero-copy batch ingest ------------------------

/// A one-step transformation "step(out, in)" and a derivation of it.
Transformation IngestStep() {
  Transformation tr("step", Transformation::Kind::kSimple);
  FormalArg out;
  out.name = "out";
  out.direction = ArgDirection::kOut;
  FormalArg in;
  in.name = "in";
  in.direction = ArgDirection::kIn;
  EXPECT_TRUE(tr.AddArg(std::move(out)).ok());
  EXPECT_TRUE(tr.AddArg(std::move(in)).ok());
  tr.set_executable("/bin/step");
  return tr;
}

Derivation IngestDerivation(const std::string& name, const std::string& input,
                            const std::string& output) {
  Derivation dv(name, "step");
  EXPECT_TRUE(
      dv.AddArg(ActualArg::DatasetRef("in", input, ArgDirection::kIn)).ok());
  EXPECT_TRUE(
      dv.AddArg(ActualArg::DatasetRef("out", output, ArgDirection::kOut))
          .ok());
  return dv;
}

Dataset IngestDataset(const std::string& name) {
  Dataset ds;
  ds.name = name;
  ds.descriptor = DatasetDescriptor::File("/data/" + name);
  ds.annotations.Set("bin", int64_t{3});
  return ds;
}

/// The three define payloads of a {transformation, dataset,
/// derivation} batch.
struct IngestPayloads {
  const std::shared_ptr<const Transformation>& tr;
  const std::shared_ptr<const Dataset>& ds;
  const std::shared_ptr<const Derivation>& dv;
};

IngestPayloads PayloadsOf(const std::vector<CatalogMutation>& batch) {
  return {
      std::get<CatalogMutation::DefineTransformationOp>(batch[0].op)
          .transformation,
      std::get<CatalogMutation::DefineDatasetOp>(batch[1].op).dataset,
      std::get<CatalogMutation::DefineDerivationOp>(batch[2].op).derivation};
}

TEST(CatalogIngest, ApplyBatchAdoptsDefinePayloadsAsRows) {
  VirtualDataCatalog catalog("ingest.org");
  ASSERT_TRUE(catalog.Open().ok());
  const std::vector<CatalogMutation> batch = {
      CatalogMutation::DefineTransformation(IngestStep()),
      CatalogMutation::DefineDataset(IngestDataset("a")),
      CatalogMutation::DefineDerivation(IngestDerivation("d1", "a", "b"))};
  const IngestPayloads payloads = PayloadsOf(batch);
  BatchResult result = catalog.ApplyBatch(batch);
  ASSERT_TRUE(result.first_error.ok()) << result.first_error;
  // The caller's mutation and the catalog row: no copy, no other owner.
  EXPECT_EQ(payloads.tr.use_count(), 2);
  EXPECT_EQ(payloads.ds.use_count(), 2);
  EXPECT_EQ(payloads.dv.use_count(), 2);
  // The rows are the payload objects themselves.
  CatalogView view = catalog.View();
  const CatalogSnapshot& snap = view.snapshot();
  auto row = [&](const auto& table, std::string_view name) {
    return table.Find(snap.symbols.FindId(name))->object.get();
  };
  EXPECT_EQ(row(snap.transformations, "step"), payloads.tr.get());
  EXPECT_EQ(row(snap.datasets, "a"), payloads.ds.get());
  EXPECT_EQ(row(snap.derivations, "d1"), payloads.dv.get());
}

TEST(CatalogIngest, RejectedDefinesLeaveThePayloadUnshared) {
  VirtualDataCatalog catalog("ingest.org");
  ASSERT_TRUE(catalog.Open().ok());
  const std::vector<CatalogMutation> first = {
      CatalogMutation::DefineTransformation(IngestStep()),
      CatalogMutation::DefineDataset(IngestDataset("a")),
      CatalogMutation::DefineDerivation(IngestDerivation("d1", "a", "b"))};
  ASSERT_TRUE(catalog.ApplyBatch(first).first_error.ok());

  const std::vector<CatalogMutation> again = {
      CatalogMutation::DefineTransformation(IngestStep()),
      CatalogMutation::DefineDataset(IngestDataset("a")),
      CatalogMutation::DefineDerivation(IngestDerivation("d1", "a", "b"))};
  BatchResult result = catalog.ApplyBatch(again);
  ASSERT_EQ(result.statuses.size(), again.size());
  for (const Status& s : result.statuses) {
    EXPECT_TRUE(s.IsAlreadyExists()) << s;
  }
  const IngestPayloads duplicates = PayloadsOf(again);
  EXPECT_EQ(duplicates.tr.use_count(), 1);
  EXPECT_EQ(duplicates.ds.use_count(), 1);
  EXPECT_EQ(duplicates.dv.use_count(), 1);

  Transformation unnamed = IngestStep();
  unnamed.set_name("");
  Dataset non_finite = IngestDataset("c");
  non_finite.annotations.Set("x", std::numeric_limits<double>::quiet_NaN());
  const std::vector<CatalogMutation> invalid = {
      CatalogMutation::DefineTransformation(unnamed),
      CatalogMutation::DefineDataset(non_finite),
      CatalogMutation::DefineDerivation(Derivation("d2", "no-such-step"))};
  result = catalog.ApplyBatch(invalid);
  ASSERT_EQ(result.statuses.size(), invalid.size());
  EXPECT_EQ(result.applied, 0u);
  const IngestPayloads rejected = PayloadsOf(invalid);
  EXPECT_EQ(rejected.tr.use_count(), 1);
  EXPECT_EQ(rejected.ds.use_count(), 1);
  EXPECT_EQ(rejected.dv.use_count(), 1);
}

TEST(CatalogIngest, BatchDefinesJournalTheSingleOpBytes) {
  // Adopting the payload changes no record: a batch journals exactly
  // what the single-op API journals for the same objects.
  auto batch_journal = std::make_unique<VectorJournal>();
  auto single_journal = std::make_unique<VectorJournal>();
  const VectorJournal* batched = batch_journal.get();
  const VectorJournal* single = single_journal.get();
  VirtualDataCatalog by_batch("j.org", std::move(batch_journal));
  VirtualDataCatalog by_op("j.org", std::move(single_journal));
  ASSERT_TRUE(by_batch.Open().ok());
  ASSERT_TRUE(by_op.Open().ok());
  ASSERT_TRUE(by_batch
                  .ApplyBatch({CatalogMutation::DefineTransformation(
                                   IngestStep()),
                               CatalogMutation::DefineDataset(
                                   IngestDataset("a")),
                               CatalogMutation::DefineDerivation(
                                   IngestDerivation("d1", "a", "b"))})
                  .first_error.ok());
  ASSERT_TRUE(by_op.DefineTransformation(IngestStep()).ok());
  ASSERT_TRUE(by_op.DefineDataset(IngestDataset("a")).ok());
  ASSERT_TRUE(by_op.DefineDerivation(IngestDerivation("d1", "a", "b")).ok());
  EXPECT_EQ(batched->records(), single->records());
  EXPECT_EQ(batched->records().size(), 4u);  // TR, DS a, DS b, DV
}

// -------------------------- Journal records ---------------------------

// Decodes `record` and returns the object of kind T it carries.
template <typename T>
T DecodeAs(const std::string& record) {
  Result<journal_record::Record> decoded = journal_record::Decode(record);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  if (!decoded.ok()) return T{};
  const T* object = std::get_if<T>(&*decoded);
  EXPECT_NE(object, nullptr);
  return object == nullptr ? T{} : *object;
}

TEST(CodecTest, TypeAndRemovalRecordsRoundTrip) {
  journal_record::TypeEdge edge = DecodeAs<journal_record::TypeEdge>(
      journal_record::EncodeType(TypeDimension::kFormat, "root|x", "base"));
  EXPECT_EQ(edge.dimension, TypeDimension::kFormat);
  EXPECT_EQ(edge.name, "root|x");
  EXPECT_EQ(edge.parent, "base");
  for (journal_record::Tag tag :
       {journal_record::Tag::kRemoveDataset,
        journal_record::Tag::kRemoveTransformation,
        journal_record::Tag::kRemoveDerivation,
        journal_record::Tag::kRemoveReplica}) {
    journal_record::Removal removal = DecodeAs<journal_record::Removal>(
        journal_record::EncodeRemoval(tag, "gone\nname"));
    EXPECT_EQ(removal.tag, tag);
    EXPECT_EQ(removal.name, "gone\nname");
  }
}

TEST(CodecTest, ReplicaRoundTrip) {
  Replica r;
  r.id = "rp-9";
  r.dataset = "ds|weird";
  r.site = "uchicago";
  r.storage_element = "se1";
  r.physical_path = "/data/x";
  r.size_bytes = 123456789;
  r.created_at = 42.5;
  r.valid = false;
  r.annotations.Set("checksum", "abc");
  Replica back = DecodeAs<Replica>(journal_record::Encode(r));
  EXPECT_EQ(back.id, r.id);
  EXPECT_EQ(back.dataset, r.dataset);
  EXPECT_EQ(back.size_bytes, r.size_bytes);
  EXPECT_EQ(back.valid, false);
  EXPECT_EQ(back.annotations.GetString("checksum"), "abc");
}

TEST(CodecTest, InvocationRoundTrip) {
  Invocation iv;
  iv.id = "iv-3";
  iv.derivation = "dv";
  iv.context.site = "caltech";
  iv.context.host = "n7";
  iv.start_time = 10.25;
  iv.duration_s = 99;
  iv.cpu_seconds = 88;
  iv.peak_memory_bytes = 1 << 20;
  iv.exit_code = 2;
  iv.succeeded = false;
  iv.consumed_replicas = {"rp-1", "rp-2"};
  iv.produced_replicas = {"rp-3"};
  iv.annotations.Set("note", "retry");
  Invocation back = DecodeAs<Invocation>(journal_record::Encode(iv));
  EXPECT_EQ(back.consumed_replicas, iv.consumed_replicas);
  EXPECT_EQ(back.produced_replicas, iv.produced_replicas);
  EXPECT_EQ(back.exit_code, 2);
  EXPECT_FALSE(back.succeeded);
  EXPECT_EQ(back.annotations.GetString("note"), "retry");
}

TEST(CodecTest, DecodeRejectsTruncatedRecords) {
  Replica r;
  r.id = "rp-1";
  r.dataset = "ds";
  const std::string record = journal_record::Encode(r);
  for (size_t cut = 0; cut < record.size(); ++cut) {
    EXPECT_FALSE(journal_record::Decode(record.substr(0, cut)).ok()) << cut;
  }
  EXPECT_FALSE(journal_record::Decode(record + "x").ok());  // trailing byte
  EXPECT_FALSE(journal_record::Decode("RP|rp-1|ds").ok());   // text format
}

TEST(CatalogIngest, ImportProgramMovesDefinitionsIntoRows) {
  VirtualDataCatalog catalog("move.example.org");
  ASSERT_TRUE(catalog.Open().ok());
  VdlProgram program;
  Dataset ds;
  ds.name = "annotated";
  ds.annotations.Set("note", std::string(256, 'n'));  // past any SSO
  program.datasets.push_back(std::move(ds));
  const char* buffer =
      program.datasets[0].annotations.Find("note")->AsString().data();

  ASSERT_TRUE(catalog.ImportProgram(std::move(program)).ok());
  const CatalogView view = catalog.View();
  const auto* row = view.snapshot().datasets.Find(
      view.snapshot().symbols.FindId("annotated"));
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->object->annotations.Find("note")->AsString().data(),
            buffer);
}

// Row-chunk fill (rows over the name-order key space) after loading
// `names` in the given order, in 1000-op batches as bulk ingest does.
// Each dataset's "bin" annotation depends on its name alone.
double DatasetFill(const std::vector<std::string>& names,
                   VirtualDataCatalog* catalog) {
  EXPECT_TRUE(catalog->Open().ok());
  std::vector<CatalogMutation> batch;
  for (size_t i = 0; i < names.size(); ++i) {
    Dataset ds;
    ds.name = names[i];
    ds.annotations.Set("bin", static_cast<int64_t>(names[i].back() % 7));
    batch.push_back(CatalogMutation::DefineDataset(std::move(ds)));
    if (batch.size() == 1000 || i + 1 == names.size()) {
      EXPECT_TRUE(catalog->ApplyBatch(batch).first_error.ok());
      batch.clear();
    }
  }
  const CatalogView view = catalog->View();
  const auto& rows = view.snapshot().datasets;
  return static_cast<double>(rows.size()) /
         static_cast<double>(rows.key_space());
}

std::vector<std::string> CcNames(size_t n, size_t stride) {
  std::vector<std::string> names;
  for (size_t i = 0; i < n; ++i) {
    names.push_back("cc" + std::to_string(i * stride % n));
  }
  return names;
}

// A full chunk that takes an insert first shifts rows into a neighbour
// with room and splits only when both neighbours are full, so names
// that arrive in numeric (not name) order still pack chunks densely.
TEST(RowChunkFill, NumericOrderFillsChunks) {
  VirtualDataCatalog catalog("fill.example.org");
  EXPECT_GE(DatasetFill(CcNames(20000, 1), &catalog), 0.9);
}

TEST(RowChunkFill, RoundRobinPrefixesFillChunks) {
  std::vector<std::string> names;
  for (size_t n = 0; n < 20000; ++n) {
    char bucket[8];
    std::snprintf(bucket, sizeof(bucket), "%02zx", n % 32);
    names.push_back("ds-" + std::string(bucket) + "-" + std::to_string(n));
  }
  VirtualDataCatalog catalog("fill.example.org");
  EXPECT_GE(DatasetFill(names, &catalog), 0.8);
}

// The order BM_CommitCost loads; 0.6103 with middle splits alone.
TEST(RowChunkFill, StrideOrderFillsNoWorseThanMiddleSplits) {
  VirtualDataCatalog catalog("fill.example.org");
  EXPECT_GE(DatasetFill(CcNames(20000, 7919), &catalog), 0.6103);
}

// Where rows sit in chunks must not show in any answer: the same rows
// loaded in ascending name order (every chunk filled by appends, no
// split and no shift) and in scrambled orders (shifts and splits)
// answer every name-ordered find alike.
TEST(RowChunkFill, FindsAnswerAlikeWhateverTheChunkLayout) {
  std::vector<std::string> ascending = CcNames(6000, 1);
  std::sort(ascending.begin(), ascending.end());
  VirtualDataCatalog packed("fill.example.org");
  DatasetFill(ascending, &packed);

  std::vector<std::string> descending(ascending.rbegin(), ascending.rend());
  for (const std::vector<std::string>& order :
       {CcNames(6000, 1), CcNames(6000, 7919), descending}) {
    VirtualDataCatalog shifted("fill.example.org");
    DatasetFill(order, &shifted);
    EXPECT_EQ(shifted.AllDatasetNames(), packed.AllDatasetNames());
    for (int64_t bin = 0; bin < 7; ++bin) {
      DatasetQuery by_bin;
      by_bin.predicates = {{"bin", PredicateOp::kEq, AttributeValue(bin)}};
      EXPECT_EQ(shifted.FindDatasets(by_bin), packed.FindDatasets(by_bin))
          << bin;
    }
    DatasetQuery prefix;
    prefix.name_prefix = "cc12";
    EXPECT_EQ(shifted.FindDatasets(prefix), packed.FindDatasets(prefix));
    prefix.limit = 17;
    EXPECT_EQ(shifted.FindDatasets(prefix), packed.FindDatasets(prefix));
  }
  const NameList all = packed.AllDatasetNames();
  ASSERT_EQ(all.size(), ascending.size());
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], ascending[i]);
}

}  // namespace
}  // namespace vdg
