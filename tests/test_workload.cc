#include <gtest/gtest.h>

#include "provenance/provenance.h"
#include "workload/canonical.h"
#include "workload/hep.h"
#include "workload/interactive.h"
#include "workload/sdss.h"
#include "workload/testbed.h"

namespace vdg {
namespace {

// ----------------------------- Testbeds ------------------------------

TEST(TestbedTest, GriphynMatchesPaperScale) {
  GridTopology t = workload::GriphynTestbed();
  EXPECT_EQ(t.site_count(), 4u);
  EXPECT_EQ(t.total_hosts(), 800u);
  EXPECT_TRUE(t.HasSite("uchicago"));
  EXPECT_TRUE(t.HasSite("fermilab"));
  // Links were installed bidirectionally.
  EXPECT_GT(t.Bandwidth("uchicago", "fermilab"), t.Bandwidth("uchicago",
                                                             "caltech"));
  EXPECT_EQ(t.Bandwidth("fermilab", "uchicago"),
            t.Bandwidth("uchicago", "fermilab"));
}

TEST(TestbedTest, TieredTestbedBuildsHierarchy) {
  std::map<std::string, std::string> parents;
  GridTopology t = workload::TieredTestbed(2, 3, 1 << 20, &parents);
  EXPECT_EQ(t.site_count(), 1u + 2u + 6u);
  EXPECT_EQ(parents.at("region1-leaf2"), "region1");
  EXPECT_EQ(parents.at("region0"), "root");
  EXPECT_EQ(parents.at("root"), "");
}

// ----------------------------- Canonical -----------------------------

class CanonicalTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CanonicalTest, ProvenanceMatchesGroundTruth) {
  VirtualDataCatalog catalog("canon.org");
  ASSERT_TRUE(catalog.Open().ok());
  workload::CanonicalGraphOptions options;
  options.num_derivations = 60;
  options.num_raw_inputs = 8;
  options.seed = GetParam();
  Result<workload::CanonicalGraph> graph =
      workload::GenerateCanonicalGraph(&catalog, options);
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_EQ(graph->derivations.size(), 60u);
  EXPECT_EQ(catalog.Stats().derivations, 60u);
  EXPECT_FALSE(graph->sinks.empty());

  // The provenance the catalog reports must equal the generator's
  // ground truth, for every output — the Chimera-0 validation.
  InProcessCatalogClient catalog_client(&catalog);
  ProvenanceTracker tracker(catalog_client);
  for (const std::string& output : graph->outputs) {
    Result<std::set<std::string>> ancestors = tracker.Ancestors(output);
    ASSERT_TRUE(ancestors.ok());
    EXPECT_EQ(*ancestors, graph->TrueAncestors(output)) << output;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalTest,
                         ::testing::Values(1, 2, 3, 42, 1234));

TEST(CanonicalTest2, DeterministicPerSeed) {
  workload::CanonicalGraphOptions options;
  options.num_derivations = 20;
  options.seed = 99;
  VirtualDataCatalog a("a.org"), b("b.org");
  ASSERT_TRUE(a.Open().ok());
  ASSERT_TRUE(b.Open().ok());
  Result<workload::CanonicalGraph> ga =
      workload::GenerateCanonicalGraph(&a, options);
  Result<workload::CanonicalGraph> gb =
      workload::GenerateCanonicalGraph(&b, options);
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  EXPECT_EQ(ga->truth_inputs, gb->truth_inputs);
  EXPECT_EQ(ga->sinks, gb->sinks);
}

TEST(CanonicalTest2, PrefixesAllowCoexistence) {
  VirtualDataCatalog catalog("c.org");
  ASSERT_TRUE(catalog.Open().ok());
  workload::CanonicalGraphOptions first;
  first.num_derivations = 5;
  first.prefix = "g1";
  workload::CanonicalGraphOptions second;
  second.num_derivations = 5;
  second.prefix = "g2";
  EXPECT_TRUE(workload::GenerateCanonicalGraph(&catalog, first).ok());
  EXPECT_TRUE(workload::GenerateCanonicalGraph(&catalog, second).ok());
  EXPECT_EQ(catalog.Stats().derivations, 10u);
}

TEST(CanonicalTest2, RejectsDegenerateOptions) {
  VirtualDataCatalog catalog("c.org");
  ASSERT_TRUE(catalog.Open().ok());
  workload::CanonicalGraphOptions bad;
  bad.num_raw_inputs = 0;
  EXPECT_FALSE(workload::GenerateCanonicalGraph(&catalog, bad).ok());
  EXPECT_FALSE(workload::GenerateCanonicalGraph(nullptr, {}).ok());
}

// -------------------------------- SDSS -------------------------------

TEST(SdssTest, WorkloadShapeMatchesOptions) {
  VirtualDataCatalog catalog("sdss.org");
  ASSERT_TRUE(catalog.Open().ok());
  workload::SdssOptions options;
  options.num_stripes = 4;
  options.fields_per_stripe = 10;
  Result<workload::SdssWorkload> workload =
      workload::GenerateSdss(&catalog, options);
  ASSERT_TRUE(workload.ok()) << workload.status();
  EXPECT_EQ(workload->field_datasets.size(), 40u);
  EXPECT_EQ(workload->bcg_datasets.size(), 40u);
  EXPECT_EQ(workload->cluster_catalogs.size(), 4u);
  EXPECT_EQ(workload->derivation_count, 44u);  // 40 searches + 4 merges
  EXPECT_EQ(catalog.Stats().derivations, 44u);
  // Types live in the SDSS content tree.
  Result<Dataset> field = catalog.GetDataset(workload->field_datasets[0]);
  ASSERT_TRUE(field.ok());
  EXPECT_EQ(field->type.content, "FITS-file");
  EXPECT_TRUE(catalog.TypesSnapshot()
                  .dimension(TypeDimension::kContent)
                  .IsSubtypeOf("FITS-file", "SDSS"));
}

TEST(SdssTest, MergeDependsOnAllStripeFields) {
  VirtualDataCatalog catalog("sdss.org");
  ASSERT_TRUE(catalog.Open().ok());
  workload::SdssOptions options;
  options.num_stripes = 1;
  options.fields_per_stripe = 5;
  Result<workload::SdssWorkload> workload =
      workload::GenerateSdss(&catalog, options);
  ASSERT_TRUE(workload.ok());
  InProcessCatalogClient catalog_client(&catalog);
  ProvenanceTracker tracker(catalog_client);
  Result<std::set<std::string>> ancestors =
      tracker.Ancestors(workload->cluster_catalogs[0]);
  ASSERT_TRUE(ancestors.ok());
  // 5 fields + 5 bcg lists upstream.
  EXPECT_EQ(ancestors->size(), 10u);
}

TEST(SdssTest, StagingDistributesFieldsAcrossSites) {
  VirtualDataCatalog catalog("sdss.org");
  ASSERT_TRUE(catalog.Open().ok());
  workload::SdssOptions options;
  options.num_stripes = 2;
  options.fields_per_stripe = 8;
  Result<workload::SdssWorkload> workload =
      workload::GenerateSdss(&catalog, options);
  ASSERT_TRUE(workload.ok());
  GridSimulator grid(workload::GriphynTestbed(), 1);
  ASSERT_TRUE(
      workload::StageSdssInputs(*workload, options, &grid, &catalog).ok());
  // Every field is somewhere, and all four sites hold some.
  std::set<std::string> used_sites;
  for (const std::string& field : workload->field_datasets) {
    std::vector<PhysicalLocation> locs = grid.rls().Lookup(field);
    ASSERT_EQ(locs.size(), 1u);
    used_sites.insert(locs[0].site);
    EXPECT_TRUE(catalog.IsMaterialized(field));
  }
  EXPECT_EQ(used_sites.size(), 4u);
}

// -------------------------------- HEP --------------------------------

TEST(HepTest, CompoundModeDefinesPipeline) {
  VirtualDataCatalog catalog("cms.org");
  ASSERT_TRUE(catalog.Open().ok());
  workload::HepOptions options;
  options.num_batches = 3;
  Result<workload::HepWorkload> workload =
      workload::GenerateHep(&catalog, options);
  ASSERT_TRUE(workload.ok()) << workload.status();
  EXPECT_EQ(workload->transformation_count, 5u);  // 4 stages + compound
  EXPECT_EQ(workload->ntuples.size(), 3u);
  EXPECT_EQ(catalog.Stats().derivations, 3u);  // one compound DV per batch
  Result<Transformation> pipeline =
      catalog.GetTransformation("cms-pipeline");
  ASSERT_TRUE(pipeline.ok());
  EXPECT_TRUE(pipeline->is_compound());
  EXPECT_EQ(pipeline->calls().size(), 4u);
}

TEST(HepTest, ExplicitModeBuildsFourStageChains) {
  VirtualDataCatalog catalog("cms.org");
  ASSERT_TRUE(catalog.Open().ok());
  workload::HepOptions options;
  options.num_batches = 2;
  options.use_compound = false;
  Result<workload::HepWorkload> workload =
      workload::GenerateHep(&catalog, options);
  ASSERT_TRUE(workload.ok()) << workload.status();
  EXPECT_EQ(catalog.Stats().derivations, 8u);  // 4 per batch
  // Multi-modal descriptors on the intermediates.
  Result<Dataset> hits = catalog.GetDataset("cms.batch0.hits");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->descriptor.schema, "file-set");
  Result<Dataset> reco = catalog.GetDataset("cms.batch0.reco");
  ASSERT_TRUE(reco.ok());
  EXPECT_EQ(reco->descriptor.schema, "object-closure");
  // Full chain provenance: ntuple <- reco <- hits <- events <- config.
  InProcessCatalogClient catalog_client(&catalog);
  ProvenanceTracker tracker(catalog_client);
  Result<std::set<std::string>> ancestors =
      tracker.Ancestors("cms.batch0.ntuple");
  ASSERT_TRUE(ancestors.ok());
  EXPECT_EQ(ancestors->size(), 4u);
}

// ---------------------------- Interactive ----------------------------

TEST(InteractiveTest, SessionShape) {
  VirtualDataCatalog catalog("ana.org");
  ASSERT_TRUE(catalog.Open().ok());
  workload::InteractiveOptions options;
  options.num_iterations = 3;
  options.cuts_per_iteration = 2;
  Result<workload::InteractiveWorkload> workload =
      workload::GenerateInteractive(&catalog, options);
  ASSERT_TRUE(workload.ok()) << workload.status();
  EXPECT_EQ(workload->analysis_codes.size(), 3u);
  EXPECT_EQ(workload->cut_sets.size(), 6u);
  EXPECT_EQ(workload->histograms.size(), 6u);
  // 6 selects + 6 hists + 1 graph.
  EXPECT_EQ(workload->derivation_count, 13u);
  // Versioned analysis codes.
  Result<Transformation> v2 =
      catalog.GetTransformation("ana-select-v2");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->version(), "v2");
  EXPECT_EQ(v2->annotations().GetString("code.version"), "v2");
  // The event store is relational (multi-modal).
  EXPECT_EQ(catalog.GetDataset(workload->event_store)->descriptor.schema,
            "sql-rows");
}

TEST(InteractiveTest, FinalGraphLineageFansAcrossAllIterations) {
  VirtualDataCatalog catalog("ana.org");
  ASSERT_TRUE(catalog.Open().ok());
  workload::InteractiveOptions options;
  options.num_iterations = 2;
  options.cuts_per_iteration = 2;
  Result<workload::InteractiveWorkload> workload =
      workload::GenerateInteractive(&catalog, options);
  ASSERT_TRUE(workload.ok());
  InProcessCatalogClient catalog_client(&catalog);
  ProvenanceTracker tracker(catalog_client);
  Result<std::set<std::string>> ancestors =
      tracker.Ancestors(workload->final_graph);
  ASSERT_TRUE(ancestors.ok());
  // 4 hists + 4 cutsets + 1 event store.
  EXPECT_EQ(ancestors->size(), 9u);
  // Lineage-report depth: graph <- hist <- cutset <- events.
  Result<LineageNode> lineage = tracker.Lineage(workload->final_graph);
  ASSERT_TRUE(lineage.ok());
  EXPECT_EQ(LineageDepth(*lineage), 3);
  // The report names the analysis code version that made each point.
  std::string text = RenderLineage(*lineage);
  EXPECT_NE(text.find("ana-select-v1"), std::string::npos);
  EXPECT_NE(text.find("ana-select-v2"), std::string::npos);
}

}  // namespace
}  // namespace vdg
