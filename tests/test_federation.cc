#include <gtest/gtest.h>

#include "federation/annotation_overlay.h"
#include "federation/index.h"
#include "federation/promotion.h"
#include "federation/registry.h"
#include "provenance/provenance.h"

namespace vdg {
namespace {

constexpr const char* kStepTr = R"(
TR step( output out, input in ) {
  argument stdin = ${input:in};
  argument stdout = ${output:out};
  exec = "/bin/step";
}
)";

class FederationTest : public ::testing::Test {
 protected:
  FederationTest()
      : collab_("collab.org"), group_("group.org"), personal_("personal.org") {
    EXPECT_TRUE(collab_.Open().ok());
    EXPECT_TRUE(group_.Open().ok());
    EXPECT_TRUE(personal_.Open().ok());
    EXPECT_TRUE(registry_.Register(&collab_).ok());
    EXPECT_TRUE(registry_.Register(&group_).ok());
    EXPECT_TRUE(registry_.Register(&personal_).ok());

    // Collaboration holds the raw survey data + official processing.
    EXPECT_TRUE(collab_.ImportVdl(kStepTr).ok());
    EXPECT_TRUE(collab_.ImportVdl(R"(
DS survey : Dataset size="1000000";
DV official->step( out=@{output:"calibrated"}, in=@{input:"survey"} );
)")
                    .ok());
    // Group derives from the collaboration's calibrated data.
    EXPECT_TRUE(group_.ImportVdl(kStepTr).ok());
    EXPECT_TRUE(group_.ImportVdl(R"(
DV grp->step( out=@{output:"selected"},
              in=@{input:"vdp://collab.org/calibrated"} );
)")
                    .ok());
    // Personal work depends on the group's selection.
    EXPECT_TRUE(personal_.ImportVdl(kStepTr).ok());
    EXPECT_TRUE(personal_.ImportVdl(R"(
DV mine->step( out=@{output:"myplot"},
               in=@{input:"vdp://group.org/selected"} );
)")
                    .ok());
  }

  /// The registered server for `authority`.
  CatalogClient* Server(std::string_view authority) {
    return *registry_.Find(authority);
  }
  /// The personal catalog's server: home of the references below.
  CatalogClient* Home() { return Server("personal.org"); }

  VirtualDataCatalog collab_;
  VirtualDataCatalog group_;
  VirtualDataCatalog personal_;
  CatalogRegistry registry_;
};

// ----------------------------- Registry ------------------------------

TEST_F(FederationTest, RegisterAndFind) {
  EXPECT_EQ(registry_.size(), 3u);
  EXPECT_TRUE(registry_.Has("collab.org"));
  ASSERT_TRUE(registry_.Find("group.org").ok());
  EXPECT_TRUE(registry_.Find("nowhere.org").status().IsNotFound());
  EXPECT_TRUE(registry_.Register(&collab_).IsAlreadyExists());
  EXPECT_FALSE(registry_.Register(nullptr).ok());
}

TEST_F(FederationTest, ResolveAllReferenceForms) {
  // Bare name: home catalog.
  Result<ResolvedRef> bare = registry_.Resolve(Home(), "myplot");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->client, Home());
  EXPECT_FALSE(bare->remote);

  // authority::name.
  Result<ResolvedRef> scoped =
      registry_.Resolve(Home(), "collab.org::survey");
  ASSERT_TRUE(scoped.ok());
  EXPECT_EQ(scoped->client, Server("collab.org"));
  EXPECT_EQ(scoped->local_name, "survey");
  EXPECT_TRUE(scoped->remote);

  // vdp:// hyperlink.
  Result<ResolvedRef> vdp =
      registry_.Resolve(Home(), "vdp://group.org/selected");
  ASSERT_TRUE(vdp.ok());
  EXPECT_EQ(vdp->client, Server("group.org"));
  EXPECT_EQ(vdp->local_name, "selected");

  // Bare names need a home catalog.
  EXPECT_FALSE(registry_.Resolve(nullptr, "myplot").ok());
  // Unknown authority.
  EXPECT_TRUE(
      registry_.Resolve(Home(), "vdp://x.org/y").status().IsNotFound());
}

TEST_F(FederationTest, ResolveRejectsMalformedReferences) {
  // Malformed vdp:// forms: missing authority, missing object name.
  EXPECT_TRUE(registry_.Resolve(Home(), "vdp:///survey")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(registry_.Resolve(Home(), "vdp://collab.org")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(registry_.Resolve(Home(), "vdp://collab.org/")
                  .status()
                  .IsParseError());
  // Scoped form with an empty side.
  Status empty_name =
      registry_.Resolve(Home(), "collab.org::").status();
  EXPECT_TRUE(empty_name.IsInvalidArgument());
  EXPECT_NE(empty_name.message().find("empty object name"),
            std::string::npos);
  Status empty_authority = registry_.Resolve(Home(), "::survey").status();
  EXPECT_TRUE(empty_authority.IsInvalidArgument());
  EXPECT_NE(empty_authority.message().find("empty authority"),
            std::string::npos);
  // Unknown authority in scoped form is NotFound, not InvalidArgument.
  EXPECT_TRUE(registry_.Resolve(Home(), "nowhere.org::survey")
                  .status()
                  .IsNotFound());
}

TEST_F(FederationTest, ImportTransformationRejectsSelfImport) {
  // Importing collab's step back into collab is a no-op masquerading
  // as a copy; the registry refuses it outright.
  Status self = registry_.ImportTransformation(
      Home(), "vdp://collab.org/step", Server("collab.org"));
  EXPECT_TRUE(self.IsInvalidArgument());
  EXPECT_NE(self.message().find("self-import"), std::string::npos);
  // The refused import leaves no origin annotation behind.
  EXPECT_FALSE(
      collab_.GetTransformation("step")->annotations().Has("vdg.origin"));
}

TEST_F(FederationTest, RemoteLookupCounting) {
  registry_.reset_remote_lookups();
  ASSERT_TRUE(registry_.Resolve(Home(), "myplot").ok());
  EXPECT_EQ(registry_.remote_lookups(), 0u);
  ASSERT_TRUE(registry_.Resolve(Home(), "vdp://collab.org/survey").ok());
  ASSERT_TRUE(registry_.Resolve(Home(), "group.org::selected").ok());
  EXPECT_EQ(registry_.remote_lookups(), 2u);
  // A vdp:// link that points back at the home catalog is local.
  Result<ResolvedRef> self =
      registry_.Resolve(Home(), "vdp://personal.org/myplot");
  ASSERT_TRUE(self.ok());
  EXPECT_FALSE(self->remote);
  EXPECT_EQ(registry_.remote_lookups(), 2u);
  // Failed resolutions never count as remote lookups.
  EXPECT_FALSE(registry_.Resolve(Home(), "vdp://x.org/y").ok());
  EXPECT_EQ(registry_.remote_lookups(), 2u);
}

TEST_F(FederationTest, FetchThroughHelpers) {
  Result<Dataset> ds =
      registry_.FetchDataset(Home(), "vdp://collab.org/survey");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size_bytes, 1000000);
  Result<Transformation> tr =
      registry_.FetchTransformation(Home(), "collab.org::step");
  ASSERT_TRUE(tr.ok());
  EXPECT_EQ(tr->name(), "step");
  Result<Derivation> dv =
      registry_.FetchDerivation(Home(), "vdp://group.org/grp");
  ASSERT_TRUE(dv.ok());
  EXPECT_EQ(dv->name(), "grp");
  EXPECT_TRUE(registry_.FetchDataset(Home(), "vdp://collab.org/none")
                  .status()
                  .IsNotFound());
}

TEST_F(FederationTest, ImportTransformationCopiesWithOrigin) {
  VirtualDataCatalog scratch("scratch.org");
  ASSERT_TRUE(scratch.Open().ok());
  InProcessCatalogClient scratch_client(&scratch);
  ASSERT_TRUE(registry_
                  .ImportTransformation(Home(), "vdp://collab.org/step",
                                        &scratch_client)
                  .ok());
  Result<Transformation> copied = scratch.GetTransformation("step");
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(copied->annotations().GetString("vdg.origin"),
            "vdp://collab.org/step");
}

TEST_F(FederationTest, XmlWireRoundTrip) {
  // Ship the collaboration's `step` to a fresh catalog over the wire.
  Result<std::string> xml = ExportTransformationXml(collab_, "step");
  ASSERT_TRUE(xml.ok());
  VirtualDataCatalog scratch("scratch.org");
  ASSERT_TRUE(scratch.Open().ok());
  ASSERT_TRUE(
      ImportTransformationXml(*xml, "vdp://collab.org/step", &scratch).ok());
  Result<Transformation> copied = scratch.GetTransformation("step");
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(copied->TypeSignature(),
            collab_.GetTransformation("step")->TypeSignature());
  EXPECT_EQ(copied->annotations().GetString("vdg.origin"),
            "vdp://collab.org/step");

  // Derivations ship too (the Figure 3 knowledge-propagation flow).
  Result<std::string> dv_xml = ExportDerivationXml(collab_, "official");
  ASSERT_TRUE(dv_xml.ok());
  ASSERT_TRUE(scratch.ImportVdl("DS survey : Dataset size=\"1\";").ok());
  ASSERT_TRUE(
      ImportDerivationXml(*dv_xml, "vdp://collab.org/official", &scratch)
          .ok());
  Result<Derivation> dv = scratch.GetDerivation("official");
  ASSERT_TRUE(dv.ok());
  EXPECT_EQ(dv->SignatureText(),
            collab_.GetDerivation("official")->SignatureText());
}

TEST_F(FederationTest, XmlWireRejectsGarbage) {
  VirtualDataCatalog scratch("scratch.org");
  ASSERT_TRUE(scratch.Open().ok());
  EXPECT_FALSE(ImportTransformationXml("<bogus/>", "", &scratch).ok());
  EXPECT_FALSE(ImportTransformationXml("not xml", "", &scratch).ok());
  EXPECT_FALSE(ImportTransformationXml("<transformation/>", "", nullptr)
                   .ok());
  EXPECT_TRUE(ExportTransformationXml(collab_, "nope").status().IsNotFound());
}

// --------------------------- FederatedIndex --------------------------

TEST_F(FederationTest, IndexRefreshAndLookup) {
  FederatedIndex index("collaboration-wide");
  ASSERT_TRUE(index.AddSource(&collab_).ok());
  ASSERT_TRUE(index.AddSource(&group_).ok());
  ASSERT_TRUE(index.AddSource(&personal_).ok());
  EXPECT_TRUE(index.AddSource(&collab_).IsAlreadyExists());
  EXPECT_TRUE(index.IsStale());  // never refreshed
  ASSERT_TRUE(index.Refresh().ok());
  EXPECT_FALSE(index.IsStale());
  EXPECT_GT(index.size(), 0u);

  std::vector<IndexEntry> hits = index.LookupName("dataset", "selected");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].authority, "group.org");
  EXPECT_EQ(hits[0].VdpRef(), "vdp://group.org/selected");
}

TEST_F(FederationTest, IndexDetectsStaleness) {
  FederatedIndex index("idx");
  ASSERT_TRUE(index.AddSource(&collab_).ok());
  ASSERT_TRUE(index.Refresh().ok());
  EXPECT_FALSE(index.IsStale());
  ASSERT_TRUE(
      collab_.Annotate("dataset", "survey", "quality", "checked").ok());
  EXPECT_TRUE(index.IsStale());
  ASSERT_TRUE(index.Refresh().ok());
  EXPECT_FALSE(index.IsStale());
  EXPECT_EQ(index.refresh_count(), 2u);
}

TEST_F(FederationTest, IndexQueryMatchesDirectScan) {
  ASSERT_TRUE(
      collab_.Annotate("dataset", "survey", "science", "astro").ok());
  ASSERT_TRUE(
      group_.Annotate("dataset", "selected", "science", "astro").ok());
  FederatedIndex index("idx");
  ASSERT_TRUE(index.AddSource(&collab_).ok());
  ASSERT_TRUE(index.AddSource(&group_).ok());
  ASSERT_TRUE(index.AddSource(&personal_).ok());
  ASSERT_TRUE(index.Refresh().ok());

  DatasetQuery query;
  query.predicates = {{"science", PredicateOp::kEq, "astro"}};
  std::vector<IndexEntry> via_index = index.FindDatasets(query);
  std::vector<IndexEntry> via_scan = index.ScanDatasets(query);
  ASSERT_EQ(via_index.size(), 2u);
  ASSERT_EQ(via_scan.size(), via_index.size());
  for (size_t i = 0; i < via_index.size(); ++i) {
    EXPECT_EQ(via_index[i].name, via_scan[i].name);
    EXPECT_EQ(via_index[i].authority, via_scan[i].authority);
  }
}

TEST_F(FederationTest, IndexScopesDifferBySourceSet) {
  FederatedIndex personal_index("personal");
  ASSERT_TRUE(personal_index.AddSource(&personal_).ok());
  ASSERT_TRUE(personal_index.Refresh().ok());
  FederatedIndex collab_index("collab-wide");
  ASSERT_TRUE(collab_index.AddSource(&collab_).ok());
  ASSERT_TRUE(collab_index.AddSource(&group_).ok());
  ASSERT_TRUE(collab_index.AddSource(&personal_).ok());
  ASSERT_TRUE(collab_index.Refresh().ok());
  EXPECT_TRUE(personal_index.LookupName("dataset", "survey").empty());
  EXPECT_EQ(collab_index.LookupName("dataset", "survey").size(), 1u);
  EXPECT_LT(personal_index.size(), collab_index.size());
}

TEST_F(FederationTest, IndexFindsTransformationsAndDerivations) {
  FederatedIndex index("idx");
  ASSERT_TRUE(index.AddSource(&collab_).ok());
  ASSERT_TRUE(index.AddSource(&group_).ok());
  ASSERT_TRUE(index.Refresh().ok());
  TransformationQuery tq;
  tq.name_prefix = "step";
  EXPECT_EQ(index.FindTransformations(tq).size(), 2u);  // one per catalog
  DerivationQuery dq;
  dq.name_prefix = "grp";
  std::vector<IndexEntry> dvs = index.FindDerivations(dq);
  ASSERT_EQ(dvs.size(), 1u);
  EXPECT_EQ(dvs[0].authority, "group.org");
}

// ------------------------ AnnotationOverlay --------------------------

TEST_F(FederationTest, OverlayEnhancesWithoutModifying) {
  AnnotationOverlay overlay("alice");
  EXPECT_EQ(overlay.owner(), "alice");
  // The collaboration curated its dataset; Alice layers her own notes.
  ASSERT_TRUE(
      collab_.Annotate("dataset", "survey", "quality", "curated").ok());
  ASSERT_TRUE(overlay
                  .Annotate("dataset", "vdp://collab.org/survey",
                            "my-verdict", "looks-biased")
                  .ok());
  ASSERT_TRUE(overlay
                  .Annotate("dataset", "vdp://collab.org/survey",
                            "quality", "questionable")  // shadows base
                  .ok());

  Result<AttributeSet> effective = overlay.EffectiveAnnotations(
      registry_, "dataset", "vdp://collab.org/survey");
  ASSERT_TRUE(effective.ok());
  EXPECT_EQ(effective->GetString("my-verdict"), "looks-biased");
  EXPECT_EQ(effective->GetString("quality"), "questionable");
  // The owning catalog never sees the overlay.
  EXPECT_EQ(collab_.GetDataset("survey")->annotations.GetString("quality"),
            "curated");
}

TEST_F(FederationTest, OverlayDiscoveryUsesEffectiveView) {
  AnnotationOverlay overlay("alice");
  ASSERT_TRUE(
      collab_.Annotate("dataset", "survey", "science", "astro").ok());
  ASSERT_TRUE(overlay
                  .Annotate("dataset", "vdp://collab.org/survey",
                            "starred", true)
                  .ok());
  ASSERT_TRUE(overlay
                  .Annotate("dataset", "vdp://group.org/selected",
                            "starred", true)
                  .ok());
  // Find starred objects that the *base* says are astro: only survey
  // carries the base annotation.
  Result<NameList> hits = overlay.FindAnnotated(
      registry_, "dataset",
      {{"starred", PredicateOp::kEq, true},
       {"science", PredicateOp::kEq, "astro"}});
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(*hits,
            std::vector<std::string>{"vdp://collab.org/survey"});
}

TEST_F(FederationTest, OverlayValidationAndRemoval) {
  AnnotationOverlay overlay("alice");
  EXPECT_FALSE(overlay.Annotate("dataset", "bare-name", "k", 1).ok());
  ASSERT_TRUE(
      overlay.Annotate("dataset", "vdp://collab.org/survey", "k", 1).ok());
  EXPECT_EQ(overlay.size(), 1u);
  EXPECT_TRUE(
      overlay.Remove("dataset", "vdp://collab.org/survey", "nope")
          .IsNotFound());
  ASSERT_TRUE(
      overlay.Remove("dataset", "vdp://collab.org/survey", "k").ok());
  EXPECT_EQ(overlay.size(), 0u);
  // Unknown kinds and dangling references surface errors.
  EXPECT_FALSE(overlay
                   .EffectiveAnnotations(registry_, "widget",
                                         "vdp://collab.org/survey")
                   .ok());
  ASSERT_TRUE(
      overlay.Annotate("dataset", "vdp://collab.org/ghost", "k", 1).ok());
  EXPECT_TRUE(overlay
                  .EffectiveAnnotations(registry_, "dataset",
                                        "vdp://collab.org/ghost")
                  .status()
                  .IsNotFound());
  // FindAnnotated silently skips dangling refs.
  Result<NameList> hits = overlay.FindAnnotated(
      registry_, "dataset", {{"k", PredicateOp::kExists, {}}});
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST_F(FederationTest, OverlayWorksForTransformationsAndDerivations) {
  AnnotationOverlay overlay("alice");
  ASSERT_TRUE(overlay
                  .Annotate("transformation", "vdp://collab.org/step",
                            "trusted", true)
                  .ok());
  ASSERT_TRUE(overlay
                  .Annotate("derivation", "vdp://group.org/grp",
                            "reviewed", false)
                  .ok());
  Result<AttributeSet> tr = overlay.EffectiveAnnotations(
      registry_, "transformation", "vdp://collab.org/step");
  ASSERT_TRUE(tr.ok());
  EXPECT_EQ(tr->GetBool("trusted"), true);
  Result<AttributeSet> dv = overlay.EffectiveAnnotations(
      registry_, "derivation", "vdp://group.org/grp");
  ASSERT_TRUE(dv.ok());
  EXPECT_EQ(dv->GetBool("reviewed"), false);
}

// ---------------------------- Promotion ------------------------------

class PromotionTest : public FederationTest {
 protected:
  PromotionTest()
      : root_keys_(KeyPair::FromSeed("collab-root")),
        curator_keys_(KeyPair::FromSeed("curator")),
        rando_keys_(KeyPair::FromSeed("rando")) {
    root_ = Identity{"collab-root", root_keys_.public_key};
    curator_ = Identity{"curator", curator_keys_.public_key};
    rando_ = Identity{"rando", rando_keys_.public_key};
    trust_.AddRoot(root_);
    curator_cert_ = IssueCertificate(curator_, "collab-root", root_keys_);
    pipeline_ = std::make_unique<PromotionPipeline>(
        std::vector<VirtualDataCatalog*>{&personal_, &group_, &collab_},
        &trust_, &signatures_);
    pipeline_->RegisterSignerChain("curator", {curator_cert_});
    // Alice authors a new analysis code in her personal catalog.
    EXPECT_TRUE(personal_.ImportVdl(R"(
TR newidea( output out, input in ) {
  argument stdin = ${input:in};
  argument stdout = ${output:out};
  exec = "/home/alice/newidea";
}
)")
                    .ok());
  }

  KeyPair root_keys_, curator_keys_, rando_keys_;
  Identity root_, curator_, rando_;
  Certificate curator_cert_;
  TrustStore trust_;
  SignatureRegistry signatures_;
  std::unique_ptr<PromotionPipeline> pipeline_;
};

TEST_F(PromotionTest, UnendorsedPromotionDenied) {
  EXPECT_TRUE(pipeline_->PromoteTransformation(0, "newidea")
                  .IsPermissionDenied());
  EXPECT_FALSE(group_.HasTransformation("newidea"));
}

TEST_F(PromotionTest, EndorsedPromotionClimbsTiers) {
  ASSERT_TRUE(
      pipeline_->Endorse(0, "newidea", curator_, curator_keys_).ok());
  ASSERT_TRUE(pipeline_->PromoteTransformation(0, "newidea").ok());
  ASSERT_TRUE(group_.HasTransformation("newidea"));
  Result<Transformation> copy = group_.GetTransformation("newidea");
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->annotations().GetString("vdg.origin"),
            "vdp://personal.org/newidea");
  EXPECT_EQ(copy->annotations().GetString("vdg.approved_by"), "curator");
  // Endorsements are content-pinned: the unchanged copy climbs the
  // next tier on the same endorsement...
  ASSERT_TRUE(pipeline_->PromoteTransformation(1, "newidea").ok());
  EXPECT_TRUE(collab_.HasTransformation("newidea"));
  // ...but an *edited* copy would not (see EditAfterEndorsementVoidsIt).
}

TEST_F(PromotionTest, EditAfterEndorsementVoidsIt) {
  ASSERT_TRUE(
      pipeline_->Endorse(0, "newidea", curator_, curator_keys_).ok());
  // Alice tweaks the code after the curator signed off.
  ASSERT_TRUE(personal_.Annotate("transformation", "newidea",
                                 "tuning", "aggressive")
                  .ok());
  EXPECT_TRUE(pipeline_->PromoteTransformation(0, "newidea")
                  .IsPermissionDenied());
}

TEST_F(PromotionTest, UntrustedSignerDenied) {
  // rando signs, but holds no chain to the root.
  ASSERT_TRUE(pipeline_->Endorse(0, "newidea", rando_, rando_keys_).ok());
  pipeline_->RegisterSignerChain(
      "rando", {IssueCertificate(rando_, "nobody", rando_keys_)});
  EXPECT_TRUE(pipeline_->PromoteTransformation(0, "newidea")
                  .IsPermissionDenied());
}

TEST_F(PromotionTest, PromoteToTopRunsTheWholeLadder) {
  ASSERT_TRUE(
      pipeline_->PromoteToTop(0, "newidea", curator_, curator_keys_).ok());
  EXPECT_TRUE(group_.HasTransformation("newidea"));
  EXPECT_TRUE(collab_.HasTransformation("newidea"));
  // Top tier reached: nothing above.
  EXPECT_EQ(pipeline_->PromoteTransformation(2, "newidea").code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PromotionTest, RevokedCuratorStopsPromotion) {
  ASSERT_TRUE(
      pipeline_->Endorse(0, "newidea", curator_, curator_keys_).ok());
  trust_.Revoke("curator");
  EXPECT_TRUE(pipeline_->PromoteTransformation(0, "newidea")
                  .IsPermissionDenied());
}

// ------------------------- Cross-server provenance --------------------

TEST_F(FederationTest, CrossServerLineage) {
  InProcessCatalogClient home(&personal_);
  ProvenanceTracker prov(home, &registry_);
  Result<LineageNode> lineage = prov.Lineage("myplot");
  ASSERT_TRUE(lineage.ok()) << lineage.status();
  // myplot <- mine <- group selected <- grp <- collab calibrated
  //        <- official <- survey.
  EXPECT_EQ(lineage->dataset, "vdp://personal.org/myplot");
  EXPECT_EQ(lineage->derivation, "vdp://personal.org/mine");
  ASSERT_EQ(lineage->inputs.size(), 1u);
  EXPECT_EQ(lineage->inputs[0].dataset, "vdp://group.org/selected");
  EXPECT_EQ(lineage->inputs[0].derivation, "vdp://group.org/grp");
  ASSERT_EQ(lineage->inputs[0].inputs.size(), 1u);
  const LineageNode& calibrated = lineage->inputs[0].inputs[0];
  EXPECT_EQ(calibrated.dataset, "vdp://collab.org/calibrated");
  ASSERT_EQ(calibrated.inputs.size(), 1u);
  EXPECT_EQ(calibrated.inputs[0].dataset, "vdp://collab.org/survey");
  EXPECT_TRUE(calibrated.inputs[0].derivation.empty());  // raw
  EXPECT_EQ(LineageDepth(*lineage), 3);
  // Two hops: personal -> group, group -> collab.
  EXPECT_EQ(prov.last_hop_count(), 2u);
}

TEST_F(FederationTest, CrossServerLineageDepthLimit) {
  InProcessCatalogClient home(&personal_);
  ProvenanceTracker prov(home, &registry_);
  Result<LineageNode> lineage = prov.Lineage("myplot", 1);
  ASSERT_TRUE(lineage.ok());
  ASSERT_EQ(lineage->inputs.size(), 1u);
  EXPECT_TRUE(lineage->inputs[0].inputs.empty());  // truncated
}

TEST_F(FederationTest, CrossServerLineageUnknownDataset) {
  InProcessCatalogClient home(&personal_);
  ProvenanceTracker prov(home, &registry_);
  EXPECT_TRUE(prov.Lineage("vdp://collab.org/ghost").status().IsNotFound());
}

// ------------------------- Delta refresh -----------------------------

TEST_F(FederationTest, DeltaRefreshTracksMutations) {
  FederatedIndex index("idx");
  ASSERT_TRUE(index.AddSource(&collab_).ok());
  ASSERT_TRUE(index.AddSource(&group_).ok());
  ASSERT_TRUE(index.Refresh().ok());
  size_t baseline = index.size();
  uint64_t applied_before = index.refresh_stats().entries_applied;

  // One new dataset, one annotation, one removal across two sources.
  ASSERT_TRUE(collab_.ImportVdl("DS extra : Dataset size=\"5\";").ok());
  ASSERT_TRUE(
      group_.Annotate("dataset", "selected", "science", "astro").ok());
  ASSERT_TRUE(collab_.RemoveDerivation("official").ok());

  ASSERT_TRUE(index.Refresh().ok());
  EXPECT_EQ(index.size(), baseline);  // +dataset, -derivation
  EXPECT_EQ(index.LookupName("dataset", "extra").size(), 1u);
  EXPECT_TRUE(index.LookupName("derivation", "official").empty());
  std::vector<IndexEntry> selected = index.LookupName("dataset", "selected");
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_TRUE(selected[0].annotations.Has("science"));
  // The second refresh applied a handful of deltas, not a rescan.
  EXPECT_GT(index.refresh_stats().entries_applied, applied_before);
  EXPECT_LT(index.refresh_stats().entries_applied - applied_before,
            static_cast<uint64_t>(baseline));
}

TEST_F(FederationTest, DeltaRefreshMatchesFullRebuild) {
  FederatedIndex delta("delta");
  FederatedIndex full("full");
  ASSERT_TRUE(delta.AddSource(&collab_).ok());
  ASSERT_TRUE(full.AddSource(&collab_).ok());
  ASSERT_TRUE(delta.Refresh().ok());
  ASSERT_TRUE(full.RebuildAll().ok());

  Replica r;
  r.dataset = "calibrated";
  r.site = "east";
  Result<std::string> id = collab_.AddReplica(r);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(collab_.Annotate("dataset", "survey", "epoch", 3).ok());

  ASSERT_TRUE(delta.Refresh().ok());
  ASSERT_TRUE(full.RebuildAll().ok());
  EXPECT_EQ(delta.size(), full.size());
  EXPECT_EQ(delta.last_refresh_version_sum(), full.last_refresh_version_sum());
  DatasetQuery materialized;
  materialized.require_materialized = true;
  std::vector<IndexEntry> via_delta = delta.FindDatasets(materialized);
  std::vector<IndexEntry> via_full = full.FindDatasets(materialized);
  ASSERT_EQ(via_delta.size(), 1u);
  ASSERT_EQ(via_full.size(), via_delta.size());
  EXPECT_EQ(via_delta[0].name, "calibrated");

  // Replica invalidation flips the materialized bit through the delta.
  ASSERT_TRUE(collab_.InvalidateReplica(*id).ok());
  ASSERT_TRUE(delta.Refresh().ok());
  EXPECT_TRUE(delta.FindDatasets(materialized).empty());
}

TEST_F(FederationTest, DeltaRefreshFallsBackWhenWindowExceeded) {
  collab_.set_changelog_capacity(4);
  FederatedIndex index("idx");
  ASSERT_TRUE(index.AddSource(&collab_).ok());
  ASSERT_TRUE(index.Refresh().ok());
  uint64_t rebuilds_before = index.refresh_stats().full_rebuilds;

  // More mutations than the window holds forces the full-rescan path.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        collab_.Annotate("dataset", "survey", "k" + std::to_string(i), i)
            .ok());
  }
  ASSERT_TRUE(index.Refresh().ok());
  EXPECT_EQ(index.refresh_stats().full_rebuilds, rebuilds_before + 1);
  std::vector<IndexEntry> survey = index.LookupName("dataset", "survey");
  ASSERT_EQ(survey.size(), 1u);
  EXPECT_TRUE(survey[0].annotations.Has("k9"));
  EXPECT_FALSE(index.IsStale());

  // Within-window changes go back to the delta path.
  uint64_t deltas_before = index.refresh_stats().delta_refreshes;
  ASSERT_TRUE(collab_.Annotate("dataset", "survey", "fresh", true).ok());
  ASSERT_TRUE(index.Refresh().ok());
  EXPECT_EQ(index.refresh_stats().delta_refreshes, deltas_before + 1);
}

TEST_F(FederationTest, RefreshSkipsUnchangedSources) {
  FederatedIndex index("idx");
  ASSERT_TRUE(index.AddSource(&collab_).ok());
  ASSERT_TRUE(index.AddSource(&group_).ok());
  ASSERT_TRUE(index.Refresh().ok());
  IndexRefreshStats before = index.refresh_stats();
  // Only group changes; collab must be neither rescanned nor delta'd.
  ASSERT_TRUE(group_.Annotate("dataset", "selected", "touched", true).ok());
  ASSERT_TRUE(index.Refresh().ok());
  EXPECT_EQ(index.refresh_stats().full_rebuilds, before.full_rebuilds);
  EXPECT_EQ(index.refresh_stats().delta_refreshes,
            before.delta_refreshes + 1);
  EXPECT_EQ(index.refresh_stats().entries_applied,
            before.entries_applied + 1);
}

}  // namespace
}  // namespace vdg
