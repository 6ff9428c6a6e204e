// Federation and trust (Sections 4.1-4.2, Figures 2-4): personal,
// group, and collaboration catalogs linked by vdp:// hyperlinks;
// multi-level federated indexes; cross-server provenance chains; and
// signed, quality-asserted entries validated through certificate
// chains rooted at the collaboration authority.
#include <cstdio>

#include "federation/annotation_overlay.h"
#include "federation/index.h"
#include "federation/promotion.h"
#include "federation/registry.h"
#include "provenance/provenance.h"
#include "security/signed_entry.h"
#include "vdl/xml.h"

#define CHECK_OK(expr)                                           \
  do {                                                           \
    ::vdg::Status vdg_check_status = (expr);                     \
    if (!vdg_check_status.ok()) {                                \
      std::fprintf(stderr, "FATAL %s\n",                         \
                   vdg_check_status.ToString().c_str());         \
      return 1;                                                  \
    }                                                            \
  } while (false)

int main() {
  using namespace vdg;  // NOLINT: example brevity

  // --- Three virtual data servers (Figure 3's tiers). ---
  VirtualDataCatalog collab("physics.collab.org");
  VirtualDataCatalog group("physics.wisconsin.edu");
  VirtualDataCatalog personal("alice.wisconsin.edu");
  CHECK_OK(collab.Open());
  CHECK_OK(group.Open());
  CHECK_OK(personal.Open());

  CatalogRegistry registry;
  CHECK_OK(registry.Register(&collab));
  CHECK_OK(registry.Register(&group));
  CHECK_OK(registry.Register(&personal));

  // Collaboration: curated raw data + the official calibration.
  CHECK_OK(collab.ImportVdl(R"(
TR calibrate( output out, input in ) {
  argument stdin = ${input:in};
  argument stdout = ${output:out};
  exec = "/official/bin/calibrate";
}
DS detector.raw : Dataset size="100000000";
DV official-calib->calibrate( out=@{output:"detector.calibrated"},
                              in=@{input:"detector.raw"} );
)"));

  // Group: the Figure 2 scenario — a compound transformation whose
  // stages live on *another* server.
  CHECK_OK(collab.ImportVdl(R"(
TR sim( output out, input in ) {
  argument stdout = ${output:out};
  argument stdin = ${input:in};
  exec = "/official/bin/sim";
}
TR cmp( output out, input in ) {
  argument stdout = ${output:out};
  argument stdin = ${input:in};
  exec = "/official/bin/cmp";
}
)"));
  CHECK_OK(group.ImportVdl(R"(
TR srch( output hits, input data, none class="any" ) {
  argument c = "-c "${none:class};
  argument stdin = ${input:data};
  argument stdout = ${output:hits};
  exec = "/group/bin/srch";
}
DV srch-muon->srch( hits=@{output:"muon.hits"},
                    data=@{input:"vdp://physics.collab.org/detector.calibrated"},
                    class="muon" );
)"));
  // Import the collaboration's sim/cmp definitions into the group
  // catalog — knowledge propagating across the web of servers.
  CatalogClient* group_server = *registry.Find(group.name());
  CHECK_OK(registry.ImportTransformation(
      group_server, "vdp://physics.collab.org/sim", group_server));
  CHECK_OK(registry.ImportTransformation(
      group_server, "vdp://physics.collab.org/cmp", group_server));
  std::printf("group catalog now holds %zu transformations "
              "(2 imported, origin-tagged)\n",
              group.Stats().transformations);

  // Personal: Alice's analysis over the group's hits.
  CHECK_OK(personal.ImportVdl(R"(
TR plot( output fig, input hits ) {
  argument stdin = ${input:hits};
  argument stdout = ${output:fig};
  exec = "/home/alice/bin/plot";
}
DV my-plot->plot( fig=@{output:"muon-rate.fig"},
                  hits=@{input:"vdp://physics.wisconsin.edu/muon.hits"} );
)"));

  // --- Cross-server provenance (Figure 3). ---
  InProcessCatalogClient personal_client(&personal);
  ProvenanceTracker prov(personal_client, &registry);
  Result<LineageNode> lineage = prov.Lineage("muon-rate.fig");
  CHECK_OK(lineage.status());
  std::printf("\ncross-server lineage of muon-rate.fig (%lu hops):\n%s",
              static_cast<unsigned long>(prov.last_hop_count()),
              RenderLineage(*lineage).c_str());

  // --- Multi-level indexes (Figure 4). ---
  FederatedIndex personal_index("alice-personal");
  CHECK_OK(personal_index.AddSource(&personal));
  CHECK_OK(personal_index.Refresh());
  FederatedIndex collab_index("collaboration-wide");
  CHECK_OK(collab_index.AddSource(&collab));
  CHECK_OK(collab_index.AddSource(&group));
  CHECK_OK(collab_index.AddSource(&personal));
  CHECK_OK(collab_index.Refresh());
  std::printf("\nindexes: personal=%zu entries, collaboration=%zu "
              "entries\n",
              personal_index.size(), collab_index.size());
  DatasetQuery everything;
  std::printf("discovery 'muon.hits': personal index %zu hit(s), "
              "collaboration index %zu hit(s)\n",
              personal_index.LookupName("dataset", "muon.hits").size(),
              collab_index.LookupName("dataset", "muon.hits").size());
  (void)everything;

  // --- Signed quality assertions (Section 4.2). ---
  KeyPair root_keys = KeyPair::FromSeed("collab-root-secret");
  KeyPair curator_keys = KeyPair::FromSeed("curator-secret");
  Identity root{"collab-root", root_keys.public_key};
  Identity curator{"data-curator", curator_keys.public_key};
  TrustStore trust;
  trust.AddRoot(root);
  Certificate curator_cert = IssueCertificate(curator, "collab-root",
                                              root_keys);

  Result<Dataset> calibrated = collab.GetDataset("detector.calibrated");
  CHECK_OK(calibrated.status());
  std::string canonical = DatasetToXml(*calibrated);
  SignatureRegistry signatures;
  signatures.Add(SignEntry("dataset", "detector.calibrated", canonical,
                           "approved", curator, curator_keys));
  std::map<std::string, std::vector<Certificate>> chains{
      {"data-curator", {curator_cert}}};
  bool approved = signatures.HasVerifiedAssertion(
      "dataset", "detector.calibrated", "approved", canonical, chains,
      trust);
  std::printf("\n'detector.calibrated' approved by a trusted curator? %s\n",
              approved ? "yes" : "no");

  // Tampering is caught: change the object, the assertion dies.
  CHECK_OK(collab.Annotate("dataset", "detector.calibrated", "edited",
                           AttributeValue(true)));
  Result<Dataset> edited = collab.GetDataset("detector.calibrated");
  CHECK_OK(edited.status());
  bool still_approved = signatures.HasVerifiedAssertion(
      "dataset", "detector.calibrated", "approved", DatasetToXml(*edited),
      chains, trust);
  std::printf("after an edit, assertion still verifies? %s\n",
              still_approved ? "yes (BUG)" : "no - re-approval required");

  // --- Knowledge propagation: Alice's code climbs the tiers. ---
  CHECK_OK(personal.ImportVdl(R"(
TR clever-cut( output out, input in ) {
  argument stdin = ${input:in};
  argument stdout = ${output:out};
  exec = "/home/alice/bin/clever-cut";
}
)"));
  PromotionPipeline pipeline({&personal, &group, &collab}, &trust,
                             &signatures);
  pipeline.RegisterSignerChain("data-curator", {curator_cert});
  Status blocked = pipeline.PromoteTransformation(0, "clever-cut");
  std::printf("\npromotion without endorsement: %s\n",
              blocked.ToString().c_str());
  CHECK_OK(pipeline.PromoteToTop(0, "clever-cut", curator, curator_keys));
  Result<Transformation> promoted = collab.GetTransformation("clever-cut");
  CHECK_OK(promoted.status());
  std::printf("after endorsement, 'clever-cut' reached %s (origin %s, "
              "approved by %s)\n",
              collab.name().c_str(),
              promoted->annotations().GetString("vdg.origin")->c_str(),
              promoted->annotations().GetString("vdg.approved_by")->c_str());

  // --- Personal overlay: Alice's notes on other people's objects. ---
  AnnotationOverlay notes("alice");
  CHECK_OK(notes.Annotate("dataset",
                          "vdp://physics.collab.org/detector.calibrated",
                          "my-verdict", "systematics look off in run 7"));
  Result<AttributeSet> merged = notes.EffectiveAnnotations(
      registry, "dataset", "vdp://physics.collab.org/detector.calibrated");
  CHECK_OK(merged.status());
  std::printf("\nAlice's merged view of detector.calibrated: %s\n",
              merged->ToString().c_str());
  std::printf("the collaboration's record is untouched: %s\n",
              collab.GetDataset("detector.calibrated")
                  ->annotations.ToString()
                  .c_str());
  return 0;
}
