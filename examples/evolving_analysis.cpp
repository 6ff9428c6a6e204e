// The Section-8 "future directions", running: an analysis code evolves
// from v1 to v2, a compatibility assertion lets v2 requests reuse v1
// results (transformation versioning + equivalence); a shared event
// store is updated in place with a transaction log and rolled back
// (update-with-undo); and several analysis windows are carved as
// overlay datasets out of one physical file, garbage-collected when
// released (virtual datasets).
#include <cstdio>

#include "catalog/catalog.h"
#include "grid/overlay.h"
#include "grid/storage.h"
#include "versioning/versions.h"

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

  VirtualDataCatalog catalog("evolve.org");
  CHECK_OK(catalog.Open());
  CHECK_OK(catalog.ImportVdl(R"(
TR select-v1( output cuts, input events, none cut="pt>20" ) {
  argument c = "-c "${none:cut};
  argument stdin = ${input:events};
  argument stdout = ${output:cuts};
  exec = "/opt/ana/select-v1";
}
TR select-v2( output cuts, input events, none cut="pt>20" ) {
  argument c = "-c "${none:cut};
  argument stdin = ${input:events};
  argument stdout = ${output:cuts};
  exec = "/opt/ana/select-v2";
}
DS events.2026 : Dataset size="1000000";
DV first-pass->select-v1( cuts=@{output:"cuts.muon"},
                          events=@{input:"events.2026"}, cut="mu>2" );
)"));

  // v1 ran months ago and its output is materialized.
  Replica done;
  done.dataset = "cuts.muon";
  done.site = "uchicago";
  done.size_bytes = 4096;
  CHECK_OK(catalog.AddReplica(done).status());

  // --- Versioning: v2 is asserted result-equivalent to v1. ---
  InProcessCatalogClient client(&catalog);
  TransformationVersionGraph versions;
  CHECK_OK(versions.RegisterVersion("select", "select-v1"));
  CHECK_OK(versions.RegisterVersion("select", "select-v2"));
  std::printf("latest version of 'select': %s\n",
              versions.LatestOf("select")->c_str());

  Derivation rerun("second-pass", "select-v2");
  CHECK_OK(rerun.AddArg(
      ActualArg::DatasetRef("cuts", "cuts.muon", ArgDirection::kOut)));
  CHECK_OK(rerun.AddArg(
      ActualArg::DatasetRef("events", "events.2026", ArgDirection::kIn)));
  CHECK_OK(rerun.AddArg(ActualArg::String("cut", "mu>2")));

  std::printf("before assertion: computed already? %s\n",
              HasBeenComputedModuloVersion(client, versions, rerun)
                  ? "yes"
                  : "no - would recompute");
  CHECK_OK(versions.AssertEquivalent("select-v1", "select-v2"));
  Result<std::string> hit =
      FindEquivalentDerivationModuloVersion(client, versions, rerun);
  CHECK_OK(hit.status());
  std::printf("after assertion:  computed already? yes - reuse %s\n",
              hit->c_str());

  // --- Update-with-undo: the event store grows in place. ---
  DatasetUpdateLog updates;
  CHECK_OK(catalog.ImportVdl(R"(
TR append-run( inout store, input delta ) {
  argument stdin = ${input:delta};
  argument stdout = ${inout:store};
  exec = "/opt/ana/append-run";
}
DS delta.run9 : Dataset size="50000";
DV ingest-run9->append-run( store=@{inout:"events.2026"},
                            delta=@{input:"delta.run9"} );
)"));
  Result<UpdateRecord> update = updates.RecordUpdate(
      &client, "events.2026", "ingest-run9", 1050000, /*now=*/100.0,
      "appended run 9");
  CHECK_OK(update.status());
  std::printf("\nevents.2026 updated: %lld -> %lld bytes (update #%llu)\n",
              static_cast<long long>(update->size_before),
              static_cast<long long>(update->size_after),
              static_cast<unsigned long long>(update->sequence));
  std::printf("re-createable from recipe alone? %s\n",
              updates.IsPristine("events.2026")
                  ? "yes"
                  : "no - replay the update log too");
  Result<UpdateRecord> undone =
      updates.UndoLastUpdate(&client, "events.2026");
  CHECK_OK(undone.status());
  std::printf("undo: back to %lld bytes, pristine again: %s\n",
              static_cast<long long>(
                  catalog.GetDataset("events.2026")->size_bytes),
              updates.IsPristine("events.2026") ? "yes" : "no");

  // --- Virtual datasets: three windows over one physical file. ---
  StorageElement se("uchicago", "se0", 10 << 20);
  OverlayManager overlays(&se);
  CHECK_OK(overlays.StoreBase("events.2026.bytes", 1 << 20, 0));
  CHECK_OK(overlays.CreateOverlay("window.early", "events.2026.bytes", 0,
                                  400 << 10));
  CHECK_OK(overlays.CreateOverlay("window.late", "events.2026.bytes",
                                  600 << 10, 424 << 10));
  CHECK_OK(overlays.CreateOverlay("window.all", "events.2026.bytes", 0,
                                  1 << 20));
  std::printf("\n3 overlay windows over one 1 MiB file: storage used "
              "%lld bytes, %lld bytes saved vs copies\n",
              static_cast<long long>(se.used_bytes()),
              static_cast<long long>(overlays.BytesSaved()));
  std::printf("bytes [500k,700k) corrupted -> affected windows:");
  for (const OverlayMapping& m : overlays.OverlaysIntersecting(
           "events.2026.bytes", 500 << 10, 200 << 10)) {
    std::printf(" %s", m.dataset.c_str());
  }
  std::printf("\n");
  CHECK_OK(overlays.ReleaseOverlay("window.early").status());
  CHECK_OK(overlays.ReleaseOverlay("window.late").status());
  Result<int64_t> reclaimed = overlays.ReleaseOverlay("window.all");
  CHECK_OK(reclaimed.status());
  std::printf("last window released: %lld bytes garbage-collected, "
              "storage now %lld\n",
              static_cast<long long>(*reclaimed),
              static_cast<long long>(se.used_bytes()));
  return 0;
}
