// Property-style torture test for catalog durability: apply a long
// random (but seeded) mutation sequence against a FileJournal-backed
// catalog, reopen it from the journal, and require the reopened
// catalog to be observationally identical — for every seed. This is
// the crash-recovery contract of the VDC persistence design.
#include <cstdio>
#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/rng.h"

namespace vdg {
namespace {

// Deterministic random mutation driver.
class MutationDriver {
 public:
  MutationDriver(VirtualDataCatalog* catalog, uint64_t seed)
      : catalog_(catalog), rng_(seed) {}

  void Run(int steps) {
    // Seed content so removals/annotations have targets.
    Must(catalog_->ImportVdl(
        "TR base( output out, input in ) {"
        "  argument stdin = ${input:in};"
        "  argument stdout = ${output:out};"
        "  exec = \"/bin/base\"; }"
        "DS seed0 : Dataset size=\"1\";"));
    datasets_.push_back("seed0");
    for (int i = 0; i < steps; ++i) Step(i);
  }

 private:
  static void Must(const Status& status) { ASSERT_TRUE(status.ok()) << status; }

  void Step(int i) {
    switch (rng_.UniformInt(0, 9)) {
      case 0: {  // new dataset
        Dataset ds;
        ds.name = "ds" + std::to_string(i);
        ds.size_bytes = rng_.UniformInt(0, 1 << 20);
        if (catalog_->DefineDataset(ds).ok()) datasets_.push_back(ds.name);
        break;
      }
      case 1: {  // new derivation chained off a random dataset
        Derivation dv("dv" + std::to_string(i), "base");
        std::string out = "out" + std::to_string(i);
        Must(dv.AddArg(ActualArg::DatasetRef("out", out,
                                             ArgDirection::kOut)));
        Must(dv.AddArg(ActualArg::DatasetRef(
            "in", datasets_[rng_.Index(datasets_.size())],
            ArgDirection::kIn)));
        if (catalog_->DefineDerivation(std::move(dv)).ok()) {
          derivations_.push_back("dv" + std::to_string(i));
          datasets_.push_back(out);
        }
        break;
      }
      case 2: {  // replica
        Replica r;
        r.dataset = datasets_[rng_.Index(datasets_.size())];
        r.site = rng_.Chance(0.5) ? "east" : "west";
        r.size_bytes = rng_.UniformInt(1, 1000);
        Result<std::string> id = catalog_->AddReplica(r);
        if (id.ok()) replicas_.push_back(*id);
        break;
      }
      case 3: {  // invocation
        if (derivations_.empty()) break;
        Invocation iv;
        iv.derivation = derivations_[rng_.Index(derivations_.size())];
        iv.context.site = "east";
        iv.context.host = "n" + std::to_string(i % 4);
        iv.start_time = i;
        iv.duration_s = rng_.Uniform(1, 100);
        iv.succeeded = rng_.Chance(0.9);
        Result<std::string> id = catalog_->RecordInvocation(std::move(iv));
        (void)id;
        break;
      }
      case 4: {  // annotate something
        const char* kinds[] = {"dataset", "derivation", "transformation"};
        const char* kind = kinds[rng_.Index(3)];
        std::string name = kind == std::string("transformation")
                               ? "base"
                               : kind == std::string("dataset")
                                     ? datasets_[rng_.Index(datasets_.size())]
                                     : (derivations_.empty()
                                            ? std::string("none")
                                            : derivations_[rng_.Index(
                                                  derivations_.size())]);
        Status s = catalog_->Annotate(
            kind, name, "k" + std::to_string(rng_.UniformInt(0, 3)),
            AttributeValue(rng_.UniformInt(0, 100)));
        (void)s;
        break;
      }
      case 5: {  // invalidate a replica
        if (replicas_.empty()) break;
        Status s = catalog_->InvalidateReplica(
            replicas_[rng_.Index(replicas_.size())]);
        (void)s;
        break;
      }
      case 6: {  // remove a replica
        if (replicas_.empty() || !rng_.Chance(0.3)) break;
        size_t pick = rng_.Index(replicas_.size());
        Status s = catalog_->RemoveReplica(replicas_[pick]);
        if (s.ok()) {
          replicas_.erase(replicas_.begin() +
                          static_cast<ptrdiff_t>(pick));
        }
        break;
      }
      case 7: {  // remove a derivation (occasionally)
        if (derivations_.empty() || !rng_.Chance(0.2)) break;
        size_t pick = rng_.Index(derivations_.size());
        Status s = catalog_->RemoveDerivation(derivations_[pick]);
        if (s.ok()) {
          derivations_.erase(derivations_.begin() +
                             static_cast<ptrdiff_t>(pick));
        }
        break;
      }
      case 8: {  // size update
        Status s = catalog_->SetDatasetSize(
            datasets_[rng_.Index(datasets_.size())],
            rng_.UniformInt(0, 1 << 20));
        (void)s;
        break;
      }
      case 9: {  // type definition
        Status s = catalog_->DefineType(
            TypeDimension::kContent, "ty" + std::to_string(i),
            TypeDimensionBaseName(TypeDimension::kContent));
        (void)s;
        break;
      }
    }
  }

  VirtualDataCatalog* catalog_;
  Rng rng_;
  std::vector<std::string> datasets_;
  std::vector<std::string> derivations_;
  std::vector<std::string> replicas_;
};

// Full observational fingerprint of a catalog's contents.
std::string Fingerprint(const VirtualDataCatalog& catalog) {
  std::string out;
  for (const std::string& name : catalog.AllDatasetNames().ToStrings()) {
    Dataset ds = *catalog.GetDataset(name);
    out += "DS " + name + " " + ds.type.ToString() + " " +
           std::to_string(ds.size_bytes) + " prod=" + ds.producer + " [" +
           ds.annotations.ToString() + "] mat=" +
           (catalog.IsMaterialized(name) ? "1" : "0") + "\n";
  }
  for (const std::string& name : catalog.AllTransformationNames().ToStrings()) {
    Transformation tr = *catalog.GetTransformation(name);
    out += "TR " + tr.TypeSignature() + " [" +
           tr.annotations().ToString() + "]\n";
  }
  for (const std::string& name : catalog.AllDerivationNames().ToStrings()) {
    Derivation dv = *catalog.GetDerivation(name);
    out += "DV " + name + " " + dv.SignatureText() + " [" +
           dv.annotations().ToString() + "] consumers=";
    for (const std::string& input : dv.InputDatasets()) {
      for (std::string_view consumer : catalog.ConsumersOf(input)) {
        out += std::string(consumer) + ",";
      }
    }
    out += "\n";
  }
  for (std::string_view id : catalog.AllReplicaIds()) {
    Replica r = *catalog.GetReplica(id);
    out += "RP " + std::string(id) + " " + r.dataset + "@" + r.site + " " +
           std::to_string(r.size_bytes) + (r.valid ? " valid" : " invalid") +
           "\n";
  }
  for (std::string_view id : catalog.AllInvocationIds()) {
    Invocation iv = *catalog.GetInvocation(id);
    out += "IV " + std::string(id) + " " + iv.derivation + "@" +
           iv.context.site + "/" + iv.context.host +
           " t=" + std::to_string(iv.start_time) +
           " d=" + std::to_string(iv.duration_s) +
           (iv.succeeded ? " ok" : " failed") + "\n";
  }
  return out;
}

class JournalTortureTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JournalTortureTest, ReplayReproducesEveryObservable) {
  std::string path = ::testing::TempDir() + "/vdg_torture_" +
                     std::to_string(GetParam()) + ".log";
  std::remove(path.c_str());
  std::string before;
  {
    VirtualDataCatalog catalog("torture.org",
                               std::make_unique<FileJournal>(path));
    ASSERT_TRUE(catalog.Open().ok());
    MutationDriver driver(&catalog, GetParam());
    driver.Run(300);
    before = Fingerprint(catalog);
    ASSERT_TRUE(catalog.SyncJournal().ok());
  }
  VirtualDataCatalog reopened("torture.org",
                              std::make_unique<FileJournal>(path));
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(Fingerprint(reopened), before);

  // And the recovered catalog remains fully writable (counters did
  // not collide with replayed ids).
  Replica r;
  r.dataset = "seed0";
  r.site = "east";
  EXPECT_TRUE(reopened.AddReplica(r).ok());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalTortureTest,
                         ::testing::Values(1, 7, 42, 99, 12345));

// Compaction property: after heavy churn, CompactJournal must (a)
// shrink the record count, (b) preserve every observable through a
// reopen, and (c) leave the reopened catalog writable.
class CompactionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompactionTest, CompactionPreservesObservables) {
  std::string path = ::testing::TempDir() + "/vdg_compact_" +
                     std::to_string(GetParam()) + ".log";
  std::remove(path.c_str());
  std::string before;
  size_t raw_records = 0;
  size_t compact_records = 0;
  {
    VirtualDataCatalog catalog("compact.org",
                               std::make_unique<FileJournal>(path));
    ASSERT_TRUE(catalog.Open().ok());
    MutationDriver driver(&catalog, GetParam());
    driver.Run(300);
    before = Fingerprint(catalog);
    ASSERT_TRUE(catalog.SyncJournal().ok());
    {
      FileJournal reader(path);
      raw_records = reader.ReadAll()->size();
    }
    ASSERT_TRUE(catalog.CompactJournal().ok());
    compact_records = catalog.CurrentStateRecords().size();
    // Churny histories compact substantially.
    EXPECT_LT(compact_records, raw_records) << "no churn to discard?";
  }
  {
    FileJournal reader(path);
    EXPECT_EQ(reader.ReadAll()->size(), compact_records);
  }
  VirtualDataCatalog reopened("compact.org",
                              std::make_unique<FileJournal>(path));
  Status opened = reopened.Open();
  ASSERT_TRUE(opened.ok()) << opened;
  EXPECT_EQ(Fingerprint(reopened), before);
  // Still writable after compaction + reopen.
  Replica r;
  r.dataset = "seed0";
  r.site = "west";
  EXPECT_TRUE(reopened.AddReplica(r).ok());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactionTest,
                         ::testing::Values(1, 42, 12345));

TEST(CompactionTest2, MemoryCatalogRejectsCompaction) {
  VirtualDataCatalog catalog("mem.org");  // NullJournal
  ASSERT_TRUE(catalog.Open().ok());
  EXPECT_EQ(catalog.CompactJournal().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CompactionTest2, ExportVdlReimports) {
  VirtualDataCatalog catalog("dump.org");
  ASSERT_TRUE(catalog.Open().ok());
  MutationDriver driver(&catalog, 3);
  driver.Run(120);
  std::string vdl = catalog.ExportVdl();
  VirtualDataCatalog imported("import.org");
  ASSERT_TRUE(imported.Open().ok());
  // The dump declares every dataset explicitly, so DV auto-definition
  // never fires; types must be carried over separately.
  for (int d = 0; d < kNumTypeDimensions; ++d) {
    auto dim = static_cast<TypeDimension>(d);
    const TypeRegistry snapshot = catalog.TypesSnapshot();
    const TypeHierarchy& h = snapshot.dimension(dim);
    std::vector<std::pair<int, std::string>> by_depth;
    for (std::string_view name : h.AllTypes()) {
      by_depth.emplace_back(*h.DepthOf(name), std::string(name));
    }
    std::sort(by_depth.begin(), by_depth.end());
    for (const auto& [depth, name] : by_depth) {
      (void)depth;
      ASSERT_TRUE(imported.DefineType(dim, name, *h.ParentOf(name)).ok());
    }
  }
  ASSERT_TRUE(imported.ImportVdl(vdl).ok()) << vdl;
  EXPECT_EQ(imported.Stats().datasets, catalog.Stats().datasets);
  EXPECT_EQ(imported.Stats().transformations,
            catalog.Stats().transformations);
  EXPECT_EQ(imported.Stats().derivations, catalog.Stats().derivations);
}

// Double-replay: reopening twice (replay of a replayed journal plus
// new writes) stays consistent.
TEST(JournalTortureTest2, ReopenWriteReopen) {
  std::string path = ::testing::TempDir() + "/vdg_torture_rw.log";
  std::remove(path.c_str());
  {
    VirtualDataCatalog catalog("t.org", std::make_unique<FileJournal>(path));
    ASSERT_TRUE(catalog.Open().ok());
    MutationDriver driver(&catalog, 5);
    driver.Run(100);
    ASSERT_TRUE(catalog.SyncJournal().ok());
  }
  std::string middle;
  {
    VirtualDataCatalog catalog("t.org", std::make_unique<FileJournal>(path));
    ASSERT_TRUE(catalog.Open().ok());
    ASSERT_TRUE(
        catalog.Annotate("transformation", "base", "touched", true).ok());
    middle = Fingerprint(catalog);
    ASSERT_TRUE(catalog.SyncJournal().ok());
  }
  VirtualDataCatalog final_catalog("t.org",
                                   std::make_unique<FileJournal>(path));
  ASSERT_TRUE(final_catalog.Open().ok());
  EXPECT_EQ(Fingerprint(final_catalog), middle);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vdg
