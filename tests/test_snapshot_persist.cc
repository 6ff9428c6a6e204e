// Flat-snapshot persistence tests: a catalog saved with
// SaveSnapshotFile and reopened through OpenFromSnapshot (the mmap
// cold-start path) must be observationally identical to one rebuilt by
// full journal replay — including when the journal has grown past the
// snapshot's anchor (tail replay). Every corruption mode — flipped
// header byte, flipped payload byte, truncation, a future format
// version, a compacted-away journal prefix, a missing file — must be
// rejected before any state is installed and fall back to full replay
// with a diagnostic, never an error or a crash.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/flatsnap.h"
#include "catalog/journal.h"
#include "catalog/objcodec.h"
#include "catalog/posting.h"
#include "common/hash.h"
#include "common/rng.h"

namespace vdg {
namespace {

std::string TempPath(const std::string& tag) {
  // Process-unique: ctest runs each test of this binary as its own
  // process, possibly in parallel — a bare counter would collide.
  static int counter = 0;
  return ::testing::TempDir() + "/vdg_snap_" + std::to_string(::getpid()) +
         "_" + tag + "_" + std::to_string(++counter);
}

void Populate(VirtualDataCatalog* catalog, int datasets) {
  ASSERT_TRUE(catalog
                  ->DefineType(TypeDimension::kContent, "evt",
                               TypeDimensionBaseName(TypeDimension::kContent))
                  .ok());
  ASSERT_TRUE(
      catalog->DefineType(TypeDimension::kContent, "evt.raw", "evt").ok());
  ASSERT_TRUE(catalog
                  ->ImportVdl(
                      "TR base( output out, input in ) {"
                      "  argument stdin = ${input:in};"
                      "  argument stdout = ${output:out};"
                      "  exec = \"/bin/base\"; }"
                      "DS seed0 : Dataset size=\"1\";")
                  .ok());
  // A compound transformation exercising every Transformation field the
  // object codec carries: default args (string and dataset), calls with
  // directed and undirected refs, env, profile and annotations.
  Transformation pipeline("pipeline", Transformation::Kind::kCompound);
  ASSERT_TRUE(pipeline.AddArg({"in", ArgDirection::kIn, {}, {}, {}}).ok());
  ASSERT_TRUE(pipeline.AddArg({"out", ArgDirection::kOut, {}, {}, {}}).ok());
  ASSERT_TRUE(
      pipeline.AddArg({"tmp", ArgDirection::kInOut, {}, {}, "staging"}).ok());
  ASSERT_TRUE(
      pipeline.AddArg({"level", ArgDirection::kNone, {}, "3", {}}).ok());
  pipeline.AddCall({"base",
                    {{"out", TemplatePiece::Ref("tmp", ArgDirection::kOut)},
                     {"in", TemplatePiece::Ref("in")}}});
  pipeline.AddCall({"base",
                    {{"out", TemplatePiece::Ref("out", ArgDirection::kOut)},
                     {"in", TemplatePiece::Ref("tmp", ArgDirection::kIn)}}});
  pipeline.SetEnv("LEVEL", {TemplatePiece::Literal("-l "),
                            TemplatePiece::Ref("level", ArgDirection::kNone)});
  pipeline.SetProfile("hints.queue", {TemplatePiece::Literal("short")});
  pipeline.annotations().Set("stage", int64_t{2});
  ASSERT_TRUE(catalog->DefineTransformation(pipeline).ok());

  std::string first_replica;
  std::string second_replica;
  for (int i = 0; i < datasets; ++i) {
    Dataset ds;
    ds.name = "ds" + std::to_string(i);
    ds.size_bytes = 100 + i;
    ds.type.content = (i % 2 == 0) ? "evt" : "evt.raw";
    ds.annotations.Set("tier", (i % 3 == 0) ? "gold" : "silver");
    ds.annotations.Set("events", static_cast<int64_t>(i * 10));
    ds.annotations.Set("quality", 0.1 * i + 1e-9);
    ds.annotations.Set("calibrated", i % 5 == 0);
    ASSERT_TRUE(catalog->DefineDataset(ds).ok());
    if (i % 2 == 0) {
      Replica r;
      r.dataset = ds.name;
      r.site = (i % 4 == 0) ? "east" : "west";
      r.size_bytes = 10 + i;
      r.created_at = 1.7e9 + i / 3.0;
      r.annotations.Set("checksum", "adler32:" + std::to_string(i));
      r.annotations.Set("tape", i % 4 == 0);
      Result<std::string> id = catalog->AddReplica(r);
      ASSERT_TRUE(id.ok());
      if (first_replica.empty()) {
        first_replica = *id;
      } else if (second_replica.empty()) {
        second_replica = *id;
      }
    }
    if (i % 3 == 0) {
      Derivation dv("dv" + std::to_string(i), "base");
      ASSERT_TRUE(
          dv.AddArg(ActualArg::DatasetRef("out", "out" + std::to_string(i),
                                          ArgDirection::kOut))
              .ok());
      ASSERT_TRUE(
          dv.AddArg(ActualArg::DatasetRef("in", ds.name, ArgDirection::kIn))
              .ok());
      dv.SetEnvOverride("OMP_NUM_THREADS", std::to_string(1 + i % 4));
      dv.annotations().Set("campaign", i % 2 == 0 ? "dr1" : "dr2");
      ASSERT_TRUE(catalog->DefineDerivation(std::move(dv)).ok());
    }
  }
  ASSERT_TRUE(catalog->Annotate("dataset", "ds1", "owner", "alice").ok());
  // A failed run: negative exit code, replica edges both ways.
  ASSERT_FALSE(second_replica.empty());
  Invocation iv;
  iv.derivation = "dv0";
  iv.context = {"east", "node7", "linux", "x86_64"};
  iv.start_time = 1.7e9 + 0.125;
  iv.duration_s = 42.5;
  iv.cpu_seconds = 40.25;
  iv.peak_memory_bytes = int64_t{3} << 32;
  iv.exit_code = -9;
  iv.succeeded = false;
  iv.consumed_replicas = {first_replica};
  iv.produced_replicas = {second_replica};
  iv.annotations.Set("retried", true);
  iv.annotations.Set("efficiency", 0.95);
  ASSERT_TRUE(catalog->RecordInvocation(iv).ok());
  // One invalidated replica so the valid-replica counts serialize a
  // non-trivial materialized set.
  ASSERT_FALSE(first_replica.empty());
  ASSERT_TRUE(catalog->InvalidateReplica(first_replica).ok());
}

// Observational equality over *state*: replay-safe state records and
// indexed query answers. Version counters and changelog streams are
// deliberately excluded — journal replay legitimately renders history
// differently from the live catalog (a live ImportVdl batch shares one
// version across its entries; a replica-invalidate re-put record
// upserts without a bump), so only loaded-vs-SOURCE comparisons may
// demand identical history (ExpectSameHistory below).
void ExpectSameState(VirtualDataCatalog& lhs, VirtualDataCatalog& rhs) {
  EXPECT_EQ(lhs.CurrentStateRecords(), rhs.CurrentStateRecords());

  DatasetQuery by_attr;
  by_attr.predicates = {{"tier", PredicateOp::kEq, "gold"}};
  EXPECT_EQ(lhs.FindDatasets(by_attr), rhs.FindDatasets(by_attr));
  DatasetQuery conj;
  conj.predicates = {{"tier", PredicateOp::kEq, "silver"},
                     {"events", PredicateOp::kGe, int64_t{100}}};
  EXPECT_EQ(lhs.FindDatasets(conj), rhs.FindDatasets(conj));
  DatasetQuery typed;
  typed.type = DatasetType{};
  typed.type->content = "evt";
  EXPECT_EQ(lhs.FindDatasets(typed), rhs.FindDatasets(typed));
  DatasetQuery materialized;
  materialized.require_materialized = true;
  EXPECT_EQ(lhs.FindDatasets(materialized), rhs.FindDatasets(materialized));
  DerivationQuery dq;
  dq.transformation = "base";
  EXPECT_EQ(lhs.FindDerivations(dq), rhs.FindDerivations(dq));
  EXPECT_EQ(lhs.AllDatasetNames(), rhs.AllDatasetNames());
  EXPECT_EQ(lhs.AllDerivationNames(), rhs.AllDerivationNames());
}

// Exact history equality: the flat snapshot serializes the live
// changelog verbatim, so a snapshot-loaded catalog must agree with its
// SOURCE on version counter, window floor, and every windowed change.
void ExpectSameHistory(VirtualDataCatalog& lhs, VirtualDataCatalog& rhs) {
  EXPECT_EQ(lhs.version(), rhs.version());
  EXPECT_EQ(lhs.changelog_floor(), rhs.changelog_floor());
  Result<std::vector<CatalogChange>> lc =
      lhs.ChangesSince(lhs.changelog_floor());
  Result<std::vector<CatalogChange>> rc =
      rhs.ChangesSince(rhs.changelog_floor());
  ASSERT_EQ(lc.ok(), rc.ok());
  if (!lc.ok()) return;
  ASSERT_EQ(lc->size(), rc->size());
  for (size_t i = 0; i < lc->size(); ++i) {
    EXPECT_EQ((*lc)[i].version, (*rc)[i].version) << i;
    EXPECT_EQ((*lc)[i].op, (*rc)[i].op) << i;
    EXPECT_EQ((*lc)[i].kind, (*rc)[i].kind) << i;
    EXPECT_EQ((*lc)[i].name, (*rc)[i].name) << i;
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Recomputes the header CRC after a test patches a header field, so
// the patched file fails on the *target* check, not the CRC.
void FixHeaderCrc(std::string* file) {
  std::string header = file->substr(0, flatsnap::kHeaderSize);
  header.replace(flatsnap::kOffHeaderCrc, 4, 4, '\0');
  const uint32_t crc = Crc32(header);
  char bytes[4] = {static_cast<char>(crc & 0xff),
                   static_cast<char>((crc >> 8) & 0xff),
                   static_cast<char>((crc >> 16) & 0xff),
                   static_cast<char>((crc >> 24) & 0xff)};
  file->replace(flatsnap::kOffHeaderCrc, 4, bytes, 4);
}

// Re-seals a file whose payload a test edited — payload size and CRC,
// then the header CRC — so the edit reaches the payload decoder instead
// of failing a checksum.
void Reseal(std::string* file) {
  const std::string_view payload =
      std::string_view(*file).substr(flatsnap::kHeaderSize);
  std::string fields;  // payload size and CRC are adjacent header fields
  objcodec::Writer w(&fields);
  w.PutU64(payload.size());
  w.PutU32(Crc32(payload));
  file->replace(flatsnap::kOffPayloadSize, fields.size(), fields);
  FixHeaderCrc(file);
}

// Payload offsets where each section of the format-2 layout ends
// (flatsnap.h), found by walking the payload with the shared codec.
std::vector<size_t> SectionEnds(std::string_view payload) {
  objcodec::Reader r(payload);
  std::vector<size_t> ends;
  auto skip_posting = [&r] {
    r.Skip((8 - r.pos() % 8) % 8);
    const std::string_view rest = r.rest();
    size_t consumed = 0;
    EXPECT_TRUE(PostingBlocks::Parse(
                    reinterpret_cast<const uint8_t*>(rest.data()),
                    rest.size(), &consumed, nullptr)
                    .ok());
    r.Skip(consumed);
  };
  auto section = [&](auto skip_entry) {
    const size_t n = r.ReadCount();
    for (size_t i = 0; i < n && r.ok(); ++i) skip_entry();
    ends.push_back(r.pos());
  };
  section([&r] { r.ReadStringView(); });  // symbols
  for (int d = 0; d < kNumTypeDimensions; ++d) {
    section([&r] {
      r.ReadStringView();  // type name
      r.ReadStringView();  // parent
    });
  }
  ends.erase(ends.end() - kNumTypeDimensions, ends.end() - 1);
  section([&r] { objcodec::ReadDataset(r); });
  section([&r] { objcodec::ReadTransformation(r); });
  section([&r] { objcodec::ReadDerivation(r); });
  section([&r] { objcodec::ReadReplica(r); });
  section([&r] { objcodec::ReadInvocation(r); });
  section([&] {
    r.ReadU32();  // attribute key id
    r.ReadStringView();  // tagged value
    skip_posting();
  });
  section([&] {
    r.ReadU64();  // packed type key
    skip_posting();
  });
  for (int edge_map = 0; edge_map < 4; ++edge_map) {
    section([&] {
      r.ReadU32();  // symbol id
      skip_posting();
    });
  }
  skip_posting();  // materialized set
  ends.push_back(r.pos());
  section([&r] { objcodec::ReadCatalogChange(r); });
  EXPECT_TRUE(r.Finish().ok()) << r.Finish().ToString();
  return ends;
}

class SnapshotPersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    journal_path_ = TempPath("journal");
    snap_path_ = TempPath("image");
    source_ = std::make_unique<VirtualDataCatalog>(
        "site-a", std::make_unique<FileJournal>(journal_path_));
    ASSERT_TRUE(source_->Open().ok());
    Populate(source_.get(), 40);
  }

  void TearDown() override {
    std::remove(journal_path_.c_str());
    std::remove(snap_path_.c_str());
  }

  // A catalog rebuilt by plain journal replay — the ground truth every
  // snapshot load (or fallback) is compared against.
  std::unique_ptr<VirtualDataCatalog> ReplayOpened() {
    auto catalog = std::make_unique<VirtualDataCatalog>(
        "site-a", std::make_unique<FileJournal>(journal_path_));
    EXPECT_TRUE(catalog->Open().ok());
    return catalog;
  }

  std::unique_ptr<VirtualDataCatalog> SnapshotOpened() {
    auto catalog = std::make_unique<VirtualDataCatalog>(
        "site-a", std::make_unique<FileJournal>(journal_path_));
    EXPECT_TRUE(catalog->OpenFromSnapshot(snap_path_).ok());
    return catalog;
  }

  // Asserts the snapshot was REJECTED (never installed), the fallback
  // replay ran, and the resulting state still matches ground truth.
  void ExpectCleanFallback(const std::string& reason_substr) {
    std::unique_ptr<VirtualDataCatalog> loaded = SnapshotOpened();
    const auto report = loaded->last_snapshot_load();
    EXPECT_TRUE(report.attempted);
    EXPECT_FALSE(report.used);
    EXPECT_FALSE(report.fallback_reason.empty());
    if (!reason_substr.empty()) {
      EXPECT_NE(report.fallback_reason.find(reason_substr),
                std::string::npos)
          << "fallback_reason: " << report.fallback_reason;
    }
    std::unique_ptr<VirtualDataCatalog> truth = ReplayOpened();
    ExpectSameState(*loaded, *truth);
    // Both sides replayed the same journal: history matches exactly.
    ExpectSameHistory(*loaded, *truth);
  }

  std::string journal_path_;
  std::string snap_path_;
  std::unique_ptr<VirtualDataCatalog> source_;
};

TEST_F(SnapshotPersistTest, SaveThenLoadMatchesFullReplay) {
  ASSERT_TRUE(source_->SaveSnapshotFile(snap_path_).ok());

  std::unique_ptr<VirtualDataCatalog> loaded = SnapshotOpened();
  const auto report = loaded->last_snapshot_load();
  EXPECT_TRUE(report.attempted);
  EXPECT_TRUE(report.used) << report.fallback_reason;
  EXPECT_TRUE(report.fallback_reason.empty());
  EXPECT_EQ(report.tail_records_replayed, 0u);
  EXPECT_EQ(report.snapshot_version, source_->version());

  std::unique_ptr<VirtualDataCatalog> truth = ReplayOpened();
  ExpectSameState(*loaded, *truth);
  ExpectSameState(*loaded, *source_);
  ExpectSameHistory(*loaded, *source_);
}

TEST_F(SnapshotPersistTest, JournalTailPastAnchorIsReplayed) {
  ASSERT_TRUE(source_->SaveSnapshotFile(snap_path_).ok());

  // Keep mutating AFTER the save: these records live past the anchor.
  Dataset late;
  late.name = "late0";
  late.type.content = "evt.raw";
  late.annotations.Set("tier", "gold");
  ASSERT_TRUE(source_->DefineDataset(late).ok());
  ASSERT_TRUE(source_->Annotate("dataset", "ds2", "tier", "gold").ok());
  ASSERT_TRUE(source_->SetDatasetSize("ds3", 999).ok());
  ASSERT_TRUE(source_->SyncJournal().ok());

  std::unique_ptr<VirtualDataCatalog> loaded = SnapshotOpened();
  const auto report = loaded->last_snapshot_load();
  EXPECT_TRUE(report.used) << report.fallback_reason;
  EXPECT_EQ(report.tail_records_replayed, 3u);
  EXPECT_LT(report.snapshot_version, loaded->version());

  std::unique_ptr<VirtualDataCatalog> truth = ReplayOpened();
  ExpectSameState(*loaded, *truth);
  ExpectSameState(*loaded, *source_);
  // The serialized changelog plus the tail-replayed entries must
  // reproduce the live history (the tail ops are all single-record
  // mutations, which replay 1:1).
  ExpectSameHistory(*loaded, *source_);

  // The post-anchor dataset is queryable through the indexes.
  DatasetQuery gold;
  gold.predicates = {{"tier", PredicateOp::kEq, "gold"}};
  NameList names = loaded->FindDatasets(gold);
  EXPECT_NE(std::find(names.begin(), names.end(), "late0"), names.end());
}

TEST_F(SnapshotPersistTest, MemoryOnlyCatalogRoundTripsWithoutJournal) {
  VirtualDataCatalog memory("site-m");
  ASSERT_TRUE(memory.Open().ok());
  Populate(&memory, 12);
  ASSERT_TRUE(memory.SaveSnapshotFile(snap_path_).ok());

  VirtualDataCatalog loaded("site-m");
  ASSERT_TRUE(loaded.OpenFromSnapshot(snap_path_).ok());
  EXPECT_TRUE(loaded.last_snapshot_load().used)
      << loaded.last_snapshot_load().fallback_reason;
  ExpectSameState(loaded, memory);
  ExpectSameHistory(loaded, memory);
}

TEST_F(SnapshotPersistTest, CorruptedHeaderFallsBackToReplay) {
  ASSERT_TRUE(source_->SaveSnapshotFile(snap_path_).ok());
  std::string bytes = ReadFile(snap_path_);
  bytes[flatsnap::kOffMagic + 2] ^= 0x40;  // damage the magic
  WriteFile(snap_path_, bytes);
  ExpectCleanFallback("");
}

TEST_F(SnapshotPersistTest, HeaderCrcMismatchFallsBackToReplay) {
  ASSERT_TRUE(source_->SaveSnapshotFile(snap_path_).ok());
  std::string bytes = ReadFile(snap_path_);
  bytes[flatsnap::kOffVersionSeq] ^= 0x01;  // field flip, CRC left stale
  WriteFile(snap_path_, bytes);
  ExpectCleanFallback("");
}

TEST_F(SnapshotPersistTest, CorruptedPayloadByteFallsBackToReplay) {
  ASSERT_TRUE(source_->SaveSnapshotFile(snap_path_).ok());
  std::string bytes = ReadFile(snap_path_);
  ASSERT_GT(bytes.size(), flatsnap::kHeaderSize + 100);
  bytes[flatsnap::kHeaderSize + 97] ^= 0x80;
  WriteFile(snap_path_, bytes);
  ExpectCleanFallback("");
}

TEST_F(SnapshotPersistTest, TruncatedFileFallsBackToReplay) {
  ASSERT_TRUE(source_->SaveSnapshotFile(snap_path_).ok());
  std::string bytes = ReadFile(snap_path_);
  WriteFile(snap_path_, bytes.substr(0, bytes.size() / 2));
  ExpectCleanFallback("");
  // Shorter than the header itself.
  WriteFile(snap_path_, bytes.substr(0, 10));
  ExpectCleanFallback("");
}

TEST_F(SnapshotPersistTest, FutureFormatVersionFallsBackToReplay) {
  ASSERT_TRUE(source_->SaveSnapshotFile(snap_path_).ok());
  const std::string saved = ReadFile(snap_path_);
  // A future version, and format 1 (tagged-text attribute values),
  // whose reader was retired: both must fall back to replay.
  for (char version : {99, 1}) {
    std::string bytes = saved;
    bytes[flatsnap::kOffFormatVersion] = version;  // low byte of the u32
    FixHeaderCrc(&bytes);  // keep the CRC valid: version check must fire
    WriteFile(snap_path_, bytes);
    ExpectCleanFallback("format version");
  }
}

TEST_F(SnapshotPersistTest, CompactedJournalNoLongerExtendsAnchor) {
  ASSERT_TRUE(source_->SaveSnapshotFile(snap_path_).ok());
  // Compaction rewrites history: the journal no longer begins with the
  // record chain the snapshot anchored to.
  ASSERT_TRUE(source_->CompactJournal().ok());
  ExpectCleanFallback("");
}

TEST_F(SnapshotPersistTest, MissingFileFallsBackToReplay) {
  // No SaveSnapshotFile call: the path simply does not exist.
  ExpectCleanFallback("");
}

// The snapshot carries objects through the shared object codec, so a
// loaded object must re-encode to its source's exact bytes: every
// field, including those the journal's VDL text does not keep (a
// compound transformation's env and profile, derivation env overrides).
TEST_F(SnapshotPersistTest, LoadedObjectsEncodeToTheSourceBytes) {
  ASSERT_TRUE(source_->SaveSnapshotFile(snap_path_).ok());
  std::unique_ptr<VirtualDataCatalog> loaded = SnapshotOpened();
  ASSERT_TRUE(loaded->last_snapshot_load().used);
  auto bytes = [](auto put, const auto& object) {
    std::string out;
    objcodec::Writer w(&out);
    put(w, object);
    return out;
  };
  auto all_bytes = [&bytes](auto put, const auto& objects) {
    std::string out;
    for (const auto& object : objects) out += bytes(put, object);
    return out;
  };
  for (std::string_view name : source_->AllDatasetNames()) {
    EXPECT_EQ(bytes(objcodec::PutDataset, *loaded->GetDataset(name)),
              bytes(objcodec::PutDataset, *source_->GetDataset(name)))
        << name;
    EXPECT_EQ(
        all_bytes(objcodec::PutReplica, loaded->ReplicasOf(name, false)),
        all_bytes(objcodec::PutReplica, source_->ReplicasOf(name, false)))
        << name;
  }
  for (std::string_view name : source_->AllTransformationNames()) {
    EXPECT_EQ(
        bytes(objcodec::PutTransformation, *loaded->GetTransformation(name)),
        bytes(objcodec::PutTransformation, *source_->GetTransformation(name)))
        << name;
  }
  for (std::string_view name : source_->AllDerivationNames()) {
    EXPECT_EQ(bytes(objcodec::PutDerivation, *loaded->GetDerivation(name)),
              bytes(objcodec::PutDerivation, *source_->GetDerivation(name)))
        << name;
    EXPECT_EQ(
        all_bytes(objcodec::PutInvocation, loaded->InvocationsOf(name)),
        all_bytes(objcodec::PutInvocation, source_->InvocationsOf(name)))
        << name;
  }
  EXPECT_EQ(loaded->GetTransformation("pipeline")->env().size(), 1u);
  EXPECT_EQ(loaded->InvocationsOf("dv0").at(0).exit_code, -9);
}

// The corruption tests above are all caught by a checksum. This sweep
// re-seals the file after each edit so the damage reaches the payload
// decoder itself: truncation at, and one byte either side of, every
// section boundary, plus seeded single-byte flips anywhere in the
// payload. Every open must succeed; a rejected image must leave exactly
// the replayed state. Under ASan/UBSan this also proves the decoder
// never reads out of bounds.
TEST_F(SnapshotPersistTest, ResealedPayloadDamageNeverEscapesTheDecoder) {
  ASSERT_TRUE(source_->SaveSnapshotFile(snap_path_).ok());
  const std::string saved = ReadFile(snap_path_);
  const std::string_view payload =
      std::string_view(saved).substr(flatsnap::kHeaderSize);
  const std::vector<size_t> ends = SectionEnds(payload);
  // Symbols, types, five object classes, seven indexes, changelog.
  ASSERT_EQ(ends.size(), 15u);
  ASSERT_EQ(ends.back(), payload.size());

  struct Damage {
    std::string bytes;
    bool truncated;
  };
  std::vector<Damage> damage;
  for (size_t end : ends) {
    for (size_t cut : {end - 1, end, end + 1}) {
      if (cut >= payload.size()) continue;
      damage.push_back({saved.substr(0, flatsnap::kHeaderSize + cut), true});
    }
  }
  Rng rng(0x5eed);
  for (int i = 0; i < 300; ++i) {
    std::string bytes = saved;
    bytes[flatsnap::kHeaderSize + rng.Index(payload.size())] ^=
        static_cast<char>(rng.UniformInt(1, 255));
    damage.push_back({std::move(bytes), false});
  }

  std::unique_ptr<VirtualDataCatalog> truth = ReplayOpened();
  size_t rejected = 0;
  for (Damage& d : damage) {
    Reseal(&d.bytes);
    WriteFile(snap_path_, d.bytes);
    VirtualDataCatalog loaded("site-a",
                              std::make_unique<FileJournal>(journal_path_));
    Status opened = loaded.OpenFromSnapshot(snap_path_);
    ASSERT_TRUE(opened.ok()) << opened.ToString();
    const auto report = loaded.last_snapshot_load();
    // A truncated payload always fails to parse; a flip may land where
    // any byte decodes (string contents, posting padding).
    if (d.truncated) {
      EXPECT_FALSE(report.used);
    }
    if (report.used) continue;
    ++rejected;
    EXPECT_NE(report.fallback_reason.find("snapshot"), std::string::npos)
        << report.fallback_reason;
    ExpectSameState(loaded, *truth);
    ExpectSameHistory(loaded, *truth);
  }
  EXPECT_GT(rejected, damage.size() / 2);
}

}  // namespace
}  // namespace vdg
