// Damage tests for the binary journal records (journal_record.h) and
// the FileJournal lines that carry them. One record of every kind is
// cut at every length and bit-flipped at seeded positions, each damaged
// record re-sealed with a fresh line CRC so the damage reaches the
// record decoder instead of the checksum. Replay must reject what it
// cannot decode, never crash, and leave no partial object behind.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/journal.h"
#include "catalog/journal_record.h"
#include "common/rng.h"

namespace vdg {
namespace {

std::string TempPath(const std::string& tag) {
  std::string path = ::testing::TempDir() + "/vdg_damage_" + tag + "_" +
                     std::to_string(::getpid());
  std::remove(path.c_str());
  return path;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The journal of a short history that writes every record tag: a type
// edge, datasets (one auto-defined by its derivation), a simple and a
// compound transformation (env and profile), a derivation with an env
// override, a replica, an invocation, an annotation re-put, and the
// four removals.
std::vector<std::string> EveryKindJournal() {
  auto journal = std::make_unique<VectorJournal>();
  VectorJournal* log = journal.get();
  VirtualDataCatalog catalog("damage.org", std::move(journal));
  EXPECT_TRUE(catalog.Open().ok());
  EXPECT_TRUE(catalog
                  .DefineType(TypeDimension::kContent, "evt",
                              TypeDimensionBaseName(TypeDimension::kContent))
                  .ok());
  Dataset raw;
  raw.name = "raw";
  raw.type.content = "evt";
  raw.size_bytes = 4096;
  raw.annotations.Set("tier", "gold");
  EXPECT_TRUE(catalog.DefineDataset(raw).ok());
  EXPECT_TRUE(catalog
                  .ImportVdl("TR base( output out, input in ) {"
                             "  argument stdin = ${input:in};"
                             "  argument stdout = ${output:out};"
                             "  exec = \"/bin/base\"; }")
                  .ok());
  Transformation pipeline("pipeline", Transformation::Kind::kCompound);
  EXPECT_TRUE(pipeline.AddArg({"in", ArgDirection::kIn, {}, {}, {}}).ok());
  EXPECT_TRUE(pipeline.AddArg({"out", ArgDirection::kOut, {}, {}, {}}).ok());
  pipeline.AddCall({"base",
                    {{"out", TemplatePiece::Ref("out", ArgDirection::kOut)},
                     {"in", TemplatePiece::Ref("in", ArgDirection::kIn)}}});
  pipeline.SetEnv("LEVEL", {TemplatePiece::Literal("3")});
  pipeline.SetProfile("hints.queue", {TemplatePiece::Literal("short")});
  EXPECT_TRUE(catalog.DefineTransformation(pipeline).ok());
  Derivation dv("dv", "base");
  EXPECT_TRUE(
      dv.AddArg(ActualArg::DatasetRef("out", "cooked", ArgDirection::kOut))
          .ok());
  EXPECT_TRUE(
      dv.AddArg(ActualArg::DatasetRef("in", "raw", ArgDirection::kIn)).ok());
  dv.SetEnvOverride("OMP_NUM_THREADS", "4");
  EXPECT_TRUE(catalog.DefineDerivation(dv).ok());
  Replica replica;
  replica.dataset = "raw";
  replica.site = "east";
  replica.size_bytes = 4096;
  Result<std::string> replica_id = catalog.AddReplica(replica);
  EXPECT_TRUE(replica_id.ok());
  Invocation iv;
  iv.derivation = "dv";
  iv.context = {"east", "node7", "linux", "x86_64"};
  iv.exit_code = -9;
  iv.consumed_replicas = {*replica_id};
  EXPECT_TRUE(catalog.RecordInvocation(iv).ok());
  EXPECT_TRUE(catalog.Annotate("dataset", "raw", "owner", "alice").ok());
  EXPECT_TRUE(catalog.RemoveReplica(*replica_id).ok());
  EXPECT_TRUE(catalog.RemoveDerivation("dv").ok());
  EXPECT_TRUE(catalog.RemoveTransformation("pipeline").ok());
  EXPECT_TRUE(catalog.RemoveDataset("cooked").ok());
  return log->records();
}

class JournalDamageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    records_ = EveryKindJournal();
    path_ = TempPath("journal");
    // The state replay reaches after each prefix of the journal: what a
    // rejected record at that position must leave behind.
    for (size_t k = 0; k <= records_.size(); ++k) {
      auto journal = std::make_unique<VectorJournal>();
      EXPECT_TRUE(journal
                      ->Rewrite(std::vector<std::string>(
                          records_.begin(), records_.begin() + k))
                      .ok());
      VirtualDataCatalog catalog("damage.org", std::move(journal));
      EXPECT_TRUE(catalog.Open().ok()) << k;
      prefix_state_.push_back(catalog.CurrentStateRecords());
    }
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Writes records [0, k) then `damaged` through FileJournal (fresh
  // line CRCs) and replays them. Whenever replay refuses, the state
  // must be exactly the prefix's.
  Status ReplayWithDamage(size_t k, const std::string& damaged) {
    std::vector<std::string> journal(records_.begin(), records_.begin() + k);
    journal.push_back(damaged);
    EXPECT_TRUE(FileJournal(path_).Rewrite(journal).ok());
    VirtualDataCatalog catalog("damage.org",
                               std::make_unique<FileJournal>(path_));
    Status opened = catalog.Open();
    if (!opened.ok()) {
      EXPECT_EQ(catalog.CurrentStateRecords(), prefix_state_[k])
          << "record " << k << " left a partial object: " << opened;
    }
    return opened;
  }

  std::vector<std::string> records_;
  std::vector<std::vector<std::string>> prefix_state_;
  std::string path_;
};

TEST_F(JournalDamageTest, JournalCarriesEveryRecordTag) {
  std::vector<bool> seen(0x20, false);
  for (const std::string& record : records_) {
    ASSERT_FALSE(record.empty());
    ASSERT_LT(static_cast<uint8_t>(record[0]), seen.size());
    seen[static_cast<uint8_t>(record[0])] = true;
  }
  using journal_record::Tag;
  for (Tag tag : {Tag::kDataset, Tag::kTransformation, Tag::kDerivation,
                  Tag::kReplica, Tag::kInvocation, Tag::kType,
                  Tag::kRemoveDataset, Tag::kRemoveTransformation,
                  Tag::kRemoveDerivation, Tag::kRemoveReplica}) {
    EXPECT_TRUE(seen[static_cast<uint8_t>(tag)])
        << "no record with tag " << static_cast<int>(tag);
  }
}

TEST_F(JournalDamageTest, EveryTruncationIsRejectedWhole) {
  for (size_t k = 0; k < records_.size(); ++k) {
    for (size_t cut = 0; cut < records_[k].size(); ++cut) {
      Status opened = ReplayWithDamage(k, records_[k].substr(0, cut));
      ASSERT_FALSE(opened.ok()) << "record " << k << " cut at " << cut;
      EXPECT_NE(opened.message().find("record " + std::to_string(k) + " ("),
                std::string::npos)
          << opened;
    }
  }
}

// A flip inside a name or a number can yield another well-formed
// record, which replay then applies; anything else must be refused.
TEST_F(JournalDamageTest, SeededBitFlipsNeverEscapeTheDecoder) {
  Rng rng(0xda3a6e);
  size_t rejected = 0;
  size_t flips = 0;
  for (size_t k = 0; k < records_.size(); ++k) {
    for (int i = 0; i < 40; ++i) {
      std::string damaged = records_[k];
      damaged[rng.Index(damaged.size())] ^=
          static_cast<char>(1u << rng.Index(8));
      ++flips;
      if (!ReplayWithDamage(k, damaged).ok()) ++rejected;
    }
  }
  EXPECT_GT(rejected, flips / 4);
}

// A journal an older build wrote in the retired text record format
// (escaped VDL per line, under the same "~crc|" framing), byte for byte.
constexpr char kTextJournal[] = R"JOURNAL(~b6e7e611|DS|DS raw : */*/* size="4096";\n
~b517bfcc|TR|TR conv( output out, input in ) {\n  argument stdin = ${input:in};\n  argument stdout = ${output:out};\n  exec = "/bin/conv";\n}\n
~a7a525ed|DS|DS cooked : */*/* producer="cook" path="cooked";\n
~a3402495|DV|DV cook->conv( out=@{output:"cooked"}, in=@{input:"raw"} );\n
)JOURNAL";

TEST(TextJournalTest, OpenAndOpenFromSnapshotRefuseAndLeaveTheFileAlone) {
  const std::string path = TempPath("text");
  const std::string snap_path = TempPath("text_snap");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << kTextJournal;
  }
  const std::string before = Slurp(path);
  ASSERT_EQ(before, kTextJournal);

  VirtualDataCatalog replayed("old.org", std::make_unique<FileJournal>(path));
  Status opened = replayed.Open();
  EXPECT_TRUE(opened.IsFailedPrecondition()) << opened;
  EXPECT_EQ(replayed.Stats().datasets, 0u);
  EXPECT_EQ(replayed.Stats().transformations, 0u);
  EXPECT_EQ(Slurp(path), before);

  VirtualDataCatalog loaded("old.org", std::make_unique<FileJournal>(path));
  opened = loaded.OpenFromSnapshot(snap_path);
  EXPECT_TRUE(opened.IsFailedPrecondition()) << opened;
  EXPECT_EQ(loaded.Stats().datasets, 0u);
  EXPECT_EQ(Slurp(path), before);
  std::remove(path.c_str());
}

TEST(FileJournalTest, ArbitraryBytesRoundTripThroughAppendAndRewrite) {
  const std::vector<std::string> payloads = {
      "multi\nline", "back\\slash", std::string("nul\0byte", 8),
      "\\n is not a newline", "\\", "\n", "trailing\\", std::string(1, '\0'),
      "\n\\\n\\\\n"};
  std::string path = TempPath("bytes");
  {
    FileJournal journal(path);
    for (const std::string& payload : payloads) {
      ASSERT_TRUE(journal.Append(payload).ok());
    }
    ASSERT_TRUE(journal.Sync().ok());
    Result<std::vector<std::string>> read = journal.ReadAll();
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(*read, payloads);
  }
  // One stored line per record, whatever bytes it carries.
  const std::string raw = Slurp(path);
  EXPECT_EQ(static_cast<size_t>(std::count(raw.begin(), raw.end(), '\n')),
            payloads.size());

  FileJournal reopened(path);
  Result<std::vector<std::string>> read = reopened.ReadAll();
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, payloads);
  EXPECT_EQ(reopened.last_recovery().records_skipped, 0u);
  EXPECT_FALSE(reopened.last_recovery().truncated);

  ASSERT_TRUE(reopened.Rewrite(payloads).ok());
  EXPECT_EQ(Slurp(path), raw);
  read = reopened.ReadAll();
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, payloads);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vdg
