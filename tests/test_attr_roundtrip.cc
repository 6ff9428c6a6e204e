// Property test for lossless attribute persistence: every double-
// valued attribute must survive the journal (write -> replay ->
// CompactJournal -> replay) and the XML export/import path with its
// exact bit pattern. The display form (%.6g) silently corrupted any
// double with more than six significant digits; the wire form
// (shortest-exact via std::to_chars) must not.
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <variant>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/journal.h"
#include "catalog/journal_record.h"
#include "common/strings.h"
#include "vdl/xml.h"
#include "vdl/xml_parse.h"

namespace vdg {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Bit-exact comparison: catches -0.0 vs 0.0 and last-ulp drift that
// operator== on doubles would miss or conflate.
::testing::AssertionResult SameBits(double expected, double actual) {
  if (Bits(expected) == Bits(actual)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "double drifted: expected " << FormatDoubleRoundTrip(expected)
         << " (0x" << std::hex << Bits(expected) << ") got "
         << FormatDoubleRoundTrip(actual) << " (0x" << Bits(actual) << ")";
}

// Doubles chosen to break naive formatting: extremes, subnormals,
// signed zero, and values needing all 17 significant digits.
std::vector<double> NastyDoubles() {
  std::vector<double> out = {
      0.0,
      -0.0,
      DBL_MIN,
      -DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      DBL_TRUE_MIN,  // smallest subnormal
      -DBL_TRUE_MIN,
      DBL_EPSILON,
      0.1,
      0.1 + 0.2,  // 0.30000000000000004
      1.0 / 3.0,
      M_PI,
      123456789.123456789,
      1e-300,
      -9.87654321e300,
      std::nextafter(1.0, 2.0),
      std::nextafter(0.0, -1.0),
  };
  // Deterministic random bit patterns (finite only).
  std::mt19937_64 rng(0xf05734);
  while (out.size() < 64) {
    uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) out.push_back(v);
  }
  return out;
}

AttributeSet NastySet(uint64_t seed) {
  std::mt19937_64 rng(seed);
  AttributeSet attrs;
  std::vector<double> doubles = NastyDoubles();
  for (size_t i = 0; i < doubles.size(); ++i) {
    attrs.Set("d" + std::to_string(i), AttributeValue(doubles[i]));
  }
  attrs.Set("imax", AttributeValue(INT64_MAX));
  attrs.Set("imin", AttributeValue(INT64_MIN));
  attrs.Set("irand", AttributeValue(static_cast<int64_t>(rng())));
  attrs.Set("flag", AttributeValue(rng() % 2 == 0));
  attrs.Set("label", AttributeValue("pipe|and\\escape\nnewline"));
  return attrs;
}

// Every double in `expected` must appear in `actual` with identical
// bits; everything else must compare equal.
void ExpectBitIdentical(const AttributeSet& expected,
                        const AttributeSet& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (const auto& [key, value] : expected) {
    const AttributeValue* got = actual.Find(key);
    ASSERT_NE(got, nullptr) << "missing attribute " << key;
    ASSERT_EQ(value.TypeTag(), got->TypeTag()) << "kind changed for " << key;
    if (value.is_double()) {
      EXPECT_TRUE(SameBits(value.AsDouble(), got->AsDouble())) << key;
    } else {
      EXPECT_TRUE(value == *got) << "value changed for " << key;
    }
  }
}

TEST(FormatDoubleRoundTrip, ShortestFormParsesBackExactly) {
  for (double v : NastyDoubles()) {
    std::string text = FormatDoubleRoundTrip(v);
    double back = std::strtod(text.c_str(), nullptr);
    EXPECT_TRUE(SameBits(v, back)) << text;
  }
}

// The display form is intentionally lossy — this documents the bug
// the wire form exists to fix, and fails if the codec ever reverts
// to ToString().
TEST(FormatDoubleRoundTrip, DisplayFormIsLossyWireFormIsNot) {
  double v = 0.1 + 0.2;  // 0.30000000000000004
  EXPECT_FALSE(SameBits(v, std::strtod(AttributeValue(v).ToString().c_str(),
                                       nullptr)));
  EXPECT_TRUE(SameBits(
      v, std::strtod(AttributeValue(v).ToWireString().c_str(), nullptr)));
}

// Decodes a dataset journal record and returns its annotations.
AttributeSet RecordAnnotations(std::string_view record) {
  Result<journal_record::Record> decoded = journal_record::Decode(record);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  if (!decoded.ok()) return {};
  const Dataset* ds = std::get_if<Dataset>(&*decoded);
  EXPECT_NE(ds, nullptr);
  return ds == nullptr ? AttributeSet{} : ds->annotations;
}

TEST(AttrRoundTrip, CodecTriplesAreBitExact) {
  AttributeSet attrs = NastySet(1);
  Dataset ds;
  ds.name = "nasty";
  ds.annotations = attrs;
  ExpectBitIdentical(attrs, RecordAnnotations(journal_record::Encode(ds)));
}

TEST(AttrRoundTrip, CodecRecordSurvivesEscaping) {
  // Through the file journal's line escaping, not just the codec.
  AttributeSet attrs = NastySet(2);
  Dataset ds;
  ds.name = "nasty";
  ds.annotations = attrs;
  std::string path = ::testing::TempDir() + "/vdg_attr_escape.log";
  std::remove(path.c_str());
  FileJournal journal(path);
  ASSERT_TRUE(journal.Append(journal_record::Encode(ds)).ok());
  Result<std::vector<std::string>> records = journal.ReadAll();
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 1u);
  ExpectBitIdentical(attrs, RecordAnnotations(records->front()));
  std::remove(path.c_str());
}

class AttrJournalRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AttrJournalRoundTrip, ReplayAndCompactionPreserveBits) {
  std::string path = ::testing::TempDir() + "/vdg_attr_rt_" +
                     std::to_string(GetParam()) + ".log";
  std::remove(path.c_str());
  AttributeSet attrs = NastySet(GetParam());
  double created_at = 0.1 + 0.2;
  double start_time = 1.0 / 3.0;
  double duration_s = M_PI;
  double cpu_seconds = 123456789.123456789;
  {
    VirtualDataCatalog catalog("rt.org", std::make_unique<FileJournal>(path));
    ASSERT_TRUE(catalog.Open().ok());
    ASSERT_TRUE(catalog
                    .ImportVdl("TR t( output out ) { exec = \"/bin/t\"; }"
                               "DS in0 : Dataset size=\"1\";"
                               "DV d->t( out=@{output:\"o\"} );")
                    .ok());
    Dataset ds;
    ds.name = "nasty";
    ds.annotations = attrs;
    ASSERT_TRUE(catalog.DefineDataset(ds).ok());
    Replica r;
    r.dataset = "nasty";
    r.site = "east";
    r.created_at = created_at;
    Result<std::string> rid = catalog.AddReplica(r);
    ASSERT_TRUE(rid.ok());
    Invocation iv;
    iv.derivation = "d";
    iv.context.site = "east";
    iv.start_time = start_time;
    iv.duration_s = duration_s;
    iv.cpu_seconds = cpu_seconds;
    ASSERT_TRUE(catalog.RecordInvocation(iv).ok());
    ASSERT_TRUE(catalog.SyncJournal().ok());
  }
  auto check = [&](const VirtualDataCatalog& catalog) {
    Result<Dataset> ds = catalog.GetDataset("nasty");
    ASSERT_TRUE(ds.ok());
    ExpectBitIdentical(attrs, ds->annotations);
    std::vector<Replica> replicas = catalog.ReplicasOf("nasty");
    ASSERT_EQ(replicas.size(), 1u);
    EXPECT_TRUE(SameBits(created_at, replicas[0].created_at));
    std::vector<Invocation> ivs = catalog.InvocationsOf("d");
    ASSERT_EQ(ivs.size(), 1u);
    EXPECT_TRUE(SameBits(start_time, ivs[0].start_time));
    EXPECT_TRUE(SameBits(duration_s, ivs[0].duration_s));
    EXPECT_TRUE(SameBits(cpu_seconds, ivs[0].cpu_seconds));
  };
  {
    // First replay, then compact and replay the compacted journal.
    VirtualDataCatalog reopened("rt.org",
                                std::make_unique<FileJournal>(path));
    ASSERT_TRUE(reopened.Open().ok());
    check(reopened);
    ASSERT_TRUE(reopened.CompactJournal().ok());
  }
  VirtualDataCatalog compacted("rt.org", std::make_unique<FileJournal>(path));
  ASSERT_TRUE(compacted.Open().ok());
  check(compacted);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttrJournalRoundTrip,
                         ::testing::Values(11, 22, 33, 44));

TEST(AttrRoundTrip, XmlExportImportIsBitExact) {
  AttributeSet attrs = NastySet(3);
  VdlProgram program;
  Dataset ds;
  ds.name = "nasty";
  ds.annotations = attrs;
  ds.descriptor.fields.Set("precision", AttributeValue(0.1 + 0.2));
  program.datasets.push_back(ds);
  Transformation tr("t", Transformation::Kind::kSimple);
  tr.annotations() = attrs;
  tr.set_executable("/bin/t");
  program.transformations.push_back(std::move(tr));
  Result<VdlProgram> back = ParseVdlXml(ProgramToXml(program));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->datasets.size(), 1u);
  ExpectBitIdentical(attrs, back->datasets[0].annotations);
  const AttributeValue* field =
      back->datasets[0].descriptor.fields.Find("precision");
  ASSERT_NE(field, nullptr);
  EXPECT_TRUE(SameBits(0.1 + 0.2, field->AsDouble()));
  ASSERT_EQ(back->transformations.size(), 1u);
  ExpectBitIdentical(attrs, back->transformations[0].annotations());
}

}  // namespace
}  // namespace vdg
