// Property-style test for the indexed discovery engine: the planner's
// posting-list / type-index / materialized-set paths must return
// exactly what a naive full scan over the public accessors returns,
// for every seeded random catalog, query mix, and mutation history —
// including removals, replica invalidations, and journal replay. A
// second suite holds the FederatedIndex delta-refresh path to the
// same standard against a forced full rebuild.
#include <cstdio>
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/posting.h"
#include "common/rng.h"
#include "common/strings.h"
#include "federation/index.h"

namespace vdg {
namespace {

constexpr const char* kAttrKeys[] = {"tier", "owner", "run"};
constexpr const char* kAttrValues[] = {"gold", "silver", "bronze"};
constexpr const char* kContentTypes[] = {"evt", "evt.raw", "evt.sim"};

// Deterministic random mutation driver covering every index-relevant
// operation: typed dataset defines, derivations, replica churn
// (add/invalidate/remove), annotations, and removals.
class MutationDriver {
 public:
  MutationDriver(VirtualDataCatalog* catalog, uint64_t seed)
      : catalog_(catalog), rng_(seed) {}

  void Run(int steps) {
    if (!catalog_->HasTransformation("base")) {
      Must(catalog_->DefineType(
          TypeDimension::kContent, "evt",
          TypeDimensionBaseName(TypeDimension::kContent)));
      Must(catalog_->DefineType(TypeDimension::kContent, "evt.raw", "evt"));
      Must(catalog_->DefineType(TypeDimension::kContent, "evt.sim", "evt"));
      Must(catalog_->ImportVdl(
          "TR base( output out, input in ) {"
          "  argument stdin = ${input:in};"
          "  argument stdout = ${output:out};"
          "  exec = \"/bin/base\"; }"
          "DS seed0 : Dataset size=\"1\";"));
    }
    datasets_.push_back("seed0");
    for (int i = 0; i < steps; ++i) Step(i);
  }

 private:
  static void Must(const Status& status) { ASSERT_TRUE(status.ok()) << status; }

  void Step(int i) {
    switch (rng_.UniformInt(0, 9)) {
      case 0: {  // new typed dataset
        Dataset ds;
        ds.name = "ds" + std::to_string(i);
        ds.size_bytes = rng_.UniformInt(0, 1 << 20);
        ds.type.content = kContentTypes[rng_.Index(3)];
        ds.annotations.Set(kAttrKeys[rng_.Index(3)],
                           kAttrValues[rng_.Index(3)]);
        if (catalog_->DefineDataset(ds).ok()) datasets_.push_back(ds.name);
        break;
      }
      case 1: {  // new derivation chained off a random dataset
        Derivation dv("dv" + std::to_string(i), "base");
        std::string out = "out" + std::to_string(i);
        Must(dv.AddArg(ActualArg::DatasetRef("out", out, ArgDirection::kOut)));
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
      case 3: {  // annotate something indexable
        const char* kind = rng_.Chance(0.7) ? "dataset" : "derivation";
        std::string name =
            kind == std::string_view("dataset")
                ? datasets_[rng_.Index(datasets_.size())]
                : (derivations_.empty()
                       ? std::string("none")
                       : derivations_[rng_.Index(derivations_.size())]);
        Status s = catalog_->Annotate(kind, name, kAttrKeys[rng_.Index(3)],
                                      kAttrValues[rng_.Index(3)]);
        (void)s;
        break;
      }
      case 4: {  // invalidate a replica
        if (replicas_.empty()) break;
        Status s = catalog_->InvalidateReplica(
            replicas_[rng_.Index(replicas_.size())]);
        (void)s;
        break;
      }
      case 5: {  // remove a replica
        if (replicas_.empty()) break;
        size_t pick = rng_.Index(replicas_.size());
        if (catalog_->RemoveReplica(replicas_[pick]).ok()) {
          replicas_.erase(replicas_.begin() + static_cast<ptrdiff_t>(pick));
        }
        break;
      }
      case 6: {  // remove a derivation
        if (derivations_.empty() || !rng_.Chance(0.4)) break;
        size_t pick = rng_.Index(derivations_.size());
        if (catalog_->RemoveDerivation(derivations_[pick]).ok()) {
          derivations_.erase(derivations_.begin() +
                             static_cast<ptrdiff_t>(pick));
        }
        break;
      }
      case 7: {  // remove a dataset (only works once it has no refs)
        if (datasets_.size() < 2 || !rng_.Chance(0.3)) break;
        size_t pick = rng_.Index(datasets_.size());
        if (catalog_->RemoveDataset(datasets_[pick]).ok()) {
          datasets_.erase(datasets_.begin() + static_cast<ptrdiff_t>(pick));
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
      case 9: {  // re-annotate an existing dataset (index update path)
        Status s = catalog_->Annotate(
            "dataset", datasets_[rng_.Index(datasets_.size())],
            kAttrKeys[rng_.Index(3)], kAttrValues[rng_.Index(3)]);
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

// Materialization computed from first principles (the replica table),
// independent of the catalog's incremental materialized set.
std::set<std::string> NaiveMaterialized(const VirtualDataCatalog& catalog) {
  std::set<std::string> out;
  for (std::string_view id : catalog.AllReplicaIds()) {
    Replica r = *catalog.GetReplica(id);
    if (r.valid) out.insert(r.dataset);
  }
  return out;
}

// Reference implementation: full scan over the public accessors,
// re-deriving every query condition without any index.
std::vector<std::string> NaiveFindDatasets(const VirtualDataCatalog& catalog,
                                           const DatasetQuery& query) {
  std::set<std::string> materialized = NaiveMaterialized(catalog);
  std::vector<std::string> out;
  for (const std::string& name : catalog.AllDatasetNames().ToStrings()) {
    Dataset ds = *catalog.GetDataset(name);
    if (!query.name_prefix.empty() && !StartsWith(name, query.name_prefix)) {
      continue;
    }
    if (query.type && !catalog.TypeConforms(ds.type, *query.type)) {
      continue;
    }
    if (!MatchesAll(ds.annotations, query.predicates)) continue;
    bool mat = materialized.count(name) > 0;
    if (query.require_materialized && !mat) continue;
    if (query.only_virtual && mat) continue;
    out.push_back(name);
    if (query.limit != 0 && out.size() >= query.limit) break;
  }
  return out;
}

std::vector<std::string> NaiveFindDerivations(
    const VirtualDataCatalog& catalog, const DerivationQuery& query) {
  std::vector<std::string> out;
  for (const std::string& name : catalog.AllDerivationNames().ToStrings()) {
    Derivation dv = *catalog.GetDerivation(name);
    if (!query.name_prefix.empty() && !StartsWith(name, query.name_prefix)) {
      continue;
    }
    if (!query.transformation.empty() &&
        query.transformation != dv.QualifiedTransformation() &&
        query.transformation != dv.transformation()) {
      continue;
    }
    if (!query.reads_dataset.empty()) {
      std::vector<std::string> ins = dv.InputDatasets();
      if (std::find(ins.begin(), ins.end(), query.reads_dataset) ==
          ins.end()) {
        continue;
      }
    }
    if (!query.writes_dataset.empty()) {
      std::vector<std::string> outs = dv.OutputDatasets();
      if (std::find(outs.begin(), outs.end(), query.writes_dataset) ==
          outs.end()) {
        continue;
      }
    }
    if (!MatchesAll(dv.annotations(), query.predicates)) continue;
    out.push_back(name);
    if (query.limit != 0 && out.size() >= query.limit) break;
  }
  return out;
}

// Random query generator hitting every planner path: attribute
// postings, type index, materialized set, prefix range, full scan.
DatasetQuery RandomDatasetQuery(Rng* rng) {
  DatasetQuery q;
  if (rng->Chance(0.5)) {
    AttributePredicate p;
    p.key = kAttrKeys[rng->Index(3)];
    p.op = PredicateOp::kEq;
    p.operand = kAttrValues[rng->Index(3)];
    q.predicates.push_back(p);
    if (rng->Chance(0.3)) {
      AttributePredicate p2;
      p2.key = kAttrKeys[rng->Index(3)];
      p2.op = PredicateOp::kEq;
      p2.operand = kAttrValues[rng->Index(3)];
      q.predicates.push_back(p2);
    }
  }
  if (rng->Chance(0.4)) {
    q.type = DatasetType{};
    q.type->content = kContentTypes[rng->Index(3)];
  }
  if (rng->Chance(0.3)) q.name_prefix = rng->Chance(0.5) ? "ds" : "out";
  if (rng->Chance(0.3)) {
    if (rng->Chance(0.5)) {
      q.require_materialized = true;
    } else {
      q.only_virtual = true;
    }
  }
  return q;
}

DerivationQuery RandomDerivationQuery(Rng* rng, int steps) {
  DerivationQuery q;
  if (rng->Chance(0.5)) q.transformation = "base";
  if (rng->Chance(0.4)) {
    q.reads_dataset = "ds" + std::to_string(rng->UniformInt(0, steps - 1));
  }
  if (rng->Chance(0.4)) {
    q.writes_dataset = "out" + std::to_string(rng->UniformInt(0, steps - 1));
  }
  if (rng->Chance(0.3)) {
    AttributePredicate p;
    p.key = kAttrKeys[rng->Index(3)];
    p.op = PredicateOp::kEq;
    p.operand = kAttrValues[rng->Index(3)];
    q.predicates.push_back(p);
  }
  if (rng->Chance(0.2)) q.name_prefix = "dv";
  return q;
}

void ExpectQueriesMatchNaive(const VirtualDataCatalog& catalog,
                             uint64_t seed, int steps, int queries) {
  Rng rng(seed * 7919 + 17);
  for (int i = 0; i < queries; ++i) {
    DatasetQuery dq = RandomDatasetQuery(&rng);
    EXPECT_EQ(catalog.FindDatasets(dq), NaiveFindDatasets(catalog, dq))
        << "seed=" << seed << " query#" << i << " plan="
        << AccessPathName(catalog.ExplainFindDatasets(dq).path);
    DerivationQuery vq = RandomDerivationQuery(&rng, steps);
    EXPECT_EQ(catalog.FindDerivations(vq), NaiveFindDerivations(catalog, vq))
        << "seed=" << seed << " query#" << i << " plan="
        << AccessPathName(catalog.ExplainFindDerivations(vq).path);
  }
}

class DiscoveryTortureTest : public ::testing::TestWithParam<uint64_t> {};

// The indexed Find* calls agree with the naive reference on a live
// catalog after a long random mutation history.
TEST_P(DiscoveryTortureTest, IndexedQueriesMatchNaiveScan) {
  const uint64_t seed = GetParam();
  const int steps = 300;
  VirtualDataCatalog catalog("torture.org");
  ASSERT_TRUE(catalog.Open().ok());
  MutationDriver driver(&catalog, seed);
  driver.Run(steps);
  ExpectQueriesMatchNaive(catalog, seed, steps, 60);
}

// The same property holds for a catalog rebuilt from its journal: the
// indexes recovered by replay answer queries identically too.
TEST_P(DiscoveryTortureTest, ReplayedCatalogAnswersIdentically) {
  const uint64_t seed = GetParam();
  const int steps = 200;
  std::string path = ::testing::TempDir() + "/vdg_discovery_" +
                     std::to_string(seed) + ".log";
  std::remove(path.c_str());
  {
    VirtualDataCatalog catalog("torture.org",
                               std::make_unique<FileJournal>(path));
    ASSERT_TRUE(catalog.Open().ok());
    MutationDriver driver(&catalog, seed);
    driver.Run(steps);
  }
  VirtualDataCatalog reopened("torture.org",
                              std::make_unique<FileJournal>(path));
  Status reopen = reopened.Open();
  ASSERT_TRUE(reopen.ok()) << reopen;
  ExpectQueriesMatchNaive(reopened, seed, steps, 60);
  std::remove(path.c_str());
}

// Delta refresh must converge to the same index a forced full rebuild
// produces, no matter how mutations interleave with refreshes.
TEST_P(DiscoveryTortureTest, DeltaRefreshConvergesToFullRebuild) {
  const uint64_t seed = GetParam();
  VirtualDataCatalog a("a.org");
  VirtualDataCatalog b("b.org");
  ASSERT_TRUE(a.Open().ok());
  ASSERT_TRUE(b.Open().ok());
  // Keep one source's window tight so the fallback path gets exercised.
  b.set_changelog_capacity(8);

  FederatedIndex delta("delta");
  FederatedIndex full("full");
  for (VirtualDataCatalog* c : {&a, &b}) {
    ASSERT_TRUE(delta.AddSource(c).ok());
    ASSERT_TRUE(full.AddSource(c).ok());
  }

  MutationDriver da(&a, seed);
  MutationDriver db(&b, seed + 1000);
  da.Run(40);
  db.Run(40);
  Rng rng(seed);
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(delta.Refresh().ok());
    // Random-length mutation bursts: short ones fit b's window, long
    // ones overflow it and force the per-source rescan.
    MutationDriver ma(&a, seed + 10 + round);
    MutationDriver mb(&b, seed + 20 + round);
    ma.Run(static_cast<int>(rng.UniformInt(1, 6)));
    mb.Run(static_cast<int>(rng.UniformInt(1, 20)));
  }
  ASSERT_TRUE(delta.Refresh().ok());
  ASSERT_TRUE(full.RebuildAll().ok());

  ASSERT_EQ(delta.size(), full.size());
  // Element-wise equivalence over every entry both indexes hold.
  for (const char* kind : {"dataset", "transformation", "derivation"}) {
    for (VirtualDataCatalog* c : {&a, &b}) {
      NameList names = kind == std::string_view("dataset")
                           ? c->AllDatasetNames()
                           : kind == std::string_view("transformation")
                                 ? c->AllTransformationNames()
                                 : c->AllDerivationNames();
      for (std::string_view name : names) {
        std::vector<IndexEntry> lhs = delta.LookupName(kind, name);
        std::vector<IndexEntry> rhs = full.LookupName(kind, name);
        // Multi-authority hits carry no ordering contract.
        auto by_authority = [](const IndexEntry& x, const IndexEntry& y) {
          return x.authority < y.authority;
        };
        std::sort(lhs.begin(), lhs.end(), by_authority);
        std::sort(rhs.begin(), rhs.end(), by_authority);
        ASSERT_EQ(lhs.size(), rhs.size()) << kind << " " << name;
        for (size_t i = 0; i < lhs.size(); ++i) {
          EXPECT_EQ(lhs[i].authority, rhs[i].authority);
          EXPECT_EQ(lhs[i].type.ToString(), rhs[i].type.ToString());
          EXPECT_EQ(lhs[i].materialized, rhs[i].materialized)
              << kind << " " << name;
          EXPECT_TRUE(lhs[i].annotations == rhs[i].annotations)
              << kind << " " << name;
        }
      }
    }
  }
  // Both paths ran at least once across the six rounds.
  EXPECT_GT(delta.refresh_stats().delta_refreshes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscoveryTortureTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

// ---------------------------------------------------------------------
// PostingBlocks property suite: the compressed block format with its
// per-pair kernel selection (word-AND, probe, galloping, linear merge)
// must agree exactly with naive std::set_intersection over plain sorted
// vectors, for sparse, dense, skewed, and adversarial inputs — empty,
// singleton, a fully dense block, and runs straddling block boundaries.
// The serialized form must round-trip in both copy and borrow modes.

using Id = PostingBlocks::Id;

std::vector<Id> SortedUnique(std::vector<Id> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

PostingBlocks FromIds(const std::vector<Id>& ids) {
  PostingBlocks pb;
  for (Id id : ids) pb.Add(id);
  return pb;
}

std::vector<Id> NaiveIntersect(const std::vector<Id>& a,
                               const std::vector<Id>& b) {
  std::vector<Id> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// One randomized id list per shape. Shapes deliberately cross the
// array->bitmap conversion threshold and the 65536-id block span.
std::vector<Id> MakeList(Rng& rng, int shape) {
  std::vector<Id> ids;
  switch (shape) {
    case 0:  // empty
      break;
    case 1:  // singleton, anywhere
      ids.push_back(static_cast<Id>(rng.UniformInt(0, 1 << 20)));
      break;
    case 2: {  // sparse across many blocks (array blocks)
      const int n = static_cast<int>(rng.UniformInt(1, 300));
      for (int i = 0; i < n; ++i) {
        ids.push_back(static_cast<Id>(rng.UniformInt(0, 1 << 21)));
      }
      break;
    }
    case 3: {  // dense inside one block: forces bitmap conversion
      const Id base = static_cast<Id>(rng.UniformInt(0, 8)) *
                      PostingBlocks::kSpan;
      const int n = static_cast<int>(
          rng.UniformInt(PostingBlocks::kBitmapThreshold + 1, 20000));
      for (int i = 0; i < n; ++i) {
        ids.push_back(base +
                      static_cast<Id>(rng.Index(PostingBlocks::kSpan)));
      }
      break;
    }
    case 4: {  // contiguous run straddling a block boundary
      const Id boundary = static_cast<Id>(rng.UniformInt(1, 8)) *
                          PostingBlocks::kSpan;
      const int before = static_cast<int>(rng.UniformInt(0, 5000));
      const int after = static_cast<int>(rng.UniformInt(0, 5000));
      for (int i = -before; i < after; ++i) {
        ids.push_back(boundary + static_cast<Id>(i));
      }
      break;
    }
    case 5: {  // one fully dense block (every bit set)
      const Id base = static_cast<Id>(rng.UniformInt(0, 4)) *
                      PostingBlocks::kSpan;
      ids.resize(PostingBlocks::kSpan);
      for (Id i = 0; i < PostingBlocks::kSpan; ++i) ids[i] = base + i;
      break;
    }
    default: {  // tiny list clustered where a huge list lives (skew:
                // exercises the galloping and probe kernels)
      const Id base = static_cast<Id>(rng.UniformInt(0, 4)) *
                      PostingBlocks::kSpan;
      const int n = static_cast<int>(rng.UniformInt(1, 12));
      for (int i = 0; i < n; ++i) {
        ids.push_back(base +
                      static_cast<Id>(rng.Index(PostingBlocks::kSpan)));
      }
      break;
    }
  }
  return ids;
}

class PostingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PostingPropertyTest, IntersectMatchesNaiveAcrossShapes) {
  Rng rng(GetParam() * 7919 + 1);
  constexpr int kShapes = 7;
  for (int sa = 0; sa < kShapes; ++sa) {
    for (int sb = 0; sb < kShapes; ++sb) {
      const std::vector<Id> a = SortedUnique(MakeList(rng, sa));
      const std::vector<Id> b = SortedUnique(MakeList(rng, sb));
      const PostingBlocks pa = FromIds(a);
      const PostingBlocks pb = FromIds(b);
      const std::vector<Id> expected = NaiveIntersect(a, b);

      EXPECT_EQ(PostingBlocks::Intersect(pa, pb), expected)
          << "shapes " << sa << "x" << sb;
      // Intersection is symmetric.
      EXPECT_EQ(PostingBlocks::Intersect(pb, pa), expected)
          << "shapes " << sa << "x" << sb;

      // The progressive step (vector &= blocks) must agree too.
      std::vector<Id> progressive = a;
      PostingBlocks::IntersectWith(&progressive, pb);
      EXPECT_EQ(progressive, expected) << "shapes " << sa << "x" << sb;

      // Membership spot checks along both inputs.
      for (int probe = 0; probe < 32 && !a.empty(); ++probe) {
        const Id id = a[rng.Index(a.size())];
        EXPECT_TRUE(pa.Contains(id));
        EXPECT_EQ(pb.Contains(id),
                  std::binary_search(b.begin(), b.end(), id));
      }
    }
  }
}

TEST_P(PostingPropertyTest, UnionMergesDistinctAndAddsCounts) {
  Rng rng(GetParam() * 104729 + 3);
  for (int round = 0; round < 12; ++round) {
    // Duplicates included: Union must add multiplicities.
    std::vector<Id> a = MakeList(rng, static_cast<int>(rng.Index(7)));
    std::vector<Id> b = MakeList(rng, static_cast<int>(rng.Index(7)));
    const PostingBlocks pa = FromIds(a);
    const PostingBlocks pb = FromIds(b);
    const PostingBlocks u = PostingBlocks::Union(pa, pb);

    std::vector<Id> merged = a;
    merged.insert(merged.end(), b.begin(), b.end());
    std::sort(merged.begin(), merged.end());
    EXPECT_EQ(u.ToVector(), merged);
    EXPECT_EQ(u.size(), merged.size());
    EXPECT_EQ(u.distinct(), SortedUnique(merged).size());
    for (int probe = 0; probe < 16 && !merged.empty(); ++probe) {
      const Id id = merged[rng.Index(merged.size())];
      EXPECT_EQ(u.CountOf(id), pa.CountOf(id) + pb.CountOf(id));
    }
  }
}

TEST_P(PostingPropertyTest, MultisetAddRemoveMatchesReferenceModel) {
  Rng rng(GetParam() * 31 + 17);
  PostingBlocks pb;
  std::multiset<Id> model;
  // Narrow id domain so removals actually hit and blocks churn
  // through the array<->bitmap conversion both ways.
  const Id domain = static_cast<Id>(rng.UniformInt(64, 3 * 65536));
  for (int step = 0; step < 20000; ++step) {
    const Id id = static_cast<Id>(rng.Index(domain));
    if (rng.Index(3) != 0) {
      pb.Add(id);
      model.insert(id);
    } else {
      pb.Remove(id);
      auto it = model.find(id);
      if (it != model.end()) model.erase(it);
    }
  }
  EXPECT_EQ(pb.ToVector(), std::vector<Id>(model.begin(), model.end()));
  EXPECT_EQ(pb.size(), model.size());
  for (int probe = 0; probe < 64; ++probe) {
    const Id id = static_cast<Id>(rng.Index(domain));
    EXPECT_EQ(pb.CountOf(id), model.count(id));
    EXPECT_EQ(pb.Contains(id), model.count(id) > 0);
  }
}

TEST_P(PostingPropertyTest, SerializedRoundTripCopyAndBorrow) {
  Rng rng(GetParam() * 6151 + 9);
  for (int shape = 0; shape < 7; ++shape) {
    std::vector<Id> ids = MakeList(rng, shape);
    // A few duplicates so the extra_ side table serializes too.
    for (int i = 0; i < 8 && !ids.empty(); ++i) {
      ids.push_back(ids[rng.Index(ids.size())]);
    }
    const PostingBlocks original = FromIds(ids);

    std::string blob;
    original.AppendSerialized(&blob);

    // Copy mode: no keepalive, parser owns its payloads.
    size_t consumed = 0;
    Result<PostingBlocks> copied = PostingBlocks::Parse(
        reinterpret_cast<const uint8_t*>(blob.data()), blob.size(),
        &consumed, nullptr);
    ASSERT_TRUE(copied.ok()) << copied.status().ToString();
    EXPECT_EQ(consumed, blob.size());
    EXPECT_EQ(copied->ToVector(), original.ToVector());
    EXPECT_EQ(copied->size(), original.size());
    EXPECT_EQ(copied->distinct(), original.distinct());

    // Borrow mode: a keepalive buffer (heap allocations are at least
    // 8-aligned in practice; Parse falls back to copying otherwise,
    // so correctness holds either way).
    auto owned = std::make_shared<std::vector<uint8_t>>(
        blob.begin(), blob.end());
    consumed = 0;
    Result<PostingBlocks> borrowed = PostingBlocks::Parse(
        owned->data(), owned->size(), &consumed, owned);
    ASSERT_TRUE(borrowed.ok()) << borrowed.status().ToString();
    EXPECT_EQ(consumed, owned->size());
    EXPECT_EQ(borrowed->ToVector(), original.ToVector());
    // The borrowed view must stay valid through keepalive even after
    // our local handle goes away.
    owned.reset();
    EXPECT_EQ(borrowed->ToVector(), original.ToVector());

    // Truncation at any point must fail cleanly, never crash.
    for (size_t cut : {blob.size() / 2, blob.size() - 1, size_t{3}}) {
      if (cut >= blob.size()) continue;
      size_t c = 0;
      Result<PostingBlocks> bad = PostingBlocks::Parse(
          reinterpret_cast<const uint8_t*>(blob.data()), cut, &c, nullptr);
      EXPECT_FALSE(bad.ok()) << "cut=" << cut;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PostingPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// ---------------------------------------------------------------------
// The small form: lists of at most kSmallIds occurrences live inside
// the object. Every member must answer as a plain sorted multiset on
// both sides of that boundary, through every promotion (Add past it)
// and demotion (Remove back to it), and both forms must serialize to
// the bytes the format defines.

constexpr size_t kSmall = PostingBlocks::kSmallIds;

// A sorted multiset of `n` ids with duplicates, spread over up to three
// blocks so a small list can hold ids of several block keys.
std::vector<Id> SmallMultiset(Rng& rng, size_t n) {
  std::vector<Id> ids;
  for (size_t i = 0; i < n; ++i) {
    if (!ids.empty() && rng.Index(4) == 0) {
      ids.push_back(ids[rng.Index(ids.size())]);  // a duplicate
    } else {
      ids.push_back(static_cast<Id>(rng.Index(3)) * PostingBlocks::kSpan +
                    static_cast<Id>(rng.Index(64)));
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// The flat-snapshot encoding of a sorted multiset, written from the
// format's definition (posting.h): header, one array block per
// high-16 key, payloads padded to 8 bytes, then the duplicate table.
// Only array blocks: these lists stay far below kBitmapThreshold.
std::string ReferenceEncoding(const std::vector<Id>& sorted) {
  const std::vector<Id> ids = SortedUnique(sorted);
  std::vector<std::pair<Id, uint32_t>> extra;
  for (Id id : ids) {
    const auto n = static_cast<uint32_t>(
        std::count(sorted.begin(), sorted.end(), id));
    if (n > 1) extra.emplace_back(id, n - 1);
  }
  std::vector<std::pair<uint32_t, std::vector<uint16_t>>> blocks;
  for (Id id : ids) {
    const uint32_t key = id >> PostingBlocks::kSpanBits;
    if (blocks.empty() || blocks.back().first != key) {
      blocks.push_back({key, {}});
    }
    blocks.back().second.push_back(static_cast<uint16_t>(id & 0xffff));
  }
  std::string out;
  auto put = [&out](auto v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto pad = [&out] { out.append((8 - out.size() % 8) % 8, '\0'); };
  put(static_cast<uint32_t>(blocks.size()));
  put(static_cast<uint32_t>(ids.size()));
  put(static_cast<uint64_t>(sorted.size()));
  put(static_cast<uint32_t>(extra.size()));
  put(uint32_t{0});
  for (const auto& [key, lows] : blocks) {
    put(key);
    put(static_cast<uint32_t>(lows.size()));
    put(lows.front());
    put(lows.back());
    put(uint32_t{0});  // array block, three padding bytes
  }
  for (const auto& block : blocks) {
    pad();
    for (uint16_t low : block.second) put(low);
  }
  pad();
  for (const auto& [id, n] : extra) {
    put(id);
    put(n);
  }
  return out;
}

// Every read member against the naive multiset `model`.
void ExpectMatchesModel(const PostingBlocks& pb,
                        const std::vector<Id>& model) {
  EXPECT_EQ(pb.is_small(), model.size() <= kSmall);
  EXPECT_EQ(pb.size(), model.size());
  EXPECT_EQ(pb.distinct(), SortedUnique(model).size());
  EXPECT_EQ(pb.empty(), model.empty());
  EXPECT_EQ(pb.ToVector(), model);
  std::vector<Id> occurrences;
  pb.ForEachOccurrence([&](Id id) { occurrences.push_back(id); });
  EXPECT_EQ(occurrences, model);
  std::vector<Id> distinct;
  pb.ForEach([&](Id id) { distinct.push_back(id); });
  EXPECT_EQ(distinct, SortedUnique(model));
  for (Id id : model) {
    EXPECT_TRUE(pb.Contains(id));
    EXPECT_EQ(pb.CountOf(id), static_cast<uint32_t>(std::count(
                                  model.begin(), model.end(), id)));
  }
  EXPECT_FALSE(pb.Contains(5 * PostingBlocks::kSpan));
  EXPECT_EQ(pb.CountOf(5 * PostingBlocks::kSpan), 0u);
}

TEST_P(PostingPropertyTest, SmallFormPromotesAndDemotesAsAMultiset) {
  Rng rng(GetParam() * 977 + 5);
  for (size_t n = 0; n <= kSmall + 3; ++n) {
    for (int round = 0; round < 8; ++round) {
      std::vector<Id> model = SmallMultiset(rng, n);
      std::vector<Id> order = model;
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.Index(i)]);
      }
      PostingBlocks pb;
      std::vector<Id> grown;
      for (Id id : order) {  // promotes on the kSmall + 1st add
        pb.Add(id);
        grown.insert(std::upper_bound(grown.begin(), grown.end(), id), id);
        ExpectMatchesModel(pb, grown);
      }
      // Down to empty in another order (demotes at kSmall), then back.
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.Index(i)]);
      }
      for (Id id : order) {
        pb.Remove(id);
        grown.erase(std::lower_bound(grown.begin(), grown.end(), id));
        ExpectMatchesModel(pb, grown);
      }
      pb.Remove(7);  // absent: no-op on the empty list
      ExpectMatchesModel(pb, {});
      for (Id id : order) pb.Add(id);
      ExpectMatchesModel(pb, model);
      ASSERT_FALSE(testing::Test::HasFailure()) << "n=" << n;
    }
  }
}

TEST_P(PostingPropertyTest, SmallFormSetOperationsMatchNaive) {
  Rng rng(GetParam() * 389 + 11);
  // Block-form partners: sparse arrays over the small lists' ids, and
  // a bitmap block over the first block key.
  std::vector<std::vector<Id>> partners;
  for (int i = 0; i < 3; ++i) partners.push_back(SmallMultiset(rng, 40));
  std::vector<Id> dense;
  for (Id id = 0; id < PostingBlocks::kBitmapThreshold + 500; ++id) {
    dense.push_back(id * 3 % PostingBlocks::kSpan);
  }
  std::sort(dense.begin(), dense.end());
  partners.push_back(dense);
  for (size_t n = 0; n <= kSmall + 3; ++n) {
    partners.push_back(SmallMultiset(rng, n));
  }
  for (size_t na = 0; na <= kSmall + 3; ++na) {
    for (const std::vector<Id>& b : partners) {
      const std::vector<Id> a = SmallMultiset(rng, na);
      const PostingBlocks pa = FromIds(a);
      const PostingBlocks pb = FromIds(b);
      const std::vector<Id> expected =
          NaiveIntersect(SortedUnique(a), SortedUnique(b));
      EXPECT_EQ(PostingBlocks::Intersect(pa, pb), expected);
      EXPECT_EQ(PostingBlocks::Intersect(pb, pa), expected);
      std::vector<Id> progressive = SortedUnique(a);
      PostingBlocks::IntersectWith(&progressive, pb);
      EXPECT_EQ(progressive, expected);
      progressive = SortedUnique(b);
      PostingBlocks::IntersectWith(&progressive, pa);
      EXPECT_EQ(progressive, expected);

      std::vector<Id> merged = a;
      merged.insert(merged.end(), b.begin(), b.end());
      std::sort(merged.begin(), merged.end());
      ExpectMatchesModel(PostingBlocks::Union(pa, pb), merged);
      ExpectMatchesModel(PostingBlocks::Union(pb, pa), merged);
      ASSERT_FALSE(testing::Test::HasFailure())
          << "na=" << na << " nb=" << b.size();
    }
  }
}

TEST_P(PostingPropertyTest, SmallFormSerializesAsTheBlockForm) {
  Rng rng(GetParam() * 2741 + 13);
  for (size_t n = 0; n <= kSmall + 3; ++n) {
    for (int round = 0; round < 16; ++round) {
      const std::vector<Id> model = SmallMultiset(rng, n);
      // Reached by adds alone, and by demotion from the block form.
      PostingBlocks added = FromIds(model);
      PostingBlocks demoted = FromIds(model);
      for (Id extra = 0; extra <= kSmall; ++extra) demoted.Add(9 + extra);
      for (Id extra = 0; extra <= kSmall; ++extra) demoted.Remove(9 + extra);
      const std::string expected = ReferenceEncoding(model);
      for (const PostingBlocks* pb : {&added, &demoted}) {
        std::string blob;
        pb->AppendSerialized(&blob);
        ASSERT_EQ(blob, expected) << "n=" << n;
      }

      size_t consumed = 0;
      Result<PostingBlocks> copied = PostingBlocks::Parse(
          reinterpret_cast<const uint8_t*>(expected.data()), expected.size(),
          &consumed, nullptr);
      ASSERT_TRUE(copied.ok()) << copied.status().ToString();
      EXPECT_EQ(consumed, expected.size());
      ExpectMatchesModel(*copied, model);

      auto owned = std::make_shared<std::vector<uint8_t>>(expected.begin(),
                                                          expected.end());
      Result<PostingBlocks> borrowed = PostingBlocks::Parse(
          owned->data(), owned->size(), &consumed, owned);
      ASSERT_TRUE(borrowed.ok()) << borrowed.status().ToString();
      owned.reset();
      ExpectMatchesModel(*borrowed, model);
      for (const PostingBlocks* pb : {&*copied, &*borrowed}) {
        std::string again;
        pb->AppendSerialized(&again);
        EXPECT_EQ(again, expected);
      }
    }
  }
}

// A blob written field by field, so its counts can disagree with its
// ids. Block i gets key i; an array block stores `lows` as given and a
// bitmap block sets their bits.
struct HandBlock {
  uint32_t count = 0;
  bool bitmap = false;
  std::vector<uint16_t> lows;
};

std::string HandBlob(uint32_t distinct, uint64_t total,
                     const std::vector<HandBlock>& blocks,
                     const std::vector<std::pair<Id, uint32_t>>& extra) {
  std::string out;
  auto put = [&out](auto v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto pad = [&out] { out.append((8 - out.size() % 8) % 8, '\0'); };
  put(static_cast<uint32_t>(blocks.size()));
  put(distinct);
  put(total);
  put(static_cast<uint32_t>(extra.size()));
  put(uint32_t{0});
  for (uint32_t key = 0; key < blocks.size(); ++key) {
    const std::vector<uint16_t>& lows = blocks[key].lows;
    put(key);
    put(blocks[key].count);
    put(*std::min_element(lows.begin(), lows.end()));
    put(*std::max_element(lows.begin(), lows.end()));
    put(static_cast<uint32_t>(blocks[key].bitmap ? 1 : 0));
  }
  for (const HandBlock& b : blocks) {
    pad();
    if (b.bitmap) {
      std::vector<uint64_t> words(PostingBlocks::kBitmapWords, 0);
      for (uint16_t low : b.lows) words[low / 64] |= uint64_t{1} << (low % 64);
      for (uint64_t w : words) put(w);
    } else {
      for (uint16_t low : b.lows) put(low);
    }
  }
  pad();
  for (const auto& [id, n] : extra) {
    put(id);
    put(n);
  }
  return out;
}

// Flat-snapshot bytes are outside input. A blob of at most kSmallIds
// occurrences whose ids disagree with its counts must be refused, owned
// or borrowed, and never written past the small form's ids.
TEST(PostingSmallFormParse, RefusesBlobsWhoseIdsDisagreeWithTheCounts) {
  std::vector<uint16_t> hundred(100);
  for (uint16_t i = 0; i < 100; ++i) hundred[i] = i;
  struct Case {
    const char* name;
    std::string blob;
  };
  const std::vector<Case> cases = {
      {"more distinct ids than occurrences",
       HandBlob(100, 1, {{100, false, hundred}}, {})},
      {"a block count over the distinct count",
       HandBlob(1, 1, {{100, false, hundred}}, {})},
      {"a bitmap block", HandBlob(1, 1, {{1, true, {5}}}, {})},
      {"a duplicate of an absent id",
       HandBlob(1, 2, {{1, false, {5}}}, {{9, 1}})},
      {"an unsorted array", HandBlob(2, 2, {{2, false, {7, 5}}}, {})},
      {"an id repeated in its array",
       HandBlob(2, 2, {{2, false, {5, 5}}}, {})},
  };
  for (const Case& c : cases) {
    auto owned =
        std::make_shared<std::vector<uint8_t>>(c.blob.begin(), c.blob.end());
    for (bool borrow : {false, true}) {
      size_t consumed = 0;
      Result<PostingBlocks> parsed = PostingBlocks::Parse(
          owned->data(), owned->size(), &consumed,
          borrow ? owned : nullptr);
      ASSERT_FALSE(parsed.ok()) << c.name << " borrow=" << borrow;
      EXPECT_TRUE(parsed.status().IsParseError()) << c.name;
      EXPECT_EQ(parsed.status().message().find("truncated"),
                std::string::npos)
          << c.name << ": " << parsed.status().ToString();
    }
  }

  // The builder itself writes a blob the parser takes.
  const std::string good = HandBlob(2, 3, {{2, false, {5, 7}}}, {{5, 1}});
  size_t consumed = 0;
  Result<PostingBlocks> parsed = PostingBlocks::Parse(
      reinterpret_cast<const uint8_t*>(good.data()), good.size(), &consumed,
      nullptr);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(consumed, good.size());
  EXPECT_TRUE(parsed->is_small());
  EXPECT_EQ(parsed->ToVector(), (std::vector<Id>{5, 5, 7}));
}

}  // namespace
}  // namespace vdg
