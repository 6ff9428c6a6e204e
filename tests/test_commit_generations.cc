// Commit-generation properties of the catalog's copy-on-write index.
// The writer edits the next snapshot generation in place and publishes
// it by pointer swap (src/catalog/cow.h), so these tests check what that
// must preserve, over seeded random mutation streams:
//  - after every commit, the published view equals a catalog rebuilt
//    from the journal (and, periodically, one reopened from a flat
//    snapshot plus the journal tail): Find*, All*, Get*, replicas per
//    dataset, invocations per derivation, equivalent-derivation
//    lookups, and the Explain* candidate counts;
//  - ChangesSince answers from the chunked window match the per-commit
//    deltas;
//  - views pinned k generations back stay byte-identical, also while
//    readers race the writer;
//  - a SymbolTable::View never resolves a name interned after it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/journal_record.h"
#include "common/rng.h"
#include "common/strings.h"

namespace vdg {
namespace {

std::string TempPath(const std::string& tag) {
  static int counter = 0;
  return ::testing::TempDir() + "/vdg_gen_" + std::to_string(::getpid()) +
         "_" + tag + "_" + std::to_string(++counter);
}

// ---------------------------------------------------------------------
// Observation: everything a reader can see through one view, rendered
// as text so two views compare with one EXPECT_EQ.
// ---------------------------------------------------------------------

std::string Join(const NameList& names) {
  std::string out;
  for (std::string_view name : names) {
    out.append(name);
    out.push_back(',');
  }
  return out;
}

template <typename T>
std::string JoinIds(const std::vector<T>& records) {
  std::string out;
  for (const T& record : records) out += record.id + ",";
  return out;
}

std::string Counts(const QueryPlan& plan) {
  return std::string(AccessPathName(plan.path)) + " est=" +
         std::to_string(plan.estimated_candidates) +
         " act=" + std::to_string(plan.actual_candidates);
}

std::vector<std::string> Render(const CatalogView& view) {
  std::vector<std::string> out;
  out.push_back("datasets " + Join(view.AllDatasetNames()));
  out.push_back("transformations " + Join(view.AllTransformationNames()));
  out.push_back("derivations " + Join(view.AllDerivationNames()));
  out.push_back("replicas " + Join(view.AllReplicaIds()));
  out.push_back("invocations " + Join(view.AllInvocationIds()));
  const CatalogStats stats = view.Stats();
  out.push_back("stats " + std::to_string(stats.replicas) + " " +
                std::to_string(stats.invocations) + " " +
                std::to_string(stats.total()));
  for (std::string_view name : view.AllDatasetNames()) {
    out.push_back(journal_record::Encode(*view.GetDataset(name)));
    out.push_back("materialized " + std::string(name) + "=" +
                  std::to_string(view.IsMaterialized(name)));
    out.push_back("consumers " + Join(view.ConsumersOf(name)));
    out.push_back("replicas " + JoinIds(view.ReplicasOf(name, false)) +
                  " valid " + JoinIds(view.ReplicasOf(name)));
  }
  for (std::string_view id : view.AllReplicaIds()) {
    out.push_back(journal_record::Encode(*view.GetReplica(id)));
  }
  // Invocations of removed derivations stay as the audit record, so
  // runs are listed per invocation's derivation, not per live one.
  for (std::string_view id : view.AllInvocationIds()) {
    const Invocation iv = *view.GetInvocation(id);
    out.push_back(journal_record::Encode(iv));
    out.push_back("runs " + JoinIds(view.InvocationsOf(iv.derivation)));
  }
  for (std::string_view name : view.AllTransformationNames()) {
    out.push_back(journal_record::Encode(*view.GetTransformation(name)));
    out.push_back("using " + Join(view.DerivationsUsing(name)));
  }
  for (std::string_view name : view.AllDerivationNames()) {
    const Derivation dv = *view.GetDerivation(name);
    out.push_back(journal_record::Encode(dv));
    Result<std::string> equivalent = view.FindEquivalentDerivation(dv);
    out.push_back("equivalent " +
                  (equivalent.ok() ? *equivalent : std::string("-")) +
                  " computed=" + std::to_string(view.HasBeenComputed(dv)));
  }

  std::vector<DatasetQuery> dataset_queries;
  for (const char* tier : {"gold", "std"}) {
    for (int64_t bin = -1; bin < 4; ++bin) {
      DatasetQuery q;
      q.predicates.push_back({"tier", PredicateOp::kEq, tier});
      if (bin >= 0) q.predicates.push_back({"bin", PredicateOp::kEq, bin});
      dataset_queries.push_back(q);
      q.require_materialized = true;
      dataset_queries.push_back(q);
      q.require_materialized = false;
      q.only_virtual = true;
      dataset_queries.push_back(q);
    }
  }
  for (const char* type : {"evt", "evt.raw"}) {
    DatasetQuery q;
    q.type = DatasetType{type, "", ""};
    dataset_queries.push_back(q);
    q.predicates.push_back({"tier", PredicateOp::kEq, "gold"});
    q.limit = 3;
    dataset_queries.push_back(q);
  }
  for (const char* prefix : {"", "d1", "o"}) {
    DatasetQuery q;
    q.name_prefix = prefix;
    dataset_queries.push_back(q);
    q.require_materialized = true;
    dataset_queries.push_back(q);
    q.require_materialized = false;
    q.predicates.push_back({"bin", PredicateOp::kGe, int64_t{2}});
    q.limit = 4;
    dataset_queries.push_back(q);
  }
  for (const DatasetQuery& q : dataset_queries) {
    out.push_back("find " + Join(view.FindDatasets(q)) + " | " +
                  Counts(view.ExplainFindDatasets(q)));
  }

  std::vector<DerivationQuery> derivation_queries;
  for (const char* tr : {"", "xf", "yf", "zf"}) {
    for (int i = -1; i < 4; ++i) {
      DerivationQuery q;
      q.transformation = tr;
      if (i >= 0) q.reads_dataset = "d" + std::to_string(i);
      derivation_queries.push_back(q);
      q.reads_dataset.clear();
      if (i >= 0) q.writes_dataset = "o" + std::to_string(i);
      derivation_queries.push_back(q);
    }
  }
  DerivationQuery prefixed;
  prefixed.name_prefix = "v1";
  derivation_queries.push_back(prefixed);
  for (const DerivationQuery& q : derivation_queries) {
    out.push_back("findv " + Join(view.FindDerivations(q)) + " | " +
                  Counts(view.ExplainFindDerivations(q)));
  }
  TransformationQuery all_tr;
  out.push_back("findt " + Join(view.FindTransformations(all_tr)));
  return out;
}

std::string RenderChanges(const std::vector<CatalogChange>& changes) {
  std::string out;
  for (const CatalogChange& c : changes) {
    out += std::to_string(c.version) + c.op + c.kind + ":" + c.name + ";";
  }
  return out;
}

// ---------------------------------------------------------------------
// Seeded mutation streams
// ---------------------------------------------------------------------

/// A catalog over a VectorJournal the test can read back.
struct Live {
  explicit Live(size_t changelog_capacity) {
    auto journal = std::make_unique<VectorJournal>();
    records = journal.get();
    catalog = std::make_unique<VirtualDataCatalog>("gen.org",
                                                   std::move(journal));
    EXPECT_TRUE(catalog->Open().ok());
    catalog->set_changelog_capacity(changelog_capacity);
  }
  std::unique_ptr<VirtualDataCatalog> catalog;
  VectorJournal* records = nullptr;
};

std::unique_ptr<VirtualDataCatalog> Rebuild(const Live& live) {
  auto journal = std::make_unique<VectorJournal>();
  EXPECT_TRUE(journal->Rewrite(live.records->records()).ok());
  auto rebuilt =
      std::make_unique<VirtualDataCatalog>("gen.org", std::move(journal));
  EXPECT_TRUE(rebuilt->Open().ok());
  return rebuilt;
}

class Stream {
 public:
  explicit Stream(uint64_t seed) : rng_(seed) {}

  /// One commit: a single call or one batch. Failures are part of the
  /// stream (duplicates, dangling references, aborted batches).
  void Commit(VirtualDataCatalog* catalog) {
    const int kind = static_cast<int>(rng_.Index(14));
    switch (kind) {
      case 0:
      case 1:
        (void)catalog->DefineDataset(RandomDataset());
        break;
      case 2:
        (void)catalog->DefineDerivation(RandomDerivation());
        break;
      case 3:
        if (rng_.Chance(0.2) && !replicas_.empty()) {
          (void)catalog->Annotate("replica", Pick(replicas_), RandomKey(),
                                  RandomValue());
        } else if (rng_.Chance(0.2) && !invocations_.empty()) {
          (void)catalog->Annotate("invocation", Pick(invocations_),
                                  RandomKey(), RandomValue());
        } else {
          (void)catalog->Annotate(RandomKind(), RandomObject(), RandomKey(),
                                  RandomValue());
        }
        break;
      case 4: {
        Result<std::string> id = catalog->AddReplica(RandomReplica());
        if (id.ok()) replicas_.push_back(*id);
        break;
      }
      case 5:
        if (!replicas_.empty()) {
          (void)catalog->InvalidateReplica(Pick(replicas_));
        }
        break;
      case 6:
        (void)catalog->RemoveDataset(DatasetName());
        break;
      case 7:
        (void)catalog->RemoveDerivation("v" + std::to_string(rng_.Index(30)));
        break;
      case 8:
        (void)catalog->SetDatasetSize(DatasetName(),
                                      static_cast<int64_t>(rng_.Index(1000)));
        break;
      case 9:
        if (rng_.Chance(0.5)) {
          (void)catalog->DefineTransformation(MakeTransformation("zf"));
        } else {
          (void)catalog->RemoveTransformation("zf");
        }
        break;
      case 10: {
        Result<std::string> id =
            catalog->RecordInvocation(RandomInvocation());
        if (id.ok()) invocations_.push_back(*id);
        break;
      }
      case 11:
        if (!replicas_.empty()) (void)catalog->RemoveReplica(Pick(replicas_));
        break;
      default:
        Batch(catalog);
        break;
    }
  }

  /// Transformations and types every stream starts from.
  static void Seed(VirtualDataCatalog* catalog) {
    ASSERT_TRUE(catalog
                    ->DefineType(TypeDimension::kContent, "evt",
                                 TypeDimensionBaseName(TypeDimension::kContent))
                    .ok());
    ASSERT_TRUE(
        catalog->DefineType(TypeDimension::kContent, "evt.raw", "evt").ok());
    ASSERT_TRUE(catalog->DefineTransformation(MakeTransformation("xf")).ok());
    ASSERT_TRUE(catalog->DefineTransformation(MakeTransformation("yf")).ok());
  }

 private:
  static Transformation MakeTransformation(const std::string& name) {
    Transformation tr(name, Transformation::Kind::kSimple);
    FormalArg out;
    out.name = "out";
    out.direction = ArgDirection::kOut;
    EXPECT_TRUE(tr.AddArg(std::move(out)).ok());
    FormalArg in;
    in.name = "in";
    in.direction = ArgDirection::kIn;
    EXPECT_TRUE(tr.AddArg(std::move(in)).ok());
    tr.set_executable("/bin/" + name);
    return tr;
  }

  const std::string& Pick(const std::vector<std::string>& ids) {
    return ids[rng_.Index(ids.size())];
  }
  std::string DatasetName() {
    return rng_.Chance(0.7) ? "d" + std::to_string(rng_.Index(30))
                            : "o" + std::to_string(rng_.Index(20));
  }
  std::string RandomKind() {
    const char* kinds[] = {"dataset", "dataset", "derivation",
                           "transformation"};
    return kinds[rng_.Index(4)];
  }
  std::string RandomObject() {
    switch (rng_.Index(3)) {
      case 0:
        return DatasetName();
      case 1:
        return "v" + std::to_string(rng_.Index(30));
      default:
        return rng_.Chance(0.5) ? "xf" : "yf";
    }
  }
  std::string RandomKey() {
    const char* keys[] = {"tier", "bin", "note"};
    return keys[rng_.Index(3)];
  }
  AttributeValue RandomValue() {
    if (rng_.Chance(0.5)) {
      return AttributeValue(rng_.Chance(0.5) ? "gold" : "std");
    }
    return AttributeValue(static_cast<int64_t>(rng_.Index(4)));
  }
  Dataset RandomDataset() {
    Dataset ds;
    ds.name = DatasetName();
    ds.descriptor = DatasetDescriptor::File("/data/" + ds.name);
    ds.size_bytes = static_cast<int64_t>(rng_.Index(5000));
    const char* types[] = {"", "evt", "evt.raw"};
    ds.type.content = types[rng_.Index(3)];
    ds.annotations.Set("tier", rng_.Chance(0.3) ? "gold" : "std");
    ds.annotations.Set("bin", static_cast<int64_t>(rng_.Index(4)));
    return ds;
  }
  Derivation RandomDerivation() {
    Derivation dv("v" + std::to_string(rng_.Index(30)),
                  rng_.Chance(0.5) ? "xf" : (rng_.Chance(0.8) ? "yf" : "zf"));
    EXPECT_TRUE(dv.AddArg(ActualArg::DatasetRef(
                              "out", "o" + std::to_string(rng_.Index(20)),
                              ArgDirection::kOut))
                    .ok());
    EXPECT_TRUE(dv.AddArg(ActualArg::DatasetRef("in", DatasetName(),
                                                ArgDirection::kIn))
                    .ok());
    return dv;
  }
  Replica RandomReplica() {
    Replica replica;
    replica.dataset = DatasetName();
    replica.site = "site" + std::to_string(rng_.Index(3));
    replica.physical_path = "/r/" + replica.dataset;
    return replica;
  }

  /// A run of a derivation that may not exist (a NotFound failure) and
  /// that may name a replica as its product.
  Invocation RandomInvocation() {
    Invocation iv;
    iv.derivation = "v" + std::to_string(rng_.Index(30));
    iv.context.site = "site" + std::to_string(rng_.Index(3));
    iv.start_time = static_cast<double>(rng_.Index(1000));
    iv.duration_s = static_cast<double>(rng_.Index(60));
    iv.succeeded = rng_.Chance(0.8);
    if (!replicas_.empty() && rng_.Chance(0.5)) {
      iv.produced_replicas.push_back(Pick(replicas_));
    }
    return iv;
  }

  void Batch(VirtualDataCatalog* catalog) {
    std::vector<CatalogMutation> ops;
    const size_t n = 2 + rng_.Index(5);
    for (size_t i = 0; i < n; ++i) {
      switch (rng_.Index(6)) {
        case 0:
          ops.push_back(CatalogMutation::DefineDataset(RandomDataset()));
          break;
        case 1:
          ops.push_back(CatalogMutation::DefineDerivation(RandomDerivation()));
          break;
        case 2:
          ops.push_back(CatalogMutation::Annotate(
              RandomKind(), RandomObject(), RandomKey(), RandomValue()));
          break;
        case 3:
          ops.push_back(CatalogMutation::AddReplica(RandomReplica()));
          break;
        case 4:
          ops.push_back(CatalogMutation::RecordInvocation(RandomInvocation()));
          break;
        default:
          ops.push_back(CatalogMutation::SetDatasetSize(
              DatasetName(), static_cast<int64_t>(rng_.Index(1000))));
          break;
      }
    }
    BatchOptions options;
    options.stop_on_error = rng_.Chance(0.5);
    BatchResult result = catalog->ApplyBatch(ops, options);
    for (size_t i = 0; i < ops.size(); ++i) {
      if (result.assigned_ids[i].empty()) continue;
      if (std::holds_alternative<CatalogMutation::AddReplicaOp>(ops[i].op)) {
        replicas_.push_back(result.assigned_ids[i]);
      } else {
        invocations_.push_back(result.assigned_ids[i]);
      }
    }
  }

  Rng rng_;
  std::vector<std::string> replicas_;
  std::vector<std::string> invocations_;
};

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

/// A view pinned at one generation, with what it showed then.
struct Pinned {
  CatalogView view;
  std::vector<std::string> picture;
  NameList datasets;
  std::string datasets_text;
  std::string changes;
};

std::string ChangesOf(const CatalogView& view) {
  Result<std::vector<CatalogChange>> changes =
      view.ChangesSince(view.changelog_floor());
  return changes.ok() ? RenderChanges(*changes) : changes.status().ToString();
}

TEST(CommitGenerations, EveryCommitMatchesJournalRebuild) {
  for (uint64_t seed : {11u, 29u, 83u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Live live(/*changelog_capacity=*/48);
    Stream::Seed(live.catalog.get());
    Stream stream(seed);
    std::deque<Pinned> pinned;
    std::vector<CatalogChange> history;
    const std::string snap_path = TempPath("snap");
    bool have_snapshot = false;

    for (int commit = 0; commit < 220; ++commit) {
      const uint64_t before = live.catalog->version();
      stream.Commit(live.catalog.get());
      CatalogView view = live.catalog->View();
      SCOPED_TRACE("commit=" + std::to_string(commit));

      // Published view == catalog rebuilt from the journal.
      std::vector<std::string> picture = Render(view);
      EXPECT_EQ(picture, Render(Rebuild(live)->View()));

      // Periodically: a flat snapshot plus the journal tail after it.
      if (commit % 40 == 10) {
        ASSERT_TRUE(live.catalog->SaveSnapshotFile(snap_path).ok());
        have_snapshot = true;
      } else if (have_snapshot && commit % 40 == 30) {
        auto journal = std::make_unique<VectorJournal>();
        ASSERT_TRUE(journal->Rewrite(live.records->records()).ok());
        VirtualDataCatalog reopened("gen.org", std::move(journal));
        ASSERT_TRUE(reopened.OpenFromSnapshot(snap_path).ok());
        ASSERT_TRUE(reopened.last_snapshot_load().used);
        EXPECT_GT(reopened.last_snapshot_load().tail_records_replayed, 0u);
        EXPECT_EQ(picture, Render(reopened.View()));
      }

      // The changelog window: every version it still covers answers
      // with exactly the deltas seen commit by commit.
      Result<std::vector<CatalogChange>> delta = view.ChangesSince(before);
      if (delta.ok()) {
        history.insert(history.end(), delta->begin(), delta->end());
      } else {
        EXPECT_TRUE(delta.status().IsFailedPrecondition());
        history.clear();  // an oversized batch emptied the window
      }
      for (uint64_t since = view.changelog_floor(); since <= view.version();
           since += 3) {
        Result<std::vector<CatalogChange>> got = view.ChangesSince(since);
        ASSERT_TRUE(got.ok()) << got.status().message();
        std::vector<CatalogChange> want;
        for (const CatalogChange& c : history) {
          if (c.version > since) want.push_back(c);
        }
        if (want.size() == got->size()) {
          EXPECT_EQ(RenderChanges(*got), RenderChanges(want)) << since;
        } else {
          // history restarted after a reset; it must be a suffix.
          ASSERT_GT(got->size(), want.size());
          EXPECT_EQ(RenderChanges(std::vector<CatalogChange>(
                        got->end() - static_cast<ptrdiff_t>(want.size()),
                        got->end())),
                    RenderChanges(want));
        }
      }

      // Views pinned up to four generations back are unchanged.
      for (const Pinned& old : pinned) {
        EXPECT_EQ(Render(old.view), old.picture);
        EXPECT_EQ(Join(old.datasets), old.datasets_text);
        EXPECT_EQ(ChangesOf(old.view), old.changes);
      }
      NameList names = view.AllDatasetNames();
      std::string names_text = Join(names);
      pinned.push_back(Pinned{view, std::move(picture), std::move(names),
                              std::move(names_text), ChangesOf(view)});
      if (pinned.size() > 4) pinned.pop_front();
    }
    std::remove(snap_path.c_str());
  }
}

TEST(CommitGenerations, PinnedViewsHoldWhileReadersRaceTheWriter) {
  Live live(/*changelog_capacity=*/64);
  Stream::Seed(live.catalog.get());
  std::atomic<bool> done{false};
  std::atomic<int> checks{0};
  auto reader = [&] {
    while (!done.load(std::memory_order_acquire)) {
      CatalogView view = live.catalog->View();
      std::vector<std::string> first = Render(view);
      std::string changes = ChangesOf(view);
      // Let the writer publish a few generations, then look again.
      std::this_thread::yield();
      EXPECT_EQ(Render(view), first);
      EXPECT_EQ(ChangesOf(view), changes);
      checks.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread a(reader);
  std::thread b(reader);
  Stream stream(5);
  for (int commit = 0; commit < 300; ++commit) {
    stream.Commit(live.catalog.get());
  }
  // Keep publishing until every reader has compared at least once.
  while (checks.load(std::memory_order_relaxed) < 2) {
    stream.Commit(live.catalog.get());
  }
  done.store(true, std::memory_order_release);
  a.join();
  b.join();
  EXPECT_EQ(Render(live.catalog->View()), Render(Rebuild(live)->View()));
}

TEST(CommitGenerations, SymbolViewNeverResolvesLaterNames) {
  SymbolTable table;
  Rng rng(3);
  std::vector<std::string> names;
  std::vector<SymbolTable::View> views;
  std::vector<size_t> published_at;
  // Enough names to cross several index rehashes and spine growths.
  for (int round = 0; round < 12; ++round) {
    const size_t n = 1 + rng.Index(900);
    for (size_t i = 0; i < n; ++i) {
      std::string name = "sym-" + std::to_string(names.size()) + "-" +
                         std::to_string(rng.Index(1000000));
      ASSERT_EQ(table.Intern(name), names.size());
      names.push_back(std::move(name));
    }
    views.push_back(table.Publish());
    published_at.push_back(names.size());
    for (size_t v = 0; v < views.size(); ++v) {
      const SymbolTable::View& view = views[v];
      ASSERT_EQ(view.size(), published_at[v]);
      for (size_t id = 0; id < names.size(); id += 1 + rng.Index(17)) {
        const bool visible = id < published_at[v];
        EXPECT_EQ(view.FindId(names[id]),
                  visible ? static_cast<SymbolTable::Id>(id)
                          : SymbolTable::kNoSymbol)
            << "view " << v << " name " << names[id];
        EXPECT_EQ(view.NameOf(static_cast<SymbolTable::Id>(id)),
                  visible ? std::string_view(names[id]) : std::string_view());
      }
      EXPECT_EQ(view.FindId("never-interned"), SymbolTable::kNoSymbol);
    }
  }
}

TEST(CommitGenerations, PinnedCatalogViewMissesLaterSymbols) {
  VirtualDataCatalog catalog("sym.org");
  ASSERT_TRUE(catalog.Open().ok());
  Dataset early;
  early.name = "early";
  early.descriptor = DatasetDescriptor::File("/early");
  ASSERT_TRUE(catalog.DefineDataset(early).ok());
  CatalogView pinned = catalog.View();
  for (int i = 0; i < 3000; ++i) {
    Dataset ds;
    ds.name = "later" + std::to_string(i);
    ds.descriptor = DatasetDescriptor::File("/" + ds.name);
    ds.annotations.Set("tag", static_cast<int64_t>(i));
    ASSERT_TRUE(catalog.DefineDataset(ds).ok());
  }
  const SymbolTable::View& symbols = pinned.snapshot().symbols;
  EXPECT_NE(symbols.FindId("early"), SymbolTable::kNoSymbol);
  for (int i = 0; i < 3000; i += 97) {
    EXPECT_EQ(symbols.FindId("later" + std::to_string(i)),
              SymbolTable::kNoSymbol);
    EXPECT_FALSE(pinned.HasDataset("later" + std::to_string(i)));
  }
  EXPECT_EQ(Join(pinned.AllDatasetNames()), "early,");
  EXPECT_TRUE(catalog.View().HasDataset("later2999"));
}

}  // namespace
}  // namespace vdg
