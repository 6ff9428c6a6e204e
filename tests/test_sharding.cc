// ShardedCatalogClient invariants (ISSUE 10): result-identity with an
// unsharded catalog across randomized predicate mixes, fail-closed
// partial-failure behavior, composite-version semantics, and the two
// coherence satellites — query-cache keys carrying the shard-set
// fingerprint, and FederatedIndex per-shard delta anchors converging
// with a full rebuild even when a refresh lands mid-ApplyBatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/sharding.h"
#include "catalog/wire.h"
#include "common/rng.h"
#include "federation/index.h"
#include "federation/remote_cache.h"
#include "schema/derivation.h"
#include "schema/transformation.h"

namespace vdg {
namespace {

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

/// Forwarding shard wrapper whose transport can be "unplugged": every
/// call fails with Unavailable while down. What a crashed shard server
/// looks like to the client.
class FlakyShard : public RequestClient {
 public:
  explicit FlakyShard(std::shared_ptr<CatalogClient> inner)
      : inner_(std::move(inner)) {}

  void set_down(bool down) { down_ = down; }

  const std::string& authority() const override {
    return inner_->authority();
  }
  bool read_only() const override { return inner_->read_only(); }

  Result<wire::Response> Call(const wire::Request& request) override {
    if (down_) return Status::Unavailable("shard down");
    return inner_->Call(request);
  }

 private:
  std::shared_ptr<CatalogClient> inner_;
  bool down_ = false;
};

/// N partition-mode shard catalogs behind a ShardedCatalogClient.
struct World {
  std::vector<std::unique_ptr<VirtualDataCatalog>> catalogs;
  std::vector<std::shared_ptr<CatalogClient>> clients;
  std::unique_ptr<ShardedCatalogClient> sharded;
};

World MakeWorld(uint32_t shard_count) {
  World world;
  for (uint32_t k = 0; k < shard_count; ++k) {
    auto catalog = std::make_unique<VirtualDataCatalog>(
        "shard" + std::to_string(k) + ".org");
    if (shard_count > 1) catalog->set_partition_mode(true);
    EXPECT_TRUE(catalog->Open().ok());
    world.clients.push_back(
        std::make_shared<InProcessCatalogClient>(catalog.get()));
    world.catalogs.push_back(std::move(catalog));
  }
  world.sharded = std::make_unique<ShardedCatalogClient>(world.clients);
  return world;
}

/// One unsharded reference catalog behind a plain in-process client.
struct Reference {
  std::unique_ptr<VirtualDataCatalog> catalog;
  std::shared_ptr<CatalogClient> client;
};

Reference MakeReference() {
  Reference ref;
  ref.catalog = std::make_unique<VirtualDataCatalog>("ref.org");
  EXPECT_TRUE(ref.catalog->Open().ok());
  ref.client = std::make_shared<InProcessCatalogClient>(ref.catalog.get());
  return ref;
}

/// The one-step transformation every workload derivation runs.
Transformation MakeXf(const std::string& name) {
  Transformation xf(name, Transformation::Kind::kSimple);
  FormalArg out;
  out.name = "out";
  out.direction = ArgDirection::kOut;
  EXPECT_TRUE(xf.AddArg(std::move(out)).ok());
  FormalArg in;
  in.name = "in";
  in.direction = ArgDirection::kIn;
  EXPECT_TRUE(xf.AddArg(std::move(in)).ok());
  xf.set_executable("/bin/" + name);
  return xf;
}

Derivation MakeStep(const std::string& name, const std::string& tr,
                    const std::string& input, const std::string& output) {
  Derivation dv(name, tr);
  EXPECT_TRUE(
      dv.AddArg(ActualArg::DatasetRef("out", output, ArgDirection::kOut)).ok());
  EXPECT_TRUE(
      dv.AddArg(ActualArg::DatasetRef("in", input, ArgDirection::kIn)).ok());
  return dv;
}

/// Applies one deterministic mixed workload through any client: the
/// same seed produces the same logical catalog content, so a sharded
/// client and the unsharded reference can be diffed query-by-query.
/// It opens with one batch that defines a transformation and, in the
/// same batch, a two-step chain that runs it.
Status ApplyWorkload(CatalogClient* client, uint64_t seed, size_t datasets,
                     size_t derivations) {
  Rng rng(seed);
  Dataset seed_input;
  seed_input.name = "s0";
  seed_input.descriptor = DatasetDescriptor::File("/data/s0");
  VDG_ASSIGN_OR_RETURN(
      BatchResult opening,
      client->ApplyBatch({CatalogMutation::DefineTransformation(MakeXf("xf")),
                          CatalogMutation::DefineDataset(seed_input),
                          CatalogMutation::DefineDerivation(
                              MakeStep("sv0", "xf", "s0", "so0")),
                          CatalogMutation::DefineDerivation(
                              MakeStep("sv1", "xf", "so0", "so1"))}));
  VDG_RETURN_IF_ERROR(opening.first_error);

  for (size_t i = 0; i < datasets; ++i) {
    Dataset ds;
    ds.name = "d" + std::to_string(i);
    ds.descriptor = DatasetDescriptor::File("/data/" + ds.name);
    ds.size_bytes = static_cast<int64_t>(1000 + i);
    ds.annotations.Set("bin", static_cast<int64_t>(i % 8));
    ds.annotations.Set("tier", i % 3 == 0 ? "gold" : "std");
    VDG_RETURN_IF_ERROR(client->DefineDataset(std::move(ds)));
  }
  for (size_t j = 0; j < derivations; ++j) {
    Derivation dv("v" + std::to_string(j), "xf");
    VDG_RETURN_IF_ERROR(dv.AddArg(ActualArg::DatasetRef(
        "out", "o" + std::to_string(j), ArgDirection::kOut)));
    VDG_RETURN_IF_ERROR(dv.AddArg(ActualArg::DatasetRef(
        "in", "d" + std::to_string(rng.Index(datasets)),
        ArgDirection::kIn)));
    VDG_RETURN_IF_ERROR(client->DefineDerivation(std::move(dv)));
  }
  for (size_t a = 0; a < datasets / 4; ++a) {
    VDG_RETURN_IF_ERROR(client->Annotate(
        "dataset", "d" + std::to_string(rng.Index(datasets)), "hot",
        static_cast<int64_t>(a)));
  }
  for (size_t r = 0; r < datasets / 5; ++r) {
    Replica replica;
    replica.dataset = "d" + std::to_string(rng.Index(datasets));
    replica.site = "site" + std::to_string(r % 3);
    replica.physical_path = "/replicas/" + std::to_string(r);
    VDG_RETURN_IF_ERROR(client->AddReplica(std::move(replica)).status());
  }
  return Status::OK();
}

/// Randomized predicate-mix queries; both clients must return the SAME
/// NameList bytes in the same (lexicographic) order.
void ExpectQueryEquivalence(CatalogClient* sharded, CatalogClient* reference,
                            uint64_t seed, int rounds) {
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    DatasetQuery dq;
    const char* prefixes[] = {"", "d", "o", "d1", "zzz"};
    dq.name_prefix = prefixes[rng.Index(5)];
    if (rng.Chance(0.5)) {
      dq.predicates.push_back(
          {"bin", PredicateOp::kEq, static_cast<int64_t>(rng.Index(8))});
    }
    if (rng.Chance(0.3)) {
      dq.predicates.push_back({"tier", PredicateOp::kEq, "gold"});
    }
    if (rng.Chance(0.3)) dq.require_materialized = true;
    if (rng.Chance(0.4)) {
      dq.limit = static_cast<size_t>(rng.UniformInt(1, 23));
    }
    Result<NameList> a = sharded->FindDatasets(dq);
    Result<NameList> b = reference->FindDatasets(dq);
    ASSERT_TRUE(a.ok()) << a.status().message();
    ASSERT_TRUE(b.ok()) << b.status().message();
    EXPECT_EQ(*a, *b) << "dataset query mismatch, round " << round;

    DerivationQuery vq;
    vq.name_prefix = rng.Chance(0.5) ? "v" : "";
    if (rng.Chance(0.3)) vq.transformation = "xf";
    if (rng.Chance(0.3)) {
      vq.reads_dataset = "d" + std::to_string(rng.Index(16));
    }
    if (rng.Chance(0.3)) {
      vq.writes_dataset = "o" + std::to_string(rng.Index(16));
    }
    if (rng.Chance(0.4)) {
      vq.limit = static_cast<size_t>(rng.UniformInt(1, 11));
    }
    Result<NameList> va = sharded->FindDerivations(vq);
    Result<NameList> vb = reference->FindDerivations(vq);
    ASSERT_TRUE(va.ok()) << va.status().message();
    ASSERT_TRUE(vb.ok()) << vb.status().message();
    EXPECT_EQ(*va, *vb) << "derivation query mismatch, round " << round;
  }
  for (const char* kind : {"dataset", "derivation", "transformation"}) {
    Result<NameList> a = sharded->AllNames(kind);
    Result<NameList> b = reference->AllNames(kind);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "AllNames(" << kind << ") mismatch";
  }
}

// ---------------------------------------------------------------------
// Merge plumbing
// ---------------------------------------------------------------------

TEST(MergeSortedNameLists, MergesAndLimits) {
  std::vector<NameList> lists;
  lists.push_back(NameList::FromStrings({"a", "d", "g"}));
  lists.push_back(NameList::FromStrings({"b", "e"}));
  lists.push_back(NameList::FromStrings({}));
  lists.push_back(NameList::FromStrings({"c", "f", "h"}));
  EXPECT_EQ(MergeSortedNameLists(lists, 0),
            (std::vector<std::string>{"a", "b", "c", "d", "e", "f", "g",
                                      "h"}));
  EXPECT_EQ(MergeSortedNameLists(lists, 3),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(MergeSortedNameLists({}, 0), (std::vector<std::string>{}));
}

// ---------------------------------------------------------------------
// Result identity with the unsharded catalog
// ---------------------------------------------------------------------

TEST(ShardedEquivalence, RandomizedQueriesMatchUnsharded) {
  for (uint32_t shard_count : {2u, 3u, 5u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shard_count));
    World world = MakeWorld(shard_count);
    Reference ref = MakeReference();
    ASSERT_TRUE(ApplyWorkload(world.sharded.get(), 7, 120, 40).ok());
    ASSERT_TRUE(ApplyWorkload(ref.client.get(), 7, 120, 40).ok());
    ExpectQueryEquivalence(world.sharded.get(), ref.client.get(),
                           91 + shard_count, 40);
  }
}

TEST(ShardedEquivalence, PointReadsAndProvenanceMatchUnsharded) {
  World world = MakeWorld(3);
  Reference ref = MakeReference();
  ASSERT_TRUE(ApplyWorkload(world.sharded.get(), 5, 60, 20).ok());
  ASSERT_TRUE(ApplyWorkload(ref.client.get(), 5, 60, 20).ok());
  for (int j = 0; j < 20; ++j) {
    const std::string output = "o" + std::to_string(j);
    Result<std::string> producer_s = world.sharded->ProducerOf(output);
    Result<std::string> producer_r = ref.client->ProducerOf(output);
    ASSERT_TRUE(producer_s.ok()) << producer_s.status().message();
    ASSERT_TRUE(producer_r.ok());
    EXPECT_EQ(*producer_s, *producer_r) << output;

    Result<ProvenanceStep> step_s = world.sharded->GetProvenanceStep(output);
    Result<ProvenanceStep> step_r = ref.client->GetProvenanceStep(output);
    ASSERT_TRUE(step_s.ok()) << step_s.status().message();
    ASSERT_TRUE(step_r.ok());
    EXPECT_EQ(step_s->producer, step_r->producer);
    EXPECT_EQ(step_s->exists, step_r->exists);
    ASSERT_TRUE(step_s->derivation.has_value());
    EXPECT_EQ(step_s->derivation->name(), step_r->derivation->name());
  }
  Result<Dataset> missing = world.sharded->GetDataset("nope");
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST(ShardedEquivalence, FindEquivalentDerivationMatchesUnsharded) {
  World world = MakeWorld(4);
  Reference ref = MakeReference();
  ASSERT_TRUE(ApplyWorkload(world.sharded.get(), 5, 60, 20).ok());
  ASSERT_TRUE(ApplyWorkload(ref.client.get(), 5, 60, 20).ok());
  Result<NameList> names = ref.client->AllNames("derivation");
  ASSERT_TRUE(names.ok());
  ASSERT_FALSE(names->empty());
  // Every recorded derivation is a hit, wherever the router homed it.
  for (std::string_view name : *names) {
    Result<Derivation> recorded = ref.client->GetDerivation(name);
    ASSERT_TRUE(recorded.ok());
    Result<std::string> hit_s =
        world.sharded->FindEquivalentDerivation(*recorded);
    Result<std::string> hit_r = ref.client->FindEquivalentDerivation(*recorded);
    ASSERT_TRUE(hit_s.ok()) << name << ": " << hit_s.status();
    ASSERT_TRUE(hit_r.ok()) << name;
    EXPECT_EQ(*hit_s, *hit_r);
  }
  // A computation nobody recorded is NotFound on both.
  Derivation novel = MakeStep("novel", "xf", "s0", "never-made");
  EXPECT_TRUE(
      world.sharded->FindEquivalentDerivation(novel).status().IsNotFound());
  EXPECT_TRUE(
      ref.client->FindEquivalentDerivation(novel).status().IsNotFound());
}

TEST(ShardedEquivalence, SameBatchTransformationPlacesDerivationOutputs) {
  // One batch defines the transformation and runs it twice: the second
  // step reads the first step's output. The planner must see the
  // batch's own transformation, or the batch reports OK without
  // pre-creating o1/o2 and ProducerOf(o1) names a derivation whose
  // outputs do not exist.
  Dataset a;
  a.name = "a";
  a.descriptor = DatasetDescriptor::File("/data/a");
  const std::vector<CatalogMutation> batch = {
      CatalogMutation::DefineTransformation(MakeXf("xf")),
      CatalogMutation::DefineDataset(a),
      CatalogMutation::DefineDerivation(MakeStep("d1", "xf", "a", "o1")),
      CatalogMutation::DefineDerivation(MakeStep("d2", "xf", "o1", "o2"))};
  World world = MakeWorld(4);
  Reference ref = MakeReference();
  for (CatalogClient* client : {static_cast<CatalogClient*>(
                                    world.sharded.get()),
                                ref.client.get()}) {
    Result<BatchResult> result = client->ApplyBatch(batch, {});
    ASSERT_TRUE(result.ok()) << result.status().message();
    ASSERT_TRUE(result->first_error.ok()) << result->first_error.message();
    EXPECT_EQ(result->applied, batch.size());
    for (const char* output : {"o1", "o2"}) {
      Result<bool> has = client->HasDataset(output);
      ASSERT_TRUE(has.ok());
      EXPECT_TRUE(*has) << output;
    }
    Result<std::string> producer = client->ProducerOf("o1");
    ASSERT_TRUE(producer.ok()) << producer.status().message();
    EXPECT_EQ(*producer, "d1");
    EXPECT_TRUE(client->GetDerivation(*producer).ok());
  }
  ExpectQueryEquivalence(world.sharded.get(), ref.client.get(), 5, 10);
}

TEST(ShardedEquivalence, ApplyBatchMatchesUnsharded) {
  World world = MakeWorld(4);
  Reference ref = MakeReference();
  ASSERT_TRUE(ApplyWorkload(world.sharded.get(), 3, 40, 10).ok());
  ASSERT_TRUE(ApplyWorkload(ref.client.get(), 3, 40, 10).ok());

  std::vector<CatalogMutation> batch;
  for (int i = 0; i < 12; ++i) {
    Dataset ds;
    ds.name = "batch-d" + std::to_string(i);
    ds.descriptor = DatasetDescriptor::File("/batch/" + ds.name);
    ds.annotations.Set("bin", static_cast<int64_t>(i % 8));
    batch.push_back(CatalogMutation::DefineDataset(std::move(ds)));
  }
  // Cross-shard intra-batch reference: annotate a replica added by an
  // earlier op of the same batch, by positional id.
  Replica replica;
  replica.dataset = "batch-d3";
  replica.site = "site0";
  const size_t replica_op = batch.size();
  batch.push_back(CatalogMutation::AddReplica(std::move(replica)));
  batch.push_back(CatalogMutation::AnnotateAssigned(
      "replica", replica_op, "checksum", "abc123"));
  batch.push_back(
      CatalogMutation::Annotate("dataset", "batch-d7", "hot", int64_t{1}));
  batch.push_back(CatalogMutation::SetDatasetSize("batch-d1", 4096));
  Derivation dv("batch-v0", "xf");
  ASSERT_TRUE(
      dv.AddArg(ActualArg::DatasetRef("out", "batch-o0", ArgDirection::kOut))
          .ok());
  ASSERT_TRUE(
      dv.AddArg(ActualArg::DatasetRef("in", "batch-d2", ArgDirection::kIn))
          .ok());
  batch.push_back(CatalogMutation::DefineDerivation(dv));

  BatchOptions options;
  options.idempotency_token = "batch-eq";
  Result<BatchResult> result_s = world.sharded->ApplyBatch(batch, options);
  Result<BatchResult> result_r = ref.client->ApplyBatch(batch, options);
  ASSERT_TRUE(result_s.ok()) << result_s.status().message();
  ASSERT_TRUE(result_r.ok());
  ASSERT_EQ(result_s->statuses.size(), result_r->statuses.size());
  for (size_t i = 0; i < result_s->statuses.size(); ++i) {
    EXPECT_EQ(result_s->statuses[i].ok(), result_r->statuses[i].ok())
        << "op " << i << ": " << result_s->statuses[i].message();
  }
  EXPECT_EQ(result_s->applied, result_r->applied);
  ExpectQueryEquivalence(world.sharded.get(), ref.client.get(), 77, 20);
}

// ---------------------------------------------------------------------
// Single mutations: placement and broadcast merge
// ---------------------------------------------------------------------

/// Forwarding shard wrapper that logs every request kind it receives,
/// tagged with its shard index, into one log shared by the whole shard
/// set: the log shows which shards a mutation reached, and in what
/// order.
class RecordingShard : public RequestClient {
 public:
  using Log = std::vector<std::pair<uint32_t, wire::MsgKind>>;

  RecordingShard(std::shared_ptr<CatalogClient> inner, uint32_t index,
                 std::shared_ptr<Log> log)
      : inner_(std::move(inner)), index_(index), log_(std::move(log)) {}

  const std::string& authority() const override {
    return inner_->authority();
  }
  bool read_only() const override { return inner_->read_only(); }

  Result<wire::Response> Call(const wire::Request& request) override {
    log_->emplace_back(index_, request.kind);
    return inner_->Call(request);
  }

 private:
  std::shared_ptr<CatalogClient> inner_;
  uint32_t index_;
  std::shared_ptr<Log> log_;
};

/// The shards that received `kind` from log position `from` on, in
/// arrival order.
std::vector<uint32_t> ShardsThatGot(const RecordingShard::Log& log,
                                    size_t from, wire::MsgKind kind) {
  std::vector<uint32_t> shards;
  for (size_t i = from; i < log.size(); ++i) {
    if (log[i].second == kind) shards.push_back(log[i].first);
  }
  return shards;
}

/// Position of the first (shard, kind) entry from `from` on; npos if
/// none.
size_t FindInLog(const RecordingShard::Log& log, size_t from, uint32_t shard,
                 wire::MsgKind kind) {
  for (size_t i = from; i < log.size(); ++i) {
    if (log[i].first == shard && log[i].second == kind) return i;
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------
// Zero-copy ingest: the router forwards shared define payloads
// ---------------------------------------------------------------------

TEST(ShardedIngest, RouterForwardsSharedPayloadsToTheRows) {
  // A dataset and a derivation land as one row each on their home
  // shard; the broadcast transformation is one object on all four.
  // Nothing the router built for the split outlives the call.
  constexpr uint32_t kShards = 4;
  World world = MakeWorld(kShards);
  Dataset a;
  a.name = "a";
  a.descriptor = DatasetDescriptor::File("/data/a");
  const std::vector<CatalogMutation> batch = {
      CatalogMutation::DefineTransformation(MakeXf("xf")),
      CatalogMutation::DefineDataset(a),
      CatalogMutation::DefineDerivation(MakeStep("d1", "xf", "a", "o1"))};
  const auto& tr =
      std::get<CatalogMutation::DefineTransformationOp>(batch[0].op)
          .transformation;
  const auto& ds = std::get<CatalogMutation::DefineDatasetOp>(batch[1].op)
                       .dataset;
  const auto& dv = std::get<CatalogMutation::DefineDerivationOp>(batch[2].op)
                       .derivation;
  Result<BatchResult> result = world.sharded->ApplyBatch(batch, {});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->first_error.ok()) << result->first_error;
  EXPECT_EQ(ds.use_count(), 2);
  EXPECT_EQ(dv.use_count(), 2);
  EXPECT_EQ(tr.use_count(), 1 + kShards);
  // The synthetic output o1 was pre-created on its home shard.
  Result<bool> has = world.sharded->HasDataset("o1");
  ASSERT_TRUE(has.ok());
  EXPECT_TRUE(*has);
}

TEST(ShardedIngest, RejectedDefinesLeaveThePayloadUnshared) {
  World world = MakeWorld(4);
  Dataset a;
  a.name = "a";
  a.descriptor = DatasetDescriptor::File("/data/a");
  ASSERT_TRUE(world.sharded->DefineTransformation(MakeXf("xf")).ok());
  ASSERT_TRUE(world.sharded->DefineDataset(a).ok());
  ASSERT_TRUE(
      world.sharded->DefineDerivation(MakeStep("d1", "xf", "a", "o1")).ok());
  Dataset unnamed = a;
  unnamed.name = "";
  const std::vector<CatalogMutation> batch = {
      CatalogMutation::DefineTransformation(MakeXf("xf")),
      CatalogMutation::DefineDataset(a),
      CatalogMutation::DefineDerivation(MakeStep("d1", "xf", "a", "o1")),
      CatalogMutation::DefineDataset(unnamed)};
  Result<BatchResult> result = world.sharded->ApplyBatch(batch, {});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->statuses.size(), batch.size());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(result->statuses[i].IsAlreadyExists())
        << i << ": " << result->statuses[i];
  }
  EXPECT_FALSE(result->statuses[3].ok());
  EXPECT_EQ(result->applied, 0u);
  EXPECT_EQ(std::get<CatalogMutation::DefineTransformationOp>(batch[0].op)
                .transformation.use_count(),
            1);
  EXPECT_EQ(std::get<CatalogMutation::DefineDatasetOp>(batch[1].op)
                .dataset.use_count(),
            1);
  EXPECT_EQ(std::get<CatalogMutation::DefineDerivationOp>(batch[2].op)
                .derivation.use_count(),
            1);
  EXPECT_EQ(std::get<CatalogMutation::DefineDatasetOp>(batch[3].op)
                .dataset.use_count(),
            1);
}

bool Contains(const std::vector<uint32_t>& shards, uint32_t shard) {
  return std::find(shards.begin(), shards.end(), shard) != shards.end();
}

TEST(ShardedMutations, SingleMutationsMatchUnsharded) {
  using K = wire::MsgKind;
  constexpr uint32_t kShards = 4;
  auto log = std::make_shared<RecordingShard::Log>();
  std::vector<std::unique_ptr<VirtualDataCatalog>> catalogs;
  std::vector<std::shared_ptr<CatalogClient>> clients;
  for (uint32_t k = 0; k < kShards; ++k) {
    auto catalog = std::make_unique<VirtualDataCatalog>(
        "shard" + std::to_string(k) + ".org");
    catalog->set_partition_mode(true);
    ASSERT_TRUE(catalog->Open().ok());
    clients.push_back(std::make_shared<RecordingShard>(
        std::make_shared<InProcessCatalogClient>(catalog.get()), k, log));
    catalogs.push_back(std::move(catalog));
  }
  ShardedCatalogClient sharded(clients);
  Reference ref = MakeReference();
  const std::vector<CatalogClient*> both = {&sharded, ref.client.get()};
  const std::vector<uint32_t> every_shard = {0, 1, 2, 3};

  // Broadcast DefineTransformation: one kDefineTransformation per
  // shard; the retry answer is AlreadyExists, as unsharded.
  size_t mark = log->size();
  for (CatalogClient* client : both) {
    ASSERT_TRUE(client->DefineTransformation(MakeXf("xf")).ok());
  }
  EXPECT_EQ(ShardsThatGot(*log, mark, K::kDefineTransformation), every_shard);
  for (CatalogClient* client : both) {
    EXPECT_TRUE(client->DefineTransformation(MakeXf("xf")).IsAlreadyExists());
  }

  // Annotate on a transformation reaches every shard as kAnnotate.
  mark = log->size();
  for (CatalogClient* client : both) {
    ASSERT_TRUE(client->Annotate("transformation", "xf", "owner", "ops").ok());
  }
  EXPECT_EQ(ShardsThatGot(*log, mark, K::kAnnotate), every_shard);
  for (const auto& catalog : catalogs) {
    EXPECT_TRUE(catalog->GetTransformation("xf")->annotations().Has("owner"))
        << catalog->name();
  }
  EXPECT_TRUE(
      ref.catalog->GetTransformation("xf")->annotations().Has("owner"));
  for (CatalogClient* client : both) {
    EXPECT_TRUE(client->Annotate("transformation", "ghost", "k", "v")
                    .IsNotFound());
  }

  // A DefineDerivation whose output hashes to another shard: the output
  // is pre-created on its own home shard before the derivation commits
  // on the derivation's.
  Dataset input;
  input.name = "in";
  input.descriptor = DatasetDescriptor::File("/data/in");
  for (CatalogClient* client : both) {
    ASSERT_TRUE(client->DefineDataset(input).ok());
  }
  const uint32_t dv_home = sharded.ShardOf("dv");
  std::string output;
  for (int i = 0; output.empty(); ++i) {
    std::string candidate = "out" + std::to_string(i);
    if (sharded.ShardOf(candidate) != dv_home) output = candidate;
  }
  mark = log->size();
  for (CatalogClient* client : both) {
    ASSERT_TRUE(
        client->DefineDerivation(MakeStep("dv", "xf", "in", output)).ok());
  }
  const size_t precreate =
      FindInLog(*log, mark, sharded.ShardOf(output), K::kDefineDataset);
  const size_t commit = FindInLog(*log, mark, dv_home, K::kDefineDerivation);
  ASSERT_NE(precreate, std::string::npos);
  ASSERT_NE(commit, std::string::npos);
  EXPECT_LT(precreate, commit);
  for (CatalogClient* client : both) {
    Result<Dataset> out = client->GetDataset(output);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(out->producer, "dv");
    Result<std::string> producer = client->ProducerOf(output);
    ASSERT_TRUE(producer.ok()) << producer.status();
    EXPECT_EQ(*producer, "dv");
  }

  // Id assignment: a client-assigned id names the shard that holds the
  // object, and only that shard sees the op.
  const uint32_t in_home = sharded.ShardOf("in");
  Replica replica;
  replica.dataset = "in";
  replica.site = "site0";
  mark = log->size();
  Result<std::string> rp_id = sharded.AddReplica(replica);
  ASSERT_TRUE(rp_id.ok()) << rp_id.status();
  EXPECT_EQ(ShardsThatGot(*log, mark, K::kAddReplica),
            std::vector<uint32_t>{in_home});
  EXPECT_EQ(rp_id->rfind("rp-s" + std::to_string(in_home) + "-", 0), 0u)
      << *rp_id;
  EXPECT_TRUE(catalogs[in_home]->GetReplica(*rp_id).ok());
  Result<std::string> ref_rp_id = ref.client->AddReplica(replica);
  ASSERT_TRUE(ref_rp_id.ok());

  Invocation invocation;
  invocation.derivation = "dv";
  mark = log->size();
  Result<std::string> iv_id = sharded.RecordInvocation(invocation);
  ASSERT_TRUE(iv_id.ok()) << iv_id.status();
  EXPECT_EQ(ShardsThatGot(*log, mark, K::kRecordInvocation),
            std::vector<uint32_t>{dv_home});
  EXPECT_EQ(iv_id->rfind("iv-s" + std::to_string(dv_home) + "-", 0), 0u)
      << *iv_id;
  EXPECT_TRUE(catalogs[dv_home]->GetInvocation(*iv_id).ok());
  Result<std::string> ref_iv_id = ref.client->RecordInvocation(invocation);
  ASSERT_TRUE(ref_iv_id.ok());

  // Annotate under a client-assigned id: exactly the named shard.
  mark = log->size();
  ASSERT_TRUE(sharded.Annotate("replica", *rp_id, "checksum", "abc").ok());
  ASSERT_TRUE(sharded.Annotate("invocation", *iv_id, "node", "n1").ok());
  EXPECT_EQ(ShardsThatGot(*log, mark, K::kAnnotate),
            (std::vector<uint32_t>{in_home, dv_home}));
  ASSERT_TRUE(
      ref.client->Annotate("replica", *ref_rp_id, "checksum", "abc").ok());
  ASSERT_TRUE(
      ref.client->Annotate("invocation", *ref_iv_id, "node", "n1").ok());
  EXPECT_TRUE(catalogs[in_home]->GetReplica(*rp_id)->annotations.Has(
      "checksum"));
  EXPECT_TRUE(
      catalogs[dv_home]->GetInvocation(*iv_id)->annotations.Has("node"));

  // Caller-supplied ids name no shard: the op still lands on the shard
  // holding the object, as a single kAnnotate / kInvalidateReplica.
  Replica mine = replica;
  mine.id = "site-copy-1";
  Invocation run = invocation;
  run.id = "run-1";
  for (CatalogClient* client : both) {
    EXPECT_EQ(client->AddReplica(mine).value_or(""), "site-copy-1");
    EXPECT_EQ(client->RecordInvocation(run).value_or(""), "run-1");
  }
  mark = log->size();
  for (CatalogClient* client : both) {
    ASSERT_TRUE(client->Annotate("replica", "site-copy-1", "k", "v").ok());
  }
  EXPECT_TRUE(Contains(ShardsThatGot(*log, mark, K::kAnnotate), in_home));
  mark = log->size();
  for (CatalogClient* client : both) {
    ASSERT_TRUE(client->Annotate("invocation", "run-1", "k", "v").ok());
  }
  EXPECT_TRUE(Contains(ShardsThatGot(*log, mark, K::kAnnotate), dv_home));
  EXPECT_TRUE(
      catalogs[in_home]->GetReplica("site-copy-1")->annotations.Has("k"));
  EXPECT_TRUE(catalogs[dv_home]->GetInvocation("run-1")->annotations.Has("k"));
  EXPECT_TRUE(ref.catalog->GetReplica("site-copy-1")->annotations.Has("k"));
  EXPECT_TRUE(ref.catalog->GetInvocation("run-1")->annotations.Has("k"));

  mark = log->size();
  for (CatalogClient* client : both) {
    ASSERT_TRUE(client->InvalidateReplica("site-copy-1").ok());
  }
  EXPECT_TRUE(
      Contains(ShardsThatGot(*log, mark, K::kInvalidateReplica), in_home));
  EXPECT_FALSE(catalogs[in_home]->GetReplica("site-copy-1")->valid);
  EXPECT_FALSE(ref.catalog->GetReplica("site-copy-1")->valid);
  for (CatalogClient* client : both) {
    // The client-assigned replica still materializes the dataset.
    EXPECT_TRUE(client->IsMaterialized("in").value_or(false));
    EXPECT_TRUE(client->InvalidateReplica("nowhere").IsNotFound());
    EXPECT_TRUE(client->Annotate("replica", "nowhere", "k", "v").IsNotFound());
    EXPECT_TRUE(
        client->Annotate("invocation", "nowhere", "k", "v").IsNotFound());
  }

  // No single mutation went out as a batch.
  EXPECT_TRUE(ShardsThatGot(*log, 0, K::kApplyBatch).empty());
  ExpectQueryEquivalence(&sharded, ref.client.get(), 17, 10);
}

// ---------------------------------------------------------------------
// Partial failure: fail closed, never truncate
// ---------------------------------------------------------------------

TEST(ShardedFaults, DownShardFailsGatherClosed) {
  std::vector<std::unique_ptr<VirtualDataCatalog>> catalogs;
  std::vector<std::shared_ptr<CatalogClient>> clients;
  std::shared_ptr<FlakyShard> flaky;
  for (uint32_t k = 0; k < 4; ++k) {
    auto catalog = std::make_unique<VirtualDataCatalog>(
        "shard" + std::to_string(k) + ".org");
    catalog->set_partition_mode(true);
    ASSERT_TRUE(catalog->Open().ok());
    std::shared_ptr<CatalogClient> client =
        std::make_shared<InProcessCatalogClient>(catalog.get());
    if (k == 2) {
      flaky = std::make_shared<FlakyShard>(client);
      client = flaky;
    }
    clients.push_back(std::move(client));
    catalogs.push_back(std::move(catalog));
  }
  ShardedCatalogClient sharded(clients);
  ASSERT_TRUE(ApplyWorkload(&sharded, 21, 64, 16).ok());

  Result<NameList> healthy = sharded.FindDatasets(DatasetQuery{});
  ASSERT_TRUE(healthy.ok());
  const size_t full_size = healthy->size();
  ASSERT_GT(full_size, 0u);

  flaky->set_down(true);
  // Scatter reads: the whole gather fails — never a silently truncated
  // result missing one shard's names.
  Result<NameList> datasets = sharded.FindDatasets(DatasetQuery{});
  ASSERT_FALSE(datasets.ok());
  EXPECT_TRUE(datasets.status().IsUnavailable())
      << datasets.status().message();
  EXPECT_TRUE(sharded.AllNames("dataset").status().IsUnavailable());
  EXPECT_TRUE(sharded.Version().status().IsUnavailable());
  EXPECT_TRUE(sharded.ShardVersions().status().IsUnavailable());

  // Point ops: only names homed on the dead shard fail.
  bool saw_down = false, saw_up = false;
  for (int i = 0; i < 64; ++i) {
    const std::string name = "d" + std::to_string(i);
    Result<Dataset> ds = sharded.GetDataset(name);
    if (sharded.ShardOf(name) == 2) {
      EXPECT_TRUE(ds.status().IsUnavailable()) << name;
      saw_down = true;
    } else {
      EXPECT_TRUE(ds.ok()) << name << ": " << ds.status().message();
      saw_up = true;
    }
  }
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(saw_up);

  flaky->set_down(false);
  Result<NameList> recovered = sharded.FindDatasets(DatasetQuery{});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->size(), full_size);
}

// ---------------------------------------------------------------------
// Composite versions
// ---------------------------------------------------------------------

TEST(ShardedVersions, CompositeIsSumAndNotDeltaAddressable) {
  World world = MakeWorld(3);
  ASSERT_TRUE(ApplyWorkload(world.sharded.get(), 9, 48, 12).ok());

  Result<uint64_t> version = world.sharded->Version();
  Result<std::vector<uint64_t>> shard_versions =
      world.sharded->ShardVersions();
  ASSERT_TRUE(version.ok());
  ASSERT_TRUE(shard_versions.ok());
  ASSERT_EQ(shard_versions->size(), 3u);
  uint64_t sum = 0;
  for (uint64_t v : *shard_versions) sum += v;
  EXPECT_EQ(*version, sum);

  // Trivial cases answer; everything else steers to the shard API.
  Result<std::vector<CatalogChange>> empty =
      world.sharded->ChangesSince(*version);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_TRUE(world.sharded->ChangesSince(*version + 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(world.sharded->ChangesSince(*version - 1)
                  .status()
                  .IsFailedPrecondition());

  // Per-shard changelogs are the real delta source.
  for (uint32_t k = 0; k < 3; ++k) {
    Result<std::vector<CatalogChange>> changes =
        world.sharded->ShardChangesSince(k, 0);
    ASSERT_TRUE(changes.ok());
    ASSERT_FALSE(changes->empty());
    EXPECT_EQ(changes->back().version, (*shard_versions)[k]);
  }
  EXPECT_TRUE(
      world.sharded->ShardChangesSince(3, 0).status().IsInvalidArgument());

  ShardTopology topo = world.sharded->shard_topology();
  EXPECT_EQ(topo.shard_count, 3u);
  EXPECT_NE(topo.fingerprint, 0u);
}

TEST(ShardedFaults, BroadcastMutationsMergeEveryShardsAnswer) {
  // Shard 0 is down; the replica lives on a later shard, so a walk that
  // stopped at the first failure would never reach it.
  std::vector<std::unique_ptr<VirtualDataCatalog>> catalogs;
  std::vector<std::shared_ptr<CatalogClient>> clients;
  std::shared_ptr<FlakyShard> flaky;
  for (uint32_t k = 0; k < 3; ++k) {
    auto catalog = std::make_unique<VirtualDataCatalog>(
        "shard" + std::to_string(k) + ".org");
    catalog->set_partition_mode(true);
    ASSERT_TRUE(catalog->Open().ok());
    std::shared_ptr<CatalogClient> client =
        std::make_shared<InProcessCatalogClient>(catalog.get());
    if (k == 0) {
      flaky = std::make_shared<FlakyShard>(client);
      client = flaky;
    }
    clients.push_back(std::move(client));
    catalogs.push_back(std::move(catalog));
  }
  ShardedCatalogClient sharded(clients);
  ASSERT_TRUE(sharded.DefineTransformation(MakeXf("xf")).ok());
  Dataset ds;
  for (int i = 0; ds.name.empty() || sharded.ShardOf(ds.name) == 0; ++i) {
    ds.name = "d" + std::to_string(i);
  }
  ASSERT_TRUE(sharded.DefineDataset(ds).ok());
  Replica replica;
  replica.id = "site-copy-1";
  replica.dataset = ds.name;
  replica.site = "site0";
  ASSERT_TRUE(sharded.AddReplica(replica).ok());

  flaky->set_down(true);
  // Every shard must hold a transformation: one down shard fails the
  // op, and the shards that are up still apply it.
  EXPECT_TRUE(
      sharded.Annotate("transformation", "xf", "k", "v").IsUnavailable());
  EXPECT_TRUE(catalogs[2]->GetTransformation("xf")->annotations().Has("k"));
  // A caller-supplied id: the shard that holds the replica answers.
  EXPECT_TRUE(sharded.Annotate("replica", "site-copy-1", "k", "v").ok());
  EXPECT_TRUE(sharded.InvalidateReplica("site-copy-1").ok());
  EXPECT_FALSE(catalogs[sharded.ShardOf(ds.name)]
                   ->GetReplica("site-copy-1")
                   ->valid);
  // No shard that is up holds it: the down shard might have.
  EXPECT_TRUE(sharded.InvalidateReplica("nowhere").IsUnavailable());
}

TEST(ShardedFaults, UnusableShardSetAnswersEveryCallWithAnError) {
  // An empty list, or a null client in a non-empty one, used to crash
  // inside the constructor.
  World world = MakeWorld(2);
  std::vector<std::vector<std::shared_ptr<CatalogClient>>> unusable = {
      {}, {nullptr}, {world.clients[0], nullptr}};
  for (const auto& shards : unusable) {
    SCOPED_TRACE(shards.size());
    ShardedCatalogClient sharded(shards);
    EXPECT_FALSE(sharded.read_only());
    EXPECT_TRUE(sharded.Version().status().IsInvalidArgument());
    EXPECT_TRUE(sharded.ShardVersions().status().IsInvalidArgument());
    EXPECT_TRUE(sharded.ShardChangesSince(0, 0).status().IsInvalidArgument());
    EXPECT_TRUE(sharded.GetDataset("d").status().IsInvalidArgument());
    EXPECT_TRUE(sharded.FindDatasets({}).status().IsInvalidArgument());
    EXPECT_TRUE(sharded.GetProvenanceStep("d").status().IsInvalidArgument());
    Dataset ds;
    ds.name = "d";
    EXPECT_TRUE(sharded.DefineDataset(ds).IsInvalidArgument());
    EXPECT_TRUE(sharded.DefineTransformation(MakeXf("xf")).IsInvalidArgument());
    Result<BatchResult> batch =
        sharded.ApplyBatch({CatalogMutation::DefineDataset(ds)});
    EXPECT_TRUE(batch.status().IsInvalidArgument());
    // A Reshard to a usable set brings it up.
    ASSERT_TRUE(sharded.Reshard(world.clients).ok());
    ds.name = "d" + std::to_string(shards.size());
    EXPECT_TRUE(sharded.DefineDataset(ds).ok());
    EXPECT_TRUE(sharded.GetDataset(ds.name).ok());
  }
}

TEST(ShardedVersions, ReshardChangesFingerprint) {
  World world = MakeWorld(2);
  const uint64_t before = world.sharded->shard_topology().fingerprint;
  // Same backends, swapped order: placement changes, so the
  // fingerprint must too.
  std::vector<std::shared_ptr<CatalogClient>> swapped = {world.clients[1],
                                                         world.clients[0]};
  ASSERT_TRUE(world.sharded->Reshard(swapped).ok());
  EXPECT_NE(world.sharded->shard_topology().fingerprint, before);
  EXPECT_EQ(world.sharded->shard_topology().shard_count, 2u);
  EXPECT_TRUE(world.sharded
                  ->Reshard(std::vector<std::shared_ptr<CatalogClient>>{})
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Satellite 2: query-cache keys carry the shard-set fingerprint
// ---------------------------------------------------------------------

TEST(ShardedCaching, ReshardNeverServesStaleTopologyResults) {
  World world = MakeWorld(2);
  ASSERT_TRUE(ApplyWorkload(world.sharded.get(), 15, 40, 8).ok());
  std::shared_ptr<ShardedCatalogClient> sharded = std::move(world.sharded);
  CachingCatalogClient cache(sharded);

  DatasetQuery query;
  query.name_prefix = "d";
  Result<NameList> first = cache.FindDatasets(query);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.stats().query_misses, 1u);
  Result<NameList> hit = cache.FindDatasets(query);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(cache.stats().query_hits, 1u);
  // A hit aliases the same immutable list (PR 9 contract), even
  // through the sharded gather.
  EXPECT_EQ(hit->identity(), first->identity());

  // Reshard: same data, new topology. The old cache entry's key holds
  // the dead fingerprint, so the next query MUST miss and refetch —
  // a stale-topology result can never be served.
  std::vector<std::shared_ptr<CatalogClient>> swapped = {world.clients[1],
                                                         world.clients[0]};
  ASSERT_TRUE(sharded->Reshard(swapped).ok());
  Result<NameList> after = cache.FindDatasets(query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(cache.stats().query_misses, 2u);
  EXPECT_NE(after->identity(), first->identity());
  EXPECT_EQ(*after, *first);  // same logical content, fresh fetch
}

TEST(ShardedCaching, RevalidateWalksPerShardAnchors) {
  World world = MakeWorld(3);
  ASSERT_TRUE(ApplyWorkload(world.sharded.get(), 17, 48, 12).ok());
  std::shared_ptr<ShardedCatalogClient> sharded = std::move(world.sharded);
  CachingCatalogClient cache(sharded);

  ASSERT_TRUE(cache.Revalidate().ok());
  Result<uint64_t> composite = sharded->Version();
  ASSERT_TRUE(composite.ok());
  EXPECT_EQ(cache.synced_version(), *composite);

  // Warm a point read, then mutate BEHIND the cache through the raw
  // shard client: only Revalidate can learn about it.
  Result<Dataset> before = cache.GetDataset("d1");
  ASSERT_TRUE(before.ok());
  const uint32_t home = sharded->ShardOf("d1");
  ASSERT_TRUE(
      world.clients[home]->SetDatasetSize("d1", before->size_bytes + 555)
          .ok());
  Result<Dataset> stale = cache.GetDataset("d1");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->size_bytes, before->size_bytes);  // cached, by design

  const uint64_t flushes_before = cache.stats().flushes;
  ASSERT_TRUE(cache.Revalidate().ok());
  // Per-shard delta path: the changed object was evicted precisely,
  // not via a whole-cache flush.
  EXPECT_EQ(cache.stats().flushes, flushes_before);
  Result<Dataset> fresh = cache.GetDataset("d1");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->size_bytes, before->size_bytes + 555);
  Result<uint64_t> now = sharded->Version();
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(cache.synced_version(), *now);
}

// ---------------------------------------------------------------------
// Satellite 1: FederatedIndex per-shard delta anchors
// ---------------------------------------------------------------------

TEST(ShardedIndex, DeltaRefreshUsesPerShardAnchors) {
  World world = MakeWorld(3);
  ASSERT_TRUE(ApplyWorkload(world.sharded.get(), 19, 48, 12).ok());
  std::shared_ptr<ShardedCatalogClient> sharded = std::move(world.sharded);

  FederatedIndex index("sharded-src");
  ASSERT_TRUE(index.AddSource(sharded).ok());
  ASSERT_TRUE(index.Refresh().ok());
  // The bootstrap itself is a delta walk from zero anchors, not a
  // rebuild.
  const IndexRefreshStats after_build = index.refresh_stats();
  EXPECT_EQ(after_build.full_rebuilds, 0u);
  EXPECT_GE(after_build.delta_refreshes, 1u);

  // A small cross-shard mutation burst, then refresh: the composite
  // version moved by more than any one shard's changelog can explain,
  // which the per-shard anchors absorb without a rebuild.
  for (int i = 0; i < 6; ++i) {
    Dataset ds;
    ds.name = "delta-d" + std::to_string(i);
    ds.descriptor = DatasetDescriptor::File("/delta/" + ds.name);
    ASSERT_TRUE(sharded->DefineDataset(std::move(ds)).ok());
  }
  ASSERT_TRUE(index.IsStale());
  ASSERT_TRUE(index.Refresh().ok());
  const IndexRefreshStats after_delta = index.refresh_stats();
  EXPECT_EQ(after_delta.full_rebuilds, after_build.full_rebuilds);
  EXPECT_GT(after_delta.delta_refreshes, after_build.delta_refreshes);
  EXPECT_EQ(index.LookupName("dataset", "delta-d5").size(), 1u);
  EXPECT_FALSE(index.IsStale());
}

TEST(ShardedIndex, MidBatchRefreshConvergesWithFullRebuild) {
  World world = MakeWorld(4);
  ASSERT_TRUE(ApplyWorkload(world.sharded.get(), 23, 32, 8).ok());
  std::shared_ptr<ShardedCatalogClient> sharded = std::move(world.sharded);

  FederatedIndex index("mid-batch");
  ASSERT_TRUE(index.AddSource(sharded).ok());
  ASSERT_TRUE(index.Refresh().ok());

  // A cross-shard batch, with a refresh injected the moment the FIRST
  // shard commits its sub-batch: the index observes the batch
  // half-applied, with per-shard versions that no single composite
  // anchor could describe.
  std::vector<CatalogMutation> batch;
  for (int i = 0; i < 16; ++i) {
    Dataset ds;
    ds.name = "mb-d" + std::to_string(i);
    ds.descriptor = DatasetDescriptor::File("/mb/" + ds.name);
    batch.push_back(CatalogMutation::DefineDataset(std::move(ds)));
  }
  bool refreshed_mid_batch = false;
  Status mid_status = Status::OK();
  sharded->set_post_subbatch_hook([&](uint32_t) {
    if (refreshed_mid_batch) return;
    refreshed_mid_batch = true;
    mid_status = index.Refresh();
  });
  Result<BatchResult> applied = sharded->ApplyBatch(batch);
  sharded->set_post_subbatch_hook(nullptr);
  ASSERT_TRUE(applied.ok()) << applied.status().message();
  ASSERT_TRUE(refreshed_mid_batch);
  ASSERT_TRUE(mid_status.ok()) << mid_status.message();

  // Converge, then diff against a from-scratch rebuild of the same
  // source: identical entries.
  ASSERT_TRUE(index.Refresh().ok());
  FederatedIndex rebuilt("rebuilt");
  ASSERT_TRUE(rebuilt.AddSource(sharded).ok());
  ASSERT_TRUE(rebuilt.RebuildAll().ok());
  EXPECT_EQ(index.size(), rebuilt.size());
  DatasetQuery all;
  std::vector<IndexEntry> via_delta = index.FindDatasets(all);
  std::vector<IndexEntry> via_rebuild = rebuilt.FindDatasets(all);
  ASSERT_EQ(via_delta.size(), via_rebuild.size());
  for (size_t i = 0; i < via_delta.size(); ++i) {
    EXPECT_EQ(via_delta[i].name, via_rebuild[i].name);
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(
        index.LookupName("dataset", "mb-d" + std::to_string(i)).size(), 1u)
        << i;
  }
}

TEST(ShardedIndex, ReshardForcesSourceRebuild) {
  World world = MakeWorld(2);
  ASSERT_TRUE(ApplyWorkload(world.sharded.get(), 29, 24, 6).ok());
  std::shared_ptr<ShardedCatalogClient> sharded = std::move(world.sharded);

  FederatedIndex index("reshard");
  ASSERT_TRUE(index.AddSource(sharded).ok());
  ASSERT_TRUE(index.Refresh().ok());
  const uint64_t rebuilds = index.refresh_stats().full_rebuilds;

  std::vector<std::shared_ptr<CatalogClient>> swapped = {world.clients[1],
                                                         world.clients[0]};
  ASSERT_TRUE(sharded->Reshard(swapped).ok());
  // Mutate so the staleness gate opens, then refresh: the fingerprint
  // change must force a full rebuild of this source (anchors died
  // with the old topology).
  Dataset ds;
  ds.name = "post-reshard";
  ds.descriptor = DatasetDescriptor::File("/post");
  ASSERT_TRUE(sharded->DefineDataset(std::move(ds)).ok());
  ASSERT_TRUE(index.Refresh().ok());
  EXPECT_EQ(index.refresh_stats().full_rebuilds, rebuilds + 1);
  EXPECT_EQ(index.LookupName("dataset", "post-reshard").size(), 1u);
}

}  // namespace
}  // namespace vdg
