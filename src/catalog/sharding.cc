#include "catalog/sharding.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>
#include <variant>

#include "common/hash.h"
#include "common/strings.h"
#include "common/uri.h"

namespace vdg {

uint32_t ShardRouter::ShardOf(std::string_view name) const {
  return static_cast<uint32_t>(Fnv1a64(name) % shard_count_);
}

uint64_t ShardSetFingerprint(
    const std::vector<std::shared_ptr<CatalogClient>>& shards) {
  std::string key = std::to_string(shards.size());
  for (const auto& shard : shards) {
    key.push_back('\x1f');
    key += shard->authority();
  }
  return Fnv1a64(key);
}

NameList MergeSortedNameLists(const std::vector<NameList>& lists,
                              size_t limit) {
  size_t total = 0;
  size_t bytes = 0;
  for (const NameList& list : lists) {
    total += list.size();
    for (std::string_view name : list) bytes += name.size();
  }
  NameList::ArenaBuilder builder;
  builder.Reserve(limit != 0 ? std::min(limit, total) : total, bytes);
  std::vector<size_t> cursor(lists.size(), 0);
  while (limit == 0 || builder.size() < limit) {
    size_t best = lists.size();
    for (size_t i = 0; i < lists.size(); ++i) {
      if (cursor[i] >= lists[i].size()) continue;
      if (best == lists.size() ||
          lists[i][cursor[i]] < lists[best][cursor[best]]) {
        best = i;
      }
    }
    if (best == lists.size()) break;
    builder.Append(lists[best][cursor[best]]);
    ++cursor[best];
  }
  return std::move(builder).Build();
}

ShardedCatalogClient::ShardedCatalogClient(
    std::vector<std::shared_ptr<CatalogClient>> shards,
    ShardedClientOptions options)
    : authority_("vdp://sharded"), options_(std::move(options)) {
  auto topo = std::make_shared<Topology>();
  if (shards.empty()) {
    // A degenerate empty topology would make every route ill-formed;
    // keep the invariant "at least one shard" instead.
    shards.push_back(nullptr);
  }
  topo->router = ShardRouter(static_cast<uint32_t>(shards.size()));
  topo->fingerprint = ShardSetFingerprint(shards);
  topo->shards = std::move(shards);
  topology_ = std::move(topo);
}

std::shared_ptr<const ShardedCatalogClient::Topology>
ShardedCatalogClient::topology() const {
  std::lock_guard<std::mutex> lock(topology_mu_);
  return topology_;
}

Status ShardedCatalogClient::Reshard(
    std::vector<std::shared_ptr<CatalogClient>> shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("reshard to an empty shard set");
  }
  for (const auto& shard : shards) {
    if (shard == nullptr) {
      return Status::InvalidArgument("reshard with a null shard client");
    }
  }
  auto topo = std::make_shared<Topology>();
  topo->router = ShardRouter(static_cast<uint32_t>(shards.size()));
  topo->fingerprint = ShardSetFingerprint(shards);
  topo->shards = std::move(shards);
  std::lock_guard<std::mutex> lock(topology_mu_);
  topology_ = std::move(topo);
  return Status::OK();
}

bool ShardedCatalogClient::read_only() const {
  auto topo = topology();
  for (const auto& shard : topo->shards) {
    if (shard != nullptr && !shard->read_only()) return false;
  }
  return true;
}

ShardTopology ShardedCatalogClient::shard_topology() const {
  auto topo = topology();
  ShardTopology out;
  out.shard_count = topo->router.shard_count();
  out.fingerprint = topo->fingerprint;
  return out;
}

uint32_t ShardedCatalogClient::ShardOf(std::string_view name) const {
  return topology()->router.ShardOf(name);
}

uint32_t ShardedCatalogClient::shard_count() const {
  return topology()->router.shard_count();
}

std::string ShardedCatalogClient::MakeReplicaId(uint32_t shard) {
  return "rp-" + options_.id_tag + "s" + std::to_string(shard) + "-" +
         std::to_string(++replica_seq_);
}

std::string ShardedCatalogClient::MakeInvocationId(uint32_t shard) {
  return "iv-" + options_.id_tag + "s" + std::to_string(shard) + "-" +
         std::to_string(++invocation_seq_);
}

bool ShardedCatalogClient::ShardFromAssignedId(const Topology& topo,
                                               std::string_view id,
                                               uint32_t* shard) const {
  // "rp-<tag>s<shard>-<seq>" / "iv-<tag>s<shard>-<seq>".
  std::string_view rest;
  if (StartsWith(id, "rp-")) {
    rest = id.substr(3);
  } else if (StartsWith(id, "iv-")) {
    rest = id.substr(3);
  } else {
    return false;
  }
  if (!StartsWith(rest, options_.id_tag)) return false;
  rest = rest.substr(options_.id_tag.size());
  if (rest.empty() || rest[0] != 's') return false;
  rest = rest.substr(1);
  size_t dash = rest.find('-');
  if (dash == 0 || dash == std::string_view::npos) return false;
  uint32_t value = 0;
  for (char c : rest.substr(0, dash)) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint32_t>(c - '0');
  }
  if (value >= topo.router.shard_count()) return false;
  *shard = value;
  return true;
}

// ---------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------

Result<uint64_t> ShardedCatalogClient::Version() {
  auto topo = topology();
  uint64_t sum = 0;
  for (const auto& shard : topo->shards) {
    VDG_ASSIGN_OR_RETURN(uint64_t v, shard->Version());
    sum += v;
  }
  return sum;
}

Result<std::vector<uint64_t>> ShardedCatalogClient::ShardVersions() {
  auto topo = topology();
  std::vector<uint64_t> versions;
  versions.reserve(topo->shards.size());
  for (const auto& shard : topo->shards) {
    VDG_ASSIGN_OR_RETURN(uint64_t v, shard->Version());
    versions.push_back(v);
  }
  return versions;
}

Result<std::vector<CatalogChange>> ShardedCatalogClient::ShardChangesSince(
    uint32_t shard, uint64_t since_version) {
  auto topo = topology();
  if (shard >= topo->shards.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(shard) +
                                   " in a " +
                                   std::to_string(topo->shards.size()) +
                                   "-shard topology");
  }
  return topo->shards[shard]->ChangesSince(since_version);
}

Result<std::vector<CatalogChange>> ShardedCatalogClient::ChangesSince(
    uint64_t since_version) {
  // The composite version is a sum of per-shard versions: it orders
  // observations but is not addressable in any one shard's changelog,
  // so only the trivial answers exist here. Delta consumers hold
  // per-shard anchors and call ShardChangesSince instead; everyone
  // else hits the same FailedPrecondition they already handle for an
  // out-of-window changelog (full resync).
  VDG_ASSIGN_OR_RETURN(uint64_t current, Version());
  if (since_version == current) return std::vector<CatalogChange>{};
  if (since_version > current) {
    return Status::InvalidArgument(
        "composite version " + std::to_string(since_version) +
        " is from the future (current " + std::to_string(current) + ")");
  }
  return Status::FailedPrecondition(
      "composite catalog version is not delta-addressable; use "
      "ShardChangesSince with per-shard anchors");
}

Result<Dataset> ShardedCatalogClient::GetDataset(std::string_view name) {
  auto topo = topology();
  return topo->shards[topo->router.ShardOf(name)]->GetDataset(name);
}

Result<Transformation> ShardedCatalogClient::GetTransformation(
    std::string_view name) {
  // Transformations are broadcast-replicated: any shard answers; hash
  // the name anyway to spread the load.
  auto topo = topology();
  return topo->shards[topo->router.ShardOf(name)]->GetTransformation(name);
}

Result<Derivation> ShardedCatalogClient::GetDerivation(
    std::string_view name) {
  auto topo = topology();
  return topo->shards[topo->router.ShardOf(name)]->GetDerivation(name);
}

Result<bool> ShardedCatalogClient::HasDataset(std::string_view name) {
  auto topo = topology();
  return topo->shards[topo->router.ShardOf(name)]->HasDataset(name);
}

Result<bool> ShardedCatalogClient::IsMaterialized(std::string_view dataset) {
  auto topo = topology();
  return topo->shards[topo->router.ShardOf(dataset)]->IsMaterialized(dataset);
}

Result<std::string> ShardedCatalogClient::ProducerOf(
    std::string_view dataset) {
  auto topo = topology();
  Result<std::string> home =
      topo->shards[topo->router.ShardOf(dataset)]->ProducerOf(dataset);
  if (home.ok() || !home.status().IsNotFound()) return home;
  // Cross-shard adoption gap: a pre-existing producerless dataset whose
  // producing derivation lives on another shard never got its producer
  // field backfilled. The derivation's home shard still indexed the
  // writes edge, so ask the writes index everywhere before conceding.
  DerivationQuery query;
  query.writes_dataset = std::string(dataset);
  query.limit = 1;
  for (const auto& shard : topo->shards) {
    VDG_ASSIGN_OR_RETURN(NameList writers, shard->FindDerivations(query));
    if (!writers.empty()) return std::string(writers.front());
  }
  return home;
}

Result<std::vector<Invocation>> ShardedCatalogClient::InvocationsOf(
    std::string_view derivation) {
  auto topo = topology();
  return topo->shards[topo->router.ShardOf(derivation)]->InvocationsOf(
      derivation);
}

Result<std::vector<NameList>> ShardedCatalogClient::ScatterLists(
    const Topology& topo,
    const std::function<Result<NameList>(CatalogClient&)>& fn) {
  const size_t n = topo.shards.size();
  std::vector<std::optional<Result<NameList>>> legs(n);
  if (options_.parallel_fanout && n > 1) {
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      threads.emplace_back(
          [&, i] { legs[i].emplace(fn(*topo.shards[i])); });
    }
    for (std::thread& t : threads) t.join();
  } else {
    for (size_t i = 0; i < n; ++i) legs[i].emplace(fn(*topo.shards[i]));
  }
  std::vector<NameList> lists;
  lists.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // A failed leg fails the gather: a partial merge would be silent
    // truncation, the one thing a discovery result must never be.
    if (!legs[i]->ok()) return legs[i]->status();
    lists.push_back(*std::move(*legs[i]));
  }
  return lists;
}

Result<NameList> ShardedCatalogClient::FindDatasets(
    const DatasetQuery& query) {
  auto topo = topology();
  if (topo->shards.size() == 1) return topo->shards[0]->FindDatasets(query);
  VDG_ASSIGN_OR_RETURN(
      std::vector<NameList> lists,
      ScatterLists(*topo, [&](CatalogClient& shard) {
        return shard.FindDatasets(query);
      }));
  return MergeSortedNameLists(lists, query.limit);
}

Result<NameList> ShardedCatalogClient::FindTransformations(
    const TransformationQuery& query) {
  // Broadcast-replicated objects: shard 0 holds the full set.
  return topology()->shards[0]->FindTransformations(query);
}

Result<NameList> ShardedCatalogClient::FindDerivations(
    const DerivationQuery& query) {
  auto topo = topology();
  if (topo->shards.size() == 1) return topo->shards[0]->FindDerivations(query);
  VDG_ASSIGN_OR_RETURN(
      std::vector<NameList> lists,
      ScatterLists(*topo, [&](CatalogClient& shard) {
        return shard.FindDerivations(query);
      }));
  return MergeSortedNameLists(lists, query.limit);
}

Result<NameList> ShardedCatalogClient::AllNames(std::string_view kind) {
  auto topo = topology();
  if (kind == "transformation" || topo->shards.size() == 1) {
    return topo->shards[0]->AllNames(kind);
  }
  if (kind != "dataset" && kind != "derivation") {
    return topo->shards[0]->AllNames(kind);  // surfaces InvalidArgument
  }
  VDG_ASSIGN_OR_RETURN(
      std::vector<NameList> lists,
      ScatterLists(*topo, [&](CatalogClient& shard) {
        return shard.AllNames(kind);
      }));
  return MergeSortedNameLists(lists, 0);
}

Result<bool> ShardedCatalogClient::TypeConforms(const DatasetType& type,
                                                const DatasetType& against) {
  // Shards share one type universe by contract; shard 0 judges.
  return topology()->shards[0]->TypeConforms(type, against);
}

Result<std::vector<ObjectRecord>> ShardedCatalogClient::BatchGet(
    const std::vector<ObjectKey>& keys) {
  auto topo = topology();
  const size_t n = topo->shards.size();
  if (n == 1) return topo->shards[0]->BatchGet(keys);
  std::vector<std::vector<ObjectKey>> per_shard(n);
  std::vector<std::vector<size_t>> positions(n);
  for (size_t i = 0; i < keys.size(); ++i) {
    uint32_t shard = topo->router.ShardOf(keys[i].name);
    per_shard[shard].push_back(keys[i]);
    positions[shard].push_back(i);
  }
  std::vector<ObjectRecord> records(keys.size());
  for (size_t k = 0; k < n; ++k) {
    if (per_shard[k].empty()) continue;
    VDG_ASSIGN_OR_RETURN(std::vector<ObjectRecord> got,
                         topo->shards[k]->BatchGet(per_shard[k]));
    if (got.size() != per_shard[k].size()) {
      return Status::Internal("shard " + std::to_string(k) +
                              " returned a misaligned BatchGet");
    }
    for (size_t j = 0; j < got.size(); ++j) {
      records[positions[k][j]] = std::move(got[j]);
    }
  }
  return records;
}

Result<ProvenanceStep> ShardedCatalogClient::GetProvenanceStep(
    std::string_view dataset) {
  auto topo = topology();
  VDG_ASSIGN_OR_RETURN(
      ProvenanceStep step,
      topo->shards[topo->router.ShardOf(dataset)]->GetProvenanceStep(
          dataset));
  if (!step.exists) return step;
  if (step.producer.empty()) {
    // Same adoption gap as ProducerOf: consult the writes index.
    DerivationQuery query;
    query.writes_dataset = std::string(dataset);
    query.limit = 1;
    for (const auto& shard : topo->shards) {
      VDG_ASSIGN_OR_RETURN(NameList writers, shard->FindDerivations(query));
      if (!writers.empty()) {
        step.producer = std::string(writers.front());
        break;
      }
    }
  }
  if (!step.producer.empty() && !step.derivation.has_value()) {
    // The producing derivation (and its invocations) are homed on the
    // producer's shard, not the dataset's.
    CatalogClient& home = *topo->shards[topo->router.ShardOf(step.producer)];
    Result<Derivation> dv = home.GetDerivation(step.producer);
    if (dv.ok()) {
      step.derivation = *std::move(dv);
      VDG_ASSIGN_OR_RETURN(step.invocations,
                           home.InvocationsOf(step.producer));
    } else if (!dv.status().IsNotFound()) {
      return dv.status();
    }
  }
  return step;
}

// ---------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------

Status ShardedCatalogClient::DefineDataset(Dataset dataset) {
  auto topo = topology();
  uint32_t shard = topo->router.ShardOf(dataset.name);
  return topo->shards[shard]->DefineDataset(std::move(dataset));
}

Status ShardedCatalogClient::DefineTransformation(
    Transformation transformation) {
  // Broadcast; a partially applied earlier attempt self-heals: any
  // fresh define plus only-AlreadyExists elsewhere still counts as
  // success, and all-AlreadyExists is the plain retry answer.
  auto topo = topology();
  size_t ok_count = 0;
  std::optional<Status> already;
  std::optional<Status> error;
  for (const auto& shard : topo->shards) {
    Status s = shard->DefineTransformation(transformation);
    if (s.ok()) {
      ++ok_count;
    } else if (s.IsAlreadyExists()) {
      if (!already) already = std::move(s);
    } else if (!error) {
      error = std::move(s);
    }
  }
  if (error) return *error;
  if (ok_count > 0) return Status::OK();
  return *already;  // every shard said AlreadyExists: the retry answer
}

Status ShardedCatalogClient::PlanDerivation(
    const Topology& topo, const Derivation& derivation, DerivationPlan* plan,
    const PendingDefinitions* pending) {
  const uint32_t home = topo.router.ShardOf(derivation.name());
  Result<Derivation> existing =
      topo.shards[home]->GetDerivation(derivation.name());
  if (existing.ok()) {
    return Status::AlreadyExists("derivation already defined: " +
                                 derivation.name());
  }
  if (!existing.status().IsNotFound()) return existing.status();

  const std::string& tr_name = derivation.transformation();
  std::optional<Transformation> tr;
  if (!IsVdpUri(tr_name)) {
    Result<Transformation> got =
        topo.shards[topo.router.ShardOf(tr_name)]->GetTransformation(tr_name);
    if (got.ok()) {
      tr = *std::move(got);
    } else if (!got.status().IsNotFound()) {
      return got.status();
    } else if (pending != nullptr &&
               pending->transformations.count(tr_name) != 0) {
      // Defined by an earlier op of the same batch.
      tr = pending->transformations.at(tr_name);
    } else {
      // The home shard reports the canonical "unknown transformation"
      // error when the op lands; nothing to place here.
      return Status::OK();
    }
  }

  for (const ActualArg& arg : derivation.args()) {
    if (!arg.is_dataset() || IsVdpUri(*arg.dataset)) continue;
    const FormalArg* formal =
        tr.has_value() ? tr->FindArg(arg.formal) : nullptr;
    if (tr.has_value() && formal == nullptr) {
      // Unknown formal: home-shard validation owns the error text.
      return Status::OK();
    }
    Result<Dataset> ds =
        topo.shards[topo.router.ShardOf(*arg.dataset)]->GetDataset(
            *arg.dataset);
    const Dataset* known = nullptr;
    if (ds.ok()) {
      known = &*ds;
    } else if (!ds.status().IsNotFound()) {
      return ds.status();
    } else if (pending != nullptr) {
      // Defined by an earlier op of the same batch: no shard has
      // applied it yet, but the plan must see it — the unsharded
      // catalog's batch path would.
      auto it = pending->datasets.find(*arg.dataset);
      if (it != pending->datasets.end()) known = &it->second;
    }
    if (known != nullptr) {
      if (formal != nullptr && !formal->types.empty()) {
        bool conforms = false;
        for (const DatasetType& want : formal->types) {
          VDG_ASSIGN_OR_RETURN(
              bool one, topo.shards[0]->TypeConforms(known->type, want));
          if (one) {
            conforms = true;
            break;
          }
        }
        if (!conforms) {
          std::string want;
          for (size_t i = 0; i < formal->types.size(); ++i) {
            if (i > 0) want += "|";
            want += formal->types[i].ToString();
          }
          return Status::TypeError("dataset " + *arg.dataset + " of type " +
                                   known->type.ToString() +
                                   " does not conform to formal " +
                                   arg.formal + " : " + want + " of " +
                                   tr->name());
        }
      }
      if (arg.direction.has_value() && DirectionWrites(*arg.direction) &&
          !known->producer.empty() && known->producer != derivation.name() &&
          !StartsWith(derivation.name(), known->producer + ".")) {
        return Status::AlreadyExists(
            "dataset " + *arg.dataset + " is already produced by derivation " +
            known->producer + " (a dataset has exactly one producing recipe)");
      }
      continue;
    }
    // Missing dataset: an input must exist somewhere in the logical
    // catalog (the check the shard catalogs relaxed in partition
    // mode); a written output becomes virtual data pre-created on its
    // hash-owned home shard, because partition-mode catalogs do not
    // auto-define what they may not own.
    if (formal != nullptr && DirectionReads(formal->direction) &&
        formal->direction != ArgDirection::kInOut) {
      return Status::TypeError("derivation " + derivation.name() +
                               " reads undefined dataset " + *arg.dataset);
    }
    if (arg.direction.has_value() && DirectionWrites(*arg.direction)) {
      bool duplicate = false;
      for (const auto& pending : plan->ensure_outputs) {
        if (pending.second.name == *arg.dataset) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      Dataset out;
      out.name = *arg.dataset;
      out.producer = derivation.name();
      if (formal != nullptr && !formal->types.empty()) {
        out.type = formal->types.front();
      }
      out.descriptor = DatasetDescriptor::File(out.name);
      plan->ensure_outputs.emplace_back(topo.router.ShardOf(out.name),
                                        std::move(out));
    }
  }
  return Status::OK();
}

Status ShardedCatalogClient::DefineDerivation(Derivation derivation) {
  auto topo = topology();
  VDG_RETURN_IF_ERROR(derivation.Validate());
  DerivationPlan plan;
  VDG_RETURN_IF_ERROR(PlanDerivation(*topo, derivation, &plan));
  for (const auto& [shard, dataset] : plan.ensure_outputs) {
    Status s = topo->shards[shard]->DefineDataset(dataset);
    if (!s.ok() && !s.IsAlreadyExists()) return s;
  }
  const uint32_t home = topo->router.ShardOf(derivation.name());
  return topo->shards[home]->DefineDerivation(std::move(derivation));
}

Status ShardedCatalogClient::AnyShard(
    const Topology& topo, const std::function<Status(CatalogClient&)>& fn) {
  std::optional<Status> not_found;
  for (const auto& shard : topo.shards) {
    Status s = fn(*shard);
    if (s.ok()) return s;
    if (s.IsNotFound()) {
      if (!not_found) not_found = std::move(s);
    } else {
      // A shard that cannot answer might have held the object: failing
      // loud beats a false NotFound.
      return s;
    }
  }
  return *not_found;
}

Status ShardedCatalogClient::Annotate(std::string_view kind,
                                      std::string_view name,
                                      std::string_view key,
                                      AttributeValue value) {
  auto topo = topology();
  if (kind == "dataset" || kind == "derivation") {
    uint32_t shard = topo->router.ShardOf(name);
    return topo->shards[shard]->Annotate(kind, name, key, std::move(value));
  }
  if (kind == "transformation") {
    for (const auto& shard : topo->shards) {
      VDG_RETURN_IF_ERROR(shard->Annotate(kind, name, key, value));
    }
    return Status::OK();
  }
  if (kind == "replica" || kind == "invocation") {
    uint32_t shard = 0;
    if (ShardFromAssignedId(*topo, name, &shard)) {
      return topo->shards[shard]->Annotate(kind, name, key, std::move(value));
    }
    return AnyShard(*topo, [&](CatalogClient& client) {
      return client.Annotate(kind, name, key, value);
    });
  }
  return topo->shards[0]->Annotate(kind, name, key, std::move(value));
}

Result<std::string> ShardedCatalogClient::AddReplica(Replica replica) {
  auto topo = topology();
  uint32_t shard = topo->router.ShardOf(replica.dataset);
  if (replica.id.empty()) replica.id = MakeReplicaId(shard);
  return topo->shards[shard]->AddReplica(std::move(replica));
}

Result<std::string> ShardedCatalogClient::RecordInvocation(
    Invocation invocation) {
  auto topo = topology();
  uint32_t shard = topo->router.ShardOf(invocation.derivation);
  if (invocation.id.empty()) invocation.id = MakeInvocationId(shard);
  return topo->shards[shard]->RecordInvocation(std::move(invocation));
}

Status ShardedCatalogClient::SetDatasetSize(std::string_view name,
                                            int64_t size_bytes) {
  auto topo = topology();
  return topo->shards[topo->router.ShardOf(name)]->SetDatasetSize(name,
                                                                  size_bytes);
}

Status ShardedCatalogClient::InvalidateReplica(std::string_view id) {
  auto topo = topology();
  uint32_t shard = 0;
  if (ShardFromAssignedId(*topo, id, &shard)) {
    return topo->shards[shard]->InvalidateReplica(id);
  }
  return AnyShard(*topo, [&](CatalogClient& client) {
    return client.InvalidateReplica(id);
  });
}

Result<BatchResult> ShardedCatalogClient::ApplyBatch(
    const std::vector<CatalogMutation>& mutations,
    const BatchOptions& options) {
  auto topo = topology();
  const size_t shard_count = topo->shards.size();
  const size_t n = mutations.size();

  BatchResult merged;
  merged.statuses.assign(n, Status::OK());
  merged.assigned_ids.assign(n, std::string());

  // Routing plan. `origin == kSynthetic` marks helper ops (derivation
  // output pre-creation) that exist only in sub-batches and fold their
  // failures into the originating op.
  constexpr size_t kSynthetic = static_cast<size_t>(-1);
  struct SubOp {
    CatalogMutation mut;
    size_t origin;
    size_t fold_into;  // meaningful when origin == kSynthetic
  };
  std::vector<std::vector<SubOp>> subs(shard_count);
  std::vector<char> resolved_early(n, 0);
  enum class MergeRule : char { kPoint, kBroadcastAll, kBroadcastAny };
  std::vector<MergeRule> rule(n, MergeRule::kPoint);
  std::vector<std::string> op_id(n);     // effective replica/invocation id
  std::vector<uint32_t> op_shard(n, 0);  // shard of the id-assigning op
  // Datasets (defined, or pre-created for derivation outputs) and
  // transformations defined by earlier ops of THIS batch: not yet on
  // any shard, but later derivation plans must see them — intra-batch
  // define-then-derive works against the unsharded catalog and must
  // work here too.
  PendingDefinitions pending;

  for (size_t i = 0; i < n; ++i) {
    Status route = std::visit(
        [&](const auto& op) -> Status {
          using Op = std::decay_t<decltype(op)>;
          if constexpr (std::is_same_v<Op, CatalogMutation::DefineDatasetOp>) {
            uint32_t shard = topo->router.ShardOf(op.dataset.name);
            subs[shard].push_back({mutations[i], i, 0});
            pending.datasets.insert({op.dataset.name, op.dataset});
          } else if constexpr (std::is_same_v<
                                   Op,
                                   CatalogMutation::DefineTransformationOp>) {
            rule[i] = MergeRule::kBroadcastAll;
            for (size_t k = 0; k < shard_count; ++k) {
              subs[k].push_back({mutations[i], i, 0});
            }
            pending.transformations.insert(
                {op.transformation.name(), op.transformation});
          } else if constexpr (std::is_same_v<
                                   Op, CatalogMutation::DefineDerivationOp>) {
            VDG_RETURN_IF_ERROR(op.derivation.Validate());
            DerivationPlan plan;
            VDG_RETURN_IF_ERROR(
                PlanDerivation(*topo, op.derivation, &plan, &pending));
            for (auto& [shard, dataset] : plan.ensure_outputs) {
              // Later derivations writing the same output must see the
              // producer claim this one just staked.
              pending.datasets.insert({dataset.name, dataset});
              subs[shard].push_back(
                  {CatalogMutation::DefineDataset(std::move(dataset)),
                   kSynthetic, i});
            }
            uint32_t home = topo->router.ShardOf(op.derivation.name());
            subs[home].push_back({mutations[i], i, 0});
          } else if constexpr (std::is_same_v<Op,
                                              CatalogMutation::AnnotateOp>) {
            CatalogMutation::AnnotateOp annotate = op;
            if (annotate.name_from_op.has_value()) {
              size_t pos = *annotate.name_from_op;
              if (pos >= i || op_id[pos].empty()) {
                return Status::InvalidArgument(
                    "annotate references batch op " + std::to_string(pos) +
                    " which assigned no id");
              }
              annotate.name = op_id[pos];
              annotate.name_from_op.reset();
              subs[op_shard[pos]].push_back(
                  {CatalogMutation{std::move(annotate)}, i, 0});
            } else if (annotate.kind == "dataset" ||
                       annotate.kind == "derivation") {
              uint32_t shard = topo->router.ShardOf(annotate.name);
              subs[shard].push_back({mutations[i], i, 0});
            } else if (annotate.kind == "transformation") {
              rule[i] = MergeRule::kBroadcastAll;
              for (size_t k = 0; k < shard_count; ++k) {
                subs[k].push_back({mutations[i], i, 0});
              }
            } else if (annotate.kind == "replica" ||
                       annotate.kind == "invocation") {
              uint32_t shard = 0;
              if (ShardFromAssignedId(*topo, annotate.name, &shard)) {
                subs[shard].push_back({mutations[i], i, 0});
              } else {
                rule[i] = MergeRule::kBroadcastAny;
                for (size_t k = 0; k < shard_count; ++k) {
                  subs[k].push_back({mutations[i], i, 0});
                }
              }
            } else {
              subs[0].push_back({mutations[i], i, 0});
            }
          } else if constexpr (std::is_same_v<Op,
                                              CatalogMutation::AddReplicaOp>) {
            uint32_t shard = topo->router.ShardOf(op.replica.dataset);
            CatalogMutation::AddReplicaOp add = op;
            if (add.replica.id.empty()) add.replica.id = MakeReplicaId(shard);
            op_id[i] = add.replica.id;
            op_shard[i] = shard;
            subs[shard].push_back({CatalogMutation{std::move(add)}, i, 0});
          } else if constexpr (std::is_same_v<
                                   Op, CatalogMutation::RecordInvocationOp>) {
            uint32_t shard = topo->router.ShardOf(op.invocation.derivation);
            CatalogMutation::RecordInvocationOp record = op;
            for (size_t pos : record.produced_from_ops) {
              if (pos >= i || op_id[pos].empty()) {
                return Status::InvalidArgument(
                    "invocation references batch op " + std::to_string(pos) +
                    " which assigned no id");
              }
              record.invocation.produced_replicas.push_back(op_id[pos]);
            }
            record.produced_from_ops.clear();
            if (record.invocation.id.empty()) {
              record.invocation.id = MakeInvocationId(shard);
            }
            op_id[i] = record.invocation.id;
            op_shard[i] = shard;
            subs[shard].push_back({CatalogMutation{std::move(record)}, i, 0});
          } else if constexpr (std::is_same_v<
                                   Op, CatalogMutation::SetDatasetSizeOp>) {
            uint32_t shard = topo->router.ShardOf(op.name);
            subs[shard].push_back({mutations[i], i, 0});
          } else {
            static_assert(
                std::is_same_v<Op, CatalogMutation::InvalidateReplicaOp>);
            uint32_t shard = 0;
            if (ShardFromAssignedId(*topo, op.id, &shard)) {
              subs[shard].push_back({mutations[i], i, 0});
            } else {
              rule[i] = MergeRule::kBroadcastAny;
              for (size_t k = 0; k < shard_count; ++k) {
                subs[k].push_back({mutations[i], i, 0});
              }
            }
          }
          return Status::OK();
        },
        mutations[i].op);
    if (!route.ok()) {
      merged.statuses[i] = std::move(route);
      resolved_early[i] = 1;
    }
  }

  // Broadcast aggregation state, per origin op.
  std::vector<size_t> bcast_ok(n, 0);
  std::vector<std::optional<Status>> bcast_already(n);
  std::vector<std::optional<Status>> bcast_not_found(n);
  std::vector<std::optional<Status>> bcast_error(n);

  // Execute shard by shard; each sub-batch commits under its shard's
  // single lock/version/flush. stop_on_error scopes to the sub-batch.
  for (size_t k = 0; k < shard_count; ++k) {
    if (subs[k].empty()) continue;
    std::vector<CatalogMutation> ops;
    ops.reserve(subs[k].size());
    for (const SubOp& sub : subs[k]) ops.push_back(sub.mut);
    BatchOptions sub_options = options;
    if (!options.idempotency_token.empty()) {
      sub_options.idempotency_token =
          options.idempotency_token + "/s" + std::to_string(k);
    }
    Result<BatchResult> got = topo->shards[k]->ApplyBatch(ops, sub_options);
    // Transport failure: earlier shards may have committed; the error
    // propagates and the derived idempotency tokens make the retry
    // safe (already-committed sub-batches replay as no-ops).
    if (!got.ok()) return got.status();
    if (got->statuses.size() != subs[k].size()) {
      return Status::Internal("shard " + std::to_string(k) +
                              " returned a misaligned batch result");
    }
    for (size_t j = 0; j < subs[k].size(); ++j) {
      const SubOp& sub = subs[k][j];
      Status s = got->statuses[j];
      if (sub.origin == kSynthetic) {
        // Output pre-creation lost a benign race when it already
        // exists; anything else surfaces on the owning derivation op.
        if (!s.ok() && !s.IsAlreadyExists() &&
            merged.statuses[sub.fold_into].ok() &&
            !resolved_early[sub.fold_into]) {
          merged.statuses[sub.fold_into] = std::move(s);
          resolved_early[sub.fold_into] = 1;
        }
        continue;
      }
      if (rule[sub.origin] == MergeRule::kPoint) {
        // A synthetic helper that already folded an error into this
        // op keeps it; the op's own (likely OK) outcome is moot.
        if (!resolved_early[sub.origin]) {
          merged.statuses[sub.origin] = std::move(s);
          if (j < got->assigned_ids.size()) {
            merged.assigned_ids[sub.origin] = std::move(got->assigned_ids[j]);
          }
        }
        continue;
      }
      if (s.ok()) {
        ++bcast_ok[sub.origin];
      } else if (s.IsAlreadyExists()) {
        if (!bcast_already[sub.origin]) bcast_already[sub.origin] = s;
      } else if (s.IsNotFound()) {
        if (!bcast_not_found[sub.origin]) bcast_not_found[sub.origin] = s;
      } else if (!bcast_error[sub.origin]) {
        bcast_error[sub.origin] = s;
      }
    }
    if (post_subbatch_hook_) post_subbatch_hook_(static_cast<uint32_t>(k));
  }

  for (size_t i = 0; i < n; ++i) {
    if (resolved_early[i]) continue;
    if (rule[i] == MergeRule::kBroadcastAll) {
      // All shards must hold the object; partial applies self-heal via
      // AlreadyExists on the shards that already had it.
      if (bcast_error[i]) {
        merged.statuses[i] = *bcast_error[i];
      } else if (bcast_not_found[i] && bcast_ok[i] == 0) {
        merged.statuses[i] = *bcast_not_found[i];
      } else if (bcast_ok[i] > 0) {
        merged.statuses[i] = Status::OK();
      } else if (bcast_already[i]) {
        merged.statuses[i] = *bcast_already[i];
      } else if (bcast_not_found[i]) {
        merged.statuses[i] = *bcast_not_found[i];
      }
    } else if (rule[i] == MergeRule::kBroadcastAny) {
      // Exactly one shard holds the target; the rest answer NotFound.
      if (bcast_ok[i] > 0) {
        merged.statuses[i] = Status::OK();
      } else if (bcast_error[i]) {
        merged.statuses[i] = *bcast_error[i];
      } else if (bcast_already[i]) {
        merged.statuses[i] = *bcast_already[i];
      } else if (bcast_not_found[i]) {
        merged.statuses[i] = *bcast_not_found[i];
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    const Status& s = merged.statuses[i];
    if (s.ok()) {
      ++merged.applied;
    } else if (merged.first_error.ok()) {
      merged.first_error = s;
    }
  }
  VDG_ASSIGN_OR_RETURN(merged.version, Version());
  return merged;
}

}  // namespace vdg
