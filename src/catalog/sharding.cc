#include "catalog/sharding.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>
#include <variant>

#include "catalog/wire.h"
#include "common/hash.h"
#include "common/strings.h"
#include "common/uri.h"

namespace vdg {

namespace {

using wire::MsgKind;

using Shards = std::vector<std::shared_ptr<CatalogClient>>;

/// Stable hash placement of object names onto shards: FNV-1a over the
/// name, mod the shard count. Deterministic across processes and
/// sessions, so every client of the same topology agrees on placement
/// without coordination.
uint32_t ShardIndex(std::string_view name, size_t shard_count) {
  return shard_count == 0 ? 0
                          : static_cast<uint32_t>(Fnv1a64(name) % shard_count);
}

CatalogClient& Owner(const Shards& shards, std::string_view name) {
  return *shards[ShardIndex(name, shards.size())];
}

/// Stable fingerprint of one shard set: a hash over the ordered shard
/// authorities and the count. Any resharding — count change, backend
/// swap, reorder — changes it.
uint64_t ShardSetFingerprint(const Shards& shards) {
  std::string key = std::to_string(shards.size());
  for (const auto& shard : shards) {
    key.push_back('\x1f');
    key += shard->authority();
  }
  return Fnv1a64(key);
}

/// Parses the shard index out of a client-assigned replica or
/// invocation id, "rp-<tag>s<shard>-<seq>" / "iv-<tag>s<shard>-<seq>";
/// false for foreign/caller-supplied ids.
bool ShardFromAssignedId(std::string_view id, std::string_view tag,
                         size_t shard_count, uint32_t* shard) {
  std::string_view rest;
  if (StartsWith(id, "rp-")) {
    rest = id.substr(3);
  } else if (StartsWith(id, "iv-")) {
    rest = id.substr(3);
  } else {
    return false;
  }
  if (!StartsWith(rest, tag)) return false;
  rest = rest.substr(tag.size());
  if (rest.empty() || rest[0] != 's') return false;
  rest = rest.substr(1);
  size_t dash = rest.find('-');
  if (dash == 0 || dash == std::string_view::npos) return false;
  uint32_t value = 0;
  for (char c : rest.substr(0, dash)) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint32_t>(c - '0');
  }
  if (value >= shard_count) return false;
  *shard = value;
  return true;
}

Result<std::vector<uint64_t>> VersionsOf(const Shards& shards) {
  std::vector<uint64_t> versions;
  versions.reserve(shards.size());
  for (const auto& shard : shards) {
    VDG_ASSIGN_OR_RETURN(uint64_t v, shard->Version());
    versions.push_back(v);
  }
  return versions;
}

Result<uint64_t> CompositeVersion(const Shards& shards) {
  VDG_ASSIGN_OR_RETURN(std::vector<uint64_t> versions, VersionsOf(shards));
  uint64_t sum = 0;
  for (uint64_t v : versions) sum += v;
  return sum;
}

/// Sends `request` to every shard and merges the NamesResp lists
/// (capped at `limit`, 0 = unlimited).
Result<wire::Response> Gather(const Shards& shards,
                              const wire::Request& request, size_t limit) {
  if (shards.size() == 1) return shards[0]->Call(request);
  std::vector<NameList> lists;
  lists.reserve(shards.size());
  for (const auto& shard : shards) {
    // A failed leg fails the gather: a partial merge would be silent
    // truncation, the one thing a discovery result must never be.
    VDG_ASSIGN_OR_RETURN(wire::Response leg, shard->Call(request));
    auto* body = std::get_if<wire::NamesResp>(&leg.body);
    if (body == nullptr) {
      return Status::Internal("shard answered " +
                              std::string(wire::MsgKindName(request.kind)) +
                              " without a name list");
    }
    lists.push_back(std::move(body->names));
  }
  return wire::Reply(request.kind,
                     wire::NamesResp{MergeSortedNameLists(lists, limit)});
}

/// The derivation whose writes index names `dataset`, asked of every
/// shard; "" when none does.
Result<std::string> WriterOf(const Shards& shards, std::string_view dataset) {
  DerivationQuery query;
  query.writes_dataset = std::string(dataset);
  query.limit = 1;
  for (const auto& shard : shards) {
    VDG_ASSIGN_OR_RETURN(NameList writers, shard->FindDerivations(query));
    if (!writers.empty()) return std::string(writers.front());
  }
  return std::string();
}

/// Fills in what `step`'s home shard cannot know: a producer homed on
/// another shard, and that producer's derivation and invocations.
Status CompleteStep(const Shards& shards, ProvenanceStep* step) {
  if (!step->exists) return Status::OK();
  if (step->producer.empty()) {
    // Same adoption gap as ProducerOf: consult the writes index.
    VDG_ASSIGN_OR_RETURN(step->producer, WriterOf(shards, step->dataset));
  }
  if (!step->producer.empty() && !step->derivation.has_value()) {
    // The producing derivation (and its invocations) are homed on the
    // producer's shard, not the dataset's.
    CatalogClient& home = Owner(shards, step->producer);
    Result<Derivation> dv = home.GetDerivation(step->producer);
    if (dv.ok()) {
      step->derivation = *std::move(dv);
      VDG_ASSIGN_OR_RETURN(step->invocations,
                           home.InvocationsOf(step->producer));
    } else if (!dv.status().IsNotFound()) {
      return dv.status();
    }
  }
  return Status::OK();
}

/// BatchGet split by owning shard, reassembled in key order.
Result<std::vector<ObjectRecord>> BatchGetAcross(
    const Shards& shards, const std::vector<ObjectKey>& keys) {
  const size_t n = shards.size();
  if (n == 1) return shards[0]->BatchGet(keys);
  std::vector<std::vector<ObjectKey>> per_shard(n);
  std::vector<std::vector<size_t>> positions(n);
  for (size_t i = 0; i < keys.size(); ++i) {
    uint32_t shard = ShardIndex(keys[i].name, n);
    per_shard[shard].push_back(keys[i]);
    positions[shard].push_back(i);
  }
  std::vector<ObjectRecord> records(keys.size());
  for (size_t k = 0; k < n; ++k) {
    if (per_shard[k].empty()) continue;
    VDG_ASSIGN_OR_RETURN(std::vector<ObjectRecord> got,
                         shards[k]->BatchGet(per_shard[k]));
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

/// The planning state of one ApplyBatch split. `datasets` and
/// `transformations` are the definitions of EARLIER ops of the batch:
/// not yet visible on any shard, but a derivation later in the batch
/// must plan against them, as it would against the unsharded catalog.
/// They hold the ops' shared payloads, keyed by views of the names
/// inside them. `on_shard` memoizes each transformation name's
/// home-shard answer (null for NotFound): no shard applies anything
/// until the whole batch is planned, so one lookup per name serves
/// every derivation of the batch; its keys view the asking
/// derivation's payload, which outlives the split.
struct PendingDefinitions {
  template <typename T>
  using ByName = std::unordered_map<std::string_view, std::shared_ptr<const T>>;
  ByName<Dataset> datasets;
  ByName<Transformation> transformations;
  ByName<Transformation> on_shard;
};

/// The transformation `name` as its home shard holds it; null when the
/// shard answers NotFound. Asked once per name within a batch.
Result<std::shared_ptr<const Transformation>> ShardTransformation(
    const Shards& shards, const std::string& name,
    PendingDefinitions* pending) {
  if (pending != nullptr) {
    auto it = pending->on_shard.find(name);
    if (it != pending->on_shard.end()) return it->second;
  }
  Result<Transformation> got = Owner(shards, name).GetTransformation(name);
  std::shared_ptr<const Transformation> tr;
  if (got.ok()) {
    tr = std::make_shared<const Transformation>(*std::move(got));
  } else if (!got.status().IsNotFound()) {
    return got.status();
  }
  if (pending != nullptr) pending->on_shard.try_emplace(name, tr);
  return tr;
}

/// Cross-shard referential checks for one derivation (see the class
/// comment), collecting the missing outputs to pre-create on their
/// home shards into `outputs`. Mirrors the unsharded catalog's error
/// vocabulary (AlreadyExists / NotFound / TypeError). `pending` holds
/// the batch's earlier definitions; nullptr outside a batch.
Status PlanDerivation(const Shards& shards, const Derivation& derivation,
                      PendingDefinitions* pending,
                      std::vector<Dataset>* outputs) {
  Result<Derivation> existing =
      Owner(shards, derivation.name()).GetDerivation(derivation.name());
  if (existing.ok()) {
    return Status::AlreadyExists("derivation already defined: " +
                                 derivation.name());
  }
  if (!existing.status().IsNotFound()) return existing.status();

  const std::string& tr_name = derivation.transformation();
  std::shared_ptr<const Transformation> tr;
  if (!IsVdpUri(tr_name)) {
    VDG_ASSIGN_OR_RETURN(tr, ShardTransformation(shards, tr_name, pending));
    if (tr == nullptr && pending != nullptr) {
      // Defined by an earlier op of the same batch.
      auto it = pending->transformations.find(tr_name);
      if (it != pending->transformations.end()) tr = it->second;
    }
    if (tr == nullptr) {
      // The home shard reports the canonical "unknown transformation"
      // error when the op lands; nothing to place here.
      return Status::OK();
    }
  }

  for (const ActualArg& arg : derivation.args()) {
    if (!arg.is_dataset() || IsVdpUri(*arg.dataset)) continue;
    const FormalArg* formal = tr != nullptr ? tr->FindArg(arg.formal) : nullptr;
    if (tr != nullptr && formal == nullptr) {
      // Unknown formal: home-shard validation owns the error text.
      return Status::OK();
    }
    Result<Dataset> ds =
        Owner(shards, *arg.dataset).GetDataset(*arg.dataset);
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
      if (it != pending->datasets.end()) known = it->second.get();
    }
    if (known != nullptr) {
      if (formal != nullptr && !formal->types.empty()) {
        bool conforms = false;
        for (const DatasetType& want : formal->types) {
          VDG_ASSIGN_OR_RETURN(
              bool one, shards[0]->TypeConforms(known->type, want));
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
      for (const Dataset& pending : *outputs) {
        if (pending.name == *arg.dataset) {
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
      outputs->push_back(std::move(out));
    }
  }
  return Status::OK();
}

}  // namespace

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

std::shared_ptr<const ShardedCatalogClient::Topology>
ShardedCatalogClient::MakeTopology(
    std::vector<std::shared_ptr<CatalogClient>> shards) {
  auto topo = std::make_shared<Topology>();
  if (shards.empty()) {
    topo->usable = Status::InvalidArgument("empty shard set");
  } else if (std::find(shards.begin(), shards.end(), nullptr) !=
             shards.end()) {
    topo->usable = Status::InvalidArgument("null shard client");
  } else {
    topo->shards = std::move(shards);
  }
  topo->fingerprint = ShardSetFingerprint(topo->shards);
  return topo;
}

ShardedCatalogClient::ShardedCatalogClient(
    std::vector<std::shared_ptr<CatalogClient>> shards,
    ShardedClientOptions options)
    : authority_("vdp://sharded"),
      options_(std::move(options)),
      topology_(MakeTopology(std::move(shards))) {}

std::shared_ptr<const ShardedCatalogClient::Topology>
ShardedCatalogClient::topology() const {
  std::lock_guard<std::mutex> lock(topology_mu_);
  return topology_;
}

Status ShardedCatalogClient::Reshard(
    std::vector<std::shared_ptr<CatalogClient>> shards) {
  std::shared_ptr<const Topology> topo = MakeTopology(std::move(shards));
  if (!topo->usable.ok()) return topo->usable;
  std::lock_guard<std::mutex> lock(topology_mu_);
  topology_ = std::move(topo);
  return Status::OK();
}

bool ShardedCatalogClient::read_only() const {
  // An unusable topology is not read-only: its calls must reach Call()
  // and report why.
  auto topo = topology();
  return !topo->shards.empty() &&
         std::all_of(topo->shards.begin(), topo->shards.end(),
                     [](const auto& shard) { return shard->read_only(); });
}

ShardTopology ShardedCatalogClient::shard_topology() const {
  auto topo = topology();
  ShardTopology out;
  out.shard_count = std::max<uint32_t>(1, topo->shards.size());
  out.fingerprint = topo->fingerprint;
  return out;
}

uint32_t ShardedCatalogClient::ShardOf(std::string_view name) const {
  return ShardIndex(name, topology()->shards.size());
}

uint32_t ShardedCatalogClient::shard_count() const {
  return shard_topology().shard_count;
}

void ShardedCatalogClient::AssignId(MsgKind kind, uint32_t shard,
                                    std::string* id) {
  if (!id->empty()) return;
  const bool replica = kind == MsgKind::kAddReplica;
  *id = (replica ? "rp-" : "iv-") + options_.id_tag + "s" +
        std::to_string(shard) + "-" +
        std::to_string(++(replica ? replica_seq_ : invocation_seq_));
}

// ---------------------------------------------------------------------
// Call: one switch over the message kind
// ---------------------------------------------------------------------

Result<wire::Response> ShardedCatalogClient::Call(
    const wire::Request& request) {
  const std::shared_ptr<const Topology> held = topology();
  const Topology& topo = *held;
  if (!topo.usable.ok()) return topo.usable;
  // A valid request from here on: each case reads its kind's body.
  VDG_RETURN_IF_ERROR(wire::CheckRequest(request));
  const Shards& shards = topo.shards;
  const MsgKind kind = request.kind;
  auto owner = [&](std::string_view name) {
    return Owner(shards, name).Call(request);
  };
  switch (kind) {
    case MsgKind::kHandshake:
      return CatalogClient::Call(request);  // from authority()/read_only()
    case MsgKind::kVersion: {
      VDG_ASSIGN_OR_RETURN(uint64_t version, CompositeVersion(shards));
      return wire::Reply(kind, wire::VersionResp{version});
    }
    case MsgKind::kChangesSince: {
      const auto& b = std::get<wire::ChangesSinceReq>(request.body);
      // The composite version is a sum of per-shard versions: it orders
      // observations but is not addressable in any one shard's
      // changelog, so only the trivial answers exist here. Delta
      // consumers hold per-shard anchors and call ShardChangesSince
      // instead; everyone else hits the same FailedPrecondition they
      // already handle for an out-of-window changelog (full resync).
      VDG_ASSIGN_OR_RETURN(uint64_t current, CompositeVersion(shards));
      if (b.since_version == current) {
        return wire::Reply(kind, wire::ChangesResp{});
      }
      if (b.since_version > current) {
        return Status::InvalidArgument(
            "composite version " + std::to_string(b.since_version) +
            " is from the future (current " + std::to_string(current) + ")");
      }
      return Status::FailedPrecondition(
          "composite catalog version is not delta-addressable; use "
          "ShardChangesSince with per-shard anchors");
    }
    case MsgKind::kGetDataset:
    case MsgKind::kGetTransformation:  // on every shard; hash to spread
    case MsgKind::kGetDerivation:
    case MsgKind::kHasDataset:
    case MsgKind::kIsMaterialized:
    case MsgKind::kReplicasOf:
    case MsgKind::kInvocationsOf:
      return owner(std::get<wire::NameReq>(request.body).name);
    case MsgKind::kProducerOf: {
      const auto& b = std::get<wire::NameReq>(request.body);
      Result<wire::Response> home = owner(b.name);
      if (home.ok() || !home.status().IsNotFound()) return home;
      // Cross-shard adoption gap: a pre-existing producerless dataset
      // whose producing derivation lives on another shard never got its
      // producer field backfilled. The derivation's home shard still
      // indexed the writes edge.
      VDG_ASSIGN_OR_RETURN(std::string writer, WriterOf(shards, b.name));
      if (writer.empty()) return home;
      return wire::Reply(kind, wire::StringResp{std::move(writer)});
    }
    case MsgKind::kGetProvenanceStep: {
      const auto& b = std::get<wire::NameReq>(request.body);
      VDG_ASSIGN_OR_RETURN(wire::Response response, owner(b.name));
      auto* body = std::get_if<wire::StepResp>(&response.body);
      if (body == nullptr) {
        return Status::Internal("shard answered " + b.name +
                                "'s provenance step without a step");
      }
      VDG_RETURN_IF_ERROR(CompleteStep(shards, &body->step));
      return response;
    }
    case MsgKind::kFindDatasets:
      return Gather(shards, request,
                    std::get<wire::FindDatasetsReq>(request.body).query.limit);
    case MsgKind::kFindDerivations:
      return Gather(
          shards, request,
          std::get<wire::FindDerivationsReq>(request.body).query.limit);
    case MsgKind::kAllNames: {
      const auto& b = std::get<wire::NameReq>(request.body);
      // Transformations are on every shard; shard 0 also reports an
      // unknown kind.
      if (b.name != "dataset" && b.name != "derivation") {
        return topo.shards[0]->Call(request);
      }
      return Gather(shards, request, 0);
    }
    case MsgKind::kFindEquivalentDerivation: {
      // A signature match may be homed on any shard: ask them in shard
      // order and answer with the lowest-numbered shard's hit.
      for (const auto& shard : shards) {
        Result<wire::Response> hit = shard->Call(request);
        if (hit.ok() || !hit.status().IsNotFound()) return hit;
      }
      return Status::NotFound("no equivalent derivation recorded");
    }
    case MsgKind::kFindTransformations:
    case MsgKind::kTypeConforms:
      // Broadcast-replicated transformations and one shared type
      // universe: shard 0 holds them all.
      return topo.shards[0]->Call(request);
    case MsgKind::kBatchGet: {
      const auto& b = std::get<wire::BatchGetReq>(request.body);
      VDG_ASSIGN_OR_RETURN(std::vector<ObjectRecord> records,
                           BatchGetAcross(shards, b.keys));
      return wire::Reply(kind, wire::RecordsResp{std::move(records)});
    }
    case MsgKind::kDefineDataset: {
      const auto& b = std::get<wire::DefineDatasetReq>(request.body);
      return Mutate(topo, request, Place(topo, kind, b.dataset.name));
    }
    case MsgKind::kDefineTransformation: {
      const auto& b = std::get<wire::DefineTransformationReq>(request.body);
      return Mutate(topo, request, Place(topo, kind, b.transformation.name()));
    }
    case MsgKind::kDefineDerivation: {
      const auto& b = std::get<wire::DefineDerivationReq>(request.body);
      VDG_RETURN_IF_ERROR(b.derivation.Validate());
      std::vector<Dataset> outputs;
      VDG_RETURN_IF_ERROR(
          PlanDerivation(shards, b.derivation, nullptr, &outputs));
      for (Dataset& output : outputs) {
        const Placement placement =
            Place(topo, MsgKind::kDefineDataset, output.name);
        Status s = shards[placement.shard]->DefineDataset(std::move(output));
        if (!s.ok() && !s.IsAlreadyExists()) return s;
      }
      return Mutate(topo, request, Place(topo, kind, b.derivation.name()));
    }
    case MsgKind::kAnnotate: {
      const auto& b = std::get<wire::AnnotateReq>(request.body);
      return Mutate(topo, request, Place(topo, kind, b.name, b.kind));
    }
    case MsgKind::kAddReplica: {
      const auto& b = std::get<wire::AddReplicaReq>(request.body);
      const Placement placement = Place(topo, kind, b.replica.dataset);
      wire::AddReplicaReq assigned = b;
      AssignId(kind, placement.shard, &assigned.replica.id);
      return Mutate(topo, {kind, std::move(assigned)}, placement);
    }
    case MsgKind::kRecordInvocation: {
      const auto& b = std::get<wire::RecordInvocationReq>(request.body);
      const Placement placement = Place(topo, kind, b.invocation.derivation);
      wire::RecordInvocationReq assigned = b;
      AssignId(kind, placement.shard, &assigned.invocation.id);
      return Mutate(topo, {kind, std::move(assigned)}, placement);
    }
    case MsgKind::kSetDatasetSize: {
      const auto& b = std::get<wire::SetDatasetSizeReq>(request.body);
      return Mutate(topo, request, Place(topo, kind, b.name));
    }
    case MsgKind::kInvalidateReplica: {
      const auto& b = std::get<wire::NameReq>(request.body);
      return Mutate(topo, request, Place(topo, kind, b.name));
    }
    case MsgKind::kApplyBatch: {
      const auto& b = std::get<wire::ApplyBatchReq>(request.body);
      VDG_ASSIGN_OR_RETURN(BatchResult result, SplitBatch(topo, b));
      return wire::Reply(kind, wire::BatchResultResp{std::move(result)});
    }
  }
  return Status::InvalidArgument("unknown message kind " +
                                 std::to_string(static_cast<int>(kind)));
}

// ---------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------

Result<std::vector<uint64_t>> ShardedCatalogClient::ShardVersions() {
  auto topo = topology();
  if (!topo->usable.ok()) return topo->usable;
  return VersionsOf(topo->shards);
}

Result<std::vector<CatalogChange>> ShardedCatalogClient::ShardChangesSince(
    uint32_t shard, uint64_t since_version) {
  auto topo = topology();
  if (!topo->usable.ok()) return topo->usable;
  if (shard >= topo->shards.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(shard) +
                                   " in a " +
                                   std::to_string(topo->shards.size()) +
                                   "-shard topology");
  }
  return topo->shards[shard]->ChangesSince(since_version);
}

// ---------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------

ShardedCatalogClient::Placement ShardedCatalogClient::Place(
    const Topology& topo, MsgKind kind, std::string_view name,
    std::string_view object_kind) const {
  using Fanout = Placement::Fanout;
  auto by_id = [&] {
    uint32_t shard = 0;
    return ShardFromAssignedId(name, options_.id_tag, topo.shards.size(),
                               &shard)
               ? Placement{Fanout::kOne, shard}
               : Placement{Fanout::kAny, 0};
  };
  switch (kind) {
    case MsgKind::kDefineTransformation:
      return {Fanout::kEvery, 0};
    case MsgKind::kInvalidateReplica:
      return by_id();
    case MsgKind::kAnnotate:
      if (object_kind == "transformation") return {Fanout::kEvery, 0};
      if (object_kind == "replica" || object_kind == "invocation") {
        return by_id();
      }
      if (object_kind != "dataset" && object_kind != "derivation") {
        return {Fanout::kOne, 0};  // shard 0 reports the unknown kind
      }
      break;
    default:
      break;
  }
  // Datasets and derivations live on ShardOf(name); replicas with their
  // dataset, invocations with their derivation.
  return {Fanout::kOne, ShardIndex(name, topo.shards.size())};
}

Status ShardedCatalogClient::MergeBroadcast(
    Placement::Fanout fanout, const std::vector<Status>& answers) {
  // Which answer wins, by outcome. kEvery: an error, then success (a
  // partially applied earlier attempt self-heals), then NotFound, then
  // AlreadyExists (every shard had it: the plain retry answer). kAny:
  // success (one shard holds the target; the rest answer NotFound),
  // then an error, AlreadyExists, NotFound. The lowest shard wins ties.
  auto rank = [fanout](const Status& s) {
    enum { kOk, kError, kAlready, kNotFound };
    const int outcome = s.ok()                ? kOk
                        : s.IsAlreadyExists() ? kAlready
                        : s.IsNotFound()      ? kNotFound
                                              : kError;
    constexpr int kEveryRank[] = {1, 0, 3, 2};
    return fanout == Placement::Fanout::kAny ? outcome : kEveryRank[outcome];
  };
  const Status* best = nullptr;
  for (const Status& s : answers) {
    if (best == nullptr || rank(s) < rank(*best)) best = &s;
  }
  return best != nullptr ? *best : Status::OK();
}

Result<wire::Response> ShardedCatalogClient::Mutate(
    const Topology& topo, const wire::Request& request, Placement placement) {
  if (placement.fanout == Placement::Fanout::kOne) {
    return topo.shards[placement.shard]->Call(request);
  }
  std::vector<Status> answers;
  answers.reserve(topo.shards.size());
  for (const auto& shard : topo.shards) {
    answers.push_back(shard->Call(request).status());
  }
  VDG_RETURN_IF_ERROR(MergeBroadcast(placement.fanout, answers));
  return wire::Reply(request.kind, std::monostate{});
}

Result<BatchResult> ShardedCatalogClient::SplitBatch(
    const Topology& topo, const wire::ApplyBatchReq& batch) {
  using Fanout = Placement::Fanout;
  const std::vector<CatalogMutation>& mutations = batch.mutations;
  const size_t shard_count = topo.shards.size();
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
  std::vector<Fanout> fanout(n, Fanout::kOne);
  std::vector<std::string> op_id(n);  // effective replica/invocation id
  // Datasets (defined, or pre-created for derivation outputs) and
  // transformations defined by earlier ops of THIS batch: not yet on
  // any shard, but later derivation plans must see them — intra-batch
  // define-then-derive works against the unsharded catalog and must
  // work here too.
  PendingDefinitions pending;

  for (size_t i = 0; i < n; ++i) {
    // The op as the shards get it, when routing rewrote the caller's
    // (an assigned id, a resolved batch reference).
    std::optional<CatalogMutation> rewritten;
    Result<Placement> placed = std::visit(
        [&](const auto& op) -> Result<Placement> {
          using Op = std::decay_t<decltype(op)>;
          if constexpr (std::is_same_v<Op, CatalogMutation::DefineDatasetOp>) {
            pending.datasets.try_emplace(op.dataset->name, op.dataset);
            return Place(topo, MsgKind::kDefineDataset, op.dataset->name);
          } else if constexpr (std::is_same_v<
                                   Op,
                                   CatalogMutation::DefineTransformationOp>) {
            pending.transformations.try_emplace(op.transformation->name(),
                                                op.transformation);
            return Place(topo, MsgKind::kDefineTransformation,
                         op.transformation->name());
          } else if constexpr (std::is_same_v<
                                   Op, CatalogMutation::DefineDerivationOp>) {
            const Derivation& derivation = *op.derivation;
            VDG_RETURN_IF_ERROR(derivation.Validate());
            std::vector<Dataset> outputs;
            VDG_RETURN_IF_ERROR(
                PlanDerivation(topo.shards, derivation, &pending, &outputs));
            for (Dataset& output : outputs) {
              auto shared = std::make_shared<const Dataset>(std::move(output));
              // Later derivations writing the same output must see the
              // producer claim this one just staked.
              pending.datasets.try_emplace(shared->name, shared);
              const Placement placement =
                  Place(topo, MsgKind::kDefineDataset, shared->name);
              subs[placement.shard].push_back(
                  {CatalogMutation{
                       CatalogMutation::DefineDatasetOp{std::move(shared)}},
                   kSynthetic, i});
            }
            return Place(topo, MsgKind::kDefineDerivation, derivation.name());
          } else if constexpr (std::is_same_v<Op,
                                              CatalogMutation::AnnotateOp>) {
            if (!op.name_from_op.has_value()) {
              return Place(topo, MsgKind::kAnnotate, op.name, op.kind);
            }
            const size_t pos = *op.name_from_op;
            if (pos >= i || op_id[pos].empty()) {
              return Status::InvalidArgument(
                  "annotate references batch op " + std::to_string(pos) +
                  " which assigned no id");
            }
            CatalogMutation::AnnotateOp annotate = op;
            annotate.name = op_id[pos];
            annotate.name_from_op.reset();
            const Placement placement =
                Place(topo, MsgKind::kAnnotate, annotate.name, annotate.kind);
            rewritten = CatalogMutation{std::move(annotate)};
            return placement;
          } else if constexpr (std::is_same_v<Op,
                                              CatalogMutation::AddReplicaOp>) {
            const Placement placement =
                Place(topo, MsgKind::kAddReplica, op.replica.dataset);
            CatalogMutation::AddReplicaOp add = op;
            AssignId(MsgKind::kAddReplica, placement.shard, &add.replica.id);
            op_id[i] = add.replica.id;
            rewritten = CatalogMutation{std::move(add)};
            return placement;
          } else if constexpr (std::is_same_v<
                                   Op, CatalogMutation::RecordInvocationOp>) {
            const Placement placement = Place(
                topo, MsgKind::kRecordInvocation, op.invocation.derivation);
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
            AssignId(MsgKind::kRecordInvocation, placement.shard,
                     &record.invocation.id);
            op_id[i] = record.invocation.id;
            rewritten = CatalogMutation{std::move(record)};
            return placement;
          } else if constexpr (std::is_same_v<
                                   Op, CatalogMutation::SetDatasetSizeOp>) {
            return Place(topo, MsgKind::kSetDatasetSize, op.name);
          } else {
            static_assert(
                std::is_same_v<Op, CatalogMutation::InvalidateReplicaOp>);
            return Place(topo, MsgKind::kInvalidateReplica, op.id);
          }
        },
        mutations[i].op);
    if (!placed.ok()) {
      merged.statuses[i] = placed.status();
      resolved_early[i] = 1;
      continue;
    }
    fanout[i] = placed->fanout;
    if (placed->fanout == Fanout::kOne) {
      subs[placed->shard].push_back(
          {rewritten ? std::move(*rewritten) : mutations[i], i, 0});
    } else {
      const CatalogMutation& routed = rewritten ? *rewritten : mutations[i];
      for (auto& sub : subs) sub.push_back({routed, i, 0});
    }
  }

  // Every shard's answer to each broadcast op, for MergeBroadcast.
  std::vector<std::vector<Status>> answers(n);

  // Execute shard by shard; each sub-batch commits under its shard's
  // single lock/version/flush. stop_on_error scopes to the sub-batch.
  for (size_t k = 0; k < shard_count; ++k) {
    if (subs[k].empty()) continue;
    wire::ApplyBatchReq sub_batch;
    sub_batch.mutations.reserve(subs[k].size());
    for (SubOp& sub : subs[k]) {
      sub_batch.mutations.push_back(std::move(sub.mut));
    }
    sub_batch.options = batch.options;
    if (!batch.options.idempotency_token.empty()) {
      sub_batch.options.idempotency_token =
          batch.options.idempotency_token + "/s" + std::to_string(k);
    }
    Result<wire::Response> got = topo.shards[k]->Call(
        wire::Request{MsgKind::kApplyBatch, std::move(sub_batch)});
    // Transport failure: earlier shards may have committed; the error
    // propagates and the derived idempotency tokens make the retry
    // safe (already-committed sub-batches replay as no-ops).
    if (!got.ok()) return got.status();
    auto* body = std::get_if<wire::BatchResultResp>(&got->body);
    if (body == nullptr || body->result.statuses.size() != subs[k].size()) {
      return Status::Internal("shard " + std::to_string(k) +
                              " returned a misaligned batch result");
    }
    BatchResult& result = body->result;
    for (size_t j = 0; j < subs[k].size(); ++j) {
      const SubOp& sub = subs[k][j];
      Status& s = result.statuses[j];
      if (sub.origin == kSynthetic) {
        // Output pre-creation lost a benign race when it already
        // exists; anything else surfaces on the owning derivation op.
        if (!s.ok() && !s.IsAlreadyExists() &&
            merged.statuses[sub.fold_into].ok() &&
            !resolved_early[sub.fold_into]) {
          merged.statuses[sub.fold_into] = std::move(s);
          resolved_early[sub.fold_into] = 1;
        }
      } else if (fanout[sub.origin] != Fanout::kOne) {
        answers[sub.origin].push_back(std::move(s));
      } else if (!resolved_early[sub.origin]) {
        // A synthetic helper that already folded an error into this op
        // keeps it; the op's own (likely OK) outcome is moot.
        merged.statuses[sub.origin] = std::move(s);
        if (j < result.assigned_ids.size()) {
          merged.assigned_ids[sub.origin] = std::move(result.assigned_ids[j]);
        }
      }
    }
    if (post_subbatch_hook_) post_subbatch_hook_(static_cast<uint32_t>(k));
  }

  for (size_t i = 0; i < n; ++i) {
    if (!resolved_early[i] && fanout[i] != Fanout::kOne) {
      merged.statuses[i] = MergeBroadcast(fanout[i], answers[i]);
    }
    const Status& s = merged.statuses[i];
    if (s.ok()) {
      ++merged.applied;
    } else if (merged.first_error.ok()) {
      merged.first_error = s;
    }
  }
  VDG_ASSIGN_OR_RETURN(merged.version, CompositeVersion(topo.shards));
  return merged;
}

}  // namespace vdg
