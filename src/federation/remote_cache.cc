#include "federation/remote_cache.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "catalog/wire.h"

namespace vdg {

namespace {

constexpr char kFieldSep = '\x1f';  // between query fields
constexpr char kTokenSep = '\x1d';  // between predicate tokens
constexpr char kPartSep = '\x1e';   // within one predicate token

/// One predicate as "key <sep> op <sep> tag+wire-value". The wire form
/// (not the display form) keeps doubles distinct past 6 digits, same
/// as the catalog's attribute-index key.
std::string PredicateToken(const AttributePredicate& predicate) {
  std::string token = predicate.key;
  token.push_back(kPartSep);
  token += std::to_string(static_cast<int>(predicate.op));
  token.push_back(kPartSep);
  token.push_back(predicate.operand.TypeTag());
  token += predicate.operand.ToWireString();
  return token;
}

/// Sorted predicate tokens: a conjunction is order-insensitive, so
/// sorting makes reordered-but-equal queries collide on one key.
void AppendPredicates(std::string* key,
                      const std::vector<AttributePredicate>& predicates) {
  std::vector<std::string> tokens;
  tokens.reserve(predicates.size());
  for (const AttributePredicate& predicate : predicates) {
    tokens.push_back(PredicateToken(predicate));
  }
  std::sort(tokens.begin(), tokens.end());
  for (const std::string& token : tokens) {
    *key += token;
    key->push_back(kTokenSep);
  }
}

void AppendOptType(std::string* key, const std::optional<DatasetType>& type) {
  key->push_back(type.has_value() ? '1' : '0');
  if (type.has_value()) *key += type->ToString();
  key->push_back(kFieldSep);
}

}  // namespace

CachingCatalogClient::CachingCatalogClient(
    std::shared_ptr<CatalogClient> upstream, size_t capacity,
    DegradedReadOptions degraded)
    : upstream_(std::move(upstream)),
      authority_(upstream_->authority()),
      objects_(capacity),
      steps_(capacity),
      queries_(capacity),
      degraded_(degraded) {}

void CachingCatalogClient::NoteUpstreamLocked(const Status& status) {
  if (!degraded_.enabled) return;
  if (status.ok() || !(status.IsUnavailable() || status.IsDeadlineExceeded())) {
    // Any definitive answer (including NotFound etc.) proves the
    // upstream is reachable.
    upstream_down_ = false;
    return;
  }
  if (!upstream_down_) {
    upstream_down_ = true;
    down_since_ = std::chrono::steady_clock::now();
  }
}

Status CachingCatalogClient::DegradedGateLocked() {
  if (!degraded_.enabled || !upstream_down_) return Status::OK();
  const auto age = std::chrono::steady_clock::now() - down_since_;
  if (age <= degraded_.staleness_bound) {
    ++stats_.degraded_hits;
    return Status::OK();
  }
  ++stats_.stale_rejections;
  return Status::Unavailable(
      "upstream catalog unreachable and cache exceeded the degraded-read "
      "staleness bound");
}

std::string CachingCatalogClient::Key(std::string_view kind,
                                      std::string_view name) {
  std::string key(kind);
  key.push_back('\x1f');
  key += name;
  return key;
}

std::string CachingCatalogClient::QueryKey(const DatasetQuery& query) {
  std::string key("D");
  key.push_back(kFieldSep);
  AppendOptType(&key, query.type);
  key += query.name_prefix;
  key.push_back(kFieldSep);
  key.push_back(query.require_materialized ? '1' : '0');
  key.push_back(query.only_virtual ? '1' : '0');
  key += std::to_string(query.limit);
  key.push_back(kFieldSep);
  AppendPredicates(&key, query.predicates);
  return key;
}

std::string CachingCatalogClient::QueryKey(const TransformationQuery& query) {
  std::string key("T");
  key.push_back(kFieldSep);
  AppendOptType(&key, query.consumes);
  AppendOptType(&key, query.produces);
  key += query.name_prefix;
  key.push_back(kFieldSep);
  key += std::to_string(query.limit);
  key.push_back(kFieldSep);
  AppendPredicates(&key, query.predicates);
  return key;
}

std::string CachingCatalogClient::QueryKey(const DerivationQuery& query) {
  std::string key("V");
  key.push_back(kFieldSep);
  key += query.transformation;
  key.push_back(kFieldSep);
  key += query.reads_dataset;
  key.push_back(kFieldSep);
  key += query.writes_dataset;
  key.push_back(kFieldSep);
  key += query.name_prefix;
  key.push_back(kFieldSep);
  key += std::to_string(query.limit);
  key.push_back(kFieldSep);
  AppendPredicates(&key, query.predicates);
  return key;
}

std::string CachingCatalogClient::TopologyKey(std::string key) const {
  key.push_back(kFieldSep);
  key += std::to_string(upstream_->shard_topology().fingerprint);
  return key;
}

template <typename Fetch>
Result<NameList> CachingCatalogClient::CachedFindLocked(std::string key,
                                                        Fetch&& fetch) {
  if (const NameList* cached = queries_.Get(key)) {
    VDG_RETURN_IF_ERROR(DegradedGateLocked());
    ++stats_.query_hits;
    // A hit copies one shared_ptr: every caller aliases the SAME
    // immutable list (no per-hit vector copy — the PR-9 fix).
    return *cached;
  }
  ++stats_.query_misses;
  Result<NameList> fetched = fetch();
  NoteUpstreamLocked(fetched.ok() ? Status::OK() : fetched.status());
  VDG_ASSIGN_OR_RETURN(NameList names, std::move(fetched));
  stats_.evictions += queries_.Put(std::move(key), names);
  return names;
}

void CachingCatalogClient::FlushQueriesLocked(char kind_tag) {
  std::string lo(1, kind_tag);
  lo.push_back(kFieldSep);
  std::string hi(1, kind_tag);
  hi.push_back(kFieldSep + 1);
  stats_.evictions += queries_.EraseRange(lo, hi);
}

void CachingCatalogClient::InsertLocked(ObjectRecord record) {
  std::string key = Key(record.kind, record.name);
  stats_.evictions += objects_.Put(std::move(key), std::move(record));
}

void CachingCatalogClient::EvictLocked(std::string_view kind,
                                       std::string_view name) {
  if (objects_.Erase(Key(kind, name))) ++stats_.evictions;
}

void CachingCatalogClient::FlushLocked() {
  stats_.evictions += objects_.Clear() + queries_.Clear();
  steps_.Clear();
  ++stats_.flushes;
}

void CachingCatalogClient::ApplyChangeLocked(std::string_view kind,
                                             std::string_view name) {
  if (kind == "dataset") {
    EvictLocked("dataset", name);
    steps_.Erase(name);
    FlushQueriesLocked('D');
  } else if (kind == "transformation") {
    EvictLocked("transformation", name);
    FlushQueriesLocked('T');
  } else if (kind == "derivation" || kind == "invocation") {
    if (kind == "derivation") {
      EvictLocked("derivation", name);
      FlushQueriesLocked('V');
    }
    // A provenance step aggregates a dataset with its producing
    // derivation and that derivation's invocations; the changelog
    // cannot pin those to one dataset key, so drop all steps.
    steps_.Clear();
  } else if (kind == "type") {
    // A type definition moves the conformance closure, which can grow
    // any type-constrained dataset query's result set.
    FlushQueriesLocked('D');
  }
  // Conformance checks themselves still pass through to the server.
}

void CachingCatalogClient::EvictAfterLocked(
    wire::MsgKind kind, std::string_view name, std::string_view object_kind,
    const std::vector<std::string>& outputs) {
  using wire::MsgKind;
  switch (kind) {
    case MsgKind::kDefineDataset:
    case MsgKind::kAddReplica:  // the materialized bit may have flipped
    case MsgKind::kSetDatasetSize:
      ApplyChangeLocked("dataset", name);
      break;
    case MsgKind::kDefineTransformation:
      ApplyChangeLocked("transformation", name);
      break;
    case MsgKind::kDefineDerivation:
      ApplyChangeLocked("derivation", name);
      // Outputs may have been auto-defined, or gained a producer.
      for (const std::string& output : outputs) {
        ApplyChangeLocked("dataset", output);
      }
      break;
    case MsgKind::kAnnotate:
      ApplyChangeLocked(object_kind, name);
      break;
    case MsgKind::kRecordInvocation:
      ApplyChangeLocked("invocation", name);
      break;
    case MsgKind::kInvalidateReplica:
      // The replica's dataset is unknown from the id alone; every
      // cached dataset's materialized bit is suspect.
      stats_.evictions += objects_.EraseIf(
          [](const std::string&, const ObjectRecord& record) {
            return record.kind == "dataset";
          });
      FlushQueriesLocked('D');
      break;
    default:
      break;
  }
}

Result<ObjectRecord> CachingCatalogClient::GetOrFillLocked(
    std::string_view kind, std::string_view name) {
  if (const ObjectRecord* cached = objects_.Get(Key(kind, name))) {
    VDG_RETURN_IF_ERROR(DegradedGateLocked());
    ++stats_.hits;
    return *cached;
  }
  ++stats_.misses;
  Result<std::vector<ObjectRecord>> fetched =
      upstream_->BatchGet({ObjectKey{std::string(kind), std::string(name)}});
  NoteUpstreamLocked(fetched.ok() ? Status::OK() : fetched.status());
  VDG_ASSIGN_OR_RETURN(std::vector<ObjectRecord> records, std::move(fetched));
  if (records.size() != 1) {
    return Status::Internal("single-key BatchGet returned " +
                            std::to_string(records.size()) + " records");
  }
  ObjectRecord record = records.front();
  InsertLocked(records.front());
  return record;
}

Status CachingCatalogClient::Revalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.revalidations;
  const ShardTopology topo = upstream_->shard_topology();
  if (topo.shard_count <= 1 && topo.fingerprint == 0) {
    // Unsharded upstream: the original one-round-trip path.
    Result<std::vector<CatalogChange>> changes =
        upstream_->ChangesSince(synced_version_);
    NoteUpstreamLocked(changes.ok() ? Status::OK() : changes.status());
    if (changes.ok()) {
      for (const CatalogChange& change : *changes) {
        ApplyChangeLocked(change.kind, change.name);
      }
      if (!changes->empty()) synced_version_ = changes->back().version;
      return Status::OK();
    }
    if (changes.status().IsFailedPrecondition() ||
        changes.status().IsInvalidArgument()) {
      // The server's bounded changelog no longer reaches our sync point
      // (or our version predates/postdates its window after a reset):
      // nothing cached can be trusted individually.
      FlushLocked();
      VDG_ASSIGN_OR_RETURN(synced_version_, upstream_->Version());
      return Status::OK();
    }
    return changes.status();
  }

  // Sharded upstream: its composite version is a sum, addressable in
  // no single changelog, so deltas anchor per shard.
  bool resync = false;
  if (shard_synced_.empty()) {
    // First contact: walk each shard's changelog from zero, the exact
    // analog of the single-shard first Revalidate.
    shard_synced_.assign(topo.shard_count, 0);
  } else if (topo.fingerprint != synced_topology_.fingerprint ||
             topo.shard_count != synced_topology_.shard_count) {
    // Reshard: the anchors belong to a dead topology, and no cached
    // entry can be attributed across the swap.
    resync = true;
  }
  if (!resync) {
    for (uint32_t shard = 0; shard < topo.shard_count; ++shard) {
      Result<std::vector<CatalogChange>> changes =
          upstream_->ShardChangesSince(shard, shard_synced_[shard]);
      NoteUpstreamLocked(changes.ok() ? Status::OK() : changes.status());
      if (changes.ok()) {
        for (const CatalogChange& change : *changes) {
          ApplyChangeLocked(change.kind, change.name);
        }
        if (!changes->empty()) shard_synced_[shard] = changes->back().version;
        continue;
      }
      if (changes.status().IsFailedPrecondition() ||
          changes.status().IsInvalidArgument()) {
        // This shard's window no longer reaches our anchor; nothing
        // cached can be trusted individually.
        resync = true;
        break;
      }
      return changes.status();
    }
  }
  if (resync) {
    FlushLocked();
    Result<std::vector<uint64_t>> versions = upstream_->ShardVersions();
    NoteUpstreamLocked(versions.ok() ? Status::OK() : versions.status());
    VDG_ASSIGN_OR_RETURN(shard_synced_, std::move(versions));
  }
  synced_topology_ = topo;
  synced_version_ = 0;
  for (uint64_t anchor : shard_synced_) synced_version_ += anchor;
  return Status::OK();
}

ShardTopology CachingCatalogClient::shard_topology() const {
  return upstream_->shard_topology();
}

Result<std::vector<uint64_t>> CachingCatalogClient::ShardVersions() {
  return upstream_->ShardVersions();
}

Result<std::vector<CatalogChange>> CachingCatalogClient::ShardChangesSince(
    uint32_t shard, uint64_t since_version) {
  return upstream_->ShardChangesSince(shard, since_version);
}

Result<uint64_t> CachingCatalogClient::Version() {
  Result<uint64_t> version = upstream_->Version();
  if (degraded_.enabled) {
    // Version() doubles as the cheap reachability probe in degraded
    // mode: a success ends the outage window.
    std::lock_guard<std::mutex> lock(mu_);
    NoteUpstreamLocked(version.ok() ? Status::OK() : version.status());
  }
  return version;
}

Result<std::vector<CatalogChange>> CachingCatalogClient::ChangesSince(
    uint64_t since_version) {
  std::lock_guard<std::mutex> lock(mu_);
  VDG_ASSIGN_OR_RETURN(std::vector<CatalogChange> changes,
                       upstream_->ChangesSince(since_version));
  // Piggyback: the caller just paid for a change window, so apply it
  // to the cache too. Invalidating a change we already processed is
  // harmless (conservative), so every entry newer than our sync point
  // gets applied; the sync point itself only advances when the window
  // actually starts at or before it — otherwise the skipped gap
  // [synced_version_, since_version] could hide invalidations.
  for (const CatalogChange& change : changes) {
    if (change.version > synced_version_) {
      ApplyChangeLocked(change.kind, change.name);
    }
  }
  if (!changes.empty() && since_version <= synced_version_ &&
      changes.back().version > synced_version_) {
    synced_version_ = changes.back().version;
  }
  return changes;
}

Result<Dataset> CachingCatalogClient::GetDataset(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  VDG_ASSIGN_OR_RETURN(ObjectRecord record, GetOrFillLocked("dataset", name));
  if (!record.status.ok()) return record.status;
  return *std::move(record.dataset);
}

Result<Transformation> CachingCatalogClient::GetTransformation(
    std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  VDG_ASSIGN_OR_RETURN(ObjectRecord record,
                       GetOrFillLocked("transformation", name));
  if (!record.status.ok()) return record.status;
  return *std::move(record.transformation);
}

Result<Derivation> CachingCatalogClient::GetDerivation(
    std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  VDG_ASSIGN_OR_RETURN(ObjectRecord record,
                       GetOrFillLocked("derivation", name));
  if (!record.status.ok()) return record.status;
  return *std::move(record.derivation);
}

Result<bool> CachingCatalogClient::HasDataset(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  VDG_ASSIGN_OR_RETURN(ObjectRecord record, GetOrFillLocked("dataset", name));
  if (record.status.ok()) return true;
  if (record.status.IsNotFound()) return false;
  return record.status;
}

Result<bool> CachingCatalogClient::IsMaterialized(std::string_view dataset) {
  std::lock_guard<std::mutex> lock(mu_);
  VDG_ASSIGN_OR_RETURN(ObjectRecord record,
                       GetOrFillLocked("dataset", dataset));
  if (record.status.IsNotFound()) return false;
  if (!record.status.ok()) return record.status;
  return record.materialized;
}

Result<std::string> CachingCatalogClient::ProducerOf(
    std::string_view dataset) {
  return upstream_->ProducerOf(dataset);
}

Result<std::vector<Invocation>> CachingCatalogClient::InvocationsOf(
    std::string_view derivation) {
  return upstream_->InvocationsOf(derivation);
}

Result<NameList> CachingCatalogClient::FindDatasets(
    const DatasetQuery& query) {
  std::lock_guard<std::mutex> lock(mu_);
  return CachedFindLocked(TopologyKey(QueryKey(query)),
                          [&] { return upstream_->FindDatasets(query); });
}

Result<NameList> CachingCatalogClient::FindTransformations(
    const TransformationQuery& query) {
  std::lock_guard<std::mutex> lock(mu_);
  return CachedFindLocked(TopologyKey(QueryKey(query)), [&] {
    return upstream_->FindTransformations(query);
  });
}

Result<NameList> CachingCatalogClient::FindDerivations(
    const DerivationQuery& query) {
  std::lock_guard<std::mutex> lock(mu_);
  return CachedFindLocked(TopologyKey(QueryKey(query)),
                          [&] { return upstream_->FindDerivations(query); });
}

Result<NameList> CachingCatalogClient::AllNames(
    std::string_view kind) {
  return upstream_->AllNames(kind);
}

Result<bool> CachingCatalogClient::TypeConforms(const DatasetType& type,
                                                const DatasetType& against) {
  return upstream_->TypeConforms(type, against);
}

Result<std::vector<ObjectRecord>> CachingCatalogClient::BatchGet(
    const std::vector<ObjectKey>& keys) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ObjectRecord> out(keys.size());
  std::vector<ObjectKey> miss_keys;
  std::vector<size_t> miss_positions;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (const ObjectRecord* cached =
            objects_.Get(Key(keys[i].kind, keys[i].name))) {
      ++stats_.hits;
      out[i] = *cached;
    } else {
      ++stats_.misses;
      miss_keys.push_back(keys[i]);
      miss_positions.push_back(i);
    }
  }
  if (miss_keys.empty()) {
    VDG_RETURN_IF_ERROR(DegradedGateLocked());
  }
  if (!miss_keys.empty()) {
    Result<std::vector<ObjectRecord>> upstream_records =
        upstream_->BatchGet(miss_keys);
    NoteUpstreamLocked(upstream_records.ok() ? Status::OK()
                                             : upstream_records.status());
    VDG_ASSIGN_OR_RETURN(std::vector<ObjectRecord> fetched,
                         std::move(upstream_records));
    if (fetched.size() != miss_keys.size()) {
      return Status::Internal("BatchGet returned " +
                              std::to_string(fetched.size()) + " records for " +
                              std::to_string(miss_keys.size()) + " keys");
    }
    for (size_t i = 0; i < fetched.size(); ++i) {
      out[miss_positions[i]] = fetched[i];
      InsertLocked(std::move(fetched[i]));
    }
  }
  return out;
}

Result<ProvenanceStep> CachingCatalogClient::GetProvenanceStep(
    std::string_view dataset) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const ProvenanceStep* cached = steps_.Get(dataset)) {
    VDG_RETURN_IF_ERROR(DegradedGateLocked());
    ++stats_.hits;
    return *cached;
  }
  ++stats_.misses;
  Result<ProvenanceStep> fetched = upstream_->GetProvenanceStep(dataset);
  NoteUpstreamLocked(fetched.ok() ? Status::OK() : fetched.status());
  VDG_ASSIGN_OR_RETURN(ProvenanceStep step, std::move(fetched));
  stats_.evictions += steps_.Put(step.dataset, step);
  return step;
}

Status CachingCatalogClient::DefineDataset(Dataset dataset) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string name = dataset.name;
  VDG_RETURN_IF_ERROR(upstream_->DefineDataset(std::move(dataset)));
  EvictAfterLocked(wire::MsgKind::kDefineDataset, name);
  return Status::OK();
}

Status CachingCatalogClient::DefineTransformation(
    Transformation transformation) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string name = transformation.name();
  VDG_RETURN_IF_ERROR(
      upstream_->DefineTransformation(std::move(transformation)));
  EvictAfterLocked(wire::MsgKind::kDefineTransformation, name);
  return Status::OK();
}

Status CachingCatalogClient::DefineDerivation(Derivation derivation) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string name = derivation.name();
  std::vector<std::string> outputs = derivation.OutputDatasets();
  VDG_RETURN_IF_ERROR(upstream_->DefineDerivation(std::move(derivation)));
  EvictAfterLocked(wire::MsgKind::kDefineDerivation, name, {}, outputs);
  return Status::OK();
}

Status CachingCatalogClient::Annotate(std::string_view kind,
                                      std::string_view name,
                                      std::string_view key,
                                      AttributeValue value) {
  std::lock_guard<std::mutex> lock(mu_);
  VDG_RETURN_IF_ERROR(
      upstream_->Annotate(kind, name, key, std::move(value)));
  EvictAfterLocked(wire::MsgKind::kAnnotate, name, kind);
  return Status::OK();
}

Result<std::string> CachingCatalogClient::AddReplica(Replica replica) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string dataset = replica.dataset;
  VDG_ASSIGN_OR_RETURN(std::string id,
                       upstream_->AddReplica(std::move(replica)));
  EvictAfterLocked(wire::MsgKind::kAddReplica, dataset);
  return id;
}

Result<std::string> CachingCatalogClient::RecordInvocation(
    Invocation invocation) {
  std::lock_guard<std::mutex> lock(mu_);
  VDG_ASSIGN_OR_RETURN(std::string id,
                       upstream_->RecordInvocation(std::move(invocation)));
  EvictAfterLocked(wire::MsgKind::kRecordInvocation, id);
  return id;
}

Status CachingCatalogClient::SetDatasetSize(std::string_view name,
                                            int64_t size_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  VDG_RETURN_IF_ERROR(upstream_->SetDatasetSize(name, size_bytes));
  EvictAfterLocked(wire::MsgKind::kSetDatasetSize, name);
  return Status::OK();
}

Status CachingCatalogClient::InvalidateReplica(std::string_view id) {
  std::lock_guard<std::mutex> lock(mu_);
  VDG_RETURN_IF_ERROR(upstream_->InvalidateReplica(id));
  EvictAfterLocked(wire::MsgKind::kInvalidateReplica, id);
  return Status::OK();
}

Result<BatchResult> CachingCatalogClient::ApplyBatch(
    const std::vector<CatalogMutation>& mutations,
    const BatchOptions& options) {
  using wire::MsgKind;
  std::lock_guard<std::mutex> lock(mu_);
  VDG_ASSIGN_OR_RETURN(BatchResult result,
                       upstream_->ApplyBatch(mutations, options));
  // One invalidation pass for the whole batch, through the same rule
  // the single-op methods use. Ops that did not apply are skipped:
  // they changed nothing upstream.
  for (size_t i = 0; i < mutations.size(); ++i) {
    if (i < result.statuses.size() && !result.statuses[i].ok()) continue;
    std::visit(
        [&](const auto& op) {
          using Op = std::decay_t<decltype(op)>;
          if constexpr (std::is_same_v<Op, CatalogMutation::DefineDatasetOp>) {
            EvictAfterLocked(MsgKind::kDefineDataset, op.dataset.name);
          } else if constexpr (std::is_same_v<
                                   Op,
                                   CatalogMutation::DefineTransformationOp>) {
            EvictAfterLocked(MsgKind::kDefineTransformation,
                             op.transformation.name());
          } else if constexpr (std::is_same_v<
                                   Op, CatalogMutation::DefineDerivationOp>) {
            EvictAfterLocked(MsgKind::kDefineDerivation, op.derivation.name(),
                             {}, op.derivation.OutputDatasets());
          } else if constexpr (std::is_same_v<Op,
                                              CatalogMutation::AnnotateOp>) {
            const bool assigned = op.name_from_op.has_value() &&
                                  *op.name_from_op < result.assigned_ids.size();
            EvictAfterLocked(
                MsgKind::kAnnotate,
                assigned ? result.assigned_ids[*op.name_from_op] : op.name,
                op.kind);
          } else if constexpr (std::is_same_v<Op,
                                              CatalogMutation::AddReplicaOp>) {
            EvictAfterLocked(MsgKind::kAddReplica, op.replica.dataset);
          } else if constexpr (std::is_same_v<
                                   Op, CatalogMutation::RecordInvocationOp>) {
            EvictAfterLocked(MsgKind::kRecordInvocation, op.invocation.id);
          } else if constexpr (std::is_same_v<
                                   Op, CatalogMutation::SetDatasetSizeOp>) {
            EvictAfterLocked(MsgKind::kSetDatasetSize, op.name);
          } else {
            static_assert(
                std::is_same_v<Op, CatalogMutation::InvalidateReplicaOp>);
            EvictAfterLocked(MsgKind::kInvalidateReplica, op.id);
          }
        },
        mutations[i].op);
  }
  return result;
}

}  // namespace vdg
