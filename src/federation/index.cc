#include "federation/index.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/strings.h"

namespace vdg {

namespace {
std::string NameKey(std::string_view kind, std::string_view name) {
  return std::string(kind) + "/" + std::string(name);
}
}  // namespace

std::string FederatedIndex::EntryKey(std::string_view kind,
                                     std::string_view authority,
                                     std::string_view name) {
  std::string out(kind);
  out.push_back('\x1f');
  out += authority;
  out.push_back('\x1f');
  out += name;
  return out;
}

Status FederatedIndex::AddSource(const VirtualDataCatalog* catalog) {
  if (catalog == nullptr) return Status::InvalidArgument("null catalog");
  return AddSource(std::make_shared<InProcessCatalogClient>(catalog));
}

Status FederatedIndex::AddSource(std::shared_ptr<CatalogClient> client) {
  if (client == nullptr) return Status::InvalidArgument("null catalog client");
  std::unique_lock lock(mu_);
  if (source_by_authority_.count(client->authority()) != 0) {
    return Status::AlreadyExists("catalog already indexed: " +
                                 client->authority());
  }
  source_by_authority_[client->authority()] = client.get();
  SourceState source;
  source.client = std::move(client);
  sources_.push_back(std::move(source));
  return Status::OK();
}

Result<IndexEntry> FederatedIndex::EntryFromRecord(
    ObjectRecord record, std::string_view authority) {
  if (!record.status.ok()) return record.status;
  IndexEntry entry;
  entry.kind = std::move(record.kind);
  entry.name = std::move(record.name);
  entry.authority = std::string(authority);
  if (record.dataset) {
    entry.type = record.dataset->type;
    entry.materialized = record.materialized;
    entry.annotations = std::move(record.dataset->annotations);
  } else if (record.transformation) {
    entry.annotations = std::move(record.transformation->annotations());
  } else if (record.derivation) {
    entry.annotations = std::move(record.derivation->annotations());
  } else {
    return Status::InvalidArgument("unindexable kind: " + entry.kind);
  }
  return entry;
}

void FederatedIndex::UpsertEntry(SourceState* source, IndexEntry entry) {
  std::string key = EntryKey(entry.kind, entry.authority, entry.name);
  auto [it, inserted] = entries_.insert_or_assign(key, std::move(entry));
  if (inserted) {
    by_name_.emplace(NameKey(it->second.kind, it->second.name), key);
    source->entry_keys.insert(std::move(key));
  }
}

void FederatedIndex::EraseEntry(SourceState* source, std::string_view kind,
                                std::string_view name) {
  std::string key = EntryKey(kind, source->client->authority(), name);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  auto [lo, hi] = by_name_.equal_range(NameKey(kind, name));
  for (auto n = lo; n != hi; ++n) {
    if (n->second == key) {
      by_name_.erase(n);
      break;
    }
  }
  source->entry_keys.erase(key);
  entries_.erase(it);
}

Status FederatedIndex::RebuildSource(SourceState* source) {
  CatalogClient& client = *source->client;
  // Capture the per-shard versions BEFORE enumerating: a writer racing
  // the scan may land changes we partially miss, and recording the
  // pre-scan anchors makes the next delta refresh re-apply them
  // (idempotent upserts) instead of skipping them forever.
  ShardTopology topo_before_scan = client.shard_topology();
  VDG_ASSIGN_OR_RETURN(std::vector<uint64_t> anchors_before_scan,
                       client.ShardVersions());
  // Drop everything this source contributed, then rescan it.
  for (const std::string& key : source->entry_keys) {
    auto it = entries_.find(key);
    if (it == entries_.end()) continue;
    auto [lo, hi] = by_name_.equal_range(
        NameKey(it->second.kind, it->second.name));
    for (auto n = lo; n != hi; ++n) {
      if (n->second == key) {
        by_name_.erase(n);
        break;
      }
    }
    entries_.erase(it);
  }
  source->entry_keys.clear();

  // Enumerate all three kinds, then fetch every object in one batched
  // round trip rather than a point lookup per name.
  std::vector<ObjectKey> keys;
  const char* kinds[] = {"dataset", "transformation", "derivation"};
  for (const char* kind : kinds) {
    VDG_ASSIGN_OR_RETURN(NameList names, client.AllNames(kind));
    for (std::string_view name : names) {
      keys.push_back(ObjectKey{kind, std::string(name)});
    }
  }
  VDG_ASSIGN_OR_RETURN(std::vector<ObjectRecord> records,
                       client.BatchGet(keys));
  for (ObjectRecord& record : records) {
    Result<IndexEntry> entry =
        EntryFromRecord(std::move(record), client.authority());
    if (!entry.ok()) {
      // A name enumerated a moment ago can be gone by snapshot time
      // (racing remove); the next delta will reconcile it.
      if (entry.status().IsNotFound()) continue;
      return entry.status();
    }
    UpsertEntry(source, std::move(*entry));
    ++refresh_stats_.entries_scanned;
  }
  ++refresh_stats_.full_rebuilds;
  source->topology_at_refresh = topo_before_scan;
  source->shard_anchors = std::move(anchors_before_scan);
  source->version_at_refresh = 0;
  for (uint64_t anchor : source->shard_anchors) {
    source->version_at_refresh += anchor;
  }
  return Status::OK();
}

Status FederatedIndex::ApplyDelta(SourceState* source,
                                  const std::vector<CatalogChange>& changes,
                                  uint64_t* anchor) {
  CatalogClient& client = *source->client;
  // Collapse to the final op per object: a burst of edits to one
  // dataset costs one snapshot, and interleaved define/remove settles
  // on whichever came last.
  std::map<std::pair<std::string, std::string>, char> final_op;
  for (const CatalogChange& change : changes) {
    if (change.kind != "dataset" && change.kind != "transformation" &&
        change.kind != "derivation") {
      continue;  // invocations/types are not index-visible
    }
    final_op[{change.kind, change.name}] = change.op;
  }
  // One batched fetch for every upserted object; deletes need no I/O.
  std::vector<ObjectKey> keys;
  for (const auto& [object, op] : final_op) {
    if (op != 'D') keys.push_back(ObjectKey{object.first, object.second});
  }
  std::map<std::pair<std::string, std::string>, ObjectRecord> fetched;
  if (!keys.empty()) {
    VDG_ASSIGN_OR_RETURN(std::vector<ObjectRecord> records,
                         client.BatchGet(keys));
    for (ObjectRecord& record : records) {
      fetched[{record.kind, record.name}] = std::move(record);
    }
  }
  for (const auto& [object, op] : final_op) {
    const auto& [kind, name] = object;
    if (op == 'D') {
      EraseEntry(source, kind, name);
    } else {
      auto it = fetched.find(object);
      Result<IndexEntry> entry =
          it == fetched.end()
              ? Result<IndexEntry>(Status::NotFound("missing record"))
              : EntryFromRecord(std::move(it->second), client.authority());
      if (entry.ok()) {
        UpsertEntry(source, std::move(*entry));
      } else {
        // Upserted then removed within the window with the removal
        // recorded as an upsert collapse — treat as gone.
        EraseEntry(source, kind, name);
      }
    }
    ++refresh_stats_.entries_applied;
  }
  // Advance to the last change actually applied, not the shard's live
  // version: a writer may have bumped it after ChangesSince returned,
  // and those changes must survive into the next delta.
  if (!changes.empty()) {
    *anchor = changes.back().version;
  }
  return Status::OK();
}

Status FederatedIndex::DeltaRefreshSource(SourceState* source,
                                          const ShardTopology& topo) {
  CatalogClient& client = *source->client;
  if (source->shard_anchors.size() != topo.shard_count) {
    // First refresh of this source: every shard starts from version 0,
    // matching the pre-shard behavior of ChangesSince(0).
    source->shard_anchors.assign(topo.shard_count, 0);
    source->topology_at_refresh = topo;
  }
  for (uint32_t shard = 0; shard < topo.shard_count; ++shard) {
    uint64_t* anchor = &source->shard_anchors[shard];
    Result<std::vector<CatalogChange>> changes =
        client.ShardChangesSince(shard, *anchor);
    if (!changes.ok()) {
      if (changes.status().IsFailedPrecondition() ||
          changes.status().IsInvalidArgument()) {
        // This shard's changelog window no longer reaches our anchor
        // (or the anchor postdates a reset shard): rescan the whole
        // source — entries are not attributable to shards, so a
        // partial per-shard rebuild cannot drop this shard's stale
        // entries without dropping everyone's.
        return RebuildSource(source);
      }
      return changes.status();
    }
    VDG_RETURN_IF_ERROR(ApplyDelta(source, *changes, anchor));
  }
  ++refresh_stats_.delta_refreshes;
  source->version_at_refresh = 0;
  for (uint64_t anchor : source->shard_anchors) {
    source->version_at_refresh += anchor;
  }
  return Status::OK();
}

Status FederatedIndex::Refresh() {
  std::unique_lock lock(mu_);
  // Accumulate into a local and commit only at the end: an early
  // return on a failed source must not leave version_sum_ zeroed (or
  // half-summed) while the per-source versions still hold real values.
  uint64_t version_sum = 0;
  for (SourceState& source : sources_) {
    Result<uint64_t> live_version = source.client->Version();
    if (!live_version.ok()) {
      version_sum_ = 0;
      for (const SourceState& s : sources_) {
        version_sum_ += s.version_at_refresh;
      }
      return live_version.status();
    }
    if (*live_version != source.version_at_refresh || refresh_count_ == 0) {
      // Deltas anchor per shard (a composite version is a sum, not a
      // changelog position). A fingerprint change means the anchors
      // describe a dead topology: only a rebuild is sound. Window
      // misses fall back to a rebuild inside DeltaRefreshSource;
      // transport failures do NOT — an unreachable source must
      // surface as an error, not as a silent full rebuild over the
      // same broken link.
      ShardTopology topo = source.client->shard_topology();
      Status applied;
      if (!source.shard_anchors.empty() &&
          (topo.fingerprint != source.topology_at_refresh.fingerprint ||
           topo.shard_count != source.topology_at_refresh.shard_count)) {
        applied = RebuildSource(&source);
      } else {
        applied = DeltaRefreshSource(&source, topo);
      }
      if (!applied.ok()) {
        // Keep the stats invariant: the sum always mirrors the
        // per-source versions, including sources updated before the
        // failure.
        version_sum_ = 0;
        for (const SourceState& s : sources_) {
          version_sum_ += s.version_at_refresh;
        }
        return applied;
      }
    }
    version_sum += source.version_at_refresh;
  }
  version_sum_ = version_sum;
  ++refresh_count_;
  return Status::OK();
}

Status FederatedIndex::RebuildAll() {
  std::unique_lock lock(mu_);
  uint64_t version_sum = 0;
  for (SourceState& source : sources_) {
    Status rebuilt = RebuildSource(&source);
    if (!rebuilt.ok()) {
      version_sum_ = 0;
      for (const SourceState& s : sources_) {
        version_sum_ += s.version_at_refresh;
      }
      return rebuilt;
    }
    version_sum += source.version_at_refresh;
  }
  version_sum_ = version_sum;
  ++refresh_count_;
  return Status::OK();
}

bool FederatedIndex::IsStale() const {
  std::shared_lock lock(mu_);
  if (refresh_count_ == 0) return true;
  for (const SourceState& source : sources_) {
    // In-process clients answer from an atomic load; polling here
    // contends only on this index's shared lock, never the catalog's.
    Result<uint64_t> version = source.client->Version();
    if (!version.ok() || *version != source.version_at_refresh) return true;
  }
  return false;
}

std::vector<IndexEntry> FederatedIndex::FindDatasets(
    const DatasetQuery& query) const {
  std::shared_lock lock(mu_);
  std::vector<IndexEntry> out;
  // Entry keys are kind-first, so this walks only the dataset range.
  for (auto it = entries_.lower_bound("dataset\x1f");
       it != entries_.end() && StartsWith(it->first, "dataset\x1f"); ++it) {
    const IndexEntry& entry = it->second;
    if (!query.name_prefix.empty() &&
        !StartsWith(entry.name, query.name_prefix)) {
      continue;
    }
    if (query.type) {
      // Conformance is judged by the owning catalog's type universe,
      // read under that catalog's lock through the client boundary —
      // a concurrent DefineType would otherwise race this walk. An
      // unreachable owner conservatively excludes its entries.
      auto owner = source_by_authority_.find(entry.authority);
      if (owner == source_by_authority_.end()) continue;
      Result<bool> conforms =
          owner->second->TypeConforms(entry.type, *query.type);
      if (!conforms.ok() || !*conforms) continue;
    }
    if (!MatchesAll(entry.annotations, query.predicates)) continue;
    if (query.require_materialized && !entry.materialized) continue;
    if (query.only_virtual && entry.materialized) continue;
    out.push_back(entry);
    if (query.limit != 0 && out.size() >= query.limit) break;
  }
  return out;
}

std::vector<IndexEntry> FederatedIndex::FindTransformations(
    const TransformationQuery& query) const {
  std::shared_lock lock(mu_);
  std::vector<IndexEntry> out;
  for (auto it = entries_.lower_bound("transformation\x1f");
       it != entries_.end() && StartsWith(it->first, "transformation\x1f");
       ++it) {
    const IndexEntry& entry = it->second;
    if (!query.name_prefix.empty() &&
        !StartsWith(entry.name, query.name_prefix)) {
      continue;
    }
    if (!MatchesAll(entry.annotations, query.predicates)) continue;
    // consumes/produces need full signatures; the index defers those
    // to the owning catalog (one remote call per candidate).
    if (query.consumes || query.produces) {
      auto owner = source_by_authority_.find(entry.authority);
      if (owner == source_by_authority_.end()) continue;
      TransformationQuery narrowed = query;
      narrowed.name_prefix = entry.name;
      Result<NameList> matches =
          owner->second->FindTransformations(narrowed);
      if (!matches.ok() || matches->empty()) continue;
    }
    out.push_back(entry);
    if (query.limit != 0 && out.size() >= query.limit) break;
  }
  return out;
}

std::vector<IndexEntry> FederatedIndex::FindDerivations(
    const DerivationQuery& query) const {
  std::shared_lock lock(mu_);
  std::vector<IndexEntry> out;
  for (auto it = entries_.lower_bound("derivation\x1f");
       it != entries_.end() && StartsWith(it->first, "derivation\x1f"); ++it) {
    const IndexEntry& entry = it->second;
    if (!query.name_prefix.empty() &&
        !StartsWith(entry.name, query.name_prefix)) {
      continue;
    }
    if (!MatchesAll(entry.annotations, query.predicates)) continue;
    out.push_back(entry);
    if (query.limit != 0 && out.size() >= query.limit) break;
  }
  return out;
}

std::vector<IndexEntry> FederatedIndex::LookupName(
    std::string_view kind, std::string_view name) const {
  std::shared_lock lock(mu_);
  std::vector<IndexEntry> out;
  auto [lo, hi] = by_name_.equal_range(NameKey(kind, name));
  for (auto it = lo; it != hi; ++it) {
    auto entry = entries_.find(it->second);
    if (entry != entries_.end()) out.push_back(entry->second);
  }
  return out;
}

std::vector<IndexEntry> FederatedIndex::ScanDatasets(
    const DatasetQuery& query) const {
  std::shared_lock lock(mu_);
  std::vector<IndexEntry> out;
  for (const SourceState& source : sources_) {
    CatalogClient& client = *source.client;
    Result<NameList> names = client.FindDatasets(query);
    if (!names.ok()) continue;  // unreachable source contributes nothing
    // One batched fetch for the matches instead of a get per name.
    std::vector<ObjectKey> keys;
    keys.reserve(names->size());
    for (std::string_view name : *names) {
      keys.push_back(ObjectKey{"dataset", std::string(name)});
    }
    Result<std::vector<ObjectRecord>> records = client.BatchGet(keys);
    if (!records.ok()) continue;
    for (ObjectRecord& record : *records) {
      Result<IndexEntry> entry =
          EntryFromRecord(std::move(record), client.authority());
      if (!entry.ok()) continue;
      out.push_back(std::move(*entry));
      if (query.limit != 0 && out.size() >= query.limit) return out;
    }
  }
  return out;
}

}  // namespace vdg
