#include "catalog/catalog.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <mutex>
#include <variant>

#include "catalog/codec.h"
#include "common/hash.h"
#include "common/strings.h"
#include "common/uri.h"
#include "schema/validation.h"
#include "vdl/printer.h"

namespace vdg {

namespace {

/// Calls fn(object) for every row of `table`, in name order.
template <typename T, typename Fn>
void ForEachRow(const RowTable<T>& table, Fn&& fn) {
  table.ScanFrom({}, [&fn](const typename RowTable<T>::Row& row) {
    fn(*row.object);
    return true;
  });
}

// Removes one (key, value) pair from a multimap index.
template <typename Map, typename K, typename V>
void EraseIndexEntry(Map* map, const K& key, const V& value) {
  auto [lo, hi] = map->equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == value) {
      map->erase(it);
      return;
    }
  }
}

// A non-finite double attribute has no journal form (replay's
// AttributeValue::FromTagged refuses nan and inf), so journaling one
// would leave a catalog that cannot be reopened. Mutations carrying
// one are refused before anything is journaled.
Status CheckFinite(std::string_view key, const AttributeValue& value) {
  if (value.is_double() && !std::isfinite(value.AsDouble())) {
    return Status::InvalidArgument("attribute " + std::string(key) +
                                   " is a non-finite double");
  }
  return Status::OK();
}

Status CheckFinite(const AttributeSet& attrs) {
  for (const auto& [key, value] : attrs) {
    VDG_RETURN_IF_ERROR(CheckFinite(key, value));
  }
  return Status::OK();
}

}  // namespace

std::string_view AccessPathName(AccessPath path) {
  switch (path) {
    case AccessPath::kFullScan:
      return "full-scan";
    case AccessPath::kNamePrefixRange:
      return "name-prefix-range";
    case AccessPath::kAttributeIndex:
      return "attribute-index";
    case AccessPath::kTypeIndex:
      return "type-index";
    case AccessPath::kMaterializedSet:
      return "materialized-set";
    case AccessPath::kTransformationIndex:
      return "transformation-index";
    case AccessPath::kReadsIndex:
      return "reads-index";
    case AccessPath::kWritesIndex:
      return "writes-index";
  }
  return "unknown";
}

// ---------------------------------------------------------------------
// Next-generation index maintenance
// ---------------------------------------------------------------------

void VirtualDataCatalog::PostingAdd(PostingSlot* slot, Id id) {
  MutablePosting(slot, gen_)->Add(id);
}

void VirtualDataCatalog::PostingRemove(PostingSlot* slot, Id id) {
  if (slot->list == nullptr || !slot->list->Contains(id)) return;
  PostingBlocks* list = MutablePosting(slot, gen_);
  list->Remove(id);
  if (list->empty()) slot->list = nullptr;
}

void VirtualDataCatalog::PostingRemove(PostingMap* map, Id key, Id id) {
  const PostingSlot* slot = map->Find(key);
  if (slot == nullptr || slot->list == nullptr) return;
  PostingRemove(&map->Mutable(key, gen_), id);
}

TypeRegistry& VirtualDataCatalog::MutableTypes() {
  if (types_gen_ != gen_) {
    types_ = std::make_shared<TypeRegistry>(*types_);
    types_gen_ = gen_;
    next_.types = types_;
  }
  return *types_;
}

void VirtualDataCatalog::IndexDatasetAttributes(const Dataset& dataset, Id id,
                                                bool add) {
  for (const auto& [key, value] : dataset.annotations) {
    const Id key_id = symbols_.Intern(key);
    const Id value_id =
        symbols_.Intern(snapshot_internal::TaggedAttrValue(value));
    if (add) {
      PostingAdd(&next_.attr_index.Mutable(key_id, gen_), value_id, id);
      continue;
    }
    const PostingMap* values = next_.attr_index.Find(key_id);
    if (values != nullptr && values->Find(value_id) != nullptr) {
      PostingRemove(&next_.attr_index.Mutable(key_id, gen_), value_id, id);
    }
  }
}

void VirtualDataCatalog::IndexDatasetType(const Dataset& dataset, Id id,
                                          bool add) {
  for (int d = 0; d < kNumTypeDimensions; ++d) {
    auto dim = static_cast<TypeDimension>(d);
    const std::string& component = dataset.type.component(dim);
    if (component.empty()) continue;
    const TypeHierarchy& h = types_->dimension(dim);
    Result<std::vector<std::string>> ancestry = h.AncestryOf(component);
    if (!ancestry.ok()) continue;  // unvalidated type: not indexable
    for (const std::string& ancestor : *ancestry) {
      if (ancestor == h.base_name()) continue;  // base matches any type
      const Id type_id = symbols_.Intern(ancestor);
      if (add) {
        PostingAdd(&next_.type_index[d], type_id, id);
      } else {
        PostingRemove(&next_.type_index[d], type_id, id);
      }
    }
  }
}

void VirtualDataCatalog::IndexDerivation(const Derivation& derivation, Id id,
                                         bool add) {
  auto edit = [&](PostingMap* map, std::string_view key) {
    if (add) {
      PostingAdd(map, symbols_.Intern(key), id);
    } else {
      PostingRemove(map, symbols_.Intern(key), id);
    }
  };
  edit(&next_.by_transformation, derivation.QualifiedTransformation());
  if (derivation.QualifiedTransformation() != derivation.transformation()) {
    edit(&next_.by_bare_transformation, derivation.transformation());
  }
  for (const std::string& input : derivation.InputDatasets()) {
    edit(&next_.consumers, input);
  }
  for (const std::string& output : derivation.OutputDatasets()) {
    edit(&next_.producers, output);
  }
}

void VirtualDataCatalog::NoteReplicaState(const Replica* before,
                                          const Replica* after) {
  if (before != nullptr && before->valid) {
    auto it = valid_replicas_by_dataset_.find(before->dataset);
    if (it != valid_replicas_by_dataset_.end() && --it->second == 0) {
      valid_replicas_by_dataset_.erase(it);
      PostingRemove(&next_.materialized, symbols_.Intern(before->dataset));
    }
  }
  if (after != nullptr && after->valid) {
    if (++valid_replicas_by_dataset_[after->dataset] == 1) {
      PostingAdd(&next_.materialized, symbols_.Intern(after->dataset));
    }
  }
}

// ---------------------------------------------------------------------
// Versioning, changelog, publication
// ---------------------------------------------------------------------

void VirtualDataCatalog::BumpVersion(char op, std::string_view kind,
                                     std::string_view name) {
  // One version per mutation — except inside a batch, where every
  // mutation shares the single bumped version so a ChangesSince delta
  // carries the batch whole or not at all.
  if (!in_batch_) {
    ++version_seq_;
  } else if (!batch_bumped_) {
    ++version_seq_;
    batch_bumped_ = true;
  }
  next_.changelog.PushBack(
      CatalogChange{version_seq_, op, std::string(kind), std::string(name)},
      gen_);
  if (!in_batch_) TrimChangelogLocked();
}

void VirtualDataCatalog::TrimChangelogLocked() {
  // Evict whole version groups so a batch's entries never split; an
  // oversized batch empties the window entirely, which ChangesSince
  // reports as FailedPrecondition (the rescan fallback).
  ChangeWindow<CatalogChange>& log = next_.changelog;
  while (log.size() > changelog_capacity_) {
    const uint64_t v = log.front().version;
    do {
      log.PopFront(gen_);
    } while (!log.empty() && log.front().version == v);
  }
}

void VirtualDataCatalog::set_changelog_capacity(size_t capacity) {
  std::unique_lock lock(mu_);
  changelog_capacity_ = capacity;
  TrimChangelogLocked();
  PublishSnapshotLocked();
}

size_t VirtualDataCatalog::changelog_capacity() const {
  std::shared_lock lock(mu_);
  return changelog_capacity_;
}

uint64_t VirtualDataCatalog::changelog_floor() const {
  return View().changelog_floor();
}

void VirtualDataCatalog::PublishSnapshotLocked() {
  next_.version = version_seq_;
  next_.symbols = symbols_.Publish();
  auto published = std::make_shared<const CatalogSnapshot>(next_);
  // Everything the new snapshot reaches is frozen from here on: the
  // next edit of any node path-copies it.
  ++gen_;
  // The snapshot pointer first, the polled version last: a version()
  // observation always has its snapshot visible.
  {
    std::lock_guard<std::mutex> slot(snapshot_mu_);
    snapshot_.swap(published);
  }
  version_.store(version_seq_, std::memory_order_release);
  // `published` now holds the previous snapshot; dropping it here (not
  // under the slot mutex) frees whatever it alone kept alive.
}

Status VirtualDataCatalog::CommitLocked(Status op_status) {
  Status flushed = journal_->Flush();
  PublishSnapshotLocked();
  if (!op_status.ok()) return op_status;
  return flushed;
}

Result<std::string> VirtualDataCatalog::CommitLocked(
    Result<std::string> op_result) {
  Status flushed = journal_->Flush();
  PublishSnapshotLocked();
  if (!op_result.ok()) return op_result;
  if (!flushed.ok()) return flushed;
  return op_result;
}

Status VirtualDataCatalog::SyncJournal() {
  // Exclusive: journal backends are unsynchronized and rely on the
  // catalog lock for mutual exclusion with Append/Rewrite.
  std::unique_lock lock(mu_);
  return journal_->Sync();
}

Status VirtualDataCatalog::CompactJournal() {
  std::unique_lock lock(mu_);
  std::vector<std::string> records = CurrentStateRecordsLocked();
  Status rewritten = journal_->Rewrite(records);
  if (rewritten.ok() && journal_->persistent()) {
    // The journal now starts over with the compacted state; re-anchor
    // the tail-replay counters. Flat snapshots saved before compaction
    // no longer match the chain and fall back to full replay.
    journal_records_ = records.size();
    journal_chain_crc_ = 0;
    for (const std::string& r : records) {
      journal_chain_crc_ = Crc32Extend(journal_chain_crc_, r);
    }
  }
  return rewritten;
}

bool VirtualDataCatalog::TypeConforms(const DatasetType& type,
                                      const DatasetType& against) const {
  return View().types().Conforms(type, against);
}

bool VirtualDataCatalog::HasType(TypeDimension dim,
                                 std::string_view type_name) const {
  return View().types().dimension(dim).Contains(type_name);
}

TypeRegistry VirtualDataCatalog::TypesSnapshot() const {
  return View().types();
}

Result<std::vector<CatalogChange>> VirtualDataCatalog::ChangesSince(
    uint64_t since_version) const {
  return View().ChangesSince(since_version);
}

VirtualDataCatalog::VirtualDataCatalog(
    std::string name, std::unique_ptr<CatalogJournal> journal)
    : name_(std::move(name)),
      journal_(journal ? std::move(journal) : std::make_unique<NullJournal>()),
      types_(std::make_shared<TypeRegistry>()) {
  next_.types = types_;
  // Publish the empty version-0 snapshot so View() never sees null.
  PublishSnapshotLocked();
}

Status VirtualDataCatalog::Open() {
  std::unique_lock lock(mu_);
  if (opened_) return Status::OK();
  opened_ = true;
  VDG_ASSIGN_OR_RETURN(std::vector<std::string> records, journal_->ReadAll());
  replaying_ = true;
  for (const std::string& record : records) {
    Status s = ApplyRecord(record);
    if (!s.ok()) {
      replaying_ = false;
      PublishSnapshotLocked();
      return Status::IoError("journal replay failed on record '" + record +
                             "': " + s.ToString());
    }
    ++journal_records_;
    journal_chain_crc_ = Crc32Extend(journal_chain_crc_, record);
  }
  replaying_ = false;
  PublishSnapshotLocked();
  return Status::OK();
}

Status VirtualDataCatalog::Journal(const std::string& record) {
  if (replaying_) return Status::OK();
  Status appended = journal_->Append(record);
  if (appended.ok() && journal_->persistent()) {
    // Tracks how far into the durable journal the in-memory state has
    // advanced: flat snapshots anchor their journal-tail replay here
    // (count + running CRC over the record chain).
    ++journal_records_;
    journal_chain_crc_ = Crc32Extend(journal_chain_crc_, record);
  }
  return appended;
}

const DatasetType* VirtualDataCatalog::LookupDatasetType(
    std::string_view name) const {
  const auto* row = RowOf(next_.datasets, name);
  return row == nullptr ? nullptr : &row->object->type;
}

// ---------------------------------------------------------------------
// Definition
// ---------------------------------------------------------------------

Status VirtualDataCatalog::DefineType(TypeDimension dim,
                                      std::string_view type_name,
                                      std::string_view parent) {
  std::unique_lock lock(mu_);
  return CommitLocked(DefineTypeLocked(dim, type_name, parent));
}

Status VirtualDataCatalog::DefineTypeLocked(TypeDimension dim,
                                            std::string_view type_name,
                                            std::string_view parent) {
  Status defined = MutableTypes().Define(dim, type_name, parent);
  if (defined.IsAlreadyExists() && replaying_) return Status::OK();
  VDG_RETURN_IF_ERROR(defined);
  symbols_.Intern(type_name);
  BumpVersion('U', "type", type_name);
  return Journal(codec::JoinRecord(
      {"TY", std::to_string(static_cast<int>(dim)), std::string(type_name),
       std::string(parent)}));
}

Status VirtualDataCatalog::LoadTypePreset() {
  std::unique_lock lock(mu_);
  // Route through a scratch registry to obtain the preset's edges,
  // then journal each through DefineType. The whole preset commits as
  // one batch: one version bump, one journal flush.
  TypeRegistry preset;
  VDG_RETURN_IF_ERROR(preset.LoadAppendixCPreset());
  in_batch_ = true;
  batch_bumped_ = false;
  Status result = Status::OK();
  for (int d = 0; d < kNumTypeDimensions && result.ok(); ++d) {
    auto dim = static_cast<TypeDimension>(d);
    const TypeHierarchy& h = preset.dimension(dim);
    // Parents must be defined before children: insert by depth.
    std::vector<std::pair<int, std::string>> by_depth;
    for (std::string_view name : h.AllTypes()) {
      Result<int> depth = h.DepthOf(name);
      by_depth.emplace_back(depth.ok() ? *depth : 0, std::string(name));
    }
    std::sort(by_depth.begin(), by_depth.end());
    for (const auto& [depth, name] : by_depth) {
      (void)depth;
      Result<std::string> parent = h.ParentOf(name);
      if (!parent.ok()) {
        result = parent.status();
        break;
      }
      if (types_->dimension(dim).Contains(name)) continue;  // idempotent
      result = DefineTypeLocked(dim, name, *parent);
      if (!result.ok()) break;
    }
  }
  in_batch_ = false;
  batch_bumped_ = false;
  TrimChangelogLocked();
  return CommitLocked(std::move(result));
}

Status VirtualDataCatalog::DefineDataset(Dataset dataset) {
  std::unique_lock lock(mu_);
  return CommitLocked(DefineDatasetLocked(std::move(dataset)));
}

Status VirtualDataCatalog::DefineDatasetLocked(Dataset dataset) {
  VDG_RETURN_IF_ERROR(dataset.Validate());
  VDG_RETURN_IF_ERROR(CheckFinite(dataset.descriptor.fields));
  VDG_RETURN_IF_ERROR(CheckFinite(dataset.annotations));
  VDG_RETURN_IF_ERROR(types_->Validate(dataset.type));
  if (const auto* existing = RowOf(next_.datasets, dataset.name)) {
    if (!replaying_) {
      return Status::AlreadyExists("dataset already defined: " +
                                   dataset.name);
    }
    // Replay upsert: drop the superseded object's index entries.
    IndexDatasetAttributes(*existing->object, existing->id, false);
    IndexDatasetType(*existing->object, existing->id, false);
  }
  VDG_RETURN_IF_ERROR(Journal(codec::EncodeDataset(dataset)));
  Id id = symbols_.Intern(dataset.name);
  IndexDatasetAttributes(dataset, id, true);
  IndexDatasetType(dataset, id, true);
  BumpVersion('U', "dataset", dataset.name);
  next_.datasets.Put(id, symbols_.NameOf(id),
                     std::make_shared<const Dataset>(std::move(dataset)),
                     gen_);
  return Status::OK();
}

Status VirtualDataCatalog::DefineTransformation(Transformation transformation) {
  std::unique_lock lock(mu_);
  return CommitLocked(DefineTransformationLocked(std::move(transformation)));
}

Status VirtualDataCatalog::DefineTransformationLocked(
    Transformation transformation) {
  VDG_RETURN_IF_ERROR(transformation.Validate());
  VDG_RETURN_IF_ERROR(CheckFinite(transformation.annotations()));
  for (const FormalArg& arg : transformation.args()) {
    for (const DatasetType& type : arg.types) {
      VDG_RETURN_IF_ERROR(types_->Validate(type));
    }
  }
  if (RowOf(next_.transformations, transformation.name()) != nullptr &&
      !replaying_) {
    return Status::AlreadyExists("transformation already defined: " +
                                 transformation.name());
  }
  VDG_RETURN_IF_ERROR(Journal(codec::EncodeTransformation(transformation)));
  Id id = symbols_.Intern(transformation.name());
  BumpVersion('U', "transformation", transformation.name());
  next_.transformations.Put(
      id, symbols_.NameOf(id),
      std::make_shared<const Transformation>(std::move(transformation)), gen_);
  return Status::OK();
}

Status VirtualDataCatalog::DefineDerivation(Derivation derivation) {
  std::unique_lock lock(mu_);
  return CommitLocked(DefineDerivationLocked(std::move(derivation)));
}

Status VirtualDataCatalog::DefineDerivationLocked(Derivation derivation) {
  VDG_RETURN_IF_ERROR(derivation.Validate());
  VDG_RETURN_IF_ERROR(CheckFinite(derivation.annotations()));
  if (RowOf(next_.derivations, derivation.name()) != nullptr && !replaying_) {
    return Status::AlreadyExists("derivation already defined: " +
                                 derivation.name());
  }

  // Type-check against the transformation when it is locally resolvable.
  const std::string& tr_name = derivation.transformation();
  const Transformation* tr = nullptr;
  if (!IsVdpUri(tr_name)) {
    const auto* tr_row = RowOf(next_.transformations, tr_name);
    if (tr_row == nullptr) {
      return Status::NotFound("derivation " + derivation.name() +
                              " references unknown transformation " +
                              tr_name);
    }
    tr = tr_row->object.get();
    ValidationPolicy policy;
    policy.allow_external_inputs = partition_mode_;
    VDG_RETURN_IF_ERROR(ValidateDerivationAgainst(
        derivation, *tr, *types_,
        [this](std::string_view ds) { return LookupDatasetType(ds); },
        policy));
  }

  // Auto-define missing output datasets as virtual data, typed from
  // the formal they bind (first union element when present). In
  // partition mode a missing output is owned by another shard: the
  // sharded client pre-creates it on its home shard, so it is skipped
  // here rather than misplaced on this one.
  for (const ActualArg& arg : derivation.args()) {
    if (!arg.is_dataset() || !DirectionWrites(*arg.direction)) continue;
    if (IsVdpUri(*arg.dataset)) continue;  // lives in another catalog
    const auto* existing = RowOf(next_.datasets, *arg.dataset);
    if (existing == nullptr) {
      if (partition_mode_) continue;
      Dataset out;
      out.name = *arg.dataset;
      out.producer = derivation.name();
      if (tr != nullptr) {
        const FormalArg* formal = tr->FindArg(arg.formal);
        if (formal != nullptr && !formal->types.empty()) {
          out.type = formal->types.front();
        }
      }
      out.descriptor = DatasetDescriptor::File(out.name);
      VDG_RETURN_IF_ERROR(DefineDatasetLocked(std::move(out)));
    } else if (existing->object->producer.empty()) {
      Dataset updated = *existing->object;
      updated.producer = derivation.name();
      VDG_RETURN_IF_ERROR(Journal(codec::EncodeDataset(updated)));
      next_.datasets.Put(existing->id, existing->name,
                         std::make_shared<const Dataset>(std::move(updated)),
                         gen_);
    } else if (existing->object->producer != derivation.name() &&
               !replaying_) {
      // A compound derivation's expansion children (named
      // "<parent>.cK" by the planner) legitimately re-produce the
      // parent's outputs; the parent remains the recorded producer.
      bool expansion_child = StartsWith(
          derivation.name(), existing->object->producer + ".");
      if (!expansion_child) {
        return Status::AlreadyExists(
            "dataset " + *arg.dataset +
            " is already produced by derivation " +
            existing->object->producer +
            " (a dataset has exactly one producing recipe)");
      }
    }
  }

  VDG_RETURN_IF_ERROR(Journal(codec::EncodeDerivation(derivation)));

  // Index maintenance.
  Id dv_id = symbols_.Intern(derivation.name());
  derivations_by_signature_.emplace(derivation.Signature(),
                                    derivation.name());
  IndexDerivation(derivation, dv_id, true);
  BumpVersion('U', "derivation", derivation.name());
  next_.derivations.Put(
      dv_id, symbols_.NameOf(dv_id),
      std::make_shared<const Derivation>(std::move(derivation)), gen_);
  return Status::OK();
}

Result<std::string> VirtualDataCatalog::AddReplica(Replica replica) {
  std::unique_lock lock(mu_);
  return CommitLocked(AddReplicaLocked(std::move(replica)));
}

Result<std::string> VirtualDataCatalog::AddReplicaLocked(Replica replica) {
  if (replica.id.empty()) {
    replica.id = "rp-" + std::to_string(next_replica_id_++);
  } else {
    // Replayed / imported id: keep the counter ahead of it.
    if (StartsWith(replica.id, "rp-")) {
      uint64_t n = std::strtoull(replica.id.c_str() + 3, nullptr, 10);
      next_replica_id_ = std::max(next_replica_id_, n + 1);
    }
  }
  VDG_RETURN_IF_ERROR(replica.Validate());
  VDG_RETURN_IF_ERROR(CheckFinite(replica.annotations));
  if (RowOf(next_.datasets, replica.dataset) == nullptr) {
    return Status::NotFound("replica " + replica.id +
                            " references unknown dataset " + replica.dataset);
  }
  auto existing = replicas_.find(replica.id);
  bool existed = existing != replicas_.end();
  if (existed && !replaying_) {
    return Status::AlreadyExists("replica already exists: " + replica.id);
  }
  VDG_RETURN_IF_ERROR(Journal(codec::EncodeReplica(replica)));
  if (!existed) {
    replicas_by_dataset_.emplace(replica.dataset, replica.id);
  }
  NoteReplicaState(existed ? &existing->second : nullptr, &replica);
  // Index-visible effect of a replica mutation: its dataset's
  // materialized bit may flip, so the changelog records a dataset
  // upsert.
  BumpVersion('U', "dataset", replica.dataset);
  std::string id = replica.id;
  replicas_.insert_or_assign(id, std::move(replica));
  return id;
}

Result<std::string> VirtualDataCatalog::RecordInvocation(
    Invocation invocation) {
  std::unique_lock lock(mu_);
  return CommitLocked(RecordInvocationLocked(std::move(invocation)));
}

Result<std::string> VirtualDataCatalog::RecordInvocationLocked(
    Invocation invocation) {
  if (invocation.id.empty()) {
    invocation.id = "iv-" + std::to_string(next_invocation_id_++);
  } else if (StartsWith(invocation.id, "iv-")) {
    uint64_t n = std::strtoull(invocation.id.c_str() + 3, nullptr, 10);
    next_invocation_id_ = std::max(next_invocation_id_, n + 1);
  }
  VDG_RETURN_IF_ERROR(invocation.Validate());
  VDG_RETURN_IF_ERROR(CheckFinite(invocation.annotations));
  // New invocations must anchor to a defined derivation; replayed ones
  // may legitimately be orphans (their derivation was removed later,
  // but the execution history is retained as the audit record).
  if (!replaying_ &&
      RowOf(next_.derivations, invocation.derivation) == nullptr) {
    return Status::NotFound("invocation " + invocation.id +
                            " references unknown derivation " +
                            invocation.derivation);
  }
  bool existed = invocations_.count(invocation.id) != 0;
  if (existed && !replaying_) {
    return Status::AlreadyExists("invocation already exists: " +
                                 invocation.id);
  }
  VDG_RETURN_IF_ERROR(Journal(codec::EncodeInvocation(invocation)));
  if (!existed) {
    invocations_by_derivation_.emplace(invocation.derivation, invocation.id);
  }
  BumpVersion('U', "invocation", invocation.id);
  std::string id = invocation.id;
  invocations_.insert_or_assign(id, std::move(invocation));
  return id;
}

// ---------------------------------------------------------------------
// Batched mutation (group commit)
// ---------------------------------------------------------------------

Status VirtualDataCatalog::ApplyMutationLocked(const CatalogMutation& mutation,
                                               size_t index,
                                               BatchResult* result) {
  return std::visit(
      [&](const auto& op) -> Status {
        using Op = std::decay_t<decltype(op)>;
        if constexpr (std::is_same_v<Op, CatalogMutation::DefineDatasetOp>) {
          return DefineDatasetLocked(op.dataset);
        } else if constexpr (std::is_same_v<
                                 Op, CatalogMutation::DefineTransformationOp>) {
          return DefineTransformationLocked(op.transformation);
        } else if constexpr (std::is_same_v<
                                 Op, CatalogMutation::DefineDerivationOp>) {
          return DefineDerivationLocked(op.derivation);
        } else if constexpr (std::is_same_v<Op, CatalogMutation::AnnotateOp>) {
          std::string target = op.name;
          if (op.name_from_op.has_value()) {
            if (*op.name_from_op >= index ||
                result->assigned_ids[*op.name_from_op].empty()) {
              return Status::InvalidArgument(
                  "annotate references batch op " +
                  std::to_string(*op.name_from_op) +
                  " which assigned no id");
            }
            target = result->assigned_ids[*op.name_from_op];
          }
          return AnnotateLocked(op.kind, target, op.key, op.value);
        } else if constexpr (std::is_same_v<Op,
                                            CatalogMutation::AddReplicaOp>) {
          VDG_ASSIGN_OR_RETURN(std::string id, AddReplicaLocked(op.replica));
          result->assigned_ids[index] = std::move(id);
          return Status::OK();
        } else if constexpr (std::is_same_v<
                                 Op, CatalogMutation::RecordInvocationOp>) {
          Invocation iv = op.invocation;
          for (size_t pos : op.produced_from_ops) {
            if (pos >= index || result->assigned_ids[pos].empty()) {
              return Status::InvalidArgument(
                  "invocation references batch op " + std::to_string(pos) +
                  " which assigned no id");
            }
            iv.produced_replicas.push_back(result->assigned_ids[pos]);
          }
          VDG_ASSIGN_OR_RETURN(std::string id,
                               RecordInvocationLocked(std::move(iv)));
          result->assigned_ids[index] = std::move(id);
          return Status::OK();
        } else if constexpr (std::is_same_v<
                                 Op, CatalogMutation::SetDatasetSizeOp>) {
          return SetDatasetSizeLocked(op.name, op.size_bytes);
        } else {
          static_assert(
              std::is_same_v<Op, CatalogMutation::InvalidateReplicaOp>);
          return InvalidateReplicaLocked(op.id);
        }
      },
      mutation.op);
}

BatchResult VirtualDataCatalog::ApplyBatch(
    const std::vector<CatalogMutation>& mutations,
    const BatchOptions& options) {
  std::unique_lock lock(mu_);
  BatchResult result;
  result.statuses.reserve(mutations.size());
  result.assigned_ids.resize(mutations.size());
  in_batch_ = true;
  batch_bumped_ = false;
  bool aborted = false;
  for (size_t i = 0; i < mutations.size(); ++i) {
    if (aborted) {
      result.statuses.push_back(
          Status::FailedPrecondition("batch aborted by earlier failure"));
      continue;
    }
    Status s = ApplyMutationLocked(mutations[i], i, &result);
    if (s.ok()) {
      ++result.applied;
    } else {
      if (result.first_error.ok()) result.first_error = s;
      if (options.stop_on_error) aborted = true;
    }
    result.statuses.push_back(std::move(s));
  }
  in_batch_ = false;
  batch_bumped_ = false;
  TrimChangelogLocked();
  Status flushed = journal_->Flush();
  if (!flushed.ok() && result.first_error.ok()) result.first_error = flushed;
  PublishSnapshotLocked();
  result.version = version_seq_;
  return result;
}

Status VirtualDataCatalog::ImportProgram(const VdlProgram& program) {
  std::unique_lock lock(mu_);
  in_batch_ = true;
  batch_bumped_ = false;
  Status s = ImportProgramLocked(program);
  in_batch_ = false;
  batch_bumped_ = false;
  TrimChangelogLocked();
  return CommitLocked(std::move(s));
}

Status VirtualDataCatalog::ImportProgramLocked(const VdlProgram& program) {
  for (const Dataset& ds : program.datasets) {
    VDG_RETURN_IF_ERROR(DefineDatasetLocked(ds));
  }
  for (const Transformation& tr : program.transformations) {
    VDG_RETURN_IF_ERROR(DefineTransformationLocked(tr));
  }
  for (const Derivation& dv : program.derivations) {
    VDG_RETURN_IF_ERROR(DefineDerivationLocked(dv));
  }
  return Status::OK();
}

Status VirtualDataCatalog::ImportVdl(std::string_view source) {
  // Parsing touches no catalog state; keep it outside the lock.
  VDG_ASSIGN_OR_RETURN(VdlProgram program, ParseVdl(source));
  return ImportProgram(program);
}

// ---------------------------------------------------------------------
// Point lookups
// ---------------------------------------------------------------------

Result<Dataset> VirtualDataCatalog::GetDataset(std::string_view name) const {
  return View().GetDataset(name);
}

Result<Transformation> VirtualDataCatalog::GetTransformation(
    std::string_view name) const {
  return View().GetTransformation(name);
}

Result<Derivation> VirtualDataCatalog::GetDerivation(
    std::string_view name) const {
  return View().GetDerivation(name);
}

Result<Replica> VirtualDataCatalog::GetReplica(std::string_view id) const {
  std::shared_lock lock(mu_);
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    return Status::NotFound("replica not found: " + std::string(id));
  }
  return it->second;
}

Result<Invocation> VirtualDataCatalog::GetInvocation(
    std::string_view id) const {
  std::shared_lock lock(mu_);
  auto it = invocations_.find(id);
  if (it == invocations_.end()) {
    return Status::NotFound("invocation not found: " + std::string(id));
  }
  return it->second;
}

bool VirtualDataCatalog::HasDataset(std::string_view name) const {
  return View().HasDataset(name);
}
bool VirtualDataCatalog::HasTransformation(std::string_view name) const {
  return View().HasTransformation(name);
}
bool VirtualDataCatalog::HasDerivation(std::string_view name) const {
  return View().HasDerivation(name);
}

// ---------------------------------------------------------------------
// Updates & removal
// ---------------------------------------------------------------------

Status VirtualDataCatalog::Annotate(std::string_view kind,
                                    std::string_view name,
                                    std::string_view key,
                                    AttributeValue value) {
  std::unique_lock lock(mu_);
  return CommitLocked(AnnotateLocked(kind, name, key, std::move(value)));
}

Status VirtualDataCatalog::AnnotateLocked(std::string_view kind,
                                          std::string_view name,
                                          std::string_view key,
                                          AttributeValue value) {
  VDG_RETURN_IF_ERROR(CheckFinite(key, value));
  if (kind == "dataset") {
    const auto* row = RowOf(next_.datasets, name);
    if (row == nullptr) {
      return Status::NotFound("dataset not found: " + std::string(name));
    }
    const Id id = row->id;
    const std::string_view stored = row->name;
    IndexDatasetAttributes(*row->object, id, false);
    Dataset updated = *row->object;
    updated.annotations.Set(key, std::move(value));
    IndexDatasetAttributes(updated, id, true);
    BumpVersion('U', "dataset", name);
    Status journaled = Journal(codec::EncodeDataset(updated));
    next_.datasets.Put(id, stored,
                       std::make_shared<const Dataset>(std::move(updated)),
                       gen_);
    return journaled;
  }
  if (kind == "transformation") {
    const auto* row = RowOf(next_.transformations, name);
    if (row == nullptr) {
      return Status::NotFound("transformation not found: " +
                              std::string(name));
    }
    Transformation updated = *row->object;
    updated.annotations().Set(key, std::move(value));
    BumpVersion('U', "transformation", name);
    Status journaled = Journal(codec::EncodeTransformation(updated));
    next_.transformations.Put(
        row->id, row->name,
        std::make_shared<const Transformation>(std::move(updated)), gen_);
    return journaled;
  }
  if (kind == "derivation") {
    const auto* row = RowOf(next_.derivations, name);
    if (row == nullptr) {
      return Status::NotFound("derivation not found: " + std::string(name));
    }
    Derivation updated = *row->object;
    updated.annotations().Set(key, std::move(value));
    BumpVersion('U', "derivation", name);
    Status journaled = Journal(codec::EncodeDerivation(updated));
    next_.derivations.Put(
        row->id, row->name,
        std::make_shared<const Derivation>(std::move(updated)), gen_);
    return journaled;
  }
  if (kind == "replica") {
    auto it = replicas_.find(name);
    if (it == replicas_.end()) {
      return Status::NotFound("replica not found: " + std::string(name));
    }
    it->second.annotations.Set(key, std::move(value));
    BumpVersion('U', "dataset", it->second.dataset);
    return Journal(codec::EncodeReplica(it->second));
  }
  if (kind == "invocation") {
    auto it = invocations_.find(name);
    if (it == invocations_.end()) {
      return Status::NotFound("invocation not found: " + std::string(name));
    }
    it->second.annotations.Set(key, std::move(value));
    BumpVersion('U', "invocation", name);
    return Journal(codec::EncodeInvocation(it->second));
  }
  return Status::InvalidArgument("unknown object kind: " + std::string(kind));
}

Status VirtualDataCatalog::SetDatasetSize(std::string_view name,
                                          int64_t size_bytes) {
  std::unique_lock lock(mu_);
  return CommitLocked(SetDatasetSizeLocked(name, size_bytes));
}

Status VirtualDataCatalog::SetDatasetSizeLocked(std::string_view name,
                                                int64_t size_bytes) {
  const auto* row = RowOf(next_.datasets, name);
  if (row == nullptr) {
    return Status::NotFound("dataset not found: " + std::string(name));
  }
  if (size_bytes < 0) {
    return Status::InvalidArgument("negative dataset size");
  }
  Dataset updated = *row->object;
  updated.size_bytes = size_bytes;
  BumpVersion('U', "dataset", name);
  Status journaled = Journal(codec::EncodeDataset(updated));
  next_.datasets.Put(row->id, row->name,
                     std::make_shared<const Dataset>(std::move(updated)),
                     gen_);
  return journaled;
}

Status VirtualDataCatalog::InvalidateReplica(std::string_view id) {
  std::unique_lock lock(mu_);
  return CommitLocked(InvalidateReplicaLocked(id));
}

Status VirtualDataCatalog::InvalidateReplicaLocked(std::string_view id) {
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    return Status::NotFound("replica not found: " + std::string(id));
  }
  if (!it->second.valid) return Status::OK();
  Replica before = it->second;
  it->second.valid = false;
  NoteReplicaState(&before, &it->second);
  BumpVersion('U', "dataset", it->second.dataset);
  return Journal(codec::EncodeReplica(it->second));
}

Status VirtualDataCatalog::RemoveDataset(std::string_view name) {
  std::unique_lock lock(mu_);
  return CommitLocked(RemoveDatasetLocked(name));
}

Status VirtualDataCatalog::RemoveDatasetLocked(std::string_view name) {
  const auto* row = RowOf(next_.datasets, name);
  if (row == nullptr) {
    return Status::NotFound("dataset not found: " + std::string(name));
  }
  const Id id = row->id;
  // Cascade to its replicas.
  std::vector<std::string> replica_ids;
  auto [lo, hi] = replicas_by_dataset_.equal_range(name);
  for (auto r = lo; r != hi; ++r) replica_ids.push_back(r->second);
  for (const std::string& id : replica_ids) {
    VDG_RETURN_IF_ERROR(RemoveReplicaLocked(id));
  }
  VDG_RETURN_IF_ERROR(Journal(codec::EncodeRemoval('S', name)));
  row = next_.datasets.Find(id);  // re-resolve after the cascade
  IndexDatasetAttributes(*row->object, id, false);
  IndexDatasetType(*row->object, id, false);
  auto vit = valid_replicas_by_dataset_.find(name);
  if (vit != valid_replicas_by_dataset_.end()) {
    valid_replicas_by_dataset_.erase(vit);
    PostingRemove(&next_.materialized, id);
  }
  BumpVersion('D', "dataset", name);
  next_.datasets.Erase(id, gen_);
  return Status::OK();
}

Status VirtualDataCatalog::RemoveTransformation(std::string_view name) {
  std::unique_lock lock(mu_);
  return CommitLocked(RemoveTransformationLocked(name));
}

Status VirtualDataCatalog::RemoveTransformationLocked(std::string_view name) {
  const auto* row = RowOf(next_.transformations, name);
  if (row == nullptr) {
    return Status::NotFound("transformation not found: " + std::string(name));
  }
  const Id tr_id = row->id;
  const PostingSlot* users = next_.by_transformation.Find(tr_id);
  if (users != nullptr && !users->empty()) {
    return Status::FailedPrecondition(
        "transformation " + std::string(name) +
        " is referenced by derivations and cannot be removed");
  }
  VDG_RETURN_IF_ERROR(Journal(codec::EncodeRemoval('T', name)));
  BumpVersion('D', "transformation", name);
  next_.transformations.Erase(tr_id, gen_);
  return Status::OK();
}

Status VirtualDataCatalog::RemoveDerivation(std::string_view name) {
  std::unique_lock lock(mu_);
  return CommitLocked(RemoveDerivationLocked(name));
}

Status VirtualDataCatalog::RemoveDerivationLocked(std::string_view name) {
  const auto* row = RowOf(next_.derivations, name);
  if (row == nullptr) {
    return Status::NotFound("derivation not found: " + std::string(name));
  }
  // Keep the object alive across the row's removal below.
  const std::shared_ptr<const Derivation> dv = row->object;
  const Id dv_id = row->id;
  EraseIndexEntry(&derivations_by_signature_, dv->Signature(),
                  std::string(name));
  IndexDerivation(*dv, dv_id, false);
  // Outputs lose their producer but remain defined.
  for (const std::string& output : dv->OutputDatasets()) {
    const auto* ds = RowOf(next_.datasets, output);
    if (ds != nullptr && ds->object->producer == name) {
      Dataset updated = *ds->object;
      updated.producer.clear();
      VDG_RETURN_IF_ERROR(Journal(codec::EncodeDataset(updated)));
      next_.datasets.Put(ds->id, ds->name,
                         std::make_shared<const Dataset>(std::move(updated)),
                         gen_);
    }
  }
  VDG_RETURN_IF_ERROR(Journal(codec::EncodeRemoval('D', name)));
  BumpVersion('D', "derivation", name);
  next_.derivations.Erase(dv_id, gen_);
  return Status::OK();
}

Status VirtualDataCatalog::RemoveReplica(std::string_view id) {
  std::unique_lock lock(mu_);
  return CommitLocked(RemoveReplicaLocked(id));
}

Status VirtualDataCatalog::RemoveReplicaLocked(std::string_view id) {
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    return Status::NotFound("replica not found: " + std::string(id));
  }
  EraseIndexEntry(&replicas_by_dataset_, it->second.dataset, std::string(id));
  VDG_RETURN_IF_ERROR(Journal(codec::EncodeRemoval('R', id)));
  NoteReplicaState(&it->second, nullptr);
  BumpVersion('U', "dataset", it->second.dataset);
  replicas_.erase(it);
  return Status::OK();
}

// ---------------------------------------------------------------------
// Navigation
// ---------------------------------------------------------------------

std::vector<Replica> VirtualDataCatalog::ReplicasOf(std::string_view dataset,
                                                    bool valid_only) const {
  std::shared_lock lock(mu_);
  std::vector<Replica> out;
  auto [lo, hi] = replicas_by_dataset_.equal_range(dataset);
  for (auto it = lo; it != hi; ++it) {
    auto r = replicas_.find(it->second);
    if (r == replicas_.end()) continue;
    if (valid_only && !r->second.valid) continue;
    out.push_back(r->second);
  }
  return out;
}

bool VirtualDataCatalog::IsMaterialized(std::string_view dataset) const {
  return View().IsMaterialized(dataset);
}

bool VirtualDataCatalog::IsMaterializedLocked(std::string_view dataset) const {
  // The incremental materialized set only holds datasets with a
  // positive valid-replica count, so membership is the answer.
  return valid_replicas_by_dataset_.find(dataset) !=
         valid_replicas_by_dataset_.end();
}

Result<std::string> VirtualDataCatalog::ProducerOf(
    std::string_view dataset) const {
  return View().ProducerOf(dataset);
}

NameList VirtualDataCatalog::ConsumersOf(
    std::string_view dataset) const {
  return View().ConsumersOf(dataset);
}

std::vector<Invocation> VirtualDataCatalog::InvocationsOf(
    std::string_view derivation) const {
  std::shared_lock lock(mu_);
  std::vector<Invocation> out;
  auto [lo, hi] = invocations_by_derivation_.equal_range(derivation);
  for (auto it = lo; it != hi; ++it) {
    auto iv = invocations_.find(it->second);
    if (iv != invocations_.end()) out.push_back(iv->second);
  }
  return out;
}

NameList VirtualDataCatalog::DerivationsUsing(
    std::string_view transformation) const {
  return View().DerivationsUsing(transformation);
}

// ---------------------------------------------------------------------
// Discovery (delegated to the pinned snapshot)
// ---------------------------------------------------------------------

NameList VirtualDataCatalog::FindDatasets(
    const DatasetQuery& query) const {
  return View().FindDatasets(query);
}

QueryPlan VirtualDataCatalog::ExplainFindDatasets(
    const DatasetQuery& query) const {
  return View().ExplainFindDatasets(query);
}

NameList VirtualDataCatalog::FindTransformations(
    const TransformationQuery& query) const {
  return View().FindTransformations(query);
}

NameList VirtualDataCatalog::FindDerivations(
    const DerivationQuery& query) const {
  return View().FindDerivations(query);
}

QueryPlan VirtualDataCatalog::ExplainFindDerivations(
    const DerivationQuery& query) const {
  return View().ExplainFindDerivations(query);
}

Result<std::string> VirtualDataCatalog::FindEquivalentDerivation(
    const Derivation& derivation) const {
  std::shared_lock lock(mu_);
  return FindEquivalentDerivationLocked(derivation);
}

Result<std::string> VirtualDataCatalog::FindEquivalentDerivationLocked(
    const Derivation& derivation) const {
  std::string want = derivation.SignatureText();
  auto [lo, hi] = derivations_by_signature_.equal_range(derivation.Signature());
  for (auto it = lo; it != hi; ++it) {
    const auto* dv = RowOf(next_.derivations, it->second);
    if (dv != nullptr && dv->object->SignatureText() == want) {
      return it->second;
    }
  }
  return Status::NotFound("no equivalent derivation recorded");
}

bool VirtualDataCatalog::HasBeenComputed(const Derivation& derivation) const {
  std::shared_lock lock(mu_);
  Result<std::string> existing = FindEquivalentDerivationLocked(derivation);
  if (!existing.ok()) return false;
  const auto* dv = RowOf(next_.derivations, *existing);
  if (dv == nullptr) return false;
  std::vector<std::string> outputs = dv->object->OutputDatasets();
  if (outputs.empty()) return false;
  for (const std::string& output : outputs) {
    if (!IsMaterializedLocked(output)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Enumeration & stats
// ---------------------------------------------------------------------

namespace {
template <typename Map>
std::vector<std::string> Keys(const Map& map) {
  std::vector<std::string> out;
  out.reserve(map.size());
  for (const auto& [key, value] : map) {
    (void)value;
    out.push_back(key);
  }
  return out;
}
}  // namespace

NameList VirtualDataCatalog::AllDatasetNames() const {
  return View().AllDatasetNames();
}
NameList VirtualDataCatalog::AllTransformationNames() const {
  return View().AllTransformationNames();
}
NameList VirtualDataCatalog::AllDerivationNames() const {
  return View().AllDerivationNames();
}
std::vector<std::string> VirtualDataCatalog::AllReplicaIds() const {
  std::shared_lock lock(mu_);
  return Keys(replicas_);
}
std::vector<std::string> VirtualDataCatalog::AllInvocationIds() const {
  std::shared_lock lock(mu_);
  return Keys(invocations_);
}

CatalogStats VirtualDataCatalog::Stats() const {
  std::shared_lock lock(mu_);
  CatalogStats stats;
  stats.datasets = next_.datasets.size();
  stats.transformations = next_.transformations.size();
  stats.derivations = next_.derivations.size();
  stats.replicas = replicas_.size();
  stats.invocations = invocations_.size();
  return stats;
}

std::vector<std::string> VirtualDataCatalog::CurrentStateRecords() const {
  std::shared_lock lock(mu_);
  return CurrentStateRecordsLocked();
}

std::vector<std::string> VirtualDataCatalog::CurrentStateRecordsLocked()
    const {
  std::vector<std::string> records;
  // Types, parents before children (sorted by depth per dimension).
  for (int d = 0; d < kNumTypeDimensions; ++d) {
    auto dim = static_cast<TypeDimension>(d);
    const TypeHierarchy& h = types_->dimension(dim);
    std::vector<std::pair<int, std::string>> by_depth;
    for (std::string_view name : h.AllTypes()) {
      Result<int> depth = h.DepthOf(name);
      by_depth.emplace_back(depth.ok() ? *depth : 0, std::string(name));
    }
    std::sort(by_depth.begin(), by_depth.end());
    for (const auto& [depth, name] : by_depth) {
      (void)depth;
      Result<std::string> parent = h.ParentOf(name);
      records.push_back(codec::JoinRecord(
          {"TY", std::to_string(d), name,
           parent.ok() ? *parent : std::string(h.base_name())}));
    }
  }
  ForEachRow(next_.datasets, [&records](const Dataset& ds) {
    records.push_back(codec::EncodeDataset(ds));
  });
  ForEachRow(next_.transformations, [&records](const Transformation& tr) {
    records.push_back(codec::EncodeTransformation(tr));
  });
  ForEachRow(next_.derivations, [&records](const Derivation& dv) {
    records.push_back(codec::EncodeDerivation(dv));
  });
  for (const auto& [id, replica] : replicas_) {
    (void)id;
    records.push_back(codec::EncodeReplica(replica));
  }
  for (const auto& [id, iv] : invocations_) {
    (void)id;
    records.push_back(codec::EncodeInvocation(iv));
  }
  return records;
}

std::string VirtualDataCatalog::ExportVdl() const {
  VdlProgram program;
  {
    std::shared_lock lock(mu_);
    program = ExportProgramLocked();
  }
  // Printing works on the copied program; no need to hold the lock.
  return PrintProgram(program);
}

VdlProgram VirtualDataCatalog::ExportProgram() const {
  std::shared_lock lock(mu_);
  return ExportProgramLocked();
}

VdlProgram VirtualDataCatalog::ExportProgramLocked() const {
  VdlProgram program;
  ForEachRow(next_.datasets, [&program](const Dataset& ds) {
    program.datasets.push_back(ds);
  });
  ForEachRow(next_.transformations, [&program](const Transformation& tr) {
    program.transformations.push_back(tr);
  });
  ForEachRow(next_.derivations, [&program](const Derivation& dv) {
    program.derivations.push_back(dv);
  });
  return program;
}

// ---------------------------------------------------------------------
// Journal replay
// ---------------------------------------------------------------------

Status VirtualDataCatalog::ApplyRecord(const std::string& record) {
  VDG_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                       codec::SplitRecord(record));
  if (fields.empty()) return Status::ParseError("empty journal record");
  const std::string& tag = fields[0];

  if (tag == "DS" || tag == "TR" || tag == "DV") {
    if (fields.size() < 2) {
      return Status::ParseError("object record missing VDL text");
    }
    VDG_ASSIGN_OR_RETURN(VdlProgram program, ParseVdl(fields[1]));
    VDG_ASSIGN_OR_RETURN(AttributeSet attrs,
                         codec::ParseAttributes(fields, 2));
    if (tag == "DS" && program.datasets.size() == 1) {
      Dataset ds = std::move(program.datasets[0]);
      ds.annotations = std::move(attrs);
      return DefineDatasetLocked(std::move(ds));
    }
    if (tag == "TR" && program.transformations.size() == 1) {
      Transformation tr = std::move(program.transformations[0]);
      tr.annotations() = std::move(attrs);
      return DefineTransformationLocked(std::move(tr));
    }
    if (tag == "DV" && program.derivations.size() == 1) {
      Derivation dv = std::move(program.derivations[0]);
      dv.annotations() = std::move(attrs);
      if (const auto* existing = RowOf(next_.derivations, dv.name())) {
        // A re-emitted define is an annotation upsert (the live path
        // rejects duplicate names, so the signature is unchanged).
        // Don't re-validate inputs: they were valid when the original
        // define was journaled and may have been removed since.
        Derivation updated = *existing->object;
        updated.annotations() = dv.annotations();
        next_.derivations.Put(
            existing->id, existing->name,
            std::make_shared<const Derivation>(std::move(updated)), gen_);
        return Status::OK();
      }
      return DefineDerivationLocked(std::move(dv));
    }
    return Status::ParseError("record tag/content mismatch: " + tag);
  }
  if (tag == "RP") {
    VDG_ASSIGN_OR_RETURN(Replica r, codec::DecodeReplica(fields));
    // Upsert semantics: replica re-puts carry annotation/invalidation
    // updates.
    auto existing = replicas_.find(r.id);
    if (existing != replicas_.end()) {
      NoteReplicaState(&existing->second, &r);
      replicas_.insert_or_assign(r.id, std::move(r));
      return Status::OK();
    }
    Result<std::string> added = AddReplicaLocked(std::move(r));
    return added.ok() ? Status::OK() : added.status();
  }
  if (tag == "IV") {
    VDG_ASSIGN_OR_RETURN(Invocation iv, codec::DecodeInvocation(fields));
    if (invocations_.count(iv.id) != 0) {
      invocations_.insert_or_assign(iv.id, std::move(iv));
      return Status::OK();
    }
    return RecordInvocationLocked(std::move(iv)).status();
  }
  if (tag == "TY") {
    if (fields.size() < 4) return Status::ParseError("short TY record");
    int dim = static_cast<int>(std::strtol(fields[1].c_str(), nullptr, 10));
    if (dim < 0 || dim >= kNumTypeDimensions) {
      return Status::ParseError("bad TY dimension");
    }
    return DefineTypeLocked(static_cast<TypeDimension>(dim), fields[2],
                            fields[3]);
  }
  if (tag.size() == 2 && tag[0] == 'X') {
    if (fields.size() < 2) return Status::ParseError("removal missing name");
    const std::string& name = fields[1];
    switch (tag[1]) {
      case 'S':
        return RemoveDatasetLocked(name);
      case 'T':
        return RemoveTransformationLocked(name);
      case 'D':
        return RemoveDerivationLocked(name);
      case 'R':
        return RemoveReplicaLocked(name);
      default:
        return Status::ParseError("unknown removal tag: " + tag);
    }
  }
  return Status::ParseError("unknown journal record tag: " + tag);
}

}  // namespace vdg
