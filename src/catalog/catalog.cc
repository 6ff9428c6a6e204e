#include "catalog/catalog.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <mutex>
#include <variant>

#include "catalog/journal_record.h"
#include "common/hash.h"
#include "common/strings.h"
#include "common/uri.h"
#include "schema/validation.h"
#include "vdl/printer.h"

namespace vdg {

namespace {

/// A visitor built from one lambda per std::variant alternative.
template <typename... Fs>
struct Overload : Fs... {
  using Fs::operator()...;
};

/// Calls fn(object) for every row of `table`, in name order.
template <typename T, typename Fn>
void ForEachRow(const RowTable<T>& table, Fn&& fn) {
  table.ScanFrom({}, [&fn](const typename RowTable<T>::Row& row) {
    fn(*row.object);
    return true;
  });
}

/// The minimal journal records that rebuild `snap` (see
/// CurrentStateRecords): rows in name order, except replicas and
/// invocations, which go in id (first-commit) order, so replay
/// re-interns them in the same relative order.
std::vector<std::string> StateRecords(const CatalogSnapshot& snap) {
  std::vector<std::string> records;
  for (int d = 0; d < kNumTypeDimensions; ++d) {
    auto dim = static_cast<TypeDimension>(d);
    for (const auto& [name, parent] :
         snap.types->dimension(dim).EdgesParentsFirst()) {
      records.push_back(journal_record::EncodeType(dim, name, parent));
    }
  }
  auto encode = [&records](const auto& object) {
    records.push_back(journal_record::Encode(object));
  };
  ForEachRow(snap.datasets, encode);
  ForEachRow(snap.transformations, encode);
  ForEachRow(snap.derivations, encode);
  auto encode_by_id = [&encode](uint32_t, const auto& object) {
    encode(object);
  };
  snap.replicas.ForEach(encode_by_id);
  snap.invocations.ForEach(encode_by_id);
  return records;
}

// A non-finite double attribute has no journal form (the object
// codec's ReadAttributeValue refuses nan and inf), so journaling one
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
    IndexDatasetAttribute(key, value, id, add);
  }
}

void VirtualDataCatalog::IndexDatasetAttribute(std::string_view key,
                                               const AttributeValue& value,
                                               Id id, bool add) {
  const Id key_id = symbols_.Intern(key);
  const Id value_id =
      symbols_.Intern(snapshot_internal::TaggedAttrValue(value));
  if (add) {
    PostingAdd(&next_.attr_index.Mutable(key_id, gen_), value_id, id);
    return;
  }
  const PostingMap* values = next_.attr_index.Find(key_id);
  if (values != nullptr && values->Find(value_id) != nullptr) {
    PostingRemove(&next_.attr_index.Mutable(key_id, gen_), value_id, id);
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

void VirtualDataCatalog::RefreshMaterialized(Id dataset, bool known_valid) {
  bool valid = known_valid;
  if (const PostingSlot* replicas = next_.replicas_of.Find(dataset);
      !valid && replicas != nullptr && replicas->list != nullptr) {
    replicas->list->ForEach([&](Id replica) {
      if (valid) return;  // the first valid replica settles it
      const Replica* rp = next_.replicas.Find(replica);
      valid = rp != nullptr && rp->valid;
    });
  }
  const bool marked = !next_.materialized.empty() &&
                      next_.materialized.list->Contains(dataset);
  if (valid && !marked) PostingAdd(&next_.materialized, dataset);
  if (!valid && marked) PostingRemove(&next_.materialized, dataset);
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
  std::lock_guard lock(mu_);
  changelog_capacity_ = capacity;
  TrimChangelogLocked();
  PublishSnapshotLocked();
}

size_t VirtualDataCatalog::changelog_capacity() const {
  std::lock_guard lock(mu_);
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
  std::lock_guard lock(mu_);
  return journal_->Sync();
}

Status VirtualDataCatalog::CompactJournal() {
  std::lock_guard lock(mu_);
  // Every commit publishes before releasing mu_, so under it the
  // published view is the writer's state.
  std::vector<std::string> records = StateRecords(View().snapshot());
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
  std::lock_guard lock(mu_);
  if (opened_) return Status::OK();
  opened_ = true;
  VDG_ASSIGN_OR_RETURN(std::vector<std::string> records, journal_->ReadAll());
  VDG_RETURN_IF_ERROR(journal_record::CheckFormat(records));
  Status replayed = ReplayLocked(records, 0);
  PublishSnapshotLocked();
  return replayed;
}

Status VirtualDataCatalog::ReplayLocked(
    const std::vector<std::string>& records, size_t begin) {
  replaying_ = true;
  for (size_t i = begin; i < records.size(); ++i) {
    Status applied = ApplyRecord(records[i]);
    if (!applied.ok()) {
      replaying_ = false;
      return Status::IoError("journal replay failed on " +
                             journal_record::Describe(i, records[i]) + ": " +
                             applied.ToString());
    }
    ++journal_records_;
    journal_chain_crc_ = Crc32Extend(journal_chain_crc_, records[i]);
  }
  replaying_ = false;
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
  std::lock_guard lock(mu_);
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
  return Journal(journal_record::EncodeType(dim, type_name, parent));
}

Status VirtualDataCatalog::LoadTypePreset() {
  std::lock_guard lock(mu_);
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
    for (const auto& [name, parent] :
         preset.dimension(dim).EdgesParentsFirst()) {
      if (types_->dimension(dim).Contains(name)) continue;  // idempotent
      result = DefineTypeLocked(dim, name, parent);
      if (!result.ok()) break;
    }
  }
  in_batch_ = false;
  batch_bumped_ = false;
  TrimChangelogLocked();
  return CommitLocked(std::move(result));
}

Status VirtualDataCatalog::DefineDataset(Dataset dataset) {
  std::lock_guard lock(mu_);
  return CommitLocked(DefineDatasetLocked(
      std::make_shared<const Dataset>(std::move(dataset))));
}

Status VirtualDataCatalog::DefineDatasetLocked(
    std::shared_ptr<const Dataset> shared) {
  const Dataset& dataset = *shared;
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
  VDG_RETURN_IF_ERROR(Journal(journal_record::Encode(dataset)));
  Id id = symbols_.Intern(dataset.name);
  IndexDatasetAttributes(dataset, id, true);
  IndexDatasetType(dataset, id, true);
  BumpVersion('U', "dataset", dataset.name);
  next_.datasets.Put(id, symbols_.NameOf(id), std::move(shared), gen_);
  return Status::OK();
}

Status VirtualDataCatalog::DefineTransformation(Transformation transformation) {
  std::lock_guard lock(mu_);
  return CommitLocked(DefineTransformationLocked(
      std::make_shared<const Transformation>(std::move(transformation))));
}

Status VirtualDataCatalog::DefineTransformationLocked(
    std::shared_ptr<const Transformation> shared) {
  const Transformation& transformation = *shared;
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
  VDG_RETURN_IF_ERROR(Journal(journal_record::Encode(transformation)));
  Id id = symbols_.Intern(transformation.name());
  BumpVersion('U', "transformation", transformation.name());
  next_.transformations.Put(id, symbols_.NameOf(id), std::move(shared), gen_);
  return Status::OK();
}

Status VirtualDataCatalog::DefineDerivation(Derivation derivation) {
  std::lock_guard lock(mu_);
  return CommitLocked(DefineDerivationLocked(
      std::make_shared<const Derivation>(std::move(derivation))));
}

Status VirtualDataCatalog::DefineDerivationLocked(
    std::shared_ptr<const Derivation> shared) {
  const Derivation& derivation = *shared;
  VDG_RETURN_IF_ERROR(derivation.Validate());
  VDG_RETURN_IF_ERROR(CheckFinite(derivation.annotations()));
  if (const auto* existing = RowOf(next_.derivations, derivation.name())) {
    if (!replaying_) {
      return Status::AlreadyExists("derivation already defined: " +
                                   derivation.name());
    }
    // A replayed re-define is an annotation upsert (the live path
    // rejects duplicate names, so the signature is unchanged). Don't
    // re-validate inputs: they were valid when the original define was
    // journaled and may have been removed since.
    Derivation updated = *existing->object;
    updated.annotations() = derivation.annotations();
    BumpVersion('U', "derivation", derivation.name());
    next_.derivations.Put(
        existing->id, existing->name,
        std::make_shared<const Derivation>(std::move(updated)), gen_);
    return Status::OK();
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
      VDG_RETURN_IF_ERROR(
          DefineDatasetLocked(std::make_shared<const Dataset>(std::move(out))));
    } else if (existing->object->producer.empty()) {
      Dataset updated = *existing->object;
      updated.producer = derivation.name();
      VDG_RETURN_IF_ERROR(Journal(journal_record::Encode(updated)));
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

  VDG_RETURN_IF_ERROR(Journal(journal_record::Encode(derivation)));

  // Index maintenance.
  Id dv_id = symbols_.Intern(derivation.name());
  IndexDerivation(derivation, dv_id, true);
  BumpVersion('U', "derivation", derivation.name());
  next_.derivations.Put(dv_id, symbols_.NameOf(dv_id), std::move(shared),
                        gen_);
  return Status::OK();
}

Result<std::string> VirtualDataCatalog::AddReplica(Replica replica) {
  std::lock_guard lock(mu_);
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
  const auto* owner = RowOf(next_.datasets, replica.dataset);
  if (owner == nullptr) {
    return Status::NotFound("replica " + replica.id +
                            " references unknown dataset " + replica.dataset);
  }
  const Id dataset = owner->id;
  const auto* existing = RowOf(next_.replicas, replica.id);
  if (existing != nullptr && !replaying_) {
    return Status::AlreadyExists("replica already exists: " + replica.id);
  }
  VDG_RETURN_IF_ERROR(Journal(journal_record::Encode(replica)));
  // Interning the id here, at its first commit, makes id order commit
  // order (ReplicasOf answers in it). A replayed upsert keeps its
  // dataset: only annotation and invalidation re-journal a replica.
  const Id id = symbols_.Intern(replica.id);
  if (existing == nullptr) PostingAdd(&next_.replicas_of, dataset, id);
  // Index-visible effect of a replica mutation: its dataset's
  // materialized bit may flip, so the changelog records a dataset
  // upsert.
  BumpVersion('U', "dataset", replica.dataset);
  const bool valid = replica.valid;
  next_.replicas.Put(id, std::make_shared<const Replica>(std::move(replica)),
                     gen_);
  RefreshMaterialized(dataset, valid);
  return std::string(symbols_.NameOf(id));
}

Result<std::string> VirtualDataCatalog::RecordInvocation(
    Invocation invocation) {
  std::lock_guard lock(mu_);
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
  const auto* existing = RowOf(next_.invocations, invocation.id);
  if (existing != nullptr && !replaying_) {
    return Status::AlreadyExists("invocation already exists: " +
                                 invocation.id);
  }
  VDG_RETURN_IF_ERROR(Journal(journal_record::Encode(invocation)));
  // As for replicas: the id is interned at its first commit, and a
  // replayed upsert (an annotation) keeps its derivation.
  const Id id = symbols_.Intern(invocation.id);
  if (existing == nullptr) {
    PostingAdd(&next_.invocations_of, symbols_.Intern(invocation.derivation),
               id);
  }
  BumpVersion('U', "invocation", invocation.id);
  next_.invocations.Put(
      id, std::make_shared<const Invocation>(std::move(invocation)), gen_);
  return std::string(symbols_.NameOf(id));
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
  std::lock_guard lock(mu_);
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

Status VirtualDataCatalog::ImportProgram(VdlProgram program) {
  std::lock_guard lock(mu_);
  in_batch_ = true;
  batch_bumped_ = false;
  Status s = ImportProgramLocked(std::move(program));
  in_batch_ = false;
  batch_bumped_ = false;
  TrimChangelogLocked();
  return CommitLocked(std::move(s));
}

Status VirtualDataCatalog::ImportProgramLocked(VdlProgram program) {
  for (Dataset& ds : program.datasets) {
    VDG_RETURN_IF_ERROR(
        DefineDatasetLocked(std::make_shared<const Dataset>(std::move(ds))));
  }
  for (Transformation& tr : program.transformations) {
    VDG_RETURN_IF_ERROR(DefineTransformationLocked(
        std::make_shared<const Transformation>(std::move(tr))));
  }
  for (Derivation& dv : program.derivations) {
    VDG_RETURN_IF_ERROR(DefineDerivationLocked(
        std::make_shared<const Derivation>(std::move(dv))));
  }
  return Status::OK();
}

Status VirtualDataCatalog::ImportVdl(std::string_view source) {
  // Parsing touches no catalog state; keep it outside the lock.
  VDG_ASSIGN_OR_RETURN(VdlProgram program, ParseVdl(source));
  return ImportProgram(std::move(program));
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
  return View().GetReplica(id);
}

Result<Invocation> VirtualDataCatalog::GetInvocation(
    std::string_view id) const {
  return View().GetInvocation(id);
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
  std::lock_guard lock(mu_);
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
    // Only `key`'s postings move: its old value's out, the new one in.
    if (const AttributeValue* old = row->object->annotations.Find(key)) {
      IndexDatasetAttribute(key, *old, id, false);
    }
    IndexDatasetAttribute(key, value, id, true);
    Dataset updated = *row->object;
    updated.annotations.Set(key, std::move(value));
    BumpVersion('U', "dataset", name);
    Status journaled = Journal(journal_record::Encode(updated));
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
    Status journaled = Journal(journal_record::Encode(updated));
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
    Status journaled = Journal(journal_record::Encode(updated));
    next_.derivations.Put(
        row->id, row->name,
        std::make_shared<const Derivation>(std::move(updated)), gen_);
    return journaled;
  }
  if (kind == "replica") {
    const Replica* current = RowOf(next_.replicas, name);
    if (current == nullptr) {
      return Status::NotFound("replica not found: " + std::string(name));
    }
    Replica updated = *current;
    updated.annotations.Set(key, std::move(value));
    BumpVersion('U', "dataset", updated.dataset);
    Status journaled = Journal(journal_record::Encode(updated));
    next_.replicas.Put(symbols_.Find(name),
                       std::make_shared<const Replica>(std::move(updated)),
                       gen_);
    return journaled;
  }
  if (kind == "invocation") {
    const Invocation* current = RowOf(next_.invocations, name);
    if (current == nullptr) {
      return Status::NotFound("invocation not found: " + std::string(name));
    }
    Invocation updated = *current;
    updated.annotations.Set(key, std::move(value));
    BumpVersion('U', "invocation", name);
    Status journaled = Journal(journal_record::Encode(updated));
    next_.invocations.Put(
        symbols_.Find(name),
        std::make_shared<const Invocation>(std::move(updated)), gen_);
    return journaled;
  }
  return Status::InvalidArgument("unknown object kind: " + std::string(kind));
}

Status VirtualDataCatalog::SetDatasetSize(std::string_view name,
                                          int64_t size_bytes) {
  std::lock_guard lock(mu_);
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
  Status journaled = Journal(journal_record::Encode(updated));
  next_.datasets.Put(row->id, row->name,
                     std::make_shared<const Dataset>(std::move(updated)),
                     gen_);
  return journaled;
}

Status VirtualDataCatalog::InvalidateReplica(std::string_view id) {
  std::lock_guard lock(mu_);
  return CommitLocked(InvalidateReplicaLocked(id));
}

Status VirtualDataCatalog::InvalidateReplicaLocked(std::string_view id) {
  const Replica* current = RowOf(next_.replicas, id);
  if (current == nullptr) {
    return Status::NotFound("replica not found: " + std::string(id));
  }
  if (!current->valid) return Status::OK();
  Replica updated = *current;
  updated.valid = false;
  BumpVersion('U', "dataset", updated.dataset);
  Status journaled = Journal(journal_record::Encode(updated));
  const Id dataset = symbols_.Intern(updated.dataset);
  next_.replicas.Put(symbols_.Find(id),
                     std::make_shared<const Replica>(std::move(updated)),
                     gen_);
  RefreshMaterialized(dataset, false);
  return journaled;
}

Status VirtualDataCatalog::RemoveDataset(std::string_view name) {
  std::lock_guard lock(mu_);
  return CommitLocked(RemoveDatasetLocked(name));
}

Status VirtualDataCatalog::RemoveDatasetLocked(std::string_view name) {
  const auto* row = RowOf(next_.datasets, name);
  if (row == nullptr) {
    return Status::NotFound("dataset not found: " + std::string(name));
  }
  const Id id = row->id;
  // Cascade to its replicas, in first-commit order.
  if (const PostingSlot* replicas = next_.replicas_of.Find(id);
      replicas != nullptr && replicas->list != nullptr) {
    for (Id replica : replicas->list->ToVector()) {
      VDG_RETURN_IF_ERROR(RemoveReplicaLocked(symbols_.NameOf(replica)));
    }
  }
  VDG_RETURN_IF_ERROR(Journal(journal_record::EncodeRemoval(
      journal_record::Tag::kRemoveDataset, name)));
  row = next_.datasets.Find(id);  // re-resolve after the cascade
  IndexDatasetAttributes(*row->object, id, false);
  IndexDatasetType(*row->object, id, false);
  BumpVersion('D', "dataset", name);
  next_.datasets.Erase(id, gen_);
  return Status::OK();
}

Status VirtualDataCatalog::RemoveTransformation(std::string_view name) {
  std::lock_guard lock(mu_);
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
  VDG_RETURN_IF_ERROR(Journal(journal_record::EncodeRemoval(
      journal_record::Tag::kRemoveTransformation, name)));
  BumpVersion('D', "transformation", name);
  next_.transformations.Erase(tr_id, gen_);
  return Status::OK();
}

Status VirtualDataCatalog::RemoveDerivation(std::string_view name) {
  std::lock_guard lock(mu_);
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
  IndexDerivation(*dv, dv_id, false);
  // Outputs lose their producer but remain defined.
  for (const std::string& output : dv->OutputDatasets()) {
    const auto* ds = RowOf(next_.datasets, output);
    if (ds != nullptr && ds->object->producer == name) {
      Dataset updated = *ds->object;
      updated.producer.clear();
      VDG_RETURN_IF_ERROR(Journal(journal_record::Encode(updated)));
      next_.datasets.Put(ds->id, ds->name,
                         std::make_shared<const Dataset>(std::move(updated)),
                         gen_);
    }
  }
  VDG_RETURN_IF_ERROR(Journal(journal_record::EncodeRemoval(
      journal_record::Tag::kRemoveDerivation, name)));
  BumpVersion('D', "derivation", name);
  next_.derivations.Erase(dv_id, gen_);
  return Status::OK();
}

Status VirtualDataCatalog::RemoveReplica(std::string_view id) {
  std::lock_guard lock(mu_);
  return CommitLocked(RemoveReplicaLocked(id));
}

Status VirtualDataCatalog::RemoveReplicaLocked(std::string_view id) {
  const Replica* current = RowOf(next_.replicas, id);
  if (current == nullptr) {
    return Status::NotFound("replica not found: " + std::string(id));
  }
  VDG_RETURN_IF_ERROR(Journal(journal_record::EncodeRemoval(
      journal_record::Tag::kRemoveReplica, id)));
  const Id replica = symbols_.Find(id);
  const Id dataset = symbols_.Intern(current->dataset);
  BumpVersion('U', "dataset", current->dataset);
  PostingRemove(&next_.replicas_of, dataset, replica);
  next_.replicas.Erase(replica, gen_);
  RefreshMaterialized(dataset, false);
  return Status::OK();
}

// ---------------------------------------------------------------------
// Navigation
// ---------------------------------------------------------------------

std::vector<Replica> VirtualDataCatalog::ReplicasOf(std::string_view dataset,
                                                    bool valid_only) const {
  return View().ReplicasOf(dataset, valid_only);
}

bool VirtualDataCatalog::IsMaterialized(std::string_view dataset) const {
  return View().IsMaterialized(dataset);
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
  return View().InvocationsOf(derivation);
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
  return View().FindEquivalentDerivation(derivation);
}

bool VirtualDataCatalog::HasBeenComputed(const Derivation& derivation) const {
  return View().HasBeenComputed(derivation);
}

// ---------------------------------------------------------------------
// Enumeration & stats
// ---------------------------------------------------------------------

NameList VirtualDataCatalog::AllDatasetNames() const {
  return View().AllDatasetNames();
}
NameList VirtualDataCatalog::AllTransformationNames() const {
  return View().AllTransformationNames();
}
NameList VirtualDataCatalog::AllDerivationNames() const {
  return View().AllDerivationNames();
}
NameList VirtualDataCatalog::AllReplicaIds() const {
  return View().AllReplicaIds();
}
NameList VirtualDataCatalog::AllInvocationIds() const {
  return View().AllInvocationIds();
}

CatalogStats VirtualDataCatalog::Stats() const { return View().Stats(); }

// ---------------------------------------------------------------------
// State records & exports
// ---------------------------------------------------------------------

std::vector<std::string> VirtualDataCatalog::CurrentStateRecords() const {
  return StateRecords(View().snapshot());
}

std::string VirtualDataCatalog::ExportVdl() const {
  return PrintProgram(ExportProgram());
}

VdlProgram VirtualDataCatalog::ExportProgram() const {
  const CatalogView view = View();
  const CatalogSnapshot& snap = view.snapshot();
  VdlProgram program;
  ForEachRow(snap.datasets, [&program](const Dataset& ds) {
    program.datasets.push_back(ds);
  });
  ForEachRow(snap.transformations, [&program](const Transformation& tr) {
    program.transformations.push_back(tr);
  });
  ForEachRow(snap.derivations, [&program](const Derivation& dv) {
    program.derivations.push_back(dv);
  });
  return program;
}

// ---------------------------------------------------------------------
// Journal replay
// ---------------------------------------------------------------------

Status VirtualDataCatalog::ApplyRecord(std::string_view record) {
  Result<journal_record::Record> decoded = journal_record::Decode(record);
  if (!decoded.ok()) return decoded.status();
  using journal_record::Tag;
  return std::visit(
      Overload{
          [this](Dataset& ds) {
            return DefineDatasetLocked(
                std::make_shared<const Dataset>(std::move(ds)));
          },
          [this](Transformation& tr) {
            return DefineTransformationLocked(
                std::make_shared<const Transformation>(std::move(tr)));
          },
          [this](Derivation& dv) {
            return DefineDerivationLocked(
                std::make_shared<const Derivation>(std::move(dv)));
          },
          [this](Replica& rp) {
            return AddReplicaLocked(std::move(rp)).status();
          },
          [this](Invocation& iv) {
            return RecordInvocationLocked(std::move(iv)).status();
          },
          [this](journal_record::TypeEdge& edge) {
            return DefineTypeLocked(edge.dimension, edge.name, edge.parent);
          },
          [this](journal_record::Removal& removal) {
            switch (removal.tag) {
              case Tag::kRemoveDataset:
                return RemoveDatasetLocked(removal.name);
              case Tag::kRemoveTransformation:
                return RemoveTransformationLocked(removal.name);
              case Tag::kRemoveDerivation:
                return RemoveDerivationLocked(removal.name);
              default:
                return RemoveReplicaLocked(removal.name);
            }
          }},
      *decoded);
}

}  // namespace vdg
