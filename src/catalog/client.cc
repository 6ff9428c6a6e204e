#include "catalog/client.h"

#include <utility>
#include <variant>

namespace vdg {

Result<std::vector<uint64_t>> CatalogClient::ShardVersions() {
  VDG_ASSIGN_OR_RETURN(uint64_t version, Version());
  return std::vector<uint64_t>{version};
}

Result<std::vector<CatalogChange>> CatalogClient::ShardChangesSince(
    uint32_t shard, uint64_t since_version) {
  if (shard != 0) {
    return Status::InvalidArgument("single-shard client has no shard " +
                                   std::to_string(shard));
  }
  return ChangesSince(since_version);
}

Result<BatchResult> CatalogClient::ApplyBatch(
    const std::vector<CatalogMutation>& mutations,
    const BatchOptions& options) {
  BatchResult result;
  result.statuses.reserve(mutations.size());
  result.assigned_ids.resize(mutations.size());
  bool aborted = false;
  for (size_t i = 0; i < mutations.size(); ++i) {
    if (aborted) {
      result.statuses.push_back(
          Status::FailedPrecondition("batch aborted by earlier failure"));
      continue;
    }
    Status s = std::visit(
        [&](const auto& op) -> Status {
          using Op = std::decay_t<decltype(op)>;
          if constexpr (std::is_same_v<Op, CatalogMutation::DefineDatasetOp>) {
            return DefineDataset(op.dataset);
          } else if constexpr (std::is_same_v<
                                   Op,
                                   CatalogMutation::DefineTransformationOp>) {
            return DefineTransformation(op.transformation);
          } else if constexpr (std::is_same_v<
                                   Op, CatalogMutation::DefineDerivationOp>) {
            return DefineDerivation(op.derivation);
          } else if constexpr (std::is_same_v<Op,
                                              CatalogMutation::AnnotateOp>) {
            std::string target = op.name;
            if (op.name_from_op.has_value()) {
              if (*op.name_from_op >= i ||
                  result.assigned_ids[*op.name_from_op].empty()) {
                return Status::InvalidArgument(
                    "annotate references batch op " +
                    std::to_string(*op.name_from_op) +
                    " which assigned no id");
              }
              target = result.assigned_ids[*op.name_from_op];
            }
            return Annotate(op.kind, target, op.key, op.value);
          } else if constexpr (std::is_same_v<Op,
                                              CatalogMutation::AddReplicaOp>) {
            VDG_ASSIGN_OR_RETURN(std::string id, AddReplica(op.replica));
            result.assigned_ids[i] = std::move(id);
            return Status::OK();
          } else if constexpr (std::is_same_v<
                                   Op, CatalogMutation::RecordInvocationOp>) {
            Invocation iv = op.invocation;
            for (size_t pos : op.produced_from_ops) {
              if (pos >= i || result.assigned_ids[pos].empty()) {
                return Status::InvalidArgument(
                    "invocation references batch op " + std::to_string(pos) +
                    " which assigned no id");
              }
              iv.produced_replicas.push_back(result.assigned_ids[pos]);
            }
            VDG_ASSIGN_OR_RETURN(std::string id,
                                 RecordInvocation(std::move(iv)));
            result.assigned_ids[i] = std::move(id);
            return Status::OK();
          } else if constexpr (std::is_same_v<
                                   Op, CatalogMutation::SetDatasetSizeOp>) {
            return SetDatasetSize(op.name, op.size_bytes);
          } else {
            static_assert(
                std::is_same_v<Op, CatalogMutation::InvalidateReplicaOp>);
            return InvalidateReplica(op.id);
          }
        },
        mutations[i].op);
    if (s.ok()) {
      ++result.applied;
    } else {
      if (result.first_error.ok()) result.first_error = s;
      if (options.stop_on_error) aborted = true;
    }
    result.statuses.push_back(std::move(s));
  }
  VDG_ASSIGN_OR_RETURN(result.version, Version());
  return result;
}

InProcessCatalogClient::InProcessCatalogClient(VirtualDataCatalog* catalog,
                                               bool read_only)
    : catalog_(catalog), authority_(catalog->name()), read_only_(read_only) {}

InProcessCatalogClient::InProcessCatalogClient(
    const VirtualDataCatalog* catalog)
    : catalog_(const_cast<VirtualDataCatalog*>(catalog)),
      authority_(catalog->name()),
      read_only_(true) {}

Status InProcessCatalogClient::CheckWritable() const {
  if (read_only_) {
    return Status(StatusCode::kPermissionDenied,
                  "catalog client for '" + authority_ + "' is read-only");
  }
  return Status::OK();
}

Result<uint64_t> InProcessCatalogClient::Version() {
  return catalog_->version();
}

Result<std::vector<CatalogChange>> InProcessCatalogClient::ChangesSince(
    uint64_t since_version) {
  return catalog_->ChangesSince(since_version);
}

Result<Dataset> InProcessCatalogClient::GetDataset(std::string_view name) {
  return catalog_->GetDataset(name);
}

Result<Transformation> InProcessCatalogClient::GetTransformation(
    std::string_view name) {
  return catalog_->GetTransformation(name);
}

Result<Derivation> InProcessCatalogClient::GetDerivation(
    std::string_view name) {
  return catalog_->GetDerivation(name);
}

Result<bool> InProcessCatalogClient::HasDataset(std::string_view name) {
  return catalog_->HasDataset(name);
}

Result<bool> InProcessCatalogClient::IsMaterialized(
    std::string_view dataset) {
  return catalog_->IsMaterialized(dataset);
}

Result<std::string> InProcessCatalogClient::ProducerOf(
    std::string_view dataset) {
  return catalog_->ProducerOf(dataset);
}

Result<std::vector<Invocation>> InProcessCatalogClient::InvocationsOf(
    std::string_view derivation) {
  return catalog_->InvocationsOf(derivation);
}

Result<NameList> InProcessCatalogClient::FindDatasets(
    const DatasetQuery& query) {
  return catalog_->FindDatasets(query);
}

Result<NameList> InProcessCatalogClient::FindTransformations(
    const TransformationQuery& query) {
  return catalog_->FindTransformations(query);
}

Result<NameList> InProcessCatalogClient::FindDerivations(
    const DerivationQuery& query) {
  return catalog_->FindDerivations(query);
}

Result<NameList> InProcessCatalogClient::AllNames(
    std::string_view kind) {
  if (kind == "dataset") return catalog_->AllDatasetNames();
  if (kind == "transformation") return catalog_->AllTransformationNames();
  if (kind == "derivation") return catalog_->AllDerivationNames();
  return Status(StatusCode::kInvalidArgument,
                "unknown object kind '" + std::string(kind) + "'");
}

Result<bool> InProcessCatalogClient::TypeConforms(const DatasetType& type,
                                                  const DatasetType& against) {
  return catalog_->TypeConforms(type, against);
}

ObjectRecord InProcessCatalogClient::SnapshotObject(
    const VirtualDataCatalog& catalog, std::string_view kind,
    std::string_view name) {
  ObjectRecord record;
  record.kind = std::string(kind);
  record.name = std::string(name);
  if (kind == "dataset") {
    auto ds = catalog.GetDataset(name);
    if (ds.ok()) {
      record.dataset = *std::move(ds);
      record.materialized = catalog.IsMaterialized(name);
    } else {
      record.status = ds.status();
    }
  } else if (kind == "transformation") {
    auto tr = catalog.GetTransformation(name);
    if (tr.ok()) {
      record.transformation = *std::move(tr);
    } else {
      record.status = tr.status();
    }
  } else if (kind == "derivation") {
    auto dv = catalog.GetDerivation(name);
    if (dv.ok()) {
      record.derivation = *std::move(dv);
    } else {
      record.status = dv.status();
    }
  } else {
    record.status = Status(StatusCode::kInvalidArgument,
                           "unknown object kind '" + std::string(kind) + "'");
  }
  return record;
}

Result<std::vector<ObjectRecord>> InProcessCatalogClient::BatchGet(
    const std::vector<ObjectKey>& keys) {
  std::vector<ObjectRecord> records;
  records.reserve(keys.size());
  for (const ObjectKey& key : keys) {
    records.push_back(SnapshotObject(*catalog_, key.kind, key.name));
  }
  return records;
}

Result<ProvenanceStep> InProcessCatalogClient::GetProvenanceStep(
    std::string_view dataset) {
  ProvenanceStep step;
  step.dataset = std::string(dataset);
  // One pinned snapshot answers all three reads.
  const CatalogView view = catalog_->View();
  step.exists = view.HasDataset(dataset);
  if (!step.exists) return step;
  auto producer = view.ProducerOf(dataset);
  if (!producer.ok()) return step;  // raw input: no derivation behind it
  step.producer = *producer;
  auto derivation = view.GetDerivation(step.producer);
  if (derivation.ok()) {
    step.derivation = *std::move(derivation);
    step.invocations = catalog_->InvocationsOf(step.producer);
  }
  return step;
}

Status InProcessCatalogClient::DefineDataset(Dataset dataset) {
  VDG_RETURN_IF_ERROR(CheckWritable());
  return catalog_->DefineDataset(std::move(dataset));
}

Status InProcessCatalogClient::DefineTransformation(
    Transformation transformation) {
  VDG_RETURN_IF_ERROR(CheckWritable());
  return catalog_->DefineTransformation(std::move(transformation));
}

Status InProcessCatalogClient::DefineDerivation(Derivation derivation) {
  VDG_RETURN_IF_ERROR(CheckWritable());
  return catalog_->DefineDerivation(std::move(derivation));
}

Status InProcessCatalogClient::Annotate(std::string_view kind,
                                        std::string_view name,
                                        std::string_view key,
                                        AttributeValue value) {
  VDG_RETURN_IF_ERROR(CheckWritable());
  return catalog_->Annotate(kind, name, key, std::move(value));
}

Result<std::string> InProcessCatalogClient::AddReplica(Replica replica) {
  VDG_RETURN_IF_ERROR(CheckWritable());
  return catalog_->AddReplica(std::move(replica));
}

Result<std::string> InProcessCatalogClient::RecordInvocation(
    Invocation invocation) {
  VDG_RETURN_IF_ERROR(CheckWritable());
  return catalog_->RecordInvocation(std::move(invocation));
}

Status InProcessCatalogClient::SetDatasetSize(std::string_view name,
                                              int64_t size_bytes) {
  VDG_RETURN_IF_ERROR(CheckWritable());
  return catalog_->SetDatasetSize(name, size_bytes);
}

Status InProcessCatalogClient::InvalidateReplica(std::string_view id) {
  VDG_RETURN_IF_ERROR(CheckWritable());
  return catalog_->InvalidateReplica(id);
}

Result<BatchResult> InProcessCatalogClient::ApplyBatch(
    const std::vector<CatalogMutation>& mutations,
    const BatchOptions& options) {
  VDG_RETURN_IF_ERROR(CheckWritable());
  return catalog_->ApplyBatch(mutations, options);
}

}  // namespace vdg
