#include "catalog/client.h"

#include <type_traits>
#include <utility>
#include <variant>

#include "catalog/wire.h"

namespace vdg {

namespace {

using wire::MsgKind;

/// Answers `request` with `fn(body)` when its body is a `ReqBody`, the
/// alternative its kind carries; InvalidArgument otherwise. `fn`
/// returns a Status (mutations answer with a bodyless response) or a
/// Result<T> whose value becomes the response's `RespBody`.
template <typename ReqBody, typename RespBody = std::monostate,
          typename Fn>
Result<wire::Response> Answer(const wire::Request& request, Fn&& fn) {
  const ReqBody* body = std::get_if<ReqBody>(&request.body);
  if (body == nullptr) {
    return Status::InvalidArgument(
        "request body does not match message kind " +
        std::string(wire::MsgKindName(request.kind)));
  }
  auto answer = fn(*body);
  wire::Response response;
  response.kind = request.kind;
  if constexpr (std::is_same_v<decltype(answer), Status>) {
    if (!answer.ok()) return answer;
  } else {
    if (!answer.ok()) return answer.status();
    response.body = RespBody{std::move(answer).value()};
  }
  return response;
}

/// The `field` of an OK response's `RespBody`; a missing body of that
/// alternative is a protocol violation.
template <typename RespBody, typename T>
Result<T> Take(Result<wire::Response> response, T RespBody::*field) {
  if (!response.ok()) return response.status();
  auto* body = std::get_if<RespBody>(&response->body);
  if (body == nullptr) {
    return Status::Internal("wire: response body missing for " +
                            std::string(wire::MsgKindName(response->kind)));
  }
  return std::move(body->*field);
}

wire::NameReq Named(std::string_view name) { return {std::string(name)}; }

}  // namespace

Result<wire::Response> CatalogClient::Call(const wire::Request& request) {
  using wire::EmptyReq;
  using wire::NameReq;
  switch (request.kind) {
    case MsgKind::kHandshake:
      return Answer<EmptyReq, wire::HandshakeResp>(
          request, [&](const auto&) -> Result<wire::HandshakeResp> {
            return wire::HandshakeResp{authority(), read_only()};
          });
    case MsgKind::kVersion:
      return Answer<EmptyReq, wire::VersionResp>(
          request, [&](const auto&) { return Version(); });
    case MsgKind::kChangesSince:
      return Answer<wire::ChangesSinceReq, wire::ChangesResp>(
          request,
          [&](const auto& b) { return ChangesSince(b.since_version); });
    case MsgKind::kGetDataset:
      return Answer<NameReq, wire::DatasetResp>(
          request, [&](const auto& b) { return GetDataset(b.name); });
    case MsgKind::kGetTransformation:
      return Answer<NameReq, wire::TransformationResp>(
          request, [&](const auto& b) { return GetTransformation(b.name); });
    case MsgKind::kGetDerivation:
      return Answer<NameReq, wire::DerivationResp>(
          request, [&](const auto& b) { return GetDerivation(b.name); });
    case MsgKind::kHasDataset:
      return Answer<NameReq, wire::BoolResp>(
          request, [&](const auto& b) { return HasDataset(b.name); });
    case MsgKind::kIsMaterialized:
      return Answer<NameReq, wire::BoolResp>(
          request, [&](const auto& b) { return IsMaterialized(b.name); });
    case MsgKind::kProducerOf:
      return Answer<NameReq, wire::StringResp>(
          request, [&](const auto& b) { return ProducerOf(b.name); });
    case MsgKind::kInvocationsOf:
      return Answer<NameReq, wire::InvocationsResp>(
          request, [&](const auto& b) { return InvocationsOf(b.name); });
    case MsgKind::kFindDatasets:
      return Answer<wire::FindDatasetsReq, wire::NamesResp>(
          request, [&](const auto& b) { return FindDatasets(b.query); });
    case MsgKind::kFindTransformations:
      return Answer<wire::FindTransformationsReq, wire::NamesResp>(
          request, [&](const auto& b) { return FindTransformations(b.query); });
    case MsgKind::kFindDerivations:
      return Answer<wire::FindDerivationsReq, wire::NamesResp>(
          request, [&](const auto& b) { return FindDerivations(b.query); });
    case MsgKind::kAllNames:
      return Answer<NameReq, wire::NamesResp>(
          request, [&](const auto& b) { return AllNames(b.name); });
    case MsgKind::kTypeConforms:
      return Answer<wire::TypeConformsReq, wire::BoolResp>(
          request,
          [&](const auto& b) { return TypeConforms(b.type, b.against); });
    case MsgKind::kBatchGet:
      return Answer<wire::BatchGetReq, wire::RecordsResp>(
          request, [&](const auto& b) { return BatchGet(b.keys); });
    case MsgKind::kGetProvenanceStep:
      return Answer<NameReq, wire::StepResp>(
          request, [&](const auto& b) { return GetProvenanceStep(b.name); });
    case MsgKind::kDefineDataset:
      return Answer<wire::DefineDatasetReq>(
          request, [&](const auto& b) { return DefineDataset(b.dataset); });
    case MsgKind::kDefineTransformation:
      return Answer<wire::DefineTransformationReq>(request, [&](const auto& b) {
        return DefineTransformation(b.transformation);
      });
    case MsgKind::kDefineDerivation:
      return Answer<wire::DefineDerivationReq>(request, [&](const auto& b) {
        return DefineDerivation(b.derivation);
      });
    case MsgKind::kAnnotate:
      return Answer<wire::AnnotateReq>(request, [&](const auto& b) {
        return Annotate(b.kind, b.name, b.key, b.value);
      });
    case MsgKind::kAddReplica:
      return Answer<wire::AddReplicaReq, wire::StringResp>(
          request, [&](const auto& b) { return AddReplica(b.replica); });
    case MsgKind::kRecordInvocation:
      return Answer<wire::RecordInvocationReq, wire::StringResp>(
          request,
          [&](const auto& b) { return RecordInvocation(b.invocation); });
    case MsgKind::kSetDatasetSize:
      return Answer<wire::SetDatasetSizeReq>(request, [&](const auto& b) {
        return SetDatasetSize(b.name, b.size_bytes);
      });
    case MsgKind::kInvalidateReplica:
      return Answer<NameReq>(
          request, [&](const auto& b) { return InvalidateReplica(b.name); });
    case MsgKind::kApplyBatch:
      return Answer<wire::ApplyBatchReq, wire::BatchResultResp>(
          request,
          [&](const auto& b) { return ApplyBatch(b.mutations, b.options); });
  }
  return Status::InvalidArgument(
      "unknown message kind " +
      std::to_string(static_cast<int>(request.kind)));
}

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

template <typename Body>
Result<wire::Response> RequestClient::Send(MsgKind kind, Body body) {
  if (wire::IsMutation(kind) && read_only()) {
    return Status::PermissionDenied("catalog client for '" + authority() +
                                    "' is read-only");
  }
  wire::Request request;
  request.kind = kind;
  request.body = std::move(body);
  return Call(request);
}

Result<uint64_t> RequestClient::Version() {
  return Take(Send(MsgKind::kVersion, wire::EmptyReq{}),
              &wire::VersionResp::version);
}

Result<std::vector<CatalogChange>> RequestClient::ChangesSince(
    uint64_t since_version) {
  return Take(
      Send(MsgKind::kChangesSince, wire::ChangesSinceReq{since_version}),
      &wire::ChangesResp::changes);
}

Result<Dataset> RequestClient::GetDataset(std::string_view name) {
  return Take(Send(MsgKind::kGetDataset, Named(name)),
              &wire::DatasetResp::dataset);
}

Result<Transformation> RequestClient::GetTransformation(
    std::string_view name) {
  return Take(Send(MsgKind::kGetTransformation, Named(name)),
              &wire::TransformationResp::transformation);
}

Result<Derivation> RequestClient::GetDerivation(std::string_view name) {
  return Take(Send(MsgKind::kGetDerivation, Named(name)),
              &wire::DerivationResp::derivation);
}

Result<bool> RequestClient::HasDataset(std::string_view name) {
  return Take(Send(MsgKind::kHasDataset, Named(name)), &wire::BoolResp::value);
}

Result<bool> RequestClient::IsMaterialized(std::string_view dataset) {
  return Take(Send(MsgKind::kIsMaterialized, Named(dataset)),
              &wire::BoolResp::value);
}

Result<std::string> RequestClient::ProducerOf(std::string_view dataset) {
  return Take(Send(MsgKind::kProducerOf, Named(dataset)),
              &wire::StringResp::value);
}

Result<std::vector<Invocation>> RequestClient::InvocationsOf(
    std::string_view derivation) {
  return Take(Send(MsgKind::kInvocationsOf, Named(derivation)),
              &wire::InvocationsResp::invocations);
}

Result<NameList> RequestClient::FindDatasets(const DatasetQuery& query) {
  return Take(Send(MsgKind::kFindDatasets, wire::FindDatasetsReq{query}),
              &wire::NamesResp::names);
}

Result<NameList> RequestClient::FindTransformations(
    const TransformationQuery& query) {
  return Take(
      Send(MsgKind::kFindTransformations, wire::FindTransformationsReq{query}),
      &wire::NamesResp::names);
}

Result<NameList> RequestClient::FindDerivations(const DerivationQuery& query) {
  return Take(Send(MsgKind::kFindDerivations, wire::FindDerivationsReq{query}),
              &wire::NamesResp::names);
}

Result<NameList> RequestClient::AllNames(std::string_view kind) {
  return Take(Send(MsgKind::kAllNames, Named(kind)), &wire::NamesResp::names);
}

Result<bool> RequestClient::TypeConforms(const DatasetType& type,
                                         const DatasetType& against) {
  return Take(
      Send(MsgKind::kTypeConforms, wire::TypeConformsReq{type, against}),
      &wire::BoolResp::value);
}

Result<std::vector<ObjectRecord>> RequestClient::BatchGet(
    const std::vector<ObjectKey>& keys) {
  return Take(Send(MsgKind::kBatchGet, wire::BatchGetReq{keys}),
              &wire::RecordsResp::records);
}

Result<ProvenanceStep> RequestClient::GetProvenanceStep(
    std::string_view dataset) {
  return Take(Send(MsgKind::kGetProvenanceStep, Named(dataset)),
              &wire::StepResp::step);
}

Status RequestClient::DefineDataset(Dataset dataset) {
  return Send(MsgKind::kDefineDataset,
              wire::DefineDatasetReq{std::move(dataset)})
      .status();
}

Status RequestClient::DefineTransformation(Transformation transformation) {
  return Send(MsgKind::kDefineTransformation,
              wire::DefineTransformationReq{std::move(transformation)})
      .status();
}

Status RequestClient::DefineDerivation(Derivation derivation) {
  return Send(MsgKind::kDefineDerivation,
              wire::DefineDerivationReq{std::move(derivation)})
      .status();
}

Status RequestClient::Annotate(std::string_view kind, std::string_view name,
                               std::string_view key, AttributeValue value) {
  return Send(MsgKind::kAnnotate,
              wire::AnnotateReq{std::string(kind), std::string(name),
                                std::string(key), std::move(value)})
      .status();
}

Result<std::string> RequestClient::AddReplica(Replica replica) {
  return Take(
      Send(MsgKind::kAddReplica, wire::AddReplicaReq{std::move(replica)}),
      &wire::StringResp::value);
}

Result<std::string> RequestClient::RecordInvocation(Invocation invocation) {
  return Take(Send(MsgKind::kRecordInvocation,
                   wire::RecordInvocationReq{std::move(invocation)}),
              &wire::StringResp::value);
}

Status RequestClient::SetDatasetSize(std::string_view name,
                                     int64_t size_bytes) {
  return Send(MsgKind::kSetDatasetSize,
              wire::SetDatasetSizeReq{std::string(name), size_bytes})
      .status();
}

Status RequestClient::InvalidateReplica(std::string_view id) {
  return Send(MsgKind::kInvalidateReplica, Named(id)).status();
}

Result<BatchResult> RequestClient::ApplyBatch(
    const std::vector<CatalogMutation>& mutations,
    const BatchOptions& options) {
  return Take(
      Send(MsgKind::kApplyBatch, wire::ApplyBatchReq{mutations, options}),
      &wire::BatchResultResp::result);
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
