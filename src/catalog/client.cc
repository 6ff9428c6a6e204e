#include "catalog/client.h"

#include <type_traits>
#include <utility>
#include <variant>

#include "catalog/wire.h"

namespace vdg {

namespace {

using wire::MsgKind;

/// The typed method a call kind's request runs: kind k<Name> is
/// CatalogClient::<Name> (wire.h, VDG_WIRE_CALLS).
template <MsgKind K>
constexpr auto kMethod = nullptr;
#define VDG_TYPED_METHOD(Name, ...) \
  template <>                       \
  constexpr auto kMethod<MsgKind::k##Name> = &CatalogClient::Name;
VDG_WIRE_CALLS(VDG_TYPED_METHOD)
#undef VDG_TYPED_METHOD

/// Calls `method` with the fields of `body`, which hold the method's
/// parameters in order; a body whose field count differs from the
/// method's parameter count does not compile.
template <typename R, typename... Params, typename Body>
R CallTyped(CatalogClient& client, R (CatalogClient::*method)(Params...),
            const Body& body) {
  if constexpr (sizeof...(Params) == 0) {
    return (client.*method)();
  } else if constexpr (sizeof...(Params) == 1) {
    const auto& [a] = body;
    return (client.*method)(a);
  } else if constexpr (sizeof...(Params) == 2) {
    const auto& [a, b] = body;
    return (client.*method)(a, b);
  } else {
    const auto& [a, b, c, d] = body;
    return (client.*method)(a, b, c, d);
  }
}

/// The one field of a response body.
template <typename Body>
auto& OnlyField(Body& body) {
  auto& [value] = body;
  return value;
}

/// Typed parameters become request body fields: string views are
/// copied into owned strings, everything else passes through.
std::string Owned(std::string_view s) { return std::string(s); }
template <typename T>
T&& Owned(T&& value) {
  return std::forward<T>(value);
}

}  // namespace

Result<wire::Response> CatalogClient::Call(const wire::Request& request) {
  return wire::VisitKind(
      request.kind,
      [&]<typename M>(M) -> Result<wire::Response> {
        VDG_ASSIGN_OR_RETURN(
            const auto* body,
            wire::BodyAs<typename M::RequestBody>(request));
        if constexpr (M::kKind == MsgKind::kHandshake) {
          return wire::Reply(M::kKind,
                             wire::HandshakeResp{authority(), read_only()});
        } else {
          auto answer = CallTyped(*this, kMethod<M::kKind>, *body);
          if constexpr (std::is_same_v<decltype(answer), Status>) {
            VDG_RETURN_IF_ERROR(answer);
            return wire::Reply(M::kKind, std::monostate{});
          } else {
            if (!answer.ok()) return answer.status();
            return wire::Reply(M::kKind, typename M::ResponseBody{
                                             std::move(answer).value()});
          }
        }
      },
      [&]() -> Result<wire::Response> { return wire::CheckRequest(request); });
}

Result<std::vector<uint64_t>> CatalogClient::ShardVersions() {
  VDG_ASSIGN_OR_RETURN(uint64_t version, Version());
  return std::vector<uint64_t>{version};
}

Result<std::vector<Replica>> CatalogClient::ReplicasOf(std::string_view) {
  return Status::Unimplemented("catalog client for '" + authority() +
                               "' does not answer ReplicasOf");
}

Result<std::string> CatalogClient::FindEquivalentDerivation(
    const Derivation&) {
  return Status::Unimplemented("catalog client for '" + authority() +
                               "' does not answer FindEquivalentDerivation");
}

Result<std::vector<CatalogChange>> CatalogClient::ShardChangesSince(
    uint32_t shard, uint64_t since_version) {
  if (shard != 0) {
    return Status::InvalidArgument("single-shard client has no shard " +
                                   std::to_string(shard));
  }
  return ChangesSince(since_version);
}

template <MsgKind K, typename... Args>
auto RequestClient::Send(Args&&... args) {
  using M = wire::Message<K>;
  Result<wire::Response> response = [&]() -> Result<wire::Response> {
    if (M::kMutates && read_only()) {
      return Status::PermissionDenied("catalog client for '" + authority() +
                                      "' is read-only");
    }
    return Call(wire::Request{
        K, typename M::RequestBody{Owned(std::forward<Args>(args))...}});
  }();
  if constexpr (std::is_same_v<typename M::ResponseBody, std::monostate>) {
    return response.status();
  } else {
    using T = std::remove_reference_t<decltype(OnlyField(
        std::declval<typename M::ResponseBody&>()))>;
    if (!response.ok()) return Result<T>(response.status());
    auto* body = std::get_if<typename M::ResponseBody>(&response->body);
    if (body == nullptr) {
      return Result<T>(Status::Internal("wire: response body missing for " +
                                        std::string(M::kName)));
    }
    return Result<T>(std::move(OnlyField(*body)));
  }
}

Result<uint64_t> RequestClient::Version() {
  return Send<MsgKind::kVersion>();
}

Result<std::vector<CatalogChange>> RequestClient::ChangesSince(
    uint64_t since_version) {
  return Send<MsgKind::kChangesSince>(since_version);
}

Result<Dataset> RequestClient::GetDataset(std::string_view name) {
  return Send<MsgKind::kGetDataset>(name);
}

Result<Transformation> RequestClient::GetTransformation(
    std::string_view name) {
  return Send<MsgKind::kGetTransformation>(name);
}

Result<Derivation> RequestClient::GetDerivation(std::string_view name) {
  return Send<MsgKind::kGetDerivation>(name);
}

Result<bool> RequestClient::HasDataset(std::string_view name) {
  return Send<MsgKind::kHasDataset>(name);
}

Result<bool> RequestClient::IsMaterialized(std::string_view dataset) {
  return Send<MsgKind::kIsMaterialized>(dataset);
}

Result<std::vector<Replica>> RequestClient::ReplicasOf(
    std::string_view dataset) {
  return Send<MsgKind::kReplicasOf>(dataset);
}

Result<std::string> RequestClient::ProducerOf(std::string_view dataset) {
  return Send<MsgKind::kProducerOf>(dataset);
}

Result<std::vector<Invocation>> RequestClient::InvocationsOf(
    std::string_view derivation) {
  return Send<MsgKind::kInvocationsOf>(derivation);
}

Result<NameList> RequestClient::FindDatasets(const DatasetQuery& query) {
  return Send<MsgKind::kFindDatasets>(query);
}

Result<NameList> RequestClient::FindTransformations(
    const TransformationQuery& query) {
  return Send<MsgKind::kFindTransformations>(query);
}

Result<NameList> RequestClient::FindDerivations(const DerivationQuery& query) {
  return Send<MsgKind::kFindDerivations>(query);
}

Result<NameList> RequestClient::AllNames(std::string_view kind) {
  return Send<MsgKind::kAllNames>(kind);
}

Result<bool> RequestClient::TypeConforms(const DatasetType& type,
                                         const DatasetType& against) {
  return Send<MsgKind::kTypeConforms>(type, against);
}

Result<std::string> RequestClient::FindEquivalentDerivation(
    const Derivation& derivation) {
  return Send<MsgKind::kFindEquivalentDerivation>(derivation);
}

Result<std::vector<ObjectRecord>> RequestClient::BatchGet(
    const std::vector<ObjectKey>& keys) {
  return Send<MsgKind::kBatchGet>(keys);
}

Result<ProvenanceStep> RequestClient::GetProvenanceStep(
    std::string_view dataset) {
  return Send<MsgKind::kGetProvenanceStep>(dataset);
}

Status RequestClient::DefineDataset(Dataset dataset) {
  return Send<MsgKind::kDefineDataset>(std::move(dataset));
}

Status RequestClient::DefineTransformation(Transformation transformation) {
  return Send<MsgKind::kDefineTransformation>(std::move(transformation));
}

Status RequestClient::DefineDerivation(Derivation derivation) {
  return Send<MsgKind::kDefineDerivation>(std::move(derivation));
}

Status RequestClient::Annotate(std::string_view kind, std::string_view name,
                               std::string_view key, AttributeValue value) {
  return Send<MsgKind::kAnnotate>(kind, name, key, std::move(value));
}

Result<std::string> RequestClient::AddReplica(Replica replica) {
  return Send<MsgKind::kAddReplica>(std::move(replica));
}

Result<std::string> RequestClient::RecordInvocation(Invocation invocation) {
  return Send<MsgKind::kRecordInvocation>(std::move(invocation));
}

Status RequestClient::SetDatasetSize(std::string_view name,
                                     int64_t size_bytes) {
  return Send<MsgKind::kSetDatasetSize>(name, size_bytes);
}

Status RequestClient::InvalidateReplica(std::string_view id) {
  return Send<MsgKind::kInvalidateReplica>(id);
}

Result<BatchResult> RequestClient::ApplyBatch(
    const std::vector<CatalogMutation>& mutations,
    const BatchOptions& options) {
  return Send<MsgKind::kApplyBatch>(mutations, options);
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

Result<std::vector<Replica>> InProcessCatalogClient::ReplicasOf(
    std::string_view dataset) {
  return catalog_->ReplicasOf(dataset, /*valid_only=*/false);
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

Result<std::string> InProcessCatalogClient::FindEquivalentDerivation(
    const Derivation& derivation) {
  return catalog_->FindEquivalentDerivation(derivation);
}

/// Snapshots one catalog object into an ObjectRecord.
static ObjectRecord SnapshotObject(const VirtualDataCatalog& catalog,
                                   std::string_view kind,
                                   std::string_view name) {
  ObjectRecord record;
  record.kind = std::string(kind);
  record.name = std::string(name);
  // One pinned snapshot answers the object and its materialized bit.
  const CatalogView view = catalog.View();
  if (kind == "dataset") {
    auto ds = view.GetDataset(name);
    if (ds.ok()) {
      record.dataset = *std::move(ds);
      record.materialized = view.IsMaterialized(name);
    } else {
      record.status = ds.status();
    }
  } else if (kind == "transformation") {
    auto tr = view.GetTransformation(name);
    if (tr.ok()) {
      record.transformation = *std::move(tr);
    } else {
      record.status = tr.status();
    }
  } else if (kind == "derivation") {
    auto dv = view.GetDerivation(name);
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
  // One pinned snapshot answers all four reads.
  const CatalogView view = catalog_->View();
  step.exists = view.HasDataset(dataset);
  if (!step.exists) return step;
  auto producer = view.ProducerOf(dataset);
  if (!producer.ok()) return step;  // raw input: no derivation behind it
  step.producer = *producer;
  auto derivation = view.GetDerivation(step.producer);
  if (derivation.ok()) {
    step.derivation = *std::move(derivation);
    step.invocations = view.InvocationsOf(step.producer);
    if (step.invocations.empty() && !catalog_->partition_mode()) {
      // A compound derivation executes through synthesized expansion
      // children named "<producer>.cK": their invocations are its own.
      DerivationQuery children;
      children.name_prefix = step.producer + ".";
      for (std::string_view child : view.FindDerivations(children)) {
        for (Invocation& iv : view.InvocationsOf(child)) {
          step.invocations.push_back(std::move(iv));
        }
      }
    }
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
