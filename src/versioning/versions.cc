#include "versioning/versions.h"

#include "common/strings.h"

namespace vdg {

std::string TransformationVersionGraph::Find(std::string name) const {
  while (true) {
    auto it = parent_.find(name);
    if (it == parent_.end() || it->second == name) return name;
    // Path halving keeps later lookups cheap.
    auto grand = parent_.find(it->second);
    if (grand != parent_.end()) it->second = grand->second;
    name = it->second;
  }
}

Status TransformationVersionGraph::RegisterVersion(
    std::string_view family, std::string_view version_name) {
  if (!IsValidIdentifier(family) || !IsValidIdentifier(version_name)) {
    return Status::InvalidArgument("invalid family or version name");
  }
  if (family_of_.count(version_name) != 0) {
    return Status::AlreadyExists("version already registered: " +
                                 std::string(version_name));
  }
  family_of_.emplace(std::string(version_name), std::string(family));
  families_[std::string(family)].push_back(std::string(version_name));
  parent_.emplace(std::string(version_name), std::string(version_name));
  return Status::OK();
}

std::vector<std::string> TransformationVersionGraph::VersionsOf(
    std::string_view family) const {
  auto it = families_.find(family);
  if (it == families_.end()) return {};
  return it->second;
}

Result<std::string> TransformationVersionGraph::LatestOf(
    std::string_view family) const {
  auto it = families_.find(family);
  if (it == families_.end() || it->second.empty()) {
    return Status::NotFound("unknown transformation family: " +
                            std::string(family));
  }
  return it->second.back();
}

Result<std::string> TransformationVersionGraph::FamilyOf(
    std::string_view version_name) const {
  auto it = family_of_.find(version_name);
  if (it == family_of_.end()) {
    return Status::NotFound("unregistered version: " +
                            std::string(version_name));
  }
  return it->second;
}

Status TransformationVersionGraph::AssertEquivalent(std::string_view a,
                                                    std::string_view b) {
  if (!IsValidIdentifier(a) || !IsValidIdentifier(b)) {
    return Status::InvalidArgument("invalid transformation name");
  }
  // Auto-register unknown names as singleton families.
  for (std::string_view name : {a, b}) {
    if (family_of_.count(name) == 0) {
      VDG_RETURN_IF_ERROR(RegisterVersion(name, name));
    }
  }
  std::string ra = Find(std::string(a));
  std::string rb = Find(std::string(b));
  if (ra != rb) parent_[ra] = rb;
  return Status::OK();
}

bool TransformationVersionGraph::AreEquivalent(std::string_view a,
                                               std::string_view b) const {
  if (a == b) return true;
  return Find(std::string(a)) == Find(std::string(b));
}

std::vector<std::string> TransformationVersionGraph::EquivalenceClassOf(
    std::string_view name) const {
  std::string root = Find(std::string(name));
  std::vector<std::string> out;
  bool saw_self = false;
  for (const auto& [member, parent] : parent_) {
    (void)parent;
    if (Find(member) == root) {
      out.push_back(member);
      if (member == name) saw_self = true;
    }
  }
  if (!saw_self) out.push_back(std::string(name));
  return out;
}

Result<std::string> FindEquivalentDerivationModuloVersion(
    CatalogClient& client, const TransformationVersionGraph& versions,
    const Derivation& derivation) {
  // Exact match first (cheapest, and correct when versions are equal).
  Result<std::string> exact = client.FindEquivalentDerivation(derivation);
  if (!exact.status().IsNotFound()) return exact;

  for (const std::string& alias :
       versions.EquivalenceClassOf(derivation.transformation())) {
    if (alias == derivation.transformation()) continue;
    Derivation retargeted = derivation;
    retargeted.set_transformation(alias);
    Result<std::string> hit = client.FindEquivalentDerivation(retargeted);
    if (!hit.status().IsNotFound()) return hit;
  }
  return Status::NotFound(
      "no equivalent derivation (even modulo version assertions)");
}

bool HasBeenComputedModuloVersion(CatalogClient& client,
                                  const TransformationVersionGraph& versions,
                                  const Derivation& derivation) {
  Result<std::string> hit =
      FindEquivalentDerivationModuloVersion(client, versions, derivation);
  if (!hit.ok()) return false;
  Result<Derivation> existing = client.GetDerivation(*hit);
  if (!existing.ok()) return false;
  std::vector<std::string> outputs = existing->OutputDatasets();
  if (outputs.empty()) return false;
  for (const std::string& output : outputs) {
    Result<bool> materialized = client.IsMaterialized(output);
    if (!materialized.ok() || !*materialized) return false;
  }
  return true;
}

Result<UpdateRecord> DatasetUpdateLog::RecordUpdate(
    CatalogClient* client, std::string_view dataset,
    std::string_view derivation, int64_t size_after, SimTime now,
    std::string note) {
  if (client == nullptr) return Status::InvalidArgument("null catalog");
  VDG_ASSIGN_OR_RETURN(Dataset ds, client->GetDataset(dataset));
  if (!derivation.empty()) {
    // The updating derivation must be defined (NotFound otherwise).
    VDG_RETURN_IF_ERROR(client->GetDerivation(derivation).status());
  }
  UpdateRecord record;
  record.dataset = std::string(dataset);
  record.derivation = std::string(derivation);
  record.updated_at = now;
  record.size_before = ds.size_bytes;
  record.size_after = size_after;
  record.note = std::move(note);

  auto& log = logs_[std::string(dataset)];
  record.sequence = log.size() + 1;
  VDG_RETURN_IF_ERROR(client->SetDatasetSize(dataset, size_after));
  VDG_RETURN_IF_ERROR(client->Annotate(
      "dataset", dataset, "vdg.updates",
      AttributeValue(static_cast<int64_t>(record.sequence))));
  log.push_back(record);
  return record;
}

std::vector<UpdateRecord> DatasetUpdateLog::HistoryOf(
    std::string_view dataset) const {
  auto it = logs_.find(dataset);
  if (it == logs_.end()) return {};
  return it->second;
}

uint64_t DatasetUpdateLog::UpdateCountOf(std::string_view dataset) const {
  auto it = logs_.find(dataset);
  return it == logs_.end() ? 0 : it->second.size();
}

Result<UpdateRecord> DatasetUpdateLog::UndoLastUpdate(
    CatalogClient* client, std::string_view dataset) {
  if (client == nullptr) return Status::InvalidArgument("null catalog");
  auto it = logs_.find(dataset);
  if (it == logs_.end() || it->second.empty()) {
    return Status::FailedPrecondition("no updates to undo for " +
                                      std::string(dataset));
  }
  UpdateRecord undone = it->second.back();
  VDG_RETURN_IF_ERROR(client->SetDatasetSize(dataset, undone.size_before));
  it->second.pop_back();
  VDG_RETURN_IF_ERROR(client->Annotate(
      "dataset", dataset, "vdg.updates",
      AttributeValue(static_cast<int64_t>(it->second.size()))));
  if (it->second.empty()) logs_.erase(it);
  return undone;
}

}  // namespace vdg
