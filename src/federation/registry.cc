#include "federation/registry.h"

#include <utility>

#include "vdl/xml.h"
#include "vdl/xml_parse.h"

namespace vdg {

Status CatalogRegistry::Register(VirtualDataCatalog* catalog) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("null catalog");
  }
  return RegisterClient(std::make_shared<InProcessCatalogClient>(catalog));
}

Status CatalogRegistry::RegisterClient(std::shared_ptr<CatalogClient> client) {
  if (client == nullptr) {
    return Status::InvalidArgument("null catalog client");
  }
  std::string authority = client->authority();
  if (authority.empty()) {
    // A resilient client learns its authority from its first successful
    // dial; registered under "" it would miss every vdp:// lookup.
    return Status::Unavailable(
        "catalog client has no authority yet (no endpoint reached)");
  }
  if (catalogs_.count(authority) != 0) {
    return Status::AlreadyExists("catalog already registered: " + authority);
  }
  catalogs_.emplace(std::move(authority), std::move(client));
  return Status::OK();
}

Result<CatalogClient*> CatalogRegistry::Find(
    std::string_view authority) const {
  auto it = catalogs_.find(authority);
  if (it == catalogs_.end()) {
    return Status::NotFound("no catalog registered for authority " +
                            std::string(authority));
  }
  return it->second.get();
}

bool CatalogRegistry::Has(std::string_view authority) const {
  return catalogs_.find(authority) != catalogs_.end();
}

Result<CatalogClient*> CatalogRegistry::ClientFor(
    VirtualDataCatalog* home) const {
  if (home == nullptr) {
    return Status::InvalidArgument("null home catalog");
  }
  // Pointer identity only: a registered home reuses its registered
  // handle (and transport), an unregistered one gets a cached
  // in-process wrapper.
  for (const auto& [authority, client] : catalogs_) {
    if (client->local_catalog() == home) return client.get();
  }
  auto it = home_wrappers_.find(home);
  if (it == home_wrappers_.end()) {
    it = home_wrappers_
             .emplace(home, std::make_shared<InProcessCatalogClient>(home))
             .first;
  }
  return it->second.get();
}

Result<ResolvedRef> CatalogRegistry::ResolveImpl(CatalogClient* home,
                                                 std::string_view ref) const {
  ResolvedRef out;
  if (IsVdpUri(ref)) {
    VDG_ASSIGN_OR_RETURN(VdpUri uri, ParseVdpUri(ref));
    VDG_ASSIGN_OR_RETURN(out.client, Find(uri.authority));
    out.local_name = uri.path;
    out.remote =
        home == nullptr || out.client->authority() != home->authority();
    if (out.remote) ++remote_lookups_;
    return out;
  }
  size_t pos = ref.find("::");
  if (pos != std::string_view::npos) {
    std::string_view authority = ref.substr(0, pos);
    std::string_view name = ref.substr(pos + 2);
    if (authority.empty()) {
      return Status::InvalidArgument("scoped reference '" + std::string(ref) +
                                     "' has an empty authority");
    }
    if (name.empty()) {
      return Status::InvalidArgument("scoped reference '" + std::string(ref) +
                                     "' has an empty object name");
    }
    VDG_ASSIGN_OR_RETURN(out.client, Find(authority));
    out.local_name = std::string(name);
    out.remote =
        home == nullptr || out.client->authority() != home->authority();
    if (out.remote) ++remote_lookups_;
    return out;
  }
  if (home == nullptr) {
    return Status::InvalidArgument("bare reference '" + std::string(ref) +
                                   "' needs a home catalog");
  }
  out.client = home;
  out.local_name = std::string(ref);
  out.remote = false;
  return out;
}

Result<ResolvedRef> CatalogRegistry::Resolve(VirtualDataCatalog* home,
                                             std::string_view ref) const {
  CatalogClient* home_client = nullptr;
  if (home != nullptr) {
    VDG_ASSIGN_OR_RETURN(home_client, ClientFor(home));
  }
  return ResolveImpl(home_client, ref);
}

Result<ResolvedRef> CatalogRegistry::ResolveFrom(CatalogClient* home,
                                                 std::string_view ref) const {
  return ResolveImpl(home, ref);
}

Result<Transformation> CatalogRegistry::FetchTransformation(
    VirtualDataCatalog* home, std::string_view ref) const {
  VDG_ASSIGN_OR_RETURN(ResolvedRef resolved, Resolve(home, ref));
  return resolved.client->GetTransformation(resolved.local_name);
}

Result<Derivation> CatalogRegistry::FetchDerivation(
    VirtualDataCatalog* home, std::string_view ref) const {
  VDG_ASSIGN_OR_RETURN(ResolvedRef resolved, Resolve(home, ref));
  return resolved.client->GetDerivation(resolved.local_name);
}

Result<Dataset> CatalogRegistry::FetchDataset(VirtualDataCatalog* home,
                                              std::string_view ref) const {
  VDG_ASSIGN_OR_RETURN(ResolvedRef resolved, Resolve(home, ref));
  return resolved.client->GetDataset(resolved.local_name);
}

Result<std::string> ExportTransformationXml(
    const VirtualDataCatalog& catalog, std::string_view name) {
  InProcessCatalogClient client(&catalog);
  VDG_ASSIGN_OR_RETURN(Transformation tr, client.GetTransformation(name));
  return TransformationToXml(tr);
}

Result<std::string> ExportDerivationXml(const VirtualDataCatalog& catalog,
                                        std::string_view name) {
  InProcessCatalogClient client(&catalog);
  VDG_ASSIGN_OR_RETURN(Derivation dv, client.GetDerivation(name));
  return DerivationToXml(dv);
}

Status ImportTransformationXml(std::string_view xml,
                               std::string_view origin,
                               VirtualDataCatalog* destination) {
  if (destination == nullptr) {
    return Status::InvalidArgument("null destination catalog");
  }
  VDG_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> node, ParseXml(xml));
  VDG_ASSIGN_OR_RETURN(Transformation tr, TransformationFromXml(*node));
  if (!origin.empty()) {
    tr.annotations().Set("vdg.origin", std::string(origin));
  }
  InProcessCatalogClient local(destination);
  return local.DefineTransformation(std::move(tr));
}

Status ImportDerivationXml(std::string_view xml, std::string_view origin,
                           VirtualDataCatalog* destination) {
  if (destination == nullptr) {
    return Status::InvalidArgument("null destination catalog");
  }
  VDG_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> node, ParseXml(xml));
  VDG_ASSIGN_OR_RETURN(Derivation dv, DerivationFromXml(*node));
  if (!origin.empty()) {
    dv.annotations().Set("vdg.origin", std::string(origin));
  }
  InProcessCatalogClient local(destination);
  return local.DefineDerivation(std::move(dv));
}

Status CatalogRegistry::ImportTransformation(
    VirtualDataCatalog* home, std::string_view ref,
    CatalogClient* destination) const {
  if (destination == nullptr) {
    return Status::InvalidArgument("null destination catalog");
  }
  VDG_ASSIGN_OR_RETURN(ResolvedRef resolved, Resolve(home, ref));
  if (resolved.client->authority() == destination->authority()) {
    return Status::InvalidArgument(
        "self-import: " + std::string(ref) + " already lives in " +
        destination->authority());
  }
  VDG_ASSIGN_OR_RETURN(
      Transformation tr,
      resolved.client->GetTransformation(resolved.local_name));
  tr.annotations().Set(
      "vdg.origin",
      MakeVdpRef(resolved.client->authority(), resolved.local_name));
  return destination->DefineTransformation(std::move(tr));
}

Status CatalogRegistry::ImportTransformation(
    VirtualDataCatalog* home, std::string_view ref,
    VirtualDataCatalog* destination) const {
  if (destination == nullptr) {
    return Status::InvalidArgument("null destination catalog");
  }
  // The destination may itself be registered (possibly behind a remote
  // transport); route through that handle so the write crosses the
  // same boundary as every other mutation.
  for (const auto& [authority, client] : catalogs_) {
    if (client->local_catalog() == destination) {
      return ImportTransformation(home, ref, client.get());
    }
  }
  InProcessCatalogClient local(destination);
  return ImportTransformation(home, ref, &local);
}

}  // namespace vdg
