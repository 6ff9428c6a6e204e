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

Result<ResolvedRef> CatalogRegistry::Resolve(CatalogClient* home,
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

Result<Transformation> CatalogRegistry::FetchTransformation(
    CatalogClient* home, std::string_view ref) const {
  VDG_ASSIGN_OR_RETURN(ResolvedRef resolved, Resolve(home, ref));
  return resolved.client->GetTransformation(resolved.local_name);
}

Result<Derivation> CatalogRegistry::FetchDerivation(
    CatalogClient* home, std::string_view ref) const {
  VDG_ASSIGN_OR_RETURN(ResolvedRef resolved, Resolve(home, ref));
  return resolved.client->GetDerivation(resolved.local_name);
}

Result<Dataset> CatalogRegistry::FetchDataset(CatalogClient* home,
                                              std::string_view ref) const {
  VDG_ASSIGN_OR_RETURN(ResolvedRef resolved, Resolve(home, ref));
  return resolved.client->GetDataset(resolved.local_name);
}

Result<std::string> ExportTransformationXml(
    const VirtualDataCatalog& catalog, std::string_view name) {
  VDG_ASSIGN_OR_RETURN(Transformation tr, catalog.GetTransformation(name));
  return TransformationToXml(tr);
}

Result<std::string> ExportDerivationXml(const VirtualDataCatalog& catalog,
                                        std::string_view name) {
  VDG_ASSIGN_OR_RETURN(Derivation dv, catalog.GetDerivation(name));
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
  return destination->DefineTransformation(std::move(tr));
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
  return destination->DefineDerivation(std::move(dv));
}

Status CatalogRegistry::ImportTransformation(
    CatalogClient* home, std::string_view ref,
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

}  // namespace vdg
