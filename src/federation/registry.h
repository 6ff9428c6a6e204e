#ifndef VDG_FEDERATION_REGISTRY_H_
#define VDG_FEDERATION_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "catalog/client.h"
#include "common/uri.h"

namespace vdg {

/// A resolved object reference: which catalog server (as a transport
/// handle), which local name within it.
struct ResolvedRef {
  CatalogClient* client = nullptr;
  std::string local_name;
  bool remote = false;  // true when resolution left the home catalog
};

/// Names the virtual data servers of a community and resolves the
/// inter-catalog hyperlinks of Figure 2. Reference forms:
///   "name"                  — the home catalog
///   "authority::name"       — the catalog registered as `authority`
///   "vdp://authority/name"  — fully qualified hyperlink
/// Remote resolutions are counted (`remote_lookups`) so experiments
/// can report cross-server traffic.
///
/// Catalogs are held behind CatalogClient handles, so a registry can
/// federate a mix of in-process catalogs and wire-transport remote
/// endpoints without the resolution code knowing which is
/// which. Register(VirtualDataCatalog*) wraps the catalog in a
/// zero-cost in-process client; RegisterClient installs any transport.
/// References resolve relative to a home server named by its client
/// (Find(authority) gives a registered server's).
class CatalogRegistry {
 public:
  /// Registers an in-process catalog under its own name (the vdp
  /// authority), with read-write access.
  Status Register(VirtualDataCatalog* catalog);
  /// Registers a transport handle under its authority() name.
  /// Unavailable while that name is still unknown (a resilient client
  /// that has not yet reached an endpoint); retry after a call succeeds.
  Status RegisterClient(std::shared_ptr<CatalogClient> client);

  Result<CatalogClient*> Find(std::string_view authority) const;
  bool Has(std::string_view authority) const;
  size_t size() const { return catalogs_.size(); }

  /// Resolves a reference relative to the server `home` (see class
  /// comment). `home` need not be registered: bare references bind to
  /// it, and it may be null when only qualified references are
  /// resolved. Cross-server walks pass whatever server the previous
  /// hop landed on.
  Result<ResolvedRef> Resolve(CatalogClient* home,
                              std::string_view ref) const;

  /// Typed fetch-through helpers (resolve + lookup), the federation
  /// read path used by planners and provenance.
  Result<Transformation> FetchTransformation(CatalogClient* home,
                                             std::string_view ref) const;
  Result<Derivation> FetchDerivation(CatalogClient* home,
                                     std::string_view ref) const;
  Result<Dataset> FetchDataset(CatalogClient* home,
                               std::string_view ref) const;

  /// Copies a transformation definition from wherever `ref` points
  /// into `destination` (the "knowledge propagates across the web of
  /// servers" flow of Section 4.1). The copy is annotated with its
  /// origin (`vdg.origin` = vdp URI). Importing a definition into the
  /// catalog it already lives in is rejected as InvalidArgument.
  Status ImportTransformation(CatalogClient* home, std::string_view ref,
                              CatalogClient* destination) const;

  uint64_t remote_lookups() const { return remote_lookups_; }
  void reset_remote_lookups() { remote_lookups_ = 0; }

 private:
  std::map<std::string, std::shared_ptr<CatalogClient>, std::less<>>
      catalogs_;
  mutable uint64_t remote_lookups_ = 0;
};

// ----------------------------------------------------------------------
// The XML wire path: how definitions actually travel between servers
// ("an XML version is also implemented for machine-to-machine
// interfaces"). Export produces a self-contained document; Import
// installs it into a destination catalog, tagging provenance of the
// copy with `vdg.origin`.
// ----------------------------------------------------------------------

/// Serializes one transformation from `catalog` as wire XML.
Result<std::string> ExportTransformationXml(
    const VirtualDataCatalog& catalog, std::string_view name);
/// Serializes one derivation from `catalog` as wire XML.
Result<std::string> ExportDerivationXml(const VirtualDataCatalog& catalog,
                                        std::string_view name);

/// Decodes wire XML and defines the transformation in `destination`,
/// annotated with `origin` (a vdp:// URI; may be empty).
Status ImportTransformationXml(std::string_view xml,
                               std::string_view origin,
                               VirtualDataCatalog* destination);
/// Decodes wire XML and defines the derivation in `destination`.
Status ImportDerivationXml(std::string_view xml, std::string_view origin,
                           VirtualDataCatalog* destination);

}  // namespace vdg

#endif  // VDG_FEDERATION_REGISTRY_H_
