#ifndef VDG_PLANNER_EXPANSION_H_
#define VDG_PLANNER_EXPANSION_H_

#include <string>
#include <vector>

#include "catalog/client.h"
#include "schema/derivation.h"

namespace vdg {

/// Strips a namespace qualifier ("ns::name" -> "name"); local catalogs
/// key transformations by bare name, namespaces route across catalogs.
std::string StripNamespace(std::string_view transformation);

/// Expands a derivation of a *compound* transformation into the
/// equivalent list of simple-transformation derivations (Section 3.2's
/// "directed acyclic execution graph"), recursively flattening nested
/// compounds. Synthesized derivations are named
/// `<derivation>.c<k>`; unbound inout temporaries become datasets
/// named `<derivation>.<formal>` so distinct derivations never collide
/// on scratch names. Derivations of simple transformations expand to
/// themselves.
///
/// The result is ordered so that within the list, producers precede
/// consumers (the nested-call order of the VDL body, which Chimera
/// requires to be a valid execution order).
Result<std::vector<Derivation>> ExpandDerivation(
    CatalogClient& client, const Derivation& derivation);

}  // namespace vdg

#endif  // VDG_PLANNER_EXPANSION_H_
