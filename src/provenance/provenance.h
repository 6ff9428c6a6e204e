#ifndef VDG_PROVENANCE_PROVENANCE_H_
#define VDG_PROVENANCE_PROVENANCE_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "catalog/client.h"

namespace vdg {

class CatalogRegistry;

/// One node of a lineage tree: a dataset, the derivation that produced
/// it (empty for raw inputs), and the lineage of each input.
struct LineageNode {
  std::string dataset;
  std::string derivation;      // "" when the dataset is a raw input
  std::string transformation;  // "" when the dataset is a raw input
  std::vector<Invocation> invocations;  // executions of the derivation
  std::vector<LineageNode> inputs;
};

/// Counts datasets in a lineage tree (including repeats of shared
/// ancestors, i.e. tree nodes, not unique datasets).
size_t CountLineageNodes(const LineageNode& node);
/// Longest derivation chain below `node` (a raw input has depth 0).
int LineageDepth(const LineageNode& node);
/// Human-readable indented rendering — the paper's "detailed data
/// lineage report" for a data point.
std::string RenderLineage(const LineageNode& node);

/// Result of an invalidation cascade ("I've detected a calibration
/// error ... which derived data do I need to recompute?").
struct InvalidationReport {
  std::string source_dataset;
  /// Derived datasets downstream of the source, in name order.
  std::vector<std::string> affected_datasets;
  /// Derivations that must be re-run to repair them.
  std::vector<std::string> derivations_to_rerun;
  /// Replica ids that were (or would be) marked invalid.
  std::vector<std::string> invalidated_replicas;
};

/// Provenance queries answered through one CatalogClient: in process
/// (InProcessCatalogClient) or over the wire alike. Each lineage link
/// is one GetProvenanceStep call. With a registry, Lineage is the
/// cross-server walk of Figure 3: `vdp://` and `authority::name` inputs
/// hop to the server the registry names, bare names stay on the server
/// holding the derivation, and node names are vdp:// URIs. The other
/// queries read the tracker's client only. Lineage records its hop
/// count in the tracker, so concurrent walks need a tracker each.
class ProvenanceTracker {
 public:
  /// Borrows `client` (and `registry`, when given).
  explicit ProvenanceTracker(CatalogClient& client,
                             const CatalogRegistry* registry = nullptr)
      : client_(client), registry_(registry) {}

  /// Full upstream lineage of `dataset`. `max_depth` bounds recursion
  /// (0 = unlimited). Fails on unknown datasets and on cyclic
  /// producer graphs (which the catalog cannot represent validly).
  Result<LineageNode> Lineage(std::string_view dataset,
                              int max_depth = 0) const;
  /// Catalog-to-catalog hops the last Lineage call made.
  uint64_t last_hop_count() const { return last_hops_; }

  /// Unique upstream dataset names (excluding `dataset` itself).
  Result<std::set<std::string>> Ancestors(std::string_view dataset) const;
  /// Unique downstream dataset names (excluding `dataset` itself).
  Result<std::set<std::string>> Descendants(std::string_view dataset) const;

  /// Raw (underived) datasets this dataset ultimately depends on.
  Result<std::set<std::string>> RawSources(std::string_view dataset) const;

  /// Every invocation on the upstream path of `dataset`, oldest first —
  /// the complete audit trail of how the data came to be.
  Result<std::vector<Invocation>> AuditTrail(std::string_view dataset) const;

  /// Derivations downstream of `dataset` that would need re-running if
  /// it were found faulty; pure query, no catalog mutation.
  Result<InvalidationReport> PlanInvalidation(
      std::string_view dataset) const;

  /// Executes the cascade: marks every valid replica of every affected
  /// dataset invalid in one ApplyBatch (PermissionDenied on a
  /// read-only client). Returns the report of what was invalidated.
  Result<InvalidationReport> Invalidate(std::string_view dataset) const;

  /// True when every dataset on the upstream path of `dataset` is
  /// materialized — i.e. the audit trail is complete with real data.
  Result<bool> FullyMaterialized(std::string_view dataset) const;

 private:
  /// Builds the node `ref` names, as seen from the server `from`.
  Status BuildLineage(CatalogClient* from, std::string_view ref, int depth,
                      int max_depth, std::set<std::string>* on_path,
                      LineageNode* out) const;

  CatalogClient& client_;
  const CatalogRegistry* registry_;
  mutable uint64_t last_hops_ = 0;
};

}  // namespace vdg

#endif  // VDG_PROVENANCE_PROVENANCE_H_
